//! The three workloads: how their inputs are made, how one timed campaign
//! runs, and the checks every campaign must pass.

use crate::trace::{LoopCounters, TracedPredictor, TracedStrategy};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_bench::{std_pipeline, Scale};
use snowcat_cfg::KernelCfg;
use snowcat_core::{
    load_checkpoint, save_checkpoint, train_pic, CostModel, CoveragePredictor, ExploreConfig,
    Explorer, Pic, PredictorService, StrategyKind,
};
use snowcat_corpus::{interacting_cti_pairs, StiFuzzer, StiProfile};
use snowcat_events::{EventSink, EventWriter, WriteSummary};
use snowcat_harness::{
    load_checkpoint_with_fallback, prev_path, report_from_campaign_checkpoint,
    report_from_supervised, run_supervised_campaign, SupervisedResult, SupervisorConfig,
};
use snowcat_kernel::{Kernel, KernelVersion};
use snowcat_nn::{Checkpoint, TrainConfig};
use snowcat_serve::{
    run_served_campaign, ApGate, InferenceServer, ServeConfig, ServedCampaignConfig, ServingReport,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Execution budget per CTI: the paper's 50 (with its 1,600-inference cap,
/// which is `ExploreConfig`'s default).
pub const EXEC_BUDGET: usize = 50;
/// Checkpoint cadence of `pct-durable`, the `snowcat campaign` default.
pub const CHECKPOINT_EVERY: usize = 25;
/// Event-queue capacity, as in `snowcat campaign --events`.
const EVENT_QUEUE_CAP: usize = 1 << 16;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MLPCT-S1 on a direct `Pic`; no checkpoints, no events.
    MlpctS1,
    /// PCT with a checkpoint every 25 CTIs and the event writer on.
    PctDurable,
    /// The `mlpct-s1` campaign through the micro-batching inference server.
    MlpctS1Served,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::MlpctS1, Workload::PctDurable, Workload::MlpctS1Served];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MlpctS1 => "mlpct-s1",
            Workload::PctDurable => "pct-durable",
            Workload::MlpctS1Served => "mlpct-s1-served",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// CTIs in one timed campaign: sized so one campaign takes 2–5 s on a
    /// 2-core Xeon, and a run repeats it to fill its window.
    pub fn ctis(self) -> usize {
        match self {
            Workload::MlpctS1 => 40,
            Workload::PctDurable => 2400,
            Workload::MlpctS1Served => 8,
        }
    }

    pub fn mlpct(self) -> bool {
        self != Workload::PctDurable
    }

    pub fn durable(self) -> bool {
        self == Workload::PctDurable
    }

    pub fn served(self) -> bool {
        self == Workload::MlpctS1Served
    }
}

/// The `snowcat campaign --serve` defaults.
pub fn serve_config() -> ServeConfig {
    ServeConfig { max_batch: 16, max_wait_us: 200, workers: 1, ..ServeConfig::default() }
}

pub fn explore_config(seed: u64) -> ExploreConfig {
    ExploreConfig::default().with_exec_budget(EXEC_BUDGET).with_seed(seed)
}

/// Train the PIC-5-shaped model the campaigns deploy and write it to
/// `path`. The model depends on the kernel only, so every seed of one
/// kernel deploys the same model. Returns the training seconds.
pub fn prepare_model(kernel_seed: u64, path: &Path) -> Result<f64, String> {
    let kernel = KernelVersion::V5_12.spec(kernel_seed).build();
    let kcfg = KernelCfg::build(&kernel);
    let std = std_pipeline(Scale::Default);
    let pcfg = std
        .with_n_ctis(60)
        .with_train(TrainConfig { epochs: 3, ..std.train })
        .with_seed(kernel_seed);
    let t = Instant::now();
    let ck = train_pic(&kernel, &kcfg, &pcfg, "PIC-5").checkpoint;
    let train_s = t.elapsed().as_secs_f64();
    save_checkpoint(path, &ck).map_err(|e| e.to_string())?;
    Ok(train_s)
}

/// What a campaign needs before its first CTI.
pub struct Inputs {
    pub kernel: Kernel,
    pub kcfg: KernelCfg,
    pub corpus: Vec<StiProfile>,
    pub stream: Vec<(usize, usize)>,
    pub model: Checkpoint,
}

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total: f64,
    pub kernel: f64,
    pub cfg: f64,
    pub fuzz: f64,
    pub load: f64,
}

/// Do what `snowcat campaign` does before its first CTI: build the kernel
/// and its CFG, fuzz the corpus, draw the CTI stream, load the model and
/// deploy it. Everything here derives from `kernel_seed`, so runs that
/// differ only in their exploration seed test the same inputs.
pub fn setup(
    kernel_seed: u64,
    ctis: usize,
    model_path: &Path,
) -> Result<(Inputs, SetupTimes), String> {
    let start = Instant::now();
    let mut t = Instant::now();
    let mut lap = || {
        let s = t.elapsed().as_secs_f64();
        t = Instant::now();
        s
    };
    let kernel = KernelVersion::V5_12.spec(kernel_seed).build();
    let kernel_s = lap();
    let kcfg = KernelCfg::build(&kernel);
    let cfg_s = lap();
    let mut fz = StiFuzzer::new(&kernel, kernel_seed);
    fz.seed_each_syscall();
    fz.fuzz(100);
    let corpus = fz.into_corpus();
    let fuzz_s = lap();
    let mut rng = ChaCha8Rng::seed_from_u64(kernel_seed ^ 0xE0);
    let stream = interacting_cti_pairs(&mut rng, &corpus, ctis);
    lap();
    let model = load_checkpoint(model_path).map_err(|e| e.to_string())?;
    std::hint::black_box(Pic::new(&model, &kernel, &kcfg));
    let load_s = lap();
    let times = SetupTimes {
        total: start.elapsed().as_secs_f64(),
        kernel: kernel_s,
        cfg: cfg_s,
        fuzz: fuzz_s,
        load: load_s,
    };
    Ok((Inputs { kernel, kcfg, corpus, stream, model }, times))
}

/// One campaign's result and wall time.
pub struct Run {
    pub sup: SupervisedResult,
    pub wall_s: f64,
    pub events: Option<WriteSummary>,
    pub serving: Option<ServingReport>,
    /// The final checkpoint, for workloads that write one.
    pub checkpoint: Option<PathBuf>,
}

/// Run one campaign over `stream` the way `snowcat campaign` runs it. With
/// `counters`, inference and selection go through counting wrappers.
pub fn run_campaign(
    w: Workload,
    inp: &Inputs,
    stream: &[(usize, usize)],
    seed: u64,
    out: &Path,
    counters: Option<&Arc<LoopCounters>>,
) -> Result<Run, String> {
    let cfg = explore_config(seed);
    let cost = CostModel::default();
    let (k, corpus) = (&inp.kernel, &inp.corpus);
    let mut sup = SupervisorConfig::new();
    let err = |e: snowcat_core::SnowcatError| e.to_string();
    let strategy = || match counters {
        Some(c) => Box::new(TracedStrategy::new(StrategyKind::S1.build(), c.clone())) as _,
        None => StrategyKind::S1.build(),
    };
    match w {
        Workload::MlpctS1 => {
            let pic = Pic::new(&inp.model, k, &inp.kcfg);
            let traced = counters.map(|c| TracedPredictor::new(&pic, c.clone()));
            let service = match &traced {
                Some(t) => PredictorService::with(&pic, t),
                None => PredictorService::direct(&pic),
            };
            let explorer = Explorer::MlPct { service, strategy: strategy() };
            let t = Instant::now();
            let sup = run_supervised_campaign(k, corpus, stream, explorer, &cfg, &cost, &sup, None)
                .map_err(err)?;
            let wall_s = t.elapsed().as_secs_f64();
            Ok(Run { sup, wall_s, events: None, serving: None, checkpoint: None })
        }
        Workload::PctDurable => {
            let path = out.join("campaign.sccp");
            for p in [prev_path(&path), path.clone()] {
                if p.exists() {
                    std::fs::remove_file(&p).map_err(|e| format!("{}: {e}", p.display()))?;
                }
            }
            let t = Instant::now();
            let sink = EventSink::bounded(EVENT_QUEUE_CAP);
            let writer = EventWriter::spawn(sink.clone(), &out.join("events"))
                .map_err(|e| format!("event writer: {e}"))?;
            sup.checkpoint_path = Some(path.clone());
            sup.checkpoint_every = CHECKPOINT_EVERY;
            sup.events = Some(sink);
            let res =
                run_supervised_campaign(k, corpus, stream, Explorer::Pct, &cfg, &cost, &sup, None);
            let events = writer.finish().map_err(|e| format!("event writer: {e}"))?;
            let wall_s = t.elapsed().as_secs_f64();
            Ok(Run {
                sup: res.map_err(err)?,
                wall_s,
                events: Some(events),
                serving: None,
                checkpoint: Some(path),
            })
        }
        Workload::MlpctS1Served => {
            let t = Instant::now();
            let (sup, serving) = match counters {
                None => {
                    let scfg = ServedCampaignConfig {
                        serve: serve_config(),
                        strategy: StrategyKind::S1,
                        ..ServedCampaignConfig::default()
                    };
                    let outcome = run_served_campaign(
                        k,
                        &inp.kcfg,
                        corpus,
                        stream,
                        &inp.model,
                        &cfg,
                        &cost,
                        &sup,
                        &ApGate::disabled(),
                        &scfg,
                        None,
                    )
                    .map_err(err)?;
                    (outcome.result, outcome.serving)
                }
                // `run_served_campaign` with refresh off, assembled here so
                // the counting wrapper can sit between the campaign and the
                // server handle.
                Some(c) => {
                    let mut server = InferenceServer::start(&inp.model, serve_config(), None);
                    let handle = server.handle();
                    let pic = Pic::new(&inp.model, k, &inp.kcfg);
                    let traced = TracedPredictor::new(&handle as &dyn CoveragePredictor, c.clone());
                    let explorer = Explorer::MlPct {
                        service: PredictorService::with(&pic, &traced),
                        strategy: strategy(),
                    };
                    let res = run_supervised_campaign(
                        k, corpus, stream, explorer, &cfg, &cost, &sup, None,
                    );
                    let serving = server.shutdown();
                    (res.map_err(err)?, serving)
                }
            };
            let wall_s = t.elapsed().as_secs_f64();
            Ok(Run { sup, wall_s, events: None, serving: Some(serving), checkpoint: None })
        }
    }
}

/// FNV-1a of the campaign's canonical report: the value a performance
/// change must leave unchanged.
pub fn report_digest(sup: &SupervisedResult, seed: u64) -> u64 {
    report_from_supervised(sup, seed)
        .to_canonical_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// CTIs of the stream that were quarantined, skipped as quarantined, or
/// never reached.
pub fn failed_ctis(sup: &SupervisedResult, ctis: usize) -> u64 {
    let accepted = sup.result.history.len() as u64;
    let quarantined = sup.recovery.quarantined + sup.recovery.skipped_quarantined;
    (ctis as u64).saturating_sub(accepted + quarantined) + quarantined
}

/// Every check one campaign must pass; returns the failures.
pub fn check_run(w: Workload, run: &Run, ctis: usize, seed: u64) -> Vec<String> {
    let mut fails = Vec::new();
    let h = &run.sup.result.history;
    for pair in h.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let monotone = a.ctis < b.ctis
            && a.executions <= b.executions
            && a.inferences <= b.inferences
            && a.hours <= b.hours
            && a.races <= b.races
            && a.harmful_races <= b.harmful_races
            && a.sched_dep_blocks <= b.sched_dep_blocks
            && a.bugs <= b.bugs;
        if !monotone {
            fails.push(format!("history not monotone at CTI {}", b.ctis));
            break;
        }
    }
    let last = run.sup.result.last();
    if w.mlpct() {
        if last.inferences < last.executions {
            fails.push(format!("{} inferences < {} executions", last.inferences, last.executions));
        }
        if last.executions > (EXEC_BUDGET * ctis) as u64 {
            fails.push(format!("{} executions exceed 50 x {ctis} CTIs", last.executions));
        }
    }
    if let Some(ev) = &run.events {
        if ev.dropped > 0 {
            fails.push(format!("{} events dropped", ev.dropped));
        }
    }
    if let Some(path) = &run.checkpoint {
        match load_checkpoint_with_fallback(path) {
            Err(e) => fails.push(format!("final checkpoint does not load: {e}")),
            Ok((_, true)) => fails.push("final checkpoint needed the .prev fallback".into()),
            Ok((ck, false)) => {
                if ck.position != ctis
                    || ck.executions != last.executions
                    || ck.race_keys.len() != last.races
                    || ck.harmful_keys.len() != last.harmful_races
                {
                    fails.push(format!(
                        "final checkpoint (position {}, {} executions, {} races) does not match \
                         the result ({ctis} CTIs, {} executions, {} races)",
                        ck.position,
                        ck.executions,
                        ck.race_keys.len(),
                        last.executions,
                        last.races
                    ));
                }
                // Without predictor counters the checkpoint's report is the
                // live report, byte for byte.
                if run.sup.predictor_stats.is_none()
                    && report_from_campaign_checkpoint(&ck).to_canonical_json()
                        != report_from_supervised(&run.sup, seed).to_canonical_json()
                {
                    fails.push("final checkpoint report differs from the live report".into());
                }
            }
        }
    }
    fails
}
