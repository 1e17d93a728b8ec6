//! Implementations of the `snowcat` subcommands.

use crate::args::{ArgError, Args};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_analysis::{analyze as run_analysis, Allowlist, Severity};
use snowcat_cfg::KernelCfg;
use snowcat_core::{
    as_flow_labeled, as_labeled, explore_mlpct, explore_pct, find_candidates,
    find_candidates_prefiltered, load_checkpoint, reproduce, save_checkpoint, save_checkpoint_json,
    save_dataset, CostModel, CoveragePredictor, ExploreConfig, Explorer, Pic, PipelineConfig,
    PredictorService, RacePrefilter, RazzerMode, S1NewBitmap, SnowcatError, StrategyKind,
};
use snowcat_corpus::{build_dataset, interacting_cti_pairs, DatasetConfig, StiFuzzer, StiProfile};
use snowcat_events::{
    read_stream, validate_trace, CampaignEvent, Event, EventSink, EventWriter, FleetEvent,
    ServeEvent, TrainEvent, EVENTS_FILE, TRACE_FILE,
};
use snowcat_harness::{
    clear_fleet_dir, load_checkpoint_with_fallback, load_fleet_checkpoint_with_fallback,
    load_shards_quarantining, load_train_checkpoint_with_fallback, report_from_campaign_checkpoint,
    report_from_fleet_checkpoint, report_from_supervised, report_from_train,
    report_from_train_checkpoint, robust_train, run_fleet, run_supervised_campaign, FaultPlan,
    FleetCheckpoint, FleetConfig, RobustTrainConfig, SupervisorConfig, ThreadWorker,
    TrainFaultPlan,
};
use snowcat_kernel::{asm, Kernel, KernelVersion};
use snowcat_nn::{Checkpoint, PicConfig, PicModel, TrainConfig};
use snowcat_serve::{
    run_served_campaign, ApGate, InferenceServer, RefreshConfig, ServeConfig, ServedCampaignConfig,
};

/// Default family seed, matching the experiment harness.
const DEFAULT_SEED: u64 = 0x5EED_2023;

type CmdResult = Result<(), Box<dyn std::error::Error>>;

fn build_kernel(args: &Args) -> Result<Kernel, Box<dyn std::error::Error>> {
    let seed = args.get_parse("seed", DEFAULT_SEED)?;
    let version = match args.get_or("version", "5.12").as_str() {
        "5.12" => KernelVersion::V5_12,
        "5.13" => KernelVersion::V5_13,
        "6.1" => KernelVersion::V6_1,
        other => return Err(format!("unknown kernel version {other:?} (5.12|5.13|6.1)").into()),
    };
    Ok(version.spec(seed).build())
}

/// `snowcat kernel` — inventory, optional block stats and bug registry.
pub fn kernel(args: &Args) -> CmdResult {
    args.ensure_known(&["version", "seed", "stats", "bugs"])?;
    let k = build_kernel(args)?;
    println!("kernel {} (seed {:#x})", k.version, args.get_parse("seed", DEFAULT_SEED)?);
    println!(
        "  {} subsystems, {} functions, {} basic blocks, {} instructions",
        k.subsystems.len(),
        k.funcs.len(),
        k.num_blocks(),
        k.num_instrs()
    );
    println!(
        "  {} syscalls, {} locks, {} memory words, {} planted bugs",
        k.syscalls.len(),
        k.num_locks,
        k.mem_words,
        k.bugs.len()
    );
    if args.has_flag("stats") {
        let stats = snowcat_kernel::KernelStats::compute(&k);
        println!("\ninstruction mix ({} total):", stats.mix.total());
        println!(
            "  loads {} / stores {} ({:.1}% memory), binops {}, consts {}, lock/unlock {}/{}, calls {}, bug checks {}, nops {}",
            stats.mix.loads,
            stats.mix.stores,
            stats.mix.memory_fraction() * 100.0,
            stats.mix.binops,
            stats.mix.consts,
            stats.mix.locks,
            stats.mix.unlocks,
            stats.mix.calls,
            stats.mix.bug_checks,
            stats.mix.nops,
        );
        println!("\nper-subsystem inventory:");
        for (si, sub) in k.subsystems.iter().enumerate() {
            let funcs = k.funcs.iter().filter(|f| f.subsystem.index() == si).count();
            let calls = k.syscalls.iter().filter(|s| s.subsystem.index() == si).count();
            let (_, blocks, instrs) = &stats.per_subsystem[si];
            println!(
                "  {:<14} {} funcs, {} syscalls, {} locks, {} regions, {} blocks, {} instrs",
                sub.name,
                funcs,
                calls,
                sub.locks.len(),
                sub.regions.len(),
                blocks,
                instrs,
            );
        }
    }
    if args.has_flag("bugs") {
        println!("\nplanted bugs:");
        for b in &k.bugs {
            println!(
                "  #{:<3} [{}] {:<9} {}  ({}~{})",
                b.id.0,
                b.kind.code(),
                format!("{:?}", b.difficulty),
                b.summary,
                k.syscall(b.syscalls.0).name,
                k.syscall(b.syscalls.1).name,
            );
        }
    }
    Ok(())
}

/// `snowcat disasm` — pseudo-assembly of one function.
pub fn disasm(args: &Args) -> CmdResult {
    args.ensure_known(&["version", "seed", "func"])?;
    let k = build_kernel(args)?;
    let name = args.get("func").ok_or("--func NAME is required")?;
    let func = k
        .funcs
        .iter()
        .find(|f| f.name == name)
        .ok_or_else(|| format!("no function named {name:?} (try `snowcat kernel --stats`)"))?;
    println!("{}:", func.name);
    for &b in &func.blocks {
        println!(".{b}:");
        print!("{}", asm::render_block(&k, k.block(b)));
    }
    Ok(())
}

/// `snowcat fuzz` — run the STI fuzzer and report coverage growth.
pub fn fuzz(args: &Args) -> CmdResult {
    args.ensure_known(&["version", "seed", "iterations", "minimize"])?;
    let k = build_kernel(args)?;
    let iterations = args.get_parse("iterations", 200usize)?;
    let seed = args.get_parse("seed", DEFAULT_SEED)?;
    let mut fz = StiFuzzer::new(&k, seed);
    fz.seed_each_syscall();
    let mut last = fz.stats().coverage;
    for chunk in 0..10 {
        fz.fuzz(iterations / 10);
        let s = fz.stats();
        println!(
            "after {:>5} executions: {:>5} blocks covered (+{}), corpus {}",
            s.executed,
            s.coverage,
            s.coverage - last,
            s.kept
        );
        last = s.coverage;
        let _ = chunk;
    }
    let total_blocks = k.num_blocks();
    let s = fz.stats();
    println!(
        "final: {}/{} blocks ({:.1}%) covered sequentially",
        s.coverage,
        total_blocks,
        100.0 * s.coverage as f64 / total_blocks as f64
    );
    if args.has_flag("minimize") {
        let before = fz.corpus().len();
        let dropped = fz.minimize();
        println!("minimized corpus: {before} -> {} STIs ({dropped} redundant)", before - dropped);
    }
    Ok(())
}

/// `snowcat collect` — build a labelled dataset and write compact binary.
pub fn collect(args: &Args) -> CmdResult {
    args.ensure_known(&["version", "seed", "out", "ctis", "interleavings"])?;
    let k = build_kernel(args)?;
    let cfg = KernelCfg::build(&k);
    let out = args.get("out").ok_or("--out FILE is required")?;
    let n_ctis = args.get_parse("ctis", 100usize)?;
    let inter = args.get_parse("interleavings", 8usize)?;
    let seed = args.get_parse("seed", DEFAULT_SEED)?;

    let mut fz = StiFuzzer::new(&k, seed);
    fz.seed_each_syscall();
    fz.fuzz(100);
    fz.push_random(50);
    let corpus = fz.into_corpus();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0);
    let ctis = interacting_cti_pairs(&mut rng, &corpus, n_ctis);
    println!("collecting {} CTIs x {} interleavings ...", ctis.len(), inter);
    let ds = build_dataset(
        &k,
        &cfg,
        &corpus,
        &ctis,
        DatasetConfig { interleavings_per_cti: inter, seed: seed ^ 0xD5 },
    );
    let stats = ds.stats();
    println!(
        "{} labelled graphs ({} vertices, {} edges, URB positive rate {:.2}%)",
        ds.len(),
        stats.verts,
        stats.edges,
        ds.urb_positive_rate() * 100.0
    );
    save_dataset(std::path::Path::new(&out), &ds)?;
    let size = std::fs::metadata(out)?.len();
    println!("wrote {} ({} KiB)", out, size / 1024);
    Ok(())
}

/// `snowcat train` — robust, resumable training pipeline; binary (SCMC)
/// model checkpoint out, epoch-granular (STCP) training checkpoints with
/// `--checkpoint`, anomaly guards with rollback, and shard-quarantining
/// data loading with `--data`. `--flow` trains the inter-thread-flow head
/// jointly, through the same supervised run.
pub fn train(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "version",
        "seed",
        "out",
        "ctis",
        "epochs",
        "threads",
        "flow",
        "data",
        "checkpoint",
        "checkpoint-every",
        "resume",
        "fault-plan",
        "patience",
        "export-json",
        "report",
        "events",
        "stall-ms",
    ])?;
    let k = build_kernel(args)?;
    let cfg = KernelCfg::build(&k);
    let out = args.get("out").ok_or("--out FILE is required")?;
    let seed = args.get_parse("seed", DEFAULT_SEED)?;
    let train_cfg = TrainConfig {
        epochs: args.get_parse("epochs", 6usize)?,
        threads: args.get_parse("threads", 1usize)?,
        ..TrainConfig::default()
    };
    let pcfg = PipelineConfig::default()
        .with_fuzz_iterations(150)
        .with_n_ctis(args.get_parse("ctis", 200usize)?)
        .with_train_interleavings(12)
        .with_eval_interleavings(12)
        .with_model(PicConfig::default())
        .with_train(train_cfg)
        .with_seed(seed);

    let flow = args.has_flag("flow");
    let fault_plan = TrainFaultPlan::parse(&args.get_or("fault-plan", ""))
        .map_err(|e| SnowcatError::Config(format!("--fault-plan: {e}")))?;
    let (sink, writer) = spawn_event_writer(args)?;

    // Data: either quarantine-load shards collected earlier, or collect
    // deterministically from the synthetic kernel (the plain-pipeline path).
    let mut quarantine = None;
    let (train_set, valid_set, eval_set) = match args.get("data") {
        Some(spec) => {
            let paths: Vec<std::path::PathBuf> =
                spec.split(',').filter(|s| !s.is_empty()).map(std::path::PathBuf::from).collect();
            let (merged, q) = load_shards_quarantining(&paths, &fault_plan, sink.as_ref());
            println!(
                "loaded {}/{} shards ({} examples), {} quarantined",
                q.loaded,
                paths.len(),
                q.examples,
                q.quarantined.len()
            );
            for issue in &q.quarantined {
                eprintln!("warning: quarantined shard {}: {}", issue.path, issue.reason);
            }
            if merged.is_empty() {
                return Err(SnowcatError::Config(
                    "no usable examples: every shard was quarantined".into(),
                )
                .into());
            }
            // Joint training needs a flow label per edge; a shard may omit them.
            if flow && merged.examples.iter().any(|e| e.flow_labels.len() != e.graph.edges.len()) {
                let detail = "--flow needs flow labels on every example".into();
                return Err(SnowcatError::Config(detail).into());
            }
            quarantine = Some(q);
            // Deterministic 90/10 train/valid split by example position.
            let mut tr = snowcat_corpus::Dataset::default();
            let mut va = snowcat_corpus::Dataset::default();
            for (i, e) in merged.examples.into_iter().enumerate() {
                if i % 10 == 9 {
                    va.examples.push(e);
                } else {
                    tr.examples.push(e);
                }
            }
            (tr, va, None)
        }
        None => {
            let data = snowcat_core::collect_data(&k, &cfg, &pcfg);
            (data.train_set, data.valid_set, Some(data.eval_set))
        }
    };

    println!("training PIC ({} train / {} valid graphs) ...", train_set.len(), valid_set.len());
    let pre = snowcat_core::pretrain_encoder(&k, &pcfg.model, seed);
    let mut model = PicModel::new(pcfg.model);
    model.params.tok_emb = pre.tok_emb.clone();
    let valid_refs = as_labeled(&valid_set);

    let mut rcfg = RobustTrainConfig::new(pcfg.train);
    rcfg.checkpoint_path = args.get("checkpoint").map(std::path::PathBuf::from);
    rcfg.checkpoint_every = args.get_parse("checkpoint-every", 1usize)?;
    rcfg.patience = args.get_parse_opt("patience")?.or(rcfg.patience);
    rcfg.stall_ms = args.get_parse("stall-ms", 0u64)?;
    rcfg.fault_plan = fault_plan;
    rcfg.events = sink;
    let resume = args.has_flag("resume");
    if resume && rcfg.checkpoint_path.is_none() {
        return Err(SnowcatError::Config("--resume requires --checkpoint FILE".into()).into());
    }

    let report = if flow {
        robust_train(&mut model, &as_flow_labeled(&train_set), &valid_refs, &rcfg, resume)?
    } else {
        robust_train(&mut model, &as_labeled(&train_set), &valid_refs, &rcfg, resume)?
    };
    let threshold = report.threshold.unwrap_or(0.5);
    let checkpoint =
        Checkpoint::new(&model, threshold, if flow { "PIC-cli+flow" } else { "PIC-cli" });
    println!(
        "trained {} epochs; val URB AP {:.4}; threshold {:.2}; {} anomalies survived{}",
        report.epoch_losses.len(),
        report.val_ap.last().copied().unwrap_or(f64::NAN),
        threshold,
        report.anomalies.len(),
        if report.early_stopped { " (early-stopped)" } else { "" },
    );
    for a in &report.anomalies {
        println!("  anomaly: epoch {} attempt {}: {} ({})", a.epoch, a.attempt, a.kind, a.detail);
    }
    if let Some(eval) = &eval_set {
        let eval_refs = as_labeled(eval);
        let m = snowcat_nn::evaluate(&model, &eval_refs, threshold, true);
        println!("eval URB P/R {:.3}/{:.3} over {} graphs", m.precision, m.recall, eval.len());
        if flow {
            let flow_refs = as_flow_labeled(eval);
            println!("eval flow AP {:.4}", snowcat_nn::flow_average_precision(&model, &flow_refs));
        }
    }

    save_checkpoint(std::path::Path::new(&out), &checkpoint)?;
    println!("wrote checkpoint to {out}");
    if let Some(p) = args.get("export-json") {
        save_checkpoint_json(std::path::Path::new(p), &checkpoint)?;
        println!("wrote JSON export to {p}");
    }
    if let Some(p) = args.get("report") {
        // The unified schema serializes deterministically (no wall-clock
        // fields), so a resumed run's report is byte-identical to an
        // uninterrupted one.
        let unified = report_from_train(&report, quarantine.as_ref());
        std::fs::write(p, unified.to_canonical_json())?;
        println!("report written to {p}");
    }
    finish_event_writer(writer)?;
    Ok(())
}

/// Capacity of the in-process event queue: generous enough that a healthy
/// writer thread never causes drops, bounded so a stuck one cannot take the
/// hot loop down with it.
const EVENT_QUEUE_CAP: usize = 1 << 16;

/// Wire up `--events DIR`: a bounded sink plus the writer thread draining
/// it into `DIR/events.jsonl` and `DIR/trace.json`.
fn spawn_event_writer(
    args: &Args,
) -> Result<(Option<EventSink>, Option<EventWriter>), Box<dyn std::error::Error>> {
    match args.get("events") {
        Some(dir) => {
            let sink = EventSink::bounded(EVENT_QUEUE_CAP);
            let writer = EventWriter::spawn(sink.clone(), std::path::Path::new(dir))?;
            Ok((Some(sink), Some(writer)))
        }
        None => Ok((None, None)),
    }
}

/// Flush the event stream and report what landed on disk.
fn finish_event_writer(writer: Option<EventWriter>) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(w) = writer {
        let summary = w.finish()?;
        println!("events: {} written, {} dropped", summary.written, summary.dropped);
    }
    Ok(())
}

fn load_model(args: &Args) -> Result<Checkpoint, Box<dyn std::error::Error>> {
    let path = args.get("model").ok_or("--model FILE is required")?;
    Ok(load_checkpoint(std::path::Path::new(&path))?)
}

/// The `--explorer` choice: `None` for PCT, else the MLPCT strategy.
fn explorer_kind(args: &Args) -> Result<Option<StrategyKind>, Box<dyn std::error::Error>> {
    match args.get_or("explorer", "pct").as_str() {
        "pct" => Ok(None),
        other => match StrategyKind::parse(other) {
            Some(kind) => Ok(Some(kind)),
            None => Err(format!("unknown explorer {other:?} (pct|s1|s2|s3)").into()),
        },
    }
}

/// `snowcat explore` — PCT vs MLPCT-S1 on a CTI stream.
pub fn explore(args: &Args) -> CmdResult {
    args.ensure_known(&["version", "seed", "model", "ctis", "budget"])?;
    let k = build_kernel(args)?;
    let cfg = KernelCfg::build(&k);
    let ck = load_model(args)?;
    let CampaignSetup { seed, corpus, stream: ctis, explore_cfg, .. } =
        CampaignSetup::from_args(args, &k, 50)?;
    let explore_cfg = explore_cfg.with_inference_cap(1600);
    let budget = explore_cfg.exec_budget;
    let pic = Pic::new(&ck, &k, &cfg);
    let service = PredictorService::direct(&pic);
    let mut strat = S1NewBitmap::new();
    let (mut pct_r, mut pct_e) = (0usize, 0u64);
    let (mut ml_r, mut ml_e, mut ml_i) = (0usize, 0u64, 0u64);
    let mut all_reports = Vec::new();
    for (ci, &(a, b)) in ctis.iter().enumerate() {
        let c = explore_cfg.with_seed(seed ^ (ci as u64) << 4);
        let p = explore_pct(&k, &corpus[a], &corpus[b], &c);
        pct_r += p.race_keys().len();
        pct_e += p.executions;
        let m = explore_mlpct(&k, &service, &mut strat, &corpus[a], &corpus[b], &c);
        ml_r += m.race_keys().len();
        ml_e += m.executions;
        ml_i += m.inferences;
        all_reports.extend(m.races);
    }
    println!("over {} CTIs with budget {}:", ctis.len(), budget);
    println!(
        "  PCT      : {pct_r} races, {pct_e} executions         (sim {:.0}s)",
        pct_e as f64 * 2.8
    );
    println!(
        "  MLPCT-S1 : {ml_r} races, {ml_e} executions, {ml_i} inferences (sim {:.0}s)",
        ml_e as f64 * 2.8 + ml_i as f64 * 0.015
    );
    println!(
        "  predictor: {}, {} graphs predicted, {} forward passes",
        pic.name(),
        pic.inferences(),
        pic.forward_passes()
    );
    println!(
        "  races per execution: PCT {:.2} vs MLPCT {:.2}",
        pct_r as f64 / pct_e.max(1) as f64,
        ml_r as f64 / ml_e.max(1) as f64
    );

    // Triage the MLPCT findings for human review (top 10).
    let mut findings = snowcat_core::triage(&k, &all_reports);
    findings.truncate(10);
    if !findings.is_empty() {
        println!(
            "
{}",
            snowcat_core::render_findings(&k, &findings)
        );
    }
    Ok(())
}

/// `snowcat razzer` — reproduce the hardest planted races.
pub fn razzer(args: &Args) -> CmdResult {
    args.ensure_known(&["version", "seed", "model", "schedules", "coarse", "events"])?;
    let k = build_kernel(args)?;
    let cfg = KernelCfg::build(&k);
    let ck = load_model(args)?;
    let seed = args.get_parse("seed", DEFAULT_SEED)?;
    let schedules = args.get_parse("schedules", 200usize)?;
    let (sink, writer) = spawn_event_writer(args)?;

    let mut fz = StiFuzzer::new(&k, seed ^ 0x4a22);
    fz.seed_each_syscall();
    fz.fuzz(150);
    let corpus = fz.into_corpus();

    // Static may-race pre-filter: vetoes statically impossible targets and
    // density-ranks candidates before the PIC scores them. The default is
    // the alias-refined set; `--coarse` falls back to the alias-blind PR 3
    // set for before/after comparisons.
    let refined = !args.has_flag("coarse");
    let prefilter =
        if refined { RacePrefilter::new(&k, &cfg) } else { RacePrefilter::new_coarse(&k, &cfg) };

    let mut bugs: Vec<&snowcat_kernel::BugSpec> = k.bugs.iter().filter(|b| b.harmful).collect();
    bugs.sort_by_key(|b| std::cmp::Reverse(b.difficulty));
    bugs.truncate(3);
    for bug in bugs {
        println!("race: {}", bug.summary);
        for mode in [RazzerMode::Strict, RazzerMode::Relax, RazzerMode::Pic] {
            let pic;
            let service;
            let svc_ref = if mode == RazzerMode::Pic {
                pic = Pic::new(&ck, &k, &cfg).with_may_race_blocks(prefilter.may_race_blocks());
                service = PredictorService::direct(&pic);
                Some(&service)
            } else {
                None
            };
            let cands = if mode == RazzerMode::Pic {
                find_candidates_prefiltered(&k, &cfg, &corpus, bug, mode, svc_ref, &prefilter, seed)
            } else {
                find_candidates(&k, &cfg, &corpus, bug, mode, svc_ref, seed)
            };
            let res = reproduce(&k, &corpus, &cands, bug, mode, schedules, 2.8, seed ^ 0xF);
            match res.avg_hours {
                Some(h) => println!(
                    "  {:<13} {:>4} candidates, {:>3} TPs, avg {h:.2} sim h",
                    res.mode, res.candidates, res.true_positives
                ),
                None => {
                    println!("  {:<13} {:>4} candidates, NOT reproduced", res.mode, res.candidates)
                }
            }
        }
    }
    println!(
        "prefilter ({}): {} candidates vetoed statically, {} scored by the PIC \
         ({} may-race pairs)",
        if refined { "alias-refined" } else { "coarse" },
        prefilter.vetoed(),
        prefilter.survivors(),
        prefilter.may_race().len()
    );
    if let Some(s) = &sink {
        s.campaign(snowcat_events::CampaignEvent::PrefilterStats {
            vetoed: prefilter.vetoed(),
            survivors: prefilter.survivors(),
            may_race_pairs: prefilter.may_race().len() as u64,
            refined,
        });
    }
    finish_event_writer(writer)?;
    Ok(())
}

/// What `campaign`, `fleet`, `fleet-worker` and `explore` share: the corpus
/// and CTI stream, the per-CTI exploration config (`--budget` executions)
/// and the cost model. The stream is deterministic in (version, `--seed`,
/// `--ctis`), so a resumed run and every fleet worker — thread or
/// subprocess — rebuild the exact stream the first run walked.
struct CampaignSetup {
    seed: u64,
    corpus: Vec<StiProfile>,
    stream: Vec<(usize, usize)>,
    explore_cfg: ExploreConfig,
    cost: CostModel,
}

impl CampaignSetup {
    fn from_args(args: &Args, k: &Kernel, default_budget: usize) -> Result<Self, ArgError> {
        let seed = args.get_parse("seed", DEFAULT_SEED)?;
        let n_ctis = args.get_parse("ctis", 20usize)?;
        let budget = args.get_parse("budget", default_budget)?;
        let mut fz = StiFuzzer::new(k, seed);
        fz.seed_each_syscall();
        fz.fuzz(100);
        let corpus = fz.into_corpus();
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xE0);
        let stream = interacting_cti_pairs(&mut rng, &corpus, n_ctis);
        Ok(CampaignSetup {
            seed,
            corpus,
            stream,
            explore_cfg: ExploreConfig::default().with_exec_budget(budget).with_seed(seed),
            cost: CostModel::default(),
        })
    }
}

/// A per-slot explorer factory for [`ThreadWorker`].
type MakeExplorer<'a> = &'a (dyn Fn(usize) -> Explorer<'a, 'a> + Sync);

/// `snowcat campaign` — run a supervised (fault-tolerant) testing campaign.
pub fn campaign(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "version",
        "seed",
        "ctis",
        "budget",
        "explorer",
        "model",
        "checkpoint",
        "checkpoint-every",
        "resume",
        "fuel-budget",
        "fault-plan",
        "max-hours",
        "stall-ms",
        "stop-after",
        "report",
        "events",
        "fail-on-hung",
        "serve",
        "refresh",
        "refresh-epochs",
        "refresh-max",
        "refresh-gate",
    ])?;
    let k = build_kernel(args)?;
    let setup = CampaignSetup::from_args(args, &k, 20)?;
    let (seed, corpus, stream) = (setup.seed, &setup.corpus, &setup.stream);

    let mut sup = SupervisorConfig::new();
    sup.fuel_budget = args.get_parse_opt("fuel-budget")?.or(sup.fuel_budget);
    sup.checkpoint_path = args.get("checkpoint").map(std::path::PathBuf::from);
    sup.checkpoint_every = args.get_parse("checkpoint-every", 25usize)?;
    sup.max_hours = args.get_parse_opt("max-hours")?.or(sup.max_hours);
    sup.stall_ms = args.get_parse("stall-ms", 0u64)?;
    sup.stop_after = args.get_parse_opt("stop-after")?.or(sup.stop_after);
    sup.fault_plan = FaultPlan::parse(&args.get_or("fault-plan", ""))?;
    // No fleet here: 0 workers rejects any fleet directive outright.
    sup.fault_plan.validate(stream.len(), 0)?;
    let (sink, writer) = spawn_event_writer(args)?;
    sup.events = sink;

    let resume = match args.get("resume") {
        Some(p) => {
            let (ck, fell_back) = load_checkpoint_with_fallback(std::path::Path::new(p))?;
            if fell_back {
                eprintln!("warning: {p} was corrupt; resuming from the previous good snapshot");
            }
            println!("resuming at stream position {} of {}", ck.position, stream.len());
            Some(ck)
        }
        None => None,
    };

    let supervised = match (explorer_kind(args)?, args.has_flag("serve")) {
        (None, true) => return Err("--serve requires an MLPCT explorer (s1|s2|s3)".into()),
        (Some(kind), true) => served_campaign(args, &k, &setup, &sup, kind, resume)?,
        (kind, false) => {
            let (ck, kcfg, pic);
            let explorer = match kind {
                None => Explorer::Pct,
                Some(kind) => {
                    ck = load_model(args)?;
                    kcfg = KernelCfg::build(&k);
                    pic = Pic::new(&ck, &k, &kcfg);
                    Explorer::mlpct(&pic, kind.build())
                }
            };
            run_supervised_campaign(
                &k,
                corpus,
                stream,
                explorer,
                &setup.explore_cfg,
                &setup.cost,
                &sup,
                resume,
            )?
        }
    };

    let last = supervised.result.last();
    println!(
        "{}: {} CTIs, {} executions, {} races ({} harmful), {} sched-dep blocks, {} bugs, {:.2} sim h",
        supervised.result.label,
        last.ctis,
        last.executions,
        last.races,
        last.harmful_races,
        last.sched_dep_blocks,
        last.bugs,
        last.hours,
    );
    let r = &supervised.recovery;
    println!(
        "recovery: {} hung attempts, {} retries, {} wasted executions, {} checkpoints",
        r.hung_attempts, r.retries, r.wasted_executions, r.checkpoints_written,
    );
    if !supervised.quarantined.is_empty() {
        println!(
            "quarantined CT pairs ({} skipped later): {:?}",
            r.skipped_quarantined, supervised.quarantined
        );
    }
    if let Some(stats) = &supervised.predictor_stats {
        println!("predictor: {} batches, {} inferences", stats.batches(), stats.inferences());
    }

    if let Some(path) = args.get("report") {
        let report = report_from_supervised(&supervised, seed);
        std::fs::write(path, report.to_canonical_json())?;
        println!("report written to {path}");
    }
    finish_event_writer(writer)?;

    if args.has_flag("fail-on-hung") {
        if let Some(&cti) = supervised.quarantined.first() {
            return Err(Box::new(SnowcatError::ExecutionHung {
                cti,
                fuel: sup.fuel_budget.unwrap_or(setup.explore_cfg.fuel_budget),
            }));
        }
    }
    Ok(())
}

/// `campaign --serve`: the same supervised MLPCT campaign, with inference
/// routed through a live inference server and (optionally) the online
/// refresher fine-tuning on the campaign's own fresh CTs.
fn served_campaign(
    args: &Args,
    k: &Kernel,
    setup: &CampaignSetup,
    sup: &SupervisorConfig,
    kind: StrategyKind,
    resume: Option<snowcat_harness::CampaignCheckpoint>,
) -> Result<snowcat_harness::SupervisedResult, Box<dyn std::error::Error>> {
    let ck = load_model(args)?;
    let kcfg = KernelCfg::build(k);
    let (seed, corpus) = (setup.seed, &setup.corpus);
    let min_pairs = args.get_parse("refresh", 0usize)?;
    let refresh = (min_pairs > 0).then_some(RefreshConfig {
        min_pairs,
        epochs: args.get_parse("refresh-epochs", 1usize)?,
        max_refreshes: args.get_parse("refresh-max", 0u64)?,
        seed: seed ^ 0xF5E5,
        ..RefreshConfig::default()
    });

    // The AP-regression gate needs ground-truth labels, which only exist by
    // executing CTs: hold out a few pairs, label them the same way dataset
    // collection does, and let the breaker judge every refreshed candidate
    // against the incumbent on that fixed set.
    let gate_pairs = args.get_parse("refresh-gate", if refresh.is_some() { 4usize } else { 0 })?;
    let gate = if gate_pairs > 0 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6A7E);
        let pairs = snowcat_corpus::random_cti_pairs(&mut rng, corpus.len(), gate_pairs);
        let ds = build_dataset(
            k,
            &kcfg,
            corpus,
            &pairs,
            DatasetConfig { interleavings_per_cti: 2, seed: seed ^ 0x6A7E },
        );
        ApGate::new(ds.examples.into_iter().map(|e| (e.graph, e.labels)).collect(), 0.01)
    } else {
        ApGate::disabled()
    };

    let outcome = run_served_campaign(
        k,
        &kcfg,
        corpus,
        &setup.stream,
        &ck,
        &setup.explore_cfg,
        &setup.cost,
        sup,
        &gate,
        &ServedCampaignConfig { serve: ServeConfig::default(), strategy: kind, refresh },
        resume,
    )?;
    let sv = &outcome.serving;
    println!(
        "serving: {} requests, {} graphs, {} shed, p50 {}us, p99 {}us",
        sv.requests, sv.graphs, sv.shed, sv.p50_us, sv.p99_us
    );
    println!("serving model: {} (epoch {}, {} swaps installed)", sv.model_name, sv.epoch, sv.swaps);
    if let Some(r) = &outcome.refresh {
        println!(
            "refresh: {} rounds ({} installed, {} rejected, {} rolled back), \
             {} fresh CT pairs consumed",
            r.refreshes, r.installed, r.rejected, r.rolled_back, r.pairs_consumed
        );
    }
    Ok(outcome.result)
}

/// The options `fleet` forwards verbatim to each `fleet-worker` subprocess
/// (plus `--dir`). The worker parses them with the same helpers and
/// defaults as the coordinator, so it rebuilds the same kernel, stream,
/// explorer and shard settings; the wire handshake still cross-checks
/// (label, seed, stream_len) and refuses a mismatched worker.
const FLEET_WORKER_OPTS: &[&str] = &[
    "version",
    "seed",
    "ctis",
    "budget",
    "explorer",
    "model",
    "lease-ms",
    "max-steals",
    "checkpoint-every",
    "fault-plan",
    "stall-ms",
];

/// The shard settings shared by `fleet` and `fleet-worker`.
fn fleet_config(
    args: &Args,
    workers: usize,
    dir: &std::path::Path,
) -> Result<FleetConfig, Box<dyn std::error::Error>> {
    let mut cfg = FleetConfig::new(workers, dir);
    cfg.lease_ms = args.get_parse("lease-ms", 2_000u64)?;
    cfg.max_steals = args.get_parse("max-steals", 3u64)?;
    cfg.checkpoint_every = args.get_parse("checkpoint-every", 25usize)?;
    cfg.stall_ms = args.get_parse("stall-ms", 0u64)?;
    cfg.fault_plan = FaultPlan::parse(&args.get_or("fault-plan", ""))?;
    Ok(cfg)
}

/// `snowcat fleet` — the supervised campaign sharded across N workers with
/// lease-based work stealing and a crash-consistent SCFC fleet checkpoint.
/// At `--workers 1` with no faults the merged report is byte-identical to
/// `snowcat campaign` with the same seed; after killing any worker (or the
/// whole process) a `--resume` run completes with the same merged bytes.
pub fn fleet(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "version",
        "seed",
        "ctis",
        "budget",
        "workers",
        "explorer",
        "model",
        "dir",
        "resume",
        "lease-ms",
        "max-steals",
        "checkpoint-every",
        "fault-plan",
        "stall-ms",
        "transport",
        "min-workers",
        "spawn-timeout-ms",
        "respawn-backoff-ms",
        "report",
        "events",
        "serve",
    ])?;
    let k = build_kernel(args)?;
    let workers = args.get_parse("workers", 2usize)?;
    let transport = args.get_or("transport", "thread");
    if !matches!(transport.as_str(), "thread" | "process") {
        return Err(format!("unknown transport {transport:?} (thread|process)").into());
    }
    let dir = std::path::PathBuf::from(
        args.get("dir").ok_or("fleet: --dir DIR is required (holds shard + fleet checkpoints)")?,
    );

    // The fleet shards the same stream the single campaign would walk.
    let setup = CampaignSetup::from_args(args, &k, 20)?;
    let (seed, stream_len) = (setup.seed, setup.stream.len());

    let mut cfg = fleet_config(args, workers, &dir)?;
    cfg.fault_plan.validate(stream_len, workers)?;
    cfg.min_workers = args.get_parse("min-workers", 1usize)?;
    if cfg.min_workers > workers {
        return Err(format!("--min-workers {} exceeds --workers {workers}", cfg.min_workers).into());
    }
    cfg.spawn_timeout_ms = args.get_parse("spawn-timeout-ms", 10_000u64)?;
    cfg.respawn_backoff_ms = args.get_parse("respawn-backoff-ms", 100u64)?;
    // Process workers are expendable: their slots respawn (with backoff
    // and a crash-loop breaker) instead of retiring on first death.
    cfg.respawn = transport == "process";
    let (sink, writer) = spawn_event_writer(args)?;
    cfg.events = sink.clone();

    let resume = args.has_flag("resume");
    if resume {
        println!("resuming fleet from {}", dir.join(snowcat_harness::FLEET_CKPT_FILE).display());
    } else {
        // A fresh run over a reused directory must not resurrect stale
        // shard checkpoints from an earlier fleet.
        clear_fleet_dir(&dir)?;
    }

    // Every path after the fleet ran seals the event stream, a failed or
    // degraded fleet's too — the degradation and crash-loop events are
    // exactly what a post-mortem (`snowcat status DIR`) needs to see.
    let fleet_result = (|| -> Result<FleetCheckpoint, Box<dyn std::error::Error>> {
        let serve = args.has_flag("serve");
        if transport == "process" {
            if serve {
                return Err("--serve requires --transport thread: the in-process \
                        inference server cannot be shared across worker processes"
                    .into());
            }
            let label = match explorer_kind(args)? {
                None => "PCT".to_string(),
                Some(kind) => {
                    // Validate the model now for a fast config error; each
                    // worker subprocess reloads it from --model itself.
                    load_model(args)?;
                    kind.label()
                }
            };
            let mut wargs =
                vec!["fleet-worker".to_string(), "--dir".into(), dir.display().to_string()];
            for key in FLEET_WORKER_OPTS {
                if let Some(v) = args.get(key) {
                    wargs.extend([format!("--{key}"), v.to_string()]);
                }
            }
            let command = snowcat_harness::WorkerCommand {
                program: std::env::current_exe().map_err(|e| {
                    format!("cannot locate the snowcat binary to spawn workers: {e}")
                })?,
                args: wargs,
            };
            let worker = snowcat_harness::ProcessWorker {
                command,
                cfg: &cfg,
                label: label.clone(),
                seed,
                stream_len,
            };
            return Ok(run_fleet(&worker, &label, seed, stream_len, &cfg, resume)?);
        }

        // Every MLPCT worker slot gets its own Pic (graph builder + cache);
        // with --serve they all route inference through one shared
        // inference server instead of predicting inline.
        let (ck, kcfg, pics, handle, pct, direct, served);
        let mut server = None;
        let (label, make): (String, MakeExplorer) = match explorer_kind(args)? {
            None if serve => return Err("--serve requires an MLPCT explorer (s1|s2|s3)".into()),
            None => {
                pct = |_slot: usize| Explorer::Pct;
                ("PCT".into(), &pct)
            }
            Some(kind) => {
                ck = load_model(args)?;
                kcfg = KernelCfg::build(&k);
                pics = (0..workers).map(|_| Pic::new(&ck, &k, &kcfg)).collect::<Vec<_>>();
                let pics = &pics;
                let make: MakeExplorer = if serve {
                    let s = InferenceServer::start(&ck, ServeConfig::default(), sink);
                    handle = server.insert(s).handle();
                    let handle = &handle;
                    served = move |slot: usize| Explorer::MlPct {
                        service: PredictorService::with(&pics[slot], handle),
                        strategy: kind.build(),
                    };
                    &served
                } else {
                    direct = move |slot: usize| Explorer::mlpct(&pics[slot], kind.build());
                    &direct
                };
                (kind.label(), make)
            }
        };
        let worker = ThreadWorker {
            kernel: &k,
            corpus: &setup.corpus,
            stream: &setup.stream,
            explore_cfg: &setup.explore_cfg,
            cost: &setup.cost,
            cfg: &cfg,
            make_explorer: make,
        };
        let fc = run_fleet(&worker, &label, seed, stream_len, &cfg, resume)?;
        if let Some(mut server) = server {
            let sv = server.shutdown();
            println!(
                "serving: {} requests, {} graphs shared by {} workers",
                sv.requests, sv.graphs, workers
            );
        }
        Ok(fc)
    })();
    let outcome = fleet_result.and_then(|fc| {
        println!(
            "fleet: {} shard(s) over {} CTIs with {} worker(s) — {} steal(s), {} re-executed \
             position(s), {} lost worker(s), {} quarantined shard(s)",
            fc.shards.len(),
            fc.stream_len,
            fc.workers,
            fc.steals,
            fc.reexecutions,
            fc.lost_workers,
            fc.quarantined_shards().len(),
        );
        let report = report_from_fleet_checkpoint(&fc, &setup.cost)?;
        if let Some(c) = &report.campaign {
            println!(
                "{}: {} CTIs, {} executions, {} races ({} harmful), {} sched-dep blocks, {} \
                 bugs, {:.2} sim h",
                c.label,
                c.ctis,
                c.executions,
                c.races,
                c.harmful_races,
                c.sched_dep_blocks,
                c.bugs_found.len(),
                c.sim_hours,
            );
        }
        if let Some(path) = args.get("report") {
            std::fs::write(path, report.to_canonical_json())?;
            println!("report written to {path}");
        }
        Ok(())
    });
    finish_event_writer(writer)?;
    outcome
}

/// `snowcat fleet-worker` — the hidden subprocess side of
/// `snowcat fleet --transport process`. Rebuilds the same deterministic
/// kernel/corpus/stream as the coordinator from the pass-through flags,
/// then serves exactly one shard lease over the SCWP stdin/stdout wire
/// protocol (handshake, assignment, heartbeats, result).
///
/// NOTHING in this function may print to stdout — stdout *is* the wire.
/// Diagnostics go to stderr (inherited from the coordinator).
pub fn fleet_worker(args: &Args) -> CmdResult {
    args.ensure_known(&[FLEET_WORKER_OPTS, &["dir"]].concat())?;
    let k = build_kernel(args)?;
    let setup = CampaignSetup::from_args(args, &k, 20)?;
    let dir = std::path::PathBuf::from(args.get_or("dir", "."));
    let cfg = fleet_config(args, 1, &dir)?;

    let (ck, kcfg, pic, pct, direct);
    let (label, make): (String, MakeExplorer) = match explorer_kind(args)? {
        None => {
            pct = |_slot: usize| Explorer::Pct;
            ("PCT".into(), &pct)
        }
        Some(kind) => {
            ck = load_model(args)?;
            kcfg = KernelCfg::build(&k);
            pic = Pic::new(&ck, &k, &kcfg);
            let pic = &pic;
            direct = move |_slot: usize| Explorer::mlpct(pic, kind.build());
            (kind.label(), &direct)
        }
    };
    let worker = ThreadWorker {
        kernel: &k,
        corpus: &setup.corpus,
        stream: &setup.stream,
        explore_cfg: &setup.explore_cfg,
        cost: &setup.cost,
        cfg: &cfg,
        make_explorer: make,
    };
    snowcat_harness::serve_worker(&worker, &label, setup.seed, setup.stream.len(), cfg.lease_ms)?;
    Ok(())
}

/// `snowcat serve` — stand up the inference server, drive it with a
/// deterministic synthetic request stream from concurrent clients, verify
/// bit-identity against direct inference, and report throughput/latency.
pub fn serve(args: &Args) -> CmdResult {
    args.ensure_known(&[
        "version",
        "seed",
        "model",
        "requests",
        "request-size",
        "clients",
        "workers",
        "swap",
        "events",
        "out",
    ])?;
    let k = build_kernel(args)?;
    let kcfg = KernelCfg::build(&k);
    let ck = load_model(args)?;
    let seed = args.get_parse("seed", DEFAULT_SEED)?;
    let n_requests = args.get_parse("requests", 64usize)?.max(1);
    let req_size = args.get_parse("request-size", 4usize)?.max(1);
    let clients = args.get_parse("clients", 4usize)?.max(1);
    let cfg = ServeConfig { workers: args.get_parse("workers", 1usize)?, ..ServeConfig::default() };

    // Deterministic workload: the same candidate CT graphs an explorer
    // would build for random CTI pairs and schedules.
    let mut fz = StiFuzzer::new(&k, seed);
    fz.seed_each_syscall();
    let corpus = fz.into_corpus();
    let pic = Pic::new(&ck, &k, &kcfg);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E2E);
    let requests: Vec<Vec<_>> = (0..n_requests)
        .map(|_| {
            use rand::Rng;
            let ia = rng.gen_range(0..corpus.len());
            let ib = rng.gen_range(0..corpus.len());
            let (a, b) = (&corpus[ia], &corpus[ib]);
            let base = pic.base_graph(a, b);
            (0..req_size)
                .map(|_| {
                    let hints = snowcat_vm::propose_hints(&mut rng, a.seq.steps, b.seq.steps);
                    pic.candidate_graph(&base, a, b, &hints)
                })
                .collect::<Vec<_>>()
        })
        .collect();

    // Direct baseline: the same requests through bare `predict_batch`.
    let t0 = std::time::Instant::now();
    let direct: Vec<_> = requests.iter().map(|r| pic.predict_batch(r)).collect();
    let direct_s = t0.elapsed().as_secs_f64();

    let (sink, writer) = spawn_event_writer(args)?;
    let mut server = InferenceServer::start(&ck, cfg, sink);
    let t1 = std::time::Instant::now();
    let served: Vec<Vec<_>> = std::thread::scope(|s| {
        let server = &server;
        let requests = &requests;
        let swapper = args.has_flag("swap").then(|| {
            // Exercise the hot-swap path mid-stream: same weights under a
            // new name, so the swap is observable (name/epoch change) while
            // outputs stay bit-identical.
            let candidate =
                Checkpoint::new(&ck.restore(), ck.threshold, &format!("{}+swap", ck.name));
            s.spawn(move || server.try_swap(&candidate, &ApGate::disabled()))
        });
        let mut slots: Vec<Vec<(usize, Vec<_>)>> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let h = server.handle();
                    requests
                        .iter()
                        .enumerate()
                        .skip(c)
                        .step_by(clients)
                        .map(|(i, r)| (i, h.predict_batch(r)))
                        .collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        if let Some(sw) = swapper {
            println!("hot swap mid-stream: {:?}", sw.join().expect("swapper panicked"));
        }
        let mut merged: Vec<Option<Vec<_>>> = vec![None; requests.len()];
        for (i, preds) in slots.drain(..).flatten() {
            merged[i] = Some(preds);
        }
        merged.into_iter().map(|p| p.expect("every request answered")).collect()
    });
    let served_s = t1.elapsed().as_secs_f64();

    for (i, (d, sv)) in direct.iter().zip(&served).enumerate() {
        for (j, (dp, sp)) in d.iter().zip(sv).enumerate() {
            if dp.probs != sp.probs || dp.positive != sp.positive {
                return Err(format!(
                    "served prediction diverged from direct inference (request {i}, graph {j})"
                )
                .into());
            }
        }
    }
    println!("bit-identity: {} requests verified against direct inference", requests.len());

    let report = server.shutdown();
    let graphs = (n_requests * req_size) as f64;
    println!(
        "direct : {:>8.1} graphs/s ({:.3}s for {} graphs)",
        graphs / direct_s.max(1e-9),
        direct_s,
        graphs as u64
    );
    println!(
        "served : {:>8.1} graphs/s ({:.3}s, {} clients), {:.2}x direct",
        graphs / served_s.max(1e-9),
        served_s,
        clients,
        direct_s / served_s.max(1e-9)
    );
    println!("server : {} shed, p50 {}us, p99 {}us", report.shed, report.p50_us, report.p99_us);
    if let Some(path) = args.get("out") {
        std::fs::write(path, serde_json::to_string_pretty(&report)?)?;
        println!("serving report written to {path}");
    }
    finish_event_writer(writer)?;
    Ok(())
}

/// `snowcat analyze` — run the static concurrency analyzer.
pub fn analyze(args: &Args) -> CmdResult {
    args.ensure_known(&["version", "seed", "out", "self-check", "coarse", "baseline"])?;
    let k = build_kernel(args)?;
    let cfg = KernelCfg::build(&k);
    let mut analysis = run_analysis(&k, &cfg);
    if args.has_flag("coarse") {
        // Compatibility mode: report and self-check against the alias-blind
        // (PR 3) may-race set instead of the value-flow-refined one.
        analysis.may_race = analysis.may_race_coarse.clone();
    }
    let allowlist = Allowlist::from_planted_bugs(&k);
    let report = analysis.report(&k);

    println!("kernel {} (seed {:#x})", k.version, args.get_parse("seed", DEFAULT_SEED)?);
    println!(
        "analyzed {} blocks / {} instrs; {} memory accesses, {} lock-protected",
        report.blocks, report.instrs, report.mem_accesses, report.locked_accesses
    );
    println!(
        "may-race: {} instruction pairs over {} blocks ({} coarse pairs, {} alias classes, \
         {:.1}% pruned)",
        report.may_race_pairs,
        report.may_race_blocks,
        report.may_race_pairs_coarse,
        report.alias_classes,
        100.0 * (1.0 - report.may_race_pairs as f64 / report.may_race_pairs_coarse.max(1) as f64)
    );
    println!(
        "planted bugs covered by may-race set: {}/{}",
        report.planted_bugs_covered.len(),
        k.bugs.len()
    );
    println!(
        "findings: {} total, {} allowlisted (planted bugs)",
        report.findings.len(),
        report.allowlisted_findings
    );
    for f in &analysis.findings {
        let sev = match f.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let excused = if allowlist.permits(f) { " [allowlisted]" } else { "" };
        println!("  {sev:<7} {:<40} {}{excused}", f.dedup_key(), f.message);
    }
    let flagged = analysis.flagged_lock_misuse_bugs(&k);
    println!(
        "planted lock-misuse bugs flagged: {}",
        flagged.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ")
    );

    if let Some(path) = args.get("out") {
        std::fs::write(path, serde_json::to_string_pretty(&report)?)?;
        println!("report written to {path}");
    }

    if let Some(path) = args.get("baseline") {
        // Precision gate against an older report: the refined set must never
        // grow the pair count, and every planted bug the baseline covered
        // must still be covered (serde defaults make pre-value-flow reports
        // readable — their coarse/covered fields read as 0/empty).
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("--baseline: cannot read {path}: {e}"))?;
        let old: snowcat_analysis::AnalysisReport = serde_json::from_str(&text)
            .map_err(|e| format!("--baseline: {path} is not an analysis report: {e}"))?;
        println!(
            "baseline {path}: {} may-race pairs, {} bugs covered",
            old.may_race_pairs,
            old.planted_bugs_covered.len()
        );
        if report.may_race_pairs > old.may_race_pairs {
            return Err(format!(
                "precision regression vs {path}: may-race pairs grew {} -> {}",
                old.may_race_pairs, report.may_race_pairs
            )
            .into());
        }
        if let Some(lost) =
            old.planted_bugs_covered.iter().find(|id| !report.planted_bugs_covered.contains(id))
        {
            return Err(format!(
                "precision regression vs {path}: planted bug {lost} no longer covered",
            )
            .into());
        }
        println!(
            "baseline gate passed: pairs {} -> {}, coverage kept",
            old.may_race_pairs, report.may_race_pairs
        );
    }

    if args.has_flag("self-check") {
        let unexpected: Vec<_> = analysis.unexpected_findings(&allowlist).collect();
        if !unexpected.is_empty() {
            return Err(format!(
                "self-check failed: {} non-allowlisted finding(s), first: {}",
                unexpected.len(),
                unexpected[0].message
            )
            .into());
        }
        let misuse = snowcat_analysis::lock_misuse_bugs(&k, &analysis.locksets);
        if let Some(missed) = misuse.iter().find(|id| !flagged.contains(id)) {
            return Err(format!("self-check failed: lock-misuse bug {missed} not flagged").into());
        }
        for bug in &k.bugs {
            for loc in &bug.racing_instrs {
                if !analysis.may_race.block_may_race(loc.block) {
                    return Err(format!(
                        "self-check failed: bug {} racing block {} outside may-race set",
                        bug.id, loc.block.0
                    )
                    .into());
                }
            }
        }
        println!("self-check passed");
    }
    Ok(())
}

/// Find checkpoint files in `dir` by sniffing their magic bytes, skipping
/// in-flight (`.tmp`) and rotated (`.prev`) copies. Returns the first SCCP
/// and STCP paths in name order, so the pick is deterministic.
fn scan_checkpoints(
    dir: &std::path::Path,
) -> std::io::Result<(
    Option<std::path::PathBuf>,
    Option<std::path::PathBuf>,
    Option<std::path::PathBuf>,
)> {
    let mut names: Vec<std::path::PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    names.sort();
    let (mut sccp, mut stcp, mut scfc) = (None, None, None);
    for path in names {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".tmp") || name.ends_with(".prev") || !path.is_file() {
            continue;
        }
        let mut magic = [0u8; 4];
        let ok = std::fs::File::open(&path)
            .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut magic))
            .is_ok();
        if !ok {
            continue;
        }
        match &magic {
            b"SCCP" if sccp.is_none() => sccp = Some(path),
            b"STCP" if stcp.is_none() => stcp = Some(path),
            b"SCFC" if scfc.is_none() => scfc = Some(path),
            _ => {}
        }
    }
    Ok((sccp, stcp, scfc))
}

/// What one pass over a status directory found.
struct StatusView {
    report: Option<snowcat_events::Report>,
    stream: Option<snowcat_events::StreamSummary>,
    terminal: bool,
}

fn collect_status(dir: &std::path::Path) -> Result<StatusView, Box<dyn std::error::Error>> {
    let stream = match std::fs::read_to_string(dir.join(EVENTS_FILE)) {
        Ok(text) => Some(read_stream(&text)),
        Err(_) => None,
    };
    let terminal =
        stream.as_ref().map(|s| s.records.iter().any(|r| r.event.is_terminal())).unwrap_or(false);
    // A fleet checkpoint wins over the per-shard SCCP files living in the
    // same directory (the merged view is the meaningful one); a campaign
    // checkpoint wins over training; the training report is still reachable
    // by pointing status at a directory with only the STCP file.
    let (sccp, stcp, scfc) = scan_checkpoints(dir)?;
    let report = if let Some(p) = scfc {
        let (fc, _) = load_fleet_checkpoint_with_fallback(&p)?;
        if fc.shards.iter().any(|s| s.checkpoint.is_some()) {
            Some(report_from_fleet_checkpoint(&fc, &CostModel::default())?)
        } else {
            // A fleet killed before any shard persisted progress has
            // nothing to merge yet.
            None
        }
    } else if let Some(p) = sccp {
        let (ck, _) = load_checkpoint_with_fallback(&p)?;
        Some(report_from_campaign_checkpoint(&ck))
    } else if let Some(p) = stcp {
        let (ck, _) = load_train_checkpoint_with_fallback(&p)?;
        Some(report_from_train_checkpoint(&ck))
    } else {
        None
    };
    Ok(StatusView { report, stream, terminal })
}

/// Validate stream integrity and the Perfetto export; any defect is fatal.
fn status_self_check(dir: &std::path::Path) -> CmdResult {
    let events_path = dir.join(EVENTS_FILE);
    let text = std::fs::read_to_string(&events_path)
        .map_err(|e| format!("--self-check: cannot read {EVENTS_FILE}: {e}"))?;
    // Corruption gets the same distinct exit code (4) as a torn checkpoint.
    let summary =
        snowcat_events::validate_stream(&text).map_err(|e| SnowcatError::CheckpointCorrupt {
            path: events_path.clone(),
            detail: format!("event stream is damaged: {e}"),
        })?;
    let trace_path = dir.join(TRACE_FILE);
    if trace_path.exists() {
        let trace = std::fs::read_to_string(&trace_path)?;
        let n = validate_trace(&trace)
            .map_err(|e| SnowcatError::CheckpointCorrupt { path: trace_path.clone(), detail: e })?;
        println!(
            "self-check: {} events, {} dropped, {} trace events — all clean",
            summary.records.len(),
            summary.dropped,
            n
        );
    } else {
        println!(
            "self-check: {} events, {} dropped — stream clean (no {TRACE_FILE})",
            summary.records.len(),
            summary.dropped
        );
    }
    Ok(())
}

fn print_human_status(view: &StatusView) {
    let Some(stream) = &view.stream else {
        println!("no event stream; showing checkpoint state only");
        if let Some(r) = &view.report {
            print!("{}", r.to_canonical_json());
        }
        return;
    };
    let recs = &stream.records;
    let (mut ctis_total, mut label, mut seed) = (0u64, String::new(), 0u64);
    let (mut outcomes, mut races, mut blocks) = (0u64, 0u64, 0u64);
    let (mut hangs, mut quarantined, mut checkpoints) = (0u64, 0u64, 0u64);
    let (mut epochs, mut anomalies, mut rollbacks) = (0u64, 0u64, 0u64);
    let mut last_loss = None;
    let mut predictor = None;
    let mut prefilter = None;
    let mut last_position = 0u64;
    let (mut swaps, mut swap_rejections, mut swap_rollbacks, mut refreshes) =
        (0u64, 0u64, 0u64, 0u64);
    let mut serve_model: Option<String> = None;
    let mut serve_snapshot: Option<ServeEvent> = None;
    let mut serve_stopped: Option<(u64, u64)> = None;
    let mut fleet_started: Option<(u64, u64, bool)> = None;
    let (mut fleet_steals, mut fleet_lost, mut fleet_quarantined) = (0u64, 0u64, 0u64);
    let (mut fleet_done, mut fleet_ckpts) = (0u64, 0u64);
    let (mut fleet_spawns, mut fleet_respawns, mut fleet_crash_loops) = (0u64, 0u64, 0u64);
    let mut fleet_degraded: Option<(u64, u64)> = None;
    let mut fleet_finished: Option<FleetEvent> = None;
    let mut fleet_failed: Option<String> = None;
    for r in recs {
        match &r.event {
            Event::Campaign(e) => match e {
                CampaignEvent::Started { label: l, seed: s, ctis, .. } => {
                    label = l.clone();
                    seed = *s;
                    ctis_total = *ctis;
                }
                CampaignEvent::ExecutionOutcome { position, new_races, new_blocks, .. } => {
                    outcomes += 1;
                    races += new_races;
                    blocks += new_blocks;
                    last_position = last_position.max(*position + 1);
                }
                CampaignEvent::PredictorBatch { batches, inferences } => {
                    predictor = Some((*batches, *inferences));
                }
                CampaignEvent::PrefilterStats { .. } => prefilter = Some(e.clone()),
                CampaignEvent::HangDetected { .. } => hangs += 1,
                CampaignEvent::Quarantined { .. } => quarantined += 1,
                CampaignEvent::CheckpointWritten { .. } => checkpoints += 1,
                _ => {}
            },
            Event::Train(e) => match e {
                TrainEvent::EpochCompleted { loss, .. } => {
                    epochs += 1;
                    last_loss = Some(*loss);
                }
                TrainEvent::AnomalyDetected { .. } => anomalies += 1,
                TrainEvent::RolledBack { .. } => rollbacks += 1,
                TrainEvent::CheckpointWritten { .. } => checkpoints += 1,
                _ => {}
            },
            Event::Serve(e) => match e {
                ServeEvent::Started { model, .. } => serve_model = Some(model.clone()),
                ServeEvent::Snapshot { .. } => serve_snapshot = Some(e.clone()),
                ServeEvent::RefreshStarted { .. } => refreshes += 1,
                ServeEvent::SwapInstalled { name, .. } => {
                    swaps += 1;
                    serve_model = Some(name.clone());
                }
                ServeEvent::SwapRejected { .. } => swap_rejections += 1,
                ServeEvent::SwapRolledBack { .. } => swap_rollbacks += 1,
                ServeEvent::Stopped { requests, graphs, .. } => {
                    serve_stopped = Some((*requests, *graphs));
                }
                _ => {}
            },
            Event::Fleet(e) => match e {
                FleetEvent::Started { workers, shards, resumed, .. } => {
                    fleet_started = Some((*workers, *shards, *resumed));
                }
                FleetEvent::ShardStolen { .. } => fleet_steals += 1,
                FleetEvent::WorkerLost { .. } => fleet_lost += 1,
                FleetEvent::ShardQuarantined { .. } => fleet_quarantined += 1,
                FleetEvent::ShardCompleted { .. } => fleet_done += 1,
                FleetEvent::CheckpointWritten { .. } => fleet_ckpts += 1,
                FleetEvent::WorkerSpawned { .. } => fleet_spawns += 1,
                FleetEvent::WorkerRespawned { .. } => fleet_respawns += 1,
                FleetEvent::WorkerCrashLoop { .. } => fleet_crash_loops += 1,
                FleetEvent::FleetDegraded { live_workers, min_workers } => {
                    fleet_degraded = Some((*live_workers, *min_workers));
                }
                FleetEvent::Finished { .. } => fleet_finished = Some(e.clone()),
                FleetEvent::Failed { detail } => fleet_failed = Some(detail.clone()),
                _ => {}
            },
            _ => {}
        }
    }
    let elapsed_us = match (recs.first(), recs.last()) {
        (Some(a), Some(b)) => b.t_us.saturating_sub(a.t_us),
        _ => 0,
    };
    let state = if view.terminal { "finished" } else { "running" };
    if outcomes > 0 || ctis_total > 0 {
        println!("campaign {label} (seed {seed:#x}) — {state}");
        println!(
            "  progress : {last_position}/{ctis_total} CTIs, {outcomes} accepted executions, \
             {races} new races, {blocks} new blocks"
        );
        if elapsed_us > 0 && outcomes > 0 {
            let per_sec = outcomes as f64 / (elapsed_us as f64 / 1e6);
            let eta = if view.terminal || last_position == 0 || ctis_total <= last_position {
                "done".to_string()
            } else {
                let remaining = (ctis_total - last_position) as f64;
                let secs = elapsed_us as f64 / 1e6 / last_position as f64 * remaining;
                format!("~{secs:.1}s remaining")
            };
            println!("  rate     : {per_sec:.1} executions/s, {eta}");
        }
        println!(
            "  recovery : {hangs} hung attempts, {quarantined} quarantined CT pairs, \
             {checkpoints} checkpoints"
        );
        if let Some((batches, inferences)) = predictor {
            println!("  predictor: {batches} batches, {inferences} inferences");
        }
    }
    if let Some(CampaignEvent::PrefilterStats { vetoed, survivors, may_race_pairs, refined }) =
        &prefilter
    {
        let total = vetoed + survivors;
        let pct = if total > 0 { *vetoed as f64 / total as f64 * 100.0 } else { 0.0 };
        println!(
            "  prefilter: {vetoed}/{total} candidates vetoed statically ({pct:.0}%), \
             {survivors} scored — {} set, {may_race_pairs} may-race pairs",
            if *refined { "alias-refined" } else { "coarse" }
        );
    }
    if let Some(model) = &serve_model {
        println!("serving {model} — {state}");
        if let Some((requests, graphs)) = serve_stopped {
            println!("  served   : {requests} requests, {graphs} graphs");
        } else if let Some(ServeEvent::Snapshot { requests, graphs, p50_us, p99_us, .. }) =
            &serve_snapshot
        {
            println!(
                "  served   : {requests} requests, {graphs} graphs, p50 {p50_us}us, \
                 p99 {p99_us}us"
            );
        }
        println!(
            "  swaps    : {swaps} installed, {swap_rejections} rejected, \
             {swap_rollbacks} rolled back ({refreshes} refresh rounds)"
        );
    }
    if let Some((workers, shards, resumed)) = fleet_started {
        let fleet_state = if fleet_failed.is_some() { "failed" } else { state };
        println!("fleet — {fleet_state}{}", if resumed { " (resumed)" } else { "" });
        println!(
            "  shards   : {fleet_done}/{shards} done across {workers} worker(s), \
             {fleet_quarantined} quarantined"
        );
        println!(
            "  stealing : {fleet_steals} steal(s), {fleet_lost} lost worker(s), \
             {fleet_ckpts} fleet checkpoint(s)"
        );
        if fleet_spawns > 0 {
            println!(
                "  processes: {fleet_spawns} spawn(s), {fleet_respawns} respawn(s), \
                 {fleet_crash_loops} crash loop(s)"
            );
        }
        if let Some((live, floor)) = fleet_degraded {
            println!("  DEGRADED : {live} live worker(s) left, below the --min-workers floor of {floor} — resumable");
        }
        if let Some(detail) = &fleet_failed {
            println!("  FAILED   : {detail}");
        }
        if let Some(FleetEvent::Finished { reexecutions, executions, races, .. }) = &fleet_finished
        {
            println!(
                "  totals   : {executions} executions, {races} races, \
                 {reexecutions} re-executed position(s)"
            );
        }
    }
    if epochs > 0 {
        println!("training — {state}");
        print!("  progress : {epochs} epochs completed");
        if let Some(l) = last_loss {
            print!(", last loss {l:.4}");
        }
        println!();
        println!(
            "  guards   : {anomalies} anomalies, {rollbacks} rollbacks, {checkpoints} checkpoints"
        );
    }
    if stream.dropped > 0 {
        println!("  warning  : {} events dropped at the source (queue overflow)", stream.dropped);
    }
    for issue in &stream.issues {
        println!("  stream issue: {issue}");
    }
    if let Some(r) = &view.report {
        let (kind, summaryline) = match (&r.campaign, &r.train) {
            (Some(c), _) => (
                "campaign",
                format!(
                    "{} CTIs, {} executions, {} races ({} harmful), {} bugs, {:.2} sim h",
                    c.ctis,
                    c.executions,
                    c.races,
                    c.harmful_races,
                    c.bugs_found.len(),
                    c.sim_hours
                ),
            ),
            (_, Some(t)) => (
                "train",
                format!(
                    "{} epochs, best {:?}, {} anomalies{}",
                    t.epochs,
                    t.best_epoch,
                    t.anomalies.len(),
                    if t.completed { "" } else { " (incomplete)" }
                ),
            ),
            _ => ("?", String::new()),
        };
        println!("  latest {kind} checkpoint: {summaryline}");
    }
}

/// `snowcat status <dir>` — one-screen summary of a campaign or training
/// directory: the structured event stream plus the latest checkpoint.
pub fn status(args: &Args) -> CmdResult {
    args.ensure_known_with_positionals(&["json", "follow", "self-check"], 1)?;
    let dir = std::path::PathBuf::from(
        args.positional(0)
            .ok_or("usage: snowcat status <dir> [--json] [--follow] [--self-check]")?,
    );
    if !dir.is_dir() {
        return Err(format!("status: {} is not a directory", dir.display()).into());
    }
    if args.has_flag("self-check") {
        status_self_check(&dir)?;
    }
    loop {
        let view = collect_status(&dir)?;
        if args.has_flag("json") {
            // Canonical bytes: identical to the `--report` file an
            // uninterrupted run with the same seed would have written.
            let report = view
                .report
                .as_ref()
                .ok_or("status --json: no SCCP/STCP checkpoint found in the directory")?;
            print!("{}", report.to_canonical_json());
        } else {
            print_human_status(&view);
        }
        if !args.has_flag("follow") || view.terminal {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(500));
    }
}
