//! Per-layer measurement for `--trace 1` runs.
//!
//! Three sources, all in the benchmark's own files:
//!
//! * counting wrappers around the predictor and the selection strategy,
//!   passed into the real campaign ([`TracedPredictor`], [`TracedStrategy`]);
//! * a replay of every CTI that calls the layer functions in the order
//!   `explore_pct`/`explore_mlpct` and the supervisor call them, recording a
//!   span around each call ([`replay`]); its per-CTI executions,
//!   inferences and new races must equal the campaign's;
//! * a probe that times single layer calls on the workload's own CTIs, so
//!   every per-call time is measured on every workload ([`probe`]).

use crate::workload::{explore_config, serve_config, Inputs, Workload, CHECKPOINT_EVERY};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_core::{
    CostModel, CoveragePredictor, ExploreConfig, ExploreOutcome, HistoryPoint, Pic,
    PredictedCoverage, PredictorStats, S1NewBitmap, SelectionStrategy, StrategySnapshot,
};
use snowcat_corpus::StiProfile;
use snowcat_events::{CampaignEvent, EventSink};
use snowcat_graph::CtGraph;
use snowcat_harness::{save_checkpoint_atomic, CampaignCheckpoint, RecoveryLog};
use snowcat_kernel::{BugId, Kernel};
use snowcat_race::{RaceDetector, RaceKey, RaceSet};
use snowcat_serve::InferenceServer;
use snowcat_vm::{propose_hints, run_ct, BitSet, Cti, ScheduleHints};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The supervisor's positional per-CTI seed derivation.
const SEED_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Spans kept for `trace.json` (a CTI's spans are kept whole or not at
/// all); every span is aggregated.
const KEPT_SPANS: usize = 40_000;
/// Probe size: CTIs visited, and candidate graphs per CTI.
const PROBE_CTIS: usize = 64;
const PROBE_BATCH: usize = 16;

// ---------------------------------------------------------------------------
// In-loop counting wrappers
// ---------------------------------------------------------------------------

/// Counters the wrappers share. Statistics only, so `Relaxed` suffices.
#[derive(Default)]
pub struct LoopCounters {
    pub predict_calls: AtomicU64,
    pub predict_graphs: AtomicU64,
    pub predict_ns: AtomicU64,
    pub select_calls: AtomicU64,
    pub selected: AtomicU64,
}

fn get(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

fn add(a: &AtomicU64, v: u64) {
    a.fetch_add(v, Ordering::Relaxed);
}

/// Forwards every call to the wrapped predictor, counting calls, graphs
/// and time spent.
pub struct TracedPredictor<'a> {
    inner: &'a dyn CoveragePredictor,
    c: Arc<LoopCounters>,
}

impl<'a> TracedPredictor<'a> {
    pub fn new(inner: &'a dyn CoveragePredictor, c: Arc<LoopCounters>) -> Self {
        Self { inner, c }
    }
}

impl CoveragePredictor for TracedPredictor<'_> {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        let t = Instant::now();
        let out = self.inner.predict_batch(graphs);
        add(&self.c.predict_ns, t.elapsed().as_nanos() as u64);
        add(&self.c.predict_calls, 1);
        add(&self.c.predict_graphs, graphs.len() as u64);
        out
    }

    fn stats(&self) -> PredictorStats {
        self.inner.stats()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Forwards every call to the wrapped strategy, counting decisions.
pub struct TracedStrategy {
    inner: Box<dyn SelectionStrategy>,
    c: Arc<LoopCounters>,
}

impl TracedStrategy {
    pub fn new(inner: Box<dyn SelectionStrategy>, c: Arc<LoopCounters>) -> Self {
        Self { inner, c }
    }
}

impl SelectionStrategy for TracedStrategy {
    fn select(&mut self, pred: &PredictedCoverage) -> bool {
        let chosen = self.inner.select(pred);
        add(&self.c.select_calls, 1);
        add(&self.c.selected, u64::from(chosen));
        chosen
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn snapshot(&self) -> StrategySnapshot {
        self.inner.snapshot()
    }

    fn restore(&mut self, snap: &StrategySnapshot) -> bool {
        self.inner.restore(snap)
    }
}

/// In-loop totals of one traced campaign.
pub struct LoopTotals {
    pub predict_calls: u64,
    pub predict_graphs: u64,
    pub predict_s: f64,
    pub select_calls: u64,
    pub selected: u64,
}

impl LoopCounters {
    pub fn totals(&self) -> LoopTotals {
        LoopTotals {
            predict_calls: get(&self.predict_calls),
            predict_graphs: get(&self.predict_graphs),
            predict_s: get(&self.predict_ns) as f64 * 1e-9,
            select_calls: get(&self.select_calls),
            selected: get(&self.selected),
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A layer boundary the replay records a span at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Cti,
    GraphBase,
    GraphCandidate,
    NnForward,
    CoreSelect,
    VmPropose,
    VmRunCt,
    RaceDetect,
    HarnessMerge,
    EventsEmit,
    HarnessCheckpoint,
}

const LAYER_COUNT: usize = Layer::HarnessCheckpoint as usize + 1;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Cti => "core.cti",
            Layer::GraphBase => "graph.base",
            Layer::GraphCandidate => "graph.candidate",
            Layer::NnForward => "nn.forward",
            Layer::CoreSelect => "core.select",
            Layer::VmPropose => "vm.propose",
            Layer::VmRunCt => "vm.run_ct",
            Layer::RaceDetect => "race.detect",
            Layer::HarnessMerge => "harness.merge",
            Layer::EventsEmit => "events.emit",
            Layer::HarnessCheckpoint => "harness.checkpoint",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Totals of one layer's spans, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    cti: usize,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    kept: Option<usize>,
}

/// Records spans with begin/end pairs. Every span is aggregated per layer
/// (count, duration, self time = duration minus the children's); the
/// spans of the first CTIs, up to [`KEPT_SPANS`], are also kept for
/// `trace.json`.
pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: [LayerTotals; LAYER_COUNT],
    cti: usize,
    keep: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            totals: [LayerTotals::default(); LAYER_COUNT],
            cti: 0,
            keep: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Set the CTI index that later spans carry as their shared id.
    pub fn set_cti(&mut self, cti: usize) {
        self.cti = cti;
        self.keep = self.spans.len() < KEPT_SPANS;
    }

    pub fn begin(&mut self, layer: Layer) {
        let start_ns = self.now_ns();
        let kept = self.keep.then(|| {
            let parent = self.stack.last().and_then(|o| o.kept);
            self.spans.push(Span { layer, start_ns, end_ns: start_ns, parent, cti: self.cti });
            self.spans.len() - 1
        });
        self.stack.push(Open { layer, start_ns, child_ns: 0, kept });
    }

    /// Close the innermost span; returns its duration in nanoseconds.
    pub fn end(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("end() without begin()");
        let dur = end_ns - open.start_ns;
        let t = &mut self.totals[open.layer.index()];
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept {
            self.spans[i].end_ns = end_ns;
        }
        dur
    }

    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.totals[layer.index()]
    }

    /// The kept spans in Chrome trace-event format (complete events, µs)
    /// on one track; each span's args carry its CTI index and parent.
    pub fn chrome_json(&self) -> String {
        use serde_json::Value;
        let events = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![("cti".to_string(), Value::UInt(s.cti as u64))];
                if let Some(p) = s.parent {
                    args.push(("parent".into(), Value::Str(self.spans[p].layer.name().into())));
                }
                Value::Object(vec![
                    ("name".into(), Value::Str(s.layer.name().into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Value::Float((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid".into(), Value::UInt(1)),
                    ("tid".into(), Value::UInt(1)),
                    ("args".into(), Value::Object(args)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ns".into())),
        ]);
        crate::to_json(doc)
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// What one replayed CTI did; must equal the campaign's history deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtiCounts {
    pub executions: u64,
    pub inferences: u64,
    pub new_races: u64,
}

pub struct Replay {
    pub tracer: Tracer,
    pub per_cti: Vec<CtiCounts>,
    /// Wall time of each CTI's span, milliseconds.
    pub cti_ms: Vec<f64>,
    /// Model predictions made (inferences charged minus duplicate draws).
    pub predictions: u64,
    pub hangs: u64,
    pub race_reports: u64,
    pub wall_ns: u64,
}

/// One CTI's exploration state, set up as both explorers set it up.
struct CtiExplore<'a> {
    kernel: &'a Kernel,
    a: &'a StiProfile,
    b: &'a StiProfile,
    cfg: ExploreConfig,
    rng: ChaCha8Rng,
    detector: RaceDetector,
    cti: Cti,
    seq_cov: BitSet,
    seen_races: HashSet<RaceKey>,
    seen_hints: HashSet<ScheduleHints>,
    out: ExploreOutcome,
    /// Race reports before in-CTI deduplication.
    reports: u64,
}

impl<'a> CtiExplore<'a> {
    fn new(kernel: &'a Kernel, a: &'a StiProfile, b: &'a StiProfile, cfg: ExploreConfig) -> Self {
        let mut seq_cov = BitSet::new(kernel.num_blocks());
        seq_cov.union_with(&a.seq.coverage);
        seq_cov.union_with(&b.seq.coverage);
        Self {
            kernel,
            a,
            b,
            cfg,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            detector: RaceDetector::default(),
            cti: Cti::new(a.sti.clone(), b.sti.clone()),
            seq_cov,
            seen_races: HashSet::new(),
            seen_hints: HashSet::new(),
            out: ExploreOutcome {
                executions: 0,
                inferences: 0,
                races: Vec::new(),
                bugs: Vec::new(),
                sched_dep_blocks: BitSet::new(kernel.num_blocks()),
                hangs: 0,
                crashes: 0,
            },
            reports: 0,
        }
    }

    /// Draw the next schedule; `None` when it was drawn before.
    fn propose(&mut self, t: &mut Tracer) -> Option<ScheduleHints> {
        t.begin(Layer::VmPropose);
        let hints = propose_hints(&mut self.rng, self.a.seq.steps, self.b.seq.steps);
        t.end();
        self.seen_hints.insert(hints.clone()).then_some(hints)
    }

    /// Execute one candidate and detect its races.
    fn execute(&mut self, t: &mut Tracer, hints: ScheduleHints) {
        t.begin(Layer::VmRunCt);
        let r = run_ct(self.kernel, &self.cti, hints, self.cfg.vm_config());
        t.end();
        let out = &mut self.out;
        out.executions += 1;
        out.hangs += u64::from(r.hung());
        out.crashes += u64::from(r.crashed());
        t.begin(Layer::RaceDetect);
        let found = self.detector.detect(self.kernel, &r);
        t.end();
        self.reports += found.len() as u64;
        for report in found {
            if self.seen_races.insert(report.key) {
                out.races.push(report);
            }
        }
        out.bugs.extend(r.unique_bugs());
        out.sched_dep_blocks.union_with(&r.coverage.difference(&self.seq_cov));
    }

    /// `explore_pct`, step for step.
    fn pct(mut self, t: &mut Tracer) -> Self {
        let mut attempts = 0usize;
        while (self.out.executions as usize) < self.cfg.exec_budget
            && attempts < self.cfg.exec_budget * 20
        {
            attempts += 1;
            if let Some(hints) = self.propose(t) {
                self.execute(t, hints);
            }
        }
        self
    }

    /// `explore_mlpct` on the direct `Pic`, step for step; counts the
    /// model predictions it makes into `predictions`.
    fn mlpct(
        mut self,
        t: &mut Tracer,
        pic: &Pic<'_>,
        strategy: &mut dyn SelectionStrategy,
        predictions: &mut u64,
    ) -> Self {
        let (a, b) = (self.a, self.b);
        t.begin(Layer::GraphBase);
        let base = pic.base_graph(a, b);
        t.end();
        while (self.out.executions as usize) < self.cfg.exec_budget
            && (self.out.inferences as usize) < self.cfg.inference_cap
        {
            let Some(hints) = self.propose(t) else {
                self.out.inferences += 1;
                continue;
            };
            t.begin(Layer::GraphCandidate);
            let graph = pic.candidate_graph(&base, a, b, &hints);
            t.end();
            t.begin(Layer::NnForward);
            let pred = pic.predict_one(&graph);
            t.end();
            *predictions += 1;
            self.out.inferences += 1;
            t.begin(Layer::CoreSelect);
            let chosen = strategy.select(&pred);
            t.end();
            if chosen {
                self.execute(t, hints);
            }
        }
        self
    }
}

/// The supervisor's accumulators.
struct MergeState {
    races: RaceSet,
    harmful: RaceSet,
    blocks: BitSet,
    bugs: Vec<BugId>,
    executions: u64,
    inferences: u64,
    history: Vec<HistoryPoint>,
}

impl MergeState {
    fn merge(&mut self, ci: usize, outcome: ExploreOutcome, cost: &CostModel) {
        self.executions += outcome.executions;
        self.inferences += outcome.inferences;
        for r in &outcome.races {
            self.races.insert(r.key);
            if !r.benign {
                self.harmful.insert(r.key);
            }
        }
        self.blocks.union_with(&outcome.sched_dep_blocks);
        for bug in outcome.bugs {
            if !self.bugs.contains(&bug) {
                self.bugs.push(bug);
            }
        }
        self.history.push(HistoryPoint {
            ctis: ci + 1,
            executions: self.executions,
            inferences: self.inferences,
            hours: cost.hours(self.executions, self.inferences),
            races: self.races.len(),
            harmful_races: self.harmful.len(),
            sched_dep_blocks: self.blocks.count(),
            bugs: self.bugs.len(),
        });
    }

    fn checkpoint(
        &self,
        label: &str,
        seed: u64,
        position: usize,
        strategy: Option<StrategySnapshot>,
        written: u64,
    ) -> CampaignCheckpoint {
        let mut race_keys: Vec<_> = self.races.iter().copied().collect();
        race_keys.sort_unstable();
        let mut harmful_keys: Vec<_> = self.harmful.iter().copied().collect();
        harmful_keys.sort_unstable();
        CampaignCheckpoint {
            label: label.to_owned(),
            seed,
            position,
            executions: self.executions,
            inferences: self.inferences,
            race_keys,
            harmful_keys,
            blocks: self.blocks.clone(),
            bugs_found: self.bugs.clone(),
            history: self.history.clone(),
            quarantine: Vec::new(),
            strategy,
            recovery: RecoveryLog { checkpoints_written: written, ..RecoveryLog::default() },
        }
    }
}

/// Replay a campaign over `stream` layer by layer: the explorer's calls,
/// then the supervisor's merge, event emit and checkpoint write where the
/// workload has them. Returns the spans and the per-CTI counts, plus the
/// final state as a checkpoint.
pub fn replay(
    w: Workload,
    inp: &Inputs,
    stream: &[(usize, usize)],
    seed: u64,
    out: &Path,
) -> Result<(Replay, CampaignCheckpoint), String> {
    let k = &inp.kernel;
    let pic = Pic::new(&inp.model, k, &inp.kcfg);
    let base_cfg = explore_config(seed);
    let cost = CostModel::default();
    let label = if w.mlpct() { "MLPCT-S1" } else { "PCT" };
    let mut strategy = S1NewBitmap::new();
    let sink = w.durable().then(|| EventSink::bounded(stream.len()));
    let ck_path = out.join("replay.sccp");
    let mut state = MergeState {
        races: RaceSet::new(),
        harmful: RaceSet::new(),
        blocks: BitSet::new(k.num_blocks()),
        bugs: Vec::new(),
        executions: 0,
        inferences: 0,
        history: Vec::with_capacity(stream.len()),
    };
    let mut t = Tracer::new();
    let (mut predictions, mut reports, mut hangs, mut written) = (0u64, 0u64, 0u64, 0u64);
    let mut per_cti = Vec::with_capacity(stream.len());
    let mut cti_ms = Vec::with_capacity(stream.len());
    let snapshot = |s: &S1NewBitmap| w.mlpct().then(|| s.snapshot());
    let start = Instant::now();
    for (ci, &(ia, ib)) in stream.iter().enumerate() {
        t.set_cti(ci);
        t.begin(Layer::Cti);
        let cfg = base_cfg.with_seed(seed ^ (ci as u64).wrapping_mul(SEED_GOLDEN));
        let explore = CtiExplore::new(k, &inp.corpus[ia], &inp.corpus[ib], cfg);
        let explore = if w.mlpct() {
            explore.mlpct(&mut t, &pic, &mut strategy, &mut predictions)
        } else {
            explore.pct(&mut t)
        };
        reports += explore.reports;
        let outcome = explore.out;
        hangs += outcome.hangs;
        let (pre_races, executions, inferences) =
            (state.races.len(), outcome.executions, outcome.inferences);
        t.begin(Layer::HarnessMerge);
        state.merge(ci, outcome, &cost);
        t.end();
        let new_races = (state.races.len() - pre_races) as u64;
        per_cti.push(CtiCounts { executions, inferences, new_races });
        if let Some(s) = &sink {
            t.begin(Layer::EventsEmit);
            s.campaign(CampaignEvent::ExecutionOutcome {
                position: ci as u64,
                ct_a: ia as u64,
                ct_b: ib as u64,
                attempt: 0,
                executions,
                new_races,
                new_blocks: 0,
                latency_us: 0,
            });
            t.end();
        }
        if w.durable() && (ci + 1).is_multiple_of(CHECKPOINT_EVERY) {
            t.begin(Layer::HarnessCheckpoint);
            let ck = state.checkpoint(label, seed, ci + 1, snapshot(&strategy), written);
            save_checkpoint_atomic(&ck_path, &ck, None).map_err(|e| e.to_string())?;
            t.end();
            written += 1;
        }
        cti_ms.push(t.end() as f64 / 1e6);
    }
    let final_ck = state.checkpoint(label, seed, stream.len(), snapshot(&strategy), written);
    if w.durable() {
        t.begin(Layer::HarnessCheckpoint);
        save_checkpoint_atomic(&ck_path, &final_ck, None).map_err(|e| e.to_string())?;
        t.end();
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let replay =
        Replay { tracer: t, per_cti, cti_ms, predictions, hangs, race_reports: reports, wall_ns };
    Ok((replay, final_ck))
}

/// Per-CTI counts of a campaign, from its history.
pub fn campaign_counts(history: &[HistoryPoint]) -> Vec<CtiCounts> {
    let mut prev = (0u64, 0u64, 0usize);
    history
        .iter()
        .map(|h| {
            let c = CtiCounts {
                executions: h.executions - prev.0,
                inferences: h.inferences - prev.1,
                new_races: (h.races - prev.2) as u64,
            };
            prev = (h.executions, h.inferences, h.races);
            c
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

/// Single-call timings of each layer on this workload's CTIs, in the units
/// the per-layer metrics report.
pub struct Probe {
    pub base_us: f64,
    pub candidate_us: f64,
    pub verts: f64,
    pub edges: f64,
    pub forward_b1_us: f64,
    pub forward_b16_us: f64,
    pub select_ns: f64,
    pub emit_ns: f64,
    pub checkpoint_ms: f64,
    pub checkpoint_bytes: u64,
    pub serve_p50_us: f64,
    pub serve_p99_us: f64,
}

/// Nearest-rank percentile (`p` in 0..=1) of an unsorted sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Time each layer call on [`PROBE_CTIS`] CTIs of `stream` (cycling when
/// the stream is shorter), [`PROBE_BATCH`] candidates each: graph builds,
/// inference one graph and sixteen graphs per call, S1 selection, an event
/// emit, a write of `final_ck`, and one caller's requests through an
/// inference server with the `--serve` settings.
pub fn probe(
    inp: &Inputs,
    stream: &[(usize, usize)],
    seed: u64,
    final_ck: &CampaignCheckpoint,
    out: &Path,
) -> Result<Probe, String> {
    let pic = Pic::new(&inp.model, &inp.kernel, &inp.kcfg);
    let mut strategy = S1NewBitmap::new();
    let (mut base_us, mut cand_us, mut b1_us, mut b16_us, mut select_ns) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut verts, mut edges) = (0usize, 0usize);
    let mut graphs: Vec<CtGraph> = Vec::with_capacity(PROBE_CTIS * PROBE_BATCH);
    for ci in 0..PROBE_CTIS {
        let (ia, ib) = stream[ci % stream.len()];
        let (a, b) = (&inp.corpus[ia], &inp.corpus[ib]);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (ci as u64).wrapping_mul(SEED_GOLDEN));
        let t = Instant::now();
        let base = std::hint::black_box(pic.base_graph(a, b));
        base_us += micros(t);
        let mut batch = Vec::with_capacity(PROBE_BATCH);
        for _ in 0..PROBE_BATCH {
            let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
            let t = Instant::now();
            let g = std::hint::black_box(pic.candidate_graph(&base, a, b, &hints));
            cand_us += micros(t);
            verts += g.verts.len();
            edges += g.edges.len();
            batch.push(g);
        }
        for g in &batch {
            let t = Instant::now();
            std::hint::black_box(pic.predict_batch(std::slice::from_ref(g)));
            b1_us += micros(t);
        }
        let t = Instant::now();
        let preds = std::hint::black_box(pic.predict_batch(&batch));
        b16_us += micros(t);
        for p in &preds {
            let t = Instant::now();
            std::hint::black_box(strategy.select(p));
            select_ns += t.elapsed().as_nanos() as f64;
        }
        graphs.extend(batch);
    }
    let n_graphs = graphs.len() as f64;

    let mut server = InferenceServer::start(&inp.model, serve_config(), None);
    let handle = server.handle();
    let latencies: Vec<f64> = graphs
        .iter()
        .map(|g| {
            let t = Instant::now();
            std::hint::black_box(handle.predict_one(g));
            micros(t)
        })
        .collect();
    server.shutdown();

    let sink = EventSink::bounded(graphs.len());
    let t = Instant::now();
    for i in 0..graphs.len() as u64 {
        sink.campaign(CampaignEvent::ExecutionOutcome {
            position: i,
            ct_a: i,
            ct_b: i + 1,
            attempt: 0,
            executions: 50,
            new_races: 1,
            new_blocks: 0,
            latency_us: 0,
        });
    }
    let emit_ns = t.elapsed().as_nanos() as f64 / n_graphs;

    let path = out.join("probe.sccp");
    let writes: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            save_checkpoint_atomic(&path, final_ck, None).map(|_| micros(t) / 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let checkpoint_bytes =
        std::fs::metadata(&path).map_err(|e| format!("{}: {e}", path.display()))?.len();

    let per_cti = PROBE_CTIS as f64;
    Ok(Probe {
        base_us: base_us / per_cti,
        candidate_us: cand_us / n_graphs,
        verts: verts as f64 / n_graphs,
        edges: edges as f64 / n_graphs,
        forward_b1_us: b1_us / n_graphs,
        forward_b16_us: b16_us / n_graphs,
        select_ns: select_ns / n_graphs,
        emit_ns,
        checkpoint_ms: crate::median(&writes),
        checkpoint_bytes,
        serve_p50_us: percentile(&latencies, 0.5),
        serve_p99_us: percentile(&latencies, 0.99),
    })
}
