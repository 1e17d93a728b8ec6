//! The predictor service: a unified, batched coverage-prediction API.
//!
//! Everything that consumes coverage predictions — MLPCT exploration,
//! Razzer-PIC candidate filtering, Snowboard exemplar sampling, campaign
//! runs, the experiment regenerators — goes through one trait:
//!
//! * [`CoveragePredictor`] — batched inference over pre-built CT graphs,
//!   with [`PredictorStats`] counters behind `&self` (interior mutability),
//!   so predictors can be shared across threads.
//!
//! Implementors:
//!
//! * [`crate::pic::Pic`] — the trained GNN + tuned threshold,
//! * [`BaselineService`] — the Table-1 baselines (all-positive, fair coin,
//!   biased coin), deterministic per graph,
//! * [`ParallelPredictor`] — fans a batch out over a scoped worker pool with
//!   work stealing; results are bit-identical to serial evaluation.
//!
//! Memoization is not a wrapper: the deployed model under [`Pic`] (and
//! under the inference server's model epochs) runs one forward pass per
//! distinct graph. [`PredictorService`] bundles a predictor chain with the
//! graph-building [`Pic`] so workflow code can go from (CTI, scheduling
//! hints) to predictions in one call.

use crate::pic::{Pic, PredictedCoverage};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use snowcat_corpus::StiProfile;
use snowcat_graph::CtGraph;
use snowcat_nn::BaselinePredictor;
use snowcat_vm::ScheduleHints;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// FNV-1a over a byte slice, continuing from `h` (so hashes can be chained).
pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Content fingerprint of a CT graph. Two graphs with the same vertices
/// (block, thread, kind, schedule mark, tokens) and the same edge list hash
/// equal; CT graphs are pure functions of (checkpointed corpus, CTI pair,
/// scheduling hints), so this fingerprints the prediction *input*.
pub fn graph_fingerprint(g: &CtGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = fnv1a(h, &(g.verts.len() as u64).to_le_bytes());
    for v in &g.verts {
        h = fnv1a(h, &v.block.0.to_le_bytes());
        h = fnv1a(h, &[v.thread.0, v.kind as u8, v.sched_mark.index() as u8, u8::from(v.may_race)]);
        h = fnv1a(h, &v.static_feats.bytes());
        for t in &v.tokens {
            h = fnv1a(h, &t.to_le_bytes());
        }
    }
    h = fnv1a(h, &(g.edges.len() as u64).to_le_bytes());
    for e in &g.edges {
        h = fnv1a(h, &e.from.to_le_bytes());
        h = fnv1a(h, &e.to.to_le_bytes());
        h = fnv1a(h, &[e.kind.index() as u8]);
    }
    h
}

/// Counter snapshot of a predictor (chain). Wrapper predictors merge their
/// own counters into the inner predictor's snapshot, so the stats of the
/// outermost predictor describe the whole chain.
///
/// The fields are private and the struct is `#[non_exhaustive]`: consumers
/// read counters through accessors ([`batches`](Self::batches),
/// [`inferences`](Self::inferences)), so future exporters can add counters
/// without breaking downstream code.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorStats {
    pub(crate) inferences: u64,
    pub(crate) batches: u64,
}

impl PredictorStats {
    /// An all-zero snapshot (identical to `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of a leaf predictor: `inferences` graphs predicted over
    /// `batches` batch calls.
    pub fn of_inference_counts(inferences: u64, batches: u64) -> Self {
        PredictorStats { inferences, batches }
    }

    /// Graphs the model predicted: the inference-budget count. Hits of the
    /// deployed model's memo are included.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// `predict_batch` calls on the outermost predictor.
    pub fn batches(&self) -> u64 {
        self.batches
    }
}

/// A coverage predictor: CT graphs in, per-vertex coverage predictions out.
///
/// Implementations take `&self` and are `Sync`, so one predictor can serve
/// several exploration threads; counters use interior mutability and come
/// back via [`CoveragePredictor::stats`].
pub trait CoveragePredictor: Sync {
    /// Predict coverage for a batch of CT graphs. The output is aligned
    /// with the input: `out[i]` is the prediction for `graphs[i]`.
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage>;

    /// Counter snapshot for the whole predictor chain.
    fn stats(&self) -> PredictorStats;

    /// Content fingerprint of the model that answers: it tells checkpoints
    /// (and so the epochs of a hot-swapped server) apart. Wrappers forward
    /// to the predictor that actually infers.
    fn fingerprint(&self) -> u64;

    /// Human-readable name of the chain ("PIC-5", "parallel4(PIC-5)").
    fn name(&self) -> String;

    /// Predict coverage for a single CT graph.
    fn predict_one(&self, graph: &CtGraph) -> PredictedCoverage {
        self.predict_batch(std::slice::from_ref(graph))
            .pop()
            .expect("predict_batch returns one prediction per input graph")
    }
}

impl<P: CoveragePredictor + ?Sized> CoveragePredictor for &P {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        (**self).predict_batch(graphs)
    }

    fn stats(&self) -> PredictorStats {
        (**self).stats()
    }

    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn predict_one(&self, graph: &CtGraph) -> PredictedCoverage {
        (**self).predict_one(graph)
    }
}

/// Coverage prediction with the auxiliary inter-thread-flow head (§6). Only
/// meaningful on models trained on flow examples
/// ([`snowcat_nn::FlowLabeledGraph`]); the flow scores are aligned with `graph.edges` (0.0 on non-InterFlow edges).
pub trait FlowPredictor: CoveragePredictor {
    /// Predict coverage *and* per-edge inter-thread-flow probabilities.
    fn predict_with_flows(&self, graph: &CtGraph) -> (PredictedCoverage, Vec<f32>);
}

/// The Table-1 baseline predictors behind the unified API. Coin flips are
/// derived deterministically from the graph fingerprint, so a baseline is
/// `Sync`, repeatable, and parallel evaluation is bit-identical to serial.
pub struct BaselineService {
    kind: BaselinePredictor,
    seed: u64,
    inferences: AtomicU64,
    batches: AtomicU64,
}

impl BaselineService {
    /// Wrap a baseline; `seed` decorrelates coin flips across services.
    pub fn new(kind: BaselinePredictor, seed: u64) -> Self {
        Self { kind, seed, inferences: AtomicU64::new(0), batches: AtomicU64::new(0) }
    }

    /// Predict every vertex positive.
    pub fn all_pos() -> Self {
        Self::new(BaselinePredictor::AllPos, 0)
    }

    /// Fair coin per vertex.
    pub fn fair_coin(seed: u64) -> Self {
        Self::new(BaselinePredictor::FairCoin, seed)
    }

    /// Coin biased to the training-set URB base rate.
    pub fn biased_coin(rate: f64, seed: u64) -> Self {
        Self::new(BaselinePredictor::BiasedCoin(rate), seed)
    }
}

impl CoveragePredictor for BaselineService {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inferences.fetch_add(graphs.len() as u64, Ordering::Relaxed);
        graphs
            .iter()
            .map(|graph| {
                let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ graph_fingerprint(graph));
                let positive = self.kind.predict(&mut rng, graph.num_verts());
                let probs = positive.iter().map(|&p| if p { 1.0 } else { 0.0 }).collect();
                PredictedCoverage { graph: graph.clone(), probs, positive }
            })
            .collect()
    }

    fn stats(&self) -> PredictorStats {
        PredictorStats::of_inference_counts(
            self.inferences.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
        )
    }

    fn fingerprint(&self) -> u64 {
        let tag: u64 = match self.kind {
            BaselinePredictor::AllPos => 1,
            BaselinePredictor::FairCoin => 2,
            BaselinePredictor::BiasedCoin(p) => 3 ^ p.to_bits(),
        };
        fnv1a(0x6261_7365_6c69_6e65, &(tag ^ self.seed).to_le_bytes())
    }

    fn name(&self) -> String {
        match self.kind {
            BaselinePredictor::AllPos => "all-pos".into(),
            BaselinePredictor::FairCoin => "fair-coin".into(),
            BaselinePredictor::BiasedCoin(p) => format!("biased-coin({p:.2})"),
        }
    }
}

/// Fans `predict_batch` out over a scoped worker pool. Workers steal graph
/// indices from a shared counter, so an uneven batch (graphs vary widely in
/// vertex count) still balances; each prediction lands back in its input
/// slot, making the output bit-identical to serial evaluation.
pub struct ParallelPredictor<P> {
    inner: P,
    workers: usize,
    batches: AtomicU64,
}

impl<P: CoveragePredictor> ParallelPredictor<P> {
    /// Wrap `inner`, evaluating batches on up to `workers` threads.
    pub fn new(inner: P, workers: usize) -> Self {
        Self { inner, workers: workers.max(1), batches: AtomicU64::new(0) }
    }

    /// Worker pool size (≥ 1).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The wrapped predictor.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: CoveragePredictor> CoveragePredictor for ParallelPredictor<P> {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if self.workers == 1 || graphs.len() <= 1 {
            return self.inner.predict_batch(graphs);
        }
        let next = AtomicUsize::new(0);
        let inner = &self.inner;
        let predicted: Vec<(usize, PredictedCoverage)> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers.min(graphs.len()))
                .map(|_| {
                    scope.spawn(|_| {
                        let mut got = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= graphs.len() {
                                break;
                            }
                            got.push((i, inner.predict_one(&graphs[i])));
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("predictor worker panicked")).collect()
        })
        .expect("predictor pool panicked");
        let mut out: Vec<Option<PredictedCoverage>> = graphs.iter().map(|_| None).collect();
        for (i, p) in predicted {
            out[i] = Some(p);
        }
        out.into_iter().map(|p| p.expect("every batch index predicted exactly once")).collect()
    }

    fn stats(&self) -> PredictorStats {
        // The inner predictor sees one "batch" per stolen graph; report the
        // batches this wrapper was actually asked for.
        PredictorStats { batches: self.batches.load(Ordering::Relaxed), ..self.inner.stats() }
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn name(&self) -> String {
        format!("parallel{}({})", self.workers, self.inner.name())
    }
}

/// Graph construction + a predictor chain, bundled so workflow code can go
/// from (CTI, scheduling hints) straight to predictions. The [`Pic`] side
/// builds graphs; the [`CoveragePredictor`] side — by default the same
/// `Pic`, optionally a parallel pool or a server handle around it — infers.
#[derive(Clone, Copy)]
pub struct PredictorService<'a, 'k> {
    pic: &'a Pic<'k>,
    predictor: &'a dyn CoveragePredictor,
}

impl<'a, 'k> PredictorService<'a, 'k> {
    /// Serve predictions directly from the deployed PIC.
    pub fn direct(pic: &'a Pic<'k>) -> Self {
        Self { pic, predictor: pic }
    }

    /// Serve predictions through `predictor` (a chain that must wrap the
    /// same deployed model for the predictions to be meaningful).
    pub fn with(pic: &'a Pic<'k>, predictor: &'a dyn CoveragePredictor) -> Self {
        Self { pic, predictor }
    }

    /// The graph-building PIC deployment.
    pub fn pic(&self) -> &'a Pic<'k> {
        self.pic
    }

    /// The inference chain predictions go through.
    pub fn predictor(&self) -> &'a dyn CoveragePredictor {
        self.predictor
    }

    /// Build the schedule-independent base graph of a CTI.
    pub fn base_graph(&self, a: &StiProfile, b: &StiProfile) -> CtGraph {
        self.pic.base_graph(a, b)
    }

    /// Predict one CT candidate given its CTI's base graph.
    pub fn predict_candidate(
        &self,
        base: &CtGraph,
        a: &StiProfile,
        b: &StiProfile,
        hints: &ScheduleHints,
    ) -> PredictedCoverage {
        let graph = self.pic.candidate_graph(base, a, b, hints);
        self.predictor.predict_one(&graph)
    }

    /// Predict a batch of CT candidates of the same CTI, one per entry of
    /// `hints` (output aligned with `hints`).
    pub fn predict_candidates(
        &self,
        base: &CtGraph,
        a: &StiProfile,
        b: &StiProfile,
        hints: &[ScheduleHints],
    ) -> Vec<PredictedCoverage> {
        let graphs: Vec<CtGraph> =
            hints.iter().map(|h| self.pic.candidate_graph(base, a, b, h)).collect();
        self.predictor.predict_batch(&graphs)
    }

    /// Predict one CT candidate from scratch (base graph built and dropped).
    pub fn predict_ct(
        &self,
        a: &StiProfile,
        b: &StiProfile,
        hints: &ScheduleHints,
    ) -> PredictedCoverage {
        let base = self.base_graph(a, b);
        self.predict_candidate(&base, a, b, hints)
    }

    /// Counter snapshot of the inference chain.
    pub fn stats(&self) -> PredictorStats {
        self.predictor.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_cfg::KernelCfg;
    use snowcat_corpus::StiFuzzer;
    use snowcat_kernel::{generate, GenConfig};
    use snowcat_nn::{Checkpoint, PicConfig, PicModel};
    use snowcat_vm::propose_hints;

    fn setup_graphs(n: usize) -> (Vec<CtGraph>, Checkpoint) {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 9);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg);
        let mut rng = rand::rngs::mock::StepRng::new(11, 13);
        let base = pic.base_graph(&corpus[0], &corpus[1]);
        let graphs = (0..n)
            .map(|_| {
                let hints = propose_hints(&mut rng, corpus[0].seq.steps, corpus[1].seq.steps);
                pic.candidate_graph(&base, &corpus[0], &corpus[1], &hints)
            })
            .collect();
        (graphs, ck)
    }

    #[test]
    fn graph_fingerprint_is_content_addressed() {
        let (graphs, _) = setup_graphs(3);
        assert_eq!(graph_fingerprint(&graphs[0]), graph_fingerprint(&graphs[0].clone()));
        // Distinct schedules give distinct graphs and distinct fingerprints.
        if graphs[0] != graphs[1] {
            assert_ne!(graph_fingerprint(&graphs[0]), graph_fingerprint(&graphs[1]));
        }
        let mut tweaked = graphs[0].clone();
        tweaked.verts[0].tokens.push(7);
        assert_ne!(graph_fingerprint(&graphs[0]), graph_fingerprint(&tweaked));
    }

    #[test]
    fn baselines_are_deterministic_and_aligned() {
        let (graphs, _) = setup_graphs(2);
        for svc in [
            BaselineService::all_pos(),
            BaselineService::fair_coin(3),
            BaselineService::biased_coin(0.2, 3),
        ] {
            let a = svc.predict_batch(&graphs);
            let b = svc.predict_batch(&graphs);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.positive, y.positive, "{}", svc.name());
                assert_eq!(x.positive.len(), x.graph.num_verts());
            }
        }
        let all = BaselineService::all_pos().predict_one(&graphs[0]);
        assert!(all.positive.iter().all(|&p| p));
        assert_eq!(BaselineService::all_pos().stats().inferences, 0);
    }

    #[test]
    fn parallel_predictor_is_bit_identical_to_serial() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let (graphs, ck) = setup_graphs(9);
        let pic = Pic::new(&ck, &k, &cfg);
        // Parallel first, so its workers run the forward passes and the
        // serial batch reads their memo entries.
        let par = ParallelPredictor::new(&pic, 4);
        let parallel = par.predict_batch(&graphs);
        let serial = pic.predict_batch(&graphs);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.graph, p.graph);
            assert_eq!(s.probs, p.probs);
            assert_eq!(s.positive, p.positive);
        }
        let stats = par.stats();
        assert_eq!(stats.inferences, 18, "9 parallel + 9 serial on the shared Pic");
        assert_eq!(stats.batches, 1);
        assert_eq!(par.fingerprint(), pic.fingerprint());
    }

    #[test]
    fn service_candidate_paths_agree() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 9);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg);
        let svc = PredictorService::direct(&pic);
        let mut rng = rand::rngs::mock::StepRng::new(5, 17);
        let (a, b) = (&corpus[0], &corpus[1]);
        let base = svc.base_graph(a, b);
        let hints: Vec<_> =
            (0..3).map(|_| propose_hints(&mut rng, a.seq.steps, b.seq.steps)).collect();
        let batch = svc.predict_candidates(&base, a, b, &hints);
        for (h, p) in hints.iter().zip(&batch) {
            let one = svc.predict_candidate(&base, a, b, h);
            assert_eq!(one.probs, p.probs);
            let fresh = svc.predict_ct(a, b, h);
            assert_eq!(fresh.probs, p.probs);
        }
    }
}
