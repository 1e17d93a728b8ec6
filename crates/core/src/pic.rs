//! The deployed coverage predictor: trained model + tuned threshold + graph
//! construction, packaged behind the interface the testing workflow uses
//! ("given a CT candidate, predict its block coverage").
//!
//! Inference goes through the [`crate::predictor::CoveragePredictor`] trait,
//! which [`Pic`] implements on top of a [`DeployedModel`]; this module keeps
//! the graph-construction side (base graphs, schedule overlays), the
//! memoizing forward pass and the prediction result type.
//! [`DeployedModel::predict`] is the one prediction path: a direct `Pic` and
//! every served request call it on the thread that asks.

use crate::predictor::{fnv1a, graph_fingerprint, CoveragePredictor, PredictorStats};
use parking_lot::Mutex;
use snowcat_cfg::KernelCfg;
use snowcat_corpus::StiProfile;
use snowcat_graph::{CtGraph, CtGraphBuilder};
use snowcat_kernel::{BlockId, Kernel, ThreadId};
use snowcat_nn::{Checkpoint, PicModel, PicSession};
use snowcat_vm::ScheduleHints;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Entries a [`DeployedModel`]'s memo holds before it is cleared. Above the
/// 1,600-inference cap of one CTI (§5.3.1), so all the distinct candidate
/// graphs of a CTI fit.
const MEMO_CAP: usize = 2048;

/// Predicted coverage for one CT candidate.
#[derive(Debug, Clone)]
pub struct PredictedCoverage {
    /// The CT graph the prediction was made on.
    pub graph: CtGraph,
    /// Per-vertex positive-class probabilities.
    pub probs: Vec<f32>,
    /// Thresholded predictions.
    pub positive: Vec<bool>,
}

impl PredictedCoverage {
    /// (thread, block) pairs predicted covered.
    pub fn positive_blocks(&self) -> Vec<(ThreadId, BlockId)> {
        self.graph
            .verts
            .iter()
            .zip(&self.positive)
            .filter(|(_, &p)| p)
            .map(|(v, _)| (v.thread, v.block))
            .collect()
    }

    /// Whether any vertex for `block` (either thread) is predicted covered.
    pub fn covers_block(&self, block: BlockId) -> bool {
        self.graph.verts.iter().zip(&self.positive).any(|(v, &p)| p && v.block == block)
    }
}

/// A restored model and its tuned threshold: the one implementation of
/// "model + threshold → [`PredictedCoverage`]", shared by the direct [`Pic`]
/// and the inference server's model epochs.
///
/// Predictions are memoized on [`graph_fingerprint`], so each distinct graph
/// pays for one forward pass. Every MLPCT proposal starts thread 0 and a CT
/// graph places switch points at block granularity, so two proposals whose
/// switch points fall in the same blocks give the same graph, and MLPCT
/// proposes many schedules per graph. The memo keeps probabilities only
/// (the threshold is applied on every call), is cleared when it reaches
/// `MEMO_CAP` (2,048) entries, and is locked for a lookup or an insert, never
/// across a forward pass. A hit is bit-identical to a fresh forward pass,
/// so a graph's prediction never depends on what was predicted before it.
pub struct DeployedModel {
    model: PicModel,
    threshold: f32,
    fingerprint: u64,
    name: String,
    memo: Mutex<HashMap<u64, Vec<f32>>>,
    forward_passes: AtomicU64,
}

impl DeployedModel {
    /// Restore a checkpoint's model and threshold, with an empty memo.
    pub fn new(checkpoint: &Checkpoint) -> Self {
        Self {
            model: checkpoint.restore(),
            threshold: checkpoint.threshold,
            fingerprint: checkpoint_fingerprint(checkpoint),
            name: checkpoint.name.clone(),
            memo: Mutex::new(HashMap::new()),
            forward_passes: AtomicU64::new(0),
        }
    }

    /// The checkpoint's [`checkpoint_fingerprint`]: deployments of the same
    /// trained model agree, so a served epoch and a direct `Pic` of one
    /// checkpoint report the same value.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The checkpoint's provenance name ("PIC-5").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The restored model (read-only).
    pub fn model(&self) -> &PicModel {
        &self.model
    }

    /// The tuned classification threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Forward passes [`predict`](Self::predict) has run, i.e. its memo
    /// misses. Not part of [`PredictorStats`]: the inference budget counts
    /// graphs predicted, hits included.
    pub fn forward_passes(&self) -> u64 {
        self.forward_passes.load(Ordering::Relaxed)
    }

    /// Predict a batch. The output is aligned with `graphs`, and each
    /// prediction depends only on (weights, graph), never on the batch or
    /// on earlier calls.
    pub fn predict(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        // One scratch session per call, built at the first miss: every miss
        // after it reuses the same buffers, and a call of hits builds none.
        let mut session: Option<PicSession> = None;
        graphs
            .iter()
            .map(|graph| {
                let key = graph_fingerprint(graph);
                let hit = self.memo.lock().get(&key).cloned();
                let probs = hit.unwrap_or_else(|| {
                    let mut probs = Vec::new();
                    let session = session.get_or_insert_with(PicSession::new);
                    self.model.forward_into(graph, session, &mut probs);
                    self.forward_passes.fetch_add(1, Ordering::Relaxed);
                    let mut memo = self.memo.lock();
                    if memo.len() >= MEMO_CAP {
                        memo.clear();
                    }
                    memo.insert(key, probs.clone());
                    probs
                });
                self.coverage(graph, probs)
            })
            .collect()
    }

    /// Threshold `probs` into the prediction for `graph`.
    fn coverage(&self, graph: &CtGraph, probs: Vec<f32>) -> PredictedCoverage {
        let positive = probs.iter().map(|&p| p >= self.threshold).collect();
        PredictedCoverage { graph: graph.clone(), probs, positive }
    }
}

/// The deployable PIC predictor: a [`DeployedModel`] and the graph builder
/// for the kernel it was deployed against.
///
/// Inference state (the model, the threshold, the counters) is
/// encapsulated: predictions go through [`CoveragePredictor::predict_batch`]
/// / [`CoveragePredictor::predict_one`], counters come back via
/// [`CoveragePredictor::stats`], and the model/threshold are read-only
/// through [`Pic::model`] and [`Pic::threshold`].
pub struct Pic<'k> {
    deployed: DeployedModel,
    builder: CtGraphBuilder<'k>,
    /// Graphs predicted, memo hits included: the inference-budget count
    /// (§5.3.1 caps it at 1,600 per CTI). Atomic so threads sharing one
    /// `Pic` can predict concurrently.
    inferences: AtomicU64,
    batches: AtomicU64,
}

impl<'k> Pic<'k> {
    /// Deploy a checkpoint against a kernel image.
    pub fn new(checkpoint: &Checkpoint, kernel: &'k Kernel, cfg: &'k KernelCfg) -> Self {
        Self {
            deployed: DeployedModel::new(checkpoint),
            builder: CtGraphBuilder::new(kernel, cfg),
            inferences: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// Enable the static may-race node feature: vertices on `blocks` carry
    /// [`snowcat_graph::Vertex::may_race`] in every graph this predictor
    /// builds. Pass the block set of `snowcat-analysis`' may-race pass.
    pub fn with_may_race_blocks(mut self, blocks: snowcat_vm::BitSet) -> Self {
        self.builder.may_race_blocks = Some(blocks);
        self
    }

    /// Enable the per-block static feature channels (alias-class density,
    /// must-lockset size, refined may-race degree): every graph this
    /// predictor builds stamps `feats[block]` onto its vertices. Pass the
    /// `snowcat-analysis` per-block channel table, indexed by `BlockId`.
    pub fn with_static_feats(mut self, feats: Vec<snowcat_graph::StaticFeats>) -> Self {
        self.builder.block_static_feats = Some(feats);
        self
    }

    /// The restored model (read-only).
    pub fn model(&self) -> &PicModel {
        self.deployed.model()
    }

    /// The tuned classification threshold.
    pub fn threshold(&self) -> f32 {
        self.deployed.threshold()
    }

    /// Graphs predicted so far, memo hits included (same as
    /// `stats().inferences`).
    pub fn inferences(&self) -> u64 {
        self.inferences.load(Ordering::Relaxed)
    }

    /// Forward passes run so far (see [`DeployedModel::forward_passes`]).
    pub fn forward_passes(&self) -> u64 {
        self.deployed.forward_passes()
    }

    /// Build the schedule-independent base graph of a CTI (reused across
    /// interleaving candidates).
    pub fn base_graph(&self, a: &StiProfile, b: &StiProfile) -> CtGraph {
        self.builder.build_base(&a.seq, &b.seq)
    }

    /// Overlay a candidate schedule on a CTI's base graph, producing the
    /// complete CT graph a predictor consumes.
    pub fn candidate_graph(
        &self,
        base: &CtGraph,
        a: &StiProfile,
        b: &StiProfile,
        hints: &ScheduleHints,
    ) -> CtGraph {
        self.builder.with_schedule(base, &a.seq, &b.seq, hints)
    }

    /// Predict coverage *and* per-edge inter-thread-flow probabilities
    /// (§6), counted as one graph in one batch like
    /// [`CoveragePredictor::predict_one`]. Only meaningful on models trained
    /// on flow examples ([`snowcat_nn::FlowLabeledGraph`]); the flow scores
    /// are aligned with `graph.edges` (0.0 on non-InterFlow edges). Runs the
    /// caching forward pass the flow head reads, so it bypasses the memo.
    pub fn predict_with_flows(&self, graph: &CtGraph) -> (PredictedCoverage, Vec<f32>) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inferences.fetch_add(1, Ordering::Relaxed);
        let model = self.deployed.model();
        let (probs, cache) = model.forward_cached(graph);
        let flows = model.forward_flows(graph, &cache);
        (self.deployed.coverage(graph, probs), flows)
    }
}

impl CoveragePredictor for Pic<'_> {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.inferences.fetch_add(graphs.len() as u64, Ordering::Relaxed);
        self.deployed.predict(graphs)
    }

    fn stats(&self) -> PredictorStats {
        PredictorStats::of_inference_counts(
            self.inferences.load(Ordering::Relaxed),
            self.batches.load(Ordering::Relaxed),
        )
    }

    fn fingerprint(&self) -> u64 {
        self.deployed.fingerprint()
    }

    fn name(&self) -> String {
        self.deployed.name().to_owned()
    }
}

/// Content fingerprint of a checkpoint, reported by
/// [`CoveragePredictor::fingerprint`]: two deployments of the same trained
/// model agree, different trainings (almost surely) differ. Hashes the
/// provenance name, the threshold, the model hyperparameters and a prefix of
/// the learned token embedding.
pub fn checkpoint_fingerprint(ck: &Checkpoint) -> u64 {
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, ck.name.as_bytes());
    h = fnv1a(h, &ck.threshold.to_bits().to_le_bytes());
    h = fnv1a(h, &(ck.cfg.hidden as u64).to_le_bytes());
    h = fnv1a(h, &(ck.cfg.layers as u64).to_le_bytes());
    let emb = &ck.params.tok_emb.data;
    h = fnv1a(h, &(emb.len() as u64).to_le_bytes());
    for v in emb.iter().take(256) {
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_corpus::StiFuzzer;
    use snowcat_kernel::{generate, GenConfig};
    use snowcat_nn::PicConfig;
    use snowcat_vm::propose_hints;

    #[test]
    fn predictor_produces_aligned_outputs() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 1);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg);
        let mut rng = rand::rngs::mock::StepRng::new(42, 77);
        let hints = propose_hints(&mut rng, corpus[0].seq.steps, corpus[1].seq.steps);
        let base = pic.base_graph(&corpus[0], &corpus[1]);
        let graph = pic.candidate_graph(&base, &corpus[0], &corpus[1], &hints);
        let pred = pic.predict_one(&graph);
        assert_eq!(pred.probs.len(), pred.graph.num_verts());
        assert_eq!(pred.positive.len(), pred.graph.num_verts());
        assert_eq!(pic.inferences(), 1);
        assert_eq!(pic.stats().inferences, 1);
        // positive_blocks consistent with positive flags.
        assert_eq!(pred.positive_blocks().len(), pred.positive.iter().filter(|&&p| p).count());
    }

    #[test]
    fn batch_prediction_matches_one_by_one() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 2);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg);
        let mut rng = rand::rngs::mock::StepRng::new(7, 3);
        let base = pic.base_graph(&corpus[2], &corpus[3]);
        let graphs: Vec<CtGraph> = (0..4)
            .map(|_| {
                let hints = propose_hints(&mut rng, corpus[2].seq.steps, corpus[3].seq.steps);
                pic.candidate_graph(&base, &corpus[2], &corpus[3], &hints)
            })
            .collect();
        let batch = pic.predict_batch(&graphs);
        assert_eq!(batch.len(), graphs.len());
        for (g, p) in graphs.iter().zip(&batch) {
            let one = pic.predict_one(g);
            assert_eq!(one.graph, p.graph);
            assert_eq!(one.probs, p.probs);
            assert_eq!(one.positive, p.positive);
        }
        assert_eq!(pic.inferences(), 8, "4 batched + 4 single");
    }

    /// Assert `pred` is exactly [`PicModel::forward`] on `graph` plus the
    /// threshold, probabilities compared bit for bit.
    fn assert_exact(pic: &Pic<'_>, graph: &CtGraph, pred: &PredictedCoverage) {
        let probs = pic.model().forward(graph);
        let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pred.probs), bits(&probs));
        let positive: Vec<bool> = probs.iter().map(|&p| p >= pic.threshold()).collect();
        assert_eq!(pred.positive, positive);
        assert_eq!(&pred.graph, graph);
    }

    #[test]
    fn memo_runs_one_forward_pass_per_distinct_graph() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 4);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg);
        let (a, b) = (&corpus[0], &corpus[1]);
        let base = pic.base_graph(a, b);
        let mut rng = rand::rngs::mock::StepRng::new(3, 29);
        let graphs: Vec<CtGraph> = (0..16)
            .map(|_| {
                pic.candidate_graph(&base, a, b, &propose_hints(&mut rng, a.seq.steps, b.seq.steps))
            })
            .collect();

        // First pass: a batch of 7, then one graph per call. Second pass:
        // the whole pool in one batch, every graph a memo hit.
        let mut preds = pic.predict_batch(&graphs[..7]);
        preds.extend(graphs[7..].iter().map(|g| pic.predict_one(g)));
        preds.extend(pic.predict_batch(&graphs));
        for (g, p) in graphs.iter().chain(&graphs).zip(&preds) {
            assert_exact(&pic, g, p);
        }

        let distinct: std::collections::HashSet<u64> =
            graphs.iter().map(graph_fingerprint).collect();
        assert_eq!(pic.forward_passes(), distinct.len() as u64);
        assert_eq!(pic.inferences(), 32, "the inference budget counts memo hits");
        assert_eq!(pic.stats().batches(), 11);
    }

    #[test]
    fn memo_stays_bounded_and_exact_across_a_clear() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 5);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg);

        // More distinct graphs than the memo holds, drawn across CTIs.
        let want = MEMO_CAP + 64;
        let mut seen = std::collections::HashSet::new();
        let mut graphs: Vec<CtGraph> = Vec::with_capacity(want);
        let mut rng = rand::rngs::mock::StepRng::new(17, 0x9E37_79B9);
        'pairs: for a in &corpus {
            for b in &corpus {
                let base = pic.base_graph(a, b);
                for _ in 0..32 {
                    let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
                    let g = pic.candidate_graph(&base, a, b, &hints);
                    if seen.insert(graph_fingerprint(&g)) {
                        graphs.push(g);
                        if graphs.len() == want {
                            break 'pairs;
                        }
                    }
                }
            }
        }
        assert_eq!(graphs.len(), want, "corpus yields enough distinct graphs");

        for chunk in graphs.chunks(64) {
            for (g, p) in chunk.iter().zip(pic.predict_batch(chunk)) {
                assert_exact(&pic, g, &p);
            }
            assert!(pic.deployed.memo.lock().len() <= MEMO_CAP);
        }
        assert_eq!(pic.forward_passes(), want as u64);
        assert_eq!(pic.deployed.memo.lock().len(), want - MEMO_CAP, "cleared once when full");

        // The first graphs went with the clear: predicting them again runs
        // the model again, with the same result.
        for (g, p) in graphs[..64].iter().zip(pic.predict_batch(&graphs[..64])) {
            assert_exact(&pic, g, &p);
        }
        assert_eq!(pic.forward_passes(), want as u64 + 64);
        assert_eq!(pic.inferences(), want as u64 + 64);
    }

    #[test]
    fn checkpoint_fingerprint_distinguishes_models() {
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let a = Checkpoint::new(&model, 0.5, "a");
        let b = Checkpoint::new(&model, 0.5, "b");
        let c = Checkpoint::new(&model, 0.25, "a");
        assert_eq!(checkpoint_fingerprint(&a), checkpoint_fingerprint(&a));
        assert_ne!(checkpoint_fingerprint(&a), checkpoint_fingerprint(&b));
        assert_ne!(checkpoint_fingerprint(&a), checkpoint_fingerprint(&c));
    }
}
