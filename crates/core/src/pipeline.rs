//! End-to-end pipeline: kernel → corpus → datasets → pre-train → train →
//! tune → deployable checkpoint. This is the "240 hours of data collection
//! and training" step of the paper, scaled to minutes.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use snowcat_cfg::KernelCfg;
use snowcat_corpus::{build_dataset, make_splits, Dataset, DatasetConfig, StiFuzzer, StiProfile};
use snowcat_graph::GraphStats;
use snowcat_kernel::{asm, Kernel};
use snowcat_nn::{
    evaluate, flow_average_precision, pretrain, train, tune_threshold_f2_pooled,
    urb_average_precision, Checkpoint, LabeledGraph, MeanMetrics, PicConfig, PicModel,
    PretrainConfig, TrainConfig, TrainExample,
};

/// Pipeline configuration (scaled-down analogue of §5.1.1).
///
/// Construct with [`PipelineConfig::default`] and refine with the `with_*`
/// builders; the struct is `#[non_exhaustive]` so fields can be added
/// without breaking downstream crates.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct PipelineConfig {
    /// Fuzzing iterations for the STI corpus.
    pub fuzz_iterations: usize,
    /// Total CTIs drawn (split ≈48/6/46 into train/valid/eval).
    pub n_ctis: usize,
    /// Interleavings per training/validation CTI (paper: 64).
    pub train_interleavings: usize,
    /// Interleavings per evaluation CTI (paper: 1000).
    pub eval_interleavings: usize,
    /// Model hyperparameters.
    pub model: PicConfig,
    /// Training schedule.
    pub train: TrainConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            fuzz_iterations: 60,
            n_ctis: 40,
            train_interleavings: 8,
            eval_interleavings: 16,
            model: PicConfig::default(),
            train: TrainConfig::default(),
            seed: 0x517E,
        }
    }
}

impl PipelineConfig {
    /// Set the STI-corpus fuzzing iterations.
    pub fn with_fuzz_iterations(mut self, fuzz_iterations: usize) -> Self {
        self.fuzz_iterations = fuzz_iterations;
        self
    }

    /// Set the number of CTIs drawn.
    pub fn with_n_ctis(mut self, n_ctis: usize) -> Self {
        self.n_ctis = n_ctis;
        self
    }

    /// Set the interleavings per training/validation CTI.
    pub fn with_train_interleavings(mut self, train_interleavings: usize) -> Self {
        self.train_interleavings = train_interleavings;
        self
    }

    /// Set the interleavings per evaluation CTI.
    pub fn with_eval_interleavings(mut self, eval_interleavings: usize) -> Self {
        self.eval_interleavings = eval_interleavings;
        self
    }

    /// Set the model hyperparameters.
    pub fn with_model(mut self, model: PicConfig) -> Self {
        self.model = model;
        self
    }

    /// Set the training schedule.
    pub fn with_train(mut self, train: TrainConfig) -> Self {
        self.train = train;
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything the pipeline produces.
pub struct PipelineOutput {
    /// The STI corpus with sequential profiles.
    pub corpus: Vec<StiProfile>,
    /// Labelled datasets.
    pub train_set: Dataset,
    /// Validation set (threshold/model selection).
    pub valid_set: Dataset,
    /// Evaluation set.
    pub eval_set: Dataset,
    /// The trained, threshold-tuned model.
    pub checkpoint: Checkpoint,
    /// Summary numbers.
    pub summary: PipelineSummary,
}

/// Reportable summary of a pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineSummary {
    /// Kernel version trained on.
    pub kernel_version: String,
    /// Corpus size.
    pub corpus_size: usize,
    /// Example counts (train/valid/eval).
    pub examples: (usize, usize, usize),
    /// Aggregate train-set graph stats.
    pub train_stats: GraphStats,
    /// URB positive base rate in the training set.
    pub urb_base_rate: f64,
    /// Final validation URB average precision.
    pub val_urb_ap: f64,
    /// Tuned threshold.
    pub threshold: f32,
    /// Masked-token pre-training accuracy.
    pub pretrain_accuracy: f64,
    /// Wall-clock training seconds.
    pub train_seconds: f64,
    /// Evaluation-set URB metrics at the tuned threshold.
    pub eval_urb: MeanMetrics,
}

/// Borrow a dataset as (graph, labels) pairs.
pub fn as_labeled(ds: &Dataset) -> Vec<LabeledGraph<'_>> {
    ds.examples.iter().map(|e| (&e.graph, e.labels.as_slice())).collect()
}

/// Borrow a dataset as (graph, labels, flow labels) triples for joint
/// coverage + flow training.
pub fn as_flow_labeled(ds: &Dataset) -> Vec<snowcat_nn::FlowLabeledGraph<'_>> {
    ds.examples.iter().map(|e| (&e.graph, e.labels.as_slice(), e.flow_labels.as_slice())).collect()
}

/// Like [`train_on`], but jointly trains the inter-thread-flow head
/// (`PicModel::backward_with_flows`). Returns the checkpoint, the summary,
/// and the flow head's average precision on the evaluation split.
pub fn train_on_with_flows(
    kernel: &Kernel,
    data: &CollectedData,
    model_cfg: PicConfig,
    train_cfg: TrainConfig,
    seed: u64,
    name: &str,
) -> (Checkpoint, PipelineSummary, f64) {
    let train_refs = as_flow_labeled(&data.train_set);
    let (checkpoint, summary) =
        train_examples(kernel, data, model_cfg, train_cfg, seed, name, &train_refs);
    let flow_ap = flow_average_precision(&checkpoint.restore(), &as_flow_labeled(&data.eval_set));
    (checkpoint, summary, flow_ap)
}

/// Collected data, reusable across model/hyperparameter variants.
pub struct CollectedData {
    /// STI corpus with sequential profiles.
    pub corpus: Vec<StiProfile>,
    /// Training dataset.
    pub train_set: Dataset,
    /// Validation dataset.
    pub valid_set: Dataset,
    /// Evaluation dataset.
    pub eval_set: Dataset,
}

/// Stage 1–2 of the pipeline: fuzz the STI corpus and collect the labelled
/// graph datasets (the SKI data-collection role). Separated from training so
/// hyperparameter sweeps and fine-tuning variants can reuse one collection.
pub fn collect_data(kernel: &Kernel, cfg: &KernelCfg, pcfg: &PipelineConfig) -> CollectedData {
    // STI corpus (Syzkaller role). Seed every syscall, fuzz for coverage,
    // then top up with unconditioned random STIs so CTI pairing draws from a
    // diverse pool (the paper pairs *random* STIs).
    let mut fz = StiFuzzer::new(kernel, pcfg.seed);
    fz.seed_each_syscall();
    fz.fuzz(pcfg.fuzz_iterations);
    fz.push_random(pcfg.fuzz_iterations / 2);
    let corpus = fz.into_corpus();

    let mut rng = ChaCha8Rng::seed_from_u64(pcfg.seed ^ 0xC71);
    let splits = make_splits(&mut rng, &corpus, pcfg.n_ctis);
    let dc_train =
        DatasetConfig { interleavings_per_cti: pcfg.train_interleavings, seed: pcfg.seed ^ 0x1 };
    let dc_eval =
        DatasetConfig { interleavings_per_cti: pcfg.eval_interleavings, seed: pcfg.seed ^ 0x2 };
    let train_set = build_dataset(kernel, cfg, &corpus, &splits.train, dc_train);
    let valid_set = build_dataset(kernel, cfg, &corpus, &splits.valid, dc_train);
    let eval_set = build_dataset(kernel, cfg, &corpus, &splits.eval, dc_eval);
    CollectedData { corpus, train_set, valid_set, eval_set }
}

/// Pre-train the assembly encoder on the whole kernel image (the
/// RoBERTa-pre-training role; done once per architecture dimension).
pub fn pretrain_encoder(
    kernel: &Kernel,
    model: &PicConfig,
    seed: u64,
) -> snowcat_nn::PretrainReport {
    let sequences: Vec<Vec<u32>> = kernel
        .blocks
        .iter()
        .map(|b| {
            asm::tokenize_block(kernel, b)
                .iter()
                .map(|t| snowcat_graph::repr::hash_token(t))
                .collect()
        })
        .collect();
    pretrain(
        &sequences,
        PretrainConfig {
            dim: model.hidden,
            vocab: model.vocab,
            seed: seed ^ 0xBE27,
            ..Default::default()
        },
    )
}

/// Stage 3–5: pre-train encoder, train the GNN, tune the threshold.
pub fn train_on(
    kernel: &Kernel,
    data: &CollectedData,
    model_cfg: PicConfig,
    train_cfg: TrainConfig,
    seed: u64,
    name: &str,
) -> (Checkpoint, PipelineSummary) {
    let train_refs = as_labeled(&data.train_set);
    train_examples(kernel, data, model_cfg, train_cfg, seed, name, &train_refs)
}

/// Stage 3–5 on either task's training examples (the example type selects
/// coverage-only or joint coverage + flow training).
fn train_examples<T: TrainExample>(
    kernel: &Kernel,
    data: &CollectedData,
    model_cfg: PicConfig,
    train_cfg: TrainConfig,
    seed: u64,
    name: &str,
    train_refs: &[T],
) -> (Checkpoint, PipelineSummary) {
    let pre = pretrain_encoder(kernel, &model_cfg, seed);
    let mut model = PicModel::new(model_cfg);
    model.params.tok_emb = pre.tok_emb.clone();
    let valid_refs = as_labeled(&data.valid_set);
    let train_seconds = train(&mut model, train_refs, &valid_refs, train_cfg, None, &mut ())
        .unwrap_or_else(|e| panic!("{e}"))
        .train_seconds;
    let threshold = tune_threshold_f2_pooled(&model, &valid_refs);
    let checkpoint = Checkpoint::new(&model, threshold, name);
    let eval_refs = as_labeled(&data.eval_set);
    let summary = PipelineSummary {
        kernel_version: kernel.version.clone(),
        corpus_size: data.corpus.len(),
        examples: (data.train_set.len(), data.valid_set.len(), data.eval_set.len()),
        train_stats: data.train_set.stats(),
        urb_base_rate: data.train_set.urb_positive_rate(),
        val_urb_ap: urb_average_precision(&model, &valid_refs),
        threshold,
        pretrain_accuracy: pre.accuracy,
        train_seconds,
        eval_urb: evaluate(&model, &eval_refs, threshold, true),
    };
    (checkpoint, summary)
}

/// Run the full pipeline on a kernel: fuzz, collect, pre-train, train, tune.
///
/// `name` tags the resulting checkpoint (e.g. `"PIC-5"`).
pub fn train_pic(
    kernel: &Kernel,
    cfg: &KernelCfg,
    pcfg: &PipelineConfig,
    name: &str,
) -> PipelineOutput {
    let data = collect_data(kernel, cfg, pcfg);
    let (checkpoint, summary) = train_on(kernel, &data, pcfg.model, pcfg.train, pcfg.seed, name);
    let CollectedData { corpus, train_set, valid_set, eval_set } = data;
    PipelineOutput { corpus, train_set, valid_set, eval_set, checkpoint, summary }
}

/// Fine-tune an existing checkpoint on a (usually smaller) dataset from a
/// new kernel version (§5.4's `PIC-6.ft.*` variants). Uses a reduced
/// learning rate and keeps the old threshold unless re-tuned.
pub fn fine_tune(
    base: &Checkpoint,
    train_set: &Dataset,
    valid_set: &Dataset,
    epochs: usize,
    name: &str,
) -> (Checkpoint, f64) {
    let mut model = base.restore();
    let train_refs = as_labeled(train_set);
    let valid_refs = as_labeled(valid_set);
    let cfg = TrainConfig { epochs, lr: 1e-3, ..Default::default() };
    train(&mut model, &train_refs, &valid_refs, cfg, None, &mut ())
        .unwrap_or_else(|e| panic!("{e}"));
    let threshold = if valid_refs.is_empty() {
        base.threshold
    } else {
        tune_threshold_f2_pooled(&model, &valid_refs)
    };
    let ap = urb_average_precision(&model, &valid_refs);
    (Checkpoint::new(&model, threshold, name), ap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_kernel::{generate, GenConfig};

    fn small_pipeline() -> PipelineConfig {
        PipelineConfig {
            fuzz_iterations: 10,
            n_ctis: 8,
            train_interleavings: 3,
            eval_interleavings: 4,
            model: PicConfig { hidden: 8, layers: 1, ..Default::default() },
            train: TrainConfig { epochs: 1, ..Default::default() },
            seed: 7,
        }
    }

    #[test]
    fn pipeline_produces_consistent_output() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let out = train_pic(&k, &cfg, &small_pipeline(), "PIC-test");
        assert!(!out.corpus.is_empty());
        assert!(!out.train_set.is_empty());
        assert!(!out.eval_set.is_empty());
        assert_eq!(out.checkpoint.name, "PIC-test");
        assert!((0.05..=0.95).contains(&out.summary.threshold));
        assert!(out.summary.urb_base_rate < 0.9);
        assert_eq!(out.summary.kernel_version, "5.12");
    }

    #[test]
    fn fine_tune_preserves_architecture() {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let out = train_pic(&k, &cfg, &small_pipeline(), "PIC-base");
        let (ft, _ap) = fine_tune(&out.checkpoint, &out.train_set, &out.valid_set, 1, "PIC-ft");
        assert_eq!(ft.cfg, out.checkpoint.cfg);
        assert_eq!(ft.name, "PIC-ft");
    }
}
