//! # snowcat-nn — the learned coverage predictor, from scratch
//!
//! A small, dependency-free (beyond `rand`/`serde`) neural stack implementing
//! the paper's PIC model family:
//!
//! * [`tensor`] — dense `f32` matrices with register-tiled, autovectorizer-
//!   friendly kernels, fused ops, a documented summation-order contract,
//!   `naive_*` reference kernels, and the [`tensor::Scratch`] arena for
//!   allocation-free steady-state compute,
//! * [`optim`] — Adam with global-norm clipping,
//! * [`asmenc`] — masked-token pre-training for the assembly encoder (the
//!   RoBERTa substitute; see DESIGN.md for the substitution argument),
//! * [`model`] — the relational message-passing GNN with per-edge-type
//!   weights, residual layers, a per-vertex sigmoid head, hand-derived
//!   backward passes (validated by finite-difference tests), CSR-based
//!   message passing and the [`model::PicSession`] zero-allocation
//!   inference path,
//! * [`metrics`] — precision/recall/F1/F2/accuracy/balanced-accuracy/AP,
//! * [`train`] — the one data-parallel epoch loop (bit-identical across
//!   thread counts) with best-validation-AP checkpointing, resumable from a
//!   [`train::TrainState`] and supervised through a [`train::TrainHook`]
//!   (rollback and salted retry, NaN/Inf step guards, fault injection),
//!   plus F2-based threshold tuning, evaluation helpers and panic-contained
//!   workers,
//! * [`binser`] — bit-exact little-endian binary serialization for model
//!   and optimizer state (IEEE bit patterns, no decimal round-trip).
//!
//! The crate denies `unsafe_code` with one exception: the call of the AVX2
//! copy of [`model::PicModel::forward_into`], made only after run-time CPU
//! detection. Both copies compile from one body and give the same bits (see
//! the "Vector width" section of [`tensor`]); `tests/unsafe_exception.rs`
//! keeps that call the only `unsafe` in the crate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod asmenc;
pub mod binser;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod tensor;
pub mod train;

pub use asmenc::{pretrain, PretrainConfig, PretrainReport};
pub use binser::{decode_model_checkpoint, encode_model_checkpoint, BinError, Dec, Enc};
pub use metrics::{average_precision, Confusion, MeanMetrics, PerGraphAverager};
pub use model::{BaselinePredictor, PicConfig, PicModel, PicParams, PicSession};
pub use optim::{Adam, AdamConfig, AdamSnapshot};
pub use tensor::{Mat, Scratch};
pub use train::{
    dataset_fingerprint, evaluate, evaluate_pooled, evaluate_predictions_pooled,
    flow_average_precision, train, tune_threshold_f2, tune_threshold_f2_pooled,
    urb_average_precision, Checkpoint, EpochError, EpochFault, EpochOutcome, FlowLabeledGraph,
    LabeledGraph, Next, TrainConfig, TrainExample, TrainHook, TrainReport, TrainState, Verdict,
};
