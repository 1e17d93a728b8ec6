//! # Snowcat — efficient kernel concurrency testing using a learned coverage predictor
//!
//! A from-scratch Rust reproduction of *Snowcat* (SOSP 2023): a kernel
//! concurrency-testing framework that predicts, with a graph neural network,
//! which kernel basic blocks a concurrent test (two sequential test inputs
//! plus scheduling hints) will cover — and uses those predictions to skip
//! fruitless dynamic executions.
//!
//! Because the paper's substrate (Linux inside a modified QEMU, Syzkaller,
//! Angr, PyTorch-Geometric) is not reproducible on a laptop, every layer is
//! rebuilt here on a *synthetic kernel* with genuinely interleaving-dependent
//! behaviour and planted concurrency bugs; see `DESIGN.md` for the
//! substitution table and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |---|---|
//! | [`kernel`] | synthetic kernel: IR, generator, versions, planted bugs |
//! | [`vm`] | SKI-style uniprocessor VM with scheduling hints and PCT |
//! | [`cfg`] | whole-kernel CFG, uncovered-reachable-block identification |
//! | [`race`] | potential-data-race detection and deduplication |
//! | [`analysis`] | must-hold locksets, lock-discipline lints, static may-race |
//! | [`corpus`] | STI fuzzing, CTI pairing, labelled graph datasets |
//! | [`graph`] | the CT graph representation (5 edge types + shortcuts) |
//! | [`nn`] | tensors, Adam, masked pre-training, relational GNN, metrics |
//! | [`core`] | PIC predictor, strategies S1–S3, MLPCT, Razzer-PIC, SB-PIC |
//! | [`harness`] | the campaign loop: supervision, checkpoints, fleet |
//!
//! ## Quickstart
//!
//! ```
//! use snowcat::prelude::*;
//!
//! // Build the synthetic "Linux 5.12" and its static CFG.
//! let kernel = KernelVersion::V5_12.spec(42).build();
//! let cfg = KernelCfg::build(&kernel);
//!
//! // Fuzz a small corpus of sequential test inputs.
//! let mut fuzzer = StiFuzzer::new(&kernel, 7);
//! fuzzer.seed_each_syscall();
//! let corpus = fuzzer.into_corpus();
//!
//! // Run one concurrent test under an explicit 2-switch schedule.
//! let cti = Cti::new(corpus[0].sti.clone(), corpus[1].sti.clone());
//! let hints = ScheduleHints {
//!     first: ThreadId(0),
//!     switches: vec![
//!         SwitchPoint { thread: ThreadId(0), after: 5 },
//!         SwitchPoint { thread: ThreadId(1), after: 5 },
//!     ],
//! };
//! let result = run_ct(&kernel, &cti, hints, VmConfig::default());
//! assert!(result.coverage.count() > 0);
//! ```

#![forbid(unsafe_code)]

pub use snowcat_analysis as analysis;
pub use snowcat_cfg as cfg;
pub use snowcat_core as core;
pub use snowcat_corpus as corpus;
pub use snowcat_graph as graph;
pub use snowcat_harness as harness;
pub use snowcat_kernel as kernel;
pub use snowcat_nn as nn;
pub use snowcat_race as race;
pub use snowcat_vm as vm;

/// The most commonly used items across the workspace, in one import.
pub mod prelude {
    pub use snowcat_analysis::{analyze, Allowlist, MayRace, StaticFinding};
    pub use snowcat_cfg::KernelCfg;
    pub use snowcat_core::{
        explore_mlpct, explore_pct, fine_tune, train_pic, CostModel, CoveragePredictor,
        ExploreConfig, Explorer, ParallelPredictor, Pic, PipelineConfig, PredictorService,
        RazzerMode, S1NewBitmap, S2NewBlocks, S3LimitedTrials, Sampler, SelectionStrategy,
        SnowcatError,
    };
    pub use snowcat_corpus::{
        build_dataset, make_splits, random_cti_pairs, Dataset, DatasetConfig, StiFuzzer, StiProfile,
    };
    pub use snowcat_graph::{CtGraph, CtGraphBuilder, EdgeKind, VertKind};
    pub use snowcat_harness::{run_supervised_campaign, SupervisorConfig};
    pub use snowcat_kernel::{
        generate, BugKind, GenConfig, Kernel, KernelVersion, SyscallId, ThreadId,
    };
    pub use snowcat_nn::{Checkpoint, PicConfig, PicModel, TrainConfig};
    pub use snowcat_race::{match_planted_bug, RaceDetector, RaceSet};
    pub use snowcat_vm::{
        propose_hints, run_ct, run_sequential, Cti, ScheduleHints, Sti, SwitchPoint,
        SyscallInvocation, VmConfig,
    };
}
