//! Microbenchmark: the robust training pipeline's overhead.
//!
//! The supervised trainer promises "robustness costs nothing on the happy
//! path": the NaN/Inf guards run every step, and epoch checkpoints are
//! written atomically with `.prev` rotation. This bench quantifies both
//! against the same `snowcat_nn::train` loop run plain (`&mut ()`: no
//! guards, no checkpoints) and writes
//! `results/BENCH_train.json` with the steady-state epoch time, the
//! checkpoint write cost, and the end-to-end checkpoint overhead as a
//! percentage of epoch time (acceptance: < 5%).
//!
//! Pass `--quick` for a CI-sized smoke run.

use criterion::{black_box, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_corpus::{build_dataset, interacting_cti_pairs, Dataset, DatasetConfig, StiFuzzer};
use snowcat_harness::{
    encode_train_checkpoint, load_train_checkpoint_with_fallback, robust_train,
    save_train_checkpoint_atomic, RobustTrainConfig,
};
use snowcat_kernel::{generate, GenConfig};
use snowcat_nn::{train, LabeledGraph, PicConfig, PicModel, TrainConfig};
use std::time::{Duration, Instant};

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn build_data(n_ctis: usize, interleavings: usize) -> Dataset {
    let k = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&k);
    let mut fz = StiFuzzer::new(&k, 21);
    fz.seed_each_syscall();
    let corpus = fz.into_corpus();
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let ctis = interacting_cti_pairs(&mut rng, &corpus, n_ctis);
    build_dataset(
        &k,
        &cfg,
        &corpus,
        &ctis,
        DatasetConfig { interleavings_per_cti: interleavings, seed: 29 },
    )
}

fn as_refs(ds: &Dataset) -> Vec<LabeledGraph<'_>> {
    ds.examples.iter().map(|e| (&e.graph, e.labels.as_slice())).collect()
}

/// Mean seconds per call of `f` over `reps` calls (after one warmup).
fn time_s(mut f: impl FnMut(), reps: u32) -> f64 {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / f64::from(reps)
}

#[derive(serde::Serialize)]
struct Report {
    quick: bool,
    train_graphs: usize,
    epochs: usize,
    plain_epoch_ms: f64,
    guarded_epoch_ms: f64,
    guard_overhead_pct: f64,
    checkpointed_epoch_ms: f64,
    checkpoint_overhead_pct: f64,
    checkpoint_encode_ms: f64,
    checkpoint_write_ms: f64,
    checkpoint_bytes: usize,
    resume_load_ms: f64,
}

fn main() {
    let mut c = if quick() {
        Criterion::default()
            .sample_size(2)
            .measurement_time(Duration::from_millis(40))
            .warm_up_time(Duration::from_millis(10))
    } else {
        Criterion::default()
            .sample_size(10)
            .measurement_time(Duration::from_secs(2))
            .warm_up_time(Duration::from_millis(300))
    };

    // The dataset must be large enough that an epoch dwarfs a checkpoint
    // write — a 16-graph toy epoch would make the fixed-size model state
    // look expensive when in any real run it is noise (the paper trains on
    // ~1M graphs per epoch).
    // Enough epochs that the one-time final (complete) checkpoint rewrite
    // amortizes into the per-epoch steady state.
    let (n_ctis, interleavings, epochs, reps) =
        if quick() { (300, 4, 5usize, 3u32) } else { (400, 6, 8usize, 4u32) };
    let ds = build_data(n_ctis, interleavings);
    let refs = as_refs(&ds);
    let pic_cfg = PicConfig { hidden: 32, layers: 2, ..Default::default() };
    let schedule = TrainConfig { epochs, batch: 4, seed: 31, threads: 1, ..Default::default() };

    let dir = std::env::temp_dir().join("snowcat-bench-train");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("train.stcp");

    // Baseline: the plain loop (no guards, no checkpoints).
    let plain_s = time_s(
        || {
            let mut m = PicModel::new(pic_cfg);
            black_box(train(&mut m, &refs, &[], schedule, None, &mut ()).unwrap());
        },
        reps,
    );

    // The guards must *run* (that is the cost being measured) but must not
    // *trip*: a rolled-back and retried epoch would corrupt the timing.
    let supervised = |cfg: &RobustTrainConfig| {
        let mut m = PicModel::new(pic_cfg);
        let report = robust_train(&mut m, &refs, &[], cfg, false).unwrap();
        assert!(report.anomalies.is_empty(), "a guard tripped: {:?}", report.anomalies);
        black_box(report);
    };

    // Guards on, checkpoints off — the anomaly-sentinel overhead.
    let guarded_s = time_s(|| supervised(&RobustTrainConfig::new(schedule)), reps);

    // Guards on, checkpoint every epoch — the full supervised path.
    let mut checkpointed = RobustTrainConfig::new(schedule);
    checkpointed.checkpoint_path = Some(ckpt.clone());
    let checkpointed_s = time_s(|| supervised(&checkpointed), reps);

    // Isolate the checkpoint codec and the atomic write.
    let (train_ck, _) = load_train_checkpoint_with_fallback(&ckpt).unwrap();
    let bytes = encode_train_checkpoint(&train_ck);
    let encode_s = time_s(|| drop(black_box(encode_train_checkpoint(&train_ck))), reps * 4);
    let write_s = time_s(|| save_train_checkpoint_atomic(&ckpt, &train_ck).unwrap(), reps * 4);
    let load_s =
        time_s(|| drop(black_box(load_train_checkpoint_with_fallback(&ckpt).unwrap())), reps * 4);

    c.bench_function("train_checkpoint_encode", |b| {
        b.iter(|| black_box(encode_train_checkpoint(&train_ck)))
    });

    let per_epoch = |total_s: f64| total_s / epochs as f64 * 1e3;
    let report = Report {
        quick: quick(),
        train_graphs: refs.len(),
        epochs,
        plain_epoch_ms: per_epoch(plain_s),
        guarded_epoch_ms: per_epoch(guarded_s),
        guard_overhead_pct: (guarded_s / plain_s - 1.0) * 100.0,
        checkpointed_epoch_ms: per_epoch(checkpointed_s),
        checkpoint_overhead_pct: (checkpointed_s / guarded_s - 1.0) * 100.0,
        checkpoint_encode_ms: encode_s * 1e3,
        checkpoint_write_ms: write_s * 1e3,
        checkpoint_bytes: bytes.len(),
        resume_load_ms: load_s * 1e3,
    };
    println!(
        "epochs over {} graphs: plain {:.2} ms, guarded {:.2} ms ({:+.2}%), \
         checkpointed {:.2} ms ({:+.2}% over guarded)",
        report.train_graphs,
        report.plain_epoch_ms,
        report.guarded_epoch_ms,
        report.guard_overhead_pct,
        report.checkpointed_epoch_ms,
        report.checkpoint_overhead_pct,
    );
    println!(
        "checkpoint: {} bytes, encode {:.3} ms, atomic write {:.3} ms, resume load {:.3} ms",
        report.checkpoint_bytes,
        report.checkpoint_encode_ms,
        report.checkpoint_write_ms,
        report.resume_load_ms,
    );
    snowcat_bench::save_json("BENCH_train", &report);
}
