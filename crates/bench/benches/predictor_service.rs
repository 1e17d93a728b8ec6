//! Microbenchmark: the predictor service — serial vs parallel batched
//! inference over a 64-candidate pool, and the deployed model's memo on a
//! repeated-CTI stream.
//!
//! The parallel/serial pair quantifies the ParallelPredictor speedup (the
//! wrapper is bit-identical to serial inference, so any gap is pure win);
//! each of their iterations deploys a fresh `Pic`, whose memo would
//! otherwise answer every repeat of the pool. The warm row shows what the
//! memo buys when the exploration loop re-proposes schedules it has
//! already scored. Forward passes and inferences are printed alongside the
//! timings.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_core::{CoveragePredictor, ParallelPredictor, Pic};
use snowcat_corpus::StiFuzzer;
use snowcat_graph::CtGraph;
use snowcat_kernel::{generate, GenConfig};
use snowcat_nn::{Checkpoint, PicConfig, PicModel};
use snowcat_vm::propose_hints;

fn bench_service(c: &mut Criterion) {
    let kernel = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&kernel);
    let mut fz = StiFuzzer::new(&kernel, 1);
    fz.seed_each_syscall();
    fz.push_random(10);
    let corpus = fz.into_corpus();
    let a = &corpus[corpus.len() - 1];
    let b = &corpus[corpus.len() - 2];

    let model = PicModel::new(PicConfig::default());
    let checkpoint = Checkpoint::new(&model, 0.5, "bench");
    let pic = Pic::new(&checkpoint, &kernel, &cfg);

    // A 64-candidate pool: one base graph, 64 random schedule overlays —
    // the shape of one MLPCT selection round.
    let base = pic.base_graph(a, b);
    let mut rng = ChaCha8Rng::seed_from_u64(64);
    let pool: Vec<CtGraph> = (0..64)
        .map(|_| {
            let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
            pic.candidate_graph(&base, a, b, &hints)
        })
        .collect();

    let fresh = || Pic::new(&checkpoint, &kernel, &cfg);
    c.bench_function("predict_batch_64_serial", |bch| bch.iter(|| fresh().predict_batch(&pool)));

    // At least two workers so the scoped pool + work stealing is always the
    // measured path (on a single-core host this shows the coordination
    // overhead; on multi-core hosts, the speedup).
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(2, 8);
    c.bench_function(&format!("predict_batch_64_parallel_x{workers}"), |bch| {
        bch.iter(|| ParallelPredictor::new(fresh(), workers).predict_batch(&pool))
    });

    // Repeated-CTI stream: the same 64 candidates replayed each iteration.
    // After the first (cold) batch every request is a memo hit, so the
    // steady-state timing measures lookup, not inference.
    pic.predict_batch(&pool); // warm
    c.bench_function("predict_batch_64_memo_warm", |bch| bch.iter(|| pic.predict_batch(&pool)));

    println!(
        "\nmemo [{}]: {} forward passes for {} inferences over the warm stream",
        pic.name(),
        pic.forward_passes(),
        pic.inferences()
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_service
}
criterion_main!(benches);
