//! Microbenchmark: the micro-batching inference server vs direct inference.
//!
//! The serving layer promises "batching for free": when requests arrive
//! fast enough to fill `max_batch`-sized flushes, the served path must
//! deliver at least 0.9x the throughput of calling `Pic::predict_batch`
//! directly, with tail latency under the configured SLO — the queue, the
//! condvar hand-off, and the result split are all the server is allowed to
//! spend. This bench measures both paths over the same candidate graphs,
//! times the atomic hot-swap (ungated, and gated through an AP validation
//! pass), and writes `results/BENCH_serving.json`.
//!
//! Both paths memoize predictions per deployed model, so every timed
//! repetition starts from a fresh `Pic` and a fresh server: the best-of
//! timings measure inference, not memo hits.
//!
//! Pass `--quick` for a CI-sized smoke run.

use criterion::{black_box, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_core::{CoveragePredictor, Pic};
use snowcat_corpus::StiFuzzer;
use snowcat_graph::CtGraph;
use snowcat_kernel::{generate, GenConfig};
use snowcat_nn::{Checkpoint, PicConfig, PicModel};
use snowcat_serve::{ApGate, InferenceServer, ServeConfig, SwapOutcome};
use snowcat_vm::propose_hints;
use std::time::{Duration, Instant};

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[derive(serde::Serialize)]
struct Report {
    quick: bool,
    requests: usize,
    request_size: usize,
    clients: usize,
    max_batch: usize,
    max_wait_us: u64,
    direct_graphs_per_s: f64,
    served_graphs_per_s: f64,
    served_over_direct: f64,
    batch_fill_pct: f64,
    p50_us: u64,
    p99_us: u64,
    slo_p99_us: u64,
    swap_us: f64,
    gated_swap_us: f64,
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

    let (n_requests, request_size, clients, reps) =
        if quick() { (16usize, 16usize, 2usize, 2u32) } else { (96, 16, 8, 5u32) };
    // Requests are half a batch: a full flush coalesces two callers, so the
    // bench exercises real micro-batching rather than one-request flushes.
    let max_batch = 2 * request_size;
    let max_wait_us = 200u64;
    let slo_p99_us = 50_000u64;

    let k = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&k);
    let mut fz = StiFuzzer::new(&k, 0xBE4C);
    fz.seed_each_syscall();
    let corpus = fz.into_corpus();
    // The production model shape (PicConfig::default): the 0.9x acceptance
    // bound is about the queue overhead relative to real inference cost,
    // not a toy model where a condvar round-trip rivals the forward pass.
    let model = PicModel::new(PicConfig::default());
    let ck = Checkpoint::new(&model, 0.5, "bench");
    let pic = Pic::new(&ck, &k, &cfg);

    // A fixed pool of candidate graphs, grouped into half-batch requests.
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E2E_BE4C);
    let requests: Vec<Vec<CtGraph>> = (0..n_requests)
        .map(|_| {
            let a = &corpus[rng.gen_range(0..corpus.len())];
            let b = &corpus[rng.gen_range(0..corpus.len())];
            let base = pic.base_graph(a, b);
            (0..request_size)
                .map(|_| {
                    let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
                    pic.candidate_graph(&base, a, b, &hints)
                })
                .collect()
        })
        .collect();
    let total_graphs: usize = requests.iter().map(Vec::len).sum();

    // Direct baseline: the same requests through Pic::predict_batch, no
    // queue in the way. Best-of-reps to shed background noise.
    let mut direct_s = f64::INFINITY;
    for _ in 0..=reps {
        let fresh = Pic::new(&ck, &k, &cfg);
        let t0 = Instant::now();
        for req in &requests {
            black_box(fresh.predict_batch(req));
        }
        direct_s = direct_s.min(t0.elapsed().as_secs_f64());
    }

    // Served: `clients` threads striping the same requests through a
    // server. With enough callers in flight the queue keeps whole
    // multiples of `max_batch` pending, so every flush coalesces two
    // requests and leaves full — the regime the 0.9x acceptance bound
    // targets. The serving counters come from the fastest repetition.
    let serve_cfg = ServeConfig { max_batch, max_wait_us, slo_p99_us, ..ServeConfig::default() };
    let mut served_s = f64::INFINITY;
    let mut sreport = None;
    for _ in 0..=reps {
        let mut server = InferenceServer::start(&ck, serve_cfg.clone(), None);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let h = server.handle();
                let reqs = &requests;
                s.spawn(move || {
                    for req in reqs.iter().skip(c).step_by(clients) {
                        black_box(h.predict_batch(req));
                    }
                });
            }
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let report = server.shutdown();
        if elapsed < served_s {
            served_s = elapsed;
            sreport = Some(report);
        }
    }
    let sreport = sreport.expect("at least one served repetition");

    // Swap latency: ungated (pure arc-swap install), then gated through an
    // AP validation pass over one request's graphs. Swapping the incumbent
    // checkpoint back in keeps validation AP identical, so the gated swap
    // always installs and the timing covers the full accept path.
    let mut server = InferenceServer::start(&ck, serve_cfg, None);
    let renamed = Checkpoint::new(&ck.restore(), ck.threshold, "bench-swap");
    let swap_reps = u64::from(reps).max(2);
    let t0 = Instant::now();
    for _ in 0..swap_reps {
        assert!(matches!(
            server.try_swap(&renamed, &ApGate::disabled()),
            SwapOutcome::Installed { .. }
        ));
    }
    let swap_us = t0.elapsed().as_secs_f64() * 1e6 / swap_reps as f64;

    let valid: Vec<(CtGraph, Vec<bool>)> = requests[0]
        .iter()
        .map(|g| (g.clone(), (0..g.num_verts()).map(|i| i % 3 == 0).collect()))
        .collect();
    let gate = ApGate::new(valid, 0.01);
    let t0 = Instant::now();
    for _ in 0..swap_reps {
        assert!(matches!(server.try_swap(&renamed, &gate), SwapOutcome::Installed { .. }));
    }
    let gated_swap_us = t0.elapsed().as_secs_f64() * 1e6 / swap_reps as f64;

    // After its first iteration every graph is a memo hit, so this row
    // times one caller's round trip through the queue (hand-off, deadline
    // wait, result split), not inference.
    c.bench_function("served_half_batch_request_warm", |b| {
        let h = server.handle();
        b.iter(|| black_box(h.predict_batch(&requests[0])))
    });

    server.shutdown();
    let report = Report {
        quick: quick(),
        requests: n_requests,
        request_size,
        clients,
        max_batch,
        max_wait_us,
        direct_graphs_per_s: total_graphs as f64 / direct_s,
        served_graphs_per_s: total_graphs as f64 / served_s,
        served_over_direct: direct_s / served_s,
        batch_fill_pct: sreport.batch_fill * 100.0,
        p50_us: sreport.p50_us,
        p99_us: sreport.p99_us,
        slo_p99_us,
        swap_us,
        gated_swap_us,
    };
    println!(
        "direct {:.0} graphs/s, served {:.0} graphs/s ({:.2}x) at {:.0}% fill, {} clients",
        report.direct_graphs_per_s,
        report.served_graphs_per_s,
        report.served_over_direct,
        report.batch_fill_pct,
        report.clients,
    );
    println!(
        "latency p50 {}us p99 {}us (SLO {}us); swap {:.0}us ungated, {:.0}us AP-gated",
        report.p50_us, report.p99_us, report.slo_p99_us, report.swap_us, report.gated_swap_us,
    );
    if report.served_over_direct < 0.9 {
        eprintln!(
            "warning: served throughput {:.2}x direct — below the 0.9x acceptance bound",
            report.served_over_direct
        );
    }
    if report.p99_us > report.slo_p99_us {
        eprintln!(
            "warning: served p99 {}us exceeds the {}us SLO",
            report.p99_us, report.slo_p99_us
        );
    }
    snowcat_bench::save_json("BENCH_serving", &report);
}
