//! Microbenchmark: the micro-batching inference server vs direct inference.
//!
//! The serving layer promises "batching for free" in two regimes, each
//! held to at least 0.9x the throughput of predicting the same graphs
//! directly through a `Pic`:
//!
//! * **saturated** — concurrent clients send half-batch requests fast
//!   enough to fill every `max_batch`-sized flush, with tail latency under
//!   the configured SLO;
//! * **one caller** — one handle sends 1-graph requests at the
//!   `campaign --serve` settings, the regime a served campaign runs in.
//!   Every request completes its own batch and flushes on the caller's
//!   thread, so the queue, the admission copy and the result split are all
//!   the server is allowed to spend.
//!
//! The bench also times the atomic hot-swap (ungated, and gated through an
//! AP validation pass), and writes `results/BENCH_serving.json`.
//!
//! Both paths memoize predictions per deployed model, so every timed
//! repetition starts from a fresh `Pic` and a fresh server: the saturated
//! best-of timings measure inference, not memo hits. The one-caller phase
//! replays its sequence once more, so it includes memo hits in the share a
//! campaign's repeats would.
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
    one_caller_graphs_per_s: f64,
    one_caller_over_direct: f64,
    one_caller_p50_us: u64,
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
    // The bench's own tail-latency objective; the server does not read it.
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
    let serve_cfg = ServeConfig { max_batch, max_wait_us, ..ServeConfig::default() };
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

    // One caller, the regime `campaign --serve` runs in: the CLI's serving
    // settings, one handle, 1-graph requests over the pool and then over it
    // again, so the replay answers from the memo as a campaign's repeats
    // do. A fresh `Pic` predicts the same sequence directly.
    let one_cfg = ServeConfig { max_batch: 16, max_wait_us: 200, ..ServeConfig::default() };
    let sequence: Vec<&CtGraph> = requests.iter().chain(&requests).flatten().collect();
    let (mut one_direct_s, mut one_served_s) = (f64::INFINITY, f64::INFINITY);
    let mut one_report = None;
    for _ in 0..=reps {
        let fresh = Pic::new(&ck, &k, &cfg);
        let t0 = Instant::now();
        for g in &sequence {
            black_box(fresh.predict_one(g));
        }
        one_direct_s = one_direct_s.min(t0.elapsed().as_secs_f64());

        let mut server = InferenceServer::start(&ck, one_cfg.clone(), None);
        let h = server.handle();
        let t0 = Instant::now();
        for g in &sequence {
            black_box(h.predict_one(g));
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let report = server.shutdown();
        if elapsed < one_served_s {
            one_served_s = elapsed;
            one_report = Some(report);
        }
    }
    let one_report = one_report.expect("at least one one-caller repetition");

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
    // times one caller's trip through the queue, not inference. The
    // handle is the server's only one, so each request completes its batch
    // and flushes on the caller's thread: admission copy, drain and result
    // split.
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
        one_caller_graphs_per_s: sequence.len() as f64 / one_served_s,
        one_caller_over_direct: one_direct_s / one_served_s,
        one_caller_p50_us: one_report.p50_us,
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
    println!(
        "one caller: served {:.0} graphs/s ({:.2}x direct), p50 {}us, 1-graph requests",
        report.one_caller_graphs_per_s, report.one_caller_over_direct, report.one_caller_p50_us,
    );
    for (regime, ratio) in
        [("served", report.served_over_direct), ("one-caller", report.one_caller_over_direct)]
    {
        if ratio < 0.9 {
            eprintln!(
                "warning: {regime} throughput {ratio:.2}x direct — below the 0.9x acceptance bound"
            );
        }
    }
    if report.p99_us > report.slo_p99_us {
        eprintln!(
            "warning: served p99 {}us exceeds the {}us SLO",
            report.p99_us, report.slo_p99_us
        );
    }
    snowcat_bench::save_json("BENCH_serving", &report);
}
