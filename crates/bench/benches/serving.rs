//! Microbenchmark: the inference server vs direct inference.
//!
//! Every served request predicts on its caller's thread, so the server is
//! held to at least 0.9x the throughput of predicting the same graphs
//! directly through a `Pic`, in two regimes:
//!
//! * **saturated** — concurrent clients send 16-graph requests back to
//!   back, with tail latency under the bench's objective;
//! * **one caller** — one handle sends 1-graph requests, the regime
//!   `campaign --serve` runs in. The epoch lookup and the counters are all
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
    direct_graphs_per_s: f64,
    served_graphs_per_s: f64,
    served_over_direct: f64,
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
    // The bench's own tail-latency objective; the server does not read it.
    let slo_p99_us = 50_000u64;

    let k = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&k);
    let mut fz = StiFuzzer::new(&k, 0xBE4C);
    fz.seed_each_syscall();
    let corpus = fz.into_corpus();
    // The production model shape (PicConfig::default): the 0.9x acceptance
    // bound is about the serving overhead relative to real inference cost,
    // not a toy model whose forward pass costs next to nothing.
    let model = PicModel::new(PicConfig::default());
    let ck = Checkpoint::new(&model, 0.5, "bench");
    let pic = Pic::new(&ck, &k, &cfg);

    // A fixed pool of candidate graphs, grouped into requests.
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
    // server in the way. Best-of-reps to shed background noise.
    let mut direct_s = f64::INFINITY;
    for _ in 0..=reps {
        let fresh = Pic::new(&ck, &k, &cfg);
        let t0 = Instant::now();
        for req in &requests {
            black_box(fresh.predict_batch(req));
        }
        direct_s = direct_s.min(t0.elapsed().as_secs_f64());
    }

    // Served: `clients` threads striping the same requests through one
    // server, each predicting on its own thread. The serving counters come
    // from the fastest repetition.
    let mut served_s = f64::INFINITY;
    let mut sreport = None;
    for _ in 0..=reps {
        let mut server = InferenceServer::start(&ck, ServeConfig::default(), None);
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

    // One caller, the regime `campaign --serve` runs in: one handle,
    // 1-graph requests over the pool and then over it again, so the replay
    // answers from the memo as a campaign's repeats do. A fresh `Pic`
    // predicts the same sequence directly.
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

        let mut server = InferenceServer::start(&ck, ServeConfig::default(), None);
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
    let mut server = InferenceServer::start(&ck, ServeConfig::default(), None);
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
    // times one caller's trip through the server, not inference.
    c.bench_function("served_request_warm", |b| {
        let h = server.handle();
        b.iter(|| black_box(h.predict_batch(&requests[0])))
    });

    server.shutdown();
    let report = Report {
        quick: quick(),
        requests: n_requests,
        request_size,
        clients,
        direct_graphs_per_s: total_graphs as f64 / direct_s,
        served_graphs_per_s: total_graphs as f64 / served_s,
        served_over_direct: direct_s / served_s,
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
        "direct {:.0} graphs/s, served {:.0} graphs/s ({:.2}x), {} clients",
        report.direct_graphs_per_s,
        report.served_graphs_per_s,
        report.served_over_direct,
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
