//! The serving contract: predictions that went through the inference
//! server — any batching schedule, any worker count, any number of
//! concurrent callers — are *bit-identical* to calling
//! `Pic::predict_batch` directly on the same model. Micro-batching is a
//! throughput feature, never a behavioural one.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_core::{CoveragePredictor, Pic, PredictedCoverage};
use snowcat_corpus::{StiFuzzer, StiProfile};
use snowcat_graph::CtGraph;
use snowcat_kernel::{generate, GenConfig, Kernel};
use snowcat_nn::{Checkpoint, PicConfig, PicModel};
use snowcat_serve::{InferenceServer, ServeConfig};
use snowcat_vm::propose_hints;
use std::sync::OnceLock;

struct Fixture {
    kernel: Kernel,
    cfg: KernelCfg,
    corpus: Vec<StiProfile>,
    checkpoint: Checkpoint,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let kernel = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&kernel);
        let mut fz = StiFuzzer::new(&kernel, 0x5E);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 10, layers: 2, ..Default::default() });
        let checkpoint = Checkpoint::new(&model, 0.5, "serve-prop");
        Fixture { kernel, cfg, corpus, checkpoint }
    })
}

fn random_graphs(pic: &Pic<'_>, corpus: &[StiProfile], seed: u64, n: usize) -> Vec<CtGraph> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    use rand::Rng;
    let ia = rng.gen_range(0..corpus.len());
    let ib = rng.gen_range(0..corpus.len());
    let (a, b) = (&corpus[ia], &corpus[ib]);
    let base = pic.base_graph(a, b);
    (0..n)
        .map(|_| {
            let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
            pic.candidate_graph(&base, a, b, &hints)
        })
        .collect()
}

fn assert_bit_identical(label: &str, serial: &[PredictedCoverage], other: &[PredictedCoverage]) {
    assert_eq!(serial.len(), other.len(), "{label}: batch length");
    for (i, (s, o)) in serial.iter().zip(other).enumerate() {
        assert_eq!(s.graph, o.graph, "{label}: graph {i}");
        assert_eq!(s.probs, o.probs, "{label}: probs {i}");
        assert_eq!(s.positive, o.positive, "{label}: positive {i}");
    }
}

/// Split `graphs` into request-sized chunks per `cuts` (arbitrary
/// partition points from proptest).
fn partition(graphs: &[CtGraph], cuts: &[usize]) -> Vec<Vec<CtGraph>> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for &c in cuts {
        let end = (start + 1 + c % 5).min(graphs.len());
        if end > start {
            out.push(graphs[start..end].to_vec());
            start = end;
        }
    }
    if start < graphs.len() {
        out.push(graphs[start..].to_vec());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent callers sending arbitrary request partitions through a
    /// server with arbitrary batching knobs get back exactly what a direct
    /// serial `predict_batch` produces, request by request. Request graphs
    /// are drawn from a candidate pool with replacement, so both sides also
    /// answer repeats from their prediction memos.
    #[test]
    fn served_predictions_are_bit_identical_to_direct(
        seed in 0u64..1_000,
        n in 1usize..20,
        picks in proptest::collection::vec(0usize..64, 1..24),
        cuts in proptest::collection::vec(0usize..16, 0..8),
        max_batch in 1usize..12,
        wait_idx in 0usize..4,
        workers in 1usize..4,
    ) {
        // `u64::MAX` disables the age trigger: every flush then comes from
        // the fill or the live-handle rule.
        let max_wait_us = [0u64, 50, 2_000, u64::MAX][wait_idx];
        let fx = fixture();
        let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
        let pool = random_graphs(&pic, &fx.corpus, seed, n);
        let graphs: Vec<CtGraph> = picks.iter().map(|&i| pool[i % n].clone()).collect();
        let requests = partition(&graphs, &cuts);
        let direct: Vec<Vec<PredictedCoverage>> =
            requests.iter().map(|r| pic.predict_batch(r)).collect();

        let mut server = InferenceServer::start(
            &fx.checkpoint,
            ServeConfig { max_batch, max_wait_us, workers },
            None,
        );
        // Fire every request from its own thread so flushes genuinely
        // coalesce across callers. Each handle sends once and is dropped,
        // so the requests it was holding back can flush.
        let served: Vec<Vec<PredictedCoverage>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = requests
                .iter()
                .map(|req| {
                    let h = server.handle();
                    s.spawn(move |_| {
                        let preds = h.predict_batch(req);
                        drop(h);
                        preds
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();

        for ((d, s), req) in direct.iter().zip(&served).zip(&requests) {
            prop_assert_eq!(d.len(), req.len());
            assert_bit_identical("served", d, s);
        }

        let report = server.shutdown();
        let total: u64 = requests.iter().map(|r| r.len() as u64).sum();
        // Every graph predicted exactly once (conservation across flushes).
        prop_assert_eq!(report.graphs, total);
        prop_assert_eq!(report.requests, requests.len() as u64);
    }
}

/// A server whose age trigger never fires (`max_wait_us: u64::MAX`): only
/// the fill and live-handle rules flush, so the tests below hang, rather
/// than pass late, if the rule is broken.
fn server_without_deadline(max_batch: usize) -> InferenceServer {
    InferenceServer::start(
        &fixture().checkpoint,
        ServeConfig { max_batch, max_wait_us: u64::MAX, ..ServeConfig::default() },
        None,
    )
}

#[test]
fn lone_handle_flushes_without_waiting() {
    let fx = fixture();
    let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic, &fx.corpus, 11, 3);
    let mut server = server_without_deadline(64);
    let handle = server.handle();
    for req in [&graphs[..1], &graphs[1..]] {
        assert_bit_identical("lone handle", &pic.predict_batch(req), &handle.predict_batch(req));
    }
    let report = server.shutdown();
    assert_eq!(report.flushes, 2, "each request flushed alone, at once");
}

#[test]
fn every_live_handle_queued_flushes_once() {
    let fx = fixture();
    let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic, &fx.corpus, 12, 2);
    let mut server = server_without_deadline(64);
    let (a, b) = (server.handle(), server.handle());
    std::thread::scope(|s| {
        for (h, req) in [(a, &graphs[..1]), (b, &graphs[1..])] {
            let direct = pic.predict_batch(req);
            s.spawn(move || assert_bit_identical("all in", &direct, &h.predict_batch(req)));
        }
    });
    let report = server.shutdown();
    assert_eq!(report.flushes, 1, "the second request completes the batch");
    assert_eq!(report.graphs, 2);
}

#[test]
fn dropping_a_handle_releases_queued_requests() {
    let fx = fixture();
    let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic, &fx.corpus, 13, 1);
    let direct = pic.predict_batch(&graphs);
    let mut server = server_without_deadline(64);
    let (a, b) = (server.handle(), server.handle());
    std::thread::scope(|s| {
        s.spawn(|| assert_bit_identical("released", &direct, &a.predict_batch(&graphs)));
        // Drop `b` only once `a`'s request is queued, so that the drop, not
        // the admission, completes the live-handle count.
        while server.report().queue_depth_max == 0 {
            std::thread::yield_now();
        }
        drop(b);
    });
    let report = server.shutdown();
    assert_eq!(report.flushes, 1);
}

#[test]
fn requests_that_overflow_one_batch_flush_whole_in_turn() {
    let fx = fixture();
    let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic, &fx.corpus, 14, 6);
    // Two 3-graph requests never fit one 4-graph batch: whichever arrives
    // second fills the queue and its caller flushes the first request
    // alone; the second flushes next, once the first caller's dropped
    // handle (or the live-handle rule) makes it ready.
    let mut server = server_without_deadline(4);
    let (a, b) = (server.handle(), server.handle());
    std::thread::scope(|s| {
        for (h, req) in [(a, &graphs[..3]), (b, &graphs[3..])] {
            let direct = pic.predict_batch(req);
            s.spawn(move || {
                assert_bit_identical("overflow", &direct, &h.predict_batch(req));
                drop(h);
            });
        }
    });
    let report = server.shutdown();
    assert_eq!(report.graphs, 6);
    assert_eq!(report.flushes, 2, "whole requests, one per flush");
}

#[test]
fn request_held_by_an_idle_handle_flushes_on_its_own_thread_at_the_deadline() {
    let fx = fixture();
    let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic, &fx.corpus, 15, 2);
    // `idle` stays live and never sends, so neither the fill nor the
    // live-handle rule fires: only the request's own age does, and the
    // server has no thread of its own to flush it.
    let max_wait_us = 20_000;
    let mut server = InferenceServer::start(
        &fx.checkpoint,
        ServeConfig { max_batch: 64, max_wait_us, ..ServeConfig::default() },
        None,
    );
    let (sender, idle) = (server.handle(), server.handle());
    let sent = std::time::Instant::now();
    let served = sender.predict_batch(&graphs);
    let waited = sent.elapsed();
    assert_bit_identical("aged out", &pic.predict_batch(&graphs), &served);
    assert!(
        waited >= std::time::Duration::from_micros(max_wait_us),
        "no trigger but age can flush the request: it returned after {waited:?}"
    );
    drop((sender, idle));
    let report = server.shutdown();
    assert_eq!(report.flushes, 1, "one flush, at the deadline");
    assert_eq!(report.graphs, 2);
}

#[test]
fn empty_request_returns_empty_without_touching_the_queue() {
    let fx = fixture();
    let mut server = InferenceServer::start(&fx.checkpoint, ServeConfig::default(), None);
    let handle = server.handle();
    assert!(handle.predict_batch(&[]).is_empty());
    let report = server.shutdown();
    assert_eq!(report.requests, 1);
    assert_eq!(report.graphs, 0);
    assert_eq!(report.flushes, 0);
}

#[test]
fn oversized_request_flushes_alone_instead_of_deadlocking() {
    let fx = fixture();
    let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic, &fx.corpus, 7, 9);
    // 9 graphs > max_batch 2: the request flushes alone, whole.
    let mut server = InferenceServer::start(
        &fx.checkpoint,
        ServeConfig { max_batch: 2, max_wait_us: 10, ..ServeConfig::default() },
        None,
    );
    let served = server.handle().predict_batch(&graphs);
    assert_bit_identical("oversized", &pic.predict_batch(&graphs), &served);
    server.shutdown();
}

#[test]
fn handle_survives_shutdown_by_predicting_inline() {
    let fx = fixture();
    let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic, &fx.corpus, 3, 4);
    let mut server = InferenceServer::start(&fx.checkpoint, ServeConfig::default(), None);
    let handle = server.handle();
    server.shutdown();
    let served = handle.predict_batch(&graphs);
    assert_bit_identical("post-shutdown", &pic.predict_batch(&graphs), &served);
    assert_eq!(handle.report().shed, 1, "post-shutdown request counted as shed");
}

#[test]
fn stats_expose_serving_counters_through_the_predictor_trait() {
    let fx = fixture();
    let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic, &fx.corpus, 5, 6);
    let mut server = InferenceServer::start(
        &fx.checkpoint,
        ServeConfig { max_batch: 4, max_wait_us: 100, ..ServeConfig::default() },
        None,
    );
    let handle = server.handle();
    handle.predict_batch(&graphs[..2]);
    handle.predict_batch(&graphs[2..]);
    let stats = handle.stats();
    assert_eq!(stats.inferences(), 6);
    assert_eq!(stats.batches(), 2);
    assert!(stats.server_flushes() >= 1);
    assert!(stats.batch_fill() > 0.0);
    assert_eq!(stats.shed_requests(), 0);
    assert_eq!(
        handle.fingerprint(),
        pic.fingerprint(),
        "server fingerprint matches the underlying deployment"
    );
    server.shutdown();
}
