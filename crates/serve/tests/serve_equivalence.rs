//! The serving contract: predictions that went through the inference
//! server — any request shape, any worker count, any number of concurrent
//! callers — are *bit-identical* to calling `Pic::predict_batch` directly
//! on the same model.

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
    /// server with 1–3 workers per request get back exactly what a direct
    /// serial `predict_batch` produces, request by request. Request graphs
    /// are drawn from a candidate pool with replacement, so both sides also
    /// answer repeats from their prediction memos.
    #[test]
    fn served_predictions_are_bit_identical_to_direct(
        seed in 0u64..1_000,
        n in 1usize..20,
        picks in proptest::collection::vec(0usize..64, 1..24),
        cuts in proptest::collection::vec(0usize..16, 0..8),
        workers in 1usize..4,
    ) {
        let fx = fixture();
        let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
        let pool = random_graphs(&pic, &fx.corpus, seed, n);
        let graphs: Vec<CtGraph> = picks.iter().map(|&i| pool[i % n].clone()).collect();
        let requests = partition(&graphs, &cuts);
        let direct: Vec<Vec<PredictedCoverage>> =
            requests.iter().map(|r| pic.predict_batch(r)).collect();

        let mut server = InferenceServer::start(
            &fx.checkpoint,
            ServeConfig { workers, ..ServeConfig::default() },
            None,
        );
        // Fire every request from its own thread, so concurrent callers
        // share the epoch's prediction memo.
        let served: Vec<Vec<PredictedCoverage>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = requests
                .iter()
                .map(|req| {
                    let h = server.handle();
                    s.spawn(move |_| h.predict_batch(req))
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
        // Every graph predicted exactly once.
        prop_assert_eq!(report.graphs, total);
        prop_assert_eq!(report.requests, requests.len() as u64);
    }
}

#[test]
fn an_idle_handle_never_delays_another_handles_request() {
    let fx = fixture();
    let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic, &fx.corpus, 15, 2);
    // `_idle` stays live and never sends, and no deadline bounds a wait: a
    // server that held one handle's request for another's would hang here.
    let mut server = InferenceServer::start(
        &fx.checkpoint,
        ServeConfig { max_wait_us: u64::MAX, ..ServeConfig::default() },
        None,
    );
    let (sender, _idle) = (server.handle(), server.handle());
    assert_bit_identical(
        "idle handle",
        &pic.predict_batch(&graphs),
        &sender.predict_batch(&graphs),
    );
    let report = server.shutdown();
    assert_eq!(report.requests, 1);
    assert_eq!(report.graphs, 2);
}

#[test]
fn empty_request_returns_empty_without_predicting() {
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
    let mut server = InferenceServer::start(&fx.checkpoint, ServeConfig::default(), None);
    let handle = server.handle();
    handle.predict_batch(&graphs[..2]);
    handle.predict_batch(&graphs[2..]);
    let stats = handle.stats();
    assert_eq!(stats.inferences(), 6);
    assert_eq!(stats.batches(), 2);
    assert_eq!(
        handle.fingerprint(),
        pic.fingerprint(),
        "server fingerprint matches the underlying deployment"
    );
    server.shutdown();
}
