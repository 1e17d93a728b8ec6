//! Hot-swap safety: a swap mid-stream never tears, drops, or duplicates a
//! prediction; poisoned candidates are rejected before they ever serve;
//! AP-degraded candidates are installed, caught by the breaker, and rolled
//! back to the incumbent weights.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_core::{checkpoint_fingerprint, CoveragePredictor, Pic, PredictedCoverage};
use snowcat_corpus::{StiFuzzer, StiProfile};
use snowcat_graph::CtGraph;
use snowcat_kernel::{generate, GenConfig, Kernel};
use snowcat_nn::{Checkpoint, PicConfig, PicModel, PicSession};
use snowcat_serve::{ApGate, InferenceServer, ServeConfig, SwapOutcome};
use snowcat_vm::propose_hints;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

struct Fixture {
    kernel: Kernel,
    cfg: KernelCfg,
    corpus: Vec<StiProfile>,
    /// Two genuinely different models over the same architecture.
    ck_a: Checkpoint,
    ck_b: Checkpoint,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let kernel = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&kernel);
        let mut fz = StiFuzzer::new(&kernel, 0xA7);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let base = PicConfig { hidden: 8, layers: 1, ..Default::default() };
        let model_a = PicModel::new(PicConfig { seed: 11, ..base });
        let model_b = PicModel::new(PicConfig { seed: 29, ..base });
        let ck_a = Checkpoint::new(&model_a, 0.5, "model-a");
        let ck_b = Checkpoint::new(&model_b, 0.5, "model-b");
        Fixture { kernel, cfg, corpus, ck_a, ck_b }
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

fn same_predictions(a: &[PredictedCoverage], b: &[PredictedCoverage]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.probs == y.probs && x.positive == y.positive && x.graph == y.graph)
}

/// Label each validation graph's URBs by `model`'s own ranking (top half
/// positive), so `model` scores a perfect validation AP and any materially
/// different model scores lower — a deterministic way to manufacture an
/// AP gap for breaker tests.
fn gate_favoring(model: &PicModel, graphs: &[CtGraph], tolerance: f64) -> ApGate {
    let mut session = PicSession::new();
    let mut probs = Vec::new();
    // AP pools URB scores across graphs, so the labels must be ranked
    // globally too: collect (graph, vertex, score) for every URB, sort by
    // the favored model's score, mark the global top half positive.
    let mut scored: Vec<(usize, usize, f32)> = Vec::new();
    for (gi, g) in graphs.iter().enumerate() {
        model.forward_into(g, &mut session, &mut probs);
        for i in g.urb_indices() {
            scored.push((gi, i, probs[i]));
        }
    }
    scored.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    let k = (scored.len() / 2).max(1);
    let mut valid: Vec<(CtGraph, Vec<bool>)> =
        graphs.iter().map(|g| (g.clone(), vec![false; g.num_verts()])).collect();
    for &(gi, i, _) in scored.iter().take(k) {
        valid[gi].1[i] = true;
    }
    ApGate::new(valid, tolerance)
}

/// Requests racing with swaps: every request's result must be *entirely*
/// model A's output or *entirely* model B's — a request predicts on exactly
/// one epoch, so a caller can never observe a torn mix — and every request
/// is answered exactly once.
#[test]
fn swap_mid_stream_never_tears_or_drops_a_request() {
    let fx = fixture();
    let pic_a = Pic::new(&fx.ck_a, &fx.kernel, &fx.cfg);
    let pic_b = Pic::new(&fx.ck_b, &fx.kernel, &fx.cfg);

    const PRODUCERS: usize = 4;
    const ROUNDS: usize = 12;
    let requests: Vec<Vec<CtGraph>> =
        (0..PRODUCERS).map(|p| random_graphs(&pic_a, &fx.corpus, 100 + p as u64, 3)).collect();
    let direct_a: Vec<Vec<PredictedCoverage>> =
        requests.iter().map(|r| pic_a.predict_batch(r)).collect();
    let direct_b: Vec<Vec<PredictedCoverage>> =
        requests.iter().map(|r| pic_b.predict_batch(r)).collect();

    let mut server = InferenceServer::start(&fx.ck_a, ServeConfig::default(), None);
    let gate = ApGate::disabled();
    let stop = AtomicBool::new(false);

    crossbeam::thread::scope(|s| {
        // Swapper: flip between A and B as fast as it can.
        let swapper = {
            let server = &server;
            let (stop, gate) = (&stop, &gate);
            let (ck_a, ck_b) = (&fx.ck_a, &fx.ck_b);
            s.spawn(move |_| {
                let mut swaps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let ck = if swaps.is_multiple_of(2) { ck_b } else { ck_a };
                    assert!(matches!(server.try_swap(ck, gate), SwapOutcome::Installed { .. }));
                    swaps += 1;
                }
                swaps
            })
        };

        let producers: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(p, req)| {
                let h = server.handle();
                let (da, db) = (&direct_a[p], &direct_b[p]);
                s.spawn(move |_| {
                    for round in 0..ROUNDS {
                        let got = h.predict_batch(req);
                        assert!(
                            same_predictions(&got, da) || same_predictions(&got, db),
                            "producer {p} round {round}: result is neither \
                             model A's nor model B's output — torn swap"
                        );
                    }
                })
            })
            .collect();

        for h in producers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(swapper.join().unwrap() > 0, "at least one swap raced the requests");
    })
    .unwrap();

    let report = server.shutdown();
    let expected: u64 = requests.iter().map(|r| (r.len() * ROUNDS) as u64).sum();
    assert_eq!(report.graphs, expected, "no prediction dropped or duplicated across swaps");
    assert_eq!(report.requests, (PRODUCERS * ROUNDS) as u64);
    assert!(report.swaps > 0);
}

#[test]
fn poisoned_candidate_is_rejected_before_install() {
    let fx = fixture();
    let pic_a = Pic::new(&fx.ck_a, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic_a, &fx.corpus, 42, 4);

    let mut server = InferenceServer::start(&fx.ck_a, ServeConfig::default(), None);
    let handle = server.handle();
    let before = handle.fingerprint();

    let mut poisoned = fx.ck_b.clone();
    poisoned.params.w_out.data[0] = f32::NAN;
    let outcome = server.try_swap(&poisoned, &ApGate::disabled());
    match outcome {
        SwapOutcome::Rejected { reason, .. } => {
            assert!(reason.contains("NaN") || reason.contains("infinite"), "reason: {reason}");
        }
        other => panic!("poisoned candidate was not rejected: {other:?}"),
    }

    // A bogus threshold is rejected the same way.
    let mut bad_threshold = fx.ck_b.clone();
    bad_threshold.threshold = 1.5;
    assert!(matches!(
        server.try_swap(&bad_threshold, &ApGate::disabled()),
        SwapOutcome::Rejected { .. }
    ));

    assert_eq!(handle.fingerprint(), before, "incumbent untouched by rejected swaps");
    assert!(
        same_predictions(&handle.predict_batch(&graphs), &pic_a.predict_batch(&graphs)),
        "serving continues on the incumbent after rejections"
    );
    let report = server.shutdown();
    assert_eq!(report.swaps, 0, "a rejected candidate never counts as installed");
    assert_eq!(report.epoch, 0);
}

#[test]
fn degraded_candidate_is_rolled_back_by_the_ap_breaker() {
    let fx = fixture();
    let pic_a = Pic::new(&fx.ck_a, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic_a, &fx.corpus, 77, 6);
    // Validation labels manufactured from model A's own ranking: A scores
    // AP 1.0, the differently-seeded model B scores strictly lower.
    let gate = gate_favoring(pic_a.model(), &graphs, 1e-9);

    let mut server = InferenceServer::start(&fx.ck_a, ServeConfig::default(), None);
    let handle = server.handle();
    let before = handle.fingerprint();

    match server.try_swap(&fx.ck_b, &gate) {
        SwapOutcome::RolledBack { candidate_ap, incumbent_ap, .. } => {
            assert!(
                candidate_ap < incumbent_ap,
                "breaker fired on a regression: {candidate_ap} vs {incumbent_ap}"
            );
            assert!((incumbent_ap - 1.0).abs() < 1e-12, "labels built from incumbent ranking");
        }
        other => panic!("degraded candidate was not rolled back: {other:?}"),
    }

    assert_eq!(handle.fingerprint(), before, "rollback restored the incumbent weights");
    assert!(
        same_predictions(&handle.predict_batch(&graphs), &pic_a.predict_batch(&graphs)),
        "post-rollback predictions are the incumbent's, bit for bit"
    );
    server.shutdown();
}

#[test]
fn non_degraded_candidate_is_installed_and_served() {
    let fx = fixture();
    let pic_a = Pic::new(&fx.ck_a, &fx.kernel, &fx.cfg);
    let pic_b = Pic::new(&fx.ck_b, &fx.kernel, &fx.cfg);
    let graphs = random_graphs(&pic_a, &fx.corpus, 9, 5);
    // Labels favor the *candidate* this time: B matches or beats A, so the
    // breaker stays quiet.
    let gate = gate_favoring(pic_b.model(), &graphs, 1e-9);

    let mut server = InferenceServer::start(&fx.ck_a, ServeConfig::default(), None);
    let handle = server.handle();

    assert!(matches!(server.try_swap(&fx.ck_b, &gate), SwapOutcome::Installed { epoch: 1 }));
    assert_eq!(handle.fingerprint(), checkpoint_fingerprint(&fx.ck_b));
    assert!(
        same_predictions(&handle.predict_batch(&graphs), &pic_b.predict_batch(&graphs)),
        "post-swap predictions come from the new model"
    );
    let report = server.shutdown();
    assert_eq!(report.swaps, 1);
    assert_eq!(report.epoch, 1);
    assert_eq!(report.model_name, "model-b");
}
