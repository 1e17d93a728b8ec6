//! Property tests for the predictor service: every wrapper in the
//! [`CoveragePredictor`] chain must be *bit-identical* to serial [`Pic`]
//! inference — parallelism and memoization are pure performance features,
//! never behavioural ones — and the deployed model's memo must stay correct
//! under concurrent use.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_core::{CoveragePredictor, ParallelPredictor, Pic};
use snowcat_corpus::{StiFuzzer, StiProfile};
use snowcat_graph::CtGraph;
use snowcat_kernel::{generate, GenConfig, Kernel};
use snowcat_nn::{Checkpoint, PicConfig, PicModel};
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
        let mut fz = StiFuzzer::new(&kernel, 0xE9);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let model = PicModel::new(PicConfig { hidden: 10, layers: 2, ..Default::default() });
        let checkpoint = Checkpoint::new(&model, 0.5, "prop");
        Fixture { kernel, cfg, corpus, checkpoint }
    })
}

/// Build `n` candidate CT graphs for a seeded random CTI pair with seeded
/// random scheduling hints — the exact inputs the exploration loops feed
/// the predictor.
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

fn assert_bit_identical(
    label: &str,
    serial: &[snowcat_core::PredictedCoverage],
    other: &[snowcat_core::PredictedCoverage],
) {
    assert_eq!(serial.len(), other.len(), "{label}: batch length");
    for (i, (s, o)) in serial.iter().zip(other).enumerate() {
        assert_eq!(s.graph, o.graph, "{label}: graph {i}");
        assert_eq!(s.probs, o.probs, "{label}: probs {i}");
        assert_eq!(s.positive, o.positive, "{label}: positive {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ParallelPredictor is bit-identical to serial Pic inference for any
    /// worker count and batch size, including empty and single-item batches.
    /// The parallel side gets its own `Pic`, so its workers run forward
    /// passes instead of reading the serial side's memo.
    #[test]
    fn parallel_matches_serial(seed in 0u64..1_000, workers in 1usize..8, n in 0usize..24) {
        let fx = fixture();
        let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
        let graphs = random_graphs(&pic, &fx.corpus, seed, n);
        let serial = pic.predict_batch(&graphs);
        let fresh = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
        let par = ParallelPredictor::new(&fresh, workers);
        let parallel = par.predict_batch(&graphs);
        assert_bit_identical("parallel", &serial, &parallel);
    }
}

/// Many threads predicting through one shared `Pic`: every prediction must
/// be bit-identical to one from a separate reference `Pic`, the inference
/// count must account for every request, and the memo must save forward
/// passes.
#[test]
fn concurrent_memo_is_correct_under_contention() {
    let fx = fixture();
    let reference = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
    let pool = random_graphs(&reference, &fx.corpus, 0xC0DE, 12);
    let expected = reference.predict_batch(&pool);
    let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let pic = Pic::new(&fx.checkpoint, &fx.kernel, &fx.cfg);
    let n_threads = 8;
    let rounds = 6;
    let requests: u64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_threads)
            .map(|t| {
                let (pic, pool, expected) = (&pic, &pool, &expected);
                s.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(0xBEEF ^ t as u64);
                    use rand::Rng;
                    let mut requests = 0u64;
                    for _ in 0..rounds {
                        // Each round predicts a random slice of the pool in a
                        // random order, mixing batched and single calls.
                        let mut idx: Vec<usize> = (0..pool.len()).collect();
                        for i in (1..idx.len()).rev() {
                            idx.swap(i, rng.gen_range(0..=i));
                        }
                        let take = rng.gen_range(1..=pool.len());
                        let batch: Vec<CtGraph> =
                            idx[..take].iter().map(|&i| pool[i].clone()).collect();
                        let preds = pic.predict_batch(&batch);
                        for (&i, p) in idx[..take].iter().zip(&preds) {
                            assert_eq!(bits(&p.probs), bits(&expected[i].probs), "thread {t}");
                            assert_eq!(p.positive, expected[i].positive, "thread {t}");
                        }
                        let lone = rng.gen_range(0..pool.len());
                        let p = pic.predict_one(&pool[lone]);
                        assert_eq!(
                            bits(&p.probs),
                            bits(&expected[lone].probs),
                            "thread {t} (single)"
                        );
                        requests += take as u64 + 1;
                    }
                    requests
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("predicting thread panicked")).sum()
    });
    assert_eq!(pic.inferences(), requests, "every request counts against the budget");
    assert!(
        pic.forward_passes() < pic.inferences(),
        "contended run should hit the memo: {} forward passes for {} inferences",
        pic.forward_passes(),
        pic.inferences()
    );
}
