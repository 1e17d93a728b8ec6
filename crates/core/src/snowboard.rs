//! Snowboard-style CTI clustering and exemplar sampling (§5.6.2).
//!
//! Snowboard clusters CTIs by the INS-PAIR strategy: two STIs fall into the
//! cluster of every (write-instruction, read-instruction) pair that touches
//! the same shared-memory address in their single-thread executions. From
//! each cluster it samples *exemplar* CTIs for dynamic testing. We reproduce
//! three samplers:
//!
//! * **SB-RND(p)** — sample a fixed percentage of the cluster at random,
//! * **SB-PIC(S1)** / **SB-PIC(S2)** — predict each member's coverage under
//!   a synthetic scheduling hint that forces the write to yield to the read,
//!   and keep members the selection strategy finds interesting.

use crate::predictor::PredictorService;
use crate::strategy::{S1NewBitmap, S2NewBlocks, SelectionStrategy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use snowcat_corpus::StiProfile;
use snowcat_kernel::{InstrLoc, Kernel, ThreadId};
use snowcat_race::match_planted_bug;
use snowcat_race::RaceDetector;
use snowcat_vm::{run_ct, Cti, ScheduleHints, SwitchPoint, VmConfig};
use std::collections::{BTreeMap, HashMap};

/// An INS-PAIR cluster key: a write instruction and a read instruction that
/// touched the same address in the constituent STIs' sequential runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InsPair {
    /// The writing instruction (in the first STI).
    pub write: InstrLoc,
    /// The reading instruction (in the second STI).
    pub read: InstrLoc,
}

/// One cluster member: a CTI (corpus index pair, writer side first) plus the
/// step at which the write occurred in the writer's sequential run — used to
/// synthesize the write-yields-to-read scheduling hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterMember {
    /// (writer STI, reader STI) corpus indices.
    pub pair: (usize, usize),
    /// Writer-thread executed count at the write.
    pub write_step: u64,
}

/// INS-PAIR clustering of a CTI list. Clusters come back ordered by key, so
/// a caller that walks them (and seeds per-cluster work by position) sees
/// the same order in every process.
pub fn cluster_ctis(
    corpus: &[StiProfile],
    ctis: &[(usize, usize)],
) -> BTreeMap<InsPair, Vec<ClusterMember>> {
    let mut clusters: BTreeMap<InsPair, Vec<ClusterMember>> = BTreeMap::new();
    for &(ia, ib) in ctis {
        // Orientation 1: writes from a, reads from b; orientation 2 swapped.
        for (wi, ri) in [(ia, ib), (ib, ia)] {
            let w_seq = &corpus[wi].seq;
            let r_seq = &corpus[ri].seq;
            let mut reads: HashMap<u32, Vec<InstrLoc>> = HashMap::new();
            for acc in &r_seq.accesses {
                if !acc.is_write {
                    let v = reads.entry(acc.addr.0).or_default();
                    if !v.contains(&acc.loc) {
                        v.push(acc.loc);
                    }
                }
            }
            let mut seen_pairs = std::collections::HashSet::new();
            for acc in &w_seq.accesses {
                if !acc.is_write {
                    continue;
                }
                if let Some(rlocs) = reads.get(&acc.addr.0) {
                    for &rloc in rlocs {
                        let key = InsPair { write: acc.loc, read: rloc };
                        if !seen_pairs.insert(key) {
                            continue;
                        }
                        clusters
                            .entry(key)
                            .or_default()
                            .push(ClusterMember { pair: (wi, ri), write_step: acc.step });
                    }
                }
            }
        }
    }
    clusters
}

/// The synthetic single scheduling hint Snowboard-PIC feeds the model: the
/// writer runs up to (and including) the write, then yields to the reader.
pub fn write_yield_hint(member: &ClusterMember) -> ScheduleHints {
    ScheduleHints {
        first: ThreadId(0),
        switches: vec![SwitchPoint { thread: ThreadId(0), after: member.write_step + 1 }],
    }
}

/// Run Snowboard's interleaving exploration on a cluster member and report
/// whether `bug` manifests: the write-yields-to-read hint first, then a few
/// perturbed variants (Snowboard explores interleavings of the predicted
/// data flow).
pub fn member_exposes_bug(
    kernel: &Kernel,
    corpus: &[StiProfile],
    member: &ClusterMember,
    bug_id: snowcat_kernel::BugId,
    extra_schedules: usize,
    seed: u64,
) -> bool {
    let detector = RaceDetector::default();
    let (wi, ri) = member.pair;
    let cti = Cti::new(corpus[wi].sti.clone(), corpus[ri].sti.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut schedules = vec![write_yield_hint(member)];
    let reader_len = corpus[ri].seq.steps.max(1);
    for _ in 0..extra_schedules {
        // Perturb: writer yields around the write, reader yields back at a
        // random point.
        let jitter = rng.gen_range(0..4u64);
        schedules.push(ScheduleHints {
            first: ThreadId(0),
            switches: vec![
                SwitchPoint {
                    thread: ThreadId(0),
                    after: member.write_step.saturating_sub(jitter) + 1,
                },
                SwitchPoint { thread: ThreadId(1), after: rng.gen_range(1..=reader_len) },
            ],
        });
    }
    for hints in schedules {
        let r = run_ct(kernel, &cti, hints, VmConfig::default());
        if r.hit_bug(bug_id) {
            return true;
        }
        if detector
            .detect(kernel, &r)
            .iter()
            .any(|rep| match_planted_bug(kernel, rep) == Some(bug_id))
        {
            return true;
        }
    }
    false
}

/// A sampling approach for cluster exemplars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampler {
    /// Random p-fraction of the cluster.
    Random(f64),
    /// PIC + strategy S1 (new coverage bitmaps).
    PicS1,
    /// PIC + strategy S2 (new positive blocks).
    PicS2,
}

impl Sampler {
    /// Table 5 row label.
    pub fn label(self) -> String {
        match self {
            Sampler::Random(p) => format!("SB-RND({:.0}%)", p * 100.0),
            Sampler::PicS1 => "SB-PIC(S1)".into(),
            Sampler::PicS2 => "SB-PIC(S2)".into(),
        }
    }
}

/// Select exemplar member indices from a cluster.
///
/// For the PIC samplers, `predictions` must hold each member's predicted
/// coverage under its write-yield hint (precomputed once per cluster via
/// [`predict_members`]); the strategy's cumulative memory runs over the
/// members in the (shuffled) order given by `order`.
pub fn sample_cluster<R: Rng>(
    sampler: Sampler,
    order: &[usize],
    predictions: Option<&[crate::pic::PredictedCoverage]>,
    rng: &mut R,
) -> Vec<usize> {
    match sampler {
        Sampler::Random(p) => {
            let n = ((order.len() as f64 * p).ceil() as usize).clamp(1, order.len());
            // Reservoir-free: shuffle a copy and take n.
            let mut idx = order.to_vec();
            for i in (1..idx.len()).rev() {
                idx.swap(i, rng.gen_range(0..=i));
            }
            idx.truncate(n);
            idx
        }
        Sampler::PicS1 | Sampler::PicS2 => {
            let preds = predictions.expect("PIC sampler requires predictions");
            let mut strat: Box<dyn SelectionStrategy> = match sampler {
                Sampler::PicS1 => Box::new(S1NewBitmap::new()),
                _ => Box::new(S2NewBlocks::new()),
            };
            order.iter().copied().filter(|&m| strat.select(&preds[m])).collect()
        }
    }
}

/// Precompute each cluster member's PIC prediction under its write-yield
/// hint. Graphs for the whole cluster are built first and predicted as one
/// batch through the service's inference chain.
pub fn predict_members(
    service: &PredictorService<'_, '_>,
    corpus: &[StiProfile],
    members: &[ClusterMember],
) -> Vec<crate::pic::PredictedCoverage> {
    let graphs: Vec<_> = members
        .iter()
        .map(|m| {
            let (wi, ri) = m.pair;
            let (a, b) = (&corpus[wi], &corpus[ri]);
            let base = service.base_graph(a, b);
            service.pic().candidate_graph(&base, a, b, &write_yield_hint(m))
        })
        .collect();
    service.predictor().predict_batch(&graphs)
}

/// Table 5 outcome of running one sampler on one buggy cluster many times.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplingOutcome {
    /// Sampler label.
    pub sampler: String,
    /// Fraction of trials whose sample contained a bug-exposing member.
    pub bug_finding_probability: f64,
    /// Mean CTIs executed per trial.
    pub mean_sampled: f64,
    /// Mean sampling rate (sampled / cluster size).
    pub sampling_rate: f64,
}

/// Run `trials` sampling trials on a cluster whose bug-exposing member set
/// is `exposing` (bitmask aligned with `members`).
pub fn run_sampling_trials<R: Rng>(
    sampler: Sampler,
    members_len: usize,
    exposing: &[bool],
    predictions: Option<&[crate::pic::PredictedCoverage]>,
    trials: usize,
    rng: &mut R,
) -> SamplingOutcome {
    assert_eq!(exposing.len(), members_len);
    let mut hits = 0usize;
    let mut total_sampled = 0usize;
    let mut order: Vec<usize> = (0..members_len).collect();
    for _ in 0..trials {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let sampled = sample_cluster(sampler, &order, predictions, rng);
        total_sampled += sampled.len();
        if sampled.iter().any(|&m| exposing[m]) {
            hits += 1;
        }
    }
    SamplingOutcome {
        sampler: sampler.label(),
        bug_finding_probability: hits as f64 / trials.max(1) as f64,
        mean_sampled: total_sampled as f64 / trials.max(1) as f64,
        sampling_rate: total_sampled as f64 / (trials.max(1) * members_len.max(1)) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_corpus::StiFuzzer;
    use snowcat_kernel::{generate, GenConfig};

    fn setup() -> (Kernel, Vec<StiProfile>) {
        let k = generate(&GenConfig::default());
        let mut fz = StiFuzzer::new(&k, 1);
        fz.seed_each_syscall();
        fz.fuzz(30);
        let corpus = fz.into_corpus();
        (k, corpus)
    }

    #[test]
    fn clustering_groups_shared_memory_pairs() {
        let (k, corpus) = setup();
        // Same-subsystem neighbours (corpus entries 0..8 are the first
        // subsystem's syscalls) are guaranteed to share flag/stat words;
        // fully random pairs across 8 subsystems can legitimately share
        // nothing.
        let ctis: Vec<(usize, usize)> = (0..7).map(|i| (i, i + 1)).collect();
        let clusters = cluster_ctis(&corpus, &ctis);
        assert!(!clusters.is_empty(), "subsystem syscalls share flags/objects");
        let keys: Vec<InsPair> = clusters.keys().copied().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "clusters come back in ascending key order");
        for (key, members) in &clusters {
            assert!(!members.is_empty());
            // The write instruction must actually be a write in the writer's
            // sequential profile.
            for m in members {
                let w_seq = &corpus[m.pair.0].seq;
                assert!(w_seq
                    .accesses
                    .iter()
                    .any(|a| a.is_write && a.loc == key.write && a.step == m.write_step));
            }
        }
        let _ = k;
    }

    #[test]
    fn random_sampler_respects_fraction() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let order: Vec<usize> = (0..20).collect();
        let s = sample_cluster(Sampler::Random(0.25), &order, None, &mut rng);
        assert_eq!(s.len(), 5);
        let s = sample_cluster(Sampler::Random(0.01), &order, None, &mut rng);
        assert_eq!(s.len(), 1, "at least one exemplar is always sampled");
    }

    #[test]
    fn sampling_trials_probability_matches_rate() {
        // With 1 exposing member in 4 and 25% sampling (1 member), the hit
        // probability should be ≈ 0.25.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let exposing = vec![true, false, false, false];
        let out = run_sampling_trials(Sampler::Random(0.25), 4, &exposing, None, 4000, &mut rng);
        assert!((out.bug_finding_probability - 0.25).abs() < 0.05, "{out:?}");
        assert!((out.sampling_rate - 0.25).abs() < 1e-9);
    }

    #[test]
    fn write_yield_hint_switches_after_write() {
        let m = ClusterMember { pair: (0, 1), write_step: 7 };
        let h = write_yield_hint(&m);
        assert_eq!(h.first, ThreadId(0));
        assert_eq!(h.switches, vec![SwitchPoint { thread: ThreadId(0), after: 8 }]);
    }

    #[test]
    fn bug_carrier_cluster_exposes_planted_bug() {
        // Build a CTI from a bug's carrier syscalls; the write-yield hint
        // family should expose at least the easy order-violation bug.
        let (k, corpus) = setup();
        let bug =
            k.bugs.iter().find(|b| b.kind == snowcat_kernel::BugKind::OrderViolation).unwrap();
        let ia = corpus
            .iter()
            .position(|p| p.sti.calls.iter().any(|c| c.syscall == bug.syscalls.0))
            .unwrap();
        let ib = corpus
            .iter()
            .position(|p| p.sti.calls.iter().any(|c| c.syscall == bug.syscalls.1))
            .unwrap();
        let clusters = cluster_ctis(&corpus, &[(ia, ib)]);
        let mut exposed = false;
        for members in clusters.values() {
            for m in members {
                if member_exposes_bug(&k, &corpus, m, bug.id, 8, 5) {
                    exposed = true;
                    break;
                }
            }
        }
        assert!(exposed, "write-yield exploration should expose the OV bug");
    }
}
