//! Razzer-style directed race reproduction (§5.6.1).
//!
//! Razzer targets a specific *possible data race* (a pair of racing
//! instructions) and searches for CTIs that make both instructions execute
//! concurrently. Three candidate-selection modes are reproduced:
//!
//! * **Strict** (original Razzer): an STI pair qualifies only if each racing
//!   instruction's block was *covered* in the respective sequential run —
//!   racing instructions hiding in URBs are missed, which is why Razzer
//!   fails to reproduce most of Table 4's races.
//! * **Relax**: blocks may lie in the sequential coverage *or* the 1-hop URB
//!   set — finds everything but floods the queue with candidates.
//! * **Pic**: Relax candidates filtered by the PIC model — keep a CTI only
//!   if, under some random schedules, both racing blocks are predicted
//!   covered.

use crate::predictor::PredictorService;
use crate::prefilter::RacePrefilter;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use snowcat_cfg::KernelCfg;
use snowcat_corpus::StiProfile;
use snowcat_kernel::{BlockId, BugSpec, Kernel};
use snowcat_race::match_planted_bug;
use snowcat_race::RaceDetector;
use snowcat_vm::{propose_hints, run_ct, BitSet, Cti, VmConfig};

/// Candidate-selection mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RazzerMode {
    /// Original Razzer: racing blocks must be sequentially covered.
    Strict,
    /// Racing blocks may be SCBs or 1-hop URBs.
    Relax,
    /// Relax + PIC filtering.
    Pic,
    /// Relax + PIC filtering + predicted inter-thread flow between the
    /// racing blocks (the §6 extension: "PIC trained on this task can
    /// further reduce the time for concurrency bug reproduction").
    PicFlow,
}

impl RazzerMode {
    /// Display name matching Table 4's columns.
    pub fn label(self) -> &'static str {
        match self {
            RazzerMode::Strict => "Razzer",
            RazzerMode::Relax => "Razzer-Relax",
            RazzerMode::Pic => "Razzer-PIC",
            RazzerMode::PicFlow => "Razzer-PIC+flow",
        }
    }
}

/// The two racing blocks of a planted bug, one per carrier syscall.
///
/// Returns `None` if the bug's racing-instruction record does not span two
/// functions (cannot happen for generator-planted bugs).
pub fn racing_blocks(kernel: &Kernel, bug: &BugSpec) -> Option<(BlockId, BlockId)> {
    let func_a = kernel.syscall(bug.syscalls.0).func;
    let func_b = kernel.syscall(bug.syscalls.1).func;
    // Take the *last* racing instruction recorded per carrier: bug patterns
    // record the shallow access first and the deep (often URB-resident) one
    // last, and the deep one is the actual race target Razzer aims at.
    let block_in =
        |f| bug.racing_instrs.iter().map(|l| l.block).rfind(|&b| kernel.block(b).func == f);
    Some((block_in(func_a)?, block_in(func_b)?))
}

fn reaches(profile: &StiProfile, block: BlockId, relax: Option<&BitSet>) -> bool {
    if profile.seq.coverage.contains(block.index()) {
        return true;
    }
    relax.map(|urbs| urbs.contains(block.index())).unwrap_or(false)
}

fn urb_set(cfg: &KernelCfg, profile: &StiProfile) -> BitSet {
    let mut s = BitSet::new(cfg.num_blocks());
    for e in cfg.k_hop_urbs(&profile.seq.coverage, 1) {
        s.insert(e.to.index());
    }
    s
}

/// Find candidate CTIs (ordered corpus index pairs) for the target race.
///
/// `Pic`/`PicFlow` modes require a [`PredictorService`]; the per-candidate
/// schedule pool is predicted as one batch, so the service's predictor
/// (the `Pic` itself or a server handle) is exercised end to end.
pub fn find_candidates(
    kernel: &Kernel,
    cfg: &KernelCfg,
    corpus: &[StiProfile],
    bug: &BugSpec,
    mode: RazzerMode,
    service: Option<&PredictorService<'_, '_>>,
    seed: u64,
) -> Vec<(usize, usize)> {
    let Some((block_a, block_b)) = racing_blocks(kernel, bug) else {
        return Vec::new();
    };
    let mut candidates = reach_candidates(corpus, cfg, mode, block_a, block_b);
    pic_retain(&mut candidates, corpus, mode, service, block_a, block_b, seed);
    candidates
}

/// [`find_candidates`] with the static may-race pre-filter applied before
/// any GNN scoring.
///
/// Two static cuts, both sound (the may-race set over-approximates every
/// dynamic race, so nothing reproducible is ever dropped):
///
/// 1. **Target veto** — if no may-race pair connects the two racing blocks
///    (e.g. the accesses are consistently lock-protected), the race cannot
///    manifest dynamically; return no candidates without a single
///    prediction.
/// 2. **Density ranking** — remaining candidates are ranked by
///    [`RacePrefilter::rank`]: zero-density CTIs (whose syscalls cannot
///    race at all) are dropped before the predictor sees them, and the
///    rest are scored densest-first.
#[allow(clippy::too_many_arguments)]
pub fn find_candidates_prefiltered(
    kernel: &Kernel,
    cfg: &KernelCfg,
    corpus: &[StiProfile],
    bug: &BugSpec,
    mode: RazzerMode,
    service: Option<&PredictorService<'_, '_>>,
    prefilter: &RacePrefilter,
    seed: u64,
) -> Vec<(usize, usize)> {
    let Some((block_a, block_b)) = racing_blocks(kernel, bug) else {
        return Vec::new();
    };
    if !prefilter.blocks_may_race(block_a, block_b) {
        let reach = reach_candidates(corpus, cfg, mode, block_a, block_b);
        prefilter.count_target_veto(reach.len() as u64);
        return Vec::new();
    }
    let reach = reach_candidates(corpus, cfg, mode, block_a, block_b);
    let mut candidates = prefilter.rank(corpus, &reach);
    pic_retain(&mut candidates, corpus, mode, service, block_a, block_b, seed);
    candidates
}

/// Reachability-qualified candidate pairs (the Strict/Relax core).
fn reach_candidates(
    corpus: &[StiProfile],
    cfg: &KernelCfg,
    mode: RazzerMode,
    block_a: BlockId,
    block_b: BlockId,
) -> Vec<(usize, usize)> {
    let relax_sets: Option<Vec<BitSet>> = if mode != RazzerMode::Strict {
        Some(corpus.iter().map(|p| urb_set(cfg, p)).collect())
    } else {
        None
    };
    let mut candidates = Vec::new();
    for (i, pa) in corpus.iter().enumerate() {
        for (j, pb) in corpus.iter().enumerate() {
            if i == j {
                continue;
            }
            let ra = relax_sets.as_ref().map(|s| &s[i]);
            let rb = relax_sets.as_ref().map(|s| &s[j]);
            if reaches(pa, block_a, ra) && reaches(pb, block_b, rb) {
                candidates.push((i, j));
            }
        }
    }
    candidates
}

/// Apply the Pic / PicFlow predictor filter in place (no-op otherwise).
fn pic_retain(
    candidates: &mut Vec<(usize, usize)>,
    corpus: &[StiProfile],
    mode: RazzerMode,
    service: Option<&PredictorService<'_, '_>>,
    block_a: BlockId,
    block_b: BlockId,
    seed: u64,
) {
    if mode == RazzerMode::Pic || mode == RazzerMode::PicFlow {
        let service = service.expect("Razzer-PIC requires a deployed predictor");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        candidates.retain(|&(i, j)| {
            let a = &corpus[i];
            let b = &corpus[j];
            let base = service.base_graph(a, b);
            // Keep if any of a few random schedules is predicted to cover
            // both racing blocks (and, for PicFlow, to realize an
            // inter-thread flow between them). The schedule pool is drawn
            // up front and predicted as one batch.
            let hints: Vec<_> =
                (0..4).map(|_| propose_hints(&mut rng, a.seq.steps, b.seq.steps)).collect();
            if mode == RazzerMode::Pic {
                let preds = service.predict_candidates(&base, a, b, &hints);
                preds.iter().any(|pred| pred.covers_block(block_a) && pred.covers_block(block_b))
            } else {
                hints.iter().any(|h| {
                    let graph = service.pic().candidate_graph(&base, a, b, h);
                    let (pred, flows) = service.pic().predict_with_flows(&graph);
                    if !(pred.covers_block(block_a) && pred.covers_block(block_b)) {
                        return false;
                    }
                    // The flow head only scores flows between sequentially
                    // executed instructions (InterFlow edges come from the
                    // STIs' sequential traces). If no such edge connects the
                    // racing blocks — e.g. the racing read lives in a URB —
                    // flow prediction is inapplicable and the coverage
                    // filter alone decides.
                    let mut edge_exists = false;
                    let mut flow_predicted = false;
                    for (e, &f) in pred.graph.edges.iter().zip(&flows) {
                        if e.kind != snowcat_graph::EdgeKind::InterFlow {
                            continue;
                        }
                        let ub = pred.graph.verts[e.from as usize].block;
                        let vb = pred.graph.verts[e.to as usize].block;
                        if (ub == block_a && vb == block_b) || (ub == block_b && vb == block_a) {
                            edge_exists = true;
                            if f >= 0.4 {
                                flow_predicted = true;
                                break;
                            }
                        }
                    }
                    !edge_exists || flow_predicted
                })
            }
        });
    }
}

/// Reproduction attempt for one candidate CTI.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CtiRepro {
    /// Corpus index pair.
    pub pair: (usize, usize),
    /// Schedule index (0-based) at which the race was reproduced, if it was.
    pub reproduced_at: Option<usize>,
    /// Schedules actually executed for this CTI.
    pub schedules_run: usize,
}

/// One mode's full Table 4 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReproResult {
    /// Mode label.
    pub mode: String,
    /// Candidate count (`# CTIs`).
    pub candidates: usize,
    /// True-positive candidates (`# TP CTIs`).
    pub true_positives: usize,
    /// Per-candidate outcomes.
    pub per_cti: Vec<CtiRepro>,
    /// Average hours to first reproduction over queue shuffles.
    pub avg_hours: Option<f64>,
    /// Worst-case hours over queue shuffles.
    pub worst_hours: Option<f64>,
}

/// Execute candidates with `schedules_per_cti` random schedules each and
/// check whether the target bug manifests; then estimate average / worst
/// reproduction latency by shuffling the CTI execution queue `shuffles`
/// times, as the paper does (1,000 shuffles).
#[allow(clippy::too_many_arguments)]
pub fn reproduce(
    kernel: &Kernel,
    corpus: &[StiProfile],
    candidates: &[(usize, usize)],
    bug: &BugSpec,
    mode: RazzerMode,
    schedules_per_cti: usize,
    exec_seconds: f64,
    seed: u64,
) -> ReproResult {
    let detector = RaceDetector::default();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut per_cti = Vec::with_capacity(candidates.len());
    for &(i, j) in candidates {
        let a = &corpus[i];
        let b = &corpus[j];
        let cti = Cti::new(a.sti.clone(), b.sti.clone());
        let mut reproduced_at = None;
        let mut run = 0usize;
        for s in 0..schedules_per_cti {
            let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
            let r = run_ct(kernel, &cti, hints, VmConfig::default());
            run += 1;
            let hit = r.hit_bug(bug.id)
                || detector
                    .detect(kernel, &r)
                    .iter()
                    .any(|rep| match_planted_bug(kernel, rep) == Some(bug.id));
            if hit {
                reproduced_at = Some(s);
                break;
            }
        }
        per_cti.push(CtiRepro { pair: (i, j), reproduced_at, schedules_run: run });
    }
    let true_positives = per_cti.iter().filter(|c| c.reproduced_at.is_some()).count();

    // Queue-shuffle latency estimation.
    let (avg_hours, worst_hours) = if true_positives == 0 {
        (None, None)
    } else {
        let full_cost = schedules_per_cti as f64 * exec_seconds;
        let mut order: Vec<usize> = (0..per_cti.len()).collect();
        let mut total = 0.0f64;
        let mut worst = 0.0f64;
        let shuffles = 1000;
        for _ in 0..shuffles {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut t = 0.0;
            for &ci in &order {
                match per_cti[ci].reproduced_at {
                    Some(s) => {
                        t += (s + 1) as f64 * exec_seconds;
                        break;
                    }
                    None => t += full_cost,
                }
            }
            total += t;
            worst = worst.max(t);
        }
        (Some(total / shuffles as f64 / 3600.0), Some(worst / 3600.0))
    };
    ReproResult {
        mode: mode.label().to_string(),
        candidates: candidates.len(),
        true_positives,
        per_cti,
        avg_hours,
        worst_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_corpus::StiFuzzer;
    use snowcat_kernel::{generate, BugKind, GenConfig};
    use snowcat_nn::{Checkpoint, PicConfig, PicModel};

    fn setup() -> (Kernel, KernelCfg, Vec<StiProfile>) {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 1);
        fz.seed_each_syscall();
        fz.fuzz(40);
        let corpus = fz.into_corpus();
        (k, cfg, corpus)
    }

    #[test]
    fn racing_blocks_resolve_for_all_bugs() {
        let (k, _, _) = setup();
        for bug in &k.bugs {
            let rb = racing_blocks(&k, bug);
            assert!(rb.is_some(), "bug {} has unresolvable racing blocks", bug.id);
            let (a, b) = rb.unwrap();
            assert_eq!(k.block(a).func, k.syscall(bug.syscalls.0).func);
            assert_eq!(k.block(b).func, k.syscall(bug.syscalls.1).func);
        }
    }

    #[test]
    fn relax_finds_at_least_as_many_candidates_as_strict() {
        let (k, cfg, corpus) = setup();
        for bug in &k.bugs {
            let strict = find_candidates(&k, &cfg, &corpus, bug, RazzerMode::Strict, None, 1);
            let relax = find_candidates(&k, &cfg, &corpus, bug, RazzerMode::Relax, None, 1);
            assert!(relax.len() >= strict.len(), "bug {}", bug.id);
        }
    }

    #[test]
    fn hard_bug_racing_block_is_urb_so_strict_misses_it() {
        // The paper's core motivation: racing instructions in URBs make
        // Razzer-Strict miss races. Our hard (bug-#7-style) bugs put the
        // owner-clearing store inside a sequentially-untaken branch.
        let (k, cfg, corpus) = setup();
        let hard = k.bugs.iter().find(|b| b.kind == BugKind::MultiOrder).unwrap();
        let strict = find_candidates(&k, &cfg, &corpus, hard, RazzerMode::Strict, None, 1);
        let relax = find_candidates(&k, &cfg, &corpus, hard, RazzerMode::Relax, None, 1);
        assert!(
            strict.len() < relax.len(),
            "strict ({}) should miss URB candidates relax finds ({})",
            strict.len(),
            relax.len()
        );
    }

    #[test]
    fn pic_filter_returns_subset_of_relax() {
        let (k, cfg, corpus) = setup();
        let bug = &k.bugs[0];
        let relax = find_candidates(&k, &cfg, &corpus, bug, RazzerMode::Relax, None, 2);
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = crate::pic::Pic::new(&ck, &k, &cfg);
        let svc = PredictorService::direct(&pic);
        let filtered = find_candidates(&k, &cfg, &corpus, bug, RazzerMode::Pic, Some(&svc), 2);
        assert!(filtered.len() <= relax.len());
        for c in &filtered {
            assert!(relax.contains(c));
        }
    }

    #[test]
    fn prefilter_never_drops_candidates_for_planted_bugs() {
        // Soundness in practice: every reach-qualified candidate for a real
        // planted bug contains the bug's carrier syscalls, so its may-race
        // density is positive and the ranking keeps it. The pre-filter may
        // only reorder — never shrink — the candidate set of a real race.
        let (k, cfg, corpus) = setup();
        let pf = RacePrefilter::new(&k, &cfg);
        for bug in &k.bugs {
            let relax = find_candidates(&k, &cfg, &corpus, bug, RazzerMode::Relax, None, 1);
            let ranked = find_candidates_prefiltered(
                &k,
                &cfg,
                &corpus,
                bug,
                RazzerMode::Relax,
                None,
                &pf,
                1,
            );
            assert_eq!(ranked.len(), relax.len(), "bug {} lost candidates", bug.id);
            for c in &ranked {
                assert!(relax.contains(c), "bug {}: ranked {c:?} not in relax set", bug.id);
            }
        }
    }

    #[test]
    fn prefilter_vetoes_locked_pseudo_race_without_inference() {
        use snowcat_analysis::LocksetAnalysis;
        use snowcat_kernel::bugs::BugDifficulty;
        use snowcat_kernel::{BugId, BugSpec, SyscallId};

        let (k, cfg, corpus) = setup();
        let pf = RacePrefilter::new(&k, &cfg);
        let locksets = LocksetAnalysis::compute(&k, &KernelCfg::build(&k));

        // Hand a consistently lock-protected access pair to Razzer as if a
        // (naive) static race scanner had flagged it: two locked accesses to
        // the same word from two different syscalls, whose blocks share no
        // may-race pair.
        let func_syscall =
            |f| k.syscalls.iter().position(|s| s.func == f).map(|i| SyscallId(i as u32));
        let mut target = None;
        'outer: for x in locksets.accesses.iter().filter(|a| a.lockset != 0) {
            for y in locksets.accesses.iter().filter(|a| a.lockset != 0) {
                let (fx, fy) = (k.block(x.loc.block).func, k.block(y.loc.block).func);
                if fx == fy || (x.lockset & y.lockset) == 0 {
                    continue;
                }
                let (Some(sx), Some(sy)) = (func_syscall(fx), func_syscall(fy)) else {
                    continue;
                };
                if !pf.blocks_may_race(x.loc.block, y.loc.block) {
                    target = Some((sx, sy, x.loc, y.loc));
                    break 'outer;
                }
            }
        }
        let (sx, sy, lx, ly) = target.expect("kernel has consistently locked cross-syscall pairs");
        let pseudo = BugSpec {
            id: BugId(9999),
            kind: BugKind::DataRace,
            difficulty: BugDifficulty::Easy,
            subsystem: k.syscall(sx).subsystem,
            summary: "pseudo: consistently locked pair".into(),
            syscalls: (sx, sy),
            racing_instrs: vec![lx, ly],
            harmful: false,
        };

        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");

        // Plain Razzer-PIC burns inferences on the statically impossible
        // target; the pre-filtered variant answers from the veto alone.
        let pic_plain = crate::pic::Pic::new(&ck, &k, &cfg);
        let svc_plain = PredictorService::direct(&pic_plain);
        let plain =
            find_candidates(&k, &cfg, &corpus, &pseudo, RazzerMode::Pic, Some(&svc_plain), 2);
        assert!(pic_plain.inferences() > 0, "plain PIC mode should have scored candidates");

        let pic_pref = crate::pic::Pic::new(&ck, &k, &cfg);
        let svc_pref = PredictorService::direct(&pic_pref);
        let filtered = find_candidates_prefiltered(
            &k,
            &cfg,
            &corpus,
            &pseudo,
            RazzerMode::Pic,
            Some(&svc_pref),
            &pf,
            2,
        );
        assert!(filtered.is_empty(), "veto must reject the locked pair");
        assert_eq!(pic_pref.inferences(), 0, "veto must spend zero inferences");
        // Nothing reproducible was lost: the dropped candidates could never
        // race (must-locksets are sound), so `plain`'s survivors are all
        // false positives anyway.
        let _ = plain;
    }

    #[test]
    fn reproduce_reports_latency_only_with_tps() {
        let (k, cfg, corpus) = setup();
        // An easy OV bug should reproduce within a modest schedule budget.
        let bug = k.bugs.iter().find(|b| b.kind == BugKind::OrderViolation).unwrap();
        let candidates = find_candidates(&k, &cfg, &corpus, bug, RazzerMode::Relax, None, 3);
        assert!(!candidates.is_empty());
        let res = reproduce(&k, &corpus, &candidates, bug, RazzerMode::Relax, 60, 2.8, 4);
        assert_eq!(res.candidates, candidates.len());
        if res.true_positives > 0 {
            assert!(res.avg_hours.is_some());
            // Equal-latency queues can make avg exceed worst by float
            // accumulation error only.
            assert!(res.worst_hours.unwrap() + 1e-6 >= res.avg_hours.unwrap());
        } else {
            assert!(res.avg_hours.is_none());
        }
    }
}
