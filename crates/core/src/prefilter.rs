//! Static may-race pre-filter for CT candidate ranking.
//!
//! Razzer-PIC spends one GNN inference batch per candidate CTI. Many of
//! those candidates are statically hopeless: the target instruction pair is
//! consistently lock-protected, or the candidate STIs invoke syscalls whose
//! reachable accesses cannot overlap. The must-lockset analysis in
//! `snowcat-analysis` proves both facts *soundly* (its may-race set
//! over-approximates every dynamic race), so dropping such candidates
//! before GNN scoring can never lose a reproducible race — it only removes
//! inference work.
//!
//! [`RacePrefilter`] packages the static results for the testing workflow:
//! a target-level veto ([`RacePrefilter::blocks_may_race`]), a per-CTI
//! density score ([`RacePrefilter::sti_density`]) and a candidate ranking
//! ([`RacePrefilter::rank`]) used by
//! [`crate::razzer::find_candidates_prefiltered`].

use snowcat_analysis::{LocksetAnalysis, MayRace, ValueFlow};
use snowcat_cfg::KernelCfg;
use snowcat_corpus::StiProfile;
use snowcat_kernel::{BlockId, Kernel};
use snowcat_vm::{BitSet, Sti};
use std::sync::atomic::{AtomicU64, Ordering};

/// Static may-race knowledge, packaged for candidate filtering.
///
/// The filter keeps two runtime counters — candidates *vetoed* (dropped
/// without a prediction) and candidates *surviving* into GNN scoring — so
/// campaigns can report how much inference work the static layer saved.
pub struct RacePrefilter {
    may_race: MayRace,
    vetoes: AtomicU64,
    survivors: AtomicU64,
}

impl RacePrefilter {
    /// Run the static analysis and build the pre-filter on the
    /// alias-*refined* may-race set (value-flow pruned; still a sound
    /// over-approximation of every dynamic race).
    pub fn new(kernel: &Kernel, cfg: &KernelCfg) -> Self {
        let locksets = LocksetAnalysis::compute(kernel, cfg);
        let vf = ValueFlow::compute(kernel, cfg, &locksets);
        let (_coarse, refined) = MayRace::compute_refined(kernel, cfg, &locksets, &vf);
        Self::from_may_race(refined)
    }

    /// Build the pre-filter on the alias-blind (PR 3) may-race set — the
    /// `--coarse` compatibility mode and the baseline for precision
    /// comparisons.
    pub fn new_coarse(kernel: &Kernel, cfg: &KernelCfg) -> Self {
        let locksets = LocksetAnalysis::compute(kernel, cfg);
        Self::from_may_race(MayRace::compute(kernel, cfg, &locksets))
    }

    /// Wrap an already-computed may-race set.
    pub fn from_may_race(may_race: MayRace) -> Self {
        Self { may_race, vetoes: AtomicU64::new(0), survivors: AtomicU64::new(0) }
    }

    /// Candidates dropped by this filter (target vetoes + zero-density
    /// candidates) without spending a prediction.
    pub fn vetoed(&self) -> u64 {
        self.vetoes.load(Ordering::Relaxed)
    }

    /// Candidates that passed the static cuts into GNN scoring.
    pub fn survivors(&self) -> u64 {
        self.survivors.load(Ordering::Relaxed)
    }

    /// Record a target-level veto (used by
    /// [`crate::razzer::find_candidates_prefiltered`] when the racing-block
    /// pair itself cannot race and the whole reach set is skipped).
    pub(crate) fn count_target_veto(&self, dropped: u64) {
        self.vetoes.fetch_add(dropped, Ordering::Relaxed);
    }

    /// The underlying may-race set.
    pub fn may_race(&self) -> &MayRace {
        &self.may_race
    }

    /// Blocks participating in any may-race pair, for
    /// [`crate::pic::Pic::with_may_race_blocks`].
    pub fn may_race_blocks(&self) -> BitSet {
        self.may_race.blocks().clone()
    }

    /// Whether any may-race pair connects the two blocks (in either
    /// orientation). `false` means the static analysis *proves* no dynamic
    /// race between instructions of these blocks — e.g. every conflicting
    /// access pair shares a must-held lock.
    pub fn blocks_may_race(&self, a: BlockId, b: BlockId) -> bool {
        self.may_race
            .iter()
            .any(|k| (k.0.block == a && k.1.block == b) || (k.0.block == b && k.1.block == a))
    }

    /// May-race density of a CTI: total density over all syscall pairs the
    /// two STIs can run concurrently. Zero means no access of `a`'s
    /// syscalls can race any access of `b`'s.
    pub fn sti_density(&self, a: &Sti, b: &Sti) -> u64 {
        let mut total = 0u64;
        for ca in &a.calls {
            for cb in &b.calls {
                total += self.may_race.density(ca.syscall, cb.syscall);
            }
        }
        total
    }

    /// Rank candidate CTIs (corpus index pairs) by descending may-race
    /// density, dropping zero-density candidates entirely. The sort is
    /// stable, so equal-density candidates keep their discovery order.
    pub fn rank(
        &self,
        corpus: &[StiProfile],
        candidates: &[(usize, usize)],
    ) -> Vec<(usize, usize)> {
        let mut scored: Vec<((usize, usize), u64)> = candidates
            .iter()
            .map(|&(i, j)| ((i, j), self.sti_density(&corpus[i].sti, &corpus[j].sti)))
            .filter(|&(_, d)| d > 0)
            .collect();
        scored.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
        self.vetoes.fetch_add((candidates.len() - scored.len()) as u64, Ordering::Relaxed);
        self.survivors.fetch_add(scored.len() as u64, Ordering::Relaxed);
        scored.into_iter().map(|(pair, _)| pair).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_corpus::StiFuzzer;
    use snowcat_kernel::{generate, GenConfig};

    fn setup() -> (Kernel, KernelCfg, Vec<StiProfile>) {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 1);
        fz.seed_each_syscall();
        fz.fuzz(20);
        let corpus = fz.into_corpus();
        (k, cfg, corpus)
    }

    #[test]
    fn planted_racing_blocks_survive_the_target_veto() {
        let (k, cfg, _) = setup();
        let pf = RacePrefilter::new(&k, &cfg);
        for bug in &k.bugs {
            let (a, b) = crate::razzer::racing_blocks(&k, bug).unwrap();
            assert!(pf.blocks_may_race(a, b), "bug {} vetoed statically", bug.id);
        }
    }

    #[test]
    fn carrier_syscall_pairs_have_positive_density() {
        let (k, cfg, _) = setup();
        let pf = RacePrefilter::new(&k, &cfg);
        for bug in &k.bugs {
            let a = Sti::new(vec![snowcat_vm::SyscallInvocation {
                syscall: bug.syscalls.0,
                args: [0; 3],
            }]);
            let b = Sti::new(vec![snowcat_vm::SyscallInvocation {
                syscall: bug.syscalls.1,
                args: [0; 3],
            }]);
            assert!(pf.sti_density(&a, &b) > 0, "bug {} carriers scored zero", bug.id);
        }
    }

    #[test]
    fn rank_is_a_stable_descending_permutation_of_positive_candidates() {
        let (k, cfg, corpus) = setup();
        let pf = RacePrefilter::new(&k, &cfg);
        let candidates: Vec<(usize, usize)> =
            (0..corpus.len().min(8)).flat_map(|i| (0..4).map(move |j| (i, j))).collect();
        let ranked = pf.rank(&corpus, &candidates);
        assert!(ranked.len() <= candidates.len());
        for pair in &ranked {
            assert!(candidates.contains(pair));
            assert!(pf.sti_density(&corpus[pair.0].sti, &corpus[pair.1].sti) > 0);
        }
        let densities: Vec<u64> =
            ranked.iter().map(|&(i, j)| pf.sti_density(&corpus[i].sti, &corpus[j].sti)).collect();
        assert!(densities.windows(2).all(|w| w[0] >= w[1]), "not descending: {densities:?}");
    }

    #[test]
    fn refined_prefilter_spends_strictly_fewer_inferences_than_coarse() {
        use crate::razzer::{find_candidates_prefiltered, RazzerMode};
        use snowcat_kernel::bugs::BugDifficulty;
        use snowcat_kernel::{BugId, BugKind, BugSpec, SyscallId};
        use snowcat_nn::{Checkpoint, PicConfig, PicModel};

        let (k, cfg, corpus) = setup();
        let coarse = RacePrefilter::new_coarse(&k, &cfg);
        let refined = RacePrefilter::new(&k, &cfg);
        assert!(
            refined.may_race().len() < coarse.may_race().len(),
            "refined set must shrink: {} vs {}",
            refined.may_race().len(),
            coarse.may_race().len()
        );

        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let spend = |pf: &RacePrefilter, bug: &BugSpec| -> u64 {
            let pic = crate::pic::Pic::new(&ck, &k, &cfg);
            let svc = crate::predictor::PredictorService::direct(&pic);
            let _ = find_candidates_prefiltered(
                &k,
                &cfg,
                &corpus,
                bug,
                RazzerMode::Pic,
                Some(&svc),
                pf,
                2,
            );
            pic.inferences()
        };

        // Hand Razzer the false races the alias refinement disproves: coarse
        // may-race pairs whose block pair carries *no* refined pair (distinct
        // fields of one region, conflated by the field-insensitive pass).
        let func_syscall =
            |f| k.syscalls.iter().position(|s| s.func == f).map(|i| SyscallId(i as u32));
        let mut coarse_total = 0u64;
        let mut refined_total = 0u64;
        let mut pseudo_targets = 0u64;
        // Walk the keys in sorted order: `MayRace::iter` follows a randomly
        // seeded hash set, and the pick must not vary between processes.
        let mut coarse_keys: Vec<_> = coarse.may_race().iter().copied().collect();
        coarse_keys.sort_unstable();
        for key in coarse_keys {
            if refined.blocks_may_race(key.0.block, key.1.block) {
                continue;
            }
            let (fx, fy) = (k.block(key.0.block).func, k.block(key.1.block).func);
            let (Some(sx), Some(sy)) = (func_syscall(fx), func_syscall(fy)) else {
                continue;
            };
            let pseudo = BugSpec {
                id: BugId(9000 + pseudo_targets as u16),
                kind: BugKind::DataRace,
                difficulty: BugDifficulty::Easy,
                subsystem: k.syscall(sx).subsystem,
                summary: "pseudo: alias-disproved pair".into(),
                syscalls: (sx, sy),
                racing_instrs: vec![key.0, key.1],
                harmful: false,
            };
            // `racing_blocks` keeps the last racing instruction per carrier
            // function, so a key with both accesses in one function can
            // collapse onto a block pair the refined set keeps: skip it.
            if crate::razzer::racing_blocks(&k, &pseudo) != Some((key.0.block, key.1.block)) {
                continue;
            }
            coarse_total += spend(&coarse, &pseudo);
            refined_total += spend(&refined, &pseudo);
            pseudo_targets += 1;
            if pseudo_targets >= 8 {
                break;
            }
        }
        assert!(pseudo_targets > 0, "refinement should disprove some block pair entirely");
        assert_eq!(refined_total, 0, "refined filter must veto alias-disproved targets");
        assert!(
            coarse_total > refined_total,
            "alias refinement must cut GNN inferences: refined {refined_total} vs coarse {coarse_total}"
        );
        // Planted bugs still survive into scoring under the refined filter,
        // and the runtime counters expose both sides of the cut.
        for bug in &k.bugs {
            let _ = spend(&refined, bug);
        }
        assert!(refined.survivors() > 0, "planted-bug candidates must survive");
        assert!(refined.vetoed() > 0, "alias-disproved targets must be counted as vetoes");
    }

    #[test]
    fn may_race_blocks_match_the_analysis_bitset() {
        let (k, cfg, _) = setup();
        let pf = RacePrefilter::new(&k, &cfg);
        let blocks = pf.may_race_blocks();
        assert!(blocks.count() > 0);
        for key in pf.may_race().iter() {
            assert!(blocks.contains(key.0.block.index()));
            assert!(blocks.contains(key.1.block.index()));
        }
    }
}
