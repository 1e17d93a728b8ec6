//! Static may-race analysis.
//!
//! A pair of static memory accesses *may race* when
//!
//! 1. both live in code statically reachable from some syscall (so two
//!    concurrently running STIs can execute them — two STIs may invoke the
//!    same syscall, so no "different syscall" restriction applies),
//! 2. their [`AddrExpr::static_range`](snowcat_kernel::AddrExpr::static_range)s
//!    overlap,
//! 3. at least one is a write, and
//! 4. their must-hold locksets are disjoint.
//!
//! Because the must-lockset under-approximates every dynamic lockset and
//! dynamic coverage is a subset of static reachability, the may-race set
//! **over-approximates** the dynamic [`RaceKey`]s `snowcat-race` can ever
//! report (dynamic ⊆ static — checked by the crate's soundness proptest).
//! That makes it safe to use as a pre-filter: a CTI whose syscalls span no
//! may-race pair cannot produce a race, so the Razzer-PIC queue can skip
//! GNN scoring for it entirely.

use crate::lockset::LocksetAnalysis;
use crate::valueflow::ValueFlow;
use snowcat_cfg::KernelCfg;
use snowcat_kernel::{BlockId, Kernel, SyscallId};
use snowcat_race::RaceKey;
use snowcat_vm::BitSet;
use std::collections::{BTreeMap, HashSet};

/// The static may-race over-approximation for one kernel.
#[derive(Debug, Clone)]
pub struct MayRace {
    keys: HashSet<RaceKey>,
    blocks: BitSet,
    /// Flattened `num_syscalls × num_syscalls` density matrix.
    density: Vec<u64>,
    /// Per-block count of may-race pairs touching the block.
    degree: Vec<u64>,
    num_syscalls: usize,
}

/// Accumulates one may-race set during the sweep.
struct Builder {
    keys: HashSet<RaceKey>,
    blocks: BitSet,
    pair_count: BTreeMap<(BlockId, BlockId), u64>,
    degree: Vec<u64>,
}

impl Builder {
    fn new(num_blocks: usize) -> Self {
        Self {
            keys: HashSet::new(),
            blocks: BitSet::new(num_blocks),
            pair_count: BTreeMap::new(),
            degree: vec![0u64; num_blocks],
        }
    }

    fn insert(&mut self, x: &crate::lockset::AccessInfo, y: &crate::lockset::AccessInfo) {
        if self.keys.insert(RaceKey::new(x.loc, y.loc)) {
            self.blocks.insert(x.loc.block.index());
            self.blocks.insert(y.loc.block.index());
            *self.pair_count.entry((x.loc.block, y.loc.block)).or_insert(0) += 1;
            self.degree[x.loc.block.index()] += 1;
            if y.loc.block != x.loc.block {
                self.degree[y.loc.block.index()] += 1;
            }
        }
    }

    fn finish(self, block_mask: &[Vec<u64>], n_sys: usize) -> MayRace {
        // Expand block-pair counts into the syscall×syscall density matrix.
        let mut density = vec![0u64; n_sys * n_sys];
        for (&(bx, by), &c) in &self.pair_count {
            for s in mask_bits(&block_mask[bx.index()]) {
                for t in mask_bits(&block_mask[by.index()]) {
                    density[s * n_sys + t] += c;
                    density[t * n_sys + s] += c;
                }
            }
        }
        MayRace {
            keys: self.keys,
            blocks: self.blocks,
            density,
            degree: self.degree,
            num_syscalls: n_sys,
        }
    }
}

impl MayRace {
    /// Enumerate the alias-blind (PR 3) may-race set from the lockset
    /// analysis results.
    pub fn compute(kernel: &Kernel, cfg: &KernelCfg, locksets: &LocksetAnalysis) -> Self {
        Self::compute_impl(kernel, cfg, locksets, None).0
    }

    /// Enumerate both the alias-blind set and the **alias-refined** set in
    /// one sweep, returning `(coarse, refined)`. The refined set keeps only
    /// pairs whose value-flow [`crate::valueflow::AccessPattern`]s share a
    /// word, so it is a subset of the coarse set *by construction* (each
    /// refined pair is inserted from the same candidate enumeration, behind
    /// one extra filter) and still over-approximates the dynamic race set
    /// (patterns cover every dynamically resolvable address).
    pub fn compute_refined(
        kernel: &Kernel,
        cfg: &KernelCfg,
        locksets: &LocksetAnalysis,
        vf: &ValueFlow,
    ) -> (Self, Self) {
        let (coarse, refined) = Self::compute_impl(kernel, cfg, locksets, Some(vf));
        (coarse, refined.expect("refined set requested"))
    }

    fn compute_impl(
        kernel: &Kernel,
        cfg: &KernelCfg,
        locksets: &LocksetAnalysis,
        vf: Option<&ValueFlow>,
    ) -> (Self, Option<Self>) {
        let n_sys = kernel.syscalls.len();
        let words = n_sys.div_ceil(64);

        // Per-block bitmask of the syscalls that statically reach it.
        let mut block_mask: Vec<Vec<u64>> = vec![vec![0u64; words]; kernel.num_blocks()];
        for (si, reach) in cfg.syscall_reachability(kernel).iter().enumerate() {
            for b in reach.iter() {
                block_mask[b][si / 64] |= 1 << (si % 64);
            }
        }

        // Accesses reachable from at least one syscall, ordered by the start
        // of their static address range (stable within equal starts because
        // the lockset walk emits in (block, idx) order).
        let mut accs: Vec<(u32, u32, usize)> = locksets
            .accesses
            .iter()
            .enumerate()
            .filter(|(_, a)| block_mask[a.loc.block.index()].iter().any(|&w| w != 0))
            .map(|(i, a)| {
                let (s, e) = a.addr.static_range();
                // A zero-stride Indexed expression has an empty static range
                // but still touches its base word dynamically — widen it.
                (s.0, e.0.max(s.0 + 1), i)
            })
            .collect();
        accs.sort_by_key(|&(s, _, i)| (s, i));

        let mut coarse = Builder::new(kernel.num_blocks());
        let mut refined = vf.map(|_| Builder::new(kernel.num_blocks()));
        for (pos, &(start_i, end_i, i)) in accs.iter().enumerate() {
            debug_assert!(start_i <= end_i);
            let x = &locksets.accesses[i];
            for &(start_j, _, j) in &accs[pos..] {
                if start_j >= end_i {
                    break; // starts are sorted: no later access overlaps x
                }
                let y = &locksets.accesses[j];
                if !(x.is_write || y.is_write) || (x.lockset & y.lockset) != 0 {
                    continue;
                }
                coarse.insert(x, y);
                if let (Some(r), Some(vf)) = (refined.as_mut(), vf) {
                    if vf.may_alias(i, j) {
                        r.insert(x, y);
                    }
                }
            }
        }

        let refined = refined.map(|r| r.finish(&block_mask, n_sys));
        (coarse.finish(&block_mask, n_sys), refined)
    }

    /// Membership test for a (possibly dynamic) race key.
    pub fn contains(&self, key: &RaceKey) -> bool {
        self.keys.contains(key)
    }

    /// Number of unique may-race pairs.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the kernel has no may-race pair at all.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterate the may-race keys (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &RaceKey> {
        self.keys.iter()
    }

    /// Blocks containing at least one may-racing access — the per-node
    /// `may_race` feature bit the CT-graph builder stamps on vertices.
    pub fn blocks(&self) -> &BitSet {
        &self.blocks
    }

    /// Whether `b` contains a may-racing access.
    pub fn block_may_race(&self, b: BlockId) -> bool {
        self.blocks.contains(b.index())
    }

    /// Number of may-race pairs with at least one access in block `b` —
    /// the per-block race-degree feature channel.
    pub fn block_degree(&self, b: BlockId) -> u64 {
        self.degree[b.index()]
    }

    /// May-race density between two syscalls: the number of may-race pairs
    /// with one access reachable from `a` and the other from `b`.
    pub fn density(&self, a: SyscallId, b: SyscallId) -> u64 {
        self.density[a.index() * self.num_syscalls + b.index()]
    }
}

/// Ascending set-bit indices of a multi-word bitmask.
fn mask_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut m = w;
        std::iter::from_fn(move || {
            if m == 0 {
                None
            } else {
                let i = m.trailing_zeros() as usize;
                m &= m - 1;
                Some(wi * 64 + i)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_kernel::{generate, AddrExpr, GenConfig, Instr, InstrLoc, KernelBuilder, Reg};

    fn analyze(k: &Kernel) -> (KernelCfg, LocksetAnalysis) {
        let cfg = KernelCfg::build(k);
        let an = LocksetAnalysis::compute(k, &cfg);
        (cfg, an)
    }

    #[test]
    fn unlocked_write_pair_may_race() {
        let mut kb = KernelBuilder::new();
        let sub = kb.add_subsystem("t");
        let a = kb.alloc_region(sub, snowcat_kernel::RegionKind::Flags, 1, "t.flags", 0);
        let f = kb.begin_func("w", sub);
        kb.emit(Instr::Store { addr: AddrExpr::Fixed(a), src: Reg(0) });
        let w_loc = kb.last_loc();
        kb.end_func();
        kb.add_syscall("w", f, sub, vec![]);
        let g = kb.begin_func("r", sub);
        kb.emit(Instr::Load { dst: Reg(0), addr: AddrExpr::Fixed(a) });
        let r_loc = kb.last_loc();
        kb.end_func();
        kb.add_syscall("r", g, sub, vec![]);
        let k = kb.finish("t");
        let (cfg, an) = analyze(&k);
        let mr = MayRace::compute(&k, &cfg, &an);
        assert!(mr.contains(&RaceKey::new(w_loc, r_loc)));
        // The write can also race against itself in two threads.
        assert!(mr.contains(&RaceKey::new(w_loc, w_loc)));
        // But the read cannot self-race (no write involved).
        assert!(!mr.contains(&RaceKey::new(r_loc, r_loc)));
        assert!(mr.block_may_race(w_loc.block));
        assert!(mr.density(SyscallId(0), SyscallId(1)) > 0);
        assert!(mr.density(SyscallId(1), SyscallId(1)) == 0, "read-only syscall self-pair");
    }

    #[test]
    fn consistent_locking_suppresses_the_pair() {
        let mut kb = KernelBuilder::new();
        let sub = kb.add_subsystem("t");
        let a = kb.alloc_region(sub, snowcat_kernel::RegionKind::Flags, 1, "t.flags", 0);
        let l = kb.alloc_lock(sub);
        let mut locs = Vec::new();
        for name in ["w", "r"] {
            let f = kb.begin_func(name, sub);
            kb.emit(Instr::Lock { lock: l });
            if name == "w" {
                kb.emit(Instr::Store { addr: AddrExpr::Fixed(a), src: Reg(0) });
            } else {
                kb.emit(Instr::Load { dst: Reg(0), addr: AddrExpr::Fixed(a) });
            }
            locs.push(kb.last_loc());
            kb.emit(Instr::Unlock { lock: l });
            kb.end_func();
            kb.add_syscall(name, f, sub, vec![]);
        }
        let k = kb.finish("t");
        let (cfg, an) = analyze(&k);
        let mr = MayRace::compute(&k, &cfg, &an);
        assert!(!mr.contains(&RaceKey::new(locs[0], locs[1])), "both hold the same lock");
        assert!(mr.is_empty());
    }

    #[test]
    fn disjoint_addresses_do_not_race() {
        let mut kb = KernelBuilder::new();
        let sub = kb.add_subsystem("t");
        let a = kb.alloc_region(sub, snowcat_kernel::RegionKind::Flags, 2, "t.flags", 0);
        let mut locs = Vec::new();
        for (name, off) in [("w0", 0u32), ("w1", 1u32)] {
            let f = kb.begin_func(name, sub);
            kb.emit(Instr::Store { addr: AddrExpr::Fixed(a.offset(off)), src: Reg(0) });
            locs.push(kb.last_loc());
            kb.end_func();
            kb.add_syscall(name, f, sub, vec![]);
        }
        let k = kb.finish("t");
        let (cfg, an) = analyze(&k);
        let mr = MayRace::compute(&k, &cfg, &an);
        assert!(!mr.contains(&RaceKey::new(locs[0], locs[1])));
    }

    #[test]
    fn code_unreachable_from_syscalls_is_excluded() {
        let mut kb = KernelBuilder::new();
        let sub = kb.add_subsystem("t");
        let a = kb.alloc_region(sub, snowcat_kernel::RegionKind::Flags, 1, "t.flags", 0);
        // A function with a racy store that no syscall references.
        kb.begin_func("orphan", sub);
        kb.emit(Instr::Store { addr: AddrExpr::Fixed(a), src: Reg(0) });
        let orphan_loc = kb.last_loc();
        kb.end_func();
        let f = kb.begin_func("w", sub);
        kb.emit(Instr::Store { addr: AddrExpr::Fixed(a), src: Reg(0) });
        kb.end_func();
        kb.add_syscall("w", f, sub, vec![]);
        let k = kb.finish("t");
        let (cfg, an) = analyze(&k);
        let mr = MayRace::compute(&k, &cfg, &an);
        assert!(!mr.contains(&RaceKey::new(orphan_loc, orphan_loc)));
        assert!(!mr.iter().any(|key| key.0 == orphan_loc || key.1 == orphan_loc));
    }

    #[test]
    fn default_kernel_covers_every_planted_racing_pair() {
        // Every planted bug records racing instruction pairs that can
        // dynamically race, so the static over-approximation must contain
        // the cross-carrier pairs formed from memory accesses among them.
        let k = generate(&GenConfig::default());
        let (cfg, an) = analyze(&k);
        let mr = MayRace::compute(&k, &cfg, &an);
        assert!(!mr.is_empty());
        for bug in &k.bugs {
            let func_of = |loc: InstrLoc| k.block(loc.block).func;
            let mem: Vec<InstrLoc> = bug
                .racing_instrs
                .iter()
                .copied()
                .filter(|&l| k.instr(l).is_some_and(|i| i.is_mem_access()))
                .collect();
            let fa = k.syscall(bug.syscalls.0).func;
            let mut cross_pair_found = false;
            for &x in &mem {
                for &y in &mem {
                    if func_of(x) == fa && func_of(y) != fa && mr.contains(&RaceKey::new(x, y)) {
                        cross_pair_found = true;
                    }
                }
            }
            assert!(cross_pair_found, "bug {} racing pair missing from may-race set", bug.id);
        }
        // Densities are symmetric.
        for bug in &k.bugs {
            let (sa, sb) = bug.syscalls;
            assert_eq!(mr.density(sa, sb), mr.density(sb, sa));
            assert!(mr.density(sa, sb) > 0, "carrier pair must have positive density");
        }
    }

    #[test]
    fn refined_set_prunes_distinct_fields_but_keeps_true_aliases() {
        // Two argument-indexed accesses to *different fields* of the same
        // object array: their static ranges overlap (coarse pair) but their
        // progressions are disjoint (refined prunes). A third access to the
        // same field stays paired in both sets.
        let mut kb = KernelBuilder::new();
        let sub = kb.add_subsystem("t");
        // One spare word keeps the offset-1 field's static range in bounds.
        let base = kb.alloc_region(sub, snowcat_kernel::RegionKind::ObjectArray, 25, "t.obj", 0);
        let field = |off: u32, reg: Reg| AddrExpr::Indexed {
            base: snowcat_kernel::Addr(base.0 + off),
            reg,
            stride: 6,
            len: 4,
        };
        let mut locs = Vec::new();
        for (name, off) in [("w0", 0u32), ("w1", 1u32), ("w2", 0u32)] {
            let f = kb.begin_func(name, sub);
            kb.emit(Instr::Store { addr: field(off, Reg(0)), src: Reg(1) });
            locs.push(kb.last_loc());
            kb.end_func();
            kb.add_syscall(name, f, sub, vec![3]);
        }
        let k = kb.finish("t");
        let (cfg, an) = analyze(&k);
        let vf = crate::valueflow::ValueFlow::compute(&k, &cfg, &an);
        let (coarse, refined) = MayRace::compute_refined(&k, &cfg, &an, &vf);
        let cross = RaceKey::new(locs[0], locs[1]);
        let same = RaceKey::new(locs[0], locs[2]);
        assert!(coarse.contains(&cross), "alias-blind set keeps the field-crossing pair");
        assert!(!refined.contains(&cross), "refined set prunes the field-crossing pair");
        assert!(coarse.contains(&same) && refined.contains(&same));
        assert!(refined.len() < coarse.len());
        assert!(refined.block_degree(locs[0].block) < coarse.block_degree(locs[0].block));
    }

    #[test]
    fn refined_is_strict_subset_on_generated_kernels() {
        for version in [snowcat_kernel::KernelVersion::V5_12, snowcat_kernel::KernelVersion::V6_1] {
            let k = version.spec(42).build();
            let version = version.tag();
            let (cfg, an) = analyze(&k);
            let vf = crate::valueflow::ValueFlow::compute(&k, &cfg, &an);
            let (coarse, refined) = MayRace::compute_refined(&k, &cfg, &an, &vf);
            for key in refined.iter() {
                assert!(coarse.contains(key), "{version}: refined ⊄ coarse at {key:?}");
            }
            assert!(
                refined.len() < coarse.len(),
                "{version}: refinement must prune pairs ({} vs {})",
                refined.len(),
                coarse.len()
            );
            // Zero planted-bug candidates dropped: every cross-carrier
            // racing pair survives refinement.
            for bug in &k.bugs {
                let mem: Vec<_> = bug
                    .racing_instrs
                    .iter()
                    .copied()
                    .filter(|&l| k.instr(l).is_some_and(|i| i.is_mem_access()))
                    .collect();
                let fa = k.syscall(bug.syscalls.0).func;
                let func_of = |loc: InstrLoc| k.block(loc.block).func;
                let covered = mem.iter().any(|&x| {
                    mem.iter().any(|&y| {
                        func_of(x) == fa
                            && func_of(y) != fa
                            && refined.contains(&RaceKey::new(x, y))
                    })
                });
                assert!(covered, "{version}: bug {} refined away", bug.id);
            }
        }
    }
}
