//! Interprocedural value-flow / alias analysis.
//!
//! A flow-sensitive **interval propagation** over the 16 VM registers,
//! mirroring the lockset pass's structure: absolute states are seeded at
//! syscall entries and pushed through terminator edges and `Call` sites in
//! one whole-kernel worklist fixpoint. The VM's calling convention makes
//! the summary phase degenerate: a `Call` pushes a *copy* of the caller's
//! register file and callee writes never propagate back, so the transfer
//! summary of every function is the identity on caller registers and the
//! interprocedural flow is purely forward (callee entries join the caller
//! state at each call site). The abstract state tracks, per register, a
//! signed interval `[lo, hi]` with ⊤ = the full `i64` range:
//!
//! * syscall entry: `r0..r2` = ⊤ (fuzzer-chosen arguments), `r3..r15` =
//!   exactly `[0, 0]` (the VM zeroes scratch registers),
//! * `Const` is exact, `BinOp` uses interval arithmetic (⊤ on overflow;
//!   bitwise ops are exact only for singleton operands),
//! * `Load` destroys the destination (shared memory is unordered),
//! * joins widen to ⊤ after a bounded number of refinements per block, so
//!   loops terminate.
//!
//! On top of the fixpoint, every static memory access is resolved to an
//! [`AccessPattern`] — an arithmetic progression `start + i·stride`,
//! `i < count` of words the access may touch. Patterns are **sound**
//! (every dynamically resolved address is in the pattern, because the
//! interval covers every dynamic register value and `Indexed` resolution
//! wraps the index into `[0, len)`) and **no coarser than
//! [`snowcat_kernel::AddrExpr::static_range`]** (the progression is a
//! subset of the full range), which is what puts the refined may-race set
//! between the dynamic race set and the PR 3 set. Accesses whose patterns
//! overlap are merged into **alias classes** (union-find), giving the
//! per-block alias-class density channel the CT-graph feature schema
//! consumes, and singleton store operands are recorded as **constant
//! stores** for the store-to-constant-address conflict lint.

use crate::lockset::LocksetAnalysis;
use snowcat_cfg::KernelCfg;
use snowcat_kernel::ids::NUM_REGS;
use snowcat_kernel::{AddrExpr, BinOp, BlockId, Instr, InstrLoc, Kernel};
use std::collections::VecDeque;

/// A signed value interval; ⊤ is the full `i64` range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: i64,
    /// Largest possible value.
    pub hi: i64,
}

impl Interval {
    /// The unconstrained interval (every `i64`).
    pub const TOP: Interval = Interval { lo: i64::MIN, hi: i64::MAX };

    /// The exact singleton interval `[v, v]`.
    pub fn exact(v: i64) -> Self {
        Self { lo: v, hi: v }
    }

    /// The single value, if the interval is a singleton.
    pub fn singleton(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Least upper bound.
    fn join(self, o: Self) -> Self {
        Self { lo: self.lo.min(o.lo), hi: self.hi.max(o.hi) }
    }

    /// Widening join: any growing bound jumps straight to the ⊤ bound, so
    /// ascending chains are finite.
    fn widen_join(self, o: Self) -> Self {
        Self {
            lo: if o.lo < self.lo { i64::MIN } else { self.lo },
            hi: if o.hi > self.hi { i64::MAX } else { self.hi },
        }
    }

    /// Sound abstract counterpart of [`BinOp::eval`]. Arithmetic that may
    /// overflow (the VM wraps) degrades to ⊤; bitwise operations are exact
    /// for singletons only.
    fn binop(op: BinOp, a: Self, b: Self) -> Self {
        match op {
            BinOp::Add => match (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
                (Some(lo), Some(hi)) => Self { lo, hi },
                _ => Self::TOP,
            },
            BinOp::Sub => match (a.lo.checked_sub(b.hi), a.hi.checked_sub(b.lo)) {
                (Some(lo), Some(hi)) => Self { lo, hi },
                _ => Self::TOP,
            },
            BinOp::Mul => {
                let mut lo = i64::MAX;
                let mut hi = i64::MIN;
                for x in [a.lo, a.hi] {
                    for y in [b.lo, b.hi] {
                        match x.checked_mul(y) {
                            Some(v) => {
                                lo = lo.min(v);
                                hi = hi.max(v);
                            }
                            None => return Self::TOP,
                        }
                    }
                }
                Self { lo, hi }
            }
            BinOp::And | BinOp::Or | BinOp::Xor => match (a.singleton(), b.singleton()) {
                (Some(x), Some(y)) => Self::exact(op.eval(x, y)),
                _ => Self::TOP,
            },
        }
    }
}

/// Abstract register file: one interval per VM register.
type RegState = [Interval; NUM_REGS];

/// Register state at a syscall entry: arguments unconstrained, scratch
/// registers exactly zero (matching `snowcat-vm`'s frame initialization).
fn syscall_entry_state() -> RegState {
    let mut s = [Interval::exact(0); NUM_REGS];
    s[0] = Interval::TOP;
    s[1] = Interval::TOP;
    s[2] = Interval::TOP;
    s
}

/// Apply one instruction's effect on the abstract register file. `Call` is
/// the identity on the *caller's* registers (the callee gets a copy).
fn step(ins: &Instr, s: &mut RegState) {
    match ins {
        Instr::Const { dst, val } => s[dst.index()] = Interval::exact(*val),
        Instr::BinOp { op, dst, lhs, rhs } => {
            s[dst.index()] = Interval::binop(*op, s[lhs.index()], s[rhs.index()]);
        }
        Instr::Load { dst, .. } => s[dst.index()] = Interval::TOP,
        _ => {}
    }
}

/// Joins a block tolerates before its entry state is widened to ⊤ bounds.
const WIDEN_AFTER: u32 = 3;

/// Progressions longer than this fall back to range-overlap (sound but
/// coarse) instead of element enumeration.
const ENUM_CAP: u32 = 4096;

/// The set of words one static access may touch, as an arithmetic
/// progression `{ start + i·stride | 0 ≤ i < count }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessPattern {
    /// First word.
    pub start: u32,
    /// Distance between consecutive words (≥ 1).
    pub stride: u32,
    /// Number of words (≥ 1).
    pub count: u32,
}

impl AccessPattern {
    /// A single-word pattern.
    pub fn word(start: u32) -> Self {
        Self { start, stride: 1, count: 1 }
    }

    /// The last word of the progression.
    pub fn last(self) -> u32 {
        self.start + (self.count - 1) * self.stride
    }

    /// The covering word range `[start, end)` (superset of the pattern).
    pub fn range(self) -> (u32, u32) {
        (self.start, self.last() + 1)
    }

    /// Whether word `w` is in the progression.
    pub fn contains(self, w: u32) -> bool {
        w >= self.start && w <= self.last() && (w - self.start).is_multiple_of(self.stride)
    }

    /// Whether two patterns share at least one word. Exact for equal
    /// strides (congruence test) and for progressions up to `ENUM_CAP`
    /// elements; beyond that it soundly falls back to range overlap.
    pub fn overlaps(self, o: Self) -> bool {
        if self.last() < o.start || o.last() < self.start {
            return false;
        }
        if self.count == 1 {
            return o.contains(self.start);
        }
        if o.count == 1 {
            return self.contains(o.start);
        }
        if self.stride == o.stride {
            // Ranges overlap (checked above); same stride ⇒ they share a
            // word iff the starts are congruent modulo the stride.
            let (a, b) = (self.start.min(o.start), self.start.max(o.start));
            return (b - a).is_multiple_of(self.stride);
        }
        let (small, big) = if self.count <= o.count { (self, o) } else { (o, self) };
        if small.count > ENUM_CAP {
            return true; // sound fallback: ranges overlap
        }
        (0..small.count).any(|i| big.contains(small.start + i * small.stride))
    }
}

/// Result of the value-flow pass: per-access address patterns, constant
/// store values, alias classes and the per-block alias-class density
/// channel. All per-access vectors are index-aligned with
/// [`LocksetAnalysis::accesses`].
#[derive(Debug, Clone)]
pub struct ValueFlow {
    patterns: Vec<AccessPattern>,
    store_values: Vec<Option<i64>>,
    class: Vec<u32>,
    num_classes: usize,
    block_density: Vec<u8>,
    /// Number of fixpoint block visits (reported by the throughput bench).
    pub fixpoint_visits: usize,
}

impl ValueFlow {
    /// Run the interval fixpoint and resolve every reachable access.
    pub fn compute(kernel: &Kernel, cfg: &KernelCfg, locksets: &LocksetAnalysis) -> Self {
        let n = kernel.num_blocks();
        let mut entry_in: Vec<Option<RegState>> = vec![None; n];
        let mut updates = vec![0u32; n];
        let mut queue: VecDeque<BlockId> = VecDeque::new();
        let mut queued = vec![false; n];
        let mut visits = 0usize;

        let join_into = |entry_in: &mut Vec<Option<RegState>>,
                         updates: &mut Vec<u32>,
                         queue: &mut VecDeque<BlockId>,
                         queued: &mut Vec<bool>,
                         b: BlockId,
                         s: &RegState| {
            let bi = b.index();
            let merged = match &entry_in[bi] {
                None => *s,
                Some(prev) => {
                    let widen = updates[bi] >= WIDEN_AFTER;
                    let mut m = *prev;
                    for (mr, sr) in m.iter_mut().zip(s.iter()) {
                        *mr = if widen { mr.widen_join(*sr) } else { mr.join(*sr) };
                    }
                    m
                }
            };
            if entry_in[bi].as_ref() != Some(&merged) {
                entry_in[bi] = Some(merged);
                updates[bi] += 1;
                if !queued[bi] {
                    queued[bi] = true;
                    queue.push_back(b);
                }
            }
        };

        for sc in &kernel.syscalls {
            let entry = cfg.entry(sc.func);
            join_into(
                &mut entry_in,
                &mut updates,
                &mut queue,
                &mut queued,
                entry,
                &syscall_entry_state(),
            );
        }
        while let Some(b) = queue.pop_front() {
            queued[b.index()] = false;
            visits += 1;
            let Some(mut cur) = entry_in[b.index()] else { continue };
            let block = kernel.block(b);
            for ins in &block.instrs {
                if let Instr::Call { func } = ins {
                    // The callee starts from a copy of the caller's file.
                    let callee_entry = cfg.entry(*func);
                    join_into(
                        &mut entry_in,
                        &mut updates,
                        &mut queue,
                        &mut queued,
                        callee_entry,
                        &cur,
                    );
                }
                step(ins, &mut cur);
            }
            for succ in block.term.successors() {
                join_into(&mut entry_in, &mut updates, &mut queue, &mut queued, succ, &cur);
            }
        }

        // Deterministic walk resolving each access, in the same (block, idx)
        // order as the lockset pass, so indices line up.
        let mut patterns = Vec::with_capacity(locksets.accesses.len());
        let mut store_values = Vec::with_capacity(locksets.accesses.len());
        let mut locs: Vec<InstrLoc> = Vec::with_capacity(locksets.accesses.len());
        for (bi, block) in kernel.blocks.iter().enumerate() {
            let Some(mut s) = entry_in[bi] else { continue };
            for (ii, ins) in block.instrs.iter().enumerate() {
                match ins {
                    Instr::Load { addr, .. } => {
                        patterns.push(pattern_of(addr, &s));
                        store_values.push(None);
                        locs.push(InstrLoc::new(BlockId(bi as u32), ii as u16));
                    }
                    Instr::Store { addr, src } => {
                        patterns.push(pattern_of(addr, &s));
                        store_values.push(s[src.index()].singleton());
                        locs.push(InstrLoc::new(BlockId(bi as u32), ii as u16));
                    }
                    _ => {}
                }
                step(ins, &mut s);
            }
        }
        assert_eq!(
            patterns.len(),
            locksets.accesses.len(),
            "value-flow walk must visit exactly the lockset pass's accesses"
        );
        debug_assert!(locs.iter().zip(locksets.accesses.iter()).all(|(l, a)| *l == a.loc));

        let (class, num_classes) = alias_classes(&patterns);

        // Per-block alias-class density: distinct classes touched by the
        // block's accesses, saturating at u8::MAX.
        let mut block_density = vec![0u8; n];
        let mut seen: Vec<u32> = Vec::new();
        let mut i = 0usize;
        while i < locksets.accesses.len() {
            let b = locksets.accesses[i].loc.block;
            seen.clear();
            let mut j = i;
            while j < locksets.accesses.len() && locksets.accesses[j].loc.block == b {
                if !seen.contains(&class[j]) {
                    seen.push(class[j]);
                }
                j += 1;
            }
            block_density[b.index()] = u8::try_from(seen.len()).unwrap_or(u8::MAX);
            i = j;
        }

        Self { patterns, store_values, class, num_classes, block_density, fixpoint_visits: visits }
    }

    /// The resolved pattern of access `i` (index into the lockset pass's
    /// access list).
    pub fn pattern(&self, i: usize) -> AccessPattern {
        self.patterns[i]
    }

    /// The constant value access `i` stores, if it is a store of a
    /// statically known singleton.
    pub fn store_value(&self, i: usize) -> Option<i64> {
        self.store_values[i]
    }

    /// Alias class of access `i` (dense ids in first-appearance order).
    pub fn alias_class(&self, i: usize) -> u32 {
        self.class[i]
    }

    /// Number of alias classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Whether accesses `i` and `j` may touch a common word.
    pub fn may_alias(&self, i: usize, j: usize) -> bool {
        self.patterns[i].overlaps(self.patterns[j])
    }

    /// Distinct alias classes touched by block `b` (saturating u8).
    pub fn block_alias_density(&self, b: BlockId) -> u8 {
        self.block_density[b.index()]
    }
}

/// Resolve an address expression under an abstract register file. Sound:
/// the dynamic `resolve` wraps the index into `[0, len)`, so the covered
/// index subrange is exact for singletons, the interval itself when it
/// already sits inside `[0, len)`, and the whole array otherwise.
fn pattern_of(addr: &AddrExpr, s: &RegState) -> AccessPattern {
    match *addr {
        AddrExpr::Fixed(a) => AccessPattern::word(a.0),
        AddrExpr::Indexed { base, reg, stride, len } => {
            if stride == 0 {
                return AccessPattern::word(base.0); // every index hits base
            }
            let n = i64::from(len.max(1));
            let r = s[reg.index()];
            let (lo, hi) = if let Some(v) = r.singleton() {
                let i = v.rem_euclid(n);
                (i, i)
            } else if r.lo >= 0 && r.hi < n {
                (r.lo, r.hi)
            } else {
                (0, n - 1)
            };
            if lo == hi {
                return AccessPattern::word(base.0 + (lo as u32) * stride);
            }
            AccessPattern {
                start: base.0 + (lo as u32) * stride,
                stride,
                count: (hi - lo + 1) as u32,
            }
        }
    }
}

/// Partition accesses into alias classes: the transitive closure of
/// pattern overlap, via union-find over a range-start sweep (the same
/// enumeration the may-race pass uses, so no overlapping pair is missed).
fn alias_classes(patterns: &[AccessPattern]) -> (Vec<u32>, usize) {
    let n = patterns.len();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut order: Vec<(u32, u32, usize)> =
        patterns.iter().enumerate().map(|(i, p)| (p.range().0, p.range().1, i)).collect();
    order.sort_by_key(|&(s, _, i)| (s, i));
    for (pos, &(_, end_i, i)) in order.iter().enumerate() {
        for &(start_j, _, j) in &order[pos + 1..] {
            if start_j >= end_i {
                break; // starts sorted: nothing later overlaps i's range
            }
            if patterns[i].overlaps(patterns[j]) {
                let (ri, rj) = (find(&mut parent, i as u32), find(&mut parent, j as u32));
                if ri != rj {
                    parent[rj as usize] = ri;
                }
            }
        }
    }
    // Dense class ids in first-appearance order (deterministic).
    let mut id_of_root: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut class = vec![0u32; n];
    for (i, c) in class.iter_mut().enumerate() {
        let root = find(&mut parent, i as u32);
        let next = id_of_root.len() as u32;
        *c = *id_of_root.entry(root).or_insert(next);
    }
    (class, id_of_root.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_kernel::{Addr, CmpOp, Instr, KernelBuilder, Reg, RegionKind};

    fn indexed(base: Addr, reg: Reg, stride: u32, len: u32) -> AddrExpr {
        AddrExpr::Indexed { base, reg, stride, len }
    }

    fn analyze(k: &Kernel) -> (LocksetAnalysis, ValueFlow) {
        let cfg = KernelCfg::build(k);
        let locksets = LocksetAnalysis::compute(k, &cfg);
        let vf = ValueFlow::compute(k, &cfg, &locksets);
        (locksets, vf)
    }

    #[test]
    fn interval_algebra() {
        let a = Interval { lo: 1, hi: 3 };
        let b = Interval { lo: -2, hi: 2 };
        assert_eq!(Interval::binop(BinOp::Add, a, b), Interval { lo: -1, hi: 5 });
        assert_eq!(Interval::binop(BinOp::Sub, a, b), Interval { lo: -1, hi: 5 });
        assert_eq!(Interval::binop(BinOp::Mul, a, b), Interval { lo: -6, hi: 6 });
        // Overflow degrades to ⊤, matching the VM's wrapping semantics.
        let big = Interval::exact(i64::MAX);
        assert_eq!(Interval::binop(BinOp::Add, big, Interval::exact(1)), Interval::TOP);
        // Bitwise is exact only for singletons.
        assert_eq!(
            Interval::binop(BinOp::Xor, Interval::exact(0b1100), Interval::exact(0b1010)),
            Interval::exact(0b0110)
        );
        assert_eq!(Interval::binop(BinOp::And, a, Interval::exact(1)), Interval::TOP);
        assert_eq!(a.join(b), Interval { lo: -2, hi: 3 });
        assert_eq!(a.widen_join(Interval { lo: 1, hi: 4 }), Interval { lo: 1, hi: i64::MAX });
    }

    #[test]
    fn pattern_overlap_is_exact_for_strided_progressions() {
        // Same array, different field offsets: never alias.
        let f0 = AccessPattern { start: 100, stride: 6, count: 4 };
        let f1 = AccessPattern { start: 101, stride: 6, count: 4 };
        assert!(!f0.overlaps(f1));
        assert!(f0.overlaps(f0));
        // A fixed word on the progression aliases; one off it does not.
        assert!(f0.overlaps(AccessPattern::word(112)));
        assert!(!f0.overlaps(AccessPattern::word(113)));
        // Different strides with a genuine intersection.
        let s2 = AccessPattern { start: 100, stride: 2, count: 10 };
        let s3 = AccessPattern { start: 100, stride: 3, count: 7 };
        assert!(s2.overlaps(s3)); // e.g. word 100 (and 106, 112, 118)
        let odd = AccessPattern { start: 101, stride: 2, count: 3 };
        assert!(!s2.overlaps(odd));
    }

    #[test]
    fn constant_index_resolves_to_exact_field() {
        let mut kb = KernelBuilder::new();
        let sub = kb.add_subsystem("t");
        let base = kb.alloc_region(sub, RegionKind::ObjectArray, 24, "t.objects", 0);
        let f = kb.begin_func("f", sub);
        kb.emit(Instr::Const { dst: Reg(3), val: 2 });
        kb.emit(Instr::Store { addr: indexed(base, Reg(3), 6, 4), src: Reg(3) });
        kb.end_func();
        kb.add_syscall("t_f", f, sub, vec![]);
        let k = kb.finish("t");
        let (_, vf) = analyze(&k);
        // Index register is exactly 2 → single word base + 2*stride.
        assert_eq!(vf.pattern(0), AccessPattern::word(base.0 + 12));
        // And the stored value is the constant 2.
        assert_eq!(vf.store_value(0), Some(2));
    }

    #[test]
    fn argument_index_covers_the_whole_array() {
        let mut kb = KernelBuilder::new();
        let sub = kb.add_subsystem("t");
        let base = kb.alloc_region(sub, RegionKind::ObjectArray, 24, "t.objects", 0);
        let f = kb.begin_func("f", sub);
        kb.emit(Instr::Load { dst: Reg(4), addr: indexed(base, Reg(0), 6, 4) });
        kb.end_func();
        kb.add_syscall("t_f", f, sub, vec![]);
        let k = kb.finish("t");
        let (_, vf) = analyze(&k);
        assert_eq!(vf.pattern(0), AccessPattern { start: base.0, stride: 6, count: 4 });
        assert_eq!(vf.store_value(0), None);
    }

    #[test]
    fn different_fields_land_in_different_alias_classes() {
        let mut kb = KernelBuilder::new();
        let sub = kb.add_subsystem("t");
        // One extra word so the offset-1 field's static range stays in
        // bounds (the validator checks `base + stride·len`).
        let base = kb.alloc_region(sub, RegionKind::ObjectArray, 25, "t.objects", 0);
        let f = kb.begin_func("f", sub);
        // Field 0 and field 1 of the same 6-word-stride array, plus a
        // second field-0 access: {0, 2} alias, {1} is separate.
        kb.emit(Instr::Load { dst: Reg(4), addr: indexed(base, Reg(0), 6, 4) });
        kb.emit(Instr::Load { dst: Reg(5), addr: indexed(Addr(base.0 + 1), Reg(1), 6, 4) });
        kb.emit(Instr::Store { addr: indexed(base, Reg(2), 6, 4), src: Reg(4) });
        kb.end_func();
        kb.add_syscall("t_f", f, sub, vec![]);
        let k = kb.finish("t");
        let (_, vf) = analyze(&k);
        assert_eq!(vf.alias_class(0), vf.alias_class(2));
        assert_ne!(vf.alias_class(0), vf.alias_class(1));
        assert_eq!(vf.num_classes(), 2);
        assert!(vf.may_alias(0, 2));
        assert!(!vf.may_alias(0, 1));
        // All three accesses are in the entry block: density = 2 classes.
        assert_eq!(vf.block_alias_density(k.func(snowcat_kernel::FuncId(0)).entry), 2);
    }

    #[test]
    fn call_does_not_clobber_caller_registers() {
        let mut kb = KernelBuilder::new();
        let sub = kb.add_subsystem("t");
        let base = kb.alloc_region(sub, RegionKind::ObjectArray, 24, "t.objects", 0);
        // Helper trashes r3 in its own frame.
        let h = kb.begin_func("h", sub);
        kb.emit(Instr::Const { dst: Reg(3), val: 999 });
        kb.end_func();
        let f = kb.begin_func("f", sub);
        kb.emit(Instr::Const { dst: Reg(3), val: 1 });
        kb.emit(Instr::Call { func: h });
        kb.emit(Instr::Store { addr: indexed(base, Reg(3), 6, 4), src: Reg(3) });
        kb.end_func();
        kb.add_syscall("t_f", f, sub, vec![]);
        let k = kb.finish("t");
        let (locksets, vf) = analyze(&k);
        // The caller's r3 is still exactly 1 after the call (VM frames are
        // copies), so the store resolves to field offset 1·stride.
        let store_idx = locksets.accesses.iter().position(|a| a.is_write).unwrap();
        assert_eq!(vf.pattern(store_idx), AccessPattern::word(base.0 + 6));
        assert_eq!(vf.store_value(store_idx), Some(1));
    }

    #[test]
    fn loops_terminate_via_widening() {
        let mut kb = KernelBuilder::new();
        let sub = kb.add_subsystem("t");
        let base = kb.alloc_region(sub, RegionKind::ObjectArray, 24, "t.objects", 0);
        let f = kb.begin_func("f", sub);
        kb.emit(Instr::Const { dst: Reg(3), val: 0 });
        kb.emit(Instr::Const { dst: Reg(4), val: 1 });
        let head = kb.new_block();
        kb.jump_to(head);
        kb.set_cur(head);
        kb.emit(Instr::BinOp { op: BinOp::Add, dst: Reg(3), lhs: Reg(3), rhs: Reg(4) });
        kb.emit(Instr::Load { dst: Reg(5), addr: indexed(base, Reg(3), 6, 4) });
        let (back, out) = kb.branch(Reg(5), CmpOp::Eq, 0);
        kb.set_cur(back);
        kb.jump_to(head);
        kb.set_cur(out);
        kb.end_func();
        kb.add_syscall("t_f", f, sub, vec![]);
        let k = kb.finish("t");
        let (_, vf) = analyze(&k);
        // The loop counter grows unboundedly; widening must both terminate
        // and stay sound (the access covers the whole array).
        assert_eq!(vf.pattern(0), AccessPattern { start: base.0, stride: 6, count: 4 });
    }

    #[test]
    fn patterns_stay_within_static_ranges() {
        // refined ⊆ old at the pattern level, on a generated kernel.
        let k = snowcat_kernel::generate(&snowcat_kernel::GenConfig::default());
        let (locksets, vf) = analyze(&k);
        for (i, a) in locksets.accesses.iter().enumerate() {
            let p = vf.pattern(i);
            let (s, e) = a.addr.static_range();
            let e = e.0.max(s.0 + 1); // the may-race pass widens empty ranges
            assert!(p.start >= s.0 && p.last() < e, "pattern {p:?} outside range of {:?}", a.addr);
        }
    }
}
