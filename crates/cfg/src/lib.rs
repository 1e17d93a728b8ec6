//! # snowcat-cfg — whole-kernel static control-flow graph
//!
//! The paper builds a whole-kernel CFG with Angr to identify *uncovered
//! reachable blocks* (URBs): blocks not covered by the sequential execution
//! of a test input but statically reachable from covered blocks within a
//! small number of control-flow hops (the paper uses 1 hop).
//!
//! Because we own the synthetic kernel's IR, the CFG here is exact:
//! terminator edges plus call edges (from a block containing a `call` to the
//! callee's entry block).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use snowcat_kernel::{BlockId, FuncId, Instr, Kernel};
use snowcat_vm::BitSet;

/// An SCB→URB (or URB→URB for multi-hop) static control-flow edge discovered
/// during URB identification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UrbEdge {
    /// Source block (covered, or a URB found at an earlier hop).
    pub from: BlockId,
    /// The uncovered reachable block.
    pub to: BlockId,
}

/// The whole-kernel control-flow graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelCfg {
    succ: Vec<Vec<BlockId>>,
    pred: Vec<Vec<BlockId>>,
    /// Entry block per function (for reachability queries).
    entries: Vec<BlockId>,
}

impl KernelCfg {
    /// Build the CFG for `kernel`.
    pub fn build(kernel: &Kernel) -> Self {
        let n = kernel.num_blocks();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for (bi, block) in kernel.blocks.iter().enumerate() {
            let from = BlockId(bi as u32);
            for t in block.term.successors() {
                succ[bi].push(t);
                pred[t.index()].push(from);
            }
            for ins in &block.instrs {
                if let Instr::Call { func } = ins {
                    let entry = kernel.func(*func).entry;
                    succ[bi].push(entry);
                    pred[entry.index()].push(from);
                }
            }
        }
        // Deduplicate parallel edges for stable iteration.
        for v in succ.iter_mut().chain(pred.iter_mut()) {
            v.sort_unstable();
            v.dedup();
        }
        let entries = kernel.funcs.iter().map(|f| f.entry).collect();
        Self { succ, pred, entries }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.succ.len()
    }

    /// Static successors of `b` (branch/jump targets and called entries).
    pub fn successors(&self, b: BlockId) -> &[BlockId] {
        &self.succ[b.index()]
    }

    /// Static predecessors of `b`.
    pub fn predecessors(&self, b: BlockId) -> &[BlockId] {
        &self.pred[b.index()]
    }

    /// Entry block of `func`.
    pub fn entry(&self, func: FuncId) -> BlockId {
        self.entries[func.index()]
    }

    /// Identify URBs reachable within `hops` control-flow hops from the
    /// covered set, returning the discovery edges (for 1 hop: SCB → URB).
    ///
    /// This is the paper's URB definition: "blocks that are statically
    /// reachable from the sequentially-covered blocks, within a small number
    /// of control-flow hops, but that were not reached during the sequential
    /// execution". The paper sets `hops = 1` "to avoid path explosion".
    pub fn k_hop_urbs(&self, covered: &BitSet, hops: usize) -> Vec<UrbEdge> {
        assert_eq!(covered.capacity(), self.num_blocks(), "coverage map size mismatch");
        let mut edges = Vec::new();
        let mut seen = BitSet::new(self.num_blocks());
        let mut frontier: Vec<BlockId> = covered.iter().map(|i| BlockId(i as u32)).collect();
        for _ in 0..hops {
            let mut next = Vec::new();
            for &from in &frontier {
                for &to in self.successors(from) {
                    if covered.contains(to.index()) || seen.contains(to.index()) {
                        continue;
                    }
                    seen.insert(to.index());
                    edges.push(UrbEdge { from, to });
                    next.push(to);
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        edges
    }

    /// All blocks statically reachable from `roots` (inclusive).
    pub fn reachable_from(&self, roots: &[BlockId]) -> BitSet {
        let mut seen = BitSet::new(self.num_blocks());
        let mut stack: Vec<BlockId> = roots.to_vec();
        for r in roots {
            seen.insert(r.index());
        }
        while let Some(b) = stack.pop() {
            for &s in self.successors(b) {
                if seen.insert(s.index()) {
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Per-syscall forward reachability: element `i` is the set of blocks
    /// statically reachable from syscall `i`'s entry (inclusive).
    ///
    /// The static may-race analysis uses this to decide which syscall pairs
    /// can put two given accesses in concurrent threads, and the Razzer
    /// pre-filter sums may-race density over these sets.
    pub fn syscall_reachability(&self, kernel: &Kernel) -> Vec<BitSet> {
        kernel.syscalls.iter().map(|s| self.reachable_from(&[self.entry(s.func)])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_kernel::{generate, GenConfig, SyscallId};
    use snowcat_vm::{run_sequential, Sti, SyscallInvocation};

    fn setup() -> (Kernel, KernelCfg) {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        (k, cfg)
    }

    #[test]
    fn every_edge_is_bidirectional() {
        let (_, cfg) = setup();
        for b in 0..cfg.num_blocks() {
            let from = BlockId(b as u32);
            for &s in cfg.successors(from) {
                assert!(
                    cfg.predecessors(s).contains(&from),
                    "missing predecessor edge {from} -> {s}"
                );
            }
        }
    }

    #[test]
    fn intra_function_successors_stay_in_function() {
        let (k, cfg) = setup();
        for (bi, block) in k.blocks.iter().enumerate() {
            for &s in cfg.successors(BlockId(bi as u32)) {
                let sf = k.block(s).func;
                // Either same function, or the edge is a call edge to an
                // entry block.
                assert!(
                    sf == block.func || k.func(sf).entry == s,
                    "edge to non-entry block of another function"
                );
            }
        }
    }

    #[test]
    fn one_hop_urbs_are_uncovered_neighbors_of_covered() {
        let (k, cfg) = setup();
        let sti = Sti::new(vec![SyscallInvocation { syscall: SyscallId(0), args: [0; 3] }]);
        let r = run_sequential(&k, &sti);
        let urbs = cfg.k_hop_urbs(&r.coverage, 1);
        assert!(!urbs.is_empty(), "a branchy syscall should leave 1-hop URBs");
        for e in &urbs {
            assert!(r.coverage.contains(e.from.index()), "URB edge source must be covered");
            assert!(!r.coverage.contains(e.to.index()), "URB must be uncovered");
            assert!(cfg.successors(e.from).contains(&e.to));
        }
        // No duplicate URB targets.
        let mut targets: Vec<_> = urbs.iter().map(|e| e.to).collect();
        targets.sort_unstable();
        let before = targets.len();
        targets.dedup();
        assert_eq!(before, targets.len());
    }

    #[test]
    fn more_hops_find_at_least_as_many_urbs() {
        let (k, cfg) = setup();
        let sti = Sti::new(vec![SyscallInvocation { syscall: SyscallId(3), args: [1, 0, 0] }]);
        let r = run_sequential(&k, &sti);
        let one = cfg.k_hop_urbs(&r.coverage, 1).len();
        let two = cfg.k_hop_urbs(&r.coverage, 2).len();
        assert!(two >= one);
    }

    #[test]
    fn reachable_from_entry_covers_dynamic_coverage() {
        // Everything a syscall dynamically covers must be statically
        // reachable from its entry.
        let (k, cfg) = setup();
        for idx in [0usize, 5, 9] {
            let id = SyscallId(idx as u32 % k.syscalls.len() as u32);
            let sti = Sti::new(vec![SyscallInvocation { syscall: id, args: [2, 1, 0] }]);
            let r = run_sequential(&k, &sti);
            let entry = k.func(k.syscall(id).func).entry;
            let reach = cfg.reachable_from(&[entry]);
            for b in r.coverage.iter() {
                assert!(reach.contains(b), "covered block {b} not statically reachable");
            }
        }
    }

    #[test]
    fn syscall_reachability_matches_reachable_from() {
        let (k, cfg) = setup();
        let reach = cfg.syscall_reachability(&k);
        assert_eq!(reach.len(), k.syscalls.len());
        for (i, s) in k.syscalls.iter().enumerate() {
            let entry = cfg.entry(s.func);
            assert!(reach[i].contains(entry.index()), "entry must reach itself");
            assert_eq!(reach[i], cfg.reachable_from(&[entry]));
        }
    }

    #[test]
    fn zero_hops_yields_nothing() {
        let (k, cfg) = setup();
        let sti = Sti::new(vec![SyscallInvocation { syscall: SyscallId(0), args: [0; 3] }]);
        let r = run_sequential(&k, &sti);
        assert!(cfg.k_hop_urbs(&r.coverage, 0).is_empty());
    }
}
