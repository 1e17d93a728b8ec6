//! Execution traces and results.
//!
//! The VM records exactly what the paper's modified SKI/QEMU records for
//! dataset labelling and race detection: per-thread block coverage, the
//! memory-access stream (with locksets), bug-oracle hits, and how the run
//! ended.

use crate::bitset::BitSet;
use serde::{Deserialize, Serialize};
use snowcat_kernel::{Addr, BlockId, BugId, InstrLoc, ThreadId};

/// One shared-memory access observed during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Thread that performed the access.
    pub thread: ThreadId,
    /// Static location of the load/store instruction.
    pub loc: InstrLoc,
    /// Effective (resolved) address.
    pub addr: Addr,
    /// True for stores.
    pub is_write: bool,
    /// Bitmask of locks held by the thread at the time of access.
    pub lockset: u64,
    /// Global step index at which the access happened (total order — the VM
    /// serializes threads like SKI's uniprocessor scheduler).
    pub step: u64,
}

/// A planted-bug oracle firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BugHit {
    /// Which planted bug.
    pub bug: BugId,
    /// Thread that hit the oracle.
    pub thread: ThreadId,
    /// Oracle instruction location.
    pub loc: InstrLoc,
    /// Global step index.
    pub step: u64,
}

/// How an execution terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExitReason {
    /// All threads ran their STIs to completion.
    Completed,
    /// Circular lock wait between the threads; execution aborted.
    Deadlock,
    /// The step budget was exhausted (defensive bound; generated kernels are
    /// loop-free so this indicates a harness bug).
    StepLimit,
}

/// Everything observed during one dynamic execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecResult {
    /// Union coverage over all threads.
    pub coverage: BitSet,
    /// Per-thread block coverage.
    pub per_thread_coverage: Vec<BitSet>,
    /// Per-thread sequence of blocks entered, in execution order. This is the
    /// control-flow trace the graph builder turns into SCB control-flow
    /// edges.
    pub block_trace: Vec<Vec<BlockId>>,
    /// For each `block_trace` entry, the thread's `executed` counter at
    /// block entry. Lets the graph builder map a scheduling hint ("switch
    /// when thread A executes its x-th instruction") to the block that
    /// contains that instruction.
    pub block_entry_steps: Vec<Vec<u64>>,
    /// All shared-memory accesses in global step order.
    pub accesses: Vec<MemAccess>,
    /// Bug-oracle hits.
    pub bugs: Vec<BugHit>,
    /// Total steps executed (all threads).
    pub steps: u64,
    /// Steps executed per thread.
    pub thread_steps: Vec<u64>,
    /// Termination cause.
    pub exit: ExitReason,
}

impl ExecResult {
    /// True when the run exhausted its step/fuel budget — the watchdog's
    /// "hung execution" signal (a wedged guest in SKI terms).
    pub fn hung(&self) -> bool {
        self.exit == ExitReason::StepLimit
    }

    /// True when the run aborted on a cross-thread deadlock — the watchdog's
    /// "crashed execution" signal.
    pub fn crashed(&self) -> bool {
        self.exit == ExitReason::Deadlock
    }

    /// Unique bugs hit during the run.
    pub fn unique_bugs(&self) -> Vec<BugId> {
        let mut ids: Vec<BugId> = self.bugs.iter().map(|b| b.bug).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Whether a specific bug fired.
    pub fn hit_bug(&self, bug: BugId) -> bool {
        self.bugs.iter().any(|b| b.bug == bug)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with_bugs(ids: &[u16]) -> ExecResult {
        ExecResult {
            coverage: BitSet::new(8),
            per_thread_coverage: vec![BitSet::new(8), BitSet::new(8)],
            block_trace: vec![vec![], vec![]],
            block_entry_steps: vec![vec![], vec![]],
            accesses: vec![],
            bugs: ids
                .iter()
                .map(|&i| BugHit {
                    bug: BugId(i),
                    thread: ThreadId(0),
                    loc: InstrLoc::new(BlockId(0), 0),
                    step: 0,
                })
                .collect(),
            steps: 0,
            thread_steps: vec![0, 0],
            exit: ExitReason::Completed,
        }
    }

    #[test]
    fn unique_bugs_dedupes_and_sorts() {
        let r = result_with_bugs(&[2, 1, 2, 1, 3]);
        assert_eq!(r.unique_bugs(), vec![BugId(1), BugId(2), BugId(3)]);
    }

    #[test]
    fn hit_bug_checks_membership() {
        let r = result_with_bugs(&[5]);
        assert!(r.hit_bug(BugId(5)));
        assert!(!r.hit_bug(BugId(6)));
    }
}
