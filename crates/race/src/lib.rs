//! # snowcat-race — potential data-race detection
//!
//! An implementation of the detector role DataCollider \[13\] plays in the
//! paper's evaluation: it scans the serialized memory-access stream of one
//! dynamic execution and reports *potential data races* — pairs of accesses
//! from different threads to the same address, at least one being a write,
//! holding disjoint locksets, and landing within a step window of each other
//! (DataCollider only flags accesses that are truly adjacent in time; the
//! window models that under our serialized scheduler).
//!
//! Races are deduplicated by their unordered pair of *static* instruction
//! locations — the paper's "unique possible data races" metric
//! (Data-race-coverage) counts exactly these keys across all explored
//! interleavings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use snowcat_kernel::{Addr, BugId, InstrLoc, Kernel, RegionKind};
use snowcat_vm::{ExecResult, MemAccess};
use std::collections::{HashMap, HashSet};

/// Normalized (order-independent) identity of a potential data race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RaceKey(pub InstrLoc, pub InstrLoc);

impl RaceKey {
    /// Build a normalized key from two racing instruction locations.
    pub fn new(a: InstrLoc, b: InstrLoc) -> Self {
        if a <= b {
            Self(a, b)
        } else {
            Self(b, a)
        }
    }
}

/// A potential data race observed in one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RaceReport {
    /// Normalized instruction pair.
    pub key: RaceKey,
    /// Address the two accesses collided on.
    pub addr: Addr,
    /// Whether either access was a write (always true by construction) and
    /// both were writes.
    pub write_write: bool,
    /// Races on pure statistics counters are classified benign, matching the
    /// paper's manual pruning of tolerated races.
    pub benign: bool,
    /// Step distance between the two accesses in the serialized order.
    pub distance: u64,
}

/// Detector configuration.
#[derive(Debug, Clone, Copy)]
pub struct RaceDetector {
    /// Maximum step distance between two conflicting accesses for them to
    /// count as a potential race.
    pub window: u64,
}

impl Default for RaceDetector {
    fn default() -> Self {
        Self { window: 50 }
    }
}

impl RaceDetector {
    /// Detector with a custom adjacency window.
    pub fn new(window: u64) -> Self {
        Self { window }
    }

    /// Scan one execution's access stream for potential data races.
    ///
    /// Reports are deduplicated by [`RaceKey`] within the run; the first
    /// (closest-distance) occurrence wins.
    pub fn detect(&self, kernel: &Kernel, result: &ExecResult) -> Vec<RaceReport> {
        let mut by_addr: HashMap<Addr, Vec<&MemAccess>> = HashMap::new();
        for a in &result.accesses {
            by_addr.entry(a.addr).or_default().push(a);
        }
        let mut seen: HashSet<RaceKey> = HashSet::new();
        let mut out = Vec::new();
        for (addr, accs) in by_addr {
            // accs is in serialized step order (the VM pushes in order).
            for (i, x) in accs.iter().enumerate() {
                for y in accs.iter().skip(i + 1) {
                    let dist = y.step - x.step;
                    if dist > self.window {
                        break; // later accesses are even farther
                    }
                    if x.thread == y.thread
                        || (!x.is_write && !y.is_write)
                        || (x.lockset & y.lockset) != 0
                    {
                        continue;
                    }
                    let key = RaceKey::new(x.loc, y.loc);
                    if !seen.insert(key) {
                        continue;
                    }
                    let benign = matches!(
                        kernel.region_of(addr).map(|r| r.kind),
                        Some(RegionKind::StatsCounter)
                    );
                    out.push(RaceReport {
                        key,
                        addr,
                        write_write: x.is_write && y.is_write,
                        benign,
                        distance: dist,
                    });
                }
            }
        }
        // Deterministic output order.
        out.sort_by_key(|r| r.key);
        out
    }
}

/// Cumulative set of unique races across many executions — the paper's
/// Data-race-coverage.
#[derive(Debug, Clone, Default)]
pub struct RaceSet {
    keys: HashSet<RaceKey>,
}

impl RaceSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a race; returns true if it was new.
    pub fn insert(&mut self, key: RaceKey) -> bool {
        self.keys.insert(key)
    }

    /// Number of unique races seen.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if no race has been recorded.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, key: &RaceKey) -> bool {
        self.keys.contains(key)
    }

    /// Iterate over the recorded keys (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &RaceKey> {
        self.keys.iter()
    }
}

/// Match a detected race against the planted-bug registry: a report that
/// pairs two instructions recorded in a bug's `racing_instrs` *is* that bug.
pub fn match_planted_bug(kernel: &Kernel, report: &RaceReport) -> Option<BugId> {
    kernel.bugs.iter().find_map(|b| {
        let has = |loc: InstrLoc| b.racing_instrs.contains(&loc);
        (has(report.key.0) && has(report.key.1)).then_some(b.id)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_kernel::{generate, BugKind, GenConfig, ThreadId};
    use snowcat_vm::{
        run_ct, run_sequential, Cti, ScheduleHints, Sti, SwitchPoint, SyscallInvocation, VmConfig,
    };

    fn kernel() -> Kernel {
        generate(&GenConfig::default())
    }

    #[test]
    fn sequential_runs_have_no_races() {
        let k = kernel();
        let det = RaceDetector::default();
        for i in 0..6 {
            let sti = Sti::new(vec![SyscallInvocation {
                syscall: snowcat_kernel::SyscallId(i),
                args: [0; 3],
            }]);
            let r = run_sequential(&k, &sti);
            assert!(det.detect(&k, &r).is_empty(), "single-thread run cannot race");
        }
    }

    #[test]
    fn planted_data_race_is_detected_under_some_schedule() {
        let k = kernel();
        let bug = k.bugs.iter().find(|b| b.kind == BugKind::DataRace).expect("DR bug planted");
        let a = Sti::new(vec![SyscallInvocation { syscall: bug.syscalls.0, args: [0; 3] }]);
        let b = Sti::new(vec![SyscallInvocation { syscall: bug.syscalls.1, args: [0; 3] }]);
        let cti = Cti::new(a.clone(), b);
        let len_a = run_sequential(&k, &cti.a).steps;
        let det = RaceDetector::default();
        let mut matched = false;
        'outer: for x in 1..=len_a {
            for y in [1u64, 3, 5, 8, 13, 21] {
                let hints = ScheduleHints {
                    first: ThreadId(0),
                    switches: vec![
                        SwitchPoint { thread: ThreadId(0), after: x },
                        SwitchPoint { thread: ThreadId(1), after: y },
                    ],
                };
                let r = run_ct(&k, &cti, hints, VmConfig::default());
                for report in det.detect(&k, &r) {
                    if match_planted_bug(&k, &report) == Some(bug.id) {
                        matched = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(matched, "planted data race should be observable under some schedule");
    }

    #[test]
    fn race_key_is_symmetric() {
        let a = InstrLoc::new(snowcat_kernel::BlockId(5), 1);
        let b = InstrLoc::new(snowcat_kernel::BlockId(2), 7);
        assert_eq!(RaceKey::new(a, b), RaceKey::new(b, a));
    }

    #[test]
    fn race_set_counts_unique() {
        let mut set = RaceSet::new();
        let a = InstrLoc::new(snowcat_kernel::BlockId(1), 0);
        let b = InstrLoc::new(snowcat_kernel::BlockId(2), 0);
        let c = InstrLoc::new(snowcat_kernel::BlockId(3), 0);
        assert!(set.insert(RaceKey::new(a, b)));
        assert!(!set.insert(RaceKey::new(b, a)));
        assert!(set.insert(RaceKey::new(a, c)));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn window_limits_detection() {
        // With a zero window, only immediately adjacent conflicting accesses
        // can race; a huge window admits more.
        let k = kernel();
        let cti = Cti::new(
            Sti::new(vec![SyscallInvocation { syscall: k.bugs[0].syscalls.0, args: [0; 3] }]),
            Sti::new(vec![SyscallInvocation { syscall: k.bugs[0].syscalls.1, args: [0; 3] }]),
        );
        let hints = ScheduleHints {
            first: ThreadId(0),
            switches: vec![
                SwitchPoint { thread: ThreadId(0), after: 5 },
                SwitchPoint { thread: ThreadId(1), after: 5 },
            ],
        };
        let r = run_ct(&k, &cti, hints, VmConfig::default());
        let narrow = RaceDetector::new(1).detect(&k, &r).len();
        let wide = RaceDetector::new(10_000).detect(&k, &r).len();
        assert!(wide >= narrow);
    }

    #[test]
    fn benign_classification_uses_region_kind() {
        // Run two stat-heavy syscalls concurrently with tight interleaving;
        // any reported stat-counter race must be flagged benign.
        let k = kernel();
        let det = RaceDetector::new(10_000);
        let mut saw_benign = false;
        for (i, j) in [(0u32, 1u32), (2, 3), (0, 4)] {
            let cti = Cti::new(
                Sti::new(vec![SyscallInvocation {
                    syscall: snowcat_kernel::SyscallId(i),
                    args: [0; 3],
                }]),
                Sti::new(vec![SyscallInvocation {
                    syscall: snowcat_kernel::SyscallId(j),
                    args: [0; 3],
                }]),
            );
            for x in [2u64, 5, 9, 14] {
                let hints = ScheduleHints {
                    first: ThreadId(0),
                    switches: vec![
                        SwitchPoint { thread: ThreadId(0), after: x },
                        SwitchPoint { thread: ThreadId(1), after: x },
                    ],
                };
                let r = run_ct(&k, &cti, hints, VmConfig::default());
                for report in det.detect(&k, &r) {
                    let kind = k.region_of(report.addr).map(|reg| reg.kind);
                    if kind == Some(RegionKind::StatsCounter) {
                        assert!(report.benign);
                        saw_benign = true;
                    } else {
                        assert!(!report.benign);
                    }
                }
            }
        }
        // Not guaranteed for every pair, but across the sweep we should see
        // at least one benign stat race; if not, the assertion logic above
        // still validated classification consistency.
        let _ = saw_benign;
    }
}
