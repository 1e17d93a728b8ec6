//! Planted-bug registry.
//!
//! The generator plants concurrency bugs whose *manifestation* requires a
//! specific interleaving, and registers them here. The VM reports a
//! [`crate::instr::Instr::BugIf`] firing as a bug event; the campaign layer
//! joins those events with this registry to produce the paper's Table 3
//! ("new concurrency bugs", with kind and subsystem).

use crate::ids::{BugId, InstrLoc, SubsystemId, SyscallId};
use serde::{Deserialize, Serialize};

/// Classification following the paper's Table 3 legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BugKind {
    /// DR — plain data race on a correctness-sensitive word.
    DataRace,
    /// AV — atomicity violation (check-then-act or read-modify-write split
    /// by a remote write).
    AtomicityViolation,
    /// OV — order violation (consumer runs before producer initialized).
    OrderViolation,
    /// Multi-constraint bug requiring a chain of ordering constraints, like
    /// the paper's 9-year-old bug #7 in the vivid driver.
    MultiOrder,
}

impl BugKind {
    /// Short code used in tables (`DR` / `AV` / `OV` / `MO`).
    pub fn code(self) -> &'static str {
        match self {
            BugKind::DataRace => "DR",
            BugKind::AtomicityViolation => "AV",
            BugKind::OrderViolation => "OV",
            BugKind::MultiOrder => "MO",
        }
    }
}

/// Expected difficulty of exposing the bug with random schedules. The
/// generator derives this from the number of ordering constraints the
/// interleaving must satisfy; campaigns report it so the evaluation can show
/// that MLPCT shines on the hard tail (the paper's 9 MLPCT-only bugs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BugDifficulty {
    /// One ordering constraint (a lucky coin flip can expose it).
    Easy,
    /// Two ordering constraints.
    Medium,
    /// Three or more ordering constraints (bug-#7 class).
    Hard,
}

/// A planted bug's metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BugSpec {
    /// Registry id (also carried by the `BugIf` oracle instruction).
    pub id: BugId,
    /// Classification.
    pub kind: BugKind,
    /// Difficulty class (number of ordering constraints).
    pub difficulty: BugDifficulty,
    /// Subsystem where the bug lives.
    pub subsystem: SubsystemId,
    /// Human-readable summary, e.g. `"AV: fs_open() & fs_close()"`.
    pub summary: String,
    /// The two syscalls whose concurrent invocation can expose the bug.
    pub syscalls: (SyscallId, SyscallId),
    /// Static locations of the racing/ordered instructions (for the Razzer
    /// experiments, which target instruction pairs).
    pub racing_instrs: Vec<InstrLoc>,
    /// Whether developers would classify the race as harmful (paper reports
    /// a mix of harmful / benign outcomes in Table 3).
    pub harmful: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes() {
        assert_eq!(BugKind::DataRace.code(), "DR");
        assert_eq!(BugKind::AtomicityViolation.code(), "AV");
        assert_eq!(BugKind::OrderViolation.code(), "OV");
        assert_eq!(BugKind::MultiOrder.code(), "MO");
    }

    #[test]
    fn difficulty_orders() {
        assert!(BugDifficulty::Easy < BugDifficulty::Medium);
        assert!(BugDifficulty::Medium < BugDifficulty::Hard);
    }
}
