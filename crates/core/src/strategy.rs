//! CT-candidate selection strategies (§3.3).
//!
//! Given the *predicted* coverage of a candidate CT, a strategy decides
//! whether it is worth a dynamic execution:
//!
//! * **S1 — new set of positive blocks**: select if the predicted coverage
//!   bitmap (as a set of (thread, block) positives) has never been seen.
//! * **S2 — new positive blocks**: select if at least one predicted-covered
//!   block has never been predicted-covered by a selected CT before.
//! * **S3 — positive blocks with limited trials**: select while some
//!   predicted-covered block has been attempted fewer than `limit` times;
//!   selecting charges one trial to every predicted-positive block.
//!
//! Strategies are stateful and cumulative across CTIs, exactly as in the
//! paper ("SNOWCAT remembers the predicted block coverage of each previously
//! chosen CT").

use crate::pic::PredictedCoverage;
use serde::{Deserialize, Serialize};
use snowcat_kernel::BlockId;
use std::collections::{HashMap, HashSet};

/// Serializable snapshot of a strategy's cumulative memory, used by the
/// campaign supervisor's checkpoint/resume path. Collections are sorted so
/// the encoding is deterministic for a given state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategySnapshot {
    /// [`S1NewBitmap`] memory: sorted fingerprints of seen bitmaps.
    S1 {
        /// Seen coverage-bitmap fingerprints.
        seen: Vec<u64>,
    },
    /// [`S2NewBlocks`] memory: sorted seen block ids.
    S2 {
        /// Seen predicted-positive blocks.
        seen: Vec<u32>,
    },
    /// [`S3LimitedTrials`] memory: sorted (block, trials) pairs + limit.
    S3 {
        /// Per-block trial counts.
        trials: Vec<(u32, usize)>,
        /// The per-block trial limit.
        limit: usize,
    },
}

/// A candidate-selection strategy.
pub trait SelectionStrategy: Send {
    /// Decide whether to execute this candidate; selecting updates the
    /// strategy's memory.
    fn select(&mut self, pred: &PredictedCoverage) -> bool;

    /// Short name for reports ("S1", "S2", "S3(3)").
    fn name(&self) -> String;

    /// Export the cumulative memory for checkpointing.
    fn snapshot(&self) -> StrategySnapshot;

    /// Restore memory from a snapshot. Returns `false` (leaving the
    /// strategy untouched) if the snapshot belongs to a different strategy
    /// kind.
    fn restore(&mut self, snap: &StrategySnapshot) -> bool;
}

/// S1: new set of positive blocks (coverage-bitmap novelty).
#[derive(Debug, Default)]
pub struct S1NewBitmap {
    seen: HashSet<u64>,
}

impl S1NewBitmap {
    /// Fresh strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

fn bitmap_fingerprint(pred: &PredictedCoverage) -> u64 {
    let mut blocks: Vec<(u8, u32)> =
        pred.positive_blocks().iter().map(|(t, b)| (t.0, b.0)).collect();
    blocks.sort_unstable();
    // FNV-1a over the sorted positive set.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (t, b) in blocks {
        h ^= (u64::from(t) << 32) | u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl SelectionStrategy for S1NewBitmap {
    fn select(&mut self, pred: &PredictedCoverage) -> bool {
        self.seen.insert(bitmap_fingerprint(pred))
    }

    fn name(&self) -> String {
        "S1".into()
    }

    fn snapshot(&self) -> StrategySnapshot {
        let mut seen: Vec<u64> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        StrategySnapshot::S1 { seen }
    }

    fn restore(&mut self, snap: &StrategySnapshot) -> bool {
        match snap {
            StrategySnapshot::S1 { seen } => {
                self.seen = seen.iter().copied().collect();
                true
            }
            _ => false,
        }
    }
}

/// S2: at least one never-before-predicted-covered block.
#[derive(Debug, Default)]
pub struct S2NewBlocks {
    seen: HashSet<BlockId>,
}

impl S2NewBlocks {
    /// Fresh strategy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SelectionStrategy for S2NewBlocks {
    fn select(&mut self, pred: &PredictedCoverage) -> bool {
        let fresh: Vec<BlockId> = pred
            .positive_blocks()
            .iter()
            .map(|&(_, b)| b)
            .filter(|b| !self.seen.contains(b))
            .collect();
        if fresh.is_empty() {
            return false;
        }
        self.seen.extend(fresh);
        true
    }

    fn name(&self) -> String {
        "S2".into()
    }

    fn snapshot(&self) -> StrategySnapshot {
        let mut seen: Vec<u32> = self.seen.iter().map(|b| b.0).collect();
        seen.sort_unstable();
        StrategySnapshot::S2 { seen }
    }

    fn restore(&mut self, snap: &StrategySnapshot) -> bool {
        match snap {
            StrategySnapshot::S2 { seen } => {
                self.seen = seen.iter().map(|&b| BlockId(b)).collect();
                true
            }
            _ => false,
        }
    }
}

/// S3: per-block trial budget.
#[derive(Debug)]
pub struct S3LimitedTrials {
    trials: HashMap<BlockId, usize>,
    limit: usize,
}

impl S3LimitedTrials {
    /// Strategy allowing each positive block to be attempted `limit` times.
    pub fn new(limit: usize) -> Self {
        Self { trials: HashMap::new(), limit: limit.max(1) }
    }
}

impl SelectionStrategy for S3LimitedTrials {
    fn select(&mut self, pred: &PredictedCoverage) -> bool {
        let blocks: Vec<BlockId> = pred.positive_blocks().iter().map(|&(_, b)| b).collect();
        let interesting =
            blocks.iter().any(|b| self.trials.get(b).copied().unwrap_or(0) < self.limit);
        if interesting {
            for b in blocks {
                *self.trials.entry(b).or_insert(0) += 1;
            }
        }
        interesting
    }

    fn name(&self) -> String {
        format!("S3({})", self.limit)
    }

    fn snapshot(&self) -> StrategySnapshot {
        let mut trials: Vec<(u32, usize)> = self.trials.iter().map(|(b, &n)| (b.0, n)).collect();
        trials.sort_unstable();
        StrategySnapshot::S3 { trials, limit: self.limit }
    }

    fn restore(&mut self, snap: &StrategySnapshot) -> bool {
        match snap {
            StrategySnapshot::S3 { trials, limit } => {
                self.trials = trials.iter().map(|&(b, n)| (BlockId(b), n)).collect();
                self.limit = (*limit).max(1);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_graph::{CtGraph, VertKind, Vertex};
    use snowcat_kernel::ThreadId;

    fn pred_with_blocks(blocks: &[(u8, u32)], positive: &[bool]) -> PredictedCoverage {
        let verts = blocks
            .iter()
            .map(|&(t, b)| Vertex {
                block: BlockId(b),
                thread: ThreadId(t),
                kind: VertKind::Scb,
                sched_mark: snowcat_graph::SchedMark::None,
                may_race: false,
                tokens: vec![1],
                static_feats: Default::default(),
            })
            .collect();
        PredictedCoverage {
            graph: CtGraph { verts, edges: vec![] },
            probs: positive.iter().map(|&p| if p { 0.9 } else { 0.1 }).collect(),
            positive: positive.to_vec(),
        }
    }

    #[test]
    fn s1_rejects_repeated_bitmap() {
        let mut s = S1NewBitmap::new();
        let p = pred_with_blocks(&[(0, 1), (0, 2)], &[true, true]);
        assert!(s.select(&p));
        assert!(!s.select(&p));
        // Different subset → new bitmap.
        let q = pred_with_blocks(&[(0, 1), (0, 2)], &[true, false]);
        assert!(s.select(&q));
    }

    #[test]
    fn s1_bitmap_is_order_independent() {
        let mut s = S1NewBitmap::new();
        let p = pred_with_blocks(&[(0, 1), (0, 2)], &[true, true]);
        let q = pred_with_blocks(&[(0, 2), (0, 1)], &[true, true]);
        assert!(s.select(&p));
        assert!(!s.select(&q), "same positive set in different order must collide");
    }

    #[test]
    fn s2_needs_a_new_block() {
        let mut s = S2NewBlocks::new();
        assert!(s.select(&pred_with_blocks(&[(0, 1), (0, 2)], &[true, true])));
        // Subset of already-seen blocks → rejected (unlike S1).
        assert!(!s.select(&pred_with_blocks(&[(0, 1)], &[true])));
        assert!(s.select(&pred_with_blocks(&[(0, 1), (1, 9)], &[true, true])));
    }

    #[test]
    fn s2_rejects_all_negative() {
        let mut s = S2NewBlocks::new();
        assert!(!s.select(&pred_with_blocks(&[(0, 1)], &[false])));
    }

    #[test]
    fn s3_respects_trial_limit() {
        let mut s = S3LimitedTrials::new(2);
        let p = pred_with_blocks(&[(0, 5)], &[true]);
        assert!(s.select(&p));
        assert!(s.select(&p));
        assert!(!s.select(&p), "third trial exceeds the limit");
        // A fresh block resets interest.
        assert!(s.select(&pred_with_blocks(&[(0, 5), (0, 6)], &[true, true])));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(S1NewBitmap::new().name(), "S1");
        assert_eq!(S2NewBlocks::new().name(), "S2");
        assert_eq!(S3LimitedTrials::new(3).name(), "S3(3)");
    }

    #[test]
    fn snapshots_roundtrip_and_preserve_decisions() {
        // Drive each strategy, snapshot it, restore into a fresh instance,
        // and check the fresh instance makes the same next decision — the
        // property the supervisor's checkpoint/resume path relies on.
        let p = pred_with_blocks(&[(0, 1), (0, 2)], &[true, true]);
        let q = pred_with_blocks(&[(0, 1)], &[true]);
        let r = pred_with_blocks(&[(1, 9)], &[true]);

        let mut s1 = S1NewBitmap::new();
        s1.select(&p);
        let mut s1b = S1NewBitmap::new();
        assert!(s1b.restore(&s1.snapshot()));
        assert!(!s1b.select(&p), "restored S1 remembers the seen bitmap");
        assert!(s1b.select(&q));

        let mut s2 = S2NewBlocks::new();
        s2.select(&p);
        let mut s2b = S2NewBlocks::new();
        assert!(s2b.restore(&s2.snapshot()));
        assert!(!s2b.select(&q), "restored S2 remembers seen blocks");
        assert!(s2b.select(&r));

        let mut s3 = S3LimitedTrials::new(2);
        s3.select(&q);
        s3.select(&q);
        let mut s3b = S3LimitedTrials::new(2);
        assert!(s3b.restore(&s3.snapshot()));
        assert!(!s3b.select(&q), "restored S3 remembers exhausted trials");

        // Kind mismatch leaves the strategy untouched.
        let mut s1c = S1NewBitmap::new();
        assert!(!s1c.restore(&s3.snapshot()));
        assert!(s1c.select(&p));

        // Snapshots are deterministic for a given state (sorted encoding).
        assert_eq!(s3.snapshot(), s3b.snapshot());
    }
}
