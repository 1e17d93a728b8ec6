//! Cumulative testing campaigns over a CTI stream (Figure 5): the explorer
//! choice and the result shape.
//!
//! A campaign feeds a stream of CTIs to an explorer (PCT or MLPCT+strategy),
//! gives each a fixed execution budget, and tracks cumulative unique
//! potential data races, schedule-dependent block coverage and exposed bugs
//! against *simulated testing time* (see [`crate::costmodel`]). The loop
//! itself is `snowcat_harness::run_supervised_campaign`; with
//! `SupervisorConfig::new()` it is the plain paper campaign.

use crate::pic::Pic;
use crate::predictor::PredictorService;
use crate::strategy::{S1NewBitmap, S2NewBlocks, S3LimitedTrials, SelectionStrategy};
use serde::{Deserialize, Serialize};
use snowcat_kernel::BugId;

/// One point on a campaign's coverage-vs-time curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistoryPoint {
    /// CTIs processed so far.
    pub ctis: usize,
    /// Dynamic executions so far.
    pub executions: u64,
    /// Inferences so far.
    pub inferences: u64,
    /// Simulated hours elapsed (cost model).
    pub hours: f64,
    /// Unique potential data races so far.
    pub races: usize,
    /// Unique harmful (non-benign) races so far.
    pub harmful_races: usize,
    /// Schedule-dependent blocks covered so far.
    pub sched_dep_blocks: usize,
    /// Planted bugs exposed so far.
    pub bugs: usize,
}

/// A full campaign result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Explorer label (`"PCT"`, `"MLPCT-S1"`, …).
    pub label: String,
    /// History sampled after every CTI.
    pub history: Vec<HistoryPoint>,
    /// Bugs exposed, in discovery order.
    pub bugs_found: Vec<BugId>,
}

impl CampaignResult {
    /// Final history point (zeros if the stream was empty).
    pub fn last(&self) -> HistoryPoint {
        self.history.last().copied().unwrap_or(HistoryPoint {
            ctis: 0,
            executions: 0,
            inferences: 0,
            hours: 0.0,
            races: 0,
            harmful_races: 0,
            sched_dep_blocks: 0,
            bugs: 0,
        })
    }

    /// Simulated hours at which `races` unique races were first reached,
    /// if ever (used for the "SKI took 304 hours to reach 3,500 races"
    /// style comparisons).
    pub fn hours_to_races(&self, races: usize) -> Option<f64> {
        self.history.iter().find(|h| h.races >= races).map(|h| h.hours)
    }
}

/// Which explorer a campaign uses.
pub enum Explorer<'p, 'k> {
    /// Plain PCT (the SKI baseline).
    Pct,
    /// MLPCT: a predictor service + a selection strategy.
    MlPct {
        /// The predictor service (graph building + inference chain).
        service: PredictorService<'p, 'k>,
        /// The candidate-selection strategy.
        strategy: Box<dyn SelectionStrategy>,
    },
}

impl<'p, 'k> Explorer<'p, 'k> {
    /// MLPCT explorer predicting directly through the deployed PIC.
    pub fn mlpct(pic: &'p Pic<'k>, strategy: Box<dyn SelectionStrategy>) -> Self {
        Explorer::MlPct { service: PredictorService::direct(pic), strategy }
    }
}

impl Explorer<'_, '_> {
    /// Display label for campaign results (`"PCT"`, `"MLPCT-S1"`, …).
    pub fn label(&self) -> String {
        match self {
            Explorer::Pct => "PCT".into(),
            Explorer::MlPct { strategy, .. } => format!("MLPCT-{}", strategy.name()),
        }
    }
}

/// Strategy selector: an owned, copyable name for a [`SelectionStrategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// S1 — new predicted-coverage bitmap.
    S1,
    /// S2 — new predicted-positive block.
    S2,
    /// S3 — per-block trial limit.
    S3(usize),
}

impl StrategyKind {
    /// Parse a CLI explorer name: `s1`, `s2`, or `s3` (per-block limit 2).
    /// Anything else, including `pct`, is not a strategy.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "s1" => Some(StrategyKind::S1),
            "s2" => Some(StrategyKind::S2),
            "s3" => Some(StrategyKind::S3(2)),
            _ => None,
        }
    }

    /// The label an MLPCT explorer with this strategy reports
    /// (`"MLPCT-S1"`, `"MLPCT-S3(2)"`, …), without building the strategy.
    pub fn label(self) -> String {
        match self {
            StrategyKind::S1 => "MLPCT-S1".into(),
            StrategyKind::S2 => "MLPCT-S2".into(),
            StrategyKind::S3(limit) => format!("MLPCT-S3({limit})"),
        }
    }

    /// Instantiate the strategy.
    pub fn build(self) -> Box<dyn SelectionStrategy> {
        match self {
            StrategyKind::S1 => Box::new(S1NewBitmap::new()),
            StrategyKind::S2 => Box::new(S2NewBlocks::new()),
            StrategyKind::S3(limit) => Box::new(S3LimitedTrials::new(limit)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_kind_parses_cli_names_and_labels_like_the_explorer() {
        assert_eq!(StrategyKind::parse("s1"), Some(StrategyKind::S1));
        assert_eq!(StrategyKind::parse("s2"), Some(StrategyKind::S2));
        assert_eq!(StrategyKind::parse("s3"), Some(StrategyKind::S3(2)));
        assert_eq!(StrategyKind::parse("pct"), None);
        assert_eq!(StrategyKind::parse("S1"), None);
        for kind in [StrategyKind::S1, StrategyKind::S2, StrategyKind::S3(2), StrategyKind::S3(7)] {
            assert_eq!(kind.label(), format!("MLPCT-{}", kind.build().name()));
        }
    }
}
