//! Builders for the unified [`snowcat_events::Report`] schema.
//!
//! The same [`CampaignSummary`] is derived from a live [`SupervisedResult`]
//! and from a final SCCP checkpoint, so `snowcat status --json` on a
//! kill-and-resumed campaign is byte-identical to the `--report` file of an
//! uninterrupted run with the same seed. Fields that legitimately differ
//! between the two paths are excluded from the summary by design: wall-clock
//! time, `checkpoints_written`, and `resumed_from`. Predictor counters are
//! process-local and not persisted in checkpoints, so checkpoint-derived
//! reports always carry `predictor: None`.

use crate::checkpoint::CampaignCheckpoint;
use crate::supervisor::RecoveryLog;
use crate::supervisor::SupervisedResult;
use crate::trainer::{QuarantineReport, TrainCheckpoint, TrainRunReport};
use snowcat_core::{HistoryPoint, PredictorStats};
use snowcat_events::{
    AnomalyRecord, CampaignSummary, PredictorCounters, Report, ShardIssue, TrainSummary,
};

/// Convert live predictor-chain counters into the report schema. The
/// schema's cache and degradation fields have no source and stay 0.
pub fn predictor_counters(ps: &PredictorStats) -> PredictorCounters {
    PredictorCounters {
        inferences: ps.inferences(),
        batches: ps.batches(),
        ..PredictorCounters::default()
    }
}

fn campaign_summary(
    label: &str,
    seed: u64,
    last: Option<&HistoryPoint>,
    quarantined: &[(usize, usize)],
    recovery: &RecoveryLog,
    predictor: Option<PredictorCounters>,
) -> CampaignSummary {
    let zero = HistoryPoint {
        ctis: 0,
        executions: 0,
        inferences: 0,
        hours: 0.0,
        races: 0,
        harmful_races: 0,
        sched_dep_blocks: 0,
        bugs: 0,
    };
    let h = last.unwrap_or(&zero);
    CampaignSummary {
        label: label.to_string(),
        seed,
        ctis: h.ctis as u64,
        executions: h.executions,
        inferences: h.inferences,
        races: h.races as u64,
        harmful_races: h.harmful_races as u64,
        sched_dep_blocks: h.sched_dep_blocks as u64,
        bugs_found: Vec::new(),
        sim_hours: h.hours,
        quarantined: quarantined.iter().map(|&(a, b)| (a as u64, b as u64)).collect(),
        hung_attempts: recovery.hung_attempts,
        retries: recovery.retries,
        wasted_executions: recovery.wasted_executions,
        skipped_quarantined: recovery.skipped_quarantined,
        predictor,
    }
}

/// Build the unified report from a live supervised run.
pub fn report_from_supervised(sup: &SupervisedResult, seed: u64) -> Report {
    let mut summary = campaign_summary(
        &sup.result.label,
        seed,
        sup.result.history.last(),
        &sup.quarantined,
        &sup.recovery,
        sup.predictor_stats.as_ref().map(predictor_counters),
    );
    summary.bugs_found = sup.result.bugs_found.iter().map(|b| b.0 as u64).collect();
    Report::for_campaign(summary)
}

/// Build the unified report from a final SCCP checkpoint. Predictor
/// counters are not persisted, so `predictor` is always `None` — identical
/// to what a PCT run reports live.
pub fn report_from_campaign_checkpoint(ck: &CampaignCheckpoint) -> Report {
    let mut summary =
        campaign_summary(&ck.label, ck.seed, ck.history.last(), &ck.quarantine, &ck.recovery, None);
    summary.bugs_found = ck.bugs_found.iter().map(|b| b.0 as u64).collect();
    Report::for_campaign(summary)
}

/// Build the unified report from a fleet checkpoint by merging its shard
/// checkpoints ([`crate::fleet::ShardMerge`], order-independent) and
/// reporting the merged whole-campaign state. At one worker with no faults
/// the single shard *is* the whole campaign, so the report is
/// byte-identical to `report_from_campaign_checkpoint` on a plain
/// supervised run. Shards that never persisted a checkpoint (quarantined
/// before any progress) contribute nothing.
pub fn report_from_fleet_checkpoint(
    fc: &crate::fleet::FleetCheckpoint,
    cost: &snowcat_core::CostModel,
) -> Result<Report, snowcat_core::SnowcatError> {
    let mut merge = crate::fleet::ShardMerge::new();
    for shard in &fc.shards {
        if let Some(ck) = &shard.checkpoint {
            merge.add(shard.index, ck.clone());
        }
    }
    Ok(report_from_campaign_checkpoint(&merge.finalize(cost)?))
}

fn train_summary(report: &TrainRunReport, quarantine: Option<&QuarantineReport>) -> TrainSummary {
    TrainSummary {
        epochs: report.epoch_losses.len() as u64,
        epoch_losses: report.epoch_losses.iter().map(|&l| f64::from(l)).collect(),
        val_ap: report.val_ap.clone(),
        best_epoch: report.best_epoch.map(|e| e as u64),
        threshold: report.threshold.map(f64::from),
        anomalies: report
            .anomalies
            .iter()
            .map(|a| AnomalyRecord {
                epoch: a.epoch as u64,
                attempt: a.attempt as u64,
                kind: a.kind.clone(),
                detail: a.detail.clone(),
            })
            .collect(),
        early_stopped: report.early_stopped,
        completed: report.completed,
        params_crc32: report.params_crc32,
        shards_loaded: quarantine.map(|q| q.loaded as u64).unwrap_or(0),
        shard_examples: quarantine.map(|q| q.examples as u64).unwrap_or(0),
        quarantined_shards: quarantine
            .map(|q| {
                q.quarantined
                    .iter()
                    .map(|s| ShardIssue { path: s.path.clone(), reason: s.reason.clone() })
                    .collect()
            })
            .unwrap_or_default(),
    }
}

/// Build the unified report from a live robust-training run.
pub fn report_from_train(report: &TrainRunReport, quarantine: Option<&QuarantineReport>) -> Report {
    Report::for_train(train_summary(report, quarantine))
}

/// Build the unified report from a complete STCP checkpoint. Shard-loading
/// counters are not persisted, so `shards_loaded`/`shard_examples`/
/// `quarantined_shards` stay zero/empty — status callers that need them
/// must read the event stream instead.
pub fn report_from_train_checkpoint(ck: &TrainCheckpoint) -> Report {
    Report::for_train(train_summary(&crate::trainer::report_from_checkpoint(ck), None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_core::CampaignResult;

    fn history_point() -> HistoryPoint {
        HistoryPoint {
            ctis: 8,
            executions: 40,
            inferences: 12,
            hours: 1.5,
            races: 9,
            harmful_races: 3,
            sched_dep_blocks: 77,
            bugs: 1,
        }
    }

    #[test]
    fn live_and_checkpoint_paths_agree() {
        let sup = SupervisedResult {
            result: CampaignResult {
                label: "pct-3".into(),
                history: vec![history_point()],
                bugs_found: vec![snowcat_kernel::BugId(4)],
            },
            quarantined: vec![(2, 5)],
            recovery: RecoveryLog {
                hung_attempts: 2,
                retries: 2,
                wasted_executions: 6,
                quarantined: 1,
                skipped_quarantined: 0,
                checkpoints_written: 3,
            },
            resumed_from: Some(4),
            predictor_stats: None,
        };
        let ck = CampaignCheckpoint {
            label: "pct-3".into(),
            seed: 77,
            position: 8,
            executions: 40,
            inferences: 12,
            race_keys: vec![],
            harmful_keys: vec![],
            blocks: snowcat_vm::BitSet::new(0),
            bugs_found: vec![snowcat_kernel::BugId(4)],
            history: vec![history_point()],
            quarantine: vec![(2, 5)],
            strategy: None,
            recovery: RecoveryLog {
                // The checkpoint path may have seen a different number of
                // checkpoint writes — excluded from the summary by design.
                checkpoints_written: 9,
                ..sup.recovery
            },
        };
        let live = report_from_supervised(&sup, 77);
        let from_ck = report_from_campaign_checkpoint(&ck);
        assert_eq!(live, from_ck);
        assert_eq!(live.to_canonical_json(), from_ck.to_canonical_json());
    }

    #[test]
    fn train_report_maps_all_fields() {
        let report = TrainRunReport {
            epoch_losses: vec![0.5, 0.25],
            val_ap: vec![0.7, 0.8],
            best_epoch: Some(1),
            threshold: Some(0.4),
            anomalies: vec![crate::trainer::AnomalyEvent {
                epoch: 0,
                attempt: 0,
                kind: "loss-divergence".into(),
                detail: "x".into(),
            }],
            early_stopped: false,
            completed: true,
            params_crc32: 0xDEAD_BEEF,
        };
        let quarantine = QuarantineReport {
            loaded: 3,
            examples: 120,
            quarantined: vec![crate::trainer::ShardIssue {
                path: "shard-1.bin".into(),
                reason: "bad checksum".into(),
            }],
        };
        let r = report_from_train(&report, Some(&quarantine));
        let t = r.train.as_ref().unwrap();
        assert_eq!(t.epochs, 2);
        assert_eq!(t.best_epoch, Some(1));
        assert_eq!(t.shards_loaded, 3);
        assert_eq!(t.quarantined_shards.len(), 1);
        assert_eq!(t.anomalies[0].kind, "loss-divergence");
        assert_eq!(r.kind, "train");
    }
}
