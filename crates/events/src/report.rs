//! The unified, versioned report — one schema for campaign and train.
//!
//! `snowcat campaign --report`, `snowcat train --report` and
//! `snowcat status --json` all emit this type. It deliberately excludes
//! wall-clock time, checkpoint-write counts and resume provenance, so a
//! killed-and-resumed run serializes byte-identically to an uninterrupted
//! run with the same seed. It is the only report shape: read one back with
//! `serde_json::from_str::<Report>`.

use serde::{Deserialize, Serialize};

/// Version of the [`Report`] schema.
pub const REPORT_SCHEMA_VERSION: u16 = 1;

/// Predictor-chain counters as carried in a report.
///
/// Only `inferences` and `batches` have a source. The five cache and
/// degradation fields (`cache_hits`, `cache_misses`, `cache_evictions`,
/// `degraded_batches`, `fallback_predictions`) are always 0: nothing in the
/// tree memoizes above the deployed model or degrades to a fallback. They
/// stay so that schema-v1 reports keep their bytes, and with them the report
/// digests snowbench pins; dropping them is a schema-v2 change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorCounters {
    pub inferences: u64,
    pub batches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub degraded_batches: u64,
    pub fallback_predictions: u64,
}

/// Final counts of a supervised campaign. Derived identically from a live
/// `SupervisedResult` and from a final SCCP checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    pub label: String,
    /// Campaign seed.
    pub seed: u64,
    pub ctis: u64,
    pub executions: u64,
    pub inferences: u64,
    pub races: u64,
    pub harmful_races: u64,
    pub sched_dep_blocks: u64,
    pub bugs_found: Vec<u64>,
    pub sim_hours: f64,
    pub quarantined: Vec<(u64, u64)>,
    pub hung_attempts: u64,
    pub retries: u64,
    pub wasted_executions: u64,
    pub skipped_quarantined: u64,
    /// Live-process predictor counters. `None` for PCT campaigns and for
    /// checkpoint-derived reports (the counters are not persisted).
    pub predictor: Option<PredictorCounters>,
}

/// One surviving training anomaly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnomalyRecord {
    pub epoch: u64,
    pub attempt: u64,
    pub kind: String,
    pub detail: String,
}

/// One quarantined dataset shard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardIssue {
    pub path: String,
    pub reason: String,
}

/// Final counts of a robust training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainSummary {
    pub epochs: u64,
    pub epoch_losses: Vec<f64>,
    pub val_ap: Vec<f64>,
    pub best_epoch: Option<u64>,
    pub threshold: Option<f64>,
    pub anomalies: Vec<AnomalyRecord>,
    pub early_stopped: bool,
    pub completed: bool,
    pub params_crc32: u32,
    pub shards_loaded: u64,
    pub shard_examples: u64,
    pub quarantined_shards: Vec<ShardIssue>,
}

/// The one report schema. Exactly one of `campaign`/`train` is populated,
/// matching `kind`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    pub schema_version: u16,
    /// `"campaign"` or `"train"`.
    pub kind: String,
    pub campaign: Option<CampaignSummary>,
    pub train: Option<TrainSummary>,
}

impl Report {
    pub fn for_campaign(summary: CampaignSummary) -> Report {
        Report {
            schema_version: REPORT_SCHEMA_VERSION,
            kind: "campaign".into(),
            campaign: Some(summary),
            train: None,
        }
    }

    pub fn for_train(summary: TrainSummary) -> Report {
        Report {
            schema_version: REPORT_SCHEMA_VERSION,
            kind: "train".into(),
            campaign: None,
            train: Some(summary),
        }
    }

    /// Canonical serialization used by `--report` files and
    /// `snowcat status --json` (pretty JSON plus a trailing newline, so the
    /// two are byte-comparable).
    pub fn to_canonical_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serialization is infallible");
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_campaign() -> Report {
        Report::for_campaign(CampaignSummary {
            label: "PCT".into(),
            seed: 77,
            ctis: 8,
            executions: 120,
            inferences: 0,
            races: 9,
            harmful_races: 2,
            sched_dep_blocks: 33,
            bugs_found: vec![1, 4],
            sim_hours: 0.25,
            quarantined: vec![(3, 5)],
            hung_attempts: 1,
            retries: 1,
            wasted_executions: 5,
            skipped_quarantined: 0,
            predictor: Some(PredictorCounters { inferences: 10, batches: 2, ..Default::default() }),
        })
    }

    #[test]
    fn report_round_trips() {
        let r = sample_campaign();
        let s = r.to_canonical_json();
        let back = serde_json::from_str::<Report>(&s).unwrap();
        assert_eq!(back, r);
        let t = Report::for_train(TrainSummary {
            epochs: 2,
            epoch_losses: vec![0.5, 0.25],
            val_ap: vec![0.7, 0.8],
            best_epoch: Some(1),
            threshold: Some(0.5),
            anomalies: vec![AnomalyRecord {
                epoch: 1,
                attempt: 0,
                kind: "nan-grad".into(),
                detail: "x".into(),
            }],
            early_stopped: false,
            completed: true,
            params_crc32: 0xDEAD_BEEF,
            shards_loaded: 2,
            shard_examples: 64,
            quarantined_shards: vec![ShardIssue { path: "s1.scds".into(), reason: "crc".into() }],
        });
        let back = serde_json::from_str::<Report>(&t.to_canonical_json()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn garbage_is_rejected() {
        // The pre-`Report` campaign `--out` blob.
        let old_campaign = r#"{
          "result": {
            "label": "PCT",
            "history": [
              {"ctis": 1, "executions": 10, "inferences": 0, "hours": 0.1,
               "races": 1, "harmful_races": 0, "sched_dep_blocks": 4, "bugs": 0},
              {"ctis": 2, "executions": 25, "inferences": 0, "hours": 0.2,
               "races": 3, "harmful_races": 1, "sched_dep_blocks": 9, "bugs": 1}
            ],
            "bugs_found": [7]
          },
          "quarantined": [[1, 2]],
          "recovery": {"hung_attempts": 2, "retries": 2, "wasted_executions": 6,
                       "quarantined": 1, "skipped_quarantined": 0, "checkpoints_written": 3},
          "resumed_from": null,
          "predictor_stats": null
        }"#;
        // The pre-`Report` train `--report` blob.
        let old_train = r#"{
          "result": {
            "epoch_losses": [0.5, 0.4],
            "val_ap": [0.6, 0.65],
            "best_epoch": 1,
            "threshold": 0.5,
            "anomalies": [{"epoch": 0, "attempt": 0, "kind": "nan-loss", "detail": "d"}],
            "early_stopped": false,
            "completed": true,
            "params_crc32": 123
          },
          "quarantine": {"loaded": 3, "examples": 90,
                         "quarantined": [{"path": "bad.scds", "reason": "checksum"}]}
        }"#;
        for text in ["{}", "nope", old_campaign, old_train] {
            assert!(serde_json::from_str::<Report>(text).is_err(), "parsed as a Report: {text}");
        }
    }
}
