//! Property tests for the JSON-lines event stream: every event variant must
//! round-trip bit-exactly through the exporter, and a truncated, torn, or
//! bit-flipped stream must be *detected*, never silently accepted —
//! mirroring the SCDS corruption suite.

use proptest::prelude::*;
use snowcat_events::{
    read_stream, CampaignEvent, Event, EventRecord, FleetEvent, JsonlWriter, ServeEvent,
    TrainEvent, EVENT_SCHEMA_VERSION,
};

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(97u8..123, 0..12)
        .prop_map(|v| String::from_utf8(v).expect("ascii lowercase"))
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    (proptest::bool::ANY, 0u64..1_000_000).prop_map(|(some, v)| some.then_some(v))
}

fn arb_campaign() -> impl Strategy<Value = CampaignEvent> {
    (
        0usize..11,
        arb_string(),
        (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        (0u64..64, 0u64..64, 0u64..10_000),
        arb_opt_u64(),
        (proptest::bool::ANY, 0.0f64..1.0e4),
    )
        .prop_map(|(variant, text, (a, b, c), (x, y, z), opt, (flag, f))| match variant {
            0 => CampaignEvent::Started { label: text, seed: a, ctis: b, resumed_from: opt },
            1 => CampaignEvent::ExecutionOutcome {
                position: a,
                ct_a: x,
                ct_b: y,
                attempt: z,
                executions: b,
                new_races: c,
                new_blocks: z,
                latency_us: c,
            },
            2 => CampaignEvent::StageTiming { stage: text, micros: a },
            3 => CampaignEvent::PredictorBatch { batches: a, inferences: b },
            4 => CampaignEvent::CheckpointWritten {
                path: text,
                position: a,
                ordinal: b,
                rotated: flag,
            },
            5 => CampaignEvent::HangDetected { position: a, attempt: z, injected: flag },
            6 => CampaignEvent::Quarantined { position: a, ct_a: x, ct_b: y, attempts: z },
            7 => CampaignEvent::FaultInjected { entry: text, position: a },
            8 => CampaignEvent::PrefilterStats {
                vetoed: a,
                survivors: b,
                may_race_pairs: c,
                refined: flag,
            },
            9 => CampaignEvent::Finished {
                label: text,
                executions: a,
                inferences: b,
                races: c,
                harmful_races: x,
                blocks: y,
                bugs: z,
                quarantined: x,
                sim_hours: f,
            },
            _ => CampaignEvent::FaultInjected { entry: text, position: y },
        })
}

fn arb_train() -> impl Strategy<Value = TrainEvent> {
    (
        0usize..7,
        arb_string(),
        (0u64..1_000, 0u64..8),
        arb_opt_u64(),
        (proptest::bool::ANY, 0.0f64..1.0e3),
    )
        .prop_map(|(variant, text, (epoch, attempt), opt, (flag, f))| match variant {
            0 => TrainEvent::Started { epochs: epoch, examples: attempt, resumed_epoch: opt },
            1 => TrainEvent::ShardQuarantined { path: text, reason: "bad checksum".into() },
            2 => TrainEvent::EpochCompleted {
                epoch,
                attempt,
                loss: f,
                val_ap: opt.map(|v| v as f64 / 1.0e6),
            },
            3 => TrainEvent::AnomalyDetected { epoch, attempt, kind: text, detail: "d".into() },
            4 => TrainEvent::RolledBack { epoch, attempt },
            5 => TrainEvent::CheckpointWritten { path: text, epoch, complete: flag },
            _ => TrainEvent::Finished {
                epochs: epoch,
                best_epoch: opt,
                best_val_ap: opt.map(|v| v as f64 / 1.0e6),
                early_stopped: flag,
                diverged: !flag,
            },
        })
}

fn arb_serve() -> impl Strategy<Value = ServeEvent> {
    (
        0usize..8,
        arb_string(),
        (0u64..1_000_000, 0u64..1_000_000),
        (0u64..64, 0u64..64, 0u64..10_000),
        0.0f64..1.0,
    )
        .prop_map(|(variant, text, (a, b), (x, y, z), f)| match variant {
            0 => ServeEvent::Started { model: text },
            1 => ServeEvent::Snapshot { requests: a, graphs: b, shed: x, p50_us: z, p99_us: z * 3 },
            2 => ServeEvent::RefreshStarted { ordinal: x, examples: b },
            3 => ServeEvent::CandidateReady { ordinal: x, name: text, fingerprint: a },
            4 => ServeEvent::SwapInstalled { epoch: x, name: text, fingerprint: a },
            5 => ServeEvent::SwapRejected { epoch: x, reason: text },
            6 => ServeEvent::SwapRolledBack { epoch: x, candidate_ap: f, incumbent_ap: 1.0 - f },
            _ => ServeEvent::Stopped { requests: a, graphs: b, swaps: y },
        })
}

fn arb_fleet() -> impl Strategy<Value = FleetEvent> {
    (
        0usize..15,
        arb_string(),
        (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
        (0u64..64, 0u64..64, 0u64..10_000),
        proptest::bool::ANY,
    )
        .prop_map(|(variant, text, (a, b, c), (x, y, z), flag)| match variant {
            0 => FleetEvent::Started { workers: x, shards: y, stream_len: a, resumed: flag },
            1 => FleetEvent::ShardLeased { shard: x, worker: y, generation: z, deadline_ms: a },
            2 => FleetEvent::LeaseExpired { shard: x, worker: y, deadline_ms: a },
            3 => FleetEvent::WorkerLost { worker: y, shard: x, detail: text },
            4 => FleetEvent::ShardStolen {
                shard: x,
                from_worker: y,
                to_worker: z,
                generation: b,
                resume_position: a,
            },
            5 => FleetEvent::ShardCompleted { shard: x, worker: y, executions: a, races: b },
            6 => FleetEvent::ShardQuarantined { shard: x, generations: z },
            7 => FleetEvent::CheckpointWritten {
                path: text,
                done_shards: x,
                ordinal: b,
                rotated: flag,
            },
            8 => FleetEvent::WorkerSpawned { worker: y, pid: a, attempt: z },
            9 => FleetEvent::WorkerHandshakeFailed { worker: y, attempt: z, detail: text },
            10 => FleetEvent::WorkerRespawned { worker: y, attempt: z, backoff_ms: a },
            11 => FleetEvent::WorkerCrashLoop { worker: y, deaths: z, detail: text },
            12 => FleetEvent::FleetDegraded { live_workers: x, min_workers: y },
            13 => FleetEvent::Failed { detail: text },
            _ => FleetEvent::Finished {
                shards: x,
                steals: y,
                reexecutions: z,
                lost_workers: b,
                quarantined_shards: c,
                executions: a,
                races: b,
            },
        })
}

fn arb_event() -> impl Strategy<Value = Event> {
    (0usize..4, arb_campaign(), arb_train(), arb_serve(), arb_fleet()).prop_map(
        |(leg, c, t, s, fl)| match leg {
            0 => Event::Campaign(c),
            1 => Event::Train(t),
            2 => Event::Serve(s),
            _ => Event::Fleet(fl),
        },
    )
}

/// One record per schema variant, so coverage of every arm is guaranteed
/// rather than probabilistic.
fn one_of_each() -> Vec<Event> {
    vec![
        Event::Campaign(CampaignEvent::Started {
            label: "pct".into(),
            seed: 7,
            ctis: 4,
            resumed_from: Some(2),
        }),
        Event::Campaign(CampaignEvent::ExecutionOutcome {
            position: 0,
            ct_a: 1,
            ct_b: 2,
            attempt: 0,
            executions: 5,
            new_races: 1,
            new_blocks: 9,
            latency_us: 130,
        }),
        Event::Campaign(CampaignEvent::StageTiming { stage: "select".into(), micros: 12 }),
        Event::Campaign(CampaignEvent::PredictorBatch { batches: 1, inferences: 8 }),
        Event::Campaign(CampaignEvent::CheckpointWritten {
            path: "c.ckpt".into(),
            position: 3,
            ordinal: 1,
            rotated: true,
        }),
        Event::Campaign(CampaignEvent::HangDetected { position: 3, attempt: 0, injected: true }),
        Event::Campaign(CampaignEvent::Quarantined { position: 3, ct_a: 1, ct_b: 2, attempts: 3 }),
        Event::Campaign(CampaignEvent::FaultInjected { entry: "hang@3x3".into(), position: 3 }),
        Event::Campaign(CampaignEvent::PrefilterStats {
            vetoed: 31,
            survivors: 9,
            may_race_pairs: 112,
            refined: true,
        }),
        Event::Campaign(CampaignEvent::Finished {
            label: "pct".into(),
            executions: 40,
            inferences: 0,
            races: 9,
            harmful_races: 3,
            blocks: 77,
            bugs: 1,
            quarantined: 1,
            sim_hours: 1.5,
        }),
        Event::Train(TrainEvent::Started { epochs: 3, examples: 120, resumed_epoch: None }),
        Event::Train(TrainEvent::ShardQuarantined {
            path: "shard1.scds".into(),
            reason: "bad checksum".into(),
        }),
        Event::Train(TrainEvent::EpochCompleted {
            epoch: 0,
            attempt: 0,
            loss: 0.25,
            val_ap: Some(0.8),
        }),
        Event::Train(TrainEvent::AnomalyDetected {
            epoch: 1,
            attempt: 0,
            kind: "loss-divergence".into(),
            detail: "x".into(),
        }),
        Event::Train(TrainEvent::RolledBack { epoch: 1, attempt: 1 }),
        Event::Train(TrainEvent::CheckpointWritten {
            path: "t.stcp".into(),
            epoch: 1,
            complete: false,
        }),
        Event::Train(TrainEvent::Finished {
            epochs: 3,
            best_epoch: Some(2),
            best_val_ap: Some(0.82),
            early_stopped: false,
            diverged: false,
        }),
        Event::Serve(ServeEvent::Started { model: "pic-5".into() }),
        Event::Serve(ServeEvent::Snapshot {
            requests: 90,
            graphs: 410,
            shed: 2,
            p50_us: 220,
            p99_us: 900,
        }),
        Event::Serve(ServeEvent::RefreshStarted { ordinal: 1, examples: 64 }),
        Event::Serve(ServeEvent::CandidateReady {
            ordinal: 1,
            name: "pic-5+r1".into(),
            fingerprint: 0xF00D,
        }),
        Event::Serve(ServeEvent::SwapInstalled {
            epoch: 2,
            name: "pic-5+r1".into(),
            fingerprint: 0xF00D,
        }),
        Event::Serve(ServeEvent::SwapRejected { epoch: 3, reason: "non-finite weights".into() }),
        Event::Serve(ServeEvent::SwapRolledBack {
            epoch: 4,
            candidate_ap: 0.31,
            incumbent_ap: 0.78,
        }),
        Event::Serve(ServeEvent::Stopped { requests: 90, graphs: 410, swaps: 1 }),
        Event::Fleet(FleetEvent::Started { workers: 4, shards: 4, stream_len: 64, resumed: true }),
        Event::Fleet(FleetEvent::ShardLeased {
            shard: 2,
            worker: 1,
            generation: 0,
            deadline_ms: 500,
        }),
        Event::Fleet(FleetEvent::LeaseExpired { shard: 2, worker: 1, deadline_ms: 500 }),
        Event::Fleet(FleetEvent::WorkerLost {
            worker: 1,
            shard: 2,
            detail: "missed heartbeat".into(),
        }),
        Event::Fleet(FleetEvent::ShardStolen {
            shard: 2,
            from_worker: 1,
            to_worker: 3,
            generation: 1,
            resume_position: 9,
        }),
        Event::Fleet(FleetEvent::ShardCompleted { shard: 2, worker: 3, executions: 40, races: 7 }),
        Event::Fleet(FleetEvent::ShardQuarantined { shard: 0, generations: 3 }),
        Event::Fleet(FleetEvent::WorkerSpawned { worker: 1, pid: 4242, attempt: 0 }),
        Event::Fleet(FleetEvent::WorkerHandshakeFailed {
            worker: 1,
            attempt: 1,
            detail: "handshake timed out after 100ms".into(),
        }),
        Event::Fleet(FleetEvent::WorkerRespawned { worker: 1, attempt: 2, backoff_ms: 400 }),
        Event::Fleet(FleetEvent::WorkerCrashLoop {
            worker: 1,
            deaths: 4,
            detail: "exit status 8; no progress since last checkpoint".into(),
        }),
        Event::Fleet(FleetEvent::FleetDegraded { live_workers: 1, min_workers: 2 }),
        Event::Fleet(FleetEvent::CheckpointWritten {
            path: "fleet.scfc".into(),
            done_shards: 3,
            ordinal: 2,
            rotated: true,
        }),
        Event::Fleet(FleetEvent::Finished {
            shards: 4,
            steals: 1,
            reexecutions: 1,
            lost_workers: 1,
            quarantined_shards: 1,
            executions: 160,
            races: 21,
        }),
        Event::Fleet(FleetEvent::Failed {
            detail: "fleet failed: 2/2 shard(s) did not complete ([0, 1])".into(),
        }),
    ]
}

fn to_records(events: Vec<Event>) -> Vec<EventRecord> {
    events
        .into_iter()
        .enumerate()
        .map(|(i, event)| EventRecord {
            v: EVENT_SCHEMA_VERSION,
            seq: i as u64,
            t_us: (i as u64) * 17,
            event: event.sanitized(),
        })
        .collect()
}

fn write_stream(records: &[EventRecord], dropped: u64) -> String {
    let mut w = JsonlWriter::new(Vec::new());
    for r in records {
        w.write_record(r).expect("vec write");
    }
    String::from_utf8(w.finish(dropped).expect("vec write")).expect("json is utf-8")
}

#[test]
fn every_variant_roundtrips_bit_exactly() {
    let records = to_records(one_of_each());
    let text = write_stream(&records, 3);
    let summary = read_stream(&text);
    assert!(summary.is_clean(), "issues: {:?}", summary.issues);
    assert_eq!(summary.records, records);
    assert_eq!(summary.dropped, 3);
}

#[test]
fn non_finite_floats_are_sanitized_not_null() {
    // The vendored serde_json writes non-finite floats as `null`, which
    // would fail to parse back as f64 — sanitization must zero them first.
    let records = to_records(vec![
        Event::Campaign(CampaignEvent::Finished {
            label: "pct".into(),
            executions: 1,
            inferences: 0,
            races: 0,
            harmful_races: 0,
            blocks: 0,
            bugs: 0,
            quarantined: 0,
            sim_hours: f64::NAN,
        }),
        Event::Train(TrainEvent::EpochCompleted {
            epoch: 0,
            attempt: 0,
            loss: f64::INFINITY,
            val_ap: Some(f64::NEG_INFINITY),
        }),
        Event::Serve(ServeEvent::SwapRolledBack {
            epoch: 1,
            candidate_ap: f64::NAN,
            incumbent_ap: f64::INFINITY,
        }),
    ]);
    let text = write_stream(&records, 0);
    let summary = read_stream(&text);
    assert!(summary.is_clean(), "issues: {:?}", summary.issues);
    match &summary.records[0].event {
        Event::Campaign(CampaignEvent::Finished { sim_hours, .. }) => assert_eq!(*sim_hours, 0.0),
        other => panic!("wrong event: {other:?}"),
    }
    match &summary.records[1].event {
        Event::Train(TrainEvent::EpochCompleted { loss, val_ap, .. }) => {
            assert_eq!(*loss, 0.0);
            assert_eq!(*val_ap, Some(0.0));
        }
        other => panic!("wrong event: {other:?}"),
    }
    match &summary.records[2].event {
        Event::Serve(ServeEvent::SwapRolledBack { candidate_ap, incumbent_ap, .. }) => {
            assert_eq!(*candidate_ap, 0.0);
            assert_eq!(*incumbent_ap, 0.0);
        }
        other => panic!("wrong event: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_streams_roundtrip(events in proptest::collection::vec(arb_event(), 1..30),
                                   dropped in 0u64..100) {
        let records = to_records(events);
        let text = write_stream(&records, dropped);
        let summary = read_stream(&text);
        prop_assert!(summary.is_clean(), "issues: {:?}", summary.issues);
        prop_assert_eq!(summary.records, records);
        prop_assert_eq!(summary.dropped, dropped);
    }

    #[test]
    fn truncated_streams_are_detected(events in proptest::collection::vec(arb_event(), 1..10),
                                      cut_frac in 0.0f64..1.0) {
        let records = to_records(events);
        let text = write_stream(&records, 0);
        // Cut anywhere short of the full stream: the torn tail, the missing
        // footer, or the count mismatch must surface as an issue.
        let cut = ((text.len() - 1) as f64 * cut_frac) as usize;
        let torn: String = text.chars().take(cut).collect();
        let summary = read_stream(&torn);
        prop_assert!(!summary.is_clean(), "undetected truncation at {} of {}", cut, text.len());
    }

    #[test]
    fn bit_flips_are_detected(events in proptest::collection::vec(arb_event(), 1..10),
                              pos_frac in 0.0f64..1.0, bit in 0u8..7) {
        let records = to_records(events);
        let mut raw = write_stream(&records, 0).into_bytes();
        let pos = ((raw.len() - 1) as f64 * pos_frac) as usize;
        raw[pos] ^= 1 << bit;
        // A flip that produces invalid UTF-8 is skipped: the reader works on
        // &str, so such corruption is caught upstream at file-read time.
        if let Ok(text) = String::from_utf8(raw) {
            // The body hash (FNV-1a over exact line bytes) or the CRC-framed
            // footer must catch any single-bit flip.
            prop_assert!(!read_stream(&text).is_clean(), "undetected bit flip at byte {pos}");
        }
    }
}
