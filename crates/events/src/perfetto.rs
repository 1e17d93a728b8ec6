//! Chrome/Perfetto `trace_event` JSON exporter.
//!
//! Produces the classic `{"traceEvents":[...]}` object format that both
//! `chrome://tracing` and ui.perfetto.dev ingest. Durations (executions,
//! stage timings) become `ph:"X"` complete events; everything else becomes
//! an `ph:"i"` instant so it shows up as a marker on the timeline.

use crate::schema::{CampaignEvent, Event, EventRecord, FleetEvent, ServeEvent, TrainEvent};
use serde::Value;

const PID: i64 = 1;

/// The vendored serde has no `Serialize` impl for `Value` itself; this
/// adapter lets a hand-built tree reuse the JSON writer.
struct Raw(Value);

impl serde::Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// Accumulates trace events; serialized once at the end of the run.
#[derive(Default)]
pub struct PerfettoBuilder {
    events: Vec<Value>,
}

impl PerfettoBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    fn push_raw(
        &mut self,
        name: String,
        ph: &str,
        ts: u64,
        dur: Option<u64>,
        tid: u64,
        args: Vec<(&str, Value)>,
    ) {
        let mut fields = vec![
            ("name", Value::Str(name)),
            ("ph", s(ph)),
            ("ts", Value::UInt(ts)),
            ("pid", Value::Int(PID)),
            ("tid", Value::UInt(tid)),
        ];
        if let Some(d) = dur {
            fields.push(("dur", Value::UInt(d)));
        }
        if ph == "i" {
            fields.push(("s", s("t")));
        }
        if !args.is_empty() {
            fields.push(("args", obj(args)));
        }
        self.events.push(obj(fields));
    }

    /// Map one record onto the timeline.
    pub fn push(&mut self, rec: &EventRecord) {
        let t = rec.t_us;
        match &rec.event {
            Event::Campaign(CampaignEvent::ExecutionOutcome {
                position,
                ct_a,
                ct_b,
                latency_us,
                new_races,
                new_blocks,
                ..
            }) => {
                self.push_raw(
                    format!("exec ct{ct_a}x{ct_b}"),
                    "X",
                    t.saturating_sub(*latency_us),
                    Some((*latency_us).max(1)),
                    0,
                    vec![
                        ("position", Value::UInt(*position)),
                        ("new_races", Value::UInt(*new_races)),
                        ("new_blocks", Value::UInt(*new_blocks)),
                    ],
                );
            }
            Event::Campaign(CampaignEvent::StageTiming { stage, micros }) => {
                self.push_raw(
                    format!("stage {stage}"),
                    "X",
                    t.saturating_sub(*micros),
                    Some((*micros).max(1)),
                    0,
                    vec![],
                );
            }
            // Fleet shard lifecycle: one lane per worker slot, markers for
            // lease/steal/loss so recovery paths are visible at a glance.
            Event::Fleet(FleetEvent::ShardLeased { shard, worker, generation, deadline_ms }) => {
                self.push_raw(
                    format!("lease shard{shard}"),
                    "i",
                    t,
                    None,
                    *worker + 1,
                    vec![
                        ("generation", Value::UInt(*generation)),
                        ("deadline_ms", Value::UInt(*deadline_ms)),
                    ],
                );
            }
            Event::Fleet(FleetEvent::ShardStolen {
                shard,
                from_worker,
                to_worker,
                generation,
                resume_position,
            }) => {
                self.push_raw(
                    format!("steal shard{shard} w{from_worker}->w{to_worker}"),
                    "i",
                    t,
                    None,
                    *to_worker + 1,
                    vec![
                        ("generation", Value::UInt(*generation)),
                        ("resume_position", Value::UInt(*resume_position)),
                    ],
                );
            }
            Event::Fleet(FleetEvent::WorkerLost { worker, shard, detail }) => {
                self.push_raw(
                    format!("worker {worker} lost"),
                    "i",
                    t,
                    None,
                    *worker + 1,
                    vec![("shard", Value::UInt(*shard)), ("detail", Value::Str(detail.clone()))],
                );
            }
            Event::Fleet(FleetEvent::ShardCompleted { shard, worker, executions, races }) => {
                self.push_raw(
                    format!("shard{shard} done"),
                    "i",
                    t,
                    None,
                    *worker + 1,
                    vec![("executions", Value::UInt(*executions)), ("races", Value::UInt(*races))],
                );
            }
            Event::Train(TrainEvent::EpochCompleted { epoch, loss, .. }) => {
                self.push_raw(
                    format!("epoch {epoch}"),
                    "i",
                    t,
                    None,
                    0,
                    vec![("loss", Value::Float(*loss))],
                );
            }
            // Serving latency as a counter track, swaps as markers.
            Event::Serve(ServeEvent::Snapshot { p99_us, .. }) => {
                self.push_raw(
                    "serve latency".into(),
                    "C",
                    t,
                    None,
                    0,
                    vec![("p99_us", Value::UInt(*p99_us))],
                );
            }
            Event::Serve(ServeEvent::SwapInstalled { epoch, name, .. }) => {
                self.push_raw(
                    format!("swap#{epoch} -> {name}"),
                    "i",
                    t,
                    None,
                    0,
                    vec![("epoch", Value::UInt(*epoch))],
                );
            }
            Event::Serve(ServeEvent::SwapRolledBack { epoch, candidate_ap, incumbent_ap }) => {
                self.push_raw(
                    format!("swap#{epoch} rolled back"),
                    "i",
                    t,
                    None,
                    0,
                    vec![
                        ("candidate_ap", Value::Float(*candidate_ap)),
                        ("incumbent_ap", Value::Float(*incumbent_ap)),
                    ],
                );
            }
            other => {
                self.push_raw(other.tag().to_string(), "i", t, None, 0, vec![]);
            }
        }
    }

    /// Serialize as `{"traceEvents":[...]}`.
    pub fn into_json(self) -> String {
        let root = obj(vec![("traceEvents", Value::Array(self.events))]);
        serde_json::to_string(&Raw(root)).expect("value serialization is infallible")
    }
}

/// Parse a trace export and check every event has the required keys.
/// Returns the number of trace events.
pub fn validate_trace(text: &str) -> Result<u64, String> {
    let v = serde_json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    for (i, ev) in events.iter().enumerate() {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if ev.get(key).is_none() {
                return Err(format!("traceEvents[{i}] missing required key '{key}'"));
            }
        }
    }
    Ok(events.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::EVENT_SCHEMA_VERSION;

    #[test]
    fn exec_events_become_complete_slices() {
        let mut b = PerfettoBuilder::new();
        b.push(&EventRecord {
            v: EVENT_SCHEMA_VERSION,
            seq: 0,
            t_us: 1000,
            event: Event::Campaign(CampaignEvent::ExecutionOutcome {
                position: 0,
                ct_a: 1,
                ct_b: 2,
                attempt: 0,
                executions: 1,
                new_races: 0,
                new_blocks: 3,
                latency_us: 250,
            }),
        });
        b.push(&EventRecord {
            v: EVENT_SCHEMA_VERSION,
            seq: 1,
            t_us: 1100,
            event: Event::Train(TrainEvent::RolledBack { epoch: 2, attempt: 1 }),
        });
        let json = b.into_json();
        assert_eq!(validate_trace(&json).unwrap(), 2);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_trace("not json").is_err());
        assert!(validate_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
    }
}
