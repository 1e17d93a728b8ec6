//! Structured observability for Snowcat campaigns and training runs.
//!
//! This crate is the single schema authority for everything a campaign or a
//! training run can tell the outside world while it is live:
//!
//! * [`schema`] — the versioned, `#[non_exhaustive]` event types
//!   ([`CampaignEvent`], [`TrainEvent`], [`ServeEvent`]) and the
//!   [`EventRecord`] envelope.
//! * [`sink`] — a non-blocking bounded [`EventSink`] that never stalls the
//!   hot loop (overflow increments a drop counter instead of blocking) and a
//!   background [`EventWriter`] thread that drains it into the exporters.
//! * [`jsonl`] — the JSON-lines exporter (one event per line) with a
//!   CRC-framed footer reusing `snowcat_corpus::frame_checksummed`, plus a
//!   validating reader that detects torn tails and corrupt footers.
//! * [`perfetto`] — a Chrome/Perfetto `trace_event` JSON exporter for
//!   timeline visualization.
//! * [`report`] — the unified, versioned [`Report`] that replaces the
//!   divergent ad-hoc `--report` JSON shapes of `snowcat campaign` and
//!   `snowcat train`.
//!
//! The crate is a leaf: event payloads use plain integers and strings so
//! that `snowcat-core` and `snowcat-harness` can depend on it without
//! cycles.

pub mod jsonl;
pub mod perfetto;
pub mod report;
pub mod schema;
pub mod sink;

pub use jsonl::{
    read_stream, validate_stream, JsonlWriter, StreamIssue, StreamSummary, EVENTS_FILE,
    EVENTS_MAGIC, EVENTS_STREAM_VERSION, TRACE_FILE,
};
pub use perfetto::{validate_trace, PerfettoBuilder};
pub use report::{
    AnomalyRecord, CampaignSummary, PredictorCounters, Report, ShardIssue, TrainSummary,
    REPORT_SCHEMA_VERSION,
};
pub use schema::{
    CampaignEvent, Event, EventRecord, FleetEvent, ServeEvent, TrainEvent, EVENT_SCHEMA_VERSION,
};
pub use sink::{EventSink, EventWriter, WriteSummary};
