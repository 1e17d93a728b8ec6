//! Predictor-as-a-service for the Snowcat reproduction.
//!
//! The offline pipeline deploys the learned coverage predictor as a value
//! owned by one campaign. This crate turns it into a **long-lived
//! in-process inference server** that many concurrent clients share:
//!
//! * [`InferenceServer`] owns the model behind an MPSC request queue with
//!   **adaptive micro-batching** — a flush goes out when it fills
//!   ([`ServeConfig::max_batch`]), when every live handle has a request
//!   queued (no other request can arrive), or when the oldest request ages
//!   out ([`ServeConfig::max_wait_us`]), whichever comes first. Every flush
//!   runs on the thread of a caller that is waiting for a result, or of
//!   `shutdown`; the server spawns no thread.
//! * [`ServerHandle`] is the cloneable client. It implements
//!   [`snowcat_core::CoveragePredictor`], so campaigns, worker pools and
//!   benches plug in unchanged — and served results are **bit-identical**
//!   to calling the model directly, for any batching schedule, because
//!   per-graph inference never depends on batch composition.
//! * [`SwapCell`] holds the served weights behind an arc-swap:
//!   [`InferenceServer::try_swap`] installs a refreshed checkpoint
//!   **atomically** (in-flight flushes finish on the epoch they hold),
//!   guarded by [`Checkpoint::sanity_check`] up front and an
//!   **AP-regression breaker** ([`ApGate`]) that rolls a degraded
//!   candidate back to the incumbent weights.
//! * [`run_refresher`] is the online-learning loop: it drains freshly
//!   executed CTs from a [`snowcat_harness::CtFeed`], fine-tunes the
//!   served weights with the anomaly-guarded trainer, and offers each
//!   candidate to the swap gate. [`run_served_campaign`] wires the whole
//!   thing to the fault-tolerant campaign supervisor.
//!
//! [`Checkpoint::sanity_check`]: snowcat_nn::Checkpoint::sanity_check

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod model;
pub mod refresh;
pub mod server;
pub mod stats;

pub use campaign::{run_served_campaign, ServedCampaignConfig, ServedCampaignOutcome};
pub use model::{ApGate, EpochPredictor, ModelEpoch, SwapCell, SwapOutcome};
pub use refresh::{run_refresher, RefreshConfig, RefreshReport};
pub use server::{InferenceServer, ServeConfig, ServerHandle};
pub use stats::{LatencyHistogram, ServingReport};
