//! Predictor-as-a-service for the Snowcat reproduction.
//!
//! The offline pipeline deploys the learned coverage predictor as a value
//! owned by one campaign. This crate turns it into a **long-lived
//! in-process inference server** that many concurrent clients share:
//!
//! * [`InferenceServer`] owns the model and the serving counters. Every
//!   request predicts on its caller's thread against one model epoch: the
//!   server holds no queue and spawns no thread, and a handle that never
//!   sends delays nobody.
//! * [`ServerHandle`] is the cloneable client. It implements
//!   [`snowcat_core::CoveragePredictor`], so campaigns, fleet slots and
//!   benches plug in unchanged — and served results are **bit-identical**
//!   to calling the model directly, because a request is one
//!   [`snowcat_core::DeployedModel::predict`] call, the same one a direct
//!   `Pic` makes, and per-graph inference never depends on the request it
//!   arrived in.
//! * [`SwapCell`] holds the served weights behind an arc-swap:
//!   [`InferenceServer::try_swap`] installs a refreshed checkpoint
//!   **atomically** (in-flight requests finish on the epoch they hold),
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
pub use model::{ApGate, ModelEpoch, SwapCell, SwapOutcome};
pub use refresh::{run_refresher, RefreshConfig, RefreshReport};
pub use server::{InferenceServer, ServeConfig, ServerHandle};
pub use stats::{LatencyHistogram, ServingReport};
