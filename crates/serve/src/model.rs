//! Owned model snapshots and the atomic hot-swap cell.
//!
//! The deployed [`snowcat_core::Pic`] borrows the kernel image for graph
//! construction, which would tie a long-lived server to a stack frame. Serving therefore splits the two roles: graph building stays on
//! the campaign side (through [`snowcat_core::PredictorService`]), while the
//! server owns a fully `'static` [`ModelEpoch`] — a
//! [`snowcat_core::DeployedModel`] (restored weights, tuned threshold,
//! prediction memo) and its fingerprint — behind a [`SwapCell`]. Each epoch
//! starts with an empty memo, so no prediction crosses a swap.
//!
//! A swap replaces the `Arc<ModelEpoch>` under a write lock: requests that
//! already cloned the old `Arc` finish on the old weights, every later
//! request picks up the new ones, and nothing is ever predicted on a
//! half-written model. The previous epoch is retained so the AP-regression
//! gate can roll a bad candidate back.

use parking_lot::{Mutex, MutexGuard, RwLock};
use snowcat_core::{
    checkpoint_fingerprint, CoveragePredictor, DeployedModel, PredictedCoverage, PredictorStats,
};
use snowcat_graph::CtGraph;
use snowcat_nn::{urb_average_precision, Checkpoint, LabeledGraph, PicModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One immutable generation of the served model. Everything a request
/// needs to predict is owned here, so a request holding an
/// `Arc<ModelEpoch>` is unaffected by concurrent swaps.
pub struct ModelEpoch {
    /// Restored weights and tuned threshold: the same memoizing forward
    /// pass a direct `Pic` runs. Per-graph output depends only on (weights,
    /// graph), never on the request it arrived in, which is what makes a
    /// served request bit-identical to a direct call.
    pub deployed: DeployedModel,
    /// Content fingerprint (same derivation as a direct `Pic` deployment,
    /// so a handle and the model it serves report the same value, and a
    /// swap to a different checkpoint changes it).
    pub fingerprint: u64,
    /// Provenance name of the checkpoint.
    pub name: String,
    /// Swap ordinal: 0 for the initial model, incremented per install.
    pub epoch: u64,
}

impl ModelEpoch {
    /// Snapshot a checkpoint into a serveable epoch.
    pub fn from_checkpoint(ck: &Checkpoint, epoch: u64) -> Self {
        Self {
            deployed: DeployedModel::new(ck),
            fingerprint: checkpoint_fingerprint(ck),
            name: ck.name.clone(),
            epoch,
        }
    }
}

/// [`CoveragePredictor`] adapter over an epoch, used to fan a request out
/// through [`snowcat_core::ParallelPredictor`]. Counters live on the server
/// (this adapter reports zeros so wrapper stats never double-count).
pub struct EpochPredictor {
    epoch: Arc<ModelEpoch>,
}

impl EpochPredictor {
    /// Wrap an epoch snapshot.
    pub fn new(epoch: Arc<ModelEpoch>) -> Self {
        Self { epoch }
    }
}

impl CoveragePredictor for EpochPredictor {
    fn predict_batch(&self, graphs: &[CtGraph]) -> Vec<PredictedCoverage> {
        self.epoch.deployed.predict(graphs)
    }

    fn stats(&self) -> PredictorStats {
        PredictorStats::new()
    }

    fn fingerprint(&self) -> u64 {
        self.epoch.fingerprint
    }

    fn name(&self) -> String {
        self.epoch.name.clone()
    }
}

/// The arc-swap holding the served model. Readers clone the current
/// `Arc<ModelEpoch>` under a read lock (nanoseconds, never blocked by
/// inference); a swap takes the write lock only for the pointer exchange.
pub struct SwapCell {
    current: RwLock<Arc<ModelEpoch>>,
    /// The epoch displaced by the most recent install, kept for rollback.
    previous: Mutex<Option<Arc<ModelEpoch>>>,
    /// Held across a whole swap transaction (see [`SwapCell::lock_swaps`]).
    swaps: Mutex<()>,
    /// Next install's ordinal.
    next_epoch: AtomicU64,
    /// Successful installs (including ones later rolled back).
    installs: AtomicU64,
}

impl SwapCell {
    /// Start serving `initial` as epoch 0.
    pub fn new(initial: ModelEpoch) -> Self {
        Self {
            current: RwLock::new(Arc::new(initial)),
            previous: Mutex::new(None),
            swaps: Mutex::new(()),
            next_epoch: AtomicU64::new(1),
            installs: AtomicU64::new(0),
        }
    }

    /// The epoch new requests will use. In-flight requests keep whatever
    /// `Arc` they already cloned.
    pub fn current(&self) -> Arc<ModelEpoch> {
        self.current.read().clone()
    }

    /// Installs so far (rollbacks do not subtract).
    pub fn installs(&self) -> u64 {
        self.installs.load(Ordering::Relaxed)
    }

    /// Serialize swap transactions: a caller holds the guard from claiming
    /// an epoch through install, gate and rollback, so two swaps never
    /// interleave.
    pub(crate) fn lock_swaps(&self) -> MutexGuard<'_, ()> {
        self.swaps.lock()
    }

    /// Claim the next epoch ordinal.
    pub(crate) fn claim_epoch(&self) -> u64 {
        self.next_epoch.fetch_add(1, Ordering::Relaxed)
    }

    /// Atomically publish `candidate`, retaining the displaced epoch for
    /// rollback.
    pub(crate) fn install(&self, candidate: ModelEpoch) {
        let displaced = {
            let mut cur = self.current.write();
            std::mem::replace(&mut *cur, Arc::new(candidate))
        };
        *self.previous.lock() = Some(displaced);
        self.installs.fetch_add(1, Ordering::Relaxed);
    }

    /// Restore the epoch displaced by the last install. Returns false when
    /// there is nothing to roll back to.
    pub(crate) fn rollback(&self) -> bool {
        match self.previous.lock().take() {
            Some(prev) => {
                *self.current.write() = prev;
                true
            }
            None => false,
        }
    }
}

/// What [`crate::InferenceServer::try_swap`] did with a candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum SwapOutcome {
    /// Candidate passed the gate and is now serving.
    Installed {
        /// Its swap ordinal.
        epoch: u64,
    },
    /// Candidate was refused before install (it never served a prediction).
    Rejected {
        /// The ordinal the candidate would have had.
        epoch: u64,
        /// Why the gate refused it.
        reason: String,
    },
    /// Candidate was installed, then the AP-regression breaker fired and
    /// the previous weights were restored.
    RolledBack {
        /// The candidate's (revoked) ordinal.
        epoch: u64,
        /// Candidate's validation AP.
        candidate_ap: f64,
        /// The incumbent's validation AP it failed to match.
        incumbent_ap: f64,
    },
}

/// The swap gate: a held-out validation set plus a regression tolerance.
///
/// Gating is two-phase. Before install, [`Checkpoint::sanity_check`]
/// refuses structurally poisoned candidates (non-finite weights, bogus
/// threshold) outright. After install, the breaker evaluates URB average
/// precision on the held-out set and rolls back when the candidate is worse
/// than `incumbent_ap - tolerance`: the breaker acts on a regression it
/// has observed, not one it predicts.
pub struct ApGate {
    valid: Vec<(CtGraph, Vec<bool>)>,
    tolerance: f64,
}

impl ApGate {
    /// Gate on `valid` (graph, per-vertex labels) with an allowed AP drop
    /// of `tolerance`.
    pub fn new(valid: Vec<(CtGraph, Vec<bool>)>, tolerance: f64) -> Self {
        Self { valid, tolerance: tolerance.max(0.0) }
    }

    /// A gate with no validation data: sanity checks still apply, the AP
    /// breaker never fires.
    pub fn disabled() -> Self {
        Self { valid: Vec::new(), tolerance: 0.0 }
    }

    /// Allowed AP drop before the breaker fires.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Number of held-out validation graphs.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// Whether the AP breaker is inert (no validation data).
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// Validation URB average precision of `model`, `None` when the gate
    /// holds no data.
    pub fn ap(&self, model: &PicModel) -> Option<f64> {
        if self.valid.is_empty() {
            return None;
        }
        let refs: Vec<LabeledGraph<'_>> =
            self.valid.iter().map(|(g, y)| (g, y.as_slice())).collect();
        Some(urb_average_precision(model, &refs))
    }

    /// Borrow the validation set as labeled references (for refresh
    /// fine-tunes that validate against the same held-out data the gate
    /// judges with).
    pub fn labeled(&self) -> Vec<LabeledGraph<'_>> {
        self.valid.iter().map(|(g, y)| (g, y.as_slice())).collect()
    }
}
