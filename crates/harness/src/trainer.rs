//! Robust, resumable supervised training (STCP format).
//!
//! Training is itself a long-running job (the predictor is retrained per
//! kernel version and refreshed during campaigns), so it gets the same
//! discipline as campaign execution. [`robust_train`] runs the one epoch
//! loop, [`snowcat_nn::train()`], under a hook that adds three layers:
//!
//! * **epoch-granular checkpoints** — model weights, Adam moments, the RNG
//!   stream position, the *cumulative* shuffle permutation and metric
//!   history, serialized bit-exactly (`snowcat_nn::binser`) inside the
//!   corpus crate's checksummed envelope and written atomically with
//!   `.prev` rotation. Resuming reproduces the uninterrupted run
//!   **bit-identically**, at any thread count;
//! * **anomaly guards** — the loop's per-step NaN/Inf sentinels on loss and
//!   gradient norm, and a post-epoch loss-divergence breaker. Each rolls the
//!   epoch back to its pre-epoch state and retries with a salted re-seed of
//!   the shuffle; bounded retries, then a typed
//!   [`SnowcatError::TrainingDiverged`]. Large but finite gradients are not
//!   an anomaly: Adam clips every update to a global norm;
//! * **shard-quarantining loading** — [`load_shards_quarantining`] decodes
//!   and validates each SCDS/JSON shard, sidelining corrupt or malformed
//!   ones into a [`QuarantineReport`] instead of aborting the run.
//!
//! The example type selects the task: coverage examples train the coverage
//! head, flow examples train it jointly with the flow head. A deterministic
//! [`TrainFaultPlan`] (`nan@E`, `panic@E`, `shard@K:flip|trunc`, `kill@E`)
//! drives the recovery paths end to end in tests. When no guard trips, the
//! final parameters are bit-identical to the plain loop's — robustness
//! costs nothing on the happy path.

use crate::checkpoint::{load_with_fallback, save_bytes_atomic};
use crate::fault::{corrupt, CorruptionKind};
use bytes::Bytes;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use snowcat_core::{decode_dataset_auto, SnowcatError};
use snowcat_corpus::{crc32, frame_checksummed, unframe_checksummed, validate_dataset, Dataset};
use snowcat_events::{EventSink, TrainEvent};
use snowcat_nn::binser::{
    put_adam, put_params, put_pic_config, take_adam, take_params, take_pic_config, Dec, Enc,
};
use snowcat_nn::{
    dataset_fingerprint, tune_threshold_f2_pooled, Adam, AdamSnapshot, EpochError, EpochFault,
    EpochOutcome, LabeledGraph, Next, PicConfig, PicModel, PicParams, TrainConfig, TrainExample,
    TrainHook, TrainState, Verdict,
};
use std::path::{Path, PathBuf};

/// Magic of the Snowcat Training CheckPoint envelope.
pub const TRAIN_CKPT_MAGIC: &[u8; 4] = b"STCP";
/// Current (and minimum readable) envelope version. v3 carries no
/// gradient-spike baseline; training checkpoints are short-lived working
/// state, so older files are rejected rather than migrated.
pub const TRAIN_CKPT_VERSION: u16 = 3;

/// Exit code emulating SIGKILL for `kill@E` faults (128 + 9).
const KILL_EXIT_CODE: i32 = 137;

/// Which anomaly an injected epoch fault provokes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainFaultKind {
    /// Poison one accumulated gradient entry with NaN.
    Nan,
    /// Panic a training worker.
    Panic,
}

/// Inject a fault into the first `attempts` attempts at one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainEpochFault {
    /// Epoch the fault applies to (0-based).
    pub epoch: usize,
    /// What to inject.
    pub kind: TrainFaultKind,
    /// How many consecutive attempts at that epoch are faulted.
    pub attempts: usize,
}

/// A reproducible training fault-injection plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainFaultPlan {
    /// Per-epoch gradient/worker faults.
    pub epoch_faults: Vec<TrainEpochFault>,
    /// Shard corruptions by shard index (applied to the bytes between read
    /// and decode, emulating on-disk corruption).
    pub shard_faults: Vec<(usize, CorruptionKind)>,
    /// Exit the process (as if SIGKILLed) right after this epoch completes.
    pub kill_epoch: Option<usize>,
}

impl TrainFaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.epoch_faults.is_empty() && self.shard_faults.is_empty() && self.kill_epoch.is_none()
    }

    /// The fault to inject at (`epoch`, `attempt`), if any.
    pub fn epoch_fault(&self, epoch: usize, attempt: usize) -> Option<EpochFault> {
        self.epoch_faults.iter().find(|f| f.epoch == epoch && attempt < f.attempts).map(|f| match f
            .kind
        {
            TrainFaultKind::Nan => EpochFault::NanGrads,
            TrainFaultKind::Panic => EpochFault::WorkerPanic,
        })
    }

    /// The corruption to apply to shard `index`, if any.
    pub fn shard_fault(&self, index: usize) -> Option<CorruptionKind> {
        self.shard_faults.iter().find(|(k, _)| *k == index).map(|(_, kind)| *kind)
    }

    /// True when the process should die right after `epoch` completes.
    pub fn kill_at(&self, epoch: usize) -> bool {
        self.kill_epoch == Some(epoch)
    }

    /// Parse a comma-separated spec string. Grammar (whitespace-free):
    ///
    /// * `nan@E` / `nan@ExN` — NaN-poison the gradients of the first 1
    ///   (resp. N) attempts at epoch E,
    /// * `panic@E` / `panic@ExN` — panic a training worker at epoch E,
    /// * `shard@K:flip` / `shard@K:trunc` — corrupt the Kth data shard
    ///   (0-based) before decoding,
    /// * `kill@E` — exit the process right after epoch E completes (its
    ///   checkpoint, if due, has been written).
    ///
    /// The empty string parses to the empty plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = TrainFaultPlan::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, rest) = token
                .split_once('@')
                .ok_or_else(|| format!("fault token '{token}' is missing '@'"))?;
            let bad = |field: &str| format!("'{token}': '{field}' is not a valid number");
            match kind {
                "nan" | "panic" => {
                    let (epoch, attempts) = match rest.split_once('x') {
                        Some((e, n)) => (
                            e.parse::<usize>().map_err(|_| bad(e))?,
                            n.parse::<usize>().map_err(|_| bad(n))?,
                        ),
                        None => (rest.parse::<usize>().map_err(|_| bad(rest))?, 1),
                    };
                    if attempts == 0 {
                        return Err(format!("'{token}': attempt count must be ≥ 1"));
                    }
                    let fk =
                        if kind == "nan" { TrainFaultKind::Nan } else { TrainFaultKind::Panic };
                    plan.epoch_faults.push(TrainEpochFault { epoch, kind: fk, attempts });
                }
                "shard" => {
                    let (idx, how) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("'{token}': expected shard@K:flip|trunc"))?;
                    let index = idx.parse::<usize>().map_err(|_| bad(idx))?;
                    let ck = match how {
                        "flip" => CorruptionKind::Flip,
                        "trunc" => CorruptionKind::Truncate,
                        other => return Err(format!("'{token}': unknown corruption '{other}'")),
                    };
                    plan.shard_faults.push((index, ck));
                }
                "kill" => {
                    let epoch = rest.parse::<usize>().map_err(|_| bad(rest))?;
                    if plan.kill_epoch.is_some() {
                        return Err("duplicate kill@ fault".into());
                    }
                    plan.kill_epoch = Some(epoch);
                }
                other => return Err(format!("unknown fault kind '{other}' in '{token}'")),
            }
        }
        Ok(plan)
    }
}

/// One detected-and-handled training anomaly (also recorded when the
/// retry succeeded — the report shows what was survived, not just what
/// killed the run).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnomalyEvent {
    /// Epoch the anomaly occurred in.
    pub epoch: usize,
    /// Attempt number at that epoch (0 = first try).
    pub attempt: usize,
    /// Anomaly class: `nan-loss`, `nan-grad`, `loss-divergence` or
    /// `worker-panic`.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Everything needed to continue an interrupted run bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint {
    /// Model hyperparameters (resume must match).
    pub pic_cfg: PicConfig,
    /// Training schedule: total epochs.
    pub epochs: usize,
    /// Training schedule: learning rate (compared bit-exactly on resume).
    pub lr: f32,
    /// Training schedule: batch size.
    pub batch: usize,
    /// Training schedule: shuffle seed.
    pub seed: u64,
    /// Structural fingerprint of the training set (resume must match).
    pub data_fingerprint: u64,
    /// Epochs fully completed.
    pub epochs_done: usize,
    /// RNG stream position after the last completed epoch's shuffle.
    pub rng_state: [u64; 4],
    /// The cumulative in-place shuffle permutation. `shuffle` permutes the
    /// index vector *in place*, so epoch N's order depends on every prior
    /// shuffle — without this vector a resumed run would diverge even with
    /// the exact RNG position.
    pub order: Vec<u32>,
    /// Model parameters after the last completed epoch.
    pub params: PicParams,
    /// Best validation checkpoint so far: (epoch, URB AP, parameters).
    pub best: Option<(usize, f64, PicParams)>,
    /// Complete optimizer state.
    pub adam: AdamSnapshot,
    /// Mean training loss per completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation URB AP per completed epoch.
    pub val_ap: Vec<f64>,
    /// Anomalies detected (and survived) so far.
    pub anomalies: Vec<AnomalyEvent>,
    /// Tuned threshold (complete checkpoints only).
    pub threshold: Option<f32>,
    /// Whether patience-based early stopping ended the run.
    pub early_stopped: bool,
    /// True once the run finished (best restored, threshold tuned);
    /// resuming a complete checkpoint short-circuits to its report.
    pub complete: bool,
}

/// Serialize a training checkpoint into its checksummed STCP envelope.
pub fn encode_train_checkpoint(ck: &TrainCheckpoint) -> Vec<u8> {
    let mut e = Enc::new();
    put_pic_config(&mut e, &ck.pic_cfg);
    e.put_u64(ck.epochs as u64);
    e.put_f32(ck.lr);
    e.put_u64(ck.batch as u64);
    e.put_u64(ck.seed);
    e.put_u64(ck.data_fingerprint);
    e.put_u64(ck.epochs_done as u64);
    for w in ck.rng_state {
        e.put_u64(w);
    }
    e.put_u32(ck.order.len() as u32);
    for &i in &ck.order {
        e.put_u32(i);
    }
    put_params(&mut e, &ck.params);
    match &ck.best {
        None => e.put_u8(0),
        Some((epoch, ap, params)) => {
            e.put_u8(1);
            e.put_u64(*epoch as u64);
            e.put_f64(*ap);
            put_params(&mut e, params);
        }
    }
    put_adam(&mut e, &ck.adam);
    e.put_f32s(&ck.epoch_losses);
    e.put_f64s(&ck.val_ap);
    e.put_u32(ck.anomalies.len() as u32);
    for a in &ck.anomalies {
        e.put_u64(a.epoch as u64);
        e.put_u64(a.attempt as u64);
        e.put_str(&a.kind);
        e.put_str(&a.detail);
    }
    match ck.threshold {
        None => e.put_u8(0),
        Some(t) => {
            e.put_u8(1);
            e.put_f32(t);
        }
    }
    e.put_u8(u8::from(ck.early_stopped));
    e.put_u8(u8::from(ck.complete));
    frame_checksummed(TRAIN_CKPT_MAGIC, TRAIN_CKPT_VERSION, &e.finish()).to_vec()
}

/// Decode a training checkpoint, verifying magic, version, length and
/// checksum before touching the payload.
pub fn decode_train_checkpoint(path: &Path, bytes: &[u8]) -> Result<TrainCheckpoint, SnowcatError> {
    let bad = |detail: String| SnowcatError::CheckpointCorrupt { path: path.to_owned(), detail };
    let (_, payload) = unframe_checksummed(
        TRAIN_CKPT_MAGIC,
        TRAIN_CKPT_VERSION,
        TRAIN_CKPT_VERSION,
        Bytes::from(bytes.to_vec()),
    )
    .map_err(|e| bad(e.to_string()))?;
    let mut d = Dec::new(payload.as_slice());
    let decode = |d: &mut Dec<'_>| -> Result<TrainCheckpoint, snowcat_nn::BinError> {
        let pic_cfg = take_pic_config(d)?;
        let epochs = d.take_u64()? as usize;
        let lr = d.take_f32()?;
        let batch = d.take_u64()? as usize;
        let seed = d.take_u64()?;
        let data_fingerprint = d.take_u64()?;
        let epochs_done = d.take_u64()? as usize;
        let mut rng_state = [0u64; 4];
        for w in &mut rng_state {
            *w = d.take_u64()?;
        }
        let n_order = d.take_u32()? as usize;
        let order = (0..n_order).map(|_| d.take_u32()).collect::<Result<Vec<u32>, _>>()?;
        let params = take_params(d)?;
        let best = match d.take_u8()? {
            0 => None,
            _ => {
                let epoch = d.take_u64()? as usize;
                let ap = d.take_f64()?;
                Some((epoch, ap, take_params(d)?))
            }
        };
        let adam = take_adam(d)?;
        let epoch_losses = d.take_f32s()?;
        let val_ap = d.take_f64s()?;
        let n_anoms = d.take_u32()? as usize;
        let mut anomalies = Vec::with_capacity(n_anoms.min(1024));
        for _ in 0..n_anoms {
            anomalies.push(AnomalyEvent {
                epoch: d.take_u64()? as usize,
                attempt: d.take_u64()? as usize,
                kind: d.take_str()?,
                detail: d.take_str()?,
            });
        }
        let threshold = match d.take_u8()? {
            0 => None,
            _ => Some(d.take_f32()?),
        };
        let early_stopped = d.take_u8()? != 0;
        let complete = d.take_u8()? != 0;
        d.expect_end()?;
        Ok(TrainCheckpoint {
            pic_cfg,
            epochs,
            lr,
            batch,
            seed,
            data_fingerprint,
            epochs_done,
            rng_state,
            order,
            params,
            best,
            adam,
            epoch_losses,
            val_ap,
            anomalies,
            threshold,
            early_stopped,
            complete,
        })
    };
    decode(&mut d).map_err(|e| bad(format!("payload is not a training checkpoint: {e}")))
}

/// Atomically write a training checkpoint with `.prev` rotation (see
/// [`crate::checkpoint::save_bytes_atomic`]).
pub fn save_train_checkpoint_atomic(path: &Path, ck: &TrainCheckpoint) -> Result<(), SnowcatError> {
    save_bytes_atomic(path, &encode_train_checkpoint(ck))
}

/// Load a training checkpoint, falling back to `<path>.prev` when the
/// current file is missing or corrupt. Returns the checkpoint and whether
/// the fallback was used.
pub fn load_train_checkpoint_with_fallback(
    path: &Path,
) -> Result<(TrainCheckpoint, bool), SnowcatError> {
    load_with_fallback(path, &|p, bytes| decode_train_checkpoint(p, bytes))
}

/// Supervised-training configuration wrapping the plain [`TrainConfig`].
#[derive(Debug, Clone, Default)]
pub struct RobustTrainConfig {
    /// The underlying schedule (epochs, lr, batch, seed, threads).
    pub train: TrainConfig,
    /// Where to write training checkpoints (None = never checkpoint).
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint cadence in completed epochs.
    pub checkpoint_every: usize,
    /// Stop after this many epochs without a validation-AP improvement.
    pub patience: Option<usize>,
    /// Salted retries per epoch before declaring divergence.
    pub max_retries: usize,
    /// Loss-divergence breaker: mean epoch loss above this multiple of the
    /// best (minimum) prior epoch loss fails the epoch.
    pub divergence_factor: f32,
    /// Stop cleanly after this many epochs completed *in this call* (the
    /// in-process analogue of a kill, for resume tests).
    pub stop_after: Option<usize>,
    /// Sleep after each epoch (lets CLI kill tests land mid-run).
    pub stall_ms: u64,
    /// Deterministic fault injection.
    pub fault_plan: TrainFaultPlan,
    /// Structured-event sink (`None` disables instrumentation; emission is
    /// non-blocking and never fails the run).
    pub events: Option<EventSink>,
}

impl RobustTrainConfig {
    /// Defaults: checkpoint every epoch (when a path is given), 2 salted
    /// retries, 4× divergence breaker.
    pub fn new(train: TrainConfig) -> Self {
        Self {
            train,
            checkpoint_path: None,
            checkpoint_every: 1,
            patience: None,
            max_retries: 2,
            divergence_factor: 4.0,
            stop_after: None,
            stall_ms: 0,
            fault_plan: TrainFaultPlan::default(),
            events: None,
        }
    }
}

/// Result of a supervised training run. Deliberately excludes wall-clock
/// time so the report of a killed-and-resumed run serializes byte-identical
/// to an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainRunReport {
    /// Mean training loss per completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation URB AP per completed epoch.
    pub val_ap: Vec<f64>,
    /// Epoch whose parameters were kept (best validation AP).
    pub best_epoch: Option<usize>,
    /// F2-tuned classification threshold (None without a validation set or
    /// on an incomplete run).
    pub threshold: Option<f32>,
    /// Anomalies detected and survived.
    pub anomalies: Vec<AnomalyEvent>,
    /// Whether patience-based early stopping ended the run.
    pub early_stopped: bool,
    /// False when `stop_after` interrupted the run before the last epoch.
    pub completed: bool,
    /// CRC32 of the bit-exact serialized final parameters — a strong
    /// weight-identity witness for resume tests.
    pub params_crc32: u32,
}

/// CRC32 over the bit-exact serialization of a parameter set.
pub fn params_crc32(params: &PicParams) -> u32 {
    let mut e = Enc::new();
    put_params(&mut e, params);
    crc32(&e.finish())
}

/// The post-epoch loss-divergence breaker: fails an epoch whose mean loss
/// is non-finite or exceeds `factor` times the best prior epoch loss.
pub fn loss_diverged(mean_loss: f32, prior_losses: &[f32], factor: f32) -> bool {
    if !mean_loss.is_finite() {
        return true;
    }
    let min_prior = prior_losses.iter().copied().fold(f32::INFINITY, f32::min);
    min_prior.is_finite() && min_prior > 1e-12 && mean_loss > factor * min_prior
}

/// The [`TrainRunReport`] view of a *complete* STCP checkpoint — what
/// `robust_train` would have returned from the run that wrote it.
pub fn report_from_checkpoint(ck: &TrainCheckpoint) -> TrainRunReport {
    TrainRunReport {
        epoch_losses: ck.epoch_losses.clone(),
        val_ap: ck.val_ap.clone(),
        best_epoch: ck.best.as_ref().map(|b| b.0),
        threshold: ck.threshold,
        anomalies: ck.anomalies.clone(),
        early_stopped: ck.early_stopped,
        completed: true,
        params_crc32: params_crc32(&ck.params),
    }
}

/// [`robust_train`]'s hook on the epoch loop: fault injection, the anomaly
/// log and its events, the divergence breaker and retry budget, patience,
/// `stop_after`, STCP writes, and the `kill@E` / `stall_ms` test seams.
struct Supervisor<'a> {
    cfg: &'a RobustTrainConfig,
    fingerprint: u64,
    anomalies: Vec<AnomalyEvent>,
    /// The accepted attempt at the epoch being completed.
    attempt: usize,
    epochs_this_call: usize,
    early_stopped: bool,
}

impl Supervisor<'_> {
    fn emit(&self, event: TrainEvent) {
        if let Some(sink) = &self.cfg.events {
            sink.train(event);
        }
    }

    fn emit_finished(&self, state: &TrainState, diverged: bool) {
        let best = state.best.as_ref();
        self.emit(TrainEvent::Finished {
            epochs: state.epoch_losses.len() as u64,
            best_epoch: best.map(|b| b.0 as u64),
            best_val_ap: best.map(|b| b.1),
            early_stopped: self.early_stopped,
            diverged,
        });
    }

    /// The run's checkpoint at `state`, with `model`'s current parameters.
    fn checkpoint(&self, model: &PicModel, state: &TrainState) -> TrainCheckpoint {
        let tc = self.cfg.train;
        TrainCheckpoint {
            pic_cfg: model.cfg,
            epochs: tc.epochs,
            lr: tc.lr,
            batch: tc.batch,
            seed: tc.seed,
            data_fingerprint: self.fingerprint,
            epochs_done: state.epochs_done,
            rng_state: state.rng.state(),
            order: state.order.iter().map(|&i| i as u32).collect(),
            params: model.params.clone(),
            best: state.best.clone(),
            adam: state.opt.snapshot(),
            epoch_losses: state.epoch_losses.clone(),
            val_ap: state.val_ap.clone(),
            anomalies: self.anomalies.clone(),
            threshold: None,
            early_stopped: false,
            complete: false,
        }
    }
}

impl TrainHook for Supervisor<'_> {
    type Error = SnowcatError;

    fn begin_attempt(&mut self, epoch: usize, attempt: usize) -> Option<EpochFault> {
        self.cfg.fault_plan.epoch_fault(epoch, attempt)
    }

    fn supervised(&self) -> bool {
        true
    }

    fn judge(
        &mut self,
        epoch: usize,
        attempt: usize,
        result: Result<&EpochOutcome, &EpochError>,
        state: &TrainState,
    ) -> Verdict<SnowcatError> {
        let factor = self.cfg.divergence_factor;
        let (kind, detail) = match result {
            Ok(out) if !loss_diverged(out.mean_loss, &state.epoch_losses, factor) => {
                self.attempt = attempt;
                return Verdict::Accept;
            }
            Ok(out) => (
                "loss-divergence",
                format!(
                    "mean epoch loss {} vs best prior {:?} (breaker x{factor})",
                    out.mean_loss,
                    state.epoch_losses.iter().copied().fold(f32::INFINITY, f32::min),
                ),
            ),
            Err(EpochError::WorkerPanicked { message }) => ("worker-panic", message.clone()),
            Err(e @ EpochError::NonFiniteLoss { .. }) => ("nan-loss", e.to_string()),
            Err(e @ EpochError::NonFiniteGradient { .. }) => ("nan-grad", e.to_string()),
        };
        self.emit(TrainEvent::AnomalyDetected {
            epoch: epoch as u64,
            attempt: attempt as u64,
            kind: kind.into(),
            detail: detail.clone(),
        });
        let cause = format!("{kind}: {detail}");
        self.anomalies.push(AnomalyEvent { epoch, attempt, kind: kind.into(), detail });
        if attempt >= self.cfg.max_retries {
            self.emit_finished(state, true);
            return Verdict::Fail(SnowcatError::TrainingDiverged {
                epoch,
                retries: attempt,
                cause,
            });
        }
        self.emit(TrainEvent::RolledBack { epoch: epoch as u64, attempt: attempt as u64 + 1 });
        Verdict::Retry
    }

    fn end_epoch(&mut self, model: &PicModel, state: &TrainState) -> Result<Next, SnowcatError> {
        let cfg = self.cfg;
        let (epoch, epochs_done) = (state.epochs_done - 1, state.epochs_done);
        self.emit(TrainEvent::EpochCompleted {
            epoch: epoch as u64,
            attempt: self.attempt as u64,
            loss: state.epoch_losses.last().map_or(f64::NAN, |&l| f64::from(l)),
            val_ap: state.val_ap.last().copied(),
        });
        self.epochs_this_call += 1;
        self.early_stopped = matches!(
            (cfg.patience, &state.best),
            (Some(p), Some((best_epoch, _, _))) if epoch - best_epoch >= p
        );
        let interrupted = !self.early_stopped
            && cfg
                .stop_after
                .is_some_and(|n| self.epochs_this_call >= n && epochs_done < cfg.train.epochs);

        if let Some(path) = &cfg.checkpoint_path {
            if epochs_done.is_multiple_of(cfg.checkpoint_every.max(1))
                || epochs_done == cfg.train.epochs
                || self.early_stopped
                || interrupted
            {
                save_train_checkpoint_atomic(path, &self.checkpoint(model, state))?;
                self.emit(TrainEvent::CheckpointWritten {
                    path: path.display().to_string(),
                    epoch: epochs_done as u64,
                    complete: false,
                });
            }
        }
        if cfg.fault_plan.kill_at(epoch) {
            // Emulate SIGKILL: no cleanup, no final checkpoint.
            std::process::exit(KILL_EXIT_CODE);
        }
        if cfg.stall_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(cfg.stall_ms));
        }
        Ok(if self.early_stopped {
            Next::Finish
        } else if interrupted {
            Next::Interrupt
        } else {
            Next::Continue
        })
    }
}

/// Train `model` under supervision: the [`snowcat_nn::train()`] loop with
/// anomaly guards, rollback-and-retry, epoch-granular checkpointing and
/// patience-based early stopping, then F2 threshold tuning on `valid`.
///
/// When no guard trips, the final parameters are **bit-identical** to the
/// plain loop (`&mut ()`) with the same [`TrainConfig`] — at any thread
/// count. With `resume`, continues from the checkpoint at
/// `cfg.checkpoint_path`, again bit-identically.
pub fn robust_train<T: TrainExample>(
    model: &mut PicModel,
    train_set: &[T],
    valid: &[LabeledGraph<'_>],
    cfg: &RobustTrainConfig,
    resume: bool,
) -> Result<TrainRunReport, SnowcatError> {
    let tc = cfg.train;
    let mut sup = Supervisor {
        cfg,
        fingerprint: dataset_fingerprint(train_set),
        anomalies: Vec::new(),
        attempt: 0,
        epochs_this_call: 0,
        early_stopped: false,
    };
    let mut resume_state = None;
    if resume {
        let path = cfg.checkpoint_path.as_deref().ok_or_else(|| {
            SnowcatError::Config("resume requested but no checkpoint path configured".into())
        })?;
        let (ck, _fell_back) = load_train_checkpoint_with_fallback(path)?;
        let mismatch = |what: &str| {
            SnowcatError::Config(format!(
                "cannot resume {}: {what} differs from the checkpointed run",
                path.display()
            ))
        };
        if ck.pic_cfg != model.cfg {
            return Err(mismatch("model configuration"));
        }
        if ck.data_fingerprint != sup.fingerprint {
            return Err(mismatch("training-set fingerprint"));
        }
        if ck.epochs != tc.epochs
            || ck.lr.to_bits() != tc.lr.to_bits()
            || ck.batch != tc.batch
            || ck.seed != tc.seed
        {
            return Err(mismatch("training schedule (epochs/lr/batch/seed)"));
        }
        if ck.order.len() != train_set.len() {
            return Err(mismatch("training-set size"));
        }
        if ck.complete {
            model.params = ck.params.clone();
            return Ok(report_from_checkpoint(&ck));
        }
        model.params = ck.params;
        sup.anomalies = ck.anomalies;
        resume_state = Some(TrainState {
            epochs_done: ck.epochs_done,
            rng: ChaCha8Rng::from_state(ck.rng_state),
            order: ck.order.iter().map(|&i| i as usize).collect(),
            opt: Adam::from_snapshot(&ck.adam),
            epoch_losses: ck.epoch_losses,
            val_ap: ck.val_ap,
            best: ck.best,
        });
    }

    sup.emit(TrainEvent::Started {
        epochs: tc.epochs as u64,
        examples: train_set.len() as u64,
        resumed_epoch: resume_state.as_ref().map(|s| s.epochs_done as u64),
    });
    let state = snowcat_nn::train(model, train_set, valid, tc, resume_state, &mut sup)?.state;

    let completed = sup.early_stopped || state.epochs_done >= tc.epochs;
    let mut threshold = None;
    if completed {
        if !valid.is_empty() {
            threshold = Some(tune_threshold_f2_pooled(model, valid));
        }
        if let Some(path) = &cfg.checkpoint_path {
            let ck = TrainCheckpoint {
                threshold,
                early_stopped: sup.early_stopped,
                complete: true,
                ..sup.checkpoint(model, &state)
            };
            save_train_checkpoint_atomic(path, &ck)?;
            sup.emit(TrainEvent::CheckpointWritten {
                path: path.display().to_string(),
                epoch: state.epochs_done as u64,
                complete: true,
            });
        }
    }
    sup.emit_finished(&state, false);
    Ok(TrainRunReport {
        best_epoch: state.best.map(|b| b.0),
        epoch_losses: state.epoch_losses,
        val_ap: state.val_ap,
        threshold,
        anomalies: sup.anomalies,
        early_stopped: sup.early_stopped,
        completed,
        params_crc32: params_crc32(&model.params),
    })
}

/// One quarantined shard.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardIssue {
    /// The shard file.
    pub path: String,
    /// Why it was quarantined (read, decode or validation failure).
    pub reason: String,
}

/// Summary of a quarantining load: what made it in, what was sidelined.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineReport {
    /// Shards loaded successfully.
    pub loaded: usize,
    /// Examples merged from the loaded shards.
    pub examples: usize,
    /// Quarantined shards with reasons, in input order.
    pub quarantined: Vec<ShardIssue>,
}

/// Load dataset shards, quarantining any that fail to read, fail the frame
/// checksum / decode, or fail structural validation (graph invariants,
/// label alignment, token ranges) — instead of aborting the run. The fault
/// plan's `shard@K` entries corrupt shard K's bytes between read and
/// decode, emulating on-disk corruption deterministically. Each sidelined
/// shard also emits a `ShardQuarantined` event to `events`, when given.
pub fn load_shards_quarantining(
    paths: &[PathBuf],
    plan: &TrainFaultPlan,
    events: Option<&EventSink>,
) -> (Dataset, QuarantineReport) {
    let mut merged = Dataset::default();
    let mut report = QuarantineReport::default();
    for (k, path) in paths.iter().enumerate() {
        let quarantine = |report: &mut QuarantineReport, reason: String| {
            if let Some(sink) = events {
                sink.train(TrainEvent::ShardQuarantined {
                    path: path.display().to_string(),
                    reason: reason.clone(),
                });
            }
            report.quarantined.push(ShardIssue { path: path.display().to_string(), reason });
        };
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                quarantine(&mut report, format!("read failed: {e}"));
                continue;
            }
        };
        let bytes = match plan.shard_fault(k) {
            Some(kind) => corrupt(&bytes, kind),
            None => bytes,
        };
        let ds = match decode_dataset_auto(path, bytes) {
            Ok(ds) => ds,
            Err(e) => {
                quarantine(&mut report, format!("decode failed: {e}"));
                continue;
            }
        };
        if let Err(e) = validate_dataset(&ds) {
            quarantine(&mut report, format!("validation failed: {e}"));
            continue;
        }
        report.loaded += 1;
        report.examples += ds.examples.len();
        merged.examples.extend(ds.examples);
    }
    (merged, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_grammar_parses_and_rejects() {
        let plan = TrainFaultPlan::parse("nan@0,nan@1x2,panic@2,shard@0:flip,shard@3:trunc,kill@4")
            .unwrap();
        assert_eq!(plan.epoch_fault(0, 0), Some(EpochFault::NanGrads));
        assert_eq!(plan.epoch_fault(0, 1), None);
        assert_eq!(plan.epoch_fault(1, 1), Some(EpochFault::NanGrads));
        assert_eq!(plan.epoch_fault(1, 2), None);
        assert_eq!(plan.epoch_fault(2, 0), Some(EpochFault::WorkerPanic));
        assert_eq!(plan.shard_fault(0), Some(CorruptionKind::Flip));
        assert_eq!(plan.shard_fault(3), Some(CorruptionKind::Truncate));
        assert_eq!(plan.shard_fault(1), None);
        assert!(plan.kill_at(4) && !plan.kill_at(3));
        assert!(TrainFaultPlan::parse("").unwrap().is_empty());
        for bad in [
            "nan",
            "nan@",
            "nan@1x0",
            "nan@x",
            "spike@1",
            "shard@1",
            "shard@1:melt",
            "kill@x",
            "boom@1",
            "kill@1,kill@2",
        ] {
            assert!(TrainFaultPlan::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn divergence_breaker_logic() {
        assert!(loss_diverged(f32::NAN, &[], 4.0));
        assert!(loss_diverged(f32::INFINITY, &[0.5], 4.0));
        assert!(!loss_diverged(1.0, &[], 4.0), "no prior epochs, finite loss: fine");
        assert!(!loss_diverged(1.9, &[0.5, 0.8], 4.0));
        assert!(loss_diverged(2.1, &[0.5, 0.8], 4.0));
    }
}
