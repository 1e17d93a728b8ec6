//! Fault-tolerant campaign fleet: sharded workers, lease-based work
//! stealing, and crash-consistent SCFC fleet checkpoints.
//!
//! The coordinator deterministically partitions the CT-candidate stream
//! into contiguous shards (one per worker at creation) and hands each
//! shard to a [`FleetWorker`] under a *lease*: the worker heartbeats once
//! per processed stream position, and a lease whose heartbeat goes silent
//! past the deadline is revoked — the worker is declared dead, the shard
//! re-queued, and the next idle worker *steals* it, resuming from the
//! shard's last SCCP checkpoint. Because per-CTI seeds derive from
//! *global* stream positions (the shard passes its start offset to the
//! supervisor), re-execution from a checkpoint is bit-transparent: a fleet
//! that lost workers produces the same merged report as one that did not.
//! Only a shard that made *no* forward progress across a steal generation
//! is retried with salted seeds (mirroring the supervisor's hang-retry
//! policy), and after `max_steals` consecutive no-progress generations the
//! shard is quarantined rather than starving the fleet.
//!
//! Per-worker SCCP checkpoints roll up into a CRC-framed **SCFC** fleet
//! checkpoint written atomically (tmp + rename, `.prev` rotation) on every
//! shard state transition. Killing the coordinator or any worker and
//! re-running with resume yields a byte-identical merged report: resume
//! prefers the freshest usable per-shard SCCP on disk and falls back to
//! the copy embedded in the SCFC. Shard merges are commutative and
//! associative ([`ShardMerge`] keys by shard index), so the merged output
//! is independent of shard completion order.

use crate::checkpoint::{
    load_checkpoint_with_fallback, load_with_fallback, save_bytes_atomic, CampaignCheckpoint,
};
use crate::fault::{CheckpointFault, CorruptionKind, FaultPlan};
use crate::supervisor::{run_supervised_campaign, RecoveryLog, SupervisedResult, SupervisorConfig};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use snowcat_core::{CostModel, ExploreConfig, Explorer, HistoryPoint, SnowcatError};
use snowcat_corpus::{frame_checksummed, unframe_checksummed, StiProfile};
use snowcat_events::{EventSink, FleetEvent};
use snowcat_kernel::Kernel;
use snowcat_race::RaceKey;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Magic of the Snowcat Campaign Fleet Checkpoint envelope.
pub const FLEET_MAGIC: &[u8; 4] = b"SCFC";
/// Current (and minimum readable) SCFC envelope version.
pub const FLEET_VERSION: u16 = 1;
/// File name of the fleet checkpoint inside the fleet directory.
pub const FLEET_CKPT_FILE: &str = "fleet.scfc";

/// Salt applied to a shard's seeds only after a *no-progress* steal
/// generation — the fleet-level analogue of the supervisor's retry salt.
const STEAL_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

// ---------------------------------------------------------------------------
// Lease signal
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct LeaseInner {
    beats: AtomicU64,
    revoked: AtomicBool,
}

/// Shared heartbeat/revocation channel between the coordinator and one
/// lease holder. The holder beats once per processed stream position; the
/// coordinator revokes the lease when the beat counter goes silent past
/// the deadline, and the holder polls [`LeaseSignal::is_revoked`] to
/// abandon the shard instead of racing the thief.
#[derive(Clone, Debug, Default)]
pub struct LeaseSignal {
    inner: Arc<LeaseInner>,
}

impl LeaseSignal {
    /// A fresh, unrevoked signal with zero beats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record forward progress (one stream position processed).
    pub fn beat(&self) {
        self.inner.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Heartbeats recorded so far.
    pub fn beats(&self) -> u64 {
        self.inner.beats.load(Ordering::Relaxed)
    }

    /// Revoke the lease: the holder must abandon the shard.
    pub fn revoke(&self) {
        self.inner.revoked.store(true, Ordering::Relaxed);
    }

    /// Whether the coordinator revoked this lease.
    pub fn is_revoked(&self) -> bool {
        self.inner.revoked.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// SCFC checkpoint format
// ---------------------------------------------------------------------------

/// Lifecycle of one shard inside the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardStatus {
    /// Not yet leased (or re-queued after a lost lease).
    Pending,
    /// Currently leased to a worker.
    InProgress,
    /// Ran to the end of its range.
    Done,
    /// Gave up after `max_steals` consecutive no-progress generations.
    Quarantined,
}

/// One shard's durable state inside the SCFC checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardState {
    /// Shard index (also the merge key — merges sort by it).
    pub index: usize,
    /// First global stream position of the shard (inclusive).
    pub start: usize,
    /// One past the last global stream position of the shard.
    pub end: usize,
    /// Lifecycle status.
    pub status: ShardStatus,
    /// Lease generation: 0 for the first lease, +1 per steal.
    pub generation: u64,
    /// Consecutive steal generations that made no forward progress.
    pub stalled_generations: u64,
    /// Last rolled-up SCCP snapshot of the shard (fallback when the
    /// per-shard checkpoint file on disk is missing or corrupt).
    pub checkpoint: Option<CampaignCheckpoint>,
}

impl ShardState {
    /// Number of stream positions in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for a zero-length shard (more workers than stream positions).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True once the shard needs no further work.
    pub fn is_terminal(&self) -> bool {
        matches!(self.status, ShardStatus::Done | ShardStatus::Quarantined)
    }
}

/// The crash-consistent fleet checkpoint (SCFC): shard table plus fleet
/// counters, written atomically on every shard state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCheckpoint {
    /// Explorer label — resumes must match.
    pub label: String,
    /// Base exploration seed — resumes must match.
    pub seed: u64,
    /// Worker count the fleet was created with (informational; a resume
    /// may use a different count, the shard layout is already fixed).
    pub workers: usize,
    /// Whole-stream length the shards partition.
    pub stream_len: usize,
    /// Per-shard durable state.
    pub shards: Vec<ShardState>,
    /// Shards re-leased after a lost lease (generation > 0 grants).
    pub steals: u64,
    /// Stream positions re-executed because they were processed after the
    /// lost worker's last persisted checkpoint.
    pub reexecutions: u64,
    /// Workers declared dead (missed deadline, error, or panic).
    pub lost_workers: u64,
}

impl FleetCheckpoint {
    /// True once every shard is Done or Quarantined.
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(ShardState::is_terminal)
    }

    /// Indices of quarantined shards, in order.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| s.status == ShardStatus::Quarantined)
            .map(|s| s.index)
            .collect()
    }
}

/// Serialize a fleet checkpoint into its checksummed SCFC envelope.
pub fn encode_fleet_checkpoint(fc: &FleetCheckpoint) -> Result<Vec<u8>, SnowcatError> {
    let payload = serde_json::to_string(fc).map_err(|e| SnowcatError::Parse {
        path: PathBuf::new(),
        message: format!("fleet checkpoint serialization failed: {e}"),
    })?;
    Ok(frame_checksummed(FLEET_MAGIC, FLEET_VERSION, payload.as_bytes()).to_vec())
}

/// Decode a fleet checkpoint, verifying magic, version, length, checksum.
pub fn decode_fleet_checkpoint(path: &Path, bytes: &[u8]) -> Result<FleetCheckpoint, SnowcatError> {
    let corrupt =
        |detail: String| SnowcatError::CheckpointCorrupt { path: path.to_owned(), detail };
    let (_, payload) =
        unframe_checksummed(FLEET_MAGIC, FLEET_VERSION, FLEET_VERSION, Bytes::from(bytes.to_vec()))
            .map_err(|e| corrupt(e.to_string()))?;
    let text = std::str::from_utf8(payload.as_slice())
        .map_err(|e| corrupt(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| corrupt(format!("payload is not a fleet checkpoint: {e}")))
}

/// Atomically write a fleet checkpoint with `.prev` rotation.
pub fn save_fleet_checkpoint_atomic(path: &Path, fc: &FleetCheckpoint) -> Result<(), SnowcatError> {
    save_bytes_atomic(path, &encode_fleet_checkpoint(fc)?)
}

/// Load a fleet checkpoint, falling back to `<path>.prev` when the current
/// file is missing or corrupt. Returns the checkpoint and whether the
/// fallback was used.
pub fn load_fleet_checkpoint_with_fallback(
    path: &Path,
) -> Result<(FleetCheckpoint, bool), SnowcatError> {
    load_with_fallback(path, &|p, bytes| decode_fleet_checkpoint(p, bytes))
}

// ---------------------------------------------------------------------------
// Partitioning and merging
// ---------------------------------------------------------------------------

/// Deterministically partition `len` stream positions into `shards`
/// contiguous balanced ranges. One shard covering the whole stream when
/// `shards == 1`, so an unfaulted single-worker fleet is the identity.
pub fn partition_stream(len: usize, shards: usize) -> Vec<(usize, usize)> {
    let n = shards.max(1);
    (0..n).map(|i| (i * len / n, (i + 1) * len / n)).collect()
}

/// Order-independent shard-merge accumulator: a commutative, associative
/// monoid over shard checkpoints keyed by shard index. [`ShardMerge::finalize`]
/// folds in index order, so *any* merge tree over *any* arrival order
/// yields byte-identical merged output.
#[derive(Debug, Clone, Default)]
pub struct ShardMerge {
    shards: BTreeMap<usize, CampaignCheckpoint>,
}

impl ShardMerge {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) the checkpoint for shard `index`.
    pub fn add(&mut self, index: usize, ck: CampaignCheckpoint) {
        self.shards.insert(index, ck);
    }

    /// Union two accumulators (right side wins on duplicate indices).
    pub fn union(mut self, other: ShardMerge) -> ShardMerge {
        self.shards.extend(other.shards);
        self
    }

    /// Number of shards accumulated.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when nothing was accumulated.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Fold the accumulated shards (in index order) into a synthetic
    /// whole-campaign checkpoint: race/harmful keys are set unions,
    /// coverage bitmaps are ORed, counters are summed, bugs are deduped in
    /// shard-index discovery order, quarantine is the sorted union, and
    /// simulated hours are recomputed from the summed counts so merging is
    /// exact (not a float sum of per-shard hours). Errors when empty or
    /// when shards disagree on label, seed, or coverage-bitmap capacity.
    pub fn finalize(&self, cost: &CostModel) -> Result<CampaignCheckpoint, SnowcatError> {
        let mut it = self.shards.values();
        let first =
            it.next().ok_or_else(|| SnowcatError::Config("cannot merge zero shards".into()))?;
        let mut races: BTreeSet<RaceKey> = BTreeSet::new();
        let mut harmful: BTreeSet<RaceKey> = BTreeSet::new();
        let mut blocks = first.blocks.clone();
        let mut bugs = Vec::new();
        let mut quarantine: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut recovery = RecoveryLog::default();
        let (mut position, mut ctis) = (0usize, 0usize);
        let (mut executions, mut inferences) = (0u64, 0u64);
        for ck in self.shards.values() {
            if ck.label != first.label || ck.seed != first.seed {
                return Err(SnowcatError::Config(format!(
                    "shard checkpoints disagree: ('{}', {:#x}) vs ('{}', {:#x})",
                    first.label, first.seed, ck.label, ck.seed
                )));
            }
            if ck.blocks.capacity() != blocks.capacity() {
                return Err(SnowcatError::Config(
                    "shard checkpoints disagree on coverage-bitmap capacity".into(),
                ));
            }
            races.extend(ck.race_keys.iter().copied());
            harmful.extend(ck.harmful_keys.iter().copied());
            blocks.union_with(&ck.blocks);
            for bug in &ck.bugs_found {
                if !bugs.contains(bug) {
                    bugs.push(*bug);
                }
            }
            quarantine.extend(ck.quarantine.iter().copied());
            recovery.hung_attempts += ck.recovery.hung_attempts;
            recovery.retries += ck.recovery.retries;
            recovery.wasted_executions += ck.recovery.wasted_executions;
            recovery.quarantined += ck.recovery.quarantined;
            recovery.skipped_quarantined += ck.recovery.skipped_quarantined;
            recovery.checkpoints_written += ck.recovery.checkpoints_written;
            position += ck.position;
            ctis += ck.history.last().map(|h| h.ctis).unwrap_or(0);
            executions += ck.executions;
            inferences += ck.inferences;
        }
        let history = if self.shards.values().all(|ck| ck.history.is_empty()) {
            Vec::new()
        } else {
            vec![HistoryPoint {
                ctis,
                executions,
                inferences,
                hours: cost.hours(executions, inferences),
                races: races.len(),
                harmful_races: harmful.len(),
                sched_dep_blocks: blocks.count(),
                bugs: bugs.len(),
            }]
        };
        Ok(CampaignCheckpoint {
            label: first.label.clone(),
            seed: first.seed,
            position,
            executions,
            inferences,
            race_keys: races.into_iter().collect(),
            harmful_keys: harmful.into_iter().collect(),
            blocks,
            bugs_found: bugs,
            history,
            quarantine: quarantine.into_iter().collect(),
            strategy: None,
            recovery,
        })
    }
}

// ---------------------------------------------------------------------------
// Worker seam
// ---------------------------------------------------------------------------

/// Per-worker fault the coordinator arms from the [`FaultPlan`]; consumed
/// on the worker's first lease. Serde because the process transport ships
/// armed faults to the subprocess inside the wire assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerFault {
    /// Die (return an error) right after the first shard checkpoint.
    Kill,
    /// Go silent after the first shard checkpoint: stop heartbeating and
    /// park until the lease is revoked, then die.
    Stall,
    /// Corrupt the first shard-checkpoint write on disk, then die.
    CorruptCkpt,
}

/// Everything a worker needs to run one shard lease.
#[derive(Debug, Clone)]
pub struct ShardAssignment {
    /// Shard index.
    pub shard: usize,
    /// Worker slot holding the lease.
    pub worker: usize,
    /// First global stream position (inclusive).
    pub start: usize,
    /// One past the last global stream position.
    pub end: usize,
    /// Lease generation (0 = first lease, +1 per steal).
    pub generation: u64,
    /// Seed salt (non-zero only after no-progress generations).
    pub seed_salt: u64,
    /// Where the worker must write its per-shard SCCP checkpoint.
    pub checkpoint_path: PathBuf,
    /// Checkpoint to resume from (validated by the coordinator).
    pub resume: Option<CampaignCheckpoint>,
    /// Heartbeat/revocation channel for this lease.
    pub lease: LeaseSignal,
    /// Injected fault armed for this worker, if any.
    pub fault: Option<WorkerFault>,
}

/// The worker seam: runs one shard lease to completion (or death). The
/// implementation must write SCCP checkpoints to
/// [`ShardAssignment::checkpoint_path`] — the coordinator merges from
/// those files, never from in-memory results, so a killed coordinator can
/// always resume from disk. In-process threads implement this today; a
/// subprocess transport implements the same trait tomorrow.
pub trait FleetWorker: Sync {
    /// Run the assigned shard. `Ok` marks the shard done (its final
    /// checkpoint is re-read from disk); `Err` declares this worker dead
    /// and re-queues the shard.
    fn run_shard(&self, asg: &ShardAssignment) -> Result<SupervisedResult, SnowcatError>;
}

/// The in-process [`FleetWorker`]: each shard lease runs
/// [`run_supervised_campaign`] over the shard's sub-stream on the calling
/// thread, with per-CTI seeds derived from global positions via
/// `position_offset`.
pub struct ThreadWorker<'a> {
    /// Kernel under test.
    pub kernel: &'a Kernel,
    /// Syscall-test-input corpus.
    pub corpus: &'a [StiProfile],
    /// The whole CT-candidate stream (shards index into it).
    pub stream: &'a [(usize, usize)],
    /// Exploration config (base seed, budgets).
    pub explore_cfg: &'a ExploreConfig,
    /// Simulated-time cost model.
    pub cost: &'a CostModel,
    /// Fleet knobs (checkpoint cadence, stall, fault plan).
    pub cfg: &'a FleetConfig,
    /// Explorer factory, called once per lease with the worker slot.
    /// Workers sharing one inference server return explorers wrapping
    /// its handle here.
    pub make_explorer: &'a (dyn Fn(usize) -> Explorer<'a, 'a> + Sync),
}

impl FleetWorker for ThreadWorker<'_> {
    fn run_shard(&self, asg: &ShardAssignment) -> Result<SupervisedResult, SnowcatError> {
        if self.cfg.fault_plan.poison_shards.contains(&asg.shard) {
            // Poison shard: every holder dies before any progress, every
            // generation — a reproducible crash loop only the
            // coordinator's quarantine breaker can end.
            return Err(SnowcatError::WorkerLost {
                worker: asg.worker,
                shard: asg.shard,
                detail: "injected poison shard".into(),
            });
        }
        let sub = &self.stream[asg.start..asg.end];
        // Campaign-level hang faults are specified at *global* stream
        // positions; shift the ones inside this shard to local positions.
        let mut plan = FaultPlan::default();
        for h in &self.cfg.fault_plan.hangs {
            if (asg.start..asg.end).contains(&h.position) {
                plan.hangs.push(crate::fault::HangFault {
                    position: h.position - asg.start,
                    attempts: h.attempts,
                });
            }
        }
        if asg.fault == Some(WorkerFault::CorruptCkpt) {
            plan.checkpoints.push(CheckpointFault { ordinal: 1, kind: CorruptionKind::Flip });
        }
        let mut sup = SupervisorConfig::new();
        sup.checkpoint_path = Some(asg.checkpoint_path.clone());
        sup.checkpoint_every = self.cfg.checkpoint_every.max(1);
        sup.stall_ms = self.cfg.stall_ms;
        sup.fault_plan = plan;
        sup.position_offset = asg.start;
        sup.seed_salt = asg.seed_salt;
        sup.lease = Some(asg.lease.clone());
        // A faulted worker processes one checkpoint interval so its death
        // leaves a persisted prefix for the thief to resume from.
        sup.stop_after = asg.fault.map(|_| sup.checkpoint_every);
        let result = run_supervised_campaign(
            self.kernel,
            self.corpus,
            sub,
            (self.make_explorer)(asg.worker),
            self.explore_cfg,
            self.cost,
            &sup,
            asg.resume.clone(),
        )?;
        match asg.fault {
            Some(WorkerFault::Kill) | Some(WorkerFault::CorruptCkpt) => {
                Err(SnowcatError::WorkerLost {
                    worker: asg.worker,
                    shard: asg.shard,
                    detail: "injected worker kill".into(),
                })
            }
            Some(WorkerFault::Stall) => {
                // Straggler: stop heartbeating and park until revoked.
                while !asg.lease.is_revoked() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(SnowcatError::LeaseExpired {
                    shard: asg.shard,
                    worker: asg.worker,
                    deadline_ms: self.cfg.lease_ms,
                })
            }
            None => Ok(result),
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// Fleet knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker count (≥ 1). Also the shard count at fleet creation.
    pub workers: usize,
    /// Fleet directory: per-shard SCCP files plus the SCFC checkpoint.
    pub dir: PathBuf,
    /// Heartbeat deadline: a lease silent this long is revoked.
    pub lease_ms: u64,
    /// Consecutive no-progress generations before a shard is quarantined.
    pub max_steals: u64,
    /// Per-shard checkpoint cadence (stream positions).
    pub checkpoint_every: usize,
    /// Per-position sleep inside workers (widens kill windows in tests).
    pub stall_ms: u64,
    /// Deterministic fault plan (fleet entries + campaign hangs).
    pub fault_plan: FaultPlan,
    /// Structured-event sink (fleet events only; workers run unsinked so
    /// the stream stays one coherent coordinator timeline).
    pub events: Option<EventSink>,
    /// Degradation floor: when live worker slots drop below this, the
    /// fleet checkpoints, emits [`FleetEvent::FleetDegraded`], and exits
    /// resumable instead of limping on (or spinning at zero workers).
    pub min_workers: usize,
    /// Process transport: how long a spawned worker has to complete its
    /// handshake before the attempt counts as failed.
    pub spawn_timeout_ms: u64,
    /// Process transport: base delay for exponential respawn backoff.
    pub respawn_backoff_ms: u64,
    /// Respawn a worker slot after its lease dies instead of retiring it.
    /// Thread transport defaults to `false` (a dead thread slot stays
    /// dead, PR 9 behaviour); the process transport sets `true` — slots
    /// survive worker-process death, and a crash-loop breaker retires a
    /// slot only after `max_steals + 1` consecutive failures.
    pub respawn: bool,
}

impl FleetConfig {
    /// Defaults: 2s lease deadline, 3 steals before quarantine,
    /// checkpoint every 25 positions, no faults, 1-worker degradation
    /// floor, 10s spawn timeout, 100ms respawn backoff base, no respawn.
    pub fn new(workers: usize, dir: impl Into<PathBuf>) -> Self {
        Self {
            workers: workers.max(1),
            dir: dir.into(),
            lease_ms: 2_000,
            max_steals: 3,
            checkpoint_every: 25,
            stall_ms: 0,
            fault_plan: FaultPlan::default(),
            events: None,
            min_workers: 1,
            spawn_timeout_ms: 10_000,
            respawn_backoff_ms: 100,
            respawn: false,
        }
    }
}

/// Per-shard SCCP file path inside the fleet directory.
pub fn shard_ckpt_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.ckpt"))
}

struct LeaseRecord {
    worker: usize,
    signal: LeaseSignal,
    beats_seen: u64,
    last_change: Instant,
    resume_position: usize,
}

/// Monotonic lease-deadline check: a lease is expired when `now` is at
/// least `deadline` past the last observed beat-count change.
///
/// All lease arithmetic uses [`Instant`] exclusively — never a
/// wall-clock time source — so clock jumps (NTP steps, manual
/// `date -s`, suspend/resume clock corrections) can neither expire a
/// healthy lease nor extend a dead one. `saturating_duration_since`
/// additionally tolerates the monitor observing an `Instant` taken
/// "before" `last_change` on platforms with per-CPU monotonic skew:
/// saturation reads as elapsed-zero, which never falsely expires.
fn lease_expired(last_change: Instant, now: Instant, deadline: Duration) -> bool {
    now.saturating_duration_since(last_change) >= deadline
}

struct Coord {
    shards: Vec<ShardState>,
    leases: Vec<Option<LeaseRecord>>,
    last_holder: Vec<Option<usize>>,
    armed: Vec<Option<WorkerFault>>,
    steals: u64,
    reexecutions: u64,
    lost_workers: u64,
    live_workers: usize,
    ckpt_ordinal: u64,
    failed: bool,
    /// Live-worker count at the moment the fleet degraded below the
    /// `min_workers` floor (`None` while healthy). Captured here, not at
    /// fleet teardown — by then every slot has drained to zero.
    degraded: Option<usize>,
}

impl Coord {
    fn all_terminal(&self) -> bool {
        self.shards.iter().all(ShardState::is_terminal)
    }
}

struct FleetCtx<'a> {
    cfg: &'a FleetConfig,
    label: &'a str,
    seed: u64,
    stream_len: usize,
    scfc_path: PathBuf,
    coord: Mutex<Coord>,
    /// Notified under `coord` whenever a shard turns pending or terminal or
    /// a slot retires, so the monitor and idle slots wait on it instead of
    /// polling.
    changed: Condvar,
}

impl FleetCtx<'_> {
    fn sink(&self) -> Option<&EventSink> {
        self.cfg.events.as_ref()
    }

    /// Freshest usable resume candidate for a shard: the on-disk SCCP (with
    /// `.prev` fallback) or the copy embedded in the SCFC, whichever has
    /// the greater position. Candidates that fail validation (wrong label,
    /// seed, or an out-of-range position) are discarded, not errors — a
    /// corrupt or foreign file just means re-execution from further back.
    fn resolve_resume(&self, shard: &ShardState) -> Option<CampaignCheckpoint> {
        let valid = |ck: &CampaignCheckpoint| {
            ck.label == self.label && ck.seed == self.seed && ck.position <= shard.len()
        };
        let disk = load_checkpoint_with_fallback(&shard_ckpt_path(&self.cfg.dir, shard.index))
            .ok()
            .map(|(ck, _)| ck)
            .filter(valid);
        let embedded = shard.checkpoint.clone().filter(valid);
        match (disk, embedded) {
            (Some(d), Some(e)) => Some(if d.position >= e.position { d } else { e }),
            (d, e) => d.or(e),
        }
    }

    /// Roll the per-shard checkpoints up into the SCFC and write it
    /// atomically. Failures are swallowed (a missed rollup only loses
    /// counter freshness; the per-shard files still carry all progress).
    fn rollup(&self, c: &mut Coord) {
        let fc = FleetCheckpoint {
            label: self.label.to_owned(),
            seed: self.seed,
            workers: self.cfg.workers,
            stream_len: self.stream_len,
            shards: c.shards.clone(),
            steals: c.steals,
            reexecutions: c.reexecutions,
            lost_workers: c.lost_workers,
        };
        let rotated = self.scfc_path.exists();
        if save_fleet_checkpoint_atomic(&self.scfc_path, &fc).is_ok() {
            c.ckpt_ordinal += 1;
            if let Some(s) = self.sink() {
                s.fleet(FleetEvent::CheckpointWritten {
                    path: self.scfc_path.display().to_string(),
                    done_shards: c.shards.iter().filter(|s| s.is_terminal()).count() as u64,
                    ordinal: c.ckpt_ordinal,
                    rotated,
                });
            }
        }
    }

    /// Revoke a lease and re-queue (or quarantine) its shard. Caller must
    /// have verified the lease exists.
    fn requeue(&self, c: &mut Coord, shard: usize) {
        let rec = c.leases[shard].take().expect("requeue without a lease");
        rec.signal.revoke();
        c.last_holder[shard] = Some(rec.worker);
        let best = self.resolve_resume(&c.shards[shard]);
        let persisted_now = best.as_ref().map(|ck| ck.position).unwrap_or(0);
        let persisted = persisted_now.saturating_sub(rec.resume_position) as u64;
        c.reexecutions += rec.signal.beats().saturating_sub(persisted);
        let s = &mut c.shards[shard];
        s.checkpoint = best;
        if persisted == 0 {
            s.stalled_generations += 1;
        } else {
            s.stalled_generations = 0;
        }
        if s.stalled_generations > self.cfg.max_steals {
            s.status = ShardStatus::Quarantined;
            let generations = s.generation + 1;
            if let Some(sink) = self.sink() {
                sink.fleet(FleetEvent::ShardQuarantined { shard: shard as u64, generations });
            }
        } else {
            s.status = ShardStatus::Pending;
            s.generation += 1;
        }
        self.rollup(c);
        self.changed.notify_all();
    }

    /// Lease the first pending shard to `slot`. While none is pending the
    /// slot waits on `changed`; `None` once the fleet is over (every shard
    /// terminal, or failed).
    fn try_lease(&self, slot: usize) -> Option<Box<ShardAssignment>> {
        let mut c = self.coord.lock().expect("fleet coordinator poisoned");
        let shard = loop {
            if c.failed || c.all_terminal() {
                return None;
            }
            if let Some(shard) = c.shards.iter().position(|s| s.status == ShardStatus::Pending) {
                break shard;
            }
            c = self.changed.wait(c).expect("fleet coordinator poisoned");
        };
        let resume = self.resolve_resume(&c.shards[shard]);
        let resume_position = resume.as_ref().map(|ck| ck.position).unwrap_or(0);
        let fault = c.armed[slot].take();
        let signal = LeaseSignal::new();
        let s = &mut c.shards[shard];
        s.status = ShardStatus::InProgress;
        let (generation, stalled) = (s.generation, s.stalled_generations);
        let (start, end) = (s.start, s.end);
        c.leases[shard] = Some(LeaseRecord {
            worker: slot,
            signal: signal.clone(),
            beats_seen: 0,
            last_change: Instant::now(),
            resume_position,
        });
        if let Some(sink) = self.sink() {
            sink.fleet(FleetEvent::ShardLeased {
                shard: shard as u64,
                worker: slot as u64,
                generation,
                deadline_ms: self.cfg.lease_ms,
            });
        }
        if generation > 0 {
            c.steals += 1;
            let from = c.last_holder[shard].unwrap_or(slot);
            if let Some(sink) = self.sink() {
                sink.fleet(FleetEvent::ShardStolen {
                    shard: shard as u64,
                    from_worker: from as u64,
                    to_worker: slot as u64,
                    generation,
                    resume_position: resume_position as u64,
                });
            }
        }
        Some(Box::new(ShardAssignment {
            shard,
            worker: slot,
            start,
            end,
            generation,
            seed_salt: if stalled > 0 { stalled.wrapping_mul(STEAL_SALT) } else { 0 },
            checkpoint_path: shard_ckpt_path(&self.cfg.dir, shard),
            resume,
            lease: signal,
            fault,
        }))
    }

    /// True while `slot` still holds the active lease on `shard` at
    /// `generation` (the monitor may have revoked it concurrently).
    fn lease_active(c: &Coord, slot: usize, shard: usize, generation: u64) -> bool {
        c.shards[shard].status == ShardStatus::InProgress
            && c.shards[shard].generation == generation
            && c.leases[shard].as_ref().is_some_and(|l| l.worker == slot)
    }

    /// Mark a shard done. Returns false when the lease was already revoked
    /// (result discarded) or the worker left no usable checkpoint behind.
    fn finish_shard(&self, slot: usize, shard: usize, generation: u64) -> bool {
        let mut c = self.coord.lock().expect("fleet coordinator poisoned");
        if !Self::lease_active(&c, slot, shard, generation) {
            return false;
        }
        let Some(final_ck) = self.resolve_resume(&c.shards[shard]) else {
            // Completed without a persisted checkpoint: nothing to merge
            // from — treat as a lost worker so the shard is re-executed.
            if let Some(sink) = self.sink() {
                sink.fleet(FleetEvent::WorkerLost {
                    worker: slot as u64,
                    shard: shard as u64,
                    detail: "shard completed without a usable checkpoint".into(),
                });
            }
            c.lost_workers += 1;
            self.requeue(&mut c, shard);
            return false;
        };
        c.leases[shard] = None;
        c.last_holder[shard] = Some(slot);
        let s = &mut c.shards[shard];
        s.status = ShardStatus::Done;
        s.checkpoint = Some(final_ck);
        if let Some(sink) = self.sink() {
            let ck = c.shards[shard].checkpoint.as_ref().expect("just set");
            sink.fleet(FleetEvent::ShardCompleted {
                shard: shard as u64,
                worker: slot as u64,
                executions: ck.executions,
                races: ck.race_keys.len() as u64,
            });
        }
        self.rollup(&mut c);
        self.changed.notify_all();
        true
    }

    /// A worker died holding a lease (error or panic).
    fn lose_worker(&self, slot: usize, shard: usize, generation: u64, detail: &str) {
        let mut c = self.coord.lock().expect("fleet coordinator poisoned");
        if !Self::lease_active(&c, slot, shard, generation) {
            return; // The monitor already revoked and re-queued.
        }
        c.lost_workers += 1;
        if let Some(sink) = self.sink() {
            sink.fleet(FleetEvent::WorkerLost {
                worker: slot as u64,
                shard: shard as u64,
                detail: detail.to_owned(),
            });
        }
        self.requeue(&mut c, shard);
    }

    /// Retire a worker slot. Degradation is checked *here*, eagerly, not
    /// in the monitor: two slots retiring back-to-back before the monitor
    /// runs would otherwise drive `live_workers` straight to zero and
    /// misreport a degraded fleet as a totally failed one.
    fn worker_exit(&self) {
        let mut c = self.coord.lock().expect("fleet coordinator poisoned");
        c.live_workers -= 1;
        let live = c.live_workers;
        if !c.failed
            && c.degraded.is_none()
            && !c.all_terminal()
            && live < self.cfg.min_workers
            && live > 0
        {
            // Below the floor with work remaining: stop leasing, persist
            // everything, and exit resumable. `failed` halts the other
            // loops; `degraded` selects the FleetDegraded error over
            // FleetFailed. live == 0 keeps the PR 9 FleetFailed shape.
            c.degraded = Some(live);
            c.failed = true;
            if let Some(sink) = self.sink() {
                sink.fleet(FleetEvent::FleetDegraded {
                    live_workers: live as u64,
                    min_workers: self.cfg.min_workers as u64,
                });
            }
            self.rollup(&mut c);
        }
        self.changed.notify_all();
    }

    fn worker_loop(&self, slot: usize, worker: &dyn FleetWorker) {
        // Consecutive lease failures on this slot; reset on every success.
        // Only meaningful with `cfg.respawn` (process transport): the
        // crash-loop breaker retires the slot after `max_steals + 1`
        // consecutive deaths instead of respawning forever.
        let mut consecutive_failures = 0u64;
        loop {
            match self.try_lease(slot) {
                None => break,
                Some(asg) => {
                    let (shard, generation) = (asg.shard, asg.generation);
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker.run_shard(&asg)
                    }))
                    .unwrap_or_else(|_| {
                        Err(SnowcatError::WorkerLost {
                            worker: slot,
                            shard,
                            detail: "worker panicked".into(),
                        })
                    });
                    match res {
                        Ok(_) => {
                            consecutive_failures = 0;
                            if !self.finish_shard(slot, shard, generation) {
                                // Lease revoked mid-run: declared dead.
                                break;
                            }
                        }
                        Err(e) => {
                            let detail = e.to_string();
                            self.lose_worker(slot, shard, generation, &detail);
                            if !self.cfg.respawn {
                                break; // Thread transport: slot dies with its worker.
                            }
                            {
                                // Poison shard vs flaky worker: if this
                                // death tipped the shard into quarantine,
                                // the shard was at fault — don't also
                                // charge the slot's crash-loop breaker.
                                let c = self.coord.lock().expect("fleet coordinator poisoned");
                                if c.shards[shard].status == ShardStatus::Quarantined {
                                    consecutive_failures = 0;
                                    continue;
                                }
                            }
                            consecutive_failures += 1;
                            if consecutive_failures > self.cfg.max_steals {
                                if let Some(sink) = self.sink() {
                                    sink.fleet(FleetEvent::WorkerCrashLoop {
                                        worker: slot as u64,
                                        deaths: consecutive_failures,
                                        detail,
                                    });
                                }
                                break;
                            }
                            let backoff_ms = crate::process_worker::respawn_backoff(
                                self.cfg.respawn_backoff_ms,
                                slot,
                                consecutive_failures,
                            );
                            if let Some(sink) = self.sink() {
                                sink.fleet(FleetEvent::WorkerRespawned {
                                    worker: slot as u64,
                                    attempt: consecutive_failures,
                                    backoff_ms,
                                });
                            }
                            std::thread::sleep(Duration::from_millis(backoff_ms));
                        }
                    }
                }
            }
        }
        self.worker_exit();
    }

    /// Check leases on every change and at least once per tick, and return
    /// as soon as the fleet is over.
    fn monitor_loop(&self) {
        let deadline = Duration::from_millis(self.cfg.lease_ms.max(1));
        let tick = Duration::from_millis((self.cfg.lease_ms / 4).clamp(2, 100));
        let mut c = self.coord.lock().expect("fleet coordinator poisoned");
        loop {
            if c.all_terminal() || c.failed {
                return;
            }
            if c.live_workers == 0 {
                c.failed = true;
                return;
            }
            let now = Instant::now();
            let mut expired = Vec::new();
            for (shard, lease) in c.leases.iter_mut().enumerate() {
                let Some(rec) = lease else { continue };
                let beats = rec.signal.beats();
                if beats != rec.beats_seen {
                    rec.beats_seen = beats;
                    rec.last_change = now;
                } else if lease_expired(rec.last_change, now, deadline) {
                    expired.push((shard, rec.worker));
                }
            }
            for (shard, worker) in expired {
                if let Some(sink) = self.sink() {
                    sink.fleet(FleetEvent::LeaseExpired {
                        shard: shard as u64,
                        worker: worker as u64,
                        deadline_ms: self.cfg.lease_ms,
                    });
                    sink.fleet(FleetEvent::WorkerLost {
                        worker: worker as u64,
                        shard: shard as u64,
                        detail: "missed heartbeat deadline".into(),
                    });
                }
                c.lost_workers += 1;
                self.requeue(&mut c, shard);
            }
            c = self.changed.wait_timeout(c, tick).expect("fleet coordinator poisoned").0;
        }
    }
}

/// Run a fleet of `cfg.workers` workers over a `stream_len`-position
/// candidate stream. `label` and `seed` must match what `worker` will
/// produce (they key checkpoint validation). With `resume`, the SCFC in
/// `cfg.dir` is loaded and only incomplete shards re-execute — from their
/// freshest usable per-shard checkpoint, so the final merged state is
/// byte-identical to an uninterrupted run. Returns the final fleet
/// checkpoint; [`SnowcatError::FleetDegraded`] once live slots fell below
/// `cfg.min_workers` with work left, whatever completed afterwards;
/// [`SnowcatError::FleetFailed`] when every worker died with shards left
/// unfinished, or when every shard was quarantined before persisting a
/// checkpoint (the SCFC stays on disk for a later resume).
pub fn run_fleet(
    worker: &dyn FleetWorker,
    label: &str,
    seed: u64,
    stream_len: usize,
    cfg: &FleetConfig,
    resume: bool,
) -> Result<FleetCheckpoint, SnowcatError> {
    std::fs::create_dir_all(&cfg.dir)
        .map_err(|source| SnowcatError::Io { path: cfg.dir.clone(), source })?;
    let scfc_path = cfg.dir.join(FLEET_CKPT_FILE);
    // Steal, re-execution and lost-worker counters continue across resumes.
    let (shards, steals, reexecutions, lost_workers) = if resume {
        let (fc, _) = load_fleet_checkpoint_with_fallback(&scfc_path)?;
        if fc.label != label {
            return Err(SnowcatError::Config(format!(
                "fleet checkpoint was written by explorer '{}', not '{label}'",
                fc.label
            )));
        }
        if fc.seed != seed {
            return Err(SnowcatError::Config(format!(
                "fleet checkpoint base seed {:#x} does not match configured seed {seed:#x}",
                fc.seed
            )));
        }
        if fc.stream_len != stream_len {
            return Err(SnowcatError::Config(format!(
                "fleet checkpoint covers a {}-CTI stream, not {stream_len}",
                fc.stream_len
            )));
        }
        let mut shards = fc.shards;
        for s in &mut shards {
            // The previous holder is gone; its progress is on disk.
            if s.status == ShardStatus::InProgress {
                s.status = ShardStatus::Pending;
            }
        }
        (shards, fc.steals, fc.reexecutions, fc.lost_workers)
    } else {
        let shards = partition_stream(stream_len, cfg.workers)
            .into_iter()
            .enumerate()
            .map(|(index, (start, end))| ShardState {
                index,
                start,
                end,
                status: ShardStatus::Pending,
                generation: 0,
                stalled_generations: 0,
                checkpoint: None,
            })
            .collect();
        (shards, 0, 0, 0)
    };
    let n_shards = shards.len();
    if let Some(sink) = &cfg.events {
        sink.fleet(FleetEvent::Started {
            workers: cfg.workers as u64,
            shards: n_shards as u64,
            stream_len: stream_len as u64,
            resumed: resume,
        });
    }
    let armed = (0..cfg.workers)
        .map(|slot| {
            if cfg.fault_plan.corrupt_worker_ckpts.contains(&slot) {
                Some(WorkerFault::CorruptCkpt)
            } else if cfg.fault_plan.kill_workers.contains(&slot) {
                Some(WorkerFault::Kill)
            } else if cfg.fault_plan.stall_workers.contains(&slot) {
                Some(WorkerFault::Stall)
            } else {
                None
            }
        })
        .collect();
    let ctx = FleetCtx {
        cfg,
        label,
        seed,
        stream_len,
        scfc_path,
        coord: Mutex::new(Coord {
            leases: (0..n_shards).map(|_| None).collect(),
            last_holder: vec![None; n_shards],
            shards,
            armed,
            steals,
            reexecutions,
            lost_workers,
            live_workers: cfg.workers,
            ckpt_ordinal: 0,
            failed: false,
            degraded: None,
        }),
        changed: Condvar::new(),
    };
    {
        // Initial rollup so the SCFC exists before any worker starts (a
        // coordinator killed immediately after this is already resumable).
        let mut c = ctx.coord.lock().expect("fleet coordinator poisoned");
        ctx.rollup(&mut c);
    }
    std::thread::scope(|s| {
        for slot in 0..cfg.workers {
            let ctx = &ctx;
            s.spawn(move || ctx.worker_loop(slot, worker));
        }
        ctx.monitor_loop();
    });
    let mut c = ctx.coord.lock().expect("fleet coordinator poisoned");
    ctx.rollup(&mut c);
    let fc = FleetCheckpoint {
        label: label.to_owned(),
        seed,
        workers: cfg.workers,
        stream_len,
        shards: c.shards.clone(),
        steals: c.steals,
        reexecutions: c.reexecutions,
        lost_workers: c.lost_workers,
    };
    let degraded = c.degraded;
    drop(c);
    let failure = if let Some(live_workers) = degraded {
        // Graceful degradation: slots retired past the --min-workers floor
        // with work left. Progress is checkpointed; resume with the same
        // flags (or fresh workers) to finish. A shard a live slot was
        // already running may complete after the fleet degraded, even the
        // last one: the run still announced degradation, so it exits as
        // degraded, and resuming a complete SCFC just merges and reports.
        Some(SnowcatError::FleetDegraded {
            live_workers,
            min_workers: cfg.min_workers,
            detail: format!("resume from {}", ctx.scfc_path.display()),
        })
    } else if !fc.is_complete() {
        let failed_shards: Vec<usize> =
            fc.shards.iter().filter(|s| !s.is_terminal()).map(|s| s.index).collect();
        Some(SnowcatError::FleetFailed {
            failed_shards,
            shards: n_shards,
            detail: format!(
                "all {} worker(s) lost; resume from {}",
                cfg.workers,
                ctx.scfc_path.display()
            ),
        })
    } else if fc.shards.iter().all(|s| s.checkpoint.is_none()) {
        // Every shard was quarantined before it persisted any progress:
        // there is nothing to merge, and a resume would find the same.
        Some(SnowcatError::FleetFailed {
            failed_shards: fc.quarantined_shards(),
            shards: n_shards,
            detail: "every shard was quarantined before it persisted a checkpoint, so there \
                     is nothing to merge"
                .into(),
        })
    } else {
        None
    };
    if let Some(err) = failure {
        // A failed fleet's stream ends with a terminal event too, so
        // `status` shows the outcome and `status --follow` stops.
        if let Some(sink) = &cfg.events {
            sink.fleet(FleetEvent::Failed { detail: err.to_string() });
        }
        return Err(err);
    }
    let (mut executions, mut races_set) = (0u64, BTreeSet::new());
    for s in &fc.shards {
        if let Some(ck) = &s.checkpoint {
            executions += ck.executions;
            races_set.extend(ck.race_keys.iter().copied());
        }
    }
    if let Some(sink) = &cfg.events {
        sink.fleet(FleetEvent::Finished {
            shards: n_shards as u64,
            steals: fc.steals,
            reexecutions: fc.reexecutions,
            lost_workers: fc.lost_workers,
            quarantined_shards: fc.quarantined_shards().len() as u64,
            executions,
            races: races_set.len() as u64,
        });
    }
    Ok(fc)
}

/// Remove stale per-shard checkpoint files (and `.prev`/`.tmp` leftovers)
/// from a fleet directory — used when starting a fresh (non-resume) fleet
/// over a directory that held an earlier run.
pub fn clear_fleet_dir(dir: &Path) -> Result<(), SnowcatError> {
    let io = |p: &Path, source: std::io::Error| SnowcatError::Io { path: p.to_owned(), source };
    if !dir.exists() {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let stale = name.starts_with("shard-") && name.contains(".ckpt")
            || name.starts_with(FLEET_CKPT_FILE);
        if stale {
            std::fs::remove_file(entry.path()).map_err(|e| io(&entry.path(), e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::corrupt;
    use snowcat_vm::BitSet;

    #[test]
    fn lease_expiry_is_monotonic_and_saturating() {
        let deadline = Duration::from_millis(500);
        let t0 = Instant::now();
        // Fresh lease: not expired at (or just after) the last change.
        assert!(!lease_expired(t0, t0, deadline));
        // Exactly at the deadline: expired (>= semantics).
        assert!(lease_expired(t0, t0 + deadline, deadline));
        // Well past the deadline: expired.
        assert!(lease_expired(t0, t0 + deadline * 3, deadline));
        // One tick short: still alive.
        assert!(!lease_expired(t0, t0 + deadline - Duration::from_millis(1), deadline));
        // `now` observed *before* `last_change` (cross-CPU monotonic skew):
        // saturates to zero elapsed — never a false expiry.
        if let Some(earlier) = t0.checked_sub(Duration::from_secs(10)) {
            assert!(!lease_expired(t0, earlier, deadline));
        }
        // Zero deadline degenerates to always-expired, not a panic.
        assert!(lease_expired(t0, t0, Duration::ZERO));
    }

    fn shard_ck(label: &str, seed: u64, tag: u64) -> CampaignCheckpoint {
        let mut blocks = BitSet::new(64);
        blocks.insert((tag % 64) as usize);
        CampaignCheckpoint {
            label: label.into(),
            seed,
            position: 4,
            executions: 10 + tag,
            inferences: tag,
            race_keys: vec![],
            harmful_keys: vec![],
            blocks,
            bugs_found: vec![],
            history: vec![],
            quarantine: vec![],
            strategy: None,
            recovery: RecoveryLog::default(),
        }
    }

    #[test]
    fn partition_is_balanced_and_covers_the_stream() {
        for (len, n) in [(100, 4), (7, 3), (3, 8), (0, 2), (5, 1)] {
            let parts = partition_stream(len, n);
            assert_eq!(parts.len(), n);
            assert_eq!(parts[0].0, 0);
            assert_eq!(parts[n - 1].1, len);
            for w in parts.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            let sizes: Vec<usize> = parts.iter().map(|&(a, b)| b - a).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    fn scfc_roundtrips_and_detects_corruption() {
        let fc = FleetCheckpoint {
            label: "PCT".into(),
            seed: 7,
            workers: 2,
            stream_len: 10,
            shards: vec![ShardState {
                index: 0,
                start: 0,
                end: 10,
                status: ShardStatus::Done,
                generation: 1,
                stalled_generations: 0,
                checkpoint: Some(shard_ck("PCT", 7, 1)),
            }],
            steals: 1,
            reexecutions: 3,
            lost_workers: 1,
        };
        let bytes = encode_fleet_checkpoint(&fc).unwrap();
        let back = decode_fleet_checkpoint(Path::new("x"), &bytes).unwrap();
        assert_eq!(back, fc);
        for kind in [CorruptionKind::Flip, CorruptionKind::Truncate] {
            let err = decode_fleet_checkpoint(Path::new("x"), &corrupt(&bytes, kind)).unwrap_err();
            assert!(matches!(err, SnowcatError::CheckpointCorrupt { .. }), "{err:?}");
        }
        // An SCCP envelope is not an SCFC envelope (magic check).
        let sccp = crate::checkpoint::encode_checkpoint(&shard_ck("PCT", 7, 1)).unwrap();
        assert!(decode_fleet_checkpoint(Path::new("x"), &sccp).is_err());
    }

    #[test]
    fn scfc_rotation_and_fallback() {
        let dir = std::env::temp_dir().join(format!("snowcat-scfc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(FLEET_CKPT_FILE);
        let mk = |steals| FleetCheckpoint {
            label: "PCT".into(),
            seed: 7,
            workers: 1,
            stream_len: 4,
            shards: vec![],
            steals,
            reexecutions: 0,
            lost_workers: 0,
        };
        save_fleet_checkpoint_atomic(&path, &mk(1)).unwrap();
        save_fleet_checkpoint_atomic(&path, &mk(2)).unwrap();
        let (fc, fell_back) = load_fleet_checkpoint_with_fallback(&path).unwrap();
        assert_eq!((fc.steals, fell_back), (2, false));
        // Corrupt the current file: the load falls back to .prev.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, corrupt(&bytes, CorruptionKind::Truncate)).unwrap();
        let (fc, fell_back) = load_fleet_checkpoint_with_fallback(&path).unwrap();
        assert_eq!((fc.steals, fell_back), (1, true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_is_order_independent_and_label_checked() {
        let cost = CostModel::default();
        let cks: Vec<_> = (0..4u64).map(|i| shard_ck("PCT", 9, i)).collect();
        let mut fwd = ShardMerge::new();
        for (i, ck) in cks.iter().enumerate() {
            fwd.add(i, ck.clone());
        }
        let mut rev = ShardMerge::new();
        for (i, ck) in cks.iter().enumerate().rev() {
            rev.add(i, ck.clone());
        }
        let a = fwd.finalize(&cost).unwrap();
        let b = rev.finalize(&cost).unwrap();
        assert_eq!(a, b);
        // Union (associativity building block) agrees with flat adds.
        let mut left = ShardMerge::new();
        left.add(0, cks[0].clone());
        left.add(1, cks[1].clone());
        let mut right = ShardMerge::new();
        right.add(2, cks[2].clone());
        right.add(3, cks[3].clone());
        assert_eq!(left.union(right).finalize(&cost).unwrap(), a);
        // Mismatched labels are a config error, not silent garbage.
        let mut bad = ShardMerge::new();
        bad.add(0, shard_ck("PCT", 9, 0));
        bad.add(1, shard_ck("MLPCT-S1", 9, 1));
        assert!(matches!(bad.finalize(&cost), Err(SnowcatError::Config(_))));
        assert!(ShardMerge::new().finalize(&cost).is_err());
    }
}
