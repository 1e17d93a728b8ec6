//! End-to-end fleet acceptance suite.
//!
//! Proves the fleet's headline guarantees:
//!
//! * a **single-worker, fault-free fleet** is bit-identical to the plain
//!   supervised campaign (same SCCP bytes, same report JSON),
//! * a **killed worker**'s shard is stolen and re-executed from its last
//!   checkpoint, and the merged report stays byte-identical to an
//!   unfaulted fleet's,
//! * a **stalled worker** (silent heartbeat) has its lease expired and its
//!   shard stolen, again without changing the merged report,
//! * a fleet whose workers **all die** fails with exit-code-8 semantics
//!   but leaves a crash-consistent SCFC behind; `--resume` completes the
//!   run and the merged report is byte-identical to an uninterrupted one,
//! * a **corrupted shard checkpoint** costs the shard its progress but not
//!   the fleet its liveness (salted re-execution, documented tradeoff),
//! * a fleet that **degraded** below its worker floor exits degraded even
//!   when a live slot completes the last shard afterwards.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_cfg::KernelCfg;
use snowcat_core::{
    CampaignResult, CostModel, ExploreConfig, Explorer, Pic, SnowcatError, StrategyKind,
};
use snowcat_corpus::{random_cti_pairs, StiFuzzer, StiProfile};
use snowcat_harness::{
    report_from_fleet_checkpoint, report_from_supervised, run_fleet, run_supervised_campaign,
    save_checkpoint_atomic, shard_ckpt_path, CampaignCheckpoint, FaultPlan, FleetCheckpoint,
    FleetConfig, FleetWorker, RecoveryLog, ShardAssignment, ShardStatus, SupervisedResult,
    SupervisorConfig, ThreadWorker, WorkerFault, FLEET_CKPT_FILE,
};
use snowcat_kernel::{generate, GenConfig, Kernel};
use snowcat_nn::{Checkpoint, PicConfig, PicModel};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

const SEED: u64 = 0xF1EE7;

fn setup(stream_len: usize) -> (Kernel, KernelCfg, Vec<StiProfile>, Vec<(usize, usize)>) {
    let k = generate(&GenConfig::default());
    let cfg = KernelCfg::build(&k);
    let mut fz = StiFuzzer::new(&k, 1);
    fz.seed_each_syscall();
    let corpus = fz.into_corpus();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let stream = random_cti_pairs(&mut rng, corpus.len(), stream_len);
    (k, cfg, corpus, stream)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snowcat-fleet-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run a PCT fleet over `stream` with the given knobs.
#[allow(clippy::too_many_arguments)]
fn run_pct_fleet(
    k: &Kernel,
    corpus: &[StiProfile],
    stream: &[(usize, usize)],
    ecfg: &ExploreConfig,
    dir: &Path,
    workers: usize,
    fault_plan: FaultPlan,
    lease_ms: u64,
    resume: bool,
) -> Result<FleetCheckpoint, SnowcatError> {
    let cost = CostModel::default();
    let mut cfg = FleetConfig::new(workers, dir);
    cfg.lease_ms = lease_ms;
    cfg.checkpoint_every = 5;
    cfg.stall_ms = if workers > 1 { 2 } else { 0 };
    cfg.fault_plan = fault_plan;
    let make = |_slot: usize| Explorer::Pct;
    let worker = ThreadWorker {
        kernel: k,
        corpus,
        stream,
        explore_cfg: ecfg,
        cost: &cost,
        cfg: &cfg,
        make_explorer: &make,
    };
    run_fleet(&worker, "PCT", ecfg.seed, stream.len(), &cfg, resume)
}

#[test]
fn single_worker_fleet_is_bit_identical_to_supervised_campaign() {
    let (k, _, corpus, stream) = setup(12);
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_seed(SEED);
    let cost = CostModel::default();

    // Reference: plain supervised campaign with the same checkpoint cadence.
    let ref_dir = tmp_dir("n1-ref");
    let mut sup = SupervisorConfig::new();
    sup.checkpoint_path = Some(ref_dir.join("campaign.ckpt"));
    sup.checkpoint_every = 5;
    let supervised =
        run_supervised_campaign(&k, &corpus, &stream, Explorer::Pct, &ecfg, &cost, &sup, None)
            .unwrap();

    let dir = tmp_dir("n1-fleet");
    let fc =
        run_pct_fleet(&k, &corpus, &stream, &ecfg, &dir, 1, FaultPlan::default(), 2_000, false)
            .unwrap();
    assert!(fc.is_complete());
    assert_eq!(fc.shards.len(), 1);
    assert_eq!((fc.steals, fc.lost_workers, fc.reexecutions), (0, 0, 0));

    // The shard's SCCP file is byte-identical to the supervised one.
    let shard_bytes = std::fs::read(shard_ckpt_path(&dir, 0)).unwrap();
    let ref_bytes = std::fs::read(ref_dir.join("campaign.ckpt")).unwrap();
    assert_eq!(shard_bytes, ref_bytes, "N=1 fleet shard checkpoint differs from campaign");

    // And the merged fleet report is byte-identical to the live report.
    let fleet_report = report_from_fleet_checkpoint(&fc, &cost).unwrap();
    let live_report = report_from_supervised(&supervised, SEED);
    assert_eq!(fleet_report.to_canonical_json(), live_report.to_canonical_json());
}

#[test]
fn killed_worker_is_stolen_and_report_is_unchanged() {
    let (k, _, corpus, stream) = setup(24);
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_seed(SEED);
    let cost = CostModel::default();

    let ref_dir = tmp_dir("kill-ref");
    let reference =
        run_pct_fleet(&k, &corpus, &stream, &ecfg, &ref_dir, 2, FaultPlan::default(), 2_000, false)
            .unwrap();

    let dir = tmp_dir("kill-victim");
    let plan = FaultPlan::parse("kill-worker@1").unwrap();
    let fc = run_pct_fleet(&k, &corpus, &stream, &ecfg, &dir, 2, plan, 400, false).unwrap();
    assert!(fc.is_complete());
    assert!(fc.lost_workers >= 1, "the killed worker must be declared lost");
    assert!(fc.steals >= 1, "the dead worker's shard must be stolen");
    assert!(fc.quarantined_shards().is_empty());

    // The killed worker persisted a checkpoint before dying, so the steal
    // resumes unsalted and the merged report is byte-identical.
    let a = report_from_fleet_checkpoint(&reference, &cost).unwrap();
    let b = report_from_fleet_checkpoint(&fc, &cost).unwrap();
    assert_eq!(a.to_canonical_json(), b.to_canonical_json());
}

#[test]
fn stalled_worker_lease_expires_and_shard_is_stolen() {
    let (k, _, corpus, stream) = setup(24);
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_seed(SEED);
    let cost = CostModel::default();

    let ref_dir = tmp_dir("stall-ref");
    let reference =
        run_pct_fleet(&k, &corpus, &stream, &ecfg, &ref_dir, 2, FaultPlan::default(), 2_000, false)
            .unwrap();

    let dir = tmp_dir("stall-victim");
    let plan = FaultPlan::parse("stall-worker@0").unwrap();
    let fc = run_pct_fleet(&k, &corpus, &stream, &ecfg, &dir, 2, plan, 250, false).unwrap();
    assert!(fc.is_complete());
    assert!(fc.lost_workers >= 1, "the straggler must miss its deadline");
    assert!(fc.steals >= 1, "the straggler's shard must be stolen");

    let a = report_from_fleet_checkpoint(&reference, &cost).unwrap();
    let b = report_from_fleet_checkpoint(&fc, &cost).unwrap();
    assert_eq!(a.to_canonical_json(), b.to_canonical_json());
}

#[test]
fn losing_every_worker_fails_resumably_and_resume_is_bit_identical() {
    let (k, _, corpus, stream) = setup(24);
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_seed(SEED);
    let cost = CostModel::default();

    let ref_dir = tmp_dir("resume-ref");
    let reference =
        run_pct_fleet(&k, &corpus, &stream, &ecfg, &ref_dir, 2, FaultPlan::default(), 2_000, false)
            .unwrap();

    // Both workers die after their first shard checkpoint: the fleet has
    // nobody left and must fail with the exit-code-8 error, leaving a
    // crash-consistent SCFC behind.
    let dir = tmp_dir("resume-victim");
    let plan = FaultPlan::parse("kill-worker@0,kill-worker@1").unwrap();
    let err = run_pct_fleet(&k, &corpus, &stream, &ecfg, &dir, 2, plan, 400, false).unwrap_err();
    assert!(matches!(err, SnowcatError::FleetFailed { .. }), "{err}");
    assert_eq!(err.exit_code(), 8);
    assert!(dir.join(FLEET_CKPT_FILE).exists(), "failed fleet must leave its SCFC");

    // Resume without faults: incomplete shards continue from their
    // persisted checkpoints and the merged report is byte-identical.
    let fc = run_pct_fleet(&k, &corpus, &stream, &ecfg, &dir, 2, FaultPlan::default(), 2_000, true)
        .unwrap();
    assert!(fc.is_complete());
    assert!(fc.lost_workers >= 2, "lost-worker counters survive the resume");
    let a = report_from_fleet_checkpoint(&reference, &cost).unwrap();
    let b = report_from_fleet_checkpoint(&fc, &cost).unwrap();
    assert_eq!(a.to_canonical_json(), b.to_canonical_json());
}

#[test]
fn corrupt_shard_checkpoint_costs_progress_but_not_liveness() {
    let (k, _, corpus, stream) = setup(20);
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_seed(SEED);
    let cost = CostModel::default();

    let dir = tmp_dir("corrupt-victim");
    let plan = FaultPlan::parse("corrupt-worker-ckpt@0").unwrap();
    let fc = run_pct_fleet(&k, &corpus, &stream, &ecfg, &dir, 2, plan, 400, false).unwrap();

    // The corrupted first write left no usable checkpoint, so the steal
    // starts the shard over with salted seeds: liveness wins over
    // bit-identity on that shard (by design), but the fleet completes and
    // every shard is Done.
    assert!(fc.is_complete());
    assert!(fc.lost_workers >= 1);
    assert!(fc.shards.iter().all(|s| s.status == ShardStatus::Done));
    let report = report_from_fleet_checkpoint(&fc, &cost).unwrap();
    let c = report.campaign.as_ref().unwrap();
    assert_eq!(c.ctis as usize, stream.len(), "every position was processed");
}

#[test]
fn resume_rejects_mismatched_identity() {
    let (k, _, corpus, stream) = setup(8);
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_seed(SEED);
    let dir = tmp_dir("resume-mismatch");
    run_pct_fleet(&k, &corpus, &stream, &ecfg, &dir, 2, FaultPlan::default(), 2_000, false)
        .unwrap();
    // Different base seed.
    let other = ExploreConfig::default().with_exec_budget(4).with_seed(SEED ^ 1);
    let err =
        run_pct_fleet(&k, &corpus, &stream, &other, &dir, 2, FaultPlan::default(), 2_000, true)
            .unwrap_err();
    assert!(matches!(err, SnowcatError::Config(_)), "{err}");
    // Different stream length.
    let err =
        run_pct_fleet(&k, &corpus, &stream[..6], &ecfg, &dir, 2, FaultPlan::default(), 2_000, true)
            .unwrap_err();
    assert!(matches!(err, SnowcatError::Config(_)), "{err}");
}

#[test]
fn mlpct_fleet_completes_with_per_worker_predictors() {
    let (k, cfg_k, corpus, stream) = setup(10);
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_inference_cap(40).with_seed(SEED);
    let cost = CostModel::default();
    let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
    let ck = Checkpoint::new(&model, 0.5, "t");
    let pics: Vec<Pic> = (0..2).map(|_| Pic::new(&ck, &k, &cfg_k)).collect();

    let dir = tmp_dir("mlpct");
    let mut cfg = FleetConfig::new(2, &dir);
    cfg.checkpoint_every = 5;
    cfg.stall_ms = 2;
    let make = |slot: usize| Explorer::mlpct(&pics[slot], StrategyKind::S1.build());
    let worker = ThreadWorker {
        kernel: &k,
        corpus: &corpus,
        stream: &stream,
        explore_cfg: &ecfg,
        cost: &cost,
        cfg: &cfg,
        make_explorer: &make,
    };
    let label = Explorer::mlpct(&pics[0], StrategyKind::S1.build()).label();
    let fc = run_fleet(&worker, &label, SEED, stream.len(), &cfg, false).unwrap();
    assert!(fc.is_complete());
    let report = report_from_fleet_checkpoint(&fc, &cost).unwrap();
    assert_eq!(report.campaign.as_ref().unwrap().label, label);
}

/// Wraps a [`ThreadWorker`] and *panics* (instead of returning an error)
/// the first time the target shard is run — after letting the inner
/// worker persist one checkpoint interval, so the thief has a prefix to
/// resume from. Exercises the coordinator's `catch_unwind` containment.
struct PanicOnce<'a> {
    inner: ThreadWorker<'a>,
    target_shard: usize,
    tripped: AtomicBool,
}

impl FleetWorker for PanicOnce<'_> {
    fn run_shard(&self, asg: &ShardAssignment) -> Result<SupervisedResult, SnowcatError> {
        if asg.shard == self.target_shard && !self.tripped.swap(true, Ordering::SeqCst) {
            // Arm the kill fault so the inner worker checkpoints one
            // interval and returns; then panic mid-shard instead of
            // surfacing that error.
            let mut armed = asg.clone();
            armed.fault = Some(WorkerFault::Kill);
            let _ = self.inner.run_shard(&armed);
            panic!("injected mid-shard panic");
        }
        self.inner.run_shard(asg)
    }
}

#[test]
fn panicking_worker_is_contained_stolen_and_report_is_unchanged() {
    let (k, _, corpus, stream) = setup(24);
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_seed(SEED);
    let cost = CostModel::default();

    let ref_dir = tmp_dir("panic-ref");
    let reference =
        run_pct_fleet(&k, &corpus, &stream, &ecfg, &ref_dir, 2, FaultPlan::default(), 2_000, false)
            .unwrap();

    let dir = tmp_dir("panic-victim");
    let mut cfg = FleetConfig::new(2, &dir);
    cfg.lease_ms = 400;
    cfg.checkpoint_every = 5;
    cfg.stall_ms = 2;
    let make = |_slot: usize| Explorer::Pct;
    let worker = PanicOnce {
        inner: ThreadWorker {
            kernel: &k,
            corpus: &corpus,
            stream: &stream,
            explore_cfg: &ecfg,
            cost: &cost,
            cfg: &cfg,
            make_explorer: &make,
        },
        target_shard: 1,
        tripped: AtomicBool::new(false),
    };
    // The panic must not unwind out of the fleet: it surfaces as a lost
    // worker, the shard is stolen, and the run completes.
    let fc = run_fleet(&worker, "PCT", SEED, stream.len(), &cfg, false).unwrap();
    assert!(fc.is_complete());
    assert!(fc.lost_workers >= 1, "the panicking worker must be declared lost");
    assert!(fc.steals >= 1, "the panicked shard must be stolen");
    assert!(fc.quarantined_shards().is_empty());

    // The panic struck after a persisted checkpoint, so the steal resumes
    // unsalted: merged bytes identical to the unfaulted fleet.
    let a = report_from_fleet_checkpoint(&reference, &cost).unwrap();
    let b = report_from_fleet_checkpoint(&fc, &cost).unwrap();
    assert_eq!(a.to_canonical_json(), b.to_canonical_json());
}

#[test]
fn poison_shard_crash_loop_is_quarantined_within_max_steals() {
    let (k, _, corpus, stream) = setup(24);
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_seed(SEED);
    let cost = CostModel::default();

    let dir = tmp_dir("poison");
    let mut cfg = FleetConfig::new(2, &dir);
    cfg.lease_ms = 400;
    cfg.checkpoint_every = 5;
    cfg.stall_ms = 2;
    cfg.max_steals = 2;
    // Process-transport supervision semantics: slots respawn after worker
    // death instead of retiring, so only the quarantine breaker can end
    // the crash loop.
    cfg.respawn = true;
    cfg.fault_plan = FaultPlan::parse("poison-shard@1").unwrap();
    let make = |_slot: usize| Explorer::Pct;
    let worker = ThreadWorker {
        kernel: &k,
        corpus: &corpus,
        stream: &stream,
        explore_cfg: &ecfg,
        cost: &cost,
        cfg: &cfg,
        make_explorer: &make,
    };
    let fc = run_fleet(&worker, "PCT", SEED, stream.len(), &cfg, false).unwrap();
    assert!(fc.is_complete(), "quarantine must end the crash loop, not hang the fleet");
    let poisoned = &fc.shards[1];
    assert_eq!(poisoned.status, ShardStatus::Quarantined, "poison shard must be quarantined");
    assert!(
        poisoned.stalled_generations <= cfg.max_steals + 1,
        "crash loop must break within max_steals ({}) generations, took {}",
        cfg.max_steals,
        poisoned.stalled_generations
    );
    assert_eq!(fc.shards[0].status, ShardStatus::Done, "healthy shards still complete");
    assert!(fc.lost_workers >= cfg.max_steals, "every poison lease costs a worker death");
    let report = report_from_fleet_checkpoint(&fc, &cost).unwrap();
    assert!(report.campaign.is_some(), "a quarantined shard still yields a merged report");
}

#[test]
fn dropping_below_min_workers_degrades_resumably() {
    let (k, _, corpus, stream) = setup(24);
    let ecfg = ExploreConfig::default().with_exec_budget(4).with_seed(SEED);
    let cost = CostModel::default();

    let ref_dir = tmp_dir("degrade-ref");
    let reference =
        run_pct_fleet(&k, &corpus, &stream, &ecfg, &ref_dir, 2, FaultPlan::default(), 2_000, false)
            .unwrap();

    // Worker 0 dies after its first checkpoint; with a floor of 2 the
    // fleet must not limp on single-handed — it checkpoints and exits
    // resumable with the degraded (exit 8) error.
    let dir = tmp_dir("degrade-victim");
    let mut cfg = FleetConfig::new(2, &dir);
    cfg.lease_ms = 2_000;
    cfg.checkpoint_every = 5;
    cfg.stall_ms = 2;
    cfg.min_workers = 2;
    cfg.fault_plan = FaultPlan::parse("kill-worker@0").unwrap();
    let make = |_slot: usize| Explorer::Pct;
    let worker = ThreadWorker {
        kernel: &k,
        corpus: &corpus,
        stream: &stream,
        explore_cfg: &ecfg,
        cost: &cost,
        cfg: &cfg,
        make_explorer: &make,
    };
    let err = run_fleet(&worker, "PCT", SEED, stream.len(), &cfg, false).unwrap_err();
    assert!(
        matches!(err, SnowcatError::FleetDegraded { live_workers: 1, min_workers: 2, .. }),
        "{err}"
    );
    assert_eq!(err.exit_code(), 8);
    assert!(dir.join(FLEET_CKPT_FILE).exists(), "degraded fleet must leave its SCFC");

    // Resume with healthy workers (floor back at the default): the run
    // completes and the merged report is byte-identical.
    let fc = run_pct_fleet(&k, &corpus, &stream, &ecfg, &dir, 2, FaultPlan::default(), 2_000, true)
        .unwrap();
    assert!(fc.is_complete());
    let a = report_from_fleet_checkpoint(&reference, &cost).unwrap();
    let b = report_from_fleet_checkpoint(&fc, &cost).unwrap();
    assert_eq!(a.to_canonical_json(), b.to_canonical_json());
}

/// Sends on its channel when dropped. Parked in a thread-local, it reports
/// that its thread has finished, i.e. that everything its fleet slot ran
/// after the worker returned (crash-loop breaker, retirement) is done.
struct SignalOnDrop(mpsc::Sender<&'static str>);

impl Drop for SignalOnDrop {
    fn drop(&mut self) {
        let _ = self.0.send("retired");
    }
}

thread_local! {
    static ON_THREAD_EXIT: RefCell<Option<SignalOnDrop>> = const { RefCell::new(None) };
}

/// A scripted fleet worker. Slot 0, the victim, persists progress on its
/// first shard, never beats, and dies once slot 1 has stolen that shard.
/// Slot 1, the survivor, completes its own shard once the victim holds a
/// lease, and completes the stolen one only after the victim's slot has
/// retired.
struct ScriptedWorker {
    /// The script's steps, in the order they happened.
    log: Mutex<Vec<&'static str>>,
    to_victim: (mpsc::Sender<&'static str>, Mutex<mpsc::Receiver<&'static str>>),
    to_survivor: (mpsc::Sender<&'static str>, Mutex<mpsc::Receiver<&'static str>>),
}

impl ScriptedWorker {
    fn new() -> Self {
        let (victim_tx, victim_rx) = mpsc::channel();
        let (survivor_tx, survivor_rx) = mpsc::channel();
        Self {
            log: Mutex::new(Vec::new()),
            to_victim: (victim_tx, Mutex::new(victim_rx)),
            to_survivor: (survivor_tx, Mutex::new(survivor_rx)),
        }
    }

    /// Write a synthetic shard checkpoint at shard-relative `position`.
    fn checkpoint(asg: &ShardAssignment, position: usize) {
        let mut blocks = snowcat_vm::BitSet::new(64);
        blocks.insert(asg.shard);
        let ck = CampaignCheckpoint {
            label: "PCT".into(),
            seed: SEED,
            position,
            executions: position as u64,
            inferences: 0,
            race_keys: vec![],
            harmful_keys: vec![],
            blocks,
            bugs_found: vec![],
            history: vec![],
            quarantine: vec![],
            strategy: None,
            recovery: RecoveryLog::default(),
        };
        save_checkpoint_atomic(&asg.checkpoint_path, &ck, None).unwrap();
    }

    /// Receive the next message and log it.
    fn wait(&self, rx: &Mutex<mpsc::Receiver<&'static str>>) {
        let msg = rx.lock().unwrap().recv_timeout(Duration::from_secs(60)).expect("script stuck");
        self.log.lock().unwrap().push(msg);
    }
}

impl FleetWorker for ScriptedWorker {
    fn run_shard(&self, asg: &ShardAssignment) -> Result<SupervisedResult, SnowcatError> {
        let lost = |detail: &str| SnowcatError::WorkerLost {
            worker: asg.worker,
            shard: asg.shard,
            detail: detail.into(),
        };
        match (asg.worker, asg.generation) {
            (0, 0) => {
                // Persist progress, so losing the lease re-queues the shard
                // instead of quarantining it; arm the retirement signal; and
                // hold the lease without beating until the monitor revokes
                // it and the survivor steals the shard.
                self.to_survivor.0.send("leased").unwrap();
                Self::checkpoint(asg, 1);
                let tx = self.to_survivor.0.clone();
                ON_THREAD_EXIT.with(|g| *g.borrow_mut() = Some(SignalOnDrop(tx)));
                self.wait(&self.to_victim.1);
                return Err(lost("scripted death after the steal"));
            }
            (0, _) => return Err(lost("the scripted victim takes one lease only")),
            (_, 0) => self.wait(&self.to_survivor.1),
            _ => {
                self.to_victim.0.send("stolen").unwrap();
                self.wait(&self.to_survivor.1);
                self.log.lock().unwrap().push("completed");
            }
        }
        Self::checkpoint(asg, asg.end - asg.start);
        Ok(SupervisedResult {
            result: CampaignResult { label: "PCT".into(), history: vec![], bugs_found: vec![] },
            quarantined: vec![],
            recovery: RecoveryLog::default(),
            resumed_from: None,
            predictor_stats: None,
        })
    }
}

#[test]
fn a_degraded_fleet_stays_degraded_when_its_last_shard_completes_afterwards() {
    // Slot 0 crash-loops (--max-steals 0) after slot 1 stole its shard, so
    // live slots drop below the floor of 2 while that shard is still
    // running; slot 1 then completes it, which makes the stream complete.
    // The fleet announced degradation, so it must exit as degraded (exit
    // 8), and resuming its complete SCFC must just merge.
    let dir = tmp_dir("degrade-then-complete");
    let mut cfg = FleetConfig::new(2, &dir);
    cfg.min_workers = 2;
    cfg.max_steals = 0;
    cfg.respawn = true;
    cfg.respawn_backoff_ms = 0;
    cfg.lease_ms = 1_000;
    let worker = ScriptedWorker::new();
    let err = run_fleet(&worker, "PCT", SEED, 8, &cfg, false).unwrap_err();
    assert_eq!(*worker.log.lock().unwrap(), ["leased", "stolen", "retired", "completed"]);
    assert!(
        matches!(err, SnowcatError::FleetDegraded { live_workers: 1, min_workers: 2, .. }),
        "{err}"
    );
    assert_eq!(err.exit_code(), 8);

    let resumed = run_fleet(&ScriptedWorker::new(), "PCT", SEED, 8, &cfg, true).unwrap();
    assert!(resumed.is_complete());
    assert!(resumed.shards.iter().all(|s| s.status == ShardStatus::Done));
    assert_eq!((resumed.steals, resumed.lost_workers), (1, 1));
    let executions: u64 =
        resumed.shards.iter().map(|s| s.checkpoint.as_ref().map_or(0, |c| c.executions)).sum();
    assert_eq!(executions, 8, "both shards merge from their completed checkpoints");
    assert!(report_from_fleet_checkpoint(&resumed, &CostModel::default()).is_ok());
}

#[test]
fn lease_arithmetic_is_instant_based_never_wall_clock() {
    // Regression guard for the monotonic-time satellite: lease deadlines
    // must be computed from `std::time::Instant` exclusively. A wall-clock
    // source (`SystemTime`) would let an NTP step or `date -s` expire a
    // healthy lease (false steal → wasted re-execution) or extend a dead
    // one (hung fleet). Scan the fleet source: any reintroduction of
    // SystemTime/UNIX_EPOCH into lease handling trips this test.
    let fleet_src = include_str!("../src/fleet.rs");
    assert!(
        !fleet_src.contains("SystemTime") && !fleet_src.contains("UNIX_EPOCH"),
        "fleet.rs must not use wall-clock time for lease arithmetic"
    );
    let process_src = include_str!("../src/process_worker.rs");
    assert!(
        !process_src.contains("SystemTime") && !process_src.contains("UNIX_EPOCH"),
        "process_worker.rs must not use wall-clock time for supervision timing"
    );
}
