//! The campaign loop (Figure 5), with its robustness hooks.
//!
//! [`run_supervised_campaign`] is the only per-CTI campaign loop in the
//! tree. It feeds a CTI stream to PCT or MLPCT, gives each CTI the
//! exploration config's budget with a positionally derived seed, stops at
//! the optional simulated-time budget, and accumulates races, blocks and
//! bugs against simulated hours. With [`SupervisorConfig::new()`] (no
//! checkpointing, no fault plan, default fuel) it is the plain paper
//! campaign; the robustness pillars below are hooks on the same loop:
//!
//! 1. **watchdog execution** — every attempt runs under a fuel budget; an
//!    attempt whose executions *all* hang is retried with a different seed
//!    (bounded), and CT pairs that hang through every retry are quarantined
//!    (skipped at later stream positions, reported in the result),
//! 2. **checkpoint/resume** — periodic checksummed snapshots via
//!    [`crate::checkpoint`]; a killed campaign resumes at the exact stream
//!    position with identical final state,
//! 3. **fault injection** — a [`FaultPlan`] forces hangs at chosen
//!    positions and corrupts chosen checkpoint writes, deterministically.
//!
//! Quarantine is keyed by CT *pair* (not stream position) and seeds are
//! derived by *position*, so skipping a quarantined pair never shifts the
//! seeds of later CTIs.

use crate::checkpoint::{save_checkpoint_atomic, CampaignCheckpoint};
use crate::fault::{corrupt, FaultPlan};
use serde::{Deserialize, Serialize};
use snowcat_core::{
    explore_mlpct, explore_pct, CampaignResult, CostModel, ExploreConfig, Explorer, HistoryPoint,
    PredictorStats, SnowcatError,
};
use snowcat_corpus::StiProfile;
use snowcat_events::{CampaignEvent, EventSink};
use snowcat_kernel::{BugId, Kernel};
use snowcat_race::RaceSet;
use snowcat_vm::BitSet;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Per-CTI seed derivation: position `ci` explores with
/// `seed ^ ci * SEED_GOLDEN`, decorrelating schedule proposals across CTIs.
const SEED_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
/// Retry salt: decorrelates retry seeds from the positional stream.
const RETRY_SALT: u64 = 0xD1B5_4A32_D192_ED03;
/// Starvation fuel used for injected hang faults.
const INJECTED_HANG_FUEL: u64 = 1;

/// Supervisor knobs. The default ([`SupervisorConfig::new`]) is the plain
/// paper campaign: no checkpointing, no fault plan, fuel from the
/// exploration config, 2 retries.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Fuel (VM step) budget per execution; `None` inherits
    /// [`ExploreConfig::fuel_budget`].
    pub fuel_budget: Option<u64>,
    /// Retries (with a different seed) after a fully-hung attempt before
    /// the CT pair is quarantined.
    pub max_retries: u32,
    /// Where to write checkpoints (`None` disables checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint every N processed stream positions (min 1).
    pub checkpoint_every: usize,
    /// Simulated-time budget in hours (the Figure-5 budget): checked before
    /// each CTI, so a cheap explorer gets through more of the stream.
    pub max_hours: Option<f64>,
    /// Stop after processing this many stream positions *this run* (a
    /// checkpoint is written first if checkpointing is on) — the in-process
    /// equivalent of a mid-campaign kill, used by resume tests.
    pub stop_after: Option<usize>,
    /// Sleep this long after each stream position — widens the kill window
    /// for out-of-process kill-and-resume tests.
    pub stall_ms: u64,
    /// Deterministic faults to inject.
    pub fault_plan: FaultPlan,
    /// Structured-event sink (`None` disables instrumentation entirely;
    /// emission is non-blocking and never fails the campaign).
    pub events: Option<EventSink>,
    /// Fresh-CT feed for online refresh: every accepted execution's CT pair
    /// is pushed here (`None` disables the feed). Pushing never blocks.
    pub fresh_cts: Option<crate::feed::CtFeed>,
    /// Global-position offset for per-CTI seed derivation: local position
    /// `ci` derives its seed as if it were whole-stream position
    /// `ci + position_offset`. Fleet shards pass their start offset so a
    /// sharded run reproduces the whole-stream seeds exactly; 0 (the
    /// default) is the whole-stream identity.
    pub position_offset: usize,
    /// Extra salt XORed into every derived per-CTI seed. Zero (the
    /// default) is transparent; the fleet coordinator salts only
    /// repeat-offender shards that made no progress across a steal
    /// generation, trading bit-identity for liveness on those shards.
    pub seed_salt: u64,
    /// Fleet lease handle: beaten once per processed stream position and
    /// polled for revocation, so a worker whose lease expired abandons its
    /// shard instead of racing the thief (`None` outside fleet runs).
    pub lease: Option<crate::fleet::LeaseSignal>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            fuel_budget: None,
            max_retries: 2,
            checkpoint_path: None,
            checkpoint_every: 25,
            max_hours: None,
            stop_after: None,
            stall_ms: 0,
            fault_plan: FaultPlan::default(),
            events: None,
            fresh_cts: None,
            position_offset: 0,
            seed_salt: 0,
            lease: None,
        }
    }
}

impl SupervisorConfig {
    /// The plain paper campaign: 2 retries and no checkpointing.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Counters describing what the supervisor had to recover from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryLog {
    /// Attempts whose executions all hung.
    pub hung_attempts: u64,
    /// Retries issued after hung attempts.
    pub retries: u64,
    /// Executions spent on rejected (hung) attempts — not counted in the
    /// campaign's execution totals.
    pub wasted_executions: u64,
    /// CT pairs quarantined after exhausting retries.
    pub quarantined: u64,
    /// Stream positions skipped because their pair was already quarantined.
    pub skipped_quarantined: u64,
    /// Checkpoints written.
    pub checkpoints_written: u64,
}

/// What a supervised campaign produced: the plain [`CampaignResult`] plus
/// robustness metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SupervisedResult {
    /// The campaign result, shaped exactly like the unsupervised one.
    pub result: CampaignResult,
    /// Quarantined CT pairs (corpus index pairs), sorted.
    pub quarantined: Vec<(usize, usize)>,
    /// Recovery counters.
    pub recovery: RecoveryLog,
    /// Stream position this run resumed from (None for a fresh run).
    pub resumed_from: Option<usize>,
    /// Predictor-chain counters (None for PCT).
    pub predictor_stats: Option<PredictorStats>,
}

/// Mutable campaign accumulators, extracted so checkpointing and resuming
/// are symmetric.
struct SupState {
    races: RaceSet,
    harmful: RaceSet,
    blocks: BitSet,
    bugs_found: Vec<BugId>,
    executions: u64,
    inferences: u64,
    history: Vec<HistoryPoint>,
    quarantine: BTreeSet<(usize, usize)>,
    recovery: RecoveryLog,
}

impl SupState {
    fn fresh(num_blocks: usize) -> Self {
        Self {
            races: RaceSet::new(),
            harmful: RaceSet::new(),
            blocks: BitSet::new(num_blocks),
            bugs_found: Vec::new(),
            executions: 0,
            inferences: 0,
            history: Vec::new(),
            quarantine: BTreeSet::new(),
            recovery: RecoveryLog::default(),
        }
    }

    fn from_checkpoint(ck: &CampaignCheckpoint) -> Self {
        let mut races = RaceSet::new();
        for &k in &ck.race_keys {
            races.insert(k);
        }
        let mut harmful = RaceSet::new();
        for &k in &ck.harmful_keys {
            harmful.insert(k);
        }
        Self {
            races,
            harmful,
            blocks: ck.blocks.clone(),
            bugs_found: ck.bugs_found.clone(),
            executions: ck.executions,
            inferences: ck.inferences,
            history: ck.history.clone(),
            quarantine: ck.quarantine.iter().copied().collect(),
            recovery: ck.recovery,
        }
    }

    fn to_checkpoint(
        &self,
        label: &str,
        seed: u64,
        position: usize,
        strategy: Option<snowcat_core::StrategySnapshot>,
    ) -> CampaignCheckpoint {
        let mut race_keys: Vec<_> = self.races.iter().copied().collect();
        race_keys.sort_unstable();
        let mut harmful_keys: Vec<_> = self.harmful.iter().copied().collect();
        harmful_keys.sort_unstable();
        CampaignCheckpoint {
            label: label.to_owned(),
            seed,
            position,
            executions: self.executions,
            inferences: self.inferences,
            race_keys,
            harmful_keys,
            blocks: self.blocks.clone(),
            bugs_found: self.bugs_found.clone(),
            history: self.history.clone(),
            quarantine: self.quarantine.iter().copied().collect(),
            strategy,
            recovery: self.recovery,
        }
    }
}

/// Run a supervised campaign. With `resume`, validation requires the
/// checkpoint's label and seed to match the explorer and config it was
/// written under — resuming an S1 campaign with an S2 explorer, or with a
/// different base seed, is a configuration error, not silent divergence.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised_campaign(
    kernel: &Kernel,
    corpus: &[StiProfile],
    stream: &[(usize, usize)],
    mut explorer: Explorer<'_, '_>,
    explore_cfg: &ExploreConfig,
    cost: &CostModel,
    sup: &SupervisorConfig,
    resume: Option<CampaignCheckpoint>,
) -> Result<SupervisedResult, SnowcatError> {
    let label = explorer.label();
    let effective_fuel = sup.fuel_budget.unwrap_or(explore_cfg.fuel_budget);
    let checkpoint_every = sup.checkpoint_every.max(1);

    let sink = sup.events.as_ref();
    let (mut state, start, resumed_from) = match resume {
        None => (SupState::fresh(kernel.num_blocks()), 0, None),
        Some(ck) => {
            if ck.label != label {
                return Err(SnowcatError::Config(format!(
                    "checkpoint was written by explorer '{}', not '{label}'",
                    ck.label
                )));
            }
            if ck.seed != explore_cfg.seed {
                return Err(SnowcatError::Config(format!(
                    "checkpoint base seed {:#x} does not match configured seed {:#x}",
                    ck.seed, explore_cfg.seed
                )));
            }
            if ck.position > stream.len() {
                return Err(SnowcatError::Config(format!(
                    "checkpoint position {} is beyond the stream ({} CTIs)",
                    ck.position,
                    stream.len()
                )));
            }
            if let Explorer::MlPct { strategy, .. } = &mut explorer {
                match &ck.strategy {
                    Some(snap) if strategy.restore(snap) => {}
                    Some(_) => {
                        return Err(SnowcatError::Config(
                            "checkpoint strategy snapshot does not match the explorer's \
                             strategy kind"
                                .into(),
                        ))
                    }
                    None => {
                        return Err(SnowcatError::Config(
                            "checkpoint has no strategy snapshot but the explorer is MLPCT".into(),
                        ))
                    }
                }
            }
            let pos = ck.position;
            (SupState::from_checkpoint(&ck), pos, Some(pos))
        }
    };

    if let Some(s) = sink {
        s.campaign(CampaignEvent::Started {
            label: label.clone(),
            seed: explore_cfg.seed,
            ctis: stream.len() as u64,
            resumed_from: resumed_from.map(|p| p as u64),
        });
    }
    let mut last_predictor_emit: Option<PredictorStats> = None;
    let mut processed_this_run = 0usize;
    let mut next_position = start;
    #[allow(clippy::needless_range_loop)] // resume starts mid-stream; the index IS the seed input
    for ci in start..stream.len() {
        if let Some(lease) = &sup.lease {
            // A revoked lease means the coordinator already declared this
            // worker dead and re-queued the shard: stop immediately and let
            // the partial result be discarded rather than racing the thief.
            if lease.is_revoked() {
                break;
            }
            lease.beat();
        }
        if let Some(h) = sup.max_hours {
            if cost.hours(state.executions, state.inferences) >= h {
                break;
            }
        }
        if let Some(n) = sup.stop_after {
            if processed_this_run >= n {
                break;
            }
        }
        let (ia, ib) = stream[ci];
        if state.quarantine.contains(&(ia, ib)) {
            state.recovery.skipped_quarantined += 1;
            next_position = ci + 1;
            processed_this_run += 1;
            continue;
        }

        let planned_hangs = sup.fault_plan.hang_attempts_at(ci);
        if planned_hangs > 0 {
            if let Some(s) = sink {
                s.campaign(CampaignEvent::FaultInjected {
                    entry: format!("hang@{ci}x{planned_hangs}"),
                    position: ci as u64,
                });
            }
        }
        let mut accepted = None;
        for attempt in 0..=sup.max_retries {
            let salt = if attempt == 0 { 0 } else { u64::from(attempt).wrapping_mul(RETRY_SALT) };
            let fuel = if attempt < planned_hangs { INJECTED_HANG_FUEL } else { effective_fuel };
            let global_ci = (ci + sup.position_offset) as u64;
            let cfg = (*explore_cfg)
                .with_seed(
                    explore_cfg.seed ^ global_ci.wrapping_mul(SEED_GOLDEN) ^ salt ^ sup.seed_salt,
                )
                .with_fuel_budget(fuel);
            // Hung attempts are discarded wholesale, so the strategy's
            // cumulative memory must be rolled back with them.
            let pre = match &explorer {
                Explorer::MlPct { strategy, .. } => Some(strategy.snapshot()),
                _ => None,
            };
            let a = &corpus[ia];
            let b = &corpus[ib];
            let t0 = sink.map(|_| std::time::Instant::now());
            let outcome = match &mut explorer {
                Explorer::Pct => explore_pct(kernel, a, b, &cfg),
                Explorer::MlPct { service, strategy } => {
                    explore_mlpct(kernel, service, strategy.as_mut(), a, b, &cfg)
                }
            };
            let latency_us = t0.map(|t| t.elapsed().as_micros() as u64).unwrap_or(0);
            let fully_hung = outcome.executions > 0 && outcome.hangs == outcome.executions;
            if !fully_hung {
                accepted = Some((outcome, attempt, latency_us));
                break;
            }
            state.recovery.hung_attempts += 1;
            state.recovery.wasted_executions += outcome.executions;
            if let Some(s) = sink {
                s.campaign(CampaignEvent::HangDetected {
                    position: ci as u64,
                    attempt: u64::from(attempt),
                    injected: attempt < planned_hangs,
                });
            }
            if let (Explorer::MlPct { strategy, .. }, Some(snap)) = (&mut explorer, &pre) {
                strategy.restore(snap);
            }
            if attempt < sup.max_retries {
                state.recovery.retries += 1;
            }
        }

        match accepted {
            Some((outcome, attempt, latency_us)) => {
                if let Some(feed) = &sup.fresh_cts {
                    feed.push((ia, ib));
                }
                let pre_races = state.races.len();
                let pre_blocks = state.blocks.count();
                state.executions += outcome.executions;
                state.inferences += outcome.inferences;
                for r in &outcome.races {
                    state.races.insert(r.key);
                    if !r.benign {
                        state.harmful.insert(r.key);
                    }
                }
                state.blocks.union_with(&outcome.sched_dep_blocks);
                for bug in outcome.bugs {
                    if !state.bugs_found.contains(&bug) {
                        state.bugs_found.push(bug);
                    }
                }
                state.history.push(HistoryPoint {
                    ctis: ci + 1,
                    executions: state.executions,
                    inferences: state.inferences,
                    hours: cost.hours(state.executions, state.inferences),
                    races: state.races.len(),
                    harmful_races: state.harmful.len(),
                    sched_dep_blocks: state.blocks.count(),
                    bugs: state.bugs_found.len(),
                });
                if let Some(s) = sink {
                    s.campaign(CampaignEvent::ExecutionOutcome {
                        position: ci as u64,
                        ct_a: ia as u64,
                        ct_b: ib as u64,
                        attempt: u64::from(attempt),
                        executions: outcome.executions,
                        new_races: (state.races.len() - pre_races) as u64,
                        new_blocks: (state.blocks.count() - pre_blocks) as u64,
                        latency_us,
                    });
                    if let Explorer::MlPct { service, .. } = &explorer {
                        let ps = service.stats();
                        if last_predictor_emit != Some(ps) {
                            s.campaign(CampaignEvent::PredictorBatch {
                                batches: ps.batches(),
                                inferences: ps.inferences(),
                            });
                            last_predictor_emit = Some(ps);
                        }
                    }
                }
            }
            None => {
                state.quarantine.insert((ia, ib));
                state.recovery.quarantined += 1;
                if let Some(s) = sink {
                    s.campaign(CampaignEvent::Quarantined {
                        position: ci as u64,
                        ct_a: ia as u64,
                        ct_b: ib as u64,
                        attempts: u64::from(sup.max_retries) + 1,
                    });
                }
            }
        }

        next_position = ci + 1;
        processed_this_run += 1;

        if let Some(path) = &sup.checkpoint_path {
            if processed_this_run.is_multiple_of(checkpoint_every)
                || sup.stop_after == Some(processed_this_run)
            {
                write_checkpoint(
                    path,
                    &state,
                    &label,
                    explore_cfg.seed,
                    next_position,
                    &explorer,
                    sup,
                )?;
                state.recovery.checkpoints_written += 1;
            }
        }
        if sup.stall_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(sup.stall_ms));
        }
    }

    // Final checkpoint so a completed campaign can still be re-resumed
    // (a resume at position == stream.len() is a no-op run).
    if let Some(path) = &sup.checkpoint_path {
        write_checkpoint(path, &state, &label, explore_cfg.seed, next_position, &explorer, sup)?;
        state.recovery.checkpoints_written += 1;
    }

    let predictor_stats = match &explorer {
        Explorer::MlPct { service, .. } => Some(service.stats()),
        _ => None,
    };
    if let Some(s) = sink {
        let last = state.history.last().copied().unwrap_or(HistoryPoint {
            ctis: 0,
            executions: 0,
            inferences: 0,
            hours: 0.0,
            races: 0,
            harmful_races: 0,
            sched_dep_blocks: 0,
            bugs: 0,
        });
        s.campaign(CampaignEvent::Finished {
            label: label.clone(),
            executions: last.executions,
            inferences: last.inferences,
            races: last.races as u64,
            harmful_races: last.harmful_races as u64,
            blocks: last.sched_dep_blocks as u64,
            bugs: last.bugs as u64,
            quarantined: state.quarantine.len() as u64,
            sim_hours: last.hours,
        });
    }
    Ok(SupervisedResult {
        result: CampaignResult { label, history: state.history, bugs_found: state.bugs_found },
        quarantined: state.quarantine.into_iter().collect(),
        recovery: state.recovery,
        resumed_from,
        predictor_stats,
    })
}

#[allow(clippy::too_many_arguments)]
fn write_checkpoint(
    path: &std::path::Path,
    state: &SupState,
    label: &str,
    seed: u64,
    position: usize,
    explorer: &Explorer<'_, '_>,
    sup: &SupervisorConfig,
) -> Result<(), SnowcatError> {
    // NOTE: `state.recovery` is copied into the checkpoint *before* the
    // written-counter increment below, which is intentional: on resume the
    // counter continues from the snapshots that preceded this write.
    let strategy = match explorer {
        Explorer::MlPct { strategy, .. } => Some(strategy.snapshot()),
        _ => None,
    };
    let ck = state.to_checkpoint(label, seed, position, strategy);
    let ordinal = state.recovery.checkpoints_written + 1;
    let fault_kind = sup.fault_plan.checkpoint_fault(ordinal);
    let raw = match fault_kind {
        Some(kind) => Some(corrupt(&crate::checkpoint::encode_checkpoint(&ck)?, kind)),
        None => None,
    };
    let rotated = path.exists();
    save_checkpoint_atomic(path, &ck, raw)?;
    if let Some(s) = &sup.events {
        if let Some(kind) = fault_kind {
            s.campaign(CampaignEvent::FaultInjected {
                entry: format!("ckpt@{ordinal}:{kind:?}").to_lowercase(),
                position: position as u64,
            });
        }
        s.campaign(CampaignEvent::CheckpointWritten {
            path: path.display().to_string(),
            position: position as u64,
            ordinal,
            rotated,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use snowcat_cfg::KernelCfg;
    use snowcat_core::{Pic, S1NewBitmap};
    use snowcat_corpus::{random_cti_pairs, StiFuzzer};
    use snowcat_kernel::{generate, GenConfig};
    use snowcat_nn::{Checkpoint, PicConfig, PicModel};

    fn setup() -> (Kernel, KernelCfg, Vec<StiProfile>, Vec<(usize, usize)>) {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 1);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let stream = random_cti_pairs(&mut rng, corpus.len(), 5);
        (k, cfg, corpus, stream)
    }

    /// The plain paper campaign, optionally time-budgeted.
    fn run_campaign(
        kernel: &Kernel,
        corpus: &[StiProfile],
        stream: &[(usize, usize)],
        explorer: Explorer<'_, '_>,
        explore_cfg: &ExploreConfig,
        cost: &CostModel,
        max_hours: Option<f64>,
    ) -> CampaignResult {
        let sup = SupervisorConfig { max_hours, ..SupervisorConfig::new() };
        run_supervised_campaign(kernel, corpus, stream, explorer, explore_cfg, cost, &sup, None)
            .expect("no checkpointing, so nothing can fail")
            .result
    }

    #[test]
    fn pct_campaign_accumulates_monotonically() {
        let (k, _, corpus, stream) = setup();
        let cfg = ExploreConfig::default().with_exec_budget(6);
        let res =
            run_campaign(&k, &corpus, &stream, Explorer::Pct, &cfg, &CostModel::default(), None);
        assert_eq!(res.label, "PCT");
        assert_eq!(res.history.len(), stream.len());
        for w in res.history.windows(2) {
            assert!(w[1].races >= w[0].races);
            assert!(w[1].sched_dep_blocks >= w[0].sched_dep_blocks);
            assert!(w[1].hours >= w[0].hours);
            assert!(w[1].bugs >= w[0].bugs);
        }
    }

    #[test]
    fn mlpct_campaign_counts_inferences() {
        let (k, cfg_k, corpus, stream) = setup();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg_k);
        let cfg = ExploreConfig::default().with_exec_budget(4).with_inference_cap(40);
        let res = run_campaign(
            &k,
            &corpus,
            &stream,
            Explorer::mlpct(&pic, Box::new(S1NewBitmap::new())),
            &cfg,
            &CostModel::default(),
            None,
        );
        assert_eq!(res.label, "MLPCT-S1");
        let last = res.last();
        assert!(last.inferences > 0);
        assert!(last.inferences >= last.executions);
    }

    #[test]
    fn time_budget_truncates_campaign() {
        let (k, _, corpus, stream) = setup();
        let cfg = ExploreConfig::default().with_exec_budget(6);
        let cost = CostModel::default();
        let full = run_campaign(&k, &corpus, &stream, Explorer::Pct, &cfg, &cost, None);
        let budget = full.last().hours / 2.0;
        let cut = run_campaign(&k, &corpus, &stream, Explorer::Pct, &cfg, &cost, Some(budget));
        assert!(cut.history.len() < full.history.len());
        // The budget is checked before each CTI, so at most one CTI of
        // overshoot is possible.
        assert!(cut.last().hours <= budget + full.last().hours / stream.len() as f64 + 1e-9);
    }

    #[test]
    fn hours_to_races_finds_first_crossing() {
        let (k, _, corpus, stream) = setup();
        let cfg = ExploreConfig::default().with_exec_budget(6);
        let res =
            run_campaign(&k, &corpus, &stream, Explorer::Pct, &cfg, &CostModel::default(), None);
        let total = res.last().races;
        if total > 0 {
            let h = res.hours_to_races(1).expect("some point reached 1 race");
            assert!(h > 0.0);
            assert!(res.hours_to_races(total + 1).is_none());
        }
    }
}
