//! Interleaving exploration per CTI: the PCT baseline and MLPCT (§5.3).
//!
//! Both explorers draw candidate schedules from the same constrained-random
//! family (two scheduling hints per CT, the PCT-style proposal of
//! [`snowcat_vm::propose_hints`]). PCT executes every candidate until the
//! execution budget is spent; MLPCT first predicts each candidate's coverage
//! with PIC and only executes those a [`SelectionStrategy`] finds
//! interesting, capped by an inference budget (the paper caps at 1,600
//! inferences for a 50-execution budget).

use crate::predictor::PredictorService;
use crate::strategy::SelectionStrategy;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_corpus::StiProfile;
use snowcat_kernel::{BugId, Kernel};
use snowcat_race::{RaceDetector, RaceKey, RaceReport};
use snowcat_vm::{propose_hints, run_ct, BitSet, Cti, VmConfig};
use std::collections::HashSet;

/// Exploration budget for one CTI.
///
/// Construct with [`ExploreConfig::default`] and refine with the `with_*`
/// builders; the struct is `#[non_exhaustive]` so fields can be added
/// without breaking downstream crates.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ExploreConfig {
    /// Dynamic executions allowed.
    pub exec_budget: usize,
    /// Model inferences allowed (MLPCT only).
    pub inference_cap: usize,
    /// Schedule-proposal seed.
    pub seed: u64,
    /// Fuel (VM step) budget per dynamic execution. Runs that exhaust it
    /// exit with `StepLimit` and are counted in [`ExploreOutcome::hangs`].
    /// The default matches [`VmConfig::default`], so unsupervised callers
    /// see identical behaviour.
    pub fuel_budget: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self { exec_budget: 50, inference_cap: 1600, seed: 0xE791, fuel_budget: 1 << 20 }
    }
}

impl ExploreConfig {
    /// Set the dynamic-execution budget.
    pub fn with_exec_budget(mut self, exec_budget: usize) -> Self {
        self.exec_budget = exec_budget;
        self
    }

    /// Set the inference cap (MLPCT only).
    pub fn with_inference_cap(mut self, inference_cap: usize) -> Self {
        self.inference_cap = inference_cap;
        self
    }

    /// Set the schedule-proposal seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the per-execution fuel (VM step) budget.
    pub fn with_fuel_budget(mut self, fuel_budget: u64) -> Self {
        self.fuel_budget = fuel_budget;
        self
    }

    /// The [`VmConfig`] this exploration runs each candidate under.
    pub fn vm_config(&self) -> VmConfig {
        VmConfig::with_fuel(self.fuel_budget)
    }
}

/// What one CTI's exploration produced.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Dynamic executions performed.
    pub executions: u64,
    /// Model inferences performed (0 for plain PCT).
    pub inferences: u64,
    /// Unique potential data races observed (deduplicated in-run).
    pub races: Vec<RaceReport>,
    /// Planted bugs whose oracles fired.
    pub bugs: Vec<BugId>,
    /// Schedule-dependent blocks covered: concurrent coverage minus the
    /// union of the two STIs' sequential coverage.
    pub sched_dep_blocks: BitSet,
    /// Executions that exhausted the fuel budget (`ExitReason::StepLimit`).
    pub hangs: u64,
    /// Executions that aborted on a deadlock (`ExitReason::Deadlock`).
    pub crashes: u64,
}

impl ExploreOutcome {
    /// Unique race keys.
    pub fn race_keys(&self) -> Vec<RaceKey> {
        let mut keys: Vec<RaceKey> = self.races.iter().map(|r| r.key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

fn seq_union(kernel: &Kernel, a: &StiProfile, b: &StiProfile) -> BitSet {
    let mut u = BitSet::new(kernel.num_blocks());
    u.union_with(&a.seq.coverage);
    u.union_with(&b.seq.coverage);
    u
}

/// Explore a CTI with plain PCT: execute `exec_budget` random 2-switch
/// schedules (deduplicated).
pub fn explore_pct(
    kernel: &Kernel,
    a: &StiProfile,
    b: &StiProfile,
    cfg: &ExploreConfig,
) -> ExploreOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let detector = RaceDetector::default();
    let cti = Cti::new(a.sti.clone(), b.sti.clone());
    let seq_cov = seq_union(kernel, a, b);
    let mut outcome = ExploreOutcome {
        executions: 0,
        inferences: 0,
        races: Vec::new(),
        bugs: Vec::new(),
        sched_dep_blocks: BitSet::new(kernel.num_blocks()),
        hangs: 0,
        crashes: 0,
    };
    let mut seen_races = HashSet::new();
    let mut seen_hints = HashSet::new();
    let mut attempts = 0usize;
    while (outcome.executions as usize) < cfg.exec_budget && attempts < cfg.exec_budget * 20 {
        attempts += 1;
        let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
        if !seen_hints.insert(hints.clone()) {
            continue;
        }
        let r = run_ct(kernel, &cti, hints, cfg.vm_config());
        outcome.executions += 1;
        outcome.hangs += u64::from(r.hung());
        outcome.crashes += u64::from(r.crashed());
        for report in detector.detect(kernel, &r) {
            if seen_races.insert(report.key) {
                outcome.races.push(report);
            }
        }
        outcome.bugs.extend(r.unique_bugs());
        outcome.sched_dep_blocks.union_with(&r.coverage.difference(&seq_cov));
    }
    outcome.bugs.sort_unstable();
    outcome.bugs.dedup();
    outcome
}

/// Explore a CTI with MLPCT: same proposal stream, but only candidates the
/// strategy selects (based on the predicted coverage) are executed.
///
/// Predictions go through the [`PredictorService`]'s inference chain, so
/// callers can route them through a worker pool or an inference server
/// transparently.
pub fn explore_mlpct(
    kernel: &Kernel,
    service: &PredictorService<'_, '_>,
    strategy: &mut dyn SelectionStrategy,
    a: &StiProfile,
    b: &StiProfile,
    cfg: &ExploreConfig,
) -> ExploreOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let detector = RaceDetector::default();
    let cti = Cti::new(a.sti.clone(), b.sti.clone());
    let seq_cov = seq_union(kernel, a, b);
    let base = service.base_graph(a, b);
    let mut outcome = ExploreOutcome {
        executions: 0,
        inferences: 0,
        races: Vec::new(),
        bugs: Vec::new(),
        sched_dep_blocks: BitSet::new(kernel.num_blocks()),
        hangs: 0,
        crashes: 0,
    };
    let mut seen_races = HashSet::new();
    let mut seen_hints = HashSet::new();
    while (outcome.executions as usize) < cfg.exec_budget
        && (outcome.inferences as usize) < cfg.inference_cap
    {
        let hints = propose_hints(&mut rng, a.seq.steps, b.seq.steps);
        if !seen_hints.insert(hints.clone()) {
            // The proposal space for short CTIs can be exhausted; count the
            // wasted draw against the inference cap to guarantee progress.
            outcome.inferences += 1;
            continue;
        }
        let pred = service.predict_candidate(&base, a, b, &hints);
        outcome.inferences += 1;
        if !strategy.select(&pred) {
            continue;
        }
        let r = run_ct(kernel, &cti, hints, cfg.vm_config());
        outcome.executions += 1;
        outcome.hangs += u64::from(r.hung());
        outcome.crashes += u64::from(r.crashed());
        for report in detector.detect(kernel, &r) {
            if seen_races.insert(report.key) {
                outcome.races.push(report);
            }
        }
        outcome.bugs.extend(r.unique_bugs());
        outcome.sched_dep_blocks.union_with(&r.coverage.difference(&seq_cov));
    }
    outcome.bugs.sort_unstable();
    outcome.bugs.dedup();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pic::Pic;
    use crate::strategy::S1NewBitmap;
    use snowcat_cfg::KernelCfg;
    use snowcat_corpus::StiFuzzer;
    use snowcat_kernel::{generate, GenConfig};
    use snowcat_nn::{Checkpoint, PicConfig, PicModel};

    fn setup() -> (Kernel, KernelCfg, Vec<StiProfile>) {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 1);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        (k, cfg, corpus)
    }

    #[test]
    fn pct_respects_budget_and_finds_coverage() {
        let (k, _, corpus) = setup();
        let cfg = ExploreConfig { exec_budget: 10, ..Default::default() };
        let bug = &k.bugs[0];
        let a = corpus.iter().find(|p| p.sti.calls[0].syscall == bug.syscalls.0).unwrap();
        let b = corpus.iter().find(|p| p.sti.calls[0].syscall == bug.syscalls.1).unwrap();
        let out = explore_pct(&k, a, b, &cfg);
        assert!(out.executions <= 10);
        assert_eq!(out.inferences, 0);
    }

    #[test]
    fn mlpct_executes_at_most_selected() {
        let (k, cfg_k, corpus) = setup();
        let model = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "t");
        let pic = Pic::new(&ck, &k, &cfg_k);
        let svc = PredictorService::direct(&pic);
        let mut strat = S1NewBitmap::new();
        let cfg = ExploreConfig::default().with_exec_budget(8).with_inference_cap(60).with_seed(3);
        let out = explore_mlpct(&k, &svc, &mut strat, &corpus[0], &corpus[1], &cfg);
        assert!(out.executions <= 8);
        assert!(out.inferences <= 60);
        assert!(out.inferences >= out.executions, "every execution was predicted first");
    }

    #[test]
    fn exploration_is_deterministic_given_seed() {
        let (k, _, corpus) = setup();
        let cfg =
            ExploreConfig { exec_budget: 6, inference_cap: 100, seed: 9, ..Default::default() };
        let x = explore_pct(&k, &corpus[2], &corpus[3], &cfg);
        let y = explore_pct(&k, &corpus[2], &corpus[3], &cfg);
        assert_eq!(x.executions, y.executions);
        assert_eq!(x.race_keys(), y.race_keys());
        assert_eq!(x.sched_dep_blocks, y.sched_dep_blocks);
    }

    #[test]
    fn sched_dep_blocks_exclude_sequential_coverage() {
        let (k, _, corpus) = setup();
        let cfg = ExploreConfig { exec_budget: 12, ..Default::default() };
        let out = explore_pct(&k, &corpus[0], &corpus[1], &cfg);
        let mut seq = BitSet::new(k.num_blocks());
        seq.union_with(&corpus[0].seq.coverage);
        seq.union_with(&corpus[1].seq.coverage);
        for blk in out.sched_dep_blocks.iter() {
            assert!(!seq.contains(blk), "block {blk} is sequentially covered");
        }
    }
}
