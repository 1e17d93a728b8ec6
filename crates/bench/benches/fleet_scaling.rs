//! Fleet scaling and fault-recovery benchmark.
//!
//! Runs the same PCT campaign as a fleet at N = 1, 2, and 4 in-process
//! workers and reports end-to-end throughput (simulated schedule
//! executions per wall-clock second), then injects a stalling straggler
//! and measures what recovery costs: steals, re-executed positions, and
//! throughput relative to the fault-free run at the same width. A second
//! series re-runs the CLI campaign stream through both transports —
//! in-process `ThreadWorker` threads vs `snowcat fleet-worker`
//! subprocesses over the SCWP wire — and reports the process-isolation
//! overhead per fleet width (skipped with a note if the `snowcat` binary
//! is not built). Writes `results/BENCH_fleet.json`.
//!
//! Pass `--quick` for a CI-sized smoke run.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_core::{CostModel, ExploreConfig, Explorer};
use snowcat_corpus::{interacting_cti_pairs, random_cti_pairs, StiFuzzer, StiProfile};
use snowcat_harness::{
    run_fleet, FaultPlan, FleetCheckpoint, FleetConfig, ProcessWorker, ThreadWorker, WorkerCommand,
};
use snowcat_kernel::{generate, GenConfig, Kernel, KernelVersion};
use std::time::Instant;

fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

const SEED: u64 = 0xF1EE7;

fn setup(stream_len: usize) -> (Kernel, Vec<StiProfile>, Vec<(usize, usize)>) {
    let k = generate(&GenConfig::default());
    let mut fz = StiFuzzer::new(&k, 1);
    fz.seed_each_syscall();
    let corpus = fz.into_corpus();
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let stream = random_cti_pairs(&mut rng, corpus.len(), stream_len);
    (k, corpus, stream)
}

struct FleetRun {
    fc: FleetCheckpoint,
    wall_s: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_once(
    k: &Kernel,
    corpus: &[StiProfile],
    stream: &[(usize, usize)],
    ecfg: &ExploreConfig,
    tag: &str,
    workers: usize,
    fault_plan: FaultPlan,
    lease_ms: u64,
    checkpoint_every: usize,
) -> FleetRun {
    let dir = std::env::temp_dir().join(format!("snowcat-bench-fleet-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cost = CostModel::default();
    let mut cfg = FleetConfig::new(workers, &dir);
    cfg.lease_ms = lease_ms;
    cfg.checkpoint_every = checkpoint_every;
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
    let t0 = Instant::now();
    let fc = run_fleet(&worker, "PCT", ecfg.seed, stream.len(), &cfg, false).unwrap();
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(fc.is_complete(), "bench fleet did not complete");
    FleetRun { fc, wall_s }
}

fn executions(fc: &FleetCheckpoint) -> u64 {
    fc.shards.iter().filter_map(|s| s.checkpoint.as_ref()).map(|ck| ck.executions).sum()
}

/// Locate the `snowcat` CLI binary for the process-transport series:
/// `$SNOWCAT_BIN` if set, else walk up from this bench executable
/// (`target/<profile>/deps/fleet_scaling-…`) looking for a sibling
/// `snowcat` in a parent directory.
fn find_snowcat() -> Option<std::path::PathBuf> {
    if let Ok(p) = std::env::var("SNOWCAT_BIN") {
        let p = std::path::PathBuf::from(p);
        if p.is_file() {
            return Some(p);
        }
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    loop {
        let candidate = dir.join("snowcat");
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = dir.parent()?;
    }
}

/// `bin` as the report records it: relative to the workspace root, or only
/// its file name when it lies outside the workspace, so the tracked report
/// carries no machine-specific path.
fn recorded_bin_path(bin: &std::path::Path) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize();
    let bin = bin.canonicalize().unwrap_or_else(|_| bin.to_path_buf());
    match root.as_deref().ok().and_then(|r| bin.strip_prefix(r).ok()) {
        Some(rel) => rel.display().to_string(),
        None => bin.file_name().unwrap_or_default().to_string_lossy().into_owned(),
    }
}

/// One process-transport fleet over the CLI campaign stream: the worker
/// subprocesses rebuild the same (version, seed, ctis) stream themselves,
/// so the parent only supplies the command line and the stream length.
#[allow(clippy::too_many_arguments)]
fn run_process_once(
    snowcat: &std::path::Path,
    tag: &str,
    workers: usize,
    seed: u64,
    n_ctis: usize,
    budget: usize,
    stream_len: usize,
    lease_ms: u64,
    checkpoint_every: usize,
) -> FleetRun {
    let dir = std::env::temp_dir().join(format!("snowcat-bench-fleet-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = FleetConfig::new(workers, &dir);
    cfg.lease_ms = lease_ms;
    cfg.checkpoint_every = checkpoint_every;
    cfg.respawn = true;
    let command = WorkerCommand {
        program: snowcat.to_path_buf(),
        args: vec![
            "fleet-worker".to_string(),
            "--version".into(),
            "5.12".into(),
            "--seed".into(),
            seed.to_string(),
            "--ctis".into(),
            n_ctis.to_string(),
            "--budget".into(),
            budget.to_string(),
            "--explorer".into(),
            "pct".into(),
            "--dir".into(),
            dir.display().to_string(),
            "--lease-ms".into(),
            lease_ms.to_string(),
            "--max-steals".into(),
            cfg.max_steals.to_string(),
            "--checkpoint-every".into(),
            checkpoint_every.to_string(),
            "--stall-ms".into(),
            "0".into(),
        ],
    };
    let worker = ProcessWorker { command, cfg: &cfg, label: "PCT".to_string(), seed, stream_len };
    let t0 = Instant::now();
    let fc = run_fleet(&worker, "PCT", seed, stream_len, &cfg, false).unwrap();
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(fc.is_complete(), "bench process fleet did not complete");
    FleetRun { fc, wall_s }
}

#[derive(serde::Serialize)]
struct ScalePoint {
    workers: usize,
    executions: u64,
    wall_s: f64,
    exec_per_sec: f64,
    speedup_vs_n1: f64,
}

#[derive(serde::Serialize)]
struct StragglerPoint {
    workers: usize,
    fault: &'static str,
    executions: u64,
    wall_s: f64,
    exec_per_sec: f64,
    steals: u64,
    reexecutions: u64,
    lost_workers: u64,
    throughput_vs_fault_free: f64,
}

#[derive(serde::Serialize)]
struct TransportPoint {
    workers: usize,
    executions: u64,
    thread_wall_s: f64,
    thread_exec_per_sec: f64,
    process_wall_s: f64,
    process_exec_per_sec: f64,
    /// Process-transport throughput as a fraction of thread-transport
    /// throughput at the same width (spawn + handshake + wire overhead).
    process_vs_thread: f64,
}

#[derive(serde::Serialize)]
struct ProcessSection {
    snowcat_bin: String,
    stream_ctis: usize,
    exec_budget: usize,
    rows: Vec<TransportPoint>,
}

#[derive(serde::Serialize)]
struct Report {
    quick: bool,
    /// Host parallelism — on a single-CPU box the scaling curve is
    /// correctly flat; the fleet adds no overhead but can add no speedup.
    available_cpus: usize,
    stream_ctis: usize,
    exec_budget: usize,
    scaling: Vec<ScalePoint>,
    straggler: StragglerPoint,
    /// Thread-vs-process transport comparison over the CLI campaign
    /// stream; `None` when the `snowcat` binary was not built.
    process_transport: Option<ProcessSection>,
}

fn main() {
    // The stream must be long enough that shard startup does not dominate;
    // the exec budget is per schedule-exploration position.
    // Scaling runs checkpoint sparsely so the measured cost is schedule
    // exploration, not the serialized SCFC rollup; the straggler run keeps a
    // tight cadence because steal recovery resumes from the last checkpoint.
    let (stream_len, budget, lease_ms, ckpt_every): (usize, usize, u64, usize) =
        if quick() { (48, 4, 250, 16) } else { (256, 48, 500, 64) };
    let (k, corpus, stream) = setup(stream_len);
    let ecfg = ExploreConfig::default().with_exec_budget(budget).with_seed(SEED);

    let mut scaling = Vec::new();
    let mut n1_rate = 0.0_f64;
    for &workers in &[1usize, 2, 4] {
        let run = run_once(
            &k,
            &corpus,
            &stream,
            &ecfg,
            &format!("n{workers}"),
            workers,
            FaultPlan::default(),
            lease_ms,
            ckpt_every,
        );
        let execs = executions(&run.fc);
        let rate = execs as f64 / run.wall_s;
        if workers == 1 {
            n1_rate = rate;
        }
        println!(
            "fleet N={workers}: {execs} executions in {:.3} s — {:.0} exec/s ({:.2}x vs N=1)",
            run.wall_s,
            rate,
            rate / n1_rate,
        );
        scaling.push(ScalePoint {
            workers,
            executions: execs,
            wall_s: run.wall_s,
            exec_per_sec: rate,
            speedup_vs_n1: rate / n1_rate,
        });
    }

    // Straggler: worker 0 goes silent mid-shard; the monitor expires its
    // lease and a surviving worker re-executes the shard from its last
    // checkpoint. Recovery cost = steals + re-executed positions + the
    // throughput lost to the lease deadline.
    let fault_free = &scaling[1]; // N=2
    let run = run_once(
        &k,
        &corpus,
        &stream,
        &ecfg,
        "straggler",
        2,
        FaultPlan::parse("stall-worker@0").unwrap(),
        lease_ms,
        8,
    );
    let execs = executions(&run.fc);
    let rate = execs as f64 / run.wall_s;
    let straggler = StragglerPoint {
        workers: 2,
        fault: "stall-worker@0",
        executions: execs,
        wall_s: run.wall_s,
        exec_per_sec: rate,
        steals: run.fc.steals,
        reexecutions: run.fc.reexecutions,
        lost_workers: run.fc.lost_workers,
        throughput_vs_fault_free: rate / fault_free.exec_per_sec,
    };
    println!(
        "straggler N=2 ({}): {} steal(s), {} re-executed position(s), {} lost worker(s), \
         {:.0} exec/s ({:.2}x of fault-free N=2)",
        straggler.fault,
        straggler.steals,
        straggler.reexecutions,
        straggler.lost_workers,
        rate,
        straggler.throughput_vs_fault_free,
    );
    assert!(straggler.steals >= 1, "the straggler's shard was never stolen");
    assert!(straggler.lost_workers >= 1, "the straggler was never declared lost");

    // Transport comparison: the exact CLI campaign stream (the worker
    // subprocesses rebuild it from (version, seed, ctis)) through thread
    // workers and through `snowcat fleet-worker` subprocesses.
    let process_transport = match find_snowcat() {
        None => {
            println!(
                "process transport: skipped — no `snowcat` binary found \
                 (build snowcat-cli or set SNOWCAT_BIN)"
            );
            None
        }
        Some(bin) => {
            let (p_ctis, p_budget): (usize, usize) = if quick() { (16, 4) } else { (64, 16) };
            let pk = KernelVersion::V5_12.spec(SEED).build();
            let mut fz = StiFuzzer::new(&pk, SEED);
            fz.seed_each_syscall();
            fz.fuzz(100);
            let p_corpus = fz.into_corpus();
            let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 0xE0);
            let p_stream = interacting_cti_pairs(&mut rng, &p_corpus, p_ctis);
            let p_ecfg = ExploreConfig::default().with_exec_budget(p_budget).with_seed(SEED);
            let mut rows = Vec::new();
            for &workers in &[1usize, 2, 4] {
                let thread_run = run_once(
                    &pk,
                    &p_corpus,
                    &p_stream,
                    &p_ecfg,
                    &format!("tthread-n{workers}"),
                    workers,
                    FaultPlan::default(),
                    lease_ms,
                    ckpt_every,
                );
                let process_run = run_process_once(
                    &bin,
                    &format!("tproc-n{workers}"),
                    workers,
                    SEED,
                    p_ctis,
                    p_budget,
                    p_stream.len(),
                    lease_ms,
                    ckpt_every,
                );
                let execs = executions(&thread_run.fc);
                assert_eq!(
                    execs,
                    executions(&process_run.fc),
                    "thread and process transports diverged on the same stream at N={workers}"
                );
                let thread_rate = execs as f64 / thread_run.wall_s;
                let process_rate = execs as f64 / process_run.wall_s;
                println!(
                    "transport N={workers}: thread {thread_rate:.0} exec/s, \
                     process {process_rate:.0} exec/s ({:.2}x of thread)",
                    process_rate / thread_rate,
                );
                rows.push(TransportPoint {
                    workers,
                    executions: execs,
                    thread_wall_s: thread_run.wall_s,
                    thread_exec_per_sec: thread_rate,
                    process_wall_s: process_run.wall_s,
                    process_exec_per_sec: process_rate,
                    process_vs_thread: process_rate / thread_rate,
                });
            }
            Some(ProcessSection {
                snowcat_bin: recorded_bin_path(&bin),
                stream_ctis: p_stream.len(),
                exec_budget: p_budget,
                rows,
            })
        }
    };

    let report = Report {
        quick: quick(),
        available_cpus: std::thread::available_parallelism().map_or(1, usize::from),
        stream_ctis: stream_len,
        exec_budget: budget,
        scaling,
        straggler,
        process_transport,
    };
    snowcat_bench::save_json("BENCH_fleet", &report);
}
