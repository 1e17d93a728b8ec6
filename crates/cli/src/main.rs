//! `snowcat` — the command-line front end to the Snowcat reproduction.
//!
//! ```text
//! snowcat kernel   --version 5.12 [--seed N] [--stats] [--bugs]
//! snowcat disasm   --version 5.12 --func fs_open [--seed N]
//! snowcat fuzz     --version 5.12 [--iterations N]
//! snowcat collect  --version 5.12 --out data.scds [--ctis N] [--interleavings K]
//! snowcat train    --version 5.12 --out pic.bin [--ctis N] [--epochs E] [--flow]
//! snowcat explore  --version 5.12 --model pic.bin [--ctis N] [--budget B]
//! snowcat razzer   --version 5.12 --model pic.bin [--schedules N] [--coarse] [--events DIR]
//! snowcat analyze  --version 5.12 [--seed N] [--out report.json] [--self-check]
//!                  [--coarse] [--baseline OLD.json]
//! snowcat campaign --version 5.12 [--explorer pct|s1|s2|s3] [--checkpoint F] [--resume F]
//!                  [--serve] [--refresh N]
//! snowcat fleet    --version 5.12 --dir DIR [--workers N] [--explorer pct|s1|s2|s3]
//!                  [--resume] [--lease-ms MS] [--max-steals K] [--fault-plan SPEC]
//! snowcat serve    --version 5.12 --model pic.bin [--requests N] [--clients C]
//! snowcat status   RUNDIR [--json] [--follow] [--self-check]
//! ```
//!
//! Every command is deterministic given `--seed` (default: the family seed
//! used by the experiment harness, so CLI results line up with the paper
//! regenerators).

mod args;
mod cmds;

use args::Args;

const USAGE: &str = "\
snowcat — efficient kernel concurrency testing using a learned coverage predictor

USAGE: snowcat <command> [options]

COMMANDS:
  kernel    generate a synthetic kernel and print its inventory
              --version 5.12|5.13|6.1   --seed N   --stats   --bugs
  disasm    print a function's pseudo-assembly
              --version V --func NAME [--seed N]
  fuzz      run the coverage-feedback STI fuzzer
              --version V [--iterations N] [--seed N]
  collect   build a labelled CT-graph dataset and write it (binary .scds)
              --version V --out FILE [--ctis N] [--interleavings K] [--seed N]
  train     run the robust training pipeline and write a binary model
            checkpoint (anomaly guards with rollback, epoch checkpoints,
            shard quarantine; resumes bit-identically after a kill)
              --version V --out FILE [--ctis N] [--epochs E] [--seed N]
              [--threads T] [--data S1,S2,...] [--checkpoint FILE]
              [--checkpoint-every K] [--resume] [--patience P]
              [--fault-plan SPEC] [--stall-ms MS] [--report FILE]
              [--events DIR] [--export-json FILE] [--flow]
  explore   compare PCT vs MLPCT-S1 on a CTI stream with a trained model
              --version V --model FILE [--ctis N] [--budget B] [--seed N]
  razzer    reproduce planted races with Razzer / -Relax / -PIC (the -PIC
            path vetoes statically impossible candidates with the
            alias-refined may-race prefilter; --coarse uses the
            alias-blind set, --events records prefilter counters)
              --version V --model FILE [--schedules N] [--seed N]
              [--coarse] [--events DIR]
  analyze   run the static concurrency analyzer (locksets, value-flow alias
            classes, lints, refined may-race; --baseline gates precision
            against an older report: pair count must not grow and every
            previously covered planted bug must stay covered)
              --version V [--seed N] [--out FILE] [--self-check]
              [--coarse] [--baseline OLD.json]
  campaign  run a supervised testing campaign (watchdog, checkpoint/resume,
            fault injection)
              --version V [--seed N] [--ctis N] [--budget B]
              [--explorer pct|s1|s2|s3] [--model FILE]
              [--checkpoint FILE] [--checkpoint-every K] [--resume FILE]
              [--fuel-budget STEPS] [--fault-plan SPEC] [--max-hours H]
              [--stall-ms MS] [--stop-after N] [--report FILE]
              [--events DIR] [--fail-on-hung]
              [--serve] [--refresh PAIRS] [--refresh-epochs E] [--refresh-max R]
              [--refresh-gate PAIRS]
  fleet     shard a supervised campaign across N workers with lease-based
            work stealing (a worker whose heartbeat misses its deadline is
            declared dead and its shard re-executed from its last shard
            checkpoint) and a crash-consistent fleet checkpoint (SCFC);
            `--resume` after killing any worker — or the whole process —
            finishes with a merged report byte-identical to an
            uninterrupted run, and `--workers 1` is bit-identical to
            `snowcat campaign`. `--transport process` runs each shard
            lease in a `snowcat fleet-worker` subprocess (isolation from
            worker segfaults/OOM), with spawn/handshake timeouts,
            exponential respawn backoff, a crash-loop breaker, and
            kill-on-drop orphan reaping; when live workers drop below
            `--min-workers` the fleet checkpoints and exits resumable
            with code 8
              --version V --dir DIR [--workers N] [--seed N] [--ctis N]
              [--budget B] [--explorer pct|s1|s2|s3] [--model FILE]
              [--resume] [--lease-ms MS] [--max-steals K]
              [--checkpoint-every K] [--fault-plan SPEC] [--stall-ms MS]
              [--transport thread|process] [--min-workers N]
              [--spawn-timeout-ms MS] [--respawn-backoff-ms MS]
              [--report FILE] [--events DIR] [--serve]
  serve     run the inference server over a synthetic request stream from
            concurrent clients and report throughput/latency (each request
            predicts on its client's thread, bit-identical to direct
            inference; --workers fans a request out over W threads; --swap
            exercises the atomic hot-swap path mid-stream)
              --version V --model FILE [--requests N] [--request-size K]
              [--clients C] [--workers W] [--swap] [--seed N]
              [--events DIR] [--out FILE]
  status    summarize a campaign/training directory: tail the structured
            event stream (events.jsonl) and the latest checkpoint into a
            one-screen progress report
              snowcat status DIR [--json] [--follow] [--self-check]

EXIT CODES:
  0 success   1 I/O or parse error      2 bad usage / config
  3 CT hung   4 checkpoint corrupt
  7 training diverged (anomaly persisted through every salted retry)
  8 fleet failed or degraded (every worker lost / lease expired / live
    workers below --min-workers; the SCFC checkpoint stays on disk —
    rerun with --resume)
";

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.command.as_deref() {
        Some("kernel") => cmds::kernel(&args),
        Some("disasm") => cmds::disasm(&args),
        Some("fuzz") => cmds::fuzz(&args),
        Some("collect") => cmds::collect(&args),
        Some("train") => cmds::train(&args),
        Some("explore") => cmds::explore(&args),
        Some("razzer") => cmds::razzer(&args),
        Some("analyze") => cmds::analyze(&args),
        Some("campaign") => cmds::campaign(&args),
        Some("fleet") => cmds::fleet(&args),
        // Hidden: the process-transport worker side of `snowcat fleet`.
        // Speaks the SCWP wire protocol on stdin/stdout; not for humans.
        Some("fleet-worker") => cmds::fleet_worker(&args),
        Some("serve") => cmds::serve(&args),
        Some("status") => cmds::status(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        // Typed Snowcat errors carry distinct exit codes (hung CT = 3,
        // corrupt checkpoint = 4, diverged training = 7, …); an unknown
        // option or an unparsable value is bad usage (2); anything else is
        // a generic failure.
        let code = if e.is::<args::ArgError>() {
            2
        } else {
            e.downcast_ref::<snowcat_core::SnowcatError>()
                .map(snowcat_core::SnowcatError::exit_code)
                .unwrap_or(1)
        };
        std::process::exit(code);
    }
}
