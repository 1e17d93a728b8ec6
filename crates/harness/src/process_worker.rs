//! Process transport for the fleet: a [`FleetWorker`] that runs each shard
//! lease in a `snowcat fleet-worker` subprocess.
//!
//! Process isolation is the robustness tentpole the thread fleet cannot
//! provide: a worker that segfaults, OOMs, or wedges in native code kills
//! *its process*, not the coordinator. The parent side ([`ProcessWorker`])
//! spawns one subprocess per shard lease, performs a handshake with a
//! spawn timeout (retrying with exponential backoff plus deterministic
//! jitter), ships the [`WireAssignment`] over stdin, and replays `Beat`
//! frames onto the coordinator-side [`LeaseSignal`] so the existing
//! monitor/steal/quarantine machinery works unchanged. The child side
//! ([`serve_worker`]) rebuilds the assignment around a local lease, pumps
//! heartbeats to stdout, and self-reaps when the pipe breaks — a
//! SIGKILLed coordinator leaves no orphans because every child's next
//! heartbeat write fails with `EPIPE` and exits the process.
//!
//! Every child is additionally held by a kill-on-drop `ChildGuard`, so
//! a *normally* exiting coordinator (including panics unwinding through
//! `run_fleet`) reaps its children synchronously.

use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use parking_lot::Mutex;
use snowcat_core::SnowcatError;
use snowcat_events::FleetEvent;

use crate::fleet::{FleetConfig, FleetWorker, LeaseSignal, ShardAssignment};
use crate::supervisor::SupervisedResult;
use crate::transport::{read_frame, write_frame, WireAssignment, WireMsg};

/// How a `snowcat fleet-worker` subprocess is launched. The args must
/// rebuild the exact same kernel/corpus/stream as the coordinator — the
/// handshake cross-checks label, seed, and stream length and refuses a
/// mismatched worker rather than letting it corrupt shard checkpoints.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Executable to spawn (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// Full argument list, starting with the `fleet-worker` subcommand.
    pub args: Vec<String>,
}

/// Kill-on-drop guard: a child that is still running when the guard drops
/// (error return, panic unwind, coordinator shutdown) is killed and
/// reaped so no `fleet-worker` process outlives its coordinator.
struct ChildGuard {
    child: Option<Child>,
}

impl ChildGuard {
    fn new(child: Child) -> Self {
        Self { child: Some(child) }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map(|c| c.id()).unwrap_or(0)
    }

    /// Collect the child's exit status: wait briefly for a voluntary exit,
    /// then kill. Always reaps (no zombies).
    fn reap(&mut self) -> Option<ExitStatus> {
        let mut child = self.child.take()?;
        for _ in 0..40 {
            match child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) => std::thread::sleep(Duration::from_millis(25)),
                Err(_) => break,
            }
        }
        let _ = child.kill();
        child.wait().ok()
    }

    /// Kill immediately and reap.
    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Deterministic backoff with jitter for respawn attempt `attempt` of
/// worker `slot`: exponential in the attempt number, capped, plus a
/// slot/attempt-keyed jitter so a fleet of workers respawning after a
/// common-cause failure does not thunder back in lockstep.
pub fn respawn_backoff(base_ms: u64, slot: usize, attempt: u64) -> u64 {
    let base = base_ms.max(1);
    let exp = base.saturating_mul(1u64 << attempt.min(6)).min(5_000);
    let hash = (slot as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(attempt)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        >> 33;
    exp + hash % (exp / 4 + 1)
}

/// The subprocess [`FleetWorker`]: one `snowcat fleet-worker` child per
/// shard lease. Respawn-per-lease keeps the wire protocol stateless — a
/// dead worker is a clean EOF, and the coordinator's ordinary
/// steal-from-checkpoint path handles everything else.
pub struct ProcessWorker<'a> {
    /// How to launch a worker subprocess.
    pub command: WorkerCommand,
    /// Fleet knobs (spawn timeout, respawn backoff, event sink).
    pub cfg: &'a FleetConfig,
    /// Explorer label the fleet was launched for (handshake check).
    pub label: String,
    /// Base campaign seed (handshake check).
    pub seed: u64,
    /// CT-candidate stream length (handshake check).
    pub stream_len: usize,
}

enum Incoming {
    Msg(WireMsg),
    /// Reader thread terminated: clean EOF (`None`) or stream error.
    Gone(Option<std::io::Error>),
}

impl ProcessWorker<'_> {
    fn sink(&self) -> Option<&snowcat_events::EventSink> {
        self.cfg.events.as_ref()
    }

    fn spawn_child(&self) -> std::io::Result<(ChildGuard, ChildStdin, mpsc::Receiver<Incoming>)> {
        let mut child = Command::new(&self.command.program)
            .args(&self.command.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin piped");
        let mut stdout = child.stdout.take().expect("stdout piped");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || loop {
            match read_frame(&mut stdout) {
                Ok(Some(msg)) => {
                    if tx.send(Incoming::Msg(msg)).is_err() {
                        return; // Parent lost interest; child will be reaped.
                    }
                }
                Ok(None) => {
                    let _ = tx.send(Incoming::Gone(None));
                    return;
                }
                Err(e) => {
                    let _ = tx.send(Incoming::Gone(Some(e)));
                    return;
                }
            }
        });
        Ok((ChildGuard::new(child), stdin, rx))
    }

    /// Spawn a child and complete the handshake, retrying with backoff.
    /// Returns the ready child or the last failure after the attempt
    /// budget (`max_steals + 1` tries) is exhausted.
    fn spawn_ready(
        &self,
        asg: &ShardAssignment,
    ) -> Result<(ChildGuard, ChildStdin, mpsc::Receiver<Incoming>), SnowcatError> {
        let timeout = Duration::from_millis(self.cfg.spawn_timeout_ms.max(1));
        let attempts = self.cfg.max_steals + 1;
        let mut last_failure = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                let backoff_ms = respawn_backoff(self.cfg.respawn_backoff_ms, asg.worker, attempt);
                if let Some(sink) = self.sink() {
                    sink.fleet(FleetEvent::WorkerRespawned {
                        worker: asg.worker as u64,
                        attempt,
                        backoff_ms,
                    });
                }
                std::thread::sleep(Duration::from_millis(backoff_ms));
            }
            if asg.lease.is_revoked() {
                return Err(SnowcatError::LeaseExpired {
                    shard: asg.shard,
                    worker: asg.worker,
                    deadline_ms: self.cfg.lease_ms,
                });
            }
            let failure = match self.spawn_child() {
                Err(e) => format!("spawn failed: {e}"),
                Ok((mut guard, stdin, rx)) => {
                    if let Some(sink) = self.sink() {
                        sink.fleet(FleetEvent::WorkerSpawned {
                            worker: asg.worker as u64,
                            pid: guard.pid() as u64,
                            attempt,
                        });
                    }
                    match rx.recv_timeout(timeout) {
                        Ok(Incoming::Msg(WireMsg::Ready { label, seed, stream_len, pid: _ })) => {
                            if label != self.label
                                || seed != self.seed
                                || stream_len != self.stream_len
                            {
                                // An identity mismatch is a configuration
                                // bug, not a flaky worker: respawning the
                                // same command cannot fix it.
                                return Err(SnowcatError::Config(format!(
                                    "fleet-worker handshake mismatch: worker rebuilt \
                                     ('{label}', seed {seed:#x}, {stream_len} CTIs), \
                                     coordinator expects ('{}', seed {:#x}, {} CTIs)",
                                    self.label, self.seed, self.stream_len
                                )));
                            }
                            return Ok((guard, stdin, rx));
                        }
                        Ok(Incoming::Msg(other)) => {
                            format!("handshake expected Ready, got {other:?}")
                        }
                        Ok(Incoming::Gone(err)) => {
                            let status = guard.reap();
                            format!(
                                "worker exited during handshake ({}){}",
                                status.map(|s| s.to_string()).unwrap_or_else(|| "unknown".into()),
                                err.map(|e| format!(": {e}")).unwrap_or_default()
                            )
                        }
                        Err(_) => {
                            format!("handshake timed out after {}ms", self.cfg.spawn_timeout_ms)
                        }
                    }
                }
            };
            if let Some(sink) = self.sink() {
                sink.fleet(FleetEvent::WorkerHandshakeFailed {
                    worker: asg.worker as u64,
                    attempt,
                    detail: failure.clone(),
                });
            }
            last_failure = failure;
        }
        Err(SnowcatError::WorkerLost {
            worker: asg.worker,
            shard: asg.shard,
            detail: format!("no worker after {attempts} spawn attempt(s): {last_failure}"),
        })
    }
}

impl FleetWorker for ProcessWorker<'_> {
    fn run_shard(&self, asg: &ShardAssignment) -> Result<SupervisedResult, SnowcatError> {
        let (mut guard, mut stdin, rx) = self.spawn_ready(asg)?;
        let run = WireMsg::Run(Box::new(WireAssignment::from_assignment(asg)));
        if let Err(e) = write_frame(&mut stdin, &run) {
            let status = guard.reap();
            return Err(SnowcatError::WorkerLost {
                worker: asg.worker,
                shard: asg.shard,
                detail: format!(
                    "failed to deliver assignment ({e}); worker exited ({})",
                    status.map(|s| s.to_string()).unwrap_or_else(|| "unknown".into())
                ),
            });
        }
        // Relay loop: replay cumulative heartbeats onto the coordinator's
        // lease, watch for revocation, and wait for Done/Failed/EOF.
        let mut beats_relayed = 0u64;
        loop {
            if asg.lease.is_revoked() {
                // The monitor already re-queued the shard; all that is
                // left is making sure the deposed worker stops running.
                guard.kill();
                return Err(SnowcatError::LeaseExpired {
                    shard: asg.shard,
                    worker: asg.worker,
                    deadline_ms: self.cfg.lease_ms,
                });
            }
            match rx.recv_timeout(Duration::from_millis(10)) {
                Ok(Incoming::Msg(WireMsg::Beat { beats })) => {
                    while beats_relayed < beats {
                        asg.lease.beat();
                        beats_relayed += 1;
                    }
                }
                Ok(Incoming::Msg(WireMsg::Done(result))) => {
                    guard.reap();
                    return Ok(*result);
                }
                Ok(Incoming::Msg(WireMsg::Failed { detail })) => {
                    let status = guard.reap();
                    return Err(SnowcatError::WorkerLost {
                        worker: asg.worker,
                        shard: asg.shard,
                        detail: format!(
                            "worker reported failure: {detail} (exit {})",
                            status.map(|s| s.to_string()).unwrap_or_else(|| "unknown".into())
                        ),
                    });
                }
                Ok(Incoming::Msg(other)) => {
                    guard.kill();
                    return Err(SnowcatError::WorkerLost {
                        worker: asg.worker,
                        shard: asg.shard,
                        detail: format!("protocol violation: unexpected {other:?}"),
                    });
                }
                Ok(Incoming::Gone(err)) => {
                    // The pipe died: SIGKILL, segfault, OOM kill, or stream
                    // corruption. Classify by heartbeat position so the
                    // operator can tell a poison shard (dies before any
                    // progress, every generation) from a flaky worker.
                    let status = guard.reap();
                    let class = if beats_relayed == 0 {
                        "no progress made — possible poison shard"
                    } else {
                        "progress persisted — likely flaky worker"
                    };
                    return Err(SnowcatError::WorkerLost {
                        worker: asg.worker,
                        shard: asg.shard,
                        detail: format!(
                            "worker process died (exit {}{}) after {beats_relayed} heartbeat(s); {class}",
                            status.map(|s| s.to_string()).unwrap_or_else(|| "unknown".into()),
                            err.map(|e| format!("; stream: {e}")).unwrap_or_default()
                        ),
                    });
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    let status = guard.reap();
                    return Err(SnowcatError::WorkerLost {
                        worker: asg.worker,
                        shard: asg.shard,
                        detail: format!(
                            "worker stream closed without Done (exit {})",
                            status.map(|s| s.to_string()).unwrap_or_else(|| "unknown".into())
                        ),
                    });
                }
            }
        }
    }
}

/// Child-side serve loop for `snowcat fleet-worker`: handshake on stdout,
/// one `Run` from stdin, heartbeats pumped while the shard executes via
/// `worker` (normally a [`ThreadWorker`](crate::ThreadWorker) over the
/// locally rebuilt kernel/corpus/stream), then a final `Done`/`Failed`.
///
/// Heartbeat writes double as an orphan tripwire: Rust ignores `SIGPIPE`,
/// so after the coordinator dies (even by SIGKILL) the next `Beat` write
/// fails with a broken pipe and the pump exits the process — no
/// `fleet-worker` survives its coordinator for more than one pump tick.
pub fn serve_worker(
    worker: &dyn FleetWorker,
    label: &str,
    seed: u64,
    stream_len: usize,
    lease_ms: u64,
) -> Result<(), SnowcatError> {
    let io_err = |detail: String| SnowcatError::Config(format!("fleet-worker wire: {detail}"));
    let stdout = std::sync::Arc::new(Mutex::new(std::io::stdout()));
    {
        let mut out = stdout.lock();
        write_frame(
            &mut *out,
            &WireMsg::Ready { label: label.to_owned(), seed, stream_len, pid: std::process::id() },
        )
        .map_err(|e| io_err(format!("handshake write failed: {e}")))?;
    }
    let mut stdin = std::io::stdin();
    let wire = match read_frame(&mut stdin) {
        Ok(Some(WireMsg::Run(wire))) => *wire,
        // Coordinator closed our stdin without an assignment (it found no
        // pending shard, or died between spawn and Run): a clean no-op.
        Ok(None) => return Ok(()),
        Ok(Some(other)) => return Err(io_err(format!("expected Run, got {other:?}"))),
        Err(e) => return Err(io_err(format!("failed to read assignment: {e}"))),
    };
    let lease = LeaseSignal::new();
    let asg = wire.into_assignment(lease.clone());
    let done = std::sync::Arc::new(AtomicBool::new(false));
    let pump = {
        let stdout = std::sync::Arc::clone(&stdout);
        let lease = lease.clone();
        let done = std::sync::Arc::clone(&done);
        let tick = Duration::from_millis((lease_ms / 8).clamp(2, 50));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                let mut out = stdout.lock();
                if write_frame(&mut *out, &WireMsg::Beat { beats: lease.beats() }).is_err() {
                    // Coordinator is gone; do not outlive it.
                    drop(out);
                    std::process::exit(1);
                }
            }
        })
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker.run_shard(&asg)))
        .unwrap_or_else(|_| {
            Err(SnowcatError::WorkerLost {
                worker: asg.worker,
                shard: asg.shard,
                detail: "fleet-worker panicked mid-shard".into(),
            })
        });
    done.store(true, Ordering::Relaxed);
    let _ = pump.join();
    let mut out = stdout.lock();
    match result {
        Ok(res) => {
            // Flush one final cumulative beat so the parent's relay sees
            // every position before Done, then hand the result over.
            let _ = write_frame(&mut *out, &WireMsg::Beat { beats: lease.beats() });
            write_frame(&mut *out, &WireMsg::Done(Box::new(res)))
                .map_err(|e| io_err(format!("failed to report completion: {e}")))?;
            Ok(())
        }
        Err(e) => {
            let _ = write_frame(&mut *out, &WireMsg::Failed { detail: e.to_string() });
            drop(out);
            // Propagate so the process exits with the error's class code.
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let b0 = respawn_backoff(100, 0, 1);
        let b1 = respawn_backoff(100, 0, 2);
        let b2 = respawn_backoff(100, 0, 3);
        assert!(b0 < b1 && b1 < b2, "backoff must grow: {b0} {b1} {b2}");
        // Deterministic: same (slot, attempt) → same delay.
        assert_eq!(b0, respawn_backoff(100, 0, 1));
        // Jittered: different slots spread out.
        assert_ne!(respawn_backoff(100, 0, 1), respawn_backoff(100, 1, 1));
        // Capped: huge attempts don't sleep forever (5s cap + 25% jitter).
        assert!(respawn_backoff(100, 3, 60) <= 6_250);
        // Zero base is clamped, not a hang-free busy loop.
        assert!(respawn_backoff(0, 0, 1) >= 1);
    }

    #[test]
    fn child_guard_kills_on_drop() {
        let child = Command::new("sleep")
            .arg("30")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn sleep");
        let pid = child.id();
        drop(ChildGuard::new(child));
        // The process must be gone (kill+wait are synchronous in drop).
        let alive = std::path::Path::new(&format!("/proc/{pid}")).exists();
        assert!(!alive, "child {pid} must not outlive its guard");
    }

    #[test]
    fn child_guard_reap_collects_voluntary_exit() {
        let child = Command::new("true").spawn().expect("spawn true");
        let mut guard = ChildGuard::new(child);
        let status = guard.reap().expect("status");
        assert!(status.success());
    }
}
