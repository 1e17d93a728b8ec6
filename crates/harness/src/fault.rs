//! Deterministic fault injection for recovery-path testing.
//!
//! A [`FaultPlan`] describes, reproducibly, which faults to inject where:
//! executor hangs at chosen stream positions and checkpoint corruption at
//! chosen write ordinals. Plans parse from a compact spec string so the CLI
//! can take them on the command line (`--fault-plan "hang@3x2,ckpt@2:flip"`),
//! and an empty plan injects nothing — the supervised campaign is then the
//! plain paper campaign.
//!
//! Fleet runs extend the grammar with per-worker faults interpreted by the
//! [`crate::fleet`] coordinator: `kill-worker@K` (worker K dies after its
//! first shard checkpoint), `stall-worker@K` (worker K goes silent until
//! its lease is revoked), and `corrupt-worker-ckpt@K` (worker K corrupts
//! its first shard-checkpoint write, then dies).

use snowcat_core::SnowcatError;

/// How a checkpoint write is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Flip one byte in the middle of the written file.
    Flip,
    /// Truncate the file to half its length.
    Truncate,
}

/// Force the first `attempts` exploration attempts at stream position
/// `position` to run with a starvation fuel budget, so they classify hung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HangFault {
    /// Stream position (CTI index) the fault applies to.
    pub position: usize,
    /// How many consecutive attempts at that position hang.
    pub attempts: u32,
}

/// Corrupt the `ordinal`-th checkpoint write (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointFault {
    /// Which checkpoint write to corrupt (1 = first write).
    pub ordinal: u64,
    /// How to corrupt it.
    pub kind: CorruptionKind,
}

/// A reproducible fault-injection plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Executor-hang faults by stream position.
    pub hangs: Vec<HangFault>,
    /// Checkpoint-corruption faults by write ordinal.
    pub checkpoints: Vec<CheckpointFault>,
    /// Fleet worker slots that die right after their first shard checkpoint.
    pub kill_workers: Vec<usize>,
    /// Fleet worker slots that go silent (stop heartbeating) after their
    /// first shard checkpoint and only exit once their lease is revoked.
    pub stall_workers: Vec<usize>,
    /// Fleet worker slots whose first shard-checkpoint write is corrupted
    /// on disk before the worker dies.
    pub corrupt_worker_ckpts: Vec<usize>,
    /// Fleet shards that kill *every* worker leasing them before any
    /// progress is made — a reproducible crash loop the coordinator must
    /// break by quarantining the shard within `max_steals` generations.
    pub poison_shards: Vec<usize>,
}

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.hangs.is_empty()
            && self.checkpoints.is_empty()
            && self.kill_workers.is_empty()
            && self.stall_workers.is_empty()
            && self.corrupt_worker_ckpts.is_empty()
            && self.poison_shards.is_empty()
    }

    /// How many attempts at stream position `position` should hang.
    pub fn hang_attempts_at(&self, position: usize) -> u32 {
        self.hangs.iter().filter(|h| h.position == position).map(|h| h.attempts).sum()
    }

    /// The corruption to apply to the `ordinal`-th checkpoint write, if any.
    pub fn checkpoint_fault(&self, ordinal: u64) -> Option<CorruptionKind> {
        self.checkpoints.iter().find(|c| c.ordinal == ordinal).map(|c| c.kind)
    }

    /// Parse a comma-separated spec string. Grammar (whitespace-free):
    ///
    /// * `hang@I` / `hang@IxN` — hang the first 1 (resp. N) attempts at
    ///   stream position I,
    /// * `ckpt@K:flip` / `ckpt@K:trunc` — corrupt the Kth checkpoint write,
    /// * `kill-worker@K` — kill fleet worker K after its first shard
    ///   checkpoint,
    /// * `stall-worker@K` — fleet worker K stops heartbeating after its
    ///   first shard checkpoint (a straggler: its lease must expire),
    /// * `corrupt-worker-ckpt@K` — fleet worker K corrupts its first shard
    ///   checkpoint write, then dies,
    /// * `poison-shard@S` — every worker leasing fleet shard S dies before
    ///   making progress (a crash loop the coordinator must quarantine).
    ///
    /// The empty string parses to the empty plan. Unknown directives and
    /// malformed tokens are rejected with [`SnowcatError::FaultPlan`];
    /// positions are range-checked separately by [`FaultPlan::validate`]
    /// once the run's stream length and worker count are known.
    pub fn parse(spec: &str) -> Result<Self, SnowcatError> {
        let bad = |token: &str, detail: String| SnowcatError::FaultPlan {
            token: token.to_owned(),
            detail,
        };
        let mut plan = FaultPlan::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, rest) =
                token.split_once('@').ok_or_else(|| bad(token, "missing '@'".into()))?;
            match kind {
                "hang" => {
                    let (pos, attempts) = match rest.split_once('x') {
                        Some((p, n)) => (
                            p.parse::<usize>().map_err(|_| bad(token, bad_num(p)))?,
                            n.parse::<u32>().map_err(|_| bad(token, bad_num(n)))?,
                        ),
                        None => (rest.parse::<usize>().map_err(|_| bad(token, bad_num(rest)))?, 1),
                    };
                    if attempts == 0 {
                        return Err(bad(token, "hang count must be ≥ 1".into()));
                    }
                    plan.hangs.push(HangFault { position: pos, attempts });
                }
                "ckpt" => {
                    let (ord, how) = rest
                        .split_once(':')
                        .ok_or_else(|| bad(token, "expected ckpt@K:flip|trunc".into()))?;
                    let ordinal = ord.parse::<u64>().map_err(|_| bad(token, bad_num(ord)))?;
                    if ordinal == 0 {
                        return Err(bad(token, "checkpoint ordinal is 1-based".into()));
                    }
                    let kind = match how {
                        "flip" => CorruptionKind::Flip,
                        "trunc" => CorruptionKind::Truncate,
                        other => return Err(bad(token, format!("unknown corruption '{other}'"))),
                    };
                    plan.checkpoints.push(CheckpointFault { ordinal, kind });
                }
                "kill-worker" => {
                    let i = rest.parse::<usize>().map_err(|_| bad(token, bad_num(rest)))?;
                    plan.kill_workers.push(i);
                }
                "stall-worker" => {
                    let i = rest.parse::<usize>().map_err(|_| bad(token, bad_num(rest)))?;
                    plan.stall_workers.push(i);
                }
                "corrupt-worker-ckpt" => {
                    let i = rest.parse::<usize>().map_err(|_| bad(token, bad_num(rest)))?;
                    plan.corrupt_worker_ckpts.push(i);
                }
                "poison-shard" => {
                    let i = rest.parse::<usize>().map_err(|_| bad(token, bad_num(rest)))?;
                    plan.poison_shards.push(i);
                }
                other => return Err(bad(token, format!("unknown fault kind '{other}'"))),
            }
        }
        Ok(plan)
    }

    /// Range-check the plan against a concrete run: hang positions must lie
    /// inside the `stream_len`-position stream, and worker-slot / shard
    /// directives must name a slot (resp. shard) below `workers`. A
    /// directive outside the run would previously be *silently ignored* —
    /// the fault never fired and the recovery path it was meant to prove
    /// went unexercised — so out-of-range entries are now a typed
    /// [`SnowcatError::FaultPlan`]. Campaign callers (no fleet) pass
    /// `workers = 0` to skip the fleet checks only when no fleet directive
    /// is present; a fleet directive with `workers = 0` is itself an error.
    pub fn validate(&self, stream_len: usize, workers: usize) -> Result<(), SnowcatError> {
        let bad = |token: String, detail: String| SnowcatError::FaultPlan { token, detail };
        for h in &self.hangs {
            if h.position >= stream_len {
                return Err(bad(
                    format!("hang@{}", h.position),
                    format!("position {} is outside the {stream_len}-CTI stream", h.position),
                ));
            }
        }
        let slot_sets: [(&str, &[usize]); 4] = [
            ("kill-worker", &self.kill_workers),
            ("stall-worker", &self.stall_workers),
            ("corrupt-worker-ckpt", &self.corrupt_worker_ckpts),
            ("poison-shard", &self.poison_shards),
        ];
        for (name, slots) in slot_sets {
            for &slot in slots {
                if slot >= workers {
                    let what = if name == "poison-shard" { "shard" } else { "worker slot" };
                    return Err(bad(
                        format!("{name}@{slot}"),
                        format!(
                            "{what} {slot} does not exist in a {workers}-worker fleet \
                             (the fault would be silently ignored)"
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

fn bad_num(field: &str) -> String {
    format!("'{field}' is not a valid number")
}

/// Corrupt a serialized blob per `kind` (pure function, for checkpoint
/// fault injection and tests).
pub fn corrupt(bytes: &[u8], kind: CorruptionKind) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match kind {
        CorruptionKind::Flip => {
            if !out.is_empty() {
                let mid = out.len() / 2;
                out[mid] ^= 0x20;
            }
            out
        }
        CorruptionKind::Truncate => {
            out.truncate(out.len() / 2);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn full_grammar_parses() {
        let plan = FaultPlan::parse(
            "hang@3x2,hang@7,ckpt@2:flip,ckpt@4:trunc,\
             kill-worker@1,stall-worker@2,corrupt-worker-ckpt@0,poison-shard@3",
        )
        .unwrap();
        assert_eq!(plan.hang_attempts_at(3), 2);
        assert_eq!(plan.hang_attempts_at(7), 1);
        assert_eq!(plan.hang_attempts_at(0), 0);
        assert_eq!(plan.checkpoint_fault(2), Some(CorruptionKind::Flip));
        assert_eq!(plan.checkpoint_fault(4), Some(CorruptionKind::Truncate));
        assert_eq!(plan.checkpoint_fault(1), None);
        assert_eq!(plan.kill_workers, vec![1]);
        assert_eq!(plan.stall_workers, vec![2]);
        assert_eq!(plan.corrupt_worker_ckpts, vec![0]);
        assert_eq!(plan.poison_shards, vec![3]);
        assert!(!plan.is_empty());
    }

    #[test]
    fn malformed_specs_are_rejected_with_named_error() {
        // (spec, offending token, detail fragment)
        let table: &[(&str, &str, &str)] = &[
            ("hang", "hang", "missing '@'"),
            ("hang@", "hang@", "not a valid number"),
            ("hang@x", "hang@x", "not a valid number"),
            ("hang@1x0", "hang@1x0", "hang count must be ≥ 1"),
            ("ckpt@1", "ckpt@1", "expected ckpt@K:flip|trunc"),
            ("ckpt@0:flip", "ckpt@0:flip", "checkpoint ordinal is 1-based"),
            ("ckpt@1:melt", "ckpt@1:melt", "unknown corruption 'melt'"),
            ("wobble@3", "wobble@3", "unknown fault kind 'wobble'"),
            ("pred@5", "pred@5", "unknown fault kind 'pred'"),
            ("kill-worker@", "kill-worker@", "not a valid number"),
            ("stall-worker@x", "stall-worker@x", "not a valid number"),
            ("corrupt-worker-ckpt@-1", "corrupt-worker-ckpt@-1", "not a valid number"),
            ("poison-shard@", "poison-shard@", "not a valid number"),
            ("poison-worker@1", "poison-worker@1", "unknown fault kind 'poison-worker'"),
            ("panic@1", "panic@1", "unknown fault kind 'panic'"),
        ];
        for &(spec, token, fragment) in table {
            match FaultPlan::parse(spec) {
                Err(SnowcatError::FaultPlan { token: t, detail }) => {
                    assert_eq!(t, token, "wrong token for '{spec}'");
                    assert!(
                        detail.contains(fragment),
                        "'{spec}': detail '{detail}' should contain '{fragment}'"
                    );
                }
                other => panic!("'{spec}' should fail with FaultPlan, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_out_of_range_positions() {
        // (spec, stream_len, workers, offending token, detail fragment)
        let table: &[(&str, usize, usize, &str, &str)] = &[
            ("hang@16", 16, 2, "hang@16", "outside the 16-CTI stream"),
            ("hang@99x3", 16, 2, "hang@99", "outside the 16-CTI stream"),
            ("kill-worker@2", 16, 2, "kill-worker@2", "worker slot 2 does not exist"),
            ("stall-worker@5", 16, 2, "stall-worker@5", "worker slot 5 does not exist"),
            (
                "corrupt-worker-ckpt@3",
                16,
                3,
                "corrupt-worker-ckpt@3",
                "worker slot 3 does not exist",
            ),
            ("poison-shard@4", 16, 4, "poison-shard@4", "shard 4 does not exist"),
            // A fleet directive in a no-fleet context (workers = 0) is an error.
            ("kill-worker@0", 16, 0, "kill-worker@0", "worker slot 0 does not exist"),
        ];
        for &(spec, stream_len, workers, token, fragment) in table {
            let plan = FaultPlan::parse(spec).unwrap();
            match plan.validate(stream_len, workers) {
                Err(SnowcatError::FaultPlan { token: t, detail }) => {
                    assert_eq!(t, token, "wrong token for '{spec}'");
                    assert!(
                        detail.contains(fragment),
                        "'{spec}': detail '{detail}' should contain '{fragment}'"
                    );
                }
                other => panic!("'{spec}' should fail validate, got {other:?}"),
            }
        }
        // In-range plans pass.
        let plan = FaultPlan::parse("hang@15,kill-worker@1,poison-shard@0").unwrap();
        plan.validate(16, 2).unwrap();
        // Empty plans validate in any context.
        FaultPlan::default().validate(0, 0).unwrap();
    }

    #[test]
    fn corruption_changes_bytes() {
        let original = vec![7u8; 64];
        let flipped = corrupt(&original, CorruptionKind::Flip);
        assert_eq!(flipped.len(), original.len());
        assert_ne!(flipped, original);
        let torn = corrupt(&original, CorruptionKind::Truncate);
        assert_eq!(torn.len(), 32);
    }
}
