//! Error handling for checkpoint and dataset persistence.
//!
//! The substrate crates return their own error types (`serde_json::Error`,
//! [`snowcat_corpus::DecodeError`]); this module folds them — together with
//! filesystem failures — into one [`SnowcatError`] so callers (notably the
//! CLI) can report a path-qualified message and exit non-zero instead of
//! panicking on a missing or corrupt file.

use snowcat_corpus::{
    decode_dataset, encode_dataset, frame_checksummed, unframe_checksummed, Dataset, DecodeError,
};
use snowcat_nn::Checkpoint;
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic of the Snowcat Model Checkpoint envelope (binary, bit-exact).
pub const MODEL_MAGIC: &[u8; 4] = b"SCMC";
/// Current model-checkpoint envelope version. v2 added the static-channel
/// fields (`static_channels` in the config, the `w_static` tensor between
/// the output head and the flow head).
pub const MODEL_VERSION: u16 = 2;
/// Oldest model-checkpoint envelope version still readable: the v1 layout
/// is no longer decoded, so a v1 frame is rejected as corrupt.
pub const MIN_MODEL_VERSION: u16 = 2;

/// Unified error for checkpoint/dataset load and save paths.
#[derive(Debug)]
pub enum SnowcatError {
    /// A filesystem read or write failed.
    Io {
        /// The file being read or written.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A file was read but its contents could not be parsed.
    Parse {
        /// The file being parsed.
        path: PathBuf,
        /// What the parser objected to.
        message: String,
    },
    /// A configuration was rejected before any I/O happened.
    Config(String),
    /// A concurrent test exhausted its fuel budget on every retry and was
    /// quarantined as hung.
    ExecutionHung {
        /// The (STI, STI) index pair identifying the concurrent test.
        cti: (usize, usize),
        /// The fuel (step) budget each attempt was given.
        fuel: u64,
    },
    /// A campaign checkpoint failed its integrity checks (bad magic, torn
    /// length framing, or checksum mismatch) and no fallback was usable.
    CheckpointCorrupt {
        /// The checkpoint file.
        path: PathBuf,
        /// What the integrity check objected to.
        detail: String,
    },
    /// Training hit an unrecoverable anomaly: an epoch kept producing
    /// NaN/Inf losses or gradients, a worker panic or a diverging loss
    /// through every salted retry.
    TrainingDiverged {
        /// The epoch that could not be completed.
        epoch: usize,
        /// Retries attempted after the first failure.
        retries: usize,
        /// The last anomaly observed.
        cause: String,
    },
    /// A fleet run could not produce a complete merged report: one or more
    /// shards ended in a non-recoverable state (quarantined after repeated
    /// lease losses, or failed outright).
    FleetFailed {
        /// Shards that never reached `Done`.
        failed_shards: Vec<usize>,
        /// Total shards in the fleet.
        shards: usize,
        /// Description of the first failure observed.
        detail: String,
    },
    /// A fleet worker died (panicked, was killed by fault injection, or
    /// exited without completing its shard) and the shard could not be
    /// recovered by work-stealing.
    WorkerLost {
        /// The worker slot that was lost.
        worker: usize,
        /// The shard the worker held when it died.
        shard: usize,
        /// What the coordinator observed.
        detail: String,
    },
    /// A shard lease expired: the holder missed its heartbeat deadline and
    /// the coordinator could not re-lease the shard to any worker.
    LeaseExpired {
        /// The shard whose lease expired.
        shard: usize,
        /// The worker slot that held the lease.
        worker: usize,
        /// The heartbeat deadline that was missed, in milliseconds.
        deadline_ms: u64,
    },
    /// The fleet degraded below its configured worker floor: live workers
    /// dropped under `--min-workers` (but not to zero), so the coordinator
    /// checkpointed and stopped rather than limping along. The SCFC stays
    /// on disk; rerun with `--resume`.
    FleetDegraded {
        /// Workers still alive when the fleet stopped.
        live_workers: usize,
        /// The configured worker floor.
        min_workers: usize,
        /// Where to resume from.
        detail: String,
    },
    /// A fault-plan spec was rejected: an unknown directive, a malformed
    /// token, or a position/slot outside the run it was applied to.
    FaultPlan {
        /// The offending token (or the whole spec when the token is unknown).
        token: String,
        /// What the parser or validator objected to.
        detail: String,
    },
}

impl fmt::Display for SnowcatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnowcatError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            SnowcatError::Parse { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            SnowcatError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SnowcatError::ExecutionHung { cti, fuel } => {
                write!(
                    f,
                    "concurrent test (sti {}, sti {}) hung: exhausted fuel budget of {fuel} \
                     steps on every attempt",
                    cti.0, cti.1
                )
            }
            SnowcatError::CheckpointCorrupt { path, detail } => {
                write!(f, "{}: checkpoint corrupt: {detail}", path.display())
            }
            SnowcatError::TrainingDiverged { epoch, retries, cause } => {
                write!(
                    f,
                    "training diverged at epoch {epoch} after {retries} salted retr{}: {cause}",
                    if *retries == 1 { "y" } else { "ies" }
                )
            }
            SnowcatError::FleetFailed { failed_shards, shards, detail } => {
                write!(
                    f,
                    "fleet failed: {}/{} shard(s) did not complete ({:?}): {detail}",
                    failed_shards.len(),
                    shards,
                    failed_shards
                )
            }
            SnowcatError::WorkerLost { worker, shard, detail } => {
                write!(f, "fleet worker {worker} lost while holding shard {shard}: {detail}")
            }
            SnowcatError::LeaseExpired { shard, worker, deadline_ms } => {
                write!(
                    f,
                    "lease on shard {shard} expired: worker {worker} missed its \
                     {deadline_ms}ms heartbeat deadline"
                )
            }
            SnowcatError::FleetDegraded { live_workers, min_workers, detail } => {
                write!(
                    f,
                    "fleet degraded: {live_workers} live worker(s) left, below the \
                     --min-workers floor of {min_workers}: {detail}"
                )
            }
            SnowcatError::FaultPlan { token, detail } => {
                write!(f, "invalid fault plan: '{token}': {detail}")
            }
        }
    }
}

impl SnowcatError {
    /// Stable, documented process exit code for each failure class (the CLI
    /// maps errors through this so scripts can distinguish fault kinds).
    /// Codes 5 and 6 are retired (they belonged to a removed parallel-runner
    /// error and a removed predictor-degradation error) and are not reused.
    pub fn exit_code(&self) -> i32 {
        match self {
            SnowcatError::Io { .. } | SnowcatError::Parse { .. } => 1,
            SnowcatError::Config(_) | SnowcatError::FaultPlan { .. } => 2,
            SnowcatError::ExecutionHung { .. } => 3,
            SnowcatError::CheckpointCorrupt { .. } => 4,
            SnowcatError::TrainingDiverged { .. } => 7,
            SnowcatError::FleetFailed { .. }
            | SnowcatError::WorkerLost { .. }
            | SnowcatError::LeaseExpired { .. }
            | SnowcatError::FleetDegraded { .. } => 8,
        }
    }
}

impl std::error::Error for SnowcatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnowcatError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Serialize a PIC checkpoint into its checksummed SCMC envelope.
pub fn encode_model_checkpoint_framed(ck: &Checkpoint) -> Vec<u8> {
    let payload = snowcat_nn::encode_model_checkpoint(ck);
    frame_checksummed(MODEL_MAGIC, MODEL_VERSION, &payload).to_vec()
}

/// Decode an SCMC envelope, verifying magic, version, length and checksum.
pub fn decode_model_checkpoint_framed(
    path: &Path,
    bytes: &[u8],
) -> Result<Checkpoint, SnowcatError> {
    let corrupt =
        |detail: String| SnowcatError::CheckpointCorrupt { path: path.to_owned(), detail };
    let (_, payload) = unframe_checksummed(
        MODEL_MAGIC,
        MIN_MODEL_VERSION,
        MODEL_VERSION,
        bytes::Bytes::from(bytes.to_vec()),
    )
    .map_err(|e| match e {
        DecodeError::BadMagic => corrupt("not an SCMC model (a JSON export does not load)".into()),
        e => corrupt(e.to_string()),
    })?;
    snowcat_nn::decode_model_checkpoint(payload.as_slice())
        .map_err(|e| corrupt(format!("payload is not a model checkpoint: {e}")))
}

/// Load a PIC checkpoint from its binary SCMC file, the one format models
/// load from. Anything else, a [`save_checkpoint_json`] export included, is
/// [`SnowcatError::CheckpointCorrupt`].
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, SnowcatError> {
    let bytes =
        std::fs::read(path).map_err(|source| SnowcatError::Io { path: path.to_owned(), source })?;
    decode_model_checkpoint_framed(path, &bytes)
}

/// Save a PIC checkpoint in the binary SCMC format (bit-exact floats,
/// CRC-protected). Use [`save_checkpoint_json`] for an inspectable,
/// write-only export.
pub fn save_checkpoint(path: &Path, ck: &Checkpoint) -> Result<(), SnowcatError> {
    std::fs::write(path, encode_model_checkpoint_framed(ck))
        .map_err(|source| SnowcatError::Io { path: path.to_owned(), source })
}

/// Save a PIC checkpoint as JSON for human inspection. The export is
/// write-only ([`load_checkpoint`] reads SCMC alone) and *lossy* for
/// non-finite floats (they serialize as null).
pub fn save_checkpoint_json(path: &Path, ck: &Checkpoint) -> Result<(), SnowcatError> {
    let json = ck.to_json().map_err(|e| SnowcatError::Parse {
        path: path.to_owned(),
        message: format!("checkpoint serialization failed: {e}"),
    })?;
    std::fs::write(path, json).map_err(|source| SnowcatError::Io { path: path.to_owned(), source })
}

/// Decode dataset bytes as read from `path` — SCDS binary or JSON, sniffed
/// from the leading byte. Split out of [`load_dataset`] so callers that
/// need to intercept the raw bytes (fault injection, shard quarantine) can
/// reuse the exact decode path.
pub fn decode_dataset_auto(path: &Path, bytes: Vec<u8>) -> Result<Dataset, SnowcatError> {
    // JSON datasets start with '{' (possibly after whitespace); the SCDS
    // binary magic does not.
    let looks_json = bytes.iter().find(|b| !b.is_ascii_whitespace()) == Some(&b'{');
    if looks_json {
        let text = String::from_utf8(bytes).map_err(|e| SnowcatError::Parse {
            path: path.to_owned(),
            message: format!("not UTF-8 JSON: {e}"),
        })?;
        Dataset::from_json(&text).map_err(|e| SnowcatError::Parse {
            path: path.to_owned(),
            message: format!("not a dataset: {e}"),
        })
    } else {
        decode_dataset(bytes::Bytes::from(bytes)).map_err(|e| SnowcatError::Parse {
            path: path.to_owned(),
            message: format!("not an SCDS dataset: {e}"),
        })
    }
}

/// Load a dataset, accepting either the SCDS binary format or JSON (the
/// format is sniffed from the leading byte, so either output of
/// [`save_dataset`] round-trips).
pub fn load_dataset(path: &Path) -> Result<Dataset, SnowcatError> {
    let bytes =
        std::fs::read(path).map_err(|source| SnowcatError::Io { path: path.to_owned(), source })?;
    decode_dataset_auto(path, bytes)
}

/// Save a dataset in the SCDS binary format.
pub fn save_dataset(path: &Path, ds: &Dataset) -> Result<(), SnowcatError> {
    let bytes = encode_dataset(ds);
    std::fs::write(path, bytes.as_slice())
        .map_err(|source| SnowcatError::Io { path: path.to_owned(), source })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_nn::{PicConfig, PicModel};

    #[test]
    fn checkpoint_roundtrip_and_error_paths() {
        let dir = std::env::temp_dir().join("snowcat-error-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let model = PicModel::new(PicConfig { hidden: 4, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.5, "rt");
        let path = dir.join("ck.json");
        save_checkpoint(&path, &ck).unwrap();
        let back = load_checkpoint(&path).unwrap();
        assert_eq!(back.name, "rt");
        assert_eq!(back.threshold, 0.5);

        let missing = load_checkpoint(&dir.join("nope.json"));
        assert!(matches!(missing, Err(SnowcatError::Io { .. })));
        let msg = missing.unwrap_err().to_string();
        assert!(msg.contains("nope.json"), "error names the path: {msg}");

        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"not\": \"a checkpoint\"}").unwrap();
        let parse = load_checkpoint(&bad);
        assert!(matches!(parse, Err(SnowcatError::CheckpointCorrupt { .. })));
    }

    #[test]
    fn model_checkpoint_binary_is_authoritative_and_json_exports_do_not_load() {
        let dir = std::env::temp_dir().join("snowcat-error-tests-scmc");
        std::fs::create_dir_all(&dir).unwrap();
        let model = PicModel::new(PicConfig { hidden: 4, layers: 1, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.45, "scmc");

        // Binary round-trip is exact (full struct equality, not just name).
        let bin = dir.join("ck.scmc");
        save_checkpoint(&bin, &ck).unwrap();
        let raw = std::fs::read(&bin).unwrap();
        assert_eq!(&raw[..4], MODEL_MAGIC, "file leads with the SCMC magic");
        assert_eq!(load_checkpoint(&bin).unwrap(), ck);

        // A JSON export is write-only: loading it is a typed error that
        // names the file.
        let json = dir.join("ck.json");
        save_checkpoint_json(&json, &ck).unwrap();
        match load_checkpoint(&json) {
            Err(err @ SnowcatError::CheckpointCorrupt { .. }) => {
                assert!(err.to_string().contains("ck.json"), "error names the path: {err}");
            }
            other => panic!("a JSON export must not load, got {other:?}"),
        }

        // A flipped byte is detected by the CRC, not deserialized.
        let mut bad = raw.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        let bad_path = dir.join("ck-bad.scmc");
        std::fs::write(&bad_path, &bad).unwrap();
        assert!(matches!(load_checkpoint(&bad_path), Err(SnowcatError::CheckpointCorrupt { .. })));
    }

    #[test]
    fn v1_model_checkpoints_are_rejected_as_corrupt() {
        use snowcat_corpus::frame_checksummed;
        let dir = std::env::temp_dir().join("snowcat-error-tests-scmc-v1");
        std::fs::create_dir_all(&dir).unwrap();
        // Re-create a v1 payload byte-for-byte: the v1 config layout (no
        // static_channels) followed by the v1 parameter layout (no
        // w_static), framed with version 1. The v1 decoder is gone, so the
        // envelope's version check rejects it before the payload is read.
        let model = PicModel::new(PicConfig {
            hidden: 4,
            layers: 1,
            static_channels: 0,
            ..Default::default()
        });
        let ck = Checkpoint::new(&model, 0.5, "v1");
        let mut e = snowcat_nn::Enc::new();
        e.put_u32(ck.cfg.hidden as u32);
        e.put_u32(ck.cfg.layers as u32);
        e.put_u32(ck.cfg.vocab as u32);
        e.put_f32(ck.cfg.pos_weight);
        e.put_f32(ck.cfg.urb_weight);
        e.put_f32(ck.cfg.flow_weight);
        e.put_u64(ck.cfg.seed);
        for m in [
            &ck.params.tok_emb,
            &ck.params.type_emb,
            &ck.params.sched_emb,
            &ck.params.w_in,
            &ck.params.b_in,
        ] {
            e.put_mat(m);
        }
        e.put_u32(ck.params.layers.len() as u32);
        for layer in &ck.params.layers {
            e.put_mat(&layer.w_self);
            e.put_u32(layer.w_rel.len() as u32);
            for w in &layer.w_rel {
                e.put_mat(w);
            }
            e.put_mat(&layer.b);
        }
        e.put_mat(&ck.params.w_out);
        e.put_mat(&ck.params.b_out);
        e.put_mat(&ck.params.w_flow);
        e.put_mat(&ck.params.b_flow);
        e.put_f32(ck.threshold);
        e.put_str(&ck.name);
        let framed = frame_checksummed(MODEL_MAGIC, 1, &e.finish());
        let path = dir.join("v1.scmc");
        std::fs::write(&path, framed.as_slice()).unwrap();
        match load_checkpoint(&path) {
            Err(err @ SnowcatError::CheckpointCorrupt { .. }) => {
                assert_eq!(err.exit_code(), 4);
                assert!(err.to_string().contains("v1.scmc"), "error names the path: {err}");
            }
            other => panic!("a v1 frame must be rejected as corrupt, got {other:?}"),
        }
    }

    #[test]
    fn training_diverged_has_its_own_exit_code() {
        let err = SnowcatError::TrainingDiverged { epoch: 3, retries: 2, cause: "NaN loss".into() };
        assert_eq!(err.exit_code(), 7);
        let msg = err.to_string();
        assert!(msg.contains("epoch 3") && msg.contains("NaN loss"), "{msg}");
    }

    #[test]
    fn fleet_errors_share_exit_code_8() {
        let failed = SnowcatError::FleetFailed {
            failed_shards: vec![1, 3],
            shards: 4,
            detail: "shard 1 quarantined".into(),
        };
        let lost =
            SnowcatError::WorkerLost { worker: 2, shard: 1, detail: "worker panicked".into() };
        let expired = SnowcatError::LeaseExpired { shard: 3, worker: 0, deadline_ms: 500 };
        let degraded = SnowcatError::FleetDegraded {
            live_workers: 1,
            min_workers: 2,
            detail: "resume from run/fleet.scfc".into(),
        };
        for err in [&failed, &lost, &expired, &degraded] {
            assert_eq!(err.exit_code(), 8, "{err}");
        }
        assert!(failed.to_string().contains("2/4 shard(s)"), "{failed}");
        assert!(lost.to_string().contains("worker 2"), "{lost}");
        assert!(expired.to_string().contains("500ms"), "{expired}");
        assert!(degraded.to_string().contains("below the --min-workers floor of 2"), "{degraded}");
    }

    #[test]
    fn fault_plan_errors_are_config_class() {
        let err = SnowcatError::FaultPlan {
            token: "hang@99".into(),
            detail: "position 99 is outside the 16-CTI stream".into(),
        };
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("hang@99") && msg.contains("outside"), "{msg}");
    }

    #[test]
    fn dataset_roundtrip_binary_and_json() {
        let dir = std::env::temp_dir().join("snowcat-error-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let ds = Dataset::default();
        let bin = dir.join("ds.scds");
        save_dataset(&bin, &ds).unwrap();
        let back = load_dataset(&bin).unwrap();
        assert_eq!(back.examples.len(), ds.examples.len());

        let json = dir.join("ds.json");
        std::fs::write(&json, ds.to_json().unwrap()).unwrap();
        let back2 = load_dataset(&json).unwrap();
        assert_eq!(back2.examples.len(), ds.examples.len());

        let garbage = dir.join("garbage.bin");
        std::fs::write(&garbage, [0u8; 7]).unwrap();
        assert!(matches!(load_dataset(&garbage), Err(SnowcatError::Parse { .. })));
    }
}
