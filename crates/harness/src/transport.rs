//! Wire protocol for the process fleet transport.
//!
//! The coordinator and a `snowcat fleet-worker` subprocess speak
//! length-prefixed, CRC-framed JSON over the child's stdin/stdout. The
//! framing reuses the SCCP/SCFC layout from `snowcat_corpus::binfmt`
//! (`magic | u16 version | u64 payload-len | u32 crc32 | payload`) so a
//! corrupted or truncated pipe read fails loudly instead of silently
//! desynchronising the stream — a worker whose stdout is garbled is
//! indistinguishable from a dead worker, and is treated as one.
//!
//! The conversation is strictly half-duplex from the coordinator's view:
//!
//! ```text
//! child  -> Ready  { label, seed, stream_len, pid }      (handshake)
//! parent -> Run    ( WireAssignment )                    (one shard lease)
//! child  -> Beat   { beats }                             (repeated)
//! child  -> Done   ( SupervisedResult )  |  Failed { detail }
//! ```
//!
//! One subprocess serves exactly one shard lease: respawning per lease
//! keeps the protocol trivially restartable and makes worker death (the
//! whole point of process isolation) a clean EOF rather than a stateful
//! recovery problem. Heartbeats carry the *cumulative* beat count so the
//! parent can replay missed increments onto the coordinator-side
//! [`LeaseSignal`](crate::LeaseSignal) after a slow pipe flush.

use std::io::{Read, Write};
use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use snowcat_corpus::binfmt::crc32;

use crate::checkpoint::CampaignCheckpoint;
use crate::fleet::{ShardAssignment, WorkerFault};
use crate::supervisor::SupervisedResult;

/// Frame magic: **S**nowcat **C**oordinator **W**ire **P**rotocol.
pub const WIRE_MAGIC: [u8; 4] = *b"SCWP";
/// Wire protocol version; bumped on any incompatible message change.
pub const WIRE_VERSION: u16 = 1;
/// Upper bound on a single frame payload (a `Done` carrying a full shard
/// history stays far below this; anything larger is stream corruption).
pub const MAX_FRAME_LEN: u64 = 64 * 1024 * 1024;

/// Fixed frame header size: magic(4) + version(2) + len(8) + crc32(4).
const HEADER_LEN: usize = 18;

/// A [`ShardAssignment`](crate::ShardAssignment) minus the in-process
/// [`LeaseSignal`](crate::LeaseSignal) — the lease crosses the process
/// boundary as `Beat` frames instead of shared atomics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireAssignment {
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
    /// Where the worker must write its per-shard SCCP checkpoint
    /// (a `String`, not a `PathBuf`, because the wire is JSON and fleet
    /// directories are CLI-provided UTF-8 paths).
    pub checkpoint_path: String,
    /// Checkpoint to resume from (validated by the coordinator).
    pub resume: Option<CampaignCheckpoint>,
    /// Injected fault armed for this worker, if any.
    pub fault: Option<WorkerFault>,
}

impl WireAssignment {
    /// Strip the lease off a coordinator-side assignment.
    pub fn from_assignment(asg: &ShardAssignment) -> Self {
        Self {
            shard: asg.shard,
            worker: asg.worker,
            start: asg.start,
            end: asg.end,
            generation: asg.generation,
            seed_salt: asg.seed_salt,
            checkpoint_path: asg.checkpoint_path.display().to_string(),
            resume: asg.resume.clone(),
            fault: asg.fault,
        }
    }

    /// Rebuild a worker-side assignment around a local lease signal.
    pub fn into_assignment(self, lease: crate::fleet::LeaseSignal) -> ShardAssignment {
        ShardAssignment {
            shard: self.shard,
            worker: self.worker,
            start: self.start,
            end: self.end,
            generation: self.generation,
            seed_salt: self.seed_salt,
            checkpoint_path: PathBuf::from(self.checkpoint_path),
            resume: self.resume,
            lease,
            fault: self.fault,
        }
    }
}

/// Every message that crosses the coordinator/worker pipe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireMsg {
    /// Worker handshake: identifies the run it was launched for. The
    /// coordinator rejects a worker whose identity does not match its own
    /// (a stale binary or wrong-flag respawn must not corrupt shards).
    Ready {
        /// Explorer label the worker will produce.
        label: String,
        /// Base campaign seed.
        seed: u64,
        /// Length of the CT-candidate stream the worker rebuilt.
        stream_len: usize,
        /// Worker process id, for diagnostics and orphan accounting.
        pid: u32,
    },
    /// Coordinator → worker: run this shard lease. Boxed: the embedded
    /// resume checkpoint dwarfs every other variant.
    Run(Box<WireAssignment>),
    /// Worker → coordinator: cumulative heartbeat count for this lease.
    Beat {
        /// Total beats so far (cumulative, not a delta).
        beats: u64,
    },
    /// Worker → coordinator: shard ran to completion; the final SCCP is on
    /// disk at the assignment's checkpoint path.
    Done(Box<SupervisedResult>),
    /// Worker → coordinator: shard failed with a campaign-level error.
    Failed {
        /// Rendered error (exit code class is carried by the process exit).
        detail: String,
    },
}

/// Write one framed message. Flushes, so a heartbeat is visible to the
/// peer as soon as the call returns.
pub fn write_frame(w: &mut impl Write, msg: &WireMsg) -> std::io::Result<()> {
    let payload = serde_json::to_string(msg)
        .map_err(|e| corrupt(format!("unencodable frame: {e}")))?
        .into_bytes();
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&WIRE_MAGIC);
    header[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    header[6..14].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[14..18].copy_from_slice(&crc32(&payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&payload)?;
    w.flush()
}

fn corrupt(detail: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail.into())
}

/// Read one framed message. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed its end); any mid-frame EOF, bad magic,
/// version skew, oversized length, CRC mismatch, or undecodable payload is
/// an [`std::io::ErrorKind::InvalidData`] error — the stream cannot be
/// resynchronised and the peer must be treated as dead.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<WireMsg>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => return Err(corrupt("EOF inside a frame header")),
            n => filled += n,
        }
    }
    if header[..4] != WIRE_MAGIC {
        return Err(corrupt(format!("bad frame magic {:02x?}", &header[..4])));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != WIRE_VERSION {
        return Err(corrupt(format!("wire version {version}, expected {WIRE_VERSION}")));
    }
    let len = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(corrupt(format!("frame length {len} exceeds {MAX_FRAME_LEN}")));
    }
    let want_crc = u32::from_le_bytes(header[14..18].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            corrupt("EOF inside a frame payload")
        } else {
            e
        }
    })?;
    let got_crc = crc32(&payload);
    if got_crc != want_crc {
        return Err(corrupt(format!("frame CRC mismatch: {got_crc:#010x} != {want_crc:#010x}")));
    }
    let text = std::str::from_utf8(&payload)
        .map_err(|e| corrupt(format!("frame payload is not UTF-8: {e}")))?;
    let msg = serde_json::from_str(text)
        .map_err(|e| corrupt(format!("undecodable frame payload: {e}")))?;
    Ok(Some(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_msgs() -> Vec<WireMsg> {
        vec![
            WireMsg::Ready { label: "pct".into(), seed: 0x5EED, stream_len: 64, pid: 4321 },
            WireMsg::Run(Box::new(WireAssignment {
                shard: 2,
                worker: 1,
                start: 32,
                end: 48,
                generation: 1,
                seed_salt: 7,
                checkpoint_path: "/tmp/fleet/shard-2.ckpt".into(),
                resume: None,
                fault: Some(WorkerFault::Stall),
            })),
            WireMsg::Beat { beats: 17 },
            WireMsg::Failed { detail: "campaign hung at position 3".into() },
        ]
    }

    #[test]
    fn frames_roundtrip_in_sequence() {
        let msgs = sample_msgs();
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cur = Cursor::new(buf);
        for want in &msgs {
            let got = read_frame(&mut cur).unwrap().expect("frame present");
            // WireMsg carries SupervisedResult (no PartialEq); compare the
            // canonical JSON encodings instead.
            assert_eq!(serde_json::to_string(&got).unwrap(), serde_json::to_string(want).unwrap());
        }
        assert!(read_frame(&mut cur).unwrap().is_none(), "clean EOF after last frame");
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        let mut cur = Cursor::new(Vec::new());
        assert!(read_frame(&mut cur).unwrap().is_none());
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMsg::Beat { beats: 99 }).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40; // flip a payload bit
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
    }

    #[test]
    fn header_corruption_is_detected() {
        let mut good = Vec::new();
        write_frame(&mut good, &WireMsg::Beat { beats: 1 }).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        let err = read_frame(&mut Cursor::new(bad_magic)).unwrap_err();
        assert!(err.to_string().contains("bad frame magic"), "{err}");

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        let err = read_frame(&mut Cursor::new(bad_version)).unwrap_err();
        assert!(err.to_string().contains("wire version"), "{err}");

        let mut bad_len = good;
        bad_len[6..14].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let err = read_frame(&mut Cursor::new(bad_len)).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn truncated_frames_are_mid_frame_eof_not_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &WireMsg::Beat { beats: 5 }).unwrap();
        // Truncate inside the header.
        let err = read_frame(&mut Cursor::new(buf[..7].to_vec())).unwrap_err();
        assert!(err.to_string().contains("EOF inside a frame header"), "{err}");
        // Truncate inside the payload.
        let err = read_frame(&mut Cursor::new(buf[..HEADER_LEN + 2].to_vec())).unwrap_err();
        assert!(err.to_string().contains("EOF inside a frame payload"), "{err}");
    }

    #[test]
    fn assignment_conversion_preserves_fields() {
        let wire = WireAssignment {
            shard: 3,
            worker: 0,
            start: 10,
            end: 20,
            generation: 2,
            seed_salt: 0xAB,
            checkpoint_path: "shard-3.ckpt".into(),
            resume: None,
            fault: None,
        };
        let lease = crate::fleet::LeaseSignal::new();
        let asg = wire.clone().into_assignment(lease);
        assert_eq!(WireAssignment::from_assignment(&asg), wire);
    }
}
