//! Compact binary (de)serialization for labelled datasets.
//!
//! JSON datasets are convenient but ~20× larger than necessary; a default
//! training collection is thousands of graphs. This module provides a dense
//! little-endian binary format (`SCDS`, versioned) used by the CLI's
//! `collect`/`train` split and anywhere datasets are stored.

use crate::dataset::{Dataset, Example};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use snowcat_graph::{CtGraph, Edge, EdgeKind, SchedMark, StaticFeats, VertKind, Vertex};
use snowcat_kernel::{BlockId, ThreadId};
use snowcat_vm::{ScheduleHints, SwitchPoint};

/// Format magic.
const MAGIC: &[u8; 4] = b"SCDS";
/// The only format version, written by [`encode_dataset`] and accepted by
/// [`decode_dataset`]. The payload sits in a checksummed length frame (see
/// [`frame_checksummed`]) so truncated and bit-flipped files are detected
/// instead of decoding to garbage; each vertex carries a flags byte (bit 0 =
/// `may_race`) followed by three static feature bytes (alias density,
/// lockset size, race degree).
const VERSION: u16 = 5;

/// Vertex flags byte, bit 0: static may-race mark.
const VFLAG_MAY_RACE: u8 = 1;

/// Errors produced by [`decode_dataset`] and [`unframe_checksummed`].
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Input ended prematurely or a length field is inconsistent.
    Truncated,
    /// The framed payload length disagrees with the bytes actually present.
    BadLength {
        /// Length recorded in the frame header.
        framed: u64,
        /// Bytes actually available after the header.
        actual: u64,
    },
    /// The payload checksum does not match (bit rot or a torn write).
    BadChecksum {
        /// CRC recorded in the frame header.
        expected: u32,
        /// CRC recomputed over the payload.
        actual: u32,
    },
    /// An enum discriminant is out of range.
    BadEnum(&'static str, u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a SCDS dataset (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported SCDS version {v}"),
            DecodeError::Truncated => write!(f, "truncated SCDS payload"),
            DecodeError::BadLength { framed, actual } => {
                write!(f, "framed length {framed} B but {actual} B present (truncated or torn)")
            }
            DecodeError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "payload checksum mismatch (header {expected:#010x}, data {actual:#010x})"
                )
            }
            DecodeError::BadEnum(what, v) => write!(f, "invalid {what} discriminant {v}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial, built at
/// compile time. `TABLES[0]` is the classic byte-at-a-time table; table `j`
/// advances a byte through `j` additional zero bytes, letting [`crc32`]
/// consume eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
///
/// Dependency-free slicing-by-8 implementation used to integrity-check SCDS
/// datasets and campaign/training checkpoints. Checkpoints are checksummed
/// on every epoch, so the checksum must stay a small fraction of an epoch;
/// eight bytes per table step keeps it an order of magnitude faster than the
/// textbook bit-at-a-time loop while remaining pure safe Rust.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Wrap `payload` in a checksummed length frame:
/// `magic(4) | version(u16 le) | payload_len(u64 le) | crc32(u32 le) | payload`.
///
/// The frame makes truncation (length mismatch) and bit rot (checksum
/// mismatch) detectable at decode time; SCDS datasets, SCCP campaign
/// checkpoints and the other on-disk formats use it.
pub fn frame_checksummed(magic: &[u8; 4], version: u16, payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + 2 + 8 + 4 + payload.len());
    buf.put_slice(magic);
    buf.put_u16_le(version);
    buf.put_u64_le(payload.len() as u64);
    buf.put_u32_le(crc32(payload));
    buf.put_slice(payload);
    buf.freeze()
}

/// Undo [`frame_checksummed`]: verify magic, version range, framed length and
/// checksum, returning `(version, payload)`. Every malformed input — wrong
/// magic, unknown version, truncation at any offset, any flipped bit in
/// header or payload — yields a typed [`DecodeError`], never a panic.
pub fn unframe_checksummed(
    magic: &[u8; 4],
    min_version: u16,
    max_version: u16,
    mut buf: Bytes,
) -> Result<(u16, Bytes), DecodeError> {
    if buf.remaining() < 4 + 2 + 8 + 4 {
        return Err(DecodeError::Truncated);
    }
    let mut got = [0u8; 4];
    buf.copy_to_slice(&mut got);
    if &got != magic {
        return Err(DecodeError::BadMagic);
    }
    let version = buf.get_u16_le();
    if !(min_version..=max_version).contains(&version) {
        return Err(DecodeError::BadVersion(version));
    }
    let framed = buf.get_u64_le();
    let expected = buf.get_u32_le();
    let actual_len = buf.remaining() as u64;
    if framed != actual_len {
        return Err(DecodeError::BadLength { framed, actual: actual_len });
    }
    let payload = buf.slice(0..buf.remaining());
    let actual = crc32(&payload);
    if actual != expected {
        return Err(DecodeError::BadChecksum { expected, actual });
    }
    Ok((version, payload))
}

fn put_bits(buf: &mut BytesMut, bits: &[bool]) {
    buf.put_u32_le(bits.len() as u32);
    let mut byte = 0u8;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.put_u8(byte);
            byte = 0;
        }
    }
    if !bits.len().is_multiple_of(8) {
        buf.put_u8(byte);
    }
}

fn get_bits(buf: &mut Bytes) -> Result<Vec<bool>, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    let nbytes = n.div_ceil(8);
    if buf.remaining() < nbytes {
        return Err(DecodeError::Truncated);
    }
    let mut out = Vec::with_capacity(n);
    let mut cur = 0u8;
    for i in 0..n {
        if i % 8 == 0 {
            cur = buf.get_u8();
        }
        out.push(cur & (1 << (i % 8)) != 0);
    }
    Ok(out)
}

fn encode_graph(buf: &mut BytesMut, g: &CtGraph) {
    buf.put_u32_le(g.verts.len() as u32);
    for v in &g.verts {
        buf.put_u32_le(v.block.0);
        buf.put_u8(v.thread.0);
        buf.put_u8(match v.kind {
            VertKind::Scb => 0,
            VertKind::Urb => 1,
        });
        buf.put_u8(v.sched_mark.index() as u8);
        buf.put_u8(if v.may_race { VFLAG_MAY_RACE } else { 0 });
        buf.put_slice(&v.static_feats.bytes());
        buf.put_u16_le(v.tokens.len() as u16);
        for &t in &v.tokens {
            buf.put_u16_le(t as u16); // vocabulary is < 2^16
        }
    }
    buf.put_u32_le(g.edges.len() as u32);
    for e in &g.edges {
        buf.put_u32_le(e.from);
        buf.put_u32_le(e.to);
        buf.put_u8(e.kind.index() as u8);
    }
}

fn decode_graph(buf: &mut Bytes) -> Result<CtGraph, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let nv = buf.get_u32_le() as usize;
    let mut verts = Vec::with_capacity(nv.min(1 << 20));
    for _ in 0..nv {
        if buf.remaining() < 4 + 1 + 1 + 1 + 1 + snowcat_graph::STATIC_CHANNELS + 2 {
            return Err(DecodeError::Truncated);
        }
        let block = BlockId(buf.get_u32_le());
        let thread = ThreadId(buf.get_u8());
        let kind = match buf.get_u8() {
            0 => VertKind::Scb,
            1 => VertKind::Urb,
            x => return Err(DecodeError::BadEnum("vertex kind", x)),
        };
        let sched_mark = match buf.get_u8() {
            0 => SchedMark::None,
            1 => SchedMark::YieldSource,
            2 => SchedMark::ResumeTarget,
            x => return Err(DecodeError::BadEnum("sched mark", x)),
        };
        let may_race = buf.get_u8() & VFLAG_MAY_RACE != 0;
        let mut b = [0u8; snowcat_graph::STATIC_CHANNELS];
        buf.copy_to_slice(&mut b);
        let static_feats = StaticFeats::from_bytes(b);
        let nt = buf.get_u16_le() as usize;
        if buf.remaining() < nt * 2 {
            return Err(DecodeError::Truncated);
        }
        let tokens = (0..nt).map(|_| u32::from(buf.get_u16_le())).collect();
        verts.push(Vertex { block, thread, kind, sched_mark, may_race, static_feats, tokens });
    }
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let ne = buf.get_u32_le() as usize;
    let mut edges = Vec::with_capacity(ne.min(1 << 22));
    for _ in 0..ne {
        if buf.remaining() < 4 + 4 + 1 {
            return Err(DecodeError::Truncated);
        }
        let from = buf.get_u32_le();
        let to = buf.get_u32_le();
        let kind = match buf.get_u8() {
            0 => EdgeKind::ScbFlow,
            1 => EdgeKind::UrbFlow,
            2 => EdgeKind::IntraFlow,
            3 => EdgeKind::InterFlow,
            4 => EdgeKind::Schedule,
            5 => EdgeKind::Shortcut,
            x => return Err(DecodeError::BadEnum("edge kind", x)),
        };
        edges.push(Edge { from, to, kind });
    }
    Ok(CtGraph { verts, edges })
}

/// Encode a dataset into the compact binary format (v5: checksummed frame).
pub fn encode_dataset(ds: &Dataset) -> Bytes {
    let mut buf = BytesMut::with_capacity(1 << 20);
    buf.put_u32_le(ds.examples.len() as u32);
    for e in &ds.examples {
        buf.put_u32_le(e.cti_index as u32);
        encode_graph(&mut buf, &e.graph);
        put_bits(&mut buf, &e.labels);
        put_bits(&mut buf, &e.flow_labels);
        buf.put_u8(e.hints.first.0);
        buf.put_u16_le(e.hints.switches.len() as u16);
        for sw in &e.hints.switches {
            buf.put_u8(sw.thread.0);
            buf.put_u64_le(sw.after);
        }
    }
    frame_checksummed(MAGIC, VERSION, &buf.freeze())
}

/// Decode a dataset from the compact binary format.
///
/// The frame is length- and CRC-checked first, so truncation and bit rot
/// anywhere in the file surface as typed errors; any version other than
/// v5 is rejected with [`DecodeError::BadVersion`].
pub fn decode_dataset(buf: Bytes) -> Result<Dataset, DecodeError> {
    let (_, payload) = unframe_checksummed(MAGIC, VERSION, VERSION, buf)?;
    decode_examples(payload)
}

/// Decode the example section (`count u32 | examples…`) of an SCDS payload.
fn decode_examples(mut buf: Bytes) -> Result<Dataset, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    let mut examples = Vec::with_capacity(n.min(1 << 24));
    for _ in 0..n {
        if buf.remaining() < 4 {
            return Err(DecodeError::Truncated);
        }
        let cti_index = buf.get_u32_le() as usize;
        let graph = decode_graph(&mut buf)?;
        let labels = get_bits(&mut buf)?;
        let flow_labels = get_bits(&mut buf)?;
        if buf.remaining() < 1 + 2 {
            return Err(DecodeError::Truncated);
        }
        let first = ThreadId(buf.get_u8());
        let ns = buf.get_u16_le() as usize;
        if buf.remaining() < ns * 9 {
            return Err(DecodeError::Truncated);
        }
        let switches = (0..ns)
            .map(|_| SwitchPoint { thread: ThreadId(buf.get_u8()), after: buf.get_u64_le() })
            .collect();
        examples.push(Example {
            cti_index,
            graph,
            labels,
            flow_labels,
            hints: ScheduleHints { first, switches },
        });
    }
    Ok(Dataset { examples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_dataset, random_cti_pairs, DatasetConfig};
    use crate::fuzzer::StiFuzzer;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use snowcat_cfg::KernelCfg;
    use snowcat_kernel::{generate, GenConfig};

    fn sample_dataset() -> Dataset {
        let k = generate(&GenConfig::default());
        let cfg = KernelCfg::build(&k);
        let mut fz = StiFuzzer::new(&k, 1);
        fz.seed_each_syscall();
        let corpus = fz.into_corpus();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let ctis = random_cti_pairs(&mut rng, corpus.len(), 3);
        build_dataset(&k, &cfg, &corpus, &ctis, DatasetConfig { interleavings_per_cti: 3, seed: 5 })
    }

    #[test]
    fn roundtrip_preserves_dataset_exactly() {
        let ds = sample_dataset();
        let bytes = encode_dataset(&ds);
        let back = decode_dataset(bytes).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let ds = sample_dataset();
        let bin = encode_dataset(&ds).len();
        let json = ds.to_json().unwrap().len();
        assert!(bin * 3 < json, "binary ({bin} B) should be ≥3x smaller than JSON ({json} B)");
    }

    #[test]
    fn may_race_bits_roundtrip() {
        let mut ds = sample_dataset();
        for (i, e) in ds.examples.iter_mut().enumerate() {
            for (j, v) in e.graph.verts.iter_mut().enumerate() {
                v.may_race = (i + j) % 2 == 0;
            }
        }
        let back = decode_dataset(encode_dataset(&ds)).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn static_feat_bytes_roundtrip() {
        let mut ds = sample_dataset();
        for (i, e) in ds.examples.iter_mut().enumerate() {
            for (j, v) in e.graph.verts.iter_mut().enumerate() {
                v.static_feats = StaticFeats {
                    alias_density: (i + j) as u8,
                    lockset: j as u8,
                    race_degree: (i * 3 + j) as u8,
                };
            }
        }
        let back = decode_dataset(encode_dataset(&ds)).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn version_4_frames_are_rejected() {
        // Hand-build a v4 frame: the v3 example layout (flags byte, no
        // static feature bytes) inside the checksummed frame.
        let mut body = BytesMut::new();
        body.put_u32_le(1); // examples
        body.put_u32_le(7); // cti_index
        body.put_u32_le(1); // verts
        body.put_u32_le(3); // block
        body.put_u8(1); // thread
        body.put_u8(1); // kind = Urb
        body.put_u8(0); // sched mark = None
        body.put_u8(VFLAG_MAY_RACE); // flags
        body.put_u16_le(1); // tokens
        body.put_u16_le(42);
        body.put_u32_le(0); // edges
        body.put_u32_le(0); // labels
        body.put_u32_le(0); // flow labels
        body.put_u8(0); // hints.first
        body.put_u16_le(0); // switches
        let framed = frame_checksummed(MAGIC, 4, &body.freeze());
        assert_eq!(decode_dataset(framed).unwrap_err(), DecodeError::BadVersion(4));
    }

    #[test]
    fn version_2_payloads_are_rejected() {
        // Hand-build an unframed v2 payload (no per-vertex flags byte): one
        // example, one vertex, no edges, no labels, no switches.
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(2); // version
        buf.put_u32_le(1); // examples
        buf.put_u32_le(7); // cti_index
        buf.put_u32_le(1); // verts
        buf.put_u32_le(3); // block
        buf.put_u8(1); // thread
        buf.put_u8(1); // kind = Urb
        buf.put_u8(0); // sched mark = None
        buf.put_u16_le(1); // tokens
        buf.put_u16_le(42);
        buf.put_u32_le(0); // edges
        buf.put_u32_le(0); // labels
        buf.put_u32_le(0); // flow labels
        buf.put_u8(0); // hints.first
        buf.put_u16_le(0); // switches
        assert_eq!(decode_dataset(buf.freeze()).unwrap_err(), DecodeError::BadVersion(2));
    }

    #[test]
    fn future_versions_are_rejected() {
        let framed = frame_checksummed(MAGIC, VERSION + 1, &[0, 0, 0, 0]);
        assert_eq!(decode_dataset(framed).unwrap_err(), DecodeError::BadVersion(VERSION + 1));
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn frame_roundtrips_and_reports_typed_corruption() {
        let payload = b"campaign state goes here";
        let framed = frame_checksummed(b"SCCP", 1, payload);
        let (v, back) = unframe_checksummed(b"SCCP", 1, 1, framed.clone()).unwrap();
        assert_eq!(v, 1);
        assert_eq!(back.as_slice(), payload);

        // Wrong magic.
        assert_eq!(
            unframe_checksummed(b"XXXX", 1, 1, framed.clone()).unwrap_err(),
            DecodeError::BadMagic
        );
        // Truncated payload → length mismatch.
        let torn = framed.slice(0..framed.len() - 3);
        assert!(matches!(
            unframe_checksummed(b"SCCP", 1, 1, torn).unwrap_err(),
            DecodeError::BadLength { .. }
        ));
        // Truncated header.
        assert_eq!(
            unframe_checksummed(b"SCCP", 1, 1, framed.slice(0..9)).unwrap_err(),
            DecodeError::Truncated
        );
        // Any payload bit flip → checksum mismatch.
        let mut flipped = framed.to_vec();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            unframe_checksummed(b"SCCP", 1, 1, Bytes::from(flipped)).unwrap_err(),
            DecodeError::BadChecksum { .. }
        ));
    }

    #[test]
    fn v4_datasets_detect_any_bit_flip() {
        let ds = sample_dataset();
        let bytes = encode_dataset(&ds).to_vec();
        // Flip one bit at a spread of offsets: decode must always fail with
        // a typed error (the CRC frame leaves no undetectable positions).
        for pos in (0..bytes.len()).step_by(131) {
            let mut raw = bytes.clone();
            raw[pos] ^= 0x10;
            assert!(
                decode_dataset(Bytes::from(raw)).is_err(),
                "flip at byte {pos} decoded successfully"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        // A full 18-byte frame header, so the magic check is what fails.
        let err = decode_dataset(Bytes::from_static(
            b"NOPE\x05\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
        ));
        assert_eq!(err.unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let ds = sample_dataset();
        let bytes = encode_dataset(&ds);
        // Chop the payload at many offsets: every prefix must fail cleanly,
        // never panic.
        for cut in (0..bytes.len() - 1).step_by(97) {
            let res = decode_dataset(bytes.slice(0..cut));
            assert!(res.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn empty_dataset_roundtrips() {
        let ds = Dataset::default();
        let back = decode_dataset(encode_dataset(&ds)).unwrap();
        assert_eq!(ds, back);
    }

    #[test]
    fn bitpacking_roundtrips_odd_lengths() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let bits: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = BytesMut::new();
            put_bits(&mut buf, &bits);
            let mut b = buf.freeze();
            assert_eq!(get_bits(&mut b).unwrap(), bits, "length {n}");
        }
    }
}
