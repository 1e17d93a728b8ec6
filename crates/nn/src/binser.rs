//! Bit-exact binary serialization for model state.
//!
//! JSON checkpoints round-trip floats through decimal text — exact for
//! finite values under the shortest-representation printer, but silently
//! lossy for non-finite values (the vendored `serde_json` writes them as
//! `null`). Training state (optimizer moments, RNG positions) additionally
//! needs *bit*-identity, not value-identity, for resumed runs to continue
//! exactly. This module therefore encodes every `f32`/`f64` as its IEEE bit
//! pattern in little-endian order: `decode(encode(x))` reproduces `x`
//! bit-for-bit, including NaN payloads, infinities and signed zeros.
//!
//! The encoding is a plain field-ordered concatenation with explicit
//! lengths — no self-description, no framing. Callers wrap payloads in the
//! corpus crate's checksummed envelope (`magic | version | length | crc32`)
//! so corruption is detected before this decoder runs; the decoder still
//! validates every length against the remaining input, so even unframed
//! garbage yields a typed [`BinError`], never a panic or an absurd
//! allocation.

use crate::model::{LayerParams, PicConfig, PicParams};
use crate::optim::AdamSnapshot;
use crate::tensor::Mat;
use crate::train::Checkpoint;

/// Typed decode failure (encode cannot fail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The input ended before the announced field.
    Truncated,
    /// A structurally invalid field (impossible length, bad tag, …).
    Invalid(&'static str),
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Truncated => write!(f, "binary payload truncated"),
            BinError::Invalid(what) => write!(f, "invalid binary payload: {what}"),
        }
    }
}

impl std::error::Error for BinError {}

/// Little-endian field encoder. Append-only; `finish` yields the buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Append an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32(&mut self, x: f32) {
        self.put_u32(x.to_bits());
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, x: f64) {
        self.put_u64(x.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed `f32` slice (bit patterns).
    pub fn put_f32s(&mut self, xs: &[f32]) {
        self.put_u32(xs.len() as u32);
        self.put_f32_raw(xs);
    }

    /// Append a length-prefixed `f64` slice (bit patterns).
    pub fn put_f64s(&mut self, xs: &[f64]) {
        self.put_u32(xs.len() as u32);
        let start = self.buf.len();
        self.buf.resize(start + xs.len() * 8, 0);
        for (dst, &x) in self.buf[start..].chunks_exact_mut(8).zip(xs) {
            dst.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }

    /// Append a matrix: rows, cols, then the row-major bit patterns.
    pub fn put_mat(&mut self, m: &Mat) {
        self.put_u32(m.rows as u32);
        self.put_u32(m.cols as u32);
        self.put_f32_raw(&m.data);
    }

    /// Bulk-append `f32` bit patterns without a length prefix. Resizing
    /// once and filling fixed-width chunks keeps large tensors on a
    /// memcpy-like path instead of a per-element `extend_from_slice`.
    fn put_f32_raw(&mut self, xs: &[f32]) {
        let start = self.buf.len();
        self.buf.resize(start + xs.len() * 4, 0);
        for (dst, &x) in self.buf[start..].chunks_exact_mut(4).zip(xs) {
            dst.copy_from_slice(&x.to_bits().to_le_bytes());
        }
    }
}

/// Little-endian field decoder over a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the whole input was consumed (trailing garbage check).
    pub fn expect_end(&self) -> Result<(), BinError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(BinError::Invalid("trailing bytes after payload"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        if self.remaining() < n {
            return Err(BinError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn take_u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Read an `f32` bit pattern.
    pub fn take_f32(&mut self) -> Result<f32, BinError> {
        Ok(f32::from_bits(self.take_u32()?))
    }

    /// Read an `f64` bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, BinError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a `u32` length that must be coverable by `elem_size`-byte
    /// elements in the remaining input — the anti-allocation-bomb guard.
    fn take_len(&mut self, elem_size: usize) -> Result<usize, BinError> {
        let n = self.take_u32()? as usize;
        if n.saturating_mul(elem_size) > self.remaining() {
            return Err(BinError::Truncated);
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, BinError> {
        let n = self.take_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| BinError::Invalid("string is not UTF-8"))
    }

    /// Read a length-prefixed `f32` vector.
    pub fn take_f32s(&mut self) -> Result<Vec<f32>, BinError> {
        let n = self.take_len(4)?;
        (0..n).map(|_| self.take_f32()).collect()
    }

    /// Read a length-prefixed `f64` vector.
    pub fn take_f64s(&mut self) -> Result<Vec<f64>, BinError> {
        let n = self.take_len(8)?;
        (0..n).map(|_| self.take_f64()).collect()
    }

    /// Read a matrix written by [`Enc::put_mat`].
    pub fn take_mat(&mut self) -> Result<Mat, BinError> {
        let rows = self.take_u32()? as usize;
        let cols = self.take_u32()? as usize;
        let n = rows.saturating_mul(cols);
        if n.saturating_mul(4) > self.remaining() {
            return Err(BinError::Truncated);
        }
        let data = (0..n).map(|_| self.take_f32()).collect::<Result<Vec<f32>, _>>()?;
        Ok(Mat { rows, cols, data })
    }
}

/// Encode model hyperparameters (current layout: trailing
/// `static_channels` field after the seed).
pub fn put_pic_config(e: &mut Enc, cfg: &PicConfig) {
    e.put_u32(cfg.hidden as u32);
    e.put_u32(cfg.layers as u32);
    e.put_u32(cfg.vocab as u32);
    e.put_f32(cfg.pos_weight);
    e.put_f32(cfg.urb_weight);
    e.put_f32(cfg.flow_weight);
    e.put_u64(cfg.seed);
    e.put_u32(cfg.static_channels as u32);
}

/// Decode model hyperparameters written by [`put_pic_config`].
pub fn take_pic_config(d: &mut Dec<'_>) -> Result<PicConfig, BinError> {
    Ok(PicConfig {
        hidden: d.take_u32()? as usize,
        layers: d.take_u32()? as usize,
        vocab: d.take_u32()? as usize,
        pos_weight: d.take_f32()?,
        urb_weight: d.take_f32()?,
        flow_weight: d.take_f32()?,
        seed: d.take_u64()?,
        static_channels: d.take_u32()? as usize,
    })
}

/// Encode the full parameter set in stable field order.
pub fn put_params(e: &mut Enc, p: &PicParams) {
    e.put_mat(&p.tok_emb);
    e.put_mat(&p.type_emb);
    e.put_mat(&p.sched_emb);
    e.put_mat(&p.w_in);
    e.put_mat(&p.b_in);
    e.put_u32(p.layers.len() as u32);
    for layer in &p.layers {
        e.put_mat(&layer.w_self);
        e.put_u32(layer.w_rel.len() as u32);
        for w in &layer.w_rel {
            e.put_mat(w);
        }
        e.put_mat(&layer.b);
    }
    e.put_mat(&p.w_out);
    e.put_mat(&p.b_out);
    e.put_mat(&p.w_static);
    e.put_mat(&p.w_flow);
    e.put_mat(&p.b_flow);
}

/// Decode a parameter set written by [`put_params`].
pub fn take_params(d: &mut Dec<'_>) -> Result<PicParams, BinError> {
    let tok_emb = d.take_mat()?;
    let type_emb = d.take_mat()?;
    let sched_emb = d.take_mat()?;
    let w_in = d.take_mat()?;
    let b_in = d.take_mat()?;
    let n_layers = d.take_len(1)?;
    let mut layers = Vec::with_capacity(n_layers);
    for _ in 0..n_layers {
        let w_self = d.take_mat()?;
        let n_rel = d.take_len(1)?;
        let w_rel = (0..n_rel).map(|_| d.take_mat()).collect::<Result<Vec<Mat>, _>>()?;
        let b = d.take_mat()?;
        layers.push(LayerParams { w_self, w_rel, b });
    }
    Ok(PicParams {
        tok_emb,
        type_emb,
        sched_emb,
        w_in,
        b_in,
        layers,
        w_out: d.take_mat()?,
        b_out: d.take_mat()?,
        w_static: d.take_mat()?,
        w_flow: d.take_mat()?,
        b_flow: d.take_mat()?,
    })
}

/// Encode Adam optimizer state (hyperparameters, moments, step count).
pub fn put_adam(e: &mut Enc, s: &AdamSnapshot) {
    e.put_f32(s.cfg.lr);
    e.put_f32(s.cfg.beta1);
    e.put_f32(s.cfg.beta2);
    e.put_f32(s.cfg.eps);
    e.put_f32(s.cfg.clip);
    e.put_u64(s.t);
    e.put_u32(s.m.len() as u32);
    for (m, v) in s.m.iter().zip(&s.v) {
        e.put_f32s(m);
        e.put_f32s(v);
    }
}

/// Decode Adam optimizer state written by [`put_adam`].
pub fn take_adam(d: &mut Dec<'_>) -> Result<AdamSnapshot, BinError> {
    let cfg = crate::optim::AdamConfig {
        lr: d.take_f32()?,
        beta1: d.take_f32()?,
        beta2: d.take_f32()?,
        eps: d.take_f32()?,
        clip: d.take_f32()?,
    };
    let t = d.take_u64()?;
    let n = d.take_len(1)?;
    let mut m = Vec::with_capacity(n);
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        m.push(d.take_f32s()?);
        v.push(d.take_f32s()?);
    }
    Ok(AdamSnapshot { cfg, m, v, t })
}

/// Encode a deployable model checkpoint (config, parameters, threshold,
/// name) as an unframed binary payload. Callers add the checksummed
/// envelope.
pub fn encode_model_checkpoint(ck: &Checkpoint) -> Vec<u8> {
    let mut e = Enc::new();
    put_pic_config(&mut e, &ck.cfg);
    put_params(&mut e, &ck.params);
    e.put_f32(ck.threshold);
    e.put_str(&ck.name);
    e.finish()
}

/// Decode a payload written by [`encode_model_checkpoint`].
pub fn decode_model_checkpoint(bytes: &[u8]) -> Result<Checkpoint, BinError> {
    let mut d = Dec::new(bytes);
    let cfg = take_pic_config(&mut d)?;
    let params = take_params(&mut d)?;
    let threshold = d.take_f32()?;
    let name = d.take_str()?;
    d.expect_end()?;
    Ok(Checkpoint { cfg, params, threshold, name })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PicModel;

    #[test]
    fn primitives_roundtrip_bit_exactly() {
        let mut e = Enc::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_f32(-0.0);
        e.put_f32(f32::NAN);
        e.put_f64(f64::NEG_INFINITY);
        e.put_str("snow–cat");
        e.put_f32s(&[f32::MIN_POSITIVE, 1e-45, f32::MAX]);
        e.put_f64s(&[core::f64::consts::PI]);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.take_u64().unwrap(), u64::MAX);
        assert_eq!(d.take_f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(d.take_f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(d.take_f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(d.take_str().unwrap(), "snow–cat");
        assert_eq!(
            d.take_f32s().unwrap().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            [f32::MIN_POSITIVE, 1e-45, f32::MAX].iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(d.take_f64s().unwrap(), vec![core::f64::consts::PI]);
        d.expect_end().unwrap();
    }

    #[test]
    fn model_checkpoint_roundtrips() {
        let model = PicModel::new(PicConfig { hidden: 6, layers: 2, ..Default::default() });
        let ck = Checkpoint::new(&model, 0.35, "bin-rt");
        let bytes = encode_model_checkpoint(&ck);
        let back = decode_model_checkpoint(&bytes).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn v1_payloads_are_rejected() {
        // Hand-encode the exact pre-static-channel (v1) layout (no
        // static_channels field, no w_static tensor): the decoder reads the
        // current layout only, so the v1 payload is a typed error.
        let cfg = PicConfig { hidden: 5, layers: 1, static_channels: 0, ..Default::default() };
        let model = PicModel::new(cfg);
        let ck = Checkpoint::new(&model, 0.4, "legacy");
        let mut e = Enc::new();
        e.put_u32(ck.cfg.hidden as u32);
        e.put_u32(ck.cfg.layers as u32);
        e.put_u32(ck.cfg.vocab as u32);
        e.put_f32(ck.cfg.pos_weight);
        e.put_f32(ck.cfg.urb_weight);
        e.put_f32(ck.cfg.flow_weight);
        e.put_u64(ck.cfg.seed);
        e.put_mat(&ck.params.tok_emb);
        e.put_mat(&ck.params.type_emb);
        e.put_mat(&ck.params.sched_emb);
        e.put_mat(&ck.params.w_in);
        e.put_mat(&ck.params.b_in);
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
        let v1_bytes = e.finish();
        assert!(decode_model_checkpoint(&v1_bytes).is_err());
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        let model = PicModel::new(PicConfig { hidden: 4, layers: 1, ..Default::default() });
        let bytes = encode_model_checkpoint(&Checkpoint::new(&model, 0.5, "t"));
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_model_checkpoint(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A huge announced length must not allocate — the guard rejects it.
        let mut e = Enc::new();
        e.put_u32(u32::MAX);
        let huge = e.finish();
        assert_eq!(Dec::new(&huge).take_f32s(), Err(BinError::Truncated));
        // Trailing garbage is rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_model_checkpoint(&padded).is_err());
    }
}
