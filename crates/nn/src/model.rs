//! The PIC (per-interleaving coverage) model: typed-edge relational GNN over
//! CT graphs with a token-embedding assembly encoder.
//!
//! Architecture (mirroring §3.2 of the paper at reproduction scale):
//!
//! * **assembly encoder** — mean of learned token embeddings over the
//!   block's numeric-elided assembly tokens (the BERT-substitute; it is
//!   pre-trained with a masked-token objective in [`crate::asmenc`] and
//!   fine-tuned during GNN training, matching the paper's lifecycle);
//! * **vertex/edge type embeddings** — learnable vectors per vertex type (2)
//!   and per edge type (handled as per-type weight matrices, the R-GCN
//!   formulation of "typed edges into a GCN");
//! * **L message-passing layers** — `h' = relu(W_self·h + Σ_r W_r·mean_r(h) +
//!   b) + h` with mean aggregation per edge type and residual connections
//!   (the paper found deeper GNNs help; depth is configurable);
//! * **head** — per-vertex logistic classifier → covered / not covered.
//!
//! Forward and backward passes are hand-derived (no autograd). There is one
//! forward pass, the body behind [`PicModel::forward_into`]. Inference runs
//! it without a recorder; training runs it through
//! [`PicModel::forward_cached`] with a [`ForwardCache`] recorder, which keeps
//! the per-layer activations that inference hands back to its scratch arena.
//! The function the trainer fits is therefore the function a campaign
//! deploys, by construction. Gradients flow through the scatter/gather
//! aggregation exactly adjoint to the forward.
//!
//! # Compute path
//!
//! Message passing consumes the per-edge-type CSR adjacency built by
//! [`snowcat_graph::CsrAdj`] — forward aggregation gathers each
//! destination's sources (in edge-list order, so each row matches the flat
//! edge scan bitwise) and the backward pass gathers through the out-CSR
//! instead of scattering. Per edge type, only the *touched* destinations
//! (those with at least one incoming edge of that type — a small fraction
//! of the vertex set per kind) are materialized: aggregation fills a
//! compacted `touched × d` message matrix, the `W_r` transform runs on
//! those rows only, and the result is scatter-added row-wise into the
//! pre-activation. This recovers — explicitly and vectorizably — the
//! sparsity the old `if a == 0.0` kernel branch exploited by accident,
//! while skipping the untouched rows' gather *and* matmul cost entirely.
//!
//! The per-vertex reduction order is fixed: bias first, then the `W_self`
//! products in ascending-k order (see the summation-order contract in
//! [`crate::tensor`]), then one row-add of each completed per-kind message
//! transform, kinds in ascending kind order.
//!
//! Inference goes through a [`PicSession`], which owns a [`Scratch`] arena
//! and a reusable adjacency: after warmup, [`PicModel::forward_into`]
//! performs **zero heap allocations** per graph.

use crate::tensor::{bce_grad, bce_with_logit, sigmoid, Mat, Scratch};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use snowcat_graph::{CsrAdj, CtGraph, VertKind, NUM_SCHED_MARKS, VOCAB_SIZE};

/// Number of edge types (the paper's five plus shortcut edges).
pub const NUM_EDGE_TYPES: usize = snowcat_graph::NUM_EDGE_KINDS;
/// Number of vertex types (SCB / URB).
pub const NUM_VERT_TYPES: usize = 2;

/// Model hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PicConfig {
    /// Hidden dimension.
    pub hidden: usize,
    /// Message-passing layers.
    pub layers: usize,
    /// Token vocabulary size (fixed by the graph crate's hashing).
    pub vocab: usize,
    /// Positive-class weight in the BCE loss (labels are skewed: most URBs
    /// are not covered).
    pub pos_weight: f32,
    /// Extra loss weight on URB vertices. SCB labels are overwhelmingly
    /// positive and easy; URBs carry the signal the tester actually uses, so
    /// at reproduction scale (thousands of graphs instead of the paper's
    /// millions) they get emphasized in the objective.
    pub urb_weight: f32,
    /// Loss weight of the optional inter-thread-flow head (§6 future work:
    /// "training PIC to predict the inter-thread data flows"). Only used by
    /// [`PicModel::backward_with_flows`].
    pub flow_weight: f32,
    /// Initialization seed.
    pub seed: u64,
    /// Number of per-vertex *static* feature channels consumed from
    /// [`snowcat_graph::StaticFeats`] (alias-class density, must-lockset
    /// size, refined may-race degree). `0` reproduces the pre-static-channel
    /// model exactly; the serde default keeps old JSON configs loading as
    /// channel-free models.
    #[serde(default)]
    pub static_channels: usize,
}

impl Default for PicConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            layers: 5,
            vocab: VOCAB_SIZE,
            pos_weight: 4.0,
            urb_weight: 3.0,
            flow_weight: 1.0,
            seed: 0x91C,
            static_channels: snowcat_graph::STATIC_CHANNELS,
        }
    }
}

/// One message-passing layer's parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerParams {
    /// Self-transform.
    pub w_self: Mat,
    /// Per-edge-type transforms.
    pub w_rel: Vec<Mat>,
    /// Bias.
    pub b: Mat,
}

/// All learnable parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PicParams {
    /// Token embedding table (vocab × hidden) — the assembly encoder.
    pub tok_emb: Mat,
    /// Vertex-type embeddings (2 × hidden).
    pub type_emb: Mat,
    /// Schedule-mark embeddings (3 × hidden): none / yield-source /
    /// resume-target, the §6-style node-type enhancement.
    pub sched_emb: Mat,
    /// Input transform.
    pub w_in: Mat,
    /// Input bias.
    pub b_in: Mat,
    /// Message-passing layers.
    pub layers: Vec<LayerParams>,
    /// Output head weight (hidden × 1).
    pub w_out: Mat,
    /// Output head bias (1 × 1).
    pub b_out: Mat,
    /// Static-channel input projection (`static_channels × hidden`): each
    /// vertex's normalized static features add `Σ_c feat[c] · w_static[c]`
    /// to its input embedding. A `0 × hidden` matrix (channel-free model)
    /// reproduces the pre-static-channel forward bit-for-bit. Kept out of
    /// serde defaults on purpose: binary checkpoints route through
    /// [`crate::binser`], which versions the layout explicitly.
    #[serde(default)]
    pub w_static: Mat,
    /// Flow-head bilinear form (hidden × hidden): scores an inter-thread
    /// potential-flow edge (u→v) as `σ(h_u · W_flow h_v + b_flow)`.
    pub w_flow: Mat,
    /// Flow-head bias (1 × 1).
    pub b_flow: Mat,
}

impl PicParams {
    /// Randomly initialized parameters.
    pub fn init(cfg: &PicConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let d = cfg.hidden;
        Self {
            tok_emb: Mat::xavier(&mut rng, cfg.vocab, d),
            type_emb: Mat::xavier(&mut rng, NUM_VERT_TYPES, d),
            sched_emb: Mat::xavier(&mut rng, NUM_SCHED_MARKS, d),
            w_in: Mat::xavier(&mut rng, d, d),
            b_in: Mat::zeros(1, d),
            layers: (0..cfg.layers)
                .map(|_| LayerParams {
                    w_self: Mat::xavier(&mut rng, d, d),
                    w_rel: (0..NUM_EDGE_TYPES).map(|_| Mat::xavier(&mut rng, d, d)).collect(),
                    b: Mat::zeros(1, d),
                })
                .collect(),
            w_out: Mat::xavier(&mut rng, d, 1),
            b_out: Mat::zeros(1, 1),
            // Drawn from a *separate* stream derived from the seed, so
            // adding (or resizing) the static projection never shifts the
            // draws of any pre-existing tensor: a channel-free init is
            // bit-identical to the pre-static-channel model.
            w_static: {
                let mut srng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x57A7_1CFE);
                Mat::xavier(&mut srng, cfg.static_channels, d)
            },
            w_flow: Mat::xavier(&mut rng, d, d),
            b_flow: Mat::zeros(1, 1),
        }
    }

    /// Zeroed gradients with the same shapes.
    pub fn zeros_like(&self) -> Self {
        let z = |m: &Mat| Mat::zeros(m.rows, m.cols);
        Self {
            tok_emb: z(&self.tok_emb),
            type_emb: z(&self.type_emb),
            sched_emb: z(&self.sched_emb),
            w_in: z(&self.w_in),
            b_in: z(&self.b_in),
            layers: self
                .layers
                .iter()
                .map(|l| LayerParams {
                    w_self: z(&l.w_self),
                    w_rel: l.w_rel.iter().map(z).collect(),
                    b: z(&l.b),
                })
                .collect(),
            w_out: z(&self.w_out),
            b_out: z(&self.b_out),
            w_static: z(&self.w_static),
            w_flow: z(&self.w_flow),
            b_flow: z(&self.b_flow),
        }
    }

    /// Flat view of all tensors, in a stable order (aligned with
    /// [`Self::tensors_mut`] and the optimizer's state).
    pub fn tensors(&self) -> Vec<&Mat> {
        #[allow(clippy::vec_init_then_push)]
        let mut v = vec![&self.tok_emb, &self.type_emb, &self.sched_emb, &self.w_in, &self.b_in];
        for l in &self.layers {
            v.push(&l.w_self);
            for w in &l.w_rel {
                v.push(w);
            }
            v.push(&l.b);
        }
        v.push(&self.w_out);
        v.push(&self.b_out);
        v.push(&self.w_static);
        v.push(&self.w_flow);
        v.push(&self.b_flow);
        v
    }

    /// Flat mutable view, same order as [`Self::tensors`].
    #[allow(clippy::vec_init_then_push)]
    pub fn tensors_mut(&mut self) -> Vec<&mut Mat> {
        let mut v: Vec<&mut Mat> = Vec::new();
        v.push(&mut self.tok_emb);
        v.push(&mut self.type_emb);
        v.push(&mut self.sched_emb);
        v.push(&mut self.w_in);
        v.push(&mut self.b_in);
        for l in &mut self.layers {
            v.push(&mut l.w_self);
            for w in &mut l.w_rel {
                v.push(w);
            }
            v.push(&mut l.b);
        }
        v.push(&mut self.w_out);
        v.push(&mut self.b_out);
        v.push(&mut self.w_static);
        v.push(&mut self.w_flow);
        v.push(&mut self.b_flow);
        v
    }

    /// Shapes of all tensors (for optimizer construction).
    pub fn shapes(&self) -> Vec<(usize, usize)> {
        self.tensors().iter().map(|m| (m.rows, m.cols)).collect()
    }

    /// True when any parameter is NaN or ±Inf. A model in this state must
    /// never be deployed: every forward pass would poison its outputs. The
    /// serving layer's hot-swap gate checks this before installing a
    /// refreshed candidate.
    pub fn has_non_finite(&self) -> bool {
        self.tensors().iter().any(|m| m.data.iter().any(|x| !x.is_finite()))
    }

    /// Zero every tensor (gradient reset).
    pub fn zero_all(&mut self) {
        for t in self.tensors_mut() {
            t.zero();
        }
    }

    /// `self += other` tensor-wise. The data-parallel trainer reduces
    /// per-graph gradient shards through this in a fixed (shard-index)
    /// order, which is what makes training bit-identical across thread
    /// counts.
    pub fn add_assign(&mut self, other: &PicParams) {
        for (t, o) in self.tensors_mut().into_iter().zip(other.tensors()) {
            t.add_assign(o);
        }
    }
}

/// Mean-aggregate `h` along type-`r` edges into the *compacted* message
/// matrix: row `j` of `out` is `mean_{u→v} h[u]` for `v = touched[j]` (see
/// [`snowcat_graph::KindAdj::touched`]). Rows for vertices with no incoming
/// edge of this type — the vast majority, per kind — are simply not
/// materialized, so the downstream `W_r` matmul runs on `touched` rows
/// instead of all `n`.
///
/// A gather per destination through the in-CSR; per-destination accumulation
/// is in edge-list order (the CSR build is stable), so each computed row is
/// bit-identical to scanning the flat edge list. `out` must be a zeroed
/// `touched × hidden` matrix.
#[inline(always)]
fn aggregate_compact_into(adj: &CsrAdj, r: usize, h: &Mat, out: &mut Mat) {
    let ka = adj.kind(r);
    debug_assert_eq!(out.rows, ka.touched().len());
    for (row, &v) in ka.touched().iter().enumerate() {
        let srcs = ka.in_sources(v as usize);
        let out_row = out.row_mut(row);
        for &u in srcs {
            for (o, s) in out_row.iter_mut().zip(h.row(u as usize)) {
                *o += s;
            }
        }
        if srcs.len() > 1 {
            let d = srcs.len() as f32;
            for o in out_row {
                *o /= d;
            }
        }
    }
}

/// Adjoint of [`aggregate_compact_into`]:
/// `grad_h[u] += Σ_{u→v} grad_m[compact(v)] / indeg[v]`, a gather per
/// source through the out-CSR (no scatter, no per-edge copies). `grad_m` is
/// the compacted message gradient (`touched × hidden`).
fn aggregate_backward_into(adj: &CsrAdj, r: usize, grad_m: &Mat, grad_h: &mut Mat) {
    let ka = adj.kind(r);
    for u in 0..grad_h.rows {
        let dsts = ka.out_dests(u);
        if dsts.is_empty() {
            continue;
        }
        let grad_row = grad_h.row_mut(u);
        for &v in dsts {
            let d = (ka.in_degree(v as usize).max(1)) as f32;
            let row = ka.compact_row(v as usize).expect("edge destination must be touched");
            for (o, &g) in grad_row.iter_mut().zip(grad_m.row(row)) {
                *o += g / d;
            }
        }
    }
}

/// Scatter-add the compacted per-kind message transform into `z`:
/// `z[touched[j]] += mw[j]` row-wise, `j` ascending. One (rounded) add per
/// element of the *completed* `W_r`-transformed message row — this row-add
/// order is part of the model's reduction contract (see the module doc).
#[inline(always)]
fn scatter_add_rows(ka: &snowcat_graph::KindAdj, mw: &Mat, z: &mut Mat) {
    for (row, &v) in ka.touched().iter().enumerate() {
        for (o, &x) in z.row_mut(v as usize).iter_mut().zip(mw.row(row)) {
            *o += x;
        }
    }
}

/// Per-vertex head logit: `b_out + h · w_out`, k ascending.
#[inline(always)]
fn head_logit(h_row: &[f32], w_out: &Mat, b_out: &Mat) -> f32 {
    let mut acc = b_out.data[0];
    for (hv, wv) in h_row.iter().zip(w_out.data.iter()) {
        acc += hv * wv;
    }
    acc
}

/// What the forward pass records for the backward pass: the activations the
/// inference body would otherwise hand back to its scratch arena.
#[derive(Default)]
pub struct ForwardCache {
    /// CSR adjacency of the graph (built once; backward reuses it).
    adj: CsrAdj,
    /// Input features (type, schedule-mark, token and static embeddings), n×d.
    x: Mat,
    /// The hidden state entering each layer, then the final one: `hs[0]` is
    /// `h0 = relu(b_in + x @ w_in)` and the last entry feeds the heads.
    hs: Vec<Mat>,
    /// Compacted aggregated messages, layer-major: entry
    /// `layer * NUM_EDGE_TYPES + r` is `touched_r × d` (empty for a kind with
    /// no edges).
    msgs: Vec<Mat>,
    /// Each layer's `relu(z)` before the residual add. It is ≤ 0 exactly
    /// where `z` is, so it carries the layer's ReLU mask.
    relu: Vec<Mat>,
    /// Per-vertex logits.
    pub logits: Vec<f32>,
}

impl ForwardCache {
    /// The final hidden state, which both heads read.
    fn h_final(&self) -> &Mat {
        self.hs.last().expect("a recorded forward pass ends with its final hidden state")
    }
}

/// Reusable per-session state for allocation-free inference: a [`Scratch`]
/// arena for intermediate matrices and a rebuildable [`CsrAdj`].
///
/// Create one per inference session (e.g. per predictor batch) and pass it
/// to [`PicModel::forward_into`] for every graph; after the first
/// warmup graph of each size class, forward passes perform no heap
/// allocation ([`PicSession::allocations`] stops advancing).
#[derive(Debug, Default)]
pub struct PicSession {
    scratch: Scratch,
    adj: CsrAdj,
}

impl PicSession {
    /// A fresh, empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of scratch-buffer heap allocations performed so far (see
    /// [`Scratch::allocations`]) — stable once the session is warmed up.
    pub fn allocations(&self) -> usize {
        self.scratch.allocations()
    }
}

/// The PIC model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PicModel {
    /// Hyperparameters.
    pub cfg: PicConfig,
    /// Learnable parameters.
    pub params: PicParams,
}

impl PicModel {
    /// Freshly initialized model.
    pub fn new(cfg: PicConfig) -> Self {
        let params = PicParams::init(&cfg);
        Self { cfg, params }
    }

    /// Write input features into `x` (n×d, assumed zeroed): vertex-type and
    /// schedule-mark embeddings plus the mean token embedding, all explicit
    /// row gathers — no temporaries, no dense one-hot matmuls.
    #[inline(always)]
    fn input_features_into(&self, graph: &CtGraph, x: &mut Mat) {
        for (i, v) in graph.verts.iter().enumerate() {
            let trow = self.params.type_emb.row(match v.kind {
                VertKind::Scb => 0,
                VertKind::Urb => 1,
            });
            let srow = self.params.sched_emb.row(v.sched_mark.index());
            let row = x.row_mut(i);
            for ((o, &t), &m) in row.iter_mut().zip(trow).zip(srow) {
                *o = t + m;
            }
            if !v.tokens.is_empty() {
                let inv = 1.0 / v.tokens.len() as f32;
                for &tok in &v.tokens {
                    let e = self.params.tok_emb.row(tok as usize);
                    for (o, &t) in row.iter_mut().zip(e) {
                        *o += t * inv;
                    }
                }
            }
            if self.cfg.static_channels > 0 {
                let feats = v.static_feats.unit();
                for (c, &f) in feats.iter().take(self.cfg.static_channels).enumerate() {
                    if f != 0.0 {
                        let srow = self.params.w_static.row(c);
                        for (o, &s) in row.iter_mut().zip(srow) {
                            *o += f * s;
                        }
                    }
                }
            }
        }
    }

    /// Forward pass returning probabilities and the activation cache: the
    /// body of [`PicModel::forward_into`] on a fresh session, recording into
    /// a new [`ForwardCache`], which then takes the session's adjacency.
    pub fn forward_cached(&self, graph: &CtGraph) -> (Vec<f32>, ForwardCache) {
        let mut session = PicSession::new();
        let mut cache = ForwardCache::default();
        let mut probs = Vec::new();
        self.forward_dispatch(graph, &mut session, &mut probs, Some(&mut cache));
        cache.adj = session.adj;
        (probs, cache)
    }

    /// Inference forward pass into a caller-owned probability buffer, using
    /// the session's scratch arena and reusable adjacency; performs zero heap
    /// allocations once the session is warmed up.
    ///
    /// The pass is compiled twice from one `#[inline(always)]` body: a
    /// portable copy for baseline x86-64 and an AVX2 copy that runs when the
    /// CPU reports AVX2 (checked on each call; std caches the CPUID result).
    /// Calling the AVX2 copy is the crate's one `unsafe` operation. The copies
    /// give the same bits: every kernel they reach keeps its k-ascending
    /// summation order, and Rust never contracts `a * b + c` into an FMA, so
    /// wider registers change only how many columns are computed at once
    /// (see the "Vector width" section of [`crate::tensor`]).
    pub fn forward_into(&self, graph: &CtGraph, session: &mut PicSession, probs: &mut Vec<f32>) {
        self.forward_dispatch(graph, session, probs, None);
    }

    /// Run the AVX2 copy of the forward body when the CPU has AVX2, else the
    /// portable copy.
    fn forward_dispatch(
        &self,
        graph: &CtGraph,
        session: &mut PicSession,
        probs: &mut Vec<f32>,
        rec: Option<&mut ForwardCache>,
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: `forward_into_avx2` is safe code whose only requirement
            // is that the CPU supports AVX2, which the detection above checked.
            #[allow(unsafe_code)]
            unsafe {
                self.forward_into_avx2(graph, session, probs, rec)
            };
            return;
        }
        self.forward_into_body(graph, session, probs, rec);
    }

    /// The AVX2 copy of the forward pass.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn forward_into_avx2(
        &self,
        graph: &CtGraph,
        session: &mut PicSession,
        probs: &mut Vec<f32>,
        rec: Option<&mut ForwardCache>,
    ) {
        self.forward_into_body(graph, session, probs, rec);
    }

    /// The model's one forward pass, the body of both copies; called
    /// directly, it compiles as the portable copy. With a recorder `rec`
    /// (which must start empty) it keeps the activations the backward pass
    /// reads instead of returning them to the scratch arena.
    #[inline(always)]
    fn forward_into_body(
        &self,
        graph: &CtGraph,
        session: &mut PicSession,
        probs: &mut Vec<f32>,
        mut rec: Option<&mut ForwardCache>,
    ) {
        let n = graph.num_verts();
        let d = self.cfg.hidden;
        probs.clear();
        let PicSession { scratch, adj } = session;
        adj.rebuild(graph);
        let mut x = scratch.take(n, d);
        self.input_features_into(graph, &mut x);
        // Fused input transform: h0 = relu(b_in + x @ w_in).
        let mut h = scratch.take(n, d);
        x.matmul_bias_relu_into(&self.params.w_in, &self.params.b_in, &mut h);
        match rec.as_deref_mut() {
            Some(c) => c.x = x,
            None => scratch.put(x),
        }

        let mut z = scratch.take(n, d);
        for layer in &self.params.layers {
            z.fill_row_broadcast(&layer.b);
            h.matmul_acc_into(&layer.w_self, &mut z);
            for (r, w_rel) in layer.w_rel.iter().enumerate() {
                let ka = adj.kind(r);
                let t = ka.touched().len();
                let mut m = scratch.take(t, d);
                if t > 0 {
                    aggregate_compact_into(adj, r, &h, &mut m);
                    let mut mw = scratch.take(t, d);
                    m.matmul_into(w_rel, &mut mw);
                    scatter_add_rows(ka, &mw, &mut z);
                    scratch.put(mw);
                }
                match rec.as_deref_mut() {
                    Some(c) => c.msgs.push(m),
                    None => scratch.put(m),
                }
            }
            // h_out = relu(z) + h_in, then the old h buffer becomes next z
            // (a fresh one when the recorder keeps h_in).
            z.relu_inplace();
            if let Some(c) = rec.as_deref_mut() {
                c.relu.push(z.clone());
            }
            z.add_assign(&h);
            std::mem::swap(&mut h, &mut z);
            if let Some(c) = rec.as_deref_mut() {
                c.hs.push(std::mem::replace(&mut z, scratch.take(n, d)));
            }
        }
        scratch.put(z);

        probs.extend((0..n).map(|i| head_logit(h.row(i), &self.params.w_out, &self.params.b_out)));
        match rec {
            Some(c) => {
                c.logits.extend_from_slice(probs);
                c.hs.push(h);
            }
            None => scratch.put(h),
        }
        for p in probs.iter_mut() {
            *p = sigmoid(*p);
        }
    }

    /// Forward pass returning only probabilities (one-shot inference; for
    /// repeated inference hold a [`PicSession`] and use
    /// [`PicModel::forward_into`]).
    pub fn forward(&self, graph: &CtGraph) -> Vec<f32> {
        let mut session = PicSession::new();
        let mut probs = Vec::new();
        self.forward_into(graph, &mut session, &mut probs);
        probs
    }

    /// Backward pass: accumulates gradients into `grads` and returns the
    /// mean per-vertex BCE loss of this graph. Intermediate matrices come
    /// from `scratch`, so a reused arena makes training steps
    /// allocation-free too.
    pub fn backward(
        &self,
        graph: &CtGraph,
        cache: &ForwardCache,
        labels: &[bool],
        grads: &mut PicParams,
        scratch: &mut Scratch,
    ) -> f32 {
        self.backward_heads(graph, cache, labels, None, grads, scratch).0
    }

    /// Joint backward for the vertex-coverage head *and* the inter-thread
    /// flow head (§6 future work). `flow_labels` is aligned with
    /// `graph.edges`; only `InterFlow` edges contribute. Returns
    /// `(vertex_loss, flow_loss)`.
    pub fn backward_with_flows(
        &self,
        graph: &CtGraph,
        cache: &ForwardCache,
        labels: &[bool],
        flow_labels: &[bool],
        grads: &mut PicParams,
        scratch: &mut Scratch,
    ) -> (f32, f32) {
        self.backward_heads(graph, cache, labels, Some(flow_labels), grads, scratch)
    }

    /// Both backward passes: the vertex-coverage head, the flow head when
    /// `flow_labels` is given, then the shared trunk. Returns
    /// `(vertex_loss, flow_loss)`, the flow loss 0 without flow labels.
    #[allow(clippy::needless_range_loop)]
    fn backward_heads(
        &self,
        graph: &CtGraph,
        cache: &ForwardCache,
        labels: &[bool],
        flow_labels: Option<&[bool]>,
        grads: &mut PicParams,
        scratch: &mut Scratch,
    ) -> (f32, f32) {
        let n = graph.num_verts();
        assert_eq!(labels.len(), n, "label count mismatch");
        if let Some(flow_labels) = flow_labels {
            assert_eq!(flow_labels.len(), graph.edges.len(), "flow label count mismatch");
        }
        if n == 0 {
            return (0.0, 0.0);
        }
        let h_final = cache.h_final();
        let w = self.cfg.pos_weight;
        let inv_n = 1.0 / n as f32;
        let vw = |i: usize| {
            if graph.verts[i].kind == VertKind::Urb {
                self.cfg.urb_weight
            } else {
                1.0
            }
        };
        let vertex_loss: f32 = cache
            .logits
            .iter()
            .zip(labels)
            .enumerate()
            .map(|(i, (&z, &y))| vw(i) * bce_with_logit(z, y, w))
            .sum::<f32>()
            * inv_n;

        // Head gradients.
        let mut dh = scratch.take(n, self.cfg.hidden);
        for i in 0..n {
            let dz = vw(i) * bce_grad(cache.logits[i], labels[i], w) * inv_n;
            grads.b_out.data[0] += dz;
            for (gw, hv) in grads.w_out.data.iter_mut().zip(h_final.row(i)) {
                *gw += dz * hv;
            }
            for (g, wv) in dh.row_mut(i).iter_mut().zip(&self.params.w_out.data) {
                *g += dz * wv;
            }
        }

        // Flow head: z_e = h_u · (W_flow h_v) + b_flow on InterFlow edges.
        let mut flow_loss = 0.0f32;
        if let Some(flow_labels) = flow_labels {
            let inter: Vec<usize> = graph
                .edges
                .iter()
                .enumerate()
                .filter(|(_, e)| e.kind == snowcat_graph::EdgeKind::InterFlow)
                .map(|(i, _)| i)
                .collect();
            if !inter.is_empty() {
                let inv_e = self.cfg.flow_weight / inter.len() as f32;
                let d = self.cfg.hidden;
                let mut wv_ = scratch.take(1, d);
                let mut wtu = scratch.take(1, d);
                for &ei in &inter {
                    let e = graph.edges[ei];
                    let (u, v) = (e.from as usize, e.to as usize);
                    let hu = h_final.row(u);
                    let hv = h_final.row(v);
                    // wv_ = W_flow @ h_v ; z = h_u · wv_ + b.
                    for (o, wrow) in wv_.data.iter_mut().zip(self.params.w_flow.data.chunks(d)) {
                        let mut acc = 0.0;
                        for (w_, hvv) in wrow.iter().zip(hv) {
                            acc += w_ * hvv;
                        }
                        *o = acc;
                    }
                    let z: f32 = hu.iter().zip(&wv_.data).map(|(a, b)| a * b).sum::<f32>()
                        + self.params.b_flow.data[0];
                    let y = flow_labels[ei];
                    flow_loss += bce_with_logit(z, y, 1.0) * inv_e;
                    let dz = bce_grad(z, y, 1.0) * inv_e;
                    grads.b_flow.data[0] += dz;
                    // dW[r][c] += dz * hu[r] * hv[c]; dh_u += dz * W hv; dh_v += dz * Wᵀ hu.
                    for r_i in 0..d {
                        let gr = &mut grads.w_flow.data[r_i * d..(r_i + 1) * d];
                        let hur = hu[r_i];
                        for (g, &hvv) in gr.iter_mut().zip(hv) {
                            *g += dz * hur * hvv;
                        }
                    }
                    for (g, wvv) in dh.row_mut(u).iter_mut().zip(&wv_.data) {
                        *g += dz * wvv;
                    }
                    // Wᵀ hu
                    wtu.data.fill(0.0);
                    for r_i in 0..d {
                        let wrow = &self.params.w_flow.data[r_i * d..(r_i + 1) * d];
                        let hur = hu[r_i];
                        for (o, w_) in wtu.data.iter_mut().zip(wrow) {
                            *o += hur * w_;
                        }
                    }
                    for (g, t) in dh.row_mut(v).iter_mut().zip(&wtu.data) {
                        *g += dz * t;
                    }
                }
                scratch.put(wv_);
                scratch.put(wtu);
            }
        }

        self.backward_from_dh(graph, cache, dh, grads, scratch);
        (vertex_loss, flow_loss)
    }

    /// Predicted inter-thread-flow probabilities, aligned with
    /// `graph.edges` (0.0 for non-InterFlow edges).
    pub fn forward_flows(&self, graph: &CtGraph, cache: &ForwardCache) -> Vec<f32> {
        let d = self.cfg.hidden;
        let h = cache.h_final();
        graph
            .edges
            .iter()
            .map(|e| {
                if e.kind != snowcat_graph::EdgeKind::InterFlow {
                    return 0.0;
                }
                let hu = h.row(e.from as usize);
                let hv = h.row(e.to as usize);
                let mut z = self.params.b_flow.data[0];
                for (r_i, wrow) in (0..d).zip(self.params.w_flow.data.chunks(d)) {
                    let mut acc = 0.0;
                    for (w_, hvv) in wrow.iter().zip(hv) {
                        acc += w_ * hvv;
                    }
                    z += hu[r_i] * acc;
                }
                sigmoid(z)
            })
            .collect()
    }

    /// Shared trunk backward: given the gradient at the final hidden state,
    /// propagate through layers, input transform and embeddings. `dh` must
    /// come from `scratch` (its buffer is returned to the pool).
    fn backward_from_dh(
        &self,
        graph: &CtGraph,
        cache: &ForwardCache,
        mut dh: Mat,
        grads: &mut PicParams,
        scratch: &mut Scratch,
    ) {
        let adj = &cache.adj;
        let (n, d) = (dh.rows, dh.cols);
        let mut dz = scratch.take(n, d);
        let mut dm = scratch.take(n, d);
        // Layers, in reverse. `dh` doubles as dh_in: the residual path means
        // dh_in starts as a copy of dh, so we accumulate into it directly.
        for (li, layer) in self.params.layers.iter().enumerate().rev() {
            let h_in = &cache.hs[li];
            // h_out = relu(z) + h_in  →  dz = dh ⊙ relu'(z); dh_in = dh.
            dz.data.copy_from_slice(&dh.data);
            dz.relu_backward_mask(&cache.relu[li]);
            // Self path.
            h_in.matmul_tn_acc_into(&dz, &mut grads.layers[li].w_self);
            dz.matmul_nt_acc_into(&layer.w_self, &mut dh, scratch);
            // Relational paths, on the compacted message rows: gather the
            // touched rows of dz, push gradients through the t×d message
            // matmul, then gather back through the out-CSR.
            for (r, w_rel) in layer.w_rel.iter().enumerate() {
                let ka = adj.kind(r);
                let t = ka.touched().len();
                if t == 0 {
                    continue;
                }
                let m = &cache.msgs[li * NUM_EDGE_TYPES + r];
                let mut dzc = scratch.take(t, d);
                for (row, &v) in ka.touched().iter().enumerate() {
                    dzc.row_mut(row).copy_from_slice(dz.row(v as usize));
                }
                m.matmul_tn_acc_into(&dzc, &mut grads.layers[li].w_rel[r]);
                let mut dmc = scratch.take(t, d);
                dzc.matmul_nt_into(w_rel, &mut dmc, scratch);
                aggregate_backward_into(adj, r, &dmc, &mut dh);
                scratch.put(dzc);
                scratch.put(dmc);
            }
            dz.col_sum_acc_into(&mut grads.layers[li].b);
        }

        // Input transform: h0 = relu(b_in + x @ w_in).
        dz.data.copy_from_slice(&dh.data);
        dz.relu_backward_mask(&cache.hs[0]);
        cache.x.matmul_tn_acc_into(&dz, &mut grads.w_in);
        dz.col_sum_acc_into(&mut grads.b_in);
        let dx = &mut dm;
        dz.matmul_nt_into(&self.params.w_in, dx, scratch);

        // Embedding gradients: explicit row gathers (grads and the cache are
        // distinct structs, so no per-vertex copies are needed).
        for (i, v) in graph.verts.iter().enumerate() {
            let trow = match v.kind {
                VertKind::Scb => 0,
                VertKind::Urb => 1,
            };
            let dxr = dx.row(i);
            for (g, &dv) in grads.type_emb.row_mut(trow).iter_mut().zip(dxr) {
                *g += dv;
            }
            for (g, &dv) in grads.sched_emb.row_mut(v.sched_mark.index()).iter_mut().zip(dxr) {
                *g += dv;
            }
            if !v.tokens.is_empty() {
                let inv = 1.0 / v.tokens.len() as f32;
                for &tok in &v.tokens {
                    for (g, &dv) in grads.tok_emb.row_mut(tok as usize).iter_mut().zip(dxr) {
                        *g += dv * inv;
                    }
                }
            }
            if self.cfg.static_channels > 0 {
                let feats = v.static_feats.unit();
                for (c, &f) in feats.iter().take(self.cfg.static_channels).enumerate() {
                    if f != 0.0 {
                        for (g, &dv) in grads.w_static.row_mut(c).iter_mut().zip(dxr) {
                            *g += f * dv;
                        }
                    }
                }
            }
        }
        scratch.put(dz);
        scratch.put(dm);
        scratch.put(dh);
    }
}

/// The three naive baseline predictors from Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BaselinePredictor {
    /// Predict every block positive ("a simple static analysis approach").
    AllPos,
    /// Fair coin: positive with p = 0.5.
    FairCoin,
    /// Biased coin: positive with the training-set URB base rate.
    BiasedCoin(f64),
}

impl BaselinePredictor {
    /// Produce predictions for a graph.
    pub fn predict<R: Rng>(&self, rng: &mut R, n: usize) -> Vec<bool> {
        match *self {
            BaselinePredictor::AllPos => vec![true; n],
            BaselinePredictor::FairCoin => (0..n).map(|_| rng.gen_bool(0.5)).collect(),
            BaselinePredictor::BiasedCoin(p) => {
                (0..n).map(|_| rng.gen_bool(p.clamp(0.0, 1.0))).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snowcat_graph::{Edge, EdgeKind, Vertex};
    use snowcat_kernel::{BlockId, ThreadId};

    fn toy_graph(n: usize) -> CtGraph {
        let verts = (0..n)
            .map(|i| Vertex {
                block: BlockId(i as u32),
                thread: ThreadId((i % 2) as u8),
                kind: if i % 3 == 0 { VertKind::Urb } else { VertKind::Scb },
                sched_mark: if i % 5 == 0 {
                    snowcat_graph::SchedMark::YieldSource
                } else {
                    snowcat_graph::SchedMark::None
                },
                may_race: false,
                tokens: vec![(1 + i as u32 % 50), (1 + (i as u32 * 7) % 50)],
                static_feats: Default::default(),
            })
            .collect();
        let edges = (0..n.saturating_sub(1))
            .map(|i| Edge {
                from: i as u32,
                to: (i + 1) as u32,
                kind: EdgeKind::ALL[i % NUM_EDGE_TYPES],
            })
            .collect();
        CtGraph { verts, edges }
    }

    #[test]
    fn forward_shapes_and_range() {
        let m = PicModel::new(PicConfig::default());
        let g = toy_graph(17);
        let p = m.forward(&g);
        assert_eq!(p.len(), 17);
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn forward_is_deterministic() {
        let m = PicModel::new(PicConfig::default());
        let g = toy_graph(9);
        assert_eq!(m.forward(&g), m.forward(&g));
    }

    #[test]
    fn session_forward_matches_cached_forward_bitwise() {
        let m = PicModel::new(PicConfig::default());
        let mut session = PicSession::new();
        let mut probs = Vec::new();
        for n in [1, 2, 9, 17, 40] {
            let g = toy_graph(n);
            m.forward_into(&g, &mut session, &mut probs);
            let (cached, _) = m.forward_cached(&g);
            assert_eq!(probs, cached, "session vs cached mismatch at n={n}");
        }
    }

    /// A random graph of `n` vertices: both vertex kinds, every schedule
    /// mark, 0–6 tokens, random static channels, and up to `2n` edges of
    /// every kind (self-loops and repeated edges included).
    fn random_graph(rng: &mut ChaCha8Rng, n: usize) -> CtGraph {
        let verts = (0..n)
            .map(|i| Vertex {
                block: BlockId(i as u32),
                thread: ThreadId(rng.gen_range(0..2u8)),
                kind: if rng.gen_bool(0.5) { VertKind::Urb } else { VertKind::Scb },
                sched_mark: [
                    snowcat_graph::SchedMark::None,
                    snowcat_graph::SchedMark::YieldSource,
                    snowcat_graph::SchedMark::ResumeTarget,
                ][rng.gen_range(0..NUM_SCHED_MARKS)],
                may_race: rng.gen_bool(0.5),
                tokens: (0..rng.gen_range(0..7usize))
                    .map(|_| rng.gen_range(1..VOCAB_SIZE as u32))
                    .collect(),
                static_feats: snowcat_graph::StaticFeats {
                    alias_density: rng.gen_range(0..20u8),
                    lockset: rng.gen_range(0..4u8),
                    race_degree: rng.gen_range(0..20u8),
                },
            })
            .collect();
        let edges = if n == 0 {
            Vec::new()
        } else {
            (0..rng.gen_range(0..2 * n + 1))
                .map(|_| Edge {
                    from: rng.gen_range(0..n as u32),
                    to: rng.gen_range(0..n as u32),
                    kind: EdgeKind::ALL[rng.gen_range(0..NUM_EDGE_TYPES)],
                })
                .collect()
        };
        CtGraph { verts, edges }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The portable and AVX2 copies of the forward body, without a
        /// recorder and with one (`forward_cached`), give the same
        /// probability bits, over hidden widths that cross the 8- and
        /// 32-wide kernel panels.
        #[test]
        fn forward_isa_copies_are_bit_identical(
            hidden_ix in 0usize..4,
            layers in 1usize..6,
            static_on in proptest::bool::ANY,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            let cfg = PicConfig {
                hidden: [8, 16, 32, 48][hidden_ix],
                layers,
                static_channels: if static_on { snowcat_graph::STATIC_CHANNELS } else { 0 },
                seed,
                ..Default::default()
            };
            let mut model = PicModel::new(cfg);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for t in model.params.tensors_mut() {
                t.data.iter_mut().for_each(|x| *x = rng.gen_range(-1.0..1.0));
            }
            #[cfg(target_arch = "x86_64")]
            let avx2 = std::is_x86_feature_detected!("avx2");
            #[cfg(not(target_arch = "x86_64"))]
            let avx2 = false;
            if !avx2 {
                eprintln!("no AVX2 on this CPU: checking the portable forward copy only");
            }
            let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (mut portable, mut vector) = (PicSession::new(), PicSession::new());
            let (mut p_portable, mut p_vector) = (Vec::new(), Vec::new());
            for n in [0, 1, 2, 7, 19, 40] {
                let g = random_graph(&mut rng, n);
                let (cached, _) = model.forward_cached(&g);
                model.forward_into_body(&g, &mut portable, &mut p_portable, None);
                proptest::prop_assert_eq!(bits(&p_portable), bits(&cached));
                if avx2 {
                    model.forward_into(&g, &mut vector, &mut p_vector);
                    proptest::prop_assert_eq!(bits(&p_vector), bits(&cached));
                }
            }
        }
    }

    #[test]
    fn session_forward_is_allocation_free_after_warmup() {
        let m = PicModel::new(PicConfig::default());
        let g = toy_graph(33);
        let mut session = PicSession::new();
        let mut probs = Vec::new();
        m.forward_into(&g, &mut session, &mut probs); // warmup
        let warm = session.allocations();
        assert!(warm > 0);
        for _ in 0..5 {
            m.forward_into(&g, &mut session, &mut probs);
        }
        assert_eq!(session.allocations(), warm, "steady-state forward allocated");
        // Smaller graphs fit in the warmed pool too.
        m.forward_into(&toy_graph(8), &mut session, &mut probs);
        assert_eq!(session.allocations(), warm);
    }

    #[test]
    fn csr_aggregate_matches_edge_list_reference() {
        // The CSR gather must reproduce the flat edge-list scan bit-for-bit.
        let g = toy_graph(23);
        let adj = CsrAdj::build(&g);
        let h = Mat::from_fn(23, 5, |r, c| ((r * 31 + c * 7) % 13) as f32 * 0.37 - 1.9);
        for r in 0..NUM_EDGE_TYPES {
            let ka = adj.kind(r);
            let t = ka.touched().len();
            let mut out = Mat::zeros(t, 5);
            aggregate_compact_into(&adj, r, &h, &mut out);
            // Reference: flat edge scan, then mean, over the full vertex set.
            let mut expect = Mat::zeros(23, 5);
            let mut indeg = [0.0f32; 23];
            for e in g.edges.iter().filter(|e| e.kind.index() == r) {
                indeg[e.to as usize] += 1.0;
                for (o, s) in expect.row_mut(e.to as usize).iter_mut().zip(h.row(e.from as usize)) {
                    *o += s;
                }
            }
            for (v, &d) in indeg.iter().enumerate() {
                if d > 1.0 {
                    for o in expect.row_mut(v) {
                        *o /= d;
                    }
                }
            }
            // Compact rows match their vertices; untouched vertices are the
            // ones with an all-zero (never materialized) reference row.
            for (v, &d) in indeg.iter().enumerate() {
                match ka.compact_row(v) {
                    Some(row) => assert_eq!(out.row(row), expect.row(v), "kind {r} vertex {v}"),
                    None => assert_eq!(d, 0.0, "kind {r} vertex {v} untouched but has edges"),
                }
            }
        }
    }

    #[test]
    fn empty_graph_forward_and_backward() {
        let m = PicModel::new(PicConfig::default());
        let g = CtGraph { verts: vec![], edges: vec![] };
        let (p, cache) = m.forward_cached(&g);
        assert!(p.is_empty());
        assert!(m.forward(&g).is_empty());
        let mut grads = m.params.zeros_like();
        let mut scratch = Scratch::new();
        let loss = m.backward(&g, &cache, &[], &mut grads, &mut scratch);
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        // Numerical gradient check on a tiny model — the canonical test that
        // the hand-derived backward is correct.
        let cfg =
            PicConfig { hidden: 6, layers: 2, pos_weight: 1.7, seed: 5, ..Default::default() };
        let mut model = PicModel::new(cfg);
        let g = toy_graph(7);
        let labels: Vec<bool> = (0..7).map(|i| i % 2 == 0).collect();

        let loss_of = |m: &PicModel| {
            let (_, cache) = m.forward_cached(&g);
            let mut tmp = m.params.zeros_like();
            let mut scratch = Scratch::new();
            m.backward(&g, &cache, &labels, &mut tmp, &mut scratch)
        };

        let mut grads = model.params.zeros_like();
        let (_, cache) = model.forward_cached(&g);
        let mut scratch = Scratch::new();
        model.backward(&g, &cache, &labels, &mut grads, &mut scratch);

        // Probe a handful of coordinates in several tensors.
        let eps = 3e-3f32;
        let probes: Vec<(usize, usize)> = vec![(0, 0), (2, 1), (3, 0), (4, 3), (12, 2)];
        let flat_grads: Vec<Mat> = grads.tensors().into_iter().cloned().collect();
        for (ti, ei) in probes {
            let shapes = model.params.shapes();
            if ti >= shapes.len() {
                continue;
            }
            let len = shapes[ti].0 * shapes[ti].1;
            let ei = ei.min(len - 1);
            let orig = model.params.tensors()[ti].data[ei];
            model.params.tensors_mut()[ti].data[ei] = orig + eps;
            let lp = loss_of(&model);
            model.params.tensors_mut()[ti].data[ei] = orig - eps;
            let lm = loss_of(&model);
            model.params.tensors_mut()[ti].data[ei] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = flat_grads[ti].data[ei];
            assert!(
                (num - ana).abs() < 2e-2 + 0.15 * num.abs().max(ana.abs()),
                "tensor {ti} elem {ei}: numerical {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_fixed_graph() {
        use crate::optim::{Adam, AdamConfig};
        let cfg = PicConfig { hidden: 8, layers: 2, ..Default::default() };
        let mut model = PicModel::new(cfg);
        let g = toy_graph(12);
        let labels: Vec<bool> = (0..12).map(|i| i % 4 == 0).collect();
        let mut opt =
            Adam::new(AdamConfig { lr: 0.02, ..Default::default() }, &model.params.shapes());
        let mut scratch = Scratch::new();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let (_, cache) = model.forward_cached(&g);
            let mut grads = model.params.zeros_like();
            let loss = model.backward(&g, &cache, &labels, &mut grads, &mut scratch);
            let gl: Vec<&Mat> = grads.tensors();
            let mut pl = model.params.tensors_mut();
            opt.step(&mut pl, &gl);
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(last < first.unwrap() * 0.5, "loss {first:?} -> {last}");
    }

    #[test]
    fn flow_head_gradient_check() {
        // Finite-difference check of the flow-head backward (trunk included).
        let cfg = PicConfig {
            hidden: 6,
            layers: 1,
            pos_weight: 1.0,
            urb_weight: 1.0,
            flow_weight: 1.3,
            seed: 9,
            ..Default::default()
        };
        let mut model = PicModel::new(cfg);
        let g = {
            let mut g = toy_graph(8);
            // Force a couple of InterFlow edges.
            g.edges.push(Edge { from: 0, to: 5, kind: EdgeKind::InterFlow });
            g.edges.push(Edge { from: 3, to: 6, kind: EdgeKind::InterFlow });
            g
        };
        let labels: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        let flows: Vec<bool> =
            g.edges.iter().map(|e| e.kind == EdgeKind::InterFlow && e.from == 0).collect();

        let loss_of = |m: &PicModel| {
            let (_, cache) = m.forward_cached(&g);
            let mut tmp = m.params.zeros_like();
            let mut scratch = Scratch::new();
            let (lv, lf) =
                m.backward_with_flows(&g, &cache, &labels, &flows, &mut tmp, &mut scratch);
            lv + lf
        };
        let mut grads = model.params.zeros_like();
        let (_, cache) = model.forward_cached(&g);
        let mut scratch = Scratch::new();
        model.backward_with_flows(&g, &cache, &labels, &flows, &mut grads, &mut scratch);
        let flat: Vec<Mat> = grads.tensors().into_iter().cloned().collect();
        let eps = 3e-3f32;
        // Probe the flow tensors (last two) and a trunk tensor.
        let n_tensors = model.params.shapes().len();
        for (ti, ei) in [(n_tensors - 2, 3usize), (n_tensors - 1, 0), (2, 1), (4, 2)] {
            let len = {
                let sh = model.params.shapes()[ti];
                sh.0 * sh.1
            };
            let ei = ei.min(len - 1);
            let orig = model.params.tensors()[ti].data[ei];
            model.params.tensors_mut()[ti].data[ei] = orig + eps;
            let lp = loss_of(&model);
            model.params.tensors_mut()[ti].data[ei] = orig - eps;
            let lm = loss_of(&model);
            model.params.tensors_mut()[ti].data[ei] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = flat[ti].data[ei];
            assert!(
                (num - ana).abs() < 2e-2 + 0.15 * num.abs().max(ana.abs()),
                "flow grad tensor {ti} elem {ei}: numerical {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn forward_flows_scores_only_interflow_edges() {
        let m = PicModel::new(PicConfig { hidden: 8, layers: 1, ..Default::default() });
        let mut g = toy_graph(6);
        g.edges.push(Edge { from: 1, to: 4, kind: EdgeKind::InterFlow });
        let (_, cache) = m.forward_cached(&g);
        let flows = m.forward_flows(&g, &cache);
        assert_eq!(flows.len(), g.edges.len());
        for (e, &f) in g.edges.iter().zip(&flows) {
            if e.kind == EdgeKind::InterFlow {
                assert!((0.0..=1.0).contains(&f) && f > 0.0);
            } else {
                assert_eq!(f, 0.0);
            }
        }
    }

    /// `toy_graph` with deterministic non-zero static feature channels.
    fn toy_graph_with_feats(n: usize) -> CtGraph {
        let mut g = toy_graph(n);
        for (i, v) in g.verts.iter_mut().enumerate() {
            v.static_feats = snowcat_graph::StaticFeats {
                alias_density: (i % 7) as u8,
                lockset: (i % 3) as u8,
                race_degree: (i % 11) as u8,
            };
        }
        g
    }

    #[test]
    fn zero_channel_model_ignores_static_feats() {
        // A channel-free model (old checkpoints decode to this) must be
        // bit-identical on feature-stamped and feature-less graphs.
        let m = PicModel::new(PicConfig { static_channels: 0, ..Default::default() });
        assert_eq!(m.params.w_static.rows, 0);
        assert_eq!(m.forward(&toy_graph_with_feats(13)), m.forward(&toy_graph(13)));
    }

    #[test]
    fn static_channels_change_predictions() {
        let m = PicModel::new(PicConfig::default());
        assert_eq!(m.cfg.static_channels, snowcat_graph::STATIC_CHANNELS);
        assert_ne!(m.forward(&toy_graph_with_feats(13)), m.forward(&toy_graph(13)));
    }

    #[test]
    fn static_channels_do_not_shift_existing_init_draws() {
        // The w_static draw comes from a derived stream: every other tensor
        // of a channel-full init must equal its channel-free counterpart.
        let with = PicParams::init(&PicConfig::default());
        let without = PicParams::init(&PicConfig { static_channels: 0, ..Default::default() });
        assert_eq!(with.tok_emb, without.tok_emb);
        assert_eq!(with.w_in, without.w_in);
        assert_eq!(with.layers, without.layers);
        assert_eq!(with.w_out, without.w_out);
        assert_eq!(with.w_flow, without.w_flow);
    }

    #[test]
    fn static_channel_gradient_check() {
        // Finite-difference check of the w_static backward path.
        let cfg =
            PicConfig { hidden: 6, layers: 2, pos_weight: 1.4, seed: 3, ..Default::default() };
        let mut model = PicModel::new(cfg);
        let g = toy_graph_with_feats(9);
        let labels: Vec<bool> = (0..9).map(|i| i % 2 == 0).collect();
        let loss_of = |m: &PicModel| {
            let (_, cache) = m.forward_cached(&g);
            let mut tmp = m.params.zeros_like();
            let mut scratch = Scratch::new();
            m.backward(&g, &cache, &labels, &mut tmp, &mut scratch)
        };
        let mut grads = model.params.zeros_like();
        let (_, cache) = model.forward_cached(&g);
        let mut scratch = Scratch::new();
        model.backward(&g, &cache, &labels, &mut grads, &mut scratch);
        let flat: Vec<Mat> = grads.tensors().into_iter().cloned().collect();
        // w_static sits third from the end (before w_flow, b_flow).
        let ti = model.params.shapes().len() - 3;
        assert_eq!(model.params.tensors()[ti].rows, snowcat_graph::STATIC_CHANNELS);
        let eps = 3e-3f32;
        for ei in 0..model.params.shapes()[ti].0 * model.params.shapes()[ti].1 {
            let orig = model.params.tensors()[ti].data[ei];
            model.params.tensors_mut()[ti].data[ei] = orig + eps;
            let lp = loss_of(&model);
            model.params.tensors_mut()[ti].data[ei] = orig - eps;
            let lm = loss_of(&model);
            model.params.tensors_mut()[ti].data[ei] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = flat[ti].data[ei];
            assert!(
                (num - ana).abs() < 2e-2 + 0.15 * num.abs().max(ana.abs()),
                "w_static elem {ei}: numerical {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn baselines_predict_expected_shapes() {
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(BaselinePredictor::AllPos.predict(&mut rng, 5), vec![true; 5]);
        let biased: Vec<bool> = BaselinePredictor::BiasedCoin(0.0).predict(&mut rng, 100);
        assert!(biased.iter().all(|&b| !b));
        let fair: Vec<bool> = BaselinePredictor::FairCoin.predict(&mut rng, 1000);
        let pos = fair.iter().filter(|&&b| b).count();
        assert!((300..700).contains(&pos));
    }

    #[test]
    fn tensors_and_tensors_mut_are_aligned() {
        let m = PicModel::new(PicConfig::default());
        let shapes_a = m.params.shapes();
        let mut p = m.params.clone();
        let shapes_b: Vec<(usize, usize)> =
            p.tensors_mut().iter().map(|t| (t.rows, t.cols)).collect();
        assert_eq!(shapes_a, shapes_b);
    }

    #[test]
    fn params_add_assign_sums_tensorwise() {
        let m = PicModel::new(PicConfig { hidden: 4, layers: 1, ..Default::default() });
        let mut a = m.params.zeros_like();
        let mut b = m.params.zeros_like();
        a.w_in.data[0] = 1.5;
        b.w_in.data[0] = 2.0;
        b.b_out.data[0] = -1.0;
        a.add_assign(&b);
        assert_eq!(a.w_in.data[0], 3.5);
        assert_eq!(a.b_out.data[0], -1.0);
    }
}
