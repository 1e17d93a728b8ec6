//! Dense-matrix math for the neural stack: register-tiled, autovectorizer-
//! friendly `f32` kernels, fused ops, and a scratch arena for allocation-free
//! steady-state inference.
//!
//! Everything is row-major, safe Rust (no intrinsics, no nightly). The hot
//! kernels are written so LLVM's autovectorizer emits SIMD on stable:
//!
//! * the `matmul` core walks each output row in fixed-width column panels
//!   ([`PANEL_WIDE`] = 32, then [`PANEL`] = 8); each panel is copied into a
//!   `[f32; W]` accumulator that LLVM keeps in vector registers for the
//!   *entire* k loop, so per product there is exactly one `b`-row load and
//!   no output-row traffic (the naive axpy form reloads and restores the
//!   output row on every k step);
//! * the `matmul_tn` core does rank-[`KU`] (4) updates: four k steps share
//!   one pass over the output row, quartering its load/store traffic, with
//!   the panel bodies on compile-time trip counts via `chunks_exact`.
//!
//! # Summation-order contract
//!
//! Floating-point addition is not associative, so every kernel documents —
//! and tests pin — its exact reduction order. For all matmul-family ops the
//! contract is:
//!
//! * `matmul` / `matmul_into` / `matmul_acc_into`:
//!   `out[i][j] = fold_k (acc + a[i][k] * b[k][j])` with `k` strictly
//!   ascending, starting from `0.0` (or from the existing `out[i][j]` for
//!   the `acc` variants). The panel kernel folds every output element's
//!   products sequentially in k order inside its register accumulator, so
//!   it is bit-identical to the scalar [`Mat::naive_matmul`] loop.
//! * `matmul_tn` family: same contract with `a[k][i]` in place of
//!   `a[i][k]`; `k` ascending per output element.
//! * `matmul_nt` family: `out[i][j] = fold_k (acc + a[i][k] * b[j][k])`,
//!   `k` ascending (implemented by transposing `b` once and running the
//!   `matmul` kernel — same per-element order as the naive dot product).
//! * [`Mat::matmul_bias_relu_into`] initializes each output row with the
//!   bias row and *then* accumulates the products, i.e.
//!   `relu(bias[j] + Σ_k …)` with the sum folded left-to-right from
//!   `bias[j]`. Model code uses this bias-first order everywhere (also on
//!   the unfused path) so training and inference agree bitwise.
//! * [`Mat::col_sum_acc_into`] folds rows in ascending row order starting
//!   from the existing accumulator value.
//!
//! Rust never contracts `a * b + c` into an FMA and LLVM never reassociates
//! float adds without fast-math flags, so these orders are stable across
//! optimization levels and target features.
//!
//! # Vector width
//!
//! The workspace builds for baseline x86-64 (SSE2, 4-wide `f32`). The one
//! exception to "safe Rust only" in this crate is the inference forward
//! pass: [`crate::model::PicModel::forward_into`] is compiled a second time
//! inside a `#[target_feature(enable = "avx2")]` function and calls it,
//! through the crate's single `unsafe` call, when the CPU reports AVX2 at
//! run time. The kernels that pass reaches are `#[inline(always)]` so the
//! AVX2 copy compiles them with 8-wide registers. That copy is bit-identical
//! to the portable one by construction: every kernel keeps its per-element
//! k-ascending order, wider registers only process more output columns at
//! once, and without `fma` in the feature set no fused instruction can be
//! emitted. A proptest in `model.rs` pins the two copies bit for bit.
//!
//! The `naive_*` functions are the scalar reference implementations: each
//! output element is a textbook k-ascending dot product, written in
//! element-wise `get`/`set` form. They compute exactly the same per-element
//! addition chains as the pre-optimization kernels (minus the old
//! `if a == 0.0 { continue }` early-exit: that branch pessimized dense
//! hidden-state matmuls, and the sparsity it silently exploited — zero rows
//! of aggregated messages, one-hot-ish embedding rows — is now handled
//! explicitly with gathers and the CSR-compacted message path in the model).
//! Because a strict-FP dot-product reduction cannot be vectorized without
//! reassociation, the references also stay honest scalar baselines for the
//! `tensor_kernels` bench. A proptest suite (`tests/kernel_equivalence.rs`)
//! pins every optimized kernel to its reference bit-for-bit.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// k-loop unroll factor of the rank-update (`matmul_tn`) kernel.
const KU: usize = 4;

/// Narrow column-panel width (axpy bodies and the register-panel cleanup).
const PANEL: usize = 8;

/// Wide column-panel width of the register-accumulator `matmul` kernel.
const PANEL_WIDE: usize = 32;

/// A row-major dense matrix.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Mat {
    /// Rows.
    pub rows: usize,
    /// Columns.
    pub cols: usize,
    /// Row-major storage, `rows * cols` long.
    pub data: Vec<f32>,
}

/// `out[j] += a * b[j]` over a full row, panel-vectorized.
#[inline(always)]
fn axpy1(out: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(out.len(), b.len());
    for (o, &x) in out.iter_mut().zip(b) {
        *o += a * x;
    }
}

/// Four sequential axpys fused over one pass of the output row:
/// `out[j] += a[0]*b0[j]; out[j] += a[1]*b1[j]; …` — the adds for each `j`
/// happen in index order `0..4`, preserving the k-ascending summation
/// contract while quartering the output-row traffic.
#[inline(always)]
fn axpy4(out: &mut [f32], a: [f32; KU], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    let mut o_it = out.chunks_exact_mut(PANEL);
    let mut b0_it = b0.chunks_exact(PANEL);
    let mut b1_it = b1.chunks_exact(PANEL);
    let mut b2_it = b2.chunks_exact(PANEL);
    let mut b3_it = b3.chunks_exact(PANEL);
    for ((((po, p0), p1), p2), p3) in o_it
        .by_ref()
        .zip(b0_it.by_ref())
        .zip(b1_it.by_ref())
        .zip(b2_it.by_ref())
        .zip(b3_it.by_ref())
    {
        // Fixed trip count: LLVM unrolls and vectorizes this panel.
        for j in 0..PANEL {
            let mut acc = po[j];
            acc += a[0] * p0[j];
            acc += a[1] * p1[j];
            acc += a[2] * p2[j];
            acc += a[3] * p3[j];
            po[j] = acc;
        }
    }
    for ((((o, &x0), &x1), &x2), &x3) in o_it
        .into_remainder()
        .iter_mut()
        .zip(b0_it.remainder())
        .zip(b1_it.remainder())
        .zip(b2_it.remainder())
        .zip(b3_it.remainder())
    {
        let mut acc = *o;
        acc += a[0] * x0;
        acc += a[1] * x1;
        acc += a[2] * x2;
        acc += a[3] * x3;
        *o = acc;
    }
}

/// One register-resident output panel of the `matmul` core:
/// `out_panel[j] += Σ_k a_row[k] * b[k][jp + j]` with the accumulator held
/// in a `[f32; W]` (vector registers) across the whole k loop — one `b` load
/// per product, zero output traffic inside the loop. Adds per element are
/// sequential in ascending k, preserving the summation-order contract.
#[inline(always)]
fn panel_acc<const W: usize>(out_panel: &mut [f32], a_row: &[f32], b: &Mat, jp: usize) {
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(out_panel);
    for (k, &a) in a_row.iter().enumerate() {
        let b_panel = &b.row(k)[jp..jp + W];
        for (o, &x) in acc.iter_mut().zip(b_panel) {
            *o += a * x;
        }
    }
    out_panel.copy_from_slice(&acc);
}

/// `out_row += a_row @ b` for one output row: wide register panels, then
/// narrow ones, then a k-ascending axpy over the sub-[`PANEL`] tail.
#[inline(always)]
fn accum_row(out_row: &mut [f32], a_row: &[f32], b: &Mat) {
    let m = out_row.len();
    let mut jp = 0;
    while jp + PANEL_WIDE <= m {
        panel_acc::<PANEL_WIDE>(&mut out_row[jp..jp + PANEL_WIDE], a_row, b, jp);
        jp += PANEL_WIDE;
    }
    while jp + PANEL <= m {
        panel_acc::<PANEL>(&mut out_row[jp..jp + PANEL], a_row, b, jp);
        jp += PANEL;
    }
    if jp < m {
        let tail = &mut out_row[jp..];
        for (k, &a) in a_row.iter().enumerate() {
            for (o, &x) in tail.iter_mut().zip(&b.row(k)[jp..]) {
                *o += a * x;
            }
        }
    }
}

impl Mat {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Xavier/Glorot-uniform initialized matrix.
    pub fn xavier<R: Rng>(rng: &mut R, rows: usize, cols: usize) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        Self { rows, cols, data: (0..rows * cols).map(|_| rng.gen_range(-bound..bound)).collect() }
    }

    /// Build from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Immutable row slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// `self @ other` — (n×k)·(k×m) → n×m.
    pub fn matmul(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows, other.cols);
        self.matmul_acc_into(other, &mut out);
        out
    }

    /// `out = self @ other`, overwriting `out` (which must be n×m).
    #[inline(always)]
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul_into output shape mismatch"
        );
        out.data.fill(0.0);
        self.matmul_acc_into(other, out);
    }

    /// `out += self @ other` — the tiled core kernel. Per output element the
    /// products are added in ascending-k order starting from the existing
    /// `out` value (see the module doc's summation-order contract).
    #[inline(always)]
    pub fn matmul_acc_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul_acc_into output shape mismatch"
        );
        for i in 0..self.rows {
            accum_row(out.row_mut(i), self.row(i), other);
        }
    }

    /// `selfᵀ @ other` — (k×n)ᵀ·(k×m) → n×m. Used for weight gradients.
    pub fn matmul_tn(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.cols, other.cols);
        self.matmul_tn_acc_into(other, &mut out);
        out
    }

    /// `out = selfᵀ @ other`, overwriting `out`.
    pub fn matmul_tn_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_tn_into output shape mismatch"
        );
        out.data.fill(0.0);
        self.matmul_tn_acc_into(other, out);
    }

    /// `out += selfᵀ @ other` — rank-[`KU`] updates; per output element the
    /// additions happen in ascending-k order. Gradient accumulation calls
    /// this directly to skip the temporary + add pass.
    pub fn matmul_tn_acc_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_tn_acc_into output shape mismatch"
        );
        let mut k = 0;
        while k + KU <= self.rows {
            let (b0, b1, b2, b3) =
                (other.row(k), other.row(k + 1), other.row(k + 2), other.row(k + 3));
            for i in 0..self.cols {
                let a =
                    [self.get(k, i), self.get(k + 1, i), self.get(k + 2, i), self.get(k + 3, i)];
                axpy4(out.row_mut(i), a, b0, b1, b2, b3);
            }
            k += KU;
        }
        while k < self.rows {
            for i in 0..self.cols {
                axpy1(out.row_mut(i), self.get(k, i), other.row(k));
            }
            k += 1;
        }
    }

    /// `self @ otherᵀ` — (n×k)·(m×k)ᵀ → n×m. Used for input gradients.
    pub fn matmul_nt(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let t = other.transposed();
        self.matmul(&t)
    }

    /// `out = self @ otherᵀ`, overwriting `out`; transposes `other` into a
    /// scratch buffer so the tiled row kernel applies.
    pub fn matmul_nt_into(&self, other: &Mat, out: &mut Mat, scratch: &mut Scratch) {
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.rows),
            "matmul_nt_into output shape mismatch"
        );
        out.data.fill(0.0);
        self.matmul_nt_acc_into(other, out, scratch);
    }

    /// `out += self @ otherᵀ` via a scratch-buffered transpose of `other`.
    pub fn matmul_nt_acc_into(&self, other: &Mat, out: &mut Mat, scratch: &mut Scratch) {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let mut t = scratch.take(other.cols, other.rows);
        other.transpose_into(&mut t);
        self.matmul_acc_into(&t, out);
        scratch.put(t);
    }

    /// Fused `relu(self @ w + bias)` (bias is 1×m). See
    /// [`Mat::matmul_bias_relu_into`] for the summation order.
    pub fn matmul_bias_relu(&self, w: &Mat, bias: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows, w.cols);
        self.matmul_bias_relu_into(w, bias, &mut out);
        out
    }

    /// Fused `out = relu(self @ w + bias)`: each output row is initialized
    /// with the bias row and the products accumulate on top (bias-first
    /// order), then ReLU is applied in place — no intermediate matrix.
    #[inline(always)]
    pub fn matmul_bias_relu_into(&self, w: &Mat, bias: &Mat, out: &mut Mat) {
        out.fill_row_broadcast(bias);
        self.matmul_acc_into(w, out);
        out.relu_inplace();
    }

    /// Transpose into a fresh matrix.
    pub fn transposed(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// `out = selfᵀ` (out must be cols×rows).
    pub fn transpose_into(&self, out: &mut Mat) {
        assert_eq!((out.rows, out.cols), (self.cols, self.rows), "transpose shape mismatch");
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
    }

    /// Reference scalar `self @ other`: every output element is a textbook
    /// k-ascending dot product in element-wise `get`/`set` form. This is the
    /// definitional form of the summation-order contract — the per-element
    /// addition chains are exactly those of the pre-optimization kernel —
    /// and a strict-FP dot-product reduction cannot be vectorized, so it
    /// doubles as the honest scalar baseline in `tensor_kernels`.
    pub fn naive_matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0.0f32;
                for k in 0..self.cols {
                    acc += self.get(i, k) * other.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Reference scalar `selfᵀ @ other` (see [`Mat::naive_matmul`]).
    pub fn naive_matmul_tn(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        let mut out = Mat::zeros(self.cols, other.cols);
        for i in 0..self.cols {
            for j in 0..other.cols {
                let mut acc = 0.0f32;
                for k in 0..self.rows {
                    acc += self.get(k, i) * other.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Reference scalar `self @ otherᵀ` (see [`Mat::naive_matmul`]).
    pub fn naive_matmul_nt(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let mut out = Mat::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            for j in 0..other.rows {
                let mut acc = 0.0f32;
                for k in 0..self.cols {
                    acc += self.get(i, k) * other.get(j, k);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Add `other` element-wise in place.
    #[inline(always)]
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Fused `self += s * other` element-wise (one pass, one rounding per
    /// element: `a + s*b`).
    pub fn add_scaled(&mut self, other: &Mat, s: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Add a 1×cols row vector to every row.
    pub fn add_row_broadcast(&mut self, row: &Mat) {
        assert_eq!(row.rows, 1);
        assert_eq!(row.cols, self.cols);
        for r in 0..self.rows {
            for (a, b) in self.row_mut(r).iter_mut().zip(&row.data) {
                *a += b;
            }
        }
    }

    /// Overwrite every row with a 1×cols row vector (bias-first affine
    /// initialization; see [`Mat::matmul_bias_relu_into`]).
    #[inline(always)]
    pub fn fill_row_broadcast(&mut self, row: &Mat) {
        assert_eq!(row.rows, 1);
        assert_eq!(row.cols, self.cols);
        for r in 0..self.rows {
            self.row_mut(r).copy_from_slice(&row.data);
        }
    }

    /// Column-wise sum as a 1×cols matrix (bias gradients).
    pub fn col_sum(&self) -> Mat {
        let mut out = Mat::zeros(1, self.cols);
        self.col_sum_acc_into(&mut out);
        out
    }

    /// `out += column-wise sum of self`, rows folded in ascending order.
    pub fn col_sum_acc_into(&self, out: &mut Mat) {
        assert_eq!((out.rows, out.cols), (1, self.cols), "col_sum output shape mismatch");
        for r in 0..self.rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// ReLU in place; returns the pre-activation copy for backward.
    #[inline(always)]
    pub fn relu_inplace(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Element-wise multiply by the ReLU mask of `pre` (1 where `pre` > 0).
    pub fn relu_backward_mask(&mut self, pre: &Mat) {
        assert_eq!((self.rows, self.cols), (pre.rows, pre.cols));
        for (g, &p) in self.data.iter_mut().zip(&pre.data) {
            if p <= 0.0 {
                *g = 0.0;
            }
        }
    }

    /// Scale all elements.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm (for gradient clipping).
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Zero all elements (gradient reset between steps).
    pub fn zero(&mut self) {
        self.data.fill(0.0);
    }
}

/// A pool of reusable `f32` buffers for intermediate matrices.
///
/// Lifetime rules: [`Scratch::take`] hands out a zeroed `Mat` of the
/// requested shape, reusing the capacity of a previously [`Scratch::put`]
/// buffer when one is large enough (most-recently-returned first, so the
/// cache-warm buffer wins). Once the pool has warmed up to a workload's
/// working set, `take`/`put` cycles perform **zero heap allocations** — the
/// [`Scratch::allocations`] counter only advances when a fresh buffer must
/// be created, which is what the steady-state zero-allocation tests assert.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<f32>>,
    allocations: usize,
}

impl Scratch {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a zero-filled `rows`×`cols` matrix, reusing pooled capacity when
    /// possible.
    pub fn take(&mut self, rows: usize, cols: usize) -> Mat {
        let need = rows * cols;
        let mut data = match self.pool.iter().rposition(|b| b.capacity() >= need) {
            Some(i) => self.pool.swap_remove(i),
            None => {
                if need > 0 {
                    self.allocations += 1;
                }
                Vec::with_capacity(need)
            }
        };
        data.clear();
        data.resize(need, 0.0);
        Mat { rows, cols, data }
    }

    /// Return a matrix's buffer to the pool.
    pub fn put(&mut self, m: Mat) {
        self.pool.push(m.data);
    }

    /// Number of fresh buffer allocations performed so far. Stable across
    /// repeated same-shape workloads once warmed up.
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    /// Number of buffers currently parked in the pool.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// Numerically stable sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable binary cross-entropy from the *logit*, with an
/// optional positive-class weight: `w_pos * y * softplus(-z) + (1-y) *
/// softplus(z)`.
#[inline]
pub fn bce_with_logit(logit: f32, label: bool, pos_weight: f32) -> f32 {
    let softplus = |x: f32| {
        if x > 20.0 {
            x
        } else if x < -20.0 {
            0.0
        } else {
            (1.0 + x.exp()).ln()
        }
    };
    if label {
        pos_weight * softplus(-logit)
    } else {
        softplus(logit)
    }
}

/// Gradient of [`bce_with_logit`] with respect to the logit.
#[inline]
pub fn bce_grad(logit: f32, label: bool, pos_weight: f32) -> f32 {
    let p = sigmoid(logit);
    if label {
        pos_weight * (p - 1.0)
    } else {
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Mat {
        assert_eq!(v.len(), rows * cols);
        Mat { rows, cols, data: v.to_vec() }
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
        assert_eq!(a.naive_matmul(&b).data, c.data);
    }

    #[test]
    fn matmul_tn_equals_transpose_matmul() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 3x2
        let b = m(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]); // 3x2
                                                          // aT (2x3) @ b (3x2) = 2x2
        let c = a.matmul_tn(&b);
        assert_eq!(c.rows, 2);
        assert_eq!(c.cols, 2);
        assert_eq!(c.data, vec![1.0 + 5.0, 3.0 + 5.0, 2.0 + 6.0, 4.0 + 6.0]);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(2, 3, &[1.0, 1.0, 0.0, 0.0, 1.0, 1.0]); // treated as 3x2 transposed
        let c = a.matmul_nt(&b);
        assert_eq!(c.rows, 2);
        assert_eq!(c.cols, 2);
        assert_eq!(c.data, vec![3.0, 5.0, 9.0, 11.0]);
    }

    #[test]
    fn fused_matmul_bias_relu_matches_unfused() {
        let a = m(3, 2, &[1.0, -2.0, 0.5, 4.0, -1.0, -1.0]);
        let w = m(2, 2, &[0.5, -1.0, 2.0, 0.25]);
        let bias = m(1, 2, &[0.1, -0.2]);
        let fused = a.matmul_bias_relu(&w, &bias);
        let mut unfused = Mat::zeros(3, 2);
        unfused.fill_row_broadcast(&bias);
        a.matmul_acc_into(&w, &mut unfused);
        unfused.relu_inplace();
        assert_eq!(fused, unfused);
        assert!(fused.data.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn add_scaled_is_single_rounding_axpy() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[4.0, -5.0, 6.0]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data, vec![1.0 + 0.5 * 4.0, 2.0 + 0.5 * -5.0, 3.0 + 0.5 * 6.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transposed();
        assert_eq!((t.rows, t.cols), (3, 2));
        assert_eq!(t.data, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn scratch_reuses_buffers() {
        let mut s = Scratch::new();
        let a = s.take(4, 8);
        assert_eq!(s.allocations(), 1);
        s.put(a);
        let b = s.take(2, 16); // same size, reuses
        assert_eq!(s.allocations(), 1);
        assert_eq!((b.rows, b.cols), (2, 16));
        assert!(b.data.iter().all(|&v| v == 0.0));
        s.put(b);
        let c = s.take(8, 8); // larger, fresh allocation
        assert_eq!(s.allocations(), 2);
        s.put(c);
        let d = s.take(1, 4); // small, reuses a big buffer
        assert_eq!(s.allocations(), 2);
        s.put(d);
        assert_eq!(s.pooled(), 2);
    }

    #[test]
    fn relu_and_mask() {
        let mut x = m(1, 4, &[-1.0, 2.0, 0.0, -3.0]);
        let pre = x.clone();
        x.relu_inplace();
        assert_eq!(x.data, vec![0.0, 2.0, 0.0, 0.0]);
        let mut g = m(1, 4, &[1.0, 1.0, 1.0, 1.0]);
        g.relu_backward_mask(&pre);
        assert_eq!(g.data, vec![0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn broadcast_and_colsum_are_adjoint() {
        let mut x = Mat::zeros(3, 2);
        let b = m(1, 2, &[1.0, -1.0]);
        x.add_row_broadcast(&b);
        assert_eq!(x.data, vec![1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
        let s = x.col_sum();
        assert_eq!(s.data, vec![3.0, -3.0]);
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn bce_matches_definition_midrange() {
        let z = 0.3f32;
        let p = sigmoid(z);
        let expect_pos = -(p.ln());
        let expect_neg = -((1.0 - p).ln());
        assert!((bce_with_logit(z, true, 1.0) - expect_pos).abs() < 1e-5);
        assert!((bce_with_logit(z, false, 1.0) - expect_neg).abs() < 1e-5);
    }

    #[test]
    fn bce_grad_is_finite_difference_of_loss() {
        let eps = 1e-3f32;
        for &z in &[-2.0f32, -0.5, 0.0, 0.7, 3.0] {
            for &y in &[true, false] {
                for &w in &[1.0f32, 3.0] {
                    let num = (bce_with_logit(z + eps, y, w) - bce_with_logit(z - eps, y, w))
                        / (2.0 * eps);
                    let ana = bce_grad(z, y, w);
                    assert!((num - ana).abs() < 1e-2, "z={z} y={y} w={w}: {num} vs {ana}");
                }
            }
        }
    }

    #[test]
    fn xavier_is_bounded_and_seeded() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let a = Mat::xavier(&mut rng, 10, 10);
        let bound = (6.0 / 20.0f32).sqrt();
        assert!(a.data.iter().all(|v| v.abs() <= bound));
        let mut rng2 = ChaCha8Rng::seed_from_u64(0);
        let b = Mat::xavier(&mut rng2, 10, 10);
        assert_eq!(a, b);
    }
}
