//! Shared plumbing for the experiment regenerators (one binary per paper
//! table/figure) and the criterion micro-benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use snowcat_core::PipelineConfig;
use snowcat_nn::{PicConfig, TrainConfig};

/// The kernel-family seed used across all experiments, so every binary works
/// on the same synthetic "Linux" lineage.
pub const FAMILY_SEED: u64 = 0x5EED_2023;

/// Experiment scale, selected with `--scale smoke|default|full`.
///
/// * `Smoke` — seconds; CI-sized sanity run.
/// * `Default` — minutes; reproduces every qualitative shape.
/// * `Full` — tens of minutes; tightest statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale sanity run.
    Smoke,
    /// Minutes-scale default.
    Default,
    /// The big run.
    Full,
}

impl Scale {
    /// Parse from command-line args (`--scale <v>`), defaulting to
    /// [`Scale::Default`].
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        match args
            .iter()
            .position(|a| a == "--scale")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
        {
            Some("smoke") => Scale::Smoke,
            Some("full") => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// Scale a count.
    pub fn pick<T>(&self, smoke: T, default: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// The standard training pipeline at a given scale (the "PIC-5" recipe).
pub fn std_pipeline(scale: Scale) -> PipelineConfig {
    PipelineConfig::default()
        .with_fuzz_iterations(scale.pick(20, 150, 300))
        .with_n_ctis(scale.pick(12, 400, 900))
        .with_train_interleavings(scale.pick(4, 16, 24))
        .with_eval_interleavings(scale.pick(6, 24, 48))
        .with_model(PicConfig {
            hidden: scale.pick(16, 32, 48),
            layers: scale.pick(2, 5, 5),
            ..PicConfig::default()
        })
        .with_train(TrainConfig { epochs: scale.pick(2, 8, 12), ..TrainConfig::default() })
        .with_seed(FAMILY_SEED)
}

/// Print an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    println!("{}", widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("  "));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Persist experiment output as JSON under `results/` at the workspace root.
///
/// Anchored via `CARGO_MANIFEST_DIR` so `cargo bench` (which runs with the
/// crate directory as cwd) and `cargo run` (invocation cwd) write to the
/// same place; falls back to a cwd-relative `results/` outside cargo.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| {
            let mut p = std::path::PathBuf::from(d);
            p.pop();
            p.pop();
            p
        })
        .unwrap_or_else(|_| std::path::PathBuf::from("."));
    let dir = root.join("results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("(saved {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Train (or load from `results/cache/`) the standard PIC model for a
/// kernel, returning the deterministic corpus plus the checkpoint. Multiple
/// experiment binaries share one training run this way; delete the cache
/// directory to force retraining. The data is always collected, because
/// the cache key (`pic_cache_key`) fingerprints it; a miss trains that
/// data exactly as [`snowcat_core::train_pic`] would.
pub fn cached_pic(
    kernel: &snowcat_kernel::Kernel,
    cfg: &snowcat_cfg::KernelCfg,
    pcfg: &PipelineConfig,
    name: &str,
) -> (Vec<snowcat_corpus::StiProfile>, snowcat_nn::Checkpoint) {
    let data = snowcat_core::collect_data(kernel, cfg, pcfg);
    let key = pic_cache_key(
        name,
        &kernel.version,
        snowcat_nn::dataset_fingerprint(&snowcat_core::as_labeled(&data.train_set)),
        &pcfg.model,
        &pcfg.train,
        pcfg.seed,
    );
    let path = std::path::Path::new("results/cache").join(format!("{key}.scmc"));
    if let Ok(ck) = snowcat_core::load_checkpoint(&path) {
        println!("(loaded cached checkpoint {})", path.display());
        return (data.corpus, ck);
    }
    let (checkpoint, _) =
        snowcat_core::train_on(kernel, &data, pcfg.model, pcfg.train, pcfg.seed, name);
    if std::fs::create_dir_all("results/cache").is_ok()
        && snowcat_core::save_checkpoint(&path, &checkpoint).is_ok()
    {
        println!("(cached checkpoint at {})", path.display());
    }
    (data.corpus, checkpoint)
}

/// The cache key of a trained model: `name`, the kernel version, and an
/// FNV-1a hash of everything training reads — the training split's
/// [`snowcat_nn::dataset_fingerprint`], the model and training
/// configurations, and the pipeline seed (which also seeds encoder
/// pre-training). A change to kernel generation, graph features, labels or
/// any hyperparameter therefore misses instead of loading a stale model.
fn pic_cache_key(
    name: &str,
    kernel_version: &str,
    train_fingerprint: u64,
    model: &PicConfig,
    train: &TrainConfig,
    seed: u64,
) -> String {
    let inputs = format!("{train_fingerprint:x}|{model:?}|{train:?}|{seed:x}");
    let hash = inputs
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    format!("{name}-{}-{hash:016x}", kernel_version.replace('.', "_"))
}

/// Percent formatting helper.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// The seed's `Mat::matmul`, verbatim: row-major axpy with the
/// `if a == 0.0 { continue }` early-exit branch. This is the exact kernel
/// the repo shipped before the tensor-core optimization — including the
/// zero-skip, which silently skipped the all-zero rows of aggregated
/// message matrices — so speedups measured against it are honest
/// before/after numbers, not strawman comparisons.
pub fn seed_matmul(a: &snowcat_nn::Mat, other: &snowcat_nn::Mat) -> snowcat_nn::Mat {
    assert_eq!(a.cols, other.rows, "matmul shape mismatch");
    let mut out = snowcat_nn::Mat::zeros(a.rows, other.cols);
    for i in 0..a.rows {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (k, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = other.row(k);
            for (o, &b) in out_row.iter_mut().zip(b_row) {
                *o += av * b;
            }
        }
    }
    out
}

/// Reference PIC forward pass replicating the pre-optimization pipeline:
/// the seed's matmul kernel ([`seed_matmul`]), flat edge-list mean
/// aggregation with element-wise accessors, bias added after the matmul,
/// and a fresh allocation for every intermediate.
///
/// Kept as the "before" baseline for the `tensor_kernels` /
/// `inference_cost` speedup reports; for actual inference use
/// [`snowcat_nn::PicModel::forward`] (or the allocation-free
/// [`snowcat_nn::PicModel::forward_into`]).
pub fn naive_forward(model: &snowcat_nn::PicModel, graph: &snowcat_graph::CtGraph) -> Vec<f32> {
    use snowcat_graph::VertKind;
    use snowcat_nn::Mat;
    let p = &model.params;
    let n = graph.num_verts();
    let d = model.cfg.hidden;
    // Input features: type + sched embeddings plus mean token embedding.
    let mut x = Mat::zeros(n, d);
    for (i, v) in graph.verts.iter().enumerate() {
        let trow = p.type_emb.row(match v.kind {
            VertKind::Scb => 0,
            VertKind::Urb => 1,
        });
        let srow = p.sched_emb.row(v.sched_mark.index());
        let row = x.row_mut(i);
        for ((o, &t), &m) in row.iter_mut().zip(trow).zip(srow) {
            *o = t + m;
        }
        if !v.tokens.is_empty() {
            let inv = 1.0 / v.tokens.len() as f32;
            for &tok in &v.tokens {
                for (o, &t) in row.iter_mut().zip(p.tok_emb.row(tok as usize)) {
                    *o += t * inv;
                }
            }
        }
    }
    // Input transform, bias-last.
    let mut h = seed_matmul(&x, &p.w_in);
    h.add_row_broadcast(&p.b_in);
    h.relu_inplace();
    // Message passing with flat edge-list aggregation.
    for layer in &p.layers {
        let mut z = seed_matmul(&h, &layer.w_self);
        for (r, w_rel) in layer.w_rel.iter().enumerate() {
            let mut m = Mat::zeros(n, d);
            let mut deg = vec![0u32; n];
            for e in &graph.edges {
                if e.kind.index() != r {
                    continue;
                }
                deg[e.to as usize] += 1;
                let (src, dst) = (e.from as usize, e.to as usize);
                for c in 0..d {
                    let v = m.get(dst, c) + h.get(src, c);
                    m.set(dst, c, v);
                }
            }
            for (v, &dg) in deg.iter().enumerate() {
                if dg > 1 {
                    let inv = 1.0 / dg as f32;
                    for c in m.row_mut(v) {
                        *c *= inv;
                    }
                }
            }
            z.add_assign(&seed_matmul(&m, w_rel));
        }
        z.add_row_broadcast(&layer.b);
        z.relu_inplace();
        z.add_assign(&h);
        h = z;
    }
    // Per-vertex sigmoid head.
    (0..n)
        .map(|i| {
            let mut acc = p.b_out.data[0];
            for (hv, wv) in h.row(i).iter().zip(p.w_out.data.iter()) {
                acc += hv * wv;
            }
            snowcat_nn::tensor::sigmoid(acc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick_selects() {
        assert_eq!(Scale::Smoke.pick(1, 2, 3), 1);
        assert_eq!(Scale::Default.pick(1, 2, 3), 2);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.5513), "55.13%");
    }

    #[test]
    fn pic_cache_key_follows_every_training_input() {
        let p = std_pipeline(Scale::Smoke);
        let key = |version: &str, train: TrainConfig| {
            pic_cache_key("PIC-5", version, 0xF00D, &p.model, &train, p.seed)
        };
        let base = key("5.12", p.train);
        assert_eq!(base, key("5.12", p.train), "equal inputs, equal key");
        assert!(base.starts_with("PIC-5-5_12-"), "{base}");
        assert_ne!(base, key("6.1", p.train), "kernel version");
        assert_ne!(
            base,
            key("5.12", TrainConfig { epochs: p.train.epochs + 1, ..p.train }),
            "epochs"
        );
        assert_ne!(
            base,
            pic_cache_key("PIC-5", "5.12", 0xF00E, &p.model, &p.train, p.seed),
            "training data"
        );
    }

    #[test]
    fn std_pipeline_scales_monotonically() {
        let s = std_pipeline(Scale::Smoke);
        let d = std_pipeline(Scale::Default);
        let f = std_pipeline(Scale::Full);
        assert!(s.n_ctis < d.n_ctis && d.n_ctis < f.n_ctis);
        assert!(s.model.hidden <= d.model.hidden);
        assert_eq!(s.seed, FAMILY_SEED);
    }
}
