//! Thread-count invariance of the data-parallel trainer: training with
//! `threads = N` must be *bit-identical* to `threads = 1` — same per-epoch
//! losses, same final parameters, same checkpoint. The trainer guarantees
//! this by computing per-graph gradients into per-shard buffers and reducing
//! them in a fixed (item-index) order, so no float add ever changes order
//! with the thread count.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snowcat_graph::{CtGraph, Edge, EdgeKind, SchedMark, VertKind, Vertex};
use snowcat_kernel::{BlockId, ThreadId};
use snowcat_nn::{train, Checkpoint, PicConfig, PicModel, TrainConfig};

fn synthetic_example(seed: u64, n: usize) -> (CtGraph, Vec<bool>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let verts: Vec<Vertex> = (0..n)
        .map(|i| Vertex {
            block: BlockId(i as u32),
            thread: ThreadId((i % 2) as u8),
            kind: if i % 2 == 0 { VertKind::Scb } else { VertKind::Urb },
            sched_mark: SchedMark::None,
            may_race: false,
            tokens: vec![1 + rng.gen_range(0..40u32)],
            static_feats: Default::default(),
        })
        .collect();
    let mut edges = Vec::new();
    let mut labels = vec![false; n];
    for i in 0..n {
        if i + 1 < n {
            edges.push(Edge { from: i as u32, to: (i + 1) as u32, kind: EdgeKind::ScbFlow });
        }
        if verts[i].kind == VertKind::Urb {
            if rng.gen_bool(0.3) {
                let src = rng.gen_range(0..n as u32);
                edges.push(Edge { from: src, to: i as u32, kind: EdgeKind::Schedule });
                labels[i] = true;
            }
        } else {
            labels[i] = true;
        }
    }
    (CtGraph { verts, edges }, labels)
}

fn dataset(count: usize) -> Vec<(CtGraph, Vec<bool>)> {
    (0..count).map(|i| synthetic_example(100 + i as u64, 8 + (i % 5) * 3)).collect()
}

/// Run one full training with the given thread count and return the report
/// plus a checkpoint of the selected parameters.
fn run(threads: usize, batch: usize) -> (Vec<f32>, Vec<f64>, Checkpoint) {
    let data = dataset(11);
    let examples: Vec<(&CtGraph, &[bool])> = data.iter().map(|(g, l)| (g, l.as_slice())).collect();
    let (train_set, valid_set) = examples.split_at(8);
    let mut model = PicModel::new(PicConfig { hidden: 12, layers: 2, ..Default::default() });
    let cfg = TrainConfig { epochs: 3, lr: 5e-3, batch, seed: 9, threads };
    let report = train(&mut model, train_set, valid_set, cfg, None, &mut ()).unwrap();
    (report.state.epoch_losses, report.state.val_ap, Checkpoint::new(&model, 0.5, "det"))
}

#[test]
fn training_is_bit_identical_across_thread_counts() {
    let (losses1, ap1, ck1) = run(1, 4);
    for threads in [2, 4] {
        let (losses_n, ap_n, ck_n) = run(threads, 4);
        assert_eq!(losses1, losses_n, "epoch losses diverge at threads={threads}");
        assert_eq!(ap1, ap_n, "validation AP diverges at threads={threads}");
        assert_eq!(ck1.params, ck_n.params, "final parameters diverge at threads={threads}");
    }
}

#[test]
fn partial_trailing_batches_stay_deterministic() {
    // 8 training graphs with batch 3 leaves a trailing partial batch of 2;
    // thread counts above the partial batch size must clamp, not diverge.
    let (losses1, _, ck1) = run(1, 3);
    let (losses4, _, ck4) = run(4, 3);
    assert_eq!(losses1, losses4);
    assert_eq!(ck1.params, ck4.params);
}

#[test]
fn oversubscribed_threads_clamp_to_batch() {
    // More threads than graphs in any batch: still identical.
    let (losses1, _, ck1) = run(1, 2);
    let (losses16, _, ck16) = run(16, 2);
    assert_eq!(losses1, losses16);
    assert_eq!(ck1.params, ck16.params);
}

#[test]
fn flow_training_is_bit_identical_across_thread_counts() {
    let data = dataset(9);
    // Give every graph an InterFlow edge so the flow head sees gradients.
    let enriched: Vec<(CtGraph, Vec<bool>, Vec<bool>)> = data
        .into_iter()
        .map(|(mut g, l)| {
            let n = g.verts.len() as u32;
            g.edges.push(Edge { from: 0, to: n - 1, kind: EdgeKind::InterFlow });
            let flows: Vec<bool> = g.edges.iter().map(|e| e.kind == EdgeKind::InterFlow).collect();
            (g, l, flows)
        })
        .collect();
    let run_flow = |threads: usize| {
        let examples: Vec<(&CtGraph, &[bool], &[bool])> =
            enriched.iter().map(|(g, l, f)| (g, l.as_slice(), f.as_slice())).collect();
        let (train_set, rest) = examples.split_at(7);
        let valid: Vec<(&CtGraph, &[bool])> = rest.iter().map(|&(g, l, _)| (g, l)).collect();
        let mut model = PicModel::new(PicConfig { hidden: 12, layers: 2, ..Default::default() });
        let cfg = TrainConfig { epochs: 2, lr: 5e-3, batch: 3, seed: 11, threads };
        let report = train(&mut model, train_set, &valid, cfg, None, &mut ()).unwrap();
        (report.state.epoch_losses, model.params)
    };
    let (losses1, params1) = run_flow(1);
    let (losses4, params4) = run_flow(4);
    assert_eq!(losses1, losses4);
    assert_eq!(params1, params4);
}
