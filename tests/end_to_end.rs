//! End-to-end integration: the full Snowcat workflow at miniature scale —
//! fuzz → datasets → train → deploy → MLPCT exploration → campaign.

use snowcat::core::{
    explore_mlpct, explore_pct, load_checkpoint, save_checkpoint, train_pic, CostModel,
    CoveragePredictor, ExploreConfig, Explorer, Pic, PipelineConfig, PredictorService, S1NewBitmap,
};
use snowcat::nn::Checkpoint;
use snowcat::prelude::*;

fn tiny_pipeline() -> PipelineConfig {
    PipelineConfig::default()
        .with_fuzz_iterations(20)
        .with_n_ctis(16)
        .with_train_interleavings(4)
        .with_eval_interleavings(4)
        .with_model(PicConfig { hidden: 12, layers: 2, ..PicConfig::default() })
        .with_train(TrainConfig { epochs: 2, ..TrainConfig::default() })
        .with_seed(0xE2E)
}

#[test]
fn full_workflow_runs_and_checkpoint_roundtrips_via_disk() {
    let kernel = KernelVersion::V5_12.spec(0xE2E).build();
    let cfg = KernelCfg::build(&kernel);
    let out = train_pic(&kernel, &cfg, &tiny_pipeline(), "PIC-e2e");

    // Persist and reload the checkpoint through a real file, via the
    // fallible I/O helpers the CLI uses.
    let dir = std::env::temp_dir().join("snowcat-e2e-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("pic.json");
    save_checkpoint(&path, &out.checkpoint).unwrap();
    let loaded = load_checkpoint(&path).unwrap();
    assert_eq!(loaded, out.checkpoint);
    std::fs::remove_file(&path).ok();

    // Deploy and explore one CTI with both explorers.
    let pic = Pic::new(&loaded, &kernel, &cfg);
    let service = PredictorService::direct(&pic);
    let mut strat = S1NewBitmap::new();
    let explore =
        ExploreConfig::default().with_exec_budget(6).with_inference_cap(60).with_seed(0xE2E);
    let a = &out.corpus[0];
    let b = &out.corpus[1];
    let ml = explore_mlpct(&kernel, &service, &mut strat, a, b, &explore);
    let pct = explore_pct(&kernel, a, b, &explore);
    assert!(ml.executions <= 6);
    assert!(ml.inferences >= ml.executions);
    assert!(pct.executions <= 6);
    assert_eq!(pct.inferences, 0);
}

#[test]
fn campaign_histories_are_reproducible() {
    let kernel = KernelVersion::V5_12.spec(0xE2E).build();
    let cfg = KernelCfg::build(&kernel);
    let out = train_pic(&kernel, &cfg, &tiny_pipeline(), "PIC-e2e");
    let stream = vec![(0usize, 1usize), (2, 3), (4, 5)];
    let explore =
        ExploreConfig::default().with_exec_budget(4).with_inference_cap(40).with_seed(0xCAFE);
    let cost = CostModel::default();

    let run = |ck: &Checkpoint| {
        let pic = Pic::new(ck, &kernel, &cfg);
        run_supervised_campaign(
            &kernel,
            &out.corpus,
            &stream,
            Explorer::mlpct(&pic, Box::new(S1NewBitmap::new())),
            &explore,
            &cost,
            &SupervisorConfig::new(),
            None,
        )
        .unwrap()
        .result
    };
    let r1 = run(&out.checkpoint);
    let r2 = run(&out.checkpoint);
    assert_eq!(r1.history, r2.history);
    assert_eq!(r1.bugs_found, r2.bugs_found);
}

#[test]
fn dataset_roundtrip_preserves_training_behaviour() {
    use snowcat::core::as_labeled;
    use snowcat::nn::{train, PicModel, TrainConfig};
    let kernel = KernelVersion::V5_12.spec(0xE2E).build();
    let cfg = KernelCfg::build(&kernel);
    let out = train_pic(&kernel, &cfg, &tiny_pipeline(), "PIC-e2e");

    // Serialize the training dataset and reload it; training on the loaded
    // copy must produce identical losses.
    let json = out.train_set.to_json().unwrap();
    let reloaded = Dataset::from_json(&json).unwrap();
    assert_eq!(out.train_set, reloaded);

    let mk = || PicModel::new(PicConfig { hidden: 8, layers: 1, ..PicConfig::default() });
    let cfg_t = TrainConfig { epochs: 1, ..TrainConfig::default() };
    let mut m1 = mk();
    let mut m2 = mk();
    let r1 = train(&mut m1, &as_labeled(&out.train_set), &[], cfg_t, None, &mut ()).unwrap();
    let r2 = train(&mut m2, &as_labeled(&reloaded), &[], cfg_t, None, &mut ()).unwrap();
    assert_eq!(r1.state.epoch_losses, r2.state.epoch_losses);
    assert_eq!(m1.params, m2.params);
}

#[test]
fn predictions_are_consistent_between_predict_paths() {
    let kernel = KernelVersion::V5_12.spec(0xE2E).build();
    let cfg = KernelCfg::build(&kernel);
    let out = train_pic(&kernel, &cfg, &tiny_pipeline(), "PIC-e2e");
    let pic = Pic::new(&out.checkpoint, &kernel, &cfg);
    let service = PredictorService::direct(&pic);
    let a = &out.corpus[2];
    let b = &out.corpus[5];
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
    let base = service.base_graph(a, b);
    let hints: Vec<_> = (0..5).map(|_| propose_hints(&mut rng, a.seq.steps, b.seq.steps)).collect();
    // Three routes to the same prediction: one-shot, base-graph reuse, batch.
    let batch = service.predict_candidates(&base, a, b, &hints);
    for (h, pb) in hints.iter().zip(&batch) {
        let p1 = service.predict_ct(a, b, h);
        let p2 = service.predict_candidate(&base, a, b, h);
        let graph = pic.candidate_graph(&base, a, b, h);
        let p3 = pic.predict_one(&graph);
        assert_eq!(p1.probs, p2.probs);
        assert_eq!(p2.probs, p3.probs);
        assert_eq!(p3.probs, pb.probs);
        assert_eq!(p1.positive, pb.positive);
    }
    assert!(pic.stats().inferences() >= hints.len() as u64 * 3);
}
