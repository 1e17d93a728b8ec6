//! Figures 5b–5f and Table 2 — adapting to newer kernels (§5.4).
//!
//! Evolves the synthetic kernel 5.12 → 5.13 → 6.1 and studies how PIC
//! generalizes:
//!
//! * **Table 2** — the model variants: PIC-5, fine-tuned PIC-6.ft.sml /
//!   PIC-6.ft.med, from-scratch PIC-6.scratch.sml / PIC-6.scratch.med, and
//!   PIC-5.13.ft.sml, with their data sizes and (simulated) startup costs.
//! * **Fig 5b–e** — race-coverage campaigns on kernel 6.1 under MLPCT(S1)
//!   guided by each variant, vs the PCT baseline.
//! * **Fig 5f** — the same on kernel 5.13 with PIC-5 and PIC-5.13.ft.sml.
//!
//! Paper shapes: fine-tuning with modest new data beats or matches PIC-5 and
//! clearly beats PCT; from-scratch models with little data underperform even
//! stale PIC-5 ("dataset size trumps all other scaling factors").
//!
//! Usage: `fig5_generalization [--scale smoke|default|full]`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use snowcat_bench::{print_table, save_json, std_pipeline, Scale, FAMILY_SEED};
use snowcat_cfg::KernelCfg;
use snowcat_core::{
    collect_data, fine_tune, train_on, train_pic, CampaignResult, CostModel, ExploreConfig,
    Explorer, Pic, S1NewBitmap,
};
use snowcat_corpus::interacting_cti_pairs;
use snowcat_harness::{run_supervised_campaign, SupervisorConfig};
use snowcat_kernel::{Kernel, KernelVersion};
use snowcat_nn::Checkpoint;

#[derive(Serialize)]
struct VariantInfo {
    name: String,
    trained_on: String,
    train_graphs: usize,
    collection_hours: f64,
    train_seconds: f64,
    val_urb_ap: f64,
    startup_hours: f64,
}

#[derive(Serialize)]
struct CampaignSeries {
    label: String,
    startup_hours: f64,
    hours: Vec<f64>,
    races: Vec<usize>,
}

#[allow(clippy::too_many_arguments)]
fn campaign_with(
    kernel: &Kernel,
    cfg: &KernelCfg,
    corpus: &[snowcat_corpus::StiProfile],
    stream: &[(usize, usize)],
    checkpoint: Option<&Checkpoint>,
    explore: &ExploreConfig,
    cost: &CostModel,
    label_override: Option<&str>,
    max_hours: Option<f64>,
) -> CampaignResult {
    let sup = SupervisorConfig { max_hours, ..SupervisorConfig::new() };
    let pic = checkpoint.map(|ck| Pic::new(ck, kernel, cfg));
    let explorer = match &pic {
        None => Explorer::Pct,
        Some(pic) => Explorer::mlpct(pic, Box::new(S1NewBitmap::new())),
    };
    let mut res =
        run_supervised_campaign(kernel, corpus, stream, explorer, explore, cost, &sup, None)
            .expect("campaign without checkpointing cannot fail")
            .result;
    if let (Some(_), Some(l)) = (&pic, label_override) {
        res.label = format!("MLPCT-S1[{l}]");
    }
    res
}

fn main() {
    let scale = Scale::from_args();
    let cost = CostModel::default();
    let pcfg = std_pipeline(scale);

    // ---- Kernel 5.12: the base model. ----
    let k512 = KernelVersion::V5_12.spec(FAMILY_SEED).build();
    let cfg512 = KernelCfg::build(&k512);
    println!("training PIC-5 on kernel 5.12 ...");
    let base = train_pic(&k512, &cfg512, &pcfg, "PIC-5");
    let mut variants: Vec<VariantInfo> = Vec::new();
    let base_graphs = base.summary.examples.0 + base.summary.examples.1;
    let base_collect_h = cost.hours(base_graphs as u64, 0);
    variants.push(VariantInfo {
        name: "PIC-5".into(),
        trained_on: "5.12 (full)".into(),
        train_graphs: base_graphs,
        collection_hours: base_collect_h,
        train_seconds: base.summary.train_seconds,
        val_urb_ap: base.summary.val_urb_ap,
        startup_hours: base_collect_h + base.summary.train_seconds / 3600.0,
    });

    // ---- Kernel 6.1: new data at two collection scales. ----
    let k61 = KernelVersion::V6_1.spec(FAMILY_SEED).build();
    let cfg61 = KernelCfg::build(&k61);
    println!(
        "kernel 6.1: {} syscalls ({} in 5.12), {} bugs ({} in 5.12)",
        k61.syscalls.len(),
        k512.syscalls.len(),
        k61.bugs.len(),
        k512.bugs.len()
    );
    let sml_cfg = pcfg.with_n_ctis((pcfg.n_ctis / 8).max(4)).with_seed(pcfg.seed ^ 0x61);
    let med_cfg = pcfg.with_n_ctis((pcfg.n_ctis / 3).max(6)).with_seed(pcfg.seed ^ 0x62);
    println!("collecting 6.1 datasets (sml/med) ...");
    let data_sml = collect_data(&k61, &cfg61, &sml_cfg);
    let data_med = collect_data(&k61, &cfg61, &med_cfg);

    let mut checkpoints: Vec<(String, Checkpoint)> = Vec::new();
    // Fine-tuned variants.
    for (tag, data, epochs) in [("PIC-6.ft.sml", &data_sml, 3usize), ("PIC-6.ft.med", &data_med, 4)]
    {
        println!("fine-tuning {tag} ...");
        let started = std::time::Instant::now();
        let (ck, ap) = fine_tune(&base.checkpoint, &data.train_set, &data.valid_set, epochs, tag);
        let graphs = data.train_set.len() + data.valid_set.len();
        let collect_h = cost.hours(graphs as u64, 0);
        let secs = started.elapsed().as_secs_f64();
        variants.push(VariantInfo {
            name: tag.into(),
            trained_on: "5.12 full + 6.1 new".into(),
            train_graphs: graphs,
            collection_hours: collect_h,
            train_seconds: secs,
            val_urb_ap: ap,
            // Fine-tuning amortizes the 5.12 cost: startup here counts only
            // the *new* work, the paper's argument for the ft variants.
            startup_hours: collect_h + secs / 3600.0,
        });
        checkpoints.push((tag.to_string(), ck));
    }
    // From-scratch variants.
    for (tag, data) in [("PIC-6.scratch.sml", &data_sml), ("PIC-6.scratch.med", &data_med)] {
        println!("training {tag} from scratch ...");
        let (ck, summary) =
            train_on(&k61, data, pcfg.model, pcfg.train, pcfg.seed ^ 0x5c2a7c4, tag);
        let graphs = data.train_set.len() + data.valid_set.len();
        let collect_h = cost.hours(graphs as u64, 0);
        variants.push(VariantInfo {
            name: tag.into(),
            trained_on: "6.1 only".into(),
            train_graphs: graphs,
            collection_hours: collect_h,
            train_seconds: summary.train_seconds,
            val_urb_ap: summary.val_urb_ap,
            startup_hours: collect_h + summary.train_seconds / 3600.0,
        });
        checkpoints.push((tag.to_string(), ck));
    }

    print_table(
        "Table 2: model variants",
        &[
            "Model",
            "trained on",
            "graphs",
            "collect (sim h)",
            "train (s)",
            "val URB AP",
            "startup (sim h)",
        ],
        &variants
            .iter()
            .map(|v| {
                vec![
                    v.name.clone(),
                    v.trained_on.clone(),
                    v.train_graphs.to_string(),
                    format!("{:.2}", v.collection_hours),
                    format!("{:.1}", v.train_seconds),
                    format!("{:.4}", v.val_urb_ap),
                    format!("{:.2}", v.startup_hours),
                ]
            })
            .collect::<Vec<_>>(),
    );
    save_json("table2_models", &variants);

    // ---- Fig 5b–e: campaigns on kernel 6.1. ----
    let mut fz = snowcat_corpus::StiFuzzer::new(&k61, FAMILY_SEED ^ 0xCA);
    fz.seed_each_syscall();
    fz.fuzz(pcfg.fuzz_iterations);
    fz.push_random(pcfg.fuzz_iterations / 2);
    let corpus61 = fz.into_corpus();
    let stream_len = scale.pick(20, 600, 1500);
    let time_budget = Some(scale.pick(0.01, 2.0, 6.0));
    let mut rng = ChaCha8Rng::seed_from_u64(FAMILY_SEED ^ 0xF16B);
    let stream61 = interacting_cti_pairs(&mut rng, &corpus61, stream_len);
    let explore = ExploreConfig::default()
        .with_exec_budget(scale.pick(8, 50, 50))
        .with_inference_cap(scale.pick(60, 600, 1600))
        .with_seed(FAMILY_SEED ^ 0x61CA);

    println!("running 6.1 campaigns ({stream_len} CTIs) ...");
    let mut series: Vec<CampaignSeries> = Vec::new();
    let pct61 =
        campaign_with(&k61, &cfg61, &corpus61, &stream61, None, &explore, &cost, None, time_budget);
    series.push(CampaignSeries {
        label: "PCT".into(),
        startup_hours: 0.0,
        hours: pct61.history.iter().map(|h| h.hours).collect(),
        races: pct61.history.iter().map(|h| h.races).collect(),
    });
    let mut runs: Vec<(String, &Checkpoint, f64)> = vec![(
        "PIC-5".into(),
        &base.checkpoint,
        0.0, // already paid for 5.12; stale model reused for free
    )];
    for (tag, ck) in &checkpoints {
        let v = variants.iter().find(|v| &v.name == tag).unwrap();
        runs.push((tag.clone(), ck, v.startup_hours));
    }
    let mut summary_rows = Vec::new();
    {
        let last = pct61.last();
        summary_rows.push(vec![
            "PCT".to_string(),
            last.races.to_string(),
            last.bugs.to_string(),
            format!("{:.2}", last.hours),
            "0.00".into(),
        ]);
    }
    for (tag, ck, startup) in runs {
        let res = campaign_with(
            &k61,
            &cfg61,
            &corpus61,
            &stream61,
            Some(ck),
            &explore,
            &cost,
            Some(&tag),
            time_budget,
        );
        let last = res.last();
        summary_rows.push(vec![
            res.label.clone(),
            last.races.to_string(),
            last.bugs.to_string(),
            format!("{:.2}", last.hours),
            format!("{:.2}", startup),
        ]);
        series.push(CampaignSeries {
            label: res.label.clone(),
            startup_hours: startup,
            hours: res.history.iter().map(|h| h.hours).collect(),
            races: res.history.iter().map(|h| h.races).collect(),
        });
    }
    print_table(
        "Fig 5b–e: kernel 6.1 campaigns (MLPCT-S1 per model vs PCT)",
        &["Explorer", "races", "bugs", "testing sim h", "startup sim h"],
        &summary_rows,
    );

    // ---- Fig 5f: kernel 5.13 with PIC-5 and a lightly fine-tuned model. ----
    let k513 = KernelVersion::V5_13.spec(FAMILY_SEED).build();
    let cfg513 = KernelCfg::build(&k513);
    println!("collecting a small 5.13 dataset + fine-tuning PIC-5.13.ft.sml ...");
    let sml513 = pcfg.with_n_ctis((pcfg.n_ctis / 8).max(4)).with_seed(pcfg.seed ^ 0x513);
    let data513 = collect_data(&k513, &cfg513, &sml513);
    let (ck513, _) =
        fine_tune(&base.checkpoint, &data513.train_set, &data513.valid_set, 3, "PIC-5.13.ft.sml");

    let mut fz = snowcat_corpus::StiFuzzer::new(&k513, FAMILY_SEED ^ 0xCB);
    fz.seed_each_syscall();
    fz.fuzz(pcfg.fuzz_iterations);
    let corpus513 = fz.into_corpus();
    let stream513 = interacting_cti_pairs(&mut rng, &corpus513, stream_len);

    let mut rows513 = Vec::new();
    let pct513 = campaign_with(
        &k513,
        &cfg513,
        &corpus513,
        &stream513,
        None,
        &explore,
        &cost,
        None,
        time_budget,
    );
    for (label, ck) in
        [("PCT", None), ("PIC-5", Some(&base.checkpoint)), ("PIC-5.13.ft.sml", Some(&ck513))]
    {
        let res = match ck {
            None => pct513.clone(),
            Some(c) => campaign_with(
                &k513,
                &cfg513,
                &corpus513,
                &stream513,
                Some(c),
                &explore,
                &cost,
                Some(label),
                time_budget,
            ),
        };
        let last = res.last();
        rows513.push(vec![res.label.clone(), last.races.to_string(), format!("{:.2}", last.hours)]);
        series.push(CampaignSeries {
            label: format!("5.13/{}", res.label),
            startup_hours: 0.0,
            hours: res.history.iter().map(|h| h.hours).collect(),
            races: res.history.iter().map(|h| h.races).collect(),
        });
    }
    print_table("Fig 5f: kernel 5.13 campaigns", &["Explorer", "races", "sim h"], &rows513);
    save_json("fig5_generalization", &series);
}
