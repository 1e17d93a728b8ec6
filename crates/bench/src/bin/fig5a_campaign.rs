//! Figure 5a — cumulative Data-race-coverage on kernel 5.12.
//!
//! Runs PCT and the MLPCT strategy variants over the same stream of CTIs
//! (each with a 50-execution budget) and prints unique potential data races
//! against simulated testing hours.
//!
//! Paper shape: MLPCT strategies (S1 best) reach any given race-coverage
//! level in substantially fewer hours than PCT; S2 is overly conservative
//! (exhausts its inference cap before spending the execution budget).
//!
//! Usage: `fig5a_campaign [--scale smoke|default|full]`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use snowcat_bench::{cached_pic, print_table, save_json, std_pipeline, Scale, FAMILY_SEED};
use snowcat_cfg::KernelCfg;
use snowcat_core::{
    CampaignResult, CostModel, ExploreConfig, Explorer, Pic, S1NewBitmap, S2NewBlocks,
    S3LimitedTrials, SelectionStrategy,
};
use snowcat_corpus::interacting_cti_pairs;
use snowcat_harness::{run_supervised_campaign, SupervisorConfig};
use snowcat_kernel::KernelVersion;

#[derive(Serialize)]
struct Series {
    label: String,
    hours: Vec<f64>,
    races: Vec<usize>,
    sched_dep_blocks: Vec<usize>,
    final_executions: u64,
    final_inferences: u64,
}

fn to_series(r: &CampaignResult) -> Series {
    Series {
        label: r.label.clone(),
        hours: r.history.iter().map(|h| h.hours).collect(),
        races: r.history.iter().map(|h| h.races).collect(),
        sched_dep_blocks: r.history.iter().map(|h| h.sched_dep_blocks).collect(),
        final_executions: r.last().executions,
        final_inferences: r.last().inferences,
    }
}

fn main() {
    let scale = Scale::from_args();
    let pcfg = std_pipeline(scale);
    let kernel = KernelVersion::V5_12.spec(FAMILY_SEED).build();
    let cfg = KernelCfg::build(&kernel);

    println!("training (or loading) PIC-5 ...");
    let (corpus, checkpoint) = cached_pic(&kernel, &cfg, &pcfg, "PIC-5");
    let corpus = &corpus;

    // A long shared CTI stream with a common simulated-time budget: the
    // cheap explorer simply gets through more of the stream, exactly the
    // paper's time-axis comparison.
    let stream_len = scale.pick(30, 800, 2000);
    let time_budget = scale.pick(0.02, 3.0, 8.0);
    let mut rng = ChaCha8Rng::seed_from_u64(FAMILY_SEED ^ 0xF16A);
    let stream = interacting_cti_pairs(&mut rng, corpus, stream_len);
    let explore = ExploreConfig::default()
        .with_exec_budget(scale.pick(10, 50, 50))
        .with_inference_cap(scale.pick(80, 800, 1600))
        .with_seed(FAMILY_SEED ^ 0xACE5);
    let cost = CostModel::default();
    let sup = SupervisorConfig { max_hours: Some(time_budget), ..SupervisorConfig::new() };
    let campaign = |explorer: Explorer<'_, '_>| -> CampaignResult {
        run_supervised_campaign(&kernel, corpus, &stream, explorer, &explore, &cost, &sup, None)
            .expect("campaign without checkpointing cannot fail")
            .result
    };

    println!("running PCT campaign ({time_budget} sim h over up to {stream_len} CTIs) ...");
    let pct = campaign(Explorer::Pct);

    let mut results = vec![pct];
    for name in ["S1", "S2", "S3"] {
        println!("running MLPCT-{name} campaign ...");
        let pic = Pic::new(&checkpoint, &kernel, &cfg);
        let strategy: Box<dyn SelectionStrategy> = match name {
            "S1" => Box::new(S1NewBitmap::new()),
            "S2" => Box::new(S2NewBlocks::new()),
            _ => Box::new(S3LimitedTrials::new(3)),
        };
        results.push(campaign(Explorer::mlpct(&pic, strategy)));
    }

    // Summary table.
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let last = r.last();
            vec![
                r.label.clone(),
                last.ctis.to_string(),
                last.races.to_string(),
                last.harmful_races.to_string(),
                last.sched_dep_blocks.to_string(),
                last.executions.to_string(),
                last.inferences.to_string(),
                format!("{:.2}", last.hours),
            ]
        })
        .collect();
    print_table(
        "Fig 5a: cumulative campaign on kernel 5.12 (equal simulated-time budget)",
        &[
            "Explorer",
            "CTIs",
            "races",
            "harmful",
            "sched-dep blocks",
            "execs",
            "infers",
            "sim hours",
        ],
        &rows,
    );

    // Hours-to-target comparison (the "SKI took 304h to reach 3,500 races,
    // S1 took 155h" sentence).
    let pct_final = results[0].last().races;
    let target = (pct_final * 9 / 10).max(1);
    let mut cmp_rows = Vec::new();
    for r in &results {
        let h = r.hours_to_races(target);
        cmp_rows.push(vec![
            r.label.clone(),
            target.to_string(),
            h.map(|x| format!("{x:.2}")).unwrap_or_else(|| "not reached".into()),
        ]);
    }
    print_table(
        "Simulated hours to reach 90% of PCT's final race coverage",
        &["Explorer", "target races", "hours"],
        &cmp_rows,
    );

    let series: Vec<Series> = results.iter().map(to_series).collect();
    save_json("fig5a_campaign", &series);

    // Shape check: the best MLPCT variant reaches the target faster than PCT.
    let pct_hours = results[0].hours_to_races(target);
    let best_ml =
        results[1..].iter().filter_map(|r| r.hours_to_races(target)).fold(f64::INFINITY, f64::min);
    match pct_hours {
        Some(ph) if best_ml < ph => {
            println!(
                "\nshape check: best MLPCT reaches the target {:.1}x faster than PCT ✓",
                ph / best_ml
            )
        }
        _ => eprintln!("\nWARNING: MLPCT did not beat PCT to the race target; shape broken"),
    }
}
