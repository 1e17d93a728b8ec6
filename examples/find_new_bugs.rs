//! Bug-finding campaign: PCT vs MLPCT on the evolved kernel.
//!
//! Builds synthetic kernel "6.1" (evolved from 5.12 with new code and newly
//! planted bugs), trains a PIC model, and runs matched PCT and MLPCT
//! campaigns over the same CTI stream — reporting unique potential data
//! races, schedule-dependent coverage, and which planted bugs each explorer
//! exposed (the paper's §5.5 / Table 3 story).
//!
//! Run with: `cargo run --release --example find_new_bugs`

use snowcat::core::{
    train_pic, CampaignResult, CostModel, ExploreConfig, Explorer, Pic, PipelineConfig, S1NewBitmap,
};
use snowcat::prelude::*;

fn main() {
    let kernel = KernelVersion::V6_1.spec(0xF00D).build();
    let cfg = KernelCfg::build(&kernel);
    println!(
        "kernel {}: {} syscalls, {} planted bugs",
        kernel.version,
        kernel.syscalls.len(),
        kernel.bugs.len()
    );

    let pcfg = PipelineConfig::default()
        .with_fuzz_iterations(60)
        .with_n_ctis(80)
        .with_train_interleavings(8)
        .with_eval_interleavings(4)
        .with_model(PicConfig { hidden: 24, layers: 3, ..PicConfig::default() })
        .with_train(TrainConfig { epochs: 4, ..TrainConfig::default() })
        .with_seed(0xF00D);
    let trained = train_pic(&kernel, &cfg, &pcfg, "PIC-6");
    let corpus = trained.corpus;

    // Bias the CTI stream toward same-subsystem pairs (Snowboard-style
    // pre-filtering), which is where concurrent behaviour lives.
    let mut stream = Vec::new();
    for i in 0..corpus.len() {
        for j in (i + 1)..corpus.len() {
            let sa = corpus[i].sti.calls.first().map(|c| kernel.syscall(c.syscall).subsystem);
            let sb = corpus[j].sti.calls.first().map(|c| kernel.syscall(c.syscall).subsystem);
            if sa == sb {
                stream.push((i, j));
            }
            if stream.len() >= 40 {
                break;
            }
        }
        if stream.len() >= 40 {
            break;
        }
    }

    let explore =
        ExploreConfig::default().with_exec_budget(30).with_inference_cap(400).with_seed(0xF00D);
    let cost = CostModel::default();
    let sup = SupervisorConfig::new();
    let campaign = |explorer: Explorer<'_, '_>| -> CampaignResult {
        run_supervised_campaign(&kernel, &corpus, &stream, explorer, &explore, &cost, &sup, None)
            .expect("campaign without checkpointing cannot fail")
            .result
    };

    let pct = campaign(Explorer::Pct);
    let pic = Pic::new(&trained.checkpoint, &kernel, &cfg);
    let mlpct = campaign(Explorer::mlpct(&pic, Box::new(S1NewBitmap::new())));

    for res in [&pct, &mlpct] {
        let last = res.last();
        println!(
            "{:<9} races={} harmful={} sched-dep blocks={} bugs={} execs={} infers={} simulated {:.1} h",
            res.label,
            last.races,
            last.harmful_races,
            last.sched_dep_blocks,
            last.bugs,
            last.executions,
            last.inferences,
            last.hours
        );
        for bug in &res.bugs_found {
            let spec = &kernel.bugs[bug.index()];
            println!("    found bug {}: {} [{}]", bug.0, spec.summary, spec.kind.code());
        }
    }
}
