//! Table 3 — new concurrency bugs in kernel 6.1 (§5.5).
//!
//! Runs matched PCT and MLPCT-S1 campaigns over a bug-relevant CTI stream on
//! the evolved kernel 6.1 and reports every planted bug either explorer
//! exposed, with its kind, subsystem, difficulty and which explorer found
//! it.
//!
//! Paper shape: all confirmed new bugs were found only by MLPCT; random
//! schedules (PCT) expose at most the easy ones. Difficulty here is graded
//! by the number of ordering constraints the interleaving must satisfy
//! (Easy/Medium/Hard — the hard class mirrors the paper's 9-year-old vivid
//! bug #7).
//!
//! Usage: `table3_bugs [--scale smoke|default|full]`

use serde::Serialize;
use snowcat_bench::{cached_pic, print_table, save_json, std_pipeline, Scale, FAMILY_SEED};
use snowcat_cfg::KernelCfg;
use snowcat_core::{CampaignResult, CostModel, ExploreConfig, Explorer, Pic, S1NewBitmap};
use snowcat_harness::{run_supervised_campaign, SupervisorConfig};
use snowcat_kernel::{BugId, KernelVersion};

#[derive(Serialize)]
struct BugRow {
    id: u16,
    summary: String,
    kind: String,
    subsystem: String,
    difficulty: String,
    harmful: bool,
    found_by: String,
}

fn main() {
    let scale = Scale::from_args();
    let pcfg = std_pipeline(scale);
    let kernel = KernelVersion::V6_1.spec(FAMILY_SEED).build();
    let cfg = KernelCfg::build(&kernel);
    println!(
        "kernel 6.1: {} planted bugs ({} easy / {} medium / {} hard)",
        kernel.bugs.len(),
        kernel
            .bugs
            .iter()
            .filter(|b| b.difficulty == snowcat_kernel::bugs::BugDifficulty::Easy)
            .count(),
        kernel
            .bugs
            .iter()
            .filter(|b| b.difficulty == snowcat_kernel::bugs::BugDifficulty::Medium)
            .count(),
        kernel
            .bugs
            .iter()
            .filter(|b| b.difficulty == snowcat_kernel::bugs::BugDifficulty::Hard)
            .count(),
    );

    println!("training (or loading) PIC-6 ...");
    let (corpus, checkpoint) = cached_pic(&kernel, &cfg, &pcfg, "PIC-6");
    let corpus = &corpus;

    // Bug-relevant stream: pairs whose STIs invoke both carrier syscalls of
    // some planted bug, mixed with random pairs — the realistic situation
    // where Snowboard-style CTI generation has already shortlisted
    // interacting inputs, and schedule selection decides success.
    let mut stream: Vec<(usize, usize)> = Vec::new();
    for bug in &kernel.bugs {
        let ia =
            corpus.iter().position(|p| p.sti.calls.iter().any(|c| c.syscall == bug.syscalls.0));
        let ib =
            corpus.iter().position(|p| p.sti.calls.iter().any(|c| c.syscall == bug.syscalls.1));
        if let (Some(a), Some(b)) = (ia, ib) {
            stream.push((a, b));
        }
    }
    // Extend with every other corpus entry containing a carrier syscall
    // (multi-call fuzzed STIs hit carriers with different argument and
    // state contexts), then interleave with random pairs, shuffle, and
    // repeat the whole block so the time-budgeted campaigns never run dry.
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(FAMILY_SEED ^ 0x7AB3);
    for bug in &kernel.bugs {
        let hits_a: Vec<usize> = corpus
            .iter()
            .enumerate()
            .filter(|(_, p)| p.sti.calls.iter().any(|c| c.syscall == bug.syscalls.0))
            .map(|(i, _)| i)
            .collect();
        let hits_b: Vec<usize> = corpus
            .iter()
            .enumerate()
            .filter(|(_, p)| p.sti.calls.iter().any(|c| c.syscall == bug.syscalls.1))
            .map(|(i, _)| i)
            .collect();
        for &a in hits_a.iter().take(3) {
            for &b in hits_b.iter().take(3) {
                stream.push((a, b));
            }
        }
    }
    let n_random = scale.pick(4, stream.len(), stream.len() * 2);
    for _ in 0..n_random {
        stream.push((rng.gen_range(0..corpus.len()), rng.gen_range(0..corpus.len())));
    }
    for i in (1..stream.len()).rev() {
        stream.swap(i, rng.gen_range(0..=i));
    }
    // Repeat the shuffled block: campaign budgets are time-based.
    let block = stream.clone();
    for _ in 0..6 {
        stream.extend(block.iter().copied());
    }

    let explore = ExploreConfig::default()
        .with_exec_budget(scale.pick(10, 50, 80))
        .with_inference_cap(scale.pick(80, 600, 1600))
        .with_seed(FAMILY_SEED ^ 0xB065);
    let cost = CostModel::default();
    let time_budget = Some(scale.pick(0.02, 2.0, 6.0));
    let sup = SupervisorConfig { max_hours: time_budget, ..SupervisorConfig::new() };
    let campaign = |explorer: Explorer<'_, '_>| -> CampaignResult {
        run_supervised_campaign(&kernel, corpus, &stream, explorer, &explore, &cost, &sup, None)
            .expect("campaign without checkpointing cannot fail")
            .result
    };

    println!("running PCT campaign ({:?} sim h over up to {} CTIs) ...", time_budget, stream.len());
    let pct = campaign(Explorer::Pct);
    println!("running MLPCT-S1 campaign ...");
    let pic = Pic::new(&checkpoint, &kernel, &cfg);
    let mlpct = campaign(Explorer::mlpct(&pic, Box::new(S1NewBitmap::new())));

    let found_by = |id: BugId| -> Option<String> {
        let in_pct = pct.bugs_found.contains(&id);
        let in_ml = mlpct.bugs_found.contains(&id);
        match (in_ml, in_pct) {
            (true, true) => Some("both".into()),
            (true, false) => Some("MLPCT".into()),
            (false, true) => Some("PCT".into()),
            (false, false) => None,
        }
    };

    let mut rows: Vec<BugRow> = Vec::new();
    for bug in &kernel.bugs {
        if let Some(by) = found_by(bug.id) {
            rows.push(BugRow {
                id: bug.id.0,
                summary: bug.summary.clone(),
                kind: bug.kind.code().into(),
                subsystem: kernel.subsystems[bug.subsystem.index()].name.clone(),
                difficulty: format!("{:?}", bug.difficulty),
                harmful: bug.harmful,
                found_by: by,
            });
        }
    }

    print_table(
        "Table 3: planted bugs exposed on kernel 6.1",
        &["ID", "Summary", "Kind", "Subsystem", "Difficulty", "Harmful", "Found by"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.id.to_string(),
                    r.summary.clone(),
                    r.kind.clone(),
                    format!("{}/", r.subsystem),
                    r.difficulty.clone(),
                    if r.harmful { "yes".into() } else { "benign".into() },
                    r.found_by.clone(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\ntotals: MLPCT exposed {} bugs in {:.1} sim h, PCT exposed {} in {:.1} sim h",
        mlpct.last().bugs,
        mlpct.last().hours,
        pct.last().bugs,
        pct.last().hours
    );
    let ml_only = rows.iter().filter(|r| r.found_by == "MLPCT").count();
    println!("bugs found ONLY by MLPCT: {ml_only}");
    save_json("table3_bugs", &rows);

    if mlpct.last().bugs < pct.last().bugs {
        eprintln!("WARNING: MLPCT exposed fewer bugs than PCT; shape broken");
        std::process::exit(2);
    }
    println!("shape check: MLPCT exposes at least as many planted bugs as PCT ✓");
}
