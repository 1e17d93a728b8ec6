//! Extension (§6 of the paper, implemented): inter-thread-flow prediction
//! for directed race reproduction.
//!
//! The paper observes that many Razzer-PIC candidates cover both racing
//! blocks yet fail to reproduce the race because the two instructions never
//! touch the same memory — and proposes training PIC to predict inter-thread
//! data flows as future work. This binary implements that: a PIC model
//! jointly trained with a flow head (`train_on_with_flows`), a Razzer variant
//! that additionally requires a predicted flow between the racing blocks
//! (`Razzer-PIC+flow`), and a comparison of candidate precision (#TP/#CTIs)
//! across Razzer-Relax / Razzer-PIC / Razzer-PIC+flow.
//!
//! Expected shape: each filter stage keeps (almost) all true positives while
//! shrinking the candidate queue, so TP-ratio rises monotonically.
//!
//! Usage: `ext_razzer_flow [--scale smoke|default|full]`

use serde::Serialize;
use snowcat_bench::{print_table, save_json, std_pipeline, Scale, FAMILY_SEED};
use snowcat_cfg::KernelCfg;
use snowcat_core::{
    collect_data, find_candidates, reproduce, train_on_with_flows, CostModel, Pic,
    PredictorService, RazzerMode,
};
use snowcat_corpus::StiFuzzer;
use snowcat_kernel::KernelVersion;

#[derive(Serialize)]
struct FlowRow {
    race: String,
    mode: String,
    candidates: usize,
    true_positives: usize,
    tp_ratio: f64,
    avg_hours: Option<f64>,
}

fn main() {
    let scale = Scale::from_args();
    let pcfg = std_pipeline(scale);
    let kernel = KernelVersion::V5_12.spec(FAMILY_SEED).build();
    let cfg = KernelCfg::build(&kernel);
    let cost = CostModel::default();

    println!("training PIC-5+flow (joint coverage + inter-thread-flow head) ...");
    let data = collect_data(&kernel, &cfg, &pcfg);
    let (checkpoint, summary, flow_ap) =
        train_on_with_flows(&kernel, &data, pcfg.model, pcfg.train, pcfg.seed, "PIC-5+flow");
    println!("coverage val AP {:.4}, flow head eval AP {:.4}", summary.val_urb_ap, flow_ap);

    let mut fz = StiFuzzer::new(&kernel, FAMILY_SEED ^ 0x4a22);
    fz.seed_each_syscall();
    fz.fuzz(scale.pick(30, 150, 400));
    fz.push_random(scale.pick(10, 60, 150));
    let corpus = fz.into_corpus();

    // "Known races" preferring those whose racing instruction hides in a
    // URB (multi-order and order-violation patterns) — the population the
    // paper's Table 4 studies, where strict Razzer fails.
    let kind_rank = |k: snowcat_kernel::BugKind| match k {
        snowcat_kernel::BugKind::MultiOrder => 0,
        snowcat_kernel::BugKind::OrderViolation => 1,
        snowcat_kernel::BugKind::AtomicityViolation => 2,
        snowcat_kernel::BugKind::DataRace => 3,
    };
    let mut bugs: Vec<&snowcat_kernel::BugSpec> =
        kernel.bugs.iter().filter(|b| b.harmful).collect();
    bugs.sort_by_key(|b| (kind_rank(b.kind), std::cmp::Reverse(b.difficulty)));
    bugs.truncate(scale.pick(2, 6, 6));

    let schedules = scale.pick(40, 300, 1000);
    let mut rows: Vec<FlowRow> = Vec::new();
    for (ri, bug) in bugs.iter().enumerate() {
        let race_id = char::from(b'A' + ri as u8).to_string();
        for mode in [RazzerMode::Relax, RazzerMode::Pic, RazzerMode::PicFlow] {
            let pic;
            let service;
            let svc_ref = if mode != RazzerMode::Relax {
                pic = Pic::new(&checkpoint, &kernel, &cfg);
                service = PredictorService::direct(&pic);
                Some(&service)
            } else {
                None
            };
            let candidates = find_candidates(
                &kernel,
                &cfg,
                &corpus,
                bug,
                mode,
                svc_ref,
                FAMILY_SEED ^ ri as u64,
            );
            let res = reproduce(
                &kernel,
                &corpus,
                &candidates,
                bug,
                mode,
                schedules,
                cost.exec_seconds,
                FAMILY_SEED ^ 0xF10 ^ ri as u64,
            );
            println!(
                "  race {race_id} {:<16} candidates={:<4} TPs={:<3}",
                res.mode, res.candidates, res.true_positives
            );
            rows.push(FlowRow {
                race: race_id.clone(),
                mode: res.mode.clone(),
                candidates: res.candidates,
                true_positives: res.true_positives,
                tp_ratio: res.true_positives as f64 / res.candidates.max(1) as f64,
                avg_hours: res.avg_hours,
            });
        }
    }

    print_table(
        "Razzer candidate precision with the flow head (§6 extension)",
        &["Race", "Mode", "# CTIs", "# TP", "TP ratio", "avg h"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.race.clone(),
                    r.mode.clone(),
                    r.candidates.to_string(),
                    r.true_positives.to_string(),
                    format!("{:.3}", r.tp_ratio),
                    r.avg_hours.map(|h| format!("{h:.1}")).unwrap_or_else(|| "Na".into()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    save_json("ext_razzer_flow", &rows);

    // Shape: flow filter keeps the queue at least as precise on average.
    let mean_ratio = |mode: &str| {
        let v: Vec<f64> = rows.iter().filter(|r| r.mode == mode).map(|r| r.tp_ratio).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    println!(
        "\nmean TP ratio: Relax {:.3} | PIC {:.3} | PIC+flow {:.3}",
        mean_ratio("Razzer-Relax"),
        mean_ratio("Razzer-PIC"),
        mean_ratio("Razzer-PIC+flow")
    );
}
