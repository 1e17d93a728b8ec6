//! `snowbench` — wall-clock benchmark of whole Snowcat testing campaigns.
//!
//! One run trains a model (untimed), sets up the campaign inputs five
//! times (timed), warms up, then repeats one workload's campaign through
//! the entry points `snowcat campaign` calls until `--seconds` have
//! passed, checking every campaign's outputs. `--trace 1` instead runs the
//! campaign once plain and once with counting wrappers, replays it layer
//! by layer and writes `<out>/trace.json`. The last stdout line is one JSON
//! object with every metric and its unit. See README.md.

mod trace;
mod workload;

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::{campaign_counts, percentile, probe, replay, Layer, LoopCounters};
use workload::{
    check_run, failed_ctis, prepare_model, report_digest, run_campaign, setup, Inputs, SetupTimes,
    Workload,
};

const USAGE: &str = "usage: snowbench --workload <mlpct-s1|pct-durable|mlpct-s1-served> \
     [--seed <n|0xHEX>] [--kernel-seed <n|0xHEX>] [--seconds <s>] [--trace <0|1>] [--quick] \
     [--out <dir>]";

/// Dev seed, the `snowcat` CLI default; the holdout seed is `0xB0B5EED`.
const DEV_SEED: u64 = 0x5EED_2023;
const SETUP_REPS: usize = 100;
const WARMUP_CTIS: usize = 2;

/// End-to-end metrics, printed by `--trace 0` runs: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("ctis_per_s", "CTI/s"),
    ("execs_per_s", "executions/s"),
    ("races_per_s", "races/s"),
    ("races_per_sim_h", "races/sim_h"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by `--trace 1` runs: (name, unit).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("core.predict.calls", "count"),
    ("core.predict.graphs_per_call", "graphs/call"),
    ("core.predict.share", "ratio"),
    ("core.select.ns_per_call", "ns"),
    ("core.select.selected_ratio", "ratio"),
    ("core.dup_draw_ratio", "ratio"),
    ("core.inferences_per_cti", "inferences/CTI"),
    ("core.execs_per_cti", "executions/CTI"),
    ("core.inferences_per_s", "inferences/s"),
    ("core.cti_ms_p50", "ms"),
    ("core.cti_ms_p90", "ms"),
    ("core.cti_ms_p99", "ms"),
    ("graph.base.us_per_call", "us"),
    ("graph.candidate.us_per_call", "us"),
    ("graph.candidate.verts", "verts/graph"),
    ("graph.candidate.edges", "edges/graph"),
    ("graph.share", "ratio"),
    ("nn.forward.us_per_graph_b1", "us"),
    ("nn.forward.us_per_graph_b16", "us"),
    ("nn.share", "ratio"),
    ("nn.load_ms", "ms"),
    ("nn.train_s", "s"),
    ("vm.propose.ns_per_call", "ns"),
    ("vm.run_ct.us_per_exec", "us"),
    ("vm.run_ct.hung_ratio", "ratio"),
    ("vm.share", "ratio"),
    ("race.detect.us_per_exec", "us"),
    ("race.detect.reports_per_exec", "reports/exec"),
    ("race.share", "ratio"),
    ("harness.merge.us_per_cti", "us"),
    ("harness.checkpoint.writes", "count"),
    ("harness.checkpoint.bytes_last", "bytes"),
    ("harness.checkpoint.ms_last", "ms"),
    ("harness.checkpoint.share", "ratio"),
    ("harness.unattributed_share", "ratio"),
    ("events.written", "count"),
    ("events.dropped", "count"),
    ("events.bytes", "bytes"),
    ("events.emit_ns", "ns"),
    ("serve.flushes", "count"),
    ("serve.batch_fill", "ratio"),
    ("serve.queue_depth_max", "graphs"),
    ("serve.shed", "count"),
    ("serve.p50_us", "us"),
    ("serve.p99_us", "us"),
    ("kernel.build_ms", "ms"),
    ("cfg.build_ms", "ms"),
    ("corpus.fuzz_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

struct Opts {
    workload: Workload,
    seed: u64,
    kernel_seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("{s:?} is not a decimal or 0x-prefixed hex integer"))
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: Workload::MlpctS1,
        seed: DEV_SEED,
        kernel_seed: DEV_SEED,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: PathBuf::new(),
    };
    let (mut workload, mut out) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => o.seed = parse_u64(value()?)?,
            "--kernel-seed" => o.kernel_seed = parse_u64(value()?)?,
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: {v:?} is not a non-negative number"))?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    o.out = out.unwrap_or_else(|| Path::new("snowbench-out").join(o.workload.name()));
    Ok(o)
}

/// A finished run: checks, counts and metrics in table order.
struct Outcome {
    failures: Vec<String>,
    ctis: usize,
    /// Wall seconds of each timed campaign.
    walls: Vec<f64>,
    attempted: u64,
    failed: u64,
    digest: u64,
    metrics: Vec<(&'static str, f64)>,
}

/// Render a value tree as compact JSON.
pub fn to_json(v: Value) -> String {
    struct Doc(Value);
    impl serde::Serialize for Doc {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string(&Doc(v)).expect("a value tree always renders")
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Reset the kernel's peak-RSS mark (`VmHWM`) so the training peak of the
/// prepare phase is not counted. False where `/proc/self/clear_refs` is
/// missing.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn run(o: &Opts) -> Result<Outcome, String> {
    let w = o.workload;
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let ctis = if o.quick { (w.ctis() / 20).max(WARMUP_CTIS) } else { w.ctis() };

    let model_path = o.out.join("pic.bin");
    let train_s = prepare_model(o.kernel_seed, &model_path)?;
    let rss_reset = reset_peak_rss();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let (inp, times) = setup(o.kernel_seed, ctis, &model_path)?;
        setups.push(times);
        inputs = Some(inp);
    }
    let inp = inputs.expect("at least one set-up");
    run_campaign(w, &inp, &inp.stream[..WARMUP_CTIS], o.seed, &o.out, None)?;

    if o.trace {
        run_traced(o, &inp, &setups, train_s)
    } else {
        let mut out = run_timed(o, &inp)?;
        out.metrics.push(("setup_s", median(&setups.iter().map(|s| s.total).collect::<Vec<_>>())));
        match peak_rss_mb().filter(|_| rss_reset) {
            Some(mb) => out.metrics.push(("peak_rss_mb", mb)),
            None => eprintln!("snowbench: peak_rss_mb unmeasured (no /proc/self/clear_refs)"),
        }
        Ok(out)
    }
}

/// Repeat the campaign until `--seconds` have passed. Every campaign does
/// the same work (their digests must agree), so the rates divide its
/// counts by the median wall time.
fn run_timed(o: &Opts, inp: &Inputs) -> Result<Outcome, String> {
    let (w, seed) = (o.workload, o.seed);
    let ctis = inp.stream.len();
    let mut failures = Vec::new();
    let mut walls = Vec::new();
    let mut digest = None;
    let mut failed = 0;
    let start = Instant::now();
    let last = loop {
        let run = run_campaign(w, inp, &inp.stream, seed, &o.out, None)?;
        failures.extend(check_run(w, &run, ctis, seed));
        let d = report_digest(&run.sup, seed);
        if *digest.get_or_insert(d) != d {
            failures.push(format!("campaign {} reported digest {d:016x}", walls.len() + 1));
        }
        failed += failed_ctis(&run.sup, ctis);
        walls.push(run.wall_s);
        if start.elapsed().as_secs_f64() >= o.seconds {
            break run;
        }
    };
    let digest = digest.expect("at least one campaign");
    if w.served() {
        let direct = run_campaign(Workload::MlpctS1, inp, &inp.stream, seed, &o.out, None)?;
        let d = report_digest(&direct.sup, seed);
        if d != digest {
            failures.push(format!("served digest {digest:016x} != direct digest {d:016x}"));
        }
    }
    let h = last.sup.result.last();
    let wall = median(&walls);
    Ok(Outcome {
        failures,
        ctis,
        attempted: (ctis * walls.len()) as u64,
        walls,
        failed,
        digest,
        metrics: vec![
            ("ctis_per_s", ctis as f64 / wall),
            ("execs_per_s", h.executions as f64 / wall),
            ("races_per_s", h.races as f64 / wall),
            ("races_per_sim_h", ratio(h.races as f64, h.hours)),
        ],
    })
}

/// Plain and traced campaigns, the layer replay and the probe.
fn run_traced(
    o: &Opts,
    inp: &Inputs,
    setups: &[SetupTimes],
    train_s: f64,
) -> Result<Outcome, String> {
    let (w, seed, stream) = (o.workload, o.seed, &inp.stream[..]);
    let ctis = stream.len();
    // Plain, traced, traced, plain: a machine that drifts during the run
    // slows both kinds alike, so the drift cancels out of the overhead.
    let plain = run_campaign(w, inp, stream, seed, &o.out, None)?;
    let counters = Arc::new(LoopCounters::default());
    let traced = run_campaign(w, inp, stream, seed, &o.out, Some(&counters))?;
    let traced_again =
        run_campaign(w, inp, stream, seed, &o.out, Some(&Arc::new(LoopCounters::default())))?;
    let plain_again = run_campaign(w, inp, stream, seed, &o.out, None)?;
    let runs = [&plain, &traced, &traced_again, &plain_again];
    let mut failures: Vec<String> = runs.iter().flat_map(|r| check_run(w, r, ctis, seed)).collect();
    let digest = report_digest(&traced.sup, seed);
    if runs.iter().any(|r| report_digest(&r.sup, seed) != digest) {
        failures.push("traced campaign report differs from the plain one".into());
    }
    let (plain_s, traced_s) =
        (plain.wall_s + plain_again.wall_s, traced.wall_s + traced_again.wall_s);

    let (rp, final_ck) = replay(w, inp, stream, seed, &o.out)?;
    let campaign = campaign_counts(&traced.sup.result.history);
    if let Some(ci) = (0..ctis).find(|&i| campaign.get(i) != rp.per_cti.get(i)) {
        failures.push(format!(
            "replay diverged at CTI {ci}: campaign {:?}, replay {:?}",
            campaign.get(ci),
            rp.per_cti.get(ci)
        ));
    }
    let lt = counters.totals();
    if w.mlpct() && lt.predict_graphs != rp.predictions {
        failures.push(format!(
            "campaign predicted {} graphs, replay {}",
            lt.predict_graphs, rp.predictions
        ));
    }
    let pr = probe(inp, stream, seed, &final_ck, &o.out)?;
    let trace_path = o.out.join("trace.json");
    std::fs::write(&trace_path, rp.tracer.chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let last = traced.sup.result.last();
    let (n, execs) = (ctis as f64, last.executions as f64);
    let t = |l: Layer| rp.tracer.totals(l);
    let total_ns = rp.wall_ns as f64;
    let share = |ls: &[Layer]| ls.iter().map(|&l| t(l).self_ns as f64).sum::<f64>() / total_ns;
    let per_call = |l: Layer, scale: f64| ratio(t(l).total_ns as f64 / scale, t(l).count as f64);
    let attributed = [
        Layer::GraphBase,
        Layer::GraphCandidate,
        Layer::NnForward,
        Layer::VmPropose,
        Layer::VmRunCt,
        Layer::RaceDetect,
        Layer::HarnessCheckpoint,
    ];
    let setup_ms =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>()) * 1e3;
    let events_bytes = match &traced.events {
        Some(_) => std::fs::metadata(o.out.join("events").join(snowcat_events::EVENTS_FILE))
            .map(|m| m.len() as f64)
            .map_err(|e| format!("events file: {e}"))?,
        None => 0.0,
    };
    let ev = traced.events.unwrap_or(snowcat_events::WriteSummary { written: 0, dropped: 0 });
    let sv = traced.serving.as_ref();
    let metrics = vec![
        ("core.predict.calls", lt.predict_calls as f64),
        ("core.predict.graphs_per_call", ratio(lt.predict_graphs as f64, lt.predict_calls as f64)),
        ("core.predict.share", ratio(lt.predict_s, traced.wall_s)),
        ("core.select.ns_per_call", pr.select_ns),
        ("core.select.selected_ratio", ratio(lt.selected as f64, lt.select_calls as f64)),
        (
            "core.dup_draw_ratio",
            ratio(last.inferences.saturating_sub(lt.predict_graphs) as f64, last.inferences as f64),
        ),
        ("core.inferences_per_cti", last.inferences as f64 / n),
        ("core.execs_per_cti", execs / n),
        ("core.inferences_per_s", 2.0 * last.inferences as f64 / plain_s),
        ("core.cti_ms_p50", percentile(&rp.cti_ms, 0.5)),
        ("core.cti_ms_p90", percentile(&rp.cti_ms, 0.9)),
        ("core.cti_ms_p99", percentile(&rp.cti_ms, 0.99)),
        ("graph.base.us_per_call", pr.base_us),
        ("graph.candidate.us_per_call", pr.candidate_us),
        ("graph.candidate.verts", pr.verts),
        ("graph.candidate.edges", pr.edges),
        ("graph.share", share(&[Layer::GraphBase, Layer::GraphCandidate])),
        ("nn.forward.us_per_graph_b1", pr.forward_b1_us),
        ("nn.forward.us_per_graph_b16", pr.forward_b16_us),
        ("nn.share", share(&[Layer::NnForward])),
        ("nn.load_ms", setup_ms(|s| s.load)),
        ("nn.train_s", train_s),
        ("vm.propose.ns_per_call", per_call(Layer::VmPropose, 1.0)),
        ("vm.run_ct.us_per_exec", per_call(Layer::VmRunCt, 1e3)),
        ("vm.run_ct.hung_ratio", ratio(rp.hangs as f64, execs)),
        ("vm.share", share(&[Layer::VmPropose, Layer::VmRunCt])),
        ("race.detect.us_per_exec", per_call(Layer::RaceDetect, 1e3)),
        ("race.detect.reports_per_exec", ratio(rp.race_reports as f64, execs)),
        ("race.share", share(&[Layer::RaceDetect])),
        ("harness.merge.us_per_cti", per_call(Layer::HarnessMerge, 1e3)),
        ("harness.checkpoint.writes", traced.sup.recovery.checkpoints_written as f64),
        ("harness.checkpoint.bytes_last", pr.checkpoint_bytes as f64),
        ("harness.checkpoint.ms_last", pr.checkpoint_ms),
        ("harness.checkpoint.share", share(&[Layer::HarnessCheckpoint])),
        ("harness.unattributed_share", 1.0 - share(&attributed)),
        ("events.written", ev.written as f64),
        ("events.dropped", ev.dropped as f64),
        ("events.bytes", events_bytes),
        ("events.emit_ns", pr.emit_ns),
        ("serve.flushes", sv.map_or(0.0, |s| s.flushes as f64)),
        ("serve.batch_fill", sv.map_or(0.0, |s| s.batch_fill)),
        ("serve.queue_depth_max", sv.map_or(0.0, |s| s.queue_depth_max as f64)),
        ("serve.shed", sv.map_or(0.0, |s| s.shed as f64)),
        ("serve.p50_us", pr.serve_p50_us),
        ("serve.p99_us", pr.serve_p99_us),
        ("kernel.build_ms", setup_ms(|s| s.kernel)),
        ("cfg.build_ms", setup_ms(|s| s.cfg)),
        ("corpus.fuzz_ms", setup_ms(|s| s.fuzz)),
        // Traced against plain CTIs per second.
        ("trace.overhead_pct", (1.0 - plain_s / traced_s) * 100.0),
    ];
    Ok(Outcome {
        failures,
        ctis,
        walls: vec![plain.wall_s, plain_again.wall_s],
        attempted: ctis as u64,
        failed: failed_ctis(&traced.sup, ctis),
        digest,
        metrics,
    })
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the metric tables"))
}

/// Print the human-readable lines and, last, the result object. Returns
/// whether every check passed.
fn print_outcome(o: &Opts, out: &Outcome) -> bool {
    let correct = out.failures.is_empty();
    let summary = Value::Object(vec![
        ("workload".into(), Value::Str(o.workload.name().into())),
        ("seed".into(), Value::Str(format!("{:#x}", o.seed))),
        ("kernel_seed".into(), Value::Str(format!("{:#x}", o.kernel_seed))),
        ("trace".into(), Value::Bool(o.trace)),
        ("ctis".into(), Value::UInt(out.ctis as u64)),
        ("campaign_s".into(), Value::Array(out.walls.iter().map(|&s| Value::Float(s)).collect())),
        ("report_digest".into(), Value::Str(format!("{:016x}", out.digest))),
        ("ops_attempted".into(), Value::UInt(out.attempted)),
        ("ops_failed".into(), Value::UInt(out.failed)),
    ]);
    println!("{}", to_json(summary));
    for f in &out.failures {
        eprintln!("snowbench: check failed: {f}");
    }
    let mut metrics = Vec::new();
    if correct {
        for &(name, value) in &out.metrics {
            let unit = unit_of(name);
            println!("  {name:<30} {value:>16.4} {unit}");
            let m = vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.into())),
            ];
            metrics.push((name.to_string(), Value::Object(m)));
        }
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(out.attempted)),
        ("failed".into(), Value::UInt(out.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", to_json(result));
    correct
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("snowbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            if !print_outcome(&opts, &out) {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("snowbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Object(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v).expect("field present")
            }
            _ => panic!("not an object"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            _ => panic!("not a string"),
        }
    }

    /// (name, unit) of every entry of a BENCHMARK.json metric list.
    fn listed(section: &str) -> Vec<(String, String)> {
        let Value::Array(items) = field(&benchmark_json(), section).clone() else {
            panic!("{section} is not a list")
        };
        items
            .iter()
            .map(|m| (text(field(m, "name")).into(), text(field(m, "unit")).into()))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(owned(&END_TO_END), listed("end_to_end"));
        assert_eq!(owned(&PER_LAYER), listed("per_layer"));
        let Value::Array(ws) = field(&benchmark_json(), "workloads").clone() else {
            panic!("workloads is not a list")
        };
        let names: Vec<&str> = ws.iter().map(|w| text(field(w, "name"))).collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_u64("17"), Ok(17));
        assert_eq!(parse_u64("0x5EED2023"), Ok(DEV_SEED));
        assert!(parse_u64("5EED2023").is_err());
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }

    /// Run a workload in quick mode, plain and traced, and check that the
    /// printed metric names and units are exactly the BENCHMARK.json lists.
    fn quick_run_prints_listed_metrics(w: Workload) {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let o = Opts {
                workload: w,
                seed: DEV_SEED,
                kernel_seed: DEV_SEED,
                seconds: 0.0,
                trace,
                quick: true,
                out: std::env::temp_dir().join(format!(
                    "snowbench-{}-{}-{trace}",
                    std::process::id(),
                    w.name()
                )),
            };
            let out = run(&o).expect("quick run completes");
            assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
            assert!(out.metrics.iter().all(|(_, v)| v.is_finite()));
            let printed: Vec<(String, String)> =
                out.metrics.iter().map(|&(n, _)| (n.to_string(), unit_of(n).to_string())).collect();
            assert_eq!(printed, listed(section), "{} trace={trace}", w.name());
            let _ = std::fs::remove_dir_all(&o.out);
        }
    }

    #[test]
    fn quick_mlpct_s1() {
        quick_run_prints_listed_metrics(Workload::MlpctS1);
    }

    #[test]
    fn quick_pct_durable() {
        quick_run_prints_listed_metrics(Workload::PctDurable);
    }

    #[test]
    fn quick_mlpct_s1_served() {
        quick_run_prints_listed_metrics(Workload::MlpctS1Served);
    }
}
