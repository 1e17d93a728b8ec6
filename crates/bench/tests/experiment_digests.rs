//! Experiment digest table: every experiment binary at smoke scale,
//! pinned bit for bit.
//!
//! Each binary runs in a fresh temporary directory (so there is no
//! `results/cache` to load a model from) with `CARGO_MANIFEST_DIR` removed
//! from its environment (with it set, `save_json` writes into the
//! repository's `results/`). Every `results/*.json` it writes is parsed,
//! stripped of its wall-clock fields and FNV-1a-hashed; the exit codes and
//! the hashes must equal the table below.
//!
//! The wall-clock fields are all of `exp_inference_cost.json` (its file is
//! only required to exist) and every `train_seconds` and `startup_hours`
//! key. Everything else these binaries write is a pure function of the
//! code, so this is the gate for any kernel, inference or training change:
//! a change that claims bit-identity must leave the table as it is, and a
//! change that moves a digest updates the table and says why.
//!
//! `table1_predictor` and `table3_bugs` exit 2 at smoke scale (their shape
//! checks fail on the smoke-sized model and stream); they are pinned as
//! they are.

use std::path::Path;
use std::process::Command;

/// Stands in for a digest: the file must exist, its content is wall-clock.
const WALL_CLOCK: &str = "wall-clock";

/// Keys whose values are wall-clock measurements, dropped at any depth.
const WALL_CLOCK_KEYS: &[&str] = &["train_seconds", "startup_hours"];

/// `(binary, exit code, [(file under results/, digest)])`, binaries in
/// name order, files in name order.
type Table = Vec<(&'static str, i32, Vec<(String, String)>)>;

/// One row of [`EXPECTED`], shaped like a [`Table`] row.
type Row = (&'static str, i32, &'static [(&'static str, &'static str)]);

const EXPECTED: &[Row] = &[
    ("a6_analytic", 0, &[("a6_analytic.json", "ce109b4c35a3ad68")]),
    ("ablation_graph", 0, &[("ablation_graph.json", "131ecc838a5cfc75")]),
    ("exp_inference_cost", 0, &[("exp_inference_cost.json", WALL_CLOCK)]),
    ("exp_per_cti", 0, &[("exp_per_cti.json", "05462cfd1e2b0877")]),
    ("ext_razzer_flow", 0, &[("ext_razzer_flow.json", "661fc26bcfaa39b4")]),
    (
        "fig5_generalization",
        0,
        &[
            ("fig5_generalization.json", "8767d1a467ffac10"),
            ("table2_models.json", "ff62fa7fbd6dc5c7"),
        ],
    ),
    ("fig5a_campaign", 0, &[("fig5a_campaign.json", "8bdf94efa6a42f59")]),
    ("sweep_hparams", 0, &[("sweep_hparams.json", "4d93850e54379093")]),
    ("table1_predictor", 2, &[("table1_predictor.json", "05cefc38442c5d8b")]),
    ("table3_bugs", 2, &[("table3_bugs.json", "08a3d2dce21828db")]),
    ("table4_razzer", 0, &[("table4_razzer.json", "09a758ba2446b3be")]),
    ("table5_snowboard", 0, &[("table5_snowboard.json", "9bdf3c550f013f16")]),
];

/// Every experiment binary of this package, in name order.
fn binaries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("a6_analytic", env!("CARGO_BIN_EXE_a6_analytic")),
        ("ablation_graph", env!("CARGO_BIN_EXE_ablation_graph")),
        ("exp_inference_cost", env!("CARGO_BIN_EXE_exp_inference_cost")),
        ("exp_per_cti", env!("CARGO_BIN_EXE_exp_per_cti")),
        ("ext_razzer_flow", env!("CARGO_BIN_EXE_ext_razzer_flow")),
        ("fig5_generalization", env!("CARGO_BIN_EXE_fig5_generalization")),
        ("fig5a_campaign", env!("CARGO_BIN_EXE_fig5a_campaign")),
        ("sweep_hparams", env!("CARGO_BIN_EXE_sweep_hparams")),
        ("table1_predictor", env!("CARGO_BIN_EXE_table1_predictor")),
        ("table3_bugs", env!("CARGO_BIN_EXE_table3_bugs")),
        ("table4_razzer", env!("CARGO_BIN_EXE_table4_razzer")),
        ("table5_snowboard", env!("CARGO_BIN_EXE_table5_snowboard")),
    ]
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

fn drop_wall_clock(v: &mut serde_json::Value) {
    match v {
        serde_json::Value::Object(fields) => {
            fields.retain(|(k, _)| !WALL_CLOCK_KEYS.contains(&k.as_str()));
            fields.iter_mut().for_each(|(_, f)| drop_wall_clock(f));
        }
        serde_json::Value::Array(items) => items.iter_mut().for_each(drop_wall_clock),
        _ => {}
    }
}

/// A parsed JSON value, re-rendered as it was parsed.
struct Parsed(serde_json::Value);

impl serde::Serialize for Parsed {
    fn to_value(&self) -> serde_json::Value {
        self.0.clone()
    }
}

/// Digest of one output file: FNV-1a over the compact JSON of its value
/// minus the wall-clock keys.
fn digest(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    let mut value =
        serde_json::parse(&text).unwrap_or_else(|e| panic!("{} is not JSON: {e}", path.display()));
    drop_wall_clock(&mut value);
    format!("{:016x}", fnv1a64(serde_json::to_string(&Parsed(value)).unwrap().as_bytes()))
}

/// Run one binary at smoke scale in a fresh directory; its exit code and
/// the digest of every JSON file it wrote under `results/`.
fn run(name: &str, exe: &str) -> (i32, Vec<(String, String)>) {
    let dir = std::env::temp_dir().join(format!("snowcat-digests-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(exe)
        .args(["--scale", "smoke"])
        .current_dir(&dir)
        .env_remove("CARGO_MANIFEST_DIR")
        .output()
        .unwrap_or_else(|e| panic!("{name} did not start: {e}"));
    let code = out.status.code().unwrap_or_else(|| panic!("{name} was killed: {:?}", out.status));
    let mut files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir.join("results")) {
        for entry in entries {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                let file = path.file_name().unwrap().to_string_lossy().into_owned();
                let d = if file == "exp_inference_cost.json" {
                    WALL_CLOCK.to_owned()
                } else {
                    digest(&path)
                };
                files.push((file, d));
            }
        }
    }
    files.sort();
    let _ = std::fs::remove_dir_all(&dir);
    (code, files)
}

fn render(table: &Table) -> String {
    let mut s = String::new();
    for (name, code, files) in table {
        s.push_str(&format!("    (\"{name}\", {code}, &[\n"));
        for (file, d) in files {
            s.push_str(&format!("        (\"{file}\", \"{d}\"),\n"));
        }
        s.push_str("    ]),\n");
    }
    s
}

#[test]
fn every_experiment_binary_matches_its_committed_digests() {
    let computed: Table = binaries()
        .into_iter()
        .map(|(name, exe)| {
            let (code, files) = run(name, exe);
            (name, code, files)
        })
        .collect();
    let expected: Table = EXPECTED
        .iter()
        .map(|&(name, code, files)| {
            let files = files.iter().map(|&(f, d)| (f.to_owned(), d.to_owned())).collect();
            (name, code, files)
        })
        .collect();
    assert!(
        computed == expected,
        "experiment digests moved; the computed table is\n{}",
        render(&computed)
    );
}
