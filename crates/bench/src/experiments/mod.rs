//! The experiment registry: every result under `results/` is produced by
//! exactly one entry, and every entry is a byte-gated golden.
//!
//! An entry is a function filling an [`Out`] — its table text (written as
//! `results/<name>.txt`) plus the named JSON/CSV files it declares in
//! [`Experiment::outputs`]. Entries never touch the filesystem themselves;
//! [`regenerate`] writes what they produced, and [`check`] regenerates
//! every [`REGISTRY`] entry into a scratch tree and compares it byte for
//! byte against the committed `results/`. Host time is measured elsewhere
//! (the `hostbench` package), never here.

mod ablation;
mod extension;
mod observability;
mod paper;

use std::fs;
use std::path::Path;

use nesc_sim::selfcheck::{first_divergence, self_check};
use nesc_workloads::MixedVfSelfCheck;
use serde_json::Value;

use crate::forensic::parse_json;
use ablation::*;
use extension::*;
use observability::*;
use paper::*;

/// What one experiment produced: its table text and its named files.
#[derive(Debug, Default)]
pub struct Out {
    text: String,
    files: Vec<(String, String)>,
}

impl Out {
    /// Appends one line of table text.
    pub fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// Appends a fixed-width table (see [`crate::table`]).
    pub fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        self.text.push_str(&crate::table(title, headers, rows));
    }

    /// Records `results/<stem>.json`, pretty-printed.
    pub fn json(&mut self, stem: &str, value: &Value) -> Result<(), String> {
        let text = serde_json::to_string_pretty(value)
            .map_err(|e| format!("serializing {stem}.json: {e}"))?;
        self.file(&format!("{stem}.json"), text);
        Ok(())
    }

    /// Records `results/<name>` verbatim and notes it in the text.
    pub fn file(&mut self, name: &str, contents: String) {
        self.line(format!("\n[results written to results/{name}]"));
        self.files.push((name.to_string(), contents));
    }

    /// The table text so far.
    pub fn text(&self) -> &str {
        &self.text
    }
}

/// Appends one formatted line to an [`Out`], like `println!` to stdout.
#[macro_export]
macro_rules! outln {
    ($out:expr) => {
        $out.line("")
    };
    ($out:expr, $($arg:tt)*) => {
        $out.line(format!($($arg)*))
    };
}

/// One registry entry.
pub struct Experiment {
    /// The name `nesc-bench run` takes; also the stem of its `.txt`.
    pub name: &'static str,
    /// Files the entry writes under `results/` besides `<name>.txt`.
    pub outputs: &'static [&'static str],
    /// Produces the entry's text and files.
    pub run: fn(&mut Out) -> Result<(), String>,
}

impl Experiment {
    /// Every file the entry leaves under `results/`: `<name>.txt` and its
    /// declared outputs.
    pub fn files(&self) -> Vec<String> {
        let text = format!("{}.txt", self.name);
        std::iter::once(text)
            .chain(self.outputs.iter().map(|s| s.to_string()))
            .collect()
    }
}

macro_rules! entry {
    ($name:ident $(, $out:literal)*) => {
        Experiment { name: stringify!($name), outputs: &[$($out),*], run: $name }
    };
}

/// Every entry; each output is a function of the code alone.
pub const REGISTRY: &[Experiment] = &[
    entry!(fig2_direct_speedup, "fig2_direct_speedup.json"),
    entry!(fig9_latency, "fig9_latency.json"),
    entry!(fig10_bandwidth, "fig10_bandwidth.json"),
    entry!(fig11_fs_overhead, "fig11_fs_overhead.json"),
    entry!(fig12_apps, "fig12_apps.json"),
    entry!(table1_platform, "table1_platform.json"),
    entry!(table2_benchmarks, "table2_benchmarks.json"),
    entry!(ablation_btlb, "ablation_btlb.json"),
    entry!(ablation_prune_pressure, "ablation_prune_pressure.json"),
    entry!(ablation_scheduler, "ablation_scheduler.json"),
    entry!(ablation_tree_depth, "ablation_tree_depth.json"),
    entry!(ablation_walk_overlap, "ablation_walk_overlap.json"),
    entry!(extension_flash, "extension_flash.json"),
    entry!(extension_gen3, "extension_gen3.json"),
    entry!(extension_nested, "extension_nested.json"),
    entry!(extension_qos, "extension_qos.json"),
    entry!(
        latency_breakdown,
        "latency_breakdown_trace.json",
        "latency_breakdown.json"
    ),
    entry!(golden_trace, "golden_trace.json"),
    entry!(
        nesc_report,
        "telemetry_mixed.csv",
        "telemetry_trace.json",
        "telemetry_mixed.json"
    ),
    entry!(
        forensics,
        "forensic_dump.json",
        "forensic_window_trace.json"
    ),
    entry!(scale_out, "scale_mixed.json"),
];

/// Looks an entry up by name; the error lists every name.
pub fn find(name: &str) -> Result<&'static Experiment, String> {
    let hit = REGISTRY.iter().find(|e| e.name == name);
    hit.ok_or_else(|| {
        let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        format!(
            "unknown experiment `{name}`; valid names: all, {}",
            names.join(", ")
        )
    })
}

/// Runs `exp` and writes its [`Experiment::files`] under `dir`. Fails if the entry errors, writes a file it did not
/// declare (or misses one it did), or a write fails.
pub fn regenerate(exp: &Experiment, dir: &Path) -> Result<Out, String> {
    let mut out = Out::default();
    (exp.run)(&mut out).map_err(|e| format!("{}: {e}", exp.name))?;
    let written: Vec<&str> = out.files.iter().map(|(n, _)| n.as_str()).collect();
    if written != exp.outputs {
        return Err(format!(
            "{}: wrote {written:?}, but the registry declares {:?}",
            exp.name, exp.outputs
        ));
    }
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let text = (format!("{}.txt", exp.name), out.text.clone());
    for (name, contents) in out.files.iter().cloned().chain([text]) {
        let path = dir.join(&name);
        fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(out)
}

/// Where `check` leaves its regenerated tree for inspection.
pub const CHECK_DIR: &str = "target/nesc-bench-check";

/// The full gate: the divergence self-check, then every entry
/// regenerated into [`CHECK_DIR`] and byte-compared against `golden_dir`.
/// Returns one message per failure.
pub fn check(golden_dir: &Path) -> Result<(), Vec<String>> {
    divergence_check().map_err(|e| vec![e])?;
    let dir = Path::new(CHECK_DIR);
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| vec![format!("clearing {CHECK_DIR}: {e}")])?;
    }
    let mut failures = Vec::new();
    for exp in REGISTRY {
        if let Err(e) = regenerate(exp, dir) {
            failures.push(e);
            continue;
        }
        let files = exp.files();
        let bad: Vec<String> = files
            .iter()
            .filter_map(|f| compare_files(&golden_dir.join(f), &dir.join(f)).err())
            .collect();
        if bad.is_empty() {
            println!("OK   {:<24} {} files byte-identical", exp.name, files.len());
        } else {
            println!("FAIL {}", exp.name);
            failures.extend(bad);
        }
    }
    if failures.is_empty() {
        println!("check: every result regenerated byte-identical");
        Ok(())
    } else {
        Err(failures)
    }
}

/// Runs the mixed multi-VF workload twice from one seed and requires
/// identical run digests (event sequence, span tree, per-path totals at every
/// checkpoint) — a nondeterminism bug that escaped `nesc-lint`'s static
/// rules shows here. A different seed must diverge, proving the detector
/// is not blind.
pub fn divergence_check() -> Result<(), String> {
    const SEED: u64 = 0x4E65_5343_0003;
    let workload = MixedVfSelfCheck::default();
    println!(
        "divergence self-check: {} requests over {} VFs ({}% reads), checkpoint every {}",
        workload.requests, workload.vfs, workload.read_percent, workload.checkpoint_every
    );
    let hash = self_check(SEED, |s| workload.digest(s))
        .map_err(|d| format!("same-seed runs diverged: {d}"))?;
    println!("  same-seed double run identical (seed {SEED:#x}, final hash {hash:#018x})");
    let other = workload.digest(SEED ^ 0x9E37_79B9_7F4A_7C15);
    let d = first_divergence(&workload.digest(SEED), &other)
        .ok_or("different seeds produced identical digests; the detector is blind")?;
    println!("  cross-seed sanity OK — {d}");
    Ok(())
}

/// Compares a regenerated file against its golden; the error names the
/// file and, for JSON, the first divergent path (else the first
/// divergent line). A JSON path through an array element with a `name`
/// member also names that element (and a perfmon series' sample its
/// window); a CSV line names its column and the row's first cell.
pub fn compare_files(golden: &Path, fresh: &Path) -> Result<(), String> {
    let read = |p: &Path| fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let (want, got) = (read(golden)?, read(fresh)?);
    if want == got {
        return Ok(());
    }
    let is_json = golden.extension().is_some_and(|e| e == "json");
    let at = match (is_json, parse_json(&want), parse_json(&got)) {
        (true, Ok(w), Ok(g)) => match divergence(&w, &g) {
            Some((path, Some(element))) => {
                format!("first divergent JSON path {path} ({element})")
            }
            Some((path, None)) => format!("first divergent JSON path {path}"),
            None => "same JSON value, different bytes".to_string(),
        },
        _ => {
            let line = want
                .lines()
                .zip(got.lines())
                .position(|(w, g)| w != g)
                .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
            let is_csv = golden.extension().is_some_and(|e| e == "csv");
            match is_csv.then(|| csv_cell(&want, &got, line)).flatten() {
                Some(cell) => format!("first divergent line {} ({cell})", line + 1),
                None => format!("first divergent line {}", line + 1),
            }
        }
    };
    Err(format!(
        "{} differs from {}: {at}",
        fresh.display(),
        golden.display()
    ))
}

/// The first JSONPath (`$.points[2].miss_interrupts`) at which two
/// documents differ, or `None` when they are equal. Object members are
/// compared in order, so a renamed, missing or reordered key is reported
/// at the first position where the key sequences part.
pub fn first_divergent_path(want: &Value, got: &Value) -> Option<String> {
    divergence(want, got).map(|(path, _)| path)
}

/// [`first_divergent_path`], plus a label for the innermost array
/// element on the path that has a `name` member: `"<name>"`, and for a
/// perfmon series' `samples[k]` also `window <first_window + k>`.
fn divergence(want: &Value, got: &Value) -> Option<(String, Option<String>)> {
    fn walk(want: &Value, got: &Value, path: String) -> Option<(String, Option<String>)> {
        match (want, got) {
            (Value::Object(w), Value::Object(g)) => {
                for (i, (key, wv)) in w.iter().enumerate() {
                    match g.get(i) {
                        Some((k, gv)) if k == key => {
                            if let Some(p) = walk(wv, gv, format!("{path}.{key}")) {
                                return Some(p);
                            }
                        }
                        _ => return Some((format!("{path}.{key}"), None)),
                    }
                }
                g.get(w.len())
                    .map(|(key, _)| (format!("{path}.{key}"), None))
            }
            (Value::Array(w), Value::Array(g)) => {
                for (i, (wv, gv)) in w.iter().zip(g).enumerate() {
                    let here = format!("{path}[{i}]");
                    if let Some((p, label)) = walk(wv, gv, here.clone()) {
                        let label = label.or_else(|| element_label(wv, &p[here.len()..]));
                        return Some((p, label));
                    }
                }
                let short = w.len().min(g.len());
                (w.len() != g.len()).then(|| (format!("{path}[{short}]"), None))
            }
            _ => (want != got).then_some((path, None)),
        }
    }
    walk(want, got, "$".to_string())
}

/// The label of an array element with a `name` member; `rest` is the
/// divergent path below the element.
fn element_label(element: &Value, rest: &str) -> Option<String> {
    let name = element.get("name")?.as_str()?;
    let sample = rest
        .strip_prefix(".samples[")
        .and_then(|r| r.strip_suffix(']'));
    let first = element.get("first_window").and_then(Value::as_u64);
    match sample.and_then(|k| k.parse::<u64>().ok()).zip(first) {
        Some((k, first)) => Some(format!("{name:?}, window {}", first + k)),
        None => Some(format!("{name:?}")),
    }
}

/// For a CSV data line (`line`, 0-based) that differs: its first
/// divergent cell's column header and the row's first cell
/// (`column "<header>", <first header> <first cell>`).
fn csv_cell(want: &str, got: &str, line: usize) -> Option<String> {
    if line == 0 {
        return None;
    }
    let header: Vec<&str> = want.lines().next()?.split(',').collect();
    let w: Vec<&str> = want.lines().nth(line)?.split(',').collect();
    let g: Vec<&str> = got.lines().nth(line)?.split(',').collect();
    let col = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i))?;
    let (column, first) = (header.get(col)?, header.first()?);
    Some(format!("column {column:?}, {first} {}", w.first()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn results_dir() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nesc-bench-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn divergent_path_names_the_first_difference() {
        let base = r#"{"points": [{"every": 0, "miss_interrupts": 0}, {"every": 64, "miss_interrupts": 4},
            {"every": 4, "miss_interrupts": 64}], "name": "x"}"#;
        let cases = [
            // Changed number.
            (
                "64, \"miss_interrupts\": 4",
                "64, \"miss_interrupts\": 5",
                "$.points[1].miss_interrupts",
            ),
            // Changed array element.
            ("\"every\": 4,", "\"every\": 2,", "$.points[2].every"),
            // Missing key.
            (
                ", \"miss_interrupts\": 0}",
                "}",
                "$.points[0].miss_interrupts",
            ),
            // Extra trailing element.
            ("64}]", "64}, {}]", "$.points[3]"),
            // Type change.
            ("\"x\"", "[\"x\"]", "$.name"),
        ];
        let want = parse_json(base).unwrap();
        assert_eq!(first_divergent_path(&want, &want), None);
        for (from, to, path) in cases {
            let got = parse_json(&base.replacen(from, to, 1)).unwrap();
            assert_eq!(first_divergent_path(&want, &got).as_deref(), Some(path));
        }
    }

    #[test]
    fn mutated_golden_fails_with_its_path() {
        let golden = results_dir().join("ablation_prune_pressure.json");
        let text = fs::read_to_string(&golden).unwrap();
        // Bump the third point's miss-interrupt count by one.
        let key = "\"miss_interrupts\": ";
        let at = text.match_indices(key).nth(2).unwrap().0 + key.len();
        let digits = text[at..].chars().take_while(char::is_ascii_digit).count();
        let n: u64 = text[at..at + digits].parse().unwrap();
        let mutated = format!("{}{}{}", &text[..at], n + 1, &text[at + digits..]);
        let dir = scratch("mutated");
        let copy = dir.join("ablation_prune_pressure.json");
        fs::write(&copy, mutated).unwrap();

        assert!(compare_files(&golden, &golden).is_ok());
        let err = compare_files(&copy, &golden).unwrap_err();
        assert!(
            err.ends_with("first divergent JSON path $.points[2].miss_interrupts"),
            "{err}"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn text_mismatch_names_the_line() {
        let dir = scratch("text");
        let (a, b) = (dir.join("a.txt"), dir.join("b.txt"));
        fs::write(&a, "one\ntwo\nthree\n").unwrap();
        fs::write(&b, "one\nTWO\nthree\n").unwrap();
        let err = compare_files(&a, &b).unwrap_err();
        assert!(err.ends_with("first divergent line 2"), "{err}");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn mismatch_names_the_series_and_window() {
        let dir = scratch("named");
        // A perfmon export: series 1 diverges at its third retained window.
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        let series = r#"{"windows": 9, "series": [
            {"name": "core.btlb_hits", "first_window": 4, "samples": [1, 2, 3]},
            {"name": "hv.vf3.p99_ns", "first_window": 5, "samples": [4, 5, 6]}]}"#;
        fs::write(&a, series).unwrap();
        fs::write(&b, series.replace("5, 6", "5, 7")).unwrap();
        let err = compare_files(&a, &b).unwrap_err();
        let want = r#"$.series[1].samples[2] ("hv.vf3.p99_ns", window 7)"#;
        assert!(err.ends_with(want), "{err}");
        // A named element's other members name it without a window.
        fs::write(
            &b,
            series.replace("\"first_window\": 5", "\"first_window\": 6"),
        )
        .unwrap();
        let err = compare_files(&a, &b).unwrap_err();
        assert!(
            err.ends_with(r#"$.series[1].first_window ("hv.vf3.p99_ns")"#),
            "{err}"
        );

        // The CSV export: the diverging cell's column and the row's window.
        let (a, b) = (dir.join("a.csv"), dir.join("b.csv"));
        fs::write(&a, "window,end_ns,x.ops,y.ops\n3,40,1,2\n4,50,1,2\n").unwrap();
        fs::write(&b, "window,end_ns,x.ops,y.ops\n3,40,1,2\n4,50,1,9\n").unwrap();
        let err = compare_files(&a, &b).unwrap_err();
        assert!(
            err.ends_with(r#"first divergent line 3 (column "y.ops", window 4)"#),
            "{err}"
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn every_result_has_exactly_one_deterministic_producer() {
        // File name -> producing entry; no file twice.
        let mut producers: BTreeMap<String, &Experiment> = BTreeMap::new();
        for exp in REGISTRY {
            for f in exp.files() {
                let dup = producers.insert(f.clone(), exp).map(|e| e.name);
                assert!(dup.is_none(), "{f} is written by {dup:?} and {}", exp.name);
            }
        }
        // Every file under results/ is a golden, except the lint report
        // (`scripts/check.sh` writes it from `nesc-lint`).
        for entry in fs::read_dir(results_dir()).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name != "lint.json" {
                let producer = producers.contains_key(&name);
                assert!(producer, "results/{name} has no registry producer");
            }
        }
    }

    #[test]
    fn unknown_name_lists_the_valid_ones() {
        assert_eq!(find("fig9_latency").unwrap().name, "fig9_latency");
        let err = find("fig99").err().unwrap();
        assert!(err.contains("fig9_latency") && err.contains("scale_out"));
    }

    #[test]
    fn table1_regenerates_byte_identical() {
        let exp = find("table1_platform").unwrap();
        let dir = scratch("table1");
        let out = regenerate(exp, &dir).unwrap();
        assert!(out.text().starts_with("Table I reproduction"));
        for f in exp.files() {
            compare_files(&results_dir().join(&f), &dir.join(&f)).unwrap();
        }
        fs::remove_dir_all(dir).unwrap();
    }
}
