//! `nesc-inspect` end to end on the committed forensic dump: the CLI reads
//! the dump back into the typed flight model, and what it renders from
//! there must match what the `forensics` harness renders from the live
//! snapshot.

use std::path::Path;
use std::process::Command;

fn results(name: &str) -> String {
    format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn inspect(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_nesc-inspect"))
        .arg("--dump")
        .arg(results("forensic_dump.json"))
        .args(args)
        .output()
        .expect("nesc-inspect runs")
}

/// The Perfetto re-export of the committed dump reproduces the committed
/// `forensic_window_trace.json` byte for byte.
#[test]
fn perfetto_reexport_matches_the_committed_window_trace() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("forensic_window_trace.json");
    let run = inspect(&["perfetto", "--out", out.to_str().unwrap()]);
    assert!(run.status.success(), "{run:?}");
    let got = std::fs::read_to_string(&out).unwrap();
    let want = std::fs::read_to_string(results("forensic_window_trace.json")).unwrap();
    assert!(got == want, "re-export differs from the committed trace");
}

/// `why` exits 0 on the committed dump: the worst request's event- and
/// span-derived phases agree and sum to its latency.
#[test]
fn why_agrees_on_the_committed_dump() {
    let run = inspect(&["why"]);
    assert!(run.status.success(), "{run:?}");
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(stdout.contains("Why was request 211 slow?"), "{stdout}");
}
