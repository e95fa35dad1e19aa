//! `nesc-inspect` — query a forensic flight-recorder dump.
//!
//! ```text
//! nesc-inspect [--dump PATH] <command> [options]
//!
//! commands:
//!   summary                  dump overview: anomaly, ring, exemplars
//!   timeline [--vf N] [--limit N]
//!                            the ring's span rows, optionally one VF's
//!   why                      worst request: phase breakdown from its span
//!                            tree, which must tile the request and sum to
//!                            its tallied latency (exit 1 otherwise)
//!   contention [--top K]     per-function media/link busy-time attribution
//!   perfetto [--out PATH]    re-export the dump as a merged Perfetto trace
//! ```
//!
//! The dump defaults to `results/forensic_dump.json` (written by
//! `nesc-bench run forensics`). Its flight section reads back into the
//! `FlightSnapshot` the dump was written from, and every command is a
//! query of that model: `why` runs the same checked breakdown the
//! `forensics` harness does, and `perfetto` renders with the same
//! span and counter-track renderers as the harness's
//! `forensic_window_trace.json`, byte for byte.

use std::process::ExitCode;

use nesc_bench::forensic::{window_trace, ForensicDump};
use nesc_bench::{fmt, table};
use nesc_sim::{FlightSnapshot, SpanKind};

struct Args {
    dump: String,
    command: String,
    vf: Option<u32>,
    limit: usize,
    top: usize,
    out: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: nesc-inspect [--dump PATH] <summary|timeline|why|contention|perfetto> \
         [--vf N] [--limit N] [--top K] [--out PATH]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut args = Args {
        dump: "results/forensic_dump.json".to_string(),
        command: String::new(),
        vf: None,
        limit: 40,
        top: 8,
        out: "results/forensic_window_trace.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Result<String, ExitCode> {
            it.next().ok_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--dump" => args.dump = flag_value("--dump")?,
            "--vf" => {
                let v = flag_value("--vf")?;
                args.vf = Some(v.parse().map_err(|_| {
                    eprintln!("--vf wants an integer, got {v}");
                    usage()
                })?);
            }
            "--limit" => {
                let v = flag_value("--limit")?;
                args.limit = v.parse().map_err(|_| {
                    eprintln!("--limit wants an integer, got {v}");
                    usage()
                })?;
            }
            "--top" => {
                let v = flag_value("--top")?;
                args.top = v.parse().map_err(|_| {
                    eprintln!("--top wants an integer, got {v}");
                    usage()
                })?;
            }
            "--out" => args.out = flag_value("--out")?,
            "--help" | "-h" => return Err(usage()),
            cmd if args.command.is_empty() && !cmd.starts_with('-') => {
                args.command = cmd.to_string();
            }
            other => {
                eprintln!("unknown argument: {other}");
                return Err(usage());
            }
        }
    }
    if args.command.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn load(path: &str) -> Result<ForensicDump, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e} (run `nesc-bench run forensics` first)");
        ExitCode::FAILURE
    })?;
    ForensicDump::parse(&text).map_err(|e| {
        eprintln!("{path} is not a forensic dump: {e}");
        ExitCode::FAILURE
    })
}

fn summary(d: &ForensicDump) {
    let f = &d.flight;
    println!("anomaly : {}", d.anomaly_text);
    println!("series  : {}", d.anomaly_series);
    println!("window  : {}", d.anomaly_window);
    println!(
        "ring    : {} rows retained / {} written / {} dropped (capacity {})",
        f.rows.len(),
        f.total,
        f.dropped,
        f.capacity
    );
    println!("exemplars: {}", f.exemplars.len());
    if let Some(w) = f.worst_exemplar() {
        println!(
            "worst   : seq {} on disk {} — {} us",
            w.seq,
            w.disk,
            fmt(w.latency_ns as f64 / 1000.0)
        );
    }
}

fn timeline(f: &FlightSnapshot, vf: Option<u32>, limit: usize) {
    let spans: Vec<_> = match vf {
        Some(v) => f.vf_rows(v),
        None => f.rows.iter().collect(),
    };
    let shown = spans.len().min(limit);
    let rows: Vec<Vec<String>> = spans[spans.len() - shown..]
        .iter()
        .map(|s| {
            vec![
                fmt(s.start.as_nanos() as f64 / 1000.0),
                fmt(s.duration_ns() as f64 / 1000.0),
                s.kind.as_str().to_string(),
                s.id.0.to_string(),
                s.parent.0.to_string(),
            ]
        })
        .collect();
    let title = match vf {
        Some(v) => format!("Timeline — VF {v} ({} of {} rows)", shown, spans.len()),
        None => format!("Timeline ({} of {} rows)", shown, spans.len()),
    };
    print!(
        "{}",
        table(&title, &["start us", "us", "span", "id", "parent"], &rows)
    );
}

/// The "why was this request slow" view. Returns false when the worst
/// request's span rows do not tile it or do not sum to its tallied
/// latency — a determinism or instrumentation bug worth a non-zero exit.
fn why(f: &FlightSnapshot) -> bool {
    let Some(worst) = f.worst_exemplar() else {
        eprintln!("dump has no exemplars");
        return false;
    };
    let phases = match f.checked_breakdown(worst) {
        Ok(phases) => phases,
        Err(e) => {
            eprintln!("BREAKDOWN MISMATCH: {e}");
            return false;
        }
    };
    let rows: Vec<Vec<String>> = phases
        .iter()
        .map(|&(name, ns)| {
            vec![
                name.to_string(),
                fmt(ns as f64 / 1000.0),
                format!("{:.1}", 100.0 * ns as f64 / worst.latency_ns.max(1) as f64),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &format!(
                "Why was request {} slow? ({} us on disk {}, window {})",
                worst.seq,
                fmt(worst.latency_ns as f64 / 1000.0),
                worst.disk,
                worst.window
            ),
            &["phase", "us", "% of total"],
            &rows,
        )
    );
    // Contextual evidence: translation activity around the slow request.
    let walks = f
        .rows
        .iter()
        .filter(|s| {
            let end = s.end.as_nanos();
            matches!(s.kind, SpanKind::Walk | SpanKind::Rewalk)
                && end <= worst.t_ns
                && end + 1_000_000 > worst.t_ns
        })
        .count();
    println!("\n  context: {walks} walk/rewalk rows in the preceding 1 ms");
    println!("  the span phases tile the request and sum to its tallied latency.");
    true
}

fn contention(f: &FlightSnapshot, top: usize) {
    let rows: Vec<Vec<String>> = f
        .contention_top_k(top)
        .into_iter()
        .map(|(func, media, link)| {
            vec![
                func.to_string(),
                fmt(media as f64 / 1000.0),
                fmt(link as f64 / 1000.0),
                fmt((media + link) as f64 / 1000.0),
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &format!("Top-{top} contention (service busy time per function)"),
            &["func", "media us", "link us", "total us"],
            &rows,
        )
    );
}

fn perfetto(d: &ForensicDump, out: &str) -> bool {
    let trace = window_trace(&d.flight, &d.series);
    match serde_json::to_string_pretty(&trace) {
        Ok(s) => match std::fs::write(out, s) {
            Ok(()) => {
                println!("[merged Perfetto trace written to {out}]");
                true
            }
            Err(e) => {
                eprintln!("cannot write {out}: {e}");
                false
            }
        },
        Err(_) => {
            eprintln!("trace serialization failed");
            false
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let dump = match load(&args.dump) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let ok = match args.command.as_str() {
        "summary" => {
            summary(&dump);
            true
        }
        "timeline" => {
            timeline(&dump.flight, args.vf, args.limit);
            true
        }
        "why" => why(&dump.flight),
        "contention" => {
            contention(&dump.flight, args.top);
            true
        }
        "perfetto" => perfetto(&dump, &args.out),
        other => {
            eprintln!("unknown command: {other}");
            return usage();
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
