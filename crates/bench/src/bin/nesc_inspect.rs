//! `nesc-inspect` — query a forensic flight-recorder dump.
//!
//! ```text
//! nesc-inspect [--dump PATH] <command> [options]
//!
//! commands:
//!   summary                  dump overview: anomaly, ring, exemplars
//!   timeline [--vf N] [--limit N]
//!                            event timeline, optionally one VF's slice
//!   why                      worst request: phase breakdown derived from
//!                            flight events, cross-checked against the
//!                            exemplar's span tree (exit 1 on mismatch)
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
use nesc_sim::{FlightEventKind, FlightSnapshot};

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
        "ring    : {} retained / {} appended / {} dropped (capacity {})",
        f.events.len(),
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
    let events: Vec<_> = match vf {
        Some(v) => f.vf_events(v),
        None => f.events.iter().collect(),
    };
    let shown = events.len().min(limit);
    let rows: Vec<Vec<String>> = events[events.len() - shown..]
        .iter()
        .map(|e| {
            vec![
                fmt(e.t_ns as f64 / 1000.0),
                e.kind.as_str().to_string(),
                e.func.to_string(),
                e.a.to_string(),
                e.b.to_string(),
            ]
        })
        .collect();
    let title = match vf {
        Some(v) => format!("Timeline — VF {v} ({} of {} events)", shown, events.len()),
        None => format!("Timeline ({} of {} events)", shown, events.len()),
    };
    print!(
        "{}",
        table(&title, &["t us", "event", "func", "a", "b"], &rows)
    );
}

/// The "why was this request slow" view. Returns false when the event-
/// and span-derived breakdowns disagree or do not sum to the latency — a
/// determinism or instrumentation bug worth a non-zero exit.
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
        .events
        .iter()
        .filter(|e| {
            matches!(e.kind, FlightEventKind::BtlbMiss | FlightEventKind::Rewalk)
                && e.t_ns <= worst.t_ns
                && e.t_ns + 1_000_000 > worst.t_ns
        })
        .count();
    println!("\n  context: {walks} BTLB walk/rewalk events in the preceding 1 ms");
    println!("  event-derived and span-derived breakdowns agree exactly.");
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
