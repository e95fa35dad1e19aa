//! `nesc-bench` — the one experiment driver.
//!
//! ```text
//! nesc-bench run <name|all>      regenerate results/<name>.txt and the entry's
//!                                files (`all`: every entry)
//! nesc-bench check               divergence self-check, then regenerate every
//!                                entry into target/nesc-bench-check and
//!                                byte-compare it against results/
//! ```
//!
//! Exits 1 when an entry, a write or the check fails, 2 on a usage error
//! such as an unknown experiment name.

use std::path::Path;
use std::process::ExitCode;

use nesc_bench::experiments::{check, find, regenerate, REGISTRY};

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("nesc-bench: {msg}\nusage: nesc-bench run <name|all> | nesc-bench check");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, [name])) if cmd == "run" => {
            let selected = if name == "all" {
                REGISTRY.iter().collect()
            } else {
                match find(name) {
                    Ok(exp) => vec![exp],
                    Err(e) => return usage_error(&e),
                }
            };
            selected.into_iter().try_for_each(|exp| {
                print!("{}", regenerate(exp, Path::new("results"))?.text());
                Ok(())
            })
        }
        Some((cmd, rest)) if cmd == "check" && rest.is_empty() => {
            check(Path::new("results")).map_err(|failures| failures.join("\nFAIL: "))
        }
        _ => return usage_error("expected `run <name|all>` or `check`"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
