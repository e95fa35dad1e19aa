#![warn(missing_docs)]

//! `nesc-lint` — the workspace determinism/invariant linter.
//!
//! Every number this reproduction publishes — the regenerated paper
//! figures, the byte-stable `results/golden_trace.json`, the span trees
//! that exactly partition end-to-end latency — depends on the simulator
//! being *bit-reproducible from a seed*. Runtime tests catch determinism
//! regressions only on the paths they exercise; this crate catches the
//! standard ways of breaking determinism statically, at the source level,
//! on every line of every workspace crate:
//!
//! | rule | forbids |
//! |------|---------|
//! | D1 | wall-clock reads (`Instant::now`, `SystemTime`) in simulated code |
//! | D2 | ambient randomness (`rand::`, `thread_rng`, `RandomState`, OS RNGs) |
//! | D3 | default-hasher `HashMap`/`HashSet` in simulation-state code |
//! | D4 | float types/literals in the event-timestamp/scheduling core |
//! | D5 | `Span`/`SpanId` fabricated outside the `Tracer` |
//! | D6 | raw integer literals where a sampling interval (`SimDuration`) is expected |
//! | D7 | heap-allocating calls inside `// nesc-lint: hot` regions of device-loop modules |
//! | T1 | raw `u64` LBAs in public APIs of address-carrying crates |
//! | T2 | `Plba` minted / newtype `.0` unwrapped outside boundary modules |
//! | T3 | open-coded `* BLOCK_SIZE` block↔byte conversion on LBA values |
//! | G1 | `// nesc-lint: guest-input` decode surfaces producing raw integers instead of `Untrusted<T>` |
//! | G2 | `Untrusted::into_unchecked` escapes outside boundary modules |
//! | G3 | guest-taint source→sink call-graph paths with no `validate_*` bounds proof |
//! | A1 | `#[allow(...)]` attributes without an adjacent rationale comment |
//! | A2 | suppression directives without a justification |
//! | A3 | suppression directives that suppress nothing |
//! | P1 | panic sites (`unwrap`/`expect`/`panic!`/`assert!`/…) on the reachable data path |
//! | P2 | direct slice indexing inside `// nesc-lint: hot` regions |
//! | P3 | data-path `pub fn` returning stringly/unit errors instead of a typed enum |
//! | L1 | `use nesc_*` edges off the declared crate-layering DAG |
//!
//! The T rules are the *address-provenance* family ([`provenance`]): they
//! statically enforce the NeSC isolation boundary that guest-virtual LBAs
//! are translated to physical LBAs exactly once, inside the allowlisted
//! boundary modules, and travel as `Vlba`/`Plba` newtypes everywhere
//! else.
//!
//! The G rules are the *guest-taint* family ([`guest`]), the mirror image
//! of T: values decoded *from* the guest (SQE fields, ring descriptors,
//! virtio headers, doorbells) travel as `Untrusted<T>` until a
//! `nesc_extent::validate_*` bounds proof releases them, and the call
//! graph is walked from every annotated decode surface to the
//! translation/DMA/indexing sinks to prove a validator sits on the path.
//!
//! The P rules are the *panic-freedom* family ([`callgraph`]): a
//! conservative whole-workspace call graph computes the set of functions
//! reachable from the data-path entry points (`System::run_open_loop`,
//! `process_vf_request`, the device completion loop, `Scenario::run`) and
//! forbids aborting on it — failures must travel as the per-crate typed
//! error enums (`From`-converted into `nesc_hypervisor::NescError`) so
//! injected faults degrade service instead of killing the simulation.
//! L1 pins the crate DAG those error conversions (and everything else)
//! must follow.
//!
//! Run it with `cargo run -p nesc-lint` (non-zero exit on any violation,
//! `--format json` for machine-readable output); `scripts/check.sh` gates
//! CI on it. Violations that are genuinely intended (the one wall-clock
//! harness, the reporting-only float helpers, the wire-serialization
//! unwraps) carry an inline justification the linter verifies — see
//! [`rules`] for the directive syntax.
//!
//! # Why not `syn`?
//!
//! The build environment is offline (no registry), so the checker parses
//! with an in-tree token scanner ([`lexer`]) instead of a full AST. For
//! these rules that is not a practical loss: each is a local token
//! pattern, line-accurate, with strings/comments correctly skipped. The
//! trade-off is documented per rule where it bites (e.g. D5 cannot
//! distinguish struct construction from struct *patterns*, so it is
//! conservative and suppressible).

pub mod callgraph;
pub mod guest;
pub mod lexer;
pub mod parser;
pub mod provenance;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Diagnostic, LintContext, Rule};

/// Classifies a workspace-relative `.rs` path; `None` means the file is
/// out of scope (shims, build outputs, the linter's own bad-on-purpose
/// fixtures).
pub fn classify(rel: &Path) -> Option<LintContext> {
    let s = rel.to_string_lossy().replace('\\', "/");
    // Shims stand in for external crates, not simulator code; target/ is
    // build output; the fixture corpus is deliberately violating.
    if s.starts_with("shims/") || s.starts_with("target/") || s.contains("/fixtures/") {
        return None;
    }
    if !s.ends_with(".rs") {
        return None;
    }
    // The owning crate, as its `nesc_*` import name, for the L1 layering
    // rule. Files outside `crates/` (integration tests, examples) are not
    // layered — they may drive any crate — so they get no name.
    let crate_name = s
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .map(|dir| {
            let base = dir.strip_prefix("nesc-").unwrap_or(dir);
            format!("nesc_{}", base.replace('-', "_"))
        })
        .unwrap_or_default();
    Some(LintContext {
        path: s.clone(),
        scheduling_core: matches!(
            s.as_str(),
            "crates/sim/src/time.rs" | "crates/sim/src/sched.rs"
        ),
        trace_impl: s == "crates/sim/src/trace.rs",
        time_impl: s == "crates/sim/src/time.rs",
        // Device-loop modules: the per-request completion path whose
        // steady state must stay allocation-free (D7 hot regions). The
        // bench alloc harness proves it dynamically; D7 keeps new code
        // from regressing it between bench runs.
        device_loop: matches!(
            s.as_str(),
            "crates/core/src/device.rs"
                | "crates/core/src/btlb.rs"
                | "crates/core/src/function.rs"
                | "crates/sim/src/flight.rs"
                | "crates/sim/src/probe.rs"
                | "crates/sim/src/trace.rs"
                | "crates/hypervisor/src/system.rs"
                | "crates/hypervisor/src/telemetry.rs"
        ),
        // Integration-test trees: still covered by D1/D2 (nondeterministic
        // tests are flaky tests), exempt from state-shape rules.
        test_file: s.starts_with("tests/tests/") || s.contains("/tests/"),
        // Address-carrying crates: everything that moves vLBAs/pLBAs.
        // Bench harnesses and examples drive the device through the same
        // typed APIs but are measurement/demo code, not the boundary.
        address_crate: [
            "crates/extent/src/",
            "crates/storage/src/",
            "crates/core/src/",
            "crates/fs/src/",
            "crates/nvme/src/",
            "crates/virtio/src/",
            "crates/pcie/src/",
            "crates/accel/src/",
            "crates/hypervisor/src/",
        ]
        .iter()
        .any(|p| s.starts_with(p)),
        // Where translation/serialization legitimately unwraps the
        // newtypes — see DESIGN.md §8 for the per-module rationale.
        // `guest.rs` and `blk.rs` joined the allowlist with the G rules:
        // the quarantine type's own module and the virtio wire parser are
        // where `into_unchecked` legitimately touches raw representations
        // (DESIGN.md §13 has the per-module rationale).
        boundary_module: matches!(
            s.as_str(),
            "crates/extent/src/types.rs"
                | "crates/extent/src/walk.rs"
                | "crates/extent/src/tree.rs"
                | "crates/extent/src/layout.rs"
                | "crates/extent/src/guest.rs"
                | "crates/fs/src/alloc.rs"
                | "crates/core/src/ring.rs"
                | "crates/nvme/src/command.rs"
                | "crates/virtio/src/blk.rs"
        ),
        crate_name,
    })
}

/// Lints one source string under the given context.
pub fn lint_source(ctx: &LintContext, src: &str) -> Vec<Diagnostic> {
    rules::check(ctx, &lexer::scan(src))
}

/// Like [`lint_source`], but keeps directive-suppressed diagnostics in
/// the output with [`Diagnostic::suppressed`] set.
pub fn lint_source_all(ctx: &LintContext, src: &str) -> Vec<Diagnostic> {
    rules::check_all(ctx, &lexer::scan(src))
}

/// The result of a whole-file-set lint: the diagnostics plus the size of
/// the conservative data-path reachable set (what `--format json`
/// publishes as `reachable_functions`).
#[derive(Debug)]
pub struct LintReport {
    /// All diagnostics, sorted by `(path, line, rule)`, including
    /// directive-suppressed ones (flagged).
    pub diagnostics: Vec<Diagnostic>,
    /// Functions reachable from the data-path entry points
    /// ([`callgraph::ENTRY_POINTS`]) in the conservative call graph.
    pub reachable_functions: usize,
    /// Method-shape call sites the call-graph resolver dropped because no
    /// workspace function bears the name — the graph's audited blind spot.
    pub unresolved_calls: usize,
}

/// Lints a set of files *together*: the per-file token/provenance rules
/// plus the workspace call-graph rules (P1/P3), which need every file's
/// function table at once. Suppression directives apply uniformly — an
/// `// nesc-lint::allow(P1): why` on the offending item both suppresses
/// the call-graph diagnostic and counts as used (no A3).
pub fn lint_files_all(files: &[(LintContext, String)]) -> LintReport {
    let scans: Vec<(LintContext, lexer::Scan)> = files
        .iter()
        .map(|(ctx, src)| (ctx.clone(), lexer::scan(src)))
        .collect();
    let mut raw: Vec<Vec<Diagnostic>> = scans
        .iter()
        .map(|(ctx, scan)| rules::raw_diags(ctx, scan))
        .collect();
    let graph = callgraph::Graph::build(&scans);
    let reachable_functions = callgraph::check(&graph, &scans, &mut raw);
    guest::check_graph(&graph, &scans, &mut raw);
    let mut diagnostics: Vec<Diagnostic> = scans
        .iter()
        .zip(raw)
        .flat_map(|((ctx, scan), file_raw)| rules::finish(ctx, scan, file_raw))
        .collect();
    diagnostics
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    LintReport {
        diagnostics,
        reachable_functions,
        unresolved_calls: graph.unresolved_calls,
    }
}

/// Recursively collects workspace `.rs` files under `root`, sorted, so
/// the linter's own output order is deterministic.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') {
            continue;
        }
        if p.is_dir() {
            if matches!(name, "target" | "shims" | "results") {
                continue;
            }
            collect_rs(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lints every in-scope `.rs` file under the workspace `root`. Diagnostics
/// come back sorted by `(path, line, rule)`.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(lint_workspace_all(root)?
        .into_iter()
        .filter(|d| !d.suppressed)
        .collect())
}

/// Like [`lint_workspace`], but keeps directive-suppressed diagnostics in
/// the output with [`Diagnostic::suppressed`] set — the data set behind
/// `--format json`.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn lint_workspace_all(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(lint_workspace_report(root)?.diagnostics)
}

/// The full workspace lint — per-file rules plus the call-graph pass —
/// with the reachable-function count ([`LintReport`]).
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn lint_workspace_report(root: &Path) -> io::Result<LintReport> {
    let mut paths = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    let mut files = Vec::new();
    for f in paths {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        let Some(ctx) = classify(rel) else {
            continue;
        };
        files.push((ctx, fs::read_to_string(&f)?));
    }
    Ok(lint_files_all(&files))
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        cur = dir.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scopes_files() {
        assert!(classify(Path::new("shims/proptest/src/lib.rs")).is_none());
        assert!(classify(Path::new("crates/nesc-lint/tests/fixtures/d1.rs")).is_none());
        assert!(classify(Path::new("crates/sim/src/lib.rs")).is_some());
        let q = classify(Path::new("crates/sim/src/sched.rs")).unwrap();
        assert!(q.scheduling_core);
        let t = classify(Path::new("crates/sim/src/trace.rs")).unwrap();
        assert!(t.trace_impl && t.device_loop && !t.scheduling_core);
        let ti = classify(Path::new("crates/sim/src/time.rs")).unwrap();
        assert!(ti.time_impl && ti.scheduling_core);
        let dev = classify(Path::new("crates/core/src/device.rs")).unwrap();
        assert!(dev.device_loop);
        let fl = classify(Path::new("crates/sim/src/flight.rs")).unwrap();
        assert!(fl.device_loop && !fl.scheduling_core);
        let probe = classify(Path::new("crates/sim/src/probe.rs")).unwrap();
        assert!(probe.device_loop && !probe.trace_impl);
        let rep = classify(Path::new("crates/hypervisor/src/report.rs"));
        assert!(rep.is_none_or(|c| !c.device_loop));
        let it = classify(Path::new("tests/tests/determinism.rs")).unwrap();
        assert!(it.test_file);
    }

    #[test]
    fn classify_scopes_address_crates_and_boundaries() {
        let w = classify(Path::new("crates/extent/src/walk.rs")).unwrap();
        assert!(w.address_crate && w.boundary_module);
        let d = classify(Path::new("crates/core/src/device.rs")).unwrap();
        assert!(d.address_crate && !d.boundary_module);
        let r = classify(Path::new("crates/core/src/ring.rs")).unwrap();
        assert!(r.boundary_module);
        // G-rule additions: the quarantine module and the virtio wire
        // parser are boundary; the engines consuming them are not.
        let g = classify(Path::new("crates/extent/src/guest.rs")).unwrap();
        assert!(g.address_crate && g.boundary_module);
        let v = classify(Path::new("crates/virtio/src/blk.rs")).unwrap();
        assert!(v.address_crate && v.boundary_module);
        let h = classify(Path::new("crates/hypervisor/src/system.rs")).unwrap();
        assert!(h.address_crate && !h.boundary_module);
        // Bench harnesses and the sim core move no addresses.
        let b = classify(Path::new("crates/bench/src/forensic.rs")).unwrap();
        assert!(!b.address_crate);
        let s = classify(Path::new("crates/sim/src/sched.rs")).unwrap();
        assert!(!s.address_crate);
    }

    #[test]
    fn workspace_root_is_found() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates").is_dir());
    }
}
