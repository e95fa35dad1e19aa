//! Fixture corpus for the determinism, provenance, panic-freedom, and
//! layering rules.
//!
//! Each file under `tests/fixtures/` is bad on purpose; the linter must
//! report exactly the expected rule ids at exactly the expected line
//! numbers — no more, no fewer. (The fixtures live under `fixtures/`, a
//! path [`nesc_lint::classify`] excludes, so the workspace-wide run never
//! sees them.) The last test is the gate itself: the real workspace must
//! be lint-clean.

use std::path::Path;

use nesc_lint::{classify, lint_source, LintContext, Rule};

fn lint_fixture(name: &str) -> Vec<(u32, Rule)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    lint_source(&LintContext::strict(name), &src)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn d1_flags_every_wall_clock_site() {
    assert_eq!(
        lint_fixture("d1_wall_clock.rs"),
        vec![(3, Rule::D1), (6, Rule::D1), (11, Rule::D1)]
    );
}

#[test]
fn d2_flags_every_randomness_site() {
    // Line 13's 3-argument HashMap names its hasher, so D3 stays quiet
    // and only the RandomState itself is reported.
    assert_eq!(
        lint_fixture("d2_randomness.rs"),
        vec![(4, Rule::D2), (9, Rule::D2), (13, Rule::D2)]
    );
}

#[test]
fn d3_flags_default_hashed_maps_but_not_tests() {
    // Lines 8 (BTreeMap) and 24 (inside #[cfg(test)]) must stay clean.
    assert_eq!(
        lint_fixture("d3_default_hash.rs"),
        vec![
            (6, Rule::D3),
            (7, Rule::D3),
            (11, Rule::D3),
            (12, Rule::D3),
            (15, Rule::D3),
            (16, Rule::D3),
        ]
    );
}

#[test]
fn d4_flags_float_types_and_literals() {
    // Line 4 carries both a `f64` type and a `1.5` literal — two reports.
    assert_eq!(
        lint_fixture("d4_floats.rs"),
        vec![(4, Rule::D4), (4, Rule::D4), (5, Rule::D4)]
    );
}

#[test]
fn d5_flags_orphan_spans_but_not_type_uses() {
    // Line 3 (import) and line 8 (`SpanId::NONE`) must stay clean.
    assert_eq!(
        lint_fixture("d5_orphan_span.rs"),
        vec![(6, Rule::D5), (7, Rule::D5), (10, Rule::D5)]
    );
}

#[test]
fn d6_flags_raw_interval_literals() {
    // Typed construction (line 6), the zero-arg getter (line 7) and a
    // non-literal argument (line 8) must stay clean; only the bare
    // integer intervals on lines 4-5 fire.
    assert_eq!(
        lint_fixture("d6_raw_interval.rs"),
        vec![(4, Rule::D6), (5, Rule::D6)]
    );
}

#[test]
fn d7_flags_hot_region_allocations_only() {
    // The five allocating calls inside `drain`'s hot region (lines 5-9)
    // fire; the identical `.to_vec()` in the unmarked `cold_rebuild`
    // (line 14) stays clean; the `#[inline]` between marker and fn
    // (line 18) does not break coverage, and `record`'s push to a
    // pre-sized ring is not an allocation site; the justified directive
    // (line 25) suppresses the warm-up `vec!` (line 26) without going
    // stale (no A3).
    assert_eq!(
        lint_fixture("d7_hot_alloc.rs"),
        vec![
            (5, Rule::D7),
            (6, Rule::D7),
            (7, Rule::D7),
            (8, Rule::D7),
            (9, Rule::D7),
        ]
    );
}

#[test]
fn d7_flags_allocating_flight_append_but_not_fixed_slot() {
    // The bad `append` allocates a fresh row (line 6), stringifies the
    // kind (line 7) and indexes the ring (line 8 — P2, the latent
    // panic); the fixed-slot `append_fixed` below it — the contract the
    // real recorder keeps — stays completely clean.
    assert_eq!(
        lint_fixture("d7_flight_append.rs"),
        vec![(6, Rule::D7), (7, Rule::D7), (8, Rule::P2)]
    );
}

#[test]
fn d7_flags_a_heap_grown_span_in_the_tracer_append() {
    // Linted in the scope the real tracer gets: the `Vec::new()` attribute
    // list (line 13) is D7 and the log index (line 15) P2; the inline
    // `span` below them stays clean.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/d7_tracer_append.rs");
    let src = std::fs::read_to_string(path).expect("read d7_tracer_append.rs");
    let ctx = classify(Path::new("crates/sim/src/trace.rs")).expect("trace.rs is linted");
    let diags: Vec<(u32, Rule)> = lint_source(&ctx, &src)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(diags, vec![(13, Rule::D7), (15, Rule::P2)]);
}

#[test]
fn d7_applies_only_in_device_loop_modules() {
    let src = "// nesc-lint: hot\npub fn f(out: &mut O) { out.v = Vec::new(); }\n";
    let mut ctx = LintContext::strict("x.rs");
    assert_eq!(
        lint_source(&ctx, src)
            .into_iter()
            .map(|d| (d.line, d.rule))
            .collect::<Vec<_>>(),
        vec![(2, Rule::D7)]
    );
    ctx.device_loop = false;
    assert!(lint_source(&ctx, src).is_empty());
}

#[test]
fn suppression_hygiene_rules() {
    // The justified D1 directive (line 3) silently works; the unjustified
    // D2 one (line 9) still suppresses but earns an A2; the dead D5 one
    // (line 15) earns an A3; the bare #[allow] (line 20) earns an A1 and
    // the explained one (line 24) does not.
    assert_eq!(
        lint_fixture("suppressions.rs"),
        vec![(9, Rule::A2), (15, Rule::A3), (20, Rule::A1)]
    );
}

#[test]
fn t1_flags_raw_u64_lba_api_surface() {
    // Line 4 (`pub slba: u64`) and line 9 (`dest_lba: u64` parameter) are
    // API surface; the typed field (6), the local (10), the typed
    // parameter (14) and the private fn (18) must stay clean.
    assert_eq!(
        lint_fixture("t1_raw_lba_api.rs"),
        vec![(4, Rule::T1), (9, Rule::T1)]
    );
}

#[test]
fn t2_flags_minting_and_unwrapping_but_not_vlba_entry() {
    // `Plba(..)` (line 4) and `vlba.0` (line 8) fire; minting a *virtual*
    // address (line 12) is a guest entry point and stays clean; the
    // justified directive (line 15) suppresses the wire unwrap (line 17).
    assert_eq!(
        lint_fixture("t2_newtype_unwrap.rs"),
        vec![(4, Rule::T2), (8, Rule::T2)]
    );
}

#[test]
fn t3_flags_block_byte_mixing_both_orders() {
    // `lba.0 * BLOCK_SIZE` (line 4) is both an unwrap (T2) and an
    // open-coded conversion (T3) — two reports on one line. Both operand
    // orders fire (lines 9, 14); `n * BLOCK_SIZE` on a non-LBA name
    // (line 18) stays clean.
    assert_eq!(
        lint_fixture("t3_byte_block_mixing.rs"),
        vec![(4, Rule::T2), (4, Rule::T3), (9, Rule::T3), (14, Rule::T3),]
    );
}

#[test]
fn directives_cover_impl_blocks_and_multiline_signatures() {
    // One directive above `impl Wire` (line 4) suppresses the unwraps on
    // lines 7 and 10; one above the multi-line `replay` signature
    // (line 14) suppresses the T1s on its parameter lines 16-17. Both
    // count as used (no A3). Only the uncovered unwrap (line 23) remains.
    assert_eq!(lint_fixture("suppressions_items.rs"), vec![(23, Rule::T2)]);
}

#[test]
fn json_escaping_is_safe() {
    // The JSON emitter lives in the binary; this pins the library-side
    // contract it depends on: suppressed diagnostics are present in
    // `lint_source_all` output and flagged.
    let src = "// nesc-lint::allow(T2): demo.\npub fn wire(slba: Vlba) -> u64 { slba.0 }\n";
    let all = nesc_lint::lint_source_all(&LintContext::strict("x.rs"), src);
    assert_eq!(all.len(), 1);
    assert!(all[0].suppressed);
    assert!(lint_source(&LintContext::strict("x.rs"), src).is_empty());
}

#[test]
fn diagnostics_render_path_line_rule_and_hint() {
    let src = "use std::time::SystemTime;\n";
    let diags = lint_source(&LintContext::strict("x.rs"), src);
    assert_eq!(diags.len(), 1);
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("x.rs:1: [D1]") && rendered.contains("(fix:"),
        "unexpected rendering: {rendered}"
    );
}

/// Lints a fixture *set* through the whole-workspace pipeline, so the
/// call-graph rules (P1/P3) run. Suppressed diagnostics are dropped, as
/// the exit-code path does.
fn lint_fixture_set(names: &[&str]) -> Vec<(String, u32, Rule)> {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let files: Vec<_> = names
        .iter()
        .map(|n| {
            let src =
                std::fs::read_to_string(base.join(n)).unwrap_or_else(|e| panic!("read {n}: {e}"));
            (LintContext::strict(n), src)
        })
        .collect();
    nesc_lint::lint_files_all(&files)
        .diagnostics
        .into_iter()
        .filter(|d| !d.suppressed)
        .map(|d| (d.path, d.line, d.rule))
        .collect()
}

#[test]
fn p1_flags_reachable_panic_sites_only() {
    // The entry's own unwrap (line 4) and the transitively reached
    // helper's assert!/panic! (lines 9, 11) fire; the debug_assert!
    // (line 13) is a legal pure invariant; the justified directive
    // (line 18) suppresses sidecar's expect (line 19) without going
    // stale; off_path's expect (line 23) is unreachable and stays clean.
    let p = "p1/data_path.rs".to_string();
    assert_eq!(
        lint_fixture_set(&["p1/data_path.rs"]),
        vec![
            (p.clone(), 4, Rule::P1),
            (p.clone(), 9, Rule::P1),
            (p, 11, Rule::P1)
        ]
    );
}

#[test]
fn p1_reachability_counts_only_the_connected_component() {
    // process_vf_request -> helper -> sidecar are on the data path;
    // off_path is defined but never called from it.
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = std::fs::read_to_string(base.join("p1/data_path.rs")).expect("fixture");
    let report = nesc_lint::lint_files_all(&[(LintContext::strict("p1/data_path.rs"), src)]);
    assert_eq!(report.reachable_functions, 3);
}

#[test]
fn p2_flags_hot_region_indexing_only() {
    // Direct indexing and range-slicing inside `fold`'s hot region
    // (lines 5-7) fire; the identical indexing in the unmarked `cold`
    // (line 11) stays clean.
    let p = "p2/hot_index.rs".to_string();
    assert_eq!(
        lint_fixture_set(&["p2/hot_index.rs"]),
        vec![
            (p.clone(), 5, Rule::P2),
            (p.clone(), 6, Rule::P2),
            (p, 7, Rule::P2)
        ]
    );
}

#[test]
fn p3_flags_stringly_errors_on_reachable_public_api() {
    // `Result<_, String>` (line 10), `Result<_, ()>` (line 14), and the
    // opaque `try_* -> Option` (line 22) fire; the typed-error `total`
    // (line 26) stays clean.
    let p = "p3/stringly.rs".to_string();
    assert_eq!(
        lint_fixture_set(&["p3/stringly.rs"]),
        vec![
            (p.clone(), 10, Rule::P3),
            (p.clone(), 14, Rule::P3),
            (p, 22, Rule::P3)
        ]
    );
}

#[test]
fn g1_flags_raw_values_on_marked_decode_surfaces() {
    // The marked struct's raw integer (line 10) and bare Vlba (line 11)
    // fire; the HostAddr field (line 12) is exempt; the marked fn's raw
    // return (line 16) fires. `slba: Vlba` is not a T1 (not `u64`).
    assert_eq!(
        lint_fixture("g1/raw_decode.rs"),
        vec![(10, Rule::G1), (11, Rule::G1), (16, Rule::G1)]
    );
}

#[test]
fn g1_accepts_quarantined_decode_surfaces() {
    assert_eq!(lint_fixture("g1/wrapped_ok.rs"), vec![]);
}

#[test]
fn g2_flags_unjustified_quarantine_escapes() {
    // The bare escape (line 8) fires; the justified directive (line 11)
    // suppresses its escape (line 13) without going stale; the dead
    // directive (line 16) earns an A3.
    assert_eq!(
        lint_fixture("g2/unwrap_escape.rs"),
        vec![(8, Rule::G2), (16, Rule::A3)]
    );
}

#[test]
fn g3_reports_the_full_multi_hop_taint_chain() {
    // `consume`'s unwrap (line 24, G2 in a non-boundary context) and DMA
    // sink (line 25) fire — the G3 message must carry the whole
    // pump → advance → consume chain; the signature-tainted indexing
    // (line 29) and ring-arithmetic (line 33) sinks fire standalone.
    let p = "g3/multi_hop.rs".to_string();
    assert_eq!(
        lint_fixture_set(&["g3/multi_hop.rs"]),
        vec![
            (p.clone(), 24, Rule::G2),
            (p.clone(), 25, Rule::G3),
            (p.clone(), 29, Rule::G3),
            (p, 33, Rule::G3),
        ]
    );
}

#[test]
fn g3_chain_rendering_names_every_hop() {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = std::fs::read_to_string(base.join("g3/multi_hop.rs")).expect("fixture");
    let report = nesc_lint::lint_files_all(&[(LintContext::strict("g3/multi_hop.rs"), src)]);
    let g3 = report
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::G3 && d.line == 25)
        .expect("the dma_read sink");
    assert!(
        g3.message.contains("pump → advance → consume"),
        "chain missing from: {}",
        g3.message
    );
}

#[test]
fn g3_accepts_a_validator_on_the_path() {
    // The validate_tail call between the guest-input source and the DMA
    // sink clears the taint; the validator's own unwrap is justified.
    assert_eq!(lint_fixture_set(&["g3/validated_ok.rs"]), vec![]);
}

#[test]
fn unresolved_method_calls_are_counted_not_dropped() {
    // The p1 fixture's method calls (`x.unwrap()`, `v.checked_add(1)`,
    // two `.expect(..)`s) resolve to no harvested fn, so the graph must
    // *count* them instead of silently dropping the edges. Exact pin:
    // growth here means the conservative analysis got blinder and
    // someone should look.
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = std::fs::read_to_string(base.join("p1/data_path.rs")).expect("fixture");
    let report = nesc_lint::lint_files_all(&[(LintContext::strict("p1/data_path.rs"), src)]);
    assert_eq!(report.unresolved_calls, 4);
}

#[test]
fn l1_flags_upward_imports_and_inline_paths() {
    // The strict context places the file in `nesc_sim`, the bottom layer
    // with no dependencies: both `use` imports (lines 3-4) and the
    // inline `nesc_hypervisor::` path (line 7) violate the DAG.
    assert_eq!(
        lint_fixture("l1/upward.rs"),
        vec![(3, Rule::L1), (4, Rule::L1), (7, Rule::L1)]
    );
}

#[test]
fn workspace_is_lint_clean() {
    let root = nesc_lint::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("enclosing workspace");
    let diags = nesc_lint::lint_workspace(&root).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "workspace must stay lint-clean; violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
