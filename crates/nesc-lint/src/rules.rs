//! The NeSC determinism rules (D1-D7), address-provenance rules (T1-T3)
//! and suppression hygiene (A1-A3).
//!
//! Every rule is a pattern over the token stream produced by
//! [`crate::lexer`] — the T rules additionally use the item-level view
//! from [`crate::parser`]. See DESIGN.md ("Determinism invariants and how
//! they are enforced" and "Address provenance") for the rationale behind
//! each rule; the short version is that the whole evaluation rests on the
//! simulator being bit-reproducible from a seed and on guest-virtual
//! addresses never crossing the translation boundary untyped, and these
//! are the ways PRs have historically broken those properties in
//! comparable codebases.
//!
//! # Suppressions
//!
//! A violation is suppressed by a comment directive on the same line or on
//! the line(s) directly above:
//!
//! ```text
//! // nesc-lint::allow(D4): reporting-only conversion; never feeds the queue
//! pub fn as_secs_f64(self) -> f64 { ... }
//! ```
//!
//! A directive covers the statement or braced item that begins on the
//! line it governs (one directive above a reporting helper's signature
//! covers the whole helper) — keep directives directly on the offending
//! item, never above a `mod` or `impl` wider than intended.
//!
//! The justification after the `:` is mandatory (rule A2) and a directive
//! that suppresses nothing is itself reported (rule A3), so stale
//! suppressions cannot accumulate.

use std::fmt;

use crate::lexer::{Comment, Scan, Tok, TokKind};

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Wall-clock time (`Instant::now`, `SystemTime`) in simulated code.
    D1,
    /// Ambient randomness (`rand::`, `thread_rng`, `RandomState`, OS RNGs).
    D2,
    /// Default-hasher `HashMap`/`HashSet` in simulation-state crates.
    D3,
    /// Float types/literals in event-timestamp / scheduling core files.
    D4,
    /// Span/SpanId fabricated outside the `Tracer` implementation.
    D5,
    /// Raw integer literal passed where a sampling interval
    /// (`SimDuration`) is expected, outside the time implementation.
    D6,
    /// Heap-allocating call (`Box::new`, `Vec::new`, `collect()`,
    /// `format!`, `to_vec()`, ...) inside a `// nesc-lint: hot` region of
    /// a device-loop module.
    D7,
    /// Raw `u64` carrying an LBA across a public API in address crates.
    T1,
    /// `Vlba`/`Plba` unwrapped (`.0`) or `Plba` minted outside a boundary
    /// module.
    T2,
    /// Byte/block arithmetic mixing (`* BLOCK_SIZE` on an LBA) outside the
    /// conversion helpers.
    T3,
    /// A `// nesc-lint: guest-input` decode surface producing raw integers
    /// (or bare `Vlba`s) instead of `Untrusted<T>`-quarantined values.
    G1,
    /// `Untrusted::into_unchecked` escaping the quarantine outside a
    /// boundary module (the sanctioned exits are the `validate_*` proofs).
    G2,
    /// A guest-tainted value reaching a translation/DMA/indexing sink with
    /// no bounds-proving validator on the interprocedural path
    /// ([`crate::guest`]).
    G3,
    /// `#[allow(...)]` attribute without an adjacent `// allow:` rationale.
    A1,
    /// `nesc-lint::allow` directive without a justification.
    A2,
    /// `nesc-lint::allow` directive that suppresses nothing (dead).
    A3,
    /// Panic site (`unwrap()`, `expect()`, `panic!`, `unreachable!`,
    /// `todo!`, `assert!`) on the data path — a function reachable from a
    /// data-path entry point in the conservative call graph
    /// ([`crate::callgraph`]).
    P1,
    /// Direct slice indexing (`x[i]`, `&buf[a..b]`) inside a
    /// `// nesc-lint: hot` region of a device-loop module — a latent
    /// panic D7's allocation scan cannot see.
    P2,
    /// Data-path `pub fn` returning `Result<_, String>` / `Result<_, ()>`
    /// / `Result<_, &str>` (or `try_*` returning bare `Option`) where the
    /// crate's typed error enum should travel instead.
    P3,
    /// `use nesc_*` / `nesc_*::` edge that violates the declared crate
    /// layering DAG ([`LAYERING`]).
    L1,
}

impl Rule {
    /// All rules, for iteration and parsing.
    pub const ALL: [Rule; 20] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::D4,
        Rule::D5,
        Rule::D6,
        Rule::D7,
        Rule::T1,
        Rule::T2,
        Rule::T3,
        Rule::G1,
        Rule::G2,
        Rule::G3,
        Rule::A1,
        Rule::A2,
        Rule::A3,
        Rule::P1,
        Rule::P2,
        Rule::P3,
        Rule::L1,
    ];

    /// The rule's id string (`"D1"`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::D7 => "D7",
            Rule::T1 => "T1",
            Rule::T2 => "T2",
            Rule::T3 => "T3",
            Rule::G1 => "G1",
            Rule::G2 => "G2",
            Rule::G3 => "G3",
            Rule::A1 => "A1",
            Rule::A2 => "A2",
            Rule::A3 => "A3",
            Rule::P1 => "P1",
            Rule::P2 => "P2",
            Rule::P3 => "P3",
            Rule::L1 => "L1",
        }
    }

    /// Parses `"D1"` etc.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path label (workspace-relative when produced by the driver).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired.
    pub rule: Rule,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
    /// Whether a justified `nesc-lint::allow` directive suppressed this
    /// diagnostic. [`check`] never returns suppressed entries;
    /// [`check_all`] returns them flagged, for `--format json` consumers
    /// that want the suppression state visible.
    pub suppressed: bool,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} (fix: {})",
            self.path, self.line, self.rule, self.message, self.hint
        )
    }
}

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone)]
pub struct LintContext {
    /// Path label used in diagnostics.
    pub path: String,
    /// D4 applies: this file is part of the event-scheduling core
    /// (`nesc-sim`'s `time.rs`, `sched.rs`).
    pub scheduling_core: bool,
    /// D5 exempt: this file *is* the tracer implementation.
    pub trace_impl: bool,
    /// D6 exempt: this file *is* the time implementation (`sim/time.rs`),
    /// where `SimDuration` constructors legitimately take raw integers.
    pub time_impl: bool,
    /// D7 applies: this file is part of the device loop (the completion
    /// path that runs once per simulated block), where `// nesc-lint: hot`
    /// markers pin allocation-free regions.
    pub device_loop: bool,
    /// D3/D5/A1 exempt everywhere: the file is test-only (integration
    /// tests, examples are still covered — only `tests/` tree files).
    pub test_file: bool,
    /// T1-T3 apply: the file belongs to an address-carrying crate (one
    /// whose types move vLBAs or pLBAs around).
    pub address_crate: bool,
    /// T2/T3 exempt: the file is an allowlisted boundary module where the
    /// vLBA→pLBA translation (and the newtype plumbing it needs) is
    /// *supposed* to happen.
    pub boundary_module: bool,
    /// L1 applies: the crate this file belongs to, as its `nesc_*`
    /// import name (`"nesc_core"`). Empty for files outside the layered
    /// crate set (tests, examples), where L1 is skipped.
    pub crate_name: String,
}

impl LintContext {
    /// A context with every rule enabled — what fixtures use. The crate
    /// name is `nesc_sim` (the DAG's bottom), so *any* `nesc_*` edge in a
    /// fixture is an upward edge.
    pub fn strict(path: &str) -> Self {
        LintContext {
            path: path.to_string(),
            scheduling_core: true,
            trace_impl: false,
            time_impl: false,
            device_loop: true,
            test_file: false,
            address_crate: true,
            boundary_module: false,
            crate_name: "nesc_sim".to_string(),
        }
    }
}

/// The crate-layering DAG rule L1 enforces: each crate may import (`use
/// nesc_*` or an inline `nesc_*::` path) only the crates listed as its
/// dependencies here. The table mirrors the workspace `Cargo.toml` edges
/// on purpose — `sim` and `pcie`/`extent` sit at the bottom, `hypervisor`
/// and its front-ends (`nvme`, `accel`) and `workloads` at the top, and
/// the harness crates (`bench`) see everything — so an upward or cyclic `use` fails the lint even before
/// Cargo would reject the dependency edge it implies.
pub const LAYERING: &[(&str, &[&str])] = &[
    ("nesc_sim", &[]),
    ("nesc_pcie", &["nesc_sim"]),
    ("nesc_extent", &["nesc_pcie"]),
    ("nesc_storage", &["nesc_sim", "nesc_extent"]),
    ("nesc_virtio", &["nesc_sim", "nesc_pcie", "nesc_extent"]),
    (
        "nesc_core",
        &["nesc_sim", "nesc_pcie", "nesc_storage", "nesc_extent"],
    ),
    (
        "nesc_fs",
        &["nesc_extent", "nesc_pcie", "nesc_storage", "nesc_sim"],
    ),
    (
        "nesc_nvme",
        &[
            "nesc_sim",
            "nesc_pcie",
            "nesc_core",
            "nesc_storage",
            "nesc_extent",
            "nesc_hypervisor",
        ],
    ),
    (
        "nesc_accel",
        &[
            "nesc_sim",
            "nesc_pcie",
            "nesc_core",
            "nesc_storage",
            "nesc_extent",
            "nesc_hypervisor",
        ],
    ),
    (
        "nesc_hypervisor",
        &[
            "nesc_sim",
            "nesc_pcie",
            "nesc_storage",
            "nesc_extent",
            "nesc_fs",
            "nesc_core",
            "nesc_virtio",
        ],
    ),
    (
        "nesc_workloads",
        &[
            "nesc_sim",
            "nesc_hypervisor",
            "nesc_storage",
            "nesc_fs",
            "nesc_core",
        ],
    ),
    (
        "nesc_bench",
        &[
            "nesc_sim",
            "nesc_pcie",
            "nesc_storage",
            "nesc_extent",
            "nesc_fs",
            "nesc_core",
            "nesc_virtio",
            "nesc_hypervisor",
            "nesc_workloads",
            "nesc_nvme",
            "nesc_accel",
        ],
    ),
    ("nesc_lint", &[]),
];

/// The crates `who` may import under the layering DAG; `None` if `who` is
/// not a layered crate (L1 then stays silent).
pub fn allowed_imports(who: &str) -> Option<&'static [&'static str]> {
    LAYERING
        .iter()
        .find(|(name, _)| *name == who)
        .map(|(_, deps)| *deps)
}

/// A parsed `nesc-lint::allow(...)` directive.
#[derive(Debug)]
struct Directive {
    /// Line the comment sits on.
    comment_line: u32,
    /// First line of code the directive governs.
    target_line: u32,
    /// Last covered line: the governed line itself for a plain statement,
    /// or the closing brace of the item that opens on the governed line
    /// (so one directive above `pub fn as_secs_f64(...) -> f64 {` covers
    /// the whole reporting helper, not just its signature).
    end_line: u32,
    /// Rules it suppresses.
    rules: Vec<Rule>,
    /// Whether a non-empty justification followed the rule list.
    justified: bool,
    /// How many diagnostics it actually suppressed.
    used: u32,
}

/// The last line of the statement or braced item starting at `from_line`:
/// the matching `}` of the first `{` encountered, or the line of the
/// first top-level `;` if that comes first (or the last line, if neither
/// does). A `;` inside parentheses or brackets — an array type
/// `[T; N]` in a signature, an array literal `[0; 4]` — is not top-level.
fn item_end_line(tokens: &[Tok], from_line: u32) -> u32 {
    let Some(start) = tokens.iter().position(|t| t.line >= from_line) else {
        return from_line;
    };
    let (mut depth, mut nest) = (0i32, 0i32);
    for t in &tokens[start..] {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth <= 0 {
                    return t.line;
                }
            }
            TokKind::Punct('(' | '[') => nest += 1,
            TokKind::Punct(')' | ']') => nest -= 1,
            TokKind::Punct(';') if depth == 0 && nest <= 0 => return t.line,
            _ => {}
        }
    }
    tokens.last().map(|t| t.line).unwrap_or(from_line)
}

const DIRECTIVE: &str = "nesc-lint::allow(";

/// The hot-region marker: a plain comment whose whole text is exactly
/// `nesc-lint: hot`. It governs the statement or braced item that begins
/// on the next code line (attributes like `#[inline]` between the marker
/// and the `fn` are part of the item), through that item's closing brace
/// — the same coverage rule suppression directives use.
const HOT_MARKER: &str = "nesc-lint: hot";

/// Line ranges `(first, last)` governed by a plain-comment marker whose
/// whole text is exactly `marker` — the region-pinning machinery shared
/// by `// nesc-lint: hot` (D7/P2) and `// nesc-lint: guest-input` (the G
/// rules, [`crate::guest`]). Doc comments never open a region, so
/// documentation *showing* a marker does not arm anything.
pub(crate) fn marker_regions(
    comments: &[Comment],
    tokens: &[Tok],
    marker: &str,
) -> Vec<(u32, u32)> {
    let mut code_lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
    code_lines.dedup();
    let mut out = Vec::new();
    for c in comments {
        if c.doc || c.text != marker {
            continue;
        }
        let start = match code_lines.binary_search(&(c.line + 1)) {
            Ok(i) => code_lines[i],
            Err(i) => match code_lines.get(i) {
                Some(&l) => l,
                None => continue, // trailing marker with no item after it
            },
        };
        out.push((start, item_end_line(tokens, start)));
    }
    out
}

/// Line ranges pinned allocation-free by `// nesc-lint: hot` markers.
fn hot_regions(comments: &[Comment], tokens: &[Tok]) -> Vec<(u32, u32)> {
    marker_regions(comments, tokens, HOT_MARKER)
}

/// Parses suppression directives out of the comment list. `line_has_code`
/// maps a line number to whether any token sits on it — a trailing
/// directive governs its own line, a standalone one governs the next line
/// that has code.
fn parse_directives(comments: &[Comment], tokens: &[Tok]) -> Vec<Directive> {
    let mut code_lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
    code_lines.dedup();
    let mut out = Vec::new();
    for c in comments {
        if c.doc {
            continue;
        }
        let Some(at) = c.text.find(DIRECTIVE) else {
            continue;
        };
        let rest = &c.text[at + DIRECTIVE.len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<Rule> = rest[..close]
            .split(',')
            .filter_map(|s| Rule::parse(s.trim()))
            .collect();
        if rules.is_empty() {
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let justified = after
            .strip_prefix(':')
            .map(|j| !j.trim().is_empty())
            .unwrap_or(false);
        let target_line = if code_lines.binary_search(&c.line).is_ok() {
            c.line
        } else {
            match code_lines.binary_search(&(c.line + 1)) {
                Ok(i) => code_lines[i],
                Err(i) => code_lines.get(i).copied().unwrap_or(c.line),
            }
        };
        out.push(Directive {
            comment_line: c.line,
            target_line,
            end_line: item_end_line(tokens, target_line),
            rules,
            justified,
            used: 0,
        });
    }
    out
}

/// Line ranges covered by `#[cfg(test)]` items (and the item after a bare
/// `#[test]` attribute): `(first_line, last_line)` inclusive.
pub(crate) fn test_regions(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_attr_start(tokens, i, &["cfg", "(", "test"])
            || is_attr_start(tokens, i, &["test", "]"])
        {
            let start_line = tokens[i].line;
            // Find the end of the annotated item: the matching `}` of its
            // first brace, or the first top-level `;` before any brace.
            let mut j = i;
            // Skip past this attribute's closing bracket first.
            let mut bracket = 0;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokKind::Punct('[') => bracket += 1,
                    TokKind::Punct(']') => {
                        bracket -= 1;
                        if bracket == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let mut brace = 0i32;
            let mut end_line = start_line;
            while j < tokens.len() {
                match tokens[j].kind {
                    TokKind::Punct('{') => brace += 1,
                    TokKind::Punct('}') => {
                        brace -= 1;
                        if brace == 0 {
                            end_line = tokens[j].line;
                            break;
                        }
                    }
                    TokKind::Punct(';') if brace == 0 => {
                        end_line = tokens[j].line;
                        break;
                    }
                    _ => {}
                }
                end_line = tokens[j].line;
                j += 1;
            }
            regions.push((start_line, end_line));
            i = j.max(i + 1);
        } else {
            i += 1;
        }
    }
    regions
}

/// Whether tokens at `i` begin `#[` followed by the given ident/punct
/// sequence (e.g. `#[cfg(test` or `#[test]`); `#![...]` also matches.
fn is_attr_start(tokens: &[Tok], i: usize, pat: &[&str]) -> bool {
    let TokKind::Punct('#') = tokens[i].kind else {
        return false;
    };
    let mut j = i + 1;
    if matches!(tokens.get(j).map(|t| &t.kind), Some(TokKind::Punct('!'))) {
        j += 1;
    }
    if !matches!(tokens.get(j).map(|t| &t.kind), Some(TokKind::Punct('['))) {
        return false;
    }
    j += 1;
    for p in pat {
        let ok = match tokens.get(j).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => s == p,
            Some(TokKind::Punct(c)) => p.len() == 1 && p.starts_with(*c),
            _ => false,
        };
        if !ok {
            return false;
        }
        j += 1;
    }
    true
}

pub(crate) fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Keywords that, directly before a `[`, make it a non-expression context
/// (array literal, type, slice pattern) rather than an index — shared by
/// the P2 hot-indexing rule and the G3 guest-index sink.
pub(crate) fn nonindex_keyword(base: &str) -> bool {
    matches!(
        base,
        "let"
            | "return"
            | "break"
            | "in"
            | "if"
            | "else"
            | "match"
            | "mut"
            | "ref"
            | "as"
            | "move"
            | "for"
            | "while"
            | "loop"
            | "dyn"
            | "impl"
            | "fn"
            | "use"
            | "pub"
            | "const"
            | "static"
            | "type"
            | "enum"
            | "struct"
            | "trait"
            | "mod"
            | "unsafe"
            | "where"
            | "box"
    )
}

/// Counts top-level generic arguments after an opening `<` at `tokens[i]`.
/// Returns `(arg_count, index_past_closing)`; `None` if no `<` at `i`.
fn generic_arg_count(tokens: &[Tok], i: usize) -> Option<(usize, usize)> {
    if !matches!(tokens.get(i).map(|t| &t.kind), Some(TokKind::Punct('<'))) {
        return None;
    }
    let mut depth = 1i32;
    let mut round = 0i32;
    let mut square = 0i32;
    let mut commas = 0usize;
    let mut saw_any = false;
    let mut j = i + 1;
    while j < tokens.len() && depth > 0 {
        match tokens[j].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') => depth -= 1,
            TokKind::Punct('(') => round += 1,
            TokKind::Punct(')') => round -= 1,
            TokKind::Punct('[') => square += 1,
            TokKind::Punct(']') => square -= 1,
            TokKind::Punct(',') if depth == 1 && round == 0 && square == 0 => commas += 1,
            TokKind::Punct(';') | TokKind::Punct('{') if depth == 1 => {
                // `a < b;` — this was a comparison, not generics.
                return None;
            }
            _ => saw_any = true,
        }
        j += 1;
    }
    if depth != 0 || !saw_any {
        return None;
    }
    Some((commas + 1, j))
}

/// Runs every applicable rule over one file's scan, returning only the
/// *active* diagnostics (directive-suppressed ones are dropped).
pub fn check(ctx: &LintContext, scan: &Scan) -> Vec<Diagnostic> {
    check_all(ctx, scan)
        .into_iter()
        .filter(|d| !d.suppressed)
        .collect()
}

/// Like [`check`], but keeps directive-suppressed diagnostics in the
/// output with [`Diagnostic::suppressed`] set — what `--format json`
/// reports, so suppression state is auditable downstream.
///
/// Single-file entry point: the call-graph rules (P1/P3) need the whole
/// workspace and run only through [`crate::lint_files_all`].
pub fn check_all(ctx: &LintContext, scan: &Scan) -> Vec<Diagnostic> {
    finish(ctx, scan, raw_diags(ctx, scan))
}

/// Token-pattern + provenance diagnostics, pre-suppression. The
/// workspace driver appends call-graph (P1/P3) diagnostics to this list
/// before [`finish`] applies directives, so `allow(P1)` suppresses and
/// counts as used like every other rule.
pub(crate) fn raw_diags(ctx: &LintContext, scan: &Scan) -> Vec<Diagnostic> {
    let tokens = &scan.tokens;
    let tests = test_regions(tokens);
    let hot = hot_regions(&scan.comments, tokens);
    let mut raw: Vec<Diagnostic> = Vec::new();

    let push =
        |raw: &mut Vec<Diagnostic>, line: u32, rule: Rule, message: String, hint: &'static str| {
            raw.push(Diagnostic {
                path: ctx.path.clone(),
                line,
                rule,
                message,
                hint,
                suppressed: false,
            });
        };

    let ident = |i: usize| -> Option<&str> {
        match tokens.get(i).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    };
    let punct = |i: usize, c: char| -> bool {
        matches!(tokens.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
    };

    for i in 0..tokens.len() {
        let line = tokens[i].line;
        let exempt_nontiming = ctx.test_file || in_regions(&tests, line);
        match &tokens[i].kind {
            TokKind::Ident(name) => match name.as_str() {
                // ---- D1: wall-clock time ------------------------------
                "Instant"
                    if punct(i + 1, ':') && punct(i + 2, ':') && ident(i + 3) == Some("now") =>
                {
                    push(
                        &mut raw,
                        line,
                        Rule::D1,
                        "wall-clock read: `Instant::now()` in simulated code".into(),
                        "derive timing from SimTime; wall-clock belongs only in annotated bench harness sites",
                    );
                }
                "SystemTime" | "UNIX_EPOCH" => {
                    push(
                        &mut raw,
                        line,
                        Rule::D1,
                        format!("wall-clock source `{name}` in simulated code"),
                        "derive timing from SimTime; wall-clock belongs only in annotated bench harness sites",
                    );
                }
                // ---- D2: ambient randomness ---------------------------
                "rand" if punct(i + 1, ':') && punct(i + 2, ':') => {
                    push(
                        &mut raw,
                        line,
                        Rule::D2,
                        "ambient randomness: `rand::` path".into(),
                        "route all randomness through nesc-sim's seeded SimRng",
                    );
                }
                "thread_rng" | "OsRng" | "getrandom" | "from_entropy" => {
                    push(
                        &mut raw,
                        line,
                        Rule::D2,
                        format!("ambient randomness: `{name}`"),
                        "route all randomness through nesc-sim's seeded SimRng",
                    );
                }
                "RandomState" => {
                    push(
                        &mut raw,
                        line,
                        Rule::D2,
                        "per-process random hasher state: `RandomState`".into(),
                        "use BTreeMap or the workspace IntHasher (nesc_sim::IntHashBuilder)",
                    );
                }
                // ---- D3: default-hasher maps --------------------------
                "HashMap" | "HashSet" if !exempt_nontiming => {
                    let want = if name == "HashMap" { 3 } else { 2 };
                    let mut j = i + 1;
                    // `HashMap::<...>::new` turbofish or `HashMap::new`.
                    let turbofish = punct(j, ':') && punct(j + 1, ':') && punct(j + 2, '<');
                    if turbofish {
                        j += 2;
                    }
                    if let Some((args, _)) = generic_arg_count(tokens, j) {
                        if args < want {
                            push(
                                &mut raw,
                                line,
                                Rule::D3,
                                format!(
                                    "default-hasher `{name}` ({args} generic arg{}) in simulation-state code",
                                    if args == 1 { "" } else { "s" }
                                ),
                                "use BTreeMap/BTreeSet, or name a deterministic hasher (nesc_sim::IntHashBuilder) and iterate sorted",
                            );
                        }
                    } else if punct(j, ':') && punct(j + 1, ':') {
                        // std only defines `new`/`with_capacity` for the
                        // RandomState hasher, so these constructors prove a
                        // default-hashed map. `default()` is NOT flagged: it
                        // is how explicit-hasher maps are built, and the
                        // binding's 2-arg type annotation is caught above.
                        if let Some(ctor) = ident(j + 2) {
                            if matches!(ctor, "new" | "with_capacity") {
                                push(
                                    &mut raw,
                                    line,
                                    Rule::D3,
                                    format!("default-hasher `{name}::{ctor}` in simulation-state code"),
                                    "use BTreeMap/BTreeSet, or name a deterministic hasher (nesc_sim::IntHashBuilder) and iterate sorted",
                                );
                            }
                        }
                    }
                }
                // ---- D4: floats in scheduling core --------------------
                "f64" | "f32" if ctx.scheduling_core && !exempt_nontiming => {
                    push(
                        &mut raw,
                        line,
                        Rule::D4,
                        format!("float type `{name}` in event-timestamp/scheduling code"),
                        "keep simulated time in integer nanoseconds; floats are for annotated reporting helpers only",
                    );
                }
                // ---- D5: orphan span construction ---------------------
                "Span" if !ctx.trace_impl && !exempt_nontiming && punct(i + 1, '{') => {
                    push(
                        &mut raw,
                        line,
                        Rule::D5,
                        "orphan span: `Span { .. }` constructed outside the Tracer".into(),
                        "emit spans via Tracer::start/span so ids stay sequential and trees stay golden-stable",
                    );
                }
                "SpanId" if !ctx.trace_impl && !exempt_nontiming && punct(i + 1, '(') => {
                    // `SpanId(0)` / `SpanId(7)` fabricate ids; `SpanId::NONE`
                    // and plain type uses are fine.
                    if matches!(
                        tokens.get(i + 2).map(|t| &t.kind),
                        Some(TokKind::Int) | Some(TokKind::Float)
                    ) {
                        push(
                            &mut raw,
                            line,
                            Rule::D5,
                            "orphan span id: `SpanId(<literal>)` fabricated outside the Tracer"
                                .into(),
                            "use ids returned by Tracer::start (or SpanId::NONE for 'no span')",
                        );
                    }
                }
                // ---- D7: heap allocation in hot regions ---------------
                // Constructor paths that allocate (or exist to be grown):
                // `Box::new`, `Vec::with_capacity`, `Vec::<T>::new`
                // turbofish included, `String::from`, ...
                "Box" | "Vec" | "VecDeque" | "String" | "BTreeMap" | "BTreeSet"
                    if ctx.device_loop
                        && !exempt_nontiming
                        && in_regions(&hot, line)
                        && punct(i + 1, ':')
                        && punct(i + 2, ':') =>
                {
                    let j = match generic_arg_count(tokens, i + 3) {
                        Some((_, past)) if punct(past, ':') && punct(past + 1, ':') => past + 2,
                        _ => i + 3,
                    };
                    if matches!(ident(j), Some("new" | "with_capacity" | "from"))
                        && punct(j + 1, '(')
                    {
                        push(
                            &mut raw,
                            line,
                            Rule::D7,
                            format!(
                                "heap allocation in hot region: `{name}::{}`",
                                ident(j).unwrap_or("?")
                            ),
                            "hoist the buffer out of the device loop and reuse it; the alloc_steady harness asserts the steady state allocates nothing",
                        );
                    }
                }
                // Allocating macros.
                "vec" | "format"
                    if ctx.device_loop
                        && !exempt_nontiming
                        && in_regions(&hot, line)
                        && punct(i + 1, '!') =>
                {
                    push(
                        &mut raw,
                        line,
                        Rule::D7,
                        format!("heap allocation in hot region: `{name}!`"),
                        "hoist the buffer out of the device loop and reuse it; the alloc_steady harness asserts the steady state allocates nothing",
                    );
                }
                // Allocating method calls: `.collect()` into a fresh
                // container (turbofish included), owned copies.
                "collect" | "to_vec" | "to_owned" | "to_string"
                    if ctx.device_loop
                        && !exempt_nontiming
                        && in_regions(&hot, line)
                        && i > 0
                        && matches!(tokens[i - 1].kind, TokKind::Punct('.'))
                        && (punct(i + 1, '(') || (punct(i + 1, ':') && punct(i + 2, ':'))) =>
                {
                    push(
                        &mut raw,
                        line,
                        Rule::D7,
                        format!("heap allocation in hot region: `.{name}()`"),
                        "hoist the buffer out of the device loop and reuse it; the alloc_steady harness asserts the steady state allocates nothing",
                    );
                }
                // ---- D6: raw interval literals ------------------------
                // Any call whose name mentions "interval" taking a bare
                // integer literal — `.interval(50)`, `set_interval(1000)`,
                // `windowed_interval(25)` — hides the unit. Like D1/D2 it
                // applies in tests too: a mis-scaled interval makes a test
                // silently sample nothing.
                n if !ctx.time_impl
                    && n.to_ascii_lowercase().contains("interval")
                    && punct(i + 1, '(')
                    && matches!(tokens.get(i + 2).map(|t| &t.kind), Some(TokKind::Int)) =>
                {
                    push(
                        &mut raw,
                        line,
                        Rule::D6,
                        format!(
                            "raw integer literal passed to `{n}(...)` where a sampling interval is expected"
                        ),
                        "pass a SimDuration (from_nanos/from_micros/from_millis) so the unit is explicit",
                    );
                }
                // ---- L1: crate-layering violations ---------------------
                // Any `use nesc_x` import or inline `nesc_x::` path is a
                // dependency edge; it must exist in the declared DAG.
                n if n.starts_with("nesc_")
                    && !ctx.crate_name.is_empty()
                    && *n != ctx.crate_name
                    && !exempt_nontiming
                    && ((punct(i + 1, ':') && punct(i + 2, ':'))
                        || (i > 0
                            && matches!(&tokens[i - 1].kind, TokKind::Ident(k) if k == "use"))) =>
                {
                    if let Some(deps) = allowed_imports(&ctx.crate_name) {
                        if !deps.contains(&n) {
                            push(
                                &mut raw,
                                line,
                                Rule::L1,
                                format!(
                                    "layering violation: `{}` must not depend on `{n}`",
                                    ctx.crate_name
                                ),
                                "keep crate edges on the declared DAG (rules.rs LAYERING); move the shared type down a layer instead",
                            );
                        }
                    }
                }
                _ => {}
            },
            TokKind::Float if ctx.scheduling_core && !exempt_nontiming => {
                push(
                    &mut raw,
                    line,
                    Rule::D4,
                    "float literal in event-timestamp/scheduling code".into(),
                    "keep simulated time in integer nanoseconds; floats are for annotated reporting helpers only",
                );
            }
            // ---- P2: direct slice indexing in hot regions -------------
            // `x[i]` / `&buf[a..b]` after an identifier or a closing
            // bracket is an index expression — a latent panic the D7
            // allocation scan cannot see. Array literals (`= [0; 4]`),
            // types (`: [u8; 4]`), attributes (`#[..]`) and slice
            // patterns (`for [a, b] in`) have non-expression contexts
            // before the `[` and stay clean.
            TokKind::Punct('[')
                if ctx.device_loop
                    && !exempt_nontiming
                    && in_regions(&hot, line)
                    && i > 0
                    && match &tokens[i - 1].kind {
                        TokKind::Punct(')') | TokKind::Punct(']') => true,
                        TokKind::Ident(base) => !nonindex_keyword(base),
                        _ => false,
                    } =>
            {
                push(
                    &mut raw,
                    line,
                    Rule::P2,
                    "direct slice indexing in a hot region".into(),
                    "index with .get()/.get_mut() or iterate; a hot-path out-of-bounds must surface as an error, not a panic",
                );
            }
            // ---- A1: unexplained #[allow] attributes ------------------
            TokKind::Punct('#') if !exempt_nontiming && is_attr_start(tokens, i, &["allow"]) => {
                let explained = scan.comments.iter().any(|c| {
                    let t = c.text.trim();
                    !c.doc
                        && (t.starts_with("allow:") || t.contains(DIRECTIVE))
                        && (c.line == line || (c.line < line && line - c.line <= 3))
                });
                if !explained {
                    push(
                        &mut raw,
                        line,
                        Rule::A1,
                        "`#[allow(...)]` without an adjacent `// allow: <why>` rationale".into(),
                        "add `// allow: <reason>` directly above the attribute, or remove a stale allow",
                    );
                }
            }
            _ => {}
        }
    }

    // The provenance (T1-T3) and guest-taint (G1/G2) passes contribute raw
    // diagnostics *before* suppression is applied, so boundary-justified
    // `allow(T2)` / `allow(G2)` directives both suppress them and count as
    // used. (G3 is interprocedural and joins through the workspace driver,
    // like P1/P3.)
    crate::provenance::check(ctx, scan, &tests, &mut raw);
    crate::guest::check_file(ctx, scan, &tests, &mut raw);
    raw
}

/// Applies suppression directives to `raw`, emits the A2/A3 hygiene
/// diagnostics, and sorts by `(line, rule, suppressed)`.
pub(crate) fn finish(ctx: &LintContext, scan: &Scan, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let tokens = &scan.tokens;
    let mut directives = parse_directives(&scan.comments, tokens);

    // Apply suppressions: a directive marks same-rule diagnostics on its
    // target line (and on its own comment line, for trailing directives)
    // as suppressed.
    let mut out: Vec<Diagnostic> = Vec::new();
    for mut d in raw {
        let suppressed = directives.iter_mut().find(|dir| {
            dir.rules.contains(&d.rule)
                && d.line >= dir.target_line.min(dir.comment_line)
                && d.line <= dir.end_line
        });
        if let Some(dir) = suppressed {
            dir.used += 1;
            d.suppressed = true;
        }
        out.push(d);
    }

    // A2/A3: directive hygiene.
    for dir in &directives {
        if !dir.justified {
            out.push(Diagnostic {
                path: ctx.path.clone(),
                line: dir.comment_line,
                rule: Rule::A2,
                message: "suppression without a justification".into(),
                hint: "write `// nesc-lint::allow(Dx): <non-empty reason>`",
                suppressed: false,
            });
        }
        if dir.used == 0 {
            out.push(Diagnostic {
                path: ctx.path.clone(),
                line: dir.comment_line,
                rule: Rule::A3,
                message: format!(
                    "dead suppression: nothing on line {} violates {}",
                    dir.target_line,
                    dir.rules
                        .iter()
                        .map(|r| r.id())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                hint: "delete the stale directive",
                suppressed: false,
            });
        }
    }

    out.sort_by_key(|a| (a.line, a.rule, a.suppressed));
    out
}
