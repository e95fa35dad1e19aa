//! Guest-taint rules (G1-G3).
//!
//! The T rules police the *translated* side of NeSC's isolation boundary
//! (a `Plba` never leaks back toward the guest untyped); these rules
//! police the *untranslated* side: raw integers decoded from
//! guest-controlled memory — SQE fields, ring descriptors, virtio request
//! headers, doorbell writes — must be proven in bounds before they drive
//! an extent walk, a DMA length, or ring-index arithmetic. The paper's
//! controller enforces this in hardware (a VF simply cannot name a block
//! outside its private mapping table); the reproduction enforces it in
//! the type system, and this pass keeps the type system honest:
//!
//! * **G1** — a decode surface annotated `// nesc-lint: guest-input`
//!   (struct or function) must produce `Untrusted<T>`-quarantined values,
//!   never raw integers or bare `Vlba`s;
//! * **G2** — `Untrusted::into_unchecked`, the unproven escape hatch, is
//!   confined to the allowlisted boundary modules (where values go
//!   straight back onto the wire); anywhere else needs a justified
//!   `// nesc-lint::allow(G2)` directive;
//! * **G3** — interprocedurally, on the same conservative call graph P1
//!   uses ([`crate::callgraph`]), every function holding guest taint must
//!   cross a `validate_*` bounds proof before any taint-relevant sink:
//!   `walk_run(..)`, `Plba(..)` minting, `.dma_read(`/`.dma_write(` byte
//!   counts, `%` ring arithmetic or slice indexing on guest-named values.
//!
//! # Taint model (deliberately coarse)
//!
//! A function holds taint if (a) a parameter type mentions `Untrusted` or
//! a marked struct, (b) a raw-integer parameter has a guest-conventional
//! name (`GUEST_NAMES`), or (c) its body calls a marked source function
//! — taint then starts at that call site. One taint bit covers the whole
//! function: any `validate_*(..)` call clears it for the remainder of the
//! body. That is imprecise in both directions, and both gaps are covered
//! by the *typing* rules rather than the flow analysis: a raw value can
//! only leave `Untrusted<T>` through a validator (total by construction)
//! or `into_unchecked` (G2 fires), so a G3 false negative requires an
//! already-flagged escape. Values returned by non-source callees never
//! re-taint — the callee's own body was checked under the same rules.
//!
//! Like the T rules, all three apply only in address-carrying crates and
//! skip test code; G3 additionally skips sinks inside boundary modules,
//! where decode/encode legitimately touches raw representations next to
//! the quarantine wrappers.

use std::collections::{BTreeSet, VecDeque};

use crate::callgraph::Graph;
use crate::lexer::{Scan, Tok, TokKind};
use crate::parser;
use crate::rules::{in_regions, marker_regions, Diagnostic, LintContext, Rule};

/// The guest-input marker: a plain comment whose whole text is exactly
/// this, governing the struct or fn item that begins on the next code
/// line — the same region machinery `// nesc-lint: hot` uses.
pub(crate) const GUEST_MARKER: &str = "nesc-lint: guest-input";

/// Raw integer types that must not leave a guest-decode surface bare.
const RAW_INTS: &[&str] = &["u8", "u16", "u32", "u64", "usize"];

/// Parameter names that conventionally carry guest-controlled values in
/// this workspace. `tail`/`head` are deliberately absent: device-internal
/// ring cursors share those names, and guest-supplied cursors travel as
/// `Untrusted<u32>` (which taints by type, not by name).
const GUEST_NAMES: &[&str] = &[
    "slba",
    "nlb",
    "sector",
    "doorbell",
    "ring_tail",
    "guest_lba",
];

const G1_HINT: &str = "carry guest-decoded values as Untrusted<T> (nesc_extent) until a validate_* proof releases them";
const G2_HINT: &str = "exit the quarantine through a nesc_extent validate_* bounds proof, or justify with `// nesc-lint::allow(G2): <why>`";
const G3_HINT: &str =
    "launder the value through a bounds-proving validate_* before translation, DMA, or indexing";

/// Whether a rendered type is one G1 refuses on a decode surface: a raw
/// integer or a bare (unquarantined) virtual block address.
fn raw_guest_ty(ty: &str) -> bool {
    RAW_INTS.contains(&ty) || ty == "Vlba"
}

/// A marked struct: its name plus the marker region it sits in.
type MarkedStruct = (String, (u32, u32));

/// The marked items of one file: `(struct names, fn regions)`. Each
/// marker region is classified by the first `struct`/`fn` keyword inside
/// it.
fn marked_items(scan: &Scan) -> (Vec<MarkedStruct>, Vec<(u32, u32)>) {
    let tokens = &scan.tokens;
    let mut structs = Vec::new();
    let mut fns = Vec::new();
    for (start, end) in marker_regions(&scan.comments, tokens, GUEST_MARKER) {
        let Some(kw) = tokens.iter().position(|t| {
            t.line >= start
                && t.line <= end
                && matches!(&t.kind, TokKind::Ident(s) if s == "struct" || s == "fn")
        }) else {
            continue;
        };
        if matches!(&tokens[kw].kind, TokKind::Ident(s) if s == "struct") {
            if let Some(TokKind::Ident(n)) = tokens.get(kw + 1).map(|t| &t.kind) {
                structs.push((n.clone(), (start, end)));
            }
        } else {
            fns.push((start, end));
        }
    }
    (structs, fns)
}

/// The per-file guest-taint rules: G1 on marked decode surfaces, G2 on
/// unchecked quarantine escapes. Appends raw (pre-suppression)
/// diagnostics, like the provenance pass.
pub(crate) fn check_file(
    ctx: &LintContext,
    scan: &Scan,
    tests: &[(u32, u32)],
    raw: &mut Vec<Diagnostic>,
) {
    if !ctx.address_crate || ctx.test_file {
        return;
    }
    let tokens = &scan.tokens;

    // ---- G2: into_unchecked outside boundary modules ------------------
    if !ctx.boundary_module {
        for (i, tok) in tokens.iter().enumerate() {
            if matches!(&tok.kind, TokKind::Ident(s) if s == "into_unchecked")
                && i > 0
                && matches!(tokens[i - 1].kind, TokKind::Punct('.'))
                && matches!(
                    tokens.get(i + 1).map(|t| &t.kind),
                    Some(TokKind::Punct('('))
                )
                && !in_regions(tests, tok.line)
            {
                raw.push(Diagnostic {
                    path: ctx.path.clone(),
                    line: tok.line,
                    rule: Rule::G2,
                    message:
                        "unproven quarantine escape outside a boundary module: `.into_unchecked()`"
                            .into(),
                    hint: G2_HINT,
                    suppressed: false,
                });
            }
        }
    }

    // ---- G1: marked decode surfaces must produce quarantined values ---
    let (structs, fn_regions) = marked_items(scan);
    if structs.is_empty() && fn_regions.is_empty() {
        return;
    }
    if !structs.is_empty() {
        let items = parser::parse_items(scan);
        for (name, (start, end)) in &structs {
            for fld in items
                .fields
                .iter()
                .filter(|f| &f.struct_name == name && f.line >= *start && f.line <= *end)
            {
                if raw_guest_ty(&fld.ty) && !in_regions(tests, fld.line) {
                    raw.push(Diagnostic {
                        path: ctx.path.clone(),
                        line: fld.line,
                        rule: Rule::G1,
                        message: format!(
                            "guest-decoded field `{}.{}` carried as raw `{}`",
                            fld.struct_name, fld.name, fld.ty
                        ),
                        hint: G1_HINT,
                        suppressed: false,
                    });
                }
            }
        }
    }
    if !fn_regions.is_empty() {
        let fns = parser::parse_fns(scan);
        for (start, end) in &fn_regions {
            let Some(def) = fns.iter().find(|d| d.line >= *start && d.line <= *end) else {
                continue;
            };
            if in_regions(tests, def.line) {
                continue;
            }
            // A decode fn may return the quarantine wrapper directly or a
            // marked struct (whose own fields G1 already polices).
            let ok = def.ret.contains("Untrusted")
                || structs.iter().any(|(n, _)| def.ret.contains(n.as_str()));
            if !ok {
                let shown = if def.ret.is_empty() { "()" } else { &def.ret };
                raw.push(Diagnostic {
                    path: ctx.path.clone(),
                    line: def.line,
                    rule: Rule::G1,
                    message: format!(
                        "guest-input fn `{}` returns `{shown}` instead of quarantined values",
                        def.name
                    ),
                    hint: G1_HINT,
                    suppressed: false,
                });
            }
        }
    }
}

/// How a function came to hold guest taint, for chain rendering.
enum TaintKind {
    /// The body calls this marked source node directly.
    Source(usize),
    /// An `Untrusted`/marked-struct/guest-named parameter.
    Signature,
}

/// The interprocedural G3 pass over a prebuilt call graph. `files` and
/// `raw` are parallel, as in [`crate::callgraph::check`]; diagnostics
/// join each file's raw bucket pre-suppression so `allow(G3)` directives
/// apply and count as used.
pub(crate) fn check_graph(
    graph: &Graph,
    files: &[(LintContext, Scan)],
    raw: &mut [Vec<Diagnostic>],
) {
    // ---- Marked sources: per-file regions, global struct-name set. ----
    let regions: Vec<Vec<(u32, u32)>> = files
        .iter()
        .map(|(_, scan)| marker_regions(&scan.comments, &scan.tokens, GUEST_MARKER))
        .collect();
    let mut marked_structs: BTreeSet<String> = BTreeSet::new();
    for (_, scan) in files {
        for (name, _) in marked_items(scan).0 {
            marked_structs.insert(name);
        }
    }
    let marked_fn: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| in_regions(&regions[n.file], n.def.line))
        .collect();

    // ---- Per-node taint, and the sink/validator scan. ----
    let sig_tainted: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| {
            n.def.params.iter().any(|p| {
                p.ty.contains("Untrusted")
                    || marked_structs.iter().any(|s| p.ty.contains(s.as_str()))
                    || (GUEST_NAMES.contains(&p.name.as_str()) && RAW_INTS.contains(&p.ty.as_str()))
            })
        })
        .collect();

    // First body pass: which nodes directly call a marked source (and
    // where) — these are the taint roots the chain rendering grows from.
    let mut source_call: Vec<Option<(usize, usize)>> = vec![None; graph.nodes.len()];
    for (i, n) in graph.nodes.iter().enumerate() {
        let (ctx, scan) = &files[n.file];
        if !ctx.address_crate {
            continue;
        }
        let Some((b, e)) = n.def.body else { continue };
        let t = &scan.tokens;
        let nested = graph.nested_ranges(i);
        let mut idx = b + 1;
        while idx < e {
            if let Some(&(_, ne)) = nested.iter().find(|&&(nb, _)| nb == idx) {
                idx = ne + 1;
                continue;
            }
            if let Some(targets) = graph.resolve_call(t, idx, n) {
                if let Some(&s) = targets.iter().find(|&&s| marked_fn[s]) {
                    source_call[i] = Some((idx, s));
                    break;
                }
            }
            idx += 1;
        }
    }

    // Taint-propagation BFS from the roots, for chain rendering only (the
    // taint *decision* per node is local: signature or direct source).
    let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut reached: Vec<bool> = vec![false; graph.nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, sc) in source_call.iter().enumerate() {
        if sc.is_some() {
            reached[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(i) = queue.pop_front() {
        for &j in &graph.edges[i] {
            if !reached[j] {
                reached[j] = true;
                parent[j] = Some(i);
                queue.push_back(j);
            }
        }
    }

    // ---- Second body pass: sinks vs validators on tainted nodes. ----
    for (i, n) in graph.nodes.iter().enumerate() {
        let (ctx, scan) = &files[n.file];
        if !ctx.address_crate || ctx.boundary_module {
            continue; // boundary modules are where raw wire forms live
        }
        let (taint_start, kind) = match source_call[i] {
            _ if sig_tainted[i] => {
                let Some((b, _)) = n.def.body else { continue };
                (b, TaintKind::Signature)
            }
            Some((at, src)) => (at, TaintKind::Source(src)),
            None => continue,
        };
        let Some((_, e)) = n.def.body else { continue };
        let t = &scan.tokens;
        let nested = graph.nested_ranges(i);
        let mut validated = false;
        let mut chain: Option<String> = None;
        let mut idx = taint_start + 1;
        while idx < e {
            if let Some(&(_, ne)) = nested.iter().find(|&&(nb, _)| nb == idx) {
                idx = ne + 1;
                continue;
            }
            if is_validator_call(t, idx) {
                validated = true;
                idx += 1;
                continue;
            }
            if !validated {
                if let Some(what) = sink_at(t, idx) {
                    let chain = chain
                        .get_or_insert_with(|| render_taint(graph, &kind, &parent, &reached, i));
                    raw[n.file].push(Diagnostic {
                        path: ctx.path.clone(),
                        line: t[idx].line,
                        rule: Rule::G3,
                        message: format!(
                            "guest-tainted value reaches `{what}` with no validator on the path ({chain})"
                        ),
                        hint: G3_HINT,
                        suppressed: false,
                    });
                }
            }
            idx += 1;
        }
    }
}

/// `validate_*(` with the previous token not `fn` — a call to a bounds
/// proof, not its definition.
fn is_validator_call(t: &[Tok], idx: usize) -> bool {
    let TokKind::Ident(name) = &t[idx].kind else {
        return false;
    };
    name.starts_with("validate_")
        && matches!(t.get(idx + 1).map(|x| &x.kind), Some(TokKind::Punct('(')))
        && !matches!(idx.checked_sub(1).map(|p| &t[p].kind), Some(TokKind::Ident(k)) if k == "fn")
}

/// If tokens at `idx` are a G3 sink, returns its rendering. The sinks are
/// the operations whose arguments become physical effects: extent-walk
/// entry, `Plba` minting, DMA byte counts, and ring arithmetic/indexing
/// on guest-named values.
fn sink_at(t: &[Tok], idx: usize) -> Option<String> {
    let next =
        |k: usize, c: char| matches!(t.get(k).map(|x| &x.kind), Some(TokKind::Punct(p)) if *p == c);
    match &t[idx].kind {
        TokKind::Ident(name) => {
            let prev_fn = matches!(idx.checked_sub(1).map(|p| &t[p].kind), Some(TokKind::Ident(k)) if k == "fn");
            match name.as_str() {
                "walk_run" | "Plba" if next(idx + 1, '(') && !prev_fn => {
                    Some(format!("{name}(..)"))
                }
                "dma_read" | "dma_write"
                    if idx > 0
                        && matches!(t[idx - 1].kind, TokKind::Punct('.'))
                        && next(idx + 1, '(') =>
                {
                    Some(format!(".{name}(..)"))
                }
                n if GUEST_NAMES.contains(&n) && next(idx + 1, '%') => {
                    Some(format!("{n} % ..")) // queue-head arithmetic
                }
                _ => None,
            }
        }
        // `base[<guest-named> ...]` — indexing driven by a guest value.
        TokKind::Punct('[')
            if idx > 0
                && match &t[idx - 1].kind {
                    TokKind::Punct(')') | TokKind::Punct(']') => true,
                    TokKind::Ident(base) => !crate::rules::nonindex_keyword(base),
                    _ => false,
                } =>
        {
            match t.get(idx + 1).map(|x| &x.kind) {
                Some(TokKind::Ident(n)) if GUEST_NAMES.contains(&n.as_str()) => {
                    Some(format!("[{n} ..] indexing"))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Renders how the taint got here, in the same spirit as P1's discovery
/// chains.
fn render_taint(
    graph: &Graph,
    kind: &TaintKind,
    parent: &[Option<usize>],
    reached: &[bool],
    i: usize,
) -> String {
    match kind {
        TaintKind::Source(src) => {
            format!("guest input from `{}`", graph.nodes[*src].label())
        }
        TaintKind::Signature if reached[i] => {
            // Walk the propagation tree back to a root that names a source.
            let mut labels = vec![graph.nodes[i].label()];
            let mut at = i;
            while let Some(p) = parent[at] {
                labels.push(graph.nodes[p].label());
                at = p;
            }
            labels.reverse();
            let src = graph.nodes[at].label();
            format!("guest input via `{src}`: {}", labels.join(" → "))
        }
        TaintKind::Signature => "tainted by signature".to_string(),
    }
}
