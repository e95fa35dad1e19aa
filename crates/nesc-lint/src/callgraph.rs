//! The conservative workspace call graph behind the panic-freedom rules.
//!
//! The P rules ("no panics on the data path") are *reachability* rules:
//! whether an `unwrap()` is a bug depends on whether the function holding
//! it can execute during request service. A per-file token pass cannot
//! answer that, so this module builds a whole-workspace call graph from
//! the same token scans the other rules use:
//!
//! 1. **Harvest** — [`crate::parser::parse_fns`] extracts every function
//!    definition (any visibility, free or in `impl`/`trait` blocks) with
//!    its body token range and enclosing `impl` type.
//! 2. **Collect** — each body is scanned for call-site shapes: free calls
//!    (`foo(`), method calls (`.foo(`), and path/UFCS calls
//!    (`Type::foo(`, `module::foo(`, `Self::foo(`).
//! 3. **Resolve** — names resolve *conservatively*, over-approximating on
//!    ambiguity (see the table below). A call may gain edges to functions
//!    it can never reach at runtime; it never silently loses one the
//!    scanner can see.
//! 4. **Reach** — BFS from the data-path entry points
//!    ([`ENTRY_POINTS`]): `System::run_open_loop`, `process_vf_request`,
//!    the device completion loop (`NescDevice::advance_into`), and
//!    `Scenario::run`.
//!
//! # The conservatism contract
//!
//! | call shape | resolves to |
//! |------------|-------------|
//! | `.foo(...)` | **every** workspace function named `foo` — method, trait default, or free. Trait objects (`dyn Workload`) therefore fall back to all impls of the method name. |
//! | `foo(...)` | every *free* function named `foo` (no enclosing `impl`) |
//! | `Self::foo(` | `foo` in the caller's own `impl` type |
//! | `Type::foo(` | `foo` in `impl Type` blocks, if `Type` is a workspace `impl` type; an unknown capitalized qualifier (`Vec`, `String`) contributes **no** edge |
//! | `module::foo(` | lowercase qualifier → every free function named `foo` |
//! | `<T as Trait>::foo(` | every workspace function named `foo` |
//!
//! Method calls whose name matches no workspace function (`.push(` on a
//! std `Vec`, `.unwrap(` on an `Option`) resolve to the empty target set
//! and are *dropped* — but counted: `Graph::unresolved_calls` surfaces
//! the drop count in `--format json`, so a growing blind spot is visible
//! instead of silent.
//!
//! Guaranteed false-negative shapes (documented, accepted): calls made
//! through operator overloads (`Add`, `Index`, `Deref`) and through
//! function pointers/closures passed as values are invisible to a token
//! scanner — there is no call-site *name* to resolve. The workspace keeps
//! arithmetic `impl`s panic-free by convention (they are pure integer
//! math), and the entry points' callback parameters are driven by
//! workspace code that is itself on the reachable set.
//!
//! Known false-positive shape: name collisions. A data-path call to
//! `.push(...)` reaches *every* workspace `fn push`, including ones on
//! types the caller never holds. That is the price of never missing a
//! trait-object dispatch; colliding functions must simply also be
//! panic-free (which the refactor this rule forced made true).
//!
//! Functions inside `#[cfg(test)]` regions, `tests/` trees, and the
//! tooling/harness crates (`nesc-lint` itself, `bench`, `examples/`) are
//! not graph nodes: they sit *above* the entry points and drive the data
//! path, never the reverse.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Scan, Tok, TokKind};
use crate::parser::{parse_fns, FnDef};
use crate::rules::{in_regions, test_regions, Diagnostic, LintContext, Rule};

/// The data-path entry points: `(impl type, fn name)`. `None` matches any
/// enclosing type (or a free function), so a scratch file defining a bare
/// `fn process_vf_request` still arms the analyzer — `scripts/check.sh`
/// relies on that for its injection self-test.
pub const ENTRY_POINTS: &[(Option<&str>, &str)] = &[
    (Some("System"), "run_open_loop"),
    (None, "process_vf_request"),
    (Some("NescDevice"), "advance_into"),
    (Some("Scenario"), "run"),
];

/// Keywords that can directly precede `(` without being a call.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "match"
            | "for"
            | "return"
            | "loop"
            | "in"
            | "as"
            | "move"
            | "ref"
            | "mut"
            | "else"
            | "unsafe"
            | "box"
            | "dyn"
            | "where"
            | "impl"
            | "fn"
            | "let"
            | "use"
            | "pub"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "self"
            | "Self"
    )
}

/// Macros that abort instead of returning an error (P1). `debug_assert*`
/// is deliberately absent: pure invariants may keep debug-build teeth.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// One call-graph node.
pub(crate) struct Node {
    /// Index into the `files` slice.
    pub(crate) file: usize,
    /// The function definition this node stands for.
    pub(crate) def: FnDef,
}

impl Node {
    /// Display name: `Type::fn` or `fn`.
    pub(crate) fn label(&self) -> String {
        match &self.def.impl_type {
            Some(t) => format!("{t}::{}", self.def.name),
            None => self.def.name.clone(),
        }
    }
}

/// Whether this file contributes graph nodes at all. Harness and tooling
/// code lives above the entry points; integration tests are exempt by
/// design (`test_file`).
fn in_graph(ctx: &LintContext) -> bool {
    !ctx.test_file
        && !ctx.path.starts_with("crates/nesc-lint/")
        && !ctx.path.starts_with("crates/bench/")
        && !ctx.path.starts_with("examples/")
}

/// The conservative whole-workspace call graph, built once per file set
/// and shared by the panic-freedom pass ([`check`]) and the guest-taint
/// pass ([`crate::guest::check_graph`]).
pub(crate) struct Graph {
    /// All harvested function definitions.
    pub(crate) nodes: Vec<Node>,
    /// Caller → callee adjacency, parallel to `nodes`.
    pub(crate) edges: Vec<BTreeSet<usize>>,
    /// Per-file node body ranges `(open, close, node)` for nested-fn
    /// skipping, parallel to the `files` slice the graph was built from.
    pub(crate) file_bodies: Vec<Vec<(usize, usize, usize)>>,
    /// Method-shape call sites (`.foo(`) whose name matches no workspace
    /// function — the calls the resolver *silently drops*. Published in
    /// `--format json` so the graph's conservatism stays auditable: a
    /// jump in this count means new code is invisible to P1/P3/G3.
    pub(crate) unresolved_calls: usize,
    by_name: BTreeMap<String, Vec<usize>>,
    free_by_name: BTreeMap<String, Vec<usize>>,
    by_impl: BTreeMap<(String, String), Vec<usize>>,
    impl_types: BTreeSet<String>,
}

impl Graph {
    /// Harvests nodes, builds the name-resolution indexes, and collects
    /// the edge set (counting dropped method calls along the way).
    pub(crate) fn build(files: &[(LintContext, Scan)]) -> Graph {
        // ---- Harvest nodes. ----
        let mut nodes: Vec<Node> = Vec::new();
        for (fi, (ctx, scan)) in files.iter().enumerate() {
            if !in_graph(ctx) {
                continue;
            }
            let tests = test_regions(&scan.tokens);
            for def in parse_fns(scan) {
                if in_regions(&tests, def.line) {
                    continue; // test helpers are not data-path nodes
                }
                nodes.push(Node { file: fi, def });
            }
        }

        // ---- Name-resolution indexes. ----
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_impl: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        let mut impl_types: BTreeSet<String> = BTreeSet::new();
        for (i, n) in nodes.iter().enumerate() {
            by_name.entry(n.def.name.clone()).or_default().push(i);
            match &n.def.impl_type {
                Some(t) => {
                    by_impl
                        .entry((t.clone(), n.def.name.clone()))
                        .or_default()
                        .push(i);
                    impl_types.insert(t.clone());
                }
                None => free_by_name.entry(n.def.name.clone()).or_default().push(i),
            }
        }

        // Per-file list of node body ranges, for nested-fn skipping.
        let mut file_bodies: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); files.len()];
        for (i, n) in nodes.iter().enumerate() {
            if let Some((b, e)) = n.def.body {
                file_bodies[n.file].push((b, e, i));
            }
        }

        let mut g = Graph {
            edges: vec![BTreeSet::new(); nodes.len()],
            nodes,
            file_bodies,
            unresolved_calls: 0,
            by_name,
            free_by_name,
            by_impl,
            impl_types,
        };

        // ---- Collect edges. ----
        let mut edges = std::mem::take(&mut g.edges);
        for (i, n) in g.nodes.iter().enumerate() {
            let Some((b, e)) = n.def.body else { continue };
            let t = &files[n.file].1.tokens;
            let nested = g.nested_ranges(i);
            let mut idx = b + 1;
            while idx < e {
                if let Some(&(_, ne)) = nested.iter().find(|&&(nb, _)| nb == idx) {
                    idx = ne + 1; // a nested fn's calls belong to that fn
                    continue;
                }
                if let Some(targets) = g.resolve_call(t, idx, n) {
                    if targets.is_empty()
                        && matches!(
                            idx.checked_sub(1).map(|p| &t[p].kind),
                            Some(TokKind::Punct('.'))
                        )
                    {
                        // A method call whose name matches nothing in the
                        // workspace: dropped, but no longer silently.
                        g.unresolved_calls += 1;
                    }
                    edges[i].extend(targets);
                }
                idx += 1;
            }
        }
        g.edges = edges;
        g
    }

    /// Body ranges of other nodes nested inside node `i`'s body.
    pub(crate) fn nested_ranges(&self, i: usize) -> Vec<(usize, usize)> {
        let Some((b, e)) = self.nodes[i].def.body else {
            return Vec::new();
        };
        self.file_bodies[self.nodes[i].file]
            .iter()
            .filter(|&&(nb, ne, ni)| ni != i && nb > b && ne < e)
            .map(|&(nb, ne, _)| (nb, ne))
            .collect()
    }

    /// If tokens at `idx` form a call site, returns its resolved targets.
    pub(crate) fn resolve_call(&self, t: &[Tok], idx: usize, caller: &Node) -> Option<Vec<usize>> {
        let TokKind::Ident(name) = &t[idx].kind else {
            return None;
        };
        if is_keyword(name) {
            return None;
        }
        if !matches!(t.get(idx + 1).map(|x| &x.kind), Some(TokKind::Punct('('))) {
            return None;
        }
        let prev = idx.checked_sub(1).map(|p| &t[p].kind);
        match prev {
            // `.foo(` — method call: every workspace fn named foo (trait
            // objects resolve to all impls of the name).
            Some(TokKind::Punct('.')) => {
                Some(self.by_name.get(name.as_str()).cloned().unwrap_or_default())
            }
            // `fn foo(` — a definition, not a call.
            Some(TokKind::Ident(k)) if k == "fn" => None,
            // `A::foo(` — path-qualified call.
            Some(TokKind::Punct(':'))
                if idx >= 2 && matches!(t[idx - 2].kind, TokKind::Punct(':')) =>
            {
                match idx.checked_sub(3).map(|q| &t[q].kind) {
                    Some(TokKind::Ident(q)) if q == "Self" => {
                        let ty = caller.def.impl_type.as_deref()?;
                        Some(
                            self.by_impl
                                .get(&(ty.to_string(), name.clone()))
                                .cloned()
                                .unwrap_or_default(),
                        )
                    }
                    Some(TokKind::Ident(q)) if self.impl_types.contains(q.as_str()) => Some(
                        self.by_impl
                            .get(&(q.clone(), name.clone()))
                            .cloned()
                            .unwrap_or_default(),
                    ),
                    // Unknown capitalized qualifier: an external type
                    // (`Vec::new`) — no workspace edge.
                    Some(TokKind::Ident(q)) if q.chars().next().is_some_and(char::is_uppercase) => {
                        Some(Vec::new())
                    }
                    // Lowercase qualifier: a module path — free functions.
                    Some(TokKind::Ident(_)) => Some(
                        self.free_by_name
                            .get(name.as_str())
                            .cloned()
                            .unwrap_or_default(),
                    ),
                    // `<T as Trait>::foo(` and turbofish tails: conservative.
                    _ => Some(self.by_name.get(name.as_str()).cloned().unwrap_or_default()),
                }
            }
            // `foo(` — free call.
            _ => Some(
                self.free_by_name
                    .get(name.as_str())
                    .cloned()
                    .unwrap_or_default(),
            ),
        }
    }
}

/// The whole-workspace panic-freedom pass over a prebuilt [`Graph`].
/// `files` and `raw` are parallel; P1/P3 diagnostics are appended to the
/// offending file's raw bucket (pre-suppression, so `allow(P1)` directives
/// apply to them and count as used). Returns the number of reachable
/// functions.
pub(crate) fn check(
    graph: &Graph,
    files: &[(LintContext, Scan)],
    raw: &mut [Vec<Diagnostic>],
) -> usize {
    let nodes = &graph.nodes;

    // ---- Reach: BFS from the entry points, tracking one parent each. ----
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut reached: Vec<bool> = vec![false; nodes.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for (i, n) in nodes.iter().enumerate() {
        let is_entry = ENTRY_POINTS.iter().any(|(ty, name)| {
            n.def.name == *name && ty.is_none_or(|t| n.def.impl_type.as_deref() == Some(t))
        });
        if is_entry && !reached[i] {
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
    let reachable = reached.iter().filter(|&&r| r).count();

    // ---- P1/P3 on the reachable set. ----
    for (i, n) in nodes.iter().enumerate() {
        if !reached[i] {
            continue;
        }
        let chain = render_chain(nodes, &parent, i);
        let (ctx, scan) = &files[n.file];
        if let Some((b, e)) = n.def.body {
            let t = &scan.tokens;
            let nested = graph.nested_ranges(i);
            let mut idx = b + 1;
            while idx < e {
                if let Some(&(_, ne)) = nested.iter().find(|&&(nb, _)| nb == idx) {
                    idx = ne + 1;
                    continue;
                }
                if let Some(what) = panic_site(t, idx) {
                    raw[n.file].push(Diagnostic {
                        path: ctx.path.clone(),
                        line: t[idx].line,
                        rule: Rule::P1,
                        message: format!("`{what}` on the data path ({chain})"),
                        hint: "return the crate's typed error (debug_assert! for pure invariants); the data path must degrade, not die",
                        suppressed: false,
                    });
                }
                idx += 1;
            }
        }
        // P3: stringly / unit errors on reachable public API.
        if n.def.is_pub {
            let ret = n.def.ret.as_str();
            let stringly = ret.starts_with("Result<")
                && (ret.ends_with(",String>") || ret.ends_with(",()>") || ret.ends_with(",&str>"));
            let opaque_option = n.def.name.starts_with("try_") && ret.starts_with("Option<");
            if stringly || opaque_option {
                raw[n.file].push(Diagnostic {
                    path: ctx.path.clone(),
                    line: n.def.line,
                    rule: Rule::P3,
                    message: format!(
                        "data-path `pub fn {}` returns `{ret}` ({chain})",
                        n.def.name
                    ),
                    hint: "return the crate's typed error enum so callers can route failures",
                    suppressed: false,
                });
            }
        }
    }
    reachable
}

/// If tokens at `idx` are a P1 panic site, returns its rendering.
fn panic_site(t: &[Tok], idx: usize) -> Option<String> {
    let TokKind::Ident(name) = &t[idx].kind else {
        return None;
    };
    let next =
        |k: usize, c: char| matches!(t.get(k).map(|x| &x.kind), Some(TokKind::Punct(p)) if *p == c);
    match name.as_str() {
        "unwrap" | "expect"
            if idx > 0 && matches!(t[idx - 1].kind, TokKind::Punct('.')) && next(idx + 1, '(') =>
        {
            Some(format!(".{name}()"))
        }
        m if PANIC_MACROS.contains(&m) && next(idx + 1, '!') => Some(format!("{m}!")),
        _ => None,
    }
}

/// Renders the BFS ancestry `entry → … → node`, eliding long middles.
pub(crate) fn render_chain(nodes: &[Node], parent: &[Option<usize>], mut i: usize) -> String {
    let mut labels = vec![nodes[i].label()];
    while let Some(p) = parent[i] {
        labels.push(nodes[p].label());
        i = p;
    }
    labels.reverse();
    let rendered: Vec<String> = if labels.len() > 6 {
        let tail = labels.len() - 2;
        labels[..3]
            .iter()
            .cloned()
            .chain(std::iter::once("…".to_string()))
            .chain(labels[tail..].iter().cloned())
            .collect()
    } else {
        labels
    };
    if rendered.len() == 1 {
        format!("entry point {}", rendered[0])
    } else {
        format!("reachable via {}", rendered.join(" → "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn graph_diags(srcs: &[(&str, &str)]) -> (Vec<(String, u32, Rule)>, usize) {
        let files: Vec<(LintContext, Scan)> = srcs
            .iter()
            .map(|(path, src)| {
                let mut ctx = LintContext::strict(path);
                ctx.test_file = false;
                (ctx, scan(src))
            })
            .collect();
        let mut raw: Vec<Vec<Diagnostic>> = vec![Vec::new(); files.len()];
        let graph = Graph::build(&files);
        let reachable = check(&graph, &files, &mut raw);
        let mut out: Vec<(String, u32, Rule)> = raw
            .into_iter()
            .flatten()
            .map(|d| (d.path, d.line, d.rule))
            .collect();
        out.sort();
        (out, reachable)
    }

    #[test]
    fn direct_call_chain_is_reachable() {
        let (diags, reachable) = graph_diags(&[(
            "a.rs",
            "pub fn process_vf_request(x: Option<u32>) -> u32 {\n    helper(x)\n}\nfn helper(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        )]);
        assert_eq!(reachable, 2);
        assert_eq!(diags, vec![("a.rs".to_string(), 5, Rule::P1)]);
    }

    #[test]
    fn method_call_resolves_across_files() {
        let (diags, reachable) = graph_diags(&[
            (
                "a.rs",
                "impl Scenario {\n    pub fn run(&self, q: Queue) {\n        q.pop();\n    }\n}\n",
            ),
            (
                "b.rs",
                "impl Queue {\n    pub fn pop(&mut self) -> u64 {\n        self.items.pop_front().expect(\"non-empty\")\n    }\n}\n",
            ),
        ]);
        assert_eq!(reachable, 2);
        assert_eq!(diags, vec![("b.rs".to_string(), 3, Rule::P1)]);
    }

    #[test]
    fn trait_object_method_falls_back_to_every_impl() {
        // `.generate(` on a `dyn Workload` must reach every impl of the
        // name — both Oltp and Postmark, even though only one is held.
        let (diags, reachable) = graph_diags(&[(
            "w.rs",
            "impl Scenario {\n    pub fn run(&self, w: &mut dyn Workload) {\n        w.generate();\n    }\n}\nimpl Oltp {\n    fn generate(&mut self) {\n        panic!(\"oltp\");\n    }\n}\nimpl Postmark {\n    fn generate(&mut self) {\n        let _ = self.sizes.first().unwrap();\n    }\n}\n",
        )]);
        assert_eq!(reachable, 3);
        assert_eq!(
            diags,
            vec![
                ("w.rs".to_string(), 8, Rule::P1),
                ("w.rs".to_string(), 13, Rule::P1)
            ]
        );
    }

    #[test]
    fn unreachable_function_is_not_flagged() {
        let (diags, reachable) = graph_diags(&[(
            "a.rs",
            "pub fn process_vf_request(x: u32) -> u32 {\n    x + 1\n}\npub fn cold_debug_dump(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        )]);
        assert_eq!(reachable, 1);
        assert!(
            diags.is_empty(),
            "unreachable unwrap must stay silent: {diags:?}"
        );
    }

    #[test]
    fn test_regions_and_harness_files_contribute_no_nodes() {
        let (diags, reachable) = graph_diags(&[(
            "a.rs",
            "pub fn process_vf_request(x: u32) -> u32 {\n    x\n}\n#[cfg(test)]\nmod tests {\n    fn process_vf_request(x: Option<u32>) -> u32 {\n        x.unwrap()\n    }\n}\n",
        )]);
        assert_eq!(reachable, 1);
        assert!(diags.is_empty());
    }

    #[test]
    fn p3_flags_stringly_results_on_reachable_pub_fns() {
        let (diags, _) = graph_diags(&[(
            "a.rs",
            "pub fn process_vf_request(x: u32) -> Result<u32, String> {\n    inner(x)\n}\nfn inner(x: u32) -> Result<u32, String> {\n    Ok(x)\n}\npub fn try_lookup(x: u32) -> Option<u32> {\n    Some(x)\n}\n",
        )]);
        // Only the two *pub* fns fire; `inner` is private, `try_lookup`
        // is unreachable (nothing calls it) — wait, nothing calls it, so
        // it must not fire either.
        assert_eq!(diags, vec![("a.rs".to_string(), 1, Rule::P3)]);
    }

    #[test]
    fn self_and_type_qualified_calls_resolve() {
        let (diags, reachable) = graph_diags(&[(
            "a.rs",
            "impl System {\n    pub fn run_open_loop(&mut self) {\n        Self::step();\n        Wheel::advance_all();\n    }\n    fn step() {\n        todo!()\n    }\n}\nimpl Wheel {\n    fn advance_all() {\n        unreachable!()\n    }\n}\nimpl Other {\n    fn step() {\n        panic!()\n    }\n}\n",
        )]);
        // Other::step shares a name but `Self::step` pins System.
        assert_eq!(reachable, 3);
        assert_eq!(
            diags,
            vec![
                ("a.rs".to_string(), 7, Rule::P1),
                ("a.rs".to_string(), 12, Rule::P1)
            ]
        );
    }
}
