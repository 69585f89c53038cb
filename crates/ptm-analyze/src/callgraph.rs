//! Approximate per-workspace call graph over the [`crate::syntax`] layer.
//!
//! Resolution is name-based, not type-based: a call site `self.submit(...)`
//! resolves to *every* fn named `submit` in the server crates (with a
//! preference for methods of the caller's own impl type, then the caller's
//! own crate). That over-approximates — which is the right direction for
//! the reachability rules built on top (`reactor-blocking` never misses a
//! path because of a resolution gap) — and the few false edges in this
//! workspace are documented in `docs/ANALYSIS.md` § Call-graph
//! approximation and its limits.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::scanner::{Token, TokenKind};
use crate::syntax::{self, FnItem};
use crate::workspace::Workspace;

/// Rust keywords and control constructs that look like `ident (` in the
/// token stream but are never calls.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "let", "in", "loop", "move", "as", "ref", "mut",
    "else", "break", "continue", "where", "impl", "dyn", "box", "await", "unsafe", "Some", "Ok",
    "Err", "None", "Box", "Vec", "String", "Arc", "Rc", "Cell", "RefCell",
];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name (`submit`, `run_single`, `sleep`, ...).
    pub name: String,
    /// Path qualifier immediately before the name (`thread` for
    /// `thread::sleep`, `Self` for `Self::helper`), when present.
    pub qualifier: Option<String>,
    /// Whether the call is a method call (`recv.name(...)`).
    pub is_method: bool,
    /// Whether the call is exactly `self.name(...)` — the receiver is the
    /// caller's own type, so resolution can filter to its impl block.
    pub self_receiver: bool,
    /// Whether the receiver is a macro invocation's result
    /// (`histogram!(..).record(v)`), which resolves to no workspace fn.
    pub macro_receiver: bool,
    /// 1-based source line of the call.
    pub line: u32,
    /// Token index of the name in the file's token stream.
    pub token: usize,
}

/// The workspace call graph: every fn, its call sites, and name-resolved
/// edges between fns.
pub struct CallGraph {
    /// All fns, indexed by the ids used everywhere else in this struct.
    pub fns: Vec<FnItem>,
    /// Call sites per fn (parallel to [`CallGraph::fns`]).
    pub calls: Vec<Vec<CallSite>>,
    /// Resolved edges per fn: `(call site index, callee fn id)`.
    pub edges: Vec<Vec<(usize, usize)>>,
}

impl CallGraph {
    /// Builds the graph over `crates` (e.g. the server crates). Fns from
    /// other crates are invisible — calls into them become unresolved
    /// leaves, which the rules treat by name (e.g. `sleep`).
    pub fn build(ws: &Workspace, crates: &[&str]) -> CallGraph {
        let mut fns: Vec<FnItem> = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            if !crates.contains(&file.crate_name.as_str()) {
                continue;
            }
            fns.extend(syntax::parse_fns(fi, file));
        }
        let calls: Vec<Vec<CallSite>> = fns.iter().map(|f| extract_calls(ws, &fns, f)).collect();
        let fn_crates: Vec<String> = fns
            .iter()
            .map(|f| ws.files[f.file].crate_name.clone())
            .collect();

        // Name → candidate fn ids, for resolution.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(id);
        }

        let mut edges: Vec<Vec<(usize, usize)>> = Vec::with_capacity(fns.len());
        for (id, sites) in calls.iter().enumerate() {
            let caller = &fns[id];
            let mut out = Vec::new();
            for (si, site) in sites.iter().enumerate() {
                for callee in resolve(site, caller, &fn_crates[id], &fns, &fn_crates, &by_name) {
                    out.push((si, callee));
                }
            }
            edges.push(out);
        }
        CallGraph { fns, calls, edges }
    }

    /// Ids of fns carrying `mark` (from `// ptm-analyze: <mark>` comments).
    pub fn marked(&self, mark: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.has_mark(mark))
            .map(|(id, _)| id)
            .collect()
    }

    /// BFS closure from `roots`, never stepping *into* fns in `cut` (they
    /// are still reported as reached, but their bodies are not explored —
    /// this is how `reactor-blocking` models the worker-pool handoff).
    /// Returns `reached fn id → (parent fn id, call site index in parent)`;
    /// roots map to `None`.
    pub fn reach(
        &self,
        roots: &[usize],
        cut: &HashSet<usize>,
    ) -> HashMap<usize, Option<(usize, usize)>> {
        let mut parent: HashMap<usize, Option<(usize, usize)>> = HashMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if parent.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            if cut.contains(&id) && !roots.contains(&id) {
                continue;
            }
            for &(si, callee) in &self.edges[id] {
                if let std::collections::hash_map::Entry::Vacant(e) = parent.entry(callee) {
                    e.insert(Some((id, si)));
                    queue.push_back(callee);
                }
            }
        }
        parent
    }

    /// Renders the call chain from a root to `id` as
    /// `root -> a -> b -> id`, using the parent map from [`CallGraph::reach`].
    pub fn witness(&self, parents: &HashMap<usize, Option<(usize, usize)>>, id: usize) -> String {
        let mut chain = vec![id];
        let mut cur = id;
        while let Some(Some((p, _))) = parents.get(&cur) {
            chain.push(*p);
            cur = *p;
        }
        chain.reverse();
        chain
            .iter()
            .map(|&f| self.fns[f].name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Extracts call sites from `f`'s body, skipping nested fns, macros, and
/// the bodies of `spawn(...)` and `spawn_scoped(...)` closures (those run
/// on another thread).
fn extract_calls(ws: &Workspace, all: &[FnItem], f: &FnItem) -> Vec<CallSite> {
    let toks = &ws.files[f.file].tokens;
    let mut skip = syntax::nested_spans(all, f);
    skip.extend(syntax::spawn_arg_spans(toks, f.body));
    let mut out = Vec::new();
    let (start, end) = f.body;
    let mut i = start;
    while i <= end && i < toks.len() {
        if syntax::in_spans(&skip, i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.kind == TokenKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !NON_CALL_IDENTS.contains(&t.text.as_str())
        {
            // `name!(...)` macro invocations have a `!` before the paren —
            // already excluded since we require `(` at i+1. Exclude struct
            // literal shorthand is not needed (that's `{`, not `(`).
            let before = i.checked_sub(1).map(|k| &toks[k]);
            let is_method = before.is_some_and(|b| b.is_punct('.'));
            // `self.name(...)` exactly: `self` right before the dot, and
            // not itself a field access (`x.self` is not Rust anyway).
            let self_receiver = is_method
                && i >= 2
                && toks[i - 2].is_ident("self")
                && (i < 4 || !toks[i - 3].is_punct('.'));
            let macro_receiver = is_method && i >= 2 && closes_macro_args(toks, i - 2);
            let qualifier =
                if !is_method && i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                    i.checked_sub(3)
                        .map(|k| &toks[k])
                        .filter(|q| q.kind == TokenKind::Ident)
                        .map(|q| q.text.clone())
                } else {
                    None
                };
            // `fn f(` declarations are excluded by NON_CALL_IDENTS ("fn"
            // precedes the name): check the token before isn't `fn`.
            let is_decl = before.is_some_and(|b| b.is_ident("fn"));
            if !is_decl {
                out.push(CallSite {
                    name: t.text.clone(),
                    qualifier,
                    is_method,
                    self_receiver,
                    macro_receiver,
                    line: t.line,
                    token: i,
                });
            }
        }
        i += 1;
    }
    out
}

/// Whether the `)` at `close` ends a macro invocation's arguments, as in
/// `histogram!(..)`.
fn closes_macro_args(toks: &[Token], close: usize) -> bool {
    if !toks[close].is_punct(')') {
        return false;
    }
    let mut depth = 0i32;
    for k in (0..=close).rev() {
        if toks[k].is_punct(')') {
            depth += 1;
        } else if toks[k].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                return k >= 2 && toks[k - 1].is_punct('!') && toks[k - 2].kind == TokenKind::Ident;
            }
        }
    }
    false
}

/// Resolves a call site to candidate fn ids.
///
/// Precision ladder (documented in `docs/ANALYSIS.md`):
/// - `Type::name` → only methods in `impl Type` blocks (a std path like
///   `thread::sleep` matching no workspace type resolves to nothing);
/// - `Self::name` / `self.name(...)` → only methods of the caller's own
///   impl type;
/// - `crate::name` / `self::name` / `super::name` → free fns and methods
///   in the caller's crate;
/// - a method called on a macro's result (`counter!(..).inc()`) → nothing:
///   std's and ptm-obs's macros never return a server-crate type;
/// - other method calls `x.name(...)` → every *method* with the name
///   (union — receiver types are unknown, over-approximation is the safe
///   direction for reachability rules). Associated fns without `self`
///   cannot be method-called and are excluded, as are `impl Trait for`
///   methods: those are invoked through trait-typed receivers (sockets,
///   files) that are never the workspace type itself here, and including
///   them makes every `stream.write(..)` alias every `io::Write` impl;
/// - plain `name(...)` → same-crate fns when any exist, else the union,
///   excluding trait-impl methods for the same reason (`drop(x)` must not
///   alias every `Drop` impl).
fn resolve(
    site: &CallSite,
    caller: &FnItem,
    caller_crate: &str,
    fns: &[FnItem],
    fn_crates: &[String],
    by_name: &HashMap<&str, Vec<usize>>,
) -> Vec<usize> {
    let Some(candidates) = by_name.get(site.name.as_str()) else {
        return Vec::new();
    };
    if let Some(q) = &site.qualifier {
        if q == "Self" {
            return filter(candidates, |id| {
                caller.self_type.is_some() && fns[id].self_type == caller.self_type
            });
        }
        if q == "crate" || q == "super" || q == "self" {
            return filter(candidates, |id| fn_crates[id] == caller_crate);
        }
        let type_match = filter(candidates, |id| fns[id].self_type.as_deref() == Some(q));
        // A qualifier naming no workspace impl type is a std/external path.
        return type_match;
    }
    if site.is_method {
        if site.macro_receiver {
            return Vec::new();
        }
        if site.self_receiver {
            return filter(candidates, |id| {
                caller.self_type.is_some() && fns[id].self_type == caller.self_type
            });
        }
        return filter(candidates, |id| {
            fns[id].has_self_param && fns[id].trait_name.is_none()
        });
    }
    let plain = filter(candidates, |id| fns[id].trait_name.is_none());
    let same_crate = filter(&plain, |id| fn_crates[id] == caller_crate);
    if same_crate.is_empty() {
        plain
    } else {
        same_crate
    }
}

fn filter(candidates: &[usize], keep: impl Fn(usize) -> bool) -> Vec<usize> {
    candidates.iter().copied().filter(|&id| keep(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{FileKind, SourceFile, Workspace};

    fn graph(src: &str) -> CallGraph {
        let file =
            SourceFile::from_source("ptm-rpc", "crates/ptm-rpc/src/x.rs", FileKind::Src, src);
        CallGraph::build(&Workspace::in_memory(vec![file], vec![]), &["ptm-rpc"])
    }

    fn id(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).expect(name)
    }

    #[test]
    fn direct_and_method_calls_produce_edges() {
        let g = graph(
            r#"
            struct S;
            impl S {
                fn a(&self) { self.b(); free(); }
                fn b(&self) {}
            }
            fn free() {}
            "#,
        );
        let a = id(&g, "a");
        let callees: Vec<&str> = g.edges[a]
            .iter()
            .map(|&(_, c)| g.fns[c].name.as_str())
            .collect();
        assert!(callees.contains(&"b"), "callees: {callees:?}");
        assert!(callees.contains(&"free"), "callees: {callees:?}");
    }

    #[test]
    fn std_qualified_calls_stay_unresolved_but_are_recorded() {
        let g = graph("fn a() { thread::sleep(d); }\nmod thread_shadow { }\nfn sleep() {}");
        let a = id(&g, "a");
        // `thread` is not a workspace impl type, so no edge to fn sleep.
        assert!(g.edges[a].is_empty(), "edges: {:?}", g.edges[a]);
        // But the call site itself is visible for name-based blocking checks.
        assert_eq!(g.calls[a].len(), 1);
        assert_eq!(g.calls[a][0].name, "sleep");
        assert_eq!(g.calls[a][0].qualifier.as_deref(), Some("thread"));
    }

    #[test]
    fn methods_called_on_a_macro_result_resolve_to_nothing() {
        let g = graph(
            r#"
            struct CentralServer;
            impl CentralServer { fn record(&self) {} }
            fn a(server: &CentralServer) {
                histogram!("x", f(1)).record(v);
                counter!("y").record(1);
                server.record();
            }
            "#,
        );
        let a = id(&g, "a");
        let records: Vec<u32> = g.calls[a]
            .iter()
            .filter(|site| site.name == "record")
            .map(|site| site.line)
            .collect();
        assert_eq!(records.len(), 3, "every call site is recorded");
        let resolved: Vec<(&str, u32)> = g.edges[a]
            .iter()
            .map(|&(si, c)| (g.fns[c].name.as_str(), g.calls[a][si].line))
            .collect();
        assert_eq!(resolved, [("record", records[2])], "only `server.record()`");
    }

    #[test]
    fn spawn_scoped_closures_are_cut_like_spawn() {
        let g = graph(
            r#"
            fn a() {
                thread::scope(|s| {
                    thread::Builder::new().spawn_scoped(s, move || elsewhere());
                    thread::spawn(move || elsewhere());
                    here();
                });
            }
            fn elsewhere() {}
            fn here() {}
            "#,
        );
        let a = id(&g, "a");
        let callees: Vec<&str> = g.edges[a]
            .iter()
            .map(|&(_, c)| g.fns[c].name.as_str())
            .collect();
        assert_eq!(callees, ["here"], "the closures run on other threads");
    }

    #[test]
    fn reachability_respects_the_cut_set() {
        let g = graph(
            r#"
            // ptm-analyze: reactor-root
            fn root() { handoff(); direct(); }
            fn handoff() { deep(); }
            fn direct() {}
            fn deep() {}
            "#,
        );
        let root = id(&g, "root");
        let handoff = id(&g, "handoff");
        let cut: HashSet<usize> = [handoff].into_iter().collect();
        let reach = g.reach(&[root], &cut);
        assert!(reach.contains_key(&id(&g, "direct")));
        assert!(reach.contains_key(&handoff), "cut fns are reached");
        assert!(
            !reach.contains_key(&id(&g, "deep")),
            "but not explored through"
        );
        assert_eq!(g.witness(&reach, id(&g, "direct")), "root -> direct");
    }

    #[test]
    fn marked_fns_are_found() {
        let g = graph("// ptm-analyze: worker-entry\nfn w() {}\nfn other() {}");
        assert_eq!(g.marked("worker-entry"), vec![id(&g, "w")]);
    }
}
