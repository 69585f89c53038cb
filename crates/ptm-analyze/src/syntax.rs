//! A structural layer over the token scanner: items, `fn` bodies, and
//! `impl` contexts.
//!
//! The concurrency rules need more than a flat token stream — they reason
//! about *functions* (what does this body call? which locks does it take?
//! is this the reactor loop?). This module recovers exactly that much
//! structure from the scanner's output: a brace-tree walk that finds every
//! `fn`, records its body's token range, remembers the `impl` block (type
//! and trait) it sits in, and attaches the `// ptm-analyze: reactor-root` /
//! `worker-entry` mark directives to the function they precede. It is
//! still std-only and resolution-free — no `syn`, no types — which keeps
//! the same honest contract as the scanner: approximate structure,
//! documented limits (see `docs/ANALYSIS.md` § Call-graph approximation).

use crate::scanner::{Token, TokenKind};
use crate::workspace::SourceFile;

/// One `fn` item recovered from a source file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's bare name (`reactor_loop`, `submit`, ...).
    pub name: String,
    /// The `impl` target type when the fn sits in an impl block
    /// (`WorkerPool` for `impl<J, C> WorkerPool<J, C> { fn submit ... }`).
    pub self_type: Option<String>,
    /// The trait being implemented, for `impl Trait for Type` blocks
    /// (`Drop`, `Read`, ...); `None` for inherent impls and free fns.
    pub trait_name: Option<String>,
    /// Index of this fn's file in [`crate::workspace::Workspace::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the signature: `[fn keyword, body open brace)`.
    pub sig: (usize, usize),
    /// Token range of the body, *inclusive* of both braces.
    pub body: (usize, usize),
    /// Whether the whole fn sits inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Mark directives attached to this fn (`reactor-root`, `worker-entry`).
    pub marks: Vec<String>,
    /// Whether the return type mentions a lock guard (`MutexGuard`,
    /// `RwLockReadGuard`, `RwLockWriteGuard`) — the callee hands its lock
    /// back to the caller, so the caller's `let` binding holds it.
    pub returns_guard: bool,
    /// Whether the first parameter is `self` — a method callable with
    /// `recv.name(...)`, as opposed to an associated fn (`Type::name`).
    pub has_self_param: bool,
}

impl FnItem {
    /// Whether this fn carries the given mark directive.
    pub fn has_mark(&self, name: &str) -> bool {
        self.marks.iter().any(|m| m == name)
    }
}

/// Parses every `fn` in `file` (free fns, impl methods, and fns nested in
/// other bodies — each gets its own entry; a nested fn's tokens are also
/// inside its parent's `body` range, which callers exclude via
/// [`nested_spans`]).
pub fn parse_fns(file_index: usize, file: &SourceFile) -> Vec<FnItem> {
    let toks = &file.tokens;
    let mut fns = Vec::new();
    // Impl contexts as (type, trait, body-end-token) — a stack because impl
    // blocks cannot nest but fns containing impl blocks can, cheaply.
    let mut impls: Vec<(Option<String>, Option<String>, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        impls.retain(|(_, _, end)| i <= *end);
        let tok = &toks[i];
        if tok.is_ident("impl") {
            if let Some((ty, tr, open)) = parse_impl_header(toks, i) {
                let end = matching(toks, open, '{', '}');
                impls.push((ty, tr, end));
                i = open + 1;
                continue;
            }
        }
        if tok.is_ident("fn") {
            let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
                i += 1;
                continue;
            };
            let Some(open) = body_open(toks, i + 2) else {
                // Trait method declaration (`fn f();`) — no body to index.
                i += 2;
                continue;
            };
            let close = matching(toks, open, '{', '}');
            let (self_type, trait_name) = impls
                .last()
                .map(|(ty, tr, _)| (ty.clone(), tr.clone()))
                .unwrap_or((None, None));
            fns.push(FnItem {
                name: name_tok.text.clone(),
                self_type,
                trait_name,
                file: file_index,
                line: tok.line,
                sig: (i, open),
                body: (open, close),
                in_test: tok.in_test,
                marks: Vec::new(),
                returns_guard: sig_returns_guard(&toks[i..open]),
                has_self_param: sig_has_self_param(&toks[i..open]),
            });
            // Keep walking *inside* the body so nested fns are found too.
            i += 2;
            continue;
        }
        i += 1;
    }
    attach_marks(file, &mut fns);
    fns
}

/// Token index spans of fns declared strictly inside `outer`'s body —
/// callers subtract these so a nested fn's calls and locks are attributed
/// to the nested fn only.
pub fn nested_spans(fns: &[FnItem], outer: &FnItem) -> Vec<(usize, usize)> {
    fns.iter()
        .filter(|f| f.file == outer.file && f.sig.0 > outer.body.0 && f.body.1 <= outer.body.1)
        .map(|f| (f.sig.0, f.body.1))
        .collect()
}

/// Whether token index `i` falls inside any of the (inclusive) `spans`.
pub fn in_spans(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|&(a, b)| i >= a && i <= b)
}

/// Token spans of `spawn(...)` and `spawn_scoped(...)` argument groups
/// inside `body`: the closure handed to `thread::spawn` /
/// `Builder::spawn` / `Builder::spawn_scoped` runs on a *different*
/// thread, so calls and lock acquisitions inside it must not be attributed
/// to the spawning fn (they would fabricate held-across edges and
/// reactor-reachability that cross a thread boundary).
pub fn spawn_arg_spans(toks: &[Token], body: (usize, usize)) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let (start, end) = body;
    let mut i = start;
    while i < end && i + 1 < toks.len() {
        if (toks[i].is_ident("spawn") || toks[i].is_ident("spawn_scoped"))
            && toks[i + 1].is_punct('(')
        {
            let close = matching(toks, i + 1, '(', ')');
            spans.push((i + 1, close));
            i = close + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// Parses an `impl` header starting at the `impl` token: returns the
/// target type, the trait (for `impl Trait for Type`), and the index of
/// the opening body brace. `None` when no body brace is found (e.g. a
/// macro fragment).
fn parse_impl_header(
    toks: &[Token],
    impl_idx: usize,
) -> Option<(Option<String>, Option<String>, usize)> {
    let mut i = impl_idx + 1;
    let mut angle = 0i32;
    let mut paren = 0i32;
    // Path segments seen since the last `for`, and whether a `for` occurred.
    let mut segments: Vec<String> = Vec::new();
    let mut before_for: Vec<String> = Vec::new();
    let mut saw_for = false;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
        } else if t.is_punct('{') && angle <= 0 && paren == 0 {
            let ty = segments.last().cloned();
            let tr = saw_for.then(|| before_for.last().cloned()).flatten();
            return Some((ty, tr, i));
        } else if t.is_punct(';') && angle <= 0 && paren == 0 {
            return None;
        } else if t.is_ident("for") && angle <= 0 && paren == 0 {
            saw_for = true;
            before_for = std::mem::take(&mut segments);
        } else if t.is_ident("where") && angle <= 0 && paren == 0 {
            // Type path is complete; keep scanning for the brace only.
        } else if t.kind == TokenKind::Ident && angle <= 0 && paren == 0 {
            segments.push(t.text.clone());
        }
        i += 1;
    }
    None
}

/// Finds the opening brace of a fn body: the first `{` at zero
/// paren/bracket depth and zero angle depth after the name (angle depth
/// tracks generics so `fn f<T: Trait<X>>() {` works); a `;` first means a
/// bodyless declaration.
fn body_open(toks: &[Token], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut i = from;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if t.is_punct('-') && toks.get(i + 1).is_some_and(|n| n.is_punct('>')) {
            // `->`: the `>` belongs to the arrow, not a generic list.
            i += 2;
            continue;
        } else if t.is_punct('{') && depth == 0 && angle == 0 {
            return Some(i);
        } else if t.is_punct(';') && depth == 0 && angle == 0 {
            return None;
        }
        i += 1;
    }
    None
}

/// Whether a fn's parameter list starts with a `self` receiver. The
/// receiver is always the first thing inside the parens (possibly behind
/// `&`, `&'a`, or `mut`), so only the first few tokens need checking.
fn sig_has_self_param(sig: &[Token]) -> bool {
    let Some(open) = sig.iter().position(|t| t.is_punct('(')) else {
        return false;
    };
    sig[open + 1..]
        .iter()
        .take(4)
        .take_while(|t| {
            t.is_punct('&')
                || t.is_ident("mut")
                || t.kind == TokenKind::Lifetime
                || t.is_ident("self")
        })
        .any(|t| t.is_ident("self"))
}

/// Whether a fn signature's return position names a lock-guard type.
fn sig_returns_guard(sig: &[Token]) -> bool {
    let mut i = 0usize;
    while i + 1 < sig.len() {
        if sig[i].is_punct('-') && sig[i + 1].is_punct('>') {
            return sig[i + 2..].iter().any(|t| {
                t.is_ident("MutexGuard")
                    || t.is_ident("RwLockReadGuard")
                    || t.is_ident("RwLockWriteGuard")
            });
        }
        i += 1;
    }
    false
}

/// Index of the closer matching the opener at `open` (or the last token).
fn matching(toks: &[Token], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0i32;
    for (k, tok) in toks.iter().enumerate().skip(open) {
        if tok.is_punct(open_c) {
            depth += 1;
        } else if tok.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Attaches each mark directive to the first fn declared on a line at or
/// after the mark (attributes and doc comments in between are fine).
fn attach_marks(file: &SourceFile, fns: &mut [FnItem]) {
    for mark in &file.marks {
        let target = fns
            .iter_mut()
            .filter(|f| f.line > mark.line)
            .min_by_key(|f| f.line);
        if let Some(f) = target {
            f.marks.push(mark.name.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{FileKind, SourceFile};

    fn parse(src: &str) -> Vec<FnItem> {
        let file =
            SourceFile::from_source("ptm-rpc", "crates/ptm-rpc/src/x.rs", FileKind::Src, src);
        parse_fns(0, &file)
    }

    #[test]
    fn free_fns_and_impl_methods_are_indexed() {
        let fns = parse(
            r#"
            fn free(a: u32) -> u32 { a + 1 }
            struct S;
            impl S {
                fn method(&self) { self.helper(); }
                fn helper(&self) {}
            }
            impl Drop for S {
                fn drop(&mut self) { cleanup(); }
            }
            "#,
        );
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["free", "method", "helper", "drop"]);
        assert_eq!(fns[0].self_type, None);
        assert_eq!(fns[1].self_type.as_deref(), Some("S"));
        assert_eq!(fns[1].trait_name, None);
        assert_eq!(fns[3].self_type.as_deref(), Some("S"));
        assert_eq!(fns[3].trait_name.as_deref(), Some("Drop"));
    }

    #[test]
    fn generic_signatures_and_where_clauses_find_the_right_body() {
        let fns = parse(
            "fn spawn<F>(workers: usize, run: F) -> io::Result<Self>\n\
             where F: Fn(J) -> C + Send + 'static,\n\
             { inner(run) }\n",
        );
        assert_eq!(fns.len(), 1);
        // The body must be `{ inner(run) }`, not a where-clause brace.
        let f = &fns[0];
        assert!(f.body.1 > f.body.0);
    }

    #[test]
    fn nested_fns_get_their_own_entry_and_spans_exclude_them() {
        let fns = parse(
            r#"
            fn outer() {
                fn inner() { deep_call(); }
                shallow_call();
            }
            "#,
        );
        assert_eq!(fns.len(), 2);
        let outer = fns.iter().find(|f| f.name == "outer").expect("outer");
        let spans = nested_spans(&fns, outer);
        assert_eq!(spans.len(), 1);
        let inner = fns.iter().find(|f| f.name == "inner").expect("inner");
        assert!(in_spans(&spans, inner.body.0 + 1));
    }

    #[test]
    fn marks_attach_to_the_next_fn() {
        let fns = parse(
            "// ptm-analyze: reactor-root\n\
             /// Doc line in between.\n\
             fn event_loop() {}\n\
             fn unmarked() {}\n",
        );
        assert!(fns[0].has_mark("reactor-root"));
        assert!(!fns[1].has_mark("reactor-root"));
    }

    #[test]
    fn guard_returning_signatures_are_detected() {
        let fns = parse(
            "fn lock_writer(w: &Mutex<Store>) -> MutexGuard<'_, Store> { w.lock().unwrap() }\n\
             fn plain() -> usize { 1 }\n",
        );
        assert!(fns[0].returns_guard);
        assert!(!fns[1].returns_guard);
    }

    #[test]
    fn trait_method_declarations_without_bodies_are_skipped() {
        let fns = parse("trait T { fn decl(&self); fn with_default(&self) { body(); } }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "with_default");
    }

    #[test]
    fn test_fns_carry_the_in_test_flag() {
        let fns = parse("#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\nfn prod() {}");
        let t = fns.iter().find(|f| f.name == "t").expect("t");
        assert!(t.in_test);
        let prod = fns.iter().find(|f| f.name == "prod").expect("prod");
        assert!(!prod.in_test);
    }
}
