//! A lightweight item parser over the token stream — just enough
//! structure for the call-graph rules.
//!
//! This is deliberately *not* a Rust grammar. It recovers, per file:
//!
//! * `fn` items with their owning `impl` type (when any), visibility,
//!   declaration line, and body token span;
//! * call expressions inside each body (free calls with their `::` path,
//!   and `.method()` calls by name);
//! * nondeterminism sinks (R1) and panic sites (R2) attributed to the
//!   innermost enclosing function;
//! * dispatches into the `snapea-tensor::par` pool, with a capture
//!   analysis of the closure argument (R3).
//!
//! Soundness caveats (documented in DESIGN.md §8): calls through trait
//! objects / fn pointers are invisible, macro *bodies* are opaque (only
//! the tokens the macro call itself spells out are seen), turbofish
//! calls (`f::<T>()`) are missed, and `match`-arm bindings are not
//! tracked as closure locals (a bound arm variable can look like a
//! capture; annotate such sites).

use crate::lexer::{lex, TokKind, Token};
use crate::rules::test_regions;

/// A call expression inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    /// Path segments as written (`["std", "time", "Instant", "now"]`,
    /// or just `["helper"]`). For method calls, the single method name.
    pub(crate) path: Vec<String>,
    /// True for `.name(...)` receiver calls.
    pub(crate) method: bool,
    /// 1-based line of the call.
    pub(crate) line: usize,
}

/// A nondeterminism source (R1 sink) inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct SinkSite {
    pub(crate) line: usize,
    /// Canonical label printed as the chain terminal
    /// (`std::time::Instant`, `std::env::var`, …).
    pub(crate) label: String,
}

/// A panic site (R2 source) inside a function body. Matches the P1
/// token set exactly, so a site P1 already audits stays audited here.
#[derive(Debug, Clone)]
pub(crate) struct PanicSite {
    pub(crate) line: usize,
    /// `.unwrap()`, `panic!`, … as written.
    pub(crate) label: String,
}

/// One capture-safety violation inside a dispatched closure.
#[derive(Debug, Clone)]
pub(crate) struct CaptureViolation {
    pub(crate) line: usize,
    /// Human label, e.g. ``captures `&mut totals` ``.
    pub(crate) label: String,
}

/// A call that hands a closure to the `snapea-tensor::par` pool.
#[derive(Debug, Clone)]
pub(crate) struct Dispatch {
    /// The pool entry point (`run_tasks`, `parallel_map`, …).
    pub(crate) callee: String,
    pub(crate) line: usize,
    pub(crate) violations: Vec<CaptureViolation>,
}

/// One `fn` item (free function or inherent/trait method with a body).
#[derive(Debug, Clone)]
pub(crate) struct FnItem {
    /// Bare function name.
    pub(crate) name: String,
    /// `impl` type name when the fn is a method.
    pub(crate) owner: Option<String>,
    /// True only for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub(crate) is_pub: bool,
    /// Inside a `#[cfg(test)]` / `#[test]` region.
    pub(crate) in_test: bool,
    pub(crate) calls: Vec<CallSite>,
    pub(crate) sinks: Vec<SinkSite>,
    pub(crate) panics: Vec<PanicSite>,
    pub(crate) dispatches: Vec<Dispatch>,
}

/// Everything the graph pass needs from one file.
#[derive(Debug)]
pub(crate) struct FileItems {
    pub(crate) fns: Vec<FnItem>,
}

/// The `snapea-tensor::par` entry points that take a closure and fan it
/// out across worker threads (the R3 dispatch set).
pub(crate) const PAR_DISPATCHERS: [&str; 4] = [
    "run_tasks",
    "parallel_map",
    "parallel_map_chunks",
    "map_item_blocks",
];

/// Collection-mutating method names the R3 capture pass treats as
/// writes when invoked on captured (non-local) state.
const MUTATOR_METHODS: [&str; 20] = [
    "push",
    "insert",
    "remove",
    "clear",
    "extend",
    "extend_from_slice",
    "truncate",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "swap",
    "resize",
    "fill",
    "drain",
    "retain",
    "append",
    "pop",
    "push_str",
    "copy_from_slice",
];

/// Keywords that look like `ident(` but are never calls.
const NON_CALL_KEYWORDS: [&str; 16] = [
    "if", "while", "for", "match", "return", "in", "as", "let", "else", "move", "loop", "unsafe",
    "ref", "box", "where", "fn",
];

/// Parses one file. Never fails: unparseable stretches simply contribute
/// no items (the lexer is total, and the scan is a linear pass).
pub(crate) fn parse_source(source: &str) -> FileItems {
    let tokens = lex(source);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.kind.is_comment()).collect();
    let test_ranges = test_regions(&code);
    let in_test = |idx: usize| test_ranges.iter().any(|&(lo, hi)| idx >= lo && idx <= hi);
    let impls = impl_spans(&code);

    let mut fns: Vec<FnItem> = Vec::new();
    // Stack of (brace_depth_at_open, index into fns) for nested fn items.
    let mut fn_stack: Vec<(usize, usize)> = Vec::new();
    // Pending fn header seen but body `{` not yet reached:
    // (fns index, token index of `fn`).
    let mut pending_fn: Option<usize> = None;
    let mut depth = 0usize;
    // Paren/bracket depth inside a pending fn signature, so the `;` of an
    // array type (`[f32; 4]`) is not mistaken for a bodiless declaration.
    let mut sig_depth = 0usize;

    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        match &t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') if pending_fn.is_some() => {
                sig_depth += 1;
            }
            TokKind::Punct(')') | TokKind::Punct(']') if pending_fn.is_some() => {
                sig_depth = sig_depth.saturating_sub(1);
            }
            TokKind::Punct('{') => {
                if sig_depth == 0 {
                    if let Some(fi) = pending_fn.take() {
                        fn_stack.push((depth, fi));
                    }
                }
                depth += 1;
            }
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if let Some(&(d, _)) = fn_stack.last() {
                    if depth == d {
                        fn_stack.pop();
                    }
                }
            }
            TokKind::Punct(';') if sig_depth == 0 => {
                // A bodiless trait declaration: discard the pending header.
                pending_fn = None;
            }
            TokKind::Ident(kw) if kw == "fn" => {
                if let Some(TokKind::Ident(name)) = code.get(i + 1).map(|t| &t.kind) {
                    let owner = impls
                        .iter()
                        .find(|s| i > s.start && i < s.end)
                        .map(|s| s.type_name.clone());
                    fns.push(FnItem {
                        name: name.clone(),
                        owner,
                        is_pub: is_pub_at(&code, i),
                        in_test: in_test(i),
                        calls: Vec::new(),
                        sinks: Vec::new(),
                        panics: Vec::new(),
                        dispatches: Vec::new(),
                    });
                    pending_fn = Some(fns.len() - 1);
                    sig_depth = 0;
                    i += 2;
                    continue;
                }
            }
            _ => {}
        }

        // Body-token classification, attributed to the innermost open fn.
        if let Some(&(_, fi)) = fn_stack.last() {
            if !fns[fi].in_test {
                classify_token(&code, i, &mut fns[fi]);
            }
        }
        i += 1;
    }

    FileItems { fns }
}

/// An `impl` block's token span and the implemented type's name.
struct ImplSpan {
    start: usize,
    end: usize,
    type_name: String,
}

/// Finds every `impl` block: `impl [<…>] [Trait for] Type [where …] { … }`.
fn impl_spans(code: &[&Token]) -> Vec<ImplSpan> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].kind.ident() == Some("impl") {
            // Header runs up to the opening brace (or a `;` for the rare
            // bodiless form, which we skip).
            let mut j = i + 1;
            let mut saw_for: Option<usize> = None;
            let mut first_ident: Option<usize> = None;
            let mut adepth = 0usize;
            while j < code.len() {
                match &code[j].kind {
                    TokKind::Punct('<') => adepth += 1,
                    TokKind::Punct('>') => adepth = adepth.saturating_sub(1),
                    TokKind::Punct('{') if adepth == 0 => break,
                    TokKind::Punct(';') if adepth == 0 => break,
                    TokKind::Ident(id) if adepth == 0 => {
                        if id == "for" {
                            saw_for = Some(j);
                            first_ident = None; // type follows `for`
                        } else if id == "where" {
                            break;
                        } else if first_ident.is_none() && id != "dyn" {
                            first_ident = Some(j);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let _ = saw_for;
            if j < code.len() && code[j].kind == TokKind::Punct('{') {
                let end = matching_brace(code, j);
                if let Some(ti) = first_ident {
                    if let Some(name) = code[ti].kind.ident() {
                        spans.push(ImplSpan {
                            start: j,
                            end,
                            type_name: name.to_string(),
                        });
                    }
                }
                // Do not skip to `end`: nested impls don't occur, but the
                // fn scan needs every token anyway; just move past `impl`.
            }
            i = j.saturating_add(1);
            continue;
        }
        i += 1;
    }
    spans
}

/// Token index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in code.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    code.len().saturating_sub(1)
}

/// Whether the `fn` at token index `fn_idx` is unrestricted-`pub`.
/// Walks back over qualifiers (`const`, `unsafe`, `extern "C"`) and a
/// `pub(...)` restriction group.
fn is_pub_at(code: &[&Token], fn_idx: usize) -> bool {
    let mut j = fn_idx;
    while j > 0 {
        j -= 1;
        match &code[j].kind {
            TokKind::Ident(q) if matches!(q.as_str(), "const" | "unsafe" | "async" | "extern") => {}
            TokKind::Str => {} // extern "C" ABI string
            TokKind::Punct(')') => {
                // A `pub(crate)`/`pub(super)` restriction: rewind to `(`.
                let mut depth = 1usize;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match code[j].kind {
                        TokKind::Punct(')') => depth += 1,
                        TokKind::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
                // `pub(...)` is restricted visibility: not public API.
                return false;
            }
            TokKind::Ident(q) if q == "pub" => return true,
            _ => return false,
        }
    }
    false
}

/// Classifies the token at `i` as a call / sink / panic / dispatch for
/// the enclosing fn. Mirrors the P1 token predicate for panic sites.
fn classify_token(code: &[&Token], i: usize, item: &mut FnItem) {
    let t = code[i];
    let line = t.line;
    let id = match t.kind.ident() {
        Some(s) => s,
        None => return,
    };
    let next_is =
        |p: char| matches!(code.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct(c)) if *c == p);
    let prev_is = |p: char| i >= 1 && code[i - 1].kind == TokKind::Punct(p);

    // Panic sites — same token set as the per-file P1 rule.
    if matches!(id, "panic" | "todo" | "unimplemented" | "unreachable") && next_is('!') {
        item.panics.push(PanicSite {
            line,
            label: format!("{id}!"),
        });
        return;
    }
    if (id == "unwrap" || id == "expect")
        && prev_is('.')
        && next_is('(')
        && (id == "expect" || matches!(code.get(i + 2).map(|t| &t.kind), Some(TokKind::Punct(')'))))
    {
        item.panics.push(PanicSite {
            line,
            label: format!(".{id}()"),
        });
        return;
    }

    // Identifier-shaped nondeterminism sinks.
    match id {
        "Instant" | "SystemTime" => {
            item.sinks.push(SinkSite {
                line,
                label: format!("std::time::{id}"),
            });
            return;
        }
        "thread_rng" | "from_entropy" | "OsRng" => {
            item.sinks.push(SinkSite {
                line,
                label: format!("ambient RNG ({id})"),
            });
            return;
        }
        "HashMap" | "HashSet" => {
            item.sinks.push(SinkSite {
                line,
                label: format!("hash-order iteration ({id})"),
            });
            return;
        }
        "ThreadId" => {
            item.sinks.push(SinkSite {
                line,
                label: "std::thread::ThreadId".to_string(),
            });
            return;
        }
        _ => {}
    }

    // Call expressions: `ident(` not preceded by `.` (method calls are
    // recorded separately) and not a keyword; macros are `ident!(`, which
    // the `next_is('(')` check already excludes.
    if next_is('(') && !NON_CALL_KEYWORDS.contains(&id) {
        if prev_is('.') {
            record_call(code, i, vec![id.to_string()], true, line, item);
        } else {
            let path = path_of(code, i);
            record_call(code, i, path, false, line, item);
        }
    }
}

/// Records a resolved call site, classifying env/thread sinks and pool
/// dispatches along the way.
fn record_call(
    code: &[&Token],
    i: usize,
    path: Vec<String>,
    method: bool,
    line: usize,
    item: &mut FnItem,
) {
    let last = path.last().map(String::as_str).unwrap_or("");
    let penult = path
        .len()
        .checked_sub(2)
        .and_then(|k| path.get(k))
        .map(String::as_str);

    // `env::var`-family and `thread::current` are path-shaped sinks.
    if penult == Some("env") && matches!(last, "var" | "var_os" | "vars") {
        item.sinks.push(SinkSite {
            line,
            label: format!("std::env::{last}"),
        });
        return;
    }
    if penult == Some("thread") && last == "current" {
        item.sinks.push(SinkSite {
            line,
            label: "std::thread::current".to_string(),
        });
        return;
    }

    if PAR_DISPATCHERS.contains(&last) {
        let violations = closure_captures(code, i);
        item.dispatches.push(Dispatch {
            callee: last.to_string(),
            line,
            violations,
        });
        // Fall through: the dispatch is also a call edge, so chains may
        // continue *through* the pool entry point.
    }

    item.calls.push(CallSite { path, method, line });
}

/// Reconstructs the `::`-separated path ending at the ident at `i`
/// (`std :: time :: Instant :: now` → all four segments). The lexer emits
/// `::` as two `:` puncts.
fn path_of(code: &[&Token], i: usize) -> Vec<String> {
    let mut segs = vec![code[i].kind.ident().unwrap_or_default().to_string()];
    let mut j = i;
    while j >= 3
        && code[j - 1].kind == TokKind::Punct(':')
        && code[j - 2].kind == TokKind::Punct(':')
    {
        match code[j - 3].kind.ident() {
            Some(seg) => {
                segs.insert(0, seg.to_string());
                j -= 3;
            }
            None => break,
        }
    }
    segs
}

/// Analyzes the closure argument of the pool-dispatch call whose callee
/// ident sits at `call_idx`. Returns the capture violations found.
fn closure_captures(code: &[&Token], call_idx: usize) -> Vec<CaptureViolation> {
    let mut out = Vec::new();
    // The call's argument list: `(` after the callee ident.
    let open = call_idx + 1;
    if !matches!(code.get(open).map(|t| &t.kind), Some(TokKind::Punct('('))) {
        return out;
    }
    let close = matching_paren(code, open);

    // Find the closure head `|` at paren-depth 1 (possibly after `move`).
    let mut j = open + 1;
    let mut depth = 1usize;
    let mut bar: Option<usize> = None;
    while j < close {
        match code[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth = depth.saturating_sub(1)
            }
            TokKind::Punct('|') if depth == 1 => {
                bar = Some(j);
                break;
            }
            _ => {}
        }
        j += 1;
    }
    let Some(bar) = bar else { return out };

    // Params: tokens between the two `|` bars. Pattern idents bind; type
    // ascriptions (`: T`) are skipped until the next `,` at depth 0.
    let mut locals: Vec<String> = vec!["self".to_string()];
    let mut j = bar + 1;
    let mut depth = 0usize;
    let mut in_type = false;
    let mut params_end = bar; // `||` (no params) leaves it at the head bar
    while j < close {
        match &code[j].kind {
            TokKind::Punct('|') if depth == 0 => {
                params_end = j;
                break;
            }
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => {
                depth = depth.saturating_sub(1)
            }
            TokKind::Punct(':') if depth == 0 => in_type = true,
            TokKind::Punct(',') if depth == 0 => in_type = false,
            TokKind::Ident(id) if !in_type && !matches!(id.as_str(), "mut" | "ref" | "_") => {
                locals.push(id.clone());
            }
            _ => {}
        }
        j += 1;
    }

    // Body span: a `{ … }` block, or an expression running to the call's
    // closing paren.
    let (body_lo, body_hi) = match code.get(params_end + 1).map(|t| &t.kind) {
        Some(TokKind::Punct('{')) => {
            let end = matching_brace(code, params_end + 1);
            (params_end + 2, end)
        }
        _ => (params_end + 1, close),
    };

    // First sweep: collect `let` / `for … in` / nested-closure bindings
    // as locals (flow-insensitive: a later binding whitelists an earlier
    // use, which under-reports; acceptable for a lint).
    let mut k = body_lo;
    while k < body_hi {
        match code[k].kind.ident() {
            Some("let") => {
                // Collect pattern idents until `:` or `=` at depth 0.
                let mut d = 0usize;
                let mut m = k + 1;
                while m < body_hi {
                    match &code[m].kind {
                        TokKind::Punct('(') | TokKind::Punct('[') => d += 1,
                        TokKind::Punct(')') | TokKind::Punct(']') => d = d.saturating_sub(1),
                        TokKind::Punct(':') | TokKind::Punct('=') if d == 0 => break,
                        TokKind::Ident(id)
                            if !matches!(id.as_str(), "mut" | "ref" | "_")
                                && id
                                    .chars()
                                    .next()
                                    .is_some_and(|c| c.is_lowercase() || c == '_') =>
                        {
                            locals.push(id.clone());
                        }
                        _ => {}
                    }
                    m += 1;
                }
                k = m;
                continue;
            }
            Some("for") => {
                // `for <pat> in …`: idents before `in` bind.
                let mut m = k + 1;
                while m < body_hi {
                    match code[m].kind.ident() {
                        Some("in") => break,
                        Some(id) if !matches!(id, "mut" | "ref" | "_") => {
                            locals.push(id.to_string());
                        }
                        _ => {}
                    }
                    m += 1;
                }
                k = m;
                continue;
            }
            _ => {}
        }
        // Nested closure params also bind.
        if code[k].kind == TokKind::Punct('|') {
            let mut m = k + 1;
            let mut d = 0usize;
            while m < body_hi {
                match &code[m].kind {
                    TokKind::Punct('|') if d == 0 => break,
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('<') => d += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('>') => {
                        d = d.saturating_sub(1)
                    }
                    TokKind::Ident(id) if !matches!(id.as_str(), "mut" | "ref" | "_") => {
                        locals.push(id.clone())
                    }
                    _ => {}
                }
                m += 1;
            }
            k = m + 1;
            continue;
        }
        k += 1;
    }

    let is_local = |name: &str| locals.iter().any(|l| l == name);
    let is_var = |name: &str| {
        name.chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
    };

    // Second sweep: the three violation shapes.
    let mut k = body_lo;
    while k < body_hi {
        // (1) `&mut <ident>` on a non-local: a mutable capture of outer
        // state — aliased across workers once the closure is cloned/shared.
        if code[k].kind == TokKind::Punct('&')
            && code.get(k + 1).and_then(|t| t.kind.ident()) == Some("mut")
        {
            if let Some(name) = code.get(k + 2).and_then(|t| t.kind.ident()) {
                if is_var(name) && !is_local(name) {
                    out.push(CaptureViolation {
                        line: code[k].line,
                        label: format!("captures `&mut {name}`"),
                    });
                }
            }
        }

        // (2) Assignment whose place expression is rooted at a non-local.
        if code[k].kind == TokKind::Punct('=') {
            let next = code.get(k + 1).map(|t| &t.kind);
            let prev = if k > 0 { Some(&code[k - 1].kind) } else { None };
            let next_eq_or_gt =
                matches!(next, Some(TokKind::Punct('=')) | Some(TokKind::Punct('>')));
            let prev_cmp = matches!(
                prev,
                Some(TokKind::Punct('='))
                    | Some(TokKind::Punct('<'))
                    | Some(TokKind::Punct('>'))
                    | Some(TokKind::Punct('!'))
                    | Some(TokKind::Punct('.'))
            );
            let compound = matches!(
                prev,
                Some(TokKind::Punct('+'))
                    | Some(TokKind::Punct('-'))
                    | Some(TokKind::Punct('*'))
                    | Some(TokKind::Punct('/'))
                    | Some(TokKind::Punct('%'))
                    | Some(TokKind::Punct('&'))
                    | Some(TokKind::Punct('|'))
                    | Some(TokKind::Punct('^'))
            );
            if !next_eq_or_gt && !prev_cmp {
                let start = if compound { k - 1 } else { k };
                if let Some((base, bound)) = place_base(code, start, body_lo) {
                    if !bound && is_var(&base) && !is_local(&base) {
                        out.push(CaptureViolation {
                            line: code[k].line,
                            label: format!("assigns to captured `{base}`"),
                        });
                    }
                }
            }
        }

        // (3) A collection-mutating method on a non-local receiver.
        if let Some(m) = code[k].kind.ident() {
            if MUTATOR_METHODS.contains(&m)
                && k >= 1
                && code[k - 1].kind == TokKind::Punct('.')
                && matches!(code.get(k + 1).map(|t| &t.kind), Some(TokKind::Punct('(')))
            {
                if let Some((base, _)) = receiver_base(code, k - 1, body_lo) {
                    if is_var(&base) && !is_local(&base) {
                        out.push(CaptureViolation {
                            line: code[k].line,
                            label: format!("mutates captured `{base}` (.{m}())"),
                        });
                    }
                }
            }
        }
        k += 1;
    }

    out
}

/// Walks back from the token *before* the `=` at `eq_idx` to the root
/// identifier of the place expression (`totals[i].count = …` → `totals`).
/// Returns `(base, is_let_binding)`; `None` for shapes we don't model.
fn place_base(code: &[&Token], eq_idx: usize, lo: usize) -> Option<(String, bool)> {
    let mut j = eq_idx.checked_sub(1)?;
    loop {
        match &code[j].kind {
            TokKind::Punct(']') => {
                // Rewind over the index group.
                let mut depth = 1usize;
                while j > lo && depth > 0 {
                    j -= 1;
                    match code[j].kind {
                        TokKind::Punct(']') => depth += 1,
                        TokKind::Punct('[') => depth -= 1,
                        _ => {}
                    }
                }
                if j <= lo {
                    return None;
                }
                j -= 1;
            }
            TokKind::Punct(')') => return None, // call result: not a capture write
            TokKind::Ident(id) => {
                let id = id.clone();
                if j > lo && code[j - 1].kind == TokKind::Punct('.') {
                    // field/receiver chain: keep walking left
                    if j - 1 <= lo {
                        return None;
                    }
                    j -= 2;
                    continue;
                }
                if j > lo && code[j - 1].kind == TokKind::Punct(':') {
                    return None; // path-qualified place (`Self::X`): skip
                }
                let bound = j > lo && matches!(code[j - 1].kind.ident(), Some("let") | Some("mut"));
                return Some((id, bound));
            }
            TokKind::Punct('*') => {
                if j <= lo {
                    return None;
                }
                j -= 1;
            }
            _ => return None,
        }
        if j < lo {
            return None;
        }
    }
}

/// Walks back from the `.` before a method name to the receiver's root
/// identifier (`out[i].push(x)` → `out`).
fn receiver_base(code: &[&Token], dot_idx: usize, lo: usize) -> Option<(String, bool)> {
    place_base(code, dot_idx, lo)
}

/// Token index of the `)` matching the `(` at `open`.
fn matching_paren(code: &[&Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in code.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    code.len().saturating_sub(1)
}
