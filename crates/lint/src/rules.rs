//! The lint rules and the per-file analysis engine.
//!
//! Every rule guards an invariant the reproduction's correctness claims
//! rest on (see DESIGN.md §8 for the full table):
//!
//! * **D1** `hash-collections` — no `HashMap`/`HashSet` in result-affecting
//!   crates (`tensor`, `core`, `accel`, `nn`). Hash iteration order is
//!   nondeterministic per process; if it leaks into float accumulation
//!   order it silently breaks the 1-vs-N-thread bit-identity contract.
//! * **D2** `wall-clock` — no `Instant`/`SystemTime`/ambient-RNG use
//!   outside `obs` and `bench`. Result-affecting code must be a pure
//!   function of its inputs and the seed.
//! * **P1** `panic-path` — no `unwrap`/`expect`/`panic!`/`todo!`/
//!   `unimplemented!`/`unreachable!` in library code. A panic inside a
//!   worker tears down the pool mid-merge; error paths must propagate.
//! * **P2** `hot-index` — no slice indexing inside loops in the designated
//!   hot kernel files (each index is a bounds-check branch and a panic
//!   path in the innermost MAC loops).
//! * **N1** `narrow-cast` — no bare `as` casts to narrow integer types in
//!   kernel/simulator arithmetic; `as` silently wraps, which is exactly
//!   how quantisation and cycle-count bugs slip in. Use the checked or
//!   saturating helpers in `snapea_tensor::num`.
//! * **S1** `forbid-unsafe` — every crate root carries
//!   `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]` where an audited
//!   exception exists, e.g. the tensor crate's persistent-pool core), and
//!   every `unsafe` token outside tests needs a reasoned
//!   `// lint:allow(S1) <soundness argument>`.
//! * **A1** `allow-grammar` — every `// lint:allow(<rule>) <reason>`
//!   annotation must name a known rule, carry a non-empty reason, and
//!   actually suppress something.
//!
//! Suppression grammar: a finding on line *L* is allowed by a comment
//! `// lint:allow(<RULE>) <reason>` on the line(s) immediately above *L*.
//! When the annotated line opens a `fn` item, the allow covers the whole
//! function body — hot kernels annotate once per function, not per index.

use crate::lexer::{lex, TokKind, Token};

/// Rule identifiers. `A1` is the meta-rule for malformed annotations;
/// `R1`–`R3` are the call-graph (transitive) rules, only run by the
/// workspace-level graph pass (`--graph`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Hash collections in result-affecting crates.
    D1,
    /// Wall-clock / ambient RNG outside obs and bench.
    D2,
    /// Panic paths in library code.
    P1,
    /// Slice indexing in hot kernel loops.
    P2,
    /// Bare narrowing `as` casts in kernel/simulator arithmetic.
    N1,
    /// Missing `#![forbid/deny(unsafe_code)]` on a crate root, or an
    /// `unsafe` token without a reasoned justification.
    S1,
    /// Malformed, unknown, or unused `lint:allow` annotation.
    A1,
    /// Result-path function transitively reaches a nondeterminism source.
    R1,
    /// Public library API transitively reaches a panic site.
    R2,
    /// Closure dispatched into the `snapea-tensor::par` pool captures or
    /// mutates aliased outer state.
    R3,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 10] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::P1,
        RuleId::P2,
        RuleId::N1,
        RuleId::S1,
        RuleId::A1,
        RuleId::R1,
        RuleId::R2,
        RuleId::R3,
    ];

    /// The short id used in reports and `lint:allow(...)` annotations.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::P1 => "P1",
            RuleId::P2 => "P2",
            RuleId::N1 => "N1",
            RuleId::S1 => "S1",
            RuleId::A1 => "A1",
            RuleId::R1 => "R1",
            RuleId::R2 => "R2",
            RuleId::R3 => "R3",
        }
    }

    /// Parses a rule id as written in an annotation or `--rule` filter.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.as_str() == s)
    }

    /// True for the transitive call-graph rules, which only run under the
    /// workspace graph pass (`LintOptions::graph` / `lint --graph`).
    pub fn is_graph(self) -> bool {
        matches!(self, RuleId::R1 | RuleId::R2 | RuleId::R3)
    }

    /// Human name of the rule.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::D1 => "hash-collections",
            RuleId::D2 => "wall-clock",
            RuleId::P1 => "panic-path",
            RuleId::P2 => "hot-index",
            RuleId::N1 => "narrow-cast",
            RuleId::S1 => "forbid-unsafe",
            RuleId::A1 => "allow-grammar",
            RuleId::R1 => "determinism-reachability",
            RuleId::R2 => "panic-reachability",
            RuleId::R3 => "parallel-capture",
        }
    }

    /// One-line fix hint attached to findings.
    pub fn hint(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "hash iteration order is nondeterministic and leaks into accumulation \
                 order; use BTreeMap/BTreeSet or a sorted Vec"
            }
            RuleId::D2 => {
                "result-affecting code must be a pure function of inputs and seed; route \
                 timing through snapea-obs (Stopwatch/now_ms) and RNG through a seeded \
                 generator"
            }
            RuleId::P1 => {
                "library code must propagate errors, not panic; return Result, restructure, \
                 or justify with `// lint:allow(P1) <reason>` on the line above"
            }
            RuleId::P2 => {
                "indexing in a hot kernel loop is a bounds-check branch and a panic path; \
                 use iterators/zip, or annotate the enclosing fn with \
                 `// lint:allow(P2) <reason>` stating why every index is in range"
            }
            RuleId::N1 => {
                "a bare `as` cast to a narrow integer silently wraps; use the checked/\
                 saturating helpers in snapea_tensor::num or justify with \
                 `// lint:allow(N1) <reason>`"
            }
            RuleId::S1 => {
                "crate roots must carry `#![forbid(unsafe_code)]` (or `#![deny(unsafe_code)]` \
                 for a crate with an audited exception), and every `unsafe` site needs \
                 `// lint:allow(S1) <soundness argument>` on the line above (or above its fn)"
            }
            RuleId::A1 => {
                "every `// lint:allow(<rule>) <reason>` must name a known rule, give a \
                 non-empty reason, and suppress at least one finding"
            }
            RuleId::R1 => {
                "a result-path function (executor walks, kernels, oracle references, \
                 artifact load) transitively reaches a nondeterminism source; break the \
                 chain, or justify the sanctioned site with `// lint:allow(R1) <reason>` \
                 at any link"
            }
            RuleId::R2 => {
                "a public library API transitively reaches an unaudited panic site; \
                 propagate the error, audit the sink with `// lint:allow(P1) <reason>`, \
                 or justify a link with `// lint:allow(R2) <reason>`"
            }
            RuleId::R3 => {
                "a closure dispatched into the snapea-tensor::par pool captures &mut \
                 state or mutates a captured binding; pass per-task data as task items \
                 (disjoint &mut slabs via chunks_mut) or justify with \
                 `// lint:allow(R3) <reason>`"
            }
        }
    }

    /// Long-form documentation for `snapea-tool lint --explain <rule>`: the
    /// invariant, the scope, and what a fix looks like.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "D1 hash-collections — scope: result-affecting crates (tensor, core, \
                 accel, nn, oracle).\n\
                 HashMap/HashSet iteration order varies per process (SipHash keys are \
                 randomized), so any float accumulation or output ordering derived from \
                 it silently breaks the bit-identity contracts. Use BTreeMap/BTreeSet \
                 or a sorted Vec; a membership-only set that is provably never iterated \
                 into results may carry `// lint:allow(D1) <reason>`."
            }
            RuleId::D2 => {
                "D2 wall-clock — scope: everywhere except the obs and bench crates.\n\
                 Instant/SystemTime/ambient RNG (thread_rng, from_entropy, OsRng) make \
                 result-affecting code a function of more than its inputs and seed. \
                 Route timing through snapea_obs::Stopwatch/spans and randomness \
                 through seeded generators."
            }
            RuleId::P1 => {
                "P1 panic-path — scope: library (non-test, non-bin) code.\n\
                 unwrap/expect/panic!/todo!/unimplemented!/unreachable! tear down a \
                 pool worker mid-merge. Return Result, restructure, or annotate the \
                 invariant with `// lint:allow(P1) <reason>` — the reason is the audit \
                 trail arguing the panic is unreachable."
            }
            RuleId::P2 => {
                "P2 hot-index — scope: the designated hot kernel files.\n\
                 Each slice index inside a loop is a bounds-check branch and a panic \
                 path in the innermost MAC loops. Use iterators/zip, or annotate the \
                 enclosing fn stating why every index is in range."
            }
            RuleId::N1 => {
                "N1 narrow-cast — scope: the hot kernel files.\n\
                 A bare `as` cast to i8/u8/i16/u16/i32/u32 silently wraps; use the \
                 checked/saturating helpers in snapea_tensor::num."
            }
            RuleId::S1 => {
                "S1 forbid-unsafe — scope: every crate root and every unsafe token.\n\
                 Crate roots carry #![forbid(unsafe_code)] (or #![deny(unsafe_code)] \
                 for the audited tensor pool core), and each unsafe token outside \
                 tests needs `// lint:allow(S1) <soundness argument>`."
            }
            RuleId::A1 => {
                "A1 allow-grammar — scope: all `lint:allow` annotations.\n\
                 Every suppression must name a known rule, carry a non-empty reason, \
                 and actually suppress a finding. Graph-rule allows (R1/R2/R3) are \
                 usage-checked only when the graph pass runs, since only it can \
                 observe the chains they suppress."
            }
            RuleId::R1 => {
                "R1 determinism-reachability — scope: functions defined in the \
                 result-path files (executor walks, kernels, oracle references, \
                 artifact load), analyzed over the whole workspace call graph.\n\
                 A result-path function must not transitively reach a nondeterminism \
                 source: wall-clock constructors, ambient RNG, hash-order iteration, \
                 std::env reads, or thread-identity reads. Calls into the obs and \
                 bench crates do not propagate (the sanctioned observability \
                 boundary: timing flows into events, never back into results). The \
                 finding prints the evidence chain, e.g.\n\
                 \x20   execute_conv() \u{2192} run_tasks() \u{2192} threads() \u{2192} std::env::var\n\
                 and a reasoned `// lint:allow(R1) <reason>` at any link (typically \
                 the sanctioned config-read site) suppresses every chain through it."
            }
            RuleId::R2 => {
                "R2 panic-reachability — scope: public functions in library code, \
                 analyzed over the whole workspace call graph.\n\
                 Where P1 flags a panic token at its site, R2 proves the negative \
                 transitively: no public API may reach a panic site that lacks a \
                 reasoned audit. A panic site under a valid `lint:allow(P1)` is \
                 audited (its reason argues unreachability) and terminates the \
                 search; an unaudited site yields one finding carrying the complete \
                 shortest call chain from the nearest public API, with file:line \
                 spans for every edge. `// lint:allow(R2) <reason>` at any chain \
                 link also suppresses."
            }
            RuleId::R3 => {
                "R3 parallel-capture — scope: closure arguments at every \
                 snapea_tensor::par dispatch site (run_tasks, parallel_map, \
                 parallel_map_chunks, map_item_blocks), workspace-wide.\n\
                 The pool's bit-identity contract requires tasks to write only \
                 per-task state: a dispatched closure must not capture `&mut` \
                 aliased outer state, assign to captured bindings, or call mutating \
                 methods on captured collections. Per-task outputs belong in the \
                 task items themselves (disjoint &mut slabs via chunks_mut). This is \
                 the static shadow of the contract the determinism suite checks \
                 dynamically."
            }
        }
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One edge of a call-graph evidence chain: `from` calls (or contains)
/// `to`, at `file:line`. The final link's `to` is the sink itself (a
/// nondeterminism source, panic token, or capture violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// Qualified caller, `<crate>::[<Type>::]<fn>`.
    pub from: String,
    /// Qualified callee, or the sink label for the terminal link.
    pub to: String,
    /// Workspace-relative file of the call (or sink) site.
    pub file: String,
    /// 1-based line of the call (or sink) site.
    pub line: usize,
}

impl ChainLink {
    /// Renders the link as a JSON object.
    pub fn to_json_string(&self) -> String {
        format!(
            "{{\"from\":{},\"to\":{},\"file\":{},\"line\":{}}}",
            json_str(&self.from),
            json_str(&self.to),
            json_str(&self.file),
            self.line
        )
    }
}

/// One lint finding. This is the machine-readable unit the CLI's `--json`
/// mode emits and round-trips.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token (or annotation, for A1).
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// [`RuleId::hint`] for the rule, carried so JSON consumers need no
    /// rule table.
    pub hint: String,
    /// Evidence chain for graph-rule findings (root → … → sink), with the
    /// call-site span of every edge. Empty for the per-file rules.
    pub chain: Vec<ChainLink>,
}

impl Finding {
    /// Renders the finding as a single JSON object (hand-rolled: this crate
    /// is std-only by design).
    pub fn to_json_string(&self) -> String {
        let chain: Vec<String> = self.chain.iter().map(ChainLink::to_json_string).collect();
        format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"excerpt\":{},\"hint\":{},\"chain\":[{}]}}",
            json_str(self.rule.as_str()),
            json_str(&self.file),
            self.line,
            json_str(&self.excerpt),
            json_str(&self.hint),
            chain.join(",")
        )
    }

    /// The one-line evidence form, `root() → callee() → sink` (short fn
    /// names; the terminal sink label is printed verbatim).
    pub fn chain_summary(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (i, link) in self.chain.iter().enumerate() {
            if i == 0 {
                parts.push(format!("{}()", short_name(&link.from)));
            }
            if i + 1 == self.chain.len() {
                parts.push(link.to.clone());
            } else {
                parts.push(format!("{}()", short_name(&link.to)));
            }
        }
        parts.join(" \u{2192} ")
    }

    /// Renders the human-readable report form: the two-line site + hint,
    /// plus — for graph findings — the evidence chain with a file:line
    /// span per edge.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{}:{} [{}/{}] {}",
            self.file,
            self.line,
            self.rule,
            self.rule.name(),
            self.excerpt
        );
        if !self.chain.is_empty() {
            out.push_str(&format!("\n    chain: {}", self.chain_summary()));
            for link in &self.chain {
                out.push_str(&format!(
                    "\n      {}:{} {} \u{2192} {}",
                    link.file, link.line, link.from, link.to
                ));
            }
        }
        out.push_str(&format!("\n    hint: {}", self.hint));
        out
    }
}

/// The last `::` segment of a qualified name.
fn short_name(qualified: &str) -> &str {
    qualified.rsplit("::").next().unwrap_or(qualified)
}

/// Minimal JSON string escaping (the only JSON this crate emits).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What kind of source a file is; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/**` except `src/bin/`): all rules.
    Lib,
    /// Binary targets (`src/bin/**`): determinism rules only — a CLI may
    /// print and exit on bad input, but it must not read clocks or hash
    /// order into anything result-affecting.
    Bin,
}

/// Per-file lint context: where the file sits in the workspace.
#[derive(Debug, Clone)]
pub struct FileCtx<'a> {
    /// Workspace-relative path, used in findings.
    pub path: &'a str,
    /// The crate directory name (`tensor`, `core`, `obs`, …; the facade
    /// crate at the workspace root is `suite`).
    pub crate_name: &'a str,
    /// Library or binary source.
    pub kind: FileKind,
    /// Whether this file is a crate root (`lib.rs`), which S1 checks.
    pub is_crate_root: bool,
}

/// Crates whose outputs feed results; D1 applies here.
const RESULT_CRATES: [&str; 5] = ["tensor", "core", "accel", "nn", "oracle"];

/// Crates exempt from D2: observability owns the wall clock, the bench
/// harness times things by definition.
const TIME_CRATES: [&str; 2] = ["obs", "bench"];

/// Hot kernel/simulator files: P2 and N1 apply here. Paths are matched by
/// suffix against the workspace-relative path.
const HOT_FILES: [&str; 7] = [
    "crates/tensor/src/matrix.rs",
    "crates/tensor/src/q16.rs",
    "crates/tensor/src/im2col.rs",
    "crates/core/src/exec.rs",
    "crates/core/src/pau.rs",
    "crates/accel/src/sim.rs",
    "crates/accel/src/engine.rs",
];

/// Identifiers that never form the base of an index expression even though
/// they precede `[` (e.g. `&mut [f32]`).
const NON_INDEX_KEYWORDS: [&str; 24] = [
    "mut", "ref", "dyn", "as", "in", "return", "if", "else", "match", "move", "where", "impl",
    "fn", "let", "pub", "use", "crate", "super", "static", "const", "break", "continue", "type",
    "box",
];

const NARROW_INTS: [&str; 6] = ["i8", "u8", "i16", "u16", "i32", "u32"];

/// A parsed `// lint:allow(<rule>) <reason>` annotation.
#[derive(Debug)]
pub(crate) struct Allow {
    /// Line of the comment itself.
    pub(crate) comment_line: usize,
    /// The rule text inside the parens (may be unknown — A1 reports it).
    pub(crate) rule_text: String,
    /// Parsed rule, when known.
    pub(crate) rule: Option<RuleId>,
    /// Free-text justification after the closing paren.
    pub(crate) reason: String,
    /// Inclusive line range the allow covers (one line, or a fn body).
    pub(crate) scope: (usize, usize),
    /// Whether any finding was suppressed by this allow.
    pub(crate) used: bool,
}

impl Allow {
    /// True when the allow is well-formed for `rule` and its scope covers
    /// `line` — the condition under which it may suppress a finding.
    pub(crate) fn covers(&self, rule: RuleId, line: usize) -> bool {
        self.rule == Some(rule)
            && !self.reason.is_empty()
            && line >= self.scope.0
            && line <= self.scope.1
    }
}

/// The per-file analysis state: raw (pre-suppression) findings from the
/// file rules plus the collected allow annotations. The workspace engine
/// holds one per file so the graph pass can consume allows before the A1
/// hygiene pass runs.
#[derive(Debug)]
pub(crate) struct FileAnalysis {
    pub(crate) path: String,
    pub(crate) lines: Vec<String>,
    pub(crate) raw: Vec<Finding>,
    pub(crate) allows: Vec<Allow>,
}

impl FileAnalysis {
    /// The trimmed source line at 1-based `line`.
    pub(crate) fn excerpt(&self, line: usize) -> String {
        self.lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Applies the allows to the raw file-rule findings: a valid, reasoned
    /// allow for the matching rule and line suppresses the finding (and is
    /// marked used); invalid allows suppress nothing.
    pub(crate) fn apply_allows(&mut self) -> Vec<Finding> {
        let mut findings = Vec::new();
        for f in std::mem::take(&mut self.raw) {
            match self.allows.iter_mut().find(|a| a.covers(f.rule, f.line)) {
                Some(a) => a.used = true,
                None => findings.push(f),
            }
        }
        findings
    }

    /// The A1 hygiene pass: malformed allows always fire; unused allows
    /// fire except graph-rule allows when the graph pass did not run
    /// (`check_unused_graph == false`) — only the graph pass can observe
    /// the chains those suppress.
    pub(crate) fn a1_findings(&self, check_unused_graph: bool) -> Vec<Finding> {
        let mut findings = Vec::new();
        for a in &self.allows {
            let problem = if a.rule.is_none() {
                Some(format!("unknown rule {:?} in lint:allow", a.rule_text))
            } else if a.reason.is_empty() {
                Some("lint:allow without a reason".to_string())
            } else if !a.used && (check_unused_graph || !a.rule.is_some_and(RuleId::is_graph)) {
                Some("lint:allow suppresses no finding".to_string())
            } else {
                None
            };
            if let Some(p) = problem {
                findings.push(Finding {
                    rule: RuleId::A1,
                    file: self.path.clone(),
                    line: a.comment_line,
                    excerpt: format!("{} ({})", self.excerpt(a.comment_line), p),
                    hint: RuleId::A1.hint().to_string(),
                    chain: Vec::new(),
                });
            }
        }
        findings
    }
}

/// Lints one file. `source` is the full file text; findings come back in
/// line order. This is the unit the fixture tests drive directly. Only the
/// per-file rules run here; the transitive R-rules need the workspace
/// engine ([`crate::lint_sources`] with `graph` on).
pub fn lint_source(ctx: &FileCtx<'_>, source: &str) -> Vec<Finding> {
    let mut fa = analyze(ctx, source);
    let mut findings = fa.apply_allows();
    findings.extend(fa.a1_findings(false));
    findings.sort_by_key(|a| (a.line, a.rule));
    findings
}

/// Runs the file rules over `source`, returning the raw findings and the
/// allow annotations without applying them.
pub(crate) fn analyze(ctx: &FileCtx<'_>, source: &str) -> FileAnalysis {
    let lines: Vec<&str> = source.lines().collect();
    let excerpt = |line: usize| -> String {
        lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let tokens = lex(source);
    // The code view: the token stream with comments stripped.
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.kind.is_comment()).collect();
    let test_ranges = test_regions(&code);
    let in_test = |idx: usize| test_ranges.iter().any(|&(lo, hi)| idx >= lo && idx <= hi);
    let allows = collect_allows(&tokens, &code);

    let mut raw: Vec<Finding> = Vec::new();
    let mut push = |rule: RuleId, line: usize| {
        raw.push(Finding {
            rule,
            file: ctx.path.to_string(),
            line,
            excerpt: excerpt(line),
            hint: rule.hint().to_string(),
            chain: Vec::new(),
        });
    };

    let is_result_crate = RESULT_CRATES.contains(&ctx.crate_name);
    let is_time_crate = TIME_CRATES.contains(&ctx.crate_name);
    let is_hot = HOT_FILES.iter().any(|h| ctx.path.ends_with(h));

    // S1 (crate-root half): every crate root must carry a lint-level gate
    // against unsafe code — `forbid` normally, `deny` for the one crate
    // with an audited exception (the tensor crate's persistent-pool core,
    // whose individual `unsafe` tokens the per-token half below still
    // flags). Checked over the whole token stream (the attribute sits
    // above any cfg region).
    if ctx.is_crate_root {
        let has_guard = code.windows(3).any(|w| {
            matches!(w[0].kind.ident(), Some("forbid") | Some("deny"))
                && w[1].kind == TokKind::Punct('(')
                && w[2].kind.ident() == Some("unsafe_code")
        });
        if !has_guard {
            push(RuleId::S1, 1);
        }
    }

    // Loop tracking for P2: a stack of `is_loop` per open brace.
    let mut brace_stack: Vec<bool> = Vec::new();
    let mut pending_loop = false;

    for i in 0..code.len() {
        let t = code[i];
        let line = t.line;
        let tested = in_test(i);

        match &t.kind {
            TokKind::Punct('{') => {
                brace_stack.push(pending_loop);
                pending_loop = false;
            }
            TokKind::Punct('}') => {
                brace_stack.pop();
            }
            TokKind::Ident(id) if matches!(id.as_str(), "while" | "loop") => {
                pending_loop = true;
            }
            // `for` is a loop head only in its `for <pat> in <expr>` form;
            // `impl Trait for Type` and HRTB `for<'a>` have no `in` before
            // the brace.
            TokKind::Ident(id) if id == "for" => {
                let mut j = i + 1;
                while let Some(t2) = code.get(j) {
                    match &t2.kind {
                        TokKind::Ident(id2) if id2 == "in" => {
                            pending_loop = true;
                            break;
                        }
                        TokKind::Punct('{') | TokKind::Punct(';') => break,
                        _ => j += 1,
                    }
                }
            }
            _ => {}
        }
        if tested {
            continue;
        }

        match &t.kind {
            // D1 — hash collections in result-affecting crates.
            TokKind::Ident(id) if is_result_crate && (id == "HashMap" || id == "HashSet") => {
                push(RuleId::D1, line);
            }
            // D2 — wall clock / ambient RNG outside obs and bench.
            TokKind::Ident(id)
                if !is_time_crate
                    && matches!(
                        id.as_str(),
                        "Instant" | "SystemTime" | "thread_rng" | "from_entropy" | "OsRng"
                    ) =>
            {
                push(RuleId::D2, line);
            }
            // P1 — panic paths in library code.
            TokKind::Ident(id)
                if ctx.kind == FileKind::Lib
                    && matches!(
                        id.as_str(),
                        "panic" | "todo" | "unimplemented" | "unreachable"
                    )
                    && matches!(code.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct('!'))) =>
            {
                push(RuleId::P1, line);
            }
            TokKind::Ident(id)
                if ctx.kind == FileKind::Lib
                    && (id == "unwrap" || id == "expect")
                    && i >= 1
                    && code[i - 1].kind == TokKind::Punct('.')
                    && matches!(code.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct('(')))
                // `.unwrap()` needs the exact empty-paren form so
                // `.unwrap_or(..)` (a different identifier) and method
                // *definitions* never match; `.expect(` flags any argument.
                && (id == "expect"
                    || matches!(code.get(i + 2).map(|t| &t.kind), Some(TokKind::Punct(')')))) =>
            {
                push(RuleId::P1, line);
            }
            // S1 (per-token half) — every `unsafe` keyword (blocks, fns,
            // impls) must carry a reasoned allow stating the soundness
            // argument; the crate-root gate alone only proves the crate
            // opted in, not that each site was audited.
            TokKind::Ident(id) if id == "unsafe" => {
                push(RuleId::S1, line);
            }
            // P2 — indexing inside a loop in a hot file.
            TokKind::Punct('[')
                if is_hot
                    && brace_stack.iter().any(|&l| l)
                    && i >= 1
                    && is_index_base(&code, i - 1) =>
            {
                push(RuleId::P2, line);
            }
            // N1 — narrowing `as` cast in a hot file.
            TokKind::Ident(id)
                if is_hot
                    && id == "as"
                    && code
                        .get(i + 1)
                        .and_then(|t| t.kind.ident())
                        .is_some_and(|n| NARROW_INTS.contains(&n)) =>
            {
                push(RuleId::N1, line);
            }
            _ => {}
        }
    }

    FileAnalysis {
        path: ctx.path.to_string(),
        lines: lines.iter().map(|l| l.to_string()).collect(),
        raw,
        allows,
    }
}

/// True when `code[j]` can end the base expression of an index (`x[`,
/// `)[`, `][`, a tuple field's `.0[`), as opposed to a type position
/// (`&mut [f32]`) or attribute.
fn is_index_base(code: &[&Token], j: usize) -> bool {
    match &code[j].kind {
        TokKind::Punct(')') | TokKind::Punct(']') => true,
        TokKind::Ident(id) => !NON_INDEX_KEYWORDS.contains(&id.as_str()),
        TokKind::Num => j >= 1 && code[j - 1].kind == TokKind::Punct('.'),
        _ => false,
    }
}

/// Code-token index ranges covered by `#[cfg(test)]` / `#[test]` items.
pub(crate) fn test_regions(code: &[&Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].kind == TokKind::Punct('#')
            && matches!(code.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct('[')))
        {
            // Scan the attribute's bracket span.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut saw_test = false;
            let mut saw_not = false;
            let mut idents = 0usize;
            while j < code.len() && depth > 0 {
                match &code[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => depth -= 1,
                    TokKind::Ident(id) => {
                        idents += 1;
                        if id == "test" {
                            saw_test = true;
                        }
                        if id == "not" {
                            saw_not = true;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            // `#[test]` alone, or a cfg containing `test` (but not
            // `cfg(not(test))`) marks the following item as test-only.
            let marks_test = saw_test && !saw_not && idents <= 4;
            if marks_test {
                // The region runs to the end of the next item: its `{…}`
                // body, or the terminating `;` for bodiless items.
                let mut k = j;
                let mut body_depth = 0usize;
                let end = loop {
                    match code.get(k).map(|t| &t.kind) {
                        None => break code.len().saturating_sub(1),
                        Some(TokKind::Punct('{')) => {
                            body_depth += 1;
                            k += 1;
                        }
                        Some(TokKind::Punct('}')) => {
                            body_depth -= 1;
                            if body_depth == 0 {
                                break k;
                            }
                            k += 1;
                        }
                        Some(TokKind::Punct(';')) if body_depth == 0 => break k,
                        Some(_) => k += 1,
                    }
                };
                regions.push((i, end));
                i = end + 1;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    regions
}

/// Extracts `lint:allow` annotations from line comments and computes each
/// one's scope: the next code line, widened to the whole body when that
/// line opens a `fn`.
fn collect_allows(tokens: &[Token], code: &[&Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in tokens {
        let TokKind::LineComment { text, doc: false } = &t.kind else {
            continue;
        };
        let trimmed = text.trim_start();
        let Some(rest) = trimmed.strip_prefix("lint:allow") else {
            continue;
        };
        let (rule_text, reason) = match rest.trim_start().strip_prefix('(') {
            Some(inner) => match inner.split_once(')') {
                Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
                None => (inner.trim().to_string(), String::new()),
            },
            None => (String::new(), rest.trim().to_string()),
        };
        // Binding line: the first code token on a later line. Other allow
        // comments may sit between (stacked annotations share a target), and
        // `#[...]` attribute lines are bound through — a rustc-side
        // `#[allow(clippy::...)]` stacked with a lint:allow annotates the
        // same statement.
        let bind = code
            .iter()
            .position(|c| c.line > t.line)
            .map(|idx| skip_attrs(code, idx))
            .filter(|&idx| idx < code.len());
        let scope = match bind {
            None => (t.line + 1, t.line + 1),
            Some(idx) => fn_scope(code, idx),
        };
        out.push(Allow {
            comment_line: t.line,
            rule: RuleId::parse(&rule_text),
            rule_text,
            reason,
            scope,
            used: false,
        });
    }
    out
}

/// Advances `idx` past any `#[...]` / `#![...]` attributes so an allow
/// comment binds to the statement or item the attributes annotate.
fn skip_attrs(code: &[&Token], mut idx: usize) -> usize {
    while idx < code.len() && matches!(code[idx].kind, TokKind::Punct('#')) {
        let mut j = idx + 1;
        if matches!(code.get(j).map(|t| &t.kind), Some(TokKind::Punct('!'))) {
            j += 1;
        }
        if !matches!(code.get(j).map(|t| &t.kind), Some(TokKind::Punct('['))) {
            break;
        }
        let mut depth = 0usize;
        while let Some(t) = code.get(j) {
            match t.kind {
                TokKind::Punct('[') => depth += 1,
                TokKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        idx = j + 1;
    }
    idx
}

/// The line span an allow bound at code token `idx` covers: normally just
/// that token's line, but the whole body when the statement starting there
/// is a `fn` item.
pub(crate) fn fn_scope(code: &[&Token], idx: usize) -> (usize, usize) {
    let line = code[idx].line;
    // Scan the item header: if an `fn` keyword appears before the first
    // `{` or item-level `;`, the allow covers the function body. Semicolons
    // nested in brackets/parens (array types like `[f32; 8]` in the
    // signature) are not item terminators.
    let mut saw_fn = false;
    let mut nesting = 0usize;
    let mut j = idx;
    while let Some(t) = code.get(j) {
        match &t.kind {
            TokKind::Ident(id) if id == "fn" => saw_fn = true,
            TokKind::Punct('[' | '(') => nesting += 1,
            TokKind::Punct(']' | ')') => nesting = nesting.saturating_sub(1),
            TokKind::Punct('{') => break,
            TokKind::Punct(';') if nesting == 0 => return (line, line),
            // A `}` cannot appear in a fn header before its body `{`;
            // hitting one means the target was an expression (e.g. a tail
            // call closing its block) and the scan must not run on into the
            // next item and mistake it for the allow's fn.
            TokKind::Punct('}') => return (line, line),
            _ => {}
        }
        j += 1;
    }
    if !saw_fn {
        return (line, line);
    }
    // `j` sits on the body `{`; find its matching close.
    let mut depth = 0usize;
    let mut k = j;
    while let Some(t) = code.get(k) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return (line, t.line);
                }
            }
            _ => {}
        }
        k += 1;
    }
    (line, code.last().map_or(line, |t| t.line))
}
