//! Per-rule fixture tests: every rule must fire on a minimal positive
//! snippet, be suppressed by a reasoned `lint:allow`, and report A1 when
//! the allow is reason-less. Plus the self-application gate: the workspace
//! this crate lives in must lint clean.

use snapea_lint::{lint_source, lint_workspace, FileCtx, FileKind, Finding, RuleId};
use std::path::Path;

fn lib_ctx<'a>(path: &'a str, crate_name: &'a str) -> FileCtx<'a> {
    FileCtx {
        path,
        crate_name,
        kind: FileKind::Lib,
        is_crate_root: false,
    }
}

fn rules_of(findings: &[Finding]) -> Vec<RuleId> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn d1_fires_on_hash_collections_in_result_crates() {
    let ctx = lib_ctx("crates/core/src/x.rs", "core");
    let f = lint_source(&ctx, "use std::collections::HashMap;\n");
    assert_eq!(rules_of(&f), vec![RuleId::D1]);
    assert_eq!(f[0].line, 1);
    assert!(f[0].excerpt.contains("HashMap"));

    // Same source in a non-result crate is fine.
    let ctx = lib_ctx("crates/cli/src/x.rs", "cli");
    assert!(lint_source(&ctx, "use std::collections::HashMap;\n").is_empty());
}

#[test]
fn d1_ignores_strings_comments_and_test_code() {
    let ctx = lib_ctx("crates/tensor/src/x.rs", "tensor");
    let src = "\
// HashMap in a comment\n\
const NAME: &str = \"HashMap\";\n\
#[cfg(test)]\n\
mod tests {\n\
    use std::collections::HashSet;\n\
}\n";
    assert!(lint_source(&ctx, src).is_empty());
}

#[test]
fn d2_fires_on_wall_clock_outside_obs_and_bench() {
    let src = "fn t() -> std::time::Instant { Instant::now() }\n";
    let f = lint_source(&lib_ctx("crates/nn/src/x.rs", "nn"), src);
    assert_eq!(rules_of(&f), vec![RuleId::D2, RuleId::D2]);
    // obs and bench own the wall clock.
    assert!(lint_source(&lib_ctx("crates/obs/src/x.rs", "obs"), src).is_empty());
    assert!(lint_source(&lib_ctx("crates/bench/src/x.rs", "bench"), src).is_empty());
    // Ambient RNG is also nondeterministic state.
    let f = lint_source(
        &lib_ctx("crates/core/src/x.rs", "core"),
        "let mut r = thread_rng();\n",
    );
    assert_eq!(rules_of(&f), vec![RuleId::D2]);
}

#[test]
fn d2_sanctions_the_obs_stopwatch_in_result_crates() {
    // The tracing instrumentation reads the wall clock from result crates
    // (executor layer timing, pool worker lanes, trainer epochs) — but only
    // through `snapea_obs::Stopwatch`/`sink::now_ms`, the one audited
    // entry point. That pattern must stay clean while a raw `Instant` in
    // the same position keeps firing, otherwise the instrumentation could
    // silently regress into unsanctioned clock reads.
    let sanctioned = "fn layer() -> f64 {\n\
                          let clock = snapea_obs::Stopwatch::start();\n\
                          let start_ms = snapea_obs::sink::now_ms();\n\
                          clock.elapsed_ms() + start_ms\n\
                      }\n";
    for (path, name) in [
        ("crates/core/src/exec.rs", "core"),
        ("crates/tensor/src/par.rs", "tensor"),
        ("crates/nn/src/train.rs", "nn"),
    ] {
        assert!(
            lint_source(&lib_ctx(path, name), sanctioned).is_empty(),
            "obs stopwatch flagged in {path}"
        );
    }
    let raw = "fn layer() -> f64 {\n\
                   let clock = std::time::Instant::now();\n\
                   clock.elapsed().as_secs_f64()\n\
               }\n";
    let f = lint_source(&lib_ctx("crates/core/src/exec.rs", "core"), raw);
    assert_eq!(rules_of(&f), vec![RuleId::D2]);
}

#[test]
fn p1_fires_on_panic_paths_in_lib_code_only() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
               fn g(x: Option<u8>) -> u8 { x.expect(\"present\") }\n\
               fn h() { panic!(\"boom\") }\n\
               fn t() { todo!() }\n";
    let f = lint_source(&lib_ctx("crates/obs/src/x.rs", "obs"), src);
    assert_eq!(
        rules_of(&f),
        vec![RuleId::P1, RuleId::P1, RuleId::P1, RuleId::P1]
    );
    // Binaries may print-and-exit; P1 is a library rule.
    let bin = FileCtx {
        path: "crates/cli/src/bin/x.rs",
        crate_name: "cli",
        kind: FileKind::Bin,
        is_crate_root: false,
    };
    assert!(lint_source(&bin, src).is_empty());
}

#[test]
fn p1_does_not_fire_on_unwrap_or_family_or_test_code() {
    let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
               fn g(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 1) }\n\
               #[test]\n\
               fn t() { Some(1u8).unwrap(); }\n";
    assert!(lint_source(&lib_ctx("crates/core/src/x.rs", "core"), src).is_empty());
}

#[test]
fn p2_fires_on_indexing_in_hot_loops_only() {
    let hot = lib_ctx("crates/tensor/src/matrix.rs", "tensor");
    let src = "fn k(out: &mut [f32], b: &[f32]) {\n\
                   for j in 0..out.len() {\n\
                       out[j] += b[j];\n\
                   }\n\
                   let first = b[0];\n\
               }\n";
    let f = lint_source(&hot, src);
    // Two index sites inside the loop; the one outside any loop is free.
    assert_eq!(rules_of(&f), vec![RuleId::P2, RuleId::P2]);
    assert_eq!(f[0].line, 3);
    // The same code outside the hot set is fine.
    assert!(lint_source(&lib_ctx("crates/tensor/src/other.rs", "tensor"), src).is_empty());
}

#[test]
fn p2_sees_tuple_field_bases() {
    let hot = lib_ctx("crates/tensor/src/matrix.rs", "tensor");
    let src = "struct Rows(Vec<f32>);\n\
               impl Rows {\n\
                   fn k(&mut self, b: &[f32]) {\n\
                       for w in 0..8 {\n\
                           self.0[w] = b.len() as f32;\n\
                       }\n\
                       let first = self.0[0];\n\
                   }\n\
               }\n";
    let f = lint_source(&hot, src);
    // `self.0[w]` inside the loop is indexing; `self.0[0]` outside is free.
    assert_eq!(rules_of(&f), vec![RuleId::P2]);
    assert_eq!(f[0].line, 5);
}

#[test]
fn p2_fn_scoped_allow_covers_the_whole_body() {
    let hot = lib_ctx("crates/tensor/src/matrix.rs", "tensor");
    let src = "// lint:allow(P2) j < out.len() by the loop bound; b pinned same length\n\
               fn k(out: &mut [f32], b: &[f32]) {\n\
                   for j in 0..out.len() {\n\
                       out[j] += b[j];\n\
                   }\n\
               }\n";
    assert!(lint_source(&hot, src).is_empty());
}

#[test]
fn allow_binds_through_attribute_lines() {
    // A `#[allow(clippy::...)]` stacked between the lint:allow comment and
    // the statement (the clippy.toml mirror sites do exactly this) must not
    // steal the binding: the allow covers the annotated statement, and on a
    // fn item still widens over the whole body.
    let ctx = lib_ctx("crates/nn/src/x.rs", "nn");
    let stmt = "fn f(v: &[f32]) -> f32 {\n\
                \x20   // lint:allow(P1) v is non-empty by construction\n\
                \x20   #[allow(clippy::disallowed_methods)]\n\
                \x20   let last = *v.last().expect(\"non-empty\");\n\
                \x20   last\n\
                }\n";
    assert!(
        lint_source(&ctx, stmt).is_empty(),
        "{:?}",
        lint_source(&ctx, stmt)
    );

    let item = "// lint:allow(P1) both unwraps guarded by the is_empty check above\n\
                #[inline]\n\
                fn g(v: &[f32]) -> f32 {\n\
                \x20   *v.first().unwrap() + *v.last().unwrap()\n\
                }\n";
    assert!(
        lint_source(&ctx, item).is_empty(),
        "{:?}",
        lint_source(&ctx, item)
    );
}

#[test]
fn allow_on_tail_expression_does_not_leak_into_next_fn() {
    // An allow bound to a tail expression (no trailing `;`) must stay
    // line-scoped: the forward scan must stop at the block's closing `}`
    // rather than run on into the next `fn` item and widen over its body.
    let ctx = lib_ctx("crates/nn/src/x.rs", "nn");
    let src = "fn first(v: &[f32]) -> f32 {\n\
               \x20   // lint:allow(P1) v is non-empty by construction\n\
               \x20   *v.last().expect(\"non-empty\")\n\
               }\n\
               fn second(v: &[f32]) -> f32 {\n\
               \x20   *v.first().expect(\"non-empty\")\n\
               }\n";
    let f = lint_source(&ctx, src);
    assert_eq!(rules_of(&f), vec![RuleId::P1]);
    assert_eq!(f[0].line, 6, "second's expect must not be suppressed");
}

#[test]
fn p2_ignores_slice_types_and_impl_for() {
    let hot = lib_ctx("crates/tensor/src/matrix.rs", "tensor");
    let src = "struct W;\n\
               impl Default for W {\n\
                   fn default() -> W {\n\
                       let _v: &[f32] = &[];\n\
                       W\n\
                   }\n\
               }\n";
    assert!(lint_source(&hot, src).is_empty());
}

#[test]
fn n1_fires_on_narrow_casts_in_hot_files() {
    let hot = lib_ctx("crates/core/src/exec.rs", "core");
    let f = lint_source(&hot, "fn c(x: usize) -> u32 { x as u32 }\n");
    assert_eq!(rules_of(&f), vec![RuleId::N1]);
    // Widening and float casts are not silent-truncation hazards.
    assert!(lint_source(&hot, "fn c(x: u32) -> u64 { x as u64 }\n").is_empty());
    assert!(lint_source(&hot, "fn c(x: usize) -> f64 { x as f64 }\n").is_empty());
    // Cold files may cast (clippy covers general cast hygiene).
    let cold = lib_ctx("crates/core/src/params.rs", "core");
    assert!(lint_source(&cold, "fn c(x: usize) -> u32 { x as u32 }\n").is_empty());
}

#[test]
fn s1_requires_forbid_unsafe_on_crate_roots() {
    let root = FileCtx {
        path: "crates/core/src/lib.rs",
        crate_name: "core",
        kind: FileKind::Lib,
        is_crate_root: true,
    };
    let f = lint_source(&root, "pub mod exec;\n");
    assert_eq!(rules_of(&f), vec![RuleId::S1]);
    assert!(lint_source(&root, "#![forbid(unsafe_code)]\npub mod exec;\n").is_empty());
    // A crate with an audited unsafe core may downgrade to `deny` (so
    // per-site `#[allow(unsafe_code)]` is possible); the root gate is
    // still satisfied.
    assert!(lint_source(&root, "#![deny(unsafe_code)]\npub mod exec;\n").is_empty());
}

#[test]
fn s1_flags_every_unsafe_token_unless_justified() {
    let ctx = lib_ctx("crates/tensor/src/par.rs", "tensor");
    // A bare unsafe block is a finding at its line even though the crate
    // root gate lives in another file.
    let f = lint_source(&ctx, "fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n");
    assert_eq!(rules_of(&f), vec![RuleId::S1]);
    assert_eq!(f[0].line, 2);
    // A reasoned allow above the fn covers the whole body (fn scoping),
    // and the soundness argument is mandatory — that is the audit trail.
    let justified = "// lint:allow(S1) caller guarantees p is valid for reads\n\
                     fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
    assert!(lint_source(&ctx, justified).is_empty());
    // `unsafe impl` wants the allow directly above the impl line.
    let imp = "struct B(*const ());\n\
               // lint:allow(S1) field only dereferenced under the pool's join bracket\n\
               unsafe impl Send for B {}\n";
    assert!(lint_source(&imp_ctx(), imp).is_empty());
    // Unsafe confined to #[cfg(test)] regions is outside S1's remit (the
    // shipping library is what the audit covers).
    let test_only = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                     let x = 1u32;\n        let p = &x as *const u32;\n        \
                     assert_eq!(unsafe { *p }, 1);\n    }\n}\n";
    assert!(lint_source(&ctx, test_only).is_empty());
}

fn imp_ctx() -> FileCtx<'static> {
    lib_ctx("crates/tensor/src/par.rs", "tensor")
}

#[test]
fn reasoned_allow_suppresses_and_is_consumed() {
    let ctx = lib_ctx("crates/core/src/x.rs", "core");
    let src = "// lint:allow(D1) membership-only set, never iterated into results\n\
               use std::collections::HashSet;\n";
    assert!(lint_source(&ctx, src).is_empty());
}

#[test]
fn reasonless_allow_is_itself_a_finding_and_suppresses_nothing() {
    let ctx = lib_ctx("crates/core/src/x.rs", "core");
    let src = "// lint:allow(D1)\nuse std::collections::HashSet;\n";
    let f = lint_source(&ctx, src);
    // Findings sort by line: the A1 on the comment line precedes the D1.
    assert_eq!(rules_of(&f), vec![RuleId::A1, RuleId::D1]);
    let a1 = &f[0];
    assert_eq!(a1.line, 1);
    assert!(a1.excerpt.contains("without a reason"), "{}", a1.excerpt);
}

#[test]
fn unknown_rule_and_unused_allow_are_findings() {
    let ctx = lib_ctx("crates/core/src/x.rs", "core");
    let f = lint_source(&ctx, "// lint:allow(Z9) because\nlet x = 1;\n");
    assert_eq!(rules_of(&f), vec![RuleId::A1]);
    assert!(f[0].excerpt.contains("unknown rule"), "{}", f[0].excerpt);

    let f = lint_source(&ctx, "// lint:allow(D1) stale justification\nlet x = 1;\n");
    assert_eq!(rules_of(&f), vec![RuleId::A1]);
    assert!(
        f[0].excerpt.contains("suppresses no finding"),
        "{}",
        f[0].excerpt
    );
}

#[test]
fn allow_only_covers_its_own_rule() {
    let ctx = lib_ctx("crates/core/src/x.rs", "core");
    let src = "// lint:allow(D2) wrong rule for this line\n\
               use std::collections::HashSet;\n";
    let f = lint_source(&ctx, src);
    // D1 still fires, and the D2 allow is unused (A1 sorts first by line).
    assert_eq!(rules_of(&f), vec![RuleId::A1, RuleId::D1]);
}

#[test]
fn stacked_allows_share_one_target_line() {
    let hot = lib_ctx("crates/core/src/exec.rs", "core");
    let src = "fn f(xs: &[u32]) -> u32 {\n\
                   let mut s = 0u32;\n\
                   for i in 0..xs.len() {\n\
                       // lint:allow(P2) i < xs.len() by the loop bound\n\
                       // lint:allow(N1) sum bounded by window count < 2^32\n\
                       s += xs[i] as u32;\n\
                   }\n\
                   s\n\
               }\n";
    assert!(lint_source(&hot, src).is_empty());
}

#[test]
fn finding_json_shape_is_stable() {
    let ctx = lib_ctx("crates/core/src/x.rs", "core");
    let f = lint_source(&ctx, "use std::collections::HashMap;\n");
    let json = f[0].to_json_string();
    assert!(json.contains("\"rule\":\"D1\""), "{json}");
    assert!(json.contains("\"file\":\"crates/core/src/x.rs\""), "{json}");
    assert!(json.contains("\"line\":1"), "{json}");
    assert!(json.contains("\"excerpt\":"), "{json}");
    assert!(json.contains("\"hint\":"), "{json}");
}

/// The self-application gate: the workspace this crate is part of must
/// lint clean. Any future violation anywhere in the tree fails this test
/// before check.sh even reaches the CLI stage.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 40,
        "scanned {}",
        report.files_scanned
    );
    assert!(
        report.passed(),
        "workspace must lint clean, got {} finding(s):\n{}",
        report.findings.len(),
        report.render_text()
    );
}
