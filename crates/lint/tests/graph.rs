//! Fixture tests for the call-graph rules (R1/R2/R3): every finding the
//! graph pass can emit is demonstrated here, plus the allow grammar at
//! chain links and the workspace self-application gate.

use snapea_lint::{
    find_workspace_root, lint_sources, lint_workspace_opts, FileKind, LintOptions, RuleId,
    SourceSpec,
};
use std::path::Path;

fn spec(path: &str, crate_name: &str, source: &str) -> SourceSpec {
    SourceSpec {
        path: path.to_string(),
        crate_name: crate_name.to_string(),
        kind: FileKind::Lib,
        is_crate_root: false,
        source: source.to_string(),
    }
}

fn graph() -> LintOptions {
    LintOptions { graph: true }
}

// ---------------------------------------------------------------- R1 --

#[test]
fn r1_wall_clock_reachable_from_result_path_fn() {
    // The root lives in a result-path file and reaches Instant::now()
    // two calls away, through a sibling crate.
    let a = spec(
        "crates/core/src/exec.rs",
        "core",
        "pub fn walk() -> u64 {\n    helper()\n}\n\
         fn helper() -> u64 {\n    snapea_nn::sample()\n}\n",
    );
    let b = spec(
        "crates/nn/src/lib.rs",
        "nn",
        "pub fn sample() -> u64 {\n    let t = std::time::Instant::now();\n    0\n}\n",
    );
    let findings = lint_sources(&[a, b], &graph());
    let r1: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::R1).collect();
    assert_eq!(r1.len(), 1, "findings: {findings:?}");
    let f = r1[0];
    assert_eq!(f.file, "crates/nn/src/lib.rs");
    assert_eq!(f.line, 2);
    let summary = f.chain_summary();
    assert_eq!(
        summary,
        "walk() \u{2192} helper() \u{2192} sample() \u{2192} std::time::Instant"
    );
    // Every edge carries a file:line span.
    assert_eq!(f.chain.len(), 3);
    assert_eq!(f.chain[0].file, "crates/core/src/exec.rs");
    assert_eq!(f.chain[0].line, 2);
    assert_eq!(f.chain[2].to, "std::time::Instant");
}

#[test]
fn r1_env_read_reachable() {
    let a = spec(
        "crates/tensor/src/matrix.rs",
        "tensor",
        "pub fn matmul() {\n    config()\n}\n\
         fn config() {\n    let v = std::env::var(\"X\");\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    let r1: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::R1).collect();
    assert_eq!(r1.len(), 1, "findings: {findings:?}");
    assert!(r1[0].chain_summary().ends_with("std::env::var"));
}

#[test]
fn r1_chain_stops_at_obs_boundary() {
    // Calling into obs is sanctioned: what obs does with the clock is
    // its charter. No finding.
    let a = spec(
        "crates/core/src/exec.rs",
        "core",
        "pub fn walk() {\n    snapea_obs::stamp()\n}\n",
    );
    let b = spec(
        "crates/obs/src/lib.rs",
        "obs",
        "pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    );
    let findings = lint_sources(&[a, b], &graph());
    assert!(
        findings.iter().all(|f| f.rule != RuleId::R1),
        "findings: {findings:?}"
    );
}

#[test]
fn r1_allow_at_sink_link_suppresses() {
    let a = spec(
        "crates/core/src/exec.rs",
        "core",
        "pub fn walk() {\n    config()\n}\n\
         fn config() {\n    // lint:allow(R1) sanctioned config read at pool construction\n    \
         let v = std::env::var(\"X\");\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    assert!(
        findings.is_empty(),
        "allow at the sink link must suppress: {findings:?}"
    );
}

#[test]
fn r1_allow_at_root_fn_suppresses_whole_chain() {
    let a = spec(
        "crates/core/src/exec.rs",
        "core",
        "// lint:allow(R1) this walk is diagnostics-only, not result-affecting\n\
         pub fn walk() {\n    config()\n}\n\
         fn config() {\n    let v = std::env::var(\"X\");\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    assert!(
        findings.is_empty(),
        "fn-scoped allow above the root must cover the call link: {findings:?}"
    );
}

#[test]
fn r1_not_run_without_graph_option() {
    let a = spec(
        "crates/core/src/exec.rs",
        "core",
        "pub fn walk() {\n    config()\n}\n\
         fn config() {\n    let v = std::env::var(\"X\");\n}\n",
    );
    let findings = lint_sources(&[a], &LintOptions::default());
    assert!(findings.is_empty(), "findings: {findings:?}");
}

// ---------------------------------------------------------------- R2 --

#[test]
fn r2_panic_chain_from_pub_api() {
    let a = spec(
        "crates/nn/src/lib.rs",
        "nn",
        "pub fn api(x: Option<u32>) -> u32 {\n    helper(x)\n}\n\
         fn helper(x: Option<u32>) -> u32 {\n    inner(x)\n}\n\
         fn inner(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    let r2: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::R2).collect();
    assert_eq!(r2.len(), 1, "findings: {findings:?}");
    let f = r2[0];
    assert_eq!(
        f.chain_summary(),
        "api() \u{2192} helper() \u{2192} inner() \u{2192} .unwrap()"
    );
    // Complete chain with a span per edge.
    assert_eq!(f.chain.len(), 3);
    for link in &f.chain {
        assert_eq!(link.file, "crates/nn/src/lib.rs");
        assert!(link.line > 0);
    }
    // Note: the direct `.unwrap()` also fires per-file P1 — by design,
    // the graph pass adds the chain evidence on top.
    assert!(findings.iter().any(|f| f.rule == RuleId::P1));
}

#[test]
fn r2_audited_sink_is_not_a_source() {
    // A valid P1 allow at the sink audits every path to it.
    let a = spec(
        "crates/nn/src/lib.rs",
        "nn",
        "pub fn api(x: Option<u32>) -> u32 {\n    helper(x)\n}\n\
         fn helper(x: Option<u32>) -> u32 {\n    // lint:allow(P1) x is checked Some by api's caller contract\n    \
         x.unwrap()\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn r2_restricted_pub_is_not_a_root() {
    let a = spec(
        "crates/nn/src/lib.rs",
        "nn",
        "pub(crate) fn api(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    // P1 still fires per-file, but no R2 chain: pub(crate) is not API.
    assert!(
        findings.iter().all(|f| f.rule != RuleId::R2),
        "findings: {findings:?}"
    );
}

#[test]
fn r2_allow_at_intermediate_link_suppresses() {
    // The sink is *not* P1-audited (so the per-file P1 finding stays),
    // but the R2 chain is suppressed at the call link.
    let a = spec(
        "crates/nn/src/lib.rs",
        "nn",
        "pub fn api(x: Option<u32>) -> u32 {\n    // lint:allow(R2) helper's contract guarantees Some here\n    \
         helper(x)\n}\n\
         fn helper(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    assert!(
        findings.iter().all(|f| f.rule != RuleId::R2),
        "R2 must be suppressed at the intermediate link: {findings:?}"
    );
    assert!(
        findings.iter().all(|f| f.rule != RuleId::A1),
        "the R2 allow was used and must not rot: {findings:?}"
    );
    // The direct P1 finding at the sink is independent and remains.
    assert_eq!(
        findings.iter().filter(|f| f.rule == RuleId::P1).count(),
        1,
        "findings: {findings:?}"
    );
}

// ---------------------------------------------------------------- R3 --

#[test]
fn r3_mut_capture_in_par_closure() {
    let a = spec(
        "crates/nn/src/lib.rs",
        "nn",
        "pub fn fanout(tasks: Vec<u32>, totals: Vec<u32>) {\n    \
         snapea_tensor::par::run_tasks(tasks, |i, t| {\n        \
         let sink = &mut totals;\n    });\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    let r3: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::R3).collect();
    assert_eq!(r3.len(), 1, "findings: {findings:?}");
    let f = r3[0];
    assert!(f.chain_summary().contains("run_tasks"));
    assert!(f.chain_summary().ends_with("captures `&mut totals`"));
}

#[test]
fn r3_assignment_to_captured_state() {
    let a = spec(
        "crates/nn/src/lib.rs",
        "nn",
        "pub fn fanout(tasks: Vec<u32>, mut total: u32) {\n    \
         snapea_tensor::par::parallel_map(8, 1, |i| {\n        \
         total = i as u32;\n    });\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    let r3: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::R3).collect();
    assert_eq!(r3.len(), 1, "findings: {findings:?}");
    assert!(r3[0]
        .chain_summary()
        .ends_with("assigns to captured `total`"));
}

#[test]
fn r3_mutator_method_on_captured_collection() {
    let a = spec(
        "crates/nn/src/lib.rs",
        "nn",
        "pub fn fanout(tasks: Vec<u32>, mut log: Vec<u32>) {\n    \
         snapea_tensor::par::run_tasks(tasks, |i, t| {\n        \
         log.push(i as u32);\n    });\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    let r3: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::R3).collect();
    assert_eq!(r3.len(), 1, "findings: {findings:?}");
    assert!(r3[0]
        .chain_summary()
        .ends_with("mutates captured `log` (.push())"));
}

#[test]
fn r3_mutating_capture_in_item_block_closure() {
    // `map_item_blocks` fans its closure out over the pool like the other
    // entry points: writing the owned block is fine, touching a capture is
    // not.
    let a = spec(
        "crates/nn/src/lib.rs",
        "nn",
        "pub fn fanout(out: &mut [f32], mut log: Vec<usize>) {\n    \
         snapea_tensor::par::map_item_blocks(out, 4, 2, |first, block| {\n        \
         block.fill(0.0);\n        log.push(first);\n    });\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    let r3: Vec<_> = findings.iter().filter(|f| f.rule == RuleId::R3).collect();
    assert_eq!(r3.len(), 1, "findings: {findings:?}");
    assert!(r3[0].chain_summary().contains("map_item_blocks"));
    assert!(r3[0]
        .chain_summary()
        .ends_with("mutates captured `log` (.push())"));
}

#[test]
fn r3_locals_and_params_are_fine() {
    // Mutating closure params and closure-local state is the pool's
    // whole design (each worker owns its task slab): no finding.
    let a = spec(
        "crates/nn/src/lib.rs",
        "nn",
        "pub fn fanout(tasks: Vec<(usize, Vec<f32>)>) {\n    \
         snapea_tensor::par::run_tasks(tasks, |_, (row0, slab)| {\n        \
         let mut acc = Vec::new();\n        acc.push(1u32);\n        \
         for v in slab.iter_mut() {\n            *v = 0.0;\n        }\n        \
         slab.fill(0.0);\n    });\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn r3_allow_at_dispatch_suppresses() {
    let a = spec(
        "crates/nn/src/lib.rs",
        "nn",
        "pub fn fanout(tasks: Vec<u32>, mut log: Vec<u32>) {\n    \
         snapea_tensor::par::run_tasks(tasks, |i, t| {\n        \
         // lint:allow(R3) log is task-partitioned; workers touch disjoint ranges\n        \
         log.push(i as u32);\n    });\n}\n",
    );
    let findings = lint_sources(&[a], &graph());
    assert!(findings.is_empty(), "findings: {findings:?}");
}

// ------------------------------------------------- allow hygiene (A1) --

#[test]
fn unused_graph_allow_fires_a1_only_under_graph() {
    let src = "// lint:allow(R1) nothing here actually reaches a sink\n\
               pub fn quiet() {}\n";
    let a = spec("crates/core/src/exec.rs", "core", src);
    // Without the graph pass the allow is exempt (only the graph pass
    // could observe what it suppresses)…
    let findings = lint_sources(std::slice::from_ref(&a), &LintOptions::default());
    assert!(findings.is_empty(), "findings: {findings:?}");
    // …with the graph pass on, an allow that suppresses nothing rots.
    let findings = lint_sources(&[a], &graph());
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, RuleId::A1);
    assert!(findings[0].excerpt.contains("suppresses no finding"));
}

// ------------------------------------------------- self-application --

#[test]
fn workspace_graph_lints_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root findable from the lint crate");
    let report = lint_workspace_opts(&root, &graph()).expect("walk succeeds");
    assert!(report.graph);
    assert!(
        report.findings.is_empty(),
        "graph lint must be clean on our own workspace:\n{}",
        report.render_text()
    );
}
