//! `snapea-lint` — domain-specific static analysis for the SnaPEA
//! reproduction.
//!
//! The workspace's headline guarantees are *determinism* claims: the same
//! inputs produce bit-identical outputs at any `SNAPEA_THREADS`, the
//! optimised kernels reproduce the oracle's naive walks `.to_bits`-exactly,
//! and the oracle harness replays any case from a seed. Those guarantees
//! are enforced dynamically by tests — which must happen to exercise the
//! offending path. This crate enforces the *preconditions* statically, at
//! `check.sh` time: no hash-order iteration where floats accumulate (D1),
//! no wall-clock or ambient RNG in result-affecting code (D2), no panic
//! paths in library code (P1), no unaudited indexing in hot kernel loops
//! (P2), no silently-wrapping narrow casts in kernel/simulator arithmetic
//! (N1), `#![forbid(unsafe_code)]` on every crate root (S1), and honest
//! suppression annotations (A1). See [`rules`] for the rule table and
//! DESIGN.md §8 for the invariants each rule guards.
//!
//! The analysis is a comment/string-aware tokenizer ([`lexer`]) plus a
//! small state machine — deliberately not a full parser: the rules need
//! token shape and brace structure only, and the crate must stay std-only
//! (the CI registry cache is offline, so `syn` is not an option).
//!
//! Entry points: [`lint_workspace`] walks a checkout; [`lint_source`]
//! lints one file from memory (how the fixture tests drive each rule);
//! [`Finding`] is the machine-readable result the CLI's `--json` mode
//! round-trips.
//!
//! ```
//! use snapea_lint::{lint_source, FileCtx, FileKind, RuleId};
//! let ctx = FileCtx {
//!     path: "crates/core/src/demo.rs",
//!     crate_name: "core",
//!     kind: FileKind::Lib,
//!     is_crate_root: false,
//! };
//! let findings = lint_source(&ctx, "use std::collections::HashMap;\n");
//! assert_eq!(findings[0].rule, RuleId::D1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod graph;
pub mod lexer;
mod parse;
pub mod rules;
pub mod walk;

pub use engine::{lint_sources, LintOptions, SourceSpec};
pub use rules::{lint_source, ChainLink, FileCtx, FileKind, Finding, RuleId};
pub use walk::{find_workspace_root, lint_workspace, lint_workspace_opts, LintReport, WalkError};
