//! Differential-testing oracle for the SnaPEA reproduction.
//!
//! Everything the fast paths compute — im2col GEMM convolution, the
//! sign-reordered speculative executor, the pooled/tiled parallel kernels,
//! the cycle-level PE-array simulator — is re-derived here from the paper's
//! definitions using deliberately naive code: direct coordinate loops, no
//! im2col, no worker pool, no shared kernel code with `snapea-core`. The
//! [`harness`] then fuzzes hundreds of seeded random configurations and
//! asserts, case by case:
//!
//! * exact-mode executor output is **bit-identical** to the oracle's
//!   independent window walk, and (for non-negative inputs) post-ReLU equal
//!   to the dense 7-loop convolution within float tolerance;
//! * predictive-mode output is bit-identical to the oracle's speculative
//!   walk, predicted windows are squashed to zero, and non-predicted
//!   windows match the dense reference post-ReLU;
//! * executed MAC counts never exceed the dense MAC count, and
//!   `PredictionStats` tallies agree with the oracle's termination kinds;
//! * the q16 executor is bit-identical to the oracle's 16-bit fixed-point
//!   walk, which probes before every MAC;
//! * simulator cycle counts sit inside the analytical [`cycle_model`]
//!   bounds, and simulator MAC totals equal the profile's.
//!
//! Every failure is reported as a replayable case: the 64-bit case seed plus
//! a rendered config line, with an automatic single-image/single-kernel
//! minimization pass. See `DESIGN.md` §7 for the architecture.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact_check;
pub mod cycle_model;
pub mod gen;
pub mod harness;
pub mod reference;
pub mod rng;

pub use artifact_check::{
    run_artifact_case, run_artifact_check, ArtifactCheckOptions, ArtifactCheckReport,
};
pub use gen::CaseConfig;
pub use harness::{run_case, run_selfcheck, HarnessOptions, SelfCheckReport};
pub use rng::OracleRng;
