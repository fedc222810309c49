//! Minimal dense tensor library underpinning the SnaPEA reproduction.
//!
//! The crate provides exactly what the CNN substrate (`snapea-nn`) and the
//! SnaPEA core need:
//!
//! * [`Tensor4`] — a dense, row-major, NCHW `f32` tensor used for activations
//!   and convolution kernels.
//! * [`Tensor2`] — a dense matrix used by fully-connected layers and the
//!   im2col-based convolution path.
//! * [`init`] — deterministic, seeded weight initializers.
//! * [`q16`] — 16-bit fixed-point arithmetic mirroring the paper's 16-bit
//!   fixed-point processing engines (Table II of the paper).
//! * [`lane`] — the eight-wide lane layer: `f32x8`/`i32x8` wrappers, the
//!   pinned lane-tree reduction order, and the asm-verified SIMD kernels
//!   behind the GEMM microkernel and the executor walks.
//! * [`par`] — the scoped worker pool behind every parallel hot path in the
//!   workspace (`SNAPEA_THREADS` knob; results are bit-identical for any
//!   thread count).
//! * [`scratch`] — a thread-local arena of reusable zeroed `f32` buffers so
//!   the steady-state conv/executor paths stay off the allocator.
//!
//! Everything is deterministic: no global RNG state, and no wall-clock in
//! any numeric path (the pool reads the clock only for its metrics).
//!
//! # Examples
//!
//! ```
//! use snapea_tensor::{Shape4, Tensor4};
//!
//! let mut t = Tensor4::zeros(Shape4::new(1, 3, 4, 4));
//! t[(0, 0, 0, 0)] = 1.0;
//! assert_eq!(t[(0, 0, 0, 0)], 1.0);
//! assert_eq!(t.shape().len(), 48);
//! ```

// `deny`, not `forbid`: the persistent worker pool (`par::pool`) carries the
// crate's only unsafe sites — a small audited lifetime-erasure core, each
// site annotated with `#[allow(unsafe_code)]` plus a reasoned
// `lint:allow(S1)` justification checked by snapea-lint. Everything else in
// the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
mod shape;
mod tensor4;

pub mod im2col;
pub mod init;
pub mod lane;
pub mod num;
pub mod par;
pub mod q16;
pub mod scratch;

pub use im2col::ConvGeom;
pub use matrix::{matmul_into, matmul_t_into, t_matmul_into, Tensor2};
pub use shape::{Shape2, Shape4, ShapeError};
pub use tensor4::Tensor4;
