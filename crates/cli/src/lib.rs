//! Command-line tooling for the SnaPEA reproduction.
//!
//! The `snapea` binary (see `src/bin/snapea-tool.rs`) exposes the library's
//! workflow to the shell:
//!
//! ```text
//! snapea-tool train      --workload SqueezeNet --out model.snapea
//! snapea-tool inspect    model.snapea
//! snapea-tool reorder    model.snapea --layer conv1 --kernel 0
//! snapea-tool optimize   model.snapea --epsilon 0.03 --out tuned.snapea
//! snapea-tool simulate   tuned.snapea [--images 8]
//! snapea-tool run        tuned.snapea [--images 4] [--seed 7]
//! snapea-tool report     repro-results/<run>/events.jsonl
//! ```
//!
//! Models are `.snapea` artifacts (see `snapea::artifact`): the network,
//! the input shape it runs on, and its speculation parameters in one
//! checksummed file. Every subcommand accepts `--json` for machine-readable
//! output.
//!
//! This module holds the (dependency-free) argument parser and the
//! subcommand implementations, kept as a library so they are unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
