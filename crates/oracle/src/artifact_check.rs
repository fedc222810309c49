//! The artifact battery: round-trip and corruption fuzzing for the
//! compiled-model artifact format (`snapea::artifact`).
//!
//! Per case (derived from one replayable seed, same generator as the
//! differential harness) the battery asserts:
//!
//! 1. **Round trip** — `compile → serialize → deserialize` reproduces the
//!    bytes canonically (re-serialization is byte-exact) and the loaded
//!    model's forward pass is **bit-identical** to both the freshly
//!    compiled model's and `SpecNet`'s on the case's input batch;
//! 2. **Corruption** — a deterministic mutator (bit flips, truncations,
//!    region swaps) damages the valid bytes; every mutation must be
//!    rejected with a typed [`ArtifactError`] — never a panic, never an
//!    accepted-but-corrupt load.
//!
//! [`ArtifactCheckOptions::inject_load_bug`] loads mutated bytes with the
//! PARAMS-section checksum verification skipped — a deliberately planted
//! bug. The battery must then observe at least one corrupted artifact load
//! successfully (the structural checks reject most damage, but a flipped
//! threshold bit is well-formed — exactly the silent corruption the
//! checksum exists to stop), proving the battery detects a weakened loader.

use crate::gen::CaseConfig;
use crate::rng::{mix, OracleRng};
use snapea::artifact::{ArtifactError, CompiledModel, LoadOptions};
use snapea::params::NetworkParams;
use snapea::spec_net::SpecNet;
use snapea_nn::graph::{Graph, GraphBuilder};
use snapea_obs::Json;
use snapea_tensor::q16::Q16Format;
use snapea_tensor::Tensor4;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Artifact-battery knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArtifactCheckOptions {
    /// Load mutated bytes with the PARAMS checksum verification skipped —
    /// the planted loader bug the battery must catch.
    pub inject_load_bug: bool,
}

/// Mutations applied to each case's valid artifact bytes.
const MUTATIONS_PER_CASE: usize = 3;

/// One byte-level mutation of a valid artifact, rendered for replay.
#[derive(Debug, Clone)]
enum Mutation {
    BitFlip { pos: usize, bit: u32 },
    Truncate { keep: usize },
    RegionSwap { a: usize, b: usize, len: usize },
}

impl Mutation {
    fn describe(&self) -> String {
        match self {
            Mutation::BitFlip { pos, bit } => format!("bit-flip byte {pos} bit {bit}"),
            Mutation::Truncate { keep } => format!("truncate to {keep} byte(s)"),
            Mutation::RegionSwap { a, b, len } => {
                format!("swap {len}-byte regions at {a} and {b}")
            }
        }
    }

    /// Applies the mutation; returns `None` if it cannot change the bytes
    /// (degenerate input or identical swapped regions).
    fn apply(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        let mut out = bytes.to_vec();
        match *self {
            Mutation::BitFlip { pos, bit } => {
                let b = out.get_mut(pos)?;
                *b ^= 1u8 << (bit % 8);
            }
            Mutation::Truncate { keep } => {
                if keep >= out.len() {
                    return None;
                }
                out.truncate(keep);
            }
            Mutation::RegionSwap { a, b, len } => {
                if a.checked_add(len)? > out.len() || b.checked_add(len)? > out.len() {
                    return None;
                }
                for i in 0..len {
                    out.swap(a + i, b + i);
                }
            }
        }
        if out == bytes {
            None
        } else {
            Some(out)
        }
    }
}

/// Draws a mutation from the case's RNG sub-stream.
fn draw_mutation(r: &mut OracleRng, len: usize) -> Mutation {
    match r.range(0, 2) {
        0 => Mutation::BitFlip {
            pos: r.range(0, len - 1),
            bit: r.range(0, 7) as u32,
        },
        1 => Mutation::Truncate {
            keep: r.range(0, len - 1),
        },
        _ => {
            let l = r.range(1, 16.min(len));
            Mutation::RegionSwap {
                a: r.range(0, len - l),
                b: r.range(0, len - l),
                len: l,
            }
        }
    }
}

/// A failed artifact case, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct ArtifactFailure {
    /// The case seed (replay with
    /// `snapea-tool selfcheck --artifact --replay <seed>`).
    pub seed: u64,
    /// The generated configuration, rendered.
    pub config: String,
    /// One message per failed check.
    pub messages: Vec<String>,
}

/// Outcome of one artifact case.
#[derive(Debug, Clone)]
pub struct ArtifactCaseOutcome {
    /// The case seed.
    pub seed: u64,
    /// Checks performed (round-trip comparisons + mutations).
    pub checks: u64,
    /// Mutations applied.
    pub mutations: u64,
    /// Rejection counts keyed by [`ArtifactError::kind`].
    pub rejections: BTreeMap<&'static str, u64>,
    /// The failure, if any check tripped.
    pub failure: Option<ArtifactFailure>,
}

/// Aggregate result of an artifact battery run.
#[derive(Debug, Clone)]
pub struct ArtifactCheckReport {
    /// The run seed cases were derived from.
    pub run_seed: u64,
    /// Cases executed.
    pub cases: u64,
    /// Checks performed.
    pub checks: u64,
    /// Mutations applied across all cases.
    pub mutations: u64,
    /// Rejection counts keyed by [`ArtifactError::kind`].
    pub rejections: BTreeMap<&'static str, u64>,
    /// Every failed case.
    pub failures: Vec<ArtifactFailure>,
}

impl ArtifactCheckReport {
    /// Whether every check of every case passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable report; failures include seed, config, and a replay
    /// command line.
    pub fn render_text(&self) -> String {
        let kinds: Vec<String> = self
            .rejections
            .iter()
            .map(|(k, n)| format!("{k}:{n}"))
            .collect();
        let mut s = format!(
            "artifact battery seed={}: {} cases, {} checks, {} mutation(s) \
             rejected as [{}], {} failure(s)",
            self.run_seed,
            self.cases,
            self.checks,
            self.mutations,
            kinds.join(" "),
            self.failures.len(),
        );
        for f in &self.failures {
            let _ = write!(
                s,
                "\nFAILED case seed={:#018x}\n  config: {}",
                f.seed, f.config
            );
            for m in &f.messages {
                let _ = write!(s, "\n  - {m}");
            }
            let _ = write!(
                s,
                "\n  replay: snapea-tool selfcheck --artifact --replay {:#018x}",
                f.seed
            );
        }
        s
    }

    /// Structured report (the CLI's `--json` payload).
    pub fn to_json(&self) -> Json {
        let rejections = Json::obj(
            self.rejections
                .iter()
                .map(|(k, n)| (*k, Json::U64(*n)))
                .collect(),
        );
        let failures: Vec<Json> = self
            .failures
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("seed", Json::Str(format!("{:#018x}", f.seed))),
                    ("config", Json::Str(f.config.clone())),
                    (
                        "messages",
                        Json::Arr(f.messages.iter().map(|m| Json::Str(m.clone())).collect()),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("seed", Json::U64(self.run_seed)),
            ("cases", Json::U64(self.cases)),
            ("checks", Json::U64(self.checks)),
            ("mutations", Json::U64(self.mutations)),
            ("rejections", rejections),
            ("failed", Json::U64(self.failures.len() as u64)),
            ("passed", Json::Bool(self.passed())),
            ("failures", Json::Arr(failures)),
        ])
    }
}

/// Builds the case's single-conv model: `input → conv`.
fn case_model(cfg: &CaseConfig) -> (Graph, NetworkParams, Tensor4) {
    let (conv, input) = cfg.build();
    let mut b = GraphBuilder::new();
    let x = b.input();
    let _ = b.conv_layer("conv", x, conv);
    let graph = b.build();
    let mut params = NetworkParams::new();
    params.set(1, cfg.params());
    (graph, params, input)
}

fn bit_compare(label: &str, got: &[Tensor4], want: &[Tensor4], messages: &mut Vec<String>) {
    if got.len() != want.len() {
        messages.push(format!(
            "{label}: {} activation(s) vs {}",
            got.len(),
            want.len()
        ));
        return;
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if let Some(j) = g
            .as_slice()
            .iter()
            .zip(w.as_slice())
            .position(|(a, b)| a.to_bits() != b.to_bits())
        {
            messages.push(format!(
                "{label}: activation {i} element {j} not bit-identical"
            ));
            return;
        }
    }
}

/// Runs one artifact case end to end.
pub fn run_artifact_case(case_seed: u64, opts: &ArtifactCheckOptions) -> ArtifactCaseOutcome {
    let cfg = CaseConfig::generate(case_seed);
    let (graph, params, input) = case_model(&cfg);
    let compiled = CompiledModel::compile(
        &graph,
        &params,
        (cfg.c_in, cfg.h, cfg.w),
        Q16Format::default(),
    );
    let bytes = compiled.to_bytes();
    let mut checks = 0u64;
    let mut messages = Vec::new();

    // 1. Round trip: canonical bytes, bit-identical execution.
    match CompiledModel::from_bytes(&bytes) {
        Ok(loaded) => {
            if loaded.to_bytes() != bytes {
                messages.push("re-serialization of the loaded artifact differs".to_string());
            }
            checks += 1;
            let fresh = compiled.forward(&input);
            let from_artifact = loaded.forward(&input);
            bit_compare(
                "artifact-loaded vs freshly-compiled execution",
                &from_artifact,
                &fresh,
                &mut messages,
            );
            checks += 1;
            let spec = SpecNet::new(&graph, &params).forward(&input);
            bit_compare(
                "artifact-loaded vs SpecNet execution",
                &from_artifact,
                &spec,
                &mut messages,
            );
            checks += 1;
        }
        Err(e) => messages.push(format!("valid artifact rejected: {e}")),
    }

    // 2. Corruption: every mutation must be rejected with a typed error.
    let load_opts = LoadOptions {
        skip_params_checksum: opts.inject_load_bug,
    };
    let mut r = OracleRng::new(mix(case_seed, 4));
    let mut mutations = 0u64;
    let mut rejections: BTreeMap<&'static str, u64> = BTreeMap::new();
    for _ in 0..MUTATIONS_PER_CASE {
        // A drawn mutation can degenerate (identical swapped regions); give
        // the stream a few attempts before conceding the slot.
        let Some((mutation, mutated)) = (0..8).find_map(|_| {
            let m = draw_mutation(&mut r, bytes.len());
            m.apply(&bytes).map(|out| (m, out))
        }) else {
            continue;
        };
        mutations += 1;
        checks += 1;
        let loaded =
            std::panic::catch_unwind(|| CompiledModel::from_bytes_with(&mutated, load_opts));
        match loaded {
            Ok(Ok(_)) => messages.push(format!(
                "accepted a corrupted artifact ({})",
                mutation.describe()
            )),
            Ok(Err(e)) => {
                *rejections.entry(e.kind()).or_insert(0) += 1;
            }
            Err(_) => messages.push(format!(
                "loader panicked instead of returning a typed error ({})",
                mutation.describe()
            )),
        }
    }

    let failure = if messages.is_empty() {
        None
    } else {
        Some(ArtifactFailure {
            seed: case_seed,
            config: cfg.describe(),
            messages,
        })
    };
    ArtifactCaseOutcome {
        seed: case_seed,
        checks,
        mutations,
        rejections,
        failure,
    }
}

/// Runs `cases` artifact cases derived from `seed` and aggregates the
/// report. Charges `oracle/artifact_*` metrics and emits an
/// `oracle/artifact_check` event when an observability sink is installed.
pub fn run_artifact_check(
    cases: usize,
    seed: u64,
    opts: &ArtifactCheckOptions,
) -> ArtifactCheckReport {
    let mut report = ArtifactCheckReport {
        run_seed: seed,
        cases: cases as u64,
        checks: 0,
        mutations: 0,
        rejections: BTreeMap::new(),
        failures: Vec::new(),
    };
    for i in 0..cases {
        let outcome = run_artifact_case(mix(seed, i as u64), opts);
        report.checks += outcome.checks;
        report.mutations += outcome.mutations;
        for (k, n) in outcome.rejections {
            *report.rejections.entry(k).or_insert(0) += n;
        }
        if let Some(f) = outcome.failure {
            report.failures.push(f);
        }
    }
    snapea_obs::counter("oracle/artifact_cases").add(report.cases);
    snapea_obs::counter("oracle/artifact_mutations").add(report.mutations);
    snapea_obs::counter("oracle/artifact_failures").add(report.failures.len() as u64);
    snapea_obs::event!(
        "oracle/artifact_check",
        cases = report.cases,
        checks = report.checks,
        mutations = report.mutations,
        failures = report.failures.len() as u64,
    );
    report
}

/// Keeps the planted-bug contract honest at the type level: the battery
/// only ever inspects [`ArtifactError`] through `kind()`, so a new error
/// variant cannot silently escape the rejection tally.
const _: fn(&ArtifactError) -> &'static str = ArtifactError::kind;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handful_of_cases_pass_clean() {
        let r = run_artifact_check(25, 7, &ArtifactCheckOptions::default());
        assert!(r.passed(), "{}", r.render_text());
        assert!(r.mutations >= 25 * 2, "mutator must mostly land");
        assert_eq!(
            r.rejections.values().sum::<u64>(),
            r.mutations,
            "every mutation rejected"
        );
        // Over a few dozen mutations the battery must exercise more than one
        // rejection path (checksums plus structural errors).
        assert!(
            r.rejections.len() >= 2,
            "rejection kinds too uniform: {:?}",
            r.rejections
        );
    }

    #[test]
    fn injected_loader_bug_is_caught_and_replayable() {
        let opts = ArtifactCheckOptions {
            inject_load_bug: true,
        };
        let r = run_artifact_check(200, 7, &opts);
        assert!(
            !r.passed(),
            "a loader that skips the PARAMS checksum must accept some corruption"
        );
        let text = r.render_text();
        assert!(text.contains("accepted a corrupted artifact"), "{text}");
        assert!(
            text.contains("replay: snapea-tool selfcheck --artifact --replay 0x"),
            "{text}"
        );
        // And the replayed single case reproduces the failure.
        let seed = r.failures[0].seed;
        assert!(run_artifact_case(seed, &opts).failure.is_some());
        assert!(
            run_artifact_case(seed, &ArtifactCheckOptions::default())
                .failure
                .is_none(),
            "the same case passes with full verification"
        );
    }

    #[test]
    fn report_json_shape() {
        let r = run_artifact_check(2, 1, &ArtifactCheckOptions::default());
        let j = r.to_json();
        assert_eq!(j.get("cases").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(j.get("passed").and_then(Json::as_bool), Some(true));
        assert!(j.get("mutations").and_then(Json::as_u64).is_some());
        assert!(j.get("rejections").is_some());
    }
}
