//! The benchmark's workloads and metric tables — the source `BENCHMARK.json`
//! mirrors — and the result line.

use std::fmt::Write as _;

/// A workload: its name and why it is in the benchmark.
// `BENCHMARK.json` is checked against every field by a self-test.
#[cfg_attr(not(test), allow(dead_code))]
pub struct WorkloadSpec {
    /// `--workload` value.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "serve",
        why: "n=1 requests to trained GoogLeNet loaded from a .snapea artifact: mostly dense nn convs and other nn ops; optimizer and simulator bypassed",
    },
    WorkloadSpec {
        name: "evaluate",
        why: "the paper's evaluation loop on all four trained nets: profile_network exec walks plus SnaPEA and EYERISS simulation; the only multi-threaded pool",
    },
    WorkloadSpec {
        name: "compile",
        why: "Algorithm 1 then compile, to_bytes and from_bytes on trained AlexNet and GoogLeNet: the optimizer's passes, which run nowhere else",
    },
];

/// An end-to-end metric.
// `BENCHMARK.json` is checked against every field by a self-test.
#[cfg_attr(not(test), allow(dead_code))]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p90",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "items_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "macs_skipped_frac",
        unit: "frac",
        better: "higher",
        bound: 0.05,
    },
    EndToEnd {
        name: "top1_agreement",
        unit: "frac",
        better: "higher",
        bound: 0.2,
    },
    EndToEnd {
        name: "sim_speedup_x",
        unit: "x",
        better: "higher",
        bound: 0.02,
    },
    EndToEnd {
        name: "sim_energy_reduction_x",
        unit: "x",
        better: "higher",
        bound: 0.02,
    },
];

/// A per-layer metric.
// `BENCHMARK.json` is checked against every field by a self-test.
#[cfg_attr(not(test), allow(dead_code))]
pub struct PerLayer {
    /// Metric name, `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics every workload reports with `--trace 1`. A layer
/// the workload never reaches reports 0.
pub const PER_LAYER: [PerLayer; 29] = [
    pl("artifact.load_ms", "ms", "lower"),
    pl("artifact.bytes", "B", "lower"),
    pl("artifact.prep_ms", "ms", "lower"),
    pl("artifact.compile_ms", "ms", "lower"),
    pl("artifact.codec_ms", "ms", "lower"),
    pl("exec.conv_ms", "ms", "lower"),
    pl("exec.ns_per_mac", "ns", "lower"),
    pl("exec.macs_performed", "count", "lower"),
    pl("exec.macs_dense", "count", "lower"),
    pl("exec.lane_window_frac", "frac", "higher"),
    pl("exec.plan_hit_frac", "frac", "higher"),
    pl("exec.false_negative_rate", "frac", "lower"),
    pl("nn.dense_conv_ms", "ms", "lower"),
    pl("nn.other_ms", "ms", "lower"),
    pl("spec_net.profile_ms", "ms", "lower"),
    pl("accel.workload_ms", "ms", "lower"),
    pl("accel.simulate_ms", "ms", "lower"),
    pl("accel.ns_per_sim_layer", "ns", "lower"),
    pl("accel.sim_cycles", "count", "lower"),
    pl("optimizer.run_ms", "ms", "lower"),
    pl("optimizer.kernels_profiled", "count", "lower"),
    pl("optimizer.probes", "count", "lower"),
    pl("optimizer.global_iterations", "count", "lower"),
    pl("par.invocations", "count", "lower"),
    pl("par.tasks", "count", "lower"),
    pl("par.busy_frac", "frac", "higher"),
    pl("scratch.reuse_frac", "frac", "higher"),
    pl("trace.unattributed_frac", "frac", "lower"),
    pl("trace.overhead_x", "x", "lower"),
];

/// The unit of metric `name` in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// each metric as `{"value", "unit"}`. Fails on a metric missing from the
/// tables or a non-finite value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64)],
) -> Result<String, String> {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let unit = unit_of(name).ok_or_else(|| format!("metric {name} is in no table"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snapea_obs::Json;

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        obj.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    fn s(j: &Json) -> &str {
        j.as_str().expect("a string")
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = snapea_obs::json::parse(&text).expect("valid JSON");
        let workloads = field(&doc, "workloads").as_array().expect("array");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(s(field(j, "name")), w.name);
            assert_eq!(s(field(j, "why")), w.why);
        }
        let e2e = field(&doc, "end_to_end").as_array().expect("array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(s(field(j, "name")), m.name);
            assert_eq!(s(field(j, "unit")), m.unit);
            assert_eq!(s(field(j, "better")), m.better);
            assert_eq!(field(j, "bound").as_f64(), Some(m.bound), "{}", m.name);
        }
        let layers = field(&doc, "per_layer").as_array().expect("array");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(s(field(j, "name")), m.name);
            assert_eq!(s(field(j, "unit")), m.unit);
            assert_eq!(s(field(j, "better")), m.better);
        }
    }

    #[test]
    fn result_line_is_json_with_units() {
        let line = result_line(true, 3, 0, &[("latency_ms_p50", 1.25), ("setup_s", 0.5)]).unwrap();
        let doc = snapea_obs::json::parse(&line).unwrap();
        let m = field(field(&doc, "metrics"), "latency_ms_p50");
        assert_eq!(field(m, "value").as_f64(), Some(1.25));
        assert_eq!(s(field(m, "unit")), "ms");
        assert!(result_line(true, 1, 0, &[("nope", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &[("setup_s", f64::NAN)]).is_err());
    }
}
