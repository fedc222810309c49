//! Offline aggregation of an `events.jsonl` into a run summary: per-phase
//! wall time (from `span` events), training trajectory (`train/epoch`),
//! executor MAC savings (`exec/layer`), and simulator PE utilization
//! (`sim/layer`). Backs the `snapea-tool report` subcommand.

use crate::json::{parse, Json, JsonError};
use std::collections::BTreeMap;

/// Aggregated wall time for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// The full span path (`" > "`-joined).
    pub path: String,
    /// Number of times the span closed.
    pub count: u64,
    /// Total milliseconds across all closures (inclusive of child spans).
    pub total_ms: f64,
    /// Self (exclusive) milliseconds: total minus the time spent in child
    /// spans, reconstructed from the `span_id`/`parent_id` tree. For logs
    /// from builds without span ids this equals `total_ms`.
    pub self_ms: f64,
}

/// Training trajectory summary from `train/epoch` events.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSummary {
    /// Number of epoch events seen.
    pub epochs: u64,
    /// Loss reported by the last epoch.
    pub final_loss: f64,
    /// Accuracy reported by the last epoch (0–1), when present.
    pub final_accuracy: Option<f64>,
}

/// Executor MAC accounting from `exec/layer` events.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecSummary {
    /// Number of layer events.
    pub layers: u64,
    /// MACs a dense execution would perform.
    pub full_macs: u64,
    /// MACs actually performed under early termination.
    pub performed_macs: u64,
    /// Windows the executor finished one at a time after their tile of
    /// windows thinned (`windows_finished_alone` on the event; 0 on logs
    /// from older builds).
    pub windows_finished_alone: u64,
}

impl ExecSummary {
    /// Fraction of dense MACs avoided (0 when no dense MACs recorded).
    pub fn saved_fraction(&self) -> f64 {
        if self.full_macs == 0 {
            0.0
        } else {
            1.0 - self.performed_macs as f64 / self.full_macs as f64
        }
    }
}

/// Simulator PE statistics from `sim/layer` events.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Number of layer events.
    pub layers: u64,
    /// Total simulated cycles across layers.
    pub cycles: u64,
    /// Cycle-weighted mean PE utilization (0–1).
    pub mean_utilization: f64,
    /// Worst per-layer imbalance (mean fraction of cycles PEs spend waiting
    /// at the layer barrier, 0–1).
    pub max_imbalance: f64,
}

/// The aggregate of one event log.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Total events parsed.
    pub events: u64,
    /// Event count per kind.
    pub kinds: BTreeMap<String, u64>,
    /// Span aggregation rows, sorted by total time descending.
    pub phases: Vec<PhaseRow>,
    /// Training summary, when the log contains `train/epoch` events.
    pub train: Option<TrainSummary>,
    /// Executor summary, when the log contains `exec/layer` events.
    pub exec: Option<ExecSummary>,
    /// Simulator summary, when the log contains `sim/layer` events.
    pub sim: Option<SimSummary>,
}

fn f(e: &Json, key: &str) -> Option<f64> {
    e.get(key).and_then(Json::as_f64)
}

fn u(e: &Json, key: &str) -> Option<u64> {
    e.get(key).and_then(Json::as_u64)
}

impl Report {
    /// Parses a JSON Lines event log. Blank lines are skipped; a malformed
    /// line is an error (truncated logs should be diagnosed, not papered
    /// over).
    pub fn from_jsonl(text: &str) -> Result<Report, JsonError> {
        let mut report = Report::default();
        // Per-path (count, total_ms); self time needs a second pass over the
        // span records once every child's parent link has been seen.
        let mut spans: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        let mut span_records: Vec<(Option<u64>, f64, String)> = Vec::new(); // (id, ms, path)
        let mut child_ms: BTreeMap<u64, f64> = BTreeMap::new(); // parent id -> sum of child ms
        let mut util_weighted = 0.0f64;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let e = parse(line)?;
            report.events += 1;
            let kind = e
                .get("kind")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            *report.kinds.entry(kind.clone()).or_insert(0) += 1;
            match kind.as_str() {
                "span" => {
                    let path = e
                        .get("path")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string();
                    let ms = f(&e, "ms").unwrap_or(0.0);
                    let slot = spans.entry(path.clone()).or_insert((0, 0.0));
                    slot.0 += 1;
                    slot.1 += ms;
                    span_records.push((u(&e, "span_id"), ms, path));
                    if let Some(parent) = u(&e, "parent_id").filter(|&p| p != 0) {
                        *child_ms.entry(parent).or_insert(0.0) += ms;
                    }
                }
                "train/epoch" => {
                    let t = report.train.get_or_insert(TrainSummary {
                        epochs: 0,
                        final_loss: 0.0,
                        final_accuracy: None,
                    });
                    t.epochs += 1;
                    if let Some(loss) = f(&e, "loss") {
                        t.final_loss = loss;
                    }
                    if let Some(acc) = f(&e, "accuracy") {
                        t.final_accuracy = Some(acc);
                    }
                }
                "exec/layer" => {
                    let x = report.exec.get_or_insert(ExecSummary {
                        layers: 0,
                        full_macs: 0,
                        performed_macs: 0,
                        windows_finished_alone: 0,
                    });
                    x.layers += 1;
                    x.full_macs += u(&e, "full_macs").unwrap_or(0);
                    x.performed_macs += u(&e, "performed_macs").unwrap_or(0);
                    x.windows_finished_alone += u(&e, "windows_finished_alone").unwrap_or(0);
                }
                "sim/layer" => {
                    let s = report.sim.get_or_insert(SimSummary {
                        layers: 0,
                        cycles: 0,
                        mean_utilization: 0.0,
                        max_imbalance: 0.0,
                    });
                    s.layers += 1;
                    let cycles = u(&e, "cycles").unwrap_or(0);
                    s.cycles += cycles;
                    util_weighted += f(&e, "utilization").unwrap_or(0.0) * cycles as f64;
                    let imb = f(&e, "imbalance").unwrap_or(0.0);
                    if imb > s.max_imbalance {
                        s.max_imbalance = imb;
                    }
                }
                _ => {}
            }
        }
        if let Some(s) = report.sim.as_mut() {
            if s.cycles > 0 {
                s.mean_utilization = util_weighted / s.cycles as f64;
            }
        }
        // Exclusive time: each span's ms minus its direct children's, folded
        // back onto the span's path (negative residue from clock skew clamps
        // to zero).
        let mut self_by_path: BTreeMap<&str, f64> = BTreeMap::new();
        for (id, ms, path) in &span_records {
            let children = id.and_then(|i| child_ms.get(&i)).copied().unwrap_or(0.0);
            *self_by_path.entry(path.as_str()).or_insert(0.0) += (ms - children).max(0.0);
        }
        report.phases = spans
            .iter()
            .map(|(path, &(count, total_ms))| PhaseRow {
                path: path.clone(),
                count,
                total_ms,
                self_ms: self_by_path.get(path.as_str()).copied().unwrap_or(0.0),
            })
            .collect();
        report.phases.sort_by(|a, b| {
            b.self_ms
                .partial_cmp(&a.self_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(report)
    }

    /// The report as a JSON object (the `--json` shape of
    /// `snapea-tool report`).
    pub fn to_json(&self) -> Json {
        let kinds = Json::Obj(
            self.kinds
                .iter()
                .map(|(k, v)| (k.clone(), Json::U64(*v)))
                .collect(),
        );
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    Json::obj(vec![
                        ("path", Json::from(p.path.clone())),
                        ("count", Json::U64(p.count)),
                        ("total_ms", Json::F64(p.total_ms)),
                        ("self_ms", Json::F64(p.self_ms)),
                    ])
                })
                .collect(),
        );
        let mut pairs = vec![
            ("events".to_string(), Json::U64(self.events)),
            ("kinds".to_string(), kinds),
            ("phases".to_string(), phases),
        ];
        if let Some(t) = &self.train {
            pairs.push((
                "train".to_string(),
                Json::obj(vec![
                    ("epochs", Json::U64(t.epochs)),
                    ("final_loss", Json::F64(t.final_loss)),
                    (
                        "final_accuracy",
                        t.final_accuracy.map(Json::F64).unwrap_or(Json::Null),
                    ),
                ]),
            ));
        }
        if let Some(x) = &self.exec {
            pairs.push((
                "exec".to_string(),
                Json::obj(vec![
                    ("layers", Json::U64(x.layers)),
                    ("full_macs", Json::U64(x.full_macs)),
                    ("performed_macs", Json::U64(x.performed_macs)),
                    ("saved_fraction", Json::F64(x.saved_fraction())),
                    (
                        "windows_finished_alone",
                        Json::U64(x.windows_finished_alone),
                    ),
                ]),
            ));
        }
        if let Some(s) = &self.sim {
            pairs.push((
                "sim".to_string(),
                Json::obj(vec![
                    ("layers", Json::U64(s.layers)),
                    ("cycles", Json::U64(s.cycles)),
                    ("mean_utilization", Json::F64(s.mean_utilization)),
                    ("max_imbalance", Json::F64(s.max_imbalance)),
                ]),
            ));
        }
        Json::Obj(pairs)
    }

    /// The report as an aligned human-readable table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("events: {}\n", self.events));
        if !self.kinds.is_empty() {
            out.push_str("\nevent kinds\n");
            for (kind, count) in &self.kinds {
                out.push_str(&format!("  {kind:<28} {count:>8}\n"));
            }
        }
        if !self.phases.is_empty() {
            out.push_str(
                "\nphase                                        count   total ms    self ms\n",
            );
            for p in &self.phases {
                out.push_str(&format!(
                    "  {:<42} {:>5} {:>10.1} {:>10.1}\n",
                    p.path, p.count, p.total_ms, p.self_ms
                ));
            }
        }
        if let Some(t) = &self.train {
            out.push_str(&format!(
                "\ntraining: {} epochs, final loss {:.4}{}\n",
                t.epochs,
                t.final_loss,
                t.final_accuracy
                    .map(|a| format!(", accuracy {:.2}%", a * 100.0))
                    .unwrap_or_default()
            ));
        }
        if let Some(x) = &self.exec {
            out.push_str(&format!(
                "\nexecutor: {} layer runs, {} dense MACs, {} performed, {:.1}% saved\n",
                x.layers,
                x.full_macs,
                x.performed_macs,
                x.saved_fraction() * 100.0
            ));
            out.push_str(&format!(
                "  {} windows finished alone after their tile thinned\n",
                x.windows_finished_alone
            ));
        }
        if let Some(s) = &self.sim {
            out.push_str(&format!(
                "\nsimulator: {} layers, {} cycles, mean PE utilization {:.1}%, worst barrier wait {:.1}%\n",
                s.layers,
                s.cycles,
                s.mean_utilization * 100.0,
                s.max_imbalance * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> String {
        [
            r#"{"seq":0,"t_ms":0.1,"kind":"train/epoch","epoch":1,"loss":1.5,"accuracy":0.4}"#,
            r#"{"seq":1,"t_ms":0.2,"kind":"train/epoch","epoch":2,"loss":0.9,"accuracy":0.6}"#,
            r#"{"seq":2,"t_ms":0.3,"kind":"span","span_id":2,"parent_id":1,"name":"optimizer/local","path":"optimizer > optimizer/local","depth":2,"ms":4.0}"#,
            r#"{"seq":3,"t_ms":0.3,"kind":"span","span_id":1,"parent_id":0,"name":"optimizer","path":"optimizer","depth":1,"ms":10.0}"#,
            r#"{"seq":8,"t_ms":0.4,"kind":"span","span_id":3,"parent_id":0,"name":"optimizer","path":"optimizer","depth":1,"ms":5.0}"#,
            r#"{"seq":4,"t_ms":0.5,"kind":"exec/layer","layer":"conv1","full_macs":1000,"performed_macs":600,"windows_finished_alone":24}"#,
            r#"{"seq":5,"t_ms":0.6,"kind":"exec/layer","layer":"conv2","full_macs":1000,"performed_macs":400,"windows_finished_alone":16}"#,
            r#"{"seq":6,"t_ms":0.7,"kind":"sim/layer","layer":"conv1","cycles":100,"utilization":0.5,"imbalance":1.5}"#,
            r#"{"seq":7,"t_ms":0.8,"kind":"sim/layer","layer":"conv2","cycles":300,"utilization":0.9,"imbalance":1.1}"#,
            "",
        ]
        .join("\n")
    }

    #[test]
    fn aggregates_all_sections() {
        let r = Report::from_jsonl(&sample_log()).expect("parses");
        assert_eq!(r.events, 9);
        assert_eq!(r.kinds.get("train/epoch"), Some(&2));

        let t = r.train.as_ref().expect("train summary");
        assert_eq!(t.epochs, 2);
        assert_eq!(t.final_loss, 0.9);
        assert_eq!(t.final_accuracy, Some(0.6));

        let x = r.exec.as_ref().expect("exec summary");
        assert_eq!(x.full_macs, 2000);
        assert_eq!(x.performed_macs, 1000);
        assert!((x.saved_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(x.windows_finished_alone, 40);

        let s = r.sim.as_ref().expect("sim summary");
        assert_eq!(s.cycles, 400);
        // (0.5*100 + 0.9*300) / 400 = 0.8
        assert!((s.mean_utilization - 0.8).abs() < 1e-12);
        assert_eq!(s.max_imbalance, 1.5);

        assert_eq!(r.phases.len(), 2);
        // "optimizer" ran twice for 15ms total; 4ms of the first run was
        // spent inside "optimizer/local", so its self time is 11ms. Rows are
        // sorted by self time.
        assert_eq!(r.phases[0].path, "optimizer");
        assert_eq!(r.phases[0].count, 2);
        assert!((r.phases[0].total_ms - 15.0).abs() < 1e-12);
        assert!((r.phases[0].self_ms - 11.0).abs() < 1e-12);
        assert_eq!(r.phases[1].path, "optimizer > optimizer/local");
        assert!((r.phases[1].total_ms - 4.0).abs() < 1e-12);
        assert!((r.phases[1].self_ms - 4.0).abs() < 1e-12);
    }

    #[test]
    fn spans_without_ids_fall_back_to_total_as_self() {
        let log = concat!(
            "{\"seq\":0,\"t_ms\":0.1,\"kind\":\"span\",\"path\":\"legacy\",\"ms\":7.0}\n",
            "{\"seq\":1,\"t_ms\":0.2,\"kind\":\"span\",\"path\":\"legacy\",\"ms\":3.0}\n",
        );
        let r = Report::from_jsonl(log).unwrap();
        assert_eq!(r.phases.len(), 1);
        assert!((r.phases[0].total_ms - 10.0).abs() < 1e-12);
        assert!((r.phases[0].self_ms - 10.0).abs() < 1e-12);
    }

    #[test]
    fn text_and_json_render() {
        let r = Report::from_jsonl(&sample_log()).unwrap();
        let text = r.render_text();
        assert!(text.contains("events: 9"));
        assert!(text.contains("self ms"));
        assert!(text.contains("optimizer"));
        assert!(text.contains("50.0% saved"));
        assert!(text.contains("40 windows finished alone after their tile thinned"));
        assert!(text.contains("mean PE utilization 80.0%"));

        let j = r.to_json();
        assert_eq!(j.get("events").and_then(Json::as_u64), Some(9));
        let phases = j.get("phases").and_then(Json::as_array).unwrap();
        assert!(phases
            .iter()
            .all(|p| p.get("self_ms").and_then(Json::as_f64).is_some()));
        assert!(j
            .get("exec")
            .and_then(|x| x.get("saved_fraction"))
            .is_some());
        assert_eq!(
            j.get("exec")
                .and_then(|x| x.get("windows_finished_alone"))
                .and_then(Json::as_u64),
            Some(40)
        );
        // The JSON form must itself parse back.
        let round = crate::json::parse(&j.to_string()).unwrap();
        assert_eq!(round.get("events").and_then(Json::as_u64), Some(9));
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(Report::from_jsonl("{\"kind\":\"a\"}\nnot json\n").is_err());
    }

    #[test]
    fn empty_log_is_empty_report() {
        let r = Report::from_jsonl("\n\n").unwrap();
        assert_eq!(r.events, 0);
        assert!(r.train.is_none() && r.exec.is_none() && r.sim.is_none());
    }
}
