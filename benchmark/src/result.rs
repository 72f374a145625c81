//! What one run reports: the driver's last-line JSON object, the
//! `workload metric value unit` table, and the full record `compare` reads.

use crate::harness::{Args, Checks};
use crate::spec::{self, MetricDef};
use ppr_bench::json::{obj, Json};
use std::collections::BTreeMap;

/// One metric of one run: the reported value and, for a timing, the
/// inter-quartile spread of the per-segment values it is the median of (as
/// a share of that median).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub spread: f64,
}

/// Metric values gathered while a workload runs, keyed by a name of
/// [`spec::END_TO_END`] or [`spec::PER_LAYER`].
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, Sample>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_with_spread(name, value, 0.0);
    }

    pub fn set_with_spread(&mut self, name: &'static str, value: f64, spread: f64) {
        assert!(
            spec::find_metric(name).is_some(),
            "metric {name} is not in spec.rs"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, Sample { value, spread });
    }

    /// Median and spread of a timing's per-segment values.
    pub fn set_segments(&mut self, name: &'static str, per_segment: &[f64]) {
        self.set_with_spread(
            name,
            crate::stats::median(per_segment),
            crate::stats::spread(per_segment),
        );
    }
}

/// Where and on what a run was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Meta {
    pub host_cores: usize,
    pub rustc: String,
    pub git_commit: String,
    pub rates: [f64; 3],
}

impl Meta {
    pub fn from_env(host_cores: usize) -> Self {
        let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Self {
            host_cores,
            rustc: var("BENCH_RUSTC"),
            git_commit: var("BENCH_GIT_COMMIT"),
            rates: spec::RATES,
        }
    }
}

/// The full record of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Why `correct` is false, one line per violated check.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<String, Sample>,
    pub meta: Meta,
}

impl RunResult {
    /// Close a run: every metric of the mode's table is present — a layer
    /// the workload did not exercise reads 0; an end-to-end metric must
    /// have been measured.
    pub fn new(args: &Args, checks: Checks, gathered: Metrics, meta: Meta) -> Self {
        let table: &[MetricDef] = if args.trace {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        let metrics = table
            .iter()
            .map(|def| {
                let sample = match gathered.0.get(def.name) {
                    Some(s) => *s,
                    None if args.trace => Sample {
                        value: 0.0,
                        spread: 0.0,
                    },
                    None => panic!("end-to-end metric {} was not measured", def.name),
                };
                (def.name.to_string(), sample)
            })
            .collect();
        Self {
            workload: args.workload.clone(),
            trace: args.trace,
            seed: args.seed,
            seconds: args.seconds,
            attempted: checks.attempted,
            failed: checks.failed,
            correct: checks.failed == 0 && checks.violations.is_empty(),
            violations: checks.violations,
            metrics,
            meta,
        }
    }

    /// The object the driver reads off the last line of standard output.
    pub fn final_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let unit = spec::find_metric(name).map_or("", |m| m.unit);
                (
                    name.clone(),
                    obj([
                        ("value", Json::Num(s.value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        compact(&obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    /// `workload metric value unit` lines, one per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, s) in &self.metrics {
            let unit = spec::find_metric(name).map_or("", |m| m.unit);
            out.push_str(&format!("{} {} {} {}", self.workload, name, s.value, unit));
            if s.spread > 0.0 {
                out.push_str(&format!(" (spread {:.1}%)", 100.0 * s.spread));
            }
            out.push('\n');
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    obj([
                        ("value", Json::Num(s.value)),
                        ("spread", Json::Num(s.spread)),
                    ]),
                )
            })
            .collect();
        obj([
            ("workload", Json::Str(self.workload.clone())),
            ("trace", Json::Bool(self.trace)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("correct", Json::Bool(self.correct)),
            (
                "violations",
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
            ("host_cores", Json::Num(self.meta.host_cores as f64)),
            ("rustc", Json::Str(self.meta.rustc.clone())),
            ("git_commit", Json::Str(self.meta.git_commit.clone())),
            (
                "rates",
                Json::Arr(self.meta.rates.iter().map(|&r| Json::Num(r)).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Self, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("run record lacks number {k:?}"))
        };
        let text = |k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("run record lacks string {k:?}"))
        };
        let flag = |k: &str| match j.get(k) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("run record lacks flag {k:?}")),
        };
        let Some(Json::Obj(raw)) = j.get("metrics") else {
            return Err("run record lacks metrics".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in raw {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric {name} lacks {k:?}"))
            };
            metrics.insert(
                name.clone(),
                Sample {
                    value: field("value")?,
                    spread: field("spread")?,
                },
            );
        }
        let rates: Vec<f64> = j
            .get("rates")
            .and_then(Json::as_array)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default();
        let rates: [f64; 3] = rates
            .try_into()
            .map_err(|_| "run record lacks three rates")?;
        Ok(Self {
            workload: text("workload")?,
            trace: flag("trace")?,
            seed: num("seed")? as u64,
            seconds: num("seconds")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            correct: flag("correct")?,
            violations: j
                .get("violations")
                .and_then(Json::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            metrics,
            meta: Meta {
                host_cores: num("host_cores")? as usize,
                rustc: text("rustc")?,
                git_commit: text("git_commit")?,
                rates,
            },
        })
    }
}

/// `Json::render` is indented; the driver wants one line. Strings are
/// rendered with their newlines escaped, so dropping each line's
/// indentation and the line breaks leaves the same document.
pub fn compact(j: &Json) -> String {
    j.render().lines().map(str::trim_start).collect()
}

/// Append `run` to the JSON array in `path` (created when absent).
pub fn append_to_file(path: &std::path::Path, run: &RunResult) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text)? {
            Json::Arr(items) => items,
            _ => return Err(format!("{} is not a JSON array", path.display())),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    runs.push(run.to_json());
    std::fs::write(path, Json::Arr(runs).render()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Read the runs a results file holds.
pub fn read_file(path: &std::path::Path) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    match Json::parse(&text)? {
        Json::Arr(items) => items.iter().map(RunResult::from_json).collect(),
        _ => Err(format!("{} is not a JSON array of runs", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(trace: bool) -> RunResult {
        let mut m = Metrics::default();
        if trace {
            m.set("trace.coverage", 0.93);
            m.set_segments("serve.cache.get_us", &[1.0, 2.0, 4.0]);
        } else {
            for def in spec::END_TO_END {
                m.set_with_spread(def.name, 1.25, 0.031);
            }
        }
        let meta = Meta {
            host_cores: 2,
            rustc: "rustc 1.0 \"quoted\"".into(),
            git_commit: "abc".into(),
            rates: [1.0, 2.0, 3.5],
        };
        let checks = Checks {
            attempted: 1000,
            ..Default::default()
        };
        RunResult::new(&args(trace), checks, m, meta)
    }

    fn args(trace: bool) -> Args {
        Args {
            workload: "hot".into(),
            seed: 9,
            seconds: 12.0,
            trace,
            results: None,
            started: exact_ppr::core::parallel::Stopwatch::start(),
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        for trace in [false, true] {
            let run = sample_run(trace);
            let text = run.to_json().render();
            let back = RunResult::from_json(&Json::parse(&text).expect("parses")).expect("reads");
            assert_eq!(back, run);
        }
    }

    #[test]
    fn final_line_is_one_line_with_exactly_the_contract_keys() {
        let run = sample_run(false);
        let line = run.final_line();
        assert!(!line.contains('\n'));
        let Json::Obj(top) = Json::parse(&line).expect("parses") else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = top.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(names, want);
        assert_eq!(
            metrics["qps"].get("unit").and_then(Json::as_str),
            Some("1/s")
        );
    }

    #[test]
    fn traced_run_reports_every_layer_and_zero_for_idle_ones() {
        let run = sample_run(true);
        assert_eq!(run.metrics.len(), spec::PER_LAYER.len());
        assert_eq!(run.metrics["wire.frame.encode_mib_s"].value, 0.0);
        assert_eq!(run.metrics["trace.coverage"].value, 0.93);
        assert_eq!(run.metrics["serve.cache.get_us"].value, 2.0);
    }

    #[test]
    fn violations_and_failures_make_a_run_incorrect() {
        let mut run = sample_run(false);
        assert!(run.correct);
        let mut checks = Checks::default();
        checks.require(false, || "hit ratio".into());
        run = RunResult::new(&args(true), checks, Metrics::default(), run.meta.clone());
        assert!(!run.correct);
        let mut checks = Checks::default();
        checks.check(false, || "wrong answer".into());
        run = RunResult::new(&args(true), checks, Metrics::default(), run.meta);
        assert!(!run.correct && run.failed == 1 && run.attempted == 1);
    }
}
