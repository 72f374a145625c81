//! `compare <a.json> <b.json>`: two results files, metric by metric.
//!
//! Per (workload, metric) it prints both medians with their spreads, the
//! ratio `b / a` (base: `a`), and for a bounded metric a verdict against
//! the bound in `BENCHMARK.json`: `ok`, `worse`, or `unresolved` when
//! either side's run-to-run spread is wider than the bound.

use crate::result::RunResult;
use crate::spec::{self, Better, MetricDef};
use crate::stats;

/// Counts that depend only on code and seed, never on timing: two runs of
/// the same code on the same seed must agree on them exactly.
const EXACT: &[&str] = &[
    "index_bytes_per_edge",
    "partition.hub_count",
    "partition.depth",
    "core.hgpa.stored_entries",
    "core.hgpa.space_skew",
    "core.hgpa.reply_entries_per_source",
    "core.persist.file_bytes",
    "wire.frame.bytes_per_entry",
    "max_rate_ok",
];

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    /// Inter-quartile spread over the file's runs as a share of the median;
    /// with a single run, the spread over that run's own segments.
    pub spread: f64,
    pub runs: usize,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    /// An exact count that matches / differs.
    Same,
    Differs,
    /// A layer metric: no bound, no verdict.
    Unbounded,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "differs",
            Verdict::Unbounded => "-",
        }
    }
}

fn side(runs: &[RunResult], workload: &str, trace: bool, metric: &str) -> Option<Side> {
    let samples: Vec<_> = runs
        .iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric))
        .collect();
    let values: Vec<f64> = samples.iter().map(|s| s.value).collect();
    match values.len() {
        0 => None,
        1 => Some(Side {
            median: values[0],
            spread: samples[0].spread,
            runs: 1,
        }),
        n => Some(Side {
            median: stats::median(&values),
            spread: stats::spread(&values),
            runs: n,
        }),
    }
}

pub fn verdict(def: &MetricDef, a: Side, b: Side) -> Verdict {
    if EXACT.contains(&def.name) {
        return if a.median.to_bits() == b.median.to_bits() {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = def.bound else {
        return Verdict::Unbounded;
    };
    if a.spread.max(b.spread) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match def.better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Print the comparison; returns how many bounded metrics came out worse.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> usize {
    let mut worse = 0;
    for workload in spec::workload_names() {
        for (trace, table) in [(false, spec::END_TO_END), (true, spec::PER_LAYER)] {
            for def in table {
                let (Some(sa), Some(sb)) = (
                    side(a, workload, trace, def.name),
                    side(b, workload, trace, def.name),
                ) else {
                    continue;
                };
                // A layer idle on this workload on both sides says nothing.
                if trace && sa.median == 0.0 && sb.median == 0.0 {
                    continue;
                }
                let v = verdict(def, sa, sb);
                worse += usize::from(v == Verdict::Worse);
                let ratio = if sa.median == 0.0 {
                    f64::NAN
                } else {
                    sb.median / sa.median
                };
                println!(
                    "{workload} {name} a={am} ±{asp:.1}% (n={an}) b={bm} ±{bsp:.1}% (n={bn}) {unit} b/a={ratio:.4} (base a={am}) {better}-is-better{bound} {v}",
                    name = def.name,
                    am = sa.median,
                    asp = 100.0 * sa.spread,
                    an = sa.runs,
                    bm = sb.median,
                    bsp = 100.0 * sb.spread,
                    bn = sb.runs,
                    unit = def.unit,
                    better = def.better.as_str(),
                    bound = def.bound.map_or(String::new(), |b| format!(" bound={b}")),
                    v = v.as_str(),
                );
            }
        }
    }
    for (label, runs) in [("a", a), ("b", b)] {
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let incorrect = runs.iter().filter(|r| !r.correct).count();
        println!(
            "{label}: {} runs, {failed} failed operations, {incorrect} incorrect runs",
            runs.len()
        );
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(median: f64, spread: f64) -> Side {
        Side {
            median,
            spread,
            runs: 5,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let higher = MetricDef {
            name: "qps",
            unit: "1/s",
            better: Better::Higher,
            bound: Some(0.10),
        };
        let lower = MetricDef {
            name: "p50_ms",
            unit: "ms",
            better: Better::Lower,
            bound: Some(0.10),
        };
        assert_eq!(
            verdict(&higher, one(100.0, 0.01), one(95.0, 0.01)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&higher, one(100.0, 0.01), one(89.0, 0.01)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&higher, one(100.0, 0.01), one(150.0, 0.01)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&lower, one(10.0, 0.01), one(10.9, 0.01)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&lower, one(10.0, 0.01), one(11.1, 0.01)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&lower, one(10.0, 0.01), one(5.0, 0.01)),
            Verdict::Ok
        );
        // A spread wider than the bound on either side resolves nothing.
        assert_eq!(
            verdict(&lower, one(10.0, 0.12), one(20.0, 0.01)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&lower, one(10.0, 0.01), one(10.0, 0.12)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_counts_match_bit_for_bit_and_layers_have_no_verdict() {
        let hubs = spec::find_metric("partition.hub_count").expect("hub_count");
        assert_eq!(
            verdict(hubs, one(11520.0, 0.0), one(11520.0, 0.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(hubs, one(11520.0, 0.0), one(11521.0, 0.0)),
            Verdict::Differs
        );
        let get = spec::find_metric("serve.cache.get_us").expect("get_us");
        assert_eq!(
            verdict(get, one(1.0, 0.0), one(9.0, 0.0)),
            Verdict::Unbounded
        );
        for name in EXACT {
            assert!(spec::find_metric(name).is_some(), "{name} is not a metric");
        }
    }
}
