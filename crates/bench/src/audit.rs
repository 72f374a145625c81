//! The `repro audit` subcommand: run the `ppr-analysis` static pass over
//! the workspace, print the human report, optionally write the
//! machine-readable findings file, and gate against a committed
//! suppression baseline.
//!
//! JSON rendering lives here (not in `ppr-analysis`) because this crate
//! owns the workspace's hand-rolled [`crate::json`] layer — the analyzer
//! stays a pure-std data producer.
//!
//! Exit codes: `0` clean, `1` violations or baseline regression, `2`
//! usage / IO errors (matching `bench-compare`'s convention).

use crate::json::{obj, Json};
use ppr_analysis::{find_workspace_root, run_audit, AuditReport};
use std::collections::BTreeMap;
use std::path::Path;

/// Render the audit report as the `AUDIT_baseline.json` / `--json`
/// document: schema marker, summary counters, every finding (violations
/// and allowed), and the per-(file, rule) suppression ledger the
/// baseline gate compares.
pub fn report_to_json(report: &AuditReport) -> Json {
    let findings: Vec<Json> = report
        .findings
        .iter()
        .map(|f| {
            let mut m = vec![
                ("file", Json::Str(f.path.clone())),
                ("line", Json::Num(f.line as f64)),
                ("rule", Json::Str(f.rule.clone())),
                ("message", Json::Str(f.message.clone())),
            ];
            if let Some(reason) = &f.allowed {
                m.push(("allowed", Json::Str(reason.clone())));
            }
            Json::Obj(m.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        })
        .collect();
    let allows: Vec<Json> = report
        .allow_counts()
        .into_iter()
        .map(|((file, rule), count)| {
            obj([
                ("file", Json::Str(file)),
                ("rule", Json::Str(rule)),
                ("count", Json::Num(count as f64)),
            ])
        })
        .collect();
    obj([
        ("schema", Json::Str("repro-audit/v1".into())),
        ("files_scanned", Json::Num(report.files_scanned as f64)),
        (
            "violations",
            Json::Num(report.violations().count() as f64),
        ),
        ("allowed", Json::Num(report.allowed().count() as f64)),
        ("findings", Json::Arr(findings)),
        ("allow_counts", Json::Arr(allows)),
    ])
}

/// Extract the `(file, rule) -> count` suppression ledger from a parsed
/// audit document.
pub fn allow_counts_of(doc: &Json) -> Result<BTreeMap<(String, String), usize>, String> {
    let arr = doc
        .get("allow_counts")
        .and_then(Json::as_array)
        .ok_or("missing allow_counts array")?;
    let mut out = BTreeMap::new();
    for entry in arr {
        let file = entry
            .get("file")
            .and_then(Json::as_str)
            .ok_or("allow_counts entry missing file")?;
        let rule = entry
            .get("rule")
            .and_then(Json::as_str)
            .ok_or("allow_counts entry missing rule")?;
        let count = entry
            .get("count")
            .and_then(Json::as_f64)
            .ok_or("allow_counts entry missing count")? as usize;
        out.insert((file.to_string(), rule.to_string()), count);
    }
    Ok(out)
}

/// Compare fresh suppression counts against the committed baseline:
/// every *new* or *grown* (file, rule) suppression is a regression —
/// annotations may move or disappear freely, but adding one requires
/// updating `AUDIT_baseline.json` in the same change, which puts the
/// new justification in front of a reviewer.
pub fn baseline_regressions(
    baseline: &BTreeMap<(String, String), usize>,
    fresh: &BTreeMap<(String, String), usize>,
) -> Vec<String> {
    let mut problems = Vec::new();
    for ((file, rule), &count) in fresh {
        let allowed = baseline.get(&(file.clone(), rule.clone())).copied().unwrap_or(0);
        if count > allowed {
            problems.push(format!(
                "{file}: {count} audit:allow({rule}) annotation(s), baseline allows {allowed} \
                 — update AUDIT_baseline.json if the new suppression is justified"
            ));
        }
    }
    problems
}

/// Notes on ledger findings whose recorded `line` no longer matches the
/// live audit. Ledger and live suppressed findings are grouped by
/// (file, rule, justification) and paired in line order within each
/// group; a pair on different lines is reported as moved, and a ledger
/// finding left without a live partner as gone. Line numbers drift
/// whenever code above an annotation moves, so these are notes for
/// refreshing `AUDIT_baseline.json`, not gate failures.
pub fn ledger_line_drift(doc: &Json, report: &AuditReport) -> Result<Vec<String>, String> {
    type Group = (String, String, String);
    let mut ledger: BTreeMap<Group, Vec<u32>> = BTreeMap::new();
    let entries = doc
        .get("findings")
        .and_then(Json::as_array)
        .ok_or("missing findings array")?;
    for entry in entries {
        let Some(reason) = entry.get("allowed").and_then(Json::as_str) else {
            continue;
        };
        let field = |key: &str| {
            entry
                .get(key)
                .ok_or(format!("ledger finding missing {key}"))
        };
        let file = field("file")?
            .as_str()
            .ok_or("ledger finding file is not a string")?;
        let rule = field("rule")?
            .as_str()
            .ok_or("ledger finding rule is not a string")?;
        let line = field("line")?
            .as_f64()
            .ok_or("ledger finding line is not a number")?;
        ledger
            .entry((file.to_string(), rule.to_string(), reason.to_string()))
            .or_default()
            .push(line as u32);
    }
    let mut live: BTreeMap<Group, Vec<u32>> = BTreeMap::new();
    for f in report.allowed() {
        let reason = f.allowed.clone().unwrap_or_default();
        live.entry((f.path.clone(), f.rule.clone(), reason))
            .or_default()
            .push(f.line);
    }
    let mut notes = Vec::new();
    for ((file, rule, reason), mut lines) in ledger {
        let mut now = live
            .remove(&(file.clone(), rule.clone(), reason))
            .unwrap_or_default();
        lines.sort_unstable();
        now.sort_unstable();
        for (i, line) in lines.into_iter().enumerate() {
            match now.get(i) {
                Some(&at) if at == line => {}
                Some(&at) => notes.push(format!("{file}:{line} ({rule}) is now at line {at}")),
                None => notes.push(format!("{file}:{line} ({rule}) is no longer found")),
            }
        }
    }
    Ok(notes)
}

/// Run `repro audit [--json <path>] [--baseline <path>]`. Returns the
/// process exit code.
pub fn run(json_out: Option<&Path>, baseline_path: Option<&Path>) -> i32 {
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("audit: cannot determine working directory: {e}");
            return 2;
        }
    };
    let Some(root) = find_workspace_root(&cwd) else {
        eprintln!("audit: no workspace root (Cargo.toml with [workspace]) above {cwd:?}");
        return 2;
    };
    let report = match run_audit(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("audit: failed to scan workspace: {e}");
            return 2;
        }
    };
    print!("{}", report.render_text());

    if let Some(path) = json_out {
        let doc = report_to_json(&report);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("audit: cannot write {}: {e}", path.display());
            return 2;
        }
        println!("findings written to {}", path.display());
    }

    let mut exit = if report.is_clean() { 0 } else { 1 };

    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("audit: cannot read baseline {}: {e}", path.display());
                return 2;
            }
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("audit: baseline {} is not valid JSON: {e}", path.display());
                return 2;
            }
        };
        let baseline = match allow_counts_of(&doc) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("audit: baseline {}: {e}", path.display());
                return 2;
            }
        };
        let fresh = report.allow_counts();
        let problems = baseline_regressions(&baseline, &fresh);
        if problems.is_empty() {
            println!(
                "baseline: OK ({} suppressed finding(s) within the committed ledger)",
                report.allowed().count()
            );
        } else {
            println!("baseline: FAIL");
            for p in &problems {
                println!("  {p}");
            }
            exit = exit.max(1);
        }
        match ledger_line_drift(&doc, &report) {
            Ok(notes) => {
                for n in &notes {
                    println!("baseline: note: ledger finding {n}; refresh its line");
                }
            }
            Err(e) => println!("baseline: note: cannot compare ledger lines: {e}"),
        }
    }
    exit
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_analysis::Finding;

    fn sample_report() -> AuditReport {
        let mut r = AuditReport {
            findings: vec![
                Finding {
                    rule: "hash-iter".into(),
                    path: "crates/x/src/lib.rs".into(),
                    line: 10,
                    message: "iteration".into(),
                    allowed: Some("lookup only".into()),
                },
                Finding {
                    rule: "wall-clock".into(),
                    path: "crates/y/src/lib.rs".into(),
                    line: 3,
                    message: "Instant".into(),
                    allowed: None,
                },
            ],
            files_scanned: 2,
        };
        r.sort();
        r
    }

    #[test]
    fn json_document_roundtrips_and_carries_counts() {
        let r = sample_report();
        let doc = report_to_json(&r);
        let text = doc.render();
        let back = Json::parse(&text).expect("valid JSON");
        assert_eq!(back, doc);
        assert_eq!(back.get("violations").and_then(Json::as_f64), Some(1.0));
        assert_eq!(back.get("allowed").and_then(Json::as_f64), Some(1.0));
        let counts = allow_counts_of(&back).expect("ledger");
        assert_eq!(
            counts.get(&("crates/x/src/lib.rs".into(), "hash-iter".into())),
            Some(&1)
        );
    }

    #[test]
    fn baseline_gate_flags_new_and_grown_suppressions() {
        let mut baseline = BTreeMap::new();
        baseline.insert(("a.rs".to_string(), "hash-iter".to_string()), 1usize);
        // Unchanged: fine.
        assert!(baseline_regressions(&baseline, &baseline).is_empty());
        // Fewer than baseline: fine (annotations were removed).
        assert!(baseline_regressions(&baseline, &BTreeMap::new()).is_empty());
        // Grown count: regression.
        let mut grown = baseline.clone();
        grown.insert(("a.rs".into(), "hash-iter".into()), 2);
        assert_eq!(baseline_regressions(&baseline, &grown).len(), 1);
        // New (file, rule): regression.
        let mut new_site = baseline.clone();
        new_site.insert(("b.rs".into(), "serve-panic".into()), 1);
        assert_eq!(baseline_regressions(&baseline, &new_site).len(), 1);
    }

    #[test]
    fn ledger_line_drift_names_moved_and_vanished_findings() {
        let r = sample_report();
        // The report's own document: nothing drifted.
        assert!(ledger_line_drift(&report_to_json(&r), &r)
            .unwrap()
            .is_empty());

        let ledger = |line: u32, extra: bool| {
            let mut findings = vec![obj([
                ("file", Json::Str("crates/x/src/lib.rs".into())),
                ("line", Json::Num(f64::from(line))),
                ("rule", Json::Str("hash-iter".into())),
                ("allowed", Json::Str("lookup only".into())),
            ])];
            if extra {
                // Same group, a second site the live code no longer has.
                findings.push(findings[0].clone());
            }
            obj([("findings", Json::Arr(findings))])
        };
        let moved = ledger_line_drift(&ledger(7, false), &r).unwrap();
        assert_eq!(
            moved,
            vec!["crates/x/src/lib.rs:7 (hash-iter) is now at line 10"]
        );
        let gone = ledger_line_drift(&ledger(10, true), &r).unwrap();
        assert_eq!(
            gone,
            vec!["crates/x/src/lib.rs:10 (hash-iter) is no longer found"]
        );
        // A document without a findings array.
        assert!(ledger_line_drift(&Json::Null, &r).is_err());
    }

    #[test]
    fn malformed_baseline_is_rejected() {
        assert!(allow_counts_of(&Json::Null).is_err());
        let doc = Json::parse(r#"{"allow_counts": [{"file": "a.rs"}]}"#).unwrap();
        assert!(allow_counts_of(&doc).is_err());
    }
}
