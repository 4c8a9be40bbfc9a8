//! `compare`: two sets of runs against the bounds in `BENCHMARK.json`.
//!
//! A results file holds one run per line: the workload's name, a space,
//! and the result line that run printed last.

use std::collections::BTreeMap;

use duplo_sim::json::{Json, parse};

use crate::stats::{median, quartiles};

type Results = BTreeMap<String, Vec<Json>>;

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Parses `<workload> <result line>` lines, skipping blank ones.
fn parse_results(text: &str) -> Result<Results, String> {
    let mut results = Results::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let (workload, json) = line.split_once(' ').ok_or(format!(
            "line {}: expected `<workload> <result line>`",
            i + 1
        ))?;
        let run = parse(json).map_err(|e| format!("line {}: {e}", i + 1))?;
        results.entry(workload.to_string()).or_default().push(run);
    }
    Ok(results)
}

fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_results(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(run: &Json, metric: &str) -> Option<f64> {
    run.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// One metric's verdict between two sets of runs.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    /// Relative change of B's median against A's, positive = worse.
    pub worse_by: f64,
    /// Whether the change exceeds the bound.
    pub regression: bool,
}

/// Judges B against A for a metric where `lower` is better and `bound`
/// is the relative worsening allowed.
pub fn judge(a: &[f64], b: &[f64], lower: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let change = (mb - ma) / ma;
    let worse_by = if lower { change } else { -change };
    Verdict {
        worse_by,
        regression: worse_by > bound,
    }
}

/// `median [q1, q3] iqr%`, the spread relative to the median.
fn summary(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    format!("{m:.5} [{q1:.5}, {q3:.5}] {:.1}%", (q3 - q1) / m * 100.0)
}

/// `compare A B [--bounds FILE]`: per workload and end-to-end metric, the
/// medians, quartiles and relative spreads of both files and a verdict.
/// Exits 1 when any metric of B is worse than A's by more than its bound
/// or any run of B failed an operation.
pub fn compare_main(argv: &[String]) -> i32 {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds_path = it.next().cloned().unwrap_or_default();
        } else {
            files.push(a.clone());
        }
    }
    let [a_path, b_path] = files.as_slice() else {
        eprintln!("compare: needs two results files");
        return 2;
    };
    let loaded = (|| {
        Ok::<_, String>((
            read_results(a_path)?,
            read_results(b_path)?,
            read_json(&bounds_path)?,
        ))
    })();
    let (a, b, bench) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let metrics: Vec<(String, bool, f64)> = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let mut regressions = 0;
    println!(
        "{:<14} {:<12} {:>36} {:>36} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] iqr", "B median [q1, q3] iqr", "B vs A", "bound"
    );
    for (w, runs_b) in &b {
        let Some(runs_a) = a.get(w) else { continue };
        let failed = runs_b
            .iter()
            .filter(|r| r.get("correct") != Some(&Json::Bool(true)))
            .count();
        if failed > 0 {
            println!("{w:<14} {failed} run(s) of B failed an operation");
            regressions += 1;
        }
        for (name, lower, bound) in &metrics {
            let va: Vec<f64> = runs_a.iter().filter_map(|r| value(r, name)).collect();
            let vb: Vec<f64> = runs_b.iter().filter_map(|r| value(r, name)).collect();
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = judge(&va, &vb, *lower, *bound);
            regressions += usize::from(v.regression);
            println!(
                "{w:<14} {name:<12} {:>36} {:>36} {:>+7.2}% {:>5.0}%  {}",
                summary(&va),
                summary(&vb),
                v.worse_by * 100.0,
                bound * 100.0,
                if v.regression {
                    "worse"
                } else {
                    "within bound"
                }
            );
        }
    }
    i32::from(regressions > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_and_bound() {
        let a = [10.0, 10.0, 10.0];
        assert!(!judge(&a, &[10.5, 10.5, 10.5], true, 0.1).regression);
        assert!(judge(&a, &[11.5, 11.5, 11.5], true, 0.1).regression);
        assert!(!judge(&a, &[11.5, 11.5, 11.5], false, 0.1).regression);
        assert!(judge(&a, &[8.5, 8.5, 8.5], false, 0.1).regression);
        assert!((judge(&a, &[12.0], true, 0.1).worse_by - 0.2).abs() < 1e-12);
    }

    #[test]
    fn results_file_groups_runs_by_workload() {
        let line = |v: f64| {
            format!(
                r#"{{"attempted":1,"correct":true,"failed":0,"metrics":{{"iter_s":{{"unit":"s","value":{v}}}}}}}"#
            )
        };
        let text = format!(
            "serve_mix {}\n\nlayer_sweep {}\nserve_mix {}\n",
            line(1.5),
            line(7.0),
            line(2.5)
        );
        let r = parse_results(&text).unwrap();
        let iter_s =
            |w: &str| -> Vec<f64> { r[w].iter().filter_map(|run| value(run, "iter_s")).collect() };
        assert_eq!(iter_s("serve_mix"), [1.5, 2.5]);
        assert_eq!(iter_s("layer_sweep"), [7.0]);
        assert!(parse_results("serve_mix").is_err());
        assert!(parse_results("serve_mix {").is_err());
    }
}
