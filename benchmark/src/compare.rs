//! `compare <a.json> <b.json>`: applies the bounds of `BENCHMARK.json`
//! to two result files written by `all --runs N`, one row per
//! (end-to-end metric, workload). `a` is the baseline.
//!
//! A row is *unresolved* when either side's run-to-run spread (distance
//! between first and third quartile, as a share of the median) exceeds
//! the metric's bound — unless every run of `b` reads better than every
//! run of `a`. Counts that repeat exactly on each side but differ
//! between the sides are listed after the table.

use crate::json::{self, Json};
use crate::metrics::{median, quartiles, Better, MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;

/// Values of one metric on one workload, over a file's runs.
type Samples = BTreeMap<(String, String), Vec<f64>>;

struct ResultFile {
    /// End-to-end and per-layer metric values by (workload, metric).
    samples: Samples,
    /// Result digests by workload.
    digests: BTreeMap<String, Vec<String>>,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array (write it with `all --out`)"))?;
    let mut file = ResultFile {
        samples: Samples::new(),
        digests: BTreeMap::new(),
    };
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a run without a workload"))?;
        if let Some(digest) = run.get("result_digest").and_then(Json::as_str) {
            file.digests
                .entry(workload.to_owned())
                .or_default()
                .push(digest.to_owned());
        }
        let metrics = run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                file.samples
                    .entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(file)
}

/// Outcome of one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Within,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// Run-to-run spread exceeds the bound: no verdict.
    Unresolved,
}

/// By what share of `a`'s median `b`'s median is worse (negative:
/// better), in the metric's own direction.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Interquartile range as a share of the median; `None` below 2 runs.
fn spread(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|[q1, q2, q3]| (q3 - q1) / q2)
}

/// Judges one row.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let wide = |values| spread(values).is_none_or(|s| s > bound);
    let b_beats_a = a
        .iter()
        .all(|&x| b.iter().all(|&y| worsening(def, x, y) < 0.0));
    if (wide(a) || wide(b)) && !b_beats_a {
        Verdict::Unresolved
    } else if worsening(def, median(a), median(b)) > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

fn describe(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}] n={}", values.len()),
        None => format!("{:.4} n={}", median(values), values.len()),
    }
}

/// Prints the comparison; `Ok(false)` if any row regressed.
///
/// # Errors
/// A message if a file cannot be read or is not a result file.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("# a = {path_a} (baseline), b = {path_b}");
    println!("# median [q1, q3] n; change = b's median against a's, + is worse");
    let mut regressed = 0;
    let mut unresolved = 0;
    for workload in &WORKLOADS {
        for def in &END_TO_END {
            let key = (workload.name.to_owned(), def.name.to_owned());
            let (Some(va), Some(vb)) = (a.samples.get(&key), b.samples.get(&key)) else {
                println!("{:<15} {:<14} missing on one side", workload.name, def.name);
                continue;
            };
            let verdict = judge(def, va, vb);
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{:<15} {:<14} a {:<38} b {:<38} change {:+.2}% (bound {:.0}%) {}",
                workload.name,
                def.name,
                describe(va),
                describe(vb),
                100.0 * worsening(def, median(va), median(vb)),
                100.0 * def.bound.unwrap_or(0.0),
                match verdict {
                    Verdict::Within => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }

    println!("# counts that repeat exactly on each side but differ between them:");
    let mut changed = 0;
    let constant = |values: &Vec<f64>| values.windows(2).all(|w| w[0] == w[1]).then(|| values[0]);
    for workload in &WORKLOADS {
        for def in PER_LAYER.iter().filter(|d| d.unit == "count") {
            let key = (workload.name.to_owned(), def.name.to_owned());
            let sides = a.samples.get(&key).zip(b.samples.get(&key));
            if let Some((x, y)) = sides.and_then(|(va, vb)| constant(va).zip(constant(vb))) {
                if x != y {
                    changed += 1;
                    println!("{:<15} {:<30} {x} -> {y}", workload.name, def.name);
                }
            }
        }
        let digest = |file: &ResultFile| {
            let all = file.digests.get(workload.name)?;
            all.windows(2).all(|w| w[0] == w[1]).then(|| all[0].clone())
        };
        match (digest(&a), digest(&b)) {
            (Some(x), Some(y)) if x != y => {
                changed += 1;
                println!("{:<15} {:<30} {x} -> {y}", workload.name, "result_digest");
            }
            (None, _) | (_, None) => {
                changed += 1;
                println!(
                    "{:<15} {:<30} differs between runs of one side",
                    workload.name, "result_digest"
                );
            }
            _ => {}
        }
    }
    println!("# {regressed} regressed, {unresolved} unresolved, {changed} exact counts changed");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn rows_are_judged_by_bound_and_spread() {
        let wall = def("wall_s"); // lower is better, bound 0.25
        let steady = [10.0, 10.1, 10.2, 10.1];
        assert_eq!(
            judge(wall, &steady, &[11.5, 11.6, 11.4, 11.5]),
            Verdict::Within
        );
        assert_eq!(
            judge(wall, &steady, &[13.5, 13.6, 13.4, 13.5]),
            Verdict::Regressed
        );
        // Spread beyond the bound on one side: no verdict ...
        let noisy = [8.0, 14.0, 9.0, 13.5];
        assert_eq!(judge(wall, &steady, &noisy), Verdict::Unresolved);
        // ... unless every run of b beats every run of a.
        assert_eq!(judge(wall, &noisy, &[5.0, 5.1, 5.2, 5.0]), Verdict::Within);
        // A single run has no quartiles.
        assert_eq!(judge(wall, &[10.0], &[10.0]), Verdict::Unresolved);

        let rate = def("samples_per_s"); // higher is better
        assert_eq!(
            judge(rate, &[100.0, 101.0, 99.0], &[70.0, 71.0, 69.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(rate, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Within
        );
    }
}
