//! `compare a b`: one row per (workload, metric) of two sets of result
//! files, with both values, the ratio with its base, the bound, and a
//! verdict that never calls a noisy pair unchanged or regressed.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The runs of one side, grouped by workload.
#[derive(Default)]
struct Side {
    /// workload -> metric -> one value per run
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workloads with at least one run flagged noisy or incorrect
    tainted: BTreeMap<String, &'static str>,
    /// workload -> the conditions its runs were made under; values of runs
    /// made under different conditions have no common median
    conditions: BTreeMap<String, Conditions>,
}

/// What must be equal for two runs of a workload to be comparable.
#[derive(Clone, PartialEq, Debug)]
struct Conditions {
    graph: String,
    seconds: f64,
    traced: bool,
}

fn load(path: &Path, side: &mut Side) -> Result<(), String> {
    if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
            })
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("{}: no result-*.json files", path.display()));
        }
        return files.iter().try_for_each(|f| load(f, side));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{}: no workload", path.display()))?
        .to_string();
    let conditions = (|| {
        Some(Conditions {
            graph: doc.get("graph")?.as_str()?.to_string(),
            seconds: doc.get("seconds")?.as_f64()?,
            traced: doc.get("traced")?.as_bool()?,
        })
    })()
    .ok_or_else(|| format!("{}: no graph, seconds or traced", path.display()))?;
    match side.conditions.get(&workload) {
        Some(first) if *first != conditions => {
            return Err(format!(
                "{}: {workload} was run under {conditions:?}, other runs of this set under {first:?}",
                path.display()
            ));
        }
        _ => side.conditions.insert(workload.clone(), conditions),
    };
    let noisy = doc
        .get("host")
        .and_then(|h| h.get("noisy"))
        .and_then(Json::as_bool)
        .unwrap_or(false);
    if noisy {
        side.tainted.entry(workload.clone()).or_insert("noisy run");
    }
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        side.tainted.insert(workload.clone(), "incorrect run");
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{}: no metrics", path.display()))?;
    let by_metric = side.values.entry(workload).or_default();
    for (name, m) in metrics {
        if let Some(value) = m.get("value").and_then(Json::as_f64) {
            by_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(())
}

/// How a metric is judged: end-to-end metrics against their bound,
/// per-layer metrics by direction only (they have no bound).
fn judged(name: &str) -> Option<(Better, Option<f64>)> {
    if let Some(m) = spec::END_TO_END.iter().find(|m| m.name == name) {
        return Some((m.better, Some(m.bound)));
    }
    spec::per_layer()
        .into_iter()
        .find(|(n, _, _)| n == name)
        .map(|(_, _, better)| (better, None))
}

/// The verdict for one (workload, metric): `a` is the base, `b` the
/// candidate.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64, tainted: bool) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // A spread wider than the bound cannot resolve a change of the bound's
    // size, whatever the medians say.
    let blurred = [a, b]
        .iter()
        .any(|v| v.len() >= 3 && stats::quartile_spread(v) > bound);
    if tainted || blurred || !ma.is_finite() || !mb.is_finite() {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => mb > ma * (1.0 + bound),
        Better::Higher => mb < ma * (1.0 - bound),
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the table; returns how many rows are `worse`.
pub fn compare(a: &Path, b: &Path) -> Result<usize, String> {
    let (mut side_a, mut side_b) = (Side::default(), Side::default());
    load(a, &mut side_a)?;
    load(b, &mut side_b)?;
    println!(
        "{:<20} {:<40} {:>14} {:>14} {:>18} {:>7} {:>6}  verdict",
        "workload", "metric", "a (base)", "b", "b/a (base a)", "bound", "runs"
    );
    let mut worse = 0;
    for (workload, metrics_a) in &side_a.values {
        let Some(metrics_b) = side_b.values.get(workload) else {
            println!("{workload:<20} only in a");
            continue;
        };
        if side_a.conditions[workload] != side_b.conditions[workload] {
            return Err(format!(
                "{workload}: a was run under {:?}, b under {:?}",
                side_a.conditions[workload], side_b.conditions[workload]
            ));
        }
        let taint = side_a
            .tainted
            .get(workload)
            .or_else(|| side_b.tainted.get(workload));
        for (name, values_a) in metrics_a {
            let (Some(values_b), Some((better, bound))) = (metrics_b.get(name), judged(name))
            else {
                continue;
            };
            // Per-layer metrics have no bound, so they get no verdict.
            let v = bound.map(|bound| verdict(values_a, values_b, better, bound, taint.is_some()));
            worse += usize::from(v == Some(Verdict::Worse));
            let (ma, mb) = (stats::median(values_a), stats::median(values_b));
            println!(
                "{:<20} {:<40} {:>14.6} {:>14.6} {:>18} {:>7} {:>6}  {}{}",
                workload,
                name,
                ma,
                mb,
                format!("{:.4} of {:.4}", mb / ma, ma),
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                format!("{}/{}", values_a.len(), values_b.len()),
                v.map_or("-", Verdict::as_str),
                match (v, taint) {
                    (Some(Verdict::Unresolved), Some(why)) => format!(" ({why})"),
                    (Some(Verdict::Unresolved), None) => " (spread exceeds bound)".to_string(),
                    _ => String::new(),
                }
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_noise_and_spread() {
        let lower = |a: &[f64], b: &[f64]| verdict(a, b, Better::Lower, 0.10, false);
        assert_eq!(lower(&[100.0], &[109.0]), Verdict::Ok);
        assert_eq!(lower(&[100.0], &[111.0]), Verdict::Worse);
        assert_eq!(lower(&[100.0], &[50.0]), Verdict::Ok);
        let higher = |a: &[f64], b: &[f64]| verdict(a, b, Better::Higher, 0.10, false);
        assert_eq!(higher(&[100.0], &[91.0]), Verdict::Ok);
        assert_eq!(higher(&[100.0], &[89.0]), Verdict::Worse);
        // A noisy pair is never unchanged and never regressed.
        assert_eq!(
            verdict(&[100.0], &[200.0], Better::Lower, 0.10, true),
            Verdict::Unresolved
        );
        // Nor is one whose own runs disagree by more than the bound.
        assert_eq!(
            lower(&[80.0, 100.0, 130.0, 100.0], &[100.0, 100.0, 100.0, 100.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            lower(&[99.0, 100.0, 101.0, 100.0], &[120.0, 121.0, 119.0, 120.0]),
            Verdict::Worse
        );
    }

    #[test]
    fn runs_made_under_different_conditions_are_not_compared() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-compare");
        std::fs::create_dir_all(&dir).unwrap();
        let write = |file: &str, graph: &str, seconds: f64| {
            let doc = Json::obj(vec![
                ("workload", Json::str("steady_point")),
                ("graph", Json::str(graph)),
                ("seconds", Json::Num(seconds)),
                ("traced", Json::Bool(false)),
                ("correct", Json::Bool(true)),
                ("metrics", Json::obj(vec![])),
            ]);
            let path = dir.join(file);
            std::fs::write(&path, doc.encode_pretty()).unwrap();
            path
        };
        let a = write("result-a.json", "grid64", 15.0);
        let same = write("result-same.json", "grid64", 15.0);
        let other_graph = write("result-graph.json", "grid32", 15.0);
        let other_window = write("result-window.json", "grid64", 3.0);
        assert_eq!(compare(&a, &same), Ok(0));
        assert!(compare(&a, &other_graph).is_err());
        assert!(compare(&a, &other_window).is_err());
        // Nor may one side mix them.
        assert!(compare(&dir, &a).is_err());
    }
}
