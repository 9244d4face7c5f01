//! One run of one workload: its rounds pooled, the metrics estimated from
//! them, and the result in both of its forms.

use crate::host::{HostProbe, HostRecord};
use crate::inputs;
use crate::json::Json;
use crate::layers;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, KindSamples, RunConfig, Window, Workload};

/// A note of the report: `(name, value, unit)`.
type Note = (String, f64, &'static str);
/// Named series of raw samples, for the result file.
type Samples = Vec<(String, Vec<f64>)>;

/// A finished run.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub graph: &'static str,
    pub traced: bool,
    /// The contract's metrics of this run: every end-to-end metric
    /// (untraced) or every per-layer metric (traced), `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Workload-specific extras and sample counts.
    pub notes: Vec<Note>,
    /// The samples each end-to-end timing is the median of.
    pub samples: Samples,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub faults: Vec<String>,
    pub input_hash: u64,
    pub host: HostRecord,
}

/// `{name: {"value": .., "unit": ..}}`, the shape the contract gives metrics.
fn table(rows: &[(String, f64, &'static str)]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(*unit)),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    )
}

impl RunResult {
    /// The last line of standard output: exactly the keys the contract
    /// names.
    pub fn contract_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", table(&self.metrics)),
        ])
        .encode()
    }

    /// Everything about the run, for the result file `compare` reads.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("graph", Json::str(self.graph)),
            ("traced", Json::Bool(self.traced)),
            ("input_hash", Json::str(format!("{:016x}", self.input_hash))),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_share",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "faults",
                Json::Arr(self.faults.iter().map(Json::str).collect()),
            ),
            ("metrics", table(&self.metrics)),
            ("notes", table(&self.notes)),
            (
                "samples",
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(name, values)| {
                            let values = values.iter().map(|&v| Json::Num(v)).collect();
                            (name.clone(), Json::Arr(values))
                        })
                        .collect(),
                ),
            ),
            ("host", self.host.to_json()),
        ])
    }

    /// The report a person reads: every metric by name with its unit.
    pub fn print_report(&self) {
        println!(
            "workload {}  graph {}  seed {}  seconds {}  trace {}  input_hash {:016x}",
            self.workload,
            self.graph,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.input_hash
        );
        for (name, value, unit) in &self.metrics {
            println!("  {name:<44} {value:>16.6} {unit}");
        }
        for (name, value, unit) in &self.notes {
            println!("  ({name:<42}) {value:>16.6} {unit}");
        }
        println!(
            "  attempted {}  failed {}  failed_share {:.6}  correct {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct
        );
        for fault in &self.faults {
            println!("  FAULT: {fault}");
        }
        let h = &self.host;
        println!(
            "  host: steal_share {:.4}  ref_mops {:.1} -> {:.1}  ref_mem_mops {:.2} -> {:.2}  cores_available {}  noisy {}",
            h.steal_share,
            h.ref_mops_before.0,
            h.ref_mops_after.0,
            h.ref_mops_before.1,
            h.ref_mops_after.1,
            h.cores_available,
            h.noisy()
        );
        println!(
            "  host: {} | {} | commit {}",
            h.cpu_model, h.rustc, h.commit
        );
    }
}

/// The end-to-end metrics from the pooled rounds, the notes that go with
/// them, and the samples behind them.
///
/// `slo_ok_share` is taken over the whole run: requests within the limit
/// over requests offered. Every repeated timing (set-ups, intervals,
/// batches, cold starts, restarts) is summarised by its median over the
/// run's samples; the best sample is printed as a note.
fn end_to_end(cfg: &RunConfig, w: &Window) -> (layers::Table, Vec<Note>, Samples) {
    let vertices = (cfg.preset.side * cfg.preset.side) as f64;
    let cycles = cfg.workload == Workload::BuildRestart;
    let applied: Vec<f64> = w.batches.iter().map(|b| b.applied_ms).collect();
    // `build_restart` sums each of its timings over its three kinds.
    let timing =
        |pick: fn(&[f64]) -> f64, pooled: &[f64], of_kind: fn(&KindSamples) -> &Vec<f64>| -> f64 {
            if cycles {
                w.kinds.iter().map(|k| pick(of_kind(k))).sum()
            } else {
                pick(pooled)
            }
        };
    let best = |v: &[f64]| stats::best(v, true);
    let counted = || w.intervals.iter().filter(|i| i.offered > 0);
    let within: usize = counted()
        .map(|i| {
            i.latency_ms
                .iter()
                .filter(|&&ms| ms <= cfg.preset.slo_ms)
                .count()
        })
        .sum();
    let offered: u64 = counted().map(|i| i.offered).sum();
    let rates = w.rates();
    let value = |name: &str| -> f64 {
        match name {
            "setup_s" => stats::median(&w.setup_s),
            "qps" => stats::median(&rates),
            "slo_ok_share" => within as f64 / offered as f64,
            "update_applied_ms" => timing(stats::median, &applied, |k| &k.applied_ms),
            "build_s" => timing(stats::median, &w.build_s, |k| &k.build_s),
            "restart_s" => timing(stats::median, &w.restart_s, |k| &k.restart_s),
            "index_bytes_per_vertex" if cycles => {
                w.kinds.last().map_or(0, |k| k.index_bytes) as f64 / vertices
            }
            "index_bytes_per_vertex" => w.index_bytes as f64 / vertices,
            "snapshot_bytes_per_vertex" if cycles => {
                w.kinds.iter().map(|k| k.snapshot_bytes).sum::<u64>() as f64 / vertices
            }
            "snapshot_bytes_per_vertex" => w.snapshot_bytes as f64 / vertices,
            other => unreachable!("no estimator for end-to-end metric {other}"),
        }
    };
    let table = spec::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), value(m.name)))
        .collect();

    // The request latencies are too unsteady on a shared 2-core host to be
    // held to a bound (see the README); they are printed per interval.
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for interval in counted().filter(|i| !i.latency_ms.is_empty()) {
        let mut latency = interval.latency_ms.clone();
        stats::sort(&mut latency);
        p50.push(stats::median_sorted(&latency));
        p99.push(stats::percentile_sorted(&latency, 0.99));
    }
    // The whole window's rate, and what each timing costs when the host
    // leaves the program alone.
    let mut notes: Vec<Note> = vec![
        ("qps.window".into(), w.qps(), "queries/s"),
        (
            "qps.best_interval".into(),
            stats::best(&rates, false),
            "queries/s",
        ),
        (
            "update_applied_ms.best".into(),
            timing(best, &applied, |k| &k.applied_ms),
            "ms",
        ),
        (
            "build_s.best".into(),
            timing(best, &w.build_s, |k| &k.build_s),
            "s",
        ),
        (
            "restart_s.best".into(),
            timing(best, &w.restart_s, |k| &k.restart_s),
            "s",
        ),
        (
            "req_p50_ms.median_interval".into(),
            stats::median(&p50),
            "ms",
        ),
        (
            "req_p99_ms.median_interval".into(),
            stats::median(&p99),
            "ms",
        ),
    ];
    // Every sample behind the figures above, for the result file.
    let mut samples = vec![
        ("setup_s".to_string(), w.setup_s.clone()),
        ("interval_qps".to_string(), rates),
    ];
    if cycles {
        notes.push(("cycles".into(), w.kinds[0].build_s.len() as f64, "count"));
        for k in &w.kinds {
            notes.push((
                format!("cold_start_s.{}", k.name),
                stats::median(&k.build_s),
                "s",
            ));
            notes.push((
                format!("restart_s.{}", k.name),
                stats::median(&k.restart_s),
                "s",
            ));
            samples.push((
                format!("update_applied_ms.{}", k.name),
                k.applied_ms.clone(),
            ));
            samples.push((format!("build_s.{}", k.name), k.build_s.clone()));
            samples.push((format!("restart_s.{}", k.name), k.restart_s.clone()));
        }
    } else {
        samples.push(("update_applied_ms".to_string(), applied));
        samples.push(("build_s".to_string(), w.build_s.clone()));
        samples.push(("restart_s".to_string(), w.restart_s.clone()));
    }
    (table, notes, samples)
}

/// One value per note name: the median over the rounds that reported it.
fn over_rounds(per_round: Vec<Note>) -> Vec<Note> {
    let mut names: Vec<(String, &'static str)> = Vec::new();
    for (name, _, unit) in &per_round {
        if !names.iter().any(|(n, _)| n == name) {
            names.push((name.clone(), unit));
        }
    }
    names
        .into_iter()
        .map(|(name, unit)| {
            let values: Vec<f64> = per_round
                .iter()
                .filter(|n| n.0 == name)
                .map(|n| n.1)
                .collect();
            (name, stats::median(&values), unit)
        })
        .collect()
}

pub fn run(cfg: &RunConfig, traced: bool) -> Result<RunResult, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let tracer = Tracer::new(traced);
    let host = HostProbe::start();

    // A traced run records spans in every other round, so that the tracing
    // overhead comes out of one process on one host state.
    let rounds = workloads::rounds(cfg, traced);
    let seconds = cfg.seconds / rounds as f64;
    let mut w = Window::default();
    let (mut plain_qps, mut spanned_qps) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let with_spans = traced && round % 2 == 1;
        let one = workloads::run_round(cfg, round, seconds, with_spans, &tracer)?;
        if with_spans {
            spanned_qps.push(one.qps());
        } else {
            plain_qps.push(one.qps());
        }
        w.absorb(one);
    }

    let mut faults = std::mem::take(&mut w.faults);
    if w.wrong > 0 {
        faults.push(format!(
            "{} of {} checked answers are wrong",
            w.wrong, w.checked
        ));
    }
    let mut notes = over_rounds(std::mem::take(&mut w.notes));
    notes.push(("rounds".to_string(), rounds as f64, "count"));
    notes.push(("oracle.checked".to_string(), w.checked as f64, "count"));
    notes.push(("requests".to_string(), w.offered() as f64, "count"));
    notes.push(("intervals".to_string(), w.intervals.len() as f64, "count"));
    notes.push((
        "update_batches".to_string(),
        w.batches.len() as f64,
        "count",
    ));

    let mut samples = Vec::new();
    let mut table: Vec<(String, f64)> = if traced {
        // The layers are replayed on the first round's pairs and batches.
        let initial = inputs::dataset(&cfg.preset);
        let plan = inputs::Plan {
            batches: layers::REPLAY_BATCHES,
            request_seconds: layers::REPLAY_REQUEST_SECONDS,
            ..workloads::plan(cfg, 0, seconds)
        };
        let replayed = inputs::generate(&initial, &plan);
        let mut table = layers::replay(
            &cfg.preset,
            &initial,
            &replayed,
            &cfg.out_dir,
            tracer.lane(true),
        )?;
        let (untraced, traced) = (stats::median(&plain_qps), stats::median(&spanned_qps));
        table.push(("trace.overhead_share".to_string(), 1.0 - traced / untraced));
        table.push(("trace.spans".to_string(), tracer.span_count() as f64));
        notes.push(("window.untraced_qps".to_string(), untraced, "queries/s"));
        notes.push(("window.traced_qps".to_string(), traced, "queries/s"));
        let path = cfg
            .out_dir
            .join(format!("trace-{}.json", cfg.workload.name()));
        let mut file =
            std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
        tracer
            .write_chrome_trace(&mut file)
            .and_then(|()| std::io::Write::flush(&mut file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        table
    } else {
        let (table, extra, raw) = end_to_end(cfg, &w);
        notes.extend(extra);
        samples = raw;
        table
    };
    let host = host.finish();
    if traced {
        table.push(("host.steal_share".to_string(), host.steal_share));
        table.push(("host.ref_mops".to_string(), host.ref_mops_after.0));
    }

    // Report in the order, and with the units, the spec declares.
    let declared: Vec<(String, &'static str)> = if traced {
        spec::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        match table.iter().find(|(n, _)| *n == name) {
            Some((_, value)) if value.is_finite() => metrics.push((name, *value, unit)),
            _ => faults.push(format!("metric {name} was not measured")),
        }
    }

    Ok(RunResult {
        workload: cfg.workload.name(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        graph: cfg.preset.name,
        traced,
        metrics,
        notes,
        samples,
        correct: faults.is_empty(),
        attempted: w.offered() + w.batches.len() as u64 + w.checked,
        failed: w.lost + w.failed_batches + w.wrong,
        faults,
        input_hash: inputs::combined_hash(&w.input_hashes),
        host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// A short run on the smallest dataset; every test gets its own
    /// directory because tests run side by side.
    fn config(workload: Workload, test: &str, flip_a_sample: bool) -> RunConfig {
        RunConfig {
            workload,
            seed: 11,
            seconds: 1.0,
            preset: inputs::GRID32,
            out_dir: std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-{test}-{}", workload.name())),
            flip_a_sample,
        }
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric_and_checks_its_answers() {
        for workload in Workload::ALL {
            let result = run(&config(workload, "e2e", false), false).unwrap();
            assert!(result.correct, "{}: {:?}", workload.name(), result.faults);
            assert_eq!(result.failed, 0, "{}", workload.name());
            let names: Vec<&str> = result.metrics.iter().map(|m| m.0.as_str()).collect();
            let declared: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, declared, "{}", workload.name());
            assert!(
                result.metrics.iter().all(|m| m.1 > 0.0),
                "{}: a metric is 0: {:?}",
                workload.name(),
                result.metrics
            );
            let checked = result
                .notes
                .iter()
                .find(|n| n.0 == "oracle.checked")
                .unwrap()
                .1;
            assert!(
                checked >= 100.0,
                "{}: only {checked} answers checked",
                workload.name()
            );
            // The contract's line: exactly its four keys, values with units.
            let line = Json::parse(&result.contract_line()).unwrap();
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                line.get("metrics")
                    .and_then(|m| m.get("qps"))
                    .and_then(|q| q.get("unit")),
                Some(&Json::str("queries/s"))
            );
        }
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric_and_writes_a_loadable_trace() {
        let cfg = config(Workload::ServeUnderUpdates, "trace", false);
        let result = run(&cfg, true).unwrap();
        assert!(result.correct, "{:?}", result.faults);
        let names: Vec<String> = result.metrics.iter().map(|m| m.0.clone()).collect();
        let declared: Vec<String> = spec::per_layer().into_iter().map(|m| m.0).collect();
        assert_eq!(names, declared);
        let text =
            std::fs::read_to_string(cfg.out_dir.join("trace-serve_under_updates.json")).unwrap();
        let trace = Json::parse(&text).unwrap();
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        let named = |name: &str| {
            events
                .iter()
                .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .count()
        };
        assert!(named("client.block") > 100);
        assert!(named("update.batch") >= 1);
        // Each stage of a batch's timeline is a child of that batch's wait.
        assert_eq!(named("update.stage.u2"), named("update.wait_applied"));
        assert!(named("restart.start_from_snapshot") >= 1);
        assert!(named("ladder.build") == 9);
    }

    #[test]
    fn one_flipped_sample_makes_the_run_incorrect() {
        let result = run(&config(Workload::SteadyPoint, "flip", true), false).unwrap();
        assert!(!result.correct);
        assert_eq!(result.failed, 1);
        assert!(result.faults[0].contains("checked answers are wrong"));
    }
}
