//! Structured results of a batch validation run, serializable to JSON.
//!
//! The same schema backs `incore-cli validate --json` (full corpus),
//! `incore-cli analyze --json` (a single kernel wrapped in a one-record
//! report), and `bench::fig3` (which post-processes the records). The
//! schema is versioned; bump [`SCHEMA_VERSION`] on breaking shape changes.
//!
//! Serialization is deterministic — field order is fixed by declaration
//! order and floats format reproducibly — so a parallel run serializes
//! byte-identically to a single-threaded one (see the determinism test in
//! `tests/determinism.rs`). The one deliberate exception is the trailing
//! [`RunTimings`] block, which records wall-clock observations; consumers
//! comparing reports must ignore it (zero it out before comparing).

use serde::Serialize;

use crate::cache::CacheStats;

/// Version of the JSON report shape. Additive, append-only fields (such
/// as the `timings` block) do not bump the version; only breaking shape
/// changes do.
pub const SCHEMA_VERSION: u32 = 1;

/// Minor schema version, carried inside the additive [`ObsSummary`]
/// block: bumped when that block grows fields. The major shape (every
/// field present without profiling) is still [`SCHEMA_VERSION`].
///
/// History: 1 = predictor timings + cache hit rate; 2 = disk-cache
/// counters (`disk_*`, present only when a `--cache-dir` was active).
pub const SCHEMA_MINOR: u32 = 2;

/// Per-predictor counter summary inside the optional `obs` block.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObsPredictorTimings {
    /// Stable predictor name (`"incore"`, `"mca"`, ...).
    pub predictor: String,
    /// Predict calls taken: one per block the predictors ran on (a block
    /// replayed from the persistent cache calls none).
    pub calls: u64,
    /// Total wall-clock across those calls, in nanoseconds.
    pub total_ns: u64,
    /// Mean wall-clock per call, in nanoseconds.
    pub mean_ns: f64,
}

/// Additive observability block, present only when the run was profiled
/// (`Session::profile(true)` / `incore-cli validate --profile`). Skipped
/// entirely from serialization otherwise, so non-profiling output stays
/// byte-identical to the pre-observability schema — the golden snapshot
/// in `tests/fixtures/schema_v1.txt` covers that shape and
/// `schema_v1_obs.txt` covers this one.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ObsSummary {
    /// Minor version of this block ([`SCHEMA_MINOR`]).
    pub schema_minor: u32,
    /// Per-predictor call/latency summaries, in session predictor order,
    /// with the reference (when one ran) appended last.
    pub predictors: Vec<ObsPredictorTimings>,
    /// Corpus-cache hit rate over kernel lookups (0..1); 0 for a corpus
    /// run, which parses each block where it is evaluated.
    pub cache_hit_rate: f64,
    /// Persistent result-cache hit rate over record lookups (0..1).
    /// Absent (with the other `disk_*` fields) when no `--cache-dir` was
    /// configured, so cache-less profiled output keeps its minor-1 shape.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub disk_hit_rate: Option<f64>,
    /// Records replayed from the persistent cache.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub disk_hits: Option<u64>,
    /// Records computed and written to the persistent cache.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub disk_misses: Option<u64>,
    /// Entries removed by the persistent cache's capacity bound.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub disk_evictions: Option<u64>,
}

/// Where the wall-clock time of a run went. Purely observational: two
/// runs over the same inputs produce identical reports *except* for this
/// block, so tools diffing reports must zero it first. The per-phase
/// fields are summed across worker threads (they can exceed `wall_ms` on
/// a parallel run); `wall_ms` is end-to-end for the whole batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RunTimings {
    /// End-to-end wall-clock of the run, in milliseconds.
    pub wall_ms: f64,
    /// Kernel decode time, summed over blocks (ms).
    pub parse_ms: f64,
    /// Reference (simulator) time, summed over blocks (ms).
    pub reference_ms: f64,
    /// Analytical predictor time, summed over blocks (ms).
    pub predictors_ms: f64,
    /// Time spent in the persistent result cache — probes, record
    /// decodes, and writes (ms).
    /// A cache-hit block books its time here, *not* under `parse_ms` /
    /// `reference_ms` / `predictors_ms`: replay must never double-count
    /// as compute.
    pub cache_ms: f64,
}

/// One predictor's verdict inside a record.
#[derive(Debug, Clone, Serialize)]
pub struct PredictorResult {
    /// Stable predictor name (`"incore"`, `"mca"`, ...).
    pub predictor: String,
    /// Predicted steady-state cycles per loop iteration.
    pub cycles_per_iter: f64,
    /// Relative prediction error against the record's measurement
    /// (positive = prediction faster). Absent when nothing was measured.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub rpe: Option<f64>,
    /// What the predictor thinks binds its number.
    pub bottleneck: String,
    /// Cycles of work per port; empty when the predictor has no per-port
    /// view.
    pub port_pressure: Vec<f64>,
    /// µ-ops per iteration after the predictor's decomposition.
    pub uops_per_iter: f64,
}

/// One validated block: a kernel variant on one machine, with every
/// predictor's verdict and the divergence rules' findings.
#[derive(Debug, Clone, Serialize)]
pub struct RecordReport {
    /// Kernel name (corpus kernel, or the input path for `analyze`).
    pub kernel: String,
    /// Compiler personality (empty for `analyze` inputs).
    pub compiler: String,
    /// Optimization level (empty for `analyze` inputs).
    pub opt: String,
    /// Chip label (`GCS`, `SPR`, `Genoa`).
    pub chip: String,
    /// Reference measurement in cycles/iteration, when one was taken.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub measured: Option<f64>,
    /// Every analytical predictor's verdict, in session predictor order.
    pub predictions: Vec<PredictorResult>,
    /// Divergence rule codes that fired on this record (`D001`, `D002`).
    pub divergence: Vec<String>,
}

impl RecordReport {
    /// The named predictor's verdict, if it ran.
    pub fn prediction(&self, predictor: &str) -> Option<&PredictorResult> {
        self.predictions.iter().find(|p| p.predictor == predictor)
    }
}

/// Summary statistics over a set of RPEs, mirroring the numbers quoted in
/// the paper's Fig. 3 discussion.
#[derive(Debug, Clone, Serialize)]
pub struct Summary {
    pub count: usize,
    /// Fraction of predictions on the optimistic (positive) side.
    pub optimistic_fraction: f64,
    /// Fraction within +0..10 % / +0..20 %.
    pub within_10: f64,
    pub within_20: f64,
    /// Fraction within ±10 % / ±20 % on either side.
    pub abs_within_10: f64,
    pub abs_within_20: f64,
    /// Number off by more than a factor of two (RPE ≤ −1.0).
    pub off_by_2x: usize,
    /// Mean RPE over the optimistic side only.
    pub mean_positive: f64,
    /// Mean |RPE| over everything.
    pub mean_abs: f64,
}

/// A predictor's summary over the whole run.
#[derive(Debug, Clone, Serialize)]
pub struct PredictorSummary {
    pub predictor: String,
    pub summary: Summary,
}

/// The full result of a batch validation run.
#[derive(Debug, Clone, Serialize)]
pub struct BatchReport {
    pub schema_version: u32,
    /// Machine labels covered, in evaluation order.
    pub archs: Vec<String>,
    /// Analytical predictor names, in evaluation order.
    pub predictors: Vec<String>,
    /// Name of the reference (measurement) predictor, if one ran.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub reference: Option<String>,
    pub records: Vec<RecordReport>,
    pub summaries: Vec<PredictorSummary>,
    /// Records with at least one divergence finding.
    pub divergent_records: usize,
    /// Records where the reference disagreed with every analytical model
    /// (`D002` — the serious kind).
    pub d002_records: usize,
    pub cache: CacheStats,
    /// Wall-clock observations — the only nondeterministic fields in the
    /// report (see [`RunTimings`]).
    pub timings: RunTimings,
    /// Observability block; `None` (and absent from the JSON) unless the
    /// run was profiled (see [`ObsSummary`]).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub obs: Option<ObsSummary>,
}

impl BatchReport {
    /// Assemble a report from evaluated records: computes the per-predictor
    /// summaries and the divergence counts. Used by `Session::run` for the
    /// corpus and by `incore-cli analyze --json` for one-record reports, so
    /// both emit the same schema.
    pub fn from_records(
        archs: Vec<String>,
        predictors: Vec<String>,
        reference: Option<String>,
        records: Vec<RecordReport>,
        cache: CacheStats,
    ) -> BatchReport {
        let summaries = predictors
            .iter()
            .map(|name| {
                let rpes: Vec<f64> = records
                    .iter()
                    .filter_map(|r| r.prediction(name).and_then(|p| p.rpe))
                    .collect();
                PredictorSummary {
                    predictor: name.clone(),
                    summary: summarize(&rpes),
                }
            })
            .collect();
        let divergent_records = records.iter().filter(|r| !r.divergence.is_empty()).count();
        let d002_records = records
            .iter()
            .filter(|r| r.divergence.iter().any(|c| c == "D002"))
            .count();
        BatchReport {
            schema_version: SCHEMA_VERSION,
            archs,
            predictors,
            reference,
            records,
            summaries,
            divergent_records,
            d002_records,
            cache,
            timings: RunTimings::default(),
            obs: None,
        }
    }

    /// Serialize the report to its canonical JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialization is infallible")
    }

    /// The named predictor's summary, if it ran.
    pub fn summary(&self, predictor: &str) -> Option<&Summary> {
        self.summaries
            .iter()
            .find(|s| s.predictor == predictor)
            .map(|s| &s.summary)
    }

    /// All RPE values of one predictor, in record order.
    pub fn rpes(&self, predictor: &str) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.prediction(predictor).and_then(|p| p.rpe))
            .collect()
    }

    /// Render the Fig. 3-style human-readable run summary: one histogram
    /// per analytical predictor plus the summary table.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "validation over {} test blocks on {} ({} divergent, {} vs-reference)",
            self.records.len(),
            self.archs.join(", "),
            self.divergent_records,
            self.d002_records,
        );
        let _ = writeln!(
            out,
            "(positive RPE = prediction faster than measurement; \
             lower-bound models should sit right of 0)"
        );
        for name in &self.predictors {
            let _ = writeln!(out);
            out.push_str(&render_histogram(name, &self.rpes(name)));
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<28} {}",
            "summary",
            self.predictors
                .iter()
                .map(|p| format!("{p:>12}"))
                .collect::<String>()
        );
        let row = |label: &str, f: &dyn Fn(&Summary) -> String| {
            let cells: String = self
                .predictors
                .iter()
                .map(|p| format!("{:>12}", self.summary(p).map(f).unwrap_or_default()))
                .collect();
            format!("{label:<28} {cells}\n")
        };
        out.push_str(&row("optimistic (right of 0)", &|s| {
            format!("{:.0}%", s.optimistic_fraction * 100.0)
        }));
        out.push_str(&row("within +0..10%", &|s| {
            format!("{:.0}%", s.within_10 * 100.0)
        }));
        out.push_str(&row("within +0..20%", &|s| {
            format!("{:.0}%", s.within_20 * 100.0)
        }));
        out.push_str(&row("within ±20%", &|s| {
            format!("{:.0}%", s.abs_within_20 * 100.0)
        }));
        out.push_str(&row("off by >2x", &|s| format!("{}", s.off_by_2x)));
        out.push_str(&row("mean positive RPE", &|s| {
            format!("{:+.1}%", s.mean_positive * 100.0)
        }));
        out.push_str(&row("mean |RPE|", &|s| {
            format!("{:.1}%", s.mean_abs * 100.0)
        }));
        if self.timings.wall_ms > 0.0 {
            let t = &self.timings;
            let _ = writeln!(
                out,
                "time: {:.0} ms wall (per-worker sums: {:.0} ms reference, {:.0} ms predictors, {:.0} ms parse, {:.1} ms cache)",
                t.wall_ms, t.reference_ms, t.predictors_ms, t.parse_ms, t.cache_ms,
            );
        }
        if let Some(obs) = &self.obs {
            for p in &obs.predictors {
                let _ = writeln!(
                    out,
                    "profiled: {:<16} {:>5} calls, mean {:>8.1} µs/call",
                    p.predictor,
                    p.calls,
                    p.mean_ns / 1e3,
                );
            }
        }
        out
    }
}

/// Relative prediction error, positive when the prediction is faster.
pub fn rpe(measured: f64, predicted: f64) -> f64 {
    if measured <= 0.0 {
        return 0.0;
    }
    (measured - predicted) / measured
}

/// Summarize a slice of RPE values.
pub fn summarize(rpes: &[f64]) -> Summary {
    let count = rpes.len().max(1);
    let pos: Vec<f64> = rpes.iter().copied().filter(|r| *r >= 0.0).collect();
    Summary {
        count: rpes.len(),
        optimistic_fraction: pos.len() as f64 / count as f64,
        within_10: rpes.iter().filter(|r| (0.0..0.10).contains(*r)).count() as f64 / count as f64,
        within_20: rpes.iter().filter(|r| (0.0..0.20).contains(*r)).count() as f64 / count as f64,
        abs_within_10: rpes.iter().filter(|r| r.abs() < 0.10).count() as f64 / count as f64,
        abs_within_20: rpes.iter().filter(|r| r.abs() < 0.20).count() as f64 / count as f64,
        off_by_2x: rpes.iter().filter(|r| **r <= -1.0).count(),
        mean_positive: if pos.is_empty() {
            0.0
        } else {
            pos.iter().sum::<f64>() / pos.len() as f64
        },
        mean_abs: rpes.iter().map(|r| r.abs()).sum::<f64>() / count as f64,
    }
}

/// 10 %-wide histogram buckets from ≤ −100 % to > +100 %, as in Fig. 3.
/// Returns `(lower_edge_percent, count)` pairs.
pub fn histogram(rpes: &[f64]) -> Vec<(i32, usize)> {
    let mut buckets: Vec<(i32, usize)> = (-10..10).map(|b| (b * 10, 0)).collect();
    for &r in rpes {
        let pct = r * 100.0;
        let idx = if pct < -100.0 {
            0
        } else {
            (((pct + 100.0) / 10.0).floor() as i32).clamp(0, 19) as usize
        };
        buckets[idx].1 += 1;
    }
    buckets
}

/// Render a Fig. 3-style ASCII histogram for one predictor.
pub fn render_histogram(title: &str, rpes: &[f64]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let h = histogram(rpes);
    let max = h.iter().map(|(_, c)| *c).max().unwrap_or(1).max(1);
    let _ = writeln!(out, "{title} (n = {})", rpes.len());
    for (edge, count) in h {
        let bar = "#".repeat(count * 50 / max);
        let marker = if edge == 0 { "|" } else { " " };
        let _ = writeln!(out, "{edge:>5}%..{:>4}% {marker} {bar} {count}", edge + 10);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpe_sign_convention() {
        // Prediction faster (lower cycles) → positive.
        assert!(rpe(10.0, 8.0) > 0.0);
        assert!(rpe(10.0, 12.0) < 0.0);
        assert_eq!(rpe(10.0, 10.0), 0.0);
        assert_eq!(rpe(0.0, 5.0), 0.0);
    }

    #[test]
    fn summary_counts() {
        let rpes = [0.05, 0.15, -0.05, -1.2, 0.5];
        let s = summarize(&rpes);
        assert_eq!(s.count, 5);
        assert_eq!(s.off_by_2x, 1);
        assert!((s.optimistic_fraction - 0.6).abs() < 1e-9);
        assert!((s.within_10 - 0.2).abs() < 1e-9);
        assert!((s.within_20 - 0.4).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets() {
        let h = histogram(&[0.05, 0.05, -0.15, -2.0]);
        let at = |edge: i32| h.iter().find(|(e, _)| *e == edge).unwrap().1;
        assert_eq!(at(0), 2);
        assert_eq!(at(-20), 1);
        assert_eq!(at(-100), 1);
        assert_eq!(h.len(), 20);
    }
}
