//! Tracked throughput benchmark for the analysis pipeline: drive a
//! generated volume corpus (see [`kernels::volume::volume_blocks`])
//! through the `engine` session at 1 and 8 worker threads, and record
//! analyzed-kernels-per-second for three runs:
//!
//! 1. **baseline** — the pre-optimization cost model: a session whose
//!    MCA predictor is [`mca::McaReferenceBaseline`], the reference
//!    implementation the fast scheduler is pinned bit-identical to. This
//!    is the honest "before" number: same reports, pre-PR cost.
//! 2. **cold** — [`engine::Session::run`] against a fresh persistent
//!    cache directory (computes everything, writes every record).
//! 3. **warm** — the same run again through [`engine::Session::stream`]:
//!    every record replays from the content-addressed disk cache.
//!
//! All three must produce byte-identical `BatchReport` JSON once the
//! observational `timings` block is zeroed — the
//! `byte_identical` flag in the report is the conjunction over all
//! measured thread counts. The `pipeline_core` bench target runs this
//! and writes `BENCH_pipeline.json` at the repository root, so pipeline
//! throughput is a tracked trajectory like sim/memhier/serve.

use std::time::Instant;

use engine::{BatchReport, Session};
use serde::Serialize;

/// One measured thread count.
#[derive(Debug, Clone, Serialize)]
pub struct ThreadRow {
    pub threads: usize,
    /// Pre-PR validate cost: reference MCA scheduler, no cache dir.
    pub baseline_ms: f64,
    pub baseline_kernels_per_sec: f64,
    /// Fresh cache dir (compute + persist).
    pub cold_ms: f64,
    pub cold_kernels_per_sec: f64,
    /// Warm cache dir (disk replay).
    pub warm_ms: f64,
    pub warm_kernels_per_sec: f64,
    /// cold vs baseline (the acceptance gate asks ≥ 2×).
    pub cold_speedup_vs_baseline: f64,
    /// warm vs cold (the acceptance gate asks ≥ 10×).
    pub warm_speedup_vs_cold: f64,
    /// Disk cache counters of the warm run (hits must cover the corpus).
    pub warm_disk_hits: u64,
    pub warm_disk_misses: u64,
    /// baseline-vs-cold and warm-vs-cold reports byte-identical (timings
    /// zeroed) at this thread count.
    pub byte_identical: bool,
}

/// The whole report, serialized to `BENCH_pipeline.json`.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineBenchReport {
    pub schema_version: u32,
    pub arch: String,
    /// Volume-corpus blocks per run.
    pub blocks: usize,
    /// All byte-identity checks passed at every thread count.
    pub byte_identical: bool,
    /// Peak resident set of the bench process (`VmHWM`, kB) — a proxy,
    /// not a per-run measurement; `null` off Linux.
    pub peak_rss_kb: Option<u64>,
    pub threads: Vec<ThreadRow>,
}

impl PipelineBenchReport {
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }
}

const ARCH: uarch::Arch = uarch::Arch::GoldenCove;

/// A session over the volume corpus. No simulator reference: the bench
/// isolates the analysis pipeline (parse → in-core + MCA → report).
fn session(threads: usize, blocks: usize) -> Session {
    Session::new()
        .archs(&[ARCH])
        .volume(blocks)
        .threads(threads)
        .reference(None)
}

/// The same session on the pre-PR cost model: the reference MCA
/// scheduler instead of the fast two-heap one (bit-identical output).
fn baseline_session(threads: usize, blocks: usize) -> Session {
    session(threads, blocks).predictors(vec![
        Box::new(incore::InCoreModel::new()),
        Box::new(mca::McaReferenceBaseline),
    ])
}

/// Report JSON with the wall-clock `timings` block zeroed — the
/// byte-identity currency of the equivalence checks.
fn normalized(report: &BatchReport) -> String {
    let mut r = report.clone();
    r.timings = Default::default();
    r.to_json()
}

fn timed(run: impl FnOnce() -> BatchReport) -> (BatchReport, f64) {
    let start = Instant::now();
    let report = run();
    (report, start.elapsed().as_secs_f64() * 1e3)
}

/// `VmHWM` from `/proc/self/status` in kB (peak RSS of this process).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn run_threads(threads: usize, blocks: usize) -> ThreadRow {
    let (baseline, baseline_ms) = timed(|| {
        baseline_session(threads, blocks)
            .run()
            .expect("baseline runs")
    });
    let dir = std::env::temp_dir().join(format!(
        "incore-pipeline-bench-{}-t{threads}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, cold_ms) = timed(|| {
        session(threads, blocks)
            .cache_dir(&dir)
            .run()
            .expect("cold runs")
    });
    // The warm run goes through `stream` directly so the outcome's disk
    // counters are visible (a `BatchReport` only carries them under
    // `--profile`, which would break byte-comparability).
    let warm_session = session(threads, blocks).cache_dir(&dir);
    let mut warm_records = Vec::new();
    let start = Instant::now();
    let outcome = warm_session
        .stream(0, |r| warm_records.push(r))
        .expect("warm runs");
    let warm_ms = start.elapsed().as_secs_f64() * 1e3;
    let warm = BatchReport::from_records(
        outcome.archs.clone(),
        outcome.predictors.clone(),
        outcome.reference.clone(),
        warm_records,
        outcome.cache,
    );
    let warm_disk = outcome.disk.expect("warm run had a cache dir");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cold.records.len(), blocks, "volume corpus size");
    let byte_identical =
        normalized(&baseline) == normalized(&cold) && normalized(&warm) == normalized(&cold);
    let kps = |ms: f64| blocks as f64 / (ms / 1e3).max(1e-9);
    ThreadRow {
        threads,
        baseline_ms,
        baseline_kernels_per_sec: kps(baseline_ms),
        cold_ms,
        cold_kernels_per_sec: kps(cold_ms),
        warm_ms,
        warm_kernels_per_sec: kps(warm_ms),
        cold_speedup_vs_baseline: baseline_ms / cold_ms.max(1e-9),
        warm_speedup_vs_cold: cold_ms / warm_ms.max(1e-9),
        warm_disk_hits: warm_disk.hits,
        warm_disk_misses: warm_disk.misses,
        byte_identical,
    }
}

/// Run the pipeline benchmark. `limit` sets the volume-corpus size in
/// blocks (smoke runs); `None` is three full passes over the variant
/// grid, so replica blocks (distinct text, no kernel-memo shortcuts)
/// dominate the workload.
pub fn run(limit: Option<usize>) -> PipelineBenchReport {
    let grid = kernels::variants_for(ARCH).len();
    let blocks = limit.unwrap_or(grid * 3).max(1);
    let mut threads = Vec::new();
    let mut byte_identical = true;
    for t in [1usize, 8] {
        let row = run_threads(t, blocks);
        byte_identical &= row.byte_identical;
        threads.push(row);
    }
    PipelineBenchReport {
        schema_version: 2,
        arch: ARCH.chip().to_string(),
        blocks,
        byte_identical,
        peak_rss_kb: peak_rss_kb(),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_byte_identical_and_warm_replays() {
        let report = run(Some(6));
        assert!(report.byte_identical, "{report:?}");
        assert_eq!(report.blocks, 6);
        assert_eq!(
            report.threads.iter().map(|r| r.threads).collect::<Vec<_>>(),
            vec![1, 8]
        );
        for row in &report.threads {
            assert!(row.baseline_kernels_per_sec > 0.0);
            assert!(row.warm_kernels_per_sec > 0.0);
            assert_eq!(
                (row.warm_disk_hits, row.warm_disk_misses),
                (6, 0),
                "a warm rerun must replay every block from disk: {row:?}"
            );
        }
        let v: serde_json::Value = serde_json::from_str(&report.to_json()).unwrap();
        assert_eq!(
            v.as_object()
                .unwrap()
                .get("schema_version")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
    }
}
