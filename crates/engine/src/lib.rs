//! `engine` — the corpus analysis pipeline behind the unified
//! [`Predictor`](uarch::Predictor) API.
//!
//! The crate turns "run a predictor on a kernel" into "validate a corpus":
//! a [`Session`] streams the full kernels × machines grid through a
//! window-bounded pool of worker threads, decodes each block where it is
//! evaluated, runs every configured predictor against that one parse,
//! scores each prediction against the reference measurement, applies the
//! `diag` divergence rules, and delivers the records in grid order — to a
//! sink, or collected into a JSON-serializable [`BatchReport`].
//!
//! Layering: `engine` sits above the predictors (`incore`, `mca`, `exec`)
//! and `diag`, and below the user-facing tools — `bench::fig3` and
//! `incore-cli validate` / `analyze --json` are thin wrappers over this
//! crate.
//!
//! Determinism is a design invariant, not an accident: the stream
//! delivers in grid order, the cache counters are
//! scheduling-independent, and the report carries no run-environment
//! fields — so the serialized report is byte-identical for any `threads`
//! setting. The single carve-out is the trailing
//! [`RunTimings`](report::RunTimings) block (wall-clock observations,
//! fed by [`Predictor::predict_timed`](uarch::Predictor::predict_timed)):
//! consumers comparing reports zero it out first, which is exactly what
//! the determinism test does.

pub mod cache;
pub mod diskcache;
pub mod error;
pub mod lint;
pub mod report;
pub mod session;

pub use cache::{CacheStats, CorpusCache, EvictionStats, Lru};
pub use diskcache::{DiskCache, DiskStats};
pub use error::{Error, ErrorKind};
pub use lint::{lint_corpus, lint_corpus_machines};
pub use report::{
    histogram, render_histogram, rpe, summarize, BatchReport, ObsPredictorTimings, ObsSummary,
    PredictorResult, PredictorSummary, RecordReport, RunTimings, Summary, SCHEMA_MINOR,
    SCHEMA_VERSION,
};
pub use session::{
    evaluate_block, evaluate_block_timed, BlockLabels, BlockTimings, Session, StreamOutcome,
};
