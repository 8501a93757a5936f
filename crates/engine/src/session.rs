//! The corpus analysis pipeline: a grid of kernels × machines ×
//! predictors, evaluated in parallel through one bounded-memory stream.
//!
//! [`Session`] is a builder: select machines, predictors, corpus size and
//! thread count, then [`stream`](Session::stream) the grid into a sink or
//! [`run`](Session::run) it into a [`BatchReport`] (the same stream,
//! collected). Each block's text is generated and parsed where it is
//! evaluated, the parsed kernel is shared across every predictor, and
//! records are delivered in grid order, so the resulting report is
//! byte-identical regardless of thread count.
//!
//! ```
//! let report = engine::Session::new()
//!     .archs(&[uarch::Arch::GoldenCove])
//!     .limit(8)
//!     .threads(2)
//!     .run()
//!     .unwrap();
//! assert_eq!(report.records.len(), 8);
//! assert!(report.summary("incore").is_some());
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Instant;

use crate::cache::CorpusCache;
use crate::diskcache::{self, DiskCache, DiskStats};
use crate::error::Error;
use crate::report::{
    rpe, BatchReport, ObsPredictorTimings, ObsSummary, PredictorResult, RecordReport, RunTimings,
    SCHEMA_MINOR, SCHEMA_VERSION,
};
use kernels::volume::VolumeBlock;
use uarch::{Machine, Predictor};

/// Descriptive labels for one evaluated block.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockLabels<'a> {
    pub kernel: &'a str,
    pub compiler: &'a str,
    pub opt: &'a str,
}

/// Wall-clock attribution for one evaluated block, in nanoseconds.
/// Summed into [`crate::report::RunTimings`] by the corpus pipeline.
#[derive(Debug, Clone, Default)]
pub struct BlockTimings {
    pub parse_ns: u64,
    pub reference_ns: u64,
    pub predictors_ns: u64,
    /// Persistent-cache probes, record decodes, and writes. Disjoint
    /// from `parse_ns` and from the compute fields (a replayed block
    /// books no parse, reference or predictor time at all) — replay must
    /// never double-count as compute.
    pub cache_ns: u64,
    /// Per-predictor breakdown of `predictors_ns`, in `analytical` order.
    /// Empty for a block replayed from the persistent cache.
    pub per_predictor_ns: Vec<u64>,
}

/// Evaluate one parsed kernel on one machine: run the reference (if any)
/// and every analytical predictor, compute RPEs against the reference,
/// and apply the divergence rules. This is the single block evaluation
/// both the corpus pipeline and `incore-cli analyze --json` go through.
pub fn evaluate_block(
    machine: &Machine,
    kernel: &isa::Kernel,
    labels: BlockLabels<'_>,
    analytical: &[&dyn Predictor],
    reference: Option<&dyn Predictor>,
) -> RecordReport {
    evaluate_block_timed(machine, kernel, labels, analytical, reference).0
}

/// [`evaluate_block`] plus per-phase wall-clock attribution (via
/// [`Predictor::predict_timed`]). The timings are observational only —
/// the record is computed identically either way.
pub fn evaluate_block_timed(
    machine: &Machine,
    kernel: &isa::Kernel,
    labels: BlockLabels<'_>,
    analytical: &[&dyn Predictor],
    reference: Option<&dyn Predictor>,
) -> (RecordReport, BlockTimings) {
    let mut timings = BlockTimings::default();
    // One span per predictor call when the obs recorder is on (the
    // `--profile` trace shows each kernel × predictor as its own slice);
    // a single cached bool keeps the disabled path free of formatting.
    let profiling = obs::enabled();
    let measured = reference.map(|r| {
        let _span = profiling.then(|| obs::span(&format!("{}:{}", r.name(), labels.kernel)));
        let (p, took) = r.predict_timed(machine, kernel);
        timings.reference_ns = took.as_nanos() as u64;
        p.cycles_per_iter
    });
    let predictions: Vec<PredictorResult> = analytical
        .iter()
        .map(|p| {
            let _span = profiling.then(|| obs::span(&format!("{}:{}", p.name(), labels.kernel)));
            let (pred, took) = p.predict_timed(machine, kernel);
            timings.predictors_ns += took.as_nanos() as u64;
            timings.per_predictor_ns.push(took.as_nanos() as u64);
            PredictorResult {
                predictor: p.name().to_string(),
                cycles_per_iter: pred.cycles_per_iter,
                rpe: measured.map(|m| rpe(m, pred.cycles_per_iter)),
                bottleneck: pred.bottleneck.label().to_string(),
                port_pressure: pred.port_pressure,
                uops_per_iter: pred.uops_per_iter,
            }
        })
        .collect();
    let named: Vec<(&str, f64)> = predictions
        .iter()
        .map(|p| (p.predictor.as_str(), p.cycles_per_iter))
        .collect();
    let reference_named = reference.zip(measured).map(|(r, cy)| (r.name(), cy));
    let divergence = diag::divergence_diags_named(&named, reference_named)
        .into_iter()
        .map(|d| d.code.to_string())
        .collect();
    let record = RecordReport {
        kernel: labels.kernel.to_string(),
        compiler: labels.compiler.to_string(),
        opt: labels.opt.to_string(),
        chip: machine.chip.to_string(),
        measured,
        predictions,
        divergence,
    };
    (record, timings)
}

/// Builder for a corpus validation run.
///
/// Defaults mirror the paper's Fig. 3 setup: all three machines, the
/// in-core model and the MCA baseline as analytical predictors, the
/// cycle-level simulator as the reference measurement, every corpus
/// variant, and one worker per available core.
pub struct Session {
    archs: Vec<uarch::Arch>,
    machines: Vec<Machine>,
    machine_files: Vec<(String, String)>,
    predictors: Vec<Box<dyn Predictor>>,
    reference: Option<Box<dyn Predictor>>,
    threads: usize,
    limit: Option<usize>,
    volume: Option<usize>,
    cache_dir: Option<PathBuf>,
    profile: bool,
}

impl Default for Session {
    fn default() -> Self {
        Session {
            archs: vec![
                uarch::Arch::NeoverseV2,
                uarch::Arch::GoldenCove,
                uarch::Arch::Zen4,
            ],
            machines: Vec::new(),
            machine_files: Vec::new(),
            predictors: vec![
                Box::new(incore::InCoreModel::new()),
                Box::new(mca::McaBaseline),
            ],
            reference: Some(Box::new(exec::CoreSimulator::default())),
            threads: 0,
            limit: None,
            volume: None,
            cache_dir: None,
            profile: false,
        }
    }
}

impl Session {
    pub fn new() -> Self {
        Session::default()
    }

    /// Restrict the run to the family models of these `Arch`es (in the
    /// given order). Convenience wrapper over [`machines`](Self::machines)
    /// for the paper's trio; clears any previous explicit selection.
    pub fn archs(mut self, archs: &[uarch::Arch]) -> Self {
        self.archs = archs.to_vec();
        self.machines.clear();
        self
    }

    /// Run exactly these machine models (registry models, composed
    /// variants, anything). Replaces the default/`archs` selection;
    /// machine files still join the grid afterwards.
    pub fn machines(mut self, machines: Vec<Machine>) -> Self {
        self.machines = machines;
        self.archs.clear();
        self
    }

    /// Add a machine imported from JSON machine-file text; `label` names
    /// it in error messages. The machine joins the grid alongside the
    /// builtin ones.
    pub fn machine_file(mut self, label: impl Into<String>, json: impl Into<String>) -> Self {
        self.machine_files.push((label.into(), json.into()));
        self
    }

    /// Replace the analytical predictor set.
    pub fn predictors(mut self, predictors: Vec<Box<dyn Predictor>>) -> Self {
        self.predictors = predictors;
        self
    }

    /// Add one analytical predictor to the set.
    pub fn predictor(mut self, p: Box<dyn Predictor>) -> Self {
        self.predictors.push(p);
        self
    }

    /// Replace (or with `None`, disable) the reference measurement.
    pub fn reference(mut self, reference: Option<Box<dyn Predictor>>) -> Self {
        self.reference = reference;
        self
    }

    /// Run the default simulator reference with this configuration
    /// (iteration counts, early-exit, engine selection). Replaces any
    /// previously set reference predictor.
    pub fn sim_config(mut self, config: exec::SimConfig) -> Self {
        self.reference = Some(Box::new(exec::CoreSimulator { config }));
        self
    }

    /// Worker thread count; `0` (default) = all available cores.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Evaluate only the first `limit` blocks of the grid (test slices).
    pub fn limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Use a volume corpus of `blocks` blocks **per machine** instead of
    /// the standard validation grid: the generator variants cycled with a
    /// replica tag per full pass (see [`kernels::volume::volume_blocks`]).
    /// The first pass reproduces the standard corpus exactly, so a volume
    /// ≤ the grid size is a prefix of the standard run.
    pub fn volume(mut self, blocks: usize) -> Self {
        self.volume = Some(blocks);
        self
    }

    /// Persist evaluated records in a content-addressed cache under
    /// `dir`, replaying them on later runs with identical inputs (same
    /// report schema, machine model, predictor set, reference, and block
    /// text). A replayed run's report is byte-identical to the computed
    /// one — floats are stored bit-exactly — except for the observational
    /// `timings` block.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Attach the additive [`ObsSummary`] block (per-predictor counter
    /// summaries) to the report. Off by default — the block carries
    /// wall-clock observations, so profiled reports are not
    /// byte-comparable; a non-profiled run's JSON is unchanged.
    pub fn profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }

    /// Resolve the machine list: explicit machines, then the family model
    /// per selected `Arch`, then the imported machine files.
    fn resolve_machines(&self, cache: &CorpusCache) -> Result<Vec<Machine>, Error> {
        let mut machines: Vec<Machine> = self.machines.clone();
        for arch in &self.archs {
            let m = uarch::all_machines()
                .into_iter()
                .find(|m| m.arch == *arch)
                .expect("every Arch has a builtin machine");
            machines.push(m);
        }
        for (label, json) in &self.machine_files {
            let m = cache
                .machine(json)
                .map_err(|e| e.with_context(label.clone()))?;
            machines.push((*m).clone());
        }
        Ok(machines)
    }

    /// The work grid: each machine's blocks in variant order —
    /// the standard validation grid (replica 0 only), or a volume corpus
    /// when [`volume`](Self::volume) is set — truncated by `limit`.
    fn grid_blocks(&self, machines: &[Machine]) -> Vec<(usize, VolumeBlock)> {
        let mut grid: Vec<(usize, VolumeBlock)> = Vec::new();
        for (i, m) in machines.iter().enumerate() {
            let blocks = match self.volume {
                Some(total) => kernels::volume::volume_blocks(m.arch, total),
                None => kernels::volume::volume_blocks(m.arch, kernels::variants_for(m.arch).len()),
            };
            grid.extend(blocks.into_iter().map(|b| (i, b)));
        }
        if let Some(limit) = self.limit {
            grid.truncate(limit);
        }
        grid
    }

    fn open_disk(&self) -> Result<Option<DiskCache>, Error> {
        self.cache_dir.as_ref().map(DiskCache::open).transpose()
    }

    /// Fixed key-part context for persistent-cache lookups: everything a
    /// result depends on besides the block text. Machine models enter as
    /// fingerprints of their canonical JSON, so editing a model (or
    /// upgrading the report schema or predictor set) misses cleanly into
    /// a recompute instead of replaying stale results.
    fn key_ctx(&self, machines: &[Machine]) -> KeyCtx {
        KeyCtx {
            schema: format!("s{SCHEMA_VERSION}.{SCHEMA_MINOR}"),
            fingerprints: machines
                .iter()
                .map(|m| format!("{:016x}", diskcache::fingerprint(m.to_json().as_bytes())))
                .collect(),
            predictors: self
                .predictors
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(","),
            reference: self
                .reference
                .as_ref()
                .map(|r| r.name().to_string())
                .unwrap_or_else(|| "-".to_string()),
        }
    }

    /// Run the full grid and collect the report: [`stream`](Self::stream)
    /// with the default window, every record kept in grid order.
    pub fn run(&self) -> Result<BatchReport, Error> {
        let mut records = Vec::new();
        let (outcome, calls) = self.stream_counted(0, |r| records.push(r))?;
        let mut report = BatchReport::from_records(
            outcome.archs,
            outcome.predictors,
            outcome.reference,
            records,
            outcome.cache,
        );
        report.timings = outcome.timings;
        if self.profile {
            report.obs = Some(calls.summary(
                &self.predictors,
                self.reference.as_deref(),
                outcome.cache,
                outcome.disk,
            ));
        }
        Ok(report)
    }

    /// Evaluate the grid as a bounded-memory stream: worker threads take
    /// blocks in grid order, and completed records are delivered to
    /// `on_record` **in grid order**. No block is started more than
    /// `window` positions past the last delivered record, so at most
    /// `window` records are ever resident and a volume corpus of any
    /// size runs in flat memory, even while one block stalls.
    ///
    /// The records passed to `on_record` are byte-identical (when
    /// serialized) at any thread count and window. Each block's text is
    /// parsed where it is evaluated (the interned arena makes re-parsing
    /// cheap), keeping per-block memory independent of corpus-wide text
    /// diversity; a block replayed from the persistent cache (when
    /// configured) is not parsed at all.
    ///
    /// `window` is the in-flight bound (`0` = 4 × threads, floor 64). On
    /// a block error the stream stops handing out blocks, delivers every
    /// record before the failed block's position, drains the in-flight
    /// work, and returns the earliest-position error.
    pub fn stream(
        &self,
        window: usize,
        on_record: impl FnMut(RecordReport),
    ) -> Result<StreamOutcome, Error> {
        self.stream_counted(window, on_record)
            .map(|(outcome, _)| outcome)
    }

    /// [`stream`](Self::stream), also returning the per-predictor call
    /// tallies the profiled `obs` block is built from.
    fn stream_counted(
        &self,
        window: usize,
        mut on_record: impl FnMut(RecordReport),
    ) -> Result<(StreamOutcome, PredictorCalls), Error> {
        let wall_start = Instant::now();
        let cache = CorpusCache::new();
        let machines = self.resolve_machines(&cache)?;
        let disk = self.open_disk()?;
        let keys = self.key_ctx(&machines);
        let threads = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
        .max(1);
        // Default window: enough slack that fast blocks (cache replays)
        // don't serialize on producer/consumer handoffs, still O(1) in
        // the corpus size.
        let window = if window == 0 {
            (4 * threads).max(64)
        } else {
            window.max(1)
        };
        let analytical: Vec<&dyn Predictor> = self.predictors.iter().map(|b| b.as_ref()).collect();
        let reference = self.reference.as_deref();
        let feed = Feed::new(self.grid_blocks(&machines), window);
        // The feed keeps at most `window` results outstanding, so workers
        // never block on this channel.
        let (res_tx, res_rx) = mpsc::sync_channel::<(usize, Result<Evaluated, Error>)>(window);

        let mut emitted = 0usize;
        let mut first_err: Option<(usize, Error)> = None;
        let mut timings = RunTimings::default();
        let mut calls = PredictorCalls {
            predictor_ns: vec![0; analytical.len()],
            ..PredictorCalls::default()
        };
        {
            let machines = &machines;
            let keys = &keys;
            let disk = disk.as_ref();
            let analytical = &analytical;
            let feed = &feed;
            rayon::scope(|s| {
                for _ in 0..threads {
                    let res_tx = res_tx.clone();
                    s.spawn(move || {
                        // A worker leaves only once the feed is spent or
                        // closed (or it panicked): closing on the way out
                        // releases the others either way.
                        let _close = CloseOnDrop(feed);
                        while let Some((seq, mi, block)) = feed.take() {
                            let out = process_block(
                                &machines[mi],
                                &keys.fingerprints[mi],
                                &block,
                                disk,
                                keys,
                                analytical,
                                reference,
                            );
                            if res_tx.send((seq, out)).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(res_tx);
                // Should `on_record` panic, the workers must not wait on a
                // delivery that never comes.
                let _close = CloseOnDrop(feed);
                // In-order delivery on this thread: a reorder buffer keyed
                // by sequence number, drained whenever the next-expected
                // block lands. An error becomes a wall at its position —
                // later results are dropped, earlier ones still stream out.
                let mut buffer: BTreeMap<usize, RecordReport> = BTreeMap::new();
                for (seq, out) in res_rx.iter() {
                    match out {
                        Err(e) => {
                            feed.close();
                            if first_err.as_ref().is_none_or(|(s, _)| seq < *s) {
                                first_err = Some((seq, e));
                                buffer.retain(|s, _| *s < seq);
                            }
                        }
                        Ok(done) => {
                            accumulate(&mut timings, &done.timings);
                            if done.computed {
                                calls.add(&done.timings);
                            }
                            if first_err.as_ref().is_none_or(|(s, _)| seq < *s) {
                                buffer.insert(seq, done.record);
                            }
                        }
                    }
                    let before = emitted;
                    while let Some(record) = buffer.remove(&emitted) {
                        on_record(record);
                        emitted += 1;
                    }
                    if emitted > before {
                        feed.delivered(emitted);
                    }
                }
            });
        }
        if let Some((_, e)) = first_err {
            return Err(e);
        }
        timings.wall_ms = wall_start.elapsed().as_nanos() as f64 / 1e6;
        let disk_stats = disk.as_ref().map(|d| d.stats());
        if obs::enabled() {
            obs::counter("engine.blocks", emitted as u64);
            if let Some(s) = disk_stats {
                obs_disk_counters(s);
            }
        }
        let outcome = StreamOutcome {
            blocks: emitted,
            archs: machines.iter().map(|m| m.name.to_string()).collect(),
            predictors: self
                .predictors
                .iter()
                .map(|p| p.name().to_string())
                .collect(),
            reference: self.reference.as_ref().map(|r| r.name().to_string()),
            cache: cache.stats(),
            disk: disk_stats,
            timings,
        };
        Ok((outcome, calls))
    }
}

/// What a [`Session::stream`] run did, minus the records themselves
/// (those went to the `on_record` sink as they completed).
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Records delivered, in grid order.
    pub blocks: usize,
    /// Machine labels covered, in evaluation order.
    pub archs: Vec<String>,
    /// Analytical predictor names, in evaluation order.
    pub predictors: Vec<String>,
    /// Name of the reference predictor, if one ran.
    pub reference: Option<String>,
    /// In-memory cache counters: machine-file imports only (kernel
    /// parses are not memoized, so the kernel counters stay zero).
    pub cache: crate::cache::CacheStats,
    /// Persistent-cache counters, when a cache directory was configured.
    pub disk: Option<DiskStats>,
    pub timings: RunTimings,
}

/// Hands grid blocks to the stream's workers in sequence order, never
/// one whose sequence number is `window` or more past the consumer's
/// delivery point — the stream's memory bound.
struct Feed {
    state: Mutex<FeedState>,
    turn: Condvar,
    window: usize,
}

struct FeedState {
    blocks: std::vec::IntoIter<(usize, VolumeBlock)>,
    /// Sequence number of the next block to hand out.
    next: usize,
    /// Records delivered to the sink so far.
    delivered: usize,
    /// Set on a block error or when a participant leaves: no further
    /// blocks are handed out.
    closed: bool,
}

impl Feed {
    fn new(grid: Vec<(usize, VolumeBlock)>, window: usize) -> Self {
        Feed {
            state: Mutex::new(FeedState {
                blocks: grid.into_iter(),
                next: 0,
                delivered: 0,
                closed: false,
            }),
            turn: Condvar::new(),
            window,
        }
    }

    /// The next block as `(seq, machine index, block)`, waiting while it
    /// would run `window` ahead of delivery; `None` once the grid is
    /// spent or the feed closed.
    fn take(&self) -> Option<(usize, usize, VolumeBlock)> {
        let mut s = self.state.lock().expect("feed poisoned");
        while !s.closed && s.next >= s.delivered + self.window {
            s = self.turn.wait(s).expect("feed poisoned");
        }
        if s.closed {
            return None;
        }
        let (mi, block) = s.blocks.next()?;
        s.next += 1;
        Some((s.next - 1, mi, block))
    }

    fn delivered(&self, delivered: usize) {
        self.state.lock().expect("feed poisoned").delivered = delivered;
        self.turn.notify_all();
    }

    fn close(&self) {
        self.state.lock().expect("feed poisoned").closed = true;
        self.turn.notify_all();
    }
}

/// Closes the feed when dropped (a stream participant leaving).
struct CloseOnDrop<'a>(&'a Feed);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Fixed persistent-cache key parts for one session configuration.
struct KeyCtx {
    schema: String,
    /// Per-machine model fingerprint, indexed like the machine list.
    fingerprints: Vec<String>,
    predictors: String,
    reference: String,
}

fn isa_tag(isa: isa::Isa) -> &'static str {
    match isa {
        isa::Isa::X86 => "x86",
        isa::Isa::AArch64 => "aarch64",
    }
}

/// One finished grid block.
struct Evaluated {
    record: RecordReport,
    timings: BlockTimings,
    /// Whether the predictors ran (false for a persistent-cache replay).
    computed: bool,
}

/// Evaluate one grid block. Generates the block text, replays the record
/// from the persistent cache when possible, and otherwise parses the
/// text, evaluates it, and stores the record.
///
/// Timing attribution: the parse books under `parse_ns`; persistent-cache
/// probes, decodes, and writes under `cache_ns`. A replayed block
/// therefore reports zero parse, reference and predictor time — cache
/// hits never double-count as compute.
fn process_block(
    machine: &Machine,
    fingerprint: &str,
    block: &VolumeBlock,
    disk: Option<&DiskCache>,
    keys: &KeyCtx,
    analytical: &[&dyn Predictor],
    reference: Option<&dyn Predictor>,
) -> Result<Evaluated, Error> {
    let asm = block.generate(machine);
    let kernel_label = block.kernel_label();
    let labels = BlockLabels {
        kernel: &kernel_label,
        compiler: block.variant.compiler.name(),
        opt: block.variant.opt.name(),
    };
    let key = [
        diskcache::RECORD_CODEC_VERSION,
        keys.schema.as_str(),
        fingerprint,
        keys.predictors.as_str(),
        keys.reference.as_str(),
        isa_tag(machine.isa),
        asm.as_str(),
    ];
    let mut cache_ns = 0u64;
    if let Some(disk) = disk {
        let probe_start = Instant::now();
        let chip = machine.chip.to_string();
        let replayed = disk.get(&key).and_then(|payload| {
            diskcache::decode_record(&payload, &kernel_label, labels.compiler, labels.opt, &chip)
        });
        cache_ns += probe_start.elapsed().as_nanos() as u64;
        if let Some(record) = replayed {
            return Ok(Evaluated {
                record,
                timings: BlockTimings {
                    cache_ns,
                    ..BlockTimings::default()
                },
                computed: false,
            });
        }
    }
    let parse_start = Instant::now();
    let kernel = isa::parse_kernel(&asm, machine.isa)
        .map_err(|e| Error::from(e).with_context(block.variant.label()))?;
    let parse_ns = parse_start.elapsed().as_nanos() as u64;
    let (record, mut timings) =
        evaluate_block_timed(machine, &kernel, labels, analytical, reference);
    if let Some(disk) = disk {
        let put_start = Instant::now();
        disk.put(&key, &diskcache::encode_record(&record));
        cache_ns += put_start.elapsed().as_nanos() as u64;
    }
    timings.parse_ns = parse_ns;
    timings.cache_ns = cache_ns;
    Ok(Evaluated {
        record,
        timings,
        computed: true,
    })
}

fn accumulate(t: &mut RunTimings, b: &BlockTimings) {
    let ms = |ns: u64| ns as f64 / 1e6;
    t.parse_ms += ms(b.parse_ns);
    t.reference_ms += ms(b.reference_ns);
    t.predictors_ms += ms(b.predictors_ns);
    t.cache_ms += ms(b.cache_ns);
}

fn obs_disk_counters(s: DiskStats) {
    obs::counter("engine.diskcache.hits", s.hits);
    obs::counter("engine.diskcache.misses", s.misses);
    obs::counter("engine.diskcache.writes", s.writes);
    obs::counter("engine.diskcache.evictions", s.evictions);
    obs::counter("engine.diskcache.stale", s.stale);
    obs::counter("engine.diskcache.corrupt", s.corrupt);
}

/// Predictor calls a stream made: every computed block calls each
/// analytical predictor and the reference once; a replayed block calls
/// none.
#[derive(Default)]
struct PredictorCalls {
    blocks: u64,
    /// Per analytical predictor, in session order.
    predictor_ns: Vec<u64>,
    reference_ns: u64,
}

impl PredictorCalls {
    fn add(&mut self, t: &BlockTimings) {
        self.blocks += 1;
        for (sum, ns) in self.predictor_ns.iter_mut().zip(&t.per_predictor_ns) {
            *sum += ns;
        }
        self.reference_ns += t.reference_ns;
    }

    /// The report's [`ObsSummary`]: one [`ObsPredictorTimings`] row per
    /// analytical predictor (in session order), the reference appended
    /// last when one ran.
    fn summary(
        &self,
        predictors: &[Box<dyn Predictor>],
        reference: Option<&dyn Predictor>,
        cache: crate::cache::CacheStats,
        disk: Option<DiskStats>,
    ) -> ObsSummary {
        let calls = self.blocks;
        let row = |name: &str, total_ns: u64| ObsPredictorTimings {
            predictor: name.to_string(),
            calls,
            total_ns,
            mean_ns: if calls == 0 {
                0.0
            } else {
                total_ns as f64 / calls as f64
            },
        };
        let mut rows: Vec<ObsPredictorTimings> = predictors
            .iter()
            .enumerate()
            .map(|(i, p)| row(p.name(), self.predictor_ns[i]))
            .collect();
        if let Some(r) = reference {
            rows.push(row(r.name(), self.reference_ns));
        }
        let lookups = cache.kernel_hits + cache.kernel_misses;
        ObsSummary {
            schema_minor: SCHEMA_MINOR,
            predictors: rows,
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                cache.kernel_hits as f64 / lookups as f64
            },
            disk_hit_rate: disk.map(|d| d.hit_rate()),
            disk_hits: disk.map(|d| d.hits),
            disk_misses: disk.map(|d| d.misses),
            disk_evictions: disk.map(|d| d.evictions),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_run_produces_records_and_summaries() {
        let report = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .limit(6)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(report.records.len(), 6);
        assert_eq!(report.predictors, vec!["incore", "mca"]);
        assert_eq!(report.reference.as_deref(), Some("sim"));
        for r in &report.records {
            assert_eq!(r.chip, "SPR");
            assert!(r.measured.unwrap() > 0.0);
            assert_eq!(r.predictions.len(), 2);
            assert!(r.predictions[0].rpe.is_some());
        }
        assert_eq!(report.summary("incore").unwrap().count, 6);
        // Kernels are parsed where they are evaluated, not memoized, and
        // no machine file was imported.
        assert_eq!(report.cache, crate::cache::CacheStats::default());
    }

    #[test]
    fn run_populates_timings() {
        let report = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .limit(4)
            .threads(2)
            .run()
            .unwrap();
        let t = report.timings;
        assert!(t.wall_ms > 0.0);
        assert!(t.reference_ms > 0.0, "simulator time should dominate");
        assert!(t.predictors_ms > 0.0);
        // Timings are a plain field: zeroing them is all a consumer needs
        // to do to compare reports (the determinism test relies on this).
        let mut zeroed = report.clone();
        zeroed.timings = Default::default();
        assert!(zeroed
            .to_json()
            .contains("\"timings\":{\"wall_ms\":0.0,\"parse_ms\":0.0"));
    }

    #[test]
    fn profile_attaches_obs_block_and_default_omits_it() {
        let plain = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .limit(2)
            .threads(1)
            .run()
            .unwrap();
        assert!(plain.obs.is_none());
        assert!(!plain.to_json().contains("\"obs\""));
        let profiled = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .limit(2)
            .threads(1)
            .profile(true)
            .run()
            .unwrap();
        let obs = profiled.obs.as_ref().expect("profiled run carries obs");
        assert_eq!(obs.schema_minor, crate::report::SCHEMA_MINOR);
        // incore, mca, then the sim reference appended last.
        let names: Vec<&str> = obs
            .predictors
            .iter()
            .map(|p| p.predictor.as_str())
            .collect();
        assert_eq!(names, vec!["incore", "mca", "sim"]);
        assert!(obs.predictors.iter().all(|p| p.calls == 2));
        assert!(obs.predictors.iter().all(|p| p.total_ns > 0));
        assert!((0.0..=1.0).contains(&obs.cache_hit_rate));
        // Stripping the block restores the non-profiled shape.
        let mut stripped = profiled.clone();
        stripped.obs = None;
        stripped.timings = Default::default();
        let mut plain_zeroed = plain.clone();
        plain_zeroed.timings = Default::default();
        assert_eq!(stripped.to_json(), plain_zeroed.to_json());
    }

    #[test]
    fn no_reference_means_no_rpes() {
        let report = Session::new()
            .archs(&[uarch::Arch::Zen4])
            .reference(None)
            .limit(3)
            .run()
            .unwrap();
        assert!(report.reference.is_none());
        for r in &report.records {
            assert!(r.measured.is_none());
            assert!(r.predictions.iter().all(|p| p.rpe.is_none()));
        }
        assert_eq!(report.summary("incore").unwrap().count, 0);
    }

    #[test]
    fn machine_file_joins_the_grid() {
        let json = uarch::Machine::zen4().to_json();
        let report = Session::new()
            .archs(&[])
            .machine_file("edited.json", json)
            .limit(4)
            .run()
            .unwrap();
        assert_eq!(report.archs, vec!["Zen 4"]);
        assert_eq!(report.records.len(), 4);
        let bad = Session::new().archs(&[]).machine_file("bad.json", "{ nope");
        let err = bad.run().unwrap_err();
        assert_eq!(err.kind(), crate::error::ErrorKind::MachineSpec);
        assert!(err.to_string().contains("bad.json"), "{err}");
    }

    #[test]
    fn explicit_machines_replace_the_default_grid() {
        // A registry model (derived Zen 2) drives the grid and the report
        // labels come from the model's own identity, not its family tag.
        let rome = uarch::registry::machine("zen2-rome").unwrap();
        let report = Session::new()
            .machines(vec![rome])
            .reference(None)
            .limit(3)
            .run()
            .unwrap();
        assert_eq!(report.archs, vec!["Zen 2"]);
        assert_eq!(report.records.len(), 3);
        assert!(report.records.iter().all(|r| r.chip == "Rome"));
    }

    #[test]
    fn stream_delivers_in_order_and_matches_run() {
        let session = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .limit(6)
            .threads(2);
        let collected = session.run().unwrap();
        let mut streamed = Vec::new();
        let outcome = session.stream(3, |r| streamed.push(r)).unwrap();
        assert_eq!(outcome.blocks, 6);
        assert_eq!(outcome.archs, collected.archs);
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&collected.records).unwrap(),
            "the window may not change a record byte or the order"
        );
        assert!(outcome.timings.reference_ms > 0.0);
        assert!(outcome.timings.parse_ms > 0.0);
        assert_eq!(outcome.cache, crate::cache::CacheStats::default());
    }

    #[test]
    fn stream_reports_the_earliest_failing_block() {
        // A machine file that parses but a corpus block that cannot be
        // generated is hard to fabricate; a bad machine file fails before
        // streaming starts instead.
        let session = Session::new().archs(&[]).machine_file("bad.json", "{");
        let err = session.stream(2, |_| {}).unwrap_err();
        assert_eq!(err.kind(), crate::error::ErrorKind::MachineSpec);
    }

    #[test]
    fn volume_cache_dir_replays_byte_identical() {
        let dir =
            std::env::temp_dir().join(format!("incore-session-diskcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = kernels::variants_for(uarch::Arch::GoldenCove).len();
        let session = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .volume(grid + 4)
            .threads(2)
            .reference(None)
            .cache_dir(&dir);
        let cold = session.run().unwrap();
        assert_eq!(cold.records.len(), grid + 4);
        assert!(
            cold.records[grid..]
                .iter()
                .all(|r| r.kernel.contains("#r1")),
            "past one grid pass the volume corpus wraps with replica labels"
        );
        let warm = session.run().unwrap();
        let (mut c, mut w) = (cold.clone(), warm.clone());
        c.timings = Default::default();
        w.timings = Default::default();
        assert_eq!(
            c.to_json(),
            w.to_json(),
            "a disk-replayed run must serialize byte-identically"
        );
        assert!(warm.timings.cache_ms > 0.0);
        assert_eq!(
            (warm.timings.predictors_ms, warm.timings.parse_ms),
            (0.0, 0.0),
            "replayed blocks book no compute or parse time"
        );
        // A third pass through `stream` replays every block from disk.
        let mut streamed = Vec::new();
        let outcome = session.stream(0, |r| streamed.push(r)).unwrap();
        let d = outcome.disk.expect("cache_dir was configured");
        assert_eq!(d.hits as usize, grid + 4);
        assert_eq!(d.misses, 0);
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&warm.records).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn custom_predictor_set_flows_through() {
        let report = Session::new()
            .archs(&[uarch::Arch::GoldenCove])
            .predictors(vec![
                Box::new(incore::InCoreModel::new()),
                Box::new(incore::InCoreModel::balanced()),
                Box::new(mca::McaBaseline),
            ])
            .limit(4)
            .run()
            .unwrap();
        assert_eq!(report.predictors, vec!["incore", "incore-balanced", "mca"]);
        for r in &report.records {
            assert_eq!(r.predictions.len(), 3);
        }
    }
}
