//! `corpus`: the standard validation grid on every registry model plus
//! seeded in-core what-ifs of the paper trio, through `Session::stream`
//! with `incore` + `mca` and the `exec` reference. Each round makes one
//! cold pass into a fresh cache directory and then replays it warm.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use engine::{BatchReport, CacheStats, RunTimings, Session, StreamOutcome};
use kernels::volume::VolumeBlock;
use uarch::{Machine, Predictor};

use crate::out::{Cfg, Metric, PhaseOut};
use crate::rng::Rng;
use crate::stats::Stamp;
use crate::trace::{Timed, Tracer};

/// In-core what-ifs per paper-trio model.
pub const WHATIFS_PER_BASE: usize = 2;
/// Set-up repetitions (the reported set-up time is their median).
const SETUPS: usize = 3;
/// Warm replays after each cold pass.
const WARM_PASSES: usize = 4;
/// Records recomputed through the reference oracles.
const ORACLE_SAMPLE: usize = 24;

pub struct Inputs {
    pub machines: Vec<Machine>,
    /// The grid in `Session` order: machine index, block, its text.
    pub grid: Vec<(usize, VolumeBlock, String)>,
}

/// Compose the machines and generate the grid, timing each layer.
fn setup(seed: u64) -> (Inputs, f64, f64) {
    let t = Instant::now();
    let mut machines = uarch::registry::machines();
    machines.extend(crate::gen::incore_whatifs(seed, WHATIFS_PER_BASE));
    let compose_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let grid = grid(&machines);
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    (Inputs { machines, grid }, compose_ms, generate_ms)
}

/// The standard validation grid (no volume replicas) for `machines`.
pub fn grid(machines: &[Machine]) -> Vec<(usize, VolumeBlock, String)> {
    let mut grid = Vec::new();
    for (mi, m) in machines.iter().enumerate() {
        let n = kernels::variants_for(m.arch).len();
        for b in kernels::volume::volume_blocks(m.arch, n) {
            let asm = b.generate(m);
            grid.push((mi, b, asm));
        }
    }
    grid
}

/// What one pass measured. Reports are checked as they come and then
/// dropped, so memory does not grow with the number of passes.
struct Pass {
    outcome: StreamOutcome,
    wall_s: f64,
    /// CPU seconds of the whole process (every worker) during the pass.
    cpu_s: f64,
    render_ms: f64,
    /// Root span of the pass when traced (parent of every predictor span).
    span: u64,
}

impl Pass {
    /// `(blocks × workers, CPU seconds)`: as a rate, blocks per second of
    /// CPU time per worker. It equals blocks per wall second while every
    /// worker is busy, and leaves out time the hypervisor withholds.
    fn work(&self, threads: usize) -> (f64, f64) {
        (self.outcome.blocks as f64 * threads as f64, self.cpu_s)
    }

    /// Share of the workers' wall-clock capacity the pass kept busy.
    fn utilization(&self, threads: usize) -> f64 {
        self.cpu_s / (self.wall_s * threads as f64)
    }
}

/// The report with its observational blocks (`timings`, `cache`) zeroed:
/// what must repeat byte for byte.
fn normalised(report: &BatchReport) -> String {
    let mut r = report.clone();
    r.timings = RunTimings::default();
    r.cache = CacheStats::default();
    r.to_json()
}

fn predictors(
    tracer: Option<(&Arc<Tracer>, u64)>,
) -> (Vec<Box<dyn Predictor>>, Box<dyn Predictor>) {
    let wrap = |p: Box<dyn Predictor>, layer: &'static str| -> Box<dyn Predictor> {
        match tracer {
            Some((t, parent)) => Box::new(Timed {
                inner: p,
                layer,
                tracer: Arc::clone(t),
                parent,
            }),
            None => p,
        }
    };
    (
        vec![
            wrap(Box::new(incore::InCoreModel::new()), "incore"),
            wrap(Box::new(mca::McaBaseline), "mca"),
        ],
        wrap(Box::<exec::CoreSimulator>::default(), "exec"),
    )
}

/// One pass as `validate --stream --json` runs it: stream the grid
/// through the session, assemble the report, render it.
fn pass(
    inputs: &Inputs,
    dir: &Path,
    threads: usize,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Pass, BatchReport), String> {
    let span = tracer.map_or(0, |t| t.id());
    let stamp = Stamp::now();
    let start = Instant::now();
    let (analytical, reference) = predictors(tracer.map(|t| (t, span)));
    let session = Session::new()
        .machines(inputs.machines.clone())
        .predictors(analytical)
        .reference(Some(reference))
        .threads(threads)
        .cache_dir(dir);
    let mut records = Vec::with_capacity(inputs.grid.len());
    let outcome = session
        .stream(0, |r| records.push(r))
        .map_err(|e| format!("corpus stream failed: {e}"))?;
    let mut report = BatchReport::from_records(
        outcome.archs.clone(),
        outcome.predictors.clone(),
        outcome.reference.clone(),
        records,
        outcome.cache,
    );
    report.timings = outcome.timings;
    let render_start = Instant::now();
    let json = std::hint::black_box(report.to_json());
    let render_end = Instant::now();
    if let Some(t) = tracer {
        t.record(t.id(), span, "engine.render", render_start, render_end);
        t.record(span, 0, "engine.pass", start, render_end);
    }
    let (wall_s, cpu_s) = stamp.elapsed();
    drop(json);
    let pass = Pass {
        outcome,
        wall_s,
        cpu_s,
        render_ms: render_end.duration_since(render_start).as_secs_f64() * 1e3,
        span,
    };
    Ok((pass, report))
}

/// One value per pass.
fn per(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

/// Flush dirty pages before a cold pass, so it pays for writing its own
/// cache entries and not for the writeback of the previous round's.
fn flush_writes() -> Result<(), String> {
    let status = std::process::Command::new("sync")
        .status()
        .map_err(|e| format!("sync: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("sync: {status}"))
    }
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Layer shares of wall × workers for one traced cold pass: the
/// predictors (timed from outside), parse and cache (the engine's own
/// `RunTimings`), and the remainder.
fn composition(tracer: &Tracer, p: &Pass, threads: usize) -> Vec<(&'static str, f64)> {
    let capacity = p.outcome.timings.wall_ms * threads as f64;
    let mut rows: Vec<(&'static str, f64)> = ["incore", "mca", "exec"]
        .iter()
        .map(|&l| (l, tracer.busy(p.span, l).1 / capacity))
        .collect();
    rows.push(("isa.parse", p.outcome.timings.parse_ms / capacity));
    rows.push(("engine.cache", p.outcome.timings.cache_ms / capacity));
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    rows.push(("engine.unattributed", 1.0 - attributed));
    rows
}

/// Recompute a seeded sample of records through the reference oracles
/// (`mca::McaReferenceBaseline`, the naive `exec` engine) and compare
/// them bit for bit with the pipeline's records.
fn oracle_sample(inputs: &Inputs, report: &BatchReport, seed: u64) -> (bool, String) {
    let mut rng = Rng::derive(seed, &[5]);
    let oracle_sim = exec::CoreSimulator {
        config: exec::SimConfig {
            reference: true,
            ..exec::SimConfig::default()
        },
    };
    let incore = incore::InCoreModel::new();
    let analytical: [&dyn Predictor; 2] = [&incore, &mca::McaReferenceBaseline];
    let mut mismatches = Vec::new();
    for _ in 0..ORACLE_SAMPLE {
        let i = rng.below(inputs.grid.len() as u64) as usize;
        let (mi, block, asm) = &inputs.grid[i];
        let machine = &inputs.machines[*mi];
        let kernel = match isa::parse_kernel(asm, machine.isa) {
            Ok(k) => k,
            Err(e) => {
                mismatches.push(format!("{i}: parse {e}"));
                continue;
            }
        };
        let label = block.kernel_label();
        let record = engine::evaluate_block(
            machine,
            &kernel,
            engine::BlockLabels {
                kernel: &label,
                compiler: block.variant.compiler.name(),
                opt: block.variant.opt.name(),
            },
            &analytical,
            Some(&oracle_sim),
        );
        let want = serde_json::to_string(&record).expect("records serialize");
        let got = serde_json::to_string(&report.records[i]).expect("records serialize");
        if want != got {
            mismatches.push(format!("record {i} ({})", machine.id));
        }
    }
    (
        mismatches.is_empty(),
        format!("{} records, mismatches: {:?}", ORACLE_SAMPLE, mismatches),
    )
}

pub fn run(cfg: &Cfg) -> Result<PhaseOut, String> {
    let mut out = PhaseOut::default();
    let (mut compose_ms, mut generate_ms) = (Vec::new(), Vec::new());
    let mut inputs = None;
    for _ in 0..SETUPS {
        let stamp = Stamp::now();
        let (i, c, g) = setup(cfg.seed);
        fresh_dir(&cfg.work.join("corpus"))?;
        out.setup.push(stamp.elapsed().1);
        compose_ms.push(c);
        generate_ms.push(g);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    out.inputs
        .push(("machines", inputs.machines.len().to_string()));
    out.inputs.push(("blocks", inputs.grid.len().to_string()));

    let tracer = Tracer::new();
    let traced = cfg.trace.then_some(&tracer);
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    // Untraced twins of the traced cold passes, with the program's `obs`
    // recorder off and on.
    let (mut cold_plain, mut cold_obs) = (Vec::new(), Vec::new());
    let mut first: Option<(BatchReport, String)> = None;
    let mut diverged = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    for round in 0.. {
        // Cache directories are removed only after the timed rounds, so
        // no deletion competes with a pass for the disk.
        let dir = cfg.work.join("corpus").join(format!("round-{round}"));
        fresh_dir(&dir)?;
        flush_writes()?;
        let (c, report) = pass(&inputs, &dir, cfg.threads, traced)?;
        let norm = normalised(&report);
        let reference = match &first {
            Some((_, reference)) => reference.clone(),
            None => first.insert((report, norm.clone())).1.clone(),
        };
        if norm != reference {
            diverged.push(format!("round {round} cold"));
        }
        if cfg.trace {
            for recorder in [false, true] {
                let name = if recorder { "obs" } else { "plain" };
                let twin_dir = cfg.work.join("corpus").join(format!("{name}-{round}"));
                fresh_dir(&twin_dir)?;
                flush_writes()?;
                if recorder {
                    obs::enable();
                }
                let twin = pass(&inputs, &twin_dir, cfg.threads, None);
                if recorder {
                    obs::disable();
                    drop(obs::take());
                }
                let (p, report) = twin?;
                if normalised(&report) != reference {
                    diverged.push(format!("round {round} untraced twin ({name})"));
                }
                out.attempted += p.outcome.blocks as u64;
                if recorder {
                    cold_obs.push(p);
                } else {
                    cold_plain.push(p);
                }
            }
        }
        for w in 0..WARM_PASSES {
            let (p, report) = pass(&inputs, &dir, cfg.threads, traced)?;
            if normalised(&report) != reference {
                diverged.push(format!("round {round} warm {w}"));
            }
            out.attempted += p.outcome.blocks as u64;
            warm.push(p);
        }
        out.attempted += c.outcome.blocks as u64;
        cold.push(c);
        if round == 0 {
            // Peak RSS over set-up and one round: later rounds repeat the
            // same work, and how many fit the time depends on the host's
            // speed, so a peak over all of them would too.
            out.peak_rss_mb = crate::stats::peak_rss_mb();
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let (first_report, reference) = first.expect("at least one round");
    out.digest = crate::stats::fnv1a(reference.as_bytes());

    // Correctness, outside the timed rounds.
    let full_warm_hits = warm.iter().all(|p| {
        p.outcome
            .disk
            .is_some_and(|d| d.hits == p.outcome.blocks as u64 && d.misses == 0)
    });
    out.check(
        "corpus.warm_hit_ratio_is_1",
        full_warm_hits,
        "every warm block replayed from disk",
    );
    let (ok, detail) = oracle_sample(&inputs, &first_report, cfg.seed);
    out.check("corpus.oracle_sample", ok, detail);
    out.check(
        "corpus.passes_identical",
        diverged.is_empty(),
        format!(
            "{} cold ({} untraced twins), {} warm passes; diverged: {diverged:?}",
            cold.len(),
            cold_plain.len() + cold_obs.len(),
            warm.len()
        ),
    );

    let work = |ps: &[Pass]| ps.iter().map(|p| p.work(cfg.threads)).collect::<Vec<_>>();
    let rate = |ps: &[Pass]| {
        let (w, s) = ps.iter().fold((0.0, 0.0), |a, p| {
            let (w, s) = p.work(cfg.threads);
            (a.0 + w, a.1 + s)
        });
        w / s
    };
    let plain_cold = if cfg.trace { &cold_plain } else { &cold };
    let mape = |name: &str| {
        first_report
            .summary(name)
            .map_or(f64::NAN, |s| s.mean_abs * 100.0)
    };
    out.metrics = vec![
        Metric::rate("cold_kernels_per_s", "blocks/s", &work(plain_cold)),
        Metric::rate("warm_kernels_per_s", "blocks/s", &work(&warm)),
        Metric::once("incore_mape_pct", "%", mape("incore"), inputs.grid.len()),
        Metric::once("mca_mape_pct", "%", mape("mca"), inputs.grid.len()),
    ];
    out.layers = vec![
        Metric::repeated("kernels.generate_ms", "ms", &generate_ms),
        Metric::repeated("uarch.compose_ms", "ms", &compose_ms),
    ];
    if cfg.trace {
        for (layer, calls, busy) in [
            ("incore", "incore.calls", "incore.busy_ms"),
            ("mca", "mca.calls", "mca.busy_ms"),
            ("exec", "exec.calls", "exec.busy_ms"),
        ] {
            let spans = per(&cold, |p| tracer.busy(p.span, layer).0 as f64);
            out.layers.push(Metric::repeated(calls, "count", &spans));
            let ms = per(&cold, |p| tracer.busy(p.span, layer).1);
            out.layers.push(Metric::repeated(busy, "ms", &ms));
        }
        let disk = |p: &Pass| p.outcome.disk.unwrap_or_default();
        let ratio = |p: &Pass| {
            let d = disk(p);
            d.hits as f64 / (d.hits + d.misses).max(1) as f64
        };
        let compositions: Vec<_> = cold
            .iter()
            .map(|p| composition(&tracer, p, cfg.threads))
            .collect();
        let unattributed: Vec<f64> = compositions
            .iter()
            .map(|c| c.last().expect("rows").1)
            .collect();
        out.layers.extend([
            Metric::repeated(
                "isa.parse_ms",
                "ms",
                &per(&cold, |p| p.outcome.timings.parse_ms),
            ),
            Metric::repeated(
                "engine.cache_ms.cold",
                "ms",
                &per(&cold, |p| p.outcome.timings.cache_ms),
            ),
            Metric::repeated(
                "engine.cache_ms.warm",
                "ms",
                &per(&warm, |p| p.outcome.timings.cache_ms),
            ),
            Metric::repeated(
                "engine.disk.hits",
                "count",
                &per(&cold, |p| disk(p).hits as f64),
            ),
            Metric::repeated(
                "engine.disk.misses",
                "count",
                &per(&cold, |p| disk(p).misses as f64),
            ),
            Metric::repeated(
                "engine.disk.writes",
                "count",
                &per(&cold, |p| disk(p).writes as f64),
            ),
            Metric::repeated("engine.disk.cold_hit_ratio", "ratio", &per(&cold, ratio)),
            Metric::repeated("engine.disk.warm_hit_ratio", "ratio", &per(&warm, ratio)),
            Metric::repeated("engine.render_ms", "ms", &per(&warm, |p| p.render_ms)),
            Metric::repeated("engine.unattributed_frac", "ratio", &unattributed),
            Metric::repeated(
                "engine.cold_utilization",
                "ratio",
                &per(&cold_plain, |p| p.utilization(cfg.threads)),
            ),
            Metric::once(
                "obs.overhead_pct",
                "%",
                (rate(&cold_plain) / rate(&cold_obs) - 1.0) * 100.0,
                cold_obs.len(),
            ),
        ]);
        // The composition row of the median pass. Its remainder is what
        // the measured layers leave of wall × workers, so the measured
        // busy time must not exceed that capacity (2 % timer slack).
        let mut order: Vec<usize> = (0..compositions.len()).collect();
        order.sort_by(|&a, &b| unattributed[a].total_cmp(&unattributed[b]));
        out.composition = compositions[order[order.len() / 2]].clone();
        let most_attributed = 1.0 - unattributed[order[0]];
        out.check(
            "corpus.attributed_within_capacity",
            most_attributed < 1.02,
            format!(
                "layer busy time is at most {most_attributed:.4} of wall × workers over {} traced cold passes",
                cold.len()
            ),
        );
        tracer
            .write(&cfg.work.join("trace-corpus.ndjson"))
            .map_err(|e| format!("trace: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(cfg.work.join("corpus"));
    Ok(out)
}
