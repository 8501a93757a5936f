//! `wa_sweep`: the Fig. 4 store-only sweep (standard stores, plus NT
//! stores where the paper shows them) at every Fig. 4 core count, on the
//! registry models plus seeded memory what-ifs. `memhier` does all the
//! work here.

use std::time::Instant;

use memhier::storebench::{self, StorePoint, SweepScratch};
use memhier::{StoreKind, StreamConfig};
use uarch::Machine;

use crate::out::{Cfg, Metric, PhaseOut};
use crate::rng::Rng;
use crate::stats::Stamp;
use crate::trace::Tracer;

/// Memory what-ifs per paper-trio model.
pub const WHATIFS_PER_BASE: usize = 4;
const SETUPS: usize = 3;
/// Points recomputed through the per-access oracle.
const ORACLE_POINTS: usize = 3;

struct Inputs {
    machines: Vec<Machine>,
    counts: Vec<Vec<u32>>,
}

fn setup(seed: u64) -> (Inputs, f64, f64) {
    let t = Instant::now();
    let mut machines = uarch::registry::machines();
    machines.extend(crate::gen::memory_whatifs(seed, WHATIFS_PER_BASE));
    let compose_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let counts = machines.iter().map(storebench::fig4_core_counts).collect();
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    (Inputs { machines, counts }, compose_ms, generate_ms)
}

/// Lines one standard-store base simulation streams: 4× the per-core
/// cache capacity, at least 8 MiB. This mirrors the sizing rule inside
/// `memhier::storebench` (the working set of its per-line base
/// simulation), which `StreamOutcome` does not report;
/// `tests::requested_lines_match_storebench` pins the two together.
fn requested_lines(m: &Machine) -> u64 {
    let slice: u64 = m
        .caches
        .iter()
        .map(|c| {
            if c.shared {
                c.size_kib * 1024 / m.cores as u64
            } else {
                c.size_kib * 1024
            }
        })
        .sum();
    let line = m.caches.first().map_or(64, |c| c.line_bytes as u64);
    (4 * slice).max(8 << 20) / line
}

#[derive(Default)]
struct Sweep {
    /// CPU seconds of the sweep (one thread).
    cpu_s: f64,
    points: usize,
    sweeps: usize,
    std_ms: f64,
    nt_ms: f64,
    extrapolated: u64,
    requested: u64,
    /// Per machine: standard points, then NT points when applicable.
    results: Vec<(Vec<StorePoint>, Option<Vec<StorePoint>>)>,
}

impl Sweep {
    fn digest_text(&self) -> String {
        let mut s = String::new();
        for (std, nt) in &self.results {
            for p in std.iter().chain(nt.iter().flatten()) {
                s.push_str(&format!(
                    "{} {:x} {:x};",
                    p.cores,
                    p.ratio.to_bits(),
                    p.utilization.to_bits()
                ));
            }
            s.push('\n');
        }
        s
    }
}

fn sweep(inputs: &Inputs, tracer: Option<&Tracer>) -> Sweep {
    let stamp = Stamp::now();
    let start = Instant::now();
    let root = tracer.map_or(0, |t| t.id());
    let mut s = Sweep::default();
    for (m, counts) in inputs.machines.iter().zip(&inputs.counts) {
        // One scratch per machine: the hierarchy pool is keyed by
        // architecture and core count, not by cache geometry.
        let mut scratch = SweepScratch::default();
        let t = Instant::now();
        let std = storebench::sweep_points(
            m,
            counts,
            StoreKind::Standard,
            StreamConfig::default(),
            &mut scratch,
        );
        let t_std = Instant::now();
        s.std_ms += t_std.duration_since(t).as_secs_f64() * 1e3;
        s.extrapolated += scratch.last_outcome.extrapolated;
        s.requested += requested_lines(m);
        s.points += std.len();
        s.sweeps += 1;
        if let Some(tr) = tracer {
            tr.record(tr.id(), root, "memhier.sweep_std", t, t_std);
        }
        let nt = storebench::nt_applicable(m.arch).then(|| {
            let t = Instant::now();
            let nt = storebench::sweep_points(
                m,
                counts,
                StoreKind::NonTemporal,
                StreamConfig::default(),
                &mut scratch,
            );
            let t_nt = Instant::now();
            s.nt_ms += t_nt.duration_since(t).as_secs_f64() * 1e3;
            s.points += nt.len();
            s.sweeps += 1;
            if let Some(tr) = tracer {
                tr.record(tr.id(), root, "memhier.sweep_nt", t, t_nt);
            }
            nt
        });
        s.results.push((std, nt));
    }
    let end = Instant::now();
    if let Some(tr) = tracer {
        tr.record(root, 0, "memhier.pass", start, end);
    }
    s.cpu_s = stamp.elapsed().1;
    s
}

/// The Fig. 4 headline points `tests/paper_claims.rs` pins.
fn fig4_headline() -> (bool, String) {
    use memhier::store_traffic_ratio as r;
    let gcs = Machine::neoverse_v2();
    let spr = Machine::golden_cove();
    let genoa = Machine::zen4();
    let got = [
        (
            "gcs std 72",
            r(&gcs, 72, StoreKind::Standard).ratio,
            0.95,
            1.05,
        ),
        (
            "spr std 1",
            r(&spr, 1, StoreKind::Standard).ratio,
            1.95,
            2.05,
        ),
        (
            "spr std 13",
            r(&spr, 13, StoreKind::Standard).ratio,
            1.70,
            1.85,
        ),
        (
            "spr nt 13",
            r(&spr, 13, StoreKind::NonTemporal).ratio,
            1.05,
            1.15,
        ),
        (
            "genoa std 96",
            r(&genoa, 96, StoreKind::Standard).ratio,
            1.95,
            2.05,
        ),
        (
            "genoa nt 96",
            r(&genoa, 96, StoreKind::NonTemporal).ratio,
            0.98,
            1.02,
        ),
    ];
    let bad: Vec<_> = got
        .iter()
        .filter(|(_, v, lo, hi)| !(lo..=hi).contains(&v))
        .map(|(n, v, ..)| format!("{n}={v}"))
        .collect();
    (
        bad.is_empty(),
        format!("{} points, out of range: {bad:?}", got.len()),
    )
}

/// Recompute a seeded sample of sweep points through the per-access
/// oracle (`StreamConfig::reference()`) and compare bit for bit.
fn oracle_sample(inputs: &Inputs, sweep: &Sweep, seed: u64) -> (bool, String) {
    let mut rng = Rng::derive(seed, &[6]);
    let mut bad = Vec::new();
    let mut tried = Vec::new();
    for _ in 0..ORACLE_POINTS {
        let mi = rng.below(inputs.machines.len() as u64) as usize;
        let m = &inputs.machines[mi];
        let pi = rng.below(inputs.counts[mi].len() as u64) as usize;
        let (std, nt) = &sweep.results[mi];
        let (kind, fast) = match nt {
            Some(nt) if rng.chance(1, 2) => (StoreKind::NonTemporal, nt[pi]),
            _ => (StoreKind::Standard, std[pi]),
        };
        let mut scratch = SweepScratch::default();
        let slow = storebench::store_traffic_ratio_with(
            m,
            fast.cores,
            kind,
            StreamConfig::reference(),
            &mut scratch,
        );
        let label = format!("{} {} {}", m.id, kind.label(), fast.cores);
        if slow.ratio.to_bits() != fast.ratio.to_bits()
            || slow.utilization.to_bits() != fast.utilization.to_bits()
        {
            bad.push(label.clone());
        }
        tried.push(label);
    }
    (
        bad.is_empty(),
        format!("points {tried:?}, mismatches {bad:?}"),
    )
}

pub fn run(cfg: &Cfg) -> Result<PhaseOut, String> {
    let mut out = PhaseOut::default();
    let (mut compose_ms, mut generate_ms) = (Vec::new(), Vec::new());
    let mut inputs = None;
    for _ in 0..SETUPS {
        let stamp = Stamp::now();
        let (i, c, g) = setup(cfg.seed);
        out.setup.push(stamp.elapsed().1);
        compose_ms.push(c);
        generate_ms.push(g);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one set-up");
    out.inputs
        .push(("machines", inputs.machines.len().to_string()));

    let tracer = Tracer::new();
    let traced = cfg.trace.then_some(&*tracer);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(cfg.seconds);
    // Every sweep after the first is compared with it and then drops its
    // points, so memory does not grow with the number of sweeps.
    let mut first: Option<(Sweep, String)> = None;
    let mut sweeps = Vec::new();
    let mut repeat = 0;
    loop {
        let mut s = sweep(&inputs, traced);
        out.attempted += s.points as u64;
        match &first {
            Some((_, reference)) => {
                repeat += usize::from(s.digest_text() != *reference);
                s.results = Vec::new();
                sweeps.push(s);
            }
            None => {
                let text = s.digest_text();
                first = Some((s, text));
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    out.peak_rss_mb = crate::stats::peak_rss_mb();
    let (first, reference) = first.expect("at least one sweep");
    out.inputs
        .push(("points_per_sweep", first.points.to_string()));
    out.digest = crate::stats::fnv1a(reference.as_bytes());
    sweeps.insert(0, first);
    out.check(
        "wa_sweep.repeatable",
        repeat == 0,
        format!("{} sweeps, {repeat} differ from the first", sweeps.len()),
    );
    let (ok, detail) = fig4_headline();
    out.check("wa_sweep.fig4_headline", ok, detail);
    let (ok, detail) = oracle_sample(&inputs, &sweeps[0], cfg.seed);
    out.check("wa_sweep.oracle_sample", ok, detail);

    let per = |f: &dyn Fn(&Sweep) -> f64| sweeps.iter().map(f).collect::<Vec<_>>();
    // Points per CPU second of the (single-threaded) sweeps.
    let work: Vec<(f64, f64)> = sweeps.iter().map(|s| (s.points as f64, s.cpu_s)).collect();
    out.metrics = vec![Metric::rate("sweep_points_per_s", "points/s", &work)];
    out.layers = vec![
        Metric::repeated("kernels.generate_ms", "ms", &generate_ms),
        Metric::repeated("uarch.compose_ms", "ms", &compose_ms),
    ];
    if cfg.trace {
        out.layers.extend([
            Metric::repeated("memhier.sweeps", "count", &per(&|s| s.sweeps as f64)),
            Metric::repeated("memhier.std_sweep_ms", "ms", &per(&|s| s.std_ms)),
            Metric::repeated("memhier.nt_sweep_ms", "ms", &per(&|s| s.nt_ms)),
            Metric::repeated(
                "memhier.extrapolated_frac",
                "ratio",
                &per(&|s| s.extrapolated as f64 / s.requested as f64),
            ),
        ]);
        tracer
            .write(&cfg.work.join("trace-wa_sweep.ndjson"))
            .map_err(|e| format!("trace: {e}"))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `requested_lines` must describe the stream `storebench` runs. The
    /// closed-form part of that stream can never exceed it, and for these
    /// memory-resident working sets steady state engages early, so most
    /// of it is closed-form: a sizing rule drifting either way breaks one
    /// of the two bounds.
    #[test]
    fn requested_lines_match_storebench() {
        let mut machines = uarch::registry::machines();
        machines.extend(crate::gen::memory_whatifs(1, WHATIFS_PER_BASE));
        for m in &machines {
            let mut scratch = SweepScratch::default();
            storebench::sweep_points(
                m,
                &[1],
                StoreKind::Standard,
                StreamConfig::default(),
                &mut scratch,
            );
            let (done, asked) = (scratch.last_outcome.extrapolated, requested_lines(m));
            assert!(
                done <= asked && done * 2 > asked,
                "{}: {done} closed-form of {asked} requested lines",
                m.id
            );
        }
    }
}
