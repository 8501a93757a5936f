//! Seeded input generators. Everything a workload feeds the program is
//! built here from the seed alone: what-if machines through
//! `uarch::compose`, and kernels through `kernels::GenCfg` over the public
//! x86/AArch64 emitters. The program under test sees only the results.

use kernels::{GenCfg, StreamKernel};
use uarch::compose::{self, MachineBuilder};
use uarch::{Arch, Machine};

use crate::rng::Rng;

/// Registry ids have `'static` lifetimes; generated ones are leaked once
/// per phase (a few dozen short strings per process).
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn trio() -> [(fn() -> MachineBuilder, Machine); 3] {
    [
        (
            compose::neoverse_v2 as fn() -> MachineBuilder,
            Machine::neoverse_v2(),
        ),
        (compose::golden_cove, Machine::golden_cove()),
        (compose::zen4, Machine::zen4()),
    ]
}

/// Scale `v` by a factor drawn from `lo_pct..=hi_pct` percent.
fn scaled(rng: &mut Rng, v: u32, lo_pct: u64, hi_pct: u64) -> u32 {
    ((v as u64 * rng.range(lo_pct, hi_pct) + 50) / 100).max(1) as u32
}

/// In-core what-if derivations of the paper trio for the `corpus`
/// workload: ROB, scheduler and dispatch width changed, `per_base` per
/// family model. The ROB is drawn stratified — what-if `k` of each base
/// takes its factor from the `k`-th of `per_base` equal slices of
/// 75–150 % — and the dispatch width alternates between one narrower and
/// one wider than the base, so the grid's total cost and accuracy barely
/// depend on the seed.
pub fn incore_whatifs(seed: u64, per_base: usize) -> Vec<Machine> {
    let mut rng = Rng::derive(seed, &[1]);
    let mut out = Vec::new();
    for (builder, base) in trio() {
        for k in 0..per_base {
            let (lo, hi) = stratum(75, 150, k, per_base);
            let rob = scaled(&mut rng, base.rob_size, lo, hi);
            let sched = scaled(&mut rng, base.sched_size, 75, 125).min(rob);
            let dispatch = if k % 2 == 0 {
                base.dispatch_width - 1
            } else {
                base.dispatch_width + 1
            };
            out.push(
                builder()
                    .derive(
                        leak(format!("{}-incore-whatif-{k}", base.id)),
                        leak(format!("{} (in-core what-if {k})", base.name)),
                        leak(format!("{}~{k}", base.chip)),
                        "seeded in-core what-if",
                    )
                    .with_rob(rob)
                    .with_sched_size(sched)
                    .with_dispatch_width(dispatch)
                    .build(),
            );
        }
    }
    out
}

/// The `k`-th of `n` equal slices of `lo..=hi` (percent).
fn stratum(lo: u64, hi: u64, k: usize, n: usize) -> (u64, u64) {
    let w = (hi - lo) as f64 / n as f64;
    (lo + (w * k as f64) as u64, lo + (w * (k + 1) as f64) as u64)
}

/// Per-core L3 slice ladder of the memory what-ifs, as multiples of the
/// base model's slice (what-if `k` takes entry `k % len`).
const SLICE_LADDER: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
/// L2 size ladder, paired with [`SLICE_LADDER`] by index.
const L2_LADDER: [f64; 4] = [2.0, 1.0, 0.5, 1.0];

/// Memory-hierarchy what-if derivations for the `wa_sweep` workload:
/// resized L2 and L3, changed core count and ccNUMA domain count. The
/// per-core cache capacity — which sets the streamed working set and with
/// it the sweep's cost and memory — follows a fixed ladder; the seed
/// draws the core count (85–115 %), the NUMA domains, and the L3 size
/// that keeps the ladder's per-core slice at that core count.
pub fn memory_whatifs(seed: u64, per_base: usize) -> Vec<Machine> {
    let mut rng = Rng::derive(seed, &[2]);
    let mut out = Vec::new();
    for (builder, base) in trio() {
        let level = |name: &str| {
            base.caches
                .iter()
                .find(|c| c.name == name)
                .expect("L2 and L3")
        };
        let (l2, l3) = (level("L2"), level("L3"));
        for k in 0..per_base {
            let domains = *rng.pick(&[1u32, 2, 4]);
            let cores = scaled(&mut rng, base.cores, 85, 115);
            let cores = (cores / domains).max(1) * domains;
            let rung = k % SLICE_LADDER.len();
            let slice_kib = l3.size_kib as f64 / base.cores as f64 * SLICE_LADDER[rung];
            let l3_kib = (slice_kib * cores as f64).round() as u64;
            let l2_kib = (l2.size_kib as f64 * L2_LADDER[rung]) as u64;
            out.push(
                builder()
                    .derive(
                        leak(format!("{}-memory-whatif-{k}", base.id)),
                        leak(format!("{} (memory what-if {k})", base.name)),
                        leak(format!("{}~m{k}", base.chip)),
                        "seeded memory what-if",
                    )
                    .resize_cache("L2", l2_kib, l2.assoc, l2.latency_cy)
                    .resize_cache("L3", l3_kib, l3.assoc, l3.latency_cy)
                    .with_cores(cores)
                    .with_numa_domains(domains)
                    .build(),
            );
        }
    }
    out
}

/// A seeded code-generation configuration for `kernel` within what
/// `machine` decodes: vector width up to `max_isa_vec_bits`, unroll,
/// accumulators and FMA contraction vary.
pub fn gen_cfg(rng: &mut Rng, kernel: StreamKernel, machine: &Machine) -> GenCfg {
    let widths: Vec<u16> = [0u16, 128, 256, 512]
        .into_iter()
        .filter(|&w| w <= machine.max_isa_vec_bits)
        .collect();
    let width = if kernel.is_serial() {
        0
    } else {
        *rng.pick(&widths)
    };
    let x86 = machine.isa == isa::Isa::X86;
    let legacy_sse = x86 && width <= 128 && rng.chance(1, 4);
    let sve = !x86 && machine.arch == Arch::NeoverseV2 && width > 0 && rng.chance(1, 3);
    let unroll = if width == 0 || kernel == StreamKernel::Jacobi3D27 {
        1
    } else {
        rng.range(1, 4) as usize
    };
    GenCfg {
        width,
        unroll,
        accumulators: if kernel.is_reduction() {
            rng.range(1, 4) as usize
        } else {
            1
        },
        fma: !legacy_sse && rng.chance(3, 4),
        legacy_sse,
        sve,
        nt_stores: false,
        post_index: !x86 && !sve && rng.chance(1, 2),
    }
}

/// Emit `kernel` under `cfg` in `machine`'s dialect.
pub fn emit(kernel: StreamKernel, cfg: &GenCfg, machine: &Machine) -> String {
    match machine.isa {
        isa::Isa::X86 => kernels::x86::emit(kernel, cfg),
        isa::Isa::AArch64 => kernels::aarch64::emit(kernel, cfg),
    }
}

/// One `analyze` request of the `serve` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Registry id sent as `"model"`.
    pub model: &'static str,
    pub label: String,
    pub asm: String,
    pub sim: bool,
}

impl ServeRequest {
    /// The NDJSON frame (every request also runs the MCA baseline).
    pub fn frame(&self, id: u64) -> String {
        format!(
            "{{\"type\":\"analyze\",\"id\":{id},\"model\":\"{}\",\"label\":{},\"asm\":{},\"mca\":true,\"sim\":{}}}\n",
            self.model,
            serde_json::to_string(&self.label).expect("strings serialize"),
            serde_json::to_string(&self.asm).expect("strings serialize"),
            self.sim
        )
    }

    pub fn flags(&self) -> cli::AnalyzeFlags {
        cli::AnalyzeFlags {
            mca: true,
            sim: self.sim,
            ..cli::AnalyzeFlags::default()
        }
    }
}

/// Request `index` of a stratified stream. The model, the kernel and the
/// `sim` flag cycle with the index (6 models, 13 kernels and the `sim`
/// period are pairwise coprime, so every combination comes round), and the
/// seed draws only the code-generation shape: any few hundred consecutive
/// requests carry the same mix of models, kernels and simulator work
/// whatever the seed, which keeps the serve metrics from following the
/// seed's luck.
fn serve_request(
    rng: &mut Rng,
    label: String,
    index: u64,
    sim_every: u64,
    tag: Option<&str>,
) -> ServeRequest {
    let ids = uarch::registry::ids();
    let model = ids[index as usize % ids.len()];
    let machine = uarch::registry::machine(model).expect("registry ids resolve");
    let kernel = StreamKernel::ALL[index as usize % StreamKernel::ALL.len()];
    let cfg = gen_cfg(rng, kernel, &machine);
    let mut asm = emit(kernel, &cfg, &machine);
    if let Some(tag) = tag {
        // A trailing comment in the dialect: the parse is unchanged, the
        // text (and so every cache key) is new.
        let comment = if machine.isa == isa::Isa::X86 {
            "#"
        } else {
            "//"
        };
        asm.push_str(&format!("{comment} {tag}\n"));
    }
    ServeRequest {
        model,
        label,
        asm,
        sim: index % sim_every == sim_every - 1,
    }
}

/// The hot set: `n` requests that four in five requests repeat; one in
/// seven carries `sim:true`.
pub fn hot_set(seed: u64, n: usize) -> Vec<ServeRequest> {
    let mut rng = Rng::derive(seed, &[3]);
    (0..n as u64)
        .map(|i| serve_request(&mut rng, format!("hot-{i}"), i, 7, None))
        .collect()
}

/// Request `i` of connection `conn`: a never-seen kernel every fifth
/// request (the connections offset from each other), else a seeded
/// hot-set index; one never-seen request in seventeen carries `sim:true`.
/// Depends only on `(seed, conn, i)`.
pub enum Pick {
    Hot(usize),
    Miss(ServeRequest),
}

pub fn pick_request(seed: u64, conn: u64, i: u64, hot_len: usize) -> Pick {
    let mut rng = Rng::derive(seed, &[4, conn, i]);
    if (i + 2 * conn) % 5 == 4 {
        let tag = format!("request {conn}.{i}");
        Pick::Miss(serve_request(
            &mut rng,
            format!("miss-{conn}-{i}"),
            i / 5,
            17,
            Some(&tag),
        ))
    } else {
        Pick::Hot(rng.below(hot_len as u64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch::Predictor;

    fn predicts(machine: &Machine, asm: &str) {
        let kernel = isa::parse_kernel(asm, machine.isa)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}\n{asm}", machine.id));
        for p in [
            &incore::InCoreModel::new() as &dyn Predictor,
            &mca::McaBaseline,
            &exec::CoreSimulator::default(),
        ] {
            let c = p.predict(machine, &kernel).cycles_per_iter;
            assert!(
                c.is_finite() && c > 0.0,
                "{} on {}: {c}\n{asm}",
                p.name(),
                machine.id
            );
        }
    }

    #[test]
    fn one_seed_yields_identical_inputs() {
        for seed in [1u64, 7, 1234] {
            let fmt = |ms: Vec<Machine>| ms.iter().map(|m| m.to_json()).collect::<Vec<_>>();
            assert_eq!(fmt(incore_whatifs(seed, 2)), fmt(incore_whatifs(seed, 2)));
            assert_eq!(fmt(memory_whatifs(seed, 4)), fmt(memory_whatifs(seed, 4)));
            assert_eq!(hot_set(seed, 48), hot_set(seed, 48));
            for i in 0..64 {
                let a = pick_request(seed, i % 2, i, 48);
                let b = pick_request(seed, i % 2, i, 48);
                match (a, b) {
                    (Pick::Hot(x), Pick::Hot(y)) => assert_eq!(x, y),
                    (Pick::Miss(x), Pick::Miss(y)) => assert_eq!(x, y),
                    _ => panic!("request {i} differs between draws"),
                }
            }
        }
        assert_ne!(hot_set(1, 48), hot_set(2, 48), "the seed must matter");
    }

    #[test]
    fn every_generated_kernel_parses_and_predicts() {
        let seed = 1;
        for m in incore_whatifs(seed, 2) {
            for v in kernels::variants_for(m.arch) {
                predicts(&m, &kernels::generate(&v, &m));
            }
        }
        for r in hot_set(seed, 48) {
            predicts(
                &uarch::registry::machine(r.model).expect("registry id"),
                &r.asm,
            );
        }
        for i in 0..400 {
            if let Pick::Miss(r) = pick_request(seed, i % 2, i, 48) {
                predicts(
                    &uarch::registry::machine(r.model).expect("registry id"),
                    &r.asm,
                );
            }
        }
        // Every (kernel, width, unroll, accumulator, FMA) shape the
        // generator can draw, on every registry model.
        for m in uarch::registry::machines() {
            let mut rng = Rng::new(seed);
            for &k in &StreamKernel::ALL {
                for _ in 0..24 {
                    predicts(&m, &emit(k, &gen_cfg(&mut rng, k, &m), &m));
                }
            }
        }
    }

    #[test]
    fn memory_whatifs_sweep() {
        for m in memory_whatifs(1, 4) {
            let counts = memhier::storebench::fig4_core_counts(&m);
            let mut scratch = memhier::storebench::SweepScratch::default();
            let pts = memhier::storebench::sweep_points(
                &m,
                &counts,
                memhier::StoreKind::Standard,
                memhier::StreamConfig::default(),
                &mut scratch,
            );
            assert!(
                pts.iter().all(|p| p.ratio.is_finite() && p.ratio > 0.0),
                "{}",
                m.id
            );
        }
    }
}
