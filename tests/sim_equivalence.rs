//! Differential tests of the event-driven simulator against its oracle:
//! the event engine (`SimConfig::default()`) must produce *bit-identical*
//! results to the naive cycle-stepped reference engine
//! (`SimConfig { reference: true }`) on the standard validation grid of
//! every registry model, on in-core what-ifs, on generated kernel shapes,
//! on randomized dependency chains and on one named case per exit path.
//! This is the contract that lets `validate --json` stay byte-identical
//! across engine rewrites. `exec::simulate_stats` pins that wake-ups are
//! exact and that the steady-state exit engages.
//!
//! The ignored test sweeps 10^4 seeded generated kernels; run it with
//! `cargo test --release --test sim_equivalence -- --ignored`. A failure
//! names its seed, and `support::kernel_for_seed` rebuilds the kernel
//! from it.

mod support;

use exec::{SimConfig, SimStats, SteadyExit};
use isa::{Isa, Kernel};
use kernels::{Compiler, OptLevel, StreamKernel};
use proptest::prelude::*;
use support::{grid, kernel_for_seed, parse};
use uarch::compose::{self, MachineBuilder};
use uarch::Machine;

/// The observable fields of a [`exec::SimResult`], with floats as bits so
/// equality is exact. `early_exit_iter` is engine bookkeeping and is
/// deliberately excluded — it is the one field allowed to differ.
fn bits(r: exec::SimResult) -> (u64, u64, u64, bool) {
    (
        r.cycles_per_iter.to_bits(),
        r.total_cycles,
        r.uops_per_cycle.to_bits(),
        r.truncated,
    )
}

/// Assert both engines agree on `k` under `cfg`; return the event run's
/// counters.
fn assert_engines_agree(m: &Machine, k: &Kernel, cfg: SimConfig, label: &str) -> SimStats {
    let stats = exec::simulate_stats(m, k, cfg);
    let event = exec::simulate(m, k, cfg);
    let reference = exec::simulate(
        m,
        k,
        SimConfig {
            reference: true,
            ..cfg
        },
    );
    assert_eq!(
        bits(event),
        bits(reference),
        "{label} on {}: event {event:?} vs reference {reference:?}",
        m.id
    );
    assert_eq!(
        stats.result, event,
        "{label} on {}: simulate_stats disagrees with simulate",
        m.id
    );
    stats
}

/// The grid of `m` without repeated blocks (several compiler settings
/// emit the same assembly), so debug builds simulate each block once.
fn distinct_grid(m: &Machine) -> Vec<(String, Kernel)> {
    let mut seen = std::collections::HashSet::new();
    grid(m)
        .into_iter()
        .filter(|(asm, _)| seen.insert(asm.clone()))
        .collect()
}

/// Every corpus variant on every machine, with a reduced iteration count
/// so the naive engine stays affordable in debug builds. The full-length
/// default config is covered by `registry_grid_is_bit_identical`.
#[test]
fn corpus_engines_agree_everywhere() {
    let cfg = SimConfig {
        iterations: 40,
        warmup: 10,
        ..Default::default()
    };
    for m in uarch::all_machines() {
        for v in kernels::variants_for(m.arch) {
            let k = kernels::generate_kernel(&v, &m);
            assert_engines_agree(&m, &k, cfg, &v.label());
        }
    }
}

/// Every registry model × its standard grid at `SimConfig::default()`.
#[test]
fn registry_grid_is_bit_identical() {
    let machines = uarch::registry::machines();
    std::thread::scope(|scope| {
        for m in &machines {
            scope.spawn(move || {
                for (asm, k) in distinct_grid(m) {
                    assert_engines_agree(m, &k, SimConfig::default(), &asm);
                }
            });
        }
    });
}

/// In-core what-ifs of the paper trio, composed through `uarch::compose`
/// on every fourth grid block: a smaller ROB and scheduler behind a
/// narrower dispatch, a larger ROB and scheduler behind a wider one, and
/// a 4× ROB.
#[test]
fn composed_whatifs_are_bit_identical() {
    let trio: [(fn() -> MachineBuilder, Machine); 3] = [
        (compose::neoverse_v2, Machine::neoverse_v2()),
        (compose::golden_cove, Machine::golden_cove()),
        (compose::zen4, Machine::zen4()),
    ];
    let mut whatifs = Vec::new();
    for (builder, base) in trio {
        for (k, delta) in [-1i32, 2].into_iter().enumerate() {
            whatifs.push(
                builder()
                    .derive("sim-whatif", "what-if", "what-if", "what-if")
                    .with_rob(base.rob_size * (2 + k as u32) / 3)
                    .with_sched_size(base.sched_size / (2 - k as u32))
                    .with_dispatch_width((base.dispatch_width as i32 + delta) as u32)
                    .build(),
            );
        }
        whatifs.push(
            builder()
                .derive("sim-whatif-rob", "what-if", "what-if", "what-if")
                .with_rob(base.rob_size * 4)
                .build(),
        );
    }
    std::thread::scope(|scope| {
        for m in &whatifs {
            scope.spawn(move || {
                for (asm, k) in distinct_grid(m).into_iter().step_by(4) {
                    assert_engines_agree(m, &k, SimConfig::default(), &asm);
                }
            });
        }
    });
}

/// Early exit disabled must also match — it removes the extrapolation
/// but keeps the event-jumping clock.
#[test]
fn no_early_exit_still_agrees() {
    let m = Machine::zen4();
    let cfg = SimConfig {
        iterations: 60,
        warmup: 15,
        early_exit: false,
        ..Default::default()
    };
    for v in kernels::variants_for(m.arch).iter().take(8) {
        let k = kernels::generate_kernel(v, &m);
        assert_engines_agree(&m, &k, cfg, &v.label());
    }
}

/// Wake-ups are exact (none finds an operand not ready) and the
/// steady-state exit engages on the registry grid.
#[test]
fn wakeups_are_exact_and_the_exit_engages_on_the_registry_grid() {
    let mut blocks = 0;
    let mut early = 0;
    let mut wakeups = 0;
    for m in uarch::registry::machines() {
        for (asm, k) in distinct_grid(&m) {
            let stats = exec::simulate_stats(&m, &k, SimConfig::default());
            blocks += 1;
            wakeups += stats.wakeups;
            assert_eq!(stats.not_ready, 0, "{asm} on {}: {stats:?}", m.id);
            assert!(stats.fingerprints <= exec::SAMPLE_BUDGET, "{stats:?}");
            if stats.exit != SteadyExit::None {
                early += 1;
            }
        }
    }
    assert_eq!(blocks, 467, "the registry grid changed size");
    assert!(wakeups > 0);
    assert!(early >= 449, "only {early} of {blocks} blocks exited early");
}

/// The Sum reduction at gcc -O1/-O2 on the 1024-entry-ROB Golden Cove
/// matches its fingerprint before the warm-up boundary retires, with
/// every iteration already dispatched by then: the warm-up's issued-µ-op
/// count must not be extrapolated past the end of dispatch.
#[test]
fn warmup_boundary_after_dispatch_ends() {
    let m = uarch::registry::machine("golden-cove-rob1024").expect("registry model");
    let cfg = SimConfig::default();
    let mut checked = 0;
    for v in kernels::variants_for(m.arch) {
        if v.kernel == StreamKernel::Sum
            && v.compiler == Compiler::Gcc
            && matches!(v.opt, OptLevel::O1 | OptLevel::O2)
        {
            let k = kernels::generate_kernel(&v, &m);
            let stats = assert_engines_agree(&m, &k, cfg, &v.label());
            assert!(
                stats
                    .result
                    .early_exit_iter
                    .is_some_and(|it| it < cfg.warmup),
                "{stats:?}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 2);
}

#[test]
fn closed_form_exit() {
    let m = Machine::golden_cove();
    let k = parse(
        ".L1:\n vmovupd (%rsi,%rax), %zmm0\n vaddpd %zmm0, %zmm1, %zmm2\n vmovupd %zmm2, (%rdi,%rax)\n addq $64, %rax\n cmpq %rcx, %rax\n jne .L1\n",
        Isa::X86,
    );
    let stats = assert_engines_agree(&m, &k, SimConfig::default(), "streaming add");
    assert_eq!(stats.exit, SteadyExit::ClosedForm, "{stats:?}");
}

#[test]
fn teleport_with_a_port_blocking_divide() {
    // vdivsd holds its port for several cycles, so a younger µ-op can
    // delay an older one: the run teleports and simulates the drain.
    let m = Machine::zen4();
    let k = parse(
        ".L0:\n vmulsd %xmm1, %xmm1, %xmm5\n vaddsd %xmm14, %xmm5, %xmm5\n vdivsd %xmm5, %xmm13, %xmm7\n vaddsd %xmm7, %xmm0, %xmm0\n vaddsd %xmm12, %xmm1, %xmm1\n subq $1, %rax\n jne .L0\n",
        Isa::X86,
    );
    let stats = assert_engines_agree(&m, &k, SimConfig::default(), "scalar pi");
    assert_eq!(stats.exit, SteadyExit::Teleport, "{stats:?}");
}

#[test]
fn leaking_rob_slots_never_pay_for_a_full_fingerprint() {
    // An eliminated `nop` keeps its ROB slot, so the ROB occupancy in the
    // sample head grows every iteration: no head recurs, and the run
    // takes no full fingerprint at all.
    let m = Machine::golden_cove();
    let k = parse(
        ".L1:\n nop\n addq $1, %rax\n cmpq %rcx, %rax\n jne .L1\n",
        Isa::X86,
    );
    let stats = assert_engines_agree(&m, &k, SimConfig::default(), "nop");
    assert_eq!(stats.exit, SteadyExit::None, "{stats:?}");
    assert_eq!(stats.fingerprints, 0, "{stats:?}");
}

#[test]
fn zero_weight_edges_from_real_uops() {
    // Machine files may declare latency-0 µ-ops; their results (and flags)
    // feed consumers in the producer's own cycle, which the event engine
    // must examine later in that same cycle, in window order.
    let kernels = [
        ".L1:\n addq $1, %rax\n addq %rax, %rbx\n addq %rbx, %rcx\n subq %rcx, %rdx\n jne .L1\n",
        ".L1:\n vaddpd %ymm1, %ymm2, %ymm3\n addq %rax, %rbx\n xorq %rbx, %rax\n addq %rbx, %rcx\n cmpq %rcx, %rdx\n jne .L1\n",
    ];
    for mut m in [Machine::golden_cove(), Machine::zen4()] {
        for e in &mut m.table {
            if e.mnemonics.contains(&"add") {
                e.latency = 0;
            }
        }
        for narrow in [false, true] {
            if narrow {
                m.dispatch_width = 2;
            }
            for asm in kernels {
                let k = parse(asm, Isa::X86);
                for cfg in [
                    SimConfig::default(),
                    SimConfig {
                        iterations: 9,
                        warmup: 2,
                        ..Default::default()
                    },
                ] {
                    let stats = assert_engines_agree(&m, &k, cfg, asm);
                    assert_eq!(stats.not_ready, 0, "{stats:?}");
                }
            }
        }
    }
}

fn check_seed(seed: u64, machines: &[Machine]) {
    let (mi, asm) = kernel_for_seed(seed, machines);
    let m = &machines[mi];
    let k = parse(&asm, m.isa);
    let stats = assert_engines_agree(m, &k, SimConfig::default(), &format!("seed {seed}:\n{asm}"));
    assert_eq!(stats.not_ready, 0, "seed {seed}: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated kernel shapes on every registry model.
    #[test]
    fn generated_shapes_are_bit_identical(seed in 0u64..u64::MAX) {
        check_seed(seed, &uarch::registry::machines());
    }

    /// Random dependency chains: a handful of vector ops over random
    /// registers, so chains, fan-out, and port contention vary freely.
    /// `vdivpd` exercises occupancy > 1 (port blocking disables the
    /// steady-state extrapolation but not the event clock).
    #[test]
    fn random_dependency_chains_agree(
        ops in prop::collection::vec(
            (
                prop::sample::select(vec!["vaddpd", "vmulpd", "vfmadd231pd", "vdivpd", "vxorpd"]),
                0u8..8, 0u8..8, 0u8..8,
            ),
            1..10,
        ),
        iterations in 8usize..48,
    ) {
        let mut asm = String::new();
        for (op, r1, r2, r3) in &ops {
            asm.push_str(&format!("{op} %ymm{r1}, %ymm{r2}, %ymm{r3}\n"));
        }
        let k = isa::parse_kernel(&asm, isa::Isa::X86).unwrap();
        let cfg = SimConfig {
            iterations,
            warmup: iterations / 4,
            ..Default::default()
        };
        for m in [Machine::golden_cove(), Machine::zen4()] {
            let event = exec::simulate(&m, &k, cfg);
            let reference = exec::simulate(
                &m,
                &k,
                SimConfig { reference: true, ..cfg },
            );
            prop_assert_eq!(
                bits(event),
                bits(reference),
                "{} on:\n{}",
                m.arch.label(),
                asm
            );
        }
    }

    /// Load/store mixes on the aarch64 machine: stores complete on a
    /// different schedule (last µ-op + 1), which the event clock must
    /// reproduce exactly.
    #[test]
    fn random_memory_chains_agree_on_v2(
        n_pairs in 1usize..5,
        offset in prop::sample::select(vec![0u32, 8, 16, 64]),
    ) {
        let m = Machine::neoverse_v2();
        let mut asm = String::new();
        for i in 0..n_pairs {
            asm.push_str(&format!("ldr q{i}, [x1, #{offset}]\n"));
            asm.push_str(&format!("fadd v{i}.2d, v{i}.2d, v{}.2d\n", i + 8));
            asm.push_str(&format!("str q{i}, [x2, #{offset}]\n"));
        }
        let k = isa::parse_kernel(&asm, isa::Isa::AArch64).unwrap();
        let cfg = SimConfig { iterations: 32, warmup: 8, ..Default::default() };
        let event = exec::simulate(&m, &k, cfg);
        let reference = exec::simulate(&m, &k, SimConfig { reference: true, ..cfg });
        prop_assert_eq!(bits(event), bits(reference), "{}", asm);
    }
}

/// 10^4 seeded generated kernels (release mode; see the module docs).
#[test]
#[ignore]
fn generated_sweep_is_bit_identical() {
    let machines = uarch::registry::machines();
    let mut failed = Vec::new();
    for seed in 0..10_000u64 {
        let outcome = std::panic::catch_unwind(|| check_seed(seed, &machines));
        if outcome.is_err() {
            eprintln!("sim_equivalence: seed {seed} failed");
            failed.push(seed);
        }
    }
    assert!(failed.is_empty(), "failing seeds: {failed:?}");
}
