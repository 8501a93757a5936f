//! Differential tests of the fast MCA-style simulation against its oracle:
//! `mca::predict` must reproduce `mca::predict_reference` bit for bit
//! (`cycles_per_iter` via `f64::to_bits`, and `uops`) on the standard
//! validation grid of every registry model, on in-core what-ifs, on
//! generated kernel shapes and on one named case per simulation path.
//! `mca::predict_stats` pins that the steady-state exit engages.
//!
//! The ignored test sweeps 10^4 seeded generated kernels; run it with
//! `cargo test --release --test mca_equivalence -- --ignored`. A failure
//! names its seed, and `kernel_for_seed` rebuilds the kernel from it.

mod support;

use isa::{Isa, Kernel};
use mca::{McaStats, SteadyExit};
use proptest::prelude::*;
use support::{grid, kernel_for_seed, parse};
use uarch::compose::{self, MachineBuilder};
use uarch::Machine;

/// Assert fast and oracle agree on `k`; return the fast run's counters.
fn assert_identical(m: &Machine, k: &Kernel, label: &str) -> McaStats {
    let stats = mca::predict_stats(m, k);
    let fast = mca::predict(m, k);
    let oracle = mca::predict_reference(m, k);
    assert_eq!(
        (fast.cycles_per_iter.to_bits(), fast.uops),
        (oracle.cycles_per_iter.to_bits(), oracle.uops),
        "{label} on {}: fast {fast:?} vs reference {oracle:?}",
        m.id
    );
    assert_eq!(
        (stats.result.cycles_per_iter.to_bits(), stats.result.uops),
        (fast.cycles_per_iter.to_bits(), fast.uops),
        "{label} on {}: predict_stats disagrees with predict",
        m.id
    );
    stats
}

#[test]
fn registry_grid_is_bit_identical() {
    let machines = uarch::registry::machines();
    std::thread::scope(|scope| {
        for m in &machines {
            scope.spawn(move || {
                for (asm, k) in grid(m) {
                    assert_identical(m, &k, &asm);
                }
            });
        }
    });
}

#[test]
fn steady_state_exit_engages_on_the_registry_grid() {
    let mut blocks = 0;
    let mut early = 0;
    for m in uarch::registry::machines() {
        for (_, k) in grid(&m) {
            let stats = mca::predict_stats(&m, &k);
            blocks += 1;
            if stats.exit != SteadyExit::None {
                early += 1;
                assert!(stats.simulated_iters < 180, "{stats:?}");
            }
            assert!(stats.fingerprints <= mca::SAMPLE_BUDGET, "{stats:?}");
        }
    }
    assert_eq!(blocks, 884, "the registry grid changed size");
    assert!(early >= 465, "only {early} of {blocks} blocks exited early");
}

/// In-core what-ifs of the paper trio: ROB, scheduler size and dispatch
/// width changed through `uarch::compose`, on every fourth grid block.
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
                    .derive("mca-whatif", "what-if", "what-if", "what-if")
                    .with_rob(base.rob_size * (2 + k as u32) / 3)
                    .with_sched_size(base.sched_size / (2 - k as u32))
                    .with_dispatch_width((base.dispatch_width as i32 + delta) as u32)
                    .build(),
            );
        }
    }
    std::thread::scope(|scope| {
        for m in &whatifs {
            scope.spawn(move || {
                for (asm, k) in grid(m).into_iter().step_by(4) {
                    assert_identical(m, &k, &asm);
                }
            });
        }
    });
}

fn check_seed(seed: u64, machines: &[Machine]) {
    let (mi, asm) = kernel_for_seed(seed, machines);
    let m = &machines[mi];
    let k = parse(&asm, m.isa);
    assert_identical(m, &k, &format!("seed {seed}:\n{asm}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generated kernel shapes on every registry model.
    #[test]
    fn generated_shapes_are_bit_identical(seed in 0u64..u64::MAX) {
        check_seed(seed, &uarch::registry::machines());
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
            eprintln!("mca_equivalence: seed {seed} failed");
            failed.push(seed);
        }
    }
    assert!(failed.is_empty(), "failing seeds: {failed:?}");
}

#[test]
fn closed_form_exit() {
    let m = Machine::golden_cove();
    let k = parse(
        ".L1:\n vmovupd (%rsi,%rax), %zmm0\n vaddpd %zmm0, %zmm1, %zmm2\n vmovupd %zmm2, (%rdi,%rax)\n addq $64, %rax\n cmpq %rcx, %rax\n jne .L1\n",
        Isa::X86,
    );
    let stats = assert_identical(&m, &k, "streaming add");
    assert_eq!(stats.exit, SteadyExit::ClosedForm, "{stats:?}");
    assert!(stats.simulated_iters < 180, "{stats:?}");
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
    let stats = assert_identical(&m, &k, "scalar pi");
    assert_eq!(stats.exit, SteadyExit::Teleport, "{stats:?}");
    assert!(stats.simulated_iters < 180, "{stats:?}");
}

#[test]
fn never_repeating_block_stops_fingerprinting_at_its_budget() {
    // Neoverse V2 UPDATE: cursor rotation during dispatch stalls never
    // repeats the state, so sampling stops once its budget is spent.
    let m = Machine::neoverse_v2();
    let k = parse(
        ".L0:\n ldr d1, [x0]\n fmul d1, d1, d28\n str d1, [x0], #8\n subs x5, x5, #1\n b.ne .L0\n",
        Isa::AArch64,
    );
    let stats = assert_identical(&m, &k, "V2 UPDATE");
    assert_eq!(stats.exit, SteadyExit::None, "{stats:?}");
    assert_eq!(stats.simulated_iters, 180, "{stats:?}");
    assert_eq!(stats.fingerprints, mca::SAMPLE_BUDGET, "{stats:?}");
}

#[test]
fn match_before_the_warmup_boundary() {
    // Both exits can match before iteration 30 retires; the warm-up
    // boundary's retire cycle is then extrapolated, not simulated.
    let m = Machine::zen4();
    let sum = parse(
        ".L0:\n vaddsd (%rsi,%rax,8), %xmm0, %xmm0\n addq $1, %rax\n cmpq %r8, %rax\n jne .L0\n",
        Isa::X86,
    );
    let pi = parse(
        ".L0:\n vmulpd %zmm1, %zmm1, %zmm5\n vaddpd %zmm14, %zmm5, %zmm5\n vdivpd %zmm5, %zmm13, %zmm7\n vaddpd %zmm7, %zmm0, %zmm0\n vaddpd %zmm12, %zmm1, %zmm1\n vmulpd %zmm1, %zmm1, %zmm6\n vaddpd %zmm14, %zmm6, %zmm6\n vdivpd %zmm6, %zmm13, %zmm8\n vaddpd %zmm8, %zmm1, %zmm1\n vaddpd %zmm12, %zmm1, %zmm1\n subq $1, %rax\n jne .L0\n",
        Isa::X86,
    );
    for (k, exit) in [(sum, SteadyExit::ClosedForm), (pi, SteadyExit::Teleport)] {
        let stats = assert_identical(&m, &k, "early match");
        assert_eq!(stats.exit, exit, "{stats:?}");
        assert!(stats.matched_at.is_some_and(|it| it < 30), "{stats:?}");
    }
}

#[test]
fn zero_uop_nop() {
    for m in [Machine::golden_cove(), Machine::zen4()] {
        let k = parse(
            ".L1:\n nop\n addq $1, %rax\n cmpq %rcx, %rax\n jne .L1\n",
            Isa::X86,
        );
        assert_identical(&m, &k, "nop");
    }
}

#[test]
fn empty_kernel() {
    let m = Machine::zen4();
    let k = Kernel {
        instructions: vec![],
        isa: Isa::X86,
        loop_label: None,
    };
    let stats = assert_identical(&m, &k, "empty");
    assert_eq!(stats.result.cycles_per_iter, 0.0);
    assert_eq!(stats.exit, SteadyExit::None);
}
