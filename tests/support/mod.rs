//! Kernel sources shared by the differential test suites: the standard
//! validation grid of a machine and seeded `GenCfg` kernel shapes.

use isa::{Isa, Kernel};
use kernels::{GenCfg, StreamKernel};
use uarch::Machine;

/// The standard validation grid of `m`: one labelled kernel per variant.
pub fn grid(m: &Machine) -> Vec<(String, Kernel)> {
    let n = kernels::variants_for(m.arch).len();
    kernels::volume::volume_blocks(m.arch, n)
        .into_iter()
        .map(|b| {
            let asm = b.generate(m);
            let k = isa::parse_kernel(&asm, m.isa).expect("grid block parses");
            (asm, k)
        })
        .collect()
}

pub fn parse(asm: &str, isa: Isa) -> Kernel {
    isa::parse_kernel(asm, isa).expect("kernel parses")
}

/// SplitMix64: the seeded stream behind [`kernel_for_seed`].
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A registry model and a kernel emitted for it under a seeded `GenCfg`
/// shape within what the model decodes: vector width, SSE/SVE encoding,
/// unroll, accumulators, FMA contraction, post-index addressing and
/// non-temporal stores all vary.
pub fn kernel_for_seed(seed: u64, machines: &[Machine]) -> (usize, String) {
    let mut r = SplitMix(seed);
    let mi = r.below(machines.len() as u64) as usize;
    let m = &machines[mi];
    let kernel = StreamKernel::ALL[r.below(StreamKernel::ALL.len() as u64) as usize];
    let widths: Vec<u16> = [0u16, 128, 256, 512]
        .into_iter()
        .filter(|&w| w <= m.max_isa_vec_bits)
        .collect();
    let width = if kernel.is_serial() {
        0
    } else {
        widths[r.below(widths.len() as u64) as usize]
    };
    let x86 = m.isa == Isa::X86;
    let legacy_sse = x86 && width <= 128 && r.below(4) == 0;
    let sve = !x86 && width > 0 && r.below(3) == 0;
    let cfg = GenCfg {
        width,
        unroll: 1 + r.below(4) as usize,
        accumulators: 1 + r.below(4) as usize,
        fma: !legacy_sse && r.below(4) != 0,
        legacy_sse,
        sve,
        nt_stores: r.below(6) == 0,
        post_index: !x86 && !sve && r.below(2) == 0,
    };
    let asm = if x86 {
        kernels::x86::emit(kernel, &cfg)
    } else {
        kernels::aarch64::emit(kernel, &cfg)
    };
    (mi, asm)
}
