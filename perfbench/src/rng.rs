//! SplitMix64: a tiny, fully specified PRNG, so one seed yields the same
//! inputs on every platform and toolchain.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `(seed, salt...)`: the serve clients draw
    /// request `i` of connection `c` from `Rng::derive(seed, &[c, i])`, so a
    /// request's content never depends on how far other clients got.
    pub fn derive(seed: u64, salt: &[u64]) -> Rng {
        let mut r = Rng(seed ^ 0x6a09_e667_f3bc_c909);
        for &s in salt {
            r = Rng(r.next_u64() ^ s.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}
