//! Order statistics over raw samples, plus the tiny helpers every phase
//! shares (content digests, CPU clocks, peak RSS).

use std::time::Instant;

/// Linear-interpolation quantile (`q` in `0..=1`) of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The highest whole percentile that still leaves at least ten samples
/// beyond it — the tail a sample of `n` can support.
pub fn supported_tail_pct(n: usize) -> u32 {
    if n < 11 {
        return 0;
    }
    ((1.0 - 10.0 / n as f64) * 100.0).floor() as u32
}

/// FNV-1a, 64 bit: the output digest two commits compare for identity.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// CPU time this process has used so far, in seconds: the sum over its
/// threads of their time on a CPU (`CLOCK_PROCESS_CPUTIME_ID`, 64-bit
/// Linux). On a guest kernel with paravirtual steal-time accounting, time
/// the hypervisor withholds from the VM is not in it, unlike wall time.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Wall clock and process CPU clock read together.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_s: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// `(wall seconds, CPU seconds)` since `self`.
    pub fn elapsed(&self) -> (f64, f64) {
        let cpu_s = process_cpu_s() - self.cpu_s;
        (self.wall.elapsed().as_secs_f64(), cpu_s)
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!((quantile(&v, 0.25), quantile(&v, 0.75)), (2.0, 4.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        assert_eq!(supported_tail_pct(10), 0);
        assert_eq!(supported_tail_pct(1000), 99);
        assert_eq!(supported_tail_pct(200), 95);
    }
}
