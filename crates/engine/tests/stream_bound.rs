//! The stream's memory bound: no block starts `window` or more positions
//! past the last delivered record, however long the block at the
//! delivery point takes — and a panic anywhere in the stream surfaces
//! instead of leaving the other participants waiting on each other.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use engine::Session;
use uarch::{Bottleneck, Machine, Prediction, Predictor};

const WINDOW: usize = 8;
const THREADS: usize = 2;
const BLOCKS: usize = 400;

/// Shared between the predictor (which starts blocks) and the sink
/// (which receives them).
#[derive(Default)]
struct Progress {
    started: AtomicUsize,
    delivered: AtomicUsize,
    max_gap: AtomicUsize,
    stalled: AtomicBool,
}

impl Progress {
    /// Started minus delivered. `delivered` is read first: a block is
    /// always started before it is delivered, so the difference of these
    /// two reads never goes negative.
    fn gap(&self) -> usize {
        let delivered = self.delivered.load(Ordering::SeqCst);
        self.started.load(Ordering::SeqCst) - delivered
    }
}

/// A trivial predictor whose first call stalls until the other workers
/// have run more than `WINDOW + THREADS` blocks ahead of delivery, or a
/// second passes — whichever comes first.
struct Stall(Arc<Progress>);

impl Predictor for Stall {
    fn name(&self) -> &'static str {
        "stall"
    }

    fn predict(&self, _machine: &Machine, _kernel: &isa::Kernel) -> Prediction {
        let p = &self.0;
        p.started.fetch_add(1, Ordering::SeqCst);
        p.max_gap.fetch_max(p.gap(), Ordering::SeqCst);
        if !p.stalled.swap(true, Ordering::SeqCst) {
            let deadline = Instant::now() + Duration::from_secs(1);
            while p.gap() <= WINDOW + THREADS && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Prediction {
            cycles_per_iter: 1.0,
            bottleneck: Bottleneck::Unattributed,
            port_pressure: Vec::new(),
            uops_per_iter: 1.0,
        }
    }
}

fn session(predictor: Box<dyn Predictor>) -> Session {
    Session::new()
        .archs(&[uarch::Arch::GoldenCove])
        .volume(BLOCKS)
        .threads(THREADS)
        .reference(None)
        .predictors(vec![predictor])
}

#[test]
fn a_stalled_block_holds_back_the_others() {
    let progress = Arc::new(Progress::default());
    let mut kernels = Vec::new();
    let outcome = session(Box::new(Stall(Arc::clone(&progress))))
        .stream(WINDOW, |r| {
            progress.delivered.fetch_add(1, Ordering::SeqCst);
            kernels.push(r.kernel);
        })
        .expect("stream runs");
    assert_eq!(outcome.blocks, BLOCKS);
    assert_eq!(progress.started.load(Ordering::SeqCst), BLOCKS);
    let max_gap = progress.max_gap.load(Ordering::SeqCst);
    assert!(
        max_gap <= WINDOW + THREADS,
        "{max_gap} blocks started ahead of delivery with a window of {WINDOW}"
    );
    // Still every block, in grid order.
    let expected: Vec<String> = kernels::volume::volume_blocks(uarch::Arch::GoldenCove, BLOCKS)
        .iter()
        .map(|b| b.kernel_label())
        .collect();
    assert_eq!(kernels, expected);
}

/// Panics on the second block it sees.
struct PanicOnce(AtomicUsize);

impl Predictor for PanicOnce {
    fn name(&self) -> &'static str {
        "panic"
    }

    fn predict(&self, _machine: &Machine, _kernel: &isa::Kernel) -> Prediction {
        assert_ne!(
            self.0.fetch_add(1, Ordering::SeqCst),
            1,
            "predictor gave up"
        );
        Prediction {
            cycles_per_iter: 1.0,
            bottleneck: Bottleneck::Unattributed,
            port_pressure: Vec::new(),
            uops_per_iter: 1.0,
        }
    }
}

#[test]
fn a_panicking_predictor_surfaces() {
    let s = session(Box::new(PanicOnce(AtomicUsize::new(0))));
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.stream(WINDOW, |_| {})));
    assert!(result.is_err(), "the worker's panic reaches the caller");
}

#[test]
fn a_panicking_sink_surfaces() {
    let s = session(Box::new(incore::InCoreModel::new()));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        s.stream(WINDOW, |r| panic!("sink rejected {}", r.kernel))
    }));
    assert!(result.is_err(), "the sink's panic reaches the caller");
}
