//! The pipeline's determinism contract: a parallel run serializes
//! byte-identically to a single-threaded run, including the cache
//! counters.
//! The `timings` block is the report's one documented wall-clock field,
//! so comparisons zero it first.

use engine::Session;

fn slice_report(threads: usize) -> engine::BatchReport {
    Session::new()
        .archs(&[uarch::Arch::GoldenCove, uarch::Arch::NeoverseV2])
        .limit(48)
        .threads(threads)
        .run()
        .unwrap()
}

/// The report minus its wall-clock observations — what "deterministic"
/// is defined over.
fn canonical_json(mut report: engine::BatchReport) -> String {
    report.timings = engine::RunTimings::default();
    report.to_json()
}

#[test]
fn parallel_json_is_byte_identical_to_serial() {
    let serial = canonical_json(slice_report(1));
    for threads in [2, 4, 8] {
        let parallel = canonical_json(slice_report(threads));
        assert_eq!(
            serial, parallel,
            "thread count {threads} changed the serialized report"
        );
    }
}

#[test]
fn cache_counters_are_scheduling_independent() {
    let base = slice_report(1).cache;
    for threads in [2, 8] {
        assert_eq!(slice_report(threads).cache, base);
    }
}

#[test]
fn records_keep_grid_order() {
    let report = slice_report(3);
    // The grid is machines (in arch order) x variants (in corpus order);
    // the first records must be the first machine's variants, in order.
    let variants = kernels::variants_for(uarch::Arch::GoldenCove);
    for (record, variant) in report.records.iter().zip(&variants) {
        assert_eq!(record.kernel, variant.kernel.name());
        assert_eq!(record.compiler, variant.compiler.name());
        assert_eq!(record.opt, variant.opt.name());
        assert_eq!(record.chip, "SPR");
    }
}
