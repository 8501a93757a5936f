//! Equivalence suite for the throughput pipeline: the thread count, the
//! stream window, the persistent result cache, and the interned parse
//! path must all be *invisible* in the report bytes — they may only
//! change how fast the answer arrives, never the answer.

use proptest::prelude::*;

const ARCH: uarch::Arch = uarch::Arch::GoldenCove;
const BLOCKS: usize = 10;

/// A small volume-corpus session (replicas included past one grid pass
/// would need a bigger volume; 10 blocks keeps the suite quick).
fn session(threads: usize) -> engine::Session {
    engine::Session::new()
        .archs(&[ARCH])
        .volume(BLOCKS)
        .threads(threads)
        .reference(None)
}

/// Report JSON with the wall-clock `timings` block zeroed.
fn normalized(report: &engine::BatchReport) -> String {
    let mut r = report.clone();
    r.timings = Default::default();
    r.to_json()
}

/// The report `stream` delivers at `window`, assembled as `run` does.
fn streamed(session: &engine::Session, window: usize) -> engine::BatchReport {
    let mut records = Vec::new();
    let outcome = session
        .stream(window, |r| records.push(r))
        .expect("stream runs");
    engine::BatchReport::from_records(
        outcome.archs,
        outcome.predictors,
        outcome.reference,
        records,
        outcome.cache,
    )
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("incore-pipeline-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn one_path_is_thread_and_window_invariant() {
    let golden = session(1).run().expect("runs");
    assert_eq!(golden.records.len(), BLOCKS);
    let golden = normalized(&golden);
    for threads in [1usize, 8] {
        assert_eq!(
            normalized(&session(threads).run().expect("runs")),
            golden,
            "report must not depend on thread count ({threads})"
        );
        for window in [1usize, 3] {
            assert_eq!(
                normalized(&streamed(&session(threads), window)),
                golden,
                "report must not depend on the window ({threads} threads, window {window})"
            );
        }
    }
}

#[test]
fn warm_cache_run_is_byte_identical_to_cold() {
    let dir = temp_dir("warm");
    let cold = session(2).cache_dir(&dir).run().expect("cold runs");
    let warm = session(2).cache_dir(&dir).run().expect("warm runs");
    assert_eq!(
        normalized(&cold),
        normalized(&warm),
        "a disk-replayed run may not change a byte of the report"
    );
    // A narrow-window stream replays the same cache entries.
    let replayed = streamed(&session(2).cache_dir(&dir), 1);
    assert_eq!(normalized(&replayed), normalized(&cold));
    // A profiled run carries the `obs` block, disk counters included,
    // and is otherwise the same report.
    let mut profiled = session(2)
        .cache_dir(&dir)
        .profile(true)
        .run()
        .expect("profiled warm runs");
    let obs = profiled.obs.take().expect("profiled run carries obs");
    assert_eq!(
        (obs.disk_hits, obs.disk_misses, obs.disk_hit_rate),
        (Some(BLOCKS as u64), Some(0), Some(1.0))
    );
    assert_eq!(normalized(&profiled), normalized(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte offsets of the frame headers in a cache directory's log.
fn frame_starts(log: &[u8]) -> Vec<usize> {
    const MAGIC: &[u8] = b"@frame ";
    log.windows(MAGIC.len())
        .enumerate()
        .filter(|(_, w)| *w == MAGIC)
        .map(|(i, _)| i)
        .collect()
}

#[test]
fn damaged_cache_entries_fall_back_to_recompute() {
    let dir = temp_dir("damage");
    let cold = session(1).cache_dir(&dir).run().expect("cold runs");
    let log = dir.join("cache.log");
    let mut bytes = std::fs::read(&log).expect("cold run persisted the corpus");
    let starts = frame_starts(&bytes);
    assert!(starts.len() >= 4, "cold run persisted the corpus");
    // Stamp frame 3 with a stale format version in place, scribble over
    // the payload of frame 2, and cut frame 1 short in the middle of the
    // log — all three must be treated as misses that recompute (and the
    // stale one must not be trusted), while every other frame replays.
    let stamp = starts[3]
        + bytes[starts[3]..]
            .windows(19)
            .position(|w| w == b"incore-diskcache v1")
            .expect("format line");
    bytes[stamp..stamp + 19].copy_from_slice(b"incore-diskcache v0");
    let end = starts[3];
    bytes[end - 24..end].copy_from_slice(b"not a cache entry at all");
    bytes.drain(starts[2] - 20..starts[2]);
    std::fs::write(&log, &bytes).expect("damage the log");
    let mut warm = session(1)
        .cache_dir(&dir)
        .profile(true)
        .run()
        .expect("damaged entries are misses, not errors");
    let obs = warm.obs.take().expect("profiled run");
    assert_eq!(
        (obs.disk_hits, obs.disk_misses),
        (Some(BLOCKS as u64 - 3), Some(3)),
        "damage costs exactly the three damaged frames"
    );
    assert_eq!(
        obs.predictors
            .iter()
            .map(|p| p.predictor.as_str())
            .collect::<Vec<_>>(),
        ["incore", "mca"]
    );
    for p in &obs.predictors {
        assert_eq!(
            Some(p.calls),
            obs.disk_misses,
            "{}: only recomputed blocks call a predictor",
            p.predictor
        );
        assert!(p.total_ns > 0 && p.mean_ns > 0.0, "{p:?}");
    }
    assert_eq!(
        normalized(&warm),
        normalized(&cold),
        "recomputed records must replace the damaged entries bit-for-bit"
    );
    // And the recompute healed the cache: a third run replays cleanly.
    let mut healed = session(1)
        .cache_dir(&dir)
        .profile(true)
        .run()
        .expect("healed runs");
    let obs = healed.obs.take().expect("profiled run");
    assert_eq!(
        (obs.disk_hits, obs.disk_misses),
        (Some(BLOCKS as u64), Some(0))
    );
    for p in &obs.predictors {
        assert_eq!(
            (p.calls, p.total_ns, p.mean_ns),
            (0, 0, 0.0),
            "a fully replayed run calls no predictor: {p:?}"
        );
    }
    assert_eq!(normalized(&healed), normalized(&cold));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Interner round-trip: every string resolves back verbatim, ids are
    /// dense and stable under re-interning, and distinct strings get
    /// distinct ids.
    #[test]
    fn interner_round_trips(strings in proptest::collection::vec("[a-z0-9_.%#]{1,12}", 1..32)) {
        let mut interner = isa::Interner::new();
        let syms: Vec<isa::Sym> = strings.iter().map(|s| interner.intern(s)).collect();
        for (s, sym) in strings.iter().zip(&syms) {
            prop_assert_eq!(interner.resolve(*sym), s.as_str());
            prop_assert_eq!(interner.get(s), Some(*sym));
            // Re-interning allocates nothing new: the id is stable.
            prop_assert_eq!(interner.intern(s), *sym);
        }
        let mut unique: Vec<&String> = strings.iter().collect();
        unique.sort();
        unique.dedup();
        let mut ids: Vec<u32> = syms.iter().map(|s| s.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), unique.len(), "distinct strings <-> distinct ids");
        // Ids are dense: 0..n in first-sight order.
        prop_assert!(ids.iter().all(|&i| (i as usize) < unique.len()));
    }
}
