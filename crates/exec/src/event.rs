//! Event-driven simulator engine: identical cycle semantics to
//! [`crate::reference`], minus the time spent simulating cycles in which
//! provably nothing can happen — and minus the iterations after the
//! machine state starts repeating.
//!
//! Four mechanisms, all exact:
//!
//! 1. **Event clock.** After processing a cycle the engine computes the
//!    earliest future cycle on which any phase could make progress — the
//!    head of the window completing (unblocks retirement and ROB space),
//!    dispatch fitting again, or the nearest pending-µ-op wake-up (see
//!    below) — and jumps `now` straight there. Every cycle the naive
//!    engine would have processed in between is a no-op by construction:
//!    retirement is blocked on the same head, dispatch on the same
//!    resource, and no pending µ-op is both ready and able to win a port
//!    any earlier (a failed same-cycle arbitration retry is covered by
//!    the `now + 1` floor on every candidate).
//! 2. **Exact dependency wake-ups.** At dispatch every window entry counts
//!    its incoming dependence edges whose producer has not issued yet
//!    (`InFlight::deps`) and takes `ceil(t + w)` over the issued ones as
//!    a readiness floor. When an instruction's last µ-op issues it walks
//!    its outgoing edges (a CSR grouped by producer) and notifies each
//!    dispatched consumer: the count drops and the floor rises. Only when
//!    the count reaches zero is the entry armed in a min-heap, at the
//!    exact cycle its operands mature — or, for a zero-weight edge, put
//!    straight into the current cycle's sorted wake list behind its
//!    producer, as the reference's oldest-first scan would reach it. A
//!    woken entry is therefore always operand-ready (debug builds re-check
//!    this, sanitizer S003); only a lost port arbitration re-arms it, at a
//!    lower bound from the eligible ports' busy horizons. A lower bound can
//!    cost a no-op examination but never delays a real issue.
//! 3. **Steady-state early exit.** At the end of any cycle in which an
//!    iteration retired, the engine samples the machine state *relative
//!    to `now` and the retired-iteration count*. A cheap head — dispatch
//!    lead over the retired count, dispatch index, ROB and scheduler
//!    occupancy, window length — is hashed into a ring of recent samples;
//!    only a head seen before pays for the full fingerprint, quotiented by
//!    future-equivalence: coordinates that can no longer influence any
//!    future phase (busy horizons and completions already due, issue
//!    times mature for even the heaviest edge, the behaviourally dead
//!    `issue_last`) are clamped to their equivalence class so stale
//!    history cannot delay a match. If the full fingerprint matches an
//!    earlier one, the execution is periodic — the future repeats the
//!    recorded past shifted by (Δ iterations, Δ cycles) for as long as
//!    dispatch continues — and the run finishes by integer arithmetic:
//!    - **Closed form.** With no port-blocking µ-ops (`occupancy > 1` lets
//!      a *younger* instruction delay an *older* one, so the post-dispatch
//!      drain need not stay periodic) the cycle of the final retirement is
//!      extrapolated directly. The warm-up boundary, if not yet reached, is
//!      extrapolated too, but only when it retires while dispatch is still
//!      running: its issued-µ-op count grows by a whole iteration's µ-ops
//!      per iteration only while the window is fed.
//!    - **Teleport.** Otherwise the whole machine state is advanced a
//!      whole number of periods, which is exact while dispatch continues,
//!      and the drain is simulated for real.
//! 4. **Scratch arena.** Every buffer lives in [`SimScratch`]: the issue
//!    matrix is one flat `Vec<u64>`, dependence edges are two CSRs built
//!    with a counting sort, and per-instance µ-op state is a 64-bit mask
//!    in [`InFlight`] instead of a heap `Vec` — the untraced path does no
//!    per-instruction allocation at all. Back-to-back `simulate()` calls
//!    reuse everything.

use crate::{RawOutcome, SimConfig, SimStats, SteadyExit, TraceEvent};
use incore::depgraph::DepGraph;
use std::collections::VecDeque;
use uarch::{InstrClass, InstrDesc, Machine};

/// Sentinel for "not yet issued" in the flat issue matrix and in
/// [`InFlight::issue_done`] / [`InFlight::completion`].
const NONE: u64 = u64::MAX;

/// Samples kept live, as a ring: periods on this core are tiny (a handful
/// of retire cycles), so once the schedule is periodic the matching
/// sample is always recent. Pre-steady samples (taken while the
/// out-of-order window is still filling) rotate out harmlessly.
const SAMPLE_WINDOW: usize = 64;

/// Full fingerprints taken before giving up on steady-state detection —
/// a backstop so genuinely aperiodic schedules stop paying for them.
/// Heads are not counted: they cost a few words each.
#[doc(hidden)]
pub const SAMPLE_BUDGET: usize = 768;

/// Per-instruction-instance bookkeeping. µ-op issue state is an inline
/// bitmask + two cycle numbers, so the untraced path never allocates per
/// instance (instructions wider than 64 µ-ops fall back to the reference
/// engine before we get here).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    iter: usize,
    idx: usize,
    /// Cycle at which the instruction was dispatched.
    dispatched: u64,
    /// Bit `ui` set ⇔ µ-op `ui` has issued.
    issued_mask: u64,
    /// Latest µ-op issue cycle so far (meaningful once `issued_mask != 0`).
    issue_last: u64,
    /// Cycle at which the last µ-op issued; [`NONE`] until fully issued.
    issue_done: u64,
    /// Cycle at which the instruction may retire; [`NONE`] until known.
    completion: u64,
    /// Incoming dependence edges whose producer has not issued yet. The
    /// entry has a wake-up record only once this is zero.
    deps: u32,
    /// While `deps > 0`: the readiness floor — the dispatch cycle and
    /// `ceil(t + w)` over the producers issued so far. Once armed: the
    /// cycle of the entry's wake-up record (its exact readiness cycle, or
    /// a port-horizon lower bound after a lost arbitration).
    wake_at: u64,
}

/// A recorded steady-state sample: the hash of its fingerprint head, the
/// retired iterations and cycle it was taken at, and the full fingerprint
/// if one was taken (empty otherwise).
#[derive(Debug)]
struct Sample {
    head: u64,
    retired: usize,
    now: u64,
    full: Vec<i64>,
}

/// Reusable simulation buffers. One instance per worker thread (or one
/// per caller, via [`crate::simulate_with_scratch`]) amortizes every
/// allocation the simulator needs across an arbitrary number of runs on
/// arbitrary kernels and machines.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// CSR row offsets into `in_edges`: incoming edges of instruction
    /// `i` are `in_edges[in_start[i]..in_start[i + 1]]`.
    in_start: Vec<usize>,
    /// `(from, weight, wrap)` incoming dependence edges, grouped by `to`.
    in_edges: Vec<(usize, f64, bool)>,
    /// CSR row offsets into `out_edges`, like `in_start`.
    out_start: Vec<usize>,
    /// `(to, weight, wrap)` outgoing dependence edges, grouped by `from`.
    /// Edges into eliminated instructions are left out: those complete at
    /// dispatch and never wait for their operands.
    out_edges: Vec<(usize, f64, bool)>,
    /// Cursor scratch for the counting sorts that fill the two CSRs.
    cursor: Vec<usize>,
    /// Flat `[iter][idx]` issue matrix; [`NONE`] = not yet issued.
    issue_done: Vec<u64>,
    /// Per-port busy horizon (`port_busy[p] > now` ⇔ blocked).
    port_busy: Vec<u64>,
    /// Per-port "already granted this cycle" flags.
    port_taken: Vec<bool>,
    /// In-flight window (entries before `retire_head` already retired).
    window: Vec<InFlight>,
    /// Cycle on which iteration `i` retired (filled as the run proceeds).
    retire_cycle: Vec<u64>,
    /// `issued_uops_total` at the retire event of iteration `i` — the
    /// basis for extrapolating `warmup_issued` across an early exit.
    retire_issued: Vec<u64>,
    /// Wake-up queue: one `(wake_at, iter * n + idx)` record per pending
    /// window entry whose producers have all issued. The issue phase pops
    /// the records due this cycle; a lost port arbitration re-arms the
    /// entry. `next_event` reads the next issue candidate off the top
    /// instead of scanning the window.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// Keys due this cycle, in window order.
    wake: Vec<usize>,
    /// Fingerprint under construction.
    fp: Vec<i64>,
    /// Recorded samples, oldest first (at most [`SAMPLE_WINDOW`]).
    samples: VecDeque<Sample>,
    /// Full-fingerprint buffers, recycled across samples and runs.
    snap_pool: Vec<Vec<i64>>,
}

/// Fill a CSR (`start`, `rows`) grouping `edges` by `key`, as a counting
/// sort through `cursor`.
fn build_csr(
    n: usize,
    edges: impl Iterator<Item = (usize, (usize, f64, bool))> + Clone,
    start: &mut Vec<usize>,
    rows: &mut Vec<(usize, f64, bool)>,
    cursor: &mut Vec<usize>,
) {
    start.clear();
    start.resize(n + 1, 0);
    for (key, _) in edges.clone() {
        start[key + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    cursor.clear();
    cursor.extend_from_slice(&start[..n]);
    rows.clear();
    rows.resize(start[n], (0, 0.0, false));
    for (key, row) in edges {
        rows[cursor[key]] = row;
        cursor[key] += 1;
    }
}

/// First cycle at which an operand issued at `t` over an edge of weight
/// `w` reads as available: the reference's `t + w > now` test fails from
/// this cycle on.
fn matures(t: u64, w: f64) -> u64 {
    (t as f64 + w).ceil() as u64
}

/// Cycle from which every operand of instance `(iter, idx)` is mature,
/// recomputed from the issue matrix alone (`f64::INFINITY` while some
/// producer has not issued) — an independent re-derivation for the
/// readiness audit.
fn operands_ready_at(s: &SimScratch, n: usize, iter: usize, idx: usize) -> f64 {
    let mut ready_at = 0.0f64;
    for &(from, weight, wrap) in &s.in_edges[s.in_start[idx]..s.in_start[idx + 1]] {
        let Some(prod_iter) = iter.checked_sub(usize::from(wrap)) else {
            continue; // first iteration: no producer
        };
        let t = s.issue_done[prod_iter * n + from];
        ready_at = if t == NONE {
            f64::INFINITY
        } else {
            ready_at.max(t as f64 + weight)
        };
    }
    ready_at
}

/// Run the event engine. `audit` re-derives operand readiness at every
/// wake-up to count [`SimStats::not_ready`] in any build; debug builds
/// always re-derive it, for sanitizer S003.
pub(crate) fn simulate(
    machine: &Machine,
    cfg: SimConfig,
    descs: &[InstrDesc],
    graph: &DepGraph,
    s: &mut SimScratch,
    mut trace: Option<(&mut Vec<TraceEvent>, usize)>,
    audit: bool,
) -> SimStats {
    let n = descs.len();
    let total_iters = cfg.warmup + cfg.iterations;
    let np = machine.port_model.num_ports();

    // --- (Re)initialize the arena: resize + overwrite, no steady-state
    // allocations once the buffers have grown to working size.
    let edges = graph.edges.iter();
    build_csr(
        n,
        edges.clone().map(|e| (e.to, (e.from, e.weight, e.wrap))),
        &mut s.in_start,
        &mut s.in_edges,
        &mut s.cursor,
    );
    build_csr(
        n,
        edges
            .filter(|e| descs[e.to].uop_count() > 0)
            .map(|e| (e.from, (e.to, e.weight, e.wrap))),
        &mut s.out_start,
        &mut s.out_edges,
        &mut s.cursor,
    );
    s.issue_done.clear();
    s.issue_done.resize(total_iters * n, NONE);
    s.port_busy.clear();
    s.port_busy.resize(np, 0);
    s.port_taken.clear();
    s.port_taken.resize(np, false);
    s.window.clear();
    s.retire_cycle.clear();
    s.retire_cycle.resize(total_iters, 0);
    s.retire_issued.clear();
    s.retire_issued.resize(total_iters, 0);
    s.heap.clear();
    for sample in s.samples.drain(..) {
        s.snap_pool.push(sample.full);
    }

    let sum_uops: u64 = descs.iter().map(|d| d.uop_count() as u64).sum();
    // Heaviest dependence-edge weight: once an issue time is this far in
    // the past it reads as "available" on every remaining edge.
    let wmax = graph.edges.iter().map(|e| e.weight).fold(0.0f64, f64::max);
    let extrapolatable = cfg.early_exit && total_iters > 0;
    // Closed-form extrapolation *through the drain* is exact only when no
    // µ-op holds a port across cycles: a blocking µ-op from a younger
    // instruction can delay an older one, so the schedule after the last
    // dispatch need not follow the periodic pattern. Kernels with such
    // µ-ops still skip the periodic middle — by teleporting the machine
    // state forward a whole number of periods — but then simulate the
    // drain for real.
    let blocking = descs
        .iter()
        .any(|d| d.uops.iter().any(|u| u.occupancy.ceil() as u64 > 1));
    let trace_horizon = trace.as_ref().map_or(0, |(_, m)| *m);
    let audit = audit || cfg!(debug_assertions);

    // Profiling aggregates stay in locals and are emitted once at the end
    // of the run; when the recorder is off the only cost is this one load
    // plus a predictable per-site branch on the cached bool. The span
    // makes the simulator leg visible inside request trace trees.
    let profiling = obs::enabled();
    let _span = profiling.then(|| obs::span("exec:simulate"));
    let mut prof_port_issued: Vec<u64> = if profiling { vec![0; np] } else { Vec::new() };
    let mut prof_teleport_cycles: Option<u64> = None;
    let mut prof_extrapolated_iters: u64 = 0;

    let mut next_dispatch = (0usize, 0usize); // (iter, idx)
    let mut rob_uops: u64 = 0;
    let mut sched_uops: u64 = 0;
    let mut retired_iters = 0usize;
    let mut retire_head = 0usize; // index into `window`
    let mut now: u64 = 0;
    let mut issued_uops_total: u64 = 0;
    let mut warmup_end_cycle: Option<u64> = None;
    let mut warmup_issued: u64 = 0;
    let mut sampling_dead = false;
    let mut fingerprints = 0usize;
    let mut wakeups: u64 = 0;
    let mut not_ready: u64 = 0;
    let mut exit = SteadyExit::None;
    let mut early_exit_iter: Option<usize> = None;

    let max_cycles: u64 = 1_000_000 + (total_iters as u64) * 2_000;

    while retired_iters < total_iters && now < max_cycles {
        let retired_before = retired_iters;

        // --- Retire (in order). ---
        let mut retired = 0u32;
        while retire_head < s.window.len() && retired < machine.retire_width {
            let inst = s.window[retire_head];
            if inst.issue_done != NONE && inst.completion <= now {
                if let Some((ev, max_iters)) = trace.as_mut() {
                    if inst.iter < *max_iters {
                        ev.push(TraceEvent {
                            iter: inst.iter,
                            idx: inst.idx,
                            dispatched: inst.dispatched,
                            issued: inst.issue_done,
                            completed: inst.completion,
                            retired: now,
                        });
                    }
                }
                // NB: an eliminated instruction was charged one ROB slot
                // at dispatch but its uop_count() is 0 — the slot is never
                // released. The reference engine behaves the same way; the
                // asymmetry is kept for bit-identical equivalence (its only
                // other effect is that such kernels never fingerprint-match,
                // because `rob_uops` grows monotonically).
                rob_uops -= descs[inst.idx].uop_count() as u64;
                if inst.idx == n - 1 {
                    retired_iters = inst.iter + 1;
                    s.retire_cycle[inst.iter] = now;
                    s.retire_issued[inst.iter] = issued_uops_total;
                    if retired_iters == cfg.warmup && warmup_end_cycle.is_none() {
                        warmup_end_cycle = Some(now);
                        warmup_issued = issued_uops_total;
                    }
                }
                retire_head += 1;
                retired += 1;
            } else {
                break;
            }
        }
        // Compact the window occasionally.
        if retire_head > 4096 {
            s.window.drain(..retire_head);
            retire_head = 0;
        }

        // --- Dispatch (in order, limited by width / ROB / scheduler). ---
        let mut budget = machine.dispatch_width;
        while budget > 0 && next_dispatch.0 < total_iters {
            let (it, idx) = next_dispatch;
            let nu = descs[idx].uop_count() as u64;
            if nu.max(1) > budget as u64 {
                break; // instruction does not fit in this cycle's group
            }
            if rob_uops + nu.max(1) > machine.rob_size as u64
                || sched_uops + nu > machine.sched_size as u64
            {
                break;
            }
            if nu == 0 {
                // Eliminated instructions complete at dispatch.
                s.issue_done[it * n + idx] = now;
                s.window.push(InFlight {
                    iter: it,
                    idx,
                    dispatched: now,
                    issued_mask: 0,
                    issue_last: now,
                    issue_done: now,
                    completion: now,
                    deps: 0,
                    wake_at: now,
                });
                rob_uops += 1; // occupies a ROB slot until retired
            } else {
                // Count the producers still to issue (they notify this
                // entry when they do) and take the readiness floor over
                // the rest.
                let mut deps = 0u32;
                let mut wake_at = now;
                for &(from, weight, wrap) in &s.in_edges[s.in_start[idx]..s.in_start[idx + 1]] {
                    let Some(prod_iter) = it.checked_sub(usize::from(wrap)) else {
                        continue; // first iteration: no producer
                    };
                    let t = s.issue_done[prod_iter * n + from];
                    if t == NONE {
                        deps += 1;
                    } else {
                        wake_at = wake_at.max(matures(t, weight));
                    }
                }
                s.window.push(InFlight {
                    iter: it,
                    idx,
                    dispatched: now,
                    issued_mask: 0,
                    issue_last: 0,
                    issue_done: NONE,
                    completion: NONE,
                    deps,
                    wake_at,
                });
                if deps == 0 {
                    s.heap.push(std::cmp::Reverse((wake_at, it * n + idx)));
                }
                rob_uops += nu;
                sched_uops += nu;
            }
            budget = budget.saturating_sub(nu.max(1) as u32);
            next_dispatch = if idx + 1 == n {
                (it + 1, 0)
            } else {
                (it, idx + 1)
            };
        }

        // --- Issue (oldest first). ---
        for t in s.port_taken.iter_mut() {
            *t = false;
        }
        // Entries from `retire_head` on are consecutive instructions in
        // dispatch order (a teleport shifts exactly this suffix), so the
        // entry for `(iter, idx)` sits at `iter * n + idx - base_key`.
        // Every woken key and every notified consumer is pending, hence
        // never retired, so lookups only land in this suffix. Keys at or
        // past `dispatch_key` are not dispatched yet.
        let base_key = s
            .window
            .get(retire_head)
            .map_or(0, |w| w.iter * n + w.idx - retire_head);
        let dispatch_key = next_dispatch.0 * n + next_dispatch.1;
        s.wake.clear();
        while let Some(&std::cmp::Reverse((t, key))) = s.heap.peek() {
            if t > now {
                break;
            }
            s.heap.pop();
            s.wake.push(key);
        }
        s.wake.sort_unstable();
        // Only the entries whose wake-up fell due are examined, oldest
        // first; a consumer readied mid-scan joins the list behind its
        // producer. By construction every one is operand-ready.
        let mut i = 0;
        while i < s.wake.len() {
            let key = s.wake[i];
            i += 1;
            let wi = key - base_key;
            let (w_iter, w_idx) = (s.window[wi].iter, s.window[wi].idx);
            wakeups += 1;
            if audit {
                let ready_at = operands_ready_at(s, n, w_iter, w_idx);
                if ready_at > now as f64 {
                    not_ready += 1;
                }
                // Sanitizer S003: independently re-derive operand maturity
                // for an entry the wake-up queue handed over.
                #[cfg(debug_assertions)]
                crate::sanitizer::check_wakeup(w_iter, w_idx, now, ready_at);
            }
            // Try to issue each pending µ-op on a free eligible port.
            let d = &descs[w_idx];
            let mut all_issued = true;
            let mut port_bound = u64::MAX;
            for (ui, u) in d.uops.iter().enumerate() {
                if s.window[wi].issued_mask & (1 << ui) != 0 {
                    continue;
                }
                // Pick the eligible free port with the earliest availability.
                let mut best: Option<usize> = None;
                for p in u.ports.iter() {
                    if s.port_busy[p] <= now && !s.port_taken[p] {
                        best = match best {
                            Some(b) if s.port_busy[b] <= s.port_busy[p] => Some(b),
                            _ => Some(p),
                        };
                    }
                }
                if let Some(p) = best {
                    #[cfg(debug_assertions)]
                    crate::sanitizer::check_port_grant(p, s.port_taken[p], s.port_busy[p], now);
                    s.port_taken[p] = true;
                    if profiling {
                        prof_port_issued[p] += 1;
                    }
                    // A blocking µ-op holds its port beyond this cycle.
                    let occ = u.occupancy.ceil() as u64;
                    if occ > 1 {
                        s.port_busy[p] = now + occ;
                    }
                    let w = &mut s.window[wi];
                    w.issued_mask |= 1 << ui;
                    w.issue_last = w.issue_last.max(now);
                    sched_uops -= 1;
                    issued_uops_total += 1;
                } else {
                    all_issued = false;
                    // Port busy horizons only ever grow, so the earliest of
                    // the eligible ports bounds this µ-op's next chance.
                    let free = u.ports.iter().map(|p| s.port_busy[p]).min().unwrap_or(0);
                    port_bound = port_bound.min(free);
                }
            }
            if !all_issued {
                let at = port_bound.max(now + 1);
                s.window[wi].wake_at = at;
                s.heap.push(std::cmp::Reverse((at, key)));
                continue;
            }
            let w = &mut s.window[wi];
            let last = w.issue_last;
            w.issue_done = last;
            let lat = (d.latency as u64).max(1);
            w.completion = if d.class == InstrClass::Store {
                last + 1
            } else {
                last + lat
            };
            s.issue_done[w_iter * n + w_idx] = last;
            // Notify the dispatched consumers; arm each whose last
            // producer this was at its exact readiness cycle.
            for &(to, weight, wrap) in &s.out_edges[s.out_start[w_idx]..s.out_start[w_idx + 1]] {
                let ckey = (w_iter + usize::from(wrap)) * n + to;
                if ckey >= dispatch_key {
                    continue; // reads this issue time at its own dispatch
                }
                let c = &mut s.window[ckey - base_key];
                c.deps -= 1;
                c.wake_at = c.wake_at.max(matures(last, weight));
                if c.deps > 0 {
                    continue;
                }
                if c.wake_at <= now {
                    // Ready in the producer's own cycle (a zero-weight
                    // edge): the consumer is younger, so the reference
                    // scan reaches it later in this cycle.
                    let at = i + s.wake[i..].partition_point(|&k| k < ckey);
                    s.wake.insert(at, ckey);
                } else {
                    s.heap.push(std::cmp::Reverse((c.wake_at, ckey)));
                }
            }
        }

        // --- Steady-state detection. A sample's cheap head is hashed
        // first; only a head seen before in the ring pays for the full
        // fingerprint, which is then compared with the earlier full
        // fingerprints under the same head. A periodic schedule thus
        // matches one period after its head first recurs, and a transient
        // whose occupancy is still changing pays for heads only. ---
        if extrapolatable
            && !sampling_dead
            && retired_iters > retired_before
            && retired_iters >= trace_horizon
            && retired_iters < total_iters
            && next_dispatch.0 < total_iters
        {
            fingerprint_head(
                s,
                retired_iters,
                next_dispatch,
                rob_uops,
                sched_uops,
                retire_head,
            );
            let head = hash_fp(&s.fp);
            let mut full = false;
            let mut prior = None;
            if s.samples.iter().any(|x| x.head == head) {
                if fingerprints == SAMPLE_BUDGET {
                    sampling_dead = true;
                } else {
                    fingerprints += 1;
                    full = true;
                    fingerprint_rest(s, n, now, retired_iters, next_dispatch, retire_head, wmax);
                    prior = s
                        .samples
                        .iter()
                        .find(|x| x.head == head && x.full == s.fp)
                        .map(|x| (x.retired, x.now));
                }
            }
            if let Some((p_retired, p_cycle)) = prior {
                // Periodic: every Δk iterations cost exactly Δc cycles,
                // for as long as dispatch keeps feeding the window. One
                // match per run: afterwards only the drain remains (or the
                // run simulates on where no exit applies).
                sampling_dead = true;
                let dk = retired_iters - p_retired;
                let dc = now - p_cycle;
                // Whole periods the state can advance while dispatch
                // continues: a mid-iteration cursor needs its iteration to
                // remain in range after the jump.
                let j = (total_iters - next_dispatch.0 - usize::from(next_dispatch.1 > 0)) / dk;
                let jdc = j as u64 * dc;
                let jdk = j * dk;
                // The warm-up boundary may lie in the span being skipped.
                // Its retire cycle and issued-µop count follow from the
                // same periodicity, by the same integer arithmetic the
                // reference engine would have observed — provided it
                // retires within those `j` periods, while dispatch keeps
                // every period's issue count at Δk iterations' µ-ops.
                let warmup_pending = cfg.warmup > 0 && warmup_end_cycle.is_none();
                // The copy is taken from an iteration that retired after
                // the earlier sample (`base ≥ p_retired`): only cycles
                // after a sample are known to repeat.
                let warmup_at = (warmup_pending && cfg.warmup <= retired_iters + jdk).then(|| {
                    let mw = cfg.warmup - 1 - p_retired;
                    let base = p_retired + mw % dk;
                    let periods = (mw / dk) as u64;
                    (
                        s.retire_cycle[base] + periods * dc,
                        s.retire_issued[base] + periods * dk as u64 * sum_uops,
                    )
                });
                let m = total_iters - p_retired;
                let final_t = s.retire_cycle[p_retired - 1 + m % dk] + (m / dk) as u64 * dc;
                if !blocking && final_t < max_cycles && (!warmup_pending || warmup_at.is_some()) {
                    // No port-blocking µ-ops ⇒ younger instructions never
                    // delay older ones ⇒ the periodic retire pattern holds
                    // through the drain, and the final retirement is a
                    // closed-form expression.
                    if let Some((wc, wi)) = warmup_at {
                        warmup_end_cycle = Some(wc);
                        warmup_issued = wi;
                    }
                    exit = SteadyExit::ClosedForm;
                    early_exit_iter = Some(retired_iters);
                    if profiling {
                        prof_extrapolated_iters = (total_iters - retired_iters) as u64;
                    }
                    retired_iters = total_iters;
                    // Every dispatched µ-op issues before the final
                    // retirement, so the grand total is exact.
                    issued_uops_total = total_iters as u64 * sum_uops;
                    now = final_t + 1;
                    break;
                }
                if j >= 1 && now + jdc < max_cycles {
                    // Teleport: advance the whole machine state by `j`
                    // whole periods — exact while dispatch continues, for
                    // any kernel — then simulate the rest for real.
                    // Sanitizer S004: `s.fp` still holds the pre-jump
                    // fingerprint; the post-jump state must reproduce it
                    // bit for bit (all coordinates are relative).
                    #[cfg(debug_assertions)]
                    let fp_pre = s.fp.clone();
                    if let Some((wc, wi)) = warmup_at {
                        warmup_end_cycle = Some(wc);
                        warmup_issued = wi;
                    }
                    teleport(
                        s,
                        n,
                        retired_iters - 1,
                        next_dispatch.0.min(total_iters - 1 - jdk),
                        retire_head,
                        jdk,
                        jdc,
                    );
                    exit = SteadyExit::Teleport;
                    early_exit_iter = Some(retired_iters);
                    if profiling {
                        prof_teleport_cycles = Some(jdc);
                        prof_extrapolated_iters = jdk as u64;
                    }
                    retired_iters += jdk;
                    next_dispatch.0 += jdk;
                    issued_uops_total += jdk as u64 * sum_uops;
                    now += jdc;
                    #[cfg(debug_assertions)]
                    if next_dispatch.0 < total_iters {
                        fingerprint_head(
                            s,
                            retired_iters,
                            next_dispatch,
                            rob_uops,
                            sched_uops,
                            retire_head,
                        );
                        fingerprint_rest(
                            s,
                            n,
                            now,
                            retired_iters,
                            next_dispatch,
                            retire_head,
                            wmax,
                        );
                        crate::sanitizer::check_teleport(&fp_pre, &mut s.fp);
                    }
                }
                // Otherwise the run would hit the watchdog mid-pattern, or
                // dispatch ends within a period: keep simulating.
            } else if !sampling_dead {
                if s.samples.len() == SAMPLE_WINDOW {
                    // Rotate the oldest sample out; in a periodic schedule
                    // the matching sample is at most one period old.
                    let old = s.samples.pop_front().expect("ring is full");
                    s.snap_pool.push(old.full);
                }
                let mut snap = s.snap_pool.pop().unwrap_or_default();
                snap.clear();
                if full {
                    snap.extend_from_slice(&s.fp);
                }
                s.samples.push_back(Sample {
                    head,
                    retired: retired_iters,
                    now,
                    full: snap,
                });
            }
        }

        if retired_iters >= total_iters {
            now += 1; // the naive loop increments before seeing the exit
            break;
        }

        // --- Jump to the next cycle on which anything can happen. ---
        let next_now = next_event(
            s,
            machine,
            descs,
            now,
            total_iters,
            next_dispatch,
            rob_uops,
            sched_uops,
            retire_head,
        )
        .min(max_cycles);
        // Sanitizer S001: the `now + 1` floor in `next_event` plus the
        // `now < max_cycles` loop guard make this jump strictly forward.
        #[cfg(debug_assertions)]
        crate::sanitizer::check_clock_advance(now, next_now);
        now = next_now;
    }

    if profiling {
        obs::counter("sim.calls", 1);
        obs::counter("sim.cycles", now);
        obs::counter("sim.heap.pops", wakeups);
        obs::counter("sim.samples.taken", fingerprints as u64);
        obs::counter(
            if early_exit_iter.is_some() {
                "sim.steady.hit"
            } else {
                "sim.steady.miss"
            },
            1,
        );
        obs::counter("sim.iters.extrapolated", prof_extrapolated_iters);
        if let Some(jdc) = prof_teleport_cycles {
            obs::observe("sim.teleport.cycles", jdc);
        }
        for (p, &cnt) in prof_port_issued.iter().enumerate() {
            let name = machine.port_model.ports[p].name;
            obs::counter(&format!("sim.port.{name}.issued"), cnt);
            // Per-port occupancy (issue slots used per 100 cycles), one
            // observation per simulated kernel.
            if let Some(pct) = (cnt * 100).checked_div(now) {
                obs::observe(&format!("sim.port.{name}.occupancy_pct"), pct);
            }
        }
    }

    SimStats {
        result: crate::finish(
            cfg,
            total_iters,
            RawOutcome {
                now,
                retired_iters,
                issued_uops_total,
                warmup_end_cycle,
                warmup_issued,
                early_exit_iter,
            },
        ),
        exit,
        wakeups,
        not_ready,
        fingerprints,
    }
}

/// Advance the machine state `jdk` iterations and `jdc` cycles: the
/// issue-matrix rows `lo..=hi` still reachable after the jump, the
/// unretired window entries (including their dependency counts' floors
/// and wake-up cycles) and the port horizons. The wake-up queue holds
/// pre-jump keys and times, so it is rebuilt from the shifted window —
/// from the entries whose producers have all issued, the only ones with
/// a record.
fn teleport(
    s: &mut SimScratch,
    n: usize,
    lo: usize,
    hi: usize,
    retire_head: usize,
    jdk: usize,
    jdc: u64,
) {
    // Highest row first: source and destination overlap.
    for it in (lo..=hi).rev() {
        for i in 0..n {
            let t = s.issue_done[it * n + i];
            s.issue_done[(it + jdk) * n + i] = if t == NONE { NONE } else { t + jdc };
        }
    }
    s.heap.clear();
    for w in &mut s.window[retire_head..] {
        w.iter += jdk;
        w.dispatched += jdc;
        w.wake_at += jdc;
        if w.issued_mask != 0 || w.issue_done != NONE {
            w.issue_last += jdc;
        }
        if w.issue_done != NONE {
            w.issue_done += jdc;
            w.completion += jdc;
        } else if w.deps == 0 {
            s.heap
                .push(std::cmp::Reverse((w.wake_at, w.iter * n + w.idx)));
        }
    }
    // Horizons at or before `now` stay in the past.
    for p in s.port_busy.iter_mut() {
        *p += jdc;
    }
}

/// Earliest future cycle on which retire, dispatch or issue could make
/// progress. Returns `u64::MAX` when the machine is provably wedged (the
/// caller clamps to the watchdog limit).
#[allow(clippy::too_many_arguments)]
fn next_event(
    s: &SimScratch,
    machine: &Machine,
    descs: &[InstrDesc],
    now: u64,
    total_iters: usize,
    next_dispatch: (usize, usize),
    rob_uops: u64,
    sched_uops: u64,
    retire_head: usize,
) -> u64 {
    let floor = now + 1;
    // Dispatch: would the next instruction fit next cycle? (Mirrors the
    // dispatch-phase gates with a full-width budget.)
    if next_dispatch.0 < total_iters {
        let nu = descs[next_dispatch.1].uop_count() as u64;
        if nu.max(1) <= machine.dispatch_width as u64
            && rob_uops + nu.max(1) <= machine.rob_size as u64
            && sched_uops + nu <= machine.sched_size as u64
        {
            return floor;
        }
    }
    let mut next = u64::MAX;
    // Retirement: only the window head can unblock it.
    if let Some(head) = s.window.get(retire_head) {
        if head.issue_done != NONE {
            next = head.completion.max(floor);
            if next == floor {
                return floor;
            }
        }
    }
    // Issue: every pending entry whose producers have all issued has
    // exactly one wake-up record ([`InFlight::wake_at`]): its exact
    // readiness cycle, or after a lost arbitration a port-horizon lower
    // bound that is never late. Every other pending entry waits on a
    // producer's issue, itself an earlier event. So the next issue event
    // is the top of the heap, and no real issue is skipped.
    if let Some(&std::cmp::Reverse((t, _))) = s.heap.peek() {
        next = next.min(t.max(floor));
    }
    next
}

/// A fingerprint word for an issue-matrix row whose every value has
/// issued and matured: the whole row collapses to this one sentinel.
/// Never collides with per-value words (`i64::MIN`, [`FP_MATURE`], or
/// `t - now ≤ 0`), so the variable-width encoding is uniquely decodable.
const FP_ROW_MATURE: i64 = i64::MAX;
/// A fingerprint word for a single matured issue-matrix value.
const FP_MATURE: i64 = i64::MAX - 1;
/// A fingerprint word for an issue-matrix row with no issues yet.
const FP_ROW_EMPTY: i64 = i64::MAX - 2;

/// Start a fingerprint in `s.fp` with its head: the dispatch cursor
/// relative to the retired count, the ROB and scheduler occupancy and the
/// window length — a few words that any repeat of the full state must
/// repeat too.
fn fingerprint_head(
    s: &mut SimScratch,
    retired: usize,
    next_dispatch: (usize, usize),
    rob_uops: u64,
    sched_uops: u64,
    retire_head: usize,
) {
    s.fp.clear();
    s.fp.push(next_dispatch.0 as i64 - retired as i64);
    s.fp.push(next_dispatch.1 as i64);
    s.fp.push(rob_uops as i64);
    s.fp.push(sched_uops as i64);
    s.fp.push((s.window.len() - retire_head) as i64);
}

/// Complete the fingerprint [`fingerprint_head`] started: the port
/// horizons, the window's µ-op state and the issue times still reachable.
///
/// The full fingerprint records the machine state relative to (`now`,
/// `retired`), *quotiented by future-equivalence*: two equal fingerprints
/// ⇒ the executions from those two points are identical modulo the
/// (Δ iterations, Δ cycles) shift. Coordinates that can no longer
/// influence any future phase are clamped to their equivalence class —
/// a busy horizon or completion due by the next simulated cycle behaves
/// like any other, and an issue time mature for even the heaviest edge
/// always reads as "operand available" — so dead history cannot delay a
/// match. `InFlight::issue_last` is absent entirely: it never exceeds
/// `now`, and the µ-op issue that would read it overwrites it with its
/// own (strictly later) cycle first. The dependency counts and wake-up
/// cycles are absent too: the counts and readiness floors are functions
/// of the issue matrix, and a wake-up cycle only decides which cycles
/// examine an entry, never what happens in them.
fn fingerprint_rest(
    s: &mut SimScratch,
    n: usize,
    now: u64,
    retired: usize,
    next_dispatch: (usize, usize),
    retire_head: usize,
    wmax: f64,
) {
    let base = now as i64;
    // First cycle the simulation will see again; anything available by
    // then is available at every future read.
    let horizon = now + 1;
    for &p in &s.port_busy {
        s.fp.push(p.max(horizon) as i64 - base);
    }
    // The window is the consecutive run of instructions ending just
    // before the dispatch cursor, so every entry's (iter, idx) follows
    // from the cursor and the window length already recorded — only µ-op
    // state is pushed per entry. The unissued tail (most of the window
    // under a long dependence chain) carries no state at all; its length
    // is implied by the `live` prefix count.
    let live = s.window[retire_head..]
        .iter()
        .rposition(|w| w.issued_mask != 0 || w.issue_done != NONE)
        .map_or(0, |p| p + 1);
    s.fp.push(live as i64);
    for w in &s.window[retire_head..retire_head + live] {
        s.fp.push(w.issued_mask as i64);
        // Consumers read issue times through the matrix, so the entry's
        // own state only matters as "issued or not" (the sentinel) plus
        // the completion cycle, and that only until it falls due.
        s.fp.push(if w.issue_done != NONE {
            w.completion.max(horizon) as i64 - base
        } else {
            i64::MIN
        });
    }
    // The slice of the issue matrix still reachable by future readiness
    // checks: wrap producers of the oldest unretired iteration through
    // the partially-dispatched iteration. (Rows past `next_dispatch.0`
    // are untouched; rows before `retired - 1` can never be read again.)
    let lo = retired.saturating_sub(1);
    for it in lo..=next_dispatch.0 {
        let row = &s.issue_done[it * n..(it + 1) * n];
        if row.iter().all(|&t| t == NONE) {
            s.fp.push(FP_ROW_EMPTY);
        } else if row
            .iter()
            .all(|&t| t != NONE && t as f64 + wmax <= horizon as f64)
        {
            s.fp.push(FP_ROW_MATURE);
        } else {
            for &t in row {
                s.fp.push(if t == NONE {
                    i64::MIN
                } else if t as f64 + wmax <= horizon as f64 {
                    FP_MATURE
                } else {
                    t as i64 - base
                });
            }
        }
    }
}

/// FNV-1a over the fingerprint words — cheap pre-filter before the exact
/// `Vec` comparison (matches are confirmed, never trusted from the hash).
fn hash_fp(fp: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in fp {
        h ^= v as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
