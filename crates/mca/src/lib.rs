//! An LLVM-MCA-style throughput predictor — the baseline the paper
//! compares its OSACA models against (Fig. 3).
//!
//! LLVM-MCA is a *simulation-based* predictor built on LLVM's scheduling
//! models. Its documented model differs from both the real hardware and
//! from OSACA's optimistic analytical bound in ways that make it
//! systematically **pessimistic** on streaming kernels (the paper: 75 % of
//! MCA's predictions are slower than the measurement):
//!
//! * **static port binding** — µ-ops are bound to one concrete port at
//!   dispatch (write-port reservation), round-robin over the eligible set,
//!   instead of dynamically picking any free port at issue;
//! * **no rename-stage optimizations** — register moves and zeroing
//!   idioms execute on real ports and carry real latencies (scheduling
//!   models encode them as ordinary instructions);
//! * **full latencies everywhere** — address-writeback updates are
//!   charged the full instruction latency, so pointer-bumping loops stall;
//! * **small per-port reservation queues** ([`PORT_QUEUE`] entries) — a
//!   dependency chain parked in one queue backs up the in-order dispatch
//!   stage, throttling independent work on other ports.
//!
//! The implementation shares the machine descriptions of [`uarch`] but
//! none of the analysis machinery of `incore`, mirroring how LLVM-MCA and
//! OSACA are independent tools reading the same scheduling facts.
//!
//! # Fast path
//!
//! [`predict`] runs `fast_simulate`, which pays for events rather than
//! cycles and is pinned `f64::to_bits`-identical to the cycle-stepped
//! [`predict_reference`] (which, with [`predict_with_events`] and the
//! timeline, keeps using the reference loop):
//!
//! * **Slot-ring queues.** Each port's reservation queue is a ring of
//!   slots in dispatch order with bit masks for ready entries and for
//!   entries whose readiness time is known, so the oldest ready µ-op is
//!   one rotate and one count of trailing zeros. An instance's readiness
//!   time is fixed when its last producer issues and filed straight into
//!   the slots its µ-ops hold; a queue looks at its known-time entries
//!   only when the earliest of those times arrives.
//! * **Bounded idle skip.** When a cycle neither dispatches nor issues,
//!   the clock jumps to the earliest cycle at which a port can issue
//!   (`t_issue`) or the stalled instruction's round-robin bind lands on
//!   queues with room. The bind at each later cycle follows from the
//!   cursors in closed form; only cycles before `t_issue` can lower the
//!   target, so the scan over them stops there (and at 256 cycles).
//! * **Steady-state exit.** At the start of each cycle after an iteration
//!   retired, the simulator samples its decision state relative to `now`
//!   and the retired count: the dispatch cursor, the round-robin cursors,
//!   the port horizons, each queue's entries with their readiness, and
//!   the issue times still reachable. The sample is a quotient by
//!   future-equivalence: a horizon or readiness time at or before `now`
//!   reads as "free"/"ready", an issue time mature for its producer's
//!   heaviest outgoing edge reads as "available", and the per-instance
//!   counters, which follow from the rest, are left out. Equal samples
//!   mean the run from there repeats with a period of Δ iterations and P
//!   cycles. A cheap head (dispatch cursor and queue lengths) is hashed
//!   first; only a head seen before in a ring of recent samples pays for
//!   the full sample, and a run stops sampling after `SAMPLE_BUDGET` full
//!   samples, so blocks that never repeat stop paying for them.
//! * **Closed form vs teleport.** If no µ-op holds its port for more than
//!   one cycle, a younger µ-op can never delay an older one, so the
//!   finite run retires every iteration when the endless periodic run
//!   would: the final retire cycle, the warm-up boundary and the µ-op
//!   count follow by integer arithmetic. Otherwise the drain after the
//!   last dispatch need not stay periodic, so the state (in-flight rows,
//!   queue entries, port horizons) is shifted forward whole periods while
//!   dispatch continues, and the drain is simulated.

pub mod timeline;

use isa::dataflow::dataflow;
use isa::Kernel;
use uarch::{InstrClass, InstrDesc, Machine, PortSet, Uop};

/// Prediction result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McaResult {
    /// Predicted steady-state cycles per loop iteration.
    pub cycles_per_iter: f64,
    /// Total µ-ops per iteration after MCA's decomposition.
    pub uops: usize,
}

/// The MCA-style baseline as a [`uarch::Predictor`] — the unified entry
/// point batch pipelines and divergence lints dispatch through.
///
/// MCA's number falls out of a queue simulation rather than a closed-form
/// bound, so the prediction carries no per-port pressure view and its
/// bottleneck is [`uarch::Bottleneck::Unattributed`].
#[derive(Debug, Clone, Copy, Default)]
pub struct McaBaseline;

impl uarch::Predictor for McaBaseline {
    fn name(&self) -> &'static str {
        "mca"
    }

    fn predict(&self, machine: &Machine, kernel: &Kernel) -> uarch::Prediction {
        let r = crate::predict(machine, kernel);
        uarch::Prediction {
            cycles_per_iter: r.cycles_per_iter,
            bottleneck: uarch::Bottleneck::Unattributed,
            port_pressure: Vec::new(),
            uops_per_iter: r.uops as f64,
        }
    }
}

/// Predict the block throughput of a kernel (cycles per iteration).
///
/// Runs the fast simulation (see "Fast path" in the crate docs); its
/// result is pinned bit-identical to [`predict_reference`] by the test
/// suite.
pub fn predict(machine: &Machine, kernel: &Kernel) -> McaResult {
    predict_stats(machine, kernel).result
}

/// The original allocation-heavy prediction loop, kept verbatim as the
/// equivalence oracle for [`predict`] and as the honest pre-optimization
/// baseline the pipeline bench measures against.
pub fn predict_reference(machine: &Machine, kernel: &Kernel) -> McaResult {
    let n = kernel.instructions.len();
    if n == 0 {
        return McaResult {
            cycles_per_iter: 0.0,
            uops: 0,
        };
    }
    let descs = mca_descs(machine, kernel);
    let edges = mca_edges(kernel, &descs);
    simulate(machine, &descs, &edges, ITERATIONS, WARMUP, None)
}

/// [`McaBaseline`]'s twin that drives [`predict_reference`]. It reports the
/// same predictor name, so a report produced with it is byte-identical to
/// one produced with the fast path — which is exactly what the pipeline
/// bench uses it for.
#[derive(Debug, Clone, Copy, Default)]
pub struct McaReferenceBaseline;

impl uarch::Predictor for McaReferenceBaseline {
    fn name(&self) -> &'static str {
        "mca"
    }

    fn predict(&self, machine: &Machine, kernel: &Kernel) -> uarch::Prediction {
        let r = predict_reference(machine, kernel);
        uarch::Prediction {
            cycles_per_iter: r.cycles_per_iter,
            bottleneck: uarch::Bottleneck::Unattributed,
            port_pressure: Vec::new(),
            uops_per_iter: r.uops as f64,
        }
    }
}

/// A dispatch/issue event pair for one instruction instance, recorded for
/// the timeline view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub iter: usize,
    pub idx: usize,
    pub dispatched: u64,
    pub issued: u64,
}

/// Run the MCA model and record events for the first `iters` iterations
/// (used by [`timeline::render`]).
pub fn predict_with_events(
    machine: &Machine,
    kernel: &Kernel,
    iters: usize,
) -> (McaResult, Vec<Event>) {
    let n = kernel.instructions.len();
    if n == 0 {
        return (
            McaResult {
                cycles_per_iter: 0.0,
                uops: 0,
            },
            Vec::new(),
        );
    }
    let descs = mca_descs(machine, kernel);
    let edges = mca_edges(kernel, &descs);
    let mut events = Vec::new();
    let r = simulate(machine, &descs, &edges, iters.max(1), 0, Some(&mut events));
    events.retain(|e| e.iter < iters);
    events.sort_by_key(|e| (e.iter, e.idx));
    (r, events)
}

/// MCA's view of the instruction stream: no rename-stage elimination.
fn mca_descs(machine: &Machine, kernel: &Kernel) -> Vec<InstrDesc> {
    use uarch::ports::PortCap;
    kernel
        .instructions
        .iter()
        .map(|inst| {
            let d = machine.describe(inst);
            if d.class == InstrClass::Eliminated && !inst.is_nop() {
                // Schedule the move/idiom on a real unit with unit latency.
                let ports = if inst.max_vec_width() > 0 {
                    machine.port_model.with_cap(PortCap::VecAlu)
                } else {
                    machine.port_model.with_cap(PortCap::IntAlu)
                };
                InstrDesc {
                    uops: vec![Uop::new(ports)],
                    latency: 1,
                    rthroughput: 1.0 / ports.count().max(1) as f64,
                    class: InstrClass::Move,
                    from_fallback: false,
                }
            } else {
                d
            }
        })
        .collect()
}

/// Dependency edge with MCA's pessimistic latency charging: every write
/// becomes available after the producer's full latency.
#[derive(Debug, Clone, Copy)]
struct McaEdge {
    from: usize,
    to: usize,
    weight: u64,
    wrap: bool,
}

fn mca_edges(kernel: &Kernel, descs: &[InstrDesc]) -> Vec<McaEdge> {
    let n = kernel.instructions.len();
    let flows: Vec<_> = kernel.instructions.iter().map(dataflow).collect();
    let mut edges = Vec::new();
    for (j, fj) in flows.iter().enumerate() {
        for &r in &fj.reads {
            let producer = (0..j)
                .rev()
                .find(|&i| flows[i].writes.iter().any(|w| w.aliases(&r)))
                .map(|i| (i, false))
                .or_else(|| {
                    (0..n)
                        .rev()
                        .find(|&i| flows[i].writes.iter().any(|w| w.aliases(&r)))
                        .map(|i| (i, true))
                });
            if let Some((i, wrap)) = producer {
                edges.push(McaEdge {
                    from: i,
                    to: j,
                    weight: (descs[i].latency as u64).max(1),
                    wrap,
                });
            }
        }
    }
    edges
}

/// Iterations [`predict`] measures, after [`WARMUP`] unmeasured ones.
const ITERATIONS: usize = 150;
const WARMUP: usize = 30;

/// Capacity of each port's reservation queue. LLVM scheduling models use
/// small per-port buffers; a dependency chain parked in one queue backs up
/// the in-order dispatch stage — MCA's main source of pessimism on
/// latency-rich code.
const PORT_QUEUE: usize = 28;

/// Timeline simulation with static port binding, per-port reservation
/// queues, and in-order dispatch that stalls on a full queue.
fn simulate(
    machine: &Machine,
    descs: &[InstrDesc],
    edges: &[McaEdge],
    iterations: usize,
    warmup: usize,
    mut events: Option<&mut Vec<Event>>,
) -> McaResult {
    let n = descs.len();
    let np = machine.port_model.num_ports();
    let total_iters = iterations + warmup;

    // Static binding: round-robin cursor per distinct eligible port set,
    // like MCA's resource-cycle counters.
    let mut cursors: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut bind = |ports: PortSet| -> usize {
        let members: Vec<usize> = ports.iter().collect();
        let c = cursors.entry(ports.0).or_insert(0);
        let p = members[*c % members.len()];
        *c += 1;
        p
    };

    let mut incoming: Vec<Vec<McaEdge>> = vec![Vec::new(); n];
    for e in edges {
        incoming[e.to].push(*e);
    }

    let mut port_free_at = vec![0u64; np];
    // Per-port reservation queues of (iter, idx) waiting µ-ops.
    let mut queues: Vec<std::collections::VecDeque<(usize, usize)>> =
        vec![std::collections::VecDeque::new(); np];
    let mut issue_at: Vec<Vec<Option<u64>>> = vec![vec![None; n]; total_iters];
    // Remaining unissued µ-ops per instance, to detect full issue.
    let mut pending: Vec<Vec<u32>> = vec![vec![0; n]; total_iters];
    let mut last_uop_at: Vec<Vec<u64>> = vec![vec![0; n]; total_iters];
    let mut now: u64 = 0;
    let mut next = (0usize, 0usize);
    let mut warm_cycle = 0u64;
    let mut done_iters = 0usize;
    let mut total_uops = 0usize;
    // In-order completion tracking: an iteration is done only when every
    // instruction in it (and all older iterations) has fully issued.
    let mut inst_done: Vec<usize> = vec![0; total_iters];
    let mut retire_ptr = 0usize;
    let max_cycles = 1_000_000u64 + total_iters as u64 * 3_000;

    // Readiness of an instance: every producer fully issued and its result
    // propagated.
    let ready = |it: usize,
                 idx: usize,
                 issue_at: &Vec<Vec<Option<u64>>>,
                 now: u64,
                 incoming: &Vec<Vec<McaEdge>>|
     -> bool {
        incoming[idx].iter().all(|e| {
            let pit = if e.wrap {
                match it.checked_sub(1) {
                    Some(p) => p,
                    None => return true,
                }
            } else {
                it
            };
            matches!(issue_at[pit][e.from], Some(t) if t + e.weight <= now)
        })
    };

    while done_iters < total_iters && now < max_cycles {
        // Dispatch in order, bounded by width; a full target queue stalls
        // the whole dispatch group (in-order front end).
        let mut budget = machine.dispatch_width as i64;
        'dispatch: while budget > 0 && next.0 < total_iters {
            let (it, idx) = next;
            let nu = descs[idx].uop_count().max(1) as i64;
            if nu > budget && budget < machine.dispatch_width as i64 {
                break;
            }
            // All bound queues must have room.
            let bound: Vec<usize> = descs[idx].uops.iter().map(|u| bind(u.ports)).collect();
            for &p in &bound {
                if queues[p].len() >= PORT_QUEUE {
                    break 'dispatch;
                }
            }
            for &p in &bound {
                queues[p].push_back((it, idx));
            }
            if let Some(ev) = events.as_deref_mut() {
                ev.push(Event {
                    iter: it,
                    idx,
                    dispatched: now,
                    issued: u64::MAX,
                });
            }
            pending[it][idx] = descs[idx].uop_count() as u32;
            if descs[idx].uop_count() == 0 {
                // NOP-like: completes at dispatch.
                issue_at[it][idx] = Some(now);
                inst_done[it] += 1;
                if let Some(ev) = events.as_deref_mut() {
                    if let Some(e) = ev.iter_mut().rev().find(|e| e.iter == it && e.idx == idx) {
                        e.issued = now;
                    }
                }
            }
            budget -= nu;
            next = if idx + 1 == n {
                (it + 1, 0)
            } else {
                (it, idx + 1)
            };
        }

        // Issue: each port independently takes the oldest *ready* µ-op in
        // its queue (static binding: no port stealing).
        for p in 0..np {
            if port_free_at[p] > now {
                continue;
            }
            let pos = queues[p]
                .iter()
                .position(|&(it, idx)| ready(it, idx, &issue_at, now, &incoming));
            if let Some(pos) = pos {
                let (it, idx) = queues[p].remove(pos).unwrap();
                // Occupancy of the µ-op bound here: use the max occupancy of
                // the instruction's µ-ops eligible for this port.
                let occ = descs[idx]
                    .uops
                    .iter()
                    .filter(|u| u.ports.contains(p))
                    .map(|u| (u.occupancy.ceil() as u64).max(1))
                    .max()
                    .unwrap_or(1);
                port_free_at[p] = now + occ;
                total_uops += 1;
                last_uop_at[it][idx] = last_uop_at[it][idx].max(now);
                pending[it][idx] -= 1;
                if pending[it][idx] == 0 {
                    issue_at[it][idx] = Some(last_uop_at[it][idx]);
                    inst_done[it] += 1;
                    if let Some(ev) = events.as_deref_mut() {
                        if let Some(e) = ev.iter_mut().rev().find(|e| e.iter == it && e.idx == idx)
                        {
                            e.issued = last_uop_at[it][idx];
                        }
                    }
                }
            }
        }
        while retire_ptr < total_iters && inst_done[retire_ptr] == n {
            retire_ptr += 1;
            if retire_ptr == warmup {
                warm_cycle = now;
            }
        }
        done_iters = retire_ptr;
        now += 1;
    }

    let measured = (done_iters.saturating_sub(warmup)).max(1) as f64;
    McaResult {
        cycles_per_iter: (now - warm_cycle) as f64 / measured,
        uops: total_uops / total_iters.max(1),
    }
}

/// Slots of a port's reservation-queue ring. The `k`-th µ-op ever queued
/// on a port lives in slot `k % RING`, so queue order is slot order
/// rotated by the push count. An entry still waiting `RING` pushes later
/// makes the queue renumber its entries ([`PortQueue::compact`]).
const RING: usize = 128;

/// One port's reservation queue. Each held entry is ready, waiting for a
/// known readiness time (`future`), or waiting for producers to issue
/// (neither bit set); the masks are over slots.
#[derive(Debug, Clone)]
struct PortQueue {
    /// µ-ops queued so far, counting from the last renumbering.
    pushed: u64,
    len: usize,
    held: u128,
    ready: u128,
    future: u128,
    /// Per slot: the instance (`it * n + idx`), the µ-op instance
    /// (`it * U + off + ui`) and, for a `future` entry, its readiness time.
    cell: [u32; RING],
    uop: [u32; RING],
    ready_time: [u64; RING],
    /// Earliest readiness time among the `future` entries (`u64::MAX` if
    /// none). Exact: it only falls when an entry's readiness becomes
    /// known, and [`PortQueue::promote`] recomputes it.
    next_ready: u64,
}

impl Default for PortQueue {
    fn default() -> Self {
        PortQueue {
            pushed: 0,
            len: 0,
            held: 0,
            ready: 0,
            future: 0,
            cell: [0; RING],
            uop: [0; RING],
            ready_time: [0; RING],
            next_ready: u64::MAX,
        }
    }
}

impl PortQueue {
    fn clear(&mut self) {
        self.pushed = 0;
        self.len = 0;
        self.held = 0;
        self.ready = 0;
        self.future = 0;
        self.next_ready = u64::MAX;
    }

    /// The slots set in `mask`, oldest entry first.
    fn in_order(&self, mask: u128) -> impl Iterator<Item = usize> {
        let rot = (self.pushed % RING as u64) as u32;
        let mut m = mask.rotate_right(rot);
        std::iter::from_fn(move || {
            (m != 0).then(|| {
                let pos = m.trailing_zeros();
                m &= m - 1;
                ((pos + rot) as usize) % RING
            })
        })
    }

    /// Queue µ-op instance `uop` of instance `cell`; record its slot.
    fn push(&mut self, cell: u32, uop: u32, uop_slot: &mut [u8]) {
        if self.held >> (self.pushed % RING as u64) & 1 == 1 {
            self.compact(uop_slot);
        }
        let slot = (self.pushed % RING as u64) as usize;
        self.cell[slot] = cell;
        self.uop[slot] = uop;
        self.held |= 1 << slot;
        self.len += 1;
        self.pushed += 1;
        uop_slot[uop as usize] = slot as u8;
    }

    /// Renumber the held entries `0..len` in queue order.
    fn compact(&mut self, uop_slot: &mut [u8]) {
        let old = self.clone();
        self.clear();
        for (slot, from) in old.in_order(old.held).enumerate() {
            let bit = 1u128 << slot;
            self.cell[slot] = old.cell[from];
            self.uop[slot] = old.uop[from];
            self.ready_time[slot] = old.ready_time[from];
            self.held |= bit;
            if old.ready >> from & 1 == 1 {
                self.ready |= bit;
            }
            if old.future >> from & 1 == 1 {
                self.future |= bit;
            }
            uop_slot[old.uop[from] as usize] = slot as u8;
        }
        self.len = old.len;
        self.pushed = old.len as u64;
        self.next_ready = old.next_ready;
    }

    /// The entry in `slot` becomes ready at `r`.
    fn set_ready(&mut self, slot: usize, r: u64, now: u64) {
        if r <= now {
            self.ready |= 1 << slot;
        } else {
            self.future |= 1 << slot;
            self.ready_time[slot] = r;
            self.next_ready = self.next_ready.min(r);
        }
    }

    /// Mark every `future` entry whose readiness time has come.
    fn promote(&mut self, now: u64) {
        let mut next = u64::MAX;
        let mut waiting = self.future;
        while waiting != 0 {
            let slot = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            let r = self.ready_time[slot];
            if r <= now {
                self.ready |= 1 << slot;
                self.future &= !(1 << slot);
            } else {
                next = next.min(r);
            }
        }
        self.next_ready = next;
    }

    /// Remove the oldest ready entry and return its instance.
    fn pop_ready(&mut self) -> u32 {
        let slot = self.in_order(self.ready).next().expect("a ready entry");
        let keep = !(1u128 << slot);
        self.ready &= keep;
        self.held &= keep;
        self.len -= 1;
        self.cell[slot]
    }
}

/// Samples kept live, as a ring: once the schedule is periodic the
/// matching sample is at most one period old, so older samples (taken
/// while the reservation queues were still filling) rotate out.
const SAMPLE_WINDOW: usize = 64;

/// Full fingerprints taken per run before steady-state detection gives
/// up, so schedules that never repeat stop paying for them.
#[doc(hidden)]
pub const SAMPLE_BUDGET: usize = 64;

/// A recorded sample: the hash of its fingerprint head, the retired
/// iterations and cycle it was taken at, and the full fingerprint if one
/// was taken (empty otherwise).
#[derive(Debug, Clone)]
struct Sample {
    head: u64,
    retired: usize,
    now: u64,
    full: Vec<i64>,
}

/// Reusable buffers for [`fast_simulate`]. One instance lives per thread
/// inside [`predict`]; after the first few kernels every buffer has reached
/// its high-water capacity and the simulation stops allocating entirely.
#[derive(Debug, Clone, Default)]
struct SimScratch {
    /// Concatenated port members of each distinct eligible port set.
    members: Vec<usize>,
    /// `[start, end)` range into `members` per port-set slot.
    member_ranges: Vec<(u32, u32)>,
    /// Round-robin cursor per port-set slot (replaces the cursor HashMap).
    /// Kept reduced modulo the slot's member count — only the residue is
    /// ever observable.
    cursors: Vec<usize>,
    /// Port-set slot of each µ-op, flattened over all descs.
    slot_of_uop: Vec<u16>,
    /// Per µ-op, flattened like `slot_of_uop`: `(j, m)` where `j` counts
    /// the instruction's earlier µ-ops in the same slot and `m` all of
    /// them. A bind of the instruction advances the slot's cursor by `m`
    /// and lands this µ-op on member `cursor + j`.
    uop_rank: Vec<(u16, u16)>,
    /// Start offset into `slot_of_uop` per instruction.
    uop_offsets: Vec<u32>,
    /// PortSet bits → slot, cleared (capacity kept) per call.
    set_slots: std::collections::HashMap<u32, u16>,
    /// `[start, end)` range into the edge list per consumer instruction.
    incoming_ranges: Vec<(u32, u32)>,
    /// Edge indices regrouped by producer (`from`).
    out_edge_idx: Vec<u32>,
    /// `[start, end)` range into `out_edge_idx` per producer instruction.
    out_ranges: Vec<(u32, u32)>,
    /// Heaviest outgoing edge weight per instruction: once an issue time
    /// is this far in the past, every consumer reads it as available.
    out_wmax: Vec<u64>,
    port_free_at: Vec<u64>,
    queues: Vec<PortQueue>,
    /// Issue occupancy per `(instruction, port)`, flattened `idx * np + p`
    /// (max occupancy over the instruction's µ-ops eligible for the
    /// port, as the reference computes on every issue).
    occ_of: Vec<u8>,
    /// Flattened `it * n + idx` tables; `u64::MAX` encodes "not yet".
    issue_at: Vec<u64>,
    pending: Vec<u32>,
    inst_done: Vec<u32>,
    /// Unissued-producer count per instance; `-1` = not yet dispatched.
    prod_pending: Vec<i32>,
    /// An instance's readiness time is the max over its incoming edges of
    /// producer issue time plus edge weight, which is when the reference's
    /// readiness check first passes. This is that max over the producers
    /// issued so far, for instances still waiting on others.
    ready_floor: Vec<u64>,
    /// Port each µ-op instance was bound to, indexed `it * U + off + ui`
    /// (`U` = µ-ops per iteration). Written at dispatch, read at
    /// notification; never read for undispatched instances, so it is not
    /// cleared between calls.
    uop_port: Vec<u8>,
    /// Queue slot of each µ-op instance, indexed like `uop_port`.
    uop_slot: Vec<u8>,
    /// Per-dispatch-attempt bound-port scratch.
    bound: Vec<usize>,
    /// Cycle in which each iteration retired.
    retire_at: Vec<u64>,
    /// Fingerprint under construction.
    fp: Vec<i64>,
    /// Recorded samples, oldest first (at most [`SAMPLE_WINDOW`]).
    samples: std::collections::VecDeque<Sample>,
}

/// How a [`fast_simulate`] run ended.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteadyExit {
    /// Every iteration was simulated.
    None,
    /// The final retire cycle was extrapolated in closed form.
    ClosedForm,
    /// The state jumped forward whole periods; the drain was simulated.
    Teleport,
}

/// Counters of one [`predict`] run, for tests that pin the steady-state
/// exit.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McaStats {
    pub result: McaResult,
    pub exit: SteadyExit,
    /// Iterations retired when the fingerprint matched.
    pub matched_at: Option<usize>,
    /// Iterations retired by simulation rather than extrapolation.
    pub simulated_iters: usize,
    /// Full fingerprints taken (at most [`SAMPLE_BUDGET`]).
    pub fingerprints: usize,
}

/// [`predict`] plus its simulation counters.
#[doc(hidden)]
pub fn predict_stats(machine: &Machine, kernel: &Kernel) -> McaStats {
    if kernel.instructions.is_empty() {
        return McaStats {
            result: McaResult {
                cycles_per_iter: 0.0,
                uops: 0,
            },
            exit: SteadyExit::None,
            matched_at: None,
            simulated_iters: 0,
            fingerprints: 0,
        };
    }
    let descs = mca_descs(machine, kernel);
    let edges = mca_edges(kernel, &descs);
    // A full queue still admits every µ-op of the instruction being
    // dispatched; the ring must keep a slot free beyond that.
    if descs.iter().any(|d| d.uops.len() > RING - PORT_QUEUE) {
        return McaStats {
            result: simulate(machine, &descs, &edges, ITERATIONS, WARMUP, None),
            exit: SteadyExit::None,
            matched_at: None,
            simulated_iters: ITERATIONS + WARMUP,
            fingerprints: 0,
        };
    }
    SCRATCH.with(|s| {
        fast_simulate(
            machine,
            &descs,
            &edges,
            ITERATIONS,
            WARMUP,
            &mut s.borrow_mut(),
        )
    })
}

thread_local! {
    static SCRATCH: std::cell::RefCell<SimScratch> = std::cell::RefCell::new(SimScratch::default());
}

/// Fix an instance's readiness time `r`: file the queue entries of its
/// µ-op instances `uops` as ready or future.
fn set_ready(
    uops: std::ops::Range<usize>,
    r: u64,
    now: u64,
    uop_port: &[u8],
    uop_slot: &[u8],
    queues: &mut [PortQueue],
) {
    for u in uops {
        queues[uop_port[u] as usize].set_ready(uop_slot[u] as usize, r, now);
    }
}

/// Propagate an instance's issue to its consumers: decrement their
/// unissued-producer counts, raise their readiness floors and, for any
/// whose count hits zero, fix their readiness time. Consumers not yet
/// dispatched (`prod_pending == -1`) are skipped — their count and floor
/// are taken at dispatch, when this issue is already visible.
#[allow(clippy::too_many_arguments)]
fn notify_issue(
    cell: usize,
    n: usize,
    total_iters: usize,
    uops_per_iter: usize,
    descs: &[InstrDesc],
    edges: &[McaEdge],
    out_edge_idx: &[u32],
    out_ranges: &[(u32, u32)],
    uop_offsets: &[u32],
    issue_at: &[u64],
    prod_pending: &mut [i32],
    ready_floor: &mut [u64],
    uop_port: &[u8],
    uop_slot: &[u8],
    queues: &mut [PortQueue],
) {
    let (it, idx) = (cell / n, cell % n);
    let t = issue_at[cell];
    let (a, b) = out_ranges[idx];
    for &ei in &out_edge_idx[a as usize..b as usize] {
        let e = &edges[ei as usize];
        let cit = it + e.wrap as usize;
        if cit >= total_iters {
            continue;
        }
        let ccell = cit * n + e.to;
        if prod_pending[ccell] > 0 {
            prod_pending[ccell] -= 1;
            let r = ready_floor[ccell].max(t + e.weight);
            if prod_pending[ccell] == 0 {
                let base = cit * uops_per_iter + uop_offsets[e.to] as usize;
                let uops = base..base + descs[e.to].uops.len();
                set_ready(uops, r, t, uop_port, uop_slot, queues);
            } else {
                ready_floor[ccell] = r;
            }
        }
    }
}

/// Event-driven port of [`simulate`] over reused flat buffers; see the
/// module docs ("Fast path") for the mechanisms. Every stateful decision —
/// round-robin cursor advancement (including on stalled dispatch
/// attempts), queue order, port priority — is preserved exactly, which the
/// equivalence tests pin with `f64::to_bits`.
fn fast_simulate(
    machine: &Machine,
    descs: &[InstrDesc],
    edges: &[McaEdge],
    iterations: usize,
    warmup: usize,
    s: &mut SimScratch,
) -> McaStats {
    let n = descs.len();
    let np = machine.port_model.num_ports();
    let total_iters = iterations + warmup;

    // Static binding tables: one slot per distinct eligible port set, in
    // first-touch order (each cursor is independent, so slot order does
    // not affect behavior — only determinism of the tables).
    s.set_slots.clear();
    s.members.clear();
    s.member_ranges.clear();
    s.cursors.clear();
    s.slot_of_uop.clear();
    s.uop_rank.clear();
    s.uop_offsets.clear();
    for d in descs {
        let off = s.slot_of_uop.len();
        s.uop_offsets.push(off as u32);
        for u in &d.uops {
            let slot = match s.set_slots.get(&u.ports.0) {
                Some(&slot) => slot,
                None => {
                    let slot = s.member_ranges.len() as u16;
                    let start = s.members.len() as u32;
                    s.members.extend(u.ports.iter());
                    s.member_ranges.push((start, s.members.len() as u32));
                    s.cursors.push(0);
                    s.set_slots.insert(u.ports.0, slot);
                    slot
                }
            };
            s.slot_of_uop.push(slot);
        }
        let slots = &s.slot_of_uop[off..];
        for (ui, &slot) in slots.iter().enumerate() {
            let j = slots[..ui].iter().filter(|&&x| x == slot).count();
            let m = slots.iter().filter(|&&x| x == slot).count();
            s.uop_rank.push((j as u16, m as u16));
        }
    }
    let uops_per_iter = s.slot_of_uop.len();

    // Occupancy lookup per (instruction, port), replacing the per-issue
    // filter/max over the instruction's µ-ops.
    s.occ_of.clear();
    s.occ_of.resize(n * np, 1);
    for (idx, d) in descs.iter().enumerate() {
        for u in &d.uops {
            let occ = (u.occupancy.ceil() as u64).max(1).min(u8::MAX as u64) as u8;
            for p in u.ports.iter() {
                let e = &mut s.occ_of[idx * np + p];
                *e = (*e).max(occ);
            }
        }
    }
    // A µ-op holding its port past its issue cycle lets a younger µ-op
    // delay an older one, so the drain after the last dispatch need not
    // stay periodic: such kernels teleport instead of exiting in closed
    // form.
    let blocking = s.occ_of.iter().any(|&o| o > 1);

    // `mca_edges` emits edges grouped by consumer in increasing order, so
    // the per-consumer edge lists are contiguous runs of the input slice.
    s.incoming_ranges.clear();
    s.incoming_ranges.resize(n, (0, 0));
    let mut k = 0usize;
    for (to, range) in s.incoming_ranges.iter_mut().enumerate() {
        let start = k;
        while k < edges.len() && edges[k].to == to {
            k += 1;
        }
        *range = (start as u32, k as u32);
    }
    debug_assert_eq!(k, edges.len(), "edges not grouped by consumer");

    // Outgoing adjacency (edge indices regrouped by producer), for issue
    // notifications.
    s.out_ranges.clear();
    s.out_ranges.resize(n, (0, 0));
    s.out_wmax.clear();
    s.out_wmax.resize(n, 0);
    for e in edges {
        s.out_ranges[e.from].1 += 1;
        s.out_wmax[e.from] = s.out_wmax[e.from].max(e.weight);
    }
    let mut start = 0u32;
    for r in &mut s.out_ranges {
        let cnt = r.1;
        *r = (start, start);
        start += cnt;
    }
    s.out_edge_idx.clear();
    s.out_edge_idx.resize(edges.len(), 0);
    for (ei, e) in edges.iter().enumerate() {
        let slot = s.out_ranges[e.from].1;
        s.out_edge_idx[slot as usize] = ei as u32;
        s.out_ranges[e.from].1 += 1;
    }

    s.port_free_at.clear();
    s.port_free_at.resize(np, 0);
    if s.queues.len() < np {
        s.queues.resize_with(np, PortQueue::default);
    }
    for q in &mut s.queues[..np] {
        q.clear();
    }
    let cells = total_iters * n;
    s.issue_at.clear();
    s.issue_at.resize(cells, u64::MAX);
    s.pending.clear();
    s.pending.resize(cells, 0);
    s.prod_pending.clear();
    s.prod_pending.resize(cells, -1);
    s.ready_floor.clear();
    s.ready_floor.resize(cells, 0);
    s.inst_done.clear();
    s.inst_done.resize(total_iters, 0);
    s.retire_at.clear();
    s.retire_at.resize(total_iters, 0);
    s.samples.clear();
    // `uop_port`/`uop_slot` are written at dispatch and only read for
    // dispatched instances, so stale contents from a previous call are
    // never observed — grow without clearing.
    let uop_cells = total_iters * uops_per_iter;
    if s.uop_port.len() < uop_cells {
        s.uop_port.resize(uop_cells, 0);
        s.uop_slot.resize(uop_cells, 0);
    }

    let mut now: u64 = 0;
    let mut next = (0usize, 0usize);
    let mut warm_cycle = 0u64;
    let mut done_iters = 0usize;
    let mut total_uops = 0usize;
    let mut retire_ptr = 0usize;
    let max_cycles = 1_000_000u64 + total_iters as u64 * 3_000;
    let mut sampling_dead = false;
    let mut exit = SteadyExit::None;
    let mut matched_at = None;
    let mut extrapolated = 0usize;
    let mut fingerprints = 0usize;

    while done_iters < total_iters && now < max_cycles {
        // Dispatch in order, bounded by width; a full target queue stalls
        // the whole dispatch group (in-order front end). Note the cursors
        // advance even when the queue-full check then stalls the group —
        // that matches the reference loop and is load-bearing for
        // bit-identical output.
        let next_before = next;
        let mut issued_any = false;
        let mut budget = machine.dispatch_width as i64;
        'dispatch: while budget > 0 && next.0 < total_iters {
            let (it, idx) = next;
            let nu = descs[idx].uop_count().max(1) as i64;
            if nu > budget && budget < machine.dispatch_width as i64 {
                break;
            }
            s.bound.clear();
            let off = s.uop_offsets[idx] as usize;
            for ui in 0..descs[idx].uops.len() {
                let slot = s.slot_of_uop[off + ui] as usize;
                let (ms, me) = s.member_ranges[slot];
                let members = &s.members[ms as usize..me as usize];
                let c = &mut s.cursors[slot];
                let p = members[*c];
                *c += 1;
                if *c == members.len() {
                    *c = 0;
                }
                s.bound.push(p);
            }
            for &p in &s.bound {
                if s.queues[p].len >= PORT_QUEUE {
                    break 'dispatch;
                }
            }
            let cell = it * n + idx;
            s.pending[cell] = descs[idx].uop_count() as u32;
            if descs[idx].uop_count() == 0 {
                // NOP-like: completes at dispatch. It holds no queue slots,
                // so its own readiness is never queried; `prod_pending`
                // stays in the undispatched state and notifications pass
                // it by.
                s.issue_at[cell] = now;
                s.inst_done[it] += 1;
                notify_issue(
                    cell,
                    n,
                    total_iters,
                    uops_per_iter,
                    descs,
                    edges,
                    &s.out_edge_idx,
                    &s.out_ranges,
                    &s.uop_offsets,
                    &s.issue_at,
                    &mut s.prod_pending,
                    &mut s.ready_floor,
                    &s.uop_port,
                    &s.uop_slot,
                    &mut s.queues,
                );
            } else {
                let uop_base = it * uops_per_iter + off;
                for (ui, &p) in s.bound.iter().enumerate() {
                    let u = uop_base + ui;
                    s.queues[p].push(cell as u32, u as u32, &mut s.uop_slot);
                    s.uop_port[u] = p as u8;
                }
                // Count producers that have not issued yet, and take the
                // readiness floor of those that have; anything that issues
                // later flows in through `notify_issue`. Wrap edges of
                // iteration 0 have no producer and are satisfied.
                let (a, b) = s.incoming_ranges[idx];
                let mut cnt = 0i32;
                let mut floor = 0u64;
                for e in &edges[a as usize..b as usize] {
                    let pit = if e.wrap {
                        match it.checked_sub(1) {
                            Some(p) => p,
                            None => continue,
                        }
                    } else {
                        it
                    };
                    match s.issue_at[pit * n + e.from] {
                        u64::MAX => cnt += 1,
                        t => floor = floor.max(t + e.weight),
                    }
                }
                s.prod_pending[cell] = cnt;
                if cnt == 0 {
                    let uops = uop_base..uop_base + s.bound.len();
                    set_ready(uops, floor, now, &s.uop_port, &s.uop_slot, &mut s.queues);
                } else {
                    s.ready_floor[cell] = floor;
                }
            }
            budget -= nu;
            next = if idx + 1 == n {
                (it + 1, 0)
            } else {
                (it, idx + 1)
            };
        }

        // Issue: each port independently takes the oldest *ready* µ-op in
        // its queue (static binding: no port stealing). Entries whose
        // readiness time has come are marked first; the lowest marked
        // position is precisely the reference scan's first ready entry.
        for p in 0..np {
            if s.port_free_at[p] > now {
                continue;
            }
            let q = &mut s.queues[p];
            if q.next_ready <= now {
                q.promote(now);
            }
            if q.ready == 0 {
                continue;
            }
            let cell = q.pop_ready() as usize;
            issued_any = true;
            let (it, idx) = (cell / n, cell % n);
            let occ = s.occ_of[idx * np + p] as u64;
            s.port_free_at[p] = now + occ;
            total_uops += 1;
            s.pending[cell] -= 1;
            if s.pending[cell] == 0 {
                // The reference records the latest µ-op issue cycle, which
                // is this one: the clock only moves forward.
                s.issue_at[cell] = now;
                s.inst_done[it] += 1;
                notify_issue(
                    cell,
                    n,
                    total_iters,
                    uops_per_iter,
                    descs,
                    edges,
                    &s.out_edge_idx,
                    &s.out_ranges,
                    &s.uop_offsets,
                    &s.issue_at,
                    &mut s.prod_pending,
                    &mut s.ready_floor,
                    &s.uop_port,
                    &s.uop_slot,
                    &mut s.queues,
                );
            }
        }
        let retired_before = retire_ptr;
        while retire_ptr < total_iters && s.inst_done[retire_ptr] as usize == n {
            s.retire_at[retire_ptr] = now;
            retire_ptr += 1;
            if retire_ptr == warmup {
                warm_cycle = now;
            }
        }
        done_iters = retire_ptr;
        now += 1;

        // Steady-state exit. A sample is taken at the start of the next
        // cycle, relative to `now` and `retire_ptr`. Its cheap head is
        // hashed first; only a head seen before in the ring pays for the
        // full fingerprint, which is then compared with the earlier full
        // fingerprints under the same head. A periodic schedule thus
        // matches one period after its head first recurs, and a transient
        // whose queues are still filling pays for heads only.
        if !sampling_dead
            && retire_ptr > retired_before
            && retire_ptr < total_iters
            && next.0 < total_iters
        {
            fingerprint_head(s, np, retire_ptr, next);
            let head = hash_fp(&s.fp);
            let mut full = false;
            let mut prior = None;
            if s.samples.iter().any(|x| x.head == head) {
                if fingerprints == SAMPLE_BUDGET {
                    sampling_dead = true;
                } else {
                    fingerprints += 1;
                    full = true;
                    fingerprint_rest(s, n, np, now, retire_ptr, next);
                    prior = s
                        .samples
                        .iter()
                        .find(|x| x.head == head && x.full == s.fp)
                        .map(|x| (x.retired, x.now));
                }
            }
            if let Some((p_retired, p_now)) = prior {
                // Periodic: from here on, every `dk` iterations retire
                // exactly `dc` cycles after the previous `dk` — for as
                // long as dispatch keeps feeding the queues.
                sampling_dead = true;
                let dk = retire_ptr - p_retired;
                let dc = now - p_now;
                // Retire cycle of iteration `upto - 1`, for any `upto`
                // past the earlier sample.
                let retire_of = |retire_at: &[u64], upto: usize| {
                    let m = upto - p_retired;
                    retire_at[p_retired - 1 + m % dk] + (m / dk) as u64 * dc
                };
                if !blocking {
                    // No younger µ-op can delay an older one, so the finite
                    // run retires every iteration exactly when the endless
                    // periodic run would: the final retire cycle is closed
                    // form. Every dispatched µ-op issues before it.
                    let final_t = retire_of(&s.retire_at, total_iters);
                    if final_t < max_cycles {
                        if retire_ptr < warmup {
                            warm_cycle = retire_of(&s.retire_at, warmup);
                        }
                        exit = SteadyExit::ClosedForm;
                        matched_at = Some(retire_ptr);
                        extrapolated = total_iters - retire_ptr;
                        total_uops = total_iters * uops_per_iter;
                        done_iters = total_iters;
                        now = final_t + 1;
                        break;
                    }
                    // The run would hit the cycle cap mid-pattern, which
                    // the formula cannot describe: keep simulating.
                } else {
                    // Teleport `j` whole periods — exact while dispatch
                    // continues — then simulate the drain. A mid-iteration
                    // cursor needs its iteration to stay in range.
                    let j = (total_iters - next.0 - usize::from(next.1 > 0)) / dk;
                    let (jdk, jdc) = (j * dk, j as u64 * dc);
                    if j >= 1 && now + jdc < max_cycles {
                        if retire_ptr < warmup && warmup <= retire_ptr + jdk {
                            warm_cycle = retire_of(&s.retire_at, warmup);
                        }
                        let hi = next.0.min(total_iters - 1 - jdk);
                        teleport(s, n, np, uops_per_iter, retire_ptr - 1, hi, jdk, jdc);
                        exit = SteadyExit::Teleport;
                        matched_at = Some(retire_ptr);
                        extrapolated = jdk;
                        retire_ptr += jdk;
                        done_iters = retire_ptr;
                        next.0 += jdk;
                        total_uops += jdk * uops_per_iter;
                        now += jdc;
                        continue;
                    }
                }
            } else if !sampling_dead {
                if s.samples.len() == SAMPLE_WINDOW {
                    s.samples.pop_front();
                }
                s.samples.push_back(Sample {
                    head,
                    retired: retire_ptr,
                    now,
                    full: if full { s.fp.clone() } else { Vec::new() },
                });
            }
        }

        // Idle-cycle skip. If the cycle just simulated (T = now-1) neither
        // dispatched nor issued anything, following cycles stay idle until
        // either (a) some port can issue — queues cannot drain without
        // issues and no new readiness times can appear (a µ-op's readiness
        // is fixed once its producers issue) — or (b) the stalled bind
        // rotates onto a non-full queue: the round-robin cursors keep
        // advancing during failed binds, so the chosen ports vary
        // cycle-to-cycle. Both bounds are computed exactly; the skipped
        // cycles' only state change (the constant per-cycle cursor
        // advance) is applied in closed form, so the jump is equivalent to
        // simulating each idle cycle.
        if !issued_any && next == next_before && done_iters < total_iters && now < max_cycles {
            // (a) earliest cycle at which any port can issue. A queue with
            // a ready entry issues the moment the port is free; otherwise
            // its earliest known readiness time gates it. Entries with
            // unissued producers cannot become ready while idle.
            let mut t_issue = u64::MAX;
            for (q, &free) in s.queues[..np].iter().zip(&s.port_free_at) {
                let t = if q.ready != 0 {
                    free
                } else if q.next_ready != u64::MAX {
                    q.next_ready.max(free)
                } else {
                    continue;
                };
                t_issue = t_issue.min(t);
            }

            // (b) earliest k >= 1 such that the bind of the stalled
            // instruction at cycle T+k lands every µ-op on a non-full
            // queue. The j-th slot-s µ-op at cycle T+k picks member
            // (c_s + (k-1)*m_s + j) mod len_s, with c_s the cursor after
            // cycle T's failed bind and m_s the instruction's µ-op count
            // in that slot. The pattern is periodic, so scanning a bounded
            // window is exact for every cycle it covers; and only cycles
            // before `t_issue` can lower the jump target, so the scan
            // stops there.
            const SCAN: u64 = 256;
            let bound_by_dispatch = if next.0 < total_iters {
                let kmax = SCAN.min(t_issue.saturating_sub(now));
                let off = s.uop_offsets[next.1] as usize;
                let uops = off..off + descs[next.1].uops.len();
                let fits = |k: u64| {
                    uops.clone().all(|u| {
                        let slot = s.slot_of_uop[u] as usize;
                        let (j, m) = s.uop_rank[u];
                        let (ms, me) = s.member_ranges[slot];
                        let pos = (s.cursors[slot] as u64 + (k - 1) * m as u64 + j as u64)
                            % (me - ms) as u64;
                        s.queues[s.members[ms as usize + pos as usize]].len < PORT_QUEUE
                    })
                };
                (1..=kmax)
                    .find(|&k| fits(k))
                    .map_or(now + kmax, |k| now - 1 + k)
            } else {
                u64::MAX
            };

            // t_issue == MAX with no dispatch bound means deadlock: the
            // reference would spin to the cycle cap, so jump there.
            let target = t_issue.min(bound_by_dispatch).max(now).min(max_cycles);
            let skipped = target - now;
            if skipped > 0 {
                if next.0 < total_iters {
                    let idx = next.1;
                    let off = s.uop_offsets[idx] as usize;
                    for ui in 0..descs[idx].uops.len() {
                        let slot = s.slot_of_uop[off + ui] as usize;
                        let (ms, me) = s.member_ranges[slot];
                        let len = (me - ms) as usize;
                        s.cursors[slot] = (s.cursors[slot] + skipped as usize) % len;
                    }
                }
                now = target;
            }
        }
    }

    let measured = (done_iters.saturating_sub(warmup)).max(1) as f64;
    McaStats {
        result: McaResult {
            cycles_per_iter: (now - warm_cycle) as f64 / measured,
            uops: total_uops / total_iters.max(1),
        },
        exit,
        matched_at,
        simulated_iters: done_iters - extrapolated,
        fingerprints,
    }
}

/// A fingerprint word for an issue-time row whose every value has issued
/// and matured: the whole row collapses to this one sentinel. Never
/// collides with per-value words (`i64::MIN`, [`FP_MATURE`], or small
/// relative times), so the variable-width encoding is uniquely decodable.
const FP_ROW_MATURE: i64 = i64::MAX;
/// A fingerprint word for a single matured issue time.
const FP_MATURE: i64 = i64::MAX - 1;
/// A fingerprint word for an issue-time row with no issues yet.
const FP_ROW_EMPTY: i64 = i64::MAX - 2;

/// Start a fingerprint in `s.fp` with its head: the dispatch cursor
/// relative to the oldest unretired iteration and the queue lengths — a
/// few words that any repeat of the full state must repeat too.
fn fingerprint_head(s: &mut SimScratch, np: usize, retired: usize, next: (usize, usize)) {
    s.fp.clear();
    s.fp.push((next.0 - retired) as i64);
    s.fp.push(next.1 as i64);
    s.fp.extend(s.queues[..np].iter().map(|q| q.len as i64));
}

/// Complete the fingerprint [`fingerprint_head`] started: the round-robin
/// cursors, the port horizons, the queue entries and the issue times still
/// reachable.
///
/// The full fingerprint records the simulator's decision state relative
/// to `now` (the next cycle to simulate) and the retired-iteration count,
/// *quotiented by future-equivalence*: two equal fingerprints ⇒ the runs
/// from those two points are identical modulo the (Δ iterations, Δ cycles)
/// shift. Coordinates that can no longer influence any decision are
/// clamped to their class, so dead history cannot delay a match: a port
/// horizon or readiness time at or before `now` reads as "free"/"ready",
/// and an issue time mature for its producer's heaviest outgoing edge
/// always reads as "operand available". The per-instance counters
/// (`pending`, `prod_pending`, `inst_done`) are left out: each is a
/// function of the queue entries, the issue times and the dispatch cursor.
fn fingerprint_rest(
    s: &mut SimScratch,
    n: usize,
    np: usize,
    now: u64,
    retired: usize,
    next: (usize, usize),
) {
    let base = now as i64;
    let first_cell = retired * n;
    s.fp.extend(s.cursors.iter().map(|&c| c as i64));
    s.fp.extend(
        s.port_free_at[..np]
            .iter()
            .map(|&t| (t.max(now) - now) as i64),
    );

    // The reservation queues in order, one word per entry: its instance
    // relative to the oldest unretired one, and its readiness time relative
    // to `now` plus one (1 once due), or 0 while the entry's producers have
    // not all issued.
    for q in &s.queues[..np] {
        for slot in q.in_order(q.held) {
            let ready = if q.ready >> slot & 1 == 1 {
                1
            } else if q.future >> slot & 1 == 1 {
                q.ready_time[slot].max(now) - now + 1
            } else {
                0
            };
            let cell = q.cell[slot] as usize - first_cell;
            s.fp.push(((cell as i64) << 32) | ready as i64);
        }
    }

    // The issue times still reachable by readiness checks: wrap producers
    // of the oldest unretired iteration through the partially-dispatched
    // one. (Later rows are untouched; earlier rows are never read again.)
    for it in retired - 1..=next.0 {
        let row = &s.issue_at[it * n..(it + 1) * n];
        let mature = |i: usize, t: u64| t != u64::MAX && t + s.out_wmax[i] <= now;
        if row.iter().all(|&t| t == u64::MAX) {
            s.fp.push(FP_ROW_EMPTY);
        } else if row.iter().enumerate().all(|(i, &t)| mature(i, t)) {
            s.fp.push(FP_ROW_MATURE);
        } else {
            for (i, &t) in row.iter().enumerate() {
                s.fp.push(if t == u64::MAX {
                    i64::MIN
                } else if mature(i, t) {
                    FP_MATURE
                } else {
                    t as i64 - base
                });
            }
        }
    }
}

/// FNV-1a over the fingerprint words — cheap pre-filter before the exact
/// comparison (matches are confirmed, never trusted from the hash).
fn hash_fp(fp: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in fp {
        h ^= v as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Advance the whole simulation state `jdk` iterations and `jdc` cycles:
/// the per-instance rows `lo..=hi` (the wrap producers of the oldest
/// unretired iteration through the dispatch cursor), the queue entries and
/// the port horizons. Cursors and queue order are unchanged by a whole
/// number of periods. Rows are moved highest first, since source and
/// destination may overlap.
#[allow(clippy::too_many_arguments)]
fn teleport(
    s: &mut SimScratch,
    n: usize,
    np: usize,
    uops_per_iter: usize,
    lo: usize,
    hi: usize,
    jdk: usize,
    jdc: u64,
) {
    let shift = |t: u64| if t == u64::MAX { t } else { t + jdc };
    let (dcell, duop) = (jdk * n, jdk * uops_per_iter);
    for it in (lo..=hi).rev() {
        for cell in it * n..(it + 1) * n {
            s.issue_at[cell + dcell] = shift(s.issue_at[cell]);
            s.ready_floor[cell + dcell] = s.ready_floor[cell] + jdc;
            s.pending[cell + dcell] = s.pending[cell];
            s.prod_pending[cell + dcell] = s.prod_pending[cell];
        }
        s.inst_done[it + jdk] = s.inst_done[it];
        for u in it * uops_per_iter..(it + 1) * uops_per_iter {
            s.uop_port[u + duop] = s.uop_port[u];
            s.uop_slot[u + duop] = s.uop_slot[u];
        }
    }
    for (q, free) in s.queues[..np].iter_mut().zip(&mut s.port_free_at) {
        let mut held = q.held;
        while held != 0 {
            let slot = held.trailing_zeros() as usize;
            held &= held - 1;
            q.cell[slot] += dcell as u32;
            q.uop[slot] += duop as u32;
            if q.future >> slot & 1 == 1 {
                q.ready_time[slot] += jdc;
            }
        }
        q.next_ready = shift(q.next_ready);
        // Horizons at or before `now` stay in the past.
        *free += jdc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa::{parse_kernel, Isa};
    use uarch::Machine;

    fn p(asm: &str, m: &Machine) -> f64 {
        let k = parse_kernel(asm, Isa::X86).unwrap();
        predict(m, &k).cycles_per_iter
    }

    #[test]
    fn serial_chain_bounded_by_latency() {
        let m = Machine::golden_cove();
        let c = p(
            ".L1:\n vfmadd231pd %zmm1, %zmm2, %zmm3\n subq $1, %rax\n jne .L1\n",
            &m,
        );
        assert!(c >= 4.0 - 0.1, "c={c}");
        assert!(c < 7.0, "c={c}");
    }

    #[test]
    fn mca_does_not_eliminate_moves() {
        let m = Machine::golden_cove();
        let asm = ".L1:\n vmovaps %zmm1, %zmm2\n vmovaps %zmm2, %zmm3\n subq $1, %rax\n jne .L1\n";
        let mca_c = p(asm, &m);
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let osaca = incore::analyze(&m, &k).prediction;
        assert!(mca_c > osaca, "mca={mca_c} osaca={osaca}");
    }

    #[test]
    fn mca_is_pessimistic_vs_simulator_on_streaming() {
        // The paper's central Fig. 3 relationship: MCA ≥ measurement ≥
        // OSACA for typical streaming kernels.
        let m = Machine::golden_cove();
        let asm = ".L1:\n vmovupd (%rsi,%rax), %zmm0\n vaddpd %zmm0, %zmm1, %zmm2\n vmovupd %zmm2, (%rdi,%rax)\n addq $64, %rax\n cmpq %rcx, %rax\n jne .L1\n";
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let mca_c = predict(&m, &k).cycles_per_iter;
        let meas = exec::cycles_per_iteration(&m, &k);
        let osaca = incore::analyze(&m, &k).prediction;
        assert!(osaca <= meas + 0.05, "osaca={osaca} meas={meas}");
        assert!(mca_c >= meas * 0.85, "mca={mca_c} meas={meas}");
    }

    #[test]
    fn empty_kernel() {
        let m = Machine::zen4();
        let k = Kernel {
            instructions: vec![],
            isa: Isa::X86,
            loop_label: None,
        };
        assert_eq!(predict(&m, &k).cycles_per_iter, 0.0);
    }

    #[test]
    fn aarch64_kernels_work() {
        let m = Machine::neoverse_v2();
        let k = parse_kernel(
            ".L1:\n ldr q0, [x1, x4]\n fadd v0.2d, v0.2d, v1.2d\n str q0, [x0, x4]\n add x4, x4, #16\n cmp x4, x5\n b.ne .L1\n",
            Isa::AArch64,
        )
        .unwrap();
        let r = predict(&m, &k);
        assert!(r.cycles_per_iter >= 1.0, "{}", r.cycles_per_iter);
        assert!(r.cycles_per_iter < 20.0, "{}", r.cycles_per_iter);
    }

    #[test]
    fn static_binding_creates_contention() {
        // Two µ-ops alternating over {0,5} plus one pinned to port 0:
        // dynamic picking resolves this, static round-robin collides on
        // some iterations. MCA must be ≥ the optimal analytical bound.
        let m = Machine::golden_cove();
        let asm = ".L1:\n vaddpd %zmm0, %zmm1, %zmm2\n vaddpd %zmm0, %zmm1, %zmm3\n vdivpd %ymm4, %ymm5, %ymm6\n subq $1, %rax\n jne .L1\n";
        let k = parse_kernel(asm, Isa::X86).unwrap();
        let mca_c = predict(&m, &k).cycles_per_iter;
        let osaca = incore::analyze(&m, &k).prediction;
        assert!(mca_c >= osaca - 0.05, "mca={mca_c} osaca={osaca}");
    }

    #[test]
    fn fast_path_is_bit_identical_to_reference() {
        // The scratch-buffer simulation must reproduce the reference loop
        // exactly — not approximately — across kernels exercising NOP-like
        // zero-µ-op instructions, static-binding contention, serial chains,
        // memory traffic, and both ISAs on all three machines.
        let x86 = [
            ".L1:\n vfmadd231pd %zmm1, %zmm2, %zmm3\n subq $1, %rax\n jne .L1\n",
            ".L1:\n vmovupd (%rsi,%rax), %zmm0\n vaddpd %zmm0, %zmm1, %zmm2\n vmovupd %zmm2, (%rdi,%rax)\n addq $64, %rax\n cmpq %rcx, %rax\n jne .L1\n",
            ".L1:\n vaddpd %zmm0, %zmm1, %zmm2\n vaddpd %zmm0, %zmm1, %zmm3\n vdivpd %ymm4, %ymm5, %ymm6\n subq $1, %rax\n jne .L1\n",
            ".L1:\n nop\n addq $1, %rax\n cmpq %rcx, %rax\n jne .L1\n",
            "movq %rax, %rbx\naddq $1, %rbx\n",
        ];
        let a64 = [
            ".L1:\n ldr q0, [x1, x4]\n fadd v0.2d, v0.2d, v1.2d\n str q0, [x0, x4]\n add x4, x4, #16\n cmp x4, x5\n b.ne .L1\n",
            ".L1:\n ld1d z0.d, p0/z, [x1, x4, lsl #3]\n fmla z1.d, p0/m, z0.d, z2.d\n add x4, x4, #8\n cmp x4, x5\n b.ne .L1\n",
        ];
        for m in [
            Machine::golden_cove(),
            Machine::zen4(),
            Machine::neoverse_v2(),
        ] {
            for (isa, asm) in x86
                .iter()
                .map(|a| (Isa::X86, a))
                .chain(a64.iter().map(|a| (Isa::AArch64, a)))
            {
                let k = parse_kernel(asm, isa).unwrap();
                let fast = predict(&m, &k);
                let slow = predict_reference(&m, &k);
                assert_eq!(
                    fast.cycles_per_iter.to_bits(),
                    slow.cycles_per_iter.to_bits(),
                    "machine={} asm={asm:?} fast={} slow={}",
                    m.name,
                    fast.cycles_per_iter,
                    slow.cycles_per_iter
                );
                assert_eq!(fast.uops, slow.uops, "machine={} asm={asm:?}", m.name);
            }
        }
    }

    #[test]
    fn fingerprint_separates_every_decision_input() {
        // Two instructions, two ports; iteration 1 is the oldest unretired
        // one and the dispatch cursor is at (2, 1). Port 0 queues instance
        // 2 (ready) and instance 3 (ready at 104), port 1 queues instance
        // 4 (producers pending). `skip` entries pass through port 0 first,
        // so the same queue can sit at different ring slots.
        let (n, np, now, retired, next) = (2, 2, 100, 1, (2, 1));
        let scratch = |skip: u32| {
            let mut uop_slot = vec![0u8; 8 + RING];
            let mut q0 = PortQueue::default();
            for k in 0..skip {
                q0.push(0, 8 + k, &mut uop_slot);
                q0.set_ready(uop_slot[8 + k as usize] as usize, 0, now);
                q0.pop_ready();
            }
            q0.push(2, 0, &mut uop_slot);
            q0.push(3, 1, &mut uop_slot);
            q0.set_ready(uop_slot[0] as usize, 95, now);
            q0.set_ready(uop_slot[1] as usize, 104, now);
            let mut q1 = PortQueue::default();
            q1.push(4, 2, &mut uop_slot);
            SimScratch {
                cursors: vec![0, 1],
                port_free_at: vec![90, 103],
                queues: vec![q0, q1],
                issue_at: vec![80, 99, u64::MAX, u64::MAX, u64::MAX, u64::MAX],
                out_wmax: vec![4, 4],
                ..SimScratch::default()
            }
        };
        let fp = |s: &mut SimScratch| {
            fingerprint_head(s, np, retired, next);
            fingerprint_rest(s, n, np, now, retired, next);
            s.fp.clone()
        };
        let base = scratch(0);
        let reference = fp(&mut base.clone());
        // The entry of instance 3 on port 0.
        let slot3 = |s: &SimScratch| (0..RING).find(|&i| s.queues[0].cell[i] == 3).unwrap();
        type Edit = (&'static str, bool, fn(&mut SimScratch));
        let edits: [Edit; 9] = [
            ("cursor", true, |s| s.cursors[0] = 1),
            ("port horizon", true, |s| s.port_free_at[1] = 104),
            ("queue order", true, |s| s.queues[0].cell.swap(0, 1)),
            ("queue length", true, |s| {
                s.queues[1].push(5, 3, &mut [0; 16]);
            }),
            ("readiness time", true, |s| {
                s.queues[0].ready_time[1] = 105;
            }),
            ("readiness unknown", true, |s| s.queues[0].future = 0),
            ("issue time", true, |s| s.issue_at[1] = 98),
            // Future-equivalent edits: a past horizon, a due readiness
            // time and a mature issue time read the same at every cycle.
            ("past horizon", false, |s| s.port_free_at[0] = 50),
            ("mature issue time", false, |s| s.issue_at[0] = 70),
        ];
        assert_eq!(slot3(&base), 1);
        for (what, differs, edit) in edits {
            let mut s = base.clone();
            edit(&mut s);
            assert_eq!(fp(&mut s) != reference, differs, "{what}");
        }
        // Instance 2 filed as due rather than ready, and the whole queue
        // shifted round the ring, read the same.
        let mut due = base.clone();
        due.queues[0].ready = 0;
        due.queues[0].future = 0b11;
        due.queues[0].ready_time[0] = 91;
        assert_eq!(fp(&mut due), reference, "due readiness");
        let mut rotated = scratch(RING as u32 - 1);
        assert_ne!(slot3(&rotated), 1);
        assert_eq!(fp(&mut rotated), reference, "rotated ring");
    }

    #[test]
    fn queue_renumbers_when_the_ring_wraps_onto_a_waiting_entry() {
        // Entry 0 waits (producers pending) and entry 1 waits for cycle 9
        // while RING more µ-ops pass through; the push that lands on
        // entry 0's slot renumbers the queue, keeping order and state.
        let now = 5;
        let mut uop_slot = vec![0u8; 2 * RING + 2];
        let mut q = PortQueue::default();
        q.push(100, 0, &mut uop_slot);
        q.push(101, 1, &mut uop_slot);
        q.set_ready(uop_slot[1] as usize, 9, now);
        for k in 2..RING as u32 + 2 {
            q.push(k, k, &mut uop_slot);
            q.set_ready(uop_slot[k as usize] as usize, now, now);
            assert_eq!(q.pop_ready(), k);
        }
        q.push(7, 2 * RING as u32, &mut uop_slot);
        assert_eq!(q.len, 3);
        let order: Vec<u32> = q.in_order(q.held).map(|i| q.cell[i]).collect();
        assert_eq!(order, [100, 101, 7]);
        assert_eq!(q.ready, 0);
        assert_eq!(q.next_ready, 9);
        assert_eq!(q.cell[uop_slot[0] as usize], 100);
        assert_eq!(q.cell[uop_slot[1] as usize], 101);
        q.promote(9);
        assert_eq!(q.pop_ready(), 101);
        q.set_ready(uop_slot[0] as usize, 9, 9);
        assert_eq!(q.pop_ready(), 100);
    }

    #[test]
    fn scratch_stays_bounded_across_runs() {
        // Every run leaves its samples behind; they must be dropped, not
        // accumulated, however many runs a thread makes. This block takes
        // many more cheap samples than full ones before it matches.
        let m = Machine::golden_cove();
        let k = parse_kernel(
            ".L0:\n vaddsd (%rsi,%rax,8), %xmm0, %xmm0\n vaddsd 8(%rsi,%rax,8), %xmm1, %xmm1\n vaddsd 16(%rsi,%rax,8), %xmm2, %xmm2\n vaddsd 24(%rsi,%rax,8), %xmm3, %xmm3\n addq $4, %rax\n cmpq %r8, %rax\n jne .L0\n",
            Isa::X86,
        )
        .unwrap();
        for _ in 0..8 {
            predict(&m, &k);
        }
        SCRATCH.with(|s| {
            let s = s.borrow();
            assert!(s.samples.len() <= SAMPLE_WINDOW, "{}", s.samples.len());
            let full = s.samples.iter().filter(|x| !x.full.is_empty()).count();
            assert!(full <= SAMPLE_BUDGET, "{full}");
        });
    }

    #[test]
    fn reference_baseline_matches_predict() {
        use uarch::Predictor;
        let m = Machine::golden_cove();
        let k = parse_kernel(
            ".L1:\n vaddpd %zmm0, %zmm1, %zmm2\n subq $1, %rax\n jne .L1\n",
            Isa::X86,
        )
        .unwrap();
        let b = McaReferenceBaseline;
        assert_eq!(b.name(), "mca");
        let pred = b.predict(&m, &k);
        assert_eq!(
            pred.cycles_per_iter.to_bits(),
            predict(&m, &k).cycles_per_iter.to_bits()
        );
    }
}
