//! Event-driven list-scheduling kernel.
//!
//! Every list scheduler in this repository — Graham scheduling of
//! independent tasks, DAG list scheduling, and the paper's RLS∆
//! (Algorithm 2) — shares one selection rule: among the *ready* tasks,
//! repeatedly schedule the one that can start the soonest on the least
//! loaded *admissible* processor, breaking approximate start-time ties by
//! a priority rank. The naive implementations rescan every unscheduled
//! task and every processor each round, which costs `O(n²·m)`; this
//! module computes the same schedules event-drivenly in
//! `O((n + E)·log n + n·log m)` when the admissibility predicate accepts
//! the least loaded processor (always true for plain Graham, and true
//! for RLS∆ except while a memory-saturated processor sits at the load
//! minimum). Rounds where it rejects probe the rejected runnable prefix
//! until a candidate reaches the round's lower bound on start keys,
//! degrading towards the naive cost in the worst case. They are not
//! rare: on the capped storage-heavy staged fronts at m = 16 they are
//! 67–78% of rounds (∆ = 3 down to 2.01), at about four admission
//! verdicts per round; see docs/PERFORMANCE.md. The structures:
//!
//! * a **ready-task structure** fed by predecessor-completion events
//!   (tasks enter when their last predecessor is scheduled) split into a
//!   rank-slot *runnable* bitmap and a ready-time keyed 4-ary *pending*
//!   heap. A task is runnable once its ready time is (approximately) at
//!   or below the **threshold** `max(wave floor, minimum load)`, a lower
//!   bound on every start key of the round, so among runnable tasks only
//!   the quantized priority slot orders them — one bit per task in a
//!   three-level hierarchical bitmap. When nothing is runnable (on
//!   stage-synchronous DAGs a whole stage waits on one join), **wave
//!   promotion** raises the floor to the earliest pending ready time and
//!   moves the tasks tying with it to the bitmap at once, so the stage
//!   is settled by rank instead of popped and re-probed every round;
//! * an **indexed 4-ary min-heap over processor loads** ([`ProcHeap`]) whose
//!   ordered traversal ([`ProcHeap::probe_with`]) finds the least loaded
//!   processor satisfying a pluggable **admissibility predicate**
//!   ([`Admission`]) — plain Graham ([`Unrestricted`]) and RLS∆'s
//!   `memsize[q] + s_i ≤ ∆·LB` filter ([`MemoryCapAdmission`]) are the
//!   same kernel with different predicates;
//! * **incremental Lemma-4 bookkeeping**: the processors skipped by the
//!   winning probe are exactly the "marked" processors of the paper's
//!   analysis, so marking costs `O(#skipped)` instead of a per-candidate
//!   `O(m)` sweep;
//! * **warm starts from the placement log** ([`ReplanRun`]): a recorded
//!   run keeps, per round, the task it placed and the smallest rejected
//!   admissibility value, plus each processor's first marked round. The
//!   state before any round `d` is a pure function of those records and
//!   the previous outcome, so a later run at a larger cap or over a
//!   mutated instance (one [`ReplanDelta`] either way) rebuilds it
//!   directly ([`EngineState::restore`]) and replays only from the
//!   first round whose verdicts can change — costing nothing when none
//!   does. This one mechanism is the warm-start backbone of both the
//!   incremental Pareto sweeps in `sws_core::pareto_sweep` and the
//!   replanning sessions in `sws_core::replan`.
//!
//! # Memory story (allocation-free steady state)
//!
//! Since the allocation rework the kernel is split along the memory
//! axis too:
//!
//! * the **instance** is borrowed as a flat [`sws_dag::CsrDag`] — CSR
//!   adjacency with `u32` indices in both directions plus
//!   structure-of-arrays `f64` cost vectors — built **once per
//!   instance** from its edge list and shared by every run over it
//!   (`DagInstance::shared_csr()`);
//! * every **per-run buffer** (the ready heaps, the processor-load
//!   heap, the completion/ready/placement arrays, the per-round scratch
//!   and the probe frontier) lives in a reusable [`KernelWorkspace`]
//!   whose initialization clears without freeing, so repeated runs
//!   through one workspace — a ∆-sweep chain, a batch of instances —
//!   allocate nothing in steady state beyond the returned
//!   [`KernelOutcome`] itself.
//!
//! [`event_driven_schedule_csr`] is the workspace-reuse entry point;
//! [`event_driven_schedule`] remains the one-shot convenience wrapper
//! (it builds the CSR form and a fresh workspace per call). Both produce
//! bit-identical schedules — `tests/differential_kernel.rs` enforces
//! this across every generator family × priority order × m, and a
//! proptest interleaves instances of different sizes through one
//! workspace to prove reuse cannot leak state between runs.
//!
//! Tie-breaking uses the same shared comparator
//! ([`sws_model::numeric::better_candidate`]) as the retained naive
//! oracles (`crate::naive`, `sws_core::rls::naive`), so kernel and naive
//! paths select identical tasks wherever the comparator's tolerance-based
//! tie relation is transitive — which the differential test-suite checks
//! schedule-for-schedule across every generator family. The one
//! intentional difference is that the kernel marks processors only for
//! the *selected* candidate's probe (the paper's semantics), while the
//! naive oracle conservatively marks while evaluating every candidate;
//! the kernel's marked set is therefore a subset of the oracle's and
//! still satisfies the Lemma 4 bound.

use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

use sws_dag::{CsrDag, DagInstance};
use sws_model::cancel::CancelProbe;
use sws_model::error::ModelError;
use sws_model::numeric::{approx_le, better_candidate, finite_ge, strictly_lt};
use sws_model::schedule::TimedSchedule;

use crate::priority::PriorityRank;

/// Heap key for a non-negative finite time value: the IEEE-754 bit
/// pattern, whose unsigned integer order coincides with the numeric
/// order on non-negative floats (`+ 0.0` normalizes a possible `-0.0`).
/// Every time the kernel keys a heap on — ready times, start times,
/// loads — is a sum/max of validated non-negative task data, so the
/// integer comparison is exact *and* cheaper than `f64` ordering in the
/// sift paths.
#[inline]
fn time_key(t: f64) -> u64 {
    debug_assert!(finite_ge(t, 0.0), "time keys are non-negative finite");
    (t + 0.0).to_bits()
}

/// Packs a `(rank, task)` pair into one `u64` whose integer order is the
/// lexicographic pair order — one comparison per heap sift level instead
/// of two.
#[inline]
fn rank_task(rank: u32, task: u32) -> u64 {
    ((rank as u64) << 32) | task as u64
}

/// Task index of a [`rank_task`] pack.
#[inline]
fn task_of(pack: u64) -> u32 {
    pack as u32
}

/// Indexed **4-ary** min-heap over processor loads, ordered by
/// `(load, processor index)` so ties resolve towards the lowest index —
/// the same tie-break as the naive `argmin` scans.
///
/// Loads only ever increase (a placement raises one processor's load to
/// the placed task's completion time), so the heap needs only
/// `sift_down`. The layout is structure-of-arrays: one contiguous `key`
/// stripe of packed `(load bits << 32) | processor` integers (loads are
/// non-negative, so the bit pattern orders like the value — see
/// [`time_key`] — and the pack makes every sift comparison a *single*
/// integer compare with the index tie-break built in), plus the `pos`
/// index and the `f64` `load` array serving only by-processor lookups.
/// The 4-ary fanout puts all children of a node in one 64-byte stripe
/// (4 × 16-byte keys), and the min-of-children is a branchless select
/// tournament on the integer keys, so the once-per-round `set_load`
/// sift touches `log₄ m` predictable cache lines instead of `log₂ m`
/// scattered ones.
#[derive(Debug)]
pub struct ProcHeap {
    /// `key[pos]` = `(load bits << 32) | processor id`, min-heap ordered
    /// with 4-ary fanout (children of `i` are `4i+1 ..= 4i+4`).
    key: Vec<u128>,
    /// `pos[q]` = position of processor `q` in `key`.
    pos: Vec<u32>,
    /// Current load of each processor (kept in sync with the packed
    /// keys; serves the by-processor `load()` lookups).
    load: Vec<f64>,
}

/// Packs `(load, processor)` into one integer whose unsigned order is
/// the lexicographic pair order.
#[inline]
fn proc_key(load: f64, q: u32) -> u128 {
    ((time_key(load) as u128) << 32) | q as u128
}

/// Processor id of a [`proc_key`] pack.
#[inline]
fn proc_of_key(k: u128) -> usize {
    k as u32 as usize
}

impl ProcHeap {
    /// A heap of `m` processors, all with zero load.
    pub fn new(m: usize) -> Self {
        let mut h = ProcHeap {
            key: Vec::new(),
            pos: Vec::new(),
            load: Vec::new(),
        };
        h.reset(m);
        h
    }

    /// An empty heap (no processors); [`ProcHeap::reset`] gives it a
    /// size. Used by workspaces that are constructed before the first
    /// instance is known.
    pub(crate) fn empty() -> Self {
        ProcHeap {
            key: Vec::new(),
            pos: Vec::new(),
            load: Vec::new(),
        }
    }

    /// Re-initializes to `m` processors of zero load, reusing the
    /// existing buffers (no allocation when the capacity suffices).
    pub fn reset(&mut self, m: usize) {
        assert!(m >= 1, "need at least one processor");
        assert!(m <= u32::MAX as usize, "processor ids fit in u32");
        self.key.clear();
        self.key.extend((0..m).map(|q| q as u128));
        self.pos.clear();
        self.pos.extend(0..m as u32);
        self.load.clear();
        self.load.resize(m, 0.0);
    }

    /// Re-initializes to `m` processors whose loads `fill` writes into
    /// the (zeroed) load array, then heapifies bottom-up in `O(m)`. The
    /// heap shape may differ from one built by [`ProcHeap::set_load`]
    /// calls, but nothing observable depends on it: [`ProcHeap::min`]
    /// reads the unique minimum key and [`ProcHeap::probe_with`] visits
    /// processors in key order.
    fn reset_with(&mut self, m: usize, fill: impl FnOnce(&mut [f64])) {
        self.reset(m);
        fill(&mut self.load);
        for (q, k) in self.key.iter_mut().enumerate() {
            *k = proc_key(self.load[q], q as u32);
        }
        for at in (0..=(m - 1) / 4).rev() {
            self.sift_down(at);
        }
    }

    /// Number of processors.
    #[inline]
    pub fn m(&self) -> usize {
        self.load.len()
    }

    /// The least loaded processor (lowest index among ties).
    #[inline]
    pub fn min(&self) -> usize {
        proc_of_key(self.key[0])
    }

    /// The minimum load itself (the load of [`ProcHeap::min`]).
    #[inline]
    pub fn min_load(&self) -> f64 {
        f64::from_bits((self.key[0] >> 32) as u64)
    }

    /// Load of processor `q`.
    #[inline]
    pub fn load(&self, q: usize) -> f64 {
        self.load[q]
    }

    /// All loads, indexed by processor.
    #[inline]
    pub fn loads(&self) -> &[f64] {
        &self.load
    }

    // sws-lint: hot-path
    /// Raises the load of processor `q` (placements never lower a load).
    pub fn set_load(&mut self, q: usize, new_load: f64) {
        debug_assert!(
            new_load >= self.load[q],
            "loads are monotone non-decreasing"
        );
        self.load[q] = new_load;
        let at = self.pos[q] as usize;
        self.key[at] = proc_key(new_load, q as u32);
        self.sift_down(at);
    }

    /// Position of the smallest child of the (full, 4-child) node whose
    /// first child sits at `first`: a branchless select tournament — two
    /// leaf minima, then their minimum — with no data-dependent branch
    /// for the integer comparator to mispredict.
    #[inline]
    fn min_child4(&self, first: usize) -> usize {
        let a = if self.key[first + 1] < self.key[first] {
            first + 1
        } else {
            first
        };
        let b = if self.key[first + 3] < self.key[first + 2] {
            first + 3
        } else {
            first + 2
        };
        if self.key[b] < self.key[a] {
            b
        } else {
            a
        }
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let first = 4 * at + 1;
            if first >= self.key.len() {
                return;
            }
            // Full nodes (the common case on every non-last level) take
            // the branchless tournament; the at-most-one ragged node at
            // the end falls back to a short scan.
            let best = if first + 4 <= self.key.len() {
                self.min_child4(first)
            } else {
                let mut b = first;
                for c in first + 1..self.key.len() {
                    if self.key[c] < self.key[b] {
                        b = c;
                    }
                }
                b
            };
            if self.key[at] <= self.key[best] {
                return;
            }
            self.key.swap(at, best);
            self.pos[proc_of_key(self.key[at])] = at as u32;
            self.pos[proc_of_key(self.key[best])] = best as u32;
            at = best;
        }
    }
    // sws-lint: end-hot-path

    // sws-lint: hot-path
    /// Visits processors in increasing `(load, index)` order until `admit`
    /// accepts one and returns it; `None` when every processor is
    /// rejected. The processors skipped on the way (all rejected, all
    /// with a key no larger than the accepted one) are **appended** to
    /// `skipped` (the caller records the starting length), and the
    /// traversal frontier lives in `frontier` (cleared on entry), so the
    /// hot loop reuses two workspace buffers instead of allocating two
    /// vectors per probe.
    ///
    /// The traversal expands the heap lazily, so accepting the first
    /// probe — every uncapped probe — costs `O(1)`. The visit
    /// order depends only on the key order, not the heap shape, so the
    /// 4-ary layout reports the same skipped sets as the old binary one.
    pub fn probe_with<F: FnMut(usize) -> bool>(
        &self,
        mut admit: F,
        frontier: &mut Vec<usize>,
        skipped: &mut Vec<usize>,
    ) -> Option<usize> {
        // Frontier of heap positions whose parents were all visited; the
        // next processor in sorted order is always the frontier minimum.
        // Linear scans are fine: the frontier holds ≤ 4·skips + 1 entries,
        // and skips are zero in the unrestricted use. In the RLS∆ use a
        // skip needs a memory-saturated processor below the chosen one's
        // load; unlike marking, skips recur across rounds — on capped
        // staged DAGs most rounds skip a few processors — but each costs
        // only the probe that discovers it.
        frontier.clear();
        frontier.push(0);
        while !frontier.is_empty() {
            let mut best = 0;
            for fi in 1..frontier.len() {
                if self.key[frontier[fi]] < self.key[frontier[best]] {
                    best = fi;
                }
            }
            let pos = frontier.swap_remove(best);
            let q = proc_of_key(self.key[pos]);
            if admit(q) {
                return Some(q);
            }
            skipped.push(q);
            let first = 4 * pos + 1;
            for child in first..(first + 4).min(self.key.len()) {
                frontier.push(child);
            }
        }
        None
    }
    // sws-lint: end-hot-path
}

/// Packs a pending-heap entry: ready time above, `(rank, task)` pack
/// below, so unsigned `u128` order is the lexicographic
/// `(ready, rank, task)` order — the exact pop order of the old
/// `BinaryHeap<Reverse<(u64, u64)>>`, in a single compare per sift
/// level.
#[inline]
fn pend_key(ready: f64, pack: u64) -> u128 {
    ((time_key(ready) as u128) << 64) | pack as u128
}

/// Ready time of a [`pend_key`] entry.
#[inline]
fn pend_ready(k: u128) -> f64 {
    f64::from_bits((k >> 64) as u64)
}

/// `(rank, task)` pack of a [`pend_key`] entry.
#[inline]
fn pend_pack(k: u128) -> u64 {
    k as u64
}

/// 4-ary implicit min-heap of [`pend_key`] entries — the *pending* side
/// of the ready structure (tasks whose ready time still exceeds the
/// minimum load). Entries are unique (the pack carries the task id), so
/// the pop sequence is determined by the key order alone and swapping
/// the binary `std` heap for this layout changes nothing observable;
/// what changes is the constant: half the levels, one integer compare
/// per level, and all four children of a node in two adjacent cache
/// lines.
#[derive(Debug, Default)]
struct PendingHeap {
    heap: Vec<u128>,
}

impl PendingHeap {
    fn clear(&mut self) {
        self.heap.clear();
    }

    fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    // sws-lint: hot-path
    #[inline]
    fn peek(&self) -> Option<u128> {
        self.heap.first().copied()
    }

    fn push(&mut self, k: u128) {
        self.heap.push(k);
        // Sift up, hole-style: the new key is moved once, parents slide
        // down past it.
        let mut at = self.heap.len() - 1;
        while at > 0 {
            let parent = (at - 1) / 4;
            if self.heap[parent] <= k {
                break;
            }
            self.heap[at] = self.heap[parent];
            at = parent;
        }
        self.heap[at] = k;
    }

    fn pop(&mut self) -> Option<u128> {
        let top = self.heap.first().copied()?;
        let last = self.heap.pop().expect("non-empty: peeked above");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_down(&mut self, mut at: usize) {
        loop {
            let first = 4 * at + 1;
            if first >= self.heap.len() {
                return;
            }
            let best = if first + 4 <= self.heap.len() {
                // Branchless select tournament over the full 4-child
                // stripe (see [`ProcHeap::min_child4`]).
                let a = if self.heap[first + 1] < self.heap[first] {
                    first + 1
                } else {
                    first
                };
                let b = if self.heap[first + 3] < self.heap[first + 2] {
                    first + 3
                } else {
                    first + 2
                };
                if self.heap[b] < self.heap[a] {
                    b
                } else {
                    a
                }
            } else {
                let mut b = first;
                for c in first + 1..self.heap.len() {
                    if self.heap[c] < self.heap[b] {
                        b = c;
                    }
                }
                b
            };
            if self.heap[at] <= self.heap[best] {
                return;
            }
            self.heap.swap(at, best);
            at = best;
        }
    }
    // sws-lint: end-hot-path
}

/// Hierarchical bitmap over priority *slots* — the *runnable* side of
/// the ready structure, and the payoff of quantizing the ready-queue
/// keys all the way down: once a task's key is its dense rank in the
/// canonical `(rank, task)` order, the "heap" holding runnable tasks
/// collapses to one bit per slot. Three `u64` levels (each summarizing
/// 64 words of the one below) give `O(1)` insert, remove and find-min —
/// a handful of L1 lines for `n = 10⁴` (≈1.3 KB) where the old binary
/// heap sifted 8-byte packs across `log₂ n ≈ 13` scattered lines.
#[derive(Debug, Default)]
struct RankBitmap {
    /// Bit `s` of `l0[s / 64]` = slot `s` present.
    l0: Vec<u64>,
    /// Bit `w` of `l1[w / 64]` = word `l0[w]` non-zero.
    l1: Vec<u64>,
    /// Bit `w` of `l2[w / 64]` = word `l1[w]` non-zero.
    l2: Vec<u64>,
}

/// Words needed to hold `n` bits.
#[inline]
fn bitmap_words(n: usize) -> usize {
    n.div_ceil(64)
}

impl RankBitmap {
    /// Clears and re-sizes for slots `0..n`, reusing the buffers.
    fn reset(&mut self, n: usize) {
        let w0 = bitmap_words(n);
        let w1 = bitmap_words(w0);
        let w2 = bitmap_words(w1);
        self.l0.clear();
        self.l0.resize(w0, 0);
        self.l1.clear();
        self.l1.resize(w1, 0);
        self.l2.clear();
        self.l2.resize(w2, 0);
    }

    fn reserve(&mut self, n: usize) {
        self.l0.reserve(bitmap_words(n));
    }

    // sws-lint: hot-path
    /// Marks slot `s` present. Unconditional ORs on all three levels —
    /// no branches, three L1 lines.
    #[inline]
    fn insert(&mut self, s: u32) {
        let s = s as usize;
        let w0 = s >> 6;
        let w1 = w0 >> 6;
        self.l0[w0] |= 1 << (s & 63);
        self.l1[w1] |= 1 << (w0 & 63);
        self.l2[w1 >> 6] |= 1 << (w1 & 63);
    }

    /// Clears slot `s`; summary bits clear only when a word empties.
    #[inline]
    fn remove(&mut self, s: u32) {
        let s = s as usize;
        let w0 = s >> 6;
        self.l0[w0] &= !(1 << (s & 63));
        if self.l0[w0] == 0 {
            let w1 = w0 >> 6;
            self.l1[w1] &= !(1 << (w0 & 63));
            if self.l1[w1] == 0 {
                self.l2[w1 >> 6] &= !(1 << (w1 & 63));
            }
        }
    }

    /// The smallest present slot: first set bit, found by descending the
    /// summary levels (the top level is a single word up to
    /// `n = 64³ = 262 144`; larger instances scan it linearly).
    #[inline]
    fn min(&self) -> Option<u32> {
        let w2i = self.l2.iter().position(|&w| w != 0)?;
        let w1i = (w2i << 6) | self.l2[w2i].trailing_zeros() as usize;
        let w0i = (w1i << 6) | self.l1[w1i].trailing_zeros() as usize;
        Some(((w0i << 6) | self.l0[w0i].trailing_zeros() as usize) as u32)
    }

    /// Pops the smallest present slot.
    #[inline]
    fn pop_min(&mut self) -> Option<u32> {
        let s = self.min()?;
        self.remove(s);
        Some(s)
    }
    // sws-lint: end-hot-path
}

/// Pluggable admissibility predicate deciding which processors may
/// receive a task.
pub trait Admission {
    /// May a task with storage requirement `s` be placed on processor `q`?
    fn admits(&self, q: usize, s: f64) -> bool;

    /// Records the placement of a task with storage requirement `s` on
    /// processor `q`.
    fn commit(&mut self, q: usize, s: f64);

    /// The error reported when no processor admits a task with storage
    /// requirement `s`.
    fn rejection_error(&self, s: f64) -> ModelError {
        ModelError::MemoryExceeded {
            proc: 0,
            used: s,
            capacity: f64::INFINITY,
        }
    }
}

/// Plain Graham list scheduling: every processor is always admissible.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unrestricted;

impl Admission for Unrestricted {
    #[inline]
    fn admits(&self, _q: usize, _s: f64) -> bool {
        true
    }

    #[inline]
    fn commit(&mut self, _q: usize, _s: f64) {}
}

/// RLS∆'s restriction: processor `q` admits a task of storage `s` iff
/// `memsize[q] + s ≤ cap` (with the shared tolerance), where
/// `cap = ∆·LB`.
#[derive(Debug, Clone)]
pub struct MemoryCapAdmission {
    memsize: Vec<f64>,
    cap: f64,
}

impl MemoryCapAdmission {
    /// A fresh restriction over `m` processors with memory cap `cap`.
    pub fn new(m: usize, cap: f64) -> Self {
        MemoryCapAdmission {
            memsize: vec![0.0; m],
            cap,
        }
    }

    /// Re-initializes for a new run over `m` processors with cap `cap`,
    /// reusing the committed-memory buffer (no allocation when the
    /// capacity suffices) — the per-run reset of the batch and sweep
    /// serving paths.
    pub fn reset(&mut self, m: usize, cap: f64) {
        self.memsize.clear();
        self.memsize.resize(m, 0.0);
        self.cap = cap;
    }

    /// Per-processor memory committed so far.
    pub fn memsize(&self) -> &[f64] {
        &self.memsize
    }

    /// The enforced cap `∆·LB`.
    pub fn cap(&self) -> f64 {
        self.cap
    }
}

impl Admission for MemoryCapAdmission {
    #[inline]
    fn admits(&self, q: usize, s: f64) -> bool {
        approx_le(self.memsize[q] + s, self.cap)
    }

    #[inline]
    fn commit(&mut self, q: usize, s: f64) {
        self.memsize[q] += s;
    }

    fn rejection_error(&self, s: f64) -> ModelError {
        ModelError::MemoryExceeded {
            proc: 0,
            used: self.memsize.iter().cloned().fold(0.0, f64::max) + s,
            capacity: self.cap,
        }
    }
}

/// The kernel's output: the schedule plus the Lemma-4 "marked processor"
/// bookkeeping (processors skipped by a winning probe while strictly less
/// loaded than the chosen processor).
#[derive(Debug, Clone)]
pub struct KernelOutcome {
    /// The produced schedule `(π, σ)`.
    pub schedule: TimedSchedule,
    /// Which processors were marked during the run.
    pub marked: Vec<bool>,
}

/// One selection candidate of the current round. Skipped processors are
/// recorded as a range into the round's shared `ProbeScratch::skipped`
/// buffer rather than a per-candidate vector.
#[derive(Debug, Clone)]
struct Candidate {
    /// Earliest start `max(ready time, load of chosen processor)`.
    key: f64,
    /// Tie-break rank.
    rank: u32,
    /// Task index.
    task: u32,
    /// Chosen processor.
    proc: u32,
    /// Processors skipped by the probe (inadmissible, no more loaded),
    /// as a range into the round's shared skipped buffer.
    skipped: Range<u32>,
}

/// Selection buffers of a *contested* round (more than one candidate in
/// play): the popped ready entries that may need restoring and the
/// candidate list the comparator folds over.
#[derive(Debug, Default)]
struct SelectScratch {
    /// Runnable tasks popped this round, `(slot, task)`.
    popped_runnable: Vec<(u32, u32)>,
    /// Pending entries popped this round (their full keys, so losers are
    /// re-pushed bit-exactly).
    popped_pending: Vec<u128>,
    /// Selection candidates of the round.
    cands: Vec<Candidate>,
}

/// Probe buffers, touched only when an *inadmissible* processor sits at
/// the load minimum (memory-capped runs only, where it is common on
/// storage-heavy staged DAGs).
#[derive(Debug, Default)]
struct ProbeScratch {
    /// Probe traversal frontier ([`ProcHeap::probe_with`]).
    frontier: Vec<usize>,
    /// Processors skipped by this round's probes, shared across
    /// candidates (each candidate holds a range).
    skipped: Vec<usize>,
}

/// Per-round scratch of the scheduling loop: logically dead between
/// rounds (so no restore rebuilds it), and owned by the
/// [`KernelWorkspace`] so its allocations are reused across rounds *and*
/// across runs.
///
/// The layout is split along the round-shape axis: the uncontested fast
/// path (one admissible top candidate, no competition — every round of
/// an uncapped run on the measured workloads) touches only the leading `newly_ready`
/// buffer header, one cache line; the contested-round selection buffers
/// and, behind those, the probe buffers only reachable through an
/// inadmissible load minimum, sit in separate structs so the fast path
/// never pulls their lines.
#[derive(Debug, Default)]
struct StepScratch {
    /// Batched-frontier staging of [`EngineState::place`]: tasks whose
    /// last predecessor the current placement was. The only scratch the
    /// fast path touches.
    newly_ready: Vec<u32>,
    /// Contested rounds only.
    sel: SelectScratch,
    /// Contested rounds with inadmissible load minima only.
    probe: ProbeScratch,
}

impl StepScratch {
    fn clear(&mut self) {
        self.newly_ready.clear();
        self.sel.popped_runnable.clear();
        self.sel.popped_pending.clear();
        self.sel.cands.clear();
        self.probe.frontier.clear();
        self.probe.skipped.clear();
    }
}

/// Per-task readiness bookkeeping, fused so a successor update touches
/// one cache line instead of two parallel arrays.
#[derive(Debug, Clone, Copy, Default)]
struct PredState {
    /// Maximum completion time over scheduled predecessors, maintained
    /// incrementally as predecessors are placed.
    ready: f64,
    /// Predecessors not yet scheduled.
    remaining: u32,
}

/// Resumable mid-run state of the event-driven scheduler: the ready
/// structures, the indexed processor-load heap, the incremental Lemma-4
/// marked-processor bookkeeping, and the partial schedule built so far.
///
/// The scheduling loop is fully deterministic given a state and an
/// admissibility predicate, and the state before a round is a pure
/// function of the placements made so far — the property warm starts
/// are built on: [`EngineState::restore`] rebuilds it from a recorded
/// run's [`RunLog`], and replaying with the same verdicts reproduces
/// the recorded run bit for bit.
///
/// Task and rank indices are stored as `u32` (the CSR layer guarantees
/// `n < u32::MAX`), which halves the ready structures' memory traffic.
///
/// # Slots
///
/// The runnable structure is a [`RankBitmap`] indexed by **slot**: the
/// task's position in the canonical ascending `(rank, task)` order —
/// exactly the pop order of the [`rank_task`]-packed heap it replaces.
/// When the priority rank is a permutation of `0..n` (every built-in
/// constructor), `slot == rank` and the slot tables are a copy and a
/// scatter; degenerate ranks (duplicates, `u32::MAX` sentinels) fall
/// back to sorting the packs once per run. Either way the bitmap pops
/// tasks in the identical sequence, so schedules are bit-identical.
#[derive(Debug)]
pub struct EngineState {
    procs: ProcHeap,
    /// `mark_round[q]`: the first round that marked processor `q`
    /// (`u32::MAX` while unmarked) — the Lemma-4 marks, kept with their
    /// round so a restore can tell which ones a prefix made.
    mark_round: Vec<u32>,
    /// Readiness of every task (incremental predecessor bookkeeping).
    preds: Vec<PredState>,
    proc_of: Vec<u32>,
    start: Vec<f64>,
    /// Ready tasks whose ready time exceeds the current minimum load,
    /// keyed by the packed `(ready, rank, task)` [`pend_key`].
    pending: PendingHeap,
    /// Ready tasks whose ready time is (approximately) at or below the
    /// minimum load — their earliest start is the minimum load itself, so
    /// only the `(rank, task)` order ranks them: one bit per slot.
    runnable: RankBitmap,
    /// `slot_of_task[i]` = position of task `i` in the canonical
    /// `(rank, task)` order (run-constant after `init`).
    slot_of_task: Vec<u32>,
    /// Inverse of `slot_of_task` (run-constant after `init`).
    task_of_slot: Vec<u32>,
    /// The **wave floor**: the ready time of the last wave promoted into
    /// `runnable` (0 before any). Every ready task's ready time is at
    /// least the floor, so `max(floor, min load)` — the run's
    /// [threshold](EngineState::threshold) — lower-bounds every start
    /// key of the round.
    floor: f64,
    /// Number of placements made so far.
    round: usize,
}

/// Sets `v`'s length to `n` without zeroing a reused prefix: every
/// element is overwritten before it is read (placement arrays are
/// written when their task is placed, and read only after all `n`
/// rounds), so carrying stale values from the previous run is safe and
/// saves the O(n) clear on every warm re-init.
fn resize_for_overwrite<T: Copy>(v: &mut Vec<T>, n: usize, fill: T) {
    if v.len() >= n {
        v.truncate(n);
    } else {
        v.resize(n, fill);
    }
}

impl EngineState {
    /// A state with no buffers; [`EngineState::init`] sizes it for an
    /// instance.
    fn empty() -> Self {
        EngineState {
            procs: ProcHeap::empty(),
            mark_round: Vec::new(),
            preds: Vec::new(),
            proc_of: Vec::new(),
            start: Vec::new(),
            pending: PendingHeap::default(),
            runnable: RankBitmap::default(),
            slot_of_task: Vec::new(),
            task_of_slot: Vec::new(),
            floor: 0.0,
            round: 0,
        }
    }

    /// `max(floor, min load)`: ready tasks at (approximately) or below it
    /// are runnable, the rest pending. It never decreases — loads only
    /// grow, and a promotion raises the floor past it — so a task that
    /// turns runnable stays runnable.
    #[inline]
    fn threshold(&self) -> f64 {
        self.floor.max(self.procs.min_load())
    }

    /// Builds the slot tables for this run's priority rank (see the
    /// [`EngineState`] slot docs): `slot_of_task` is the rank itself
    /// when the rank is a permutation of `0..n`, detected in one scatter
    /// pass; otherwise the `(rank, task)` packs are sorted once.
    fn build_slots(&mut self, rank: &PriorityRank, n: usize) {
        resize_for_overwrite(&mut self.slot_of_task, n, 0);
        resize_for_overwrite(&mut self.task_of_slot, n, 0);
        // Scatter the inverse, using u32::MAX as the "slot still free"
        // marker (task ids are < n < u32::MAX, so the marker is safe).
        self.task_of_slot.iter_mut().for_each(|t| *t = u32::MAX);
        let mut is_permutation = true;
        for (i, &r) in rank.iter().enumerate() {
            if (r as usize) < n && self.task_of_slot[r as usize] == u32::MAX {
                self.task_of_slot[r as usize] = i as u32;
            } else {
                is_permutation = false;
                break;
            }
        }
        if is_permutation {
            self.slot_of_task.copy_from_slice(rank);
            return;
        }
        // Degenerate rank (duplicates or out-of-range sentinels): sort
        // the packs to materialize the canonical order. Cold per-run
        // cost on a path no built-in priority constructor takes.
        let mut packs: Vec<u64> = (0..n).map(|i| rank_task(rank[i], i as u32)).collect();
        packs.sort_unstable();
        for (slot, &pk) in packs.iter().enumerate() {
            self.task_of_slot[slot] = task_of(pk);
            self.slot_of_task[task_of(pk) as usize] = slot as u32;
        }
    }

    /// Re-initializes for a run over `csr` on `m` processors, reusing
    /// every buffer: no placements yet, all source tasks ready at 0.
    /// The pending heap is reserved to `n` up front, so the cold first
    /// run grows its buffers exactly once and behaves like the reuse
    /// path afterwards.
    fn init(&mut self, csr: &CsrDag, m: usize, rank: &PriorityRank) {
        let n = csr.n();
        assert_eq!(rank.len(), n, "priority rank must cover every task");
        self.procs.reset(m);
        self.mark_round.clear();
        self.mark_round.resize(m, u32::MAX);
        self.preds.clear();
        self.preds.extend((0..n).map(|i| PredState {
            ready: 0.0,
            remaining: csr.in_degree(i) as u32,
        }));
        resize_for_overwrite(&mut self.proc_of, n, 0);
        resize_for_overwrite(&mut self.start, n, 0.0);
        self.pending.clear();
        self.pending.reserve(n);
        self.build_slots(rank, n);
        self.runnable.reset(n);
        // Source tasks are ready at 0 = the initial minimum load, so the
        // first round's migration would move every one of them to the
        // runnable structure; set their bits directly (equivalent, no
        // pending round trip).
        for (i, ps) in self.preds.iter().enumerate() {
            if ps.remaining == 0 {
                self.runnable.insert(self.slot_of_task[i]);
            }
        }
        self.floor = 0.0;
        self.round = 0;
    }

    /// Rebuilds, in place, the exact state a run over `csr` under `rank`
    /// reaches before round `d`, given the log of an earlier run whose
    /// first `d` rounds it shares (same placements, starts and marks).
    /// `csr` may hold arrivals past the logged tasks; `rank` must agree
    /// with the logged rank on the logged tasks.
    ///
    /// The cost is the in-degree of the unplaced tasks plus sequential
    /// passes — no walk over the prefix's edges:
    ///
    /// * slot tables: rebuilt from `rank`, as a cold run builds them;
    /// * placement arrays: the logged outcome verbatim (entries of tasks
    ///   placed from round `d` on are overwritten before they are read);
    /// * loads: each processor's last placement before `d` (a backward
    ///   walk over the log), with the heap rebuilt from them;
    /// * marks: those whose first marked round precedes `d`;
    /// * wave floor: that of the last promotion before `d`;
    /// * readiness: recomputed for the unplaced tasks only — the log's
    ///   suffix plus arrivals — from their predecessor lists; a placed
    ///   task's [`PredState`] is never read again;
    /// * ready structures: the canonical split, runnable iff
    ///   `approx_le(ready, max(floor, min_load))`, else pending. A run in
    ///   progress may still hold such a task in the pending heap, but the
    ///   next round's migration moves it before either structure is
    ///   read, and the pending pop order depends only on the key set.
    ///
    /// A capped run's committed memory is admission state, not engine
    /// state: [`RunLog::memsize_before`] rebuilds it.
    fn restore(&mut self, csr: &CsrDag, m: usize, rank: &PriorityRank, log: &RunLog, d: usize) {
        let n = csr.n();
        let n_old = log.n();
        assert_eq!(rank.len(), n, "priority rank must cover every task");
        assert!(d <= n_old && n_old <= n, "restore round outside the log");
        debug_assert_eq!(rank[..n_old], log.rank[..]);
        self.build_slots(rank, n);
        let sched = &log.outcome.schedule;
        self.proc_of.clear();
        self.proc_of
            .extend((0..n_old).map(|i| sched.proc_of(i) as u32));
        resize_for_overwrite(&mut self.proc_of, n, 0);
        self.start.clear();
        self.start.extend((0..n_old).map(|i| sched.start(i)));
        resize_for_overwrite(&mut self.start, n, 0.0);

        let (prefix, proc_of, start) = (&log.rounds.placed[..d], &self.proc_of, &self.start);
        self.procs.reset_with(m, |load| {
            // NaN marks "no placement seen yet" (loads never are NaN).
            load.fill(f64::NAN);
            let mut unseen = m;
            for &t in prefix.iter().rev() {
                let t = t as usize;
                let q = proc_of[t] as usize;
                if load[q].is_nan() {
                    load[q] = start[t] + csr.p(t);
                    unseen -= 1;
                    if unseen == 0 {
                        break;
                    }
                }
            }
            load.iter_mut()
                .filter(|l| l.is_nan())
                .for_each(|l| *l = 0.0);
        });
        self.mark_round.clone_from(&log.mark_round);
        for r in self.mark_round.iter_mut().filter(|r| **r as usize >= d) {
            *r = u32::MAX;
        }

        self.floor = log.rounds.floor_before(d);

        resize_for_overwrite(&mut self.preds, n, PredState::default());
        self.pending.clear();
        self.runnable.reset(n);
        let theta = self.threshold();
        for v in log.rounds.placed[d..]
            .iter()
            .map(|&t| t as usize)
            .chain(n_old..n)
        {
            let mut ready = 0.0f64;
            let mut remaining = 0u32;
            for &u in csr.preds(v) {
                let u = u as usize;
                if log.place_round.get(u).is_some_and(|&r| (r as usize) < d) {
                    ready = ready.max(self.start[u] + csr.p(u));
                } else {
                    remaining += 1;
                }
            }
            self.preds[v] = PredState { ready, remaining };
            if remaining == 0 {
                if approx_le(ready, theta) {
                    self.runnable.insert(self.slot_of_task[v]);
                } else {
                    self.pending
                        .push(pend_key(ready, rank_task(rank[v], v as u32)));
                }
            }
        }
        self.round = d;
    }

    // sws-lint: hot-path
    /// Moves every pending task whose ready time is (approximately) at
    /// or below `theta` to the runnable bitmap. Forced inline: out of
    /// line (with the heap pop it calls) it cost the all-fast-path
    /// uncapped rounds up to 15% in the kernel bench.
    #[inline(always)]
    fn migrate(&mut self, theta: f64, ctr: &mut KernelCounters) {
        while let Some(k) = self.pending.peek() {
            if !approx_le(pend_ready(k), theta) {
                break;
            }
            self.pending.pop();
            ctr.pending_pops += 1;
            self.runnable
                .insert(self.slot_of_task[task_of(pend_pack(k)) as usize]);
        }
    }

    /// Executes one placement round, reporting the winning task and its
    /// start key (the replay machinery records them per round; plain
    /// runs discard them). Precondition: `rounds_done() < n`.
    fn step<A: Admission>(
        &mut self,
        csr: &CsrDag,
        rank: &PriorityRank,
        admission: &mut A,
        scratch: &mut StepScratch,
        ctr: &mut KernelCounters,
    ) -> Result<(u32, f64), ModelError> {
        ctr.rounds += 1;
        let q1 = self.procs.min();
        let l1 = self.procs.min_load();

        // Migration: the threshold never decreases, so once a ready time
        // is (approximately) at or below it the task is runnable forever.
        let mut theta = self.floor.max(l1);
        self.migrate(theta, ctr);

        // Wave promotion: with nothing runnable, every ready time exceeds
        // the threshold — on stage-synchronous DAGs a whole stage waits
        // on one join time. The earliest pending ready time `T₀` becomes
        // the floor, lower-bounding every start key this round and
        // later, and the entries tying with it turn runnable: the scans
        // below then settle the wave by rank instead of popping and
        // re-probing all of it every round.
        let mut top = self.runnable.min();
        if top.is_none() {
            let k = self
                .pending
                .peek()
                .expect("an acyclic graph always has a ready task while tasks remain");
            self.floor = pend_ready(k);
            theta = self.floor;
            ctr.promotions += 1;
            self.migrate(theta, ctr);
            top = self.runnable.min();
        }

        // Fast check for the dominant round shape: the best-ranked
        // runnable task is admissible on the least loaded processor and
        // no pending task's ready time reaches its start key, so the
        // full scan below would produce exactly this single candidate
        // (and the winning probe skips no processors). Equivalent by
        // construction — the runnable scan would stop at this task,
        // and the pending scan's entry condition is the one tested here.
        // When a pending task *does* compete, the admissible top is
        // handed to the general path as its first candidate (the scan
        // below would stop there anyway).
        let mut admissible_top: Option<(u32, u32, f64)> = None;
        if let Some(slot) = top {
            let i = self.task_of_slot[slot as usize];
            let s_i = csr.s(i as usize);
            ctr.probes += 1;
            if admission.admits(q1, s_i) {
                let key = self.preds[i as usize].ready.max(l1);
                // A key at or below the threshold needs no re-check: the
                // migration above established that no pending ready time
                // reaches the threshold (tolerantly).
                let contested = match self.pending.peek() {
                    Some(k) => key > theta && approx_le(pend_ready(k), key),
                    None => false,
                };
                ctr.runnable_pops += 1;
                if !contested {
                    ctr.fast_rounds += 1;
                    self.runnable.remove(slot);
                    self.place(csr, rank, admission, i as usize, q1, key, scratch);
                    return Ok((i, key));
                }
                admissible_top = Some((slot, i, key));
            }
        }

        scratch.sel.cands.clear();
        scratch.sel.popped_runnable.clear();
        scratch.sel.popped_pending.clear();
        scratch.probe.skipped.clear();

        // Runnable scan: in slot (= rank, task) order, stop at the first
        // candidate whose start key is (approximately) at or below the
        // threshold. Every ready time is at least the floor and every
        // load at least the minimum load, so no start key beats the
        // threshold, and no later-slot runnable task can beat that
        // candidate (its key is no smaller, its rank no smaller or
        // index-tied). A task admissible on the least loaded processor
        // always stops the scan; earlier-slot tasks stay candidates with
        // their own probe.
        if let Some((slot, i, key)) = admissible_top {
            // The scan would pop exactly this task and stop.
            self.runnable.remove(slot);
            scratch.sel.popped_runnable.push((slot, i));
            scratch.sel.cands.push(Candidate {
                key,
                rank: rank[i as usize],
                task: i,
                proc: q1 as u32,
                skipped: 0..0,
            });
        } else {
            while let Some(slot) = self.runnable.pop_min() {
                ctr.runnable_pops += 1;
                let i = self.task_of_slot[slot as usize];
                scratch.sel.popped_runnable.push((slot, i));
                let key = self.push_candidate(csr, rank, admission, scratch, ctr, i)?;
                if approx_le(key, theta) {
                    break;
                }
            }
        }

        // Pending scan: a pending task can only win while its ready time
        // is approximately at or below the best candidate key (its start
        // is at least its ready time).
        let mut best_key = scratch
            .sel
            .cands
            .iter()
            .map(|c| c.key)
            .fold(f64::INFINITY, f64::min);
        while let Some(k) = self.pending.peek() {
            if !approx_le(pend_ready(k), best_key) {
                break;
            }
            self.pending.pop();
            ctr.pending_pops += 1;
            scratch.sel.popped_pending.push(k);
            let key =
                self.push_candidate(csr, rank, admission, scratch, ctr, task_of(pend_pack(k)))?;
            best_key = best_key.min(key);
        }

        // Selection: fold with the shared comparator in task-index order,
        // mirroring the naive oracle's scan. A single candidate — the
        // common case — wins outright.
        assert!(
            !scratch.sel.cands.is_empty(),
            "an acyclic graph always has a ready task while tasks remain"
        );
        let winner = if scratch.sel.cands.len() == 1 {
            scratch.sel.cands.pop().expect("len checked above")
        } else {
            scratch.sel.cands.sort_unstable_by_key(|c| c.task);
            let mut w = 0;
            for ci in 1..scratch.sel.cands.len() {
                if better_candidate(
                    scratch.sel.cands[ci].key,
                    scratch.sel.cands[ci].rank as usize,
                    scratch.sel.cands[w].key,
                    scratch.sel.cands[w].rank as usize,
                ) {
                    w = ci;
                }
            }
            scratch.sel.cands.swap_remove(w)
        };

        // Restore the candidates that lost.
        for pi in 0..scratch.sel.popped_runnable.len() {
            let (slot, i) = scratch.sel.popped_runnable[pi];
            if i != winner.task {
                self.runnable.insert(slot);
            }
        }
        for pi in 0..scratch.sel.popped_pending.len() {
            let k = scratch.sel.popped_pending[pi];
            if task_of(pend_pack(k)) != winner.task {
                self.pending.push(k);
            }
        }

        // Lemma-4 bookkeeping: the winning probe skipped exactly the
        // processors that were less loaded than the chosen one but
        // inadmissible ("marked" in the paper's analysis). Skipped
        // processors with a load equal to the chosen one are not marked,
        // matching the naive oracle's strict comparison.
        let i = winner.task as usize;
        let j = winner.proc as usize;
        let chosen_load = self.procs.load(j);
        for &q in &scratch.probe.skipped[winner.skipped.start as usize..winner.skipped.end as usize]
        {
            if self.procs.load(q) < chosen_load {
                self.mark_round[q] = self.mark_round[q].min(self.round as u32);
            }
        }

        let key = winner.key;
        self.place(csr, rank, admission, i, j, key, scratch);
        Ok((i as u32, key))
    }

    /// Probes task `i` over the processors in load order and appends its
    /// candidate — the least loaded admissible processor and the start
    /// key there — to the round's list, returning the key. Every
    /// verdict the probe consults goes through `admission`, so recording
    /// predicates see all of them.
    fn push_candidate<A: Admission>(
        &self,
        csr: &CsrDag,
        rank: &PriorityRank,
        admission: &A,
        scratch: &mut StepScratch,
        ctr: &mut KernelCounters,
        i: u32,
    ) -> Result<f64, ModelError> {
        let s_i = csr.s(i as usize);
        let sk_start = scratch.probe.skipped.len() as u32;
        let j = self
            .procs
            .probe_with(
                |q| {
                    ctr.probes += 1;
                    admission.admits(q, s_i)
                },
                &mut scratch.probe.frontier,
                &mut scratch.probe.skipped,
            )
            .ok_or_else(|| admission.rejection_error(s_i))?;
        let key = self.preds[i as usize].ready.max(self.procs.load(j));
        scratch.sel.cands.push(Candidate {
            key,
            rank: rank[i as usize],
            task: i,
            proc: j as u32,
            skipped: sk_start..scratch.probe.skipped.len() as u32,
        });
        Ok(key)
    }

    /// Places task `i` on processor `j` starting at `key` and fires its
    /// completion event (shared tail of the fast and general selection
    /// paths).
    ///
    /// The completion event is a **batched frontier update**: one
    /// sequential pass over the CSR successor slice performs the
    /// readiness decrements and stages the tasks whose last predecessor
    /// this was in `scratch.newly_ready`; the ready-structure insertions
    /// then run as a single bulk pass. Splitting the passes keeps the
    /// decrement loop a pure array walk (no heap/bitmap lines
    /// interleaved into its stride) and lets the pushes batch against
    /// one post-placement `min_load` read.
    #[allow(clippy::too_many_arguments)]
    fn place<A: Admission>(
        &mut self,
        csr: &CsrDag,
        rank: &PriorityRank,
        admission: &mut A,
        i: usize,
        j: usize,
        key: f64,
        scratch: &mut StepScratch,
    ) {
        self.proc_of[i] = j as u32;
        self.start[i] = key;
        let completion = key + csr.p(i);
        self.procs.set_load(j, completion);
        admission.commit(j, csr.s(i));

        scratch.newly_ready.clear();
        for &v in csr.succs(i) {
            let v = v as usize;
            let ps = &mut self.preds[v];
            // Branchless max: completion and ready are non-negative and
            // never NaN, so `f64::max` matches the conditional update.
            ps.ready = ps.ready.max(completion);
            ps.remaining -= 1;
            if ps.remaining == 0 {
                scratch.newly_ready.push(v as u32);
            }
        }

        // Bulk insertion pass. A successor whose ready time is already
        // (approximately) at or below the threshold goes straight to the
        // runnable bitmap: the threshold never decreases and `approx_le`
        // is monotone in its second argument, so the next round's
        // migration would move it there anyway — skipping the pending
        // round trip halves the structure traffic on wide ready fronts.
        let theta = self.threshold();
        for ni in 0..scratch.newly_ready.len() {
            let v = scratch.newly_ready[ni] as usize;
            let ready = self.preds[v].ready;
            if approx_le(ready, theta) {
                self.runnable.insert(self.slot_of_task[v]);
            } else {
                self.pending
                    .push(pend_key(ready, rank_task(rank[v], v as u32)));
            }
        }

        self.round += 1;
    }
    // sws-lint: end-hot-path

    /// Copies a completed state (every round executed) into the kernel's
    /// outcome. Borrows instead of consuming so the state's buffers stay
    /// in the workspace for the next run. The schedule's invariants hold
    /// by construction (processors come from the heap, starts from
    /// non-negative keys), so the unchecked constructor skips the
    /// re-validation passes.
    fn finish(&self, m: usize) -> Result<KernelOutcome, ModelError> {
        let proc_of: Vec<usize> = self.proc_of.iter().map(|&q| q as usize).collect();
        let schedule = TimedSchedule::new_unchecked(proc_of, self.start.clone(), m);
        Ok(KernelOutcome {
            schedule,
            marked: self.mark_round.iter().map(|&r| r != u32::MAX).collect(),
        })
    }
}

/// Reusable per-run buffers of the scheduling kernel: the resumable
/// [`EngineState`] plus the per-round scratch. Construct once (per
/// thread / per rayon worker), thread `&mut` through any number of runs
/// — each run re-initializes the buffers without freeing them, so
/// steady-state scheduling performs no heap allocation beyond the
/// returned [`KernelOutcome`].
///
/// Reuse is **stateless across runs by construction**: every buffer is
/// fully re-initialized from the instance at the start of a run
/// ([`EngineState::init`]) or rebuilt from a run's log at the start of
/// a warm resume ([`EngineState::restore`]), which the differential
/// suite, a dedicated interleaving proptest and the stale-workspace
/// tests verify bit-for-bit.
#[derive(Debug)]
pub struct KernelWorkspace {
    state: EngineState,
    scratch: StepScratch,
    probe: CancelProbe,
    counters: KernelCounters,
}

/// Deterministic round-shape counters, summed over every run through
/// one [`KernelWorkspace`] (read with [`KernelWorkspace::counters`]).
/// They count work, not time, so they repeat exactly for the same
/// inputs on any host: an algorithmic regression shows in them even
/// where wall-clock noise hides it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Placement rounds executed.
    pub rounds: u64,
    /// Rounds settled by the fast path: the best-ranked runnable task
    /// fits the least loaded processor and no pending task competes.
    pub fast_rounds: u64,
    /// Wave promotions: rounds that found nothing runnable and raised
    /// the floor to the earliest pending ready time.
    pub promotions: u64,
    /// Tasks taken out of the runnable bitmap (losers go back in).
    pub runnable_pops: u64,
    /// Entries popped off the pending heap: migrations, promotions and
    /// pending-scan candidates (losers are pushed back).
    pub pending_pops: u64,
    /// Admission verdicts consulted.
    pub probes: u64,
}

impl Default for KernelWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        KernelWorkspace {
            state: EngineState::empty(),
            scratch: StepScratch::default(),
            probe: CancelProbe::never(),
            counters: KernelCounters::default(),
        }
    }

    /// The round-shape counters of every run through this workspace so
    /// far.
    pub fn counters(&self) -> KernelCounters {
        self.counters
    }

    /// Arms a cooperative cancellation/deadline probe: runs through this
    /// workspace poll it every [`PROBE_STRIDE`] rounds and stop with
    /// `ModelError::Interrupted` once it trips. The workspace stays
    /// reusable after an interrupted run.
    pub fn set_probe(&mut self, probe: CancelProbe) {
        self.probe = probe;
    }

    /// Disarms the probe (the default).
    pub fn clear_probe(&mut self) {
        self.probe = CancelProbe::never();
    }

    /// The currently armed probe (never-tripping by default). Backends
    /// that run outside the kernel loop (PTAS, exact enumeration) read
    /// it here so one workspace carries the signal to every backend.
    pub fn probe(&self) -> &CancelProbe {
        &self.probe
    }

    /// A workspace pre-sized for instances of up to `n` tasks on up to
    /// `m` processors, so even the first run allocates up front instead
    /// of growing mid-run.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut ws = Self::new();
        ws.state.mark_round.reserve(m);
        ws.state.preds.reserve(n);
        ws.state.proc_of.reserve(n);
        ws.state.start.reserve(n);
        ws.state.pending.reserve(n);
        ws.state.runnable.reserve(n);
        ws.state.slot_of_task.reserve(n);
        ws.state.task_of_slot.reserve(n);
        ws.state.procs.key.reserve(m);
        ws.state.procs.pos.reserve(m);
        ws.state.procs.load.reserve(m);
        ws
    }
}

/// Event-driven list scheduling of a precedence-constrained instance.
///
/// `rank` gives the tie-break rank of every task (lower = preferred);
/// `admission` decides which processors may receive each task. With
/// [`Unrestricted`] this computes Graham DAG list scheduling; with
/// [`MemoryCapAdmission`] it computes the paper's RLS∆.
///
/// One-shot convenience wrapper: runs over the instance's shared flat
/// form ([`DagInstance::shared_csr`]) with a fresh workspace per call.
/// Throughput callers (sweeps, batches) should reuse a
/// [`KernelWorkspace`] through [`event_driven_schedule_csr`].
pub fn event_driven_schedule<A: Admission>(
    inst: &DagInstance,
    rank: &PriorityRank,
    admission: &mut A,
) -> Result<KernelOutcome, ModelError> {
    let mut ws = KernelWorkspace::with_capacity(inst.n(), inst.m());
    event_driven_schedule_csr(inst.shared_csr(), inst.m(), rank, admission, &mut ws)
}

/// [`event_driven_schedule`] over the flat CSR instance form with an
/// explicit reusable workspace — the allocation-free serving path.
/// Produces bit-identical output to the wrapper.
pub fn event_driven_schedule_csr<A: Admission>(
    csr: &CsrDag,
    m: usize,
    rank: &PriorityRank,
    admission: &mut A,
    ws: &mut KernelWorkspace,
) -> Result<KernelOutcome, ModelError> {
    let n = csr.n();
    ws.state.init(csr, m, rank);
    ws.scratch.clear();
    while ws.state.round < n {
        if ws.state.round.is_multiple_of(PROBE_STRIDE) {
            ws.probe.poll()?;
        }
        ws.state
            .step(csr, rank, admission, &mut ws.scratch, &mut ws.counters)?;
    }
    ws.state.finish(m)
}

/// Rounds between cancellation-probe polls: cancellation latency is
/// bounded by this many rounds, while an unarmed poll every 64 rounds
/// stays far below the cost of a single scheduling round.
pub const PROBE_STRIDE: usize = 64;

/// Admission predicate of a recorded run ([`ReplanRun`]): `Open` caps
/// nothing (Graham list scheduling); `Capped` enforces the paper's
/// memory cap and additionally records, per round, the smallest
/// inadmissible `memsize[q] + s` value probed — the record a cap raise
/// or a storage re-estimate finds its first diverging round in.
/// Interior mutability because [`Admission::admits`] takes `&self`
/// (heap probes borrow the predicate immutably). A concrete enum (not a
/// generic) so [`ReplanRun`] is a nameable type the engine layer can
/// store.
#[derive(Debug)]
enum ReplanAdmission {
    Open(Unrestricted),
    Capped {
        inner: MemoryCapAdmission,
        round_reject_min: Cell<f64>,
    },
}

impl ReplanAdmission {
    /// Admission state for a run under `cap`, starting from the
    /// committed memory `memsize` (ignored for open runs).
    fn new(cap: Option<f64>, memsize: impl FnOnce() -> Vec<f64>) -> Self {
        match cap {
            None => ReplanAdmission::Open(Unrestricted),
            Some(cap) => ReplanAdmission::Capped {
                inner: MemoryCapAdmission {
                    memsize: memsize(),
                    cap,
                },
                round_reject_min: Cell::new(f64::INFINITY),
            },
        }
    }

    /// The smallest value rejected since the last call (∞ when none,
    /// always ∞ for open runs), resetting the recorder for the next
    /// round.
    fn take_round_min(&self) -> f64 {
        match self {
            ReplanAdmission::Open(_) => f64::INFINITY,
            ReplanAdmission::Capped {
                round_reject_min, ..
            } => round_reject_min.replace(f64::INFINITY),
        }
    }
}

impl Admission for ReplanAdmission {
    #[inline]
    fn admits(&self, q: usize, s: f64) -> bool {
        match self {
            ReplanAdmission::Open(a) => a.admits(q, s),
            ReplanAdmission::Capped {
                inner,
                round_reject_min,
            } => {
                // Delegate the verdict so it can never drift from the
                // predicate the plain (cold) runs use — the warm/cold
                // bit-identity contract depends on the two computing
                // exactly the same answer.
                if inner.admits(q, s) {
                    true
                } else {
                    let v = inner.memsize[q] + s;
                    if v < round_reject_min.get() {
                        round_reject_min.set(v);
                    }
                    false
                }
            }
        }
    }

    #[inline]
    fn commit(&mut self, q: usize, s: f64) {
        match self {
            ReplanAdmission::Open(a) => a.commit(q, s),
            ReplanAdmission::Capped { inner, .. } => inner.commit(q, s),
        }
    }

    fn rejection_error(&self, s: f64) -> ModelError {
        match self {
            ReplanAdmission::Open(a) => a.rejection_error(s),
            ReplanAdmission::Capped { inner, .. } => inner.rejection_error(s),
        }
    }
}

/// Per-round records of a recorded run, indexed by round.
#[derive(Debug, Default)]
struct Rounds {
    /// The task each round placed.
    placed: Vec<u32>,
    /// Start key of each round's winner. Recorded by open runs only:
    /// it feeds the open-session arrival test
    /// ([`ReplanRun::first_beaten_round`]), which capped runs never
    /// take (empty for them).
    winner_key: Vec<f64>,
    /// Minimum processor load when each round began (open runs only,
    /// like `winner_key`).
    min_load: Vec<f64>,
    /// Smallest inadmissible `memsize[q] + s` each round probed (∞ when
    /// it rejected nothing; always ∞ uncapped).
    reject_min: Vec<f64>,
    /// `(round, floor)` of each wave promotion, in round order.
    floors: Vec<(u32, f64)>,
}

impl Rounds {
    /// Number of promotions made before round `d`.
    fn promotions_before(&self, d: usize) -> usize {
        self.floors.partition_point(|&(r, _)| (r as usize) < d)
    }

    /// The wave floor in force before round `d`.
    fn floor_before(&self, d: usize) -> f64 {
        match self.promotions_before(d) {
            0 => 0.0,
            k => self.floors[k - 1].1,
        }
    }

    /// The records of the first `d` rounds.
    fn prefix(&self, d: usize) -> Rounds {
        let head = |v: &[f64]| v[..d.min(v.len())].to_vec();
        Rounds {
            placed: self.placed[..d].to_vec(),
            winner_key: head(&self.winner_key),
            min_load: head(&self.min_load),
            reject_min: self.reject_min[..d].to_vec(),
            floors: self.floors[..self.promotions_before(d)].to_vec(),
        }
    }
}

/// The placement log of a completed recorded run: everything
/// [`EngineState::restore`] needs to rebuild the state before any of
/// its rounds, all `O(n)` — nothing here is a copy of the engine state.
#[derive(Debug)]
struct RunLog {
    /// The priority rank the run was recorded under.
    rank: Arc<PriorityRank>,
    rounds: Rounds,
    /// `place_round[i]`: the round that placed task `i` (inverse of
    /// `rounds.placed`).
    place_round: Vec<u32>,
    /// `mark_round[q]`: the first round that marked processor `q`
    /// (`u32::MAX` when none did).
    mark_round: Vec<u32>,
    /// The produced schedule and Lemma-4 bookkeeping.
    outcome: KernelOutcome,
}

impl RunLog {
    /// Runs the workspace's state to completion under `admission`,
    /// extending `rounds` (which must cover the rounds before
    /// `state.round`), and seals the log. Also returns the number of
    /// rounds executed.
    fn record(
        csr: &CsrDag,
        m: usize,
        rank: Arc<PriorityRank>,
        admission: &mut ReplanAdmission,
        mut rounds: Rounds,
        ws: &mut KernelWorkspace,
    ) -> Result<(RunLog, usize), ModelError> {
        let n = csr.n();
        let first = ws.state.round;
        debug_assert_eq!(rounds.placed.len(), first);
        let frontier = matches!(admission, ReplanAdmission::Open(_));
        ws.scratch.clear();
        while ws.state.round < n {
            if ws.state.round.is_multiple_of(PROBE_STRIDE) {
                ws.probe.poll()?;
            }
            if frontier {
                rounds.min_load.push(ws.state.procs.min_load());
            }
            // A promotion strictly raises the floor.
            let floor = ws.state.floor.to_bits();
            let (task, key) =
                ws.state
                    .step(csr, &rank, admission, &mut ws.scratch, &mut ws.counters)?;
            if ws.state.floor.to_bits() != floor {
                rounds
                    .floors
                    .push((rounds.placed.len() as u32, ws.state.floor));
            }
            rounds.placed.push(task);
            if frontier {
                rounds.winner_key.push(key);
            }
            rounds.reject_min.push(admission.take_round_min());
        }
        let mut place_round = vec![0u32; n];
        for (r, &t) in rounds.placed.iter().enumerate() {
            place_round[t as usize] = r as u32;
        }
        let log = RunLog {
            rank,
            rounds,
            place_round,
            mark_round: ws.state.mark_round.clone(),
            outcome: ws.state.finish(m)?,
        };
        Ok((log, n - first))
    }

    /// Number of tasks the run placed.
    fn n(&self) -> usize {
        self.rounds.placed.len()
    }

    /// Per-processor memory committed by the first `d` rounds, summed in
    /// round order — the order the run's own commits added in, so the
    /// float sums are bit-identical.
    fn memsize_before(&self, csr: &CsrDag, m: usize, d: usize) -> Vec<f64> {
        let mut memsize = vec![0.0; m];
        for &t in &self.rounds.placed[..d] {
            let t = t as usize;
            memsize[self.outcome.schedule.proc_of(t)] += csr.s(t);
        }
        memsize
    }
}

/// Direction of a re-estimated storage requirement relative to the
/// value the previous run was computed under. The kernel only sees the
/// *mutated* CSR, so the engine layer (which reads the old value before
/// applying the delta) must tell it the direction — it decides how far
/// back a capped session has to replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostShift {
    /// Numerically unchanged (a `-0.0 ↔ 0.0` rewrite counts: admission
    /// arithmetic cannot distinguish the two zeros).
    Unchanged,
    /// Strictly smaller than before: admission verdicts can only flip
    /// from rejected to admitted.
    Lowered,
    /// Strictly larger than before: admission verdicts can only flip
    /// from admitted to rejected.
    Raised,
}

/// A kernel-level description of what changed since a recorded run:
/// either an already-applied instance mutation, built by the engine
/// layer from a [`CsrDelta`](sws_dag::CsrDelta) while applying it, or a
/// new memory cap over the same instance. Completions are absent by
/// design: they mutate neither the instance nor the schedule, so the
/// engine answers them from the cached run without entering the kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplanDelta {
    /// Task `n - 1` of the (mutated) instance is a new arrival.
    Arrival,
    /// An existing task's costs were re-estimated.
    Recost {
        /// The re-estimated task.
        task: u32,
        /// Whether the processing time changed.
        p_changed: bool,
        /// How the storage requirement moved.
        s_shift: CostShift,
    },
    /// The same instance under a new memory cap — one step of a
    /// ∆-sweep, which raises `∆·LB` along an ascending grid.
    Cap(f64),
}

/// A completed kernel run that can be **warm-resumed across a
/// [`ReplanDelta`]**: a raised memory cap (the incremental ∆-sweeps),
/// or an arrival or cost re-estimate against a mutated [`CsrDag`] (the
/// replanning sessions).
///
/// Its placement log records, per round, which task the round placed
/// and the smallest admissibility value it rejected; open runs also
/// record the **placement frontier**: the winner's start key and the
/// minimum processor load when the round began. From those records the
/// first round a delta can affect is computable without re-running
/// anything:
///
/// * A **raised cap** keeps every accepted probe accepted, and
///   [`sws_model::numeric::approx_le`] is monotone in both arguments
///   over non-negative operands, so a rejected probe flips only once
///   the new cap admits its value — never before the first round whose
///   smallest rejected value the new cap admits, where the replay
///   starts. A lowered cap, or a cap on a run recorded open (no
///   rejection thresholds), runs cold.
///
/// * A task's costs are invisible to the kernel before its *ready
///   round* `r₀` (the round after its last predecessor placed): a task
///   outside the ready structures is never probed and never a
///   candidate, so every earlier round replays verbatim.
/// * Its processing time is read exactly once, at its placement round:
///   a pure `p` re-estimate replays from there.
/// * In an **open** (uncapped) session an arrival `j` can change a
///   round `t ≥ r₀` only by *winning* it, and — holding the worst
///   possible tie-break rank, `n - 1` — only by a strictly earlier
///   start: its key is at least `max(ρ, min_load[t])` (`ρ` = its
///   ready time), so the first affected round is the first `t` with
///   `strictly_lt(max(ρ, min_load[t]), winner_key[t])`. Losing
///   candidates leave no trace (marking is winner-only), which is what
///   makes the test exact rather than heuristic. The one exception is
///   a wave promotion (see [`EngineState::step`]) whose floor `ρ` ties
///   with or undercuts: the arrival changes the promoted floor or wave
///   without winning, so the replay starts no later than that round.
/// * In a **capped** session a changed storage requirement can flip
///   admission verdicts in any round that probed the task, which the
///   records cannot rule out past `r₀` — except for a *lowered*
///   requirement, where verdicts only flip rejected→admitted, so
///   rounds whose recorded rejection threshold is ∞ (nothing rejected)
///   are untouched and the replay starts at the first finite one.
///
/// The replay then restores the state before exactly that first
/// affected round ([`EngineState::restore`], run over the mutated CSR,
/// so an arrival simply counts as one more unplaced task) and runs
/// `n − first` rounds. When the first affected round is early (a
/// source arrival, a recost of a root task) that is a full re-run, at
/// the cost of a cold run plus the sequential restore passes.
///
/// The run is bound to the priority rank it was recorded under; a
/// replan whose rank disagrees (or re-ranks the arrival anywhere but
/// last) falls back to a cold run against the mutated instance. Either
/// way the produced schedule is **bit-identical** to a from-scratch
/// solve of the mutated instance at the new cap, which the
/// differential suites enforce.
///
/// The log (with the rank and the outcome) is shared (`Arc`) between
/// the runs of a chain, so a delta that changes nothing copies no
/// records.
#[derive(Debug, Clone)]
pub struct ReplanRun {
    m: usize,
    /// The enforced cap: `None` = unrestricted (Graham), `Some` = the
    /// paper's memory cap. Only a [`ReplanDelta::Cap`] changes it (the
    /// ∆-sweeps); instance deltas keep it.
    cap: Option<f64>,
    log: Arc<RunLog>,
    /// Rounds actually executed to produce this run.
    replayed: usize,
}

/// Where a replan restarts, as decided from the records alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplanStart {
    /// The records cannot seed a replay (the rank no longer matches,
    /// or the cap was lowered or newly imposed): run cold.
    Cold,
    /// The schedule provably cannot change.
    Reuse,
    /// Restore before this round and replay from it.
    From(usize),
}

impl ReplanRun {
    /// A from-scratch run over `csr` on `m` processors under `cap`,
    /// recording the replay bookkeeping.
    pub fn cold(
        csr: &CsrDag,
        m: usize,
        rank: Arc<PriorityRank>,
        cap: Option<f64>,
        ws: &mut KernelWorkspace,
    ) -> Result<Self, ModelError> {
        ws.state.init(csr, m, &rank);
        let mut admission = ReplanAdmission::new(cap, || vec![0.0; m]);
        let (log, replayed) = RunLog::record(csr, m, rank, &mut admission, Rounds::default(), ws)?;
        Ok(ReplanRun {
            m,
            cap,
            log: Arc::new(log),
            replayed,
        })
    }

    /// Warm-starts against the **already mutated** `csr`, replaying
    /// only from the first round `delta` can affect (see the type
    /// docs). `rank` is the priority rank of the mutated instance; when
    /// it disagrees with the recorded rank the run falls back to
    /// [`ReplanRun::cold`]. The result enforces the new cap of a
    /// [`ReplanDelta::Cap`] and this run's cap otherwise, and is
    /// bit-identical to a cold run under it either way.
    pub fn replan(
        &self,
        csr: &CsrDag,
        rank: Arc<PriorityRank>,
        delta: ReplanDelta,
        ws: &mut KernelWorkspace,
    ) -> Result<Self, ModelError> {
        let cap = match delta {
            ReplanDelta::Cap(cap) => Some(cap),
            _ => self.cap,
        };
        match self.first_affected(csr, &rank, delta) {
            ReplanStart::Cold => Self::cold(csr, self.m, rank, cap, ws),
            ReplanStart::Reuse => Ok(ReplanRun {
                cap,
                ..self.reuse()
            }),
            ReplanStart::From(first) => self.resume_from(csr, rank, cap, first, ws),
        }
    }

    /// The first round `delta` can affect (see the type docs), given
    /// the already mutated `csr` and its rank.
    fn first_affected(
        &self,
        csr: &CsrDag,
        rank: &Arc<PriorityRank>,
        delta: ReplanDelta,
    ) -> ReplanStart {
        let n = csr.n();
        let n_old = self.log.n();
        match delta {
            ReplanDelta::Arrival => {
                assert_eq!(n, n_old + 1, "arrival replan against an un-mutated CSR");
                if !self.rank_extends(rank, n) {
                    return ReplanStart::Cold;
                }
                let (rho, r0) = self.ready_info(csr, n - 1);
                if self.cap.is_some() {
                    // A capped probe of the arrival can reject (even
                    // terminally) in any round that scans it; the
                    // records cannot rule that out, so replay its whole
                    // ready span.
                    ReplanStart::From(r0)
                } else {
                    let beaten = self.first_beaten_round(r0, n_old, rho).unwrap_or(n_old);
                    ReplanStart::From(self.first_tied_wave(r0, beaten, rho).unwrap_or(beaten))
                }
            }
            ReplanDelta::Recost {
                task,
                p_changed,
                s_shift,
            } => {
                assert_eq!(n, n_old, "recost replan changed the task count");
                if !self.rank_matches(rank) {
                    return ReplanStart::Cold;
                }
                let i = task as usize;
                let pr = self.log.place_round[i] as usize;
                let mut first = if p_changed { pr } else { usize::MAX };
                if self.cap.is_some() {
                    match s_shift {
                        CostShift::Unchanged => {}
                        // Rejected→admitted flips need a rejection to
                        // flip: rounds with an ∞ threshold replay
                        // verbatim.
                        CostShift::Lowered => {
                            let (_, r0) = self.ready_info(csr, i);
                            let t = (r0..pr)
                                .find(|&t| self.log.rounds.reject_min[t].is_finite())
                                .unwrap_or(pr);
                            first = first.min(t);
                        }
                        CostShift::Raised => {
                            let (_, r0) = self.ready_info(csr, i);
                            first = first.min(r0);
                        }
                    }
                }
                if first >= n {
                    // The schedule cannot change (an uncapped storage
                    // re-estimate, or no change at all): reuse it.
                    ReplanStart::Reuse
                } else {
                    ReplanStart::From(first)
                }
            }
            ReplanDelta::Cap(new_cap) => {
                assert_eq!(n, n_old, "cap replan changed the task count");
                // A lowered cap flips verdicts admitted→rejected in any
                // round, and an open run recorded no rejection
                // thresholds to compare against.
                let raised = self.cap.is_some_and(|cap| new_cap >= cap);
                if !raised || !self.rank_matches(rank) {
                    return ReplanStart::Cold;
                }
                self.log
                    .rounds
                    .reject_min
                    .iter()
                    // The ∞ sentinel means "no rejection that round"; it
                    // must not hit the tolerant comparison (whose slack
                    // is infinite there).
                    .position(|&v| v.is_finite() && approx_le(v, new_cap))
                    .map_or(ReplanStart::Reuse, ReplanStart::From)
            }
        }
    }

    /// This run with zero replayed rounds — the answer when a delta
    /// provably cannot change the schedule (also used by the replan
    /// engine in `sws-core` when answering completion events from the
    /// cached run).
    pub fn reuse(&self) -> Self {
        ReplanRun {
            replayed: 0,
            ..self.clone()
        }
    }

    /// Ready time `ρ` (max predecessor completion) and ready round `r₀`
    /// (first round the task is visible to scans) of `task` under this
    /// run's schedule.
    fn ready_info(&self, csr: &CsrDag, task: usize) -> (f64, usize) {
        let mut rho = 0.0f64;
        let mut r0 = 0usize;
        for &u in csr.preds(task) {
            let u = u as usize;
            rho = rho.max(self.log.outcome.schedule.start(u) + csr.p(u));
            r0 = r0.max(self.log.place_round[u] as usize + 1);
        }
        (rho, r0)
    }

    /// First round in `from..until` an open-session candidate with
    /// ready time `rho` (and a worse tie-break rank than every recorded
    /// task) would have *won*: its start key is at least
    /// `max(rho, min_load[t])`, and with the worst rank only a strictly
    /// earlier start beats the recorded winner.
    fn first_beaten_round(&self, from: usize, until: usize, rho: f64) -> Option<usize> {
        let r = &self.log.rounds;
        (from..until).find(|&t| strictly_lt(rho.max(r.min_load[t]), r.winner_key[t]))
    }

    /// First round in `from..until` that promoted a wave whose floor a
    /// task ready at `rho` ties with or undercuts. Such a task would
    /// have been runnable there (no promotion), set a lower floor, or
    /// joined the wave, so a cold run's state differs from the log's
    /// even where the task never wins. Past floors it clears, it is
    /// pending at every promotion and changes neither the floor nor the
    /// wave.
    fn first_tied_wave(&self, from: usize, until: usize, rho: f64) -> Option<usize> {
        let r = &self.log.rounds;
        r.floors[r.promotions_before(from)..]
            .iter()
            .map(|&(t, floor)| (t as usize, floor))
            .take_while(|&(t, _)| t < until)
            .find(|&(_, floor)| approx_le(rho, floor))
            .map(|(t, _)| t)
    }

    /// Whether `rank` is exactly the recorded rank (recost replans keep
    /// the task set, so the whole rank must agree).
    fn rank_matches(&self, rank: &Arc<PriorityRank>) -> bool {
        Arc::ptr_eq(rank, &self.log.rank) || rank[..] == self.log.rank[..]
    }

    /// Whether `rank` extends the recorded rank by ranking the arrival
    /// last — the one extension under which every recorded slot (and
    /// thus every record) keeps its meaning.
    fn rank_extends(&self, rank: &PriorityRank, n: usize) -> bool {
        rank.len() == n && rank[n - 1] as usize == n - 1 && rank[..n - 1] == self.log.rank[..]
    }

    /// Restores the state before round `first` over the mutated `csr`
    /// and replays to completion under `cap`.
    fn resume_from(
        &self,
        csr: &CsrDag,
        rank: Arc<PriorityRank>,
        cap: Option<f64>,
        first: usize,
        ws: &mut KernelWorkspace,
    ) -> Result<Self, ModelError> {
        ws.state.restore(csr, self.m, &rank, &self.log, first);
        let mut admission =
            ReplanAdmission::new(cap, || self.log.memsize_before(csr, self.m, first));
        // The records before `first` are identical by construction.
        let rounds = self.log.rounds.prefix(first);
        let (log, replayed) = RunLog::record(csr, self.m, rank, &mut admission, rounds, ws)?;
        Ok(ReplanRun {
            m: self.m,
            cap,
            log: Arc::new(log),
            replayed,
        })
    }

    /// The memory cap this run enforced (`None` = unrestricted).
    #[inline]
    pub fn cap(&self) -> Option<f64> {
        self.cap
    }

    /// Number of tasks this run scheduled.
    #[inline]
    pub fn n(&self) -> usize {
        self.log.n()
    }

    /// The produced schedule and Lemma-4 bookkeeping.
    #[inline]
    pub fn outcome(&self) -> &KernelOutcome {
        &self.log.outcome
    }

    /// The priority rank the run was recorded under.
    #[inline]
    pub fn rank(&self) -> &Arc<PriorityRank> {
        &self.log.rank
    }

    /// Rounds actually executed to produce this run: `n` for a cold
    /// run, `0` for a provable no-op, and exactly `n − first` for a
    /// replay from the first affected round `first`. The engine layer's
    /// incremental-work costing reads this.
    #[inline]
    pub fn replayed_rounds(&self) -> usize {
        self.replayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::{hlf_priority, index_priority};
    use sws_dag::prelude::*;
    use sws_model::validate::{validate_timed, validate_timed_preds};

    #[test]
    fn proc_heap_orders_by_load_then_index() {
        let mut h = ProcHeap::new(4);
        assert_eq!(h.min(), 0);
        h.set_load(0, 3.0);
        assert_eq!(h.min(), 1);
        h.set_load(1, 3.0);
        h.set_load(2, 1.0);
        assert_eq!(h.min(), 3);
        h.set_load(3, 2.0);
        assert_eq!(h.min(), 2);
        h.set_load(2, 3.0);
        // All at 3.0 except q3 at 2.0.
        assert_eq!(h.min(), 3);
        h.set_load(3, 3.0);
        // Full tie: lowest index wins.
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn proc_heap_reset_restores_the_initial_ordering() {
        let mut h = ProcHeap::new(3);
        h.set_load(0, 5.0);
        h.set_load(1, 2.0);
        h.reset(3);
        assert_eq!(h.min(), 0);
        assert!(h.loads().iter().all(|&l| l == 0.0));
        // Resizing down and up through reset works too.
        h.reset(1);
        assert_eq!(h.m(), 1);
        h.reset(5);
        assert_eq!(h.m(), 5);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn probe_skips_inadmissible_processors_in_load_order() {
        let mut h = ProcHeap::new(4);
        h.set_load(0, 1.0);
        h.set_load(1, 2.0);
        h.set_load(2, 3.0);
        h.set_load(3, 4.0);
        let (mut frontier, mut skipped) = (Vec::new(), Vec::new());
        let q = h.probe_with(|q| q >= 2, &mut frontier, &mut skipped);
        assert_eq!(q, Some(2));
        assert_eq!(skipped, vec![0, 1]);
        skipped.clear();
        assert!(h
            .probe_with(|_| false, &mut frontier, &mut skipped)
            .is_none());
        skipped.clear();
        let q = h.probe_with(|_| true, &mut frontier, &mut skipped);
        assert_eq!(q, Some(0));
        assert!(skipped.is_empty());
    }

    #[test]
    fn probe_with_appends_to_the_shared_skipped_buffer() {
        let mut h = ProcHeap::new(4);
        h.set_load(0, 1.0);
        h.set_load(1, 2.0);
        h.set_load(2, 3.0);
        h.set_load(3, 4.0);
        let mut frontier = Vec::new();
        let mut skipped = vec![99usize]; // pre-existing content must survive
        let q = h
            .probe_with(|q| q >= 2, &mut frontier, &mut skipped)
            .unwrap();
        assert_eq!(q, 2);
        assert_eq!(skipped, vec![99, 0, 1]);
    }

    #[test]
    fn kernel_schedules_a_chain_sequentially() {
        let inst = DagInstance::new(chain(5), 3).unwrap();
        let out = event_driven_schedule(&inst, &index_priority(5), &mut Unrestricted).unwrap();
        assert!((out.schedule.cmax(inst.tasks()) - 5.0).abs() < 1e-9);
        assert!(out.marked.iter().all(|&b| !b));
    }

    #[test]
    fn kernel_respects_precedence_on_structured_graphs() {
        for g in [
            gaussian_elimination(5),
            fft_butterfly(3),
            diamond_grid(4, 4),
        ] {
            let inst = DagInstance::new(g, 3).unwrap();
            let rank = hlf_priority(inst.graph());
            let out = event_driven_schedule(&inst, &rank, &mut Unrestricted).unwrap();
            validate_timed(
                inst.tasks(),
                inst.m(),
                &out.schedule,
                inst.graph().all_preds(),
                None,
            )
            .unwrap();
            // The CSR predecessor view validates the same schedule
            // without materializing nested lists.
            validate_timed_preds(
                inst.tasks(),
                inst.m(),
                &out.schedule,
                inst.csr().pred_lists(),
                None,
            )
            .unwrap();
        }
    }

    #[test]
    fn csr_entry_point_matches_the_wrapper_bit_for_bit() {
        for g in [gaussian_elimination(6), diamond_grid(5, 5)] {
            let inst = DagInstance::new(g, 3).unwrap();
            let rank = hlf_priority(inst.graph());
            let via_wrapper = event_driven_schedule(&inst, &rank, &mut Unrestricted).unwrap();
            let csr = inst.csr();
            let mut ws = KernelWorkspace::new();
            let via_csr =
                event_driven_schedule_csr(&csr, inst.m(), &rank, &mut Unrestricted, &mut ws)
                    .unwrap();
            assert_eq!(via_wrapper.schedule, via_csr.schedule);
            assert_eq!(via_wrapper.marked, via_csr.marked);
        }
    }

    #[test]
    fn workspace_reuse_across_different_instances_is_stateless() {
        // Run a big instance, then a small one, then the big one again
        // through one workspace: results must equal fresh-workspace runs.
        let big = DagInstance::new(gaussian_elimination(7), 5).unwrap();
        let small = DagInstance::new(chain(3), 2).unwrap();
        let mut ws = KernelWorkspace::new();
        let runs = [&big, &small, &big, &small];
        for inst in runs {
            let rank = index_priority(inst.n());
            let csr = inst.csr();
            let reused =
                event_driven_schedule_csr(&csr, inst.m(), &rank, &mut Unrestricted, &mut ws)
                    .unwrap();
            let fresh = event_driven_schedule(inst, &rank, &mut Unrestricted).unwrap();
            assert_eq!(reused.schedule, fresh.schedule);
            assert_eq!(reused.marked, fresh.marked);
        }
    }

    #[test]
    fn memory_cap_admission_enforces_the_cap() {
        let mut adm = MemoryCapAdmission::new(2, 3.0);
        assert!(adm.admits(0, 3.0));
        adm.commit(0, 2.0);
        assert!(!adm.admits(0, 1.5));
        assert!(adm.admits(1, 1.5));
        match adm.rejection_error(5.0) {
            ModelError::MemoryExceeded { capacity, .. } => assert_eq!(capacity, 3.0),
            other => panic!("unexpected error {other:?}"),
        }
        // Reset restores a pristine predicate (possibly resized).
        adm.reset(3, 7.0);
        assert_eq!(adm.memsize(), &[0.0, 0.0, 0.0]);
        assert_eq!(adm.cap(), 7.0);
        assert!(adm.admits(0, 7.0));
    }

    #[test]
    fn kernel_with_cap_never_exceeds_it() {
        let g = fork_join(2, 6)
            .with_costs(|i| sws_model::task::Task {
                p: 1.0 + (i % 3) as f64,
                s: 1.0 + (i % 4) as f64,
            })
            .unwrap();
        let inst = DagInstance::new(g, 3).unwrap();
        let total_s: f64 = (0..inst.n()).map(|i| inst.tasks().get(i).s).sum();
        let cap = 2.25 * (total_s / 3.0).max(4.0);
        let mut adm = MemoryCapAdmission::new(3, cap);
        let out = event_driven_schedule(&inst, &index_priority(inst.n()), &mut adm).unwrap();
        let mem = out.schedule.memory(inst.tasks());
        assert!(mem.iter().all(|&x| x <= cap + 1e-9));
    }

    #[test]
    fn empty_instance_yields_empty_schedule() {
        let tasks = sws_model::task::TaskSet::from_ps(&[], &[]).unwrap();
        let inst = DagInstance::new(sws_dag::TaskGraph::new(tasks), 2).unwrap();
        let out = event_driven_schedule(&inst, &index_priority(0), &mut Unrestricted).unwrap();
        assert_eq!(out.schedule.n(), 0);
    }

    fn capped_instance() -> (DagInstance, f64) {
        let g = fork_join(3, 9)
            .with_costs(|i| sws_model::task::Task {
                p: 1.0 + (i % 5) as f64,
                s: 1.0 + (i % 3) as f64,
            })
            .unwrap();
        let inst = DagInstance::new(g, 4).unwrap();
        let total_s: f64 = (0..inst.n()).map(|i| inst.tasks().get(i).s).sum();
        let lb = (total_s / 4.0).max(3.0);
        (inst, lb)
    }

    /// A capped cold run through a fresh workspace.
    fn capped_cold(csr: &CsrDag, m: usize, rank: &Arc<PriorityRank>, cap: f64) -> ReplanRun {
        let mut ws = KernelWorkspace::new();
        ReplanRun::cold(csr, m, Arc::clone(rank), Some(cap), &mut ws).unwrap()
    }

    /// `run` warm-resumed at `cap` over its own instance and rank.
    fn raise_cap(run: &ReplanRun, csr: &CsrDag, cap: f64, ws: &mut KernelWorkspace) -> ReplanRun {
        run.replan(csr, Arc::clone(run.rank()), ReplanDelta::Cap(cap), ws)
            .unwrap()
    }

    /// The first round whose smallest rejected value `cap` admits: a cap
    /// resume restarts exactly there.
    fn cap_divergence(run: &ReplanRun, cap: f64) -> Option<usize> {
        run.log
            .rounds
            .reject_min
            .iter()
            .position(|&v| v.is_finite() && approx_le(v, cap))
    }

    #[test]
    fn checkpointed_cold_run_matches_the_plain_kernel() {
        let (inst, lb) = capped_instance();
        let csr = inst.csr();
        let rank = Arc::new(index_priority(inst.n()));
        for &delta in &[2.25, 3.0, 8.0] {
            let cap = delta * lb;
            let run = capped_cold(&csr, inst.m(), &rank, cap);
            let mut adm = MemoryCapAdmission::new(inst.m(), cap);
            let direct = event_driven_schedule(&inst, &rank, &mut adm).unwrap();
            assert_eq!(run.outcome().schedule, direct.schedule, "∆={delta}");
            assert_eq!(run.outcome().marked, direct.marked);
            assert_eq!(run.replayed_rounds(), inst.n());
        }
    }

    #[test]
    fn resume_at_a_larger_cap_is_bit_identical_to_a_cold_run() {
        let (inst, lb) = capped_instance();
        let (csr, m) = (inst.csr(), inst.m());
        let rank = Arc::new(index_priority(inst.n()));
        let mut chain = capped_cold(&csr, m, &rank, 2.25 * lb);
        for &delta in &[2.5, 2.75, 3.5, 6.0, 100.0] {
            let cap = delta * lb;
            let divergence = cap_divergence(&chain, cap);
            chain = raise_cap(&chain, &csr, cap, &mut KernelWorkspace::new());
            let cold = capped_cold(&csr, m, &rank, cap);
            assert_eq!(
                chain.outcome().schedule,
                cold.outcome().schedule,
                "∆={delta}"
            );
            assert_eq!(chain.outcome().marked, cold.outcome().marked, "∆={delta}");
            assert_eq!(chain.cap(), Some(cap), "∆={delta}");
            let expected = divergence.map_or(0, |d| inst.n() - d);
            assert_eq!(chain.replayed_rounds(), expected, "∆={delta}");
        }
    }

    #[test]
    fn resume_through_a_shared_workspace_matches_fresh_workspaces() {
        let (inst, lb) = capped_instance();
        let (csr, m) = (inst.csr(), inst.m());
        let rank = Arc::new(index_priority(inst.n()));
        let mut ws = KernelWorkspace::new();
        let mut chain =
            ReplanRun::cold(&csr, m, Arc::clone(&rank), Some(2.25 * lb), &mut ws).unwrap();
        for &delta in &[2.5, 3.5, 6.0] {
            let cap = delta * lb;
            chain = raise_cap(&chain, &csr, cap, &mut ws);
            let cold = capped_cold(&csr, m, &rank, cap);
            assert_eq!(
                chain.outcome().schedule,
                cold.outcome().schedule,
                "∆={delta}"
            );
            assert_eq!(chain.outcome().marked, cold.outcome().marked, "∆={delta}");
        }
    }

    #[test]
    fn resume_without_divergence_replays_nothing() {
        let (inst, lb) = capped_instance();
        let (csr, m) = (inst.csr(), inst.m());
        let rank = Arc::new(index_priority(inst.n()));
        // A huge cap never rejects, so any still-larger cap diverges
        // nowhere and the resume reuses the previous outcome wholesale.
        let run = capped_cold(&csr, m, &rank, 1e6 * lb);
        let next = raise_cap(&run, &csr, 2e6 * lb, &mut KernelWorkspace::new());
        assert_eq!(next.replayed_rounds(), 0);
        assert_eq!(next.outcome().schedule, run.outcome().schedule);
        assert_eq!(next.cap(), Some(2e6 * lb));
    }

    #[test]
    fn resume_at_a_smaller_cap_falls_back_to_a_cold_run() {
        let (inst, lb) = capped_instance();
        let (csr, m) = (inst.csr(), inst.m());
        let rank = Arc::new(index_priority(inst.n()));
        let run = capped_cold(&csr, m, &rank, 4.0 * lb);
        let back = raise_cap(&run, &csr, 2.25 * lb, &mut KernelWorkspace::new());
        let cold = capped_cold(&csr, m, &rank, 2.25 * lb);
        assert_eq!(back.outcome().schedule, cold.outcome().schedule);
        assert_eq!(back.replayed_rounds(), inst.n());
        assert_eq!(back.cap(), Some(2.25 * lb));
    }

    #[test]
    fn a_cap_on_an_open_run_falls_back_to_a_cold_capped_run() {
        let m = 4;
        let csr = tie_staged(7, 90, m).csr();
        let n = csr.n();
        let rank = Arc::new(index_priority(n));
        let cap = memory_cap(&csr, m, 2.0);
        let mut ws = KernelWorkspace::new();
        let open = ReplanRun::cold(&csr, m, Arc::clone(&rank), None, &mut ws).unwrap();
        assert_eq!(
            open.first_affected(&csr, &rank, ReplanDelta::Cap(cap)),
            ReplanStart::Cold
        );
        let capped = raise_cap(&open, &csr, cap, &mut ws);
        let cold = capped_cold(&csr, m, &rank, cap);
        assert_same_outcome(capped.outcome(), cold.outcome(), "cap on an open run");
        assert_eq!(capped.replayed_rounds(), n);
        assert_eq!(capped.cap(), Some(cap));
        // The cap binds on this instance: the capped run rejects probes.
        assert!(cold.log.rounds.reject_min.iter().any(|v| v.is_finite()));
    }

    // --- ReplanRun: warm-starting across instance deltas -------------

    /// Tiny deterministic generator for the replan streams (the heavier
    /// proptest differential suite lives in the workspace-level tests).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, bound: u64) -> u64 {
            self.next() % bound.max(1)
        }

        fn cost(&mut self) -> f64 {
            1.0 + (self.below(1000) as f64) / 16.0
        }
    }

    fn replan_base() -> sws_dag::CsrDag {
        use sws_workloads::{dagsets, TaskDistribution};
        let inst = dagsets::dag_workload(
            dagsets::DagFamily::LayeredRandom,
            120,
            4,
            TaskDistribution::Uncorrelated,
            &mut sws_workloads::seeded_rng(0x5EED),
        );
        inst.csr()
    }

    /// Asserts a replan result is bit-identical to a cold run of the
    /// mutated instance (start times compared by bit pattern).
    fn assert_matches_cold(warm: &ReplanRun, csr: &CsrDag, m: usize, cap: Option<f64>, what: &str) {
        let mut ws = KernelWorkspace::new();
        let rank = Arc::new(index_priority(csr.n()));
        let cold = ReplanRun::cold(csr, m, rank, cap, &mut ws).unwrap();
        assert_eq!(warm.outcome().schedule, cold.outcome().schedule, "{what}");
        assert_eq!(warm.outcome().marked, cold.outcome().marked, "{what}");
        for i in 0..csr.n() {
            assert_eq!(
                warm.outcome().schedule.start(i).to_bits(),
                cold.outcome().schedule.start(i).to_bits(),
                "{what}: start of task {i}"
            );
        }
    }

    #[test]
    fn replan_arrival_stream_is_bit_identical_to_cold() {
        let mut csr = replan_base();
        let m = 4;
        let mut ws = KernelWorkspace::new();
        let mut run =
            ReplanRun::cold(&csr, m, Arc::new(index_priority(csr.n())), None, &mut ws).unwrap();
        let mut rng = XorShift(0x9E3779B97F4A7C15);
        let mut warm_hits = 0usize;
        for _ in 0..40 {
            let n = csr.n();
            let mut preds = Vec::new();
            for _ in 0..rng.below(4) {
                let u = rng.below(n as u64) as u32;
                if !preds.contains(&u) {
                    preds.push(u);
                }
            }
            csr.apply_delta(&sws_dag::CsrDelta::AddTask {
                preds,
                p: rng.cost(),
                s: rng.cost(),
            })
            .unwrap();
            let rank = Arc::new(index_priority(csr.n()));
            let first = match run.first_affected(&csr, &rank, ReplanDelta::Arrival) {
                ReplanStart::From(first) => first,
                other => panic!("an index-ranked arrival replays, got {other:?}"),
            };
            run = run
                .replan(&csr, rank, ReplanDelta::Arrival, &mut ws)
                .unwrap();
            assert_matches_cold(&run, &csr, m, None, "arrival");
            assert_eq!(run.replayed_rounds(), csr.n() - first);
            if run.replayed_rounds() < csr.n() {
                warm_hits += 1;
            }
        }
        assert!(
            warm_hits > 0,
            "arrival replans never warm-started over 40 events"
        );
    }

    #[test]
    fn replan_recost_p_replays_from_the_placement_round() {
        let mut csr = replan_base();
        let m = 4;
        let mut ws = KernelWorkspace::new();
        let rank = Arc::new(index_priority(csr.n()));
        let mut run = ReplanRun::cold(&csr, m, Arc::clone(&rank), None, &mut ws).unwrap();
        let mut rng = XorShift(0xA5A5A5A5DEADBEEF);
        for _ in 0..25 {
            let i = rng.below(csr.n() as u64) as u32;
            let placed_at = run.log.place_round[i as usize] as usize;
            csr.apply_delta(&sws_dag::CsrDelta::Recost {
                task: i,
                p: Some(rng.cost()),
                s: None,
            })
            .unwrap();
            run = run
                .replan(
                    &csr,
                    Arc::clone(&rank),
                    ReplanDelta::Recost {
                        task: i,
                        p_changed: true,
                        s_shift: CostShift::Unchanged,
                    },
                    &mut ws,
                )
                .unwrap();
            assert_matches_cold(&run, &csr, m, None, "recost-p");
            assert_eq!(
                run.replayed_rounds(),
                csr.n() - placed_at,
                "an uncapped p re-estimate replays from its placement round"
            );
        }
    }

    #[test]
    fn uncapped_storage_recost_replays_nothing() {
        let mut csr = replan_base();
        let m = 4;
        let mut ws = KernelWorkspace::new();
        let rank = Arc::new(index_priority(csr.n()));
        let run = ReplanRun::cold(&csr, m, Arc::clone(&rank), None, &mut ws).unwrap();
        csr.apply_delta(&sws_dag::CsrDelta::Recost {
            task: 17,
            p: None,
            s: Some(123.456),
        })
        .unwrap();
        let next = run
            .replan(
                &csr,
                rank,
                ReplanDelta::Recost {
                    task: 17,
                    p_changed: false,
                    s_shift: CostShift::Raised,
                },
                &mut ws,
            )
            .unwrap();
        assert_eq!(next.replayed_rounds(), 0);
        assert_matches_cold(&next, &csr, m, None, "uncapped recost-s");
    }

    #[test]
    fn capped_replan_stream_is_bit_identical_to_cold() {
        let mut csr = replan_base();
        let m = 4;
        let total_s: f64 = (0..csr.n()).map(|i| csr.s(i)).sum();
        let cap = Some(2.25 * (total_s / m as f64));
        let mut ws = KernelWorkspace::new();
        let mut run =
            ReplanRun::cold(&csr, m, Arc::new(index_priority(csr.n())), cap, &mut ws).unwrap();
        let mut rng = XorShift(0xC0FFEE0DDF00D);
        for ev in 0..40 {
            let n = csr.n() as u64;
            let (delta, kdelta) = match rng.below(3) {
                0 => {
                    let mut preds = Vec::new();
                    for _ in 0..rng.below(3) {
                        let u = rng.below(n) as u32;
                        if !preds.contains(&u) {
                            preds.push(u);
                        }
                    }
                    (
                        sws_dag::CsrDelta::AddTask {
                            preds,
                            p: rng.cost(),
                            s: rng.cost(),
                        },
                        ReplanDelta::Arrival,
                    )
                }
                1 => {
                    let i = rng.below(n) as u32;
                    (
                        sws_dag::CsrDelta::Recost {
                            task: i,
                            p: Some(rng.cost()),
                            s: None,
                        },
                        ReplanDelta::Recost {
                            task: i,
                            p_changed: true,
                            s_shift: CostShift::Unchanged,
                        },
                    )
                }
                _ => {
                    let i = rng.below(n) as u32;
                    let old = csr.s(i as usize);
                    let new = old * if rng.below(2) == 0 { 0.75 } else { 1.25 };
                    let shift = if new < old {
                        CostShift::Lowered
                    } else {
                        CostShift::Raised
                    };
                    (
                        sws_dag::CsrDelta::Recost {
                            task: i,
                            p: None,
                            s: Some(new),
                        },
                        ReplanDelta::Recost {
                            task: i,
                            p_changed: false,
                            s_shift: shift,
                        },
                    )
                }
            };
            csr.apply_delta(&delta).unwrap();
            let rank = Arc::new(index_priority(csr.n()));
            let expected = match run.first_affected(&csr, &rank, kdelta) {
                ReplanStart::From(first) => csr.n() - first,
                ReplanStart::Reuse => 0,
                ReplanStart::Cold => panic!("index ranks always match the records"),
            };
            match run.replan(&csr, Arc::clone(&rank), kdelta, &mut ws) {
                Ok(next) => {
                    assert_matches_cold(&next, &csr, m, cap, &format!("capped event {ev}"));
                    assert_eq!(next.replayed_rounds(), expected, "capped event {ev}");
                    run = next;
                }
                Err(_) => {
                    // The mutated instance became infeasible at this cap:
                    // the from-scratch oracle must refuse it too.
                    let mut cold_ws = KernelWorkspace::new();
                    assert!(
                        ReplanRun::cold(&csr, m, rank, cap, &mut cold_ws).is_err(),
                        "warm run errored where a cold run succeeds (event {ev})"
                    );
                    return;
                }
            }
        }
    }

    #[test]
    fn replan_with_a_mismatched_rank_falls_back_to_cold() {
        let mut csr = replan_base();
        let m = 4;
        let mut ws = KernelWorkspace::new();
        let run =
            ReplanRun::cold(&csr, m, Arc::new(index_priority(csr.n())), None, &mut ws).unwrap();
        csr.apply_delta(&sws_dag::CsrDelta::Recost {
            task: 3,
            p: Some(50.0),
            s: None,
        })
        .unwrap();
        // A rank the run was not recorded under: reversed indices.
        let n = csr.n();
        let reversed: Arc<PriorityRank> = Arc::new((0..n).map(|i| (n - 1 - i) as u32).collect());
        let next = run
            .replan(
                &csr,
                Arc::clone(&reversed),
                ReplanDelta::Recost {
                    task: 3,
                    p_changed: true,
                    s_shift: CostShift::Unchanged,
                },
                &mut ws,
            )
            .unwrap();
        assert_eq!(next.replayed_rounds(), n, "mismatched rank must run cold");
        let mut cold_ws = KernelWorkspace::new();
        let cold = ReplanRun::cold(&csr, m, reversed, None, &mut cold_ws).unwrap();
        assert_eq!(next.outcome().schedule, cold.outcome().schedule);
    }

    // --- Restore: the state before any round, from the placement log ---

    /// Small-integer costs, signed zeros included, so ready times often
    /// tie with the minimum load.
    const TIE_P: [f64; 5] = [-0.0, 0.0, 1.0, 2.0, 3.0];
    const TIE_S: [f64; 4] = [-0.0, 0.0, 1.0, 4.0];

    /// A seeded layered DAG with [`TIE_P`]/[`TIE_S`] costs.
    fn tie_layered(seed: u64, n: usize) -> sws_dag::TaskGraph {
        let mut rng = XorShift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        layered_random(n, 6, 0.3, &mut sws_workloads::seeded_rng(seed))
            .with_costs(|_| sws_model::task::Task {
                p: TIE_P[rng.below(5) as usize],
                s: TIE_S[rng.below(4) as usize],
            })
            .unwrap()
    }

    /// The storage-heavy staged shape of
    /// [`sws_workloads::dagsets::storage_heavy_staged`], on which a
    /// memory cap binds, re-costed with small integers and signed zeros
    /// (long tasks store little, short ones much) so ready times tie
    /// with loads.
    fn tie_staged(seed: u64, n: usize, m: usize) -> sws_dag::TaskGraph {
        let staged = sws_workloads::dagsets::storage_heavy_staged(
            n,
            m,
            &mut sws_workloads::seeded_rng(seed),
        );
        let mut rng = XorShift(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
        let mut pick = |xs: &[f64]| xs[rng.below(xs.len() as u64) as usize];
        staged
            .graph()
            .with_costs(|i| {
                let t = staged.tasks().get(i);
                let (p, s) = if t.p >= 50.0 {
                    (pick(&[3.0, 4.0, 5.0]), pick(&[-0.0, 0.0, 1.0]))
                } else if t.s >= 10.0 {
                    (pick(&[-0.0, 0.0, 1.0]), pick(&[4.0, 6.0]))
                } else {
                    (pick(&[1.0, 2.0]), pick(&[-0.0, 1.0]))
                };
                sws_model::task::Task { p, s }
            })
            .unwrap()
    }

    /// `factor` times the Graham memory bound `max(Σs/m, max s)`.
    fn memory_cap(csr: &CsrDag, m: usize, factor: f64) -> f64 {
        let total: f64 = (0..csr.n()).map(|i| csr.s(i)).sum();
        let largest = (0..csr.n()).map(|i| csr.s(i)).fold(0.0, f64::max);
        factor * (total / m as f64).max(largest)
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Runnable slots and sorted pending keys of `state` as stored.
    fn stored_split(state: &EngineState) -> (Vec<u32>, Vec<u128>) {
        let l0 = &state.runnable.l0;
        let runnable = (0..l0.len() * 64)
            .filter(|&s| l0[s / 64] >> (s % 64) & 1 == 1)
            .map(|s| s as u32)
            .collect();
        let mut pending = state.pending.heap.clone();
        pending.sort_unstable();
        (runnable, pending)
    }

    /// [`stored_split`] after the migration the next round starts with:
    /// pending entries ready at or below the threshold are runnable.
    fn canonical_split(state: &EngineState) -> (Vec<u32>, Vec<u128>) {
        let (mut runnable, stored) = stored_split(state);
        let theta = state.threshold();
        let (migrating, pending): (Vec<u128>, Vec<u128>) = stored
            .into_iter()
            .partition(|&k| approx_le(pend_ready(k), theta));
        runnable.extend(
            migrating
                .iter()
                .map(|&k| state.slot_of_task[task_of(pend_pack(k)) as usize]),
        );
        runnable.sort_unstable();
        (runnable, pending)
    }

    fn assert_same_outcome(got: &KernelOutcome, expect: &KernelOutcome, what: &str) {
        let n = expect.schedule.n();
        assert_eq!(got.schedule.n(), n, "{what}");
        for i in 0..n {
            assert_eq!(
                got.schedule.start(i).to_bits(),
                expect.schedule.start(i).to_bits(),
                "{what}: start of task {i}"
            );
            assert_eq!(
                got.schedule.proc_of(i),
                expect.schedule.proc_of(i),
                "{what}: processor of task {i}"
            );
        }
        assert_eq!(got.marked, expect.marked, "{what}: marks");
    }

    /// Restores `log` over `csr` before round `d` and checks the state
    /// against a fresh run of `csr` stepped `d` rounds, then steps it to
    /// the end and checks the schedule against `expect` bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn check_restore(
        csr: &CsrDag,
        m: usize,
        cap: Option<f64>,
        rank: &Arc<PriorityRank>,
        log: &RunLog,
        d: usize,
        expect: &KernelOutcome,
        ws: &mut KernelWorkspace,
    ) {
        let n = csr.n();
        let mut fresh = KernelWorkspace::new();
        fresh.state.init(csr, m, rank);
        let mut fresh_adm = ReplanAdmission::new(cap, || vec![0.0; m]);
        for _ in 0..d {
            fresh
                .state
                .step(
                    csr,
                    rank,
                    &mut fresh_adm,
                    &mut fresh.scratch,
                    &mut fresh.counters,
                )
                .unwrap();
        }

        ws.state.restore(csr, m, rank, log, d);
        let (st, fr) = (&ws.state, &fresh.state);
        assert_eq!(st.round, d);
        assert_eq!(
            stored_split(st),
            canonical_split(fr),
            "ready split before round {d}"
        );
        assert_eq!(
            bits(st.procs.loads()),
            bits(fr.procs.loads()),
            "loads before round {d}"
        );
        assert_eq!(
            st.procs.min(),
            fr.procs.min(),
            "least loaded before round {d}"
        );
        assert_eq!(st.mark_round, fr.mark_round, "marks before round {d}");
        assert_eq!(
            st.floor.to_bits(),
            fr.floor.to_bits(),
            "wave floor before round {d}"
        );
        for v in log.rounds.placed[d..]
            .iter()
            .map(|&t| t as usize)
            .chain(log.rounds.placed.len()..n)
        {
            let (a, b) = (st.preds[v], fr.preds[v]);
            assert_eq!(
                (a.ready.to_bits(), a.remaining),
                (b.ready.to_bits(), b.remaining),
                "readiness of unplaced task {v} before round {d}"
            );
        }
        let memsize = log.memsize_before(csr, m, d);
        if let ReplanAdmission::Capped { inner, .. } = &fresh_adm {
            assert_eq!(
                bits(&memsize),
                bits(&inner.memsize),
                "memory before round {d}"
            );
        }

        let mut adm = ReplanAdmission::new(cap, || memsize);
        ws.scratch.clear();
        while ws.state.round < n {
            ws.state
                .step(csr, rank, &mut adm, &mut ws.scratch, &mut ws.counters)
                .unwrap();
        }
        let out = ws.state.finish(m).unwrap();
        assert_same_outcome(&out, expect, &format!("replay from round {d}"));
    }

    #[test]
    fn restored_state_matches_a_fresh_run_at_every_round() {
        let m = 4;
        let mut ws = KernelWorkspace::new();
        let (mut marked, mut rejected, mut waves) = (false, false, false);
        for seed in 1..=3u64 {
            let staged = sws_workloads::dagsets::storage_heavy_staged(
                90,
                m,
                &mut sws_workloads::seeded_rng(seed),
            );
            for graph in [
                tie_layered(seed, 90),
                tie_staged(seed, 90, m),
                staged.graph().clone(),
            ] {
                let csr = graph.csr();
                let rank = Arc::new(index_priority(csr.n()));
                for cap in [None, Some(memory_cap(&csr, m, 2.0))] {
                    let run = ReplanRun::cold(&csr, m, Arc::clone(&rank), cap, &mut ws).unwrap();
                    for d in 0..=csr.n() {
                        check_restore(&csr, m, cap, &rank, &run.log, d, run.outcome(), &mut ws);
                    }
                    marked |= run.outcome().marked.contains(&true);
                    rejected |= run.log.rounds.reject_min.iter().any(|v| v.is_finite());
                    waves |= !run.log.rounds.floors.is_empty();
                }
            }
        }
        // The instances must exercise the capped bookkeeping and the
        // wave floor.
        assert!(marked && rejected, "no capped run marked or rejected");
        assert!(waves, "no run promoted a wave");
    }

    /// Stages of `w` tasks behind twin joins: join `a` (`p = 1`) and
    /// join `b`, which ends `1e-11` later — well inside the comparison
    /// tolerance — and is the one the next stage waits on. Returns the
    /// graph and the `a` joins.
    fn twin_join_staged(stages: usize, w: usize) -> (sws_dag::TaskGraph, Vec<u32>) {
        let (mut p, mut s, mut edges, mut joins_a) = (vec![], vec![], vec![], vec![]);
        let mut join_b = None;
        for st in 0..stages {
            let first = p.len();
            for j in 0..w {
                p.push(2.0 + ((st + j) % 3) as f64);
                s.push(1.0 + (j % 4) as f64);
                edges.extend(join_b.map(|b| (b, first + j)));
                edges.extend([(first + j, first + w), (first + j, first + w + 1)]);
            }
            p.extend([1.0, 1.0 + 1e-11]);
            s.extend([1.0, 1.0]);
            joins_a.push((first + w) as u32);
            join_b = Some(first + w + 1);
        }
        let tasks = sws_model::task::TaskSet::from_ps(&p, &s).unwrap();
        (
            sws_dag::TaskGraph::from_edges(tasks, &edges).unwrap(),
            joins_a,
        )
    }

    #[test]
    fn an_arrival_tying_a_wave_floor_replays_from_the_promotion() {
        let m = 4;
        let (graph, joins_a) = twin_join_staged(6, 6);
        let csr = graph.csr();
        let rank = Arc::new(index_priority(csr.n()));
        let mut ws = KernelWorkspace::new();
        let run = ReplanRun::cold(&csr, m, Arc::clone(&rank), None, &mut ws).unwrap();
        // Fed by an `a` join, the arrival is ready just before the next
        // stage: it sets a lower floor at that stage's promotion without
        // ever winning a round there.
        let mut mutated = csr.clone();
        mutated
            .apply_delta(&sws_dag::CsrDelta::AddTask {
                preds: vec![joins_a[2]],
                p: 1.0,
                s: 1.0,
            })
            .unwrap();
        let mrank = Arc::new(index_priority(mutated.n()));
        let (rho, r0) = run.ready_info(&mutated, mutated.n() - 1);
        let beaten = run.first_beaten_round(r0, csr.n(), rho).unwrap();
        let first = match run.first_affected(&mutated, &mrank, ReplanDelta::Arrival) {
            ReplanStart::From(first) => first,
            other => panic!("an index-ranked arrival replays, got {other:?}"),
        };
        assert!(first < beaten, "the tied wave must start the replay");
        let expect = ReplanRun::cold(&mutated, m, Arc::clone(&mrank), None, &mut ws).unwrap();
        for d in 0..=first {
            check_restore(
                &mutated,
                m,
                None,
                &mrank,
                &run.log,
                d,
                expect.outcome(),
                &mut ws,
            );
        }
        let warm = run
            .replan(&mutated, mrank, ReplanDelta::Arrival, &mut ws)
            .unwrap();
        assert_eq!(warm.replayed_rounds(), mutated.n() - first);
        assert_same_outcome(warm.outcome(), expect.outcome(), "tied arrival");
    }

    #[test]
    fn round_counters_are_exact_on_a_capped_staged_run() {
        let inst = sws_workloads::dagsets::storage_heavy_staged(
            2800,
            16,
            &mut sws_workloads::seeded_rng(7),
        );
        let (csr, m) = (inst.csr(), inst.m());
        let rank = index_priority(inst.n());
        let mut ws = KernelWorkspace::new();
        let mut adm = MemoryCapAdmission::new(m, 2.01 * inst.mmax_lower_bound());
        event_driven_schedule_csr(&csr, m, &rank, &mut adm, &mut ws).unwrap();
        let capped = KernelCounters {
            rounds: 2784,
            fast_rounds: 612,
            promotions: 231,
            runnable_pops: 5335,
            pending_pops: 2761,
            probes: 12230,
        };
        assert_eq!(ws.counters(), capped);
        // Each stage is promoted once and then leaves the pending heap
        // for good: under one pending pop per round.
        assert!(capped.pending_pops <= capped.rounds);

        // Counters accumulate across runs; uncapped, every round of this
        // instance takes the fast path.
        event_driven_schedule_csr(&csr, m, &rank, &mut Unrestricted, &mut ws).unwrap();
        let c = ws.counters();
        assert_eq!(c.rounds, 2 * capped.rounds);
        assert_eq!(c.fast_rounds - capped.fast_rounds, capped.rounds);
        assert_eq!(c.promotions, 2 * capped.promotions);
    }

    #[test]
    fn restore_over_a_mutated_instance_matches_a_fresh_run_up_to_the_first_affected_round() {
        let m = 4;
        let mut ws = KernelWorkspace::new();
        let csr = tie_staged(11, 90, m).csr();
        let n = csr.n();
        let rank = Arc::new(index_priority(n));
        for cap in [None, Some(memory_cap(&csr, m, 2.0))] {
            let run = ReplanRun::cold(&csr, m, Arc::clone(&rank), cap, &mut ws).unwrap();
            let mid = run.log.rounds.placed[n / 2];
            let mutations = [
                (
                    sws_dag::CsrDelta::AddTask {
                        preds: vec![mid],
                        p: 1.0,
                        s: -0.0,
                    },
                    ReplanDelta::Arrival,
                ),
                (
                    sws_dag::CsrDelta::Recost {
                        task: mid,
                        p: Some(csr.p(mid as usize) + 2.0),
                        s: None,
                    },
                    ReplanDelta::Recost {
                        task: mid,
                        p_changed: true,
                        s_shift: CostShift::Unchanged,
                    },
                ),
            ];
            for (delta, kdelta) in mutations {
                let mut mutated = csr.clone();
                mutated.apply_delta(&delta).unwrap();
                let mrank = Arc::new(index_priority(mutated.n()));
                let first = match run.first_affected(&mutated, &mrank, kdelta) {
                    ReplanStart::From(first) => first,
                    other => panic!("{kdelta:?} must replay, got {other:?}"),
                };
                assert!(first > 0, "{kdelta:?} affects round 0");
                let mut cold_ws = KernelWorkspace::new();
                let expect =
                    ReplanRun::cold(&mutated, m, Arc::clone(&mrank), cap, &mut cold_ws).unwrap();
                for d in 0..=first {
                    check_restore(
                        &mutated,
                        m,
                        cap,
                        &mrank,
                        &run.log,
                        d,
                        expect.outcome(),
                        &mut ws,
                    );
                }
            }
        }
    }

    #[test]
    fn resume_replays_exactly_from_the_divergence_round() {
        let m = 4;
        let csr = tie_staged(3, 120, m).csr();
        let n = csr.n();
        let rank = Arc::new(index_priority(n));
        let lb = memory_cap(&csr, m, 1.0);
        let mut chain = capped_cold(&csr, m, &rank, 2.0 * lb);
        let mut partial = 0;
        for k in 1..=24 {
            let cap = (2.0 + k as f64 / 8.0) * lb;
            let divergence = cap_divergence(&chain, cap);
            chain = raise_cap(&chain, &csr, cap, &mut KernelWorkspace::new());
            let cold = capped_cold(&csr, m, &rank, cap);
            assert_same_outcome(chain.outcome(), cold.outcome(), &format!("cap {cap}"));
            let expected = divergence.map_or(0, |d| n - d);
            assert_eq!(chain.replayed_rounds(), expected, "cap {cap}");
            partial += usize::from(expected > 0 && expected < n);
        }
        assert!(partial > 0, "no resume replayed a proper suffix");
    }

    #[test]
    fn resumes_through_a_stale_workspace_match_cold_runs() {
        let m = 4;
        let csr = tie_staged(5, 90, m).csr();
        let n = csr.n();
        let rank = Arc::new(index_priority(n));
        let lb = memory_cap(&csr, m, 1.0);
        let larger = DagInstance::new(gaussian_elimination(16), 7).unwrap();
        let smaller = DagInstance::new(chain(5), 2).unwrap();
        let mut cold_ws = KernelWorkspace::new();
        let mut ws = KernelWorkspace::new();
        let session = ReplanRun::cold(&csr, m, Arc::clone(&rank), Some(2.0 * lb), &mut ws).unwrap();
        let mid = session.log.rounds.placed[n / 2];
        let mut recosted = csr.clone();
        recosted
            .apply_delta(&sws_dag::CsrDelta::Recost {
                task: mid,
                p: Some(csr.p(mid as usize) + 1.0),
                s: None,
            })
            .unwrap();
        let recost = ReplanDelta::Recost {
            task: mid,
            p_changed: true,
            s_shift: CostShift::Unchanged,
        };
        let cap = 2.5 * lb;
        let cold = capped_cold(&csr, m, &rank, cap);
        let cold_replan = ReplanRun::cold(
            &recosted,
            m,
            Arc::clone(&rank),
            Some(2.0 * lb),
            &mut cold_ws,
        )
        .unwrap();
        for stale in ["larger instance", "smaller instance", "detached run"] {
            let leave_behind = |ws: &mut KernelWorkspace| match stale {
                "larger instance" => {
                    let rank = index_priority(larger.n());
                    event_driven_schedule_csr(
                        &larger.csr(),
                        larger.m(),
                        &rank,
                        &mut Unrestricted,
                        ws,
                    )
                    .unwrap();
                }
                "smaller instance" => {
                    let rank = index_priority(smaller.n());
                    event_driven_schedule_csr(
                        &smaller.csr(),
                        smaller.m(),
                        &rank,
                        &mut Unrestricted,
                        ws,
                    )
                    .unwrap();
                }
                _ => {
                    let mut adm = MemoryCapAdmission::new(m, 7.0 * lb);
                    event_driven_schedule_csr(&csr, m, &rank, &mut adm, ws).unwrap();
                }
            };
            leave_behind(&mut ws);
            let warm = raise_cap(&session, &csr, cap, &mut ws);
            assert!(
                warm.replayed_rounds() > 0 && warm.replayed_rounds() < n,
                "the cap resume must restore mid-run"
            );
            assert_same_outcome(
                warm.outcome(),
                cold.outcome(),
                &format!("resume after a {stale}"),
            );

            leave_behind(&mut ws);
            let warm = session
                .replan(&recosted, Arc::clone(&rank), recost, &mut ws)
                .unwrap();
            assert!(warm.replayed_rounds() > 0 && warm.replayed_rounds() < n);
            assert_same_outcome(
                warm.outcome(),
                cold_replan.outcome(),
                &format!("replan after a {stale}"),
            );
        }
    }
}
