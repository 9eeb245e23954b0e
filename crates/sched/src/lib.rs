//! # `ssbyz-sched` — the shared event scheduler
//!
//! Both executors of the protocol stack are timeout machines: the
//! deterministic simulator (`ssbyz-simnet`) schedules message deliveries,
//! engine ticks and precise `WakeAt` deadlines on one global queue, and
//! the threaded runtime (`ssbyz-runtime`) delays in-flight messages in a
//! router thread. Before this crate both paid an O(log E) `BinaryHeap`
//! push per event — and `WakeAt` rescheduling left stale entries to be
//! filtered at pop, so a corrupted initial timer state (the
//! self-stabilizing setting's starting point) could keep the queue
//! arbitrarily large.
//!
//! [`TimerWheel`] replaces the heap with a hierarchical timer wheel:
//! fixed-size levels bucketed by power-of-two horizons, O(1) insert and
//! O(1) cancel through generation-counted [`TimerHandle`]s, and a
//! far-future overflow level so no due time is ever rejected. Pop order
//! is **exactly** the heap's `(due, seq)` order — FIFO within a tick —
//! so simulation traces are bit-identical to the heap scheduler they
//! replace; `crates/reference/tests/sched_equivalence.rs` proves this
//! against `ssbyz_reference::ReferenceQueue`, the retained heap
//! implementation that doubles as the bench baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod wheel;

pub use wheel::TimerWheel;

/// An expired queue entry, in global `(due, seq)` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expired<T> {
    /// Absolute due time in nanoseconds.
    pub due: u64,
    /// Insertion sequence number (the FIFO tie-break within a due time).
    pub seq: u64,
    /// The scheduled payload.
    pub payload: T,
}

/// An opaque handle naming one scheduled entry, used to cancel it.
///
/// Handles are generation-counted: a handle kept after its entry fired
/// (or was cancelled) is *stale* and cancels nothing, even if the slot is
/// later reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(pub(crate) u64);

impl TimerHandle {
    /// Rebuilds a handle from the raw bits [`TimerHandle::raw`] returned.
    /// The bits are opaque to callers; this pair exists so that
    /// [`EventQueue`] implementations outside this crate can mint and read
    /// their own handles.
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        TimerHandle(raw)
    }

    /// The raw handle bits.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    pub(crate) fn pack(idx: u32, gen: u32) -> Self {
        TimerHandle((u64::from(gen) << 32) | u64::from(idx))
    }

    pub(crate) fn idx(self) -> u32 {
        (self.0 & 0xffff_ffff) as u32
    }

    pub(crate) fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// The common surface of the wheel and the reference heap: a monotone
/// event queue ordered by `(due, seq)` with cancellation.
///
/// `peek_due`/`pop` take `&mut self` because both implementations may
/// reorganise internal state while locating the minimum (the wheel
/// cascades levels; the reference heap pops tombstones).
pub trait EventQueue<T> {
    /// Schedules `payload` at absolute time `due` (nanoseconds). Entries
    /// inserted with equal `due` pop in insertion (FIFO) order.
    fn insert(&mut self, due: u64, payload: T) -> TimerHandle;

    /// Cancels a previously inserted entry. Returns `false` if the
    /// handle is stale (already fired or cancelled).
    fn cancel(&mut self, handle: TimerHandle) -> bool;

    /// The due time of the next entry, if any.
    fn peek_due(&mut self) -> Option<u64>;

    /// Removes and returns the globally next entry by `(due, seq)`.
    fn pop(&mut self) -> Option<Expired<T>>;

    /// Number of live (not cancelled, not fired) entries.
    fn len(&self) -> usize;

    /// Whether no live entries remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of physical entries held, **including** cancelled garbage
    /// not yet reclaimed. For the wheel this equals [`EventQueue::len`]
    /// (cancellation unlinks immediately); for the reference heap it
    /// exceeds `len` by the tombstones awaiting lazy filtering at pop.
    fn occupancy(&self) -> usize;
}
