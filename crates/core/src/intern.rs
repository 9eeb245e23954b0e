//! Per-execution value interning.
//!
//! Daliot–Dolev executions re-broadcast the same few values heavily: every
//! support/approve/ready wave, every `msgd-broadcast` echo storm and every
//! decide relay names a value the node has already seen. The pre-interning
//! engine paid a `BTreeMap<V, …>` tree walk for each of those lookups — in
//! `InitiatorAccept::values`, `MsgdBroadcast::triplets`,
//! `Agreement::accepted` and the General-side `last_per_value` guard. That
//! value-keyed dispatch survives as the golden model in the dev-only
//! `ssbyz-reference` crate.
//!
//! [`ValueInterner`] removes those walks: a value is hashed **once** at the
//! engine boundary ([`Engine::on_message_ref`](crate::Engine::on_message_ref)
//! / [`Engine::initiate`](crate::Engine::initiate)) and mapped to a dense
//! [`ValueId`]; every per-value table downstream is a [`ValueIdMap`] — a
//! flat slot vector indexed by the id — so the per-delivery value lookup is
//! an array index. The arena holds each value behind an [`Arc`]: inbound
//! wire payloads (already `Arc`-shared) enter via
//! [`ValueInterner::intern_shared`] as a reference bump even on first
//! sight, and output emission resolves ids back to shared handles via
//! [`ValueInterner::resolve_shared`] — the payload bytes are never copied
//! on either edge of the engine.
//!
//! ## Reclamation
//!
//! A Byzantine value-spammer must not grow the intern table without bound
//! (the bounded-impact requirement of the self-stabilizing setting): ids
//! whose state has fully decayed are **reclaimed**. The engine runs a
//! mark/sweep on its cleanup cadence — [`ValueInterner::begin_sweep`],
//! [`ValueInterner::mark`] for every id still referenced by live protocol
//! state, [`ValueInterner::finish_sweep`] — and reclaimed slots go on a
//! **generation-counted free-list**: reusing a slot bumps its generation,
//! so a (buggy) stale id can be detected by the debug assertions rather
//! than silently aliasing the new occupant. Because every stored id is
//! marked, no live state can ever observe a reused slot.

use core::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ssbyz_types::Value;

/// A deterministic multiply-fold hasher (the Firefox/rustc "Fx" scheme).
///
/// Interning must be deterministic run-to-run (the simulator and the
/// corruption harness both rely on reproducible engine state), which rules
/// out randomly-keyed hashing — and an unkeyed SipHash buys no adversarial
/// collision resistance while costing several nanoseconds per probe on the
/// per-delivery path. Adversarially colliding values degrade a lookup to a
/// probe-chain walk whose length is bounded by the interner occupancy,
/// which the sweep and the per-instance state caps already bound.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// A dense handle for an interned value: an index into the interner's
/// arena. `ValueId` is `Copy + Ord + Hash`, so it satisfies the [`Value`]
/// trait bounds itself and the generic action enums
/// ([`IaAction`](crate::IaAction), [`AgrAction`](crate::AgrAction),
/// [`MsgdAction`](crate::MsgdAction)) can carry ids through the pooled
/// [`Outbox`](crate::Outbox) staging arenas without touching `V`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(u32);

impl ValueId {
    /// The arena slot index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a raw slot index (test/introspection helper —
    /// the protocol only uses ids handed out by [`ValueInterner::intern`]).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        ValueId(u32::try_from(index).expect("intern arena exceeds u32 slots"))
    }
}

impl fmt::Debug for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v#{}", self.0)
    }
}

/// One arena slot: the value (held behind an [`Arc`] so emission can hand
/// out shared handles without deep-copying), its cached hash (for cheap
/// probing and in-place table rebuilds) and the slot generation.
#[derive(Debug, Clone)]
struct Slot<V> {
    value: Option<Arc<V>>,
    hash: u64,
    gen: u32,
}

/// Sentinel for an empty hash-table bucket.
const EMPTY: u32 = u32::MAX;

/// Initial bucket count (power of two).
const MIN_TABLE: usize = 16;

/// Interns values of one node's execution: `V → ValueId` by hash probe,
/// `ValueId → V` by array index.
///
/// # Example
///
/// ```
/// use ssbyz_core::intern::ValueInterner;
///
/// let mut it: ValueInterner<String> = ValueInterner::new();
/// let a = it.intern(&"attack".to_string());
/// let b = it.intern(&"retreat".to_string());
/// assert_ne!(a, b);
/// assert_eq!(it.intern(&"attack".to_string()), a); // same id, no clone
/// assert_eq!(it.resolve(a), "attack");
/// assert_eq!(it.occupancy(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ValueInterner<V> {
    slots: Vec<Slot<V>>,
    /// Reclaimed slot indices (their slots carry the bumped generation).
    free: Vec<u32>,
    /// Open-addressed bucket array of slot indices; linear probing.
    table: Vec<u32>,
    /// Live (occupied) slot count.
    live: usize,
    /// Mark bits for the current sweep, one per slot.
    marks: Vec<u64>,
    /// Whether a mark/sweep cycle is open ([`ValueInterner::begin_sweep`]
    /// called, [`ValueInterner::finish_sweep`] not yet). Values interned
    /// inside the window are auto-marked, so an in-flight sweep can never
    /// reclaim a value the caller was handed an id for mid-cycle.
    in_sweep: bool,
}

impl<V: Value> ValueInterner<V> {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        ValueInterner {
            slots: Vec::new(),
            free: Vec::new(),
            table: vec![EMPTY; MIN_TABLE],
            live: 0,
            // Pre-size one sweep word so the very first post-intern sweep
            // (which may land inside an allocation-counted window) does
            // not have to grow the bit storage.
            marks: vec![0; 4],
            in_sweep: false,
        }
    }

    /// Number of live interned values.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.live
    }

    /// Total arena slots ever allocated (live + reclaimed). The plateau of
    /// this number under a value-minting storm is what the bounded-interner
    /// test pins.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The generation of a slot (bumped on every reclamation). Test and
    /// debug-assertion helper.
    #[must_use]
    pub fn generation(&self, id: ValueId) -> u32 {
        self.slots[id.index()].gen
    }

    fn hash_of(value: &V) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    /// Looks `value` up without interning it.
    #[must_use]
    pub fn lookup(&self, value: &V) -> Option<ValueId> {
        self.probe(value).ok()
    }

    /// Interns `value`, cloning it into a fresh `Arc` in the arena only on
    /// first sight. Repeat interning of a live value is a pure hash probe:
    /// no clone, no allocation.
    pub fn intern(&mut self, value: &V) -> ValueId {
        match self.probe(value) {
            Ok(id) => {
                if self.in_sweep {
                    self.mark(id);
                }
                id
            }
            Err((bucket, hash)) => self.place(Arc::new(value.clone()), hash, bucket),
        }
    }

    /// Interns an already-shared value: on first sight the arena stores a
    /// clone of the `Arc` handle — a reference bump, **never** a deep copy
    /// of `V`. This is the engine-boundary entry point: inbound wire
    /// messages carry `Arc<V>` payloads, so even a brand-new value enters
    /// the arena without copying its bytes.
    pub fn intern_shared(&mut self, value: &Arc<V>) -> ValueId {
        match self.probe(value) {
            Ok(id) => {
                if self.in_sweep {
                    self.mark(id);
                }
                id
            }
            Err((bucket, hash)) => self.place(Arc::clone(value), hash, bucket),
        }
    }

    /// Probes the bucket array for `value`: the id on a hit, the insertion
    /// bucket plus the content hash on a miss (so first sight — the one
    /// path where hashing a heavyweight payload twice would hurt — hashes
    /// exactly once).
    fn probe(&self, value: &V) -> Result<ValueId, (usize, u64)> {
        let hash = Self::hash_of(value);
        let mask = self.table.len() - 1;
        let mut bucket = (hash as usize) & mask;
        loop {
            let e = self.table[bucket];
            if e == EMPTY {
                return Err((bucket, hash));
            }
            let slot = &self.slots[e as usize];
            if slot.hash == hash && slot.value.as_deref() == Some(value) {
                return Ok(ValueId(e));
            }
            bucket = (bucket + 1) & mask;
        }
    }

    /// Places a missed value in a reclaimed or fresh slot.
    fn place(&mut self, shared: Arc<V>, hash: u64, bucket: usize) -> ValueId {
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.value.is_none(), "free-list slot still occupied");
                slot.value = Some(shared);
                slot.hash = hash;
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("intern arena exceeds u32 slots");
                self.slots.push(Slot {
                    value: Some(shared),
                    hash,
                    gen: 0,
                });
                idx
            }
        };
        self.live += 1;
        if self.in_sweep {
            // Interned mid-sweep: the caller holds this id, so the open
            // cycle must treat it as live. Auto-mark it (growing the bit
            // storage if the arena outgrew the begin_sweep sizing), or
            // finish_sweep would reclaim it out from under the caller.
            let i = idx as usize;
            if i / 64 >= self.marks.len() {
                self.marks.resize(i / 64 + 1, 0);
            }
            self.marks[i / 64] |= 1u64 << (i % 64);
        }
        if self.live * 2 > self.table.len() {
            // The rebuild re-inserts every occupied slot, the fresh one
            // included (its value is already in place).
            self.grow_table();
        } else {
            self.table[bucket] = idx;
        }
        ValueId(idx)
    }

    fn insert_bucket(&mut self, hash: u64, idx: u32) {
        let mask = self.table.len() - 1;
        let mut bucket = (hash as usize) & mask;
        while self.table[bucket] != EMPTY {
            bucket = (bucket + 1) & mask;
        }
        self.table[bucket] = idx;
    }

    /// Rebuilds the bucket array at `len` buckets, re-inserting every
    /// occupied slot from its cached hash. Allocation-free when `len`
    /// matches the current capacity (the array is reused in place).
    fn rebuild_table(&mut self, len: usize) {
        self.table.clear();
        self.table.resize(len, EMPTY);
        for i in 0..self.slots.len() {
            if self.slots[i].value.is_some() {
                self.insert_bucket(self.slots[i].hash, i as u32);
            }
        }
    }

    fn grow_table(&mut self) {
        self.rebuild_table((self.table.len() * 2).max(MIN_TABLE));
    }

    /// Resolves an id to the interned value.
    ///
    /// # Panics
    ///
    /// Panics if `id` names a reclaimed slot — live protocol state always
    /// holds marked (hence unreclaimed) ids, so this indicates a bug.
    #[must_use]
    pub fn resolve(&self, id: ValueId) -> &V {
        self.slots[id.index()]
            .value
            .as_deref()
            .expect("stale ValueId: slot was reclaimed")
    }

    /// Resolves an id to a shared handle on the interned value — a
    /// reference bump, never a deep copy. This is what output emission
    /// uses: the `Arc` inside every emitted [`Msg`](crate::Msg) / event is
    /// the arena's own slot.
    ///
    /// # Panics
    ///
    /// Panics if `id` names a reclaimed slot (see
    /// [`ValueInterner::resolve`]).
    #[must_use]
    pub fn resolve_shared(&self, id: ValueId) -> Arc<V> {
        Arc::clone(
            self.slots[id.index()]
                .value
                .as_ref()
                .expect("stale ValueId: slot was reclaimed"),
        )
    }

    /// Non-panicking [`ValueInterner::resolve`].
    #[must_use]
    pub fn get(&self, id: ValueId) -> Option<&V> {
        self.slots.get(id.index()).and_then(|s| s.value.as_deref())
    }

    /// Starts a mark/sweep cycle: clears all mark bits (the bit storage is
    /// retained across cycles, so steady-state sweeps do not allocate).
    /// Until the matching [`ValueInterner::finish_sweep`], any value
    /// interned (first sight *or* probe hit) is auto-marked — an in-flight
    /// sweep never reclaims an id handed out inside its own window.
    pub fn begin_sweep(&mut self) {
        debug_assert!(!self.in_sweep, "begin_sweep with a sweep already open");
        let words = self.slots.len().div_ceil(64);
        if self.marks.len() < words {
            self.marks.resize(words, 0);
        }
        for w in &mut self.marks {
            *w = 0;
        }
        self.in_sweep = true;
    }

    /// Marks `id` as referenced by live protocol state.
    pub fn mark(&mut self, id: ValueId) {
        let i = id.index();
        debug_assert!(
            self.slots.get(i).is_some_and(|s| s.value.is_some()),
            "marking a reclaimed ValueId"
        );
        self.marks[i / 64] |= 1u64 << (i % 64);
    }

    /// Reclaims every live slot left unmarked since
    /// [`ValueInterner::begin_sweep`]: the value is dropped, the slot
    /// generation bumped, and the index pushed onto the free-list. Returns
    /// the number of reclaimed slots.
    pub fn finish_sweep(&mut self) -> usize {
        debug_assert!(self.in_sweep, "finish_sweep without begin_sweep");
        self.in_sweep = false;
        let mut removed = 0usize;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.value.is_some() && self.marks[i / 64] & (1u64 << (i % 64)) == 0 {
                slot.value = None;
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(i as u32);
                removed += 1;
            }
        }
        if removed > 0 {
            self.live -= removed;
            // Linear-probe tables cannot delete in place without breaking
            // probe chains; rebuild the bucket array from the cached
            // hashes. Sweeps run on the engine's cleanup cadence, so this
            // is off the per-delivery path.
            self.rebuild_table(self.table.len());
        }
        removed
    }

    /// Drops every interned value and all reclamation history.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.table.clear();
        self.table.resize(MIN_TABLE, EMPTY);
        self.live = 0;
        self.in_sweep = false;
    }
}

impl<V: Value> Default for ValueInterner<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// A map from [`ValueId`] to `T`, stored as a flat slot vector indexed by
/// the id — the per-value analogue of
/// [`DenseNodeMap`](ssbyz_types::DenseNodeMap). Iteration order is
/// ascending id (arena slot order), **not** value order; call sites whose
/// output order must match the value-keyed golden model
/// (`ssbyz-reference`) resolve and order
/// explicitly.
///
/// # Example
///
/// ```
/// use ssbyz_core::intern::{ValueId, ValueIdMap};
///
/// let mut m: ValueIdMap<&str> = ValueIdMap::new();
/// m.insert(ValueId::from_index(2), "c");
/// m.insert(ValueId::from_index(0), "a");
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.get(ValueId::from_index(2)), Some(&"c"));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct ValueIdMap<T> {
    slots: Vec<Option<T>>,
    len: usize,
}

impl<T> Default for ValueIdMap<T> {
    fn default() -> Self {
        ValueIdMap {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<T> ValueIdMap<T> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of present entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` has an entry.
    #[must_use]
    pub fn contains(&self, id: ValueId) -> bool {
        self.slots.get(id.index()).is_some_and(Option::is_some)
    }

    /// The entry for `id`, if present.
    #[must_use]
    pub fn get(&self, id: ValueId) -> Option<&T> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the entry for `id`, if present.
    pub fn get_mut(&mut self, id: ValueId) -> Option<&mut T> {
        self.slots.get_mut(id.index()).and_then(Option::as_mut)
    }

    fn grow_to(&mut self, index: usize) {
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
    }

    /// Inserts `value` for `id`, returning the previous entry if any.
    pub fn insert(&mut self, id: ValueId, value: T) -> Option<T> {
        self.grow_to(id.index());
        let prev = self.slots[id.index()].replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes and returns the entry for `id`.
    pub fn remove(&mut self, id: ValueId) -> Option<T> {
        let prev = self.slots.get_mut(id.index()).and_then(Option::take);
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// The entry for `id`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, id: ValueId, make: impl FnOnce() -> T) -> &mut T {
        self.grow_to(id.index());
        let slot = &mut self.slots[id.index()];
        if slot.is_none() {
            *slot = Some(make());
            self.len += 1;
        }
        slot.as_mut().expect("just filled")
    }

    /// Iterates present entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (ValueId::from_index(i), v)))
    }

    /// Iterates present entries mutably, in ascending id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (ValueId, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, s)| s.as_mut().map(|v| (ValueId::from_index(i), v)))
    }

    /// Iterates present ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Iterates present values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Iterates present values mutably, in ascending id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.iter_mut().map(|(_, v)| v)
    }

    /// Keeps only entries for which `keep` returns `true`.
    pub fn retain(&mut self, mut keep: impl FnMut(ValueId, &mut T) -> bool) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(v) = slot.as_mut() {
                if !keep(ValueId::from_index(i), v) {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// Removes every entry (keeps the allocation).
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
        self.len = 0;
    }
}

impl<T: fmt::Debug> fmt::Debug for ValueIdMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedupes_and_resolves() {
        let mut it: ValueInterner<u64> = ValueInterner::new();
        let a = it.intern(&7);
        let b = it.intern(&9);
        assert_ne!(a, b);
        assert_eq!(it.intern(&7), a);
        assert_eq!(*it.resolve(a), 7);
        assert_eq!(*it.resolve(b), 9);
        assert_eq!(it.lookup(&7), Some(a));
        assert_eq!(it.lookup(&1234), None);
        assert_eq!(it.occupancy(), 2);
    }

    #[test]
    fn intern_shared_stores_the_wire_arc_without_copying() {
        let mut it: ValueInterner<String> = ValueInterner::new();
        let wire = Arc::new("payload".to_string());
        // First sight: the arena slot IS the wire Arc (pointer-equal).
        let id = it.intern_shared(&wire);
        assert!(Arc::ptr_eq(&wire, &it.resolve_shared(id)));
        assert_eq!(Arc::strong_count(&wire), 2, "wire + arena slot");
        // Re-interning an equal value from a *different* Arc is a hit on
        // the existing slot — the second Arc is not stored.
        let other = Arc::new("payload".to_string());
        assert_eq!(it.intern_shared(&other), id);
        assert!(!Arc::ptr_eq(&other, &it.resolve_shared(id)));
        // Emission handles are reference bumps on the slot.
        let emitted = it.resolve_shared(id);
        assert!(Arc::ptr_eq(&wire, &emitted));
        assert_eq!(Arc::strong_count(&wire), 3);
        // intern(&V) (the corruption-harness path) boxes a fresh Arc.
        let id2 = it.intern(&"other".to_string());
        assert_ne!(id2, id);
        assert_eq!(*it.resolve(id2), "other");
    }

    #[test]
    fn reclaimed_slot_releases_its_arc() {
        let mut it: ValueInterner<String> = ValueInterner::new();
        let wire = Arc::new("transient".to_string());
        let id = it.intern_shared(&wire);
        assert_eq!(Arc::strong_count(&wire), 2);
        it.begin_sweep();
        assert_eq!(it.finish_sweep(), 1);
        assert_eq!(
            Arc::strong_count(&wire),
            1,
            "sweeping an unmarked id must drop the arena's handle"
        );
        assert_eq!(it.get(id), None);
    }

    #[test]
    fn table_growth_preserves_ids() {
        let mut it: ValueInterner<u64> = ValueInterner::new();
        let ids: Vec<ValueId> = (0..200u64).map(|v| it.intern(&v)).collect();
        for (v, id) in ids.iter().enumerate() {
            assert_eq!(it.lookup(&(v as u64)), Some(*id));
            assert_eq!(*it.resolve(*id), v as u64);
        }
        assert_eq!(it.occupancy(), 200);
    }

    #[test]
    fn sweep_reclaims_unmarked_and_bumps_generation() {
        let mut it: ValueInterner<u64> = ValueInterner::new();
        let a = it.intern(&7);
        let b = it.intern(&9);
        let gen_b = it.generation(b);
        it.begin_sweep();
        it.mark(a);
        assert_eq!(it.finish_sweep(), 1);
        assert_eq!(it.occupancy(), 1);
        assert_eq!(it.lookup(&9), None);
        assert_eq!(it.get(b), None);
        assert_eq!(it.lookup(&7), Some(a), "marked id survives");
        // The reclaimed slot is reused for the next fresh value, with a
        // bumped generation and no capacity growth.
        let cap = it.capacity();
        let c = it.intern(&11);
        assert_eq!(c.index(), b.index(), "free-list reuses the slot");
        assert_eq!(it.generation(c), gen_b + 1);
        assert_eq!(it.capacity(), cap);
        assert_eq!(*it.resolve(c), 11);
        // The old value re-interned gets a brand-new slot.
        let b2 = it.intern(&9);
        assert_ne!(b2.index(), b.index());
    }

    #[test]
    fn intern_during_sweep_survives_the_in_flight_cycle() {
        let mut it: ValueInterner<u64> = ValueInterner::new();
        let a = it.intern(&7);
        let b = it.intern(&9);
        it.begin_sweep();
        it.mark(a);
        // New value interned mid-cycle: auto-marked, must survive.
        let c = it.intern(&11);
        // Probe hit mid-cycle on an otherwise-unmarked slot: the caller
        // was just handed `b`, so the sweep must keep it too.
        let b_again = it.intern(&9);
        assert_eq!(b_again, b);
        // Arc-path variant of the fresh intern.
        let d = it.intern_shared(&std::sync::Arc::new(13));
        assert_eq!(
            it.finish_sweep(),
            0,
            "every live id was handed out in-window"
        );
        assert_eq!(it.occupancy(), 4);
        assert_eq!(it.lookup(&11), Some(c));
        assert_eq!(it.lookup(&9), Some(b));
        assert_eq!(it.lookup(&13), Some(d));
        assert_eq!(*it.resolve(c), 11);
        // The next full cycle reclaims them normally when unmarked.
        it.begin_sweep();
        it.mark(a);
        assert_eq!(it.finish_sweep(), 3);
        assert_eq!(it.occupancy(), 1);
        assert_eq!(it.lookup(&7), Some(a));
        assert_eq!(it.lookup(&11), None);
    }

    #[test]
    fn intern_during_sweep_survives_mark_storage_growth() {
        // begin_sweep sizes the mark bitmap to the arena at that moment;
        // interning enough fresh values mid-cycle forces `place` to grow
        // the bit storage before auto-marking.
        let mut it: ValueInterner<u64> = ValueInterner::new();
        let a = it.intern(&1);
        it.begin_sweep();
        it.mark(a);
        let fresh: Vec<ValueId> = (100..230u64).map(|v| it.intern(&v)).collect();
        assert_eq!(it.finish_sweep(), 0);
        for (i, id) in fresh.iter().enumerate() {
            assert_eq!(*it.resolve(*id), 100 + i as u64);
        }
        assert_eq!(it.occupancy(), 1 + fresh.len());
    }

    #[test]
    fn sweep_with_no_garbage_is_a_noop() {
        let mut it: ValueInterner<u64> = ValueInterner::new();
        let ids: Vec<ValueId> = (0..20u64).map(|v| it.intern(&v)).collect();
        it.begin_sweep();
        for id in &ids {
            it.mark(*id);
        }
        assert_eq!(it.finish_sweep(), 0);
        assert_eq!(it.occupancy(), 20);
        for (v, id) in ids.iter().enumerate() {
            assert_eq!(it.lookup(&(v as u64)), Some(*id));
        }
    }

    #[test]
    fn churn_keeps_capacity_bounded() {
        // Spam 10k distinct values, sweeping every 64 with nothing marked:
        // occupancy returns to 0 and the arena plateaus near the burst
        // size instead of growing with the total distinct count.
        let mut it: ValueInterner<u64> = ValueInterner::new();
        for v in 0..10_000u64 {
            it.intern(&v);
            if v % 64 == 63 {
                it.begin_sweep();
                it.finish_sweep();
            }
        }
        it.begin_sweep();
        it.finish_sweep();
        assert_eq!(it.occupancy(), 0);
        assert!(
            it.capacity() <= 128,
            "arena must plateau, got {}",
            it.capacity()
        );
    }

    #[test]
    fn colliding_hashes_probe_correctly() {
        // A value type whose hash is constant: every lookup walks the
        // probe chain, and correctness must come from the equality check.
        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
        struct Collide(u64);
        impl Hash for Collide {
            fn hash<H: Hasher>(&self, state: &mut H) {
                0u64.hash(state); // every value collides
            }
        }
        let mut it: ValueInterner<Collide> = ValueInterner::new();
        let ids: Vec<ValueId> = (0..50u64).map(|v| it.intern(&Collide(v))).collect();
        for (v, id) in ids.iter().enumerate() {
            assert_eq!(it.lookup(&Collide(v as u64)), Some(*id));
        }
        assert_eq!(it.occupancy(), 50);
    }

    #[test]
    fn clear_resets_everything() {
        let mut it: ValueInterner<u64> = ValueInterner::new();
        it.intern(&1);
        it.intern(&2);
        it.clear();
        assert_eq!(it.occupancy(), 0);
        assert_eq!(it.capacity(), 0);
        assert_eq!(it.lookup(&1), None);
        let a = it.intern(&3);
        assert_eq!(a.index(), 0);
    }

    #[test]
    fn value_id_map_basics() {
        let id = ValueId::from_index;
        let mut m: ValueIdMap<u32> = ValueIdMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(id(2), 20), None);
        assert_eq!(m.insert(id(2), 21), Some(20));
        assert_eq!(m.insert(id(0), 1), None);
        assert_eq!(m.len(), 2);
        assert!(m.contains(id(0)) && !m.contains(id(1)));
        assert_eq!(m.get(id(2)), Some(&21));
        *m.get_mut(id(0)).unwrap() += 1;
        assert_eq!(m.get(id(0)), Some(&2));
        assert_eq!(m.remove(id(5)), None);
        assert_eq!(m.remove(id(2)), Some(21));
        assert_eq!(m.len(), 1);
        m.get_or_insert_with(id(4), || 9);
        assert_eq!(m.keys().collect::<Vec<_>>(), vec![id(0), id(4)]);
        m.retain(|k, _| k == id(4));
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
    }
}
