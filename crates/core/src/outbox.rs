//! The pooled engine outbox.
//!
//! Under Byzantine spam the engine's true hot path is the call that emits
//! **nothing**: a duplicate or suppressed delivery records an arrival and
//! returns. Returning a fresh `Vec<Output<V>>` per call — and allocating
//! the internal [`IaAction`]/[`AgrAction`]/[`MsgdAction`] staging vectors
//! on every dispatch — puts heap traffic on that path. An [`Outbox`] is
//! the caller-owned arena that removes it: one value holds the output
//! buffer *and* every internal scratch vector, all of which retain their
//! capacity across calls, so steady-state dispatch performs zero heap
//! allocations (and an emitting call only grows buffers until they
//! plateau).
//!
//! ## Ownership rules
//!
//! * The caller owns the outbox and passes `&mut` to every
//!   [`Engine`](crate::Engine) entry point
//!   ([`initiate`](crate::Engine::initiate),
//!   [`on_message_ref`](crate::Engine::on_message_ref),
//!   [`on_tick`](crate::Engine::on_tick)).
//! * **Each call clears the previous call's outputs** before filling in
//!   its own — read (or [`drain`](Outbox::drain)) the outputs before the
//!   next engine call, exactly like the simulator's pooled
//!   `scratch_outbox`.
//! * One outbox serves one engine at a time but is not tied to it; the
//!   scratch buffers are always empty between calls, so an outbox may be
//!   shared across engines (e.g. a thread driving several nodes).
//!
//! The pre-outbox Vec-returning dispatch is retained as
//! `ssbyz_reference::ReferenceEngine` in the dev-only `ssbyz-reference`
//! crate — the golden model for the equivalence battery in
//! `crates/reference/tests/outbox_equivalence.rs` and the baseline side of
//! the `store_hot_path` engine benches.

use ssbyz_types::NodeId;

use crate::agreement::AgrAction;
use crate::engine::Output;
use crate::initiator_accept::IaAction;
use crate::intern::ValueId;
use crate::msgd_broadcast::MsgdAction;

/// A reusable output buffer plus the engine's internal staging arenas.
///
/// See the [module docs](self) for the ownership rules.
///
/// # Example
///
/// ```
/// use ssbyz_core::{Engine, Outbox, Output, Params};
/// use ssbyz_types::{Duration, LocalTime, NodeId};
///
/// let params = Params::from_d(4, 1, Duration::from_millis(10), 0)?;
/// let mut engine: Engine<u64> = Engine::new(NodeId::new(0), params);
/// let mut outbox: Outbox<u64> = Outbox::new();
/// let now = LocalTime::from_nanos(1_000_000_000);
/// engine.initiate(now, 42, &mut outbox).expect("fresh engine may initiate");
/// assert!(matches!(outbox.outputs()[0], Output::Broadcast(_)));
/// # Ok::<(), ssbyz_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Outbox<V> {
    /// The outputs of the most recent engine call — the only buffer that
    /// carries the value type; the staging arenas below carry interned
    /// [`ValueId`]s, resolved back to values at emission.
    pub(crate) out: Vec<Output<V>>,
    /// Staging arena for `Initiator-Accept` actions.
    pub(crate) ia: Vec<IaAction<ValueId>>,
    /// Staging arena for agreement actions.
    pub(crate) agr: Vec<AgrAction<ValueId>>,
    /// Staging arena for `msgd-broadcast` actions.
    pub(crate) msgd: Vec<MsgdAction<ValueId>>,
    /// Scratch list of live Generals for `on_tick`.
    pub(crate) generals: Vec<NodeId>,
    /// Scratch list of wave senders for `on_wave_ref` (the valid senders
    /// of one same-key run, collected before the bulk record).
    pub(crate) wave: Vec<NodeId>,
}

impl<V> Outbox<V> {
    /// Creates an empty outbox (no capacity reserved yet — buffers grow
    /// to their plateau during the first few emitting calls).
    #[must_use]
    pub fn new() -> Self {
        Outbox {
            out: Vec::new(),
            ia: Vec::new(),
            agr: Vec::new(),
            msgd: Vec::new(),
            generals: Vec::new(),
            wave: Vec::new(),
        }
    }

    /// Prepares the outbox for a new engine call: drops the previous
    /// call's outputs (keeping capacity). The staging arenas are always
    /// fully drained by the engine; the debug assertions pin that
    /// invariant.
    pub(crate) fn begin(&mut self) {
        self.out.clear();
        debug_assert!(self.ia.is_empty(), "ia scratch leaked between calls");
        debug_assert!(self.agr.is_empty(), "agr scratch leaked between calls");
        debug_assert!(self.msgd.is_empty(), "msgd scratch leaked between calls");
        debug_assert!(
            self.generals.is_empty(),
            "generals scratch leaked between calls"
        );
        debug_assert!(self.wave.is_empty(), "wave scratch leaked between calls");
    }

    /// The outputs produced by the most recent engine call.
    #[must_use]
    pub fn outputs(&self) -> &[Output<V>] {
        &self.out
    }

    /// Number of outputs from the most recent call.
    #[must_use]
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether the most recent call produced no outputs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Drains the outputs, keeping the buffer's capacity for the next
    /// call — the intended consumption pattern for pooled dispatch.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Output<V>> {
        self.out.drain(..)
    }

    /// Moves the outputs out as an owned `Vec`, leaving an empty buffer
    /// behind. Convenience for tests and one-shot callers; it forfeits
    /// the pooled capacity, so hot paths should prefer
    /// [`Outbox::drain`].
    #[must_use]
    pub fn take_outputs(&mut self) -> Vec<Output<V>> {
        std::mem::take(&mut self.out)
    }

    /// Discards the outputs of the most recent call (capacity kept).
    pub fn clear(&mut self) {
        self.out.clear();
    }

    /// Current buffer capacities as
    /// `[outputs, ia, agr, msgd, generals, wave]` — used by the reuse
    /// regression tests to assert that capacity plateaus instead of
    /// growing without bound.
    #[must_use]
    pub fn capacities(&self) -> [usize; 6] {
        [
            self.out.capacity(),
            self.ia.capacity(),
            self.agr.capacity(),
            self.msgd.capacity(),
            self.generals.capacity(),
            self.wave.capacity(),
        ]
    }
}

impl<V> Default for Outbox<V> {
    fn default() -> Self {
        Self::new()
    }
}
