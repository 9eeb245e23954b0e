//! # `ssbyz-reference` — golden models for the ssbyz fast paths
//!
//! `ssbyz-core` and `ssbyz-sched` ship one implementation of each paper
//! primitive and data structure, tuned for the delivery path: interned
//! value ids, dense arrival slots, pooled outboxes, a hierarchical timer
//! wheel. This crate keeps the straightforward versions those fast paths
//! replaced, as **test oracles** and **bench baselines**:
//!
//! * [`InitiatorAccept`], [`MsgdBroadcast`], [`Agreement`] — the
//!   value-keyed primitives (paper Figs. 2, 3 and 1), per-value state in
//!   `BTreeMap`s keyed by the value itself.
//! * [`ReferenceEngine`] — the value-keyed, Vec-returning engine built on
//!   them. The equivalence batteries in `tests/` require the production
//!   [`ssbyz_core::Engine`] to emit bit-identical output sequences.
//! * [`ReferenceArrivalLog`] — the `BTreeMap` arrival log behind
//!   [`ssbyz_core::store::ArrivalLog`].
//! * [`ReferenceQueue`] — the `BinaryHeap` event queue behind
//!   [`ssbyz_sched::TimerWheel`].
//!
//! Nothing here runs on a protocol path. Only `ssbyz-bench` depends on
//! this crate, and only as a dev-dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agreement;
pub mod engine;
pub mod initiator_accept;
pub mod msgd_broadcast;
pub mod sched;
pub mod store;

pub use agreement::Agreement;
pub use engine::ReferenceEngine;
pub use initiator_accept::InitiatorAccept;
pub use msgd_broadcast::MsgdBroadcast;
pub use sched::ReferenceQueue;
pub use store::ReferenceArrivalLog;
