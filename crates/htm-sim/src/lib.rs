//! # htm-sim
//!
//! A software simulation of **best-effort hardware transactional memory**
//! over a word-addressed shared memory, standing in for the IBM zEC12
//! (`TBEGIN`/`TEND`/`TABORT`) and Intel Haswell TSX (`XBEGIN`/`XEND`/
//! `XABORT`) facilities the paper ran on. Real HTM silicon is unavailable
//! (TSX has been fused off on modern parts; zEC12 requires a mainframe), so
//! every mechanism the paper's evaluation depends on is modelled
//! explicitly:
//!
//! * **Read/write sets at cache-line granularity** — each transactional
//!   access records its line; budgets come from the machine profile
//!   ([`machine_sim::CacheGeometry`]) and can be halved by the caller when
//!   an SMT sibling is active.
//! * **Eager, requester-wins conflict detection** — an access (even a
//!   non-transactional one, e.g. by the GIL holder) that collides with
//!   another thread's transactional line dooms *that* transaction; the
//!   victim rolls back immediately and observes the abort at its next
//!   access or poll, like a coherence-triggered abort.
//! * **Footprint overflow** — exceeding the read or write budget is a
//!   *persistent* abort ([`AbortReason::is_persistent`]), the class that
//!   makes retry pointless and forces the GIL fallback.
//! * **Explicit aborts** — `TABORT`/`XABORT` with a software code, used by
//!   the TLE runtime when it observes the GIL held inside a transaction.
//! * **Undo-log rollback** — speculative writes are applied in place and
//!   undone on abort, so committed state is exactly the state a serial
//!   execution would have produced (property-tested).
//! * **Intel's learning abort predictor** (paper §5.4, Fig. 6a) — an
//!   overflow-history confidence that eagerly aborts transactions and only
//!   gradually regains trust, reproducing the slow success-ratio recovery
//!   that penalises dynamic transaction-length adjustment on short runs.
//!
//! The memory is generic over the word type `W` so the Ruby VM can store
//! its `Word` values directly while unit tests use plain integers.

pub mod abort;
pub mod inject;
pub mod predictor;
pub mod refimpl;
pub mod stats;
pub mod trace;
pub mod txmem;

pub use abort::{AbortReason, ExplicitCode, SpuriousCause};
pub use inject::{Fault, FaultInjector, FaultPlan};
pub use predictor::OverflowPredictor;
pub use refimpl::ReferenceTxMemory;
pub use stats::HtmStats;
pub use trace::{RingBufferSink, TraceEvent, TraceSink};
pub use txmem::{Budgets, TxMemory};
