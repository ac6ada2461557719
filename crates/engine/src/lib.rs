//! `rtcac-engine` — a concurrent, sharded connection admission engine.
//!
//! This crate wraps the per-switch CAC of [`rtcac_cac`] in an engine
//! that serves many setup requests concurrently while producing results
//! indistinguishable from *some* serial order through
//! [`rtcac_signaling::Network`]:
//!
//! * **Shards** — one [`rtcac_cac::Switch`] per switch node, each
//!   behind its own mutex.
//! * **Two-phase setups** — phase 1 reserves capacity hop by hop with
//!   every route shard locked in ascending [`rtcac_net::NodeId`] order
//!   (a global lock order, hence deadlock-free); phase 2 commits, or
//!   aborts with full rollback before any lock is dropped. CDV
//!   accumulation follows [`rtcac_signaling::CdvPolicy`] exactly. The
//!   per-hop lifecycle itself — shaping, pricing, the reserve walk and
//!   its rollback order — is the shared [`rtcac_cac::ReservationPlan`]
//!   core, so unicast routes and multicast trees
//!   ([`AdmissionEngine::admit_multicast`]) take the same path the
//!   serial [`rtcac_signaling::Network`] drivers take.
//! * **Batch pool** — [`EnginePool`] runs a fixed set of
//!   `std::thread` workers pulling a *batch* of jobs from an `mpsc`
//!   submission queue. The engine is `Sync`, so a resident front end
//!   (the `rtcac-serve` session threads) calls it directly.
//! * **Statistics** — lock-free submitted/admitted/rejected/aborted/
//!   released counters, snapshotted as [`EngineStats`] (invariant:
//!   every submitted setup lands in exactly one outcome bucket).
//! * **Observability** — phase timings (reserve/commit/rollback),
//!   per-shard lock-wait histograms and abort events, recorded through
//!   [`rtcac_obs`] handles that are no-ops (near-zero cost, no clock
//!   reads) when no registry is installed.
//!   Use [`AdmissionEngine::with_registry`] for an explicit registry.

#![forbid(unsafe_code)]

mod engine;
mod error;
mod metrics;
mod pool;
mod shard;
mod state;
mod stats;

pub use engine::{
    AdmissionEngine, AnomalyHook, EngineOutcome, FailureImpact, GuaranteeViolation,
    DEFAULT_LOCK_HOLD_THRESHOLD_NS,
};
pub use error::EngineError;
pub use pool::{run_batch, EnginePool, JobResult};
pub use state::{ConnectionState, EngineState, HealthOverlayState, SwitchState};
pub use stats::EngineStats;
