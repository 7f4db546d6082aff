//! # tchimera-storage
//!
//! Persistence substrate for the T_Chimera temporal object-oriented data
//! model: the paper (Bertino, Ferrari, Guerrini — EDBT 1996) defers
//! "implementation issues" to future work; this crate supplies them.
//!
//! * [`codec`] — a compact, dependency-free binary codec for every model
//!   type (varints, tagged unions, canonical round-trips).
//! * [`op`] — the log encoding of [`op::Operation`], core's one
//!   representation of every database mutation, applied by
//!   `Database::apply` both online and during recovery.
//! * [`log`] — the CRC-framed append-only [`log::OpLog`] with torn-tail
//!   truncation, damage reporting and header-based compaction.
//! * [`vfs`] — the pluggable [`vfs::Vfs`] I/O layer: [`vfs::StdFs`] for
//!   real disks and the deterministic fault-injection [`vfs::SimFs`]
//!   (fail at the Nth write, tear unsynced data, flip bits, simulate
//!   crashes that drop everything not fsynced).
//! * [`snapshot`] — checksummed, atomically-installed checkpoints of the
//!   full database state, enabling log compaction and fast recovery.
//! * [`engine`] — [`engine::PersistentDatabase`], an event-sourced,
//!   write-ahead-logged database with snapshot + suffix-replay recovery
//!   and state digests. (T_Chimera state is a pure fold of its history —
//!   the model's own valid-time semantics make event sourcing the natural
//!   storage design.)
//! * [`txn`] — atomic multi-operation [`txn::Transaction`]s staged on a
//!   shadow database and committed as a single CRC-framed log record,
//!   then applied to the live state.
//! * [`resilience`] — fault classification ([`resilience::FaultKind`]),
//!   deterministic bounded retry ([`resilience::RetryPolicy`]) and the
//!   read-only degradation [`resilience::CircuitBreaker`].
//! * [`repl`] — log-shipping replication: a [`repl::Primary`] streams
//!   CRC-framed log records (and full state images past compaction) over
//!   a pluggable [`repl::Transport`] to a digest-verified
//!   [`repl::Replica`], with deterministic term-based failover and a
//!   seedable fault-injecting [`repl::SimTransport`].
//! * [`observability`] — the storage half of the metric vocabulary
//!   (`storage.log.*`, `storage.snapshot.*`, `storage.recovery.*`, …)
//!   registered eagerly so snapshots always name it; see `DESIGN.md` §9.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod engine;
pub mod log;
pub mod observability;
pub mod op;
pub mod repl;
pub mod resilience;
pub mod snapshot;
pub mod txn;
pub mod vfs;

pub use codec::{Codec, CodecError, Reader};
pub use engine::{
    digest_database, diverged_classes, snapshot_path, EngineConfig, EngineError,
    PersistentDatabase, StorageScrubReport,
};
pub use log::{DamageReason, LogError, LogScan, OpLog, TailDamage};
pub use observability::{touch_metrics, REPL_METRICS, STORAGE_METRICS};
pub use op::Operation;
pub use repl::{
    ChannelTransport, Frame, Primary, Replica, ReplicaError, SimNetConfig, SimTransport,
    Transport, WireError,
};
pub use resilience::{BreakerState, CircuitBreaker, FaultKind, RetryPolicy};
pub use snapshot::{load_snapshot, write_snapshot, Snapshot, SnapshotError};
pub use txn::Transaction;
pub use vfs::{SimFs, StdFs, TearMode, Vfs, VfsFile};
