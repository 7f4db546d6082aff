//! Log-shipping replication with deterministic, fault-injected failover.
//!
//! The engine is event-sourced — state is a pure fold of the CRC-framed
//! operation log — so the log itself is the natural replication unit: a
//! [`Primary`] ships its (fsynced) log suffix as checksummed
//! [`Frame::Batch`] records over a [`Transport`], and a [`Replica`]
//! folds them into its own [`PersistentDatabase`](crate::PersistentDatabase)
//! through the exact `Database::apply` path recovery uses. Identity is
//! verified, not assumed: `state_digest()` values are compared whenever
//! the replica is exactly aligned with a digest-carrying frame.
//!
//! The protocol is built for a hostile network — [`SimTransport`] drops,
//! duplicates, reorders, delays, corrupts and partitions frames under a
//! deterministic seed — and collapses every fault into two repairs:
//! cumulative acks with [`Frame::CatchUp`] resends, and full
//! [`Frame::Snapshot`] images when the follower's resume point was
//! compacted away. Failover is a single monotonic **term**: a promoted
//! replica ([`Replica::promote`]) ships under `term + 1`, and any node
//! hearing a term above its own trips its circuit breaker read-only —
//! at most one node accepts writes, by construction.

pub mod frame;
pub mod primary;
pub mod replica;
pub mod transport;

pub use frame::{Frame, WireError};
pub use primary::Primary;
pub use replica::{Replica, ReplicaError};
pub use transport::{ChannelTransport, SimNetConfig, SimTransport, Transport};
