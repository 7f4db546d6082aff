//! Atomic multi-operation transactions.
//!
//! Definition 5.6 of the paper makes consistency a property of the whole
//! object set — oid uniqueness plus referential integrity — so multi-step
//! changes (create two objects that reference each other, `migrate` plus
//! fix-up writes) must commit as a unit or not at all. A [`Transaction`]
//! validates each mutation by applying it to a *shadow* [`Database`] (a
//! clone of the live state) and stages the [`Operation`]: reads inside the
//! transaction see staged writes, the live engine sees nothing until
//! commit. Commit goes through the engine's one write path: it appends
//! **one** CRC-framed [`Operation::Txn`] record to the log — the frame is
//! the atomicity boundary, so recovery replays the whole transaction or
//! none of it — and then applies that record to the live database with
//! `Database::apply`. The shadow is dropped, never swapped in, so the
//! live state keeps its derived structures (the attribute-value index).
//!
//! A transaction whose closure returns an error, or whose commit append
//! fails, leaves the live database bit-for-bit unchanged: the live state
//! is only touched after the append succeeds.

use tchimera_core::Database;

use crate::engine::EngineError;
use crate::op::{mutators, Operation};

/// An in-flight transaction: a shadow database plus the staged operations
/// that produced it. Created by
/// [`PersistentDatabase::txn`](crate::PersistentDatabase::txn).
pub struct Transaction {
    db: Database,
    ops: Vec<Operation>,
}

impl Transaction {
    pub(crate) fn new(db: Database) -> Transaction {
        Transaction {
            db,
            ops: Vec::new(),
        }
    }

    pub(crate) fn into_ops(self) -> Vec<Operation> {
        self.ops
    }

    /// The shadow database: reads here see every staged write of this
    /// transaction (and nothing committed after it began).
    #[must_use]
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Operations staged so far.
    #[must_use]
    pub fn staged_ops(&self) -> usize {
        self.ops.len()
    }

    /// Validate `op` against the shadow and stage it. A rejected
    /// operation stages nothing (the model's mutations are per-op
    /// atomic), so the caller may recover and continue the transaction.
    fn submit(&mut self, op: Operation) -> Result<(), EngineError> {
        self.db.apply(&op)?;
        self.ops.push(op);
        Ok(())
    }

    mutators!("staged");
}
