//! Operations: the one representation of every database mutation.
//!
//! A T_Chimera database is naturally event-sourced — the model's
//! histories are append-only and the past is immutable — so its state is
//! a fold of the operations applied to it. [`Database::apply`] is the
//! single interpretation of an [`Operation`]: the durable engine logs
//! operations and recovers by re-applying them, transactions stage them
//! on a shadow, replicas apply shipped ones, and TCQL lowers every DDL,
//! DML and clock statement to one. All of them therefore share one
//! update semantics (consistency, Definition 5.6; migration, §5.2).

use tchimera_temporal::Instant;

use crate::class::ClassDef;
use crate::database::{Attrs, Database};
use crate::error::{ModelError, Result};
use crate::ident::{AttrName, ClassId, Oid};
use crate::value::Value;

/// One mutation of a [`Database`].
#[derive(Clone, Debug)]
pub enum Operation {
    /// Move the clock to an absolute instant.
    AdvanceTo(Instant),
    /// Define a class (Definition 4.1).
    DefineClass(ClassDef),
    /// Terminate a class lifespan.
    DropClass(ClassId),
    /// Update a c-attribute of a class.
    SetCAttr {
        /// The class.
        class: ClassId,
        /// The c-attribute.
        attr: AttrName,
        /// The new value.
        value: Value,
    },
    /// Create an object; `expect` pins the oid the database must assign
    /// ([`Database::next_oid`]), making replay deterministic (a mismatch
    /// means the operation was recorded against a different state).
    CreateObject {
        /// The most specific class.
        class: ClassId,
        /// Initial attribute bindings.
        init: Attrs,
        /// The oid the creation assigns.
        expect: Oid,
    },
    /// Update an object attribute.
    SetAttr {
        /// The object.
        oid: Oid,
        /// The attribute.
        attr: AttrName,
        /// The new value.
        value: Value,
    },
    /// Migrate an object to a new most specific class (Section 5.2).
    Migrate {
        /// The object.
        oid: Oid,
        /// The target class.
        to: ClassId,
        /// Bindings for newly acquired attributes.
        init: Attrs,
    },
    /// Terminate an object lifespan.
    Terminate {
        /// The object.
        oid: Oid,
    },
    /// An atomically-committed transaction: the durable engine writes all
    /// sub-operations as one log record, so recovery replays all of them
    /// or none. Sub-operations are never `Txn` themselves (no nesting).
    Txn(Vec<Operation>),
}

impl Database {
    /// The oid the next [`Database::create_object`] will assign. A
    /// create is recorded as [`Operation::CreateObject`] with this oid
    /// pinned before it runs.
    #[must_use]
    pub fn next_oid(&self) -> Oid {
        Oid(self.next_oid)
    }

    /// Apply one operation. Every single operation is atomic: a rejected
    /// one leaves the database unchanged. A [`Operation::Txn`] applies its
    /// sub-operations in order and stops at the first rejection, leaving
    /// the earlier ones applied; callers that need all-or-nothing stage
    /// it on a clone first.
    pub fn apply(&mut self, op: &Operation) -> Result<()> {
        match op {
            Operation::AdvanceTo(t) => self.advance_to(*t).map(|_| ()),
            Operation::DefineClass(def) => self.define_class(def.clone()),
            Operation::DropClass(c) => self.drop_class(c),
            Operation::SetCAttr { class, attr, value } => {
                self.set_c_attr(class, attr, value.clone())
            }
            Operation::CreateObject {
                class,
                init,
                expect,
            } => {
                let got = self.next_oid();
                if got != *expect {
                    return Err(ModelError::OidMismatch {
                        expected: *expect,
                        got,
                    });
                }
                self.create_object(class, init.clone()).map(|_| ())
            }
            Operation::SetAttr { oid, attr, value } => self.set_attr(*oid, attr, value.clone()),
            Operation::Migrate { oid, to, init } => self.migrate(*oid, to, init.clone()),
            Operation::Terminate { oid } => self.terminate_object(*oid),
            Operation::Txn(ops) => ops.iter().try_for_each(|op| self.apply(op)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_executes_and_checks_oids() {
        let mut db = Database::new();
        db.apply(&Operation::AdvanceTo(Instant(5))).unwrap();
        db.apply(&Operation::DefineClass(ClassDef::new("c")))
            .unwrap();
        assert_eq!(db.next_oid(), Oid(0));
        db.apply(&Operation::CreateObject {
            class: ClassId::from("c"),
            init: Attrs::new(),
            expect: Oid(0),
        })
        .unwrap();
        assert_eq!(db.next_oid(), Oid(1));
        // A wrong expectation is refused before anything is created.
        let err = db
            .apply(&Operation::CreateObject {
                class: ClassId::from("c"),
                init: Attrs::new(),
                expect: Oid(99),
            })
            .unwrap_err();
        assert_eq!(
            err,
            ModelError::OidMismatch {
                expected: Oid(99),
                got: Oid(1)
            }
        );
        assert_eq!(db.object_count(), 1);
        assert_eq!(db.next_oid(), Oid(1));
        // Model rejections surface unchanged.
        let err = db
            .apply(&Operation::DropClass(ClassId::from("ghost")))
            .unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn txn_applies_sub_operations_in_order() {
        let mut db = Database::new();
        db.apply(&Operation::Txn(vec![
            Operation::AdvanceTo(Instant(5)),
            Operation::DefineClass(ClassDef::new("c")),
            Operation::CreateObject {
                class: ClassId::from("c"),
                init: Attrs::new(),
                expect: Oid(0),
            },
        ]))
        .unwrap();
        assert_eq!(db.now(), Instant(5));
        assert!(db.object(Oid(0)).is_ok());
        // A failing sub-operation surfaces as the txn's error.
        let err = db
            .apply(&Operation::Txn(vec![Operation::DropClass(ClassId::from(
                "ghost",
            ))]))
            .unwrap_err();
        assert_eq!(err, ModelError::UnknownClass(ClassId::from("ghost")));
    }
}
