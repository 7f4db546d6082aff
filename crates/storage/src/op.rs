//! The log encoding of [`Operation`], the one representation of every
//! database mutation.
//!
//! `Operation` and its interpreter, `Database::apply`, live in
//! `tchimera-core`; this module adds the [`Codec`] that writes an
//! operation into a CRC-framed log record or a replication frame. Every
//! write of the durable engine — a mutator call, a transaction commit or
//! a replicated record — is one encoded operation, and recovery re-applies
//! the decoded ones through the same `Database::apply`, so a recovered
//! database is the fold of its log.

pub use tchimera_core::Operation;
use tchimera_core::{AttrName, ClassDef, ClassId, Instant, Oid, Value};

use crate::codec::{decode_attrs, encode_attrs, read_u64, write_u64, Codec, CodecError, Reader};

/// The mutator methods of [`PersistentDatabase`](crate::PersistentDatabase)
/// and [`Transaction`](crate::Transaction), written once. Each lowers its
/// arguments to one [`Operation`] and hands it to the type's private
/// `submit`, which commits it (the engine) or stages it (a transaction);
/// `$how` says which in the generated docs.
macro_rules! mutators {
    ($how:literal) => {
        #[doc = concat!("Advance the clock to `t` (", $how, ").")]
        pub fn advance_to(&mut self, t: tchimera_core::Instant) -> Result<(), $crate::EngineError> {
            self.submit($crate::Operation::AdvanceTo(t))
        }

        #[doc = concat!("Advance the clock by one instant (", $how, ").")]
        pub fn tick(&mut self) -> Result<tchimera_core::Instant, $crate::EngineError> {
            let t = self.db().now().next();
            self.submit($crate::Operation::AdvanceTo(t))?;
            Ok(t)
        }

        #[doc = concat!("Define a class (", $how, ").")]
        pub fn define_class(
            &mut self,
            def: tchimera_core::ClassDef,
        ) -> Result<(), $crate::EngineError> {
            self.submit($crate::Operation::DefineClass(def))
        }

        #[doc = concat!("Drop a class (", $how, ").")]
        pub fn drop_class(
            &mut self,
            class: &tchimera_core::ClassId,
        ) -> Result<(), $crate::EngineError> {
            self.submit($crate::Operation::DropClass(class.clone()))
        }

        #[doc = concat!("Update a c-attribute (", $how, ").")]
        pub fn set_c_attr(
            &mut self,
            class: &tchimera_core::ClassId,
            attr: &tchimera_core::AttrName,
            value: tchimera_core::Value,
        ) -> Result<(), $crate::EngineError> {
            self.submit($crate::Operation::SetCAttr {
                class: class.clone(),
                attr: attr.clone(),
                value,
            })
        }

        #[doc = concat!(
            "Create an object (", $how, "). The oid it is assigned \
             (`Database::next_oid`) is pinned in the operation before it runs."
        )]
        pub fn create_object(
            &mut self,
            class: &tchimera_core::ClassId,
            init: tchimera_core::Attrs,
        ) -> Result<tchimera_core::Oid, $crate::EngineError> {
            let expect = self.db().next_oid();
            self.submit($crate::Operation::CreateObject {
                class: class.clone(),
                init,
                expect,
            })?;
            Ok(expect)
        }

        #[doc = concat!("Update an attribute (", $how, ").")]
        pub fn set_attr(
            &mut self,
            oid: tchimera_core::Oid,
            attr: &tchimera_core::AttrName,
            value: tchimera_core::Value,
        ) -> Result<(), $crate::EngineError> {
            self.submit($crate::Operation::SetAttr {
                oid,
                attr: attr.clone(),
                value,
            })
        }

        #[doc = concat!("Migrate an object (", $how, ").")]
        pub fn migrate(
            &mut self,
            oid: tchimera_core::Oid,
            to: &tchimera_core::ClassId,
            init: tchimera_core::Attrs,
        ) -> Result<(), $crate::EngineError> {
            self.submit($crate::Operation::Migrate {
                oid,
                to: to.clone(),
                init,
            })
        }

        #[doc = concat!("Terminate an object (", $how, ").")]
        pub fn terminate_object(
            &mut self,
            oid: tchimera_core::Oid,
        ) -> Result<(), $crate::EngineError> {
            self.submit($crate::Operation::Terminate { oid })
        }
    };
}
pub(crate) use mutators;

impl Codec for Operation {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Operation::AdvanceTo(t) => {
                out.push(0);
                t.encode(out);
            }
            Operation::DefineClass(def) => {
                out.push(1);
                def.encode(out);
            }
            Operation::DropClass(c) => {
                out.push(2);
                c.encode(out);
            }
            Operation::SetCAttr { class, attr, value } => {
                out.push(3);
                class.encode(out);
                attr.encode(out);
                value.encode(out);
            }
            Operation::CreateObject { class, init, expect } => {
                out.push(4);
                class.encode(out);
                encode_attrs(init, out);
                expect.encode(out);
            }
            Operation::SetAttr { oid, attr, value } => {
                out.push(5);
                oid.encode(out);
                attr.encode(out);
                value.encode(out);
            }
            Operation::Migrate { oid, to, init } => {
                out.push(6);
                oid.encode(out);
                to.encode(out);
                encode_attrs(init, out);
            }
            Operation::Terminate { oid } => {
                out.push(7);
                oid.encode(out);
            }
            Operation::Txn(ops) => {
                out.push(8);
                write_u64(out, ops.len() as u64);
                for op in ops {
                    op.encode(out);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.byte()? {
            0 => Operation::AdvanceTo(Instant::decode(r)?),
            1 => Operation::DefineClass(ClassDef::decode(r)?),
            2 => Operation::DropClass(ClassId::decode(r)?),
            3 => Operation::SetCAttr {
                class: ClassId::decode(r)?,
                attr: AttrName::decode(r)?,
                value: Value::decode(r)?,
            },
            4 => Operation::CreateObject {
                class: ClassId::decode(r)?,
                init: decode_attrs(r)?,
                expect: Oid::decode(r)?,
            },
            5 => Operation::SetAttr {
                oid: Oid::decode(r)?,
                attr: AttrName::decode(r)?,
                value: Value::decode(r)?,
            },
            6 => Operation::Migrate {
                oid: Oid::decode(r)?,
                to: ClassId::decode(r)?,
                init: decode_attrs(r)?,
            },
            7 => Operation::Terminate { oid: Oid::decode(r)? },
            8 => {
                let n = read_u64(r)?;
                let mut ops = Vec::with_capacity(n.min(1024) as usize);
                for _ in 0..n {
                    ops.push(Operation::decode(r)?);
                }
                Operation::Txn(ops)
            }
            tag => return Err(CodecError::InvalidTag { what: "operation", tag }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchimera_core::{attrs, Attrs, Type};

    fn ops() -> Vec<Operation> {
        vec![
            Operation::AdvanceTo(Instant(10)),
            Operation::DefineClass(
                ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)),
            ),
            Operation::CreateObject {
                class: ClassId::from("employee"),
                init: attrs([("salary", Value::Int(100))]),
                expect: Oid(0),
            },
            Operation::SetAttr {
                oid: Oid(0),
                attr: AttrName::from("salary"),
                value: Value::Int(120),
            },
            Operation::SetCAttr {
                class: ClassId::from("employee"),
                attr: AttrName::from("x"),
                value: Value::Null,
            },
            Operation::Migrate {
                oid: Oid(0),
                to: ClassId::from("employee"),
                init: Attrs::new(),
            },
            Operation::Terminate { oid: Oid(0) },
            Operation::DropClass(ClassId::from("employee")),
            Operation::Txn(vec![
                Operation::AdvanceTo(Instant(11)),
                Operation::SetAttr {
                    oid: Oid(0),
                    attr: AttrName::from("salary"),
                    value: Value::Int(130),
                },
            ]),
            Operation::Txn(Vec::new()),
        ]
    }

    #[test]
    fn operations_round_trip() {
        for op in ops() {
            let bytes = op.to_bytes();
            let back = Operation::from_bytes(&bytes).unwrap();
            // Compare via re-encoding (Operation has no PartialEq because
            // ClassDef doesn't need one elsewhere).
            assert_eq!(bytes, back.to_bytes());
        }
    }
}
