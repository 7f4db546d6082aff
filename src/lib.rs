//! # tchimera — umbrella crate
//!
//! One-stop entry point for the T_Chimera system, the executable
//! implementation of *A Formal Temporal Object-Oriented Data Model*
//! (Bertino, Ferrari, Guerrini — EDBT 1996):
//!
//! * [`core`] — the data model itself: types, values, typing rules,
//!   classes, objects, consistency, equality, inheritance, invariants.
//! * [`temporal`] — the discrete time-domain substrate.
//! * [`storage`] — the event-sourced persistence engine.
//! * [`query`] — TCQL, the typed temporal query/DDL/DML language.
//!
//! The most common items are re-exported at the crate root:
//!
//! ```
//! use tchimera::{attrs, ClassDef, ClassId, Database, Instant, Type, Value};
//!
//! let mut db = Database::new();
//! db.define_class(
//!     ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)),
//! ).unwrap();
//! let i = db.create_object(
//!     &ClassId::from("employee"),
//!     attrs([("salary", Value::Int(1000))]),
//! ).unwrap();
//! db.tick_by(10);
//! db.set_attr(i, &"salary".into(), Value::Int(1200)).unwrap();
//! assert_eq!(db.attr_at(i, &"salary".into(), Instant(5)).unwrap(), Value::Int(1000));
//! ```

#![warn(missing_docs)]

/// The T_Chimera data model (re-export of `tchimera-core`).
pub use tchimera_core as core;
/// The time-domain substrate (re-export of `tchimera-temporal`).
pub use tchimera_temporal as temporal;
/// The persistence engine (re-export of `tchimera-storage`).
pub use tchimera_storage as storage;
/// TCQL (re-export of `tchimera-query`).
pub use tchimera_query as query;
/// Metrics and structured tracing (re-export of `tchimera-obs`).
pub use tchimera_obs as obs;

pub use tchimera_core::{
    attrs, check_oid_uniqueness, AttrDecl, AttrKind, AttrName, Attrs, BasicType, Capabilities,
    Class, ClassDef, ClassId, ClassKind, ConsistencyError, ConsistencyReport, Constraint,
    ConstraintViolation, Database, Equality, HistoryError, Instant, Interval, IntervalSet,
    InvariantId, InvariantViolation, Lifespan, MethodName, MethodSig, ModelError, Object, Oid,
    Quantifier, Schema, Symbol, TemporalEntry, TemporalValue, TimeBound, Type, Value,
    CAPABILITIES,
};
pub use tchimera_query::{Interpreter, Outcome, QueryError, QueryResult};
pub use tchimera_storage::{
    EngineConfig, EngineError, Operation, PersistentDatabase, Transaction,
};

/// The README's code examples, compile-checked as doctests.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

/// The TCQL reference's code examples, compile-checked as doctests.
#[doc = include_str!("../docs/TCQL.md")]
#[cfg(doctest)]
pub struct TcqlDoctests;

/// The architecture tour's code examples, compile-checked as doctests.
#[doc = include_str!("../docs/ARCHITECTURE.md")]
#[cfg(doctest)]
pub struct ArchitectureDoctests;
