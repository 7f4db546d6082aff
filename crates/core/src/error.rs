//! Error types for the T_Chimera model.

use std::fmt;

use tchimera_temporal::{HistoryError, Instant};

use crate::ident::{AttrName, ClassId, MethodName, Oid};
use crate::types::Type;

/// Any error raised by schema definition, object manipulation or the
/// Table 3 model functions.
#[derive(Clone, PartialEq, Debug)]
pub enum ModelError {
    /// The class name is not defined in the schema.
    UnknownClass(ClassId),
    /// A class with this name already exists (class lifespans are
    /// contiguous — a deleted class cannot be recreated, Section 4).
    DuplicateClass(ClassId),
    /// The ISA relationship would contain a cycle.
    CyclicIsa(ClassId),
    /// A superclass of a new class is already deleted.
    DeadSuperclass(ClassId),
    /// The oid is not present in the database.
    UnknownObject(Oid),
    /// The object's lifespan is already terminated.
    ObjectDead(Oid),
    /// The class's lifespan is already terminated.
    ClassDead(ClassId),
    /// The named attribute does not exist in the class.
    UnknownAttribute {
        /// The class searched.
        class: ClassId,
        /// The missing attribute.
        attr: AttrName,
    },
    /// The named c-attribute does not exist in the class.
    UnknownClassAttribute {
        /// The class searched.
        class: ClassId,
        /// The missing c-attribute.
        attr: AttrName,
    },
    /// A type used in a declaration is not well formed (Definition 3.4).
    IllFormedType(Type),
    /// A value does not belong to the extension of the expected type
    /// (Definition 3.5).
    TypeMismatch {
        /// The expected type.
        expected: Type,
        /// A rendering of the offending value.
        value: String,
    },
    /// Rule 6.1 violated: an attribute redefinition is not a legal domain
    /// refinement.
    InvalidRefinement {
        /// The subclass redefining the attribute.
        class: ClassId,
        /// The attribute.
        attr: AttrName,
        /// The inherited domain.
        inherited: Type,
        /// The illegal new domain.
        refined: Type,
    },
    /// A method override violates covariance of the result or
    /// contravariance of the inputs (Section 6.1).
    InvalidOverride {
        /// The subclass overriding the method.
        class: ClassId,
        /// The method.
        method: MethodName,
    },
    /// An update attempted to change an immutable attribute.
    ImmutableAttribute {
        /// The object.
        oid: Oid,
        /// The attribute.
        attr: AttrName,
    },
    /// Objects cannot migrate across disjoint ISA hierarchies
    /// (Invariant 6.2).
    CrossHierarchyMigration {
        /// The object.
        oid: Oid,
        /// Its current most specific class.
        from: ClassId,
        /// The illegal target class.
        to: ClassId,
    },
    /// A required attribute value was not supplied at creation/migration.
    MissingAttribute {
        /// The class requiring the attribute.
        class: ClassId,
        /// The attribute.
        attr: AttrName,
    },
    /// An attribute value was supplied that the class does not declare.
    UnexpectedAttribute {
        /// The target class.
        class: ClassId,
        /// The surplus attribute.
        attr: AttrName,
    },
    /// A history operation failed.
    History(HistoryError),
    /// An instant outside a lifespan was used.
    NotInLifespan {
        /// The offending instant.
        at: Instant,
    },
    /// `snapshot(i, t)` is undefined: the object has static attributes and
    /// `t ≠ now` (Section 5.3).
    SnapshotUndefined {
        /// The object.
        oid: Oid,
        /// The instant requested.
        at: Instant,
    },
    /// Two component types have no least upper bound in the `≤_T` poset
    /// (Definition 3.6 types heterogeneous collections with `⊔`).
    NoLub {
        /// First type.
        left: Type,
        /// Second type.
        right: Type,
    },
    /// The clock can only move forward.
    ClockMovedBackwards {
        /// Requested instant.
        to: Instant,
        /// Current clock.
        now: Instant,
    },
    /// An internal invariant did not hold. Reaching this is a bug in the
    /// model implementation, but it surfaces as a typed error rather
    /// than a panic so a durable engine can degrade instead of aborting
    /// mid-write.
    Internal {
        /// The invariant that was violated.
        context: &'static str,
    },
    /// The class is quarantined by the integrity scrubber: corruption was
    /// detected in its state and no repair rung could restore it, so
    /// reads and writes touching it are refused while every other class
    /// keeps serving (graceful degradation; see `scrub`).
    Quarantined {
        /// The quarantined class.
        class: ClassId,
    },
    /// An [`Operation::CreateObject`](crate::Operation::CreateObject)
    /// pinned an oid other than the one the database would assign: the
    /// operation was recorded against a different state (on replay, a
    /// corrupt log).
    OidMismatch {
        /// The oid the operation pinned.
        expected: Oid,
        /// The oid the database would assign.
        got: Oid,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ModelError::*;
        match self {
            UnknownClass(c) => write!(f, "unknown class `{c}`"),
            DuplicateClass(c) => write!(f, "class `{c}` already exists"),
            CyclicIsa(c) => write!(f, "ISA cycle through class `{c}`"),
            DeadSuperclass(c) => write!(f, "superclass `{c}` no longer exists"),
            UnknownObject(i) => write!(f, "unknown object {i}"),
            ObjectDead(i) => write!(f, "object {i} lifespan is terminated"),
            ClassDead(c) => write!(f, "class `{c}` lifespan is terminated"),
            UnknownAttribute { class, attr } => {
                write!(f, "class `{class}` has no attribute `{attr}`")
            }
            UnknownClassAttribute { class, attr } => {
                write!(f, "class `{class}` has no c-attribute `{attr}`")
            }
            IllFormedType(t) => write!(f, "type `{t}` is not well formed"),
            TypeMismatch { expected, value } => {
                write!(f, "value {value} is not legal for type `{expected}`")
            }
            InvalidRefinement {
                class,
                attr,
                inherited,
                refined,
            } => write!(
                f,
                "class `{class}` illegally refines attribute `{attr}` from `{inherited}` to `{refined}` (Rule 6.1)"
            ),
            InvalidOverride { class, method } => write!(
                f,
                "class `{class}` overrides method `{method}` violating co/contra-variance"
            ),
            ImmutableAttribute { oid, attr } => {
                write!(f, "attribute `{attr}` of {oid} is immutable")
            }
            CrossHierarchyMigration { oid, from, to } => write!(
                f,
                "object {oid} cannot migrate from `{from}` to `{to}`: disjoint hierarchies (Invariant 6.2)"
            ),
            MissingAttribute { class, attr } => {
                write!(f, "missing value for attribute `{attr}` of class `{class}`")
            }
            UnexpectedAttribute { class, attr } => {
                write!(f, "class `{class}` does not declare attribute `{attr}`")
            }
            History(e) => write!(f, "history error: {e}"),
            NotInLifespan { at } => write!(f, "instant {at} outside lifespan"),
            SnapshotUndefined { oid, at } => write!(
                f,
                "snapshot({oid},{at}) undefined: object has static attributes and {at} ≠ now"
            ),
            NoLub { left, right } => {
                write!(f, "types `{left}` and `{right}` have no least upper bound")
            }
            ClockMovedBackwards { to, now } => {
                write!(f, "cannot move clock backwards to {to} (now = {now})")
            }
            Internal { context } => {
                write!(f, "internal invariant violated: {context} (this is a bug)")
            }
            Quarantined { class } => write!(
                f,
                "class `{class}` is quarantined by the integrity scrubber (unrepaired corruption)"
            ),
            OidMismatch { expected, got } => write!(
                f,
                "oid mismatch: the operation pins {expected}, the database would assign {got}"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<HistoryError> for ModelError {
    fn from(e: HistoryError) -> Self {
        ModelError::History(e)
    }
}

/// Convenient result alias for model operations.
pub type Result<T, E = ModelError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::InvalidRefinement {
            class: ClassId::from("manager"),
            attr: AttrName::from("salary"),
            inherited: Type::INTEGER,
            refined: Type::STRING,
        };
        let s = e.to_string();
        assert!(s.contains("manager"));
        assert!(s.contains("salary"));
        assert!(s.contains("Rule 6.1"));
    }

    #[test]
    fn history_error_converts() {
        let e: ModelError = HistoryError::Overlap.into();
        assert_eq!(e, ModelError::History(HistoryError::Overlap));
        assert!(e.to_string().contains("overlap"));
    }
}
