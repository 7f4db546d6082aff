//! The TCQL interpreter: parse → type-check → execute against a database.
//!
//! Writes and reads take two paths. Every DDL, DML and clock statement
//! lowers to one [`Operation`] applied through `Database::apply` — the
//! model's one update semantics, the same function the durable engine
//! logs through and recovers with. Every other statement runs through
//! the read executor this interpreter shares with the
//! [`ReplicaSession`](crate::ReplicaSession).

use std::fmt;

use tchimera_core::{
    AttrName, Attrs, ConsistencyReport, Constraint, ConstraintViolation, Database, Equality,
    Instant, InvariantViolation, ModelError, Oid, Operation, Quantifier, ScrubReport,
};

use crate::ast::{ConstraintSpec, Literal, Stmt};
use crate::eval::{EvalError, QueryResult};
use crate::exec::{execute_plan, ExecOptions, ExecStats};
use crate::governor::{CancelToken, ExecBudget, Progress, Resource};
use crate::parser::{parse, parse_script, ParseError};
use crate::plan::{render_explain, PlanCache, PlannedQuery};
use crate::typecheck::TypeError;

/// Any error produced while running a TCQL statement.
#[derive(Debug)]
pub enum QueryError {
    /// Lexical/syntactic error.
    Parse(ParseError),
    /// Static type error.
    Type(TypeError),
    /// Model rejection during execution.
    Model(ModelError),
    /// Runtime evaluation error.
    Eval(EvalError),
    /// The query's resource budget ran out (`DESIGN.md` §12).
    BudgetExceeded {
        /// Which limit tripped.
        resource: Resource,
        /// Units spent when it tripped.
        spent: u64,
        /// The configured limit.
        limit: u64,
        /// Work done up to the stop.
        progress: Progress,
    },
    /// The query's cancellation token fired.
    Cancelled {
        /// Work done up to the stop.
        progress: Progress,
    },
    /// The concurrent-query cap was reached; the query was shed rather
    /// than queued.
    Overloaded {
        /// Queries running when this one was refused.
        active: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The evaluator panicked; the panic was caught at the query API and
    /// the engine keeps serving.
    Internal(String),
    /// A mutating statement reached a read-only session (a
    /// [`ReplicaSession`](crate::replica::ReplicaSession) serving a
    /// follower's database).
    ReadOnly {
        /// The statement kind that was refused.
        stmt: &'static str,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Type(e) => write!(f, "type error: {e}"),
            QueryError::Model(e) => write!(f, "{e}"),
            QueryError::Eval(e) => write!(f, "{e}"),
            QueryError::BudgetExceeded { resource, spent, limit, progress } => write!(
                f,
                "query budget exceeded: {resource} {spent} > limit {limit} (progress: {progress})"
            ),
            QueryError::Cancelled { progress } => {
                write!(f, "query cancelled (progress: {progress})")
            }
            QueryError::Overloaded { active, cap } => write!(
                f,
                "overloaded: {active} queries already running (cap {cap}); retry later"
            ),
            QueryError::Internal(msg) => write!(f, "internal query error: {msg}"),
            QueryError::ReadOnly { stmt } => write!(
                f,
                "read-only session: {stmt} is a mutating statement; run it on the primary"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}
impl From<TypeError> for QueryError {
    fn from(e: TypeError) -> Self {
        QueryError::Type(e)
    }
}
impl From<ModelError> for QueryError {
    fn from(e: ModelError) -> Self {
        QueryError::Model(e)
    }
}
impl From<EvalError> for QueryError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::Budget { resource, spent, limit, progress } => {
                QueryError::BudgetExceeded { resource, spent, limit, progress }
            }
            EvalError::Cancelled { progress } => QueryError::Cancelled { progress },
            EvalError::Internal(msg) => QueryError::Internal(msg),
            other => QueryError::Eval(other),
        }
    }
}

/// The result of executing one statement.
#[derive(Debug)]
pub enum Outcome {
    /// DDL/DML acknowledged.
    Ok,
    /// An object was created.
    Created(Oid),
    /// The clock moved.
    Time(Instant),
    /// Query rows.
    Table(QueryResult),
    /// `EXPLAIN SELECT` report.
    Explain(String),
    /// Class description (from `SHOW CLASS`).
    ClassInfo(String),
    /// `CHECK CONSISTENCY` report.
    Consistency(ConsistencyReport),
    /// `CHECK INVARIANTS` report.
    Invariants(Vec<InvariantViolation>),
    /// `COMPARE` result: the strongest equality, if any.
    Equality(Option<Equality>),
    /// `CHECK CONSTRAINT` report.
    Constraint(Vec<ConstraintViolation>),
    /// `SCRUB NOW` / `SCRUB STATUS` report, pre-rendered.
    Scrub(String),
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Ok => write!(f, "ok"),
            Outcome::Created(i) => write!(f, "created {i}"),
            Outcome::Time(t) => write!(f, "now = {t}"),
            Outcome::Table(t) => write!(f, "{t}"),
            Outcome::Explain(s) => write!(f, "{s}"),
            Outcome::ClassInfo(s) => write!(f, "{s}"),
            Outcome::Consistency(r) => {
                if r.is_consistent() {
                    write!(f, "consistent")
                } else {
                    writeln!(f, "{} violation(s):", r.len())?;
                    for e in &r.errors {
                        writeln!(f, "  {e}")?;
                    }
                    Ok(())
                }
            }
            Outcome::Invariants(v) => {
                if v.is_empty() {
                    write!(f, "all invariants hold")
                } else {
                    writeln!(f, "{} violation(s):", v.len())?;
                    for e in v {
                        writeln!(f, "  {e}")?;
                    }
                    Ok(())
                }
            }
            Outcome::Equality(None) => write!(f, "not equal under any notion"),
            Outcome::Equality(Some(e)) => write!(f, "strongest equality: {e:?}"),
            Outcome::Constraint(v) => {
                if v.is_empty() {
                    write!(f, "constraint satisfied")
                } else {
                    writeln!(f, "{} violation(s):", v.len())?;
                    for e in v {
                        writeln!(f, "  {e}")?;
                    }
                    Ok(())
                }
            }
            Outcome::Scrub(s) => write!(f, "{s}"),
        }
    }
}

/// A stateful TCQL interpreter owning a [`Database`].
///
/// Every `SELECT`/`EXPLAIN` it executes is **governed** (`DESIGN.md`
/// §12): admission-controlled against the database's concurrent-query
/// cap, metered against the interpreter's [`ExecBudget`] (default limits
/// unless [`Interpreter::set_budget`] overrides them), and shielded so an
/// evaluator panic surfaces as [`QueryError::Internal`] instead of
/// unwinding through the caller.
#[derive(Default)]
pub struct Interpreter {
    db: Database,
    plans: PlanCache,
    budget: ExecBudget,
    /// Outcome of the most recent `SCRUB NOW`, for `SCRUB STATUS`.
    last_scrub: Option<ScrubReport>,
}

impl Interpreter {
    /// A fresh interpreter over an empty database.
    #[must_use]
    pub fn new() -> Interpreter {
        Interpreter::default()
    }

    /// Wrap an existing database.
    #[must_use]
    pub fn with_db(db: Database) -> Interpreter {
        Interpreter { db, ..Interpreter::default() }
    }

    /// The underlying database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database (for mixing API and TCQL
    /// use).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// The budget governing each query this interpreter runs.
    pub fn budget(&self) -> &ExecBudget {
        &self.budget
    }

    /// Replace the per-query budget (applies to subsequent statements).
    pub fn set_budget(&mut self, budget: ExecBudget) {
        self.budget = budget;
    }

    /// The cancellation token attached to this interpreter's queries.
    /// Cancel it from another thread to stop the running query; it is
    /// NOT auto-reset, so call [`CancelToken::reset`] before reuse.
    pub fn cancel_token(&self) -> CancelToken {
        self.budget.cancel.clone()
    }

    /// Parse, type-check and execute a single statement.
    pub fn run(&mut self, src: &str) -> Result<Outcome, QueryError> {
        let stmt = parse(src)?;
        self.execute(stmt)
    }

    /// Run a `;`-separated script, stopping at the first error; returns
    /// the outcome of each executed statement.
    pub fn run_script(&mut self, src: &str) -> Result<Vec<Outcome>, QueryError> {
        let stmts = parse_script(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.execute(stmt)?);
        }
        Ok(out)
    }

    /// Execute a parsed statement: a DDL, DML or clock statement is
    /// applied as one [`Operation`], everything else reads.
    pub fn execute(&mut self, stmt: Stmt) -> Result<Outcome, QueryError> {
        match lower(&self.db, stmt) {
            Lowered::Write(_, op) => {
                self.db.apply(&op)?;
                Ok(match op {
                    Operation::CreateObject { expect, .. } => Outcome::Created(expect),
                    Operation::AdvanceTo(t) => Outcome::Time(t),
                    _ => Outcome::Ok,
                })
            }
            Lowered::Other(Stmt::ScrubNow) => {
                let report = self.governed_scrub()?;
                let rendered = report.to_string();
                self.last_scrub = Some(report);
                Ok(Outcome::Scrub(rendered))
            }
            Lowered::Other(stmt) => execute_read(
                &self.db,
                &mut self.plans,
                &self.budget,
                self.last_scrub.as_ref(),
                stmt,
            ),
        }
    }

    /// The report of the most recent `SCRUB NOW`, if one has run.
    pub fn last_scrub(&self) -> Option<&ScrubReport> {
        self.last_scrub.as_ref()
    }

    /// Run one scrub cycle under the same governor policy as a query:
    /// admission-controlled against the concurrent-query cap, charged
    /// step by step against this interpreter's [`ExecBudget`] cost cap
    /// (a scrub can consume no more logical cost than a single query
    /// may), cancellable through the budget's token, and panic-shielded.
    /// An over-budget cycle stops early with `budget_exhausted` set
    /// rather than erroring: partial verification is still progress, and
    /// the counters cover exactly the work done.
    fn governed_scrub(&mut self) -> Result<ScrubReport, QueryError> {
        let gate = self.db.admission_handle();
        let Some(_permit) = gate.try_enter() else {
            return Err(QueryError::Overloaded {
                active: gate.active(),
                cap: gate.cap(),
            });
        };
        let max_cost = self.budget.max_cost;
        let cancel = self.budget.cancel.clone();
        let db = &mut self.db;
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut spent = 0u64;
            db.scrub_cycle_with(&mut |cost| {
                spent = spent.saturating_add(cost);
                spent <= max_cost && !cancel.is_cancelled()
            })
        }));
        match caught {
            Ok(report) => Ok(report),
            Err(payload) => {
                tchimera_obs::counter!("query.panic.count").inc();
                Err(QueryError::Internal(panic_message(payload)))
            }
        }
    }
}

/// A statement as [`lower`] sorts it.
pub(crate) enum Lowered {
    /// A DDL, DML or clock statement: the one [`Operation`] it performs,
    /// named by its TCQL keyword.
    Write(&'static str, Operation),
    /// Any other statement, unchanged.
    Other(Stmt),
}

/// Lower a DDL, DML or clock statement to the one [`Operation`] it
/// performs on `db`; every other statement is handed back unchanged.
pub(crate) fn lower(db: &Database, stmt: Stmt) -> Lowered {
    let values = |init: Vec<(AttrName, Literal)>| -> Attrs {
        init.into_iter().map(|(n, l)| (n, l.to_value())).collect()
    };
    let (kind, op) = match stmt {
        Stmt::DefineClass(def) => ("DEFINE CLASS", Operation::DefineClass(def)),
        Stmt::DropClass(c) => ("DROP CLASS", Operation::DropClass(c)),
        Stmt::Create { class, init } => (
            "CREATE",
            Operation::CreateObject { class, init: values(init), expect: db.next_oid() },
        ),
        Stmt::Set { oid, attr, value } => (
            "SET",
            Operation::SetAttr { oid: Oid(oid), attr, value: value.to_value() },
        ),
        Stmt::SetCAttr { class, attr, value } => (
            "SET CLASS ATTRIBUTE",
            Operation::SetCAttr { class, attr, value: value.to_value() },
        ),
        Stmt::Migrate { oid, to, init } => (
            "MIGRATE",
            Operation::Migrate { oid: Oid(oid), to, init: values(init) },
        ),
        Stmt::Terminate { oid } => ("TERMINATE", Operation::Terminate { oid: Oid(oid) }),
        Stmt::Tick(n) => ("TICK", Operation::AdvanceTo(db.now().advance(n))),
        Stmt::AdvanceTo(t) => ("ADVANCE TO", Operation::AdvanceTo(Instant(t))),
        other => return Lowered::Other(other),
    };
    Lowered::Write(kind, op)
}

/// Execute a statement that only reads `db`: the executor both session
/// kinds share. The caller handles every statement that [`lower`]s to an
/// operation, and `SCRUB NOW`; `last_scrub` is the cycle `SCRUB STATUS`
/// reports (a replica session has none: scrubbing there happens at the
/// storage layer, not through TCQL).
pub(crate) fn execute_read(
    db: &Database,
    plans: &mut PlanCache,
    budget: &ExecBudget,
    last_scrub: Option<&ScrubReport>,
    stmt: Stmt,
) -> Result<Outcome, QueryError> {
    Ok(match stmt {
        Stmt::Select(q) => {
            let (plan, _hit) = plans.get_or_plan(db.schema(), &q)?;
            let (table, _stats) = governed_query(db, budget, &plan)?;
            Outcome::Table(table)
        }
        Stmt::Explain(q) => {
            let (plan, hit) = plans.get_or_plan(db.schema(), &q)?;
            let (_table, stats) = governed_query(db, budget, &plan)?;
            Outcome::Explain(render_explain(&plan, &stats, hit))
        }
        Stmt::ShowClass(c) => Outcome::ClassInfo(describe_class(db, &c)?),
        Stmt::CheckConsistency => Outcome::Consistency(db.check_database()),
        Stmt::CheckInvariants => Outcome::Invariants(db.check_invariants()),
        Stmt::Compare { a, b } => Outcome::Equality(db.strongest_equality(Oid(a), Oid(b))?),
        Stmt::CheckConstraint(spec) => {
            Outcome::Constraint(db.check_constraint(&constraint_of(spec)))
        }
        Stmt::ScrubStatus => Outcome::Scrub(render_scrub_status(last_scrub, db)),
        _ => unreachable!("writes and SCRUB NOW are handled by the caller"),
    })
}

/// Render `SCRUB STATUS`: the last recorded cycle (if any) plus the
/// database's live quarantine set.
fn render_scrub_status(last: Option<&ScrubReport>, db: &Database) -> String {
    let mut s = match last {
        Some(r) => r.to_string(),
        None => "scrub: no cycle recorded".to_string(),
    };
    let q = db.quarantined_classes();
    if q.is_empty() {
        s.push_str("\nquarantine: empty");
    } else {
        let names: Vec<String> = q.iter().map(ToString::to_string).collect();
        s.push_str(&format!("\nquarantine: {}", names.join(", ")));
    }
    s
}

/// Run a planned query under the full governor: admission control
/// against the database's concurrent-query cap, budget metering, and a
/// panic shield. This is the only path by which either session kind
/// executes query plans, so both front doors enforce the identical
/// policy.
fn governed_query(
    db: &Database,
    budget: &ExecBudget,
    plan: &PlannedQuery,
) -> Result<(QueryResult, ExecStats), QueryError> {
    let gate = db.admission();
    let Some(_permit) = gate.try_enter() else {
        return Err(QueryError::Overloaded {
            active: gate.active(),
            cap: gate.cap(),
        });
    };
    let opts = ExecOptions {
        budget: Some(budget.clone()),
        ..ExecOptions::default()
    };
    // The shield: `execute_plan` reads shared state only (&Database),
    // so observing it after a caught unwind is sound; the permit's
    // Drop still runs, nothing is poisoned, and the engine serves the
    // next statement.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_plan(db, plan, &opts)
    }));
    match caught {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => {
            match &e {
                EvalError::Budget { .. } => {
                    tchimera_obs::counter!("query.governor.budget_exceeded").inc()
                }
                EvalError::Cancelled { .. } => {
                    tchimera_obs::counter!("query.governor.cancelled").inc()
                }
                _ => {}
            }
            Err(e.into())
        }
        Err(payload) => {
            tchimera_obs::counter!("query.panic.count").inc();
            Err(QueryError::Internal(panic_message(payload)))
        }
    }
}

/// Lower a parsed constraint spec to the model-level [`Constraint`].
fn constraint_of(spec: ConstraintSpec) -> Constraint {
    match spec {
        ConstraintSpec::Covered(class, attr) => Constraint::Covered { class, attr },
        ConstraintSpec::NonDecreasing(class, attr) => Constraint::NonDecreasing { class, attr },
        ConstraintSpec::Constant(class, attr) => Constraint::ConstantHistory { class, attr },
        ConstraintSpec::NeverNull(class, attr) => Constraint::NeverNull { class, attr },
        ConstraintSpec::Range { class, attr, min, max, always } => Constraint::InRange {
            class,
            attr,
            min: min.to_value(),
            max: max.to_value(),
            quantifier: if always { Quantifier::Always } else { Quantifier::Sometime },
        },
    }
}

/// Render the `SHOW CLASS` description.
fn describe_class(
    db: &Database,
    c: &tchimera_core::ClassId,
) -> Result<String, QueryError> {
    let class = db.class(c)?;
    let mut s = format!(
        "class {} ({:?}), lifespan {}\n",
        class.id, class.kind, class.lifespan
    );
    if !class.superclasses.is_empty() {
        let sups: Vec<&str> = class.superclasses.iter().map(|c| c.as_str()).collect();
        s.push_str(&format!("  under: {}\n", sups.join(", ")));
    }
    for (n, d) in &class.all_attrs {
        let own = if class.own_attrs.contains_key(n) { "" } else { " (inherited)" };
        let imm = if d.immutable { " immutable" } else { "" };
        s.push_str(&format!("  {n}: {}{imm}{own}\n", d.ty));
    }
    for (n, m) in &class.all_methods {
        let ins: Vec<String> = m.inputs.iter().map(|t| t.to_string()).collect();
        s.push_str(&format!("  method {n}({}): {}\n", ins.join(","), m.output));
    }
    for (n, d) in &class.c_attrs {
        s.push_str(&format!("  c-attribute {n}: {}\n", d.ty));
    }
    for (n, m) in &class.c_methods {
        let ins: Vec<String> = m.inputs.iter().map(|t| t.to_string()).collect();
        s.push_str(&format!("  c-operation {n}({}): {}\n", ins.join(","), m.output));
    }
    Ok(s)
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "query evaluator panicked".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tchimera_core::Value;

    #[test]
    fn end_to_end_script() {
        let mut interp = Interpreter::new();
        let outcomes = interp
            .run_script(
                "define class person (name: temporal(string) immutable, address: string); \
                 define class employee under person (salary: temporal(integer)); \
                 advance to 10; \
                 create employee (name := 'Bob', address := 'Milano', salary := 100); \
                 tick 10; \
                 set #0.salary := 150; \
                 select e, e.salary from employee e where e.salary > 120; \
                 check consistency; \
                 check invariants",
            )
            .unwrap();
        assert_eq!(outcomes.len(), 9);
        assert!(matches!(outcomes[3], Outcome::Created(Oid(0))));
        match &outcomes[6] {
            Outcome::Table(t) => {
                assert_eq!(t.len(), 1);
                assert_eq!(t.rows[0][1], Value::Int(150));
            }
            other => panic!("expected table, got {other}"),
        }
        assert!(matches!(&outcomes[7], Outcome::Consistency(r) if r.is_consistent()));
        assert!(matches!(&outcomes[8], Outcome::Invariants(v) if v.is_empty()));
    }

    #[test]
    fn migration_via_tcql() {
        let mut interp = Interpreter::new();
        interp
            .run_script(
                "define class person (); \
                 define class employee under person (salary: temporal(integer)); \
                 define class manager under employee (officialcar: string); \
                 advance to 10; \
                 create employee (salary := 100); \
                 tick 10; \
                 migrate #0 to manager (officialcar := 'Alfa 164')",
            )
            .unwrap();
        let out = interp.run("select e, class of e from person e").unwrap();
        match out {
            Outcome::Table(t) => {
                assert_eq!(t.len(), 1);
                assert_eq!(t.rows[0][1], Value::str("manager"));
            }
            other => panic!("expected table, got {other}"),
        }
        // Time travel sees the pre-migration class.
        let out = interp
            .run("select class of e from person e as of 15")
            .unwrap();
        match out {
            Outcome::Table(t) => assert_eq!(t.rows[0][0], Value::str("employee")),
            other => panic!("expected table, got {other}"),
        }
    }

    #[test]
    fn type_errors_caught_before_execution() {
        let mut interp = Interpreter::new();
        interp
            .run("define class c (x: temporal(integer), y: string)")
            .unwrap();
        let err = interp.run("select z.x from c z where z.x = 'nope'").unwrap_err();
        assert!(matches!(err, QueryError::Type(_)));
        let err = interp.run("select history of z.y from c z").unwrap_err();
        assert!(matches!(err, QueryError::Type(TypeError::NotTemporal { .. })));
    }

    #[test]
    fn model_errors_surface() {
        let mut interp = Interpreter::new();
        interp.run("define class c (x: integer)").unwrap();
        let err = interp.run("create c (x := 'wrong')").unwrap_err();
        assert!(matches!(err, QueryError::Model(ModelError::TypeMismatch { .. })));
        let err = interp.run("set #99.x := 1").unwrap_err();
        assert!(matches!(err, QueryError::Model(ModelError::UnknownObject(_))));
        let err = interp.run("terminate #99").unwrap_err();
        assert!(err.to_string().contains("i99"));
    }

    #[test]
    fn show_class_describes() {
        let mut interp = Interpreter::new();
        interp
            .run_script(
                "define class person (name: string); \
                 define class employee under person (salary: temporal(integer)) \
                   c-attributes (headcount: temporal(integer)) \
                   methods (raise(integer): employee)",
            )
            .unwrap();
        let out = interp.run("show class employee").unwrap();
        match out {
            Outcome::ClassInfo(s) => {
                assert!(s.contains("under: person"));
                assert!(s.contains("salary: temporal(integer)"));
                assert!(s.contains("name: string (inherited)"));
                assert!(s.contains("method raise(integer): employee"));
                assert!(s.contains("c-attribute headcount"));
            }
            other => panic!("expected class info, got {other}"),
        }
    }

    #[test]
    fn outcome_display() {
        assert_eq!(Outcome::Ok.to_string(), "ok");
        assert_eq!(Outcome::Created(Oid(3)).to_string(), "created i3");
        assert_eq!(Outcome::Time(Instant(9)).to_string(), "now = 9");
        assert_eq!(
            Outcome::Consistency(ConsistencyReport::default()).to_string(),
            "consistent"
        );
        assert_eq!(Outcome::Invariants(vec![]).to_string(), "all invariants hold");
    }

    #[test]
    fn count_aggregate() {
        let mut interp = Interpreter::new();
        interp
            .run_script(
                "define class employee (salary: temporal(integer)); \
                 advance to 10; \
                 create employee (salary := 100); \
                 create employee (salary := 200); \
                 create employee (salary := 300); \
                 advance to 20; \
                 terminate #0",
            )
            .unwrap();
        let count = |interp: &mut Interpreter, q: &str| match interp.run(q).unwrap() {
            Outcome::Table(t) => t.rows[0][0].clone(),
            other => panic!("expected table, got {other}"),
        };
        interp.run("tick").unwrap();
        assert_eq!(
            count(&mut interp, "select count(e) from employee e"),
            Value::Int(2)
        );
        assert_eq!(
            count(&mut interp, "select count(e) from employee e as of 15"),
            Value::Int(3)
        );
        assert_eq!(
            count(
                &mut interp,
                "select count(e) from employee e where e.salary >= 200"
            ),
            Value::Int(2)
        );
        assert_eq!(
            count(&mut interp, "select count(e) from employee e where e.salary > 999"),
            Value::Int(0)
        );
        // Count mixed with other projections is a static error.
        let err = interp
            .run("select count(e), e.salary from employee e")
            .unwrap_err();
        assert!(matches!(err, QueryError::Type(TypeError::CountNotAlone)));
    }

    #[test]
    fn compare_statement() {
        let mut interp = Interpreter::new();
        interp
            .run_script(
                "define class player (score: temporal(integer)); \
                 create player (score := 5); \
                 create player (score := 5); \
                 create player (score := 9); \
                 tick 3",
            )
            .unwrap();
        match interp.run("compare #0 #0").unwrap() {
            Outcome::Equality(Some(Equality::Identity)) => {}
            other => panic!("expected identity, got {other}"),
        }
        match interp.run("compare #0 #1").unwrap() {
            Outcome::Equality(Some(Equality::Value)) => {}
            other => panic!("expected value equality, got {other}"),
        }
        match interp.run("compare #0 #2").unwrap() {
            Outcome::Equality(None) => {}
            other => panic!("expected no equality, got {other}"),
        }
        assert!(Outcome::Equality(Some(Equality::Weak))
            .to_string()
            .contains("Weak"));
        assert!(Outcome::Equality(None).to_string().contains("not equal"));
    }

    #[test]
    fn check_constraint_statements() {
        let mut interp = Interpreter::new();
        interp
            .run_script(
                "define class employee (salary: temporal(integer)); \
                 advance to 10; \
                 create employee (salary := 100); \
                 advance to 20; \
                 set #0.salary := 90",
            )
            .unwrap();
        match interp
            .run("check constraint non-decreasing employee.salary")
            .unwrap()
        {
            Outcome::Constraint(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].oid, Oid(0));
            }
            other => panic!("expected constraint report, got {other}"),
        }
        match interp.run("check constraint covered employee.salary").unwrap() {
            Outcome::Constraint(v) => assert!(v.is_empty()),
            other => panic!("expected constraint report, got {other}"),
        }
        match interp
            .run("check constraint range employee.salary [50, 200] always")
            .unwrap()
        {
            Outcome::Constraint(v) => assert!(v.is_empty()),
            other => panic!("expected constraint report, got {other}"),
        }
        match interp
            .run("check constraint range employee.salary [95, 200] sometime")
            .unwrap()
        {
            Outcome::Constraint(v) => assert!(v.is_empty()), // 100 was in range
            other => panic!("expected constraint report, got {other}"),
        }
        match interp
            .run("check constraint constant employee.salary")
            .unwrap()
        {
            Outcome::Constraint(v) => assert_eq!(v.len(), 1),
            other => panic!("expected constraint report, got {other}"),
        }
        assert!(interp
            .run("check constraint bogus employee.salary")
            .is_err());
        let shown = interp
            .run("check constraint never-null employee.salary")
            .unwrap()
            .to_string();
        assert!(shown.contains("satisfied"));
    }

    #[test]
    fn explain_reports_plan_and_cache_disposition() {
        let mut interp = Interpreter::new();
        interp
            .run_script(
                "define class employee (salary: temporal(integer)); \
                 advance to 10; \
                 create employee (salary := 100); \
                 create employee (salary := 200); \
                 tick 5",
            )
            .unwrap();
        let q = "explain select e from employee e where e.salary > 150";
        match interp.run(q).unwrap() {
            Outcome::Explain(s) => {
                assert!(s.contains("plan (now):"), "{s}");
                assert!(s.contains("var e: employee"), "{s}");
                assert!(s.contains("plan cache: miss"), "{s}");
                assert!(s.contains("rows: 1"), "{s}");
            }
            other => panic!("expected explain, got {other}"),
        }
        // Second run of the same query reuses the cached plan.
        match interp.run(q).unwrap() {
            Outcome::Explain(s) => assert!(s.contains("plan cache: hit"), "{s}"),
            other => panic!("expected explain, got {other}"),
        }
        // Display passthrough.
        assert!(interp.run(q).unwrap().to_string().contains("plan cache: hit"));
        // DDL invalidates cached plans.
        interp.run("define class extra ()").unwrap();
        match interp.run(q).unwrap() {
            Outcome::Explain(s) => assert!(s.contains("plan cache: miss"), "{s}"),
            other => panic!("expected explain, got {other}"),
        }
    }

    #[test]
    fn repeated_selects_share_one_cached_plan() {
        let mut interp = Interpreter::new();
        interp
            .run_script(
                "define class t (k: integer); \
                 advance to 1; \
                 create t (k := 1); \
                 tick",
            )
            .unwrap();
        for _ in 0..3 {
            match interp.run("select x from t x where x.k = 1").unwrap() {
                Outcome::Table(t) => assert_eq!(t.len(), 1),
                other => panic!("expected table, got {other}"),
            }
        }
        assert_eq!(interp.plans.len(), 1);
    }

    fn governed_db(interp: &mut Interpreter, per_class: usize) {
        interp
            .run_script(
                "define class a (v: integer); \
                 define class b (v: integer); \
                 define class c (v: integer); \
                 advance to 1",
            )
            .unwrap();
        for class in ["a", "b", "c"] {
            for i in 0..per_class {
                interp
                    .run(&format!("create {class} (v := {})", i % 7))
                    .unwrap();
            }
        }
        interp.run("tick").unwrap();
    }

    #[test]
    fn pathological_cross_product_trips_default_budget_then_session_recovers() {
        let mut interp = Interpreter::new();
        governed_db(&mut interp, 200);
        // 200³ = 8M bindings against the default 1M binding budget.
        let err = interp
            .run("select count(x) from a x, b y, c z")
            .unwrap_err();
        match err {
            QueryError::BudgetExceeded { spent, limit, progress, .. } => {
                assert!(spent > limit);
                assert!(progress.cost > 0);
            }
            other => panic!("expected budget error, got {other}"),
        }
        // The same session keeps serving immediately and correctly.
        match interp.run("select count(x) from a x where x.v = 0").unwrap() {
            Outcome::Table(t) => assert_eq!(t.rows[0][0], Value::Int(29)),
            other => panic!("expected table, got {other}"),
        }
        assert_eq!(interp.db().admission().active(), 0, "permit released");
    }

    #[test]
    fn configured_budget_is_honored_and_replaceable() {
        let mut interp = Interpreter::new();
        governed_db(&mut interp, 20);
        interp.set_budget(ExecBudget {
            max_bindings: 10,
            ..ExecBudget::unlimited()
        });
        let err = interp.run("select count(x) from a x, b y").unwrap_err();
        assert!(matches!(
            err,
            QueryError::BudgetExceeded { resource: Resource::Bindings, limit: 10, .. }
        ));
        interp.set_budget(ExecBudget::unlimited());
        match interp.run("select count(x) from a x, b y").unwrap() {
            Outcome::Table(t) => assert_eq!(t.rows[0][0], Value::Int(400)),
            other => panic!("expected table, got {other}"),
        }
    }

    #[test]
    fn overload_sheds_instead_of_queueing() {
        let mut interp = Interpreter::new();
        governed_db(&mut interp, 5);
        // A database clone shares the admission gate; hold its only slot.
        let gate_holder = interp.db().clone();
        gate_holder.admission().set_cap(1);
        let permit = gate_holder.admission().try_enter().unwrap();
        let err = interp.run("select x from a x").unwrap_err();
        assert!(matches!(err, QueryError::Overloaded { active: 1, cap: 1 }));
        drop(permit);
        assert!(interp.run("select x from a x").is_ok(), "slot freed");
    }

    #[test]
    fn panic_shield_reports_internal_and_keeps_serving() {
        let mut interp = Interpreter::new();
        governed_db(&mut interp, 5);
        let q = match parse("select x from a x") {
            Ok(Stmt::Select(s)) => s,
            _ => unreachable!(),
        };
        // Corrupt a plan invariant the executor trusts (projection slot
        // out of range) to force a panic inside `execute_plan`.
        let mut plan = crate::plan::plan_select(&q);
        plan.proj_vars = vec![usize::MAX];
        let panic_count = || {
            tchimera_obs::registry()
                .snapshot()
                .counter("query.panic.count")
                .unwrap_or(0)
        };
        let panics_before = panic_count();
        let err = governed_query(interp.db(), interp.budget(), &plan).unwrap_err();
        assert!(matches!(err, QueryError::Internal(_)), "got {err}");
        assert_eq!(panic_count(), panics_before + 1);
        // Nothing poisoned: the permit was released and queries still run.
        assert_eq!(interp.db().admission().active(), 0);
        match interp.run("select count(x) from a x").unwrap() {
            Outcome::Table(t) => assert_eq!(t.rows[0][0], Value::Int(5)),
            other => panic!("expected table, got {other}"),
        }
    }

    #[test]
    fn cancellation_stops_a_query_and_resets_for_the_next() {
        let mut interp = Interpreter::new();
        governed_db(&mut interp, 10);
        let token = interp.cancel_token();
        token.cancel();
        let err = interp.run("select x from a x").unwrap_err();
        assert!(matches!(err, QueryError::Cancelled { .. }), "got {err}");
        token.reset();
        assert!(interp.run("select x from a x").is_ok());
    }

    #[test]
    fn set_c_attr_via_tcql() {
        let mut interp = Interpreter::new();
        interp
            .run("define class project () c-attributes (average-participants: integer)")
            .unwrap();
        interp
            .run("set class attribute project.average-participants := 20")
            .unwrap();
        assert_eq!(
            interp
                .db()
                .c_attr(&"project".into(), &"average-participants".into())
                .unwrap(),
            &Value::Int(20)
        );
    }

    #[test]
    fn scrub_statements_run_governed() {
        let mut interp = Interpreter::new();
        interp
            .run_script(
                "define class person (name: temporal(string) immutable, address: string); \
                 create person (name := 'Bob', address := 'Milano'); \
                 tick 3",
            )
            .unwrap();
        // Status before any cycle: nothing recorded, nothing fenced.
        match interp.run("scrub status").unwrap() {
            Outcome::Scrub(s) => {
                assert!(s.contains("no cycle recorded"), "{s}");
                assert!(s.contains("quarantine: empty"), "{s}");
            }
            other => panic!("expected scrub status, got {other}"),
        }
        // A healthy database scrubs clean, and the report is recorded.
        match interp.run("scrub now").unwrap() {
            Outcome::Scrub(s) => assert!(s.contains("clean"), "{s}"),
            other => panic!("expected scrub report, got {other}"),
        }
        assert!(interp.last_scrub().is_some_and(tchimera_core::ScrubReport::clean));
        match interp.run("scrub status").unwrap() {
            Outcome::Scrub(s) => {
                assert!(s.contains("clean"), "{s}");
                assert!(s.contains("quarantine: empty"), "{s}");
            }
            other => panic!("expected scrub status, got {other}"),
        }
    }

    #[test]
    fn scrub_now_is_charged_against_the_budget() {
        let mut interp = Interpreter::new();
        interp
            .run_script(
                "define class person (name: temporal(string) immutable, address: string); \
                 create person (name := 'Ann', address := 'Genova')",
            )
            .unwrap();
        let mut tiny = ExecBudget::unlimited();
        tiny.max_cost = 1;
        interp.set_budget(tiny);
        match interp.run("scrub now").unwrap() {
            Outcome::Scrub(s) => assert!(s.contains("budget exhausted"), "{s}"),
            other => panic!("expected scrub report, got {other}"),
        }
        assert!(interp.last_scrub().unwrap().budget_exhausted);
        // A real budget finishes the cycle cleanly.
        interp.set_budget(ExecBudget::default());
        assert!(matches!(
            interp.run("scrub now").unwrap(),
            Outcome::Scrub(s) if s.contains("clean")
        ));
    }

    #[test]
    fn scrub_status_reports_the_quarantine() {
        let mut interp = Interpreter::new();
        interp.run("define class person (address: string)").unwrap();
        interp.db().quarantine_class(&"person".into());
        match interp.run("scrub status").unwrap() {
            Outcome::Scrub(s) => assert!(s.contains("quarantine: person"), "{s}"),
            other => panic!("expected scrub status, got {other}"),
        }
    }

    #[test]
    fn quarantined_class_refuses_selects_but_others_serve() {
        let mut interp = Interpreter::new();
        interp.run("define class person (address: string)").unwrap();
        interp.run("define class city (name: string)").unwrap();
        interp
            .run("create person (address := 'pine st')")
            .unwrap();
        interp.run("create city (name := 'milan')").unwrap();
        interp.db().quarantine_class(&"person".into());
        let err = interp.run("select p from person p").unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        // Every other class keeps serving through the same session.
        match interp.run("select c from city c").unwrap() {
            Outcome::Table(r) => assert_eq!(r.rows.len(), 1),
            other => panic!("expected rows, got {other}"),
        }
        interp.db().unquarantine_class(&"person".into());
        assert!(interp.run("select p from person p").is_ok());
    }
}
