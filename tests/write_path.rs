//! The one write path: every mutation is an `Operation` applied by
//! `Database::apply`, whether it comes from TCQL, from the durable
//! engine's mutators or from a committed transaction.
//!
//! * A TCQL script and the same steps through the logged mutators reach
//!   digest-identical states, and the logged state survives a reopen.
//! * The read-only replica session refuses exactly the statements that
//!   lower to an operation, with their TCQL names.
//! * A committed transaction is applied to the live state, so the live
//!   attribute-value index survives it instead of being rebuilt; a
//!   transaction whose append fails leaves the live state untouched.

use std::path::Path;
use std::sync::Arc;

use tchimera_core::{attrs, Attrs, ClassDef, ClassId, Database, Instant, Oid, Type, Value};
use tchimera_query::{
    execute_plan, parse, plan_select, ExecOptions, Interpreter, QueryError, ReplicaSession, Stmt,
};
use tchimera_storage::{digest_database, EngineError, PersistentDatabase, SimFs, Vfs};

/// Every DDL, DML and clock statement kind, with the name a read-only
/// session refuses it under.
const SCRIPT: &[(&str, &str)] = &[
    (
        "define class person (name: temporal(string) immutable, address: string)",
        "DEFINE CLASS",
    ),
    (
        "define class employee under person (salary: temporal(integer)) \
         c-attributes (headcount: temporal(integer))",
        "DEFINE CLASS",
    ),
    (
        "define class manager under employee (officialcar: string)",
        "DEFINE CLASS",
    ),
    ("define class scratch (x: integer)", "DEFINE CLASS"),
    ("advance to 10", "ADVANCE TO"),
    (
        "create employee (name := 'Ann', address := 'Milano', salary := 1000)",
        "CREATE",
    ),
    (
        "create employee (name := 'Bob', address := 'Genova', salary := 900)",
        "CREATE",
    ),
    (
        "set class attribute employee.headcount := 2",
        "SET CLASS ATTRIBUTE",
    ),
    ("tick 20", "TICK"),
    ("set #0.salary := 1500", "SET"),
    (
        "migrate #1 to manager (officialcar := 'Alfa 164')",
        "MIGRATE",
    ),
    ("tick", "TICK"),
    ("terminate #0", "TERMINATE"),
    ("drop class scratch", "DROP CLASS"),
    ("advance to 40", "ADVANCE TO"),
];

fn class_def(src: &str) -> ClassDef {
    match parse(src).unwrap() {
        Stmt::DefineClass(def) => def,
        other => panic!("not a class definition: {other:?}"),
    }
}

/// The script's steps through the logged mutators.
fn run_logged(pdb: &mut PersistentDatabase) {
    for (src, _) in &SCRIPT[..4] {
        pdb.define_class(class_def(src)).unwrap();
    }
    pdb.advance_to(Instant(10)).unwrap();
    let employee = ClassId::from("employee");
    let ann = pdb
        .create_object(
            &employee,
            attrs([
                ("name", Value::str("Ann")),
                ("address", Value::str("Milano")),
                ("salary", Value::Int(1000)),
            ]),
        )
        .unwrap();
    let bob = pdb
        .create_object(
            &employee,
            attrs([
                ("name", Value::str("Bob")),
                ("address", Value::str("Genova")),
                ("salary", Value::Int(900)),
            ]),
        )
        .unwrap();
    assert_eq!((ann, bob), (Oid(0), Oid(1)));
    pdb.set_c_attr(&employee, &"headcount".into(), Value::Int(2))
        .unwrap();
    pdb.advance_to(Instant(30)).unwrap();
    pdb.set_attr(ann, &"salary".into(), Value::Int(1500))
        .unwrap();
    pdb.migrate(
        bob,
        &ClassId::from("manager"),
        attrs([("officialcar", Value::str("Alfa 164"))]),
    )
    .unwrap();
    pdb.tick().unwrap();
    pdb.terminate_object(ann).unwrap();
    pdb.drop_class(&ClassId::from("scratch")).unwrap();
    pdb.advance_to(Instant(40)).unwrap();
}

#[test]
fn tcql_dml_and_the_logged_path_agree() {
    let mut interp = Interpreter::new();
    for (src, _) in SCRIPT {
        interp.run(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    }

    let vfs: Arc<dyn Vfs> = Arc::new(SimFs::new());
    let path = Path::new("write-path.log");
    let logged = {
        let mut pdb = PersistentDatabase::open_with(Arc::clone(&vfs), path).unwrap();
        run_logged(&mut pdb);
        pdb.sync().unwrap();
        assert_eq!(pdb.op_count(), SCRIPT.len());
        pdb.state_digest()
    };
    let reopened = PersistentDatabase::open_with(vfs, path).unwrap();
    assert_eq!(reopened.recovered_ops(), SCRIPT.len());
    assert_eq!(digest_database(interp.db()), logged);
    assert_eq!(reopened.state_digest(), logged);
    assert_eq!(interp.db().export_state(), reopened.db().export_state());

    // A read-only session refuses each statement by its TCQL name and
    // leaves the state untouched.
    let mut session = ReplicaSession::new();
    let before = reopened.db().export_state();
    for (src, kind) in SCRIPT.iter().copied().chain([("scrub now", "SCRUB NOW")]) {
        match session.run(reopened.db(), src) {
            Err(QueryError::ReadOnly { stmt }) => assert_eq!(stmt, kind, "{src}"),
            other => panic!("{src}: expected a read-only refusal, got {other:?}"),
        }
    }
    assert_eq!(reopened.db().export_state(), before);
}

fn dept_rows(db: &Database, use_index: bool) -> Vec<Vec<Value>> {
    let q = match parse("select e from emp e where e.dept = 'd1'").unwrap() {
        Stmt::Select(q) => q,
        other => panic!("not a query: {other:?}"),
    };
    let opts = ExecOptions {
        use_index,
        ..ExecOptions::default()
    };
    execute_plan(db, &plan_select(&q), &opts).unwrap().0.rows
}

#[test]
fn a_committed_txn_keeps_the_live_attribute_index() {
    let builds = || {
        tchimera_obs::snapshot()
            .counter("core.attridx.builds")
            .unwrap_or(0)
    };
    let fs = SimFs::new();
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let mut pdb = PersistentDatabase::open_with(vfs, Path::new("attridx-txn.log")).unwrap();
    pdb.define_class(ClassDef::new("emp").attr("dept", Type::temporal(Type::STRING)))
        .unwrap();
    pdb.advance_to(Instant(1)).unwrap();
    for i in 0..12 {
        let dept = Value::str(format!("d{}", i % 4));
        pdb.create_object(&ClassId::from("emp"), attrs([("dept", dept)]))
            .unwrap();
    }

    // The first indexed probe builds the index for `dept`.
    let before = dept_rows(pdb.db(), true);
    assert_eq!(before.len(), 3);
    let built = builds();

    pdb.txn(|t| {
        t.tick()?;
        t.set_attr(Oid(0), &"dept".into(), Value::str("d1"))?;
        t.migrate(Oid(2), &ClassId::from("emp"), Attrs::new())
    })
    .unwrap();

    let after = dept_rows(pdb.db(), true);
    assert_eq!(
        builds(),
        built,
        "the commit dropped the live attribute index"
    );
    assert_eq!(after.len(), 4);
    assert_eq!(after, dept_rows(pdb.db(), false));

    // A failed commit append never reaches the live state: no rollback
    // rebuild, so the state is identical and the index still live.
    let state = pdb.db().export_state();
    fs.fail_after(Some(0));
    let failed = pdb.txn(|t| t.set_attr(Oid(1), &"dept".into(), Value::str("d1")));
    fs.fail_after(None);
    assert!(
        matches!(failed, Err(EngineError::Write { .. })),
        "{failed:?}"
    );
    assert_eq!(pdb.db().export_state(), state);
    assert!(!pdb.diverged());
    assert_eq!(dept_rows(pdb.db(), true), after);
    assert_eq!(
        builds(),
        built,
        "the failed commit dropped the live attribute index"
    );
}
