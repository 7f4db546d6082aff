//! The experiment harness: regenerates every table of `EXPERIMENTS.md`
//! (E1–E13, E15–E20) and prints them as Markdown.
//!
//! ```text
//! cargo run --release -p tchimera-bench --bin harness            # all
//! cargo run --release -p tchimera-bench --bin harness -- E4 E10 # subset
//! ```

use tchimera_bench::{
    all_oids, deep_chain_db, fmt_ns, int_history, int_point_history, probe_instants, staff_db,
    time_ns,
};
use tchimera_core::{
    attrs, Attrs, ClassDef, ClassId, Database, Instant, Oid, Type, Value, CAPABILITIES,
};
use tchimera_query::{check_select, eval_select, parse, Stmt};
use tchimera_storage::PersistentDatabase;

fn main() {
    let filter: Vec<String> = std::env::args().skip(1).map(|s| s.to_uppercase()).collect();
    let want = |id: &str| filter.is_empty() || filter.iter().any(|f| f == id);

    println!("# T_Chimera experiment harness\n");
    if want("E1") {
        e1_capabilities();
    }
    if want("E2") {
        e2_table3();
    }
    if want("E3") {
        e3_typing();
    }
    if want("E4") {
        e4_representation();
    }
    if want("E5") {
        e5_consistency();
    }
    if want("E6") {
        e6_equality();
    }
    if want("E7") {
        e7_invariants();
    }
    if want("E8") {
        e8_inheritance();
    }
    if want("E9") {
        e9_migration();
    }
    if want("E10") {
        e10_query();
    }
    if want("E11") {
        e11_storage();
    }
    if want("E12") {
        e12_extent_index();
    }
    if want("E13") {
        e13_recovery();
    }
    if want("E15") {
        e15_resilience();
    }
    if want("E16") {
        e16_query_planner();
    }
    if want("E17") {
        e17_governor();
    }
    if want("E18") {
        e18_attridx();
    }
    if want("E19") {
        e19_replication();
    }
    if want("E20") {
        e20_scrub();
    }
}

fn header(id: &str, title: &str) {
    println!("## {id} — {title}\n");
}

fn e1_capabilities() {
    header("E1", "Tables 1–2 feature matrix (\"Our model\" row)");
    println!("| dimension | paper claims | implementation |");
    println!("|---|---|---|");
    let c = CAPABILITIES;
    println!("| oo data model | Chimera | {} |", c.oo_data_model);
    println!("| time structure | linear | {} |", c.time_structure);
    println!("| time dimension | valid | {} |", c.time_dimension);
    println!("| values & objects | both | {} |", c.values_and_objects);
    println!("| class features | YES | {} |", yes(c.class_features));
    println!("| what is timestamped | attributes | {} |", c.timestamped);
    println!(
        "| temporal attribute values | functions | {} |",
        c.temporal_attribute_values
    );
    println!(
        "| kinds of attributes | temporal + immutable + non-temporal | {} |",
        c.kinds_of_attributes
    );
    println!(
        "| histories of object types | YES | {} |",
        yes(c.histories_of_object_types)
    );
    println!("\n(each row is verified behaviourally by `capabilities` unit tests)\n");
}

fn yes(b: bool) -> &'static str {
    if b {
        "YES"
    } else {
        "NO"
    }
}

fn e2_table3() {
    header("E2", "Table 3 model functions (1k objects, 20 updates each)");
    let db = staff_db(1_000, 20, 42);
    let oids = all_oids(&db);
    let employee = ClassId::from("employee");
    let t = Instant(15);
    println!("| function | median time |");
    println!("|---|---|");
    let ty = Type::temporal(Type::INTEGER);
    row("T⁻ (strip_temporal)", time_ns(201, || ty.strip_temporal().cloned()));
    row("π(c, t)", time_ns(51, || db.pi(&employee, t).unwrap()));
    row("type(c)", time_ns(201, || db.type_of(&employee).unwrap()));
    row("h_type(c)", time_ns(201, || db.h_type(&employee).unwrap()));
    row("s_type(c)", time_ns(201, || db.s_type(&employee).unwrap()));
    let mut k = 0usize;
    row(
        "h_state(i, t)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.h_state(oids[k], t).unwrap()
        }),
    );
    row(
        "s_state(i)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.s_state(oids[k]).unwrap()
        }),
    );
    row(
        "o_lifespan(i)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.o_lifespan(oids[k]).unwrap()
        }),
    );
    row(
        "c_lifespan(i, c)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.c_lifespan(oids[k], &employee).unwrap()
        }),
    );
    row(
        "ref(i, t)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.refs(oids[k], t).unwrap()
        }),
    );
    row(
        "snapshot(i, now)",
        time_ns(201, || {
            k = (k + 1) % oids.len();
            db.snapshot(oids[k], db.now()).unwrap()
        }),
    );
    println!();
}

fn row(name: &str, ns: f64) {
    println!("| {name} | {} |", fmt_ns(ns));
}

fn e3_typing() {
    header("E3", "Typing rules throughput (Definitions 3.5/3.6, Theorems 3.1/3.2)");
    let db = staff_db(200, 10, 42);
    let oids = all_oids(&db);
    let t = Instant(15);
    println!("| workload | check `v ∈ [[T]]_t` | infer (Def 3.6) |");
    println!("|---|---|---|");
    for &n in &[10usize, 100, 1_000] {
        let v = Value::set((0..n as i64).map(Value::Int));
        let ty = Type::set_of(Type::INTEGER);
        let c = time_ns(101, || db.value_in_type(&v, &ty, t));
        let i = time_ns(101, || db.infer_type(&v, t).unwrap());
        println!("| set of {n} integers | {} | {} |", fmt_ns(c), fmt_ns(i));
    }
    for &n in &[10usize, 100] {
        let v = Value::set(oids.iter().take(n).map(|&i| Value::Oid(i)));
        let ty = Type::set_of(Type::object("person"));
        let c = time_ns(101, || db.value_in_type(&v, &ty, t));
        let i = time_ns(101, || db.infer_type(&v, t).unwrap());
        println!("| set of {n} oids | {} | {} |", fmt_ns(c), fmt_ns(i));
    }
    println!("\n(soundness/completeness themselves are property tests: `cargo test -p tchimera-core --test typing_theorems`)\n");
}

fn e4_representation() {
    header(
        "E4",
        "Section 3.2 representation claim — coalesced runs vs per-instant pairs",
    );
    println!("| changes | run len | coalesced: build / lookup / entries | per-instant: build / lookup / entries |");
    println!("|---|---|---|---|");
    for &changes in &[100usize, 1_000, 10_000] {
        for &run_len in &[1u64, 10, 100] {
            let max_t = changes as u64 * run_len;
            let now = Instant(max_t + 1);
            let coalesced = int_history(changes, run_len, 42);
            let probes = probe_instants(512, max_t, 7);
            let cb = time_ns(21, || int_history(changes, run_len, 42));
            let cl = time_ns(51, || {
                probes
                    .iter()
                    .filter_map(|&p| coalesced.value_at(p, now))
                    .sum::<i64>()
            }) / probes.len() as f64;
            let centries = coalesced.run_count();
            if changes as u64 * run_len <= 1_000_000 {
                let naive = int_point_history(changes, run_len, 42);
                let nb = time_ns(21, || int_point_history(changes, run_len, 42));
                let nl = time_ns(51, || {
                    probes.iter().filter_map(|&p| naive.value_at(p)).sum::<i64>()
                }) / probes.len() as f64;
                println!(
                    "| {changes} | {run_len} | {} / {} / {} | {} / {} / {} |",
                    fmt_ns(cb),
                    fmt_ns(cl),
                    centries,
                    fmt_ns(nb),
                    fmt_ns(nl),
                    naive.len()
                );
            } else {
                println!(
                    "| {changes} | {run_len} | {} / {} / {} | (baseline intractable: {} entries) |",
                    fmt_ns(cb),
                    fmt_ns(cl),
                    centries,
                    changes as u64 * run_len
                );
            }
        }
    }
    println!();
}

fn e5_consistency() {
    header("E5", "Consistency checking (Definitions 5.3–5.6)");
    println!("| workload | check |");
    println!("|---|---|");
    for &updates in &[10usize, 100, 1_000] {
        let db = staff_db(8, updates, 42);
        let ns = time_ns(21, || db.check_object(Oid(0)).unwrap());
        println!("| check_object, history={updates} | {} |", fmt_ns(ns));
    }
    for &n in &[100usize, 1_000] {
        let db = staff_db(n, 10, 42);
        let ns = time_ns(11, || db.check_database());
        println!("| check_database, objects={n} | {} |", fmt_ns(ns));
    }
    // Fault-injection detection rate.
    let mut db = staff_db(50, 5, 42);
    let mut detected = 0;
    for k in 0..50u64 {
        let mut broken = db.object(Oid(k)).unwrap().clone();
        broken.attrs.insert("address".into(), Value::Int(k as i64));
        db.replace_object_for_test(broken);
        if !db.check_object(Oid(k)).unwrap().is_consistent() {
            detected += 1;
        }
    }
    println!("| static-type fault injection detection | {detected}/50 |");
    println!();
}

fn e6_equality() {
    header("E6", "Equality notions (Definitions 5.7–5.10)");
    println!("| history | identity | value | instantaneous | weak |");
    println!("|---|---|---|---|---|");
    for &updates in &[10usize, 100, 1_000] {
        let mut db = Database::new();
        db.define_class(
            ClassDef::new("player").attr("score", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        let a = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(0))]))
            .unwrap();
        let b = db
            .create_object(&ClassId::from("player"), attrs([("score", Value::Int(0))]))
            .unwrap();
        for k in 0..updates {
            db.tick();
            db.set_attr(a, &"score".into(), Value::Int(k as i64)).unwrap();
            db.set_attr(b, &"score".into(), Value::Int(k as i64 + 1)).unwrap();
        }
        db.tick();
        let i = time_ns(201, || db.eq_identity(a, b));
        let v = time_ns(51, || db.eq_value(a, b).unwrap());
        let inst = time_ns(21, || db.eq_instantaneous(a, b).unwrap());
        let w = time_ns(11, || db.eq_weak(a, b).unwrap());
        println!(
            "| {updates} | {} | {} | {} | {} |",
            fmt_ns(i),
            fmt_ns(v),
            fmt_ns(inst),
            fmt_ns(w)
        );
    }
    println!();
}

fn e7_invariants() {
    header("E7", "Invariant checking (Invariants 5.1, 5.2, 6.1, 6.2)");
    println!("| objects | check_invariants |");
    println!("|---|---|");
    for &n in &[100usize, 1_000, 5_000] {
        let db = staff_db(n, 10, 42);
        let ns = time_ns(11, || db.check_invariants());
        println!("| {n} | {} |", fmt_ns(ns));
    }
    println!("\n(preservation under 10k random ops: `cargo test -p tchimera-core --test model_props`)\n");
}

fn e8_inheritance() {
    header("E8", "Subtyping and substitutability (Section 6)");
    println!("| workload | time |");
    println!("|---|---|");
    for &depth in &[1usize, 4, 16, 64] {
        let db = deep_chain_db(depth);
        let sub = Type::object(format!("c{depth}").as_str());
        let sup = Type::object("c0");
        let ns = time_ns(201, || db.schema().is_subtype(&sub, &sup));
        println!("| is_subtype, ISA depth {depth} | {} |", fmt_ns(ns));
    }
    // view_as coercion.
    let mut db = Database::new();
    db.define_class(ClassDef::new("base").attr("a", Type::INTEGER)).unwrap();
    db.define_class(
        ClassDef::new("sub").isa("base").attr("a", Type::temporal(Type::INTEGER)),
    )
    .unwrap();
    let oid = db
        .create_object(&ClassId::from("sub"), attrs([("a", Value::Int(1))]))
        .unwrap();
    for k in 0..100 {
        db.tick();
        db.set_attr(oid, &"a".into(), Value::Int(k)).unwrap();
    }
    let ns = time_ns(201, || db.view_as(oid, &ClassId::from("base")).unwrap());
    println!("| view_as (snapshot coercion, 100-run history) | {} |", fmt_ns(ns));
    println!();
}

fn e9_migration() {
    header("E9", "Migration throughput (Section 5.2)");
    println!("| objects | ops/s (round-trip migrations) | with invariant check after each |");
    println!("|---|---|---|");
    for &n in &[100usize, 1_000] {
        let base = staff_db(n, 5, 42);
        let oids = all_oids(&base);
        let manager = ClassId::from("manager");
        let employee = ClassId::from("employee");
        let ns = time_ns(5, || {
            let mut db = base.clone();
            for &oid in &oids {
                db.tick();
                db.migrate(oid, &manager, attrs([("officialcar", Value::str("car"))]))
                    .unwrap();
                db.tick();
                db.migrate(oid, &employee, Attrs::new()).unwrap();
            }
            db
        });
        let ops_per_s = (2.0 * oids.len() as f64) / (ns / 1e9);
        // Ablation: full invariant check after each migration (16 objects).
        let k = 16.min(oids.len());
        let ns2 = time_ns(3, || {
            let mut db = base.clone();
            for &oid in oids.iter().take(k) {
                db.tick();
                db.migrate(oid, &manager, attrs([("officialcar", Value::str("car"))]))
                    .unwrap();
                assert!(db.check_invariants().is_empty());
                db.tick();
                db.migrate(oid, &employee, Attrs::new()).unwrap();
                assert!(db.check_invariants().is_empty());
            }
            db
        });
        let ops_per_s2 = (2.0 * k as f64) / (ns2 / 1e9);
        println!("| {n} | {ops_per_s:.0} | {ops_per_s2:.0} |");
    }
    println!();
}

fn e10_query() {
    header("E10", "TCQL query evaluation");
    let queries: &[(&str, &str)] = &[
        ("now", "select e, e.salary from employee e where e.salary > 2500"),
        ("as-of", "select e, e.salary from employee e as of 15 where e.salary > 2500"),
        ("during", "select e from employee e during [12, 18] where e.salary > 2500"),
        ("sometime", "select e from employee e where sometime(e.salary > 4500)"),
    ];
    println!("| objects | {} |", queries.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" | "));
    println!("|---|{}", "---|".repeat(queries.len()));
    for &n in &[100usize, 1_000, 10_000] {
        let db = staff_db(n, 10, 42);
        let mut cells = Vec::new();
        for (_, src) in queries {
            let q = match parse(src).unwrap() {
                Stmt::Select(s) => s,
                _ => unreachable!(),
            };
            check_select(db.schema(), &q).unwrap();
            let reps = if n >= 10_000 { 5 } else { 11 };
            let ns = time_ns(reps, || eval_select(&db, &q).unwrap());
            cells.push(fmt_ns(ns));
        }
        println!("| {n} | {} |", cells.join(" | "));
    }
    println!();
    // Joins: two range variables, cross product filtered on a reference.
    println!("| objects | boss self-join (e.boss = m) |");
    println!("|---|---|");
    for &n in &[30usize, 100, 300] {
        let db = tchimera_bench::org_db(n, 42);
        let q = match parse(
            "select e.name, m.name from employee e, employee m where e.boss = m",
        )
        .unwrap()
        {
            Stmt::Select(s) => s,
            _ => unreachable!(),
        };
        check_select(db.schema(), &q).unwrap();
        let ns = time_ns(7, || eval_select(&db, &q).unwrap());
        println!("| {n} | {} |", fmt_ns(ns));
    }
    println!();
}

fn e11_storage() {
    header("E11", "Storage substrate");
    println!("| workload | result |");
    println!("|---|---|");
    // Log append throughput.
    let path = std::env::temp_dir().join(format!("tchimera-harness-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let mut pdb = PersistentDatabase::open(&path).unwrap();
        pdb.define_class(
            ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        let oid = pdb
            .create_object(&ClassId::from("employee"), attrs([("salary", Value::Int(0))]))
            .unwrap();
        let n = 20_000u64;
        let start = std::time::Instant::now();
        for k in 0..n {
            pdb.advance_to(Instant(k + 1)).unwrap();
            pdb.set_attr(oid, &"salary".into(), Value::Int(k as i64)).unwrap();
        }
        pdb.sync().unwrap();
        let per_s = (2.0 * n as f64) / start.elapsed().as_secs_f64();
        println!("| log append throughput | {per_s:.0} ops/s |");
    }
    // Recovery replay.
    let ns = time_ns(5, || PersistentDatabase::open(&path).unwrap());
    let recovered = PersistentDatabase::open(&path).unwrap();
    println!(
        "| recovery replay of {} ops | {} |",
        recovered.recovered_ops(),
        fmt_ns(ns)
    );
    drop(recovered);
    let _ = std::fs::remove_file(&path);
    println!();
}

fn e12_extent_index() {
    header(
        "E12",
        "Indexed extents & parallel consistency (time-sorted extent index)",
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("(threads available: {threads})\n");
    let employee = ClassId::from("employee");
    println!("| objects | π(c,t) indexed | π(c,t) scan | speedup |");
    println!("|---|---|---|---|");
    for &n in &[1_000usize, 10_000, 100_000] {
        let db = staff_db(n, 2, 42);
        let class = db.class(&employee).unwrap();
        let now = db.now();
        let mid = Instant(12);
        let reps = if n >= 100_000 { 11 } else { 31 };
        let indexed = time_ns(reps, || class.ext_at(mid, now));
        let scan = time_ns(reps, || class.ext_at_scan(mid, now));
        println!(
            "| {n} | {} | {} | {:.1}× |",
            fmt_ns(indexed),
            fmt_ns(scan),
            scan / indexed
        );
    }
    println!("\n| objects | check_database (parallel by default) | check_database_serial |");
    println!("|---|---|---|");
    for &n in &[1_000usize, 10_000] {
        let db = staff_db(n, 10, 42);
        let reps = if n >= 10_000 { 5 } else { 11 };
        let par = time_ns(reps, || db.check_database());
        let ser = time_ns(reps, || db.check_database_serial());
        println!("| {n} | {} | {} |", fmt_ns(par), fmt_ns(ser));
    }
    println!("\n| single-mutation check (10k objects) | time |");
    println!("|---|---|");
    let db = staff_db(10_000, 2, 42);
    let some_oid = Oid(17);
    row(
        "check_object_refs (outgoing)",
        time_ns(51, || db.check_object_refs(some_oid).unwrap()),
    );
    row(
        "check_refs_to (incoming, via reverse index)",
        time_ns(51, || db.check_refs_to(some_oid)),
    );
    row(
        "check_referential_integrity (whole database)",
        time_ns(11, || db.check_referential_integrity()),
    );
    println!();
}

fn e13_recovery() {
    header(
        "E13",
        "Recovery time vs. log length (full replay vs. checkpoint + suffix)",
    );
    let employee = ClassId::from("employee");
    let build = |path: &std::path::PathBuf, ops: usize, checkpoint: bool| {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(tchimera_storage::snapshot_path(path));
        let mut pdb = PersistentDatabase::open(path).unwrap();
        pdb.define_class(
            ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        let mut last = Oid(0);
        for i in 1..ops {
            match i % 8 {
                0 => {
                    let t = Instant(pdb.db().now().ticks() + 1);
                    pdb.advance_to(t).unwrap();
                }
                1 | 5 => {
                    last = pdb
                        .create_object(&employee, attrs([("salary", Value::Int(i as i64))]))
                        .unwrap();
                }
                _ => {
                    pdb.set_attr(last, &"salary".into(), Value::Int(i as i64))
                        .unwrap();
                }
            }
        }
        if checkpoint {
            pdb.checkpoint().unwrap();
            for i in 0..128u64 {
                let t = Instant(pdb.db().now().ticks() + 1);
                let _ = i;
                pdb.advance_to(t).unwrap();
            }
        }
        pdb.sync().unwrap();
    };
    println!("| ops in history | full replay | ops replayed | checkpointed (+128-op tail) | ops replayed |");
    println!("|---|---|---|---|---|");
    for &n in &[1_000usize, 10_000] {
        let path = std::env::temp_dir().join(format!(
            "tchimera-harness-e13-{}-{n}.log",
            std::process::id()
        ));
        build(&path, n, false);
        let reps = if n >= 10_000 { 5 } else { 11 };
        let full_ns = time_ns(reps, || PersistentDatabase::open(&path).unwrap());
        let full_replayed = PersistentDatabase::open(&path).unwrap().recovered_replayed();
        build(&path, n, true);
        let ckpt_ns = time_ns(reps, || PersistentDatabase::open(&path).unwrap());
        let ckpt = PersistentDatabase::open(&path).unwrap();
        assert!(ckpt.recovered_from_snapshot());
        println!(
            "| {n} | {} | {} | {} | {} |",
            fmt_ns(full_ns),
            full_replayed,
            fmt_ns(ckpt_ns),
            ckpt.recovered_replayed(),
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tchimera_storage::snapshot_path(&path));
    }
    println!();
}

fn e15_resilience() {
    use std::sync::Arc;
    use tchimera_storage::{SimFs, Vfs};

    header(
        "E15",
        "Fault tolerance: transactional commit, retry absorption, read-only fast-fail",
    );
    let employee = ClassId::from("employee");
    let path = std::path::PathBuf::from("e15.log");
    // Everything runs over SimFs: deterministic, in-memory, no disk noise.
    let open_sim = |path: &std::path::Path| {
        let fs = SimFs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let mut pdb = PersistentDatabase::open_with(vfs, path).unwrap();
        pdb.define_class(
            ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        let oid = pdb
            .create_object(&employee, attrs([("salary", Value::Int(0))]))
            .unwrap();
        (fs, pdb, oid)
    };

    const N: usize = 4096;
    println!("| scenario | wall | per logical op | log records |");
    println!("|---|---|---|---|");

    // Singles: one log record per mutation.
    let mut single_records = 0;
    let single_ns = time_ns(5, || {
        let (_fs, mut pdb, oid) = open_sim(&path);
        for i in 0..N {
            pdb.set_attr(oid, &"salary".into(), Value::Int(i as i64))
                .unwrap();
        }
        single_records = pdb.op_count();
        pdb.sync().unwrap();
    });
    println!(
        "| {N} single-op commits | {} | {} | {single_records} |",
        fmt_ns(single_ns),
        fmt_ns(single_ns / N as f64),
    );

    // Grouped: the same mutations, eight per atomic transaction.
    for group in [8usize, 64] {
        let mut txn_records = 0;
        let txn_ns = time_ns(5, || {
            let (_fs, mut pdb, oid) = open_sim(&path);
            for chunk in 0..(N / group) {
                pdb.txn(|t| {
                    for j in 0..group {
                        let v = (chunk * group + j) as i64;
                        t.set_attr(oid, &"salary".into(), Value::Int(v))?;
                    }
                    Ok(())
                })
                .unwrap();
            }
            txn_records = pdb.op_count();
            pdb.sync().unwrap();
        });
        println!(
            "| {N} ops in txns of {group} | {} | {} | {txn_records} |",
            fmt_ns(txn_ns),
            fmt_ns(txn_ns / N as f64),
        );
    }

    // Transient-fault absorption: a 2-fault blip before every 16th
    // commit, all absorbed by the default retry policy.
    let before = tchimera_obs::snapshot();
    let (retries_0, exhausted_0) = (
        before.counter("storage.retry.attempts").unwrap_or(0),
        before.counter("storage.retry.exhausted").unwrap_or(0),
    );
    let faulty_ns = time_ns(5, || {
        let (fs, mut pdb, oid) = open_sim(&path);
        for chunk in 0..(N / 8) {
            if chunk % 16 == 0 {
                fs.fail_transient_next(2);
            }
            pdb.txn(|t| {
                for j in 0..8 {
                    let v = (chunk * 8 + j) as i64;
                    t.set_attr(oid, &"salary".into(), Value::Int(v))?;
                }
                Ok(())
            })
            .unwrap();
        }
        pdb.sync().unwrap();
    });
    let after = tchimera_obs::snapshot();
    let retries = after.counter("storage.retry.attempts").unwrap_or(0) - retries_0;
    let exhausted = after.counter("storage.retry.exhausted").unwrap_or(0) - exhausted_0;
    println!(
        "| {N} ops in txns of 8, transient blips every 16th commit | {} | {} | {retries} retries absorbed, {exhausted} exhausted |",
        fmt_ns(faulty_ns),
        fmt_ns(faulty_ns / N as f64),
    );

    // Read-only fast-fail: a tripped breaker rejects writes before any
    // I/O — the cost of being down, per refused write.
    let (_fs, mut pdb, oid) = open_sim(&path);
    pdb.trip();
    let reject_ns = time_ns(5, || {
        for i in 0..N {
            assert!(pdb
                .set_attr(oid, &"salary".into(), Value::Int(i as i64))
                .is_err());
        }
    });
    println!(
        "| {N} writes refused while read-only | {} | {} | 0 |",
        fmt_ns(reject_ns),
        fmt_ns(reject_ns / N as f64),
    );
    println!();
}

fn e16_query_planner() {
    header("E16", "Query planner vs naive evaluation");
    let bindings =
        || tchimera_obs::snapshot().counter("query.eval.bindings").unwrap_or(0);
    let sel = |src: &str| match parse(src).unwrap() {
        Stmt::Select(s) => s,
        _ => unreachable!(),
    };
    println!("| workload | naive | planner | naive bindings | planner bindings |");
    println!("|---|---|---|---|---|");
    let workloads: &[(&str, Database, &str)] = &[
        (
            "selective join, 400 objects",
            tchimera_bench::org_db(400, 42),
            "select e.name, m.name from employee e, employee m \
             where e.boss = m and e.salary >= 4500",
        ),
        (
            "limit 10, 2000 objects",
            staff_db(2_000, 2, 42),
            "select e, e.salary from employee e where e.salary >= 1000 limit 10",
        ),
    ];
    for (name, db, src) in workloads {
        let q = sel(src);
        check_select(db.schema(), &q).unwrap();
        let b0 = bindings();
        let naive = tchimera_query::eval_select_naive(db, &q).unwrap();
        let naive_bindings = bindings() - b0;
        let b0 = bindings();
        let planned = eval_select(db, &q).unwrap();
        let plan_bindings = bindings() - b0;
        assert_eq!(naive.rows, planned.rows, "planner must match naive");
        let naive_ns = time_ns(7, || tchimera_query::eval_select_naive(db, &q).unwrap());
        let plan_ns = time_ns(7, || eval_select(db, &q).unwrap());
        println!(
            "| {name} | {} | {} | {naive_bindings} | {plan_bindings} |",
            fmt_ns(naive_ns),
            fmt_ns(plan_ns),
        );
    }
    println!();
    // Plan cache: repeated statement execution through the interpreter.
    let mut interp = tchimera_query::Interpreter::with_db(staff_db(500, 2, 42));
    let stmt = "select e, e.salary from employee e where e.salary >= 2500 \
                order by e.salary desc limit 5";
    interp.run(stmt).unwrap(); // populate the cache
    let h0 = tchimera_obs::snapshot().counter("query.plan.cache.hit").unwrap_or(0);
    let warm_ns = time_ns(31, || interp.run(stmt).unwrap());
    let hits = tchimera_obs::snapshot().counter("query.plan.cache.hit").unwrap_or(0) - h0;
    println!("| plan cache | value |");
    println!("|---|---|");
    println!("| warm statement (cache hit) | {} |", fmt_ns(warm_ns));
    println!("| cache hits over 31 reruns | {hits} |");
    println!();
}

fn e17_governor() {
    use tchimera_query::exec::{execute_plan, ExecOptions};
    use tchimera_query::{plan_select, ExecBudget, Interpreter, QueryError};

    header("E17", "Resource governor: overhead and time-to-trip");
    let sel = |src: &str| match parse(src).unwrap() {
        Stmt::Select(s) => s,
        _ => unreachable!(),
    };

    // Accounting overhead on a well-behaved join, budget off vs on.
    let db = tchimera_bench::org_db(400, 42);
    let q = sel(
        "select e.name, m.name from employee e, employee m \
         where e.boss = m and e.salary >= 4500",
    );
    check_select(db.schema(), &q).unwrap();
    let plan = plan_select(&q);
    let off = ExecOptions::default();
    let on = ExecOptions { budget: Some(ExecBudget::unlimited()), ..ExecOptions::default() };
    let off_ns = time_ns(15, || execute_plan(&db, &plan, &off).unwrap());
    let on_ns = time_ns(15, || execute_plan(&db, &plan, &on).unwrap());
    println!("| metric | value |");
    println!("|---|---|");
    println!("| join (400 objects), budget off | {} |", fmt_ns(off_ns));
    println!("| join (400 objects), budget on | {} |", fmt_ns(on_ns));
    println!("| accounting overhead | {:+.2}% |", (on_ns - off_ns) / off_ns * 100.0);

    // Time-to-trip: an unfiltered 3-way cross product (64M bindings)
    // through the interpreter's default budget, then recovery.
    let mut interp = Interpreter::new();
    interp
        .run_script(
            "define class a (v: integer); define class b (v: integer); \
             define class c (v: integer); advance to 1;",
        )
        .unwrap();
    for cls in ["a", "b", "c"] {
        for i in 0..400 {
            interp.run(&format!("create {cls} (v := {})", i % 7)).unwrap();
        }
    }
    let trip_ns = time_ns(3, || {
        let e = interp.run("select x, y, z from a x, b y, c z").unwrap_err();
        assert!(matches!(e, QueryError::BudgetExceeded { .. }));
    });
    let ok_ns = time_ns(7, || interp.run("select count(x) from a x").unwrap());
    println!("| 3-way cross (64M bindings) → BudgetExceeded | {} |", fmt_ns(trip_ns));
    println!("| follow-up query in the same session | {} |", fmt_ns(ok_ns));
    println!();
}

fn e18_attridx() {
    use tchimera_query::exec::{execute_plan, ExecOptions};
    use tchimera_query::plan_select;

    header("E18", "Temporal attribute-value index: probes vs scans");
    let sel = |src: &str| match parse(src).unwrap() {
        Stmt::Select(s) => s,
        _ => unreachable!(),
    };
    let db = tchimera_bench::dept_db(1_600, 2, 42);
    let scan = ExecOptions { use_index: false, ..ExecOptions::default() };
    println!("| query (1600 objects) | scan | index | scan bindings | index bindings |");
    println!("|---|---|---|---|---|");
    let workloads: [(&str, &str); 4] = [
        (
            "equality `dept = 'rare'` (1-in-16)",
            "select e, e.v from emp e where e.dept = 'rare'",
        ),
        (
            "membership (`or`-chain)",
            "select e from emp e where e.dept = 'rare' or e.dept = 'd3'",
        ),
        ("equality, `as of 1`", "select e from emp e as of 1 where e.dept = 'rare'"),
        (
            "index-seeded reference join",
            "select e, m from emp e, emp m where e.boss = m and e.dept = 'rare'",
        ),
    ];
    for (name, src) in workloads {
        let q = sel(src);
        check_select(db.schema(), &q).unwrap();
        let plan = plan_select(&q);
        let (rs, ss) = execute_plan(&db, &plan, &scan).unwrap();
        let (ri, si) = execute_plan(&db, &plan, &ExecOptions::default()).unwrap();
        assert_eq!(rs.rows, ri.rows, "index must match scan");
        let scan_ns = time_ns(7, || execute_plan(&db, &plan, &scan).unwrap());
        let index_ns = time_ns(7, || execute_plan(&db, &plan, &ExecOptions::default()).unwrap());
        println!(
            "| {name} | {} | {} | {} | {} |",
            fmt_ns(scan_ns),
            fmt_ns(index_ns),
            ss.bindings,
            si.bindings,
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// E19 — log-shipping replication
// ---------------------------------------------------------------------

fn e19_replication() {
    use std::path::PathBuf;
    use std::sync::Arc;
    use tchimera_storage::repl::{Primary, Replica, SimNetConfig, SimTransport};
    use tchimera_storage::{PersistentDatabase, SimFs, Vfs};

    header("E19", "Log-shipping replication: ship, lag, catch-up");

    let open = |name: &str| -> PersistentDatabase {
        let vfs: Arc<dyn Vfs> = Arc::new(SimFs::new());
        let mut pdb = PersistentDatabase::open_with(vfs, &PathBuf::from(name)).unwrap();
        pdb.define_class(
            ClassDef::new("employee").attr("salary", Type::temporal(Type::INTEGER)),
        )
        .unwrap();
        pdb.advance_to(Instant(1)).unwrap();
        pdb
    };
    let drive = |pdb: &mut PersistentDatabase, i: usize, last: &mut u64| match i % 8 {
        0 => {
            let t = Instant(pdb.db().now().ticks() + 1);
            pdb.advance_to(t).unwrap();
        }
        1 | 5 => {
            *last = pdb
                .create_object(
                    &ClassId::from("employee"),
                    attrs([("salary", Value::Int(i as i64))]),
                )
                .unwrap()
                .0;
        }
        _ => {
            pdb.set_attr(Oid(*last), &"salary".into(), Value::Int(i as i64))
                .unwrap();
        }
    };
    fn drain(p: &mut Primary<SimTransport>, r: &mut Replica<SimTransport>) -> usize {
        for round in 1..=10_000 {
            p.pump().unwrap();
            r.pump().unwrap();
            if r.lag() == 0 && r.applied() == p.db().op_count() as u64 {
                return round;
            }
        }
        panic!("replica failed to converge");
    }

    const OPS: usize = 1_000;
    println!("| link ({OPS} ops, pump per op) | wall | ops/s | max lag | drain rounds | converged |");
    println!("|---|---|---|---|---|---|");
    for (name, cfg, seed) in [
        ("clean", SimNetConfig::clean(), 1u64),
        ("hostile (drop/dup/reorder/delay/corrupt)", SimNetConfig::hostile(), 7),
    ] {
        let (pt, rt) = SimTransport::pair(seed, cfg);
        let mut primary = Primary::new(open("e19-p.log"), 1, pt);
        let mut replica = Replica::new(open("e19-r.log"), rt);
        let mut last = 0u64;
        let mut max_lag = 0u64;
        let start = std::time::Instant::now();
        for i in 0..OPS {
            drive(primary.db(), i, &mut last);
            primary.pump().unwrap();
            replica.pump().unwrap();
            max_lag = max_lag.max(replica.lag());
        }
        let rounds = drain(&mut primary, &mut replica);
        let wall = start.elapsed().as_nanos() as f64;
        let converged =
            replica.db_ref().state_digest() == primary.db_ref().state_digest();
        assert!(converged && replica.halted().is_none());
        println!(
            "| {name} | {} | {:.0} | {max_lag} | {rounds} | {converged} |",
            fmt_ns(wall),
            OPS as f64 / (wall / 1e9),
        );
    }
    println!("\n(Full sweep incl. snapshot catch-up: `cargo run --release -p tchimera-bench --bin repl` → `BENCH_repl.json`.)\n");
}

// ---------------------------------------------------------------------
// E20 — online integrity scrubber
// ---------------------------------------------------------------------

fn e20_scrub() {
    use tchimera_core::SimMem;

    header("E20", "Online integrity scrubber: detect, repair, quarantine");

    println!("| database | cycle | items | outcome |");
    println!("|---|---|---|---|");
    for size in [1_000usize, 4_000] {
        let mut db = staff_db(size, 10, 7);
        let _ = db.scrub_cycle(); // warm
        let start = std::time::Instant::now();
        let report = db.scrub_cycle();
        let ns = start.elapsed().as_nanos() as f64;
        assert!(report.clean(), "healthy database scrubbed dirty: {report:?}");
        println!("| healthy, {size} objects | {} | {} | clean |", fmt_ns(ns), report.items);
    }

    // One seeded derived-structure corruption: detected and repaired in
    // a single cycle, and the follow-up cycle is clean again.
    let mut db = staff_db(2_000, 10, 99);
    let mut sim = SimMem::new(0xE20);
    let fault = sim.corrupt_index(&mut db).expect("something to corrupt");
    let start = std::time::Instant::now();
    let report = db.scrub_cycle();
    let ns = start.elapsed().as_nanos() as f64;
    assert!(report.divergences >= 1 && report.fully_repaired(), "{report:?}");
    assert!(db.scrub_cycle().clean());
    println!(
        "| seeded {fault:?}, 2000 objects | {} | {} | {} divergence(s), repaired |",
        fmt_ns(ns),
        report.items,
        report.divergences
    );
    println!("\n(Foreground-overhead bound + JSON: `cargo run --release -p tchimera-bench --bin scrub` → `BENCH_scrub.json`.)\n");
}
