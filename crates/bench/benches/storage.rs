//! **E11 — storage substrate.**
//!
//! Operation-log append throughput, recovery (replay) time versus log
//! length and codec round-trip cost. (Index versus scan for "who was a
//! member at t" is E12's `extent` bench.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tchimera_core::{attrs, ClassDef, ClassId, Instant, Value};
use tchimera_storage::{Codec, Operation, PersistentDatabase};

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tchimera-bench-{}-{name}.log", std::process::id()))
}

/// Write a log of `n` salary updates; returns the path.
fn write_log(n: usize, name: &str) -> std::path::PathBuf {
    let path = tmp(name);
    let _ = std::fs::remove_file(&path);
    let mut pdb = PersistentDatabase::open(&path).unwrap();
    pdb.define_class(
        ClassDef::new("employee").attr("salary", tchimera_core::Type::temporal(
            tchimera_core::Type::INTEGER,
        )),
    )
    .unwrap();
    let oid = pdb
        .create_object(&ClassId::from("employee"), attrs([("salary", Value::Int(0))]))
        .unwrap();
    for k in 0..n {
        pdb.advance_to(Instant(k as u64 + 1)).unwrap();
        pdb.set_attr(oid, &"salary".into(), Value::Int(k as i64)).unwrap();
    }
    pdb.sync().unwrap();
    path
}

fn bench_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("E11/append");
    g.sample_size(10);
    g.bench_function("logged-update", |b| {
        let path = tmp("append");
        let _ = std::fs::remove_file(&path);
        let mut pdb = PersistentDatabase::open(&path).unwrap();
        pdb.define_class(
            ClassDef::new("employee").attr(
                "salary",
                tchimera_core::Type::temporal(tchimera_core::Type::INTEGER),
            ),
        )
        .unwrap();
        let oid = pdb
            .create_object(&ClassId::from("employee"), attrs([("salary", Value::Int(0))]))
            .unwrap();
        let mut k = 0i64;
        b.iter(|| {
            k += 1;
            pdb.advance_to(Instant(k as u64)).unwrap();
            pdb.set_attr(oid, &"salary".into(), Value::Int(k)).unwrap();
        });
        let _ = std::fs::remove_file(&path);
    });
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("E11/recovery");
    g.sample_size(10);
    for &n in &[1_000usize, 10_000] {
        let path = write_log(n, &format!("recover-{n}"));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("ops={}", 2 * n + 2)),
            &(),
            |b, ()| {
                b.iter(|| PersistentDatabase::open(&path).unwrap());
            },
        );
        let _ = std::fs::remove_file(&path);
    }
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("E11/codec");
    let op = Operation::SetAttr {
        oid: tchimera_core::Oid(7),
        attr: "salary".into(),
        value: Value::set((0..64i64).map(Value::Int)),
    };
    let bytes = op.to_bytes();
    g.bench_function("encode", |b| b.iter(|| op.to_bytes()));
    g.bench_function("decode", |b| b.iter(|| Operation::from_bytes(&bytes).unwrap()));
    g.finish();
}

/// Criterion configuration tuned so the whole suite finishes in
/// minutes: fewer samples and shorter windows than the defaults, still
/// plenty for the stable, allocation-free workloads measured here.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(500))
        .sample_size(10)
        .configure_from_args()
}

criterion_group!{
    name = benches;
    config = quick();
    targets = bench_append, bench_recovery, bench_codec
}
criterion_main!(benches);
