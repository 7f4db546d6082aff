//! A small-size run of every workload, untraced and traced, with all of
//! its output checks on.

use std::path::PathBuf;

use tcbench::workloads::{run, Config, Scale, Workload};
use tcbench::{end_to_end, per_layer};

fn smoke(w: Workload, trace: bool) -> tcbench::workloads::Report {
    let cfg = Config {
        workload: w,
        seed: 7,
        seconds: 0.0,
        trace,
        data_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{trace}", w.name())),
        scale: Scale::smoke(w),
    };
    let r = run(&cfg);
    assert_eq!(r.check_failures, 0, "{}: {:?}", w.name(), r.failures);
    assert_eq!(r.tally.failed(), 0, "{}: {:?}", w.name(), r.failures);
    assert_eq!(r.rounds, cfg.scale.min_rounds);
    let kinds: Vec<&str> = r.tally.rows().into_iter().map(|(k, _, _)| k).collect();
    for k in ["read", "restart", "txn", "write"] {
        assert!(kinds.contains(&k), "{}: no {k} ops in {kinds:?}", w.name());
    }
    assert!(!cfg.data_dir.exists(), "round directories are removed");
    r
}

#[test]
fn every_workload_runs_and_checks_its_outputs() {
    for w in Workload::ALL {
        let r = smoke(w, false);
        let ms = end_to_end(&r);
        assert_eq!(ms.len(), 9);
        for m in &ms {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        assert!(r.layers.is_none());
    }
}

#[test]
fn traced_runs_report_every_layer() {
    for w in Workload::ALL {
        let r = smoke(w, true);
        let ms = per_layer(&r);
        let get = |n: &str| ms.iter().find(|m| m.name == n).expect(n).value;
        assert!(get("query.exec_us") > 0.0);
        assert!(get("storage.sync_us") > 0.0);
        // Every read, write and transaction of every round is paired
        // with its front-door twin. (How much the layers explain is a
        // timing, too noisy at this size to assert on.)
        let scale = Scale::smoke(w);
        let l = r.layers.as_ref().unwrap();
        assert_eq!(l.unexplained_read.len(), r.rounds * scale.reads);
        assert_eq!(l.unexplained_write.len(), r.rounds * scale.writes);
        assert_eq!(l.unexplained_txn.len(), r.rounds * scale.txns);
        for kind in ["read", "write", "txn"] {
            let share = get(&format!("explained_share.{kind}"));
            assert!(
                share.is_finite() && share > 0.0,
                "{}: {kind} {share}",
                w.name()
            );
        }
        let repl = get("repl.primary_pump_us");
        match w {
            Workload::ReplicatedIngest => {
                assert!(
                    repl > 0.0 && get("repl.frames_per_op") > 0.0 && get("repl.catchup_ms") > 0.0
                );
            }
            _ => assert_eq!(repl, 0.0),
        }
        if w == Workload::DurableIngest {
            assert!(get("core.apply_us") > 0.0 && get("storage.checkpoint_ms") > 0.0);
        }
    }
}
