//! End-to-end benchmark of T_Chimera: TCQL reads, durable commits and
//! replicated commits, with outside-in layer timings.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how the bounds were derived.

pub mod counting;
pub mod hr;
pub mod oncpu;
pub mod stats;
pub mod workloads;

use std::fmt::Write as _;
use std::path::Path;

use workloads::{Layers, Report};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (as declared in `BENCHMARK.json`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(r: &Report) -> Vec<Metric> {
    vec![
        m("setup_s", "s", stats::median(&r.setup_s).unwrap_or(0.0)),
        m(
            "ops_per_s",
            "1/s",
            stats::median(&r.round_ops_per_s).unwrap_or(0.0),
        ),
        m("read_p50_us", "us", r.read_us.median()),
        m("read_p99_us", "us", r.read_us.batch_p99()),
        m("write_p50_us", "us", r.write_us.median()),
        m("txn_p50_us", "us", r.txn_us.median()),
        m("recovery_ms", "ms", r.recovery_ms.median()),
        m("peak_rss_mb", "MB", r.peak_rss_mb),
        m(
            "disk_bytes_per_op",
            "B",
            stats::median(&r.disk_bytes_per_op).unwrap_or(0.0),
        ),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run. A layer the workload does not
/// exercise reads 0.
pub fn per_layer(r: &Report) -> Vec<Metric> {
    let d = Layers::default();
    let l = r.layers.as_ref().unwrap_or(&d);
    let commits = l.commits as f64;
    let reads = l.reads as f64;
    vec![
        m("query.parse_us", "us", l.parse_us.median()),
        m(
            "query.typecheck_plan_us",
            "us",
            l.typecheck_plan_us.median(),
        ),
        m(
            "query.plan_cache_hit_ratio",
            "ratio",
            ratio(l.plan_hits as f64, l.plan_lookups as f64),
        ),
        m("query.exec_us", "us", l.exec_us.median()),
        m(
            "query.bindings_per_row",
            "ratio",
            ratio(l.bindings as f64, l.rows as f64),
        ),
        m("query.rows_per_read", "count", ratio(l.rows as f64, reads)),
        m(
            "query.partitions_per_read",
            "count",
            ratio(l.partitions as f64, reads),
        ),
        m("core.apply_us", "us", l.apply_us.median()),
        m("core.clone_ms", "ms", l.clone_ms.median()),
        m("core.export_ms", "ms", l.export_ms.median()),
        m("core.import_ms", "ms", l.import_ms.median()),
        m("storage.digest_ms", "ms", l.digest_ms.median()),
        m("storage.write_us", "us", l.write_us.median()),
        m("storage.txn_us", "us", l.txn_us.median()),
        m("storage.sync_us", "us", l.sync_us.median()),
        m(
            "vfs.syncs_per_commit",
            "count",
            ratio(l.commit_syncs as f64, commits),
        ),
        m(
            "vfs.bytes_written_per_op",
            "B",
            ratio(l.commit_bytes as f64, commits),
        ),
        m("storage.checkpoint_ms", "ms", l.checkpoint_ms.median()),
        m(
            "storage.snapshot_load_ms",
            "ms",
            l.snapshot_load_ms.median(),
        ),
        m("storage.log_scan_ms", "ms", l.log_scan_ms.median()),
        m("storage.replayed_ops", "count", l.replayed_ops.median()),
        m("repl.primary_pump_us", "us", l.primary_pump_us.median()),
        m(
            "repl.primary_pump_us.first_decile",
            "us",
            l.primary_pump_first.median(),
        ),
        m(
            "repl.primary_pump_us.last_decile",
            "us",
            l.primary_pump_last.median(),
        ),
        m("repl.replica_pump_us", "us", l.replica_pump_us.median()),
        m(
            "repl.wire_bytes_per_op",
            "B",
            ratio(l.commit_wire_bytes as f64, commits),
        ),
        m(
            "repl.frames_per_op",
            "count",
            ratio(l.commit_frames as f64, commits),
        ),
        m("repl.catchup_ms", "ms", l.catchup_ms.median()),
        m("unexplained_us.read", "us", l.unexplained_read.median()),
        m("unexplained_us.write", "us", l.unexplained_write.median()),
        m("unexplained_us.txn", "us", l.unexplained_txn.median()),
        m(
            "explained_share.read",
            "ratio",
            ratio(l.explained[0].0, l.explained[0].1),
        ),
        m(
            "explained_share.write",
            "ratio",
            ratio(l.explained[1].0, l.explained[1].1),
        ),
        m(
            "explained_share.txn",
            "ratio",
            ratio(l.explained[2].0, l.explained[2].1),
        ),
    ]
}

/// Peak resident memory of this process (MB), from `VmHWM`; 0 where the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git revision of the checkout in `root`, read from `.git` without
/// running git (and without looking above `root`); `"unknown"` outside a
/// git checkout.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(refname)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(refname))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number (finite; non-finite values print as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": v, "unit": u}, …}`.
pub fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Per-kind attempted/failed tallies as JSON.
pub fn tally_json(r: &Report) -> String {
    let body: Vec<String> = r
        .tally
        .rows()
        .into_iter()
        .map(|(k, a, f)| format!("{}: {{\"attempted\": {a}, \"failed\": {f}}}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(r: &Report, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.check_failures == 0,
        r.tally.attempted().max(1),
        r.tally.failed(),
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers_escape_and_format() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.25), "1.25");
        let ms = [m("x", "us", 2.0)];
        assert_eq!(
            metrics_json(&ms),
            "{\"x\": {\"value\": 2, \"unit\": \"us\"}}"
        );
    }

    #[test]
    fn git_revision_outside_a_checkout_is_unknown() {
        assert_eq!(git_revision(Path::new("no-such-checkout")), "unknown");
    }
}
