//! Command-line entry point.
//!
//! ```text
//! tcbench --workload <hr_query|durable_ingest|replicated_ingest>
//!         --seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]
//! ```
//!
//! Prints a host/run facts line (and, traced, the metric registry), then
//! as the last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics untraced, the per-layer metrics
//! traced.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tcbench::workloads::{run, Config, Scale, Workload};
use tcbench::{end_to_end, git_revision, json_num, json_str, per_layer, result_line, tally_json};

fn usage(msg: &str) -> ExitCode {
    eprintln!("tcbench: {msg}");
    eprintln!(
        "usage: tcbench --workload <hr_query|durable_ingest|replicated_ingest> \
         --seed <n> --seconds <s> --trace <0|1> [--data-dir <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut data_dir = PathBuf::from(".bench_build").join("tcbench-data");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(v),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            "--data-dir" => data_dir = PathBuf::from(v),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        data_dir: data_dir.join(format!("{}-{}", workload.name(), std::process::id())),
        scale: Scale::full(workload),
    };
    let report = run(&cfg);

    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kinds: Vec<String> = report
        .read_kind_us
        .iter()
        .map(|(k, s)| {
            format!(
                "{}: {{\"n\": {}, \"p50\": {}, \"p99\": {}}}",
                json_str(k),
                s.len(),
                json_num(s.median()),
                json_num(s.p99_or_tail())
            )
        })
        .collect();
    let failures: Vec<String> = report.failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"host\": {{\"available_parallelism\": {threads}, \"git_revision\": {}}}, \
         \"run\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {trace}, \
         \"rounds\": {}, \"phase_s\": {}, \"timed_ops\": {}, \"reads\": {}, \"writes\": {}, \
         \"txns\": {}, \"restarts\": {}, \"distinct_read_texts\": {}, \"plan_cache_capacity\": 64}}, \
         \"ops\": {}, \"read_kinds_us\": {{{}}}, \"read_wall_p50_us\": {}, \"read_wall_p99_us\": {}, \"write_p99_us\": {}, \"failures\": [{}]}}",
        json_str(&git_revision(Path::new("."))),
        json_str(workload.name()),
        json_num(seconds),
        report.rounds,
        json_num(report.phase_s),
        report.ops_done,
        report.read_us.len(),
        report.write_us.len(),
        report.txn_us.len(),
        report.recovery_ms.len(),
        report.distinct_reads,
        tally_json(&report),
        kinds.join(", "),
        json_num(report.read_wall_us.median()),
        json_num(report.read_wall_us.batch_p99()),
        json_num(report.write_us.batch_p99()),
        failures.join(", "),
    );
    let metrics = if trace {
        println!(
            "{{\"registry\": {}}}",
            tchimera_obs::registry().snapshot().to_json()
        );
        per_layer(&report)
    } else {
        end_to_end(&report)
    };
    println!("{}", result_line(&report, &metrics));
    ExitCode::SUCCESS
}
