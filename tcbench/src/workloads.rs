//! The three workloads and the round loop that drives them.
//!
//! A run repeats whole *rounds*. A round sets up the seeded state in
//! fresh directories, performs one fixed, seed-generated list of timed
//! operations and restarts the node(s) a few times; the run deletes the
//! rounds' files when it ends.
//! Every round of a run performs the same operations, so a round's log
//! length and state size never depend on how fast the host is; the run
//! adds rounds until at least `--seconds` of operation phase have passed
//! (and at least the workload's minimum number of rounds, which keeps
//! the sample counts the README promises).
//!
//! Untraced rounds drive the public front doors only: TCQL text through
//! `ReplicaSession::run`, writes through `PersistentDatabase` on `StdFs`,
//! shipping through `Primary`/`Replica` over `ChannelTransport`. A traced
//! run performs each round twice: once untraced, then on the same inputs
//! calling each layer's public functions one by one with the counting
//! `Vfs`/`Transport` wrappers installed. Each operation's layer times are
//! set against its untraced front-door time.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant as Clock;

use tchimera_core::{Database, Value};
use tchimera_query::{
    eval_select_naive, execute_plan, parse, ExecBudget, ExecOptions, Outcome, PlanCache,
    QueryResult, ReplicaSession, Stmt,
};
use tchimera_storage::{
    digest_database, load_snapshot, snapshot_path, ChannelTransport, PersistentDatabase, Primary,
    Replica, StdFs, Transport, Vfs,
};

use crate::counting::{CountingTransport, CountingVfs, IoCounts, WireCounts};
use crate::hr::{seed_history, GenState, HrSize, Model, ReadQ, Rng, Step};
use crate::oncpu::{timed, Mark};
use crate::stats::{Samples, Tally};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Read-heavy TCQL over a large HR history.
    HrQuery,
    /// Write-heavy synced commits and transactions with checkpoints.
    DurableIngest,
    /// Synced commits shipped to and applied by a replica.
    ReplicatedIngest,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::HrQuery,
        Workload::DurableIngest,
        Workload::ReplicatedIngest,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HrQuery => "hr_query",
            Workload::DurableIngest => "durable_ingest",
            Workload::ReplicatedIngest => "replicated_ingest",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How big a workload's rounds are.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// The seeded history.
    pub hr: HrSize,
    /// Timed reads per round.
    pub reads: usize,
    /// Timed single-op writes per round.
    pub writes: usize,
    /// Timed multi-op transactions per round.
    pub txns: usize,
    /// Single-op writes arrive in runs of this many consecutive commits.
    pub write_burst: usize,
    /// Checkpoints per round (spread evenly through the operations).
    pub checkpoints: usize,
    /// Restarts timed at the end of each round.
    pub restarts: usize,
    /// A run performs at least this many rounds.
    pub min_rounds: usize,
}

impl Scale {
    /// The benchmark's sizes for `w`.
    pub fn full(w: Workload) -> Scale {
        match w {
            Workload::HrQuery => Scale {
                hr: HrSize {
                    employees: 1800,
                    managers: 200,
                    steps: 30,
                    depts: 12,
                },
                reads: 4500,
                writes: 500,
                txns: 20,
                write_burst: 250,
                checkpoints: 0,
                restarts: 2,
                min_rounds: 2,
            },
            Workload::DurableIngest => Scale {
                hr: HrSize {
                    employees: 900,
                    managers: 100,
                    steps: 10,
                    depts: 12,
                },
                reads: 400,
                writes: 3400,
                txns: 160,
                write_burst: 1,
                checkpoints: 8,
                restarts: 2,
                min_rounds: 3,
            },
            Workload::ReplicatedIngest => Scale {
                hr: HrSize {
                    employees: 270,
                    managers: 30,
                    steps: 10,
                    depts: 12,
                },
                reads: 500,
                writes: 700,
                txns: 50,
                write_burst: 1,
                checkpoints: 0,
                restarts: 2,
                min_rounds: 2,
            },
        }
    }

    /// Tiny sizes for the smoke test: same shape, a few milliseconds.
    pub fn smoke(w: Workload) -> Scale {
        let full = Scale::full(w);
        Scale {
            hr: HrSize {
                employees: 40,
                managers: 6,
                steps: 4,
                depts: 4,
            },
            reads: 60,
            writes: 40,
            txns: 6,
            write_burst: full.write_burst.min(20),
            checkpoints: full.checkpoints.min(2),
            restarts: 2,
            min_rounds: 2,
        }
    }
}

/// One timed operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// A TCQL read.
    Read(ReadQ),
    /// A single-op synced write.
    Write(Step),
    /// A synced multi-op transaction.
    Txn(Vec<Step>),
    /// `PersistentDatabase::checkpoint`.
    Checkpoint,
}

/// A workload's generated inputs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The seeded history loaded during set-up.
    pub seed: Vec<Step>,
    /// The timed operations of one round.
    pub ops: Vec<Op>,
}

impl Plan {
    /// Generate the inputs of workload `w` at `scale` from `seed`.
    ///
    /// Every kind of operation — each read shape, each write shape — has
    /// an exact count per round, and only the order and the values depend
    /// on the seed, so no seed draws a heavier or lighter mix than another.
    pub fn new(w: Workload, scale: &Scale, seed: u64) -> Plan {
        let mut rng = Rng::new(seed, 1);
        let (seed_steps, mut g) = seed_history(scale.hr, &mut rng);
        let seed_end = g.now;
        let reads = exact_mix(&mut rng, read_mix(w), scale.reads);
        let mut writes = exact_mix(
            &mut rng,
            &[(10, Wk::Tick), (5, Wk::Create), (85, Wk::Set)],
            scale.writes,
        )
        .into_iter();
        // Units of the round, shuffled: a read, a transaction, or a run of
        // `write_burst` consecutive single-op writes.
        let mut units: Vec<Unit> = reads.into_iter().map(Unit::Read).collect();
        units.extend((0..scale.txns).map(|_| Unit::Txn));
        let burst = scale.write_burst.max(1);
        units.extend((0..scale.writes.div_ceil(burst)).map(|_| Unit::Writes));
        shuffle(&mut rng, &mut units);
        let mut ops =
            Vec::with_capacity(scale.reads + scale.writes + scale.txns + scale.checkpoints);
        for u in units {
            match u {
                Unit::Read(k) => ops.push(Op::Read(read_of(k, &mut rng, &g, seed_end))),
                Unit::Txn => ops.push(Op::Txn(random_txn(&mut rng, &mut g))),
                Unit::Writes => {
                    for k in writes.by_ref().take(burst) {
                        ops.push(Op::Write(match k {
                            Wk::Tick => g.tick(),
                            Wk::Create => g.create(&mut rng),
                            Wk::Set => g.random_set(&mut rng),
                        }));
                    }
                }
            }
        }
        // Checkpoints at evenly spaced positions.
        let every = ops.len() / (scale.checkpoints + 1);
        for k in (1..=scale.checkpoints).rev() {
            ops.insert(k * every, Op::Checkpoint);
        }
        Plan {
            seed: seed_steps,
            ops,
        }
    }

    /// Number of distinct read texts in one round.
    pub fn distinct_reads(&self) -> usize {
        let texts: Vec<String> = self
            .ops
            .iter()
            .filter_map(|o| match o {
                Op::Read(q) => Some(q.text()),
                _ => None,
            })
            .collect();
        crate::hr::distinct_texts(texts.iter().map(String::as_str))
    }
}

/// One shuffled unit of a round.
#[derive(Clone, Copy)]
enum Unit {
    Read(Rk),
    Txn,
    Writes,
}

/// Read shapes.
#[derive(Clone, Copy)]
enum Rk {
    PointNow,
    PointAsOf,
    DeptCount,
    SalaryAbove,
    BossJoin,
    ManagersAsOf,
    DeptDuring,
    TopSalaries,
}

/// Single-op write shapes.
#[derive(Clone, Copy)]
enum Wk {
    Tick,
    Create,
    Set,
}

/// The read mix of `w`, as percentages. `hr_query` runs the full report
/// mix (joins, `DURING`, `ORDER BY`); the ingest workloads read with
/// lookups and counts only.
fn read_mix(w: Workload) -> &'static [(usize, Rk)] {
    match w {
        Workload::HrQuery => &[
            (25, Rk::PointNow),
            (15, Rk::PointAsOf),
            (15, Rk::DeptCount),
            (10, Rk::SalaryAbove),
            (10, Rk::BossJoin),
            (10, Rk::ManagersAsOf),
            (10, Rk::DeptDuring),
            (5, Rk::TopSalaries),
        ],
        _ => &[
            (40, Rk::PointNow),
            (20, Rk::PointAsOf),
            (20, Rk::DeptCount),
            (10, Rk::SalaryAbove),
            (10, Rk::ManagersAsOf),
        ],
    }
}

/// `n` tags in exact proportion to their weights (largest remainders
/// rounded so the counts sum to `n`), in shuffled order.
fn exact_mix<T: Copy>(rng: &mut Rng, weights: &[(usize, T)], n: usize) -> Vec<T> {
    let total: usize = weights.iter().map(|w| w.0).sum();
    let mut out = Vec::with_capacity(n);
    for (i, &(w, t)) in weights.iter().enumerate() {
        let k = if i + 1 == weights.len() {
            n - out.len()
        } else {
            (n * w + total / 2) / total
        };
        out.extend(std::iter::repeat_n(t, k.min(n - out.len())));
    }
    shuffle(rng, &mut out);
    out
}

/// Fisher–Yates.
fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// A read of shape `k` with seed-drawn parameters.
fn read_of(k: Rk, rng: &mut Rng, g: &GenState, seed_end: u64) -> ReadQ {
    let quarter = |rng: &mut Rng| 1 + rng.below(4) * seed_end / 4;
    match k {
        Rk::PointNow => ReadQ::PointNow(rng.below(g.next_oid)),
        Rk::PointAsOf => ReadQ::PointAsOf(rng.below(g.next_oid), 1 + rng.below(seed_end)),
        Rk::DeptCount => ReadQ::DeptCount(rng.below(u64::from(g.depts)) as u32),
        Rk::SalaryAbove => ReadQ::SalaryAbove(rng.pick(&[8000, 8500, 8800, 8950])),
        Rk::BossJoin => ReadQ::BossJoin(rng.below(4) as u32),
        Rk::ManagersAsOf => ReadQ::ManagersAsOf(quarter(rng)),
        Rk::DeptDuring => {
            let a = quarter(rng);
            ReadQ::DeptDuring(a, a + 2 * crate::hr::STEP_T, rng.below(2) as u32)
        }
        Rk::TopSalaries => ReadQ::TopSalaries(rng.chance(50)),
    }
}

/// A 2–4-op transaction: a hire with follow-up changes, or a batch of
/// updates.
fn random_txn(rng: &mut Rng, g: &mut GenState) -> Vec<Step> {
    let n = 2 + rng.below(3) as usize;
    let mut out = Vec::with_capacity(n);
    if rng.chance(30) {
        out.push(g.create(rng));
    }
    while out.len() < n {
        out.push(g.random_set(rng));
    }
    out
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Rounds performed.
    pub rounds: usize,
    /// Attempted and failed operations per kind.
    pub tally: Tally,
    /// Output checks that failed (each also counted as a failed op).
    pub check_failures: u64,
    /// First few check failure messages.
    pub failures: Vec<String>,
    /// Set-up seconds per round.
    pub setup_s: Vec<f64>,
    /// Read latencies (µs), timed by CPU time unless the read blocked
    /// (see [`crate::oncpu`]).
    pub read_us: Samples,
    /// Read latencies (µs) by the wall clock.
    pub read_wall_us: Samples,
    /// Read latencies (µs) per read kind, as `read_us`.
    pub read_kind_us: BTreeMap<&'static str, Samples>,
    /// Single-op write latencies (µs).
    pub write_us: Samples,
    /// Transaction latencies (µs).
    pub txn_us: Samples,
    /// Restart latencies (ms).
    pub recovery_ms: Samples,
    /// Timed operations completed and the seconds they took.
    pub ops_done: u64,
    /// Sum of timed operation latencies (s).
    pub timed_s: f64,
    /// Wall seconds of the operation phases (timed ops plus checks).
    pub phase_s: f64,
    /// Timed operations per second of timed phase, per round.
    pub round_ops_per_s: Vec<f64>,
    /// Disk bytes per committed op, per round.
    pub disk_bytes_per_op: Vec<f64>,
    /// Distinct read texts per round.
    pub distinct_reads: usize,
    /// Peak resident memory (MB), taken when the last round has ended and
    /// before the core-API replays exist.
    pub peak_rss_mb: f64,
    /// `durable_ingest`: per restarted round, which of the plan's
    /// operations committed and the digest the restarted node served; the
    /// core-API replay is checked against it after the last round.
    pub replays: Vec<(Vec<bool>, u64)>,
    /// Layer timings (traced runs only).
    pub layers: Option<Layers>,
}

impl Report {
    fn fail_check(&mut self, kind: &'static str, msg: String) {
        self.tally.fail(kind);
        self.check_failures += 1;
        if self.failures.len() < 5 {
            self.failures.push(format!("{kind}: {msg}"));
        }
    }
}

/// Per-layer timings and counts gathered by a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// `parser::parse` (µs).
    pub parse_us: Samples,
    /// `PlanCache::get_or_plan`: typecheck + plan on a miss (µs).
    pub typecheck_plan_us: Samples,
    /// Plan cache hits and lookups.
    pub plan_hits: u64,
    /// Plan cache lookups.
    pub plan_lookups: u64,
    /// `execute_plan` (µs).
    pub exec_us: Samples,
    /// Candidate bindings examined, rows returned, partitions used.
    pub bindings: u64,
    /// Rows returned.
    pub rows: u64,
    /// Partitions used.
    pub partitions: u64,
    /// Reads executed.
    pub reads: u64,
    /// Applying one step to a core `Database` (µs).
    pub apply_us: Samples,
    /// `Database::clone` of the live state, the transaction shadow (ms).
    pub clone_ms: Samples,
    /// `Database::export_state` (ms).
    pub export_ms: Samples,
    /// `Database::import_state` (ms).
    pub import_ms: Samples,
    /// `digest_database` (ms).
    pub digest_ms: Samples,
    /// The engine's single-op mutator (µs).
    pub write_us: Samples,
    /// `PersistentDatabase::txn` (µs).
    pub txn_us: Samples,
    /// `sync` calls on the commit path (µs).
    pub sync_us: Samples,
    /// Syncs, bytes, frames and wire bytes on the commit path.
    pub commit_syncs: u64,
    /// Bytes written on the commit path.
    pub commit_bytes: u64,
    /// Frames sent on the commit path.
    pub commit_frames: u64,
    /// Wire bytes sent on the commit path.
    pub commit_wire_bytes: u64,
    /// Commits (writes and transactions).
    pub commits: u64,
    /// `checkpoint` (ms).
    pub checkpoint_ms: Samples,
    /// `load_snapshot` (ms).
    pub snapshot_load_ms: Samples,
    /// `scan_log` (ms).
    pub log_scan_ms: Samples,
    /// Log operations replayed on reopen.
    pub replayed_ops: Samples,
    /// `Primary::pump` (µs).
    pub primary_pump_us: Samples,
    /// Per-round medians of the first and last tenth of primary pumps.
    pub primary_pump_first: Samples,
    /// See `primary_pump_first`.
    pub primary_pump_last: Samples,
    /// `Replica::pump` (µs).
    pub replica_pump_us: Samples,
    /// A fresh replica's catch-up pump loop (ms).
    pub catchup_ms: Samples,
    /// Per op, its front-door time on the untraced twin node minus the
    /// sum of its timed layers on the traced twin, per kind (µs).
    pub unexplained_read: Samples,
    /// See `unexplained_read`.
    pub unexplained_write: Samples,
    /// See `unexplained_read`.
    pub unexplained_txn: Samples,
    /// Σ timed layers and Σ front-door time per kind (µs).
    pub explained: [(f64, f64); 3],
}

/// Run settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Minimum seconds of operation phase.
    pub seconds: f64,
    /// Traced run (layer timings) instead of end-to-end.
    pub trace: bool,
    /// Where node directories are created (deleted afterwards).
    pub data_dir: PathBuf,
    /// Sizes.
    pub scale: Scale,
}

/// The read a restarted node serves first.
const COUNT_ALL: &str = "select count(e) from employee e";

/// Run a whole benchmark run.
pub fn run(cfg: &Config) -> Report {
    let plan = Plan::new(cfg.workload, &cfg.scale, cfg.seed);
    let mut report = Report {
        distinct_reads: plan.distinct_reads(),
        layers: cfg.trace.then(Layers::default),
        ..Report::default()
    };
    remove_and_settle(&cfg.data_dir);
    while report.rounds < cfg.scale.min_rounds || report.phase_s < cfg.seconds {
        let dir = cfg.data_dir.join(format!("round-{}", report.rounds));
        let set_up = if cfg.trace {
            traced_round(cfg, &plan, &mut report, &dir)
        } else {
            Round::<Plain>::new(cfg, &plan, &dir, false).run(&mut report)
        };
        report.rounds += 1;
        if !set_up {
            break;
        }
    }
    report.peak_rss_mb = crate::peak_rss_mb();
    replay_checks(&plan, &mut report);
    // Files are deleted only now: deleting (and so discarding) blocks
    // between rounds would add disk work the next round's syncs wait on.
    remove_and_settle(&cfg.data_dir);
    report
}

/// A traced round: twin nodes on the same inputs, one driven through the
/// front doors (untraced, plain I/O) and one layer by layer through the
/// counting wrappers. Each operation runs on both back to back, the order
/// alternating, so that its layer times are set against its front-door
/// time under the same host conditions. `false` if set-up failed.
fn traced_round(cfg: &Config, plan: &Plan, rep: &mut Report, dir: &Path) -> bool {
    let mut front = Round::<Plain>::new(cfg, plan, &dir.join("front"), false);
    let mut traced = Round::<Counted>::new(cfg, plan, &dir.join("traced"), true);
    let (Some(mut nf), Some(mut nt)) = (front.set_up(rep), traced.set_up(rep)) else {
        return false;
    };
    let phase = Clock::now();
    for (i, op) in plan.ops.iter().enumerate() {
        let (e2e, layered) = if i % 2 == 0 {
            let e2e = front.op(rep, &mut nf, i, op);
            (e2e, traced.op(rep, &mut nt, i, op))
        } else {
            let layered = traced.op(rep, &mut nt, i, op);
            (front.op(rep, &mut nf, i, op), layered)
        };
        if let (Some(e2e), Some(layered), Some(l)) = (e2e, layered, rep.layers.as_mut()) {
            l.pair(op, e2e, layered);
        }
    }
    rep.phase_s += phase.elapsed().as_secs_f64();
    front.finish(rep, nf);
    traced.finish(rep, nt);
    true
}

impl Layers {
    /// Set one operation's timed layers against its front-door time (µs).
    fn pair(&mut self, op: &Op, e2e: f64, layered: f64) {
        let (k, unexplained) = match op {
            Op::Read(_) => (0, &mut self.unexplained_read),
            Op::Write(_) => (1, &mut self.unexplained_write),
            Op::Txn(_) => (2, &mut self.unexplained_txn),
            Op::Checkpoint => return,
        };
        unexplained.push(e2e - layered);
        self.explained[k].0 += layered;
        self.explained[k].1 += e2e;
    }
}

/// `durable_ingest`'s independent recovery check, made after the last
/// round so that its copy of the state never counts in `peak_rss_mb`: the
/// seeded history and every committed step, applied to a fresh `Database`
/// through core's API alone, must give the digest each restarted node
/// served. Rounds that committed the same operations share one replay.
fn replay_checks(plan: &Plan, rep: &mut Report) {
    let mut digests: BTreeMap<Vec<bool>, Result<u64, String>> = BTreeMap::new();
    for (committed, served) in std::mem::take(&mut rep.replays) {
        let want = digests
            .entry(committed)
            .or_insert_with_key(|committed| replay(plan, committed, rep.layers.as_mut()));
        match want {
            Ok(d) if *d == served => {}
            Ok(_) => rep.fail_check(
                "restart",
                "engine state differs from the core-API replay".into(),
            ),
            Err(e) => rep.fail_check("restart", format!("core replay rejected a step: {e}")),
        }
    }
}

/// The digest of the seeded history plus the committed steps of `plan`,
/// applied through core's API. Traced, each timed step's apply is a
/// `core.apply_us` sample.
fn replay(plan: &Plan, committed: &[bool], mut layers: Option<&mut Layers>) -> Result<u64, String> {
    let mut db = Database::new();
    for s in &plan.seed {
        s.apply_checked(&mut db)?;
    }
    for (op, _) in plan.ops.iter().zip(committed).filter(|(_, &c)| c) {
        let steps = match op {
            Op::Write(s) => std::slice::from_ref(s),
            Op::Txn(steps) => steps,
            Op::Read(_) | Op::Checkpoint => continue,
        };
        for s in steps {
            let mut t = 0.0;
            let r = timed(&mut t, || s.apply_checked(&mut db));
            if let Some(l) = layers.as_deref_mut() {
                l.apply_us.push(t);
            }
            r?;
        }
    }
    Ok(digest_database(&db))
}

/// Delete `dir` and sync its parent, so the filesystem finishes the
/// deletion now rather than during whatever is measured next.
fn remove_and_settle(dir: &Path) {
    if std::fs::remove_dir_all(dir).is_ok() {
        if let Some(parent) = dir.parent() {
            let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
        }
    }
}

/// How a round builds its I/O: plain `StdFs` + `ChannelTransport`, or the
/// counting wrappers around them.
trait Env {
    type T: Transport;
    fn new() -> Self;
    fn vfs(&self) -> Arc<dyn Vfs>;
    fn link(&self) -> (Self::T, Self::T);
    fn io(&self) -> (u64, u64, u64, u64);
}

/// Untraced I/O.
struct Plain;

impl Env for Plain {
    type T = ChannelTransport;
    fn new() -> Plain {
        Plain
    }
    fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::new(StdFs)
    }
    fn link(&self) -> (ChannelTransport, ChannelTransport) {
        ChannelTransport::pair()
    }
    fn io(&self) -> (u64, u64, u64, u64) {
        (0, 0, 0, 0)
    }
}

/// Traced I/O: every node and link of the round shares one set of counts.
struct Counted {
    io: Arc<IoCounts>,
    wire: Arc<WireCounts>,
}

impl Env for Counted {
    type T = CountingTransport<ChannelTransport>;
    fn new() -> Counted {
        Counted {
            io: Arc::default(),
            wire: Arc::default(),
        }
    }
    fn vfs(&self) -> Arc<dyn Vfs> {
        CountingVfs::wrap(Arc::new(StdFs), &self.io)
    }
    fn link(&self) -> (Self::T, Self::T) {
        let (a, b) = ChannelTransport::pair();
        (
            CountingTransport::wrap(a, &self.wire),
            CountingTransport::wrap(b, &self.wire),
        )
    }
    fn io(&self) -> (u64, u64, u64, u64) {
        (
            self.io.syncs(),
            self.io.bytes_written(),
            self.wire.frames(),
            self.wire.bytes(),
        )
    }
}

/// The node(s) of a round.
enum Node<T: Transport> {
    Single(Box<PersistentDatabase>),
    Pair(Box<(Primary<T>, Replica<T>)>),
}

/// One round: set-up, timed operations, restarts.
///
/// An untraced round records the end-to-end samples; a traced one records
/// only layer timings. Both tally their operations and run every output
/// check.
struct Round<'a, E: Env> {
    cfg: &'a Config,
    plan: &'a Plan,
    dir: PathBuf,
    env: E,
    traced: bool,
    model: Model,
    /// Which of the plan's operations committed.
    committed: Vec<bool>,
    session: ReplicaSession,
    check_session: ReplicaSession,
    cache: PlanCache,
    budget: ExecBudget,
    naive_checked: BTreeSet<String>,
    pump_us: Samples,
}

fn open(vfs: Arc<dyn Vfs>, dir: &Path) -> Result<PersistentDatabase, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    PersistentDatabase::open_with(vfs, &dir.join("node.log")).map_err(|e| e.to_string())
}

/// Bytes of every regular file under `dir` (log and snapshot files).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn table(out: Result<Outcome, impl std::fmt::Display>) -> Result<QueryResult, String> {
    match out {
        Ok(Outcome::Table(t)) => Ok(t),
        Ok(other) => Err(format!("expected rows, got {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// The run's layer timings; only a traced round calls this.
fn layers(rep: &mut Report) -> &mut Layers {
    rep.layers.as_mut().expect("traced run")
}

impl<'a, E: Env> Round<'a, E> {
    fn new(cfg: &'a Config, plan: &'a Plan, dir: &Path, traced: bool) -> Self {
        Round {
            cfg,
            plan,
            dir: dir.to_path_buf(),
            env: E::new(),
            traced,
            model: Model::default(),
            committed: vec![false; plan.ops.len()],
            session: ReplicaSession::new(),
            check_session: ReplicaSession::new(),
            cache: PlanCache::default(),
            budget: ExecBudget::default(),
            naive_checked: Default::default(),
            pump_us: Samples::default(),
        }
    }

    /// The layer timings if this round is traced.
    fn traced_layers<'r>(&self, rep: &'r mut Report) -> Option<&'r mut Layers> {
        if self.traced {
            rep.layers.as_mut()
        } else {
            None
        }
    }

    /// Run an untraced round; `false` if set-up failed (the run then
    /// stops).
    fn run(mut self, rep: &mut Report) -> bool {
        let Some(mut node) = self.set_up(rep) else {
            return false;
        };
        let phase = Clock::now();
        let (ops0, timed0) = (rep.ops_done, rep.timed_s);
        let plan = self.plan;
        for (i, op) in plan.ops.iter().enumerate() {
            self.op(rep, &mut node, i, op);
        }
        rep.phase_s += phase.elapsed().as_secs_f64();
        let ops = (rep.ops_done - ops0) as f64;
        rep.round_ops_per_s
            .push(ops / (rep.timed_s - timed0).max(1e-9));
        self.finish(rep, node);
        true
    }

    /// Set-up, with a failure recorded; `None` if it failed.
    fn set_up(&mut self, rep: &mut Report) -> Option<Node<E::T>> {
        match self.setup(rep) {
            Ok(n) => Some(n),
            Err(e) => {
                rep.tally.record("setup", false);
                rep.check_failures += 1;
                rep.failures.push(format!("setup: {e}"));
                None
            }
        }
    }

    /// Load the seeded state: open the node(s), apply the seeded history,
    /// sync, checkpoint, and (replicated) bring a fresh replica level.
    /// Timed as `setup_s`, call by call; the model is built outside it.
    fn setup(&mut self, rep: &mut Report) -> Result<Node<E::T>, String> {
        let mut t = 0.0;
        let mut pdb = timed(&mut t, || open(self.env.vfs(), &self.dir.join("primary")))?;
        timed(&mut t, || {
            self.plan
                .seed
                .iter()
                .try_for_each(|s| s.apply_checked(&mut pdb))
        })?;
        timed(&mut t, || pdb.sync()).map_err(|e| e.to_string())?;
        timed(&mut t, || pdb.checkpoint()).map_err(|e| e.to_string())?;
        let node = if self.cfg.workload == Workload::ReplicatedIngest {
            let (pt, rt) = self.env.link();
            let mut primary = timed(&mut t, || Primary::new(pdb, 1, pt));
            let fresh = timed(&mut t, || open(self.env.vfs(), &self.dir.join("replica")))?;
            let mut replica = timed(&mut t, || Replica::new(fresh, rt));
            t += catch_up(&mut primary, &mut replica)?;
            Node::Pair(Box::new((primary, replica)))
        } else {
            Node::Single(Box::new(pdb))
        };
        if !self.traced {
            rep.setup_s.push(t / 1e6);
        }
        for s in &self.plan.seed {
            self.model.apply(s);
        }
        Ok(node)
    }

    /// Perform the plan's operation `i`. Returns its time untraced, the
    /// sum of its timed layers traced (µs); `None` if it failed or is a
    /// checkpoint.
    fn op(&mut self, rep: &mut Report, node: &mut Node<E::T>, i: usize, op: &Op) -> Option<f64> {
        let t = match op {
            Op::Read(q) => return self.read(rep, node, q),
            Op::Write(s) => self.commit(rep, node, std::slice::from_ref(s), false),
            Op::Txn(steps) => self.commit(rep, node, steps, true),
            Op::Checkpoint => {
                self.checkpoint(rep, node);
                return None;
            }
        };
        self.committed[i] = t.is_some();
        t
    }

    /// End of the operation phase: the end-of-round checks and disk
    /// usage, then the restarts.
    fn finish(mut self, rep: &mut Report, node: Node<E::T>) {
        let (first, last) = self.pump_us.first_last_decile();
        let pumped = !self.pump_us.is_empty();
        if let (Some(l), true) = (self.traced_layers(rep), pumped) {
            l.primary_pump_first.push(first);
            l.primary_pump_last.push(last);
        }
        if let Node::Pair(pair) = &node {
            let (p, r) = &**pair;
            if digest_database(p.database()) != digest_database(r.db_ref().db()) {
                rep.fail_check("write", "replica digest differs at end of round".into());
            }
        }
        if !self.traced {
            let bytes = dir_bytes(&self.dir);
            let ops = match &node {
                Node::Single(pdb) => pdb.op_count(),
                Node::Pair(pair) => pair.0.db_ref().op_count(),
            };
            rep.disk_bytes_per_op.push(bytes as f64 / ops.max(1) as f64);
        }
        self.restarts(rep, node);
    }

    /// One timed TCQL read, then its output check. Returns the read's
    /// time untraced, its summed layer time traced, `None` if it failed.
    fn read(&mut self, rep: &mut Report, node: &Node<E::T>, q: &ReadQ) -> Option<f64> {
        let text = q.text();
        let db: &Database = match node {
            Node::Single(pdb) => pdb.db(),
            Node::Pair(pair) => match pair.1.read_view(0) {
                Ok(db) => db,
                Err(e) => {
                    rep.tally.record("read", true);
                    rep.fail_check("read", format!("replica refused a read: {e}"));
                    return None;
                }
            },
        };
        let (out, t) = if self.traced {
            self.read_layers(rep, db, &text)
        } else {
            let t0 = Mark::now();
            let out = table(self.session.run(db, &text));
            let (t, wall) = t0.us_and_wall();
            rep.read_us.push(t);
            rep.read_wall_us.push(wall);
            rep.read_kind_us.entry(q.kind()).or_default().push(t);
            rep.ops_done += 1;
            rep.timed_s += t / 1e6;
            (out, t)
        };
        let rows = match out {
            Ok(r) => r,
            Err(e) => {
                rep.tally.record("read", false);
                if rep.failures.len() < 5 {
                    rep.failures.push(format!("read {text}: {e}"));
                }
                return None;
            }
        };
        rep.tally.record("read", true);
        if let Err(e) = self.check_read(rep, node, db, q, &text, &rows) {
            rep.fail_check("read", format!("{text}: {e}"));
        }
        Some(t)
    }

    /// The traced read: parse, typecheck + plan through a plan cache, and
    /// execute, each timed. Returns the rows and the summed layer time.
    fn read_layers(
        &mut self,
        rep: &mut Report,
        db: &Database,
        text: &str,
    ) -> (Result<QueryResult, String>, f64) {
        let mut parse_us = 0.0;
        let stmt = timed(&mut parse_us, || parse(text));
        layers(rep).parse_us.push(parse_us);
        let q = match stmt {
            Ok(Stmt::Select(q)) => q,
            Ok(_) => return (Err("not a select".into()), parse_us),
            Err(e) => return (Err(e.to_string()), parse_us),
        };
        let mut plan_us = 0.0;
        let planned = timed(&mut plan_us, || self.cache.get_or_plan(db.schema(), &q));
        let l = layers(rep);
        l.typecheck_plan_us.push(plan_us);
        l.plan_lookups += 1;
        let plan = match planned {
            Ok((plan, hit)) => {
                l.plan_hits += u64::from(hit);
                plan
            }
            Err(e) => return (Err(e.to_string()), parse_us + plan_us),
        };
        let opts = ExecOptions {
            budget: Some(self.budget.clone()),
            ..ExecOptions::default()
        };
        let mut exec_us = 0.0;
        let out = timed(&mut exec_us, || execute_plan(db, &plan, &opts));
        let l = layers(rep);
        l.exec_us.push(exec_us);
        let layered = parse_us + plan_us + exec_us;
        match out {
            Ok((res, stats)) => {
                l.bindings += stats.bindings;
                l.rows += stats.rows as u64;
                l.partitions += stats.partitions as u64;
                l.reads += 1;
                (Ok(res), layered)
            }
            Err(e) => (Err(e.to_string()), layered),
        }
    }

    fn check_read(
        &mut self,
        rep: &mut Report,
        node: &Node<E::T>,
        db: &Database,
        q: &ReadQ,
        text: &str,
        rows: &QueryResult,
    ) -> Result<(), String> {
        if let Some(want) = q.expected(&self.model) {
            if rows.rows != want {
                return Err(format!(
                    "model expects {} rows {:?}, got {} rows {:?}",
                    want.len(),
                    want.first(),
                    rows.rows.len(),
                    rows.rows.first()
                ));
            }
        } else if self.naive_checked.insert(text.to_owned()) {
            // Once per distinct text and round: the reference evaluator
            // is a full cross product.
            let Ok(Stmt::Select(sel)) = parse(text) else {
                return Err("reparse failed".into());
            };
            let naive = eval_select_naive(db, &sel).map_err(|e| e.to_string())?;
            if naive.rows != rows.rows {
                return Err(format!(
                    "reference evaluator returns {} rows, executor {}",
                    naive.len(),
                    rows.len()
                ));
            }
        }
        if let Node::Pair(pair) = node {
            // Every tenth replica read is repeated on the primary.
            if rep.read_us.len().is_multiple_of(10) {
                let primary = table(self.check_session.run(pair.0.database(), text))?;
                if primary.rows != rows.rows {
                    return Err("primary and replica return different rows".into());
                }
            }
        }
        Ok(())
    }

    /// One timed commit — a single-op write or a transaction — through
    /// acknowledgement: engine call and `sync`, and for the replicated
    /// workload the primary and replica pumps until the replica has
    /// applied it, and the replica's `sync`.
    ///
    /// Returns the commit's time — the sum of those calls' times, each
    /// timed as `oncpu` describes — or `None` if it failed.
    fn commit(
        &mut self,
        rep: &mut Report,
        node: &mut Node<E::T>,
        steps: &[Step],
        txn: bool,
    ) -> Option<f64> {
        let kind = if txn { "txn" } else { "write" };
        let io0 = self.env.io();
        let mut laps = Laps::default();
        let r = match node {
            Node::Single(pdb) => engine_commit(pdb, steps, txn, &mut laps),
            Node::Pair(pair) => {
                let (p, r) = &mut **pair;
                engine_commit(p.db(), steps, txn, &mut laps)
                    .and_then(|()| replicate(p, r, &mut laps))
            }
        };
        let t = laps.total();
        let io1 = self.env.io();
        if !self.traced {
            rep.ops_done += 1;
            rep.timed_s += t / 1e6;
            if txn {
                rep.txn_us.push(t)
            } else {
                rep.write_us.push(t)
            }
        }
        self.pump_us.extend(&laps.primary_pump);
        if let Some(l) = self.traced_layers(rep) {
            if txn {
                l.txn_us.push(laps.engine_us)
            } else {
                l.write_us.push(laps.engine_us)
            }
            for s in [laps.sync_us, laps.replica_sync_us] {
                if s > 0.0 {
                    l.sync_us.push(s);
                }
            }
            l.primary_pump_us.extend(&laps.primary_pump);
            l.replica_pump_us.extend(&laps.replica_pump);
            l.commits += 1;
            l.commit_syncs += io1.0 - io0.0;
            l.commit_bytes += io1.1 - io0.1;
            l.commit_frames += io1.2 - io0.2;
            l.commit_wire_bytes += io1.3 - io0.3;
        }
        if let Err(e) = r {
            rep.tally.record(kind, false);
            if rep.failures.len() < 5 {
                rep.failures.push(format!("{kind}: {e}"));
            }
            return None;
        }
        rep.tally.record(kind, true);
        for s in steps {
            self.model.apply(s);
        }
        if txn && self.traced {
            // The shadow a transaction clones, timed after it so that the
            // copy's freed memory does not serve the transaction's own.
            let live = match &*node {
                Node::Single(pdb) => pdb.db(),
                Node::Pair(pair) => pair.0.database(),
            };
            let mut t = 0.0;
            let copy = timed(&mut t, || live.clone());
            drop(copy);
            layers(rep).clone_ms.push(t / 1e3);
        }
        if let Node::Pair(pair) = &*node {
            let (p, r) = &**pair;
            let mut digest_us = 0.0;
            let primary = timed(&mut digest_us, || digest_database(p.database()));
            if let Some(l) = self.traced_layers(rep) {
                l.digest_ms.push(digest_us / 1e3);
            }
            if r.applied() < p.db_ref().op_count() as u64 {
                rep.fail_check(kind, "acknowledged before the replica applied it".into());
            } else if primary != digest_database(r.db_ref().db()) {
                rep.fail_check(kind, "replica digest differs from primary".into());
            }
        }
        Some(t)
    }

    fn checkpoint(&mut self, rep: &mut Report, node: &mut Node<E::T>) {
        let pdb = match node {
            Node::Single(pdb) => pdb,
            Node::Pair(pair) => pair.0.db(),
        };
        let mut t = 0.0;
        let r = timed(&mut t, || pdb.checkpoint());
        if !self.traced {
            rep.ops_done += 1;
            rep.timed_s += t / 1e6;
        }
        if let Some(l) = self.traced_layers(rep) {
            l.checkpoint_ms.push(t / 1e3);
            let mut t = 0.0;
            let state = timed(&mut t, || pdb.db().export_state());
            l.export_ms.push(t / 1e3);
            drop(state);
        }
        rep.tally.record("checkpoint", r.is_ok());
    }

    /// Restart the node(s) `restarts` times. A single node is dropped and
    /// reopened from its files; the replicated workload attaches a fresh,
    /// empty replica that catches up to the primary's head. Each restart
    /// is timed until the node has served one read; its digest is then
    /// checked.
    fn restarts(&mut self, rep: &mut Report, node: Node<E::T>) {
        match node {
            Node::Single(mut pdb) => {
                let synced = pdb.sync().map_err(|e| e.to_string());
                let digest = pdb.state_digest();
                drop(pdb);
                if let Err(e) = synced {
                    rep.tally.record("restart", false);
                    rep.failures.push(format!("restart: {e}"));
                    return;
                }
                if self.cfg.workload == Workload::DurableIngest {
                    rep.replays
                        .push((std::mem::take(&mut self.committed), digest));
                }
                let path = self.dir.join("primary").join("node.log");
                for i in 0..self.cfg.scale.restarts {
                    let vfs = self.env.vfs();
                    let mut t = 0.0;
                    let served = timed(&mut t, || {
                        PersistentDatabase::open_with(Arc::clone(&vfs), &path)
                    })
                    .map_err(|e| e.to_string())
                    .and_then(|pdb| {
                        let rows = timed(&mut t, || {
                            table(ReplicaSession::new().run(pdb.db(), COUNT_ALL))
                        })?;
                        Ok((pdb, rows))
                    });
                    if !self.traced {
                        rep.recovery_ms.push(t / 1e3);
                    }
                    let (pdb, rows) = match served {
                        Ok(x) => x,
                        Err(e) => {
                            rep.tally.record("restart", false);
                            rep.failures.push(format!("restart: {e}"));
                            continue;
                        }
                    };
                    rep.tally.record("restart", true);
                    if let Err(e) = self.check_restart(pdb.db(), &rows, digest, i == 0) {
                        rep.fail_check("restart", e);
                    }
                    if self.traced {
                        self.trace_recovery(rep, &vfs, &path, &pdb);
                    }
                }
            }
            Node::Pair(pair) => {
                let (primary, replica) = *pair;
                drop(replica);
                let (mut pdb, term, _) = primary.into_parts();
                let digest = pdb.state_digest();
                for i in 0..self.cfg.scale.restarts {
                    let rdir = self.dir.join(format!("restart-{i}"));
                    let (pt, rt) = self.env.link();
                    let (mut t, mut catchup_us) = (0.0, 0.0);
                    let mut p = timed(&mut t, || Primary::new(pdb, term, pt));
                    let served = timed(&mut t, || open(self.env.vfs(), &rdir)).and_then(|fresh| {
                        let mut r = timed(&mut t, || Replica::new(fresh, rt));
                        catchup_us = catch_up(&mut p, &mut r)?;
                        t += catchup_us;
                        let rows = timed(&mut t, || {
                            let view = r.read_view(0).map_err(|e| e.to_string())?;
                            table(ReplicaSession::new().run(view, COUNT_ALL))
                        })?;
                        Ok((r, rows))
                    });
                    if !self.traced {
                        rep.recovery_ms.push(t / 1e3);
                    }
                    match served {
                        Ok((r, rows)) => {
                            rep.tally.record("restart", true);
                            if let Err(e) =
                                self.check_restart(r.db_ref().db(), &rows, digest, false)
                            {
                                rep.fail_check("restart", e);
                            }
                            if let Some(l) = self.traced_layers(rep) {
                                l.catchup_ms.push(catchup_us / 1e3);
                            }
                        }
                        Err(e) => {
                            rep.tally.record("restart", false);
                            rep.failures.push(format!("restart: {e}"));
                        }
                    }
                    (pdb, _, _) = p.into_parts();
                }
            }
        }
    }

    /// A restarted node must serve the end-of-round state: digest equal
    /// to the node's before the restart, the right object count, and —
    /// once per round — a consistent database. (`durable_ingest`'s
    /// core-API replay is compared after the run: `replay_checks`.)
    fn check_restart(
        &self,
        db: &Database,
        rows: &QueryResult,
        digest: u64,
        full_check: bool,
    ) -> Result<(), String> {
        if digest_database(db) != digest {
            return Err("restarted digest differs from the pre-restart state".into());
        }
        let want = vec![vec![Value::Int(self.model.len() as i64)]];
        if rows.rows != want {
            return Err(format!("served {:?}, model expects {want:?}", rows.rows));
        }
        if full_check && !db.check_database().is_consistent() {
            return Err("check_database reports inconsistencies".into());
        }
        Ok(())
    }

    /// The traced decomposition of a reopen, timed after it: snapshot
    /// load, state import, log scan, digest, export, and the replayed
    /// suffix length.
    fn trace_recovery(
        &self,
        rep: &mut Report,
        vfs: &Arc<dyn Vfs>,
        path: &Path,
        pdb: &PersistentDatabase,
    ) {
        let (mut load, mut scan, mut digest, mut export) = (0.0, 0.0, 0.0, 0.0);
        let snap = timed(&mut load, || load_snapshot(vfs, &snapshot_path(path)));
        let import = snap.ok().map(|s| {
            let mut t = 0.0;
            let db = timed(&mut t, || Database::import_state(s.state));
            drop(db);
            t
        });
        drop(timed(&mut scan, || pdb.scan_log()));
        std::hint::black_box(timed(&mut digest, || digest_database(pdb.db())));
        drop(timed(&mut export, || pdb.db().export_state()));
        let l = layers(rep);
        l.snapshot_load_ms.push(load / 1e3);
        if let Some(t) = import {
            l.import_ms.push(t / 1e3);
        }
        l.log_scan_ms.push(scan / 1e3);
        l.digest_ms.push(digest / 1e3);
        l.export_ms.push(export / 1e3);
        l.replayed_ops.push(pdb.recovered_replayed() as f64);
    }
}

/// Timings of one commit's layers.
#[derive(Default)]
struct Laps {
    engine_us: f64,
    sync_us: f64,
    primary_pump: Samples,
    replica_pump: Samples,
    replica_sync_us: f64,
}

impl Laps {
    /// The commit's time: the sum of its calls' times (µs).
    fn total(&self) -> f64 {
        self.engine_us
            + self.sync_us
            + self.primary_pump.sum()
            + self.replica_pump.sum()
            + self.replica_sync_us
    }
}

/// The engine part of a commit: the mutator or `txn` call, then `sync`.
fn engine_commit(
    pdb: &mut PersistentDatabase,
    steps: &[Step],
    txn: bool,
    laps: &mut Laps,
) -> Result<(), String> {
    timed(&mut laps.engine_us, || {
        if txn {
            pdb.txn(|tx| {
                let mut got = Vec::with_capacity(steps.len());
                for s in steps {
                    got.push(s.apply(tx)?);
                }
                Ok(got)
            })
            .map_err(|e| e.to_string())
            .and_then(|got| steps.iter().zip(got).try_for_each(|(s, g)| s.check_oid(g)))
        } else {
            steps[0].apply_checked(pdb)
        }
    })?;
    timed(&mut laps.sync_us, || pdb.sync().map_err(|e| e.to_string()))
}

/// Pump primary and replica until the replica has applied everything the
/// primary holds, then sync the replica.
fn replicate<T: Transport>(
    p: &mut Primary<T>,
    r: &mut Replica<T>,
    laps: &mut Laps,
) -> Result<(), String> {
    let head = p.db_ref().op_count() as u64;
    for _ in 0..16 {
        let (mut primary, mut replica) = (0.0, 0.0);
        timed(&mut primary, || p.pump()).map_err(|e| e.to_string())?;
        timed(&mut replica, || r.pump()).map_err(|e| e.to_string())?;
        laps.primary_pump.push(primary);
        laps.replica_pump.push(replica);
        if r.applied() >= head {
            return timed(&mut laps.replica_sync_us, || r.sync()).map_err(|e| e.to_string());
        }
    }
    Err(format!("replica stuck at {} of {head}", r.applied()))
}

/// Pump until `r` has applied the primary's head (set-up and restarts).
/// Returns the time it took (µs).
fn catch_up<T: Transport>(p: &mut Primary<T>, r: &mut Replica<T>) -> Result<f64, String> {
    let mut laps = Laps::default();
    replicate(p, r, &mut laps)?;
    Ok(laps.total())
}
