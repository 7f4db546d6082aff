//! The HR data set, its operation streams and the benchmark's own model.
//!
//! Schema: `person ⊇ employee ⊇ manager`, with a temporal `salary`,
//! `dept` and `boss` (a reference to an employee) on `employee`. The
//! seeded history and every timed operation are generated here from the
//! run's `--seed`; the same seed always yields the same inputs.
//!
//! [`Model`] is a plain re-statement of the data — per-oid runs of salary,
//! dept and boss values and of the class an object belongs to — built
//! from the same generated steps without touching the T_Chimera crates.
//! Query results are checked against it.

use std::collections::BTreeSet;

use tchimera_core::{
    attrs, Attrs, ClassDef, ClassId, Database, Instant, ModelError, Oid, Type, Value,
};
use tchimera_storage::{EngineError, PersistentDatabase, Transaction};

/// A small deterministic generator (splitmix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`; `stream` separates independent
    /// uses of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `true` with probability `percent / 100`.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Uniform element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// The two classes objects are created in or migrate between.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cls {
    /// `employee`.
    Employee,
    /// `manager` (a subclass of `employee`).
    Manager,
}

impl Cls {
    fn id(self) -> ClassId {
        ClassId::from(match self {
            Cls::Employee => "employee",
            Cls::Manager => "manager",
        })
    }
}

/// Instants between two steps of the seeded history.
pub const STEP_T: u64 = 10;
/// Lowest salary drawn.
pub const SALARY_LO: i64 = 1000;
/// One past the highest salary drawn.
pub const SALARY_HI: i64 = 9000;

/// One mutation, in the benchmark's own terms.
#[derive(Clone, Debug)]
pub enum Step {
    /// Define the three HR classes.
    Schema,
    /// Move the clock to the given instant.
    Advance(u64),
    /// Create an object; `oid` is the identifier the database must assign.
    Create {
        oid: u64,
        class: Cls,
        salary: i64,
        dept: u32,
        boss: Option<u64>,
    },
    /// Set the salary of an object.
    Salary(u64, i64),
    /// Set the department of an object.
    Dept(u64, u32),
    /// Set the boss of an object.
    Boss(u64, u64),
    /// Migrate an object to another class.
    Migrate(u64, Cls),
}

/// Department name for index `d`.
pub fn dept_name(d: u32) -> String {
    format!("d{d}")
}

/// Anything the steps can be applied to: the durable engine, a
/// transaction handle, or a bare core `Database`.
pub trait Mutator {
    /// The error the target reports.
    type E: std::fmt::Display;
    /// Define a class.
    fn define(&mut self, def: ClassDef) -> Result<(), Self::E>;
    /// Move the clock.
    fn advance(&mut self, t: u64) -> Result<(), Self::E>;
    /// Create an object, returning the assigned oid.
    fn create(&mut self, class: &ClassId, init: Attrs) -> Result<Oid, Self::E>;
    /// Set one attribute.
    fn set(&mut self, oid: Oid, attr: &str, v: Value) -> Result<(), Self::E>;
    /// Migrate an object.
    fn migrate(&mut self, oid: Oid, to: &ClassId) -> Result<(), Self::E>;
}

macro_rules! mutator_impl {
    ($t:ty, $e:ty) => {
        impl Mutator for $t {
            type E = $e;
            fn define(&mut self, def: ClassDef) -> Result<(), $e> {
                self.define_class(def)
            }
            fn advance(&mut self, t: u64) -> Result<(), $e> {
                self.advance_to(Instant(t)).map(|_| ())
            }
            fn create(&mut self, class: &ClassId, init: Attrs) -> Result<Oid, $e> {
                self.create_object(class, init)
            }
            fn set(&mut self, oid: Oid, attr: &str, v: Value) -> Result<(), $e> {
                self.set_attr(oid, &attr.into(), v)
            }
            fn migrate(&mut self, oid: Oid, to: &ClassId) -> Result<(), $e> {
                self.migrate(oid, to, Attrs::new())
            }
        }
    };
}

mutator_impl!(PersistentDatabase, EngineError);
mutator_impl!(Transaction, EngineError);
mutator_impl!(Database, ModelError);

impl Step {
    /// Apply this step through `m`; a create returns the oid the target
    /// assigned (see [`Step::check_oid`]).
    pub fn apply<M: Mutator + ?Sized>(&self, m: &mut M) -> Result<Option<Oid>, M::E> {
        match *self {
            Step::Schema => {
                m.define(
                    ClassDef::new("person").immutable_attr("name", Type::temporal(Type::STRING)),
                )?;
                m.define(
                    ClassDef::new("employee")
                        .isa("person")
                        .attr("salary", Type::temporal(Type::INTEGER))
                        .attr("dept", Type::temporal(Type::STRING))
                        .attr("boss", Type::temporal(Type::object("employee"))),
                )?;
                m.define(ClassDef::new("manager").isa("employee"))?;
            }
            Step::Advance(t) => m.advance(t)?,
            Step::Create {
                oid,
                class,
                salary,
                dept,
                boss,
            } => {
                let boss = boss.map_or(Value::Null, |b| Value::Oid(Oid(b)));
                let got = m.create(
                    &class.id(),
                    attrs([
                        ("name", Value::str(format!("p{oid}"))),
                        ("salary", Value::Int(salary)),
                        ("dept", Value::str(dept_name(dept))),
                        ("boss", boss),
                    ]),
                )?;
                return Ok(Some(got));
            }
            Step::Salary(o, v) => m.set(Oid(o), "salary", Value::Int(v))?,
            Step::Dept(o, d) => m.set(Oid(o), "dept", Value::str(dept_name(d)))?,
            Step::Boss(o, b) => m.set(Oid(o), "boss", Value::Oid(Oid(b)))?,
            Step::Migrate(o, c) => m.migrate(Oid(o), &c.id())?,
        }
        Ok(None)
    }

    /// `Err` if a create was assigned another oid than the one the
    /// generator (and so the model) expects.
    pub fn check_oid(&self, got: Option<Oid>) -> Result<(), String> {
        match (self, got) {
            (Step::Create { oid, .. }, Some(g)) if g.0 != *oid => {
                Err(format!("created {g}, expected oid {oid}"))
            }
            _ => Ok(()),
        }
    }

    /// Apply through `m` and check the assigned oid, as one string-error
    /// result.
    pub fn apply_checked<M: Mutator + ?Sized>(&self, m: &mut M) -> Result<(), String> {
        let got = self.apply(m).map_err(|e| e.to_string())?;
        self.check_oid(got)
    }
}

/// Value runs: `(start instant, value)`, starts strictly increasing.
#[derive(Clone, Debug)]
struct Runs<V>(Vec<(u64, V)>);

impl<V> Default for Runs<V> {
    fn default() -> Self {
        Runs(Vec::new())
    }
}

impl<V: Clone + PartialEq> Runs<V> {
    fn set(&mut self, t: u64, v: V) {
        match self.0.last_mut() {
            Some((s, old)) if *s == t => *old = v,
            _ => self.0.push((t, v)),
        }
    }

    fn at(&self, t: u64) -> Option<&V> {
        let k = self.0.partition_point(|(s, _)| *s <= t);
        k.checked_sub(1).map(|i| &self.0[i].1)
    }

    fn last(&self) -> Option<&V> {
        self.0.last().map(|(_, v)| v)
    }
}

#[derive(Clone, Debug)]
struct ObjModel {
    created: u64,
    class: Runs<Cls>,
    salary: Runs<i64>,
    dept: Runs<u32>,
}

/// The benchmark's own statement of the HR data: what every query should
/// return, computed without the T_Chimera crates.
#[derive(Clone, Debug, Default)]
pub struct Model {
    now: u64,
    objs: Vec<ObjModel>,
}

impl Model {
    /// Fold one step into the model.
    pub fn apply(&mut self, step: &Step) {
        let now = self.now;
        match *step {
            Step::Schema => {}
            Step::Advance(t) => self.now = t,
            Step::Create {
                oid,
                class,
                salary,
                dept,
                ..
            } => {
                debug_assert_eq!(oid as usize, self.objs.len());
                let mut o = ObjModel {
                    created: now,
                    class: Runs::default(),
                    salary: Runs::default(),
                    dept: Runs::default(),
                };
                o.class.set(now, class);
                o.salary.set(now, salary);
                o.dept.set(now, dept);
                self.objs.push(o);
            }
            Step::Salary(o, v) => self.objs[o as usize].salary.set(now, v),
            Step::Dept(o, d) => self.objs[o as usize].dept.set(now, d),
            Step::Boss(..) => {}
            Step::Migrate(o, c) => self.objs[o as usize].class.set(now, c),
        }
    }

    /// Number of objects created.
    pub fn len(&self) -> usize {
        self.objs.len()
    }

    /// `true` before the first object exists.
    pub fn is_empty(&self) -> bool {
        self.objs.is_empty()
    }

    fn alive_at(&self, o: &ObjModel, t: u64) -> bool {
        o.created <= t && t <= self.now
    }

    /// Expected rows of `select e.salary, e.dept from employee e as of t
    /// where e = #oid` (`t = None` for now).
    pub fn point(&self, oid: u64, t: Option<u64>) -> Vec<Vec<Value>> {
        let t = t.unwrap_or(self.now);
        let Some(o) = self.objs.get(oid as usize) else {
            return Vec::new();
        };
        if !self.alive_at(o, t) {
            return Vec::new();
        }
        let s = *o.salary.at(t).expect("salary set at creation");
        let d = *o.dept.at(t).expect("dept set at creation");
        vec![vec![Value::Int(s), Value::str(dept_name(d))]]
    }

    /// Expected `count(e)` of employees currently in department `d`.
    pub fn dept_count(&self, d: u32) -> i64 {
        self.objs
            .iter()
            .filter(|o| o.dept.last() == Some(&d))
            .count() as i64
    }

    /// Expected oids (ascending) of employees whose current salary
    /// exceeds `x`.
    pub fn salary_above(&self, x: i64) -> Vec<u64> {
        (0..self.objs.len() as u64)
            .filter(|&i| self.objs[i as usize].salary.last().is_some_and(|&s| s > x))
            .collect()
    }

    /// Expected `count(m)` of managers as of `t`.
    pub fn managers_at(&self, t: u64) -> i64 {
        self.objs
            .iter()
            .filter(|o| self.alive_at(o, t) && o.class.at(t) == Some(&Cls::Manager))
            .count() as i64
    }

    /// Current managers, ascending.
    pub fn managers_now(&self) -> Vec<u64> {
        (0..self.objs.len() as u64)
            .filter(|&i| self.objs[i as usize].class.last() == Some(&Cls::Manager))
            .collect()
    }
}

/// Sizes of a seeded HR history.
#[derive(Clone, Copy, Debug)]
pub struct HrSize {
    /// Objects created as plain employees.
    pub employees: u64,
    /// Objects created as managers.
    pub managers: u64,
    /// History steps after creation (each `STEP_T` instants apart).
    pub steps: u64,
    /// Number of departments.
    pub depts: u32,
}

/// Tracks what the generator needs to emit valid steps: the clock, the
/// next oid and the current managers.
#[derive(Clone, Debug)]
pub struct GenState {
    /// The clock after the last emitted step.
    pub now: u64,
    /// Oid the next create will receive.
    pub next_oid: u64,
    /// Current managers.
    pub managers: Vec<u64>,
    /// Number of departments.
    pub depts: u32,
}

impl GenState {
    fn salary(&self, rng: &mut Rng) -> i64 {
        SALARY_LO + rng.below((SALARY_HI - SALARY_LO) as u64) as i64
    }

    /// A random single-op mutation of the live state (no clock moves).
    pub fn random_set(&mut self, rng: &mut Rng) -> Step {
        let oid = rng.below(self.next_oid);
        match rng.below(100) {
            0..=54 => Step::Salary(oid, self.salary(rng)),
            55..=79 => Step::Dept(oid, rng.below(u64::from(self.depts)) as u32),
            _ => Step::Boss(oid, rng.pick(&self.managers)),
        }
    }

    /// A new employee reporting to a random manager.
    pub fn create(&mut self, rng: &mut Rng) -> Step {
        let oid = self.next_oid;
        self.next_oid += 1;
        Step::Create {
            oid,
            class: Cls::Employee,
            salary: self.salary(rng),
            dept: rng.below(u64::from(self.depts)) as u32,
            boss: Some(rng.pick(&self.managers)),
        }
    }

    /// Advance the clock by one instant.
    pub fn tick(&mut self) -> Step {
        self.now += 1;
        Step::Advance(self.now)
    }
}

/// The seeded history: schema, population, then `steps` rounds of
/// salary, department, boss and class changes. Returns the steps and the
/// generator state after them.
pub fn seed_history(size: HrSize, rng: &mut Rng) -> (Vec<Step>, GenState) {
    let mut g = GenState {
        now: 1,
        next_oid: 0,
        managers: Vec::new(),
        depts: size.depts,
    };
    let mut out = vec![Step::Schema, Step::Advance(1)];
    for _ in 0..size.managers {
        let oid = g.next_oid;
        g.next_oid += 1;
        g.managers.push(oid);
        out.push(Step::Create {
            oid,
            class: Cls::Manager,
            salary: g.salary(rng),
            dept: rng.below(u64::from(size.depts)) as u32,
            boss: None,
        });
    }
    for _ in 0..size.employees {
        out.push(g.create(rng));
    }
    for s in 1..=size.steps {
        g.now = 1 + s * STEP_T;
        out.push(Step::Advance(g.now));
        for oid in 0..g.next_oid {
            if rng.chance(60) {
                out.push(Step::Salary(oid, g.salary(rng)));
            }
            if rng.chance(15) {
                out.push(Step::Dept(oid, rng.below(u64::from(size.depts)) as u32));
            }
            if rng.chance(10) && !g.managers.contains(&oid) {
                out.push(Step::Boss(oid, rng.pick(&g.managers)));
            }
        }
        // A few promotions and demotions per step keep manager
        // membership changing over time.
        for _ in 0..(g.next_oid / 200).max(1) {
            let oid = rng.below(g.next_oid);
            if let Some(k) = g.managers.iter().position(|&m| m == oid) {
                if g.managers.len() > 2 {
                    g.managers.remove(k);
                    out.push(Step::Migrate(oid, Cls::Employee));
                }
            } else {
                g.managers.push(oid);
                out.push(Step::Migrate(oid, Cls::Manager));
            }
        }
    }
    g.managers.sort_unstable();
    (out, g)
}

/// One TCQL read of the benchmark's mix.
#[derive(Clone, Debug)]
pub enum ReadQ {
    /// Point lookup by oid literal, now.
    PointNow(u64),
    /// Point lookup by oid literal, `AS OF t`.
    PointAsOf(u64, u64),
    /// Count of a department (indexed equality), now.
    DeptCount(u32),
    /// Salary range scan, now.
    SalaryAbove(i64),
    /// Employees joined to their boss, restricted to a department.
    BossJoin(u32),
    /// Count of managers `AS OF t`.
    ManagersAsOf(u64),
    /// Department members at some instant of a window.
    DeptDuring(u64, u64, u32),
    /// Top ten salaries (`ORDER BY … LIMIT`).
    TopSalaries(bool),
}

impl ReadQ {
    /// The TCQL text.
    pub fn text(&self) -> String {
        match *self {
            ReadQ::PointNow(o) => format!("select e.salary, e.dept from employee e where e = #{o}"),
            ReadQ::PointAsOf(o, t) => {
                format!("select e.salary, e.dept from employee e as of {t} where e = #{o}")
            }
            ReadQ::DeptCount(d) => {
                format!(
                    "select count(e) from employee e where e.dept = '{}'",
                    dept_name(d)
                )
            }
            ReadQ::SalaryAbove(x) => format!("select e from employee e where e.salary > {x}"),
            ReadQ::BossJoin(d) => format!(
                "select e, m from employee e, manager m where e.boss = m and m.dept = '{}'",
                dept_name(d)
            ),
            ReadQ::ManagersAsOf(t) => format!("select count(m) from manager m as of {t}"),
            ReadQ::DeptDuring(a, b, d) => format!(
                "select e from employee e during [{a}, {b}] where e.dept = '{}'",
                dept_name(d)
            ),
            ReadQ::TopSalaries(desc) => format!(
                "select e, e.salary from employee e order by e.salary {} limit 10",
                if desc { "desc" } else { "asc" }
            ),
        }
    }

    /// The rows the model predicts, or `None` when this read is checked
    /// against the reference evaluator instead.
    pub fn expected(&self, m: &Model) -> Option<Vec<Vec<Value>>> {
        Some(match *self {
            ReadQ::PointNow(o) => m.point(o, None),
            ReadQ::PointAsOf(o, t) => m.point(o, Some(t)),
            ReadQ::DeptCount(d) => vec![vec![Value::Int(m.dept_count(d))]],
            ReadQ::SalaryAbove(x) => m
                .salary_above(x)
                .into_iter()
                .map(|o| vec![Value::Oid(Oid(o))])
                .collect(),
            ReadQ::ManagersAsOf(t) => vec![vec![Value::Int(m.managers_at(t))]],
            ReadQ::BossJoin(_) | ReadQ::DeptDuring(..) | ReadQ::TopSalaries(_) => return None,
        })
    }

    /// Stable label of the read's kind.
    pub fn kind(&self) -> &'static str {
        match self {
            ReadQ::PointNow(_) => "point_now",
            ReadQ::PointAsOf(..) => "point_as_of",
            ReadQ::DeptCount(_) => "dept_count",
            ReadQ::SalaryAbove(_) => "salary_range",
            ReadQ::BossJoin(_) => "boss_join",
            ReadQ::ManagersAsOf(_) => "managers_as_of",
            ReadQ::DeptDuring(..) => "dept_during",
            ReadQ::TopSalaries(_) => "top_salaries",
        }
    }
}

/// Count distinct strings (the plan cache keys on the whole statement).
pub fn distinct_texts<'a>(texts: impl Iterator<Item = &'a str>) -> usize {
    texts.collect::<BTreeSet<_>>().len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn model_runs_answer_by_instant() {
        let mut m = Model::default();
        m.apply(&Step::Advance(1));
        m.apply(&Step::Create {
            oid: 0,
            class: Cls::Employee,
            salary: 10,
            dept: 1,
            boss: None,
        });
        m.apply(&Step::Advance(5));
        m.apply(&Step::Salary(0, 20));
        m.apply(&Step::Migrate(0, Cls::Manager));
        assert_eq!(
            m.point(0, Some(4)),
            vec![vec![Value::Int(10), Value::str("d1")]]
        );
        assert_eq!(
            m.point(0, None),
            vec![vec![Value::Int(20), Value::str("d1")]]
        );
        assert!(m.point(0, Some(0)).is_empty());
        assert_eq!((m.managers_at(4), m.managers_at(5)), (0, 1));
        assert_eq!(m.salary_above(15), vec![0]);
        assert_eq!(m.dept_count(1), 1);
    }

    #[test]
    fn seeded_history_matches_the_database() {
        let mut rng = Rng::new(3, 0);
        let size = HrSize {
            employees: 30,
            managers: 5,
            steps: 4,
            depts: 3,
        };
        let (steps, g) = seed_history(size, &mut rng);
        let mut db = Database::new();
        let mut m = Model::default();
        for s in &steps {
            s.apply_checked(&mut db).unwrap();
            m.apply(s);
        }
        assert_eq!(db.object_count() as u64, g.next_oid);
        assert_eq!(m.managers_now(), g.managers);
        assert!(db.check_database().is_consistent());
    }
}
