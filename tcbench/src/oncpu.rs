//! How the benchmark times an interval: by the CPU time the process
//! spent in it, unless the calling thread blocked.
//!
//! On a shared virtual host the hypervisor now and then runs another
//! guest on this guest's CPU ("steal" time), and how much it steals moves
//! with the neighbours, from under 1% to over 25% of a CPU within the
//! same hour. A wall clock charges every stolen microsecond to whatever
//! the program was doing, so figures from the same code moved with the
//! host: the slowest reads, which a 99th percentile is made of, lost the
//! most. Linux keeps steal out of a task's CPU time, so an interval in
//! which the thread never blocked is timed by the process's CPU time: the
//! same figure the wall clock gives on a host that steals nothing. An
//! interval in which the thread blocked — on `fdatasync`, other I/O, a
//! page fault served from disk, or another thread — is timed by the wall
//! clock, since that wait is the program's. The benchmark times a commit
//! call by call (engine call, `sync`, each pump), so the waits stay and
//! the CPU-bound calls between them lose only the steal.

use std::time::Instant;

/// The start of an interval: the wall clock, the process's CPU clock and
/// the calling thread's count of voluntary context switches.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    wall: Instant,
    cpu_ns: u64,
    blocks: i64,
}

impl Mark {
    /// Now.
    pub fn now() -> Mark {
        // CPU clock first and wall clock last, and the reverse at the end
        // of the interval, so the CPU interval encloses the wall interval.
        let (cpu_ns, blocks) = (process_cpu_ns(), voluntary_switches());
        Mark {
            wall: Instant::now(),
            cpu_ns,
            blocks,
        }
    }

    /// Microseconds since this mark: the process's CPU time if the
    /// calling thread did not block since, else the wall-clock time.
    pub fn us(&self) -> f64 {
        self.us_and_wall().0
    }

    /// [`Mark::us`] and the wall-clock microseconds since this mark.
    pub fn us_and_wall(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64() * 1e6;
        let (cpu_ns, blocks) = (process_cpu_ns(), voluntary_switches());
        if blocks != self.blocks {
            return (wall, wall);
        }
        let cpu = cpu_ns.saturating_sub(self.cpu_ns) as f64 / 1e3;
        (cpu.min(wall), wall)
    }
}

/// Run `f`, adding its time ([`Mark::us`], µs) to `acc`.
pub fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let m = Mark::now();
    let r = f();
    *acc += m.us();
    r
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    // ru_maxrss … ru_nivcsw; ru_nvcsw is the 13th.
    counts: [i64; 14],
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_THREAD: i32 = 1;
const NVCSW: usize = 12;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU time of the whole process, every thread (ns; Linux).
fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Voluntary context switches of the calling thread (Linux).
fn voluntary_switches() -> i64 {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        counts: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable rusage.
    let rc = unsafe { getrusage(RUSAGE_THREAD, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_THREAD) failed");
    ru.counts[NVCSW]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_interval_is_its_cpu_time() {
        let m = Mark::now();
        let mut x = 0u64;
        while m.wall.elapsed().as_millis() < 20 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let (t, wall) = m.us_and_wall();
        assert!(t <= wall, "{t} > {wall}");
        assert!(t > 0.5 * wall, "a busy loop held the CPU {t} of {wall} µs");
    }

    #[test]
    fn blocked_interval_is_its_wall_time() {
        let mut acc = 0.0;
        timed(&mut acc, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(acc >= 5000.0, "{acc}");
    }
}
