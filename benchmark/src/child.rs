//! Running one child process to completion with its wall time and peak
//! resident set, under a scrubbed environment and confined to one
//! processor.

use std::ffi::{c_int, c_long};
use std::io::Read;
use std::os::unix::process::{CommandExt, ExitStatusExt};
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

/// What a finished child left behind.
pub struct ChildRun {
    /// Everything it wrote to stdout.
    pub stdout: String,
    /// Its exit status.
    pub status: ExitStatus,
    /// Spawn to reaped exit, seconds.
    pub wall_s: f64,
    /// `ru_maxrss` of the child, MiB.
    pub peak_rss_mib: f64,
}

/// `struct rusage` on LP64 Linux: two `timeval`s, then fourteen `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: [c_long; 2],
    ru_stime: [c_long; 2],
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

/// `cpu_set_t`: 1024 processors, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
}

/// The highest-numbered processor this process may run on: the one every
/// measured child is confined to (the lowest takes most of the kernel's
/// housekeeping).
pub fn measurement_cpu() -> std::io::Result<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t` of the size passed;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    set.iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| 64 * i + 63 - word.leading_zeros() as usize)
        .ok_or_else(|| std::io::Error::other("empty processor affinity mask"))
}

/// The set that holds `cpu` alone.
fn only(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// Runs `f` with the calling thread, and every thread it starts meanwhile,
/// confined to processor `cpu`: the in-process counterpart of [`confine`],
/// for the layer replay that is held against a confined run's clock.
pub fn on_cpu<R>(cpu: usize, f: impl FnOnce() -> R) -> std::io::Result<R> {
    let size = std::mem::size_of::<CpuSet>();
    let mut before: CpuSet = [0; 16];
    // SAFETY: both sets are live `cpu_set_t`s of the size passed, `before`
    // writable; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut before) } != 0
        || unsafe { sched_setaffinity(0, size, &only(cpu)) } != 0
    {
        return Err(std::io::Error::last_os_error());
    }
    let out = f();
    // SAFETY: as above; `before` is the mask this thread had.
    if unsafe { sched_setaffinity(0, size, &before) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(out)
}

/// Confines the process `cmd` will start, and every thread and process it
/// starts in turn, to processor `cpu`. Two ranks or two FACT threads then
/// share one processor — oversubscribed by construction — and what they
/// cost is their instruction path and their context switches, not how far
/// apart and how promptly the host happens to schedule two virtual
/// processors, which on a shared host swings end-to-end rates severalfold
/// from minute to minute (README, "Steadiness").
pub fn confine(cmd: &mut Command, cpu: usize) {
    let set = only(cpu);
    // SAFETY: the closure runs in the forked child before exec and makes one
    // system call on memory it owns, which is async-signal-safe; it
    // allocates nothing and takes no lock.
    unsafe {
        cmd.pre_exec(move || {
            if sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) != 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        });
    }
}

/// Removes every `RHPL_*` variable from the child's environment: the
/// program's switches (transport, mailbox, kernel, element, timeouts, trace
/// slow-downs, launch plumbing) must come from the workload alone.
pub fn scrub_env(cmd: &mut Command) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RHPL_") {
            cmd.env_remove(key);
        }
    }
}

/// Runs `cmd` (stdout captured, stderr inherited) and reaps it with
/// `wait4`, so the peak RSS is this child's own rather than the maximum
/// over every child so far that `getrusage(RUSAGE_CHILDREN)` reports.
pub fn run(mut cmd: Command) -> std::io::Result<ChildRun> {
    cmd.stdin(Stdio::null()).stdout(Stdio::piped());
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    let mut status: c_int = 0;
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    let pid = c_int::try_from(child.id()).expect("pid fits an int");
    // SAFETY: `status` and `ru` are live, writable and of the layout wait4
    // expects on LP64 Linux; `pid` is our own unreaped child, which nothing
    // else waits for (`child` is never waited through std afterwards).
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    let wall_s = t0.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(std::io::Error::last_os_error());
    }
    read?;
    Ok(ChildRun {
        stdout,
        status: ExitStatus::from_raw(status),
        wall_s,
        peak_rss_mib: ru.ru_maxrss as f64 / 1024.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_stdout_status_and_rusage() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo hello; exit 3"]);
        let r = run(cmd).expect("sh runs");
        assert_eq!(r.stdout, "hello\n");
        assert_eq!(r.status.code(), Some(3));
        assert!(r.wall_s > 0.0);
        assert!(r.peak_rss_mib > 0.0);
    }

    #[test]
    fn confined_child_may_run_on_one_processor_only() {
        let cpu = measurement_cpu().expect("affinity is readable");
        let mut cmd = Command::new("sh");
        // The shell's child inherits the mask too.
        cmd.args(["-c", "grep Cpus_allowed_list /proc/self/status"]);
        confine(&mut cmd, cpu);
        let r = run(cmd).expect("sh runs");
        assert_eq!(r.stdout, format!("Cpus_allowed_list:\t{cpu}\n"));
    }

    #[test]
    fn on_cpu_confines_spawned_threads_and_restores_the_mask() {
        let allowed = || {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let line = status.lines().find(|l| l.starts_with("Cpus_allowed_list"));
            line.unwrap().split_whitespace().nth(1).unwrap().to_string()
        };
        let before = allowed();
        let cpu = measurement_cpu().expect("affinity is readable");
        let inside = on_cpu(cpu, || std::thread::spawn(allowed).join().unwrap()).unwrap();
        assert_eq!(inside, cpu.to_string());
        assert_eq!(allowed(), before);
    }

    #[test]
    fn scrub_removes_only_rhpl_switches() {
        std::env::set_var("RHPL_BENCHMARK_TEST_SWITCH", "1");
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            "echo ${RHPL_BENCHMARK_TEST_SWITCH:-unset} ${PATH:+path}",
        ]);
        scrub_env(&mut cmd);
        let r = run(cmd).expect("sh runs");
        assert_eq!(r.stdout, "unset path\n");
    }
}
