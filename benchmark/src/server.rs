//! The system under test as a child process: spawn, pin, probe, account,
//! kill.

use crate::http::Conn;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Words in an affinity mask: 1 024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;
/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;
/// Linux's `SCHED_IDLE`: runs only when nothing else wants the CPU.
const SCHED_IDLE: i32 = 5;

/// The CPUs this process may run on, ascending. Empty if the call fails.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and threads or children it creates from
/// now on) to `cpus`. False if the kernel refused.
pub fn pin_self(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte size passed and
    // is only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// How the machine's CPUs are divided between generator and server.
#[derive(Debug, Clone)]
pub struct CpuPlan {
    /// CPUs available to the benchmark at start.
    pub nproc: usize,
    /// Lower half: the load generator (and the in-process replays).
    pub generator: Vec<usize>,
    /// Upper half: the server.
    pub server: Vec<usize>,
    /// Both halves are non-empty and the kernel accepted the generator's.
    pub pinned: bool,
}

impl CpuPlan {
    /// Splits the allowed CPUs and pins the calling thread to the lower
    /// half. With one CPU nothing can be separated: `pinned` is false and
    /// both sides share it.
    pub fn apply() -> CpuPlan {
        let cpus = allowed_cpus();
        let nproc = cpus.len().max(1);
        if cpus.len() < 2 {
            return CpuPlan {
                nproc,
                generator: cpus.clone(),
                server: cpus,
                pinned: false,
            };
        }
        let (generator, server) = cpus.split_at(cpus.len() / 2);
        let pinned = pin_self(generator);
        CpuPlan {
            nproc,
            generator: generator.to_vec(),
            server: server.to_vec(),
            pinned,
        }
    }

    /// Closed-loop client connections: half the machine, at least one, so
    /// generator threads never outnumber the generator's CPUs.
    pub fn clients(&self) -> usize {
        (self.nproc / 2).max(1)
    }
}

/// One idle-priority spinning thread per CPU, for as long as the value
/// lives.
///
/// A request in a closed loop wakes the server's CPU, and its reply wakes
/// the generator's. On a virtual machine an idle CPU is halted, and waking
/// it is the *host's* scheduler's work: 20 µs when the host is quiet,
/// several hundred when its other guests are busy, for minutes at a time —
/// on a 100 µs request that was a factor of five between runs of the same
/// code. A CPU that always has something to run is never halted. The
/// spinners run under `SCHED_IDLE`, so whatever else becomes runnable on
/// their CPU preempts them at once and they take nothing from the server or
/// the generator.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts a spinner on each of `cpus`. A thread the kernel refuses to
    /// move to `SCHED_IDLE` or to its CPU ends at once: a spinner at normal
    /// priority would take half a CPU. `Err` says how many did.
    pub fn start(cpus: &[usize]) -> Result<KeepAwake, (KeepAwake, usize)> {
        let stop = Arc::new(AtomicBool::new(false));
        let refused = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let ready = Arc::new(std::sync::Barrier::new(cpus.len() + 1));
        let threads = cpus
            .iter()
            .map(|&cpu| {
                let (stop, refused, ready) = (stop.clone(), refused.clone(), ready.clone());
                std::thread::spawn(move || {
                    let param = 0i32;
                    // SAFETY: `param` is a live `sched_param` (one int, the
                    // priority, 0 for SCHED_IDLE); pid 0 names this thread.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 };
                    let placed = idle && pin_self(&[cpu]);
                    if !placed {
                        refused.fetch_add(1, Ordering::SeqCst);
                    }
                    ready.wait();
                    while placed && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        ready.wait();
        let awake = KeepAwake { stop, threads };
        match refused.load(Ordering::SeqCst) {
            0 => Ok(awake),
            n => Err((awake, n)),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// A spawned `chatiyp serve`, killed (SIGKILL) and reaped on drop so a
/// panic or failed check never leaks a process.
pub struct Serve {
    child: Child,
    drain: Option<JoinHandle<()>>,
    /// The bound address parsed from the listen line.
    pub addr: SocketAddr,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Serve {
    /// Spawns `<bin> serve 0 <args…>` on the plan's server CPUs and waits
    /// for the listen line. The child inherits the affinity this thread
    /// holds at `fork`, so the thread moves to the server's CPUs for the
    /// spawn and back afterwards — no window in which server threads
    /// could start on the generator's side.
    pub fn spawn(bin: &Path, args: &[&str], plan: &CpuPlan) -> io::Result<Serve> {
        if plan.pinned {
            pin_self(&plan.server);
        }
        let spawned = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("0")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn();
        if plan.pinned {
            pin_self(&plan.generator);
        }
        let mut child = child?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = lines
            .next()
            .and_then(Result::ok)
            .and_then(|line| line.rsplit("http://").next()?.trim().parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server printed no listen line",
            ));
        };
        // Keep draining so the server never blocks on a full pipe; the
        // thread ends at EOF, which the kill in `drop` produces.
        let drain = std::thread::spawn(move || for _ in lines {});
        Ok(Serve {
            child,
            drain: Some(drain),
            addr,
            spawned,
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls `GET /healthz` until the first 200 and returns its body.
    pub fn await_ready(&self) -> io::Result<serde_json::Value> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let request = crate::inputs::http_request("GET", "/healthz", "");
        let mut conn = Conn::new(self.addr);
        let mut body = Vec::new();
        loop {
            if let Ok(reply) = conn.send(&request, &mut body) {
                if reply.status == 200 {
                    return serde_json::from_slice(&body)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server never became ready",
                ));
            }
            conn.close();
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// CPU time a process has consumed, from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// User-mode clock ticks.
    pub utime: u64,
    /// Kernel-mode clock ticks.
    pub stime: u64,
}

/// Parses the `utime`/`stime` fields of a `/proc/<pid>/stat` line. The
/// command name sits in parentheses and may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<CpuTicks> {
    let after_comm = &line[line.rfind(')')? + 1..];
    // After the command: state is field 3, utime 14, stime 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    Some(CpuTicks {
        utime: fields.next()?.parse().ok()?,
        stime: fields.next()?.parse().ok()?,
    })
}

/// Reads a live process's CPU ticks.
pub fn cpu_ticks(pid: u32) -> io::Result<CpuTicks> {
    let line = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat(&line).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad stat line"))
}

/// Clock ticks the hypervisor has taken from this machine's CPUs so far
/// (`steal` on the aggregate line of `/proc/stat`): time a vCPU was
/// runnable and not running. 0 where the kernel does not report it.
pub fn stolen_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| parse_steal(&stat))
        .unwrap_or(0)
}

/// The steal column (the eighth value) of `/proc/stat`'s first line.
pub fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().nth(7)?.parse().ok()
}

/// Microseconds per clock tick (`sysconf(_SC_CLK_TCK)`, 100 Hz if unknown).
pub fn tick_us() -> f64 {
    // SAFETY: sysconf takes no pointers and is always safe to call.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    1e6 / if hz > 0 { hz as f64 } else { 100.0 }
}

/// Peak resident set size (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))
}

/// Threads runnable on this machine right now, the caller not counted
/// (`/proc/loadavg`, fourth field). The one-minute average would not do:
/// it still remembers the previous run's [`KeepAwake`] spinners.
pub fn others_running() -> usize {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| {
            let running = s.split_whitespace().nth(3)?.split('/').next()?;
            running.parse::<usize>().ok()
        })
        .unwrap_or(1)
        .saturating_sub(1)
}

/// A scratch directory under `benchmark/out/`, removed on drop. The
/// benchmark writes nowhere outside its checkout.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates (emptying any leftover) `<out>/<name>-<pid>`.
    pub fn create(out: &Path, name: &str) -> io::Result<ScratchDir> {
        let dir = out.join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let plain = "4242 (chatiyp) S 1 4242 4242 0 -1 4194304 523 0 0 0 \
                     137 29 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(
            parse_stat(plain),
            Some(CpuTicks {
                utime: 137,
                stime: 29
            })
        );
        // A name with spaces and a closing parenthesis shifts nothing.
        let hostile = "4242 (my srv) 1 2) R 1 4242 4242 0 -1 4194304 523 0 0 0 \
                       9001 77 0 0 20 0 7 0 123456 1000000 2000 18446744073709551615";
        assert_eq!(
            parse_stat(hostile),
            Some(CpuTicks {
                utime: 9001,
                stime: 77
            })
        );
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn steal_is_the_eighth_column() {
        let stat =
            "cpu  415658 0 48248 1109076 5104 0 39741 25075 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(25075));
        assert_eq!(parse_steal("cpu0 1 2 3 4 5 6 7 8 9 10\n"), None);
        assert_eq!(parse_steal("cpu  1 2 3\n"), None);
    }

    #[test]
    fn spinners_start_at_idle_priority_and_stop_on_drop() {
        let cpus = allowed_cpus();
        let t0 = Instant::now();
        let awake = KeepAwake::start(&cpus).unwrap_or_else(|(awake, _)| awake);
        assert_eq!(awake.threads.len(), cpus.len());
        drop(awake);
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_ticks(pid).is_ok());
        assert!(peak_rss_mb(pid).unwrap() > 0.5);
        assert!(tick_us() > 0.0);
        assert!(!allowed_cpus().is_empty());
    }
}
