//! The few things the benchmark needs from the operating system that
//! `std` does not offer: thread affinity, CPU-time clocks, and the
//! process's memory high-water mark.

use std::fs;
use std::path::{Path, PathBuf};

/// Words of a `cpu_set_t` (1024 CPUs, the glibc default size).
const CPU_SET_WORDS: usize = 16;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
}

/// The CPUs the calling thread may run on (empty if the call fails).
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte
    // size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1u64 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread (and every thread it spawns afterwards)
/// to `cpus`. Returns whether the kernel accepted the mask.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; CPU_SET_WORDS];
    for &cpu in cpus {
        if cpu >= CPU_SET_WORDS * 64 {
            return false;
        }
        mask[cpu / 64] |= 1u64 << (cpu % 64);
    }
    if cpus.is_empty() {
        return false;
    }
    // SAFETY: `mask` is a live buffer of exactly the byte size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Where the benchmark's threads run: the load generator (and all
/// in-process work) on one CPU, every server thread on another, so the
/// two never compete for a core and the scheduler cannot migrate them.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Every CPU this process may use.
    pub all: Vec<usize>,
    /// CPU of the generator / in-process work (`None`: unpinned).
    pub generator: Option<usize>,
    /// CPU of the server's threads (`None`: unpinned).
    pub server: Option<usize>,
}

impl Topology {
    /// Pins the calling thread to the generator CPU and reserves a
    /// second CPU for the server. With fewer than two usable CPUs, or
    /// when the kernel refuses the mask, everything runs unpinned and a
    /// warning says so.
    pub fn establish() -> Topology {
        let all = allowed_cpus();
        if all.len() >= 2 && set_affinity(&all[..1]) {
            return Topology {
                generator: Some(all[0]),
                server: Some(all[1]),
                all,
            };
        }
        eprintln!(
            "[benchmark] WARNING: cannot pin ({} usable CPU(s)); running unpinned, expect wider spreads",
            all.len()
        );
        Topology {
            all,
            generator: None,
            server: None,
        }
    }

    /// Whether generator and server are confined to separate CPUs.
    pub fn pinned(&self) -> bool {
        self.generator.is_some() && self.server.is_some()
    }

    /// Runs `f` on a fresh thread confined to the server CPU, so every
    /// thread `f` spawns (the server's acceptor, shard, worker and
    /// monitor) inherits that mask.
    pub fn on_server_cpu<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        let cpu = self.server;
        std::thread::scope(|scope| {
            scope
                .spawn(move || {
                    if let Some(cpu) = cpu {
                        if !set_affinity(&[cpu]) {
                            eprintln!("[benchmark] WARNING: server thread could not be pinned");
                        }
                    }
                    f()
                })
                .join()
                .expect("server start thread panicked")
        })
    }

    /// Runs `f` with the calling thread free to use every CPU (parallel
    /// builds), then returns it to the generator CPU.
    pub fn unpinned<R>(&self, f: impl FnOnce() -> R) -> R {
        if self.generator.is_some() {
            set_affinity(&self.all);
        }
        let out = f();
        if let Some(cpu) = self.generator {
            set_affinity(&[cpu]);
        }
        out
    }
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`-layout struct.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Seconds the hypervisor has run something else while a CPU of this
/// machine was runnable (`steal` in `/proc/stat`, all CPUs summed, in
/// ticks of 10 ms). 0 where the kernel does not report it.
pub fn stolen_s() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    text.lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

fn status_kb(key: &str) -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size of this process (`VmRSS`), in MB.
pub fn rss_now_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Number of sockets this process holds open right now.
pub fn open_sockets() -> usize {
    let Ok(dir) = fs::read_dir("/proc/self/fd") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| fs::read_link(e.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count()
}

/// A private directory for the containers one run persists and loads,
/// removed when the guard drops (normal return, error return or panic).
///
/// It lives under the benchmark's own `out/` directory: the benchmark
/// reads and writes only inside its checkout.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<out>/scratch-<pid>`.
    pub fn create(out_dir: &Path) -> std::io::Result<ScratchDir> {
        let path = out_dir.join(format!("scratch-{}", std::process::id()));
        if path.exists() {
            fs::remove_dir_all(&path)?;
        }
        fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Errors are ignored: Drop must not panic, and a leftover
        // directory under `out/` is ignored by git and harmless.
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// The benchmark's output directory (`benchmark/out`), next to its
/// manifest: traces and the scratch directory go here.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
