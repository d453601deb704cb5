//! Process hygiene and outside-in process measurements.
//!
//! [`NodeProc`] owns one `blockprov-node` child: it is SIGKILLed and reaped
//! on every exit path, its port is ephemeral, and its binary must come from
//! a `release` build directory. [`TempDir`] removes its tree on drop.
//! The `/proc/<pid>/{stat,status,io}` readers are how the harness measures
//! the node's CPU time, peak memory, context switches and I/O counts
//! without any hook inside it.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

// std links libc already; these symbols avoid a registry dependency.
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}
const SIGTERM: i32 = 15;
const SC_CLK_TCK: i32 = 2;

/// The flags every benchmarked node starts with besides `--addr` and
/// `--data-dir`: none, i.e. the node's own defaults (queue 64, finality 16,
/// 4 ingest threads, hot capacity 1024). Recorded in the manifest.
pub const NODE_FLAGS: &str = "--addr 127.0.0.1:0 --data-dir <tmp> (all else default)";

/// Words of a CPU mask: room for 1024 logical CPUs, as glibc's `cpu_set_t`.
const CPU_MASK_WORDS: usize = 16;
type CpuMask = [u64; CPU_MASK_WORDS];

/// The CPUs this process could run on before [`pin_to_first_cpu`].
static ALLOWED_CPUS: std::sync::OnceLock<CpuMask> = std::sync::OnceLock::new();

fn set_own_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is `size_of_val(mask)` bytes long and only read; pid 0
    // is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

fn first_cpu(mask: &CpuMask) -> Option<usize> {
    mask.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

fn only(cpu: usize) -> CpuMask {
    let mut one = [0u64; CPU_MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    one
}

/// Pin the calling thread to the first logical CPU it may run on, and
/// through inheritance every thread and process it starts from now on: the
/// readers, the in-process ledger's pool, every node. Returns the CPUs the
/// run will use — that one, for the probe system, and the next one the
/// process may run on, for the write system ([`move_to`]; the same one
/// twice on a single CPU) — or `None` where the kernel refuses (the run
/// then goes on unpinned).
///
/// With the load generator and a node free to sit on different CPUs of a
/// small guest, a request and its reply each wait for a sleeping virtual
/// CPU to be woken through the hypervisor, and whether they do is up to
/// where the scheduler last left the threads: on the reference container
/// one `GET /tx` then took 30, 45, 80 or 120 us for minutes at a time
/// (README, "Steadiness"). On one CPU the hand-over is a context switch.
/// Each system gets a CPU of its own so that what one of them still does
/// in the background after an acknowledgement (sealing, spilling, write
/// back) does not run into the other's measurements.
pub fn pin_to_first_cpu() -> Option<(usize, usize)> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    // SAFETY: the kernel writes at most `size_of_val(&mask)` bytes into
    // `mask`; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let allowed = *ALLOWED_CPUS.get_or_init(|| mask);
    let first = first_cpu(&allowed)?;
    let mut rest = allowed;
    rest[first / 64] &= !(1 << (first % 64));
    let second = first_cpu(&rest).unwrap_or(first);
    set_own_affinity(&only(first)).then_some((first, second))
}

/// Move the calling thread to `cpu` alone; what it starts from now on
/// starts there too.
pub fn move_to(cpu: usize) {
    set_own_affinity(&only(cpu));
}

/// Logical CPUs the process may use, pinned or not.
pub fn nproc() -> usize {
    match ALLOWED_CPUS.get() {
        Some(allowed) => allowed.iter().map(|w| w.count_ones() as usize).sum(),
        None => std::thread::available_parallelism().map_or(0, usize::from),
    }
}

/// While alive, the calling thread (and what it starts) may use every CPU
/// the process had before [`pin_to_first_cpu`]; dropping it pins again. For
/// the one measurement that is about a second CPU.
pub struct Unpinned(());

impl Unpinned {
    pub fn begin() -> Self {
        if let Some(allowed) = ALLOWED_CPUS.get() {
            set_own_affinity(allowed);
        }
        Unpinned(())
    }
}

impl Drop for Unpinned {
    fn drop(&mut self) {
        if let Some(cpu) = ALLOWED_CPUS.get().and_then(first_cpu) {
            set_own_affinity(&only(cpu));
        }
    }
}

/// A directory under the harness's `out/tmp/`, removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    /// Create `<root>/<pid>-<seq>-<label>`.
    pub fn new(root: &Path, label: &str) -> io::Result<Self> {
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{}-{seq}-{label}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total bytes and file count of the regular files under `dir`.
pub fn dir_usage(dir: &Path) -> io::Result<(u64, u64)> {
    let mut bytes = 0;
    let mut files = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            let (b, f) = dir_usage(&entry.path())?;
            bytes += b;
            files += f;
        } else if meta.is_file() {
            bytes += meta.len();
            files += 1;
        }
    }
    Ok((bytes, files))
}

/// Recursive copy of a directory tree of regular files.
pub fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.metadata()?.is_dir() {
            copy_tree(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), &dest)?;
        }
    }
    Ok(())
}

/// Refuse a node binary that is not inside a `release` directory: the
/// numbers of a debug build are not the system's numbers.
pub fn check_release_binary(path: &Path) -> Result<(), String> {
    if !path.is_file() {
        return Err(format!("node binary {} does not exist", path.display()));
    }
    let in_release = path
        .parent()
        .and_then(Path::file_name)
        .is_some_and(|dir| dir == "release");
    if !in_release {
        return Err(format!(
            "node binary {} is not in a release/ build directory; build it with \
             `cargo build --release -p blockprov-node --bin blockprov-node`",
            path.display()
        ));
    }
    Ok(())
}

/// The period of `blockprov-node`'s shutdown-flag poll (its `main`), and how
/// far ahead of a poll a timed SIGTERM is sent: enough for the signal's
/// delivery and for the poll's own drift over a few periods.
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);
const SHUTDOWN_POLL_LEAD: Duration = Duration::from_millis(8);

/// A running `blockprov-node`. Dropping it SIGKILLs and reaps the child.
pub struct NodeProc {
    child: Child,
    addr: SocketAddr,
    /// When its readiness line arrived.
    listening_at: Instant,
    /// Held open so the node never takes EPIPE on its stdout.
    _stdout: BufReader<ChildStdout>,
}

impl NodeProc {
    /// Spawn the node on an ephemeral port over `data_dir` and wait for its
    /// readiness line. Returns the node and the spawn→listening time.
    pub fn spawn(bin: &Path, data_dir: &Path) -> io::Result<(Self, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => parse_listen_line(&line),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "node did not print its listening line (got {line:?})"
            )));
        };
        Ok((
            Self {
                child,
                addr,
                listening_at: Instant::now(),
                _stdout: stdout,
            },
            started.elapsed(),
        ))
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// How long until the node next looks at its shutdown flag, less a
    /// lead of a few milliseconds.
    ///
    /// The node's main thread polls the flag every [`SHUTDOWN_POLL`] from
    /// the moment it has printed its readiness line, so a SIGTERM waits
    /// between nothing and a whole period for the poll, by the phase it
    /// arrives at and nothing else. A caller that times a shutdown sleeps
    /// this long first: the signal then lands shortly before a poll and the
    /// time is the shutdown's own. (Were the node to stop polling, the
    /// sleep would be a pause and nothing more.)
    pub fn until_shutdown_poll(&self) -> Duration {
        let period = SHUTDOWN_POLL.as_nanos();
        let phase = self.listening_at.elapsed().as_nanos() % period;
        let target = period - SHUTDOWN_POLL_LEAD.as_nanos();
        Duration::from_nanos(((target + period - phase) % period) as u64)
    }

    /// SIGTERM, then wait for the node's drain and clean-shutdown snapshot.
    /// Errors if it does not exit 0.
    pub fn terminate(mut self) -> io::Result<()> {
        // SAFETY: `kill` takes plain integers; the pid is our own live
        // child (not yet reaped, so it cannot have been reused).
        if unsafe { kill(self.child.id() as i32, SIGTERM) } != 0 {
            return Err(io::Error::last_os_error());
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "node exited with {status} on SIGTERM"
                    )))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("node did not exit within 60 s of SIGTERM"));
            }
            std::thread::sleep(Duration::from_micros(250));
        }
    }

    /// SIGKILL and reap: nothing the node buffered in user space survives.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for NodeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `blockprov-node listening on 127.0.0.1:41233` → the address.
pub fn parse_listen_line(line: &str) -> Option<SocketAddr> {
    line.trim()
        .strip_prefix("blockprov-node listening on ")?
        .parse()
        .ok()
}

/// CPU seconds (user, system) of a process from `/proc/<pid>/stat` text.
/// The command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu(stat: &str, ticks_per_s: f64) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3; utime and stime are 14 and 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / ticks_per_s, stime / ticks_per_s))
}

/// Nanoseconds on a CPU from `/proc/<pid>/task/<tid>/schedstat` text
/// (`run_ns wait_ns timeslices`).
pub fn parse_schedstat_run_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// A `Key:   123 kB`-style field of `/proc/<pid>/status` or
/// `/proc/<pid>/io`, as the bare number.
pub fn parse_proc_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k.trim() != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

/// One reading of the counters the harness takes deltas of, or such a
/// delta.
#[derive(Debug, Clone, Default)]
pub struct ProcSample {
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    /// Nanoseconds on a CPU of each live thread `(tid, ns)`, from
    /// `/proc/<pid>/task/*/schedstat`: the scheduler's own clock, where
    /// `cpu_user_s + cpu_sys_s` counts 10 ms ticks, and a slice of a tenth
    /// of a second needs the former. Kept per thread because a thread that
    /// exits takes its count with it: a delta adds up the threads alive at
    /// its end, each since its own earlier reading. Empty in a delta, and
    /// where the kernel keeps no schedstat.
    pub threads_cpu_ns: Vec<(u32, u64)>,
    /// In a reading: nanoseconds of processes already gone (or the tick
    /// count, without schedstat). In a delta: all of it.
    pub cpu_ns_base: u64,
    /// Voluntary + involuntary context switches summed over live threads.
    pub ctxsw: u64,
    /// Bytes passed to write-like syscalls (files and sockets).
    pub wchar: u64,
    pub syscr: u64,
    pub syscw: u64,
}

impl ProcSample {
    pub fn cpu_s(&self) -> f64 {
        self.cpu_user_s + self.cpu_sys_s
    }

    /// Nanoseconds on a CPU, by the scheduler's clock.
    pub fn cpu_ns(&self) -> u64 {
        self.cpu_ns_base + self.threads_cpu_ns.iter().map(|(_, ns)| ns).sum::<u64>()
    }

    /// `self` with `other`'s totals added: two deltas pooled, or a reading
    /// of a live process on top of what its predecessors used.
    pub fn plus(&self, other: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_user_s: self.cpu_user_s + other.cpu_user_s,
            cpu_sys_s: self.cpu_sys_s + other.cpu_sys_s,
            threads_cpu_ns: self.threads_cpu_ns.clone(),
            cpu_ns_base: self.cpu_ns_base + other.cpu_ns(),
            ctxsw: self.ctxsw + other.ctxsw,
            wchar: self.wchar + other.wchar,
            syscr: self.syscr + other.syscr,
            syscw: self.syscw + other.syscw,
        }
    }

    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        let was = |tid: u32| {
            earlier
                .threads_cpu_ns
                .iter()
                .find(|(t, _)| *t == tid)
                .map_or(0, |(_, ns)| *ns)
        };
        let live: u64 = self
            .threads_cpu_ns
            .iter()
            .map(|(tid, ns)| ns.saturating_sub(was(*tid)))
            .sum();
        ProcSample {
            cpu_user_s: self.cpu_user_s - earlier.cpu_user_s,
            cpu_sys_s: self.cpu_sys_s - earlier.cpu_sys_s,
            threads_cpu_ns: Vec::new(),
            cpu_ns_base: self.cpu_ns_base.saturating_sub(earlier.cpu_ns_base) + live,
            ctxsw: self.ctxsw.saturating_sub(earlier.ctxsw),
            wchar: self.wchar.saturating_sub(earlier.wchar),
            syscr: self.syscr.saturating_sub(earlier.syscr),
            syscw: self.syscw.saturating_sub(earlier.syscw),
        }
    }
}

fn ticks_per_s() -> f64 {
    // SAFETY: `sysconf` takes a plain integer and has no preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// Read the counters of `pid` (`0` = this process).
pub fn sample(pid: u32) -> io::Result<ProcSample> {
    let root = if pid == 0 {
        PathBuf::from("/proc/self")
    } else {
        PathBuf::from(format!("/proc/{pid}"))
    };
    let missing =
        |what: &str| io::Error::other(format!("{what} not found under {}", root.display()));
    let stat = std::fs::read_to_string(root.join("stat"))?;
    let (cpu_user_s, cpu_sys_s) =
        parse_stat_cpu(&stat, ticks_per_s()).ok_or_else(|| missing("utime"))?;
    let io_text = std::fs::read_to_string(root.join("io"))?;
    let mut ctxsw = 0;
    let mut threads_cpu_ns = Vec::new();
    // A thread may exit between the directory listing and the read.
    for task in std::fs::read_dir(root.join("task"))?.flatten() {
        if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
            ctxsw += parse_proc_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
                + parse_proc_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
        }
        let tid = task.file_name().to_str().and_then(|t| t.parse().ok());
        let ns = std::fs::read_to_string(task.path().join("schedstat"))
            .ok()
            .and_then(|t| parse_schedstat_run_ns(&t));
        if let (Some(tid), Some(ns)) = (tid, ns) {
            threads_cpu_ns.push((tid, ns));
        }
    }
    Ok(ProcSample {
        cpu_user_s,
        cpu_sys_s,
        cpu_ns_base: if threads_cpu_ns.is_empty() {
            ((cpu_user_s + cpu_sys_s) * 1e9) as u64
        } else {
            0
        },
        threads_cpu_ns,
        ctxsw,
        wchar: parse_proc_field(&io_text, "wchar").ok_or_else(|| missing("wchar"))?,
        syscr: parse_proc_field(&io_text, "syscr").ok_or_else(|| missing("syscr"))?,
        syscw: parse_proc_field(&io_text, "syscw").ok_or_else(|| missing("syscw"))?,
    })
}

/// `(stolen, total)` CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat` text: what the hypervisor ran elsewhere while
/// this guest had work, and everything.
pub fn parse_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // last two are already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// [`parse_stat_steal`] of the live `/proc/stat` (zeros if unreadable).
pub fn machine_steal() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_stat_steal(&s))
        .unwrap_or((0, 0))
}

/// Reset this process's peak-RSS watermark, so that `--repeat` runs in one
/// process each report their own peak. Best effort.
pub fn reset_own_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of `pid` (`0` = this process) in MB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let path = if pid == 0 {
        "/proc/self/status".to_string()
    } else {
        format!("/proc/{pid}/status")
    };
    let status = std::fs::read_to_string(&path)?;
    parse_proc_field(&status, "VmHWM")
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::other(format!("VmHWM not found in {path}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scratch space inside the harness's own ignored `out/` directory.
    fn test_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join("tmp")
    }

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "4242 (block) prov (x)) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 567 0 0 20 0 7 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat, 100.0), Some((12.34, 5.67)));
        assert_eq!(parse_stat_cpu("garbage", 100.0), None);
    }

    #[test]
    fn machine_steal_is_the_eighth_field() {
        let stat =
            "cpu  953440 0 157801 1482194 16494 0 27503 23238 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_stat_steal(stat), Some((23_238, 2_660_670)));
        assert_eq!(parse_stat_steal("intr 1 2 3"), None);
    }

    #[test]
    fn status_and_io_fields() {
        let status = "Name:\tblockprov-node\nVmHWM:\t  170512 kB\nvoluntary_ctxt_switches:\t91\n\
                      nonvoluntary_ctxt_switches:\t9\n";
        assert_eq!(parse_proc_field(status, "VmHWM"), Some(170_512));
        assert_eq!(
            parse_proc_field(status, "voluntary_ctxt_switches"),
            Some(91)
        );
        assert_eq!(
            parse_proc_field(status, "nonvoluntary_ctxt_switches"),
            Some(9)
        );
        assert_eq!(parse_proc_field(status, "VmRSS"), None);
        let io = "rchar: 100\nwchar: 2048\nsyscr: 3\nsyscw: 4\nread_bytes: 0\n";
        assert_eq!(parse_proc_field(io, "wchar"), Some(2048));
        assert_eq!(parse_proc_field(io, "syscw"), Some(4));
    }

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(
            parse_schedstat_run_ns("31987654321 120000 4242\n"),
            Some(31_987_654_321)
        );
        assert_eq!(parse_schedstat_run_ns(""), None);
    }

    #[test]
    fn cpu_deltas_survive_threads_that_exit() {
        let reading = |threads: &[(u32, u64)], base| ProcSample {
            threads_cpu_ns: threads.to_vec(),
            cpu_ns_base: base,
            ..ProcSample::default()
        };
        // Thread 2 ran 900 ns and exited between the readings, thread 3
        // was born and ran 50: only what the survivors and the newborn did
        // since is counted, and nothing goes negative.
        let before = reading(&[(1, 100), (2, 900)], 0);
        let after = reading(&[(1, 160), (3, 50)], 0);
        let delta = after.since(&before);
        assert_eq!(delta.cpu_ns(), 60 + 50);
        assert!(delta.threads_cpu_ns.is_empty());
        // A process that died in between went into the base.
        let restarted = reading(&[(7, 30)], 1_000).since(&before);
        assert_eq!(restarted.cpu_ns(), 1_000 + 30);
        // Pooling deltas adds them.
        assert_eq!(delta.plus(&restarted).cpu_ns(), 110 + 1_030);
    }

    #[test]
    fn own_process_is_readable() {
        let s = sample(0).expect("/proc/self");
        assert!(s.cpu_s() >= 0.0);
        assert!(peak_rss_mb(0).unwrap() > 0.0);
    }

    #[test]
    fn listen_line() {
        assert_eq!(
            parse_listen_line("blockprov-node listening on 127.0.0.1:41233\n"),
            Some("127.0.0.1:41233".parse().unwrap())
        );
        assert_eq!(parse_listen_line("something else"), None);
    }

    #[test]
    fn refuses_a_debug_node_binary() {
        let root = test_root();
        let guard = TempDir::new(&root, "bins").unwrap();
        for profile in ["debug", "release"] {
            let dir = guard.path().join(profile);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("blockprov-node"), b"").unwrap();
        }
        assert!(check_release_binary(&guard.path().join("release/blockprov-node")).is_ok());
        assert!(check_release_binary(&guard.path().join("debug/blockprov-node")).is_err());
        assert!(check_release_binary(&guard.path().join("release/missing")).is_err());
        let kept = guard.path().to_path_buf();
        drop(guard);
        assert!(!kept.exists(), "TempDir removes its tree on drop");
    }

    #[test]
    fn tree_usage_and_copy() {
        let root = test_root();
        let a = TempDir::new(&root, "a").unwrap();
        std::fs::create_dir_all(a.path().join("blocks")).unwrap();
        std::fs::write(a.path().join("blocks/seg-0"), [0u8; 100]).unwrap();
        std::fs::write(a.path().join("MANIFEST"), [0u8; 11]).unwrap();
        assert_eq!(dir_usage(a.path()).unwrap(), (111, 2));
        let b = TempDir::new(&root, "b").unwrap();
        copy_tree(a.path(), b.path()).unwrap();
        assert_eq!(dir_usage(b.path()).unwrap(), (111, 2));
        drop((a, b));
    }
}
