//! Deployable node entry point: parse flags, start the server, and drain
//! gracefully on SIGTERM/SIGINT (queued ingest batches commit, then the
//! clean-shutdown snapshot is written so the next start is a fast start).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicI32, Ordering};

use blockprov_node::{Node, NodeConfig};

/// Write end of the self-pipe `main` blocks on, stored before the handler
/// below is installed.
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

/// One byte down the pipe wakes `main` the moment the signal lands.
/// `write` is async-signal-safe and an atomic load is lock-free; nothing
/// else may happen here.
extern "C" fn on_signal(_signum: i32) {
    // SAFETY: the fd is the open write end of a pipe this process owns for
    // its lifetime, and the buffer is one readable byte. A full pipe or an
    // error loses nothing: one byte already pending wakes `main`.
    unsafe { write(WAKE_FD.load(Ordering::SeqCst), [1u8].as_ptr(), 1) };
}

// The process links libc through std already; declaring these directly
// avoids a registry dependency for four symbols. Handler installation is
// best-effort — a failed install only costs graceful shutdown.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn pipe(fds: *mut i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Make the self-pipe and point SIGTERM/SIGINT at it; returns the read end.
fn install_signal_pipe() -> std::io::Result<i32> {
    let mut fds = [-1i32; 2];
    // SAFETY: `fds` is the two-element array `pipe` fills.
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    WAKE_FD.store(fds[1], Ordering::SeqCst);
    // SAFETY: `on_signal` is an `extern "C" fn(i32)` that calls only
    // async-signal-safe functions, which is what `signal` requires of a
    // handler; the numbers are this platform's SIGTERM and SIGINT.
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
    }
    Ok(fds[0])
}

/// Block until SIGTERM or SIGINT arrives.
///
/// The handlers go in before the node starts, so a signal at any later
/// point leaves a byte in the pipe and the `read` returns at once; `EINTR`
/// (the handler interrupting the `read` itself) retries and finds that
/// byte.
fn wait_for_signal(read_fd: i32) {
    let mut byte = 0u8;
    loop {
        // SAFETY: `read_fd` is the open read end of the pipe made in
        // `install_signal_pipe`, and `byte` is one writable byte.
        let n = unsafe { read(read_fd, &mut byte, 1) };
        let interrupted =
            n < 0 && std::io::Error::last_os_error().kind() == std::io::ErrorKind::Interrupted;
        if !interrupted {
            return; // the byte, or a pipe error nothing here can outwait
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: blockprov-node [--addr HOST:PORT] [--data-dir DIR] [--queue N] \
         [--finality N] [--hot-capacity N]\n\
         \n\
         --addr           listen address (default 127.0.0.1:7341)\n\
         --data-dir       durable tier root; omit for an in-memory ledger\n\
         --queue          ingest queue bound before 429s (default 64)\n\
         --finality       finality checkpoint depth (default 16)\n\
         --hot-capacity   hot block-cache capacity (default 1024)"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut addr = String::from("127.0.0.1:7341");
    let mut config = NodeConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| match args.next() {
            Some(v) => v,
            None => usage(),
        };
        match flag.as_str() {
            "--addr" => addr = value(&mut args),
            "--data-dir" => config.data_dir = Some(PathBuf::from(value(&mut args))),
            "--queue" => config.queue_capacity = parse(&value(&mut args)),
            "--finality" => config.finality_depth = parse(&value(&mut args)),
            "--hot-capacity" => config.hot_capacity = parse(&value(&mut args)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    let signal_pipe = match install_signal_pipe() {
        Ok(read_fd) => read_fd,
        Err(e) => {
            eprintln!("blockprov-node: failed to start: signal pipe: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut node = match Node::start(&addr, config) {
        Ok(node) => node,
        Err(e) => {
            eprintln!("blockprov-node: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The readiness line scripts wait for (the port resolves 0 → actual).
    println!("blockprov-node listening on {}", node.addr());
    eprintln!(
        "blockprov-node: sha256 kernel {}",
        blockprov_crypto::sha256::kernel()
    );

    wait_for_signal(signal_pipe);

    eprintln!("blockprov-node: draining on signal");
    match node.shutdown() {
        Ok(()) => {
            eprintln!("blockprov-node: clean shutdown (snapshot written)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("blockprov-node: shutdown sync failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> T {
    match s.parse() {
        Ok(v) => v,
        Err(_) => usage(),
    }
}
