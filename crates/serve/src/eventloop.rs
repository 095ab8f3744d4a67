//! Minimal epoll building blocks for the sharded event loop.
//!
//! The serving layer needs exactly four kernel facilities — `epoll` for
//! readiness, `eventfd` for cross-thread wakeups, and `get/setrlimit`
//! to lift the open-file ceiling for connection-scale tests — so they
//! are declared here as direct `extern "C"` syscalls wrappers instead
//! of pulling in a dependency. Everything is wrapped in owning types
//! ([`Poller`], [`Waker`]) whose file descriptors close on drop (via
//! `File::from_raw_fd`), so no raw `close` shim is needed.
//!
//! Linux-only by construction: the rest of the workspace already
//! assumes a Linux target (signal handling, CI).

use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};

const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

/// The kernel's `struct epoll_event`. Packed on x86 (the kernel ABI
/// there is unaligned); naturally aligned elsewhere.
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
#[repr(C)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable (or peer half-closed — read to find out).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error or hangup; the connection is dead or dying.
    pub hangup: bool,
}

/// An owned epoll instance.
pub struct Poller {
    epfd: File,
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// Creates the epoll instance with room for `capacity` events per
    /// wait call.
    pub fn new(capacity: usize) -> io::Result<Poller> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            // SAFETY: epoll_create1 returned a fresh, owned descriptor.
            epfd: unsafe { File::from_raw_fd(fd) },
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    fn interest(readable: bool, writable: bool) -> u32 {
        // EPOLLERR/EPOLLHUP are always delivered regardless of the
        // registered mask, so a read-paused connection still learns
        // about a dead peer — pausing reads for backpressure can never
        // leak a connection forever.
        let mut interest = 0;
        if readable {
            interest |= EPOLLIN | EPOLLRDHUP;
        }
        if writable {
            interest |= EPOLLOUT;
        }
        interest
    }

    /// Registers `fd` (level-triggered) under `token`. Read interest is
    /// on from the start; write interest only when `writable`.
    pub fn add(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, Self::interest(true, writable))
    }

    /// Changes the read/write interest of an already registered fd.
    /// Dropping read interest is the event loop's backpressure lever: a
    /// level-triggered readable fd we refuse to drain would otherwise
    /// busy-spin the shard.
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, Self::interest(readable, writable))
    }

    /// Deregisters an fd (must be called before the fd closes when the
    /// connection object outlives interest, harmless otherwise).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` (-1 blocks indefinitely) and appends
    /// ready [`Event`]s to `out`. Returns the number of events.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        let n = loop {
            let ret = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if ret >= 0 {
                break ret as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.buf[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

/// A cross-thread wakeup primitive: an eventfd registered in a shard's
/// poller. Any thread may [`Waker::wake`]; the owning shard drains it.
pub struct Waker {
    fd: File,
}

impl Waker {
    /// Creates a non-blocking eventfd.
    pub fn new() -> io::Result<Waker> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: eventfd returned a fresh, owned descriptor.
        Ok(Waker {
            fd: unsafe { File::from_raw_fd(fd) },
        })
    }

    /// The fd to register in a poller.
    pub fn raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Wakes the poller (coalesces with pending wakes; best-effort).
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&self.fd).write(&one);
    }

    /// Consumes pending wakes so level-triggered polling quiesces.
    /// Returns how many [`Waker::wake`] calls it consumed (the eventfd
    /// counter; 0 when none were pending).
    pub fn drain(&self) -> u64 {
        let mut buf = [0u8; 8];
        match (&self.fd).read(&mut buf) {
            Ok(8) => u64::from_ne_bytes(buf),
            _ => 0,
        }
    }
}

/// Best-effort raise of the open-file soft limit towards `target`
/// (capped by the hard limit). Returns the resulting soft limit. Used
/// by connection-scale tests; the server itself never calls this.
pub fn raise_nofile_limit(target: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    let want = target.min(lim.max);
    if want > lim.cur {
        let new = RLimit {
            cur: want,
            max: lim.max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
            return want;
        }
        return lim.cur;
    }
    lim.cur
}

/// Env hook read at `spq serve` startup: when set to an integer, the
/// server lowers its own `RLIMIT_NOFILE` soft limit to that value via
/// [`lower_nofile_limit`]. The torture harness's fd-squeeze mode sets
/// it on child servers so descriptor starvation replays from a seed
/// without the parent needing `prlimit` shims.
pub const FD_LIMIT_ENV: &str = "SPQ_FD_LIMIT";

/// Lowers the open-file soft limit to `target` (never below 8, never
/// above the current soft limit). Returns the resulting soft limit.
/// The fd-squeeze fault mode uses this so a child server can starve
/// *itself* of descriptors deterministically, without the parent
/// needing `prlimit` shims.
pub fn lower_nofile_limit(target: u64) -> u64 {
    let mut lim = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    let want = target.max(8).min(lim.cur);
    if want < lim.cur {
        let new = RLimit {
            cur: want,
            max: lim.max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
            return want;
        }
    }
    lim.cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn poller_reports_socket_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut poller = Poller::new(8).unwrap();
        poller.add(server_side.as_raw_fd(), 42, false).unwrap();

        // Nothing to read yet: a zero-timeout wait stays empty.
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 42 || !e.readable));

        client.write_all(b"hello").unwrap();
        let mut events = Vec::new();
        let t0 = Instant::now();
        while events.is_empty() {
            poller.wait(&mut events, 100).unwrap();
            assert!(t0.elapsed().as_secs() < 5, "readability never reported");
        }
        assert!(events.iter().any(|e| e.token == 42 && e.readable));

        // Write interest toggles on via modify.
        poller
            .modify(server_side.as_raw_fd(), 42, true, true)
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 100).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.writable));

        // Backpressure: dropping read interest silences the (still
        // unread) "hello" bytes — the level-triggered fd must stop
        // reporting readable until interest is restored.
        poller
            .modify(server_side.as_raw_fd(), 42, false, false)
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 50).unwrap();
        assert!(
            events.iter().all(|e| !e.readable && !e.writable),
            "paused fd must go quiet: {events:?}"
        );
        poller
            .modify(server_side.as_raw_fd(), 42, true, false)
            .unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 100).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.readable));
        poller.delete(server_side.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_wakes_across_threads_and_coalesces() {
        let mut poller = Poller::new(4).unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.raw_fd(), u64::MAX, false).unwrap();

        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            remote.wake();
            remote.wake(); // coalesces into one readable edge
        });
        let mut events = Vec::new();
        let t0 = Instant::now();
        while events.is_empty() {
            poller.wait(&mut events, 100).unwrap();
            assert!(t0.elapsed().as_secs() < 5, "wake never arrived");
        }
        handle.join().unwrap();
        assert!(events.iter().any(|e| e.token == u64::MAX && e.readable));
        waker.drain();
        // Drained: the level-triggered fd goes quiet.
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "drain must quiesce the waker");
    }

    #[test]
    fn nofile_limit_is_reported() {
        let now = raise_nofile_limit(0);
        assert!(now > 0, "every process has a nonzero nofile limit");
        // Raising towards the current value is a no-op, not an error.
        assert!(raise_nofile_limit(now) >= now.min(1024));
        // Lowering towards a target at/above the current soft limit is
        // a no-op (a *real* squeeze would starve this whole test
        // process of fds, so only the clamp is exercised here; the
        // torture harness squeezes real child processes).
        assert_eq!(lower_nofile_limit(u64::MAX), raise_nofile_limit(0));
    }
}
