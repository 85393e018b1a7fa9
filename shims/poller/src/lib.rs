//! Offline shim: a minimal readiness poller in the spirit of `mio`'s
//! `Poll`, plus best-effort core affinity, with zero external crates.
//!
//! The build environment has no registry access, so — like the other
//! `shims/` crates — this implements the small subset the repo needs
//! directly over the platform's C library, which is already linked by
//! `std` on every unix target:
//!
//! * **Linux**: `epoll_create1` / `epoll_ctl` / `epoll_pwait2`
//!   (level-triggered, O(ready) wakeups, nanosecond timeouts — the
//!   production path). Where the kernel lacks `epoll_pwait2` (< 5.11:
//!   `ENOSYS`), a seccomp profile refuses it (`EPERM`), or this target's
//!   syscall number is not listed, the poller falls back for good to
//!   `epoll_wait`, whose timeout is whole milliseconds.
//! * **Other unix**: `poll(2)`, rebuilding the pollfd array from the
//!   registration table on every wait (O(n) per wait, fine for the
//!   fan-outs the tests run at).
//! * **Anything else**: a degraded portable path that reports every
//!   registered source as ready after a short bounded sleep. Callers are
//!   required to use non-blocking sources, so a spurious "ready" costs
//!   one `WouldBlock` — correctness is preserved, only efficiency is
//!   lost.
//!
//! The API contract the event loop relies on (DESIGN.md §15):
//!
//! * Level-triggered: a source that still has readable bytes (or writable
//!   space) is reported again on the next `wait`.
//! * Spurious readiness is allowed; *missed* readiness is not — if a
//!   registered source is ready and its interest includes that direction,
//!   some future `wait` must report it.
//! * `wait` returns early on any event, or after `timeout`, whichever
//!   comes first. A `None` timeout means "sleep until an event".
//! * Timeout granularity: nanoseconds on Linux ≥ 5.11, where a timed-out
//!   `wait` ends at its timeout plus up to the calling thread's timer
//!   slack — 50 µs by default, 1 ns while an [`exact_timers`] guard lives.
//!   On the `epoll_wait` fall-back and the `poll(2)` path it is
//!   milliseconds, and a non-zero timeout under 1 ms is rounded **up** to
//!   1 ms, never down to a busy-spinning zero. On every path a zero
//!   timeout returns without sleeping and a timed-out `wait` never returns
//!   before its timeout.
//!
//! [`bind_to_core`] is the core-binding idiom from the timely/graspan
//! experiments (SNIPPETS.md): pin the calling thread to one CPU so the
//! hot loop stops migrating between caches. It is a silent no-op where
//! the platform offers no affinity call.

use std::io;
use std::marker::PhantomData;
use std::time::Duration;

#[cfg(unix)]
use std::os::fd::RawFd;
#[cfg(not(unix))]
pub type RawFd = i32;

/// What a registration wants to hear about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the source has bytes to read (or a pending accept).
    pub readable: bool,
    /// Wake when the source can accept more written bytes.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the source was registered with.
    pub token: usize,
    /// Readable now (level-triggered; may be spurious).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Peer hung up or the source errored; the owner should read to EOF
    /// and retire it.
    pub hangup: bool,
}

/// A registered source, kept for the poll(2)/fallback paths and for
/// re-registering interest on the epoll path.
#[derive(Debug, Clone, Copy)]
struct Registration {
    fd: RawFd,
    token: usize,
    interest: Interest,
}

/// The readiness poller. One per event loop; not thread-safe by design
/// (the event loop is single-threaded — that is the point).
#[derive(Debug)]
pub struct Poller {
    regs: Vec<Registration>,
    #[cfg(target_os = "linux")]
    epfd: RawFd,
    /// `epoll_pwait2` is unavailable (see the crate docs): set from the
    /// start on an unlisted target, otherwise for good the first time the
    /// call is refused; every wait then takes the millisecond `epoll_wait`
    /// path.
    #[cfg(target_os = "linux")]
    coarse: bool,
}

impl Poller {
    /// Create a poller. Fails only where the OS refuses an epoll instance.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                regs: Vec::new(),
                epfd,
                coarse: !sys::HAS_EPOLL_PWAIT2,
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Ok(Poller { regs: Vec::new() })
        }
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Register `fd` under `token`. Tokens must be unique per live
    /// registration; the fd must already be non-blocking.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        debug_assert!(
            !self.regs.iter().any(|r| r.token == token),
            "token {token} registered twice"
        );
        #[cfg(target_os = "linux")]
        sys::epoll_op(self.epfd, sys::EPOLL_CTL_ADD, fd, token, interest)?;
        self.regs.push(Registration {
            fd,
            token,
            interest,
        });
        Ok(())
    }

    /// Change the interest set of an existing registration.
    pub fn reregister(&mut self, token: usize, interest: Interest) -> io::Result<()> {
        let Some(reg) = self.regs.iter_mut().find(|r| r.token == token) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no registration for token {token}"),
            ));
        };
        if reg.interest == interest {
            return Ok(());
        }
        reg.interest = interest;
        #[cfg(target_os = "linux")]
        {
            let fd = reg.fd;
            sys::epoll_op(self.epfd, sys::EPOLL_CTL_MOD, fd, token, interest)?;
        }
        Ok(())
    }

    /// Remove a registration. Harmless if the token is already gone
    /// (close() on Linux drops the epoll entry on its own).
    pub fn deregister(&mut self, token: usize) {
        if let Some(pos) = self.regs.iter().position(|r| r.token == token) {
            let reg = self.regs.swap_remove(pos);
            #[cfg(target_os = "linux")]
            {
                let _ = sys::epoll_op(
                    self.epfd,
                    sys::EPOLL_CTL_DEL,
                    reg.fd,
                    reg.token,
                    Interest::READ,
                );
            }
            #[cfg(not(target_os = "linux"))]
            let _ = reg;
        }
    }

    /// Block until a registered source is ready or `timeout` passes,
    /// appending reports to `events` (cleared first). Returns the number
    /// of events delivered.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        if self.regs.is_empty() {
            // Nothing to watch: honor the timeout as a plain sleep so the
            // caller's timer wheel still ticks.
            if let Some(t) = timeout {
                std::thread::sleep(t.min(Duration::from_millis(50)));
            }
            return Ok(0);
        }
        #[cfg(target_os = "linux")]
        {
            sys::epoll_wait_into(self.epfd, events, timeout, &mut self.coarse)
        }
        #[cfg(all(unix, not(target_os = "linux")))]
        {
            sys::poll_wait_into(&self.regs, events, timeout)
        }
        #[cfg(not(unix))]
        {
            // Degraded portable path: a bounded sleep, then report every
            // registered interest as ready. Non-blocking sources turn the
            // false positives into cheap WouldBlocks.
            let nap = timeout.unwrap_or(Duration::from_millis(1));
            std::thread::sleep(nap.min(Duration::from_millis(1)));
            for r in &self.regs {
                events.push(Event {
                    token: r.token,
                    readable: r.interest.readable,
                    writable: r.interest.writable,
                    hangup: false,
                });
            }
            Ok(events.len())
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.epfd);
        }
    }
}

/// A timeout for the calls that take whole milliseconds (`epoll_wait`,
/// `poll`): `-1` blocks, and a non-zero wait under 1 ms becomes 1 ms so it
/// sleeps instead of spinning at 0.
#[cfg(unix)]
fn coarse_millis(timeout: Option<Duration>) -> std::os::raw::c_int {
    match timeout {
        None => -1,
        Some(t) => t
            .as_millis()
            .min(i32::MAX as u128)
            .max(u128::from(!t.is_zero())) as std::os::raw::c_int,
    }
}

/// Set the calling thread's timer slack to 1 ns until the returned guard
/// drops, so a timed [`Poller::wait`] wakes at its deadline instead of up
/// to the kernel's default 50 µs later. Dropping the guard, unwinding
/// included, restores the slack it found. Linux only (`prctl`); elsewhere,
/// or where `prctl` is refused, the guard does nothing.
pub fn exact_timers() -> ExactTimers {
    ExactTimers {
        #[cfg(target_os = "linux")]
        previous: sys::timer_slack().filter(|_| sys::set_timer_slack(1)),
        _thread: PhantomData,
    }
}

/// The guard of [`exact_timers`]. Timer slack belongs to a thread, so the
/// guard stays on the thread that made it.
#[must_use = "the timer slack is restored when the guard drops"]
#[derive(Debug)]
pub struct ExactTimers {
    /// The slack to restore, if it was replaced.
    #[cfg(target_os = "linux")]
    previous: Option<std::os::raw::c_ulong>,
    _thread: PhantomData<*const ()>,
}

impl Drop for ExactTimers {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(slack) = self.previous {
            sys::set_timer_slack(slack);
        }
    }
}

/// Pin the calling thread to logical CPU `index % available_cores`.
/// Returns `true` when the pin took effect, `false` where unsupported —
/// callers treat `false` as a recorded no-op, never an error.
pub fn bind_to_core(index: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        sys::bind_to_core(index)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = index;
        false
    }
}

/// Number of logical CPUs visible to this process (affinity-mask aware on
/// Linux), or 1 where undetectable.
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_long, c_ulong, c_void};
    use std::time::Duration;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event` with the kernel's packed layout on x86-64 and
    /// the natural layout elsewhere (matching the glibc definition).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub u64_: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn syscall(num: c_long, ...) -> c_long;
        pub fn close(fd: c_int) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_void) -> c_int;
        fn prctl(option: c_int, ...) -> c_int;
    }

    const PR_SET_TIMERSLACK: c_int = 29;
    const PR_GET_TIMERSLACK: c_int = 30;

    /// The calling thread's timer slack in nanoseconds, or `None` where
    /// `prctl` refuses.
    pub fn timer_slack() -> Option<c_ulong> {
        // SAFETY: PR_GET_TIMERSLACK reads no argument and writes no memory.
        let rc = unsafe { prctl(PR_GET_TIMERSLACK, 0 as c_ulong, 0 as c_ulong, 0 as c_ulong) };
        c_ulong::try_from(rc).ok()
    }

    /// Set the calling thread's timer slack to `ns` nanoseconds; says
    /// whether the kernel took it.
    pub fn set_timer_slack(ns: c_ulong) -> bool {
        // SAFETY: PR_SET_TIMERSLACK takes its value by argument and writes
        // no memory.
        unsafe { prctl(PR_SET_TIMERSLACK, ns, 0 as c_ulong, 0 as c_ulong) == 0 }
    }

    pub fn epoll_op(
        epfd: RawFd,
        op: c_int,
        fd: RawFd,
        token: usize,
        interest: Interest,
    ) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: {
                let mut e = EPOLLRDHUP;
                if interest.readable {
                    e |= EPOLLIN;
                }
                if interest.writable {
                    e |= EPOLLOUT;
                }
                e
            },
            u64_: token as u64,
        };
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// `epoll_pwait2`'s syscall number, the same on every target listed in
    /// [`HAS_EPOLL_PWAIT2`].
    const SYS_EPOLL_PWAIT2: c_long = 441;
    /// Targets whose syscall table has been checked for that number; any
    /// other target uses the `epoll_wait` fall-back from the start.
    pub const HAS_EPOLL_PWAIT2: bool = cfg!(any(
        target_arch = "x86_64",
        target_arch = "aarch64",
        target_arch = "riscv64"
    ));

    // errno values of the targets listed above.
    const ENOSYS: i32 = 38;
    const EPERM: i32 = 1;

    /// `struct __kernel_timespec`: 64-bit fields on every architecture.
    #[repr(C)]
    struct KernelTimespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// One `epoll_pwait2` call with a null signal mask. `None` blocks
    /// until an event.
    fn epoll_pwait2(epfd: RawFd, raw: &mut [EpollEvent], timeout: Option<Duration>) -> c_long {
        let ts = timeout.map(|t| KernelTimespec {
            tv_sec: i64::try_from(t.as_secs()).unwrap_or(i64::MAX),
            tv_nsec: i64::from(t.subsec_nanos()),
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |ts| ts as *const KernelTimespec);
        // SAFETY: `raw` is a live, writable array of `raw.len()` events and
        // `ts_ptr` is null or points at `ts`, which outlives the call; the
        // kernel ignores the mask size when the mask is null.
        unsafe {
            syscall(
                SYS_EPOLL_PWAIT2,
                epfd as c_long,
                raw.as_mut_ptr(),
                raw.len() as c_long,
                ts_ptr,
                std::ptr::null::<c_void>(),
                0 as c_long,
            )
        }
    }

    /// One wait on `epfd`. `coarse` is the poller's memory that
    /// `epoll_pwait2` is unavailable: once set, waits go through
    /// `epoll_wait` and its millisecond timeout.
    pub fn epoll_wait_into(
        epfd: RawFd,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
        coarse: &mut bool,
    ) -> io::Result<usize> {
        let mut raw = [EpollEvent { events: 0, u64_: 0 }; 256];
        let n = loop {
            let rc = if *coarse {
                let ms = super::coarse_millis(timeout);
                // SAFETY: `raw` is a live, writable array of `raw.len()`
                // events.
                c_long::from(unsafe { epoll_wait(epfd, raw.as_mut_ptr(), raw.len() as c_int, ms) })
            } else {
                epoll_pwait2(epfd, &mut raw, timeout)
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            match err.raw_os_error() {
                Some(ENOSYS | EPERM) if !*coarse => *coarse = true,
                _ if err.kind() == io::ErrorKind::Interrupted => {}
                _ => return Err(err),
            }
        };
        for e in &raw[..n] {
            let bits = e.events;
            let token = e.u64_ as usize;
            events.push(Event {
                token,
                readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                writable: bits & (EPOLLOUT | EPOLLERR) != 0,
                hangup: bits & (EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
            });
        }
        Ok(n)
    }

    const CPU_SET_WORDS: usize = 16; // 1024 CPUs, glibc's cpu_set_t size

    pub fn bind_to_core(index: usize) -> bool {
        // Pin within the CPUs this process may already be restricted to.
        let mut allowed = [0 as c_ulong; CPU_SET_WORDS];
        let got = unsafe {
            sched_getaffinity(
                0,
                CPU_SET_WORDS * std::mem::size_of::<c_ulong>(),
                allowed.as_mut_ptr() as *mut c_void,
            )
        };
        let candidates: Vec<usize> = if got == 0 {
            (0..CPU_SET_WORDS * c_ulong_bits())
                .filter(|&c| allowed[c / c_ulong_bits()] & (1 << (c % c_ulong_bits())) != 0)
                .collect()
        } else {
            (0..super::available_cores()).collect()
        };
        if candidates.is_empty() {
            return false;
        }
        let cpu = candidates[index % candidates.len()];
        let mut mask = [0 as c_ulong; CPU_SET_WORDS];
        mask[cpu / c_ulong_bits()] |= 1 << (cpu % c_ulong_bits());
        let rc = unsafe {
            sched_setaffinity(
                0,
                CPU_SET_WORDS * std::mem::size_of::<c_ulong>(),
                mask.as_ptr(),
            )
        };
        rc == 0
    }

    const fn c_ulong_bits() -> usize {
        std::mem::size_of::<c_ulong>() * 8
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{Event, Interest, Registration};
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    }

    pub fn poll_wait_into(
        regs: &[Registration],
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let mut fds: Vec<PollFd> = regs
            .iter()
            .map(|r| PollFd {
                fd: r.fd,
                events: {
                    let mut e = 0;
                    if r.interest.readable {
                        e |= POLLIN;
                    }
                    if r.interest.writable {
                        e |= POLLOUT;
                    }
                    e
                },
                revents: 0,
            })
            .collect();
        let ms = super::coarse_millis(timeout);
        let n = loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for (reg, pfd) in regs.iter().zip(&fds) {
            if pfd.revents == 0 {
                continue;
            }
            events.push(Event {
                token: reg.token,
                readable: pfd.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                writable: pfd.revents & (POLLOUT | POLLERR) != 0,
                hangup: pfd.revents & (POLLHUP | POLLERR) != 0,
            });
        }
        let _ = Interest::READ; // keep the import meaningful on this path
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    #[cfg(unix)]
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    #[cfg(unix)]
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    #[cfg(unix)]
    fn reports_readable_when_bytes_arrive() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).expect("nonblocking");
        let mut p = Poller::new().expect("poller");
        p.register(b.as_raw_fd(), 7, Interest::READ)
            .expect("register");
        let mut events = Vec::new();
        // Nothing yet: a short wait times out empty.
        p.wait(&mut events, Some(Duration::from_millis(10)))
            .expect("wait");
        assert!(
            events.iter().all(|e| !e.readable),
            "spurious read: {events:?}"
        );
        a.write_all(b"ping").expect("write");
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            p.wait(&mut events, Some(Duration::from_millis(50)))
                .expect("wait");
            if events.iter().any(|e| e.token == 7 && e.readable) {
                break;
            }
            assert!(Instant::now() < deadline, "readable never reported");
        }
        let mut buf = [0u8; 8];
        let n = (&b).read(&mut buf).expect("read");
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    #[cfg(unix)]
    fn writable_interest_fires_and_can_be_dropped() {
        let (_a, b) = pair();
        b.set_nonblocking(true).expect("nonblocking");
        let mut p = Poller::new().expect("poller");
        p.register(b.as_raw_fd(), 3, Interest::READ_WRITE)
            .expect("register");
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            p.wait(&mut events, Some(Duration::from_millis(50)))
                .expect("wait");
            if events.iter().any(|e| e.token == 3 && e.writable) {
                break;
            }
            assert!(Instant::now() < deadline, "writable never reported");
        }
        // Drop write interest: an idle socket must stop waking the poller.
        p.reregister(3, Interest::READ).expect("reregister");
        p.wait(&mut events, Some(Duration::from_millis(20)))
            .expect("wait");
        assert!(
            events.iter().all(|e| !(e.token == 3 && e.writable)),
            "writable still reported after interest dropped: {events:?}"
        );
        p.deregister(3);
        assert!(p.is_empty());
    }

    #[test]
    #[cfg(unix)]
    fn hangup_is_reported() {
        let (a, b) = pair();
        b.set_nonblocking(true).expect("nonblocking");
        let mut p = Poller::new().expect("poller");
        p.register(b.as_raw_fd(), 1, Interest::READ)
            .expect("register");
        drop(a);
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            p.wait(&mut events, Some(Duration::from_millis(50)))
                .expect("wait");
            if events
                .iter()
                .any(|e| e.token == 1 && (e.hangup || e.readable))
            {
                break;
            }
            assert!(Instant::now() < deadline, "hangup never reported");
        }
    }

    /// The timeout contract, on the exact path (`coarse == false`, Linux
    /// with `epoll_pwait2`) or with the millisecond fall-back forced.
    #[cfg(unix)]
    fn check_timeout_contract(force_coarse: bool) {
        let (mut a, b) = pair();
        b.set_nonblocking(true).expect("nonblocking");
        let mut p = Poller::new().expect("poller");
        #[cfg(target_os = "linux")]
        {
            p.coarse |= force_coarse;
        }
        p.register(b.as_raw_fd(), 9, Interest::READ)
            .expect("register");
        let exact = {
            #[cfg(target_os = "linux")]
            {
                // One probe wait: a kernel or sandbox without the call
                // flips the poller to the fall-back here.
                p.wait(&mut Vec::new(), Some(Duration::ZERO)).expect("wait");
                !p.coarse
            }
            #[cfg(not(target_os = "linux"))]
            {
                false
            }
        };
        assert!(!(force_coarse && exact), "the forced fall-back must stick");
        let mut events = Vec::new();

        // A short timeout on an idle socket: never early, and not a
        // millisecond late where timeouts take nanoseconds.
        let timeout = Duration::from_micros(200);
        let mut took: Vec<Duration> = (0..50)
            .map(|_| {
                let t0 = Instant::now();
                let n = p.wait(&mut events, Some(timeout)).expect("wait");
                let dt = t0.elapsed();
                assert_eq!(n, 0, "idle socket reported {events:?}");
                dt
            })
            .collect();
        took.sort_unstable();
        assert!(took[0] >= timeout, "returned early: {:?}", took[0]);
        if exact {
            assert!(
                took[25] < Duration::from_millis(1),
                "median {:?} of a 200 us wait",
                took[25]
            );
        } else {
            // Sub-millisecond rounds up, never down to a spinning zero.
            assert!(took[0] >= Duration::from_millis(1), "{:?}", took[0]);
        }

        // Zero does not sleep.
        let t0 = Instant::now();
        for _ in 0..100 {
            p.wait(&mut events, Some(Duration::ZERO)).expect("wait");
        }
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "100 zero waits took {:?}",
            t0.elapsed()
        );

        // `None` blocks until the event; a timed wait returns early on one.
        // The byte is written after the barrier that precedes the wait, so
        // a wait that did not block would come back with nothing.
        for wait in [None, Some(Duration::from_secs(5))] {
            let gate = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    gate.wait();
                    std::thread::sleep(Duration::from_millis(20));
                    a.write_all(b"x").expect("write");
                });
                gate.wait();
                let t0 = Instant::now();
                let n = p.wait(&mut events, wait).expect("wait");
                assert!(n >= 1, "no event after {:?}", t0.elapsed());
                assert!(t0.elapsed() < Duration::from_secs(4), "slept through it");
                assert!(
                    events.iter().any(|e| e.token == 9 && e.readable),
                    "{events:?}"
                );
            });
            let mut byte = [0u8; 1];
            (&b).read_exact(&mut byte).expect("drain");
        }
    }

    #[test]
    #[cfg(unix)]
    fn timeouts_are_exact_where_the_kernel_allows() {
        check_timeout_contract(false);
    }

    #[test]
    #[cfg(unix)]
    fn forced_fallback_rounds_sub_millisecond_up() {
        check_timeout_contract(true);
    }

    #[test]
    fn empty_poller_sleeps_the_timeout() {
        let mut p = Poller::new().expect("poller");
        let mut events = Vec::new();
        let t0 = Instant::now();
        p.wait(&mut events, Some(Duration::from_millis(5)))
            .expect("wait");
        assert!(events.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(3));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn exact_timers_sets_and_restores_the_thread_slack() {
        // A sandbox that refuses prctl leaves the slack alone: nothing to check.
        let Some(before) = sys::timer_slack() else {
            return;
        };
        assert_ne!(before, 1, "the test would show nothing");
        {
            let _exact = exact_timers();
            assert_eq!(sys::timer_slack(), Some(1));
        }
        assert_eq!(sys::timer_slack(), Some(before));
        let unwound = std::panic::catch_unwind(|| {
            let _exact = exact_timers();
            std::panic::resume_unwind(Box::new("unwind"));
        });
        assert!(unwound.is_err());
        assert_eq!(sys::timer_slack(), Some(before), "restored on unwind");
    }

    #[test]
    fn bind_to_core_never_panics() {
        // Whatever the platform answers, the call is a safe no-op-or-pin.
        let pinned = bind_to_core(0);
        let _ = bind_to_core(usize::MAX);
        if pinned {
            assert!(available_cores() >= 1);
        }
    }
}
