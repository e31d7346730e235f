//! Readiness polling and cross-thread wakeups for the event-driven front
//! end.
//!
//! Two small primitives, both std-only:
//!
//! - [`Poller`] — a level-triggered readiness poll over a set of file
//!   descriptors. On unix it is a thin wrapper around the `poll(2)` syscall
//!   (declared directly; no FFI crate — std already links libc). `poll` is
//!   stateless, so the set is rebuilt from the connection slab before every
//!   call; with a few thousand descriptors that costs microseconds and
//!   keeps registration bookkeeping out of the picture entirely. On
//!   non-unix targets a fallback reports every descriptor ready after a
//!   short sleep — correct (all socket I/O is nonblocking and tolerates
//!   spurious readiness) if less efficient.
//! - [`WakePipe`] / [`Waker`] — a connected stream pair (a unix-domain
//!   `socketpair` on unix, loopback TCP elsewhere) that lets batch workers
//!   (and the accept thread) interrupt an event loop blocked in `poll`. A
//!   pending-flag keeps the pipe to at most one buffered byte no matter how
//!   many completions fire between wakeups; [`WakeSet`] lets a batch fire
//!   one wake per loop after all of its replies are mailboxed.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Readiness interest / result flags for one descriptor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ready {
    /// Data (or EOF, or an error) can be read without blocking.
    pub readable: bool,
    /// The socket's send buffer has room.
    pub writable: bool,
}

#[cfg(unix)]
mod sys {
    //! The one FFI surface of the crate: `poll(2)`. `PollFd` matches
    //! `struct pollfd` on every unix libc (three C ints/shorts, no
    //! padding differences), and `nfds_t` is `unsigned long` on Linux,
    //! `unsigned int` elsewhere.
    #![allow(unsafe_code)]

    use std::io;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "linux")]
    type NfdsT = u64;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    /// Blocks until a descriptor is ready or `timeout_ms` passes; returns
    /// the number of descriptors with non-zero `revents`. A signal
    /// interruption counts as zero ready, not an error.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            }
        } else {
            Ok(rc as usize)
        }
    }
}

#[cfg(not(unix))]
mod sys {
    //! Portable fallback: report everything ready after a short nap. The
    //! connection state machines treat readiness as a hint (every read and
    //! write handles `WouldBlock`), so spurious readiness only costs CPU.
    use std::io;
    use std::time::Duration;

    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        std::thread::sleep(Duration::from_millis(u64::from(
            timeout_ms.clamp(0, 2) as u32
        )));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

/// Extracts the OS descriptor an I/O object polls on.
#[cfg(unix)]
pub fn fd_of<T: std::os::unix::io::AsRawFd>(io: &T) -> i32 {
    io.as_raw_fd()
}

/// Non-unix targets have no raw fd; the fallback poller never looks at it.
#[cfg(not(unix))]
pub fn fd_of<T>(_io: &T) -> i32 {
    -1
}

/// A reusable, level-triggered readiness poll. Register descriptors in
/// slot order, [`poll`](Poller::poll) once, then read each slot's
/// [`Ready`] result; [`clear`](Poller::clear) and rebuild next iteration.
#[derive(Default)]
pub struct Poller {
    fds: Vec<sys::PollFd>,
}

impl Poller {
    /// An empty poll set.
    pub fn new() -> Self {
        Poller::default()
    }

    /// Drops every registered descriptor, keeping the allocation.
    pub fn clear(&mut self) {
        self.fds.clear();
    }

    /// Adds a descriptor with the given interests; returns its slot index
    /// (slots are assigned in registration order).
    pub fn register(&mut self, fd: i32, interest: Ready) -> usize {
        let mut events = 0i16;
        if interest.readable {
            events |= sys::POLLIN;
        }
        if interest.writable {
            events |= sys::POLLOUT;
        }
        self.fds.push(sys::PollFd {
            fd,
            events,
            revents: 0,
        });
        self.fds.len() - 1
    }

    /// Blocks until at least one registered descriptor is ready or the
    /// timeout passes; returns how many are ready.
    ///
    /// # Errors
    ///
    /// Propagates `poll(2)` failures other than signal interruption.
    pub fn poll(&mut self, timeout: Duration) -> io::Result<usize> {
        if self.fds.is_empty() {
            std::thread::sleep(timeout.min(Duration::from_millis(50)));
            return Ok(0);
        }
        let ms = i32::try_from(timeout.as_millis())
            .unwrap_or(i32::MAX)
            .max(0);
        sys::poll_fds(&mut self.fds, ms)
    }

    /// The readiness result for slot `idx` after a [`poll`](Poller::poll).
    /// Errors and hangups surface as readable+writable so the owner's next
    /// nonblocking I/O call observes the failure directly.
    pub fn ready(&self, idx: usize) -> Ready {
        let r = self.fds[idx].revents;
        let broken = r & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
        Ready {
            readable: r & sys::POLLIN != 0 || broken,
            writable: r & sys::POLLOUT != 0 || broken,
        }
    }
}

/// The stream type a wake channel is built from.
#[cfg(unix)]
type WakeStream = std::os::unix::net::UnixStream;
#[cfg(not(unix))]
type WakeStream = std::net::TcpStream;

/// A connected `(tx, rx)` pair: one `socketpair(2)` call — no port, no TCP
/// stack on the wake path.
#[cfg(unix)]
fn stream_pair() -> io::Result<(WakeStream, WakeStream)> {
    WakeStream::pair()
}

/// std has no portable `socketpair`: listener on an ephemeral loopback
/// port, connect, accept.
#[cfg(not(unix))]
fn stream_pair() -> io::Result<(WakeStream, WakeStream)> {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
    let tx = WakeStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nodelay(true)?;
    Ok((tx, rx))
}

/// The receiving half of a wakeup channel: one nonblocking stream the
/// event loop includes in its poll set.
///
/// # Protocol
///
/// `pending` says "a wake byte is written or about to be, and the loop has
/// not yet re-armed". [`Waker::wake`] swaps it to `true` and writes a byte
/// only on the `false → true` edge; [`WakePipe::drain`] reads the pipe
/// *first* and swaps it back to `false` *afterwards*. Every access to
/// `pending` is an `AcqRel` swap, so the swaps form one total order in
/// which each synchronizes with all earlier ones, and any `wake()` falls on
/// one side of the re-arm:
///
/// - **before it** — the wake found `pending` already `true` (or wrote the
///   byte `drain` just read). It writes nothing more, and needs nothing
///   more: whatever its caller published before calling `wake()` (a dirty-
///   list or incoming-queue push, a flag) happens-before the re-arm, and
///   the loop examines that state only after `drain` returns.
/// - **after it** — the wake sees `false` (or the `true` of a yet later
///   wake that saw `false`), so a fresh byte is written after `drain`'s
///   read and the next `poll` returns at once.
///
/// Re-arming *before* the read — the original order — loses wakes: a wake
/// landing between the two writes a byte the read then swallows, leaving
/// `pending == true` with an empty pipe, after which no `wake()` ever
/// writes again. For state published under a mutex the loop takes after
/// `drain` (the dirty list, the incoming queue) the same conclusion also
/// follows from the mutex alone: a push the loop's scan misses locks after
/// that scan, hence after the re-arm, so its `wake()` is of the second
/// kind.
///
/// The owner only drains a readable pipe, so a byte is consumed before
/// each re-arm and at most one `false → true` edge is outstanding: the
/// pipe never holds more than one byte and a single `read` empties it.
pub struct WakePipe {
    rx: WakeStream,
    inner: Arc<WakerInner>,
}

struct WakerInner {
    tx: WakeStream,
    pending: AtomicBool,
}

/// The sending half; cheap to clone and callable from any thread.
#[derive(Clone)]
pub struct Waker {
    inner: Arc<WakerInner>,
}

impl WakePipe {
    /// Builds the connected pair. Both sides are nonblocking: the loop
    /// must never block in `drain`, and a waker must never block on a pipe
    /// that — holding unread bytes — is going to wake the loop anyway.
    ///
    /// # Errors
    ///
    /// Propagates socket setup failures.
    pub fn new() -> io::Result<WakePipe> {
        let (tx, rx) = stream_pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(WakePipe {
            rx,
            inner: Arc::new(WakerInner {
                tx,
                pending: AtomicBool::new(false),
            }),
        })
    }

    /// The descriptor to include (readable interest) in the poll set.
    pub fn fd(&self) -> i32 {
        fd_of(&self.rx)
    }

    /// A sender handle for this pipe.
    pub fn waker(&self) -> Waker {
        Waker {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Test probe: polls the pipe alone, true if readable within `timeout`.
    #[cfg(test)]
    pub(crate) fn readable_within(&self, timeout: Duration) -> bool {
        let mut poller = Poller::new();
        let idx = poller.register(
            self.fd(),
            Ready {
                readable: true,
                writable: false,
            },
        );
        poller.poll(timeout).unwrap();
        poller.ready(idx).readable
    }

    /// Consumes the buffered wakeup bytes, then re-arms the pending flag;
    /// returns how many wakeups were delivered. Call once per readable
    /// poll result, *before* scanning the work the wakeups advertised —
    /// see the type-level protocol for why that order loses nothing.
    pub fn drain(&self) -> u64 {
        let mut buf = [0u8; 64];
        // One read empties the pipe (see the protocol); a byte left behind
        // by the always-ready fallback poller only costs a spurious wakeup.
        let delivered = (&self.rx).read(&mut buf).unwrap_or(0);
        self.inner.pending.swap(false, Ordering::AcqRel);
        delivered as u64
    }
}

impl Waker {
    /// Interrupts the owning event loop's `poll`. Coalescing: only the
    /// first wake after a [`WakePipe::drain`] writes a byte, so back-to-
    /// back completions cost one atomic swap each, not one syscall each.
    pub fn wake(&self) {
        if !self.inner.pending.swap(true, Ordering::AcqRel)
            && (&self.inner.tx).write(&[1u8]).is_err()
        {
            // No byte went out, so nothing will re-arm the flag: give the
            // edge back and let the next wake try again (this one is left
            // to the loop's poll timeout).
            self.inner.pending.swap(false, Ordering::AcqRel);
        }
    }
}

/// The wakes a batch owes, fired together once the batch has mailboxed all
/// of its replies: each distinct loop is woken once, not once per reply.
/// Firing happens on drop, so an unwinding batch worker still wakes the
/// loops it already handed replies to.
#[derive(Default)]
pub struct WakeSet {
    wakers: Vec<Waker>,
}

impl WakeSet {
    /// Notes that `waker`'s loop must be woken when the set drops.
    pub fn add(&mut self, waker: Waker) {
        if !self
            .wakers
            .iter()
            .any(|w| Arc::ptr_eq(&w.inner, &waker.inner))
        {
            self.wakers.push(waker);
        }
    }
}

impl Drop for WakeSet {
    fn drop(&mut self) {
        for w in &self.wakers {
            w.wake();
        }
    }
}

/// Bounded exponential backoff for persistent `accept()` failures (fd
/// exhaustion and friends): without it the accept loop busy-spins at 100%
/// CPU while the condition lasts. Delays double from [`Self::FIRST`] to
/// [`Self::MAX`]; one successful accept resets the ladder.
#[derive(Debug)]
pub struct AcceptBackoff {
    next: Duration,
}

impl AcceptBackoff {
    /// Delay after the first error in a streak.
    pub const FIRST: Duration = Duration::from_millis(1);
    /// Ceiling the doubling stops at.
    pub const MAX: Duration = Duration::from_millis(250);

    /// Starts with the ladder reset.
    pub fn new() -> Self {
        AcceptBackoff { next: Self::FIRST }
    }

    /// Registers one failed accept and returns how long to sleep before
    /// retrying.
    pub fn on_error(&mut self) -> Duration {
        let delay = self.next;
        self.next = (self.next * 2).min(Self::MAX);
        delay
    }

    /// Registers a successful accept, resetting the ladder.
    pub fn on_success(&mut self) {
        self.next = Self::FIRST;
    }
}

impl Default for AcceptBackoff {
    fn default() -> Self {
        AcceptBackoff::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Instant;

    #[test]
    fn backoff_doubles_to_cap_and_resets() {
        let mut b = AcceptBackoff::new();
        let mut seen = Vec::new();
        for _ in 0..12 {
            seen.push(b.on_error());
        }
        assert_eq!(seen[0], AcceptBackoff::FIRST);
        // Strictly doubling until the cap, then flat.
        for w in seen.windows(2) {
            assert!(w[1] == (w[0] * 2).min(AcceptBackoff::MAX));
        }
        assert_eq!(*seen.last().unwrap(), AcceptBackoff::MAX);
        b.on_success();
        assert_eq!(b.on_error(), AcceptBackoff::FIRST);
    }

    #[test]
    fn wake_pipe_delivers_and_coalesces() {
        let pipe = WakePipe::new().unwrap();
        let waker = pipe.waker();
        // Many wakes before a drain collapse into one buffered byte.
        for _ in 0..100 {
            waker.wake();
        }
        assert!(
            pipe.readable_within(Duration::from_secs(5)),
            "wake byte never arrived"
        );
        assert_eq!(pipe.drain(), 1);
        // Re-armed: the next wake writes a fresh byte.
        waker.wake();
        let deadline = Instant::now() + Duration::from_secs(5);
        while pipe.drain() == 0 {
            assert!(Instant::now() < deadline, "re-armed wake never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The lost-wake-up race: wakers hammer the pipe while the owner loops
    /// poll → drain; once they stop and the pipe is drained dry, one more
    /// wake must still produce a byte. With the flag re-armed *before* the
    /// read, a wake landing in between has its byte swallowed and the flag
    /// sticks at `true` — the final wake then writes nothing. Only unix
    /// has a real poll to observe that with.
    #[cfg(unix)]
    #[test]
    fn late_wakeup_after_drain_is_never_lost() {
        const HAMMERS: usize = 3;
        const ROUNDS: usize = 2000;
        const WAKES_PER_ROUND: usize = 1000;
        let pipe = WakePipe::new().unwrap();
        // Each round everyone meets at `start`, the hammers fire a burst
        // of wakes and check in on `finished`.
        let start = Barrier::new(HAMMERS + 1);
        let finished = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let mut lost_in_round = None;
        std::thread::scope(|scope| {
            for _ in 0..HAMMERS {
                let waker = pipe.waker();
                let (start, finished, stop) = (&start, &finished, &stop);
                scope.spawn(move || loop {
                    start.wait();
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    for _ in 0..WAKES_PER_ROUND {
                        waker.wake();
                    }
                    finished.fetch_add(1, Ordering::AcqRel);
                });
            }
            let waker = pipe.waker();
            for round in 0..ROUNDS {
                start.wait();
                // Drain while the burst runs, then until the pipe is dry.
                loop {
                    let quiesced = finished.load(Ordering::Acquire) == HAMMERS * (round + 1);
                    if pipe.readable_within(Duration::ZERO) {
                        pipe.drain();
                    } else if quiesced {
                        break;
                    }
                }
                waker.wake();
                if !pipe.readable_within(Duration::from_millis(500)) {
                    lost_in_round = Some(round);
                    break;
                }
                pipe.drain();
            }
            // Release the hammers (parked on the barrier) so the scope joins.
            stop.store(true, Ordering::Release);
            start.wait();
        });
        assert_eq!(
            lost_in_round, None,
            "a wake after the drain wrote no byte: the pending flag stuck"
        );
    }

    #[test]
    fn batch_set_fires_each_loop_once_on_drop() {
        let (a, b) = (WakePipe::new().unwrap(), WakePipe::new().unwrap());
        {
            let mut set = WakeSet::default();
            set.add(a.waker());
            set.add(b.waker());
            set.add(a.waker());
            assert_eq!(set.wakers.len(), 2, "same loop is noted once");
            #[cfg(unix)]
            assert!(
                !a.readable_within(Duration::ZERO),
                "nothing fires before the set drops"
            );
        }
        for pipe in [&a, &b] {
            assert!(pipe.readable_within(Duration::from_secs(5)));
            assert_eq!(pipe.drain(), 1);
        }
    }

    #[test]
    fn poller_sees_tcp_readability() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        rx.set_nonblocking(true).unwrap();

        let mut poller = Poller::new();
        poller.clear();
        let idx = poller.register(
            fd_of(&rx),
            Ready {
                readable: true,
                writable: true,
            },
        );
        poller.poll(Duration::from_millis(50)).unwrap();
        let before = poller.ready(idx);
        assert!(before.writable, "fresh socket must be writable");
        #[cfg(unix)]
        assert!(!before.readable, "nothing written yet");

        (&tx).write_all(b"x").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            poller.clear();
            let idx = poller.register(
                fd_of(&rx),
                Ready {
                    readable: true,
                    writable: false,
                },
            );
            poller.poll(Duration::from_millis(100)).unwrap();
            if poller.ready(idx).readable {
                break;
            }
            assert!(Instant::now() < deadline, "readability never reported");
        }
    }
}
