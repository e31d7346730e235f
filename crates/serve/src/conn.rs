//! Per-connection state machines for the event-driven front end.
//!
//! Each accepted socket becomes a [`Conn`] living in one event loop's
//! slab. The loop drives it with nonblocking reads ([`Conn::fill`] feeds a
//! [`FrameBuffer`]) and nonblocking writes ([`Conn::flush`] hands the
//! whole outbound queue to the socket in one `write`), while batch-worker
//! completions deliver encoded replies
//! through the connection's shared [`ConnHandle`] — a small mailbox the
//! owning loop empties into the outbound queue on its next wakeup. The
//! handle (not the `Conn`) is what escapes the loop thread, so all socket
//! I/O stays single-threaded per connection.

use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use hpnn_bytes::{FrameBuffer, FrameTooLong};

use crate::protocol::MAX_FRAME_PAYLOAD;

/// Ceiling on undecoded bytes buffered per connection. Must admit one
/// maximum-size frame (header + payload) so decode can always make
/// progress; the slack above that is one read burst. Reads pause — level-
/// triggered readiness re-arms them — once the buffer reaches the cap, so
/// a client that pipelines without reading replies fills the kernel
/// receive buffer and TCP pushes back instead of the server buffering
/// without bound.
pub const READ_BUFFER_CAP: usize = MAX_FRAME_PAYLOAD + 64 * 1024;

/// One encoded frame bound for a connection's socket.
#[derive(Debug)]
pub struct Outbound {
    /// Fully encoded frame bytes.
    pub buf: Vec<u8>,
    /// For `LOGITS` replies: when the reply was handed off — the
    /// `writeback` histogram sample is recorded from this stamp when the
    /// reply transfers to the outbound queue.
    pub reply_ready: Option<Instant>,
    /// For completion replies: the correlation to remove from the
    /// connection's in-flight window when this reply transfers to the
    /// outbound queue. Retiring on the loop thread (not on the worker that
    /// fired the completion) keeps `ConnWindow::depth` nonzero until the
    /// reply is queued, so a half-closed connection can never be reclaimed
    /// with its reply still in the mailbox.
    pub retire_correlation: Option<u32>,
}

/// The cross-thread face of a connection: completions push encoded replies
/// here and the owning event loop drains them. Also carries the dirty-list
/// dedup flag and the closed marker that tells late completions their
/// connection is gone.
#[derive(Debug)]
pub struct ConnHandle {
    /// Slab slot of the owning connection in its event loop.
    pub token: usize,
    out: Mutex<VecDeque<Outbound>>,
    queued: AtomicBool,
    closed: AtomicBool,
}

impl ConnHandle {
    /// A handle for the connection in slab slot `token`.
    pub fn new(token: usize) -> Self {
        ConnHandle {
            token,
            out: Mutex::new(VecDeque::new()),
            queued: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        }
    }

    /// The mailbox, poison-tolerant: it is only ever pushed to or taken
    /// whole, so it is valid at every step, and a batch worker that
    /// panicked mid-delivery must not take the event loop down with it.
    fn mailbox(&self) -> MutexGuard<'_, VecDeque<Outbound>> {
        self.out.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues one encoded reply for the owning loop to collect.
    pub fn push(&self, out: Outbound) {
        self.mailbox().push_back(out);
    }

    /// Takes everything queued since the last call.
    pub fn take(&self) -> VecDeque<Outbound> {
        std::mem::take(&mut *self.mailbox())
    }

    /// True if a dirty-list registration is already pending; marks one
    /// pending either way. The registering thread adds the handle to the
    /// loop's dirty list only on `false`.
    pub fn mark_queued(&self) -> bool {
        self.queued.swap(true, Ordering::AcqRel)
    }

    /// Re-arms dirty-list registration; the owning loop calls this before
    /// draining [`take`](Self::take) so no push can slip between unnoticed.
    pub fn clear_queued(&self) {
        self.queued.store(false, Ordering::Release);
    }

    /// Marks the connection gone; late completions still deliver into the
    /// mailbox (the loop drains and discards them for exact histogram
    /// accounting), but callers can skip encoding work if they see this.
    pub fn set_closed(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether [`set_closed`](Self::set_closed) ran.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

/// Correlation IDs currently in flight on one connection, shared
/// between admission (event loop) and the completions that clear them
/// (batch workers).
#[derive(Debug, Default)]
pub struct ConnWindow {
    /// In-flight correlation IDs.
    pub inflight: Mutex<HashSet<u32>>,
}

impl ConnWindow {
    /// An empty window.
    pub fn new() -> Self {
        ConnWindow::default()
    }

    /// How many requests are currently in flight.
    pub fn depth(&self) -> usize {
        self.inflight.lock().unwrap().len()
    }
}

/// What [`Conn::fill`] observed on the socket.
#[derive(Debug, PartialEq, Eq)]
pub enum FillOutcome {
    /// Read everything currently available; the connection stays open.
    Open,
    /// The peer half-closed its write side (EOF). Buffered frames remain
    /// decodable and queued replies should still be flushed.
    Eof,
    /// A transport error; the connection is unusable.
    Broken,
}

/// What [`Conn::flush`] left behind.
#[derive(Debug, PartialEq, Eq)]
pub enum FlushOutcome {
    /// Outbound queue fully written.
    Clean,
    /// The socket's send buffer filled; poll for writability.
    Pending,
    /// A write error; the connection is unusable.
    Broken,
}

/// One connection's state inside an event loop slab.
pub struct Conn {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Incremental frame reassembly over whatever bytes arrived.
    pub frames: FrameBuffer,
    /// Every queued frame's bytes, back to back, so one `write` can carry
    /// the whole queue; the first `out_written` bytes are already sent.
    out_bytes: Vec<u8>,
    out_written: usize,
    /// Each queued frame's length, in `out_bytes` order. The count is what
    /// backpressure caps.
    out_frames: VecDeque<usize>,
    /// Bytes of the front frame already sent.
    front_sent: usize,
    /// Cross-thread reply mailbox for this slot.
    pub handle: std::sync::Arc<ConnHandle>,
    /// In-flight correlation window.
    pub window: std::sync::Arc<ConnWindow>,
    /// The peer sent EOF; no more frames will arrive but queued replies
    /// still flush.
    pub read_closed: bool,
    /// Fatal protocol error: flush what is queued, then close. Decoding
    /// stops immediately.
    pub closing: bool,
    /// Whether this connection was counted in `metrics.connections`
    /// (shutdown-poke and stopping-window connections are served but not
    /// counted).
    pub counted: bool,
}

impl Conn {
    /// Wraps an accepted stream: nonblocking, `TCP_NODELAY`, fresh decode
    /// and window state.
    ///
    /// # Errors
    ///
    /// Propagates socket option failures (the caller drops the stream).
    pub fn new(stream: TcpStream, handle: std::sync::Arc<ConnHandle>) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            frames: FrameBuffer::new(MAX_FRAME_PAYLOAD),
            out_bytes: Vec::new(),
            out_written: 0,
            out_frames: VecDeque::new(),
            front_sent: 0,
            handle,
            window: std::sync::Arc::new(ConnWindow::new()),
            read_closed: false,
            closing: false,
            counted: true,
        })
    }

    /// Whether the event loop should read this socket at all: not while
    /// the peer is gone or the connection is closing, and — the
    /// backpressure half — not while decode is stalled (outbound queue at
    /// `outbound_cap`) or the frame buffer already holds a full frame's
    /// worth of undecoded bytes. Pausing the
    /// read is what lets the kernel receive buffer fill and TCP push back
    /// on a flooding client.
    pub fn wants_read(&self, outbound_cap: usize) -> bool {
        !self.read_closed
            && !self.closing
            && self.queued_frames() < outbound_cap
            && self.frames.buffered_len() < READ_BUFFER_CAP
    }

    /// Reads what is currently available into the frame buffer, stopping
    /// at [`READ_BUFFER_CAP`] buffered bytes (level-triggered readiness
    /// resumes the read once decode drains the buffer).
    pub fn fill(&mut self, scratch: &mut [u8]) -> FillOutcome {
        loop {
            if self.frames.buffered_len() >= READ_BUFFER_CAP {
                return FillOutcome::Open;
            }
            match self.stream.read(scratch) {
                Ok(0) => return FillOutcome::Eof,
                Ok(n) => self.frames.feed(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FillOutcome::Open,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return FillOutcome::Broken,
            }
        }
    }

    /// Pops the next buffered frame payload unless the connection is
    /// closing.
    ///
    /// # Errors
    ///
    /// [`FrameTooLong`] on a lying length prefix; the caller replies and
    /// sets [`closing`](Conn::closing).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameTooLong> {
        if self.closing {
            return Ok(None);
        }
        self.frames.next_frame()
    }

    /// Appends an encoded frame to the outbound queue.
    pub fn enqueue(&mut self, out: Outbound) {
        self.out_frames.push_back(out.buf.len());
        if self.out_bytes.is_empty() {
            // Idle connection: adopt the frame's buffer, no copy.
            self.out_bytes = out.buf;
        } else {
            self.out_bytes.extend_from_slice(&out.buf);
        }
    }

    /// How many frames are queued and not yet fully written — the number
    /// the `max_inflight + 16` backpressure cap counts.
    pub fn queued_frames(&self) -> usize {
        self.out_frames.len()
    }

    /// Transfers one mailboxed completion reply into the outbound queue,
    /// applying its state effect on the loop thread: the in-flight
    /// correlation retires only now, so [`retired`](Conn::retired) cannot
    /// observe an empty window with the reply still in a mailbox.
    pub fn absorb(&mut self, out: Outbound) {
        if let Some(corr) = out.retire_correlation {
            self.window.inflight.lock().unwrap().remove(&corr);
        }
        self.enqueue(out);
    }

    /// Writes as much of the outbound queue as the socket accepts — the
    /// whole queue in one `write` when it fits, so a batch's replies leave
    /// as one segment.
    pub fn flush(&mut self) -> FlushOutcome {
        while self.out_written < self.out_bytes.len() {
            match self.stream.write(&self.out_bytes[self.out_written..]) {
                Ok(0) => return FlushOutcome::Broken,
                Ok(n) => self.mark_sent(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Drop the sent prefix once it outweighs the rest: a
                    // slow reader's buffer stays under twice its unsent
                    // bytes, and no more bytes are moved than were sent.
                    if self.out_written >= self.out_bytes.len() - self.out_written {
                        self.out_bytes.drain(..self.out_written);
                        self.out_written = 0;
                    }
                    return FlushOutcome::Pending;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return FlushOutcome::Broken,
            }
        }
        self.out_bytes.clear();
        self.out_written = 0;
        FlushOutcome::Clean
    }

    /// Accounts `n` more bytes as sent, retiring every frame they complete.
    fn mark_sent(&mut self, n: usize) {
        self.out_written += n;
        self.front_sent += n;
        while let Some(&len) = self.out_frames.front() {
            if self.front_sent < len {
                break;
            }
            self.front_sent -= len;
            self.out_frames.pop_front();
        }
    }

    /// True when nothing remains to write.
    pub fn flushed(&self) -> bool {
        self.out_frames.is_empty()
    }

    /// True once the connection has nothing left to do: the peer stopped
    /// sending, every in-flight request resolved, and all replies are on
    /// the wire — a client that half-closes after its requests (send,
    /// `shutdown(WR)`, read) must still receive every reply.
    pub fn retired(&self) -> bool {
        self.read_closed && self.flushed() && self.window.depth() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn plain(buf: Vec<u8>) -> Outbound {
        Outbound {
            buf,
            reply_ready: None,
            retire_correlation: None,
        }
    }

    #[test]
    fn fill_decodes_frames_and_reports_eof() {
        let (client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        let mut wire = hpnn_bytes::BytesMut::new();
        hpnn_bytes::put_frame(&mut wire, b"hello");
        (&client).write_all(&wire[..]).unwrap();

        let mut scratch = [0u8; 4096];
        // Loopback delivery may take an instant; poll until the frame lands.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            assert_eq!(conn.fill(&mut scratch), FillOutcome::Open);
            if let Some(frame) = conn.next_frame().unwrap() {
                assert_eq!(frame, b"hello");
                break;
            }
            assert!(Instant::now() < deadline, "frame never arrived");
        }
        drop(client);
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while conn.fill(&mut scratch) != FillOutcome::Eof {
            assert!(Instant::now() < deadline, "EOF never observed");
        }
    }

    /// Frame `i` of a test sequence: `len` bytes, all distinct from its
    /// neighbours', so misordered or duplicated bytes cannot go unnoticed.
    fn numbered(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i * 31 + j) as u8).collect()
    }

    /// Reads exactly `want` bytes from the client side, flushing the
    /// server side whenever the client runs dry.
    fn pump(conn: &mut Conn, mut client: &TcpStream, want: usize) -> (Vec<u8>, bool) {
        client.set_nonblocking(true).unwrap();
        let mut got = Vec::with_capacity(want);
        let mut scratch = vec![0u8; 1 << 20];
        let mut pending_seen = false;
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while got.len() < want {
            match conn.flush() {
                FlushOutcome::Clean => {}
                FlushOutcome::Pending => pending_seen = true,
                FlushOutcome::Broken => panic!("loopback write broke"),
            }
            match client.read(&mut scratch) {
                Ok(0) => panic!("server closed early"),
                Ok(n) => got.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => panic!("client read failed: {e}"),
            }
            assert!(Instant::now() < deadline, "payload never fully arrived");
        }
        (got, pending_seen)
    }

    #[test]
    fn flush_coalesces_small_frames_in_order() {
        let (client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        let mut wire = Vec::new();
        for i in 0..40 {
            let frame = numbered(i, 5 + i % 7);
            wire.extend_from_slice(&frame);
            conn.enqueue(plain(frame));
        }
        assert_eq!(conn.queued_frames(), 40);
        // All forty fit any send buffer: one flush, one write, all retired.
        assert_eq!(conn.flush(), FlushOutcome::Clean);
        assert!(conn.flushed());
        assert_eq!(conn.queued_frames(), 0);
        let (got, _) = pump(&mut conn, &client, wire.len());
        assert_eq!(got, wire);
        // The queue restarts cleanly after a full flush.
        conn.enqueue(plain(vec![9, 9, 9]));
        assert_eq!(conn.flush(), FlushOutcome::Clean);
        assert_eq!(pump(&mut conn, &client, 3).0, vec![9, 9, 9]);
    }

    #[test]
    fn flush_handles_partial_writes_and_drains() {
        let (client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        // Far more than any socket buffer: the kernel cuts the coalesced
        // write wherever it likes (mid-frame), several times over.
        let frames = 64;
        let mut wire = Vec::new();
        for i in 0..frames {
            let frame = numbered(i, (512 << 10) + i);
            wire.extend_from_slice(&frame);
            conn.enqueue(plain(frame));
        }
        let (got, pending_seen) = pump(&mut conn, &client, wire.len());
        assert!(pending_seen, "32 MiB must not fit in one send buffer");
        assert!(got == wire, "bytes reordered or lost across partial writes");
        assert_eq!(conn.flush(), FlushOutcome::Clean);
        assert!(conn.flushed());
    }

    /// Where a short write stops is the kernel's choice, so the two cases
    /// that matter are staged through the accounting `flush` itself uses:
    /// a write ending mid-frame, and one ending exactly between frames.
    #[test]
    fn flush_resumes_after_short_write_mid_frame_and_on_boundary() {
        for (sent, frames_left) in [(15, 2), (20, 1), (0, 3), (29, 1)] {
            let (client, server) = pair();
            let handle = std::sync::Arc::new(ConnHandle::new(0));
            let mut conn = Conn::new(server, handle).unwrap();
            let mut wire = Vec::new();
            for i in 0..3 {
                let frame = numbered(i, 10);
                wire.extend_from_slice(&frame);
                conn.enqueue(plain(frame));
            }
            conn.mark_sent(sent);
            assert_eq!(conn.queued_frames(), frames_left, "after {sent} bytes");
            assert!(!conn.flushed());
            assert_eq!(conn.flush(), FlushOutcome::Clean);
            assert!(conn.flushed());
            let rest = pump(&mut conn, &client, wire.len() - sent).0;
            assert_eq!(rest, &wire[sent..], "resume point after {sent} bytes");
        }
    }

    #[test]
    fn handle_mailbox_queues_and_dedups() {
        let handle = ConnHandle::new(3);
        assert!(!handle.mark_queued(), "first registration wins");
        assert!(handle.mark_queued(), "second is deduped");
        handle.push(plain(vec![1, 2, 3]));
        handle.clear_queued();
        let drained = handle.take();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].buf, vec![1, 2, 3]);
        assert!(handle.take().is_empty());
        assert!(!handle.mark_queued(), "re-armed after clear_queued");
        assert!(!handle.is_closed());
        handle.set_closed();
        assert!(handle.is_closed());
    }

    #[test]
    fn poisoned_mailbox_still_delivers() {
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        handle.push(plain(vec![1]));
        let poisoner = std::sync::Arc::clone(&handle);
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.out.lock().unwrap();
            panic!("worker dies holding the mailbox");
        })
        .join();
        assert!(panicked.is_err() && handle.out.is_poisoned());
        // The loop and later workers carry on: nothing is lost.
        handle.push(plain(vec![2]));
        let drained: Vec<_> = handle.take().into_iter().map(|o| o.buf).collect();
        assert_eq!(drained, vec![vec![1], vec![2]]);
    }

    #[test]
    fn retired_waits_for_the_window_to_empty() {
        let (_client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        // Half-closed peer, nothing queued — but a reply is still owed:
        // the slot must not be reclaimed.
        conn.read_closed = true;
        conn.window.inflight.lock().unwrap().insert(7);
        assert!(!conn.retired(), "reply in flight, cannot retire");

        let mut reply = plain(vec![1]);
        reply.retire_correlation = Some(7);
        conn.absorb(reply);
        assert_eq!(conn.window.depth(), 0, "correlation retired at transfer");
        assert!(!conn.retired(), "reply queued but not yet written");
        conn.mark_sent(1);
        assert!(conn.retired());
    }

    #[test]
    fn absorb_retires_only_its_own_correlation() {
        let (_client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        conn.window.inflight.lock().unwrap().extend([7, 8]);

        let mut reply = plain(vec![1]);
        reply.retire_correlation = Some(7);
        conn.absorb(reply);
        assert_eq!(conn.window.depth(), 1, "correlation 8 is still in flight");
        // A control reply carries no correlation to retire.
        conn.absorb(plain(vec![2]));
        assert_eq!(conn.window.depth(), 1);
        assert_eq!(conn.queued_frames(), 2);
    }

    #[test]
    fn wants_read_gates_on_backlog_and_buffer_cap() {
        let (_client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        let cap = 4;
        assert!(conn.wants_read(cap));
        for _ in 0..cap {
            conn.enqueue(plain(vec![0]));
        }
        assert!(!conn.wants_read(cap), "outbound at cap pauses reads");
        // The cap counts frames, not bytes: retiring one (its byte sent)
        // reopens the read, a lone unsent byte would not have closed it.
        conn.mark_sent(1);
        assert!(conn.wants_read(cap), "one frame retired, back under cap");
        conn.mark_sent(cap - 1);
        assert!(conn.flushed());
        conn.frames.feed(&vec![0u8; READ_BUFFER_CAP]);
        assert!(!conn.wants_read(cap), "full frame buffer pauses reads");
    }

    #[test]
    fn fill_stops_reading_at_the_buffer_cap() {
        let (client, server) = pair();
        let handle = std::sync::Arc::new(ConnHandle::new(0));
        let mut conn = Conn::new(server, handle).unwrap();
        // A flood far past the cap — more than kernel socket buffers could
        // ever absorb — written from a helper thread (the write blocks
        // once server-side buffers stop draining, and errors out when the
        // test drops the connection).
        let flood = READ_BUFFER_CAP + (64 << 20);
        let writer = std::thread::spawn(move || {
            let chunk = vec![0u8; 1 << 20];
            let mut sent = 0usize;
            while sent < flood {
                let n = (flood - sent).min(chunk.len());
                if (&client).write_all(&chunk[..n]).is_err() {
                    break;
                }
                sent += n;
            }
            drop(client);
        });
        let mut scratch = vec![0u8; 64 * 1024];
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while conn.frames.buffered_len() < READ_BUFFER_CAP {
            assert_ne!(conn.fill(&mut scratch), FillOutcome::Broken);
            assert!(Instant::now() < deadline, "cap never reached");
        }
        // However often fill is polled, the buffer must stay pinned at the
        // cap (one read burst of slack at most).
        for _ in 0..32 {
            assert_eq!(conn.fill(&mut scratch), FillOutcome::Open);
        }
        assert!(
            conn.frames.buffered_len() <= READ_BUFFER_CAP + scratch.len(),
            "buffered {} exceeds cap {} + slack",
            conn.frames.buffered_len(),
            READ_BUFFER_CAP
        );
        // `wants_read` now gates the socket off entirely.
        assert!(!conn.wants_read(usize::MAX));
        drop(conn);
        writer.join().unwrap();
    }
}
