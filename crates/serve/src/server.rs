//! TCP front end: accept thread, a fixed pool of event-loop threads
//! multiplexing nonblocking connections, graceful shutdown.
//!
//! The accept thread hands each new socket to one of
//! [`ServeConfig::event_threads`] event loops (round-robin). A loop owns a
//! slab of [`Conn`] state machines and runs a classic readiness cycle:
//! rebuild the poll set (wake pipe + every live socket, write interest only
//! when a connection has queued output), poll, then for each ready
//! connection read-and-decode frames ([`hpnn_bytes::FrameBuffer`]) and
//! flush the outbound queue. `INFER` and `INFER_BATCH` frames are admitted
//! into the scheduler with a per-connection in-flight window; control
//! frames are answered inline.
//!
//! Batch-worker completions never touch a socket: they encode the reply,
//! push it into the connection's [`ConnHandle`] mailbox and register the
//! handle on the owning loop's dirty list; once a batch has mailboxed all
//! of its replies the scheduler pokes each touched loop's wake pipe once
//! (a completion resolved outside a batch pokes at once). The loop
//! transfers mailboxed replies to the connection's outbound queue
//! (recording the `writeback` histogram sample at transfer, before the
//! socket write, so a reply the client has received is always already
//! counted) and writes the queue out in one `write` per flush, as far as
//! the socket allows. The poll timeout is a safety net only — no reply
//! depends on it or on unrelated traffic to reach the wire. A reply whose
//! connection died in the meantime is drained and counted the same way,
//! keeping `writeback.count == replies_ok` exact.
//!
//! Backpressure mirrors the old reader/writer design: decoding stops while
//! a connection's outbound queue holds `max_inflight_per_conn + 16` frames,
//! and — crucially — so does *reading* ([`Conn::wants_read`] gates both
//! the poll interest and the `read` call, additionally bounding undecoded
//! bytes at [`crate::conn::READ_BUFFER_CAP`]). With the socket unread, the
//! kernel receive buffer fills and TCP genuinely pushes back on the
//! client; decode and reads resume once a flush makes room. In-flight
//! admission past the window is shed with `BUSY`, and a slow reader only
//! ever stalls itself — its socket simply stays write-pending in the poll
//! set.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use hpnn_bytes::{BytesMut, FrameTooLong};
use hpnn_tensor::TensorError;

use crate::config::ServeConfig;
use crate::conn::{Conn, ConnHandle, FillOutcome, FlushOutcome, Outbound};
use crate::event::{fd_of, AcceptBackoff, Poller, Ready, WakePipe, Waker};
use crate::expose::Endpoint;
use crate::metrics::{Metrics, StatsSnapshot};
use crate::protocol::{
    split_frame, ErrorCode, InferMode, Reply, Request, WireError, PROTOCOL_VERSION,
};
use crate::registry::ServeRegistry;
use crate::scheduler::{Completion, ReplyPayload, Scheduler, SubmitError};

/// How long a stopping event loop keeps trying to flush queued replies to
/// slow or unresponsive peers before closing their sockets anyway.
const STOP_FLUSH_GRACE: Duration = Duration::from_secs(2);

/// A running server; dropping the handle does **not** stop it — call
/// [`shutdown`](Server::shutdown) or send a `SHUTDOWN` frame.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Mutex<Option<thread::JoinHandle<()>>>,
    loop_threads: Mutex<Vec<thread::JoinHandle<()>>>,
    /// The scrape endpoint, when `ServeConfig::metrics_addr` is set.
    endpoint: Option<Endpoint>,
}

/// A freshly accepted socket on its way to an event loop.
struct Incoming {
    stream: TcpStream,
    /// False for connections accepted after shutdown began (including the
    /// accept-poke): they are served — never silently dropped — but kept
    /// out of `metrics.connections`.
    counted: bool,
}

/// One event loop's cross-thread surface: the wake pipe, the dirty list of
/// connection handles with mailboxed replies, and the hand-off queue of
/// freshly accepted sockets.
struct LoopShared {
    pipe: WakePipe,
    waker: Waker,
    dirty: Mutex<Vec<Arc<ConnHandle>>>,
    incoming: Mutex<Vec<Incoming>>,
}

impl LoopShared {
    fn new() -> io::Result<LoopShared> {
        let pipe = WakePipe::new()?;
        let waker = pipe.waker();
        Ok(LoopShared {
            pipe,
            waker,
            dirty: Mutex::new(Vec::new()),
            incoming: Mutex::new(Vec::new()),
        })
    }

    /// The dirty list, poison-tolerant: it is only pushed to or taken
    /// whole, so a batch worker that panicked holding it leaves it valid,
    /// and must not be able to take the event loop down through it.
    fn dirty_list(&self) -> MutexGuard<'_, Vec<Arc<ConnHandle>>> {
        self.dirty.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub(crate) struct Shared {
    scheduler: Scheduler,
    metrics: Arc<Metrics>,
    stopping: AtomicBool,
    /// Set when the accept thread has exited: no further connections can
    /// arrive, so event loops may finish their slabs and return.
    accept_done: AtomicBool,
    /// Serializes the drain so exactly one actor runs it.
    drain_done: Mutex<bool>,
    loops: Vec<Arc<LoopShared>>,
}

impl Shared {
    /// Stops admissions and completes queued work; idempotent and safe from
    /// any thread (including event loops serving `SHUTDOWN`).
    fn drain(&self) {
        self.stopping.store(true, Ordering::Release);
        let mut done = self.drain_done.lock().unwrap();
        if !*done {
            self.scheduler.drain();
            *done = true;
        }
    }

    /// Counter snapshot merged with the scheduler's per-shard histograms —
    /// the one shape STATS replies, [`Server::metrics`] and `/metrics` all
    /// serve.
    pub(crate) fn stats(&self) -> StatsSnapshot {
        let mut s = self.metrics.snapshot();
        s.shards = self.scheduler.shard_stats();
        s
    }

    /// False once a drain began.
    pub(crate) fn serving(&self) -> bool {
        !self.stopping.load(Ordering::Acquire)
    }
}

/// Resolves `cfg.event_threads` (0 = auto: available parallelism, capped
/// at 4 — the loops only shuffle bytes).
fn resolve_event_threads(cfg: &ServeConfig) -> usize {
    if cfg.event_threads > 0 {
        cfg.event_threads
    } else {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }
}

impl Server {
    /// Binds a listener (and the scrape endpoint's, when
    /// [`ServeConfig::metrics_addr`] is set), deploys every registry model
    /// (once; all of its shards share the deployment), and starts serving.
    ///
    /// # Errors
    ///
    /// I/O errors from binding or wake-pipe setup, or `InvalidData` when a
    /// stored model architecture fails to deploy.
    pub fn start(
        registry: ServeRegistry,
        cfg: ServeConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics_listener = cfg.metrics_addr.as_deref().map(TcpListener::bind);
        let metrics_listener = metrics_listener.transpose()?;
        let metrics = Arc::new(Metrics::new());
        let n_loops = resolve_event_threads(&cfg);
        let scheduler = Scheduler::start(&registry, cfg, Arc::clone(&metrics))
            .map_err(|e: TensorError| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut loops = Vec::with_capacity(n_loops);
        for _ in 0..n_loops {
            loops.push(Arc::new(LoopShared::new()?));
        }
        let shared = Arc::new(Shared {
            scheduler,
            metrics,
            stopping: AtomicBool::new(false),
            accept_done: AtomicBool::new(false),
            drain_done: Mutex::new(false),
            loops,
        });
        // Before any serving thread, so a failure here leaves none running.
        let endpoint = metrics_listener
            .map(|l| Endpoint::start(l, Arc::clone(&shared)))
            .transpose()?;
        let mut loop_threads = Vec::with_capacity(n_loops);
        for (i, lp) in shared.loops.iter().enumerate() {
            let shared = Arc::clone(&shared);
            let lp = Arc::clone(lp);
            loop_threads.push(
                thread::Builder::new()
                    .name(format!("hpnn-event-{i}"))
                    .spawn(move || event_loop(shared, lp))
                    .expect("spawn event loop"),
            );
        }
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("hpnn-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept loop");
        Ok(Server {
            addr: local,
            shared,
            accept_thread: Mutex::new(Some(accept_thread)),
            loop_threads: Mutex::new(loop_threads),
            endpoint,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Where the scrape endpoint (`/metrics`, `/healthz`, `/readyz`) is
    /// bound; `None` without [`ServeConfig::metrics_addr`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.endpoint.as_ref().map(Endpoint::addr)
    }

    /// A snapshot of the server's metrics, per-shard histograms included.
    pub fn metrics(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// Whether the server is still admitting new work — false once a drain
    /// began. `/readyz` answers 503 from then on, so load balancers stop
    /// routing to a draining node before its socket closes.
    pub fn is_serving(&self) -> bool {
        self.shared.serving()
    }

    /// Arms an injected panic on the next batch the named model's first
    /// live shard pops; returns false with no live shard. Test-only fault
    /// injection for the worker-panic recovery path.
    #[doc(hidden)]
    pub fn fail_next_batch(&self, model: u16) -> bool {
        self.shared.scheduler.fail_next_batch(model)
    }

    /// How many event-loop threads this server runs.
    pub fn event_threads(&self) -> usize {
        self.shared.loops.len()
    }

    /// Drains queued work, stops the accept and event-loop threads, and
    /// waits for them to exit; the scrape endpoint goes last, so `/readyz`
    /// answers 503 for the whole drain and its port is released on return.
    /// Idempotent; a client `SHUTDOWN` frame starts the drain, and
    /// [`join`](Server::join) finishes it.
    pub fn shutdown(&self) {
        self.shared.drain();
        // Unblock accept() with a throwaway connection aimed at the bound
        // address — except for wildcard binds (0.0.0.0 / ::), which are
        // not connectable on every platform and instead get the loopback
        // address at the bound port. (Loopback-always would break the
        // other way: a listener bound to a specific non-loopback address
        // does not answer on 127.0.0.1, so the poke would miss — or hit an
        // unrelated loopback listener — and join() would hang.)
        let poke: SocketAddr = if self.addr.ip().is_unspecified() {
            match self.addr {
                SocketAddr::V4(a) => (Ipv4Addr::LOCALHOST, a.port()).into(),
                SocketAddr::V6(a) => (Ipv6Addr::LOCALHOST, a.port()).into(),
            }
        } else {
            self.addr
        };
        let _ = TcpStream::connect_timeout(&poke, Duration::from_secs(1));
        if let Some(handle) = self.accept_thread.lock().unwrap().take() {
            let _ = handle.join();
        }
        for lp in &self.shared.loops {
            lp.waker.wake();
        }
        for handle in self.loop_threads.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        if let Some(endpoint) = &self.endpoint {
            endpoint.stop();
        }
    }

    /// Waits for the server to stop (e.g. after a client `SHUTDOWN`).
    pub fn join(&self) {
        // A SHUTDOWN-triggered drain stops admissions before the handler
        // replies, so once stopping is visible the accept poke below is
        // enough to release accept().
        while !self.shared.stopping.load(Ordering::Acquire) {
            thread::sleep(Duration::from_millis(5));
        }
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut backoff = AcceptBackoff::new();
    let mut next = 0usize;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff.on_success();
                // Read the stopping flag exactly once so counting and the
                // exit decision cannot disagree: a connection that raced
                // shutdown is handed to the event layer uncounted (a real
                // client gets clean `ShuttingDown` errors; the poke
                // connection just closes), never silently dropped.
                let stopping = shared.stopping.load(Ordering::Acquire);
                if !stopping {
                    Metrics::bump(&shared.metrics.connections);
                }
                let lp = &shared.loops[next % shared.loops.len()];
                next = next.wrapping_add(1);
                lp.incoming.lock().unwrap().push(Incoming {
                    stream,
                    counted: !stopping,
                });
                lp.waker.wake();
                if stopping {
                    break;
                }
            }
            Err(_) => {
                // Persistent failures (e.g. EMFILE) must not busy-spin:
                // back off exponentially, bounded, and count the error.
                Metrics::bump(&shared.metrics.accept_errors);
                if shared.stopping.load(Ordering::Acquire) {
                    break;
                }
                thread::sleep(backoff.on_error());
            }
        }
    }
    // Publish "no more connections" *after* the final hand-off above, then
    // wake every loop: they must not finish while a socket could still
    // land in an `incoming` queue nobody drains.
    shared.accept_done.store(true, Ordering::Release);
    for lp in &shared.loops {
        lp.waker.wake();
    }
}

/// Encodes a reply into a wire frame, stamping `LOGITS` replies for
/// writeback accounting.
fn encode_outbound(reply: &Reply, correlation: u32) -> Outbound {
    let mut out = BytesMut::new();
    reply.encode(&mut out, PROTOCOL_VERSION, correlation);
    let reply_ready = matches!(reply, Reply::Logits { .. }).then(Instant::now);
    Outbound {
        buf: out.into_vec(),
        reply_ready,
        retire_correlation: None,
    }
}

/// Records a `LOGITS` reply's `writeback` sample: hand-off to transfer.
fn record_writeback(metrics: &Metrics, out: &Outbound) {
    if let Some(ready) = out.reply_ready {
        metrics.writeback.record(ready.elapsed().as_nanos() as u64);
    }
}

/// Queues a reply directly on a connection owned by the current loop
/// thread (control replies, admission errors).
fn push_reply(conn: &mut Conn, reply: &Reply, correlation: u32) {
    conn.enqueue(encode_outbound(reply, correlation));
}

/// Counts a frame that failed to decode and answers it with the error's
/// typed code; the framing is intact, so the connection stays usable.
fn refuse_frame(shared: &Shared, conn: &mut Conn, e: &WireError, opcode: u8, correlation: u32) {
    Metrics::bump(&shared.metrics.protocol_errors);
    push_reply(
        conn,
        &Reply::Error {
            code: e.error_code(),
            request_opcode: opcode,
            message: e.to_string(),
        },
        correlation,
    );
}

/// Delivers an encoded reply from *outside* the owning loop thread
/// (batch-worker completions): mailbox the frame and register the handle
/// dirty. The correlation's retirement rides on the [`Outbound`]'s tag and
/// is applied by the loop thread at mailbox transfer.
///
/// Returns the wake the caller now owes the loop — every delivering
/// thread wakes for its own replies, so none waits on another thread's
/// progress. The scheduler fires it once the rest of the batch is
/// mailboxed too, or at once for a completion resolved on its own.
fn deliver(lp: &LoopShared, handle: &Arc<ConnHandle>, out: Outbound) -> Waker {
    handle.push(out);
    if !handle.mark_queued() {
        lp.dirty_list().push(Arc::clone(handle));
    }
    lp.waker.clone()
}

/// One event loop: owns a slab of connections and multiplexes all their
/// I/O on a single thread.
fn event_loop(shared: Arc<Shared>, lp: Arc<LoopShared>) {
    let mut slab: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut poller = Poller::new();
    let mut poll_slots: Vec<usize> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let outbound_cap = shared.scheduler.config().max_inflight_per_conn + 16;
    let mut stop_deadline: Option<Instant> = None;

    loop {
        // Rebuild the poll set from the slab: poll(2) is stateless, so
        // there is no registration bookkeeping to keep consistent.
        poller.clear();
        poll_slots.clear();
        let wake_idx = poller.register(
            lp.pipe.fd(),
            Ready {
                readable: true,
                writable: false,
            },
        );
        for (slot, conn) in slab.iter().enumerate() {
            if let Some(c) = conn {
                poller.register(
                    fd_of(&c.stream),
                    Ready {
                        // Read interest drops while decode is stalled
                        // (outbound backlog, full frame buffer) so TCP
                        // backpressure reaches the client;
                        // POLLERR/POLLHUP still surface regardless.
                        readable: c.wants_read(outbound_cap),
                        writable: !c.flushed(),
                    },
                );
                poll_slots.push(slot);
            }
        }
        let stopping = shared.stopping.load(Ordering::Acquire);
        let timeout = if stopping {
            Duration::from_millis(5)
        } else {
            Duration::from_millis(200)
        };
        match poller.poll(timeout) {
            Ok(n) => {
                if n > 0 {
                    Metrics::add(&shared.metrics.loop_events, n as u64);
                }
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }

        if poller.ready(wake_idx).readable {
            let wakes = lp.pipe.drain();
            Metrics::add(&shared.metrics.wakeups, wakes);
        }

        // Adopt freshly accepted sockets.
        let incoming = std::mem::take(&mut *lp.incoming.lock().unwrap());
        for inc in incoming {
            let slot = free.pop().unwrap_or_else(|| {
                slab.push(None);
                slab.len() - 1
            });
            let handle = Arc::new(ConnHandle::new(slot));
            match Conn::new(inc.stream, Arc::clone(&handle)) {
                Ok(mut conn) => {
                    conn.counted = inc.counted;
                    slab[slot] = Some(conn);
                    Metrics::bump(&shared.metrics.open_connections);
                }
                Err(_) => free.push(slot),
            }
        }

        // Transfer mailboxed completion replies into their connections'
        // outbound queues. A handle whose slot was reclaimed (client left
        // while the batch ran) is drained and *counted* anyway so
        // `writeback.count == replies_ok` stays exact.
        let dirty = std::mem::take(&mut *lp.dirty_list());
        for handle in dirty {
            handle.clear_queued();
            let replies = handle.take();
            if replies.is_empty() {
                continue;
            }
            let alive = slab
                .get(handle.token)
                .and_then(|s| s.as_ref())
                .is_some_and(|c| Arc::ptr_eq(&c.handle, &handle));
            for out in replies {
                record_writeback(&shared.metrics, &out);
                if alive {
                    let conn = slab[handle.token].as_mut().expect("alive slot");
                    conn.absorb(out);
                }
            }
        }

        // Drive every live connection: read + decode + dispatch, flush,
        // reclaim. Readiness gates the `read` syscall; decode and flush
        // run unconditionally — both no-op cheaply when there is nothing
        // to do, and replies queued by the transfer above must not wait
        // for another poll cycle.
        // `poll_slots` ascends in slab order, so a cursor pairs each live
        // slot with its poll entry in one pass.
        let mut poll_cursor = 0usize;
        for (slot, entry) in slab.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else {
                continue;
            };
            let ready = if poll_slots.get(poll_cursor) == Some(&slot) {
                poll_cursor += 1;
                poller.ready(wake_idx + poll_cursor)
            } else {
                // Adopted after the poll set was built this iteration.
                Ready::default()
            };
            let mut broken = false;
            // Re-check `wants_read`: the mailbox transfer above may have
            // grown the outbound queue past the cap since interest was
            // registered.
            if ready.readable && conn.wants_read(outbound_cap) {
                match conn.fill(&mut scratch) {
                    FillOutcome::Open => {}
                    FillOutcome::Eof => conn.read_closed = true,
                    FillOutcome::Broken => broken = true,
                }
            }
            if !broken {
                dispatch_frames(&shared, &lp, conn, outbound_cap);
            }
            if !broken && !conn.flushed() {
                broken = conn.flush() == FlushOutcome::Broken;
            }
            if broken || (conn.closing && conn.flushed()) || conn.retired() {
                let conn = entry.take().expect("slot");
                conn.handle.set_closed();
                // Late replies already mailboxed still count (see above).
                for out in conn.handle.take() {
                    record_writeback(&shared.metrics, &out);
                }
                Metrics::drop_one(&shared.metrics.open_connections);
                free.push(slot);
            }
        }

        if stopping {
            // Completions may still be in flight on batch workers; drain
            // blocks (idempotently) until every one has delivered into a
            // mailbox, so the emptiness checks below are conclusive.
            shared.drain();
            // The accept thread can still hand over one last racing
            // connection (or the shutdown poke); finishing before it has
            // exited would strand that socket in `incoming` forever.
            // `accept_done` is published *after* the final hand-off, so
            // loading it before the emptiness checks makes them final.
            if !shared.accept_done.load(Ordering::Acquire) {
                continue;
            }
            if stop_deadline.is_none() {
                stop_deadline = Some(Instant::now() + STOP_FLUSH_GRACE);
            }
            let flushed = slab.iter().flatten().all(|c| c.flushed());
            let idle =
                flushed && lp.dirty_list().is_empty() && lp.incoming.lock().unwrap().is_empty();
            if idle || Instant::now() >= stop_deadline.expect("set above") {
                // Sweep remaining mailboxes for exact writeback accounting.
                for conn in slab.iter().flatten() {
                    conn.handle.set_closed();
                    for out in conn.handle.take() {
                        record_writeback(&shared.metrics, &out);
                    }
                }
                let open = slab.iter().flatten().count() as u64;
                if open > 0 {
                    shared
                        .metrics
                        .open_connections
                        .fetch_sub(open, Ordering::Relaxed);
                }
                return;
            }
        }
    }
}

/// Decodes and dispatches every complete frame a connection has buffered,
/// honoring fatal-error closes and the outbound-queue backpressure cap.
fn dispatch_frames(shared: &Arc<Shared>, lp: &Arc<LoopShared>, conn: &mut Conn, cap: usize) {
    loop {
        if conn.queued_frames() >= cap {
            // Outbound full: stop decoding; TCP backpressure reaches the
            // client once its socket buffers fill. Decode resumes after a
            // flush makes room.
            return;
        }
        let payload = match conn.next_frame() {
            Ok(Some(p)) => p,
            Ok(None) => return,
            Err(FrameTooLong { declared, max }) => {
                // Lying length prefix: the stream cannot be resynchronized.
                // Say so, then close.
                Metrics::bump(&shared.metrics.protocol_errors);
                push_reply(
                    conn,
                    &Reply::Error {
                        code: ErrorCode::Malformed,
                        request_opcode: 0,
                        message: format!("frame declares {declared} bytes, cap is {max}"),
                    },
                    0,
                );
                conn.closing = true;
                return;
            }
        };
        dispatch_one(shared, lp, conn, &payload);
    }
}

/// Handles one framed request on the loop thread.
fn dispatch_one(shared: &Arc<Shared>, lp: &Arc<LoopShared>, conn: &mut Conn, payload: &[u8]) {
    let (_, opcode, correlation, body) = match split_frame(payload) {
        Ok(parts) => parts,
        Err(e) => {
            // Another version's frame or one too short for a header:
            // where its correlation would sit is unknown, so answer at 0.
            refuse_frame(shared, conn, &e, payload.get(1).copied().unwrap_or(0), 0);
            return;
        }
    };
    let request = match Request::decode_body(opcode, &body) {
        Ok(r) => r,
        Err(e) => {
            refuse_frame(shared, conn, &e, opcode, correlation);
            return;
        }
    };
    match request {
        Request::Hello { .. } => {
            push_reply(
                conn,
                &Reply::HelloOk {
                    version: PROTOCOL_VERSION,
                    models: shared.scheduler.models(),
                },
                correlation,
            );
        }
        Request::Infer {
            model,
            mode,
            deadline_us,
            rows,
            cols,
            data,
        } => {
            let args = InferArgs {
                model,
                mode,
                deadline_us,
                rows,
                cols,
                data,
                opcode,
            };
            admit(shared, lp, conn, correlation, args);
        }
        Request::Stats => {
            push_reply(conn, &Reply::StatsOk(Box::new(shared.stats())), correlation);
        }
        Request::Shutdown => {
            // Drain first: every outstanding completion (this connection's
            // included) resolves into its mailbox before SHUTDOWN_OK goes
            // out; pulling this connection's mailbox here keeps its replies
            // ahead of the SHUTDOWN_OK on the wire.
            shared.drain();
            for out in conn.handle.take() {
                record_writeback(&shared.metrics, &out);
                conn.absorb(out);
            }
            push_reply(conn, &Reply::ShutdownOk, correlation);
            conn.closing = true;
        }
    }
}

struct InferArgs {
    model: u16,
    mode: InferMode,
    deadline_us: u32,
    rows: usize,
    cols: usize,
    data: Vec<f32>,
    opcode: u8,
}

fn submit_error_reply(e: &SubmitError, opcode: u8) -> Reply {
    let code = match e {
        SubmitError::UnknownModel(_) => ErrorCode::UnknownModel,
        SubmitError::KeyUnavailable(_) => ErrorCode::KeyUnavailable,
        SubmitError::BadWidth { .. } => ErrorCode::BadWidth,
        SubmitError::BadRows { .. } => ErrorCode::TooManyRows,
        SubmitError::BadLength { .. } => ErrorCode::Malformed,
        SubmitError::ShuttingDown => ErrorCode::ShuttingDown,
        SubmitError::WorkerFailed => ErrorCode::Internal,
        SubmitError::Busy => unreachable!("Busy maps to Reply::Busy, not ERROR"),
    };
    Reply::Error {
        code,
        request_opcode: opcode,
        message: e.to_string(),
    }
}

fn payload_reply(payload: ReplyPayload, opcode: u8) -> Reply {
    match payload {
        ReplyPayload::Logits { rows, cols, data } => Reply::Logits { rows, cols, data },
        ReplyPayload::Expired => Reply::Error {
            code: ErrorCode::DeadlineExceeded,
            request_opcode: opcode,
            message: "deadline passed while queued".into(),
        },
        ReplyPayload::Aborted => Reply::Error {
            code: ErrorCode::Internal,
            request_opcode: opcode,
            message: "batch worker exited before reply".into(),
        },
        ReplyPayload::Failed { code } => Reply::Error {
            code,
            request_opcode: opcode,
            message: code.to_string(),
        },
    }
}

fn deadline_from_us(deadline_us: u32) -> Option<Instant> {
    if deadline_us == 0 {
        None
    } else {
        Some(Instant::now() + Duration::from_micros(u64::from(deadline_us)))
    }
}

/// Admits one inference without blocking; the completion (fired by a batch
/// worker) encodes the reply into the connection's mailbox, echoing the
/// correlation ID.
fn admit(
    shared: &Arc<Shared>,
    lp: &Arc<LoopShared>,
    conn: &mut Conn,
    correlation: u32,
    args: InferArgs,
) {
    if args.data.len() != args.rows.saturating_mul(args.cols) {
        push_reply(
            conn,
            &Reply::Error {
                code: ErrorCode::Malformed,
                request_opcode: args.opcode,
                message: format!(
                    "{} values for {}x{} input",
                    args.data.len(),
                    args.rows,
                    args.cols
                ),
            },
            correlation,
        );
        return;
    }
    let depth = {
        let mut inflight = conn.window.inflight.lock().unwrap();
        if inflight.contains(&correlation) {
            Metrics::bump(&shared.metrics.protocol_errors);
            drop(inflight);
            push_reply(
                conn,
                &Reply::Error {
                    code: ErrorCode::DuplicateCorrelation,
                    request_opcode: args.opcode,
                    message: format!("correlation {correlation} is already in flight"),
                },
                correlation,
            );
            return;
        }
        if inflight.len() >= shared.scheduler.config().max_inflight_per_conn {
            Metrics::bump(&shared.metrics.busy);
            drop(inflight);
            push_reply(conn, &Reply::Busy, correlation);
            return;
        }
        // Reserve the slot before submitting so the completion — which may
        // fire on a worker thread before submit_with even returns — always
        // finds the correlation registered.
        inflight.insert(correlation);
        inflight.len() as u64
    };
    let deadline = deadline_from_us(args.deadline_us);
    let opcode = args.opcode;
    let completion_lp = Arc::clone(lp);
    let completion_handle = Arc::clone(&conn.handle);
    let done = Completion::new(move |payload| {
        let reply = payload_reply(payload, opcode);
        let mut out = encode_outbound(&reply, correlation);
        // The correlation retires on the loop thread when this reply
        // transfers to the outbound queue — not here. Retiring early would
        // let the loop observe a half-closed connection with window depth
        // 0 while the reply still sits in the mailbox, reclaim the slot,
        // and drop the reply on the floor. Transfer-time retirement is
        // still soon enough for reuse: the client cannot resend the
        // correlation before receiving this reply, which the loop only
        // flushes after absorbing it.
        out.retire_correlation = Some(correlation);
        Some(deliver(&completion_lp, &completion_handle, out))
    });
    let submitted = shared.scheduler.submit_with(
        args.model, args.mode, args.rows, args.cols, args.data, deadline, done,
    );
    match submitted {
        Ok(()) => {
            shared.metrics.depth.record_value(depth);
        }
        Err((e, done)) => {
            done.dismiss();
            conn.window.inflight.lock().unwrap().remove(&correlation);
            let reply = if matches!(e, SubmitError::Busy) {
                Metrics::bump(&shared.metrics.busy);
                Reply::Busy
            } else {
                submit_error_reply(&e, opcode)
            };
            push_reply(conn, &reply, correlation);
        }
    }
}
