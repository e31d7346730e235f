//! Blocking client for the `hpnn-serve` wire protocol.
//!
//! [`Session`] is the one client type: [`submit`](Session::submit) writes a
//! correlation-tagged request and returns a [`Ticket`] immediately, so many
//! requests ride one connection concurrently; [`wait`](Session::wait)
//! blocks until that ticket's reply arrives — stashing any other tickets'
//! replies that land first — [`drain`](Session::drain) collects everything
//! outstanding, and [`infer`](Session::infer) is submit-then-wait for
//! callers that want one answer at a time.
//!
//! Every fallible call reports a typed [`ServeError`]; a successful
//! inference yields [`Logits`].

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write as IoWrite};
use std::net::{TcpStream, ToSocketAddrs};

use hpnn_bytes::{BytesMut, FrameReader};

use crate::metrics::StatsSnapshot;
use crate::protocol::{
    ErrorCode, InferMode, ModelInfo, Reply, Request, WireError, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};

/// Typed error for every [`Session`] call.
///
/// The first three variants are *server verdicts* — the connection is intact
/// and the request was understood, but it was not served. The remaining
/// variants are transport or protocol failures, after which the session
/// should be discarded.
#[derive(Debug)]
pub enum ServeError {
    /// Queue (or per-connection window) full; retry later.
    Busy,
    /// The request expired in queue (`ErrorCode::DeadlineExceeded`).
    Expired,
    /// The server answered with any other typed `ERROR` reply.
    Refused {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// A frame arrived but did not decode as the expected reply.
    Protocol(WireError),
    /// Transport failure.
    Io(io::Error),
    /// The server closed the connection while a reply was expected.
    Disconnected,
}

impl ServeError {
    /// True for failures of the connection itself (I/O, framing, EOF) —
    /// after these the session is unusable. Server verdicts (`Busy`,
    /// `Expired`, `Refused`) leave it healthy.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            ServeError::Protocol(_) | ServeError::Io(_) | ServeError::Disconnected
        )
    }

    /// The wire `ErrorCode` this error corresponds to, when one exists
    /// (`Busy` rides its own reply opcode, not an `ERROR` code).
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ServeError::Expired => Some(ErrorCode::DeadlineExceeded),
            ServeError::Refused { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy => write!(f, "server busy; retry later"),
            ServeError::Expired => write!(f, "request deadline passed while queued"),
            ServeError::Refused { code, message } => {
                write!(f, "server refused ({code}): {message}")
            }
            ServeError::Protocol(e) => write!(f, "protocol error: {e}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Protocol(e)
    }
}

/// Row-major logits from one successful inference.
#[derive(Debug, Clone, PartialEq)]
pub struct Logits {
    /// Samples answered.
    pub rows: usize,
    /// Logits per sample.
    pub cols: usize,
    /// `rows * cols` values, bit-exact as computed server-side.
    pub data: Vec<f32>,
}

/// Receipt for one submitted request; redeem with [`Session::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket {
    correlation: u32,
}

impl Ticket {
    /// The correlation ID carried on the wire.
    pub fn correlation(&self) -> u32 {
        self.correlation
    }
}

/// A pipelined connection to an `hpnn-serve` server.
pub struct Session {
    stream: TcpStream,
    reader: FrameReader<TcpStream>,
    helloed: bool,
    next_correlation: u32,
    /// Outstanding infer correlations in submission order.
    pending: VecDeque<u32>,
    /// Replies that arrived while waiting for a different ticket.
    stash: HashMap<u32, Reply>,
    models: Vec<ModelInfo>,
}

/// One drained ticket paired with its per-request server verdict, as
/// returned by [`Session::drain`].
pub type DrainedTicket = (Ticket, Result<Logits, ServeError>);

impl Session {
    /// Connects with `TCP_NODELAY` (small latency-sensitive frames).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Session> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = FrameReader::new(stream.try_clone()?, MAX_FRAME_PAYLOAD);
        Ok(Session {
            stream,
            reader,
            helloed: false,
            next_correlation: 1,
            pending: VecDeque::new(),
            stash: HashMap::new(),
            models: Vec::new(),
        })
    }

    /// Model list from the last HELLO (empty before any handshake).
    pub fn models(&self) -> &[ModelInfo] {
        &self.models
    }

    /// Outstanding tickets not yet waited on.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Bounds every blocking receive on this session: `None` restores
    /// waiting forever. Useful in tests and probes where a dead server
    /// must surface as an error instead of a hang.
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Half-closes the connection: no more requests will be sent, but
    /// replies to everything already submitted can still be received
    /// (send → `shutdown(WR)` → read). The server holds the connection
    /// until every in-flight reply is on the wire.
    ///
    /// # Errors
    ///
    /// Propagates the socket shutdown failure.
    pub fn shutdown_write(&self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }

    fn fresh_correlation(&mut self) -> u32 {
        let c = self.next_correlation;
        self.next_correlation = self.next_correlation.wrapping_add(1).max(1);
        c
    }

    /// Sends one request frame with a fresh correlation ID, returning that
    /// ID.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send(&mut self, req: &Request) -> io::Result<u32> {
        let correlation = self.fresh_correlation();
        let mut out = BytesMut::new();
        req.encode(&mut out, PROTOCOL_VERSION, correlation);
        self.stream.write_all(&out)?;
        Ok(correlation)
    }

    /// Sends raw bytes, bypassing the protocol encoder (tests use this to
    /// deliver malformed frames).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Receives and decodes one reply frame as `(correlation, reply)`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] on clean EOF, otherwise transport or
    /// decode failures.
    pub fn recv(&mut self) -> Result<(u32, Reply), ServeError> {
        let payload = self.reader.next_frame()?.ok_or(ServeError::Disconnected)?;
        let (_, correlation, reply) = Reply::decode(&payload)?;
        Ok((correlation, reply))
    }

    /// Handshakes and returns the server's model list.
    ///
    /// # Errors
    ///
    /// Transport, decode, or unexpected-reply failures, and
    /// [`WireError::BadVersion`] when the server announces a version other
    /// than [`PROTOCOL_VERSION`].
    pub fn hello(&mut self, client_name: &str) -> Result<Vec<ModelInfo>, ServeError> {
        let reply = self.control(&Request::Hello {
            client: client_name.to_string(),
        })?;
        match reply {
            Reply::HelloOk { version, models } => {
                if version != PROTOCOL_VERSION {
                    return Err(ServeError::Protocol(WireError::BadVersion(version)));
                }
                self.helloed = true;
                self.models = models.clone();
                Ok(models)
            }
            Reply::Error { code, message, .. } => Err(server_error(code, message)),
            other => Err(unexpected(&other, "hello reply")),
        }
    }

    /// Submits an inference request and returns its ticket without waiting
    /// for the reply. The first submit on a fresh session performs an
    /// implicit HELLO so the server's version is checked before pipelining.
    ///
    /// # Errors
    ///
    /// Transport failures (and handshake failures on the implicit HELLO).
    pub fn submit(
        &mut self,
        model: u16,
        mode: InferMode,
        deadline_us: u32,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    ) -> Result<Ticket, ServeError> {
        if !self.helloed {
            self.hello("hpnn-session")?;
        }
        let correlation = self.send(&Request::Infer {
            model,
            mode,
            deadline_us,
            rows,
            cols,
            data,
        })?;
        self.pending.push_back(correlation);
        Ok(Ticket { correlation })
    }

    /// Blocks until `ticket`'s reply arrives, stashing any other tickets'
    /// replies that land first.
    ///
    /// # Errors
    ///
    /// A server verdict ([`ServeError::Busy`], [`ServeError::Expired`],
    /// [`ServeError::Refused`]) leaves the session usable; transport/decode
    /// failures do not.
    pub fn wait(&mut self, ticket: Ticket) -> Result<Logits, ServeError> {
        loop {
            if let Some(reply) = self.stash.remove(&ticket.correlation) {
                return outcome(reply);
            }
            if !self.pending.contains(&ticket.correlation) {
                // Already waited on (or never submitted here).
                return Err(ServeError::Protocol(WireError::BadTag {
                    context: "unknown ticket",
                    tag: 0,
                }));
            }
            let (correlation, reply) = self.recv()?;
            self.pending.retain(|&c| c != correlation);
            if correlation == ticket.correlation {
                return outcome(reply);
            }
            self.stash.insert(correlation, reply);
        }
    }

    /// Runs `rows` samples through a model and waits for the logits:
    /// [`submit`](Session::submit) then [`wait`](Session::wait).
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]: server verdicts (`Busy`, `Expired`, `Refused`)
    /// or transport/decode failures.
    pub fn infer(
        &mut self,
        model: u16,
        mode: InferMode,
        deadline_us: u32,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
    ) -> Result<Logits, ServeError> {
        let ticket = self.submit(model, mode, deadline_us, rows, cols, data)?;
        self.wait(ticket)
    }

    /// Waits for every outstanding ticket and returns `(ticket, result)`
    /// pairs in submission order. Per-ticket server verdicts land in the
    /// inner `Result`; only a transport/decode failure aborts the drain.
    ///
    /// # Errors
    ///
    /// Propagates the first transport/decode failure.
    pub fn drain(&mut self) -> Result<Vec<DrainedTicket>, ServeError> {
        let tickets: Vec<Ticket> = self
            .pending
            .iter()
            .map(|&correlation| Ticket { correlation })
            .collect();
        let mut out = Vec::with_capacity(tickets.len());
        for t in tickets {
            match self.wait(t) {
                Err(e) if e.is_transport() => return Err(e),
                res => out.push((t, res)),
            }
        }
        Ok(out)
    }

    /// Fetches the server's metrics snapshot.
    ///
    /// # Errors
    ///
    /// Transport, decode, or unexpected-reply failures.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ServeError> {
        match self.control(&Request::Stats)? {
            Reply::StatsOk(s) => Ok(*s),
            Reply::Error { code, message, .. } => Err(server_error(code, message)),
            other => Err(unexpected(&other, "stats reply")),
        }
    }

    /// Asks the server to drain and exit; returns once `SHUTDOWN_OK` lands.
    ///
    /// # Errors
    ///
    /// Transport, decode, or unexpected-reply failures.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.control(&Request::Shutdown)? {
            Reply::ShutdownOk => Ok(()),
            Reply::Error { code, message, .. } => Err(server_error(code, message)),
            other => Err(unexpected(&other, "shutdown reply")),
        }
    }

    /// Sends a control request and returns its own reply, stashing infer
    /// replies that arrive ahead of it.
    fn control(&mut self, req: &Request) -> Result<Reply, ServeError> {
        let correlation = self.send(req)?;
        loop {
            let (wire_corr, reply) = self.recv()?;
            if wire_corr == correlation {
                return Ok(reply);
            }
            self.pending.retain(|&c| c != wire_corr);
            self.stash.insert(wire_corr, reply);
        }
    }
}

fn outcome(reply: Reply) -> Result<Logits, ServeError> {
    match reply {
        Reply::Logits { rows, cols, data } => Ok(Logits { rows, cols, data }),
        Reply::Busy => Err(ServeError::Busy),
        Reply::Error { code, message, .. } => Err(server_error(code, message)),
        other => Err(unexpected(&other, "infer reply")),
    }
}

fn server_error(code: ErrorCode, message: String) -> ServeError {
    match code {
        ErrorCode::DeadlineExceeded => ServeError::Expired,
        code => ServeError::Refused { code, message },
    }
}

fn unexpected(r: &Reply, context: &'static str) -> ServeError {
    ServeError::Protocol(WireError::BadTag {
        context,
        tag: reply_discriminant(r),
    })
}

fn reply_discriminant(r: &Reply) -> u8 {
    match r {
        Reply::HelloOk { .. } => 0x81,
        Reply::Logits { .. } => 0x82,
        Reply::StatsOk(_) => 0x83,
        Reply::ShutdownOk => 0x84,
        Reply::Busy => 0x90,
        Reply::Error { .. } => 0xEE,
    }
}
