//! The `hpnn-serve` wire protocol.
//!
//! Every message is one length-prefixed frame ([`hpnn_bytes::Frame`]: a
//! little-endian `u32` payload length, then a version byte, an opcode byte,
//! a little-endian `u32` correlation ID, and an opcode-specific body). All
//! multi-byte integers are little-endian and inference inputs/outputs
//! travel as raw `f32` bits, so a logit row is bit-identical on both ends
//! of the wire.
//!
//! There is one version, [`PROTOCOL_VERSION`]. It is pipelined: every
//! request carries a correlation ID chosen by the client; replies echo it
//! and may arrive out of order. A frame whose first byte is anything else
//! is answered with `ERROR{BadVersion}` at correlation 0 — its header
//! layout is unknown, so no correlation is read out of it — and the
//! connection stays open.
//!
//! Requests: `HELLO`, `INFER` (one sample), `INFER_BATCH` (client-side
//! batch), `STATS` and `SHUTDOWN`. Replies: `HELLO_OK`, `LOGITS`, `STATS_OK`,
//! `SHUTDOWN_OK`, `BUSY` (backpressure), and `ERROR` (with a machine
//! [`ErrorCode`], the offending request opcode, plus a human message). A
//! malformed payload gets an `ERROR` reply and the connection stays open;
//! only a lying length prefix (payload larger than [`MAX_FRAME_PAYLOAD`])
//! closes the connection, because a byte stream cannot be resynchronized
//! past it.

use std::fmt;

use hpnn_bytes::{put_frame, Buf, BufMut, BytesMut, Frame};

use crate::metrics::{
    HistogramSnapshot, ShardStatsSnapshot, StatsSnapshot, HISTOGRAM_BUCKETS, STATS_ROWS,
};

/// The protocol version this build speaks; the first byte of every frame.
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard cap on a frame payload; anything larger is a protocol violation.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 24;

pub(crate) const OP_HELLO: u8 = 0x01;
pub(crate) const OP_INFER: u8 = 0x02;
pub(crate) const OP_INFER_BATCH: u8 = 0x03;
pub(crate) const OP_STATS: u8 = 0x04;
pub(crate) const OP_SHUTDOWN: u8 = 0x05;

pub(crate) const OP_HELLO_OK: u8 = 0x81;
pub(crate) const OP_LOGITS: u8 = 0x82;
pub(crate) const OP_STATS_OK: u8 = 0x83;
pub(crate) const OP_SHUTDOWN_OK: u8 = 0x84;
pub(crate) const OP_BUSY: u8 = 0x90;
pub(crate) const OP_ERROR: u8 = 0xEE;

/// Which deployment of a locked model a request runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InferMode {
    /// Trusted-device path: lock factors derived from the vaulted key.
    Keyed,
    /// Adversary path: stolen weights with no key (accuracy collapses).
    Keyless,
}

impl InferMode {
    fn to_u8(self) -> u8 {
        match self {
            InferMode::Keyed => 0,
            InferMode::Keyless => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(InferMode::Keyed),
            1 => Ok(InferMode::Keyless),
            tag => Err(WireError::BadTag {
                context: "infer mode",
                tag,
            }),
        }
    }
}

impl fmt::Display for InferMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferMode::Keyed => write!(f, "keyed"),
            InferMode::Keyless => write!(f, "keyless"),
        }
    }
}

/// Machine-readable error category carried by `ERROR` replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrorCode {
    /// Frame payload did not decode as a request.
    Malformed,
    /// Request version byte is not [`PROTOCOL_VERSION`].
    BadVersion,
    /// Unknown opcode byte.
    BadOpcode,
    /// Model id not present in the registry.
    UnknownModel,
    /// Input width differs from the model's `in_features`.
    BadWidth,
    /// Keyed mode requested but the server holds no vault for the model.
    KeyUnavailable,
    /// Request exceeded its deadline while queued.
    DeadlineExceeded,
    /// Server is draining and accepts no new inference work.
    ShuttingDown,
    /// A client batch exceeded the per-request row cap.
    TooManyRows,
    /// Internal failure (e.g. a worker died under the request).
    Internal,
    /// A request reused a correlation ID that is still in flight on the
    /// same connection.
    DuplicateCorrelation,
}

impl ErrorCode {
    /// The wire byte for this code.
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::BadVersion => 2,
            ErrorCode::BadOpcode => 3,
            ErrorCode::UnknownModel => 4,
            ErrorCode::BadWidth => 5,
            ErrorCode::KeyUnavailable => 6,
            ErrorCode::DeadlineExceeded => 7,
            ErrorCode::ShuttingDown => 8,
            ErrorCode::TooManyRows => 9,
            ErrorCode::Internal => 10,
            ErrorCode::DuplicateCorrelation => 11,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::BadVersion,
            3 => ErrorCode::BadOpcode,
            4 => ErrorCode::UnknownModel,
            5 => ErrorCode::BadWidth,
            6 => ErrorCode::KeyUnavailable,
            7 => ErrorCode::DeadlineExceeded,
            8 => ErrorCode::ShuttingDown,
            9 => ErrorCode::TooManyRows,
            10 => ErrorCode::Internal,
            11 => ErrorCode::DuplicateCorrelation,
            tag => {
                return Err(WireError::BadTag {
                    context: "error code",
                    tag,
                })
            }
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "malformed request",
            ErrorCode::BadVersion => "unsupported protocol version",
            ErrorCode::BadOpcode => "unknown opcode",
            ErrorCode::UnknownModel => "unknown model id",
            ErrorCode::BadWidth => "input width mismatch",
            ErrorCode::KeyUnavailable => "no key provisioned for model",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::ShuttingDown => "server shutting down",
            ErrorCode::TooManyRows => "too many rows in one request",
            ErrorCode::Internal => "internal server error",
            ErrorCode::DuplicateCorrelation => "correlation id already in flight",
        };
        f.write_str(s)
    }
}

/// Error decoding a frame payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload ended before a field was complete.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// Version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Opcode byte is not a known request/reply.
    BadOpcode(u8),
    /// An enum tag byte was invalid.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes followed a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => write!(f, "payload truncated in {context}"),
            WireError::BadVersion(v) => write!(f, "protocol version {v} unsupported"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadTag { context, tag } => write!(f, "invalid tag {tag} in {context}"),
            WireError::BadUtf8 => write!(f, "string field is not valid utf-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// The `ERROR`-reply code a server should attach for this decode error.
    pub fn error_code(&self) -> ErrorCode {
        match self {
            WireError::BadVersion(_) => ErrorCode::BadVersion,
            WireError::BadOpcode(_) => ErrorCode::BadOpcode,
            _ => ErrorCode::Malformed,
        }
    }
}

/// One registry entry as advertised by `HELLO_OK`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Wire id used by `INFER`/`INFER_BATCH`.
    pub id: u16,
    /// Human-readable model name.
    pub name: String,
    /// Input features per sample.
    pub in_features: usize,
    /// Logits per sample.
    pub out_features: usize,
    /// `true` if the server can run keyed (trusted-device) inference.
    pub has_key: bool,
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake; the server answers with its version and model list.
    Hello {
        /// Free-form client identifier (logged, never parsed).
        client: String,
    },
    /// Run `rows` samples through a model. Encoded as `INFER` when
    /// `rows == 1` and `INFER_BATCH` otherwise.
    Infer {
        /// Registry id of the target model.
        model: u16,
        /// Keyed (trusted) or keyless (adversary) deployment.
        mode: InferMode,
        /// Per-request deadline in microseconds from enqueue; 0 = none.
        deadline_us: u32,
        /// Samples in this request.
        rows: usize,
        /// Features per sample; must equal the model's `in_features`.
        cols: usize,
        /// Row-major input values, `rows * cols` long.
        data: Vec<f32>,
    },
    /// Fetch the server's counters and latency histograms.
    Stats,
    /// Drain queued work, stop accepting requests, and exit.
    Shutdown,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Handshake answer.
    HelloOk {
        /// The server's protocol version; clients refuse anything but
        /// [`PROTOCOL_VERSION`].
        version: u8,
        /// Models available on this server, in id order.
        models: Vec<ModelInfo>,
    },
    /// Logits for one `Infer` request.
    Logits {
        /// Samples answered.
        rows: usize,
        /// Logits per sample.
        cols: usize,
        /// Row-major logits, bit-exact as computed.
        data: Vec<f32>,
    },
    /// Backpressure: the model's queue (or this connection's in-flight
    /// window) is full, retry later.
    Busy,
    /// Counters and histograms snapshot (boxed: the six histograms make
    /// the snapshot by far the largest variant).
    StatsOk(Box<StatsSnapshot>),
    /// All in-flight work drained; the server is gone after this.
    ShutdownOk,
    /// The request failed; the connection remains usable.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Opcode of the request that failed (0 when unknown, e.g. a
        /// payload too short to carry one).
        request_opcode: u8,
        /// Human-readable detail.
        message: String,
    },
}

fn need(buf: &impl Buf, n: usize, context: &'static str) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated { context })
    } else {
        Ok(())
    }
}

fn put_str32(buf: &mut BytesMut, s: &str) {
    put_frame(buf, s.as_bytes());
}

fn get_str32(buf: &mut impl Buf, context: &'static str) -> Result<String, WireError> {
    let max = buf.remaining().saturating_sub(4);
    match hpnn_bytes::try_get_frame(buf, max) {
        Ok(Some(bytes)) => String::from_utf8(bytes).map_err(|_| WireError::BadUtf8),
        _ => Err(WireError::Truncated { context }),
    }
}

fn get_f32s(buf: &mut impl Buf, n: usize, context: &'static str) -> Result<Vec<f32>, WireError> {
    need(buf, n.saturating_mul(4), context)?;
    Ok((0..n).map(|_| buf.get_f32_le()).collect())
}

fn put_f32s(buf: &mut BytesMut, data: &[f32]) {
    for &v in data {
        buf.put_f32_le(v);
    }
}

/// Splits a frame payload into `(version, opcode, correlation, body)`.
/// The version byte is judged before the header length: a peer speaking
/// another version lays its header out differently (v1's was two bytes)
/// and must hear `BadVersion`, not `Truncated`.
///
/// # Errors
///
/// [`WireError::BadVersion`] when the first byte is not
/// [`PROTOCOL_VERSION`], [`WireError::Truncated`] when the header is
/// incomplete.
pub fn split_frame(payload: &[u8]) -> Result<(u8, u8, u32, Vec<u8>), WireError> {
    if let Some(&version) = payload.first().filter(|&&v| v != PROTOCOL_VERSION) {
        return Err(WireError::BadVersion(version));
    }
    let frame = Frame::parse(payload).map_err(|_| WireError::Truncated { context: "header" })?;
    Ok((
        frame.version,
        frame.opcode,
        frame.correlation,
        frame.payload,
    ))
}

fn finish<T>(buf: &impl Buf, msg: T) -> Result<T, WireError> {
    if buf.remaining() != 0 {
        return Err(WireError::TrailingBytes(buf.remaining()));
    }
    Ok(msg)
}

fn write_message(out: &mut BytesMut, version: u8, opcode: u8, correlation: u32, body: BytesMut) {
    Frame {
        version,
        opcode,
        correlation,
        payload: body.to_vec(),
    }
    .write(out);
}

impl Request {
    fn opcode(&self) -> u8 {
        match self {
            Request::Hello { .. } => OP_HELLO,
            Request::Infer { rows: 1, .. } => OP_INFER,
            Request::Infer { .. } => OP_INFER_BATCH,
            Request::Stats => OP_STATS,
            Request::Shutdown => OP_SHUTDOWN,
        }
    }

    /// Encodes the request as one framed wire message (length prefix
    /// included), appended to `out`. `version` is written to the header as
    /// given; every caller passes [`PROTOCOL_VERSION`].
    pub fn encode(&self, out: &mut BytesMut, version: u8, correlation: u32) {
        let mut p = BytesMut::new();
        match self {
            Request::Hello { client } => {
                put_str32(&mut p, client);
            }
            Request::Infer {
                model,
                mode,
                deadline_us,
                rows,
                cols,
                data,
            } => {
                debug_assert_eq!(rows * cols, data.len(), "row-major payload");
                p.put_u16_le(*model);
                p.put_u8(mode.to_u8());
                p.put_slice(&deadline_us.to_le_bytes());
                if *rows != 1 {
                    p.put_slice(&(*rows as u32).to_le_bytes());
                }
                p.put_slice(&(*cols as u32).to_le_bytes());
                put_f32s(&mut p, data);
            }
            Request::Stats | Request::Shutdown => {}
        }
        write_message(out, version, self.opcode(), correlation, p);
    }

    /// Decodes a request body for `opcode` (everything after the frame
    /// header as produced by [`split_frame`]).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for anything that does not decode as exactly
    /// one request body.
    pub fn decode_body(opcode: u8, body: &[u8]) -> Result<Request, WireError> {
        let mut buf = body;
        let buf = &mut buf;
        match opcode {
            OP_HELLO => {
                let client = get_str32(buf, "hello client")?;
                finish(buf, Request::Hello { client })
            }
            OP_INFER | OP_INFER_BATCH => {
                need(buf, 7, "infer header")?;
                let model = buf.get_u16_le();
                let mode = InferMode::from_u8(buf.get_u8())?;
                let mut u32b = [0u8; 4];
                buf.copy_to_slice(&mut u32b);
                let deadline_us = u32::from_le_bytes(u32b);
                let rows = if opcode == OP_INFER_BATCH {
                    need(buf, 4, "infer rows")?;
                    buf.copy_to_slice(&mut u32b);
                    u32::from_le_bytes(u32b) as usize
                } else {
                    1
                };
                need(buf, 4, "infer cols")?;
                buf.copy_to_slice(&mut u32b);
                let cols = u32::from_le_bytes(u32b) as usize;
                let data = get_f32s(buf, rows.saturating_mul(cols), "infer data")?;
                finish(
                    buf,
                    Request::Infer {
                        model,
                        mode,
                        deadline_us,
                        rows,
                        cols,
                        data,
                    },
                )
            }
            OP_STATS => finish(buf, Request::Stats),
            OP_SHUTDOWN => finish(buf, Request::Shutdown),
            other => Err(WireError::BadOpcode(other)),
        }
    }

    /// Decodes a whole frame payload into `(version, correlation, request)`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for anything that does not decode as exactly
    /// one request message.
    pub fn decode(payload: &[u8]) -> Result<(u8, u32, Request), WireError> {
        let (version, opcode, correlation, body) = split_frame(payload)?;
        Ok((version, correlation, Request::decode_body(opcode, &body)?))
    }
}

impl Reply {
    fn opcode(&self) -> u8 {
        match self {
            Reply::HelloOk { .. } => OP_HELLO_OK,
            Reply::Logits { .. } => OP_LOGITS,
            Reply::Busy => OP_BUSY,
            Reply::StatsOk(_) => OP_STATS_OK,
            Reply::ShutdownOk => OP_SHUTDOWN_OK,
            Reply::Error { .. } => OP_ERROR,
        }
    }

    /// Encodes the reply as one framed wire message appended to `out`,
    /// echoing `correlation`. `version` is written to the header as given;
    /// every caller passes [`PROTOCOL_VERSION`].
    pub fn encode(&self, out: &mut BytesMut, version: u8, correlation: u32) {
        let mut p = BytesMut::new();
        match self {
            Reply::HelloOk {
                version: negotiated,
                models,
            } => {
                p.put_u8(*negotiated);
                p.put_u16_le(models.len() as u16);
                for m in models {
                    p.put_u16_le(m.id);
                    put_str32(&mut p, &m.name);
                    p.put_slice(&(m.in_features as u32).to_le_bytes());
                    p.put_slice(&(m.out_features as u32).to_le_bytes());
                    p.put_u8(m.has_key as u8);
                }
            }
            Reply::Logits { rows, cols, data } => {
                debug_assert_eq!(rows * cols, data.len(), "row-major logits");
                p.put_slice(&(*rows as u32).to_le_bytes());
                p.put_slice(&(*cols as u32).to_le_bytes());
                put_f32s(&mut p, data);
            }
            Reply::Busy | Reply::ShutdownOk => {}
            Reply::StatsOk(snapshot) => {
                put_stats(&mut p, snapshot);
            }
            Reply::Error {
                code,
                request_opcode,
                message,
            } => {
                p.put_u8(code.to_u8());
                p.put_u8(*request_opcode);
                put_str32(&mut p, message);
            }
        }
        write_message(out, version, self.opcode(), correlation, p);
    }

    /// Decodes a reply body for `opcode` (everything after the frame
    /// header as produced by [`split_frame`]).
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for anything that does not decode as exactly
    /// one reply body.
    pub fn decode_body(opcode: u8, body: &[u8]) -> Result<Reply, WireError> {
        let mut buf = body;
        let buf = &mut buf;
        match opcode {
            OP_HELLO_OK => {
                need(buf, 3, "hello_ok header")?;
                let version = buf.get_u8();
                let n = buf.get_u16_le() as usize;
                let mut models = Vec::with_capacity(n);
                for _ in 0..n {
                    need(buf, 2, "model id")?;
                    let id = buf.get_u16_le();
                    let name = get_str32(buf, "model name")?;
                    need(buf, 9, "model dims")?;
                    let mut u32b = [0u8; 4];
                    buf.copy_to_slice(&mut u32b);
                    let in_features = u32::from_le_bytes(u32b) as usize;
                    buf.copy_to_slice(&mut u32b);
                    let out_features = u32::from_le_bytes(u32b) as usize;
                    let has_key = buf.get_u8() != 0;
                    models.push(ModelInfo {
                        id,
                        name,
                        in_features,
                        out_features,
                        has_key,
                    });
                }
                finish(buf, Reply::HelloOk { version, models })
            }
            OP_LOGITS => {
                need(buf, 8, "logits dims")?;
                let mut u32b = [0u8; 4];
                buf.copy_to_slice(&mut u32b);
                let rows = u32::from_le_bytes(u32b) as usize;
                buf.copy_to_slice(&mut u32b);
                let cols = u32::from_le_bytes(u32b) as usize;
                let data = get_f32s(buf, rows.saturating_mul(cols), "logits data")?;
                finish(buf, Reply::Logits { rows, cols, data })
            }
            OP_BUSY => finish(buf, Reply::Busy),
            OP_STATS_OK => {
                let snapshot = get_stats(buf)?;
                finish(buf, Reply::StatsOk(Box::new(snapshot)))
            }
            OP_SHUTDOWN_OK => finish(buf, Reply::ShutdownOk),
            OP_ERROR => {
                need(buf, 2, "error header")?;
                let code = ErrorCode::from_u8(buf.get_u8())?;
                let request_opcode = buf.get_u8();
                let message = get_str32(buf, "error message")?;
                finish(
                    buf,
                    Reply::Error {
                        code,
                        request_opcode,
                        message,
                    },
                )
            }
            other => Err(WireError::BadOpcode(other)),
        }
    }

    /// Decodes a whole frame payload into `(version, correlation, reply)`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for anything that does not decode as exactly
    /// one reply message.
    pub fn decode(payload: &[u8]) -> Result<(u8, u32, Reply), WireError> {
        let (version, opcode, correlation, body) = split_frame(payload)?;
        Ok((version, correlation, Reply::decode_body(opcode, &body)?))
    }
}

/// Writes exactly [`HISTOGRAM_BUCKETS`] bucket values. A bucket-less
/// (default) snapshot is the all-zero histogram, as `merge` and
/// `delta_since` already read it.
fn put_histogram(buf: &mut BytesMut, h: &HistogramSnapshot) {
    assert!(
        h.buckets.is_empty() || h.buckets.len() == HISTOGRAM_BUCKETS,
        "histogram snapshot with {} buckets",
        h.buckets.len()
    );
    buf.put_u8(HISTOGRAM_BUCKETS as u8);
    for i in 0..HISTOGRAM_BUCKETS {
        buf.put_u64_le(h.buckets.get(i).copied().unwrap_or(0));
    }
    buf.put_u64_le(h.count);
    buf.put_u64_le(h.sum_ns);
}

fn get_histogram(buf: &mut impl Buf) -> Result<HistogramSnapshot, WireError> {
    need(buf, 1, "histogram bucket count")?;
    let n = buf.get_u8() as usize;
    need(buf, (n + 2).saturating_mul(8), "histogram body")?;
    if n != HISTOGRAM_BUCKETS {
        return Err(WireError::BadTag {
            context: "histogram bucket count",
            tag: n as u8,
        });
    }
    let buckets = (0..n).map(|_| buf.get_u64_le()).collect();
    let count = buf.get_u64_le();
    let sum_ns = buf.get_u64_le();
    Ok(HistogramSnapshot {
        buckets,
        count,
        sum_ns,
    })
}

/// Scalar values a `STATS_OK` body carries: every table row, then
/// `uptime_ns` and `snapshot_seq`.
const STATS_SCALARS: usize = STATS_ROWS + 2;
const _: () = assert!(STATS_SCALARS <= u8::MAX as usize);

fn put_stats(buf: &mut BytesMut, s: &StatsSnapshot) {
    buf.put_u8(STATS_SCALARS as u8);
    for row in s.rows() {
        buf.put_u64_le(row.value);
    }
    buf.put_u64_le(s.uptime_ns);
    buf.put_u64_le(s.snapshot_seq);
    for row in s.histograms() {
        put_histogram(buf, row.hist);
    }
    buf.put_u16_le(s.shards.len() as u16);
    for sh in &s.shards {
        buf.put_u16_le(sh.model);
        buf.put_u16_le(sh.shard);
        buf.put_u8(u8::from(sh.active));
        put_histogram(buf, &sh.forward);
        put_histogram(buf, &sh.queue_wait);
    }
}

fn get_stats(buf: &mut impl Buf) -> Result<StatsSnapshot, WireError> {
    need(buf, 1, "counter count")?;
    let n = buf.get_u8() as usize;
    need(buf, n.saturating_mul(8), "counters")?;
    if n != STATS_SCALARS {
        return Err(WireError::BadTag {
            context: "counter count",
            tag: n as u8,
        });
    }
    let mut s = StatsSnapshot::default();
    for slot in s.rows_mut() {
        *slot = buf.get_u64_le();
    }
    s.uptime_ns = buf.get_u64_le();
    s.snapshot_seq = buf.get_u64_le();
    for h in s.histograms_mut() {
        *h = get_histogram(buf)?;
    }
    need(buf, 2, "shard count")?;
    let shard_count = buf.get_u16_le() as usize;
    s.shards = Vec::with_capacity(shard_count.min(256));
    for _ in 0..shard_count {
        need(buf, 5, "shard header")?;
        let model = buf.get_u16_le();
        let shard = buf.get_u16_le();
        let active = buf.get_u8() != 0;
        let forward = get_histogram(buf)?;
        let queue_wait = get_histogram(buf)?;
        s.shards.push(ShardStatsSnapshot {
            model,
            shard,
            active,
            forward,
            queue_wait,
        });
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpnn_bytes::try_get_frame;

    fn roundtrip_request(req: Request) {
        let correlation = 0xDEAD_0001;
        let mut out = BytesMut::new();
        req.encode(&mut out, PROTOCOL_VERSION, correlation);
        let mut view = out.freeze();
        let payload = try_get_frame(&mut view, MAX_FRAME_PAYLOAD)
            .unwrap()
            .expect("complete frame");
        assert_eq!(view.remaining(), 0);
        let (got_version, got_corr, got) = Request::decode(&payload).unwrap();
        assert_eq!(got_version, PROTOCOL_VERSION);
        assert_eq!(got_corr, correlation);
        assert_eq!(got, req);
    }

    /// Encodes `rep` and decodes it back, returning what came out.
    fn reply_through_the_wire(rep: &Reply) -> Reply {
        let mut out = BytesMut::new();
        rep.encode(&mut out, PROTOCOL_VERSION, 7);
        let mut view = out.freeze();
        let payload = try_get_frame(&mut view, MAX_FRAME_PAYLOAD)
            .unwrap()
            .expect("complete frame");
        assert_eq!(view.remaining(), 0);
        let (got_version, got_corr, got) = Reply::decode(&payload).unwrap();
        assert_eq!(got_version, PROTOCOL_VERSION);
        assert_eq!(got_corr, 7);
        got
    }

    fn roundtrip_reply(rep: Reply) {
        assert_eq!(reply_through_the_wire(&rep), rep);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Hello {
            client: "bench-client".into(),
        });
        roundtrip_request(Request::Infer {
            model: 3,
            mode: InferMode::Keyed,
            deadline_us: 500,
            rows: 1,
            cols: 4,
            data: vec![1.0, -2.5, 0.0, f32::MIN_POSITIVE],
        });
        roundtrip_request(Request::Infer {
            model: 0,
            mode: InferMode::Keyless,
            deadline_us: 0,
            rows: 3,
            cols: 2,
            data: vec![0.5; 6],
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn reply_roundtrips() {
        roundtrip_reply(Reply::HelloOk {
            version: PROTOCOL_VERSION,
            models: vec![ModelInfo {
                id: 0,
                name: "cnn1".into(),
                in_features: 784,
                out_features: 10,
                has_key: true,
            }],
        });
        roundtrip_reply(Reply::Logits {
            rows: 2,
            cols: 3,
            data: vec![0.25, -1.0, 3.5, 0.0, -0.0, 9.75],
        });
        roundtrip_reply(Reply::Busy);
        roundtrip_reply(Reply::ShutdownOk);
        roundtrip_reply(Reply::Error {
            code: ErrorCode::BadWidth,
            request_opcode: OP_INFER,
            message: "expected 784 features".into(),
        });
    }

    fn histogram(seed: u64) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: (0..HISTOGRAM_BUCKETS as u64).map(|i| i * seed).collect(),
            count: 42 * seed,
            sum_ns: 1_000_000 * seed,
        }
    }

    /// A snapshot with a distinct value everywhere, built by walking the
    /// table: the scalar rows count up from 1, `uptime_ns` and
    /// `snapshot_seq` continue the count, the histograms and then two
    /// shards take the odd seeds 1, 3, 5, ...
    fn fixed_snapshot() -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        let mut next = 0;
        for slot in s.rows_mut() {
            next += 1;
            *slot = next;
        }
        s.uptime_ns = next + 1;
        s.snapshot_seq = next + 2;
        let mut seeds = (1..).step_by(2);
        let mut odd = || histogram(seeds.next().expect("endless"));
        for h in s.histograms_mut() {
            *h = odd();
        }
        s.shards = [true, false]
            .into_iter()
            .enumerate()
            .map(|(shard, active)| ShardStatsSnapshot {
                model: 0,
                shard: shard as u16,
                active,
                forward: odd(),
                queue_wait: odd(),
            })
            .collect();
        s
    }

    #[test]
    fn stats_reply_roundtrips() {
        roundtrip_reply(Reply::StatsOk(Box::new(fixed_snapshot())));
    }

    /// The `STATS_OK` body is a wire contract: row order, the 18-value
    /// scalar block and the histogram layout are pinned for this snapshot.
    ///
    /// Derivation: with 23 scalars the same walk encoded to 2506 bytes,
    /// FNV-1a 0x001e8cc6224d0c67 (computed at commit 2ed4bb6 from the
    /// hand-written codec, before the table existed). Retiring the two
    /// shard-controller rows removes two 8-byte slots (2506 - 16 = 2490,
    /// frame length 2502 -> 2486 = [182, 9]), lowers the count byte to 21
    /// and renumbers the walk (rows 1..=19, uptime 20, seq 21; histogram
    /// seeds unchanged). The hash below comes from an independent model of
    /// the layout — count byte, `u64` LE scalars, 7 + 2 x 2 histograms of
    /// 1 + 24 x 8 + 16 bytes, `u16` shard count, 5-byte shard headers —
    /// that reproduces the old hash when given 23 scalars.
    ///
    /// Retiring the cluster split's three scalar rows and its one histogram
    /// removes three 8-byte slots and one 209-byte histogram
    /// (2490 - 24 - 209 = 2257, frame length 2253 = [205, 8]), lowers the
    /// count byte to 18 and renumbers the walk (rows 1..=16, uptime 17,
    /// seq 18; 6 + 2 x 2 histograms on seeds 1, 3, ..., 19). The same
    /// model gives the hash below, and still gives 0x8a60c7d4fbd7059e for
    /// 21 scalars and 7 histograms.
    #[test]
    fn stats_ok_wire_bytes_are_pinned() {
        let mut out = BytesMut::new();
        Reply::StatsOk(Box::new(fixed_snapshot())).encode(&mut out, PROTOCOL_VERSION, 7);
        let fnv1a = out.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(out.len(), 2257);
        assert_eq!(fnv1a, 0x6d2f_3afa_9b05_a5bd);
        // Frame length, version, STATS_OK, correlation 7, 18 scalars.
        assert_eq!(&out[..11], &[205, 8, 0, 0, 2, 0x83, 7, 0, 0, 0, 18]);
    }

    /// A server built before the cluster split's three rows were retired
    /// announces 21 scalars. The decoder judges the block by its count
    /// byte and refuses it typed, before any value lands in a wrong slot.
    #[test]
    fn stats_ok_with_the_parents_row_count_is_refused_typed() {
        let mut out = BytesMut::new();
        Reply::StatsOk(Box::new(fixed_snapshot())).encode(&mut out, PROTOCOL_VERSION, 7);
        // Past the frame length: header (6), count byte, scalar block.
        let (head, rest) = out[4..].split_at(6 + 1 + STATS_SCALARS * 8);
        let mut payload = head.to_vec();
        payload[6] = 21;
        payload.extend_from_slice(&[0u8; 3 * 8]);
        payload.extend_from_slice(rest);
        assert_eq!(
            Reply::decode(&payload),
            Err(WireError::BadTag {
                context: "counter count",
                tag: 21
            })
        );
    }

    /// A bucket-less (default) histogram is the all-zero histogram on the
    /// wire: the encoder used to write the bucket count and then no
    /// buckets, a frame its own decoder rejected as truncated.
    #[test]
    fn bucketless_histograms_roundtrip_as_all_zero() {
        let zero = HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            ..HistogramSnapshot::default()
        };
        let mut want = StatsSnapshot::default();
        for h in want.histograms_mut() {
            *h = zero.clone();
        }
        let got = reply_through_the_wire(&Reply::StatsOk(Box::default()));
        assert_eq!(got, Reply::StatsOk(Box::new(want)));

        let mut sent = fixed_snapshot();
        sent.shards[0].queue_wait = HistogramSnapshot::default();
        let mut want = sent.clone();
        want.shards[0].queue_wait = zero;
        let got = reply_through_the_wire(&Reply::StatsOk(Box::new(sent)));
        assert_eq!(got, Reply::StatsOk(Box::new(want)));
    }

    #[test]
    fn single_row_uses_compact_opcode() {
        let mut out = BytesMut::new();
        Request::Infer {
            model: 0,
            mode: InferMode::Keyed,
            deadline_us: 0,
            rows: 1,
            cols: 2,
            data: vec![1.0, 2.0],
        }
        .encode(&mut out, PROTOCOL_VERSION, 0);
        // frame: 4-byte length, version, opcode.
        assert_eq!(out[5], OP_INFER);
    }

    #[test]
    fn frames_carry_the_correlation_id() {
        let mut out = BytesMut::new();
        Request::Stats.encode(&mut out, PROTOCOL_VERSION, 0x0403_0201);
        // frame: len(2+4), version, opcode, correlation LE.
        assert_eq!(&out[..], &[6, 0, 0, 0, 2, OP_STATS, 1, 2, 3, 4]);
    }

    #[test]
    fn bad_version_rejected() {
        let payload = [9u8, OP_STATS, 0, 0, 0, 0];
        assert_eq!(Request::decode(&payload), Err(WireError::BadVersion(9)));
        // A v1 frame's header was two bytes: the version byte is judged
        // before the header length, so it is refused, not "truncated".
        let payload = [1u8, OP_STATS];
        assert_eq!(Request::decode(&payload), Err(WireError::BadVersion(1)));
        assert_eq!(Request::decode(&[0u8]), Err(WireError::BadVersion(0)));
        // Short but ours: truncated.
        for payload in [&[][..], &[PROTOCOL_VERSION, OP_STATS, 0]] {
            assert_eq!(
                Request::decode(payload),
                Err(WireError::Truncated { context: "header" })
            );
        }
    }

    #[test]
    fn bad_opcode_rejected() {
        let payload = [PROTOCOL_VERSION, 0x7F, 0, 0, 0, 0];
        assert_eq!(Request::decode(&payload), Err(WireError::BadOpcode(0x7F)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let payload = [PROTOCOL_VERSION, OP_STATS, 0, 0, 0, 0, 0xAA];
        assert_eq!(Request::decode(&payload), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let mut out = BytesMut::new();
        Request::Infer {
            model: 1,
            mode: InferMode::Keyless,
            deadline_us: 77,
            rows: 2,
            cols: 3,
            data: vec![0.5; 6],
        }
        .encode(&mut out, PROTOCOL_VERSION, 11);
        let full = out.freeze();
        let payload = full.slice(4..).to_vec(); // drop the frame length prefix
        for cut in 0..payload.len() {
            assert!(
                Request::decode(&payload[..cut]).is_err(),
                "prefix {cut} decoded"
            );
        }
    }

    #[test]
    fn error_codes_roundtrip() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::BadVersion,
            ErrorCode::BadOpcode,
            ErrorCode::UnknownModel,
            ErrorCode::BadWidth,
            ErrorCode::KeyUnavailable,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ShuttingDown,
            ErrorCode::TooManyRows,
            ErrorCode::Internal,
            ErrorCode::DuplicateCorrelation,
        ] {
            assert_eq!(ErrorCode::from_u8(code.to_u8()).unwrap(), code);
        }
        // 12 and 13 were the cluster split's codes; retired, not reused.
        for tag in [12, 13] {
            assert_eq!(
                ErrorCode::from_u8(tag),
                Err(WireError::BadTag {
                    context: "error code",
                    tag
                })
            );
        }
        assert!(ErrorCode::from_u8(0).is_err());
        assert!(ErrorCode::from_u8(200).is_err());
    }

    #[test]
    fn infer_batch_oversized_length_rejected() {
        // An INFER_BATCH header whose rows*cols claims far more f32s than the
        // body carries must fail as truncated, not panic or over-read —
        // including the u32::MAX * u32::MAX overflow corner.
        for (rows, cols) in [(u32::MAX, u32::MAX), (1 << 20, 1 << 12), (2, 1 << 30)] {
            let mut p = BytesMut::new();
            p.put_u8(PROTOCOL_VERSION);
            p.put_u8(OP_INFER_BATCH);
            p.put_slice(&7u32.to_le_bytes()); // correlation
            p.put_u16_le(0); // model
            p.put_u8(0); // mode
            p.put_slice(&0u32.to_le_bytes()); // deadline
            p.put_slice(&rows.to_le_bytes());
            p.put_slice(&cols.to_le_bytes());
            p.put_f32_le(1.0); // one lonely value
            assert_eq!(
                Request::decode(&p[..]),
                Err(WireError::Truncated {
                    context: "infer data"
                }),
                "rows={rows} cols={cols}"
            );
        }
    }
}
