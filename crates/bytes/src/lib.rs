//! # hpnn-bytes
//!
//! Minimal, dependency-free byte-buffer primitives for the HPNN container
//! codec and wire protocols: a cursor-style reader trait ([`Buf`]), a
//! little-endian writer trait ([`BufMut`]), a growable write buffer
//! ([`BytesMut`]), a cheaply cloneable immutable byte view ([`Bytes`]),
//! length-prefix framing helpers ([`put_frame`]/[`try_get_frame`] and their
//! u64 variants), the serve-protocol frame header ([`Frame`]), and an
//! incremental stream reassembler ([`FrameReader`]) shared by the
//! model-container codec (`hpnn-core`) and the inference server
//! (`hpnn-serve`).
//!
//! The API mirrors the subset of the `bytes` crate the codec needs, so the
//! explicit wire format stays readable, while keeping the workspace free of
//! external dependencies (the build environment is fully offline).
//!
//! ## Example
//!
//! ```
//! use hpnn_bytes::{Buf, BufMut, BytesMut};
//!
//! let mut buf = BytesMut::new();
//! buf.put_u64_le(7);
//! buf.put_slice(b"ok");
//! let mut view = buf.freeze();
//! assert_eq!(view.get_u64_le(), 7);
//! assert_eq!(view.remaining(), 2);
//! ```

#![warn(missing_docs)]

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cursor-style reader over a byte sequence.
///
/// All multi-byte reads are little-endian, matching the HPNN wire format.
/// Reads advance the cursor; callers must check [`Buf::remaining`] (the
/// codec's `need` helper does) before fixed-size reads, which panic on
/// underflow like the upstream `bytes` crate.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Advances the cursor by `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.remaining()`.
    fn advance(&mut self, n: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        f32::from_le_bytes(b)
    }

    /// Fills `dst` from the buffer and advances past the copied bytes.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len() > self.remaining()`.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }

    fn advance(&mut self, n: usize) {
        (**self).advance(n)
    }
}

/// Little-endian writer trait.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Growable write buffer; freeze into an immutable [`Bytes`] when done.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    /// Creates an empty buffer with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable, cheaply cloneable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Unwraps the written bytes without copying them.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// Immutable byte view: a reference-counted buffer plus a window, so clones
/// and [`Bytes::slice`] are O(1) and never copy the payload.
///
/// Reading through [`Buf`] narrows the window in place.
#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Wraps a static byte string.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Bytes in view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// `true` if the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-view of the current window without copying.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds for {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copies the view into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.chunk().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes {
            data: data.into(),
            start: 0,
            end,
        }
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    fn advance(&mut self, n: usize) {
        assert!(
            n <= self.len(),
            "advance {n} past end of {}-byte view",
            self.len()
        );
        self.start += n;
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.chunk()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.chunk()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.chunk() == other.chunk()
    }
}

impl Eq for Bytes {}

/// Error produced by the framing helpers when a declared payload length
/// exceeds the caller's cap — the only unrecoverable framing condition
/// (the stream cannot be resynchronized past a lying length prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLong {
    /// The length the prefix declared.
    pub declared: u64,
    /// The caller's maximum acceptable payload length.
    pub max: usize,
}

impl std::fmt::Display for FrameTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame payload of {} bytes exceeds the {}-byte cap",
            self.declared, self.max
        )
    }
}

impl std::error::Error for FrameTooLong {}

/// Appends a `u32`-length-prefixed frame: 4 little-endian length bytes, then
/// the payload. This is the framing used on the `hpnn-serve` wire.
///
/// # Panics
///
/// Panics if `payload.len()` does not fit in a `u32`.
pub fn put_frame(buf: &mut impl BufMut, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    buf.put_slice(&len.to_le_bytes());
    buf.put_slice(payload);
}

/// Appends a `u64`-length-prefixed frame — the prefix width used by the
/// `HPNN` model-container codec's variable-length fields.
pub fn put_frame_u64(buf: &mut impl BufMut, payload: &[u8]) {
    buf.put_u64_le(payload.len() as u64);
    buf.put_slice(payload);
}

/// Attempts to split one `u32`-length-prefixed frame off the front of `buf`.
///
/// Returns `Ok(Some(payload))` and advances past the frame when a complete
/// frame is available, `Ok(None)` (without consuming anything) when more
/// bytes are needed, and [`FrameTooLong`] when the prefix declares a payload
/// larger than `max_payload` — callers should treat that as a fatal protocol
/// violation, since the stream cannot be resynchronized.
///
/// # Errors
///
/// Returns [`FrameTooLong`] when the declared length exceeds `max_payload`.
pub fn try_get_frame(
    buf: &mut impl Buf,
    max_payload: usize,
) -> Result<Option<Vec<u8>>, FrameTooLong> {
    try_get_frame_inner(buf, max_payload, 4)
}

/// [`try_get_frame`] for `u64`-length-prefixed frames (the codec width).
///
/// # Errors
///
/// Returns [`FrameTooLong`] when the declared length exceeds `max_payload`.
pub fn try_get_frame_u64(
    buf: &mut impl Buf,
    max_payload: usize,
) -> Result<Option<Vec<u8>>, FrameTooLong> {
    try_get_frame_inner(buf, max_payload, 8)
}

fn try_get_frame_inner(
    buf: &mut impl Buf,
    max_payload: usize,
    prefix: usize,
) -> Result<Option<Vec<u8>>, FrameTooLong> {
    // Peek the prefix without consuming it: every Buf in this crate exposes
    // all remaining bytes through chunk(), so the prefix can be read there.
    let chunk = buf.chunk();
    if chunk.len() < prefix {
        return Ok(None);
    }
    let declared = match prefix {
        4 => u32::from_le_bytes(chunk[..4].try_into().expect("4-byte prefix")) as u64,
        _ => u64::from_le_bytes(chunk[..8].try_into().expect("8-byte prefix")),
    };
    if declared > max_payload as u64 {
        return Err(FrameTooLong {
            declared,
            max: max_payload,
        });
    }
    let len = declared as usize;
    if chunk.len() - prefix < len {
        return Ok(None);
    }
    buf.advance(prefix);
    let mut payload = vec![0u8; len];
    buf.copy_to_slice(&mut payload);
    Ok(Some(payload))
}

/// A decoded serve-protocol frame header plus its opcode-specific body.
///
/// On the wire a frame is one `u32`-length-prefixed payload
/// (see [`put_frame`]) laid out as:
///
/// ```text
/// [u8 version][u8 opcode][u32 correlation, little-endian][body ...]
/// ```
///
/// The header is these six bytes whatever the version byte holds: the byte
/// is carried, not interpreted, and the serve codec decides which value it
/// answers. The length prefix itself is handled by
/// [`Frame::write`]/[`FrameReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version byte leading the payload.
    pub version: u8,
    /// Opcode byte selecting the body layout.
    pub opcode: u8,
    /// Correlation ID echoed by replies.
    pub correlation: u32,
    /// Opcode-specific body bytes.
    pub payload: Vec<u8>,
}

/// Error from [`Frame::parse`]: the framed payload ended before its
/// [`Frame::HEADER_LEN`]-byte header was complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortFrame {
    /// The truncated payload's length in bytes.
    pub len: usize,
}

impl std::fmt::Display for ShortFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame payload of {} bytes is shorter than its header",
            self.len
        )
    }
}

impl std::error::Error for ShortFrame {}

impl Frame {
    /// Serialized header length: version, opcode, correlation.
    pub const HEADER_LEN: usize = 6;

    /// A frame with an empty body.
    pub fn new(version: u8, opcode: u8, correlation: u32) -> Frame {
        Frame {
            version,
            opcode,
            correlation,
            payload: Vec::new(),
        }
    }

    /// Appends the frame as one `u32`-length-prefixed wire message
    /// (header + body behind a single length prefix).
    pub fn write(&self, out: &mut impl BufMut) {
        let len = u32::try_from(Self::HEADER_LEN + self.payload.len())
            .expect("frame payload exceeds u32::MAX bytes");
        out.put_slice(&len.to_le_bytes());
        out.put_u8(self.version);
        out.put_u8(self.opcode);
        out.put_slice(&self.correlation.to_le_bytes());
        out.put_slice(&self.payload);
    }

    /// Splits a framed payload (everything after the length prefix) into
    /// header fields and body.
    ///
    /// # Errors
    ///
    /// [`ShortFrame`] when the payload is shorter than the header.
    pub fn parse(payload: &[u8]) -> Result<Frame, ShortFrame> {
        if payload.len() < Self::HEADER_LEN {
            return Err(ShortFrame { len: payload.len() });
        }
        Ok(Frame {
            version: payload[0],
            opcode: payload[1],
            correlation: u32::from_le_bytes(payload[2..6].try_into().expect("4-byte correlation")),
            payload: payload[Self::HEADER_LEN..].to_vec(),
        })
    }
}

/// Push-driven frame reassembler: callers [`feed`](FrameBuffer::feed) raw
/// bytes as they arrive (from a blocking read, a nonblocking socket, or a
/// test vector) and pull zero or more complete `u32`-length-prefixed frame
/// payloads back out with [`next_frame`](FrameBuffer::next_frame). This is
/// the I/O-free core of [`FrameReader`], split out so an event-driven
/// connection layer can decode from whatever bytes a readiness wakeup
/// happened to deliver.
#[derive(Debug)]
pub struct FrameBuffer {
    pending: Vec<u8>,
    max_payload: usize,
}

impl FrameBuffer {
    /// Creates an empty buffer enforcing `max_payload` on every declared
    /// length.
    pub fn new(max_payload: usize) -> Self {
        FrameBuffer {
            pending: Vec::new(),
            max_payload,
        }
    }

    /// Appends raw stream bytes; call [`next_frame`](Self::next_frame)
    /// afterwards (repeatedly) to drain any frames they completed.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Pops the next complete frame payload, or `Ok(None)` when the
    /// buffered bytes do not yet form one.
    ///
    /// # Errors
    ///
    /// [`FrameTooLong`] when the peer declares a payload larger than the
    /// cap — the stream cannot be resynchronized past a lying length
    /// prefix, so the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameTooLong> {
        let mut view = self.pending.as_slice();
        let before = view.len();
        match try_get_frame(&mut view, self.max_payload)? {
            Some(payload) => {
                let consumed = before - view.len();
                self.pending.drain(..consumed);
                Ok(Some(payload))
            }
            None => Ok(None),
        }
    }

    /// True when bytes of an incomplete frame are buffered — an EOF now
    /// would be a mid-frame truncation, not a clean close.
    pub fn has_partial(&self) -> bool {
        !self.pending.is_empty()
    }

    /// How many undecoded bytes are buffered. Nonblocking callers use this
    /// to stop reading once the buffer holds more than a full frame's
    /// worth, bounding per-connection memory.
    pub fn buffered_len(&self) -> usize {
        self.pending.len()
    }
}

/// Incremental frame reassembler over a byte stream: buffers partial reads
/// and yields one `u32`-length-prefixed frame payload at a time. Both ends
/// of the serve wire use it, so the pending-buffer logic lives here once
/// (in [`FrameBuffer`], which this wraps with a blocking read loop).
pub struct FrameReader<R> {
    inner: R,
    buffer: FrameBuffer,
}

impl<R: std::io::Read> FrameReader<R> {
    /// Wraps a stream, enforcing `max_payload` on every declared length.
    pub fn new(inner: R, max_payload: usize) -> Self {
        FrameReader {
            inner,
            buffer: FrameBuffer::new(max_payload),
        }
    }

    /// Reads until one complete frame is available and returns its payload.
    /// `Ok(None)` means the peer closed the stream cleanly between frames.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the peer declares a payload larger than the cap
    /// (the stream cannot be resynchronized); `UnexpectedEof` when the
    /// stream ends mid-frame.
    pub fn next_frame(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        use std::io::{Error, ErrorKind};
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.buffer.next_frame() {
                Ok(Some(payload)) => return Ok(Some(payload)),
                Ok(None) => {}
                Err(FrameTooLong { declared, max }) => {
                    return Err(Error::new(
                        ErrorKind::InvalidData,
                        format!("frame declares {declared} bytes, cap is {max}"),
                    ));
                }
            }
            let n = self.inner.read(&mut chunk)?;
            if n == 0 {
                return if self.buffer.has_partial() {
                    Err(Error::new(
                        ErrorKind::UnexpectedEof,
                        "stream ended mid-frame",
                    ))
                } else {
                    Ok(None)
                };
            }
            self.buffer.feed(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = BytesMut::new();
        buf.put_u8(0xAB);
        buf.put_u16_le(0xBEEF);
        buf.put_u64_le(u64::MAX - 3);
        buf.put_f32_le(-1.5);
        buf.put_slice(b"tail");
        let mut b = buf.freeze();
        assert_eq!(b.get_u8(), 0xAB);
        assert_eq!(b.get_u16_le(), 0xBEEF);
        assert_eq!(b.get_u64_le(), u64::MAX - 3);
        assert_eq!(b.get_f32_le(), -1.5);
        let mut tail = [0u8; 4];
        b.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"tail");
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn into_vec_moves_the_buffer() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(b"frame");
        let before = buf.as_ptr();
        let v = buf.into_vec();
        assert_eq!(v, b"frame");
        assert_eq!(v.as_ptr(), before, "same allocation, not a copy");
    }

    #[test]
    fn slice_is_window_not_copy() {
        let b = Bytes::from((0u8..32).collect::<Vec<_>>());
        let s = b.slice(4..12);
        assert_eq!(s.len(), 8);
        assert_eq!(s.chunk(), &(4u8..12).collect::<Vec<_>>()[..]);
        let s2 = s.slice(..2);
        assert_eq!(s2.chunk(), &[4, 5]);
    }

    #[test]
    fn slice_of_advanced_view() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        b.advance(2);
        assert_eq!(b.slice(1..3).chunk(), &[4, 5]);
    }

    #[test]
    fn reads_through_slice_buf_impl() {
        let v = vec![9u8, 0, 0, 0, 0, 0, 0, 0];
        let mut s = v.as_slice();
        assert_eq!(s.get_u64_le(), 9);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "advance")]
    fn advance_past_end_panics() {
        let mut b = Bytes::from(vec![1, 2]);
        b.advance(3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2]);
        let _ = b.slice(..5);
    }

    #[test]
    fn equality_ignores_backing_offsets() {
        let a = Bytes::from(vec![7, 8, 9]).slice(1..);
        let b = Bytes::from(vec![8, 9]);
        assert_eq!(a, b);
    }

    #[test]
    fn frame_roundtrip_both_widths() {
        let mut buf = BytesMut::new();
        put_frame(&mut buf, b"alpha");
        put_frame_u64(&mut buf, b"");
        put_frame_u64(&mut buf, b"beta");
        let mut b = buf.freeze();
        assert_eq!(try_get_frame(&mut b, 1024).unwrap().unwrap(), b"alpha");
        assert_eq!(try_get_frame_u64(&mut b, 1024).unwrap().unwrap(), b"");
        assert_eq!(try_get_frame_u64(&mut b, 1024).unwrap().unwrap(), b"beta");
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn incomplete_frame_consumes_nothing() {
        let mut buf = BytesMut::new();
        put_frame(&mut buf, b"payload");
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut prefix = full.slice(..cut);
            assert_eq!(try_get_frame(&mut prefix, 1024).unwrap(), None);
            assert_eq!(prefix.remaining(), cut, "partial read must not consume");
        }
    }

    #[test]
    fn oversized_frame_rejected_before_payload_arrives() {
        let mut buf = BytesMut::new();
        buf.put_slice(&100u32.to_le_bytes());
        let mut b = buf.freeze();
        // The length prefix alone is enough to reject: no payload bytes yet.
        assert_eq!(
            try_get_frame(&mut b, 64),
            Err(FrameTooLong {
                declared: 100,
                max: 64
            })
        );
    }

    #[test]
    fn u64_width_rejects_absurd_declared_lengths() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(u64::MAX);
        let mut b = buf.freeze();
        assert_eq!(
            try_get_frame_u64(&mut b, 1 << 20),
            Err(FrameTooLong {
                declared: u64::MAX,
                max: 1 << 20
            })
        );
    }

    /// Property: any sequence of random frames, delivered in arbitrary
    /// partial chunks (as a TCP stream would), reassembles to exactly the
    /// original payloads. Cases come from the workspace `Rng`, so failures
    /// reproduce from the printed seed.
    #[test]
    fn frame_stream_reassembly_property() {
        use hpnn_tensor::Rng;
        for seed in 0..32u64 {
            let mut rng = Rng::new(0xF4A3 + seed);
            let n_frames = 1 + rng.below(8);
            let frames: Vec<(Vec<u8>, bool)> = (0..n_frames)
                .map(|_| {
                    let payload = (0..rng.below(200)).map(|_| rng.next_u32() as u8).collect();
                    (payload, rng.bit())
                })
                .collect();
            let mut wire = BytesMut::new();
            for (payload, wide) in &frames {
                if *wide {
                    put_frame_u64(&mut wire, payload);
                } else {
                    put_frame(&mut wire, payload);
                }
            }
            let wire = wire.freeze();

            // Deliver the wire bytes in random-sized chunks, reassembling
            // with the same pending-buffer loop the server uses.
            let mut pending: Vec<u8> = Vec::new();
            let mut delivered = 0usize;
            let mut got: Vec<Vec<u8>> = Vec::new();
            while got.len() < n_frames {
                let take = (1 + rng.below(64)).min(wire.len() - delivered);
                pending.extend_from_slice(&wire[delivered..delivered + take]);
                delivered += take;
                while let Some((_, wide)) = frames.get(got.len()) {
                    let mut view = pending.as_slice();
                    let frame = if *wide {
                        try_get_frame_u64(&mut view, 1 << 16)
                    } else {
                        try_get_frame(&mut view, 1 << 16)
                    }
                    .unwrap_or_else(|e| panic!("seed {seed}: unexpected {e}"));
                    match frame {
                        Some(p) => {
                            let consumed = pending.len() - view.len();
                            pending.drain(..consumed);
                            got.push(p);
                        }
                        None => break,
                    }
                }
            }
            let want: Vec<Vec<u8>> = frames.into_iter().map(|(p, _)| p).collect();
            assert_eq!(got, want, "seed {seed}");
            assert!(pending.is_empty(), "seed {seed}: trailing bytes");
            assert_eq!(delivered, wire.len(), "seed {seed}");
        }
    }

    #[test]
    fn frame_header_layout() {
        // 4-byte little-endian correlation after the opcode.
        let f = Frame {
            version: 2,
            opcode: 0x42,
            correlation: 0x0102_0304,
            payload: vec![9],
        };
        let mut out = BytesMut::new();
        f.write(&mut out);
        assert_eq!(&out[..], &[7, 0, 0, 0, 2, 0x42, 4, 3, 2, 1, 9]);
        assert_eq!(Frame::parse(&out[4..]).unwrap(), f);
    }

    #[test]
    fn frame_parse_rejects_short_headers() {
        assert_eq!(Frame::parse(&[]), Err(ShortFrame { len: 0 }));
        assert_eq!(Frame::parse(&[2]), Err(ShortFrame { len: 1 }));
        // The header needs all four correlation bytes, whatever the
        // version byte claims.
        assert_eq!(Frame::parse(&[2, 0x42]), Err(ShortFrame { len: 2 }));
        assert_eq!(Frame::parse(&[1, 0x42]), Err(ShortFrame { len: 2 }));
        assert_eq!(
            Frame::parse(&[2, 0x42, 0, 0, 0]),
            Err(ShortFrame { len: 5 })
        );
        assert!(Frame::parse(&[2, 0x42, 0, 0, 0, 0]).is_ok());
    }

    /// Property: any frame (random version byte, opcode, correlation, body)
    /// survives a write→reassemble→parse round trip, including streams of
    /// many frames delivered through the [`FrameReader`] in partial chunks.
    #[test]
    fn frame_roundtrip_property() {
        use hpnn_tensor::Rng;
        for seed in 0..48u64 {
            let mut rng = Rng::new(0xF2A5 + seed);
            let n_frames = 1 + rng.below(6);
            let frames: Vec<Frame> = (0..n_frames)
                .map(|_| Frame {
                    version: rng.next_u32() as u8,
                    opcode: rng.next_u32() as u8,
                    correlation: rng.next_u32(),
                    payload: (0..rng.below(150)).map(|_| rng.next_u32() as u8).collect(),
                })
                .collect();
            let mut wire = BytesMut::new();
            for f in &frames {
                f.write(&mut wire);
            }
            let bytes = wire.freeze().to_vec();

            // Deliver through a reader that yields random-sized chunks.
            struct Chunky {
                bytes: Vec<u8>,
                at: usize,
                rng: Rng,
            }
            impl std::io::Read for Chunky {
                fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                    if self.at >= self.bytes.len() {
                        return Ok(0);
                    }
                    let take = (1 + self.rng.below(31))
                        .min(self.bytes.len() - self.at)
                        .min(buf.len());
                    buf[..take].copy_from_slice(&self.bytes[self.at..self.at + take]);
                    self.at += take;
                    Ok(take)
                }
            }
            let mut reader = FrameReader::new(
                Chunky {
                    bytes,
                    at: 0,
                    rng: rng.fork(1),
                },
                1 << 16,
            );
            for (i, want) in frames.iter().enumerate() {
                let payload = reader
                    .next_frame()
                    .unwrap()
                    .unwrap_or_else(|| panic!("seed {seed}: frame {i} missing"));
                assert_eq!(
                    &Frame::parse(&payload).unwrap(),
                    want,
                    "seed {seed} frame {i}"
                );
            }
            assert!(reader.next_frame().unwrap().is_none(), "seed {seed}");
        }
    }

    #[test]
    fn frame_reader_mid_frame_eof_is_an_error() {
        // Length prefix promises 10 bytes; the stream dies after 3.
        let wire: &[u8] = &[10, 0, 0, 0, 1, 0x42, 9];
        let mut reader = FrameReader::new(wire, 1 << 16);
        let err = reader.next_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn frame_reader_rejects_oversized_declared_length() {
        // The declared payload exceeds the reader's cap: refuse before
        // buffering, leaving the stream position right after the prefix.
        let mut wire = BytesMut::new();
        wire.put_slice(&64u32.to_le_bytes());
        let mut reader = FrameReader::new(&wire[..], 16);
        let err = reader.next_frame().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_reader_clean_eof_is_none() {
        let mut reader = FrameReader::new(&[][..], 16);
        assert!(reader.next_frame().unwrap().is_none());
    }

    /// Byte-at-a-time feeding must yield every frame exactly once, with
    /// `has_partial` flipping on between the first prefix byte and the
    /// frame's completion.
    #[test]
    fn frame_buffer_feeds_incrementally() {
        let mut wire = BytesMut::new();
        put_frame(&mut wire, b"alpha");
        put_frame(&mut wire, b"");
        put_frame(&mut wire, b"beta");
        let wire = wire.freeze();

        let mut fb = FrameBuffer::new(1 << 16);
        let mut got: Vec<Vec<u8>> = Vec::new();
        assert!(!fb.has_partial());
        for (i, byte) in wire[..].iter().enumerate() {
            fb.feed(std::slice::from_ref(byte));
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame);
            }
            // next_frame without new bytes is a stable no-op.
            assert!(fb.next_frame().unwrap().is_none(), "byte {i}");
        }
        assert_eq!(got, vec![b"alpha".to_vec(), Vec::new(), b"beta".to_vec()]);
        assert!(!fb.has_partial());
    }

    /// One big feed carrying several frames drains them all back-to-back.
    #[test]
    fn frame_buffer_drains_multiple_frames_per_feed() {
        let mut wire = BytesMut::new();
        for payload in [&b"one"[..], b"two", b"three"] {
            put_frame(&mut wire, payload);
        }
        let mut fb = FrameBuffer::new(1 << 16);
        let wire = wire.freeze();
        fb.feed(&wire[..]);
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"one");
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"two");
        assert!(fb.has_partial());
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"three");
        assert!(fb.next_frame().unwrap().is_none());
        assert!(!fb.has_partial());
    }

    /// A lying length prefix surfaces as `FrameTooLong` on every poll —
    /// the caller must drop the connection, not retry past it.
    #[test]
    fn frame_buffer_rejects_oversized_declared_length() {
        let mut fb = FrameBuffer::new(16);
        fb.feed(&64u32.to_le_bytes());
        assert_eq!(
            fb.next_frame(),
            Err(FrameTooLong {
                declared: 64,
                max: 16
            })
        );
        assert!(fb.has_partial());
        // Still poisoned: the bad prefix is not consumed.
        assert!(fb.next_frame().is_err());
    }

    /// Property: `try_get_frame` never consumes bytes on an incomplete
    /// frame and always consumes exactly `prefix + len` on a complete one.
    #[test]
    fn frame_consumption_exactness_property() {
        use hpnn_tensor::Rng;
        let mut rng = Rng::new(0xC0DE);
        for case in 0..64 {
            let len = rng.below(128);
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            let mut buf = BytesMut::new();
            put_frame(&mut buf, &payload);
            let trailing = rng.below(16);
            for _ in 0..trailing {
                buf.put_u8(0xEE);
            }
            let full = buf.freeze();
            let mut view = full.slice(..);
            let got = try_get_frame(&mut view, 4096).unwrap().unwrap();
            assert_eq!(got, payload, "case {case}");
            assert_eq!(view.remaining(), trailing, "case {case}");
        }
    }
}
