//! One persistent link to a cluster worker.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hpnn_bytes::{BytesMut, FrameReader};
use hpnn_serve::cluster::{RemoteDone, RemoteOutcome};
use hpnn_serve::{ErrorCode, InferMode, Reply, Request, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION};

/// State shared between submitters and the reply thread.
struct PeerShared {
    /// Correlation → parked continuation. Bounded by the window.
    pending: Mutex<HashMap<u32, RemoteDone>>,
    /// Cleared the moment the link is known dead; submits refuse from
    /// then on so callers fall back to local execution immediately.
    alive: AtomicBool,
}

impl PeerShared {
    /// Declares the link dead and fails every parked continuation.
    fn fail_all(&self) {
        self.alive.store(false, Ordering::Release);
        let parked: Vec<RemoteDone> = {
            let mut pending = self.pending.lock().unwrap();
            pending.drain().map(|(_, done)| done).collect()
        };
        for done in parked {
            done(RemoteOutcome::Failed(ErrorCode::PeerUnavailable));
        }
    }
}

/// A pipelined `FWD_ACT` client: one TCP connection, many stage forwards
/// in flight, replies matched to continuations by correlation ID on a
/// dedicated reply thread.
pub struct PeerClient {
    write: Mutex<TcpStream>,
    shared: Arc<PeerShared>,
    reader: Mutex<Option<thread::JoinHandle<()>>>,
    next_correlation: AtomicU32,
    window: usize,
}

impl PeerClient {
    /// Dials a worker and performs the HELLO handshake.
    ///
    /// # Errors
    ///
    /// Connection/handshake I/O failures, or `InvalidData` when the peer
    /// announces a protocol version other than ours.
    pub fn connect(addr: SocketAddr, window: usize, timeout: Duration) -> io::Result<PeerClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        // Bound the handshake itself: a listener that accepts but never
        // answers must not wedge the dial path forever.
        stream.set_read_timeout(Some(timeout.max(Duration::from_millis(10))))?;
        let mut hello = BytesMut::new();
        Request::Hello {
            client: "hpnn-cluster".into(),
        }
        .encode(&mut hello, PROTOCOL_VERSION, 0);
        (&stream).write_all(&hello)?;
        let mut reader = FrameReader::new(stream.try_clone()?, MAX_FRAME_PAYLOAD);
        let payload = reader.next_frame()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed during handshake")
        })?;
        let (_, _, reply) = Reply::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let announced = match reply {
            Reply::HelloOk { version, .. } => version,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected handshake reply {other:?}"),
                ))
            }
        };
        if announced != PROTOCOL_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "peer speaks protocol v{announced}; cluster links speak v{PROTOCOL_VERSION}"
                ),
            ));
        }
        stream.set_read_timeout(None)?;
        let shared = Arc::new(PeerShared {
            pending: Mutex::new(HashMap::new()),
            alive: AtomicBool::new(true),
        });
        let reader_shared = Arc::clone(&shared);
        let reader = thread::Builder::new()
            .name("hpnn-peer-reply".into())
            .spawn(move || reply_loop(reader_shared, reader))
            .expect("spawn peer reply thread");
        Ok(PeerClient {
            write: Mutex::new(stream),
            shared,
            reader: Mutex::new(Some(reader)),
            next_correlation: AtomicU32::new(1),
            window,
        })
    }

    /// Whether the link is still believed up.
    pub fn is_alive(&self) -> bool {
        self.shared.alive.load(Ordering::Acquire)
    }

    /// Forwards currently awaiting replies.
    pub fn in_flight(&self) -> usize {
        self.shared.pending.lock().unwrap().len()
    }

    /// Ships one stage forward; `done` fires from the reply thread when
    /// the peer answers (or the link dies).
    ///
    /// # Errors
    ///
    /// Hands `(data, done)` back untouched when the link is dead, the
    /// in-flight window is full, or the write fails — the caller runs the
    /// stage locally. Never blocks on a network round-trip.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub fn submit(
        &self,
        model: u16,
        stage: u16,
        mode: InferMode,
        deadline_us: u32,
        rows: usize,
        cols: usize,
        data: Vec<f32>,
        done: RemoteDone,
    ) -> Result<(), (Vec<f32>, RemoteDone)> {
        if !self.is_alive() {
            return Err((data, done));
        }
        let correlation = self.next_correlation.fetch_add(1, Ordering::Relaxed);
        {
            let mut pending = self.shared.pending.lock().unwrap();
            if pending.len() >= self.window {
                drop(pending);
                return Err((data, done));
            }
            pending.insert(correlation, done);
        }
        let request = Request::Forward {
            model,
            stage,
            mode,
            deadline_us,
            rows,
            cols,
            data,
        };
        let mut frame = BytesMut::new();
        request.encode(&mut frame, PROTOCOL_VERSION, correlation);
        let written = {
            let mut stream = self.write.lock().unwrap();
            stream.write_all(&frame)
        };
        match written {
            Ok(()) => Ok(()),
            Err(_) => {
                // Reclaim the continuation (the reply thread may race us to
                // it — then the request counts as in-flight-failed instead)
                // and the activations, so the caller still falls back.
                let done = self.shared.pending.lock().unwrap().remove(&correlation);
                self.shared.fail_all();
                let Request::Forward { data, .. } = request else {
                    unreachable!("built as Forward above");
                };
                match done {
                    Some(done) => Err((data, done)),
                    None => Ok(()),
                }
            }
        }
    }

    /// Waits up to `grace` for in-flight replies, then severs the link.
    /// Stragglers fail with `PeerUnavailable`; idempotent.
    pub fn close(&self, grace: Duration) {
        let deadline = Instant::now() + grace;
        while self.in_flight() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        let _ = self.write.lock().unwrap().shutdown(Shutdown::Both);
        if let Some(handle) = self.reader.lock().unwrap().take() {
            let _ = handle.join();
        }
        // The reply thread fails stragglers on exit; cover the path where
        // it was already gone before close() ran.
        self.shared.fail_all();
    }
}

impl Drop for PeerClient {
    fn drop(&mut self) {
        self.close(Duration::from_millis(0));
    }
}

/// Reply thread: match correlations to parked continuations until EOF or
/// a framing error, then fail whatever is left.
fn reply_loop(shared: Arc<PeerShared>, mut reader: FrameReader<TcpStream>) {
    while let Ok(Some(payload)) = reader.next_frame() {
        let Ok((_, correlation, reply)) = Reply::decode(&payload) else {
            break; // unparsable reply: the stream cannot be trusted
        };
        let done = shared.pending.lock().unwrap().remove(&correlation);
        let Some(done) = done else {
            continue; // late reply for a failed-over request; drop it
        };
        match reply {
            Reply::Logits { data, .. } => done(RemoteOutcome::Output(data)),
            Reply::Error { code, .. } => done(RemoteOutcome::Failed(code)),
            // A worker shedding load can't take this batch; the head runs
            // it locally next time, so surface it as a hop failure.
            _ => done(RemoteOutcome::Failed(ErrorCode::PeerUnavailable)),
        }
    }
    shared.fail_all();
}
