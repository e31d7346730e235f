//! Event-front-end integration tests: regressions for the accept/shutdown/
//! version-reply fixes, plus the properties the event-loop design exists
//! for — many idle connections on a fixed thread pool, slab slot reuse
//! under churn, and one stalled peer never blocking its loop-mates.

use std::thread;
use std::time::{Duration, Instant};

use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_nn::{mlp, NetworkSpec};
use hpnn_serve::loadgen::{self, LoadPattern};
use hpnn_serve::{
    ErrorCode, InferMode, LoadgenConfig, Reply, Request, ServeConfig, ServeRegistry, Server,
    Session,
};
use hpnn_tensor::Rng;

fn lock_spec(spec: NetworkSpec, seed: u64) -> (LockedModel, HpnnKey) {
    let mut rng = Rng::new(seed);
    let key = HpnnKey::random(&mut rng);
    let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
    let mut net = spec.build(&mut rng).unwrap();
    net.install_lock_factors(&schedule.derive_lock_factors(&key));
    (
        LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default()),
        key,
    )
}

fn mlp_server_at(seed: u64, cfg: ServeConfig, addr: &str) -> Server {
    let (model, key) = lock_spec(mlp(6, &[10], 4), seed);
    let mut registry = ServeRegistry::new();
    registry.add("mlp", model, Some(KeyVault::provision(key, "tpu-0")));
    Server::start(registry, cfg, addr).unwrap()
}

fn mlp_server(seed: u64, cfg: ServeConfig) -> Server {
    mlp_server_at(seed, cfg, "127.0.0.1:0")
}

fn small_cfg(event_threads: usize) -> ServeConfig {
    ServeConfig::builder()
        .max_batch(16)
        .max_wait(Duration::from_millis(2))
        .queue_cap(256)
        .max_rows_per_request(8)
        .max_inflight_per_conn(64)
        .event_threads(event_threads)
        .build()
        .unwrap()
}

/// Spin until `pred` holds or the deadline passes; asserts on timeout.
fn wait_for(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(2));
    }
}

/// Live thread count of this process (Linux); `None` elsewhere.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Framing-level error replies — to frames too broken to carry a header —
/// are framed like every other reply, with the correlation word, so a
/// pipelined session decodes them.
#[test]
fn framing_errors_get_decodable_replies() {
    let server = mlp_server(11, small_cfg(1));
    let mut session = Session::connect(server.local_addr()).unwrap();
    session.hello("v2-err").unwrap();

    // One-byte payload: too short for a header, unparseable, but the
    // connection survives.
    session.send_raw(&[1, 0, 0, 0, 2]).unwrap();
    let (corr, reply) = session.recv().unwrap();
    assert_eq!(corr, 0, "framing errors carry correlation 0");
    match reply {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected MALFORMED, got {other:?}"),
    }

    // The session is intact.
    let t = session
        .submit(0, InferMode::Keyed, 0, 1, 6, vec![0.5; 6])
        .unwrap();
    assert_eq!(session.wait(t).unwrap().rows, 1);

    // Lying length prefix: fatal, but the final error frame still reaches
    // this session, decodable, before the close.
    session.send_raw(&u32::MAX.to_le_bytes()).unwrap();
    let (corr, reply) = session.recv().unwrap();
    assert_eq!(corr, 0);
    match reply {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected MALFORMED, got {other:?}"),
    }

    assert_eq!(server.metrics().protocol_errors, 2);
    server.shutdown();
}

/// Regression (shutdown poke): `shutdown()` unblocks accept() by
/// connecting to the listener. On a wildcard bind the old code aimed the
/// poke at the *bound* address (`0.0.0.0:port`); aim at loopback instead
/// and verify the whole teardown completes, with the poke kept out of
/// `connections`.
#[test]
fn shutdown_completes_on_wildcard_bind() {
    let server = mlp_server_at(12, small_cfg(1), "0.0.0.0:0");
    let port = server.local_addr().port();

    let mut client = Session::connect(("127.0.0.1", port)).unwrap();
    client.hello("wildcard").unwrap();
    assert_eq!(
        client
            .infer(0, InferMode::Keyed, 0, 1, 6, vec![0.25; 6])
            .unwrap()
            .rows,
        1
    );

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let shut = thread::spawn(move || {
        server.shutdown();
        let stats = server.metrics();
        done_tx.send(stats).unwrap();
    });
    let stats = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown wedged on wildcard bind");
    shut.join().unwrap();
    assert_eq!(
        stats.connections, 1,
        "the shutdown poke must not count as a client connection"
    );
    assert_eq!(stats.accept_errors, 0);
}

/// The headline property: a thousand concurrent idle sessions are held
/// by the fixed event-loop pool — no thread per connection anywhere.
#[test]
fn thousand_idle_sessions_on_fixed_thread_pool() {
    const SESSIONS: usize = 1000;
    let server = mlp_server(13, small_cfg(2));
    let addr = server.local_addr();
    assert_eq!(server.event_threads(), 2);

    // Everything the server will ever spawn is already running.
    let baseline = thread_count();

    let mut sessions = Vec::with_capacity(SESSIONS);
    for _ in 0..SESSIONS {
        let mut s = Session::connect(addr).unwrap();
        s.hello("idle").unwrap();
        sessions.push(s);
    }
    wait_for("all sessions open server-side", || {
        server.metrics().open_connections == SESSIONS as u64
    });

    if let (Some(before), Some(now)) = (baseline, thread_count()) {
        let grown = now.saturating_sub(before);
        assert!(
            grown <= 16,
            "accepting {SESSIONS} connections grew the process by {grown} threads; \
             a thread-per-connection front end would add ~{}",
            2 * SESSIONS
        );
    }

    // The pool is still responsive with the full slab resident: every
    // 100th session does a real inference.
    for s in sessions.iter_mut().step_by(100) {
        let t = s
            .submit(0, InferMode::Keyed, 0, 1, 6, vec![0.1; 6])
            .unwrap();
        assert_eq!(s.wait(t).unwrap().rows, 1);
    }

    let stats = server.metrics();
    assert_eq!(stats.connections, SESSIONS as u64);
    assert_eq!(stats.accept_errors, 0);
    drop(sessions);
    wait_for("slab to drain after disconnects", || {
        server.metrics().open_connections == 0
    });
    server.shutdown();
}

/// Connection churn recycles slab slots without leaking: the open-connection
/// gauge returns to zero and every request is answered. Runs the loadgen
/// churn pattern on a single event thread to maximize slot reuse.
#[test]
fn churn_leaks_no_slots_and_loses_no_replies() {
    let server = mlp_server(14, small_cfg(1));
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: 4,
        requests_per_client: 32,
        rows_per_request: 1,
        depth: 2,
        pattern: LoadPattern::Churn(4),
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&cfg).unwrap();
    assert_eq!(report.ok, 128, "churn dropped replies: {report:?}");
    assert_eq!(report.errors, 0);

    wait_for("churned connections to retire", || {
        server.metrics().open_connections == 0
    });
    let stats = server.metrics();
    assert_eq!(stats.replies_ok, 128);
    // 4 clients x 8 connections each, plus loadgen's probe/stats sessions.
    assert!(stats.connections >= 32, "stats: {stats:?}");
    server.shutdown();
}

/// One peer that stalls mid-frame — and another that submits a full window
/// and never reads — must not stall other connections on the same single
/// event loop.
#[test]
fn stalled_peers_do_not_block_the_loop() {
    let server = mlp_server(15, small_cfg(1));
    let addr = server.local_addr();

    // Peer 1: declares a 100-byte frame, sends 10 bytes, goes silent.
    let mut partial = Session::connect(addr).unwrap();
    partial.send_raw(&100u32.to_le_bytes()).unwrap();
    partial.send_raw(&[0u8; 10]).unwrap();

    // Peer 2: fills its pipeline window and reads nothing; replies pile up
    // in its outbound queue.
    let mut mute = Session::connect(addr).unwrap();
    mute.hello("mute").unwrap();
    let tickets: Vec<_> = (0..32)
        .map(|_| {
            mute.submit(0, InferMode::Keyed, 0, 1, 6, vec![0.3; 6])
                .unwrap()
        })
        .collect();

    // A well-behaved peer on the same loop stays fully interactive.
    let mut live = Session::connect(addr).unwrap();
    live.hello("live").unwrap();
    for i in 0..50 {
        let t = live
            .submit(0, InferMode::Keyed, 0, 1, 6, vec![i as f32 / 50.0; 6])
            .unwrap();
        assert_eq!(live.wait(t).unwrap().rows, 1);
    }

    // The mute peer's replies were buffered, not lost.
    for t in tickets {
        assert_eq!(mute.wait(t).unwrap().rows, 1);
    }
    server.shutdown();
}

/// The half-close pattern (send → `shutdown(WR)` → read): pipeline a
/// window of requests, shut the write side, and collect every reply.
/// Correlations retire at mailbox transfer (on the loop thread), so the window depth keeps the
/// slot alive until each reply is queued — the event loop interleaving
/// between a worker's window-removal and mailbox-push used to leave a gap
/// where `retired()` reclaimed the slot with replies still undelivered.
#[test]
fn half_closed_v2_session_still_collects_replies() {
    let server = mlp_server(19, small_cfg(1));
    let mut s = Session::connect(server.local_addr()).unwrap();
    s.hello("v2-halfclose").unwrap();
    let tickets: Vec<_> = (0..8)
        .map(|i| {
            s.submit(0, InferMode::Keyed, 0, 1, 6, vec![0.1 * i as f32; 6])
                .unwrap()
        })
        .collect();
    s.shutdown_write().unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    for t in tickets {
        let logits = s
            .wait(t)
            .expect("pipelined reply lost on half-closed v2 session");
        assert_eq!(logits.rows, 1);
    }
    wait_for("half-closed v2 slot to retire", || {
        server.metrics().open_connections == 0
    });
    let stats = server.metrics();
    assert_eq!(stats.replies_ok, 8);
    assert_eq!(stats.writeback.count, 8);
    server.shutdown();
}

/// Regression (lost wake-up): replies must reach the wire on the batch's
/// own wake — not on the next request's bytes, not on the 200 ms poll
/// timeout. The wake pipe used to re-arm before reading, so under dense
/// traffic a wake slipped between the two, its byte was swallowed, and the
/// pipe went silent for the rest of the server's life; every later reply
/// then sat in its mailbox until unrelated traffic or the timeout moved
/// the loop. A dense pipelined burst provokes that state; the sparse
/// requests after it, alone on a silent connection, expose it.
#[test]
fn replies_ride_their_own_wake_after_a_dense_burst() {
    let server = mlp_server(29, small_cfg(1));
    let mut s = Session::connect(server.local_addr()).unwrap();
    s.hello("burst-then-sparse").unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Dense phase: keep 32 requests pipelined (two full batches, so the
    // worker mailboxes replies while the loop is busy draining) for 1.5 s.
    let burst_end = Instant::now() + Duration::from_millis(1500);
    let mut burst = 0u64;
    while Instant::now() < burst_end {
        let tickets: Vec<_> = (0..32)
            .map(|i| {
                s.submit(0, InferMode::Keyed, 0, 1, 6, vec![0.01 * i as f32; 6])
                    .unwrap()
            })
            .collect();
        for t in tickets {
            assert_eq!(s.wait(t).unwrap().rows, 1);
        }
        burst += 32;
    }
    let after_burst = server.metrics();
    assert_eq!(after_burst.replies_ok, burst);
    assert!(
        after_burst.batches < burst,
        "burst must have produced multi-row batches"
    );

    // Sparse phase: nothing else moves this loop, so each reply's latency
    // is what its own wake delivers. A dead pipe shows as ~200 ms each.
    let sparse = 5u64;
    for i in 0..sparse {
        thread::sleep(Duration::from_millis(300));
        let sent = Instant::now();
        let t = s
            .submit(0, InferMode::Keyed, 0, 1, 6, vec![0.5; 6])
            .unwrap();
        assert_eq!(s.wait(t).unwrap().rows, 1);
        let took = sent.elapsed();
        assert!(
            took < Duration::from_millis(50),
            "sparse reply {i} took {took:?}: it waited for the poll timeout, not its wake"
        );
    }
    let stats = server.metrics();
    assert!(
        stats.wakeups >= after_burst.wakeups + sparse,
        "wake pipe went silent after the burst: {} wakeups before, {} after {sparse} lone replies",
        after_burst.wakeups,
        stats.wakeups
    );
    assert_eq!(stats.replies_ok, burst + sparse);
    assert_eq!(stats.writeback.count, burst + sparse);
    server.shutdown();
}

/// Regression (shutdown poke, the other direction): a listener bound to a
/// *specific* non-localhost address does not answer on 127.0.0.1, so a
/// poke hardwired to loopback misses it (ECONNREFUSED — or worse, reaches
/// an unrelated process listening on that loopback port) and the accept
/// join hangs. The poke must aim at the bound address whenever it is
/// connectable, loopback only for wildcard binds. Uses 127.0.0.2, local on
/// Linux (all of 127/8) yet distinct from 127.0.0.1; skips quietly where
/// the alias cannot be bound.
#[test]
fn shutdown_completes_on_specific_address_bind() {
    let (model, key) = lock_spec(mlp(6, &[10], 4), 20);
    let mut registry = ServeRegistry::new();
    registry.add("mlp", model, Some(KeyVault::provision(key, "tpu-0")));
    let server = match Server::start(registry, small_cfg(1), "127.0.0.2:0") {
        Ok(s) => s,
        Err(_) => return, // platform without the 127/8 alias
    };
    assert_eq!(server.local_addr().ip().to_string(), "127.0.0.2");

    let mut client = Session::connect(server.local_addr()).unwrap();
    client.hello("alias").unwrap();
    assert_eq!(
        client
            .infer(0, InferMode::Keyed, 0, 1, 6, vec![0.25; 6])
            .unwrap()
            .rows,
        1
    );
    drop(client);

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let shut = thread::spawn(move || {
        server.shutdown();
        done_tx.send(server.metrics()).unwrap();
    });
    let stats = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown wedged on a specific-address bind");
    shut.join().unwrap();
    assert_eq!(stats.connections, 1, "poke must not count as a client");
}

/// Regression (read gating): a client that pipelines requests without ever
/// reading replies must hit TCP backpressure — the server stops *reading*
/// once the connection's decode is wedged on its outbound backlog, so the
/// kernel receive buffer fills and the flooder's own writes block. The old
/// front end kept draining the socket into the frame buffer without bound.
/// STATS makes the wedge cheap: a ~15-byte request with a multi-KB reply
/// (six histograms) backs the outbound queue up after a few thousand
/// frames.
#[test]
fn pipelining_flooder_hits_tcp_backpressure() {
    use std::io::Write;

    let server = mlp_server(21, small_cfg(1));
    let addr = server.local_addr();

    let mut frame = hpnn_bytes::BytesMut::new();
    Request::Stats.encode(&mut frame, 2, 1);
    let mut block = Vec::with_capacity(256 * 1024);
    while block.len() + frame.len() <= 256 * 1024 {
        block.extend_from_slice(&frame);
    }

    let flooder = std::net::TcpStream::connect(addr).unwrap();
    flooder.set_nonblocking(true).unwrap();
    // Generous bound: READ_BUFFER_CAP (~16 MiB) + kernel send/receive
    // buffers + the replies actually consumed. Without read gating the
    // server absorbs arbitrarily much and this ceiling trips.
    const WRITE_CEILING: usize = 48 << 20;
    let mut written = 0usize;
    let mut off = 0usize;
    let mut blocked_since: Option<Instant> = None;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        assert!(Instant::now() < deadline, "backpressure never engaged");
        match (&flooder).write(&block[off..]) {
            Ok(0) => panic!("flooder socket closed mid-write"),
            Ok(n) => {
                written += n;
                off = (off + n) % block.len();
                blocked_since = None;
                assert!(
                    written < WRITE_CEILING,
                    "server absorbed {written} bytes from a non-reading client \
                     without pushing back"
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => match blocked_since {
                None => blocked_since = Some(Instant::now()),
                Some(t) if t.elapsed() >= Duration::from_millis(500) => break,
                Some(_) => thread::sleep(Duration::from_millis(5)),
            },
            Err(e) => panic!("flooder write failed: {e}"),
        }
    }

    // The wedged flooder must not affect its loop-mates.
    let mut live = Session::connect(addr).unwrap();
    live.hello("live-beside-flood").unwrap();
    let t = live
        .submit(0, InferMode::Keyed, 0, 1, 6, vec![0.4; 6])
        .unwrap();
    assert_eq!(live.wait(t).unwrap().rows, 1);

    drop(flooder);
    wait_for("flooder slot reclaimed after disconnect", || {
        server.metrics().open_connections <= 1
    });
    server.shutdown();
}

/// The idle loadgen pattern end to end: clients hold connections open doing
/// nothing, then run their requests; nothing times out or drops.
#[test]
fn idle_pattern_holds_then_serves() {
    let server = mlp_server(17, small_cfg(2));
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: 8,
        requests_per_client: 4,
        depth: 1,
        pattern: LoadPattern::Idle(Duration::from_millis(100)),
        ..LoadgenConfig::default()
    };
    let report = loadgen::run(&cfg).unwrap();
    assert_eq!(report.ok, 32, "idle-hold run dropped replies: {report:?}");
    assert_eq!(report.errors, 0);
    assert!(
        report.elapsed >= Duration::from_millis(100),
        "hold was not applied"
    );
    server.shutdown();
}

fn infer_batch(rows: usize) -> Request {
    Request::Infer {
        model: 0,
        mode: InferMode::Keyed,
        deadline_us: 0,
        rows,
        cols: 6,
        data: vec![0.25; rows * 6],
    }
}

/// A peer that dies mid-INFER_BATCH-frame (length prefix on the wire, body
/// cut short by EOF) retires cleanly: no reply, no wedged slot, and the next
/// connection's batches are served normally.
#[test]
fn infer_batch_mid_frame_eof_retires_cleanly() {
    let server = mlp_server(31, small_cfg(1));
    let addr = server.local_addr();

    let mut dying = Session::connect(addr).unwrap();
    dying.send_raw(&64u32.to_le_bytes()).unwrap();
    dying.send_raw(&[2, 3, 0, 0, 0, 7, 0, 0]).unwrap(); // v2, INFER_BATCH, partial
    drop(dying);
    wait_for("mid-frame EOF slot to retire", || {
        server.metrics().open_connections == 0
    });

    let mut s = Session::connect(addr).unwrap();
    s.hello("after-eof").unwrap();
    let corr = s.send(&infer_batch(2)).unwrap();
    let (reply_corr, reply) = s.recv().unwrap();
    assert_eq!(reply_corr, corr);
    assert!(matches!(
        reply,
        Reply::Logits {
            rows: 2,
            cols: 4,
            ..
        }
    ));
    let stats = server.metrics();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.replies_ok, 1);
    server.shutdown();
}

/// An INFER_BATCH frame whose declared rows x cols dwarfs the data it
/// actually carries is malformed, not fatal: typed error, connection stays
/// usable, nothing is admitted to the scheduler.
#[test]
fn oversized_infer_batch_length_is_malformed_not_fatal() {
    let server = mlp_server(32, small_cfg(1));
    let mut s = Session::connect(server.local_addr()).unwrap();
    s.hello("oversized").unwrap();

    // Encode a well-formed 2x6 batch, then patch its rows field (body
    // offset 7 → frame offset 17 behind the 4-byte length prefix and the
    // 6-byte header) to claim a million rows the payload doesn't carry.
    let mut frame = hpnn_bytes::BytesMut::new();
    infer_batch(2).encode(&mut frame, 2, 9);
    let mut raw = frame.to_vec();
    raw[17..21].copy_from_slice(&(1u32 << 20).to_le_bytes());
    s.send_raw(&raw).unwrap();
    let (corr, reply) = s.recv().unwrap();
    assert_eq!(corr, 9, "the error must echo the frame's correlation");
    match reply {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected MALFORMED, got {other:?}"),
    }

    // The framing layer is intact: a well-formed batch still lands.
    let corr = s.send(&infer_batch(2)).unwrap();
    let (reply_corr, reply) = s.recv().unwrap();
    assert_eq!(reply_corr, corr);
    assert!(matches!(reply, Reply::Logits { rows: 2, .. }));
    let stats = server.metrics();
    assert_eq!(
        stats.requests, 1,
        "the oversized frame must not be admitted"
    );
    server.shutdown();
}

/// Opcode 0x06 carried a cluster head's activations to a worker until the
/// split was deleted. A well-formed frame from such a build is refused
/// typed on its own correlation, and the socket goes on serving.
#[test]
fn retired_fwd_act_opcode_is_refused_and_the_socket_stays_usable() {
    let server = mlp_server(33, small_cfg(1));
    let mut s = Session::connect(server.local_addr()).unwrap();
    s.hello("parent-build-head").unwrap();

    // The parent build's layout: [model u16][stage u16][mode u8]
    // [deadline u32][rows u32][cols u32][rows * cols f32].
    let mut body = vec![2, 0x06];
    body.extend_from_slice(&42u32.to_le_bytes()); // correlation
    body.extend_from_slice(&0u16.to_le_bytes()); // model
    body.extend_from_slice(&0u16.to_le_bytes()); // stage
    body.push(1); // keyless
    body.extend_from_slice(&0u32.to_le_bytes()); // deadline
    body.extend_from_slice(&1u32.to_le_bytes()); // rows
    body.extend_from_slice(&6u32.to_le_bytes()); // cols
    for _ in 0..6 {
        body.extend_from_slice(&0.25f32.to_le_bytes());
    }
    s.send_raw(&(body.len() as u32).to_le_bytes()).unwrap();
    s.send_raw(&body).unwrap();
    let (corr, reply) = s.recv().unwrap();
    assert_eq!(corr, 42);
    match reply {
        Reply::Error {
            code,
            request_opcode,
            ..
        } => assert_eq!((code, request_opcode), (ErrorCode::BadOpcode, 0x06)),
        other => panic!("expected BAD_OPCODE, got {other:?}"),
    }
    assert_eq!(server.metrics().protocol_errors, 1);

    let corr = s.send(&infer_batch(1)).unwrap();
    let (reply_corr, reply) = s.recv().unwrap();
    assert_eq!(reply_corr, corr);
    assert!(matches!(
        reply,
        Reply::Logits {
            rows: 1,
            cols: 4,
            ..
        }
    ));
    server.shutdown();
}
