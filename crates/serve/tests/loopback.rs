//! Loopback integration tests: real TCP connections against a real server.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_nn::{cnn1, mlp, ImageDims, NetworkSpec};
use hpnn_serve::{
    ErrorCode, InferMode, Reply, Request, ServeConfig, ServeError, ServeRegistry, Server, Session,
    WireError, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
use hpnn_tensor::Rng;

/// Wire byte of the `INFER` request opcode (mirrored in error replies).
const OP_INFER: u8 = 0x02;

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

fn mlp_server(seed: u64, cfg: ServeConfig) -> Server {
    let (model, key) = lock_spec(mlp(6, &[10], 4), seed);
    let mut registry = ServeRegistry::new();
    registry.add("mlp", model, Some(KeyVault::provision(key, "tpu-0")));
    Server::start(registry, cfg, "127.0.0.1:0").unwrap()
}

#[test]
fn hello_advertises_models() {
    let server = mlp_server(1, ServeConfig::default());
    let mut client = Session::connect(server.local_addr()).unwrap();
    let models = client.hello("test").unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].id, 0);
    assert_eq!(models[0].name, "mlp");
    assert_eq!(models[0].in_features, 6);
    assert_eq!(models[0].out_features, 4);
    assert!(models[0].has_key);
    server.shutdown();
}

#[test]
fn concurrent_clients_get_bitwise_serial_results() {
    // A conv model exercises the batched lowering path end to end.
    let (model, key) = lock_spec(cnn1(ImageDims::new(1, 8, 8), 5, 0.5).unwrap(), 2);
    let in_features = model.spec().in_features;
    let mut registry = ServeRegistry::new();
    registry.add("cnn", model, Some(KeyVault::provision(key, "tpu-0")));
    let cfg = ServeConfig::builder()
        .max_batch(16)
        .max_wait(Duration::from_millis(5))
        .queue_cap(256)
        .max_rows_per_request(64)
        .max_inflight_per_conn(64)
        .build()
        .unwrap();
    let server = Server::start(registry, cfg, "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    const CLIENTS: usize = 8;
    let mut rng = Rng::new(3);
    let inputs: Vec<Vec<f32>> = (0..CLIENTS)
        .map(|_| {
            let mut v = vec![0.0f32; in_features];
            rng.fill_uniform(&mut v, -1.0, 1.0);
            v
        })
        .collect();

    // Reference pass: serial, one request at a time on one connection, so
    // every forward runs with batch size 1.
    let serial: Vec<Vec<u32>> = {
        let mut client = Session::connect(addr).unwrap();
        inputs
            .iter()
            .map(|x| {
                client
                    .infer(0, InferMode::Keyed, 0, 1, in_features, x.clone())
                    .unwrap()
                    .data
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    };

    // Concurrent pass: all clients fire simultaneously so the scheduler
    // coalesces them into shared batches.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = inputs
        .iter()
        .cloned()
        .map(|x| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Session::connect(addr).unwrap();
                barrier.wait();
                client
                    .infer(0, InferMode::Keyed, 0, 1, x.len(), x)
                    .unwrap()
                    .data
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u32>>()
            })
        })
        .collect();
    for (handle, want) in handles.into_iter().zip(&serial) {
        let got = handle.join().unwrap();
        assert_eq!(&got, want, "batched logits must be bitwise serial logits");
    }

    let stats = server.metrics();
    assert_eq!(stats.replies_ok, 2 * CLIENTS as u64);
    assert_eq!(stats.e2e.count, 2 * CLIENTS as u64);
    assert_eq!(stats.forward.count, 2 * CLIENTS as u64);
    assert_eq!(stats.inflight, 0, "window must drain with the replies");
    server.shutdown();
}

#[test]
fn replies_arrive_out_of_order_on_one_connection() {
    // A heavyweight model and a featherweight one share a server. A
    // one-row request waits out the long fill window, while a request of
    // `max_batch` rows fills its batch and fires at once, so reply order is
    // set by the queues, not by submission order or thread scheduling.
    let (slow_model, slow_key) = lock_spec(mlp(64, &[1024, 1024], 8), 20);
    let (fast_model, fast_key) = lock_spec(mlp(4, &[4], 2), 21);
    let mut registry = ServeRegistry::new();
    registry.add("slow", slow_model, Some(KeyVault::provision(slow_key, "a")));
    registry.add("fast", fast_model, Some(KeyVault::provision(fast_key, "b")));
    let cfg = ServeConfig::builder()
        .max_batch(8)
        .max_wait(Duration::from_millis(300))
        .queue_cap(64)
        .max_rows_per_request(8)
        .max_inflight_per_conn(64)
        .build()
        .unwrap();
    let server = Server::start(registry, cfg, "127.0.0.1:0").unwrap();

    // Round 1: observe the raw wire on a throwaway session (reading a reply
    // with `recv` bypasses ticket bookkeeping, so the session is not reused
    // afterwards). The fast model's full batch must overtake the slow
    // single row submitted before it.
    {
        let mut wire_session = Session::connect(server.local_addr()).unwrap();
        wire_session.hello("ooo-wire").unwrap();
        let slow = wire_session
            .submit(0, InferMode::Keyed, 0, 1, 64, vec![0.1; 64])
            .unwrap();
        let fast = wire_session
            .submit(1, InferMode::Keyed, 0, 8, 4, vec![0.2; 8 * 4])
            .unwrap();
        let (first_corr, first_reply) = wire_session.recv().unwrap();
        assert_eq!(
            first_corr,
            fast.correlation(),
            "fast reply must arrive first"
        );
        assert!(matches!(
            first_reply,
            Reply::Logits {
                rows: 8,
                cols: 2,
                ..
            }
        ));
        let (second_corr, second_reply) = wire_session.recv().unwrap();
        assert_eq!(second_corr, slow.correlation());
        assert!(matches!(
            second_reply,
            Reply::Logits {
                rows: 1,
                cols: 8,
                ..
            }
        ));
    }

    let mut session = Session::connect(server.local_addr()).unwrap();
    session.hello("ooo").unwrap();

    // Round 2: wait on the slow ticket first; the fast reply that lands in
    // the meantime is stashed and served without touching the wire again.
    let slow2 = session
        .submit(0, InferMode::Keyed, 0, 1, 64, vec![0.3; 64])
        .unwrap();
    let fast2 = session
        .submit(1, InferMode::Keyed, 0, 1, 4, vec![0.4; 4])
        .unwrap();
    assert_eq!(session.wait(slow2).unwrap().cols, 8);
    assert_eq!(session.wait(fast2).unwrap().cols, 2);

    // Round 3: drain resolves a mixed window in submission order.
    let t1 = session
        .submit(0, InferMode::Keyed, 0, 1, 64, vec![0.5; 64])
        .unwrap();
    let t2 = session
        .submit(1, InferMode::Keyed, 0, 1, 4, vec![0.6; 4])
        .unwrap();
    let drained = session.drain().unwrap();
    assert_eq!(drained.len(), 2);
    assert_eq!(drained[0].0, t1);
    assert_eq!(drained[1].0, t2);
    assert!(drained.iter().all(|(_, o)| o.is_ok()));
    assert_eq!(session.in_flight(), 0);

    let stats = server.metrics();
    assert_eq!(stats.replies_ok, 6);
    assert_eq!(stats.inflight, 0);
    assert_eq!(stats.depth.count, stats.requests);
    server.shutdown();
}

#[test]
fn duplicate_correlation_is_rejected_without_killing_the_original() {
    // A long fill wait parks the first request in the queue, leaving its
    // correlation in flight while the duplicate arrives.
    let cfg = ServeConfig::builder()
        .max_batch(64)
        .max_wait(Duration::from_millis(300))
        .queue_cap(64)
        .max_rows_per_request(8)
        .max_inflight_per_conn(64)
        .build()
        .unwrap();
    let server = mlp_server(22, cfg);
    let mut session = Session::connect(server.local_addr()).unwrap();
    session.hello("dup").unwrap();

    // Hand-encode two INFER frames sharing correlation 77 (Session::submit
    // would never reuse one).
    let req = Request::Infer {
        model: 0,
        mode: InferMode::Keyed,
        deadline_us: 0,
        rows: 1,
        cols: 6,
        data: vec![0.0; 6],
    };
    let mut wire = hpnn_bytes::BytesMut::new();
    req.encode(&mut wire, 2, 77);
    session.send_raw(&wire).unwrap();
    session.send_raw(&wire).unwrap();

    // The rejection fires immediately, well before the queued original.
    let (corr, reply) = session.recv().unwrap();
    assert_eq!(corr, 77);
    match reply {
        Reply::Error {
            code,
            request_opcode,
            ..
        } => {
            assert_eq!(code, ErrorCode::DuplicateCorrelation);
            assert_eq!(request_opcode, OP_INFER);
        }
        other => panic!("expected duplicate-correlation error, got {other:?}"),
    }
    // The original still completes once the fill wait elapses, and its
    // correlation is reusable afterwards.
    let (corr, reply) = session.recv().unwrap();
    assert_eq!(corr, 77);
    assert!(matches!(reply, Reply::Logits { rows: 1, .. }));
    session.send_raw(&wire).unwrap();
    let (corr, reply) = session.recv().unwrap();
    assert_eq!(corr, 77);
    assert!(matches!(reply, Reply::Logits { rows: 1, .. }));

    let stats = server.metrics();
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.inflight, 0);
    server.shutdown();
}

/// Protocol v1 is retired: its frames — a two-byte `[version][opcode]`
/// header, no correlation word — are answered like any other foreign
/// version, with a typed `BadVersion` error framed the one way this server
/// frames anything, and the connection stays usable.
#[test]
fn v1_frame_is_refused_typed_and_connection_survives() {
    const OP_HELLO: u8 = 0x01;
    const OP_STATS: u8 = 0x04;
    let server = mlp_server(23, ServeConfig::default());
    let mut session = Session::connect(server.local_addr()).unwrap();

    // A v1 HELLO (body: u32-prefixed client name), then a bare v1 STATS.
    let mut hello = vec![1, OP_HELLO];
    hello.extend_from_slice(&6u32.to_le_bytes());
    hello.extend_from_slice(b"legacy");
    let mut wire = (hello.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&hello);
    wire.extend_from_slice(&[2, 0, 0, 0, 1, OP_STATS]);
    session.send_raw(&wire).unwrap();

    for opcode in [OP_HELLO, OP_STATS] {
        // `recv` decodes with the one header layout: a reply framed any
        // other way would not parse.
        let (corr, reply) = session.recv().unwrap();
        assert_eq!(corr, 0, "a v1 frame has no correlation to echo");
        match reply {
            Reply::Error {
                code,
                request_opcode,
                ..
            } => {
                assert_eq!(code, ErrorCode::BadVersion);
                assert_eq!(request_opcode, opcode);
            }
            other => panic!("expected BAD_VERSION, got {other:?}"),
        }
    }

    // Same socket, current protocol: handshake and inference both work.
    assert_eq!(session.hello("current").unwrap().len(), 1);
    let logits = session
        .infer(0, InferMode::Keyed, 0, 1, 6, vec![0.5; 6])
        .unwrap();
    assert_eq!((logits.rows, logits.cols), (1, 4));

    let stats = server.metrics();
    assert_eq!(stats.protocol_errors, 2);
    assert_eq!(stats.replies_ok, 1);
    server.shutdown();
}

/// The client's half of "one version": a peer whose `HELLO_OK` announces
/// anything but ours is refused at the handshake, before any pipelining.
#[test]
fn hello_ok_announcing_another_version_is_refused() {
    use std::io::Write;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader =
            hpnn_serve::FrameReader::new(stream.try_clone().unwrap(), MAX_FRAME_PAYLOAD);
        let payload = reader.next_frame().unwrap().unwrap();
        let (_, correlation, _) = Request::decode(&payload).unwrap();
        let mut out = hpnn_bytes::BytesMut::new();
        Reply::HelloOk {
            version: 1,
            models: Vec::new(),
        }
        .encode(&mut out, PROTOCOL_VERSION, correlation);
        (&stream).write_all(&out).unwrap();
    });
    let mut session = Session::connect(addr).unwrap();
    match session.hello("strict") {
        Err(ServeError::Protocol(WireError::BadVersion(1))) => {}
        other => panic!("expected BadVersion(1), got {other:?}"),
    }
    stub.join().unwrap();
}

#[test]
fn deep_pipelining_sheds_busy_at_the_connection_window() {
    // Window of 2 with a fill wait long enough that nothing completes while
    // we overfill: the third submit must bounce as BUSY.
    let cfg = ServeConfig::builder()
        .max_batch(64)
        .max_wait(Duration::from_millis(300))
        .queue_cap(64)
        .max_rows_per_request(8)
        .max_inflight_per_conn(2)
        .build()
        .unwrap();
    let server = mlp_server(24, cfg);
    let mut session = Session::connect(server.local_addr()).unwrap();
    session.hello("deep").unwrap();

    let t1 = session
        .submit(0, InferMode::Keyed, 0, 1, 6, vec![0.1; 6])
        .unwrap();
    let t2 = session
        .submit(0, InferMode::Keyed, 0, 1, 6, vec![0.2; 6])
        .unwrap();
    let t3 = session
        .submit(0, InferMode::Keyed, 0, 1, 6, vec![0.3; 6])
        .unwrap();
    assert!(matches!(session.wait(t3), Err(ServeError::Busy)));
    assert_eq!(server.metrics().busy, 1);
    assert!(session.wait(t1).is_ok());
    assert!(session.wait(t2).is_ok());
    let stats = server.metrics();
    assert_eq!(stats.inflight, 0);
    // Only admitted requests land in the depth histogram.
    assert_eq!(stats.depth.count, 2);
    server.shutdown();
}

#[test]
fn malformed_frames_get_error_replies_and_connection_survives() {
    let server = mlp_server(4, ServeConfig::default());
    let mut client = Session::connect(server.local_addr()).unwrap();

    // Bad version byte inside a well-formed frame.
    client
        .send_raw(&[6, 0, 0, 0, 99, 0x04, 0, 0, 0, 0])
        .unwrap();
    match client.recv().unwrap().1 {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::BadVersion),
        other => panic!("expected error reply, got {other:?}"),
    }

    // Unknown opcode.
    client.send_raw(&[6, 0, 0, 0, 2, 0x7F, 0, 0, 0, 0]).unwrap();
    match client.recv().unwrap().1 {
        Reply::Error {
            code,
            request_opcode,
            ..
        } => {
            assert_eq!(code, ErrorCode::BadOpcode);
            assert_eq!(request_opcode, 0x7F, "error must name the opcode");
        }
        other => panic!("expected error reply, got {other:?}"),
    }

    // Garbage body after a valid header.
    client
        .send_raw(&[7, 0, 0, 0, 2, 0x02, 0, 0, 0, 0, 0xFF])
        .unwrap();
    match client.recv().unwrap().1 {
        Reply::Error {
            code,
            request_opcode,
            ..
        } => {
            assert_eq!(code, ErrorCode::Malformed);
            assert_eq!(request_opcode, OP_INFER);
        }
        other => panic!("expected error reply, got {other:?}"),
    }

    // The same connection still serves valid requests afterwards.
    let models = client.hello("still-alive").unwrap();
    assert_eq!(models.len(), 1);

    let stats = server.metrics();
    assert_eq!(stats.protocol_errors, 3);
    server.shutdown();
}

#[test]
fn lying_length_prefix_closes_connection_but_not_server() {
    let server = mlp_server(5, ServeConfig::default());
    let mut bad = Session::connect(server.local_addr()).unwrap();
    // Declares a payload beyond MAX_FRAME_PAYLOAD: unsyncable.
    bad.send_raw(&u32::MAX.to_le_bytes()).unwrap();
    match bad.recv() {
        Ok((_, Reply::Error { code, .. })) => assert_eq!(code, ErrorCode::Malformed),
        Ok((_, other)) => panic!("expected error reply, got {other:?}"),
        Err(_) => {} // server may cut before the reply lands; both are valid
    }
    // A fresh connection works: the server survived.
    let mut good = Session::connect(server.local_addr()).unwrap();
    assert_eq!(good.hello("survivor").unwrap().len(), 1);
    server.shutdown();
}

#[test]
fn full_queue_yields_busy() {
    // Queue and batch target the same small size with a long fill wait:
    // a partial batch parks in the fill window, its rows stay queued, and
    // the next submit overflows deterministically.
    let cfg = ServeConfig::builder()
        .max_batch(4)
        .max_wait(Duration::from_secs(5))
        .queue_cap(4)
        .max_rows_per_request(8)
        .max_inflight_per_conn(64)
        .build()
        .unwrap();
    let server = mlp_server(6, cfg);
    let addr = server.local_addr();
    let mut client = Session::connect(addr).unwrap();

    // Park 3 rows (< max_batch, so the worker sits in its fill wait) from
    // a second connection.
    let filler = thread::spawn(move || {
        let mut c = Session::connect(addr).unwrap();
        c.infer(0, InferMode::Keyed, 0, 3, 6, vec![0.0; 18])
            .unwrap()
    });
    // Wait until all three rows are queued.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.metrics().rows < 3 {
        assert!(std::time::Instant::now() < deadline, "queue never filled");
        thread::sleep(Duration::from_millis(1));
    }

    // 3 queued + 2 > queue_cap of 4.
    match client.infer(0, InferMode::Keyed, 0, 2, 6, vec![0.0; 12]) {
        Err(ServeError::Busy) => {}
        other => panic!("expected busy, got {other:?}"),
    }
    assert_eq!(server.metrics().busy, 1);

    // The parked rows complete on the shutdown drain.
    server.shutdown();
    let logits = filler.join().unwrap();
    assert_eq!(logits.rows, 3);
}

#[test]
fn shutdown_drains_queued_requests() {
    // Fill wait far longer than the test: only the drain can release the
    // batch, proving queued work is completed (not dropped) on shutdown.
    let cfg = ServeConfig::builder()
        .max_batch(64)
        .max_wait(Duration::from_secs(30))
        .queue_cap(64)
        .max_rows_per_request(8)
        .max_inflight_per_conn(64)
        .build()
        .unwrap();
    let server = mlp_server(7, cfg);
    let addr = server.local_addr();

    const WAITERS: usize = 3;
    let started = Arc::new(Barrier::new(WAITERS + 1));
    let handles: Vec<_> = (0..WAITERS)
        .map(|i| {
            let started = Arc::clone(&started);
            thread::spawn(move || {
                let mut c = Session::connect(addr).unwrap();
                started.wait();
                c.infer(0, InferMode::Keyed, 0, 1, 6, vec![i as f32; 6])
                    .unwrap()
            })
        })
        .collect();
    started.wait();
    // Wait until all three requests sit in the queue.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server.metrics().requests < WAITERS as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "requests never queued"
        );
        thread::sleep(Duration::from_millis(1));
    }

    let mut admin = Session::connect(addr).unwrap();
    admin.shutdown().unwrap();

    for handle in handles {
        assert_eq!(handle.join().unwrap().rows, 1);
    }
    let stats = server.metrics();
    assert_eq!(stats.replies_ok, WAITERS as u64);
    assert_eq!(stats.inflight, 0);

    // New work is refused after the drain.
    let mut late = Session::connect(addr);
    if let Ok(ref mut c) = late {
        // Refused, disconnected, or connection failure are all fine; only a
        // served reply is a drain violation.
        if let Ok(other) = c.infer(0, InferMode::Keyed, 0, 1, 6, vec![0.0; 6]) {
            panic!("expected rejection after shutdown, got {other:?}");
        }
    }
    server.join();
}

#[test]
fn deadline_expires_in_queue() {
    let cfg = ServeConfig::builder()
        .max_batch(64)
        .max_wait(Duration::from_millis(200))
        .queue_cap(64)
        .max_rows_per_request(8)
        .max_inflight_per_conn(64)
        .build()
        .unwrap();
    let server = mlp_server(8, cfg);
    let mut client = Session::connect(server.local_addr()).unwrap();
    // 1ms deadline against a 200ms fill wait: expires before the batch runs.
    match client.infer(0, InferMode::Keyed, 1_000, 1, 6, vec![0.0; 6]) {
        Err(ServeError::Expired) => {}
        other => panic!("expected expiry, got {other:?}"),
    }
    assert_eq!(server.metrics().expired, 1);
    server.shutdown();
}

#[test]
fn stats_frame_matches_observed_traffic() {
    let cfg = ServeConfig::builder()
        .max_batch(8)
        .max_wait(Duration::from_millis(1))
        .queue_cap(64)
        .max_rows_per_request(8)
        .max_inflight_per_conn(64)
        .build()
        .unwrap();
    let server = mlp_server(9, cfg);
    let mut client = Session::connect(server.local_addr()).unwrap();
    const N: usize = 10;
    for i in 0..N {
        let x = vec![i as f32 / N as f32; 6];
        let logits = client.infer(0, InferMode::Keyed, 0, 1, 6, x).unwrap();
        assert_eq!((logits.rows, logits.cols), (1, 4));
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.requests, N as u64);
    assert_eq!(stats.replies_ok, N as u64);
    assert_eq!(stats.rows, N as u64);
    assert_eq!(stats.e2e.count, N as u64);
    assert_eq!(stats.forward.count, N as u64);
    assert_eq!(stats.e2e.buckets.iter().sum::<u64>(), N as u64);
    assert!(stats.e2e.sum_ns > 0);
    assert!(stats.batches >= 1 && stats.batches <= N as u64);
    // Every admission was made with an empty window (lock-step use of a
    // pipelined session), so the depth histogram is N ones.
    assert_eq!(stats.depth.count, N as u64);
    assert_eq!(stats.depth.sum_ns, N as u64);
    assert_eq!(stats.inflight, 0);
    // The per-shard section travels over the wire and reconciles: one
    // model, one shard, every reply accounted to it.
    assert_eq!(stats.shards.len(), 1);
    assert_eq!(stats.shards[0].model, 0);
    assert_eq!(stats.shards[0].shard, 0);
    assert!(stats.shards[0].active);
    assert_eq!(stats.shards[0].forward.count, stats.replies_ok);
    assert_eq!(stats.shards[0].queue_wait.count, stats.replies_ok);
    // The wire snapshot equals the server-side snapshot modulo the stats
    // request itself (which touches no inference counters).
    let local = server.metrics();
    assert_eq!(local.replies_ok, stats.replies_ok);
    assert_eq!(local.e2e, stats.e2e);
    assert_eq!(local.forward, stats.forward);
    assert_eq!(local.depth, stats.depth);
    assert_eq!(local.shards, stats.shards);
    server.shutdown();
}

#[test]
fn keyed_and_keyless_paths_differ_over_the_wire() {
    let server = mlp_server(10, ServeConfig::default());
    let mut client = Session::connect(server.local_addr()).unwrap();
    let x: Vec<f32> = (0..6).map(|i| (i as f32 - 3.0) / 3.0).collect();
    let keyed = client
        .infer(0, InferMode::Keyed, 0, 1, 6, x.clone())
        .unwrap()
        .data;
    let keyless = client
        .infer(0, InferMode::Keyless, 0, 1, 6, x)
        .unwrap()
        .data;
    let diff = keyed
        .iter()
        .zip(&keyless)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(diff > 1e-5, "stolen path must diverge, diff {diff}");
    server.shutdown();
}

#[test]
fn client_batch_request_roundtrips() {
    let server = mlp_server(11, ServeConfig::default());
    let mut client = Session::connect(server.local_addr()).unwrap();
    let rows = 5;
    let x = vec![0.25f32; rows * 6];
    let logits = client.infer(0, InferMode::Keyed, 0, rows, 6, x).unwrap();
    assert_eq!((logits.rows, logits.cols), (rows, 4));
    assert_eq!(logits.data.len(), rows * 4);
    // Identical rows in, identical rows out.
    let first: Vec<u32> = logits.data[..4].iter().map(|v| v.to_bits()).collect();
    for row in logits.data.chunks(4) {
        let bits: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, first);
    }
    server.shutdown();
}

#[test]
fn submit_validation_surfaces_as_wire_errors() {
    let server = mlp_server(12, ServeConfig::default());
    let mut client = Session::connect(server.local_addr()).unwrap();
    // Unknown model.
    client
        .send(&Request::Infer {
            model: 42,
            mode: InferMode::Keyed,
            deadline_us: 0,
            rows: 1,
            cols: 6,
            data: vec![0.0; 6],
        })
        .unwrap();
    match client.recv().unwrap().1 {
        Reply::Error {
            code,
            request_opcode,
            ..
        } => {
            assert_eq!(code, ErrorCode::UnknownModel);
            assert_eq!(request_opcode, OP_INFER);
        }
        other => panic!("expected error, got {other:?}"),
    }
    // Wrong width.
    client
        .send(&Request::Infer {
            model: 0,
            mode: InferMode::Keyed,
            deadline_us: 0,
            rows: 1,
            cols: 5,
            data: vec![0.0; 5],
        })
        .unwrap();
    match client.recv().unwrap().1 {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::BadWidth),
        other => panic!("expected error, got {other:?}"),
    }
    // Row cap.
    let too_many = ServeConfig::default().max_rows_per_request + 1;
    client
        .send(&Request::Infer {
            model: 0,
            mode: InferMode::Keyed,
            deadline_us: 0,
            rows: too_many,
            cols: 6,
            data: vec![0.0; too_many * 6],
        })
        .unwrap();
    match client.recv().unwrap().1 {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::TooManyRows),
        other => panic!("expected error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn worker_panic_surfaces_typed_internal_errors_and_server_survives() {
    // Single shard, batch of one: the injected panic kills the model's only
    // worker. The in-flight request gets a typed Internal error (not a
    // hang), later submits are refused the same way, and the server — other
    // connections included — keeps running.
    let cfg = ServeConfig::builder()
        .max_batch(1)
        .max_wait(Duration::from_millis(1))
        .queue_cap(64)
        .max_rows_per_request(8)
        .max_inflight_per_conn(64)
        .build()
        .unwrap();
    let server = mlp_server(25, cfg);
    let mut client = Session::connect(server.local_addr()).unwrap();
    client.hello("panic").unwrap();
    assert!(server.fail_next_batch(0), "one live shard to arm");

    match client.infer(0, InferMode::Keyed, 0, 1, 6, vec![0.1; 6]) {
        Err(ServeError::Refused { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected internal error, got {other:?}"),
    }
    // The dead shard refuses follow-up work with the same typed code.
    match client.infer(0, InferMode::Keyed, 0, 1, 6, vec![0.2; 6]) {
        Err(ServeError::Refused { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected internal error, got {other:?}"),
    }
    // The panic is counted and the front end is alive for new connections.
    let mut other = Session::connect(server.local_addr()).unwrap();
    let stats = other.stats().unwrap();
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.inflight, 0, "failed requests must release the gauge");
    assert!(!server.fail_next_batch(0), "no live shard remains");
    server.shutdown();
}

#[test]
fn per_shard_histograms_reconcile_under_pipelined_load() {
    // Two always-active shards; every OK reply must land in exactly one
    // shard's forward/queue-wait histograms.
    let cfg = ServeConfig::builder()
        .max_batch(16)
        .max_wait(Duration::from_micros(500))
        .queue_cap(256)
        .max_rows_per_request(16)
        .max_inflight_per_conn(64)
        .shards(2..=2)
        .build()
        .unwrap();
    let server = mlp_server(26, cfg);
    let report = hpnn_serve::loadgen::run(&hpnn_serve::LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: 2,
        requests_per_client: 40,
        model: 0,
        mode: InferMode::Keyed,
        rows_per_request: 1,
        deadline_us: 0,
        retry_busy: true,
        seed: 53,
        depth: 8,
        pattern: hpnn_serve::LoadPattern::Steady,
        sample_interval: Duration::ZERO,
    })
    .unwrap();
    assert_eq!(report.ok, 80);
    assert_eq!(report.errors, 0);

    let stats = server.metrics();
    assert_eq!(stats.replies_ok, 80);
    assert_eq!(stats.shards.len(), 2);
    assert!(stats.shards.iter().all(|s| s.active));
    let per_shard_forward: u64 = stats.shards.iter().map(|s| s.forward.count).sum();
    let per_shard_wait: u64 = stats.shards.iter().map(|s| s.queue_wait.count).sum();
    assert_eq!(per_shard_forward, stats.replies_ok);
    assert_eq!(per_shard_wait, stats.replies_ok);
    // The aggregate forward histogram is the same population.
    assert_eq!(stats.forward.count, per_shard_forward);
    for s in &stats.shards {
        assert_eq!(s.forward.buckets.iter().sum::<u64>(), s.forward.count);
        assert_eq!(s.queue_wait.buckets.iter().sum::<u64>(), s.queue_wait.count);
    }
    assert_eq!(stats.worker_panics, 0);
    server.shutdown();
}

#[test]
fn loadgen_report_reconciles_with_server_stats() {
    let cfg = ServeConfig::builder()
        .max_batch(16)
        .max_wait(Duration::from_micros(500))
        .queue_cap(256)
        .max_rows_per_request(16)
        .max_inflight_per_conn(64)
        .build()
        .unwrap();
    let server = mlp_server(13, cfg);
    let report = hpnn_serve::loadgen::run(&hpnn_serve::LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: 4,
        requests_per_client: 25,
        model: 0,
        mode: InferMode::Keyed,
        rows_per_request: 1,
        deadline_us: 0,
        retry_busy: true,
        seed: 99,
        depth: 1,
        pattern: hpnn_serve::LoadPattern::Steady,
        sample_interval: Duration::ZERO,
    })
    .unwrap();
    assert_eq!(report.requests, 100);
    assert_eq!(report.ok, 100);
    assert_eq!(report.errors, 0);
    assert!(report.error_codes.is_empty());
    assert_eq!(report.rows_ok, 100);
    assert_eq!(report.latency.count, 100);
    let stats = server.metrics();
    assert_eq!(stats.replies_ok, report.ok);
    assert_eq!(
        stats.busy, report.busy,
        "every BUSY shed must reach a client"
    );
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.e2e.count, report.ok);
    assert_eq!(stats.e2e.buckets.iter().sum::<u64>(), stats.e2e.count);
    assert_eq!(stats.forward.count, report.ok);
    assert_eq!(stats.rows, report.rows_ok);
    assert_eq!(stats.depth.count, stats.requests);
    assert_eq!(stats.depth.buckets.iter().sum::<u64>(), stats.depth.count);
    assert_eq!(stats.inflight, 0);
    server.shutdown();
}

#[test]
fn pipelined_loadgen_reconciles_and_fills_the_window() {
    let cfg = ServeConfig::builder()
        .max_batch(16)
        .max_wait(Duration::from_micros(500))
        .queue_cap(256)
        .max_rows_per_request(16)
        .max_inflight_per_conn(64)
        .build()
        .unwrap();
    let server = mlp_server(14, cfg);
    let report = hpnn_serve::loadgen::run(&hpnn_serve::LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: 2,
        requests_per_client: 40,
        model: 0,
        mode: InferMode::Keyed,
        rows_per_request: 1,
        deadline_us: 0,
        retry_busy: true,
        seed: 7,
        depth: 8,
        pattern: hpnn_serve::LoadPattern::Steady,
        sample_interval: Duration::ZERO,
    })
    .unwrap();
    assert_eq!(report.requests, 80);
    assert_eq!(report.ok, 80);
    assert_eq!(report.errors, 0);
    assert!(report.error_codes.is_empty());
    let stats = server.metrics();
    assert_eq!(stats.replies_ok, report.ok);
    assert_eq!(
        stats.busy, report.busy,
        "every BUSY shed must reach a client"
    );
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.rows, report.rows_ok);
    assert_eq!(stats.e2e.buckets.iter().sum::<u64>(), stats.e2e.count);
    // Exactly one depth sample per admitted request, and with the run over
    // the in-flight gauge is back to zero.
    assert_eq!(stats.depth.count, stats.requests);
    assert_eq!(stats.depth.buckets.iter().sum::<u64>(), stats.depth.count);
    assert_eq!(stats.inflight, 0);
    // The pipelining window was actually exercised: mean admission depth
    // strictly above lock-step.
    assert!(
        stats.depth.sum_ns > stats.depth.count,
        "mean depth {} must exceed 1",
        stats.depth.sum_ns as f64 / stats.depth.count as f64
    );
    server.shutdown();
}

#[test]
fn stage_histograms_reconcile_under_pipelined_load() {
    let cfg = ServeConfig::builder()
        .max_batch(16)
        .max_wait(Duration::from_micros(500))
        .queue_cap(256)
        .max_rows_per_request(16)
        .max_inflight_per_conn(64)
        .build()
        .unwrap();
    let server = mlp_server(16, cfg);
    let report = hpnn_serve::loadgen::run(&hpnn_serve::LoadgenConfig {
        addr: server.local_addr().to_string(),
        clients: 2,
        requests_per_client: 40,
        model: 0,
        mode: InferMode::Keyed,
        rows_per_request: 1,
        deadline_us: 0,
        retry_busy: true,
        seed: 31,
        depth: 8,
        pattern: hpnn_serve::LoadPattern::Steady,
        sample_interval: Duration::ZERO,
    })
    .unwrap();
    assert_eq!(report.ok, 80);
    assert_eq!(report.errors, 0);

    // Every OK reply contributes exactly one sample to every stage
    // histogram — nothing more (no expired/busy leakage), nothing less
    // (no stage skipped).
    let stats = server.metrics();
    assert_eq!(stats.replies_ok, report.ok);
    assert_eq!(stats.queue_wait.count, stats.forward.count);
    assert_eq!(stats.queue_wait.count, stats.replies_ok);
    assert_eq!(stats.batch_fill.count, stats.replies_ok);
    assert_eq!(stats.writeback.count, stats.replies_ok);
    assert_eq!(stats.e2e.count, stats.replies_ok);
    // The stage decomposition is physically sensible: a request's queue
    // wait is bounded by its end-to-end time.
    assert!(stats.queue_wait.sum_ns <= stats.e2e.sum_ns);

    // The bracketing snapshots the loadgen took must come from one
    // monotonic server run and yield a server-clock throughput figure.
    let before = report.server_before.as_ref().expect("before snapshot");
    let after = report.server_after.as_ref().expect("after snapshot");
    assert!(after.snapshot_seq > before.snapshot_seq);
    assert!(after.uptime_ns > before.uptime_ns);
    assert!(before.uptime_ns > 0);
    assert!(
        report.server_rps().expect("server rps") > 0.0,
        "80 OK replies must yield a positive server-side rate"
    );
    server.shutdown();
}

#[test]
fn loadgen_rejects_zero_depth() {
    let server = mlp_server(15, ServeConfig::default());
    let err = hpnn_serve::loadgen::run(&hpnn_serve::LoadgenConfig {
        addr: server.local_addr().to_string(),
        depth: 0,
        pattern: hpnn_serve::LoadPattern::Steady,
        ..Default::default()
    })
    .unwrap_err();
    assert!(matches!(err, ServeError::Io(_)));
    server.shutdown();
}
