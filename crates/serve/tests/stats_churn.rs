//! STATS wire round-trip over the per-shard section.
//!
//! The shard set is fixed at start, so the per-shard section of a `STATS`
//! reply has one shape for the whole run; the only thing that still changes
//! in it, besides the histograms, is a shard's `active` flag falling when
//! its worker is lost to a panic. This test floods a four-shard model while
//! snapshotting the live (moving) stats, proves every snapshot encodes to a
//! frame and decodes back bit-identically, then kills one shard and checks
//! the section shows exactly that, still round-trips, and still reconciles:
//! every OK reply ran on exactly one shard.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hpnn_bytes::{try_get_frame, Buf, BytesMut};
use hpnn_core::{HpnnKey, KeyVault, LockedModel, ModelMetadata, Schedule, ScheduleKind};
use hpnn_nn::mlp;
use hpnn_serve::{
    ErrorCode, InferMode, Reply, ServeConfig, ServeError, ServeRegistry, Server, Session,
    StatsSnapshot, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
use hpnn_tensor::Rng;

const IN_FEATURES: usize = 32;

/// Encode → frame → decode; the decoded snapshot must equal the original,
/// including the order, ids, flags, and histograms of every shard entry.
fn assert_wire_roundtrip(snap: &StatsSnapshot) {
    let reply = Reply::StatsOk(Box::new(snap.clone()));
    let mut out = BytesMut::new();
    reply.encode(&mut out, PROTOCOL_VERSION, 99);
    let mut view = out.freeze();
    let payload = try_get_frame(&mut view, MAX_FRAME_PAYLOAD)
        .unwrap()
        .expect("complete frame");
    assert_eq!(view.remaining(), 0, "exactly one frame");
    let (version, correlation, decoded) = Reply::decode(&payload).unwrap();
    assert_eq!(version, PROTOCOL_VERSION);
    assert_eq!(correlation, 99);
    assert_eq!(decoded, reply, "stats must round-trip bit-identically");
}

#[test]
fn stats_roundtrip_survives_a_flood_and_a_dead_shard() {
    // A model slow enough that the flood backs up the queues, so placement
    // spreads it over all four shards.
    let mut rng = Rng::new(29);
    let spec = mlp(IN_FEATURES, &[512, 512], 4);
    let key = HpnnKey::random(&mut rng);
    let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
    let mut net = spec.build(&mut rng).unwrap();
    net.install_lock_factors(&schedule.derive_lock_factors(&key));
    let model = LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default());
    let mut registry = ServeRegistry::new();
    registry.add("hot", model, Some(KeyVault::provision(key, "dev")));

    let cfg = ServeConfig::builder()
        .max_batch(1)
        .max_wait(Duration::from_micros(100))
        .queue_cap(4096)
        .shards(4..=4)
        .build()
        .unwrap();
    let server = Arc::new(Server::start(registry, cfg, "127.0.0.1:0").unwrap());
    let addr = server.local_addr().to_string();

    // The whole set is there, alive, before any request has run.
    let mut stats_session = Session::connect(addr.as_str()).unwrap();
    stats_session.hello("churn-sampler").unwrap();
    let first = stats_session.stats().unwrap();
    assert_eq!(first.shards.len(), 4);
    assert!(first.shards.iter().all(|s| s.active));
    assert_wire_roundtrip(&first);

    // Flood: two pipelined sessions, each with a deep in-flight window.
    const CLIENTS: usize = 2;
    const PER_CLIENT: usize = 64;
    let mut floods = Vec::new();
    for c in 0..CLIENTS {
        let addr = addr.clone();
        floods.push(thread::spawn(move || -> u64 {
            let mut session = Session::connect(addr.as_str()).unwrap();
            session.hello("churn-flood").unwrap();
            let input: Vec<f32> = (0..IN_FEATURES)
                .map(|i| (i as f32) / IN_FEATURES as f32 - 0.5 + c as f32)
                .collect();
            let tickets: Vec<_> = (0..PER_CLIENT)
                .map(|_| {
                    session
                        .submit(0, InferMode::Keyed, 0, 1, IN_FEATURES, input.clone())
                        .unwrap()
                })
                .collect();
            let mut ok = 0u64;
            for t in tickets {
                session.wait(t).unwrap();
                ok += 1;
            }
            ok
        }));
    }

    // Mid-flood sampling: snapshot the moving stats as fast as the server
    // answers, round-tripping every one. The wire path itself
    // (`Session::stats`) already decodes a server-encoded frame, so each
    // iteration exercises the codec twice on live data.
    let mut sampled = 0usize;
    while floods.iter().any(|f| !f.is_finished()) {
        let snap = stats_session.stats().unwrap();
        assert_eq!(snap.shards.len(), 4);
        assert!(snap.shards.iter().all(|s| s.active));
        assert_wire_roundtrip(&snap);
        sampled += 1;
    }
    let replied: u64 = floods.into_iter().map(|f| f.join().unwrap()).sum();
    assert_eq!(replied, (CLIENTS * PER_CLIENT) as u64);
    assert!(sampled >= 1, "sampler never caught the run in flight");

    // Kill one shard under a request. The queues are empty, so placement
    // sends the request to the armed shard 0, and its reply is the typed
    // `Internal` error. The worker marks its shard dead before it answers
    // anything else from that queue, so once a second request has been
    // answered — by a survivor or by the dying shard — the flag is down.
    assert!(server.fail_next_batch(0), "a live shard to arm");
    let input = vec![0.25; IN_FEATURES];
    match stats_session.infer(0, InferMode::Keyed, 0, 1, IN_FEATURES, input.clone()) {
        Err(ServeError::Refused { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected internal error, got {other:?}"),
    }
    let survivor_ok = match stats_session.infer(0, InferMode::Keyed, 0, 1, IN_FEATURES, input) {
        Ok(_) => 1,
        Err(ServeError::Refused { code, .. }) => {
            assert_eq!(code, ErrorCode::Internal);
            0
        }
        Err(other) => panic!("unexpected failure {other:?}"),
    };
    let after = stats_session.stats().unwrap();
    assert_eq!(after.shards.len(), 4);
    let dead: Vec<u16> = after
        .shards
        .iter()
        .filter(|s| !s.active)
        .map(|s| s.shard)
        .collect();
    assert_eq!(dead, vec![0], "exactly the armed shard is down");
    assert_eq!(after.worker_panics, 1);
    assert_wire_roundtrip(&after);

    // Exact reconciliation: every OK reply was forwarded by exactly one
    // shard, and the per-shard section accounts for all of them (max_batch
    // is 1 and every request is a single row, so shard forward counts are
    // directly comparable to replies). Each stage histogram holds one
    // sample per OK reply.
    server.shutdown();
    let drained = server.metrics();
    assert_eq!(drained.replies_ok, replied + survivor_ok);
    assert_eq!(drained.inflight, 0);
    let shard_forwards: u64 = drained.shards.iter().map(|s| s.forward.count).sum();
    assert_eq!(shard_forwards, drained.replies_ok);
    for stage in [
        &drained.queue_wait,
        &drained.batch_fill,
        &drained.forward,
        &drained.writeback,
        &drained.e2e,
    ] {
        assert_eq!(stage.count, drained.replies_ok);
    }
}
