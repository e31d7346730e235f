//! End-to-end cluster tests over real localhost sockets: the keyless
//! worker guard, bit-identical two-node pipelines, peer-failure
//! degradation, and the v2 requirement on peer links.

use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hpnn_bytes::{BytesMut, FrameReader};
use hpnn_cluster::{ClusterBackend, CostModel, PeerClient};
use hpnn_core::{
    HpnnKey, KeyVault, LayerPartition, LockedModel, ModelMetadata, Schedule, ScheduleKind,
};
use hpnn_nn::mlp;
use hpnn_serve::{
    ClusterPlan, ErrorCode, InferMode, Reply, Request, ServeConfig, ServeError, ServeRegistry,
    Server, Session, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
use hpnn_tensor::{Rng, Shape, Tensor};

/// A locked mlp(4, [8], 3): layers Dense, Activation (locked), Dense —
/// partitioned at [1, 2] into offload / trusted / offload stages.
fn locked_model(seed: u64) -> (LockedModel, HpnnKey) {
    let mut rng = Rng::new(seed);
    let spec = mlp(4, &[8], 3);
    let key = HpnnKey::random(&mut rng);
    let schedule = Schedule::new(spec.lockable_neurons(), ScheduleKind::RoundRobin, 0);
    let mut net = spec.build(&mut rng).unwrap();
    net.install_lock_factors(&schedule.derive_lock_factors(&key));
    (
        LockedModel::from_network(spec, &mut net, schedule, ModelMetadata::default()),
        key,
    )
}

fn partition_of(model: &LockedModel) -> Arc<LayerPartition> {
    Arc::new(LayerPartition::from_cuts(model.spec(), &[1, 2]).unwrap())
}

fn quick_cfg() -> ServeConfig {
    ServeConfig::builder()
        .max_batch(8)
        .max_wait(Duration::from_millis(1))
        .build()
        .unwrap()
}

/// Starts a vault-less worker node serving the partition's stages.
fn start_worker(model: &LockedModel) -> (Server, SocketAddr) {
    let mut reg = ServeRegistry::new();
    reg.add("m", model.clone(), None);
    reg.set_plan(0, ClusterPlan::worker(partition_of(model)));
    let server = Server::start(reg, quick_cfg(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    (server, addr)
}

#[test]
fn keyless_worker_refuses_trusted_stage_and_serves_offloadable() {
    let (model, _key) = locked_model(1);
    let (worker, addr) = start_worker(&model);
    let mut session = Session::connect(addr).unwrap();
    session.hello("test").unwrap();

    // Stage 1 is the locked activation: refused with a typed error no
    // matter the mode the frame claims.
    for mode in [InferMode::Keyless, InferMode::Keyed] {
        let corr = session
            .send(&Request::Forward {
                model: 0,
                stage: 1,
                mode,
                deadline_us: 0,
                rows: 1,
                cols: 8,
                data: vec![0.5; 8],
            })
            .unwrap();
        let (reply_corr, reply) = session.recv().unwrap();
        assert_eq!(reply_corr, corr);
        match reply {
            Reply::Error { code, .. } => assert_eq!(code, ErrorCode::TrustedStageRefused),
            other => panic!("expected TrustedStageRefused, got {other:?}"),
        }
    }

    // Stage 0 (the entry dense layer) is offloadable: served, and
    // bit-identical to running the same range on the stolen deployment.
    let input: Vec<f32> = (0..8).map(|i| i as f32 * 0.25 - 1.0).collect();
    let corr = session
        .send(&Request::Forward {
            model: 0,
            stage: 0,
            mode: InferMode::Keyless,
            deadline_us: 0,
            rows: 2,
            cols: 4,
            data: input.clone(),
        })
        .unwrap();
    let (reply_corr, reply) = session.recv().unwrap();
    assert_eq!(reply_corr, corr);
    let Reply::Logits { rows, cols, data } = reply else {
        panic!("expected logits, got {reply:?}");
    };
    assert_eq!((rows, cols), (2, 8));
    let mut reference = model.deploy_stolen().unwrap();
    let x = Tensor::from_vec(Shape::d2(2, 4), input).unwrap();
    let want = reference.forward_range(&x, false, 0..1);
    assert_eq!(
        data.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "forwarded stage must be bitwise identical to local execution"
    );

    // Stage index out of range: typed Malformed error, not a hang.
    session
        .send(&Request::Forward {
            model: 0,
            stage: 7,
            mode: InferMode::Keyless,
            deadline_us: 0,
            rows: 1,
            cols: 4,
            data: vec![0.0; 4],
        })
        .unwrap();
    let (_, reply) = session.recv().unwrap();
    assert!(
        matches!(
            reply,
            Reply::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "expected Malformed for out-of-range stage, got {reply:?}"
    );

    let stats = worker.metrics();
    assert_eq!(stats.fwd_recv, 1, "only the valid stage forward admits");
    worker.shutdown();
}

#[test]
fn two_node_pipeline_bit_identical_and_counters_reconcile() {
    let (model, key) = locked_model(2);
    let partition = partition_of(&model);
    let (worker, worker_addr) = start_worker(&model);

    // Head: holds the vault, offloads every offloadable stage.
    let backend = Arc::new(
        ClusterBackend::new(
            &partition,
            vec![worker_addr],
            &CostModel::offload_everything(),
        )
        .with_window(16),
    );
    assert_eq!(backend.route().offloaded(), 2, "stages 0 and 2 route out");
    let mut reg = ServeRegistry::new();
    reg.add("m", model.clone(), Some(KeyVault::provision(key, "head")));
    reg.set_plan(0, ClusterPlan::head(Arc::clone(&partition), backend));
    let head = Server::start(reg, quick_cfg(), "127.0.0.1:0").unwrap();

    // Single node: same model, same vault, no cluster.
    let mut reg = ServeRegistry::new();
    reg.add("m", model.clone(), Some(KeyVault::provision(key, "solo")));
    let solo = Server::start(reg, quick_cfg(), "127.0.0.1:0").unwrap();

    let mut rng = Rng::new(3);
    let mut head_session = Session::connect(head.local_addr()).unwrap();
    let mut solo_session = Session::connect(solo.local_addr()).unwrap();
    let mut forwards = 0u64;
    for round in 0..4 {
        let rows = 1 + round % 3;
        let input: Vec<f32> = (0..rows * 4).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
        for mode in [InferMode::Keyed, InferMode::Keyless] {
            let a = head_session
                .submit(0, mode, 0, rows, 4, input.clone())
                .unwrap();
            let b = solo_session
                .submit(0, mode, 0, rows, 4, input.clone())
                .unwrap();
            let got = head_session.wait(a).unwrap().data;
            let want = solo_session.wait(b).unwrap().data;
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "two-node pipeline must match single-node bit-for-bit"
            );
            forwards += 2; // stages 0 and 2 offloaded per request batch
        }
    }

    let head_stats = head.metrics();
    let worker_stats = worker.metrics();
    assert_eq!(head_stats.fwd_sent, forwards);
    assert_eq!(head_stats.remote_wait.count, head_stats.fwd_sent);
    assert_eq!(worker_stats.fwd_recv, head_stats.fwd_sent);
    assert_eq!(
        worker_stats.replies_ok, worker_stats.fwd_recv,
        "every forwarded stage got a logits reply"
    );
    assert_eq!(head_stats.fwd_recv, 0, "the head received no forwards");

    head.shutdown();
    solo.shutdown();
    worker.shutdown();
}

#[test]
fn dead_peer_degrades_to_local_with_backoff() {
    let (model, key) = locked_model(4);
    let partition = partition_of(&model);
    // A peer address that refuses connections: bind, grab the port, drop.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let backend = Arc::new(
        ClusterBackend::new(
            &partition,
            vec![dead_addr],
            &CostModel::offload_everything(),
        )
        .with_connect_timeout(Duration::from_millis(100)),
    );
    let mut reg = ServeRegistry::new();
    reg.add("m", model.clone(), Some(KeyVault::provision(key, "head")));
    reg.set_plan(
        0,
        ClusterPlan::head(Arc::clone(&partition), Arc::clone(&backend) as _),
    );
    let head = Server::start(reg, quick_cfg(), "127.0.0.1:0").unwrap();

    let mut reg = ServeRegistry::new();
    reg.add("m", model, Some(KeyVault::provision(key, "solo")));
    let solo = Server::start(reg, quick_cfg(), "127.0.0.1:0").unwrap();

    let input = vec![0.25, -0.5, 1.0, 2.0];
    let mut head_session = Session::connect(head.local_addr()).unwrap();
    let mut solo_session = Session::connect(solo.local_addr()).unwrap();
    let a = head_session
        .submit(0, InferMode::Keyed, 0, 1, 4, input.clone())
        .unwrap();
    let b = solo_session
        .submit(0, InferMode::Keyed, 0, 1, 4, input)
        .unwrap();
    let got = head_session.wait(a).unwrap().data;
    let want = solo_session.wait(b).unwrap().data;
    assert_eq!(
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "local fallback must still be bit-identical"
    );
    assert!(backend.peer_down(0), "failed dial must enter backoff");

    let stats = head.metrics();
    assert_eq!(stats.fwd_sent, 0, "nothing was sent to the dead peer");
    assert_eq!(stats.remote_wait.count, 0);
    assert_eq!(stats.replies_ok, 1);

    head.shutdown();
    solo.shutdown();
}

/// A stub worker that announces `hello_version` in its `HELLO_OK`, then
/// handles one further frame by dropping the connection (mid-flight death).
fn stub_peer(hello_version: u8) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new(stream.try_clone().unwrap(), MAX_FRAME_PAYLOAD);
        // HELLO → HELLO_OK announcing the configured version.
        let payload = reader.next_frame().unwrap().unwrap();
        let (_, correlation, _) = Request::decode(&payload).unwrap();
        let mut out = BytesMut::new();
        Reply::HelloOk {
            version: hello_version,
            models: Vec::new(),
        }
        .encode(&mut out, PROTOCOL_VERSION, correlation);
        (&stream).write_all(&out).unwrap();
        // First real frame: read it, then vanish without replying.
        let _ = reader.next_frame();
        drop(stream);
    });
    addr
}

#[test]
fn v1_peer_link_is_refused() {
    let addr = stub_peer(1);
    let err = PeerClient::connect(addr, 8, Duration::from_secs(1))
        .err()
        .expect("v1 peer must be refused");
    assert!(
        err.to_string().contains("v2"),
        "error should explain the version requirement: {err}"
    );
}

#[test]
fn mid_flight_peer_death_fails_typed_then_falls_back() {
    let (model, key) = locked_model(5);
    let partition = partition_of(&model);
    let addr = stub_peer(2);
    let backend = Arc::new(
        ClusterBackend::new(&partition, vec![addr], &CostModel::offload_everything())
            .with_connect_timeout(Duration::from_millis(500)),
    );
    let mut reg = ServeRegistry::new();
    reg.add("m", model, Some(KeyVault::provision(key, "head")));
    reg.set_plan(
        0,
        ClusterPlan::head(Arc::clone(&partition), Arc::clone(&backend) as _),
    );
    let head = Server::start(reg, quick_cfg(), "127.0.0.1:0").unwrap();

    let mut session = Session::connect(head.local_addr()).unwrap();
    let t = session
        .submit(0, InferMode::Keyed, 0, 1, 4, vec![0.1, 0.2, 0.3, 0.4])
        .unwrap();
    match session.wait(t) {
        Err(ServeError::PeerUnavailable { .. }) => {}
        other => panic!("expected PeerUnavailable for the in-flight request, got {other:?}"),
    }

    // The dead link is now observed: the next request falls back locally
    // and succeeds (the peer enters backoff, nothing new is sent).
    let t = session
        .submit(0, InferMode::Keyed, 0, 1, 4, vec![0.1, 0.2, 0.3, 0.4])
        .unwrap();
    assert!(
        session.wait(t).is_ok(),
        "after the failure the head must degrade to local execution"
    );
    let stats = head.metrics();
    assert_eq!(stats.fwd_sent, 1, "only the doomed forward was sent");
    head.shutdown();
}
