//! The serving workloads: an in-process `hpnn_serve::Server` on loopback,
//! one protocol-v2 connection, a sender and a receiver thread, and STATS
//! snapshots at phase boundaries. The server is measured as it is: no
//! keep-alive chatter and no second connection that would wake its event
//! loop for it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hpnn_bytes::{BytesMut, FrameBuffer};
use hpnn_serve::{
    InferMode, Reply, Request, ServeConfig, ServeRegistry, Server, StatsDelta, StatsSnapshot,
    MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
use hpnn_tensor::{Rng, Tensor};

use crate::loadgen::{
    latency_ms, poisson_schedule, receive_all, send_all, Class, Clock, Phase, Planned, RealClock,
    RecvLog, References, SendLog, Status, Stream, Templates, UNMEASURED,
};
use crate::models::{references, synthesize, Locked, ModelKind, POOL_ROWS};
use crate::report::Outcome;
use crate::spans::{Recorder, Span};
use crate::spec::{SET_UPS, SLOT_A, SLOT_B};
use crate::{host, stats};

/// Depth the per-connection window and each shard queue are raised to, so
/// an open loop can queue and a `BUSY` is a real refusal.
const QUEUE_DEPTH: usize = 8192;

/// How long after the last request is due the run stays open: the sender
/// for a server that reads slowly, the receiver for late replies.
const REPLY_GRACE: Duration = Duration::from_secs(2);

/// Unmeasured traffic that follows the measured phases, so the window sits
/// inside continuous traffic.
const COOL_DOWN_S: f64 = 0.5;

/// A serving workload, fully spelled out.
struct ServePlan {
    /// Models in registry order; the first is the workload's primary model.
    models: Vec<ModelKind>,
    shards: usize,
    classes: Vec<Class>,
    phases: Vec<Phase>,
    /// The phase whose STATS delta the `serve.*` metrics report: slot b's
    /// phase, or the only measured one.
    stats_phase: usize,
    /// Offered rate and p95 limit in ms of slots a and b.
    slots: [(f64, f64); 2],
    /// Slots are concurrent streams of one phase (true) or successive
    /// phases (false).
    concurrent: bool,
}

fn warm_up_s(seconds: f64) -> f64 {
    (seconds / 6.0).clamp(0.5, 3.0)
}

fn single(model: u16, mode: InferMode, slot: u8) -> Class {
    Class {
        model,
        mode,
        rows: 1,
        slot,
    }
}

/// Rates of a [`stepped`] plan, in requests per second.
struct Steps {
    warm_up: f64,
    hi: f64,
    lo: f64,
}

/// Two successive rates of keyed single rows to one model, the higher
/// first: a hot warm-up, then b (hi) and a (lo), then cool-down at the lower.
///
/// The order and the hot warm-up are there because the server has two
/// regimes and moves from one to the other for good at a time no schedule
/// fixes: once its wake pipe has lost a wake-up (README, "First
/// candidates"), a finished reply waits for the next request's bytes, which
/// adds the arrival gap to every latency. At the measured rates that took
/// anywhere from no time to longer than a run, and medians of the same
/// commit came out up to twice apart. Under three seconds of batched
/// completions the switch happened in every trial (README, "Load model"), so
/// every run measures the regime a server that has been up for a while is in.
fn stepped(model: ModelKind, rates: Steps, slo_ms: f64, seconds: f64) -> ServePlan {
    let phase = |secs, rate_rps, slot: Option<u8>| Phase {
        secs,
        streams: vec![Stream {
            rate_rps,
            mix: vec![(0, 1.0)],
        }],
        measured: slot.is_some(),
        slot,
    };
    ServePlan {
        models: vec![model],
        shards: 1,
        classes: vec![single(0, InferMode::Keyed, SLOT_A)],
        phases: vec![
            phase(warm_up_s(seconds), rates.warm_up, None),
            phase(seconds / 2.0, rates.hi, Some(SLOT_B)),
            phase(seconds / 2.0, rates.lo, Some(SLOT_A)),
            phase(COOL_DOWN_S, rates.lo, None),
        ],
        stats_phase: 1,
        slots: [(rates.lo, slo_ms), (rates.hi, slo_ms)],
        concurrent: false,
    }
}

/// Two models on two shards each, keyed and keyless single rows (slot a)
/// beside client-batched requests (slot b), all on the one connection for
/// one long phase, after a warm-up with three times the single rows (see
/// [`stepped`] for why it is hot).
fn mixed(seconds: f64) -> ServePlan {
    const SINGLES_RPS: f64 = 300.0;
    const BATCH_RPS: f64 = 10.0;
    // Of the single rows only: a client-batched request is one reply.
    const WARM_UP_FACTOR: f64 = 3.0;
    let classes = vec![
        single(0, InferMode::Keyed, SLOT_A),
        single(1, InferMode::Keyed, SLOT_A),
        single(0, InferMode::Keyless, SLOT_A),
        single(1, InferMode::Keyless, SLOT_A),
        Class {
            model: 0,
            mode: InferMode::Keyed,
            rows: 32,
            slot: SLOT_B,
        },
    ];
    // Hot model 70 %, keyless 20 % of singles.
    let phase = |secs, factor: f64, measured| Phase {
        secs,
        streams: vec![
            Stream {
                rate_rps: SINGLES_RPS * factor,
                mix: vec![(0, 0.56), (1, 0.24), (2, 0.14), (3, 0.06)],
            },
            Stream {
                rate_rps: BATCH_RPS,
                mix: vec![(4, 1.0)],
            },
        ],
        measured,
        slot: None,
    };
    ServePlan {
        models: vec![ModelKind::ConvFc, ModelKind::Cnn1Small],
        shards: 2,
        classes,
        phases: vec![
            phase(warm_up_s(seconds), WARM_UP_FACTOR, false),
            phase(seconds, 1.0, true),
            phase(COOL_DOWN_S, 1.0, false),
        ],
        stats_phase: 1,
        slots: [(SINGLES_RPS, 60.0), (BATCH_RPS, 120.0)],
        concurrent: true,
    }
}

/// The plan of serving workload `name` measured for `seconds`. The rates
/// leave the server mostly idle on a good hour of a 2-vCPU host (convfc
/// sustains 3000 rps in large batches, the tiny model 35 000), because the
/// same host has hours in which it is three to four times slower, and a
/// backlog turns every number into a measure of the host.
fn plan_for(name: &str, seconds: f64) -> Option<ServePlan> {
    match name {
        "serve_convfc" => Some(stepped(
            ModelKind::ConvFc,
            Steps {
                warm_up: 1600.0,
                hi: 800.0,
                lo: 200.0,
            },
            60.0,
            seconds,
        )),
        "serve_tiny" => Some(stepped(
            ModelKind::TinyMlp,
            Steps {
                warm_up: 24_000.0,
                hi: 10_000.0,
                lo: 5_000.0,
            },
            5.0,
            seconds,
        )),
        "serve_mixed" => Some(mixed(seconds)),
        _ => None,
    }
}

/// The inputs of a serving run: published models and the row pool.
struct Bed {
    models: Vec<Locked>,
    /// The [`POOL_ROWS`] input rows requests draw from.
    inputs: Tensor,
    synth_s: f64,
}

/// Makes the inputs from `seed`: the pool through `hpnn-data`, the models
/// freshly initialised and locked.
fn make_bed(plan: &ServePlan, seed: u64) -> Bed {
    let (pool, synth_s) = synthesize(plan.models[0].input(), POOL_ROWS, 10, seed);
    let mut rng = Rng::new(seed ^ 0x6d6f_6465_6c73);
    let models = plan
        .models
        .iter()
        .map(|&kind| Locked::fresh(kind, &mut rng))
        .collect();
    Bed {
        models,
        inputs: pool.train_inputs,
        synth_s,
    }
}

/// A started server with the benchmark's connection to it.
struct Live {
    server: Server,
    stream: TcpStream,
    refs: References,
    templates: Templates,
    start_ms: f64,
}

/// Computes the reference logits, encodes the frame templates, starts the
/// server and connects.
fn go_live(plan: &ServePlan, bed: &Bed) -> Live {
    let pool = &bed.inputs;
    let mut pairs: Vec<(u16, InferMode)> = Vec::new();
    for c in &plan.classes {
        if !pairs.contains(&(c.model, c.mode)) {
            pairs.push((c.model, c.mode));
        }
    }
    let refs = references(&bed.models, &pairs, pool);
    let templates = Templates::build(&plan.classes, pool.data(), pool.shape().cols());

    let mut registry = ServeRegistry::new();
    for locked in &bed.models {
        registry.add(
            locked.kind.name(),
            locked.model.clone(),
            Some(locked.vault()),
        );
    }
    let cfg = ServeConfig::builder()
        .event_threads(1)
        .max_inflight_per_conn(QUEUE_DEPTH)
        .queue_cap(QUEUE_DEPTH)
        .shards(plan.shards..=plan.shards)
        .build()
        .expect("serve config");
    let started = Instant::now();
    let server = Server::start(registry, cfg, "127.0.0.1:0").expect("start server on loopback");
    let start_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect to server");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut hello = BytesMut::new();
    Request::Hello {
        client: "hpnn-benchmark".into(),
    }
    .encode(&mut hello, PROTOCOL_VERSION, 0);
    stream.write_all(&hello).expect("send HELLO");
    let mut frames = FrameBuffer::new(MAX_FRAME_PAYLOAD);
    let mut chunk = [0u8; 4096];
    let payload = loop {
        if let Some(p) = frames.next_frame().expect("HELLO_OK frame") {
            break p;
        }
        let n = stream.read(&mut chunk).expect("read HELLO_OK");
        assert!(n > 0, "server closed the connection during HELLO");
        frames.feed(&chunk[..n]);
    };
    match Reply::decode(&payload) {
        Ok((_, _, Reply::HelloOk { version, models })) => {
            assert_eq!(version, PROTOCOL_VERSION, "pipelined protocol negotiated");
            assert_eq!(models.len(), bed.models.len(), "registry size");
        }
        other => panic!("unexpected HELLO reply: {other:?}"),
    }
    Live {
        server,
        stream,
        refs,
        templates,
        start_ms,
    }
}

/// Raw result of driving a plan against a live server.
struct Drive {
    plan: Vec<Planned>,
    bounds: Vec<Range<u64>>,
    send: SendLog,
    recv: RecvLog,
    /// STATS snapshot and process CPU seconds at every phase boundary
    /// (`phases.len() + 1` entries).
    marks: Vec<(StatsSnapshot, f64)>,
    /// Schedule indices whose client-side steps were timed (traced runs:
    /// the second half of the stats phase).
    traced: Range<usize>,
    /// Milliseconds `Server::start` took.
    start_ms: f64,
}

/// Runs the whole `schedule` (with the `bounds` of its phases): sender and
/// receiver threads, with this thread taking STATS snapshots at the phase
/// boundaries. Shuts the server down when done.
fn drive(
    plan: &ServePlan,
    live: Live,
    schedule: Vec<Planned>,
    bounds: Vec<Range<u64>>,
    traced: bool,
) -> Drive {
    let stats_bounds = &bounds[plan.stats_phase];
    let traced_range = if traced {
        let mid = (stats_bounds.start + stats_bounds.end) / 2;
        schedule.partition_point(|p| p.due_ns < mid)
            ..schedule.partition_point(|p| p.due_ns < stats_bounds.end)
    } else {
        0..0
    };
    let Live {
        server,
        stream,
        refs,
        templates,
        start_ms,
    } = live;
    let mut tx = stream.try_clone().expect("clone socket for the sender");
    let mut rx = stream;
    rx.set_read_timeout(Some(Duration::from_millis(50)))
        .expect("read timeout");
    // A run ends REPLY_GRACE after its last request is due, whatever the
    // server does: the sender stops there (or when a write stalls for that
    // long) and so does the receiver.
    tx.set_write_timeout(Some(REPLY_GRACE))
        .expect("write timeout");
    let last_due = bounds.last().map_or(0, |b| b.end);
    let give_up_ns = last_due + REPLY_GRACE.as_nanos() as u64;
    let stop = AtomicBool::new(false);
    let clock = RealClock(Instant::now());

    let (send, recv, marks) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            send_all(
                &schedule,
                &templates,
                &mut tx,
                &clock,
                traced_range.clone(),
                give_up_ns,
            )
        });
        let receiver = s.spawn(|| {
            receive_all(
                &schedule,
                &plan.classes,
                &refs,
                &mut rx,
                &clock,
                &stop,
                traced_range.clone(),
            )
        });
        let mut marks = Vec::with_capacity(bounds.len() + 1);
        let boundary_times = std::iter::once(0).chain(bounds.iter().map(|b| b.end));
        for at_ns in boundary_times {
            if let Some(wait) = Duration::from_nanos(at_ns).checked_sub(clock.0.elapsed()) {
                std::thread::sleep(wait);
            }
            marks.push((server.metrics(), host::cpu_seconds()));
        }
        // Stop the receiver before looking at how the sender ended: a
        // panic here with the receiver still reading would never return.
        let send = sender.join();
        while !receiver.is_finished() && clock.now_ns() < give_up_ns {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Release);
        let recv = receiver.join();
        (
            send.expect("sender thread").expect("write requests"),
            recv.expect("receiver thread").expect("read replies"),
            marks,
        )
    });
    server.shutdown();
    Drive {
        plan: schedule,
        bounds,
        send,
        recv,
        marks,
        traced: traced_range,
        start_ms,
    }
}

/// STATS delta over phase `i` of a drive.
fn phase_delta(d: &Drive, i: usize) -> StatsDelta {
    d.marks[i + 1]
        .0
        .delta_since(&d.marks[i].0)
        .expect("snapshots of one server run, in order")
}

/// Writeback samples in buckets from 2^15 us (33 ms) up: replies that sat
/// finished until something else woke the event loop.
fn stalled_writebacks(delta: &StatsDelta) -> u64 {
    delta.writeback.buckets.iter().skip(15).sum()
}

/// Turns a drive into metrics: the latency slots, failure counts, the
/// `serve.*` layer numbers from the STATS delta of the stats phase, and the
/// load generator's own health.
fn account(plan: &ServePlan, d: &Drive, labels: [&str; 2], out: &mut Outcome) {
    let n = d.plan.len();
    let count = |s: Status| d.recv.status.iter().filter(|&&x| x == s).count() as u64;
    let ok = count(Status::Ok);
    let mismatched = count(Status::Mismatch);
    out.attempted += n as u64;
    out.failed += n as u64 - ok;
    out.correct = mismatched == 0;
    for (what, s) in [
        ("BUSY", Status::Busy),
        ("EXPIRED", Status::Expired),
        ("ERROR", Status::Error),
        ("unanswered", Status::Missing),
        ("mismatched", Status::Mismatch),
    ] {
        if count(s) > 0 {
            out.note(format!("FAILED: {} requests {what}", count(s)));
        }
    }
    if d.send.sent < n {
        out.note(format!(
            "FAILED: the sender gave up with {} requests unsent",
            n - d.send.sent
        ));
    }
    if d.recv.stray_frames > 0 {
        out.note(format!(
            "FAILED: {} frames that answer no request",
            d.recv.stray_frames
        ));
        out.failed += d.recv.stray_frames;
    }

    let slot_failed =
        |slot: u8| (0..n).any(|i| d.plan[i].slot == slot && d.recv.status[i] != Status::Ok);
    let mut in_slo = Vec::new();
    for (slot, letter) in [(SLOT_A, 'a'), (SLOT_B, 'b')] {
        let ms: Vec<f64> = (0..n)
            .filter(|&i| d.plan[i].slot == slot)
            .filter_map(|i| latency_ms(&d.plan, &d.recv, i))
            .collect();
        out.set_slot(letter, labels[slot as usize], stats::median(&ms), &ms);
        let (rate, limit_ms) = plan.slots[slot as usize];
        let p95 = out.get(&format!("client.p95_ms_{letter}")).unwrap_or(0.0);
        if !ms.is_empty() && p95 <= limit_ms && !slot_failed(slot) {
            in_slo.push(rate);
        }
    }
    // Successive phases: the highest rate that kept its limit. Concurrent
    // streams: their joint rate, if every stream kept its limit.
    let max_rate = if plan.concurrent {
        if in_slo.len() == plan.slots.len() {
            in_slo.iter().sum()
        } else {
            0.0
        }
    } else {
        in_slo.iter().copied().fold(0.0, f64::max)
    };
    out.set("loadgen.max_rate_in_slo_rps", max_rate, n as u64);

    // The load generator's own lateness, over measured requests.
    let late_us_of = |i: usize| d.send.sent_at[i].saturating_sub(d.plan[i].due_ns) as f64 / 1e3;
    let late_us: Vec<f64> = (0..d.send.sent)
        .filter(|&i| d.plan[i].slot != UNMEASURED)
        .map(late_us_of)
        .collect();
    let late_sorted = stats::sorted(&late_us);
    let measured = late_us.len() as u64;
    out.set("loadgen.late_mean_us", stats::mean(&late_us), measured);
    out.set(
        "loadgen.late_p99_us",
        stats::percentile(&late_sorted, 99.0),
        measured,
    );
    out.set(
        "loadgen.late_max_ms",
        late_sorted.last().copied().unwrap_or(0.0) / 1e3,
        measured,
    );
    out.set("loadgen.sent", n as f64, n as u64);
    out.set("loadgen.ok", ok as f64, n as u64);
    out.set("loadgen.failed", (n as u64 - ok) as f64, n as u64);
    out.set("loadgen.mismatched", mismatched as f64, n as u64);

    // Server-side layer numbers over the stats phase.
    let sp = plan.stats_phase;
    let delta = phase_delta(d, sp);
    let secs = delta.interval_ns as f64 / 1e9;
    let in_phase: Vec<usize> = (0..n).filter(|&i| d.plan[i].phase as usize == sp).collect();
    let phase_ms: Vec<f64> = in_phase
        .iter()
        .filter_map(|&i| latency_ms(&d.plan, &d.recv, i))
        .collect();
    let replies = delta.replies_ok.max(1) as f64;
    let batches = delta.batches.max(1) as f64;
    let us = |h: &hpnn_serve::HistogramSnapshot| h.mean_ns() / 1e3;
    let client_mean_us = stats::mean(&phase_ms) * 1e3;
    // The request budget of the stats phase: what the client saw, minus how
    // late the generator sent, minus the three server-side stages. What is
    // left is decode, admission, the wire and the client's own read path.
    let phase_late_us = stats::mean(&in_phase.iter().map(|&i| late_us_of(i)).collect::<Vec<_>>());
    let unaccounted_us = client_mean_us
        - phase_late_us
        - us(&delta.queue_wait)
        - us(&delta.forward)
        - us(&delta.writeback);
    for (metric, h) in [
        ("serve.queue_wait_mean_us", &delta.queue_wait),
        ("serve.batch_fill_mean_us", &delta.batch_fill),
        ("serve.forward_mean_us", &delta.forward),
        ("serve.writeback_mean_us", &delta.writeback),
        ("serve.e2e_mean_us", &delta.e2e),
    ] {
        out.set(metric, us(h), h.count);
    }
    out.set(
        "serve.unaccounted_mean_us",
        unaccounted_us,
        phase_ms.len() as u64,
    );
    out.set(
        "serve.rows_per_batch",
        delta.rows as f64 / batches,
        delta.batches,
    );
    out.set(
        "serve.batches_per_s",
        delta.batches as f64 / secs,
        delta.batches,
    );
    out.set(
        "serve.wakeups_per_batch",
        delta.wakeups as f64 / batches,
        delta.batches,
    );
    out.set(
        "serve.stalled_writebacks",
        stalled_writebacks(&delta) as f64,
        delta.writeback.count,
    );
    out.set(
        "serve.loop_events_per_req",
        delta.loop_events as f64 / replies,
        delta.replies_ok,
    );
    let primary_forwards: Vec<u64> = delta
        .shards
        .iter()
        .filter(|s| s.model == 0)
        .map(|s| s.forward.count)
        .collect();
    let total_forwards = primary_forwards.iter().sum::<u64>().max(1);
    out.set(
        "serve.shard_forward_share_max",
        primary_forwards.iter().copied().max().unwrap_or(0) as f64 / total_forwards as f64,
        total_forwards,
    );
    // Refusals and faults count over the whole run, not one phase.
    let whole = d.marks[d.marks.len() - 1]
        .0
        .delta_since(&d.marks[0].0)
        .expect("snapshots of one server run, in order");
    for (metric, count) in [
        ("serve.busy", whole.busy),
        ("serve.expired", whole.expired),
        ("serve.protocol_errors", whole.protocol_errors),
        ("serve.worker_panics", whole.worker_panics),
    ] {
        out.set(metric, count as f64, n as u64);
    }
    out.set("serve.start_ms", d.start_ms, 1);
    let phase_ok = phase_ms.len();
    out.set(
        "loadgen.achieved_rps_b",
        phase_ok as f64 / secs,
        phase_ok as u64,
    );

    // CPU per operation over the measured phases (all threads: server,
    // kernels and both load threads).
    let first_measured = plan.phases.iter().position(|p| p.measured).unwrap_or(0);
    let last_measured = plan.phases.iter().rposition(|p| p.measured).unwrap_or(0);
    let cpu_s = d.marks[last_measured + 1].1 - d.marks[first_measured].1;
    out.set(
        "process.cpu_s_per_1k_ops",
        cpu_s / measured.max(1) as f64 * 1e3,
        measured,
    );

    // Tracing overhead: the traced second half of the stats phase over its
    // untraced first half.
    if !d.traced.is_empty() {
        let half = |range: Range<usize>| -> Vec<f64> {
            range
                .filter_map(|i| latency_ms(&d.plan, &d.recv, i))
                .collect()
        };
        let first_half_start = in_phase.first().copied().unwrap_or(0);
        let off = half(first_half_start..d.traced.start);
        let on = half(d.traced.clone());
        let (p50_off, p50_on) = (stats::median(&off), stats::median(&on));
        out.set(
            "trace.overhead_frac",
            if p50_off > 0.0 {
                p50_on / p50_off - 1.0
            } else {
                0.0
            },
            on.len() as u64,
        );
        out.note(format!(
            "stats phase p50: {p50_off:.4} ms untraced half ({} samples), {p50_on:.4} ms traced half ({} samples)",
            off.len(),
            on.len()
        ));
    }
    out.note(format!(
        "stats phase: {} batches, {:.1} rows/batch, client mean {:.1} us = sent late {:.1} + queue {:.1} + forward {:.1} + writeback {:.1} + unaccounted {:.1}; {} wakeups, {} writebacks stalled >= 33 ms",
        delta.batches,
        delta.rows as f64 / batches,
        client_mean_us,
        phase_late_us,
        us(&delta.queue_wait),
        us(&delta.forward),
        us(&delta.writeback),
        unaccounted_us,
        delta.wakeups,
        stalled_writebacks(&delta),
    ));
}

/// Per-request spans of the traced range, assembled from the two load
/// threads' timestamps: a `request` root from due time to checked reply,
/// with `client.encode`, `client.send`, `client.wait`, `client.decode` and
/// `check.logits` under it.
fn request_spans(d: &Drive) -> Vec<Span> {
    let mut spans = Vec::with_capacity(d.traced.len() * 6);
    for i in d.traced.clone() {
        if d.recv.status[i] == Status::Missing {
            continue;
        }
        let (s, r) = (
            d.send.traced[i - d.traced.start],
            d.recv.traced[i - d.traced.start],
        );
        let req = i as u32 + 1;
        let root = spans.len() as u32 + 1;
        let mut push = |name, parent, start_ns, end_ns| {
            spans.push(Span {
                id: spans.len() as u32 + 1,
                parent,
                req,
                name,
                start_ns,
                end_ns,
            });
        };
        push("request", 0, d.plan[i].due_ns, r.check_end);
        push("client.encode", root, s.encode_start, s.encode_end);
        push("client.send", root, s.write_start, s.write_end);
        push("client.wait", root, s.write_end, d.recv.done_at[i]);
        push("client.decode", root, r.decode_start, r.decode_end);
        push("check.logits", root, r.decode_end, r.check_end);
    }
    spans
}

/// STATS deltas of every phase, as counts for the trace file.
fn phase_counts(d: &Drive) -> Vec<(String, crate::json::Json)> {
    use crate::json::Json;
    (0..d.bounds.len())
        .map(|i| {
            let delta = phase_delta(d, i);
            (
                format!("phase{i}"),
                Json::obj([
                    ("interval_ns", Json::num(delta.interval_ns as f64)),
                    ("requests", Json::num(delta.requests as f64)),
                    ("rows", Json::num(delta.rows as f64)),
                    ("replies_ok", Json::num(delta.replies_ok as f64)),
                    ("batches", Json::num(delta.batches as f64)),
                    ("busy", Json::num(delta.busy as f64)),
                    ("expired", Json::num(delta.expired as f64)),
                    ("wakeups", Json::num(delta.wakeups as f64)),
                    ("loop_events", Json::num(delta.loop_events as f64)),
                    ("keyed_requests", Json::num(delta.keyed_requests as f64)),
                    ("keyless_requests", Json::num(delta.keyless_requests as f64)),
                    (
                        "stalled_writebacks",
                        Json::num(stalled_writebacks(&delta) as f64),
                    ),
                ]),
            )
        })
        .collect()
}

/// Runs serving workload `name` end to end; traced, it then times the
/// layers the workload exercises on its primary model and largest frame
/// shape. Returns the STATS deltas of every phase as counts for the trace
/// file.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    process_start: Instant,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Vec<(String, crate::json::Json)> {
    let plan = plan_for(name, seconds).expect("a serving workload");
    let labels = crate::spec::workload(name).expect("a workload").slots;
    // Set-up ends where the system is ready for traffic; the warm-up is
    // traffic, and drawing the arrival schedule is the load generator's own
    // input, which the system never sees. It is done SET_UPS times, the
    // first counted from process start, and every server but the last is
    // shut down again; the median is what one warm set-up costs.
    let mut setup_s = Vec::with_capacity(SET_UPS);
    let (bed, live) = loop {
        let started = if setup_s.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let bed = make_bed(&plan, seed);
        let live = go_live(&plan, &bed);
        setup_s.push(started.elapsed().as_secs_f64());
        if setup_s.len() == SET_UPS {
            break (bed, live);
        }
        live.server.shutdown();
    };
    out.set("setup_s", stats::median(&setup_s), SET_UPS as u64);
    out.set("data.synthesize_s", bed.synth_s, 1);
    let (schedule, bounds) = poisson_schedule(&plan.phases, &plan.classes, POOL_ROWS, seed);
    let d = drive(&plan, live, schedule, bounds, rec.enabled());
    account(&plan, &d, labels, out);
    out.set("peak_rss_mb", host::peak_rss_mb(), 1);
    if !rec.enabled() {
        return Vec::new();
    }
    rec.absorb(request_spans(&d));
    let frame_rows = plan.classes.iter().map(|c| c.rows).max().unwrap_or(1);
    crate::probes::for_serving(&bed.models[0], &bed.inputs, frame_rows, rec, out);
    // Nothing trains, scores accuracy or runs the device while serving.
    out.not_measured(&["nn.train_", "nn.eval_rows_per_s", "core.accuracy_", "hw."]);
    phase_counts(&d)
}
