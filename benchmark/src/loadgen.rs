//! Open-loop load: a seeded Poisson schedule, a sender that writes
//! pre-encoded frames when they fall due, and a receiver that matches
//! replies by correlation id and checks every logit bit for bit.
//!
//! Latency is counted from the time a request was **due**, not from when it
//! was sent, so a stall anywhere (server or generator) shows up in every
//! request it delayed; how late the generator itself ran is reported
//! separately.

use std::io::{self, Read, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hpnn_bytes::{BytesMut, FrameBuffer};
use hpnn_serve::{ErrorCode, InferMode, Reply, Request, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION};
use hpnn_tensor::Rng;

/// Slot value of a request sent outside the measured window (warm-up and
/// cool-down traffic).
pub const UNMEASURED: u8 = u8::MAX;

/// One kind of request a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Class {
    pub model: u16,
    pub mode: InferMode,
    /// Rows per request: 1 is an `INFER` frame, more an `INFER_BATCH`.
    pub rows: usize,
    /// End-to-end slot this class reports into when its phase names none.
    pub slot: u8,
}

/// A Poisson stream inside a phase: `rate_rps` arrivals per second, each
/// drawing its class from `mix` (class index, weight).
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    pub rate_rps: f64,
    pub mix: Vec<(u8, f64)>,
}

/// A stretch of the run with fixed traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub secs: f64,
    pub streams: Vec<Stream>,
    /// Unmeasured phases carry traffic but contribute no samples.
    pub measured: bool,
    /// Slot every request of this phase reports into; `None` defers to the
    /// request's class.
    pub slot: Option<u8>,
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// When the request is due, in nanoseconds from the start of traffic.
    pub due_ns: u64,
    pub class: u8,
    /// First pool row of the request's input.
    pub row: u16,
    pub phase: u8,
    pub slot: u8,
}

/// Builds the whole arrival schedule from `seed`: the same seed gives the
/// same due times, classes and rows. Inter-arrival gaps of each stream are
/// exponential with mean `1 / rate_rps`. Returns the requests in due order
/// and each phase's `[start, end)` in nanoseconds.
pub fn poisson_schedule(
    phases: &[Phase],
    classes: &[Class],
    pool_rows: usize,
    seed: u64,
) -> (Vec<Planned>, Vec<Range<u64>>) {
    let mut root = Rng::new(seed);
    let mut plan = Vec::new();
    let mut bounds = Vec::with_capacity(phases.len());
    let mut phase_start = 0.0f64;
    for (pi, phase) in phases.iter().enumerate() {
        let phase_end = phase_start + phase.secs;
        for (si, stream) in phase.streams.iter().enumerate() {
            let mut rng = root.fork((pi * 16 + si) as u64);
            let total_weight: f64 = stream.mix.iter().map(|(_, w)| w).sum();
            let mut t = phase_start;
            loop {
                // 1 - u is in (0, 1], so the logarithm is finite.
                t += -(1.0 - rng.next_f64()).ln() / stream.rate_rps;
                if t >= phase_end {
                    break;
                }
                let mut pick = rng.next_f64() * total_weight;
                let mut class = stream.mix[stream.mix.len() - 1].0;
                for &(c, w) in &stream.mix {
                    if pick < w {
                        class = c;
                        break;
                    }
                    pick -= w;
                }
                // Multi-row requests start on a multiple of their length so
                // one template per start covers them.
                let rows = classes[class as usize].rows;
                let row = rng.below(pool_rows / rows) * rows;
                let slot = if phase.measured {
                    phase.slot.unwrap_or(classes[class as usize].slot)
                } else {
                    UNMEASURED
                };
                plan.push(Planned {
                    due_ns: (t * 1e9) as u64,
                    class,
                    row: row as u16,
                    phase: pi as u8,
                    slot,
                });
            }
        }
        bounds.push((phase_start * 1e9) as u64..(phase_end * 1e9) as u64);
        phase_start = phase_end;
    }
    // Stable: simultaneous arrivals keep stream order, so the schedule is a
    // function of the seed alone.
    plan.sort_by_key(|p| p.due_ns);
    (plan, bounds)
}

/// Pre-encoded request frames, one per (class, start row), with the place
/// of the correlation id known so the sender only copies and patches.
pub struct Templates {
    /// Per class: rows per request and one frame per start row.
    frames: Vec<(usize, Vec<Vec<u8>>)>,
    corr_at: usize,
}

impl Templates {
    /// Encodes every frame the schedule can ask for. `pool` is row-major
    /// with `cols` values per row.
    pub fn build(classes: &[Class], pool: &[f32], cols: usize) -> Templates {
        let pool_rows = pool.len() / cols;
        let encode = |class: &Class, row: usize, corr: u32| {
            let mut out = BytesMut::new();
            Request::Infer {
                model: class.model,
                mode: class.mode,
                deadline_us: 0,
                rows: class.rows,
                cols,
                data: pool[row * cols..(row + class.rows) * cols].to_vec(),
            }
            .encode(&mut out, PROTOCOL_VERSION, corr);
            out.freeze().to_vec()
        };
        // The correlation id sits where two encodings of the same request
        // under different ids differ.
        let a = encode(&classes[0], 0, 0);
        let b = encode(&classes[0], 0, u32::MAX);
        let corr_at = a
            .iter()
            .zip(&b)
            .position(|(x, y)| x != y)
            .expect("correlation id is on the wire in protocol v2");
        assert_eq!(&b[corr_at..corr_at + 4], &[0xFF; 4], "u32 correlation id");
        let frames = classes
            .iter()
            .map(|class| {
                let starts = 0..pool_rows / class.rows;
                (
                    class.rows,
                    starts.map(|k| encode(class, k * class.rows, 0)).collect(),
                )
            })
            .collect();
        Templates { frames, corr_at }
    }

    /// Appends the frame for `p` under correlation id `corr` to `buf`.
    pub fn append(&self, buf: &mut Vec<u8>, p: &Planned, corr: u32) {
        let (rows, frames) = &self.frames[p.class as usize];
        let frame = &frames[p.row as usize / rows];
        let at = buf.len() + self.corr_at;
        buf.extend_from_slice(frame);
        buf[at..at + 4].copy_from_slice(&corr.to_le_bytes());
    }
}

/// The sender's and receiver's shared notion of time, replaceable by a fake
/// in tests so timing logic is checked without sleeping.
pub trait Clock {
    /// Nanoseconds since the start of traffic.
    fn now_ns(&self) -> u64;
    /// Returns once `now_ns() >= due_ns`.
    fn wait_until(&self, due_ns: u64);
}

/// Wall clock anchored at the start of traffic.
#[derive(Clone, Copy)]
pub struct RealClock(pub Instant);

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, due_ns: u64) {
        // Sleep through long gaps and spin through the rest. A sleep
        // overshoots by about 0.1 ms on this kind of host (p99 0.25 ms), so
        // wake that much early; yielding instead of spinning handed the core
        // to a batch worker for a whole forward and made the sender
        // 0.3-0.5 ms late on average.
        const SPIN_NS: u64 = 250_000;
        loop {
            let now = self.now_ns();
            if now >= due_ns {
                return;
            }
            match due_ns - now {
                gap if gap > SPIN_NS => std::thread::sleep(Duration::from_nanos(gap - SPIN_NS)),
                _ => std::hint::spin_loop(),
            }
        }
    }
}

/// Client-side timestamps of one traced request, for the per-request spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendTrace {
    pub encode_start: u64,
    pub encode_end: u64,
    pub write_start: u64,
    pub write_end: u64,
}

/// What the sender did.
#[derive(Debug, Default)]
pub struct SendLog {
    /// When the write carrying each request began (index = schedule index).
    pub sent_at: Vec<u64>,
    /// Requests written; fewer than planned when the sender gave up.
    pub sent: usize,
    /// Timestamps of the requests inside the traced range.
    pub traced: Vec<SendTrace>,
}

/// Most bytes gathered into one write when several requests are due at once.
const WRITE_CAP: usize = 64 * 1024;

/// Sends every planned request when it falls due; a late sender catches up
/// by writing everything already due in one go. Correlation id = schedule
/// index + 1. Requests whose index lies in `trace` also get their encode and
/// write intervals recorded.
///
/// The sender gives up once the clock passes `give_up_ns`, or when a write
/// times out (give `out` a write timeout): a server that has stopped
/// reading must not hold the run open. What was not sent is never answered
/// and counts as failed.
///
/// # Errors
///
/// The first write failure other than a timeout.
pub fn send_all<W: Write, C: Clock>(
    plan: &[Planned],
    templates: &Templates,
    out: &mut W,
    clock: &C,
    trace: Range<usize>,
    give_up_ns: u64,
) -> io::Result<SendLog> {
    let mut log = SendLog {
        sent_at: vec![0; plan.len()],
        sent: 0,
        traced: vec![SendTrace::default(); trace.len()],
    };
    let mut buf = Vec::with_capacity(WRITE_CAP + 4096);
    let mut i = 0;
    while i < plan.len() {
        clock.wait_until(plan[i].due_ns);
        let now = clock.now_ns();
        if now > give_up_ns {
            break;
        }
        buf.clear();
        let first = i;
        while i < plan.len() && plan[i].due_ns <= now && buf.len() < WRITE_CAP {
            if trace.contains(&i) {
                let t = &mut log.traced[i - trace.start];
                t.encode_start = clock.now_ns();
                templates.append(&mut buf, &plan[i], i as u32 + 1);
                t.encode_end = clock.now_ns();
            } else {
                templates.append(&mut buf, &plan[i], i as u32 + 1);
            }
            i += 1;
        }
        let write_start = clock.now_ns();
        match out.write_all(&buf) {
            Ok(()) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                break
            }
            Err(e) => return Err(e),
        }
        log.sent_at[first..i].fill(write_start);
        log.sent = i;
        if first < trace.end && i > trace.start {
            let write_end = clock.now_ns();
            for k in first.max(trace.start)..i.min(trace.end) {
                let t = &mut log.traced[k - trace.start];
                t.write_start = write_start;
                t.write_end = write_end;
            }
        }
    }
    Ok(log)
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// No reply before the receiver gave up.
    Missing,
    /// Logits arrived and match the reference bit for bit.
    Ok,
    /// Logits arrived and differ from the reference.
    Mismatch,
    Busy,
    Expired,
    Error,
}

/// Receiver-side timestamps of one traced request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecvTrace {
    pub decode_start: u64,
    pub decode_end: u64,
    pub check_end: u64,
}

/// What the receiver saw.
#[derive(Debug)]
pub struct RecvLog {
    /// When the read that carried each reply returned (0 = none).
    pub done_at: Vec<u64>,
    pub status: Vec<Status>,
    pub traced: Vec<RecvTrace>,
    /// Frames that did not decode or named no request of the schedule.
    pub stray_frames: u64,
}

/// `true` when the two rows hold exactly the same bits. Serving promises
/// bit-identical logits whatever the batching or sharding, so a tolerance
/// would hide exactly the defects this check is for.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Reference logits of every (model, mode) the workload addresses, computed
/// once at set-up over the whole pool.
pub struct References {
    /// `(model, mode, row-major logits over the pool, logits per row)`.
    pub tables: Vec<(u16, InferMode, Vec<f32>, usize)>,
}

impl References {
    /// The logits a request of `class` starting at pool row `row` must get.
    pub fn expected(&self, class: &Class, row: usize) -> &[f32] {
        let (_, _, logits, cols) = self
            .tables
            .iter()
            .find(|(m, mode, _, _)| *m == class.model && *mode == class.mode)
            .expect("a reference table for every class");
        &logits[row * cols..(row + class.rows) * cols]
    }
}

/// Reads replies until every request is answered, the peer closes, or
/// `stop` is raised (checked whenever a read times out). `input` must have
/// a read timeout set, or `stop` is never seen.
///
/// # Errors
///
/// A read failure other than a timeout, or a frame longer than the
/// protocol allows.
pub fn receive_all<R: Read, C: Clock>(
    plan: &[Planned],
    classes: &[Class],
    refs: &References,
    input: &mut R,
    clock: &C,
    stop: &AtomicBool,
    trace: Range<usize>,
) -> io::Result<RecvLog> {
    let mut log = RecvLog {
        done_at: vec![0; plan.len()],
        status: vec![Status::Missing; plan.len()],
        traced: vec![RecvTrace::default(); trace.len()],
        stray_frames: 0,
    };
    let mut frames = FrameBuffer::new(MAX_FRAME_PAYLOAD);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut answered = 0usize;
    while answered < plan.len() {
        let n = match input.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // Every reply in this chunk had arrived by now.
        let arrived = clock.now_ns();
        frames.feed(&chunk[..n]);
        while let Some(payload) = frames
            .next_frame()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            let idx_of = |corr: u32| (corr as usize).checked_sub(1).filter(|&i| i < plan.len());
            let traced_slot = |i: usize| trace.contains(&i).then(|| i - trace.start);
            let decode_start = clock.now_ns();
            let Ok((_, corr, reply)) = Reply::decode(&payload) else {
                log.stray_frames += 1;
                continue;
            };
            let Some(i) = idx_of(corr).filter(|&i| log.status[i] == Status::Missing) else {
                log.stray_frames += 1;
                continue;
            };
            let decode_end = traced_slot(i).map(|_| clock.now_ns());
            let p = &plan[i];
            log.status[i] = match reply {
                Reply::Logits { data, .. } => {
                    if bits_equal(
                        &data,
                        refs.expected(&classes[p.class as usize], p.row as usize),
                    ) {
                        Status::Ok
                    } else {
                        Status::Mismatch
                    }
                }
                Reply::Busy => Status::Busy,
                Reply::Error {
                    code: ErrorCode::DeadlineExceeded,
                    ..
                } => Status::Expired,
                _ => Status::Error,
            };
            log.done_at[i] = arrived;
            answered += 1;
            if let (Some(slot), Some(decode_end)) = (traced_slot(i), decode_end) {
                log.traced[slot] = RecvTrace {
                    decode_start,
                    decode_end,
                    check_end: clock.now_ns(),
                };
            }
        }
    }
    Ok(log)
}

/// Latency of request `i` in milliseconds, counted from its due time;
/// `None` unless it was answered correctly.
pub fn latency_ms(plan: &[Planned], recv: &RecvLog, i: usize) -> Option<f64> {
    (recv.status[i] == Status::Ok)
        .then(|| recv.done_at[i].saturating_sub(plan[i].due_ns) as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn class(rows: usize, slot: u8) -> Class {
        Class {
            model: 0,
            mode: InferMode::Keyed,
            rows,
            slot,
        }
    }

    fn two_phase() -> Vec<Phase> {
        let stream = |rate_rps| Stream {
            rate_rps,
            mix: vec![(0, 0.75), (1, 0.25)],
        };
        vec![
            Phase {
                secs: 0.5,
                streams: vec![stream(1000.0)],
                measured: false,
                slot: None,
            },
            Phase {
                secs: 2.0,
                streams: vec![stream(2000.0), stream(100.0)],
                measured: true,
                slot: None,
            },
        ]
    }

    #[test]
    fn schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let classes = [class(1, 0), class(32, 1)];
        let (a, bounds) = poisson_schedule(&two_phase(), &classes, 256, 7);
        let (b, _) = poisson_schedule(&two_phase(), &classes, 256, 7);
        let (c, _) = poisson_schedule(&two_phase(), &classes, 256, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(bounds, vec![0..500_000_000, 500_000_000..2_500_000_000]);
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // Rates hold to within Poisson noise (4200 expected in phase 1).
        let measured = a.iter().filter(|p| p.phase == 1).count();
        assert!((3900..4500).contains(&measured), "{measured}");
        assert!(a
            .iter()
            .all(|p| (p.phase == 0) == (p.slot == UNMEASURED) && p.due_ns < 2_500_000_000));
        // Batch requests start on a multiple of their length and fit the pool.
        assert!(a
            .iter()
            .filter(|p| p.class == 1)
            .all(|p| p.row % 32 == 0 && p.row as usize + 32 <= 256 && p.slot != 0));
        let batch_share = a.iter().filter(|p| p.class == 1).count() as f64 / a.len() as f64;
        assert!((0.2..0.3).contains(&batch_share), "{batch_share}");
    }

    /// A clock that only moves when told to: `wait_until` jumps to the due
    /// time plus whatever lateness the test injects for that wake-up.
    struct FakeClock {
        now: Cell<u64>,
        lateness: Vec<u64>,
        wakeups: Cell<usize>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn wait_until(&self, due_ns: u64) {
            let k = self.wakeups.get();
            self.wakeups.set(k + 1);
            let late = self.lateness.get(k).copied().unwrap_or(0);
            self.now.set(self.now.get().max(due_ns + late));
        }
    }

    fn plan_at(due_ms: &[u64]) -> Vec<Planned> {
        due_ms
            .iter()
            .map(|&ms| Planned {
                due_ns: ms * 1_000_000,
                class: 0,
                row: 0,
                phase: 0,
                slot: 0,
            })
            .collect()
    }

    #[test]
    fn late_sender_batches_what_is_due_and_latency_counts_from_due_time() {
        let classes = [class(1, 0)];
        let pool = vec![0.5f32; 4 * 8];
        let templates = Templates::build(&classes, &pool, 8);
        // Due at 1, 2, 3 and 10 ms; the first wake-up is 2.5 ms late, so
        // requests 0..3 are all due by then and go out in one write.
        let plan = plan_at(&[1, 2, 3, 10]);
        let clock = FakeClock {
            now: Cell::new(0),
            lateness: vec![2_500_000],
            wakeups: Cell::new(0),
        };
        let mut wire = Vec::new();
        let log = send_all(&plan, &templates, &mut wire, &clock, 0..0, u64::MAX).unwrap();
        assert_eq!(
            log.sent_at,
            vec![3_500_000, 3_500_000, 3_500_000, 10_000_000]
        );
        assert_eq!((log.sent, clock.wakeups.get()), (4, 2));
        let lateness: Vec<u64> = log
            .sent_at
            .iter()
            .zip(&plan)
            .map(|(s, p)| s - p.due_ns)
            .collect();
        assert_eq!(lateness, vec![2_500_000, 1_500_000, 500_000, 0]);

        // The wire holds four well-formed frames with ids 1..=4.
        let mut fb = FrameBuffer::new(MAX_FRAME_PAYLOAD);
        fb.feed(&wire);
        for want in 1..=4u32 {
            let payload = fb.next_frame().unwrap().unwrap();
            let (_, corr, req) = Request::decode(&payload).unwrap();
            assert_eq!(corr, want);
            assert!(matches!(
                req,
                Request::Infer {
                    rows: 1,
                    cols: 8,
                    ..
                }
            ));
        }
        assert!(fb.next_frame().unwrap().is_none());

        // A sender told to give up at 5 ms writes the three requests due by
        // 3.5 ms and never the one due at 10 ms.
        let clock = FakeClock {
            now: Cell::new(0),
            lateness: vec![2_500_000],
            wakeups: Cell::new(0),
        };
        let mut wire = Vec::new();
        let cut = send_all(&plan, &templates, &mut wire, &clock, 0..0, 5_000_000).unwrap();
        assert_eq!((cut.sent, cut.sent_at[3]), (3, 0));
        let mut fb = FrameBuffer::new(MAX_FRAME_PAYLOAD);
        fb.feed(&wire);
        let frames = std::iter::from_fn(|| fb.next_frame().unwrap()).count();
        assert_eq!(frames, 3);

        // A reply read at 4 ms answers request 0, which was due at 1 ms and
        // sent at 3.5 ms: its latency is 3 ms, not 0.5 ms.
        let recv = RecvLog {
            done_at: vec![4_000_000, 0, 0, 0],
            status: vec![Status::Ok, Status::Missing, Status::Busy, Status::Mismatch],
            traced: Vec::new(),
            stray_frames: 0,
        };
        assert_eq!(latency_ms(&plan, &recv, 0), Some(3.0));
        assert_eq!(latency_ms(&plan, &recv, 1), None);
        assert_eq!(latency_ms(&plan, &recv, 2), None);
        assert_eq!(latency_ms(&plan, &recv, 3), None);
    }

    #[test]
    fn receiver_matches_by_correlation_and_rejects_a_flipped_mantissa_bit() {
        let classes = [class(1, 0)];
        let plan = plan_at(&[0, 0, 0, 0]);
        let logits = vec![0.25f32, -1.5, 3.0];
        let refs = References {
            tables: vec![(0, InferMode::Keyed, logits.clone(), 3)],
        };
        let mut flipped = logits.clone();
        flipped[1] = f32::from_bits(flipped[1].to_bits() ^ 1);
        assert!((flipped[1] - logits[1]).abs() < 1e-6, "one ulp apart");
        assert!(!bits_equal(&flipped, &logits));
        assert!(bits_equal(&logits, &logits));
        assert!(!bits_equal(&logits[..2], &logits));
        // +0.0 and -0.0 compare equal as floats but are different bits.
        assert!(!bits_equal(&[0.0], &[-0.0]));

        let mut wire = BytesMut::new();
        let reply = |data: &[f32]| Reply::Logits {
            rows: 1,
            cols: 3,
            data: data.to_vec(),
        };
        // Out of order, with an unknown id and a duplicate in between.
        reply(&flipped).encode(&mut wire, PROTOCOL_VERSION, 2);
        reply(&logits).encode(&mut wire, PROTOCOL_VERSION, 99);
        reply(&logits).encode(&mut wire, PROTOCOL_VERSION, 1);
        reply(&logits).encode(&mut wire, PROTOCOL_VERSION, 1);
        Reply::Busy.encode(&mut wire, PROTOCOL_VERSION, 4);
        Reply::Error {
            code: ErrorCode::DeadlineExceeded,
            request_opcode: 2,
            message: "late".into(),
        }
        .encode(&mut wire, PROTOCOL_VERSION, 3);
        let wire = wire.freeze().to_vec();
        let clock = FakeClock {
            now: Cell::new(5_000_000),
            lateness: Vec::new(),
            wakeups: Cell::new(0),
        };
        let stop = AtomicBool::new(false);
        let log = receive_all(
            &plan,
            &classes,
            &refs,
            &mut wire.as_slice(),
            &clock,
            &stop,
            0..0,
        )
        .unwrap();
        assert_eq!(
            log.status,
            vec![Status::Ok, Status::Mismatch, Status::Expired, Status::Busy]
        );
        assert_eq!(log.stray_frames, 2);
        assert_eq!(log.done_at, vec![5_000_000; 4]);
    }
}
