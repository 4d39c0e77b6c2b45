//! The `net-gossip` workload: two in-process `TcpTransport`s on
//! 127.0.0.1 driven by one harness thread (the transports' reader threads
//! are the program's own), 53 KB `Transaction` frames built topologically
//! from a seeded generator, applied into a `Replica`.
//!
//! It bypasses walks, training and both simulators, so nothing
//! compute-side may move it.

use std::io;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dagfl::dag::{ControlEvent, ModelPayload, TransportStats, WireMessage, GENESIS_NET_ID};
use dagfl::{Replica, TcpTransport, Transport, TxMessage};

use crate::canary;
use crate::json::Value;
use crate::outcome::{Budget, Checks, Opts, Outcome};
use crate::proc;
use crate::span::Tracer;
use crate::workload::{NetPlan, Workload};

/// Longest sleep of the open loop while it idles towards the next due time.
const IDLE: Duration = Duration::from_millis(1);
/// Closed-loop bursts per timed report. Digesting the two replicas takes
/// three times as long as filling them, so it is sampled on every sixteenth
/// burst and the time goes to more bursts. The same sixteen bursts (a fifth
/// of a second) are the block between two canary readings.
const BURSTS_PER_REPORT: usize = 16;
/// A wait longer than this is a failed op, not a slow one.
const STALL: Duration = Duration::from_secs(20);

/// A connected sender/receiver pair.
pub struct Link {
    /// The gossiping side (client 1).
    pub sender: TcpTransport,
    /// The applying side (client 0).
    pub receiver: TcpTransport,
    /// The sender's connection to the receiver.
    pub conn: usize,
    /// Seconds spent in bind + connect + hello.
    pub connect_s: f64,
}

impl Link {
    /// Binds both transports on an ephemeral loopback port, connects the
    /// sender and waits until the receiver has seen its `Hello`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a hello that never arrives is
    /// `TimedOut`.
    pub fn connect() -> io::Result<Self> {
        let t = Instant::now();
        let mut receiver = TcpTransport::bind("127.0.0.1:0", 0)?;
        let mut sender = TcpTransport::bind("127.0.0.1:0", 1)?;
        let conn = sender.connect(&receiver.local_addr().to_string())?;
        loop {
            let hello = receiver
                .take_control()
                .iter()
                .any(|e| matches!(e, ControlEvent::Hello { client: 1, .. }));
            if hello {
                break;
            }
            if t.elapsed() > STALL {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "hello never arrived",
                ));
            }
            // Yield, not sleep: this wait is a few hundred microseconds and
            // part of `setup_s`; a 50 us sleep (plus timer slack) would
            // quantise it.
            thread::yield_now();
        }
        Ok(Self {
            sender,
            receiver,
            conn,
            connect_s: t.elapsed().as_secs_f64(),
        })
    }
}

/// The seeded input: a genesis model and `count` transactions, each
/// approving one recent and one arbitrary earlier transaction, so any
/// prefix is a valid tangle.
pub fn generate(plan: &NetPlan, count: usize, seed: u64) -> (ModelPayload, Vec<TxMessage>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e65_745f_676f_7373);
    let model = |rng: &mut StdRng| -> Vec<f32> {
        (0..plan.params)
            .map(|_| rng.gen_range(-0.1f32..0.1))
            .collect()
    };
    let genesis = ModelPayload::new(model(&mut rng));
    let messages = (1..=count as u64)
        .map(|id| {
            let recent = rng.gen_range(id.saturating_sub(8)..id);
            let any = rng.gen_range(GENESIS_NET_ID..id);
            TxMessage {
                id,
                parents: vec![recent, any],
                params: Arc::new(model(&mut rng)),
                issuer: Some((id % 16) as u32),
                round: (id / 16) as u32,
            }
        })
        .collect();
    (genesis, messages)
}

/// What one phase measured.
#[derive(Debug)]
pub struct Phase {
    /// First send to last apply, seconds.
    pub wall_s: f64,
    /// CPU seconds the process (harness thread and the transports' reader
    /// threads) used meanwhile.
    pub cpu_s: f64,
    /// Messages the receiver attached.
    pub applied: usize,
    /// Messages whose send failed or that never arrived.
    pub errored: usize,
    /// Open loop: due time -> applied, seconds per message.
    pub deliver_s: Vec<f64>,
    /// Open loop: due time -> send start, seconds per message.
    pub late_s: Vec<f64>,
    /// Seconds per `send_to_conn` call.
    pub send_s: Vec<f64>,
    /// Seconds per message of the `receive` + `apply` calls that carried
    /// at least one message.
    pub receive_apply_s: f64,
    /// Receiver replica after the phase.
    pub receiver_replica: Replica,
    /// Sender replica after the phase.
    pub sender_replica: Replica,
}

/// Sends `messages` from the sender's replica to the receiver's over
/// `link` and returns once all are applied. Closed loop (`open_rate = None`):
/// at most `window` messages in flight. Open loop at `open_rate` messages
/// per second: message `k` is due at `k / open_rate` seconds regardless of
/// progress, and is timed from then.
///
/// One harness thread plays both peers, as a `run_peer` main loop does: it
/// sends whenever the loop allows, drains and applies whatever has arrived,
/// and only waits when it can do neither. With the receiver transport's
/// reader thread that makes two busy threads on the 2-core box; a third (a
/// receiver thread of the harness's own) made a burst's wall time a reading
/// of the scheduler (0.04-0.42 s for identical bursts within one run).
///
/// When `tracer` is given, every `send_to_conn` and every
/// `receive` + `apply` that carried a message is recorded as a span.
pub fn run_phase(
    link: &mut Link,
    genesis: &ModelPayload,
    messages: &[TxMessage],
    window: usize,
    open_rate: Option<f64>,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let total = messages.len();
    let mut sender_replica = Replica::new(genesis.clone());
    let mut receiver_replica = Replica::new(genesis.clone());
    let Link {
        sender,
        receiver,
        conn,
        ..
    } = link;
    let (mut late_s, mut send_s) = (Vec::new(), Vec::with_capacity(total));
    let mut applied_at: Vec<f64> = Vec::with_capacity(total);
    let (mut next, mut errored, mut busy_s) = (0usize, 0usize, 0.0f64);
    let (started, cpu_started) = (Instant::now(), proc::cpu_time_s());
    let mut last_progress = started;

    while applied_at.len() + errored < total {
        // Drain: whatever the reader thread has decoded goes into the replica.
        let t = Instant::now();
        let span = tracer
            .as_deref_mut()
            .map(|s| s.enter("core.net.receive_apply", 0));
        let envelopes = receiver.receive(0, started.elapsed().as_secs_f64());
        let attached = if envelopes.is_empty() {
            0
        } else {
            receiver_replica.apply(envelopes)
        };
        if let (Some(s), Some(span)) = (tracer.as_deref_mut(), span) {
            if attached > 0 {
                s.exit(span);
            } else {
                s.cancel(span);
            }
        }
        if attached > 0 {
            busy_s += t.elapsed().as_secs_f64();
            let now = started.elapsed().as_secs_f64();
            applied_at.extend(std::iter::repeat(now).take(attached));
            last_progress = Instant::now();
        }

        // Send: closed loop while the window has room, open loop once due.
        let due = open_rate.map(|rate| next as f64 / rate);
        let now = started.elapsed().as_secs_f64();
        let may_send = next < total
            && match due {
                Some(due) => now >= due,
                None => next - applied_at.len() - errored < window,
            };
        if may_send {
            let message = &messages[next];
            next += 1;
            if let Some(due) = due {
                late_s.push(now - due);
            }
            if sender_replica.insert(message).is_err() {
                errored += 1;
                continue;
            }
            let t = Instant::now();
            let span = tracer
                .as_deref_mut()
                .map(|s| s.enter("core.net.send_to_conn", message.id));
            let sent = sender.send_to_conn(*conn, &WireMessage::Transaction(message.clone()));
            if let (Some(s), Some(span)) = (tracer.as_deref_mut(), span) {
                s.exit(span);
            }
            send_s.push(t.elapsed().as_secs_f64());
            if sent.is_err() {
                // The connection is gone: nothing later can arrive.
                errored += 1 + total - next;
                next = total;
            }
            last_progress = Instant::now();
        } else if attached == 0 {
            if last_progress.elapsed() > STALL {
                break;
            }
            match due {
                // Nothing in flight and nothing due: sleep towards the due
                // time instead of burning the core the reader will need.
                Some(due) if next < total && next == applied_at.len() + errored => {
                    thread::sleep(Duration::from_secs_f64(due - now).min(IDLE));
                }
                // Frames are in flight: the reader thread is decoding on the
                // other core and is a few microseconds from done.
                _ => thread::yield_now(),
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = proc::cpu_time_s() - cpu_started;

    let applied = applied_at.len();
    Phase {
        wall_s,
        cpu_s,
        applied,
        errored: errored.max(total - applied),
        // TCP delivers in order, so the k-th attach is the k-th message.
        deliver_s: open_rate.map_or_else(Vec::new, |rate| {
            applied_at
                .iter()
                .enumerate()
                .map(|(k, at)| at - k as f64 / rate)
                .collect()
        }),
        late_s,
        send_s,
        receive_apply_s: busy_s / applied.max(1) as f64,
        receiver_replica,
        sender_replica,
    }
}

/// What a peer prints when it exits: the digest of its replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerDigests {
    /// Seconds to digest both replicas.
    pub report_s: f64,
    /// Receiver replica digest.
    pub receiver: u64,
    /// Sender replica digest.
    pub sender: u64,
    /// Messages the receiver still holds unsolid.
    pub buffered: usize,
}

impl PeerDigests {
    /// Both sides hold the same tangle and nothing is left buffered.
    pub fn consistent(&self) -> bool {
        self.receiver == self.sender && self.buffered == 0
    }
}

/// Times the digest of both replicas of a finished phase.
pub fn report(phase: &Phase) -> PeerDigests {
    let (rx, tx) = (&phase.receiver_replica, &phase.sender_replica);
    let t = Instant::now();
    let (receiver, sender) = (rx.digest(), tx.digest());
    PeerDigests {
        report_s: t.elapsed().as_secs_f64(),
        receiver,
        sender,
        buffered: rx.buffered(),
    }
}

/// Records the consistency checks over the digests of every phase run.
pub fn check_digests(digests: &[PeerDigests], checks: &mut Checks) {
    let Some(last) = digests.last() else {
        return;
    };
    checks.check(
        "receiver and sender replica digests equal",
        digests.iter().all(|d| d.receiver == d.sender),
        format!(
            "{} phases, last receiver {:#018x} sender {:#018x}",
            digests.len(),
            last.receiver,
            last.sender
        ),
    );
    checks.check(
        "receiver buffered() == 0",
        digests.iter().all(|d| d.buffered == 0),
        format!("{} buffered after the last phase", last.buffered),
    );
}

/// Transport accounting after `sent` messages crossed `link`.
pub fn check_delivery(link: &Link, sent: usize, checks: &mut Checks) -> TransportStats {
    let (rx, tx) = (link.receiver.stats(), link.sender.stats());
    checks.check(
        "delivered == sent",
        rx.delivered == sent && tx.dropped == 0 && rx.dropped == 0,
        format!(
            "sent {sent}, delivered {}, dropped {}",
            rx.delivered,
            tx.dropped + rx.dropped
        ),
    );
    rx
}

/// Samples the set-up phase: bind + connect + hello + replica genesis.
fn setup_sample(genesis: &ModelPayload) -> io::Result<f64> {
    let t = Instant::now();
    let link = Link::connect()?;
    let replicas = (Replica::new(genesis.clone()), Replica::new(genesis.clone()));
    let setup_s = t.elapsed().as_secs_f64();
    drop((link, replicas));
    Ok(setup_s)
}

/// Closed-loop bursts per set-up sample. Spread over the whole run instead
/// of taken in one go: 400 set-ups last 60 ms, and their median read whatever
/// the shared host was doing in those 60 ms (0.10-0.22 ms between runs of one
/// binary, steady within each). Not every burst: a set-up leaves three
/// sockets in `TIME_WAIT` for a minute, and past some 12 000 of them
/// `connect` slows from 0.15 ms to 3-7 ms.
const BURSTS_PER_SETUP: usize = 2;

/// The untraced end-to-end run: closed-loop bursts, the whole process on
/// one CPU ([`proc::pin_to_one_cpu`]) so that the harness thread and the
/// transports' reader threads take turns instead of racing for a second
/// vCPU the host may or may not grant, and on a heap that keeps its pages
/// ([`proc::keep_freed_memory`]). A burst's time is the CPU time of the
/// process (on one CPU: its wall time less what the hypervisor took), and
/// every time is restated at the reference box's usual speed by the
/// [`canary::serial_reading`]s taken around it: around the block of
/// [`BURSTS_PER_REPORT`] bursts for a burst or a set-up, around the report
/// itself for a report.
///
/// # Errors
///
/// Propagates socket errors from connecting.
pub fn run_e2e(workload: &Workload, opts: &Opts) -> io::Result<Outcome> {
    let plan = NetPlan::new(opts.quick);
    let mut outcome = Outcome::default();
    let (genesis, messages) = generate(&plan, plan.burst, opts.seed);
    // Before the first bind: the transports' threads inherit the mask.
    let cpu = proc::pin_to_one_cpu();
    proc::keep_freed_memory();

    let mut link = Link::connect()?;
    // Untimed warm-up burst: connection buffers, allocator, page cache.
    let warm = run_phase(&mut link, &genesis, &messages, plan.window, None, None);
    let mut sent = warm.applied;
    drop(warm);

    let budget = Budget::start(opts.seconds);
    let reps = workload.reps_for(opts.seconds, opts.quick);
    let (mut wall, mut busy, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut digests, mut unreported) = (Vec::new(), Vec::new());
    // Per block of bursts, the canary readings before its first burst,
    // after its last, and after the report that follows.
    let mut speed: Vec<[f64; 3]> = Vec::new();
    let mut before = canary::serial_reading();
    for index in 0..reps {
        // As in `sim::run_e2e`: a fixed count, cut short (between blocks)
        // only on a box far slower than the reference.
        if index % BURSTS_PER_REPORT == 0 && index > 0 && budget.spent() > 2.0 * opts.seconds {
            break;
        }
        let phase = run_phase(&mut link, &genesis, &messages, plan.window, None, None);
        outcome.attempted += messages.len() as u64;
        outcome.errored += phase.errored as u64;
        sent += phase.applied;
        wall.push(phase.wall_s);
        busy.push(phase.cpu_s);
        if (index + 1) % BURSTS_PER_REPORT == 0 || index + 1 == reps {
            let after_bursts = canary::serial_reading();
            digests.push(report(&phase));
            let after_report = canary::serial_reading();
            speed.push([before, after_bursts, after_report]);
            before = after_report;
        } else {
            unreported.push((phase.applied, phase.receiver_replica.buffered()));
        }
        drop(phase);
        if index % BURSTS_PER_SETUP == 0 {
            setup.push(setup_sample(&genesis)?);
        }
    }
    check_digests(&digests, &mut outcome.checks);
    outcome.checks.check(
        "bursts without a report applied every message",
        unreported
            .iter()
            .all(|&(applied, buffered)| applied == messages.len() && buffered == 0),
        format!("{} bursts", unreported.len()),
    );
    check_delivery(&link, sent, &mut outcome.checks);

    // Sample `i` of a series taken every `stride` bursts, at the usual
    // speed: by the readings around its block.
    let restated = |samples: &[f64], stride: usize| -> Vec<f64> {
        samples
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let [before, after, _] = speed[i * stride / BURSTS_PER_REPORT];
                canary::restated(*s, [before, after], canary::REFERENCE_SERIAL_S)
            })
            .collect()
    };
    let burst_s = restated(&busy, 1);
    let rate: Vec<f64> = burst_s.iter().map(|s| messages.len() as f64 / s).collect();
    let raw_report_s: Vec<f64> = digests.iter().map(|d| d.report_s).collect();
    let report_s: Vec<f64> = raw_report_s
        .iter()
        .zip(&speed)
        .map(|(s, [_, before, after])| {
            canary::restated(*s, [*before, *after], canary::REFERENCE_SERIAL_S)
        })
        .collect();
    outcome.timed("setup_s", &restated(&setup, BURSTS_PER_SETUP));
    outcome.timed("wall_s", &burst_s);
    outcome.timed("ops_per_s", &rate);
    outcome.timed("report_s", &report_s);
    outcome.detail.extend([
        ("reps", Value::from(wall.len())),
        ("burst_messages", Value::from(messages.len())),
        ("window", Value::from(plan.window)),
        ("params_per_message", Value::from(plan.params)),
        ("connect_s", Value::from(link.connect_s)),
        ("pinned_cpu", cpu.map_or(Value::Null, Value::from)),
        ("raw_wall_s", Value::from(wall.as_slice())),
        ("cpu_s", Value::from(busy.as_slice())),
        ("raw_setup_s", Value::from(setup.as_slice())),
        ("raw_report_s", Value::from(raw_report_s.as_slice())),
        ("serial_reading_s", Value::from(speed.concat().as_slice())),
    ]);
    Ok(outcome)
}
