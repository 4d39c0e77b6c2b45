//! Deterministic fault injection for the transport seam.
//!
//! [`FaultyTransport`] is a [`Transport`] decorator: it wraps any inner
//! transport, intercepts every envelope the inner transport schedules,
//! and applies a scripted [`FaultPlan`] — per-link drop / duplicate /
//! reorder / extra-delay probabilities, partition windows with heal
//! times, and peer crash/restart windows. The point is to exercise the
//! failure paths (solidification under loss, duplicate suppression,
//! partition heal, crash rejoin) *deterministically*: all fault
//! sampling comes from the decorator's own RNG stream, derived from
//! the master seed with [`derive_seed`] under a fixed stream id, so
//!
//! * identical seeds reproduce identical fault schedules (and hence
//!   identical run reports), and
//! * the simulation's own RNG stream is never touched — wrapping a
//!   transport with an *inert* plan, or not wrapping at all, yields
//!   bit-identical simulations.
//!
//! Decorator ordering: the inner transport first samples its ordinary
//! per-link delays (consuming the *caller's* RNG exactly as it would
//! unwrapped), then the decorator drains those envelopes and pushes
//! the survivors into its own queues. Latency accounting therefore
//! still reflects the inner delay model; the fault counters
//! (`dropped`, `duplicated`) are the decorator's own.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{key, KeyVisitor, Range, RangeCheck, Slot};
use crate::{derive_seed, CoreError, Envelope, GossipMessage, Transport, TransportStats};

/// The RNG stream id of the fault injector (see [`derive_seed`]): one
/// fixed, documented constant so fault schedules depend only on the
/// master seed.
pub const FAULT_STREAM: u64 = 0xFA17;

/// A scripted network partition: while `start <= t < heal`, peers with
/// index below `split` cannot reach peers at or above it (and vice
/// versa). Messages sent across the cut during the window are not
/// lost — they are held and arrive at `heal`, modelling the queue
/// flush of a reconnecting link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// Logical time the partition opens.
    pub start: f64,
    /// Logical time the partition heals (exclusive end of the window).
    pub heal: f64,
    /// The cut: peers `0..split` on one side, `split..n` on the other.
    pub split: usize,
}

/// A scripted peer outage: while `at <= t < restart` the peer neither
/// sends nor receives — everything addressed to or from it in that
/// window is dropped (use `f64::INFINITY` for a crash with no
/// restart). The peer's replica survives; catching up after the
/// restart is the receiver's job (snapshot delta, or
/// [`AsyncSimulation::reconcile_replicas`](crate::AsyncSimulation::reconcile_replicas)
/// in the loopback harness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    /// The crashed peer.
    pub peer: usize,
    /// Logical time of the crash.
    pub at: f64,
    /// Logical time of the restart (may be `f64::INFINITY`).
    pub restart: f64,
}

/// A complete fault schedule for one run: the `[faults]` section of a
/// scenario file, read and written as it stands.
///
/// The probabilistic faults apply independently per scheduled envelope
/// (per link, per message); the scripted windows (at most one partition
/// and one crash) apply by logical time. The default plan is inert:
/// every probability zero, no windows — see [`FaultPlan::is_inert`].
///
/// # Example
///
/// ```
/// use dagfl_core::FaultPlan;
///
/// let plan = FaultPlan {
///     drop: 0.1,
///     duplicate: 0.05,
///     ..FaultPlan::default()
/// };
/// plan.validate(4).unwrap();
/// assert!(!plan.is_inert());
/// assert!(FaultPlan::default().is_inert());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that a scheduled envelope is silently lost.
    pub drop: f64,
    /// Probability that an envelope is delivered twice (the extra copy
    /// arrives up to [`FaultPlan::delay_boost`] later).
    pub duplicate: f64,
    /// Probability that an envelope is held back behind everything
    /// currently in flight to its receiver (plus up to `delay_boost`),
    /// so later sends overtake it — a true reordering.
    pub reorder: f64,
    /// Probability that an envelope suffers an extra latency spike of
    /// up to `delay_boost` (jitter without reordering guarantees).
    pub extra_delay: f64,
    /// Magnitude (in logical time) of the delay-based faults: reorder
    /// hold-back, duplicate offset and extra-delay spikes each add
    /// `U(0, delay_boost)`.
    pub delay_boost: f64,
    /// The scripted partition window, if any.
    pub partition: Option<PartitionWindow>,
    /// The scripted peer outage, if any.
    pub crash: Option<CrashWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            extra_delay: 0.0,
            delay_boost: 1.0,
            partition: None,
            crash: None,
        }
    }
}

impl FaultPlan {
    /// `true` when the plan can never alter a delivery — the gate for
    /// skipping the decorator entirely, which keeps fault-free runs
    /// structurally identical to pre-fault builds.
    pub fn is_inert(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.extra_delay == 0.0
            && self.partition.is_none()
            && self.crash.is_none()
    }

    /// Checks every field against a network of `peers` peers: the
    /// ranges of [`FaultPlan::keys`] (probabilities in `[0, 1]`, a finite
    /// non-negative `delay_boost`, a partition window with `start <=
    /// heal`, a crash window with `at <= restart`, where `restart` may be
    /// infinite), then a peer on each side of the partition's cut and a
    /// crash of one of the peers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidField`] naming the first offending
    /// field by its scenario-file key (`faults.partition_start`).
    pub fn validate(&self, peers: usize) -> Result<(), CoreError> {
        let mut plan = self.clone();
        RangeCheck::run(|check| plan.keys(check))?;
        if let Some(w) = &self.partition {
            if !(1..peers).contains(&w.split) {
                return Err(CoreError::invalid_field(
                    "faults.partition_split",
                    w.split,
                    "must be at least 1 and below the client count",
                ));
            }
        }
        if let Some(c) = &self.crash {
            if c.peer >= peers {
                return Err(CoreError::invalid_field(
                    "faults.crash_peer",
                    c.peer,
                    "must be below the client count",
                ));
            }
        }
        Ok(())
    }

    /// Visits the `[faults]` keys in scenario-file order: the
    /// per-envelope faults, then the partition window and the crash
    /// window, each as optional keys. A window reads as present only
    /// whole (a crash without `crash_restart` never restarts); the
    /// scenario reader rejects a window given in part.
    ///
    /// # Errors
    ///
    /// Returns the visitor's first error.
    pub fn keys<V: KeyVisitor>(&mut self, v: &mut V) -> Result<(), V::Error> {
        use Range::*;
        use Slot::*;
        let fraction = |name, field| key(name, Fraction).field(field);
        v.key(fraction("drop", "faults.drop"), F64(&mut self.drop))?;
        v.key(
            fraction("duplicate", "faults.duplicate"),
            F64(&mut self.duplicate),
        )?;
        v.key(
            fraction("reorder", "faults.reorder"),
            F64(&mut self.reorder),
        )?;
        let extra_delay = fraction("extra_delay", "faults.extra_delay");
        v.key(extra_delay, F64(&mut self.extra_delay))?;
        let boost = key("delay_boost", NonNegative).field("faults.delay_boost");
        v.key(boost, F64(&mut self.delay_boost))?;
        let heal_at = self.partition.map_or(0.0, |w| w.heal);
        let mut start = self.partition.map(|w| w.start);
        let mut heal = self.partition.map(|w| w.heal);
        let mut split = self.partition.map(|w| w.split);
        let start_key = key("partition_start", PartitionStart(heal_at));
        v.key(
            start_key.field("faults.partition_start"),
            OptF64(&mut start),
        )?;
        v.key(key("partition_heal", Any), OptF64(&mut heal))?;
        v.key(key("partition_split", Any), OptUsize(&mut split))?;
        self.partition = match (start, heal, split) {
            (Some(start), Some(heal), Some(split)) => Some(PartitionWindow { start, heal, split }),
            _ => None,
        };
        let restart_at = self.crash.map_or(f64::INFINITY, |w| w.restart);
        let mut peer = self.crash.map(|w| w.peer);
        let mut at = self.crash.map(|w| w.at);
        let mut restart = Some(restart_at).filter(|r| r.is_finite());
        v.key(key("crash_peer", Any), OptUsize(&mut peer))?;
        let at_key = key("crash_at", CrashAt(restart_at)).field("faults.crash_at");
        v.key(at_key, OptF64(&mut at))?;
        v.key(key("crash_restart", Any), OptF64(&mut restart))?;
        self.crash = match (peer, at) {
            (Some(peer), Some(at)) => {
                let restart = restart.unwrap_or(f64::INFINITY);
                Some(CrashWindow { peer, at, restart })
            }
            _ => None,
        };
        Ok(())
    }

    fn crashed(&self, peer: usize, t: f64) -> bool {
        self.crash
            .is_some_and(|c| peer == c.peer && t >= c.at && t < c.restart)
    }

    /// The heal time of the partition when a message sent at `t` from
    /// `from` to `to` crosses its open cut (`None` when the link is up).
    fn held_until(&self, t: f64, from: usize, to: usize) -> Option<f64> {
        let w = self.partition?;
        let open = t >= w.start && t < w.heal;
        (open && (from < w.split) != (to < w.split)).then_some(w.heal)
    }
}

/// A [`Transport`] decorator that injects the faults of a
/// [`FaultPlan`] into every scheduled delivery, sampling from its own
/// seed-derived RNG stream.
///
/// # Example
///
/// ```
/// use dagfl_core::{DelayModel, FaultPlan, FaultyTransport, GossipMessage, LoopbackTransport,
///                  Transport, TxMessage};
/// use rand::{rngs::StdRng, SeedableRng};
/// use std::sync::Arc;
///
/// let plan = FaultPlan { drop: 1.0, ..FaultPlan::default() };
/// let inner = LoopbackTransport::new(DelayModel::constant(0.0), vec![false; 2]);
/// let mut transport = FaultyTransport::new(inner, plan, 42);
/// let mut rng = StdRng::seed_from_u64(7);
/// let msg = GossipMessage::Transaction(TxMessage {
///     id: 1, parents: vec![0], params: Arc::new(vec![0.0]), issuer: Some(0), round: 0,
/// });
/// transport.broadcast(0, 0.0, msg, &mut rng).unwrap();
/// assert!(transport.receive(1, 100.0).is_empty(), "drop = 1.0 loses everything");
/// assert_eq!(transport.stats().dropped, 1);
/// ```
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    rng: StdRng,
    queues: Vec<Vec<Envelope>>,
    stats: TransportStats,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner`, sampling the plan's faults from the RNG stream
    /// `derive_seed(master_seed, FAULT_STREAM)`.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`] for the inner
    /// transport's peers.
    pub fn new(inner: T, plan: FaultPlan, master_seed: u64) -> Self {
        let n = inner.num_peers();
        if let Err(e) = plan.validate(n) {
            panic!("invalid fault plan: {e}");
        }
        Self {
            inner,
            plan,
            rng: StdRng::seed_from_u64(derive_seed(master_seed, FAULT_STREAM)),
            queues: (0..n).map(|_| Vec::new()).collect(),
            stats: TransportStats::default(),
        }
    }

    /// The fault schedule this decorator runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Runs one drained envelope through the fault pipeline and queues
    /// the surviving copies. Order matters and is part of the
    /// determinism contract: sender crash, drop, partition hold,
    /// reorder/extra-delay, duplicate, receiver crash.
    fn inject(&mut self, from: usize, to: usize, now: f64, mut env: Envelope) {
        if self.plan.crashed(from, now) {
            self.stats.dropped += 1;
            return;
        }
        if self.plan.drop > 0.0 && self.rng.gen_bool(self.plan.drop) {
            self.stats.dropped += 1;
            return;
        }
        if let Some(heal) = self.plan.held_until(now, from, to) {
            env.at = env.at.max(heal);
        }
        if self.plan.reorder > 0.0 && self.rng.gen_bool(self.plan.reorder) {
            let tail = self.queues[to].iter().map(|e| e.at).fold(env.at, f64::max);
            env.at = tail + self.boost();
        } else if self.plan.extra_delay > 0.0 && self.rng.gen_bool(self.plan.extra_delay) {
            env.at += self.boost();
        }
        let mut copies = vec![env];
        if self.plan.duplicate > 0.0 && self.rng.gen_bool(self.plan.duplicate) {
            let mut dup = copies[0].clone();
            dup.at += self.boost();
            self.stats.duplicated += 1;
            copies.push(dup);
        }
        for copy in copies {
            if self.plan.crashed(to, copy.at) {
                self.stats.dropped += 1;
            } else {
                self.queues[to].push(copy);
            }
        }
    }

    fn boost(&mut self) -> f64 {
        if self.plan.delay_boost > 0.0 {
            self.rng.gen_range(0.0..self.plan.delay_boost)
        } else {
            0.0
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn num_peers(&self) -> usize {
        self.inner.num_peers()
    }

    fn broadcast(
        &mut self,
        from: usize,
        now: f64,
        message: GossipMessage,
        rng: &mut StdRng,
    ) -> Result<(), CoreError> {
        // The inner transport consumes the caller's RNG exactly as it
        // would unwrapped (delay sampling in ascending peer order);
        // the decorator then drains what it scheduled. Draining after
        // every broadcast keeps the inner queues empty, so each drain
        // yields precisely this broadcast's envelopes.
        self.inner.broadcast(from, now, message, rng)?;
        for to in 0..self.queues.len() {
            if to == from {
                continue;
            }
            for env in self.inner.receive(to, f64::INFINITY) {
                self.inject(from, to, now, env);
            }
        }
        Ok(())
    }

    fn receive(&mut self, peer: usize, now: f64) -> Vec<Envelope> {
        let queue = std::mem::take(&mut self.queues[peer]);
        let (due, keep): (Vec<Envelope>, Vec<Envelope>) =
            queue.into_iter().partition(|e| e.at <= now);
        self.queues[peer] = keep;
        self.stats.delivered += due.len();
        due
    }

    fn in_flight(&self, peer: usize) -> &[Envelope] {
        &self.queues[peer]
    }

    fn stats(&self) -> TransportStats {
        // Latency accounting comes from the inner delay sampling; the
        // inner `delivered` counter is an artefact of the eager drain
        // and is replaced by the decorator's own.
        let inner = self.inner.stats();
        TransportStats {
            latency_sum: inner.latency_sum,
            latency_count: inner.latency_count,
            latency_max: inner.latency_max,
            delivered: self.stats.delivered,
            dropped: self.stats.dropped + inner.dropped,
            duplicated: self.stats.duplicated + inner.duplicated,
            reconnects: self.stats.reconnects + inner.reconnects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayModel, LoopbackTransport, TxMessage};
    use std::sync::Arc;

    fn tx(id: u64) -> GossipMessage {
        GossipMessage::Transaction(TxMessage {
            id,
            parents: vec![0],
            params: Arc::new(vec![id as f32]),
            issuer: Some(0),
            round: 0,
        })
    }

    fn wrap(plan: FaultPlan, n: usize, delay: f64) -> FaultyTransport<LoopbackTransport> {
        let inner = LoopbackTransport::new(DelayModel::constant(delay), vec![false; n]);
        FaultyTransport::new(inner, plan, 42)
    }

    #[test]
    fn inert_plan_passes_everything_through() {
        let mut t = wrap(FaultPlan::default(), 3, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        t.broadcast(0, 0.0, tx(1), &mut rng).unwrap();
        assert_eq!(t.in_flight(1).len(), 1);
        assert_eq!(t.receive(1, 1.0).len(), 1);
        assert_eq!(t.receive(2, 1.0).len(), 1);
        let s = t.stats();
        assert_eq!((s.delivered, s.dropped, s.duplicated), (2, 0, 0));
        assert_eq!(s.latency_count, 2, "inner latency accounting survives");
    }

    #[test]
    fn drop_one_loses_everything_and_counts() {
        let mut t = wrap(
            FaultPlan {
                drop: 1.0,
                ..FaultPlan::default()
            },
            4,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(1);
        t.broadcast(0, 0.0, tx(1), &mut rng).unwrap();
        for p in 1..4 {
            assert!(t.receive(p, 100.0).is_empty());
        }
        assert_eq!(t.stats().dropped, 3);
        assert!(t.stats().has_faults());
    }

    #[test]
    fn duplicate_one_delivers_twice() {
        let mut t = wrap(
            FaultPlan {
                duplicate: 1.0,
                delay_boost: 0.0,
                ..FaultPlan::default()
            },
            2,
            1.0,
        );
        let mut rng = StdRng::seed_from_u64(1);
        t.broadcast(0, 0.0, tx(1), &mut rng).unwrap();
        assert_eq!(t.receive(1, 10.0).len(), 2);
        assert_eq!(t.stats().duplicated, 1);
        assert_eq!(t.stats().delivered, 2);
    }

    #[test]
    fn partition_holds_cross_cut_messages_until_heal() {
        let plan = FaultPlan {
            partition: Some(PartitionWindow {
                start: 0.0,
                heal: 50.0,
                split: 1,
            }),
            ..FaultPlan::default()
        };
        let mut t = wrap(plan, 3, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        // Peer 0 is alone on side A; 1 and 2 are on side B.
        t.broadcast(0, 0.0, tx(1), &mut rng).unwrap();
        t.broadcast(1, 0.0, tx(2), &mut rng).unwrap();
        assert!(t.receive(1, 10.0).is_empty(), "cross-cut held");
        assert_eq!(t.receive(2, 10.0).len(), 1, "same-side delivers");
        assert_eq!(t.receive(1, 50.0).len(), 1, "arrives at heal");
        assert_eq!(t.receive(0, 50.0).len(), 1);
        assert_eq!(t.stats().dropped, 0, "partitions hold, never drop");
    }

    #[test]
    fn crashed_sender_reaches_nobody_crashed_receiver_hears_nothing() {
        let plan = FaultPlan {
            crash: Some(CrashWindow {
                peer: 1,
                at: 0.0,
                restart: 100.0,
            }),
            ..FaultPlan::default()
        };
        let mut t = wrap(plan, 3, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        t.broadcast(1, 0.0, tx(1), &mut rng).unwrap(); // crashed sender
        t.broadcast(0, 0.0, tx(2), &mut rng).unwrap(); // 1 is down, 2 is up
        assert!(t.receive(0, 10.0).is_empty());
        assert!(t.receive(1, 10.0).is_empty());
        assert_eq!(t.receive(2, 10.0).len(), 1);
        assert_eq!(t.stats().dropped, 3);
        // After restart the peer participates again.
        t.broadcast(0, 100.0, tx(3), &mut rng).unwrap();
        assert_eq!(t.receive(1, 101.0).len(), 1);
    }

    #[test]
    fn reorder_holds_an_envelope_behind_later_sends() {
        let plan = FaultPlan {
            reorder: 1.0,
            delay_boost: 0.5,
            ..FaultPlan::default()
        };
        let mut t = wrap(plan, 2, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        t.broadcast(0, 0.0, tx(1), &mut rng).unwrap();
        let first = t.in_flight(1)[0].at;
        t.broadcast(0, 0.1, tx(2), &mut rng).unwrap();
        let second = t.in_flight(1)[1].at;
        assert!(
            second > first,
            "reordered envelope lands behind the queue tail ({second} <= {first})"
        );
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let run = || {
            let mut t = wrap(
                FaultPlan {
                    drop: 0.3,
                    duplicate: 0.3,
                    extra_delay: 0.3,
                    ..FaultPlan::default()
                },
                4,
                1.0,
            );
            let mut rng = StdRng::seed_from_u64(5);
            for i in 0..20 {
                t.broadcast((i % 4) as usize, i as f64, tx(i + 1), &mut rng)
                    .unwrap();
            }
            let arrivals: Vec<Vec<f64>> = (0..4)
                .map(|p| t.in_flight(p).iter().map(|e| e.at).collect())
                .collect();
            (arrivals, t.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn plan_validation_rejects_bad_fields() {
        let plan = |edit: fn(&mut FaultPlan)| {
            let mut plan = FaultPlan::default();
            edit(&mut plan);
            plan
        };
        fn window(start: f64, heal: f64, split: usize) -> Option<PartitionWindow> {
            Some(PartitionWindow { start, heal, split })
        }
        fn crash(peer: usize, at: f64, restart: f64) -> Option<CrashWindow> {
            Some(CrashWindow { peer, at, restart })
        }
        // Each error names the scenario-file key; on 4 peers a cut at 0
        // or 4 and a crash of peer 4 can never fire.
        for (plan, key) in [
            (plan(|p| p.drop = 1.5), "faults.drop"),
            (plan(|p| p.delay_boost = f64::NAN), "faults.delay_boost"),
            (
                plan(|p| p.partition = window(5.0, 1.0, 1)),
                "faults.partition_start",
            ),
            (plan(|p| p.crash = crash(0, 5.0, 1.0)), "faults.crash_at"),
            (
                plan(|p| p.partition = window(0.0, 1.0, 0)),
                "faults.partition_split",
            ),
            (
                plan(|p| p.partition = window(0.0, 1.0, 4)),
                "faults.partition_split",
            ),
            (plan(|p| p.crash = crash(4, 0.0, 1.0)), "faults.crash_peer"),
        ] {
            match plan.validate(4) {
                Err(CoreError::InvalidField { field, .. }) => assert_eq!(field, key, "{plan:?}"),
                other => panic!("{plan:?}: expected a field error, got {other:?}"),
            }
        }
        // Infinite restart (crash forever) is legal, as are the edge peers.
        let ok = FaultPlan {
            partition: window(0.0, 1.0, 3),
            crash: crash(3, 5.0, f64::INFINITY),
            ..FaultPlan::default()
        };
        assert!(ok.validate(4).is_ok());
    }
}
