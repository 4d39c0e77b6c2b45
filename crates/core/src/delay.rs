//! Network and compute heterogeneity models for the asynchronous
//! execution mode.
//!
//! A real peer-to-peer deployment has neither uniform links nor uniform
//! hardware: publications reach different peers after different delays,
//! and slow devices both train longer and activate less often. The
//! round simulator abstracts all of this away; the asynchronous
//! simulator ([`AsyncSimulation`](crate::AsyncSimulation)) models it
//! explicitly through two pluggable pieces:
//!
//! * [`DelayModel`] — samples the propagation delay of one publication
//!   over one link (publisher → receiver), and
//! * [`ComputeProfile`] — assigns every client a compute-speed factor
//!   that scales both its Poisson activation rate and its training
//!   duration.

use rand::Rng;

/// Per-link propagation delay of a published transaction.
///
/// A *link* is one `(publisher, receiver)` pair; the model is sampled
/// once per publication per receiver, so two receivers of the same
/// transaction generally see it at different logical times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Every link delivers after exactly `delay` logical time units.
    /// `Constant { delay: 0.0 }` is the instantaneous broadcast of the
    /// original event-queue prototype: a publication is visible to
    /// every client from the moment it is published.
    Constant {
        /// The fixed propagation delay.
        delay: f64,
    },
    /// Uniform jitter around a base latency: each link sample is drawn
    /// from `base + U(0, jitter)`.
    UniformJitter {
        /// Minimum propagation delay.
        base: f64,
        /// Width of the uniform jitter band added on top of `base`.
        jitter: f64,
    },
    /// Heterogeneous slow/fast cohorts: each client is assigned to the
    /// slow cohort with probability `slow_fraction` (sampled once per
    /// simulation from the master seed). A link is slow when *either*
    /// endpoint is slow — its base delay is `slow` instead of `fast` —
    /// and every sample adds `U(0, jitter)` on top.
    Cohorts {
        /// Probability that a client lands in the slow cohort.
        slow_fraction: f64,
        /// Base delay of links between two fast-cohort clients.
        fast: f64,
        /// Base delay of links touching at least one slow client.
        slow: f64,
        /// Width of the uniform jitter band added to every sample.
        jitter: f64,
    },
}

impl DelayModel {
    /// A constant per-link delay (`0.0` = instantaneous broadcast).
    pub fn constant(delay: f64) -> Self {
        DelayModel::Constant { delay }
    }

    /// The slow-cohort fraction of this model (`0.0` for the variants
    /// without cohorts).
    pub fn slow_fraction(&self) -> f64 {
        match *self {
            DelayModel::Cohorts { slow_fraction, .. } => slow_fraction,
            _ => 0.0,
        }
    }

    /// Assigns the network cohort of every client (`true` = slow).
    /// Only the [`DelayModel::Cohorts`] variant produces slow clients.
    pub(crate) fn assign_cohorts<R: Rng>(&self, num_clients: usize, rng: &mut R) -> Vec<bool> {
        match *self {
            DelayModel::Cohorts { slow_fraction, .. } => (0..num_clients)
                .map(|_| rng.gen::<f64>() < slow_fraction)
                .collect(),
            _ => vec![false; num_clients],
        }
    }

    /// Samples the delay of one publication over one link.
    pub(crate) fn sample<R: Rng>(
        &self,
        publisher_slow: bool,
        receiver_slow: bool,
        rng: &mut R,
    ) -> f64 {
        match *self {
            DelayModel::Constant { delay } => delay,
            DelayModel::UniformJitter { base, jitter } => base + sample_jitter(jitter, rng),
            DelayModel::Cohorts {
                fast, slow, jitter, ..
            } => {
                let base = if publisher_slow || receiver_slow {
                    slow
                } else {
                    fast
                };
                base + sample_jitter(jitter, rng)
            }
        }
    }
}

impl Default for DelayModel {
    /// A constant two-time-unit delay, matching the historical
    /// `visibility_delay` default of the event-queue prototype.
    fn default() -> Self {
        DelayModel::Constant { delay: 2.0 }
    }
}

fn sample_jitter<R: Rng>(jitter: f64, rng: &mut R) -> f64 {
    if jitter > 0.0 {
        rng.gen_range(0.0..jitter)
    } else {
        0.0
    }
}

/// Per-client compute-speed factors.
///
/// A client with speed `s` activates with Poisson rate `s /
/// mean_interarrival` (it trains as often as its resources permit,
/// §5.3.3) and finishes one local-training pass after `train_time / s`
/// logical time units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ComputeProfile {
    /// Every client runs at speed 1.0 (the round simulator's implicit
    /// assumption).
    #[default]
    Uniform,
    /// A fraction of clients runs `slowdown`× slower than the rest:
    /// they activate less often and hold their selected tips longer
    /// while training — the regime in which stale-tip handling starts
    /// to matter. The compute cohort is sampled independently of any
    /// network cohort.
    TwoSpeed {
        /// Probability that a client lands in the slow cohort.
        slow_fraction: f64,
        /// How many times slower the slow cohort is (≥ 1.0).
        slowdown: f64,
    },
    /// The network slow cohort of [`DelayModel::Cohorts`] is also
    /// compute-slow: exactly the clients with slow links run
    /// `slowdown`× slower. This is the realistic straggler regime —
    /// cheap devices tend to have both poor connectivity and poor
    /// compute — and what `dagfl async --delay-model cohorts
    /// --slowdown ...` constructs. Under a delay model without
    /// cohorts, every client runs at speed 1.0.
    MatchNetworkCohort {
        /// How many times slower the slow cohort is (≥ 1.0).
        slowdown: f64,
    },
}

impl ComputeProfile {
    /// The expected mean speed over all clients, given the network
    /// cohort's slow fraction (used to put execution modes on equal
    /// expected logical-time budgets).
    pub fn expected_mean_speed(&self, network_slow_fraction: f64) -> f64 {
        match *self {
            ComputeProfile::Uniform => 1.0,
            ComputeProfile::TwoSpeed {
                slow_fraction,
                slowdown,
            } => 1.0 - slow_fraction + slow_fraction / slowdown,
            ComputeProfile::MatchNetworkCohort { slowdown } => {
                1.0 - network_slow_fraction + network_slow_fraction / slowdown
            }
        }
    }

    /// The speed factor of every client; `network_cohort` is the slow
    /// flag per client sampled from the delay model.
    pub(crate) fn speeds<R: Rng>(&self, network_cohort: &[bool], rng: &mut R) -> Vec<f64> {
        match *self {
            ComputeProfile::Uniform => vec![1.0; network_cohort.len()],
            ComputeProfile::TwoSpeed {
                slow_fraction,
                slowdown,
            } => (0..network_cohort.len())
                .map(|_| {
                    if rng.gen::<f64>() < slow_fraction {
                        1.0 / slowdown
                    } else {
                        1.0
                    }
                })
                .collect(),
            ComputeProfile::MatchNetworkCohort { slowdown } => network_cohort
                .iter()
                .map(|&slow| if slow { 1.0 / slowdown } else { 1.0 })
                .collect(),
        }
    }
}

/// What to do when a client finishes training and discovers that a tip
/// it selected has been superseded (approved by somebody else) while it
/// was training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StaleTipPolicy {
    /// Publish against the originally selected parents anyway. This is
    /// the tangle's native answer — approving a non-tip merely widens
    /// the DAG — and the historical behaviour.
    #[default]
    PublishAnyway,
    /// Re-run tip selection against the client's *current* view and
    /// re-validate: publish onto the fresh parents only if the trained
    /// model still beats the fresh averaged reference on local test
    /// data.
    Reselect,
    /// Drop the publication entirely (the conservative reading:
    /// training raced, so its result is discarded).
    Discard,
}

/// `execution.stale_policy`.
pub(crate) const STALE_POLICIES: [(&str, StaleTipPolicy); 3] = [
    ("publish", StaleTipPolicy::PublishAnyway),
    ("reselect", StaleTipPolicy::Reselect),
    ("discard", StaleTipPolicy::Discard),
];

/// `execution.delay_model`.
pub(crate) const DELAY_MODELS: [(&str, DelayModel); 3] = [
    ("constant", DelayModel::Constant { delay: 2.0 }),
    (
        "jitter",
        DelayModel::UniformJitter {
            base: 2.0,
            jitter: 0.0,
        },
    ),
    (
        "cohorts",
        DelayModel::Cohorts {
            slow_fraction: 0.3,
            fast: 2.0,
            slow: 8.0,
            jitter: 0.0,
        },
    ),
];

/// `execution.compute`.
pub(crate) const COMPUTE_PROFILES: [(&str, ComputeProfile); 3] = [
    ("uniform", ComputeProfile::Uniform),
    (
        "two-speed",
        ComputeProfile::TwoSpeed {
            slow_fraction: 0.3,
            slowdown: 4.0,
        },
    ),
    (
        "match-network",
        ComputeProfile::MatchNetworkCohort { slowdown: 4.0 },
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_model_ignores_cohorts_and_rng() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = DelayModel::constant(3.0);
        assert_eq!(m.sample(false, false, &mut rng), 3.0);
        assert_eq!(m.sample(true, true, &mut rng), 3.0);
        assert!(m.assign_cohorts(5, &mut rng).iter().all(|&s| !s));
    }

    #[test]
    fn jitter_samples_stay_in_band() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DelayModel::UniformJitter {
            base: 1.0,
            jitter: 2.0,
        };
        for _ in 0..100 {
            let d = m.sample(false, false, &mut rng);
            assert!((1.0..3.0).contains(&d), "sample {d} out of band");
        }
    }

    #[test]
    fn zero_jitter_is_exact_base() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = DelayModel::UniformJitter {
            base: 0.5,
            jitter: 0.0,
        };
        assert_eq!(m.sample(false, false, &mut rng), 0.5);
    }

    #[test]
    fn cohort_links_are_slow_when_either_endpoint_is() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = DelayModel::Cohorts {
            slow_fraction: 0.5,
            fast: 1.0,
            slow: 10.0,
            jitter: 0.0,
        };
        assert_eq!(m.sample(false, false, &mut rng), 1.0);
        assert_eq!(m.sample(true, false, &mut rng), 10.0);
        assert_eq!(m.sample(false, true, &mut rng), 10.0);
        assert_eq!(m.sample(true, true, &mut rng), 10.0);
    }

    #[test]
    fn cohort_assignment_matches_fraction_roughly() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = DelayModel::Cohorts {
            slow_fraction: 0.5,
            fast: 1.0,
            slow: 2.0,
            jitter: 0.0,
        };
        let cohorts = m.assign_cohorts(400, &mut rng);
        let slow = cohorts.iter().filter(|&&s| s).count();
        assert!((120..280).contains(&slow), "got {slow} slow of 400");
    }

    #[test]
    fn two_speed_profile_produces_both_speeds() {
        let mut rng = StdRng::seed_from_u64(5);
        let speeds = ComputeProfile::TwoSpeed {
            slow_fraction: 0.5,
            slowdown: 4.0,
        }
        .speeds(&[false; 200], &mut rng);
        assert!(speeds.contains(&1.0));
        assert!(speeds.contains(&0.25));
    }

    #[test]
    fn uniform_profile_is_all_ones() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(ComputeProfile::Uniform
            .speeds(&[false; 10], &mut rng)
            .iter()
            .all(|&s| s == 1.0));
    }

    #[test]
    fn match_network_cohort_mirrors_the_slow_flags() {
        let mut rng = StdRng::seed_from_u64(7);
        let cohort = [true, false, true, false];
        let speeds = ComputeProfile::MatchNetworkCohort { slowdown: 4.0 }.speeds(&cohort, &mut rng);
        assert_eq!(speeds, vec![0.25, 1.0, 0.25, 1.0]);
    }

    #[test]
    fn expected_mean_speed_accounts_for_the_cohort() {
        assert_eq!(ComputeProfile::Uniform.expected_mean_speed(0.3), 1.0);
        let two = ComputeProfile::TwoSpeed {
            slow_fraction: 0.5,
            slowdown: 4.0,
        };
        assert!((two.expected_mean_speed(0.0) - 0.625).abs() < 1e-12);
        let matched = ComputeProfile::MatchNetworkCohort { slowdown: 4.0 };
        assert!((matched.expected_mean_speed(0.3) - 0.775).abs() < 1e-12);
        assert_eq!(DelayModel::constant(1.0).slow_fraction(), 0.0);
        let cohorts = DelayModel::Cohorts {
            slow_fraction: 0.3,
            fast: 1.0,
            slow: 8.0,
            jitter: 0.0,
        };
        assert_eq!(cohorts.slow_fraction(), 0.3);
    }

    /// `AsyncConfig::validate` over the defaults with this delay and
    /// compute model.
    fn validate(delay: DelayModel, compute: ComputeProfile) -> Result<(), crate::CoreError> {
        crate::AsyncConfig {
            delay,
            compute,
            ..crate::AsyncConfig::default()
        }
        .validate()
    }

    #[test]
    fn negative_delay_is_rejected() {
        let err = validate(DelayModel::constant(-1.0), ComputeProfile::Uniform).unwrap_err();
        assert!(err.to_string().contains("non-negative"), "{err}");
    }

    #[test]
    fn out_of_range_fraction_is_rejected() {
        let cohorts = DelayModel::Cohorts {
            slow_fraction: 1.5,
            fast: 1.0,
            slow: 2.0,
            jitter: 0.0,
        };
        let err = validate(cohorts, ComputeProfile::Uniform).unwrap_err();
        assert!(err.to_string().contains("slow_fraction"), "{err}");
    }

    #[test]
    fn sub_unit_slowdown_is_rejected() {
        let two_speed = ComputeProfile::TwoSpeed {
            slow_fraction: 0.5,
            slowdown: 0.5,
        };
        let err = validate(DelayModel::constant(2.0), two_speed).unwrap_err();
        assert!(err.to_string().contains("slowdown"), "{err}");
        assert!(validate(DelayModel::constant(2.0), ComputeProfile::Uniform).is_ok());
    }

    #[test]
    fn default_matches_historical_visibility_delay() {
        assert_eq!(DelayModel::default(), DelayModel::Constant { delay: 2.0 });
        assert_eq!(ComputeProfile::default(), ComputeProfile::Uniform);
        assert_eq!(StaleTipPolicy::default(), StaleTipPolicy::PublishAnyway);
    }
}
