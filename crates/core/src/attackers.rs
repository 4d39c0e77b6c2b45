//! Active attackers that publish manipulated transactions directly
//! (§4.4; threat model adopted from Schmid et al.).
//!
//! The *random-weight* attacker floods the DAG with transactions carrying
//! garbage parameters. Its prediction accuracy is near chance, so the
//! accuracy-aware walk practically never selects such transactions — the
//! attacker must trade poisoning effect against selection probability.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dagfl_datasets::FederatedDataset;
use dagfl_tangle::{RandomWalker, TangleRead, TxId, UniformBias};

use crate::{CoreError, DagConfig, ModelFactory, ModelPayload, Simulation};

/// Garbage weights are drawn uniformly from `[-WEIGHT_SCALE, WEIGHT_SCALE]`.
const WEIGHT_SCALE: f32 = 1.0;

/// Configuration of a random-weight flooding attack: a *limited-rate*
/// attacker (§4.4) that injects one garbage transaction per round.
#[derive(Debug, Clone, Copy)]
pub struct GarbageAttackConfig {
    /// The underlying simulation configuration (rounds included).
    pub dag: DagConfig,
    /// Rounds of clean training before injections start.
    ///
    /// Flooding an *untrained* network is far more effective — when every
    /// model is near chance level the accuracy bias has no gap to
    /// discriminate with. The paper's threat analysis assumes an
    /// established network (its label-flip attack starts after 100 clean
    /// rounds); the same warm-up applies here.
    pub clean_rounds: usize,
}

/// Per-measurement metrics of the flooding attack.
#[derive(Debug, Clone)]
pub struct GarbageRoundMetrics {
    /// Global round index at measurement time.
    pub round: usize,
    /// Mean number of garbage transactions in the past cone of a client's
    /// reference tips.
    pub garbage_in_cone: f64,
    /// Fraction of reference tips that *are* garbage transactions — the
    /// direct takeover rate.
    pub garbage_tip_fraction: f64,
}

/// Orchestrates a random-weight flooding attack against a [`Simulation`].
pub struct GarbageAttackScenario {
    config: GarbageAttackConfig,
    simulation: Simulation,
    attacker_rng: StdRng,
    num_parameters: usize,
    garbage: HashSet<TxId>,
}

impl GarbageAttackScenario {
    /// Creates a scenario over the given dataset and model factory.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Simulation::new`].
    pub fn new(
        config: GarbageAttackConfig,
        dataset: FederatedDataset,
        factory: ModelFactory,
    ) -> Self {
        let simulation = Simulation::new(config.dag, dataset, factory);
        let tangle = simulation.tangle();
        let num_parameters = tangle
            .payload_of(tangle.genesis())
            .expect("the genesis is in its tangle")
            .len();
        Self {
            config,
            simulation,
            attacker_rng: StdRng::seed_from_u64(config.dag.seed ^ 0xDEAD_BEEF),
            num_parameters,
            garbage: HashSet::new(),
        }
    }

    /// The underlying simulation.
    pub fn simulation(&self) -> &Simulation {
        &self.simulation
    }

    /// Ids of all garbage transactions injected so far.
    pub fn garbage_transactions(&self) -> &HashSet<TxId> {
        &self.garbage
    }

    /// Runs one benign round followed by the attacker's injection.
    ///
    /// The garbage transaction is published anonymously (no issuer) with
    /// parents chosen by unbiased walks — an attacker maximising spread
    /// rather than stealth.
    ///
    /// # Errors
    ///
    /// Propagates simulation/tangle errors.
    pub fn run_round(&mut self) -> Result<(), CoreError> {
        self.simulation.run_round()?;
        if self.simulation.round() <= self.config.clean_rounds {
            return Ok(());
        }
        let params: Vec<f32> = (0..self.num_parameters)
            .map(|_| self.attacker_rng.gen_range(-WEIGHT_SCALE..=WEIGHT_SCALE))
            .collect();
        let (p1, p2) = {
            let tangle = &self.simulation.tangle;
            let walker = RandomWalker::new();
            let start1 = tangle.sample_walk_start(
                self.config.dag.walk_depth.0,
                self.config.dag.walk_depth.1,
                &mut self.attacker_rng,
            );
            let r1 = walker.walk(tangle, start1, &mut UniformBias, &mut self.attacker_rng)?;
            let start2 = tangle.sample_walk_start(
                self.config.dag.walk_depth.0,
                self.config.dag.walk_depth.1,
                &mut self.attacker_rng,
            );
            let r2 = walker.walk(tangle, start2, &mut UniformBias, &mut self.attacker_rng)?;
            (r1.tip, r2.tip)
        };
        let id = self.simulation.tangle.attach_with_meta(
            ModelPayload::new(params),
            &[p1, p2],
            None,
            self.simulation.round() as u32,
        )?;
        self.garbage.insert(id);
        Ok(())
    }

    /// Runs the configured number of rounds.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run(&mut self) -> Result<(), CoreError> {
        while self.simulation.round() < self.config.dag.rounds {
            self.run_round()?;
        }
        Ok(())
    }

    /// Measures how strongly garbage influences the clients' reference
    /// selection right now.
    ///
    /// # Errors
    ///
    /// Propagates model/tangle errors.
    pub fn measure(&mut self) -> Result<GarbageRoundMetrics, CoreError> {
        let evals = self.simulation.reference_evaluations()?;
        let tangle = &self.simulation.tangle;
        let mut cone_counts = Vec::with_capacity(evals.len());
        let mut garbage_tips = 0usize;
        let mut tips_seen = 0usize;
        for (_, _, (tip1, tip2)) in &evals {
            let mut cone = tangle.past_cone(*tip1)?;
            cone.extend(tangle.past_cone(*tip2)?);
            cone_counts.push(cone.intersection(&self.garbage).count() as f64);
            for tip in [tip1, tip2] {
                tips_seen += 1;
                if self.garbage.contains(tip) {
                    garbage_tips += 1;
                }
            }
        }
        let mean = if cone_counts.is_empty() {
            0.0
        } else {
            cone_counts.iter().sum::<f64>() / cone_counts.len() as f64
        };
        Ok(GarbageRoundMetrics {
            round: self.simulation.round(),
            garbage_in_cone: mean,
            garbage_tip_fraction: if tips_seen == 0 {
                0.0
            } else {
                garbage_tips as f64 / tips_seen as f64
            },
        })
    }
}

impl std::fmt::Debug for GarbageAttackScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GarbageAttackScenario")
            .field("round", &self.simulation.round())
            .field("garbage_transactions", &self.garbage.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TipSelector;
    use dagfl_datasets::{fmnist_by_author, FmnistConfig};
    use dagfl_nn::{Dense, Model, Relu, Sequential};
    use std::sync::Arc;

    /// Clean warm-up rounds before the scenario's injections start.
    const CLEAN_ROUNDS: usize = 8;

    /// A *limited-rate* attacker (§4.4): one garbage transaction per round
    /// against ~4–5 benign publications.
    fn scenario(selector: TipSelector) -> GarbageAttackScenario {
        let dataset = fmnist_by_author(&FmnistConfig {
            num_clients: 8,
            samples_per_client: 60,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let factory: ModelFactory = Arc::new(move |rng: &mut StdRng| {
            Box::new(Sequential::new(vec![
                Box::new(Dense::new(rng, features, 16)),
                Box::new(Relu::new()),
                Box::new(Dense::new(rng, 16, 10)),
            ])) as Box<dyn Model>
        });
        GarbageAttackScenario::new(
            GarbageAttackConfig {
                dag: DagConfig {
                    rounds: 18,
                    clients_per_round: 5,
                    local_batches: 4,
                    // Flooding-hardened configuration: the cliff guard
                    // refuses forced steps into flooded regions, and the
                    // best-parent gate never publishes models that only
                    // improved on a contaminated average.
                    walk_stop_margin: Some(0.25),
                    publish_gate: crate::PublishGate::BestParent,
                    ..DagConfig::default()
                }
                .with_tip_selector(selector),
                clean_rounds: CLEAN_ROUNDS,
            },
            dataset,
            factory,
        )
    }

    #[test]
    fn garbage_transactions_are_injected_and_tracked() {
        let mut s = scenario(TipSelector::default());
        s.run().unwrap();
        assert_eq!(s.garbage_transactions().len(), 10);
        // All tracked ids exist in the tangle and are anonymous.
        let tangle = s.simulation().tangle();
        for &id in s.garbage_transactions() {
            assert!(tangle.get(id).unwrap().issuer().is_none());
        }
    }

    #[test]
    fn accuracy_bias_avoids_garbage_better_than_random() {
        let mut accuracy = scenario(TipSelector::default());
        accuracy.run().unwrap();
        let acc_m = accuracy.measure().unwrap();
        let mut random = scenario(TipSelector::Random);
        random.run().unwrap();
        let rand_m = random.measure().unwrap();
        // The paper's claim is comparative: random-weight updates have
        // near-chance accuracy, so the biased walk selects them (much)
        // less often than an unbiased one.
        assert!(
            acc_m.garbage_tip_fraction <= rand_m.garbage_tip_fraction,
            "accuracy bias ({}) selected garbage more than random ({})",
            acc_m.garbage_tip_fraction,
            rand_m.garbage_tip_fraction
        );
    }

    #[test]
    fn garbage_does_not_break_training() {
        let mut s = scenario(TipSelector::default());
        s.run().unwrap();
        let history = s.simulation().history();
        // Per-round accuracy is very noisy at this tiny scale (5 clients
        // x 30 local test samples), so judge the whole attack phase
        // rather than the final round: flooding must not drag training
        // back to chance level (0.1 over 10 classes).
        let attack_phase: Vec<f32> = history[CLEAN_ROUNDS..]
            .iter()
            .map(|m| m.mean_accuracy())
            .collect();
        let mean = attack_phase.iter().sum::<f32>() / attack_phase.len() as f32;
        assert!(mean > 0.15, "training collapsed under flooding: {mean}");
    }

    #[test]
    fn measure_reports_cone_counts() {
        let mut s = scenario(TipSelector::Random);
        s.run().unwrap();
        let m = s.measure().unwrap();
        assert!(m.garbage_in_cone >= 0.0);
        assert_eq!(m.round, 18);
    }

    #[test]
    fn no_injection_during_clean_warmup() {
        let mut s = scenario(TipSelector::default());
        for _ in 0..8 {
            s.run_round().unwrap();
        }
        assert!(s.garbage_transactions().is_empty());
        s.run_round().unwrap();
        assert_eq!(s.garbage_transactions().len(), 1);
    }
}
