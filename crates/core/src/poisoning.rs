//! Flipped-label poisoning scenarios (§5.3.4).
//!
//! The experiment: train clean for 100 rounds, then flip labels 3 ↔ 8 in
//! the train *and* test data of a fraction `p` of clients, continue for
//! another 100 rounds and measure per round:
//!
//! * the fraction of class-3/8 test samples mispredicted as the other
//!   class using each client's walk-selected reference model (Figure 12),
//! * the average number of poisoned transactions directly or indirectly
//!   approved by the reference (Figure 13),
//! * and, at the end, how poisoned clients distribute over the Louvain
//!   communities (Figure 14).

use rand::rngs::StdRng;
use rand::SeedableRng;

use dagfl_datasets::{flip_labels, FederatedDataset, PoisonReport};
use dagfl_tangle::TangleRead;

use crate::config::{key, KeyVisitor, Range, RangeCheck, Slot};
use crate::{CoreError, DagConfig, ModelFactory, Simulation};

/// Configuration of a poisoning experiment: the `[attack]` section of
/// a scenario file, read and written as it stands. The DAG
/// configuration is given separately to [`PoisoningScenario::new`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoisoningConfig {
    /// Rounds of clean training before the attack (the paper uses 100).
    pub clean_rounds: usize,
    /// Rounds after the labels are flipped (the paper uses another 100).
    pub attack_rounds: usize,
    /// Fraction `p` of clients whose labels are flipped.
    pub poison_fraction: f64,
    /// First flipped class (the paper uses 3).
    pub class_a: usize,
    /// Second flipped class (the paper uses 8).
    pub class_b: usize,
    /// Evaluate the poisoning metrics every this many attack rounds
    /// (1 = every round).
    pub measure_every: usize,
}

impl Default for PoisoningConfig {
    fn default() -> Self {
        Self {
            clean_rounds: 100,
            attack_rounds: 100,
            poison_fraction: 0.2,
            class_a: 3,
            class_b: 8,
            measure_every: 5,
        }
    }
}

impl PoisoningConfig {
    /// Checks the attack against a dataset of `num_classes` classes: the
    /// ranges of [`PoisoningConfig::keys`] (a fraction in `[0, 1]`, at
    /// least one attack round and measurement interval), then two
    /// distinct flip classes below `num_classes`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidField`] naming the first offending
    /// field by its scenario-file key (`attack.fraction`).
    pub fn validate(&self, num_classes: usize) -> Result<(), CoreError> {
        let mut attack = *self;
        RangeCheck::run(|check| attack.keys(check))?;
        for (name, class) in [
            ("attack.class_a", self.class_a),
            ("attack.class_b", self.class_b),
        ] {
            if class >= num_classes {
                return Err(CoreError::invalid_field(
                    name,
                    class,
                    "must be below the dataset's class count",
                ));
            }
        }
        if self.class_a == self.class_b {
            return Err(CoreError::invalid_field(
                "attack.class_b",
                self.class_b,
                "must be distinct from attack.class_a",
            ));
        }
        Ok(())
    }

    /// Visits the `[attack]` keys in scenario-file order (`fraction` is
    /// the field `poison_fraction`).
    ///
    /// # Errors
    ///
    /// Returns the visitor's first error.
    pub fn keys<V: KeyVisitor>(&mut self, v: &mut V) -> Result<(), V::Error> {
        use Range::*;
        use Slot::*;
        let fraction = key("fraction", Fraction).field("attack.fraction");
        v.key(fraction, F64(&mut self.poison_fraction))?;
        v.key(key("clean_rounds", Any), Usize(&mut self.clean_rounds))?;
        let rounds = key("attack_rounds", AtLeastOne).field("attack.attack_rounds");
        v.key(rounds, Usize(&mut self.attack_rounds))?;
        v.key(key("class_a", Any), Usize(&mut self.class_a))?;
        v.key(key("class_b", Any), Usize(&mut self.class_b))?;
        let every = key("measure_every", AtLeastOne).field("attack.measure_every");
        v.key(every, Usize(&mut self.measure_every))
    }
}

/// Poisoning metrics measured after one attack round.
#[derive(Debug, Clone, PartialEq)]
pub struct PoisonRoundMetrics {
    /// Global round index at measurement time.
    pub round: usize,
    /// Mean fraction of class-3/8 test samples predicted as the opposite
    /// class, over all clients with such samples (Figure 12's
    /// "flipped predictions").
    pub flipped_fraction: f64,
    /// Mean number of poisoned transactions in the past cone of a client's
    /// reference tips (Figure 13).
    pub approved_poisoned: f64,
}

/// Orchestrates a flipped-label attack on a [`Simulation`].
pub struct PoisoningScenario {
    config: PoisoningConfig,
    simulation: Simulation,
    report: Option<PoisonReport>,
}

impl PoisoningScenario {
    /// Creates a scenario over the given dataset and model factory. The
    /// attack's rounds replace `dag.rounds`: `clean_rounds +
    /// attack_rounds` rounds are run.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Simulation::new`] or if the
    /// attack fails [`PoisoningConfig::validate`] for the dataset.
    pub fn new(
        mut dag: DagConfig,
        config: PoisoningConfig,
        dataset: FederatedDataset,
        factory: ModelFactory,
    ) -> Self {
        if let Err(e) = config.validate(dataset.num_classes()) {
            panic!("invalid poisoning attack: {e}");
        }
        dag.rounds = config.clean_rounds + config.attack_rounds;
        let simulation = Simulation::new(dag, dataset, factory);
        Self {
            config,
            simulation,
            report: None,
        }
    }

    /// The underlying simulation (for inspecting the tangle or metrics).
    pub fn simulation(&self) -> &Simulation {
        &self.simulation
    }

    /// Which clients were poisoned (available after the attack started).
    pub fn report(&self) -> Option<&PoisonReport> {
        self.report.as_ref()
    }

    /// Runs the full scenario and returns the per-measurement metrics of
    /// the attack phase.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run(&mut self) -> Result<Vec<PoisonRoundMetrics>, CoreError> {
        for _ in 0..self.config.clean_rounds {
            self.simulation.run_round()?;
        }
        self.start_attack();
        let mut measurements = Vec::new();
        for attack_round in 0..self.config.attack_rounds {
            self.simulation.run_round()?;
            if (attack_round + 1) % self.config.measure_every == 0 {
                measurements.push(self.measure()?);
            }
        }
        Ok(measurements)
    }

    /// Flips the labels now (used by [`PoisoningScenario::run`]; exposed
    /// for custom schedules).
    pub fn start_attack(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.simulation.config.seed ^ 0x0BAD_C0DE);
        let report = flip_labels(
            &mut self.simulation.dataset,
            self.config.class_a,
            self.config.class_b,
            self.config.poison_fraction,
            &mut rng,
        );
        // Cached evaluations refer to the pre-attack labels: bump every
        // client's cache generation so they can never be served again.
        self.simulation.clear_caches();
        self.report = Some(report);
    }

    /// Measures the Figure 12/13 quantities against the current tangle.
    ///
    /// # Errors
    ///
    /// Propagates model/tangle errors.
    pub fn measure(&mut self) -> Result<PoisonRoundMetrics, CoreError> {
        let (class_a, class_b) = (self.config.class_a, self.config.class_b);
        let poisoned: Vec<u32> = self
            .report
            .as_ref()
            .map(|r| r.poisoned_clients.clone())
            .unwrap_or_default();
        let config = self.simulation.config;
        let tangle = &self.simulation.tangle;
        let scratch = &mut self.simulation.scratch[0];
        let mut flip_fractions = Vec::new();
        let mut approved_counts = Vec::new();
        for idx in 0..self.simulation.dataset.num_clients() {
            let data = &self.simulation.dataset.clients()[idx];
            let client = &mut self.simulation.clients[idx];
            let (params, (tip1, tip2)) = client.reference_model(scratch, tangle, data, &config)?;
            // Poisoned transactions in the union of the reference past
            // cones.
            let mut cone = tangle.past_cone(tip1)?;
            cone.extend(tangle.past_cone(tip2)?);
            let poisoned_in_cone = cone
                .iter()
                .filter(|&&id| {
                    tangle
                        .issuer_of(id)
                        .ok()
                        .flatten()
                        .is_some_and(|issuer| poisoned.contains(&issuer))
                })
                .count();
            approved_counts.push(poisoned_in_cone as f64);
            // Flipped predictions on the client's class-a/b test samples.
            // Labels are the *clean* ground truth: for poisoned clients the
            // stored labels were flipped, so flip them back for
            // measurement.
            let predictions = scratch.predict_params(&params, data.test_x())?;
            let is_poisoned = poisoned.contains(&(idx as u32));
            let mut relevant = 0usize;
            let mut flipped = 0usize;
            for (&stored, &pred) in data.test_y().iter().zip(&predictions) {
                let truth = if is_poisoned && (stored == class_a || stored == class_b) {
                    // Undo the attack's flip to recover the clean label.
                    if stored == class_a {
                        class_b
                    } else {
                        class_a
                    }
                } else {
                    stored
                };
                if truth == class_a || truth == class_b {
                    relevant += 1;
                    let other = if truth == class_a { class_b } else { class_a };
                    if pred == other {
                        flipped += 1;
                    }
                }
            }
            if relevant > 0 {
                flip_fractions.push(flipped as f64 / relevant as f64);
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        Ok(PoisonRoundMetrics {
            round: self.simulation.round(),
            flipped_fraction: mean(&flip_fractions),
            approved_poisoned: mean(&approved_counts),
        })
    }

    /// The Figure 14 analysis: for each Louvain community of the final
    /// client graph, how many benign and poisoned clients it contains.
    /// Returns `(community, benign, poisoned)` rows sorted by community.
    pub fn poisoned_cluster_distribution(&self) -> Vec<(usize, usize, usize)> {
        let metrics = self.simulation.specialization_metrics();
        let poisoned: Vec<u32> = self
            .report
            .as_ref()
            .map(|r| r.poisoned_clients.clone())
            .unwrap_or_default();
        let mut rows: std::collections::BTreeMap<usize, (usize, usize)> =
            std::collections::BTreeMap::new();
        for (client, &community) in metrics.partition.iter().enumerate() {
            let entry = rows.entry(community).or_insert((0, 0));
            if poisoned.contains(&(client as u32)) {
                entry.1 += 1;
            } else {
                entry.0 += 1;
            }
        }
        rows.into_iter()
            .map(|(community, (benign, bad))| (community, benign, bad))
            .collect()
    }
}

impl std::fmt::Debug for PoisoningScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoisoningScenario")
            .field("round", &self.simulation.round())
            .field("attack_started", &self.report.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagfl_datasets::{fmnist_by_author, FmnistConfig};
    use dagfl_nn::{Dense, Model, Relu, Sequential};
    use std::sync::Arc;

    use crate::ModelFactory;

    fn factory(features: usize) -> ModelFactory {
        Arc::new(move |rng: &mut StdRng| {
            Box::new(Sequential::new(vec![
                Box::new(Dense::new(rng, features, 16)),
                Box::new(Relu::new()),
                Box::new(Dense::new(rng, 16, 10)),
            ])) as Box<dyn Model>
        })
    }

    fn small_scenario(poison_fraction: f64) -> PoisoningScenario {
        let dataset = fmnist_by_author(&FmnistConfig {
            num_clients: 6,
            samples_per_client: 60,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let dag = DagConfig {
            clients_per_round: 3,
            local_batches: 3,
            ..DagConfig::default()
        };
        let config = PoisoningConfig {
            clean_rounds: 3,
            attack_rounds: 4,
            poison_fraction,
            measure_every: 2,
            ..PoisoningConfig::default()
        };
        PoisoningScenario::new(dag, config, dataset, factory(features))
    }

    #[test]
    fn attack_validation_names_the_bad_field_by_its_file_key() {
        let attack = |edit: fn(&mut PoisoningConfig)| {
            let mut attack = PoisoningConfig::default();
            edit(&mut attack);
            attack
        };
        for (attack, key) in [
            (attack(|a| a.poison_fraction = 1.5), "attack.fraction"),
            (attack(|a| a.poison_fraction = f64::NAN), "attack.fraction"),
            (attack(|a| a.attack_rounds = 0), "attack.attack_rounds"),
            (attack(|a| a.measure_every = 0), "attack.measure_every"),
            (attack(|a| a.class_a = 10), "attack.class_a"),
            (attack(|a| a.class_b = 10), "attack.class_b"),
            (attack(|a| a.class_b = a.class_a), "attack.class_b"),
        ] {
            match attack.validate(10) {
                Err(CoreError::InvalidField { field, .. }) => assert_eq!(field, key, "{attack:?}"),
                other => panic!("{attack:?}: expected a field error, got {other:?}"),
            }
        }
        assert!(attack(|a| a.clean_rounds = 0).validate(10).is_ok());
    }

    #[test]
    fn scenario_runs_and_measures() {
        let mut scenario = small_scenario(0.3);
        let measurements = scenario.run().unwrap();
        assert_eq!(measurements.len(), 2);
        let report = scenario.report().unwrap();
        assert_eq!(report.poisoned_clients.len(), 2); // round(0.3 * 6)
        for m in &measurements {
            assert!((0.0..=1.0).contains(&m.flipped_fraction));
            assert!(m.approved_poisoned >= 0.0);
        }
    }

    #[test]
    fn zero_fraction_poisons_nothing() {
        let mut scenario = small_scenario(0.0);
        let measurements = scenario.run().unwrap();
        assert!(scenario.report().unwrap().poisoned_clients.is_empty());
        for m in &measurements {
            assert_eq!(m.approved_poisoned, 0.0);
        }
    }

    #[test]
    fn cluster_distribution_accounts_for_everyone() {
        let mut scenario = small_scenario(0.3);
        scenario.run().unwrap();
        let rows = scenario.poisoned_cluster_distribution();
        let total: usize = rows.iter().map(|(_, b, p)| b + p).sum();
        assert_eq!(total, 6);
        let poisoned: usize = rows.iter().map(|(_, _, p)| p).sum();
        assert_eq!(poisoned, 2);
    }

    #[test]
    fn measure_before_attack_reports_zero_poison() {
        let mut scenario = small_scenario(0.3);
        // Run a couple of clean rounds manually and measure: no poisons
        // exist yet.
        scenario.simulation.run_round().unwrap();
        let m = scenario.measure().unwrap();
        assert_eq!(m.approved_poisoned, 0.0);
    }

    #[test]
    fn label_flip_invalidates_evaluation_caches() {
        // Every client is active every round so the caches are warm when
        // the attack starts.
        let dataset = fmnist_by_author(&FmnistConfig {
            num_clients: 4,
            samples_per_client: 60,
            ..FmnistConfig::default()
        });
        let features = dataset.feature_len();
        let dag = DagConfig {
            clients_per_round: 4,
            local_batches: 6,
            ..DagConfig::default()
        };
        let config = PoisoningConfig {
            clean_rounds: 4,
            attack_rounds: 1,
            poison_fraction: 0.5,
            measure_every: 1,
            ..PoisoningConfig::default()
        };
        let mut scenario = PoisoningScenario::new(dag, config, dataset, factory(features));
        for _ in 0..config.clean_rounds {
            scenario.simulation.run_round().unwrap();
        }
        let warm = scenario.simulation.history().last().unwrap().clone();
        assert!(
            warm.cached_evaluations > 0,
            "warm-cache rounds must serve cache hits before the attack"
        );
        scenario.start_attack();
        let post_attack = scenario.simulation.run_round().unwrap();
        // The generation bump forces the walks over the *existing* tangle
        // to re-evaluate: the first post-attack round must perform at
        // least as many fresh evaluations as candidate lookups it would
        // otherwise have served from the cache.
        assert!(
            post_attack.fresh_evaluations > warm.fresh_evaluations,
            "label flip must force re-evaluation: {} fresh after attack vs {} before",
            post_attack.fresh_evaluations,
            warm.fresh_evaluations
        );
    }
}
