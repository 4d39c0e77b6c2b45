//! Poisoning containment (§5.3.4): a flipped-label attack against the
//! Specializing DAG, with the accuracy-aware tip selector compared against
//! the random baseline.
//!
//! A fraction `p` of clients has the labels 3 and 8 swapped in their local
//! data after a clean warm-up. The accuracy-biased walk isolates the
//! attackers: their updates score poorly on benign clients' test data, so
//! benign walks avoid them and the flipped predictions stay contained
//! (Figures 12–14).
//!
//! Both conditions are scenario presets from the shared registry — the
//! same runs `dagfl run --preset poisoning-p0.2` executes — here shrunk
//! with the builder so the example finishes in seconds.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example poisoning_containment
//! ```

use std::error::Error;

use dagfl::{PoisoningConfig, Scenario, ScenarioRunner};

fn shrunk(preset: &str) -> Result<Scenario, Box<dyn Error>> {
    // Start from the registered preset and shorten the attack phases.
    let mut scenario = Scenario::preset(preset)?;
    scenario.attack = Some(PoisoningConfig {
        poison_fraction: 0.25,
        clean_rounds: 10,
        attack_rounds: 10,
        measure_every: 2,
        ..PoisoningConfig::default()
    });
    Ok(scenario)
}

fn main() -> Result<(), Box<dyn Error>> {
    for (label, preset) in [
        ("accuracy tip selector", "poisoning-p0.2"),
        ("random tip selector", "poisoning-random-p0.2"),
    ] {
        println!("== {label} ==");
        let report = ScenarioRunner::new(shrunk(preset)?)?.run()?;
        let poisoning = report.poisoning.expect("attack scenario");
        println!("round  flipped-predictions  approved-poisoned-txs");
        for m in &poisoning.measurements {
            println!(
                "{:>5}  {:>19.3}  {:>21.2}",
                m.round, m.flipped_fraction, m.approved_poisoned
            );
        }
        println!("poisoned clients: {:?}", poisoning.poisoned_clients);
        // Figure 14: are the poisoned clients concentrated in their own
        // inferred communities?
        println!("community  benign  poisoned");
        for (community, benign, poisoned) in &poisoning.distribution {
            println!("{community:>9}  {benign:>6}  {poisoned:>8}");
        }
        println!();
    }
    println!(
        "the accuracy selector contains the attack: poisoned updates are \
         approved mostly by other poisoned clients, so benign predictions \
         flip far less than under the random selector."
    );
    Ok(())
}
