//! Cross-commit golden digests: a numeric refactor must leave every
//! transaction of these runs bit-identical.
//!
//! The benchmark's digest checks compare runs of *one* build and the
//! smoke golden prints four decimals, so neither can tell that a change
//! to the training step moved a low-order bit. These constants were
//! recorded on the commit *before* the dead-gradient cut and the single
//! SGD update loop landed, and cover one preset per model family and
//! execution mode: the FMNIST and CIFAR MLPs in rounds mode, the GRU
//! char-rnn, and the MLP in async mode. When a change is *meant* to
//! alter the numbers, copy the new values from the failure messages and
//! say so in CHANGES.md.
//!
//! The `chaos-smoke` and `poisoning-p0.2` rows pin the only presets with
//! a `[faults]` or an `[attack]` section; their constants were recorded
//! on the commit before those sections read straight into `FaultPlan`
//! and `PoisoningConfig`.
//!
//! The replica row pins `Replica::digest` the same way: before it, replica
//! digests were only compared with each other, so a hash change that
//! moved every replica alike went unseen. Its constants were recorded on
//! the commit before the interleaved FNV-1a kernel landed.

use dagfl::scenario::{ExecutionSpec, Scale, Scenario, ScenarioRunner};
use dagfl::AsyncSimulation;

fn assert_quick_digest(preset: &str, recorded: u64) {
    let scenario = Scenario::preset_at(preset, Scale::Quick).expect("known preset");
    let report = ScenarioRunner::new(scenario)
        .expect("preset validates")
        .run()
        .expect("preset runs");
    assert_eq!(
        report.tangle_digest, recorded,
        "{preset}: tangle digest is {:#018x}, recorded {recorded:#018x}",
        report.tangle_digest
    );
}

#[test]
fn smoke_digest_is_unchanged() {
    assert_quick_digest("smoke", 0xd4b6_a783_3250_c672);
}

#[test]
fn table1_fmnist_digest_is_unchanged() {
    assert_quick_digest("table1-fmnist", 0xed38_6ce3_d0a8_1e29);
}

#[test]
fn table1_poets_digest_is_unchanged() {
    assert_quick_digest("table1-poets", 0xe3b5_7a87_901e_f5b6);
}

#[test]
fn table1_cifar_digest_is_unchanged() {
    assert_quick_digest("table1-cifar", 0x5b7f_b25c_840e_71c6);
}

#[test]
fn async_delay2_digest_is_unchanged() {
    assert_quick_digest("async-delay2", 0xc131_8f06_e63f_535c);
}

#[test]
fn chaos_smoke_digest_is_unchanged() {
    assert_quick_digest("chaos-smoke", 0x4d6f_9dca_0ec9_e330);
}

#[test]
fn poisoning_p0_2_digest_is_unchanged() {
    assert_quick_digest("poisoning-p0.2", 0xb1b8_35be_22e4_7005);
}

#[test]
fn async_delay2_replica_digests_are_unchanged() {
    let scenario = Scenario::preset_at("async-delay2", Scale::Quick).expect("known preset");
    let ExecutionSpec::Async { config, .. } = scenario.execution else {
        panic!("async-delay2 runs in async mode");
    };
    let dataset = scenario.dataset.build();
    let factory = scenario.build_factory(&dataset);
    let mut sim =
        AsyncSimulation::try_new_with_faults(config, dataset, factory, Default::default())
            .expect("preset validates");
    sim.run().expect("preset runs");
    let first = sim.replica_digest(0);
    let sum = (0..sim.dataset().num_clients()).fold(0u64, |sum, client| {
        sum.wrapping_add(sim.replica_digest(client))
    });
    let recorded = (0xf433_7d36_e0cb_a1ed, 0x598e_c6f0_e5c2_b603);
    assert_eq!(
        (first, sum),
        recorded,
        "async-delay2: replica 0 digest {first:#018x}, sum over clients {sum:#018x}"
    );
}
