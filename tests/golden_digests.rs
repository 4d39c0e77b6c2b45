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
//! a `[faults]` or an `[attack]` section.
//!
//! The replica row pins `Replica::digest` the same way: before it, replica
//! digests were only compared with each other, so a hash change that
//! moved every replica alike went unseen.
//!
//! Every constant here was re-recorded once, when the weights hash went
//! from byte-wise FNV-1a to eight interleaved word-wide lanes. The runs
//! did not move: a build that kept the byte-wise hash, retired payloads
//! included, still printed the constants recorded before.

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
    assert_quick_digest("smoke", 0xe614_57c2_9db5_2758);
}

#[test]
fn table1_fmnist_digest_is_unchanged() {
    assert_quick_digest("table1-fmnist", 0x9eba_3fce_9928_ca6d);
}

#[test]
fn table1_poets_digest_is_unchanged() {
    assert_quick_digest("table1-poets", 0x33f2_5ceb_f681_1d68);
}

#[test]
fn table1_cifar_digest_is_unchanged() {
    assert_quick_digest("table1-cifar", 0x08d9_fe8f_1248_fee6);
}

#[test]
fn async_delay2_digest_is_unchanged() {
    assert_quick_digest("async-delay2", 0xf715_b7c1_4a1f_21cf);
}

#[test]
fn chaos_smoke_digest_is_unchanged() {
    assert_quick_digest("chaos-smoke", 0x212b_a75f_66a6_09a6);
}

#[test]
fn poisoning_p0_2_digest_is_unchanged() {
    assert_quick_digest("poisoning-p0.2", 0x8be3_bcd8_ac70_7892);
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
    let recorded = (0x3130_2d61_c508_2a51, 0x26a8_7f9a_47e7_4c40);
    assert_eq!(
        (first, sum),
        recorded,
        "async-delay2: replica 0 digest {first:#018x}, sum over clients {sum:#018x}"
    );
}
