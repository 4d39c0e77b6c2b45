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

use dagfl::scenario::{Scale, Scenario, ScenarioRunner};

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
