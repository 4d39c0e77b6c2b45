//! Tables 1 and 2.

use dagfl_core::Hyperparameters;

use crate::output::{f, int};
use crate::Session;

/// Table 1, printed from [`Hyperparameters`] — the same values the
/// simulation configs are built from, so the table can never drift from
/// the code.
pub fn table1(session: &Session) {
    let columns = [
        ("FMNIST-clustered", Hyperparameters::fmnist()),
        ("Poets", Hyperparameters::poets()),
        ("CIFAR-100", Hyperparameters::cifar()),
    ];
    let rows: Vec<Vec<String>> = columns
        .iter()
        .map(|(name, h)| {
            vec![
                name.to_string(),
                int(h.rounds),
                int(h.clients_per_round),
                int(h.local_epochs),
                int(h.local_batches),
                int(h.batch_size),
                format!("SGD({})", h.learning_rate),
            ]
        })
        .collect();
    session.emit(
        "table1_hyperparams",
        "dataset,training_rounds,clients_per_round,local_epochs,local_batches,batch_size,optimizer",
        &rows,
    );
}

/// Table 2. The three runs are exactly the Table 1 scenario presets; the
/// report carries the dataset facts, so this is a pure reshaping step.
pub fn table2(session: &Session) {
    let rows: Vec<Vec<String>> = [
        ("FMNIST-clustered", "table1-fmnist"),
        ("Poets", "table1-poets"),
        ("CIFAR-100", "table1-cifar"),
    ]
    .iter()
    .map(|(label, preset)| {
        let report = &session.report(preset).report;
        vec![
            label.to_string(),
            int(report.dataset.clusters),
            f(report.dataset.base_pureness),
            f(report.specialization.approval_pureness),
        ]
    })
    .collect();
    session.emit(
        "table2_pureness",
        "dataset,clusters,base_pureness,pureness",
        &rows,
    );
}
