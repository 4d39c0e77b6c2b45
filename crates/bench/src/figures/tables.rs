//! Tables 1 and 2.

use dagfl_scenario::{Scale, Scenario};

use crate::output::{f, int};
use crate::Session;

/// The paper's three datasets and the preset of each one's Table 1 run.
const TABLE1_PRESETS: [(&str, &str); 3] = [
    ("FMNIST-clustered", "table1-fmnist"),
    ("Poets", "table1-poets"),
    ("CIFAR-100", "table1-cifar"),
];

/// Table 1, printed from the full-scale Table 1 presets — the
/// configurations the paper-scale runs read, at every session scale.
pub fn table1(session: &Session) {
    let rows: Vec<Vec<String>> = TABLE1_PRESETS
        .iter()
        .map(|(name, preset)| {
            let scenario = Scenario::preset_at(preset, Scale::Full).expect("a Table 1 preset");
            let dag = scenario.execution.dag();
            vec![
                name.to_string(),
                int(dag.rounds),
                int(dag.clients_per_round),
                int(dag.local_epochs),
                int(dag.local_batches),
                int(dag.batch_size),
                format!("SGD({})", dag.learning_rate),
            ]
        })
        .collect();
    session.emit(
        "table1_hyperparams",
        "dataset,training_rounds,clients_per_round,local_epochs,local_batches,batch_size,optimizer",
        &rows,
    );
}

/// Table 2. The three runs are exactly the Table 1 scenario presets'
/// simulations, shared with Figure 9; the simulation carries the dataset,
/// so this is a pure reshaping step.
pub fn table2(session: &Session) {
    let rows: Vec<Vec<String>> = TABLE1_PRESETS
        .iter()
        .map(|(label, preset)| {
            let sim = session.simulation(preset);
            vec![
                label.to_string(),
                int(sim.dataset().clusters().len()),
                f(sim.dataset().base_pureness()),
                f(sim.specialization_metrics().approval_pureness),
            ]
        })
        .collect();
    session.emit(
        "table2_pureness",
        "dataset,clusters,base_pureness,pureness",
        &rows,
    );
}
