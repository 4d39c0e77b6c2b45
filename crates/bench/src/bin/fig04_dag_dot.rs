//! Figure 2/4 companion: exports the DAG of a short FMNIST-clustered run
//! as Graphviz DOT, with transactions coloured by their issuer's
//! ground-truth cluster — rendering it shows the cluster formation of
//! Figure 4.
//!
//! ```sh
//! cargo run --release -p dagfl-bench --bin fig04_dag_dot
//! dot -Tsvg results/fig04_dag.dot -o dag.svg   # if graphviz is installed
//! ```

use std::fs;

use dagfl_bench::experiments::{run_dag, table1, task};
use dagfl_bench::output::results_dir;
use dagfl_bench::Scale;

/// Distinct fill colours per ground-truth cluster.
const COLORS: [&str; 6] = [
    "lightblue",
    "lightsalmon",
    "palegreen",
    "plum",
    "khaki",
    "lightcyan",
];

fn main() {
    let (mut spec, dataset, factory) = task(&table1("fmnist", Scale::from_env()));
    // A short run keeps the graph small enough to render readably.
    spec.rounds = spec.rounds.min(12);
    let sim = run_dag(spec, dataset, factory);
    let clusters = sim.dataset().cluster_labels();
    let tangle = sim.tangle().to_tangle();
    let dot = tangle.to_dot(|tx| match tx.issuer() {
        Some(issuer) => {
            let cluster = clusters[issuer as usize];
            format!("style=filled fillcolor={} ", COLORS[cluster % COLORS.len()])
        }
        None => "shape=doublecircle ".to_string(),
    });
    let path = results_dir().join("fig04_dag.dot");
    fs::create_dir_all(results_dir()).expect("results dir");
    fs::write(&path, &dot).expect("write dot file");
    let stats = tangle.stats();
    println!(
        "wrote {} ({} transactions, {} tips, depth {})",
        path.display(),
        stats.transactions,
        stats.tips,
        stats.max_depth
    );
    println!("render with: dot -Tsvg {} -o dag.svg", path.display());
}
