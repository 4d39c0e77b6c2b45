//! Visualising implicit specialization: run a short Specializing-DAG
//! training, print the tangle's structural statistics and export the DAG
//! as Graphviz DOT with cluster-coloured transactions (the paper's
//! Figure 4, generated from a real run).
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example dag_visualization
//! dot -Tsvg dag.dot -o dag.svg   # render, if graphviz is available
//! ```

use std::error::Error;

use dagfl::datasets::{fmnist_clustered, FmnistConfig};
use dagfl::tangle::TangleRead;
use dagfl::{DagConfig, ModelSpec, Simulation};

fn main() -> Result<(), Box<dyn Error>> {
    let dataset = fmnist_clustered(&FmnistConfig {
        num_clients: 9,
        samples_per_client: 60,
        ..FmnistConfig::default()
    });
    let factory = ModelSpec::Mlp { hidden: vec![24] }
        .build_factory(dataset.feature_len(), dataset.num_classes());
    let mut sim = Simulation::new(
        DagConfig {
            rounds: 10,
            clients_per_round: 4,
            local_batches: 5,
            ..DagConfig::default()
        },
        dataset,
        factory,
    );
    sim.run()?;

    let clusters = sim.dataset().cluster_labels();
    let tangle = sim.tangle();

    // Structural statistics of the grown DAG.
    let stats = tangle.stats();
    println!("tangle after {} rounds:", sim.round());
    println!("  transactions: {}", stats.transactions);
    println!("  tips:         {}", stats.tips);
    println!("  edges:        {}", stats.edges);
    println!("  max depth:    {}", stats.max_depth);
    println!("  mean parents: {:.2}", stats.mean_parents);

    // Export with one colour per ground-truth cluster; rendering shows
    // the same-coloured transactions chaining together (Figure 4).
    const COLORS: [&str; 3] = ["lightblue", "lightsalmon", "palegreen"];
    let dot = tangle.to_dot(|_, issuer| match issuer {
        Some(issuer) => format!(
            "style=filled fillcolor={} ",
            COLORS[clusters[issuer as usize] % COLORS.len()]
        ),
        None => "shape=doublecircle ".to_string(),
    });
    std::fs::write("dag.dot", &dot)?;
    println!("\nwrote dag.dot ({} bytes)", dot.len());
    println!("render with: dot -Tsvg dag.dot -o dag.svg");
    Ok(())
}
