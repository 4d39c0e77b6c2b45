//! Reproduces the paper's evaluation: every table and figure of the
//! registry, or the ones named, writing CSVs into the results directory.
//!
//! ```sh
//! cargo run --release -p dagfl-bench --bin reproduce                          # everything, quick scale
//! cargo run --release -p dagfl-bench --bin reproduce -- fig06_alpha_accuracy  # one figure
//! DAGFL_FULL=1 cargo run --release -p dagfl-bench --bin reproduce             # paper scale
//! ```

use std::process::ExitCode;
use std::time::Instant;

use dagfl_bench::output::results_dir;
use dagfl_bench::{registry, Scale, Session};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let figures = match registry::select(&names) {
        Ok(figures) => figures,
        Err(unknown) => {
            eprintln!("unknown experiment `{unknown}`; the registry holds:");
            eprint!("{}", registry::index());
            return ExitCode::from(2);
        }
    };
    let scale = Scale::from_env();
    match registry::validate(&figures, scale) {
        Ok(checked) => println!("validated {checked} presets at {scale:?} scale\n"),
        Err(failures) => {
            for failure in &failures {
                eprintln!("{failure}");
            }
            eprintln!("{} invalid presets; aborting", failures.len());
            return ExitCode::FAILURE;
        }
    }
    let session = Session::new(scale, results_dir(std::env::var("DAGFL_RESULTS").ok()));
    let started = Instant::now();
    for (row, figure) in figures.iter().enumerate() {
        println!("=== running {} ===", figure.name);
        let row_started = Instant::now();
        let files = session.run(figure);
        session.release(&figures[row + 1..]);
        println!(
            "=== {} finished in {:.1?}, {} files written ===\n",
            figure.name,
            row_started.elapsed(),
            files.len()
        );
    }
    println!(
        "all {} experiments completed in {:.1?}",
        figures.len(),
        started.elapsed()
    );
    ExitCode::SUCCESS
}
