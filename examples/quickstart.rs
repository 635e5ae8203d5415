//! Quickstart: regenerate the paper's Figure 1 and Table II at tiny
//! scale and print all three metric groups.
//!
//! ```sh
//! cargo run --release -p dlbench-examples --bin quickstart
//! ```

use dlbench_core::{BenchmarkRunner, ExperimentId};
use dlbench_frameworks::Scale;

fn main() {
    // Tiny scale keeps this example under ~1 min; for benchmark-grade
    // numbers run `dlbench run fig_1 table_ii --scale small`.
    let mut runner = BenchmarkRunner::new(Scale::Tiny, 42);

    println!("DLBench quickstart — regenerating the paper's Figure 1 (MNIST, own defaults)\n");
    let report = ExperimentId::Fig1.run(&mut runner);
    println!("{}", report.render());

    println!("Static configuration database (paper Table II):\n");
    println!("{}", ExperimentId::TableII.run(&mut runner).render());

    println!(
        "Trained {} distinct cells. Timing columns are simulated (paper-scale schedule on the \
         modelled Xeon E5-1620 / GTX 1080 Ti); accuracy is measured by really training the \
         scaled configuration.",
        runner.trained_cells()
    );
}
