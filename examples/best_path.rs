//! Runs the paper's evaluation workload — the Best-Path query — on a single
//! random topology under all three system variants (NDLog, SeNDLog,
//! SeNDLogProv) and prints the per-variant cost, i.e. one column of Figures 3
//! and 4.
//!
//! ```text
//! cargo run --release --example best_path [N]
//! ```

use pasn::prelude::*;
use pasn::workload;

fn main() {
    let n: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);

    println!("== Best-Path query over a random topology (N = {n}, avg out-degree 3) ==\n");
    let topology = workload::evaluation_topology(n, 0x1cde);
    println!(
        "topology: {} nodes, {} links, average out-degree {:.2}\n",
        topology.node_count(),
        topology.link_count(),
        topology.average_out_degree()
    );

    let mut baseline: Option<RunMetrics> = None;
    for variant in SystemVariant::ALL {
        let mut network = SecureNetwork::builder()
            .program(pasn::programs::best_path())
            .topology(topology.clone())
            .config(variant.config())
            .build()
            .expect("program compiles");
        let metrics = network
            .engine_mut()
            .run_to_fixpoint()
            .expect("fixpoint reached");

        print!(
            "{:<12} completion {:>8.2} s   bandwidth {:>8.3} MB   msgs {:>7}   sigs {:>7}",
            variant.name(),
            metrics.completion_secs(),
            metrics.megabytes(),
            metrics.messages,
            metrics.signatures,
        );
        if let Some(base) = &baseline {
            let (t, b) = metrics.overhead_vs(base);
            print!(
                "   (+{:.0}% time, +{:.0}% bytes vs NDLog)",
                t * 100.0,
                b * 100.0
            );
        } else {
            baseline = Some(metrics.clone());
        }
        println!();

        if variant == SystemVariant::SeNDLogProv {
            // Show a couple of best paths with their condensed provenance.
            println!("\n  sample best paths at n0 (with condensed provenance):");
            let mut rows = network.engine().query(&Value::Addr(0), "bestPath");
            rows.sort_by_key(|(t, _)| t.values[1].clone());
            for (tuple, meta) in rows.iter().take(5) {
                println!(
                    "    {}  {}",
                    tuple,
                    meta.tag.render(network.engine().var_table())
                );
            }
        }
    }

    println!(
        "\nThe SeNDLog and SeNDLogProv rows reproduce the overhead pattern of the paper's\n\
         Figures 3 and 4: authentication and provenance cost extra time and bandwidth, and\n\
         the relative overhead shrinks as N grows (run with a larger N to see it fall)."
    );
}
