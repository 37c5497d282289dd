//! Table II — properties of the (simulated) real-world datasets.
//!
//! Prints N, M and CSR memory for every dataset at the harness scale, next
//! to the paper's reported values, plus the skew statistics that the
//! substitution argument rests on (max degree, exact clustering).

use light_bench::{dataset, fmt_count, scale, TablePrinter};
use light_graph::datasets::Dataset;
use light_graph::stats::{clustering_coefficient, compute_stats, count_triangles};

fn main() {
    let s = scale(1.0);
    println!("Table II: properties of simulated datasets (scale {s})");
    println!("paper columns show the original graphs' N/M in millions\n");

    let mut t = TablePrinter::new(&[
        "dataset",
        "N",
        "M",
        "memory(MB)",
        "d_max",
        "avg_d",
        "clustering",
        "paper N(M)",
        "paper M(M)",
    ]);
    for d in Dataset::ALL {
        let g = dataset(d, s);
        let st = compute_stats(&g);
        // The table reports the exact coefficient, not the planner's sample.
        let clustering = clustering_coefficient(count_triangles(&g), st.wedges);
        let (pn, pm) = d.paper_scale_millions();
        t.row(&[
            d.name().to_string(),
            fmt_count(st.num_vertices as u64),
            fmt_count(st.num_edges as u64),
            format!("{:.2}", g.memory_bytes() as f64 / (1 << 20) as f64),
            fmt_count(st.max_degree as u64),
            format!("{:.1}", st.avg_degree),
            format!("{clustering:.4}"),
            format!("{pn:.2}"),
            format!("{pm:.2}"),
        ]);
    }
    t.print();
    println!("\nShape check vs paper: dataset size ordering yt < eu < lj < ot < uk < fs,");
    println!("web graphs (eu, uk) show the highest max-degree skew.");
}
