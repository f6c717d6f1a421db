//! The paper's E-commerce workload (Table 1, workload E): click-through
//! rate prediction on the synthetic Avazu stream, comparing the NeurDB
//! streaming path against the PostgreSQL+P batch-export baseline —
//! a miniature of Fig. 6(a).
//!
//! ```sh
//! cargo run --release --example ecommerce_ctr
//! ```

use neurdb_core::{run_neurdb, run_pgp, AnalyticsWorkload, RowSource};
use neurdb_engine::AiEngine;

fn main() {
    let n_batches = 40;
    let batch_size = 1024;
    let window = 16;
    println!(
        "workload E: PREDICT VALUE OF click_rate FROM avazu TRAIN ON *  \
         ({n_batches} batches x {batch_size} rows)"
    );

    let engine = AiEngine::new();
    let src = RowSource {
        workload: AnalyticsWorkload::Ecommerce,
        cluster: 0,
        n_batches,
        batch_size,
        seed: 7,
    };

    let neurdb = run_neurdb(
        &engine,
        AnalyticsWorkload::Ecommerce,
        src.clone(),
        window,
        5e-3,
    );
    println!(
        "NeurDB (streaming):     latency {:>7.3}s  throughput {:>9.0} samples/s  \
         (compute {:.3}s, stream-wait {:.3}s)",
        neurdb.total_seconds,
        neurdb.throughput(),
        neurdb.compute_seconds,
        neurdb.wait_seconds,
    );

    let pgp = run_pgp(&engine, AnalyticsWorkload::Ecommerce, src, 5e-3);
    println!(
        "PostgreSQL+P (export):  latency {:>7.3}s  throughput {:>9.0} samples/s  \
         (compute {:.3}s, export {:.3}s)",
        pgp.total_seconds,
        pgp.throughput(),
        pgp.compute_seconds,
        pgp.wait_seconds,
    );

    println!(
        "\nNeurDB: {:.1}% lower end-to-end latency, {:.2}x higher training throughput",
        100.0 * (1.0 - neurdb.total_seconds / pgp.total_seconds),
        neurdb.throughput() / pgp.throughput(),
    );
    println!(
        "final training loss: neurdb {:.4} vs pg+p {:.4} (same data, same model)",
        neurdb.losses.last().unwrap(),
        pgp.losses.last().unwrap()
    );
}
