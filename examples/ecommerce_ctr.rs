//! The paper's E-commerce workload (Table 1, workload E): click-through
//! rate prediction over an Avazu-like table, a miniature of Fig. 6(a).
//!
//! NeurDB answers Table 1's `PREDICT VALUE OF click_rate FROM avazu TRAIN
//! ON * VALUES (…)` inside the database. The PostgreSQL+P baseline exports
//! the same table over the wire protocol in keyset pages and trains the
//! same model in the client. The two sides must train bit-identical
//! models; the demo asserts it and prints both latencies.
//!
//! ```sh
//! cargo run --release --example ecommerce_ctr
//! ```

use neurdb_bench::{load_table, run_neurdb, run_pgp, AnalyticsWorkload};
use neurdb_core::Database;
use neurdb_server::{Server, ServerConfig};
use std::sync::Arc;

fn main() {
    let (n_batches, batch_size) = (10, 1024);
    let w = AnalyticsWorkload::Ecommerce;
    let db = Arc::new(Database::new());
    let row = load_table(&db, w, n_batches, batch_size, 7);
    println!(
        "workload E: {} rows loaded into `{}`\n  {}",
        n_batches * batch_size,
        w.table(),
        w.predict_sql(&row)
    );

    let neurdb = run_neurdb(&db, w, &row);
    println!(
        "NeurDB (in-database PREDICT):  latency {:>7.3}s  throughput {:>9.0} samples/s  \
         predicted click_rate {:.4}",
        neurdb.seconds,
        neurdb.throughput(),
        neurdb.prediction,
    );

    let server =
        Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default()).expect("start server");
    let pgp = run_pgp(server.local_addr(), &db, w, &row);
    server.shutdown();
    println!(
        "PostgreSQL+P (wire export):    latency {:>7.3}s  throughput {:>9.0} samples/s  \
         predicted click_rate {:.4}",
        pgp.seconds,
        pgp.throughput(),
        pgp.prediction,
    );

    assert_eq!(neurdb.losses, pgp.losses, "both sides see the same batches");
    assert_eq!(neurdb.layers, pgp.layers, "both sides train the same model");
    println!(
        "\nsame model on both sides ({} batches, final loss {:.4}); \
         NeurDB latency {:+.1}% vs PostgreSQL+P",
        neurdb.losses.len(),
        neurdb.losses.last().unwrap(),
        100.0 * (neurdb.seconds / pgp.seconds - 1.0),
    );
}
