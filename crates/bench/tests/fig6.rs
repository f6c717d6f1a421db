//! The two sides of Fig. 6 differ only in the data path: the in-database
//! PREDICT and the client that exports the table over the wire train the
//! same model on the same examples, bit for bit.

use neurdb_bench::{load_table, run_neurdb, run_pgp, AnalyticsWorkload};
use neurdb_core::Database;
use neurdb_server::{Server, ServerConfig};
use std::sync::Arc;

#[test]
fn both_fig6_sides_train_the_same_model() {
    let mut db = Database::new();
    // 4,200 rows: the client exports two pages, the second one short,
    // and the epoch is a full 4,096-row batch plus a 104-row one. The
    // budget makes it one epoch, where the default would cycle seven,
    // so both sides must read the database's epoch rule.
    db.train_sample_budget = 4_200;
    let db = Arc::new(db);
    let w = AnalyticsWorkload::Ecommerce;
    let row = load_table(&db, w, 3, 1_400, 3);

    let neurdb = run_neurdb(&db, w, &row);
    let server = Server::start(db.clone(), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let pgp = run_pgp(server.local_addr(), &db, w, &row);
    server.shutdown();

    assert_eq!(neurdb.samples, 4_200);
    assert_eq!(pgp.samples, neurdb.samples);
    assert_eq!(neurdb.losses.len(), 2);
    assert_eq!(pgp.losses, neurdb.losses);
    assert_eq!(pgp.layers, neurdb.layers);
    assert_eq!(pgp.prediction, neurdb.prediction);
}
