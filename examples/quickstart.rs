//! Quickstart: create a table, load data, run standard SQL, then run the
//! paper's `PREDICT` extension end-to-end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use neurdb_core::{Database, Output};

fn main() {
    let db = Database::new();

    // --- Standard SQL ----------------------------------------------------
    db.execute("CREATE TABLE review (id INT PRIMARY KEY, brand_name TEXT, stars INT, score FLOAT)")
        .unwrap();
    for i in 0..500i64 {
        let brand = format!("brand{}", i % 5);
        let stars = (i / 5) % 5 + 1;
        // Reviews of brand0 have no score yet — we will predict it.
        let score_sql = if brand == "brand0" {
            "NULL".to_string()
        } else {
            format!("{}", stars as f64 + 0.25)
        };
        db.execute(&format!(
            "INSERT INTO review VALUES ({i}, '{brand}', {stars}, {score_sql})"
        ))
        .unwrap();
    }

    let out = db
        .execute("SELECT brand_name, COUNT(*), AVG(score) FROM review GROUP BY brand_name ORDER BY brand_name")
        .unwrap();
    println!("review stats per brand:");
    if let Output::Rows(rows) = &out {
        for r in &rows.rows {
            println!(
                "  {:10} count={} avg_score={}",
                r.get(0).to_string(),
                r.get(1),
                r.get(2)
            );
        }
    }

    // --- The paper's Listing 1: PREDICT VALUE OF -------------------------
    let out = db
        .execute(
            "PREDICT VALUE OF score FROM review \
             WHERE brand_name = 'brand0' \
             TRAIN ON * \
             WITH brand_name <> 'brand0'",
        )
        .unwrap();
    let Output::Prediction(p) = out else {
        unreachable!()
    };
    if let Some(t) = &p.train_outcome {
        println!(
            "\ntrained model {} in {:.3}s over {} samples (final loss {:.4})",
            p.mid,
            t.total_seconds,
            t.samples,
            t.losses.last().unwrap()
        );
    }
    println!("first predictions for the unscored brand:");
    println!("  {:?}", p.result.columns);
    for r in p.result.rows.iter().take(5) {
        println!("  {:?}", r.values);
    }
    println!("... {} rows total", p.result.len());

    // Second run: the model is served from the model manager's cache.
    let out = db
        .execute(
            "PREDICT VALUE OF score FROM review WHERE brand_name = 'brand0' \
             TRAIN ON * WITH brand_name <> 'brand0'",
        )
        .unwrap();
    let Output::Prediction(p2) = out else {
        unreachable!()
    };
    assert!(p2.train_outcome.is_none());
    println!("\nsecond PREDICT reused model {} (no retraining)", p2.mid);
}
