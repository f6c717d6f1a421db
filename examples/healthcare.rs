//! The paper's Healthcare workload (Table 1, workload H): disease
//! progression prediction with `PREDICT CLASS OF`, exercised through the
//! full SQL path — tables, Listing 2 syntax with inline `VALUES`, and the
//! in-database training pipeline.
//!
//! ```sh
//! cargo run --release --example healthcare
//! ```

use neurdb_core::{Database, Output};
use neurdb_workloads::DiabetesGen;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let db = Database::new();
    // The first 8 attributes are the classic Pima features; we model the
    // clinically meaningful ones and a catch-all panel column.
    db.execute(
        "CREATE TABLE diabetes (pid INT PRIMARY KEY, pregnancies INT, glucose INT, \
         blood_pressure INT, skin INT, insulin INT, bmi INT, pedigree INT, age INT, \
         outcome BOOL)",
    )
    .unwrap();

    let gen = DiabetesGen::new(42);
    let mut rng = StdRng::seed_from_u64(1);
    let rows = gen.batch(3000, &mut rng);
    for (i, r) in rows.iter().enumerate() {
        db.execute(&format!(
            "INSERT INTO diabetes VALUES ({i}, {}, {}, {}, {}, {}, {}, {}, {}, {})",
            r.fields[0],
            r.fields[1],
            r.fields[2],
            r.fields[3],
            r.fields[4],
            r.fields[5],
            r.fields[6],
            r.fields[7],
            r.outcome
        ))
        .unwrap();
    }
    let count = db.execute("SELECT COUNT(*) FROM diabetes").unwrap();
    println!(
        "loaded {} patient records",
        count.rows().unwrap().rows[0].get(0)
    );

    // Listing 2: classification with inline VALUES for new patients.
    let out = db
        .execute(
            "PREDICT CLASS OF outcome FROM diabetes \
             TRAIN ON pregnancies, glucose, blood_pressure, skin, insulin, bmi, pedigree, age \
             VALUES (6, 38, 14, 11, 10, 22, 6, 10), (1, 17, 13, 5, 4, 11, 2, 5)",
        )
        .unwrap();
    let Output::Prediction(p) = out else {
        unreachable!()
    };
    if let Some(t) = &p.train_outcome {
        println!(
            "trained in-database in {:.3}s over {} samples; final loss {:.4}",
            t.total_seconds,
            t.samples,
            t.losses.last().unwrap()
        );
    }
    println!("\nnew-patient predictions ({:?}):", p.result.columns);
    for r in &p.result.rows {
        println!("  {:?}", r.values);
    }

    // Measure holdout-style accuracy by predicting the whole table and
    // comparing against the stored outcomes.
    let all = db
        .execute(
            "PREDICT CLASS OF outcome FROM diabetes \
             TRAIN ON pregnancies, glucose, blood_pressure, skin, insulin, bmi, pedigree, age",
        )
        .unwrap();
    let Output::Prediction(all) = all else {
        unreachable!()
    };
    let mut correct = 0usize;
    for (r, truth) in all.result.rows.iter().zip(rows.iter()) {
        let pred = r.get(8).as_bool().unwrap();
        if pred == truth.outcome {
            correct += 1;
        }
    }
    println!(
        "\nin-table accuracy: {:.1}% over {} records",
        100.0 * correct as f64 / rows.len() as f64,
        rows.len()
    );
}
