//! End-to-end PREDICT statements: the paper's Listings 1 and 2 against
//! real tables, plus model reuse, versioning, and fine-tuning, and the
//! read path PREDICT and fine-tunes share with SELECT.

use neurdb_core::{
    eval_predicate, extract_examples, make_batches, Bindings, Database, Output, SessionContext,
    Standardizer,
};
use neurdb_engine::AiEngine;
use neurdb_nn::{armnet_finetune_from, armnet_spec, ArmNetConfig, LossKind};
use neurdb_sql::{parse, Statement};
use neurdb_storage::{Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Build the paper's `review` table with a learnable score signal:
/// score tracks `stars`, with some brands held out for inference.
fn review_db(rows: usize) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE review (id INT PRIMARY KEY, brand_name TEXT, stars INT, score FLOAT)")
        .unwrap();
    let mut stmts = Vec::new();
    for i in 0..rows {
        // Brand and stars vary independently so held-out brands cover the
        // full stars range.
        let brand = format!("brand{}", i % 5);
        let stars = ((i / 5) % 5) as i64 + 1;
        // Score is a clean function of stars so the model can learn it.
        if brand == "brand0" {
            // Held-out brand: score missing (to be predicted).
            stmts.push(format!(
                "INSERT INTO review VALUES ({i}, '{brand}', {stars}, NULL)"
            ));
        } else {
            stmts.push(format!(
                "INSERT INTO review VALUES ({i}, '{brand}', {stars}, {})",
                stars as f64
            ));
        }
    }
    for s in stmts {
        db.execute(&s).unwrap();
    }
    db
}

#[test]
fn listing1_regression_end_to_end() {
    let db = review_db(400);
    let out = db
        .execute(
            "PREDICT VALUE OF score FROM review \
             WHERE brand_name = 'brand0' \
             TRAIN ON * \
             WITH brand_name <> 'brand0'",
        )
        .unwrap();
    let Output::Prediction(p) = out else {
        panic!("expected prediction")
    };
    assert!(p.train_outcome.is_some(), "first PREDICT trains a model");
    let result = &p.result;
    assert_eq!(result.len(), 80, "all brand0 rows predicted");
    assert_eq!(
        result.columns,
        vec!["brand_name", "stars", "predicted_score"],
        "TRAIN ON * excluded the unique id column"
    );
    // Predictions should be within the plausible score range.
    for row in &result.rows {
        let pred = row.get(2).as_f64().unwrap();
        assert!(
            (0.0..=7.0).contains(&pred),
            "prediction {pred} out of range"
        );
    }
}

#[test]
fn predictions_track_training_signal() {
    let db = review_db(600);
    let out = db
        .execute(
            "PREDICT VALUE OF score FROM review WHERE brand_name = 'brand0' \
             TRAIN ON * WITH brand_name <> 'brand0'",
        )
        .unwrap();
    let Output::Prediction(p) = out else { panic!() };
    // Group predictions by the stars feature: 5-star rows must be
    // predicted higher than 1-star rows (the model learned the signal).
    let mean_for = |stars: i64| -> f64 {
        let v: Vec<f64> = p
            .result
            .rows
            .iter()
            .filter(|r| r.get(1) == &Value::Int(stars))
            .map(|r| r.get(2).as_f64().unwrap())
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    assert!(
        mean_for(5) > mean_for(1) + 0.5,
        "5-star {} should be predicted above 1-star {}",
        mean_for(5),
        mean_for(1)
    );
}

/// A training PREDICT cycles its examples for
/// `clamp(train_sample_budget / rows, 1, 100)` epochs, one batch per
/// epoch on a small table; a fine-tune makes exactly one pass.
#[test]
fn training_cycles_epochs_to_the_sample_budget_and_finetunes_once() {
    // review_db(300): brand0's 60 rows have no score, so 240 are labelled.
    let labelled = 240;
    for (budget, epochs) in [(30_000, 100), (1_000, 4), (100, 1)] {
        let mut db = review_db(300);
        db.train_sample_budget = budget;
        let Output::Prediction(p) = db
            .execute("PREDICT VALUE OF score FROM review TRAIN ON *")
            .unwrap()
        else {
            panic!("expected a prediction")
        };
        let trained = p.train_outcome.expect("the first PREDICT trains");
        assert_eq!(trained.samples, epochs * labelled, "budget {budget}");
        assert_eq!(trained.losses.len(), epochs, "budget {budget}");
        db.execute("INSERT INTO review VALUES (300, 'brand1', 3, 3.0)")
            .unwrap();
        let tuned = db.finetune("review", "score").unwrap();
        assert_eq!((tuned.samples, tuned.losses.len()), (labelled + 1, 1));
    }
}

#[test]
fn listing2_classification_with_values() {
    let db = Database::new();
    db.execute(
        "CREATE TABLE diabetes (pid INT PRIMARY KEY, pregnancies INT, glucose INT, \
         blood_pressure INT, outcome BOOL)",
    )
    .unwrap();
    // High glucose => diabetic, cleanly separable.
    for i in 0..300 {
        let glucose = 80 + (i % 12) * 10;
        let outcome = glucose > 140;
        db.execute(&format!(
            "INSERT INTO diabetes VALUES ({i}, {}, {glucose}, {}, {outcome})",
            i % 10,
            60 + i % 40,
        ))
        .unwrap();
    }
    let out = db
        .execute(
            "PREDICT CLASS OF outcome FROM diabetes \
             TRAIN ON pregnancies, glucose, blood_pressure \
             VALUES (6, 190, 72), (1, 85, 66)",
        )
        .unwrap();
    let Output::Prediction(p) = out else { panic!() };
    assert_eq!(p.result.len(), 2);
    assert_eq!(
        p.result.columns,
        vec![
            "pregnancies",
            "glucose",
            "blood_pressure",
            "predicted_outcome",
            "probability"
        ]
    );
    let hi = p.result.rows[0].get(4).as_f64().unwrap();
    let lo = p.result.rows[1].get(4).as_f64().unwrap();
    assert!(
        hi > lo,
        "glucose 190 ({hi:.3}) must score above glucose 85 ({lo:.3})"
    );
}

#[test]
fn model_reused_on_second_predict() {
    let db = review_db(200);
    let sql = "PREDICT VALUE OF score FROM review WHERE brand_name = 'brand0' \
               TRAIN ON * WITH brand_name <> 'brand0'";
    let Output::Prediction(first) = db.execute(sql).unwrap() else {
        panic!()
    };
    assert!(first.train_outcome.is_some());
    let Output::Prediction(second) = db.execute(sql).unwrap() else {
        panic!()
    };
    assert!(
        second.train_outcome.is_none(),
        "second run serves the cached model"
    );
    assert_eq!(first.mid, second.mid);
}

#[test]
fn finetune_creates_new_version_sharing_layers() {
    let db = review_db(200);
    let sql = "PREDICT VALUE OF score FROM review TRAIN ON * WITH brand_name <> 'brand0'";
    let Output::Prediction(p) = db.execute(sql).unwrap() else {
        panic!()
    };
    let mid = p.mid;
    let v1 = db.ai.models.latest_version(mid).unwrap();
    let outcome = db.finetune("review", "score").unwrap();
    assert!(outcome.version > v1);
    // Incremental: early layers shared, last layer replaced.
    let s1 = db.ai.models.layer_states_at(mid, v1).unwrap();
    let s2 = db.ai.models.layer_states_at(mid, outcome.version).unwrap();
    assert_eq!(s1[0], s2[0], "embedding layer frozen and shared");
    assert_ne!(s1.last(), s2.last(), "head layer fine-tuned");
    // Storage savings from the layered design.
    let report = db.ai.models.storage_report();
    assert!(report.savings() > 0.0);
}

#[test]
fn predict_errors() {
    let db = review_db(50);
    // Unknown target column.
    assert!(db
        .execute("PREDICT VALUE OF missing FROM review TRAIN ON *")
        .is_err());
    // Unknown table.
    assert!(db
        .execute("PREDICT VALUE OF score FROM nope TRAIN ON *")
        .is_err());
    // Target as feature.
    assert!(db
        .execute("PREDICT VALUE OF score FROM review TRAIN ON score, stars")
        .is_err());
    // VALUES arity mismatch.
    assert!(db
        .execute("PREDICT VALUE OF score FROM review TRAIN ON stars VALUES (1, 2, 3)")
        .is_err());
}

#[test]
fn no_training_rows_is_an_error() {
    let db = Database::new();
    db.execute("CREATE TABLE empty_t (a INT, y FLOAT)").unwrap();
    assert!(db
        .execute("PREDICT VALUE OF y FROM empty_t TRAIN ON *")
        .is_err());
}

// ------------------------- the planned read path -------------------------

/// `count` rows of `p (id INT, a INT, b INT, name TEXT, y FLOAT)` from
/// id `first` on, as multi-row INSERTs; `a` and `name` are NULL about
/// one time in ten.
fn random_inserts(rng: &mut StdRng, first: usize, count: usize) -> Vec<String> {
    let mut stmts = Vec::new();
    for chunk in (first..first + count).collect::<Vec<_>>().chunks(250) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|id| {
                let a = rng.gen_range(0..10i64);
                let b = rng.gen_range(-5..5i64);
                let y = a as f64 * 0.5 + b as f64 * 0.2 + rng.gen_range(0..10) as f64 * 0.01;
                let a = match rng.gen_range(0..10) {
                    0 => "NULL".to_string(),
                    _ => a.to_string(),
                };
                let name = match rng.gen_range(0..10) {
                    0 => "NULL".to_string(),
                    n => format!("'n{}'", n % 8),
                };
                format!("({id}, {a}, {b}, {name}, {y:.3})")
            })
            .collect();
        stmts.push(format!("INSERT INTO p VALUES {}", rows.join(", ")));
    }
    stmts
}

fn read_path_db(inserts: &[String]) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE p (id INT, a INT, b INT, name TEXT, y FLOAT)")
        .unwrap();
    for sql in inserts {
        db.execute(sql).unwrap();
    }
    db
}

/// A random predicate over `p`: index ranges and points on `id`,
/// integer and text comparisons, arithmetic, comparisons with NULL,
/// qualified names, and AND/OR/NOT up to `depth` levels.
fn random_predicate(rng: &mut StdRng, depth: usize) -> String {
    if depth > 0 && rng.gen_range(0..3) > 0 {
        let l = random_predicate(rng, depth - 1);
        let r = random_predicate(rng, depth - 1);
        return match rng.gen_range(0..3) {
            0 => format!("({l} AND {r})"),
            1 => format!("({l} OR {r})"),
            _ => format!("NOT ({l})"),
        };
    }
    let k = rng.gen_range(0..10i64);
    let lo = rng.gen_range(0..3000i64);
    match rng.gen_range(0..12) {
        0 => format!("id >= {lo} AND id < {}", lo + rng.gen_range(1..600)),
        1 => format!("id = {lo}"),
        2 => format!("id < {lo}"),
        3 => format!("a < {k}"),
        4 => format!("a = {k}"),
        5 => format!("a <> {k}"),
        6 => format!("p.b > {}", k - 5),
        7 => format!("name = 'n{}'", k % 8),
        8 => format!("name < 'n{}'", k % 8),
        9 => format!("name <> 'n{}'", k % 8),
        10 => format!("a + b >= {k}"),
        _ => "a = NULL".to_string(),
    }
}

/// Order-normalized rendering of rows, each cut to its first `width`
/// values (multiset comparison).
fn multiset(rows: &[Tuple], width: usize) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| format!("{:?}", &r.values[..width]))
        .collect();
    out.sort();
    out
}

fn prediction_rows(out: Output) -> Vec<Tuple> {
    let Output::Prediction(p) = out else {
        panic!("expected a prediction")
    };
    assert!(p.train_outcome.is_none(), "served, not retrained");
    p.result.rows
}

#[test]
fn predict_returns_the_rows_of_select_for_random_predicates() {
    let mut rng = StdRng::seed_from_u64(26);
    let db = read_path_db(&random_inserts(&mut rng, 0, 3000));
    db.execute("CREATE INDEX ON p (id)").unwrap();
    db.execute("PREDICT VALUE OF y FROM p TRAIN ON id, a, b, name")
        .unwrap();
    let mut parallel = SessionContext::new();
    db.execute_in_session(&mut parallel, "SET parallelism = 4")
        .unwrap();
    db.execute_in_session(&mut parallel, "SET parallel_min_rows = 0")
        .unwrap();
    for _ in 0..60 {
        let pred = random_predicate(&mut rng, 2);
        let select = db
            .execute(&format!("SELECT id, a, b, name FROM p WHERE {pred}"))
            .unwrap();
        let want = multiset(&select.rows().unwrap().rows, 4);
        let predict = format!("PREDICT VALUE OF y FROM p WHERE {pred} TRAIN ON id, a, b, name");
        let serial = prediction_rows(db.execute(&predict).unwrap());
        assert_eq!(multiset(&serial, 4), want, "serial PREDICT WHERE {pred}");
        let fanned = prediction_rows(db.execute_in_session(&mut parallel, &predict).unwrap());
        // Each row's prediction does not depend on where the row sits
        // in the inference batch, so whole rows match.
        assert_eq!(
            multiset(&fanned, 5),
            multiset(&serial, 5),
            "parallel PREDICT WHERE {pred}"
        );
    }
}

/// Every version's layer bytes of `mid`, oldest first.
fn version_bytes(engine: &AiEngine, mid: neurdb_engine::Mid) -> Vec<Vec<Vec<u8>>> {
    let models = &engine.models;
    let versions = models.versions(mid).unwrap();
    versions
        .into_iter()
        .map(|v| models.layer_states_at(mid, v).unwrap())
        .collect()
}

/// The examples of `p` (`a, b, name` -> `y`) the heap-scan loop that
/// PREDICT used before it read through the planner collects: every
/// live row in heap order, kept when `with` holds.
fn heap_scan_examples(db: &Database, with: Option<&str>) -> (Vec<Vec<u64>>, Vec<f32>) {
    let t = db.table("p").unwrap();
    let names = t.schema.names();
    let env = Bindings::for_table("p", &names);
    let with = with.map(|w| {
        let Statement::Select(s) = parse(&format!("SELECT * FROM p WHERE {w}")).unwrap() else {
            unreachable!()
        };
        s.predicate.unwrap()
    });
    let rows: Vec<Tuple> = t
        .scan()
        .unwrap()
        .into_iter()
        .map(|(_, row)| row)
        .filter(|row| {
            with.as_ref()
                .is_none_or(|p| eval_predicate(p, row, &env).unwrap())
        })
        .collect();
    extract_examples(&rows, &[1, 2, 3], 4)
}

/// Train and fine-tune twice the way `Database` does, on examples from
/// [`heap_scan_examples`], in an engine of its own; returns every
/// version's layer bytes.
fn heap_scan_reference(first: &[String], more: &[String], with: &str) -> Vec<Vec<Vec<u8>>> {
    let db = read_path_db(first);
    let engine = AiEngine::new();
    let cfg = ArmNetConfig {
        nfields: 3,
        vocab: 2048,
        embed_dim: 8,
        hidden: 64,
        outputs: 1,
    };
    let batches = |xs: &[Vec<u64>], ys: &[f32], std: &Standardizer, epochs: usize| {
        let batch_size = Database::TRAIN_BATCH_ROWS.min(xs.len());
        let one_epoch = make_batches(xs, ys, &cfg, batch_size, std);
        (0..epochs)
            .flat_map(|_| one_epoch.clone())
            .collect::<Vec<_>>()
    };
    let (xs, ys) = heap_scan_examples(&db, Some(with));
    let std = Standardizer::fit(&ys);
    let epochs = (db.train_sample_budget / xs.len()).clamp(1, 100);
    let trained = engine.train(
        armnet_spec(&cfg),
        LossKind::Mse,
        db.learning_rate,
        batches(&xs, &ys, &std, epochs),
    );
    for sql in more {
        db.execute(sql).unwrap();
    }
    for _ in 0..2 {
        let (xs, ys) = heap_scan_examples(&db, None);
        let frozen = armnet_finetune_from(&cfg);
        engine
            .finetune(
                trained.mid,
                LossKind::Mse,
                db.learning_rate,
                frozen,
                batches(&xs, &ys, &std, 1),
            )
            .unwrap();
    }
    version_bytes(&engine, trained.mid)
}

#[test]
fn trained_and_finetuned_bytes_ignore_parallelism_and_match_heap_scan_loop() {
    let mut rng = StdRng::seed_from_u64(7);
    let first = random_inserts(&mut rng, 0, 1500);
    let more = random_inserts(&mut rng, 1500, 200);
    // OR with a NULL-able text column: no index range, three-valued logic.
    let with = "a > 3 OR name = 'n1'";
    let run = |parallelism: usize| {
        let db = read_path_db(&first);
        db.execute("CREATE INDEX ON p (id)").unwrap();
        db.execute(&format!("SET parallelism = {parallelism}"))
            .unwrap();
        db.execute("SET parallel_min_rows = 0").unwrap();
        let sql =
            format!("PREDICT VALUE OF y FROM p WHERE id < 50 TRAIN ON a, b, name WITH {with}");
        let Output::Prediction(p) = db.execute(&sql).unwrap() else {
            panic!("expected a prediction")
        };
        assert!(p.train_outcome.is_some());
        for sql in &more {
            db.execute(sql).unwrap();
        }
        for _ in 0..2 {
            db.finetune("p", "y").unwrap();
        }
        version_bytes(&db.ai, p.mid)
    };
    let serial = run(1);
    assert_eq!(serial.len(), 3, "one trained and two fine-tuned versions");
    assert!(
        serial == run(4),
        "layer bytes differ between parallelism 1 and 4"
    );
    assert!(
        serial == heap_scan_reference(&first, &more, with),
        "layer bytes differ from the heap-scan reference"
    );
}
