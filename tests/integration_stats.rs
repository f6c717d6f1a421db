//! Write-maintained table statistics on the `olap_drift` schema, at a
//! reduced size: drifting bulk loads keep the fact table's statistics
//! cached (no rebuild is paid), and the joins plan exactly as they do on
//! a twin database that holds the same rows and builds its statistics
//! fresh.

use neurdb_core::Database;

const DIM1_ROWS: u64 = 1000;
const DIM2_ROWS: u64 = 100;
const FACT_ROWS: usize = 20_000;
const LOAD_ROWS: usize = 200;
/// 8 loads × 200 rows stay under the rebuild threshold of 50 + 10% of
/// 20,000 rows.
const LOADS: usize = 8;

const JOIN2: &str = "SELECT d1.cat, COUNT(*), SUM(f.v) FROM fact f, dim1 d1 \
                     WHERE f.d1 = d1.id GROUP BY d1.cat";
const JOIN3: &str = "SELECT d2.region, COUNT(*), SUM(f.v) FROM fact f, dim1 d1, dim2 d2 \
                     WHERE f.d1 = d1.id AND f.d2 = d2.id AND d1.cat < 4 GROUP BY d2.region";

/// splitmix64: a tiny deterministic generator for the fact rows.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

type FactRow = (u64, u64, u64);

/// Load `n` concentrates its dim1 keys in a 100-id window that moves 50
/// ids per load: the join-key distribution drifts.
fn load_rows(r: &mut Rng, n: usize) -> Vec<FactRow> {
    (0..LOAD_ROWS)
        .map(|_| {
            (
                (n as u64 * 50 + r.below(100)) % DIM1_ROWS,
                r.below(DIM2_ROWS),
                r.below(1000),
            )
        })
        .collect()
}

fn insert_fact(db: &Database, first_id: usize, rows: &[FactRow]) {
    let values: Vec<String> = rows
        .iter()
        .enumerate()
        .map(|(i, (d1, d2, v))| format!("({}, {d1}, {d2}, {v})", first_id + i))
        .collect();
    db.execute(&format!("INSERT INTO fact VALUES {}", values.join(", ")))
        .unwrap();
}

fn setup(fact: &[FactRow]) -> Database {
    let db = Database::new();
    db.set_parallelism(2);
    db.execute("CREATE TABLE dim1 (id INT, cat INT)").unwrap();
    db.execute("CREATE TABLE dim2 (id INT, region INT)")
        .unwrap();
    db.execute("CREATE TABLE fact (id INT, d1 INT, d2 INT, v INT)")
        .unwrap();
    let dim1: Vec<String> = (0..DIM1_ROWS)
        .map(|i| format!("({i}, {})", i % 16))
        .collect();
    db.execute(&format!("INSERT INTO dim1 VALUES {}", dim1.join(", ")))
        .unwrap();
    let dim2: Vec<String> = (0..DIM2_ROWS)
        .map(|i| format!("({i}, {})", i % 8))
        .collect();
    db.execute(&format!("INSERT INTO dim2 VALUES {}", dim2.join(", ")))
        .unwrap();
    for (c, chunk) in fact.chunks(1000).enumerate() {
        insert_fact(&db, c * 1000, chunk);
    }
    db
}

fn plan_text(db: &Database, sql: &str) -> String {
    let out = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    out.rows()
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_str().unwrap().to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn drifting_loads_keep_stats_cached_and_join_plans_match_a_fresh_twin() {
    let mut r = Rng(1);
    let mut fact: Vec<FactRow> = (0..FACT_ROWS)
        .map(|_| (r.below(DIM1_ROWS), r.below(DIM2_ROWS), r.below(1000)))
        .collect();
    let db = setup(&fact);
    // The first join builds the statistics.
    db.execute(JOIN3).unwrap();
    let table = db.table("fact").unwrap();
    let built = table.cached_stats().expect("a join builds the stats");
    assert_eq!(built.row_count, FACT_ROWS as u64);
    for n in 0..LOADS {
        let load = load_rows(&mut r, n);
        insert_fact(&db, fact.len(), &load);
        fact.extend(load);
        let kept = table
            .cached_stats()
            .unwrap_or_else(|| panic!("load {n} dropped the fact stats"));
        assert_eq!(kept.row_count, fact.len() as u64);
        if n % 3 != 2 && n + 1 != LOADS {
            continue;
        }
        let twin = setup(&fact);
        for sql in [JOIN2, JOIN3] {
            assert_eq!(
                plan_text(&db, sql),
                plan_text(&twin, sql),
                "load {n}: {sql}"
            );
        }
        assert!(twin.table("fact").unwrap().cached_stats().is_some());
    }
}
