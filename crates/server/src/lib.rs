//! # neurdb-server
//!
//! The network front end that turns the NeurDB-RS library into a
//! system: a TCP server speaking a simple length-prefixed wire protocol
//! (text SQL in; typed result batches, structured errors, and EXPLAIN
//! output back), one worker thread and one isolated
//! [`neurdb_core::SessionContext`] per connection, an
//! admission-controlled accept loop, `SHOW SESSIONS` introspection, and
//! graceful drain shutdown — plus the matching blocking client driver.
//!
//! Because every connection owns its session, `SET parallelism` (and
//! every future session setting) is scoped to that connection: two
//! clients tuning different degrees of parallelism plan different
//! `dop`s concurrently without interfering.
//!
//! ```no_run
//! use neurdb_core::Database;
//! use neurdb_server::{client::Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let db = Arc::new(Database::new());
//! let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
//!
//! let mut c = Client::connect(handle.local_addr()).unwrap();
//! c.affected("CREATE TABLE t (a INT)").unwrap();
//! c.affected("SET parallelism = 4").unwrap();
//! let sessions = c.query("SHOW SESSIONS").unwrap();
//! assert_eq!(sessions.rows.len(), 1);
//! c.close().unwrap();
//!
//! handle.shutdown(); // drains in-flight statements, joins all threads
//! ```

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError};
pub use protocol::{Request, Response, RowSet, WireErrorKind, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ServerHandle, SessionInfo};

#[cfg(test)]
mod tests {
    use super::*;
    use neurdb_core::Database;
    use std::sync::Arc;

    /// In-crate end-to-end smoke: one server, one client, DDL + DML +
    /// SELECT + SHOW + session settings, orderly close, clean shutdown.
    #[test]
    fn end_to_end_smoke() {
        let db = Arc::new(Database::new());
        let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut c = Client::connect(handle.local_addr()).unwrap();
        assert_eq!(c.affected("CREATE TABLE t (a INT, b TEXT)").unwrap(), 0);
        assert_eq!(
            c.affected("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
                .unwrap(),
            2
        );
        let rows = c.query("SELECT a, b FROM t ORDER BY a").unwrap();
        assert_eq!(rows.columns, vec!["a", "b"]);
        assert_eq!(rows.rows.len(), 2);
        let tables = c.query("SHOW TABLES").unwrap();
        assert_eq!(tables.rows.len(), 1);
        c.affected("SET parallelism = 8").unwrap();
        let p = c.query("SHOW parallelism").unwrap();
        assert_eq!(p.rows[0][0], neurdb_storage::Value::Int(8));
        let sessions = c.query("SHOW SESSIONS").unwrap();
        assert_eq!(sessions.rows.len(), 1);
        c.close().unwrap();
        handle.shutdown();
    }

    /// Buffer-pool state over the wire: `SHOW buffer` reports geometry
    /// and hit-ratio rows, the replacement policy is not settable, and
    /// `SHOW METRICS` carries the pool's gauges and I/O histograms.
    #[test]
    fn buffer_policy_round_trips_over_the_wire() {
        use neurdb_storage::Value;
        let db = Arc::new(Database::new());
        let handle = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut c = Client::connect(handle.local_addr()).unwrap();

        let prop = |rows: &RowSet, name: &str| {
            rows.rows
                .iter()
                .find(|r| r[0] == Value::Text(name.into()))
                .unwrap_or_else(|| panic!("SHOW buffer missing '{name}'"))[1]
                .clone()
        };
        let buf = c.query("SHOW buffer").unwrap();
        assert_eq!(buf.columns, vec!["property", "value"]);
        assert_eq!(prop(&buf, "capacity"), Value::Int(4096));
        let Value::Int(shards) = prop(&buf, "shards") else {
            panic!("shards must be an integer");
        };
        assert!(shards >= 1);
        // Every shard reports a hit ratio.
        for i in 0..shards {
            prop(&buf, &format!("shard{i}.hit_ratio"));
        }

        assert!(matches!(prop(&buf, "hit_ratio"), Value::Float(_)));
        assert!(matches!(prop(&buf, "point_hit_ratio"), Value::Float(_)));
        // One clock serves every shard: there is no policy to switch.
        assert!(c.affected("SET buffer_policy = 'sieve'").is_err());

        // SHOW METRICS carries the per-shard buffer gauges and the I/O
        // latency histograms after some traffic.
        c.affected("CREATE TABLE t (a INT)").unwrap();
        c.affected("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        c.query("SELECT a FROM t").unwrap();
        let metrics = c.query("SHOW METRICS").unwrap();
        let names: Vec<String> = metrics
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Text(s) => s.clone(),
                other => panic!("metric name should be text, got {other:?}"),
            })
            .collect();
        assert!(names.iter().any(|n| n == "buffer.shard0.hit_ratio"));
        assert!(names.iter().any(|n| n == "buffer.point_hit_ratio"));
        assert!(names.iter().any(|n| n == "buffer.write_ns.count"));

        c.close().unwrap();
        handle.shutdown();
    }
}
