//! Log record types and their wire codec.
//!
//! Records are logical (operation-level) redo records: heap DML carries
//! the encoded tuple, DDL carries the schema, index creation carries the
//! column, and the model-manager events carry the layer blobs that make
//! NeurDB's trained models crash-safe. Transaction brackets
//! (`TxnBegin`/`TxnCommit`) scope atomicity: recovery replays a
//! transaction's records only when its commit record made it to the log.
//! Records logged under [`SYSTEM_TXN`] are auto-committed (model events
//! and other registry mutations). Tags 2 and 13 are retired and decode
//! as malformed.

use crate::codec::{Reader, Writer};
use neurdb_storage::{ColumnDef, DataType, RecordId, Schema};

/// Transaction id `0` is the auto-committed system transaction.
pub const SYSTEM_TXN: u64 = 0;

/// A column in a `CreateTable` record (mirror of storage's `ColumnDef`
/// with a stable wire layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnSpecDef {
    pub name: String,
    pub ty: DataType,
    pub nullable: bool,
    pub unique: bool,
}

impl From<&ColumnDef> for ColumnSpecDef {
    fn from(c: &ColumnDef) -> Self {
        ColumnSpecDef {
            name: c.name.clone(),
            ty: c.ty,
            nullable: c.nullable,
            unique: c.unique,
        }
    }
}

impl ColumnSpecDef {
    pub fn to_column_def(&self) -> ColumnDef {
        let mut def = ColumnDef::new(self.name.clone(), self.ty);
        if !self.nullable {
            def = def.not_null();
        }
        if self.unique {
            def = def.unique();
        }
        def
    }
}

fn datatype_code(ty: DataType) -> u8 {
    match ty {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Text => 2,
        DataType::Bool => 3,
    }
}

fn datatype_from(code: u8) -> Option<DataType> {
    Some(match code {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Text,
        3 => DataType::Bool,
        _ => return None,
    })
}

pub(crate) fn write_schema(w: &mut Writer, schema: &Schema) {
    w.u32(schema.columns.len() as u32);
    for c in &schema.columns {
        w.str(&c.name);
        w.u8(datatype_code(c.ty));
        w.u8(c.nullable as u8);
        w.u8(c.unique as u8);
    }
}

pub(crate) fn read_schema(r: &mut Reader) -> Option<Schema> {
    let n = r.u32()? as usize;
    let mut cols = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let name = r.str()?;
        let ty = datatype_from(r.u8()?)?;
        let nullable = r.u8()? != 0;
        let unique = r.u8()? != 0;
        let mut def = ColumnDef::new(name, ty);
        if !nullable {
            def = def.not_null();
        }
        if unique {
            def = def.unique();
        }
        cols.push(def);
    }
    Some(Schema::new(cols))
}

fn write_rid(w: &mut Writer, rid: RecordId) {
    w.u64(rid.page);
    w.u16(rid.slot);
}

fn read_rid(r: &mut Reader) -> Option<RecordId> {
    Some(RecordId::new(r.u64()?, r.u16()?))
}

/// One redo record. All variants carry the owning transaction id.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Transaction start (one statement, or one user transaction's write
    /// set, in the SQL facade).
    TxnBegin { txn: u64 },
    /// Transaction commit — the durability point.
    TxnCommit { txn: u64 },
    /// Heap tuple inserted at `rid`; `tuple` is the schema-typed encoding.
    HeapInsert {
        txn: u64,
        table: String,
        rid: RecordId,
        tuple: Vec<u8>,
    },
    /// Heap tuple at `rid` overwritten with `tuple`.
    HeapUpdate {
        txn: u64,
        table: String,
        rid: RecordId,
        tuple: Vec<u8>,
    },
    /// Heap tuple at `rid` deleted.
    HeapDelete {
        txn: u64,
        table: String,
        rid: RecordId,
    },
    /// Catalog DDL: table created with `schema`.
    CreateTable {
        txn: u64,
        table: String,
        schema: Schema,
    },
    /// Catalog DDL: table dropped.
    DropTable { txn: u64, table: String },
    /// B-tree index created on column `col` (recovery re-backfills).
    CreateIndex { txn: u64, table: String, col: u32 },
    /// Model-manager event: model registered (version 1). `spec` is the
    /// nn-crate layer-spec stack encoding; `states` the per-layer blobs.
    ModelRegister {
        txn: u64,
        mid: u64,
        ts: u64,
        spec: Vec<u8>,
        states: Vec<Vec<u8>>,
    },
    /// Model-manager event: full version persisted (version promoted by
    /// complete retraining).
    ModelSaveFull {
        txn: u64,
        mid: u64,
        ts: u64,
        states: Vec<Vec<u8>>,
    },
    /// Model-manager event: incremental update applied (only the
    /// fine-tuned trailing layers stored).
    ModelSaveIncremental {
        txn: u64,
        mid: u64,
        ts: u64,
        changed: Vec<(u32, Vec<u8>)>,
    },
    /// Application binding: `(table, target) -> mid` plus opaque
    /// serving metadata (feature columns, loss, standardizer) so PREDICT
    /// serves recovered models instead of retraining.
    ModelBind {
        txn: u64,
        table: String,
        target: String,
        mid: u64,
        meta: Vec<u8>,
    },
    /// Checkpoint completion marker (diagnostic; the authoritative
    /// checkpoint LSN lives in the manifest).
    CheckpointEnd { lsn: u64 },
}

impl WalRecord {
    /// The owning transaction id ([`SYSTEM_TXN`] for auto-committed
    /// records and checkpoint markers).
    pub fn txn(&self) -> u64 {
        match self {
            WalRecord::TxnBegin { txn }
            | WalRecord::TxnCommit { txn }
            | WalRecord::HeapInsert { txn, .. }
            | WalRecord::HeapUpdate { txn, .. }
            | WalRecord::HeapDelete { txn, .. }
            | WalRecord::CreateTable { txn, .. }
            | WalRecord::DropTable { txn, .. }
            | WalRecord::CreateIndex { txn, .. }
            | WalRecord::ModelRegister { txn, .. }
            | WalRecord::ModelSaveFull { txn, .. }
            | WalRecord::ModelSaveIncremental { txn, .. }
            | WalRecord::ModelBind { txn, .. } => *txn,
            WalRecord::CheckpointEnd { .. } => SYSTEM_TXN,
        }
    }

    /// Encode to the frame payload (tag byte + fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            WalRecord::TxnBegin { txn } => {
                w.u8(0);
                w.u64(*txn);
            }
            WalRecord::TxnCommit { txn } => {
                w.u8(1);
                w.u64(*txn);
            }
            WalRecord::HeapInsert {
                txn,
                table,
                rid,
                tuple,
            } => {
                w.u8(3);
                w.u64(*txn);
                w.str(table);
                write_rid(&mut w, *rid);
                w.bytes(tuple);
            }
            WalRecord::HeapUpdate {
                txn,
                table,
                rid,
                tuple,
            } => {
                w.u8(4);
                w.u64(*txn);
                w.str(table);
                write_rid(&mut w, *rid);
                w.bytes(tuple);
            }
            WalRecord::HeapDelete { txn, table, rid } => {
                w.u8(5);
                w.u64(*txn);
                w.str(table);
                write_rid(&mut w, *rid);
            }
            WalRecord::CreateTable { txn, table, schema } => {
                w.u8(6);
                w.u64(*txn);
                w.str(table);
                write_schema(&mut w, schema);
            }
            WalRecord::DropTable { txn, table } => {
                w.u8(7);
                w.u64(*txn);
                w.str(table);
            }
            WalRecord::CreateIndex { txn, table, col } => {
                w.u8(8);
                w.u64(*txn);
                w.str(table);
                w.u32(*col);
            }
            WalRecord::ModelRegister {
                txn,
                mid,
                ts,
                spec,
                states,
            } => {
                w.u8(9);
                w.u64(*txn);
                w.u64(*mid);
                w.u64(*ts);
                w.bytes(spec);
                w.byte_vecs(states);
            }
            WalRecord::ModelSaveFull {
                txn,
                mid,
                ts,
                states,
            } => {
                w.u8(10);
                w.u64(*txn);
                w.u64(*mid);
                w.u64(*ts);
                w.byte_vecs(states);
            }
            WalRecord::ModelSaveIncremental {
                txn,
                mid,
                ts,
                changed,
            } => {
                w.u8(11);
                w.u64(*txn);
                w.u64(*mid);
                w.u64(*ts);
                w.u32(changed.len() as u32);
                for (lid, s) in changed {
                    w.u32(*lid);
                    w.bytes(s);
                }
            }
            WalRecord::ModelBind {
                txn,
                table,
                target,
                mid,
                meta,
            } => {
                w.u8(12);
                w.u64(*txn);
                w.str(table);
                w.str(target);
                w.u64(*mid);
                w.bytes(meta);
            }
            WalRecord::CheckpointEnd { lsn } => {
                w.u8(14);
                w.u64(*lsn);
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload; `None` on malformed input.
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let mut r = Reader(payload);
        let tag = r.u8()?;
        let rec = match tag {
            0 => WalRecord::TxnBegin { txn: r.u64()? },
            1 => WalRecord::TxnCommit { txn: r.u64()? },
            3 => WalRecord::HeapInsert {
                txn: r.u64()?,
                table: r.str()?,
                rid: read_rid(&mut r)?,
                tuple: r.bytes()?.to_vec(),
            },
            4 => WalRecord::HeapUpdate {
                txn: r.u64()?,
                table: r.str()?,
                rid: read_rid(&mut r)?,
                tuple: r.bytes()?.to_vec(),
            },
            5 => WalRecord::HeapDelete {
                txn: r.u64()?,
                table: r.str()?,
                rid: read_rid(&mut r)?,
            },
            6 => WalRecord::CreateTable {
                txn: r.u64()?,
                table: r.str()?,
                schema: read_schema(&mut r)?,
            },
            7 => WalRecord::DropTable {
                txn: r.u64()?,
                table: r.str()?,
            },
            8 => WalRecord::CreateIndex {
                txn: r.u64()?,
                table: r.str()?,
                col: r.u32()?,
            },
            9 => WalRecord::ModelRegister {
                txn: r.u64()?,
                mid: r.u64()?,
                ts: r.u64()?,
                spec: r.bytes()?.to_vec(),
                states: r.byte_vecs()?,
            },
            10 => WalRecord::ModelSaveFull {
                txn: r.u64()?,
                mid: r.u64()?,
                ts: r.u64()?,
                states: r.byte_vecs()?,
            },
            11 => {
                let txn = r.u64()?;
                let mid = r.u64()?;
                let ts = r.u64()?;
                let n = r.u32()? as usize;
                let mut changed = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    let lid = r.u32()?;
                    changed.push((lid, r.bytes()?.to_vec()));
                }
                WalRecord::ModelSaveIncremental {
                    txn,
                    mid,
                    ts,
                    changed,
                }
            }
            12 => WalRecord::ModelBind {
                txn: r.u64()?,
                table: r.str()?,
                target: r.str()?,
                mid: r.u64()?,
                meta: r.bytes()?.to_vec(),
            },
            14 => WalRecord::CheckpointEnd { lsn: r.u64()? },
            _ => return None,
        };
        r.is_empty().then_some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<WalRecord> {
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int).not_null().unique(),
            ColumnDef::new("name", DataType::Text),
        ]);
        vec![
            WalRecord::TxnBegin { txn: 9 },
            WalRecord::TxnCommit { txn: 9 },
            WalRecord::HeapInsert {
                txn: 9,
                table: "t".into(),
                rid: RecordId::new(3, 7),
                tuple: vec![1, 2, 3],
            },
            WalRecord::HeapUpdate {
                txn: 9,
                table: "t".into(),
                rid: RecordId::new(0, 0),
                tuple: vec![],
            },
            WalRecord::HeapDelete {
                txn: 9,
                table: "long table name".into(),
                rid: RecordId::new(u64::MAX, u16::MAX),
            },
            WalRecord::CreateTable {
                txn: 9,
                table: "t".into(),
                schema,
            },
            WalRecord::DropTable {
                txn: 9,
                table: "t".into(),
            },
            WalRecord::CreateIndex {
                txn: 9,
                table: "t".into(),
                col: 2,
            },
            WalRecord::ModelRegister {
                txn: SYSTEM_TXN,
                mid: 1,
                ts: 1,
                spec: vec![9, 9],
                states: vec![vec![1; 64], vec![]],
            },
            WalRecord::ModelSaveFull {
                txn: SYSTEM_TXN,
                mid: 1,
                ts: 2,
                states: vec![vec![2; 8]],
            },
            WalRecord::ModelSaveIncremental {
                txn: SYSTEM_TXN,
                mid: 1,
                ts: 3,
                changed: vec![(2, vec![5; 16])],
            },
            WalRecord::ModelBind {
                txn: SYSTEM_TXN,
                table: "review".into(),
                target: "score".into(),
                mid: 1,
                meta: vec![0xAB; 20],
            },
            WalRecord::CheckpointEnd { lsn: 1 << 33 },
        ]
    }

    #[test]
    fn roundtrip_every_variant() {
        for rec in samples() {
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes).as_ref(), Some(&rec), "{rec:?}");
        }
    }

    #[test]
    fn truncation_and_garbage_fail_cleanly() {
        for rec in samples() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                // Prefixes must never decode to the same record (and must
                // not panic). Some prefixes of variable-length payloads
                // can decode to a *different* valid record; the CRC layer
                // above rejects those in practice.
                let _ = WalRecord::decode(&bytes[..cut]);
            }
        }
        assert_eq!(WalRecord::decode(&[200]), None);
        // Retired tags 2 and 13 no longer decode.
        assert_eq!(WalRecord::decode(&[2, 0, 0, 0, 0, 0, 0, 0, 0]), None);
        assert_eq!(
            WalRecord::decode(&[13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            None
        );
        assert_eq!(WalRecord::decode(&[]), None);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = WalRecord::TxnCommit { txn: 1 }.encode();
        bytes.push(0);
        assert_eq!(WalRecord::decode(&bytes), None);
    }
}
