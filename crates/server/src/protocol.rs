//! The NeurDB wire protocol: length-prefixed binary frames over a byte
//! stream (TCP in practice), text SQL in, typed results back.
//!
//! # Framing
//!
//! Every message is one frame:
//!
//! ```text
//! [u32 BE payload length][u8 frame type][body...]
//! ```
//!
//! The length counts the type byte plus the body and is capped at
//! [`MAX_FRAME_BYTES`]; because every message is self-delimiting, a
//! malformed *body* never desyncs the stream — the peer can answer with
//! an error frame and keep the connection.
//!
//! # Frames
//!
//! Client → server:
//!
//! | type   | body                          |
//! |--------|-------------------------------|
//! | `0x01` | Query: UTF-8 SQL text         |
//! | `0x02` | Close: none (goodbye)         |
//!
//! Server → client:
//!
//! | type   | body                                                   |
//! |--------|--------------------------------------------------------|
//! | `0x80` | Hello: protocol version `u8`, session id `u64`         |
//! | `0x81` | Rows: a [`RowSet`]                                     |
//! | `0x82` | Affected: row count `u64`                              |
//! | `0x83` | Error: kind `u8` ([`WireErrorKind`]), message string   |
//! | `0x84` | Prediction: model id `u64`, trained `u8`, [`RowSet`]   |
//!
//! The server sends exactly one Hello when a connection is admitted
//! (or one Error `TooBusy` frame when it is not), then one response
//! frame per request.
//!
//! # Values
//!
//! Row values use a tag byte per value: `0` NULL, `1` BOOL + `u8`,
//! `2` INT + `i64` BE, `3` FLOAT + `f64` bits BE, `4` TEXT + `u32` BE
//! length + UTF-8 bytes. Strings elsewhere (column names, SQL, error
//! messages) use the same `u32`-prefixed encoding.

use neurdb_storage::Value;
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol version announced in the Hello frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on one frame's payload (type byte + body). Result sets
/// larger than this must be paginated with `LIMIT`; a peer announcing a
/// bigger frame is treated as a protocol error.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

const REQ_QUERY: u8 = 0x01;
const REQ_CLOSE: u8 = 0x02;
const RESP_HELLO: u8 = 0x80;
const RESP_ROWS: u8 = 0x81;
const RESP_AFFECTED: u8 = 0x82;
const RESP_ERROR: u8 = 0x83;
const RESP_PREDICTION: u8 = 0x84;

const VAL_NULL: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_FLOAT: u8 = 3;
const VAL_TEXT: u8 = 4;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Execute one SQL statement.
    Query(String),
    /// Orderly goodbye; the server closes the connection.
    Close,
}

/// Typed result rows (a decoded `QueryResult`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RowSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl RowSet {
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// What kind of failure an error frame reports — the client driver maps
/// each to a distinct [`ClientError`](crate::client::ClientError)
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The statement failed (parse error, unknown table, …); the
    /// connection stays usable.
    Sql,
    /// The peer violated the wire protocol (unknown frame type,
    /// malformed body, oversized frame).
    Protocol,
    /// The server is shutting down; no further statements will run.
    Shutdown,
    /// Admission control rejected the connection (max-connections).
    TooBusy,
    /// The session's open transaction was aborted (statement error or
    /// concurrency-control conflict); its effects were discarded. The
    /// connection stays usable — issue `ROLLBACK` to clear the
    /// transaction state and continue.
    TxnAborted,
}

impl WireErrorKind {
    fn code(self) -> u8 {
        match self {
            WireErrorKind::Sql => 0,
            WireErrorKind::Protocol => 1,
            WireErrorKind::Shutdown => 2,
            WireErrorKind::TooBusy => 3,
            WireErrorKind::TxnAborted => 4,
        }
    }

    fn from_code(c: u8) -> Option<WireErrorKind> {
        Some(match c {
            0 => WireErrorKind::Sql,
            1 => WireErrorKind::Protocol,
            2 => WireErrorKind::Shutdown,
            3 => WireErrorKind::TooBusy,
            4 => WireErrorKind::TxnAborted,
            _ => return None,
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Sent once when a connection is admitted.
    Hello { version: u8, session_id: u64 },
    /// SELECT / SHOW / EXPLAIN results.
    Rows(RowSet),
    /// DML / DDL acknowledgement.
    Affected(u64),
    /// PREDICT results: the serving model id, whether this statement
    /// trained it (first use), and the prediction rows.
    Prediction {
        mid: u64,
        trained: bool,
        rows: RowSet,
    },
    /// A structured failure; see [`WireErrorKind`].
    Error {
        kind: WireErrorKind,
        message: String,
    },
}

/// Errors reading or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes EOF mid-frame).
    Io(io::Error),
    /// The frame decoded to garbage (bad tag, truncated body, trailing
    /// bytes, invalid UTF-8).
    Malformed(String),
    /// The peer announced a frame larger than [`MAX_FRAME_BYTES`] (or
    /// empty).
    Oversized(usize),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::Oversized(n) => {
                write!(f, "invalid frame length {n} (max {MAX_FRAME_BYTES})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

// ------------------------------ writing ------------------------------

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(VAL_NULL),
        Value::Bool(b) => {
            buf.push(VAL_BOOL);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(VAL_INT);
            buf.extend_from_slice(&i.to_be_bytes());
        }
        Value::Float(x) => {
            buf.push(VAL_FLOAT);
            buf.extend_from_slice(&x.to_bits().to_be_bytes());
        }
        Value::Text(s) => {
            buf.push(VAL_TEXT);
            put_str(buf, s);
        }
    }
}

fn put_rowset(buf: &mut Vec<u8>, rs: &RowSet) {
    buf.extend_from_slice(&(rs.columns.len() as u32).to_be_bytes());
    for c in &rs.columns {
        put_str(buf, c);
    }
    buf.extend_from_slice(&(rs.rows.len() as u32).to_be_bytes());
    for row in &rs.rows {
        for v in row.iter().take(rs.columns.len()) {
            put_value(buf, v);
        }
        // Rows narrower than the header are padded with NULLs so the
        // decoder can rely on a rectangular shape.
        for _ in row.len()..rs.columns.len() {
            buf.push(VAL_NULL);
        }
    }
}

fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    // Refuse before any byte hits the wire: an over-cap length prefix
    // would make the peer drop the connection, and a > 4 GiB payload
    // would wrap the u32 prefix and desync the stream. The error kind
    // (`InvalidData`) lets the server answer with a structured error
    // frame instead.
    if payload.is_empty() || payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
                payload.len()
            ),
        ));
    }
    // One write per frame: with Nagle off, a separate length prefix goes
    // out as its own segment, and a peer that reads it before the body
    // arrives blocks and wakes a second time.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Encode and send one request frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    let mut buf = Vec::new();
    match req {
        Request::Query(sql) => {
            buf.push(REQ_QUERY);
            put_str(&mut buf, sql);
        }
        Request::Close => buf.push(REQ_CLOSE),
    }
    write_frame(w, &buf)
}

/// Encode and send one response frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut buf = Vec::new();
    match resp {
        Response::Hello {
            version,
            session_id,
        } => {
            buf.push(RESP_HELLO);
            buf.push(*version);
            buf.extend_from_slice(&session_id.to_be_bytes());
        }
        Response::Rows(rs) => {
            buf.push(RESP_ROWS);
            put_rowset(&mut buf, rs);
        }
        Response::Affected(n) => {
            buf.push(RESP_AFFECTED);
            buf.extend_from_slice(&n.to_be_bytes());
        }
        Response::Prediction { mid, trained, rows } => {
            buf.push(RESP_PREDICTION);
            buf.extend_from_slice(&mid.to_be_bytes());
            buf.push(*trained as u8);
            put_rowset(&mut buf, rows);
        }
        Response::Error { kind, message } => {
            buf.push(RESP_ERROR);
            buf.push(kind.code());
            put_str(&mut buf, message);
        }
    }
    write_frame(w, &buf)
}

// ------------------------------ reading ------------------------------

/// Read one complete frame payload (type byte + body), blocking.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Cursor over a frame body with malformed-frame errors.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.pos + n > self.buf.len() {
            return Err(FrameError::Malformed(format!(
                "truncated frame: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, FrameError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| FrameError::Malformed("invalid UTF-8 string".into()))
    }

    fn value(&mut self) -> Result<Value, FrameError> {
        Ok(match self.u8()? {
            VAL_NULL => Value::Null,
            VAL_BOOL => Value::Bool(self.u8()? != 0),
            VAL_INT => Value::Int(i64::from_be_bytes(self.take(8)?.try_into().unwrap())),
            VAL_FLOAT => Value::Float(f64::from_bits(u64::from_be_bytes(
                self.take(8)?.try_into().unwrap(),
            ))),
            VAL_TEXT => Value::Text(self.string()?),
            tag => return Err(FrameError::Malformed(format!("unknown value tag {tag}"))),
        })
    }

    fn rowset(&mut self) -> Result<RowSet, FrameError> {
        let ncols = self.u32()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1024));
        for _ in 0..ncols {
            columns.push(self.string()?);
        }
        let nrows = self.u32()? as usize;
        let mut rows = Vec::with_capacity(nrows.min(65_536));
        for _ in 0..nrows {
            let mut row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                row.push(self.value()?);
            }
            rows.push(row);
        }
        Ok(RowSet { columns, rows })
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.buf.len() {
            return Err(FrameError::Malformed(format!(
                "{} trailing bytes after frame body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Decode a request frame payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, FrameError> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let req = match c.u8()? {
        REQ_QUERY => Request::Query(c.string()?),
        REQ_CLOSE => Request::Close,
        ty => {
            return Err(FrameError::Malformed(format!(
                "unknown request type {ty:#04x}"
            )))
        }
    };
    c.finish()?;
    Ok(req)
}

/// Decode a response frame payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, FrameError> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let resp = match c.u8()? {
        RESP_HELLO => Response::Hello {
            version: c.u8()?,
            session_id: c.u64()?,
        },
        RESP_ROWS => Response::Rows(c.rowset()?),
        RESP_AFFECTED => Response::Affected(c.u64()?),
        RESP_PREDICTION => Response::Prediction {
            mid: c.u64()?,
            trained: c.u8()? != 0,
            rows: c.rowset()?,
        },
        RESP_ERROR => {
            let code = c.u8()?;
            let kind = WireErrorKind::from_code(code)
                .ok_or_else(|| FrameError::Malformed(format!("unknown error kind {code}")))?;
            Response::Error {
                kind,
                message: c.string()?,
            }
        }
        ty => {
            return Err(FrameError::Malformed(format!(
                "unknown response type {ty:#04x}"
            )))
        }
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, req).unwrap();
        let payload = read_frame(&mut &buf[..]).unwrap();
        decode_request(&payload).unwrap()
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        write_response(&mut buf, resp).unwrap();
        let payload = read_frame(&mut &buf[..]).unwrap();
        decode_response(&payload).unwrap()
    }

    #[test]
    fn request_roundtrips() {
        for req in [
            Request::Query("SELECT * FROM t WHERE a = 'it''s'".into()),
            Request::Query(String::new()),
            Request::Close,
        ] {
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn response_roundtrips_every_value_type() {
        let rs = RowSet {
            columns: vec!["a".into(), "b".into(), "c".into(), "d".into(), "e".into()],
            rows: vec![
                vec![
                    Value::Null,
                    Value::Bool(true),
                    Value::Int(-42),
                    Value::Float(-0.5),
                    Value::Text("héllo".into()),
                ],
                vec![
                    Value::Bool(false),
                    Value::Int(i64::MAX),
                    Value::Float(f64::INFINITY),
                    Value::Text(String::new()),
                    Value::Null,
                ],
            ],
        };
        assert_eq!(
            roundtrip_response(&Response::Rows(rs.clone())),
            Response::Rows(rs)
        );
    }

    #[test]
    fn response_roundtrips_scalar_frames() {
        for resp in [
            Response::Hello {
                version: PROTOCOL_VERSION,
                session_id: 7,
            },
            Response::Affected(0),
            Response::Affected(u64::MAX),
            Response::Prediction {
                mid: 3,
                trained: true,
                rows: RowSet::default(),
            },
        ] {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn error_frame_roundtrips_every_kind() {
        for kind in [
            WireErrorKind::Sql,
            WireErrorKind::Protocol,
            WireErrorKind::Shutdown,
            WireErrorKind::TooBusy,
            WireErrorKind::TxnAborted,
        ] {
            let resp = Response::Error {
                kind,
                message: format!("boom {kind:?}"),
            };
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn nan_survives_the_wire() {
        let rs = RowSet {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Float(f64::NAN)]],
        };
        let Response::Rows(got) = roundtrip_response(&Response::Rows(rs)) else {
            panic!("wrong frame");
        };
        let Value::Float(x) = got.rows[0][0] else {
            panic!("wrong value");
        };
        assert!(x.is_nan());
    }

    #[test]
    fn oversized_and_empty_frames_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::Oversized(_))
        ));
        let zero = 0u32.to_be_bytes();
        assert!(matches!(
            read_frame(&mut &zero[..]),
            Err(FrameError::Oversized(0))
        ));
    }

    #[test]
    fn malformed_bodies_rejected() {
        // Unknown frame types.
        assert!(matches!(
            decode_request(&[0x7f]),
            Err(FrameError::Malformed(_))
        ));
        assert!(matches!(
            decode_response(&[0x7f]),
            Err(FrameError::Malformed(_))
        ));
        // Trailing bytes.
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Close).unwrap();
        let mut payload = read_frame(&mut &buf[..]).unwrap();
        payload.push(0);
        assert!(matches!(
            decode_request(&payload),
            Err(FrameError::Malformed(_))
        ));
        // Truncated string.
        let mut bad = vec![REQ_QUERY];
        bad.extend_from_slice(&100u32.to_be_bytes());
        bad.extend_from_slice(b"short");
        assert!(matches!(
            decode_request(&bad),
            Err(FrameError::Malformed(_))
        ));
        // Unknown error kind.
        let mut bad = vec![RESP_ERROR, 99];
        bad.extend_from_slice(&0u32.to_be_bytes());
        assert!(matches!(
            decode_response(&bad),
            Err(FrameError::Malformed(_))
        ));
        // Non-UTF-8 SQL.
        let mut bad = vec![REQ_QUERY];
        bad.extend_from_slice(&2u32.to_be_bytes());
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            decode_request(&bad),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_write_refused_before_the_wire() {
        let rs = RowSet {
            columns: vec!["x".into()],
            rows: vec![vec![Value::Text("a".repeat(MAX_FRAME_BYTES + 1))]],
        };
        let mut buf = Vec::new();
        let err = write_response(&mut buf, &Response::Rows(rs)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(buf.is_empty(), "no bytes may reach the wire");
    }

    #[test]
    fn eof_mid_frame_is_io() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Query("SELECT 1".into())).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_frame(&mut &buf[..]), Err(FrameError::Io(_))));
    }
}
