//! The length-prefixed binary wire protocol.
//!
//! Every frame — request or response — shares one envelope (all integers
//! little-endian):
//!
//! ```text
//! [u32 len][u64 id][u8 tag][body...]
//! ```
//!
//! `len` counts everything after the length field itself (id + tag +
//! body), so a reader needs exactly 4 bytes to learn how much more to
//! buffer; many frames can be decoded from one `read` syscall (request
//! pipelining). `id` is chosen by the client and echoed verbatim in the
//! response; the server answers each connection's requests **in order**,
//! so a client can verify it never lost or reordered a reply. `tag` is the
//! opcode on requests and the status on responses.
//!
//! Body grammar (`lp x` = `u32` length-prefixed bytes):
//!
//! | opcode     | request body        | OK response body            |
//! |------------|---------------------|-----------------------------|
//! | `Ping`     | —                   | —                           |
//! | `Get`      | `lp key`            | `lp value` (or `NotFound`)  |
//! | `Put`      | `lp key, lp value`  | —                           |
//! | `Delete`   | `lp key`            | —                           |
//! | `Scan`     | `lp from, u32 n`    | `u32 k, k × (lp key, lp v)` |
//! | `Stats`    | —                   | `lp json`                   |
//! | `Shutdown` | —                   | —                           |
//! | `Metrics`  | `u8 format`         | `lp text`                   |
//! | `Batch`    | `u32 n, n × sub`    | `u32 n, n × subreply`       |
//! | `Auth`     | `u32 tenant`        | —                           |
//!
//! `Metrics` serves the live telemetry registry; `format` selects JSON
//! (0) or Prometheus text exposition (1). A server running without
//! telemetry answers it with `Err`.
//!
//! `Batch` packs up to [`MAX_BATCH_SUBS`] data-plane sub-requests under
//! one envelope. Each `sub` is `u8 opcode` followed by that opcode's
//! request body (same grammar as the table above); only `Ping`, `Get`,
//! `Put`, `Delete`, and `Scan` may appear — control-plane opcodes and
//! nested batches are malformed. The reply is a single frame whose body
//! carries one `subreply` per sub-request, **in request order**: `u8
//! opcode` (echo), `u8 status`, then the status's body. A malformed
//! sub-request rejects the whole batch with one `Err` frame; framing
//! stays intact and the connection survives.
//!
//! `Auth` binds the connection to a tenant id for the rest of its life:
//! subsequent requests are charged to that tenant's aggregated quota and
//! hit tally, and read the one cache every tenant shares. Connections that never send
//! `Auth` serve the default tenant 0, so pre-tenant clients keep working
//! unchanged.
//!
//! An `Err` response carries `lp message`. Malformed input is answered
//! with a clean `Err` frame; only violations that break framing itself
//! (an oversized or torn length prefix) close the connection, because
//! after one of those the byte stream can no longer be resynchronized.

use bytes::Bytes;

/// Frame-envelope overhead after the length field: id (8) + tag (1).
pub const HEADER_AFTER_LEN: usize = 9;
/// Default ceiling on `len` (16 MiB) — far above any legitimate frame.
pub const DEFAULT_MAX_FRAME: usize = 16 << 20;
/// Ceiling on sub-requests per `Batch` frame; larger counts are malformed.
pub const MAX_BATCH_SUBS: usize = 1024;

/// Request opcodes (the `tag` byte of a request frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Liveness probe; no body.
    Ping = 0,
    /// Point lookup.
    Get = 1,
    /// Insert or overwrite.
    Put = 2,
    /// Delete a key.
    Delete = 3,
    /// Range scan.
    Scan = 4,
    /// Engine + server statistics as JSON.
    Stats = 5,
    /// Ask the server to drain and exit gracefully.
    Shutdown = 6,
    /// Live metrics registry export.
    Metrics = 7,
    /// Many data-plane sub-requests under one envelope.
    Batch = 8,
    /// Bind the connection to a tenant id.
    Auth = 9,
}

impl Opcode {
    /// Decodes the opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Some(match b {
            0 => Opcode::Ping,
            1 => Opcode::Get,
            2 => Opcode::Put,
            3 => Opcode::Delete,
            4 => Opcode::Scan,
            5 => Opcode::Stats,
            6 => Opcode::Shutdown,
            7 => Opcode::Metrics,
            8 => Opcode::Batch,
            9 => Opcode::Auth,
            _ => return None,
        })
    }

    /// Stable lowercase label (used in metrics names and journal events).
    pub fn label(&self) -> &'static str {
        match self {
            Opcode::Ping => "ping",
            Opcode::Get => "get",
            Opcode::Put => "put",
            Opcode::Delete => "delete",
            Opcode::Scan => "scan",
            Opcode::Stats => "stats",
            Opcode::Shutdown => "shutdown",
            Opcode::Metrics => "metrics",
            Opcode::Batch => "batch",
            Opcode::Auth => "auth",
        }
    }

    /// Whether this opcode may appear as a `Batch` sub-request.
    ///
    /// Only data-plane operations batch; control-plane opcodes (`Stats`,
    /// `Shutdown`, `Metrics`) and nested batches are rejected as
    /// malformed.
    pub fn batchable(&self) -> bool {
        matches!(
            self,
            Opcode::Ping | Opcode::Get | Opcode::Put | Opcode::Delete | Opcode::Scan
        )
    }
}

/// Serialization format requested by a `Metrics` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MetricsFormat {
    /// The registry snapshot as pretty JSON.
    Json = 0,
    /// Prometheus text exposition format.
    Prometheus = 1,
}

impl MetricsFormat {
    /// Decodes the format byte.
    pub fn from_u8(b: u8) -> Option<MetricsFormat> {
        Some(match b {
            0 => MetricsFormat::Json,
            1 => MetricsFormat::Prometheus,
            _ => return None,
        })
    }
}

/// Response status (the `tag` byte of a response frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The operation succeeded; the body is the opcode's payload.
    Ok = 0,
    /// A `Get` found no value (not an error).
    NotFound = 1,
    /// The operation failed; the body is `lp message`.
    Err = 2,
}

impl Status {
    /// Decodes the status byte.
    pub fn from_u8(b: u8) -> Option<Status> {
        Some(match b {
            0 => Status::Ok,
            1 => Status::NotFound,
            2 => Status::Err,
            _ => return None,
        })
    }

    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::NotFound => "not_found",
            Status::Err => "err",
        }
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Point lookup of `key`.
    Get {
        /// Target key.
        key: Bytes,
    },
    /// Insert or overwrite `key` with `value`.
    Put {
        /// Target key.
        key: Bytes,
        /// Value payload.
        value: Bytes,
    },
    /// Delete `key`.
    Delete {
        /// Target key.
        key: Bytes,
    },
    /// Scan `limit` entries starting at `from`.
    Scan {
        /// Inclusive start key.
        from: Bytes,
        /// Maximum entries to return.
        limit: u32,
    },
    /// Engine + server statistics.
    Stats,
    /// Graceful server shutdown.
    Shutdown,
    /// Live metrics registry export.
    Metrics {
        /// Requested serialization.
        format: MetricsFormat,
    },
    /// Heterogeneous data-plane sub-requests answered with one in-order
    /// multi-reply. Subs must satisfy [`Opcode::batchable`]; the encoder
    /// does not enforce this, but the decoder rejects violations.
    Batch {
        /// Sub-requests, executed and answered in order.
        subs: Vec<Request>,
    },
    /// Bind this connection to a tenant for quota and cache routing.
    Auth {
        /// Tenant id to bind (0 is the default tenant).
        tenant: u32,
    },
}

impl Request {
    /// The request's opcode.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Ping => Opcode::Ping,
            Request::Get { .. } => Opcode::Get,
            Request::Put { .. } => Opcode::Put,
            Request::Delete { .. } => Opcode::Delete,
            Request::Scan { .. } => Opcode::Scan,
            Request::Stats => Opcode::Stats,
            Request::Shutdown => Opcode::Shutdown,
            Request::Metrics { .. } => Opcode::Metrics,
            Request::Batch { .. } => Opcode::Batch,
            Request::Auth { .. } => Opcode::Auth,
        }
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success with no payload (`Ping`, `Put`, `Delete`, `Shutdown`).
    Ok,
    /// A found value (`Get`).
    Value(Bytes),
    /// `Get` missed.
    NotFound,
    /// Scan results, in key order.
    Entries(Vec<(Bytes, Bytes)>),
    /// Statistics JSON text (`Stats`).
    Stats(String),
    /// Metrics registry export (`Metrics`).
    Metrics(String),
    /// In-order sub-replies to a `Batch` request. Each entry echoes the
    /// sub-request's opcode (the wire needs it to disambiguate `Ok`
    /// bodies) alongside its response.
    Batch(Vec<(Opcode, Response)>),
    /// The request failed; the message explains why.
    Error(String),
}

impl Response {
    /// The status byte this response serializes under.
    pub fn status(&self) -> Status {
        match self {
            Response::NotFound => Status::NotFound,
            Response::Error(_) => Status::Err,
            _ => Status::Ok,
        }
    }
}

/// Why a frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The declared frame length exceeds the configured maximum. Framing
    /// is no longer trustworthy; the connection must close.
    Oversized {
        /// The declared length.
        declared: usize,
        /// The configured ceiling.
        max: usize,
    },
    /// The frame's tag byte is not a known opcode. Framing is intact, so
    /// the connection survives after an error reply.
    UnknownOpcode(u8),
    /// The frame's tag byte is not a known status (client side).
    UnknownStatus(u8),
    /// The body does not match the opcode's grammar. Framing is intact.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared, max } => {
                write!(f, "frame length {declared} exceeds maximum {max}")
            }
            FrameError::UnknownOpcode(b) => write!(f, "unknown opcode {b}"),
            FrameError::UnknownStatus(b) => write!(f, "unknown status {b}"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether a [`FrameError`] poisons the byte stream (connection must
/// close) or leaves framing intact (error reply, connection survives).
pub fn is_fatal(err: &FrameError) -> bool {
    matches!(err, FrameError::Oversized { .. })
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_lp(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// A cursor over a frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        let Some(&b) = self.buf.get(self.pos) else {
            return Err(FrameError::Malformed("truncated u8"));
        };
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let end = self.pos + 4;
        if end > self.buf.len() {
            return Err(FrameError::Malformed("truncated u32"));
        }
        let v = u32::from_le_bytes(self.buf[self.pos..end].try_into().unwrap());
        self.pos = end;
        Ok(v)
    }

    fn lp(&mut self) -> Result<Bytes, FrameError> {
        let n = self.u32()? as usize;
        let end = self.pos + n;
        if end > self.buf.len() {
            return Err(FrameError::Malformed("length-prefixed field overruns body"));
        }
        let b = Bytes::copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(b)
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing bytes after body"))
        }
    }
}

fn encode_frame(out: &mut Vec<u8>, id: u64, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    put_u32(out, 0); // patched below
    out.extend_from_slice(&id.to_le_bytes());
    out.push(tag);
    body(out);
    let frame_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&frame_len.to_le_bytes());
}

/// Writes a request's body (everything after the tag byte) to `out`.
/// Shared by top-level frames and `Batch` sub-requests.
fn put_request_body(out: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Ping | Request::Stats | Request::Shutdown => {}
        Request::Get { key } | Request::Delete { key } => put_lp(out, key),
        Request::Put { key, value } => {
            put_lp(out, key);
            put_lp(out, value);
        }
        Request::Scan { from, limit } => {
            put_lp(out, from);
            put_u32(out, *limit);
        }
        Request::Metrics { format } => out.push(*format as u8),
        Request::Auth { tenant } => put_u32(out, *tenant),
        Request::Batch { subs } => {
            put_u32(out, subs.len() as u32);
            for sub in subs {
                out.push(sub.opcode() as u8);
                put_request_body(out, sub);
            }
        }
    }
}

/// Writes a response's body to `out` (sub-replies recurse through the
/// same grammar, so `Batch` bodies nest naturally — the decoder forbids
/// actual nesting).
fn put_response_body(out: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Ok | Response::NotFound => {}
        Response::Value(v) => put_lp(out, v),
        Response::Entries(entries) => {
            put_u32(out, entries.len() as u32);
            for (k, v) in entries {
                put_lp(out, k);
                put_lp(out, v);
            }
        }
        Response::Stats(json) => put_lp(out, json.as_bytes()),
        Response::Metrics(text) => put_lp(out, text.as_bytes()),
        Response::Batch(subs) => {
            put_u32(out, subs.len() as u32);
            for (op, sub) in subs {
                out.push(*op as u8);
                out.push(sub.status() as u8);
                put_response_body(out, sub);
            }
        }
        Response::Error(msg) => put_lp(out, msg.as_bytes()),
    }
}

/// Appends one encoded request frame to `out`.
pub fn encode_request(out: &mut Vec<u8>, id: u64, req: &Request) {
    encode_frame(out, id, req.opcode() as u8, |out| {
        put_request_body(out, req)
    });
}

/// Appends one encoded response frame to `out`.
pub fn encode_response(out: &mut Vec<u8>, id: u64, resp: &Response) {
    encode_frame(out, id, resp.status() as u8, |out| {
        put_response_body(out, resp)
    });
}

/// One step of frame extraction from a streaming buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Progress<T> {
    /// A complete frame was consumed: the decoded payload (or a
    /// recoverable per-frame error) plus the bytes consumed.
    Frame(Result<(u64, T), (u64, FrameError)>, usize),
    /// Not enough buffered bytes for a complete frame yet.
    Incomplete,
    /// Framing is broken (oversized declared length); close the stream.
    Fatal(FrameError),
}

/// Splits the envelope of the first frame in `buf`, honoring `max_frame`.
fn split_envelope(buf: &[u8], max_frame: usize) -> Progress<(u8, Vec<u8>)> {
    if buf.len() < 4 {
        return Progress::Incomplete;
    }
    let declared = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if declared > max_frame || declared < HEADER_AFTER_LEN {
        return Progress::Fatal(FrameError::Oversized {
            declared,
            max: max_frame,
        });
    }
    if buf.len() < 4 + declared {
        return Progress::Incomplete;
    }
    let id = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let tag = buf[12];
    let body = buf[13..4 + declared].to_vec();
    Progress::Frame(Ok((id, (tag, body))), 4 + declared)
}

/// Attempts to decode one request frame from the front of `buf`.
///
/// A recoverable decode failure (unknown opcode, malformed body) still
/// consumes the frame — the caller replies with an error and keeps the
/// connection; only [`Progress::Fatal`] requires a close.
pub fn decode_request(buf: &[u8], max_frame: usize) -> Progress<Request> {
    let (id, tag, body, consumed) = match split_envelope(buf, max_frame) {
        Progress::Frame(Ok((id, (tag, body))), consumed) => (id, tag, body, consumed),
        Progress::Frame(Err(e), c) => return Progress::Frame(Err(e), c),
        Progress::Incomplete => return Progress::Incomplete,
        Progress::Fatal(e) => return Progress::Fatal(e),
    };
    let Some(op) = Opcode::from_u8(tag) else {
        return Progress::Frame(Err((id, FrameError::UnknownOpcode(tag))), consumed);
    };
    let mut r = Reader::new(&body);
    let parsed = (|| {
        let req = read_request_body(op, &mut r)?;
        r.finish()?;
        Ok(req)
    })();
    match parsed {
        Ok(req) => Progress::Frame(Ok((id, req)), consumed),
        Err(e) => Progress::Frame(Err((id, e)), consumed),
    }
}

/// Parses one request body (the opcode's grammar) from `r` without
/// requiring the reader to be exhausted — `Batch` subs share one body.
fn read_request_body(op: Opcode, r: &mut Reader<'_>) -> Result<Request, FrameError> {
    Ok(match op {
        Opcode::Ping => Request::Ping,
        Opcode::Stats => Request::Stats,
        Opcode::Shutdown => Request::Shutdown,
        Opcode::Get => Request::Get { key: r.lp()? },
        Opcode::Delete => Request::Delete { key: r.lp()? },
        Opcode::Put => Request::Put {
            key: r.lp()?,
            value: r.lp()?,
        },
        Opcode::Scan => Request::Scan {
            from: r.lp()?,
            limit: r.u32()?,
        },
        Opcode::Metrics => Request::Metrics {
            format: MetricsFormat::from_u8(r.u8()?)
                .ok_or(FrameError::Malformed("unknown metrics format"))?,
        },
        Opcode::Auth => Request::Auth { tenant: r.u32()? },
        Opcode::Batch => {
            let n = r.u32()? as usize;
            if n == 0 {
                return Err(FrameError::Malformed("empty batch"));
            }
            if n > MAX_BATCH_SUBS {
                return Err(FrameError::Malformed("batch exceeds MAX_BATCH_SUBS"));
            }
            let mut subs = Vec::with_capacity(n);
            for _ in 0..n {
                let sub_op = Opcode::from_u8(r.u8()?)
                    .ok_or(FrameError::Malformed("unknown opcode in batch"))?;
                if !sub_op.batchable() {
                    return Err(FrameError::Malformed("non-batchable opcode in batch"));
                }
                subs.push(read_request_body(sub_op, r)?);
            }
            Request::Batch { subs }
        }
    })
}

/// Attempts to decode one response frame from the front of `buf`.
///
/// `for_scan` disambiguates `Ok` bodies: the envelope alone cannot tell a
/// `Get` value from a scan result set, so the client passes the opcode it
/// is awaiting (responses arrive strictly in request order).
pub fn decode_response(buf: &[u8], max_frame: usize, awaiting: Opcode) -> Progress<Response> {
    let (id, tag, body, consumed) = match split_envelope(buf, max_frame) {
        Progress::Frame(Ok((id, (tag, body))), consumed) => (id, tag, body, consumed),
        Progress::Frame(Err(e), c) => return Progress::Frame(Err(e), c),
        Progress::Incomplete => return Progress::Incomplete,
        Progress::Fatal(e) => return Progress::Fatal(e),
    };
    let Some(status) = Status::from_u8(tag) else {
        return Progress::Frame(Err((id, FrameError::UnknownStatus(tag))), consumed);
    };
    let mut r = Reader::new(&body);
    let parsed = (|| {
        let resp = read_response_body(status, awaiting, &mut r)?;
        r.finish()?;
        Ok(resp)
    })();
    match parsed {
        Ok(resp) => Progress::Frame(Ok((id, resp)), consumed),
        Err(e) => Progress::Frame(Err((id, e)), consumed),
    }
}

/// Parses one response body from `r` without requiring exhaustion —
/// `Batch` sub-replies share one body.
fn read_response_body(
    status: Status,
    awaiting: Opcode,
    r: &mut Reader<'_>,
) -> Result<Response, FrameError> {
    Ok(match status {
        Status::NotFound => Response::NotFound,
        Status::Err => {
            let msg = r.lp()?;
            Response::Error(String::from_utf8_lossy(&msg).into_owned())
        }
        Status::Ok => match awaiting {
            Opcode::Get => Response::Value(r.lp()?),
            Opcode::Scan => {
                let n = r.u32()? as usize;
                let mut entries = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    entries.push((r.lp()?, r.lp()?));
                }
                Response::Entries(entries)
            }
            Opcode::Stats => {
                let json = r.lp()?;
                Response::Stats(String::from_utf8_lossy(&json).into_owned())
            }
            Opcode::Metrics => {
                let text = r.lp()?;
                Response::Metrics(String::from_utf8_lossy(&text).into_owned())
            }
            Opcode::Batch => {
                let n = r.u32()? as usize;
                if n > MAX_BATCH_SUBS {
                    return Err(FrameError::Malformed("batch reply exceeds MAX_BATCH_SUBS"));
                }
                let mut subs = Vec::with_capacity(n);
                for _ in 0..n {
                    let sub_op = Opcode::from_u8(r.u8()?)
                        .ok_or(FrameError::Malformed("unknown opcode in batch reply"))?;
                    if !sub_op.batchable() {
                        return Err(FrameError::Malformed("non-batchable opcode in batch reply"));
                    }
                    let sub_status = Status::from_u8(r.u8()?)
                        .ok_or(FrameError::Malformed("unknown status in batch reply"))?;
                    subs.push((sub_op, read_response_body(sub_status, sub_op, r)?));
                }
                Response::Batch(subs)
            }
            Opcode::Ping | Opcode::Put | Opcode::Delete | Opcode::Shutdown | Opcode::Auth => {
                Response::Ok
            }
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        encode_request(&mut buf, 42, &req);
        match decode_request(&buf, DEFAULT_MAX_FRAME) {
            Progress::Frame(Ok((id, back)), consumed) => {
                assert_eq!(id, 42);
                assert_eq!(back, req);
                assert_eq!(consumed, buf.len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Get {
            key: Bytes::from_static(b"user1"),
        });
        roundtrip_request(Request::Delete {
            key: Bytes::from_static(b""),
        });
        roundtrip_request(Request::Put {
            key: Bytes::from_static(b"k"),
            value: Bytes::from(vec![0u8, 255, 7]),
        });
        roundtrip_request(Request::Scan {
            from: Bytes::from_static(b"user2"),
            limit: 64,
        });
        roundtrip_request(Request::Metrics {
            format: MetricsFormat::Json,
        });
        roundtrip_request(Request::Metrics {
            format: MetricsFormat::Prometheus,
        });
        roundtrip_request(Request::Auth { tenant: 0 });
        roundtrip_request(Request::Auth { tenant: 7 });
    }

    #[test]
    fn auth_body_is_validated() {
        // Truncated tenant id.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 8, Opcode::Auth as u8, |out| out.push(1));
        assert!(matches!(
            decode_request(&buf, DEFAULT_MAX_FRAME),
            Progress::Frame(Err((8, FrameError::Malformed(_))), _)
        ));
        // Trailing bytes after the tenant id.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 9, Opcode::Auth as u8, |out| {
            put_u32(out, 3);
            out.push(0);
        });
        assert!(matches!(
            decode_request(&buf, DEFAULT_MAX_FRAME),
            Progress::Frame(Err((9, FrameError::Malformed(_))), _)
        ));
        // Auth is control-plane: it may not appear inside a batch.
        assert!(!Opcode::Auth.batchable());
        let mut buf = Vec::new();
        encode_frame(&mut buf, 10, Opcode::Batch as u8, |out| {
            put_u32(out, 1);
            out.push(Opcode::Auth as u8);
            put_u32(out, 3);
        });
        assert!(matches!(
            decode_request(&buf, DEFAULT_MAX_FRAME),
            Progress::Frame(Err((10, FrameError::Malformed(_))), _)
        ));
    }

    #[test]
    fn metrics_format_byte_is_validated() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 3, Opcode::Metrics as u8, |out| out.push(9));
        assert!(matches!(
            decode_request(&buf, DEFAULT_MAX_FRAME),
            Progress::Frame(Err((3, FrameError::Malformed(_))), _)
        ));
        // Missing format byte entirely.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 4, Opcode::Metrics as u8, |_| {});
        assert!(matches!(
            decode_request(&buf, DEFAULT_MAX_FRAME),
            Progress::Frame(Err((4, FrameError::Malformed(_))), _)
        ));
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let mut buf = Vec::new();
        for i in 0..10u64 {
            encode_request(
                &mut buf,
                i,
                &Request::Get {
                    key: Bytes::from(format!("k{i}")),
                },
            );
        }
        let mut at = 0;
        for i in 0..10u64 {
            match decode_request(&buf[at..], DEFAULT_MAX_FRAME) {
                Progress::Frame(Ok((id, Request::Get { key })), consumed) => {
                    assert_eq!(id, i);
                    assert_eq!(key, Bytes::from(format!("k{i}")));
                    at += consumed;
                }
                other => panic!("frame {i}: {other:?}"),
            }
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn truncated_frames_wait_for_more_bytes() {
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            9,
            &Request::Put {
                key: Bytes::from_static(b"key"),
                value: Bytes::from_static(b"value"),
            },
        );
        for cut in 0..buf.len() {
            assert_eq!(
                decode_request(&buf[..cut], DEFAULT_MAX_FRAME),
                Progress::Incomplete,
                "prefix of {cut} bytes must be incomplete"
            );
        }
    }

    #[test]
    fn oversized_length_is_fatal() {
        let mut buf = Vec::new();
        put_u32(&mut buf, (DEFAULT_MAX_FRAME + 1) as u32);
        buf.extend_from_slice(&[0u8; 16]);
        match decode_request(&buf, DEFAULT_MAX_FRAME) {
            Progress::Fatal(FrameError::Oversized { declared, .. }) => {
                assert_eq!(declared, DEFAULT_MAX_FRAME + 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A declared length too small to hold the envelope is equally
        // unrecoverable.
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        buf.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_request(&buf, DEFAULT_MAX_FRAME),
            Progress::Fatal(_)
        ));
    }

    #[test]
    fn unknown_opcode_is_recoverable() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 77, 200, |_| {});
        match decode_request(&buf, DEFAULT_MAX_FRAME) {
            Progress::Frame(Err((id, FrameError::UnknownOpcode(200))), consumed) => {
                assert_eq!(id, 77);
                assert_eq!(consumed, buf.len());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!is_fatal(&FrameError::UnknownOpcode(200)));
        assert!(is_fatal(&FrameError::Oversized {
            declared: 1,
            max: 0
        }));
    }

    #[test]
    fn malformed_body_is_recoverable_and_consumes_the_frame() {
        // A Get whose key length overruns the body.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 5, Opcode::Get as u8, |out| {
            put_u32(out, 1000); // claims 1000 bytes...
            out.extend_from_slice(b"short"); // ...provides 5
        });
        match decode_request(&buf, DEFAULT_MAX_FRAME) {
            Progress::Frame(Err((5, FrameError::Malformed(_))), consumed) => {
                assert_eq!(consumed, buf.len());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Trailing garbage after a well-formed body.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 6, Opcode::Ping as u8, |out| out.push(9));
        assert!(matches!(
            decode_request(&buf, DEFAULT_MAX_FRAME),
            Progress::Frame(Err((6, FrameError::Malformed(_))), _)
        ));
    }

    #[test]
    fn batch_request_roundtrips() {
        roundtrip_request(Request::Batch {
            subs: vec![
                Request::Ping,
                Request::Get {
                    key: Bytes::from_static(b"user1"),
                },
                Request::Put {
                    key: Bytes::from_static(b"k"),
                    value: Bytes::from(vec![0u8, 255, 7]),
                },
                Request::Delete {
                    key: Bytes::from_static(b""),
                },
                Request::Scan {
                    from: Bytes::from_static(b"user2"),
                    limit: 64,
                },
            ],
        });
    }

    #[test]
    fn batch_response_roundtrips() {
        let resp = Response::Batch(vec![
            (Opcode::Ping, Response::Ok),
            (Opcode::Get, Response::Value(Bytes::from_static(b"v"))),
            (Opcode::Get, Response::NotFound),
            (Opcode::Put, Response::Ok),
            (
                Opcode::Scan,
                Response::Entries(vec![(Bytes::from_static(b"a"), Bytes::from_static(b"1"))]),
            ),
            (Opcode::Delete, Response::Error("quota".into())),
        ]);
        let mut buf = Vec::new();
        encode_response(&mut buf, 11, &resp);
        match decode_response(&buf, DEFAULT_MAX_FRAME, Opcode::Batch) {
            Progress::Frame(Ok((11, back)), consumed) => {
                assert_eq!(back, resp);
                assert_eq!(consumed, buf.len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_rejects_empty_oversize_and_non_batchable() {
        // Empty batch.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, Opcode::Batch as u8, |out| put_u32(out, 0));
        assert!(matches!(
            decode_request(&buf, DEFAULT_MAX_FRAME),
            Progress::Frame(Err((1, FrameError::Malformed(_))), _)
        ));
        // Count above the cap.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 2, Opcode::Batch as u8, |out| {
            put_u32(out, (MAX_BATCH_SUBS + 1) as u32)
        });
        assert!(matches!(
            decode_request(&buf, DEFAULT_MAX_FRAME),
            Progress::Frame(Err((2, FrameError::Malformed(_))), _)
        ));
        // Control-plane sub-opcode.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 3, Opcode::Batch as u8, |out| {
            put_u32(out, 1);
            out.push(Opcode::Shutdown as u8);
        });
        assert!(matches!(
            decode_request(&buf, DEFAULT_MAX_FRAME),
            Progress::Frame(Err((3, FrameError::Malformed(_))), _)
        ));
        // Nested batch.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 4, Opcode::Batch as u8, |out| {
            put_u32(out, 1);
            out.push(Opcode::Batch as u8);
            put_u32(out, 1);
            out.push(Opcode::Ping as u8);
        });
        assert!(matches!(
            decode_request(&buf, DEFAULT_MAX_FRAME),
            Progress::Frame(Err((4, FrameError::Malformed(_))), _)
        ));
        // A sub whose body is truncated relative to its grammar.
        let mut buf = Vec::new();
        encode_frame(&mut buf, 5, Opcode::Batch as u8, |out| {
            put_u32(out, 2);
            out.push(Opcode::Get as u8);
            put_lp(out, b"ok-key");
            out.push(Opcode::Get as u8);
            put_u32(out, 900); // claims 900 bytes, provides none
        });
        match decode_request(&buf, DEFAULT_MAX_FRAME) {
            Progress::Frame(Err((5, FrameError::Malformed(_))), consumed) => {
                assert_eq!(consumed, buf.len(), "malformed batch still consumes frame");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip_for_each_awaiting_opcode() {
        let cases: Vec<(Opcode, Response)> = vec![
            (Opcode::Ping, Response::Ok),
            (Opcode::Put, Response::Ok),
            (Opcode::Get, Response::Value(Bytes::from_static(b"v"))),
            (Opcode::Get, Response::NotFound),
            (
                Opcode::Scan,
                Response::Entries(vec![
                    (Bytes::from_static(b"a"), Bytes::from_static(b"1")),
                    (Bytes::from_static(b"b"), Bytes::from_static(b"2")),
                ]),
            ),
            (Opcode::Stats, Response::Stats("{\"x\":1}".into())),
            (
                Opcode::Metrics,
                Response::Metrics("# TYPE adcache_x counter\nadcache_x 1\n".into()),
            ),
            (Opcode::Delete, Response::Error("boom".into())),
        ];
        for (awaiting, resp) in cases {
            let mut buf = Vec::new();
            encode_response(&mut buf, 11, &resp);
            match decode_response(&buf, DEFAULT_MAX_FRAME, awaiting) {
                Progress::Frame(Ok((11, back)), consumed) => {
                    assert_eq!(back, resp, "awaiting {awaiting:?}");
                    assert_eq!(consumed, buf.len());
                }
                other => panic!("awaiting {awaiting:?}: {other:?}"),
            }
        }
    }
}
