//! Wire codec for the `cfd-server` protocol: length-prefixed frames,
//! request/response payload encoding, and the typed failures both ends
//! share. The byte-level layout is specified in the crate docs
//! ([`crate`]); this module is its only implementation — the server and
//! the client both encode and decode through these functions, so the two
//! ends cannot drift.
//!
//! Everything is hand-rolled over `std::io` — no serialization or
//! networking dependencies — and every read is bounds-checked: a
//! malformed or truncated payload produces a typed [`ProtoError`], never
//! a panic or an out-of-bounds slice.

use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling a frame length may never exceed, whatever the
/// configuration asks for (64 MiB).
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Default per-connection frame-size limit (32 MiB) — comfortably above
/// any CSV the test workloads ship, small enough that a garbage length
/// prefix cannot make the server allocate unboundedly.
pub const DEFAULT_MAX_FRAME: usize = 32 * 1024 * 1024;

/// Protocol-level failures. [`ProtoError::Oversized`] and I/O errors end
/// the connection (the frame boundary is unrecoverable once a length
/// prefix is refused); a decode failure inside an intact frame is
/// answered with an error response and the connection continues.
#[derive(Debug)]
pub enum ProtoError {
    /// The stream or payload ended before a field was complete.
    Truncated,
    /// Bytes remained after a complete message was decoded.
    Trailing(usize),
    /// An unknown request opcode.
    BadOpcode(u8),
    /// An invalid tag byte (option/bool/status fields).
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A frame length prefix exceeded the negotiated maximum.
    Oversized { len: usize, max: usize },
    /// The underlying transport failed.
    Io(io::Error),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing byte(s) after message"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::BadTag(t) => write!(f, "invalid tag byte 0x{t:02x}"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes (max {max})")
            }
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// framing

/// Read one `u32`-LE length-prefixed frame. Returns `Ok(None)` on a
/// clean disconnect (EOF exactly at a frame boundary); EOF inside a
/// frame is [`ProtoError::Truncated`]. A length prefix above `max` is
/// rejected **before** allocating.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(ProtoError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    let max = max.min(MAX_FRAME);
    if len > max {
        return Err(ProtoError::Oversized { len, max });
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(e)
        }
    })?;
    Ok(Some(buf))
}

/// Write one length-prefixed frame and flush.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8], max: usize) -> Result<(), ProtoError> {
    let max = max.min(MAX_FRAME);
    if payload.len() > max {
        return Err(ProtoError::Oversized {
            len: payload.len(),
            max,
        });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// primitive encode/decode

struct Enc(Vec<u8>);

impl Enc {
    fn new(opcode: u8) -> Enc {
        Enc(vec![opcode])
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn bool(&mut self, v: bool) {
        self.0.push(v as u8);
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.0.extend_from_slice(v);
    }

    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    fn opt_bytes(&mut self, v: Option<&[u8]>) {
        match v {
            Some(b) => {
                self.u8(1);
                self.bytes(b);
            }
            None => self.u8(0),
        }
    }

    fn opt_str(&mut self, v: Option<&str>) {
        self.opt_bytes(v.map(str::as_bytes));
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        let b = *self.buf.get(self.pos).ok_or(ProtoError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let end = self.pos.checked_add(4).ok_or(ProtoError::Truncated)?;
        let chunk = self.buf.get(self.pos..end).ok_or(ProtoError::Truncated)?;
        self.pos = end;
        Ok(u32::from_le_bytes(chunk.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let end = self.pos.checked_add(8).ok_or(ProtoError::Truncated)?;
        let chunk = self.buf.get(self.pos..end).ok_or(ProtoError::Truncated)?;
        self.pos = end;
        Ok(u64::from_le_bytes(chunk.try_into().expect("8-byte slice")))
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(ProtoError::BadTag(t)),
        }
    }

    fn bytes(&mut self) -> Result<&'a [u8], ProtoError> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len).ok_or(ProtoError::Truncated)?;
        let chunk = self.buf.get(self.pos..end).ok_or(ProtoError::Truncated)?;
        self.pos = end;
        Ok(chunk)
    }

    fn str(&mut self) -> Result<&'a str, ProtoError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| ProtoError::BadUtf8)
    }

    fn opt_bytes(&mut self) -> Result<Option<&'a [u8]>, ProtoError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.bytes()?)),
            t => Err(ProtoError::BadTag(t)),
        }
    }

    fn opt_str(&mut self) -> Result<Option<&'a str>, ProtoError> {
        match self.opt_bytes()? {
            None => Ok(None),
            Some(b) => std::str::from_utf8(b)
                .map(Some)
                .map_err(|_| ProtoError::BadUtf8),
        }
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ProtoError::Trailing(self.buf.len() - self.pos))
        }
    }
}

// ---------------------------------------------------------------------------
// requests

/// The shared repair knobs as the wire carries them — string spellings
/// identical to the CLI flags, lowered server-side to
/// [`cfd_repair::RepairOptions`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairSpec {
    /// `batch`, `v-inc`, `w-inc`, or `l-inc`.
    pub algorithm: String,
    /// `global` or `dependency`.
    pub pick: String,
    /// TUPLERESOLVE attribute-set size.
    pub k: u32,
}

impl Default for RepairSpec {
    fn default() -> Self {
        RepairSpec {
            algorithm: "batch".to_string(),
            pick: "global".to_string(),
            k: 2,
        }
    }
}

/// One request frame. See the crate docs for the per-opcode layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Open CSV bytes (plus optional rule text and weight CSV) as a
    /// named resident dataset.
    Open {
        name: String,
        csv: Vec<u8>,
        rules: Option<String>,
        weights: Option<Vec<u8>>,
    },
    /// Load a catalog snapshot as a resident dataset, optionally under
    /// a different dataset name (so one snapshot file can back several
    /// resident datasets sharing a single zero-copy mapping).
    OpenSnapshot {
        name: String,
        as_name: Option<String>,
    },
    /// Render the violation report for an open dataset.
    Detect { dataset: String, limit: u32 },
    /// Run a repair; the resident dataset is not mutated.
    Repair {
        dataset: String,
        spec: RepairSpec,
        want_edits: bool,
        want_stats: bool,
    },
    /// Incrementally repair a batch of new tuples against the dataset.
    Insert {
        dataset: String,
        csv: Vec<u8>,
        weights: Option<Vec<u8>>,
        /// `b'v'`, `b'w'`, or `b'l'`.
        ordering: u8,
        k: u32,
    },
    /// Persist an open dataset to the catalog.
    SnapshotSave { dataset: String, as_name: String },
    /// Describe one catalog snapshot, or list the catalog when `None`.
    SnapshotInfo { name: Option<String> },
    /// Evict an open dataset, returning its pool memory.
    Evict { dataset: String },
    /// Names of the open datasets.
    List,
    /// Session status.
    Stats,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
    /// Open a windowed streaming repair session on a dataset.
    StreamOpen {
        dataset: String,
        /// Window size `W` in timestamp units.
        size: u64,
        /// Window slide `S` (`1 ≤ S ≤ W`; `S = W` is tumbling).
        slide: u64,
        /// `b'v'`, `b'w'`, or `b'l'`.
        ordering: u8,
        k: u32,
    },
    /// Queue a batch of timestamped events (the `i <ts> <csv-row>` /
    /// `d <ts> <tuple-id>` text format) into the dataset's stream.
    StreamFeed { dataset: String, events: Vec<u8> },
    /// Advance the stream's watermark, closing and repairing every
    /// window that ends at or before it.
    StreamAdvance { dataset: String, watermark: u64 },
    /// Flush all queued windows and shut the dataset's stream down.
    StreamClose { dataset: String },
}

const OP_PING: u8 = 0x01;
const OP_OPEN: u8 = 0x02;
const OP_OPEN_SNAPSHOT: u8 = 0x03;
const OP_DETECT: u8 = 0x04;
const OP_REPAIR: u8 = 0x05;
const OP_INSERT: u8 = 0x06;
const OP_SNAPSHOT_SAVE: u8 = 0x07;
const OP_SNAPSHOT_INFO: u8 = 0x08;
const OP_EVICT: u8 = 0x09;
const OP_LIST: u8 = 0x0a;
const OP_STATS: u8 = 0x0b;
const OP_SHUTDOWN: u8 = 0x0c;
const OP_STREAM_OPEN: u8 = 0x0d;
const OP_STREAM_FEED: u8 = 0x0e;
const OP_STREAM_ADVANCE: u8 = 0x0f;
const OP_STREAM_CLOSE: u8 = 0x10;

/// Encode a request payload (the frame body, without the length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Ping => Enc::new(OP_PING).0,
        Request::Open {
            name,
            csv,
            rules,
            weights,
        } => {
            let mut e = Enc::new(OP_OPEN);
            e.str(name);
            e.bytes(csv);
            e.opt_str(rules.as_deref());
            e.opt_bytes(weights.as_deref());
            e.0
        }
        Request::OpenSnapshot { name, as_name } => {
            let mut e = Enc::new(OP_OPEN_SNAPSHOT);
            e.str(name);
            e.opt_str(as_name.as_deref());
            e.0
        }
        Request::Detect { dataset, limit } => {
            let mut e = Enc::new(OP_DETECT);
            e.str(dataset);
            e.u32(*limit);
            e.0
        }
        Request::Repair {
            dataset,
            spec,
            want_edits,
            want_stats,
        } => {
            let mut e = Enc::new(OP_REPAIR);
            e.str(dataset);
            e.str(&spec.algorithm);
            e.str(&spec.pick);
            e.u32(spec.k);
            e.bool(*want_edits);
            e.bool(*want_stats);
            e.0
        }
        Request::Insert {
            dataset,
            csv,
            weights,
            ordering,
            k,
        } => {
            let mut e = Enc::new(OP_INSERT);
            e.str(dataset);
            e.bytes(csv);
            e.opt_bytes(weights.as_deref());
            e.u8(*ordering);
            e.u32(*k);
            e.0
        }
        Request::SnapshotSave { dataset, as_name } => {
            let mut e = Enc::new(OP_SNAPSHOT_SAVE);
            e.str(dataset);
            e.str(as_name);
            e.0
        }
        Request::SnapshotInfo { name } => {
            let mut e = Enc::new(OP_SNAPSHOT_INFO);
            e.opt_str(name.as_deref());
            e.0
        }
        Request::Evict { dataset } => {
            let mut e = Enc::new(OP_EVICT);
            e.str(dataset);
            e.0
        }
        Request::List => Enc::new(OP_LIST).0,
        Request::Stats => Enc::new(OP_STATS).0,
        Request::Shutdown => Enc::new(OP_SHUTDOWN).0,
        Request::StreamOpen {
            dataset,
            size,
            slide,
            ordering,
            k,
        } => {
            let mut e = Enc::new(OP_STREAM_OPEN);
            e.str(dataset);
            e.u64(*size);
            e.u64(*slide);
            e.u8(*ordering);
            e.u32(*k);
            e.0
        }
        Request::StreamFeed { dataset, events } => {
            let mut e = Enc::new(OP_STREAM_FEED);
            e.str(dataset);
            e.bytes(events);
            e.0
        }
        Request::StreamAdvance { dataset, watermark } => {
            let mut e = Enc::new(OP_STREAM_ADVANCE);
            e.str(dataset);
            e.u64(*watermark);
            e.0
        }
        Request::StreamClose { dataset } => {
            let mut e = Enc::new(OP_STREAM_CLOSE);
            e.str(dataset);
            e.0
        }
    }
}

/// Decode a request payload. Rejects unknown opcodes, truncated fields,
/// bad tags, and trailing bytes with a typed error — never panics.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut d = Dec::new(payload);
    let op = d.u8()?;
    let req = match op {
        OP_PING => Request::Ping,
        OP_OPEN => Request::Open {
            name: d.str()?.to_string(),
            csv: d.bytes()?.to_vec(),
            rules: d.opt_str()?.map(str::to_string),
            weights: d.opt_bytes()?.map(<[u8]>::to_vec),
        },
        OP_OPEN_SNAPSHOT => Request::OpenSnapshot {
            name: d.str()?.to_string(),
            as_name: d.opt_str()?.map(str::to_string),
        },
        OP_DETECT => Request::Detect {
            dataset: d.str()?.to_string(),
            limit: d.u32()?,
        },
        OP_REPAIR => Request::Repair {
            dataset: d.str()?.to_string(),
            spec: RepairSpec {
                algorithm: d.str()?.to_string(),
                pick: d.str()?.to_string(),
                k: d.u32()?,
            },
            want_edits: d.bool()?,
            want_stats: d.bool()?,
        },
        OP_INSERT => Request::Insert {
            dataset: d.str()?.to_string(),
            csv: d.bytes()?.to_vec(),
            weights: d.opt_bytes()?.map(<[u8]>::to_vec),
            ordering: d.u8()?,
            k: d.u32()?,
        },
        OP_SNAPSHOT_SAVE => Request::SnapshotSave {
            dataset: d.str()?.to_string(),
            as_name: d.str()?.to_string(),
        },
        OP_SNAPSHOT_INFO => Request::SnapshotInfo {
            name: d.opt_str()?.map(str::to_string),
        },
        OP_EVICT => Request::Evict {
            dataset: d.str()?.to_string(),
        },
        OP_LIST => Request::List,
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        OP_STREAM_OPEN => Request::StreamOpen {
            dataset: d.str()?.to_string(),
            size: d.u64()?,
            slide: d.u64()?,
            ordering: d.u8()?,
            k: d.u32()?,
        },
        OP_STREAM_FEED => Request::StreamFeed {
            dataset: d.str()?.to_string(),
            events: d.bytes()?.to_vec(),
        },
        OP_STREAM_ADVANCE => Request::StreamAdvance {
            dataset: d.str()?.to_string(),
            watermark: d.u64()?,
        },
        OP_STREAM_CLOSE => Request::StreamClose {
            dataset: d.str()?.to_string(),
        },
        other => return Err(ProtoError::BadOpcode(other)),
    };
    d.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// responses

/// Typed error kinds, mirroring [`cfdclean::SessionError`] plus the
/// transport-level failures only the daemon can produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    UnknownDataset,
    AlreadyOpen,
    Evicted,
    NoRules,
    NoCatalog,
    Data,
    Rules,
    Snapshot,
    Repair,
    Internal,
    /// Malformed frame or payload.
    Protocol,
    /// The request exceeded the server's per-request timeout.
    Timeout,
    /// The dataset's lock is poisoned by a panicked request; evicting
    /// it recovers.
    Poisoned,
    /// A streaming-session failure: no stream open, already open, bad
    /// window geometry, malformed or late events, bad delete targets.
    Stream,
}

impl ErrorKind {
    fn to_u8(self) -> u8 {
        match self {
            ErrorKind::UnknownDataset => 0,
            ErrorKind::AlreadyOpen => 1,
            ErrorKind::Evicted => 2,
            ErrorKind::NoRules => 3,
            ErrorKind::NoCatalog => 4,
            ErrorKind::Data => 5,
            ErrorKind::Rules => 6,
            ErrorKind::Snapshot => 7,
            ErrorKind::Repair => 8,
            ErrorKind::Internal => 9,
            ErrorKind::Protocol => 10,
            ErrorKind::Timeout => 11,
            ErrorKind::Poisoned => 12,
            ErrorKind::Stream => 13,
        }
    }

    fn from_u8(v: u8) -> Result<ErrorKind, ProtoError> {
        Ok(match v {
            0 => ErrorKind::UnknownDataset,
            1 => ErrorKind::AlreadyOpen,
            2 => ErrorKind::Evicted,
            3 => ErrorKind::NoRules,
            4 => ErrorKind::NoCatalog,
            5 => ErrorKind::Data,
            6 => ErrorKind::Rules,
            7 => ErrorKind::Snapshot,
            8 => ErrorKind::Repair,
            9 => ErrorKind::Internal,
            10 => ErrorKind::Protocol,
            11 => ErrorKind::Timeout,
            12 => ErrorKind::Poisoned,
            13 => ErrorKind::Stream,
            t => return Err(ProtoError::BadTag(t)),
        })
    }
}

/// One response frame: a success payload (text plus opcode-specific
/// binary attachments — repair CSVs, edit logs) or a typed error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    Ok {
        /// Human-readable result text (deterministic: no timings, no
        /// machine-local paths except where the operation names one).
        text: String,
        /// Binary attachments, opcode-specific (e.g. repair → `[csv]`
        /// or `[csv, edit_log]`; insert → `[csv]`).
        blobs: Vec<Vec<u8>>,
    },
    Err {
        kind: ErrorKind,
        message: String,
    },
}

impl Response {
    /// A bare success with no attachments.
    pub fn ok(text: impl Into<String>) -> Response {
        Response::Ok {
            text: text.into(),
            blobs: Vec::new(),
        }
    }

    /// A typed error.
    pub fn err(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Err {
            kind,
            message: message.into(),
        }
    }
}

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Encode a response payload (the frame body, without the length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Ok { text, blobs } => {
            let mut e = Enc::new(STATUS_OK);
            e.str(text);
            e.u8(blobs.len() as u8);
            for b in blobs {
                e.bytes(b);
            }
            e.0
        }
        Response::Err { kind, message } => {
            let mut e = Enc::new(STATUS_ERR);
            e.u8(kind.to_u8());
            e.str(message);
            e.0
        }
    }
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut d = Dec::new(payload);
    let resp = match d.u8()? {
        STATUS_OK => {
            let text = d.str()?.to_string();
            let count = d.u8()? as usize;
            let mut blobs = Vec::with_capacity(count);
            for _ in 0..count {
                blobs.push(d.bytes()?.to_vec());
            }
            Response::Ok { text, blobs }
        }
        STATUS_ERR => Response::Err {
            kind: ErrorKind::from_u8(d.u8()?)?,
            message: d.str()?.to_string(),
        },
        t => return Err(ProtoError::BadTag(t)),
    };
    d.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(req: Request) {
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip(Request::Ping);
        round_trip(Request::Open {
            name: "cust".into(),
            csv: b"a,b\n1,2\n".to_vec(),
            rules: Some("phi: [a] -> [b]".into()),
            weights: None,
        });
        round_trip(Request::OpenSnapshot {
            name: "x".into(),
            as_name: None,
        });
        round_trip(Request::OpenSnapshot {
            name: "x".into(),
            as_name: Some("y".into()),
        });
        round_trip(Request::Detect {
            dataset: "cust".into(),
            limit: 5,
        });
        round_trip(Request::Repair {
            dataset: "cust".into(),
            spec: RepairSpec {
                algorithm: "v-inc".into(),
                pick: "dependency".into(),
                k: 3,
            },
            want_edits: true,
            want_stats: false,
        });
        round_trip(Request::Insert {
            dataset: "cust".into(),
            csv: b"a,b\n9,9\n".to_vec(),
            weights: Some(b"a,b\n1.0,0.5\n".to_vec()),
            ordering: b'w',
            k: 2,
        });
        round_trip(Request::SnapshotSave {
            dataset: "cust".into(),
            as_name: "cust-clean".into(),
        });
        round_trip(Request::SnapshotInfo { name: None });
        round_trip(Request::SnapshotInfo {
            name: Some("cust".into()),
        });
        round_trip(Request::Evict {
            dataset: "cust".into(),
        });
        round_trip(Request::List);
        round_trip(Request::Stats);
        round_trip(Request::Shutdown);
        round_trip(Request::StreamOpen {
            dataset: "cust".into(),
            size: u64::MAX,
            slide: 7,
            ordering: b'v',
            k: 1,
        });
        round_trip(Request::StreamFeed {
            dataset: "cust".into(),
            events: b"i 3 212,5556611,NYC,NY,10012\nd 5 0\n".to_vec(),
        });
        round_trip(Request::StreamAdvance {
            dataset: "cust".into(),
            watermark: 1 << 40,
        });
        round_trip(Request::StreamClose {
            dataset: "cust".into(),
        });
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::ok("pong"),
            Response::Ok {
                text: "repaired".into(),
                blobs: vec![b"a,b\n1,2\n".to_vec(), Vec::new()],
            },
            Response::err(ErrorKind::UnknownDataset, "no dataset named \"x\" is open"),
            Response::err(ErrorKind::Timeout, "request timed out"),
            Response::err(ErrorKind::Poisoned, "dataset \"x\" is poisoned"),
            Response::err(ErrorKind::Stream, "window 3: late event"),
        ] {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn malformed_payloads_produce_typed_errors_not_panics() {
        assert!(matches!(decode_request(&[]), Err(ProtoError::Truncated)));
        assert!(matches!(
            decode_request(&[0xff]),
            Err(ProtoError::BadOpcode(0xff))
        ));
        // Opcode valid, string length claims more bytes than present.
        assert!(matches!(
            decode_request(&[OP_EVICT, 200, 0, 0, 0, b'x']),
            Err(ProtoError::Truncated)
        ));
        // Option tag must be 0 or 1.
        let mut bad = encode_request(&Request::SnapshotInfo { name: None });
        bad[1] = 7;
        assert!(matches!(decode_request(&bad), Err(ProtoError::BadTag(7))));
        // Trailing garbage after a complete message.
        let mut trailing = encode_request(&Request::Ping);
        trailing.push(0);
        assert!(matches!(
            decode_request(&trailing),
            Err(ProtoError::Trailing(1))
        ));
        // Non-UTF-8 in a string field.
        let mut e = Vec::from([OP_EVICT]);
        e.extend_from_slice(&2u32.to_le_bytes());
        e.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(decode_request(&e), Err(ProtoError::BadUtf8)));
    }

    #[test]
    fn retired_repair_layout_is_a_typed_error() {
        // Three retired Repair layouts carry fields the current frame
        // lacks after `k`: a `simd:opt<bool>` kernel override; before
        // that also a `threads:opt<u32>` override ahead of it; and before
        // that also a speculation-depth `opt<u32>` between the two. A
        // stale client's frame must fail to decode — never decode to a
        // different request.
        let opt_u32 = |e: &mut Enc, v: Option<u32>| match v {
            Some(n) => {
                e.u8(1);
                e.u32(n);
            }
            None => e.u8(0),
        };
        let legacy = |threads: Option<Option<u32>>,
                      depth: Option<Option<u32>>,
                      simd: Option<bool>,
                      edits: bool,
                      stats: bool| {
            let spec = RepairSpec::default();
            let mut e = Enc::new(OP_REPAIR);
            e.str("cust");
            e.str(&spec.algorithm);
            e.str(&spec.pick);
            e.u32(spec.k);
            if let Some(threads) = threads {
                opt_u32(&mut e, threads);
            }
            if let Some(depth) = depth {
                opt_u32(&mut e, depth);
            }
            match simd {
                Some(b) => {
                    e.u8(1);
                    e.bool(b);
                }
                None => e.u8(0),
            }
            e.bool(edits);
            e.bool(stats);
            e.0
        };
        let mut frames = 0;
        for depth in [None, Some(None), Some(Some(8))] {
            for threads in [None, Some(None), Some(Some(1)), Some(Some(2))] {
                if threads.is_none() && depth.is_some() {
                    continue; // the depth field only ever followed `threads`
                }
                for simd in [None, Some(false), Some(true)] {
                    for edits in [false, true] {
                        for stats in [false, true] {
                            let frame = legacy(threads, depth, simd, edits, stats);
                            let got = decode_request(&frame);
                            assert!(
                                matches!(got, Err(ProtoError::Trailing(_) | ProtoError::BadTag(_))),
                                "depth={depth:?} threads={threads:?} simd={simd:?} \
                                 edits={edits} stats={stats}: {got:?}"
                            );
                            frames += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(frames, 120);
    }

    #[test]
    fn framing_is_bounded_and_eof_aware() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", DEFAULT_MAX_FRAME).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"hello"
        );
        // Clean EOF at the boundary.
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none());
        // A huge length prefix is rejected before allocation.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut &huge[..], DEFAULT_MAX_FRAME),
            Err(ProtoError::Oversized { .. })
        ));
        // EOF mid-frame is truncation, not a clean close.
        let mut cut = Vec::new();
        write_frame(&mut cut, b"hello", DEFAULT_MAX_FRAME).unwrap();
        cut.truncate(6);
        assert!(matches!(
            read_frame(&mut &cut[..], DEFAULT_MAX_FRAME),
            Err(ProtoError::Truncated)
        ));
        // Writing above the limit is refused.
        assert!(matches!(
            write_frame(&mut Vec::new(), &[0u8; 16], 8),
            Err(ProtoError::Oversized { .. })
        ));
    }
}
