//! The versioned, length-prefixed binary wire protocol.
//!
//! Every frame on the wire is `[len: u32 LE][kind: u8][body: len-1 bytes]`
//! — `len` counts the kind byte plus the body and is capped at
//! [`MAX_FRAME`], so a malformed or hostile peer can never make the
//! receiver allocate unbounded memory. All integers are little-endian.
//! Encoding and decoding are explicit and hand-rolled (no serde, no
//! reflection): every field read is bounds-checked and every failure is a
//! typed [`WireError`], never a panic.
//!
//! A connection opens with a handshake: the client sends
//! [`Frame::Hello`] (magic + protocol version), the server answers
//! [`Frame::HelloAck`] carrying the service geometry (global blocks,
//! block size, shard count) so clients can size payloads without
//! out-of-band configuration. After the handshake the client pipelines
//! [`Frame::Request`]s and the server answers with [`Frame::Response`]s
//! **in completion order, not submission order** — responses are matched
//! to requests by tag. `StatsReq`/`StatsResp` and `Shutdown` are control
//! frames; shard health travels in the stats JSON. See [`Frame`] for the
//! full layout table.

use std::io::{Read, Write};

/// Protocol magic, first field of every [`Frame::Hello`] (`"FPN1"`).
pub const MAGIC: u32 = 0x4650_4E31;

/// Protocol version spoken by this implementation. Version 2 dropped the
/// health frames of version 1 and renumbered `Shutdown`.
pub const VERSION: u16 = 2;

/// Upper bound on `len` (kind + body) of any frame. Caps the allocation a
/// peer can force; data payloads are at most one ORAM block, so 1 MiB is
/// generous even for stats JSON.
pub const MAX_FRAME: usize = 1 << 20;

/// Why a frame could not be read, decoded, or written. Every variant is a
/// typed, non-panicking failure; I/O problems are carried as strings so
/// the error stays `Clone + PartialEq` for tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Underlying socket I/O failed.
    Io(String),
    /// The peer closed the connection in the middle of a frame.
    Closed,
    /// A `Hello` carried the wrong magic — the peer is not speaking this
    /// protocol at all.
    BadMagic {
        /// The four bytes received where [`MAGIC`] was expected.
        got: u32,
    },
    /// A `Hello` carried an unsupported protocol version.
    Version {
        /// Version the peer offered.
        got: u16,
        /// Version this implementation speaks.
        want: u16,
    },
    /// The frame kind byte is not one this protocol defines.
    UnknownKind(u8),
    /// A request carried an undefined op code.
    UnknownOp(u8),
    /// A response carried an undefined status code.
    UnknownStatus(u8),
    /// The frame body ended before a declared field. Decoding never reads
    /// past the buffer — this is the typed failure for truncated input.
    Truncated {
        /// Frame kind being decoded.
        kind: &'static str,
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        got: usize,
    },
    /// The length prefix exceeded [`MAX_FRAME`] (or was zero, which
    /// cannot even hold a kind byte).
    Oversize {
        /// Declared frame length.
        len: u64,
        /// The cap it violated.
        max: usize,
    },
    /// The frame body had bytes left over after the last declared field —
    /// a framing bug or corruption, never silently ignored.
    Trailing {
        /// Frame kind being decoded.
        kind: &'static str,
        /// Unconsumed byte count.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Closed => write!(f, "connection closed mid-frame"),
            WireError::BadMagic { got } => {
                write!(f, "bad magic {got:#010x} (want {MAGIC:#010x})")
            }
            WireError::Version { got, want } => {
                write!(f, "unsupported protocol version {got} (want {want})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::UnknownOp(o) => write!(f, "unknown op code {o}"),
            WireError::UnknownStatus(s) => write!(f, "unknown status code {s}"),
            WireError::Truncated { kind, needed, got } => {
                write!(
                    f,
                    "truncated {kind} frame: needed {needed} bytes, got {got}"
                )
            }
            WireError::Oversize { len, max } => {
                write!(f, "frame length {len} outside (0, {max}]")
            }
            WireError::Trailing { kind, extra } => {
                write!(f, "{kind} frame has {extra} trailing bytes")
            }
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(format!("{}: {e}", e.kind()))
    }
}

/// Request direction on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireOp {
    /// Read a block.
    Read,
    /// Write a block (payload must be exactly one block).
    Write,
}

impl WireOp {
    /// Wire code.
    pub(crate) fn code(self) -> u8 {
        match self {
            WireOp::Read => 0,
            WireOp::Write => 1,
        }
    }

    /// Decodes a wire code.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownOp`] for undefined codes.
    pub(crate) fn from_code(c: u8) -> Result<Self, WireError> {
        match c {
            0 => Ok(WireOp::Read),
            1 => Ok(WireOp::Write),
            other => Err(WireError::UnknownOp(other)),
        }
    }
}

/// How a request left the service, as a wire status code. `Ok`, `Late`,
/// `Expired` and `ShardDown` mirror the service's completion statuses;
/// `ShardDown` and the rest also surface submission failures as
/// *statuses on a healthy connection* instead of dropped connections, so
/// one slow shard never tears down a pipelined client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStatus {
    /// Served within its deadline (or it carried none).
    Ok,
    /// Served, but after its deadline had passed.
    Late,
    /// Never executed: its deadline had already passed at admission.
    Expired,
    /// Backpressure: the shard queue, the per-connection in-flight
    /// window, or the connection limit was full. Retryable.
    Busy,
    /// The owning shard's worker died; its addresses are unserviceable
    /// until the service is rebuilt. Not retryable.
    ShardDown,
    /// The address lies outside the advertised global address space.
    OutOfRange,
    /// The server is draining; no new requests are accepted.
    Shutdown,
    /// The request was malformed at the protocol level (e.g. a write
    /// whose payload is not exactly one block, or a read carrying one).
    BadRequest,
}

impl WireStatus {
    /// Every status, in wire-code order.
    pub const ALL: [WireStatus; 8] = [
        WireStatus::Ok,
        WireStatus::Late,
        WireStatus::Expired,
        WireStatus::Busy,
        WireStatus::ShardDown,
        WireStatus::OutOfRange,
        WireStatus::Shutdown,
        WireStatus::BadRequest,
    ];

    /// Wire code.
    pub(crate) fn code(self) -> u8 {
        match self {
            WireStatus::Ok => 0,
            WireStatus::Late => 1,
            WireStatus::Expired => 2,
            WireStatus::Busy => 3,
            WireStatus::ShardDown => 4,
            WireStatus::OutOfRange => 5,
            WireStatus::Shutdown => 6,
            WireStatus::BadRequest => 7,
        }
    }

    /// Decodes a wire code.
    ///
    /// # Errors
    ///
    /// [`WireError::UnknownStatus`] for undefined codes.
    pub(crate) fn from_code(c: u8) -> Result<Self, WireError> {
        WireStatus::ALL
            .get(c as usize)
            .copied()
            .ok_or(WireError::UnknownStatus(c))
    }

    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WireStatus::Ok => "ok",
            WireStatus::Late => "late",
            WireStatus::Expired => "expired",
            WireStatus::Busy => "busy",
            WireStatus::ShardDown => "shard_down",
            WireStatus::OutOfRange => "out_of_range",
            WireStatus::Shutdown => "shutdown",
            WireStatus::BadRequest => "bad_request",
        }
    }
}

/// One client request frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// Client-chosen tag echoed verbatim in the matching response.
    /// Responses arrive out of order; the tag is the join key.
    pub tag: u64,
    /// Direction.
    pub op: WireOp,
    /// Global block address.
    pub addr: u64,
    /// Relative deadline in wall-clock nanoseconds from server receipt;
    /// `0` means no deadline. The server maps it into simulated time —
    /// see the `fp-net` server docs for the mapping.
    pub deadline_rel_ns: u64,
    /// Write payload (exactly one block for writes, empty for reads).
    pub payload: Vec<u8>,
}

/// One server response frame body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// Tag of the request this answers.
    pub tag: u64,
    /// Outcome.
    pub status: WireStatus,
    /// Simulated completion latency in picoseconds (0 for requests that
    /// never executed).
    pub latency_ps: u64,
    /// Data as read (empty for writes, expirations, and errors).
    pub data: Vec<u8>,
}

/// Every frame of the protocol. Body layouts (after `[len: u32][kind: u8]`,
/// all integers little-endian):
///
/// | kind | frame       | body                                                      |
/// |-----:|-------------|-----------------------------------------------------------|
/// | 0    | `Hello`     | magic `u32`, version `u16`                                |
/// | 1    | `HelloAck`  | version `u16`, data_blocks `u64`, block_bytes `u32`, shards `u32` |
/// | 2    | `Request`   | tag `u64`, op `u8`, addr `u64`, deadline_rel_ns `u64`, payload_len `u32`, payload |
/// | 3    | `Response`  | tag `u64`, status `u8`, latency_ps `u64`, data_len `u32`, data |
/// | 4    | `StatsReq`  | (empty)                                                   |
/// | 5    | `StatsResp` | json_len `u32`, UTF-8 JSON                                |
/// | 6    | `Shutdown`  | (empty)                                                   |
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client handshake: magic + version. Decoding checks the magic, so
    /// the variant only carries the version.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
    },
    /// Server handshake reply: negotiated version plus the service
    /// geometry clients need to size requests.
    HelloAck {
        /// Protocol version the server speaks.
        version: u16,
        /// Global program-visible block count.
        data_blocks: u64,
        /// Bytes per block (writes must carry exactly this many).
        block_bytes: u32,
        /// Shard count behind the server.
        shards: u32,
    },
    /// A pipelined data request.
    Request(WireRequest),
    /// A data response, matched to its request by tag.
    Response(WireResponse),
    /// Control: ask for the server's stats JSON.
    StatsReq,
    /// Control reply: combined net + service statistics as JSON, shard
    /// health included (`service.per_shard[i].health`).
    StatsResp {
        /// The stats document.
        json: String,
    },
    /// Control: begin a graceful server drain (stop accepting, answer
    /// everything in flight, then close).
    Shutdown,
}

/// The frame kind table: the one place a wire kind code is written down.
/// [`Frame::kind`] and [`Frame::decode`] match on these names, so a code
/// assigned twice is an unreachable `decode` arm (a clippy-gate error),
/// and a [`Frame`] variant without a `kind` arm does not compile.
pub(crate) mod kind {
    /// [`Frame::Hello`](super::Frame::Hello).
    pub(crate) const HELLO: u8 = 0;
    /// [`Frame::HelloAck`](super::Frame::HelloAck).
    pub(crate) const HELLO_ACK: u8 = 1;
    /// [`Frame::Request`](super::Frame::Request).
    pub(crate) const REQUEST: u8 = 2;
    /// [`Frame::Response`](super::Frame::Response).
    pub(crate) const RESPONSE: u8 = 3;
    /// [`Frame::StatsReq`](super::Frame::StatsReq).
    pub(crate) const STATS_REQ: u8 = 4;
    /// [`Frame::StatsResp`](super::Frame::StatsResp).
    pub(crate) const STATS_RESP: u8 = 5;
    /// [`Frame::Shutdown`](super::Frame::Shutdown).
    pub(crate) const SHUTDOWN: u8 = 6;
}

/// Bounds-checked sequential reader over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    kind: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], kind: &'static str) -> Self {
        Self { buf, pos: 0, kind }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let got = self.buf.len() - self.pos;
        if got < n {
            return Err(WireError::Truncated {
                kind: self.kind,
                needed: n,
                got,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// A `u32` length prefix followed by that many bytes.
    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Asserts the body was fully consumed.
    fn finish(self) -> Result<(), WireError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(WireError::Trailing {
                kind: self.kind,
                extra,
            });
        }
        Ok(())
    }
}

impl Frame {
    /// Wire code of this frame's kind.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => kind::HELLO,
            Frame::HelloAck { .. } => kind::HELLO_ACK,
            Frame::Request(_) => kind::REQUEST,
            Frame::Response(_) => kind::RESPONSE,
            Frame::StatsReq => kind::STATS_REQ,
            Frame::StatsResp { .. } => kind::STATS_RESP,
            Frame::Shutdown => kind::SHUTDOWN,
        }
    }

    /// Stable snake_case kind name for logs and errors.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::HelloAck { .. } => "hello_ack",
            Frame::Request(_) => "request",
            Frame::Response(_) => "response",
            Frame::StatsReq => "stats_req",
            Frame::StatsResp { .. } => "stats_resp",
            Frame::Shutdown => "shutdown",
        }
    }

    /// Appends the full framed encoding (`len` prefix included) to `out`
    /// and returns the number of bytes written.
    pub fn encode(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.extend_from_slice(&[0u8; 4]); // length backpatched below
        out.push(self.kind());
        match self {
            Frame::Hello { version } => {
                out.extend_from_slice(&MAGIC.to_le_bytes());
                out.extend_from_slice(&version.to_le_bytes());
            }
            Frame::HelloAck {
                version,
                data_blocks,
                block_bytes,
                shards,
            } => {
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&data_blocks.to_le_bytes());
                out.extend_from_slice(&block_bytes.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
            }
            Frame::Request(r) => {
                out.extend_from_slice(&r.tag.to_le_bytes());
                out.push(r.op.code());
                out.extend_from_slice(&r.addr.to_le_bytes());
                out.extend_from_slice(&r.deadline_rel_ns.to_le_bytes());
                out.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
                out.extend_from_slice(&r.payload);
            }
            Frame::Response(r) => {
                out.extend_from_slice(&r.tag.to_le_bytes());
                out.push(r.status.code());
                out.extend_from_slice(&r.latency_ps.to_le_bytes());
                out.extend_from_slice(&(r.data.len() as u32).to_le_bytes());
                out.extend_from_slice(&r.data);
            }
            Frame::StatsResp { json } => {
                out.extend_from_slice(&(json.len() as u32).to_le_bytes());
                out.extend_from_slice(json.as_bytes());
            }
            Frame::StatsReq | Frame::Shutdown => {}
        }
        let len = (out.len() - start - 4) as u32;
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        out.len() - start
    }

    /// Decodes a frame from its kind code and body (the bytes after the
    /// length prefix and kind byte).
    ///
    /// # Errors
    ///
    /// Any [`WireError`] decode variant; never panics on malformed input.
    pub fn decode(kind: u8, body: &[u8]) -> Result<Frame, WireError> {
        match kind {
            kind::HELLO => {
                let mut c = Cursor::new(body, "hello");
                let magic = c.u32()?;
                let version = c.u16()?;
                c.finish()?;
                if magic != MAGIC {
                    return Err(WireError::BadMagic { got: magic });
                }
                Ok(Frame::Hello { version })
            }
            kind::HELLO_ACK => {
                let mut c = Cursor::new(body, "hello_ack");
                let f = Frame::HelloAck {
                    version: c.u16()?,
                    data_blocks: c.u64()?,
                    block_bytes: c.u32()?,
                    shards: c.u32()?,
                };
                c.finish()?;
                Ok(f)
            }
            kind::REQUEST => {
                let mut c = Cursor::new(body, "request");
                let tag = c.u64()?;
                let op = WireOp::from_code(c.u8()?)?;
                let addr = c.u64()?;
                let deadline_rel_ns = c.u64()?;
                let payload = c.bytes()?;
                c.finish()?;
                Ok(Frame::Request(WireRequest {
                    tag,
                    op,
                    addr,
                    deadline_rel_ns,
                    payload,
                }))
            }
            kind::RESPONSE => {
                let mut c = Cursor::new(body, "response");
                let tag = c.u64()?;
                let status = WireStatus::from_code(c.u8()?)?;
                let latency_ps = c.u64()?;
                let data = c.bytes()?;
                c.finish()?;
                Ok(Frame::Response(WireResponse {
                    tag,
                    status,
                    latency_ps,
                    data,
                }))
            }
            kind::STATS_REQ => {
                Cursor::new(body, "stats_req").finish()?;
                Ok(Frame::StatsReq)
            }
            kind::STATS_RESP => {
                let mut c = Cursor::new(body, "stats_resp");
                let raw = c.bytes()?;
                c.finish()?;
                let json = String::from_utf8(raw).map_err(|_| WireError::BadUtf8)?;
                Ok(Frame::StatsResp { json })
            }
            kind::SHUTDOWN => {
                Cursor::new(body, "shutdown").finish()?;
                Ok(Frame::Shutdown)
            }
            other => Err(WireError::UnknownKind(other)),
        }
    }
}

/// Reads exactly `buf.len()` bytes. `Ok(false)` means the stream ended
/// cleanly *before the first byte*; an EOF after a partial read is
/// [`WireError::Closed`].
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(false);
                }
                return Err(WireError::Closed);
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary, otherwise the decoded frame and the total bytes consumed
/// (length prefix included).
///
/// # Errors
///
/// Any [`WireError`]: I/O failures, mid-frame EOF ([`WireError::Closed`]),
/// an oversized length prefix (rejected *before* allocating), or any
/// decode failure.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(Frame, usize)>, WireError> {
    let mut len_buf = [0u8; 4];
    if !read_full(r, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(WireError::Oversize {
            len: len as u64,
            max: MAX_FRAME,
        });
    }
    let mut body = vec![0u8; len];
    if !read_full(r, &mut body)? {
        return Err(WireError::Closed);
    }
    let frame = Frame::decode(body[0], &body[1..])?;
    Ok(Some((frame, 4 + len)))
}

/// Encodes and writes one frame, returning the bytes put on the wire.
///
/// # Errors
///
/// [`WireError::Io`] when the underlying write fails.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, WireError> {
    let mut buf = Vec::with_capacity(64);
    let n = frame.encode(&mut buf);
    w.write_all(&buf)?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_rejects_bad_magic_and_version_is_carried() {
        let mut buf = Vec::new();
        Frame::Hello { version: 9 }.encode(&mut buf);
        // Corrupt the magic (first body byte after len+kind).
        buf[5] ^= 0xFF;
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::BadMagic { .. }));
    }

    #[test]
    fn zero_and_oversized_length_prefixes_are_rejected() {
        let zero = 0u32.to_le_bytes();
        assert!(matches!(
            read_frame(&mut zero.as_slice()),
            Err(WireError::Oversize { len: 0, .. })
        ));
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(WireError::Oversize { .. })
        ));
    }

    #[test]
    fn clean_eof_is_none_but_midframe_eof_is_closed() {
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut { empty }).unwrap(), None);
        let mut buf = Vec::new();
        Frame::StatsReq.encode(&mut buf);
        let cut = &buf[..buf.len() - 1];
        // The length prefix promises one more byte than the stream holds.
        assert_eq!(read_frame(&mut { cut }), Err(WireError::Closed));
    }

    #[test]
    fn unknown_codes_are_typed_errors() {
        assert_eq!(Frame::decode(99, &[]), Err(WireError::UnknownKind(99)));
        assert_eq!(WireOp::from_code(7), Err(WireError::UnknownOp(7)));
        assert_eq!(WireStatus::from_code(8), Err(WireError::UnknownStatus(8)));
    }

    #[test]
    fn truncated_and_trailing_bodies_are_typed_errors() {
        let mut buf = Vec::new();
        Frame::Request(WireRequest {
            tag: 1,
            op: WireOp::Read,
            addr: 2,
            deadline_rel_ns: 0,
            payload: vec![5; 8],
        })
        .encode(&mut buf);
        // Body truncated but length prefix fixed up to match: the
        // payload's declared length now exceeds what remains.
        let body = &buf[5..buf.len() - 3];
        assert!(matches!(
            Frame::decode(2, body),
            Err(WireError::Truncated {
                kind: "request",
                ..
            })
        ));
        // Extra bytes after the payload are not silently ignored.
        let mut long = buf[5..].to_vec();
        long.extend_from_slice(&[0, 0]);
        assert!(matches!(
            Frame::decode(2, &long),
            Err(WireError::Trailing {
                kind: "request",
                extra: 2
            })
        ));
    }

    #[test]
    fn status_codes_are_dense_and_named() {
        for (i, s) in WireStatus::ALL.iter().enumerate() {
            assert_eq!(s.code() as usize, i);
            assert_eq!(WireStatus::from_code(s.code()), Ok(*s));
            assert!(!s.name().is_empty());
        }
    }
}
