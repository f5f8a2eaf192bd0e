//! The client wire protocol: framed, checksummed, explicitly sequenced.
//!
//! Every request a client sends is one self-describing byte frame carrying
//! the two fields the whole service contract hangs off:
//!
//! * **`client_id`** — the durable identity of the request stream. It
//!   survives process restarts and PID reuse: a client that crashes and
//!   reconnects presents the *same* `client_id`, which is what lets the
//!   server's session table recognize re-sent requests.
//! * **`seq_no`** — the position in that client's program order, assigned
//!   contiguously from 1 by the client library. The server applies
//!   `seq_no == last_applied + 1` exactly once; anything at or below
//!   `last_applied` is a duplicate and is answered from the reply cache
//!   without re-execution.
//!
//! # Frame layout (little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "MIFQ"
//! 4       4     frame length in bytes, including the checksum
//! 8       8     client_id
//! 16      8     seq_no
//! 24      8     sent_at_ns (client clock at submit; ack-latency accounting)
//! 32      1     opcode
//! 33      ...   op payload (see below)
//! len-8   8     FNV-1a 64 checksum of bytes [0, len-8)
//! ```
//!
//! Op payloads:
//!
//! | op      | payload |
//! |---------|---------|
//! | create  | `u16` name length, name bytes (UTF-8), `u8` has-hint, `u64` hint blocks |
//! | open    | `u16` name length, name bytes |
//! | write   | `u64` handle, `u32` stream, `u64` offset, `u64` len |
//! | read    | `u64` handle, `u32` stream, `u64` offset, `u64` len |
//! | sync    | (empty) |
//! | close   | `u64` handle |
//!
//! Decoding is strict: bad magic, a length that disagrees with the buffer,
//! a checksum mismatch, an unknown opcode, non-UTF-8 names or trailing
//! bytes are each their own [`FrameError`] — a corrupted frame is refused
//! before it can reach the engine.

/// Durable client identity (survives restart / PID reuse).
pub type ClientId = u64;

/// Position in one client's program order (first request is 1).
pub type SeqNo = u64;

/// A server-issued file handle ([`mif_alloc::FileId`] raw value).
pub type Handle = u64;

/// The longest name a `Create` / `Open` frame carries: its length travels
/// as a `u16`.
pub const MAX_NAME_BYTES: usize = u16::MAX as usize;

const MAGIC: [u8; 4] = *b"MIFQ";
const HEADER_BYTES: usize = 33;
const CHECKSUM_BYTES: usize = 8;

/// One operation a client can ask of the service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Create a file; replies with its handle.
    Create {
        name: String,
        size_hint_blocks: Option<u64>,
    },
    /// Open by name; replies with the handle or `NotFound`.
    Open { name: String },
    /// Write `len` blocks at `offset` as the client's `stream`. Mutating:
    /// its ack implies the WAL record is durable.
    Write {
        handle: Handle,
        stream: u32,
        offset: u64,
        len: u64,
    },
    /// Read `len` blocks at `offset` (serviced at the next flush).
    Read {
        handle: Handle,
        stream: u32,
        offset: u64,
        len: u64,
    },
    /// Durability barrier: flush every queued write and the WAL. Mutating.
    Sync,
    /// Drop one handle reference. Mutating (the last close releases
    /// preallocation windows).
    Close { handle: Handle },
}

impl Op {
    /// Does this op change state? Mutating acks gate on the durable
    /// watermark; read-only acks do not.
    pub fn is_mutating(&self) -> bool {
        !matches!(self, Op::Open { .. } | Op::Read { .. })
    }

    /// The name a `Create` / `Open` carries.
    pub(crate) fn name(&self) -> Option<&str> {
        match self {
            Op::Create { name, .. } | Op::Open { name } => Some(name),
            _ => None,
        }
    }

    fn opcode(&self) -> u8 {
        match self {
            Op::Create { .. } => 1,
            Op::Open { .. } => 2,
            Op::Write { .. } => 3,
            Op::Read { .. } => 4,
            Op::Sync => 5,
            Op::Close { .. } => 6,
        }
    }
}

/// One framed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub client_id: ClientId,
    pub seq_no: SeqNo,
    /// Client clock (nanoseconds on the shared simulated timeline) when
    /// the request was submitted; the worker stamps the matching ack time
    /// so ack latency is measured submit → ack-issued, not submit → reap.
    pub sent_at_ns: u64,
    pub op: Op,
}

/// Result carried by a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Create/open succeeded; here is the file handle.
    Handle(Handle),
    /// The op executed.
    Done,
    /// Open of an unknown name, or an op on a dead handle.
    NotFound,
    /// An engine fault surfaced (e.g. a powered-off OST), reported with
    /// the failing OST index.
    IoError { ost: u32 },
    /// Duplicate older than the replay cache window — the client is
    /// re-sending something acknowledged long ago.
    TooOld,
    /// `seq_no` skipped ahead of `last_applied + 1`: a protocol violation
    /// (the transport never reorders within a client).
    SeqGap,
    /// Malformed op (e.g. a zero-length write).
    Invalid,
}

impl Status {
    /// Did the op succeed?
    pub fn ok(&self) -> bool {
        matches!(self, Status::Handle(_) | Status::Done)
    }
}

/// One acknowledgement, delivered to the client's session inbox.
///
/// For a mutating request the delivery of this reply *is* the durability
/// contract: the server issues it only after the group-commit WAL's
/// durable watermark has passed the request's record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    pub client_id: ClientId,
    pub seq_no: SeqNo,
    pub status: Status,
    /// Server clock when the ack was issued. A replayed (duplicate)
    /// request carries the *original* execution's ack time.
    pub acked_at_ns: u64,
}

/// Why a frame was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    TooShort,
    BadMagic,
    BadLength,
    BadChecksum,
    BadOpcode(u8),
    BadName,
    TrailingBytes,
}

/// FNV-1a 64 over `bytes` — cheap, deterministic, and plenty for
/// detecting torn or corrupted frames in the queues.
fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bytes `op`'s payload takes in a frame.
fn payload_len(op: &Op) -> usize {
    match op {
        Op::Create { name, .. } => 2 + name.len() + 1 + 8,
        Op::Open { name } => 2 + name.len(),
        Op::Write { .. } | Op::Read { .. } => 8 + 4 + 8 + 8,
        Op::Sync => 0,
        Op::Close { .. } => 8,
    }
}

/// Encode `req` into one checksummed frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(&mut out, req);
    out
}

/// Encode `req` into `out`, replacing what `out` held. The frame's length
/// is known before the first byte is written, so `out` grows at most once,
/// to exactly that length — and not at all once it has held a frame as
/// long: a caller that keeps `out` encodes without touching the heap.
/// A name longer than [`MAX_NAME_BYTES`] makes a frame that strict decode
/// refuses; `Server::submit` turns such a request away before encoding.
pub fn encode_request_into(out: &mut Vec<u8>, req: &Request) {
    let len = HEADER_BYTES + payload_len(&req.op) + CHECKSUM_BYTES;
    out.clear();
    out.reserve_exact(len);
    out.extend_from_slice(&MAGIC);
    put_u32(out, len as u32);
    put_u64(out, req.client_id);
    put_u64(out, req.seq_no);
    put_u64(out, req.sent_at_ns);
    out.push(req.op.opcode());
    match &req.op {
        Op::Create {
            name,
            size_hint_blocks,
        } => {
            put_u16(out, name.len() as u16);
            out.extend_from_slice(name.as_bytes());
            out.push(size_hint_blocks.is_some() as u8);
            put_u64(out, size_hint_blocks.unwrap_or(0));
        }
        Op::Open { name } => {
            put_u16(out, name.len() as u16);
            out.extend_from_slice(name.as_bytes());
        }
        Op::Write {
            handle,
            stream,
            offset,
            len,
        }
        | Op::Read {
            handle,
            stream,
            offset,
            len,
        } => {
            put_u64(out, *handle);
            put_u32(out, *stream);
            put_u64(out, *offset);
            put_u64(out, *len);
        }
        Op::Sync => {}
        Op::Close { handle } => {
            put_u64(out, *handle);
        }
    }
    let sum = checksum(out);
    put_u64(out, sum);
    debug_assert_eq!(out.len(), len, "payload_len disagrees with the encoder");
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.pos + n > self.buf.len() {
            return Err(FrameError::TooShort);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }
    fn name(&mut self) -> Result<String, FrameError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadName)
    }
}

/// Decode one frame. Strict: every byte is accounted for and the checksum
/// must match.
pub fn decode_request(frame: &[u8]) -> Result<Request, FrameError> {
    if frame.len() < HEADER_BYTES + CHECKSUM_BYTES {
        return Err(FrameError::TooShort);
    }
    if frame[0..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let declared = u32::from_le_bytes(frame[4..8].try_into().unwrap()) as usize;
    if declared != frame.len() {
        return Err(FrameError::BadLength);
    }
    let body = &frame[..frame.len() - CHECKSUM_BYTES];
    let sum = u64::from_le_bytes(frame[frame.len() - CHECKSUM_BYTES..].try_into().unwrap());
    if checksum(body) != sum {
        return Err(FrameError::BadChecksum);
    }
    let mut c = Cursor { buf: body, pos: 8 };
    let client_id = c.u64()?;
    let seq_no = c.u64()?;
    let sent_at_ns = c.u64()?;
    let opcode = c.u8()?;
    let op = match opcode {
        1 => {
            let name = c.name()?;
            let has_hint = c.u8()? != 0;
            let hint = c.u64()?;
            Op::Create {
                name,
                size_hint_blocks: has_hint.then_some(hint),
            }
        }
        2 => Op::Open { name: c.name()? },
        3 | 4 => {
            let handle = c.u64()?;
            let stream = c.u32()?;
            let offset = c.u64()?;
            let len = c.u64()?;
            if opcode == 3 {
                Op::Write {
                    handle,
                    stream,
                    offset,
                    len,
                }
            } else {
                Op::Read {
                    handle,
                    stream,
                    offset,
                    len,
                }
            }
        }
        5 => Op::Sync,
        6 => Op::Close { handle: c.u64()? },
        other => return Err(FrameError::BadOpcode(other)),
    };
    if c.pos != body.len() {
        return Err(FrameError::TrailingBytes);
    }
    Ok(Request {
        client_id,
        seq_no,
        sent_at_ns,
        op,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Create {
                name: "a/b.dat".into(),
                size_hint_blocks: Some(4096),
            },
            Op::Create {
                name: "".into(),
                size_hint_blocks: None,
            },
            Op::Open {
                name: "shared.out".into(),
            },
            Op::Write {
                handle: 7,
                stream: 3,
                offset: 1 << 40,
                len: 16,
            },
            Op::Read {
                handle: u64::MAX,
                stream: 0,
                offset: 0,
                len: 1,
            },
            Op::Sync,
            Op::Close { handle: 9 },
        ]
    }

    #[test]
    fn every_op_round_trips() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let req = Request {
                client_id: 0xDEAD_0000 + i as u64,
                seq_no: i as u64 + 1,
                sent_at_ns: 123_456_789,
                op,
            };
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame), Ok(req.clone()), "op {i}");
        }
    }

    #[test]
    fn encoding_sizes_the_frame_exactly_and_never_grows_a_warm_buffer() {
        let longest = "n".repeat(u16::MAX as usize);
        let mut ops = sample_ops();
        ops.push(Op::Open { name: "".into() });
        ops.push(Op::Open {
            name: longest.clone(),
        });
        // Last, so that the loop below starts from the longest frame.
        ops.push(Op::Create {
            name: longest,
            size_hint_blocks: Some(1),
        });
        let mut warm = Vec::new();
        let mut warmed = None;
        for (i, op) in ops.into_iter().enumerate().rev() {
            let req = Request {
                client_id: 5,
                seq_no: i as u64 + 1,
                sent_at_ns: 9,
                op,
            };
            let frame = encode_request(&req);
            assert_eq!(frame.capacity(), frame.len(), "op {i} over-reserved");
            encode_request_into(&mut warm, &req);
            assert_eq!(warm, frame, "op {i}");
            let buffer = *warmed.get_or_insert((warm.capacity(), warm.as_ptr()));
            assert_eq!((warm.capacity(), warm.as_ptr()), buffer, "op {i} grew it");
            assert_eq!(decode_request(&warm), Ok(req), "op {i}");
        }
    }

    #[test]
    fn corrupting_any_byte_is_detected() {
        let req = Request {
            client_id: 42,
            seq_no: 7,
            sent_at_ns: 1,
            op: Op::Write {
                handle: 3,
                stream: 1,
                offset: 64,
                len: 8,
            },
        };
        let frame = encode_request(&req);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert_ne!(
                decode_request(&bad),
                Ok(req.clone()),
                "flipping byte {i} went unnoticed"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_refused() {
        let frame = encode_request(&Request {
            client_id: 1,
            seq_no: 1,
            sent_at_ns: 0,
            op: Op::Sync,
        });
        for cut in 0..frame.len() {
            assert!(
                decode_request(&frame[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
        let mut long = frame.clone();
        long.push(0);
        assert!(decode_request(&long).is_err(), "trailing byte accepted");
    }

    #[test]
    fn mutating_classification_matches_the_ack_contract() {
        let muts: Vec<bool> = sample_ops().iter().map(|o| o.is_mutating()).collect();
        assert_eq!(muts, vec![true, true, false, true, false, true, true]);
    }
}
