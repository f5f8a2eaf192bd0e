//! Byte-level write-ahead-log encoding of [`LoggedOp`] records.
//!
//! The block-granularity [`crate::Journal`] models journal *traffic* (which
//! blocks get written when); this module models journal *content*, which is
//! what a crash-consistency checker needs: each operation becomes one
//! fixed-size record carrying a magic, a sequence number, the encoded
//! operation, and a checksum over the whole record. Recovery scans the
//! image front to back and accepts the longest clean prefix — a record with
//! a bad magic (unwritten tail), bad checksum (torn write), or unexpected
//! sequence number (stale data from a previous lap) ends the scan.
//!
//! Five record families share the framing — namespace ops ([`LoggedOp`]),
//! defrag remaps ([`RemapOp`]), tier placements ([`TierOp`]), data-path
//! write commits ([`WriteCommit`]) and sharded-namespace records
//! ([`ShardRecord`]). Each implements [`WalRecord`], its payload codec;
//! one [`Wal`] writes them and one [`Recovered::scan`] reads them back.
//!
//! Torn writes are first-class: [`Wal::append_torn`] persists only a
//! prefix of the record's bytes, exactly what a power cut mid-sector-run
//! leaves behind, and the scan must (and does) reject the damaged record
//! while keeping everything before it.

use crate::mds::{DirMode, Mds};
use crate::replay::{LoggedOp, OpLog};
use std::marker::PhantomData;

/// Bytes per WAL record — matches [`crate::journal::RECORD_BYTES`].
pub const WAL_RECORD_BYTES: usize = 128;

const MAGIC: u32 = 0x4D4A_574C; // "MJWL"
const HEADER_BYTES: usize = 4 + 8 + 1 + 2; // magic, seqno, tag, payload len
const CHECKSUM_OFFSET: usize = WAL_RECORD_BYTES - 8;
/// Maximum encoded-operation size one record can carry.
pub const MAX_PAYLOAD: usize = CHECKSUM_OFFSET - HEADER_BYTES;

const TAG_MKDIR: u8 = 1;
const TAG_CREATE: u8 = 2;
const TAG_UTIME: u8 = 3;
const TAG_UNLINK: u8 = 4;
const TAG_RENAME: u8 = 5;
// 16+ : defrag remap protocol records (separate log stream, same framing).
const TAG_REMAP_INTENT: u8 = 16;
const TAG_REMAP_COMMIT: u8 = 17;
// 18+ : tiering redundancy protocol records (replica / parity placement
// and teardown — the tier log stream, same framing).
const TAG_TIER_INTENT: u8 = 18;
const TAG_TIER_COMMIT: u8 = 19;
// 32+ : data-path size/layout update records (the group-commit stream).
const TAG_WRITE_COMMIT: u8 = 32;
// 48+ : sharded-namespace records (one log stream *per MDS shard*, same
// framing). 48–52 are same-shard namespace ops; 53–55 are the cross-shard
// CAS protocol (intent / head-advance / commit).
const TAG_SHARD_MKDIR: u8 = 48;
const TAG_SHARD_CREATE: u8 = 49;
const TAG_SHARD_UTIME: u8 = 50;
const TAG_SHARD_UNLINK: u8 = 51;
const TAG_SHARD_RENAME: u8 = 52;
const TAG_XS_INTENT: u8 = 53;
const TAG_XS_CAS: u8 = 54;
const TAG_XS_COMMIT: u8 = 55;

const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Frame one record: magic, seqno, tag, payload length, payload, zero
/// padding, and FNV-1a over everything before the checksum — the framing
/// every record family shares.
///
/// FNV-1a over a zero byte is `h * PRIME`, so the padding is folded into
/// one multiply by `PRIME^n` instead of being walked; the sum equals
/// `fnv1a(&rec[..CHECKSUM_OFFSET])` bit for bit. Recovery does walk all
/// 120 bytes: it cannot assume the padding it reads back is still zero.
#[inline]
fn frame_record(seqno: u64, tag: u8, payload: &[u8]) -> [u8; WAL_RECORD_BYTES] {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "operation too large for one WAL record ({} > {MAX_PAYLOAD} bytes)",
        payload.len()
    );
    let used = HEADER_BYTES + payload.len();
    let mut rec = [0u8; WAL_RECORD_BYTES];
    rec[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    rec[4..12].copy_from_slice(&seqno.to_le_bytes());
    rec[12] = tag;
    rec[13..15].copy_from_slice(&(payload.len() as u16).to_le_bytes());
    rec[HEADER_BYTES..used].copy_from_slice(payload);
    let zeros = (CHECKSUM_OFFSET - used) as u32;
    let sum = fnv1a(&rec[..used]).wrapping_mul(FNV_PRIME.wrapping_pow(zeros));
    rec[CHECKSUM_OFFSET..].copy_from_slice(&sum.to_le_bytes());
    rec
}

/// One record family's payload codec. `decode` sees only payloads whose
/// frame passed the magic, checksum and seqno checks; it rejects foreign
/// tags and trailing bytes.
pub trait WalRecord: Sized {
    /// Encode as one checksummed record carrying `seqno`.
    fn encode(&self, seqno: u64) -> [u8; WAL_RECORD_BYTES];
    fn decode(tag: u8, payload: &[u8]) -> Option<Self>;
}

fn push_name(buf: &mut Vec<u8>, name: &str) {
    assert!(
        name.len() <= u8::MAX as usize,
        "name too long for WAL record"
    );
    buf.push(name.len() as u8);
    buf.extend_from_slice(name.as_bytes());
}

fn read_name(buf: &[u8], pos: &mut usize) -> Option<String> {
    let len = *buf.get(*pos)? as usize;
    *pos += 1;
    let bytes = buf.get(*pos..*pos + len)?;
    *pos += len;
    String::from_utf8(bytes.to_vec()).ok()
}

fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let bytes = buf.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

fn read_u32(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let bytes = buf.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(bytes.try_into().ok()?))
}

impl WalRecord for LoggedOp {
    fn encode(&self, seqno: u64) -> [u8; WAL_RECORD_BYTES] {
        let mut buf = Vec::new();
        let tag = match self {
            LoggedOp::Mkdir { parent, name } => {
                buf.extend_from_slice(&parent.0.to_le_bytes());
                push_name(&mut buf, name);
                TAG_MKDIR
            }
            LoggedOp::Create {
                parent,
                name,
                extents,
            } => {
                buf.extend_from_slice(&parent.0.to_le_bytes());
                buf.extend_from_slice(&extents.to_le_bytes());
                push_name(&mut buf, name);
                TAG_CREATE
            }
            LoggedOp::Utime { parent, name } => {
                buf.extend_from_slice(&parent.0.to_le_bytes());
                push_name(&mut buf, name);
                TAG_UTIME
            }
            LoggedOp::Unlink { parent, name } => {
                buf.extend_from_slice(&parent.0.to_le_bytes());
                push_name(&mut buf, name);
                TAG_UNLINK
            }
            LoggedOp::Rename {
                src,
                name,
                dst,
                new_name,
            } => {
                buf.extend_from_slice(&src.0.to_le_bytes());
                buf.extend_from_slice(&dst.0.to_le_bytes());
                push_name(&mut buf, name);
                push_name(&mut buf, new_name);
                TAG_RENAME
            }
        };
        frame_record(seqno, tag, &buf)
    }

    fn decode(tag: u8, payload: &[u8]) -> Option<Self> {
        use crate::ids::InodeNo;
        let mut pos = 0usize;
        let op = match tag {
            TAG_MKDIR => LoggedOp::Mkdir {
                parent: InodeNo(read_u64(payload, &mut pos)?),
                name: read_name(payload, &mut pos)?,
            },
            TAG_CREATE => LoggedOp::Create {
                parent: InodeNo(read_u64(payload, &mut pos)?),
                extents: read_u32(payload, &mut pos)?,
                name: read_name(payload, &mut pos)?,
            },
            TAG_UTIME => LoggedOp::Utime {
                parent: InodeNo(read_u64(payload, &mut pos)?),
                name: read_name(payload, &mut pos)?,
            },
            TAG_UNLINK => LoggedOp::Unlink {
                parent: InodeNo(read_u64(payload, &mut pos)?),
                name: read_name(payload, &mut pos)?,
            },
            TAG_RENAME => LoggedOp::Rename {
                src: InodeNo(read_u64(payload, &mut pos)?),
                dst: InodeNo(read_u64(payload, &mut pos)?),
                name: read_name(payload, &mut pos)?,
                new_name: read_name(payload, &mut pos)?,
            },
            _ => return None,
        };
        if pos != payload.len() {
            return None; // trailing garbage inside the declared payload
        }
        Some(op)
    }
}

/// Why a recovery scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStop {
    /// The image ended exactly at a record boundary; everything was valid.
    CleanEnd,
    /// The image ended inside record `at` (fewer than 128 bytes left).
    TornTail { at: u64 },
    /// Record `at` had a valid layout but a wrong checksum (torn or
    /// corrupted write).
    BadChecksum { at: u64 },
    /// Record `at` did not start with the magic (unwritten region).
    BadMagic { at: u64 },
    /// Record `at` carried the wrong sequence number (stale data from an
    /// earlier lap of the circular region).
    SeqnoMismatch { at: u64, expected: u64, found: u64 },
    /// Record `at` had a valid checksum but an undecodable body.
    BadPayload { at: u64 },
}

/// The result of scanning a WAL image of family `R`.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered<R> {
    /// The longest clean prefix of records, in commit order.
    pub ops: Vec<R>,
    /// Why the scan stopped.
    pub stop: RecoveryStop,
}

pub type Recovery = Recovered<LoggedOp>;
pub type RemapRecovery = Recovered<RemapOp>;
pub type TierRecovery = Recovered<TierOp>;
pub type WriteRecovery = Recovered<WriteCommit>;
/// One shard's stream in append order (merge-sort streams by `gseq` for
/// the global order).
pub type ShardRecovery = Recovered<ShardRecord>;

impl<R: WalRecord> Recovered<R> {
    /// Scan a WAL image and return the longest clean prefix of records:
    /// accept them while the magic, the checksum over all 120 framed bytes
    /// (padding included — what comes back from the media is not assumed
    /// to be what was written), the seqno and `R::decode` of the tagged
    /// payload all hold; report why the scan stopped. Because every record
    /// carries its own checksum and seqno, a flush torn *inside* a merged
    /// multi-record buffer recovers exactly the records persisted whole.
    ///
    /// `first_seqno` is the sequence number the first record must carry
    /// (0 for a fresh log); each following record must increment it by one.
    pub fn scan(image: &[u8], first_seqno: u64) -> Self {
        let mut ops = Vec::new();
        let mut at = 0u64;
        let mut pos = 0usize;
        let stop = loop {
            if pos == image.len() {
                break RecoveryStop::CleanEnd;
            }
            if image.len() - pos < WAL_RECORD_BYTES {
                break RecoveryStop::TornTail { at };
            }
            let rec = &image[pos..pos + WAL_RECORD_BYTES];
            if rec[0..4] != MAGIC.to_le_bytes() {
                break RecoveryStop::BadMagic { at };
            }
            let sum = u64::from_le_bytes(rec[CHECKSUM_OFFSET..].try_into().expect("8 bytes"));
            if fnv1a(&rec[..CHECKSUM_OFFSET]) != sum {
                break RecoveryStop::BadChecksum { at };
            }
            let seqno = u64::from_le_bytes(rec[4..12].try_into().expect("8 bytes"));
            let expected = first_seqno + at;
            if seqno != expected {
                break RecoveryStop::SeqnoMismatch {
                    at,
                    expected,
                    found: seqno,
                };
            }
            let len = u16::from_le_bytes(rec[13..15].try_into().expect("2 bytes")) as usize;
            let op = if len <= MAX_PAYLOAD {
                R::decode(rec[12], &rec[HEADER_BYTES..HEADER_BYTES + len])
            } else {
                None
            };
            match op {
                Some(op) => ops.push(op),
                None => break RecoveryStop::BadPayload { at },
            }
            at += 1;
            pos += WAL_RECORD_BYTES;
        };
        Self { ops, stop }
    }
}

impl Recovery {
    /// Replay the recovered prefix on a fresh MDS in `mode`.
    pub fn replay(&self, mode: DirMode) -> Mds {
        let mut log = OpLog::new();
        for op in &self.ops {
            log.record(op.clone());
        }
        log.replay(mode)
    }
}

/// [`Recovered::scan`] of a namespace-op image.
pub fn recover(image: &[u8], first_seqno: u64) -> Recovery {
    Recovered::scan(image, first_seqno)
}

/// An append-only WAL image of family `R` under construction.
#[derive(Debug, Clone)]
pub struct Wal<R> {
    image: Vec<u8>,
    next_seqno: u64,
    family: PhantomData<fn(&R)>,
}

/// The namespace-op log.
pub type WalWriter = Wal<LoggedOp>;
/// The defrag engine's log stream.
pub type RemapWal = Wal<RemapOp>;
/// The redundancy engine's log stream.
pub type TierWal = Wal<TierOp>;
/// One MDS shard's log stream.
pub type ShardWal = Wal<ShardRecord>;

impl<R> Default for Wal<R> {
    fn default() -> Self {
        Self {
            image: Vec::new(),
            next_seqno: 0,
            family: PhantomData,
        }
    }
}

impl<R: WalRecord> Wal<R> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one fully-persisted record.
    pub fn append(&mut self, op: &R) {
        let rec = op.encode(self.next_seqno);
        self.image.extend_from_slice(&rec);
        self.next_seqno += 1;
    }

    /// Append a *torn* record: only the first `persisted` bytes reach the
    /// image (the tail reads back as zeroes, like unwritten media).
    /// Clamped to a strict prefix so the record is always damaged.
    pub fn append_torn(&mut self, op: &R, persisted: usize) {
        let rec = op.encode(self.next_seqno);
        let persisted = persisted.min(WAL_RECORD_BYTES - 1);
        self.image.extend_from_slice(&rec[..persisted]);
        self.image
            .extend(std::iter::repeat_n(0u8, WAL_RECORD_BYTES - persisted));
        self.next_seqno += 1;
    }

    /// Records appended so far (torn ones included).
    pub fn len(&self) -> u64 {
        self.next_seqno
    }

    pub fn is_empty(&self) -> bool {
        self.next_seqno == 0
    }

    /// The on-media bytes.
    pub fn image(&self) -> &[u8] {
        &self.image
    }

    /// Consume the writer, returning the image.
    pub fn into_image(self) -> Vec<u8> {
        self.image
    }
}

/// One extent-relocation transaction's identity: which logical span of
/// which (file, column) moves where. Shared by the intent and commit
/// records so recovery can pair them field-for-field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemapTxn {
    /// File identity (the FS-layer `FileId`).
    pub file: u64,
    /// Stripe-column index the extents belong to (the file's extent-tree
    /// index; equal to the physical OST until a drain moves the column).
    pub ost: u32,
    /// First logical block of the remapped span.
    pub logical: u64,
    /// Length of the logical span (holes included).
    pub len: u64,
    /// Physical start of the contiguous destination run.
    pub dest: u64,
    /// Mapped blocks in the span == length of the destination run.
    pub total: u64,
    /// Physical OST holding the destination run. Same-OST defrag sets it
    /// to the column's current OST; a drain relocation points elsewhere.
    pub dst_ost: u32,
}

/// A defrag-relocation WAL record. The protocol writes `Intent` *before*
/// touching any state (naming the probed destination), and `Commit` after
/// the data copy completes but before the extent remap is applied:
///
/// * crash after `Intent` alone → roll back: the destination (if it was
///   ever claimed) holds no live data; free it.
/// * crash after `Commit` → roll forward: the copy is durable; re-apply
///   the remap (idempotently) so the mapping points at the new run.
///
/// Either way exactly one of {old mapping, new mapping} survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapOp {
    Intent(RemapTxn),
    Commit(RemapTxn),
}

impl RemapOp {
    /// The transaction both variants carry.
    pub fn txn(&self) -> &RemapTxn {
        match self {
            RemapOp::Intent(t) | RemapOp::Commit(t) => t,
        }
    }
}

impl WalRecord for RemapOp {
    fn encode(&self, seqno: u64) -> [u8; WAL_RECORD_BYTES] {
        let (tag, t) = match self {
            RemapOp::Intent(t) => (TAG_REMAP_INTENT, t),
            RemapOp::Commit(t) => (TAG_REMAP_COMMIT, t),
        };
        let mut buf = Vec::with_capacity(48);
        buf.extend_from_slice(&t.file.to_le_bytes());
        buf.extend_from_slice(&t.ost.to_le_bytes());
        buf.extend_from_slice(&t.logical.to_le_bytes());
        buf.extend_from_slice(&t.len.to_le_bytes());
        buf.extend_from_slice(&t.dest.to_le_bytes());
        buf.extend_from_slice(&t.total.to_le_bytes());
        buf.extend_from_slice(&t.dst_ost.to_le_bytes());
        frame_record(seqno, tag, &buf)
    }

    fn decode(tag: u8, payload: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let txn = RemapTxn {
            file: read_u64(payload, &mut pos)?,
            ost: read_u32(payload, &mut pos)?,
            logical: read_u64(payload, &mut pos)?,
            len: read_u64(payload, &mut pos)?,
            dest: read_u64(payload, &mut pos)?,
            total: read_u64(payload, &mut pos)?,
            dst_ost: read_u32(payload, &mut pos)?,
        };
        if pos != payload.len() {
            return None;
        }
        match tag {
            TAG_REMAP_INTENT => Some(RemapOp::Intent(txn)),
            TAG_REMAP_COMMIT => Some(RemapOp::Commit(txn)),
            _ => None,
        }
    }
}

/// What a tier transaction does to the redundancy layer. One byte on the
/// wire; every kind names exactly one destination run so recovery can undo
/// or redo it without consulting any other record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierKind {
    /// Place a replica of (file, src_ost, logical, len) at
    /// (dst_ost, dst_phys).
    Replica = 0,
    /// Place one parity run of stripe group `logical` of `file` (src_ost
    /// carries the group's unit length implicitly via `len`) at
    /// (dst_ost, dst_phys).
    Parity = 1,
    /// Tear down the tier run at (dst_ost, dst_phys, len): free the blocks
    /// and drop it from the tier map.
    Drop = 2,
}

impl TierKind {
    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(TierKind::Replica),
            1 => Some(TierKind::Parity),
            2 => Some(TierKind::Drop),
            _ => None,
        }
    }
}

/// One tier transaction's identity: which redundancy run of which file is
/// being placed or torn down, and where. Shared by the intent and commit
/// records so recovery can pair them field-for-field.
///
/// Field meaning varies slightly by [`TierKind`]:
/// * `Replica` — source span (file, src_ost, logical, len) is copied to
///   the run at (dst_ost, dst_phys).
/// * `Parity` — `logical` is the stripe-group index, `len` the unit
///   length in blocks; the parity run lands at (dst_ost, dst_phys).
/// * `Drop` — only (file, dst_ost, dst_phys, len) matter: that tier run
///   is freed and forgotten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierTxn {
    /// What this transaction does.
    pub kind: TierKind,
    /// File identity (the FS-layer `FileId`).
    pub file: u64,
    /// OST the source span lives on (replica) / first data member OST
    /// (parity) / unused for drops.
    pub src_ost: u32,
    /// First logical block of the source span, or the stripe-group index.
    pub logical: u64,
    /// Span / parity-unit / run length in blocks.
    pub len: u64,
    /// OST holding the destination run.
    pub dst_ost: u32,
    /// Physical start of the destination run on `dst_ost`.
    pub dst_phys: u64,
}

/// A tier-redundancy WAL record. Same two-phase shape as [`RemapOp`]:
/// `Intent` is durable before any state is touched, `Commit` after the
/// data (copy / parity encode / free) is done but before the tier map is
/// updated:
///
/// * crash after `Intent` alone → roll back: the destination run holds no
///   data anyone depends on; free it if it was claimed.
/// * crash after `Commit` → roll forward: re-apply the tier-map update
///   (idempotently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierOp {
    Intent(TierTxn),
    Commit(TierTxn),
}

impl TierOp {
    /// The transaction both variants carry.
    pub fn txn(&self) -> &TierTxn {
        match self {
            TierOp::Intent(t) | TierOp::Commit(t) => t,
        }
    }
}

impl WalRecord for TierOp {
    fn encode(&self, seqno: u64) -> [u8; WAL_RECORD_BYTES] {
        let (tag, t) = match self {
            TierOp::Intent(t) => (TAG_TIER_INTENT, t),
            TierOp::Commit(t) => (TAG_TIER_COMMIT, t),
        };
        let mut buf = Vec::with_capacity(41);
        buf.push(t.kind as u8);
        buf.extend_from_slice(&t.file.to_le_bytes());
        buf.extend_from_slice(&t.src_ost.to_le_bytes());
        buf.extend_from_slice(&t.logical.to_le_bytes());
        buf.extend_from_slice(&t.len.to_le_bytes());
        buf.extend_from_slice(&t.dst_ost.to_le_bytes());
        buf.extend_from_slice(&t.dst_phys.to_le_bytes());
        frame_record(seqno, tag, &buf)
    }

    fn decode(tag: u8, payload: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let kind = TierKind::from_u8(*payload.first()?)?;
        pos += 1;
        let txn = TierTxn {
            kind,
            file: read_u64(payload, &mut pos)?,
            src_ost: read_u32(payload, &mut pos)?,
            logical: read_u64(payload, &mut pos)?,
            len: read_u64(payload, &mut pos)?,
            dst_ost: read_u32(payload, &mut pos)?,
            dst_phys: read_u64(payload, &mut pos)?,
        };
        if pos != payload.len() {
            return None;
        }
        match tag {
            TAG_TIER_INTENT => Some(TierOp::Intent(txn)),
            TAG_TIER_COMMIT => Some(TierOp::Commit(txn)),
            _ => None,
        }
    }
}

/// One data-path write's durable intent: which stream extended which file
/// where. These records flow through the group-commit WAL
/// ([`crate::GroupCommitWal`]): client threads stage them lock-free, one
/// flush leader persists many at once, and recovery replays the longest
/// clean prefix so a crash loses at most the writes whose commit was
/// never acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteCommit {
    /// File identity (the FS-layer `FileId`).
    pub file: u64,
    /// Stream that issued the write (`StreamId::as_u64`).
    pub stream: u64,
    /// First logical block of the write.
    pub offset: u64,
    /// Length in blocks.
    pub len: u64,
}

/// Encode one write-commit record with the standard framing. The
/// `ConcurrentFs` write path calls this directly: the fixed 32-byte
/// payload is built on the stack.
pub fn encode_write_record(seqno: u64, w: &WriteCommit) -> [u8; WAL_RECORD_BYTES] {
    let mut payload = [0u8; 32];
    for (dst, field) in payload
        .chunks_exact_mut(8)
        .zip([w.file, w.stream, w.offset, w.len])
    {
        dst.copy_from_slice(&field.to_le_bytes());
    }
    frame_record(seqno, TAG_WRITE_COMMIT, &payload)
}

impl WalRecord for WriteCommit {
    fn encode(&self, seqno: u64) -> [u8; WAL_RECORD_BYTES] {
        encode_write_record(seqno, self)
    }

    fn decode(tag: u8, payload: &[u8]) -> Option<Self> {
        if tag != TAG_WRITE_COMMIT {
            return None;
        }
        let mut pos = 0usize;
        let w = WriteCommit {
            file: read_u64(payload, &mut pos)?,
            stream: read_u64(payload, &mut pos)?,
            offset: read_u64(payload, &mut pos)?,
            len: read_u64(payload, &mut pos)?,
        };
        (pos == payload.len()).then_some(w)
    }
}

/// [`Recovered::scan`] of a write-commit image (the [`crate::GroupCommitWal`]
/// stream).
pub fn recover_writes(image: &[u8], first_seqno: u64) -> WriteRecovery {
    Recovered::scan(image, first_seqno)
}

/// A same-shard namespace operation as journaled by one MDS shard.
///
/// Sharded records name directories by their *global directory id* (the
/// [`crate::ShardMap`] key) rather than a per-shard inode number: inode
/// numbers are a per-shard artifact that recovery re-derives, while the
/// directory id is stable across shard counts and replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardNsOp {
    /// Register global directory `dir` (striped directories additionally
    /// get a seat on every shard, re-derived at recovery from the flag).
    Mkdir {
        dir: u32,
        striped: bool,
        name: String,
    },
    /// Create `name` with `extents` extents in `dir` (on the journaling
    /// shard — the entry's shard is re-derived from the stable map).
    Create {
        dir: u32,
        extents: u32,
        name: String,
    },
    Utime {
        dir: u32,
        name: String,
    },
    Unlink {
        dir: u32,
        name: String,
    },
    /// Same-home rename: both directories live on the journaling shard,
    /// so one record on one log stream carries the whole operation.
    Rename {
        src: u32,
        dst: u32,
        name: String,
        new_name: String,
    },
}

/// One cross-shard rename transaction's identity: enough for recovery on
/// *either* shard to finish or forget the operation without consulting the
/// other shard's log. Carries the operation heads the coordinator observed
/// so a recovered head table never regresses below what was promised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XsTxn {
    /// Coordinator-assigned transaction id (globally unique).
    pub txn: u64,
    /// Global directory id the entry leaves.
    pub src_dir: u32,
    /// Global directory id the entry lands in.
    pub dst_dir: u32,
    /// Shard holding `src_dir`.
    pub src_shard: u32,
    /// Shard holding `dst_dir`.
    pub dst_shard: u32,
    /// `src_dir`'s operation head as observed when the intent was staged.
    pub src_head: u64,
    /// `dst_dir`'s operation head as observed when the intent was staged.
    pub dst_head: u64,
    pub name: String,
    pub new_name: String,
}

/// One sharded-namespace WAL record body.
///
/// The cross-shard protocol journals, in order: `XsIntent` on both shards
/// (no state change — a crash here rolls back to a no-op), one `XsCas` per
/// successful head advance, and `XsCommit` on both shards. Recovery rolls
/// a transaction *forward* iff any recovered stream holds its `XsCommit`;
/// otherwise the intent is forgotten.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOp {
    Ns(ShardNsOp),
    XsIntent(XsTxn),
    /// Directory `dir`'s operation head advanced `old` → `new` on the
    /// journaling shard, on behalf of transaction `txn`.
    XsCas {
        txn: u64,
        dir: u32,
        old: u64,
        new: u64,
    },
    XsCommit {
        txn: u64,
    },
}

/// One sharded-namespace WAL record: a globally-ordered sequence stamp
/// plus the operation. Each shard journals to its own stream; `gseq` is
/// drawn from one global counter so multi-stream recovery can merge-sort
/// the records back into a single total order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    pub gseq: u64,
    pub op: ShardOp,
}

impl WalRecord for ShardRecord {
    fn encode(&self, seqno: u64) -> [u8; WAL_RECORD_BYTES] {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&self.gseq.to_le_bytes());
        let tag = match &self.op {
            ShardOp::Ns(ShardNsOp::Mkdir { dir, striped, name }) => {
                buf.extend_from_slice(&dir.to_le_bytes());
                buf.push(*striped as u8);
                push_name(&mut buf, name);
                TAG_SHARD_MKDIR
            }
            ShardOp::Ns(ShardNsOp::Create { dir, extents, name }) => {
                buf.extend_from_slice(&dir.to_le_bytes());
                buf.extend_from_slice(&extents.to_le_bytes());
                push_name(&mut buf, name);
                TAG_SHARD_CREATE
            }
            ShardOp::Ns(ShardNsOp::Utime { dir, name }) => {
                buf.extend_from_slice(&dir.to_le_bytes());
                push_name(&mut buf, name);
                TAG_SHARD_UTIME
            }
            ShardOp::Ns(ShardNsOp::Unlink { dir, name }) => {
                buf.extend_from_slice(&dir.to_le_bytes());
                push_name(&mut buf, name);
                TAG_SHARD_UNLINK
            }
            ShardOp::Ns(ShardNsOp::Rename {
                src,
                dst,
                name,
                new_name,
            }) => {
                buf.extend_from_slice(&src.to_le_bytes());
                buf.extend_from_slice(&dst.to_le_bytes());
                push_name(&mut buf, name);
                push_name(&mut buf, new_name);
                TAG_SHARD_RENAME
            }
            ShardOp::XsIntent(t) => {
                buf.extend_from_slice(&t.txn.to_le_bytes());
                buf.extend_from_slice(&t.src_dir.to_le_bytes());
                buf.extend_from_slice(&t.dst_dir.to_le_bytes());
                buf.extend_from_slice(&t.src_shard.to_le_bytes());
                buf.extend_from_slice(&t.dst_shard.to_le_bytes());
                buf.extend_from_slice(&t.src_head.to_le_bytes());
                buf.extend_from_slice(&t.dst_head.to_le_bytes());
                push_name(&mut buf, &t.name);
                push_name(&mut buf, &t.new_name);
                TAG_XS_INTENT
            }
            ShardOp::XsCas { txn, dir, old, new } => {
                buf.extend_from_slice(&txn.to_le_bytes());
                buf.extend_from_slice(&dir.to_le_bytes());
                buf.extend_from_slice(&old.to_le_bytes());
                buf.extend_from_slice(&new.to_le_bytes());
                TAG_XS_CAS
            }
            ShardOp::XsCommit { txn } => {
                buf.extend_from_slice(&txn.to_le_bytes());
                TAG_XS_COMMIT
            }
        };
        frame_record(seqno, tag, &buf)
    }

    fn decode(tag: u8, payload: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let gseq = read_u64(payload, &mut pos)?;
        let op = match tag {
            TAG_SHARD_MKDIR => {
                let dir = read_u32(payload, &mut pos)?;
                let striped = match *payload.get(pos)? {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                pos += 1;
                ShardOp::Ns(ShardNsOp::Mkdir {
                    dir,
                    striped,
                    name: read_name(payload, &mut pos)?,
                })
            }
            TAG_SHARD_CREATE => ShardOp::Ns(ShardNsOp::Create {
                dir: read_u32(payload, &mut pos)?,
                extents: read_u32(payload, &mut pos)?,
                name: read_name(payload, &mut pos)?,
            }),
            TAG_SHARD_UTIME => ShardOp::Ns(ShardNsOp::Utime {
                dir: read_u32(payload, &mut pos)?,
                name: read_name(payload, &mut pos)?,
            }),
            TAG_SHARD_UNLINK => ShardOp::Ns(ShardNsOp::Unlink {
                dir: read_u32(payload, &mut pos)?,
                name: read_name(payload, &mut pos)?,
            }),
            TAG_SHARD_RENAME => ShardOp::Ns(ShardNsOp::Rename {
                src: read_u32(payload, &mut pos)?,
                dst: read_u32(payload, &mut pos)?,
                name: read_name(payload, &mut pos)?,
                new_name: read_name(payload, &mut pos)?,
            }),
            TAG_XS_INTENT => ShardOp::XsIntent(XsTxn {
                txn: read_u64(payload, &mut pos)?,
                src_dir: read_u32(payload, &mut pos)?,
                dst_dir: read_u32(payload, &mut pos)?,
                src_shard: read_u32(payload, &mut pos)?,
                dst_shard: read_u32(payload, &mut pos)?,
                src_head: read_u64(payload, &mut pos)?,
                dst_head: read_u64(payload, &mut pos)?,
                name: read_name(payload, &mut pos)?,
                new_name: read_name(payload, &mut pos)?,
            }),
            TAG_XS_CAS => ShardOp::XsCas {
                txn: read_u64(payload, &mut pos)?,
                dir: read_u32(payload, &mut pos)?,
                old: read_u64(payload, &mut pos)?,
                new: read_u64(payload, &mut pos)?,
            },
            TAG_XS_COMMIT => ShardOp::XsCommit {
                txn: read_u64(payload, &mut pos)?,
            },
            _ => return None,
        };
        if pos != payload.len() {
            return None;
        }
        Some(ShardRecord { gseq, op })
    }
}

/// Encode a whole redo log as a WAL image (seqnos from 0).
pub fn encode_log(log: &OpLog) -> Vec<u8> {
    let mut w = WalWriter::new();
    for op in &log.ops {
        w.append(op);
    }
    w.into_image()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ROOT_INO;

    fn sample_ops() -> Vec<LoggedOp> {
        vec![
            LoggedOp::Mkdir {
                parent: ROOT_INO,
                name: "d".into(),
            },
            LoggedOp::Create {
                parent: ROOT_INO,
                name: "file-1".into(),
                extents: 3,
            },
            LoggedOp::Utime {
                parent: ROOT_INO,
                name: "file-1".into(),
            },
            LoggedOp::Rename {
                src: ROOT_INO,
                name: "file-1".into(),
                dst: ROOT_INO,
                new_name: "file-2".into(),
            },
            LoggedOp::Unlink {
                parent: ROOT_INO,
                name: "file-2".into(),
            },
        ]
    }

    #[test]
    fn every_op_round_trips() {
        for (i, op) in sample_ops().iter().enumerate() {
            let rec = op.encode(i as u64);
            let got = recover(&rec, i as u64);
            assert_eq!(got.ops, vec![op.clone()], "op {i}");
            assert_eq!(got.stop, RecoveryStop::CleanEnd);
        }
    }

    #[test]
    fn clean_image_recovers_fully() {
        let mut w = WalWriter::new();
        for op in sample_ops() {
            w.append(&op);
        }
        let r = recover(w.image(), 0);
        assert_eq!(r.ops, sample_ops());
        assert_eq!(r.stop, RecoveryStop::CleanEnd);
    }

    #[test]
    fn torn_record_ends_the_prefix() {
        let ops = sample_ops();
        for persisted in [0usize, 1, 17, 64, 127] {
            let mut w = WalWriter::new();
            w.append(&ops[0]);
            w.append(&ops[1]);
            w.append_torn(&ops[2], persisted);
            let r = recover(w.image(), 0);
            assert_eq!(r.ops, ops[..2].to_vec(), "persisted={persisted}");
            assert!(
                matches!(
                    r.stop,
                    RecoveryStop::BadChecksum { at: 2 } | RecoveryStop::BadMagic { at: 2 }
                ),
                "persisted={persisted}: {:?}",
                r.stop
            );
        }
    }

    #[test]
    fn truncated_tail_is_detected() {
        let mut w = WalWriter::new();
        for op in sample_ops() {
            w.append(&op);
        }
        let img = w.image();
        let r = recover(&img[..img.len() - 40], 0);
        assert_eq!(r.ops.len(), sample_ops().len() - 1);
        assert_eq!(r.stop, RecoveryStop::TornTail { at: 4 });
    }

    #[test]
    fn single_bit_flip_is_detected() {
        let ops = sample_ops();
        let mut w = WalWriter::new();
        for op in &ops {
            w.append(op);
        }
        let mut img = w.into_image();
        // Flip one payload bit in record 1.
        img[WAL_RECORD_BYTES + 40] ^= 0x04;
        let r = recover(&img, 0);
        assert_eq!(r.ops, ops[..1].to_vec());
        assert_eq!(r.stop, RecoveryStop::BadChecksum { at: 1 });
    }

    #[test]
    fn stale_lap_is_rejected_by_seqno() {
        // A record that is internally valid but carries an old seqno (left
        // over from a previous lap of the circular region) must not be
        // replayed.
        let ops = sample_ops();
        let mut img = Vec::new();
        img.extend_from_slice(&ops[0].encode(7));
        img.extend_from_slice(&ops[1].encode(3)); // stale
        let r = recover(&img, 7);
        assert_eq!(r.ops, ops[..1].to_vec());
        assert_eq!(
            r.stop,
            RecoveryStop::SeqnoMismatch {
                at: 1,
                expected: 8,
                found: 3
            }
        );
    }

    #[test]
    fn unwritten_tail_stops_with_bad_magic() {
        let mut w = WalWriter::new();
        w.append(&sample_ops()[0]);
        let mut img = w.into_image();
        img.extend(std::iter::repeat_n(0u8, WAL_RECORD_BYTES));
        let r = recover(&img, 0);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(r.stop, RecoveryStop::BadMagic { at: 1 });
    }

    fn sample_txn() -> RemapTxn {
        RemapTxn {
            file: 7,
            ost: 2,
            logical: 128,
            len: 96,
            dest: 4096,
            total: 80,
            dst_ost: 2,
        }
    }

    #[test]
    fn remap_records_round_trip() {
        let mut w = RemapWal::new();
        w.append(&RemapOp::Intent(sample_txn()));
        w.append(&RemapOp::Commit(sample_txn()));
        let r = RemapRecovery::scan(w.image(), 0);
        assert_eq!(
            r.ops,
            vec![RemapOp::Intent(sample_txn()), RemapOp::Commit(sample_txn())]
        );
        assert_eq!(r.stop, RecoveryStop::CleanEnd);
    }

    #[test]
    fn torn_remap_record_ends_the_prefix() {
        for persisted in [0usize, 1, 20, 43, 119, 127] {
            let mut w = RemapWal::new();
            w.append(&RemapOp::Intent(sample_txn()));
            w.append_torn(&RemapOp::Commit(sample_txn()), persisted);
            let r = RemapRecovery::scan(w.image(), 0);
            assert_eq!(
                r.ops,
                vec![RemapOp::Intent(sample_txn())],
                "persisted={persisted}"
            );
            assert!(
                matches!(
                    r.stop,
                    RecoveryStop::BadChecksum { at: 1 } | RecoveryStop::BadMagic { at: 1 }
                ),
                "persisted={persisted}: {:?}",
                r.stop
            );
        }
    }

    #[test]
    fn remap_scan_rejects_metadata_tags_and_vice_versa() {
        // A metadata record in the remap stream stops the scan (BadPayload),
        // and a remap record in the metadata stream does the same: the two
        // log streams cannot silently replay each other's records.
        let meta = sample_ops()[0].encode(0);
        let r = RemapRecovery::scan(&meta, 0);
        assert!(r.ops.is_empty());
        assert_eq!(r.stop, RecoveryStop::BadPayload { at: 0 });

        let remap = RemapOp::Intent(sample_txn()).encode(0);
        let r = recover(&remap, 0);
        assert!(r.ops.is_empty());
        assert_eq!(r.stop, RecoveryStop::BadPayload { at: 0 });
    }

    #[test]
    fn stale_remap_lap_rejected_by_seqno() {
        let mut img = Vec::new();
        img.extend_from_slice(&RemapOp::Intent(sample_txn()).encode(9));
        img.extend_from_slice(&RemapOp::Commit(sample_txn()).encode(4));
        let r = RemapRecovery::scan(&img, 9);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(
            r.stop,
            RecoveryStop::SeqnoMismatch {
                at: 1,
                expected: 10,
                found: 4
            }
        );
    }

    fn sample_tier_txn(kind: TierKind) -> TierTxn {
        TierTxn {
            kind,
            file: 11,
            src_ost: 1,
            logical: 256,
            len: 64,
            dst_ost: 3,
            dst_phys: 8192,
        }
    }

    #[test]
    fn tier_records_round_trip_every_kind() {
        let mut w = TierWal::new();
        let mut want = Vec::new();
        for kind in [TierKind::Replica, TierKind::Parity, TierKind::Drop] {
            let t = sample_tier_txn(kind);
            w.append(&TierOp::Intent(t));
            w.append(&TierOp::Commit(t));
            want.push(TierOp::Intent(t));
            want.push(TierOp::Commit(t));
        }
        let r = TierRecovery::scan(w.image(), 0);
        assert_eq!(r.ops, want);
        assert_eq!(r.stop, RecoveryStop::CleanEnd);
    }

    #[test]
    fn torn_tier_record_ends_the_prefix() {
        for persisted in [0usize, 1, 16, 40, 119, 127] {
            let mut w = TierWal::new();
            w.append(&TierOp::Intent(sample_tier_txn(TierKind::Replica)));
            w.append_torn(
                &TierOp::Commit(sample_tier_txn(TierKind::Replica)),
                persisted,
            );
            let r = TierRecovery::scan(w.image(), 0);
            assert_eq!(
                r.ops,
                vec![TierOp::Intent(sample_tier_txn(TierKind::Replica))],
                "persisted={persisted}"
            );
            assert!(
                matches!(
                    r.stop,
                    RecoveryStop::BadChecksum { at: 1 } | RecoveryStop::BadMagic { at: 1 }
                ),
                "persisted={persisted}: {:?}",
                r.stop
            );
        }
    }

    #[test]
    fn tier_scan_rejects_foreign_tags_and_vice_versa() {
        // The tier stream cannot replay metadata, remap, or write-commit
        // records, and none of those scans accepts a tier record.
        let tier = TierOp::Intent(sample_tier_txn(TierKind::Parity)).encode(0);
        assert_eq!(recover(&tier, 0).stop, RecoveryStop::BadPayload { at: 0 });
        assert_eq!(
            RemapRecovery::scan(&tier, 0).stop,
            RecoveryStop::BadPayload { at: 0 }
        );
        assert_eq!(
            recover_writes(&tier, 0).stop,
            RecoveryStop::BadPayload { at: 0 }
        );

        for foreign in [
            sample_ops()[0].encode(0),
            RemapOp::Intent(sample_txn()).encode(0),
            encode_write_record(0, &sample_write(0)),
        ] {
            let r = TierRecovery::scan(&foreign, 0);
            assert!(r.ops.is_empty());
            assert_eq!(r.stop, RecoveryStop::BadPayload { at: 0 });
        }
    }

    #[test]
    fn tier_bad_kind_byte_is_bad_payload() {
        let mut rec = TierOp::Commit(sample_tier_txn(TierKind::Drop)).encode(0);
        rec[HEADER_BYTES] = 9; // no such TierKind
        let sum = fnv1a(&rec[..CHECKSUM_OFFSET]);
        rec[CHECKSUM_OFFSET..].copy_from_slice(&sum.to_le_bytes());
        let r = TierRecovery::scan(&rec, 0);
        assert!(r.ops.is_empty());
        assert_eq!(r.stop, RecoveryStop::BadPayload { at: 0 });
    }

    #[test]
    fn stale_tier_lap_rejected_by_seqno() {
        let mut img = Vec::new();
        img.extend_from_slice(&TierOp::Intent(sample_tier_txn(TierKind::Replica)).encode(6));
        img.extend_from_slice(&TierOp::Commit(sample_tier_txn(TierKind::Replica)).encode(2));
        let r = TierRecovery::scan(&img, 6);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(
            r.stop,
            RecoveryStop::SeqnoMismatch {
                at: 1,
                expected: 7,
                found: 2
            }
        );
    }

    fn sample_write(i: u64) -> WriteCommit {
        WriteCommit {
            file: 3,
            stream: i % 4,
            offset: i * 16,
            len: 16,
        }
    }

    #[test]
    fn write_records_round_trip() {
        let ops: Vec<WriteCommit> = (0..6).map(sample_write).collect();
        let mut img = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            img.extend_from_slice(&encode_write_record(i as u64, op));
        }
        let r = recover_writes(&img, 0);
        assert_eq!(r.ops, ops);
        assert_eq!(r.stop, RecoveryStop::CleanEnd);
    }

    #[test]
    fn torn_write_record_ends_the_prefix() {
        for persisted in [1usize, 14, 15, 46, 119, 127] {
            let mut img = Vec::new();
            img.extend_from_slice(&encode_write_record(0, &sample_write(0)));
            let torn = encode_write_record(1, &sample_write(1));
            img.extend_from_slice(&torn[..persisted]);
            let r = recover_writes(&img, 0);
            assert_eq!(r.ops, vec![sample_write(0)], "persisted={persisted}");
            assert_eq!(r.stop, RecoveryStop::TornTail { at: 1 });
        }
        // Nothing of the torn record reached the media: a clean end.
        let img = encode_write_record(0, &sample_write(0));
        assert_eq!(recover_writes(&img, 0).stop, RecoveryStop::CleanEnd);
    }

    #[test]
    fn write_scan_rejects_foreign_tags() {
        // The data-path stream cannot replay metadata or remap records, and
        // neither of those scans accepts a write-commit record.
        let meta = sample_ops()[0].encode(0);
        let r = recover_writes(&meta, 0);
        assert!(r.ops.is_empty());
        assert_eq!(r.stop, RecoveryStop::BadPayload { at: 0 });

        let w = encode_write_record(0, &sample_write(0));
        assert_eq!(recover(&w, 0).stop, RecoveryStop::BadPayload { at: 0 });
        assert_eq!(
            RemapRecovery::scan(&w, 0).stop,
            RecoveryStop::BadPayload { at: 0 }
        );
    }

    #[test]
    fn stale_write_lap_rejected_by_seqno() {
        let mut img = Vec::new();
        img.extend_from_slice(&encode_write_record(5, &sample_write(0)));
        img.extend_from_slice(&encode_write_record(2, &sample_write(1)));
        let r = recover_writes(&img, 5);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(
            r.stop,
            RecoveryStop::SeqnoMismatch {
                at: 1,
                expected: 6,
                found: 2
            }
        );
    }

    /// The reference framing: FNV-1a walked byte by byte over all 120
    /// bytes, padding included.
    fn frame_record_bytewise(seqno: u64, tag: u8, payload: &[u8]) -> [u8; WAL_RECORD_BYTES] {
        let mut rec = [0u8; WAL_RECORD_BYTES];
        rec[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        rec[4..12].copy_from_slice(&seqno.to_le_bytes());
        rec[12] = tag;
        rec[13..15].copy_from_slice(&(payload.len() as u16).to_le_bytes());
        rec[HEADER_BYTES..HEADER_BYTES + payload.len()].copy_from_slice(payload);
        let sum = fnv1a(&rec[..CHECKSUM_OFFSET]);
        rec[CHECKSUM_OFFSET..].copy_from_slice(&sum.to_le_bytes());
        rec
    }

    #[test]
    fn folded_checksum_equals_the_bytewise_framing_for_every_tag_and_length() {
        const TAGS: [u8; 18] = [
            TAG_MKDIR,
            TAG_CREATE,
            TAG_UTIME,
            TAG_UNLINK,
            TAG_RENAME,
            TAG_REMAP_INTENT,
            TAG_REMAP_COMMIT,
            TAG_TIER_INTENT,
            TAG_TIER_COMMIT,
            TAG_WRITE_COMMIT,
            TAG_SHARD_MKDIR,
            TAG_SHARD_CREATE,
            TAG_SHARD_UTIME,
            TAG_SHARD_UNLINK,
            TAG_SHARD_RENAME,
            TAG_XS_INTENT,
            TAG_XS_CAS,
            TAG_XS_COMMIT,
        ];
        let mut rng = mif_rng::SmallRng::seed_from_u64(0xF0_1DED);
        for tag in TAGS {
            for len in 0..=MAX_PAYLOAD {
                // Zero bytes inside the payload are the interesting ones:
                // they must not be mistaken for padding.
                let payload: Vec<u8> = (0..len)
                    .map(|_| if rng.gen_bool(0.25) { 0 } else { rng.gen() })
                    .collect();
                let seqno = rng.next_u64();
                assert_eq!(
                    frame_record(seqno, tag, &payload),
                    frame_record_bytewise(seqno, tag, &payload),
                    "tag {tag} len {len}"
                );
            }
        }
    }

    /// Every family's encoder frames its payload as the byte-wise
    /// reference does; the tag and payload are read back from the record
    /// (the round-trip tests pin what they contain).
    #[test]
    fn encoders_produce_the_bytewise_framing() {
        let mut records: Vec<(u64, [u8; WAL_RECORD_BYTES])> = sample_ops()
            .iter()
            .enumerate()
            .map(|(i, op)| (i as u64, op.encode(i as u64)))
            .collect();
        records.push((7, RemapOp::Intent(sample_txn()).encode(7)));
        let tier = TierOp::Commit(sample_tier_txn(TierKind::Parity));
        records.push((8, tier.encode(8)));
        records.push((10, super::shard_wal_tests::sample_records()[5].encode(10)));
        for (seqno, rec) in records {
            let len = u16::from_le_bytes([rec[13], rec[14]]) as usize;
            let payload = &rec[HEADER_BYTES..HEADER_BYTES + len];
            assert_eq!(rec, frame_record_bytewise(seqno, rec[12], payload));
        }
        let w = sample_write(3);
        let mut payload = Vec::new();
        for field in [w.file, w.stream, w.offset, w.len] {
            payload.extend_from_slice(&field.to_le_bytes());
        }
        assert_eq!(
            encode_write_record(9, &w),
            frame_record_bytewise(9, TAG_WRITE_COMMIT, &payload)
        );
    }

    /// Flip each bit of record 1's zero padding in turn; `scan` returns how
    /// many records the family's recovery accepted and why it stopped.
    /// Recovery must not take the padding on trust: every flip is a bad
    /// checksum at record 1, with record 0 kept.
    pub(super) fn padding_flips_stop_the_scan(
        image: &[u8],
        scan: impl Fn(&[u8]) -> (usize, RecoveryStop),
    ) {
        assert!(image.len() >= 3 * WAL_RECORD_BYTES);
        assert_eq!(scan(image).1, RecoveryStop::CleanEnd);
        let rec = &image[WAL_RECORD_BYTES..2 * WAL_RECORD_BYTES];
        let len = u16::from_le_bytes([rec[13], rec[14]]) as usize;
        let padding = WAL_RECORD_BYTES + HEADER_BYTES + len..WAL_RECORD_BYTES + CHECKSUM_OFFSET;
        assert!(!padding.is_empty(), "record 1 must have padding to flip");
        for byte in padding {
            assert_eq!(image[byte], 0);
            for bit in 0..8 {
                let mut img = image.to_vec();
                img[byte] ^= 1 << bit;
                assert_eq!(
                    scan(&img),
                    (1, RecoveryStop::BadChecksum { at: 1 }),
                    "byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn a_flipped_padding_bit_is_a_bad_checksum_in_every_family() {
        let mut meta = WalWriter::new();
        sample_ops().iter().for_each(|op| meta.append(op));
        padding_flips_stop_the_scan(meta.image(), |img| {
            let r = recover(img, 0);
            (r.ops.len(), r.stop)
        });

        let mut remap = RemapWal::new();
        for op in [
            RemapOp::Intent(sample_txn()),
            RemapOp::Commit(sample_txn()),
            RemapOp::Intent(sample_txn()),
        ] {
            remap.append(&op);
        }
        padding_flips_stop_the_scan(remap.image(), |img| {
            let r = RemapRecovery::scan(img, 0);
            (r.ops.len(), r.stop)
        });

        let mut tier = TierWal::new();
        for kind in [TierKind::Replica, TierKind::Parity, TierKind::Replica] {
            tier.append(&TierOp::Intent(sample_tier_txn(kind)));
        }
        padding_flips_stop_the_scan(tier.image(), |img| {
            let r = TierRecovery::scan(img, 0);
            (r.ops.len(), r.stop)
        });

        let writes: Vec<u8> = (0..3)
            .flat_map(|i| encode_write_record(i, &sample_write(i)))
            .collect();
        padding_flips_stop_the_scan(&writes, |img| {
            let r = recover_writes(img, 0);
            (r.ops.len(), r.stop)
        });
    }

    /// Three whole records of `sample`, then one torn at `persisted`:
    /// the scan keeps exactly the three; returns why it stopped.
    fn stop_after_torn_append<R>(sample: &R, persisted: usize) -> RecoveryStop
    where
        R: WalRecord + Clone + PartialEq + std::fmt::Debug,
    {
        let mut w = Wal::new();
        for _ in 0..3 {
            w.append(sample);
        }
        w.append_torn(sample, persisted);
        assert_eq!((w.len(), w.image().len()), (4, 4 * WAL_RECORD_BYTES));
        let r = Recovered::<R>::scan(w.image(), 0);
        assert_eq!(r.ops, vec![sample.clone(); 3], "persisted={persisted}");
        r.stop
    }

    /// One writer and one scan serve five families: each round-trips its
    /// sample and stops at a torn fourth record for the same reason.
    #[test]
    fn every_family_round_trips_and_tears_alike() {
        let shard = super::shard_wal_tests::sample_records()[5].clone();
        for persisted in [0usize, 1, 14, 15, 64, 119, 120, 127] {
            let stops = [
                stop_after_torn_append(&sample_ops()[4], persisted),
                stop_after_torn_append(&RemapOp::Commit(sample_txn()), persisted),
                stop_after_torn_append(
                    &TierOp::Intent(sample_tier_txn(TierKind::Replica)),
                    persisted,
                ),
                stop_after_torn_append(&sample_write(2), persisted),
                stop_after_torn_append(&shard, persisted),
            ];
            let expected = if persisted < 4 {
                RecoveryStop::BadMagic { at: 3 }
            } else {
                RecoveryStop::BadChecksum { at: 3 }
            };
            assert_eq!(stops, [expected; 5], "persisted={persisted}");
        }

        // The group-commit slab lays down the same stream the generic
        // writer does, and both entry points read it back alike.
        let staged = crate::GroupCommitWal::new(8);
        let mut plain = Wal::new();
        for i in 0..5 {
            let w = sample_write(i);
            staged.append(|seq| encode_write_record(seq, &w));
            plain.append(&w);
        }
        staged.commit_all();
        let image = staged.image();
        assert_eq!(image, plain.image());
        let r = recover_writes(&image, 0);
        assert_eq!(r, Recovered::<WriteCommit>::scan(&image, 0));
        assert_eq!(r.ops, (0..5).map(sample_write).collect::<Vec<_>>());
        assert_eq!(r.stop, RecoveryStop::CleanEnd);
    }

    #[test]
    fn recovery_replays_to_consistent_mds() {
        let mut w = WalWriter::new();
        for op in sample_ops() {
            w.append(&op);
        }
        for mode in [DirMode::Normal, DirMode::Htree, DirMode::Embedded] {
            let r = recover(w.image(), 0);
            let mds = r.replay(mode);
            assert!(mds.check().is_empty(), "{mode}");
        }
    }
}

#[cfg(test)]
mod shard_wal_tests {
    use super::*;

    pub(super) fn sample_records() -> Vec<ShardRecord> {
        vec![
            ShardRecord {
                gseq: 0,
                op: ShardOp::Ns(ShardNsOp::Mkdir {
                    dir: 0,
                    striped: true,
                    name: "big".into(),
                }),
            },
            ShardRecord {
                gseq: 1,
                op: ShardOp::Ns(ShardNsOp::Create {
                    dir: 0,
                    extents: 3,
                    name: "f0".into(),
                }),
            },
            ShardRecord {
                gseq: 2,
                op: ShardOp::Ns(ShardNsOp::Utime {
                    dir: 0,
                    name: "f0".into(),
                }),
            },
            ShardRecord {
                gseq: 3,
                op: ShardOp::XsIntent(XsTxn {
                    txn: 7,
                    src_dir: 0,
                    dst_dir: 1,
                    src_shard: 0,
                    dst_shard: 2,
                    src_head: 4,
                    dst_head: 9,
                    name: "f0".into(),
                    new_name: "g0".into(),
                }),
            },
            ShardRecord {
                gseq: 4,
                op: ShardOp::XsCas {
                    txn: 7,
                    dir: 0,
                    old: 4,
                    new: 5,
                },
            },
            ShardRecord {
                gseq: 5,
                op: ShardOp::XsCommit { txn: 7 },
            },
            ShardRecord {
                gseq: 6,
                op: ShardOp::Ns(ShardNsOp::Rename {
                    src: 1,
                    dst: 1,
                    name: "g0".into(),
                    new_name: "h0".into(),
                }),
            },
            ShardRecord {
                gseq: 7,
                op: ShardOp::Ns(ShardNsOp::Unlink {
                    dir: 1,
                    name: "h0".into(),
                }),
            },
        ]
    }

    #[test]
    fn shard_records_round_trip_every_kind() {
        let mut w = ShardWal::new();
        for rec in sample_records() {
            w.append(&rec);
        }
        let r = ShardRecovery::scan(w.image(), 0);
        assert_eq!(r.stop, RecoveryStop::CleanEnd);
        assert_eq!(r.ops, sample_records());
    }

    #[test]
    fn torn_shard_record_ends_the_prefix() {
        let recs = sample_records();
        for persisted in [0, 1, HEADER_BYTES, 64, WAL_RECORD_BYTES - 1] {
            let mut w = ShardWal::new();
            w.append(&recs[0]);
            w.append(&recs[3]);
            w.append_torn(&recs[5], persisted);
            let r = ShardRecovery::scan(w.image(), 0);
            assert_eq!(r.ops.len(), 2, "persisted={persisted}");
            assert!(
                matches!(
                    r.stop,
                    RecoveryStop::BadChecksum { at: 2 } | RecoveryStop::BadMagic { at: 2 }
                ),
                "persisted={persisted}: {:?}",
                r.stop
            );
        }
    }

    #[test]
    fn shard_scan_rejects_foreign_tags_and_vice_versa() {
        // A metadata-tag record inside a shard stream is a BadPayload stop.
        let mut img = Vec::new();
        img.extend_from_slice(&sample_records()[0].encode(0));
        img.extend_from_slice(
            &LoggedOp::Mkdir {
                parent: crate::ids::ROOT_INO,
                name: "d".into(),
            }
            .encode(1),
        );
        let r = ShardRecovery::scan(&img, 0);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(r.stop, RecoveryStop::BadPayload { at: 1 });

        // And a shard record inside a metadata stream is equally rejected.
        let mut img = Vec::new();
        img.extend_from_slice(
            &LoggedOp::Mkdir {
                parent: crate::ids::ROOT_INO,
                name: "d".into(),
            }
            .encode(0),
        );
        img.extend_from_slice(&sample_records()[1].encode(1));
        let r = recover(&img, 0);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(r.stop, RecoveryStop::BadPayload { at: 1 });
    }

    #[test]
    fn a_flipped_padding_bit_is_a_bad_checksum_in_the_shard_family() {
        let mut wal = ShardWal::new();
        sample_records().iter().for_each(|rec| wal.append(rec));
        super::tests::padding_flips_stop_the_scan(wal.image(), |img| {
            let r = ShardRecovery::scan(img, 0);
            (r.ops.len(), r.stop)
        });
    }

    #[test]
    fn stale_shard_lap_rejected_by_seqno() {
        let recs = sample_records();
        let mut img = Vec::new();
        img.extend_from_slice(&recs[0].encode(3));
        img.extend_from_slice(&recs[1].encode(1));
        let r = ShardRecovery::scan(&img, 3);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(
            r.stop,
            RecoveryStop::SeqnoMismatch {
                at: 1,
                expected: 4,
                found: 1
            }
        );
    }
}
