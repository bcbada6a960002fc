//! The versioned compact segment format of the durable log store.
//!
//! A **segment** is the unit of durability: a contiguous run of transport
//! frames (each a batch of [`Record`]s with a global sequence number),
//! encoded into one length-prefixed, CRC32-protected file body. The record
//! payload uses a varint/delta encoding — most records are small deltas on
//! the running instruction/cycle/address counters, so the compact form is a
//! fraction of the fixed-width wire codec — with optional per-segment RLE
//! compression on top (applied only when it actually shrinks the body, so
//! encoding stays deterministic).
//!
//! The format carries an explicit version byte ([`FORMAT_VERSION`]): decode
//! refuses unknown versions instead of guessing, and the golden-file test in
//! `tests/log_properties.rs` pins the byte layout of version 1 so any drift
//! without a version bump fails CI.
//!
//! Every segment also roundtrips losslessly through a human-readable debug
//! JSON form ([`segment_to_json`] / [`segment_from_json`]): compact → JSON →
//! compact is byte-identical, wasm-rr's dual binary/JSON trace idiom.
//!
//! ## Byte layout (version 1)
//!
//! ```text
//! offset  size  field
//!      0     4  magic "RNRS"
//!      4     1  format version (= 1)
//!      5     1  flags (bit 0: body is RLE-compressed)
//!      6     8  first_seq  — sequence number of the first frame (LE)
//!     14     4  frame_count (LE)
//!     18     4  record_count (LE)
//!     22     4  raw_len    — uncompressed body length (LE)
//!     26     4  body_len   — stored body length (LE; the length prefix)
//!     30     4  crc32      — over bytes [0, 30) and the stored body
//!     34     …  body: frame index (one varint record-count per frame),
//!               then the records, varint/delta-encoded in order
//! ```

use std::fmt;

use rnr_ras::{Mispredict, MispredictKind, ThreadId};
use rnr_vrt::VrtKind;

use crate::codec::{
    TAG_ALARM, TAG_DMA, TAG_END, TAG_EVICT, TAG_INTERRUPT, TAG_JOP_ALARM, TAG_MMIO_READ, TAG_PIO_IN,
    TAG_RDTSC, TAG_VRT_ALARM,
};
use crate::{crc32, AlarmInfo, DmaSource, Record, VrtAlarmInfo};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"RNRS";

/// On-disk format version. Bump on any byte-layout change; decode refuses
/// other versions and the golden-file test pins this one's exact bytes.
pub const FORMAT_VERSION: u8 = 1;

/// Fixed header size preceding the segment body.
pub const SEGMENT_HEADER: usize = 34;

const FLAG_COMPRESSED: u8 = 1;

/// A decoded segment: a contiguous run of frames starting at `first_seq`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Segment {
    /// Global sequence number of `frames[0]`.
    pub first_seq: u64,
    /// The record batches, one per transport frame, in sequence order.
    pub frames: Vec<Vec<Record>>,
}

impl Segment {
    /// Sequence numbers covered: `[first_seq, first_seq + frames.len())`.
    pub fn covers(&self, seq: u64) -> bool {
        seq >= self.first_seq && seq < self.first_seq + self.frames.len() as u64
    }

    /// Total records across all frames.
    pub fn record_count(&self) -> usize {
        self.frames.iter().map(Vec::len).sum()
    }
}

/// Errors from decoding a segment ([`decode_segment`] / [`segment_from_json`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// The file's size disagrees with the header's length prefix (a torn or
    /// short write when `actual < expected`, trailing garbage otherwise).
    Length {
        /// Header + declared body length.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The magic bytes are not [`SEGMENT_MAGIC`].
    BadMagic,
    /// The version byte is not one this build can decode.
    Version(u8),
    /// The CRC32 did not match the header + stored body.
    Checksum,
    /// The compressed body failed to decompress to its declared raw length.
    Compression,
    /// A CRC-valid body failed structural decoding (index/record mismatch).
    Malformed(String),
    /// The debug-JSON form failed to parse.
    Json(String),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Length { expected, actual } => {
                write!(f, "segment length mismatch: header declares {expected} bytes, file has {actual}")
            }
            SegmentError::BadMagic => write!(f, "not a segment file (bad magic)"),
            SegmentError::Version(v) => write!(f, "unsupported segment format version {v}"),
            SegmentError::Checksum => write!(f, "segment CRC32 mismatch"),
            SegmentError::Compression => write!(f, "segment body failed to decompress"),
            SegmentError::Malformed(what) => write!(f, "malformed segment body: {what}"),
            SegmentError::Json(what) => write!(f, "segment debug-JSON: {what}"),
        }
    }
}

impl std::error::Error for SegmentError {}

// ---------------------------------------------------------------------------
// Varint / zigzag primitives.

/// Appends an unsigned LEB128 varint.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint from `buf` at `*pos`, advancing it.
///
/// # Errors
///
/// [`SegmentError::Malformed`] on truncation or a varint longer than 64 bits.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, SegmentError> {
    let mut v = 0u64;
    for shift in (0..=63).step_by(7) {
        let byte = *buf.get(*pos).ok_or_else(|| SegmentError::Malformed("truncated varint".into()))?;
        *pos += 1;
        if shift == 63 && (byte & !1) != 0 {
            return Err(SegmentError::Malformed("varint overflows 64 bits".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(SegmentError::Malformed("varint overflows 64 bits".into()))
}

/// Zigzag-maps a signed delta so small magnitudes encode small.
pub fn zigzag(v: i64) -> u64 {
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Running prediction state for the delta codec. Most consecutive records
/// move these counters by small amounts, so deltas varint-encode in 1–3
/// bytes where the wire codec spends 8.
#[derive(Debug, Default, Clone)]
struct DeltaCtx {
    insn: u64,
    cycle: u64,
    rdtsc: u64,
    addr: u64,
}

fn put_delta(buf: &mut Vec<u8>, last: &mut u64, v: u64) {
    put_varint(buf, zigzag(v.wrapping_sub(*last) as i64));
    *last = v;
}

fn get_delta(buf: &[u8], pos: &mut usize, last: &mut u64) -> Result<u64, SegmentError> {
    let d = unzigzag(get_varint(buf, pos)?);
    let v = last.wrapping_add(d as u64);
    *last = v;
    Ok(v)
}

fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8, SegmentError> {
    let b = *buf.get(*pos).ok_or_else(|| SegmentError::Malformed("truncated record".into()))?;
    *pos += 1;
    Ok(b)
}

// ---------------------------------------------------------------------------
// Compact record codec (shares the wire codec's tag bytes).

fn encode_record(buf: &mut Vec<u8>, ctx: &mut DeltaCtx, record: &Record) {
    match record {
        Record::Rdtsc { value } => {
            buf.push(TAG_RDTSC);
            put_delta(buf, &mut ctx.rdtsc, *value);
        }
        Record::PioIn { port, value } => {
            buf.push(TAG_PIO_IN);
            put_varint(buf, u64::from(*port));
            put_varint(buf, *value);
        }
        Record::MmioRead { addr, value } => {
            buf.push(TAG_MMIO_READ);
            put_delta(buf, &mut ctx.addr, *addr);
            put_varint(buf, *value);
        }
        Record::Interrupt { irq, at_insn } => {
            buf.push(TAG_INTERRUPT);
            buf.push(*irq);
            put_delta(buf, &mut ctx.insn, *at_insn);
        }
        Record::Dma { source, addr, data, at_insn } => {
            buf.push(TAG_DMA);
            buf.push(match source {
                DmaSource::Disk => 0,
                DmaSource::Nic => 1,
            });
            put_delta(buf, &mut ctx.addr, *addr);
            put_varint(buf, data.len() as u64);
            buf.extend_from_slice(data);
            put_delta(buf, &mut ctx.insn, *at_insn);
        }
        Record::Evict { tid, addr } => {
            buf.push(TAG_EVICT);
            put_varint(buf, tid.0);
            put_delta(buf, &mut ctx.addr, *addr);
        }
        Record::Alarm(a) => {
            buf.push(TAG_ALARM);
            put_varint(buf, a.tid.0);
            put_delta(buf, &mut ctx.addr, a.mispredict.ret_pc);
            match a.mispredict.predicted {
                Some(p) => {
                    buf.push(1);
                    put_varint(buf, zigzag(p.wrapping_sub(a.mispredict.ret_pc) as i64));
                }
                None => buf.push(0),
            }
            put_varint(buf, zigzag(a.mispredict.actual.wrapping_sub(a.mispredict.ret_pc) as i64));
            buf.push(match a.mispredict.kind {
                MispredictKind::Underflow => 0,
                MispredictKind::TargetMismatch => 1,
                MispredictKind::WhitelistViolation => 2,
            });
            put_delta(buf, &mut ctx.insn, a.at_insn);
            put_delta(buf, &mut ctx.cycle, a.at_cycle);
        }
        Record::End { at_insn, at_cycle } => {
            buf.push(TAG_END);
            put_delta(buf, &mut ctx.insn, *at_insn);
            put_delta(buf, &mut ctx.cycle, *at_cycle);
        }
        Record::JopAlarm { tid, branch_pc, target, at_insn, at_cycle } => {
            buf.push(TAG_JOP_ALARM);
            put_varint(buf, tid.0);
            put_delta(buf, &mut ctx.addr, *branch_pc);
            put_varint(buf, zigzag(target.wrapping_sub(*branch_pc) as i64));
            put_delta(buf, &mut ctx.insn, *at_insn);
            put_delta(buf, &mut ctx.cycle, *at_cycle);
        }
        Record::VrtAlarm(a) => {
            buf.push(TAG_VRT_ALARM);
            put_varint(buf, a.tid.0);
            buf.push(a.kind.as_u8());
            put_delta(buf, &mut ctx.addr, a.addr);
            put_delta(buf, &mut ctx.insn, a.at_insn);
            put_delta(buf, &mut ctx.cycle, a.at_cycle);
        }
    }
}

fn decode_record(buf: &[u8], pos: &mut usize, ctx: &mut DeltaCtx) -> Result<Record, SegmentError> {
    let tag = get_u8(buf, pos)?;
    Ok(match tag {
        TAG_RDTSC => Record::Rdtsc { value: get_delta(buf, pos, &mut ctx.rdtsc)? },
        TAG_PIO_IN => {
            let port = get_varint(buf, pos)?;
            if port > u64::from(u16::MAX) {
                return Err(SegmentError::Malformed(format!("pio port {port} exceeds u16")));
            }
            Record::PioIn { port: port as u16, value: get_varint(buf, pos)? }
        }
        TAG_MMIO_READ => {
            Record::MmioRead { addr: get_delta(buf, pos, &mut ctx.addr)?, value: get_varint(buf, pos)? }
        }
        TAG_INTERRUPT => {
            Record::Interrupt { irq: get_u8(buf, pos)?, at_insn: get_delta(buf, pos, &mut ctx.insn)? }
        }
        TAG_DMA => {
            let source = match get_u8(buf, pos)? {
                0 => DmaSource::Disk,
                1 => DmaSource::Nic,
                v => return Err(SegmentError::Malformed(format!("dma source discriminant {v}"))),
            };
            let addr = get_delta(buf, pos, &mut ctx.addr)?;
            let len = get_varint(buf, pos)? as usize;
            let data = buf
                .get(*pos..*pos + len)
                .ok_or_else(|| SegmentError::Malformed("truncated dma payload".into()))?
                .to_vec();
            *pos += len;
            Record::Dma { source, addr, data, at_insn: get_delta(buf, pos, &mut ctx.insn)? }
        }
        TAG_EVICT => {
            Record::Evict { tid: ThreadId(get_varint(buf, pos)?), addr: get_delta(buf, pos, &mut ctx.addr)? }
        }
        TAG_ALARM => {
            let tid = ThreadId(get_varint(buf, pos)?);
            let ret_pc = get_delta(buf, pos, &mut ctx.addr)?;
            let predicted = match get_u8(buf, pos)? {
                0 => None,
                1 => Some(ret_pc.wrapping_add(unzigzag(get_varint(buf, pos)?) as u64)),
                v => return Err(SegmentError::Malformed(format!("prediction presence {v}"))),
            };
            let actual = ret_pc.wrapping_add(unzigzag(get_varint(buf, pos)?) as u64);
            let kind = match get_u8(buf, pos)? {
                0 => MispredictKind::Underflow,
                1 => MispredictKind::TargetMismatch,
                2 => MispredictKind::WhitelistViolation,
                v => return Err(SegmentError::Malformed(format!("mispredict kind {v}"))),
            };
            Record::Alarm(AlarmInfo {
                tid,
                mispredict: Mispredict { ret_pc, predicted, actual, kind },
                at_insn: get_delta(buf, pos, &mut ctx.insn)?,
                at_cycle: get_delta(buf, pos, &mut ctx.cycle)?,
            })
        }
        TAG_END => Record::End {
            at_insn: get_delta(buf, pos, &mut ctx.insn)?,
            at_cycle: get_delta(buf, pos, &mut ctx.cycle)?,
        },
        TAG_JOP_ALARM => {
            let tid = ThreadId(get_varint(buf, pos)?);
            let branch_pc = get_delta(buf, pos, &mut ctx.addr)?;
            let target = branch_pc.wrapping_add(unzigzag(get_varint(buf, pos)?) as u64);
            Record::JopAlarm {
                tid,
                branch_pc,
                target,
                at_insn: get_delta(buf, pos, &mut ctx.insn)?,
                at_cycle: get_delta(buf, pos, &mut ctx.cycle)?,
            }
        }
        TAG_VRT_ALARM => {
            let tid = ThreadId(get_varint(buf, pos)?);
            let raw_kind = get_u8(buf, pos)?;
            let kind = VrtKind::from_u8(raw_kind)
                .ok_or_else(|| SegmentError::Malformed(format!("vrt kind discriminant {raw_kind}")))?;
            Record::VrtAlarm(VrtAlarmInfo {
                tid,
                kind,
                addr: get_delta(buf, pos, &mut ctx.addr)?,
                at_insn: get_delta(buf, pos, &mut ctx.insn)?,
                at_cycle: get_delta(buf, pos, &mut ctx.cycle)?,
            })
        }
        other => return Err(SegmentError::Malformed(format!("unknown record tag {other:#04x}"))),
    })
}

// ---------------------------------------------------------------------------
// Per-segment RLE compression (PackBits-style). Delta-encoded bodies are
// zero-heavy, so a byte-level run-length pass wins without external deps.
// Control byte `c`: `c < 0x80` copies `c + 1` literal bytes; otherwise the
// next byte repeats `(c & 0x7f) + 3` times.

fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 8);
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b && run < 130 {
            run += 1;
        }
        if run >= 3 {
            out.push(0x80 | (run - 3) as u8);
            out.push(b);
            i += run;
            continue;
        }
        let start = i;
        let mut j = i;
        while j < data.len() && j - start < 128 {
            if j + 2 < data.len() && data[j] == data[j + 1] && data[j] == data[j + 2] {
                break;
            }
            j += 1;
        }
        out.push((j - start - 1) as u8);
        out.extend_from_slice(&data[start..j]);
        i = j;
    }
    out
}

/// The most output one RLE input byte can produce: a two-byte run token
/// expands to 130 bytes.
const RLE_MAX_EXPANSION: usize = 65;

fn rle_decompress(data: &[u8], raw_len: usize) -> Result<Vec<u8>, SegmentError> {
    // The header's `raw_len` is only a claim: reject one the input could
    // never expand to before reserving anything for it.
    if raw_len > data.len().saturating_mul(RLE_MAX_EXPANSION) {
        return Err(SegmentError::Compression);
    }
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0;
    while i < data.len() {
        let c = data[i];
        i += 1;
        if c & 0x80 != 0 {
            let n = (c & 0x7f) as usize + 3;
            let b = *data.get(i).ok_or(SegmentError::Compression)?;
            i += 1;
            if out.len() + n > raw_len {
                return Err(SegmentError::Compression);
            }
            out.resize(out.len() + n, b);
        } else {
            let n = c as usize + 1;
            let lit = data.get(i..i + n).ok_or(SegmentError::Compression)?;
            i += n;
            if out.len() + n > raw_len {
                return Err(SegmentError::Compression);
            }
            out.extend_from_slice(lit);
        }
    }
    if out.len() != raw_len {
        return Err(SegmentError::Compression);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Segment encode / decode.

/// Encodes `segment` into the version-1 compact byte form. When `compress`
/// is set the body is RLE-compressed, but only if that actually shrinks it —
/// the output is a deterministic function of `(segment, compress)`.
pub fn encode_segment(segment: &Segment, compress: bool) -> Vec<u8> {
    let mut body = Vec::new();
    for frame in &segment.frames {
        put_varint(&mut body, frame.len() as u64);
    }
    let mut ctx = DeltaCtx::default();
    for frame in &segment.frames {
        for record in frame {
            encode_record(&mut body, &mut ctx, record);
        }
    }
    let raw_len = body.len();
    let (stored, flags) = if compress {
        let packed = rle_compress(&body);
        if packed.len() < raw_len {
            (packed, FLAG_COMPRESSED)
        } else {
            (body, 0)
        }
    } else {
        (body, 0)
    };

    let mut out = Vec::with_capacity(SEGMENT_HEADER + stored.len());
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.push(FORMAT_VERSION);
    out.push(flags);
    out.extend_from_slice(&segment.first_seq.to_le_bytes());
    out.extend_from_slice(&(segment.frames.len() as u32).to_le_bytes());
    out.extend_from_slice(&(segment.record_count() as u32).to_le_bytes());
    out.extend_from_slice(&(raw_len as u32).to_le_bytes());
    out.extend_from_slice(&(stored.len() as u32).to_le_bytes());
    let mut covered = out.clone();
    covered.extend_from_slice(&stored);
    out.extend_from_slice(&crc32(&covered).to_le_bytes());
    out.extend_from_slice(&stored);
    out
}

/// Decodes a compact segment, verifying length prefix, version, and CRC32.
///
/// # Errors
///
/// Structured [`SegmentError`]s classifying the damage: torn/short files
/// fail the length prefix, bit rot fails the CRC, foreign files fail the
/// magic or version check. Never panics on arbitrary input.
pub fn decode_segment(bytes: &[u8]) -> Result<Segment, SegmentError> {
    if bytes.len() < SEGMENT_HEADER {
        return Err(SegmentError::Length { expected: SEGMENT_HEADER, actual: bytes.len() });
    }
    if bytes[0..4] != SEGMENT_MAGIC {
        return Err(SegmentError::BadMagic);
    }
    if bytes[4] != FORMAT_VERSION {
        return Err(SegmentError::Version(bytes[4]));
    }
    let flags = bytes[5];
    let first_seq = u64::from_le_bytes(bytes[6..14].try_into().expect("8 header bytes"));
    let frame_count = u32::from_le_bytes(bytes[14..18].try_into().expect("4 header bytes")) as usize;
    let record_count = u32::from_le_bytes(bytes[18..22].try_into().expect("4 header bytes")) as usize;
    let raw_len = u32::from_le_bytes(bytes[22..26].try_into().expect("4 header bytes")) as usize;
    let body_len = u32::from_le_bytes(bytes[26..30].try_into().expect("4 header bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[30..34].try_into().expect("4 header bytes"));

    let expected = SEGMENT_HEADER + body_len;
    if bytes.len() != expected {
        return Err(SegmentError::Length { expected, actual: bytes.len() });
    }
    let mut covered = Vec::with_capacity(30 + body_len);
    covered.extend_from_slice(&bytes[..30]);
    covered.extend_from_slice(&bytes[SEGMENT_HEADER..]);
    if crc32(&covered) != crc {
        return Err(SegmentError::Checksum);
    }

    let stored = &bytes[SEGMENT_HEADER..];
    let body;
    let body = if flags & FLAG_COMPRESSED != 0 {
        body = rle_decompress(stored, raw_len)?;
        &body[..]
    } else {
        if stored.len() != raw_len {
            return Err(SegmentError::Compression);
        }
        stored
    };

    // A CRC-valid body can still be structurally impossible if it was
    // written by a buggy or hostile encoder; bound every allocation by the
    // body size before trusting the declared counts.
    if frame_count > body.len() || record_count > body.len() {
        return Err(SegmentError::Malformed("declared counts exceed body size".into()));
    }
    let mut pos = 0;
    let mut counts = Vec::with_capacity(frame_count);
    for _ in 0..frame_count {
        counts.push(get_varint(body, &mut pos)? as usize);
    }
    let total = counts.iter().try_fold(0usize, |sum, &n| sum.checked_add(n));
    if total != Some(record_count) {
        return Err(SegmentError::Malformed("frame index disagrees with record count".into()));
    }
    let mut ctx = DeltaCtx::default();
    let mut frames = Vec::with_capacity(frame_count);
    for n in counts {
        let mut frame = Vec::with_capacity(n.min(body.len()));
        for _ in 0..n {
            frame.push(decode_record(body, &mut pos, &mut ctx)?);
        }
        frames.push(frame);
    }
    if pos != body.len() {
        return Err(SegmentError::Malformed("trailing bytes after last record".into()));
    }
    Ok(Segment { first_seq, frames })
}

// ---------------------------------------------------------------------------
// Debug-JSON dual form.

/// The debug-JSON document: everything needed to regenerate the compact
/// bytes exactly, including the requested compression mode.
#[derive(serde::Serialize, serde::Deserialize)]
struct SegmentDoc {
    format_version: u8,
    compress: bool,
    first_seq: u64,
    frames: Vec<Vec<Record>>,
}

/// Renders `segment` as pretty debug JSON. `compress` records the
/// compression mode so [`segment_from_json`] can regenerate the compact
/// form byte-identically.
pub fn segment_to_json(segment: &Segment, compress: bool) -> String {
    let doc = SegmentDoc {
        format_version: FORMAT_VERSION,
        compress,
        first_seq: segment.first_seq,
        frames: segment.frames.clone(),
    };
    serde_json::to_string_pretty(&doc).expect("segment JSON serialization is infallible")
}

/// Parses the debug-JSON form back into a segment and its compression mode.
///
/// # Errors
///
/// [`SegmentError::Json`] on parse failure, [`SegmentError::Version`] when
/// the document was written by a different format version.
pub fn segment_from_json(json: &str) -> Result<(Segment, bool), SegmentError> {
    let doc: SegmentDoc = serde_json::from_str(json).map_err(|e| SegmentError::Json(e.to_string()))?;
    if doc.format_version != FORMAT_VERSION {
        return Err(SegmentError::Version(doc.format_version));
    }
    Ok((Segment { first_seq: doc.first_seq, frames: doc.frames }, doc.compress))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Segment {
        Segment {
            first_seq: 7,
            frames: vec![
                vec![
                    Record::Rdtsc { value: 1000 },
                    Record::Rdtsc { value: 1016 },
                    Record::PioIn { port: 0x1f7, value: 0x50 },
                    Record::Interrupt { irq: 0, at_insn: 4096 },
                ],
                vec![
                    Record::MmioRead { addr: 0xfee0_0000, value: 9 },
                    Record::Dma { source: DmaSource::Nic, addr: 0x8000, data: vec![0; 64], at_insn: 4200 },
                    Record::Evict { tid: ThreadId(3), addr: 0x40_1000 },
                ],
                vec![Record::End { at_insn: 5000, at_cycle: 12_000 }],
            ],
        }
    }

    #[test]
    fn roundtrip_compact_both_modes() {
        for compress in [false, true] {
            let bytes = encode_segment(&sample(), compress);
            let back = decode_segment(&bytes).unwrap();
            assert_eq!(back, sample());
            // Deterministic: same input, same bytes.
            assert_eq!(bytes, encode_segment(&sample(), compress));
        }
    }

    #[test]
    fn roundtrip_through_debug_json() {
        for compress in [false, true] {
            let bytes = encode_segment(&sample(), compress);
            let json = segment_to_json(&sample(), compress);
            let (seg, mode) = segment_from_json(&json).unwrap();
            assert_eq!(mode, compress);
            assert_eq!(encode_segment(&seg, mode), bytes, "compact → JSON → compact drifted");
        }
    }

    #[test]
    fn compact_beats_wire_codec_on_delta_heavy_logs() {
        let mut frames = Vec::new();
        let mut insn = 0u64;
        for f in 0..8 {
            let mut frame = Vec::new();
            for i in 0..64u64 {
                insn += 37;
                frame.push(match i % 3 {
                    0 => Record::Rdtsc { value: insn * 2 },
                    1 => Record::Interrupt { irq: 0, at_insn: insn },
                    _ => Record::Evict { tid: ThreadId(1), addr: 0x40_0000 + f * 64 + i },
                });
            }
            frames.push(frame);
        }
        let seg = Segment { first_seq: 0, frames };
        let wire: u64 = seg.frames.iter().flatten().map(Record::encoded_len).sum();
        let compact = encode_segment(&seg, true).len() as u64;
        assert!(compact * 2 < wire, "compact {compact} vs wire {wire}: expected >2x shrink");
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = encode_segment(&sample(), true);
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(decode_segment(&bad).is_err(), "flip at byte {byte} bit {bit} went undetected");
            }
        }
    }

    #[test]
    fn every_truncation_is_detected_without_panic() {
        let bytes = encode_segment(&sample(), false);
        for cut in 0..bytes.len() {
            assert!(decode_segment(&bytes[..cut]).is_err(), "truncation to {cut} bytes accepted");
        }
    }

    #[test]
    fn version_drift_is_refused() {
        let mut bytes = encode_segment(&sample(), false);
        bytes[4] = FORMAT_VERSION + 1;
        assert!(matches!(decode_segment(&bytes), Err(SegmentError::Version(_))));
        let json = segment_to_json(&sample(), false).replace(
            &format!("\"format_version\": {FORMAT_VERSION}"),
            &format!("\"format_version\": {}", FORMAT_VERSION + 1),
        );
        assert!(matches!(segment_from_json(&json), Err(SegmentError::Version(_))));
    }

    #[test]
    fn varint_zigzag_edge_values() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for d in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn rle_roundtrips_adversarial_shapes() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![0; 1000],
            (0..=255u8).collect(),
            [vec![1, 1], vec![2; 200], vec![3, 4, 5], vec![0; 3]].concat(),
        ];
        for case in cases {
            let packed = rle_compress(&case);
            assert_eq!(rle_decompress(&packed, case.len()).unwrap(), case);
        }
    }

    #[test]
    fn rle_expansion_bound_is_tight() {
        // Longest runs are the densest encoding the decoder must accept.
        let runs = vec![0xab; 130 * 4];
        let packed = rle_compress(&runs);
        assert_eq!(packed.len() * RLE_MAX_EXPANSION, runs.len());
        assert_eq!(rle_decompress(&packed, runs.len()).unwrap(), runs);
        assert!(matches!(rle_decompress(&packed, runs.len() + 1), Err(SegmentError::Compression)));
    }
}
