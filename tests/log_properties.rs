//! Property tests on the input-log codec and the durable segment format.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use rnr_log::{
    crc32, decode_frame, decode_segment, encode_frame, encode_segment, get_varint, put_varint,
    segment_from_json, segment_to_json, unzigzag, zigzag, AlarmInfo, DmaSource, InputLog, Record, Segment,
    SegmentError, VrtAlarmInfo, FORMAT_VERSION, SEGMENT_MAGIC,
};
use rnr_ras::{Mispredict, MispredictKind, ThreadId};
use rnr_vrt::VrtKind;

fn record_strategy() -> impl Strategy<Value = Record> {
    prop_oneof![
        any::<u64>().prop_map(|value| Record::Rdtsc { value }),
        (any::<u16>(), any::<u64>()).prop_map(|(port, value)| Record::PioIn { port, value }),
        (any::<u64>(), any::<u64>()).prop_map(|(addr, value)| Record::MmioRead { addr, value }),
        (any::<u8>(), any::<u64>()).prop_map(|(irq, at_insn)| Record::Interrupt { irq, at_insn }),
        (any::<bool>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..300), any::<u64>()).prop_map(
            |(nic, addr, data, at_insn)| Record::Dma {
                source: if nic { DmaSource::Nic } else { DmaSource::Disk },
                addr,
                data,
                at_insn,
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(tid, addr)| Record::Evict { tid: ThreadId(tid), addr }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::option::of(any::<u64>()),
            any::<u64>(),
            0u8..3,
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(tid, ret_pc, predicted, actual, kind, at_insn, at_cycle)| {
                Record::Alarm(AlarmInfo {
                    tid: ThreadId(tid),
                    mispredict: Mispredict {
                        ret_pc,
                        predicted,
                        actual,
                        kind: match kind {
                            0 => MispredictKind::Underflow,
                            1 => MispredictKind::TargetMismatch,
                            _ => MispredictKind::WhitelistViolation,
                        },
                    },
                    at_insn,
                    at_cycle,
                })
            }),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(tid, branch_pc, target, at_insn, at_cycle)| Record::JopAlarm {
                tid: ThreadId(tid),
                branch_pc,
                target,
                at_insn,
                at_cycle,
            }
        ),
        (any::<u64>(), any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(tid, stack, addr, at_insn, at_cycle)| {
                Record::VrtAlarm(VrtAlarmInfo {
                    tid: ThreadId(tid),
                    kind: if stack { VrtKind::Stack } else { VrtKind::Heap },
                    addr,
                    at_insn,
                    at_cycle,
                })
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(at_insn, at_cycle)| Record::End { at_insn, at_cycle }),
    ]
}

proptest! {
    /// Serialize → deserialize is the identity for arbitrary logs, and the
    /// byte accounting matches the wire exactly.
    #[test]
    fn log_round_trips(records in prop::collection::vec(record_strategy(), 0..60)) {
        let log: InputLog = records.clone().into_iter().collect();
        let bytes = log.to_bytes();
        prop_assert_eq!(bytes.len() as u64, log.total_bytes());
        let back = InputLog::from_bytes(bytes).unwrap();
        prop_assert_eq!(back.records(), &records[..]);
        prop_assert_eq!(back.total_bytes(), log.total_bytes());
        for c in rnr_log::Category::ALL {
            prop_assert_eq!(back.bytes_for(c), log.bytes_for(c));
        }
    }

    /// Every record reports its exact encoded size.
    #[test]
    fn encoded_len_is_exact(record in record_strategy()) {
        let log: InputLog = std::iter::once(record.clone()).collect();
        prop_assert_eq!(log.to_bytes().len() as u64, record.encoded_len());
    }

    /// Cutting the encoding at a record boundary yields the prefix log;
    /// cutting mid-record fails cleanly (no panics, no garbage records).
    #[test]
    fn truncation_is_detected(records in prop::collection::vec(record_strategy(), 1..20), cut in any::<prop::sample::Index>()) {
        let log: InputLog = records.clone().into_iter().collect();
        let bytes = log.to_bytes();
        let mut boundaries = vec![0u64];
        for r in &records {
            boundaries.push(boundaries.last().unwrap() + r.encoded_len());
        }
        let cut = cut.index(bytes.len()) as u64;
        let truncated = bytes.slice(0..cut as usize);
        match InputLog::from_bytes(truncated) {
            Ok(prefix) => {
                let n = boundaries.iter().position(|&b| b == cut).expect("clean decode only at boundaries");
                prop_assert_eq!(prefix.records(), &records[..n]);
            }
            Err(_) => prop_assert!(!boundaries.contains(&cut)),
        }
    }

    /// Flipping any single bit of a valid encoded log is handled cleanly:
    /// the decoder either rejects it with a `CodecError` or — when the flip
    /// lands in a value field — decodes a log whose byte accounting still
    /// matches the wire exactly. It never panics and never mis-frames into
    /// a log of a different encoded length.
    #[test]
    fn bit_flips_never_panic_or_misframe(
        records in prop::collection::vec(record_strategy(), 1..20),
        flip in any::<prop::sample::Index>(),
    ) {
        let log: InputLog = records.into_iter().collect();
        let bytes = log.to_bytes();
        let mut flipped = bytes.to_vec();
        let pos = flip.index(flipped.len() * 8);
        flipped[pos / 8] ^= 1 << (pos % 8);
        let len = flipped.len() as u64;
        if let Ok(decoded) = InputLog::from_bytes(flipped.into()) {
            prop_assert_eq!(decoded.total_bytes(), len);
        }
    }

    /// The framed transport is strictly stronger: a single-bit flip
    /// anywhere in an encoded frame — header or payload — is *always*
    /// rejected (CRC32 detects every 1-bit error), and so is any
    /// truncation. Neither ever panics.
    #[test]
    fn frame_rejects_every_bit_flip_and_truncation(
        records in prop::collection::vec(record_strategy(), 0..20),
        seq in any::<u64>(),
        flip in any::<prop::sample::Index>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let frame = encode_frame(seq, &records);
        prop_assert!(matches!(decode_frame(&frame), Ok((s, ref r)) if s == seq && *r == records));

        let mut flipped = frame.to_vec();
        let pos = flip.index(flipped.len() * 8);
        flipped[pos / 8] ^= 1 << (pos % 8);
        prop_assert!(decode_frame(&flipped.into()).is_err());

        let cut = cut.index(frame.len());
        prop_assert!(decode_frame(&frame.slice(0..cut)).is_err());
    }

    /// LEB128 varints and zigzag mapping round-trip every value, and the
    /// varint encoding reports its exact consumed length.
    #[test]
    fn varint_and_zigzag_round_trip(v in any::<u64>(), s in any::<i64>()) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(unzigzag(zigzag(s)), s);
    }

    /// The compact segment codec (varint/delta + optional RLE) is the
    /// identity for arbitrary frame partitions, compressed or not, and the
    /// debug-JSON form round-trips to the same segment.
    #[test]
    fn segment_round_trips(
        frames in prop::collection::vec(prop::collection::vec(record_strategy(), 0..12), 1..8),
        first_seq in any::<u64>(),
        compress in any::<bool>(),
    ) {
        let segment = Segment { first_seq, frames };
        let bytes = encode_segment(&segment, compress);
        prop_assert_eq!(&decode_segment(&bytes).unwrap(), &segment);

        let (from_json, json_compress) = segment_from_json(&segment_to_json(&segment, compress)).unwrap();
        prop_assert_eq!(&from_json, &segment);
        prop_assert_eq!(json_compress, compress);
        prop_assert_eq!(encode_segment(&from_json, json_compress), bytes);
    }

    /// Flipping any single bit of an encoded segment is always detected
    /// (length prefix or CRC32), and any truncation is rejected cleanly.
    /// Neither ever panics.
    #[test]
    fn segment_rejects_every_bit_flip_and_truncation(
        frames in prop::collection::vec(prop::collection::vec(record_strategy(), 0..8), 1..5),
        first_seq in any::<u64>(),
        compress in any::<bool>(),
        flip in any::<prop::sample::Index>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let segment = Segment { first_seq, frames };
        let bytes = encode_segment(&segment, compress);

        let mut flipped = bytes.clone();
        let pos = flip.index(flipped.len() * 8);
        flipped[pos / 8] ^= 1 << (pos % 8);
        prop_assert!(decode_segment(&flipped).is_err());

        let cut = cut.index(bytes.len());
        prop_assert!(decode_segment(&bytes[..cut]).is_err());
    }
}

/// A fixed, deterministic segment exercising every record variant — the
/// subject of the committed golden fixtures.
fn golden_segment() -> Segment {
    Segment {
        first_seq: 7,
        frames: vec![
            vec![
                Record::Rdtsc { value: 0x1111_2222_3333 },
                Record::Rdtsc { value: 0x1111_2222_4444 },
                Record::PioIn { port: 0x3f8, value: 0x41 },
                Record::MmioRead { addr: 0xfee0_0000, value: 9 },
            ],
            vec![
                Record::Interrupt { irq: 32, at_insn: 120_000 },
                Record::Dma { source: DmaSource::Disk, addr: 0x9000, data: vec![0xaa; 64], at_insn: 120_050 },
                Record::Dma { source: DmaSource::Nic, addr: 0x9400, data: vec![1, 2, 3], at_insn: 120_060 },
                Record::Evict { tid: ThreadId(3), addr: 0x8000_1234 },
            ],
            vec![
                Record::Alarm(AlarmInfo {
                    tid: ThreadId(3),
                    mispredict: Mispredict {
                        ret_pc: 0x8000_2000,
                        predicted: Some(0x8000_2004),
                        actual: 0x9000_0000,
                        kind: MispredictKind::TargetMismatch,
                    },
                    at_insn: 130_000,
                    at_cycle: 260_000,
                }),
                Record::End { at_insn: 140_000, at_cycle: 280_000 },
            ],
        ],
    }
}

/// Golden-file pin on format v1: the committed compact fixture and its
/// debug-JSON form must match what the codec produces today, byte for byte.
/// If this fails, the on-disk format drifted — bump
/// `rnr_log::FORMAT_VERSION` and regenerate the fixtures with
/// `RNR_REGEN_GOLDEN=1 cargo test --test log_properties`.
#[test]
fn golden_segment_fixtures_pin_format_v1() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let bin_path = dir.join("segment_v1.bin");
    let json_path = dir.join("segment_v1.json");
    let segment = golden_segment();
    let bin = encode_segment(&segment, true);
    let json = segment_to_json(&segment, true);
    if std::env::var_os("RNR_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&bin_path, &bin).unwrap();
        std::fs::write(&json_path, &json).unwrap();
    }
    let golden_bin = std::fs::read(&bin_path).expect("committed fixture tests/fixtures/segment_v1.bin");
    let golden_json =
        std::fs::read_to_string(&json_path).expect("committed fixture tests/fixtures/segment_v1.json");
    assert_eq!(bin, golden_bin, "compact segment encoding drifted without a FORMAT_VERSION bump");
    assert_eq!(json, golden_json, "debug-JSON segment form drifted without a FORMAT_VERSION bump");

    // Both committed forms still convert losslessly into each other.
    let decoded = decode_segment(&golden_bin).expect("committed fixture decodes");
    assert_eq!(decoded, segment);
    let (from_json, compress) = segment_from_json(&golden_json).expect("committed fixture parses");
    assert_eq!(from_json, segment);
    assert_eq!(encode_segment(&from_json, compress), golden_bin);
}

/// The system allocator, plus a per-thread record of the largest single
/// allocation requested, so hostile-input tests can check that a decoder
/// reserves memory in proportion to its input, not to a header's claims.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// Only `alloc` is wrapped: the trait's default `alloc_zeroed` and
// `realloc` both go through it.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = PEAK.try_with(|p| p.set(p.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest single allocation this
/// thread requested meanwhile.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(0));
    let out = f();
    (out, PEAK.with(Cell::get))
}

/// A segment whose CRC is valid but whose header fields and body are
/// whatever a buggy or hostile encoder chose.
fn hostile_segment(flags: u8, frame_count: u32, record_count: u32, raw_len: u32, body: &[u8]) -> Vec<u8> {
    let mut out = SEGMENT_MAGIC.to_vec();
    out.push(FORMAT_VERSION);
    out.push(flags);
    out.extend_from_slice(&0u64.to_le_bytes());
    out.extend_from_slice(&frame_count.to_le_bytes());
    out.extend_from_slice(&record_count.to_le_bytes());
    out.extend_from_slice(&raw_len.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    let mut covered = out.clone();
    covered.extend_from_slice(body);
    out.extend_from_slice(&crc32(&covered).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Frame counts whose sum overflows `usize` (and wraps to the declared
/// record count) are a typed error, not an arithmetic panic.
#[test]
fn hostile_frame_counts_that_overflow_are_malformed() {
    let mut body = Vec::new();
    put_varint(&mut body, u64::MAX);
    put_varint(&mut body, 2);
    body.extend_from_slice(&[0; 8]);
    let bytes = hostile_segment(0, 2, 1, body.len() as u32, &body);
    assert!(matches!(decode_segment(&bytes), Err(SegmentError::Malformed(_))));
}

/// A compressed body that claims to expand to 4 GiB is refused before the
/// decoder reserves anything near that.
#[test]
fn hostile_raw_length_is_refused_without_reserving_it() {
    let body = [0x80, 0x00]; // one run token: three zero bytes
    let bytes = hostile_segment(1, 0, 0, u32::MAX, &body);
    let (result, peak) = peak_alloc(|| decode_segment(&bytes));
    assert!(matches!(result, Err(SegmentError::Compression)));
    assert!(peak < 4096, "decoder reserved {peak} bytes for a {}-byte segment", bytes.len());
}

proptest! {
    /// Arbitrary header fields and body under a valid CRC: decoding never
    /// panics, and no single allocation outgrows what the input can expand
    /// to (RLE expands at most 65×; every decoded record costs at least
    /// one body byte).
    #[test]
    fn hostile_segments_decode_to_typed_errors_with_bounded_allocation(
        compressed in any::<bool>(),
        frame_count in prop_oneof![0u32..8, any::<u32>()],
        record_count in prop_oneof![0u32..16, any::<u32>()],
        raw_len in prop_oneof![0u32..512, any::<u32>()],
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let bytes = hostile_segment(u8::from(compressed), frame_count, record_count, raw_len, &body);
        let (_, peak) = peak_alloc(|| decode_segment(&bytes));
        let bound = 4096 + bytes.len() * 65 * std::mem::size_of::<Record>();
        prop_assert!(peak <= bound, "peak allocation {} exceeds {}", peak, bound);
    }
}
