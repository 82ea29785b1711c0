//! WAL codec property tests: arbitrary record streams round-trip through
//! the framed binary codec, and recovery after truncation at **every**
//! byte offset — the torn-write model — always yields a clean prefix of
//! what was logged, never garbage and never a panic. A file-level
//! property drives the same contract through `Wal::open`: a torn file
//! recovers its valid prefix, reports the dropped tail, and accepts
//! appends at the truncation point.

use chiller_common::ids::{NodeId, PartitionId, RecordId, TableId, TxnId};
use chiller_common::value::{Row, Value};
use chiller_storage::wal::{
    decode_stream, encode_record, DecideWrite, RedoOp, RedoWrite, Wal, WalRecord,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::I64),
        // Halves of integers: exact in f64, so PartialEq round-trips.
        any::<i32>().prop_map(|i| Value::F64(f64::from(i) * 0.5)),
        (0u32..1000).prop_map(|n| Value::Str(format!("s{n}"))),
        (0u8..1).prop_map(|_| Value::Null),
    ]
}

fn row_strategy() -> impl Strategy<Value = Row> {
    prop::collection::vec(value_strategy(), 0..5).prop_map(Row::from)
}

fn op_strategy() -> impl Strategy<Value = RedoOp> {
    prop_oneof![
        row_strategy().prop_map(RedoOp::Put),
        row_strategy().prop_map(RedoOp::Insert),
        (0u8..1).prop_map(|_| RedoOp::Delete),
    ]
}

fn record_id_strategy() -> impl Strategy<Value = RecordId> {
    (1u16..9, any::<u64>()).prop_map(|(t, k)| RecordId::new(TableId(t), k))
}

fn txn_strategy() -> impl Strategy<Value = TxnId> {
    (0u32..16, 0u64..(1 << 40)).prop_map(|(n, s)| TxnId::new(NodeId(n), s))
}

fn redo_write_strategy() -> impl Strategy<Value = RedoWrite> {
    (record_id_strategy(), 1u64..1000, op_strategy()).prop_map(|(record, version, op)| RedoWrite {
        record,
        version,
        op,
    })
}

fn decide_write_strategy() -> impl Strategy<Value = DecideWrite> {
    (0u32..16, record_id_strategy(), op_strategy()).prop_map(|(p, record, op)| DecideWrite {
        partition: PartitionId(p),
        record,
        op,
    })
}

fn wal_record_strategy() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (
            txn_strategy(),
            prop::collection::vec(redo_write_strategy(), 0..6)
        )
            .prop_map(|(txn, writes)| WalRecord::Redo { txn, writes }),
        (
            txn_strategy(),
            0u32..100,
            prop::option::of((0u32..16).prop_map(PartitionId)),
            prop::collection::vec(decide_write_strategy(), 0..6),
        )
            .prop_map(|(txn, p, pending_inner, writes)| WalRecord::Decide {
                txn,
                proc: format!("proc-{p}"),
                pending_inner,
                writes,
            }),
        txn_strategy().prop_map(|txn| WalRecord::InnerCommit { txn }),
        txn_strategy().prop_map(|txn| WalRecord::Ack { txn }),
    ]
}

fn encode_all(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for rec in records {
        encode_record(rec, &mut buf);
    }
    buf
}

proptest! {
    /// Any record stream decodes back to itself, consuming every byte.
    #[test]
    fn codec_round_trips(records in prop::collection::vec(wal_record_strategy(), 1..20)) {
        let buf = encode_all(&records);
        let (decoded, consumed) = decode_stream(&buf);
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, records);
    }

    /// Torn tail at EVERY byte offset: truncating the stream anywhere
    /// yields exactly the records whose frames fit completely before the
    /// cut, and the reported prefix length is exactly their encoding —
    /// recovery never invents a record and never loses a whole frame.
    #[test]
    fn truncation_at_every_offset_recovers_the_frame_prefix(
        records in prop::collection::vec(wal_record_strategy(), 1..8),
    ) {
        let buf = encode_all(&records);
        for cut in 0..=buf.len() {
            let (decoded, consumed) = decode_stream(&buf[..cut]);
            // The decode must be the longest run of whole frames under
            // the cut: re-encoding it reproduces the consumed prefix.
            prop_assert!(decoded.len() <= records.len());
            prop_assert_eq!(&decoded[..], &records[..decoded.len()]);
            let prefix = encode_all(&decoded);
            prop_assert_eq!(consumed, prefix.len());
            prop_assert!(consumed <= cut);
            prop_assert_eq!(&buf[..consumed], &prefix[..]);
            // And nothing more would have fit: either the cut is exactly
            // frame-aligned, or the next frame straddles it.
            if decoded.len() < records.len() {
                let next = encode_all(&records[..decoded.len() + 1]);
                prop_assert!(next.len() > cut);
            }
        }
    }

    /// Flipping any single byte never panics the decoder and never
    /// corrupts the records before the damaged frame: the decode is
    /// always a clean prefix of what was written.
    #[test]
    fn single_byte_corruption_yields_a_clean_prefix(
        records in prop::collection::vec(wal_record_strategy(), 1..8),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut buf = encode_all(&records);
        let pos = (pos_seed % buf.len() as u64) as usize;
        buf[pos] ^= flip;
        let (decoded, consumed) = decode_stream(&buf);
        prop_assert!(decoded.len() <= records.len());
        prop_assert_eq!(&decoded[..], &records[..decoded.len()]);
        prop_assert!(consumed <= pos, "decode consumed past the corrupted byte");
    }

    /// The file-level contract: a log torn at an arbitrary byte offset
    /// reopens to the longest whole-frame prefix, reports the dropped
    /// tail, and appends land cleanly at the truncation point.
    #[test]
    fn torn_file_recovers_and_accepts_appends(
        records in prop::collection::vec(wal_record_strategy(), 1..6),
        cut_seed in any::<u64>(),
        case in 0u64..(1 << 32),
    ) {
        let path = scratch_path(case);
        let _ = std::fs::remove_file(&path);

        // Write and flush a clean log, then tear it mid-byte.
        {
            let (mut wal, recovered) = Wal::open(&path, 1).expect("open fresh");
            prop_assert!(recovered.is_empty());
            for rec in &records {
                wal.append(rec);
            }
            wal.flush();
        }
        let full = std::fs::read(&path).expect("read log");
        let cut = (cut_seed % (full.len() as u64 + 1)) as usize;
        std::fs::write(&path, &full[..cut]).expect("tear log");

        // Reopen: the valid prefix comes back, the tail is accounted for.
        let (expected, expected_bytes) = decode_stream(&full[..cut]);
        let (mut wal, recovered) = Wal::open(&path, 1).expect("reopen torn");
        prop_assert_eq!(&recovered[..], &expected[..]);
        prop_assert_eq!(wal.stats.torn_bytes_dropped, (cut - expected_bytes) as u64);

        // Appends continue from the truncation point.
        let extra = WalRecord::Ack {
            txn: TxnId::new(NodeId(7), 7),
        };
        wal.append(&extra);
        wal.flush();
        drop(wal);
        let (_, recovered) = Wal::open(&path, 1).expect("reopen after append");
        let mut want = expected;
        want.push(extra);
        prop_assert_eq!(recovered, want);

        let _ = std::fs::remove_file(&path);
    }
}

/// Per-case scratch file (process- and case-qualified: property cases in
/// one run must not share files, nor races across test binaries).
fn scratch_path(case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "chiller-wal-props-{}-{case}.wal",
        std::process::id()
    ))
}
