//! Per-partition redo write-ahead log (DESIGN.md §15).
//!
//! Durability for the memory-only store: each engine appends the write-sets
//! the commit path already collects to an append-only log, batching fsyncs
//! the same way the runtime already batches sends (group commit). The format
//! is dependency-free: length-prefixed binary frames, each carrying a CRC32
//! over its payload so a torn tail — the normal state of a log after a
//! crash — is detected and truncated on open rather than misparsed.
//!
//! Four record kinds cover the protocols' commit paths:
//!
//! * [`WalRecord::Redo`] — participant-side, appended when a committed
//!   write-set is applied to the store. Carries the per-record version each
//!   write installed so the monotone version chain the serializability
//!   checker relies on (DESIGN.md §14) survives recovery.
//! * [`WalRecord::Decide`] — coordinator-side, appended at the commit
//!   decision point *before* the commit messages are sent. Carries the full
//!   write-set with rows and target partitions so recovery can repair
//!   participants that crashed between decision and apply. For Chiller
//!   two-region transactions the decision is delegated: a `Decide` with
//!   `pending_inner = Some(host)` is provisional, and the transaction's fate
//!   is settled by whether the inner host's log contains an
//!   [`WalRecord::InnerCommit`] for it.
//! * [`WalRecord::InnerCommit`] — the inner host's unilateral commit marker
//!   (§3.3: if the inner region commits, the outer region commits
//!   unconditionally), appended atomically with the inner redo.
//! * [`WalRecord::Ack`] — the coordinator acknowledged the commit to the
//!   client (metrics/latency recorded). A `Decide` without an `Ack` is an
//!   in-doubt transaction that recovery must resolve.
//!
//! The frame layout is `[u32 len][u32 crc32][payload]`, little-endian. A
//! record is valid iff the frame is complete, the CRC matches, and the
//! payload decodes with nothing left over; the log's valid prefix ends at
//! the first record that is not.

use crate::store::PartitionStore;
use chiller_common::ids::{PartitionId, RecordId, TableId, TxnId};
use chiller_common::value::{Row, Value};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Default number of commit-decision records batched per fsync. Override
/// with `CHILLER_FSYNC_BATCH` or [`crate::wal::Wal::set_fsync_batch`];
/// `1` degenerates to an fsync per commit.
pub const DEFAULT_FSYNC_BATCH: u64 = 64;

/// Upper bound on a single frame's payload, so a corrupt length prefix in
/// a torn tail cannot drive a multi-gigabyte allocation on open.
const MAX_FRAME_LEN: u32 = 1 << 28;

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — nibble-table, dependency-free
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 16] = [
    0x0000_0000,
    0x1DB7_1064,
    0x3B6E_20C8,
    0x26D9_30AC,
    0x76DC_4190,
    0x6B6B_51F4,
    0x4DB2_6158,
    0x5005_713C,
    0xEDB8_8320,
    0xF00F_9344,
    0xD6D6_A3E8,
    0xCB61_B38C,
    0x9B64_C2B0,
    0x86D3_D2D4,
    0xA00A_E278,
    0xBDBD_F21C,
];

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 4) ^ CRC_TABLE[((crc ^ b as u32) & 0xF) as usize];
        crc = (crc >> 4) ^ CRC_TABLE[((crc ^ ((b as u32) >> 4)) & 0xF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Record types
// ---------------------------------------------------------------------------

/// The store mutation a redo write replays. Mirrors the commit path's
/// `WriteKind` without depending on the message layer (storage sits below
/// it in the crate graph).
#[derive(Debug, Clone, PartialEq)]
pub enum RedoOp {
    /// Overwrite (or create) the record with this row.
    Put(Row),
    /// Insert a fresh record with this row.
    Insert(Row),
    /// Delete the record (a tombstone is itself a versioned write).
    Delete,
}

/// One applied write: record, the per-record version the apply installed,
/// and the mutation itself.
#[derive(Debug, Clone, PartialEq)]
pub struct RedoWrite {
    /// Record written.
    pub record: RecordId,
    /// Per-record version this write installed (see
    /// `PartitionStore::record_version`). `0` in [`WalRecord::Decide`]
    /// records, where the apply has not happened yet.
    pub version: u64,
    /// The mutation.
    pub op: RedoOp,
}

/// One write in a coordinator's decision record: where it goes plus the
/// mutation (versions are assigned at apply time, not decision time).
#[derive(Debug, Clone, PartialEq)]
pub struct DecideWrite {
    /// Partition the write targets.
    pub partition: PartitionId,
    /// Record written.
    pub record: RecordId,
    /// The mutation.
    pub op: RedoOp,
}

/// One durable log record. See the module docs for the roles.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Participant applied `writes` for committed transaction `txn`.
    Redo {
        /// Committed transaction.
        txn: TxnId,
        /// Applied writes with installed versions, in apply order.
        writes: Vec<RedoWrite>,
    },
    /// Coordinator decided to commit `txn` (logged before the commit
    /// messages leave the node).
    Decide {
        /// Deciding transaction.
        txn: TxnId,
        /// Stored-procedure name, for per-proc recovery accounting.
        proc: String,
        /// `Some(host)` while the decision is delegated to an inner host
        /// (Chiller two-region): the transaction committed iff that host's
        /// log carries an [`WalRecord::InnerCommit`] for it.
        pending_inner: Option<PartitionId>,
        /// The decided write-set with rows and target partitions.
        writes: Vec<DecideWrite>,
    },
    /// Inner host committed `txn` unilaterally (§3.3).
    InnerCommit {
        /// Transaction whose inner region committed.
        txn: TxnId,
    },
    /// Coordinator acknowledged `txn`'s commit (counted in metrics).
    Ack {
        /// Acknowledged transaction.
        txn: TxnId,
    },
}

impl WalRecord {
    /// Whether this record marks a commit decision — the unit group commit
    /// batches fsyncs over.
    pub fn is_commit_mark(&self) -> bool {
        matches!(
            self,
            WalRecord::Decide { .. } | WalRecord::InnerCommit { .. }
        )
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::I64(i) => {
            buf.push(0);
            put_u64(buf, *i as u64);
        }
        Value::F64(f) => {
            buf.push(1);
            put_u64(buf, f.to_bits());
        }
        Value::Str(s) => {
            buf.push(2);
            put_str(buf, s);
        }
        Value::Null => buf.push(3),
    }
}

fn put_row(buf: &mut Vec<u8>, row: &Row) {
    put_u32(buf, row.len() as u32);
    for v in row.iter() {
        put_value(buf, v);
    }
}

fn put_record_id(buf: &mut Vec<u8>, rid: RecordId) {
    put_u16(buf, rid.table.0);
    put_u64(buf, rid.key);
}

fn put_op(buf: &mut Vec<u8>, op: &RedoOp) {
    match op {
        RedoOp::Put(row) => {
            buf.push(0);
            put_row(buf, row);
        }
        RedoOp::Insert(row) => {
            buf.push(1);
            put_row(buf, row);
        }
        RedoOp::Delete => buf.push(2),
    }
}

/// Cursor over an immutable byte slice; every getter fails (returns
/// `None`) on underrun instead of panicking, so a corrupt payload that
/// slipped past the CRC still cannot take the process down.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.data.len() - self.pos < n {
            return None;
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes([s[0], s[1]]))
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn value(&mut self) -> Option<Value> {
        Some(match self.u8()? {
            0 => Value::I64(self.u64()? as i64),
            1 => Value::F64(f64::from_bits(self.u64()?)),
            2 => Value::Str(self.str()?),
            3 => Value::Null,
            _ => return None,
        })
    }

    fn row(&mut self) -> Option<Row> {
        let n = self.u32()? as usize;
        // Bound the pre-allocation by what the payload could possibly hold
        // (each value is at least one tag byte).
        if n > self.data.len() - self.pos {
            return None;
        }
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.value()?);
        }
        Some(row.into())
    }

    fn record_id(&mut self) -> Option<RecordId> {
        let table = TableId(self.u16()?);
        let key = self.u64()?;
        Some(RecordId { table, key })
    }

    fn op(&mut self) -> Option<RedoOp> {
        Some(match self.u8()? {
            0 => RedoOp::Put(self.row()?),
            1 => RedoOp::Insert(self.row()?),
            2 => RedoOp::Delete,
            _ => return None,
        })
    }

    fn done(&self) -> bool {
        self.pos == self.data.len()
    }
}

/// Encode one record's payload (no framing).
fn encode_payload(rec: &WalRecord, buf: &mut Vec<u8>) {
    match rec {
        WalRecord::Redo { txn, writes } => {
            buf.push(1);
            put_u64(buf, txn.0);
            put_u32(buf, writes.len() as u32);
            for w in writes {
                put_record_id(buf, w.record);
                put_u64(buf, w.version);
                put_op(buf, &w.op);
            }
        }
        WalRecord::Decide {
            txn,
            proc,
            pending_inner,
            writes,
        } => {
            buf.push(2);
            put_u64(buf, txn.0);
            put_str(buf, proc);
            match pending_inner {
                Some(p) => {
                    buf.push(1);
                    put_u32(buf, p.0);
                }
                None => buf.push(0),
            }
            put_u32(buf, writes.len() as u32);
            for w in writes {
                put_u32(buf, w.partition.0);
                put_record_id(buf, w.record);
                put_op(buf, &w.op);
            }
        }
        WalRecord::InnerCommit { txn } => {
            buf.push(3);
            put_u64(buf, txn.0);
        }
        WalRecord::Ack { txn } => {
            buf.push(4);
            put_u64(buf, txn.0);
        }
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut c = Cursor::new(payload);
    let rec = match c.u8()? {
        1 => {
            let txn = TxnId(c.u64()?);
            let n = c.u32()? as usize;
            let mut writes = Vec::new();
            for _ in 0..n {
                let record = c.record_id()?;
                let version = c.u64()?;
                let op = c.op()?;
                writes.push(RedoWrite {
                    record,
                    version,
                    op,
                });
            }
            WalRecord::Redo { txn, writes }
        }
        2 => {
            let txn = TxnId(c.u64()?);
            let proc = c.str()?;
            let pending_inner = match c.u8()? {
                0 => None,
                1 => Some(PartitionId(c.u32()?)),
                _ => return None,
            };
            let n = c.u32()? as usize;
            let mut writes = Vec::new();
            for _ in 0..n {
                let partition = PartitionId(c.u32()?);
                let record = c.record_id()?;
                let op = c.op()?;
                writes.push(DecideWrite {
                    partition,
                    record,
                    op,
                });
            }
            WalRecord::Decide {
                txn,
                proc,
                pending_inner,
                writes,
            }
        }
        3 => WalRecord::InnerCommit {
            txn: TxnId(c.u64()?),
        },
        4 => WalRecord::Ack {
            txn: TxnId(c.u64()?),
        },
        _ => return None,
    };
    // A record is only valid if the payload is fully consumed — trailing
    // garbage means the frame did not come from this encoder.
    if c.done() {
        Some(rec)
    } else {
        None
    }
}

/// Append one `[len][crc][payload]` frame to `buf`, encoding the payload
/// in place: the 8-byte header is reserved first, `encode` writes the
/// payload straight after it, and length and CRC are backfilled over the
/// payload slice — no intermediate payload buffer.
fn encode_framed(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let header = buf.len();
    buf.extend_from_slice(&[0; 8]);
    encode(buf);
    let payload = &buf[header + 8..];
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    buf[header..header + 4].copy_from_slice(&len);
    buf[header + 4..header + 8].copy_from_slice(&crc);
}

/// Encode one framed record (`[len][crc][payload]`) onto `buf`.
pub fn encode_record(rec: &WalRecord, buf: &mut Vec<u8>) {
    encode_framed(buf, |buf| encode_payload(rec, buf));
}

/// Decode a stream of framed records, stopping at the first frame that is
/// incomplete, fails its CRC, or does not decode. Returns the records of
/// the valid prefix and the prefix's byte length — the torn-tail
/// truncation point.
pub fn decode_stream(data: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if data.len() - pos < 8 {
            break;
        }
        let len = u32::from_le_bytes([data[pos], data[pos + 1], data[pos + 2], data[pos + 3]]);
        let crc = u32::from_le_bytes([data[pos + 4], data[pos + 5], data[pos + 6], data[pos + 7]]);
        if len > MAX_FRAME_LEN || data.len() - pos - 8 < len as usize {
            break;
        }
        let payload = &data[pos + 8..pos + 8 + len as usize];
        if crc32(payload) != crc {
            break;
        }
        match decode_payload(payload) {
            Some(rec) => records.push(rec),
            None => break,
        }
        pos += 8 + len as usize;
    }
    (records, pos)
}

// ---------------------------------------------------------------------------
// Log writer (group commit)
// ---------------------------------------------------------------------------

/// Counters a [`Wal`] accumulates; the engine folds them into the run's
/// telemetry so fsync amortization is observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (all kinds).
    pub records_appended: u64,
    /// Bytes appended (framing included).
    pub bytes_appended: u64,
    /// Buffered-write flushes that reached the file.
    pub flushes: u64,
    /// fsyncs issued (one per non-empty flush).
    pub fsyncs: u64,
    /// Valid records recovered on open.
    pub recovered_records: u64,
    /// Torn-tail bytes dropped on open.
    pub torn_bytes_dropped: u64,
}

/// Append-only per-engine redo log with group commit: appends buffer in
/// memory and an fsync is issued when the number of buffered commit marks
/// reaches the batch size, or when the owner flushes at a batch boundary
/// (the same amortization points the runtime already uses for sends).
///
/// Write errors panic: a durability subsystem that cannot write its log
/// has no useful degraded mode.
pub struct Wal {
    file: File,
    path: PathBuf,
    buf: Vec<u8>,
    pending_commit_marks: u64,
    fsync_batch: u64,
    /// Counters (fsyncs, bytes, recovery) for telemetry.
    pub stats: WalStats,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("buffered", &self.buf.len())
            .field("fsync_batch", &self.fsync_batch)
            .finish()
    }
}

impl Wal {
    /// Open (or create) the log at `path`, scan its valid prefix, truncate
    /// any torn tail, and return the writer positioned at the end plus the
    /// recovered records.
    pub fn open(path: &Path, fsync_batch: u64) -> std::io::Result<(Wal, Vec<WalRecord>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let (records, valid_len) = decode_stream(&data);
        let mut stats = WalStats {
            recovered_records: records.len() as u64,
            ..WalStats::default()
        };
        if valid_len < data.len() {
            stats.torn_bytes_dropped = (data.len() - valid_len) as u64;
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                buf: Vec::new(),
                pending_commit_marks: 0,
                fsync_batch: fsync_batch.max(1),
                stats,
            },
            records,
        ))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Change the group-commit batch size (buffered commit marks per fsync).
    pub fn set_fsync_batch(&mut self, batch: u64) {
        self.fsync_batch = batch.max(1);
    }

    /// Append one record; flushes (write + fsync) when the buffered commit
    /// marks reach the batch size.
    pub fn append(&mut self, rec: &WalRecord) {
        let before = self.buf.len();
        encode_record(rec, &mut self.buf);
        self.stats.records_appended += 1;
        self.stats.bytes_appended += (self.buf.len() - before) as u64;
        if rec.is_commit_mark() {
            self.pending_commit_marks += 1;
            if self.pending_commit_marks >= self.fsync_batch {
                self.flush();
            }
        }
    }

    /// Bytes buffered but not yet on disk.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Push buffered bytes into the OS file **without** forcing them to
    /// disk. The batch-boundary valve for group commit: bounds the
    /// in-memory buffer at every engine batch without spending the fsync
    /// the commit-mark counter is amortizing. Commit marks written this
    /// way stay pending until the next [`Self::flush`].
    pub fn write_through(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.file
            .write_all(&self.buf)
            .unwrap_or_else(|e| panic!("wal write to {} failed: {e}", self.path.display()));
        self.buf.clear();
        self.stats.flushes += 1;
    }

    /// Write and fsync everything buffered. No-op when nothing is pending
    /// — neither buffered bytes nor commit marks awaiting their fsync.
    pub fn flush(&mut self) {
        if self.buf.is_empty() && self.pending_commit_marks == 0 {
            return;
        }
        if !self.buf.is_empty() {
            self.file
                .write_all(&self.buf)
                .unwrap_or_else(|e| panic!("wal write to {} failed: {e}", self.path.display()));
            self.buf.clear();
            self.stats.flushes += 1;
        }
        self.file
            .sync_data()
            .unwrap_or_else(|e| panic!("wal fsync of {} failed: {e}", self.path.display()));
        self.pending_commit_marks = 0;
        self.stats.fsyncs += 1;
    }

    /// Discard the log's contents (after a checkpoint made them redundant).
    /// Pending buffered records are dropped too — the caller checkpoints
    /// state that already includes them.
    pub fn truncate(&mut self) {
        self.buf.clear();
        self.pending_commit_marks = 0;
        self.file
            .set_len(0)
            .unwrap_or_else(|e| panic!("wal truncate of {} failed: {e}", self.path.display()));
        self.file
            .seek(SeekFrom::Start(0))
            .expect("wal seek after truncate");
        self.file
            .sync_data()
            .unwrap_or_else(|e| panic!("wal fsync of {} failed: {e}", self.path.display()));
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// A full snapshot of one partition's durable state: every row plus the
/// complete per-record version map — including tombstone versions for
/// deleted records, so a post-recovery re-insert continues the version
/// chain instead of duplicating an already-installed version.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreSnapshot {
    /// Per-table rows and version maps.
    pub tables: Vec<TableSnapshot>,
}

/// One table's rows and record versions in a [`StoreSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Table captured.
    pub table: TableId,
    /// `(key, row)` pairs.
    pub rows: Vec<(u64, Row)>,
    /// Complete `(key, record_version)` map, tombstones included.
    pub versions: Vec<(u64, u64)>,
}

fn encode_snapshot(snap: &StoreSnapshot, buf: &mut Vec<u8>) {
    put_u32(buf, snap.tables.len() as u32);
    for t in &snap.tables {
        put_u16(buf, t.table.0);
        put_u32(buf, t.rows.len() as u32);
        for (k, row) in &t.rows {
            put_u64(buf, *k);
            put_row(buf, row);
        }
        put_u32(buf, t.versions.len() as u32);
        for (k, v) in &t.versions {
            put_u64(buf, *k);
            put_u64(buf, *v);
        }
    }
}

fn decode_snapshot(payload: &[u8]) -> Option<StoreSnapshot> {
    let mut c = Cursor::new(payload);
    let nt = c.u32()? as usize;
    let mut tables = Vec::new();
    for _ in 0..nt {
        let table = TableId(c.u16()?);
        let nr = c.u32()? as usize;
        let mut rows = Vec::new();
        for _ in 0..nr {
            let k = c.u64()?;
            let row = c.row()?;
            rows.push((k, row));
        }
        let nv = c.u32()? as usize;
        let mut versions = Vec::new();
        for _ in 0..nv {
            let k = c.u64()?;
            let v = c.u64()?;
            versions.push((k, v));
        }
        tables.push(TableSnapshot {
            table,
            rows,
            versions,
        });
    }
    if c.done() {
        Some(StoreSnapshot { tables })
    } else {
        None
    }
}

/// Write `store`'s snapshot to `path` atomically: encode + CRC-frame into
/// `path.tmp`, fsync, rename over `path`, fsync the directory. A crash at
/// any point leaves either the old checkpoint or the new one, never a
/// partial file.
pub fn write_checkpoint(path: &Path, store: &PartitionStore) -> std::io::Result<()> {
    let snap = store.snapshot();
    let mut framed = Vec::new();
    encode_framed(&mut framed, |buf| encode_snapshot(&snap, buf));

    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&framed)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Make the rename durable; some filesystems do not support
        // fsyncing directories, so failures are tolerated.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Read the checkpoint at `path`. Returns `None` when the file is absent
/// or does not validate (a checkpoint is written atomically, so an invalid
/// file means "no checkpoint", not "torn checkpoint").
pub fn read_checkpoint(path: &Path) -> Option<StoreSnapshot> {
    let data = std::fs::read(path).ok()?;
    if data.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) as usize;
    let crc = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
    if data.len() - 8 != len {
        return None;
    }
    let payload = &data[8..];
    if crc32(payload) != crc {
        return None;
    }
    decode_snapshot(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chiller_common::ids::NodeId;

    fn txn(seq: u64) -> TxnId {
        TxnId::new(NodeId(1), seq)
    }

    fn rid(k: u64) -> RecordId {
        RecordId::new(TableId(3), k)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Decide {
                txn: txn(1),
                proc: "transfer".to_string(),
                pending_inner: Some(PartitionId(2)),
                writes: vec![
                    DecideWrite {
                        partition: PartitionId(0),
                        record: rid(7),
                        op: RedoOp::Put(Row::from([Value::I64(-5), Value::F64(1.25)])),
                    },
                    DecideWrite {
                        partition: PartitionId(2),
                        record: rid(9),
                        op: RedoOp::Delete,
                    },
                ],
            },
            WalRecord::InnerCommit { txn: txn(1) },
            WalRecord::Redo {
                txn: txn(1),
                writes: vec![RedoWrite {
                    record: rid(7),
                    version: 42,
                    op: RedoOp::Insert(Row::from([Value::Str("déjà".into()), Value::Null])),
                }],
            },
            WalRecord::Ack { txn: txn(1) },
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn codec_roundtrips_every_record_kind() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
        }
        let (decoded, len) = decode_stream(&buf);
        assert_eq!(decoded, recs);
        assert_eq!(len, buf.len());
    }

    #[test]
    fn torn_tail_recovers_longest_valid_prefix() {
        let recs = sample_records();
        let mut buf = Vec::new();
        let mut offsets = vec![0usize];
        for r in &recs {
            encode_record(r, &mut buf);
            offsets.push(buf.len());
        }
        // Truncating at every byte offset must recover exactly the records
        // whose frames fit, and never panic.
        for cut in 0..=buf.len() {
            let (decoded, len) = decode_stream(&buf[..cut]);
            let whole = offsets.iter().filter(|&&o| o <= cut).count() - 1;
            assert_eq!(decoded.len(), whole, "cut at {cut}");
            assert_eq!(len, offsets[whole], "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_stops_the_scan() {
        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
        }
        // Flip a byte in the last record's payload: earlier records still
        // decode, the corrupt one is dropped.
        let n = buf.len();
        buf[n - 1] ^= 0xFF;
        let (decoded, _) = decode_stream(&buf);
        assert_eq!(decoded.len(), recs.len() - 1);
    }

    #[test]
    fn wal_open_append_reopen_roundtrips() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.wal");
        let _ = std::fs::remove_file(&path);

        let recs = sample_records();
        {
            let (mut wal, recovered) = Wal::open(&path, 1).unwrap();
            assert!(recovered.is_empty());
            for r in &recs {
                wal.append(r);
            }
            wal.flush();
            assert!(wal.stats.fsyncs >= 1);
        }
        let (wal, recovered) = Wal::open(&path, 1).unwrap();
        assert_eq!(recovered, recs);
        assert_eq!(wal.stats.recovered_records, recs.len() as u64);
        assert_eq!(wal.stats.torn_bytes_dropped, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wal_open_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let _ = std::fs::remove_file(&path);

        let recs = sample_records();
        let mut buf = Vec::new();
        for r in &recs {
            encode_record(r, &mut buf);
        }
        // Simulate a torn write: drop the last 3 bytes.
        std::fs::write(&path, &buf[..buf.len() - 3]).unwrap();
        let (wal, recovered) = Wal::open(&path, 4).unwrap();
        assert_eq!(recovered.len(), recs.len() - 1);
        assert!(wal.stats.torn_bytes_dropped > 0);
        drop(wal);
        // The tail was truncated on disk, so a second open sees a clean log.
        let (wal2, recovered2) = Wal::open(&path, 4).unwrap();
        assert_eq!(recovered2.len(), recs.len() - 1);
        assert_eq!(wal2.stats.torn_bytes_dropped, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path, 4).unwrap();
        for seq in 0..8 {
            wal.append(&WalRecord::Decide {
                txn: txn(seq),
                proc: "p".into(),
                pending_inner: None,
                writes: vec![],
            });
            // Redo/Ack records never trigger an fsync by themselves.
            wal.append(&WalRecord::Ack { txn: txn(seq) });
        }
        // 8 commit marks at batch 4 → exactly 2 fsyncs; the trailing Ack
        // (appended after the second batch filled) stays buffered until
        // the owner's next batch-boundary flush.
        assert_eq!(wal.stats.fsyncs, 2);
        assert!(wal.buffered() > 0);
        wal.flush();
        assert_eq!(wal.stats.fsyncs, 3);
        assert_eq!(wal.buffered(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncate_empties_the_log() {
        let dir = std::env::temp_dir().join(format!("chiller-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.wal");
        let _ = std::fs::remove_file(&path);

        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        wal.append(&WalRecord::Ack { txn: txn(1) });
        wal.flush();
        wal.truncate();
        drop(wal);
        let (_, recovered) = Wal::open(&path, 1).unwrap();
        assert!(recovered.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}

/// The in-place frame encoder against the reference layout it replaced
/// (payload encoded into its own buffer, then length, CRC and payload
/// appended): byte-equal for random records, appended after arbitrary
/// existing log contents.
#[cfg(test)]
mod frame_props {
    use super::*;
    use chiller_common::ids::NodeId;
    use proptest::prelude::*;

    fn encode_record_reference(rec: &WalRecord, buf: &mut Vec<u8>) {
        let mut payload = Vec::new();
        encode_payload(rec, &mut payload);
        put_u32(buf, payload.len() as u32);
        put_u32(buf, crc32(&payload));
        buf.extend_from_slice(&payload);
    }

    fn row_strategy() -> impl Strategy<Value = Row> {
        let value = prop_oneof![
            any::<i64>().prop_map(Value::I64),
            any::<i32>().prop_map(|i| Value::F64(f64::from(i) * 0.25)),
            (0u32..5000).prop_map(|n| Value::Str(format!("v{n}"))),
            (0u8..1).prop_map(|_| Value::Null),
        ];
        prop::collection::vec(value, 0..6).prop_map(Row::from)
    }

    fn op_strategy() -> impl Strategy<Value = RedoOp> {
        prop_oneof![
            row_strategy().prop_map(RedoOp::Put),
            row_strategy().prop_map(RedoOp::Insert),
            (0u8..1).prop_map(|_| RedoOp::Delete),
        ]
    }

    fn txn_strategy() -> impl Strategy<Value = TxnId> {
        (0u32..64, any::<u32>()).prop_map(|(n, s)| TxnId::new(NodeId(n), s as u64))
    }

    fn rid_strategy() -> impl Strategy<Value = RecordId> {
        (1u16..9, any::<u64>()).prop_map(|(t, k)| RecordId::new(TableId(t), k))
    }

    fn record_strategy() -> impl Strategy<Value = WalRecord> {
        let redo =
            (rid_strategy(), any::<u64>(), op_strategy()).prop_map(|(record, version, op)| {
                RedoWrite {
                    record,
                    version,
                    op,
                }
            });
        let decide =
            (any::<u32>(), rid_strategy(), op_strategy()).prop_map(|(p, record, op)| DecideWrite {
                partition: PartitionId(p),
                record,
                op,
            });
        prop_oneof![
            (txn_strategy(), prop::collection::vec(redo, 0..8))
                .prop_map(|(txn, writes)| WalRecord::Redo { txn, writes }),
            (
                txn_strategy(),
                0u32..1000,
                prop::option::of(any::<u32>().prop_map(PartitionId)),
                prop::collection::vec(decide, 0..8),
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

    proptest! {
        #[test]
        fn in_place_frames_equal_the_reference_bytes(
            prefix in prop::collection::vec(any::<u8>(), 0..40),
            records in prop::collection::vec(record_strategy(), 1..12),
        ) {
            let mut fresh = prefix.clone();
            let mut reference = prefix;
            for rec in &records {
                encode_record(rec, &mut fresh);
                encode_record_reference(rec, &mut reference);
            }
            prop_assert_eq!(fresh, reference);
        }
    }
}
