//! Per-shard write-ahead log for accepted ticks.
//!
//! Snapshots alone bound crash loss to "everything since the last
//! snapshot" — the PR 5 simulator pinned that to one tick only by
//! forcing `snapshot_every == 1`, which serialises a full detector
//! serialisation into every tick. The WAL removes the trade-off: a
//! shard appends every accepted frame *before* detection, so a resume
//! replays `snapshot + WAL suffix` and recovers **exactly** the ticks
//! the daemon accepted, at any snapshot cadence.
//!
//! ## On-disk format
//!
//! Each shard owns a directory of numbered segments
//! (`shard_{s}/seg_{index:08}.wal`, sealed after
//! [`RECORDS_PER_SEGMENT`] records). A segment is a sequence of
//! CRC-framed binary records, all little-endian:
//!
//! ```text
//! magic  u32   0x5741_4C31 ("WAL1")
//! unit   u64
//! tick   u64
//! dbs    u32
//! kpis   u32
//! frame  dbs*kpis f64 bit patterns (row-major, NaN preserved)
//! crc    u32   CRC-32/IEEE over unit..frame (everything between
//!              magic and crc)
//! ```
//!
//! Frames are stored as raw `f64` bit patterns rather than JSON because
//! the wire layer's NaN ⇄ null mapping is lossy at the bit level and
//! replay must be bit-identical to the original ingest.
//!
//! ## Recovery semantics
//!
//! [`recover_shard`] distinguishes the two corruption shapes:
//!
//! - **Truncated tail** — a partial record at end-of-file is the normal
//!   artifact of dying mid-append. The complete prefix is recovered and
//!   the partial record (never acknowledged as durable) is dropped.
//! - **Corrupt record** — a bad magic, an implausible geometry or a CRC
//!   mismatch mid-segment means the segment can no longer be trusted
//!   past that point: the rest of *that segment* is discarded loudly
//!   (diagnostic recorded, [`ShardRecovery::corrupt_segments`] bumped)
//!   and recovery continues with later segments.
//!
//! Replay itself (in the shard worker) walks each unit's records
//! contiguously from its snapshot floor; a gap — which only a discarded
//! corrupt region can create — stops that unit's replay at the gap with
//! a recorded error. Recovery is therefore *exact or fails loudly*,
//! never silently wrong.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Record preamble: `"WAL1"` interpreted as a little-endian u32.
pub const WAL_MAGIC: u32 = 0x5741_4C31;

/// Records per segment before the writer seals it and starts the next.
pub const RECORDS_PER_SEGMENT: u64 = 512;

/// Bytes of the record magic, which the CRC does not cover.
const MAGIC_BYTES: usize = 4;

/// Fixed header bytes before the frame payload (magic + unit + tick +
/// dbs + kpis).
const HEADER_BYTES: usize = MAGIC_BYTES + 8 + 8 + 4 + 4;

/// Trailing checksum bytes.
const CRC_BYTES: usize = 4;

/// Geometry sanity bounds: a record claiming more than this is corrupt,
/// not a real frame (guards recovery against multi-gigabyte allocations
/// from a damaged length field).
const MAX_DIM: u32 = 4096;
const MAX_CELLS: u64 = 1 << 20;

/// CRC-32/IEEE polynomial, bit-reflected (the zlib polynomial).
const CRC_POLY: u32 = 0xEDB8_8320;

/// The CRC register after shifting the byte `byte` through it bit by bit.
const fn crc_byte(byte: u32) -> u32 {
    let mut crc = byte;
    let mut bit = 0;
    while bit < 8 {
        crc = if crc & 1 == 1 {
            (crc >> 1) ^ CRC_POLY
        } else {
            crc >> 1
        };
        bit += 1;
    }
    crc
}

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is the register contribution
/// of byte `b` followed by `k` zero bytes, so eight table lookups advance
/// the CRC over one 8-byte word.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut rows: &mut [[u32; 256]] = &mut tables;
    let mut zeros = 0;
    while let [table, rest @ ..] = rows {
        let mut slots: &mut [u32] = table;
        let mut byte = 0;
        while let [slot, tail @ ..] = slots {
            let mut crc = crc_byte(byte);
            let mut k = 0;
            while k < zeros {
                crc = (crc >> 8) ^ crc_byte(crc & 0xFF);
                k += 1;
            }
            *slot = crc;
            slots = tail;
            byte += 1;
        }
        rows = rest;
        zeros += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// `table[index & 0xFF]`; the mask keeps the lookup in bounds, so the
/// fallback never applies and the check compiles away.
fn lookup(table: &[u32; 256], index: u64) -> u32 {
    table
        .get((index & 0xFF) as usize)
        .copied()
        .unwrap_or_default()
}

/// CRC-32/IEEE (the zlib polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continues `crc`, the CRC-32 of some prefix, over `bytes`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`. Eight bytes at a time
/// through the slicing-by-8 tables, then byte by byte.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut crc = !crc;
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        let w = u64::from_le_bytes(*word) ^ u64::from(crc);
        crc = lookup(t7, w)
            ^ lookup(t6, w >> 8)
            ^ lookup(t5, w >> 16)
            ^ lookup(t4, w >> 24)
            ^ lookup(t3, w >> 32)
            ^ lookup(t2, w >> 40)
            ^ lookup(t1, w >> 48)
            ^ lookup(t0, w >> 56);
    }
    for &b in tail {
        crc = (crc >> 8) ^ lookup(t0, u64::from(crc ^ u32::from(b)));
    }
    !crc
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Unit that accepted the tick.
    pub unit: usize,
    /// Absolute tick index.
    pub tick: u64,
    /// The frame exactly as accepted (`dbs` rows of `kpis` values).
    pub frame: Vec<Vec<f64>>,
}

/// Serialises one record into its on-disk framing.
pub fn encode_record(unit: usize, tick: u64, frame: &[Vec<f64>]) -> Vec<u8> {
    let mut out = Vec::new();
    write_record(&mut out, unit, tick, frame);
    out
}

/// Replaces the contents of `out` with one record's on-disk framing;
/// a buffer reused across appends stops allocating once it fits a frame.
fn write_record(out: &mut Vec<u8>, unit: usize, tick: u64, frame: &[Vec<f64>]) {
    let dbs = frame.len() as u32;
    let kpis = frame.first().map_or(0, |row| row.len() as u32);
    out.clear();
    out.reserve(HEADER_BYTES + (dbs as usize) * (kpis as usize) * 8 + CRC_BYTES);
    out.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    out.extend_from_slice(&(unit as u64).to_le_bytes());
    out.extend_from_slice(&tick.to_le_bytes());
    out.extend_from_slice(&dbs.to_le_bytes());
    out.extend_from_slice(&kpis.to_le_bytes());
    for row in frame {
        for &value in row {
            out.extend_from_slice(&value.to_bits().to_le_bytes());
        }
    }
    // The CRC covers everything after the magic.
    let crc = crc32(out.get(MAGIC_BYTES..).unwrap_or_default());
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Little-endian u32 at `off`; reads past the end yield 0-padding, which
/// downstream CRC/length validation rejects as a torn record.
fn read_u32(data: &[u8], off: usize) -> u32 {
    let mut bytes = [0u8; 4];
    if let Some(src) = data.get(off..off + 4) {
        bytes.copy_from_slice(src);
    }
    u32::from_le_bytes(bytes)
}

/// Little-endian u64 at `off`; same 0-padding contract as [`read_u32`].
fn read_u64(data: &[u8], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    if let Some(src) = data.get(off..off + 8) {
        bytes.copy_from_slice(src);
    }
    u64::from_le_bytes(bytes)
}

/// Per-unit pending frames recovered from the log, keyed by tick.
pub type PendingFrames = BTreeMap<usize, BTreeMap<u64, Vec<Vec<f64>>>>;

/// What one sealed-or-active segment contains, for garbage collection.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Monotonic segment number parsed from the file name.
    pub index: u64,
    /// Full path of the segment file.
    pub path: PathBuf,
    /// Highest tick each unit has in this segment.
    pub max_ticks: BTreeMap<usize, u64>,
}

/// Everything [`recover_shard`] learned from one shard's WAL directory.
#[derive(Debug, Default)]
pub struct ShardRecovery {
    /// Recovered frames per unit, ascending by tick; a tick appended
    /// twice (a client resend after a restart rewind) keeps the last
    /// copy, which replay requires to be identical anyway.
    pub pending: PendingFrames,
    /// Segment inventory, ascending by index, for the writer's GC.
    pub segments: Vec<SegmentMeta>,
    /// Human-readable recovery notes (truncated tails, corrupt records).
    pub diagnostics: Vec<String>,
    /// Segments that contained an unrecoverable (non-tail) corruption.
    pub corrupt_segments: usize,
}

impl ShardRecovery {
    /// Exact position a resume recovers a unit to: the snapshot floor
    /// `base` advanced through the contiguous WAL suffix. A gap (only a
    /// corrupt discarded region can create one) stops the walk — replay
    /// refuses to skip ticks silently.
    pub fn recovered_position(&self, unit: usize, base: u64) -> u64 {
        let mut next = base;
        if let Some(ticks) = self.pending.get(&unit) {
            while ticks.contains_key(&next) {
                next += 1;
            }
        }
        next
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg_{index:08}.wal"))
}

fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(segments),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(index) = name
            .strip_prefix("seg_")
            .and_then(|rest| rest.strip_suffix(".wal"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(index, _)| *index);
    Ok(segments)
}

/// Reads every segment of one shard's WAL directory and recovers the
/// complete, verifiable prefix of each. A missing directory is an empty
/// log, not an error.
pub fn recover_shard(dir: &Path) -> io::Result<ShardRecovery> {
    let mut recovery = ShardRecovery::default();
    let segments = list_segments(dir)?;
    let last_index = segments.last().map(|(index, _)| *index);
    for (index, path) in segments {
        let data = fs::read(&path)?;
        let mut meta = SegmentMeta {
            index,
            path: path.clone(),
            max_ticks: BTreeMap::new(),
        };
        let mut off = 0usize;
        while off < data.len() {
            let remaining = data.len() - off;
            if remaining < HEADER_BYTES {
                note_tail(&mut recovery, &path, off, index, last_index);
                break;
            }
            let magic = read_u32(&data, off);
            if magic != WAL_MAGIC {
                recovery.diagnostics.push(format!(
                    "{}: bad magic {magic:#010x} at byte {off}; discarding rest of segment",
                    path.display()
                ));
                recovery.corrupt_segments += 1;
                break;
            }
            let unit = read_u64(&data, off + 4);
            let tick = read_u64(&data, off + 12);
            let dbs = read_u32(&data, off + 20);
            let kpis = read_u32(&data, off + 24);
            let cells = u64::from(dbs) * u64::from(kpis);
            if dbs == 0 || kpis == 0 || dbs > MAX_DIM || kpis > MAX_DIM || cells > MAX_CELLS {
                recovery.diagnostics.push(format!(
                    "{}: implausible geometry {dbs}x{kpis} at byte {off}; discarding rest of segment",
                    path.display()
                ));
                recovery.corrupt_segments += 1;
                break;
            }
            let payload = cells as usize * 8;
            let total = HEADER_BYTES + payload + CRC_BYTES;
            if remaining < total {
                note_tail(&mut recovery, &path, off, index, last_index);
                break;
            }
            let stored = read_u32(&data, off + HEADER_BYTES + payload);
            let covered = data.get(off + MAGIC_BYTES..off + HEADER_BYTES + payload);
            let computed = crc32(covered.unwrap_or_default());
            if stored != computed {
                recovery.diagnostics.push(format!(
                    "{}: CRC mismatch at byte {off} (stored {stored:#010x}, computed {computed:#010x}); discarding rest of segment",
                    path.display()
                ));
                recovery.corrupt_segments += 1;
                break;
            }
            let mut frame = Vec::with_capacity(dbs as usize);
            let mut cursor = off + HEADER_BYTES;
            for _ in 0..dbs {
                let mut row = Vec::with_capacity(kpis as usize);
                for _ in 0..kpis {
                    row.push(f64::from_bits(read_u64(&data, cursor)));
                    cursor += 8;
                }
                frame.push(row);
            }
            let unit = unit as usize;
            meta.max_ticks
                .entry(unit)
                .and_modify(|max| *max = (*max).max(tick))
                .or_insert(tick);
            recovery
                .pending
                .entry(unit)
                .or_default()
                .insert(tick, frame);
            off += total;
        }
        recovery.segments.push(meta);
    }
    Ok(recovery)
}

fn note_tail(recovery: &mut ShardRecovery, path: &Path, off: usize, index: u64, last: Option<u64>) {
    recovery.diagnostics.push(format!(
        "{}: truncated record at byte {off}; dropped partial tail",
        path.display()
    ));
    // A torn tail is only the expected crash artifact on the *last*
    // segment; anywhere earlier the segment was sealed and should have
    // been complete, so count it as corruption.
    if Some(index) != last {
        recovery.corrupt_segments += 1;
    }
}

/// Append side of one shard's log. Not thread-safe by design: exactly
/// one worker generation owns a shard's WAL at a time (the supervisor
/// fences the old generation before starting a new writer, and a fresh
/// writer always opens a *new* segment, never appending to files an
/// abandoned zombie might still hold).
pub struct WalWriter {
    dir: PathBuf,
    fsync_every: u64,
    file: File,
    seg_index: u64,
    records_in_segment: u64,
    unsynced: u64,
    active_max: BTreeMap<usize, u64>,
    sealed: Vec<SegmentMeta>,
    floors: BTreeMap<usize, u64>,
    /// Encoding buffer reused by every append.
    record: Vec<u8>,
}

impl WalWriter {
    /// Opens the writer over a recovered directory, starting a fresh
    /// segment after the highest existing index. `fsync_every == 1`
    /// syncs every append; larger values batch (`0` behaves as `1`).
    pub fn open(dir: &Path, fsync_every: u64, recovered: &ShardRecovery) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let seg_index = recovered.segments.last().map_or(0, |meta| meta.index + 1);
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(dir, seg_index))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            fsync_every: fsync_every.max(1),
            file,
            seg_index,
            records_in_segment: 0,
            unsynced: 0,
            active_max: BTreeMap::new(),
            sealed: recovered.segments.clone(),
            floors: BTreeMap::new(),
            record: Vec::new(),
        })
    }

    /// Appends one accepted tick. The record is written with a single
    /// `write` call; durability against power loss follows the fsync
    /// batching cadence (a crash between syncs can only lose ticks the
    /// client has not seen survive a restart boundary yet — process
    /// kills, the simulator's fault model, lose nothing).
    pub fn append(&mut self, unit: usize, tick: u64, frame: &[Vec<f64>]) -> io::Result<()> {
        write_record(&mut self.record, unit, tick, frame);
        self.file.write_all(&self.record)?;
        self.records_in_segment += 1;
        self.unsynced += 1;
        self.active_max
            .entry(unit)
            .and_modify(|max| *max = (*max).max(tick))
            .or_insert(tick);
        if self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        if self.records_in_segment >= RECORDS_PER_SEGMENT {
            self.seal_and_rotate()?;
        }
        Ok(())
    }

    /// Forces pending appends to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    fn seal_and_rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        self.sealed.push(SegmentMeta {
            index: self.seg_index,
            path: segment_path(&self.dir, self.seg_index),
            max_ticks: std::mem::take(&mut self.active_max),
        });
        self.seg_index += 1;
        self.file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(&self.dir, self.seg_index))?;
        self.records_in_segment = 0;
        self.gc();
        Ok(())
    }

    /// Records that `unit` is durably snapshotted up to (excluding)
    /// `next_tick`, then drops sealed segments wholly below every floor.
    pub fn note_floor(&mut self, unit: usize, next_tick: u64) {
        self.floors
            .entry(unit)
            .and_modify(|floor| *floor = (*floor).max(next_tick))
            .or_insert(next_tick);
        self.gc();
    }

    /// Deletes sealed segments every unit has snapshotted past. A unit
    /// with records in the segment but no known floor keeps it alive.
    fn gc(&mut self) {
        let floors = &self.floors;
        self.sealed.retain(|meta| {
            let covered = meta
                .max_ticks
                .iter()
                .all(|(unit, max)| floors.get(unit).is_some_and(|floor| *floor > *max));
            if covered {
                let _ = fs::remove_file(&meta.path);
            }
            !covered
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn scratch() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dbcatcher_wal_unit_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn frame(seed: u64, dbs: usize, kpis: usize) -> Vec<Vec<f64>> {
        (0..dbs)
            .map(|d| {
                (0..kpis)
                    .map(|k| {
                        if (seed + d as u64 + k as u64).is_multiple_of(7) {
                            f64::NAN
                        } else {
                            (seed as f64) * 1.25 + d as f64 * 0.5 + k as f64
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn bits(frame: &[Vec<f64>]) -> Vec<Vec<u64>> {
        frame
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition: the reflected polynomial shifted through one bit
    /// at a time, no tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ CRC_POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest::proptest! {
        /// Slicing-by-8 equals the bitwise definition at every length and
        /// start offset (so every word alignment and tail length), and
        /// continuing over any split equals the one-shot CRC.
        #[test]
        fn crc32_matches_bitwise_reference(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..4096,
            skip in 0usize..8,
            cuts in proptest::prelude::prop::collection::vec(0usize..4096, 0..6),
        ) {
            let mut state = seed;
            let bytes: Vec<u8> = (0..len + skip)
                .map(|_| {
                    state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (state >> 56) as u8
                })
                .collect();
            let bytes = &bytes[skip.min(bytes.len())..];
            let whole = crc32(bytes);
            assert_eq!(whole, crc32_bitwise(bytes));
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut crc = 0;
            let mut start = 0;
            for cut in cuts {
                crc = crc32_update(crc, &bytes[start..cut]);
                start = cut;
            }
            assert_eq!(crc, whole);
        }
    }

    #[test]
    fn roundtrip_preserves_nan_bit_patterns() {
        let dir = scratch();
        let empty = ShardRecovery::default();
        let mut writer = WalWriter::open(&dir, 4, &empty).expect("open");
        for tick in 0..40u64 {
            writer.append(3, tick, &frame(tick, 2, 3)).expect("append");
        }
        writer.sync().expect("sync");
        drop(writer);
        let recovered = recover_shard(&dir).expect("recover");
        assert_eq!(recovered.corrupt_segments, 0);
        let ticks = recovered.pending.get(&3).expect("unit 3 present");
        assert_eq!(ticks.len(), 40);
        for (tick, got) in ticks {
            assert_eq!(bits(got), bits(&frame(*tick, 2, 3)), "tick {tick}");
        }
        assert_eq!(recovered.recovered_position(3, 0), 40);
        assert_eq!(recovered.recovered_position(3, 25), 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_drops_only_the_partial_record() {
        let dir = scratch();
        let empty = ShardRecovery::default();
        let mut writer = WalWriter::open(&dir, 1, &empty).expect("open");
        for tick in 0..5u64 {
            writer.append(0, tick, &frame(tick, 2, 2)).expect("append");
        }
        drop(writer);
        let seg = segment_path(&dir, 0);
        let data = fs::read(&seg).expect("segment");
        let record_len = data.len() / 5;
        fs::write(&seg, &data[..data.len() - record_len / 2]).expect("truncate");
        let recovered = recover_shard(&dir).expect("recover");
        assert_eq!(
            recovered.corrupt_segments, 0,
            "a torn tail is not corruption"
        );
        assert_eq!(recovered.pending[&0].len(), 4);
        assert_eq!(recovered.recovered_position(0, 0), 4);
        assert!(!recovered.diagnostics.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_discards_the_segment_suffix_loudly() {
        let dir = scratch();
        let empty = ShardRecovery::default();
        let mut writer = WalWriter::open(&dir, 1, &empty).expect("open");
        for tick in 0..6u64 {
            writer.append(0, tick, &frame(tick, 2, 2)).expect("append");
        }
        drop(writer);
        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).expect("segment");
        let record_len = data.len() / 6;
        // Flip one payload byte inside the third record.
        data[2 * record_len + HEADER_BYTES + 3] ^= 0x40;
        fs::write(&seg, &data).expect("rewrite");
        let recovered = recover_shard(&dir).expect("recover");
        assert_eq!(recovered.corrupt_segments, 1);
        assert_eq!(
            recovered.pending[&0].len(),
            2,
            "only the intact prefix survives"
        );
        assert_eq!(recovered.recovered_position(0, 0), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_and_gc_drop_fully_snapshotted_segments() {
        let dir = scratch();
        let empty = ShardRecovery::default();
        let mut writer = WalWriter::open(&dir, 8, &empty).expect("open");
        let total = RECORDS_PER_SEGMENT + 10;
        for tick in 0..total {
            writer.append(1, tick, &frame(tick, 1, 1)).expect("append");
        }
        assert!(segment_path(&dir, 0).exists());
        assert!(segment_path(&dir, 1).exists());
        writer.note_floor(1, RECORDS_PER_SEGMENT);
        assert!(
            !segment_path(&dir, 0).exists(),
            "sealed segment below the floor is GC'd"
        );
        assert!(segment_path(&dir, 1).exists(), "active segment survives");
        writer.sync().expect("sync");
        drop(writer);
        let recovered = recover_shard(&dir).expect("recover");
        assert_eq!(
            recovered.recovered_position(1, RECORDS_PER_SEGMENT),
            total,
            "suffix replay still reaches the end"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_resumes_into_a_fresh_segment() {
        let dir = scratch();
        let empty = ShardRecovery::default();
        let mut writer = WalWriter::open(&dir, 1, &empty).expect("open");
        writer.append(0, 0, &frame(0, 1, 2)).expect("append");
        drop(writer);
        let recovered = recover_shard(&dir).expect("recover");
        let mut writer = WalWriter::open(&dir, 1, &recovered).expect("reopen");
        writer.append(0, 1, &frame(1, 1, 2)).expect("append");
        drop(writer);
        assert!(segment_path(&dir, 0).exists());
        assert!(
            segment_path(&dir, 1).exists(),
            "restart never appends to an old segment"
        );
        let recovered = recover_shard(&dir).expect("recover");
        assert_eq!(recovered.recovered_position(0, 0), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
