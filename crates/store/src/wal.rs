//! Append-only log, checkpoints, and recovery.
//!
//! A [`StateStore`] holds two things for one component: an ordered
//! sequence of opaque log-record payloads (appended one at a time) and
//! at most one checkpoint blob (replacing any earlier one). Recovery
//! returns the latest valid checkpoint plus every record appended
//! after it, in order.
//!
//! [`FileStore`] maps this onto a directory of files:
//!
//! ```text
//! wal-<k>.seg   = "HCMWAL1\n"  frame*          (append-only segment)
//! ckpt-<j>.bin  = "HCMCKPT\n"  frame           (one snapshot blob)
//! frame         = u32le payload_len  u32le crc32(payload)  payload
//! ```
//!
//! Indices `<k>`/`<j>` come from one monotone counter shared by both
//! file kinds, so "records after checkpoint `j`" is exactly "segments
//! with index greater than `j`". Segments rotate at
//! [`StoreConfig::segment_bytes`]; a checkpoint prunes every
//! lower-indexed file. A half-written tail (short frame or checksum
//! mismatch) is truncated on recovery and reported — torn tails are
//! data loss, never a panic.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec::crc32;

/// Magic line opening every WAL segment file.
pub const WAL_MAGIC: &[u8; 8] = b"HCMWAL1\n";
/// Magic line opening every checkpoint file.
pub const CKPT_MAGIC: &[u8; 8] = b"HCMCKPT\n";
/// Bytes of framing overhead per record (length + checksum).
pub const FRAME_OVERHEAD: u64 = 8;

/// Errors surfaced by a [`StateStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// A file was structurally invalid beyond tail truncation.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store i/o error: {m}"),
            StoreError::Corrupt(m) => write!(f, "store corruption: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

/// Tunables for a file-backed store.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Rotate the active segment once it would exceed this many bytes.
    pub segment_bytes: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_bytes: 64 * 1024,
        }
    }
}

/// What recovery found: the newest valid checkpoint (if any) and every
/// record logged after it, oldest first.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Snapshot blob from the newest checkpoint whose checksum verified.
    pub checkpoint: Option<Vec<u8>>,
    /// Log-record payloads appended after that checkpoint, in order.
    pub records: Vec<Vec<u8>>,
    /// Torn or corrupt tails dropped (and, for files, truncated away).
    pub torn_truncations: u64,
    /// Total payload bytes scanned during recovery.
    pub bytes_read: u64,
}

/// Durable state for one component: an append-only record log plus a
/// replacing checkpoint blob.
pub trait StateStore {
    /// Append one record payload. Returns the number of bytes the
    /// store persisted for it (payload plus framing).
    fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError>;

    /// Install a checkpoint blob, superseding any earlier checkpoint
    /// and every record appended before this call. Returns the bytes
    /// persisted.
    fn checkpoint(&mut self, snapshot: &[u8]) -> Result<u64, StoreError>;

    /// Read back the newest valid checkpoint and the records appended
    /// after it. Idempotent; safe to call on an empty store.
    fn recover(&mut self) -> Result<Recovery, StoreError>;
}

/// In-memory [`StateStore`] for simulations and tests. Durability
/// across *simulated* crashes comes from the handle living outside the
/// simulated actor (see [`crate::SharedStore`]).
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    checkpoint: Option<Vec<u8>>,
    records: Vec<Vec<u8>>,
}

impl MemStore {
    /// An empty in-memory store.
    #[must_use]
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl StateStore for MemStore {
    fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        self.records.push(payload.to_vec());
        Ok(payload.len() as u64 + FRAME_OVERHEAD)
    }

    fn checkpoint(&mut self, snapshot: &[u8]) -> Result<u64, StoreError> {
        self.checkpoint = Some(snapshot.to_vec());
        self.records.clear();
        Ok(snapshot.len() as u64 + FRAME_OVERHEAD)
    }

    fn recover(&mut self) -> Result<Recovery, StoreError> {
        let bytes_read = self.checkpoint.as_ref().map_or(0, |c| c.len() as u64)
            + self.records.iter().map(|r| r.len() as u64).sum::<u64>();
        Ok(Recovery {
            checkpoint: self.checkpoint.clone(),
            records: self.records.clone(),
            torn_truncations: 0,
            bytes_read,
        })
    }
}

/// File-backed [`StateStore`]: CRC-checked segment files with
/// rotation, checkpoint files, pruning, and tail truncation.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    config: StoreConfig,
    /// Index of the active segment; ckpt and wal files share the counter.
    active_index: u64,
    active: fs::File,
    active_bytes: u64,
}

impl FileStore {
    /// Open (creating if needed) a store rooted at `dir`. Existing log
    /// and checkpoint files are left untouched until [`Self::recover`]
    /// or [`Self::checkpoint`] runs; a fresh active segment is started
    /// after the highest existing file index.
    pub fn open(dir: impl Into<PathBuf>, config: StoreConfig) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err)?;
        let next = scan(&dir)?.keys().next_back().map_or(0, |i| i + 1);
        let (active, active_bytes) = new_segment(&dir, next)?;
        Ok(FileStore {
            dir,
            config,
            active_index: next,
            active,
            active_bytes,
        })
    }

    fn rotate(&mut self) -> Result<(), StoreError> {
        self.active_index += 1;
        let (file, bytes) = new_segment(&self.dir, self.active_index)?;
        self.active = file;
        self.active_bytes = bytes;
        Ok(())
    }
}

impl StateStore for FileStore {
    fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        let framed = payload.len() as u64 + FRAME_OVERHEAD;
        if self.active_bytes > WAL_MAGIC.len() as u64
            && self.active_bytes + framed > self.config.segment_bytes
        {
            self.rotate()?;
        }
        write_frame(&mut self.active, payload)?;
        self.active.flush().map_err(io_err)?;
        self.active_bytes += framed;
        Ok(framed)
    }

    fn checkpoint(&mut self, snapshot: &[u8]) -> Result<u64, StoreError> {
        self.active_index += 1;
        let ckpt_index = self.active_index;
        let path = self.dir.join(format!("ckpt-{ckpt_index}.bin"));
        let mut file = fs::File::create(&path).map_err(io_err)?;
        file.write_all(CKPT_MAGIC).map_err(io_err)?;
        write_frame(&mut file, snapshot)?;
        file.sync_all().map_err(io_err)?;
        // Everything below the checkpoint is superseded.
        for (index, entry) in scan(&self.dir)? {
            if index < ckpt_index {
                let _ = fs::remove_file(entry.path);
            }
        }
        self.rotate()?;
        Ok(snapshot.len() as u64 + FRAME_OVERHEAD + CKPT_MAGIC.len() as u64)
    }

    fn recover(&mut self) -> Result<Recovery, StoreError> {
        let mut out = Recovery::default();
        let files = scan(&self.dir)?;

        // Newest checkpoint whose magic and checksum verify; fall back
        // to older ones when the newest was half-written.
        let mut ckpt_index = None;
        for (&index, entry) in files.iter().rev() {
            if entry.kind != FileKind::Checkpoint {
                continue;
            }
            match read_checkpoint(&entry.path) {
                Ok(blob) => {
                    out.bytes_read += blob.len() as u64;
                    out.checkpoint = Some(blob);
                    ckpt_index = Some(index);
                    break;
                }
                Err(_) => out.torn_truncations += 1,
            }
        }

        // Replay every segment after the checkpoint, oldest first,
        // stopping for good at the first torn record: anything beyond
        // it post-dates the corruption and cannot be trusted.
        for (&index, entry) in &files {
            if entry.kind != FileKind::Segment || Some(index) <= ckpt_index {
                continue;
            }
            let buf = fs::read(&entry.path).map_err(io_err)?;
            if buf.len() < WAL_MAGIC.len() || &buf[..WAL_MAGIC.len()] != WAL_MAGIC {
                out.torn_truncations += 1;
                break;
            }
            let (records, valid_end, torn) = parse_frames(&buf, WAL_MAGIC.len());
            for r in &records {
                out.bytes_read += r.len() as u64;
            }
            out.records.extend(records);
            if torn {
                out.torn_truncations += 1;
                truncate_file(&entry.path, valid_end as u64)?;
                if index == self.active_index {
                    self.active_bytes = valid_end as u64;
                }
                break;
            }
        }
        Ok(out)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    Segment,
    Checkpoint,
}

#[derive(Debug)]
struct DirEntry {
    kind: FileKind,
    path: PathBuf,
}

/// Index every `wal-<k>.seg` / `ckpt-<j>.bin` in `dir`.
fn scan(dir: &Path) -> Result<BTreeMap<u64, DirEntry>, StoreError> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let parsed = name
            .strip_prefix("wal-")
            .and_then(|r| r.strip_suffix(".seg"))
            .map(|n| (FileKind::Segment, n))
            .or_else(|| {
                name.strip_prefix("ckpt-")
                    .and_then(|r| r.strip_suffix(".bin"))
                    .map(|n| (FileKind::Checkpoint, n))
            });
        if let Some((kind, digits)) = parsed {
            if let Ok(index) = digits.parse::<u64>() {
                out.insert(
                    index,
                    DirEntry {
                        kind,
                        path: entry.path(),
                    },
                );
            }
        }
    }
    Ok(out)
}

fn new_segment(dir: &Path, index: u64) -> Result<(fs::File, u64), StoreError> {
    let path = dir.join(format!("wal-{index}.seg"));
    let mut file = fs::File::create(&path).map_err(io_err)?;
    file.write_all(WAL_MAGIC).map_err(io_err)?;
    file.flush().map_err(io_err)?;
    Ok((file, WAL_MAGIC.len() as u64))
}

fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), StoreError> {
    w.write_all(&(payload.len() as u32).to_le_bytes())
        .map_err(io_err)?;
    w.write_all(&crc32(payload).to_le_bytes()).map_err(io_err)?;
    w.write_all(payload).map_err(io_err)?;
    Ok(())
}

/// Parse `[len][crc][payload]` frames from `buf` starting at `start`.
/// Returns the valid payloads, the offset just past the last valid
/// frame, and whether a torn/corrupt tail was found after it.
fn parse_frames(buf: &[u8], start: usize) -> (Vec<Vec<u8>>, usize, bool) {
    let mut records = Vec::new();
    let mut pos = start;
    loop {
        if pos == buf.len() {
            return (records, pos, false);
        }
        if buf.len() - pos < FRAME_OVERHEAD as usize {
            return (records, pos, true);
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        let body = pos + FRAME_OVERHEAD as usize;
        if len > buf.len() - body {
            return (records, pos, true);
        }
        let payload = &buf[body..body + len];
        if crc32(payload) != crc {
            return (records, pos, true);
        }
        records.push(payload.to_vec());
        pos = body + len;
    }
}

fn read_checkpoint(path: &Path) -> Result<Vec<u8>, StoreError> {
    let buf = fs::read(path).map_err(io_err)?;
    if buf.len() < CKPT_MAGIC.len() || &buf[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(StoreError::Corrupt(format!("bad magic in {path:?}")));
    }
    let (mut frames, _, torn) = parse_frames(&buf, CKPT_MAGIC.len());
    if torn || frames.len() != 1 {
        return Err(StoreError::Corrupt(format!(
            "checkpoint {path:?} is torn or malformed"
        )));
    }
    Ok(frames.pop().unwrap())
}

fn truncate_file(path: &Path, len: u64) -> Result<(), StoreError> {
    fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(io_err)?
        .set_len(len)
        .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hcm-store-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mem_store_round_trip() {
        let mut s = MemStore::new();
        s.append(b"a").unwrap();
        s.append(b"b").unwrap();
        s.checkpoint(b"snap").unwrap();
        s.append(b"c").unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.checkpoint.as_deref(), Some(&b"snap"[..]));
        assert_eq!(r.records, vec![b"c".to_vec()]);
        assert_eq!(r.torn_truncations, 0);
        // Idempotent.
        let again = s.recover().unwrap();
        assert_eq!(again.records, r.records);
    }

    #[test]
    fn file_store_round_trip_across_reopen() {
        let dir = tmpdir("roundtrip");
        {
            let mut s = FileStore::open(&dir, StoreConfig::default()).unwrap();
            s.append(b"one").unwrap();
            s.append(b"two").unwrap();
        }
        let mut s = FileStore::open(&dir, StoreConfig::default()).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.checkpoint, None);
        assert_eq!(r.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(r.torn_truncations, 0);
    }

    #[test]
    fn rotation_and_checkpoint_prune() {
        let dir = tmpdir("rotate");
        let cfg = StoreConfig { segment_bytes: 32 };
        let mut s = FileStore::open(&dir, cfg).unwrap();
        for i in 0..10u8 {
            s.append(&[i; 10]).unwrap();
        }
        assert!(scan(&dir).unwrap().len() > 1, "should have rotated");
        s.checkpoint(b"snapshot").unwrap();
        s.append(b"after").unwrap();
        let files = scan(&dir).unwrap();
        assert_eq!(files.len(), 2, "checkpoint + fresh segment, rest pruned");
        let r = s.recover().unwrap();
        assert_eq!(r.checkpoint.as_deref(), Some(&b"snapshot"[..]));
        assert_eq!(r.records, vec![b"after".to_vec()]);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmpdir("torn");
        let path;
        {
            let mut s = FileStore::open(&dir, StoreConfig::default()).unwrap();
            s.append(b"good").unwrap();
            s.append(b"doomed").unwrap();
            path = dir.join("wal-0.seg");
        }
        // Chop mid-way through the last record's payload.
        let full = fs::metadata(&path).unwrap().len();
        truncate_file(&path, full - 3).unwrap();
        let mut s = FileStore::open(&dir, StoreConfig::default()).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.records, vec![b"good".to_vec()]);
        assert_eq!(r.torn_truncations, 1);
        // The torn bytes are gone: a second recovery is clean.
        let r2 = s.recover().unwrap();
        assert_eq!(r2.records, vec![b"good".to_vec()]);
        assert_eq!(r2.torn_truncations, 0);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_older_one() {
        let dir = tmpdir("badckpt");
        let mut s = FileStore::open(&dir, StoreConfig::default()).unwrap();
        s.append(b"r0").unwrap();
        s.checkpoint(b"old-snap").unwrap();
        s.append(b"r1").unwrap();
        s.checkpoint(b"new-snap").unwrap();
        s.append(b"r2").unwrap();
        // Corrupt the newest checkpoint's payload byte.
        let files = scan(&dir).unwrap();
        let newest_ckpt = files
            .iter()
            .filter(|(_, e)| e.kind == FileKind::Checkpoint)
            .map(|(i, e)| (*i, e.path.clone()))
            .next_back()
            .unwrap();
        let mut buf = fs::read(&newest_ckpt.1).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        fs::write(&newest_ckpt.1, &buf).unwrap();
        // Newest ckpt pruned the older one, so fallback finds nothing:
        // recovery degrades to "no checkpoint, replay what remains".
        let r = s.recover().unwrap();
        assert_eq!(r.checkpoint, None);
        assert_eq!(r.torn_truncations, 1);
        assert_eq!(r.records, vec![b"r2".to_vec()]);
    }
}
