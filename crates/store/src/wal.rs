//! Append-only log and recovery.
//!
//! A [`StateStore`] holds one component's ordered sequence of opaque
//! log-record payloads, appended one at a time. Recovery returns every
//! record, in order: the component rebuilds its state by replaying
//! them from the first.
//!
//! [`FileStore`] maps this onto a directory of segment files:
//!
//! ```text
//! wal-<k>.seg   = "HCMWAL1\n"  frame*          (append-only segment)
//! frame         = u32le payload_len  u32le crc32(payload)  payload
//! ```
//!
//! Segments rotate at [`StoreConfig::segment_bytes`] and are replayed
//! in index order. A half-written tail (short frame or checksum
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
/// Bytes of framing overhead per record (length + checksum).
pub const FRAME_OVERHEAD: u64 = 8;

/// Errors surfaced by a [`StateStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store i/o error: {m}"),
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

/// What recovery found: every valid record, oldest first.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Log-record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Torn or corrupt tails dropped (and, for files, truncated away).
    pub torn_truncations: u64,
}

/// Durable state for one component: an append-only record log.
pub trait StateStore {
    /// Append one record payload. Returns the number of bytes the
    /// store persisted for it (payload plus framing).
    fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError>;

    /// Read back every record appended so far. Idempotent; safe to
    /// call on an empty store.
    fn recover(&mut self) -> Result<Recovery, StoreError>;
}

/// In-memory [`StateStore`] for simulations and tests. Durability
/// across *simulated* crashes comes from the handle living outside the
/// simulated actor (see [`crate::SharedStore`]).
#[derive(Debug, Clone, Default)]
pub struct MemStore {
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

    fn recover(&mut self) -> Result<Recovery, StoreError> {
        Ok(Recovery {
            records: self.records.clone(),
            torn_truncations: 0,
        })
    }
}

/// File-backed [`StateStore`]: CRC-checked segment files with
/// rotation and tail truncation.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    config: StoreConfig,
    /// Index of the active segment.
    active_index: u64,
    active: fs::File,
    active_bytes: u64,
}

impl FileStore {
    /// Open (creating if needed) a store rooted at `dir`. Existing
    /// segments are left untouched until [`Self::recover`] runs; a
    /// fresh active segment is started after the highest existing
    /// index.
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

    fn recover(&mut self) -> Result<Recovery, StoreError> {
        let mut out = Recovery::default();
        // Replay every segment, oldest first, stopping for good at the
        // first torn record: anything beyond it post-dates the
        // corruption and cannot be trusted.
        for (index, path) in scan(&self.dir)? {
            let buf = fs::read(&path).map_err(io_err)?;
            if buf.len() < WAL_MAGIC.len() || &buf[..WAL_MAGIC.len()] != WAL_MAGIC {
                out.torn_truncations += 1;
                break;
            }
            let (records, valid_end, torn) = parse_frames(&buf, WAL_MAGIC.len());
            out.records.extend(records);
            if torn {
                out.torn_truncations += 1;
                truncate_file(&path, valid_end as u64)?;
                if index == self.active_index {
                    self.active_bytes = valid_end as u64;
                }
                break;
            }
        }
        Ok(out)
    }
}

/// Index every `wal-<k>.seg` in `dir`.
fn scan(dir: &Path) -> Result<BTreeMap<u64, PathBuf>, StoreError> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let index = name
            .to_str()
            .and_then(|n| n.strip_prefix("wal-"))
            .and_then(|r| r.strip_suffix(".seg"))
            .and_then(|digits| digits.parse::<u64>().ok());
        if let Some(index) = index {
            out.insert(index, entry.path());
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
        let r = s.recover().unwrap();
        assert_eq!(r.records, vec![b"a".to_vec(), b"b".to_vec()]);
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
        assert_eq!(r.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(r.torn_truncations, 0);
    }

    #[test]
    fn rotated_segments_replay_in_order() {
        let dir = tmpdir("rotate");
        let cfg = StoreConfig { segment_bytes: 32 };
        let mut s = FileStore::open(&dir, cfg).unwrap();
        for i in 0..10u8 {
            s.append(&[i; 10]).unwrap();
        }
        assert!(scan(&dir).unwrap().len() > 1, "should have rotated");
        let r = s.recover().unwrap();
        let want: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 10]).collect();
        assert_eq!(r.records, want);
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
}
