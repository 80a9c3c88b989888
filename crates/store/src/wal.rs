//! Append-only log and recovery.
//!
//! A [`StateStore`] holds one component's ordered sequence of opaque
//! log-record payloads, appended one at a time. Recovery returns every
//! record, in order: the component rebuilds its state by replaying
//! them from the first.
//!
//! [`FileStore`] maps this onto one append-only file:
//!
//! ```text
//! file          = "HCMWAL1\n"  frame*
//! frame         = u32le payload_len  u32le crc32(payload)  payload
//! ```
//!
//! Opening and recovering share one scan, which truncates the file at
//! the first frame that does not verify (short frame or checksum
//! mismatch) and reports the loss — torn tails are data loss, never a
//! panic, and every later recovery returns the same records.

use std::fmt;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::codec::crc32;

/// Magic line opening every WAL file.
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

/// In-memory [`StateStore`] for simulations and tests. It is durable
/// across *simulated* crashes because the actor's durability policy
/// owns it, and a crash's wipe never touches that policy.
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

/// File-backed [`StateStore`]: one append-only file of CRC-checked
/// frames.
#[derive(Debug)]
pub struct FileStore {
    file: fs::File,
    /// Torn tails the opening scan dropped, reported by the next
    /// [`Self::recover`].
    torn_at_open: u64,
}

impl FileStore {
    /// Open the log file at `path`, creating it (and its directory) if
    /// needed. Opening scans the file and truncates it at the first
    /// frame that does not verify, so appends continue from the last
    /// record a recovery returns.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(io_err)?;
        }
        let mut file = fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
            .map_err(io_err)?;
        let (_, torn) = scan(&mut file)?;
        Ok(FileStore {
            file,
            torn_at_open: u64::from(torn),
        })
    }
}

impl StateStore for FileStore {
    fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        write_frame(&mut self.file, payload)?;
        self.file.flush().map_err(io_err)?;
        Ok(payload.len() as u64 + FRAME_OVERHEAD)
    }

    fn recover(&mut self) -> Result<Recovery, StoreError> {
        let (records, torn) = scan(&mut self.file)?;
        Ok(Recovery {
            records,
            torn_truncations: std::mem::take(&mut self.torn_at_open) + u64::from(torn),
        })
    }
}

/// Read every valid record of `file` and truncate it just past the
/// last one, so a torn tail is dropped exactly once. Returns the
/// records and whether a tail was dropped. A file without a whole,
/// valid [`WAL_MAGIC`] header holds nothing to trust: it restarts as
/// the bare header, which counts as a dropped tail unless it was empty.
fn scan(file: &mut fs::File) -> Result<(Vec<Vec<u8>>, bool), StoreError> {
    let mut buf = Vec::new();
    file.seek(SeekFrom::Start(0)).map_err(io_err)?;
    file.read_to_end(&mut buf).map_err(io_err)?;
    if !buf.starts_with(WAL_MAGIC) {
        file.set_len(0).map_err(io_err)?;
        file.write_all(WAL_MAGIC).map_err(io_err)?;
        return Ok((Vec::new(), !buf.is_empty()));
    }
    let (records, valid_end, torn) = parse_frames(&buf, WAL_MAGIC.len());
    if torn {
        file.set_len(valid_end as u64).map_err(io_err)?;
    }
    Ok((records, torn))
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpfile(tag: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("hcm-store-wal-{tag}-{}.wal", std::process::id()));
        let _ = fs::remove_file(&path);
        path
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
        let path = tmpfile("roundtrip");
        {
            let mut s = FileStore::open(&path).unwrap();
            s.append(b"one").unwrap();
            s.append(b"two").unwrap();
        }
        let mut s = FileStore::open(&path).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(r.torn_truncations, 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmpfile("torn");
        {
            let mut s = FileStore::open(&path).unwrap();
            s.append(b"good").unwrap();
            s.append(b"doomed").unwrap();
        }
        // Chop mid-way through the last record's payload.
        let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(file.metadata().unwrap().len() - 3).unwrap();
        let mut s = FileStore::open(&path).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.records, vec![b"good".to_vec()]);
        assert_eq!(r.torn_truncations, 1);
        // The torn bytes are gone: a second recovery is clean.
        let r2 = s.recover().unwrap();
        assert_eq!(r2.records, vec![b"good".to_vec()]);
        assert_eq!(r2.torn_truncations, 0);
    }
}
