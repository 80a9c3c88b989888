//! Fault injection against the file-backed WAL.
//!
//! Simulates the half-written states a real crash leaves behind —
//! truncation inside the frame header, inside the payload, a flipped
//! payload bit, a flipped checksum bit, an absurd length field — and
//! asserts the invariant from the crate docs: recovery stops at the
//! last record whose checksum verifies, truncates the tail, reports
//! the loss, and never panics.

use std::fs;
use std::path::PathBuf;

use hcm_store::{FileStore, StateStore, StoreConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hcm-store-torn-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build a store with three records in one segment, then mutilate the
/// segment file with `damage` and recover.
fn recover_after(tag: &str, damage: impl FnOnce(&PathBuf)) -> hcm_store::Recovery {
    let dir = tmpdir(tag);
    {
        let mut s = FileStore::open(&dir, StoreConfig::default()).unwrap();
        s.append(b"alpha").unwrap();
        s.append(b"beta").unwrap();
        s.append(b"gamma").unwrap();
    }
    let seg = dir.join("wal-0.seg");
    damage(&seg);
    let mut s = FileStore::open(&dir, StoreConfig::default()).unwrap();
    s.recover().unwrap()
}

fn set_len(path: &PathBuf, len: u64) {
    fs::OpenOptions::new()
        .write(true)
        .open(path)
        .unwrap()
        .set_len(len)
        .unwrap();
}

fn flip_byte(path: &PathBuf, offset_from_end: u64) {
    let mut buf = fs::read(path).unwrap();
    let i = buf.len() - 1 - offset_from_end as usize;
    buf[i] ^= 0x01;
    fs::write(path, &buf).unwrap();
}

#[test]
fn truncated_inside_last_payload() {
    let r = recover_after("payload", |seg| {
        let len = fs::metadata(seg).unwrap().len();
        set_len(seg, len - 2); // drop the last 2 bytes of "gamma"
    });
    assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn truncated_inside_last_header() {
    let r = recover_after("header", |seg| {
        let len = fs::metadata(seg).unwrap().len();
        set_len(seg, len - 5 - 5); // "gamma" payload + 5 of its 8 header bytes
    });
    assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn flipped_bit_in_last_payload() {
    let r = recover_after("bitflip", |seg| flip_byte(seg, 0));
    assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn flipped_bit_in_last_checksum() {
    // "gamma" is 5 bytes; its CRC field sits 5+0..5+4 bytes from EOF.
    let r = recover_after("crcflip", |seg| flip_byte(seg, 6));
    assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn corruption_mid_log_drops_everything_after_it() {
    // A flipped bit in "beta" invalidates beta AND gamma: records past
    // a corrupt one cannot be trusted (framing may be desynced).
    let r = recover_after("midlog", |seg| {
        // gamma frame = 8 + 5 = 13 bytes; beta's payload ends 13 bytes
        // from EOF, so its last byte is 13 from the end.
        flip_byte(seg, 13);
    });
    assert_eq!(r.records, vec![b"alpha".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn absurd_length_field_is_torn_not_alloc_bomb() {
    let r = recover_after("hugelen", |seg| {
        let mut buf = fs::read(seg).unwrap();
        // Overwrite gamma's length field (13 bytes from EOF) with u32::MAX.
        let at = buf.len() - 13;
        buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(seg, &buf).unwrap();
    });
    assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn truncation_repairs_the_file_for_future_appends() {
    let dir = tmpdir("repair");
    {
        let mut s = FileStore::open(&dir, StoreConfig::default()).unwrap();
        s.append(b"keep").unwrap();
        s.append(b"lose").unwrap();
    }
    let seg = dir.join("wal-0.seg");
    let len = fs::metadata(&seg).unwrap().len();
    set_len(&seg, len - 1);

    // First recovery truncates the torn tail in place.
    let mut s = FileStore::open(&dir, StoreConfig::default()).unwrap();
    let r = s.recover().unwrap();
    assert_eq!(r.records, vec![b"keep".to_vec()]);
    assert_eq!(r.torn_truncations, 1);

    // New appends after the repair are recoverable alongside the
    // surviving prefix.
    s.append(b"fresh").unwrap();
    let r2 = s.recover().unwrap();
    assert_eq!(r2.records, vec![b"keep".to_vec(), b"fresh".to_vec()]);
    assert_eq!(r2.torn_truncations, 0);
}

#[test]
fn empty_and_magic_only_stores_recover_clean() {
    let dir = tmpdir("empty");
    let mut s = FileStore::open(&dir, StoreConfig::default()).unwrap();
    let r = s.recover().unwrap();
    assert!(r.records.is_empty());
    assert_eq!(r.torn_truncations, 0);
}
