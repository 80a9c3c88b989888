//! Fault injection against the file-backed WAL.
//!
//! Simulates the half-written states a real crash leaves behind —
//! truncation inside the frame header, inside the payload, a flipped
//! payload bit, a flipped checksum bit, an absurd length field — and
//! asserts the invariant from the crate docs: recovery stops at the
//! last record whose checksum verifies, truncates the tail, reports
//! the loss once, and never panics; every later recovery, and every
//! append after it, sees the same surviving prefix.
//!
//! The hand-picked cases come first. Then one fixed log of three dozen
//! records, the committed encoding of every durable record variant
//! three times over, is damaged at every truncation offset and by
//! every single-byte flip, and each recovery must return the longest
//! intact prefix, twice.

use std::fs;
use std::path::PathBuf;

use hcm_store::{FileStore, StateStore};

fn tmpfile(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("hcm-store-torn-{tag}-{}.wal", std::process::id()));
    let _ = fs::remove_file(&path);
    path
}

/// Build a store with three records, then mutilate its file with
/// `damage` and recover.
fn recover_after(tag: &str, damage: impl FnOnce(&PathBuf)) -> hcm_store::Recovery {
    let path = tmpfile(tag);
    {
        let mut s = FileStore::open(&path).unwrap();
        s.append(b"alpha").unwrap();
        s.append(b"beta").unwrap();
        s.append(b"gamma").unwrap();
    }
    damage(&path);
    let mut s = FileStore::open(&path).unwrap();
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
    let r = recover_after("payload", |log| {
        let len = fs::metadata(log).unwrap().len();
        set_len(log, len - 2); // drop the last 2 bytes of "gamma"
    });
    assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn truncated_inside_last_header() {
    let r = recover_after("header", |log| {
        let len = fs::metadata(log).unwrap().len();
        set_len(log, len - 5 - 5); // "gamma" payload + 5 of its 8 header bytes
    });
    assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn flipped_bit_in_last_payload() {
    let r = recover_after("bitflip", |log| flip_byte(log, 0));
    assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn flipped_bit_in_last_checksum() {
    // "gamma" is 5 bytes; its CRC field sits 5+0..5+4 bytes from EOF.
    let r = recover_after("crcflip", |log| flip_byte(log, 6));
    assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn corruption_mid_log_drops_everything_after_it() {
    // A flipped bit in "beta" invalidates beta AND gamma: records past
    // a corrupt one cannot be trusted (framing may be desynced).
    let r = recover_after("midlog", |log| {
        // gamma frame = 8 + 5 = 13 bytes; beta's payload ends 13 bytes
        // from EOF, so its last byte is 13 from the end.
        flip_byte(log, 13);
    });
    assert_eq!(r.records, vec![b"alpha".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn absurd_length_field_is_torn_not_alloc_bomb() {
    let r = recover_after("hugelen", |log| {
        let mut buf = fs::read(log).unwrap();
        // Overwrite gamma's length field (13 bytes from EOF) with u32::MAX.
        let at = buf.len() - 13;
        buf[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(log, &buf).unwrap();
    });
    assert_eq!(r.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn flipped_bit_in_header_drops_the_whole_log() {
    let r = recover_after("magic", |log| {
        let mut buf = fs::read(log).unwrap();
        buf[0] ^= 0x01;
        fs::write(log, &buf).unwrap();
    });
    assert!(r.records.is_empty());
    assert_eq!(r.torn_truncations, 1);
}

#[test]
fn truncation_repairs_the_file_for_future_appends() {
    let path = tmpfile("repair");
    {
        let mut s = FileStore::open(&path).unwrap();
        s.append(b"keep").unwrap();
        s.append(b"lose").unwrap();
    }
    let len = fs::metadata(&path).unwrap().len();
    set_len(&path, len - 1);

    // First recovery truncates the torn tail in place.
    let mut s = FileStore::open(&path).unwrap();
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
    let path = tmpfile("empty");
    let mut s = FileStore::open(&path).unwrap();
    let r = s.recover().unwrap();
    assert!(r.records.is_empty());
    assert_eq!(r.torn_truncations, 0);
}

#[test]
fn flipped_byte_mid_log_recovers_the_same_record_twice() {
    // Six 10-byte records; flip the last byte of the second. Everything
    // from the second record on is untrusted, on every recovery.
    let path = tmpfile("midflip");
    {
        let mut s = FileStore::open(&path).unwrap();
        for i in 0..6u8 {
            s.append(&[i; 10]).unwrap();
        }
    }
    flip_byte(&path, 4 * 18); // 4 frames of 8 + 10 bytes follow it
    let mut s = FileStore::open(&path).unwrap();
    for _ in 0..2 {
        assert_eq!(s.recover().unwrap().records, vec![vec![0u8; 10]]);
    }
}

#[test]
fn append_after_a_torn_tail_survives_every_recovery() {
    let path = tmpfile("tornappend");
    {
        let mut s = FileStore::open(&path).unwrap();
        s.append(b"a").unwrap();
        s.append(b"b").unwrap();
    }
    let len = fs::metadata(&path).unwrap().len();
    set_len(&path, len - 1); // cut "b"'s frame short

    let mut s = FileStore::open(&path).unwrap();
    s.append(b"c").unwrap();
    let want = vec![b"a".to_vec(), b"c".to_vec()];
    let first = s.recover().unwrap();
    assert_eq!(first.records, want);
    assert_eq!(first.torn_truncations, 1);
    let second = s.recover().unwrap();
    assert_eq!(second.records, want);
    assert_eq!(second.torn_truncations, 0);
}

/// The committed encoding of one instance of every `LogRecord`
/// variant of the toolkit (pinned by its `codec_roundtrip` test), in
/// tag order: a private write, both failure kinds, a clear, a reset,
/// a request sent and resolved, a write accepted and performed, a poll
/// armed and disarmed, and a request flagged.
const RECORDS: [&str; 12] = [
    "00b80b0000000000000200000043780100000002010000000000000003000000000000e03f",
    "0111000000000000000200000001",
    "0112000000000000000100000000",
    "02204e00000000000000000000",
    "03b882010000000000",
    "04e8030000000000000700000000000000",
    "050700000000000000",
    "060900000000000000010000000700000073616c617279320100000004020000006531021873010000000000040000000c00000000000000",
    "070900000000000000",
    "08020000000000000060ea000000000000",
    "090200000000000000",
    "0a0700000000000000",
];

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// The fixed log: its records, its file bytes, and the offset just
/// past each record's frame.
fn fixed_log(tag: &str) -> (Vec<Vec<u8>>, Vec<u8>, Vec<usize>) {
    let records: Vec<Vec<u8>> = (0..3).flat_map(|_| RECORDS.map(unhex)).collect();
    let path = tmpfile(tag);
    let mut s = FileStore::open(&path).unwrap();
    let mut ends = Vec::new();
    let mut end = hcm_store::wal::WAL_MAGIC.len();
    for r in &records {
        end += s.append(r).unwrap() as usize;
        ends.push(end);
    }
    drop(s);
    let bytes = fs::read(&path).unwrap();
    assert_eq!(bytes.len(), end);
    let _ = fs::remove_file(&path);
    (records, bytes, ends)
}

/// Write `damaged` as the log at `path`, then check that recovery
/// returns the first `intact` records, reports a dropped tail exactly
/// when `torn`, and that a second recovery, and a recovery after
/// reopening, return the same records with nothing more dropped.
fn assert_recovers(path: &PathBuf, damaged: &[u8], records: &[Vec<u8>], intact: usize, torn: bool) {
    fs::write(path, damaged).unwrap();
    let want = &records[..intact];
    let mut s = FileStore::open(path).unwrap();
    let first = s.recover().unwrap();
    assert_eq!(first.records, want, "{} damaged bytes", damaged.len());
    assert_eq!(first.torn_truncations, u64::from(torn));
    let second = s.recover().unwrap();
    assert_eq!(second.records, want);
    assert_eq!(second.torn_truncations, 0);
    drop(s);
    let reopened = FileStore::open(path).unwrap().recover().unwrap();
    assert_eq!(reopened.records, want);
    assert_eq!(reopened.torn_truncations, 0);
}

#[test]
fn every_truncation_recovers_the_longest_intact_prefix() {
    let (records, bytes, ends) = fixed_log("cut-fixture");
    let path = tmpfile("cut");
    let header = hcm_store::wal::WAL_MAGIC.len();
    for len in 0..=bytes.len() {
        // Only whole frames survive, and only behind a whole header.
        let intact = if len < header {
            0
        } else {
            ends.partition_point(|&e| e <= len)
        };
        let at_boundary = len == 0 || len == header || ends.contains(&len);
        assert_recovers(&path, &bytes[..len], &records, intact, !at_boundary);
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn every_byte_flip_recovers_the_longest_intact_prefix() {
    let (records, bytes, ends) = fixed_log("flip-fixture");
    let path = tmpfile("flip");
    let header = hcm_store::wal::WAL_MAGIC.len();
    for i in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[i] ^= 0xFF;
        // The frame holding the flipped byte, and every frame after
        // it, is lost; a flip in the header loses them all.
        let intact = if i < header {
            0
        } else {
            ends.partition_point(|&e| e <= i)
        };
        assert_recovers(&path, &damaged, &records, intact, true);
    }
    let _ = fs::remove_file(&path);
}
