//! E16 bench — durable-store costs over a 10 k-record log: encoding the
//! records, appending them to a file-backed WAL, recovering the file
//! and decoding what recovery returns.
//!
//! The interesting numbers are per-record, since every shell/translator
//! durable mutation pays one append on the hot path.

use std::time::{Duration, Instant};

use hcm_core::{ItemId, SimTime, Value};
use hcm_store::{FileStore, StateStore};
use hcm_toolkit::durability::LogRecord;

/// Records in the log.
const N: usize = 10_000;

/// A representative mix of what shells and translators actually log.
fn workload(n: usize) -> Vec<LogRecord> {
    (0..n)
        .map(|i| match i % 4 {
            0 => LogRecord::PrivateWrite {
                at: SimTime::from_millis(i as u64),
                item: ItemId::with("Cx", [Value::from(format!("e{}", i % 16))]),
                value: Value::Int(i as i64),
            },
            1 => LogRecord::RequestSent {
                at: SimTime::from_millis(i as u64),
                req_id: i as u64,
            },
            2 => LogRecord::RequestResolved { req_id: i as u64 },
            _ => LogRecord::WritePerformed { req_id: i as u64 },
        })
        .collect()
}

fn main() {
    let path = std::env::temp_dir().join(format!("hcm-bench-store-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let records = workload(N);
    let mut rows: Vec<(&str, Duration)> = Vec::new();

    let t = Instant::now();
    let payloads: Vec<Vec<u8>> = records.iter().map(LogRecord::encode).collect();
    rows.push(("encode", t.elapsed()));

    let mut store = FileStore::open(&path).unwrap();
    let t = Instant::now();
    for p in &payloads {
        store.append(p).unwrap();
    }
    rows.push(("FileStore append (CRC + frame)", t.elapsed()));

    let t = Instant::now();
    let recovery = store.recover().unwrap();
    rows.push(("FileStore recover", t.elapsed()));

    let t = Instant::now();
    let decoded = recovery
        .records
        .iter()
        .filter(|p| LogRecord::decode(p).is_ok())
        .count();
    rows.push(("decode", t.elapsed()));
    assert_eq!(decoded, N);
    let _ = std::fs::remove_file(&path);

    eprintln!("\n[E16] store costs over {N} records (case | ms):");
    for (case, took) in rows {
        eprintln!("  {case:<32} {:>8.2} ms", took.as_secs_f64() * 1000.0);
    }
}
