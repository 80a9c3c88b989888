//! E16 bench — durable-store costs: crash-recovery replay and decode of
//! an in-memory WAL as the log grows.
//!
//! The interesting numbers are per-record, since every shell/translator
//! durable mutation pays one append on the hot path.

use hcm_core::{ItemId, SimTime, Value};
use hcm_store::{MemStore, StateStore};
use hcm_toolkit::durability::LogRecord;

/// A representative mix of what shells and translators actually log.
fn workload(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let rec = match i % 4 {
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
            };
            rec.encode()
        })
        .collect()
}

fn main() {
    eprintln!("\n[E16] store costs vs log size (records | replay ms):");
    for n in [1_000usize, 10_000, 50_000] {
        let payloads = workload(n);
        let mut store = MemStore::new();
        for p in &payloads {
            store.append(p).unwrap();
        }
        let t0 = std::time::Instant::now();
        let rec = store.recover().unwrap();
        let decoded = rec
            .records
            .iter()
            .filter(|p| LogRecord::decode(p).is_ok())
            .count();
        assert_eq!(decoded, n);
        eprintln!(
            "  {:>8} records  {:>8.2} ms",
            n,
            t0.elapsed().as_secs_f64() * 1000.0
        );
    }
}
