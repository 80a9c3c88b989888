//! Generator-driven round-trip tests for the store codec.
//!
//! A SplitMix64 generator (same pattern as cm-core's property tests —
//! deterministic, dependency-free) drives random [`Value`]s and
//! [`ItemId`]s; each must decode back to an equal value. The toolkit's
//! log records, built from these, have their own round-trip suite in
//! `hcm-toolkit`.

use hcm_core::{ItemId, Value};
use hcm_store::{Decoder, Encoder};

/// SplitMix64: tiny, deterministic, well-distributed.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn string(&mut self) -> String {
        let len = self.below(12) as usize;
        (0..len)
            .map(|_| char::from(b'a' + (self.below(26) as u8)))
            .collect()
    }

    fn value(&mut self) -> Value {
        match self.below(5) {
            0 => Value::Null,
            1 => Value::Bool(self.below(2) == 1),
            2 => Value::Int(self.next() as i64),
            // Finite floats only: equality on round-trip is the point,
            // not NaN semantics (those are pinned in a separate test).
            3 => Value::Float((self.next() as i64 as f64) / 7.0),
            _ => Value::Str(self.string()),
        }
    }

    fn item(&mut self) -> ItemId {
        let base = format!("item{}", self.below(6));
        let n = self.below(4) as usize;
        ItemId::with(base, (0..n).map(|_| self.value()).collect::<Vec<_>>())
    }
}

#[test]
fn values_and_items_round_trip() {
    let mut g = Gen::new(0xA11CE);
    for _ in 0..500 {
        let v = g.value();
        let mut e = Encoder::new();
        e.value(&v);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.value().unwrap(), v);
        assert!(d.is_empty());

        let item = g.item();
        let mut e = Encoder::new();
        e.item(&item);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.item().unwrap(), item);
        assert!(d.is_empty());
    }
}

#[test]
fn float_edge_cases_round_trip_bitwise() {
    for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MIN] {
        let mut e = Encoder::new();
        e.value(&Value::Float(f));
        let bytes = e.finish();
        match Decoder::new(&bytes).value().unwrap() {
            Value::Float(back) => assert_eq!(back.to_bits(), f.to_bits()),
            other => panic!("decoded {other:?}"),
        }
    }
}
