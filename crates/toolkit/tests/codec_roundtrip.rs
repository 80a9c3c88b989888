//! The durable records' byte encoding: pinned, and round-tripped.
//!
//! A write-ahead log outlives the binary that wrote it, so the
//! encoding of every [`LogRecord`] variant is part of the contract:
//! one fixed instance of each is encoded and compared against
//! committed hex bytes. A change to a record's layout fails here
//! before it can strand existing logs.
//!
//! A SplitMix64 generator (same pattern as cm-core's property tests —
//! deterministic, dependency-free) then drives random instances of
//! every record variant. Each must decode back to an equal value, and
//! every strict prefix of its encoding must fail with an error rather
//! than panic.

use hcm_core::{EventId, ItemId, RuleId, SimDuration, SimTime, SiteId, Value};
use hcm_simkit::ActorId;
use hcm_toolkit::durability::{LogRecord, PendingWrite};
use hcm_toolkit::FailureKind;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn pending_write() -> PendingWrite {
    PendingWrite {
        req_id: 9,
        reply_to: ActorId(1),
        item: ItemId::with("salary2", [Value::from("e1")]),
        value: Value::Int(95_000),
        rule: RuleId(4),
        trigger: EventId(12),
    }
}

/// One instance of every variant, with its committed encoding.
fn golden_records() -> Vec<(LogRecord, &'static str)> {
    vec![
        (
            LogRecord::PrivateWrite {
                at: SimTime::from_secs(3),
                item: ItemId::with("Cx", [Value::Int(1)]),
                value: Value::Float(0.5),
            },
            "00b80b0000000000000200000043780100000002010000000000000003000000000000e03f",
        ),
        (
            LogRecord::Failure {
                at: SimTime::from_millis(17),
                site: SiteId::new(2),
                kind: FailureKind::Logical,
            },
            "0111000000000000000200000001",
        ),
        (
            LogRecord::Failure {
                at: SimTime::from_millis(18),
                site: SiteId::new(1),
                kind: FailureKind::Metric,
            },
            "0112000000000000000100000000",
        ),
        (
            LogRecord::Clear {
                at: SimTime::from_secs(20),
                site: SiteId::new(0),
            },
            "02204e00000000000000000000",
        ),
        (
            LogRecord::Reset {
                at: SimTime::from_secs(99),
            },
            "03b882010000000000",
        ),
        (
            LogRecord::RequestSent {
                at: SimTime::from_secs(1),
                req_id: 7,
            },
            "04e8030000000000000700000000000000",
        ),
        (LogRecord::RequestResolved { req_id: 7 }, "050700000000000000"),
        (LogRecord::WriteAccepted(pending_write()), "060900000000000000010000000700000073616c617279320100000004020000006531021873010000000000040000000c00000000000000"),
        (LogRecord::WritePerformed { req_id: 9 }, "070900000000000000"),
        (
            LogRecord::PollArmed {
                idx: 2,
                period: SimDuration::from_secs(60),
            },
            "08020000000000000060ea000000000000",
        ),
        (LogRecord::PollDisarmed { idx: 2 }, "090200000000000000"),
        (LogRecord::RequestFlagged { req_id: 7 }, "0a0700000000000000"),
    ]
}

#[test]
fn records_encode_to_the_committed_bytes() {
    for (rec, want) in golden_records() {
        let bytes = rec.encode();
        assert_eq!(hex(&bytes), want, "{rec:?}");
        assert_eq!(LogRecord::decode(&bytes).unwrap(), rec);
    }
}

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

    fn time(&mut self) -> SimTime {
        SimTime::from_millis(self.below(1 << 40))
    }

    fn duration(&mut self) -> SimDuration {
        SimDuration::from_millis(self.below(1 << 30))
    }

    fn pending_write(&mut self) -> PendingWrite {
        PendingWrite {
            req_id: self.next(),
            reply_to: ActorId(self.below(16) as u32),
            item: self.item(),
            value: self.value(),
            rule: RuleId(self.below(100) as u32),
            trigger: EventId(self.next()),
        }
    }

    fn log_record(&mut self) -> LogRecord {
        match self.below(11) {
            0 => LogRecord::PrivateWrite {
                at: self.time(),
                item: self.item(),
                value: self.value(),
            },
            1 => LogRecord::Failure {
                at: self.time(),
                site: SiteId::new(self.below(8) as u32),
                kind: if self.below(2) == 0 {
                    FailureKind::Metric
                } else {
                    FailureKind::Logical
                },
            },
            2 => LogRecord::Clear {
                at: self.time(),
                site: SiteId::new(self.below(8) as u32),
            },
            3 => LogRecord::Reset { at: self.time() },
            4 => LogRecord::RequestSent {
                at: self.time(),
                req_id: self.next(),
            },
            5 => LogRecord::RequestResolved {
                req_id: self.next(),
            },
            6 => LogRecord::WriteAccepted(self.pending_write()),
            7 => LogRecord::WritePerformed {
                req_id: self.next(),
            },
            8 => LogRecord::PollArmed {
                idx: self.below(16),
                period: self.duration(),
            },
            9 => LogRecord::PollDisarmed {
                idx: self.below(16),
            },
            _ => LogRecord::RequestFlagged {
                req_id: self.next(),
            },
        }
    }
}

/// Every strict prefix of `bytes` must make `decode` fail cleanly.
fn assert_prefixes_fail<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> Option<T>) {
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_none(),
            "prefix of length {cut}/{} decoded successfully",
            bytes.len()
        );
    }
}

#[test]
fn log_records_round_trip_and_reject_prefixes() {
    let mut g = Gen::new(0xC0FFEE);
    let mut seen = [false; 11];
    for _ in 0..600 {
        let rec = g.log_record();
        let bytes = rec.encode();
        seen[bytes[0] as usize] = true;
        assert_eq!(LogRecord::decode(&bytes).unwrap(), rec);
        assert_prefixes_fail(&bytes, |b| LogRecord::decode(b).ok());
    }
    assert!(
        seen.iter().all(|&s| s),
        "generator failed to cover every LogRecord variant: {seen:?}"
    );
}

#[test]
fn encoding_is_deterministic() {
    let mut g = Gen::new(7);
    for _ in 0..100 {
        let rec = g.log_record();
        assert_eq!(rec.encode(), rec.encode());
    }
}
