//! Durable state of the toolkit's actors (§5).
//!
//! The paper's crash taxonomy hinges on memory: "crashes can be mapped
//! to metric failures if the database … can remember messages". This
//! module owns everything a crash-surviving shell or translator
//! remembers:
//!
//! * the records it write-ahead-logs ([`LogRecord`], with the accepted
//!   writes of [`PendingWrite`]), encoded with the `hcm-store` codec
//!   into an [`hcm_store::StateStore`];
//! * the three memory regimes a scenario can pick ([`Durability`]) and
//!   the per-actor [`StatePolicy`] built from one.
//!
//! The regimes:
//!
//! * [`Durability::MessageOnly`] — historical behaviour: a crash only
//!   affects message traffic; in-memory actor state survives (the
//!   simulation never destroyed it). Kept as the default so existing
//!   experiments are bit-for-bit unchanged.
//! * [`Durability::LoseState`] — a *lossy* crash now also wipes the
//!   component's volatile state (registry, private data, pending
//!   writes). With no store to recover from, this is the paper's
//!   logical failure made concrete: promised notifications and
//!   accepted writes are simply gone.
//! * [`Durability::Durable`] — same wipe, but the component logs every
//!   durable mutation and recovers by replaying its whole log, demoting
//!   the crash to a metric failure: obligations are delayed, never
//!   lost. The log survives the wipe because the actor's
//!   [`StatePolicy`] owns it, and a wipe never touches the policy. It
//!   lives in memory or, with [`StoreSetup::File`], in one file per
//!   actor.
//!
//! A wiping crash also cancels the component's pending timers: they
//! belonged to the state it lost, and recovery re-arms the ones that
//! state still calls for.

use std::path::PathBuf;

use crate::registry::FailureKind;
use hcm_core::{EventId, ItemId, RuleId, SimDuration, SimTime, SiteId, Value};
use hcm_obs::{Metrics, Scope};
use hcm_simkit::ActorId;
use hcm_store::{CodecError, Decoder, Encoder, FileStore, MemStore, StateStore, StoreError};

fn decode_failure(b: u8) -> Result<FailureKind, CodecError> {
    match b {
        0 => Ok(FailureKind::Metric),
        1 => Ok(FailureKind::Logical),
        t => Err(CodecError::BadTag(t)),
    }
}

/// A write request a translator has accepted (scheduled against its
/// database) but not yet performed. Durable so that a crash between
/// acceptance and execution loses no writes — the §5 demotion of a
/// logical failure to a metric one.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingWrite {
    /// The shell's request id (to acknowledge on completion).
    pub req_id: u64,
    /// The requesting shell.
    pub reply_to: ActorId,
    /// Item to write.
    pub item: ItemId,
    /// Value to write.
    pub value: Value,
    /// The write-interface rule servicing the request.
    pub rule: RuleId,
    /// The `WR` event that triggered the write (provenance).
    pub trigger: EventId,
}

impl PendingWrite {
    fn encode_into(&self, e: &mut Encoder) {
        e.u64(self.req_id);
        e.u32(self.reply_to.0);
        e.item(&self.item);
        e.value(&self.value);
        e.u32(self.rule.0);
        e.u64(self.trigger.0);
    }

    fn decode_from(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(PendingWrite {
            req_id: d.u64()?,
            reply_to: ActorId(d.u32()?),
            item: d.item()?,
            value: d.value()?,
            rule: RuleId(d.u32()?),
            trigger: EventId(d.u64()?),
        })
    }
}

/// One durable log record: every durable state mutation a CM-Shell or
/// CM-Translator performs is logged as one record *before* (or
/// atomically with) the in-memory mutation, so replaying the records
/// from the first reconstructs the component's state at the moment of
/// the crash.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// A shell wrote CM-private data (`W` on a strategy RHS).
    PrivateWrite {
        /// When the write occurred.
        at: SimTime,
        /// The private item.
        item: ItemId,
        /// The value written.
        value: Value,
    },
    /// A failure of `site` was observed (detected locally or received
    /// as a `FailureNotice`).
    Failure {
        /// When the registry transition happened.
        at: SimTime,
        /// The failed site.
        site: SiteId,
        /// Metric or logical.
        kind: FailureKind,
    },
    /// A metric failure of `site` cleared (late response arrived).
    Clear {
        /// When the registry transition happened.
        at: SimTime,
        /// The recovered site.
        site: SiteId,
    },
    /// The system was reset (lifts logical suspensions, §5).
    Reset {
        /// When the reset happened.
        at: SimTime,
    },
    /// A shell issued a CMI request and armed its deadline.
    RequestSent {
        /// When the request was issued.
        at: SimTime,
        /// The request id.
        req_id: u64,
    },
    /// A shell's CMI request was answered, or given up as a logical
    /// failure (obligation discharged either way).
    RequestResolved {
        /// The request id.
        req_id: u64,
    },
    /// A shell's CMI request missed its deadline and was flagged as a
    /// metric failure; only its escalation check is left.
    RequestFlagged {
        /// The request id.
        req_id: u64,
    },
    /// A translator accepted a write request and scheduled it.
    WriteAccepted(PendingWrite),
    /// A translator performed (or definitively rejected) an accepted
    /// write; the pending obligation is discharged.
    WritePerformed {
        /// The request id.
        req_id: u64,
    },
    /// A translator armed (or re-armed) a periodic-notify interface.
    PollArmed {
        /// Index of the interface statement within the CM-RID.
        idx: u64,
        /// Its polling period.
        period: SimDuration,
    },
    /// A periodic-notify interface passed its stop time and will not
    /// be re-armed.
    PollDisarmed {
        /// Index of the interface statement within the CM-RID.
        idx: u64,
    },
}

impl LogRecord {
    /// Encode the record to bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.encode_into(&mut e);
        e.finish()
    }

    /// Append the record's bytes to `e`.
    fn encode_into(&self, e: &mut Encoder) {
        match self {
            LogRecord::PrivateWrite { at, item, value } => {
                e.u8(0);
                e.time(*at);
                e.item(item);
                e.value(value);
            }
            LogRecord::Failure { at, site, kind } => {
                e.u8(1);
                e.time(*at);
                e.u32(site.index());
                e.u8(*kind as u8);
            }
            LogRecord::Clear { at, site } => {
                e.u8(2);
                e.time(*at);
                e.u32(site.index());
            }
            LogRecord::Reset { at } => {
                e.u8(3);
                e.time(*at);
            }
            LogRecord::RequestSent { at, req_id } => {
                e.u8(4);
                e.time(*at);
                e.u64(*req_id);
            }
            LogRecord::RequestResolved { req_id } => {
                e.u8(5);
                e.u64(*req_id);
            }
            LogRecord::WriteAccepted(pw) => {
                e.u8(6);
                pw.encode_into(e);
            }
            LogRecord::WritePerformed { req_id } => {
                e.u8(7);
                e.u64(*req_id);
            }
            LogRecord::PollArmed { idx, period } => {
                e.u8(8);
                e.u64(*idx);
                e.duration(*period);
            }
            LogRecord::PollDisarmed { idx } => {
                e.u8(9);
                e.u64(*idx);
            }
            LogRecord::RequestFlagged { req_id } => {
                e.u8(10);
                e.u64(*req_id);
            }
        }
    }

    /// Decode a record from bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let rec = match d.u8()? {
            0 => LogRecord::PrivateWrite {
                at: d.time()?,
                item: d.item()?,
                value: d.value()?,
            },
            1 => LogRecord::Failure {
                at: d.time()?,
                site: SiteId::new(d.u32()?),
                kind: decode_failure(d.u8()?)?,
            },
            2 => LogRecord::Clear {
                at: d.time()?,
                site: SiteId::new(d.u32()?),
            },
            3 => LogRecord::Reset { at: d.time()? },
            4 => LogRecord::RequestSent {
                at: d.time()?,
                req_id: d.u64()?,
            },
            5 => LogRecord::RequestResolved { req_id: d.u64()? },
            6 => LogRecord::WriteAccepted(PendingWrite::decode_from(&mut d)?),
            7 => LogRecord::WritePerformed { req_id: d.u64()? },
            8 => LogRecord::PollArmed {
                idx: d.u64()?,
                period: d.duration()?,
            },
            9 => LogRecord::PollDisarmed { idx: d.u64()? },
            10 => LogRecord::RequestFlagged { req_id: d.u64()? },
            t => return Err(CodecError::BadTag(t)),
        };
        Ok(rec)
    }
}

/// Where each durable actor keeps its write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum StoreSetup {
    /// In-memory log — durable across *simulated* crashes, gone when
    /// the process exits. The default for tests and benchmarks.
    #[default]
    Memory,
    /// One CRC-framed log file per actor in this directory: the actor
    /// labelled `label` logs to `<dir>/<label>.wal`.
    File(PathBuf),
}

/// Scenario-level durability regime (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Durability {
    /// Crashes affect messages only; actor state silently survives.
    #[default]
    MessageOnly,
    /// Lossy crashes wipe volatile state; nothing is recovered.
    LoseState,
    /// Lossy crashes wipe volatile state; replaying a write-ahead log
    /// brings it back on recovery.
    Durable(StoreSetup),
}

/// One actor's side of its [`Durability`] regime, and the crash
/// bookkeeping every stateful actor shares: whether a lossy crash
/// wiped it since its last recovery, and the logging step. The default
/// keeps state across crashes.
#[derive(Default)]
pub struct StatePolicy {
    memory: Memory,
    crashed_lossy: bool,
}

#[derive(Default)]
enum Memory {
    #[default]
    Keep,
    Lose,
    Durable(StoreBridge),
}

/// What an actor rebuilds from when it recovers.
pub enum Restart {
    /// No crash wiped the actor since its last recovery.
    Warm,
    /// A crash wiped the actor and nothing remembers its state.
    Cold,
    /// A crash wiped the actor: every record it logged, decoded, to
    /// replay in order.
    Replay(Vec<LogRecord>),
}

impl StatePolicy {
    /// The policy of the actor labelled `label` under `durability`. A
    /// durable actor gets its own store (the file `<label>.wal` of a
    /// file store's directory) and meters it under `scope`.
    pub fn new(
        durability: &Durability,
        label: &str,
        scope: Scope,
        metrics: &Metrics,
    ) -> Result<Self, StoreError> {
        let memory = match durability {
            Durability::MessageOnly => Memory::Keep,
            Durability::LoseState => Memory::Lose,
            Durability::Durable(setup) => {
                let store: Box<dyn StateStore> = match setup {
                    StoreSetup::Memory => Box::new(MemStore::new()),
                    StoreSetup::File(dir) => {
                        Box::new(FileStore::open(dir.join(format!("{label}.wal")))?)
                    }
                };
                Memory::Durable(StoreBridge::new(store, metrics.clone(), scope))
            }
        };
        Ok(StatePolicy {
            memory,
            crashed_lossy: false,
        })
    }

    /// Note a crash. Returns `true` when it wipes the actor's volatile
    /// state — a lossy crash under any regime but
    /// [`Durability::MessageOnly`]; the caller then clears that state
    /// and cancels its pending timers
    /// ([`hcm_simkit::Ctx::cancel_timers`]).
    pub fn crash(&mut self, lossy: bool) -> bool {
        let wipes = lossy && !matches!(self.memory, Memory::Keep);
        self.crashed_lossy |= wipes;
        wipes
    }

    /// Whether a wiped actor gets its state back from a store.
    #[must_use]
    pub(crate) fn remembers(&self) -> bool {
        matches!(self.memory, Memory::Durable(_))
    }

    /// What the recovering actor rebuilds from; consumes the wipe that
    /// [`StatePolicy::crash`] noted.
    pub fn recover(&mut self) -> Restart {
        if !std::mem::take(&mut self.crashed_lossy) {
            return Restart::Warm;
        }
        match &mut self.memory {
            Memory::Durable(bridge) => Restart::Replay(bridge.recover()),
            _ => Restart::Cold,
        }
    }

    /// Write-ahead-log one durable mutation when the actor is durable.
    pub fn log(&mut self, rec: &LogRecord) {
        if let Memory::Durable(bridge) = &mut self.memory {
            bridge.log(rec);
        }
    }
}

/// An actor's handle to its [`hcm_store::StateStore`]: logging,
/// recovery, and `store.*` metrics.
struct StoreBridge {
    store: Box<dyn StateStore>,
    metrics: Metrics,
    scope: Scope,
    /// Every record is encoded into this one buffer before its append.
    encoder: Encoder,
}

impl StoreBridge {
    fn new(store: Box<dyn StateStore>, metrics: Metrics, scope: Scope) -> Self {
        StoreBridge {
            store,
            metrics,
            scope,
            encoder: Encoder::new(),
        }
    }

    /// Append one record to the WAL. Store errors are counted, not
    /// propagated: a component must not fall over because its log did
    /// (§5 degrades, never halts).
    fn log(&mut self, rec: &LogRecord) {
        self.encoder.clear();
        rec.encode_into(&mut self.encoder);
        match self.store.append(self.encoder.bytes()) {
            Ok(bytes) => {
                self.metrics.inc(self.scope, "store.appends");
                self.metrics.add(self.scope, "store.bytes", bytes);
            }
            Err(_) => {
                self.metrics.inc(self.scope, "store.errors");
            }
        }
    }

    /// Load and decode the log up to its first record that does not
    /// decode; that record is counted, and nothing after it replays, so
    /// a replay never applies a record without the ones before it.
    fn recover(&mut self) -> Vec<LogRecord> {
        let recovery = match self.store.recover() {
            Ok(r) => r,
            Err(_) => {
                self.metrics.inc(self.scope, "store.errors");
                return Vec::new();
            }
        };
        self.metrics.inc(self.scope, "store.recoveries");
        self.metrics
            .add(self.scope, "store.truncations", recovery.torn_truncations);
        let mut records = Vec::with_capacity(recovery.records.len());
        for payload in &recovery.records {
            let Ok(r) = LogRecord::decode(payload) else {
                self.metrics.inc(self.scope, "store.decode_errors");
                break;
            };
            records.push(r);
        }
        self.metrics
            .add(self.scope, "store.replayed", records.len() as u64);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_obs::Obs;
    use hcm_store::MemStore;

    #[test]
    fn bridge_logs_and_recovers() {
        let obs = Obs::new();
        let scope = Scope::Site(3);
        let mut bridge = StoreBridge::new(Box::new(MemStore::new()), obs.metrics.clone(), scope);
        let rec = LogRecord::Reset { at: SimTime::ZERO };
        bridge.log(&rec);
        bridge.log(&rec);
        assert_eq!(bridge.recover(), vec![rec.clone(), rec]);
        assert_eq!(obs.metrics.counter(scope, "store.appends"), 2);
        assert_eq!(obs.metrics.counter(scope, "store.recoveries"), 1);
        assert_eq!(obs.metrics.counter(scope, "store.replayed"), 2);
        assert!(obs.metrics.counter(scope, "store.bytes") > 0);
    }

    #[test]
    fn replay_stops_at_the_first_record_that_does_not_decode() {
        let obs = Obs::new();
        let scope = Scope::Site(0);
        let mut store = MemStore::new();
        let a = LogRecord::Reset { at: SimTime::ZERO };
        let b = LogRecord::RequestResolved { req_id: 7 };
        for payload in [a.encode(), b.encode(), vec![200], a.encode()] {
            store.append(&payload).unwrap();
        }
        let mut bridge = StoreBridge::new(Box::new(store), obs.metrics.clone(), scope);
        assert_eq!(bridge.recover(), vec![a, b]);
        assert_eq!(obs.metrics.counter(scope, "store.decode_errors"), 1);
        assert_eq!(obs.metrics.counter(scope, "store.replayed"), 2);
    }

    #[test]
    fn status_tags_round_trip() {
        for k in [FailureKind::Metric, FailureKind::Logical] {
            assert_eq!(decode_failure(k as u8).unwrap(), k);
        }
        assert!(decode_failure(2).is_err());
    }

    #[test]
    fn default_policy_keeps_state() {
        let mut p = StatePolicy::default();
        assert!(!p.crash(true));
        assert!(matches!(p.recover(), Restart::Warm));
        assert!(matches!(Durability::default(), Durability::MessageOnly));
    }

    #[test]
    fn log_record_round_trip_spot_checks() {
        let records = vec![
            LogRecord::PrivateWrite {
                at: SimTime::from_secs(3),
                item: ItemId::with("Cx", [Value::Int(1)]),
                value: Value::Float(0.5),
            },
            LogRecord::Failure {
                at: SimTime::from_millis(17),
                site: SiteId::new(2),
                kind: FailureKind::Logical,
            },
            LogRecord::Clear {
                at: SimTime::ZERO,
                site: SiteId::new(0),
            },
            LogRecord::Reset {
                at: SimTime::from_secs(99),
            },
            LogRecord::RequestSent {
                at: SimTime::from_secs(1),
                req_id: 7,
            },
            LogRecord::RequestResolved { req_id: 7 },
            LogRecord::WriteAccepted(PendingWrite {
                req_id: 9,
                reply_to: ActorId(1),
                item: ItemId::plain("X"),
                value: Value::Str("v".into()),
                rule: RuleId(4),
                trigger: EventId(12),
            }),
            LogRecord::WritePerformed { req_id: 9 },
            LogRecord::PollArmed {
                idx: 2,
                period: SimDuration::from_secs(60),
            },
            LogRecord::PollDisarmed { idx: 2 },
            LogRecord::RequestFlagged { req_id: 7 },
        ];
        for r in records {
            assert_eq!(LogRecord::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(LogRecord::decode(&[]).is_err());
        assert!(LogRecord::decode(&[200]).is_err());
    }
}
