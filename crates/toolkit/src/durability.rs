//! Durable state of the toolkit's actors (§5).
//!
//! The paper's crash taxonomy hinges on memory: "crashes can be mapped
//! to metric failures if the database … can remember messages". This
//! module owns everything a crash-surviving shell or translator
//! remembers:
//!
//! * the records it write-ahead-logs ([`LogRecord`], with the accepted
//!   writes of [`PendingWrite`]) and its checkpoint payloads
//!   ([`ShellSnapshot`], [`TranslatorSnapshot`]), encoded with the
//!   `hcm-store` codec into an [`hcm_store::StateStore`];
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
//!   durable mutation and recovers from checkpoint + replay, demoting
//!   the crash to a metric failure: obligations are delayed, never
//!   lost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;

use crate::registry::{FailureKind, GuaranteeRegistry, GuaranteeStatus};
use hcm_core::{EventId, ItemId, RuleId, SimDuration, SimTime, SiteId, Value};
use hcm_obs::{Metrics, Scope};
use hcm_simkit::ActorId;
use hcm_store::{
    CodecError, Decoder, Encoder, FileStore, MemStore, SharedStore, StoreConfig, StoreError,
};

fn decode_failure(b: u8) -> Result<FailureKind, CodecError> {
    match b {
        0 => Ok(FailureKind::Metric),
        1 => Ok(FailureKind::Logical),
        t => Err(CodecError::BadTag(t)),
    }
}

fn decode_status(b: u8) -> Result<GuaranteeStatus, CodecError> {
    match b {
        0 => Ok(GuaranteeStatus::Valid),
        1 => Ok(GuaranteeStatus::SuspendedMetric),
        2 => Ok(GuaranteeStatus::SuspendedLogical),
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
/// over the latest checkpoint reconstructs the component's state at
/// the moment of the crash.
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
    /// A shell's CMI request was answered (obligation discharged).
    RequestResolved {
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
                pw.encode_into(&mut e);
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
        }
        e.finish()
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
            t => return Err(CodecError::BadTag(t)),
        };
        Ok(rec)
    }
}

/// Checkpoint payload for a CM-Shell: the durable subset of its state
/// (CM-private data, guarantee registry, outstanding requests). A
/// checkpoint lets recovery prune the log prefix.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShellSnapshot {
    /// CM-private data, sorted by item (BTreeMap iteration order).
    pub private: Vec<(ItemId, Value)>,
    /// Guarantee registry entries: `(name, status, since)`, name-sorted.
    pub registry: Vec<(String, GuaranteeStatus, SimTime)>,
    /// Next request id (kept monotone across crashes so stale replies
    /// cannot collide with new requests).
    pub next_req: u64,
    /// Outstanding CMI requests: `(req_id, sent_at, metric-flagged)`.
    pub outstanding: Vec<(u64, SimTime, bool)>,
}

impl ShellSnapshot {
    /// Encode the snapshot to bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u32(self.private.len() as u32);
        for (item, value) in &self.private {
            e.item(item);
            e.value(value);
        }
        e.u32(self.registry.len() as u32);
        for (name, status, since) in &self.registry {
            e.str(name);
            e.u8(*status as u8);
            e.time(*since);
        }
        e.u64(self.next_req);
        e.u32(self.outstanding.len() as u32);
        for (req_id, sent_at, flagged) in &self.outstanding {
            e.u64(*req_id);
            e.time(*sent_at);
            e.bool(*flagged);
        }
        e.finish()
    }

    /// Decode a snapshot from bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let n = d.u32()? as usize;
        let mut private = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            private.push((d.item()?, d.value()?));
        }
        let n = d.u32()? as usize;
        let mut registry = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            registry.push((d.str()?, decode_status(d.u8()?)?, d.time()?));
        }
        let next_req = d.u64()?;
        let n = d.u32()? as usize;
        let mut outstanding = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            outstanding.push((d.u64()?, d.time()?, d.bool()?));
        }
        Ok(ShellSnapshot {
            private,
            registry,
            next_req,
            outstanding,
        })
    }
}

/// Checkpoint payload for a CM-Translator: armed periodic interfaces
/// and accepted-but-unperformed writes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslatorSnapshot {
    /// Armed periodic-notify interfaces: `(iface idx, period)`.
    pub armed: Vec<(u64, SimDuration)>,
    /// Accepted-but-unperformed writes, in acceptance order.
    pub pending: Vec<PendingWrite>,
}

impl TranslatorSnapshot {
    /// Encode the snapshot to bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u32(self.armed.len() as u32);
        for (idx, period) in &self.armed {
            e.u64(*idx);
            e.duration(*period);
        }
        e.u32(self.pending.len() as u32);
        for pw in &self.pending {
            pw.encode_into(&mut e);
        }
        e.finish()
    }

    /// Decode a snapshot from bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let n = d.u32()? as usize;
        let mut armed = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            armed.push((d.u64()?, d.duration()?));
        }
        let n = d.u32()? as usize;
        let mut pending = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            pending.push(PendingWrite::decode_from(&mut d)?);
        }
        Ok(TranslatorSnapshot { armed, pending })
    }
}

/// Which backing medium a durable site logs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreKind {
    /// In-memory log outside the simulated actor — durable across
    /// *simulated* crashes, gone when the process exits. The default
    /// for tests.
    Memory,
    /// CRC-checked segment files under this directory (one
    /// subdirectory per actor).
    File(PathBuf),
}

/// Configuration of a durable site's store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSetup {
    /// Backing medium.
    pub kind: StoreKind,
    /// Write a checkpoint after this many appended records.
    pub checkpoint_every: u64,
    /// Segment rotation threshold for file-backed stores.
    pub segment_bytes: u64,
}

impl Default for StoreSetup {
    fn default() -> Self {
        StoreSetup {
            kind: StoreKind::Memory,
            checkpoint_every: 64,
            segment_bytes: 64 * 1024,
        }
    }
}

/// Scenario-level durability regime (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Durability {
    /// Crashes affect messages only; actor state silently survives.
    #[default]
    MessageOnly,
    /// Lossy crashes wipe volatile state; nothing is recovered.
    LoseState,
    /// Lossy crashes wipe volatile state; a write-ahead log and
    /// checkpoints bring it back on recovery.
    Durable(StoreSetup),
}

/// One actor's side of its [`Durability`] regime, and the crash
/// bookkeeping every stateful actor shares: whether a lossy crash
/// wiped it since its last recovery, and the log-then-maybe-checkpoint
/// step. The default keeps state across crashes.
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
    /// A crash wiped the actor: its latest checkpoint, if any, and the
    /// decoded log suffix to replay over it.
    Replay(Option<Vec<u8>>, Vec<LogRecord>),
}

impl StatePolicy {
    /// The policy of the actor labelled `label` under `durability`. A
    /// durable actor gets its own store (a subdirectory `label` of a
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
                let store: SharedStore = match &setup.kind {
                    StoreKind::Memory => hcm_store::shared(MemStore::new()),
                    StoreKind::File(dir) => {
                        let cfg = StoreConfig {
                            segment_bytes: setup.segment_bytes,
                        };
                        hcm_store::shared(FileStore::open(dir.join(label), cfg)?)
                    }
                };
                Memory::Durable(StoreBridge::new(
                    store,
                    metrics.clone(),
                    scope,
                    setup.checkpoint_every,
                ))
            }
        };
        Ok(StatePolicy {
            memory,
            crashed_lossy: false,
        })
    }

    /// Note a crash. Returns `true` when it wipes the actor's volatile
    /// state — a lossy crash under any regime but
    /// [`Durability::MessageOnly`]; the caller then clears that state.
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
            Memory::Durable(bridge) => {
                let (checkpoint, records) = bridge.recover();
                Restart::Replay(checkpoint, records)
            }
            _ => Restart::Cold,
        }
    }

    /// Write-ahead-log one durable mutation when the actor is durable;
    /// when the checkpoint cadence comes due, save `snapshot()` as the
    /// new checkpoint.
    pub fn log(&mut self, rec: &LogRecord, snapshot: impl FnOnce() -> Vec<u8>) {
        if let Memory::Durable(bridge) = &mut self.memory {
            if bridge.log(rec) {
                bridge.save_checkpoint(&snapshot());
            }
        }
    }
}

/// An actor's handle to its [`hcm_store::StateStore`]: logging with
/// checkpoint cadence, recovery, and `store.*` metrics.
struct StoreBridge {
    store: SharedStore,
    metrics: Metrics,
    scope: Scope,
    checkpoint_every: u64,
    appends_since_ckpt: u64,
}

impl StoreBridge {
    fn new(store: SharedStore, metrics: Metrics, scope: Scope, checkpoint_every: u64) -> Self {
        StoreBridge {
            store,
            metrics,
            scope,
            checkpoint_every: checkpoint_every.max(1),
            appends_since_ckpt: 0,
        }
    }

    /// Append one record to the WAL. Returns `true` when the
    /// checkpoint cadence says the caller should snapshot now. Store
    /// errors are counted, not propagated: a component must not fall
    /// over because its log did (§5 degrades, never halts).
    fn log(&mut self, rec: &LogRecord) -> bool {
        let payload = rec.encode();
        match self.store.borrow_mut().append(&payload) {
            Ok(bytes) => {
                self.metrics.inc(self.scope, "store.appends");
                self.metrics.add(self.scope, "store.bytes", bytes);
                // Every append is flushed before the component moves
                // on — the sim-world analogue of an fsync per record.
                self.metrics.inc(self.scope, "store.fsyncs");
                self.appends_since_ckpt += 1;
                self.appends_since_ckpt >= self.checkpoint_every
            }
            Err(_) => {
                self.metrics.inc(self.scope, "store.errors");
                false
            }
        }
    }

    /// Install a checkpoint blob and reset the cadence counter.
    fn save_checkpoint(&mut self, snapshot: &[u8]) {
        match self.store.borrow_mut().checkpoint(snapshot) {
            Ok(bytes) => {
                self.metrics.inc(self.scope, "store.checkpoints");
                self.metrics.add(self.scope, "store.bytes", bytes);
                self.appends_since_ckpt = 0;
            }
            Err(_) => {
                self.metrics.inc(self.scope, "store.errors");
            }
        }
    }

    /// Load the latest checkpoint and the decoded log suffix. Records
    /// that fail to decode are skipped (and counted) — recovery is
    /// best-effort by design.
    fn recover(&mut self) -> (Option<Vec<u8>>, Vec<LogRecord>) {
        let recovery = match self.store.borrow_mut().recover() {
            Ok(r) => r,
            Err(_) => {
                self.metrics.inc(self.scope, "store.errors");
                return (None, Vec::new());
            }
        };
        self.metrics.inc(self.scope, "store.recoveries");
        self.metrics
            .add(self.scope, "store.truncations", recovery.torn_truncations);
        let mut records = Vec::with_capacity(recovery.records.len());
        for payload in &recovery.records {
            match LogRecord::decode(payload) {
                Ok(r) => records.push(r),
                Err(_) => {
                    self.metrics.inc(self.scope, "store.decode_errors");
                }
            }
        }
        self.metrics
            .add(self.scope, "store.replayed", records.len() as u64);
        (recovery.checkpoint, records)
    }
}

/// Canonical byte encoding of a shell's externally visible durable
/// state — its CM-private data and guarantee registry. Deterministic
/// (BTreeMap order, fixed-width codec), so "recovered to the same
/// state" can be asserted byte-for-byte across a crash.
#[must_use]
pub fn shell_state_blob(
    private: &Rc<RefCell<BTreeMap<ItemId, Value>>>,
    registry: &Rc<RefCell<GuaranteeRegistry>>,
) -> Vec<u8> {
    let snap = ShellSnapshot {
        private: private
            .borrow()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        registry: registry.borrow().statuses(),
        next_req: 0,
        outstanding: Vec::new(),
    };
    snap.encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_obs::Obs;
    use hcm_store::MemStore;

    #[test]
    fn bridge_logs_checkpoints_and_recovers() {
        let obs = Obs::new();
        let store = hcm_store::shared(MemStore::new());
        let scope = Scope::Site(3);
        let mut bridge = StoreBridge::new(store.clone(), obs.metrics.clone(), scope, 2);
        let rec = LogRecord::Reset { at: SimTime::ZERO };
        assert!(!bridge.log(&rec)); // 1 of 2
        assert!(bridge.log(&rec)); // cadence reached
        bridge.save_checkpoint(b"snap");
        assert!(!bridge.log(&rec)); // counter reset
        let (ckpt, records) = bridge.recover();
        assert_eq!(ckpt.as_deref(), Some(&b"snap"[..]));
        assert_eq!(records, vec![rec]);
        assert_eq!(obs.metrics.counter(scope, "store.appends"), 3);
        assert_eq!(obs.metrics.counter(scope, "store.fsyncs"), 3);
        assert_eq!(obs.metrics.counter(scope, "store.checkpoints"), 1);
        assert_eq!(obs.metrics.counter(scope, "store.recoveries"), 1);
        assert_eq!(obs.metrics.counter(scope, "store.replayed"), 1);
        assert!(obs.metrics.counter(scope, "store.bytes") > 0);
    }

    #[test]
    fn state_blob_is_deterministic_and_state_sensitive() {
        let private = Rc::new(RefCell::new(BTreeMap::new()));
        let registry = Rc::new(RefCell::new(GuaranteeRegistry::new()));
        let a = shell_state_blob(&private, &registry);
        assert_eq!(a, shell_state_blob(&private, &registry));
        private
            .borrow_mut()
            .insert(ItemId::plain("Cx"), Value::Int(1));
        assert_ne!(a, shell_state_blob(&private, &registry));
    }

    #[test]
    fn status_tags_round_trip() {
        for s in [
            GuaranteeStatus::Valid,
            GuaranteeStatus::SuspendedMetric,
            GuaranteeStatus::SuspendedLogical,
        ] {
            assert_eq!(decode_status(s as u8).unwrap(), s);
        }
        for k in [FailureKind::Metric, FailureKind::Logical] {
            assert_eq!(decode_failure(k as u8).unwrap(), k);
        }
        assert!(decode_status(3).is_err());
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
        ];
        for r in records {
            assert_eq!(LogRecord::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn snapshots_round_trip() {
        let s = ShellSnapshot {
            private: vec![(ItemId::plain("Flag"), Value::Bool(true))],
            registry: vec![(
                "g".into(),
                GuaranteeStatus::SuspendedMetric,
                SimTime::from_secs(4),
            )],
            next_req: 11,
            outstanding: vec![(10, SimTime::from_secs(2), true)],
        };
        assert_eq!(ShellSnapshot::decode(&s.encode()).unwrap(), s);

        let t = TranslatorSnapshot {
            armed: vec![(0, SimDuration::from_secs(30))],
            pending: vec![PendingWrite {
                req_id: 3,
                reply_to: ActorId(0),
                item: ItemId::with("salary2", [Value::from("e1")]),
                value: Value::Int(95_000),
                rule: RuleId(1),
                trigger: EventId(5),
            }],
        };
        assert_eq!(TranslatorSnapshot::decode(&t.encode()).unwrap(), t);
        assert_eq!(
            TranslatorSnapshot::decode(&TranslatorSnapshot::default().encode()).unwrap(),
            TranslatorSnapshot::default()
        );
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(LogRecord::decode(&[]).is_err());
        assert!(LogRecord::decode(&[200]).is_err());
        assert!(ShellSnapshot::decode(&[1]).is_err());
    }
}
