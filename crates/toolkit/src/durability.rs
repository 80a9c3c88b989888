//! Wiring between the toolkit's actors and the durable store (§5).
//!
//! The paper's crash taxonomy hinges on memory: "crashes can be mapped
//! to metric failures if the database … can remember messages". This
//! module provides the three memory regimes a scenario can pick per
//! site, and the glue ([`StoreBridge`]) that shells and translators use
//! to write-ahead-log their durable state into an
//! [`hcm_store::StateStore`] and reload it on recovery.
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
//!   durable mutation to a [`hcm_store::StateStore`] and recovers from
//!   checkpoint + replay, demoting the crash to a metric failure:
//!   obligations are delayed, never lost.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;

use crate::registry::{FailureKind, GuaranteeRegistry, GuaranteeStatus};
use hcm_core::{ItemId, Value};
use hcm_obs::{Metrics, Scope};
use hcm_store::{FailureTag, LogRecord, SharedStore, ShellSnapshot, StatusTag};

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

/// Per-actor state policy derived from [`Durability`].
#[derive(Default)]
pub enum StatePolicy {
    /// Keep in-memory state across crashes (historical behaviour).
    #[default]
    Keep,
    /// Wipe on lossy crash; recover nothing.
    Lose,
    /// Wipe on lossy crash; recover via this bridge.
    Durable(StoreBridge),
}

impl StatePolicy {
    /// The bridge, if this policy is durable.
    pub fn bridge(&mut self) -> Option<&mut StoreBridge> {
        match self {
            StatePolicy::Durable(b) => Some(b),
            _ => None,
        }
    }

    /// Whether a lossy crash wipes volatile state under this policy.
    #[must_use]
    pub fn wipes_on_lossy_crash(&self) -> bool {
        !matches!(self, StatePolicy::Keep)
    }
}

/// An actor's handle to its [`hcm_store::StateStore`]: logging with
/// checkpoint cadence, recovery, and `store.*` metrics.
pub struct StoreBridge {
    store: SharedStore,
    metrics: Metrics,
    scope: Scope,
    checkpoint_every: u64,
    appends_since_ckpt: u64,
}

impl StoreBridge {
    /// Bridge `store` for the component metered under `scope`.
    #[must_use]
    pub fn new(store: SharedStore, metrics: Metrics, scope: Scope, checkpoint_every: u64) -> Self {
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
    pub fn log(&mut self, rec: &LogRecord) -> bool {
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
    pub fn save_checkpoint(&mut self, snapshot: &[u8]) {
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
    pub fn recover(&mut self) -> (Option<Vec<u8>>, Vec<LogRecord>) {
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

/// [`GuaranteeStatus`] → its storable tag.
#[must_use]
pub fn status_to_tag(s: GuaranteeStatus) -> StatusTag {
    match s {
        GuaranteeStatus::Valid => StatusTag::Valid,
        GuaranteeStatus::SuspendedMetric => StatusTag::SuspendedMetric,
        GuaranteeStatus::SuspendedLogical => StatusTag::SuspendedLogical,
    }
}

/// Storable tag → [`GuaranteeStatus`].
#[must_use]
pub fn tag_to_status(t: StatusTag) -> GuaranteeStatus {
    match t {
        StatusTag::Valid => GuaranteeStatus::Valid,
        StatusTag::SuspendedMetric => GuaranteeStatus::SuspendedMetric,
        StatusTag::SuspendedLogical => GuaranteeStatus::SuspendedLogical,
    }
}

/// [`FailureKind`] → its storable tag.
#[must_use]
pub fn fail_to_tag(k: FailureKind) -> FailureTag {
    match k {
        FailureKind::Metric => FailureTag::Metric,
        FailureKind::Logical => FailureTag::Logical,
    }
}

/// Storable tag → [`FailureKind`].
#[must_use]
pub fn tag_to_fail(t: FailureTag) -> FailureKind {
    match t {
        FailureTag::Metric => FailureKind::Metric,
        FailureTag::Logical => FailureKind::Logical,
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
        registry: registry
            .borrow()
            .statuses()
            .into_iter()
            .map(|(name, status, since)| (name, status_to_tag(status), since))
            .collect(),
        next_req: 0,
        outstanding: Vec::new(),
    };
    snap.encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcm_core::SimTime;
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
            assert_eq!(tag_to_status(status_to_tag(s)), s);
        }
    }

    #[test]
    fn default_policy_keeps_state() {
        let p = StatePolicy::default();
        assert!(!p.wipes_on_lossy_crash());
        assert!(matches!(Durability::default(), Durability::MessageOnly));
    }
}
