//! The message vocabulary of the simulated toolkit.
//!
//! Everything that moves between workloads, CM-Translators and
//! CM-Shells is a [`CmMsg`]. The CMI of the paper — the uniform
//! interface a CM-Translator presents to its CM-Shell — is the
//! [`RequestKind`] / [`TranslatorEvent`] pair.

use crate::durability::PendingWrite;
use crate::registry::FailureKind;
use hcm_core::{EventDesc, EventId, RuleId, SimDuration, SiteId, Value};

/// A native, store-shaped operation performed by a local application —
/// *spontaneous* from the CM's point of view. Each variant matches one
/// RIS's RISI; a backend refuses another store's shape with
/// `RisError::Unsupported`, which the translator counts in
/// `translator.spontaneous_errors`.
#[derive(Debug, Clone, PartialEq)]
pub enum SpontaneousOp {
    /// Relational: the application executes a SQL command.
    Sql(String),
    /// File store: replace a file's contents.
    FileWrite {
        /// File path.
        path: String,
        /// New contents.
        contents: String,
    },
    /// File store: remove a file.
    FileRemove {
        /// File path.
        path: String,
    },
    /// KV store: put.
    KvPut {
        /// Key.
        key: String,
        /// Value.
        value: Value,
    },
    /// KV store: delete.
    KvDelete {
        /// Key.
        key: String,
    },
    /// Bibliographic store: the librarian appends a record.
    BiblioAppend {
        /// Author.
        author: String,
        /// Title.
        title: String,
        /// Year.
        year: u32,
    },
    /// Whois directory: the administrator sets a field.
    WhoisSet {
        /// Person.
        name: String,
        /// Field name.
        field: String,
        /// Field value.
        value: String,
    },
    /// Whois directory: the administrator removes an entry.
    WhoisRemove {
        /// Person.
        name: String,
    },
}

/// A CMI request from a CM-Shell to a CM-Translator.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Write `item ← value` (a write of [`Value::Null`] deletes the
    /// item — see `hcm_core::event`).
    Write(hcm_core::ItemId, Value),
    /// Read the current value of `item`.
    Read(hcm_core::ItemId),
    /// Enumerate every ground item of one base that the store
    /// currently holds (a query capability of the CMI; used by repair
    /// agents that need the set of records, e.g.
    /// referential-integrity checking).
    Enumerate(hcm_core::Sym),
}

/// A CMI event from a CM-Translator to its CM-Shell.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslatorEvent {
    /// A notification `N(item, value)` promised by a notify or
    /// periodic-notify interface. `rule` is the interface statement
    /// that generated it and `trigger` the generating event
    /// (the `Ws` or `P` occurrence).
    Notify {
        /// Item concerned.
        item: hcm_core::ItemId,
        /// Current/new value.
        value: Value,
        /// Generating interface rule.
        rule: RuleId,
        /// Triggering event.
        trigger: EventId,
    },
    /// The response `R(item, value)` to a read request.
    ReadResult {
        /// Correlates with the shell's request.
        req_id: u64,
        /// Item read.
        item: hcm_core::ItemId,
        /// Value observed (`Value::Null` when the item does not exist).
        value: Value,
        /// Generating interface rule.
        rule: RuleId,
        /// The `RR` event.
        trigger: EventId,
    },
    /// Acknowledgment that a requested write was performed.
    WriteDone {
        /// Correlates with the shell's request.
        req_id: u64,
        /// Whether the native write succeeded (local CHECK constraints
        /// may reject it — the demarcation protocol depends on that).
        ok: bool,
    },
    /// Response to an `Enumerate` request.
    EnumResult {
        /// Correlates with the shell's request.
        req_id: u64,
        /// The base's items.
        items: Vec<hcm_core::ItemId>,
    },
    /// An event at the database that some strategy rule's LHS watches
    /// (forwarded per the interest patterns computed at initialization).
    Observed {
        /// The recorded event's id.
        id: EventId,
        /// Its descriptor.
        desc: EventDesc,
    },
}

/// The toolkit's message type (the `M` of `hcm_simkit::Sim`).
#[derive(Debug, Clone, PartialEq)]
pub enum CmMsg {
    /// Workload → translator: a local application operates on the RIS.
    Spontaneous(SpontaneousOp),
    /// Shell → translator: CMI request. `rule`/`trigger` identify the
    /// strategy-rule firing that caused it, so the translator can
    /// record the `WR`/`RR` event with correct provenance.
    Request {
        /// Correlation id assigned by the requester.
        req_id: u64,
        /// Where the response (`WriteDone` / `ReadResult` /
        /// `EnumResult`) goes — the site's shell, or a protocol agent
        /// acting as one.
        reply_to: hcm_simkit::ActorId,
        /// Strategy rule that generated the request.
        rule: Option<RuleId>,
        /// Event that fired the rule.
        trigger: Option<EventId>,
        /// The request proper.
        kind: RequestKind,
    },
    /// Translator → shell: CMI event.
    Cmi(TranslatorEvent),
    /// Shell → shell: execute the (already matched) rule's RHS here.
    RemoteFire {
        /// Strategy rule to execute.
        rule: RuleId,
        /// The triggering event at the sender's site.
        trigger: EventId,
        /// The matching interpretation from the LHS: the rule's slot
        /// values in slot order (see `hcm_rulelang::slots`), `None` for
        /// a variable the match left unbound.
        slots: Vec<Option<Value>>,
    },
    /// Shell → shell (or protocol actor → shell): a custom event to
    /// record and match at the receiving site.
    Custom {
        /// The (ground) event descriptor.
        desc: EventDesc,
        /// Provenance: generating rule, if any.
        rule: Option<RuleId>,
        /// Provenance: triggering event, if any.
        trigger: Option<EventId>,
    },
    /// Translator self-timer: the `idx`-th periodic interface fires.
    PollTick {
        /// Index into the translator's periodic-interface list.
        idx: usize,
    },
    /// Translator self-timer: perform a previously accepted write.
    PerformWrite(PendingWrite),
    /// Shell self-timer: the `idx`-th local periodic strategy rule
    /// fires (`P(p)`-headed rules).
    RuleTick {
        /// Index into the shell's periodic-rule list.
        idx: usize,
    },
    /// Shell self-timer: probe the local database even when idle
    /// (heartbeat failure detection — the paper's §5 notes silent
    /// failures are undetectable without probing).
    Heartbeat,
    /// Shell self-timer: check whether request `req_id` was answered.
    CheckDeadline {
        /// Correlation id being checked.
        req_id: u64,
        /// Whether this is the escalation (logical) deadline.
        escalation: bool,
    },
    /// Shell → shell: failure status of a site changed.
    FailureNotice {
        /// The affected site.
        site: SiteId,
        /// The failure class, or `None` when a previously flagged
        /// failure has cleared (the site answered again).
        kind: Option<FailureKind>,
    },
    /// Application → shell: reset the system at this site (§5: a
    /// logical failure suspends guarantees "until the system is
    /// reset"). The shell returns every guarantee to valid and logs
    /// the reset.
    Reset,
    /// Failure injection → translator: add `extra` to every internal
    /// service delay (models database overload; `ZERO` restores
    /// normal operation).
    SetServiceExtra(SimDuration),
}
