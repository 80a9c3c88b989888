//! # hcm-store — durable state for shells and translators
//!
//! The paper's failure model (§5) turns on durability: "crashes can be
//! mapped to metric failures if the database … can remember messages".
//! This crate is the *remembering*: an append-only write-ahead log of
//! opaque record payloads and a recovery path that returns every
//! record logged so far. A CM-Shell or CM-Translator wired to a
//! [`StateStore`] can lose its entire in-memory state to a lossy crash
//! and come back, by replaying its log from the first record, holding
//! exactly the registry, private data and pending obligations it had
//! logged — demoting what would have been a logical failure to a
//! metric one.
//!
//! The store does not know what it holds. The records themselves
//! (`LogRecord`) live in `hcm_toolkit::durability`, next to the replay
//! code that reads them, and are encoded with this crate's [`codec`].
//!
//! Design rules (shared with the rest of the workspace):
//!
//! * **Dependency-free.** crates.io is unreachable in this
//!   environment, so the binary codec ([`codec`]), the CRC32
//!   checksums and the log-file format are all hand-rolled on `std`.
//! * **Deterministic.** Encoding is fixed-width little-endian with
//!   length-prefixed strings; the same state always encodes to the
//!   same bytes, so recovery equivalence can be asserted
//!   byte-for-byte.
//! * **Torn tails are data loss, not corruption.** Every record
//!   carries a CRC32; recovery stops at the first record whose length
//!   or checksum does not verify, truncates the tail, and reports how
//!   much was dropped — it never panics on a half-written file.
//!
//! Two [`StateStore`] implementations are provided: [`MemStore`] (an
//! in-memory log for tests and simulations, durable across *simulated*
//! crashes because a crash's wipe never touches the actor's durability
//! policy, which owns the store) and [`FileStore`] (one append-only
//! file of length-prefixed CRC-checked frames per component, truncated
//! at its first torn frame when opened or recovered).

#![warn(missing_docs)]

pub mod codec;
pub mod wal;

pub use codec::{crc32, CodecError, Decoder, Encoder};
pub use wal::{FileStore, MemStore, Recovery, StateStore, StoreError};
