//! Correctness pins: a digest of each cell's trace plus its verdicts.
//!
//! The digest covers each event's time, site, descriptor, rule and
//! trigger, in trace order. The trigger enters as the trace position of
//! the triggering event, not its id, so a change to how ids are minted
//! leaves the pin alone. Metrics are not pinned, so adding a metric does
//! not break the benchmark.

use std::collections::HashMap;
use std::fmt::Write as _;

use hcm::core::Trace;

/// Pins recorded at landing, one line per cell:
/// `<workload> <seed> <cell> events=<n> digest=<hex> <verdicts>`.
/// Regenerate with `expbench/repin.sh` only when the simulated behaviour
/// is meant to change.
const COMMITTED: &str = include_str!("../pins.txt");

/// FNV-1a over the pinned fields of every event.
pub fn trace_digest(trace: &Trace) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut desc = String::new();
    for e in trace.events() {
        desc.clear();
        let _ = write!(desc, "{}", e.desc);
        h.bytes(&e.time.as_millis().to_le_bytes());
        h.bytes(&e.site.index().to_le_bytes());
        h.bytes(desc.as_bytes());
        h.bytes(&e.rule.map_or(u32::MAX, |r| r.0).to_le_bytes());
        let trigger = e.trigger.map_or(u64::MAX, |t| {
            trace.index_of(t).map_or(u64::MAX - 1, |i| i as u64)
        });
        h.bytes(&trigger.to_le_bytes());
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bs: &[u8]) {
        for b in bs {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The committed pin lines of one workload and seed, keyed by cell name;
/// empty when that seed was not pinned.
pub fn committed(workload: &str, seed: u64) -> HashMap<String, String> {
    let mut out = HashMap::new();
    for line in COMMITTED.lines() {
        let mut parts = line.splitn(3, ' ');
        let (Some(w), Some(s), Some(pin)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if w == workload && s.parse() == Ok(seed) {
            let cell = pin.split(' ').next().unwrap_or_default();
            out.insert(cell.to_owned(), pin.to_owned());
        }
    }
    out
}
