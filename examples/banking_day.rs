//! A banking day with a periodic guarantee (§6.4).
//!
//! ```text
//! cargo run --example banking_day
//! ```
//!
//! "All update transactions occur between 9 a.m. and 5 p.m. … propagate
//! the new values of account balances from the branch to the head
//! office at the end of each working day" — and the toolkit can then
//! offer: *balances agree from 17:15 until 08:00 the next morning*,
//! which lets the head office's financial-analysis application run
//! overnight "with the assurance of consistency".

use hcm::checker::guarantee::check_guarantee;
use hcm::core::{ItemId, SimTime, Value};
use hcm::obs::Scope;
use hcm::protocols::periodic::{clock, BankScenario};
use hcm::simkit::SimRng;

fn hhmm(secs: u64) -> String {
    format!("{:02}:{:02}", (secs / 3600) % 24, (secs % 3600) / 60)
}

fn main() {
    let accounts: Vec<(String, i64)> = (0..5)
        .map(|i| (format!("acct{i}"), 1_000 * (i as i64 + 1)))
        .collect();
    let refs: Vec<(&str, i64)> = accounts.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let mut bank = hcm::protocols::periodic::build(3, &refs, &[SimTime::from_secs(clock::FIVE_PM)]);

    // A day of branch activity, strictly inside banking hours.
    let mut rng = SimRng::seeded(99);
    let mut updates = Vec::new();
    for _ in 0..25 {
        let t = rng.int_in(clock::NINE_AM as i64, (clock::FIVE_PM - 300) as i64) as u64;
        let acct = format!("acct{}", rng.int_in(0, 4));
        let v = rng.int_in(100, 20_000);
        updates.push((t, acct.clone(), v));
    }
    updates.sort();
    println!(
        "── Branch activity ({} updates) ──────────────────────────────",
        updates.len()
    );
    for (t, acct, v) in &updates {
        println!("  {} {} ← {v}", hhmm(*t), acct);
        bank.branch_update(SimTime::from_secs(*t), acct, *v);
    }
    // Horizon pad past 08:00 next day.
    bank.scenario.inject(
        SimTime::from_secs(clock::EIGHT_AM_NEXT + 1800),
        "BR",
        hcm::toolkit::SpontaneousOp::Sql("insert into accounts values ('pad', 1)".into()),
    );
    bank.scenario.run_to_quiescence();
    let trace = bank.scenario.trace();

    let m = &bank.scenario.obs.metrics;
    let finish_ms = m
        .gauge(Scope::Global, "batch.last_finish_ms")
        .expect("batch ran");
    println!("\n── End-of-day batch ───────────────────────────────────────────");
    println!("  started  {}", hhmm(clock::FIVE_PM));
    println!(
        "  finished {} ({} balances propagated)",
        hhmm(finish_ms as u64 / 1000),
        m.counter(Scope::Global, "batch.propagated")
    );

    println!("\n── Periodic guarantee ─────────────────────────────────────────");
    let night =
        BankScenario::night_guarantee(clock::FIVE_FIFTEEN_PM * 1000, clock::EIGHT_AM_NEXT * 1000);
    let r = check_guarantee(&trace, &night, None);
    println!(
        "  balances agree {} → {} next day: {:?} ({} instantiations)",
        hhmm(clock::FIVE_FIFTEEN_PM),
        hhmm(clock::EIGHT_AM_NEXT),
        r.outcome(),
        r.instantiations
    );
    let allday = BankScenario::night_guarantee(clock::NINE_AM * 1000, clock::EIGHT_AM_NEXT * 1000);
    println!(
        "  …but over the whole day: {:?} (consistency is genuinely periodic)",
        check_guarantee(&trace, &allday, None).outcome()
    );

    println!("\n── Overnight head-office view ─────────────────────────────────");
    let midnight = SimTime::from_secs(24 * 3600);
    for (name, _) in &accounts {
        let br = trace.value_at(
            &ItemId::with("bbal", [Value::from(name.as_str())]),
            midnight,
        );
        let hq = trace.value_at(
            &ItemId::with("hbal", [Value::from(name.as_str())]),
            midnight,
        );
        println!("  {name}: branch = {br:?}, head office = {hq:?}");
        assert_eq!(br, hq);
    }
}
