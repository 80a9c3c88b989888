//! E6 — the §6.4 banking scenario and its periodic guarantee,
//! integration level (multi-account randomized day).

use hcm::core::SimTime;
use hcm::obs::Scope;
use hcm::protocols::periodic::{clock, BankScenario};
use hcm::simkit::SimRng;

#[test]
fn randomized_working_day_yields_the_night_guarantee() {
    for seed in [1u64, 2, 3] {
        let accounts: Vec<(String, i64)> =
            (0..8).map(|i| (format!("a{i}"), 1000 + i as i64)).collect();
        let refs: Vec<(&str, i64)> = accounts.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let mut b =
            hcm::protocols::periodic::build(seed, &refs, &[SimTime::from_secs(clock::FIVE_PM)]);
        let mut rng = SimRng::seeded(seed * 31);
        // Random updates strictly inside banking hours.
        for _ in 0..30 {
            let t = rng.int_in(clock::NINE_AM as i64, (clock::FIVE_PM - 120) as i64) as u64;
            let acct = format!("a{}", rng.int_in(0, 7));
            let v = rng.int_in(0, 10_000);
            b.branch_update(SimTime::from_secs(t), &acct, v);
        }
        // Horizon pad past 08:00 next day.
        b.scenario.inject(
            SimTime::from_secs(clock::EIGHT_AM_NEXT + 600),
            "BR",
            hcm::toolkit::SpontaneousOp::Sql("insert into accounts values ('pad', 1)".into()),
        );
        b.scenario.run_to_quiescence();
        let trace = b.scenario.trace();

        // The batch finished inside the 15-minute window.
        let m = &b.scenario.obs.metrics;
        let finish = m
            .gauge(Scope::Global, "batch.last_finish_ms")
            .expect("batch ran");
        assert!(
            finish <= clock::FIVE_FIFTEEN_PM as i64 * 1000,
            "seed {seed}: batch finished at {finish}ms"
        );

        let g = BankScenario::night_guarantee(
            clock::FIVE_FIFTEEN_PM * 1000,
            clock::EIGHT_AM_NEXT * 1000,
        );
        let r = hcm::checker::guarantee::check_guarantee(&trace, &g, None);
        assert!(r.holds, "seed {seed}: {:#?}", r.violations);
        assert!(r.instantiations > 0);
    }
}

#[test]
fn batch_cost_scales_with_accounts_not_updates() {
    // 3 accounts, many updates: the batch still propagates each account
    // once — the message economy of periodic strategies.
    let mut b = hcm::protocols::periodic::build(
        7,
        &[("a0", 1), ("a1", 2), ("a2", 3)],
        &[SimTime::from_secs(clock::FIVE_PM)],
    );
    for i in 0..50 {
        b.branch_update(
            SimTime::from_secs(clock::NINE_AM + 60 * i),
            &format!("a{}", i % 3),
            i as i64,
        );
    }
    b.scenario.run_to_quiescence();
    let propagated = b
        .scenario
        .obs
        .metrics
        .counter(Scope::Global, "batch.propagated");
    assert_eq!(propagated, 3, "one write per account, not per update");
}
