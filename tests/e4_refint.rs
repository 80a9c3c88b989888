//! E4 — referential integrity with a bounded violation window (§6.2),
//! integration level: randomized workloads, measured violation windows.

use hcm::core::{ItemId, SimDuration, SimTime, Value};
use hcm::protocols::refint;
use hcm::simkit::SimRng;

const HOUR: u64 = 3600;

#[test]
fn randomized_workload_respects_the_window() {
    for seed in [1u64, 2, 3] {
        let mut r = refint::build(
            seed,
            SimDuration::from_secs(HOUR),
            SimTime::from_secs(12 * HOUR),
        );
        let mut rng = SimRng::seeded(seed * 7);
        // 15 employees; ~half get salaries (some before, some after the
        // project record).
        for i in 0..15 {
            let id = format!("e{i}");
            let pt = rng.int_in(60, (8 * HOUR) as i64) as u64;
            r.add_project(SimTime::from_secs(pt), &id, "proj");
            match i % 3 {
                0 => r.add_salary(SimTime::from_secs(pt.saturating_sub(30).max(1)), &id, 1000),
                1 => {
                    // salary arrives within half a window
                    let st = pt + rng.int_in(10, (HOUR / 2) as i64) as u64;
                    r.add_salary(SimTime::from_secs(st), &id, 1000);
                }
                _ => {} // dangling forever
            }
        }
        r.scenario.run_to_quiescence();
        let trace = r.scenario.trace();

        // Direct measurement: every project record either got a salary
        // or was deleted within 2 windows of its creation.
        let max_window = SimDuration::from_secs(2 * HOUR);
        for e in trace.events() {
            let hcm::core::EventDesc::Ws { item, new, .. } = &e.desc else {
                continue;
            };
            if item.base != "project" || !new.exists() {
                continue;
            }
            let salary = ItemId {
                base: "salary".into(),
                params: item.params.clone(),
            };
            let deadline = e.time + max_window;
            let salary_by_deadline = trace
                .value_at(&salary, deadline)
                .is_some_and(|v| v.exists());
            let project_gone_by_deadline =
                !trace.value_at(item, deadline).is_some_and(|v| v.exists());
            assert!(
                salary_by_deadline || project_gone_by_deadline,
                "seed {seed}: {item} dangled past the window"
            );
        }
        // And the formula-level check agrees.
        let rep = hcm::checker::guarantee::check_guarantee(&trace, &r.guarantee(), None);
        assert!(rep.holds, "seed {seed}: {:#?}", rep.violations);
    }
}

#[test]
fn deletion_rate_tracks_dangling_fraction() {
    let mut r = refint::build(
        9,
        SimDuration::from_secs(HOUR),
        SimTime::from_secs(3 * HOUR),
    );
    for i in 0..10 {
        let id = format!("d{i}");
        r.add_project(SimTime::from_secs(100 + i), &id, "p");
        if i < 4 {
            r.add_salary(SimTime::from_secs(50), &id, 1);
        }
    }
    r.scenario.run_to_quiescence();
    assert_eq!(
        r.stats.borrow().deleted,
        6,
        "exactly the dangling records go"
    );
    let trace = r.scenario.trace();
    // Employees with salaries keep their projects.
    for i in 0..4 {
        let p = ItemId::with("project", [Value::from(format!("d{i}"))]);
        assert!(trace
            .value_at(&p, trace.end_time())
            .is_some_and(|v| v.exists()));
    }
}

/// The repair notifies record owners by e-mail — "perhaps notifying
/// the database owner of the deleted records" (§6.2) — through a
/// write-only mail RIS: one notice per deletion, visible as W events
/// on `notice(i)` items in the trace.
#[test]
fn owners_are_notified_of_deletions() {
    let mut r = refint::build(
        11,
        SimDuration::from_secs(HOUR),
        SimTime::from_secs(2 * HOUR),
    );
    r.add_project(SimTime::from_secs(100), "ada", "skunkworks");
    r.add_salary(SimTime::from_secs(100), "bob", 500);
    r.add_project(SimTime::from_secs(200), "bob", "mainline");
    r.scenario.run_to_quiescence();

    let s = r.stats.borrow();
    assert_eq!(s.deleted, 1, "only ada's record dangles");
    assert_eq!(s.notices_sent, 1);

    let trace = r.scenario.trace();
    let notice_writes: Vec<_> = trace
        .events()
        .iter()
        .filter(
            |e| matches!(&e.desc, hcm::core::EventDesc::W { item, .. } if item.base == "notice"),
        )
        .collect();
    assert_eq!(notice_writes.len(), 1);
    match &notice_writes[0].desc {
        hcm::core::EventDesc::W { item, value } => {
            assert_eq!(item.params[0], Value::from("ada"));
            assert_eq!(
                value.as_str(),
                Some("your project record project(\"ada\") was deleted: no salary record found")
            );
        }
        _ => unreachable!(),
    }
}
