//! Shared helpers for the workspace integration tests.
#![allow(dead_code)] // each test binary uses a different subset

#[allow(unused_imports)] // each test binary uses a different subset
pub use hcm::harness::rule_set_of;

/// The copy guarantees `menu::derive` derives for `dst = copy of src`
/// from what `sc` deploys: site A's and site B's interface statements
/// and the strategy's own rules.
#[must_use]
pub fn deployed_copy_guarantees(
    sc: &hcm::toolkit::Scenario,
    src: &str,
    dst: &str,
) -> Vec<hcm::toolkit::menu::derive::Derived> {
    let rules: Vec<_> = sc.strategy.rules.iter().map(|r| r.rule.clone()).collect();
    hcm::toolkit::menu::derive::copy_guarantees(
        src,
        dst,
        &sc.site("A").rid.interfaces,
        &sc.site("B").rid.interfaces,
        &rules,
    )
}

/// Assert that every derived guarantee holds on `trace`.
pub fn assert_all_hold(trace: &hcm::core::Trace, derived: &[hcm::toolkit::menu::derive::Derived]) {
    for d in derived {
        let g = hcm::rulelang::parse_guarantee(d.name, &d.formula).unwrap();
        let r = hcm::checker::guarantee::check_guarantee(trace, &g, None);
        assert!(
            r.holds,
            "derived `{}` violated: {:#?}",
            d.name, r.violations
        );
    }
}

/// A fresh relational employees database with one row per `(id, value)`.
#[must_use]
pub fn employees_db(rows: &[(&str, i64)]) -> hcm::ris::relational::Database {
    let mut db = hcm::ris::relational::Database::new();
    db.create_table("employees", &["empid", "salary"]).unwrap();
    for (id, v) in rows {
        db.execute(&format!("INSERT INTO employees VALUES ('{id}', {v})"))
            .unwrap();
    }
    db
}

/// CM-RID for a relational source offering notify + read on
/// `salary1(n)` (the paper's site A).
pub const RID_SRC: &str = r#"
ris = relational
service = 200ms
[interface]
Ws(salary1(n), b) -> N(salary1(n), b) within 2s
RR(salary1(n)) when salary1(n) = b -> R(salary1(n), b) within 1s
[command read salary1]
select salary from employees where empid = $p0
[map salary1]
table = employees
key = empid
col = salary
"#;

/// CM-RID for a relational source offering write (+ no-spontaneous-
/// write) on `salary2(n)` (the paper's site B).
pub const RID_DST: &str = r#"
ris = relational
service = 200ms
[interface]
WR(salary2(n), b) -> W(salary2(n), b) within 1s
Ws(salary2(n), b) -> false
[command write salary2]
update employees set salary = $value where empid = $p0
[command insert salary2]
insert into employees values ($p0, $value)
[command read salary2]
select salary from employees where empid = $p0
[map salary2]
table = employees
key = empid
col = salary
"#;
