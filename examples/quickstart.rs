//! Quickstart — the paper's §4.2 salary-copy scenario, end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Builds the two-site deployment (San Francisco branch database A with
//! a notify interface, New York headquarters database B with a write
//! interface), asks the menu for applicable strategies, runs a small
//! workload, and then *mechanically checks* the §3.3.1 guarantees and
//! the Appendix-A validity of the recorded execution.

use hcm::checker::{check_validity, guarantee::check_guarantee, RuleSet};
use hcm::core::{ItemId, SimDuration, SimTime, Value};
use hcm::obs::{causal_chain, render_chain};
use hcm::rulelang::parse_guarantee;
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::menu;
use hcm::toolkit::{Scenario, ScenarioBuilder, SpontaneousOp};

const RID_SF: &str = r#"
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

const RID_NY: &str = r#"
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

const STRATEGY: &str = r#"
[locate]
salary1 = A
salary2 = B

[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s

[guarantee follows]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1

[guarantee leads]
(salary1(n) = x) @ t1 => (salary2(n) = x) @ t2 and t2 >= t1
"#;

fn employees(rows: &[(&str, i64)]) -> hcm::ris::relational::Database {
    let mut db = hcm::ris::relational::Database::new();
    db.create_table("employees", &["empid", "salary"]).unwrap();
    for (id, v) in rows {
        db.execute(&format!("INSERT INTO employees VALUES ('{id}', {v})"))
            .unwrap();
    }
    db
}

fn print_topology(sc: &Scenario) {
    println!("── Deployment (paper Figs. 1–2) ───────────────────────────────");
    for site in &sc.sites {
        println!("  site `{}` ({:?})", site.name, site.rid.kind);
        println!("    CM-Shell      actor{}", site.shell.0);
        println!("    CM-Translator actor{}", site.translator.0);
        for (stmt, id) in site.rid.interfaces.iter().zip(&site.iface_ids) {
            println!("    interface {id}: {stmt}");
        }
    }
    println!("  strategy rules:");
    for r in sc.strategy.rules.iter() {
        println!(
            "    {} @ LHS {} / RHS {}: {}",
            r.id, r.lhs_site, r.rhs_site, r.rule
        );
    }
    println!();
}

fn main() {
    // 1. The suggestion engine (§4.1): given the two sites' interfaces,
    //    which proven strategies apply, and with which guarantees?
    let src = vec![hcm::rulelang::parse_interface(&menu::interfaces::notify(
        "salary1(n)",
        SimDuration::from_secs(2),
    ))
    .unwrap()];
    let dst = vec![hcm::rulelang::parse_interface(&menu::interfaces::write(
        "salary2(n)",
        SimDuration::from_secs(1),
    ))
    .unwrap()];
    println!("── Menu suggestions ────────────────────────────────────────────");
    for s in menu::suggest_copy_strategies(
        "salary1(n)",
        "salary2(n)",
        &src,
        &dst,
        SimDuration::from_secs(60),
        SimDuration::from_secs(5),
    ) {
        let names: Vec<_> = s.guarantees.iter().map(|d| d.name).collect();
        println!("  strategy `{}` — proven guarantees: {names:?}", s.name);
        for r in &s.rules {
            println!("    {r}");
        }
    }
    println!();

    // 2. Build and run the deployment.
    let mut sc = ScenarioBuilder::new(42)
        .site(
            "A",
            RawStore::Relational(employees(&[("e1", 90_000), ("e2", 70_000)])),
            RID_SF,
        )
        .unwrap()
        .site(
            "B",
            RawStore::Relational(employees(&[("e1", 90_000), ("e2", 70_000)])),
            RID_NY,
        )
        .unwrap()
        .strategy(STRATEGY)
        .build()
        .unwrap();
    print_topology(&sc);

    for (t, id, v) in [
        (10u64, "e1", 95_000i64),
        (40, "e2", 71_000),
        (70, "e1", 99_000),
    ] {
        sc.inject(
            SimTime::from_secs(t),
            "A",
            SpontaneousOp::Sql(format!(
                "update employees set salary = {v} where empid = '{id}'"
            )),
        );
    }
    sc.run_to_quiescence();
    let trace = sc.trace();

    println!(
        "── Recorded execution ({} events) ─────────────────────────────",
        trace.len()
    );
    print!("{trace}");
    println!();

    // 3. Check validity (Appendix A.2) and the guarantees (§3.3.1).
    let mut rules = RuleSet::new();
    for site in &sc.sites {
        for (stmt, id) in site.rid.interfaces.iter().zip(&site.iface_ids) {
            rules.add_interface(*id, site.site, stmt);
        }
    }
    for r in sc.strategy.rules.iter() {
        rules.add_strategy(r.id, r.lhs_site, r.rhs_site, &r.rule);
    }
    let validity = check_validity(&trace, &rules);
    println!("── Checks ──────────────────────────────────────────────────────");
    println!(
        "  valid execution: {} ({} obligations verified)",
        validity.is_valid(),
        validity.obligations_checked
    );
    for g in [
        parse_guarantee(
            "follows",
            "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1",
        )
        .unwrap(),
        parse_guarantee(
            "leads",
            "(salary1(n) = x) @ t1 => (salary2(n) = x) @ t2 and t2 >= t1",
        )
        .unwrap(),
        parse_guarantee(
            "follows_metric(κ=10s)",
            "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t1 - 10s < t2 and t2 <= t1",
        )
        .unwrap(),
    ] {
        let r = check_guarantee(&trace, &g, None);
        println!(
            "  guarantee `{}`: {:?} ({} instantiations)",
            g.name,
            r.outcome(),
            r.instantiations
        );
    }

    // 4. Final state agreement.
    println!("\n── Final state ─────────────────────────────────────────────────");
    for id in ["e1", "e2"] {
        let a = trace.value_at(
            &ItemId::with("salary1", [Value::from(id)]),
            trace.end_time(),
        );
        let b = trace.value_at(
            &ItemId::with("salary2", [Value::from(id)]),
            trace.end_time(),
        );
        println!("  {id}: SF = {a:?}, NY = {b:?}");
    }

    // 5. Observability: the run's metrics snapshot (deterministic per
    //    seed — run twice and diff) and the causal chain of the last
    //    write landing at NY, walked back to the spontaneous update
    //    that caused it.
    println!("\n── Metrics (hcm-obs registry) ──────────────────────────────────");
    print!("{}", sc.metrics_table());
    let w = trace
        .events()
        .iter()
        .rfind(|e| e.desc.tag() == "W")
        .expect("a write landed at NY");
    let chain = causal_chain(&trace, w.id);
    println!(
        "\n── Causality: how did {} come to be? ──────────────────────────",
        w.desc
    );
    print!("{}", render_chain(&trace, &chain));
}
