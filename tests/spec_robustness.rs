//! Robustness of the specification parsers against damaged text.
//!
//! CM-RIDs and strategy specifications are read from files, and the
//! statements inside them — guarantees, interface statements, strategy
//! rules, conditions and templates — are parsed from that text. Every
//! sample below is mutated many times (character deletion, truncation,
//! span duplication, punctuation and non-ASCII insertion, long digit
//! runs) and fed to `CmRid::parse`, `CompiledStrategy::from_spec` and
//! the `parse_*` entry points. Each call must return `Ok` or `Err`; none
//! may panic, and most mutants must be rejected. A strategy mutant that
//! compiles must also run: deployed, driven, simulated and checked.
//!
//! Driven by a local SplitMix64 generator, so every run checks the
//! same cases. The suite runs in the debug profile, so arithmetic
//! overflow on a long digit run panics rather than wrapping.

mod common;

use common::{employees_db, RID_DST, RID_SRC};
use hcm::core::{RuleRegistry, SimTime, SiteId, Value};
use hcm::harness::post_mortem;
use hcm::ris::kvstore::KvStore;
use hcm::ris::relational::Database;
use hcm::rulelang::{
    parse_cond, parse_guarantee, parse_interface, parse_strategy_rule, parse_template,
};
use hcm::toolkit::backends::RawStore;
use hcm::toolkit::{CmRid, CompiledStrategy, ScenarioBuilder, SpontaneousOp};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Minimal deterministic generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// CM-RIDs for each kind of RIS, every section kind included.
const RIDS: &[&str] = &[
    r#"
# notify-source salary site
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
"#,
    r#"
ris = relational
service = 1.5s
[interface]
WR(salary2(n), b) -> W(salary2(n), b) within 1s
[command write salary2]
update employees set salary = $value where empid = $p0
[command insert salary2]
insert into employees values ($p0, $value)
"#,
    r#"
ris = kv
service = 1ms
[interface]
Ws(phone(n), b) -> N(phone(n), b) within 1s
WR(phone(n), b) -> W(phone(n), b) within 500ms
[map phone]
key = phone/$p0
type = str
"#,
];

/// Strategy specifications over sites `A` and `B`.
const SPECS: &[&str] = &[
    r#"
[locate]
salary1 = A
salary2 = B
[private]
Cx = A
[strategy]
N(salary1(n), b) -> WR(salary2(n), b) within 5s
P(60s) -> RR(salary1(n)) within 1s
[guarantee follows]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1
[guarantee follows_metric]
(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t1 - 10s < t2 and t2 <= t1
"#,
    r#"
[locate]
X = A
Y = B
[strategy]
Ws(X, b) -> WR(Y, b) within 5s
N(X, b) when X = b -> WR(Y, b) within 2500ms
"#,
    r#"
[locate]
salary1 = A
salary2 = B
[private]
Cx = B
[strategy]
N(salary1(n), b) -> if Cx(n) != b then WR(salary2(n), b) ; W(Cx(n), b) within 5s
[guarantee settles]
(salary1(n) = y) @@ [t, t + 10s] => (salary2(n) = y) @? [t + 5s, t + 10s]
"#,
];

const GUARANTEES: &[&str] = &[
    "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t2 <= t1",
    "(salary2(n) = y) @ t1 => (salary1(n) = y) @ t2 and t1 - 10s < t2 and t2 <= t1",
    "(X = b) @ t1 and t1 > 5s => (Y = b) @ t2 and t2 <= t1 + 8s",
];

const INTERFACES: &[&str] = &[
    "Ws(salary1(n), b) -> N(salary1(n), b) within 2s",
    "RR(salary1(n)) when salary1(n) = b -> R(salary1(n), b) within 1s",
    "WR(phone(n), b) -> W(phone(n), b) within 500ms",
];

const RULES: &[&str] = &[
    "N(salary1(n), b) -> WR(salary2(n), b) within 5s",
    "P(60s) -> RR(salary1(n)) within 1s",
    "N(X, b) -> WR(Y, b) ; WR(Z, b) within 5s",
];

const CONDS: &[&str] = &[
    "salary1(n) = b",
    "X > 100 and Y <= X - 3",
    "abs(X - Y) < 10 or not Z = 0",
];

const TEMPLATES: &[&str] = &["N(salary1(n), b)", "WR(salary2(e1), 42)", "RR(X)"];

const PUNCT: &[&str] = &[
    "(", ")", "[", "]", "=", ",", ";", "@", "->", "=>", "#", "$", "-", ".", ":", "\n", "'", "\"",
];

const NON_ASCII: &[&str] = &["é", "ß", "Ω", "→", "😀", "\u{0}", "\u{FFFD}", "\u{300}"];

/// The char boundaries of `s`, end included.
fn boundaries(s: &str) -> Vec<usize> {
    s.char_indices().map(|(i, _)| i).chain([s.len()]).collect()
}

/// A run of 15 to 40 digits: past `u64` at the top, overflowing a
/// millisecond conversion or an `i64` in between.
fn digit_run(g: &mut Gen) -> String {
    let len = 15 + g.below(26);
    (0..len)
        .map(|i| {
            if i == 0 {
                char::from(b'1' + g.below(9) as u8)
            } else {
                char::from(b'0' + g.below(10) as u8)
            }
        })
        .collect()
}

/// One random mutation of `src`.
fn mutate(g: &mut Gen, src: &str) -> String {
    let b = boundaries(src);
    if b.len() < 2 {
        return NON_ASCII[g.below(NON_ASCII.len())].to_owned();
    }
    let at = b[g.below(b.len())];
    match g.below(6) {
        // Delete one character.
        0 => {
            let k = g.below(b.len() - 1);
            format!("{}{}", &src[..b[k]], &src[b[k + 1]..])
        }
        // Truncate at a character boundary.
        1 => src[..at].to_owned(),
        // Duplicate a span of up to 12 characters in place.
        2 => {
            let k = g.below(b.len() - 1);
            let end = b[(k + 1 + g.below(12)).min(b.len() - 1)];
            format!("{}{}", &src[..end], &src[b[k]..])
        }
        // Insert punctuation.
        3 => format!(
            "{}{}{}",
            &src[..at],
            PUNCT[g.below(PUNCT.len())],
            &src[at..]
        ),
        // Insert a non-ASCII character.
        4 => format!(
            "{}{}{}",
            &src[..at],
            NON_ASCII[g.below(NON_ASCII.len())],
            &src[at..]
        ),
        // Replace a digit (or, without one, insert) with a long digit run.
        _ => {
            let digits: Vec<usize> = src
                .match_indices(|c: char| c.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            let run = digit_run(g);
            match digits.get(g.below(digits.len())) {
                Some(&i) => format!("{}{run}{}", &src[..i], &src[i + 1..]),
                None => format!("{}{run}{}", &src[..at], &src[at..]),
            }
        }
    }
}

fn sites() -> BTreeMap<String, SiteId> {
    [
        ("A".to_string(), SiteId::new(0)),
        ("B".to_string(), SiteId::new(1)),
    ]
    .into_iter()
    .collect()
}

/// Run `parse` on `input`, turning a panic into a test failure that
/// names the parser and the input. Returns whether the input parsed.
fn accepted(parser: &str, input: &str, parse: impl FnOnce(&str) -> bool) -> bool {
    catch_unwind(AssertUnwindSafe(|| parse(input)))
        .unwrap_or_else(|_| panic!("{parser} panicked on {input:?}"))
}

fn rid(src: &str) -> bool {
    CmRid::parse(src).is_ok()
}

fn spec(src: &str) -> bool {
    CompiledStrategy::from_spec(src, &sites(), &mut RuleRegistry::new()).is_ok()
}

/// A parser under test: its name, its samples, and whether it accepts
/// a text.
type Target = (&'static str, &'static [&'static str], fn(&str) -> bool);

/// Every parser under test with its samples.
fn targets() -> Vec<Target> {
    vec![
        ("CmRid::parse", RIDS, rid),
        ("CompiledStrategy::from_spec", SPECS, spec),
        ("parse_guarantee", GUARANTEES, |s| {
            parse_guarantee("g", s).is_ok()
        }),
        ("parse_interface", INTERFACES, |s| {
            parse_interface(s).is_ok()
        }),
        ("parse_strategy_rule", RULES, |s| {
            parse_strategy_rule(s).is_ok()
        }),
        ("parse_cond", CONDS, |s| parse_cond(s).is_ok()),
        ("parse_template", TEMPLATES, |s| parse_template(s).is_ok()),
    ]
}

#[test]
fn every_sample_parses_unmutated() {
    for (parser, samples, parse) in targets() {
        for s in samples {
            assert!(accepted(parser, s, parse), "{parser} rejected {s:?}");
        }
    }
}

#[test]
fn mutants_are_rejected_without_panicking() {
    let mut g = Gen(0x5EC_F11E);
    for (parser, samples, parse) in targets() {
        let (mut runs, mut rejected) = (0, 0);
        for s in samples {
            for round in 0..400 {
                let mut m = mutate(&mut g, s);
                // Some rounds stack a second mutation on the first.
                if round % 3 == 0 {
                    m = mutate(&mut g, &m);
                }
                runs += 1;
                if !accepted(parser, &m, parse) {
                    rejected += 1;
                }
            }
        }
        assert!(
            rejected * 2 > runs,
            "{parser}: only {rejected} of {runs} mutants rejected"
        );
    }
}

/// Deploy `spec` on the two-site salary deployment of `tests/common`,
/// apply 3 SQL updates at `A`, simulate to a horizon under a step
/// budget and judge the run. Returns whether the spec built.
///
/// The verdict is a partial oracle. A shell skips an RHS step whose
/// variable the match left unbound (`shell.steps_skipped`), which
/// property 6 counts as a missing step. So every violation must be a
/// property-6 one, and a run in which neither shell skipped a step
/// must be valid.
fn deploy_and_run(spec: &str) -> bool {
    let db = || RawStore::Relational(employees_db(&[("e1", 90_000), ("e2", 70_000)]));
    let built = ScenarioBuilder::new(1)
        .site("A", db(), RID_SRC)
        .unwrap()
        .site("B", db(), RID_DST)
        .unwrap()
        .strategy(spec)
        .build();
    let Ok(mut sc) = built else {
        return false;
    };
    for (i, v) in [95_000, 96_000, 97_000].into_iter().enumerate() {
        let sql = format!("update employees set salary = {v} where empid = 'e1'");
        sc.inject(
            SimTime::from_secs(10 + 10 * i as u64),
            "A",
            SpontaneousOp::Sql(sql),
        );
    }
    sc.sim.set_step_budget(5_000);
    sc.run_until(SimTime::from_secs(60));
    let validity = post_mortem(&sc).validity;
    let skipped = sc.counter("A", "shell.steps_skipped") + sc.counter("B", "shell.steps_skipped");
    let all = &validity.violations;
    assert_eq!(
        validity.of_property(6).len(),
        all.len(),
        "{spec:?}: {all:?}"
    );
    assert!(
        skipped > 0 || all.is_empty(),
        "{spec:?} skipped no step: {all:?}"
    );
    true
}

/// Strategy mutants that compile are deployed and run end to end: the
/// simulation and the checker must not panic on them either, and the
/// checker's verdict must pass `deploy_and_run`'s partial oracle.
#[test]
fn compiled_mutants_run_without_panicking() {
    let mut g = Gen(0x0D15_EA5E);
    let mut runs = 0;
    for s in SPECS {
        assert!(accepted("deploy", s, deploy_and_run), "{s:?} did not build");
        for round in 0..800 {
            let mut m = mutate(&mut g, s);
            if round % 3 == 0 {
                m = mutate(&mut g, &m);
            }
            if spec(&m) && accepted("deploy", &m, deploy_and_run) {
                runs += 1;
            }
        }
    }
    assert!(runs >= 300, "only {runs} mutants ran");
}

/// The same key twice in one section, or among the top-level
/// properties, is an error naming the line: the last value no longer
/// wins silently.
#[test]
fn repeated_keys_are_rejected() {
    let strategy = "[locate]\nsalary1 = A\nsalary1 = B\n";
    let e = CompiledStrategy::from_spec(strategy, &sites(), &mut RuleRegistry::new()).unwrap_err();
    assert!(
        e.msg
            .contains("line 3: key `salary1` repeated in section [locate]"),
        "{e:?}"
    );
    let private = "[private]\nCx = A\n\nCx = A\n";
    let e = CompiledStrategy::from_spec(private, &sites(), &mut RuleRegistry::new()).unwrap_err();
    assert!(
        e.msg
            .contains("line 4: key `Cx` repeated in section [private]"),
        "{e:?}"
    );
    let map = "ris = kv\n[map phone]\nkey = a/$p0\nkey = b/$p0\n";
    let e = CmRid::parse(map).unwrap_err();
    assert!(
        e.msg
            .contains("line 4: key `key` repeated in section [map phone]"),
        "{e:?}"
    );
    for props in [
        "ris = kv\nris = relational\n",
        "ris = kv\nservice = 1ms\nservice = 2ms\n",
    ] {
        let e = CmRid::parse(props).unwrap_err();
        assert!(
            e.msg.contains("repeated in the top-level properties"),
            "{e:?}"
        );
    }
}

/// A raw store of another kind than the CM-RID's `ris =` is a build
/// error naming the site, not a panic.
#[test]
fn store_of_the_wrong_kind_is_a_build_error() {
    let e = ScenarioBuilder::new(1)
        .site("A", RawStore::Relational(employees_db(&[])), RID_SRC)
        .unwrap()
        .site("B", RawStore::Kv(KvStore::new()), RID_DST)
        .unwrap()
        .build()
        .err()
        .expect("a kv store behind a relational CM-RID must not build");
    assert!(
        e.msg
            .contains("site `B`: unsupported operation: raw store does not match CM-RID kind"),
        "{e:?}"
    );
}

/// A relational `[map]` onto a table the database lacks is a build
/// error naming the site and the table: its notify interface could
/// never fire.
#[test]
fn map_onto_a_missing_table_is_a_build_error() {
    let mut db = Database::new();
    db.create_table("staff", &["empid", "salary"]).unwrap();
    let e = ScenarioBuilder::new(1)
        .site("A", RawStore::Relational(db), RID_SRC)
        .unwrap()
        .site("B", RawStore::Relational(employees_db(&[])), RID_DST)
        .unwrap()
        .build()
        .err()
        .expect("a map onto a missing table must not build");
    assert!(
        e.msg
            .contains("site `A`: not found: table `employees` of `[map salary1]`"),
        "{e:?}"
    );
}

/// A spontaneous operation shaped for another kind of store is refused
/// by the backend and counted, not a panic: the run goes on.
#[test]
fn spontaneous_op_of_the_wrong_shape_is_counted() {
    let db = || RawStore::Relational(employees_db(&[("e1", 90_000)]));
    let mut sc = ScenarioBuilder::new(1)
        .site("A", db(), RID_SRC)
        .unwrap()
        .site("B", db(), RID_DST)
        .unwrap()
        .build()
        .unwrap();
    let put = SpontaneousOp::KvPut {
        key: "e1".into(),
        value: Value::Int(1),
    };
    sc.inject(SimTime::from_secs(1), "A", put);
    sc.run_to_quiescence();
    assert_eq!(sc.counter("A", "translator.spontaneous_errors"), 1);
    assert!(sc.trace().is_empty(), "nothing happened at either site");
}
