//! Integration tests driving the full engine over the known-bad fixture
//! files in `tests/fixtures/`, asserting exact (rule, line) hits — the
//! end-to-end proof that scoping, test exemption, waivers, and the lexer
//! compose the way `dbclint.toml` relies on.

use dbcatcher_analysis::{analyze, parse_config, SourceFile};

/// Scoping used by every fixture test: hot-path rules on `hot_alloc.rs`
/// and the torture file, panic rules on the panic/waiver fixtures, and
/// the unsafe/determinism rules wherever relevant. The torture fixture
/// is deliberately placed in EVERY scope: it must stay hit-free.
const FIXTURE_CONFIG: &str = r#"
version = 1

[files]
roots = ["fixtures"]

[rules.hot-path-alloc]
severity = "deny"
include = ["fixtures/hot_alloc.rs", "fixtures/torture.rs"]

[rules.panic-free]
severity = "deny"
include = [
    "fixtures/panics.rs",
    "fixtures/bad_waiver.rs",
    "fixtures/cfg_test_commas.rs",
    "fixtures/torture.rs",
]

[rules.slice-index]
severity = "warn"
include = ["fixtures"]

[rules.determinism]
severity = "deny"
include = ["fixtures/nondet.rs", "fixtures/torture.rs"]

[rules.no-unsafe]
severity = "deny"
include = ["fixtures"]
"#;

fn fixture(name: &str, content: &'static str) -> SourceFile {
    SourceFile {
        path: format!("fixtures/{name}"),
        content: content.to_string(),
    }
}

fn run(files: Vec<SourceFile>) -> dbcatcher_analysis::Analysis {
    let cfg = parse_config(FIXTURE_CONFIG).expect("fixture config parses");
    analyze(&cfg, &files)
}

/// `(rule, line)` pairs of every violation in `file`, sorted.
fn hits(a: &dbcatcher_analysis::Analysis, file: &str) -> Vec<(String, u32)> {
    a.violations
        .iter()
        .filter(|v| v.file == file)
        .map(|v| (v.rule.clone(), v.line))
        .collect()
}

#[test]
fn hot_alloc_fixture_exact_hits() {
    let a = run(vec![fixture(
        "hot_alloc.rs",
        include_str!("fixtures/hot_alloc.rs"),
    )]);
    assert_eq!(
        hits(&a, "fixtures/hot_alloc.rs"),
        vec![
            ("hot-path-alloc".to_string(), 3), // Vec::new
            ("hot-path-alloc".to_string(), 5), // .to_vec()
        ],
        "raw-string mention and #[cfg(test)] allocations must not fire"
    );
}

#[test]
fn panics_fixture_exact_hits_and_waiver() {
    let a = run(vec![fixture(
        "panics.rs",
        include_str!("fixtures/panics.rs"),
    )]);
    assert_eq!(
        hits(&a, "fixtures/panics.rs"),
        vec![
            ("panic-free".to_string(), 5),  // unwrap()
            ("panic-free".to_string(), 14), // panic!
        ],
        "doc-comment mention must not fire; waived expect must not fire"
    );
    assert_eq!(a.waivers.len(), 1);
    assert_eq!(a.waivers[0].line, 10, "waiver targets the expect line");
    assert_eq!(a.waivers[0].rule, "panic-free");
    assert!(a.waivers[0].justification.contains("fixture waiver"));
}

#[test]
fn cfg_test_variant_and_arm_do_not_hide_later_code() {
    let a = run(vec![fixture(
        "cfg_test_commas.rs",
        include_str!("fixtures/cfg_test_commas.rs"),
    )]);
    assert_eq!(
        hits(&a, "fixtures/cfg_test_commas.rs"),
        vec![
            ("panic-free".to_string(), 10), // .expect after the test variant
            ("panic-free".to_string(), 17), // .expect after the test arm
        ],
        "a test-only variant or arm is exempt only through its `,`"
    );
}

#[test]
fn nondet_fixture_exact_hits() {
    let a = run(vec![fixture(
        "nondet.rs",
        include_str!("fixtures/nondet.rs"),
    )]);
    assert_eq!(
        hits(&a, "fixtures/nondet.rs"),
        vec![
            ("determinism".to_string(), 4), // Instant::now
            ("determinism".to_string(), 5), // thread::sleep
        ]
    );
}

#[test]
fn unsafe_fires_even_in_test_code() {
    let a = run(vec![fixture(
        "unsafe_in_test.rs",
        include_str!("fixtures/unsafe_in_test.rs"),
    )]);
    assert_eq!(
        hits(&a, "fixtures/unsafe_in_test.rs"),
        vec![("no-unsafe".to_string(), 8)],
        "no-unsafe must not honour the #[cfg(test)] exemption"
    );
}

#[test]
fn waiver_pathologies_are_deny_violations() {
    let a = run(vec![fixture(
        "bad_waiver.rs",
        include_str!("fixtures/bad_waiver.rs"),
    )]);
    assert_eq!(
        hits(&a, "fixtures/bad_waiver.rs"),
        vec![
            ("waiver-syntax".to_string(), 3),  // no justification
            ("waiver-unused".to_string(), 8),  // nothing on target line
            ("waiver-syntax".to_string(), 13), // unknown rule name
            ("panic-free".to_string(), 14),    // unknown rule cannot waive
        ]
    );
}

#[test]
fn torture_fixture_is_hit_free_under_every_rule() {
    let a = run(vec![fixture(
        "torture.rs",
        include_str!("fixtures/torture.rs"),
    )]);
    assert_eq!(
        hits(&a, "fixtures/torture.rs"),
        Vec::<(String, u32)>::new(),
        "raw strings, nested comments, char literals, escapes, and raw \
         idents must all be invisible to every rule"
    );
}

#[test]
fn whole_fixture_set_summary() {
    let a = run(vec![
        fixture("hot_alloc.rs", include_str!("fixtures/hot_alloc.rs")),
        fixture("panics.rs", include_str!("fixtures/panics.rs")),
        fixture("nondet.rs", include_str!("fixtures/nondet.rs")),
        fixture(
            "unsafe_in_test.rs",
            include_str!("fixtures/unsafe_in_test.rs"),
        ),
        fixture("bad_waiver.rs", include_str!("fixtures/bad_waiver.rs")),
        fixture(
            "cfg_test_commas.rs",
            include_str!("fixtures/cfg_test_commas.rs"),
        ),
        fixture("torture.rs", include_str!("fixtures/torture.rs")),
    ]);
    assert_eq!(a.files_scanned, 7);
    assert_eq!(
        a.deny_count(),
        13,
        "2 alloc + 2 panic + 2 nondet + 1 unsafe + 4 waiver pathology \
         + 2 after test-only variant/arm"
    );
    // The justification-less waiver suppresses its target line (so the
    // underlying hit is not double-reported) but is itself a deny-level
    // `waiver-syntax` violation — the gate still fails, and the malformed
    // waiver shows up in the inventory with an empty justification.
    assert_eq!(a.waivers.len(), 2);
    assert_eq!(
        a.waivers
            .iter()
            .filter(|w| !w.justification.is_empty())
            .count(),
        1
    );
}
