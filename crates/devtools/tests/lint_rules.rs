//! Fixture-based good/bad pairs for every `netan-lint` rule, plus
//! scoping and suppression-directive hygiene coverage. Each `*_bad.rs` fixture must fail without its rule and each
//! `*_good.rs` fixture must lint completely clean, so a regression in
//! either direction (missed finding or false positive) breaks a test.

use devtools::{lint_source, rules, Diagnostic};

/// Lints `src` under a pretend workspace-relative path.
fn lint(path: &str, src: &str) -> Vec<Diagnostic> {
    lint_source(path, src)
}

/// The rule names of all findings, in diagnostic order.
fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

fn assert_clean(path: &str, src: &str) {
    let diags = lint(path, src);
    assert!(
        diags.is_empty(),
        "expected no findings at {path}, got:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------------------------------------------------------- lossy-cast

#[test]
fn lossy_cast_bad_fixture_is_flagged() {
    let diags = lint(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/lossy_cast_bad.rs"),
    );
    assert_eq!(rules_of(&diags), [rules::LOSSY_CAST, rules::LOSSY_CAST]);
}

#[test]
fn lossy_cast_good_fixture_is_clean() {
    assert_clean(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/lossy_cast_good.rs"),
    );
}

#[test]
fn lossy_cast_is_scoped_to_library_code_of_library_crates() {
    let bad = include_str!("fixtures/lossy_cast_bad.rs");
    // Bench harnesses may cast freely…
    assert_clean("crates/bench/src/fixture.rs", bad);
    // …and so may test targets of library crates.
    assert_clean("crates/core/tests/fixture.rs", bad);
}

// -------------------------------------------- nondeterministic-collection

#[test]
fn nondet_collection_bad_fixture_is_flagged() {
    let diags = lint(
        "crates/sdeval/src/fixture.rs",
        include_str!("fixtures/nondet_collection_bad.rs"),
    );
    assert!(
        diags.iter().all(|d| d.rule == rules::NONDET_COLLECTION),
        "{diags:?}"
    );
    assert!(!diags.is_empty());
}

#[test]
fn nondet_collection_good_fixture_is_clean() {
    assert_clean(
        "crates/sdeval/src/fixture.rs",
        include_str!("fixtures/nondet_collection_good.rs"),
    );
}

#[test]
fn nondet_collection_applies_even_in_tests_of_deterministic_crates() {
    // The bit-identity tests themselves must not compare against
    // hash-order state, so Test targets are in scope too.
    let diags = lint(
        "crates/core/tests/fixture.rs",
        include_str!("fixtures/nondet_collection_bad.rs"),
    );
    assert!(!diags.is_empty());
}

#[test]
fn nondet_collection_is_scoped_to_deterministic_crates() {
    assert_clean(
        "crates/ate/src/fixture.rs",
        include_str!("fixtures/nondet_collection_bad.rs"),
    );
}

// ------------------------------------------------- wallclock-and-entropy

#[test]
fn wallclock_bad_fixture_is_flagged() {
    let diags = lint(
        "crates/mixsig/src/fixture.rs",
        include_str!("fixtures/wallclock_bad.rs"),
    );
    assert!(
        diags.iter().all(|d| d.rule == rules::WALLCLOCK_AND_ENTROPY),
        "{diags:?}"
    );
    // `Instant` (use + call site) and `rand::` must all be caught.
    assert!(diags.len() >= 3, "{diags:?}");
}

#[test]
fn wallclock_good_fixture_is_clean() {
    assert_clean(
        "crates/mixsig/src/fixture.rs",
        include_str!("fixtures/wallclock_good.rs"),
    );
}

#[test]
fn wallclock_fires_in_the_bench_crate_and_spares_only_devtools() {
    // The figure harnesses in `bench` regenerate paper artifacts from
    // simulated clocks; timing lives in `perfbench`, outside the
    // workspace, so `bench` gets no exemption.
    let bad = include_str!("fixtures/wallclock_bad.rs");
    let diags = lint("crates/bench/src/fixture.rs", bad);
    assert!(
        diags.iter().all(|d| d.rule == rules::WALLCLOCK_AND_ENTROPY),
        "{diags:?}"
    );
    assert!(diags.len() >= 3, "{diags:?}");
    assert_clean("crates/devtools/src/fixture.rs", bad);
}

#[test]
fn local_identifier_named_rand_is_not_entropy() {
    assert_clean(
        "crates/core/src/fixture.rs",
        "pub fn f(rand: u64) -> u64 {\n    rand + 1\n}\n",
    );
}

// --------------------------------------------------- unsafe-needs-safety

#[test]
fn unsafe_bad_fixture_is_flagged() {
    let diags = lint(
        "crates/mixsig/src/fixture.rs",
        include_str!("fixtures/unsafe_bad.rs"),
    );
    // One undocumented block, one undocumented `unsafe fn`.
    assert_eq!(
        rules_of(&diags),
        [rules::UNSAFE_NEEDS_SAFETY, rules::UNSAFE_NEEDS_SAFETY]
    );
}

#[test]
fn unsafe_good_fixture_is_clean() {
    assert_clean(
        "crates/mixsig/src/fixture.rs",
        include_str!("fixtures/unsafe_good.rs"),
    );
}

#[test]
fn unsafe_rule_applies_even_in_test_code() {
    let diags = lint(
        "crates/mixsig/tests/fixture.rs",
        include_str!("fixtures/unsafe_bad.rs"),
    );
    assert!(!diags.is_empty());
}

// --------------------------------------------------------- panic-in-lib

#[test]
fn panic_bad_fixture_is_flagged() {
    let diags = lint(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/panic_bad.rs"),
    );
    // `.unwrap()`, `.expect()`, `panic!`.
    assert_eq!(
        rules_of(&diags),
        [
            rules::PANIC_IN_LIB,
            rules::PANIC_IN_LIB,
            rules::PANIC_IN_LIB
        ]
    );
}

#[test]
fn panic_good_fixture_is_clean() {
    assert_clean(
        "crates/core/src/fixture.rs",
        include_str!("fixtures/panic_good.rs"),
    );
}

#[test]
fn panic_rule_is_scoped_to_core_library_code() {
    let bad = include_str!("fixtures/panic_bad.rs");
    assert_clean("crates/dsp/src/fixture.rs", bad);
    assert_clean("crates/core/tests/fixture.rs", bad);
}

#[test]
fn a_single_panic_site_in_core_library_code_is_reported() {
    // The ban is flat: no per-file allowance excuses even one site.
    let diags = lint(
        "crates/core/src/adaptive.rs",
        include_str!("fixtures/panic_single.rs"),
    );
    assert_eq!(rules_of(&diags), [rules::PANIC_IN_LIB]);
    assert_eq!(diags[0].line, 4);
}

// ------------------------------------------------- suppression directives

#[test]
fn justified_trailing_allow_suppresses_the_finding() {
    assert_clean(
        "crates/core/src/fixture.rs",
        "pub fn f(x: u64) -> u32 {\n    x as u32 // netan-lint: allow(lossy-cast): callers pass counter values bounded below 2^32\n}\n",
    );
}

#[test]
fn justified_own_line_allow_suppresses_the_next_code_line() {
    assert_clean(
        "crates/core/src/fixture.rs",
        "pub fn f(x: u64) -> u32 {\n    // netan-lint: allow(lossy-cast): callers pass counter values bounded below 2^32\n    x as u32\n}\n",
    );
}

#[test]
fn unjustified_allow_is_flagged_and_suppresses_nothing() {
    let diags = lint(
        "crates/core/src/fixture.rs",
        "pub fn f(x: u64) -> u32 {\n    // netan-lint: allow(lossy-cast)\n    x as u32\n}\n",
    );
    assert_eq!(
        rules_of(&diags),
        [rules::MISSING_JUSTIFICATION, rules::LOSSY_CAST]
    );
}

#[test]
fn unknown_rule_in_allow_is_flagged() {
    let diags = lint(
        "crates/core/src/fixture.rs",
        "// netan-lint: allow(no-such-rule): this rule name does not exist\npub fn f() {}\n",
    );
    assert_eq!(rules_of(&diags), [rules::UNKNOWN_RULE]);
}

#[test]
fn stale_allow_with_no_matching_finding_is_flagged() {
    let diags = lint(
        "crates/core/src/fixture.rs",
        "// netan-lint: allow(lossy-cast): there is no cast below any more\npub fn f() {}\n",
    );
    assert_eq!(rules_of(&diags), [rules::UNUSED_SUPPRESSION]);
}

#[test]
fn allow_for_one_rule_does_not_suppress_another() {
    let diags = lint(
        "crates/core/src/fixture.rs",
        "pub fn f(x: u64) -> u32 {\n    // netan-lint: allow(panic-in-lib): wrong rule for the finding below\n    x as u32\n}\n",
    );
    assert_eq!(
        rules_of(&diags),
        [rules::UNUSED_SUPPRESSION, rules::LOSSY_CAST]
    );
}
