//! Fixture-driven rule tests: every rule has a positive fixture that
//! must fire and a negative fixture that must stay silent under the
//! same (synthetic) workspace-relative path. The fixtures live under
//! `tests/fixtures/` — a directory the workspace scan deliberately
//! skips, so the deliberately-violating code never fails CI itself.

use msa_lint::lint_source;

/// (line, col) of every `rule` finding in `src` linted as `rel`.
fn fire_at(rel: &str, src: &str, rule: &str) -> Vec<(u32, u32)> {
    lint_source(rel, src)
        .findings
        .into_iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.line, f.col))
        .collect()
}

fn fires(rel: &str, src: &str, rule: &str) -> usize {
    fire_at(rel, src, rule).len()
}

#[test]
fn d001_wall_clock() {
    let pos = include_str!("fixtures/d001_pos.rs");
    let neg = include_str!("fixtures/d001_neg.rs");
    let hits = fire_at("crates/gigascope/src/executor.rs", pos, "D001");
    assert!(!hits.is_empty(), "Instant in engine code must fire");
    assert_eq!(fires("crates/gigascope/src/executor.rs", neg, "D001"), 0);
    // crates/bench is exempt: measurement code may read the clock.
    assert_eq!(fires("crates/bench/src/bin/fig01.rs", pos, "D001"), 0);
}

#[test]
fn d002_default_hasher() {
    let pos = include_str!("fixtures/d002_pos.rs");
    let neg = include_str!("fixtures/d002_neg.rs");
    let hits = fire_at("crates/stream/src/state.rs", pos, "D002");
    assert!(hits.len() >= 2, "HashMap::new and HashSet::with_capacity");
    assert_eq!(fires("crates/stream/src/state.rs", neg, "D002"), 0);
    // Scope: only gigascope/stream state paths are covered.
    assert_eq!(fires("crates/collision/src/model.rs", pos, "D002"), 0);
}

#[test]
fn d003_lossy_casts() {
    let pos = include_str!("fixtures/d003_pos.rs");
    let neg = include_str!("fixtures/d003_neg.rs");
    assert_eq!(fires("crates/gigascope/src/snapshot.rs", pos, "D003"), 1);
    // Widening `as u64` is allowed; try_from is the fix, not a finding.
    assert_eq!(fires("crates/gigascope/src/snapshot.rs", neg, "D003"), 0);
    // Scope: only the codec file is covered.
    assert_eq!(fires("crates/gigascope/src/executor.rs", pos, "D003"), 0);
}

#[test]
fn d004_float_eq() {
    let pos = include_str!("fixtures/d004_pos.rs");
    let neg = include_str!("fixtures/d004_neg.rs");
    assert_eq!(fires("crates/collision/src/model.rs", pos, "D004"), 1);
    assert_eq!(fires("crates/collision/src/model.rs", neg, "D004"), 0);
}

#[test]
fn d005_thread_spawn() {
    let pos = include_str!("fixtures/d005_pos.rs");
    let neg = include_str!("fixtures/d005_neg.rs");
    let hits = fire_at("crates/gigascope/src/executor.rs", pos, "D005");
    assert_eq!(hits.len(), 2, "thread::spawn + scope spawn: {hits:?}");
    assert_eq!(fires("crates/gigascope/src/executor.rs", neg, "D005"), 0);
    // The sharded runtime and the store's writer are the two sanctioned
    // homes for threads; every other runtime module still fires.
    assert_eq!(fires("crates/gigascope/src/shard.rs", pos, "D005"), 0);
    assert_eq!(fires("crates/gigascope/src/writer.rs", pos, "D005"), 0);
    for module in ["snapshot.rs", "supervise.rs", "store.rs", "swap.rs"] {
        let path = format!("crates/gigascope/src/{module}");
        assert_eq!(fires(&path, pos, "D005"), 2, "{path}");
    }
    // crates/bench may thread freely (wall-clock harnesses).
    assert_eq!(
        fires("crates/bench/src/bin/shard_scaling.rs", pos, "D005"),
        0
    );
    // Test paths are exempt wholesale.
    assert_eq!(fires("tests/differential.rs", pos, "D005"), 0);
}

#[test]
fn d006_wall_clock_calls() {
    let pos = include_str!("fixtures/d006_pos.rs");
    let neg = include_str!("fixtures/d006_neg.rs");
    let hits = fire_at("crates/core/src/runtime.rs", pos, "D006");
    assert_eq!(
        hits.len(),
        5,
        "now ×2 + duration_since + sleep + elapsed: {hits:?}"
    );
    // D001 sees only the two aliasing imports — every *call site*
    // dodges its identifier check. Exactly why D006 exists.
    assert_eq!(fires("crates/core/src/runtime.rs", pos, "D001"), 2);
    // Fields named `now`/`elapsed` and record-counted triggers are fine.
    assert_eq!(fires("crates/core/src/runtime.rs", neg, "D006"), 0);
    // crates/bench is exempt: swap-pause benches time for real.
    assert_eq!(fires("crates/bench/src/bin/replan_swap.rs", pos, "D006"), 0);
    // Test paths are exempt wholesale.
    assert_eq!(fires("tests/adaptive.rs", pos, "D006"), 0);
}

#[test]
fn r001_unwrap_expect() {
    let pos = include_str!("fixtures/r001_pos.rs");
    let neg = include_str!("fixtures/r001_neg.rs");
    let hits = fire_at("crates/core/src/engine.rs", pos, "R001");
    assert_eq!(hits.len(), 2, "one unwrap + one expect: {hits:?}");
    // Tests may unwrap: the #[cfg(test)] module is exempt.
    assert_eq!(fires("crates/core/src/engine.rs", neg, "R001"), 0);
    // Integration-test paths are exempt wholesale.
    assert_eq!(fires("tests/chaos.rs", pos, "R001"), 0);
}

#[test]
fn r002_must_use() {
    let pos = include_str!("fixtures/r002_pos.rs");
    let neg = include_str!("fixtures/r002_neg.rs");
    assert_eq!(fires("crates/gigascope/src/snapshot.rs", pos, "R002"), 1);
    assert_eq!(fires("crates/gigascope/src/channel.rs", pos, "R002"), 1);
    // A reasoned #[must_use = "…"] satisfies the rule; private helpers
    // returning Result are not covered.
    assert_eq!(fires("crates/gigascope/src/snapshot.rs", neg, "R002"), 0);
    // Scope: only the durable-artifact codecs are covered.
    assert_eq!(fires("crates/gigascope/src/executor.rs", pos, "R002"), 0);
}

#[test]
fn r003_deny_unsafe() {
    let pos = include_str!("fixtures/r003_pos.rs");
    let neg = include_str!("fixtures/r003_neg.rs");
    assert_eq!(fires("crates/fake/src/lib.rs", pos, "R003"), 1);
    assert_eq!(fires("crates/fake/src/lib.rs", neg, "R003"), 0);
    // Only crate roots carry the attribute.
    assert_eq!(fires("crates/fake/src/util.rs", pos, "R003"), 0);
}

#[test]
fn r004_todo_unimplemented() {
    let pos = include_str!("fixtures/r004_pos.rs");
    let neg = include_str!("fixtures/r004_neg.rs");
    let hits = fire_at("crates/core/src/engine.rs", pos, "R004");
    assert_eq!(hits.len(), 2, "todo! + unimplemented!: {hits:?}");
    assert_eq!(fires("crates/core/src/engine.rs", neg, "R004"), 0);
}

#[test]
fn r005_panic_boundary() {
    let pos = include_str!("fixtures/r005_pos.rs");
    let neg = include_str!("fixtures/r005_neg.rs");
    let hits = fire_at("crates/gigascope/src/shard.rs", pos, "R005");
    assert_eq!(hits.len(), 2, "catch_unwind + resume_unwind: {hits:?}");
    assert_eq!(fires("crates/gigascope/src/shard.rs", neg, "R005"), 0);
    // The supervisor is the one sanctioned home for panic boundaries;
    // the store's writer may re-raise a commit's panic, never catch one.
    assert_eq!(fires("crates/gigascope/src/supervise.rs", pos, "R005"), 0);
    let writer = fire_at("crates/gigascope/src/writer.rs", pos, "R005");
    assert_eq!(writer, hits[..1], "catch_unwind only: {writer:?}");
    for module in ["executor.rs", "store.rs", "swap.rs"] {
        let path = format!("crates/gigascope/src/{module}");
        assert_eq!(fires(&path, pos, "R005"), 2, "{path}");
    }
    // Test paths are exempt wholesale.
    assert_eq!(fires("tests/supervision.rs", pos, "R005"), 0);
}

#[test]
fn r009_bare_file_writes() {
    let pos = include_str!("fixtures/r009_pos.rs");
    let neg = include_str!("fixtures/r009_neg.rs");
    let hits = fire_at("crates/gigascope/src/snapshot.rs", pos, "R009");
    assert_eq!(hits.len(), 3, "File::create + write_all + rename: {hits:?}");
    assert_eq!(fires("crates/gigascope/src/snapshot.rs", neg, "R009"), 0);
    // store.rs files are the sanctioned home for raw file mutation.
    assert_eq!(fires("crates/stream/src/store.rs", pos, "R009"), 0);
    assert_eq!(fires("crates/gigascope/src/store.rs", pos, "R009"), 0);
    // Lint report output and bench results emission are exempt.
    assert_eq!(fires("crates/lint/src/main.rs", pos, "R009"), 0);
    assert_eq!(fires("crates/bench/src/bin/fig01.rs", pos, "R009"), 0);
    // Test paths are exempt wholesale.
    assert_eq!(fires("tests/recovery.rs", pos, "R009"), 0);
}

#[test]
fn r006_workspace_name_audit() {
    use msa_lint::rules::r006_workspace;
    let pos = include_str!("fixtures/r006_pos.rs");
    let neg = include_str!("fixtures/r006_neg.rs");
    let bounds = "pub struct BoundsReport { pub feed_lost: u64 }";
    let files = |src: &str| {
        vec![
            ("crates/gigascope/src/channel.rs".to_owned(), src.to_owned()),
            (msa_lint::rules::BOUNDS_PATH.to_owned(), bounds.to_owned()),
        ]
    };
    // `records_leaked` is incremented but folded nowhere and absent
    // from bounds.rs: one finding naming both missing halves.
    let hits = r006_workspace(&files(pos));
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(hits[0].message.contains("records_leaked"));
    assert!(hits[0].message.contains("merge"));
    assert!(hits[0].message.contains("bounds.rs"));
    // `feed_lost` is folded by merge() and surfaced by bounds.rs.
    assert!(r006_workspace(&files(neg)).is_empty());
    // Scope: only gigascope sources carry the loss-ledger invariant.
    let other = vec![("crates/core/src/engine.rs".to_owned(), pos.to_owned())];
    assert!(r006_workspace(&other).is_empty());
    // Test paths are exempt wholesale.
    let test_path = vec![(
        "crates/gigascope/tests/bounds.rs".to_owned(),
        pos.to_owned(),
    )];
    assert!(r006_workspace(&test_path).is_empty());
}

#[test]
fn literals_comments_and_fn_defs_do_not_fire() {
    // Two false-positive classes stay dead: rule tokens inside string
    // literals and doc comments (masked by the lexer), and fn
    // *definitions* whose names collide with flagged call sites
    // (`fn now(` is not a wall-clock read).
    let src = "/// Call now() or `Instant::now()` in prose all you like.\n\
               pub fn describe() -> &'static str { \"Instant::now() spawn( catch_unwind( .unwrap()\" }\n\
               fn now(x: u64) -> u64 { x }\n\
               fn spawn(x: u64) -> u64 { x }\n\
               fn catch_unwind(x: u64) -> u64 { x }\n";
    let linted = lint_source("crates/gigascope/src/executor.rs", src);
    assert!(linted.findings.is_empty(), "{:?}", linted.findings);
}

#[test]
fn every_rule_has_a_fixture_pair() {
    // Catalog drift guard: adding a rule without fixtures fails here.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for rule in msa_lint::rules::CATALOG {
        let stem = rule.id.to_ascii_lowercase();
        for kind in ["pos", "neg"] {
            let path = dir.join(format!("{stem}_{kind}.rs"));
            assert!(path.is_file(), "missing fixture {}", path.display());
        }
    }
}

#[test]
fn inline_pragma_suppresses_fixture_findings() {
    let src =
        "pub fn f(xs: &[u32]) -> u32 { xs.first().copied().unwrap() } // msa-lint: allow(R001)\n";
    let linted = lint_source("crates/core/src/engine.rs", src);
    assert!(linted.findings.is_empty());
    assert_eq!(linted.inline_suppressed, 1);
}
