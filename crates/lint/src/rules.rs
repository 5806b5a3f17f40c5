//! The rule catalog: determinism (D…) and robustness (R…) invariants.
//!
//! Every rule is a token-level check over one [`FileCtx`]. The checks
//! are deliberately heuristic — they flag the syntactic chokepoints of
//! each invariant (construction sites, cast sites, call sites) rather
//! than attempting type inference — and the `lint.toml` allowlist plus
//! inline `// msa-lint: allow(…)` pragmas absorb the justified
//! exceptions. The catalog is wired to the recovery-equality guarantee
//! of DESIGN.md §8: each D-rule removes one way a recovered run could
//! diverge bit-wise from an uninterrupted one.

use crate::lexer::{Token, TokenKind};
use crate::scope::{attr_group, FileCtx};

/// How severe a finding is. Both severities gate CI; the split exists
/// so the renderer can distinguish "broken invariant" from "missing
/// annotation".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// A determinism or robustness invariant is violated.
    Error,
    /// A required annotation is missing.
    Warning,
}

impl Severity {
    /// Lowercase label used by the renderer.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One diagnostic produced by a rule.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule id (`D001`…).
    pub rule: &'static str,
    /// Severity of the rule that fired.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Width (in characters) of the offending token, for underlining.
    pub width: u32,
    /// What is wrong, specifically.
    pub message: String,
    /// How to fix it.
    pub help: &'static str,
    /// Full text of the offending source line (used for allowlist
    /// matching and rendering).
    pub snippet: String,
}

/// A catalog entry: identity, documentation and the check itself.
pub struct Rule {
    /// Stable id (`D001`…), used in pragmas and the allowlist.
    pub id: &'static str,
    /// `determinism` or `robustness`.
    pub group: &'static str,
    /// Severity of this rule's findings.
    pub severity: Severity,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// Suggested fix, rendered as the diagnostic's `help:` line.
    pub help: &'static str,
    /// The check. Receives its own catalog entry so findings carry the
    /// rule's id/severity/help without a by-id lookup.
    pub check: fn(&'static Rule, &FileCtx) -> Vec<Finding>,
}

/// The shipped rule catalog, in id order.
pub const CATALOG: &[Rule] = &[
    Rule {
        id: "D001",
        group: "determinism",
        severity: Severity::Error,
        summary: "no wall-clock or ambient randomness (SystemTime/Instant/thread_rng) outside crates/bench",
        help: "derive time from record timestamps / epoch counters and randomness from a seeded SplitMix64",
        check: d001_wall_clock,
    },
    Rule {
        id: "D002",
        group: "determinism",
        severity: Severity::Error,
        summary: "no default-hasher HashMap/HashSet in gigascope/stream state paths (use FastMap/FastSet or BTreeMap)",
        help: "use msa_stream::hash::{FastMap, FastSet} (fixed-seed) or a BTreeMap/BTreeSet, or sort before draining",
        check: d002_default_hasher,
    },
    Rule {
        id: "D003",
        group: "determinism",
        severity: Severity::Error,
        summary: "no narrowing `as` casts in snapshot.rs codecs (use try_from)",
        help: "use try_from and surface SnapshotError::Malformed instead of silently truncating",
        check: d003_lossy_casts,
    },
    Rule {
        id: "D004",
        group: "determinism",
        severity: Severity::Error,
        summary: "no float `==`/`!=` against literals in collision/optimizer model code",
        help: "compare with an explicit epsilon or total_cmp; exact float equality breaks across refactors",
        check: d004_float_eq,
    },
    Rule {
        id: "D005",
        group: "determinism",
        severity: Severity::Error,
        summary: "no thread spawning outside crates/gigascope/src/shard.rs, crates/gigascope/src/writer.rs and crates/bench",
        help: "route concurrency through shard::ShardedExecutor, whose merge order is deterministic, or the store's one-commit writer, which every store access joins first; ad-hoc threads leak scheduling into results",
        check: d005_thread_spawn,
    },
    Rule {
        id: "D006",
        group: "determinism",
        severity: Severity::Error,
        summary: "no wall-clock call sites (.now()/.elapsed()/duration_since()/sleep()) in runtime crates outside crates/bench",
        help: "trigger on record counts and epoch boundaries instead; aliased clock imports dodge D001's type check, but the call site cannot hide",
        check: d006_wall_clock_calls,
    },
    Rule {
        id: "D007",
        group: "determinism",
        severity: Severity::Error,
        summary: "no nondeterminism source (hash-order iteration, wall-clock values, thread identity, pointer-derived values) flows into a snapshot/report/digest sink — tracked interprocedurally",
        help: "derive the sink's inputs from record data, epoch counters or seeded PRNGs; taint is tracked through calls and field assignments, so laundering through a helper does not hide it",
        check: workspace_only,
    },
    Rule {
        id: "R001",
        group: "robustness",
        severity: Severity::Error,
        summary: "no unwrap()/expect() in non-test code",
        help: "propagate with `?` and a typed error (MsaError in examples/bins), or grandfather the site in lint.toml",
        check: r001_unwrap,
    },
    Rule {
        id: "R002",
        group: "robustness",
        severity: Severity::Warning,
        summary: "public Result-returning fns in snapshot.rs/channel.rs carry #[must_use = \"…\"]",
        help: "add #[must_use = \"…\"] so the durability contract is visible (and enforced) at the definition",
        check: r002_must_use,
    },
    Rule {
        id: "R003",
        group: "robustness",
        severity: Severity::Error,
        summary: "every crate root declares #![deny(unsafe_code)]",
        help: "add #![deny(unsafe_code)] to the crate root",
        check: r003_deny_unsafe,
    },
    Rule {
        id: "R004",
        group: "robustness",
        severity: Severity::Error,
        summary: "no todo!/unimplemented! outside tests",
        help: "finish the implementation or gate the item out of non-test builds",
        check: r004_todo,
    },
    Rule {
        id: "R005",
        group: "robustness",
        severity: Severity::Error,
        summary: "no catch_unwind/resume_unwind outside crates/gigascope/src/supervise.rs (crates/gigascope/src/writer.rs may resume_unwind)",
        help: "route panic handling through supervise::ShardDriver; scattered panic boundaries hide shard deaths from the supervisor's restart/quarantine accounting; only the store's writer may re-raise, at a commit's join, on the thread the supervisor guards",
        check: r005_panic_boundary,
    },
    Rule {
        id: "R006",
        group: "robustness",
        severity: Severity::Error,
        summary: "every incremented `records_*`/`*_lost` counter in gigascope appears in a merge/absorb fn and in bounds.rs (workspace-level name audit)",
        help: "fold the counter in the owning struct's merge()/absorb() and attribute it to a loss class in crates/gigascope/src/bounds.rs",
        check: workspace_only,
    },
    Rule {
        id: "R007",
        group: "robustness",
        severity: Severity::Error,
        summary: "every increment site of a loss/ledger counter (including via &mut helpers) is on a def-use path reaching both a merge/absorb fold and bounds.rs",
        help: "route the incremented counter's value into the owning struct's merge()/absorb() fold and into a crates/gigascope/src/bounds.rs loss class; R007 follows the flow, not the name",
        check: workspace_only,
    },
    Rule {
        id: "R008",
        group: "robustness",
        severity: Severity::Error,
        summary: "no unwrap/expect/indexing/unproven-divisor panic site within 3 call-graph hops of the per-record hot path (offer/offer_chunk/process/run/pump), outside supervise.rs",
        help: "replace with get()/get_mut() + an explicit miss path, clamp divisors with .max(1), or move the fallible work off the per-record path; supervise.rs is the only sanctioned panic boundary",
        check: workspace_only,
    },
    Rule {
        id: "R009",
        group: "robustness",
        severity: Severity::Error,
        summary: "no bare File::create/write_all/rename call sites outside store.rs (atomic-write discipline)",
        help: "route durable writes through msa_stream::store::atomic_write or a StorageBackend: write-temp, fsync file, atomic rename, fsync dir; a bare create/write/rename leaves torn files on crash",
        check: r009_bare_file_writes,
    },
];

/// Check fn for rules whose analysis runs at workspace level (via
/// [`crate::dataflow::analyze`] or [`r006_workspace`]) rather than per
/// file: the per-file pass contributes nothing.
fn workspace_only(_rule: &'static Rule, _ctx: &FileCtx) -> Vec<Finding> {
    Vec::new()
}

/// Looks a rule up by id.
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    CATALOG.iter().find(|r| r.id == id)
}

fn finding(rule: &'static Rule, ctx: &FileCtx, tok: &Token, message: String) -> Finding {
    Finding {
        rule: rule.id,
        severity: rule.severity,
        file: ctx.rel_path.to_owned(),
        line: tok.line,
        col: tok.col,
        width: tok.text.chars().count().max(1) as u32,
        message,
        help: rule.help,
        snippet: ctx.line_text(tok.line).to_owned(),
    }
}

/// D001 — wall-clock reads and ambient randomness. `crates/bench` is
/// exempt (throughput measurement needs a real clock), as is all
/// test-path code.
fn d001_wall_clock(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    if ctx.crate_dir() == Some("bench") || ctx.is_test_path() {
        return Vec::new();
    }
    ctx.lexed
        .tokens
        .iter()
        .filter(|t| {
            t.kind == TokenKind::Ident
                && matches!(t.text.as_str(), "SystemTime" | "Instant" | "thread_rng")
                && !ctx.in_test_span(t.line)
        })
        .map(|t| {
            finding(
                rule,
                ctx,
                t,
                format!(
                    "`{}` breaks run-to-run determinism outside crates/bench",
                    t.text
                ),
            )
        })
        .collect()
}

/// D002 — default-hasher (`RandomState`) map/set construction in the
/// deterministic state paths. Iterating such a container yields a
/// process-random order, which bit-identical recovery (DESIGN.md §8)
/// cannot tolerate; construction is the chokepoint a lexer can see.
fn d002_default_hasher(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    let in_scope = ctx.rel_path.starts_with("crates/gigascope/src")
        || ctx.rel_path.starts_with("crates/stream/src");
    if !in_scope || ctx.is_test_path() {
        return Vec::new();
    }
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || !matches!(t.text.as_str(), "HashMap" | "HashSet") {
            continue;
        }
        if ctx.in_test_span(t.line) {
            continue;
        }
        let ctor = toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| {
                matches!(
                    n.text.as_str(),
                    "new" | "default" | "with_capacity" | "from"
                )
            });
        if ctor {
            out.push(finding(
                rule,
                ctx,
                t,
                format!(
                    "`{}::{}` builds a RandomState-hashed container in a deterministic state path",
                    t.text,
                    toks[i + 2].text
                ),
            ));
        }
    }
    out
}

/// D003 — narrowing `as` casts inside the snapshot/eviction-log codecs.
/// A silent truncation there encodes garbage that decodes "successfully"
/// into wrong state. Widening casts (`as u64`, `as usize`, `as f64`) are
/// fine on the 64-bit targets the codecs assume.
fn d003_lossy_casts(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    if ctx.file_name() != "snapshot.rs" || ctx.is_test_path() {
        return Vec::new();
    }
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("as") || ctx.in_test_span(t.line) {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind == TokenKind::Ident
            && matches!(
                target.text.as_str(),
                "u8" | "u16" | "u32" | "i8" | "i16" | "i32" | "f32"
            )
        {
            out.push(finding(
                rule,
                ctx,
                t,
                format!("narrowing `as {}` cast in a codec path", target.text),
            ));
        }
    }
    out
}

/// D004 — exact float comparison against a literal in the cost /
/// collision model crates. (Identifier-vs-identifier float comparisons
/// are invisible to a lexer; literals are the common and catchable case.)
fn d004_float_eq(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    let in_scope = ctx.rel_path.starts_with("crates/collision/src")
        || ctx.rel_path.starts_with("crates/optimizer/src");
    if !in_scope || ctx.is_test_path() {
        return Vec::new();
    }
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) || ctx.in_test_span(t.line) {
            continue;
        }
        let float_next = toks.get(i + 1).is_some_and(|n| n.kind == TokenKind::Float);
        let float_prev = i > 0 && toks[i - 1].kind == TokenKind::Float;
        if float_next || float_prev {
            out.push(finding(
                rule,
                ctx,
                t,
                format!("exact float `{}` comparison in model code", t.text),
            ));
        }
    }
    out
}

/// D005 — thread spawning outside the sharded runtime and the store's
/// writer. All OS-thread concurrency must flow through
/// `shard::ShardedExecutor`, whose shard-then-sequence merge keeps
/// results independent of scheduling, or through the checkpoint
/// store's writer (`writer.rs`), which keeps at most one commit in
/// flight and is joined before anything else touches the store, so the
/// backend sees one fixed order of operations; a `spawn` call anywhere
/// else can leak thread interleaving into deterministic state.
/// `crates/bench` is exempt (wall-clock harnesses may thread freely),
/// as is test code.
fn d005_thread_spawn(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    if matches!(
        ctx.rel_path,
        "crates/gigascope/src/shard.rs" | "crates/gigascope/src/writer.rs"
    ) || ctx.crate_dir() == Some("bench")
        || ctx.is_test_path()
    {
        return Vec::new();
    }
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "spawn" {
            continue;
        }
        // `thread::spawn(…)`, `scope.spawn(…)`, `Builder::…::spawn(…)` —
        // any call position counts; a bare identifier (e.g. a local
        // named `spawn`) does not, and neither does a definition
        // (`fn spawn(…)`), which has the same name+paren shape.
        let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !(i > 0 && toks[i - 1].is_ident("fn"));
        if is_call && !ctx.in_test_span(t.line) {
            out.push(finding(
                rule,
                ctx,
                t,
                "thread `spawn` outside crates/gigascope/src/shard.rs and writer.rs".to_owned(),
            ));
        }
    }
    out
}

/// D006 — wall-clock *call sites* in runtime crates. D001 flags the
/// type names (`SystemTime`, `Instant`), but `use std::time::Instant as
/// Clk;` walks straight past an identifier check — the adaptive
/// runtime's "never wall-clock" contract needs the calls themselves
/// gated. The chokepoints are the methods every clock read funnels
/// through (`now()`, `elapsed()`, `duration_since()`) plus `sleep()`
/// (a wall-clock *wait* is as nondeterministic as a read). Call
/// position only: a field or doc mention named `now` does not count.
/// `crates/bench` is exempt (throughput harnesses time for real), as is
/// test-path code.
fn d006_wall_clock_calls(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    if ctx.crate_dir() == Some("bench") || ctx.is_test_path() {
        return Vec::new();
    }
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !matches!(
                t.text.as_str(),
                "now" | "elapsed" | "duration_since" | "sleep"
            )
        {
            continue;
        }
        // Call position only — a definition (`fn now(…)`) is not a
        // clock read even though it shares the name+paren shape.
        let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !(i > 0 && toks[i - 1].is_ident("fn"));
        if is_call && !ctx.in_test_span(t.line) {
            out.push(finding(
                rule,
                ctx,
                t,
                format!(
                    "wall-clock call `{}()` in a runtime crate; derive timing from record counts",
                    t.text
                ),
            ));
        }
    }
    out
}

/// R005 — `catch_unwind` / `resume_unwind` outside the shard
/// supervisor. Panic boundaries must stay in one place: a stray
/// `catch_unwind` swallows a shard death without the restart, replay
/// and quarantine accounting that keeps supervised runs exact, and a
/// stray `resume_unwind` re-raises across threads what the supervisor
/// should have absorbed. The checkpoint store's writer (`writer.rs`)
/// may `resume_unwind`: it raises a backend panic from its commit
/// thread again where the executor joins the commit, on the thread the
/// supervisor guards, with the payload intact.
fn r005_panic_boundary(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    if ctx.rel_path == "crates/gigascope/src/supervise.rs" || ctx.is_test_path() {
        return Vec::new();
    }
    let writer = ctx.rel_path == "crates/gigascope/src/writer.rs";
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident
            || !matches!(t.text.as_str(), "catch_unwind" | "resume_unwind")
            || (writer && t.text == "resume_unwind")
        {
            continue;
        }
        // `panic::catch_unwind(…)` / `std::panic::resume_unwind(…)` —
        // call position only; a bare identifier (a doc mention, a local
        // of that name) or a definition (`fn catch_unwind(…)`) does not
        // count.
        let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !(i > 0 && toks[i - 1].is_ident("fn"));
        if is_call && !ctx.in_test_span(t.line) {
            out.push(finding(
                rule,
                ctx,
                t,
                format!(
                    "`{}` erects a panic boundary outside crates/gigascope/src/supervise.rs",
                    t.text
                ),
            ));
        }
    }
    out
}

/// R009 — bare file-mutation call sites (`File::create`, `.write_all(`,
/// `rename(`) outside `store.rs`. Every durable artifact must reach
/// disk through the atomic-write discipline (temp sibling → fsync →
/// rename → fsync-dir) that `msa_stream::store` owns; a stray
/// `File::create` elsewhere is a torn-file bug waiting for a crash.
/// `store.rs` files are the sanctioned home, `crates/lint` (report
/// output) and `crates/bench` (results emission) are exempt, as is all
/// test-path code. Read-side APIs (`File::open`) are untouched.
fn r009_bare_file_writes(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    if ctx.file_name() == "store.rs"
        || matches!(ctx.crate_dir(), Some("lint") | Some("bench"))
        || ctx.is_test_path()
    {
        return Vec::new();
    }
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let call = toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            && !(i > 0 && toks[i - 1].is_ident("fn"));
        let hit = match t.text.as_str() {
            // `File::create(…)` — the ctor path shape, so a local fn or
            // field merely named `create` stays silent.
            "create" => {
                call && i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("File")
            }
            // `.write_all(…)` — the unsynced-write method itself.
            "write_all" => call && i > 0 && toks[i - 1].is_punct("."),
            // `fs::rename(…)` / `.rename(…)` — a rename outside the
            // store bypasses the fsync-dir that makes it durable.
            "rename" => call,
            _ => false,
        };
        if hit && !ctx.in_test_span(t.line) {
            out.push(finding(
                rule,
                ctx,
                t,
                format!(
                    "bare `{}` call site outside store.rs bypasses the atomic-write discipline",
                    t.text
                ),
            ));
        }
    }
    out
}

/// R001 — `unwrap()` / `expect()` outside test code.
fn r001_unwrap(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    if ctx.is_test_path() {
        return Vec::new();
    }
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || !matches!(t.text.as_str(), "unwrap" | "expect") {
            continue;
        }
        let is_call =
            i > 0 && toks[i - 1].is_punct(".") && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if is_call && !ctx.in_test_span(t.line) {
            out.push(finding(
                rule,
                ctx,
                t,
                format!("`.{}()` can panic in non-test code", t.text),
            ));
        }
    }
    out
}

/// R002 — public `fn … -> Result<…>` in the durable-artifact modules
/// must carry `#[must_use = "…"]`. `Result` is `#[must_use]` on its own,
/// but a reasoned attribute survives wrapping in type aliases and makes
/// the *why* visible at the definition.
fn r002_must_use(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    if !matches!(ctx.file_name(), "snapshot.rs" | "channel.rs") || ctx.is_test_path() {
        return Vec::new();
    }
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("pub") || ctx.in_test_span(toks[i].line) {
            i += 1;
            continue;
        }
        // `pub`, optionally a `(crate)`-style restriction, then
        // qualifiers, then `fn`.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct("(")) {
            let mut depth = 0usize;
            while j < toks.len() {
                if toks[j].is_punct("(") {
                    depth += 1;
                } else if toks[j].is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        while toks.get(j).is_some_and(|t| {
            matches!(t.text.as_str(), "const" | "async" | "unsafe" | "extern")
                || t.kind == TokenKind::Str
        }) {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_ident("fn")) {
            i += 1;
            continue;
        }
        let Some(name) = toks.get(j + 1) else {
            break;
        };
        if returns_result(toks, j + 2) && !has_must_use_attr(toks, i) {
            out.push(finding(
                rule,
                ctx,
                name,
                format!(
                    "public `fn {}` returns Result without #[must_use = \"…\"]",
                    name.text
                ),
            ));
        }
        i = j + 2;
    }
    out
}

/// Scans a fn signature from just past the name: skips generics and the
/// parameter list, then looks for `Result` in the return type.
fn returns_result(toks: &[Token], mut j: usize) -> bool {
    // Generics: `<` … `>` with `<<`/`>>` counting double.
    if toks.get(j).is_some_and(|t| t.is_punct("<")) {
        let mut depth = 0isize;
        while j < toks.len() {
            if toks[j].kind == TokenKind::Punct {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
            }
            j += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    // Parameter list.
    if !toks.get(j).is_some_and(|t| t.is_punct("(")) {
        return false;
    }
    let mut depth = 0usize;
    while j < toks.len() {
        if toks[j].is_punct("(") {
            depth += 1;
        } else if toks[j].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                j += 1;
                break;
            }
        }
        j += 1;
    }
    if !toks.get(j).is_some_and(|t| t.is_punct("->")) {
        return false;
    }
    // Return type runs to the body, a `;`, or a `where` clause.
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct("{") || t.is_punct(";") || t.is_ident("where") {
            return false;
        }
        if t.is_ident("Result") {
            return true;
        }
        j += 1;
    }
    false
}

/// True if the attribute groups directly above token `i` include
/// `must_use`.
fn has_must_use_attr(toks: &[Token], i: usize) -> bool {
    // Walk backwards over contiguous `#[…]` groups.
    let mut end = i; // exclusive
    loop {
        if end == 0 || !toks[end - 1].is_punct("]") {
            return false;
        }
        // Find the `[` opening this group, then the `#` before it.
        let mut depth = 0usize;
        let mut k = end - 1;
        loop {
            if toks[k].is_punct("]") {
                depth += 1;
            } else if toks[k].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            if k == 0 {
                return false;
            }
            k -= 1;
        }
        if k == 0 || !toks[k - 1].is_punct("#") {
            return false;
        }
        if let Some((attr, _)) = attr_group(toks, k - 1) {
            if attr.iter().any(|t| t.is_ident("must_use")) {
                return true;
            }
        }
        end = k - 1;
    }
}

/// R003 — crate roots must carry `#![deny(unsafe_code)]` (or `forbid`).
fn r003_deny_unsafe(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    if !ctx.is_crate_root() {
        return Vec::new();
    }
    let toks = &ctx.lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("!")) {
            if let Some((attr, next)) = attr_group(toks, i) {
                let level = attr
                    .iter()
                    .any(|t| t.is_ident("deny") || t.is_ident("forbid"));
                if level && attr.iter().any(|t| t.is_ident("unsafe_code")) {
                    return Vec::new();
                }
                i = next;
                continue;
            }
        }
        i += 1;
    }
    vec![Finding {
        rule: rule.id,
        severity: rule.severity,
        file: ctx.rel_path.to_owned(),
        line: 1,
        col: 1,
        width: 1,
        message: "crate root lacks #![deny(unsafe_code)]".to_owned(),
        help: rule.help,
        snippet: ctx.line_text(1).to_owned(),
    }]
}

/// The file where every loss counter must surface as interval width.
pub const BOUNDS_PATH: &str = "crates/gigascope/src/bounds.rs";

/// True for the ledger-counter naming pattern R006 audits.
pub fn is_counter_name(name: &str) -> bool {
    name.starts_with("records_") || (name.ends_with("_lost") && name.len() > "_lost".len())
}

/// Every identifier appearing inside a `fn merge*` / `fn absorb*` body
/// in the token stream.
fn merge_fn_idents(toks: &[Token]) -> std::collections::BTreeSet<String> {
    let mut set = std::collections::BTreeSet::new();
    let mut i = 0;
    while i < toks.len() {
        let is_merge_fn = toks[i].is_ident("fn")
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokenKind::Ident
                    && (n.text.starts_with("merge") || n.text.starts_with("absorb"))
            });
        if is_merge_fn {
            // Body: the first `{` after the signature (a `;` first means
            // a trait method without a default body).
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct("{")) {
                let close = crate::scope::match_brace(toks, j);
                for t in &toks[j..=close.min(toks.len() - 1)] {
                    if t.kind == TokenKind::Ident {
                        set.insert(t.text.clone());
                    }
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    set
}

/// R006 (workspace level) — every *incremented* ledger counter in
/// `crates/gigascope/src` must appear, by name, in some `merge*`/
/// `absorb*` body and in [`BOUNDS_PATH`]. A counter that grows but is
/// never folded silently vanishes on the sharded merge path; one absent
/// from `bounds.rs` is loss the degraded-answer API would omit. This is
/// the *name presence* audit; R007 checks the actual def-use flow, and
/// increments hidden behind helpers are R007's job too. Inline
/// `// msa-lint: allow(R006)` pragmas at the increment site are
/// honored.
pub fn r006_workspace(files: &[(String, String)]) -> Vec<Finding> {
    let Some(rule) = rule_by_id("R006") else {
        return Vec::new();
    };
    let mut merged = std::collections::BTreeSet::new();
    let mut bounds_idents = std::collections::BTreeSet::new();
    // (counter, rel_path index, token) of the first increment site seen.
    let mut sites: Vec<(String, usize, Token)> = Vec::new();
    let mut suppressed: Vec<(usize, u32)> = Vec::new();
    for (idx, (rel, source)) in files.iter().enumerate() {
        if !rel.starts_with("crates/gigascope/src") {
            continue;
        }
        let lexed = crate::lexer::lex(source);
        let ctx = FileCtx::new(rel, source, &lexed);
        if ctx.is_test_path() {
            continue;
        }
        merged.extend(merge_fn_idents(&lexed.tokens));
        if rel == BOUNDS_PATH {
            bounds_idents = ident_set(source);
        }
        for s in &lexed.suppressions {
            if s.rules.iter().any(|r| r == "R006") {
                suppressed.push((idx, s.line));
            }
        }
        let toks = &lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || !is_counter_name(&t.text) || ctx.in_test_span(t.line) {
                continue;
            }
            // `c += …`, or `c = … c.saturating_add/wrapping_add(…)`.
            let incremented = toks.get(i + 1).is_some_and(|n| n.is_punct("+="))
                || (toks.get(i + 1).is_some_and(|n| n.is_punct("="))
                    && toks[i + 2..(i + 10).min(toks.len())]
                        .iter()
                        .any(|n| n.is_ident(&t.text))
                    && toks[i + 2..(i + 14).min(toks.len())]
                        .iter()
                        .any(|n| n.is_ident("saturating_add") || n.is_ident("wrapping_add")));
            if incremented {
                sites.push((t.text.clone(), idx, t.clone()));
            }
        }
    }
    let mut reported = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for (counter, idx, tok) in sites {
        if !reported.insert(counter.clone()) {
            continue;
        }
        if suppressed
            .iter()
            .any(|&(i, l)| i == idx && (tok.line == l || tok.line == l + 1))
        {
            continue;
        }
        let mut missing = Vec::new();
        if !merged.contains(&counter) {
            missing.push("any merge/absorb fn".to_owned());
        }
        if files[idx].0 != BOUNDS_PATH && !bounds_idents.contains(&counter) {
            missing.push(BOUNDS_PATH.to_owned());
        }
        if missing.is_empty() {
            continue;
        }
        let (rel, source) = &files[idx];
        let snippet = source
            .lines()
            .nth(tok.line as usize - 1)
            .unwrap_or("")
            .to_owned();
        out.push(Finding {
            rule: rule.id,
            severity: rule.severity,
            file: rel.clone(),
            line: tok.line,
            col: tok.col,
            width: tok.text.chars().count().max(1) as u32,
            message: format!(
                "loss counter `{counter}` is incremented but absent from {}",
                missing.join(" and ")
            ),
            help: rule.help,
            snippet,
        });
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.col).cmp(&(b.file.as_str(), b.line, b.col)));
    out
}

/// The identifier set of one source file (used for the cross-file half
/// of R006 over [`BOUNDS_PATH`]).
pub fn ident_set(source: &str) -> std::collections::BTreeSet<String> {
    crate::lexer::lex(source)
        .tokens
        .into_iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text)
        .collect()
}

/// R004 — `todo!` / `unimplemented!` outside tests.
fn r004_todo(rule: &'static Rule, ctx: &FileCtx) -> Vec<Finding> {
    if ctx.is_test_path() {
        return Vec::new();
    }
    let toks = &ctx.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && !ctx.in_test_span(t.line)
        {
            out.push(finding(
                rule,
                ctx,
                t,
                format!("`{}!` left in non-test code", t.text),
            ));
        }
    }
    out
}
