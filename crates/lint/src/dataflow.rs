//! Interprocedural def-use dataflow: the engine behind D007/R007/R008.
//!
//! Three workspace-level analyses run over the symbol table
//! ([`crate::symbols`]) and call graph ([`crate::callgraph`]):
//!
//! * **D007 determinism-taint** — nondeterminism *sources* (iteration
//!   over randomly-hashed maps, wall-clock reads, thread identity,
//!   pointer-derived values) must never flow into determinism *sinks*
//!   (digest/fingerprint/checksum fields and encoders, and any field of
//!   a `*Report`/`*Snapshot` struct). Taint is tracked through
//!   locals, struct-field assignments and function calls via per-fn
//!   summaries iterated to a fixpoint, so a source laundered through an
//!   intermediate helper in another crate is still caught.
//! * **R007 counter-conservation** — every increment site of a
//!   `records_*`/`*_lost` ledger counter (including increments hidden
//!   behind a `bump(&mut self.c)` helper, found via callee summaries)
//!   must sit on a def-use path that reaches both a `merge*`/`absorb*`
//!   fold and `bounds.rs` surfacing. This deepens R006 from name
//!   presence to actual flow.
//! * **R008 hot-path panic-reachability** — no `.unwrap()`/`.expect()`,
//!   unchecked indexing, or unproven-nonzero `/`/`%` inside any fn
//!   reachable in ≤ [`HOT_PATH_HOPS`] call-graph hops from the
//!   per-record entry points (`offer`/`offer_chunk`/`process`/`run`/
//!   `pump` in `crates/gigascope/src`), outside `supervise.rs`'s
//!   catch_unwind boundary. Explicit `panic!`/`assert!` macros are
//!   *not* flagged: those are deliberate, visible crash decisions.
//!
//! The abstract value lattice is deliberately small: a boolean "carries
//! a nondeterminism source", a bitmask of parameters whose taint the
//! value carries, and the set of ledger-counter names it was derived
//! from. Joins are unions, so iteration is monotone and the global
//! fixpoint terminates.

use crate::callgraph::{self, chain_to, is_call_position, reach_within, CallGraph};
use crate::lexer::{Token, TokenKind};
use crate::rules::{is_counter_name, rule_by_id, Finding, Rule, BOUNDS_PATH};
use crate::scope::{attr_group, match_brace};
use crate::symbols::{self, is_keyword, SymbolTable, WsFile};
use std::collections::{BTreeMap, BTreeSet};

/// R008's reachability horizon: a panic site this many call-graph hops
/// from a per-record entry point is "on the hot path".
pub const HOT_PATH_HOPS: u32 = 3;

/// Fixpoint round cap. Summaries grow monotonically, so the loop exits
/// early the first round nothing changes; the cap is a safety net.
const MAX_ROUNDS: usize = 10;

/// An abstract value: what a expression's result may carry.
#[derive(Clone, Debug, Default, PartialEq)]
struct V {
    /// Carries a nondeterminism source (D007 taint).
    src: bool,
    /// Bitmask of the enclosing fn's parameters whose value it carries.
    params: u64,
    /// Ledger-counter fields the value was derived from (R007 flow).
    counters: BTreeSet<String>,
}

impl V {
    fn join(&mut self, o: &V) {
        self.src |= o.src;
        self.params |= o.params;
        self.counters.extend(o.counters.iter().cloned());
    }
}

/// A per-fn transfer summary, grown monotonically across rounds.
#[derive(Clone, Debug, Default, PartialEq)]
struct Summary {
    /// The return value carries a nondeterminism source.
    returns_src: bool,
    /// Params whose taint flows to the return value.
    param_ret: u64,
    /// Params whose taint flows into a determinism sink inside the fn
    /// (directly or transitively through further calls).
    param_sink: u64,
    /// Params that are `&mut` counter references the fn increments
    /// (the `fn bump(c: &mut u64) { *c += 1 }` pattern).
    inc_params: u64,
    /// Counter names the return value is derived from.
    ret_counters: BTreeSet<String>,
}

impl Summary {
    fn join(&self, o: &Summary) -> Summary {
        let mut ret_counters = self.ret_counters.clone();
        ret_counters.extend(o.ret_counters.iter().cloned());
        Summary {
            returns_src: self.returns_src || o.returns_src,
            param_ret: self.param_ret | o.param_ret,
            param_sink: self.param_sink | o.param_sink,
            inc_params: self.inc_params | o.inc_params,
            ret_counters,
        }
    }
}

/// One recorded counter-increment site.
struct Inc {
    col: u32,
    width: u32,
    in_merge: bool,
    allowlisted: bool,
}

/// The dataflow engine's global state.
struct Flow<'a> {
    st: &'a SymbolTable,
    sums: Vec<Summary>,
    /// Fields assigned a source-carrying value in non-allowlisted code:
    /// reading them re-introduces the taint.
    field_src: BTreeSet<String>,
    /// Counter flow edges: counter name → idents its value flows into.
    counter_edges: BTreeMap<String, BTreeSet<String>>,
    /// Increment sites keyed by (counter, file index, line).
    increments: BTreeMap<(String, usize, u32), Inc>,
    /// Field names that are determinism sinks.
    sink_fields: BTreeSet<String>,
    /// Idents (fields, annotated locals) of std-hash map/set type.
    hash_names: BTreeSet<String>,
    findings: Vec<Finding>,
    /// False during fixpoint rounds (collect summaries only); true on
    /// the final pass that emits findings.
    report: bool,
    changed: bool,
    // --- current-fn context ---
    cur: usize,
    allow: bool,
    merge: bool,
    locals: BTreeMap<String, V>,
    hash_locals: BTreeSet<String>,
    cur_sum: Summary,
}

/// Methods on `iter`-shaped receivers that observe hash order.
const HASH_ITER: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// True if a callee name is a determinism sink by construction: it
/// folds its arguments into a digest / fingerprint / encoded artifact.
fn is_sink_call(name: &str) -> bool {
    name.contains("digest")
        || name.contains("fingerprint")
        || name.contains("checksum")
        || name.starts_with("encode")
}

/// True if a field name is a determinism sink even without a declared
/// owner struct.
fn is_sink_field_name(name: &str) -> bool {
    name.contains("digest") || name.contains("fingerprint") || name.contains("checksum")
}

/// Index of the `)` matching the `(` at `open` (last token if unmatched).
fn match_paren(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Splits the argument list of a call (`open` = the `(`) into token
/// spans, at depth-1 commas.
fn split_args(toks: &[Token], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut depth = 0usize;
    let mut start = open + 1;
    for (k, t) in toks.iter().enumerate().skip(open).take(close + 1 - open) {
        match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" | "}" if t.kind == TokenKind::Punct => {
                depth = depth.saturating_sub(1);
                if depth == 0 && k == close {
                    if k > start {
                        spans.push((start, k));
                    }
                    break;
                }
            }
            "," if t.kind == TokenKind::Punct && depth == 1 => {
                if k > start {
                    spans.push((start, k));
                }
                start = k + 1;
            }
            _ => {}
        }
    }
    spans
}

/// True if `text` is an integer literal that is provably nonzero.
fn nonzero_int(text: &str) -> bool {
    let t = text
        .trim_start_matches("0x")
        .trim_start_matches("0X")
        .trim_start_matches("0b")
        .trim_start_matches("0o");
    t.chars().any(|c| c.is_ascii_hexdigit() && c != '0')
}

fn mk_finding(
    rule: &'static Rule,
    file: &WsFile,
    line: u32,
    col: u32,
    width: u32,
    message: String,
) -> Finding {
    Finding {
        rule: rule.id,
        severity: rule.severity,
        file: file.rel.clone(),
        line,
        col,
        width: width.max(1),
        message,
        help: rule.help,
        snippet: file.line_text(line).to_owned(),
    }
}

impl<'a> Flow<'a> {
    fn new(st: &'a SymbolTable) -> Flow<'a> {
        // Sink fields: digest-like names, plus every field of a struct
        // whose name marks a durable/reported artifact.
        let mut sink_fields = BTreeSet::new();
        for (sname, fields) in &st.struct_fields {
            let sinky_owner = sname.contains("Report") || sname.contains("Snapshot");
            for f in fields {
                if sinky_owner || is_sink_field_name(f) {
                    sink_fields.insert(f.clone());
                }
            }
        }
        // Idents of std-hash type: `name: HashMap<…>` / `HashSet<…>`
        // anywhere (struct fields, let annotations, fn params).
        let mut hash_names = BTreeSet::new();
        for file in &st.files {
            let toks = &file.lexed.tokens;
            for i in 0..toks.len() {
                let t = &toks[i];
                if t.kind != TokenKind::Ident || is_keyword(&t.text) {
                    continue;
                }
                if !toks.get(i + 1).is_some_and(|n| n.is_punct(":")) {
                    continue;
                }
                let typed_hash = toks
                    .iter()
                    .skip(i + 2)
                    .take(4)
                    .any(|n| n.is_ident("HashMap") || n.is_ident("HashSet"));
                if typed_hash {
                    hash_names.insert(t.text.clone());
                }
            }
        }
        Flow {
            st,
            sums: vec![Summary::default(); st.fns.len()],
            field_src: BTreeSet::new(),
            counter_edges: BTreeMap::new(),
            increments: BTreeMap::new(),
            sink_fields,
            hash_names,
            findings: Vec::new(),
            report: false,
            changed: false,
            cur: 0,
            allow: false,
            merge: false,
            locals: BTreeMap::new(),
            hash_locals: BTreeSet::new(),
            cur_sum: Summary::default(),
        }
    }

    /// Nearest-definition resolution, shared with the call graph:
    /// same file, else same crate, else anywhere in the workspace.
    fn resolve(&self, fi: usize, name: &str) -> Vec<usize> {
        crate::callgraph::resolve_targets(self.st, fi, name)
    }

    /// Analyzes one fn body, updating its summary and (on the report
    /// pass) emitting findings.
    fn walk_fn(&mut self, f_idx: usize) {
        let st = self.st;
        let f = &st.fns[f_idx];
        let Some((open, close)) = f.body else {
            return;
        };
        self.cur = f_idx;
        self.allow = f.allowlisted;
        self.merge = f.is_merge;
        self.locals.clear();
        self.hash_locals.clear();
        self.cur_sum = Summary::default();
        for (i, p) in f.params.iter().enumerate().take(64) {
            self.locals.insert(
                p.clone(),
                V {
                    params: 1 << i,
                    ..V::default()
                },
            );
        }
        let mut ret = V::default();
        self.walk_block(f.file, open + 1, close, &mut ret);
        let new = Summary {
            returns_src: ret.src,
            param_ret: ret.params,
            ret_counters: ret.counters,
            param_sink: self.cur_sum.param_sink,
            inc_params: self.cur_sum.inc_params,
        };
        let joined = self.sums[f_idx].join(&new);
        if joined != self.sums[f_idx] {
            self.sums[f_idx] = joined;
            self.changed = true;
        }
    }

    /// Walks statements in `[start, end)`; tail expressions join `ret`.
    fn walk_block(&mut self, fi: usize, start: usize, end: usize, ret: &mut V) {
        let st = self.st;
        let toks = &st.files[fi].lexed.tokens;
        let mut i = start;
        while i < end {
            let t = &toks[i];
            if t.is_punct(";") || t.is_punct(",") || t.is_punct("=>") {
                i += 1;
                continue;
            }
            if t.is_punct("#") {
                i = match attr_group(toks, i) {
                    Some((_, next)) => next,
                    None => i + 1,
                };
                continue;
            }
            if t.is_punct("{") {
                let close = match_brace(toks, i);
                self.walk_block(fi, i + 1, close.min(end), ret);
                i = close + 1;
                continue;
            }
            if t.is_ident("let") {
                i = self.let_stmt(fi, i, end);
                continue;
            }
            if t.is_ident("for") {
                i = self.for_header(fi, i, end);
                continue;
            }
            if t.is_ident("return") {
                let stop = scan_to_semi(toks, i + 1, end);
                let v = self.eval(fi, i + 1, stop);
                ret.join(&v);
                i = stop;
                continue;
            }
            if t.is_ident("if") || t.is_ident("while") || t.is_ident("match") {
                // Evaluate the header (call sites inside conditions and
                // scrutinees still matter), then let the `{` branch
                // recurse into the body.
                let j = scan_to_block(toks, i + 1, end);
                self.eval(fi, i + 1, j);
                i = j;
                continue;
            }
            if t.is_ident("fn") {
                // Nested fn: walked separately via its own FnDef.
                let mut j = i + 1;
                while j < end {
                    if toks[j].is_punct(";") {
                        j += 1;
                        break;
                    }
                    if toks[j].is_punct("{") {
                        j = match_brace(toks, j) + 1;
                        break;
                    }
                    j += 1;
                }
                i = j.max(i + 1);
                continue;
            }
            if t.kind == TokenKind::Ident
                && matches!(
                    t.text.as_str(),
                    "use"
                        | "mod"
                        | "const"
                        | "static"
                        | "type"
                        | "struct"
                        | "enum"
                        | "impl"
                        | "trait"
                )
            {
                // Non-expression item inside a body: skip it wholesale.
                let mut j = i + 1;
                while j < end {
                    if toks[j].is_punct(";") {
                        j += 1;
                        break;
                    }
                    if toks[j].is_punct("{") {
                        j = match_brace(toks, j) + 1;
                        break;
                    }
                    j += 1;
                }
                i = j.max(i + 1);
                continue;
            }
            if t.is_ident("else") || t.is_ident("loop") || t.is_ident("unsafe") {
                i += 1;
                continue;
            }
            // Generic statement: split on a top-level assignment op.
            let (stop, term) = stmt_end(toks, i, end);
            if let Some((k, op)) = top_level_assign(toks, i, stop) {
                self.assign_stmt(fi, i, k, op, k + 1, stop);
            } else {
                let v = self.eval(fi, i, stop);
                if term.is_none() && stop >= end {
                    ret.join(&v);
                }
            }
            i = stop + usize::from(term.is_some());
        }
    }

    /// `let PATTERN (: TYPE)? (= EXPR)? ;` — binds pattern idents to
    /// the RHS value; returns the index just past the statement.
    fn let_stmt(&mut self, fi: usize, i: usize, end: usize) -> usize {
        let st = self.st;
        let toks = &st.files[fi].lexed.tokens;
        let mut pats: Vec<String> = Vec::new();
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < end {
            let t = &toks[j];
            match t.text.as_str() {
                "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
                ")" | "]" | "}" if t.kind == TokenKind::Punct => depth -= 1,
                "=" | ":" | ";" if t.kind == TokenKind::Punct && depth == 0 => break,
                _ => {
                    if t.kind == TokenKind::Ident
                        && !is_keyword(&t.text)
                        && t.text != "self"
                        && !toks
                            .get(j + 1)
                            .is_some_and(|n| n.is_punct("::") || n.is_punct("{") || n.is_punct("("))
                    {
                        pats.push(t.text.clone());
                    }
                }
            }
            j += 1;
        }
        let mut hash = false;
        if toks.get(j).is_some_and(|t| t.is_punct(":")) {
            // Type annotation: angle-aware skip to a depth-0 `=`/`;`.
            j += 1;
            let mut d = 0i32;
            while j < end {
                let t = &toks[j];
                match t.text.as_str() {
                    "(" | "[" | "{" | "<" if t.kind == TokenKind::Punct => d += 1,
                    "<<" => d += 2,
                    ")" | "]" | "}" | ">" if t.kind == TokenKind::Punct => d -= 1,
                    ">>" => d -= 2,
                    "=" | ";" if t.kind == TokenKind::Punct && d <= 0 => break,
                    _ => {
                        if t.is_ident("HashMap") || t.is_ident("HashSet") {
                            hash = true;
                        }
                    }
                }
                j += 1;
            }
        }
        let mut v = V::default();
        if toks.get(j).is_some_and(|t| t.is_punct("=")) {
            let stop = scan_to_semi(toks, j + 1, end);
            for t in &toks[j + 1..stop.min(toks.len())] {
                if t.is_ident("HashMap") || t.is_ident("HashSet") {
                    hash = true;
                }
            }
            v = self.eval(fi, j + 1, stop);
            j = stop;
        }
        for p in pats {
            if hash {
                self.hash_locals.insert(p.clone());
            }
            self.locals.insert(p, v.clone());
        }
        if toks.get(j).is_some_and(|t| t.is_punct(";")) {
            j += 1;
        }
        j.max(i + 1)
    }

    /// `for PATTERN in EXPR {` — binds the pattern to the iterated
    /// value; direct iteration over a hash-named container is a source.
    fn for_header(&mut self, fi: usize, i: usize, end: usize) -> usize {
        let st = self.st;
        let toks = &st.files[fi].lexed.tokens;
        let mut pats: Vec<String> = Vec::new();
        let mut j = i + 1;
        while j < end && !toks[j].is_ident("in") {
            let t = &toks[j];
            if t.kind == TokenKind::Ident
                && !is_keyword(&t.text)
                && t.text != "self"
                && !toks
                    .get(j + 1)
                    .is_some_and(|n| n.is_punct("::") || n.is_punct("{") || n.is_punct("("))
            {
                pats.push(t.text.clone());
            }
            j += 1;
        }
        let expr_start = j + 1;
        let stop = scan_to_block(toks, expr_start, end);
        let mut v = self.eval(fi, expr_start, stop);
        for t in &toks[expr_start..stop.min(toks.len())] {
            if t.kind == TokenKind::Ident
                && (self.hash_locals.contains(&t.text) || self.hash_names.contains(&t.text))
            {
                v.src = true;
            }
        }
        for p in pats {
            self.locals.insert(p, v.clone());
        }
        stop
    }

    /// `LHS op RHS` — routes field writes, local rebinds and deref
    /// increments.
    fn assign_stmt(
        &mut self,
        fi: usize,
        lstart: usize,
        lend: usize,
        op: &str,
        rstart: usize,
        rend: usize,
    ) {
        let rv = self.eval(fi, rstart, rend);
        let st = self.st;
        let toks = &st.files[fi].lexed.tokens;
        if lend <= lstart {
            return;
        }
        let last = lend - 1;
        let lt = &toks[last];
        // `x.f = x.f.saturating_add(n)` counts as an increment of f.
        let saturating_inc = |name: &str| {
            op == "="
                && toks[rstart..rend.min(toks.len())].iter().any(|t| {
                    t.is_ident("saturating_add")
                        || t.is_ident("wrapping_add")
                        || t.is_ident("checked_add")
                })
                && toks[rstart..rend.min(toks.len())]
                    .iter()
                    .any(|t| t.is_ident(name))
        };
        if toks[lstart].is_punct("*")
            && lend - lstart == 2
            && toks[lstart + 1].kind == TokenKind::Ident
        {
            // `*p += 1` on a `&mut` counter param: the increment is the
            // caller's, recorded via the fn summary.
            let inc = op == "+=" || saturating_inc(&toks[lstart + 1].text);
            if inc {
                if let Some(lv) = self.locals.get(&toks[lstart + 1].text) {
                    let bits = lv.params;
                    self.cur_sum.inc_params |= bits;
                }
            }
        } else if lt.kind == TokenKind::Ident {
            if last > lstart && toks[last - 1].is_punct(".") {
                let inc = op == "+=" || saturating_inc(&lt.text);
                let name = lt.text.clone();
                self.handle_field_write(fi, &name, &rv, inc, last);
            } else if lend - lstart == 1 {
                let name = lt.text.clone();
                if toks[rstart..rend.min(toks.len())]
                    .iter()
                    .any(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
                {
                    self.hash_locals.insert(name.clone());
                }
                if op == "=" {
                    self.locals.insert(name, rv);
                } else {
                    self.locals.entry(name).or_default().join(&rv);
                }
            }
        }
    }

    /// Records the consequences of writing value `v` into field `fname`
    /// at token `tok_idx`: sink findings, global field taint, counter
    /// flow edges and increment sites.
    fn handle_field_write(&mut self, fi: usize, fname: &str, v: &V, inc: bool, tok_idx: usize) {
        let st = self.st;
        let file = &st.files[fi];
        let t = &file.lexed.tokens[tok_idx];
        if inc && is_counter_name(fname) {
            let key = (fname.to_owned(), fi, t.line);
            let in_merge = self.merge;
            let allow = self.allow;
            let entry = self.increments.entry(key).or_insert(Inc {
                col: t.col,
                width: t.text.chars().count().max(1) as u32,
                in_merge,
                allowlisted: allow,
            });
            // A site seen both inside and outside a merge keeps the
            // stricter classification.
            entry.in_merge &= in_merge;
            entry.allowlisted &= allow;
        }
        let sink = self.sink_fields.contains(fname) || is_sink_field_name(fname);
        if v.src && !self.allow {
            if sink && self.report {
                if let Some(rule) = rule_by_id("D007") {
                    self.findings.push(mk_finding(
                        rule,
                        file,
                        t.line,
                        t.col,
                        t.text.chars().count().max(1) as u32,
                        format!(
                            "nondeterministic value flows into determinism sink field `{fname}`"
                        ),
                    ));
                }
            }
            if self.field_src.insert(fname.to_owned()) {
                self.changed = true;
            }
        }
        if v.params != 0 && sink {
            self.cur_sum.param_sink |= v.params;
        }
        for c in &v.counters {
            if c != fname
                && self
                    .counter_edges
                    .entry(c.clone())
                    .or_default()
                    .insert(fname.to_owned())
            {
                self.changed = true;
            }
        }
    }

    /// Evaluates the expression span `[start, end)` to an abstract
    /// value. A linear scan: recognized shapes (casts, struct literals,
    /// calls, field reads, local reads) contribute; everything else is
    /// skipped.
    fn eval(&mut self, fi: usize, start: usize, end: usize) -> V {
        let st = self.st;
        let toks = &st.files[fi].lexed.tokens;
        let mut v = V::default();
        let mut i = start;
        while i < end.min(toks.len()) {
            let t = &toks[i];
            if t.is_punct("#") {
                if let Some((_, next)) = attr_group(toks, i) {
                    i = next;
                    continue;
                }
            }
            // `as *const T` / `as *mut T`: a pointer-derived value.
            if t.is_ident("as") && toks.get(i + 1).is_some_and(|n| n.is_punct("*")) {
                v.src = true;
                i += 2;
                continue;
            }
            if t.kind != TokenKind::Ident || (is_keyword(&t.text) && !t.is_ident("Self")) {
                i += 1;
                continue;
            }
            let prev_dot = i > 0 && toks[i - 1].is_punct(".");
            let prev_path = i > 0 && toks[i - 1].is_punct("::");
            let prev_kw =
                i > 0 && toks[i - 1].kind == TokenKind::Ident && is_keyword(&toks[i - 1].text);
            let next_paren = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
            let next_brace = toks.get(i + 1).is_some_and(|n| n.is_punct("{"));

            // Struct literal: `Name { field: expr, .. }` for a known
            // struct (or `Self`), not in `impl`/`for`/pattern position.
            if next_brace
                && !prev_kw
                && !prev_dot
                && (t.text == "Self" || st.struct_fields.contains_key(&t.text))
            {
                let open = i + 1;
                let close = match_brace(toks, open);
                let mut k = open + 1;
                let mut depth = 1i32;
                while k < close {
                    let kt = &toks[k];
                    match kt.text.as_str() {
                        "(" | "[" | "{" if kt.kind == TokenKind::Punct => depth += 1,
                        ")" | "]" | "}" if kt.kind == TokenKind::Punct => depth -= 1,
                        _ => {}
                    }
                    if depth == 1
                        && kt.kind == TokenKind::Ident
                        && !is_keyword(&kt.text)
                        && !(k > 0 && toks[k - 1].is_punct(":"))
                    {
                        if toks.get(k + 1).is_some_and(|n| n.is_punct(":")) {
                            // `field: expr` — find the value span.
                            let mut r = k + 2;
                            let mut d = 0i32;
                            while r < close {
                                let rt = &toks[r];
                                match rt.text.as_str() {
                                    "(" | "[" | "{" if rt.kind == TokenKind::Punct => d += 1,
                                    ")" | "]" | "}" if rt.kind == TokenKind::Punct => d -= 1,
                                    "," if rt.kind == TokenKind::Punct && d == 0 => break,
                                    _ => {}
                                }
                                r += 1;
                            }
                            let fname = kt.text.clone();
                            let fv = self.eval(fi, k + 2, r);
                            self.handle_field_write(fi, &fname, &fv, false, k);
                            v.join(&fv);
                            k = r;
                            continue;
                        }
                        if toks
                            .get(k + 1)
                            .is_some_and(|n| n.is_punct(",") || n.is_punct("}"))
                            && self.locals.contains_key(&kt.text)
                        {
                            // Shorthand `field,` from a same-named local.
                            let fname = kt.text.clone();
                            let fv = self.locals[&kt.text].clone();
                            self.handle_field_write(fi, &fname, &fv, false, k);
                            v.join(&fv);
                        }
                    }
                    k += 1;
                }
                i = close + 1;
                continue;
            }

            // Call position.
            if is_call_position(toks, i) {
                let open = i + 1;
                let close = match_paren(toks, open);
                let arg_spans = split_args(toks, open, close);
                let argvs: Vec<V> = arg_spans
                    .iter()
                    .map(|&(a, b)| self.eval(fi, a, b))
                    .collect();
                let name = toks[i].text.clone();
                let mut out = V::default();
                // Wall-clock reads (D006 bans the call site itself in
                // runtime code; here the *value* is tracked so clocks
                // read in allowlisted scopes cannot leak out).
                if matches!(name.as_str(), "now" | "elapsed" | "duration_since")
                    && (prev_dot || prev_path)
                {
                    out.src = true;
                }
                // Thread identity.
                if name == "current" && prev_path && i >= 2 && toks[i - 2].is_ident("thread") {
                    out.src = true;
                }
                // Iteration over a randomly-hashed container.
                if HASH_ITER.contains(&name.as_str()) && prev_dot && i >= 2 {
                    let recv = &toks[i - 2];
                    if recv.kind == TokenKind::Ident
                        && (self.hash_locals.contains(&recv.text)
                            || self.hash_names.contains(&recv.text))
                    {
                        out.src = true;
                    }
                }
                // Name-based sinks (digest/fingerprint/checksum/encode*).
                if is_sink_call(&name) {
                    for (j, av) in argvs.iter().enumerate() {
                        if av.src {
                            self.sink_arg_finding(fi, i, &name, j);
                        }
                        self.cur_sum.param_sink |= av.params;
                    }
                }
                let targets = self.resolve(fi, &name);
                if targets.is_empty() {
                    // Unknown callee: assume the result carries every
                    // argument's taint.
                    for av in &argvs {
                        out.join(av);
                    }
                } else {
                    for &tgt in &targets {
                        let s = self.sums[tgt].clone();
                        if s.returns_src {
                            out.src = true;
                        }
                        out.counters.extend(s.ret_counters.iter().cloned());
                        for (j, av) in argvs.iter().enumerate().take(64) {
                            let bit = 1u64 << j;
                            if s.param_ret & bit != 0 {
                                out.join(av);
                            }
                            if s.param_sink & bit != 0 {
                                if av.src {
                                    self.sink_arg_finding(fi, i, &name, j);
                                }
                                self.cur_sum.param_sink |= av.params;
                            }
                            if s.inc_params & bit != 0 {
                                self.mark_inc_arg(fi, arg_spans[j]);
                            }
                        }
                    }
                }
                v.join(&out);
                i = close + 1;
                continue;
            }

            // Field read: `.name` not followed by `(`.
            if prev_dot && !next_paren {
                if is_counter_name(&t.text) {
                    v.counters.insert(t.text.clone());
                }
                if self.field_src.contains(&t.text) {
                    v.src = true;
                }
                i += 1;
                continue;
            }

            // Bare local read.
            if !prev_dot
                && !prev_path
                && !toks
                    .get(i + 1)
                    .is_some_and(|n| n.is_punct("::") || n.is_punct("!"))
            {
                if let Some(lv) = self.locals.get(&t.text) {
                    let lv = lv.clone();
                    v.join(&lv);
                }
            }
            i += 1;
        }
        v
    }

    /// A callee increments this argument (`bump(&mut self.c)`): record
    /// the increment at the call site if the argument names a counter
    /// field, or propagate through our own params.
    fn mark_inc_arg(&mut self, fi: usize, span: (usize, usize)) {
        let st = self.st;
        let toks = &st.files[fi].lexed.tokens;
        let (a, b) = span;
        if b <= a || b > toks.len() {
            return;
        }
        let last = &toks[b - 1];
        if last.kind != TokenKind::Ident {
            return;
        }
        if b >= 2 && toks[b - 2].is_punct(".") && is_counter_name(&last.text) {
            let key = (last.text.clone(), fi, last.line);
            let in_merge = self.merge;
            let allow = self.allow;
            let entry = self.increments.entry(key).or_insert(Inc {
                col: last.col,
                width: last.text.chars().count().max(1) as u32,
                in_merge,
                allowlisted: allow,
            });
            entry.in_merge &= in_merge;
            entry.allowlisted &= allow;
        } else if let Some(lv) = self.locals.get(&last.text) {
            let bits = lv.params;
            self.cur_sum.inc_params |= bits;
        }
    }

    /// Emits a D007 finding for a source-carrying argument reaching a
    /// sink call.
    fn sink_arg_finding(&mut self, fi: usize, call_tok: usize, name: &str, arg: usize) {
        if !self.report || self.allow {
            return;
        }
        let st = self.st;
        let file = &st.files[fi];
        let t = &file.lexed.tokens[call_tok];
        let Some(rule) = rule_by_id("D007") else {
            return;
        };
        self.findings.push(mk_finding(
            rule,
            file,
            t.line,
            t.col,
            t.text.chars().count().max(1) as u32,
            format!(
                "nondeterministic value flows into sink `{name}(…)` (argument {})",
                arg + 1
            ),
        ));
    }
}

/// Index of the first depth-0 `;` in `[start, end)` (or `end`). Depth
/// counts all bracket kinds, so `;` inside nested blocks is invisible.
fn scan_to_semi(toks: &[Token], start: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < end {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" | "}" if t.kind == TokenKind::Punct => depth -= 1,
            ";" if t.kind == TokenKind::Punct && depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    end
}

/// Index of the first depth-0 `{` in `[start, end)` (or `end`), where
/// depth counts only `(`/`[` — the block opener itself must stay
/// visible.
fn scan_to_block(toks: &[Token], start: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < end {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" if t.kind == TokenKind::Punct => depth -= 1,
            "{" if t.kind == TokenKind::Punct && depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    end
}

/// Finds the end of a generic statement starting at `i`: the first
/// depth-0 `;`, `,` or `=>` (braces count toward depth, so a trailing
/// `match … { … }` stays inside the statement's RHS). Returns the
/// terminator index and whether a terminator (vs `end`) stopped the
/// scan.
fn stmt_end(toks: &[Token], i: usize, end: usize) -> (usize, Option<()>) {
    let mut depth = 0i32;
    let mut j = i;
    while j < end {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" | "}" if t.kind == TokenKind::Punct => depth -= 1,
            ";" | "," | "=>" if t.kind == TokenKind::Punct && depth <= 0 => {
                return (j, Some(()));
            }
            _ => {}
        }
        j += 1;
    }
    (end, None)
}

/// The first depth-0 assignment operator in `[i, stop)`, if any.
fn top_level_assign(toks: &[Token], i: usize, stop: usize) -> Option<(usize, &str)> {
    const OPS: &[&str] = &[
        "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=",
    ];
    let mut depth = 0i32;
    let mut j = i;
    while j < stop {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" | "}" if t.kind == TokenKind::Punct => depth -= 1,
            op if t.kind == TokenKind::Punct && depth == 0 && OPS.contains(&op) => {
                return Some((j, &toks[j].text));
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// True if the `[` at `i` is indexing an expression (vs an array
/// literal/type, slice pattern or attribute) — the panicking kind.
fn is_index_site(toks: &[Token], i: usize) -> bool {
    if i == 0 {
        return false;
    }
    let prev = &toks[i - 1];
    let base = (prev.kind == TokenKind::Ident && !is_keyword(&prev.text))
        || prev.is_punct(")")
        || prev.is_punct("]");
    if !base {
        return false;
    }
    // `x[..]` takes the full range: provably in bounds.
    !(toks.get(i + 1).is_some_and(|n| n.is_punct(".."))
        && toks.get(i + 2).is_some_and(|n| n.is_punct("]")))
}

/// True if the divisor of the `/`-family op at `i` is provably safe:
/// a nonzero literal, a float (float division cannot panic), or an
/// expression clamped with `.max(<nonzero literal>)` in the near
/// window.
fn div_rhs_safe(toks: &[Token], i: usize, close: usize) -> bool {
    let mut j = i + 1;
    while j <= close
        && (toks[j].is_punct("(")
            || toks[j].is_punct("&")
            || toks[j].is_punct("*")
            || toks[j].is_punct("-"))
    {
        j += 1;
    }
    match toks.get(j).map(|t| t.kind) {
        Some(TokenKind::Float) => return true,
        Some(TokenKind::Int) => return nonzero_int(&toks[j].text),
        _ => {}
    }
    // Window scan for `.max(<nonzero>)` or a float-typed divisor.
    let w_end = (i + 40).min(close);
    let mut depth = 0i32;
    let mut k = i + 1;
    while k <= w_end && k < toks.len() {
        let t = &toks[k];
        match t.text.as_str() {
            "(" | "[" | "{" if t.kind == TokenKind::Punct => depth += 1,
            ")" | "]" | "}" if t.kind == TokenKind::Punct => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            ";" | "," if t.kind == TokenKind::Punct && depth <= 0 => break,
            "f64" | "f32" if t.kind == TokenKind::Ident => return true,
            "max"
                if t.kind == TokenKind::Ident
                    && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                    && toks
                        .get(k + 2)
                        .is_some_and(|n| n.kind == TokenKind::Int && nonzero_int(&n.text)) =>
            {
                return true;
            }
            _ => {}
        }
        k += 1;
    }
    false
}

/// R007 — every non-merge, non-test increment of a ledger counter in
/// `crates/gigascope/src` must have a def-use path (over counter flow
/// edges) reaching both a merge/absorb fold and `bounds.rs`.
fn r007(st: &SymbolTable, flow: &Flow<'_>, out: &mut Vec<Finding>) {
    let Some(rule) = rule_by_id("R007") else {
        return;
    };
    let mut merge_idents: BTreeSet<&str> = BTreeSet::new();
    for f in &st.fns {
        if !f.is_merge {
            continue;
        }
        let Some((o, c)) = f.body else { continue };
        for t in &st.files[f.file].lexed.tokens[o..=c.min(st.files[f.file].lexed.tokens.len() - 1)]
        {
            if t.kind == TokenKind::Ident {
                merge_idents.insert(&t.text);
            }
        }
    }
    let mut bounds_idents: BTreeSet<&str> = BTreeSet::new();
    for file in &st.files {
        if file.rel.ends_with("/bounds.rs") {
            for t in &file.lexed.tokens {
                if t.kind == TokenKind::Ident {
                    bounds_idents.insert(&t.text);
                }
            }
        }
    }
    for ((counter, fi, line), inc) in &flow.increments {
        if inc.in_merge || inc.allowlisted {
            continue;
        }
        let file = &st.files[*fi];
        if !file.rel.starts_with("crates/gigascope/src/") || file.rel.ends_with("/bounds.rs") {
            continue;
        }
        // Transitive closure of the counter over flow edges.
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<&str> = vec![counter.as_str()];
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            if let Some(next) = flow.counter_edges.get(c) {
                for n in next {
                    stack.push(n.as_str());
                }
            }
        }
        let in_merge = seen.iter().any(|c| merge_idents.contains(c));
        let in_bounds = seen.iter().any(|c| bounds_idents.contains(c));
        if in_merge && in_bounds {
            continue;
        }
        let mut missing: Vec<String> = Vec::new();
        if !in_merge {
            missing.push("a merge/absorb fold".to_owned());
        }
        if !in_bounds {
            missing.push(format!("surfacing in {BOUNDS_PATH}"));
        }
        out.push(mk_finding(
            rule,
            file,
            *line,
            inc.col,
            inc.width,
            format!(
                "increment of loss counter `{counter}` has no def-use path to {}",
                missing.join(" or ")
            ),
        ));
    }
}

/// R008 — scan every fn reachable within [`HOT_PATH_HOPS`] of a
/// per-record entry point for implicit panic sites.
fn r008(st: &SymbolTable, cg: &CallGraph, out: &mut Vec<Finding>) {
    let Some(rule) = rule_by_id("R008") else {
        return;
    };
    let roots: Vec<usize> = st
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            let file = &st.files[f.file];
            matches!(
                f.name.as_str(),
                "offer" | "offer_chunk" | "process" | "run" | "pump"
            ) && file.rel.starts_with("crates/gigascope/src/")
                && !file.rel.ends_with("supervise.rs")
                && !f.allowlisted
        })
        .map(|(i, _)| i)
        .collect();
    if roots.is_empty() {
        return;
    }
    let reach = reach_within(cg, &roots, HOT_PATH_HOPS);
    for (fidx, r) in reach.iter().enumerate() {
        let Some(r) = r else { continue };
        let f = &st.fns[fidx];
        let file = &st.files[f.file];
        if !file.rel.starts_with("crates/")
            || file.rel.starts_with("crates/lint/")
            || file.rel.starts_with("crates/bench/")
            || file.rel.ends_with("supervise.rs")
            || f.allowlisted
        {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let toks = &file.lexed.tokens;
        let chain = chain_to(st, &reach, fidx);
        let hops = r.hops;
        for i in open..=close.min(toks.len() - 1) {
            let t = &toks[i];
            if file.in_test_span(t.line) {
                continue;
            }
            let message = if t.kind == TokenKind::Ident
                && matches!(t.text.as_str(), "unwrap" | "expect")
                && i > 0
                && toks[i - 1].is_punct(".")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            {
                Some(format!(
                    "`.{}()` can panic {hops} hop(s) from the per-record hot path ({chain})",
                    t.text
                ))
            } else if t.is_punct("[") && is_index_site(toks, i) {
                Some(format!(
                    "unchecked indexing can panic {hops} hop(s) from the per-record hot path ({chain})"
                ))
            } else if t.kind == TokenKind::Punct
                && matches!(t.text.as_str(), "/" | "%" | "/=" | "%=")
                && !div_rhs_safe(toks, i, close)
            {
                Some(format!(
                    "`{}` with an unproven-nonzero divisor can panic {hops} hop(s) from the per-record hot path ({chain})",
                    t.text
                ))
            } else {
                None
            };
            if let Some(message) = message {
                out.push(mk_finding(
                    rule,
                    file,
                    t.line,
                    t.col,
                    t.text.chars().count().max(1) as u32,
                    message,
                ));
            }
        }
    }
}

/// Runs the three dataflow rules over a set of `(rel_path, source)`
/// files and returns the findings, inline-pragma-filtered and ordered
/// by position. The allowlist is applied by the caller
/// ([`crate::lint_workspace`]), like every other rule.
pub fn analyze(inputs: &[(String, String)]) -> Vec<Finding> {
    let st = symbols::build(inputs);
    let cg = callgraph::build(&st);
    let mut flow = Flow::new(&st);
    for _ in 0..MAX_ROUNDS {
        flow.changed = false;
        for f in 0..st.fns.len() {
            flow.walk_fn(f);
        }
        if !flow.changed {
            break;
        }
    }
    flow.report = true;
    for f in 0..st.fns.len() {
        flow.walk_fn(f);
    }
    let mut findings = std::mem::take(&mut flow.findings);
    r007(&st, &flow, &mut findings);
    r008(&st, &cg, &mut findings);
    findings.retain(|f| {
        let Some(file) = st.files.iter().find(|w| w.rel == f.file) else {
            return true;
        };
        !file.lexed.suppressions.iter().any(|s| {
            (f.line == s.line || f.line == s.line + 1) && s.rules.iter().any(|r| r == f.rule)
        })
    });
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    findings.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.col == b.col && a.rule == b.rule
    });
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let inputs: Vec<(String, String)> = files
            .iter()
            .map(|(r, s)| ((*r).to_owned(), (*s).to_owned()))
            .collect();
        analyze(&inputs)
    }

    fn rules_of(fs: &[Finding]) -> Vec<&str> {
        fs.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d007_direct_field_taint() {
        let fs = run(&[(
            "crates/gigascope/src/snap.rs",
            "pub struct Snapshot { pub digest: u64 }\n\
             fn seal(s: &mut Snapshot) { let p = &s as *const _ as usize;\n\
                 s.digest = p as u64; }\n",
        )]);
        assert_eq!(rules_of(&fs), ["D007"], "{fs:?}");
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn d007_taint_through_an_intermediate_call() {
        // The source is laundered through `tag()` and `widen()` — only
        // interprocedural summaries can connect it to the sink.
        let fs = run(&[(
            "crates/gigascope/src/snap.rs",
            "pub struct Snapshot { pub digest: u64 }\n\
             fn tag() -> u64 { let t = std::thread::current(); widen_src(t) }\n\
             fn widen_src(x: u64) -> u64 { x }\n\
             fn seal(s: &mut Snapshot) { s.digest = tag(); }\n",
        )]);
        assert_eq!(rules_of(&fs), ["D007"], "{fs:?}");
        assert_eq!(fs[0].line, 4);
    }

    #[test]
    fn d007_clean_when_source_stays_in_tests() {
        let fs = run(&[(
            "crates/gigascope/src/snap.rs",
            "pub struct Snapshot { pub digest: u64 }\n\
             fn seal(s: &mut Snapshot, epoch: u64) { s.digest = epoch ^ 7; }\n\
             #[cfg(test)]\nmod t {\n    fn clock() -> u64 { Instant::now(); 0 }\n}\n",
        )]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn r007_increment_behind_a_helper_needs_a_merge_path() {
        let fs = run(&[(
            "crates/gigascope/src/spill.rs",
            "pub struct Ledger { pub records_spilled_lost: u64, pub seen: u64 }\n\
             fn bump(c: &mut u64) { *c += 1; }\n\
             impl Ledger {\n\
                 fn on_spill(&mut self) { bump(&mut self.records_spilled_lost); }\n\
                 fn merge(&mut self, o: &Ledger) { self.seen += o.seen; }\n\
             }\n",
        )]);
        assert_eq!(rules_of(&fs), ["R007"], "{fs:?}");
        assert!(fs[0].message.contains("records_spilled_lost"));
    }

    #[test]
    fn r007_clean_when_fold_and_bounds_exist() {
        let fs = run(&[
            (
                "crates/gigascope/src/spill.rs",
                "pub struct Ledger { pub records_spilled_lost: u64 }\n\
                 impl Ledger {\n\
                     fn on_spill(&mut self) { self.records_spilled_lost += 1; }\n\
                     fn merge(&mut self, o: &Ledger) { \
                      self.records_spilled_lost += o.records_spilled_lost; }\n\
                 }\n",
            ),
            (
                "crates/gigascope/src/bounds.rs",
                "pub fn widen(records_spilled_lost: u64) -> u64 { records_spilled_lost }\n",
            ),
        ]);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn r008_panic_sites_within_three_hops_fire_and_hop_four_does_not() {
        let fs = run(&[(
            "crates/gigascope/src/table.rs",
            "pub fn offer(x: u64) { admit(x); }\n\
             fn admit(x: u64) { probe(x); }\n\
             fn probe(x: u64) { let v = vec![1u64]; let _ = v[x as usize]; deep(x); }\n\
             fn deep(x: u64) { deeper(x); }\n\
             fn deeper(x: u64) { let o: Option<u64> = None; o.unwrap(); }\n",
        )]);
        // probe is 2 hops out: the indexing fires. deeper is 4 hops
        // out: its unwrap is beyond the horizon.
        assert_eq!(rules_of(&fs), ["R008"], "{fs:?}");
        assert!(fs[0].message.contains("offer -> admit -> probe"));
    }

    #[test]
    fn r008_guarded_division_and_full_range_are_safe() {
        let fs = run(&[(
            "crates/gigascope/src/table.rs",
            "pub fn offer(x: u64, n: usize) -> u64 {\n\
                 let v = vec![1u64];\n\
                 let s = &v[..];\n\
                 let k = x % (n as u64).max(1);\n\
                 let f = x as f64 / 2.0;\n\
                 k + s.len() as u64 + f as u64\n\
             }\n",
        )]);
        assert!(fs.is_empty(), "{fs:?}");
    }
}
