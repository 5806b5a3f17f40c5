//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer: its name, start and end on the
//! run's clock, the span that was open when it began (its parent), and
//! the pass it belongs to (its run id). Spans stay in memory until the
//! benchmark writes them out at the end. When recording is off,
//! [`span`] costs one thread-local flag check.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded layer call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    enabled: bool,
    clock: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        clock: Instant::now(),
        run: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off and sets the run id of later spans.
pub fn record(enabled: bool, run: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.enabled = enabled;
        r.run = run;
    });
}

fn begin(name: &'static str) -> Option<u32> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let start_ns = r.clock.elapsed().as_nanos() as u64;
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied();
        let run = r.run;
        r.spans.push(Span { name, start_ns, end_ns: start_ns, parent, run });
        r.open.push(idx);
        Some(idx)
    })
}

fn end(idx: u32) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let now = r.clock.elapsed().as_nanos() as u64;
        if let Some(s) = r.spans.get_mut(idx as usize) {
            s.end_ns = now;
        }
        r.open.pop();
    });
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = begin(name);
    let out = f();
    if let Some(idx) = idx {
        end(idx);
    }
    out
}

/// Hands back every span recorded so far and clears the recorder.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| child_ns.get_mut(p as usize)) {
            *p += s.dur_ns();
        }
    }
    spans.iter().zip(child_ns).map(|(s, kids)| s.dur_ns().saturating_sub(kids)).collect()
}

/// Aggregates spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
    out
}

/// Tab-separated dump: index, run, parent (-1 for roots), name, start
/// and end in nanoseconds on the run's clock.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("idx\trun\tparent\tname\tstart_ns\tend_ns\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, i64::from);
        out.push_str(&format!(
            "{i}\t{}\t{parent}\t{}\t{}\t{}\n",
            s.run, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}
