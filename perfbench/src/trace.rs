//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions. Each span has a name, start, end,
//! the span that was open when it started (its parent), and a request
//! id. Self time (duration minus the time covered by child spans) is
//! accumulated as spans close, so it stays exact when the stored span
//! list hits its cap. The spans are written out once, at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the output file; later ones still count in the
/// per-name statistics.
const MAX_STORED: usize = 200_000;
const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: u32,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

struct Open {
    name: u32,
    start_ns: u64,
    stored: u32,
    child_ns: u64,
}

#[derive(Default)]
struct PerName {
    durations_ns: Vec<u64>,
    self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    names: Vec<String>,
    per_name: Vec<PerName>,
    stored: Vec<Span>,
    stack: Vec<Open>,
    total: u64,
}

/// A handle to an open span; spans close in reverse order of opening.
#[must_use]
pub struct SpanId(usize);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            per_name: Vec::new(),
            stored: Vec::new(),
            stack: Vec::new(),
            total: 0,
        }
    }

    /// Interns a span name; hot loops look it up once.
    pub fn name_id(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name.to_string());
                self.per_name.push(PerName::default());
                (self.names.len() - 1) as u32
            }
        }
    }

    pub fn open(&mut self, name: &str, request: u64) -> SpanId {
        let id = self.name_id(name);
        self.open_id(id, request)
    }

    pub fn open_id(&mut self, name: u32, request: u64) -> SpanId {
        let stored = if self.stored.len() < MAX_STORED {
            self.stored.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().map_or(NO_PARENT, |o| o.stored),
                request,
            });
            (self.stored.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open {
            name,
            start_ns: self.now_ns(),
            stored,
            child_ns: 0,
        });
        SpanId(self.stack.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(id.0 + 1, self.stack.len(), "spans close innermost first");
        let open = self.stack.pop().expect("checked above");
        let dur = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let per = &mut self.per_name[open.name as usize];
        per.durations_ns.push(dur);
        per.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(span) = self.stored.get_mut(open.stored as usize) {
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
        }
        self.total += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations of every closed span with this name, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> &[u64] {
        self.names
            .iter()
            .position(|n| n == name)
            .map_or(&[], |i| &self.per_name[i].durations_ns)
    }

    pub fn spans_closed(&self) -> u64 {
        self.total
    }

    /// Per-name count, total and self time, largest self time first.
    pub fn self_times(&self) -> Vec<(&str, usize, u64, u64)> {
        let mut rows: Vec<_> = self
            .names
            .iter()
            .zip(&self.per_name)
            .map(|(n, p)| {
                (
                    n.as_str(),
                    p.durations_ns.len(),
                    p.durations_ns.iter().sum::<u64>(),
                    p.self_ns,
                )
            })
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.3));
        rows
    }

    /// The spans as JSON: a header, per-name self time, then one
    /// `[name, start_ns, end_ns, parent, request]` row per stored span
    /// (`parent` indexes the rows, -1 for none).
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 * self.stored.len() + 4096);
        let _ = write!(out, "{{{header},\n\"spans_closed\": {},\n", self.total);
        out.push_str("\"self_time\": [\n");
        for (i, (name, count, total, own)) in self.self_times().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}  {{\"name\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}"
            );
        }
        out.push_str("\n],\n\"names\": [");
        for (i, name) in self.names.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\"");
        }
        out.push_str("],\n\"spans\": [\n");
        for (i, s) in self.stored.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{sep}[{}, {}, {}, {parent}, {}]",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
