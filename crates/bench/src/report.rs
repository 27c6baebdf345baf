//! Fixed-width table printing and timing helpers for the report
//! binaries, the CLI `bench` command and the examples.

use crate::queries::QueryMix;
use reach_core::pipeline::{build_plain_with_report, plain_feasible, BuildOpts};
use reach_core::{BuildReport, ReachIndex};
use reach_graph::PreparedGraph;
use std::time::{Duration, Instant};

/// Runs `f`, returning its result and the elapsed wall-clock time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// The machine a `BENCH_*.json` report ran on, as a JSON object: CPU
/// architecture, OS and the parallelism the OS grants this process
/// (0 when it cannot tell).
pub fn host_json() -> String {
    format!(
        "{{\"arch\": \"{}\", \"os\": \"{}\", \"available_parallelism\": {}}}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        std::thread::available_parallelism().map_or(0, |p| p.get())
    )
}

/// Answers every pair of `mix` with `idx` and returns the wall time of
/// the loop — the one loop that times a query mix. Panics, naming the
/// index, when the number of reachable answers differs from
/// `mix.positives`.
pub fn time_mix(idx: &dyn ReachIndex, mix: &QueryMix) -> Duration {
    let (hits, elapsed) = timed(|| mix.pairs.iter().filter(|&&(s, t)| idx.query(s, t)).count());
    assert_eq!(
        hits,
        mix.positives,
        "{} answered a query wrongly",
        idx.meta().name
    );
    elapsed
}

/// The table `reach bench` and `table1 --empirical` print: one row per
/// named plain index, built with default options over `prepared` and
/// timed on `mix` through [`time_mix`]. An index whose feasibility
/// gate rejects the graph gets a placeholder row. The "condense"
/// column names the one build that paid for the shared condensation.
pub fn index_table(names: &[&str], prepared: &PreparedGraph, mix: &QueryMix) -> Table {
    let opts = BuildOpts::default();
    let mut table = Table::new([
        "index",
        "build",
        "condense",
        "label",
        "entries",
        "bytes",
        "query total",
        "query avg",
    ]);
    for &name in names {
        if !plain_feasible(name, prepared.num_vertices(), prepared.num_edges()) {
            let mut row = vec![name.to_string(), "(infeasible at this size)".to_string()];
            row.resize(8, String::new());
            table.row(row);
            continue;
        }
        let (idx, report) = build_plain_with_report(name, prepared, &opts);
        let q = time_mix(idx.as_ref(), mix);
        table.row([
            name.to_string(),
            fmt_duration(report.total),
            if report.reused_condensation() {
                "shared".to_string()
            } else {
                fmt_duration(report.condense + report.order)
            },
            fmt_duration(report.label),
            report.size_entries.to_string(),
            fmt_bytes(report.size_bytes),
            fmt_duration(q),
            fmt_duration(q / mix.pairs.len().max(1) as u32),
        ]);
    }
    assert!(
        prepared.condensation_runs() <= 1,
        "the sweep must share one condensation"
    );
    table
}

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(c);
                for _ in c.chars().count()..width[i] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &width));
        out.push('\n');
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

/// Human-readable duration (µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1_000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// One-line rendering of a [`BuildReport`]: per-phase wall time
/// (condense / order / label) plus index size. Phases charged to an
/// earlier build on the same prepared graph render as "shared".
pub fn fmt_build_report(r: &BuildReport) -> String {
    let preprocess = if r.reused_condensation() {
        "condense shared".to_string()
    } else {
        format!(
            "condense {} + order {}",
            fmt_duration(r.condense),
            fmt_duration(r.order)
        )
    };
    format!(
        "{}: total {} ({preprocess}, label {}), {} / {} entries",
        r.name,
        fmt_duration(r.total),
        fmt_duration(r.label),
        fmt_bytes(r.size_bytes),
        r.size_entries,
    )
}

/// Human-readable byte count.
pub fn fmt_bytes(b: usize) -> String {
    if b < 1 << 10 {
        format!("{b}B")
    } else if b < 1 << 20 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::query_mix;
    use crate::workloads::Shape;
    use reach_core::pipeline::build_plain_prepared;
    use std::sync::Arc;

    fn cyclic_prepared() -> (Arc<PreparedGraph>, QueryMix) {
        let g = Arc::new(Shape::Cyclic.generate(200, 3));
        let mix = query_mix(&g, 100, 0.4, 5);
        (PreparedGraph::new_shared(g), mix)
    }

    #[test]
    #[should_panic(expected = "BFL answered a query wrongly")]
    fn time_mix_panics_on_a_wrong_positive_count() {
        let (prepared, mut mix) = cyclic_prepared();
        mix.positives += 1;
        let idx = build_plain_prepared("BFL", &prepared, &BuildOpts::default());
        time_mix(idx.as_ref(), &mix);
    }

    #[test]
    fn index_table_rows_share_one_condensation() {
        let (prepared, mix) = cyclic_prepared();
        let s = index_table(&["GRAIL", "PLL", "no such index"], &prepared, &mix).render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5, "{s}");
        assert!(lines[0].ends_with("query avg"), "{s}");
        assert!(!lines[2].contains("shared"), "{s}");
        assert!(lines[3].contains("shared"), "{s}");
        assert!(lines[4].contains("infeasible"), "{s}");
        assert_eq!(prepared.condensation_runs(), 1);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].starts_with("long-name"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(42)), "42.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(12), "12B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }

    #[test]
    fn timed_returns_result() {
        let (x, d) = timed(|| 2 + 2);
        assert_eq!(x, 4);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn build_report_renders_phases_and_sharing() {
        let mut r = BuildReport {
            name: "GRAIL",
            condense: Duration::from_micros(500),
            order: Duration::from_micros(100),
            label: Duration::from_micros(400),
            total: Duration::from_micros(1_000),
            size_bytes: 2048,
            size_entries: 64,
        };
        let line = fmt_build_report(&r);
        assert!(line.contains("GRAIL"));
        assert!(line.contains("condense 500.0µs"));
        assert!(line.contains("order 100.0µs"));
        assert!(line.contains("2.0KiB"));
        r.condense = Duration::ZERO;
        r.order = Duration::ZERO;
        assert!(fmt_build_report(&r).contains("condense shared"));
    }
}
