//! Figure and table containers for reproduced experiments.
//!
//! A [`Figure`] is labeled series of `(x, value, error-bar)` rows plus
//! free-form notes recording the paper's published expectations. The
//! non-sweep experiments of [`crate::experiments`] return one, and
//! [`Figure::peak_pivot`] builds one from a scenario grid (the table the
//! `cablevod-scenario` bin prints). Figures render to markdown.

use cablevod_sim::SimReport;
use serde::{Deserialize, Serialize};

/// One bar/point of a reproduced figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigureRow {
    /// Series name (e.g. "LFU", "Oracle").
    pub series: String,
    /// Formatted x-axis value (e.g. "1 TB", "500 peers").
    pub x: String,
    /// The measured value in the figure's y unit.
    pub value: f64,
    /// Lower error bar (5 % quantile where applicable, else `value`).
    pub lo: f64,
    /// Upper error bar (95 % quantile where applicable, else `value`).
    pub hi: f64,
}

impl FigureRow {
    /// Creates a row without error bars.
    pub fn point(series: impl Into<String>, x: impl Into<String>, value: f64) -> Self {
        FigureRow {
            series: series.into(),
            x: x.into(),
            value,
            lo: value,
            hi: value,
        }
    }

    /// Creates a row with 5 %/95 % error bars.
    pub fn with_bars(
        series: impl Into<String>,
        x: impl Into<String>,
        value: f64,
        lo: f64,
        hi: f64,
    ) -> Self {
        FigureRow {
            series: series.into(),
            x: x.into(),
            value,
            lo,
            hi,
        }
    }
}

/// A reproduced figure or table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Experiment id ("fig08", "t16a", "ablation_fill", ...).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label with unit.
    pub y_label: String,
    /// The measured rows.
    pub rows: Vec<FigureRow>,
    /// Expectations from the paper and observations about the match.
    pub notes: Vec<String>,
}

impl Figure {
    /// Creates an empty figure shell.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// The pivot of a scenario grid: one row per point and, per series,
    /// two columns — the peak-hour server rate in Gb/s and the peak-hour
    /// coax rate in Mb/s, each a mean with its 5 %/95 % bars. `cells`
    /// are `(series, point, report)` in grid order.
    pub fn peak_pivot<'a>(
        id: impl Into<String>,
        cells: impl IntoIterator<Item = (&'a str, &'a str, &'a SimReport)>,
    ) -> Self {
        let mut fig = Figure::new(
            id,
            "Peak-hour server and coax rates",
            "Point",
            "server Gb/s and coax Mb/s, mean [q05, q95]",
        );
        for (series, point, report) in cells {
            let (server, coax) = (&report.server_peak, &report.coax_peak);
            fig.push(FigureRow::with_bars(
                format!("{series} server Gb/s"),
                point,
                server.mean.as_gbps(),
                server.q05.as_gbps(),
                server.q95.as_gbps(),
            ));
            fig.push(FigureRow::with_bars(
                format!("{series} coax Mb/s"),
                point,
                coax.mean.as_mbps(),
                coax.q05.as_mbps(),
                coax.q95.as_mbps(),
            ));
        }
        fig
    }

    /// Appends a row.
    pub fn push(&mut self, row: FigureRow) {
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Value of the row matching `(series, x)`, if present.
    pub fn value_of(&self, series: &str, x: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.series == series && r.x == x)
            .map(|r| r.value)
    }

    /// Distinct series names in first-appearance order.
    pub fn series_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for row in &self.rows {
            if !names.contains(&row.series.as_str()) {
                names.push(&row.series);
            }
        }
        names
    }

    /// Distinct x values in first-appearance order.
    pub fn x_values(&self) -> Vec<&str> {
        let mut xs: Vec<&str> = Vec::new();
        for row in &self.rows {
            if !xs.contains(&row.x.as_str()) {
                xs.push(&row.x);
            }
        }
        xs
    }

    /// Renders a markdown document fragment: a pivot table with one column
    /// per series (values with error bars) followed by the notes.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        let series = self.series_names();
        let xs = self.x_values();

        out.push_str(&format!("| {} |", self.x_label));
        for s in &series {
            out.push_str(&format!(" {s} |"));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &series {
            out.push_str("---|");
        }
        out.push('\n');
        for x in xs {
            out.push_str(&format!("| {x} |"));
            for s in &series {
                match self.rows.iter().find(|r| r.series == *s && r.x == x) {
                    Some(r) if (r.lo - r.value).abs() > 1e-12 || (r.hi - r.value).abs() > 1e-12 => {
                        out.push_str(&format!(" {:.2} [{:.2}, {:.2}] |", r.value, r.lo, r.hi));
                    }
                    Some(r) => out.push_str(&format!(" {:.2} |", r.value)),
                    None => out.push_str(" – |"),
                }
            }
            out.push('\n');
        }
        out.push('\n');
        out.push_str(&format!("*y: {}*\n", self.y_label));
        if !self.notes.is_empty() {
            out.push('\n');
            for note in &self.notes {
                out.push_str(&format!("- {note}\n"));
            }
        }
        out
    }
}

impl std::fmt::Display for Figure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut fig = Figure::new("fig08", "Server load vs cache size", "Total cache", "Gb/s");
        fig.push(FigureRow::with_bars("LRU", "1 TB", 10.5, 8.0, 13.0));
        fig.push(FigureRow::with_bars("LFU", "1 TB", 10.0, 7.9, 12.5));
        fig.push(FigureRow::with_bars("LRU", "10 TB", 2.4, 1.8, 3.1));
        fig.push(FigureRow::with_bars("LFU", "10 TB", 2.2, 1.7, 2.9));
        fig.note("paper: 1 TB ≈ 10 Gb/s, 10 TB ≈ 2.1 Gb/s");
        fig
    }

    #[test]
    fn pivot_preserves_order() {
        let fig = sample();
        assert_eq!(fig.series_names(), vec!["LRU", "LFU"]);
        assert_eq!(fig.x_values(), vec!["1 TB", "10 TB"]);
        assert_eq!(fig.value_of("LFU", "10 TB"), Some(2.2));
        assert_eq!(fig.value_of("LFU", "5 TB"), None);
    }

    #[test]
    fn markdown_contains_all_cells_and_notes() {
        let md = sample().to_markdown();
        assert!(md.contains("### fig08"));
        assert!(md.contains("| 1 TB |"));
        assert!(md.contains("10.00 [7.90, 12.50]"));
        assert!(md.contains("- paper: 1 TB"));
    }

    #[test]
    fn peak_pivot_has_a_server_and_a_coax_column_per_series() {
        use cablevod_cache::StrategySpec;
        use cablevod_sim::{run, SimConfig};
        use cablevod_trace::synth::{generate, SynthConfig};

        let trace = generate(&SynthConfig {
            users: 200,
            programs: 40,
            days: 2,
            ..SynthConfig::smoke_test()
        });
        let config = SimConfig::paper_default()
            .with_neighborhood_size(100)
            .with_warmup_days(1);
        let lru = run(&trace, &config.clone().with_strategy(StrategySpec::Lru)).expect("runs");
        let lfu = run(&trace, &config).expect("runs");
        let fig = Figure::peak_pivot("grid", [("LRU", "10GB", &lru), ("LFU", "10GB", &lfu)]);
        assert_eq!(
            fig.series_names(),
            [
                "LRU server Gb/s",
                "LRU coax Mb/s",
                "LFU server Gb/s",
                "LFU coax Mb/s"
            ]
        );
        assert_eq!(
            fig.value_of("LFU server Gb/s", "10GB"),
            Some(lfu.server_peak.mean.as_gbps())
        );
        assert_eq!(
            fig.value_of("LRU coax Mb/s", "10GB"),
            Some(lru.coax_peak.mean.as_mbps())
        );
        assert!(fig.to_markdown().contains("| 10GB |"));
    }

    #[test]
    fn missing_cells_render_as_dash() {
        let mut fig = sample();
        fig.push(FigureRow::point("Oracle", "1 TB", 8.5));
        let md = fig.to_markdown();
        assert!(md.contains("–"), "oracle has no 10 TB row: {md}");
        assert!(md.contains(" 8.50 |"));
    }
}
