//! Time-series recording for the figure harness.
//!
//! The paper's figures are time series (RMTTF, workload fraction `f_i`, mean
//! response time per control-loop era). [`TimeSeries`] stores `(t, value)`
//! points, supports windowed summaries and renders CSV. The figure CSVs
//! now come from the era-major telemetry table in `acm-core`; this module
//! is kept as the test oracle that table's rendering is checked against.

use crate::stats::OnlineStats;
use crate::time::SimTime;
use std::fmt::Write as _;

/// One observation of a named signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Instant of the observation.
    pub t: SimTime,
    /// Observed value.
    pub value: f64,
}

/// An append-only series of timestamped observations.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    name: String,
    points: Vec<SeriesPoint>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an observation. Timestamps must be non-decreasing.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(last) = self.points.last() {
            assert!(t >= last.t, "time series must be appended in order");
        }
        self.points.push(SeriesPoint { t, value });
    }

    /// All recorded points.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|p| p.value)
    }

    /// Values only, in time order.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|p| p.value)
    }

    /// Summary statistics over the final `n` points (or all, if fewer).
    pub fn tail_stats(&self, n: usize) -> OnlineStats {
        let start = self.points.len().saturating_sub(n);
        let mut s = OnlineStats::new();
        for p in &self.points[start..] {
            s.push(p.value);
        }
        s
    }

    /// Mean over points with `t >= from`.
    pub fn mean_since(&self, from: SimTime) -> f64 {
        let mut s = OnlineStats::new();
        for p in self.points.iter().filter(|p| p.t >= from) {
            s.push(p.value);
        }
        s.mean()
    }

    /// Coefficient of variation of the final `n` points — the stability
    /// metric used to compare policy oscillation (paper claims Policy 2's
    /// `f_i` oscillates least).
    pub fn tail_cv(&self, n: usize) -> f64 {
        self.tail_stats(n).cv()
    }

    /// Largest absolute step between consecutive points in the final `n`
    /// points — captures the "many redirections of the request flow" the
    /// paper attributes to Policy 1.
    pub fn tail_max_step(&self, n: usize) -> f64 {
        let start = self.points.len().saturating_sub(n);
        self.points[start..]
            .windows(2)
            .map(|w| (w[1].value - w[0].value).abs())
            .fold(0.0, f64::max)
    }
}

/// A bundle of aligned series sharing time stamps (one CSV table).
#[derive(Debug, Clone, Default)]
pub struct SeriesTable {
    series: Vec<TimeSeries>,
}

impl SeriesTable {
    /// Creates a table with the given column names.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        SeriesTable {
            series: names.into_iter().map(TimeSeries::new).collect(),
        }
    }

    /// Appends one row: a timestamp plus one value per column.
    ///
    /// Panics if `values.len()` differs from the number of columns.
    pub fn push_row(&mut self, t: SimTime, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.series.len(),
            "row width must match column count"
        );
        for (s, v) in self.series.iter_mut().zip(values) {
            s.push(t, *v);
        }
    }

    /// Column accessor by name.
    pub fn column(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name() == name)
    }

    /// All columns.
    pub fn columns(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.series.first().map_or(0, TimeSeries::len)
    }

    /// Renders the table as CSV with a `time_s` first column.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("time_s");
        for s in &self.series {
            out.push(',');
            out.push_str(s.name());
        }
        out.push('\n');
        for i in 0..self.rows() {
            let t = self.series[0].points()[i].t;
            let _ = write!(out, "{:.3}", t.as_secs_f64());
            for s in &self.series {
                let _ = write!(out, ",{:.6}", s.points()[i].value);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_read_back() {
        let mut ts = TimeSeries::new("rmttf");
        ts.push(t(1), 100.0);
        ts.push(t(2), 90.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.last(), Some(90.0));
        assert_eq!(ts.name(), "rmttf");
        assert_eq!(ts.values().collect::<Vec<_>>(), vec![100.0, 90.0]);
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new("x");
        ts.push(t(5), 1.0);
        ts.push(t(4), 2.0);
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let mut ts = TimeSeries::new("x");
        ts.push(t(5), 1.0);
        ts.push(t(5), 2.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn tail_stats_window() {
        let mut ts = TimeSeries::new("x");
        for (i, v) in [100.0, 100.0, 10.0, 12.0, 11.0].iter().enumerate() {
            ts.push(t(i as u64), *v);
        }
        let s = ts.tail_stats(3);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 11.0).abs() < 1e-12);
        // Window larger than the series uses everything.
        assert_eq!(ts.tail_stats(99).count(), 5);
    }

    #[test]
    fn mean_since_filters_by_time() {
        let mut ts = TimeSeries::new("x");
        ts.push(t(0), 100.0);
        ts.push(t(10), 1.0);
        ts.push(t(20), 3.0);
        assert!((ts.mean_since(t(10)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tail_max_step_detects_oscillation() {
        let mut smooth = TimeSeries::new("smooth");
        let mut jumpy = TimeSeries::new("jumpy");
        for i in 0..20u64 {
            smooth.push(t(i), 0.5 + 0.001 * i as f64);
            jumpy.push(t(i), if i % 2 == 0 { 0.2 } else { 0.8 });
        }
        assert!(jumpy.tail_max_step(10) > 10.0 * smooth.tail_max_step(10));
    }

    #[test]
    fn table_round_trip_and_csv() {
        let mut table = SeriesTable::new(["a", "b"]);
        table.push_row(t(1), &[1.0, 2.0]);
        table.push_row(t(2), &[3.0, 4.0]);
        assert_eq!(table.rows(), 2);
        assert_eq!(table.column("b").unwrap().last(), Some(4.0));
        assert!(table.column("missing").is_none());
        let csv = table.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time_s,a,b"));
        assert_eq!(lines.next(), Some("1.000,1.000000,2.000000"));
        assert_eq!(lines.next(), Some("2.000,3.000000,4.000000"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut table = SeriesTable::new(["a", "b"]);
        table.push_row(t(1), &[1.0]);
    }
}
