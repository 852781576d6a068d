//! Per-era experiment telemetry.
//!
//! The paper's figures are time series of (a) each region's RMTTF, (b) each
//! region's workload fraction `f_i`, and (c) the mean response time
//! measured by the clients. [`ExperimentTelemetry`] records exactly those
//! signals per control era, plus the operational counters (rejuvenations,
//! reactive failures, plan churn) the text discusses, and computes the
//! convergence/stability statistics the assessment in Sec. VI-B is based
//! on.

use acm_obs::json::{push_escaped, push_f64, push_fixed, push_key, push_u64};
use acm_sim::stats::OnlineStats;
use acm_sim::time::SimTime;
use std::sync::Arc;

/// Everything one region reported in one era (its fraction is the
/// leader's, recorded once per era for all regions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionEraRecord {
    /// Leader-side (EWMA) RMTTF estimate, seconds.
    pub rmttf: f64,
    /// Region mean response time, seconds.
    pub response_s: f64,
    /// ACTIVE VM count.
    pub active_vms: usize,
    /// Proactive rejuvenations this era.
    pub proactive: u32,
    /// Reactive failures this era.
    pub reactive: u32,
    /// Requests completed this era.
    pub completed: u64,
}

/// One cell of the telemetry table: what a [`SeriesView`] hands out per era
/// (`view.points()[e].value`). Transparent over its `f64`, so a view hands
/// out a reference into whichever storage holds the value — a row's own
/// values, or the fraction vector the row shares with the leader.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(transparent)]
pub struct EraValue {
    /// The recorded value.
    pub value: f64,
}

impl EraValue {
    fn from_ref(value: &f64) -> &EraValue {
        // SAFETY: `EraValue` is `repr(transparent)` over `f64`: same size,
        // alignment and validity, and the borrow's lifetime is kept.
        unsafe { &*(value as *const f64).cast::<EraValue>() }
    }
}

/// The four per-region column groups of a row, in CSV order.
const GROUPS: [&str; 4] = ["rmttf", "f", "resp", "active"];
/// The global columns that close a row, in CSV order.
const GLOBALS: [&str; 4] = ["global_resp", "lambda", "plan_churn", "remote_frac"];

/// One era of the table.
#[derive(Debug, Clone)]
struct EraRow {
    /// The regions' RMTTFs, their response times, then the four globals:
    /// `2n + 4` values.
    values: Box<[f64]>,
    /// The fractions in force: the leader's vector itself, shared with the
    /// `plan.install` that installed it and with every later row for which
    /// the plan stayed frozen.
    fractions: Arc<[f64]>,
    /// The regions' ACTIVE-VM counts.
    active: Box<[u32]>,
}

impl EraRow {
    /// `(rmttf, response, globals)`: the three runs of `values`.
    fn runs(&self) -> (&[f64], &[f64], &[f64]) {
        let n = self.active.len();
        let (rmttf, rest) = self.values.split_at(n);
        let (response, globals) = rest.split_at(n);
        (rmttf, response, globals)
    }
}

/// Full telemetry of one experiment run.
///
/// Storage is one **era-major table**: an era is one row — the regions'
/// RMTTFs, fractions, response times and ACTIVE-VM counts, then global
/// response, λ, plan churn and remote fraction, which is the CSV's column
/// order — allocated when the era is recorded. What a row stores of its
/// own is the floats only it holds: the fractions are the leader's shared
/// vector, the ACTIVE counts are integers. The era clock is stored once
/// per row, not once per value. A signal over time is a [`SeriesView`] (or
/// a [`CountView`] for the ACTIVE counts): a column of the table, borrowed.
#[derive(Debug, Clone)]
pub struct ExperimentTelemetry {
    region_names: Vec<String>,
    /// End instant of each recorded era.
    clock: Vec<SimTime>,
    /// One row per era, index-aligned with `clock`.
    rows: Vec<EraRow>,
    /// Lifetime counters.
    total_proactive: u64,
    total_reactive: u64,
    total_completed: u64,
}

/// Where a [`SeriesView`]'s values live in a row.
#[derive(Debug, Clone, Copy)]
enum Column {
    /// `EraRow::values[i]`.
    Value(usize),
    /// `EraRow::fractions[i]`.
    Fraction(usize),
}

/// One signal over the recorded eras: a borrowed column of the telemetry
/// table (`Copy`; nothing is materialised).
#[derive(Debug, Clone, Copy)]
pub struct SeriesView<'a> {
    rows: &'a [EraRow],
    col: Column,
}

impl<'a> SeriesView<'a> {
    fn cell(self, row: &'a EraRow) -> &'a f64 {
        match self.col {
            Column::Value(i) => &row.values[i],
            Column::Fraction(i) => &row.fractions[i],
        }
    }

    /// The series as an indexable sequence, `points()[e].value` — the view
    /// itself, under the name the per-series storage used to give it.
    pub fn points(self) -> Self {
        self
    }

    /// The most recent value, if any.
    pub fn last(self) -> Option<f64> {
        self.values().next_back()
    }

    /// Values only, in era order.
    pub fn values(self) -> impl DoubleEndedIterator<Item = f64> + ExactSizeIterator + 'a {
        self.rows.iter().map(move |row| *self.cell(row))
    }

    /// The final `n` values (or all, if fewer), in era order.
    fn tail(self, n: usize) -> impl Iterator<Item = f64> + 'a {
        self.values().skip(self.rows.len().saturating_sub(n))
    }

    /// Summary statistics over the final `n` eras (or all, if fewer).
    pub fn tail_stats(self, n: usize) -> OnlineStats {
        let mut s = OnlineStats::new();
        for v in self.tail(n) {
            s.push(v);
        }
        s
    }

    /// Coefficient of variation of the final `n` eras — the stability
    /// metric used to compare policy oscillation (paper claims Policy 2's
    /// `f_i` oscillates least).
    pub fn tail_cv(self, n: usize) -> f64 {
        self.tail_stats(n).cv()
    }

    /// Largest absolute step between consecutive eras in the final `n` —
    /// captures the "many redirections of the request flow" the paper
    /// attributes to Policy 1.
    pub fn tail_max_step(self, n: usize) -> f64 {
        let mut tail = self.tail(n);
        let Some(mut prev) = tail.next() else {
            return 0.0;
        };
        let mut max = 0.0;
        for v in tail {
            max = f64::max(max, (v - prev).abs());
            prev = v;
        }
        max
    }
}

impl std::ops::Index<usize> for SeriesView<'_> {
    type Output = EraValue;

    /// The value recorded in era `e`, by reference into the table.
    fn index(&self, e: usize) -> &EraValue {
        EraValue::from_ref(self.cell(&self.rows[e]))
    }
}

/// One region's ACTIVE-VM counts over the recorded eras: a borrowed
/// integer column, handed out by value.
#[derive(Debug, Clone, Copy)]
pub struct CountView<'a> {
    rows: &'a [EraRow],
    region: usize,
}

impl<'a> CountView<'a> {
    /// The count recorded in era `e`.
    pub fn get(self, e: usize) -> usize {
        self.rows[e].active[self.region] as usize
    }

    /// The most recent count, if any.
    pub fn last(self) -> Option<usize> {
        self.values().next_back()
    }

    /// Counts only, in era order.
    pub fn values(self) -> impl DoubleEndedIterator<Item = usize> + ExactSizeIterator + 'a {
        self.rows
            .iter()
            .map(move |row| row.active[self.region] as usize)
    }
}

impl ExperimentTelemetry {
    /// Creates empty telemetry for the named regions.
    pub fn new(region_names: Vec<String>) -> Self {
        ExperimentTelemetry {
            region_names,
            clock: Vec::new(),
            rows: Vec::new(),
            total_proactive: 0,
            total_reactive: 0,
            total_completed: 0,
        }
    }

    /// Region names.
    pub fn region_names(&self) -> &[String] {
        &self.region_names
    }

    /// Number of recorded eras.
    pub fn eras(&self) -> usize {
        self.rows.len()
    }

    /// Appends one era: the regions' records (index-aligned), the
    /// fractions in force — kept as the caller's shared vector, not copied
    /// — and the globals in CSV order: global response time, λ, plan churn,
    /// remote fraction.
    pub fn record_era(
        &mut self,
        t: SimTime,
        regions: &[RegionEraRecord],
        fractions: Arc<[f64]>,
        globals: [f64; 4],
    ) {
        let n = self.region_names.len();
        assert_eq!(regions.len(), n, "one record per region");
        assert_eq!(fractions.len(), n, "one fraction per region");
        assert!(
            self.clock.last().is_none_or(|last| t >= *last),
            "eras must be recorded in time order"
        );
        let mut values = Vec::with_capacity(2 * n + GLOBALS.len());
        values.extend(regions.iter().map(|r| r.rmttf));
        values.extend(regions.iter().map(|r| r.response_s));
        values.extend(globals);
        let active = regions
            .iter()
            .map(|r| u32::try_from(r.active_vms).expect("ACTIVE count fits in u32"))
            .collect();
        for r in regions {
            self.total_proactive += r.proactive as u64;
            self.total_reactive += r.reactive as u64;
            self.total_completed += r.completed;
        }
        self.clock.push(t);
        self.rows.push(EraRow {
            values: values.into_boxed_slice(),
            fractions,
            active,
        });
    }

    fn column(&self, col: Column) -> SeriesView<'_> {
        SeriesView {
            rows: &self.rows,
            col,
        }
    }

    /// Region `i`, checked against the region count.
    fn region(&self, i: usize) -> usize {
        let n = self.region_names.len();
        assert!(i < n, "region {i} of {n}");
        i
    }

    /// Global column `k` (an index into [`GLOBALS`]).
    fn global_column(&self, k: usize) -> SeriesView<'_> {
        self.column(Column::Value(2 * self.region_names.len() + k))
    }

    /// RMTTF series of region `i`.
    pub fn rmttf(&self, i: usize) -> SeriesView<'_> {
        self.column(Column::Value(self.region(i)))
    }

    /// Fraction series of region `i`.
    pub fn fraction(&self, i: usize) -> SeriesView<'_> {
        self.column(Column::Fraction(self.region(i)))
    }

    /// Response-time series of region `i`.
    pub fn response(&self, i: usize) -> SeriesView<'_> {
        self.column(Column::Value(self.region_names.len() + self.region(i)))
    }

    /// ACTIVE-VM counts of region `i`.
    pub fn active_vms(&self, i: usize) -> CountView<'_> {
        CountView {
            rows: &self.rows,
            region: self.region(i),
        }
    }

    /// Global client response time series (figure row 3).
    pub fn global_response(&self) -> SeriesView<'_> {
        self.global_column(0)
    }

    /// Global offered rate series.
    pub fn global_lambda(&self) -> SeriesView<'_> {
        self.global_column(1)
    }

    /// Plan churn series.
    pub fn plan_churn(&self) -> SeriesView<'_> {
        self.global_column(2)
    }

    /// Remote-forwarding fraction series.
    pub fn remote_fraction(&self) -> SeriesView<'_> {
        self.global_column(3)
    }

    /// Lifetime proactive rejuvenations.
    pub fn total_proactive(&self) -> u64 {
        self.total_proactive
    }

    /// Lifetime reactive failures.
    pub fn total_reactive(&self) -> u64 {
        self.total_reactive
    }

    /// Lifetime completed requests.
    pub fn total_completed(&self) -> u64 {
        self.total_completed
    }

    // ----- convergence & stability statistics (Sec. VI-B assessment) ------

    /// RMTTF convergence over the final `window` eras: the ratio of the
    /// largest to the smallest region-mean RMTTF (1.0 = perfectly
    /// converged). Policy 2 should score near 1; Policy 1 should not.
    pub fn rmttf_spread(&self, window: usize) -> f64 {
        let means: Vec<f64> = (0..self.region_names.len())
            .map(|i| self.rmttf(i).tail_stats(window).mean())
            .collect();
        let max = means.iter().fold(0.0_f64, |a, b| a.max(*b));
        let min = means.iter().fold(f64::INFINITY, |a, b| a.min(*b));
        if min <= 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// Mean fraction oscillation over the final `window` eras: the average
    /// (across regions) coefficient of variation of `f_i` — the stability
    /// metric behind "the values of f_i are subject to oscillations".
    pub fn fraction_oscillation(&self, window: usize) -> f64 {
        let mut s = OnlineStats::new();
        for i in 0..self.region_names.len() {
            s.push(self.fraction(i).tail_cv(window));
        }
        s.mean()
    }

    /// Largest single-era jump of any region's fraction in the final
    /// `window` eras (plan-redirection severity).
    pub fn fraction_max_step(&self, window: usize) -> f64 {
        (0..self.region_names.len())
            .map(|i| self.fraction(i).tail_max_step(window))
            .fold(0.0, f64::max)
    }

    /// Mean global response time over the final `window` eras.
    pub fn tail_response(&self, window: usize) -> f64 {
        self.global_response().tail_stats(window).mean()
    }

    /// First era at which the (5-era smoothed) RMTTF spread *reaches* the
    /// `bound` band — the "how fast does it get there" metric (no
    /// persistence requirement; see [`Self::convergence_era`] for the
    /// stay-there variant).
    pub fn first_reach_era(&self, bound: f64) -> Option<usize> {
        (0..self.eras()).find(|&e| self.smoothed_spread_at(e) <= bound)
    }

    /// The 5-era-smoothed max/min RMTTF ratio at era `e`.
    fn smoothed_spread_at(&self, e: usize) -> f64 {
        const SMOOTH: usize = 5;
        let lo = e.saturating_sub(SMOOTH / 2);
        let hi = (e + SMOOTH / 2 + 1).min(self.eras());
        let window = &self.rows[lo..hi];
        // RMTTFs open a row's values: region `i` is value `i`.
        let vals: Vec<f64> = (0..self.region_names.len())
            .map(|i| window.iter().map(|row| row.values[i]).sum::<f64>() / window.len() as f64)
            .collect();
        let max = vals.iter().fold(0.0_f64, |a, b| a.max(*b));
        let min = vals.iter().fold(f64::INFINITY, |a, b| a.min(*b));
        if min <= 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }

    /// First era index after which the RMTTF spread stays below `bound` —
    /// tolerating transient blips (at most 5 % of the remaining eras, and
    /// never the final era) — or `None` if the run never settles. The
    /// tolerance matters with trained predictors: a rejuvenation wave can
    /// inflate one region's estimate for a single era without the system
    /// actually diverging.
    pub fn convergence_era(&self, bound: f64) -> Option<usize> {
        let n = self.eras();
        if n == 0 {
            return None;
        }
        // Spread per era, measured on 5-era centred moving averages of each
        // region's RMTTF: convergence is a statement about the trend lines
        // in the figure, not about single-era estimation noise (trained
        // predictors jitter each era's estimate by the tree's leaf
        // granularity).
        let spread_at = |e: usize| -> f64 { self.smoothed_spread_at(e) };
        if spread_at(n - 1) > bound {
            return None; // still diverged at the end
        }
        // Suffix violation counts, scanned backward.
        let mut violations = 0usize;
        let mut best = None;
        for e in (0..n).rev() {
            if spread_at(e) > bound {
                violations += 1;
            }
            let suffix = n - e;
            let allowed = suffix / 20; // 5 % transient tolerance
            if violations <= allowed && spread_at(e) <= bound {
                best = Some(e);
            }
        }
        best
    }

    /// Renders the full telemetry as one CSV table (figure regeneration):
    /// a `time_s` column (3 decimals), then each row in column order (6
    /// decimals), written by [`push_fixed`]: the bytes `format!` writes at
    /// those precisions, without `core::fmt`.
    pub fn to_csv(&self) -> String {
        // `,` plus a 6-decimal value is ~12 bytes a column.
        let columns = GROUPS.len() * self.region_names.len() + GLOBALS.len();
        let mut out = String::with_capacity((self.rows.len() + 1) * (12 + 12 * columns));
        out.push_str("time_s");
        for suffix in GROUPS {
            for name in &self.region_names {
                out.push(',');
                out.push_str(name);
                out.push('_');
                out.push_str(suffix);
            }
        }
        for name in GLOBALS {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        for (t, row) in self.clock.iter().zip(&self.rows) {
            push_fixed(&mut out, t.as_secs_f64(), 3);
            let (rmttf, response, globals) = row.runs();
            let active = row.active.iter().map(|&a| f64::from(a));
            let floats = rmttf.iter().chain(&*row.fractions).chain(response);
            for v in floats.copied().chain(active).chain(globals.iter().copied()) {
                out.push(',');
                push_fixed(&mut out, v, 6);
            }
            out.push('\n');
        }
        out
    }

    /// Renders the telemetry as JSON Lines, one object per era. Shares the
    /// JSON writer with the observability decision log, so the two streams
    /// can be concatenated and post-processed by the same tooling; every
    /// era is written in place into one buffer.
    pub fn to_jsonl(&self) -> String {
        let mut out =
            String::with_capacity(self.rows.len() * (160 + 120 * self.region_names.len()));
        for (e, (t, row)) in self.clock.iter().zip(&self.rows).enumerate() {
            let (rmttf, response, globals) = row.runs();
            push_key(&mut out, '{', "era");
            push_u64(&mut out, e as u64);
            push_key(&mut out, ',', "t_us");
            push_u64(&mut out, t.as_micros());
            push_key(&mut out, ',', "regions");
            out.push('[');
            for (i, name) in self.region_names.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_key(&mut out, '{', "name");
                push_escaped(&mut out, name);
                let region = [
                    ("rmttf_s", rmttf[i]),
                    ("fraction", row.fractions[i]),
                    ("response_s", response[i]),
                ];
                for (key, v) in region {
                    push_key(&mut out, ',', key);
                    push_f64(&mut out, v);
                }
                push_key(&mut out, ',', "active_vms");
                push_u64(&mut out, u64::from(row.active[i]));
                out.push('}');
            }
            out.push(']');
            let keys = [
                "global_response_s",
                "lambda",
                "plan_churn",
                "remote_fraction",
            ];
            for (key, &v) in keys.iter().zip(globals) {
                push_key(&mut out, ',', key);
                push_f64(&mut out, v);
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(rmttf: f64) -> RegionEraRecord {
        RegionEraRecord {
            rmttf,
            response_s: 0.1,
            active_vms: 4,
            proactive: 1,
            reactive: 0,
            completed: 100,
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn two_region() -> ExperimentTelemetry {
        ExperimentTelemetry::new(vec!["r1".into(), "r3".into()])
    }

    /// Records one era of `(rmttf, fraction)` per region.
    fn push(tel: &mut ExperimentTelemetry, at: SimTime, regions: &[(f64, f64)], globals: [f64; 4]) {
        let records: Vec<_> = regions.iter().map(|&(rmttf, _)| record(rmttf)).collect();
        let fractions: Arc<[f64]> = regions.iter().map(|&(_, f)| f).collect();
        tel.record_era(at, &records, fractions, globals);
    }

    #[test]
    fn records_accumulate() {
        let mut tel = two_region();
        push(
            &mut tel,
            t(30),
            &[(500.0, 0.7), (480.0, 0.3)],
            [0.12, 60.0, 0.0, 0.1],
        );
        push(
            &mut tel,
            t(60),
            &[(510.0, 0.72), (490.0, 0.28)],
            [0.11, 61.0, 0.05, 0.1],
        );
        assert_eq!(tel.eras(), 2);
        assert_eq!(tel.total_proactive(), 4);
        assert_eq!(tel.total_completed(), 400);
        assert_eq!(tel.rmttf(0).last(), Some(510.0));
        assert_eq!(tel.fraction(1).last(), Some(0.28));
    }

    #[test]
    fn spread_detects_convergence() {
        let mut converged = two_region();
        let mut diverged = two_region();
        for e in 1..=20 {
            push(
                &mut converged,
                t(e * 30),
                &[(500.0, 0.7), (505.0, 0.3)],
                [0.1, 60.0, 0.0, 0.1],
            );
            push(
                &mut diverged,
                t(e * 30),
                &[(650.0, 0.7), (310.0, 0.3)],
                [0.1, 60.0, 0.0, 0.1],
            );
        }
        assert!(converged.rmttf_spread(10) < 1.05);
        assert!(diverged.rmttf_spread(10) > 1.9);
    }

    #[test]
    fn oscillation_metric_separates_stable_from_jumpy() {
        let mut stable = two_region();
        let mut jumpy = two_region();
        for e in 1..=20u64 {
            push(
                &mut stable,
                t(e * 30),
                &[(500.0, 0.7), (500.0, 0.3)],
                [0.1, 60.0, 0.0, 0.1],
            );
            let f = if e % 2 == 0 { 0.8 } else { 0.4 };
            push(
                &mut jumpy,
                t(e * 30),
                &[(500.0, f), (500.0, 1.0 - f)],
                [0.1, 60.0, 0.0, 0.1],
            );
        }
        assert!(jumpy.fraction_oscillation(16) > 5.0 * stable.fraction_oscillation(16));
        assert!(jumpy.fraction_max_step(16) >= 0.39);
        assert_eq!(stable.fraction_max_step(16), 0.0);
    }

    #[test]
    fn convergence_era_finds_settle_point() {
        let mut tel = two_region();
        // Diverged for 5 eras, then settled.
        for e in 1..=5u64 {
            push(
                &mut tel,
                t(e * 30),
                &[(800.0, 0.5), (300.0, 0.5)],
                [0.1, 60.0, 0.0, 0.1],
            );
        }
        for e in 6..=15u64 {
            push(
                &mut tel,
                t(e * 30),
                &[(510.0, 0.7), (500.0, 0.3)],
                [0.1, 60.0, 0.0, 0.1],
            );
        }
        // The 5-era smoothing window blurs the regime boundary by a couple
        // of eras.
        let conv = tel.convergence_era(1.2).expect("settles");
        assert!((5..=8).contains(&conv), "settle point {conv}");
        let reach = tel.first_reach_era(1.2).expect("reaches");
        assert!(reach <= conv, "reach {reach} after settle {conv}");
        // A never-settling run reports None.
        let mut never = two_region();
        for e in 1..=10u64 {
            push(
                &mut never,
                t(e * 30),
                &[(800.0, 0.5), (300.0, 0.5)],
                [0.1, 60.0, 0.0, 0.1],
            );
        }
        assert_eq!(never.convergence_era(1.2), None);
    }

    #[test]
    fn csv_contains_all_columns_and_rows() {
        let mut tel = two_region();
        push(
            &mut tel,
            t(30),
            &[(500.0, 0.7), (480.0, 0.3)],
            [0.12, 60.0, 0.0, 0.1],
        );
        let csv = tel.to_csv();
        let header = csv.lines().next().unwrap();
        for col in [
            "r1_rmttf",
            "r3_f",
            "r1_resp",
            "r3_active",
            "global_resp",
            "lambda",
        ] {
            assert!(header.contains(col), "missing {col} in {header}");
        }
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn jsonl_emits_one_valid_object_per_era() {
        let mut tel = two_region();
        push(
            &mut tel,
            t(30),
            &[(500.0, 0.7), (480.0, 0.3)],
            [0.12, 60.0, 0.0, 0.1],
        );
        push(
            &mut tel,
            t(60),
            &[(510.0, 0.72), (490.0, 0.28)],
            [0.11, 61.0, 0.05, 0.1],
        );
        let jsonl = tel.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(r#"{"era":0,"t_us":30000000,"#));
        assert!(lines[0].contains(r#""name":"r1","rmttf_s":500"#));
        assert!(lines[1].contains(r#""era":1"#));
        assert!(lines[1].contains(r#""plan_churn":0.05"#));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn views_read_the_table_like_the_series_they_replace() {
        use acm_sim::series::TimeSeries;
        let mut tel = two_region();
        let mut oracle = TimeSeries::new("r3_f");
        let empty = tel.fraction(1);
        assert_eq!((empty.values().len(), empty.last()), (0, None));
        assert_eq!(empty.tail_stats(5).count(), 0);
        assert_eq!(empty.tail_max_step(5), 0.0);
        assert_eq!(tel.rmttf_spread(5), f64::INFINITY);

        for (e, f) in [0.3, 0.28, 0.35, 0.1, 0.12, 0.11, 0.4]
            .into_iter()
            .enumerate()
        {
            let at = t(30 * (e as u64 + 1));
            push(
                &mut tel,
                at,
                &[(500.0 + e as f64, 1.0 - f), (480.0, f)],
                [0.1 + f, 60.0, f / 2.0, 0.1],
            );
            oracle.push(at, f);
        }
        let view = tel.fraction(1);
        assert_eq!(view.last(), oracle.last());
        assert_eq!(
            view.values().collect::<Vec<_>>(),
            oracle.values().collect::<Vec<_>>()
        );
        for e in 0..oracle.len() {
            assert_eq!(view.points()[e].value, oracle.points()[e].value);
            assert_eq!(view[e].value, oracle.points()[e].value);
        }
        for window in [0, 1, 2, 3, 7, 99] {
            let (got, want) = (view.tail_stats(window), oracle.tail_stats(window));
            assert_eq!(got.count(), want.count(), "window {window}");
            assert_eq!(got.mean().to_bits(), want.mean().to_bits());
            assert_eq!(
                view.tail_cv(window).to_bits(),
                oracle.tail_cv(window).to_bits()
            );
            assert_eq!(view.tail_max_step(window), oracle.tail_max_step(window));
        }
        // Every accessor lands on its own column of the row.
        assert_eq!(tel.rmttf(0).last(), Some(506.0));
        assert_eq!(tel.rmttf(1).last(), Some(480.0));
        assert_eq!(tel.fraction(0).last(), Some(0.6));
        assert_eq!(tel.response(1).last(), Some(0.1));
        assert_eq!(tel.active_vms(0).last(), Some(4));
        assert_eq!(tel.active_vms(1).get(0), 4);
        assert_eq!(tel.global_response().last(), Some(0.5));
        assert_eq!(tel.global_lambda().last(), Some(60.0));
        assert_eq!(tel.plan_churn().last(), Some(0.2));
        assert_eq!(tel.remote_fraction().last(), Some(0.1));
        // The fraction column is the recorded vector itself, not a copy.
        let plan: Arc<[f64]> = Arc::from(&[0.25, 0.75][..]);
        tel.record_era(t(300), &[record(1.0); 2], plan.clone(), [0.0; 4]);
        assert!(std::ptr::eq(&tel.fraction(1)[7].value, &plan[1]));
        assert_eq!(Arc::strong_count(&plan), 2);
    }

    #[test]
    #[should_panic(expected = "region 2 of 2")]
    fn region_index_past_the_group_panics() {
        let _ = two_region().fraction(2);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn eras_must_be_recorded_in_time_order() {
        let mut tel = two_region();
        push(&mut tel, t(60), &[(1.0, 0.5); 2], [0.1, 60.0, 0.0, 0.1]);
        push(&mut tel, t(30), &[(1.0, 0.5); 2], [0.1, 60.0, 0.0, 0.1]);
    }

    #[test]
    #[should_panic(expected = "one record per region")]
    fn wrong_region_count_panics() {
        let mut tel = two_region();
        push(&mut tel, t(30), &[(1.0, 1.0)], [0.1, 60.0, 0.0, 0.1]);
    }
}
