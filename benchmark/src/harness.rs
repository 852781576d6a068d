//! Measurement plumbing shared by every workload: harness spans, the
//! registry tally, order statistics, the FNV-1a digest and the
//! environment stamp. Nothing here knows what a workload does.

use acm::obs::json::JsonObject;
use acm::obs::{HistogramSnapshot, MetricValue, Obs};
use std::collections::BTreeMap;
use std::time::Instant;

// ---------------------------------------------------------------------------
// digest
// ---------------------------------------------------------------------------

/// FNV-1a-64, folded over program outputs in op order so that
/// parent-vs-change identity is a string compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for b in data {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        for v in vs {
            self.u64(v.to_bits());
        }
        self
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

// ---------------------------------------------------------------------------
// order statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for even counts); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Ops per second of the median cycle: `cycle` ÷ the median wall of a
/// whole cycle of cells. Every cycle has the same mix, and a stall — this
/// box loses up to a few hundred milliseconds in some seconds — lands in
/// few of them, so it cannot move the median as it moves a mean.
pub fn cycle_rate(op_wall_ns: &[u64], cycle: usize) -> f64 {
    let mut walls: Vec<f64> = op_wall_ns
        .chunks_exact(cycle)
        .map(|c| c.iter().sum::<u64>() as f64)
        .collect();
    cycle as f64 / (median(&mut walls) / 1e9)
}

/// The timed section cut into up to `blocks` equal slices of whole
/// `cycle`s (the remainder is dropped): ops per second of each slice, in
/// order. Their spread is the noise estimate carried beside `ops_per_s`.
pub fn block_rates(op_wall_ns: &[u64], blocks: usize, cycle: usize) -> Vec<f64> {
    let cycles = op_wall_ns.len() / cycle;
    let per = (cycles / blocks).max(1) * cycle;
    op_wall_ns
        .chunks_exact(per)
        .take(blocks)
        .map(|b| per as f64 / (b.iter().sum::<u64>() as f64 / 1e9))
        .collect()
}

/// Quartile spread of `values` as a percentage of their median — the
/// noise estimate printed beside `ops_per_s`. Same estimator as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method).
pub fn iqr_pct(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return f64::NAN;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (q(3) - q(1)) / median(&mut v) * 100.0
}

// ---------------------------------------------------------------------------
// harness spans
// ---------------------------------------------------------------------------

/// One call the driver made into a layer.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Operation the call belongs to (`None` for set-up and kernels).
    pub op: Option<u64>,
}

/// Handle returned by [`Spans::open`]; hand it back to [`Spans::close`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// In-memory span recorder. Disabled (the untraced run) it records
/// nothing and `open`/`close` cost one branch.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    recs: Vec<SpanRec>,
    stack: Vec<usize>,
    op: Option<u64>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
            op: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let idx = self.recs.len();
        self.recs.push(SpanRec {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop().expect("close without open");
        assert_eq!(top, id.0, "spans must close innermost first");
        self.recs[top].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Drops spans left open by an operation that panicked.
    pub fn unwind(&mut self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(idx) = self.stack.pop() {
            self.recs[idx].end_ns = now;
        }
    }

    #[cfg(test)]
    pub fn records(&self) -> &[SpanRec] {
        &self.recs
    }

    /// Total nanoseconds and call count of every span named `name`;
    /// `in_ops` leaves out the ones recorded outside an operation
    /// (set-up, end-of-run checks).
    pub fn total(&self, name: &str, in_ops: bool) -> (u64, u64) {
        self.recs
            .iter()
            .filter(|r| r.name == name && (r.op.is_some() || !in_ops))
            .fold((0, 0), |(ns, n), r| (ns + (r.end_ns - r.start_ns), n + 1))
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.recs.iter().map(|r| r.end_ns - r.start_ns).collect();
        for r in &self.recs {
            if let Some(p) = r.parent {
                own[p] = own[p].saturating_sub(r.end_ns - r.start_ns);
            }
        }
        own
    }

    /// One JSON object per span: name, start, end, parent, op id, self time.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, r) in self.recs.iter().enumerate() {
            let mut o = JsonObject::new();
            o.field_u64("id", i as u64).field_str("name", r.name);
            o.field_u64("start_ns", r.start_ns)
                .field_u64("end_ns", r.end_ns);
            match r.parent {
                Some(p) => o.field_u64("parent", p as u64),
                None => o.field_raw("parent", "null"),
            };
            match r.op {
                Some(op) => o.field_u64("op", op),
                None => o.field_raw("op", "null"),
            };
            o.field_u64("self_ns", own[i]);
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// registry tally
// ---------------------------------------------------------------------------

/// Sum of the registries the program already exposes, folded over the
/// hubs of many operations: counters add, histograms merge, events are
/// counted per kind (retained + evicted, so the count is exact).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, HistogramSnapshot>,
    pub event_kinds: BTreeMap<&'static str, u64>,
    pub events_dropped: u64,
    pub hubs: u64,
}

impl Tally {
    pub fn absorb(&mut self, obs: &Obs) {
        self.hubs += 1;
        for m in obs.metrics() {
            match m.value {
                MetricValue::Counter(c) => *self.counters.entry(m.name).or_default() += c,
                MetricValue::Histogram(h) => self.hists.entry(m.name).or_default().merge(&h),
                MetricValue::Gauge(_) => {}
            }
        }
        for (kind, retained, dropped) in obs.events_kind_stats() {
            *self.event_kinds.entry(kind).or_default() += retained as u64 + dropped;
        }
        self.events_dropped += obs.events_dropped();
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of a histogram's observations (a timer's total nanoseconds).
    pub fn hist_sum(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.sum)
    }

    pub fn events(&self) -> u64 {
        self.event_kinds.values().sum()
    }

    /// Events whose kind starts with `prefix`.
    pub fn events_with_prefix(&self, prefix: &str) -> u64 {
        self.event_kinds
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, n)| *n)
            .sum()
    }

    pub fn events_of(&self, kind: &str) -> u64 {
        self.event_kinds.get(kind).copied().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// environment
// ---------------------------------------------------------------------------

/// `VmHWM` of this process in MiB (`NaN` where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs from, read from `.git`
/// without starting a process; `unknown` outside a git repository (the
/// driver's checkout is not one).
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how a number was taken; carried by every output.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub nproc: usize,
    pub exec_width: usize,
    pub acm_threads: String,
    pub profile: &'static str,
    pub rustc: String,
    pub commit: String,
    pub seed: u64,
    pub ops: u64,
}

impl Stamp {
    pub fn take(exec_width: usize, seed: u64, ops: u64) -> Self {
        Stamp {
            nproc: acm::exec::available_threads(),
            exec_width,
            acm_threads: std::env::var("ACM_THREADS").unwrap_or_else(|_| "unset".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: rustc_version(),
            commit: commit(),
            seed,
            ops,
        }
    }

    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("nproc", self.nproc as u64)
            .field_u64("exec_width", self.exec_width as u64)
            .field_str("ACM_THREADS", &self.acm_threads)
            .field_str("profile", self.profile)
            .field_str("rustc", &self.rustc)
            .field_str("commit", &self.commit)
            .field_u64("seed", self.seed)
            .field_u64("ops", self.ops);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::default().hex(), "cbf29ce484222325");
        assert_eq!(Fnv::default().bytes(b"a").hex(), "af63dc4c8601ec8c");
        assert_eq!(Fnv::default().bytes(b"foobar").hex(), "85944171f73967e8");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v[..1], 0.9), 1.0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_pct(&v) - (8.25 - 2.75) / 5.5 * 100.0).abs() < 1e-9);
    }

    #[test]
    fn block_rates_hold_whole_cycles() {
        let walls = vec![1_000_000_000u64; 25];
        let rates = block_rates(&walls, 10, 1);
        assert_eq!(rates.len(), 10);
        assert!(rates.iter().all(|r| (*r - 1.0).abs() < 1e-12));
        // Fewer cycles than slices: one cycle per slice.
        assert_eq!(block_rates(&walls[..5], 10, 1).len(), 5);
        assert_eq!(block_rates(&walls[..24], 10, 6).len(), 4);
        // 75 ops in cycles of 6: slices of 6 (not 7), 15 ops dropped.
        let walls = vec![1_000_000_000u64; 75];
        assert_eq!(block_rates(&walls, 10, 6).len(), 10);
        assert!(block_rates(&walls[..3], 10, 6).is_empty());
    }

    #[test]
    fn cycle_rate_is_the_median_cycle() {
        // Cycles of 2 ops taking 2 s, 2 s and (one stall) 12 s.
        let s = 1_000_000_000u64;
        let walls = [s, s, s, s, s, 11 * s];
        assert!((cycle_rate(&walls, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut sp = Spans::new(true);
        let a = sp.open("a");
        let b = sp.open("b");
        sp.close(b);
        sp.close(a);
        let own = sp.self_ns();
        let d = |i: usize| sp.records()[i].end_ns - sp.records()[i].start_ns;
        assert_eq!(own[0], d(0) - d(1));
        assert_eq!(sp.records()[1].parent, Some(0));
        assert_eq!(sp.records()[0].parent, None);
    }
}
