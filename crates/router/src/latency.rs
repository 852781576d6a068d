//! Latency-aware region scoring (the scyllapy `LatencyAwareness` design).
//!
//! The weight table decides *how much* flow each region should get; the
//! scorer decides, between two weighted candidates, *which one serves this
//! request* — using decaying latency measurements from completed requests:
//!
//! * **minimum-measurement eligibility** — a region with fewer than
//!   `minimum_measurements` samples is never penalised (its comparison key
//!   is neutral, which also gives fresh regions a slight preference so
//!   they accumulate measurements quickly);
//! * **exclusion threshold** — an eligible region whose decayed latency
//!   exceeds `exclusion_threshold ×` the fastest eligible region's is
//!   pushed behind every non-excluded candidate;
//! * **decaying weights** — each sample folds into a per-region EWMA with
//!   weight `decay`, so older latencies fade.
//!
//! The hot comparison is one `f64` read per candidate: keys are prebuilt
//! on every sample and the exclusion cutoff is refreshed on an amortised
//! O(n)-every-`refresh_every`-samples schedule, so scoring never walks the
//! region list on the routing path.

/// Additive key penalty that pushes an excluded region behind every
/// non-excluded one (measured keys are microseconds, far below this).
const EXCLUDED_PENALTY_US: f64 = 1e12;

/// Tuning knobs of the latency-aware scorer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyAwareness {
    /// Samples a region needs before latency can penalise it.
    pub minimum_measurements: u64,
    /// Eligible regions slower than `threshold ×` the fastest eligible
    /// region are excluded from preference (≥ 1).
    pub exclusion_threshold: f64,
    /// EWMA weight of the newest sample, in `(0, 1]`.
    pub decay: f64,
    /// Exclusion-cutoff refresh cadence, in recorded samples.
    pub refresh_every: u64,
}

impl Default for LatencyAwareness {
    fn default() -> Self {
        LatencyAwareness {
            minimum_measurements: 32,
            exclusion_threshold: 2.0,
            decay: 0.2,
            refresh_every: 1024,
        }
    }
}

impl LatencyAwareness {
    /// Sanity-checks the knobs.
    pub fn validate(&self) -> Result<(), String> {
        if self.exclusion_threshold < 1.0 || !self.exclusion_threshold.is_finite() {
            return Err("exclusion_threshold must be finite and >= 1".into());
        }
        if !(self.decay > 0.0 && self.decay <= 1.0) {
            return Err("decay must be in (0, 1]".into());
        }
        if self.refresh_every == 0 {
            return Err("refresh_every must be positive".into());
        }
        Ok(())
    }
}

/// Per-region decaying latency state and the prebuilt comparison keys the
/// router's hot loop reads.
#[derive(Debug, Clone)]
pub struct LatencyScorer {
    cfg: LatencyAwareness,
    /// Decayed latency per region, microseconds (0 until the first sample).
    ewma_us: Vec<f64>,
    /// Samples recorded per region.
    count: Vec<u64>,
    /// Prebuilt comparison key per region (lower routes first).
    key: Vec<f64>,
    /// Exclusion cutoff: `threshold × fastest eligible EWMA` (+∞ until an
    /// eligible region exists).
    cutoff_us: f64,
    /// Samples since the last cutoff refresh.
    since_refresh: u64,
}

impl LatencyScorer {
    /// A scorer over `regions` regions with no measurements yet.
    pub fn new(regions: usize, cfg: LatencyAwareness) -> Self {
        cfg.validate().expect("invalid latency awareness");
        LatencyScorer {
            cfg,
            ewma_us: vec![0.0; regions],
            count: vec![0; regions],
            key: vec![0.0; regions],
            cutoff_us: f64::INFINITY,
            since_refresh: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &LatencyAwareness {
        &self.cfg
    }

    /// Folds one completed-request latency sample (microseconds) into the
    /// region's decayed estimate and its prebuilt key. Amortised O(1):
    /// the full cutoff scan runs every `refresh_every` samples.
    #[inline]
    pub fn record_us(&mut self, region: usize, latency_us: f64) {
        debug_assert!(latency_us >= 0.0 && latency_us.is_finite());
        let c = self.count[region];
        self.ewma_us[region] = if c == 0 {
            latency_us
        } else {
            self.cfg.decay * latency_us + (1.0 - self.cfg.decay) * self.ewma_us[region]
        };
        self.count[region] = c + 1;
        self.since_refresh += 1;
        if self.since_refresh >= self.cfg.refresh_every {
            self.refresh();
        } else {
            self.key[region] = self.key_of(region);
        }
    }

    /// Recomputes the exclusion cutoff and every region's key (O(n); run
    /// automatically on the refresh cadence and after plan swaps).
    pub fn refresh(&mut self) {
        self.since_refresh = 0;
        let fastest = self
            .ewma_us
            .iter()
            .zip(&self.count)
            .filter(|(_, c)| **c >= self.cfg.minimum_measurements)
            .map(|(l, _)| *l)
            .fold(f64::INFINITY, f64::min);
        self.cutoff_us = fastest * self.cfg.exclusion_threshold;
        for r in 0..self.key.len() {
            self.key[r] = self.key_of(r);
        }
    }

    /// The comparison key of one region under the current cutoff.
    fn key_of(&self, region: usize) -> f64 {
        if self.count[region] < self.cfg.minimum_measurements {
            // Not enough data to judge: neutral (and slightly preferred,
            // so fresh regions reach eligibility).
            0.0
        } else if self.ewma_us[region] > self.cutoff_us {
            EXCLUDED_PENALTY_US + self.ewma_us[region]
        } else {
            self.ewma_us[region]
        }
    }

    /// The prebuilt comparison keys (lower routes first) — the single
    /// array the routing hot loop reads.
    #[inline]
    pub fn keys(&self) -> &[f64] {
        &self.key
    }

    /// Decayed latency estimate of a region, microseconds (0 = no data).
    pub fn ewma_us(&self, region: usize) -> f64 {
        self.ewma_us[region]
    }

    /// Samples recorded for a region.
    pub fn count(&self, region: usize) -> u64 {
        self.count[region]
    }

    /// Whether the region is currently excluded (eligible and beyond the
    /// exclusion cutoff as of the last refresh).
    pub fn excluded(&self, region: usize) -> bool {
        self.key[region] >= EXCLUDED_PENALTY_US
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(min: u64, thr: f64) -> LatencyAwareness {
        LatencyAwareness {
            minimum_measurements: min,
            exclusion_threshold: thr,
            decay: 0.5,
            refresh_every: 4,
        }
    }

    #[test]
    fn fresh_regions_are_neutral_and_not_excluded() {
        let s = LatencyScorer::new(3, LatencyAwareness::default());
        assert_eq!(s.keys(), &[0.0, 0.0, 0.0]);
        assert!(!s.excluded(0));
        assert_eq!(s.count(0), 0);
    }

    #[test]
    fn ewma_decays_toward_new_samples() {
        let mut s = LatencyScorer::new(1, cfg(1, 10.0));
        s.record_us(0, 100.0);
        assert_eq!(s.ewma_us(0), 100.0, "first sample seeds the estimate");
        s.record_us(0, 200.0);
        assert!((s.ewma_us(0) - 150.0).abs() < 1e-9, "decay 0.5 blend");
    }

    #[test]
    fn slow_region_is_excluded_after_refresh() {
        let mut s = LatencyScorer::new(2, cfg(2, 2.0));
        for _ in 0..4 {
            s.record_us(0, 100.0);
        }
        for _ in 0..4 {
            s.record_us(1, 1000.0); // 10x slower than region 0
        }
        s.refresh();
        assert!(!s.excluded(0));
        assert!(s.excluded(1), "10x slower than fastest at threshold 2");
        assert!(s.keys()[1] > s.keys()[0]);
    }

    #[test]
    fn under_measured_region_is_never_excluded() {
        let mut s = LatencyScorer::new(2, cfg(8, 2.0));
        for _ in 0..16 {
            s.record_us(0, 10.0);
        }
        s.record_us(1, 1_000_000.0); // one terrible sample, below the floor
        s.refresh();
        assert!(!s.excluded(1));
        assert_eq!(s.keys()[1], 0.0);
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        assert!(cfg(1, 0.5).validate().is_err());
        let c = LatencyAwareness {
            decay: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = LatencyAwareness {
            refresh_every: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        assert!(LatencyAwareness::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid latency awareness")]
    fn scorer_refuses_bad_knobs() {
        LatencyScorer::new(2, cfg(1, 0.5));
    }
}
