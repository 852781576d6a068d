//! The F2PM system-feature vector.
//!
//! F2PM's monitoring client "measures a large set of system features, such
//! as memory usage, CPU time, and swap space usage" (paper Sec. III) and
//! ships them to a feature-monitor agent that builds the training database.
//! We expose the twelve features a real agent could observe on our VM model
//! — note it observes *symptoms* (resident set, swap, threads, response
//! time), never the hidden anomaly bookkeeping, so the ML problem is
//! genuinely indirect just as in the paper. Lasso regularisation later
//! selects the informative subset.

/// Number of features in the vector.
pub const FEATURE_COUNT: usize = 12;

/// Feature names, index-aligned with [`FeatureVec::values`].
pub const FEATURE_NAMES: [&str; FEATURE_COUNT] = [
    "resident_mb",     // resident set size, MiB
    "swap_used_mb",    // swap in use, MiB
    "mem_util",        // resident / (RAM + swap)
    "threads",         // OS thread count
    "thread_util",     // threads / max_threads
    "cpu_util",        // offered load / effective capacity
    "response_time_s", // mean response time over the last era
    "request_rate",    // arrival rate, req/s
    "age_s",           // seconds since last rejuvenation
    "requests_total",  // requests served since last rejuvenation
    "io_slowdown",     // swap-induced demand multiplier (iowait proxy)
    "free_ram_mb",     // RAM not yet resident
];

/// A single observation of the monitored system features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVec {
    /// Feature values, index-aligned with [`FEATURE_NAMES`].
    pub values: [f64; FEATURE_COUNT],
}

impl FeatureVec {
    /// Builds a vector from raw values.
    pub fn new(values: [f64; FEATURE_COUNT]) -> Self {
        FeatureVec { values }
    }

    /// Value of the named feature, if the name is known.
    pub fn get(&self, name: &str) -> Option<f64> {
        FEATURE_NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| self.values[i])
    }

    /// All values as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

impl AsRef<[f64]> for FeatureVec {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

impl std::ops::Index<usize> for FeatureVec {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.values[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_count_agree() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_COUNT);
        // Names are unique.
        let mut names = FEATURE_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FEATURE_COUNT);
    }

    #[test]
    fn get_by_name() {
        let mut values = [0.0; FEATURE_COUNT];
        values[0] = 1234.0;
        values[6] = 0.25;
        let fv = FeatureVec::new(values);
        assert_eq!(fv.get("resident_mb"), Some(1234.0));
        assert_eq!(fv.get("response_time_s"), Some(0.25));
        assert_eq!(fv.get("nonexistent"), None);
        assert_eq!(fv[0], 1234.0);
    }

    #[test]
    fn finiteness_check() {
        let fv = FeatureVec::new([0.0; FEATURE_COUNT]);
        assert!(fv.is_finite());
        let mut bad = fv;
        bad.values[3] = f64::NAN;
        assert!(!bad.is_finite());
    }
}
