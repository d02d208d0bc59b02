//! Order statistics, run bookkeeping and small system probes shared by
//! the workloads.

use std::time::{Duration, Instant};

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it, so a tail figure never rests on a handful of
/// outliers.
pub const MIN_TAIL: usize = 10;

/// Set-up runs this many times before every measured pass, and
/// `setup_s` is the median over the whole run: with at least two passes
/// it rests on six or more samples spread over the run's length, like
/// the passes, not on one burst of a few milliseconds.
pub const SETUPS_PER_PASS: usize = 3;

/// Runs `f` `repeats` times (at least once), appending each duration in
/// seconds to `times`, and returns the last result.
pub fn time_each<T>(repeats: usize, times: &mut Vec<f64>, mut f: impl FnMut() -> T) -> T {
    let mut timed = || {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        times.push(secs(start));
        out
    };
    let mut last = timed();
    for _ in 1..repeats {
        last = timed();
    }
    last
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of ascending `sorted`, or
/// `None` when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    (beyond >= MIN_TAIL).then(|| sorted[rank - 1])
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Times `f` `repeats` times (at least once) and returns the median
/// duration of one call in seconds, plus the last result.
pub fn median_time<T>(repeats: usize, f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let last = time_each(repeats, &mut times, f);
    (median(&times), last)
}

/// Mean time of one call of `f`, in seconds, over batches of `per_batch`
/// calls; the median over `batches` batches is returned.
pub fn per_call(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut times = Vec::with_capacity(batches);
    for _ in 0..batches.max(1) {
        let start = Instant::now();
        for i in 0..per_batch {
            f(std::hint::black_box(i));
        }
        times.push(secs(start) / per_batch as f64);
    }
    median(&times)
}

/// Decides how many measured passes a run makes: at least `min`, and
/// more while the next pass (estimated by the slowest so far) still
/// ends within the run's measuring time.
pub struct PassClock {
    start: Instant,
    budget: Duration,
    min: usize,
    done: usize,
    slowest: Duration,
}

impl PassClock {
    /// A clock for `seconds` of measuring and at least `min` passes.
    pub fn new(seconds: u64, min: usize) -> PassClock {
        PassClock {
            start: Instant::now(),
            budget: Duration::from_secs(seconds),
            min,
            done: 0,
            slowest: Duration::ZERO,
        }
    }

    /// Whether another pass should run.
    pub fn another(&self) -> bool {
        self.done < self.min || self.start.elapsed() + self.slowest <= self.budget
    }

    /// Records one finished pass that began at `began`.
    pub fn finished(&mut self, began: Instant) {
        self.done += 1;
        self.slowest = self.slowest.max(began.elapsed());
    }
}

/// Tallies operations and the ones that failed, keeping the first few
/// failure messages and a per-pass log for standard error.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one operation; a false `ok` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(what());
            }
        }
    }

    /// Adds another tally's operations, failures and log to this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 20usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
        self.notes.extend(other.notes);
    }

    /// The recorded failure messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Adds a line to the run's log.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The run's log.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// High-water resident set of process `pid` (`"self"` for this one), in
/// MiB, from the `VmHWM` line of its `/proc` status.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// SplitMix64: the benchmark's own input generator, so workload inputs
/// depend on the seed argument alone.
#[derive(Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Gen {
        let mut g = Gen(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(
            percentile(&values, 0.99),
            None,
            "999 samples leave 9 beyond p99"
        );
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), Some(989.0));
        assert_eq!(percentile(&values, 0.5), Some(499.0));
        let few: Vec<f64> = (0..24).map(f64::from).collect();
        assert_eq!(
            percentile(&few, 0.99),
            None,
            "24 samples cannot carry a p99"
        );
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn generator_repeats_per_seed_and_differs_across_seeds() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut g = Gen::new(7, 1);
                move |_| g.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut g = Gen::new(7, 1);
                move |_| g.next_u64()
            })
            .collect();
        let c = Gen::new(8, 1).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn setup_is_timed_several_times_per_pass() {
        const _: () = assert!(SETUPS_PER_PASS >= 2);
        let mut times = Vec::new();
        let mut calls = 0;
        for _pass in 0..2 {
            time_each(SETUPS_PER_PASS, &mut times, || calls += 1);
        }
        assert_eq!(calls, 2 * SETUPS_PER_PASS);
        assert_eq!(times.len(), calls);
        assert!(median(&times) >= 0.0);
    }
}
