//! Dispatch-layer payoff of the Monte-Carlo engine: the same
//! estimation workload through the engine's retired v1 loop, frozen
//! below as [`dyn_baseline`] (one virtual call per decision, one
//! scalar RNG call per uniform on a sequential xoshiro stream), and
//! through the engine's lane loop ([`Simulation::run`]: branch-free
//! `[f64; 16]` trial groups on the counter-addressed Threefry
//! stream) — once with the rule's monomorphized kernel (`lane` rows)
//! and once with the rule hidden behind an opaque wrapper, which pays
//! a virtual `decide` per decision on the same lanes (`opaque` rows).
//!
//! The baseline draws a different stream than the engine, so it is
//! asserted statistically consistent with the lane estimate; the
//! opaque and lane paths are asserted bit-identical before any
//! timing.
//!
//! Every row is measured **paired**: baseline and optimized run
//! back-to-back with alternating order inside each sample, and the
//! recorded `cold_ns`/`memoized_ns` are the per-side minima, so
//! `speedup` is the paired min-time ratio (the least-noise estimate
//! for CPU-bound work; medians drift on shared hardware).
//!
//! Modes: `--smoke` (single short iteration, scratch output path;
//! CI's bench-smoke step), `--quick` (short paired measurement to a
//! scratch path for `cargo xtask bench-check`; CI's bench-check
//! step). The full run rewrites
//! `results/BENCH_simulator_throughput.json`.

use bench::{write_bench_json, PairedTiming};
use criterion::black_box;
use decision::{Bin, LocalRule, ObliviousAlgorithm, SingleThresholdAlgorithm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rational::Rational;
use simulator::{EngineMetrics, Simulation, SimulationReport};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const DELTA: f64 = 1.0;
const SIZES: [usize; 3] = [3, 5, 8];
const SEED: u64 = 42;
/// Trials per batch of the frozen baseline (the engine's default).
const BASELINE_BATCH: u64 = 16_384;

/// Hides a rule's kernel hint, forcing the engine onto the generic
/// per-decision kernel.
struct Opaque<'a>(&'a dyn LocalRule);

impl LocalRule for Opaque<'_> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn decide(&self, player: usize, input: f64, coin: f64) -> Bin {
        self.0.decide(player, input, coin)
    }
}

/// The engine's crash-free trial loop as it stood before the lanes,
/// frozen here as the ratio baseline: one xoshiro generator per batch
/// seeded through a SplitMix64 finalizer, one `gen_range` call per
/// uniform (input, then coin, per player), and one virtual `decide`
/// per decision. Single-threaded, like every row of this bench.
fn dyn_baseline(rule: &dyn LocalRule, delta: f64, trials: u64, seed: u64) -> SimulationReport {
    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    let n = rule.n();
    let mut wins = 0u64;
    for batch in 0..trials.div_ceil(BASELINE_BATCH) {
        let count = BASELINE_BATCH.min(trials - batch * BASELINE_BATCH);
        let mut rng =
            StdRng::seed_from_u64(splitmix(seed ^ batch.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        for _ in 0..count {
            let mut sums = [0.0f64; 2];
            for player in 0..n {
                let input: f64 = rng.gen_range(0.0..1.0);
                let coin: f64 = rng.gen_range(0.0..1.0);
                match rule.decide(player, input, coin) {
                    Bin::Zero => sums[0] += input,
                    Bin::One => sums[1] += input,
                }
            }
            if sums[0] <= delta && sums[1] <= delta {
                wins += 1;
            }
        }
    }
    SimulationReport::from_counts(wins, trials)
}

/// One timed invocation.
fn time_once(routine: &mut impl FnMut() -> SimulationReport) -> f64 {
    let start = Instant::now();
    black_box(routine());
    start.elapsed().as_nanos() as f64
}

/// Paired measurement: times `base` and `opt` back-to-back within
/// each sample (order alternating), so slow clock drift and frequency
/// scaling hit both sides equally instead of masquerading as speedup.
/// Returns the per-side **minimum** times; their ratio is the paired
/// min-time speedup, the least-noise estimate for CPU-bound work
/// since each side's fastest sample is the one least disturbed by
/// scheduling and cache interference.
fn paired_min_ns(
    samples: usize,
    mut base: impl FnMut() -> SimulationReport,
    mut opt: impl FnMut() -> SimulationReport,
) -> (f64, f64) {
    let mut base_min = f64::INFINITY;
    let mut opt_min = f64::INFINITY;
    for i in 0..samples {
        let (tb, to) = if i % 2 == 0 {
            let tb = time_once(&mut base);
            let to = time_once(&mut opt);
            (tb, to)
        } else {
            let to = time_once(&mut opt);
            let tb = time_once(&mut base);
            (tb, to)
        };
        base_min = base_min.min(tb);
        opt_min = opt_min.min(to);
    }
    (base_min, opt_min)
}

fn trials_per_sec(trials: u64, ns: f64) -> f64 {
    trials as f64 / ns * 1e9
}

/// The committed measurement lives next to the workspace results; the
/// smoke/quick modes write to scratch paths so they never clobber it.
fn output_path(smoke: bool, quick: bool) -> PathBuf {
    if smoke {
        std::env::temp_dir().join("BENCH_simulator_throughput.smoke.json")
    } else if quick {
        std::env::temp_dir().join("BENCH_simulator_throughput.quick.json")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_simulator_throughput.json")
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let quick = !smoke && std::env::args().any(|a| a == "--quick");
    let (trials, samples) = if smoke {
        (20_000, 1)
    } else if quick {
        (60_000, 7)
    } else {
        (400_000, 15)
    };
    // Single-threaded engine: the comparison isolates dispatch and
    // sampling cost per core, independent of pool scheduling.
    let sim = Simulation::new(trials, SEED).with_threads(1);

    println!(
        "simulator_throughput: {trials} trials/run, δ = {DELTA}, single-threaded{}",
        if smoke {
            " (smoke)"
        } else if quick {
            " (quick)"
        } else {
            ""
        }
    );

    let mut timings = Vec::new();
    let mut metrics_ratios: Vec<(usize, f64)> = Vec::new();
    for n in SIZES {
        let threshold = SingleThresholdAlgorithm::symmetric(n, Rational::ratio(622, 1000))
            .expect("valid symmetric thresholds");
        let oblivious = ObliviousAlgorithm::fair(n);
        let rules: [(&str, &dyn LocalRule); 2] =
            [("threshold", &threshold), ("oblivious", &oblivious)];
        for (family, rule) in rules {
            // Transparency first: the opaque path runs the same lanes
            // as the kernel and must agree exactly; the baseline is a
            // different stream estimating the same probability.
            let lane_ref = sim.run(rule, DELTA);
            assert_eq!(sim.run(&Opaque(rule), DELTA), lane_ref);
            let base_ref = dyn_baseline(rule, DELTA, trials, SEED);
            assert!(
                lane_ref.agrees_with(base_ref.estimate, 5.0),
                "{family} n = {n}: lane {lane_ref} vs baseline {base_ref}"
            );

            let (dyn_ns, lane_ns) = paired_min_ns(
                samples,
                || dyn_baseline(rule, DELTA, trials, SEED),
                || sim.run(rule, DELTA),
            );
            timings.push(PairedTiming {
                label: format!("{family} n = {n} · lane"),
                cold_ns: dyn_ns,
                memoized_ns: lane_ns,
            });
            let (dyn_opaque_ns, opaque_ns) = paired_min_ns(
                samples,
                || dyn_baseline(rule, DELTA, trials, SEED),
                || sim.run(&Opaque(rule), DELTA),
            );
            timings.push(PairedTiming {
                label: format!("{family} n = {n} · opaque"),
                cold_ns: dyn_opaque_ns,
                memoized_ns: opaque_ns,
            });
            print!(
                "{family} n = {n}: dyn {:>12.0}/s   lane {:>12.0}/s ({:.2}x)   opaque {:>12.0}/s ({:.2}x)",
                trials_per_sec(trials, dyn_ns),
                trials_per_sec(trials, lane_ns),
                dyn_ns / lane_ns,
                trials_per_sec(trials, opaque_ns),
                dyn_opaque_ns / opaque_ns,
            );
            if family == "threshold" {
                // The instrumented lane path: same engine, a live
                // EngineMetrics sink attached. Flushes are per batch,
                // so this must stay within noise of the plain path.
                let metered_sim = sim.clone().with_metrics(Arc::new(EngineMetrics::new()));
                assert_eq!(metered_sim.run(rule, DELTA), lane_ref);
                let (plain_ns, metered_ns) = paired_min_ns(
                    samples,
                    || sim.run(rule, DELTA),
                    || metered_sim.run(rule, DELTA),
                );
                metrics_ratios.push((n, metered_ns / plain_ns));
                timings.push(PairedTiming {
                    label: format!("threshold n = {n} · kernel+metrics"),
                    cold_ns: plain_ns,
                    memoized_ns: metered_ns,
                });
                print!("   metered ({:.3}x of lane)", metered_ns / plain_ns);
            }
            println!();
        }
    }

    let path = output_path(smoke, quick);
    write_bench_json(&path, "simulator_throughput", &timings).expect("write bench JSON");
    println!("written: {}", path.display());

    if !smoke && !quick {
        let speedup_of = |label: &str| {
            timings
                .iter()
                .find(|t| t.label == label)
                .unwrap_or_else(|| panic!("row {label} measured"))
                .speedup()
        };
        let lane_n8 = speedup_of("threshold n = 8 · lane");
        assert!(
            lane_n8 >= 4.0,
            "lane kernel must be at least 4x over the v1 dyn baseline at n = 8, got {lane_n8:.2}x"
        );
        // Observability must be free: the metrics-enabled lane path
        // stays within 2% of the uninstrumented one at every size,
        // judged on the drift-free paired min-time ratio.
        for (n, ratio) in &metrics_ratios {
            assert!(
                *ratio <= 1.02,
                "threshold n = {n}: metrics overhead {:.1}% exceeds the 2% budget",
                (ratio - 1.0) * 100.0
            );
        }
    }
}
