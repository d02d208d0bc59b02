//! `table-certify`: certify the β*_n rows of the committed table the way
//! `build_table` does, on the exact path (n = 2..=9) and the ball path
//! (n ∈ {12, 16, 24, 32, 48, 64}).
//!
//! Layer chain: bigint → polynomial/Sturm → uniform-sums →
//! `decision::certified`. The engine, the pool and the sockets stay
//! idle here. The measured passes are single-threaded.

use crate::stats::{
    median, median_time, per_call, time_each, Gen, PassClock, Tally, SETUPS_PER_PASS,
};
use crate::trace::{SpanId, Tracer};
use crate::{Env, Outcome};
use decision::certified::{certify, spot_check, Evaluator, ThresholdRow, EXACT_MAX, WIDTH_TARGET};
use decision::{symmetric, Capacity};
use polynomial::{Interval, Polynomial, SturmChain};
use rational::{Ball, Rational};
use std::path::Path;
use std::time::Instant;

/// Rows certified on the exact path. n = 10 (6.6 s alone on the
/// reference box) runs the same path as n = 9 and is left out.
pub const EXACT_ROWS: std::ops::RangeInclusive<u32> = 2..=9;

/// Rows certified on the ball path.
pub const BALL_ROWS: [u32; 6] = [12, 16, 24, 32, 48, 64];

/// Measured passes per run, at least.
const MIN_PASSES: usize = 2;

fn rows() -> impl Iterator<Item = u32> {
    EXACT_ROWS.chain(BALL_ROWS)
}

/// The committed table: the hints and the oracle.
struct Committed {
    rows: Vec<ThresholdRow>,
}

impl Committed {
    fn row(&self, n: u32) -> Option<&ThresholdRow> {
        self.rows.iter().find(|r| r.n == n)
    }

    /// The hint `build_table` passes for row `n`: the midpoint of the
    /// certified row `n − 1`.
    fn hint(&self, n: u32) -> Option<f64> {
        self.row(n - 1).map(|r| 0.5 * (r.beta_lo + r.beta_hi))
    }
}

/// The committed ball rows set-up spot-checks: every row from the first
/// hint of a ball row to the last oracle, n = 11..=64.
const SPOT_CHECKED: std::ops::RangeInclusive<u32> = 11..=64;

/// Reads and validates the committed table, and spot-checks (with
/// certified ball sign tests) the span of ball rows the workload takes
/// its hints and oracles from. Returns the table and the rows that
/// failed.
fn load_committed(repo_root: &Path) -> Result<(Committed, Vec<String>), String> {
    let path = repo_root.join("results").join("threshold_table.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let table = service::load_threshold_table(&text)?;
    let committed = Committed {
        rows: table.rows().to_vec(),
    };
    let mut bad = Vec::new();
    for (i, r) in committed.rows.iter().enumerate() {
        let well_formed = r.n as usize == i + 2
            && 0.0 < r.beta_lo
            && r.beta_lo <= r.beta_hi
            && r.beta_hi < 1.0
            && r.p_lo <= r.p_hi
            && r.beta_hi - r.beta_lo <= WIDTH_TARGET
            && r.p_hi - r.p_lo <= WIDTH_TARGET
            && (r.method == "exact") == (r.n <= EXACT_MAX);
        if !well_formed {
            bad.push(format!("committed row {} is malformed: {r:?}", i + 2));
        }
    }
    for n in SPOT_CHECKED {
        match committed.row(n) {
            Some(r) if spot_check(n, r.beta_lo, r.beta_hi) => {}
            Some(_) => bad.push(format!("committed row {n} fails its spot check")),
            None => bad.push(format!("committed table has no row {n}")),
        }
    }
    Ok((committed, bad))
}

/// One certified row: when it ran and whether it matched the table.
struct RowRun {
    n: u32,
    start: Instant,
    end: Instant,
    verdict: Result<(), String>,
}

impl RowRun {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Certifies every row once, in build order, checking each against the
/// committed table.
fn pass(committed: &Committed) -> Vec<RowRun> {
    rows()
        .map(|n| {
            let start = Instant::now();
            let result = certify(n, committed.hint(n));
            let end = Instant::now();
            let verdict = match (&result, committed.row(n)) {
                (Ok(got), Some(want)) => {
                    let overlaps = got.beta.lo <= want.beta_hi
                        && want.beta_lo <= got.beta.hi
                        && got.p.lo <= want.p_hi
                        && want.p_lo <= got.p.hi;
                    let tight = got.beta.hi - got.beta.lo <= WIDTH_TARGET
                        && got.p.hi - got.p.lo <= WIDTH_TARGET;
                    if overlaps && tight && got.method.as_str() == want.method {
                        Ok(())
                    } else {
                        Err(format!(
                            "row {n}: {got:?} disagrees with committed {want:?}"
                        ))
                    }
                }
                (Err(e), _) => Err(format!("row {n}: {e}")),
                (_, None) => Err(format!("row {n}: no committed row")),
            };
            RowRun {
                n,
                start,
                end,
                verdict,
            }
        })
        .collect()
}

/// One measured pass: its wall time and its time in exact and ball rows.
struct PassTimes {
    wall: f64,
    exact: f64,
    ball: f64,
}

/// Tallies a pass's verdicts, records its rows as spans under
/// `parent`, and sums its times.
fn account(
    runs: &[RowRun],
    tally: &mut Tally,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> PassTimes {
    let mut times = PassTimes {
        wall: 0.0,
        exact: 0.0,
        ball: 0.0,
    };
    for r in runs {
        tracer.record("decision.certify", parent, u64::from(r.n), r.start, r.end);
        tally.check(r.verdict.is_ok(), || r.verdict.clone().unwrap_err());
        if r.n <= EXACT_MAX {
            times.exact += r.secs();
        } else {
            times.ball += r.secs();
        }
    }
    if let (Some(first), Some(last)) = (runs.first(), runs.last()) {
        times.wall = (last.end - first.start).as_secs_f64();
    }
    times
}

pub fn run(env: &Env, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut set_up = |tally: &mut Tally| -> Result<Committed, String> {
        let (committed, bad) = time_each(SETUPS_PER_PASS, &mut setups, || {
            load_committed(&env.repo_root)
        })?;
        tally.check(bad.is_empty(), || bad.join("; "));
        Ok(committed)
    };
    if env.trace {
        let committed = set_up(&mut tally)?;
        return traced(env, &committed, tally, tracer);
    }
    let mut passes = Vec::new();
    let mut clock = PassClock::new(env.seconds, MIN_PASSES);
    while clock.another() {
        let start = Instant::now();
        let committed = set_up(&mut tally)?;
        let runs = pass(&committed);
        clock.finished(start);
        let t = account(&runs, &mut tally, tracer, None);
        let rows: Vec<String> = runs
            .iter()
            .map(|r| format!("{}:{:.4}", r.n, r.secs()))
            .collect();
        tally.note(format!(
            "table-certify pass: exact {:.4} s, ball {:.4} s; rows {}",
            t.exact,
            t.ball,
            rows.join(" ")
        ));
        passes.push(t);
    }
    let pick = |f: fn(&PassTimes) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let rss = crate::stats::peak_rss_mb("self").ok_or("cannot read VmHWM")?;
    Ok(Outcome {
        tally,
        metrics: vec![
            ("setup_s", median(&setups)),
            ("wall_s", pick(|t| t.wall)),
            ("peak_rss_mb", rss),
        ],
    })
}

/// The traced run: an untraced and a traced pass (the difference in
/// wall time is the tracing overhead), then the exact rows re-run layer
/// by layer and the per-layer unit costs.
fn traced(
    env: &Env,
    committed: &Committed,
    mut tally: Tally,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let untraced = pass(committed);
    let plain = account(&untraced, &mut tally, &mut Tracer::new(false), None);
    let root = tracer.open("table-certify.pass", None, 0);
    let runs = pass(committed);
    let traced = account(&runs, &mut tally, tracer, root);
    tracer.close(root);

    let mut metrics = unit_costs(env, committed, &untraced, tracer)?;
    let attributed: f64 = EXACT_LAYERS.iter().map(|l| tracer.total_s(l)).sum();
    metrics.extend([
        ("decision.analyze_s", tracer.total_s(EXACT_LAYERS[0])),
        ("polynomial.isolate_s", tracer.total_s(EXACT_LAYERS[1])),
        ("polynomial.sturm_refine_s", tracer.total_s(EXACT_LAYERS[2])),
        (
            "polynomial.breakpoint_eval_s",
            tracer.total_s(EXACT_LAYERS[3]),
        ),
        (
            "polynomial.critical_eval_s",
            tracer.total_s(EXACT_LAYERS[4]),
        ),
        ("decision.exact_unattributed_s", plain.exact - attributed),
        ("decision.exact_rows_s", plain.exact),
        ("decision.ball_rows_s", plain.ball),
        ("trace.overhead_s.table-certify", traced.wall - plain.wall),
    ]);
    Ok(Outcome { tally, metrics })
}

/// Spans of the exact layers, in the order of their metrics.
const EXACT_LAYERS: [&str; 5] = [
    "decision.analyze",
    "polynomial.isolate",
    "polynomial.sturm_refine",
    "polynomial.breakpoint_eval",
    "polynomial.critical_eval",
];

/// Re-runs the exact rows layer by layer (spans named in
/// [`EXACT_LAYERS`]) and measures the unit costs: rational arithmetic on
/// the real n = 9 coefficients and one certified ball evaluation per
/// ball row of the untraced pass `untraced`.
fn unit_costs(
    env: &Env,
    committed: &Committed,
    untraced: &[RowRun],
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let root = tracer.open("table-certify.exact_layers", None, 0);
    let mut coeffs = Vec::new();
    for n in EXACT_ROWS {
        coeffs = exact_layers(n, tracer, root)?;
    }
    tracer.close(root);

    // Bigint-backed rational arithmetic on the real n = 9 coefficients.
    let mut gen = Gen::new(env.seed, 1);
    let pairs: Vec<(Rational, Rational)> = (0..256)
        .map(|_| {
            let a = gen.range(0, coeffs.len() as u64 - 1) as usize;
            let b = gen.range(0, coeffs.len() as u64 - 1) as usize;
            (coeffs[a].clone(), coeffs[b].clone())
        })
        .collect();
    let mul_ns = 1e9
        * per_call(7, pairs.len(), |k| {
            std::hint::black_box(&pairs[k].0 * &pairs[k].1);
        });
    let add_ns = 1e9
        * per_call(7, pairs.len(), |k| {
            std::hint::black_box(&pairs[k].0 + &pairs[k].1);
        });

    // One certified ball evaluation per ball row, at the committed β*.
    let root = tracer.open("table-certify.ball_evals", None, 0);
    let mut evals_per_row = Vec::new();
    let mut eval_us = Vec::new();
    for r in untraced.iter().filter(|r| r.n > EXACT_MAX) {
        let ev = Evaluator::new(r.n);
        let row = committed.row(r.n).ok_or("ball row missing")?;
        let beta = Ball::point(0.5 * (row.beta_lo + row.beta_hi));
        let (secs, _) = tracer.span("rational.ball_eval", root, u64::from(r.n), || {
            median_time(15, || ev.eval(beta))
        });
        evals_per_row.push(r.secs() / secs);
        eval_us.push((r.n, secs * 1e6));
    }
    tracer.close(root);
    let eval_at = |n: u32| eval_us.iter().find(|e| e.0 == n).map_or(f64::NAN, |e| e.1);
    Ok(vec![
        ("rational.coeff_mul_ns", mul_ns),
        ("rational.coeff_add_ns", add_ns),
        ("rational.ball_eval_us.n16", eval_at(16)),
        ("rational.ball_eval_us.n32", eval_at(32)),
        ("rational.ball_eval_us.n64", eval_at(64)),
        (
            "decision.ball_evals_per_row_est",
            evals_per_row.iter().sum::<f64>() / evals_per_row.len() as f64,
        ),
    ])
}

/// Re-runs the first round of the exact certification of row `n` one
/// layer at a time through the layers' public calls: the symbolic
/// analysis, exact values at the breakpoints, Sturm isolation of each
/// piece derivative's roots, their bisection to 2⁻⁴⁴ and the exact
/// value at each refined critical point. Returns every
/// piece coefficient, for the rational-arithmetic timings.
fn exact_layers(
    n: u32,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<Vec<Rational>, String> {
    let row = tracer.open("exact_row", parent, u64::from(n));
    let req = u64::from(n);
    let capacity = Capacity::proportional(n as usize, 3);
    let pw = tracer
        .span("decision.analyze", row, req, || {
            symmetric::analyze(n as usize, &capacity)
        })
        .map_err(|e| e.to_string())?;
    tracer.span("polynomial.breakpoint_eval", row, req, || {
        for bp in pw.breakpoints() {
            std::hint::black_box(pw.eval(bp));
        }
    });
    let tol = Rational::ratio(1, 1i64 << 44);
    let mut coeffs = Vec::new();
    for (window, piece) in pw.breakpoints().windows(2).zip(pw.pieces()) {
        coeffs.extend(piece.coeffs().iter().cloned());
        let d = piece.derivative();
        if d.degree().is_none_or(|deg| deg == 0) {
            continue;
        }
        let roots = tracer.span("polynomial.isolate", row, req, || {
            d.isolate_roots(&window[0], &window[1])
        });
        let refined: Vec<Interval<Rational>> =
            tracer.span("polynomial.sturm_refine", row, req, || {
                roots.into_iter().map(|iv| refine(&d, iv, &tol)).collect()
            });
        tracer.span("polynomial.critical_eval", row, req, || {
            for iv in &refined {
                std::hint::black_box(piece.eval(&iv.midpoint()));
            }
        });
    }
    tracer.close(row);
    Ok(coeffs)
}

/// Bisects a Sturm isolating interval down to width `tol`.
fn refine(d: &Polynomial<Rational>, iv: Interval<Rational>, tol: &Rational) -> Interval<Rational> {
    let chain = SturmChain::new(d);
    let two = Rational::integer(2);
    let (mut lo, mut hi) = (iv.lo, iv.hi);
    while &(&hi - &lo) > tol {
        let mid = &(&lo + &hi) / &two;
        if chain.count_roots(&lo, &mid) == 1 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Interval { lo, hi }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }

    #[test]
    fn set_up_checks_the_committed_table_with_real_work() {
        let (committed, bad) = load_committed(root()).unwrap();
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(committed.hint(2), None);
        assert!(committed.hint(64).is_some());
        // Set-up spot-checks 54 ball rows (two certified ball
        // evaluations each, up to n = 64), so it is tens of
        // milliseconds of arithmetic, not a few milliseconds of file
        // reading that timer noise can swamp.
        let started = Instant::now();
        load_committed(root()).unwrap();
        assert!(started.elapsed().as_secs_f64() > 20e-3);
    }

    #[test]
    fn rows_follow_build_order() {
        let all: Vec<u32> = rows().collect();
        assert_eq!(all.first(), Some(&2));
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert!(all.iter().all(|&n| n != 10));
    }
}
