//! `mc-sweep`: the Monte-Carlo validation of Theorem 5.1 — the
//! symmetric threshold family at n = 8, δ = 8/3, on a 33-point β grid —
//! run three ways in every pass (`wall_s` is the pass's sum of the three):
//!
//! * leg A: `sweep_threshold_with_engine` on a 2-thread engine (the
//!   lane kernel);
//! * leg B: `Simulation::run` on a benchmark-defined rule that wraps the
//!   same threshold rule but gives no kernel hint, the path
//!   user-defined rules take;
//! * leg C: the leg A sweep through `orchestrator::run_sweep` with 2
//!   `nocomm-shard` worker processes.
//!
//! Layer chain: rand counter → simulator kernel → pool → checkpoint →
//! orchestrator processes. The analytic core appears only as the
//! oracle, outside the timed phases.

use crate::stats::{
    median, median_time, per_call, time_each, Gen, PassClock, Tally, SETUPS_PER_PASS,
};
use crate::trace::{SpanId, Tracer};
use crate::{Env, Outcome};
use decision::{Bin, Capacity, LocalRule, SingleThresholdAlgorithm};
use orchestrator::{run_sweep, run_sweep_with_metrics, split_grid, OrchestratorConfig, WorkerSpec};
use rand::counter::{threefry4x64_lanes, CounterKey};
use rational::Rational;
use simulator::{
    sweep_threshold_analytic, sweep_threshold_shard_with_metrics, sweep_threshold_with_engine,
    EngineMetrics, Simulation, SimulationReport, SweepCheckpoint,
};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

const N: usize = 8;
const GRID: usize = 32;
/// Trials per grid point (≈ 2M). Legs of about a second each keep a
/// pass near 4 s, so a 30 s run takes the median of about seven passes:
/// the box's speed swings from pass to pass, and the opaque leg most.
const TRIALS: u64 = 1 << 21;
/// Trials of the opaque-rule run (≈ 1.3 s on the reference box).
const OPAQUE_TRIALS: u64 = 1 << 24;
/// Trials of the opaque engine's warm-up run.
const WARM_OPAQUE_TRIALS: u64 = 1 << 20;
const THREADS: usize = 2;
const WORKERS: usize = 2;
const MIN_PASSES: usize = 2;
/// Standard errors a Monte-Carlo estimate may sit from its oracle.
const Z: f64 = 5.0;

fn delta() -> f64 {
    N as f64 / 3.0
}

/// The same threshold rule with no kernel hint: the engine must treat
/// it as an opaque user-defined rule.
struct Opaque(SingleThresholdAlgorithm);

impl LocalRule for Opaque {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn decide(&self, player: usize, input: f64, coin: f64) -> Bin {
        self.0.decide(player, input, coin)
    }
}

/// Everything drawn from the seed argument.
struct Inputs {
    sweep_seed: u64,
    opaque_seed: u64,
    /// The symmetric rule of the opaque-rule run, at a grid value
    /// β = k/32 with k in 8..=24.
    rule: SingleThresholdAlgorithm,
}

impl Inputs {
    fn new(seed: u64) -> Result<Inputs, String> {
        let mut g = Gen::new(seed, 2);
        let sweep_seed = g.next_u64();
        let opaque_seed = g.next_u64();
        let beta = Rational::ratio(g.range(8, 24) as i64, GRID as i64);
        Ok(Inputs {
            sweep_seed,
            opaque_seed,
            rule: SingleThresholdAlgorithm::symmetric(N, beta).map_err(|e| e.to_string())?,
        })
    }

    fn rule(&self) -> SingleThresholdAlgorithm {
        self.rule.clone()
    }

    fn request(&self) -> SweepCheckpoint {
        SweepCheckpoint::new(N, delta(), GRID, TRIALS, self.sweep_seed)
    }
}

/// The warmed engines, the oracles and the scratch directory.
struct Setup {
    engine: Simulation,
    metrics: Arc<EngineMetrics>,
    opaque_engine: Simulation,
    opaque_metrics: Arc<EngineMetrics>,
    oracle: Vec<f64>,
    exact_p: f64,
    dir: PathBuf,
}

fn set_up(env: &Env, inputs: &Inputs) -> Result<Setup, String> {
    let metrics = Arc::new(EngineMetrics::new());
    let engine = Simulation::new(TRIALS, inputs.sweep_seed)
        .with_threads(THREADS)
        .with_metrics(metrics.clone());
    let opaque_metrics = Arc::new(EngineMetrics::new());
    let opaque_engine = Simulation::new(OPAQUE_TRIALS, inputs.opaque_seed)
        .with_threads(THREADS)
        .with_metrics(opaque_metrics.clone());
    // One warm-up run per kernel (a grid point's worth for the lane
    // kernel) fills the caches. It runs on a throwaway engine, so the
    // measured engines' counters hold the legs alone.
    let rule = inputs.rule();
    let warm = Simulation::new(TRIALS, !inputs.sweep_seed).with_threads(THREADS);
    std::hint::black_box(warm.run(&rule, delta()));
    let warm = warm
        .retargeted(WARM_OPAQUE_TRIALS, !inputs.opaque_seed)
        .map_err(|e| e.to_string())?;
    std::hint::black_box(warm.run(&Opaque(inputs.rule()), delta()));
    let oracle = sweep_threshold_analytic(N, delta(), GRID)
        .map_err(|e| e.to_string())?
        .iter()
        .map(|p| p.probability)
        .collect();
    let capacity = Capacity::new(Rational::ratio(N as i64, 3)).map_err(|e| e.to_string())?;
    let exact_p = decision::winning_probability_threshold(&rule, &capacity)
        .map_err(|e| e.to_string())?
        .to_f64();
    let dir = env.work_dir.join("mc-sweep");
    reset_dir(&dir)?;
    // Start the worker binary once (a tiny shard, run directly), so the
    // first timed leg C does not pay for loading it.
    let warm = Command::new(env.bin_dir.join("nocomm-shard"))
        .args([
            "run", "--n", "8", "--delta", "1", "--grid", "2", "--trials", "64",
        ])
        .args(["--seed", "1", "--start", "0", "--points", "3", "--out"])
        .arg(dir.join("warm.json"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the worker: {e}"))?;
    if !warm.success() {
        return Err(format!("the warm-up worker failed: {warm}"));
    }
    Ok(Setup {
        engine,
        metrics,
        opaque_engine,
        opaque_metrics,
        oracle,
        exact_p,
        dir,
    })
}

fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

/// Exact counts read from the public counters after each pass; they
/// must repeat exactly from pass to pass.
#[derive(Clone, Debug, PartialEq)]
struct Counts {
    lane_trials: u64,
    lane_blocks: u64,
    pool_jobs: u64,
    pool_batches: u64,
    wins: Vec<u64>,
    opaque_trials: u64,
    opaque_draws: u64,
    opaque_wins: u64,
    shard_issued: u64,
    shard_reissued: u64,
    shard_completed: u64,
}

/// One pass: the three legs, timed, and what they returned.
struct Pass {
    wall_a: f64,
    wall_b: f64,
    wall_c: f64,
    counts: Counts,
    /// Share of pool time spent busy in leg A.
    busy_share: f64,
}

/// Runs the three legs on a fresh set-up, which it consumes: the pools
/// count a job only after handing back its results, so the engines are
/// dropped (joining their workers) before the exact counts are read.
fn pass(
    env: &Env,
    inputs: &Inputs,
    setup: Setup,
    tally: &mut Tally,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> Result<Pass, String> {
    // Leg A.
    let start = Instant::now();
    let points =
        sweep_threshold_with_engine(&setup.engine, N, delta(), GRID).map_err(|e| e.to_string())?;
    let end = Instant::now();
    tracer.record(
        "simulator.sweep_threshold_with_engine",
        parent,
        1,
        start,
        end,
    );
    let wall_a = (end - start).as_secs_f64();
    let after_a = setup.metrics.snapshot();

    // Leg B.
    let rule = Opaque(inputs.rule());
    let start = Instant::now();
    let opaque = setup.opaque_engine.run(&rule, delta());
    let end = Instant::now();
    tracer.record("simulator.run_opaque", parent, 2, start, end);
    let wall_b = (end - start).as_secs_f64();

    // Leg C.
    let leg_c = setup.dir.join("leg-c");
    reset_dir(&leg_c)?;
    let config = OrchestratorConfig::new(
        WORKERS,
        &leg_c,
        WorkerSpec::new(env.bin_dir.join("nocomm-shard")),
    );
    let shard_metrics = Arc::new(EngineMetrics::new());
    let start = Instant::now();
    let merged = run_sweep_with_metrics(&inputs.request(), &config, shard_metrics.clone());
    let end = Instant::now();
    tracer.record("orchestrator.run_sweep", parent, 3, start, end);
    let wall_c = (end - start).as_secs_f64();
    let ledger = shard_metrics.snapshot();

    // Checks, outside the timed legs.
    for (k, (p, want)) in points.iter().zip(&setup.oracle).enumerate() {
        tally.check(within(&p.report, *want), || {
            format!("leg A point {k}: {} vs analytic {want}", p.report.estimate)
        });
    }
    tally.check(points.len() == GRID + 1, || {
        format!("leg A has {} points", points.len())
    });
    tally.check(within(&opaque, setup.exact_p), || {
        format!("leg B: {} vs exact {}", opaque.estimate, setup.exact_p)
    });
    let single = checkpoint_of(inputs, &points);
    let same = merged
        .as_ref()
        .is_ok_and(|m| m.to_json() == single.to_json() && m.checksum() == single.checksum());
    tally.check(same, || match &merged {
        Ok(_) => "leg C checkpoint differs from leg A".to_owned(),
        Err(e) => format!("leg C failed: {e}"),
    });

    let Setup {
        engine,
        metrics,
        opaque_engine,
        opaque_metrics,
        ..
    } = setup;
    drop((engine, opaque_engine));
    let (lane, opaque_counts) = (metrics.snapshot(), opaque_metrics.snapshot());
    let (busy, idle) = (after_a.pool_busy_ns, after_a.pool_idle_ns);
    Ok(Pass {
        wall_a,
        wall_b,
        wall_c,
        busy_share: busy as f64 / (busy + idle).max(1) as f64,
        counts: Counts {
            lane_trials: lane.trials,
            lane_blocks: lane.rng_lane_blocks,
            pool_jobs: lane.pool_jobs,
            pool_batches: lane.pool_batches,
            wins: points.iter().map(|p| p.report.wins).collect(),
            opaque_trials: opaque_counts.trials,
            opaque_draws: opaque_counts.rng_draws,
            opaque_wins: opaque.wins,
            shard_issued: ledger.shard_issued,
            shard_reissued: ledger.shard_reissued,
            shard_completed: ledger.shard_completed,
        },
    })
}

/// Whether `report` lies within [`Z`] standard errors of `exact`.
fn within(report: &SimulationReport, exact: f64) -> bool {
    let se = report.std_error.max(1.0 / report.trials as f64);
    (report.estimate - exact).abs() <= Z * se
}

/// The whole-grid checkpoint a single process writes for these points.
fn checkpoint_of(inputs: &Inputs, points: &[simulator::SweepPoint]) -> SweepCheckpoint {
    let mut doc = inputs.request();
    doc.wins = points.iter().map(|p| p.report.wins).collect();
    doc
}

pub fn run(env: &Env, tracer: &mut Tracer) -> Result<Outcome, String> {
    let worker = env.bin_dir.join("nocomm-shard");
    if !worker.is_file() {
        return Err(format!("worker binary {} is missing", worker.display()));
    }
    let inputs = Inputs::new(env.seed)?;
    let mut tally = Tally::default();
    if env.trace {
        return traced(env, &inputs, tally, tracer);
    }
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut clock = PassClock::new(env.seconds, MIN_PASSES);
    while clock.another() {
        let start = Instant::now();
        let setup = time_each(SETUPS_PER_PASS, &mut setups, || set_up(env, &inputs))?;
        let p = pass(env, &inputs, setup, &mut tally, tracer, None)?;
        tally.note(format!(
            "mc-sweep pass: A {:.4} s, B {:.4} s, C {:.4} s",
            p.wall_a, p.wall_b, p.wall_c
        ));
        passes.push(p);
        clock.finished(start);
    }
    check_counts(env, &passes, &mut tally);
    let pick = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let rss = crate::stats::peak_rss_mb("self").ok_or("cannot read VmHWM")?;
    Ok(Outcome {
        tally,
        metrics: vec![
            ("setup_s", median(&setups)),
            ("wall_s", pick(|p| p.wall_a + p.wall_b + p.wall_c)),
            ("peak_rss_mb", rss),
        ],
    })
}

/// Every pass must read the same exact counts as the first (and as
/// earlier runs with this seed), and the supervision ledger must show
/// one clean issue per shard.
fn check_counts(env: &Env, passes: &[Pass], tally: &mut Tally) {
    let first = &passes[0].counts;
    for (i, p) in passes.iter().enumerate().skip(1) {
        tally.check(p.counts == *first, || {
            format!(
                "pass {i} counts {:?} differ from pass 0 {first:?}",
                p.counts
            )
        });
    }
    tally.check(
        first.shard_issued == WORKERS as u64
            && first.shard_completed == WORKERS as u64
            && first.shard_reissued == 0,
        || format!("shard ledger {first:?}"),
    );
    crate::same_as_earlier_runs(env, "mc-sweep", &format!("{first:?}"), tally);
}

/// The traced run: an untraced pass and a traced pass (their difference
/// is the tracing overhead), then each layer's unit cost.
fn traced(
    env: &Env,
    inputs: &Inputs,
    mut tally: Tally,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut off = Tracer::new(false);
    let setup = set_up(env, inputs)?;
    let dir = setup.dir.clone();
    let start = Instant::now();
    let plain = pass(env, inputs, setup, &mut tally, &mut off, None)?;
    let wall_untraced = start.elapsed().as_secs_f64();
    let setup = set_up(env, inputs)?;
    let root = tracer.open("mc-sweep.pass", None, 0);
    let start = Instant::now();
    let second = pass(env, inputs, setup, &mut tally, tracer, root)?;
    let wall_traced = start.elapsed().as_secs_f64();
    tracer.close(root);
    let passes = [plain, second];
    check_counts(env, &passes, &mut tally);
    let plain = &passes[0];

    let layers = tracer.open("mc-sweep.layers", None, 0);
    // One Threefry-4x64 call fills 16 lanes: 16 blocks.
    let key = CounterKey::from_seed(inputs.sweep_seed);
    let mut ctr = [[0u64; 16]; 4];
    let block_ns = tracer.span("rand.threefry4x64_lanes", layers, 0, || {
        1e9 / 16.0
            * per_call(7, 1 << 14, |i| {
                for (j, c) in ctr[0].iter_mut().enumerate() {
                    *c = (i * 16 + j) as u64;
                }
                std::hint::black_box(threefry4x64_lanes::<16>(&key, &ctr));
            })
    });
    let rule = inputs.rule();
    let lane_trials = 1u64 << 22;
    let one_thread = Simulation::new(lane_trials, inputs.sweep_seed).with_threads(1);
    let lane_ns = tracer.span("simulator.lane_kernel", layers, 0, || {
        1e9 * median_time(3, || one_thread.run(&rule, delta())).0 / lane_trials as f64
    });
    let opaque_trials = 1u64 << 20;
    let one_thread = Simulation::new(opaque_trials, inputs.opaque_seed).with_threads(1);
    let opaque = Opaque(inputs.rule());
    let opaque_ns = tracer.span("simulator.opaque_kernel", layers, 0, || {
        1e9 * median_time(3, || one_thread.run(&opaque, delta())).0 / opaque_trials as f64
    });

    // Checkpoint layer, on the whole-grid document of leg A.
    let doc = {
        let mut d = inputs.request();
        d.wins.clone_from(&plain.counts.wins);
        d
    };
    let path = dir.join("bench-checkpoint.json");
    let write_ms = tracer.span("simulator.write_atomic", layers, 0, || {
        1e3 * median_time(21, || doc.write_atomic(&path)).0
    });
    let text = doc.to_json();
    let parse_ms = tracer.span("simulator.checkpoint_parse", layers, 0, || {
        1e3 * median_time(21, || SweepCheckpoint::parse(&text)).0
    });
    let shards: Vec<SweepCheckpoint> = split_grid(GRID, WORKERS)
        .iter()
        .map(|s| {
            let mut shard = SweepCheckpoint::shard(
                N,
                delta(),
                GRID,
                TRIALS,
                inputs.sweep_seed,
                s.start,
                s.points,
            );
            shard.wins = doc.wins[s.start..s.start + s.points].to_vec();
            shard
        })
        .collect();
    let request = inputs.request();
    let merge_ms = tracer.span("simulator.merge_shards", layers, 0, || {
        1e3 * median_time(21, || SweepCheckpoint::merge_shards(&request, &shards)).0
    });
    // Checkpoint writes of the leg C shard plan, counted in-process on
    // the same shards with few trials (one write per point either way).
    let writes = Arc::new(EngineMetrics::new());
    for s in split_grid(GRID, WORKERS) {
        let shard_path = dir.join(format!("count-shard-{}.json", s.index));
        let _ = std::fs::remove_file(&shard_path);
        let shard =
            SweepCheckpoint::shard(N, delta(), GRID, 4096, inputs.sweep_seed, s.start, s.points);
        sweep_threshold_shard_with_metrics(shard, &shard_path, writes.clone())
            .map_err(|e| e.to_string())?;
    }
    // Spawn and reap of one tiny worker shard.
    let tiny = SweepCheckpoint::new(N, delta(), 2, 1024, inputs.sweep_seed);
    let spawn_dir = dir.join("spawn");
    let config = OrchestratorConfig::new(
        1,
        &spawn_dir,
        WorkerSpec::new(env.bin_dir.join("nocomm-shard")),
    );
    let mut spawn_times = Vec::new();
    for _ in 0..3 {
        reset_dir(&spawn_dir)?;
        let start = Instant::now();
        let done = run_sweep(&tiny, &config);
        let end = Instant::now();
        tracer.record("orchestrator.spawn_tiny_shard", layers, 0, start, end);
        tally.check(done.is_ok(), || {
            format!("tiny shard failed: {:?}", done.err())
        });
        spawn_times.push((end - start).as_secs_f64());
    }
    tracer.close(layers);

    let c = &plain.counts;
    Ok(Outcome {
        tally,
        metrics: vec![
            ("rand.threefry_ns_per_block", block_ns),
            ("simulator.lane_ns_per_trial", lane_ns),
            (
                "rng.lane_blocks_per_trial",
                c.lane_blocks as f64 / c.lane_trials as f64,
            ),
            ("pool.busy_share", plain.busy_share),
            ("pool.jobs", c.pool_jobs as f64),
            ("pool.batches", c.pool_batches as f64),
            ("simulator.opaque_ns_per_trial", opaque_ns),
            (
                "rng.draws_per_trial.opaque",
                c.opaque_draws as f64 / c.opaque_trials as f64,
            ),
            ("simulator.checkpoint_write_ms", write_ms),
            (
                "sweep.checkpoint_writes",
                writes.snapshot().sweep_checkpoint_writes as f64,
            ),
            ("simulator.checkpoint_parse_ms", parse_ms),
            ("simulator.merge_ms", merge_ms),
            ("orchestrator.spawn_ms", 1e3 * median(&spawn_times)),
            ("orchestrator.overhead_s", plain.wall_c - plain.wall_a),
            ("shard.issued", c.shard_issued as f64),
            ("shard.reissued", c.shard_reissued as f64),
            ("simulator.lane_sweep_s", plain.wall_a),
            ("simulator.opaque_run_s", plain.wall_b),
            ("orchestrator.sharded_sweep_s", plain.wall_c),
            ("trace.overhead_s.mc-sweep", wall_traced - wall_untraced),
        ],
    })
}
