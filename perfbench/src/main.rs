//! `perfbench`: the nocomm benchmark.
//!
//! ```text
//! perfbench --workload <table-certify|mc-sweep|service-mix> --seed <n>
//!           --seconds <s> --trace <0|1>
//!           --bin-dir <dir with nocomm-service and nocomm-shard>
//!           --work-dir <scratch dir> --repo-root <checkout>
//! ```
//!
//! `perfbench/run.py` builds everything and supplies the last three
//! flags. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics of the workload, measured
//! untraced; with `--trace 1` they are the per-layer metrics of the whole
//! stack, from a run that records spans around each layer's public calls
//! (written to `<work-dir>/traces/`). See `perfbench/README.md` for the
//! glossary.

mod mix;
mod stats;
mod sweep;
mod table;
mod trace;

use stats::Tally;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// A metric of the manifest: its name and its unit.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// The end-to-end metrics. Every workload reports every one of them,
/// each from a measurement of its own (see [`WorkloadSpec::sources`]).
pub const END_TO_END: &[MetricSpec] =
    &[m("setup_s", "s"), m("wall_s", "s"), m("peak_rss_mb", "MB")];

/// The per-layer metrics of the whole stack. A traced run reports every
/// one of them, whichever workload it names: it walks the traced
/// measurement of each workload, the named one first, because each
/// layer is measured on the workload that puts it under load.
pub const PER_LAYER: &[MetricSpec] = &[
    // table-certify
    m("decision.exact_rows_s", "s"),
    m("decision.ball_rows_s", "s"),
    m("decision.analyze_s", "s"),
    m("polynomial.isolate_s", "s"),
    m("polynomial.sturm_refine_s", "s"),
    m("polynomial.breakpoint_eval_s", "s"),
    m("polynomial.critical_eval_s", "s"),
    m("rational.coeff_mul_ns", "ns"),
    m("rational.coeff_add_ns", "ns"),
    m("decision.exact_unattributed_s", "s"),
    m("rational.ball_eval_us.n16", "us"),
    m("rational.ball_eval_us.n32", "us"),
    m("rational.ball_eval_us.n64", "us"),
    m("decision.ball_evals_per_row_est", "count"),
    m("trace.overhead_s.table-certify", "s"),
    // mc-sweep
    m("simulator.lane_sweep_s", "s"),
    m("simulator.opaque_run_s", "s"),
    m("orchestrator.sharded_sweep_s", "s"),
    m("rand.threefry_ns_per_block", "ns"),
    m("simulator.lane_ns_per_trial", "ns"),
    m("rng.lane_blocks_per_trial", "count"),
    m("pool.busy_share", "ratio"),
    m("pool.jobs", "count"),
    m("pool.batches", "count"),
    m("simulator.opaque_ns_per_trial", "ns"),
    m("rng.draws_per_trial.opaque", "count"),
    m("simulator.checkpoint_write_ms", "ms"),
    m("sweep.checkpoint_writes", "count"),
    m("simulator.checkpoint_parse_ms", "ms"),
    m("simulator.merge_ms", "ms"),
    m("orchestrator.spawn_ms", "ms"),
    m("orchestrator.overhead_s", "s"),
    m("shard.issued", "count"),
    m("shard.reissued", "count"),
    m("trace.overhead_s.mc-sweep", "s"),
    // service-mix
    m("service.qps", "1/s"),
    m("service.lat_p50_ms.all", "ms"),
    m("service.lat_p99_ms.all", "ms"),
    m("service.request_encode_us", "us"),
    m("service.request_parse_us", "us"),
    m("service.response_encode_us", "us"),
    m("service.response_parse_us", "us"),
    m("service.cache_hit_us", "us"),
    m("service.metrics_frame_us", "us"),
    m("service.socket_unattributed_us", "us"),
    m("service.cache_miss_ms", "ms"),
    m("service.simulate_ms", "ms"),
    m("service.lat_p50_ms.pwin_hot", "ms"),
    m("service.lat_p50_ms.pwin_cold", "ms"),
    m("service.lat_p50_ms.threshold", "ms"),
    m("service.lat_p50_ms.simulate", "ms"),
    m("service.lat_p99_ms.pwin_hot", "ms"),
    m("service.lat_p99_ms.pwin_cold", "ms"),
    m("service.lat_p99_ms.threshold", "ms"),
    m("service.lat_p99_ms.simulate", "ms"),
    m("service.cache_hits", "count"),
    m("service.cache_misses", "count"),
    m("trace.overhead_s.service-mix", "s"),
];

/// A workload and what each end-to-end metric is measured from on it.
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One measurement per [`END_TO_END`] metric, in that order. No two
    /// share one, so no metric merely restates another.
    pub sources: [&'static str; 3],
}

/// Every workload.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "table-certify",
        sources: [
            "median set-up: read, validate and spot-check the committed table",
            "median pass: every row certified in build order",
            "VmHWM of the benchmark process",
        ],
    },
    WorkloadSpec {
        name: "mc-sweep",
        sources: [
            "median set-up: engines, oracles, scratch directory",
            "median pass: leg A lane sweep + leg B opaque run + leg C sharded sweep",
            "VmHWM of the benchmark process",
        ],
    },
    WorkloadSpec {
        name: "service-mix",
        sources: [
            "median set-up: spawn the daemon, connect, prime",
            "median pass: the closed loop of one request list",
            "VmHWM of the daemon child",
        ],
    },
];

/// What the workloads get from the command line.
pub struct Env {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub bin_dir: PathBuf,
    pub work_dir: PathBuf,
    pub repo_root: PathBuf,
}

/// What a workload hands back: its operation tally (with its log) and
/// its metrics by name.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Checks that a run's exact counts equal those an earlier run of the
/// same build with the same seed recorded, and records them if no run
/// has. A mismatch is a failed operation.
pub fn same_as_earlier_runs(env: &Env, workload: &str, counts: &str, tally: &mut Tally) {
    use std::hash::{Hash, Hasher};
    let mut build = std::collections::hash_map::DefaultHasher::new();
    let binaries = [
        std::env::current_exe().unwrap_or_default(),
        env.bin_dir.join("nocomm-service"),
        env.bin_dir.join("nocomm-shard"),
    ];
    for path in binaries {
        if let Ok(meta) = std::fs::metadata(&path) {
            meta.len().hash(&mut build);
            meta.modified().ok().hash(&mut build);
        }
    }
    let path = env.work_dir.join("counts").join(format!(
        "{workload}-seed{}-{:016x}.txt",
        env.seed,
        build.finish()
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) => tally.check(earlier == counts, || {
            format!("exact counts {counts} differ from an earlier run's {earlier}")
        }),
        Err(_) => {
            // Written aside and renamed, so a run cut short leaves no
            // partial record for later runs to disagree with.
            let partial = path.with_extension("partial");
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(&partial, counts))
                .and_then(|()| std::fs::rename(&partial, &path));
            if let Err(e) = written {
                eprintln!("perfbench: cannot record counts in {}: {e}", path.display());
            }
        }
    }
}

fn parse_args(args: &[String]) -> Result<(String, Env), String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let number = |flag: &str, text: String| -> Result<u64, String> {
        text.parse()
            .map_err(|_| format!("bad {flag} value {text:?}"))
    };
    let env = Env {
        seed: number("--seed", get("--seed")?)?,
        seconds: number("--seconds", get("--seconds")?)?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace value {other:?}")),
        },
        bin_dir: get("--bin-dir")?.into(),
        work_dir: get("--work-dir")?.into(),
        repo_root: get("--repo-root")?.into(),
    };
    Ok((workload, env))
}

/// Formats the result line, checking that the metrics are exactly the
/// ones the manifest declares for this mode.
fn result_line(trace: bool, outcome: &Outcome) -> Result<String, String> {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    let mut body = Vec::with_capacity(declared.len());
    for d in declared {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == d.name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !value.is_finite() || (!trace && value <= 0.0) {
            return Err(format!("metric {} has the unusable value {value}", d.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    if let Some((extra, _)) = outcome
        .metrics
        .iter()
        .find(|(name, _)| !declared.iter().any(|d| d.name == *name))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    let tally = &outcome.tally;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    ))
}

/// Runs one workload's measurement (traced or not, as `env` says) and
/// logs its notes and failures to standard error.
fn run_workload(name: &str, env: &Env, tracer: &mut Tracer) -> Result<Outcome, String> {
    let outcome = match name {
        "table-certify" => table::run(env, tracer),
        "mc-sweep" => sweep::run(env, tracer),
        _ => mix::run(env, tracer),
    }?;
    for note in outcome.tally.notes() {
        eprintln!("perfbench: {note}");
    }
    for message in outcome.tally.messages() {
        eprintln!("perfbench: FAILED: {message}");
    }
    Ok(outcome)
}

fn run(args: &[String]) -> Result<String, String> {
    let (workload, env) = parse_args(args)?;
    let spec = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    std::fs::create_dir_all(&env.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", env.work_dir.display()))?;
    let mut tracer = Tracer::new(env.trace);
    let outcome = if env.trace {
        // Every layer, each on the workload that loads it: the named
        // workload first, then the others.
        let order = std::iter::once(spec.name)
            .chain(WORKLOADS.iter().map(|w| w.name).filter(|&w| w != spec.name));
        let mut all = Outcome {
            tally: Tally::default(),
            metrics: Vec::new(),
        };
        for name in order {
            let one = run_workload(name, &env, &mut tracer)?;
            all.tally.absorb(one.tally);
            all.metrics.extend(one.metrics);
        }
        all
    } else {
        run_workload(spec.name, &env, &mut tracer)?
    };
    if tracer.enabled() {
        let path = env
            .work_dir
            .join("traces")
            .join(format!("{}-seed{}.jsonl", spec.name, env.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    result_line(env.trace, &outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use service::wire;

    fn benchmark_json() -> wire::Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        wire::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &wire::Json, key: &str) -> Vec<String> {
        let fields = doc.fields("benchmark").unwrap();
        wire::field(fields, key, "benchmark")
            .unwrap()
            .items(key)
            .unwrap()
            .iter()
            .map(|item| {
                let f = item.fields(key).unwrap();
                wire::field(f, "name", key)
                    .unwrap()
                    .str("name")
                    .unwrap()
                    .to_owned()
            })
            .collect()
    }

    /// `(name, unit)` of every metric the manifest lists under `key`.
    fn declared(doc: &wire::Json, key: &str) -> Vec<(String, String)> {
        let fields = doc.fields("benchmark").unwrap();
        wire::field(fields, key, "benchmark")
            .unwrap()
            .items(key)
            .unwrap()
            .iter()
            .map(|item| {
                let f = item.fields(key).unwrap();
                let get = |k: &str| wire::field(f, k, key).unwrap().str(k).unwrap().to_owned();
                (get("name"), get("unit"))
            })
            .collect()
    }

    fn ours(list: &[MetricSpec]) -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        let mut workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        workloads.sort_unstable();
        let mut listed = names(&doc, "workloads");
        listed.sort();
        assert_eq!(workloads, listed);
        assert_eq!(ours(END_TO_END), declared(&doc, "end_to_end"));
        assert_eq!(ours(PER_LAYER), declared(&doc, "per_layer"));
    }

    #[test]
    fn every_metric_name_is_used_once() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count);
    }

    #[test]
    fn no_end_to_end_metric_restates_another() {
        assert_eq!(END_TO_END.len(), WORKLOADS[0].sources.len());
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
        for w in WORKLOADS {
            let mut sources = w.sources.to_vec();
            sources.sort_unstable();
            sources.dedup();
            assert_eq!(sources.len(), w.sources.len(), "{}: shared source", w.name);
        }
    }

    #[test]
    fn result_line_rejects_missing_and_undeclared_metrics() {
        let all: Vec<(&'static str, f64)> = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let ok = Outcome {
            tally: Tally::default(),
            metrics: all.clone(),
        };
        let line = result_line(false, &ok).unwrap();
        let doc = wire::parse(&line).unwrap();
        let fields = doc.fields("result").unwrap();
        assert_eq!(
            wire::field(fields, "attempted", "r")
                .unwrap()
                .u64("a")
                .unwrap(),
            0
        );
        assert!(!wire::field(fields, "correct", "r")
            .unwrap()
            .bool("c")
            .unwrap());
        let missing = Outcome {
            tally: Tally::default(),
            metrics: all[1..].to_vec(),
        };
        assert!(result_line(false, &missing).is_err());
        let mut extra = all.clone();
        extra.push(("service.qps", 1.0));
        let extra = Outcome {
            tally: Tally::default(),
            metrics: extra,
        };
        assert!(result_line(false, &extra).is_err());
        let zero = Outcome {
            tally: Tally::default(),
            metrics: END_TO_END.iter().map(|m| (m.name, 0.0)).collect(),
        };
        assert!(result_line(false, &zero).is_err());
    }
}
