//! `service-mix`: the daemon's query mix, closed loop over 2
//! connections to a `nocomm-service serve` child process.
//!
//! Per pass (60k requests, drawn from the seed):
//!
//! * ≈ 70% hot `pwin`: symmetric thresholds, n = 3..=8 at 4 β values,
//!   primed during set-up so they hit the cache;
//! * ≈ 27% `threshold` lookups, n = 2..=128 (also primed);
//! * ≈ 2% cold `pwin`: distinct asymmetric thresholds at n = 8..=12,
//!   each a Theorem 5.1 inclusion–exclusion on a cache miss;
//! * ≈ 1% `simulate` with 40k trials (3 pool batches).
//!
//! Closed loop fits: the daemon's callers wait for each reply. Every
//! pass starts a fresh daemon, so the cold class stays cold; the set-up
//! (spawn, connect, prime) is timed several times per pass and reported
//! as the median over the run.
//! Layer chain: service wire → cache → compute → serialize → socket.

use crate::stats::{
    median, per_call, percentile, sorted, time_each, Gen, PassClock, Tally, SETUPS_PER_PASS,
};
use crate::trace::{SpanId, Tracer};
use crate::{Env, Outcome};
use decision::certified::ThresholdRow;
use service::{
    AnalyticCache, CacheStatus, Client, Envelope, Outcome as Answer, Request, Response, RuleSpec,
    ServiceMetrics,
};
use simulator::Simulation;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections driving the closed loop.
const CONNECTIONS: usize = 2;
/// Requests per pass, split evenly over the connections.
const REQUESTS: usize = 60_000;
/// Trials of one `simulate` request: 3 batches of the daemon's 16384.
const SIM_TRIALS: u64 = 40_000;
const MIN_PASSES: usize = 2;
/// Largest n in the committed table.
const TABLE_MAX_N: u64 = 128;

/// The request classes of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Class {
    PWinHot,
    Threshold,
    PWinCold,
    Simulate,
}

const CLASSES: [Class; 4] = [
    Class::PWinHot,
    Class::PWinCold,
    Class::Threshold,
    Class::Simulate,
];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::PWinHot => "pwin_hot",
            Class::Threshold => "threshold",
            Class::PWinCold => "pwin_cold",
            Class::Simulate => "simulate",
        }
    }
}

fn capacity(n: usize) -> f64 {
    n as f64 / 3.0
}

/// The seeded request mix.
struct Mix {
    /// The hot shapes, primed during set-up.
    hot: Vec<Request>,
    /// One request list per connection.
    lists: Vec<Vec<(Class, Request)>>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut g = Gen::new(seed, 3);
        let betas: Vec<f64> = (0..4).map(|_| 0.25 + 0.5 * g.unit()).collect();
        let mut hot = Vec::new();
        for n in 3..=8 {
            for &b in &betas {
                hot.push(Request::PWin {
                    delta: capacity(n),
                    rule: RuleSpec::threshold(vec![b; n]),
                });
            }
        }
        let lists = (0..CONNECTIONS)
            .map(|c| {
                let mut g = Gen::new(seed, 10 + c as u64);
                (0..REQUESTS / CONNECTIONS)
                    .map(|_| {
                        let u = g.unit();
                        if u < 0.70 {
                            let k = g.range(0, hot.len() as u64 - 1) as usize;
                            (Class::PWinHot, hot[k].clone())
                        } else if u < 0.97 {
                            let n = g.range(2, TABLE_MAX_N) as u32;
                            (Class::Threshold, Request::Threshold { n })
                        } else if u < 0.99 {
                            let n = g.range(8, 12) as usize;
                            let t = (0..n).map(|_| 0.05 + 0.9 * g.unit()).collect();
                            let rule = RuleSpec::threshold(t);
                            (
                                Class::PWinCold,
                                Request::PWin {
                                    delta: capacity(n),
                                    rule,
                                },
                            )
                        } else {
                            let n = g.range(3, 8) as usize;
                            let b = 0.3 + 0.4 * g.unit();
                            let request = Request::Simulate {
                                delta: capacity(n),
                                trials: SIM_TRIALS,
                                seed: g.next_u64(),
                                rule: RuleSpec::threshold(vec![b; n]),
                            };
                            (Class::Simulate, request)
                        }
                    })
                    .collect()
            })
            .collect();
        Mix { hot, lists }
    }

    /// Set-up requests: every hot shape and every table row once.
    fn priming(&self) -> Vec<(Class, Request)> {
        let rows = (2..=TABLE_MAX_N as u32).map(|n| (Class::Threshold, Request::Threshold { n }));
        self.hot
            .iter()
            .map(|r| (Class::PWinHot, r.clone()))
            .chain(rows)
            .collect()
    }

    fn count(&self, class: Class) -> u64 {
        self.lists
            .iter()
            .flatten()
            .filter(|(c, _)| *c == class)
            .count() as u64
    }

    /// The [`Counts`] the daemon must show once a pass has finished:
    /// priming misses every hot shape and table row, then hot and
    /// table requests hit and every cold request misses.
    fn expected_counts(&self) -> Counts {
        let primed = self.priming().len() as u64;
        let sims = self.count(Class::Simulate);
        [
            primed + REQUESTS as u64,
            self.count(Class::PWinHot) + self.count(Class::Threshold),
            primed + self.count(Class::PWinCold),
            sims,
            sims * SIM_TRIALS.div_ceil(16_384),
        ]
    }
}

/// The daemon's exact counters: requests, cache hits, cache misses,
/// simulate runs and their pool batches.
type Counts = [u64; 5];

/// The daemon's counters at the end of a pass. Each request bumps its
/// counters before its own response frame is taken, so the largest value
/// of each counter over the pass's frames is its final value.
fn final_counts<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Option<Counts> {
    samples
        .into_iter()
        .filter_map(|s| s.response.as_ref().ok())
        .map(|r| {
            let f = r.metrics;
            [
                f.requests,
                f.cache_hits,
                f.cache_misses,
                f.sim_runs,
                f.sim_batches,
            ]
        })
        .reduce(|a, b| std::array::from_fn(|i| a[i].max(b[i])))
}

/// A `nocomm-service serve` child; dropping it kills and reaps it.
struct Daemon {
    child: Child,
    addr: String,
    /// Kept open for the daemon's lifetime.
    stdout: Option<BufReader<ChildStdout>>,
}

impl Daemon {
    fn spawn(bin: &Path, table: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--table"])
            .arg(table)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take();
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout: stdout.map(BufReader::new),
        };
        let read = match daemon.stdout.as_mut() {
            Some(out) => out.read_line(&mut daemon.addr),
            None => Ok(0),
        };
        daemon.addr = daemon.addr.trim().to_owned();
        match read {
            Ok(n) if n > 0 => Ok(daemon),
            _ => Err("the daemon exited before printing its address".to_owned()),
        }
    }

    /// Asks the daemon to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let mut client = Client::connect(&self.addr).map_err(|e| e.to_string())?;
        client
            .roundtrip(Request::Shutdown)
            .map_err(|e| e.to_string())?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if self.child.try_wait().map_err(|e| e.to_string())?.is_some() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("the daemon did not drain within 10 s".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Still running here only on an error path. A failed kill means
        // it exited meanwhile; either way it is reaped below.
        if matches!(self.child.try_wait(), Ok(None)) && self.child.kill().is_err() {
            self.stdout = None;
        }
        drop(self.child.wait());
    }
}

/// One answered request.
struct Sample {
    class: Class,
    request: Request,
    start: Instant,
    end: Instant,
    response: Result<Response, String>,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// One pass: loop wall time, samples, daemon memory.
struct Pass {
    wall_s: f64,
    samples: Vec<Sample>,
    primed: Vec<Sample>,
    rss_mb: f64,
}

fn roundtrip(client: &mut Client, class: Class, request: &Request) -> Sample {
    let start = Instant::now();
    let response = client.roundtrip(request.clone()).map_err(|e| e.to_string());
    Sample {
        class,
        request: request.clone(),
        start,
        end: Instant::now(),
        response,
    }
}

/// A primed daemon with its connections open, ready for the loop.
struct Ready {
    daemon: Daemon,
    clients: Vec<Client>,
    primed: Vec<Sample>,
}

/// Spawns the daemon, connects and primes every hot shape and table row.
fn set_up(env: &Env, mix: &Mix) -> Result<Ready, String> {
    let table = env.repo_root.join("results").join("threshold_table.json");
    let daemon = Daemon::spawn(&env.bin_dir.join("nocomm-service"), &table)?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let primed = mix
        .priming()
        .iter()
        .map(|(class, request)| roundtrip(&mut clients[0], *class, request))
        .collect();
    Ok(Ready {
        daemon,
        clients,
        primed,
    })
}

/// One pass on a fresh daemon. Set-up runs [`SETUPS_PER_PASS`] times,
/// each timing appended to `setups`; the earlier daemons are killed
/// unused, the last one serves the loop.
fn pass(env: &Env, mix: &Mix, setups: &mut Vec<f64>) -> Result<Pass, String> {
    let Ready {
        daemon,
        mut clients,
        primed,
    } = time_each(SETUPS_PER_PASS, setups, || set_up(env, mix))?;

    let barrier = Barrier::new(CONNECTIONS + 1);
    let (wall_s, samples) = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&mix.lists)
            .map(|(client, list)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    list.iter()
                        .map(|(class, request)| roundtrip(client, *class, request))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut samples = Vec::with_capacity(REQUESTS);
        for h in handles {
            samples.extend(h.join().map_err(|_| "a load thread panicked".to_owned())?);
        }
        Ok::<_, String>((start.elapsed().as_secs_f64(), samples))
    })?;
    let rss_mb = crate::stats::peak_rss_mb(&daemon.child.id().to_string())
        .ok_or("cannot read the daemon's VmHWM")?;
    drop(clients);
    daemon.stop()?;
    Ok(Pass {
        wall_s,
        samples,
        primed,
        rss_mb,
    })
}

/// Direct library answers, computed once per distinct request and
/// shared by every pass.
struct Oracle {
    cache: AnalyticCache,
    engine: Simulation,
    table: Vec<ThresholdRow>,
    known: HashMap<String, Answer>,
    /// Seconds spent computing cold `pwin` and `simulate` answers, and
    /// how many.
    cold: (f64, u64),
    sims: (f64, u64),
}

impl Oracle {
    fn new(env: &Env) -> Result<Oracle, String> {
        let path = env.repo_root.join("results").join("threshold_table.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(Oracle {
            cache: AnalyticCache::new(),
            engine: Simulation::new(SIM_TRIALS, 0).with_threads(CONNECTIONS),
            table: service::load_threshold_table(&text)?.rows().to_vec(),
            known: HashMap::new(),
            cold: (0.0, 0),
            sims: (0.0, 0),
        })
    }

    /// The answer a direct library call gives for `request`, with the
    /// cache disposition the primed daemon must report.
    fn expected(&mut self, class: Class, request: &Request) -> Result<Answer, String> {
        let key = Envelope {
            id: 0,
            request: request.clone(),
        }
        .to_json();
        if let Some(known) = self.known.get(&key) {
            return Ok(known.clone());
        }
        let start = Instant::now();
        let answer = match request {
            Request::PWin { delta, rule } => {
                let (value, _) = self.cache.pwin(rule, *delta).map_err(|e| e.to_string())?;
                let cache = if class == Class::PWinCold {
                    CacheStatus::Miss
                } else {
                    CacheStatus::Hit
                };
                Answer::PWin { value, cache }
            }
            Request::Threshold { n } => {
                let row = self
                    .table
                    .iter()
                    .find(|r| r.n == *n)
                    .ok_or_else(|| format!("no table row {n}"))?;
                Answer::Threshold {
                    beta_lo: row.beta_lo,
                    beta_hi: row.beta_hi,
                    p_lo: row.p_lo,
                    p_hi: row.p_hi,
                    method: row.method.to_owned(),
                    cache: CacheStatus::Hit,
                }
            }
            Request::Simulate {
                delta,
                trials,
                seed,
                rule,
            } => {
                let rule = rule.build().map_err(|e| e.to_string())?;
                let run = self
                    .engine
                    .retargeted(*trials, *seed)
                    .map_err(|e| e.to_string())?;
                let report = run.run(&*rule, *delta);
                Answer::Simulate {
                    wins: report.wins,
                    trials: report.trials,
                }
            }
            other => return Err(format!("unexpected request kind {}", other.kind())),
        };
        let spent = start.elapsed().as_secs_f64();
        match class {
            Class::PWinCold => self.cold = (self.cold.0 + spent, self.cold.1 + 1),
            Class::Simulate => self.sims = (self.sims.0 + spent, self.sims.1 + 1),
            _ => {}
        }
        self.known.insert(key, answer.clone());
        Ok(answer)
    }

    /// Checks every sample of a pass bit for bit, and the daemon's final
    /// counters against the counts the mix implies. Returns the counters.
    fn check(&mut self, mix: &Mix, pass: &Pass, tally: &mut Tally) -> Option<Counts> {
        for (primed, s) in pass
            .primed
            .iter()
            .map(|s| (true, s))
            .chain(pass.samples.iter().map(|s| (false, s)))
        {
            let verdict = match (&s.response, self.expected(s.class, &s.request)) {
                (Ok(r), Ok(mut want)) => {
                    if primed {
                        set_miss(&mut want);
                    }
                    if r.outcome.as_ref() == Ok(&want) {
                        Ok(())
                    } else {
                        Err(format!(
                            "{:?} answered {:?}, expected {want:?}",
                            s.request, r.outcome
                        ))
                    }
                }
                (Err(e), _) => Err(format!("{:?}: transport error {e}", s.request)),
                (_, Err(e)) => Err(format!("{:?}: no oracle answer: {e}", s.request)),
            };
            tally.check(verdict.is_ok(), || verdict.unwrap_err());
        }
        let got = final_counts(&pass.samples);
        let want = mix.expected_counts();
        tally.check(got == Some(want), || {
            format!("final counters {got:?}, expected {want:?}")
        });
        got
    }
}

/// Priming requests are the first sight of their shape: a miss.
fn set_miss(answer: &mut Answer) {
    match answer {
        Answer::PWin { cache, .. } | Answer::Threshold { cache, .. } => *cache = CacheStatus::Miss,
        _ => {}
    }
}

pub fn run(env: &Env, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mix = Mix::new(env.seed);
    let mut oracle = Oracle::new(env)?;
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut counts = Vec::new();
    let mut clock = PassClock::new(env.seconds, MIN_PASSES);
    loop {
        // The traced run makes one untraced pass, then traced passes
        // until every class carries a p99 (at most 5).
        let more = if env.trace {
            passes.len() < 2 || (passes.len() < 6 && !enough_per_class(&passes[1..]))
        } else {
            clock.another()
        };
        if !more {
            break;
        }
        let start = Instant::now();
        let p = pass(env, &mix, &mut setups)?;
        tally.note(format!(
            "service-mix pass: set-up {:.4} s, loop {:.4} s",
            setups.last().copied().unwrap_or_default(),
            p.wall_s
        ));
        counts.push(oracle.check(&mix, &p, &mut tally));
        passes.push(p);
        clock.finished(start);
    }
    for (i, c) in counts.iter().enumerate().skip(1) {
        tally.check(*c == counts[0], || {
            format!("pass {i} counters {c:?} differ from pass 0 {:?}", counts[0])
        });
    }
    crate::same_as_earlier_runs(env, "service-mix", &format!("{:?}", counts[0]), &mut tally);
    if env.trace {
        return traced(&mix, &passes, &mut oracle, tally, tracer);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    Ok(Outcome {
        tally,
        metrics: vec![
            ("setup_s", median(&setups)),
            ("wall_s", median(&walls)),
            (
                "peak_rss_mb",
                passes.iter().map(|p| p.rss_mb).fold(0.0, f64::max),
            ),
        ],
    })
}

/// Whether every class has a p99 with ten samples beyond it.
fn enough_per_class(passes: &[Pass]) -> bool {
    CLASSES.iter().all(|&c| {
        let all: Vec<f64> = class_ms(passes, c);
        percentile(&sorted(&all), 0.99).is_some()
    })
}

fn class_ms(passes: &[Pass], class: Class) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| {
            p.samples
                .iter()
                .filter(move |s| s.class == class)
                .map(Sample::ms)
        })
        .collect()
}

/// The traced run. Pass 0 ran untraced; later passes are recorded as
/// spans (one per request, parented to its pass), their difference in
/// loop time is the tracing overhead. Per-class latencies come from the
/// traced passes; the wire, cache and frame layers are timed
/// in-process on the same requests.
fn traced(
    mix: &Mix,
    passes: &[Pass],
    oracle: &mut Oracle,
    tally: Tally,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let traced_passes = &passes[1..];
    for (i, p) in traced_passes.iter().enumerate() {
        let start = p.samples.iter().map(|s| s.start).min();
        let end = p.samples.iter().map(|s| s.end).max();
        if let (Some(start), Some(end)) = (start, end) {
            let root = tracer.record("service-mix.pass", None, 0, start, end);
            record_requests(tracer, root, i + 1, p);
        }
    }
    let overhead = traced_passes[0].wall_s - passes[0].wall_s;

    let Some(Request::PWin { delta, rule }) = mix.hot.last() else {
        return Err("the mix has no hot pwin shape".to_owned());
    };
    let envelope = Envelope {
        id: 42,
        request: Request::PWin {
            delta: *delta,
            rule: rule.clone(),
        },
    };
    let line = envelope.to_json();
    let us = |f: &mut dyn FnMut()| 1e6 * per_call(7, 2_000, |_| f());
    let request_encode = us(&mut || {
        std::hint::black_box(envelope.to_json());
    });
    let request_parse = us(&mut || {
        std::hint::black_box(Envelope::parse(&line).ok());
    });
    let response = traced_passes[0]
        .samples
        .iter()
        .find(|s| s.class == Class::PWinHot)
        .and_then(|s| s.response.as_ref().ok())
        .ok_or("no hot response")?
        .clone();
    let response_line = response.to_json();
    let response_encode = us(&mut || {
        std::hint::black_box(response.to_json());
    });
    let response_parse = us(&mut || {
        std::hint::black_box(Response::parse(&response_line).ok());
    });
    let cache_hit = us(&mut || {
        std::hint::black_box(oracle.cache.pwin(rule, *delta).ok());
    });
    let registry = ServiceMetrics::new(16_384);
    let frame = us(&mut || {
        std::hint::black_box(registry.frame());
    });
    let p = |class: Class, q: f64| -> Result<f64, String> {
        percentile(&sorted(&class_ms(traced_passes, class)), q)
            .ok_or_else(|| format!("too few {} samples for p{}", class.name(), q * 100.0))
    };
    // Over every request of the untraced pass, as the client sees it.
    let untraced = sorted(&passes[0].samples.iter().map(Sample::ms).collect::<Vec<_>>());
    let all = |q: f64| -> Result<f64, String> {
        percentile(&untraced, q).ok_or_else(|| format!("too few samples for p{}", q * 100.0))
    };
    let hot_p50_us = 1e3 * p(Class::PWinHot, 0.5)?;
    let layers =
        request_encode + request_parse + response_encode + response_parse + cache_hit + frame;
    let [_, hits, misses, _, _] =
        final_counts(&traced_passes[0].samples).ok_or("no response frame")?;

    let mut metrics = vec![
        ("service.request_encode_us", request_encode),
        ("service.request_parse_us", request_parse),
        ("service.response_encode_us", response_encode),
        ("service.response_parse_us", response_parse),
        ("service.cache_hit_us", cache_hit),
        ("service.metrics_frame_us", frame),
        ("service.socket_unattributed_us", hot_p50_us - layers),
        (
            "service.cache_miss_ms",
            1e3 * oracle.cold.0 / oracle.cold.1.max(1) as f64,
        ),
        (
            "service.simulate_ms",
            1e3 * oracle.sims.0 / oracle.sims.1.max(1) as f64,
        ),
        ("service.cache_hits", hits as f64),
        ("service.cache_misses", misses as f64),
        (
            "service.qps",
            passes[0].samples.len() as f64 / passes[0].wall_s,
        ),
        ("service.lat_p50_ms.all", all(0.5)?),
        ("service.lat_p99_ms.all", all(0.99)?),
        ("trace.overhead_s.service-mix", overhead),
    ];
    for (class, p50, p99) in [
        (
            Class::PWinHot,
            "service.lat_p50_ms.pwin_hot",
            "service.lat_p99_ms.pwin_hot",
        ),
        (
            Class::PWinCold,
            "service.lat_p50_ms.pwin_cold",
            "service.lat_p99_ms.pwin_cold",
        ),
        (
            Class::Threshold,
            "service.lat_p50_ms.threshold",
            "service.lat_p99_ms.threshold",
        ),
        (
            Class::Simulate,
            "service.lat_p50_ms.simulate",
            "service.lat_p99_ms.simulate",
        ),
    ] {
        metrics.push((p50, p(class, 0.5)?));
        metrics.push((p99, p(class, 0.99)?));
    }
    Ok(Outcome { tally, metrics })
}

fn record_requests(tracer: &mut Tracer, root: Option<SpanId>, pass: usize, p: &Pass) {
    for (i, s) in p.samples.iter().enumerate() {
        let id = (pass * REQUESTS + i) as u64;
        tracer.record(s.class.name(), root, id, s.start, s.end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_has_the_documented_shares() {
        let a = Mix::new(5);
        let b = Mix::new(5);
        assert_eq!(a.lists, b.lists);
        assert_ne!(Mix::new(6).lists, a.lists);
        let share = |c| a.count(c) as f64 / REQUESTS as f64;
        assert!((share(Class::PWinHot) - 0.70).abs() < 0.01);
        assert!((share(Class::Threshold) - 0.27).abs() < 0.01);
        assert!((share(Class::PWinCold) - 0.02).abs() < 0.004);
        assert!((share(Class::Simulate) - 0.01).abs() < 0.003);
        assert_eq!(a.hot.len(), 24);
    }

    #[test]
    fn cold_requests_are_distinct() {
        let mix = Mix::new(9);
        let mut cold: Vec<String> = mix
            .lists
            .iter()
            .flatten()
            .filter(|(c, _)| *c == Class::PWinCold)
            .map(|(_, r)| format!("{r:?}"))
            .collect();
        let total = cold.len();
        cold.sort();
        cold.dedup();
        assert_eq!(cold.len(), total);
    }

    #[test]
    fn one_pass_has_enough_samples_for_the_overall_p99() {
        let samples: Vec<f64> = (0..REQUESTS).map(|i| i as f64).collect();
        assert!(percentile(&samples, 0.99).is_some());
    }
}
