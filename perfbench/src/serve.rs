//! The served workloads — `serve-hot` (one daemon, a resident hot set)
//! and `serve-churn` (a router in front of two small-cache daemons with
//! spill tiers) — driven over two connections, one JSON and one binary.
//!
//! Each run is several rounds on freshly booted deployments. A round runs
//! three open-loop fixed-rate phases, at the rates frozen in
//! `perfbench/design.json`, whose latencies count from when each request
//! was due, then a closed-loop capacity phase. Every response is checked
//! against the library's wire references (`expected_results_wire`,
//! `expected_detections_wire`) computed in process.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use am_mesh::Resolution;
use am_router::{Router, RouterConfig};
use am_service::{
    expected_detections_wire, expected_results_wire, Client, Codec, DetectSpec, Endpoint, JobSpec,
    Response, RetryPolicy, RetryingClient, Server, ServerConfig,
};
use am_slicer::Orientation;
use obfuscade::json::{parse_json, Json};
use obfuscade::metrics::LatencyHistogram;
use obfuscade::{Deadline, StageCache, StageHasher};

use crate::inproc::{build_jobs, put_cache_metrics, put_trace_metrics, trace_jobs};
use crate::report::RunResult;
use crate::stats::{
    highest_supported, mean, median, outstanding_at, peak_rss_mb, percentile, rate_met, sorted,
    Timing,
};
use crate::trace::Recorder;
use crate::Rng;

/// Tail percentiles tried, highest first; the limit applies to the first
/// one a phase supports.
const TAIL_LADDER: &[f64] = &[0.99, 0.9];
/// Resident stage-cache budget of each churn daemon: well below the
/// churn working set, so older designs are evicted and read back from the
/// spill tier.
const CHURN_CACHE_BUDGET: usize = 4 << 20;
/// Codecs of the two load connections.
const CODECS: [Codec; 2] = [Codec::Json, Codec::Binary];

/// Rates and latency limit of one served workload.
#[derive(Debug, Clone)]
pub struct Levels {
    /// The three fixed request rates, ascending (requests/s).
    pub rates: Vec<f64>,
    /// Limit on the phase's tail latency (ms).
    pub p99_limit_ms: f64,
}

/// The frozen serving design read from `perfbench/design.json`.
#[derive(Debug, Clone)]
pub struct Design {
    hot: Levels,
    churn: Levels,
}

impl Design {
    /// Reads the rates and limits of both served workloads.
    ///
    /// # Errors
    ///
    /// A missing or malformed file or field.
    pub fn load(path: &Path) -> Result<Design, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = parse_json(&text)?;
        let levels = |name: &str| -> Result<Levels, String> {
            let w = doc
                .get("workloads")
                .and_then(|w| w.get(name))
                .ok_or_else(|| format!("design: no workload {name}"))?;
            let rates: Vec<f64> = w
                .get("rates_per_s")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("design: {name} needs rates_per_s"))?
                .iter()
                .filter_map(Json::as_number)
                .collect();
            let p99_limit_ms = w
                .get("p99_limit_ms")
                .and_then(Json::as_number)
                .ok_or_else(|| format!("design: {name} needs p99_limit_ms"))?;
            if rates.len() != 3 || rates.windows(2).any(|w| w[0] >= w[1]) || rates[0] <= 0.0 {
                return Err(format!(
                    "design: {name} needs three ascending positive rates"
                ));
            }
            Ok(Levels {
                rates,
                p99_limit_ms,
            })
        };
        Ok(Design {
            hot: levels("serve-hot")?,
            churn: levels("serve-churn")?,
        })
    }

    fn levels(&self, workload: &str) -> &Levels {
        if workload == "serve-hot" {
            &self.hot
        } else {
            &self.churn
        }
    }
}

// --- Requests -------------------------------------------------------------

#[derive(Debug, Clone)]
enum Body {
    Run(Vec<JobSpec>),
    Authenticate(JobSpec),
    Detect(Vec<DetectSpec>),
}

/// What a request exercises, for the report and the traced replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Class {
    Single,
    Batch,
    Authenticate,
    Repeat,
    NewSpecimen,
    NewDesign,
    Detect,
}

#[derive(Debug, Clone)]
struct Req {
    body: Body,
    class: Class,
}

const PARTS: [&str; 3] = ["bar", "bracket", "prism"];
const RESOLUTIONS: [Resolution; 2] = [Resolution::Coarse, Resolution::Fine];
const ORIENTATIONS: [Orientation; 2] = [Orientation::Xy, Orientation::Xz];

/// The `serve-hot` resident set: every demo part × resolution ×
/// orientation at the service default layer, one seeded specimen each.
fn hot_set(seed: u64) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed ^ 0x4075);
    let mut set = Vec::new();
    for part in PARTS {
        for resolution in RESOLUTIONS {
            for orientation in ORIENTATIONS {
                set.push(JobSpec {
                    part: part.to_string(),
                    resolution,
                    orientation,
                    seed: rng.below(1 << 20) as u64 + 1,
                    ..JobSpec::default()
                });
            }
        }
    }
    set
}

/// Request classes in exact proportions: each consecutive block of
/// `mix`'s total holds every class its share of times, in seeded order,
/// so the mix (and with it the latency median) does not drift with the
/// seed.
fn stratified(rng: &mut Rng, mix: &[(Class, usize)], n: usize) -> Vec<Class> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut block: Vec<Class> = mix
            .iter()
            .flat_map(|&(class, k)| std::iter::repeat_n(class, k))
            .collect();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(n);
    out
}

/// `serve-hot` traffic: 70% single-job `run`, 15% 8-job `run` batches,
/// 15% `authenticate`, all over the hot set.
fn hot_stream(rng: &mut Rng, hot: &[JobSpec], n: usize) -> Vec<Req> {
    let mix = [
        (Class::Single, 14),
        (Class::Batch, 3),
        (Class::Authenticate, 3),
    ];
    stratified(rng, &mix, n)
        .into_iter()
        .map(|class| {
            let mut pick = || hot[rng.below(hot.len())].clone();
            let body = match class {
                Class::Batch => Body::Run((0..8).map(|_| pick()).collect()),
                Class::Authenticate => Body::Authenticate(pick()),
                _ => Body::Run(vec![pick()]),
            };
            Req { body, class }
        })
        .collect()
}

/// The `serve-churn` request source: a growing history of specimens.
struct Churn {
    rng: Rng,
    history: Vec<JobSpec>,
    designs: u64,
}

/// Fault hypotheses the churn `detect` jobs test.
const DETECT_FAULTS: [&str; 2] = ["toolpath.dup=0.5", "toolpath.drop=0.1"];

impl Churn {
    /// A source whose history starts with `initial` seeded designs.
    fn new(seed: u64, initial: usize) -> Churn {
        let mut rng = Rng::new(seed ^ 0xc4a2);
        let designs = rng.below(1 << 16) as u64;
        let mut churn = Churn {
            rng,
            history: Vec::new(),
            designs,
        };
        for _ in 0..initial {
            let design = churn.new_design();
            churn.history.push(design);
        }
        churn
    }

    /// A specimen of a design no request used before: a fresh layer
    /// height gives it a fresh stage-key prefix. Part, resolution and
    /// orientation cycle through all 12 combinations.
    fn new_design(&mut self) -> JobSpec {
        let combo = self.designs as usize % 12;
        self.designs += 1;
        // Golden-ratio steps keep every layer height distinct.
        let frac = (self.designs as f64 * 0.618_033_988_749_895).fract();
        JobSpec {
            part: PARTS[combo / 4].to_string(),
            resolution: RESOLUTIONS[combo / 2 % 2],
            orientation: ORIENTATIONS[combo % 2],
            seed: self.rng.below(1 << 20) as u64 + 1,
            layer: Some(0.6 + 0.2 * frac),
            ..JobSpec::default()
        }
    }

    /// `n` requests: 40% repeats of earlier specimens, 30% new specimens
    /// of known designs, 15% new designs, 15% `detect` jobs.
    fn stream(&mut self, n: usize) -> Vec<Req> {
        let mix = [
            (Class::Repeat, 8),
            (Class::NewSpecimen, 6),
            (Class::NewDesign, 3),
            (Class::Detect, 3),
        ];
        stratified(&mut self.rng, &mix, n)
            .into_iter()
            .map(|class| self.next(class))
            .collect()
    }

    fn next(&mut self, class: Class) -> Req {
        let known = self.history[self.rng.below(self.history.len())].clone();
        if class == Class::Repeat {
            Req {
                body: Body::Run(vec![known]),
                class,
            }
        } else if class == Class::NewSpecimen {
            let spec = JobSpec {
                seed: self.rng.below(1 << 20) as u64 + 1,
                ..known
            };
            self.history.push(spec.clone());
            Req {
                body: Body::Run(vec![spec]),
                class,
            }
        } else if class == Class::NewDesign {
            let spec = self.new_design();
            self.history.push(spec.clone());
            Req {
                body: Body::Run(vec![spec]),
                class,
            }
        } else {
            let job = JobSpec {
                faults: DETECT_FAULTS[self.rng.below(DETECT_FAULTS.len())].to_string(),
                fault_seed: self.rng.below(1 << 20) as u64 + 1,
                ..known
            };
            let spec = DetectSpec {
                job,
                trace_seed: self.rng.below(1 << 20) as u64 + 1,
                ..DetectSpec::default()
            };
            Req {
                body: Body::Detect(vec![spec]),
                class: Class::Detect,
            }
        }
    }
}

// --- Wire -----------------------------------------------------------------

fn connect(endpoint: &Endpoint, codec: Codec) -> Result<RetryingClient, String> {
    let policy = RetryPolicy {
        attempts: 3,
        timeout: Duration::from_secs(30),
        ..RetryPolicy::default()
    };
    let mut client = RetryingClient::new_with_codec(endpoint, policy, codec);
    client.connect()?;
    Ok(client)
}

fn call(client: &mut RetryingClient, body: &Body) -> Result<Response, String> {
    match body {
        Body::Run(jobs) => client.run(jobs, None),
        Body::Authenticate(job) => client.authenticate(job, None),
        Body::Detect(specs) => client.detect(specs, None),
    }
}

fn verdict_json(verdict: &str, cold_joint_mm2: f64, void_mm3: f64) -> String {
    Json::Object(vec![
        ("verdict".into(), Json::str(verdict)),
        ("cold_joint_mm2".into(), Json::Number(cold_joint_mm2)),
        ("void_mm3".into(), Json::Number(void_mm3)),
    ])
    .render()
}

/// The canonical rendering of a response body, or the typed error.
fn canonical(response: &Response) -> Result<String, String> {
    match response {
        Response::Results { results, .. } => Ok(Json::Array(results.clone()).render()),
        Response::Detections { reports, .. } => Ok(Json::Array(reports.clone()).render()),
        Response::Verdict {
            verdict,
            cold_joint_mm2,
            void_mm3,
            ..
        } => Ok(verdict_json(verdict, *cold_joint_mm2, *void_mm3)),
        Response::Error { error, message, .. } => Err(format!("{}: {message}", error.name())),
        other => Err(format!("unexpected response {other:?}")),
    }
}

fn fingerprint(text: &str) -> u64 {
    let mut h = StageHasher::new("perfbench/response/v1");
    h.write_str(text);
    h.finish().to_words()[0]
}

/// Renders of each item of the JSON array `wire`, checked to re-join to
/// exactly `wire`, so a response assembled from them is compared with the
/// reference's own bytes.
fn split_array(wire: &str) -> Result<Vec<String>, String> {
    let items: Vec<String> = match parse_json(wire)? {
        Json::Array(items) => items.iter().map(Json::render).collect(),
        _ => return Err("reference wire is not a JSON array".to_string()),
    };
    if format!("[{}]", items.join(",")) != wire {
        return Err("reference wire does not split into its items".to_string());
    }
    Ok(items)
}

/// The in-process reference: the library's own wire references,
/// `expected_results_wire` over every distinct job of the requests checked
/// and `expected_detections_wire` over every distinct detection, one call
/// each (specimens of a design share the call's cache), split into items
/// that each response is assembled from.
struct Reference {
    outcomes: HashMap<String, String>,
    detections: HashMap<String, String>,
}

impl Reference {
    fn new<'a>(reqs: impl Iterator<Item = &'a Req>) -> Result<Reference, String> {
        let mut jobs: HashMap<String, JobSpec> = HashMap::new();
        let mut detects: HashMap<String, DetectSpec> = HashMap::new();
        for req in reqs {
            match &req.body {
                Body::Run(specs) => {
                    for spec in specs {
                        jobs.entry(spec.to_json().render())
                            .or_insert_with(|| spec.clone());
                    }
                }
                Body::Authenticate(spec) => {
                    jobs.entry(spec.to_json().render())
                        .or_insert_with(|| spec.clone());
                }
                Body::Detect(specs) => {
                    for spec in specs {
                        detects
                            .entry(spec.to_json().render())
                            .or_insert_with(|| spec.clone());
                    }
                }
            }
        }
        let (job_keys, job_specs): (Vec<String>, Vec<JobSpec>) = jobs.into_iter().unzip();
        let (detect_keys, detect_specs): (Vec<String>, Vec<DetectSpec>) =
            detects.into_iter().unzip();
        let outcomes = split_array(&expected_results_wire(&job_specs)?)?;
        let detections = split_array(&expected_detections_wire(&detect_specs)?)?;
        Ok(Reference {
            outcomes: job_keys.into_iter().zip(outcomes).collect(),
            detections: detect_keys.into_iter().zip(detections).collect(),
        })
    }

    fn item(map: &HashMap<String, String>, key: String) -> Result<&str, String> {
        map.get(&key)
            .map(String::as_str)
            .ok_or_else(|| format!("no reference for {key}"))
    }

    /// The canonical rendering the daemon must answer `body` with.
    fn expected(&self, body: &Body) -> Result<String, String> {
        let join = |items: Result<Vec<&str>, String>| Ok(format!("[{}]", items?.join(",")));
        match body {
            Body::Run(jobs) => join(
                jobs.iter()
                    .map(|j| Reference::item(&self.outcomes, j.to_json().render()))
                    .collect(),
            ),
            Body::Detect(specs) => join(
                specs
                    .iter()
                    .map(|s| Reference::item(&self.detections, s.to_json().render()))
                    .collect(),
            ),
            Body::Authenticate(job) => {
                let outcome = parse_json(Reference::item(&self.outcomes, job.to_json().render())?)?;
                let ok = outcome
                    .get("ok")
                    .ok_or("authenticate job failed in process")?;
                let field = |name: &str| ok.get(name).and_then(Json::as_number).unwrap_or(f64::NAN);
                let (cold, voids) = (field("cold_joint_mm2"), field("void_mm3"));
                // The daemon's absolute verdict thresholds.
                let verdict = if cold > 10.0 || voids > 20.0 {
                    "counterfeit"
                } else {
                    "genuine"
                };
                Ok(verdict_json(verdict, cold, voids))
            }
        }
    }
}

// --- Open-loop generator --------------------------------------------------

struct Sample {
    /// Position of the request in its stream.
    index: usize,
    timing: Timing,
    /// Fingerprint of the canonical response, or the failure.
    outcome: Result<u64, String>,
}

/// Drives `reqs` at `rate` requests/s over the connections, one thread
/// per connection pulling the next due request, sending none after
/// `stop_after` seconds. Returns the samples in request order and the
/// phase length (when the next request would have been due). Up to
/// `keep` responses per class are cloned into `kept`.
fn run_phase(
    conns: &mut [RetryingClient],
    reqs: &[Req],
    rate: f64,
    kept: Option<&Mutex<Vec<(Class, Response)>>>,
    keep: usize,
    stop_after: f64,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = reqs.get(i) else { break };
                        let due = i as f64 / rate;
                        let now = origin.elapsed().as_secs_f64();
                        if now > stop_after {
                            break;
                        }
                        if due > now {
                            std::thread::sleep(Duration::from_secs_f64(due - now));
                        }
                        let sent = origin.elapsed().as_secs_f64();
                        let response = call(client, &req.body);
                        let done = origin.elapsed().as_secs_f64();
                        let outcome = response.and_then(|resp| {
                            let canon = canonical(&resp).map(|c| fingerprint(&c));
                            if let Some(kept) = kept {
                                let mut kept = kept.lock().expect("response sample lock");
                                if kept.iter().filter(|(c, _)| *c == req.class).count() < keep {
                                    kept.push((req.class, resp));
                                }
                            }
                            canon
                        });
                        out.push(Sample {
                            index: i,
                            timing: Timing { due, sent, done },
                            outcome,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    (samples, reqs.len() as f64 / rate)
}

/// What one fixed-rate level measured, pooled over the rounds.
struct Phase {
    rate: f64,
    /// Samples of every round at this rate.
    samples: Vec<Sample>,
    /// Latencies (ms) in ascending order, failures as infinity.
    latencies: Vec<f64>,
    tail: Option<(f64, f64)>,
    /// Median latency (ms) of each round at this level.
    round_p50: Vec<f64>,
    /// Largest backlog any round left at the end of this level.
    outstanding: usize,
    met: bool,
    /// Completed requests per second of the rounds' time at this level.
    achieved: f64,
}

impl Phase {
    fn new(rate: f64, rounds: Vec<(Vec<Sample>, f64)>, limit_ms: f64, conns: usize) -> Phase {
        let latency_ms = |s: &Sample| {
            if s.outcome.is_ok() {
                s.timing.latency() * 1e3
            } else {
                f64::INFINITY
            }
        };
        let mut samples = Vec::new();
        let mut round_p50 = Vec::new();
        let mut outstanding = 0;
        let mut busy = 0.0;
        for (round, length) in rounds {
            let timings: Vec<Timing> = round.iter().map(|s| s.timing).collect();
            outstanding = outstanding.max(outstanding_at(&timings, length));
            busy += timings.iter().map(|t| t.done).fold(0.0, f64::max);
            let lat = sorted(&round.iter().map(latency_ms).collect::<Vec<_>>());
            round_p50.extend(percentile(&lat, 0.5));
            samples.extend(round);
        }
        let latencies = sorted(&samples.iter().map(latency_ms).collect::<Vec<_>>());
        let tail = highest_supported(&latencies, TAIL_LADDER);
        let met = rate_met(tail.map(|t| t.1), limit_ms, outstanding, conns);
        let ok = samples.iter().filter(|s| s.outcome.is_ok()).count();
        Phase {
            rate,
            samples,
            latencies,
            tail,
            round_p50,
            outstanding,
            met,
            achieved: ok as f64 / busy,
        }
    }

    fn lateness_ms(&self) -> Vec<f64> {
        sorted(
            &self
                .samples
                .iter()
                .map(|s| s.timing.lateness() * 1e3)
                .collect::<Vec<_>>(),
        )
    }

    fn line(&self) -> String {
        let show = |t: Option<(f64, f64)>| {
            t.map_or("n/a".to_string(), |(q, v)| {
                format!("p{:.0} {v:.3} ms", q * 100.0)
            })
        };
        format!(
            "rate {:.1}/s: n={} p50 {:.3} ms (rounds {:.3?}), tail {}, late {}, outstanding {}, achieved {:.1}/s, met={}",
            self.rate,
            self.latencies.len(),
            percentile(&self.latencies, 0.5).unwrap_or(f64::NAN),
            self.round_p50,
            show(self.tail),
            show(highest_supported(&self.lateness_ms(), TAIL_LADDER)),
            self.outstanding,
            self.achieved,
            self.met
        )
    }
}

/// Daemon-side traffic counters, summed over a deployment's daemons (and
/// its router's front end).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    spill_writes: u64,
    spill_hits: u64,
    rejected: u64,
    stalls: u64,
    respawns: u64,
    routed: u64,
    failovers: u64,
}

impl Counters {
    fn add_service(&mut self, s: &obfuscade::metrics::ServiceStats) {
        self.rejected += s.rejected_overloaded;
        self.stalls += s.backpressure_stalls;
        self.respawns += s.respawns;
    }

    /// `self - before`, field by field, added onto `into`.
    fn accumulate_since(&self, before: &Counters, into: &mut Counters) {
        into.hits += self.hits - before.hits;
        into.misses += self.misses - before.misses;
        into.evictions += self.evictions - before.evictions;
        into.spill_writes += self.spill_writes - before.spill_writes;
        into.spill_hits += self.spill_hits - before.spill_hits;
        into.rejected += self.rejected - before.rejected;
        into.stalls += self.stalls - before.stalls;
        into.respawns += self.respawns - before.respawns;
        into.routed += self.routed - before.routed;
        into.failovers += self.failovers - before.failovers;
    }
}

/// A scratch directory inside the checkout, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> ScratchDir {
        ScratchDir(PathBuf::from(".bench_tmp").join(format!("{name}-{}", std::process::id())))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A booted, warmed deployment with its two load connections.
struct Deployment {
    daemons: Vec<Server>,
    router: Option<Router>,
    conns: Vec<RetryingClient>,
    endpoint: Endpoint,
    _spill: Option<ScratchDir>,
}

impl Deployment {
    /// `serve-hot`: one daemon with its default workers and cache.
    fn hot(warm: &[JobSpec]) -> Result<Deployment, String> {
        let daemon = Server::start(ServerConfig::default()).map_err(|e| format!("daemon: {e}"))?;
        let endpoint = Endpoint::Tcp(daemon.addr().to_string());
        Deployment::finish(vec![daemon], None, endpoint, None, warm)
    }

    /// `serve-churn`: two one-worker daemons with small caches and fresh
    /// spill directories, behind a router.
    fn churn(warm: &[JobSpec]) -> Result<Deployment, String> {
        let spill = ScratchDir::new("serve-churn");
        let mut daemons = Vec::new();
        for node in 0..2 {
            let dir = spill.0.join(format!("node{node}"));
            daemons.push(
                Server::start(ServerConfig {
                    workers: 1,
                    cache_budget: CHURN_CACHE_BUDGET,
                    spill_dir: Some(dir),
                    node: format!("node{node}"),
                    ..ServerConfig::default()
                })
                .map_err(|e| format!("daemon: {e}"))?,
            );
        }
        let router = Router::start(RouterConfig {
            backends: daemons
                .iter()
                .map(|d| Endpoint::Tcp(d.addr().to_string()))
                .collect(),
            ..RouterConfig::default()
        })
        .map_err(|e| format!("router: {e}"))?;
        let endpoint = Endpoint::Tcp(router.addr().to_string());
        Deployment::finish(daemons, Some(router), endpoint, Some(spill), warm)
    }

    fn finish(
        daemons: Vec<Server>,
        router: Option<Router>,
        endpoint: Endpoint,
        spill: Option<ScratchDir>,
        warm: &[JobSpec],
    ) -> Result<Deployment, String> {
        let conns = CODECS
            .iter()
            .map(|&codec| connect(&endpoint, codec))
            .collect::<Result<Vec<_>, _>>()?;
        let mut d = Deployment {
            daemons,
            router,
            conns,
            endpoint,
            _spill: spill,
        };
        for spec in warm {
            match d.conns[0].run(std::slice::from_ref(spec), None)? {
                Response::Results { .. } => {}
                other => return Err(format!("warm-up request failed: {other:?}")),
            }
        }
        Ok(d)
    }

    /// Current traffic counters and the daemons' merged latency histogram.
    fn counters(&self) -> (Counters, LatencyHistogram) {
        let mut c = Counters::default();
        let mut hist = LatencyHistogram::default();
        for d in &self.daemons {
            let m = d.metrics();
            c.hits += m.cache.hits;
            c.misses += m.cache.misses;
            c.evictions += m.cache.evictions;
            c.spill_writes += m.cache.spill_writes;
            c.spill_hits += m.cache.spill_hits;
            if let Some(s) = &m.service {
                hist.merge(&s.latency);
                c.add_service(s);
            }
        }
        if let Some(router) = &self.router {
            if let Some(s) = &router.metrics().service {
                c.add_service(s);
            }
            c.routed = router.fleet().routed();
            c.failovers = router.fleet().failovers();
        }
        (c, hist)
    }

    fn shutdown(self) {
        drop(self.conns);
        if let Some(router) = self.router {
            router.begin_shutdown();
            router.join();
        }
        for daemon in self.daemons {
            daemon.begin_shutdown();
            daemon.join();
        }
    }
}

/// Fresh deployments per run: each boots, warms, and carries one round
/// of the three rates, so the run's figures pool several deployments.
const ROUNDS: usize = 5;

/// One round's warm-up set, its request streams for the three rates and
/// the stream of its capacity phase.
fn prepare(
    workload: &str,
    levels: &Levels,
    seed: u64,
    round: usize,
    phase_s: f64,
) -> (Vec<JobSpec>, Vec<Vec<Req>>) {
    let mut counts: Vec<usize> = levels
        .rates
        .iter()
        .map(|r| (r * phase_s).round().max(1.0) as usize)
        .collect();
    // The closed-loop capacity phase: more requests than two connections
    // can finish in its time (capacity stays below 4x the top rate).
    counts.push(counts[2] * 4);
    let stream_seed = seed.wrapping_mul(31).wrapping_add(round as u64);
    if workload == "serve-hot" {
        let hot = hot_set(seed);
        let mut rng = Rng::new(stream_seed);
        let phases = counts
            .iter()
            .map(|&n| hot_stream(&mut rng, &hot, n))
            .collect();
        (hot, phases)
    } else {
        let mut churn = Churn::new(stream_seed, 8);
        let warm = churn.history.clone();
        let phases = counts.iter().map(|&n| churn.stream(n)).collect();
        (warm, phases)
    }
}

fn boot(workload: &str, warm: &[JobSpec]) -> Result<Deployment, String> {
    match workload {
        "serve-hot" => Deployment::hot(warm),
        "serve-churn" => Deployment::churn(warm),
        other => Err(format!("unknown served workload {other}")),
    }
}

/// Runs a served workload: [`ROUNDS`] rounds, each on a freshly booted
/// and warmed deployment, of the three fixed rates and then a closed-loop
/// capacity phase (both connections sending back to back), each for
/// `seconds / (4 · ROUNDS)`. With `rec`, also gathers the per-layer
/// metrics.
pub fn run(
    workload: &str,
    design: &Design,
    seed: u64,
    seconds: f64,
    rec: Option<&mut Recorder>,
) -> Result<RunResult, String> {
    let levels = design.levels(workload);
    let mut r = RunResult::default();
    let phase_s = seconds / (4 * ROUNDS) as f64;
    let kept = Mutex::new(Vec::new());
    let keep = if rec.is_some() { 32 } else { 0 };

    let mut setup = Vec::new();
    let mut per_rate: Vec<Vec<(Vec<Sample>, f64)>> =
        levels.rates.iter().map(|_| Vec::new()).collect();
    let mut capacity: Vec<Sample> = Vec::new();
    let mut capacity_busy = 0.0;
    let mut streams = Vec::new();
    let mut warm = Vec::new();
    let mut traffic = Counters::default();
    let mut hist = LatencyHistogram::default();
    let mut last = None;
    let mut first_round_rss = None;
    for round in 0..ROUNDS {
        let (round_warm, phases) = prepare(workload, levels, seed, round, phase_s);
        let t = Instant::now();
        let mut d = boot(workload, &round_warm)?;
        setup.push(t.elapsed().as_secs_f64());
        let (before, _) = d.counters();
        // Sample indices are made global over the rounds' concatenated
        // streams (every round's stream of a phase has the same length).
        let offset = |samples: Vec<Sample>, len: usize| -> Vec<Sample> {
            samples
                .into_iter()
                .map(|s| Sample {
                    index: s.index + round * len,
                    ..s
                })
                .collect()
        };
        for (k, (reqs, &rate)) in phases.iter().zip(&levels.rates).enumerate() {
            let (samples, length) =
                run_phase(&mut d.conns, reqs, rate, Some(&kept), keep, f64::INFINITY);
            per_rate[k].push((offset(samples, reqs.len()), length));
        }
        let (samples, _) = run_phase(
            &mut d.conns,
            &phases[3],
            f64::INFINITY,
            Some(&kept),
            keep,
            phase_s,
        );
        capacity_busy += samples.iter().map(|s| s.timing.done).fold(0.0, f64::max);
        capacity.extend(offset(samples, phases[3].len()));
        // Later rounds boot fresh deployments in this process, on top of
        // memory the allocator kept from earlier ones (5-25 MiB more by
        // the fifth round, varying from run to run). A deployment in its
        // own process, as the program ships, is the first round.
        if round == 0 {
            first_round_rss = peak_rss_mb();
        }
        let (after, round_hist) = d.counters();
        after.accumulate_since(&before, &mut traffic);
        hist.merge(&round_hist);
        streams.push(phases);
        warm = round_warm;
        if round + 1 < ROUNDS || rec.is_none() {
            d.shutdown();
        } else {
            last = Some(d);
        }
    }
    r.put("setup_s", median(&setup), setup.len());
    r.put("peak_rss_mb", first_round_rss.unwrap_or(0.0), 1);
    r.line(format!(
        "peak RSS through the first round {:.1} MiB, through all {ROUNDS} rounds {:.1} MiB",
        first_round_rss.unwrap_or(0.0),
        peak_rss_mb().unwrap_or(0.0)
    ));

    let conns = CODECS.len();
    let measured: Vec<Phase> = per_rate
        .into_iter()
        .zip(&levels.rates)
        .map(|(rounds, &rate)| Phase::new(rate, rounds, levels.p99_limit_ms, conns))
        .collect();
    let middle = &measured[1];
    // The median over rounds: a host stall that spans a round moves one
    // of the five values, not the result.
    let completed = capacity.iter().filter(|s| s.outcome.is_ok()).count();
    let capacity_rate = completed as f64 / capacity_busy;
    r.put("throughput_per_s", capacity_rate, completed);
    // serve-hot's open-loop medians are set by how fast the host wakes
    // idle threads (its middle-rate median read 0.33-0.65 ms over ten
    // runs), so its bounded latency is the closed-loop round trip, where
    // no thread idles between requests. serve-churn's closed-loop round
    // trips flip between running alone and queueing behind the other
    // connection on a one-worker backend, so its bounded latency is the
    // open-loop median at the middle rate. Both are printed either way.
    let round_trips: Vec<f64> = capacity
        .iter()
        .filter(|s| s.outcome.is_ok())
        .map(|s| (s.timing.done - s.timing.sent) * 1e3)
        .collect();
    let middle_p50 = percentile(&middle.latencies, 0.5).unwrap_or(0.0);
    if workload == "serve-hot" {
        r.put("latency_p50_ms", median(&round_trips), round_trips.len());
    } else {
        r.put("latency_p50_ms", middle_p50, middle.latencies.len());
    }
    let stream = |k: usize| -> Vec<&Req> { streams.iter().flat_map(|phases| &phases[k]).collect() };
    for phase in &measured {
        r.line(phase.line());
    }
    for line in class_lines(
        &format!("rate {:.1}/s", middle.rate),
        &middle.samples,
        &stream(1),
    )
    .into_iter()
    .chain(class_lines("capacity", &capacity, &stream(3)))
    {
        r.line(line);
    }
    r.line(format!(
        "capacity: {capacity_rate:.1} requests/s over two connections (n={completed}); closed-loop round trip p50 {:.4} ms",
        median(&round_trips)
    ));
    r.line(format!(
        "req_p50_ms {:.4} (n={}) at {:.1}/s",
        percentile(&middle.latencies, 0.5).unwrap_or(f64::NAN),
        middle.latencies.len(),
        middle.rate
    ));
    match percentile(&middle.latencies, 0.99) {
        Some(v) => r.line(format!("req_p99_ms {v:.4} (n={})", middle.latencies.len())),
        None => r.line(format!(
            "req_p99_ms: fewer than 1000 samples (n={})",
            middle.latencies.len()
        )),
    }
    let max_met = measured.iter().rev().find(|p| p.met);
    r.line(format!(
        "max_rate_per_s {:.2} (n={}; tail limit {} ms, backlog limit {conns} requests)",
        max_met.map_or(0.0, |p| p.achieved),
        max_met.map_or(0, |p| p.samples.len()),
        levels.p99_limit_ms,
    ));

    // Correctness: every response against the in-process reference.
    let checks: Vec<(&Vec<Sample>, Vec<&Req>)> = measured
        .iter()
        .enumerate()
        .map(|(k, phase)| (&phase.samples, stream(k)))
        .chain([(&capacity, stream(3))])
        .collect();
    let reference = Reference::new(
        checks
            .iter()
            .flat_map(|(samples, reqs)| samples.iter().map(|s| reqs[s.index])),
    );
    for (samples, reqs) in &checks {
        for sample in samples.iter() {
            r.attempted += 1;
            let req = reqs[sample.index];
            let expected = reference
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|x| x.expected(&req.body));
            match (&sample.outcome, expected) {
                (Ok(got), Ok(expected)) if *got == fingerprint(&expected) => {}
                (Ok(_), Ok(_)) => r.fail(format!(
                    "{:?} response differs from the reference",
                    req.class
                )),
                (Err(e), _) => r.fail(format!("{:?} request failed: {e}", req.class)),
                (_, Err(e)) => r.fail(format!("{:?} reference failed: {e}", req.class)),
            }
        }
    }

    if let (Some(rec), Some(mut d)) = (rec, last) {
        put_traffic_metrics(&mut r, &traffic, &hist, &measured, capacity.len(), &d);
        traced_extras(&mut r, &mut d, &streams, &warm, &kept, seconds, rec)?;
        d.shutdown();
    }
    Ok(r)
}

/// One line per request class of a phase: its share of the requests, its
/// share of their summed service time (send to response), and its median
/// service time. The class mixes are a design choice, not a measured traffic
/// record; these lines show which class sets a phase's figures.
fn class_lines(label: &str, samples: &[Sample], reqs: &[&Req]) -> Vec<String> {
    let mut by_class: BTreeMap<Class, (usize, f64, Vec<f64>)> = BTreeMap::new();
    for s in samples {
        let (sent, service, times) = by_class.entry(reqs[s.index].class).or_default();
        *sent += 1;
        *service += s.timing.done - s.timing.sent;
        if s.outcome.is_ok() {
            times.push((s.timing.done - s.timing.sent) * 1e3);
        }
    }
    let total: f64 = by_class.values().map(|c| c.1).sum();
    by_class
        .into_iter()
        .map(|(class, (sent, service, times))| {
            format!(
                "{label} {class:?}: {:.1}% of requests, {:.1}% of service time, service p50 {:.3} ms (n={})",
                100.0 * sent as f64 / samples.len().max(1) as f64,
                100.0 * service / total.max(f64::MIN_POSITIVE),
                median(&times),
                times.len()
            )
        })
        .collect()
}

/// Per-layer counters of the measured rounds: cache and service traffic,
/// the daemons' latency histogram, routing and generator figures.
fn put_traffic_metrics(
    r: &mut RunResult,
    c: &Counters,
    hist: &LatencyHistogram,
    measured: &[Phase],
    capacity_sent: usize,
    d: &Deployment,
) {
    put_cache_metrics(
        r,
        c.hits,
        c.misses,
        c.evictions,
        c.spill_writes,
        c.spill_hits,
    );
    let n = hist.count() as usize;
    r.put("service.server_ms_p50", hist.quantile_ms(0.5), n);
    r.put("service.server_ms_p99", hist.quantile_ms(0.99), n);
    let sent = measured.iter().map(|p| p.samples.len()).sum::<usize>() + capacity_sent;
    r.put("service.rejected_overloaded", c.rejected as f64, sent);
    r.put("service.backpressure_stalls", c.stalls as f64, sent);
    r.put("service.respawns", c.respawns as f64, sent);
    let retries: u64 = d.conns.iter().map(RetryingClient::retries).sum();
    r.put("service.client_retries", retries as f64, sent);
    r.put("loadgen.sent", sent as f64, sent);
    let late = measured[1].lateness_ms();
    r.put(
        "loadgen.late_ms_p99",
        highest_supported(&late, TAIL_LADDER).map_or(0.0, |t| t.1),
        late.len(),
    );
    if d.router.is_some() {
        r.put("router.routed", c.routed as f64, sent);
        r.put("router.failovers", c.failovers as f64, sent);
    }
}

/// The traced run's remaining per-layer metrics for a served workload,
/// measured on the last round's deployment.
fn traced_extras(
    r: &mut RunResult,
    d: &mut Deployment,
    streams: &[Vec<Vec<Req>>],
    warm: &[JobSpec],
    kept: &Mutex<Vec<(Class, Response)>>,
    seconds: f64,
    rec: &mut Recorder,
) -> Result<(), String> {
    // Wire cost: round trips of `ping`, which the front end answers
    // inline with no queue or pipeline work.
    let mut rtts = Vec::new();
    let mut ping = Client::connect_with_codec(&d.endpoint, None, Codec::Binary)
        .map_err(|e| format!("ping connection: {e}"))?;
    for _ in 0..500 {
        let t = Instant::now();
        ping.ping()?;
        rtts.push(t.elapsed().as_secs_f64() * 1e3);
    }
    r.put("service.wire_ms_p50", median(&rtts), rtts.len());

    // Codecs on the workload's own response frames.
    let responses: Vec<Response> = kept
        .lock()
        .expect("response sample lock")
        .iter()
        .map(|(_, resp)| resp.clone())
        .collect();
    for (codec, enc, dec, bytes) in [
        (
            Codec::Json,
            "service.encode_us.json",
            "service.decode_us.json",
            "service.response_bytes.json",
        ),
        (
            Codec::Binary,
            "service.encode_us.binary",
            "service.decode_us.binary",
            "service.response_bytes.binary",
        ),
    ] {
        let (enc_us, dec_us, size) = time_codec(codec, &responses)?;
        r.put(enc, enc_us, responses.len());
        r.put(dec, dec_us, responses.len());
        r.put(bytes, size, responses.len());
    }

    if d.router.is_some() {
        router_hop(r, d, warm)?;
    }

    // In-process replay of the jobs the deployment computed cold: the
    // warm-up set, plus churn's new specimens and designs and its
    // detection jobs.
    let mut cold: Vec<JobSpec> = warm.to_vec();
    let mut detects: Vec<DetectSpec> = Vec::new();
    for req in streams.iter().flatten().flatten() {
        match (&req.class, &req.body) {
            (Class::NewSpecimen | Class::NewDesign, Body::Run(jobs)) => {
                cold.extend(jobs.iter().cloned())
            }
            (Class::Detect, Body::Detect(specs)) => detects.extend(specs.iter().cloned()),
            _ => {}
        }
    }
    let jobs = build_jobs(&cold)?;
    let agg = trace_jobs(&jobs, seconds / 2.0, warm.len(), rec, r);
    put_trace_metrics(r, rec, &agg);
    if !detects.is_empty() {
        let cache = StageCache::with_budget(StageCache::DEFAULT_BUDGET);
        let start = Instant::now();
        let mut ms = Vec::new();
        for (k, spec) in detects.iter().enumerate() {
            if k >= 8 && start.elapsed().as_secs_f64() > seconds / 4.0 {
                break;
            }
            let config = am_detect::DetectConfig {
                quality: spec.quality.clone(),
                jam_amplitude: spec.jam_amplitude,
                trace_seed: spec.trace_seed,
                ..am_detect::DetectConfig::default()
            };
            let part = spec.job.build_part()?;
            let (plan, faults) = (spec.job.plan(), spec.job.fault_plan()?);
            let report = rec.time("detect.job", k as u64, None, || {
                let t = Instant::now();
                let out = am_detect::detect_counterfeit(
                    &part,
                    &plan,
                    &faults,
                    &spec.job.faults,
                    &config,
                    &cache,
                    Deadline::none(),
                );
                ms.push(t.elapsed().as_secs_f64() * 1e3);
                out
            });
            if let Err(e) = report {
                r.fail(format!("detect replay: {e}"));
            }
        }
        r.put("detect.job_ms", mean(&ms), ms.len());
        r.put("detect.jobs", ms.len() as f64, ms.len());
    }
    Ok(())
}

/// Mean encode and decode time (µs) and mean encoded size of `responses`
/// under `codec`.
fn time_codec(codec: Codec, responses: &[Response]) -> Result<(f64, f64, f64), String> {
    const REPS: usize = 200;
    if responses.is_empty() {
        return Ok((0.0, 0.0, 0.0));
    }
    let frames: Vec<Vec<u8>> = responses
        .iter()
        .map(|resp| codec.encode_response(resp))
        .collect();
    for (frame, resp) in frames.iter().zip(responses) {
        if &codec.decode_response(frame)? != resp {
            return Err(format!(
                "{} codec does not round-trip a response",
                codec.name()
            ));
        }
    }
    let t = Instant::now();
    for _ in 0..REPS {
        for resp in responses {
            std::hint::black_box(codec.encode_response(std::hint::black_box(resp)));
        }
    }
    let enc = t.elapsed().as_secs_f64() * 1e6 / (REPS * responses.len()) as f64;
    let t = Instant::now();
    for _ in 0..REPS {
        for frame in &frames {
            std::hint::black_box(codec.decode_response(std::hint::black_box(frame))?);
        }
    }
    let dec = t.elapsed().as_secs_f64() * 1e6 / (REPS * responses.len()) as f64;
    let size = mean(&frames.iter().map(|f| f.len() as f64).collect::<Vec<_>>());
    Ok((enc, dec, size))
}

/// `router.hop_ms_p50`: warm requests through the router and directly to
/// the backend the router sent them to; the difference of the medians.
fn router_hop(r: &mut RunResult, d: &Deployment, warm: &[JobSpec]) -> Result<(), String> {
    const REPEATS: usize = 25;
    let router = d.router.as_ref().expect("churn deployment has a router");
    let mut via_router = Client::connect_with_codec(&d.endpoint, None, Codec::Binary)
        .map_err(|e| format!("router connection: {e}"))?;
    let mut direct = d
        .daemons
        .iter()
        .map(|x| {
            Client::connect_with_codec(&Endpoint::Tcp(x.addr().to_string()), None, Codec::Binary)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("backend connection: {e}"))?;
    let routed_per_backend = || -> Vec<u64> {
        router
            .fleet()
            .stats_json()
            .get("per_backend")
            .and_then(Json::as_array)
            .map(|b| {
                b.iter()
                    .map(|x| x.get("routed").and_then(Json::as_u64).unwrap_or(0))
                    .collect()
            })
            .unwrap_or_default()
    };
    let (mut hop_router, mut hop_direct) = (Vec::new(), Vec::new());
    for spec in warm {
        let before = routed_per_backend();
        via_router.run(vec![spec.clone()], None)?;
        let after = routed_per_backend();
        let Some(owner) =
            (0..after.len()).find(|&i| after[i] > before.get(i).copied().unwrap_or(0))
        else {
            continue;
        };
        for _ in 0..REPEATS {
            let t = Instant::now();
            via_router.run(vec![spec.clone()], None)?;
            hop_router.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            direct[owner].run(vec![spec.clone()], None)?;
            hop_direct.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    r.put(
        "router.hop_ms_p50",
        median(&hop_router) - median(&hop_direct),
        hop_router.len(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_mixes_hold_exact_proportions_per_block() {
        let mix = [
            (Class::Repeat, 8),
            (Class::NewSpecimen, 6),
            (Class::NewDesign, 3),
            (Class::Detect, 3),
        ];
        let classes = stratified(&mut Rng::new(7), &mix, 60);
        for block in classes.chunks(20) {
            for &(class, k) in &mix {
                assert_eq!(block.iter().filter(|&&c| c == class).count(), k);
            }
        }
        assert_eq!(stratified(&mut Rng::new(7), &mix, 7).len(), 7);
    }

    #[test]
    fn reference_wire_splits_into_items_that_rejoin_to_it() {
        let wire = r#"[{"ok":{"a":[1,2],"b":"x,y"}},{"err":"e"}]"#;
        let items = split_array(wire).expect("an array splits");
        assert_eq!(items.len(), 2);
        assert_eq!(format!("[{}]", items.join(",")), wire);
        assert_eq!(
            split_array("[]").expect("empty array"),
            Vec::<String>::new()
        );
        assert!(split_array(r#"{"a":1}"#).is_err());
    }

    #[test]
    fn churn_designs_get_fresh_prefixes() {
        let mut churn = Churn::new(3, 8);
        let stream = churn.stream(200);
        let mut layers: Vec<u64> = churn
            .history
            .iter()
            .filter_map(|s| s.layer)
            .map(f64::to_bits)
            .collect();
        let designs = 8 + stream
            .iter()
            .filter(|r| r.class == Class::NewDesign)
            .count();
        layers.sort_unstable();
        layers.dedup();
        assert_eq!(layers.len(), designs);
    }
}
