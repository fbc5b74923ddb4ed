//! `mto-e2ebench` — the end-to-end benchmark of `mto_serve run`.
//!
//! ```text
//! mto-e2ebench --serve BIN --work DIR --workload NAME
//!              [--seed N] [--seconds S] [--trace 0|1] [--print-expected]
//! ```
//!
//! One closed-loop client sends one request at a time: it generates the
//! workload's rotation of request files from the seed, spawns
//! `BIN run` on each in turn, and checks every report (see `report`)
//! before its figures count. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` alternates untraced rotations with traced ones
//! (`trace` and `prom` directives added) and reports the per-layer
//! breakdown. The last stdout line is the JSON result. `--print-expected`
//! prints the one-thread reference fields that `expected/` holds for the
//! default seed, instead of measuring.

mod layers;
mod report;
mod spawn;
mod workload;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mto_core::mto::MtoSampler;
use mto_core::walk::Walker;
use mto_osn::{CachedClient, OsnService, SocialNetworkInterface};
use mto_qos::{AdmissionController, CostPredictor};
use mto_serve::history::HistoryStore;
use mto_serve::request::ServeRequest;
use mto_serve::session::AlgoSpec;

use report::{Expect, Report};
use workload::{Request, RunPaths, Workload, DEFAULT_SEED};

/// Rotations measured even when `--seconds` runs out first.
const MIN_ROTATIONS: usize = 3;
/// Timed passes of the walker probe per request.
const PROBE_REPS: usize = 3;
/// Parallel width of measured runs (`nproc` on the reference machine).
const WIDTH: usize = 2;

struct Args {
    serve: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_expected: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut serve, mut work, mut workload) = (None, None, None);
        let (mut seed, mut seconds, mut trace, mut print_expected) =
            (DEFAULT_SEED, 10.0, false, false);
        while let Some(flag) = args.next() {
            if flag == "--print-expected" {
                print_expected = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
            match flag.as_str() {
                "--serve" => serve = Some(PathBuf::from(&value)),
                "--work" => work = Some(PathBuf::from(&value)),
                "--workload" => {
                    workload = Some(
                        Workload::by_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| bad(&e))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(bad(&"expected 0 < seconds <= 600"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            serve: serve.ok_or("missing --serve")?,
            work: work.ok_or("missing --work")?,
            workload: workload.ok_or("missing --workload")?,
            seed,
            seconds,
            trace,
            print_expected,
        })
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mto-e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let dir =
        args.work.join(format!("{}-{}-{}", args.workload.name(), args.seed, std::process::id()));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    // The scratch directory holds only this run's inputs and artifacts.
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("mto-e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// One request of the rotation with its once-per-seed inputs.
struct Variant {
    req: Request,
    /// Warm-start history, built once and only read afterwards.
    warm: Option<PathBuf>,
    /// Fingerprint of the one-thread reference run.
    reference: Vec<String>,
    /// Body of the first untraced measured run, which every traced run
    /// must reproduce.
    body: Option<String>,
}

/// Spawns `mto_serve` on request files in a scratch directory, giving
/// every run fresh paths.
struct Bench<'a> {
    serve: &'a Path,
    dir: &'a Path,
    files: usize,
}

/// A finished run.
struct Served {
    done: spawn::Finished,
    stdout: String,
    stderr: String,
}

impl Served {
    fn ok(&self) -> Result<(), String> {
        if self.done.status.success() {
            Ok(())
        } else {
            let last = self.stderr.lines().last().unwrap_or("");
            Err(format!("mto_serve exited with {}: {last}", self.done.status))
        }
    }
}

impl Bench<'_> {
    fn fresh(&mut self, ext: &str) -> PathBuf {
        self.files += 1;
        self.dir.join(format!("f{}.{ext}", self.files))
    }

    fn serve(&mut self, request: &str) -> Result<Served, String> {
        let req = self.fresh("req");
        let (out, err) = (req.with_extension("out"), req.with_extension("err"));
        write(&req, request)?;
        let done = spawn::run_serve(self.serve, &req, &out, &err)?;
        let served = Served { done, stdout: read(&out)?, stderr: read(&err)? };
        for f in [req, out, err] {
            let _ = std::fs::remove_file(f);
        }
        Ok(served)
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn expect(w: Workload, req: &Request) -> Expect {
    Expect { fleet: req.fleet, budgeted: w == Workload::QosProvider }
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let w = args.workload;
    let mut bench = Bench { serve: &args.serve, dir, files: 0 };
    eprintln!("{}: seed {} — generating inputs and one-thread references", w.name(), args.seed);
    let mut variants = Vec::new();
    let mut reference_error = None;
    for req in w.requests(args.seed) {
        let warm = req.warm_starts().then(|| dir.join(format!("warm-v{}.hist", req.variant)));
        let reference = reference_run(&mut bench, w, &req, warm.as_deref()).unwrap_or_else(|e| {
            reference_error.get_or_insert(format!("reference run v{}: {e}", req.variant));
            Vec::new()
        });
        variants.push(Variant { req, warm, reference, body: None });
    }
    let expected: Vec<String> = variants
        .iter()
        .flat_map(|v| v.reference.iter().map(move |l| format!("v{} {l}", v.req.variant)))
        .collect();
    if args.print_expected {
        return match reference_error {
            Some(e) => Err(e),
            None => Ok(expected.join("\n")),
        };
    }
    if reference_error.is_none() && args.seed == DEFAULT_SEED {
        reference_error = compare_expected(w, &expected).err();
    }
    if let Some(e) = reference_error {
        eprintln!("{}: {e}", w.name());
        let jobs = variants.iter().map(|v| v.req.jobs.len()).sum::<usize>() as u64;
        return Ok(result_line(false, jobs, jobs, &zero_metrics(args.trace)));
    }

    // One untimed rotation first, so the binary, the page cache and the
    // first requests' cold costs stay out of the timed figures. Its runs
    // are checked like every other.
    let mut warm_up = Loop::default();
    warm_up.rotation(w, &mut bench, &mut variants, false)?;
    let mut setup = Setup::default();
    let mut loop_ =
        Loop { attempted: warm_up.attempted, failed: warm_up.failed, ..Loop::default() };
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut traced_rotations = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_ROTATIONS || started.elapsed() < budget {
        rounds += 1;
        loop_.rotation(w, &mut bench, &mut variants, false)?;
        setup.measure(&variants)?;
        if args.trace {
            if let Some(layers) = loop_.rotation(w, &mut bench, &mut variants, true)? {
                traced_rotations.push(layers);
            }
        }
    }
    eprintln!(
        "{}: {} rounds of {} requests in {:.1} s, {} of {} jobs failed",
        w.name(),
        rounds,
        variants.len(),
        started.elapsed().as_secs_f64(),
        loop_.failed,
        loop_.attempted
    );
    let correct = loop_.failed == 0 && !loop_.walls.is_empty();
    let metrics = if args.trace {
        per_layer_metrics(&variants, &setup, &loop_, &traced_rotations)?
    } else {
        end_to_end_metrics(&setup, &loop_)
    };
    Ok(result_line(correct, loop_.attempted, loop_.failed, &metrics))
}

/// Writes the warm-start history `warm` when the request has one, then
/// runs the request once at one thread, untimed, and returns the
/// fingerprint every measured run must match.
fn reference_run(
    bench: &mut Bench,
    w: Workload,
    req: &Request,
    warm: Option<&Path>,
) -> Result<Vec<String>, String> {
    if let Some(path) = warm {
        bench.serve(&req.render_warm_crawl(path))?.ok().map_err(|e| format!("warm crawl: {e}"))?;
    }
    let paths = RunPaths {
        warm_start: warm.map(Path::to_path_buf),
        save_history: save_path(bench, req),
        ..Default::default()
    };
    let served = bench.serve(&req.render(1, &paths))?;
    served.ok()?;
    let report = Report::parse(&served.stdout)?;
    report::check(&report, expect(w, req), None)?;
    // Measured runs must repeat the reference's metric lines, so checking
    // the ESS lines here covers every run.
    report.total_ess()?;
    Ok(report.fingerprint())
}

fn save_path(bench: &mut Bench, req: &Request) -> Option<PathBuf> {
    req.warm_starts().then(|| bench.fresh("hist"))
}

fn compare_expected(w: Workload, got: &[String]) -> Result<(), String> {
    let committed = match w {
        Workload::FleetGossip => include_str!("../expected/fleet-gossip.txt"),
        Workload::WarmSingle => include_str!("../expected/warm-single.txt"),
        Workload::QosProvider => include_str!("../expected/qos-provider.txt"),
    };
    let committed: Vec<&str> = committed.lines().collect();
    if let Some((g, c)) = got.iter().zip(&committed).find(|(g, c)| g != *c) {
        return Err(format!(
            "default-seed reference differs from expected/: got {g:?}, expected {c:?}"
        ));
    }
    if got.len() != committed.len() {
        return Err(format!(
            "default-seed reference has {} checked lines, expected/ has {}",
            got.len(),
            committed.len()
        ));
    }
    Ok(())
}

/// What the measured runs have shown so far.
#[derive(Default)]
struct Loop {
    /// Wall seconds of each checked untraced request.
    walls: Vec<f64>,
    /// Wall seconds of each checked traced request.
    traced_walls: Vec<f64>,
    /// Peak RSS of each checked untraced request, MiB.
    rss_mb: Vec<f64>,
    /// Deterministic figures summed over checked untraced requests.
    steps: f64,
    ess: f64,
    unique: f64,
    attempted: u64,
    failed: u64,
}

impl Loop {
    /// Runs every variant once, untraced or traced. Returns the traced
    /// rotation's per-layer figures (per-request means), or `None` when a
    /// run failed its check or the rotation was untraced.
    fn rotation(
        &mut self,
        w: Workload,
        bench: &mut Bench,
        variants: &mut [Variant],
        traced: bool,
    ) -> Result<Option<BTreeMap<&'static str, f64>>, String> {
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut ok = true;
        for v in variants.iter_mut() {
            let jobs = v.req.jobs.len() as u64;
            self.attempted += jobs;
            let paths = RunPaths {
                warm_start: v.warm.clone(),
                save_history: save_path(bench, &v.req),
                trace: traced.then(|| bench.fresh("trace")),
                prom: traced.then(|| bench.fresh("prom")),
            };
            let served = bench.serve(&v.req.render(WIDTH, &paths))?;
            let checked = served.ok().and_then(|()| {
                let report = Report::parse(&served.stdout)?;
                report::check(&report, expect(w, &v.req), Some(&v.reference))?;
                Ok(report)
            });
            let outcome = checked.and_then(|report| {
                if !traced {
                    v.body.get_or_insert_with(|| served.stdout.clone());
                    return Ok(report);
                }
                if v.body.as_deref() != Some(served.stdout.as_str()) {
                    return Err("traced report body differs from the untraced one".into());
                }
                for (key, value) in traced_layers(w, v, &report, &paths)? {
                    *layers.entry(key).or_default() += value;
                }
                Ok(report)
            });
            for path in [&paths.save_history, &paths.trace, &paths.prom].into_iter().flatten() {
                let _ = std::fs::remove_file(path);
            }
            match outcome {
                Ok(_) if traced => self.traced_walls.push(served.done.wall_s),
                Ok(report) => {
                    self.walls.push(served.done.wall_s);
                    self.rss_mb.push(served.done.peak_rss_mb);
                    self.steps += report.steps() as f64;
                    self.ess += report.total_ess()?;
                    self.unique += report.total_unique_queries as f64;
                }
                Err(e) => {
                    eprintln!("{} v{} failed its check: {e}", w.name(), v.req.variant);
                    self.failed += jobs;
                    ok = false;
                }
            }
        }
        if !(ok && traced) {
            return Ok(None);
        }
        let n = variants.len() as f64;
        Ok(Some(layers.into_iter().map(|(k, v)| (k, v / n)).collect()))
    }
}

/// Per-layer figures of one checked traced run, read from its report,
/// `prom` snapshot, trace file and history files.
fn traced_layers(
    w: Workload,
    v: &Variant,
    report: &Report,
    paths: &RunPaths,
) -> Result<Vec<(&'static str, f64)>, String> {
    let prom_path = paths.prom.as_ref().expect("traced runs name a prom file");
    let trace_path = paths.trace.as_ref().expect("traced runs name a trace file");
    let phases = layers::wall_phases(&read(prom_path)?, w.expected_phases())?;
    let walk_steps = report.metric("walk-steps")?;
    if phases.walk_steps.map(|s| s as f64) != Some(walk_steps) {
        return Err(format!("prom walk-steps {:?} != report {walk_steps}", phases.walk_steps));
    }
    let file_len = |p: &Option<PathBuf>| -> Result<f64, String> {
        p.as_ref().map_or(Ok(0.0), |p| {
            std::fs::metadata(p)
                .map(|m| m.len() as f64)
                .map_err(|e| format!("{}: {e}", p.display()))
        })
    };
    let lookups = report.metric("total-lookups")?;
    let unique = report.metric("unique-queries")?;
    let proposals = report.metric("mh-proposals")?;
    // The scheduler report prints the arena counter as a metric line,
    // the fleet report as a timing line.
    let arena = report
        .metric("arena-rewrites-in-place")
        .or_else(|_| report.timing_or_zero("arena-rewrites-in-place"))?;
    let early_stopped = v
        .req
        .jobs
        .iter()
        .zip(&report.jobs)
        .filter(|(spec, got)| got.quality_met == Some(true) && (got.steps as usize) < spec.steps)
        .count();
    Ok(vec![
        ("serve.history_decode_s", phases.history_decode),
        ("serve.history_encode_s", phases.history_encode),
        ("serve.history_bytes", file_len(&v.warm)? + file_len(&paths.save_history)?),
        ("serve.worker_service_s", phases.worker_service),
        ("osn.total_lookups", lookups),
        ("osn.unique_queries", unique),
        ("osn.cache_hit_rate", if lookups > 0.0 { (lookups - unique) / lookups } else { 0.0 }),
        ("osn.arena_rewrites_in_place", arena),
        ("core.walk_steps", walk_steps),
        ("core.criterion_scanned", report.metric("criterion-scanned")?),
        ("core.rewire_replacements", report.rewire_replacements as f64),
        (
            "core.mh_rejection_share",
            if proposals > 0.0 { report.metric("mh-rejections")? / proposals } else { 0.0 },
        ),
        ("net.pipeline_replay_s", phases.pipeline_replay),
        ("net.pipeline_completions", report.timing_or_zero("pipeline-completions")?),
        ("net.rate_limit_stalls", report.rate_limit_stalls.unwrap_or(0) as f64),
        ("qos.ledger_reclaimed", report.ledger_reclaimed.unwrap_or(0) as f64),
        ("qos.early_stopped_jobs", early_stopped as f64),
        ("fleet.gossip_merge_s", phases.gossip_merge),
        ("fleet.barrier_wait_s", phases.barrier_wait),
        ("fleet.shard_service_s", phases.shard_service),
        ("fleet.gossip_adopted", report.gossip_saved.unwrap_or(0) as f64),
        ("fleet.merge_conflicts", report.merge_conflicts.unwrap_or(0) as f64),
        ("fleet.gossip_merge_growth", phases.gossip_merge_growth),
        ("obs.trace_events", layers::trace_events(&read(trace_path)?)? as f64),
    ])
}

/// In-process spans around the calls `mto_serve run` makes before its
/// first walk step, one sample per request and repetition.
#[derive(Default)]
struct Setup {
    /// Parse + build + service + history load.
    total_s: Vec<f64>,
    parse_s: Vec<f64>,
    build_s: Vec<f64>,
    admission_s: Vec<f64>,
    edges: Vec<f64>,
}

impl Setup {
    /// Sets every request of the rotation up once. Called between
    /// rotations, so the samples span the whole run like the timed
    /// requests do.
    fn measure(&mut self, variants: &[Variant]) -> Result<(), String> {
        for v in variants {
            let paths = RunPaths { warm_start: v.warm.clone(), ..Default::default() };
            let text = v.req.render(WIDTH, &paths);
            let t0 = Instant::now();
            let request = ServeRequest::parse(black_box(&text)).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let graph = request.network.build();
            let t2 = Instant::now();
            let service = OsnService::with_defaults(&graph);
            let prior = match &request.warm_start {
                Some(path) => Some(HistoryStore::load(path).map_err(|e| e.to_string())?),
                None => None,
            };
            let t3 = Instant::now();
            black_box((&service, &prior));
            self.parse_s.push((t1 - t0).as_secs_f64());
            self.build_s.push((t2 - t1).as_secs_f64());
            self.total_s.push((t3 - t0).as_secs_f64());
            self.edges.push(graph.num_edges() as f64);
            if request.shards.is_some() {
                // The fleet reviews admission before its first epoch.
                let t = Instant::now();
                let mut predictor = CostPredictor::new(service.num_users_hint());
                if let Some(p) = &request.provider {
                    predictor = predictor.with_provider(p);
                }
                let decisions =
                    AdmissionController::new(mto_fleet::FleetConfig::default().deadline_policy)
                        .review(
                            &predictor,
                            &request.jobs,
                            prior.as_ref(),
                            request.scheduler.global_query_budget,
                        );
                black_box(&decisions);
                self.admission_s.push(t.elapsed().as_secs_f64());
            }
        }
        Ok(())
    }
}

/// Nanoseconds per step of each request's first MTO job, replayed
/// through the public `Walker` API on a `CachedClient` warm-started from
/// the history of one untimed pass of the same job: the walker and its
/// arena without locks or gossip.
fn mto_step_ns(variants: &[Variant]) -> Result<f64, String> {
    let mut samples = Vec::new();
    for v in variants {
        let text =
            v.req.render(WIDTH, &RunPaths { warm_start: v.warm.clone(), ..Default::default() });
        let request = ServeRequest::parse(&text).map_err(|e| e.to_string())?;
        let Some((job, cfg)) = request.jobs.iter().find_map(|j| match j.algo {
            AlgoSpec::Mto(cfg) => Some((j, cfg)),
            _ => None,
        }) else {
            continue;
        };
        let graph = request.network.build();
        let e = |e: mto_osn::OsnError| e.to_string();
        let mut cold =
            MtoSampler::new(CachedClient::new(OsnService::with_defaults(&graph)), job.start, cfg)
                .map_err(e)?;
        cold.run(job.step_budget).map_err(e)?;
        let history = HistoryStore::from_client(cold.client());
        let mut reps = Vec::new();
        for _ in 0..PROBE_REPS {
            let client =
                history.warm_start(OsnService::with_defaults(&graph)).map_err(|e| e.to_string())?;
            let mut walker = MtoSampler::new(client, job.start, cfg).map_err(e)?;
            let t = Instant::now();
            black_box(walker.run(job.step_budget).map_err(e)?);
            reps.push(t.elapsed().as_nanos() as f64 / job.step_budget as f64);
            if walker.client().unique_queries() != 0 {
                return Err("walker probe paid queries on a warm cache".into());
            }
        }
        samples.push(median(&reps));
    }
    Ok(median(&samples))
}

type Metric = (&'static str, f64, &'static str);

/// Every figure derives from the median request wall and per-request
/// means of the deterministic counts.
fn end_to_end_metrics(setup: &Setup, l: &Loop) -> Vec<Metric> {
    let wall = median(&l.walls);
    let n = l.walls.len() as f64;
    vec![
        ("request_wall_s", wall, "s"),
        ("steps_per_s", l.steps / n / wall, "1/s"),
        ("setup_s", median(&setup.total_s), "s"),
        ("unique_queries", l.unique / n, "count"),
        ("queries_per_ess", l.unique / l.ess, "queries/ess"),
        ("ess_per_s", l.ess / n / wall, "ess/s"),
        ("peak_rss_mb", median(&l.rss_mb), "MiB"),
    ]
}

/// Unit of every per-layer metric, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 30] = [
    ("graph.build_s", "s"),
    ("graph.edges", "count"),
    ("serve.parse_s", "s"),
    ("serve.history_decode_s", "s"),
    ("serve.history_encode_s", "s"),
    ("serve.history_bytes", "bytes"),
    ("serve.worker_service_s", "s"),
    ("osn.total_lookups", "count"),
    ("osn.unique_queries", "count"),
    ("osn.cache_hit_rate", "ratio"),
    ("osn.arena_rewrites_in_place", "count"),
    ("core.walk_steps", "count"),
    ("core.criterion_scanned", "count"),
    ("core.rewire_replacements", "count"),
    ("core.mh_rejection_share", "ratio"),
    ("core.mto_step_ns", "ns"),
    ("net.pipeline_replay_s", "s"),
    ("net.pipeline_completions", "count"),
    ("net.rate_limit_stalls", "count"),
    ("qos.admission_s", "s"),
    ("qos.ledger_reclaimed", "count"),
    ("qos.early_stopped_jobs", "count"),
    ("fleet.gossip_merge_s", "s"),
    ("fleet.barrier_wait_s", "s"),
    ("fleet.shard_service_s", "s"),
    ("fleet.gossip_adopted", "count"),
    ("fleet.merge_conflicts", "count"),
    ("fleet.gossip_merge_growth", "ratio"),
    ("obs.trace_events", "count"),
    ("obs.tracing_overhead", "ratio"),
];

fn per_layer_metrics(
    variants: &[Variant],
    setup: &Setup,
    l: &Loop,
    traced: &[BTreeMap<&'static str, f64>],
) -> Result<Vec<Metric>, String> {
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let samples: Vec<f64> = traced.iter().filter_map(|t| t.get(name).copied()).collect();
        if !samples.is_empty() {
            values.insert(name, median(&samples));
        }
    }
    values.insert("graph.build_s", median(&setup.build_s));
    values.insert("graph.edges", median(&setup.edges));
    values.insert("serve.parse_s", median(&setup.parse_s));
    values.insert("qos.admission_s", median(&setup.admission_s));
    values.insert("core.mto_step_ns", mto_step_ns(variants)?);
    let traced_wall = median(&l.traced_walls);
    values.insert("obs.tracing_overhead", traced_wall / median(&l.walls) - 1.0);
    // Wall shares are a reading aid, not metrics: stderr only.
    let shares: Vec<String> = values
        .iter()
        .filter(|(name, _)| name.ends_with("_s"))
        .map(|(name, v)| format!("{name} {:.1}%", 100.0 * v / traced_wall))
        .collect();
    eprintln!("share of the {:.4} s traced request wall: {}", traced_wall, shares.join(", "));
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect())
}

fn zero_metrics(trace: bool) -> Vec<Metric> {
    if trace {
        PER_LAYER.iter().map(|&(name, unit)| (name, 0.0, unit)).collect()
    } else {
        end_to_end_metrics(&Setup::default(), &Loop::default())
    }
}

/// Median of `values`; 0 for an empty slice.
fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 16, 0, &[("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 16, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn printed_metrics_are_the_ones_benchmark_json_declares() {
        let declared = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let start = declared.find(&format!("\"{section}\"")).unwrap();
            let end = declared[start..].find(']').unwrap() + start;
            declared[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let printed = |metrics: Vec<Metric>| -> Vec<String> {
            metrics.into_iter().map(|(name, _, _)| name.to_string()).collect()
        };
        assert_eq!(printed(zero_metrics(false)), names("end_to_end"));
        assert_eq!(printed(zero_metrics(true)), names("per_layer"));
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, names("workloads"));
    }

    #[test]
    fn args_require_the_paths_and_a_known_workload() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--serve s --work w --workload warm-single --seed 9 --seconds 5 --trace 1")
            .unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::WarmSingle, 9, 5.0, true));
        assert!(parse("--serve s --work w --workload nope").is_err());
        assert!(parse("--work w --workload warm-single").is_err());
        assert!(parse("--serve s --work w --workload warm-single --trace 2").is_err());
    }
}
