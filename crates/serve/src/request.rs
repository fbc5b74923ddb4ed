//! Request files: the `mto_serve` binary's input format.
//!
//! A request file is line-oriented: blank lines and `#` comments are
//! ignored, every other line is a directive.
//!
//! ```text
//! # which simulated network to build (mto-graph generators)
//! network barbell
//! # optional provider simulation: rate limit + latency on the virtual
//! # clock (mto-net presets: facebook / twitter / google-plus)
//! provider facebook
//! # optional persistent history
//! warm-start crawl.hist
//! save-history crawl.hist
//! # scheduler knobs
//! workers 4
//! quantum 32
//! budget 5000
//! policy budget-proportional
//! # crash-safe append-only history (mto-serve journal format; replays
//! # on open, tolerates a torn tail)
//! journal crawl.journal
//! # observability: every run collects the deterministic metrics/trace
//! # plane, the estimator-quality plane, and the wall-clock plane; these
//! # directives choose what is written or rendered. Write the
//! # deterministic `mto-trace/v2` trace to a file, and append the metrics
//! # summary to the report (`metrics` has no payload)
//! trace run.trace
//! metrics
//! # add the estimator-quality `metric quality-*` lines (streaming ESS /
//! # Geweke z per job and the cross-chain R-hat) to the metrics summary;
//! # payload-free, like `metrics`. Jobs may declare an `ess=N` SLO for
//! # deterministic early stop only in a request that carries it.
//! quality
//! # write a Prometheus text-exposition snapshot of the run's metrics,
//! # quality, and wall-phase timings here. The snapshot is a side
//! # channel — report bodies, traces, and `metric` lines stay
//! # byte-identical whether or not `prom` is present.
//! prom metrics.prom
//! # fleet mode (mto-fleet): shard the jobs across W workers and gossip
//! # history at N epoch barriers. Replaces the scheduler: `workers` /
//! # `quantum` are rejected together with `shards`; `budget` becomes the
//! # fleet-wide unique-query budget split by the mto-qos ledger, and
//! # `policy edf` schedules quanta earliest-deadline-first.
//! #shards 4
//! #epochs 8
//! # one line per job (same syntax as session snapshots); `deadline=` is
//! # an optional per-job completion deadline in virtual seconds
//! job id=a algo=mto start=0 steps=500 seed=7 deadline=45.0
//! job id=b algo=srw start=3 steps=500 seed=9
//! ```

use std::path::PathBuf;

use mto_graph::{generators, Graph};
use mto_net::ProviderProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::ServeError;
use crate::scheduler::{SchedulePolicy, SchedulerConfig};
use crate::session::{parse_job_line, JobSpec};

/// A buildable simulated-network description. Every variant maps to an
/// `mto_graph::generators` call, so the service layer stays below
/// `mto-experiments` in the crate DAG.
#[derive(Clone, Debug, PartialEq)]
pub enum NetworkSpec {
    /// The paper's 22-node barbell running example.
    Barbell,
    /// Complete graph `K_n`.
    Complete {
        /// Node count.
        n: usize,
    },
    /// Cycle graph `C_n`.
    Cycle {
        /// Node count (≥ 3).
        n: usize,
    },
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        /// Node count.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Planted-partition stochastic block model.
    Sbm {
        /// Number of blocks.
        blocks: usize,
        /// Nodes per block.
        block_size: usize,
        /// Intra-block edge probability.
        p_in: f64,
        /// Inter-block edge probability.
        p_out: f64,
        /// Generator seed.
        seed: u64,
    },
    /// Watts–Strogatz small world.
    WattsStrogatz {
        /// Node count.
        n: usize,
        /// Ring degree (even).
        k: usize,
        /// Rewiring probability.
        beta: f64,
        /// Generator seed.
        seed: u64,
    },
}

impl NetworkSpec {
    /// Parses the payload of a `network` directive.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut tokens = text.split_whitespace();
        let name = tokens.next().ok_or("empty network spec")?;
        let mut fields = std::collections::HashMap::new();
        for token in tokens {
            let (k, v) = token
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {token:?}"))?;
            if fields.insert(k, v).is_some() {
                return Err(format!("duplicate field {k:?}"));
            }
        }
        fn field<T: std::str::FromStr>(
            fields: &mut std::collections::HashMap<&str, &str>,
            key: &str,
        ) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            let v = fields.remove(key).ok_or_else(|| format!("missing {key}="))?;
            v.parse().map_err(|e| format!("bad {key} {v:?}: {e}"))
        }
        let spec = match name {
            "barbell" => NetworkSpec::Barbell,
            "complete" => NetworkSpec::Complete { n: field(&mut fields, "n")? },
            "cycle" => NetworkSpec::Cycle { n: field(&mut fields, "n")? },
            "gnp" => NetworkSpec::Gnp {
                n: field(&mut fields, "n")?,
                p: field(&mut fields, "p")?,
                seed: field(&mut fields, "seed")?,
            },
            "sbm" => NetworkSpec::Sbm {
                blocks: field(&mut fields, "blocks")?,
                block_size: field(&mut fields, "block-size")?,
                p_in: field(&mut fields, "p-in")?,
                p_out: field(&mut fields, "p-out")?,
                seed: field(&mut fields, "seed")?,
            },
            "ws" => NetworkSpec::WattsStrogatz {
                n: field(&mut fields, "n")?,
                k: field(&mut fields, "k")?,
                beta: field(&mut fields, "beta")?,
                seed: field(&mut fields, "seed")?,
            },
            other => return Err(format!("unknown network kind {other:?}")),
        };
        if let Some(k) = fields.keys().next() {
            return Err(format!("unknown field {k:?} for network {name}"));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Rejects parameters the generators cannot build: probabilities
    /// outside [0, 1], cycles under 3 nodes, and Watts–Strogatz lattices
    /// with an odd degree `k` or `k >= n`.
    fn validate(&self) -> Result<(), String> {
        let probability = |key: &str, p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("{key}={p} is outside [0, 1]"))
            }
        };
        match *self {
            NetworkSpec::Cycle { n } if n < 3 => Err(format!("cycle needs n >= 3, got n={n}")),
            NetworkSpec::Gnp { p, .. } => probability("p", p),
            NetworkSpec::Sbm { p_in, p_out, .. } => {
                probability("p-in", p_in)?;
                probability("p-out", p_out)
            }
            NetworkSpec::WattsStrogatz { n, k, beta, .. } => {
                if k % 2 != 0 {
                    return Err(format!("ws lattice degree k={k} must be even"));
                }
                if k >= n {
                    return Err(format!("ws lattice degree k={k} must be below n={n}"));
                }
                probability("beta", beta)
            }
            _ => Ok(()),
        }
    }

    /// The directive payload [`NetworkSpec::parse`] accepts back.
    pub fn to_line(&self) -> String {
        match self {
            NetworkSpec::Barbell => "barbell".to_string(),
            NetworkSpec::Complete { n } => format!("complete n={n}"),
            NetworkSpec::Cycle { n } => format!("cycle n={n}"),
            NetworkSpec::Gnp { n, p, seed } => format!("gnp n={n} p={p:?} seed={seed}"),
            NetworkSpec::Sbm { blocks, block_size, p_in, p_out, seed } => format!(
                "sbm blocks={blocks} block-size={block_size} p-in={p_in:?} p-out={p_out:?} \
                 seed={seed}"
            ),
            NetworkSpec::WattsStrogatz { n, k, beta, seed } => {
                format!("ws n={n} k={k} beta={beta:?} seed={seed}")
            }
        }
    }

    /// Node count of the network this spec builds — derivable without
    /// constructing the (possibly large random) graph, so request
    /// validation stays O(1).
    pub fn num_nodes(&self) -> usize {
        match *self {
            NetworkSpec::Barbell => generators::BarbellSpec::paper().num_nodes(),
            NetworkSpec::Complete { n }
            | NetworkSpec::Cycle { n }
            | NetworkSpec::Gnp { n, .. }
            | NetworkSpec::WattsStrogatz { n, .. } => n,
            NetworkSpec::Sbm { blocks, block_size, .. } => blocks * block_size,
        }
    }

    /// Builds the topology (deterministic given the spec).
    pub fn build(&self) -> Graph {
        match *self {
            NetworkSpec::Barbell => generators::paper_barbell(),
            NetworkSpec::Complete { n } => generators::complete_graph(n),
            NetworkSpec::Cycle { n } => generators::cycle_graph(n),
            NetworkSpec::Gnp { n, p, seed } => {
                generators::gnp_graph(n, p, &mut StdRng::seed_from_u64(seed))
            }
            NetworkSpec::Sbm { blocks, block_size, p_in, p_out, seed } => generators::sbm_graph(
                &generators::SbmSpec { block_sizes: vec![block_size; blocks], p_in, p_out },
                &mut StdRng::seed_from_u64(seed),
            ),
            NetworkSpec::WattsStrogatz { n, k, beta, seed } => {
                generators::watts_strogatz_graph(n, k, beta, &mut StdRng::seed_from_u64(seed))
            }
        }
    }
}

/// A parsed request file.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRequest {
    /// The network every job samples.
    pub network: NetworkSpec,
    /// Simulate this provider's rate limit and latency on the virtual
    /// clock (`provider` directive; reports then carry `virtual-secs`).
    pub provider: Option<ProviderProfile>,
    /// Warm-start the shared client from this history file.
    pub warm_start: Option<PathBuf>,
    /// After the run, persist the shared client's history here.
    pub save_history: Option<PathBuf>,
    /// Crash-safe append-only history journal (`journal` directive):
    /// warm-start from it when it exists, append the run's new knowledge
    /// afterwards. Mutually exclusive with `warm-start` (one source of
    /// prior truth per run).
    pub journal: Option<PathBuf>,
    /// Shard the jobs across this many fleet workers (`shards`
    /// directive); `None` runs the plain single-client scheduler. The
    /// fleet path lives in `mto-fleet`.
    pub shards: Option<usize>,
    /// Target number of epoch barriers for the fleet's history gossip
    /// (`epochs` directive; only meaningful with `shards`).
    pub epochs: Option<usize>,
    /// Scheduler knobs (`workers`, `quantum`, `budget`, `policy`
    /// directives).
    pub scheduler: SchedulerConfig,
    /// Write the run's deterministic `mto-trace/v2` trace here (`trace`
    /// directive). Trace contents cover only the deterministic plane —
    /// virtual-time span/point events that are byte-identical across
    /// shard and worker counts.
    pub trace: Option<PathBuf>,
    /// Append the metrics summary to the report (`metrics` directive,
    /// no payload).
    pub metrics: bool,
    /// Render the estimator-quality plane's `metric quality-*` lines
    /// (`quality` directive, no payload): per-job streaming ESS and
    /// windowed Geweke z, and the cross-chain R-hat. The plane itself is
    /// always collected; a job may declare an `ess=` SLO only in a
    /// request that carries this directive.
    pub quality: bool,
    /// Write a Prometheus text-exposition snapshot here (`prom`
    /// directive). The snapshot carries the deterministic metrics, the
    /// quality figures, and the wall-phase timings, and is the *only*
    /// output that varies run to run — reports, traces, and `metric`
    /// lines are unaffected.
    pub prom: Option<PathBuf>,
    /// The jobs, in file order.
    pub jobs: Vec<JobSpec>,
}

impl ServeRequest {
    /// Parses a request file. Every rejection names the line of the
    /// offending directive (line 0 only for what is missing altogether).
    pub fn parse(text: &str) -> Result<Self, ServeError> {
        let mut network = None;
        let mut provider = None;
        let mut policy_line = None;
        let mut warm_start = None;
        let mut save_history = None;
        let mut journal = None;
        let mut shards = None;
        let mut epochs = None;
        let mut scheduler_knob_line = None;
        let mut scheduler = SchedulerConfig::default();
        let mut trace = None;
        let mut metrics = false;
        let mut quality = false;
        let mut prom = None;
        let mut jobs: Vec<JobSpec> = Vec::new();
        let mut job_lines: Vec<usize> = Vec::new();
        let err = |line: usize, message: String| ServeError::Request { line, message };

        for (lineno, keyword, rest) in directives(text) {
            // `metrics` and `quality` are the flag directives: no
            // payload to parse.
            if keyword == "metrics" || keyword == "quality" {
                let flag = if keyword == "metrics" { &mut metrics } else { &mut quality };
                if !rest.is_empty() {
                    return Err(err(lineno, format!("{keyword} takes no payload")));
                }
                if *flag {
                    return Err(err(lineno, format!("duplicate {keyword} directive")));
                }
                *flag = true;
                continue;
            }
            if rest.is_empty() {
                return Err(err(lineno, format!("directive {keyword:?} has no payload")));
            }
            match keyword {
                "network" => {
                    if network.is_some() {
                        return Err(err(lineno, "duplicate network directive".into()));
                    }
                    network = Some(NetworkSpec::parse(rest).map_err(|m| err(lineno, m))?);
                }
                "provider" => {
                    if provider.is_some() {
                        return Err(err(lineno, "duplicate provider directive".into()));
                    }
                    provider =
                        Some(ProviderProfile::by_name(rest).ok_or_else(|| {
                            err(lineno, format!("unknown provider preset {rest:?}"))
                        })?);
                }
                "policy" => {
                    if policy_line.is_some() {
                        return Err(err(lineno, "duplicate policy directive".into()));
                    }
                    policy_line = Some(lineno);
                    scheduler.policy = SchedulePolicy::parse(rest).map_err(|m| err(lineno, m))?;
                }
                "trace" => {
                    if trace.is_some() {
                        return Err(err(lineno, "duplicate trace directive".into()));
                    }
                    trace = Some(PathBuf::from(rest));
                }
                "prom" => {
                    if prom.is_some() {
                        return Err(err(lineno, "duplicate prom directive".into()));
                    }
                    prom = Some(PathBuf::from(rest));
                }
                "warm-start" => warm_start = Some((lineno, PathBuf::from(rest))),
                "save-history" => save_history = Some(PathBuf::from(rest)),
                "journal" => journal = Some((lineno, PathBuf::from(rest))),
                "shards" => {
                    if shards.is_some() {
                        return Err(err(lineno, "duplicate shards directive".into()));
                    }
                    let n: usize =
                        rest.parse().map_err(|e| err(lineno, format!("bad shards: {e}")))?;
                    if n == 0 {
                        return Err(err(lineno, "shards must be at least 1".into()));
                    }
                    shards = Some(n);
                }
                "epochs" => {
                    if epochs.is_some() {
                        return Err(err(lineno, "duplicate epochs directive".into()));
                    }
                    let n: usize =
                        rest.parse().map_err(|e| err(lineno, format!("bad epochs: {e}")))?;
                    if n == 0 {
                        return Err(err(lineno, "epochs must be at least 1".into()));
                    }
                    epochs = Some((lineno, n));
                }
                "workers" => {
                    scheduler_knob_line.get_or_insert(lineno);
                    scheduler.workers =
                        rest.parse().map_err(|e| err(lineno, format!("bad workers: {e}")))?;
                }
                "quantum" => {
                    scheduler_knob_line.get_or_insert(lineno);
                    scheduler.quantum =
                        rest.parse().map_err(|e| err(lineno, format!("bad quantum: {e}")))?;
                }
                "budget" => {
                    scheduler.global_query_budget =
                        Some(rest.parse().map_err(|e| err(lineno, format!("bad budget: {e}")))?);
                }
                "job" => {
                    let job = parse_job_line(rest).map_err(|m| err(lineno, m))?;
                    if jobs.iter().any(|j| j.id == job.id) {
                        return Err(err(lineno, format!("duplicate job id {:?}", job.id)));
                    }
                    jobs.push(job);
                    job_lines.push(lineno);
                }
                other => return Err(err(lineno, format!("unknown directive {other:?}"))),
            }
        }

        let network = network.ok_or_else(|| err(0, "missing `network` directive".into()))?;
        if jobs.is_empty() {
            return Err(err(0, "request names no jobs".into()));
        }
        if let (Some((line, _)), None) = (epochs, shards) {
            return Err(err(line, "`epochs` requires a `shards` directive".into()));
        }
        // `budget` + `shards` is legal since the mto-qos ledger: the
        // fleet-wide budget is split per job at admission and rebalanced
        // at epoch barriers, so cuts no longer depend on shard placement.
        if let (Some(_), Some(line)) = (shards, policy_line) {
            if scheduler.policy == SchedulePolicy::BudgetProportional {
                // The fleet's epoch planner implements round-robin and
                // EDF; silently running the proportional policy as
                // round-robin would drop a directive the user asked for.
                return Err(err(
                    line,
                    "`policy budget-proportional` tunes the single-client scheduler and is \
                     not implemented by the fleet planner; use `round-robin` or `edf` with \
                     `shards`"
                        .into(),
                ));
            }
        }
        if let (Some(_), Some(line)) = (shards, scheduler_knob_line) {
            // Fleet parallelism is `shards`, fleet stepping granularity
            // is `epochs` — silently dropping the scheduler knobs would
            // let a request claim tuning it never gets.
            return Err(err(
                line,
                "`workers`/`quantum` tune the single-client scheduler and have no effect \
                 with `shards`; use `shards`/`epochs` instead"
                    .into(),
            ));
        }
        if let (Some((journal_line, _)), Some((warm_line, _))) = (&journal, &warm_start) {
            return Err(err(
                *journal_line.max(warm_line),
                "`journal` and `warm-start` are mutually exclusive (one source of prior \
                 history per run)"
                    .into(),
            ));
        }
        let num_nodes = network.num_nodes();
        for (job, &line) in jobs.iter().zip(&job_lines) {
            if job.ess.is_some() && !quality {
                // An `ess=` SLO must be visible in the report that judges
                // it: without the `quality` directive its verdict and
                // figures would never be rendered — reject instead.
                return Err(err(
                    line,
                    format!(
                        "job {:?} declares an ess= SLO but the request has no `quality` \
                         directive (the quality lines report the ESS the SLO is judged \
                         against)",
                        job.id
                    ),
                ));
            }
            if job.start.index() >= num_nodes {
                return Err(err(
                    line,
                    format!(
                        "job {:?} starts at {} but the network has {num_nodes} nodes",
                        job.id, job.start,
                    ),
                ));
            }
        }
        Ok(ServeRequest {
            network,
            provider,
            warm_start: warm_start.map(|(_, path)| path),
            save_history,
            journal: journal.map(|(_, path)| path),
            shards,
            epochs: epochs.map(|(_, n)| n),
            scheduler,
            trace,
            metrics,
            quality,
            prom,
            jobs,
        })
    }
}

/// The directives of a request file, `(line number, keyword, payload)`,
/// skipping blank lines and `#` comments. The payload is empty for a
/// bare keyword.
fn directives(text: &str) -> impl Iterator<Item = (usize, &str, &str)> {
    text.lines().enumerate().filter_map(|(idx, raw)| {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        let (keyword, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        Some((idx + 1, keyword, rest.trim()))
    })
}

/// The line of the first `keyword` directive in a request file — how
/// callers that reject a parsed request's directive name its line.
pub fn directive_line(text: &str, keyword: &str) -> Option<usize> {
    directives(text).find(|&(_, k, _)| k == keyword).map(|(line, _, _)| line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AlgoSpec;

    const SMOKE: &str = "\
# a comment
network barbell
provider facebook

workers 2
quantum 32
budget 100
policy budget-proportional
warm-start in.hist
save-history out.hist
job id=a algo=mto start=0 steps=400 seed=7
job id=b algo=srw start=3 steps=400 seed=9
";

    #[test]
    fn request_file_parses() {
        let req = ServeRequest::parse(SMOKE).unwrap();
        assert_eq!(req.network, NetworkSpec::Barbell);
        assert_eq!(req.provider, Some(ProviderProfile::facebook()));
        assert_eq!(req.scheduler.workers, 2);
        assert_eq!(req.scheduler.quantum, 32);
        assert_eq!(req.scheduler.global_query_budget, Some(100));
        assert_eq!(req.scheduler.policy, crate::scheduler::SchedulePolicy::BudgetProportional);
        assert_eq!(req.warm_start, Some(PathBuf::from("in.hist")));
        assert_eq!(req.save_history, Some(PathBuf::from("out.hist")));
        assert_eq!(req.jobs.len(), 2);
        assert!(matches!(req.jobs[0].algo, AlgoSpec::Mto(_)));
        assert_eq!(req.jobs[1].id, "b");
    }

    #[test]
    fn provider_and_policy_directives_default_off_and_reject_garbage() {
        let plain = "network barbell\njob id=a algo=mto start=0 steps=1";
        let req = ServeRequest::parse(plain).unwrap();
        assert_eq!(req.provider, None);
        assert_eq!(req.scheduler.policy, crate::scheduler::SchedulePolicy::RoundRobin);
        for (text, needle) in [
            ("network barbell\nprovider myspace\njob id=a algo=mto start=0 steps=1", "myspace"),
            (
                "network barbell\nprovider facebook\nprovider twitter\n\
                 job id=a algo=mto start=0 steps=1",
                "duplicate provider",
            ),
            ("network barbell\npolicy lottery\njob id=a algo=mto start=0 steps=1", "lottery"),
            (
                "network barbell\npolicy round-robin\npolicy budget-proportional\n\
                 job id=a algo=mto start=0 steps=1",
                "duplicate policy",
            ),
        ] {
            let e = ServeRequest::parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} → {e}");
        }
    }

    #[test]
    fn fleet_and_journal_directives_parse_and_validate() {
        let req = ServeRequest::parse(
            "network barbell\nshards 4\nepochs 8\njournal crawl.journal\n\
             job id=a algo=mto start=0 steps=100",
        )
        .unwrap();
        assert_eq!(req.shards, Some(4));
        assert_eq!(req.epochs, Some(8));
        assert_eq!(req.journal, Some(PathBuf::from("crawl.journal")));

        let plain = ServeRequest::parse("network barbell\njob id=a algo=mto start=0 steps=1");
        let plain = plain.unwrap();
        assert_eq!(plain.shards, None);
        assert_eq!(plain.epochs, None);
        assert_eq!(plain.journal, None);

        for (text, needle) in [
            ("network barbell\nshards 0\njob id=a algo=mto start=0 steps=1", "at least 1"),
            ("network barbell\nepochs 0\nshards 2\njob id=a algo=mto start=0 steps=1", "at least"),
            ("network barbell\nshards 2\nshards 4\njob id=a algo=mto start=0 steps=1", "duplicate"),
            ("network barbell\nepochs 3\njob id=a algo=mto start=0 steps=1", "requires"),
            (
                "network barbell\nshards 2\npolicy budget-proportional\n\
                 job id=a algo=mto start=0 steps=1",
                "not implemented by the fleet planner",
            ),
            (
                "network barbell\nshards 2\nworkers 8\njob id=a algo=mto start=0 steps=1",
                "no effect",
            ),
            (
                "network barbell\nshards 2\nquantum 16\njob id=a algo=mto start=0 steps=1",
                "no effect",
            ),
            (
                "network barbell\njournal a.j\nwarm-start b.hist\n\
                 job id=a algo=mto start=0 steps=1",
                "mutually exclusive",
            ),
        ] {
            let e = ServeRequest::parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} → {e}");
        }
    }

    #[test]
    fn budgeted_fleet_requests_with_deadlines_parse() {
        // `budget` + `shards` is legal since the QoS ledger (ROADMAP open
        // item resolved): the fleet budget is split per job at admission.
        let req = ServeRequest::parse(
            "network barbell\nshards 4\nepochs 6\nbudget 500\npolicy edf\n\
             job id=a algo=mto start=0 steps=100 deadline=12.5\n\
             job id=b algo=srw start=3 steps=100",
        )
        .unwrap();
        assert_eq!(req.shards, Some(4));
        assert_eq!(req.scheduler.global_query_budget, Some(500));
        assert_eq!(req.scheduler.policy, crate::scheduler::SchedulePolicy::EarliestDeadlineFirst);
        assert_eq!(req.jobs[0].deadline, Some(12.5));
        assert_eq!(req.jobs[1].deadline, None);
    }

    #[test]
    fn trace_and_metrics_directives_parse_and_reject_duplicates() {
        let req = ServeRequest::parse(
            "network barbell\ntrace run.trace\nmetrics\nprom run.prom\n\
             job id=a algo=mto start=0 steps=1",
        )
        .unwrap();
        assert_eq!(req.trace, Some(PathBuf::from("run.trace")));
        assert!(req.metrics);
        assert_eq!(req.prom, Some(PathBuf::from("run.prom")));

        let plain = ServeRequest::parse("network barbell\njob id=a algo=mto start=0 steps=1");
        let plain = plain.unwrap();
        assert_eq!(plain.trace, None);
        assert!(!plain.metrics, "observability defaults off");
        assert_eq!(plain.prom, None, "the wall-clock plane defaults off");

        for (text, needle) in [
            (
                "network barbell\ntrace a.t\ntrace b.t\njob id=a algo=mto start=0 steps=1",
                "duplicate trace",
            ),
            (
                "network barbell\nmetrics\nmetrics\njob id=a algo=mto start=0 steps=1",
                "duplicate metrics",
            ),
            (
                "network barbell\nprom a.prom\nprom b.prom\njob id=a algo=mto start=0 steps=1",
                "duplicate prom",
            ),
            ("network barbell\ntrace\njob id=a algo=mto start=0 steps=1", "no payload"),
            ("network barbell\nprom\njob id=a algo=mto start=0 steps=1", "no payload"),
        ] {
            let e = ServeRequest::parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} → {e}");
        }
    }

    #[test]
    fn quality_directive_parses_and_gates_ess_slos() {
        let req = ServeRequest::parse(
            "network barbell\nquality\nshards 2\nepochs 4\n\
             job id=a algo=mto start=0 steps=100 ess=40\n\
             job id=b algo=srw start=3 steps=100",
        )
        .unwrap();
        assert!(req.quality);
        assert_eq!(req.jobs[0].ess, Some(40));
        assert_eq!(req.jobs[1].ess, None);

        let plain = ServeRequest::parse("network barbell\njob id=a algo=mto start=0 steps=1");
        assert!(!plain.unwrap().quality, "the quality plane defaults off");

        for (text, needle) in [
            (
                "network barbell\nquality\nquality\njob id=a algo=mto start=0 steps=1",
                "duplicate quality",
            ),
            (
                "network barbell\njob id=a algo=mto start=0 steps=100 ess=40",
                "no `quality` directive",
            ),
        ] {
            let e = ServeRequest::parse(text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} → {e}");
        }
    }

    /// The `line N` a rejected request names.
    fn rejected_line(text: &str) -> usize {
        match ServeRequest::parse(text).unwrap_err() {
            ServeError::Request { line, .. } => line,
            other => panic!("{text:?} → {other}"),
        }
    }

    #[test]
    fn network_parameters_the_generators_cannot_build_are_rejected() {
        for (network, needle) in [
            ("gnp n=50 p=1.5 seed=1", "p=1.5"),
            ("gnp n=50 p=-0.1 seed=1", "p=-0.1"),
            ("gnp n=50 p=NaN seed=1", "p=NaN"),
            ("cycle n=2", "n >= 3"),
            ("ws n=10 k=20 beta=0.1 seed=1", "below n=10"),
            ("ws n=10 k=10 beta=0.1 seed=1", "below n=10"),
            ("ws n=10 k=3 beta=0.1 seed=1", "even"),
            ("ws n=10 k=4 beta=1.5 seed=1", "beta=1.5"),
            ("sbm blocks=2 block-size=5 p-in=2 p-out=0.1 seed=1", "p-in=2"),
            ("sbm blocks=2 block-size=5 p-in=0.5 p-out=-1 seed=1", "p-out=-1"),
        ] {
            assert!(NetworkSpec::parse(network).unwrap_err().contains(needle), "{network}");
            let text = format!("# probe\nnetwork {network}\njob id=a algo=srw start=0 steps=1");
            assert_eq!(rejected_line(&text), 2, "{network}");
        }
        for edge in
            ["gnp n=5 p=0 seed=1", "gnp n=5 p=1 seed=1", "cycle n=3", "ws n=5 k=4 beta=1 seed=1"]
        {
            NetworkSpec::parse(edge).unwrap().build();
        }
    }

    #[test]
    fn request_file_rejections_carry_line_numbers() {
        let job = "job id=a algo=mto start=0 steps=1";
        for (text, needle, line) in [
            (job.to_string(), "missing `network`", 0),
            ("network barbell\n".to_string(), "no jobs", 0),
            (format!("network barbell\nnetwork barbell\n{job}"), "duplicate", 2),
            (format!("network barbell\nfrobnicate 3\n{job}"), "frobnicate", 2),
            (
                format!("network barbell\n{job}\njob id=a algo=srw start=0 steps=1"),
                "duplicate job id",
                3,
            ),
            (format!("network barbell\n{job}\njob id=b algo=srw start=999 steps=1"), "999", 3),
            (format!("network nope\n{job}"), "unknown network", 1),
            (format!("network barbell\n{job}\njob id=b algo=srw start=0 steps=9 ess=4"), "ess=", 3),
            (format!("network barbell\nshards 2\n\nworkers 8\n{job}"), "no effect", 4),
            (format!("network barbell\nquantum 16\nshards 2\n{job}"), "no effect", 2),
            (format!("network barbell\njournal a.j\n{job}\nwarm-start b.hist"), "exclusive", 4),
            (format!("network barbell\nwarm-start b.hist\njournal a.j\n{job}"), "exclusive", 3),
            (format!("network barbell\n{job}\nepochs 3"), "requires", 3),
            (format!("network barbell\npolicy budget-proportional\nshards 2\n{job}"), "fleet", 2),
        ] {
            let e = ServeRequest::parse(&text).unwrap_err();
            assert!(e.to_string().contains(needle), "{text:?} → {e}");
            assert_eq!(rejected_line(&text), line, "{text:?} → {e}");
        }
        let text =
            "# fleet\nnetwork barbell\nshards 2\nepochs 4\njob id=a algo=mto start=0 steps=1";
        assert_eq!(directive_line(text, "shards"), Some(3));
        assert_eq!(directive_line(text, "epochs"), Some(4));
        assert_eq!(directive_line(text, "journal"), None);
    }

    #[test]
    fn network_specs_round_trip_and_build() {
        let specs = vec![
            NetworkSpec::Barbell,
            NetworkSpec::Complete { n: 6 },
            NetworkSpec::Cycle { n: 9 },
            NetworkSpec::Gnp { n: 30, p: 0.2, seed: 5 },
            NetworkSpec::Sbm { blocks: 3, block_size: 10, p_in: 0.5, p_out: 0.05, seed: 7 },
            NetworkSpec::WattsStrogatz { n: 24, k: 4, beta: 0.1, seed: 3 },
        ];
        for spec in specs {
            let line = spec.to_line();
            assert_eq!(NetworkSpec::parse(&line).unwrap(), spec, "line {line:?}");
            let g = spec.build();
            assert!(g.num_nodes() > 0);
            assert_eq!(g.num_nodes(), spec.num_nodes(), "cheap node count must match the build");
            // Deterministic rebuild.
            assert_eq!(g.num_edges(), spec.build().num_edges());
        }
    }

    #[test]
    fn job_start_bounds_are_checked_against_the_network() {
        let ok = "network complete n=5\njob id=a algo=mto start=4 steps=10";
        assert!(ServeRequest::parse(ok).is_ok());
        let bad = "network complete n=5\njob id=a algo=mto start=5 steps=10";
        assert!(ServeRequest::parse(bad).is_err());
    }
}
