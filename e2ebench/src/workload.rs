//! The three workloads: `mto_serve` request files generated from a seed.
//!
//! A run of one workload cycles through a *rotation* of
//! [`Workload::rotation_len`] requests of the same shape. Each request gets its own network seed,
//! start nodes and walker seeds, all derived from the benchmark seed, so
//! one run's figures average over several networks and walk sets instead
//! of resting on one draw.

use std::fmt::Write;
use std::path::{Path, PathBuf};

use mto_graph::NodeId;
use mto_net::ProviderProfile;
use mto_qos::CostPredictor;
use mto_serve::request::NetworkSpec;

/// The seed a run uses when `--seed` is not given; the committed expected
/// outputs under `expected/` are taken at this seed.
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold sharded crawl where barrier gossip does most of the work.
    FleetGossip,
    /// Warm-started single-client `JobScheduler` run that saves history.
    WarmSingle,
    /// Provider-timed, budgeted EDF fleet with ESS early stop.
    QosProvider,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::FleetGossip, Workload::WarmSingle, Workload::QosProvider];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetGossip => "fleet-gossip",
            Workload::WarmSingle => "warm-single",
            Workload::QosProvider => "qos-provider",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the request runs the sharded fleet (`shards`) rather than
    /// the single-client scheduler (`workers`).
    pub fn is_fleet(self) -> bool {
        self != Workload::WarmSingle
    }

    /// Wall phases the `prom` snapshot of every traced run must carry.
    pub fn expected_phases(self) -> &'static [&'static str] {
        match self {
            Workload::FleetGossip | Workload::QosProvider => {
                &["gossip-merge", "shard-service", "barrier-wait", "pipeline-replay"]
            }
            Workload::WarmSingle => &["worker-service", "history-decode", "history-encode"],
        }
    }

    /// Requests per rotation. qos-provider's requests are the shortest
    /// and half its jobs stop at an ESS target, so its per-seed ESS total
    /// rests on the fewest full-length walks; it gets twice the requests.
    pub fn rotation_len(self) -> usize {
        match self {
            Workload::FleetGossip | Workload::WarmSingle => 8,
            Workload::QosProvider => 16,
        }
    }

    /// The rotation of requests for `seed`.
    pub fn requests(self, seed: u64) -> Vec<Request> {
        let mut rng = SplitMix(seed ^ self.salt());
        (0..self.rotation_len()).map(|variant| self.request(variant, &mut rng)).collect()
    }

    fn salt(self) -> u64 {
        match self {
            Workload::FleetGossip => 0x6f1e_e790_551b,
            Workload::WarmSingle => 0x3a77_5109_00e5,
            Workload::QosProvider => 0x9055_7a0f_1de5,
        }
    }

    fn request(self, variant: usize, rng: &mut SplitMix) -> Request {
        let net_seed = rng.below(1 << 32);
        let network = match self {
            Workload::FleetGossip => NetworkSpec::Gnp { n: 20_000, p: 0.0005, seed: net_seed },
            Workload::WarmSingle => NetworkSpec::Sbm {
                blocks: 8,
                block_size: 2500,
                p_in: 0.004,
                p_out: 0.00005,
                seed: net_seed,
            },
            Workload::QosProvider => NetworkSpec::Gnp { n: 5000, p: 0.002, seed: net_seed },
        };
        let graph = network.build();
        let pick_start = |rng: &mut SplitMix| loop {
            // A walk needs a neighbor to step to.
            let v = NodeId(rng.below(graph.num_nodes() as u64) as u32);
            if graph.degree(v) > 0 {
                return v.0;
            }
        };
        let mut jobs = Vec::new();
        let mut directives = vec!["quality".to_string(), "metrics".to_string()];
        let mut warm_crawl = Vec::new();
        match self {
            Workload::FleetGossip => {
                directives.push("epochs 40".into());
                for (id, algo) in MIX_8 {
                    jobs.push(Job::new(id, algo, pick_start(rng), 4000, rng.below(1 << 30)));
                }
            }
            Workload::WarmSingle => {
                for (id, algo) in [
                    ("m0", "mto"),
                    ("m1", "mto"),
                    ("m2", "mto"),
                    ("m3", "mto"),
                    ("h0", "mhrw"),
                    ("s0", "srw"),
                ] {
                    jobs.push(Job::new(id, algo, pick_start(rng), 20_000, rng.below(1 << 30)));
                }
                // The crawl that builds the warm-start history: simple
                // walks from other starts, long enough to cover most of
                // what the measured jobs visit.
                for i in 0..4 {
                    let id = format!("w{i}");
                    warm_crawl.push(Job::new(
                        &id,
                        "srw",
                        pick_start(rng),
                        20_000,
                        rng.below(1 << 30),
                    ));
                }
            }
            Workload::QosProvider => {
                let provider = ProviderProfile::facebook();
                let secs_per_query =
                    CostPredictor::new(None).with_provider(&provider).secs_per_query();
                // Ten long epochs rather than many short ones: every
                // barrier is a two-thread handoff, and short epochs let
                // scheduling delays on a shared host swamp the request
                // wall.
                directives.push("epochs 10".into());
                directives.push(format!("provider {}", provider.name));
                directives.push("policy edf".into());
                let steps = 8000;
                for (i, (id, algo)) in MIX_8.into_iter().enumerate() {
                    let mut job = Job::new(id, algo, pick_start(rng), steps, rng.below(1 << 30));
                    // Distinct deadlines no tighter than the cold-crawl
                    // upper bound of one query per step, so every job is
                    // admitted and EDF has an order to follow.
                    let deadline = (steps + 1) as f64 * secs_per_query * (1.0 + 0.25 * i as f64);
                    job.extra = format!(" deadline={deadline}");
                    // Half the jobs carry an ESS SLO they reach well
                    // before their step budget, so they stop early and
                    // hand budget back to the ledger.
                    if i % 2 == 0 {
                        job.extra.push_str(" ess=300");
                    }
                    jobs.push(job);
                }
                // Room for every job's worst case: admission never defers.
                let budget: usize = jobs.iter().map(|j| j.steps + 1).sum();
                directives.push(format!("budget {budget}"));
            }
        }
        Request { variant, network, fleet: self.is_fleet(), directives, jobs, warm_crawl }
    }
}

const MIX_8: [(&str, &str); 8] = [
    ("m0", "mto"),
    ("m1", "mto"),
    ("m2", "mto"),
    ("m3", "mto"),
    ("h0", "mhrw"),
    ("h1", "mhrw"),
    ("s0", "srw"),
    ("s1", "srw"),
];

/// One `job` directive.
#[derive(Clone, Debug)]
pub struct Job {
    /// Requested step budget.
    pub steps: usize,
    line: String,
    extra: String,
}

impl Job {
    fn new(id: &str, algo: &str, start: u32, steps: usize, seed: u64) -> Job {
        let line = format!("id={id} algo={algo} start={start} steps={steps} seed={seed}");
        Job { steps, line, extra: String::new() }
    }
}

/// Per-run file paths a request names. Every run gets fresh ones, so no
/// run reads what another wrote, except the shared warm-start history.
#[derive(Clone, Debug, Default)]
pub struct RunPaths {
    /// `warm-start` history (read only).
    pub warm_start: Option<PathBuf>,
    /// `save-history` target.
    pub save_history: Option<PathBuf>,
    /// `trace` target (traced runs only).
    pub trace: Option<PathBuf>,
    /// `prom` target (traced runs only).
    pub prom: Option<PathBuf>,
}

/// One request of a rotation.
#[derive(Clone, Debug)]
pub struct Request {
    /// Position in the rotation.
    pub variant: usize,
    /// The network every job samples.
    pub network: NetworkSpec,
    /// Fleet (`shards`) or scheduler (`workers`) request.
    pub fleet: bool,
    directives: Vec<String>,
    /// The measured jobs.
    pub jobs: Vec<Job>,
    /// Jobs of the untimed crawl that writes the warm-start history
    /// (empty for cold workloads).
    pub warm_crawl: Vec<Job>,
}

impl Request {
    /// Whether the request warm-starts from a history built beforehand.
    pub fn warm_starts(&self) -> bool {
        !self.warm_crawl.is_empty()
    }

    /// The request file at parallel width `width` (`shards` or `workers`).
    pub fn render(&self, width: usize, paths: &RunPaths) -> String {
        let mut out = String::new();
        writeln!(out, "network {}", self.network.to_line()).expect("string write");
        let knob = if self.fleet { "shards" } else { "workers" };
        writeln!(out, "{knob} {width}").expect("string write");
        for d in &self.directives {
            writeln!(out, "{d}").expect("string write");
        }
        render_paths(&mut out, paths);
        for job in &self.jobs {
            writeln!(out, "job {}{}", job.line, job.extra).expect("string write");
        }
        out
    }

    /// The request of the crawl that writes the warm-start history to
    /// `history`.
    pub fn render_warm_crawl(&self, history: &Path) -> String {
        let mut out = String::new();
        writeln!(out, "network {}", self.network.to_line()).expect("string write");
        writeln!(out, "workers 2").expect("string write");
        writeln!(out, "save-history {}", history.display()).expect("string write");
        for job in &self.warm_crawl {
            writeln!(out, "job {}", job.line).expect("string write");
        }
        out
    }
}

fn render_paths(out: &mut String, paths: &RunPaths) {
    let named = [
        ("warm-start", &paths.warm_start),
        ("save-history", &paths.save_history),
        ("trace", &paths.trace),
        ("prom", &paths.prom),
    ];
    for (directive, path) in named {
        if let Some(path) = path {
            writeln!(out, "{directive} {}", path.display()).expect("string write");
        }
    }
}

/// SplitMix64: a small, fixed generator, so the inputs a seed makes do
/// not depend on any library's random-number stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_serve::request::ServeRequest;

    #[test]
    fn requests_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            let paths = RunPaths::default();
            let render = |seed| -> Vec<String> {
                w.requests(seed).iter().map(|r| r.render(2, &paths)).collect()
            };
            assert_eq!(render(7), render(7), "{}", w.name());
            assert_ne!(render(7), render(8), "{}", w.name());
        }
    }

    #[test]
    fn rendered_requests_parse() {
        for w in Workload::ALL {
            for r in w.requests(DEFAULT_SEED) {
                let paths = RunPaths {
                    warm_start: r.warm_starts().then(|| PathBuf::from("in.hist")),
                    save_history: Some(PathBuf::from("out.hist")),
                    trace: Some(PathBuf::from("run.trace")),
                    prom: Some(PathBuf::from("run.prom")),
                };
                for width in [1, 2] {
                    let req = ServeRequest::parse(&r.render(width, &paths)).unwrap();
                    assert_eq!(req.jobs.len(), r.jobs.len());
                    assert_eq!(req.shards.is_some(), w.is_fleet());
                }
                if r.warm_starts() {
                    ServeRequest::parse(&r.render_warm_crawl(Path::new("w.hist"))).unwrap();
                }
            }
        }
    }
}
