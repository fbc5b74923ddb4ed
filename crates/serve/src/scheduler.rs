//! The multi-job scheduler: many sessions, one cache, one budget.
//!
//! Generalizes `mto_core::parallel::run_parallel_mto` — which runs `k`
//! *identical-length MTO walks* to completion — into a service-shaped
//! component: heterogeneous jobs (any algorithm, any per-job step budget),
//! **fair round-robin stepping** in fixed quanta so no job starves while a
//! long one burns in, an optional **global unique-query budget** that
//! stops admission when the provider's quota is spent, and aggregated
//! [`RewireStats`] across every rewiring job.
//!
//! Workers run on [`std::thread::scope`] threads over one
//! [`SharedClient`], so a neighborhood paid for by one job is free for
//! all. Results are deterministic regardless of thread interleaving for
//! the same reason `run_parallel_mto`'s are: walkers keep private
//! overlays and RNGs, and cached responses are identical no matter which
//! job paid for them first. (The one exception: *which* job a global
//! query budget interrupts first can vary with scheduling; per-job step
//! budgets are always deterministic.)

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use mto_core::mto::{RewireStats, ScanProbe};
use mto_core::walk::Walker;
use mto_graph::NodeId;
use mto_obs::{WallClockRegistry, WallClockScope, WallKey, WallStats};
use mto_osn::{CachedClient, QueryClient, SharedClient, SocialNetworkInterface, VirtualClock};
use parking_lot::Mutex;

use crate::error::{Result, ServeError};
use crate::history::HistoryStore;
use crate::session::{JobSpec, SamplerSession, SessionState};

/// How the scheduler divides stepping quanta among jobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Every job gets the same quantum per turn — strict fairness.
    #[default]
    RoundRobin,
    /// A job's quantum scales with its share of the total step budget:
    /// heavyweight jobs take proportionally longer turns, so all jobs
    /// need roughly the *same number of turns* and finish together
    /// instead of the light ones idling while the heavy one burns in
    /// alone. Results are identical to round-robin (walkers are
    /// deterministic regardless of stepping pattern); only turn
    /// granularity changes.
    BudgetProportional,
    /// Earliest-deadline-first with aging: the next quantum always goes
    /// to the queued job with the smallest [`JobSpec::deadline`]
    /// (best-effort jobs, with no deadline, run after every deadline
    /// job), ties broken by submission index. A job passed over
    /// [`EDF_AGING_TURNS`] times is promoted ahead of every deadline so
    /// best-effort work cannot starve. Results are identical to
    /// round-robin (walkers are deterministic regardless of stepping
    /// pattern); only *when* each job's steps happen — and therefore its
    /// virtual finish time — changes.
    EarliestDeadlineFirst,
}

/// How many times an EDF-queued job may be passed over before aging
/// promotes it ahead of every deadline (the starvation guard of
/// [`SchedulePolicy::EarliestDeadlineFirst`]).
pub const EDF_AGING_TURNS: u32 = 16;

impl SchedulePolicy {
    /// Wire name (`round-robin` / `budget-proportional` / `edf`).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulePolicy::RoundRobin => "round-robin",
            SchedulePolicy::BudgetProportional => "budget-proportional",
            SchedulePolicy::EarliestDeadlineFirst => "edf",
        }
    }

    /// Parses the wire name (`edf` also answers to its long form).
    pub fn parse(text: &str) -> std::result::Result<Self, String> {
        match text {
            "round-robin" => Ok(SchedulePolicy::RoundRobin),
            "budget-proportional" => Ok(SchedulePolicy::BudgetProportional),
            "edf" | "earliest-deadline-first" => Ok(SchedulePolicy::EarliestDeadlineFirst),
            other => Err(format!("unknown schedule policy {other:?}")),
        }
    }
}

/// Scheduler tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Steps one session takes before yielding its worker — the fairness
    /// quantum of the round-robin (the *base* quantum under
    /// [`SchedulePolicy::BudgetProportional`]).
    pub quantum: usize,
    /// Optional cap on total unique queries across all jobs; jobs caught
    /// over the cap are finalized early with `completed = false`.
    pub global_query_budget: Option<u64>,
    /// How quanta are apportioned among heterogeneous jobs.
    pub policy: SchedulePolicy,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 4,
            quantum: 64,
            global_query_budget: None,
            policy: SchedulePolicy::RoundRobin,
        }
    }
}

/// The per-job quantum under a policy: the base quantum, scaled by the
/// job's share of the total step budget for
/// [`SchedulePolicy::BudgetProportional`] (never below 1 so every job
/// keeps making progress).
fn effective_quantum(
    policy: SchedulePolicy,
    base: usize,
    job_budget: usize,
    total_budget: usize,
    jobs: usize,
) -> usize {
    match policy {
        SchedulePolicy::RoundRobin | SchedulePolicy::EarliestDeadlineFirst => base.max(1),
        SchedulePolicy::BudgetProportional => {
            if total_budget == 0 {
                return base.max(1); // degenerate all-zero-budget pool
            }
            // Saturating u128 intermediates: step budgets come straight
            // from request files, so no product may be allowed to
            // overflow.
            let scaled =
                (base as u128).saturating_mul(job_budget as u128).saturating_mul(jobs as u128)
                    / (total_budget as u128);
            usize::try_from(scaled).unwrap_or(usize::MAX).max(1)
        }
    }
}

/// What one job produced.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job's identifier.
    pub id: String,
    /// Algorithm display name (`"MTO"`, `"SRW"`, …).
    pub algorithm: &'static str,
    /// Steps actually taken.
    pub steps: usize,
    /// Whether the full step budget ran (false = stopped by the global
    /// query budget).
    pub completed: bool,
    /// Final position.
    pub final_node: NodeId,
    /// Every visited position, seed first.
    pub history: Vec<NodeId>,
    /// Rewiring counters, for rewiring samplers.
    pub stats: Option<RewireStats>,
    /// Theorem-3 criterion-scan telemetry, for rewiring samplers
    /// (derived observability — not part of the results contract).
    pub scan: Option<ScanProbe>,
    /// `(proposals, rejections)` for Metropolis–Hastings jobs.
    pub mh: Option<(u64, u64)>,
    /// Self-normalized average-degree estimate over the visit history.
    pub avg_degree_estimate: Option<f64>,
    /// Virtual-clock instant (in the job's shard) at the barrier after
    /// its last step — the figure a [`JobSpec::deadline`] is judged
    /// against. Filled by the `mto-fleet` coordinator; `None` under the
    /// plain scheduler.
    pub finished_secs: Option<f64>,
}

impl JobOutcome {
    /// The one definition of "deadline met" (the CLI's `deadline-met=`
    /// flag and the `deadline` experiment's verdict counts both use it):
    /// the job completed, with a recorded finish instant at or before
    /// `deadline` virtual seconds.
    pub fn deadline_met(&self, deadline: f64) -> bool {
        self.completed && self.finished_secs.is_some_and(|t| t <= deadline)
    }
}

/// Aggregate result of one scheduler run.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Per-job outcomes, in submission order.
    pub outcomes: Vec<JobOutcome>,
    /// Unique queries charged to the shared client, total.
    pub total_unique_queries: u64,
    /// Virtual wall-clock seconds elapsed on the scheduler's
    /// [`VirtualClock`] (when one is attached — i.e. the interface
    /// simulates latency/rate limits through `mto-net` or
    /// [`mto_osn::RateLimitedInterface`]): the run's *time* bill
    /// alongside its unique-query bill.
    pub virtual_secs: Option<f64>,
    /// Sum of the rewiring counters across all rewiring jobs.
    pub aggregate_stats: RewireStats,
    /// Wall-clock telemetry: each worker's time inside
    /// `session.advance`, as `worker-service` keyed by worker index.
    /// Outside the determinism contract — it varies run to run.
    pub wall: WallClockRegistry,
}

/// Runs many [`SamplerSession`]s concurrently over one shared client.
pub struct JobScheduler<I: SocialNetworkInterface> {
    client: SharedClient<I>,
    config: SchedulerConfig,
    clock: Option<VirtualClock>,
}

impl<I: SocialNetworkInterface + Send + Sync> JobScheduler<I> {
    /// A scheduler over a fresh (cold) client wrapping `interface`.
    pub fn new(interface: I, config: SchedulerConfig) -> Self {
        Self::with_client(SharedClient::new(CachedClient::new(interface)), config)
    }

    /// A scheduler over an existing client (e.g. one that already served
    /// earlier jobs this process).
    pub fn with_client(client: SharedClient<I>, config: SchedulerConfig) -> Self {
        JobScheduler { client, config, clock: None }
    }

    /// Attaches the [`VirtualClock`] the wrapped interface advances, so
    /// reports carry virtual wall-clock alongside unique queries.
    pub fn with_virtual_clock(mut self, clock: VirtualClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// A scheduler warm-started from a persisted [`HistoryStore`]: jobs
    /// only pay for nodes the history has never seen. Fails when the
    /// history does not belong to this network (see
    /// [`HistoryStore::validate_against`]).
    pub fn warm_start(interface: I, store: &HistoryStore, config: SchedulerConfig) -> Result<Self> {
        Ok(Self::with_client(SharedClient::new(store.warm_start(interface)?), config))
    }

    /// The shared client (e.g. to export history after a run).
    pub fn client(&self) -> &SharedClient<I> {
        &self.client
    }

    /// The per-job quantum this scheduler's policy would assign each of
    /// `jobs` — the same figures [`JobScheduler::run`] uses, exposed so
    /// observability layers can report them without re-deriving policy
    /// math.
    pub fn planned_quanta(&self, jobs: &[JobSpec]) -> Vec<usize> {
        let total_budget: usize =
            jobs.iter().fold(0usize, |acc, j| acc.saturating_add(j.step_budget));
        jobs.iter()
            .map(|j| {
                effective_quantum(
                    self.config.policy,
                    self.config.quantum,
                    j.step_budget,
                    total_budget,
                    jobs.len(),
                )
            })
            .collect()
    }

    /// Runs `jobs` to completion (or to the global query budget) and
    /// collects their outcomes in submission order. Each worker times
    /// its `session.advance` calls into [`ServeReport::wall`]; the
    /// scopes only observe time around work that runs either way, and
    /// workers accumulate locally, merging once at exit, so the hot loop
    /// takes no extra locks.
    pub fn run(&self, jobs: Vec<JobSpec>) -> Result<ServeReport> {
        let total = jobs.len();
        // Saturating: step budgets are user input and may sum past usize.
        let total_budget: usize =
            jobs.iter().fold(0usize, |acc, j| acc.saturating_add(j.step_budget));
        // Create sessions up front, in submission order, so start-node
        // queries are charged deterministically. Each job carries its
        // policy-assigned quantum through the queue.
        let mut sessions = Vec::with_capacity(total);
        for (index, spec) in jobs.into_iter().enumerate() {
            let quantum = effective_quantum(
                self.config.policy,
                self.config.quantum,
                spec.step_budget,
                total_budget,
                total,
            );
            let deadline = spec.deadline;
            sessions.push(QueueEntry {
                index,
                quantum,
                deadline,
                skips: 0,
                session: SamplerSession::create(self.client.clone(), spec)?,
            });
        }

        let queue: Mutex<VecDeque<QueueEntry<I>>> = Mutex::new(sessions.into_iter().collect());
        let policy = self.config.policy;
        let done: Mutex<Vec<(usize, JobOutcome)>> = Mutex::new(Vec::with_capacity(total));
        let first_error: Mutex<Option<ServeError>> = Mutex::new(None);
        let finished = AtomicUsize::new(0);
        let budget = self.config.global_query_budget;
        // Wall plane: workers accumulate into private `WallStats` and
        // fold them in here once, after their loop exits.
        let collected = Mutex::new(WallClockRegistry::new());

        std::thread::scope(|scope| {
            let (queue, done, first_error, finished, collected) =
                (&queue, &done, &first_error, &finished, &collected);
            for worker in 0..self.config.workers.max(1) {
                scope.spawn(move || {
                    let mut service = WallStats::default();
                    loop {
                        if first_error.lock().is_some() {
                            break;
                        }
                        let item = pop_next(&mut queue.lock(), policy);
                        let QueueEntry { index, quantum, deadline, skips: _, mut session } =
                            match item {
                                Some(s) => s,
                                None => {
                                    if finished.load(Ordering::Acquire) >= total {
                                        break;
                                    }
                                    // Jobs are in flight on other workers
                                    // and may be re-enqueued; don't exit,
                                    // but also don't spin against the
                                    // queue lock while we wait.
                                    std::thread::sleep(std::time::Duration::from_micros(200));
                                    continue;
                                }
                            };
                        let over_budget = budget.is_some_and(|b| self.client.unique_queries() >= b);
                        if !over_budget {
                            let timer = WallClockScope::start();
                            let advanced = session.advance(quantum);
                            service.absorb(timer.stop());
                            if let Err(e) = advanced {
                                *first_error.lock() = Some(e);
                                finished.fetch_add(1, Ordering::Release);
                                continue;
                            }
                        }
                        if over_budget || session.state() == SessionState::Completed {
                            match finalize_session(&mut session, !over_budget) {
                                Ok(outcome) => done.lock().push((index, outcome)),
                                Err(e) => *first_error.lock() = Some(e),
                            }
                            finished.fetch_add(1, Ordering::Release);
                        } else {
                            // A job that just ran re-enters the queue
                            // un-aged.
                            queue.lock().push_back(QueueEntry {
                                index,
                                quantum,
                                deadline,
                                skips: 0,
                                session,
                            });
                        }
                    }
                    if service.count > 0 {
                        let key = WallKey::phase("worker-service").on_shard(worker as u64);
                        collected.lock().record(key, service);
                    }
                });
            }
        });

        if let Some(e) = first_error.lock().take() {
            return Err(e);
        }
        let mut outcomes = done.into_inner();
        outcomes.sort_unstable_by_key(|(index, _)| *index);
        let outcomes: Vec<JobOutcome> = outcomes.into_iter().map(|(_, o)| o).collect();
        let mut aggregate_stats = RewireStats::default();
        for o in &outcomes {
            if let Some(s) = o.stats {
                aggregate_stats += s;
            }
        }
        Ok(ServeReport {
            outcomes,
            total_unique_queries: self.client.unique_queries(),
            virtual_secs: self.clock.as_ref().map(|c| c.now()),
            aggregate_stats,
            wall: collected.into_inner(),
        })
    }
}

/// One queued job between turns: its session plus the state the pop
/// policy keys on.
struct QueueEntry<I: SocialNetworkInterface> {
    index: usize,
    quantum: usize,
    deadline: Option<f64>,
    /// Turns this entry was passed over since it last ran (EDF aging).
    skips: u32,
    session: SamplerSession<I>,
}

/// Takes the next job off the queue under `policy`. FIFO for the fair
/// policies; for [`SchedulePolicy::EarliestDeadlineFirst`] the entry
/// with the smallest deadline wins (best-effort last, ties by
/// submission index), except that entries passed over
/// [`EDF_AGING_TURNS`] times are promoted ahead of every deadline.
/// Every entry passed over by an EDF pop ages by one turn.
fn pop_next<I: SocialNetworkInterface>(
    queue: &mut VecDeque<QueueEntry<I>>,
    policy: SchedulePolicy,
) -> Option<QueueEntry<I>> {
    if policy != SchedulePolicy::EarliestDeadlineFirst {
        return queue.pop_front();
    }
    // (aged?, deadline with None last, submission index): a total order
    // (f64::total_cmp — even a NaN deadline, rejected by JobSpec
    // validation but representable via the pub fields, cannot panic the
    // pick), so the choice is deterministic for any queue content.
    let best = (0..queue.len()).min_by(|&a, &b| {
        let (ea, eb) = (&queue[a], &queue[b]);
        (ea.skips < EDF_AGING_TURNS)
            .cmp(&(eb.skips < EDF_AGING_TURNS))
            .then(
                ea.deadline
                    .unwrap_or(f64::INFINITY)
                    .total_cmp(&eb.deadline.unwrap_or(f64::INFINITY)),
            )
            .then(ea.index.cmp(&eb.index))
    })?;
    for (i, e) in queue.iter_mut().enumerate() {
        if i != best {
            e.skips = e.skips.saturating_add(1);
        }
    }
    queue.remove(best)
}

/// Collapses a finished (or budget-interrupted) session into its
/// [`JobOutcome`] — shared by this scheduler and the `mto-fleet`
/// coordinator so both report jobs identically.
pub fn finalize_session<I: SocialNetworkInterface>(
    session: &mut SamplerSession<I>,
    completed: bool,
) -> Result<JobOutcome> {
    let estimate = session.average_degree_estimate()?;
    let walker = session.walker();
    Ok(JobOutcome {
        id: session.spec().id.clone(),
        algorithm: walker.name(),
        steps: session.steps_taken(),
        completed: completed && session.state() == SessionState::Completed,
        final_node: walker.current(),
        history: walker.history().to_vec(),
        stats: walker.rewire_stats(),
        scan: walker.scan_probe(),
        mh: walker.mh_counters(),
        avg_degree_estimate: estimate,
        finished_secs: None,
    })
}

/// Folds the estimator-quality accumulator for a finished run: each
/// outcome's full degree series (via the shared client's cache — every
/// visited node is cached by the walk that visited it), with SLO targets
/// taken from the matching [`JobSpec`]. Both the single-client scheduler
/// path and tests use this; the fleet coordinator folds incrementally at
/// epoch barriers instead, and the two agree because the series is a
/// pure function of the walk.
pub fn fold_quality<I: SocialNetworkInterface>(
    client: &SharedClient<I>,
    jobs: &[JobSpec],
    outcomes: &[JobOutcome],
) -> mto_obs::quality::QualityAccumulator {
    let mut acc = mto_obs::quality::QualityAccumulator::new();
    for outcome in outcomes {
        let target = jobs.iter().find(|j| j.id == outcome.id).and_then(|j| j.ess);
        acc.register(&outcome.id, target);
        let samples: Vec<u64> = client.with(|c| {
            outcome
                .history
                .iter()
                .map(|&v| {
                    c.known_degree(v).unwrap_or_else(|| {
                        panic!("visited node {v} is not cached — outcome/client mismatch")
                    }) as u64
                })
                .collect()
        });
        acc.observe(&outcome.id, &samples);
    }
    acc
}

#[cfg(test)]
mod quality_tests {
    use super::*;
    use crate::session::AlgoSpec;
    use mto_core::mto::MtoConfig;
    use mto_core::walk::SrwConfig;
    use mto_graph::generators::paper_barbell;
    use mto_osn::OsnService;

    #[test]
    fn quality_fold_is_worker_count_invariant() {
        let jobs = vec![
            JobSpec {
                id: "m".into(),
                algo: AlgoSpec::Mto(MtoConfig { seed: 5, ..Default::default() }),
                start: NodeId(0),
                step_budget: 400,
                deadline: None,
                ess: Some(30),
            },
            JobSpec {
                id: "s".into(),
                algo: AlgoSpec::Srw(SrwConfig { seed: 6, lazy: false }),
                start: NodeId(3),
                step_budget: 300,
                deadline: None,
                ess: None,
            },
        ];
        let reports: Vec<_> = [1usize, 4]
            .into_iter()
            .map(|workers| {
                let sched = JobScheduler::new(
                    OsnService::with_defaults(&paper_barbell()),
                    SchedulerConfig { workers, ..Default::default() },
                );
                let report = sched.run(jobs.clone()).unwrap();
                fold_quality(sched.client(), &jobs, &report.outcomes).report()
            })
            .collect();
        assert_eq!(reports[0], reports[1], "quality figures are worker-count invariant");
        assert_eq!(reports[0].jobs["m"].samples, 401, "seed position + every step");
        assert_eq!(reports[0].jobs["m"].target_ess, Some(30));
        assert!(reports[0].rhat.is_some(), "two jobs give a cross-chain R-hat");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AlgoSpec;
    use mto_core::mto::MtoConfig;
    use mto_core::walk::{MhrwConfig, SrwConfig};
    use mto_graph::generators::paper_barbell;
    use mto_osn::OsnService;

    fn mixed_jobs() -> Vec<JobSpec> {
        vec![
            JobSpec {
                id: "mto-a".into(),
                algo: AlgoSpec::Mto(MtoConfig { seed: 1, ..Default::default() }),
                start: NodeId(0),
                step_budget: 400,
                deadline: None,
                ess: None,
            },
            JobSpec {
                id: "mto-b".into(),
                algo: AlgoSpec::Mto(MtoConfig { seed: 2, ..Default::default() }),
                start: NodeId(11),
                step_budget: 300,
                deadline: Some(30.0),
                ess: None,
            },
            JobSpec {
                id: "srw".into(),
                algo: AlgoSpec::Srw(SrwConfig { seed: 3, lazy: false }),
                start: NodeId(5),
                step_budget: 250,
                deadline: None,
                ess: None,
            },
            JobSpec {
                id: "mhrw".into(),
                algo: AlgoSpec::Mhrw(MhrwConfig { seed: 4 }),
                start: NodeId(16),
                step_budget: 200,
                deadline: Some(10.0),
                ess: None,
            },
        ]
    }

    #[test]
    fn scheduler_runs_heterogeneous_jobs_to_their_budgets() {
        let scheduler = JobScheduler::new(
            OsnService::with_defaults(&paper_barbell()),
            SchedulerConfig { workers: 3, quantum: 32, ..Default::default() },
        );
        let report = scheduler.run(mixed_jobs()).unwrap();
        assert_eq!(report.outcomes.len(), 4);
        let by_id: Vec<(&str, usize, bool)> =
            report.outcomes.iter().map(|o| (o.id.as_str(), o.steps, o.completed)).collect();
        assert_eq!(
            by_id,
            vec![
                ("mto-a", 400, true),
                ("mto-b", 300, true),
                ("srw", 250, true),
                ("mhrw", 200, true)
            ]
        );
        assert!(report.total_unique_queries <= 22, "shared cache bounds cost at |V|");
        let sum: u64 = report.outcomes.iter().filter_map(|o| o.stats.map(|s| s.removals)).sum();
        assert_eq!(report.aggregate_stats.removals, sum);
        assert!(report.aggregate_stats.removals > 0, "MTO jobs rewire");
    }

    #[test]
    fn scheduler_results_are_deterministic_across_interleavings() {
        let run = |workers| {
            let scheduler = JobScheduler::new(
                OsnService::with_defaults(&paper_barbell()),
                SchedulerConfig { workers, quantum: 16, ..Default::default() },
            );
            scheduler.run(mixed_jobs()).unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.total_unique_queries, b.total_unique_queries);
        for (oa, ob) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(oa.id, ob.id);
            assert_eq!(oa.history, ob.history, "job {} diverged across worker counts", oa.id);
            assert_eq!(oa.stats, ob.stats);
            assert_eq!(oa.avg_degree_estimate, ob.avg_degree_estimate);
        }
    }

    #[test]
    fn wall_instrumented_runs_reproduce_plain_results() {
        let run = || {
            let scheduler = JobScheduler::new(
                OsnService::with_defaults(&paper_barbell()),
                SchedulerConfig { workers: 2, quantum: 16, ..Default::default() },
            );
            scheduler.run(mixed_jobs()).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.total_unique_queries, b.total_unique_queries);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.history, y.history, "wall plane perturbed job {}", x.id);
            assert_eq!(x.stats, y.stats);
            assert_eq!((x.steps, x.completed), (y.steps, y.completed));
        }
        let wall = &a.wall;
        assert!(!wall.is_empty(), "workers must report service time");
        let total = wall.total();
        assert!(total.count > 0 && total.nanos > 0, "{total:?}");
        for (key, _) in wall.iter() {
            assert_eq!(key.phase, "worker-service");
            assert!(key.shard.is_some(), "worker attribution required");
            assert_eq!(key.epoch, None, "the plain scheduler has no epochs");
        }
    }

    #[test]
    fn global_query_budget_stops_jobs_early() {
        // Budget of 3 unique queries on a 22-node graph: jobs cannot all
        // finish their walks' discovery phase.
        let scheduler = JobScheduler::new(
            OsnService::with_defaults(&paper_barbell()),
            SchedulerConfig {
                workers: 2,
                quantum: 8,
                global_query_budget: Some(3),
                ..Default::default()
            },
        );
        let report = scheduler.run(mixed_jobs()).unwrap();
        assert!(
            report.outcomes.iter().any(|o| !o.completed),
            "some job must be cut off by the query budget"
        );
    }

    #[test]
    fn effective_quantum_scales_with_budget_share() {
        use SchedulePolicy::*;
        assert_eq!(effective_quantum(RoundRobin, 64, 10, 1000, 4), 64);
        assert_eq!(effective_quantum(RoundRobin, 0, 10, 1000, 4), 1, "clamped");
        // Equal budgets → the base quantum.
        assert_eq!(effective_quantum(BudgetProportional, 64, 250, 1000, 4), 64);
        // A job holding half the total budget of 4 jobs gets 2× base.
        assert_eq!(effective_quantum(BudgetProportional, 64, 500, 1000, 4), 128);
        // Tiny jobs never stall out entirely.
        assert_eq!(effective_quantum(BudgetProportional, 64, 1, 1_000_000, 4), 1);
        // Degenerate all-zero-budget pool falls back to the base.
        assert_eq!(effective_quantum(BudgetProportional, 64, 0, 0, 4), 64);
        // Request files can carry absurd step budgets; the quantum math
        // must saturate, not overflow.
        assert_eq!(effective_quantum(BudgetProportional, 64, usize::MAX, usize::MAX, 4), 256);
        assert_eq!(
            effective_quantum(BudgetProportional, usize::MAX, usize::MAX, usize::MAX, 2),
            usize::MAX
        );
    }

    #[test]
    fn budget_proportional_policy_reproduces_round_robin_results() {
        let run = |policy| {
            let scheduler = JobScheduler::new(
                OsnService::with_defaults(&paper_barbell()),
                SchedulerConfig { workers: 3, quantum: 16, policy, ..Default::default() },
            );
            scheduler.run(mixed_jobs()).unwrap()
        };
        let rr = run(SchedulePolicy::RoundRobin);
        let bp = run(SchedulePolicy::BudgetProportional);
        assert_eq!(rr.total_unique_queries, bp.total_unique_queries);
        for (a, b) in rr.outcomes.iter().zip(&bp.outcomes) {
            assert_eq!(a.history, b.history, "policy changed job {}", a.id);
            assert_eq!(a.stats, b.stats);
            assert_eq!((a.steps, a.completed), (b.steps, b.completed));
        }
    }

    #[test]
    fn schedule_policy_round_trips_its_wire_name() {
        for p in [
            SchedulePolicy::RoundRobin,
            SchedulePolicy::BudgetProportional,
            SchedulePolicy::EarliestDeadlineFirst,
        ] {
            assert_eq!(SchedulePolicy::parse(p.name()), Ok(p));
        }
        assert_eq!(
            SchedulePolicy::parse("earliest-deadline-first"),
            Ok(SchedulePolicy::EarliestDeadlineFirst),
            "the long form is an accepted alias"
        );
        assert!(SchedulePolicy::parse("lottery").is_err());
    }

    #[test]
    fn edf_policy_reproduces_round_robin_results_across_worker_counts() {
        let run = |policy, workers| {
            let scheduler = JobScheduler::new(
                OsnService::with_defaults(&paper_barbell()),
                SchedulerConfig { workers, quantum: 16, policy, ..Default::default() },
            );
            scheduler.run(mixed_jobs()).unwrap()
        };
        let rr = run(SchedulePolicy::RoundRobin, 3);
        for workers in [1, 4] {
            let edf = run(SchedulePolicy::EarliestDeadlineFirst, workers);
            assert_eq!(rr.total_unique_queries, edf.total_unique_queries);
            for (a, b) in rr.outcomes.iter().zip(&edf.outcomes) {
                assert_eq!(a.history, b.history, "EDF changed job {} at W={workers}", a.id);
                assert_eq!(a.stats, b.stats);
                assert_eq!((a.steps, a.completed), (b.steps, b.completed));
            }
        }
    }

    #[test]
    fn edf_pop_orders_by_deadline_with_aging_and_index_ties() {
        let client =
            SharedClient::new(CachedClient::new(OsnService::with_defaults(&paper_barbell())));
        let entry = |index: usize, deadline: Option<f64>, skips: u32| QueueEntry {
            index,
            quantum: 8,
            deadline,
            skips,
            session: SamplerSession::create(
                client.clone(),
                JobSpec {
                    id: format!("j{index}"),
                    algo: AlgoSpec::Srw(SrwConfig { seed: index as u64 + 1, lazy: false }),
                    start: NodeId(0),
                    step_budget: 10,
                    deadline,
                    ess: None,
                },
            )
            .unwrap(),
        };
        // Deadlines first (smallest wins), best-effort last, index ties.
        let mut q: VecDeque<_> =
            vec![entry(0, None, 0), entry(1, Some(9.0), 0), entry(2, Some(4.0), 0)].into();
        let popped = pop_next(&mut q, SchedulePolicy::EarliestDeadlineFirst).unwrap();
        assert_eq!(popped.index, 2, "earliest deadline wins");
        assert!(q.iter().all(|e| e.skips == 1), "passed-over entries age");
        assert_eq!(pop_next(&mut q, SchedulePolicy::EarliestDeadlineFirst).unwrap().index, 1);
        assert_eq!(pop_next(&mut q, SchedulePolicy::EarliestDeadlineFirst).unwrap().index, 0);

        // A starved best-effort entry is promoted ahead of every deadline.
        let mut q: VecDeque<_> =
            vec![entry(0, Some(1.0), 0), entry(1, None, EDF_AGING_TURNS)].into();
        assert_eq!(
            pop_next(&mut q, SchedulePolicy::EarliestDeadlineFirst).unwrap().index,
            1,
            "aging beats deadlines"
        );

        // Equal deadlines: the smaller submission index wins.
        let mut q: VecDeque<_> = vec![entry(1, Some(2.0), 0), entry(0, Some(2.0), 0)].into();
        assert_eq!(pop_next(&mut q, SchedulePolicy::EarliestDeadlineFirst).unwrap().index, 0);

        // The fair policies stay strictly FIFO.
        let mut q: VecDeque<_> = vec![entry(1, Some(2.0), 0), entry(0, Some(1.0), 0)].into();
        assert_eq!(pop_next(&mut q, SchedulePolicy::RoundRobin).unwrap().index, 1);
    }

    #[test]
    fn attached_clock_reports_virtual_wall_time() {
        use mto_osn::{RateLimitPolicy, RateLimitedInterface};
        let limited = RateLimitedInterface::new(
            OsnService::with_defaults(&paper_barbell()),
            RateLimitPolicy::facebook(),
        );
        let clock = limited.clock().clone();
        let scheduler = JobScheduler::new(limited, Default::default()).with_virtual_clock(clock);
        let report = scheduler.run(mixed_jobs()).unwrap();
        let secs = report.virtual_secs.expect("clock attached");
        // 22 unique queries at 50 ms each, serially accounted.
        assert!(secs > 0.0, "latency must show up in the report");
        assert!(
            (secs - 0.05 * report.total_unique_queries as f64).abs() < 1e-6,
            "virtual {secs} vs {} unique queries",
            report.total_unique_queries
        );
    }

    #[test]
    fn reports_without_a_clock_carry_no_virtual_time() {
        let scheduler =
            JobScheduler::new(OsnService::with_defaults(&paper_barbell()), Default::default());
        let report = scheduler.run(mixed_jobs()).unwrap();
        assert_eq!(report.virtual_secs, None);
    }

    #[test]
    fn empty_job_list_is_a_noop() {
        let scheduler =
            JobScheduler::new(OsnService::with_defaults(&paper_barbell()), Default::default());
        let report = scheduler.run(Vec::new()).unwrap();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.total_unique_queries, 0);
    }

    #[test]
    fn warm_started_scheduler_reuses_history() {
        let g = paper_barbell();
        let cold = JobScheduler::new(OsnService::with_defaults(&g), Default::default());
        let cold_report = cold.run(mixed_jobs()).unwrap();
        let store = cold.client().with(|c| HistoryStore::from_client(c));

        let warm =
            JobScheduler::warm_start(OsnService::with_defaults(&g), &store, Default::default())
                .unwrap();
        let warm_report = warm.run(mixed_jobs()).unwrap();
        assert!(
            warm_report.total_unique_queries < cold_report.total_unique_queries,
            "warm {} vs cold {}",
            warm_report.total_unique_queries,
            cold_report.total_unique_queries
        );
        // Same seeds, same responses → identical walks either way.
        for (c, w) in cold_report.outcomes.iter().zip(&warm_report.outcomes) {
            assert_eq!(c.history, w.history);
        }
    }
}
