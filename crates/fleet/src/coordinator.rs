//! The fleet coordinator: shard workers in lockstep epochs, history
//! gossip at every barrier — now with a QoS brain above the shards.
//!
//! A [`crate::ShardPlan`] gives each of `W` shard workers its own slice
//! of the job list. Each shard owns a **private** [`CachedClient`] over
//! its own interface instance, its own [`QueryPipeline`] on its own
//! [`VirtualClock`] (the shard's wall-clock model: every unique query
//! the shard pays is replayed through the pipeline with up to `K` — or
//! adaptively fewer/more — requests in flight), and its sessions'
//! private overlays. Shards therefore never contend on a lock; the price
//! is that two shards can *re-pay* for the same node.
//!
//! That price is what the **epoch gossip** recovers: the coordinator
//! steps every shard through its epoch grants on
//! [`std::thread::scope`] workers, and at the barrier folds every
//! shard's [`HistoryStore`] into a fleet-wide union (pairwise
//! [`HistoryStore::merge`], keep-first, conflicts counted) that is
//! redistributed to every shard — so from the next epoch on, nobody
//! re-pays for a node any shard has already bought ("Leveraging History
//! for Faster Sampling of Online Social Networks", arXiv:1505.00079,
//! applied *between* concurrent crawlers instead of between runs).
//!
//! The **QoS layer** (`mto-qos`) decides which work deserves those
//! epochs and budgets, through three shard-invariant mechanisms:
//!
//! * **admission** — before any shard is built, every job is reviewed
//!   against its deadline and the fleet budget
//!   ([`AdmissionController`]); rejected and deferred jobs never run and
//!   report placeholder outcomes;
//! * **EDF planning** — under
//!   [`SchedulePolicy::EarliestDeadlineFirst`] each epoch's fleet-wide
//!   step capacity is dealt out earliest-deadline-first with aging
//!   ([`mto_qos::plan_epoch`]), so urgent jobs finish in earlier epochs
//!   (at earlier virtual times) while the fair policies keep the
//!   historical lockstep grants;
//! * **the budget ledger** — `fleet_budget` is split per job at
//!   admission, spent against each job's *unique demand* (distinct
//!   nodes its own walk requested — a pure function of the walk, no
//!   matter which shard runs it), and rebalanced at every barrier
//!   (releases to the pool, proportional grants to dry jobs). A job
//!   whose slice runs dry suspends until a rebalance refills it, or is
//!   cut (`completed = false`) when the pool cannot.
//!
//! **Determinism contract.** Walkers are pure functions of
//! `(config, responses)` and responses are pure functions of the
//! network; admission, planning, and the ledger are pure functions of
//! job-local state. So per-job results — walks, estimates, rewire
//! stats, budget cut points — are bit-identical regardless of shard
//! count, worker interleaving, and gossip merge order; `W = 1`
//! reproduces the single-client
//! [`mto_serve::scheduler::JobScheduler`] outcomes exactly (under the
//! fair policies, with no budget and no `ess=` SLO). Only the *bill* (unique queries) and
//! the *timing* (virtual seconds) depend on `W` and gossip — that is
//! the whole point of measuring them.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};

use mto_core::mto::RewireStats;
use mto_core::walk::Walker;
use mto_graph::NodeId;
use mto_net::{Concurrency, PipelineConfig, PipelineStats, ProviderProfile, QueryPipeline};
use mto_obs::quality::{scale_milli, QualityAccumulator};
use mto_obs::{WallClockRegistry, WallClockScope, WallKey, WallStats};
use mto_osn::{CachedClient, SharedClient, SocialNetworkInterface, VirtualClock};
use mto_qos::{
    plan_epoch, AdmissionController, AdmissionDecision, BudgetLedger, CostPredictor,
    DeadlinePolicy, LiveJob, PlannerConfig,
};
use mto_serve::error::{Result, ServeError};
use mto_serve::history::HistoryStore;
use mto_serve::scheduler::{finalize_session, JobOutcome, SchedulePolicy};
use mto_serve::session::{JobSpec, SampleObserver, SamplerSession, SessionState};

use crate::plan::ShardPlan;
use crate::report::{EpochReport, FleetObsData, FleetReport, LedgerSummary};

/// The order in which per-shard stores are folded into the gossip
/// union. Merge is keep-first, so the order could only matter when
/// shards *disagree* about the network — the determinism proptests run
/// both orders to witness that results never depend on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MergeOrder {
    /// Fold shard 0 first.
    #[default]
    Forward,
    /// Fold shard `W−1` first.
    Reverse,
}

/// Tuning of a [`FleetCoordinator`]. There are no observability
/// switches: every plane is collected on every run and reported in
/// [`FleetReport`]; callers choose only what to write or render.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetConfig {
    /// Shard workers `W` (clamped to the job count; ≥ 1).
    pub shards: usize,
    /// Steps each job takes between gossip barriers (≥ 1) — the base
    /// quantum the epoch planner deals out.
    pub epoch_quantum: usize,
    /// Whether the epoch barrier gossips history (disable to measure the
    /// isolated-shards baseline the `fleet` experiment compares against).
    pub gossip: bool,
    /// Gossip fold order (see [`MergeOrder`]).
    pub merge_order: MergeOrder,
    /// Provider preset for the per-shard pipelines (latency + quota +
    /// faults); `None` models a plain 50 ms constant-latency provider
    /// with no quota.
    pub provider: Option<ProviderProfile>,
    /// Per-shard pipeline lanes (max requests in flight).
    pub max_in_flight: usize,
    /// Fixed or adaptive in-flight control for the per-shard pipelines.
    pub concurrency: Concurrency,
    /// Base seed of the per-shard latency RNGs (shard `s` uses
    /// `seed + s`).
    pub seed: u64,
    /// How epoch step capacity is allocated among live jobs:
    /// the fair policies grant lockstep quanta (the historical
    /// behavior), [`SchedulePolicy::EarliestDeadlineFirst`] front-loads
    /// deadline jobs (see [`mto_qos::plan_epoch`]).
    pub policy: SchedulePolicy,
    /// Fleet-wide unique-query budget, split per job at admission by
    /// the [`BudgetLedger`] and rebalanced at epoch barriers. `None`
    /// runs unbudgeted.
    pub fleet_budget: Option<u64>,
    /// How admission treats predicted-unmeetable deadlines.
    pub deadline_policy: DeadlinePolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            epoch_quantum: 64,
            gossip: true,
            merge_order: MergeOrder::Forward,
            provider: None,
            max_in_flight: 8,
            concurrency: Concurrency::Fixed,
            seed: 0xF1EE7,
            policy: SchedulePolicy::RoundRobin,
            fleet_budget: None,
            deadline_policy: DeadlinePolicy::Optimistic,
        }
    }
}

/// The trace stamp of epoch `e`: the epoch ordinal is the finest
/// shard-invariant clock the lockstep fleet has, scaled so the timeline
/// reads as one virtual second per epoch.
fn epoch_t_us(epoch: usize) -> u64 {
    (epoch as u64).saturating_mul(1_000_000)
}

impl FleetConfig {
    fn pipeline_config(&self, shard: usize) -> PipelineConfig {
        let base = PipelineConfig {
            max_in_flight: self.max_in_flight.max(1),
            concurrency: self.concurrency,
            seed: self.seed.wrapping_add(shard as u64),
            ..Default::default()
        };
        match self.provider {
            Some(p) => PipelineConfig {
                latency: p.latency,
                faults: p.faults,
                rate_limit: Some(p.policy),
                ..base
            },
            None => base,
        }
    }
}

impl MergeOrder {
    /// The indices `0..n` in this fold order.
    fn indices(self, n: usize) -> Vec<usize> {
        match self {
            MergeOrder::Forward => (0..n).collect(),
            MergeOrder::Reverse => (0..n).rev().collect(),
        }
    }
}

/// One admitted job's session plus its QoS bookkeeping.
struct Slot<I: SocialNetworkInterface> {
    /// Index into the *submitted* job list (outcome ordering).
    orig: usize,
    /// Index into the *admitted* job list (ledger/planner accounts).
    account: usize,
    session: SamplerSession<I>,
    /// Distinct nodes this job's walk has visited — the shard-invariant
    /// spend metric of the budget ledger (tracked only when budgeted).
    demand: HashSet<NodeId>,
    /// History prefix already folded into `demand`.
    processed: usize,
    /// Steps taken as of the last barrier (for calibration deltas).
    steps_seen: usize,
    /// Suspended by an exhausted ledger slice (resumes on re-grant).
    suspended: bool,
    /// Terminated by the budget: the pool could not refill its slice.
    cut: bool,
    /// Shard-clock time at the barrier after the job's last step.
    finished_secs: Option<f64>,
    /// Cursor into the walk history for the quality plane's sample
    /// series.
    observer: SampleObserver,
    /// The job's `ess=N` SLO latched: the quality plane judged the walk
    /// converged, so the planner stops granting it quanta and the
    /// ledger treats it as finished (outcome reports `completed`).
    quality_met: bool,
}

impl<I: SocialNetworkInterface> Slot<I> {
    fn new(orig: usize, account: usize, session: SamplerSession<I>) -> Self {
        Slot {
            orig,
            account,
            session,
            demand: HashSet::new(),
            processed: 0,
            steps_seen: 0,
            suspended: false,
            cut: false,
            finished_secs: None,
            observer: SampleObserver::new(),
            quality_met: false,
        }
    }

    /// Folds newly visited history into the demand set, returning the
    /// cumulative unique demand.
    fn refresh_demand(&mut self) -> u64 {
        let history = self.session.walker().history();
        for &v in &history[self.processed.min(history.len())..] {
            self.demand.insert(v);
        }
        self.processed = history.len();
        self.demand.len() as u64
    }

    fn done(&self) -> bool {
        self.cut || self.quality_met || self.session.state() == SessionState::Completed
    }
}

/// Derives the causal cross-job adoption edges carried by the trace's
/// `gossip` records: job *B* adopted node `v` at a barrier if *B*'s walk
/// visited `v` after some job *A*'s walk had already paid for it.
///
/// The per-shard cache adoption counts gossiped at the same barrier are
/// a `W`-dependent figure (which shard paid first depends on the job
/// placement), so they live in the registry's timing plane. These edges
/// instead are a pure function of the walk histories — themselves
/// byte-identical across shard counts — folded in ascending account
/// order, so the traced edge multiset is shard-invariant and safe for
/// the byte-identity contract.
struct CausalGossip {
    /// First account whose walk visited each node.
    first_owner: HashMap<NodeId, usize>,
    /// Nodes each account's own walk already visited (revisits and
    /// self-adoptions are never edges).
    seen: Vec<HashSet<NodeId>>,
    /// History prefix already folded, per account.
    cursors: Vec<usize>,
    /// Total adoptions across all barriers.
    total: u64,
}

impl CausalGossip {
    fn new(accounts: usize) -> Self {
        CausalGossip {
            first_owner: HashMap::new(),
            seen: vec![HashSet::new(); accounts],
            cursors: vec![0; accounts],
            total: 0,
        }
    }

    /// Folds every account's new history suffix (ascending account
    /// order) and returns this barrier's adoption edges
    /// `(owner, adopter, count)`, sorted by `(owner, adopter)`.
    fn barrier(&mut self, histories: &[&[NodeId]]) -> Vec<(usize, usize, u64)> {
        let mut edges: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for (account, history) in histories.iter().enumerate() {
            for &v in &history[self.cursors[account].min(history.len())..] {
                if !self.seen[account].insert(v) {
                    continue;
                }
                match self.first_owner.entry(v) {
                    Entry::Vacant(slot) => {
                        slot.insert(account);
                    }
                    Entry::Occupied(owner) => {
                        let owner = *owner.get();
                        if owner != account {
                            *edges.entry((owner, account)).or_insert(0) += 1;
                            self.total += 1;
                        }
                    }
                }
            }
            self.cursors[account] = history.len();
        }
        edges.into_iter().map(|((from, to), count)| (from, to, count)).collect()
    }
}

/// One shard worker: private client, private pipeline, private clock,
/// and the slots of its assigned jobs.
struct Shard<I: SocialNetworkInterface> {
    client: SharedClient<I>,
    pipeline: QueryPipeline<I>,
    /// Slots in ascending original-job order.
    slots: Vec<Slot<I>>,
    /// Cached node ids at the last barrier (ascending) — the diff basis
    /// for "which nodes did *this shard pay for* this epoch".
    known: Vec<NodeId>,
    /// Wall plane: this epoch's self-timed service. The shard
    /// accumulates on its own thread; the coordinator takes and keys it
    /// after the barrier, so the hot path needs no locks and no
    /// knowledge of its epoch/shard index.
    wall: WallStats,
    error: Option<ServeError>,
}

impl<I: SocialNetworkInterface> Shard<I> {
    fn refresh_known(&mut self) {
        self.known = self.client.with(|c| c.cached_nodes().collect());
    }

    /// Advances every slot by its epoch grant, then replays the nodes
    /// this shard newly paid for through its pipeline — the shard's
    /// wall-clock bill for the epoch. Gossip-imported nodes are already
    /// in `known` and cost no virtual time here: nobody re-pays them.
    /// `grants` is indexed by ledger account.
    fn run_epoch(&mut self, grants: &[usize]) {
        let timer = WallClockScope::start();
        self.run_epoch_inner(grants);
        self.wall.absorb(timer.stop());
    }

    fn run_epoch_inner(&mut self, grants: &[usize]) {
        for slot in &mut self.slots {
            let steps = grants[slot.account];
            if steps == 0 {
                continue;
            }
            if let Err(e) = slot.session.advance(steps) {
                self.error = Some(e);
                return;
            }
        }
        let now: Vec<NodeId> = self.client.with(|c| c.cached_nodes().collect());
        // Ascending-sorted set difference: nodes cached now but unknown
        // at the last barrier.
        let mut old = self.known.iter().peekable();
        for &v in &now {
            while old.peek().is_some_and(|&&o| o < v) {
                old.next();
            }
            if old.peek() != Some(&&v) {
                self.pipeline.submit(v);
            }
        }
        self.pipeline.drain();
        self.known = now;
    }
}

/// Runs a job list as a sharded fleet (see the module docs).
pub struct FleetCoordinator<I, F> {
    factory: F,
    config: FleetConfig,
    warm_start: Option<HistoryStore>,
    _marker: std::marker::PhantomData<fn() -> I>,
}

impl<I, F> FleetCoordinator<I, F>
where
    I: SocialNetworkInterface + Send + Sync,
    F: Fn(usize) -> I,
{
    /// A coordinator whose shard `s` crawls through `factory(s)`. The
    /// factory must be deterministic — every shard must see the *same
    /// network* (instances may differ, answers may not).
    pub fn new(factory: F, config: FleetConfig) -> Self {
        FleetCoordinator { factory, config, warm_start: None, _marker: std::marker::PhantomData }
    }

    /// Warm-starts every shard from a persisted history: imported nodes
    /// are free for all shards from step one (and discount every
    /// admission-time cost prediction).
    pub fn with_warm_start(mut self, store: HistoryStore) -> Self {
        self.warm_start = Some(store);
        self
    }

    /// Runs `jobs` to completion (or to their budget slices) and reports
    /// per-epoch gossip and ledger accounting alongside the per-job
    /// outcomes: admission → build shards → loop {plan, step, barrier}
    /// → finish.
    pub fn run(&self, jobs: Vec<JobSpec>) -> Result<FleetReport> {
        if jobs.is_empty() {
            return Ok(FleetReport { shards: 0, ..Default::default() });
        }
        let mut run = FleetRun::admit(&self.config, self.warm_start.as_ref(), &self.factory, jobs)?;
        run.build_shards(&self.factory)?;
        while let Some(grants) = run.plan() {
            run.step(&grants)?;
            run.barrier()?;
        }
        run.finish()
    }
}

/// The state of one [`FleetCoordinator::run`]. Each plane is a plain
/// field updated at a fixed point of the run: the deterministic plane
/// (`obs`) from this serial control path only, the wall plane (`wall`)
/// around the parallel section and the gossip merge, the quality plane
/// (`quality`) at every barrier.
///
/// Every trace event is stamped with epoch-ordinal virtual time and
/// derived from shard-invariant state only (grants, demand, ledger
/// moves, step counts) — so encoded traces are byte-identical across
/// shard counts. The registry additionally absorbs timing-plane figures
/// (queue-wait/service-time histograms, gossip savings) that
/// legitimately vary with `W`.
struct FleetRun<'a, I: SocialNetworkInterface> {
    config: &'a FleetConfig,
    warm_start: Option<&'a HistoryStore>,
    jobs: Vec<JobSpec>,
    decisions: Vec<AdmissionDecision>,
    /// Submitted-job index of each admitted job, by ledger account.
    admitted: Vec<usize>,
    predictor: CostPredictor,
    ledger: Option<BudgetLedger>,
    planner: PlannerConfig,
    shards: Vec<Shard<I>>,
    /// `(shard, slot)` of each account.
    slot_of_account: Vec<(usize, usize)>,
    /// Consecutive ungranted epochs of each live account (EDF aging).
    starved: Vec<u32>,
    epochs: Vec<EpochReport>,
    adopted: u64,
    conflicts: u64,
    reclaimed: u64,
    granted: u64,
    obs: FleetObsData,
    wall: WallClockRegistry,
    quality: QualityAccumulator,
    /// Causal adoption edges; `None` for isolated shards (`gossip =
    /// false`), where nothing is adopted and no edges are traced.
    causal: Option<CausalGossip>,
}

impl<'a, I> FleetRun<'a, I>
where
    I: SocialNetworkInterface + Send + Sync,
{
    /// Admission: a pure function of (jobs, history, budget), so it
    /// commutes with sharding — every W sees the same admitted set.
    fn admit<F: Fn(usize) -> I>(
        config: &'a FleetConfig,
        warm_start: Option<&'a HistoryStore>,
        factory: &F,
        jobs: Vec<JobSpec>,
    ) -> Result<Self> {
        // Validate up front: admission and planning consume specs before
        // any `SamplerSession::create` would (sessions validate on
        // creation, but rejected/deferred jobs never reach one).
        for spec in &jobs {
            spec.validate().map_err(|message| ServeError::Request { line: 0, message })?;
        }
        let mut predictor = CostPredictor::new(factory(0).num_users_hint());
        if let Some(p) = &config.provider {
            predictor = predictor.with_provider(p);
        }
        let decisions = AdmissionController::new(config.deadline_policy).review(
            &predictor,
            &jobs,
            warm_start,
            config.fleet_budget,
        );
        let admitted: Vec<usize> =
            decisions.iter().filter(|d| d.verdict.admitted()).map(|d| d.job_index).collect();
        let ledger = config.fleet_budget.map(|budget| {
            let predicted: Vec<u64> =
                admitted.iter().map(|&i| decisions[i].predicted_queries).collect();
            BudgetLedger::split(budget, &predicted)
        });

        // Jobs are registered in account order so the quality figures
        // (and the trace stamps derived from the id-ordered iteration)
        // cover every admitted job even before its first sample.
        let mut quality = QualityAccumulator::new();
        for &orig in &admitted {
            quality.register(&jobs[orig].id, jobs[orig].ess);
        }
        let mut obs = FleetObsData::default();
        for d in &decisions {
            let name = format!("admission-{}-{}", d.id, d.verdict.name());
            obs.trace.point(0, &name, d.predicted_queries);
        }
        if let Some(ledger) = &ledger {
            obs.trace.point(0, "ledger-split", ledger.total());
            for (account, &orig) in admitted.iter().enumerate() {
                let name = format!("ledger-allowance-{}", jobs[orig].id);
                obs.trace.point(0, &name, ledger.account(account).allowance);
            }
        }
        let accounts = admitted.len();
        Ok(FleetRun {
            config,
            warm_start,
            jobs,
            decisions,
            admitted,
            predictor,
            ledger,
            planner: PlannerConfig { quantum: config.epoch_quantum.max(1), ..Default::default() },
            shards: Vec::new(),
            slot_of_account: vec![(0, 0); accounts],
            starved: vec![0; accounts],
            epochs: Vec::new(),
            adopted: 0,
            conflicts: 0,
            reclaimed: 0,
            granted: 0,
            obs,
            wall: WallClockRegistry::new(),
            quality,
            causal: config.gossip.then(|| CausalGossip::new(accounts)),
        })
    }

    /// Builds the shards in shard order, slots in ascending admitted
    /// order — start-node queries charge deterministically — then bills
    /// every seed position to the ledger and traces seed adoptions.
    fn build_shards<F: Fn(usize) -> I>(&mut self, factory: &F) -> Result<()> {
        if self.admitted.is_empty() {
            return Ok(());
        }
        let plan = ShardPlan::round_robin(self.admitted.len(), self.config.shards);
        for (s, positions) in plan.iter() {
            let inner = factory(s);
            let client = match self.warm_start {
                Some(store) => SharedClient::new(store.warm_start(inner)?),
                None => SharedClient::new(CachedClient::new(inner)),
            };
            let pipeline = QueryPipeline::with_clock(
                factory(s),
                self.config.pipeline_config(s),
                VirtualClock::new(),
            );
            let mut slots = Vec::with_capacity(positions.len());
            for &account in positions {
                let orig = self.admitted[account];
                self.slot_of_account[account] = (s, slots.len());
                let session = SamplerSession::create(client.clone(), self.jobs[orig].clone())?;
                slots.push(Slot::new(orig, account, session));
            }
            let mut shard = Shard {
                client,
                pipeline,
                slots,
                known: Vec::new(),
                wall: WallStats::default(),
                error: None,
            };
            shard.refresh_known();
            // The seed position is demand too: charge it before the
            // first epoch so a zero-step job still bills its start.
            if self.ledger.is_some() {
                for slot in &mut shard.slots {
                    slot.refresh_demand();
                }
            }
            self.shards.push(shard);
        }
        if let Some(ledger) = self.ledger.as_mut() {
            for &(s, pos) in &self.slot_of_account {
                let slot = &mut self.shards[s].slots[pos];
                let demand = slot.demand.len() as u64;
                if demand > 0 {
                    let name = format!("ledger-charge-{}", slot.session.spec().id);
                    self.obs.trace.point(0, &name, demand);
                }
                if ledger.charge(slot.account, demand)
                    && slot.session.state() != SessionState::Completed
                {
                    slot.suspended = true;
                    slot.session.pause();
                    let name = format!("suspend-{}", slot.session.spec().id);
                    self.obs.trace.point(0, &name, demand);
                }
            }
        }
        // Seed positions are causal demand too: a job starting on (or
        // instantly revisiting) a node another walk already owns adopts
        // it from epoch zero, before any span opens.
        self.trace_adoptions(0);
        Ok(())
    }

    /// Plans the next epoch: each account's step grant, with the epoch
    /// span opened and the grants traced — or `None` once no admitted
    /// job has steps left.
    fn plan(&mut self) -> Option<Vec<usize>> {
        let epoch = self.epochs.len();
        let t = epoch_t_us(epoch);
        // The planner's view of every admitted job, by account.
        let live: Vec<LiveJob> = self
            .slot_of_account
            .iter()
            .map(|&(s, pos)| {
                let slot = &self.shards[s].slots[pos];
                LiveJob {
                    remaining_steps: if slot.done() { 0 } else { slot.session.steps_remaining() },
                    deadline: slot.session.spec().deadline,
                    starved_epochs: self.starved[slot.account],
                    suspended: slot.suspended,
                }
            })
            .collect();
        if !live.iter().any(|j| j.remaining_steps > 0) {
            return None;
        }
        if !live.iter().any(|j| !j.suspended && j.remaining_steps > 0) {
            // Every remaining job is suspended on an empty pool (a
            // rebalance ran at the last barrier): cut them.
            for &(s, pos) in &self.slot_of_account {
                let cut_at = self.shards[s].pipeline.clock().now();
                let slot = &mut self.shards[s].slots[pos];
                if slot.suspended && !slot.done() {
                    slot.cut = true;
                    slot.finished_secs = Some(cut_at);
                    let name = format!("cut-{}", slot.session.spec().id);
                    self.obs.trace.point(t, &name, slot.session.steps_taken() as u64);
                }
            }
            return None;
        }
        let grants = plan_epoch(self.config.policy, &self.planner, &live);
        self.obs.trace.enter(t, &format!("epoch-{epoch}"));
        for (account, job) in live.iter().enumerate() {
            if !job.suspended && job.remaining_steps > 0 {
                self.starved[account] =
                    if grants[account] == 0 { self.starved[account] + 1 } else { 0 };
            }
            if grants[account] == 0 {
                continue;
            }
            let id = &self.jobs[self.admitted[account]].id;
            self.obs.trace.point(t, &format!("grant-{id}"), grants[account] as u64);
            // An EDF aging promotion is visible in the plan's own
            // inputs: a job starved past the threshold that got a grant
            // this epoch was promoted ahead of every deadline.
            if self.config.policy == SchedulePolicy::EarliestDeadlineFirst
                && job.starved_epochs >= self.planner.aging_epochs
            {
                let name = format!("aging-promotion-{id}");
                self.obs.trace.point(t, &name, u64::from(job.starved_epochs));
            }
        }
        Some(grants)
    }

    /// Steps every shard through its grants on scoped worker threads,
    /// then records what the epoch did: shard service and barrier wait
    /// (wall plane), one trace span per job that ran, and the shards'
    /// pipeline histograms.
    fn step(&mut self, grants: &[usize]) -> Result<()> {
        let epoch = self.epochs.len();
        let steps_before: Vec<usize> = self
            .slot_of_account
            .iter()
            .map(|&(s, pos)| self.shards[s].slots[pos].session.steps_taken())
            .collect();
        let section = WallClockScope::start();
        std::thread::scope(|scope| {
            for shard in self.shards.iter_mut() {
                scope.spawn(move || shard.run_epoch(grants));
            }
        });
        let section = section.stop();
        // Each shard self-timed its service; the coordinator keys it now
        // that the epoch and shard index are known. The barrier's own
        // cost is what the parallel section took beyond the slowest
        // shard: spawn/join overhead plus the lockstep wait every faster
        // shard paid.
        let mut slowest = 0u64;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let service = std::mem::take(&mut shard.wall);
            slowest = slowest.max(service.nanos);
            let key = WallKey::phase("shard-service").at_epoch(epoch as u64).on_shard(s as u64);
            self.wall.record(key, service);
        }
        self.wall.record(
            WallKey::phase("barrier-wait").at_epoch(epoch as u64),
            WallStats::from_nanos(section.nanos.saturating_sub(slowest)),
        );
        for shard in &mut self.shards {
            if let Some(e) = shard.error.take() {
                return Err(e);
            }
        }

        // One span per job that ran, nested under the epoch span,
        // weighted by the steps it actually took — the virtual work
        // `trace2flame` folds into `epoch-N;job-id` rows.
        let t = epoch_t_us(epoch);
        let mut epoch_steps = 0u64;
        for (account, &(s, pos)) in self.slot_of_account.iter().enumerate() {
            let slot = &self.shards[s].slots[pos];
            let delta = (slot.session.steps_taken() - steps_before[account]) as u64;
            if delta > 0 {
                epoch_steps += delta;
                self.obs.trace.enter(t, &format!("job-{}", slot.session.spec().id));
                self.obs.trace.exit(t, delta);
            }
        }
        self.obs.registry.inc("walk-steps", epoch_steps);
        // Per-shard pipeline histograms fold into the fleet registry —
        // the metrics analogue of the history gossip (every combine is
        // associative and commutative, so the fold order cannot matter).
        for shard in &mut self.shards {
            let po = shard.pipeline.take_obs();
            let reg = &mut self.obs.registry;
            reg.inc("pipeline-completions", po.service_time_us.count());
            reg.merge_histogram("queue-wait-us", &po.queue_wait_us);
            reg.merge_histogram("service-time-us", &po.service_time_us);
        }
        Ok(())
    }

    /// The epoch barrier, serial and in a fixed order: quality fold →
    /// finish recording and ledger → gossip → registry.
    fn barrier(&mut self) -> Result<()> {
        let epoch = self.epochs.len();
        self.fold_quality(epoch);
        let mut report = EpochReport {
            epoch,
            fleet_unique_queries: self.fleet_unique_queries(),
            makespan_secs: self.makespan_secs(),
            ..Default::default()
        };
        self.record_finishes(&mut report);
        self.gossip(&mut report)?;
        // Gossip savings are a W-dependent figure: registry only, never
        // the trace.
        self.obs.registry.inc("gossip-adopted-responses", report.adopted_responses);
        self.obs.registry.inc("gossip-merge-conflicts", report.merge_conflicts);
        // The causal (W-invariant) face of the same barrier, emitted
        // inside the epoch span so the analysis layer can stamp the edge
        // with its epoch.
        let t = epoch_t_us(epoch);
        self.trace_adoptions(t);
        // Exit cost 0: the epoch's work is already attributed to the
        // nested job spans (the fold treats exit cost as *self* weight,
        // so a nonzero epoch cost would double count).
        self.obs.trace.exit(t, 0);
        self.epochs.push(report);
        Ok(())
    }

    /// Quality barrier: folds every slot's fresh sample series (the
    /// degree of each node its walk visited this epoch) into the fleet
    /// accumulator, shards in the gossip merge order, stamps the epoch's
    /// figures into the trace, and latches met `ess=N` SLOs. Jobs are
    /// disjoint across shards and every figure is job-local, so — like
    /// the history gossip — the fold order cannot change a single figure.
    fn fold_quality(&mut self, epoch: usize) {
        let t = epoch_t_us(epoch);
        for s in self.config.merge_order.indices(self.shards.len()) {
            for slot in &mut self.shards[s].slots {
                let samples = slot.observer.drain(&slot.session);
                self.quality.observe(&slot.session.spec().id, &samples);
            }
        }
        // Per-job ESS, the Geweke z once the window splits, then the
        // fleet R-hat (id order, inside the epoch span) — exactly what
        // `trace2mix` folds into trajectories.
        for (id, jq) in self.quality.jobs() {
            let ess = scale_milli(jq.ess());
            self.obs.trace.point(t, &format!("quality-ess-{id}"), ess);
            if let Some(z) = jq.geweke_z() {
                self.obs.trace.point(t, &format!("quality-z-{id}"), scale_milli(z));
            }
        }
        if let Some(rhat) = self.quality.rhat() {
            self.obs.trace.point(t, "quality-rhat", scale_milli(rhat));
        }
        // Early stop, in account order: a converged job is paused so the
        // planner stops granting its quanta; the finish pass then treats
        // it as finished, releasing its unspent slice at this barrier.
        for &(s, pos) in &self.slot_of_account {
            let slot = &mut self.shards[s].slots[pos];
            if slot.done() {
                continue;
            }
            let id = &slot.session.spec().id;
            let Some(jq) = self.quality.job(id) else { continue };
            if jq.met() {
                self.obs.trace.point(t, &format!("quality-met-{id}"), scale_milli(jq.ess()));
                slot.quality_met = true;
                slot.session.pause();
            }
        }
    }

    /// Records finish instants and — when budgeted — charges the ledger,
    /// suspends dry jobs, and rebalances: one pass in account order
    /// (serial, and a pure function of job-local state, so
    /// shard-invariant).
    fn record_finishes(&mut self, report: &mut EpochReport) {
        let t = epoch_t_us(report.epoch);
        let mut finished: Vec<usize> = Vec::new();
        let mut claims: Vec<(usize, u64)> = Vec::new();
        for &(s, pos) in &self.slot_of_account {
            let now_secs = self.shards[s].pipeline.clock().now();
            let slot = &mut self.shards[s].slots[pos];
            let (mut demand, mut exhausted) = (0, false);
            if let Some(ledger) = self.ledger.as_mut() {
                demand = slot.refresh_demand();
                let steps_now = slot.session.steps_taken();
                let charged = demand.saturating_sub(ledger.account(slot.account).spent);
                exhausted = ledger.charge(slot.account, demand);
                let algo = slot.session.spec().algo.name();
                self.predictor.observe(algo, (steps_now - slot.steps_seen) as u64, charged);
                slot.steps_seen = steps_now;
                if charged > 0 {
                    let name = format!("ledger-charge-{}", slot.session.spec().id);
                    self.obs.trace.point(t, &name, charged);
                }
            }
            let completed = slot.session.state() == SessionState::Completed;
            if completed || slot.quality_met {
                // Quality-met jobs finish here too: their SLO latch
                // already marked the convergence in the trace, so only
                // true completions get a `finish-` point, but both
                // release their unspent slice to the pool.
                if slot.finished_secs.is_none() {
                    slot.finished_secs = Some(now_secs);
                    finished.push(slot.account);
                    if completed {
                        let name = format!("finish-{}", slot.session.spec().id);
                        self.obs.trace.point(t, &name, slot.session.steps_taken() as u64);
                    }
                }
            } else if exhausted && !slot.suspended {
                slot.suspended = true;
                slot.session.pause();
                let name = format!("suspend-{}", slot.session.spec().id);
                self.obs.trace.point(t, &name, demand);
            }
            let Some(ledger) = &self.ledger else { continue };
            if slot.suspended && !slot.done() {
                // Claim what the rest of the walk is predicted to
                // demand, judged against the *static* warm store so the
                // claim is shard-invariant — PLUS the overshoot already
                // spent past the allowance: a grant that ignored it
                // could cover the predicted remainder yet leave the
                // account exhausted, and the job would be cut with
                // budget still pooled.
                let account = ledger.account(slot.account);
                let overshoot = account.spent.saturating_sub(account.allowance);
                let want = self.predictor.predict_remaining_queries(
                    slot.session.spec(),
                    slot.session.steps_remaining(),
                    self.warm_start,
                );
                claims.push((slot.account, overshoot + want.max(1)));
            }
        }
        let Some(ledger) = self.ledger.as_mut() else { return };
        let outcome = ledger.rebalance(&finished, &claims);
        report.ledger_reclaimed = outcome.reclaimed;
        report.ledger_granted = outcome.granted;
        self.reclaimed += outcome.reclaimed;
        self.granted += outcome.granted;
        if outcome.reclaimed > 0 {
            self.obs.trace.point(t, "ledger-reclaimed", outcome.reclaimed);
        }
        if outcome.granted > 0 {
            self.obs.trace.point(t, "ledger-granted", outcome.granted);
        }
        // Re-granted slices resume their jobs.
        for &(account, _) in &claims {
            let (s, pos) = self.slot_of_account[account];
            let slot = &mut self.shards[s].slots[pos];
            if slot.suspended && !ledger.account(account).exhausted() {
                slot.suspended = false;
                slot.session.resume_stepping();
                let name = format!("resume-{}", slot.session.spec().id);
                self.obs.trace.point(t, &name, ledger.account(account).allowance);
            }
        }
    }

    /// History gossip: folds every shard's store into one union (in the
    /// configured order) and redistributes it, timing the merge.
    fn gossip(&mut self, report: &mut EpochReport) -> Result<()> {
        if !self.config.gossip || self.shards.len() < 2 {
            return Ok(());
        }
        let timer = WallClockScope::start();
        let stores: Vec<HistoryStore> =
            self.shards.iter().map(|s| s.client.with(|c| HistoryStore::from_client(c))).collect();
        let (union, conflicts) = fold_stores(&stores, self.config.merge_order)?;
        for (shard, store) in self.shards.iter_mut().zip(&stores) {
            let adopted = union.num_responses() - store.num_responses();
            report.adopted_responses += adopted as u64;
            if adopted > 0 {
                shard.client.with(|c| c.import_entries(&union.cache));
                shard.refresh_known();
            }
        }
        report.merge_conflicts = conflicts;
        self.adopted += report.adopted_responses;
        self.conflicts += conflicts;
        timer.stop_into(
            &mut self.wall,
            WallKey::phase("gossip-merge").at_epoch(report.epoch as u64),
        );
        Ok(())
    }

    /// Traces the causal adoption edges of every walk's history since
    /// the last call (nothing for isolated shards).
    fn trace_adoptions(&mut self, t: u64) {
        let Some(causal) = self.causal.as_mut() else { return };
        let histories: Vec<&[NodeId]> = self
            .slot_of_account
            .iter()
            .map(|&(s, pos)| self.shards[s].slots[pos].session.walker().history())
            .collect();
        for (from, to, count) in causal.barrier(&histories) {
            let from = format!("job-{}", self.jobs[self.admitted[from]].id);
            let to = format!("job-{}", self.jobs[self.admitted[to]].id);
            self.obs.trace.gossip(t, &from, &to, count);
        }
    }

    fn fleet_unique_queries(&self) -> u64 {
        self.shards.iter().map(|s| s.client.with(|c| c.unique_queries())).sum()
    }

    fn makespan_secs(&self) -> f64 {
        self.shards.iter().map(|s| s.pipeline.clock().now()).fold(0.0, f64::max)
    }

    /// Closes the planes and assembles the report.
    fn finish(mut self) -> Result<FleetReport> {
        // In-trace self-check: `trace2critpath` cross-checks the epoch
        // count it reconstructs against this final point.
        let epochs = self.epochs.len();
        self.obs.trace.point(epoch_t_us(epochs), "fleet-epochs", epochs as u64);
        // Final quality drain (idempotent — the observer cursor makes a
        // re-drain of already-folded history a no-op): covers runs that
        // never crossed a barrier, e.g. zero-step jobs whose only sample
        // is the seed position.
        for &(s, pos) in &self.slot_of_account {
            let slot = &mut self.shards[s].slots[pos];
            let samples = slot.observer.drain(&slot.session);
            self.quality.observe(&slot.session.spec().id, &samples);
        }
        let (outcomes, aggregate_stats, cut_jobs) = self.outcomes()?;
        let union = self.union_store()?;
        let mut pipeline_stats = PipelineStats::default();
        for shard in &self.shards {
            pipeline_stats += shard.pipeline.stats();
        }
        self.fill_registry(&outcomes, &union);
        // Each shard pipeline's accumulated replay time: one figure per
        // shard, not per epoch — the pipeline does not know about
        // barriers.
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let key = WallKey::phase("pipeline-replay").on_shard(s as u64);
            self.wall.record(key, shard.pipeline.take_wall());
        }
        Ok(FleetReport {
            outcomes,
            shards: self.shards.len(),
            total_unique_queries: self.fleet_unique_queries(),
            gossip_adopted_responses: self.adopted,
            merge_conflicts: self.conflicts,
            makespan_secs: self.makespan_secs(),
            aggregate_stats,
            union_store: union,
            ledger: self.ledger.map(|l| LedgerSummary {
                total: l.total(),
                spent: l.total_spent(),
                reclaimed: self.reclaimed,
                granted: self.granted,
                pool: l.pool(),
                cut_jobs,
            }),
            admission: self.decisions,
            epochs: self.epochs,
            pipeline_stats,
            obs: self.obs,
            wall: self.wall,
            quality: self.quality.report(),
        })
    }

    /// Finalizes outcomes in submission order — run slots plus
    /// placeholders for jobs admission kept off the fleet — with the
    /// aggregate rewiring counters and the number of budget-cut jobs.
    fn outcomes(&mut self) -> Result<(Vec<JobOutcome>, RewireStats, u64)> {
        let mut indexed: Vec<(usize, JobOutcome)> = Vec::with_capacity(self.jobs.len());
        let mut aggregate_stats = RewireStats::default();
        let mut cut_jobs = 0u64;
        for slot in self.shards.iter_mut().flat_map(|s| s.slots.iter_mut()) {
            let mut outcome = finalize_session(&mut slot.session, !slot.cut)?;
            outcome.finished_secs = slot.finished_secs;
            // A quality-met job stopped early *because it met its goal*:
            // it completes by SLO even though its session never
            // exhausted the step budget.
            outcome.completed |= slot.quality_met;
            cut_jobs += u64::from(slot.cut);
            if let Some(s) = outcome.stats {
                aggregate_stats += s;
            }
            indexed.push((slot.orig, outcome));
        }
        for d in self.decisions.iter().filter(|d| !d.verdict.admitted()) {
            let spec = &self.jobs[d.job_index];
            indexed.push((
                d.job_index,
                JobOutcome {
                    id: spec.id.clone(),
                    algorithm: spec.algo.name(),
                    steps: 0,
                    completed: false,
                    final_node: spec.start,
                    history: Vec::new(),
                    stats: None,
                    scan: None,
                    mh: None,
                    avg_degree_estimate: None,
                    finished_secs: None,
                },
            ));
        }
        indexed.sort_unstable_by_key(|(j, _)| *j);
        Ok((indexed.into_iter().map(|(_, o)| o).collect(), aggregate_stats, cut_jobs))
    }

    /// The fleet-wide union store: every shard's cache plus every
    /// rewiring walker's overlay delta (in submission order). Its merge
    /// conflicts add to the run's total.
    fn union_store(&mut self) -> Result<HistoryStore> {
        let stores: Vec<HistoryStore> =
            self.shards.iter().map(|s| s.client.with(|c| HistoryStore::from_client(c))).collect();
        let (mut union, conflicts) = fold_stores(&stores, self.config.merge_order)?;
        self.conflicts += conflicts;
        for slot in self.shards.iter().flat_map(|s| &s.slots) {
            if let Some(delta) = slot.session.walker().overlay() {
                let overlay_only = HistoryStore {
                    removed: delta.removed_edges().map(|e| (e.small(), e.large())).collect(),
                    added: delta.added_edges().map(|e| (e.small(), e.large())).collect(),
                    ..Default::default()
                };
                let outcome = union.merge(&overlay_only).map_err(ServeError::SnapshotMismatch)?;
                self.conflicts += outcome.conflicts;
            }
        }
        Ok(union)
    }

    /// Final registry fill: walker telemetry (deterministic plane,
    /// summed over jobs in submission order) plus cache/arena figures
    /// (W-dependent: per-shard caches diverge with the shard count).
    fn fill_registry(&mut self, outcomes: &[JobOutcome], union: &HistoryStore) {
        // A nonzero underflow count means an exit was submitted with no
        // open span — an instrumentation bug the metrics surface must
        // report rather than silently drop.
        let underflows = self.obs.trace.underflows();
        let reg = &mut self.obs.registry;
        reg.inc("trace-underflows", underflows);
        reg.inc("gossip-causal-adoptions", self.causal.as_ref().map_or(0, |c| c.total));
        reg.inc("unique-nodes-crawled", union.num_responses() as u64);
        for shard in &self.shards {
            shard.client.with(|c| {
                reg.inc("total-lookups", c.total_lookups());
                reg.inc("transient-retries", c.transient_retries());
                reg.inc("arena-rewrites-in-place", c.arena().rewrites_in_place());
                reg.inc("arena-leaked-ids", c.arena().leaked_ids());
            });
        }
        for o in outcomes {
            if let Some((proposals, rejections)) = o.mh {
                reg.inc("mh-proposals", proposals);
                reg.inc("mh-rejections", rejections);
            }
            if let Some(scan) = o.scan {
                reg.inc("criterion-scans", scan.criterion_scans);
                reg.inc("criterion-scanned", scan.criterion_scanned);
                reg.gauge_max("max-scan-len", scan.max_scan);
            }
            if let Some(s) = o.stats {
                reg.inc("rewire-removals", s.removals);
                reg.inc("rewire-replacements", s.replacements);
                reg.inc("rewire-replacement-rejections", s.replacement_rejections);
            }
        }
    }
}

/// Folds per-shard stores into one union in the configured order,
/// returning the union and the keep-first conflict count.
fn fold_stores(stores: &[HistoryStore], order: MergeOrder) -> Result<(HistoryStore, u64)> {
    let mut union = HistoryStore::default();
    let mut conflicts = 0u64;
    for i in order.indices(stores.len()) {
        let outcome = union.merge(&stores[i]).map_err(ServeError::SnapshotMismatch)?;
        conflicts += outcome.conflicts;
    }
    Ok((union, conflicts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mto_core::mto::MtoConfig;
    use mto_core::walk::{MhrwConfig, SrwConfig};
    use mto_graph::generators::paper_barbell;
    use mto_osn::OsnService;
    use mto_qos::AdmissionVerdict;
    use mto_serve::scheduler::{JobScheduler, SchedulerConfig};
    use mto_serve::session::AlgoSpec;

    fn barbell_fleet(
        config: FleetConfig,
    ) -> FleetCoordinator<OsnService, impl Fn(usize) -> OsnService> {
        FleetCoordinator::new(|_| OsnService::with_defaults(&paper_barbell()), config)
    }

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
                deadline: None,
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
                deadline: None,
                ess: None,
            },
        ]
    }

    /// The mixed pool with deadlines on two jobs.
    fn deadline_jobs() -> Vec<JobSpec> {
        let mut jobs = mixed_jobs();
        jobs[1].deadline = Some(2.0);
        jobs[3].deadline = Some(5.0);
        jobs
    }

    #[test]
    fn fleet_runs_jobs_to_their_budgets_and_reports_epochs() {
        let fleet =
            barbell_fleet(FleetConfig { shards: 4, epoch_quantum: 50, ..Default::default() });
        let report = fleet.run(mixed_jobs()).unwrap();
        assert_eq!(report.shards, 4);
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
        assert_eq!(report.epochs.len(), 8, "longest job (400) at quantum 50");
        assert!(report.makespan_secs > 0.0, "pipelines must bill virtual time");
        assert!(report.aggregate_stats.removals > 0, "MTO jobs rewire");
        // Honest shards crawling one network never conflict.
        assert_eq!(report.epochs.iter().map(|e| e.merge_conflicts).sum::<u64>(), 0);
        // The union store holds every node anyone paid for.
        assert!(report.union_store.num_responses() >= 20, "barbell is nearly fully crawled");
        // Unbudgeted run: no ledger; every job admitted; finish times set.
        assert!(report.ledger.is_none());
        assert!(report.admission.iter().all(|d| d.verdict == AdmissionVerdict::Admit));
        assert!(report.outcomes.iter().all(|o| o.finished_secs.is_some()));
    }

    #[test]
    fn results_are_invariant_to_shard_count_and_merge_order() {
        let digest = |shards, merge_order, gossip| {
            barbell_fleet(FleetConfig {
                shards,
                merge_order,
                gossip,
                epoch_quantum: 32,
                ..Default::default()
            })
            .run(mixed_jobs())
            .unwrap()
            .results_digest()
        };
        let reference = digest(1, MergeOrder::Forward, true);
        assert!(!reference.is_empty());
        for shards in [2, 3, 4] {
            for order in [MergeOrder::Forward, MergeOrder::Reverse] {
                for gossip in [true, false] {
                    assert_eq!(
                        digest(shards, order, gossip),
                        reference,
                        "W={shards} {order:?} gossip={gossip} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn single_shard_fleet_matches_the_job_scheduler_exactly() {
        let fleet =
            barbell_fleet(FleetConfig { shards: 1, epoch_quantum: 64, ..Default::default() });
        let fleet_report = fleet.run(mixed_jobs()).unwrap();

        let scheduler = JobScheduler::new(
            OsnService::with_defaults(&paper_barbell()),
            SchedulerConfig { workers: 3, quantum: 16, ..Default::default() },
        );
        let serve_report = scheduler.run(mixed_jobs()).unwrap();

        assert_eq!(fleet_report.outcomes.len(), serve_report.outcomes.len());
        for (f, s) in fleet_report.outcomes.iter().zip(&serve_report.outcomes) {
            assert_eq!(f.id, s.id);
            assert_eq!(f.history, s.history, "job {} diverged from the scheduler", f.id);
            assert_eq!(f.stats, s.stats);
            assert_eq!(f.avg_degree_estimate, s.avg_degree_estimate);
            assert_eq!((f.steps, f.completed), (s.steps, s.completed));
        }
        assert_eq!(
            fleet_report.total_unique_queries, serve_report.total_unique_queries,
            "one shard, one client: the same bill"
        );
    }

    #[test]
    fn gossip_cuts_the_fleet_bill_versus_isolated_shards() {
        let bill = |gossip| {
            barbell_fleet(FleetConfig {
                shards: 4,
                gossip,
                epoch_quantum: 25,
                ..Default::default()
            })
            .run(mixed_jobs())
            .unwrap()
            .total_unique_queries
        };
        let (gossiped, isolated) = (bill(true), bill(false));
        assert!(
            gossiped < isolated,
            "gossip {gossiped} must beat isolated {isolated} on overlapping crawls"
        );
    }

    #[test]
    fn gossip_adoption_is_visible_in_epoch_reports() {
        let report =
            barbell_fleet(FleetConfig { shards: 4, epoch_quantum: 25, ..Default::default() })
                .run(mixed_jobs())
                .unwrap();
        assert!(report.gossip_adopted_responses > 0, "shards must trade history");
        assert_eq!(
            report.gossip_adopted_responses,
            report.epochs.iter().map(|e| e.adopted_responses).sum::<u64>()
        );
        for w in report.epochs.windows(2) {
            assert!(
                w[1].fleet_unique_queries >= w[0].fleet_unique_queries,
                "the bill is cumulative"
            );
            assert!(w[1].makespan_secs >= w[0].makespan_secs, "makespan is monotone");
        }
    }

    #[test]
    fn warm_started_fleet_pays_less() {
        let cold = barbell_fleet(FleetConfig { shards: 2, ..Default::default() });
        let cold_report = cold.run(mixed_jobs()).unwrap();
        let warm = barbell_fleet(FleetConfig { shards: 2, ..Default::default() })
            .with_warm_start(cold_report.union_store.clone());
        let warm_report = warm.run(mixed_jobs()).unwrap();
        assert!(
            warm_report.total_unique_queries < cold_report.total_unique_queries,
            "warm {} vs cold {}",
            warm_report.total_unique_queries,
            cold_report.total_unique_queries
        );
        assert_eq!(warm_report.results_digest(), cold_report.results_digest());
    }

    #[test]
    fn empty_job_list_is_a_noop() {
        let report = barbell_fleet(FleetConfig::default()).run(Vec::new()).unwrap();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.total_unique_queries, 0);
        assert_eq!(report.shards, 0);
    }

    #[test]
    fn provider_profiles_shape_the_makespan() {
        let makespan = |provider| {
            barbell_fleet(FleetConfig { shards: 2, provider, ..Default::default() })
                .run(mixed_jobs())
                .unwrap()
                .makespan_secs
        };
        let plain = makespan(None);
        let twitter = makespan(Some(ProviderProfile::twitter()));
        assert!(plain > 0.0);
        assert!(twitter > plain, "twitter's quota must dominate a plain 50 ms provider");
    }

    #[test]
    fn edf_policy_preserves_results_but_front_loads_deadline_finishes() {
        // A 200-node G(n, p) keeps walks discovering (and the shard
        // clocks advancing) for the whole run, so finish times resolve
        // finer than the tiny barbell's fully-crawled plateau.
        use rand::SeedableRng;
        let run = |policy, shards| {
            FleetCoordinator::new(
                |_| {
                    OsnService::with_defaults(&mto_graph::generators::gnp_graph(
                        200,
                        0.04,
                        &mut rand::rngs::StdRng::seed_from_u64(7),
                    ))
                },
                FleetConfig { shards, epoch_quantum: 25, policy, ..Default::default() },
            )
            .run(deadline_jobs())
            .unwrap()
        };
        let rr = run(SchedulePolicy::RoundRobin, 2);
        for shards in [1, 2, 4] {
            let edf = run(SchedulePolicy::EarliestDeadlineFirst, shards);
            assert_eq!(
                edf.results_digest(),
                rr.results_digest(),
                "policy/W must never change results (W={shards})"
            );
        }
        // Timing is what EDF changes: on a one-shard fleet (all four
        // jobs contending), the deadline jobs must finish no later than
        // under round-robin — and strictly earlier than the best-effort
        // hog that shares their shard.
        let rr1 = run(SchedulePolicy::RoundRobin, 1);
        let edf1 = run(SchedulePolicy::EarliestDeadlineFirst, 1);
        let finish = |r: &FleetReport, id: &str| -> f64 {
            r.outcomes.iter().find(|o| o.id == id).unwrap().finished_secs.unwrap()
        };
        assert!(
            finish(&edf1, "mto-b") <= finish(&rr1, "mto-b"),
            "EDF must not delay a deadline job"
        );
        assert!(
            finish(&edf1, "mto-b") < finish(&edf1, "mto-a"),
            "the deadline job outruns the best-effort hog under EDF"
        );
    }

    #[test]
    fn budgeted_fleet_is_bit_identical_across_shard_counts() {
        // The acceptance criterion of ISSUE 5: budget + shards composes,
        // with identical results and identical ledger spend across W.
        let run = |shards| {
            barbell_fleet(FleetConfig {
                shards,
                epoch_quantum: 25,
                fleet_budget: Some(30),
                ..Default::default()
            })
            .run(mixed_jobs())
            .unwrap()
        };
        let reference = run(1);
        let ref_ledger = reference.ledger.expect("budgeted run carries a ledger");
        assert!(ref_ledger.spent > 0);
        for shards in [2, 3, 4] {
            let report = run(shards);
            assert_eq!(
                report.results_digest(),
                reference.results_digest(),
                "budget cuts diverged at W={shards}"
            );
            let ledger = report.ledger.unwrap();
            assert_eq!(ledger.spent, ref_ledger.spent, "ledger spend diverged at W={shards}");
            assert_eq!(ledger.reclaimed, ref_ledger.reclaimed);
            assert_eq!(ledger.granted, ref_ledger.granted);
            assert_eq!(ledger.cut_jobs, ref_ledger.cut_jobs);
        }
    }

    #[test]
    fn tight_budgets_cut_jobs_and_generous_budgets_do_not() {
        let run = |budget| {
            barbell_fleet(FleetConfig {
                shards: 2,
                epoch_quantum: 25,
                fleet_budget: Some(budget),
                ..Default::default()
            })
            .run(mixed_jobs())
            .unwrap()
        };
        let tight = run(6);
        assert!(
            tight.outcomes.iter().any(|o| !o.completed),
            "a 6-unit budget cannot cover four walks of the barbell"
        );
        assert!(tight.ledger.unwrap().cut_jobs > 0);
        let generous = run(10_000);
        assert!(generous.outcomes.iter().all(|o| o.completed));
        assert_eq!(generous.ledger.unwrap().cut_jobs, 0);
        // The ledger never lets total spend sail past budget + one
        // quantum's overshoot per job.
        let spent = tight.ledger.unwrap().spent;
        assert!(spent >= 6, "the budget itself is spendable");
    }

    #[test]
    fn strict_deadline_policy_rejects_hopeless_jobs_up_front() {
        let mut jobs = mixed_jobs();
        // 400 steps at ≥ 50 ms per predicted query cannot finish in 1 ms.
        jobs[0].deadline = Some(0.001);
        let report = barbell_fleet(FleetConfig {
            shards: 2,
            deadline_policy: DeadlinePolicy::Strict,
            ..Default::default()
        })
        .run(jobs)
        .unwrap();
        assert_eq!(report.admission[0].verdict, AdmissionVerdict::Reject);
        let rejected = &report.outcomes[0];
        assert_eq!((rejected.steps, rejected.completed), (0, false), "never ran");
        assert!(rejected.history.is_empty());
        // The other three ran normally.
        assert!(report.outcomes[1..].iter().all(|o| o.completed));
    }

    #[test]
    fn fleet_refuses_mismatched_shard_networks() {
        // Shard 1 sees a different network: the gossip merge must refuse
        // the union instead of poisoning every shard's cache.
        let fleet = FleetCoordinator::new(
            |s| {
                if s == 0 {
                    OsnService::with_defaults(&paper_barbell())
                } else {
                    OsnService::with_defaults(&mto_graph::generators::complete_graph(5))
                }
            },
            FleetConfig { shards: 2, epoch_quantum: 16, ..Default::default() },
        );
        let jobs = vec![
            JobSpec {
                id: "a".into(),
                algo: AlgoSpec::Srw(SrwConfig { seed: 1, lazy: false }),
                start: NodeId(0),
                step_budget: 64,
                deadline: None,
                ess: None,
            },
            JobSpec {
                id: "b".into(),
                algo: AlgoSpec::Srw(SrwConfig { seed: 2, lazy: false }),
                start: NodeId(1),
                step_budget: 64,
                deadline: None,
                ess: None,
            },
        ];
        let err = fleet.run(jobs).unwrap_err();
        assert!(matches!(err, ServeError::SnapshotMismatch(_)), "{err:?}");
    }

    #[test]
    fn observed_traces_are_byte_identical_across_shard_counts() {
        let observe = |shards| {
            barbell_fleet(FleetConfig {
                shards,
                epoch_quantum: 32,
                fleet_budget: Some(10_000),
                ..Default::default()
            })
            .run(deadline_jobs())
            .unwrap()
            .obs
        };
        let reference = observe(1);
        let encoded = mto_obs::encode_trace(&reference.trace);
        assert!(!reference.trace.is_empty(), "an observed run records events");
        assert_eq!(reference.trace.open_spans(), 0, "every epoch span closed");
        assert_eq!(reference.trace.underflows(), 0, "every exit had an open span");
        // The causal records are part of the byte-identical plane: the
        // W=1 trace already carries gossip edges and the epoch-count
        // self-check, so cross-W equality covers them too.
        assert!(
            reference
                .trace
                .events()
                .iter()
                .any(|e| matches!(e, mto_obs::TraceRecord::Gossip { .. })),
            "deadline jobs on one barbell share nodes: adoption edges must appear"
        );
        assert!(
            reference.trace.events().iter().any(|e| matches!(
                e,
                mto_obs::TraceRecord::Point { name, .. } if name == "fleet-epochs"
            )),
            "the trace must close with its epoch-count self-check"
        );
        for shards in [2, 4] {
            let other = observe(shards);
            assert_eq!(
                mto_obs::encode_trace(&other.trace),
                encoded,
                "trace diverged at W={shards}"
            );
            // Deterministic-plane registry figures are W-invariant too;
            // the timing histograms legitimately are not.
            for name in ["walk-steps", "unique-nodes-crawled", "total-lookups", "mh-proposals"] {
                assert_eq!(
                    other.registry.counter(name),
                    reference.registry.counter(name),
                    "{name} diverged at W={shards}"
                );
            }
        }
    }

    #[test]
    fn the_critical_path_spans_the_makespan_and_is_shard_invariant() {
        let run = |shards| {
            barbell_fleet(FleetConfig {
                shards,
                epoch_quantum: 32,
                fleet_budget: Some(10_000),
                ..Default::default()
            })
            .run(deadline_jobs())
            .unwrap()
        };
        let reference = run(1);
        let data = &reference.obs;
        let model = mto_obs::critpath::FleetModel::from_records(data.trace.events())
            .expect("fleet traces parse into the epoch/job model");
        let path = mto_obs::critpath::critical_path(&model).expect("the run has epochs");
        // The path is an unbroken causal chain through every epoch: its
        // virtual-time total *is* the makespan, in epochs — the trace's
        // own `fleet-epochs` self-check already pinned that count to the
        // model during parsing.
        assert_eq!(path.epochs, reference.epochs.len());
        let report = mto_obs::critpath::render(&path);
        let lanes = mto_obs::timeline::render(&model).expect("fleet traces have epoch lanes");
        for shards in [2, 4] {
            let other = run(shards);
            let other_data = &other.obs;
            let other_model =
                mto_obs::critpath::FleetModel::from_records(other_data.trace.events())
                    .expect("fleet traces parse into the epoch/job model");
            let other_path = mto_obs::critpath::critical_path(&other_model).unwrap();
            assert_eq!(mto_obs::critpath::render(&other_path), report, "W={shards}");
            assert_eq!(mto_obs::timeline::render(&other_model).unwrap(), lanes, "W={shards}");
        }
    }

    #[test]
    fn wall_plane_reports_phases_without_perturbing_the_deterministic_plane() {
        let run = || {
            barbell_fleet(FleetConfig { shards: 2, epoch_quantum: 32, ..Default::default() })
                .run(mixed_jobs())
                .unwrap()
        };
        let (a, b) = (run(), run());
        // Wall figures differ run to run; results, bills, trace bytes,
        // and the whole metrics registry may not.
        assert_eq!(a.results_digest(), b.results_digest());
        assert_eq!(a.total_unique_queries, b.total_unique_queries);
        assert_eq!(mto_obs::encode_trace(&a.obs.trace), mto_obs::encode_trace(&b.obs.trace));
        assert_eq!(a.obs.registry, b.obs.registry, "wall figures must never leak into metrics");

        let wall = &a.wall;
        assert!(!wall.is_empty());
        for (key, stats) in wall.iter() {
            match key.phase {
                "shard-service" => {
                    assert!(key.epoch.is_some() && key.shard.is_some(), "{key:?}");
                }
                "barrier-wait" | "gossip-merge" => {
                    assert!(key.epoch.is_some() && key.shard.is_none(), "{key:?}");
                }
                "pipeline-replay" => {
                    assert!(key.epoch.is_none() && key.shard.is_some(), "{key:?}");
                }
                other => panic!("unexpected wall phase {other:?}"),
            }
            assert!(stats.count > 0, "{key:?} recorded nothing");
        }
        // Every epoch has both shards' service and a barrier row; the
        // replay fold covers both shard pipelines.
        for e in 0..a.epochs.len() as u64 {
            for s in 0..2 {
                let key = WallKey::phase("shard-service").at_epoch(e).on_shard(s);
                assert!(wall.get(&key).is_some(), "missing {key:?}");
            }
            let key = WallKey::phase("barrier-wait").at_epoch(e);
            assert!(wall.get(&key).is_some(), "missing {key:?}");
        }
        for s in 0..2 {
            let key = WallKey::phase("pipeline-replay").on_shard(s);
            assert!(wall.get(&key).is_some(), "missing {key:?}");
        }
        assert!(wall.total().nanos > 0, "wall clocks advance");
    }

    #[test]
    fn the_registry_cross_checks_the_outcomes() {
        let report =
            barbell_fleet(FleetConfig { shards: 2, epoch_quantum: 32, ..Default::default() })
                .run(mixed_jobs())
                .unwrap();
        let steps: u64 = report.outcomes.iter().map(|o| o.steps as u64).sum();
        assert_eq!(report.obs.registry.counter("walk-steps"), steps);
        assert_eq!(
            report.obs.registry.counter("unique-nodes-crawled"),
            report.union_store.num_responses() as u64
        );
    }

    #[test]
    fn quality_plane_is_shard_invariant() {
        let run = |shards, merge_order| {
            barbell_fleet(FleetConfig {
                shards,
                merge_order,
                epoch_quantum: 32,
                ..Default::default()
            })
            .run(mixed_jobs())
            .unwrap()
        };
        let reference = run(1, MergeOrder::Forward);
        let report = &reference.quality;
        for (id, figures) in &report.jobs {
            let outcome = reference.outcomes.iter().find(|o| &o.id == id).unwrap();
            assert_eq!(
                figures.samples,
                outcome.history.len() as u64,
                "job {id}: one sample per visited position"
            );
            assert!(figures.ess > 0.0, "job {id} has a positive ESS");
            assert!(figures.target_ess.is_none() && !figures.met, "no job declared an SLO");
        }
        assert!(report.rhat.is_some(), "four chains fold into an R-hat");

        // Every figure is a pure function of the walks, so the report —
        // and the quality trace stamps — are byte-identical across
        // shard counts and fold orders.
        let encoded = mto_obs::encode_trace(&reference.obs.trace);
        assert!(
            reference.obs.trace.events().iter().any(|e| matches!(
                e,
                mto_obs::TraceRecord::Point { name, .. } if name.starts_with("quality-ess-")
            )),
            "every run stamps per-epoch ESS points"
        );
        for shards in [2, 4] {
            for order in [MergeOrder::Forward, MergeOrder::Reverse] {
                let other = run(shards, order);
                assert_eq!(
                    &other.quality, report,
                    "quality figures diverged at W={shards} {order:?}"
                );
                assert_eq!(
                    mto_obs::encode_trace(&other.obs.trace),
                    encoded,
                    "quality trace diverged at W={shards} {order:?}"
                );
            }
        }
    }

    #[test]
    fn quality_slo_stops_a_converged_job_early_and_releases_its_budget() {
        let jobs = || {
            vec![
                JobSpec {
                    id: "converge".into(),
                    algo: AlgoSpec::Mto(MtoConfig { seed: 9, ..Default::default() }),
                    start: NodeId(0),
                    step_budget: 4000,
                    deadline: None,
                    ess: Some(10),
                },
                JobSpec {
                    id: "plain".into(),
                    algo: AlgoSpec::Srw(SrwConfig { seed: 4, lazy: false }),
                    start: NodeId(11),
                    step_budget: 300,
                    deadline: None,
                    ess: None,
                },
            ]
        };
        let run = |shards| {
            barbell_fleet(FleetConfig {
                shards,
                epoch_quantum: 50,
                fleet_budget: Some(10_000),
                ..Default::default()
            })
            .run(jobs())
            .unwrap()
        };
        let report = run(2);
        let converged = report.outcomes.iter().find(|o| o.id == "converge").unwrap();
        assert!(
            converged.steps < 4000,
            "a 10-ESS target on a 4000-step walk must latch early (took {})",
            converged.steps
        );
        assert!(converged.completed, "meeting the SLO is completion");
        assert!(converged.finished_secs.is_some(), "early stop records a finish time");
        let plain = report.outcomes.iter().find(|o| o.id == "plain").unwrap();
        assert_eq!((plain.steps, plain.completed), (300, true), "non-SLO jobs run to budget");

        let figures = &report.quality.jobs["converge"];
        assert!(figures.met && figures.target_ess == Some(10));
        assert!(figures.ess >= 10.0, "the latch means the target was reached");

        // The early stop released the converged job's unspent slice to
        // the pool at the same barrier, and the trace marks the latch.
        let ledger = report.ledger.as_ref().expect("the run was budgeted");
        assert!(ledger.reclaimed > 0, "an early-stopped job reclaims budget");
        assert_eq!(ledger.cut_jobs, 0, "a generous budget cuts nobody");
        let trace = &report.obs.trace;
        assert!(
            trace.events().iter().any(|e| matches!(
                e,
                mto_obs::TraceRecord::Point { name, .. } if name == "quality-met-converge"
            )),
            "the SLO latch is stamped into the trace"
        );

        // The latch fires at an epoch barrier — a shard-invariant clock
        // — so the early-stopped walk itself is bit-identical across W.
        for shards in [1, 4] {
            let other = run(shards);
            assert_eq!(other.results_digest(), report.results_digest(), "W={shards}");
            assert_eq!(other.quality, report.quality, "W={shards}");
        }
    }
}
