//! Sample-quality sweep: does MTO hit a target effective sample size
//! with fewer unique queries than SRW at an equal budget — with the
//! quality plane's early stop returning the unspent budget?
//!
//! The paper's whole argument is that rewiring buys *mixing*: an MTO
//! walk decorrelates faster, so a target estimator quality (ESS over
//! the degree series — the figure the quality plane streams) is reached
//! in fewer steps, and therefore fewer unique queries, than the simple
//! random walk pays for the same quality. This experiment measures that
//! claim end to end through the fleet's `quality ess=N` SLO machinery
//! on the Epinions stand-in:
//!
//! 1. two arms — MTO walkers and SRW walkers, same spread start nodes,
//!    same generous step cap, every job declaring the same `ess=N` SLO
//!    — run as budgeted quality fleets; the epoch planner stops each
//!    job at the first barrier where its streaming ESS crosses the
//!    target, and the ledger reclaims the unspent slice;
//! 2. `mto-fewer-queries-at-ess: PASS` requires every MTO job to hit
//!    the target within its cap with the arm's unique-query bill
//!    (per-walk unique demand, a shard-invariant figure) ≥ 30% below
//!    SRW's — whose walkers either latch late or burn their entire
//!    equal budget without converging, exactly the paper's claim;
//! 3. `early-stop-releases-budget: PASS` requires a nonzero ledger
//!    reclaim, no cut jobs, and the conservation invariant
//!    `spent + pool == total` (every account released);
//! 4. every arm × every shard count must produce byte-identical
//!    results digests *and* equal quality reports:
//!    `quality-deterministic: PASS`.
//!
//! Verdict lines are grepped by CI's `quality-smoke` job.

use std::collections::HashSet;
use std::sync::Arc;

use mto_core::mto::MtoConfig;
use mto_core::walk::SrwConfig;
use mto_fleet::{FleetConfig, FleetCoordinator, FleetReport};
use mto_graph::NodeId;
use mto_osn::OsnService;
use mto_serve::session::{AlgoSpec, JobSpec};

use crate::datasets::{build_dataset, DatasetSpec};
use crate::report::{ExperimentReport, Table};

/// Parameters of the sample-quality sweep.
#[derive(Clone, Debug)]
pub struct QualityConfig {
    /// Scale-down divisor for the Epinions stand-in.
    pub scale: usize,
    /// Walkers per arm.
    pub walkers: usize,
    /// Step cap per job — generous, so the SLO (not the cap) ends jobs.
    pub step_cap: usize,
    /// The `ess=N` target every job declares.
    pub target_ess: u64,
    /// Steps per epoch grant — the early-stop granularity.
    pub epoch_quantum: usize,
    /// The shard count both arms are compared at.
    pub verdict_shards: usize,
    /// Shard counts the determinism check sweeps.
    pub shard_counts: Vec<usize>,
    /// Fleet budget per arm: this multiple of the *cap*'s predicted
    /// demand, so the ledger constrains without ever cutting.
    pub budget_headroom: f64,
    /// Base seed of the job pools.
    pub seed: u64,
}

impl QualityConfig {
    /// Paper-scale configuration.
    pub fn full() -> Self {
        QualityConfig {
            scale: 1,
            walkers: 4,
            step_cap: 100_000,
            target_ess: 400,
            epoch_quantum: 200,
            verdict_shards: 4,
            shard_counts: vec![1, 2, 4],
            budget_headroom: 2.0,
            seed: 0x0E55,
        }
    }

    /// Reduced (CI-scale) configuration.
    pub fn reduced() -> Self {
        QualityConfig {
            scale: 10,
            step_cap: 30_000,
            target_ess: 200,
            epoch_quantum: 50,
            ..QualityConfig::full()
        }
    }
}

/// One arm's measurements at the verdict shard count.
#[derive(Clone, Debug)]
pub struct QualityArm {
    /// Arm label (`"mto"` / `"srw"`).
    pub algo: &'static str,
    /// Steps each walker took before its SLO latched (or its cap).
    pub steps: Vec<usize>,
    /// Streaming ESS each walker reported at its stop.
    pub ess: Vec<f64>,
    /// Whether every walker met the target within its cap.
    pub all_met: bool,
    /// The arm's unique-query bill: per-walk unique demand, summed.
    pub unique_queries: u64,
    /// Ledger units reclaimed by early stops.
    pub ledger_reclaimed: u64,
    /// Conservation held: `spent + pool == total` with no cut jobs.
    pub ledger_conserves: bool,
}

/// Everything the sweep measured.
#[derive(Clone, Debug)]
pub struct QualityResult {
    /// Both arms at the verdict shard count.
    pub arms: Vec<QualityArm>,
    /// `1 − mto_unique / srw_unique`.
    pub query_saving: f64,
    /// Whether every arm × shard count produced identical digests and
    /// quality reports.
    pub deterministic: bool,
    /// The acceptance verdict: every MTO walker hit the target, the
    /// arm ≥ 30% cheaper than SRW's equal-budget bill, determinism held.
    pub mto_fewer_queries: bool,
    /// Early stop reclaimed budget and conservation held in both arms.
    pub early_stop_releases_budget: bool,
}

/// Start nodes: the highest-degree hubs (ties by id), one per walker.
/// Real crawls start from *discoverable* accounts, and a hub start also
/// keeps the quality plane honest — a walker born inside a whisker
/// would stream a near-constant (locally-iid) degree series whose ESS
/// counts at face value until the first escape.
fn hub_starts(graph: &mto_graph::Graph, walkers: usize) -> Vec<NodeId> {
    let mut by_degree: Vec<NodeId> = graph.nodes().collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v.0));
    by_degree.truncate(walkers);
    by_degree
}

fn job_pool(config: &QualityConfig, algo: &'static str, starts: &[NodeId]) -> Vec<JobSpec> {
    (0..config.walkers)
        .map(|i| JobSpec {
            id: format!("{algo}-{i}"),
            algo: match algo {
                // The estimation-grade MTO configuration (non-lazy,
                // bounded overlay floor) — the ½ self-loop of the lazy
                // default repeats degrees back to back, which halves the
                // sample rate *and* doubles the series' autocorrelation:
                // a pure handicap against the non-lazy SRW baseline.
                "mto" => AlgoSpec::Mto(MtoConfig {
                    seed: config.seed + i as u64,
                    lazy: false,
                    ..Default::default()
                }),
                _ => AlgoSpec::Srw(SrwConfig { seed: config.seed + i as u64, lazy: false }),
            },
            start: starts[i],
            step_budget: config.step_cap,
            deadline: None,
            ess: Some(config.target_ess),
        })
        .collect()
}

fn unique_demand(report: &FleetReport) -> u64 {
    report.outcomes.iter().map(|o| o.history.iter().collect::<HashSet<_>>().len() as u64).sum()
}

/// Runs the sweep, returning measurements and a report.
pub fn run(config: &QualityConfig) -> (QualityResult, ExperimentReport) {
    // The slow-mixing regime the paper targets: a whisker-heavy,
    // community-bound Epinions variant (§II: whisker cuts dominate real
    // snapshots' conductance). SRW dwells inside each whisker — a long
    // stretch of near-constant degrees that buys almost no effective
    // samples — while MTO's removals dissolve exactly those cuts.
    // Whiskers stay *smaller* than the ESS target's batch span: a walker
    // parked inside a near-clique sees a locally-iid degree series (ESS
    // ≈ n, the single-chain blind spot), so traps larger than the
    // target would let SRW latch spuriously before ever leaving its
    // first whisker. At this size the pathology is the honest one — SRW
    // pays hundreds of trap-dwell steps per effective sample.
    let spec = DatasetSpec {
        mixing: 0.03,
        whisker_fraction: 0.95,
        circle_size: (8, 14),
        ..DatasetSpec::epinions()
    };
    let graph = build_dataset(&spec.scaled_down(config.scale));
    let service = Arc::new(OsnService::with_defaults(&graph));

    let run_arm = |jobs: &[JobSpec], shards: usize, fleet_budget: u64| -> FleetReport {
        let service = service.clone();
        FleetCoordinator::new(
            move |_| service.clone(),
            FleetConfig {
                shards,
                epoch_quantum: config.epoch_quantum,
                fleet_budget: Some(fleet_budget),
                ..Default::default()
            },
        )
        .run(jobs.to_vec())
        .expect("fleet run")
    };

    // A generous shared budget, from the cap's own admission predictions:
    // the SLO — never the ledger — is what ends jobs.
    let predictor = mto_qos::CostPredictor::new(Some(graph.num_nodes()));
    let starts = hub_starts(&graph, config.walkers);
    let arms_jobs: Vec<(&'static str, Vec<JobSpec>)> =
        vec![("mto", job_pool(config, "mto", &starts)), ("srw", job_pool(config, "srw", &starts))];
    let fleet_budget = arms_jobs
        .iter()
        .flat_map(|(_, jobs)| jobs.iter())
        .map(|j| predictor.predict_queries(j, None))
        .sum::<u64>() as f64
        * config.budget_headroom;
    let fleet_budget = fleet_budget.ceil() as u64;

    let mut arms = Vec::new();
    let mut deterministic = true;
    for (algo, jobs) in &arms_jobs {
        // Determinism sweep: identical digests and quality reports at
        // every shard count.
        let mut verdict_report = None;
        let mut reference = None;
        for &w in &config.shard_counts {
            let report = run_arm(jobs, w, fleet_budget);
            let key = (report.results_digest(), report.quality.clone());
            match &reference {
                None => reference = Some(key),
                Some(r) => deterministic &= *r == key,
            }
            if w == config.verdict_shards {
                verdict_report = Some(report);
            }
        }
        let report = verdict_report.expect("verdict_shards must be in shard_counts");
        let quality = &report.quality;
        let ledger = report.ledger.as_ref().expect("the run was budgeted");
        arms.push(QualityArm {
            algo,
            steps: report.outcomes.iter().map(|o| o.steps).collect(),
            ess: jobs.iter().map(|j| quality.jobs[&j.id].ess).collect(),
            all_met: report.outcomes.iter().all(|o| o.completed)
                && jobs.iter().all(|j| quality.jobs[&j.id].met),
            unique_queries: unique_demand(&report),
            ledger_reclaimed: ledger.reclaimed,
            ledger_conserves: ledger.cut_jobs == 0 && ledger.spent + ledger.pool == ledger.total,
        });
    }

    let (mto, srw) = (&arms[0], &arms[1]);
    let query_saving = 1.0 - mto.unique_queries as f64 / srw.unique_queries.max(1) as f64;
    // SRW is *not* required to converge: at an equal budget the baseline
    // either latches (late) or spends its whole slice — both are the
    // fair bill to hold MTO's against.
    let mto_fewer_queries = deterministic && mto.all_met && query_saving >= 0.30;
    let early_stop_releases_budget =
        arms.iter().all(|a| a.ledger_reclaimed > 0 && a.ledger_conserves);
    let result = QualityResult {
        query_saving,
        deterministic,
        mto_fewer_queries,
        early_stop_releases_budget,
        arms,
    };

    let mut report = ExperimentReport::new("quality");
    report.note(format!(
        "Epinions stand-in /{} ({} nodes); {} walkers per arm, `quality ess={}` SLO, step cap \
         {}, epoch quantum {} (the early-stop granularity), shared fleet budget {} \
         ({:.1}x predicted cap demand), W={} verdict arm.",
        config.scale,
        graph.num_nodes(),
        config.walkers,
        config.target_ess,
        config.step_cap,
        config.epoch_quantum,
        fleet_budget,
        config.budget_headroom,
        config.verdict_shards,
    ));
    let mut table = Table::new(
        "Unique queries to the target ESS, MTO vs SRW (early-stopped at epoch barriers)",
        &["arm", "steps (per walker)", "ESS at stop", "all met", "unique queries", "reclaimed"],
    );
    for arm in &result.arms {
        table.push_row(vec![
            arm.algo.to_string(),
            arm.steps.iter().map(usize::to_string).collect::<Vec<_>>().join("/"),
            arm.ess.iter().map(|e| format!("{e:.0}")).collect::<Vec<_>>().join("/"),
            u8::from(arm.all_met).to_string(),
            arm.unique_queries.to_string(),
            arm.ledger_reclaimed.to_string(),
        ]);
    }
    report.tables.push(table);
    report.note(format!(
        "MTO hits ESS {} with {} unique queries vs SRW's {} — a {:.0}% saving at equal budget.",
        config.target_ess,
        result.arms[0].unique_queries,
        result.arms[1].unique_queries,
        100.0 * result.query_saving,
    ));
    report.note(format!(
        "Results digest and quality report identical across W in {:?}: {}.",
        config.shard_counts, result.deterministic
    ));
    report.note(format!(
        "mto-fewer-queries-at-ess: {}",
        if result.mto_fewer_queries { "PASS" } else { "FAIL" }
    ));
    report.note(format!(
        "early-stop-releases-budget: {}",
        if result.early_stop_releases_budget { "PASS" } else { "FAIL" }
    ));
    report.note(format!(
        "quality-deterministic: {}",
        if result.deterministic { "PASS" } else { "FAIL" }
    ));
    (result, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mto_hits_target_ess_cheaper_than_srw_at_reduced_scale() {
        // The acceptance criterion of ISSUE 10: MTO reaches the target
        // ESS within its cap with ≥ 30% fewer unique queries than the
        // SRW baseline's equal-budget bill; early stops reclaim budget
        // with conservation intact; byte-identical results and quality
        // reports across W.
        let (result, report) = run(&QualityConfig::reduced());
        assert!(result.deterministic, "results or quality diverged across shard counts");
        let mto = &result.arms[0];
        assert!(mto.all_met, "every MTO walker must hit the target within the cap");
        assert!(
            mto.steps.iter().all(|&s| s < QualityConfig::reduced().step_cap),
            "the SLO, not the cap, must end MTO jobs ({:?})",
            mto.steps
        );
        assert!(
            result.query_saving >= 0.30,
            "MTO must save >=30% of SRW's queries (saved {:.0}%)",
            100.0 * result.query_saving
        );
        assert!(result.early_stop_releases_budget, "early stop must reclaim budget");
        assert!(result.mto_fewer_queries);
        let text = report.to_markdown();
        assert!(text.contains("mto-fewer-queries-at-ess: PASS"), "{text}");
        assert!(text.contains("early-stop-releases-budget: PASS"), "{text}");
        assert!(text.contains("quality-deterministic: PASS"), "{text}");
    }
}
