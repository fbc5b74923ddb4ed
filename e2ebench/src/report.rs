//! Parsing `mto_serve run` reports and checking them.
//!
//! The check compares parsed fields, not bytes: each job's result fields
//! and every `metric` line must equal a reference run of the same request
//! at one thread, and the report must keep the invariants every run owes
//! (ledger conservation, no merge conflicts, no trace underflows, the
//! step count the jobs add up to, every job admitted and completed).
//! Fields that legitimately vary with the thread count — `finished-at`,
//! `timing` and `epoch` lines, `total-unique-queries`, `gossip-saved` —
//! stay out of the comparison.

use std::collections::BTreeMap;

/// One `job` line.
#[derive(Clone, Debug, PartialEq)]
pub struct JobLine {
    /// Job id.
    pub id: String,
    /// Steps taken.
    pub steps: u64,
    /// `completed=1`.
    pub completed: bool,
    /// `final=` node.
    pub final_node: String,
    /// `visits=` count.
    pub visits: u64,
    /// `est-avg-degree=`, as printed (absent for jobs that never ran).
    pub est_avg_degree: Option<String>,
    /// `quality-met=`, for jobs with an ESS SLO.
    pub quality_met: Option<bool>,
}

/// The `ledger total= spent= pool= cut-jobs=` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ledger {
    /// Fleet budget.
    pub total: u64,
    /// Spent by jobs.
    pub spent: u64,
    /// Left in the pool.
    pub pool: u64,
}

/// A parsed report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Job lines in report order.
    pub jobs: Vec<JobLine>,
    /// `metric NAME VALUE` lines, in order.
    pub metrics: Vec<(String, String)>,
    /// `timing NAME VALUE` lines.
    pub timing: BTreeMap<String, String>,
    /// `total-unique-queries`: the bill the run paid.
    pub total_unique_queries: u64,
    /// `merge-conflicts` (fleet reports).
    pub merge_conflicts: Option<u64>,
    /// `gossip-saved` (fleet reports).
    pub gossip_saved: Option<u64>,
    /// `ledger` line (budgeted fleet reports).
    pub ledger: Option<Ledger>,
    /// `ledger-rebalance reclaimed=`.
    pub ledger_reclaimed: Option<u64>,
    /// `rate-limit-stalls=` of the fleet's `provider` line.
    pub rate_limit_stalls: Option<u64>,
    /// `aggregate-rewiring replacements=`.
    pub rewire_replacements: u64,
    /// Jobs whose admission verdict kept them from running.
    pub not_admitted: Vec<String>,
}

impl Report {
    /// Parses a report body.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        let mut saw_total = false;
        for line in text.lines() {
            let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
            match keyword {
                "job" => report.jobs.push(parse_job(rest).map_err(|e| format!("{e} in {line:?}"))?),
                "metric" => {
                    let (name, value) =
                        rest.split_once(' ').ok_or_else(|| format!("bad metric line {line:?}"))?;
                    report.metrics.push((name.to_string(), value.to_string()));
                }
                "timing" => {
                    let (name, value) =
                        rest.split_once(' ').ok_or_else(|| format!("bad timing line {line:?}"))?;
                    report.timing.insert(name.to_string(), value.to_string());
                }
                "total-unique-queries" => {
                    report.total_unique_queries = number(rest)?;
                    saw_total = true;
                }
                "merge-conflicts" => report.merge_conflicts = Some(number(rest)?),
                "gossip-saved" => report.gossip_saved = Some(number(rest)?),
                "ledger" => {
                    let f = fields(rest);
                    report.ledger = Some(Ledger {
                        total: field(&f, "total")?,
                        spent: field(&f, "spent")?,
                        pool: field(&f, "pool")?,
                    });
                }
                "ledger-rebalance" => {
                    report.ledger_reclaimed = Some(field(&fields(rest), "reclaimed")?);
                }
                "provider" => {
                    let f = fields(rest);
                    if f.contains_key("rate-limit-stalls") {
                        report.rate_limit_stalls = Some(field(&f, "rate-limit-stalls")?);
                    }
                }
                "aggregate-rewiring" => {
                    report.rewire_replacements = field(&fields(rest), "replacements")?;
                }
                "admission" => {
                    let f = fields(rest);
                    let verdict = f.get("verdict").copied().unwrap_or("");
                    if verdict != "admit" && verdict != "at-risk" {
                        report.not_admitted.push(f.get("job").copied().unwrap_or("?").to_string());
                    }
                }
                _ => {}
            }
        }
        if !saw_total {
            return Err("report has no total-unique-queries line".into());
        }
        if report.jobs.is_empty() {
            return Err("report has no job lines".into());
        }
        Ok(report)
    }

    /// The value of `metric name`, as a number.
    pub fn metric(&self, name: &str) -> Result<f64, String> {
        let value = self
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("report has no `metric {name}` line"))?;
        value.parse().map_err(|e| format!("metric {name} {value:?}: {e}"))
    }

    /// The value of `timing name`, as a number (0 when absent: the
    /// single-client report has no timing plane).
    pub fn timing_or_zero(&self, name: &str) -> Result<f64, String> {
        match self.timing.get(name) {
            Some(v) => v.parse().map_err(|e| format!("timing {name} {v:?}: {e}")),
            None => Ok(0.0),
        }
    }

    /// Total ESS over the jobs: the sum of `metric quality-<job>-ess-mil`
    /// divided by 1000.
    pub fn total_ess(&self) -> Result<f64, String> {
        let mut mil = 0.0;
        for job in &self.jobs {
            mil += self.metric(&format!("quality-{}-ess-mil", job.id))?;
        }
        Ok(mil / 1000.0)
    }

    /// Steps the jobs took, summed.
    pub fn steps(&self) -> u64 {
        self.jobs.iter().map(|j| j.steps).sum()
    }

    /// The fields the reference comparison covers, one line each.
    pub fn fingerprint(&self) -> Vec<String> {
        let jobs = self.jobs.iter().map(|j| {
            format!(
                "job {} steps={} completed={} final={} visits={} est-avg-degree={}",
                j.id,
                j.steps,
                u8::from(j.completed),
                j.final_node,
                j.visits,
                j.est_avg_degree.as_deref().unwrap_or("-")
            )
        });
        let metrics = self.metrics.iter().map(|(n, v)| format!("metric {n} {v}"));
        jobs.chain(metrics).collect()
    }
}

/// What a request obliges its report to contain.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    /// A fleet report, which carries `merge-conflicts`.
    pub fleet: bool,
    /// A budgeted request, whose report carries the ledger.
    pub budgeted: bool,
}

/// Checks `report` against the invariants every run owes and, when
/// given, against the `reference` fingerprint.
pub fn check(report: &Report, expect: Expect, reference: Option<&[String]>) -> Result<(), String> {
    if let Some(reference) = reference {
        let got = report.fingerprint();
        if got != reference {
            let diff = got
                .iter()
                .zip(reference)
                .find(|(g, r)| g != r)
                .map(|(g, r)| format!("got {g:?}, reference {r:?}"))
                .unwrap_or_else(|| {
                    format!("{} compared lines, reference has {}", got.len(), reference.len())
                });
            return Err(format!("differs from the one-thread reference: {diff}"));
        }
    }
    if report.metric("trace-underflows")? != 0.0 {
        return Err("trace-underflows is not 0".into());
    }
    let walk_steps = report.metric("walk-steps")?;
    if walk_steps != report.steps() as f64 {
        return Err(format!(
            "metric walk-steps {walk_steps} but the job lines add up to {}",
            report.steps()
        ));
    }
    if expect.fleet {
        match report.merge_conflicts {
            Some(0) => {}
            Some(n) => return Err(format!("merge-conflicts {n}")),
            None => return Err("fleet report has no merge-conflicts line".into()),
        }
    }
    if expect.budgeted {
        let ledger = report.ledger.ok_or("budgeted report has no ledger line")?;
        if ledger.spent.checked_add(ledger.pool) != Some(ledger.total) {
            return Err(format!(
                "ledger does not conserve: spent {} + pool {} != total {}",
                ledger.spent, ledger.pool, ledger.total
            ));
        }
    }
    if !report.not_admitted.is_empty() {
        return Err(format!("jobs not admitted: {}", report.not_admitted.join(", ")));
    }
    if let Some(job) = report.jobs.iter().find(|j| !j.completed) {
        return Err(format!("admitted job {} did not complete", job.id));
    }
    Ok(())
}

fn parse_job(rest: &str) -> Result<JobLine, String> {
    let mut tokens = rest.split(' ');
    let id = tokens.next().ok_or("job line has no id")?.to_string();
    let f = fields(rest);
    Ok(JobLine {
        id,
        steps: field(&f, "steps")?,
        completed: field::<u8>(&f, "completed")? == 1,
        final_node: f.get("final").ok_or("job line has no final=")?.to_string(),
        visits: field(&f, "visits")?,
        est_avg_degree: f.get("est-avg-degree").map(|v| v.to_string()),
        quality_met: f.get("quality-met").map(|v| *v == "1"),
    })
}

fn fields(rest: &str) -> BTreeMap<&str, &str> {
    rest.split(' ').filter_map(|t| t.split_once('=')).collect()
}

fn field<T: std::str::FromStr>(fields: &BTreeMap<&str, &str>, key: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = fields.get(key).ok_or_else(|| format!("missing {key}="))?;
    v.parse().map_err(|e| format!("bad {key}={v}: {e}"))
}

fn number(text: &str) -> Result<u64, String> {
    text.trim().parse().map_err(|e| format!("bad number {text:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A budgeted fleet report as `mto_serve run` prints it (trimmed to
    /// two jobs).
    const FLEET: &str = "\
# mto-serve results (fleet)
network gnp n=5000 p=0.002 seed=31
fleet shards=2 epochs=14 quantum=150
jobs 2
total-unique-queries 2719
gossip-saved 2689
merge-conflicts 0
makespan-secs 1035.290
provider facebook ramp-ups=0 ramp-downs=0 latency-backoffs=0 rate-limit-stalls=1468
ledger total=6000 spent=2473 pool=3527 cut-jobs=0
ledger-rebalance reclaimed=3527 granted=0
aggregate-rewiring removals=0 replacements=2 rejections=0
epoch 0 unique=677 adopted=667 conflicts=0 makespan-secs=2.150
job m0 algo=MTO steps=1650 completed=1 final=4649 visits=1651 est-avg-degree=9.9449 removals=0 replacements=0 finished-at=1035.290 deadline=60.000 deadline-met=0 quality-met=1
job s0 algo=SRW steps=600 completed=1 final=1335 visits=601 est-avg-degree=9.7924 finished-at=237.318 deadline=100.000 deadline-met=0 quality-met=1
# metrics (shard-invariant)
metric walk-steps 2250
metric trace-underflows 0
metric quality-m0-ess-mil 311438
metric quality-s0-ess-mil 490303
# timing (varies with shard count)
timing pipeline-completions 2715
";

    const FLEET_EXPECT: Expect = Expect { fleet: true, budgeted: true };

    fn reference() -> Vec<String> {
        Report::parse(FLEET).unwrap().fingerprint()
    }

    fn check_text(text: &str) -> Result<(), String> {
        check(&Report::parse(text)?, FLEET_EXPECT, Some(&reference()))
    }

    #[test]
    fn the_genuine_report_passes_and_parses() {
        check_text(FLEET).unwrap();
        let r = Report::parse(FLEET).unwrap();
        assert_eq!(r.total_unique_queries, 2719);
        assert_eq!(r.rate_limit_stalls, Some(1468));
        assert_eq!(r.ledger_reclaimed, Some(3527));
        assert_eq!(r.rewire_replacements, 2);
        assert_eq!(r.jobs[0].quality_met, Some(true));
        assert!((r.total_ess().unwrap() - 801.741).abs() < 1e-9);
    }

    #[test]
    fn fields_that_vary_with_width_are_not_compared() {
        let shifted = FLEET
            .replace("total-unique-queries 2719", "total-unique-queries 2704")
            .replace("gossip-saved 2689", "gossip-saved 0")
            .replace("finished-at=237.318", "finished-at=411.000")
            .replace("epoch 0 unique=677", "epoch 0 unique=700")
            .replace("timing pipeline-completions 2715", "timing pipeline-completions 2700");
        check_text(&shifted).unwrap();
    }

    #[test]
    fn a_changed_final_node_is_rejected() {
        let doctored = FLEET.replace("final=4649", "final=4650");
        let err = check_text(&doctored).unwrap_err();
        assert!(err.contains("final=4650"), "{err}");
    }

    #[test]
    fn a_changed_metric_line_is_rejected() {
        let doctored = FLEET.replace("quality-s0-ess-mil 490303", "quality-s0-ess-mil 490304");
        assert!(check_text(&doctored).unwrap_err().contains("quality-s0-ess-mil"));
    }

    #[test]
    fn broken_ledger_conservation_is_rejected() {
        let doctored = FLEET.replace("pool=3527", "pool=3526");
        let err = check_text(&doctored).unwrap_err();
        assert!(err.contains("does not conserve"), "{err}");
        let missing = FLEET.replace("ledger total=6000 spent=2473 pool=3527 cut-jobs=0\n", "");
        assert!(check_text(&missing).unwrap_err().contains("no ledger line"));
    }

    #[test]
    fn merge_conflicts_are_rejected() {
        let doctored = FLEET.replace("merge-conflicts 0", "merge-conflicts 3");
        assert_eq!(check_text(&doctored).unwrap_err(), "merge-conflicts 3");
        let missing = FLEET.replace("merge-conflicts 0\n", "");
        assert!(check_text(&missing).unwrap_err().contains("no merge-conflicts line"));
    }

    #[test]
    fn broken_invariants_are_rejected_even_without_a_reference() {
        let underflow = FLEET.replace("trace-underflows 0", "trace-underflows 1");
        let r = Report::parse(&underflow).unwrap();
        assert!(check(&r, FLEET_EXPECT, None).unwrap_err().contains("trace-underflows"));

        let steps = FLEET.replace("metric walk-steps 2250", "metric walk-steps 2251");
        let r = Report::parse(&steps).unwrap();
        assert!(check(&r, FLEET_EXPECT, None).unwrap_err().contains("walk-steps"));

        let deferred = FLEET.replace(
            "aggregate-rewiring",
            "admission job=s1 verdict=defer predicted-queries=1501 predicted-secs=1501.000 # \
             budget\naggregate-rewiring",
        );
        let r = Report::parse(&deferred).unwrap();
        assert!(check(&r, FLEET_EXPECT, None).unwrap_err().contains("not admitted: s1"));

        let incomplete = FLEET.replace("steps=600 completed=1", "steps=600 completed=0");
        let r = Report::parse(&incomplete).unwrap();
        assert!(check(&r, FLEET_EXPECT, None).unwrap_err().contains("did not complete"));
    }

    #[test]
    fn an_at_risk_admission_still_counts_as_admitted() {
        let at_risk = FLEET.replace(
            "aggregate-rewiring",
            "admission job=m0 verdict=at-risk predicted-queries=2101 predicted-secs=2101.000 # \
             late\naggregate-rewiring",
        );
        check_text(&at_risk).unwrap();
    }
}
