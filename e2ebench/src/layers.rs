//! Per-layer wall figures read from a run's `prom` snapshot.
//!
//! The snapshot's `mto_wall_nanos_total{phase=…}` samples carry epoch and
//! shard (or worker) labels. Figures are reduced to the request's
//! critical path: serial phases (gossip merge, barrier wait, history
//! codec) are summed; parallel ones take the slowest thread — per epoch
//! for shard service, over the whole run for scheduler workers and shard
//! pipelines.

use std::collections::BTreeMap;

use mto_obs::prom;

/// Wall figures of one traced run, in seconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WallPhases {
    /// `gossip-merge`, summed over epochs.
    pub gossip_merge: f64,
    /// `barrier-wait`, summed over epochs.
    pub barrier_wait: f64,
    /// `shard-service`: per epoch the slowest shard, summed.
    pub shard_service: f64,
    /// `pipeline-replay`: the slowest shard.
    pub pipeline_replay: f64,
    /// `worker-service`: the slowest scheduler worker.
    pub worker_service: f64,
    /// `history-decode`.
    pub history_decode: f64,
    /// `history-encode`.
    pub history_encode: f64,
    /// Last epoch's `gossip-merge` over the first epoch's (0 without
    /// gossip).
    pub gossip_merge_growth: f64,
    /// `mto_counter_total{name="walk-steps"}`, for cross-checking the
    /// snapshot against the report.
    pub walk_steps: Option<u64>,
}

/// One phase's wall nanoseconds by `(epoch, shard)` label.
type Cells = BTreeMap<(Option<u64>, Option<u64>), u64>;

/// Reads the wall phases out of a `prom` snapshot. Every phase in
/// `expected` must be present with at least one observation: a missing
/// phase is an error, never a silent 0. Phases outside `expected` read 0
/// when absent.
pub fn wall_phases(snapshot: &str, expected: &[&str]) -> Result<WallPhases, String> {
    let samples = prom::parse(snapshot).map_err(|e| format!("prom snapshot: {e}"))?;
    let mut by_phase: BTreeMap<&str, Cells> = BTreeMap::new();
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut walk_steps = None;
    for s in &samples {
        let label = |key| -> Result<Option<u64>, String> {
            s.label(key)
                .map(|v| v.parse().map_err(|e| format!("bad {key} label {v:?}: {e}")))
                .transpose()
        };
        match s.name.as_str() {
            "mto_wall_nanos_total" => {
                let phase = s.label("phase").ok_or("wall sample without a phase label")?;
                let key = (label("epoch")?, label("shard")?);
                *by_phase.entry(phase).or_default().entry(key).or_default() += s.value;
            }
            "mto_wall_count_total" => {
                let phase = s.label("phase").ok_or("wall sample without a phase label")?;
                *counts.entry(phase).or_default() += s.value;
            }
            "mto_counter_total" if s.label("name") == Some("walk-steps") => {
                walk_steps = Some(s.value);
            }
            _ => {}
        }
    }
    for phase in expected {
        if counts.get(phase).copied().unwrap_or(0) == 0 {
            return Err(format!("prom snapshot lacks the expected `{phase}` wall phase"));
        }
    }

    let secs = |nanos: u64| nanos as f64 / 1e9;
    let empty = BTreeMap::new();
    let phase = |name: &str| by_phase.get(name).unwrap_or(&empty);
    let sum = |name: &str| secs(phase(name).values().sum());
    let slowest = |name: &str| secs(phase(name).values().copied().max().unwrap_or(0));

    let mut per_epoch: BTreeMap<Option<u64>, u64> = BTreeMap::new();
    for (&(epoch, _), &nanos) in phase("shard-service") {
        let slot = per_epoch.entry(epoch).or_default();
        *slot = (*slot).max(nanos);
    }
    let merges = phase("gossip-merge");
    let gossip_merge_growth = match (merges.values().next(), merges.values().next_back()) {
        (Some(&first), Some(&last)) if merges.len() > 1 && first > 0 => last as f64 / first as f64,
        _ => 0.0,
    };
    // Epoch keys sort numerically (they are parsed), so first/last above
    // are epoch 0 and the final epoch.
    Ok(WallPhases {
        gossip_merge: sum("gossip-merge"),
        barrier_wait: sum("barrier-wait"),
        shard_service: secs(per_epoch.values().sum()),
        pipeline_replay: slowest("pipeline-replay"),
        worker_service: slowest("worker-service"),
        history_decode: sum("history-decode"),
        history_encode: sum("history-encode"),
        gossip_merge_growth,
        walk_steps,
    })
}

/// The event count in a `mto-trace/v2` file's header.
pub fn trace_events(trace: &str) -> Result<u64, String> {
    trace
        .lines()
        .find_map(|l| l.strip_prefix("events "))
        .ok_or("trace has no `events` header")?
        .trim()
        .parse()
        .map_err(|e| format!("bad trace event count: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLEET_PHASES: [&str; 4] =
        ["gossip-merge", "shard-service", "barrier-wait", "pipeline-replay"];
    const SCHEDULER_PHASES: [&str; 3] = ["worker-service", "history-decode", "history-encode"];

    /// A wall-plane snapshot in the shape `prom::render` writes, with
    /// every phase either execution path records.
    fn snapshot() -> String {
        let mut out = String::from(
            "# HELP mto_counter_total Deterministic counters.\n\
             # TYPE mto_counter_total counter\n\
             mto_counter_total{name=\"walk-steps\"} 32000\n",
        );
        let rows: [(&str, &str, u64); 11] = [
            ("barrier-wait", "epoch=\"0\"", 100),
            ("barrier-wait", "epoch=\"1\"", 300),
            ("gossip-merge", "epoch=\"0\"", 1_000),
            ("gossip-merge", "epoch=\"1\"", 2_000),
            ("gossip-merge", "epoch=\"10\"", 5_000),
            ("history-decode", "", 70),
            ("history-encode", "", 90),
            ("pipeline-replay", "shard=\"0\"", 400),
            ("pipeline-replay", "shard=\"1\"", 600),
            ("shard-service", "epoch=\"0\",shard=\"0\"", 10),
            ("worker-service", "shard=\"1\"", 800),
        ];
        for (family, value) in [("mto_wall_nanos_total", None), ("mto_wall_count_total", Some(1))] {
            for (phase, labels, nanos) in rows {
                let labels = if labels.is_empty() { String::new() } else { format!(",{labels}") };
                out.push_str(&format!(
                    "{family}{{phase=\"{phase}\"{labels}}} {}\n",
                    value.unwrap_or(nanos)
                ));
            }
        }
        out.push_str("mto_wall_nanos_total{phase=\"shard-service\",epoch=\"0\",shard=\"1\"} 30\n");
        out.push_str("mto_wall_nanos_total{phase=\"shard-service\",epoch=\"1\",shard=\"0\"} 20\n");
        out
    }

    #[test]
    fn phases_reduce_to_the_critical_path() {
        let p = wall_phases(&snapshot(), &FLEET_PHASES).unwrap();
        assert_eq!(p.gossip_merge, 8_000e-9);
        assert_eq!(p.barrier_wait, 400e-9);
        assert_eq!(p.shard_service, 50e-9, "per-epoch slowest shard, summed");
        assert_eq!(p.pipeline_replay, 600e-9);
        assert_eq!(p.worker_service, 800e-9);
        assert_eq!(p.history_decode, 70e-9);
        assert_eq!(p.history_encode, 90e-9);
        assert_eq!(p.gossip_merge_growth, 5.0, "epoch 10 over epoch 0, not lexical order");
        assert_eq!(p.walk_steps, Some(32000));
    }

    #[test]
    fn every_missing_expected_phase_fails_loudly() {
        for phase in FLEET_PHASES.iter().chain(&SCHEDULER_PHASES) {
            let stripped: String = snapshot()
                .lines()
                .filter(|l| !l.contains(&format!("phase=\"{phase}\"")))
                .map(|l| format!("{l}\n"))
                .collect();
            for expected in [&FLEET_PHASES[..], &SCHEDULER_PHASES[..]] {
                let result = wall_phases(&stripped, expected);
                if expected.contains(phase) {
                    let err = result.unwrap_err();
                    assert!(err.contains(&format!("`{phase}`")), "{err}");
                } else {
                    result.unwrap();
                }
            }
        }
    }

    #[test]
    fn a_phase_with_no_observations_counts_as_missing() {
        let zeroed = snapshot().replace(
            "mto_wall_count_total{phase=\"history-decode\"} 1",
            "mto_wall_count_total{phase=\"history-decode\"} 0",
        );
        let err = wall_phases(&zeroed, &SCHEDULER_PHASES).unwrap_err();
        assert!(err.contains("`history-decode`"), "{err}");
    }

    #[test]
    fn absent_unexpected_phases_read_zero() {
        let p = wall_phases("mto_wall_nanos_total{phase=\"worker-service\",shard=\"0\"} 5\n", &[])
            .unwrap();
        assert_eq!(p.gossip_merge, 0.0);
        assert_eq!(p.gossip_merge_growth, 0.0);
        assert_eq!(p.worker_service, 5e-9);
    }

    #[test]
    fn trace_event_count_comes_from_the_header() {
        assert_eq!(trace_events("mto-trace v2\nevents 3524\npoint 0 0 0 x 1\n").unwrap(), 3524);
        assert!(trace_events("mto-trace v2\n").is_err());
    }
}
