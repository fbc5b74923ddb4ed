//! `trace2gap`: join the two clocks — virtual trace vs wall plane.
//!
//! The v2 causal trace says where *virtual* time went (epochs, jobs,
//! barriers); the Prometheus wall dump says where *hardware* time went
//! (per-phase wall nanoseconds, keyed by epoch and shard). This module
//! joins them: one row per epoch with the virtual span on the left and
//! the wall attribution on the right, so "epoch 3 took 1 virtual second"
//! can finally be read next to "and 180 µs of real CPU, 60% of it
//! barrier-wait". That per-epoch gap is the comparison harness the
//! future live executor will be differentially validated against — the
//! virtual plane is the oracle, the wall plane is the measurement.
//!
//! Only the epoch structure comes from the trace; every wall figure
//! comes from the dump. Phases without an `epoch` label (pipeline
//! replay, history encode/decode, scheduler workers) land in a separate
//! `unattributed` section rather than being smeared across rows.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::critpath::{EpochState, FleetModel};
use crate::prom::PromSample;

/// Virtual microseconds per fleet epoch (the `epoch_t_us` convention of
/// the trace plane: 1 epoch = 1 virtual second).
const EPOCH_VIRTUAL_US: u64 = 1_000_000;

/// The wall-nanos family the join reads.
const WALL_NANOS: &str = "mto_wall_nanos_total";

/// Renders the per-epoch virtual-vs-wall attribution table.
///
/// The `epochs` line equals the trace model's epoch count (the same
/// figure as `metric epochs` and `makespan-epochs` — CI greps it). Each
/// epoch row shows the fixed virtual span, the steps jobs took that
/// epoch, and the wall nanoseconds attributed to it per phase (summed
/// across shards, phases in name order). Wall samples with no epoch
/// label (or an epoch the trace never ran) are listed under
/// `unattributed`.
pub fn render(model: &FleetModel, samples: &[PromSample]) -> String {
    // (epoch, phase) → nanos and phase → nanos for the unattributed set.
    let mut by_epoch: BTreeMap<usize, BTreeMap<String, u64>> = BTreeMap::new();
    let mut unattributed: BTreeMap<String, u64> = BTreeMap::new();
    let mut total_ns = 0u64;
    for s in samples {
        if s.name != WALL_NANOS {
            continue;
        }
        let phase = s.label("phase").unwrap_or("?").to_string();
        total_ns = total_ns.saturating_add(s.value);
        match s.label("epoch").and_then(|e| e.parse::<usize>().ok()) {
            Some(e) if e < model.epochs => {
                let slot = by_epoch.entry(e).or_default().entry(phase).or_insert(0);
                *slot = slot.saturating_add(s.value);
            }
            _ => {
                let slot = unattributed.entry(phase).or_insert(0);
                *slot = slot.saturating_add(s.value);
            }
        }
    }

    let mut out = String::new();
    out.push_str("# virtual-vs-wall attribution (virtual plane: trace; wall plane: prom dump)\n");
    writeln!(out, "epochs {}", model.epochs).expect("string write");
    for e in 0..model.epochs {
        let steps: u64 = model
            .jobs
            .iter()
            .map(|lane| match lane.states.get(e) {
                Some(&EpochState::Ran(n)) => n,
                _ => 0,
            })
            .sum();
        let phases = by_epoch.get(&e);
        let wall_ns: u64 = phases.map_or(0, |p| p.values().sum());
        write!(out, "epoch {e} virtual-us {EPOCH_VIRTUAL_US} steps {steps} wall-ns {wall_ns}")
            .expect("string write");
        if let Some(phases) = phases {
            for (phase, ns) in phases {
                write!(out, " {phase}={ns}").expect("string write");
            }
        }
        out.push('\n');
    }
    if !unattributed.is_empty() {
        let sum: u64 = unattributed.values().sum();
        write!(out, "unattributed wall-ns {sum}").expect("string write");
        for (phase, ns) in &unattributed {
            write!(out, " {phase}={ns}").expect("string write");
        }
        out.push('\n');
    }
    writeln!(out, "total wall-ns {total_ns}").expect("string write");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::prom;
    use crate::quality::QualityReport;
    use crate::trace::TraceSink;
    use crate::wallclock::{WallClockRegistry, WallKey, WallStats};

    /// A two-epoch fleet trace: job `a` runs both epochs, finishing at
    /// the second barrier.
    fn two_epoch_model() -> FleetModel {
        let mut sink = TraceSink::new();
        sink.enter(0, "epoch-0");
        sink.enter(0, "job-a");
        sink.exit(0, 10);
        sink.exit(0, 0);
        sink.enter(1_000_000, "epoch-1");
        sink.enter(1_000_000, "job-a");
        sink.exit(1_000_000, 7);
        sink.point(1_000_000, "finish-a", 7);
        sink.exit(1_000_000, 0);
        FleetModel::from_records(sink.events()).unwrap()
    }

    fn wall_samples() -> Vec<PromSample> {
        let mut w = WallClockRegistry::new();
        // Two shards' service in epoch 0 must sum into one row cell.
        w.record(
            WallKey::phase("shard-service").at_epoch(0).on_shard(0),
            WallStats::from_nanos(100),
        );
        w.record(
            WallKey::phase("shard-service").at_epoch(0).on_shard(1),
            WallStats::from_nanos(50),
        );
        w.record(WallKey::phase("barrier-wait").at_epoch(0).on_shard(1), WallStats::from_nanos(30));
        w.record(
            WallKey::phase("shard-service").at_epoch(1).on_shard(0),
            WallStats::from_nanos(40),
        );
        w.record(WallKey::phase("history-encode"), WallStats::from_nanos(9));
        prom::parse(&prom::render(&MetricsRegistry::new(), &QualityReport::default(), &w)).unwrap()
    }

    #[test]
    fn epoch_rows_join_virtual_steps_with_wall_phases() {
        let text = render(&two_epoch_model(), &wall_samples());
        assert!(text.contains("epochs 2\n"), "{text}");
        assert!(
            text.contains("epoch 0 virtual-us 1000000 steps 10 wall-ns 180 barrier-wait=30 shard-service=150\n"),
            "{text}"
        );
        assert!(
            text.contains("epoch 1 virtual-us 1000000 steps 7 wall-ns 40 shard-service=40\n"),
            "{text}"
        );
        assert!(text.contains("unattributed wall-ns 9 history-encode=9\n"), "{text}");
        assert!(text.contains("total wall-ns 229\n"), "{text}");
    }

    #[test]
    fn epochs_without_wall_samples_still_get_rows() {
        let text = render(&two_epoch_model(), &[]);
        assert!(text.contains("epochs 2\n"), "{text}");
        assert!(text.contains("epoch 0 virtual-us 1000000 steps 10 wall-ns 0\n"), "{text}");
        assert!(text.contains("epoch 1 virtual-us 1000000 steps 7 wall-ns 0\n"), "{text}");
        assert!(!text.contains("unattributed"), "{text}");
        assert!(text.contains("total wall-ns 0\n"), "{text}");
    }

    #[test]
    fn out_of_range_epoch_labels_fall_into_unattributed() {
        let mut w = WallClockRegistry::new();
        w.record(WallKey::phase("shard-service").at_epoch(99), WallStats::from_nanos(5));
        let samples =
            prom::parse(&prom::render(&MetricsRegistry::new(), &QualityReport::default(), &w))
                .unwrap();
        let text = render(&two_epoch_model(), &samples);
        assert!(text.contains("unattributed wall-ns 5 shard-service=5\n"), "{text}");
    }
}
