//! Deterministic observability for the MTO serving stack.
//!
//! Every layer above this crate answers "where did the query bill and the
//! virtual time go?" through two primitives, both engineered so that the
//! repo's bit-identical determinism contract extends to the telemetry
//! itself:
//!
//! * [`MetricsRegistry`] — hand-rolled counters, gauges, and fixed
//!   log-bucket [`Histogram`]s whose p50/p90/p99 summaries are *exact
//!   integers* derived from bucket bounds (no floating-point
//!   interpolation, so a summary is a pure function of the recorded
//!   multiset). Per-shard registries [`MetricsRegistry::merge`] at fleet
//!   epoch barriers exactly like `HistoryStore` gossip: merging is
//!   associative and commutative, so the folded registry is invariant
//!   under merge order.
//! * [`TraceSink`] — a structured span/point/gossip event recorder
//!   stamped with **virtual** time and submission order only, never
//!   wall-clock, carrying causal structure (stable span ids, parent
//!   links, cross-job gossip edges). Serialized through the
//!   FNV-checksummed [`codec`] (`mto-trace/v2`, the same line-oriented
//!   style as the history codec).
//!
//! On top of the recorder sits the **analysis layer**, all of it a pure
//! function of decoded records: [`flame::fold`] (collapsed flamegraph
//! stacks), [`critpath`] (the longest virtual-time dependency chain
//! bounding the fleet's makespan, attributed per job and phase),
//! [`timeline`] (fixed-width ASCII epoch lanes), [`diff`] (first
//! divergent event with causal context, for the determinism witnesses),
//! and [`baseline`] (the committed `OBS_BASELINE.json` gate pinning
//! shard-invariant `metric` figures). Each ships as a binary —
//! `trace2flame`, `trace2critpath`, `trace2timeline`, `trace2diff`,
//! `obs_baseline` — on the shared [`cli`] shell.
//!
//! The third deterministic surface is the **estimator-quality plane**
//! ([`quality`]): streaming convergence diagnostics (batch-means ESS,
//! windowed Geweke, cross-chain R-hat) over each job's sample series,
//! accumulated in exact integer moments so per-shard states fold at
//! fleet epoch barriers exactly like history gossip. Its figures ride
//! ordinary v2 point events and `metric quality-*` lines, and [`mix`]
//! (binary: `trace2mix`) renders per-job convergence trajectories and
//! burn-in attribution from a traced run.
//!
//! Beside the deterministic plane sits the **wall-clock plane**
//! ([`wallclock`]): real-time telemetry — per-phase wall
//! nanoseconds, barrier-wait time, and (behind the `wall-alloc`
//! feature) allocation accounting — kept in a separate
//! [`WallClockRegistry`] that is excluded from digests, traces, and
//! `metric` lines by construction. Both planes export through the
//! Prometheus text exposition ([`prom`]), and [`gap`] (binary:
//! `trace2gap`) joins a v2 trace with a wall dump into a per-epoch
//! virtual-vs-wall attribution table.
//!
//! This crate sits below `mto-osn` in the workspace DAG and depends on
//! nothing internal: timestamps are plain `u64` microseconds supplied by
//! callers (the serving layers own the virtual clocks).

pub mod baseline;
pub mod cli;
pub mod codec;
pub mod critpath;
pub mod diff;
pub mod flame;
pub mod gap;
pub mod metrics;
pub mod mix;
pub mod prom;
pub mod quality;
pub mod timeline;
pub mod trace;
pub mod wallclock;

pub use codec::{
    decode_trace, encode_trace, render_record, TraceCodecError, TRACE_MAGIC, TRACE_VERSION,
};
pub use metrics::{percent, Histogram, MetricsRegistry};
pub use trace::{TraceRecord, TraceSink, NO_SPAN};
pub use wallclock::{WallClockRegistry, WallClockScope, WallKey, WallStats};

/// FNV-1a 64-bit hash — the integrity primitive of the trace codec,
/// identical to the history codec's (the constant pair is the standard
/// FNV offset basis and prime).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
