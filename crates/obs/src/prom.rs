//! Prometheus text exposition of both telemetry planes.
//!
//! One snapshot document carries the deterministic
//! [`MetricsRegistry`] figures *and* the wall-plane
//! [`WallClockRegistry`] figures, in the standard
//! `# HELP` / `# TYPE` / `family{labels} value` text format, so any
//! Prometheus-compatible scraper (or the `trace2gap` joiner) can read
//! the simulator's two clocks side by side. The renderer walks
//! `BTreeMap`s only, so the emitted bytes are a pure function of the
//! recorded state — independent of metric registration order — and the
//! deterministic families are byte-identical across shard counts
//! whenever the underlying registry is.
//!
//! Families:
//!
//! * `mto_counter_total{name="…"}` / `mto_gauge{name="…"}` — registry
//!   counters and high-water gauges;
//! * `mto_hist_bucket{name="…",le="…"}` (+ `_sum`, `_count`) — the
//!   log-2-bucket histograms, with cumulative `le` bounds taken from
//!   the fixed bucket bounds and a closing `le="+Inf"` sample;
//! * `mto_anomaly_total{kind="…"}` — the anomaly counters
//!   (`trace-underflows`, `merge-conflicts`) that `metric` lines
//!   already carry, always emitted (at 0 when clean) so an alert on
//!   the family never silently loses its series;
//! * `mto_quality_*{job="…"}` — the estimator-quality plane: samples,
//!   ESS and Geweke z in milli-units, the cross-chain
//!   `mto_quality_rhat_milli`, and target/met for jobs with a
//!   `quality ess=N` SLO;
//! * `mto_wall_nanos_total` / `mto_wall_count_total` /
//!   `mto_wall_allocs_total` / `mto_wall_alloc_bytes_total`, labelled
//!   `phase="…"` plus `epoch="…"`/`shard="…"` when attributed — the
//!   wall plane. These are the only families whose values are allowed
//!   to differ run to run.
//!
//! The module also ships a minimal parser for exactly the subset the
//! renderer emits (integer values, quoted escaped labels), shared by
//! the round-trip tests and `trace2gap`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{Histogram, MetricsRegistry};
use crate::quality::{scale_milli, QualityReport};
use crate::wallclock::WallClockRegistry;

/// The anomaly counters every exposition names explicitly, mirroring
/// the `metric` lines: a scrape target alerting on `mto_anomaly_total`
/// must see the series at 0 when the run is clean, not an absent
/// family.
const ANOMALY_KINDS: [&str; 2] = ["trace-underflows", "merge-conflicts"];

/// Renders one snapshot of all planes as Prometheus text exposition.
/// `metrics` is the deterministic plane, `quality` the estimator-quality
/// plane, `wall` the wall plane; an empty plane's families are simply
/// absent.
pub fn render(
    metrics: &MetricsRegistry,
    quality: &QualityReport,
    wall: &WallClockRegistry,
) -> String {
    let mut out = String::new();
    render_counters(&mut out, metrics);
    render_gauges(&mut out, metrics);
    render_histograms(&mut out, metrics);
    render_anomalies(&mut out, metrics);
    if !quality.jobs.is_empty() {
        render_quality(&mut out, quality);
    }
    render_wall(&mut out, wall);
    out
}

fn render_counters(out: &mut String, registry: &MetricsRegistry) {
    let mut first = true;
    for (name, v) in registry.counters() {
        if first {
            out.push_str("# HELP mto_counter_total Deterministic-plane counters.\n");
            out.push_str("# TYPE mto_counter_total counter\n");
            first = false;
        }
        writeln!(out, "mto_counter_total{{name=\"{}\"}} {v}", escape_label(name))
            .expect("string write");
    }
}

fn render_gauges(out: &mut String, registry: &MetricsRegistry) {
    let mut first = true;
    for (name, v) in registry.gauges() {
        if first {
            out.push_str("# HELP mto_gauge Deterministic-plane high-water gauges.\n");
            out.push_str("# TYPE mto_gauge gauge\n");
            first = false;
        }
        writeln!(out, "mto_gauge{{name=\"{}\"}} {v}", escape_label(name)).expect("string write");
    }
}

fn render_histograms(out: &mut String, registry: &MetricsRegistry) {
    let mut first = true;
    for (name, h) in registry.histograms() {
        if first {
            out.push_str("# HELP mto_hist Deterministic-plane log-2-bucket histograms.\n");
            out.push_str("# TYPE mto_hist histogram\n");
            first = false;
        }
        let name = escape_label(name);
        let mut cumulative = 0u64;
        for i in 0..Histogram::num_buckets() {
            let in_bucket = h.bucket(i);
            if in_bucket == 0 {
                continue;
            }
            cumulative += in_bucket;
            writeln!(
                out,
                "mto_hist_bucket{{name=\"{name}\",le=\"{}\"}} {cumulative}",
                Histogram::bound(i)
            )
            .expect("string write");
        }
        writeln!(out, "mto_hist_bucket{{name=\"{name}\",le=\"+Inf\"}} {}", h.count())
            .expect("string write");
        writeln!(out, "mto_hist_sum{{name=\"{name}\"}} {}", h.total()).expect("string write");
        writeln!(out, "mto_hist_count{{name=\"{name}\"}} {}", h.count()).expect("string write");
    }
}

fn render_anomalies(out: &mut String, registry: &MetricsRegistry) {
    if registry.is_empty() {
        return;
    }
    out.push_str("# HELP mto_anomaly_total Anomaly counters (nonzero means something broke).\n");
    out.push_str("# TYPE mto_anomaly_total counter\n");
    for kind in ANOMALY_KINDS {
        writeln!(
            out,
            "mto_anomaly_total{{kind=\"{}\"}} {}",
            escape_label(kind),
            registry.counter(kind)
        )
        .expect("string write");
    }
}

fn render_quality(out: &mut String, quality: &QualityReport) {
    out.push_str("# HELP mto_quality_samples_total Quality-plane samples observed per job.\n");
    out.push_str("# TYPE mto_quality_samples_total counter\n");
    for (job, q) in &quality.jobs {
        writeln!(out, "mto_quality_samples_total{{job=\"{}\"}} {}", escape_label(job), q.samples)
            .expect("string write");
    }
    out.push_str("# HELP mto_quality_ess_milli Effective sample size per job (milli-units).\n");
    out.push_str("# TYPE mto_quality_ess_milli gauge\n");
    for (job, q) in &quality.jobs {
        writeln!(
            out,
            "mto_quality_ess_milli{{job=\"{}\"}} {}",
            escape_label(job),
            scale_milli(q.ess)
        )
        .expect("string write");
    }
    let with_z: Vec<_> =
        quality.jobs.iter().filter_map(|(job, q)| q.geweke_z.map(|z| (job, z))).collect();
    if !with_z.is_empty() {
        out.push_str("# HELP mto_quality_geweke_z_milli Geweke z per job (milli-units).\n");
        out.push_str("# TYPE mto_quality_geweke_z_milli gauge\n");
        for (job, z) in with_z {
            writeln!(
                out,
                "mto_quality_geweke_z_milli{{job=\"{}\"}} {}",
                escape_label(job),
                scale_milli(z)
            )
            .expect("string write");
        }
    }
    let with_slo: Vec<_> =
        quality.jobs.iter().filter_map(|(job, q)| q.target_ess.map(|t| (job, t, q.met))).collect();
    if !with_slo.is_empty() {
        out.push_str("# HELP mto_quality_target_ess Declared quality SLO (quality ess=N).\n");
        out.push_str("# TYPE mto_quality_target_ess gauge\n");
        out.push_str("# HELP mto_quality_met Whether the quality SLO is met (0/1).\n");
        out.push_str("# TYPE mto_quality_met gauge\n");
        for (job, target, met) in with_slo {
            writeln!(out, "mto_quality_target_ess{{job=\"{}\"}} {target}", escape_label(job))
                .expect("string write");
            writeln!(out, "mto_quality_met{{job=\"{}\"}} {}", escape_label(job), u8::from(met))
                .expect("string write");
        }
    }
    if let Some(rhat) = quality.rhat {
        out.push_str("# HELP mto_quality_rhat_milli Cross-chain R-hat (milli-units).\n");
        out.push_str("# TYPE mto_quality_rhat_milli gauge\n");
        writeln!(out, "mto_quality_rhat_milli {}", scale_milli(rhat)).expect("string write");
    }
}

fn render_wall(out: &mut String, wall: &WallClockRegistry) {
    if wall.is_empty() {
        return;
    }
    out.push_str(
        "# HELP mto_wall_nanos_total Wall-plane nanoseconds per phase (not deterministic).\n",
    );
    out.push_str("# TYPE mto_wall_nanos_total counter\n");
    out.push_str("# HELP mto_wall_count_total Wall-plane observations per phase.\n");
    out.push_str("# TYPE mto_wall_count_total counter\n");
    out.push_str(
        "# HELP mto_wall_allocs_total Heap allocations per phase (0 without wall-alloc).\n",
    );
    out.push_str("# TYPE mto_wall_allocs_total counter\n");
    out.push_str("# HELP mto_wall_alloc_bytes_total Heap bytes requested per phase (0 without wall-alloc).\n");
    out.push_str("# TYPE mto_wall_alloc_bytes_total counter\n");
    for (key, stats) in wall.iter() {
        let mut labels = format!("phase=\"{}\"", escape_label(key.phase));
        if let Some(e) = key.epoch {
            write!(labels, ",epoch=\"{e}\"").expect("string write");
        }
        if let Some(s) = key.shard {
            write!(labels, ",shard=\"{s}\"").expect("string write");
        }
        writeln!(out, "mto_wall_nanos_total{{{labels}}} {}", stats.nanos).expect("string write");
        writeln!(out, "mto_wall_count_total{{{labels}}} {}", stats.count).expect("string write");
        writeln!(out, "mto_wall_allocs_total{{{labels}}} {}", stats.allocs).expect("string write");
        writeln!(out, "mto_wall_alloc_bytes_total{{{labels}}} {}", stats.bytes)
            .expect("string write");
    }
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PromSample {
    /// Family name (`mto_wall_nanos_total`, …).
    pub name: String,
    /// Label set, unescaped.
    pub labels: BTreeMap<String, String>,
    /// Sample value. The renderer only emits unsigned integers, so the
    /// parser is strict about them.
    pub value: u64,
}

impl PromSample {
    /// The value of label `key`, when present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.get(key).map(String::as_str)
    }
}

/// Parses the subset of the text exposition format that [`render`]
/// emits: comment lines are skipped; every other non-blank line must be
/// `name{label="value",…} integer` (the label block optional). Returns
/// samples in document order.
pub fn parse(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples
            .push(parse_sample(line).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let name_end = line
        .find(['{', ' '])
        .ok_or_else(|| "expected a name followed by labels or a value".to_string())?;
    let name = line[..name_end].to_string();
    if name.is_empty() {
        return Err("empty family name".to_string());
    }
    let mut labels = BTreeMap::new();
    let rest = if line.as_bytes()[name_end] == b'{' {
        let mut chars = line[name_end + 1..].char_indices().peekable();
        let body_start = name_end + 1;
        let mut key = String::new();
        let mut value = String::new();
        let mut in_value = false;
        let mut in_quotes = false;
        let mut close = None;
        while let Some((i, c)) = chars.next() {
            if in_quotes {
                match c {
                    '\\' => match chars.next() {
                        Some((_, 'n')) => value.push('\n'),
                        Some((_, '\\')) => value.push('\\'),
                        Some((_, '"')) => value.push('"'),
                        other => return Err(format!("bad escape {other:?} in label value")),
                    },
                    '"' => {
                        in_quotes = false;
                        labels.insert(std::mem::take(&mut key), std::mem::take(&mut value));
                        in_value = false;
                    }
                    c => value.push(c),
                }
                continue;
            }
            match c {
                '}' => {
                    close = Some(body_start + i + 1);
                    break;
                }
                ',' => {}
                '=' => in_value = true,
                '"' if in_value => in_quotes = true,
                c if !in_value => key.push(c),
                c => return Err(format!("unexpected {c:?} in label block")),
            }
        }
        let close = close.ok_or_else(|| "unterminated label block".to_string())?;
        &line[close..]
    } else {
        &line[name_end..]
    };
    let value = rest.trim();
    let value: u64 = value.parse().map_err(|e| format!("bad sample value {value:?}: {e}"))?;
    Ok(PromSample { name, labels, value })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wallclock::{WallKey, WallStats};

    fn sample_planes() -> (MetricsRegistry, WallClockRegistry) {
        let mut m = MetricsRegistry::new();
        m.inc("walk-steps", 1100);
        m.inc("unique-queries", 195);
        m.gauge_max("max-scan-len", 31);
        m.observe("queue-wait-us", 0);
        m.observe("queue-wait-us", 3);
        m.observe("queue-wait-us", 900);
        let mut w = WallClockRegistry::new();
        w.record(
            WallKey::phase("shard-service").at_epoch(0).on_shard(1),
            WallStats { count: 1, nanos: 12345, allocs: 7, bytes: 512 },
        );
        w.record(WallKey::phase("gossip-merge").at_epoch(0), WallStats::from_nanos(999));
        (m, w)
    }

    #[test]
    fn round_trip_parses_every_emitted_sample() {
        let (m, w) = sample_planes();
        let text = render(&m, &QualityReport::default(), &w);
        let samples = parse(&text).unwrap();

        let find = |name: &str, label: (&str, &str)| {
            samples
                .iter()
                .find(|s| s.name == name && s.label(label.0) == Some(label.1))
                .unwrap_or_else(|| panic!("missing {name} {label:?} in:\n{text}"))
        };
        assert_eq!(find("mto_counter_total", ("name", "walk-steps")).value, 1100);
        assert_eq!(find("mto_counter_total", ("name", "unique-queries")).value, 195);
        assert_eq!(find("mto_gauge", ("name", "max-scan-len")).value, 31);
        assert_eq!(find("mto_hist_count", ("name", "queue-wait-us")).value, 3);
        assert_eq!(find("mto_hist_sum", ("name", "queue-wait-us")).value, 903);
        assert_eq!(find("mto_hist_bucket", ("le", "+Inf")).value, 3);
        // 0 lands in the zero bucket (le="0"), 3 in le="3"; cumulative.
        assert_eq!(find("mto_hist_bucket", ("le", "0")).value, 1);
        assert_eq!(find("mto_hist_bucket", ("le", "3")).value, 2);

        let wall = find("mto_wall_nanos_total", ("phase", "shard-service"));
        assert_eq!(wall.value, 12345);
        assert_eq!(wall.label("epoch"), Some("0"));
        assert_eq!(wall.label("shard"), Some("1"));
        assert_eq!(find("mto_wall_allocs_total", ("phase", "shard-service")).value, 7);
        assert_eq!(find("mto_wall_alloc_bytes_total", ("phase", "shard-service")).value, 512);
        let gossip = find("mto_wall_nanos_total", ("phase", "gossip-merge"));
        assert_eq!(gossip.value, 999);
        assert_eq!(gossip.label("shard"), None, "unattributed labels are omitted");
    }

    #[test]
    fn output_is_byte_stable_under_registration_and_merge_order() {
        // Same recorded state, opposite registration orders.
        let mut a = MetricsRegistry::new();
        a.inc("zeta", 1);
        a.inc("alpha", 2);
        a.gauge_max("g2", 5);
        a.gauge_max("g1", 9);
        a.observe("h", 42);
        let mut b = MetricsRegistry::new();
        b.observe("h", 42);
        b.gauge_max("g1", 9);
        b.gauge_max("g2", 5);
        b.inc("alpha", 2);
        b.inc("zeta", 1);

        let mut wa = WallClockRegistry::new();
        wa.record(WallKey::phase("p2").on_shard(1), WallStats::from_nanos(10));
        wa.record(WallKey::phase("p1"), WallStats::from_nanos(20));
        let mut wb = WallClockRegistry::new();
        wb.record(WallKey::phase("p1"), WallStats::from_nanos(20));
        wb.record(WallKey::phase("p2").on_shard(1), WallStats::from_nanos(10));

        assert_eq!(
            render(&a, &QualityReport::default(), &wa),
            render(&b, &QualityReport::default(), &wb)
        );

        // Merge order cannot move bytes either (the fleet folds shard
        // registries in grant order; the exposition must not care).
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(
            render(&ab, &QualityReport::default(), &wa),
            render(&ba, &QualityReport::default(), &wa)
        );
    }

    #[test]
    fn label_values_escape_and_unescape() {
        let mut w = WallClockRegistry::new();
        w.record(WallKey::phase("odd \"phase\"\\with\nnewline"), WallStats::from_nanos(1));
        let text = render(&MetricsRegistry::new(), &QualityReport::default(), &w);
        assert!(
            text.contains(r#"phase="odd \"phase\"\\with\nnewline""#),
            "escaped exposition:\n{text}"
        );
        let samples = parse(&text).unwrap();
        assert_eq!(samples[0].label("phase"), Some("odd \"phase\"\\with\nnewline"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("mto_counter_total{name=\"x\"} not-a-number").is_err());
        assert!(parse("mto_counter_total{name=\"x\" 3").is_err(), "unterminated label block");
        assert!(parse("{name=\"x\"} 3").is_err(), "empty family name");
        assert!(parse("# just a comment\n\n").unwrap().is_empty());
        let plain = parse("up 1").unwrap();
        assert_eq!(plain[0].name, "up");
        assert!(plain[0].labels.is_empty());
    }

    #[test]
    fn anomaly_family_carries_what_metric_lines_carry() {
        let (m, w) = sample_planes();
        let text = render(&m, &QualityReport::default(), &w);
        let samples = parse(&text).unwrap();
        let kind = |k: &str| {
            samples
                .iter()
                .find(|s| s.name == "mto_anomaly_total" && s.label("kind") == Some(k))
                .unwrap_or_else(|| panic!("missing anomaly kind {k} in:\n{text}"))
                .value
        };
        // A clean run still exposes both series, at zero.
        assert_eq!(kind("trace-underflows"), 0);
        assert_eq!(kind("merge-conflicts"), 0);

        let mut dirty = m.clone();
        dirty.inc("trace-underflows", 2);
        dirty.inc("merge-conflicts", 5);
        let text = render(&dirty, &QualityReport::default(), &w);
        let samples = parse(&text).unwrap();
        let dirty_kind = |k: &str| {
            samples
                .iter()
                .find(|s| s.name == "mto_anomaly_total" && s.label("kind") == Some(k))
                .unwrap()
                .value
        };
        assert_eq!(dirty_kind("trace-underflows"), 2);
        assert_eq!(dirty_kind("merge-conflicts"), 5);
    }

    #[test]
    fn quality_families_round_trip() {
        use crate::quality::QualityAccumulator;
        let mut acc = QualityAccumulator::new();
        acc.register("a", Some(50));
        acc.register("b", None);
        let mut state = 3u64;
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            acc.observe("a", &[(state >> 33) % 40]);
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            acc.observe("b", &[(state >> 33) % 40]);
        }
        let report = acc.report();
        let text = render(&MetricsRegistry::new(), &report, &WallClockRegistry::new());
        let samples = parse(&text).unwrap();
        let find = |name: &str, job: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.label("job") == Some(job))
                .unwrap_or_else(|| panic!("missing {name} job={job} in:\n{text}"))
                .value
        };
        assert_eq!(find("mto_quality_samples_total", "a"), 300);
        assert_eq!(
            find("mto_quality_ess_milli", "a"),
            crate::quality::scale_milli(report.jobs["a"].ess)
        );
        assert_eq!(find("mto_quality_target_ess", "a"), 50);
        assert_eq!(find("mto_quality_met", "a"), 1);
        assert!(
            !samples
                .iter()
                .any(|s| s.name == "mto_quality_target_ess" && s.label("job") == Some("b")),
            "jobs without an SLO expose no target series"
        );
        assert!(
            samples.iter().any(|s| s.name == "mto_quality_rhat_milli"),
            "two chains expose the cross-chain R-hat:\n{text}"
        );
    }

    #[test]
    fn empty_planes_render_nothing() {
        let empty =
            render(&MetricsRegistry::new(), &QualityReport::default(), &WallClockRegistry::new());
        assert_eq!(empty, "");
    }
}
