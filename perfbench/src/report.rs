//! What every workload reports: the metric catalogue, failure
//! accounting, the result line, and the small measurement helpers the
//! workloads share (quantiles, FNV digests, `/proc` readings).

use cgn_trace::{Phase, PhaseProfiler};
use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off. Every workload emits
/// every one of them; `op_us_*` is the latency of the workload's unit
/// request (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("packets_per_s", "1/s"),
    ("flows_per_s", "1/s"),
    ("sim_s_per_wall_s", "s/s"),
    ("op_us_p50", "us"),
    ("op_us_p99", "us"),
];

/// Per-layer metrics of the traced run, named `<layer>.<metric>`.
/// A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nat-engine.out_ns_per_pkt", "ns"),
    ("nat-engine.in_ns_per_pkt", "ns"),
    ("nat-engine.resolve_ns", "ns"),
    ("nat-engine.prefetch_ns", "ns"),
    ("nat-engine.translate_ns", "ns"),
    ("nat-engine.sweep_ms", "ms"),
    ("nat-engine.burst_fill", "pkt"),
    ("nat-engine.live_mappings_peak", "count"),
    ("nat-engine.arena_chunks", "count"),
    ("nat-engine.drops.no_mapping", "count"),
    ("nat-engine.drops.filtered", "count"),
    ("nat-engine.drops.port_exhausted", "count"),
    ("nat-engine.drops.session_limit", "count"),
    ("nat-engine.drops.no_hairpin", "count"),
    ("nat-engine.drops.unmatched_icmp", "count"),
    ("nat-engine.fail.blocked_flows", "count"),
    ("nat-engine.fail.dropped_outbound", "count"),
    ("nat-engine.fail.dropped_replies", "count"),
    ("nat-engine.fail.unsolicited_admitted", "count"),
    ("traffic.step_ms_p50", "ms"),
    ("traffic.step_ms_p99", "ms"),
    ("traffic.cpu_busy_ratio", "ratio"),
    ("traffic.generate_ns", "ns/flow"),
    ("traffic.translate_ns", "ns/flow"),
    ("traffic.commit_ns", "ns/flow"),
    ("traffic.inbound_ns", "ns/flow"),
    ("traffic.sweep_ns", "ns/flow"),
    ("traffic.sample_ns", "ns/flow"),
    ("traffic.shard_imbalance", "ratio"),
    ("telemetry.sink_ns_per_record", "ns"),
    ("telemetry.records", "count"),
    ("telemetry.bytes_per_record", "B"),
    ("telemetry.decode_ms", "ms"),
    ("telemetry.index_build_ms", "ms"),
    ("telemetry.index_intervals", "count"),
    ("telemetry.query_us_p50", "us"),
    ("telemetry.query_us_p99", "us"),
    ("telemetry.fail.probe_wrong", "count"),
    ("telemetry.fail.probe_missing", "count"),
    ("metrics.window_ms", "ms"),
    ("metrics.render_ms", "ms"),
    ("metrics.series", "count"),
    ("opsd.publish_ms", "ms"),
    ("opsd.scrape_ms_p50", "ms"),
    ("opsd.scrape_ms_p99", "ms"),
    ("opsd.scrape_bytes", "B"),
    ("opsd.scrapes_served", "count"),
    ("opsd.scrape_errors", "count"),
    ("opsd.scraper_lag_ms", "ms"),
    ("opsd.fail.scrape_errors", "count"),
    ("opsd.fail.scrape_timeouts", "count"),
    ("opsd.fail.scrape_wrong", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Failure kinds behind `failed`, each also a `*.fail.*` per-layer
/// count.
pub const FAILURE_KINDS: &[(&str, &str)] = &[
    ("blocked_flows", "nat-engine.fail.blocked_flows"),
    ("dropped_outbound", "nat-engine.fail.dropped_outbound"),
    ("dropped_replies", "nat-engine.fail.dropped_replies"),
    (
        "unsolicited_admitted",
        "nat-engine.fail.unsolicited_admitted",
    ),
    ("scrape_errors", "opsd.fail.scrape_errors"),
    ("scrape_timeouts", "opsd.fail.scrape_timeouts"),
    ("scrape_wrong", "opsd.fail.scrape_wrong"),
    ("probe_wrong", "telemetry.fail.probe_wrong"),
    ("probe_missing", "telemetry.fail.probe_missing"),
];

/// Operations attempted and how each failed one failed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Ops {
    pub attempted: u64,
    pub failures: BTreeMap<&'static str, u64>,
}

impl Ops {
    pub fn fail(&mut self, kind: &'static str, n: u64) {
        assert!(
            FAILURE_KINDS.iter().any(|(k, _)| *k == kind),
            "unknown failure kind {kind}"
        );
        if n > 0 {
            *self.failures.entry(kind).or_default() += n;
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn merge(&mut self, other: &Ops) {
        self.attempted += other.attempted;
        for (kind, n) in &other.failures {
            self.fail(kind, *n);
        }
    }
}

/// One workload run: the numbers to print and the verdict of the
/// output checks.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub ops: Ops,
    /// `(what, expected, got)` for every digest comparison made.
    pub digests: Vec<(String, String, String)>,
    /// Failed output checks other than digest mismatches.
    pub errors: Vec<String>,
    /// Workload-specific end-to-end figures printed in the report but
    /// not in the result line, which carries only the metrics every
    /// workload has: `(name, value, unit)`.
    pub also: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Record a digest comparison; a mismatch fails the run.
    pub fn check_digest(&mut self, what: impl Into<String>, expected: u64, got: u64) {
        self.digests.push((
            what.into(),
            format!("{expected:016x}"),
            format!("{got:016x}"),
        ));
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.digests.iter().all(|(_, e, g)| e == g)
    }

    /// Print the human-readable report, then the result line (last
    /// line of stdout) with the end-to-end or the per-layer metrics.
    pub fn print(&self, workload: &str, seed: u64, traced: bool) {
        println!("workload {workload}  seed {seed}  traced {traced}");
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        for (name, unit) in catalogue {
            println!("  {name:<38} {:>16.6} {unit}", self.value(name));
        }
        for (name, value, unit) in &self.also {
            println!("  {name:<38} {value:>16.6} {unit}  (report only)");
        }
        let rate = self.ops.failed() as f64 / self.ops.attempted.max(1) as f64;
        println!(
            "  {:<38} {:>16.6} ratio  ({} of {} ops)",
            "error_rate",
            rate,
            self.ops.failed(),
            self.ops.attempted
        );
        for (kind, _) in FAILURE_KINDS {
            println!(
                "    fail.{kind:<32} {:>16}",
                self.ops.failures.get(kind).copied().unwrap_or(0)
            );
        }
        for (what, expected, got) in &self.digests {
            let mark = if expected == got { "ok" } else { "MISMATCH" };
            println!("  digest {what}: expected {expected} got {got} {mark}");
        }
        for e in &self.errors {
            println!("  check failed: {e}");
        }
        let body: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(self.value(name))
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ops.attempted.max(1),
            self.ops.failed(),
            body.join(", ")
        );
    }

    fn value(&self, name: &str) -> f64 {
        if let Some((kind, _)) = FAILURE_KINDS.iter().find(|(_, m)| *m == name) {
            return self.ops.failures.get(kind).copied().unwrap_or(0) as f64;
        }
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Fold one 64-bit word into an FNV-1a style digest.
#[inline]
pub fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Fold a string's bytes into an FNV-1a digest.
pub fn fold_str(mut h: u64, s: &str) -> u64 {
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// User plus system CPU time of this process so far, in seconds
/// (`/proc/self/stat`, 100 ticks per second on Linux).
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Resolve / prefetch / translate nanoseconds per burst call, from the
/// engine's phase profiler.
pub fn engine_phases(profile: &PhaseProfiler, out: &mut Outcome) {
    let per_call = |p: Phase| {
        let h = profile.histogram(p);
        h.sum as f64 / h.count.max(1) as f64
    };
    out.set("nat-engine.resolve_ns", per_call(Phase::BurstResolve));
    out.set("nat-engine.prefetch_ns", per_call(Phase::BurstPrefetch));
    out.set("nat-engine.translate_ns", per_call(Phase::BurstTranslate));
}

/// Drop counters by reason.
pub fn drops(stats: &nat_engine::NatStats, out: &mut Outcome) {
    out.set("nat-engine.drops.no_mapping", stats.drop_no_mapping as f64);
    out.set("nat-engine.drops.filtered", stats.drop_filtered as f64);
    out.set(
        "nat-engine.drops.port_exhausted",
        stats.drop_port_exhausted as f64,
    );
    out.set(
        "nat-engine.drops.session_limit",
        stats.drop_session_limit as f64,
    );
    out.set("nat-engine.drops.no_hairpin", stats.drop_no_hairpin as f64);
    out.set(
        "nat-engine.drops.unmatched_icmp",
        stats.drop_unmatched_icmp as f64,
    );
}

/// Per-layer metrics of a driver run from its phase profile: engine
/// time per packet (the driver's translate and inbound phases wrap the
/// burst calls), per burst pass and per sweep, burst fill, and every
/// driver phase per flow started.
pub fn driver_phases(
    profile: &PhaseProfiler,
    flows: u64,
    out_packets: u64,
    in_packets: u64,
    out: &mut Outcome,
) {
    let sum = |p: Phase| profile.histogram(p).sum as f64;
    let count = |p: Phase| profile.histogram(p).count.max(1) as f64;
    out.set(
        "nat-engine.out_ns_per_pkt",
        sum(Phase::Translate) / out_packets.max(1) as f64,
    );
    out.set(
        "nat-engine.in_ns_per_pkt",
        sum(Phase::Inbound) / in_packets.max(1) as f64,
    );
    engine_phases(profile, out);
    out.set(
        "nat-engine.sweep_ms",
        sum(Phase::Sweep) / count(Phase::Sweep) / 1e6,
    );
    out.set(
        "nat-engine.burst_fill",
        (out_packets + in_packets) as f64 / count(Phase::BurstResolve),
    );
    let flows = flows.max(1) as f64;
    out.set("traffic.generate_ns", sum(Phase::Generate) / flows);
    out.set("traffic.translate_ns", sum(Phase::Translate) / flows);
    out.set("traffic.commit_ns", sum(Phase::Commit) / flows);
    out.set("traffic.inbound_ns", sum(Phase::Inbound) / flows);
    out.set("traffic.sweep_ns", sum(Phase::Sweep) / flows);
    out.set("traffic.sample_ns", sum(Phase::Sample) / flows);
}
