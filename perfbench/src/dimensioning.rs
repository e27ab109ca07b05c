//! `dimensioning`: the traffic driver at the perf harness's 16× point,
//! closed loop on one worker thread per core. One unit is
//! `DriverSession::new` / `step` to exhaustion / `finish` over every
//! built-in mix; a run repeats units for its seconds, and every unit
//! must reproduce the first unit's per-mix `RunSummary::digest`.

use crate::report::{self, driver_phases, drops, Outcome};
use crate::{Args, Produced};
use cgn_traffic::{DriverConfig, DriverSession, WorkloadMix};
use std::time::Instant;

fn config(mix: WorkloadMix, seed: u64, smoke: bool, traced: bool) -> DriverConfig {
    let mut c = DriverConfig::new(mix, seed);
    c.subscribers = if smoke { 1_000 } else { 16_000 };
    c.shards = 4;
    c.external_ips_per_shard = 2;
    c.threads = 0;
    c.duration_secs = if smoke { 60 } else { 240 };
    c.sample_secs = 30;
    c.sweep_secs = 20;
    c.inbound_reply_permille = 250;
    if traced {
        c.trace = cgn_traffic::TraceConfig {
            sample_one_in: 0,
            profile_phases: true,
            ..cgn_traffic::TraceConfig::off()
        };
    }
    c
}

/// One pass over every mix.
#[derive(Default)]
struct Unit {
    setup_s: f64,
    /// Wall seconds of `step` and `finish`, set-up excluded.
    wall_s: f64,
    cpu_s: f64,
    flows: u64,
    out_packets: u64,
    in_packets: u64,
    sim_s: u64,
    blocked: u64,
    dropped_replies: u64,
    step_ns: Vec<f64>,
    digests: Vec<(String, u64)>,
    stats: nat_engine::NatStats,
    peak_mappings: u64,
    shard_imbalance: f64,
    profile: cgn_trace::PhaseProfiler,
}

fn unit(seed: u64, smoke: bool, traced: bool) -> Unit {
    let mut u = Unit::default();
    for mix in WorkloadMix::all() {
        let cfg = config(mix, seed, smoke, traced);
        let t0 = Instant::now();
        let mut session = DriverSession::new(&cfg);
        u.setup_s += t0.elapsed().as_secs_f64();
        let cpu0 = report::cpu_secs();
        let t0 = Instant::now();
        loop {
            let s0 = Instant::now();
            let more = session.step().is_some();
            if !more {
                break;
            }
            u.step_ns.push(s0.elapsed().as_nanos() as f64);
        }
        if let Some(p) = session.phase_profile() {
            u.profile.merge(&p);
        }
        let (summary, _) = session.finish();
        u.wall_s += t0.elapsed().as_secs_f64();
        u.cpu_s += report::cpu_secs() - cpu0;
        u.flows += summary.flows_started;
        u.out_packets += summary.stats.out_packets;
        u.in_packets += summary.stats.in_packets;
        u.sim_s += cfg.duration_secs;
        u.blocked += summary.flows_blocked;
        // Every inbound packet is a reply to a flow forwarded in the
        // same millisecond, so every inbound drop is a failure.
        u.dropped_replies += summary.stats.drop_no_mapping + summary.stats.drop_filtered;
        u.peak_mappings = u.peak_mappings.max(summary.stats.peak_mappings);
        u.shard_imbalance = u.shard_imbalance.max(summary.shard_load.flow_imbalance);
        u.stats.merge(&summary.stats);
        u.digests.push((
            format!("dimensioning.{}", summary.mix_name),
            summary.digest(),
        ));
    }
    u
}

pub fn run(args: &Args) -> (Outcome, Produced) {
    let mut out = Outcome::default();
    let mut units: Vec<Unit> = Vec::new();
    let t0 = Instant::now();
    // Start another unit while it is expected to end within the run.
    while units.is_empty()
        || t0.elapsed().as_secs_f64() + units.last().map_or(0.0, |u| u.setup_s + u.wall_s)
            <= args.seconds * 1.05
    {
        units.push(unit(args.seed, args.smoke, false));
    }
    let first = &units[0];
    for (i, u) in units.iter().enumerate().skip(1) {
        if u.digests != first.digests {
            out.errors.push(format!(
                "unit {i} digests differ from unit 0: not deterministic"
            ));
        }
    }
    count_ops(&units, &mut out);
    let per_unit = |f: &dyn Fn(&Unit) -> f64| -> f64 {
        let mut v: Vec<f64> = units.iter().map(f).collect();
        report::median(&mut v)
    };
    // Every unit does the same work, step for step, so each step's
    // typical time is its median over units: a transient stall in one
    // unit does not move it.
    let mut typical_step_us: Vec<f64> = (0..first.step_ns.len())
        .map(|i| {
            let mut v: Vec<f64> = units.iter().map(|u| u.step_ns[i] / 1e3).collect();
            report::median(&mut v)
        })
        .collect();
    let rest_s = per_unit(&|u| u.wall_s - u.step_ns.iter().sum::<f64>() / 1e9);
    let wall_s = typical_step_us.iter().sum::<f64>() / 1e6 + rest_s;
    out.set("setup_s", per_unit(&|u| u.setup_s));
    out.set(
        "packets_per_s",
        (first.out_packets + first.in_packets) as f64 / wall_s,
    );
    out.set("flows_per_s", first.flows as f64 / wall_s);
    out.set("sim_s_per_wall_s", first.sim_s as f64 / wall_s);
    out.set("op_us_p50", report::quantile(&mut typical_step_us, 0.50));
    out.set("op_us_p99", report::quantile(&mut typical_step_us, 0.99));
    let rates: Vec<f64> = units.iter().map(|u| u.flows as f64 / u.wall_s).collect();
    eprintln!("dimensioning: flows/s per unit {rates:?}");
    eprintln!(
        "dimensioning: {} units of {} steps, {:.2} s",
        units.len(),
        first.step_ns.len(),
        t0.elapsed().as_secs_f64()
    );
    let produced = first.digests.clone();

    if args.traced {
        traced_pass(args, &units, &mut out);
    }
    (out, produced)
}

/// Add the units' operations and failures to the outcome.
fn count_ops(units: &[Unit], out: &mut Outcome) {
    for u in units {
        out.ops.attempted += u.flows + u.in_packets;
        out.ops.fail("blocked_flows", u.blocked);
        out.ops.fail("dropped_replies", u.dropped_replies);
    }
}

/// The per-mix digests of a unit folded into one.
fn combined(u: &Unit) -> u64 {
    u.digests
        .iter()
        .fold(report::FNV_OFFSET, |h, (_, d)| report::fold(h, *d))
}

/// Re-run as many units with the phase profiler on; fills the
/// per-layer metrics and checks every digest is unchanged.
fn traced_pass(args: &Args, untraced: &[Unit], out: &mut Outcome) {
    let untraced_wall: f64 = untraced.iter().map(|u| u.wall_s).sum();
    let traced: Vec<Unit> = (0..untraced.len())
        .map(|_| unit(args.seed, args.smoke, true))
        .collect();
    let want = combined(&untraced[0]);
    let got = traced
        .iter()
        .map(combined)
        .find(|d| *d != want)
        .unwrap_or(want);
    out.check_digest(
        format!(
            "dimensioning all mixes, {} traced units vs untraced",
            traced.len()
        ),
        want,
        got,
    );
    count_ops(&traced, out);
    let wall: f64 = traced.iter().map(|u| u.wall_s).sum();
    let cpu: f64 = traced.iter().map(|u| u.cpu_s).sum();
    let mut profile = cgn_trace::PhaseProfiler::new();
    for u in &traced {
        profile.merge(&u.profile);
    }
    let total = |f: fn(&Unit) -> u64| traced.iter().map(f).sum::<u64>();
    driver_phases(
        &profile,
        total(|u| u.flows),
        total(|u| u.out_packets),
        total(|u| u.in_packets),
        out,
    );
    let last = traced.last().expect("at least one unit");
    out.set("nat-engine.live_mappings_peak", last.peak_mappings as f64);
    drops(&last.stats, out);

    let mut step_ms: Vec<f64> = traced
        .iter()
        .flat_map(|u| &u.step_ns)
        .map(|ns| ns / 1e6)
        .collect();
    out.set("traffic.step_ms_p50", report::quantile(&mut step_ms, 0.50));
    out.set("traffic.step_ms_p99", report::quantile(&mut step_ms, 0.99));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    out.set("traffic.cpu_busy_ratio", cpu / (wall * workers).max(1e-9));
    out.set("traffic.shard_imbalance", last.shard_imbalance);
    out.set("trace.overhead_ratio", wall / untraced_wall.max(1e-9));
}
