//! `replay`: the engine alone, closed loop on one thread, fed a
//! pre-generated packet trace in 32-packet rx bursts through
//! `ShardedNat::process_bursts` / `process_inbound_bursts`, with
//! `ShardedNat::sweep` at a fixed simulated cadence.
//!
//! The trace is one circular period of a stationary flow process:
//! subscribers draw application classes from `WorkloadMix::assign`,
//! flows from `AppProfile::params` and the `AppParams::sample_*`
//! samplers, and every flow's packets (first packet, keepalives, TCP
//! FIN) land at their time modulo the period. Replaying the period
//! again and again at increasing simulated time is then a steady state:
//! flow durations are capped so that each period's flows find their
//! previous mapping expired and create a fresh one. A quarter of the
//! outbound packets draw a reply from the contacted endpoint, built
//! from the verdict's translated source, and a small share of inbound
//! packets are unsolicited.

use crate::report::{self, drops, engine_phases, fold, Ops, Outcome, FNV_OFFSET};
use crate::{Args, Produced};
use cgn_traffic::{AppProfile, WorkloadMix};
use nat_engine::{NatConfig, NatVerdict, ShardedNat};
use netcore::{Endpoint, Packet, SimDuration, SimTime, TcpFlags};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::Ipv4Addr;
use std::time::Instant;

/// Packets per rx burst, in both directions.
const BURST: usize = 32;
/// Every mapping timeout (UDP, TCP established, TCP transitory), as
/// the soak clamps them, so the table reaches its plateau within one
/// period.
const TIMEOUT_SECS: u64 = 60;
/// Simulated cadence of `ShardedNat::sweep`.
const SWEEP_MS: u64 = 1_000;
/// Share of outbound packets (FIN excepted) answered by the endpoint.
const REPLY_SHARE: f64 = 0.25;
/// Unsolicited inbound packets per outbound packet.
const UNSOLICITED_SHARE: f64 = 0.02;
/// Public addresses of the single shard.
const EXTERNAL_IPS: u32 = 16;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Simulated warm-up: one timeout plus the longest keepalive interval
/// and a margin. By then every live flow has sent a packet and every
/// idle mapping has expired, so the table is at its plateau.
const WARM_UP_MS: u64 = (TIMEOUT_SECS + 20 + 10) * 1000;

const KIND_FIRST: u32 = 0;
const KIND_KEEPALIVE: u32 = 1;
const KIND_FIN: u32 = 2;
const KIND_UNSOLICITED: u32 = 3;

/// Size of the replayed population.
struct Shape {
    subscribers: u32,
    period_secs: u64,
    /// Outbound bursts after warm-up covered by the pinned digest.
    check_bursts: u64,
}

impl Shape {
    fn new(smoke: bool) -> Shape {
        if smoke {
            Shape {
                subscribers: 2_000,
                period_secs: 240,
                check_bursts: 2_000,
            }
        } else {
            Shape {
                subscribers: 48_000,
                period_secs: 240,
                check_bursts: 20_000,
            }
        }
    }
}

/// One flow of the trace period.
struct Flow {
    src: Endpoint,
    dst: Endpoint,
    udp: bool,
}

/// One period of packet events, bucketed by simulated millisecond.
/// An event code is `payload << 3 | kind << 1 | reply`, where the
/// payload is a flow index (outbound kinds) or a random word from which
/// an unsolicited packet is built.
struct Trace {
    flows: Vec<Flow>,
    /// `codes[tick_start[t]..tick_start[t + 1]]` happen at millisecond
    /// `t` of the period.
    tick_start: Vec<u32>,
    codes: Vec<u32>,
    period_ms: u64,
}

fn external_ip(k: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(Ipv4Addr::new(198, 18, 0, 0)) + k)
}

fn subscriber_ip(sub: u32) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(Ipv4Addr::new(100, 64, 0, 0)) + sub)
}

/// Destination host `idx` of a class's server/peer universe.
fn dest_ip(profile: AppProfile, idx: u32) -> Ipv4Addr {
    let base = match profile {
        AppProfile::Web => Ipv4Addr::new(23, 0, 0, 0),
        AppProfile::Streaming => Ipv4Addr::new(151, 101, 0, 0),
        AppProfile::P2p => Ipv4Addr::new(85, 0, 0, 0),
        AppProfile::Gaming => Ipv4Addr::new(162, 254, 0, 0),
        AppProfile::Iot => Ipv4Addr::new(52, 32, 0, 0),
    };
    Ipv4Addr::from(u32::from(base) + idx)
}

fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    -rng.gen::<f64>().max(1e-12).ln() * mean
}

impl Trace {
    fn generate(shape: &Shape, seed: u64) -> Trace {
        let mix = WorkloadMix::residential_evening();
        let mut rng = StdRng::seed_from_u64(seed);
        let period_ms = shape.period_secs * 1000;
        // A flow's silence before its next occurrence must outlast the
        // timeout plus one sweep, so every period re-creates it.
        let cap_ms = period_ms - (TIMEOUT_SECS + 10) * 1000;
        let mut flows = Vec::new();
        let mut events: Vec<u64> = Vec::new();
        let push = |events: &mut Vec<u64>, at_ms: u64, code: u32| {
            events.push(((at_ms % period_ms) << 32) | code as u64);
        };
        let mut outbound = 0u64;
        for sub in 0..shape.subscribers {
            let profile = mix.assign(sub);
            let params = profile.params();
            let mean_gap = 60.0 / params.flows_per_min;
            let mut src_port = 0u32;
            let mut t = exponential(&mut rng, mean_gap);
            while t < shape.period_secs as f64 {
                let start_ms = (t * 1000.0) as u64;
                let dur_ms = ((params.sample_duration_secs(&mut rng) * 1000.0) as u64).min(cap_ms);
                let dst = Endpoint::new(
                    dest_ip(profile, params.sample_dest(&mut rng)),
                    params.sample_dst_port(&mut rng),
                );
                let udp = rng.gen_bool(params.udp_share);
                let id = u32::try_from(flows.len()).expect("flow index fits u32");
                assert!(id < 1 << 29, "flow index fits the event code");
                flows.push(Flow {
                    src: Endpoint::new(subscriber_ip(sub), 20_000 + (src_port % 45_000) as u16),
                    dst,
                    udp,
                });
                src_port += 1;
                let refresh_ms = params.refresh_secs * 1000;
                let mut at = 0;
                while at < dur_ms {
                    let kind = if at == 0 { KIND_FIRST } else { KIND_KEEPALIVE };
                    let reply = rng.gen_bool(REPLY_SHARE) as u32;
                    push(&mut events, start_ms + at, id << 3 | kind << 1 | reply);
                    outbound += 1;
                    at += refresh_ms;
                }
                if !udp {
                    push(&mut events, start_ms + dur_ms, id << 3 | KIND_FIN << 1);
                    outbound += 1;
                }
                t += exponential(&mut rng, mean_gap);
            }
        }
        let unsolicited = (outbound as f64 * UNSOLICITED_SHARE) as u64;
        for _ in 0..unsolicited {
            let at = rng.gen_range(0..period_ms);
            let word = rng.gen::<u32>() >> 3;
            push(&mut events, at, word << 3 | KIND_UNSOLICITED << 1);
        }
        events.sort_unstable();

        let mut tick_start = vec![0u32; period_ms as usize + 1];
        for e in &events {
            tick_start[(e >> 32) as usize + 1] += 1;
        }
        for t in 1..tick_start.len() {
            tick_start[t] += tick_start[t - 1];
        }
        let codes = events.iter().map(|e| *e as u32).collect();
        Trace {
            flows,
            tick_start,
            codes,
            period_ms,
        }
    }

    /// The outbound packet of an event.
    fn outbound(&self, code: u32) -> Packet {
        let f = &self.flows[(code >> 3) as usize];
        let kind = code >> 1 & 3;
        if f.udp {
            Packet::udp(f.src, f.dst, vec![])
        } else {
            let flags = match kind {
                KIND_FIRST => TcpFlags::SYN,
                KIND_FIN => TcpFlags::FIN,
                _ => TcpFlags::ACK,
            };
            Packet::tcp(f.src, f.dst, flags, vec![])
        }
    }

    /// The unsolicited inbound packet of an event: a stranger from
    /// TEST-NET-3, which no flow contacts, probing a pool address.
    fn unsolicited(code: u32) -> Packet {
        let w = code >> 3;
        let dst = Endpoint::new(
            external_ip(w % EXTERNAL_IPS),
            1024 + (w >> 4) as u16 % 64_000,
        );
        let src = Endpoint::new(Ipv4Addr::new(203, 0, 113, (w >> 20) as u8), 50_000);
        if w & 8 == 0 {
            Packet::udp(src, dst, vec![])
        } else {
            Packet::tcp(src, dst, TcpFlags::SYN, vec![])
        }
    }
}

/// The reply the contacted endpoint sends to a translated packet.
fn reply_to(translated: &Packet) -> Packet {
    let mut p = translated.clone();
    std::mem::swap(&mut p.src, &mut p.dst);
    if let netcore::PacketBody::Tcp { flags, .. } = &mut p.body {
        *flags = TcpFlags::ACK;
    }
    p
}

fn endpoint_word(e: Endpoint) -> u64 {
    (u32::from(e.ip) as u64) << 16 | e.port as u64
}

fn fold_verdict(h: u64, v: &NatVerdict) -> u64 {
    match v {
        NatVerdict::Forward(p) => {
            fold(fold(fold(h, 1), endpoint_word(p.src)), endpoint_word(p.dst))
        }
        NatVerdict::Hairpin(p) => {
            fold(fold(fold(h, 2), endpoint_word(p.src)), endpoint_word(p.dst))
        }
        NatVerdict::Drop(r) => fold(h, 3 << 8 | *r as u64),
    }
}

/// Wall time spent inside the engine, split by entry point.
#[derive(Default)]
struct CallTimes {
    out_ns: u64,
    in_ns: u64,
    sweep_ns: u64,
    sweeps: u64,
    /// Latency of every burst call, both directions, in ns.
    burst_ns: Vec<f64>,
}

/// The engine plus a cursor into the circular trace.
struct Replayer<'t> {
    trace: &'t Trace,
    nat: ShardedNat,
    cycle: u64,
    tick: usize,
    pos: usize,
    next_sweep_ms: u64,
    out_codes: Vec<u32>,
    out_pkts: Vec<Packet>,
    in_pkts: Vec<Packet>,
    in_is_reply: Vec<bool>,
    digest: u64,
    ops: Ops,
    out_packets: u64,
    in_packets: u64,
    out_bursts: u64,
    in_bursts: u64,
    flows: u64,
    calls: CallTimes,
}

impl<'t> Replayer<'t> {
    fn new(trace: &'t Trace, seed: u64) -> Replayer<'t> {
        let mut config = NatConfig::cgn_default();
        let timeout = SimDuration::from_secs(TIMEOUT_SECS);
        config.udp_timeout = timeout;
        config.tcp_established_timeout = timeout;
        config.tcp_transitory_timeout = timeout;
        let pool = (0..EXTERNAL_IPS).map(external_ip).collect();
        Replayer {
            trace,
            nat: ShardedNat::new(config, pool, 1, seed),
            cycle: 0,
            tick: 0,
            pos: 0,
            next_sweep_ms: SWEEP_MS,
            out_codes: Vec::with_capacity(BURST),
            out_pkts: Vec::with_capacity(BURST),
            in_pkts: Vec::with_capacity(BURST),
            in_is_reply: Vec::with_capacity(BURST),
            digest: FNV_OFFSET,
            ops: Ops::default(),
            out_packets: 0,
            in_packets: 0,
            out_bursts: 0,
            in_bursts: 0,
            flows: 0,
            calls: CallTimes::default(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.cycle * self.trace.period_ms + self.tick as u64
    }

    fn warm_up(&mut self) {
        while self.now_ms() < WARM_UP_MS {
            self.step();
        }
    }

    /// Gather one outbound rx burst from the trace (sweeping and
    /// draining full inbound bursts on the way) and translate it.
    fn step(&mut self) {
        let trace = self.trace;
        while self.out_pkts.len() < BURST {
            while self.pos == trace.tick_start[self.tick + 1] as usize {
                self.tick += 1;
                if self.tick as u64 == trace.period_ms {
                    self.tick = 0;
                    self.pos = 0;
                    self.cycle += 1;
                }
            }
            let now_ms = self.now_ms();
            while now_ms >= self.next_sweep_ms {
                let at = SimTime::from_millis(self.next_sweep_ms);
                let t0 = Instant::now();
                self.nat.sweep(at);
                self.calls.sweep_ns += t0.elapsed().as_nanos() as u64;
                self.calls.sweeps += 1;
                self.next_sweep_ms += SWEEP_MS;
            }
            let code = trace.codes[self.pos];
            self.pos += 1;
            if code >> 1 & 3 == KIND_UNSOLICITED {
                self.push_inbound(Trace::unsolicited(code), false);
            } else {
                self.out_pkts.push(trace.outbound(code));
                self.out_codes.push(code);
            }
        }
        let now = SimTime::from_millis(self.now_ms());
        let burst = std::mem::replace(&mut self.out_pkts, Vec::with_capacity(BURST));
        let t0 = Instant::now();
        let mut verdicts = self.nat.process_bursts(vec![burst], now, 1);
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls.out_ns += ns;
        self.calls.burst_ns.push(ns as f64);
        self.out_bursts += 1;
        self.out_packets += BURST as u64;
        let verdicts = verdicts.pop().expect("one shard");
        let codes = std::mem::take(&mut self.out_codes);
        for (v, code) in verdicts.iter().zip(&codes) {
            self.digest = fold_verdict(self.digest, v);
            self.ops.attempted += 1;
            let kind = code >> 1 & 3;
            if kind == KIND_FIRST {
                self.flows += 1;
            }
            match v {
                NatVerdict::Forward(p) => {
                    if code & 1 == 1 {
                        self.push_inbound(reply_to(p), true);
                    }
                }
                NatVerdict::Hairpin(_) | NatVerdict::Drop(_) => {
                    let what = if kind == KIND_FIRST {
                        "blocked_flows"
                    } else {
                        "dropped_outbound"
                    };
                    self.ops.fail(what, 1);
                }
            }
        }
        self.out_codes = codes;
        self.out_codes.clear();
    }

    fn push_inbound(&mut self, pkt: Packet, is_reply: bool) {
        self.in_pkts.push(pkt);
        self.in_is_reply.push(is_reply);
        if self.in_pkts.len() < BURST {
            return;
        }
        let now = SimTime::from_millis(self.now_ms());
        let burst = std::mem::replace(&mut self.in_pkts, Vec::with_capacity(BURST));
        let t0 = Instant::now();
        let mut verdicts = self.nat.process_inbound_bursts(vec![burst], now, 1);
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls.in_ns += ns;
        self.calls.burst_ns.push(ns as f64);
        self.in_bursts += 1;
        self.in_packets += BURST as u64;
        let verdicts = verdicts.pop().expect("one shard");
        for (v, is_reply) in verdicts.iter().zip(&self.in_is_reply) {
            self.digest = fold_verdict(self.digest, v);
            self.ops.attempted += 1;
            match (v, is_reply) {
                (NatVerdict::Forward(_), true) | (NatVerdict::Drop(_), false) => {}
                (_, true) => self.ops.fail("dropped_replies", 1),
                (_, false) => self.ops.fail("unsolicited_admitted", 1),
            }
        }
        self.in_is_reply.clear();
    }

    /// Counters that the timed phase reports as deltas.
    fn progress(&self) -> Progress {
        Progress {
            packets: self.out_packets + self.in_packets,
            flows: self.flows,
            sim_ms: self.now_ms(),
            call_ns: self.calls.out_ns + self.calls.in_ns + self.calls.sweep_ns,
            bursts: self.calls.burst_ns.len(),
        }
    }
}

#[derive(Clone, Copy)]
struct Progress {
    packets: u64,
    flows: u64,
    sim_ms: u64,
    call_ns: u64,
    bursts: usize,
}

/// Per-slice rates (over time inside engine calls) and burst-latency
/// quantiles of the timed phase.
#[derive(Default)]
struct Slices {
    packets: Vec<f64>,
    flows: Vec<f64>,
    sim: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
}

impl Slices {
    fn push(&mut self, from: Progress, to: Progress, burst_ns: &[f64]) {
        let secs = (to.call_ns - from.call_ns) as f64 / 1e9;
        self.packets.push((to.packets - from.packets) as f64 / secs);
        self.flows.push((to.flows - from.flows) as f64 / secs);
        self.sim.push((to.sim_ms - from.sim_ms) as f64 / 1e3 / secs);
        let mut us: Vec<f64> = burst_ns[from.bursts..to.bursts]
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        self.p50_us.push(report::quantile(&mut us, 0.50));
        self.p99_us.push(report::quantile(&mut us, 0.99));
    }
}

/// Build the engine and warm it up; returns the replayer and the
/// set-up time.
fn set_up(trace: &Trace, seed: u64) -> (Replayer<'_>, f64) {
    let t0 = Instant::now();
    let mut r = Replayer::new(trace, seed);
    r.warm_up();
    (r, t0.elapsed().as_secs_f64())
}

pub fn run(args: &Args) -> (Outcome, Produced) {
    let shape = Shape::new(args.smoke);
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let trace = Trace::generate(&shape, args.seed);
    eprintln!(
        "replay: {} flows, {} events per {} s period, generated in {:.2} s",
        trace.flows.len(),
        trace.codes.len(),
        shape.period_secs,
        t0.elapsed().as_secs_f64()
    );

    // Set-up: engine construction plus warm-up, repeated; the last one
    // is kept.
    let setups = if args.traced { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..setups {
        drop(kept.take());
        let (r, s) = set_up(&trace, args.seed);
        setup_s.push(s);
        kept = Some(r);
    }
    let mut r = kept.expect("at least one set-up");
    let live_after_warm_up = r.nat.mapping_count();

    // Timed phase: closed loop in slices of one trace period of
    // simulated time, so every slice replays the same mix of packets;
    // slices continue until `seconds` have passed and the pinned prefix
    // is covered.
    let mut slices = Slices::default();
    let start = r.progress();
    let mut slice_from = start;
    let mut pinned = None;
    let first_burst = r.out_bursts;
    let t0 = Instant::now();
    loop {
        r.step();
        if r.out_bursts - first_burst == shape.check_bursts {
            pinned = Some(r.digest);
        }
        if r.now_ms() >= slice_from.sim_ms + trace.period_ms {
            let p = r.progress();
            slices.push(slice_from, p, &r.calls.burst_ns);
            slice_from = p;
            if t0.elapsed().as_secs_f64() >= args.seconds && pinned.is_some() {
                break;
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let steps = r.out_bursts;
    let end = r.progress();
    let untraced_digest = r.digest;
    out.ops = r.ops.clone();

    out.set("setup_s", report::median(&mut setup_s));
    eprintln!("replay: packets/s per slice {:?}", slices.packets);
    out.set("packets_per_s", report::median(&mut slices.packets));
    out.set("flows_per_s", report::median(&mut slices.flows));
    out.set("sim_s_per_wall_s", report::median(&mut slices.sim));
    let (p50, p99) = (
        report::median(&mut slices.p50_us),
        report::median(&mut slices.p99_us),
    );
    out.set("op_us_p50", p50);
    out.set("op_us_p99", p99);
    out.also.push(("burst_us_p50", p50, "us"));
    out.also.push(("burst_us_p99", p99, "us"));
    eprintln!(
        "replay: {} live mappings after warm-up; {} outbound bursts, {} packets in {:.2} s ({:.2} s in engine calls)",
        live_after_warm_up,
        steps,
        end.packets - start.packets,
        wall,
        (end.call_ns - start.call_ns) as f64 / 1e9
    );
    let produced = vec![(
        "replay.verdicts".to_string(),
        pinned.expect("timed phase covers the pinned prefix"),
    )];

    if args.traced {
        drop(r);
        traced_pass(&trace, args.seed, steps, wall, untraced_digest, &mut out);
    }
    (out, produced)
}

/// Replay the same work again with the phase profiler installed after
/// warm-up and spans around every engine call; fills the per-layer
/// metrics and checks the verdict stream is unchanged.
fn traced_pass(
    trace: &Trace,
    seed: u64,
    steps: u64,
    untraced_wall: f64,
    untraced_digest: u64,
    out: &mut Outcome,
) {
    let (mut r, _) = set_up(trace, seed);
    let profile = cgn_trace::TraceConfig {
        sample_one_in: 0,
        profile_phases: true,
        ..cgn_trace::TraceConfig::off()
    };
    r.nat
        .set_tracers(vec![Box::new(cgn_trace::ShardTracer::new(0, &profile))]);
    let warm = r.calls.sweeps;
    let (out0, in0, ob0, ib0, sw0) = (
        r.calls.out_ns,
        r.calls.in_ns,
        r.out_packets,
        r.in_packets,
        r.calls.sweep_ns,
    );
    let (obursts0, ibursts0) = (r.out_bursts, r.in_bursts);
    let cpu0 = report::cpu_secs();
    let t0 = Instant::now();
    while r.out_bursts < steps {
        r.step();
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = report::cpu_secs() - cpu0;
    out.check_digest("replay traced vs untraced", untraced_digest, r.digest);
    out.ops.merge(&r.ops);

    let out_pkts = (r.out_packets - ob0) as f64;
    let in_pkts = (r.in_packets - ib0) as f64;
    let bursts = ((r.out_bursts - obursts0) + (r.in_bursts - ibursts0)) as f64;
    out.set(
        "nat-engine.out_ns_per_pkt",
        (r.calls.out_ns - out0) as f64 / out_pkts.max(1.0),
    );
    out.set(
        "nat-engine.in_ns_per_pkt",
        (r.calls.in_ns - in0) as f64 / in_pkts.max(1.0),
    );
    let sweeps = (r.calls.sweeps - warm).max(1) as f64;
    out.set(
        "nat-engine.sweep_ms",
        (r.calls.sweep_ns - sw0) as f64 / sweeps / 1e6,
    );
    out.set(
        "nat-engine.burst_fill",
        (out_pkts + in_pkts) / bursts.max(1.0),
    );
    let stats = r.nat.merged_stats();
    out.set("nat-engine.live_mappings_peak", stats.peak_mappings as f64);
    out.set("nat-engine.arena_chunks", r.nat.arena_chunks() as f64);
    if let Some(profile) = r.nat.phase_profile() {
        engine_phases(&profile, out);
    }
    drops(&stats, out);
    out.set("traffic.cpu_busy_ratio", cpu / wall.max(1e-9));
    out.set("trace.overhead_ratio", wall / untraced_wall.max(1e-9));
}
