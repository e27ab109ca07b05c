//! `soak`: the operator's long-lived session at the `SoakConfig::ci()`
//! shape on one driver thread, with windowed metrics on, in-memory
//! per-connection `BinaryLogSink`s per shard, and a live `OpsServer`
//! published at each closed window. One scraper thread pulls
//! `/metrics` over one connection at a time, open loop on a fixed wall
//! interval, each scrape timed from its due time. After the session the
//! logs are decoded, indexed, and asked seeded abuse probes ("who held
//! this external IP:port at time T?"), each checked against the
//! subscriber of the `MapCreate` record it was drawn from.

use crate::report::{self, driver_phases, drops, fold_str, Outcome, FNV_OFFSET};
use crate::{Args, Produced};
use cgn_metrics::expo;
use cgn_opsd::{OpsServer, SoakConfig};
use cgn_telemetry::{decode_bytes, BinaryLogSink, Record, TraceIndex};
use cgn_traffic::DriverSession;
use nat_engine::{BlockEvent, EventSink, MappingEvent, TelemetryMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Wall interval between scrapes.
const SCRAPE_EVERY: Duration = Duration::from_millis(10);
/// A scrape slower than this (from its due time) is a failure.
const SCRAPE_DEADLINE: Duration = Duration::from_secs(1);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

fn soak_config(args: &Args) -> SoakConfig {
    let mut c = if args.smoke {
        SoakConfig::smoke()
    } else {
        SoakConfig::ci()
    };
    c.seed = args.seed;
    c.threads = 1;
    c
}

fn probes(smoke: bool) -> usize {
    if smoke {
        2_000
    } else {
        50_000
    }
}

/// Benchmark-side timing decorator around a shard's sink (traced run
/// only).
struct TimedSink {
    inner: Box<dyn EventSink>,
    nanos: u64,
}

impl TimedSink {
    fn time(&mut self, f: impl FnOnce(&mut dyn EventSink)) {
        let t0 = Instant::now();
        f(self.inner.as_mut());
        self.nanos += t0.elapsed().as_nanos() as u64;
    }
}

impl EventSink for TimedSink {
    fn mapping_created(&mut self, event: &MappingEvent) {
        self.time(|s| s.mapping_created(event));
    }
    fn mapping_expired(&mut self, event: &MappingEvent) {
        self.time(|s| s.mapping_expired(event));
    }
    fn block_allocated(&mut self, event: &BlockEvent) {
        self.time(|s| s.block_allocated(event));
    }
    fn block_released(&mut self, event: &BlockEvent) {
        self.time(|s| s.block_released(event));
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn volume(&self) -> Option<(u64, u64)> {
        self.inner.volume()
    }
}

/// What the scraper thread saw.
#[derive(Default)]
struct Scrapes {
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    bytes: u64,
    errors: u64,
    timeouts: u64,
    /// Empty expositions served after the first publish.
    wrong: u64,
}

/// Open-loop scraper: one request per `SCRAPE_EVERY`, each timed from
/// when it was due, until `stop`.
fn scraper(addr: std::net::SocketAddr, published: &AtomicBool, stop: &AtomicBool) -> Scrapes {
    let mut s = Scrapes::default();
    let start = Instant::now();
    let mut due = start;
    while !stop.load(Ordering::Relaxed) {
        due += SCRAPE_EVERY;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let expect_series = published.load(Ordering::Acquire);
        let result = cgn_opsd::scrape(addr, "/metrics");
        let latency = due.elapsed();
        s.latency_ms.push(latency.as_secs_f64() * 1e3);
        s.lag_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
        if latency > SCRAPE_DEADLINE {
            s.timeouts += 1;
        }
        match result {
            Ok(body) => {
                s.bytes += body.len() as u64;
                if expect_series && cgn_opsd::parse_scalars(&body).is_empty() {
                    s.wrong += 1;
                }
            }
            Err(_) => s.errors += 1,
        }
    }
    s
}

/// Benchmark-side spans and counts of one session's stepping loop.
#[derive(Default)]
struct Steps {
    wall_s: f64,
    cpu_s: f64,
    step_ns: Vec<f64>,
    window_ns: u64,
    windows: u64,
    publish_ns: u64,
    publishes: u64,
    render_ns: u64,
    renders: u64,
    series: u64,
    stream_digest: u64,
}

/// Output of one session: everything the metrics need.
struct Session {
    steps: Steps,
    logs: Vec<Vec<u8>>,
    records: u64,
    sink_ns: u64,
    scrapes: Scrapes,
    served: u64,
    server_errors: u64,
    final_check: Result<u64, String>,
    summary: cgn_traffic::RunSummary,
    profile: Option<cgn_trace::PhaseProfiler>,
    arena_chunks: u64,
}

fn session(mut s: DriverSession, traced: bool) -> std::io::Result<Session> {
    let shards = s.config().shards as usize;
    let sinks: Vec<Box<dyn EventSink>> = (0..shards)
        .map(|_| {
            let log: Box<dyn EventSink> =
                Box::new(BinaryLogSink::new(TelemetryMode::PerConnection));
            if traced {
                Box::new(TimedSink {
                    inner: log,
                    nanos: 0,
                }) as Box<dyn EventSink>
            } else {
                log
            }
        })
        .collect();
    s.install_event_sinks(sinks);
    let server = OpsServer::bind("127.0.0.1:0")?;
    let addr = server.local_addr();
    let published = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let mut st = Steps {
        stream_digest: FNV_OFFSET,
        ..Steps::default()
    };

    let (scrapes, final_check) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| scraper(addr, &published, &stop));
        let cpu0 = report::cpu_secs();
        let t0 = Instant::now();
        loop {
            let step_t = Instant::now();
            if s.step().is_none() {
                break;
            }
            st.step_ns.push(step_t.elapsed().as_nanos() as f64);
            let window_t = Instant::now();
            let closed = s.drain_closed_windows();
            for win in &closed {
                let row = s.metrics_row(win);
                st.stream_digest = fold_str(st.stream_digest, &format!("{row:?}"));
                st.windows += 1;
            }
            if closed.is_empty() {
                continue;
            }
            st.window_ns += window_t.elapsed().as_nanos() as u64;
            let health = s.health();
            if let Some(snap) = s.latest_snapshot() {
                let publish_t = Instant::now();
                server.publish(snap, &health);
                st.publish_ns += publish_t.elapsed().as_nanos() as u64;
                st.publishes += 1;
                published.store(true, Ordering::Release);
                if traced {
                    let render_t = Instant::now();
                    std::hint::black_box(expo::render(snap));
                    st.render_ns += render_t.elapsed().as_nanos() as u64;
                    st.renders += 1;
                    st.series = snap.samples.len() as u64;
                }
            }
        }
        st.wall_s = t0.elapsed().as_secs_f64();
        st.cpu_s = report::cpu_secs() - cpu0;
        // The last exposition, scraped while the session is still live,
        // must match the snapshot it was rendered from series for series.
        let final_check = match s.latest_snapshot() {
            Some(snap) => cgn_opsd::scrape(addr, "/metrics")
                .map_err(|e| e.to_string())
                .and_then(|body| cgn_opsd::verify_scrape(&body, snap)),
            None => Err("no snapshot was published".to_string()),
        };
        stop.store(true, Ordering::Relaxed);
        (
            scraper.join().expect("scraper thread panicked"),
            final_check,
        )
    });
    let served = server.scrapes_served();
    let server_errors = server.scrape_errors();
    server.shutdown();

    let arena_chunks = s
        .latest_snapshot()
        .map_or(0, |snap| snap.scalar("cgn_arena_chunks"));
    let profile = s.phase_profile();
    let mut logs = Vec::new();
    let (mut records, mut sink_ns) = (0u64, 0u64);
    for sink in s.take_event_sinks().into_iter().flatten() {
        let sink = if traced {
            let timed = sink
                .into_any()
                .downcast::<TimedSink>()
                .expect("traced soak installs timed sinks");
            sink_ns += timed.nanos;
            timed.inner
        } else {
            sink
        };
        let mut log = BinaryLogSink::from_sink(sink)
            .expect("soak installs binary log sinks")
            .into_log();
        records += log.records();
        logs.push(log.drain_bytes());
    }
    let (summary, _) = s.finish();
    // The windows still in the ring at exit, ending with the open final
    // window, close the stream (as the soak daemon folds them).
    for row in summary.metrics.iter().flat_map(|m| &m.windows) {
        st.stream_digest = fold_str(st.stream_digest, &format!("{row:?}"));
    }
    Ok(Session {
        steps: st,
        logs,
        records,
        sink_ns,
        scrapes,
        served,
        server_errors,
        final_check,
        summary,
        profile,
        arena_chunks,
    })
}

/// Decode, index and probe the logs of a session.
struct Attribution {
    decode_s: f64,
    index_s: f64,
    intervals: u64,
    query_us: Vec<f64>,
    wrong: u64,
    missing: u64,
}

fn attribute(logs: &[Vec<u8>], seed: u64, probes: usize) -> Result<Attribution, String> {
    let t0 = Instant::now();
    let mut records: Vec<Record> = Vec::new();
    for log in logs {
        records.extend(decode_bytes(log).map_err(|e| e.to_string())?);
    }
    let decode_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let index = TraceIndex::build(&records);
    let index_s = t0.elapsed().as_secs_f64();

    let creates: Vec<&Record> = records
        .iter()
        .filter(|r| matches!(r, Record::MapCreate { .. }))
        .collect();
    if creates.is_empty() {
        return Err("the logs hold no MapCreate record".to_string());
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5052_4f42_4553);
    let mut a = Attribution {
        decode_s,
        index_s,
        intervals: index.port_intervals() as u64,
        query_us: Vec::with_capacity(probes),
        wrong: 0,
        missing: 0,
    };
    for _ in 0..probes {
        let Record::MapCreate {
            at_ms,
            subscriber,
            proto,
            external,
        } = *creates[rng.gen_range(0..creates.len())]
        else {
            unreachable!("only MapCreate records are drawn");
        };
        // Every mapping lives at least one (clamped) timeout, longer
        // than this offset, so the holder at the probe instant is the
        // record's subscriber.
        let at = at_ms + rng.gen_range(0..30_000u64);
        let t0 = Instant::now();
        let answer = index.query(proto, external, at);
        a.query_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        match answer {
            Some(s) if s == subscriber => {}
            Some(_) => a.wrong += 1,
            None => a.missing += 1,
        }
    }
    Ok(a)
}

pub fn run(args: &Args) -> (Outcome, Produced) {
    let cfg = soak_config(args);
    let driver = cfg.driver_config();
    let mut out = Outcome::default();

    let setups = if args.traced { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..setups {
        drop(kept.take());
        let t0 = Instant::now();
        let s = DriverSession::new(&driver);
        setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let untraced = match session(kept.expect("at least one set-up"), false) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("soak session: {e}"));
            return (out, Vec::new());
        }
    };
    let attribution = attribute(&untraced.logs, args.seed, probes(args.smoke));
    account(&untraced, &attribution, &mut out);
    let mut scrape_ms = untraced.scrapes.latency_ms.clone();
    out.also.push((
        "scrape_ms_p50",
        report::quantile(&mut scrape_ms, 0.50),
        "ms",
    ));
    out.also.push((
        "scrape_ms_p99",
        report::quantile(&mut scrape_ms, 0.99),
        "ms",
    ));
    if let Ok(a) = &attribution {
        let mut query_us = a.query_us.clone();
        out.also
            .push(("trace_index_s", a.decode_s + a.index_s, "s"));
        out.also.push((
            "trace_query_us_p50",
            report::quantile(&mut query_us, 0.50),
            "us",
        ));
        out.also.push((
            "trace_query_us_p99",
            report::quantile(&mut query_us, 0.99),
            "us",
        ));
    }

    out.set("setup_s", report::median(&mut setup_s));
    let stats = &untraced.summary.stats;
    out.set(
        "packets_per_s",
        (stats.out_packets + stats.in_packets) as f64 / untraced.steps.wall_s,
    );
    out.set(
        "flows_per_s",
        untraced.summary.flows_started as f64 / untraced.steps.wall_s,
    );
    out.set(
        "sim_s_per_wall_s",
        cfg.duration_secs as f64 / untraced.steps.wall_s,
    );
    // The operator loop's unit of work is one step. Scrape latency is a
    // per-layer metric: its tail follows the load of whatever else
    // shares the machine far more than the code.
    let mut step_us: Vec<f64> = untraced.steps.step_ns.iter().map(|ns| ns / 1e3).collect();
    out.set("op_us_p50", report::quantile(&mut step_us, 0.50));
    out.set("op_us_p99", report::quantile(&mut step_us, 0.99));
    eprintln!(
        "soak: {} flows, {} windows, {} scrapes, {} records in {:.2} s",
        untraced.summary.flows_started,
        untraced.steps.windows,
        untraced.scrapes.latency_ms.len(),
        untraced.records,
        untraced.steps.wall_s
    );
    let produced = vec![("soak.windows".to_string(), untraced.steps.stream_digest)];

    if args.traced {
        traced_pass(args, &driver, &untraced, &mut out);
    }
    (out, produced)
}

/// Count the session's operations and failures.
fn account(s: &Session, a: &Result<Attribution, String>, out: &mut Outcome) {
    let stats = &s.summary.stats;
    out.ops.attempted +=
        s.summary.flows_started + stats.in_packets + s.scrapes.latency_ms.len() as u64;
    out.ops.fail("blocked_flows", s.summary.flows_blocked);
    // Inbound packets are replies to flows forwarded in the same
    // millisecond: any inbound drop is a failure.
    out.ops.fail(
        "dropped_replies",
        stats.drop_no_mapping + stats.drop_filtered,
    );
    out.ops.fail("scrape_errors", s.scrapes.errors);
    out.ops.fail("scrape_timeouts", s.scrapes.timeouts);
    out.ops.fail("scrape_wrong", s.scrapes.wrong);
    if let Err(e) = &s.final_check {
        out.ops.fail("scrape_wrong", 1);
        out.errors
            .push(format!("final scrape does not match the snapshot: {e}"));
    }
    match a {
        Ok(a) => {
            out.ops.attempted += a.query_us.len() as u64;
            out.ops.fail("probe_wrong", a.wrong);
            out.ops.fail("probe_missing", a.missing);
        }
        Err(e) => out.errors.push(format!("attribution: {e}")),
    }
}

/// Run the session again with the phase profiler, timed sinks and
/// benchmark-side spans; fills the per-layer metrics and checks the
/// window stream is unchanged.
fn traced_pass(
    args: &Args,
    driver: &cgn_traffic::DriverConfig,
    untraced: &Session,
    out: &mut Outcome,
) {
    let mut cfg = driver.clone();
    cfg.trace = cgn_traffic::TraceConfig {
        sample_one_in: 0,
        profile_phases: true,
        ..cgn_traffic::TraceConfig::off()
    };
    let t = match session(DriverSession::new(&cfg), true) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("traced soak session: {e}"));
            return;
        }
    };
    out.check_digest(
        "soak.windows traced vs untraced",
        untraced.steps.stream_digest,
        t.steps.stream_digest,
    );
    out.check_digest(
        "soak summary traced vs untraced",
        untraced.summary.digest(),
        t.summary.digest(),
    );
    if t.logs != untraced.logs {
        out.errors
            .push("traced event logs differ from the untraced logs".to_string());
    }
    let attribution = attribute(&t.logs, args.seed, probes(args.smoke));
    account(&t, &attribution, out);

    let stats = &t.summary.stats;
    if let Some(profile) = &t.profile {
        driver_phases(
            profile,
            t.summary.flows_started,
            stats.out_packets,
            stats.in_packets,
            out,
        );
    }
    out.set("nat-engine.live_mappings_peak", stats.peak_mappings as f64);
    out.set("nat-engine.arena_chunks", t.arena_chunks as f64);
    drops(stats, out);
    let mut step_ms: Vec<f64> = t.steps.step_ns.iter().map(|ns| ns / 1e6).collect();
    out.set("traffic.step_ms_p50", report::quantile(&mut step_ms, 0.50));
    out.set("traffic.step_ms_p99", report::quantile(&mut step_ms, 0.99));
    out.set(
        "traffic.cpu_busy_ratio",
        t.steps.cpu_s / t.steps.wall_s.max(1e-9),
    );
    out.set(
        "traffic.shard_imbalance",
        t.summary.shard_load.flow_imbalance,
    );

    let records = t.records.max(1) as f64;
    let bytes: usize = t.logs.iter().map(Vec::len).sum();
    out.set("telemetry.sink_ns_per_record", t.sink_ns as f64 / records);
    out.set("telemetry.records", t.records as f64);
    out.set("telemetry.bytes_per_record", bytes as f64 / records);
    // A failed attribution is already an error (see `account`).
    if let Ok(mut a) = attribution {
        out.set("telemetry.decode_ms", a.decode_s * 1e3);
        out.set("telemetry.index_build_ms", a.index_s * 1e3);
        out.set("telemetry.index_intervals", a.intervals as f64);
        out.set(
            "telemetry.query_us_p50",
            report::quantile(&mut a.query_us, 0.50),
        );
        out.set(
            "telemetry.query_us_p99",
            report::quantile(&mut a.query_us, 0.99),
        );
    }

    out.set(
        "metrics.window_ms",
        t.steps.window_ns as f64 / t.steps.windows.max(1) as f64 / 1e6,
    );
    out.set(
        "metrics.render_ms",
        t.steps.render_ns as f64 / t.steps.renders.max(1) as f64 / 1e6,
    );
    out.set("metrics.series", t.steps.series as f64);
    out.set(
        "opsd.publish_ms",
        t.steps.publish_ns as f64 / t.steps.publishes.max(1) as f64 / 1e6,
    );
    let scrapes = t.scrapes.latency_ms.len().max(1) as f64;
    out.set("opsd.scrape_bytes", t.scrapes.bytes as f64 / scrapes);
    out.set("opsd.scrapes_served", t.served as f64);
    out.set("opsd.scrape_errors", t.server_errors as f64);
    let mut latency = t.scrapes.latency_ms.clone();
    out.set("opsd.scrape_ms_p50", report::quantile(&mut latency, 0.50));
    out.set("opsd.scrape_ms_p99", report::quantile(&mut latency, 0.99));
    let mut lag = t.scrapes.lag_ms.clone();
    out.set("opsd.scraper_lag_ms", report::quantile(&mut lag, 0.99));
    out.set(
        "trace.overhead_ratio",
        t.steps.wall_s / untraced.steps.wall_s.max(1e-9),
    );
}
