//! The engine-facing log sink: NAT events in, binary log bytes out.
//!
//! One [`LogSink`] type covers every logging policy and destination.
//! It owns the [`TelemetryMode`] filter, the one [`EventLog`] encoder,
//! the `(records, bytes)` counters and the sticky I/O error; a
//! [`LogBacking`] decides only where each freshly encoded record goes:
//!
//! * [`Memory`] ([`BinaryLogSink`]) — records stay where the encoder
//!   put them, so the sink's [`EventLog`] is the whole run's log (the
//!   right shape for analysis and differential tests);
//! * [`Generations`](crate::rotate::Generations)
//!   ([`RotatingFileSink`](crate::RotatingFileSink) for files) — each
//!   record is written to the current `io::Write` generation and the
//!   encoder's buffer is cleared in place, so a long run's log is
//!   never resident.
//!
//! Both backings see the same encoder output, so a generation stream
//! is byte-identical to the in-memory log by construction (pinned by
//! the differential test in `rotate.rs`).

use crate::codec::EventLog;
use nat_engine::telemetry::{BlockEvent, EventSink, MappingEvent, TelemetryMode};
use std::any::Any;

/// Where a [`LogSink`] puts each encoded record.
pub trait LogBacking: Send + Sync {
    /// Store the record the encoder just appended:
    /// `log.bytes()[start..]`. An error makes the sink sticky-failed.
    fn store(&mut self, log: &mut EventLog, start: usize) -> std::io::Result<()>;
}

/// The in-memory backing: the encoder's buffer *is* the log.
#[derive(Debug)]
pub struct Memory;

impl LogBacking for Memory {
    #[inline]
    fn store(&mut self, _log: &mut EventLog, _start: usize) -> std::io::Result<()> {
        Ok(())
    }
}

/// An [`EventSink`] that encodes the events its [`TelemetryMode`]
/// selects and hands each record to its [`LogBacking`]:
///
/// * [`TelemetryMode::PerConnection`] — mapping create/expire pairs
///   (block events ignored): the volume-heavy policy;
/// * [`TelemetryMode::PerBlock`] — block allocate/release pairs
///   (mapping events ignored): bulk port-block logging;
/// * [`TelemetryMode::Sampled`] — NetFlow-style 1-in-N per-connection
///   logging: the mapping events of flows whose
///   [`MappingEvent::flow_key`] is sampled (the same decision the
///   flow tracer makes, so a sampled mapping's create and expire
///   records always travel together and the kept subset is
///   reproducible across runs and thread counts); block events pass
///   through unsampled, as they are already rare;
/// * [`TelemetryMode::Off`] — records nothing (normally no sink is
///   installed at all in this mode; accepting it keeps callers total).
///
/// One sink per engine shard; the shard's worker thread owns it, so no
/// synchronization is involved and per-shard logs are deterministic
/// for any worker-thread count.
///
/// I/O errors cannot surface through the engine's fire-and-forget
/// event calls, so the sink goes *sticky-failed* on the first error:
/// further records are dropped (counted in
/// [`records_dropped`](LogSink::records_dropped)) and the error is
/// reported by [`io_error`](LogSink::io_error) and by the backing's
/// `finish`.
#[derive(Debug)]
pub struct LogSink<B: LogBacking> {
    mode: TelemetryMode,
    log: EventLog,
    backing: B,
    records: u64,
    bytes: u64,
    records_dropped: u64,
    io_error: Option<std::io::Error>,
}

/// The in-memory sink: the whole run's log, recovered with
/// [`into_log`](LogSink::into_log).
pub type BinaryLogSink = LogSink<Memory>;

impl BinaryLogSink {
    pub fn new(mode: TelemetryMode) -> BinaryLogSink {
        LogSink::with_backing(mode, Memory)
    }

    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Consume the sink, keeping its log.
    pub fn into_log(self) -> EventLog {
        self.log
    }
}

impl<B: LogBacking> LogSink<B> {
    pub(crate) fn with_backing(mode: TelemetryMode, backing: B) -> LogSink<B> {
        assert!(
            mode != TelemetryMode::Sampled { one_in: 0 },
            "sampling ratio must be at least 1-in-1"
        );
        LogSink {
            mode,
            log: EventLog::new(),
            backing,
            records: 0,
            bytes: 0,
            records_dropped: 0,
            io_error: None,
        }
    }

    pub fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Records dropped after the sink went sticky-failed.
    pub fn records_dropped(&self) -> u64 {
        self.records_dropped
    }

    /// The first I/O error, if any.
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.io_error.as_ref()
    }

    pub(crate) fn backing(&self) -> &B {
        &self.backing
    }

    /// Split into the backing and the first swallowed error.
    pub(crate) fn into_backing(self) -> (B, Option<std::io::Error>) {
        (self.backing, self.io_error)
    }

    /// Go sticky-failed with `e` unless already failed.
    pub(crate) fn fail(&mut self, e: std::io::Error) {
        self.io_error.get_or_insert(e);
    }

    /// The filter: does this mode log `mapping` (`None` for a block
    /// event)?
    fn keeps(&self, mapping: Option<&MappingEvent>) -> bool {
        match (self.mode, mapping) {
            (TelemetryMode::PerConnection, Some(_)) => true,
            (TelemetryMode::Sampled { one_in }, Some(e)) => e.flow_key().sampled(one_in),
            (TelemetryMode::PerBlock | TelemetryMode::Sampled { .. }, None) => true,
            _ => false,
        }
    }

    /// Run `encode` against the encoder, then hand the new record to
    /// the backing.
    fn record(&mut self, encode: impl FnOnce(&mut EventLog)) {
        if self.io_error.is_some() {
            self.records_dropped += 1;
            return;
        }
        let start = self.log.bytes().len();
        encode(&mut self.log);
        let len = (self.log.bytes().len() - start) as u64;
        match self.backing.store(&mut self.log, start) {
            Ok(()) => {
                self.records += 1;
                self.bytes += len;
            }
            Err(e) => {
                self.io_error = Some(e);
                self.records_dropped += 1;
            }
        }
    }
}

impl<B: LogBacking + 'static> LogSink<B> {
    /// Recover the sink from the boxed trait object the engine hands
    /// back (`Nat::take_sink`); `None` if it is another sink type.
    pub fn from_sink(sink: Box<dyn EventSink>) -> Option<LogSink<B>> {
        sink.into_any().downcast::<LogSink<B>>().ok().map(|b| *b)
    }
}

impl<B: LogBacking + 'static> EventSink for LogSink<B> {
    fn mapping_created(&mut self, event: &MappingEvent) {
        if self.keeps(Some(event)) {
            let e = *event;
            self.record(|log| log.map_create(e.at, e.internal.ip, e.proto, e.external));
        }
    }

    fn mapping_expired(&mut self, event: &MappingEvent) {
        if self.keeps(Some(event)) {
            let e = *event;
            self.record(|log| log.map_expire(e.at, e.proto, e.external));
        }
    }

    fn block_allocated(&mut self, event: &BlockEvent) {
        if self.keeps(None) {
            let e = *event;
            self.record(|log| {
                log.block_alloc(
                    e.at,
                    e.subscriber,
                    e.proto,
                    e.ext_ip,
                    e.block_start,
                    e.block_len,
                )
            });
        }
    }

    fn block_released(&mut self, event: &BlockEvent) {
        if self.keeps(None) {
            let e = *event;
            self.record(|log| log.block_release(e.at, e.proto, e.ext_ip, e.block_start));
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }

    fn volume(&self) -> Option<(u64, u64)> {
        Some((self.records, self.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotate::tests::{drive_to_sticky_failure, page_sink, FailAfter};
    use nat_engine::telemetry::CountingSink;
    use netcore::{ip, Endpoint, Protocol, SimTime};

    fn mapping_event(port: u16) -> MappingEvent {
        MappingEvent {
            at: SimTime::from_secs(1),
            proto: Protocol::Udp,
            internal: Endpoint::new(ip(100, 64, 0, 1), 40_000),
            external: Endpoint::new(ip(198, 51, 100, 1), port),
        }
    }

    fn block_event() -> BlockEvent {
        BlockEvent {
            at: SimTime::from_secs(1),
            proto: Protocol::Udp,
            subscriber: ip(100, 64, 0, 1),
            ext_ip: ip(198, 51, 100, 1),
            block_start: 2048,
            block_len: 512,
        }
    }

    #[test]
    fn mode_selects_what_gets_encoded() {
        let logged = |mode| {
            let mut sink = BinaryLogSink::new(mode);
            sink.mapping_created(&mapping_event(1024));
            sink.block_allocated(&block_event());
            sink.into_log().decode().expect("decodes")
        };
        let per_conn = logged(TelemetryMode::PerConnection);
        assert_eq!(per_conn.len(), 1, "block event filtered out");
        assert!(matches!(per_conn[0], crate::Record::MapCreate { .. }));
        let per_block = logged(TelemetryMode::PerBlock);
        assert_eq!(per_block.len(), 1, "mapping event filtered out");
        assert!(matches!(per_block[0], crate::Record::BlockAlloc { .. }));
        assert_eq!(
            logged(TelemetryMode::Sampled { one_in: 1 }).len(),
            2,
            "1-in-1 keeps the mapping; block events pass through"
        );
        assert!(logged(TelemetryMode::Off).is_empty());
    }

    /// A plain stream (one uncapped generation) carries exactly the
    /// bytes of the in-memory log for the same event sequence, and
    /// decodes to the same records.
    #[test]
    fn write_sink_stream_matches_event_log() {
        let mut mem = BinaryLogSink::new(TelemetryMode::PerConnection);
        let (mut streamed, pages) = page_sink(TelemetryMode::PerConnection, u64::MAX);
        for (k, port) in [1024u16, 2048, 4096, 1024].into_iter().enumerate() {
            let mut e = mapping_event(port);
            e.at = SimTime::from_secs(2 * k as u64 + 1);
            mem.mapping_created(&e);
            streamed.mapping_created(&e);
            e.at = SimTime::from_secs(2 * k as u64 + 2);
            mem.mapping_expired(&e);
            streamed.mapping_expired(&e);
        }
        assert_eq!(streamed.volume(), Some((8, mem.log().len_bytes())));
        assert_eq!(streamed.records_dropped(), 0);
        let generations = streamed.finish().expect("no I/O error");
        assert_eq!(generations.len(), 1, "an uncapped stream never rotates");
        let pages = pages.lock().unwrap();
        assert_eq!(pages[0], mem.log().bytes(), "streams byte-identical");
        let records = crate::codec::decode_bytes(&pages[0]).expect("stream decodes");
        assert_eq!(records, mem.log().decode().expect("log decodes"));
    }

    /// The mode filter is shared by every backing: for each mode a
    /// stream keeps exactly what the in-memory sink keeps.
    #[test]
    fn write_sink_mode_filters_like_binary_sink() {
        let (mut per_block, _) = page_sink(TelemetryMode::PerBlock, u64::MAX);
        per_block.mapping_created(&mapping_event(1024));
        assert_eq!(per_block.volume(), Some((0, 0)), "mapping filtered");
        per_block.block_allocated(&block_event());
        assert_eq!(per_block.volume().expect("measures volume").0, 1);

        for mode in [
            TelemetryMode::PerConnection,
            TelemetryMode::PerBlock,
            TelemetryMode::Sampled { one_in: 4 },
            TelemetryMode::Off,
        ] {
            let mut mem = BinaryLogSink::new(mode);
            let (mut streamed, pages) = page_sink(mode, u64::MAX);
            for port in 1024u16..1088 {
                let sinks: [&mut dyn EventSink; 2] = [&mut mem, &mut streamed];
                for s in sinks {
                    s.mapping_created(&mapping_event(port));
                    s.block_allocated(&block_event());
                    s.mapping_expired(&mapping_event(port));
                    s.block_released(&block_event());
                }
            }
            assert_eq!(streamed.volume(), mem.volume(), "{mode:?}");
            streamed.finish().expect("no I/O error");
            assert_eq!(pages.lock().unwrap()[0], mem.log().bytes(), "{mode:?}");
        }
    }

    /// A write error makes the sink sticky-failed: later records are
    /// dropped and counted, and `finish` surfaces the error.
    #[test]
    fn write_sink_goes_sticky_on_io_error() {
        drive_to_sticky_failure(LogSink::rotating(
            TelemetryMode::PerConnection,
            u64::MAX,
            |_| {
                Ok(FailAfter {
                    taken: 0,
                    limit: 24,
                })
            },
        ));
    }

    /// Behind a buffered writer the error surfaces only when the
    /// buffer drains into the failing writer; the sink goes
    /// sticky-failed there all the same.
    #[test]
    fn buffered_sink_goes_sticky_on_drain_error() {
        drive_to_sticky_failure(LogSink::rotating(
            TelemetryMode::PerConnection,
            u64::MAX,
            |_| {
                Ok(std::io::BufWriter::with_capacity(
                    64,
                    FailAfter {
                        taken: 0,
                        limit: 70,
                    },
                ))
            },
        ));
    }

    /// Every sampled create has its matching expire: the decision is a
    /// pure function of the flow key, so a mapping is either fully
    /// logged or fully absent — never a dangling half.
    #[test]
    fn sampled_sink_keeps_create_expire_pairs_together() {
        let mut s = BinaryLogSink::new(TelemetryMode::Sampled { one_in: 4 });
        for port in 1024u16..1424 {
            s.mapping_created(&mapping_event(port));
        }
        let creates = s.log().records();
        assert!(creates > 0 && creates < 400, "1-in-4 must decimate");
        for port in 1024u16..1424 {
            s.mapping_expired(&mapping_event(port));
        }
        assert_eq!(
            s.log().records(),
            creates * 2,
            "exactly the sampled flows expire into the log"
        );
    }

    /// A sampled sink's `volume()` tracks its log through the engine's
    /// trait object, and `from_sink` recovers it with its ratio.
    #[test]
    fn sampled_sink_volume_tracks_inner_log_and_recovers() {
        let mut sink: Box<dyn EventSink> =
            Box::new(BinaryLogSink::new(TelemetryMode::Sampled { one_in: 4 }));
        for port in 1024u16..1424 {
            sink.mapping_created(&mapping_event(port));
            sink.mapping_expired(&mapping_event(port));
        }
        let (records, bytes) = sink.volume().expect("measures volume");
        assert!(records > 0 && records < 800, "1-in-4 must decimate");
        let back = BinaryLogSink::from_sink(sink).expect("downcast");
        assert_eq!(back.mode(), TelemetryMode::Sampled { one_in: 4 });
        assert_eq!(bytes, back.log().len_bytes());
        assert_eq!(back.into_log().records(), records);
    }

    /// `volume()` reports the encoded `(records, bytes)` through the
    /// engine's trait object, and `from_sink` recovers the concrete
    /// sink (and only that).
    #[test]
    fn round_trips_through_the_engine_trait_object() {
        let mut sink: Box<dyn EventSink> =
            Box::new(BinaryLogSink::new(TelemetryMode::PerConnection));
        sink.mapping_created(&mapping_event(1024));
        sink.mapping_expired(&mapping_event(1024));
        let (records, bytes) = sink.volume().expect("measures volume");
        let back = BinaryLogSink::from_sink(sink).expect("downcast");
        assert_eq!(back.mode(), TelemetryMode::PerConnection);
        assert_eq!(records, 2);
        assert_eq!(bytes, back.log().len_bytes());
        assert_eq!(back.into_log().records(), 2);
        assert!(BinaryLogSink::from_sink(Box::<CountingSink>::default()).is_none());
    }
}
