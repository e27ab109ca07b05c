//! Size-rotated log output: the `logrotate` shape for campaign-scale
//! CGN event logs.
//!
//! The §6.2 log-volume study projects ~75 GiB/day per million
//! subscribers under per-connection logging — no operator keeps that
//! in one file. [`Generations`] is the [`LogSink`] backing that
//! writes the stream into bounded **generations**: when the next
//! record would push the current generation past
//! `max_generation_bytes`, the backing closes it and asks its factory
//! for the next writer (`log.0`, `log.1`, … for [`FileGenerations`]).
//! A cap of `u64::MAX` makes a plain single stream: one generation
//! that never rotates.
//!
//! Two properties matter and are pinned by tests:
//!
//! * **Byte identity** — the sink's one [`EventLog`] encoder spans
//!   every generation (interned ids and delta timestamps are *not*
//!   reset at a boundary), so the concatenation of all generations is
//!   byte-identical to the in-memory
//!   [`BinaryLogSink`](crate::BinaryLogSink) log. A generation is
//!   therefore a byte range of one logical stream, like a rotated
//!   syslog fragment — decode the concatenation, not a lone fragment.
//! * **Record-boundary rotation** — a generation always ends exactly
//!   between two records, never inside one, so re-assembly needs no
//!   byte surgery.
//!
//! Compression is *modeled*, not performed (the offline build has no
//! compressor): closed generations report
//! `bytes × `[`MODELED_COMPRESSION_RATIO`] as their archived size.
//! The constant is a measured property of this codec: the varint +
//! delta-timestamp + interned-id encoding already removes most field
//! redundancy, and what remains (port numbers, timestamp deltas)
//! squeezes to roughly 40% under a generic LZ pass — in line with the
//! compressed-NetFlow ratios operators plan archives around.

use crate::codec::EventLog;
use crate::sink::{LogBacking, LogSink};
use nat_engine::telemetry::TelemetryMode;
use std::fs::File;
use std::io::Write;
use std::path::PathBuf;

/// Modeled archived-size fraction of a closed generation after a
/// generic LZ compression pass over this crate's binary codec (see
/// the module docs for why this is a constant, not a measurement).
pub const MODELED_COMPRESSION_RATIO: f64 = 0.40;

/// Accounting for one closed log generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationStats {
    /// Generation index (0-based, in rotation order).
    pub index: u64,
    /// Encoded bytes written into this generation.
    pub bytes: u64,
    /// Records written into this generation.
    pub records: u64,
}

impl GenerationStats {
    /// The modeled archived size of this generation
    /// (`bytes × MODELED_COMPRESSION_RATIO`, rounded up).
    pub fn compressed_bytes_modeled(&self) -> u64 {
        (self.bytes as f64 * MODELED_COMPRESSION_RATIO).ceil() as u64
    }
}

/// Produces the writer of each log generation. Implemented for any
/// `FnMut(u64) -> io::Result<W>` closure (test fakes);
/// [`FileGenerations`] is the nameable file-backed factory (a
/// concrete type matters when a boxed sink must be recovered from the
/// engine by downcast — closure types cannot be named).
pub trait GenerationFactory: Send + Sync {
    type Writer: Write + Send + Sync;

    /// Open the writer for generation `generation` (0-based).
    fn open(&mut self, generation: u64) -> std::io::Result<Self::Writer>;
}

impl<W, F> GenerationFactory for F
where
    W: Write + Send + Sync,
    F: FnMut(u64) -> std::io::Result<W> + Send + Sync,
{
    type Writer = W;

    fn open(&mut self, generation: u64) -> std::io::Result<W> {
        self(generation)
    }
}

/// File-backed generations: generation `i` lives at `<stem>.<i>`
/// (the classic `access.log.0`, `access.log.1`, … layout), each
/// behind a [`std::io::BufWriter`].
#[derive(Debug, Clone)]
pub struct FileGenerations {
    /// Path stem the generation index is appended to.
    pub stem: PathBuf,
}

impl GenerationFactory for FileGenerations {
    type Writer = std::io::BufWriter<File>;

    fn open(&mut self, generation: u64) -> std::io::Result<Self::Writer> {
        let mut path = self.stem.clone().into_os_string();
        path.push(format!(".{generation}"));
        Ok(std::io::BufWriter::new(File::create(path)?))
    }
}

/// The generation-rotating [`LogBacking`]: each record is written to
/// the current generation's writer and the encoder's buffer is
/// cleared in place, so memory stays bounded by one record.
#[derive(Debug)]
pub struct Generations<F: GenerationFactory> {
    make: F,
    /// `None` only when generation 0 failed to open. When a later open
    /// fails, this keeps the previous, flushed writer. Either way the
    /// sink is then sticky-failed and stores nothing more.
    out: Option<F::Writer>,
    max_generation_bytes: u64,
    current: GenerationStats,
    closed: Vec<GenerationStats>,
}

impl<F: GenerationFactory> Generations<F> {
    fn rotate(&mut self) -> std::io::Result<()> {
        if let Some(out) = self.out.as_mut() {
            out.flush()?;
        }
        self.closed.push(self.current);
        self.current = GenerationStats {
            index: self.current.index + 1,
            bytes: 0,
            records: 0,
        };
        self.out = Some(self.make.open(self.current.index)?);
        Ok(())
    }
}

impl<F: GenerationFactory> LogBacking for Generations<F> {
    fn store(&mut self, log: &mut EventLog, start: usize) -> std::io::Result<()> {
        let chunk = &log.bytes()[start..];
        let len = chunk.len() as u64;
        // Rotate between records only: a non-empty generation that
        // cannot take the whole record is closed first. An oversized
        // record into an empty generation writes anyway — records are
        // never split across generations.
        if self.current.bytes > 0 && self.current.bytes + len > self.max_generation_bytes {
            self.rotate()?;
        }
        let out = self.out.as_mut().expect("writer present unless failed");
        out.write_all(chunk)?;
        log.clear_bytes();
        self.current.bytes += len;
        self.current.records += 1;
        Ok(())
    }
}

/// The file-backed rotating sink — nameable, so it can be installed
/// into the engine as a `Box<dyn EventSink>` and recovered with
/// [`LogSink::from_sink`] when the run ends.
pub type RotatingFileSink = LogSink<Generations<FileGenerations>>;

impl RotatingFileSink {
    /// A rotating sink writing generations `<stem>.0`, `<stem>.1`, …
    pub fn create(
        mode: TelemetryMode,
        max_generation_bytes: u64,
        stem: impl Into<PathBuf>,
    ) -> RotatingFileSink {
        LogSink::rotating(
            mode,
            max_generation_bytes,
            FileGenerations { stem: stem.into() },
        )
    }
}

impl<F: GenerationFactory> LogSink<Generations<F>> {
    /// A sink whose generations hold at most `max_generation_bytes`
    /// encoded bytes each (a single record larger than the cap gets a
    /// generation of its own). The factory is called with the
    /// generation index: `0` eagerly here, so a sink that logs
    /// nothing still leaves an (empty) artifact behind, then `1, 2, …`
    /// at each rotation. A factory error makes the sink sticky-failed
    /// exactly like a write error.
    pub fn rotating(mode: TelemetryMode, max_generation_bytes: u64, mut make: F) -> Self {
        assert!(max_generation_bytes > 0, "generation cap must be non-zero");
        let (out, error) = match make.open(0) {
            Ok(w) => (Some(w), None),
            Err(e) => (None, Some(e)),
        };
        let mut sink = LogSink::with_backing(
            mode,
            Generations {
                make,
                out,
                max_generation_bytes,
                current: GenerationStats {
                    index: 0,
                    bytes: 0,
                    records: 0,
                },
                closed: Vec::new(),
            },
        );
        if let Some(e) = error {
            sink.fail(e);
        }
        sink
    }

    /// Completed rotations so far (`cgn_log_rotations_total`).
    pub fn rotations(&self) -> u64 {
        self.backing().closed.len() as u64
    }

    /// Close the final generation: flush the current writer and return
    /// the stats of **every** generation (the last one included), or
    /// the first error the sink swallowed.
    pub fn finish(self) -> std::io::Result<Vec<GenerationStats>> {
        let (mut g, error) = self.into_backing();
        if let Some(e) = error {
            return Err(e);
        }
        if let Some(out) = g.out.as_mut() {
            out.flush()?;
        }
        g.closed.push(g.current);
        Ok(g.closed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sink::BinaryLogSink;
    use nat_engine::telemetry::{EventSink, MappingEvent};
    use netcore::{ip, Endpoint, Protocol, SimTime};
    use std::sync::{Arc, Mutex};

    pub(crate) type Pages = Arc<Mutex<Vec<Vec<u8>>>>;

    /// A sink over a shared vec-of-generations: generation `i` writes
    /// into `pages[i]`.
    pub(crate) fn page_sink(
        mode: TelemetryMode,
        cap: u64,
    ) -> (LogSink<Generations<impl GenerationFactory>>, Pages) {
        let pages = Pages::default();
        let shared = Arc::clone(&pages);
        let make = move |gen| {
            let mut p = shared.lock().unwrap();
            assert_eq!(gen as usize, p.len(), "generations open in order");
            p.push(Vec::new());
            Ok(PageWriter {
                pages: Arc::clone(&shared),
                index: gen as usize,
            })
        };
        (LogSink::rotating(mode, cap, make), pages)
    }

    struct PageWriter {
        pages: Pages,
        index: usize,
    }

    impl Write for PageWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.pages.lock().unwrap()[self.index].extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Errors once more than `limit` bytes have been written.
    pub(crate) struct FailAfter {
        pub(crate) taken: usize,
        pub(crate) limit: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.taken + buf.len() > self.limit {
                return Err(std::io::Error::other("disk full"));
            }
            self.taken += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn mapping_event(port: u16, at_ms: u64) -> MappingEvent {
        MappingEvent {
            at: SimTime::from_millis(at_ms),
            internal: Endpoint::new(ip(100, 64, 0, 7), port),
            proto: Protocol::Udp,
            external: Endpoint::new(ip(198, 18, 0, 1), port),
        }
    }

    /// The headline property: the concatenated generations are
    /// byte-identical to a single uncapped stream and to the in-memory
    /// log, every rotation happens on a record boundary, and the
    /// per-generation accounting sums to the whole.
    #[test]
    fn concatenated_generations_are_byte_identical_to_single_stream() {
        let mode = TelemetryMode::PerConnection;
        let (mut rotating, pages) = page_sink(mode, 64); // tiny cap: many rotations
        let (mut single, single_pages) = page_sink(mode, u64::MAX);
        let mut reference = BinaryLogSink::new(mode);
        for k in 0..200u16 {
            let at = 1_000 + k as u64 * 50;
            let mut events = vec![mapping_event(10_000 + k, at)];
            if k % 3 == 0 {
                events.push(mapping_event(10_000 + k, at + 17));
            }
            for (i, e) in events.iter().enumerate() {
                let sinks: [&mut dyn EventSink; 3] = [&mut rotating, &mut single, &mut reference];
                for s in sinks {
                    if i == 0 {
                        s.mapping_created(e);
                    } else {
                        s.mapping_expired(e);
                    }
                }
            }
        }

        assert!(rotating.rotations() > 2, "tiny cap must rotate");
        assert_eq!(single.rotations(), 0, "an uncapped stream never rotates");
        let volume = reference.volume();
        assert_eq!(rotating.volume(), volume);
        assert_eq!(single.volume(), volume);
        let (total_records, total_bytes) = volume.expect("measures volume");

        let generations = rotating.finish().expect("no I/O errors");
        single.finish().expect("no I/O errors");
        let pages = pages.lock().unwrap();
        assert_eq!(pages.len(), generations.len());
        let mut concat = Vec::new();
        for (page, stats) in pages.iter().zip(&generations) {
            assert_eq!(page.len() as u64, stats.bytes);
            assert!(
                stats.bytes <= 64 || stats.records == 1,
                "a generation only exceeds the cap for a single oversized record"
            );
            assert!(
                stats.compressed_bytes_modeled() <= stats.bytes,
                "modeled archive never exceeds the raw bytes"
            );
            concat.extend_from_slice(page);
            // Record-boundary rotation: the stream cut at every
            // generation boundary is a valid stream prefix.
            crate::codec::decode_bytes(&concat)
                .expect("every generation boundary is a record boundary");
        }
        assert_eq!(concat, single_pages.lock().unwrap()[0], "== single stream");
        assert_eq!(concat, reference.log().bytes(), "…and == the in-memory log");
        assert_eq!(
            generations.iter().map(|g| g.records).sum::<u64>(),
            total_records,
            "per-generation records sum to the whole"
        );
        assert_eq!(
            generations.iter().map(|g| g.bytes).sum::<u64>(),
            total_bytes,
            "per-generation bytes sum to the whole"
        );
    }

    /// The same identity behind a live engine, for every logging
    /// policy: a memory sink and a small-cap rotating sink installed
    /// into identical `Nat` runs log the same, non-empty bytes.
    #[test]
    fn generations_match_memory_behind_a_nat() {
        use nat_engine::{Nat, NatConfig, PortAllocation};
        use netcore::Packet;

        let run = |mode: TelemetryMode, sink: Box<dyn EventSink>| -> Box<dyn EventSink> {
            let mut config = NatConfig::cgn_default();
            if mode == TelemetryMode::PerBlock {
                config.port_alloc = PortAllocation::PortBlock { block_size: 64 };
            }
            let mut nat = Nat::new(config, vec![ip(198, 51, 100, 1)], 7);
            nat.set_sink(sink);
            for k in 0..200u16 {
                let src = Endpoint::new(ip(100, 64, 0, (k % 8) as u8 + 1), 40_000 + k);
                let dst = Endpoint::new(ip(203, 0, 113, 10), 8000);
                let _ = nat
                    .process_outbound(Packet::udp(src, dst, vec![]), SimTime::from_secs(k as u64));
            }
            nat.sweep(SimTime::from_secs(1_000));
            nat.take_sink().expect("installed")
        };
        for mode in [
            TelemetryMode::PerConnection,
            TelemetryMode::PerBlock,
            TelemetryMode::Sampled { one_in: 4 },
        ] {
            let mem = BinaryLogSink::from_sink(run(mode, Box::new(BinaryLogSink::new(mode))))
                .expect("type")
                .into_log();
            let (rotating, pages) = page_sink(mode, 32);
            let rotating = run(mode, Box::new(rotating));
            assert!(!mem.is_empty(), "{mode:?}: the run must log something");
            assert_eq!(rotating.volume(), Some((mem.records(), mem.len_bytes())));
            let pages = pages.lock().unwrap();
            assert!(pages.len() > 1, "{mode:?}: the small cap must rotate");
            let concat = pages.concat();
            assert_eq!(concat, mem.bytes(), "{mode:?}: generations == memory");
            assert_eq!(
                crate::codec::decode_bytes(&concat).expect("decodes"),
                mem.decode().expect("decodes")
            );
        }
    }

    /// Log into `sink` until it goes sticky-failed, then check the
    /// failure is sticky: later records are dropped and counted, the
    /// volume stops moving, and `finish` surfaces the error.
    pub(crate) fn drive_to_sticky_failure<F: GenerationFactory + 'static>(
        mut sink: LogSink<Generations<F>>,
    ) {
        let mut port = 20_000u16;
        while sink.io_error().is_none() && port < 21_000 {
            sink.mapping_created(&mapping_event(port, 5_000 + port as u64));
            port += 1;
        }
        assert!(sink.io_error().is_some(), "the limit must trip");
        let written = sink.volume();
        let dropped = sink.records_dropped();
        assert!(dropped >= 1, "the failing record is dropped");
        sink.mapping_created(&mapping_event(port, 5_000 + port as u64));
        assert_eq!(sink.volume(), written, "sticky-failed");
        assert_eq!(sink.records_dropped(), dropped + 1);
        assert!(sink.finish().is_err(), "finish surfaces the error");
    }

    /// A factory error behaves exactly like a write error (see
    /// `sink::tests::write_sink_goes_sticky_on_io_error`): the sink
    /// goes sticky-failed, whether generation 0 or a later generation
    /// fails to open.
    #[test]
    fn factory_failure_is_sticky() {
        let mut calls = 0u64;
        let open_fails = LogSink::rotating(TelemetryMode::PerConnection, 16, move |_| {
            calls += 1;
            if calls > 1 {
                Err(std::io::Error::other("disk full"))
            } else {
                Ok(Vec::<u8>::new())
            }
        });
        drive_to_sticky_failure(open_fails);

        let mut first_open_fails = LogSink::rotating(TelemetryMode::PerConnection, 16, |_| {
            std::io::Result::<Vec<u8>>::Err(std::io::Error::other("no such directory"))
        });
        assert!(first_open_fails.io_error().is_some(), "generation 0 failed");
        first_open_fails.mapping_created(&mapping_event(1024, 1));
        assert_eq!(first_open_fails.records_dropped(), 1);
        assert_eq!(first_open_fails.volume(), Some((0, 0)));
        assert!(first_open_fails.finish().is_err());
    }
}
