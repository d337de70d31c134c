//! The per-connection wire protocol as a sans-IO state machine.
//!
//! [`Connection`] is everything the daemon does with one connection's
//! decoded input, and nothing it does with sockets, threads or clocks.
//! Both connection engines drive it:
//!
//! * the threads engine feeds it what the blocking
//!   [`read_frame`](crate::wire::read_frame) returns — frames straight off
//!   the socket, no extra copy — and writes its replies through the
//!   connection's shared writer;
//! * the poll engine feeds it what its
//!   [`FrameDecoder`](crate::frames::FrameDecoder) reassembles, maps end of
//!   stream and its deadline sweep onto the same [`WireError`]s
//!   (`Closed`, `Io(UnexpectedEof)`, `Idle`, `Stalled`), and flushes the
//!   replies as writability allows.
//!
//! The input is `Result<Frame, WireError>`; the output is reply bytes in
//! an out-buffer the host drains ([`Connection::output`] /
//! [`Connection::consume`]), a close-after-flush verdict
//! ([`Connection::is_closed`]) and work handed to the host's admission
//! callback. The core owns the handshake (silent drops before it), the
//! chunk reassembly and its gauge, the inline `StatsRequest` answer, and
//! every connection-level fault frame with its metric sequence, so the
//! two engines cannot drift apart. [`Protocol`] is the daemon-wide half:
//! the settings every connection reads and the counters they all bump.

use crate::frames::{ChunkAssembler, ChunkProgress};
use crate::server::{ServerConfig, ServerStats};
use crate::wire::{self, FaultCode, Frame, FrameType, WireError, WireFault};
use std::sync::atomic::{AtomicBool, Ordering};

/// Retained-capacity bound for a drained out-buffer.
const OUT_SHRINK: usize = 64 * 1024;

/// Pre-resolved handles onto the `server.*` and `net.chunk.*` catalogue
/// entries, so hot paths never touch the registry's name map.
pub(crate) struct Metrics {
    connections: axml_obs::Counter,
    requests: axml_obs::Counter,
    responses_ok: axml_obs::Counter,
    faults: axml_obs::Counter,
    busy: axml_obs::Counter,
    timeouts: axml_obs::Counter,
    too_large: axml_obs::Counter,
    pub(crate) panics: axml_obs::Counter,
    pub(crate) queue_depth: axml_obs::Gauge,
    frame_bytes: axml_obs::Histogram,
    /// Poll engine only: live connections across all shards.
    pub(crate) poll_connections: axml_obs::Gauge,
    /// Poll engine only: bytes held in per-connection read/write buffers
    /// across all shards (the bounded-memory witness).
    pub(crate) poll_buffer_bytes: axml_obs::Gauge,
    chunk_frames: axml_obs::Counter,
    chunk_bytes: axml_obs::Counter,
    chunk_aborts: axml_obs::Counter,
    chunk_reassembly: axml_obs::Gauge,
}

impl Metrics {
    fn new(r: &axml_obs::Registry) -> Self {
        Metrics {
            connections: r.counter("server.connections_total"),
            requests: r.counter("server.requests_total"),
            responses_ok: r.counter("server.responses_ok_total"),
            faults: r.counter("server.faults_total"),
            busy: r.counter("server.busy_total"),
            timeouts: r.counter("server.timeouts_total"),
            too_large: r.counter("server.frame_too_large_total"),
            panics: r.counter("server.panics_total"),
            queue_depth: r.gauge("server.queue_depth"),
            frame_bytes: r.histogram("server.frame_bytes", axml_obs::BYTES_BOUNDS),
            poll_connections: r.gauge("server.poll.connections"),
            poll_buffer_bytes: r.gauge("server.poll.buffer_bytes"),
            chunk_frames: r.counter("net.chunk.frames_total"),
            chunk_bytes: r.counter("net.chunk.bytes_total"),
            chunk_aborts: r.counter("net.chunk.aborts_total"),
            chunk_reassembly: r.gauge("net.chunk.reassembly_bytes"),
        }
    }
}

/// The daemon-wide half of the protocol, shared by every connection and
/// worker: the handshake name, the reassembly cap, the stop flag, and the
/// accounting. Every accepted request ends in exactly one
/// [`Protocol::answer`] success or one fault, so
/// `requests_total = responses_ok_total + faults_total` holds.
pub struct Protocol {
    name: String,
    max_doc: usize,
    registry: axml_obs::Registry,
    pub(crate) stats: ServerStats,
    pub(crate) metrics: Metrics,
    stop: AtomicBool,
}

impl Protocol {
    /// The protocol state a daemon with `config` serves with. Metrics go
    /// into `config.metrics`, which `StatsRequest` frames also scrape.
    pub fn new(config: &ServerConfig) -> Protocol {
        Protocol {
            name: config.name.clone(),
            max_doc: config.max_doc,
            registry: config.metrics.clone(),
            stats: ServerStats::default(),
            metrics: Metrics::new(&config.metrics),
            stop: AtomicBool::new(false),
        }
    }

    /// Accounts a dispatched job's outcome and builds its reply frame.
    pub fn answer(&self, id: u64, outcome: Result<String, WireFault>) -> Frame {
        match outcome {
            Ok(envelope) => {
                self.stats.served.fetch_add(1, Ordering::Relaxed);
                self.metrics.requests.inc();
                self.metrics.responses_ok.inc();
                wire::response(id, &envelope)
            }
            Err(fault) => {
                self.fault();
                wire::fault(id, &fault)
            }
        }
    }

    /// Accounts one accepted connection.
    pub(crate) fn accepted(&self) {
        self.stats.accepted.fetch_add(1, Ordering::Relaxed);
        self.metrics.connections.inc();
    }

    /// Accounts one faulted request, in both `ServerStats` and `server.*`.
    fn fault(&self) {
        self.stats.faulted.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.inc();
        self.metrics.faults.inc();
    }

    /// Accounts one request bounced by a full queue: a fault on the wire,
    /// counted apart from the others in `ServerStats`.
    fn reject_busy(&self) {
        self.stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
        self.metrics.requests.inc();
        self.metrics.faults.inc();
        self.metrics.busy.inc();
    }

    /// Raises the stop flag: from now on frames are answered with a
    /// retryable `Shutdown` fault and idle connections close.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Work a connection hands to the worker pool.
#[derive(Debug)]
pub enum Work {
    /// A request envelope (UTF-8 XML).
    Envelope(String),
    /// A reassembled, digest-verified chunk-shipped document.
    Document {
        /// The repository name from `DocChunkStart`.
        name: String,
        /// The document text.
        text: String,
    },
}

/// The host's verdict on a job offered to its worker queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Queued; a worker will [`answer`](Protocol::answer) it.
    Admitted,
    /// The queue is full: the request bounces with a retryable `Busy`.
    Busy,
    /// The queue is gone (shutdown): retryable `Shutdown`, then close.
    Closed,
}

/// One connection's protocol state. See the module docs.
pub struct Connection {
    handshaken: bool,
    closed: bool,
    assembler: ChunkAssembler,
    /// Reassembly bytes last published to `net.chunk.reassembly_bytes`.
    reported: i64,
    /// Encoded reply frames; `out_pos` is the prefix the host consumed.
    out: Vec<u8>,
    out_pos: usize,
}

impl Connection {
    /// A fresh connection, awaiting its `Hello`.
    pub fn new(proto: &Protocol) -> Connection {
        Connection {
            handshaken: false,
            closed: false,
            assembler: ChunkAssembler::new(proto.max_doc),
            reported: 0,
            out: Vec::new(),
            out_pos: 0,
        }
    }

    /// Feeds one decoded input. Work is offered to `admit`, which the
    /// core calls at most once. Once the connection is closed, input is
    /// ignored and nothing more is emitted.
    pub fn on_input(
        &mut self,
        proto: &Protocol,
        input: Result<Frame, WireError>,
        admit: impl FnOnce(u64, Work) -> Admission,
    ) {
        if self.closed {
            return;
        }
        let frame = match input {
            Ok(frame) => frame,
            Err(e) => return self.on_error(proto, e),
        };
        if !self.handshaken {
            return self.handshake(proto, &frame);
        }
        let m = &proto.metrics;
        m.frame_bytes.observe(frame.payload.len() as u64);
        let work = match frame.kind {
            FrameType::StatsRequest => {
                // Answered inline: scrapes must work even when the worker
                // queue is saturated, and they are not requests.
                let snapshot = proto.registry.snapshot().to_json();
                return self.push(&wire::stats_response(frame.id, &snapshot));
            }
            _ if proto.stopping() => return self.shut_down(proto, frame.id),
            FrameType::DocChunkStart | FrameType::DocChunk | FrameType::DocChunkEnd => {
                match self.on_chunk(proto, &frame) {
                    Some(work) => work,
                    None => return,
                }
            }
            FrameType::Request => match wire::decode_envelope(&frame.payload) {
                Ok(envelope) => Work::Envelope(envelope),
                Err(e) => {
                    proto.fault();
                    return self.reply_fault(frame.id, FaultCode::Client, e.to_string());
                }
            },
            _ => {
                proto.fault();
                return self.reply_fault(frame.id, FaultCode::BadFrame, "expected a Request frame");
            }
        };
        // Count the slot before the job becomes visible to workers: the
        // worker's decrement must never outrun this increment, or the
        // gauge could read negative at rest.
        m.queue_depth.add(1);
        match admit(frame.id, work) {
            Admission::Admitted => {}
            Admission::Busy => {
                m.queue_depth.sub(1);
                proto.reject_busy();
                let f = WireFault::new(FaultCode::Busy, "in-flight request queue is full");
                self.push(&wire::fault(frame.id, &f.retryable()));
            }
            Admission::Closed => {
                m.queue_depth.sub(1);
                proto.fault();
                self.shut_down(proto, frame.id);
            }
        }
    }

    /// Whether the connection is finished: the host flushes
    /// [`Connection::output`], then closes the socket.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Reply bytes the host has not consumed yet.
    pub fn output(&self) -> &[u8] {
        &self.out[self.out_pos..]
    }

    /// Marks `n` bytes of [`Connection::output`] as written.
    pub fn consume(&mut self, n: usize) {
        self.out_pos += n;
        if self.out_pos >= self.out.len() {
            self.out.clear();
            self.out_pos = 0;
            if self.out.capacity() > OUT_SHRINK {
                self.out = Vec::new();
            }
        }
    }

    /// Appends a frame to the out-buffer — how a host that owns the
    /// socket queues a worker's reply behind the inline ones.
    pub fn push(&mut self, frame: &Frame) {
        // Writing to a Vec only fails for >u32 payloads, which the server
        // never produces.
        let _ = wire::write_frame(&mut self.out, frame);
    }

    /// Bytes held for chunk reassembly (the poll engine's buffer gauge).
    pub fn reassembly_len(&self) -> usize {
        self.assembler.buffered_len()
    }

    /// Tears the connection down, whatever ended it: releases the
    /// reassembly gauge and counts a partial transfer as aborted. Hosts
    /// call it when they drop the socket; it is idempotent.
    pub fn close(&mut self, proto: &Protocol) {
        self.closed = true;
        if self.assembler.active() {
            self.assembler.abort();
            proto.metrics.chunk_aborts.inc();
        }
        self.sync_gauge(proto);
    }

    fn handshake(&mut self, proto: &Protocol, frame: &Frame) {
        if frame.kind != FrameType::Hello {
            let f = WireFault::new(FaultCode::BadFrame, "expected Hello to open the connection");
            self.push(&wire::fault(frame.id, &f));
            return self.close(proto);
        }
        let refusal = match wire::decode_hello(&frame.payload) {
            Ok((version, _peer)) if version == wire::VERSION => {
                self.handshaken = true;
                return self.push(&wire::welcome_with(&proto.name, wire::CAP_CHUNKED));
            }
            Ok((version, _)) => WireFault::new(
                FaultCode::Version,
                format!("server speaks version {}, client {version}", wire::VERSION),
            ),
            Err(e) => WireFault::new(FaultCode::BadFrame, format!("bad Hello: {e}")),
        };
        self.push(&wire::fault(0, &refusal));
        self.close(proto);
    }

    /// Read-side errors. Before the handshake every one is a silent drop.
    /// After it, a clean close is silent, and so is every error but a
    /// stall or an oversized frame while the daemon stops.
    fn on_error(&mut self, proto: &Protocol, e: WireError) {
        let m = &proto.metrics;
        match e {
            _ if !self.handshaken => {}
            WireError::Closed => {}
            WireError::Idle if proto.stopping() => {}
            WireError::Idle if self.assembler.active() => {
                // Quiet between chunk frames with a transfer open: the
                // same stall as silence inside a frame.
                proto.fault();
                m.timeouts.inc();
                self.reply_fault(0, FaultCode::Timeout, "read timed out mid-chunk-transfer");
            }
            // Idle pooled connections are kept.
            WireError::Idle => return,
            WireError::Stalled => {
                proto.fault();
                m.timeouts.inc();
                self.reply_fault(0, FaultCode::Timeout, "read timed out mid-frame");
            }
            WireError::TooLarge { len, max } => {
                // The oversized payload was never read; the stream is no
                // longer framed.
                proto.fault();
                m.too_large.inc();
                m.frame_bytes.observe(len as u64);
                let msg = format!("{len}-byte payload exceeds the {max}-byte cap");
                self.reply_fault(0, FaultCode::TooLarge, msg);
            }
            _ if proto.stopping() => {}
            other => {
                proto.fault();
                self.reply_fault(0, FaultCode::BadFrame, other.to_string());
            }
        }
        self.close(proto);
    }

    /// Feeds a chunk-family frame to the assembler; `Some` once a whole
    /// document is ready for a worker.
    fn on_chunk(&mut self, proto: &Protocol, frame: &Frame) -> Option<Work> {
        let m = &proto.metrics;
        m.chunk_frames.inc();
        if frame.kind == FrameType::DocChunk {
            m.chunk_bytes
                .add(frame.payload.len().saturating_sub(4) as u64);
        }
        let outcome = self.assembler.accept(frame);
        // Publish the buffer change — a completed transfer's release
        // included — before a worker's reply can reach the sender.
        self.sync_gauge(proto);
        match outcome {
            Ok(ChunkProgress::Pending) | Ok(ChunkProgress::Drained) => None,
            Ok(ChunkProgress::Complete { name, bytes, .. }) => match String::from_utf8(bytes) {
                Ok(text) => Some(Work::Document { name, text }),
                Err(_) => {
                    proto.fault();
                    m.chunk_aborts.inc();
                    self.reply_fault(frame.id, FaultCode::Client, "chunked document is not UTF-8");
                    None
                }
            },
            Err(e) => {
                // The transfer is dead but the stream is still framed:
                // fault the transfer's request id and keep serving — the
                // assembler drains the pipelined remains itself.
                proto.fault();
                m.chunk_aborts.inc();
                let (code, msg) = match e {
                    WireError::TooLarge { len, max } => {
                        m.too_large.inc();
                        m.frame_bytes.observe(len as u64);
                        let msg = format!(
                            "chunked transfer of {len} cumulative bytes exceeds the {max}-byte cap"
                        );
                        (FaultCode::TooLarge, msg)
                    }
                    other => (FaultCode::BadFrame, other.to_string()),
                };
                self.reply_fault(frame.id, code, msg);
                None
            }
        }
    }

    /// Answers `id` with a retryable `Shutdown` fault and closes.
    fn shut_down(&mut self, proto: &Protocol, id: u64) {
        let f = WireFault::new(FaultCode::Shutdown, "server is shutting down").retryable();
        self.push(&wire::fault(id, &f));
        self.close(proto);
    }

    fn reply_fault(&mut self, id: u64, code: FaultCode, message: impl Into<String>) {
        self.push(&wire::fault(id, &WireFault::new(code, message)));
    }

    /// Publishes the change in this connection's reassembly buffer.
    fn sync_gauge(&mut self, proto: &Protocol) {
        let now = self.assembler.buffered_len() as i64;
        proto.metrics.chunk_reassembly.add(now - self.reported);
        self.reported = now;
    }
}
