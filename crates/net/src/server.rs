//! The peer daemon: a concurrent server for the wire protocol.
//!
//! The daemon ships with **two connection engines** behind one config
//! knob ([`ServerConfig::io`]). Both drive the same per-connection state
//! machine, [`Connection`] (`conn`, DESIGN.md §12.4), so they speak one
//! protocol, emit one fault taxonomy and publish one set of metrics; an
//! engine only does its own I/O:
//!
//! * [`IoMode::Threads`] (the default, and this module) — one blocking
//!   reader thread per connection over a fixed worker pool;
//! * [`IoMode::Poll`] (`poll_server`, DESIGN.md §12) — an event-driven
//!   readiness loop (epoll/kqueue via `axml_support::poll`): a few shard
//!   threads multiplex thousands of non-blocking TCP connections.
//!
//! Threads-engine architecture (all plain `std` threads):
//!
//! * one **accept thread** polls the non-blocking listener and spawns a
//!   lightweight **reader thread** per connection;
//! * each reader feeds the frames it reads to its [`Connection`] and
//!   writes back the replies the core emits; requests become jobs in a
//!   **bounded in-flight queue** — when the queue is full the core
//!   answers a retryable [`FaultCode::Busy`] fault instead of blocking
//!   (backpressure);
//! * a **fixed-size worker pool** drains the queue, runs the
//!   application-level [`Handler`] (for an Active XML peer: decode the
//!   SOAP envelope, run the Schema Enforcement module, encode the reply),
//!   and writes the `Response`/`Fault` frame back through the
//!   connection's shared writer — so one connection can have several
//!   requests in flight and replies may be pipelined out of order;
//! * [`NetServer::shutdown`] is **graceful and deterministic**: it stops
//!   accepting, unblocks and joins every reader (or poller shard),
//!   drains-and-joins every worker (bounded wait), and reports any
//!   worker panic as an error instead of leaking threads.
//!
//! Per-connection read/write timeouts bound every blocking read or write:
//! an idle connection is kept (pooled clients stay connected), but a peer
//! that stalls *mid-frame* is answered with a `Timeout` fault and
//! dropped.

use crate::conn::{Admission, Connection, Protocol, Work};
use crate::wire::{self, FaultCode, WireFault};
use axml_support::sync::channel::{bounded, Receiver, Sender, TrySendError};
use axml_support::sync::Mutex;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Application logic plugged into the daemon: maps one request envelope to
/// one response envelope, or a typed fault.
pub trait Handler: Send + Sync + 'static {
    /// Handles one request envelope (UTF-8 XML). `id` is the wire request
    /// id — handlers stamp it on their spans so a receiver-side trace can
    /// be correlated with the sender's.
    fn handle(&self, id: u64, envelope: &str) -> Result<String, WireFault>;

    /// Handles one chunk-shipped document, already reassembled and
    /// digest-verified by the engine: `name` is the repository name from
    /// `DocChunkStart`, `text` the raw document XML. Returns the reply
    /// envelope. The default refuses, so handlers that never opted in
    /// simply do not serve chunked transfers.
    fn handle_document(&self, id: u64, name: &str, text: &str) -> Result<String, WireFault> {
        let _ = (id, text);
        Err(WireFault::new(
            FaultCode::BadFrame,
            format!("chunked transfer of '{name}' is not supported by this handler"),
        ))
    }
}

impl<F> Handler for F
where
    F: Fn(u64, &str) -> Result<String, WireFault> + Send + Sync + 'static,
{
    fn handle(&self, id: u64, envelope: &str) -> Result<String, WireFault> {
        self(id, envelope)
    }
}

/// Connection-engine selector: how the daemon turns socket bytes into
/// requests. See the module docs for the trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    /// One blocking reader thread per connection (a wall at thousands
    /// of peers).
    #[default]
    Threads,
    /// Event-driven readiness loop: sharded epoll/kqueue, bounded
    /// memory, 10k+ connections. TCP only.
    Poll,
}

impl std::str::FromStr for IoMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "threads" => Ok(IoMode::Threads),
            "poll" => Ok(IoMode::Poll),
            other => Err(format!(
                "unknown io mode '{other}' (expected 'threads' or 'poll')"
            )),
        }
    }
}

impl std::fmt::Display for IoMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoMode::Threads => "threads",
            IoMode::Poll => "poll",
        })
    }
}

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Name announced in the `Welcome` handshake frame.
    pub name: String,
    /// Connection engine ([`IoMode::Threads`] or [`IoMode::Poll`]).
    pub io: IoMode,
    /// Poll engine only: number of readiness-loop shard threads, each
    /// owning its own poller, connections and bounded request queue.
    /// More shards spread accept and read work across cores.
    pub shards: usize,
    /// Fixed number of worker threads processing requests. In poll mode
    /// the pool is partitioned across shards (at least one per shard).
    pub workers: usize,
    /// Capacity of the in-flight request queue (backpressure bound).
    /// In poll mode this is the capacity of *each* shard's queue, so
    /// `shards = 1` reproduces the threads engine's Busy semantics
    /// exactly.
    pub queue: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Maximum accepted frame payload, in bytes.
    pub max_frame: usize,
    /// Maximum *cumulative* size of one chunked document transfer, in
    /// bytes — what a reassembling connection will buffer in total, as
    /// opposed to the per-frame `max_frame` cap.
    pub max_doc: usize,
    /// Metric registry the server publishes into (`server.*` catalogue
    /// entries) and serves back over `StatsRequest` frames. Defaults to
    /// the process-wide registry; tests inject a fresh one for isolation.
    pub metrics: axml_obs::Registry,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            name: "axml-peer".to_owned(),
            io: IoMode::Threads,
            shards: 2,
            workers: 4,
            queue: 64,
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_secs(5),
            max_frame: wire::DEFAULT_MAX_FRAME,
            max_doc: wire::DEFAULT_MAX_DOC,
            metrics: axml_obs::global(),
        }
    }
}

/// Monotonic counters exposed for tests and operational visibility.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Requests answered with a `Response` frame.
    pub served: AtomicU64,
    /// Requests rejected with a retryable `Busy` fault (queue full).
    pub rejected_busy: AtomicU64,
    /// Requests answered with any other fault.
    pub faulted: AtomicU64,
}

type SharedWriter = Arc<Mutex<TcpStream>>;

/// Where a worker delivers a finished reply. The threads engine hands
/// workers the connection's locked writer; the poll engine cannot (its
/// sockets are non-blocking and owned by a shard loop), so workers post
/// the frame to the shard's outbox and wake its poller instead.
pub(crate) enum ReplyTo {
    /// Write the frame directly through the connection's shared writer.
    Stream(SharedWriter),
    /// Post the frame to a poll shard's outbox for connection `conn`.
    Shard {
        shard: Arc<crate::poll_server::ShardHandle>,
        conn: u64,
    },
}

pub(crate) struct Job {
    pub(crate) reply: ReplyTo,
    pub(crate) id: u64,
    pub(crate) work: Work,
}

/// Offers `job` to a worker queue without blocking — the admission both
/// engines hand their [`Connection`]s.
pub(crate) fn admit(job_tx: &Sender<Job>, job: Job) -> Admission {
    match job_tx.try_send(job) {
        Ok(()) => Admission::Admitted,
        Err(TrySendError::Full(_)) => Admission::Busy,
        Err(TrySendError::Disconnected(_)) => Admission::Closed,
    }
}

pub(crate) struct Shared {
    pub(crate) handler: Arc<dyn Handler>,
    pub(crate) config: ServerConfig,
    pub(crate) proto: Protocol,
    /// Live connection streams, keyed by a connection id, so shutdown can
    /// unblock readers stuck in a read. (Threads engine only; the poll
    /// engine's shards own their connections outright.)
    conns: Mutex<HashMap<u64, SharedWriter>>,
    next_conn: AtomicU64,
}

/// A running daemon; dropping it without [`NetServer::shutdown`] still
/// stops and joins everything (panics in workers are then swallowed).
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    engine: Engine,
}

/// The running engine behind a [`NetServer`] — which one is decided once
/// at bind time by [`ServerConfig::io`].
enum Engine {
    Threads {
        accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
        workers: Vec<JoinHandle<()>>,
        job_tx: Option<Sender<Job>>,
    },
    Poll(crate::poll_server::PollEngine),
}

/// Errors from server lifecycle operations.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// A server thread panicked; the payload is rendered into the string.
    WorkerPanic(String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server i/o error: {e}"),
            ServerError::WorkerPanic(m) => write!(f, "server thread panicked: {m}"),
        }
    }
}

impl std::error::Error for ServerError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl NetServer {
    /// Binds `addr` over TCP and starts whichever engine
    /// [`ServerConfig::io`] selects.
    pub fn bind(
        addr: impl ToSocketAddrs,
        handler: Arc<dyn Handler>,
        config: ServerConfig,
    ) -> Result<NetServer, ServerError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(ServerError::Io)?
            .next()
            .ok_or_else(|| {
                ServerError::Io(std::io::Error::new(
                    std::io::ErrorKind::AddrNotAvailable,
                    "address resolved to nothing",
                ))
            })?;
        let listener = TcpListener::bind(addr).map_err(ServerError::Io)?;
        listener.set_nonblocking(true).map_err(ServerError::Io)?;
        let local_addr = listener.local_addr().map_err(ServerError::Io)?;
        let shared = Arc::new(Shared {
            handler,
            proto: Protocol::new(&config),
            config,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        let engine = match shared.config.io {
            IoMode::Poll => Engine::Poll(crate::poll_server::PollEngine::start(listener, &shared)?),
            IoMode::Threads => start_threads(listener, &shared),
        };
        Ok(NetServer {
            shared,
            local_addr,
            engine,
        })
    }

    /// The bound socket address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.proto.stats
    }

    /// Graceful shutdown: stop accepting, unblock + join readers, drain +
    /// join workers. Returns an error if any server thread panicked.
    pub fn shutdown(mut self) -> Result<(), ServerError> {
        self.stop_all()
    }

    fn stop_all(&mut self) -> Result<(), ServerError> {
        self.shared.proto.stop();
        let mut first_panic: Option<String> = None;
        {
            let panics = &self.shared.proto.metrics.panics;
            let mut note = |r: std::thread::Result<()>| {
                if let Err(p) = r {
                    let msg = panic_message(p);
                    panics.inc();
                    axml_obs::span("server.panic").fail(&msg);
                    first_panic.get_or_insert(msg);
                }
            };
            match &mut self.engine {
                Engine::Threads {
                    accept,
                    workers,
                    job_tx,
                } => {
                    // Unblock readers parked in reads.
                    for conn in self.shared.conns.lock().values() {
                        let _ = conn.lock().shutdown(std::net::Shutdown::Both);
                    }
                    if let Some(accept) = accept.take() {
                        match accept.join() {
                            Ok(readers) => {
                                for r in readers {
                                    note(r.join());
                                }
                            }
                            Err(p) => note(Err(p)),
                        }
                    }
                    // Closing the queue ends the worker loops once drained.
                    drop(job_tx.take());
                    for w in workers.drain(..) {
                        note(w.join());
                    }
                }
                Engine::Poll(engine) => engine.stop(&mut note),
            }
        }
        match first_panic {
            Some(m) => Err(ServerError::WorkerPanic(m)),
            None => Ok(()),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        let _ = self.stop_all();
    }
}

/// Starts the threads engine: the worker pool and the accept thread.
fn start_threads(listener: TcpListener, shared: &Arc<Shared>) -> Engine {
    let (job_tx, job_rx) = bounded::<Job>(shared.config.queue.max(1));
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers = (0..shared.config.workers.max(1))
        .map(|w| {
            let shared = Arc::clone(shared);
            let job_rx = Arc::clone(&job_rx);
            std::thread::Builder::new()
                .name(format!("axml-net-worker-{w}"))
                .spawn(move || worker_loop(&shared, &job_rx))
                .expect("spawn worker thread")
        })
        .collect();
    let accept = {
        let shared = Arc::clone(shared);
        let job_tx = job_tx.clone();
        std::thread::Builder::new()
            .name("axml-net-accept".to_owned())
            .spawn(move || accept_loop(&listener, &shared, &job_tx))
            .expect("spawn accept thread")
    };
    Engine::Threads {
        accept: Some(accept),
        workers,
        job_tx: Some(job_tx),
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    job_tx: &Sender<Job>,
) -> Vec<JoinHandle<()>> {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.proto.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.proto.accepted();
                let shared = Arc::clone(shared);
                let job_tx = job_tx.clone();
                readers.push(
                    std::thread::Builder::new()
                        .name("axml-net-reader".to_owned())
                        .spawn(move || reader_loop(stream, &shared, &job_tx))
                        .expect("spawn reader thread"),
                );
                // Opportunistically reap finished readers so a long-lived
                // daemon does not accumulate handles.
                readers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    readers
}

/// Serves one connection: blocking reads into the core, the core's
/// replies out through the shared writer, until the core closes.
fn reader_loop(stream: TcpStream, shared: &Arc<Shared>, job_tx: &Sender<Job>) {
    let config = &shared.config;
    if stream
        .set_read_timeout(Some(config.read_timeout))
        .and_then(|()| stream.set_write_timeout(Some(config.write_timeout)))
        .is_err()
    {
        return;
    }
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    shared.conns.lock().insert(conn_id, Arc::clone(&writer));
    let proto = &shared.proto;
    let mut reader = BufReader::new(stream);
    let mut conn = Connection::new(proto);
    while !conn.is_closed() {
        let input = wire::read_frame(&mut reader, config.max_frame);
        conn.on_input(proto, input, |id, work| {
            let reply = ReplyTo::Stream(Arc::clone(&writer));
            admit(job_tx, Job { reply, id, work })
        });
        let out = conn.output();
        if !out.is_empty() {
            let sent = {
                let mut w = writer.lock();
                w.write_all(out).and_then(|()| w.flush())
            };
            let n = out.len();
            conn.consume(n);
            if sent.is_err() {
                break;
            }
        }
    }
    conn.close(proto);
    shared.conns.lock().remove(&conn_id);
}

pub(crate) fn worker_loop(shared: &Arc<Shared>, job_rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the lock only while dequeueing, never while handling.
        let job = match job_rx.lock().recv() {
            Ok(j) => j,
            Err(_) => return, // queue closed: graceful shutdown
        };
        shared.proto.metrics.queue_depth.sub(1);
        let outcome = match &job.work {
            Work::Envelope(envelope) => shared.handler.handle(job.id, envelope),
            Work::Document { name, text } => shared.handler.handle_document(job.id, name, text),
        };
        let reply = shared.proto.answer(job.id, outcome);
        // A gone client is not the server's problem — in either engine:
        // the direct write may fail, or the shard may find the
        // connection already closed and drop the frame.
        match &job.reply {
            ReplyTo::Stream(writer) => {
                let _ = wire::write_frame(&mut *writer.lock(), &reply);
            }
            ReplyTo::Shard { shard, conn } => shard.deliver(*conn, reply),
        }
    }
}

#[cfg(test)]
mod tests {
    //! The engine unit suite: every case runs over both [`IoMode`]s.

    use super::*;
    use crate::wire::{Frame, FrameType};

    const MODES: [IoMode; 2] = [IoMode::Threads, IoMode::Poll];

    fn mode(io: IoMode) -> ServerConfig {
        ServerConfig {
            io,
            ..ServerConfig::default()
        }
    }

    fn echo_server(config: ServerConfig) -> NetServer {
        let handler: Arc<dyn Handler> = Arc::new(|_id: u64, envelope: &str| {
            if envelope == "boom" {
                Err(WireFault::new(FaultCode::Server, "boom requested"))
            } else {
                Ok(format!("echo:{envelope}"))
            }
        });
        NetServer::bind("127.0.0.1:0", handler, config).unwrap()
    }

    fn dial(server: &NetServer) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        wire::set_stream_timeouts(
            &stream,
            Some(Duration::from_secs(5)),
            Some(Duration::from_secs(5)),
        )
        .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (reader, stream)
    }

    fn next(reader: &mut BufReader<TcpStream>) -> Frame {
        wire::read_frame(reader, wire::DEFAULT_MAX_FRAME).unwrap()
    }

    fn shake(reader: &mut BufReader<TcpStream>, stream: &mut TcpStream) {
        wire::write_frame(stream, &wire::hello("test-client")).unwrap();
        let back = next(reader);
        assert_eq!(back.kind, FrameType::Welcome);
        let (v, name) = wire::decode_welcome(&back.payload).unwrap();
        assert_eq!(v, wire::VERSION);
        assert_eq!(name, "axml-peer");
    }

    fn fault_of(frame: &Frame) -> WireFault {
        assert_eq!(frame.kind, FrameType::Fault);
        wire::decode_fault(&frame.payload).unwrap()
    }

    #[test]
    fn serves_requests_and_faults() {
        for io in MODES {
            let server = echo_server(mode(io));
            let (mut reader, mut stream) = dial(&server);
            shake(&mut reader, &mut stream);
            wire::write_frame(&mut stream, &wire::request(1, "hi")).unwrap();
            let back = next(&mut reader);
            assert_eq!(back.kind, FrameType::Response, "{io}");
            assert_eq!(back.id, 1);
            assert_eq!(wire::decode_envelope(&back.payload).unwrap(), "echo:hi");
            wire::write_frame(&mut stream, &wire::request(2, "boom")).unwrap();
            let f = fault_of(&next(&mut reader));
            assert_eq!(f.code, FaultCode::Server, "{io}");
            assert!(!f.retryable);
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn handshake_is_mandatory_and_versioned() {
        for io in MODES {
            let server = echo_server(mode(io));
            // Requests before Hello are rejected.
            let (mut reader, mut stream) = dial(&server);
            wire::write_frame(&mut stream, &wire::request(1, "hi")).unwrap();
            assert_eq!(
                fault_of(&next(&mut reader)).code,
                FaultCode::BadFrame,
                "{io}"
            );

            // Wrong version is rejected with a Version fault.
            let (mut reader, mut stream) = dial(&server);
            let mut bad_hello = wire::hello("old-client");
            bad_hello.payload[4..6].copy_from_slice(&99u16.to_be_bytes());
            wire::write_frame(&mut stream, &bad_hello).unwrap();
            assert_eq!(
                fault_of(&next(&mut reader)).code,
                FaultCode::Version,
                "{io}"
            );
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn oversized_frame_gets_too_large_fault() {
        for io in MODES {
            let server = echo_server(ServerConfig {
                max_frame: 64,
                ..mode(io)
            });
            let (mut reader, mut stream) = dial(&server);
            shake(&mut reader, &mut stream);
            wire::write_frame(&mut stream, &wire::request(1, &"x".repeat(1000))).unwrap();
            assert_eq!(
                fault_of(&next(&mut reader)).code,
                FaultCode::TooLarge,
                "{io}"
            );
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn stalled_writer_gets_timeout_fault() {
        for io in MODES {
            let server = echo_server(ServerConfig {
                read_timeout: Duration::from_millis(50),
                ..mode(io)
            });
            let (mut reader, mut stream) = dial(&server);
            shake(&mut reader, &mut stream);
            // Send only half a header, then stall.
            stream.write_all(&[0x03, 0, 0, 0]).unwrap();
            stream.flush().unwrap();
            assert_eq!(
                fault_of(&next(&mut reader)).code,
                FaultCode::Timeout,
                "{io}"
            );
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn stats_request_returns_metric_snapshot() {
        for io in MODES {
            let registry = axml_obs::Registry::new();
            axml_obs::register_catalogue(&registry);
            let server = echo_server(ServerConfig {
                metrics: registry.clone(),
                ..mode(io)
            });
            let (mut reader, mut stream) = dial(&server);
            shake(&mut reader, &mut stream);
            wire::write_frame(&mut stream, &wire::request(1, "hi")).unwrap();
            assert_eq!(next(&mut reader).kind, FrameType::Response, "{io}");
            wire::write_frame(&mut stream, &wire::stats_request(2)).unwrap();
            let back = next(&mut reader);
            assert_eq!(back.kind, FrameType::StatsResponse, "{io}");
            assert_eq!(back.id, 2);
            let text = wire::decode_envelope(&back.payload).unwrap();
            let snap = axml_obs::Snapshot::parse_json(&text).unwrap();
            assert_eq!(snap.counter("server.requests_total"), 1, "{io}");
            assert_eq!(snap.counter("server.responses_ok_total"), 1, "{io}");
            assert_eq!(snap.counter("server.connections_total"), 1, "{io}");
            // Scrapes stay out of the request accounting.
            assert_eq!(
                snap.counter("server.requests_total"),
                snap.counter("server.responses_ok_total") + snap.counter("server.faults_total")
            );
            server.shutdown().unwrap();
        }
    }

    struct StoreDoc {
        docs: Mutex<HashMap<String, String>>,
    }

    impl Handler for StoreDoc {
        fn handle(&self, _id: u64, envelope: &str) -> Result<String, WireFault> {
            Ok(format!("echo:{envelope}"))
        }

        fn handle_document(&self, _id: u64, name: &str, text: &str) -> Result<String, WireFault> {
            self.docs.lock().insert(name.to_owned(), text.to_owned());
            Ok(format!("stored:{name}"))
        }
    }

    /// A `StoreDoc` daemon publishing into a fresh registry.
    fn store_server(config: ServerConfig) -> (NetServer, Arc<StoreDoc>, axml_obs::Registry) {
        let registry = axml_obs::Registry::new();
        axml_obs::register_catalogue(&registry);
        let handler = Arc::new(StoreDoc {
            docs: Mutex::new(HashMap::new()),
        });
        let config = ServerConfig {
            metrics: registry.clone(),
            ..config
        };
        let server =
            NetServer::bind("127.0.0.1:0", Arc::<StoreDoc>::clone(&handler), config).unwrap();
        (server, handler, registry)
    }

    #[test]
    fn chunked_transfer_reaches_document_handler() {
        for io in MODES {
            let (server, handler, registry) = store_server(mode(io));
            let (mut reader, mut stream) = dial(&server);
            // The Welcome advertises the chunk capability.
            wire::write_frame(
                &mut stream,
                &wire::hello_with("test-client", wire::CAP_CHUNKED),
            )
            .unwrap();
            let back = next(&mut reader);
            let (_, name, caps) = wire::decode_welcome_caps(&back.payload).unwrap();
            assert_eq!(name, "axml-peer");
            assert_eq!(caps & wire::CAP_CHUNKED, wire::CAP_CHUNKED, "{io}");

            let doc = "<doc>".repeat(50) + &"</doc>".repeat(50);
            for f in wire::chunk_transfer(7, "big.xml", doc.as_bytes(), 37) {
                wire::write_frame(&mut stream, &f).unwrap();
            }
            let back = next(&mut reader);
            assert_eq!(back.kind, FrameType::Response, "{io}");
            assert_eq!(back.id, 7);
            assert_eq!(
                wire::decode_envelope(&back.payload).unwrap(),
                "stored:big.xml"
            );
            assert_eq!(handler.docs.lock().get("big.xml"), Some(&doc), "{io}");

            let snap = registry.snapshot();
            assert!(snap.counter("net.chunk.frames_total") >= 3, "{io}");
            assert_eq!(
                snap.counter("net.chunk.bytes_total"),
                doc.len() as u64,
                "{io}"
            );
            assert_eq!(snap.counter("net.chunk.aborts_total"), 0, "{io}");
            assert_eq!(snap.gauge("net.chunk.reassembly_bytes"), 0, "{io}");
            assert_eq!(
                snap.counter("server.requests_total"),
                snap.counter("server.responses_ok_total") + snap.counter("server.faults_total")
            );
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn chunk_faults_are_typed_and_the_connection_survives() {
        for io in MODES {
            let (server, _handler, registry) = store_server(ServerConfig {
                max_doc: 64,
                ..mode(io)
            });
            let (mut reader, mut stream) = dial(&server);
            shake(&mut reader, &mut stream);

            // Out-of-sequence chunk: typed BadFrame on the transfer's id.
            wire::write_frame(&mut stream, &wire::doc_chunk_start(3, "d")).unwrap();
            wire::write_frame(&mut stream, &wire::doc_chunk(3, 5, b"zz")).unwrap();
            let back = next(&mut reader);
            assert_eq!(back.id, 3, "{io}");
            let f = fault_of(&back);
            assert_eq!(f.code, FaultCode::BadFrame, "{io}");
            assert!(f.message.contains("out of sequence"));

            // Cumulative cap: TooLarge reports the running total.
            wire::write_frame(&mut stream, &wire::doc_chunk_start(4, "d")).unwrap();
            wire::write_frame(&mut stream, &wire::doc_chunk(4, 0, &[b'a'; 40])).unwrap();
            wire::write_frame(&mut stream, &wire::doc_chunk(4, 1, &[b'b'; 40])).unwrap();
            let back = next(&mut reader);
            assert_eq!(back.id, 4, "{io}");
            let f = fault_of(&back);
            assert_eq!(f.code, FaultCode::TooLarge, "{io}");
            assert!(f.message.contains("80 cumulative bytes"), "{}", f.message);

            // Same connection still serves plain requests and fresh
            // transfers.
            wire::write_frame(&mut stream, &wire::request(5, "hi")).unwrap();
            assert_eq!(next(&mut reader).kind, FrameType::Response, "{io}");
            for f in wire::chunk_transfer(6, "ok.xml", b"<ok/>", 2) {
                wire::write_frame(&mut stream, &f).unwrap();
            }
            let back = next(&mut reader);
            assert_eq!(back.kind, FrameType::Response, "{io}");
            assert_eq!(back.id, 6);

            let snap = registry.snapshot();
            assert_eq!(snap.counter("net.chunk.aborts_total"), 2, "{io}");
            assert_eq!(snap.gauge("net.chunk.reassembly_bytes"), 0, "{io}");
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn idle_inside_chunk_transfer_gets_timeout_fault() {
        for io in MODES {
            let server = echo_server(ServerConfig {
                read_timeout: Duration::from_millis(50),
                ..mode(io)
            });
            let (mut reader, mut stream) = dial(&server);
            shake(&mut reader, &mut stream);
            // Open a transfer, send one whole chunk frame, then go quiet:
            // the socket is between frames but the transfer is mid-flight.
            wire::write_frame(&mut stream, &wire::doc_chunk_start(9, "stall")).unwrap();
            wire::write_frame(&mut stream, &wire::doc_chunk(9, 0, b"abc")).unwrap();
            let f = fault_of(&next(&mut reader));
            assert_eq!(f.code, FaultCode::Timeout, "{io}");
            assert!(f.message.contains("mid-chunk-transfer"));
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn pipelines_requests_from_one_connection() {
        for io in MODES {
            let server = echo_server(mode(io));
            let (mut reader, mut stream) = dial(&server);
            shake(&mut reader, &mut stream);
            // Fire a burst without reading, then collect: replies may be
            // reordered across workers but every id must come back once.
            for i in 0..16u64 {
                wire::write_frame(&mut stream, &wire::request(i, &format!("m{i}"))).unwrap();
            }
            let mut seen = std::collections::HashSet::new();
            for _ in 0..16 {
                let back = next(&mut reader);
                assert_eq!(back.kind, FrameType::Response, "{io}");
                assert!(seen.insert(back.id));
            }
            server.shutdown().unwrap();
        }
    }

    #[test]
    fn graceful_shutdown_reports_counts() {
        let configs = [
            mode(IoMode::Threads),
            ServerConfig {
                shards: 1,
                ..mode(IoMode::Poll)
            },
            ServerConfig {
                shards: 4,
                ..mode(IoMode::Poll)
            },
        ];
        for config in configs {
            let label = format!("{} x{}", config.io, config.shards);
            let server = echo_server(config);
            let (mut reader, mut stream) = dial(&server);
            shake(&mut reader, &mut stream);
            for i in 0..5 {
                wire::write_frame(&mut stream, &wire::request(i, "ping")).unwrap();
                let back = next(&mut reader);
                assert_eq!(back.id, i, "{label}");
                assert_eq!(back.kind, FrameType::Response, "{label}");
            }
            assert_eq!(server.stats().served.load(Ordering::Relaxed), 5, "{label}");
            server.shutdown().unwrap();
        }
    }
}
