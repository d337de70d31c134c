//! The deterministic world: virtual time, an in-memory network speaking
//! the exact `axml-net` frame protocol, and seeded fault injection.
//!
//! A [`SimWorld`] owns everything that can vary between runs — the event
//! queue, the fault schedule, every connection buffer, and one
//! `axml_support` RNG seeded once — so a scenario driven against it is a
//! pure function of its seed. There is **no scheduler thread**: the world
//! runs cooperatively on the single thread driving it. Whenever client
//! code blocks (a socket read, a retry backoff sleep), the blocking call
//! *pumps* the event queue inline, advancing virtual time event by event
//! until the wait is satisfiable or times out. Seconds of configured
//! timeouts therefore cost microseconds of wall time, and two runs with
//! the same seed replay byte-identically.
//!
//! The pieces, and where they plug into the production stack:
//!
//! * [`SimClock`] implements [`axml_support::clock::Clock`]: `now_ns` is
//!   virtual time, `sleep` advances it through the queue — injected into
//!   `NetClient` so its backoff and total-deadline logic run unmodified;
//! * [`SimTransport`] implements [`axml_net::Transport`]: `connect`
//!   yields an in-memory [`Duplex`] whose reads pump the world — the real
//!   pooled `NetClient` dials it exactly like TCP;
//! * server endpoints are **event-driven actors** (see
//!   [`listen`](SimWorld::listen)): frames delivered to them are parsed
//!   and answered inline during event processing, reusing the
//!   [`wire`] codecs and the application [`Handler`] unchanged.
//!
//! **Fault model.** Frames in flight are subject to drop, extra delay,
//! duplication, reordering (independent latency draws; delivery is not
//! FIFO) and connection reset mid-frame (a prefix of the frame arrives,
//! then the connection dies). Links can be partitioned for time windows,
//! and endpoints can crash (every connection resets, in-flight requests
//! are lost) and later restart. All decisions are drawn from the single
//! world RNG in deterministic order.
//!
//! **Discipline for handlers**: server handlers run inside event
//! processing and must not call back into the sim network (the driving
//! thread's own nested calls — e.g. an invoker making client calls from
//! inside `enforce` — are fine). The world enforces a virtual-time
//! horizon: a scenario that would hang trips a panic carrying the event
//! log instead of wedging the test run.

use axml_net::transport::{Duplex, Transport};
use axml_net::wire::{self, FaultCode, Frame, FrameType, WireError, WireFault};
use axml_net::{ChunkAssembler, ChunkProgress, Handler};
use axml_support::clock::Clock;
use axml_support::rng::{RngExt, SeedableRng, StdRng};
use axml_support::sync::Mutex;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// One scheduled link partition: frames between `a` and `b` sent inside
/// `[from_ns, until_ns)` are silently lost — in both directions by
/// default, or only `a → b` when `oneway` is set (an asymmetric cut: a
/// request can still land while its response vanishes, or vice versa,
/// which is what drives the client's retry-until-deadline path).
#[derive(Debug, Clone)]
pub struct Partition {
    /// One side of the link (an endpoint or client name); the sending
    /// side when `oneway`.
    pub a: String,
    /// The other side; the receiving side when `oneway`.
    pub b: String,
    /// Virtual time the partition starts.
    pub from_ns: u64,
    /// Virtual time the link heals.
    pub until_ns: u64,
    /// Cut only the `a → b` direction; `b → a` frames still flow.
    pub oneway: bool,
}

impl Partition {
    /// A symmetric partition: both directions cut during the window.
    pub fn symmetric(a: &str, b: &str, from_ns: u64, until_ns: u64) -> Partition {
        Partition {
            a: a.to_owned(),
            b: b.to_owned(),
            from_ns,
            until_ns,
            oneway: false,
        }
    }

    /// An asymmetric partition: only frames from `from` to `to` are lost.
    pub fn oneway(from: &str, to: &str, from_ns: u64, until_ns: u64) -> Partition {
        Partition {
            a: from.to_owned(),
            b: to.to_owned(),
            from_ns,
            until_ns,
            oneway: true,
        }
    }
}

/// One scheduled crash: at `at_ns` the endpoint loses every connection
/// and all in-flight state; it accepts again `down_ns` later.
#[derive(Debug, Clone)]
pub struct Crash {
    /// The endpoint that crashes.
    pub endpoint: String,
    /// Virtual time of the crash.
    pub at_ns: u64,
    /// How long the endpoint stays down.
    pub down_ns: u64,
}

/// The seeded fault schedule for one run. Probabilities are per frame.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Baseline one-way frame latency.
    pub base_latency_ns: u64,
    /// Uniform extra latency in `[0, jitter_ns]` per frame (this is what
    /// reorders frames: delivery is by arrival time, not send order).
    pub jitter_ns: u64,
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability a frame is delivered twice.
    pub dup_prob: f64,
    /// Probability a frame is held for an extra `[0, extra_delay_ns]`.
    pub delay_prob: f64,
    /// Extra delay bound for held frames.
    pub extra_delay_ns: u64,
    /// Probability the connection resets mid-frame: a prefix of the
    /// frame arrives, then both directions die.
    pub reset_prob: f64,
    /// Probability a server answers a request with a retryable `Busy`
    /// fault instead of handling it (models a saturated worker queue).
    pub busy_prob: f64,
    /// Extra drop probability applied only to chunk frames
    /// (`DocChunkStart`/`DocChunk`/`DocChunkEnd`) — lets a scenario
    /// target the chunked transfer path while the control frames around
    /// it stay reliable. Combined with `drop_prob` by maximum.
    pub chunk_drop_prob: f64,
    /// Extra duplication probability for chunk frames (max with
    /// `dup_prob`).
    pub chunk_dup_prob: f64,
    /// Extra mid-frame reset probability for chunk frames (max with
    /// `reset_prob`).
    pub chunk_reset_prob: f64,
    /// Scheduled link partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled crash-restarts.
    pub crashes: Vec<Crash>,
    /// Hard virtual-time cap: exceeding it means the scenario would
    /// hang, and the world panics with the event log (a *typed* hang
    /// diagnosis for the property harness to shrink, instead of a wedged
    /// test process).
    pub horizon_ns: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            base_latency_ns: 1_000_000, // 1 ms
            jitter_ns: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            extra_delay_ns: 0,
            reset_prob: 0.0,
            busy_prob: 0.0,
            chunk_drop_prob: 0.0,
            chunk_dup_prob: 0.0,
            chunk_reset_prob: 0.0,
            partitions: Vec::new(),
            crashes: Vec::new(),
            horizon_ns: 600_000_000_000, // 10 virtual minutes
        }
    }
}

/// Tuning for one simulated server endpoint.
#[derive(Clone)]
pub struct SimServerConfig {
    /// Name announced in `Welcome` frames.
    pub name: String,
    /// Maximum accepted frame payload, in bytes.
    pub max_frame: usize,
    /// Maximum cumulative size of one chunked document transfer.
    pub max_doc: usize,
    /// How long a partial frame may sit before the server faults the
    /// connection with `Timeout` (the real server's mid-frame stall cap).
    pub read_timeout: Duration,
    /// Registry this endpoint publishes `server.*` metrics into and
    /// serves over `StatsRequest` frames.
    pub metrics: axml_obs::Registry,
}

impl Default for SimServerConfig {
    fn default() -> Self {
        SimServerConfig {
            name: "axml-peer".to_owned(),
            max_frame: wire::DEFAULT_MAX_FRAME,
            max_doc: wire::DEFAULT_MAX_DOC,
            read_timeout: Duration::from_millis(200),
            metrics: axml_obs::Registry::new(),
        }
    }
}

/// Pre-resolved `server.*` handles, mirroring the real server's
/// accounting: every request ends in exactly one `ok()` or `fault()`.
struct SrvMetrics {
    connections: axml_obs::Counter,
    requests: axml_obs::Counter,
    responses_ok: axml_obs::Counter,
    faults: axml_obs::Counter,
    busy: axml_obs::Counter,
    timeouts: axml_obs::Counter,
    too_large: axml_obs::Counter,
    frame_bytes: axml_obs::Histogram,
    chunk_frames: axml_obs::Counter,
    chunk_bytes: axml_obs::Counter,
    chunk_aborts: axml_obs::Counter,
    chunk_reassembly: axml_obs::Gauge,
}

impl SrvMetrics {
    fn new(r: &axml_obs::Registry) -> Self {
        SrvMetrics {
            connections: r.counter("server.connections_total"),
            requests: r.counter("server.requests_total"),
            responses_ok: r.counter("server.responses_ok_total"),
            faults: r.counter("server.faults_total"),
            busy: r.counter("server.busy_total"),
            timeouts: r.counter("server.timeouts_total"),
            too_large: r.counter("server.frame_too_large_total"),
            frame_bytes: r.histogram("server.frame_bytes", axml_obs::BYTES_BOUNDS),
            chunk_frames: r.counter("net.chunk.frames_total"),
            chunk_bytes: r.counter("net.chunk.bytes_total"),
            chunk_aborts: r.counter("net.chunk.aborts_total"),
            chunk_reassembly: r.gauge("net.chunk.reassembly_bytes"),
        }
    }

    fn ok(&self) {
        self.requests.inc();
        self.responses_ok.inc();
    }

    fn fault(&self) {
        self.requests.inc();
        self.faults.inc();
    }
}

/// A connection's server-side parse state.
struct SrvConn {
    inbox: Vec<u8>,
    shaken: bool,
    /// Chunked-transfer reassembly state, mirroring the real server's
    /// per-connection assembler.
    assembler: ChunkAssembler,
    /// Reassembly bytes last published into the gauge for this conn.
    reported: i64,
    /// Chunk frames accepted so far — the stall probe's progress witness
    /// for idleness *between* chunk frames (the inbox is empty then).
    chunk_seen: u64,
}

impl SrvConn {
    fn new(max_doc: usize) -> SrvConn {
        SrvConn {
            inbox: Vec::new(),
            shaken: false,
            assembler: ChunkAssembler::new(max_doc),
            reported: 0,
            chunk_seen: 0,
        }
    }
}

/// Work extracted from a frame in Phase A and dispatched to the
/// application handler unlocked in Phase B — the sim analogue of the
/// real server's `Work`.
enum SrvWork {
    Envelope(String),
    Document { name: String, text: String },
}

struct ServerEntry {
    handler: Arc<dyn Handler>,
    config: SimServerConfig,
    metrics: SrvMetrics,
    up: bool,
    conns: BTreeMap<u64, SrvConn>,
}

impl ServerEntry {
    /// Removes a connection's server-side state, giving back its
    /// reassembly gauge bytes and accounting an abandoned transfer —
    /// every removal path must come through here or the gauge leaks.
    fn drop_conn(&mut self, conn_id: u64) {
        if let Some(sc) = self.conns.remove(&conn_id) {
            self.metrics.chunk_reassembly.add(-sc.reported);
            if sc.assembler.active() {
                self.metrics.chunk_aborts.inc();
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Open,
    /// Reset by a fault, a crash, or a mid-frame cut.
    Reset,
    /// Closed in an orderly way (server fault-and-close path).
    Closed,
}

struct Conn {
    client_name: String,
    server: String,
    state: ConnState,
    /// Bytes delivered toward the client, not yet consumed by a read.
    client_inbox: VecDeque<u8>,
    /// Partial frame bytes written by the client, awaiting completion.
    to_server_pending: Vec<u8>,
}

enum Event {
    /// Bytes (one frame, or a raw flushed segment) arrive at one side.
    Deliver {
        conn: u64,
        to_server: bool,
        bytes: Vec<u8>,
        reset_after: bool,
    },
    /// Server-side stall probe: fires when a partial frame sits
    /// unfinished, or a chunk transfer has gone quiet between frames
    /// (`len` is the inbox size when armed, `chunks` the chunk frames
    /// accepted so far — either advancing means progress).
    StallCheck { conn: u64, len: usize, chunks: u64 },
    /// Orderly server-side close (the FIN after a fault-and-close):
    /// scheduled at the fault frame's own delivery time so the client
    /// reads the fault first and EOF second, like TCP data-before-FIN.
    Close { conn: u64 },
    Crash { endpoint: String },
    Restart { endpoint: String },
}

struct Scheduled {
    at_ns: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at_ns, self.seq) == (other.at_ns, other.seq)
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.at_ns, other.seq).cmp(&(self.at_ns, self.seq))
    }
}

struct WorldState {
    now_ns: u64,
    seq: u64,
    rng: StdRng,
    plan: FaultPlan,
    queue: BinaryHeap<Scheduled>,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    servers: BTreeMap<String, ServerEntry>,
    log: Vec<String>,
    /// First-appearance normalization of wire request ids, so event logs
    /// and transcripts compare byte-identically across runs even though
    /// ids come from a process-global counter.
    id_norm: HashMap<u64, u64>,
}

pub(crate) struct WorldInner {
    state: Mutex<WorldState>,
}

/// Handle on one deterministic world. Cloning shares the world.
#[derive(Clone)]
pub struct SimWorld {
    inner: Arc<WorldInner>,
}

impl WorldState {
    fn log(&mut self, msg: String) {
        self.log.push(format!("@{:>12} {}", self.now_ns, msg));
    }

    fn norm_id(&mut self, id: u64) -> u64 {
        if id == 0 {
            return 0;
        }
        let next = self.id_norm.len() as u64 + 1;
        *self.id_norm.entry(id).or_insert(next)
    }

    fn schedule(&mut self, at_ns: u64, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at_ns, seq, event });
    }

    fn partitioned(&self, from: &str, to: &str) -> bool {
        self.plan.partitions.iter().any(|p| {
            ((p.a == from && p.b == to) || (!p.oneway && p.a == to && p.b == from))
                && self.now_ns >= p.from_ns
                && self.now_ns < p.until_ns
        })
    }

    /// Describes frame bytes for the log: `Request id=R3 len=120`, or a
    /// raw segment when the bytes are not a whole header.
    fn describe(&mut self, bytes: &[u8]) -> String {
        if bytes.len() < wire::HEADER_LEN {
            return format!("segment len={}", bytes.len());
        }
        let kind = match FrameType::from_byte(bytes[0]) {
            Ok(k) => format!("{k:?}"),
            Err(_) => format!("type=0x{:02x}", bytes[0]),
        };
        let id = u64::from_be_bytes(bytes[1..9].try_into().expect("8 id bytes"));
        let len = u32::from_be_bytes(bytes[9..13].try_into().expect("4 len bytes"));
        format!("{kind} id=R{} len={len}", self.norm_id(id))
    }

    /// Applies the fault pipeline to one outbound frame (or flushed raw
    /// segment) and schedules its delivery. Returns the virtual time at
    /// which the (primary copy of the) frame lands, so callers that close
    /// the connection afterwards can order the close behind the data;
    /// dropped or partitioned frames report the current time.
    fn transmit(&mut self, conn_id: u64, to_server: bool, bytes: Vec<u8>) -> u64 {
        let Some(conn) = self.conns.get(&conn_id) else {
            return self.now_ns;
        };
        if conn.state != ConnState::Open {
            return self.now_ns;
        }
        let (from, to) = if to_server {
            (conn.client_name.clone(), conn.server.clone())
        } else {
            (conn.server.clone(), conn.client_name.clone())
        };
        let what = self.describe(&bytes);
        let dir = format!("{from}->{to} conn={conn_id}");
        if self.partitioned(&from, &to) {
            self.log(format!("PARTITIONED {dir} {what}"));
            return self.now_ns;
        }
        let plan = self.plan.clone();
        // Chunk frames can carry their own (usually higher) fault rates,
        // so a scenario can batter the transfer path while the handshake
        // and reply frames stay deliverable.
        let is_chunk = bytes.len() >= wire::HEADER_LEN
            && FrameType::from_byte(bytes[0]).is_ok_and(|k| {
                matches!(
                    k,
                    FrameType::DocChunkStart | FrameType::DocChunk | FrameType::DocChunkEnd
                )
            });
        let drop_prob = if is_chunk {
            plan.drop_prob.max(plan.chunk_drop_prob)
        } else {
            plan.drop_prob
        };
        let dup_prob = if is_chunk {
            plan.dup_prob.max(plan.chunk_dup_prob)
        } else {
            plan.dup_prob
        };
        let reset_prob = if is_chunk {
            plan.reset_prob.max(plan.chunk_reset_prob)
        } else {
            plan.reset_prob
        };
        if self.rng.random_bool(drop_prob) {
            self.log(format!("DROP {dir} {what}"));
            return self.now_ns;
        }
        if bytes.len() > 1 && self.rng.random_bool(reset_prob) {
            let cut = self.rng.random_range(1..bytes.len() as u64) as usize;
            let at = self.now_ns + self.latency(&plan);
            self.log(format!("RESET-MID-FRAME {dir} {what} cut={cut}"));
            self.schedule(
                at,
                Event::Deliver {
                    conn: conn_id,
                    to_server,
                    bytes: bytes[..cut].to_vec(),
                    reset_after: true,
                },
            );
            return at;
        }
        let mut latency = self.latency(&plan);
        if self.rng.random_bool(plan.delay_prob) && plan.extra_delay_ns > 0 {
            let extra = self.rng.random_range(0..plan.extra_delay_ns);
            latency += extra;
            self.log(format!("DELAY {dir} {what} extra={extra}ns"));
        }
        self.log(format!("SEND {dir} {what}"));
        let at = self.now_ns + latency;
        self.schedule(
            at,
            Event::Deliver {
                conn: conn_id,
                to_server,
                bytes: bytes.clone(),
                reset_after: false,
            },
        );
        if self.rng.random_bool(dup_prob) {
            let at = self.now_ns + self.latency(&plan);
            self.log(format!("DUPLICATE {dir} {what}"));
            self.schedule(
                at,
                Event::Deliver {
                    conn: conn_id,
                    to_server,
                    bytes,
                    reset_after: false,
                },
            );
        }
        at
    }

    fn latency(&mut self, plan: &FaultPlan) -> u64 {
        let jitter = if plan.jitter_ns > 0 {
            self.rng.random_range(0..=plan.jitter_ns)
        } else {
            0
        };
        plan.base_latency_ns + jitter
    }
}

/// Splits complete wire frames off the front of `pending`. Bytes of an
/// incomplete trailing frame stay put.
fn take_frames(pending: &mut Vec<u8>) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    loop {
        if pending.len() < wire::HEADER_LEN {
            break;
        }
        let len = u32::from_be_bytes(pending[9..13].try_into().expect("4 len bytes")) as usize;
        let total = wire::HEADER_LEN + len;
        if pending.len() < total {
            break;
        }
        let rest = pending.split_off(total);
        frames.push(std::mem::replace(pending, rest));
    }
    frames
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(wire::HEADER_LEN + frame.payload.len());
    wire::write_frame(&mut buf, frame).expect("in-memory frame encode");
    buf
}

impl SimWorld {
    /// Creates a world from one seed and a fault schedule; crashes and
    /// restarts are queued up front.
    pub fn new(seed: u64, plan: FaultPlan) -> SimWorld {
        let mut state = WorldState {
            now_ns: 0,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            plan: plan.clone(),
            queue: BinaryHeap::new(),
            conns: BTreeMap::new(),
            next_conn: 1,
            servers: BTreeMap::new(),
            log: Vec::new(),
            id_norm: HashMap::new(),
        };
        state.log(format!("WORLD seed={seed}"));
        for c in &plan.crashes {
            state.schedule(
                c.at_ns,
                Event::Crash {
                    endpoint: c.endpoint.clone(),
                },
            );
            state.schedule(
                c.at_ns + c.down_ns,
                Event::Restart {
                    endpoint: c.endpoint.clone(),
                },
            );
        }
        SimWorld {
            inner: Arc::new(WorldInner {
                state: Mutex::new(state),
            }),
        }
    }

    /// Registers a server actor on `endpoint`, serving `handler` over the
    /// wire protocol with the real server's fault semantics (handshake,
    /// `TooLarge`, mid-frame `Timeout`, `Busy` backpressure, stats).
    pub fn listen(&self, endpoint: &str, handler: Arc<dyn Handler>, config: SimServerConfig) {
        let mut st = self.inner.state.lock();
        let metrics = SrvMetrics::new(&config.metrics);
        st.servers.insert(
            endpoint.to_owned(),
            ServerEntry {
                handler,
                config,
                metrics,
                up: true,
                conns: BTreeMap::new(),
            },
        );
        st.log(format!("LISTEN {endpoint}"));
    }

    /// The virtual clock, for injection into clients.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::new(SimClock {
            world: Arc::clone(&self.inner),
        })
    }

    /// A transport dialing this world's endpoints; `client_name` is the
    /// partition-relevant identity of the dialing side.
    pub fn transport(&self, client_name: &str) -> Arc<dyn Transport> {
        Arc::new(SimTransport {
            world: Arc::clone(&self.inner),
            client_name: client_name.to_owned(),
        })
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.inner.state.lock().now_ns
    }

    /// Advances virtual time by `d`, processing everything due.
    pub fn advance(&self, d: Duration) {
        let target = self.inner.state.lock().now_ns + d.as_nanos() as u64;
        self.inner.advance_to(target);
    }

    /// Drains every scheduled event (delivers all in-flight frames).
    pub fn run_until_idle(&self) {
        loop {
            let next = self.inner.state.lock().queue.peek().map(|s| s.at_ns);
            match next {
                Some(at) => self.inner.advance_to(at),
                None => return,
            }
        }
    }

    /// The full event log, one line per network-visible decision, with
    /// request ids normalized — byte-identical across same-seed runs.
    pub fn event_log(&self) -> String {
        self.inner.state.lock().log.join("\n")
    }

    /// Normalizes a wire request id the way the event log does.
    pub fn norm_id(&self, id: u64) -> u64 {
        self.inner.state.lock().norm_id(id)
    }

    /// Mutates the fault plan mid-run — e.g. switching duplication on only
    /// after a clean handshake, or clearing every fault for a quiescent
    /// tail. Deterministic as long as the call happens at a deterministic
    /// virtual time.
    pub fn with_plan(&self, f: impl FnOnce(&mut FaultPlan)) {
        f(&mut self.inner.state.lock().plan);
    }
}

impl WorldInner {
    /// Processes all events due at or before `target`, then sets time to
    /// `target`. The single pump everything blocks through.
    fn advance_to(self: &Arc<Self>, target: u64) {
        loop {
            let due = {
                let mut st = self.state.lock();
                if target > st.plan.horizon_ns {
                    let tail: Vec<_> = st.log.iter().rev().take(25).cloned().collect();
                    panic!(
                        "sim horizon exceeded at {}ns — scenario would hang; log tail:\n{}",
                        st.now_ns,
                        tail.into_iter().rev().collect::<Vec<_>>().join("\n")
                    );
                }
                match st.queue.peek() {
                    Some(s) if s.at_ns <= target => {
                        let s = st.queue.pop().expect("peeked event");
                        st.now_ns = st.now_ns.max(s.at_ns);
                        Some(s.event)
                    }
                    _ => {
                        st.now_ns = st.now_ns.max(target);
                        None
                    }
                }
            };
            match due {
                Some(event) => self.handle_event(event),
                None => return,
            }
        }
    }

    fn handle_event(self: &Arc<Self>, event: Event) {
        match event {
            Event::Deliver {
                conn,
                to_server,
                bytes,
                reset_after,
            } => self.deliver(conn, to_server, bytes, reset_after),
            Event::StallCheck { conn, len, chunks } => self.stall_check(conn, len, chunks),
            Event::Close { conn } => {
                let mut st = self.state.lock();
                let closed = match st.conns.get_mut(&conn) {
                    Some(c) if c.state == ConnState::Open => {
                        c.state = ConnState::Closed;
                        true
                    }
                    _ => false,
                };
                if closed {
                    st.log(format!("CLOSE conn={conn} (server fin)"));
                }
            }
            Event::Crash { endpoint } => {
                let mut st = self.state.lock();
                st.log(format!("CRASH {endpoint}"));
                if let Some(server) = st.servers.get_mut(&endpoint) {
                    server.up = false;
                    let ids: Vec<u64> = server.conns.keys().copied().collect();
                    for id in ids {
                        server.drop_conn(id);
                    }
                }
                let reset: Vec<u64> = st
                    .conns
                    .iter()
                    .filter(|(_, c)| c.server == endpoint && c.state == ConnState::Open)
                    .map(|(id, _)| *id)
                    .collect();
                for id in reset {
                    st.conns.get_mut(&id).expect("live conn").state = ConnState::Reset;
                    st.log(format!("CONN-RESET conn={id} (crash)"));
                }
            }
            Event::Restart { endpoint } => {
                let mut st = self.state.lock();
                st.log(format!("RESTART {endpoint}"));
                if let Some(server) = st.servers.get_mut(&endpoint) {
                    server.up = true;
                }
            }
        }
    }

    fn deliver(self: &Arc<Self>, conn_id: u64, to_server: bool, bytes: Vec<u8>, reset_after: bool) {
        {
            let mut st = self.state.lock();
            let Some(conn) = st.conns.get(&conn_id) else {
                return;
            };
            if conn.state != ConnState::Open {
                return;
            }
            let what = st.describe(&bytes);
            st.log(format!(
                "DELIVER conn={conn_id} {} {what}",
                if to_server { "->server" } else { "->client" }
            ));
            let server_name = st.conns.get(&conn_id).expect("live conn").server.clone();
            if to_server {
                let up = st.servers.get(&server_name).map(|s| s.up).unwrap_or(false);
                if !up {
                    st.log(format!("LOST conn={conn_id} (endpoint down)"));
                    return;
                }
                if let Some(server) = st.servers.get_mut(&server_name) {
                    let max_doc = server.config.max_doc;
                    server
                        .conns
                        .entry(conn_id)
                        .or_insert_with(|| SrvConn::new(max_doc))
                        .inbox
                        .extend_from_slice(&bytes);
                }
            } else {
                st.conns
                    .get_mut(&conn_id)
                    .expect("live conn")
                    .client_inbox
                    .extend(bytes.iter().copied());
            }
            if reset_after {
                st.conns.get_mut(&conn_id).expect("live conn").state = ConnState::Reset;
                st.log(format!("CONN-RESET conn={conn_id} (mid-frame cut)"));
                if let Some(server) = st.servers.get_mut(&server_name) {
                    server.drop_conn(conn_id);
                }
                return;
            }
        }
        if to_server {
            self.server_pump(conn_id);
        }
    }

    /// Parses and answers every complete frame sitting in the server-side
    /// inbox of `conn_id`. The application handler runs with the world
    /// unlocked.
    fn server_pump(self: &Arc<Self>, conn_id: u64) {
        loop {
            // Phase 1 (locked): extract one actionable frame.
            let action = {
                let mut st = self.state.lock();
                let Some(conn) = st.conns.get(&conn_id) else {
                    return;
                };
                if conn.state != ConnState::Open {
                    return;
                }
                let server_name = conn.server.clone();
                let Some(server) = st.servers.get_mut(&server_name) else {
                    return;
                };
                let max_frame = server.config.max_frame;
                let read_timeout = server.config.read_timeout;
                let Some(sc) = server.conns.get_mut(&conn_id) else {
                    return;
                };
                if sc.inbox.len() >= wire::HEADER_LEN {
                    let len = u32::from_be_bytes(
                        sc.inbox[9..13].try_into().expect("4 len bytes"),
                    ) as usize;
                    if len > max_frame {
                        // Mirror the real server: the stream is no longer
                        // framed — fault with id 0 and close.
                        server.metrics.fault();
                        server.metrics.too_large.inc();
                        server.metrics.frame_bytes.observe(len as u64);
                        let f = WireFault::new(
                            FaultCode::TooLarge,
                            format!("{len}-byte payload exceeds the {max_frame}-byte cap"),
                        );
                        let bytes = encode(&wire::fault(0, &f));
                        server.drop_conn(conn_id);
                        let at = st.transmit(conn_id, false, bytes);
                        st.log(format!("SRV {server_name} conn={conn_id} too-large close"));
                        st.schedule(at, Event::Close { conn: conn_id });
                        return;
                    }
                }
                let mut frames = take_frames(&mut server.conns.get_mut(&conn_id).expect("conn").inbox);
                if frames.is_empty() {
                    let sc = server.conns.get(&conn_id).expect("conn");
                    let pending = sc.inbox.len();
                    if pending > 0 || sc.assembler.active() {
                        // Partial frame, or silence inside an open chunk
                        // transfer: arm the stall probe.
                        let chunks = sc.chunk_seen;
                        let at = st.now_ns + read_timeout.as_nanos() as u64;
                        st.schedule(
                            at,
                            Event::StallCheck {
                                conn: conn_id,
                                len: pending,
                                chunks,
                            },
                        );
                    }
                    return;
                }
                // Put back all but the first; loop re-extracts them.
                let frame_bytes = frames.remove(0);
                if !frames.is_empty() {
                    let sc = st
                        .servers
                        .get_mut(&server_name)
                        .expect("server")
                        .conns
                        .get_mut(&conn_id)
                        .expect("conn");
                    let mut rest: Vec<u8> = frames.concat();
                    rest.extend_from_slice(&sc.inbox);
                    sc.inbox = rest;
                }
                let frame = wire::read_frame(&mut frame_bytes.as_slice(), max_frame)
                    .map_err(|e| e.to_string());
                Some((server_name, frame))
            };
            let Some((server_name, frame)) = action else {
                return;
            };
            match frame {
                Ok(frame) => self.server_on_frame(&server_name, conn_id, frame),
                Err(e) => {
                    let mut st = self.state.lock();
                    let f = WireFault::new(FaultCode::BadFrame, e);
                    if let Some(server) = st.servers.get_mut(&server_name) {
                        server.metrics.fault();
                        server.drop_conn(conn_id);
                    }
                    let bytes = encode(&wire::fault(0, &f));
                    let at = st.transmit(conn_id, false, bytes);
                    st.schedule(at, Event::Close { conn: conn_id });
                    return;
                }
            }
        }
    }

    /// Handles one parsed frame at a server actor — the sim analogue of
    /// the real server's `serve_frames` + worker dispatch.
    fn server_on_frame(self: &Arc<Self>, server_name: &str, conn_id: u64, frame: Frame) {
        // Phase A (locked): everything that needs no application handler.
        let request = {
            let mut st = self.state.lock();
            let busy_prob = st.plan.busy_prob;
            // A chunked transfer only claims a worker slot when it
            // completes, so the busy draw applies to End frames too —
            // mirroring the real server's try_send at Complete.
            let busy_draw = if matches!(frame.kind, FrameType::Request | FrameType::DocChunkEnd) {
                st.rng.random_bool(busy_prob)
            } else {
                false
            };
            let Some(server) = st.servers.get_mut(server_name) else {
                return;
            };
            server.metrics.frame_bytes.observe(frame.payload.len() as u64);
            let shaken = server
                .conns
                .get(&conn_id)
                .map(|c| c.shaken)
                .unwrap_or(false);
            match frame.kind {
                FrameType::Hello => {
                    let reply = match wire::decode_hello(&frame.payload) {
                        Ok((version, _peer)) if version == wire::VERSION => {
                            server.metrics.connections.inc();
                            server.conns.get_mut(&conn_id).expect("conn").shaken = true;
                            wire::welcome_with(&server.config.name, wire::CAP_CHUNKED)
                        }
                        Ok((version, _)) => wire::fault(
                            0,
                            &WireFault::new(
                                FaultCode::Version,
                                format!(
                                    "server speaks version {}, client {version}",
                                    wire::VERSION
                                ),
                            ),
                        ),
                        Err(e) => wire::fault(
                            0,
                            &WireFault::new(FaultCode::BadFrame, format!("bad Hello: {e}")),
                        ),
                    };
                    let bytes = encode(&reply);
                    st.transmit(conn_id, false, bytes);
                    None
                }
                FrameType::StatsRequest => {
                    // Inline, outside request accounting — like the real
                    // reader thread.
                    let snapshot = server.config.metrics.snapshot().to_json();
                    let bytes = encode(&wire::stats_response(frame.id, &snapshot));
                    st.transmit(conn_id, false, bytes);
                    None
                }
                FrameType::Request
                | FrameType::DocChunkStart
                | FrameType::DocChunk
                | FrameType::DocChunkEnd
                    if !shaken =>
                {
                    server.metrics.fault();
                    let f =
                        WireFault::new(FaultCode::BadFrame, "expected Hello to open the connection");
                    let bytes = encode(&wire::fault(frame.id, &f));
                    st.transmit(conn_id, false, bytes);
                    None
                }
                FrameType::DocChunkStart | FrameType::DocChunk | FrameType::DocChunkEnd => {
                    server.metrics.chunk_frames.inc();
                    if frame.kind == FrameType::DocChunk {
                        server
                            .metrics
                            .chunk_bytes
                            .add(frame.payload.len().saturating_sub(4) as u64);
                    }
                    let sc = server.conns.get_mut(&conn_id).expect("conn");
                    sc.chunk_seen += 1;
                    let outcome = sc.assembler.accept(&frame);
                    let now = sc.assembler.buffered_len() as i64;
                    server.metrics.chunk_reassembly.add(now - sc.reported);
                    sc.reported = now;
                    match outcome {
                        Ok(ChunkProgress::Pending) | Ok(ChunkProgress::Drained) => None,
                        Ok(ChunkProgress::Complete { name, bytes, .. }) => {
                            match String::from_utf8(bytes) {
                                Ok(text) if busy_draw => {
                                    // The completed document is rejected at
                                    // the worker-queue door, like a Request.
                                    server.metrics.fault();
                                    server.metrics.busy.inc();
                                    let f = WireFault::new(
                                        FaultCode::Busy,
                                        "in-flight request queue is full",
                                    )
                                    .retryable();
                                    let bytes = encode(&wire::fault(frame.id, &f));
                                    st.log(format!("SRV {server_name} conn={conn_id} busy"));
                                    st.transmit(conn_id, false, bytes);
                                    let _ = (name, text);
                                    None
                                }
                                Ok(text) => Some((frame.id, SrvWork::Document { name, text })),
                                Err(_) => {
                                    server.metrics.fault();
                                    server.metrics.chunk_aborts.inc();
                                    let f = WireFault::new(
                                        FaultCode::Client,
                                        "chunked document is not UTF-8",
                                    );
                                    let bytes = encode(&wire::fault(frame.id, &f));
                                    st.transmit(conn_id, false, bytes);
                                    None
                                }
                            }
                        }
                        Err(e) => {
                            // Transfer dead, stream still framed: fault the
                            // transfer's id and keep serving, like the real
                            // server.
                            server.metrics.fault();
                            server.metrics.chunk_aborts.inc();
                            let f = match e {
                                WireError::TooLarge { len, max } => {
                                    server.metrics.too_large.inc();
                                    server.metrics.frame_bytes.observe(len as u64);
                                    WireFault::new(
                                        FaultCode::TooLarge,
                                        format!(
                                            "chunked transfer of {len} cumulative bytes exceeds the {max}-byte cap"
                                        ),
                                    )
                                }
                                other => WireFault::new(FaultCode::BadFrame, other.to_string()),
                            };
                            let bytes = encode(&wire::fault(frame.id, &f));
                            st.transmit(conn_id, false, bytes);
                            None
                        }
                    }
                }
                FrameType::Request => {
                    if busy_draw {
                        server.metrics.fault();
                        server.metrics.busy.inc();
                        let f = WireFault::new(
                            FaultCode::Busy,
                            "in-flight request queue is full",
                        )
                        .retryable();
                        let bytes = encode(&wire::fault(frame.id, &f));
                        st.log(format!("SRV {server_name} conn={conn_id} busy"));
                        st.transmit(conn_id, false, bytes);
                        None
                    } else {
                        match wire::decode_envelope(&frame.payload) {
                            Ok(envelope) => Some((frame.id, SrvWork::Envelope(envelope))),
                            Err(e) => {
                                server.metrics.fault();
                                let f = WireFault::new(FaultCode::Client, e.to_string());
                                let bytes = encode(&wire::fault(frame.id, &f));
                                st.transmit(conn_id, false, bytes);
                                None
                            }
                        }
                    }
                }
                other => {
                    server.metrics.fault();
                    let f = WireFault::new(
                        FaultCode::BadFrame,
                        format!("expected a Request frame, got {other:?}"),
                    );
                    let bytes = encode(&wire::fault(frame.id, &f));
                    st.transmit(conn_id, false, bytes);
                    None
                }
            }
        };
        // Phase B (unlocked): the application handler.
        let Some((id, work)) = request else {
            return;
        };
        let handler = {
            let st = self.state.lock();
            match st.servers.get(server_name) {
                Some(s) => Arc::clone(&s.handler),
                None => return,
            }
        };
        let outcome = match &work {
            SrvWork::Envelope(envelope) => handler.handle(id, envelope),
            SrvWork::Document { name, text } => handler.handle_document(id, name, text),
        };
        // Phase C (locked): account and send the reply. The endpoint may
        // have crashed while "handling" — then the reply is lost with it.
        let mut st = self.state.lock();
        let Some(server) = st.servers.get_mut(server_name) else {
            return;
        };
        if !server.up || !server.conns.contains_key(&conn_id) {
            st.log(format!(
                "SRV {server_name} conn={conn_id} reply lost (crash during handling)"
            ));
            return;
        }
        let reply = match outcome {
            Ok(envelope) => {
                server.metrics.ok();
                wire::response(id, &envelope)
            }
            Err(fault) => {
                server.metrics.fault();
                wire::fault(id, &fault)
            }
        };
        let bytes = encode(&reply);
        st.transmit(conn_id, false, bytes);
    }

    fn stall_check(self: &Arc<Self>, conn_id: u64, len: usize, chunks: u64) {
        let mut st = self.state.lock();
        let Some(conn) = st.conns.get(&conn_id) else {
            return;
        };
        if conn.state != ConnState::Open {
            return;
        }
        let server_name = conn.server.clone();
        let Some(server) = st.servers.get_mut(&server_name) else {
            return;
        };
        let Some(sc) = server.conns.get(&conn_id) else {
            return;
        };
        let still = sc.inbox.len();
        if still != len || sc.chunk_seen != chunks {
            return; // progress was made since the probe was armed
        }
        let msg = if still > 0 {
            "read timed out mid-frame"
        } else if sc.assembler.active() {
            "read timed out mid-chunk-transfer"
        } else {
            return; // inbox drained and no transfer open: idle, not stalled
        };
        server.metrics.fault();
        server.metrics.timeouts.inc();
        server.drop_conn(conn_id);
        let f = WireFault::new(FaultCode::Timeout, msg);
        let bytes = encode(&wire::fault(0, &f));
        st.log(format!("SRV {server_name} conn={conn_id} stalled close"));
        let at = st.transmit(conn_id, false, bytes);
        st.schedule(at, Event::Close { conn: conn_id });
    }
}

/// Virtual time as a [`Clock`]: sleeping pumps the world.
pub struct SimClock {
    world: Arc<WorldInner>,
}

impl Clock for SimClock {
    fn now_ns(&self) -> u64 {
        self.world.state.lock().now_ns
    }

    fn sleep(&self, d: Duration) {
        let target = self.world.state.lock().now_ns + d.as_nanos() as u64;
        self.world.advance_to(target);
    }
}

/// The in-memory [`Transport`]: endpoints are names registered with
/// [`SimWorld::listen`].
pub struct SimTransport {
    world: Arc<WorldInner>,
    client_name: String,
}

impl Transport for SimTransport {
    fn connect(&self, endpoint: &str, timeout: Duration) -> io::Result<Box<dyn Duplex>> {
        // Dialing costs one base latency of virtual time either way.
        let (target, refused, partitioned) = {
            let st = self.world.state.lock();
            let base = st.plan.base_latency_ns;
            let up = st.servers.get(endpoint).map(|s| s.up);
            let partitioned = st.partitioned(&self.client_name, endpoint);
            let target = st.now_ns
                + if partitioned {
                    timeout.as_nanos() as u64
                } else {
                    base
                };
            (target, up != Some(true), partitioned)
        };
        self.world.advance_to(target);
        if partitioned {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("connect to {endpoint} timed out (partitioned)"),
            ));
        }
        if refused {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("{endpoint} refused the connection"),
            ));
        }
        let mut st = self.world.state.lock();
        // The endpoint may have crashed while the dial was in flight.
        if st.servers.get(endpoint).map(|s| s.up) != Some(true) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("{endpoint} refused the connection"),
            ));
        }
        let id = st.next_conn;
        st.next_conn += 1;
        st.conns.insert(
            id,
            Conn {
                client_name: self.client_name.clone(),
                server: endpoint.to_owned(),
                state: ConnState::Open,
                client_inbox: VecDeque::new(),
                to_server_pending: Vec::new(),
            },
        );
        {
            let server = st.servers.get_mut(endpoint).expect("listening server");
            let max_doc = server.config.max_doc;
            server.conns.insert(id, SrvConn::new(max_doc));
        }
        st.log(format!(
            "CONNECT {}->{endpoint} conn={id}",
            self.client_name
        ));
        Ok(Box::new(SimDuplex {
            world: Arc::clone(&self.world),
            conn: id,
            read_timeout: Mutex::new(Some(Duration::from_secs(5))),
        }))
    }
}

/// The client side of one simulated connection.
pub struct SimDuplex {
    world: Arc<WorldInner>,
    conn: u64,
    read_timeout: Mutex<Option<Duration>>,
}

impl Read for SimDuplex {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = *self.read_timeout.lock();
        let deadline = {
            let st = self.world.state.lock();
            timeout.map(|t| st.now_ns + t.as_nanos() as u64)
        };
        loop {
            let next_event = {
                let mut st = self.world.state.lock();
                let Some(conn) = st.conns.get_mut(&self.conn) else {
                    return Err(io::Error::new(
                        io::ErrorKind::NotConnected,
                        "connection is gone",
                    ));
                };
                if !conn.client_inbox.is_empty() {
                    let n = buf.len().min(conn.client_inbox.len());
                    for b in buf.iter_mut().take(n) {
                        *b = conn.client_inbox.pop_front().expect("checked non-empty");
                    }
                    return Ok(n);
                }
                match conn.state {
                    ConnState::Reset => {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionReset,
                            "connection reset by simulated fault",
                        ));
                    }
                    ConnState::Closed => return Ok(0),
                    ConnState::Open => {}
                }
                st.queue.peek().map(|s| s.at_ns)
            };
            match (next_event, deadline) {
                // An event is due before the deadline: pump it.
                (Some(at), Some(dl)) if at <= dl => self.world.advance_to(at),
                (Some(at), None) => self.world.advance_to(at),
                // Nothing can arrive in time: burn the wait, time out.
                (_, Some(dl)) => {
                    self.world.advance_to(dl);
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "simulated read timed out",
                    ));
                }
                (None, None) => {
                    let mut st = self.world.state.lock();
                    let tail: Vec<_> = st.log.iter().rev().take(25).cloned().collect();
                    st.log("DEADLOCK".to_owned());
                    panic!(
                        "sim deadlock: blocking read with no timeout and no scheduled events; log tail:\n{}",
                        tail.into_iter().rev().collect::<Vec<_>>().join("\n")
                    );
                }
            }
        }
    }
}

impl Write for SimDuplex {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.world.state.lock();
        let Some(conn) = st.conns.get_mut(&self.conn) else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection is gone",
            ));
        };
        match conn.state {
            ConnState::Open => {}
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "connection is closed",
                ));
            }
        }
        conn.to_server_pending.extend_from_slice(buf);
        let frames = take_frames(&mut conn.to_server_pending);
        for frame in frames {
            st.transmit(self.conn, true, frame);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Ship any partial frame as a raw segment: this is how a test
        // models a writer that stalls mid-frame.
        let mut st = self.world.state.lock();
        let Some(conn) = st.conns.get_mut(&self.conn) else {
            return Ok(());
        };
        if conn.state == ConnState::Open && !conn.to_server_pending.is_empty() {
            let bytes = std::mem::take(&mut conn.to_server_pending);
            st.transmit(self.conn, true, bytes);
        }
        Ok(())
    }
}

impl Duplex for SimDuplex {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        *self.read_timeout.lock() = d;
        Ok(())
    }

    fn set_write_timeout(&self, _d: Option<Duration>) -> io::Result<()> {
        Ok(()) // sim writes never block
    }

    fn try_clone(&self) -> io::Result<Box<dyn Duplex>> {
        Ok(Box::new(SimDuplex {
            world: Arc::clone(&self.world),
            conn: self.conn,
            read_timeout: Mutex::new(*self.read_timeout.lock()),
        }))
    }
}
