//! The event-driven connection engine ([`IoMode::Poll`]): sharded
//! epoll/kqueue readiness loops multiplexing thousands of non-blocking
//! TCP connections. DESIGN.md §12 is the architecture document.
//!
//! Shape:
//!
//! * **Shards** — `ServerConfig::shards` threads, each owning one
//!   `axml_support::poll::Poller`, its own connection table, and its own
//!   bounded request queue. The listening socket is registered in *every*
//!   shard's poller (level-triggered), so accepts self-balance: whichever
//!   shard wakes first wins the connection, the rest see `WouldBlock`.
//! * **Connections** — a non-blocking `TcpStream`, a
//!   [`FrameDecoder`](crate::frames::FrameDecoder) reassembling frames
//!   across arbitrary partial reads, and the protocol core
//!   ([`Connection`]), whose out-buffer holds the pending writes. All
//!   socket I/O for a connection happens on its shard thread; workers
//!   never touch sockets.
//! * **Workers** — the ordinary [`worker_loop`] from the threads engine,
//!   partitioned across shards (at least one each). Replies travel back
//!   via the shard's outbox + waker ([`ReplyTo::Shard`]) and are flushed
//!   by the shard loop.
//! * **Fairness** — level-triggered readiness plus a per-event read
//!   budget ([`MAX_READS_PER_EVENT`] × 64 KiB): a fire-hosing connection
//!   yields the shard after its budget, and undrained sockets are simply
//!   re-reported on the next `wait`. No connection can park the shard.
//! * **Deadlines** — the poller wakes at least every ~`read_timeout`/4
//!   (capped to 50 ms) and sweeps: a connection silent for longer than
//!   `read_timeout` is handed to its core as `Stalled` (mid-frame) or
//!   `Idle` (between frames) — exactly what the blocking reader's timed
//!   out read reports — and one whose pending writes make no progress
//!   for `write_timeout` is dropped.
//!
//! Only the poll-specific gauges live here: `server.poll.connections`
//! and `server.poll.buffer_bytes` (the bounded-memory witness for the
//! 10k-connection smoke test).

use crate::conn::{Connection, Protocol};
use crate::frames::FrameDecoder;
use crate::server::{admit, worker_loop, Job, ReplyTo, ServerError, Shared};
use crate::wire::{Frame, WireError};
use axml_support::poll::{Event, Interest, Poller, Waker};
use axml_support::sync::channel::{bounded, Sender};
use axml_support::sync::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsFd;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The token every shard registers the shared listener under.
/// (`u64::MAX` itself is the poller's reserved waker token.)
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// How many 64 KiB reads one readiness event may consume before the
/// connection yields the shard to its neighbours.
const MAX_READS_PER_EVENT: usize = 16;

/// Shard-level read scratch. One per shard, not per connection — idle
/// connections cost only their (shrunk) decoder and `Conn` bookkeeping.
const SCRATCH_LEN: usize = 64 * 1024;

/// A shard's cross-thread face: where workers post finished replies.
pub(crate) struct ShardHandle {
    outbox: Mutex<Vec<(u64, Frame)>>,
    waker: Waker,
}

impl ShardHandle {
    /// Posts `frame` for connection `conn` and wakes the shard loop. If
    /// the connection has closed meanwhile the shard drops the frame —
    /// same outcome as the threads engine writing to a gone client.
    pub(crate) fn deliver(&self, conn: u64, frame: Frame) {
        self.outbox.lock().push((conn, frame));
        self.waker.wake();
    }
}

/// The running poll engine: shard threads + their worker pools.
pub(crate) struct PollEngine {
    shard_handles: Vec<Arc<ShardHandle>>,
    shards: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    job_txs: Vec<Sender<Job>>,
}

impl PollEngine {
    /// Spins up the shards and their workers on a bound, non-blocking
    /// listener.
    pub(crate) fn start(
        listener: TcpListener,
        shared: &Arc<Shared>,
    ) -> Result<PollEngine, ServerError> {
        let listener = Arc::new(listener);
        let nshards = shared.config.shards.max(1);
        let total_workers = shared.config.workers.max(1);
        let queue = shared.config.queue.max(1);
        let mut engine = PollEngine {
            shard_handles: Vec::with_capacity(nshards),
            shards: Vec::with_capacity(nshards),
            workers: Vec::new(),
            job_txs: Vec::with_capacity(nshards),
        };
        for s in 0..nshards {
            let poller = Poller::new().map_err(ServerError::Io)?;
            let handle = Arc::new(ShardHandle {
                outbox: Mutex::new(Vec::new()),
                waker: poller.waker(),
            });
            let (job_tx, job_rx) = bounded::<Job>(queue);
            let job_rx = Arc::new(Mutex::new(job_rx));
            // Spread the worker pool across shards, at least one each.
            let per = (total_workers / nshards + usize::from(s < total_workers % nshards)).max(1);
            for w in 0..per {
                let shared = Arc::clone(shared);
                let job_rx = Arc::clone(&job_rx);
                engine.workers.push(
                    std::thread::Builder::new()
                        .name(format!("axml-poll-worker-{s}-{w}"))
                        .spawn(move || worker_loop(&shared, &job_rx))
                        .expect("spawn worker thread"),
                );
            }
            let shard_thread = {
                let listener = Arc::clone(&listener);
                let handle = Arc::clone(&handle);
                let shared = Arc::clone(shared);
                let job_tx = job_tx.clone();
                std::thread::Builder::new()
                    .name(format!("axml-poll-shard-{s}"))
                    .spawn(move || shard_loop(&listener, &poller, &handle, &shared, &job_tx))
                    .expect("spawn shard thread")
            };
            engine.shard_handles.push(handle);
            engine.shards.push(shard_thread);
            engine.job_txs.push(job_tx);
        }
        Ok(engine)
    }

    /// Deterministic shutdown: wake + join every shard (their sockets
    /// close with them), then close the queues and join every worker.
    /// The caller has already raised the shared stop flag.
    pub(crate) fn stop(&mut self, note: &mut dyn FnMut(std::thread::Result<()>)) {
        for h in &self.shard_handles {
            h.waker.wake();
        }
        for s in self.shards.drain(..) {
            note(s.join());
        }
        // The shards' sender clones died with their threads; dropping
        // ours closes each queue, ending the workers once drained.
        self.job_txs.clear();
        for w in self.workers.drain(..) {
            note(w.join());
        }
    }
}

/// One connection's I/O state, owned by its shard thread.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// The protocol state; its out-buffer holds the pending writes.
    core: Connection,
    /// Whether the poller registration currently includes write interest.
    want_write: bool,
    /// Marked for removal; swept at the end of the loop iteration.
    dead: bool,
    /// Last byte received — the idle/stall deadline anchor, matching the
    /// blocking reader's per-`read` timeout semantics (a slow dribbler
    /// that keeps sending is never a stall).
    last_activity: Instant,
    /// Last write progress — anchors the `write_timeout` deadline.
    last_write_progress: Instant,
}

impl Conn {
    /// Bytes this connection pins: decoder, reassembly and out-buffer.
    fn buffered_len(&self) -> usize {
        self.decoder.buffered_len() + self.core.reassembly_len() + self.core.output().len()
    }
}

/// Everything a shard hands its connections' cores.
struct Ctx<'a> {
    proto: &'a Protocol,
    handle: &'a Arc<ShardHandle>,
    job_tx: &'a Sender<Job>,
}

impl Ctx<'_> {
    /// Feeds one input to connection `token`'s core, admitting work onto
    /// this shard's queue.
    fn feed(&self, conn: &mut Conn, token: u64, input: Result<Frame, WireError>) {
        conn.core.on_input(self.proto, input, |id, work| {
            let reply = ReplyTo::Shard {
                shard: Arc::clone(self.handle),
                conn: token,
            };
            admit(self.job_tx, Job { reply, id, work })
        });
    }
}

fn shard_loop(
    listener: &Arc<TcpListener>,
    poller: &Poller,
    handle: &Arc<ShardHandle>,
    shared: &Arc<Shared>,
    job_tx: &Sender<Job>,
) {
    let proto = &shared.proto;
    let metrics = &proto.metrics;
    let ctx = Ctx {
        proto,
        handle,
        job_tx,
    };
    let read_timeout = shared.config.read_timeout;
    let write_timeout = shared.config.write_timeout;
    // The wait timeout doubles as the deadline-sweep tick: fine enough
    // that a stall is detected within ~1.25 × read_timeout, coarse
    // enough that 10k idle connections cost one sweep per 50 ms.
    let tick = (read_timeout / 4)
        .min(Duration::from_millis(50))
        .max(Duration::from_millis(5));
    if poller
        .register(listener.as_fd(), LISTEN_TOKEN, Interest::READ)
        .is_err()
    {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; SCRATCH_LEN];
    let mut next_token: u64 = 0;
    let mut reported_bytes: i64 = 0;

    while !proto.stopping() {
        let _ = poller.wait(&mut events, Some(tick));
        if proto.stopping() {
            break;
        }
        let now = Instant::now();
        for i in 0..events.len() {
            let ev = events[i];
            if ev.token == LISTEN_TOKEN {
                accept_ready(listener, poller, shared, &mut conns, &mut next_token, now);
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            if ev.readable && !conn.dead {
                on_readable(conn, ev.token, &ctx, &mut scratch, now);
            }
            if !conn.dead {
                try_flush(conn, now);
            }
            if !conn.dead {
                update_interest(conn, ev.token, poller);
            }
        }
        // Worker replies: append to the owning connection's buffer.
        let pending = std::mem::take(&mut *handle.outbox.lock());
        for (token, frame) in pending {
            if let Some(conn) = conns.get_mut(&token) {
                if !conn.dead {
                    conn.core.push(&frame);
                    try_flush(conn, now);
                    if !conn.dead {
                        update_interest(conn, token, poller);
                    }
                }
            }
        }
        // Deadline sweep.
        for (&token, conn) in conns.iter_mut() {
            if conn.dead {
                continue;
            }
            if !conn.core.output().is_empty()
                && now.duration_since(conn.last_write_progress) > write_timeout
            {
                // The peer stopped draining its socket; drop it.
                conn.dead = true;
                continue;
            }
            if conn.core.is_closed() || now.duration_since(conn.last_activity) <= read_timeout {
                continue;
            }
            let timeout = if conn.decoder.mid_frame() {
                WireError::Stalled
            } else {
                WireError::Idle
            };
            ctx.feed(conn, token, Err(timeout));
            if conn.core.is_closed() {
                try_flush(conn, now);
                if !conn.dead {
                    update_interest(conn, token, poller);
                }
            }
        }
        // Sweep the dead and republish the bounded-memory gauge.
        conns.retain(|_, conn| {
            if conn.dead {
                let _ = poller.deregister(conn.stream.as_fd());
                metrics.poll_connections.sub(1);
                conn.core.close(proto);
            }
            !conn.dead
        });
        let total: i64 = conns.values().map(|c| c.buffered_len() as i64).sum();
        metrics.poll_buffer_bytes.add(total - reported_bytes);
        reported_bytes = total;
    }

    // Shutdown: connections die with the shard. Idle peers see a plain
    // close, as with the threads engine's readers.
    metrics.poll_buffer_bytes.add(-reported_bytes);
    for (_, mut conn) in conns.drain() {
        let _ = poller.deregister(conn.stream.as_fd());
        metrics.poll_connections.sub(1);
        conn.core.close(proto);
    }
}

fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    now: Instant,
) {
    loop {
        match listener.accept() {
            Ok((stream, _addr)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue; // stream drops, connection resets
                }
                shared.proto.accepted();
                let token = *next_token;
                *next_token += 1;
                if poller
                    .register(stream.as_fd(), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                shared.proto.metrics.poll_connections.add(1);
                let conn = Conn {
                    stream,
                    decoder: FrameDecoder::new(shared.config.max_frame),
                    core: Connection::new(&shared.proto),
                    want_write: false,
                    dead: false,
                    last_activity: now,
                    last_write_progress: now,
                };
                conns.insert(token, conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

fn on_readable(conn: &mut Conn, token: u64, ctx: &Ctx<'_>, scratch: &mut [u8], now: Instant) {
    for _ in 0..MAX_READS_PER_EVENT {
        let end = match conn.stream.read(scratch) {
            // End of stream: clean between frames, a truncation mid-frame
            // — what the blocking reader reports for the same bytes.
            Ok(0) if conn.decoder.mid_frame() => WireError::Io(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame".to_owned(),
            ),
            Ok(0) => WireError::Closed,
            Ok(n) => {
                conn.last_activity = now;
                if conn.core.is_closed() {
                    continue; // fated: discard whatever still arrives
                }
                conn.decoder.feed(&scratch[..n]);
                while !conn.core.is_closed() {
                    let Some(input) = conn.decoder.poll_frame().transpose() else {
                        break;
                    };
                    ctx.feed(conn, token, input);
                }
                if conn.core.is_closed() || n < scratch.len() {
                    return; // fated, or socket drained
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) => WireError::from(e),
        };
        // The read side is finished: let the core have its last word,
        // push it out, and drop the connection.
        ctx.feed(conn, token, Err(end));
        try_flush(conn, now);
        conn.dead = true;
        return;
    }
    // Budget exhausted: leftover socket bytes re-report on the next
    // wait (level-triggered), after the other connections get a turn.
}

fn try_flush(conn: &mut Conn, now: Instant) {
    loop {
        let out = conn.core.output();
        if out.is_empty() {
            break;
        }
        match conn.stream.write(out) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.core.consume(n);
                conn.last_write_progress = now;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.core.is_closed() {
        conn.dead = true;
    }
}

/// Syncs the poller registration with whether the connection has bytes
/// to write. Level-triggered write interest on an idle socket would
/// busy-spin the shard, so it is armed only while `out` is non-empty.
fn update_interest(conn: &mut Conn, token: u64, poller: &Poller) {
    let want = !conn.core.output().is_empty();
    if want != conn.want_write
        && poller
            .modify(
                conn.stream.as_fd(),
                token,
                if want {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                },
            )
            .is_ok()
    {
        conn.want_write = want;
    }
}
