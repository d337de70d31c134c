//! One benchmark run: set-up, warm-up, the measured window(s), the
//! correctness checks and the metrics.

use crate::inputs::{generate, slot_name, Inputs, Op, Workload};
use crate::replay;
use crate::rig::{execute, Done, Peers, Prep, Rig, TimedInvoker, FIELD_ENFORCE_REPLAY, SPAN_OP};
use crate::stats::{
    interquartile_mean, median_f64, percentile, ratio, stage_stat, tail_percentile, OpSpans,
    StageStat, PARTS,
};
use crate::sys;
use crate::trace;
use axml_core::solve_cache::CacheStats;
use axml_core::stream::{enforce_stream_to, StreamOptions};
use axml_obs::{RingSink, SpanSink};
use axml_schema::{validate, validate_output_instance};
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: f64 = (1 << 20) as f64;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Every n-th operation of a kind is checked inside a measured window
/// (every operation during warm-up).
const CHECK_EVERY: u64 = 8;
/// Reads issued after the window on workloads without reads in their mix.
const READBACK_OPS: usize = 800;
const READBACK_OPS_WIDE: usize = 2000;
/// Fewest nominal samples of a kind a slice needs for its own percentiles.
const MIN_SLICE_SAMPLES: usize = 40;
/// Read-backs during warm-up on those workloads.
const WARM_READS: usize = 20;

/// Parsed command line of one run.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured window length.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// The result of one run.
pub struct Outcome {
    /// All correctness checks passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Fixed nominal exchanges and reads per second per client, near what the
/// reference machine sustains. They fix each workload's nominal sample
/// counts, hence its tail percentile, and the traced windows' operation
/// counts, so neither drifts when the program gets faster.
fn nominal_rate(w: Workload) -> (f64, f64) {
    match w {
        Workload::Fig1Mix | Workload::Fig1MixPoll => (600.0, 1800.0),
        Workload::WideSolver => (300.0, 0.0),
        Workload::FeedChunked => (8.0, 0.0),
    }
}

/// Nominal sample counts `(writes, reads)` of an untraced run.
fn nominal_samples(w: Workload, seconds: u64) -> (usize, usize) {
    let (wr, rr) = nominal_rate(w);
    let per = |r: f64| (r * seconds as f64 * w.clients() as f64) as usize;
    match w {
        Workload::WideSolver => (per(wr), READBACK_OPS_WIDE),
        Workload::FeedChunked => (per(wr), READBACK_OPS),
        _ => (per(wr), per(rr)),
    }
}

/// Operations per client in each traced-mode window: about a third of
/// the run each, so both windows and the replay fit in `seconds`.
fn trace_ops(w: Workload, seconds: u64) -> usize {
    let (wr, rr) = nominal_rate(w);
    (((wr + rr) * seconds as f64 / 3.0) as usize).max(4)
}

/// Slices an untraced window is cut into (see [`untraced`]): four a
/// second on `fig1_*`, two on `wide_solver`; on `feed_chunked`, whose
/// operations are long, one per 1.25 s.
fn slices(w: Workload, seconds: u64) -> usize {
    let seconds = seconds as usize;
    match w {
        Workload::Fig1Mix | Workload::Fig1MixPoll => 4 * seconds,
        Workload::WideSolver => 2 * seconds,
        Workload::FeedChunked => (seconds * 4 / 5).max(1),
    }
}

/// Warm-up operations per client after set-up.
fn warm_ops(w: Workload) -> usize {
    match w {
        Workload::Fig1Mix | Workload::Fig1MixPoll => 200,
        Workload::WideSolver => 300,
        Workload::FeedChunked => 3,
    }
}

enum Until {
    Deadline(Instant),
    Ops(usize),
}

/// What one window recorded.
#[derive(Default)]
struct Log {
    writes_ns: Vec<u64>,
    reads_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    accepted_bytes: u64,
    chunk_bytes_out: u64,
    peak_buffer: u64,
    check_errors: Vec<String>,
}

impl Log {
    fn merge(&mut self, other: Log) {
        self.writes_ns.extend(other.writes_ns);
        self.reads_ns.extend(other.reads_ns);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.accepted_bytes += other.accepted_bytes;
        self.chunk_bytes_out += other.chunk_bytes_out;
        self.peak_buffer = self.peak_buffer.max(other.peak_buffer);
        self.check_errors.extend(other.check_errors);
    }

    fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// The benchmark state of one run.
struct Bench<'a> {
    w: Workload,
    inputs: &'a Inputs,
    prep: &'a Prep,
    peers: Peers,
}

struct WindowOpts {
    check_every: u64,
    sample_gauge: bool,
}

impl Bench<'_> {
    fn check(&self, client: usize, op: Op, done: &Done) -> Result<(), String> {
        let exchange = &self.peers.schemas.exchange;
        match (op, done) {
            (Op::Write { doc, slot }, Done::Sent(sent)) => {
                let text = crate::rig::compact(sent);
                if text != self.prep.enforced[doc] {
                    return Err(format!("doc {doc}: sent document differs from enforce_dom"));
                }
                if self.w.is_fig1() {
                    let stored = self
                        .peers
                        .receiver
                        .repository
                        .load(&slot_name(slot))
                        .map_err(|e| e.to_string())?;
                    if &stored != sent {
                        return Err(format!(
                            "client {client}: stored {} differs from sent",
                            slot_name(slot)
                        ));
                    }
                    validate(&stored, exchange)
                        .map_err(|e| format!("stored document invalid under (**): {e}"))?;
                }
                Ok(())
            }
            (Op::Write { slot, .. }, Done::Chunked(report)) => {
                if report.fell_back {
                    return Err("chunked send fell back to a single frame".to_owned());
                }
                if report.bytes_out != self.prep.enforced[0].len() as u64 {
                    return Err(format!(
                        "shipped {} bytes, reference has {}",
                        report.bytes_out,
                        self.prep.enforced[0].len()
                    ));
                }
                let stored = self
                    .peers
                    .receiver
                    .repository
                    .load(&slot_name(slot))
                    .map_err(|e| e.to_string())?;
                if stored != self.prep.enforced_tree0 {
                    return Err("stored feed differs from the reference enforcement".to_owned());
                }
                Ok(())
            }
            (Op::Read { slot }, Done::Read(forest)) => {
                let peer = &self.peers.schemas.peer;
                let sig = peer.sig_of(&crate::rig::read_service(slot));
                validate_output_instance(forest, &sig.output_dfa, peer)
                    .map_err(|e| format!("read {slot}: result outside the output type: {e}"))
            }
            _ => Err("operation returned the wrong kind of result".to_owned()),
        }
    }

    /// Chunked writes in a traced window: the sink-only replay of the
    /// sender's streaming enforcement, which the program runs inside its
    /// `ship` span. Returns the enforce self time in nanoseconds.
    fn enforce_replay(&self, doc: usize) -> u64 {
        let sender = &self.peers.sender;
        let opts = StreamOptions {
            k: sender.enforce.k,
            cache: Some(sender.enforce.cache.clone()),
            ..StreamOptions::default()
        };
        let mut inv = TimedInvoker::new(sender.registry.invoker(None), false);
        let start = Instant::now();
        enforce_stream_to(
            &self.peers.schemas.exchange,
            &self.prep.sources[doc],
            &opts,
            &mut inv,
            &mut std::io::sink(),
        )
        .expect("replayed enforcement succeeds");
        (start.elapsed().as_nanos() as u64).saturating_sub(inv.ns)
    }

    /// Runs every client's closed loop over its stream until `until`.
    fn window(
        &self,
        rig: &Rig,
        streams: &[Vec<Op>],
        cursors: &mut [usize],
        until: Until,
        opts: &WindowOpts,
    ) -> (Log, Duration) {
        let start = Instant::now();
        let logs: Vec<Log> = std::thread::scope(|s| {
            let handles: Vec<_> = cursors
                .iter_mut()
                .enumerate()
                .map(|(c, cursor)| {
                    let stream = &streams[c];
                    let until = &until;
                    s.spawn(move || self.client_loop(rig, c, stream, cursor, until, opts))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed();
        let mut log = Log::default();
        for l in logs {
            log.merge(l);
        }
        (log, elapsed)
    }

    fn client_loop(
        &self,
        rig: &Rig,
        c: usize,
        stream: &[Op],
        cursor: &mut usize,
        until: &Until,
        opts: &WindowOpts,
    ) -> Log {
        let mut log = Log::default();
        let (mut writes, mut reads) = (0u64, 0u64);
        let gauge = axml_obs::global().gauge("enforce.stream.peak_buffer_bytes");
        let mut done_ops = 0;
        loop {
            match until {
                Until::Deadline(t) if Instant::now() >= *t => break,
                Until::Ops(n) if done_ops >= *n => break,
                _ => {}
            }
            done_ops += 1;
            let op = stream[*cursor % stream.len()];
            *cursor += 1;
            let doc_index = match op {
                Op::Write { doc, .. } => doc,
                Op::Read { .. } => 0,
            };
            let doc = &self.inputs.docs[doc_index];
            let span = rig.traced.then(|| {
                let replay = (self.w == Workload::FeedChunked && matches!(op, Op::Write { .. }))
                    .then(|| self.enforce_replay(doc_index));
                let mut sp = axml_obs::span(SPAN_OP);
                sp.set(
                    "kind",
                    if matches!(op, Op::Read { .. }) {
                        "read"
                    } else {
                        "write"
                    },
                );
                if let Some(ns) = replay {
                    sp.set(FIELD_ENFORCE_REPLAY, ns);
                }
                sp
            });
            let start = Instant::now();
            let result = execute(&self.peers, rig, c, op, doc);
            let ns = start.elapsed().as_nanos() as u64;
            drop(span);
            log.attempted += 1;
            let (samples, seen) = match op {
                Op::Write { .. } => (&mut log.writes_ns, &mut writes),
                Op::Read { .. } => (&mut log.reads_ns, &mut reads),
            };
            match result {
                Ok(done) => {
                    samples.push(ns);
                    if let Op::Write { doc, .. } = op {
                        log.accepted_bytes += self.prep.enforced[doc].len() as u64;
                    }
                    if let Done::Chunked(report) = &done {
                        log.chunk_bytes_out += report.bytes_out;
                        log.peak_buffer = log.peak_buffer.max(report.peak_buffer_bytes);
                    }
                    if opts.sample_gauge {
                        log.peak_buffer = log.peak_buffer.max(gauge.get().max(0) as u64);
                    }
                    if *seen % opts.check_every == 0 {
                        if let Err(e) = self.check(c, op, &done) {
                            log.check_errors.push(e);
                        }
                    }
                    *seen += 1;
                }
                Err(e) => {
                    // A failed operation misses every latency limit.
                    samples.push(u64::MAX);
                    log.failed += 1;
                    if log.failures.len() < 5 {
                        log.failures.push(e);
                    }
                }
            }
        }
        log
    }

    /// Set-up: compile schemas, build peers, bind the daemon, dial and
    /// handshake on the first (cold) operation.
    fn setup(w: Workload, inputs: &Inputs) -> Result<(Peers, Rig), String> {
        let peers = Peers::build(w);
        let rig = Rig::serve(&peers, false)?;
        execute(
            &peers,
            &rig,
            0,
            Op::Write { doc: 0, slot: 0 },
            &inputs.docs[0],
        )
        .map_err(|e| format!("cold operation failed: {e}"))?;
        Ok((peers, rig))
    }

    /// Stores every slot once (so reads always find a document), then
    /// runs a fixed number of operations from each client's stream.
    fn warm_up(&self, rig: &Rig, cursors: &mut [usize]) -> Log {
        let every = WindowOpts {
            check_every: 1,
            sample_gauge: false,
        };
        let names = self.w.names_per_client();
        let fill: Vec<Vec<Op>> = (0..self.w.clients())
            .map(|c| {
                (0..names)
                    .map(|j| Op::Write {
                        doc: (c * names + j) % self.inputs.docs.len(),
                        slot: c * names + j,
                    })
                    .collect()
            })
            .collect();
        let (mut log, _) = self.window(
            rig,
            &fill,
            &mut vec![0; self.w.clients()],
            Until::Ops(names),
            &every,
        );
        let (more, _) = self.window(
            rig,
            &self.inputs.streams,
            cursors,
            Until::Ops(warm_ops(self.w)),
            &every,
        );
        log.merge(more);
        if !self.w.is_fig1() {
            let (reads, _) = self.window(
                rig,
                &self.readback_streams(),
                &mut [0],
                Until::Ops(WARM_READS),
                &every,
            );
            log.merge(reads);
        }
        log
    }

    fn readback_streams(&self) -> Vec<Vec<Op>> {
        vec![(0..self.w.slots()).map(|slot| Op::Read { slot }).collect()]
    }

    fn readback_ops(&self) -> usize {
        if self.w == Workload::WideSolver {
            READBACK_OPS_WIDE
        } else {
            READBACK_OPS
        }
    }
}

fn named<const N: usize>(list: [(&str, f64); N]) -> impl Iterator<Item = (String, f64)> + '_ {
    list.into_iter().map(|(n, v)| (n.to_owned(), v))
}

/// Latency percentile in µs (failed operations sort last).
fn pct_us(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        // A slice a host stall left without samples of this kind; it is
        // skipped when slices are combined.
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    percentile(&s, p) as f64 / 1e3
}

struct Counters {
    snap: axml_obs::Snapshot,
    sender: CacheStats,
    receiver: CacheStats,
}

impl Counters {
    fn take(peers: &Peers) -> Counters {
        Counters {
            snap: axml_obs::global().snapshot(),
            sender: peers.sender.solve_cache().stats(),
            receiver: peers.receiver.solve_cache().stats(),
        }
    }
}

fn delta(a: &Counters, b: &Counters, name: &str) -> f64 {
    (b.snap.counter(name) - a.snap.counter(name)) as f64
}

fn histo_delta(a: &Counters, b: &Counters, name: &str) -> (f64, f64) {
    let h = |c: &Counters| {
        c.snap
            .histograms
            .get(name)
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    let (c0, s0) = h(a);
    let (c1, s1) = h(b);
    ((c1 - c0) as f64, (s1 - s0) as f64)
}

/// Chunk-accounting identities of `feed_chunked` over one window.
fn chunk_checks(a: &Counters, b: &Counters, log: &Log) -> Vec<String> {
    let mut errors = Vec::new();
    let shipped = delta(a, b, "net.chunk.bytes_total") as u64;
    if shipped != log.chunk_bytes_out {
        errors.push(format!(
            "net.chunk.bytes_total moved by {shipped}, sender shipped {}",
            log.chunk_bytes_out
        ));
    }
    let aborts = delta(a, b, "net.chunk.aborts_total");
    if aborts != 0.0 {
        errors.push(format!("{aborts} chunked transfers aborted"));
    }
    let gauge = b.snap.gauge("net.chunk.reassembly_bytes");
    if gauge != 0 {
        errors.push(format!("reassembly gauge reads {gauge} at the end"));
    }
    errors
}

/// An untraced run's measured window and end-to-end metrics.
fn untraced(
    bench: &Bench,
    mut rig: Rig,
    cursors: &mut [usize],
    seconds: u64,
    setup_s: &[f64],
    total: &mut Log,
    notes: &mut Vec<String>,
) -> Result<Vec<(String, f64)>, String> {
    let w = bench.w;
    let measured = WindowOpts {
        check_every: CHECK_EVERY,
        sample_gauge: false,
    };
    let readback_streams = bench.readback_streams();
    // The window is cut into equal slices measured back to back, each
    // on fresh connections, so a run samples many placements of the
    // client and daemon threads on the CPUs instead of one. Metrics are the
    // interquartile mean over the slices, so one stall of the host moves
    // one slice, not the result.
    let slices = slices(w, seconds);
    let slice = Duration::from_secs_f64(seconds as f64 / slices as f64);
    let (nw, nr) = nominal_samples(w, seconds);
    // A slice's percentiles are used when it holds enough samples of
    // that kind; otherwise the whole window's samples are pooled.
    let per_slice_w = nw / slices >= MIN_SLICE_SAMPLES;
    let per_slice_r = nr / slices >= MIN_SLICE_SAMPLES;
    let nw = if per_slice_w { nw / slices } else { nw };
    let nr = if per_slice_r { nr / slices } else { nr };
    let (pw, pr) = (tail_percentile(nw), tail_percentile(nr));
    let c0 = Counters::take(&bench.peers);
    let steal0 = sys::steal_ticks();
    let mut window = Log::default();
    let mut reads = Vec::new();
    let mut per_slice: Vec<[f64; 7]> = Vec::new();
    let readback_slice = bench.readback_ops() / slices;
    for _ in 0..slices {
        rig.reconnect(w.clients())?;
        let cpu0 = sys::cpu_us();
        let (log, elapsed) = bench.window(
            &rig,
            &bench.inputs.streams,
            cursors,
            Until::Deadline(Instant::now() + slice),
            &measured,
        );
        let cpu = sys::cpu_us() - cpu0;
        let secs = elapsed.as_secs_f64();
        let slice_reads = if w.is_fig1() {
            log.reads_ns.clone()
        } else {
            let (rb, _) = bench.window(
                &rig,
                &readback_streams,
                &mut [0],
                Until::Ops(readback_slice),
                &measured,
            );
            let r = rb.reads_ns.clone();
            total.merge(rb);
            r
        };
        per_slice.push([
            log.ok_ops() as f64 / secs,
            log.accepted_bytes as f64 / MIB / secs,
            cpu / log.attempted.max(1) as f64,
            pct_us(&log.writes_ns, 50.0),
            pct_us(&log.writes_ns, pw),
            pct_us(&slice_reads, 50.0),
            pct_us(&slice_reads, pr),
        ]);
        reads.extend(slice_reads);
        window.merge(log);
    }
    let c1 = Counters::take(&bench.peers);
    if w == Workload::FeedChunked {
        total.check_errors.extend(chunk_checks(&c0, &c1, &window));
    }
    rig.shutdown()?;
    let steal1 = sys::steal_ticks();
    notes.push(format!(
        "# host: steal {:.1}% of all CPU time during the window",
        100.0 * ratio((steal1.0 - steal0.0) as f64, (steal1.1 - steal0.1) as f64)
    ));
    let beyond = |n: usize, p: f64| n.saturating_sub(1 + crate::stats::rank(p, n.max(1)));
    notes.push(format!(
        "# {slices} slices; exchange_tail_us: p{pw} (nominal {nw} samples {}, {} beyond; measured {} in all); \
         invoke_tail_us: p{pr} (nominal {nr} samples {}, {} beyond; measured {} in all)",
        if per_slice_w { "a slice" } else { "pooled" },
        beyond(nw, pw),
        window.writes_ns.len(),
        if per_slice_r { "a slice" } else { "pooled" },
        beyond(nr, pr),
        reads.len()
    ));
    for (i, v) in per_slice.iter().enumerate() {
        notes.push(format!(
            "# slice {i}: ops_per_s={:.1} goodput_mib_s={:.3} cpu_us_per_op={:.1}",
            v[0], v[1], v[2]
        ));
    }
    let col = |k: usize| {
        let values: Vec<f64> = per_slice
            .iter()
            .map(|s| s[k])
            .filter(|v| v.is_finite())
            .collect();
        if values.is_empty() {
            f64::NAN
        } else {
            interquartile_mean(&values)
        }
    };
    let write_pct = |k: usize, p: f64| {
        if per_slice_w {
            col(k)
        } else {
            pct_us(&window.writes_ns, p)
        }
    };
    let read_pct = |k: usize, p: f64| {
        if per_slice_r {
            col(k)
        } else {
            pct_us(&reads, p)
        }
    };
    let m = vec![
        ("setup_s", median_f64(setup_s)),
        ("ops_per_s", col(0)),
        ("exchange_p50_us", write_pct(3, 50.0)),
        ("exchange_tail_us", write_pct(4, pw)),
        ("invoke_p50_us", read_pct(5, 50.0)),
        ("invoke_tail_us", read_pct(6, pr)),
        ("goodput_mib_s", col(1)),
        (
            "ok_ratio",
            1.0 - ratio(window.failed as f64, window.attempted as f64),
        ),
        ("cpu_us_per_op", col(2)),
        ("peak_rss_mib", sys::peak_rss_mib()),
    ];
    total.merge(window);
    Ok(m.into_iter().map(|(n, v)| (n.to_owned(), v)).collect())
}

/// A traced run's two windows and per-layer metrics.
fn traced(
    bench: &Bench,
    rig: Rig,
    cursors: &mut [usize],
    seconds: u64,
    total: &mut Log,
    notes: &mut Vec<String>,
) -> Result<Vec<(String, f64)>, String> {
    let w = bench.w;
    let measured = WindowOpts {
        check_every: CHECK_EVERY,
        sample_gauge: true,
    };
    let readback_streams = bench.readback_streams();
    // Window A: untraced production path, fixed operation count;
    // counters are deltas over it.
    let n = trace_ops(w, seconds);
    let c0 = Counters::take(&bench.peers);
    let (a, _) = bench.window(
        &rig,
        &bench.inputs.streams,
        cursors,
        Until::Ops(n),
        &measured,
    );
    let c1 = Counters::take(&bench.peers);
    if w == Workload::FeedChunked {
        total.check_errors.extend(chunk_checks(&c0, &c1, &a));
    }
    let repository_docs = bench.peers.receiver.repository.len();
    rig.shutdown()?;

    // Window B: the same traffic through the traced entry points.
    let traced_rig = Rig::serve(&bench.peers, true)?;
    let (warm, _) = bench.window(
        &traced_rig,
        &bench.inputs.streams,
        cursors,
        Until::Ops(1),
        &measured,
    );
    total.merge(warm);
    let ring = RingSink::new(1 << 21);
    let sink: Arc<dyn SpanSink> = ring.clone();
    axml_obs::install_sink(Arc::clone(&sink));
    let (b, _) = bench.window(
        &traced_rig,
        &bench.inputs.streams,
        cursors,
        Until::Ops(n),
        &measured,
    );
    let b_read = (!w.is_fig1()).then(|| {
        bench
            .window(
                &traced_rig,
                &readback_streams,
                &mut [0],
                Until::Ops(bench.readback_ops()),
                &measured,
            )
            .0
    });
    axml_obs::uninstall_sink(&sink);
    traced_rig.shutdown()?;
    let traced = trace::join(&ring.drain());

    let untraced_median = pct_us(&a.writes_ns, 50.0);
    let traced_median = pct_us(&b.writes_ns, 50.0);
    let writes = a.writes_ns.len() as f64;
    let calls = delta(&c0, &c1, "client.calls_total");
    let (frames, frame_bytes) = histo_delta(&c0, &c1, "server.frame_bytes");
    let (_, solve_ns) = histo_delta(&c0, &c1, "solver.safe.solve_ns");
    let hit = |a: &CacheStats, b: &CacheStats| {
        ratio((b.hits - a.hits) as f64, (b.lookups - a.lookups) as f64)
    };
    let replay = replay::run(&bench.prep.enforced, &bench.peers.schemas.exchange);

    let mut m: Vec<(String, f64)> = Vec::new();
    let (write_mean, receive_mean) = stage_metrics("write", &traced.writes, &mut m);
    stage_metrics("read", &traced.reads, &mut m);
    m.extend(named([
        (
            "trace.overhead_ratio",
            ratio(traced_median, untraced_median),
        ),
        ("solver.hit_ratio", hit(&c0.sender, &c1.sender)),
        ("solver.receiver_hit_ratio", hit(&c0.receiver, &c1.receiver)),
        (
            "solver.misses_per_op",
            ratio(
                (c1.sender.misses - c0.sender.misses + c1.receiver.misses - c0.receiver.misses)
                    as f64,
                writes,
            ),
        ),
        (
            "solver.evictions_per_op",
            ratio(
                (c1.sender.evictions - c0.sender.evictions + c1.receiver.evictions
                    - c0.receiver.evictions) as f64,
                writes,
            ),
        ),
        (
            "solver.safe.nodes_per_op",
            ratio(delta(&c0, &c1, "solver.safe.nodes_total"), writes),
        ),
        ("solver.safe.busy_us_per_op", ratio(solve_ns / 1e3, writes)),
        (
            "stream.copied_ratio",
            ratio(
                delta(&c0, &c1, "enforce.stream.bytes_copied"),
                delta(&c0, &c1, "enforce.stream.bytes_out"),
            ),
        ),
        (
            "stream.fallbacks",
            delta(&c0, &c1, "enforce.stream.fallbacks"),
        ),
        ("stream.peak_buffer_bytes", a.peak_buffer as f64),
        (
            "stream.subtrees_per_op",
            ratio(
                delta(&c0, &c1, "enforce.stream.subtrees_materialized"),
                writes,
            ),
        ),
        (
            "services.invokes_per_op",
            ratio(delta(&c0, &c1, "services.calls_total"), writes),
        ),
        (
            "services.call_faults",
            delta(&c0, &c1, "services.call_faults_total"),
        ),
        (
            "client.attempts_per_call",
            ratio(delta(&c0, &c1, "client.attempts_total"), calls),
        ),
        ("client.retries", delta(&c0, &c1, "client.retries_total")),
        (
            "server.busy_ratio",
            ratio(
                delta(&c0, &c1, "server.busy_total"),
                delta(&c0, &c1, "server.requests_total"),
            ),
        ),
        ("server.faults", delta(&c0, &c1, "server.faults_total")),
        ("server.frame_bytes_mean", ratio(frame_bytes, frames)),
        (
            "chunk.frames_per_op",
            ratio(delta(&c0, &c1, "net.chunk.frames_total"), writes),
        ),
        (
            "chunk.bytes_per_op",
            ratio(delta(&c0, &c1, "net.chunk.bytes_total"), writes),
        ),
        ("chunk.aborts", delta(&c0, &c1, "net.chunk.aborts_total")),
        (
            "chunk.reassembly_bytes_end",
            c1.snap.gauge("net.chunk.reassembly_bytes") as f64,
        ),
        (
            "peer.exchange_faults",
            delta(&c0, &c1, "peer.exchange_faults_total"),
        ),
        ("peer.repository_docs", repository_docs as f64),
    ]));
    total.merge(a);
    total.merge(b);
    if let Some(log) = b_read {
        total.merge(log);
    }
    m.extend(named([
        (
            "fail_ratio",
            ratio(total.failed as f64, total.attempted as f64),
        ),
        ("xml.parse_mib_s", replay.parse_mib_s),
        ("xml.serialize_mib_s", replay.serialize_mib_s),
        ("soap.encode_mib_s", replay.soap_encode_mib_s),
        ("soap.decode_mib_s", replay.soap_decode_mib_s),
        ("schema.validate_mnodes_s", replay.validate_mnodes_s),
        ("hash.fnv64_mib_s", replay.fnv64_mib_s),
        (
            "replay.fnv64_share",
            ratio(
                2.0 * replay.mean_doc_bytes / (replay.fnv64_mib_s * MIB) * 1e6,
                write_mean,
            ),
        ),
        (
            "replay.reparse_share",
            ratio(replay.reparse_us_per_doc, receive_mean),
        ),
    ]));
    notes.push(format!(
        "# traced: {} writes, {} reads joined; untraced window {n} ops per client",
        traced.writes.len(),
        traced.reads.len()
    ));
    Ok(m)
}

/// Appends the p50 and mean of every stage of one operation kind;
/// returns the mean operation time and the mean receive stage, in µs.
fn stage_metrics(kind: &str, ops: &[OpSpans], m: &mut Vec<(String, f64)>) -> (f64, f64) {
    let col = |f: &dyn Fn(&OpSpans) -> i64| stage_stat(&ops.iter().map(f).collect::<Vec<_>>());
    let parts: Vec<StageStat> = (0..PARTS.len()).map(|k| col(&|o| o.parts()[k])).collect();
    let op = col(&|o| o.op as i64);
    let exchange = col(&|o| o.exchange as i64);
    let (prefix, named) = if kind == "write" {
        (
            "stage.",
            vec![
                ("op", op),
                ("exchange", exchange),
                ("sender_enforce", parts[0]),
                ("services_invoke", parts[1]),
                ("ship", col(&|o| o.ship as i64)),
                ("receive", parts[3]),
                ("wire", parts[2]),
                ("other", parts[4]),
            ],
        )
    } else {
        (
            "stage.read.",
            vec![
                ("op", op),
                ("invoke", exchange),
                ("receive", parts[3]),
                ("wire", parts[2]),
                ("other", parts[4]),
            ],
        )
    };
    for (stage, stat) in named {
        m.push((format!("{prefix}{stage}_us.p50"), stat.p50_us));
        m.push((format!("{prefix}{stage}_us.mean"), stat.mean_us));
    }
    (op.mean_us, parts[3].mean_us)
}

/// Runs the benchmark once.
pub fn run(args: Args) -> Result<Outcome, String> {
    let w = args.workload;
    let inputs = generate(w, args.seed);
    let prep = Prep::new(w, &inputs.docs);
    let mut notes = vec![format!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={} engine={} clients={} cache_capacity={} rev={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        crate::rig::engine_name(w),
        w.clients(),
        axml_core::solve_cache::DEFAULT_CAPACITY,
        sys::git_revision(),
    )];

    notes.push(format!(
        "# inputs: {} documents, mean enforced size {:.0} bytes",
        prep.enforced.len(),
        prep.enforced.iter().map(|t| t.len() as f64).sum::<f64>() / prep.enforced.len() as f64
    ));
    let mut setup_s = Vec::new();
    let mut current: Option<(Peers, Rig)> = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        let start = Instant::now();
        let built = Bench::setup(w, &inputs)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some((_, old)) = current.replace(built) {
            old.shutdown()?;
        }
    }
    let (peers, rig) = current.expect("at least one set-up");
    let bench = Bench {
        w,
        inputs: &inputs,
        prep: &prep,
        peers,
    };
    let mut cursors = vec![0usize; w.clients()];
    let mut total = bench.warm_up(&rig, &mut cursors);
    let metrics = if args.trace {
        traced(
            &bench,
            rig,
            &mut cursors,
            args.seconds,
            &mut total,
            &mut notes,
        )?
    } else {
        untraced(
            &bench,
            rig,
            &mut cursors,
            args.seconds,
            &setup_s,
            &mut total,
            &mut notes,
        )?
    };

    for f in total.failures.iter().chain(&total.check_errors) {
        notes.push(format!("# {f}"));
    }
    Ok(Outcome {
        correct: total.check_errors.is_empty(),
        attempted: total.attempted,
        failed: total.failed,
        metrics,
        notes,
    })
}
