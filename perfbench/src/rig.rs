//! The system under test: a sender peer and a receiving daemon in this
//! process, talking over loopback TCP, plus the benchmark's wrappers that
//! time calls into the program from outside.

use crate::inputs::{slot_name, Op, Workload};
use axml_core::invoke::{InvokeError, Invoker};
use axml_core::solve_cache::{SolveCache, DEFAULT_CAPACITY};
use axml_core::stream::{enforce_dom, StreamOptions, StreamReport};
use axml_net::wire::WireFault;
use axml_net::{ClientConfig, Handler, IoMode, NetServer, ServerConfig};
use axml_peer::{envelope_handler, NetPeer, Peer, Query, RemotePeer};
use axml_schema::{Compiled, ITree, NoOracle, PathQuery, Schema, SchemaBuilder};
use axml_services::builtin::{GetDate, GetTemp, TimeOutGuide};
use axml_services::{Registry, ServiceDef};
use axml_xml::{element_to_string, WriteOptions};
use std::sync::Arc;
use std::time::Instant;

/// Chunk size of `feed_chunked` transfers.
pub const CHUNK_BYTES: usize = 256 << 10;

/// Span names the benchmark records around calls into the program.
pub const SPAN_OP: &str = "bench.op";
/// Around each call of the wrapped [`Invoker`].
pub const SPAN_SERVICES: &str = "bench.services.invoke";
/// Around the wrapped receiver handler.
pub const SPAN_RECEIVE: &str = "bench.receive";
/// Field on a chunked write's op span: the sink-only enforce replay.
pub const FIELD_ENFORCE_REPLAY: &str = "enforce_replay_ns";

/// The declared read service over rotating slot `slot`.
pub fn read_service(slot: usize) -> String {
    format!("Read_{slot}")
}

fn fig1_exchange() -> SchemaBuilder {
    // Exchange schema (**) of the paper: temp must be materialized.
    Schema::builder()
        .element("newspaper", "title.date.temp.(TimeOut|exhibit*)")
        .data_element("title")
        .data_element("date")
        .data_element("temp")
        .data_element("city")
        .element("exhibit", "title.(Get_Date|date)")
        .data_element("performance")
        .function("Get_Temp", "city", "temp")
        .function("TimeOut", "data", "(exhibit|performance)*")
        .function("Get_Date", "title", "date")
}

fn wide_exchange() -> SchemaBuilder {
    // B11's Mirror chain: Get_Date's answer may be deferred through four
    // mirror levels, so a safe rewriting needs k = 5.
    Schema::builder()
        .element("r", "exhibit*")
        .element("exhibit", "title.date.(line|note)*")
        .data_element("title")
        .data_element("date")
        .data_element("line")
        .data_element("note")
        .function("Get_Date", "title", "date|Mirror_A1|Mirror_A2")
        .function("Mirror_A1", "", "date|Mirror_B1|Mirror_B2")
        .function("Mirror_A2", "", "date|Mirror_B1|Mirror_B2")
        .function("Mirror_B1", "", "date|Mirror_C1|Mirror_C2")
        .function("Mirror_B2", "", "date|Mirror_C1|Mirror_C2")
        .function("Mirror_C1", "", "date|Mirror_D1|Mirror_D2")
        .function("Mirror_C2", "", "date|Mirror_D1|Mirror_D2")
        .function("Mirror_D1", "", "date")
        .function("Mirror_D2", "", "date")
}

fn feed_exchange() -> SchemaBuilder {
    // B14's quote feed: the calls section must hold quotes only.
    Schema::builder()
        .element("feed", "meta.chunk*.calls")
        .data_element("meta")
        .data_element("chunk")
        .element("calls", "quote*")
        .data_element("quote")
        .function("Get_Quote", "meta", "quote*")
}

/// Schemas and knobs of one workload.
pub struct Schemas {
    /// The agreed exchange schema documents are enforced into.
    pub exchange: Arc<Compiled>,
    /// Both peers' vocabulary: the exchange schema plus the read services.
    pub peer: Arc<Compiled>,
    /// Rewriting depth.
    pub k: u32,
    /// Path the read services select in a stored document.
    pub read_path: &'static str,
}

fn compile(builder: SchemaBuilder) -> Arc<Compiled> {
    Arc::new(
        Compiled::new(builder.build().expect("schema builds"), &NoOracle).expect("schema compiles"),
    )
}

fn read_output(w: Workload) -> &'static str {
    match w {
        Workload::Fig1Mix | Workload::Fig1MixPoll | Workload::WideSolver => "exhibit*",
        Workload::FeedChunked => "quote*",
    }
}

impl Schemas {
    /// Compiles the workload's schemas.
    pub fn compile(w: Workload) -> Schemas {
        let (base, k, read_path): (fn() -> SchemaBuilder, u32, &'static str) = match w {
            Workload::Fig1Mix | Workload::Fig1MixPoll => (fig1_exchange, 1, "newspaper/exhibit"),
            Workload::WideSolver => (wide_exchange, 5, "r/exhibit"),
            Workload::FeedChunked => (feed_exchange, 1, "feed/calls/quote"),
        };
        let mut with_reads = base();
        for slot in 0..w.slots() {
            with_reads = with_reads.function(&read_service(slot), "data", read_output(w));
        }
        Schemas {
            exchange: compile(base()),
            peer: compile(with_reads),
            k,
            read_path,
        }
    }
}

/// The services the sender materializes embedded calls through.
pub fn sender_registry(w: Workload) -> Registry {
    let registry = Registry::new();
    match w {
        Workload::Fig1Mix | Workload::Fig1MixPoll => {
            registry.register(
                ServiceDef::new("Get_Temp", "city", "temp"),
                Arc::new(GetTemp::with_defaults()),
            );
            registry.register(
                ServiceDef::new("TimeOut", "data", "(exhibit|performance)*"),
                Arc::new(TimeOutGuide::exhibits_only()),
            );
            registry.register(
                ServiceDef::new("Get_Date", "title", "date"),
                Arc::new(GetDate { table: vec![] }),
            );
        }
        Workload::WideSolver => {
            registry.register_fn(ServiceDef::new("Get_Date", "title", "date"), |_| {
                Ok(vec![ITree::data("date", "mon")])
            });
        }
        Workload::FeedChunked => {
            registry.register_fn(ServiceDef::new("Get_Quote", "meta", "quote*"), |params| {
                let site = match params.first().map(ITree::children) {
                    Some([ITree::Text(t)]) => t.clone(),
                    _ => String::new(),
                };
                Ok(vec![
                    ITree::data("quote", &format!("{site} bid 42.17")),
                    ITree::data("quote", &format!("{site} ask 42.19")),
                ])
            });
        }
    }
    registry
}

/// Compact XML text of a document, as the sender serializes it.
pub fn compact(doc: &ITree) -> String {
    element_to_string(&doc.to_xml(), &WriteOptions::compact())
}

/// Benchmark-side references, computed before anything is timed.
pub struct Prep {
    /// Compact XML of each source document.
    pub sources: Vec<String>,
    /// The reference enforcement (`core::stream::enforce_dom`) of each.
    pub enforced: Vec<String>,
    /// The reference enforcement of document 0, as a tree.
    pub enforced_tree0: ITree,
}

impl Prep {
    /// Enforces every source document through the DOM reference pipeline
    /// with a private solver cache and a private service registry.
    pub fn new(w: Workload, docs: &[ITree]) -> Prep {
        let schemas = Schemas::compile(w);
        let registry = sender_registry(w);
        let opts = StreamOptions {
            k: schemas.k,
            ..StreamOptions::default()
        };
        let sources: Vec<String> = docs.iter().map(compact).collect();
        let enforced: Vec<String> = sources
            .iter()
            .map(|src| {
                enforce_dom(&schemas.exchange, src, &opts, &mut || {
                    Box::new(registry.invoker(None)) as Box<dyn Invoker + Send>
                })
                .expect("reference enforcement succeeds")
                .0
            })
            .collect();
        let enforced_tree0 = parse_tree(&enforced[0]);
        Prep {
            sources,
            enforced,
            enforced_tree0,
        }
    }
}

/// Parses benchmark-made XML into a tree.
pub fn parse_tree(text: &str) -> ITree {
    let doc = axml_xml::parse_document(text).expect("reference XML parses");
    ITree::from_xml(&doc.root).expect("reference XML is a tree")
}

/// The two peers of one set-up, kept across daemons so warm state
/// (solver caches, repository) carries from one window to the next.
pub struct Peers {
    /// Which workload they serve.
    pub workload: Workload,
    /// Schemas and knobs.
    pub schemas: Schemas,
    /// The sending peer (enforces, invokes its registry's services).
    pub sender: Arc<Peer>,
    /// The receiving peer behind the daemon (verifies, stores, serves
    /// the read services).
    pub receiver: Arc<Peer>,
}

impl Peers {
    /// Compiles schemas and builds both peers. Each peer's solver cache
    /// has the default capacity and publishes into a registry of its own,
    /// as it would in a process of its own, so the two caches' counters
    /// stay apart.
    pub fn build(w: Workload) -> Peers {
        let schemas = Schemas::compile(w);
        let cache = || SolveCache::with_registry(DEFAULT_CAPACITY, &axml_obs::Registry::new());
        let sender = Arc::new(
            Peer::new(
                "sender.bench",
                Arc::clone(&schemas.peer),
                Arc::new(sender_registry(w)),
            )
            .with_k(schemas.k)
            .with_solve_cache(cache()),
        );
        let receiver = Arc::new(
            Peer::new(
                "receiver.bench",
                Arc::clone(&schemas.peer),
                Arc::new(Registry::new()),
            )
            .with_k(schemas.k)
            .with_solve_cache(cache()),
        );
        let path = PathQuery::parse(schemas.read_path).expect("read path parses");
        for slot in 0..w.slots() {
            receiver.declare(
                ServiceDef::new(&read_service(slot), "data", read_output(w)),
                Query::Path {
                    doc: slot_name(slot),
                    path: path.clone(),
                },
            );
        }
        Peers {
            workload: w,
            schemas,
            sender,
            receiver,
        }
    }
}

/// An [`Invoker`] that times each call into the sender's services.
pub struct TimedInvoker<I> {
    inner: I,
    spans: bool,
    /// Nanoseconds spent inside the wrapped invoker so far.
    pub ns: u64,
}

impl<I: Invoker> TimedInvoker<I> {
    /// Wraps `inner`; with `spans`, every call also records a span.
    pub fn new(inner: I, spans: bool) -> Self {
        TimedInvoker {
            inner,
            spans,
            ns: 0,
        }
    }
}

impl<I: Invoker> Invoker for TimedInvoker<I> {
    fn invoke(&mut self, function: &str, params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        let _span = self.spans.then(|| axml_obs::span(SPAN_SERVICES));
        let t = Instant::now();
        let out = self.inner.invoke(function, params);
        self.ns += t.elapsed().as_nanos() as u64;
        out
    }
}

/// The receiver's envelope handler with a span around every request.
struct TimedHandler {
    inner: Arc<dyn Handler>,
}

impl Handler for TimedHandler {
    fn handle(&self, id: u64, envelope: &str) -> Result<String, WireFault> {
        let mut sp = axml_obs::span(SPAN_RECEIVE);
        sp.set("rid", id);
        self.inner.handle(id, envelope)
    }

    fn handle_document(&self, id: u64, name: &str, text: &str) -> Result<String, WireFault> {
        let mut sp = axml_obs::span(SPAN_RECEIVE);
        sp.set("rid", id);
        self.inner.handle_document(id, name, text)
    }
}

enum Daemon {
    Production(NetPeer),
    Traced(NetServer),
}

/// A bound daemon plus one connection handle per client.
pub struct Rig {
    daemon: Daemon,
    /// One pooled connection handle per client thread.
    pub clients: Vec<RemotePeer>,
    /// Whether this rig runs the traced entry points.
    pub traced: bool,
}

/// The daemon's engine for a workload: the default, except where the
/// workload names one.
pub fn server_config(w: Workload) -> ServerConfig {
    match w {
        Workload::Fig1MixPoll => ServerConfig {
            io: IoMode::Poll,
            ..ServerConfig::default()
        },
        _ => ServerConfig::default(),
    }
}

/// The engine a workload's daemon runs, for the result header.
pub fn engine_name(w: Workload) -> &'static str {
    match server_config(w).io {
        IoMode::Threads => "threads",
        IoMode::Poll => "poll",
    }
}

impl Rig {
    /// Binds the receiving daemon on an ephemeral loopback port and makes
    /// the client handles (connections are dialed on first use). Untraced
    /// rigs serve through `NetPeer::serve`; traced rigs bind
    /// `NetServer` over the same envelope handler wrapped in a span.
    pub fn serve(peers: &Peers, traced: bool) -> Result<Rig, String> {
        let config = server_config(peers.workload);
        let daemon = if traced {
            let handler = Arc::new(TimedHandler {
                inner: envelope_handler(Arc::clone(&peers.receiver)),
            });
            Daemon::Traced(
                NetServer::bind("127.0.0.1:0", handler, config).map_err(|e| e.to_string())?,
            )
        } else {
            Daemon::Production(
                NetPeer::serve(Arc::clone(&peers.receiver), "127.0.0.1:0", config)
                    .map_err(|e| e.to_string())?,
            )
        };
        let mut rig = Rig {
            daemon,
            clients: Vec::new(),
            traced,
        };
        rig.reconnect(peers.workload.clients())?;
        Ok(rig)
    }

    /// Replaces every client handle with a fresh one; the new connections
    /// are dialed (and placed by the daemon's engine) on first use.
    pub fn reconnect(&mut self, clients: usize) -> Result<(), String> {
        let addr = match &self.daemon {
            Daemon::Production(d) => d.local_addr(),
            Daemon::Traced(d) => d.local_addr(),
        };
        self.clients = (0..clients)
            .map(|_| RemotePeer::connect(addr, ClientConfig::default()).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Graceful shutdown, joining every daemon thread.
    pub fn shutdown(self) -> Result<(), String> {
        drop(self.clients);
        match self.daemon {
            Daemon::Production(d) => d.shutdown().map_err(|e| e.to_string()),
            Daemon::Traced(d) => d.shutdown().map_err(|e| e.to_string()),
        }
    }
}

/// What a completed operation returned.
pub enum Done {
    /// A single-frame write: the document as sent.
    Sent(ITree),
    /// A chunked write: the sender's stream report.
    Chunked(StreamReport),
    /// A read: the returned forest.
    Read(Vec<ITree>),
}

/// Executes one operation through the program's entry points. `Err` is a
/// failed operation (fault, Busy, timeout, transport error).
pub fn execute(
    peers: &Peers,
    rig: &Rig,
    client: usize,
    op: Op,
    doc: &ITree,
) -> Result<Done, String> {
    let remote = &rig.clients[client];
    let sender = &peers.sender;
    let exchange = &peers.schemas.exchange;
    let chunked = peers.workload == Workload::FeedChunked;
    let result = match op {
        Op::Read { slot } => remote
            .invoke_service(sender, &read_service(slot), &[ITree::text("all")])
            .map(Done::Read),
        Op::Write { slot, .. } if rig.traced => {
            let mut inv = TimedInvoker::new(sender.registry.invoker(None), true);
            if chunked {
                remote
                    .send_document_chunked_with(
                        sender,
                        &slot_name(slot),
                        doc,
                        exchange,
                        CHUNK_BYTES,
                        &mut inv,
                    )
                    .map(Done::Chunked)
            } else {
                remote
                    .send_document_with(sender, &slot_name(slot), doc, exchange, &mut inv)
                    .map(|(sent, _)| Done::Sent(sent))
            }
        }
        Op::Write { slot, .. } => {
            if chunked {
                remote
                    .send_document_chunked(sender, &slot_name(slot), doc, exchange, CHUNK_BYTES)
                    .map(Done::Chunked)
            } else {
                remote
                    .send_document(sender, &slot_name(slot), doc, exchange)
                    .map(|(sent, _)| Done::Sent(sent))
            }
        }
    };
    result.map_err(|e| e.to_string())
}
