//! Seeded workload inputs. Everything the program receives is generated
//! here from the `--seed` argument; the same seed gives byte-identical
//! inputs (see the tests at the bottom).

use axml_schema::ITree;
use axml_support::rng::{Rng, RngExt, SeedableRng, StdRng};

/// The four workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 1 writes and reads, two clients, threads engine.
    Fig1Mix,
    /// The same traffic against the poll engine.
    Fig1MixPoll,
    /// B11's Mirror-chain schema, 16-subtree documents, one client.
    WideSolver,
    /// B14's 16 MiB quote feed shipped in 256 KiB chunks, one client.
    FeedChunked,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig1Mix,
        Workload::Fig1MixPoll,
        Workload::WideSolver,
        Workload::FeedChunked,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig1Mix => "fig1_mix",
            Workload::Fig1MixPoll => "fig1_mix_poll",
            Workload::WideSolver => "wide_solver",
            Workload::FeedChunked => "feed_chunked",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads (each with its own connection).
    pub fn clients(self) -> usize {
        match self {
            Workload::Fig1Mix | Workload::Fig1MixPoll => 2,
            Workload::WideSolver | Workload::FeedChunked => 1,
        }
    }

    /// Repository names each client writes under (rotating).
    pub fn names_per_client(self) -> usize {
        match self {
            Workload::Fig1Mix | Workload::Fig1MixPoll => 4,
            Workload::WideSolver => 4,
            Workload::FeedChunked => 2,
        }
    }

    /// Total rotating repository names, hence declared read services.
    pub fn slots(self) -> usize {
        self.clients() * self.names_per_client()
    }

    /// True for the two Fig. 1 workloads (reads mixed into the window).
    pub fn is_fig1(self) -> bool {
        matches!(self, Workload::Fig1Mix | Workload::Fig1MixPoll)
    }
}

/// The repository name of rotating slot `slot`.
pub fn slot_name(slot: usize) -> String {
    format!("doc{slot}")
}

/// One closed-loop operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ship pool document `doc` and store it under slot `slot`.
    Write {
        /// Index into [`Inputs::docs`].
        doc: usize,
        /// Rotating repository slot.
        slot: usize,
    },
    /// Invoke the read service declared over slot `slot`.
    Read {
        /// Rotating repository slot.
        slot: usize,
    },
}

/// Fig. 1: documents in the pool and their preferred minimum node count.
pub const FIG1_POOL: usize = 512;
const FIG1_MIN_NODES: usize = 40;
/// Fig. 1: one write per three reads.
const FIG1_WRITE_SHARE: f64 = 0.25;
const FIG1_CITIES: [&str; 4] = ["Paris", "Berlin", "Rome", "San Diego"];

/// Wide solver: documents in the pool, subtrees per document.
pub const WIDE_POOL: usize = 256;
/// Root subtrees per wide document (B11's 16).
pub const WIDE_SUBTREES: usize = 16;
/// Longest `(line|note)` tail of an exhibit's children word.
pub const WIDE_MAX_TAIL: u32 = 9;
/// Size of the children-word space: all `(line|note)` words of length
/// 0..=9, 1023 words, about twice the solver cache's default capacity.
pub const WIDE_WORD_SPACE: usize = (1 << (WIDE_MAX_TAIL + 1)) - 1;

/// Feed: target document size (4x the 4 MiB frame cap).
pub const FEED_BYTES: usize = 16 << 20;
const FEED_CHUNK_TEXT: usize = 64 << 10;
/// Feed: embedded `Get_Quote` call sites.
pub const FEED_SITES: usize = 16;

/// Length of each client's cyclic operation stream.
const STREAM_LEN: usize = 16384;

/// The generated inputs of one workload and seed.
pub struct Inputs {
    /// Source documents, before enforcement.
    pub docs: Vec<ITree>,
    /// One cyclic operation stream per client.
    pub streams: Vec<Vec<Op>>,
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    // Distinct, seed-derived streams for documents and each client.
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates the inputs of `w` from `seed`.
pub fn generate(w: Workload, seed: u64) -> Inputs {
    match w {
        Workload::Fig1Mix | Workload::Fig1MixPoll => fig1(w, seed),
        Workload::WideSolver => wide(w, seed),
        Workload::FeedChunked => feed(w, seed),
    }
}

fn fig1(w: Workload, seed: u64) -> Inputs {
    let mut rng = rng_for(seed, 1);
    let docs = (0..FIG1_POOL)
        .map(|_| {
            let mut doc = axml_bench::sized_instance(rng.next_u64(), FIG1_MIN_NODES);
            // Exactly one Get_Temp materialization per write: the third
            // child of a (*) newspaper is `Get_Temp | temp`.
            let city = FIG1_CITIES[rng.gen_range(0..FIG1_CITIES.len())];
            if let Some(children) = doc.children_mut() {
                children[2] = ITree::func("Get_Temp", vec![ITree::data("city", city)]);
            }
            doc
        })
        .collect();
    let streams = (0..w.clients())
        .map(|c| {
            let mut rng = rng_for(seed, 100 + c as u64);
            let own = c * w.names_per_client();
            (0..STREAM_LEN)
                .map(|_| {
                    if rng.random_bool(FIG1_WRITE_SHARE) {
                        Op::Write {
                            doc: rng.gen_range(0..FIG1_POOL),
                            slot: own + rng.gen_range(0..w.names_per_client()),
                        }
                    } else {
                        Op::Read {
                            slot: rng.gen_range(0..w.slots()),
                        }
                    }
                })
                .collect()
        })
        .collect();
    Inputs { docs, streams }
}

/// The `index`-th `(line|note)` word in shortlex order.
pub fn wide_tail(index: usize) -> Vec<&'static str> {
    let code = index + 1;
    let len = usize::BITS - 1 - code.leading_zeros();
    (0..len)
        .rev()
        .map(|bit| if code >> bit & 1 == 1 { "note" } else { "line" })
        .collect()
}

fn wide(w: Workload, seed: u64) -> Inputs {
    let mut rng = rng_for(seed, 2);
    let docs = (0..WIDE_POOL)
        .map(|_| {
            let kids = (0..WIDE_SUBTREES)
                .map(|_| {
                    let word = rng.gen_range(0..WIDE_WORD_SPACE);
                    let title = format!("t{}", rng.gen_range(0..1_000_000u32));
                    let mut children = vec![
                        ITree::data("title", &title),
                        ITree::func("Get_Date", vec![ITree::data("title", &title)]),
                    ];
                    children.extend(wide_tail(word).into_iter().map(|l| ITree::data(l, "x")));
                    ITree::elem("exhibit", children)
                })
                .collect();
            ITree::elem("r", kids)
        })
        .collect();
    let mut rng = rng_for(seed, 200);
    let stream = (0..STREAM_LEN)
        .map(|i| Op::Write {
            doc: rng.gen_range(0..WIDE_POOL),
            slot: i % w.slots(),
        })
        .collect();
    Inputs {
        docs,
        streams: vec![stream],
    }
}

fn random_text(rng: &mut StdRng, len: usize) -> String {
    const ALPHABET: &[u8; 32] = b"abcdefghijklmnopqrstuvwxyz01234 ";
    let mut out = String::with_capacity(len);
    while out.len() < len {
        let mut bits = rng.next_u64();
        for _ in 0..12 {
            out.push(ALPHABET[(bits & 31) as usize] as char);
            bits >>= 5;
        }
    }
    out.truncate(len);
    out
}

fn feed(w: Workload, seed: u64) -> Inputs {
    let mut rng = rng_for(seed, 3);
    let mut kids = vec![ITree::data("meta", &format!("feed {}", rng.next_u64()))];
    let mut bytes = 0;
    while bytes < FEED_BYTES {
        kids.push(ITree::data(
            "chunk",
            &random_text(&mut rng, FEED_CHUNK_TEXT),
        ));
        bytes += FEED_CHUNK_TEXT + "<chunk></chunk>".len();
    }
    let sites = (0..FEED_SITES)
        .map(|i| {
            let sym = random_text(&mut rng, 4).replace(' ', "q");
            ITree::func(
                "Get_Quote",
                vec![ITree::data("meta", &format!("site {i} {sym}"))],
            )
        })
        .collect();
    kids.push(ITree::elem("calls", sites));
    let stream = (0..STREAM_LEN)
        .map(|i| Op::Write {
            doc: 0,
            slot: i % w.slots(),
        })
        .collect();
    Inputs {
        docs: vec![ITree::elem("feed", kids)],
        streams: vec![stream],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::{element_to_string, WriteOptions};
    use std::collections::BTreeSet;

    fn bytes(inputs: &Inputs) -> (Vec<String>, Vec<Vec<Op>>) {
        let docs = inputs
            .docs
            .iter()
            .map(|d| element_to_string(&d.to_xml(), &WriteOptions::compact()))
            .collect();
        (docs, inputs.streams.clone())
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in Workload::ALL {
            assert_eq!(
                bytes(&generate(w, 7)),
                bytes(&generate(w, 7)),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in Workload::ALL {
            assert_ne!(
                bytes(&generate(w, 7)).0,
                bytes(&generate(w, 8)).0,
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn fig1_keeps_its_mix_and_one_get_temp_per_write() {
        for seed in [1, 2, 3] {
            let inputs = generate(Workload::Fig1Mix, seed);
            for doc in &inputs.docs {
                assert_eq!(doc.children()[2].name(), Some("Get_Temp"));
                let temps = doc
                    .children()
                    .iter()
                    .filter(|c| c.name() == Some("Get_Temp"));
                assert_eq!(temps.count(), 1);
            }
            for (c, stream) in inputs.streams.iter().enumerate() {
                let writes = stream
                    .iter()
                    .filter(|op| matches!(op, Op::Write { .. }))
                    .count();
                let share = writes as f64 / stream.len() as f64;
                assert!((0.2..0.3).contains(&share), "write share {share}");
                // A client writes only its own slots, so the stored
                // document it checks is never overwritten by the other.
                let own = c * Workload::Fig1Mix.names_per_client();
                for op in stream {
                    if let Op::Write { slot, .. } = op {
                        assert!((own..own + Workload::Fig1Mix.names_per_client()).contains(slot));
                    }
                }
            }
        }
    }

    #[test]
    fn wide_words_span_about_twice_the_cache_capacity() {
        let capacity = axml_core::solve_cache::DEFAULT_CAPACITY;
        assert_eq!(WIDE_WORD_SPACE, 2 * capacity - 1);
        for seed in [1, 99, 12345] {
            let inputs = generate(Workload::WideSolver, seed);
            let words: BTreeSet<Vec<String>> = inputs
                .docs
                .iter()
                .flat_map(|d| d.children().iter())
                .map(|e| {
                    e.children()
                        .iter()
                        .filter_map(|c| c.name().map(str::to_owned))
                        .collect()
                })
                .collect();
            let distinct = words.len() as f64;
            assert!(
                (1.8 * capacity as f64..=2.0 * capacity as f64).contains(&distinct),
                "seed {seed}: {distinct} distinct children words"
            );
            assert!(inputs
                .docs
                .iter()
                .all(|d| d.children().len() == WIDE_SUBTREES));
        }
    }

    #[test]
    fn wide_tail_enumerates_the_word_space_once() {
        let all: BTreeSet<Vec<&str>> = (0..WIDE_WORD_SPACE).map(wide_tail).collect();
        assert_eq!(all.len(), WIDE_WORD_SPACE);
        assert!(wide_tail(0).is_empty());
        assert_eq!(wide_tail(WIDE_WORD_SPACE - 1).len(), WIDE_MAX_TAIL as usize);
    }

    #[test]
    fn feed_is_four_frame_caps_with_sixteen_sites() {
        for seed in [1, 2] {
            let inputs = generate(Workload::FeedChunked, seed);
            let doc = &inputs.docs[0];
            let text = element_to_string(&doc.to_xml(), &WriteOptions::compact());
            assert!(text.len() >= FEED_BYTES, "{} bytes", text.len());
            assert!(text.len() < FEED_BYTES + (1 << 20));
            assert!(text.len() >= 4 * axml_net::wire::DEFAULT_MAX_FRAME);
            assert_eq!(doc.num_funcs(), FEED_SITES);
        }
    }
}
