//! Layer replay: each layer's public function timed in isolation on the
//! workload's own enforced documents, outside every timed window.

use axml_peer::RECEIVE_METHOD;
use axml_schema::{validate, Compiled, ITree};
use axml_services::soap;
use axml_support::hash::Fnv64;
use axml_xml::{element_to_string, parse_document, Event, Reader, WriteOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Minimum time each replayed function runs for.
const MIN_RUN: Duration = Duration::from_millis(250);
const MIB: f64 = (1 << 20) as f64;

/// Throughputs of each layer's function on the workload's documents.
#[derive(Debug, Clone, Copy)]
pub struct Replay {
    /// `axml_xml::parse_document`, MiB of XML per second.
    pub parse_mib_s: f64,
    /// `axml_xml::element_to_string` (compact), MiB per second.
    pub serialize_mib_s: f64,
    /// `soap::request(..).to_xml()` of a receive envelope, MiB per second.
    pub soap_encode_mib_s: f64,
    /// `soap::decode` of that envelope, MiB per second.
    pub soap_decode_mib_s: f64,
    /// `axml_schema::validate` against the exchange schema, Mnodes/s.
    pub validate_mnodes_s: f64,
    /// FNV-64 over the document bytes, as the chunk digest folds them.
    pub fnv64_mib_s: f64,
    /// The single-frame receiver's serialize-then-reparse of one stored
    /// document (tree to XML text, then a full pull-parser pass), µs.
    pub reparse_us_per_doc: f64,
    /// Mean enforced document size, bytes.
    pub mean_doc_bytes: f64,
}

/// Runs `pass` until [`MIN_RUN`] has elapsed; returns units per second,
/// where each pass reports the units it processed.
fn rate(mut pass: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += pass();
        let elapsed = start.elapsed();
        if elapsed >= MIN_RUN {
            return units as f64 / elapsed.as_secs_f64();
        }
    }
}

/// Replays every layer on `enforced` (the workload's documents after
/// enforcement, compact XML).
pub fn run(enforced: &[String], exchange: &Compiled) -> Replay {
    let trees: Vec<ITree> = enforced.iter().map(|t| crate::rig::parse_tree(t)).collect();
    let elements: Vec<_> = trees.iter().map(ITree::to_xml).collect();
    let compact = WriteOptions::compact();
    let envelopes: Vec<String> = trees
        .iter()
        .map(|t| soap::request(RECEIVE_METHOD, &[ITree::text("doc0"), t.clone()]).to_xml())
        .collect();
    let text_bytes: u64 = enforced.iter().map(|t| t.len() as u64).sum();
    let envelope_bytes: u64 = envelopes.iter().map(|e| e.len() as u64).sum();
    let nodes: u64 = trees.iter().map(|t| t.size() as u64).sum();
    let docs = enforced.len() as u64;

    let parse_mib_s = rate(|| {
        for t in enforced {
            black_box(parse_document(black_box(t)).expect("enforced XML parses"));
        }
        text_bytes
    }) / MIB;
    let serialize_mib_s = rate(|| {
        elements
            .iter()
            .map(|e| black_box(element_to_string(black_box(e), &compact)).len() as u64)
            .sum()
    }) / MIB;
    let soap_encode_mib_s = rate(|| {
        trees
            .iter()
            .map(|t| {
                let params = [ITree::text("doc0"), t.clone()];
                black_box(soap::request(RECEIVE_METHOD, black_box(&params)).to_xml()).len() as u64
            })
            .sum()
    }) / MIB;
    let soap_decode_mib_s = rate(|| {
        for e in &envelopes {
            black_box(soap::decode(black_box(e)).expect("envelope decodes"));
        }
        envelope_bytes
    }) / MIB;
    let validate_mnodes_s = rate(|| {
        for t in &trees {
            validate(black_box(t), exchange).expect("enforced document validates");
        }
        nodes
    }) / 1e6;
    let fnv64_mib_s = rate(|| {
        for t in enforced {
            let mut digest = Fnv64::new();
            for piece in t.as_bytes().chunks(crate::rig::CHUNK_BYTES) {
                digest.update(black_box(piece));
            }
            black_box(digest.finish());
        }
        text_bytes
    }) / MIB;
    let reparse_docs_s = rate(|| {
        for t in &trees {
            let text = element_to_string(&black_box(t).to_xml(), &compact);
            let mut reader = Reader::new(&text);
            loop {
                match reader.next_event().expect("serialized XML reparses") {
                    Event::Eof => break,
                    ev => {
                        black_box(ev);
                    }
                }
            }
        }
        docs
    });
    Replay {
        parse_mib_s,
        serialize_mib_s,
        soap_encode_mib_s,
        soap_decode_mib_s,
        validate_mnodes_s,
        fnv64_mib_s,
        reparse_us_per_doc: 1e6 / reparse_docs_s,
        mean_doc_bytes: text_bytes as f64 / docs as f64,
    }
}
