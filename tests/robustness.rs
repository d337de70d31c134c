//! Robustness: malformed inputs never panic, concurrent use is safe.

use axml::peer::RECEIVE_METHOD;
use axml::schema::{validate_xml_stream, Compiled, ITree, NoOracle, Schema};
use axml::services::builtin::{Adversarial, GetTemp};
use axml::services::soap;
use axml::services::{Registry, ServiceDef};
use axml::xml::parse_document;
use axml_support::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The XML parser returns errors, never panics, on arbitrary input.
    #[test]
    fn parser_never_panics_on_garbage(input in ".{0,200}") {
        let _ = parse_document(&input);
    }

    /// Mutated well-formed documents also never panic (and reparse either
    /// succeeds or errors cleanly).
    #[test]
    fn parser_never_panics_on_mutations(pos in 0usize..200, byte in 0u8..128) {
        let base = axml::schema::newspaper_example().to_xml().to_pretty_xml();
        let mut bytes = base.into_bytes();
        if pos < bytes.len() {
            bytes[pos] = byte;
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = parse_document(&text);
        }
    }

    /// The one-pass decoders return errors, never panic, on arbitrary
    /// input.
    #[test]
    fn one_pass_decoders_never_panic_on_garbage(input in ".{0,200}") {
        let _ = ITree::parse(&input);
        let _ = soap::decode(&input);
    }

    /// Byte mutations of a real receive envelope never panic the
    /// one-pass decoders (the daemon's decode of every request).
    #[test]
    fn one_pass_decoders_never_panic_on_envelope_mutations(
        edits in prop::collection::vec((0usize..4096, 0u8..128), 1..4),
    ) {
        let doc = axml::schema::newspaper_example();
        let params = [ITree::text("doc0"), doc];
        let mut bytes = soap::request(RECEIVE_METHOD, &params).to_xml().into_bytes();
        for (pos, byte) in edits {
            let at = pos % bytes.len();
            bytes[at] = byte;
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = ITree::parse(&text);
            let _ = soap::decode(&text);
        }
    }

    /// The streaming validator never panics on arbitrary input either.
    #[test]
    fn stream_validator_never_panics(input in ".{0,200}") {
        let compiled = Compiled::new(
            Schema::builder()
                .element("r", "a*")
                .data_element("a")
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap();
        let _ = validate_xml_stream(&input, &compiled);
    }

    /// The schema DSL parser never panics.
    #[test]
    fn dsl_parser_never_panics(input in ".{0,200}") {
        let _ = axml::schema::dsl::parse_schema_dsl(&input);
    }

    /// The path parser never panics.
    #[test]
    fn path_parser_never_panics(input in ".{0,80}") {
        let _ = axml::schema::PathQuery::parse(&input);
    }
}

#[test]
fn concurrent_rewriters_share_one_registry() {
    let compiled = Arc::new(
        Compiled::new(
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
                .build()
                .unwrap(),
            &NoOracle,
        )
        .unwrap(),
    );
    let registry = Arc::new(Registry::new());
    registry.register(
        ServiceDef::new("Get_Temp", "city", "temp").with_fee(1),
        Arc::new(GetTemp::with_defaults()),
    );
    registry.register(
        ServiceDef::new("TimeOut", "data", "(exhibit|performance)*"),
        Arc::new(Adversarial::for_function(
            Arc::clone(&compiled),
            "TimeOut",
            5,
        )),
    );
    registry.register(
        ServiceDef::new("Get_Date", "title", "date"),
        Arc::new(Adversarial::for_function(
            Arc::clone(&compiled),
            "Get_Date",
            6,
        )),
    );

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let compiled = Arc::clone(&compiled);
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let mut rewriter = axml::core::rewrite::Rewriter::new(&compiled).with_k(2);
                for _ in 0..20 {
                    let mut invoker = registry.invoker(None);
                    let (out, report) = rewriter
                        .rewrite_safe(&axml::schema::newspaper_example(), &mut invoker)
                        .expect("safe rewriting");
                    assert!(axml::schema::validate(&out, &compiled).is_ok());
                    assert!(report.invoked.contains(&"Get_Temp".to_owned()));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // Accounting saw every call exactly once: 8 threads × 20 iterations.
    let stats = registry.stats();
    assert_eq!(stats.calls["Get_Temp"], 160);
    assert_eq!(stats.fees_cents, 160);
}
