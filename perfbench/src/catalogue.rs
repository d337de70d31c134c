//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (checked by a test below);
//! `perfbench/README.md` explains each one.

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("exchange_p50_us", "us"),
    ("exchange_tail_us", "us"),
    ("invoke_p50_us", "us"),
    ("invoke_tail_us", "us"),
    ("goodput_mib_s", "MiB/s"),
    ("ok_ratio", "ratio"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Stages of a document exchange (write), from the traced window.
    ("stage.op_us.p50", "us"),
    ("stage.op_us.mean", "us"),
    ("stage.exchange_us.p50", "us"),
    ("stage.exchange_us.mean", "us"),
    ("stage.sender_enforce_us.p50", "us"),
    ("stage.sender_enforce_us.mean", "us"),
    ("stage.services_invoke_us.p50", "us"),
    ("stage.services_invoke_us.mean", "us"),
    ("stage.ship_us.p50", "us"),
    ("stage.ship_us.mean", "us"),
    ("stage.receive_us.p50", "us"),
    ("stage.receive_us.mean", "us"),
    ("stage.wire_us.p50", "us"),
    ("stage.wire_us.mean", "us"),
    ("stage.other_us.p50", "us"),
    ("stage.other_us.mean", "us"),
    // Stages of a service read (invoke).
    ("stage.read.op_us.p50", "us"),
    ("stage.read.op_us.mean", "us"),
    ("stage.read.invoke_us.p50", "us"),
    ("stage.read.invoke_us.mean", "us"),
    ("stage.read.receive_us.p50", "us"),
    ("stage.read.receive_us.mean", "us"),
    ("stage.read.wire_us.p50", "us"),
    ("stage.read.wire_us.mean", "us"),
    ("stage.read.other_us.p50", "us"),
    ("stage.read.other_us.mean", "us"),
    ("trace.overhead_ratio", "ratio"),
    // core: solve cache and safe game.
    ("solver.hit_ratio", "ratio"),
    ("solver.receiver_hit_ratio", "ratio"),
    ("solver.misses_per_op", "count"),
    ("solver.evictions_per_op", "count"),
    ("solver.safe.nodes_per_op", "count"),
    ("solver.safe.busy_us_per_op", "us"),
    // core: streaming enforcement.
    ("stream.copied_ratio", "ratio"),
    ("stream.fallbacks", "count"),
    ("stream.peak_buffer_bytes", "bytes"),
    ("stream.subtrees_per_op", "count"),
    // services.
    ("services.invokes_per_op", "count"),
    ("services.call_faults", "count"),
    // net client.
    ("client.attempts_per_call", "count"),
    ("client.retries", "count"),
    // net server.
    ("server.busy_ratio", "ratio"),
    ("server.faults", "count"),
    ("server.frame_bytes_mean", "bytes"),
    // net chunking.
    ("chunk.frames_per_op", "count"),
    ("chunk.bytes_per_op", "bytes"),
    ("chunk.aborts", "count"),
    ("chunk.reassembly_bytes_end", "bytes"),
    // peer.
    ("peer.exchange_faults", "count"),
    ("peer.repository_docs", "count"),
    ("fail_ratio", "ratio"),
    // Layer replay on the workload's own inputs.
    ("xml.parse_mib_s", "MiB/s"),
    ("xml.serialize_mib_s", "MiB/s"),
    ("soap.encode_mib_s", "MiB/s"),
    ("soap.decode_mib_s", "MiB/s"),
    ("schema.validate_mnodes_s", "Mnodes/s"),
    ("hash.fnv64_mib_s", "MiB/s"),
    ("replay.fnv64_share", "ratio"),
    ("replay.reparse_share", "ratio"),
];

/// The unit of `name`, if it is in the catalogue.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    /// The string values of `key` inside the JSON array named `section`
    /// (a scan, not a parser: enough for the flat file we write).
    fn values(text: &str, section: &str, key: &str) -> Vec<String> {
        let start = text.find(&format!("\"{section}\"")).expect(section);
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array end")];
        let pat = format!("\"{key}\": \"");
        body.match_indices(&pat)
            .map(|(i, _)| {
                let rest = &body[i + pat.len()..];
                rest[..rest.find('"').expect("string end")].to_owned()
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
    }

    #[test]
    fn catalogue_agrees_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names: Vec<&str> = list.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = list.iter().map(|(_, u)| *u).collect();
            assert_eq!(values(&text, section, "name"), names, "{section} names");
            assert_eq!(values(&text, section, "unit"), units, "{section} units");
        }
        let ours: Vec<&str> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(values(&text, "workloads", "name"), ours);
    }
}
