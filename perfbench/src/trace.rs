//! Joins the spans of a traced window into one [`OpSpans`] per operation:
//! the benchmark's `bench.op` span, the program's `exchange`, `enforce`,
//! `ship` and `invoke` spans beneath it, the benchmark's services spans
//! beneath those, and the receiver's span matched through the wire
//! request id.

use crate::rig::{FIELD_ENFORCE_REPLAY, SPAN_OP, SPAN_RECEIVE, SPAN_SERVICES};
use crate::stats::OpSpans;
use axml_obs::SpanRecord;
use std::collections::{BTreeMap, HashMap};

/// Per-operation spans of one traced window, split by operation kind.
#[derive(Debug, Default)]
pub struct Traced {
    /// Document exchanges.
    pub writes: Vec<OpSpans>,
    /// Service reads.
    pub reads: Vec<OpSpans>,
}

/// One operation while its spans are being collected.
struct Pending {
    spans: OpSpans,
    read: bool,
    rid: Option<String>,
}

/// Joins `records` (every span closed during the window).
pub fn join(records: &[SpanRecord]) -> Traced {
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let op_of = |r: &SpanRecord| {
        let mut parent = r.parent;
        while let Some(p) = parent {
            let rec = by_id.get(&p)?;
            if rec.name == SPAN_OP {
                return Some(rec.id);
            }
            parent = rec.parent;
        }
        None
    };
    // Keyed by span id, so operations come out in the order they began.
    let mut ops: BTreeMap<u64, Pending> = records
        .iter()
        .filter(|r| r.name == SPAN_OP)
        .map(|r| {
            let spans = OpSpans {
                op: r.duration_ns,
                enforce_in_ship: r.field(FIELD_ENFORCE_REPLAY).and_then(|v| v.parse().ok()),
                ..OpSpans::default()
            };
            let read = r.field("kind") == Some("read");
            (
                r.id,
                Pending {
                    spans,
                    read,
                    rid: None,
                },
            )
        })
        .collect();
    let mut receive_by_rid: HashMap<&str, u64> = HashMap::new();
    for r in records {
        if r.name == SPAN_RECEIVE {
            if let Some(rid) = r.field("rid") {
                *receive_by_rid.entry(rid).or_default() += r.duration_ns;
            }
            continue;
        }
        let Some(op) = op_of(r) else { continue };
        let Some(pending) = ops.get_mut(&op) else {
            continue;
        };
        let spans = &mut pending.spans;
        match r.name.as_str() {
            "exchange" | "invoke" => {
                spans.exchange += r.duration_ns;
                pending.rid = r.field("rid").map(str::to_owned);
            }
            "enforce" => spans.enforce += r.duration_ns,
            "ship" => spans.ship += r.duration_ns,
            SPAN_SERVICES => spans.services += r.duration_ns,
            _ => {}
        }
    }
    let mut out = Traced::default();
    for Pending {
        mut spans,
        read,
        rid,
    } in ops.into_values()
    {
        spans.receive = rid
            .as_deref()
            .and_then(|r| receive_by_rid.get(r))
            .copied()
            .unwrap_or(0);
        if read {
            // A read's client side is the program's `invoke` span: wire
            // is invoke minus receive, other is op minus invoke.
            spans.ship = spans.exchange;
            out.reads.push(spans);
        } else {
            out.writes.push(spans);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{stage_stat, PARTS};

    fn rec(
        id: u64,
        parent: Option<u64>,
        name: &str,
        dur: u64,
        fields: &[(&str, &str)],
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_owned(),
            start_ns: id,
            duration_ns: dur,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            error: false,
        }
    }

    /// A synthetic window: single-frame writes, chunked writes and reads,
    /// with unrelated spans mixed in.
    fn synthetic() -> Vec<SpanRecord> {
        let mut v = Vec::new();
        let mut id = 1;
        for i in 0..20u64 {
            let rid = format!("{}", 1000 + i);
            let base = id;
            id += 10;
            match i % 3 {
                0 => {
                    v.push(rec(base + 3, Some(base + 2), SPAN_SERVICES, 30 + i, &[]));
                    v.push(rec(
                        base + 2,
                        Some(base + 1),
                        "enforce",
                        300 + 7 * i,
                        &[("rid", &rid)],
                    ));
                    v.push(rec(
                        base + 4,
                        Some(base + 1),
                        "ship",
                        400 + 5 * i,
                        &[("rid", &rid)],
                    ));
                    v.push(rec(
                        base + 1,
                        Some(base),
                        "exchange",
                        800 + 13 * i,
                        &[("rid", &rid)],
                    ));
                    v.push(rec(base, None, SPAN_OP, 900 + 17 * i, &[("kind", "write")]));
                    v.push(rec(
                        base + 5,
                        None,
                        SPAN_RECEIVE,
                        150 + 3 * i,
                        &[("rid", &rid)],
                    ));
                    v.push(rec(
                        base + 6,
                        Some(base + 5),
                        "validate",
                        140,
                        &[("rid", &rid)],
                    ));
                }
                1 => {
                    let replay = format!("{}", 200 + i);
                    v.push(rec(base + 3, Some(base + 2), SPAN_SERVICES, 50 + i, &[]));
                    v.push(rec(
                        base + 2,
                        Some(base + 1),
                        "ship",
                        5000 + 11 * i,
                        &[("rid", &rid)],
                    ));
                    v.push(rec(
                        base + 1,
                        Some(base),
                        "exchange",
                        6000 + 9 * i,
                        &[("rid", &rid)],
                    ));
                    v.push(rec(
                        base,
                        None,
                        SPAN_OP,
                        6100 + 23 * i,
                        &[("kind", "write"), (FIELD_ENFORCE_REPLAY, &replay)],
                    ));
                    v.push(rec(
                        base + 5,
                        None,
                        SPAN_RECEIVE,
                        2000 + i,
                        &[("rid", &rid)],
                    ));
                }
                _ => {
                    v.push(rec(
                        base + 1,
                        Some(base),
                        "invoke",
                        120 + 3 * i,
                        &[("rid", &rid)],
                    ));
                    v.push(rec(base, None, SPAN_OP, 140 + 5 * i, &[("kind", "read")]));
                    v.push(rec(base + 5, None, SPAN_RECEIVE, 60 + i, &[("rid", &rid)]));
                }
            }
            v.push(rec(base + 8, None, "unrelated", 99, &[("rid", &rid)]));
        }
        v
    }

    #[test]
    fn stage_means_plus_other_equal_the_operation_mean() {
        let traced = join(&synthetic());
        assert_eq!(traced.writes.len(), 14);
        assert_eq!(traced.reads.len(), 6);
        for ops in [&traced.writes, &traced.reads] {
            let op_mean = stage_stat(&ops.iter().map(|o| o.op as i64).collect::<Vec<_>>()).mean_us;
            let parts: f64 = (0..PARTS.len())
                .map(|k| stage_stat(&ops.iter().map(|o| o.parts()[k]).collect::<Vec<_>>()).mean_us)
                .sum();
            assert!((parts - op_mean).abs() < 1e-9, "{parts} vs {op_mean}");
        }
        let first = traced.writes[0];
        assert_eq!(
            (first.enforce, first.services, first.ship, first.receive),
            (300, 30, 400, 150)
        );
        assert_eq!(first.parts(), [270, 30, 250, 150, 200]);
        let chunked = traced.writes[1];
        assert_eq!(chunked.enforce_in_ship, Some(201));
        assert_eq!(chunked.parts().iter().sum::<i64>(), chunked.op as i64);
        let read = traced.reads[0];
        assert_eq!(read.parts(), [0, 0, 126 - 62, 62, 150 - 126]);
    }
}
