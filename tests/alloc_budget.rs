//! Allocation budget of one-pass decoding.
//!
//! Timing on a shared 2-core host is noisy; allocation counts are exact
//! and repeat from run to run, so they are the gate. This binary installs
//! a counting global allocator (per thread, so the test harness's own
//! threads do not count) and holds `soap::decode` and `ITree::parse` of
//! one fixed Fig. 1 receive envelope to a stated budget. An allocation
//! is one call to `alloc`, `alloc_zeroed` or `realloc`.
//!
//! The budgets are the counts measured when one-pass decoding landed
//! plus about 10%; EXPERIMENTS.md (B17) records them against the DOM
//! route they replaced. Keep this file a single test.

use axml::peer::RECEIVE_METHOD;
use axml::schema::ITree;
use axml::services::soap::{self, Message};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Budget for `soap::decode` of the envelope.
const DECODE_BUDGET: u64 = 188;
/// Budget for `ITree::parse` of the envelope.
const PARSE_BUDGET: u64 = 196;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread (the result is dropped by the caller, outside the count).
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A fixed Fig. 1 document: the paper's newspaper with a `Get_Temp` call
/// and fourteen exhibits, every other one dated by a `Get_Date` call.
fn fig1_document() -> ITree {
    let mut children = vec![
        ITree::data("title", "The Sun"),
        ITree::data("date", "04/10/2002"),
        ITree::func("Get_Temp", vec![ITree::data("city", "Paris")]),
    ];
    for i in 0..14 {
        let title = format!("Exhibit {i}");
        let when = if i % 2 == 0 {
            ITree::func("Get_Date", vec![ITree::data("title", &title)])
        } else {
            ITree::data("date", "04/10/2002")
        };
        children.push(ITree::elem(
            "exhibit",
            vec![ITree::data("title", &title), when],
        ));
    }
    ITree::elem("newspaper", children)
}

#[test]
fn one_pass_decoding_stays_within_allocation_budget() {
    let doc = fig1_document();
    let params = [ITree::text("doc0"), doc.clone()];
    let envelope = soap::request(RECEIVE_METHOD, &params).to_xml();

    // Warm once, so lazily initialized state is not counted.
    let _ = soap::decode(&envelope);
    let _ = ITree::parse(&envelope);

    let (decoded, decode) = allocations(|| soap::decode(&envelope));
    let (parsed, parse) = allocations(|| ITree::parse(&envelope));
    assert_eq!(
        allocations(|| soap::decode(&envelope)).1,
        decode,
        "decode count repeats"
    );
    assert_eq!(
        allocations(|| ITree::parse(&envelope)).1,
        parse,
        "parse count repeats"
    );

    match decoded.expect("the envelope decodes") {
        Message::Request { method, params: p } => {
            assert_eq!(method, RECEIVE_METHOD);
            assert_eq!(p, params);
        }
        other => panic!("expected a request, got {other:?}"),
    }
    assert_eq!(parsed.expect("the envelope parses").size(), 6 + doc.size());

    println!(
        "{} byte envelope: soap::decode {decode} allocations (budget {DECODE_BUDGET}), \
         ITree::parse {parse} (budget {PARSE_BUDGET})",
        envelope.len()
    );
    assert!(
        decode <= DECODE_BUDGET,
        "soap::decode made {decode} allocations, budget {DECODE_BUDGET}"
    );
    assert!(
        parse <= PARSE_BUDGET,
        "ITree::parse made {parse} allocations, budget {PARSE_BUDGET}"
    );
}
