//! Determinism of the cross-request solver cache (DESIGN.md §9): a warm
//! run (every game answered from the [`SolveCache`]) produces
//! byte-identical XML and an identical [`RewriteReport`] to the cold run
//! that populated the cache.
//!
//! Services are modeled by a *pure* invoker — the answer depends only on
//! `(function, params)`, never on call order — so any output divergence
//! can only come from the cache.

use axml::core::invoke::{InvokeError, Invoker};
use axml::core::rewrite::{RewriteReport, Rewriter};
use axml::core::solve_cache::SolveCache;
use axml::schema::{
    generate_output_instance, validate, Compiled, GenConfig, ITree, NoOracle, Schema,
};
use axml_support::hash::fx_hash_one;
use axml_support::prelude::*;
use axml_support::rng::SeedableRng;

#[allow(unused_imports)] // doc link
use axml::core::rewrite::RewriteError;

/// Answers every call with a random output instance of the function's
/// declared type, drawn from an RNG seeded by `(salt, function, params)`
/// alone: the same call always gets the same answer.
struct PureInvoker<'c> {
    compiled: &'c Compiled,
    salt: u64,
}

impl Invoker for PureInvoker<'_> {
    fn invoke(&mut self, function: &str, params: &[ITree]) -> Result<Vec<ITree>, InvokeError> {
        let seed = fx_hash_one(&(self.salt, function, format!("{params:?}")));
        let mut rng = axml_support::rng::StdRng::seed_from_u64(seed);
        let output = self.compiled.sig_of(function).output.clone();
        generate_output_instance(self.compiled, &output, &mut rng, &GenConfig::default()).map_err(
            |e| InvokeError {
                function: function.to_owned(),
                message: e.to_string(),
            },
        )
    }
}

fn exchange_compiled() -> Compiled {
    Compiled::new(
        Schema::builder()
            .element("r", "exhibit*")
            .element("exhibit", "title.date")
            .data_element("title")
            .data_element("date")
            .function("Get_Date", "title", "date")
            .build()
            .unwrap(),
        &NoOracle,
    )
    .unwrap()
}

/// One root subtree: materialized or intensional date, per the flag.
fn exhibit(title: &str, intensional: bool) -> ITree {
    let date = if intensional {
        ITree::func("Get_Date", vec![ITree::data("title", title)])
    } else {
        ITree::data("date", "mon")
    };
    ITree::elem("exhibit", vec![ITree::data("title", title), date])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cold and warm runs of the same document agree byte for byte, and
    /// their reports are identical.
    #[test]
    fn warm_runs_are_byte_identical(
        exhibits in prop::collection::vec(("[a-z]{1,5}", 0u32..2), 0..6),
        salt in 0u64..1_000,
    ) {
        let c = exchange_compiled();
        let doc = ITree::elem(
            "r",
            exhibits.iter().map(|(t, f)| exhibit(t, *f == 1)).collect(),
        );
        let cache = SolveCache::unpublished(128);
        let run = |cache: &SolveCache| -> (ITree, RewriteReport) {
            let mut inv = PureInvoker { compiled: &c, salt };
            Rewriter::new(&c)
                .with_k(1)
                .with_cache(cache)
                .rewrite_safe(&doc, &mut inv)
                .unwrap()
        };
        let (cold, cold_rep) = run(&cache);
        validate(&cold, &c).unwrap();
        let cold_xml = cold.to_xml().to_xml();

        // Warm: every game/DFA now comes from the cache.
        let misses_after_cold = cache.stats().misses;
        let (warm, warm_rep) = run(&cache);
        prop_assert_eq!(warm.to_xml().to_xml(), cold_xml, "warm != cold");
        prop_assert_eq!(&warm_rep, &cold_rep);
        prop_assert_eq!(cache.stats().misses, misses_after_cold,
            "a warm run must not rebuild anything");
    }
}
