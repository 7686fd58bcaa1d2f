//! The catalog's load-bearing contract, property-tested: a query
//! evaluated inside a [`QueryCatalog`] — shared per-attribute hashing,
//! query-major batching, one global budget — answers **bit-for-bit**
//! identically to a standalone [`QueryEngine`] built from the same
//! template over the same stream. Registration order, batch boundaries,
//! co-resident queries, and mid-stream retirement must all be
//! unobservable — also for empty-rhs queries, which skip the NIPS fringe
//! and must hold the same resident bytes in both places.

use proptest::prelude::*;

use implicate::query::Filter;
use implicate::stream::AttrId;
use implicate::{
    EstimatorConfig, ImplicationConditions, ImplicationQuery, QueryCatalog, QueryEngine, Schema,
    ShardedCatalog, Tuple,
};

/// Fixed 3-attribute schema: wide enough for multi-attribute itemsets,
/// small enough that random masks hit interesting overlaps often.
const ARITY: usize = 3;

fn schema() -> Schema {
    Schema::new((0..ARITY).map(|i| (format!("c{i}"), 0)))
}

/// One random query over the 3-attribute schema. The rhs mask is
/// disjointed from the lhs (the constructors assert §3 disjointness);
/// when nothing is left for the rhs the query keeps its kind with
/// `B = ∅`, like a distinct count, and runs partnerless.
fn arb_query() -> impl Strategy<Value = ImplicationQuery> {
    (
        // kind selector, lhs mask, rhs mask (masks non-empty)
        (0usize..5, 1u64..(1 << ARITY), 1u64..(1 << ARITY)),
        // k (doubles as c), min support
        (1u32..4, 1u64..4),
        // Filter clause, applied only when the leading flag is set.
        (prop::bool::ANY, 0u8..ARITY as u8, 0u64..6),
        prop::bool::ANY, // complement
    )
        .prop_map(
            |((kind, lhs_bits, rhs_bits), (k, support), clause, complement)| {
                let clause = clause.0.then_some((clause.1, clause.2));
                let rhs_bits = rhs_bits & !lhs_bits;
                let lhs = implicate::AttrSet::from_bits(lhs_bits);
                let rhs = implicate::AttrSet::from_bits(rhs_bits);
                let mut q = match kind {
                    0 => ImplicationQuery::distinct_count(lhs),
                    1 => ImplicationQuery::one_to_one(lhs, rhs, support),
                    2 => ImplicationQuery::at_most(lhs, rhs, k, support),
                    3 => ImplicationQuery::more_than(lhs, rhs, k, support),
                    _ => ImplicationQuery::noisy(lhs, rhs, k, 0.85, support),
                };
                if complement {
                    q = q.complement();
                }
                if let Some((attr, value)) = clause {
                    q = q.filtered(Filter::new().and_eq(AttrId(attr), value));
                }
                q
            },
        )
}

/// Cases per property: 24 by default, or `PROPTEST_CASES` when set (CI
/// runs this file a second time with 256).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

fn tuples(raw: &[(u64, u64, u64)]) -> Vec<Tuple> {
    raw.iter()
        .map(|&(a, b, c)| Tuple::from([a, b, c]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Any random catalog over any random stream answers each query
    /// bit-identically to that query running alone, with the same
    /// resident bytes, and retiring a co-resident query mid-stream
    /// perturbs nothing.
    #[test]
    fn catalog_answers_match_standalone_engines(
        queries in proptest::collection::vec(arb_query(), 1..6),
        raw in proptest::collection::vec(
            (0u64..40, 0u64..6, 0u64..3), 0..600),
        batch in 1usize..97,
        seed in 0u64..500,
    ) {
        let schema = schema();
        let stream = tuples(&raw);
        let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
            .bitmaps(16)
            .seed(seed);

        let mut catalog = QueryCatalog::new(&schema, template);
        let ids: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| catalog.register(format!("q{i}"), q.clone()))
            .collect();
        let mut engines: Vec<QueryEngine> = queries
            .iter()
            .map(|q| QueryEngine::new(&schema, q.clone(), template))
            .collect();

        let split = stream.len() / 2;
        for chunk in stream[..split].chunks(batch) {
            catalog.process_batch(chunk);
            for engine in &mut engines {
                for t in chunk {
                    engine.process(t);
                }
            }
        }
        // Retire the first query halfway through: the survivors' state
        // lives in their own arenas and must not move.
        if ids.len() > 1 {
            prop_assert!(catalog.retire(ids[0]));
        }
        let survivors = if ids.len() > 1 { 1 } else { 0 };
        for chunk in stream[split..].chunks(batch) {
            catalog.process_batch(chunk);
            for engine in &mut engines[survivors..] {
                for t in chunk {
                    engine.process(t);
                }
            }
        }

        for (i, (id, engine)) in ids.iter().zip(&engines).enumerate().skip(survivors) {
            let from_catalog = catalog.answer(*id)
                .unwrap_or_else(|| panic!("query {i} retired unexpectedly"));
            prop_assert_eq!(
                from_catalog.to_bits(),
                engine.answer().to_bits(),
                "query {} diverged: catalog {} vs standalone {}",
                i,
                from_catalog,
                engine.answer()
            );
            prop_assert_eq!(
                catalog.resident_bytes(*id),
                Some(engine.resident_bytes()),
                "query {} resident bytes",
                i
            );
        }
    }

    /// The `--threads N` catalog is unobservable: for any query mix,
    /// any stream, any batching (empty batches included), and any lane
    /// count, the sharded catalog answers every query — and accounts
    /// every tuple and every tracked byte — bit-identically to the
    /// sequential one-pass catalog. Lanes see every batch as a shared
    /// [`HashedBatch`] over SPSC rings, so each query replays the exact
    /// sequential path.
    #[test]
    fn sharded_catalog_matches_sequential_for_any_lane_count(
        queries in proptest::collection::vec(arb_query(), 1..6),
        raw in proptest::collection::vec(
            (0u64..40, 0u64..6, 0u64..3), 0..600),
        batch in 1usize..97,
        threads in 1usize..5,
        seed in 0u64..500,
    ) {
        let schema = schema();
        let stream = tuples(&raw);
        let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
            .bitmaps(16)
            .seed(seed);

        let mut seq = QueryCatalog::new(&schema, template);
        let mut base = QueryCatalog::new(&schema, template);
        let ids: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                seq.register(format!("q{i}"), q.clone());
                base.register(format!("q{i}"), q.clone())
            })
            .collect();

        let mut sharded = ShardedCatalog::new(base, threads);
        for chunk in stream.chunks(batch) {
            seq.process_batch(chunk);
            sharded.process_batch(chunk);
            sharded.process_batch(&[]); // an empty batch is a free no-op
        }
        // A mid-stream settled read must not perturb the final state.
        sharded.publish();
        sharded.barrier();

        let merged = sharded.finish();
        prop_assert_eq!(merged.tuples_seen(), seq.tuples_seen());
        prop_assert_eq!(merged.tracked_bytes(), seq.tracked_bytes());
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(
                merged.answer(*id).expect("query live").to_bits(),
                seq.answer(*id).expect("query live").to_bits(),
                "query {} diverged under {} lanes",
                i,
                threads
            );
            prop_assert_eq!(merged.matched(*id), seq.matched(*id));
        }
    }

    /// A query registered mid-stream counts exactly the suffix: its
    /// answer is bit-identical to a standalone engine that only ever
    /// saw the post-registration tuples.
    #[test]
    fn late_registration_counts_only_the_suffix(
        query in arb_query(),
        raw in proptest::collection::vec(
            (0u64..40, 0u64..6, 0u64..3), 2..400),
        seed in 0u64..500,
    ) {
        let schema = schema();
        let stream = tuples(&raw);
        let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
            .bitmaps(16)
            .seed(seed);

        let mut catalog = QueryCatalog::new(&schema, template);
        // A bystander query keeps the pass busy before the late one
        // arrives.
        catalog.register(
            "bystander",
            ImplicationQuery::one_to_one(
                implicate::AttrSet::from_bits(1),
                implicate::AttrSet::from_bits(2),
                1,
            ),
        );
        let split = stream.len() / 2;
        catalog.process_batch(&stream[..split]);
        let late = catalog.register("late", query.clone());
        catalog.process_batch(&stream[split..]);

        let mut suffix_engine = QueryEngine::new(&schema, query, template);
        for t in &stream[split..] {
            suffix_engine.process(t);
        }
        prop_assert_eq!(
            catalog.answer(late).expect("late query live").to_bits(),
            suffix_engine.answer().to_bits()
        );
    }
}
