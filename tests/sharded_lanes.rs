//! Both sharded modes — bitmaps split across [`ShardedEstimator`] lanes
//! and queries split across [`ShardedCatalog`] lanes — hand work to the
//! same worker runtime. These tests drive that runtime through the
//! public API of each mode: settled reads at every barrier, the router's
//! backlog accounting, lanes that own nothing, unsettled backlogs at
//! `finish`, and checkpoints that hop between lane counts. Every check is
//! bit-exact against a sequential run over the same rows.

use implicate::query::Filter;
use implicate::stream::AttrId;
use implicate::{
    EstimatorConfig, ImplicationConditions, ImplicationEstimator, ImplicationQuery, QueryCatalog,
    QueryId, Schema, ShardedCatalog, ShardedEstimator, Tuple,
};

fn config() -> EstimatorConfig {
    EstimatorConfig::new(ImplicationConditions::one_to_c(2, 0.9, 2))
        .bitmaps(32)
        .seed(41)
}

/// Mostly loyal sources with a stray second destination for one in
/// five, so fringe promotion and violations both occur.
fn pairs(n: u64) -> Vec<(u64, u64)> {
    (0..n)
        .map(|i| {
            let a = (i * 7_919) % 3_001;
            let b = if i % 5 == 0 { (i / 5) % 11 } else { a % 97 };
            (a, b)
        })
        .collect()
}

fn sequential(pairs: &[(u64, u64)]) -> ImplicationEstimator {
    let mut est = config().build();
    for &(a, b) in pairs {
        est.update(&[a], &[b]);
    }
    est
}

#[test]
fn checkpoints_can_hop_between_lane_counts() {
    // Two lanes, then a snapshot, then three lanes, then a sequential
    // tail: the session boundaries and lane counts never show in the bytes.
    let rows = pairs(24_000);
    let expected = sequential(&rows).to_bytes();

    let mut first = ShardedEstimator::new(config().build(), 2);
    for &(a, b) in &rows[..8_000] {
        first.update(&[a], &[b]);
    }
    let restored = ImplicationEstimator::from_bytes(first.finish().to_bytes()).expect("roundtrip");
    let mut second = ShardedEstimator::new(restored, 3);
    for &(a, b) in &rows[8_000..16_000] {
        second.update(&[a], &[b]);
    }
    let mut tail = second.finish();
    for &(a, b) in &rows[16_000..] {
        tail.update(&[a], &[b]);
    }
    assert_eq!(tail.tuples_seen(), 24_000);
    assert_eq!(tail.to_bytes(), expected);
}

#[test]
fn backlog_counts_pairs_still_buffered_in_the_router() {
    // Ten pairs fill no lane buffer, so none has shipped: all ten are
    // backlog until a barrier flushes and settles them.
    let rows = pairs(10);
    let mut sharded = ShardedEstimator::new(config().build(), 2);
    let reader = sharded.reader();
    for &(a, b) in &rows {
        sharded.update(&[a], &[b]);
    }
    assert_eq!(sharded.backlog(), 10);
    sharded.barrier();
    assert_eq!(sharded.backlog(), 0);
    sharded.publish();
    assert_eq!(reader.tuples(), 10);
    assert_eq!(reader.estimate(), sequential(&rows).estimate_now());
}

#[test]
fn restored_rows_are_part_of_the_stream_position() {
    let rows = pairs(5_007);
    let restored =
        ImplicationEstimator::from_bytes(sequential(&rows[..5_000]).to_bytes()).expect("roundtrip");
    let mut sharded = ShardedEstimator::new(restored, 3);
    assert_eq!(sharded.backlog(), 0, "preloaded rows are already applied");
    let reader = sharded.reader();
    assert_eq!(reader.tuples(), 5_000);
    for &(a, b) in &rows[5_000..] {
        sharded.update(&[a], &[b]);
    }
    assert_eq!(sharded.backlog(), 7);
    sharded.barrier();
    sharded.publish();
    assert_eq!(reader.tuples(), 5_007);
    assert_eq!(sharded.finish().to_bytes(), sequential(&rows).to_bytes());
}

#[test]
fn settled_reads_match_the_sequential_prefix_at_every_barrier() {
    let rows = pairs(15_000);
    let mut seq = config().build();
    let mut sharded = ShardedEstimator::new(config().build(), 3);
    let reader = sharded.reader();
    for chunk in rows.chunks(2_500) {
        for &(a, b) in chunk {
            seq.update(&[a], &[b]);
            sharded.update(&[a], &[b]);
        }
        sharded.barrier();
        assert_eq!(sharded.backlog(), 0);
        sharded.publish();
        assert_eq!(reader.tuples(), seq.tuples_seen());
        assert_eq!(reader.estimate(), seq.estimate_now());
    }
    assert_eq!(sharded.finish().to_bytes(), seq.to_bytes());
}

#[test]
fn row_and_batch_entries_interleave_bit_identically() {
    // Alternating the row entry and the batch entry many times, with
    // chunk sizes that straddle the router's lane buffers, is unobservable.
    let rows = pairs(20_000);
    let expected = sequential(&rows).to_bytes();
    for threads in [1usize, 2, 5] {
        let mut sharded = ShardedEstimator::new(config().build(), threads);
        let hasher = sharded.pair_hasher();
        let mut hashed = Vec::new();
        for (i, chunk) in rows.chunks(1_500).enumerate() {
            if i % 2 == 0 {
                for &(a, b) in chunk {
                    sharded.update(&[a], &[b]);
                }
            } else {
                hashed.clear();
                hashed.extend(chunk.iter().map(|&(a, b)| hasher.hash_pair(&[a], &[b])));
                sharded.update_hashed_batch(&hashed);
            }
        }
        assert_eq!(
            sharded.finish().to_bytes(),
            expected,
            "entries diverged at {threads} threads"
        );
    }
}

#[test]
fn idle_lanes_settle_at_barriers_and_merge_exactly() {
    // Six lanes over four bitmaps: two lanes own nothing, yet still
    // answer every barrier and join cleanly.
    let cfg = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
        .bitmaps(4)
        .seed(13);
    let rows = pairs(6_000);
    let mut seq = cfg.build();
    let mut sharded = ShardedEstimator::new(cfg.build(), 6);
    assert_eq!(sharded.threads(), 6);
    let reader = sharded.reader();
    for chunk in rows.chunks(2_000) {
        for &(a, b) in chunk {
            seq.update(&[a], &[b]);
            sharded.update(&[a], &[b]);
        }
        sharded.barrier();
        assert_eq!(sharded.backlog(), 0);
        sharded.publish();
        assert_eq!(reader.estimate(), seq.estimate_now());
    }
    assert_eq!(sharded.finish().to_bytes(), seq.to_bytes());
}

#[test]
fn finish_publishes_the_final_state_without_a_barrier() {
    // Rows still queued in the rings when `finish` closes them are
    // applied, and readers advance to the merged, sequential-identical
    // state.
    let rows = pairs(30_000);
    let seq = sequential(&rows);
    let mut sharded = ShardedEstimator::new(config().build(), 4);
    let reader = sharded.reader();
    let hasher = sharded.pair_hasher();
    let hashed: Vec<(u64, u64)> = rows
        .iter()
        .map(|&(a, b)| hasher.hash_pair(&[a], &[b]))
        .collect();
    sharded.update_hashed_batch(&hashed);
    let est = sharded.finish();
    assert_eq!(reader.tuples(), 30_000);
    assert_eq!(reader.estimate(), seq.estimate_now());
    assert_eq!(est.to_bytes(), seq.to_bytes());
}

// ---------------------------------------------------------------------
// Catalog lanes
// ---------------------------------------------------------------------

fn schema() -> Schema {
    Schema::new([("Src", 0), ("Dst", 0), ("Svc", 4)])
}

fn template() -> EstimatorConfig {
    EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
        .bitmaps(16)
        .seed(77)
}

fn rows(range: std::ops::Range<u64>) -> Vec<Tuple> {
    range
        .map(|i| Tuple::from([i % 700, if i % 6 == 0 { i % 13 } else { i % 41 }, i % 4]))
        .collect()
}

/// One query of every kind, plus a complemented and a filtered one.
fn every_kind(schema: &Schema) -> Vec<(String, ImplicationQuery)> {
    let src = schema.attr_set(&["Src"]);
    let dst = schema.attr_set(&["Dst"]);
    let svc = schema.attr_set(&["Svc"]);
    vec![
        ("distinct".into(), ImplicationQuery::distinct_count(src)),
        ("loyal".into(), ImplicationQuery::one_to_one(src, dst, 1)),
        ("at_most".into(), ImplicationQuery::at_most(src, dst, 2, 1)),
        ("fanout".into(), ImplicationQuery::more_than(dst, src, 3, 2)),
        ("noisy".into(), ImplicationQuery::noisy(src, dst, 2, 0.8, 1)),
        (
            "disloyal".into(),
            ImplicationQuery::one_to_one(src, svc, 1).complement(),
        ),
        (
            "svc0".into(),
            ImplicationQuery::one_to_one(src, dst, 1).filtered(Filter::new().and_eq(AttrId(2), 0)),
        ),
    ]
}

/// Two catalogs with the same queries registered in the same order.
fn twin_catalogs(
    queries: &[(String, ImplicationQuery)],
) -> (QueryCatalog, QueryCatalog, Vec<QueryId>) {
    let schema = schema();
    let mut seq = QueryCatalog::new(&schema, template());
    let mut base = QueryCatalog::new(&schema, template());
    let ids = queries
        .iter()
        .map(|(name, q)| {
            let id = seq.register(name.clone(), q.clone());
            assert_eq!(base.register(name.clone(), q.clone()), id);
            id
        })
        .collect();
    (seq, base, ids)
}

fn assert_same_answers(merged: &QueryCatalog, seq: &QueryCatalog, ids: &[QueryId]) {
    assert_eq!(merged.tuples_seen(), seq.tuples_seen());
    assert_eq!(merged.tracked_bytes(), seq.tracked_bytes());
    for &id in ids {
        assert_eq!(
            merged.answer(id).map(f64::to_bits),
            seq.answer(id).map(f64::to_bits),
            "query {} diverged",
            seq.name(id).unwrap_or("?")
        );
        assert_eq!(merged.estimate(id), seq.estimate(id));
        assert_eq!(merged.matched(id), seq.matched(id));
    }
}

#[test]
fn sharded_catalog_answers_every_query_kind_exactly() {
    let queries = every_kind(&schema());
    let stream = rows(0..9_000);
    for threads in [2usize, 3] {
        let (mut seq, base, ids) = twin_catalogs(&queries);
        let mut sharded = ShardedCatalog::new(base, threads);
        assert_eq!(sharded.len(), queries.len());
        for chunk in stream.chunks(512) {
            seq.process_batch(chunk);
            sharded.process_batch(chunk);
        }
        assert_same_answers(&sharded.finish(), &seq, &ids);
    }
}

#[test]
fn catalog_settled_reads_match_the_sequential_prefix_at_every_barrier() {
    let queries = every_kind(&schema());
    let (mut seq, base, ids) = twin_catalogs(&queries);
    let mut sharded = ShardedCatalog::new(base, 3);
    let readers: Vec<_> = ids
        .iter()
        .map(|&id| sharded.reader(id).expect("live query"))
        .collect();
    for chunk in rows(0..8_000).chunks(1_000) {
        seq.process_batch(chunk);
        sharded.process_batch(chunk);
        sharded.publish();
        sharded.barrier();
        for (reader, &id) in readers.iter().zip(&ids) {
            assert_eq!(reader.tuples(), seq.matched(id).expect("live query"));
            assert_eq!(Some(reader.estimate()), seq.estimate(id));
        }
    }
    assert_same_answers(&sharded.finish(), &seq, &ids);
}

#[test]
fn catalog_lanes_outnumbering_queries_stay_exact() {
    // Five lanes for two queries: three lanes own no query but still see
    // every batch, answer every barrier and join.
    let queries = every_kind(&schema())[..2].to_vec();
    let (mut seq, base, ids) = twin_catalogs(&queries);
    let mut sharded = ShardedCatalog::new(base, 5);
    for chunk in rows(0..4_000).chunks(300) {
        seq.process_batch(chunk);
        sharded.process_batch(chunk);
        sharded.publish();
        sharded.barrier();
    }
    assert_same_answers(&sharded.finish(), &seq, &ids);
}

#[test]
fn empty_catalog_still_counts_every_row() {
    let base = QueryCatalog::new(&schema(), template());
    let mut sharded = ShardedCatalog::new(base, 3);
    assert!(sharded.is_empty());
    for chunk in rows(0..2_500).chunks(256) {
        sharded.process_batch(chunk);
    }
    sharded.barrier();
    assert_eq!(sharded.tuples_seen(), 2_500);
    let merged = sharded.finish();
    assert!(merged.is_empty());
    assert_eq!(merged.tuples_seen(), 2_500);
}

#[test]
fn catalog_finish_applies_an_unsettled_backlog() {
    // Many small batches and no barrier: whatever is still queued in the
    // rings when `finish` closes them must be applied before the join.
    let queries = every_kind(&schema());
    let (mut seq, base, ids) = twin_catalogs(&queries);
    let mut sharded = ShardedCatalog::new(base, 4);
    for chunk in rows(0..6_400).chunks(64) {
        seq.process_batch(chunk);
        sharded.process_batch(chunk);
    }
    assert_eq!(sharded.tuples_seen(), 6_400);
    assert_same_answers(&sharded.finish(), &seq, &ids);
}

#[test]
fn pre_hashed_batches_match_tuple_batches() {
    // The checkout → hash → process_hashed loop a reader thread runs must
    // land where process_batch does, buffer reuse included.
    let queries = every_kind(&schema());
    let (mut seq, base, ids) = twin_catalogs(&queries);
    let mut sharded = ShardedCatalog::new(base, 2);
    let hasher = sharded.hasher().clone();
    let mut batch = sharded.checkout();
    for chunk in rows(0..7_000).chunks(700) {
        seq.process_batch(chunk);
        let mut owned = batch.recycle();
        owned.clear();
        owned.extend_from_slice(chunk);
        hasher.hash_batch(owned, &mut batch);
        batch = sharded.process_hashed(batch);
    }
    assert_same_answers(&sharded.finish(), &seq, &ids);
}

#[test]
fn catalog_sessions_hop_between_lane_counts() {
    // Sharded, then sequential with a late registration and a retirement
    // on the owner, then sharded again at a different lane count: every
    // answer matches a catalog that did the same owner operations at the
    // same stream positions without ever sharding.
    let queries = every_kind(&schema());
    let (mut seq, base, mut ids) = twin_catalogs(&queries);

    let mut first = ShardedCatalog::new(base, 2);
    for chunk in rows(0..3_000).chunks(500) {
        seq.process_batch(chunk);
        first.process_batch(chunk);
    }
    let mut owner = first.finish();
    let middle = rows(3_000..4_000);
    seq.process_batch(&middle);
    owner.process_batch(&middle);

    let late = ImplicationQuery::at_most(
        schema().attr_set(&["Dst"]),
        schema().attr_set(&["Svc"]),
        1,
        1,
    );
    let late_id = seq.register("late", late.clone());
    assert_eq!(owner.register("late", late), late_id);
    assert!(seq.retire(ids[1]));
    assert!(owner.retire(ids[1]));
    ids.remove(1);
    ids.push(late_id);

    let mut second = ShardedCatalog::new(owner, 4);
    assert_eq!(second.find("late"), Some(late_id));
    assert_eq!(second.find("loyal"), None);
    for chunk in rows(4_000..9_000).chunks(500) {
        seq.process_batch(chunk);
        second.process_batch(chunk);
    }
    assert_same_answers(&second.finish(), &seq, &ids);
}

#[test]
fn catalog_readers_follow_their_query_across_sessions() {
    let queries = every_kind(&schema());
    let (mut seq, base, ids) = twin_catalogs(&queries);
    let mut first = ShardedCatalog::new(base, 3);
    let reader = first.reader(ids[0]).expect("live query");
    let stream = rows(0..6_000);
    seq.process_batch(&stream[..3_000]);
    first.process_batch(&stream[..3_000]);
    let mut second = ShardedCatalog::new(first.finish(), 2);
    seq.process_batch(&stream[3_000..]);
    second.process_batch(&stream[3_000..]);
    second.publish();
    second.barrier();
    assert_eq!(reader.tuples(), 6_000);
    assert_eq!(Some(reader.estimate()), seq.estimate(ids[0]));
}

#[test]
fn unsettled_catalog_publishes_never_run_ahead_of_the_router() {
    // Publishing without a barrier reads each lane at whatever batch
    // boundary it has reached: never past the router, never backwards.
    let queries = every_kind(&schema())[..1].to_vec();
    let (mut seq, base, ids) = twin_catalogs(&queries);
    let mut sharded = ShardedCatalog::new(base, 2);
    let reader = sharded.reader(ids[0]).expect("live query");
    let mut last = 0;
    for chunk in rows(0..12_800).chunks(128) {
        seq.process_batch(chunk);
        sharded.process_batch(chunk);
        sharded.publish();
        let seen = reader.tuples();
        assert!(seen >= last, "reader went backwards: {seen} < {last}");
        assert!(
            seen <= sharded.tuples_seen(),
            "reader ran ahead of the router"
        );
        last = seen;
    }
    sharded.publish();
    sharded.barrier();
    assert_eq!(reader.tuples(), 12_800);
    assert_eq!(Some(reader.estimate()), seq.estimate(ids[0]));
}
