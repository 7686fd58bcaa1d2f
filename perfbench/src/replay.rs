//! Library replay of a workload's input through the public functions the
//! binaries call, batch by batch.
//!
//! The untraced replay gives the answers each binary must reproduce and
//! the exact counts behind `rel_error`. The traced replay wraps every
//! per-batch call in a span, which yields the per-layer numbers.

use std::fs::File;
use std::io::{BufRead, BufReader, Lines};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use implicate::core::parallel::RING_DEPTH;
use implicate::core::ring;
use implicate::sketch::hash::MixHasher;
use implicate::spec::{QuerySpec, FIELD_HASHER_SEED};
use implicate::{
    EstimatorConfig, ExactCounter, Fringe, HashedBatch, ImplicationConditions, ImplicationCounter,
    ImplicationEstimator, QueryCatalog, QueryKind, Schema, ShardedCatalog, Tuple,
};

use crate::spans::Tracer;

/// Lines per batch in the CLI's reader (its `LINE_BATCH`).
pub const CLI_BATCH: usize = 2048;

/// Lines per span of the text front end. The binaries read, split and
/// hash line by line; staging a few lines at a time keeps each stage's
/// data in cache and its allocations recycled as they are in the
/// binaries, while a span still covers many rows.
pub const FRONT_BATCH: usize = 64;

/// Rows per batch an `implicate-serve` ingest connection hands to the
/// writer (its `INGEST_BATCH`).
pub const SERVE_BATCH: usize = 256;

/// Rows between view publications in `implicate-serve` (its
/// `--publish-every` default).
pub const SERVE_PUBLISH_EVERY: u64 = 4096;

/// The estimator configuration both binaries build from their defaults.
pub fn default_config() -> EstimatorConfig {
    let cond = ImplicationConditions::builder()
        .max_multiplicity(1)
        .min_support(1)
        .top_confidence(1, 1.0)
        .build();
    EstimatorConfig::new(cond)
        .bitmaps(64)
        .fringe(Fringe::Bounded(4))
        .seed(42)
}

/// Field fingerprints of a whole input, row-major: `width` words per row,
/// one per hashed column.
pub struct Fingerprints {
    pub words: Vec<u64>,
    pub width: usize,
}

impl Fingerprints {
    pub fn rows(&self) -> usize {
        self.words.len() / self.width
    }

    /// Rows `range` as fingerprints of their own.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Fingerprints {
        Fingerprints {
            words: self.words[range.start * self.width..range.end * self.width].to_vec(),
            width: self.width,
        }
    }

    pub fn chunks(&self, rows: usize) -> impl Iterator<Item = &[u64]> {
        self.words.chunks(rows * self.width)
    }
}

/// The binaries' text front end, one stage per span: read lines, split
/// them on whitespace, hash the selected fields.
pub struct FrontEnd {
    lines: Lines<BufReader<File>>,
    cols: Vec<usize>,
    hasher: MixHasher,
    buf: Vec<String>,
}

impl FrontEnd {
    pub fn open(path: &Path, cols: &[usize]) -> std::io::Result<Self> {
        Ok(Self {
            lines: BufReader::new(File::open(path)?).lines(),
            cols: cols.to_vec(),
            hasher: MixHasher::new(FIELD_HASHER_SEED),
            buf: Vec::with_capacity(FRONT_BATCH),
        })
    }

    /// Reads up to [`FRONT_BATCH`] rows and appends their fingerprints to
    /// `out`; returns the rows added (0 at the end of the input).
    pub fn next_batch(&mut self, tr: &mut Tracer, out: &mut Vec<u64>) -> std::io::Result<usize> {
        let read = tr.enter("cli.read");
        self.buf.clear();
        for line in self.lines.by_ref() {
            let line = line?;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            self.buf.push(line);
            if self.buf.len() == FRONT_BATCH {
                break;
            }
        }
        tr.exit(read);
        let split = tr.enter("cli.split");
        let fields: Vec<Vec<&str>> = self
            .buf
            .iter()
            .map(|l| l.split_whitespace().collect())
            .collect();
        tr.exit(split);
        let hash = tr.enter("text.hash_field");
        let mut rows = 0;
        for f in &fields {
            if self.cols.iter().all(|&c| c < f.len()) {
                out.extend(
                    self.cols
                        .iter()
                        .map(|&c| implicate::text::hash_field(&self.hasher, f[c])),
                );
                rows += 1;
            }
        }
        tr.exit(hash);
        Ok(rows)
    }

    /// Appends up to `rows` rows (fewer only at the end of the input);
    /// returns the rows added.
    pub fn fill(
        &mut self,
        rows: usize,
        tr: &mut Tracer,
        out: &mut Vec<u64>,
    ) -> std::io::Result<usize> {
        let mut added = 0;
        while added < rows {
            match self.next_batch(tr, out)? {
                0 => break,
                n => added += n,
            }
        }
        Ok(added)
    }
}

/// The CLI's single-query path: front end, then `update` per row, batch
/// by batch, with fingerprint column 0 as the itemset and column 1 as its
/// partner. With `est` absent only the front end runs. Returns every
/// row's fingerprints for the later passes.
pub fn row_pass(
    path: &Path,
    cols: &[usize],
    mut est: Option<&mut ImplicationEstimator>,
    tr: &mut Tracer,
) -> std::io::Result<Fingerprints> {
    let mut fe = FrontEnd::open(path, cols)?;
    let width = cols.len();
    let mut words = Vec::new();
    loop {
        let start = words.len();
        if fe.next_batch(tr, &mut words)? == 0 {
            break;
        }
        if let Some(est) = est.as_mut() {
            let open = tr.enter("estimator.update");
            for row in words[start..].chunks(width) {
                est.update(&[row[0]], &[row[1]]);
            }
            tr.exit(open);
        }
    }
    Ok(Fingerprints { words, width })
}

/// The server's writer path over fingerprint columns 0 and 1: pair
/// hashing and `update_hashed_batch` per `batch` rows, publishing a view
/// every [`SERVE_PUBLISH_EVERY`] rows.
pub fn batch_pass(
    fps: &Fingerprints,
    est: &mut ImplicationEstimator,
    batch: usize,
    tr: &mut Tracer,
) {
    let hasher = est.pair_hasher();
    let mut pairs = Vec::with_capacity(batch);
    let mut since_publish = 0u64;
    for chunk in fps.chunks(batch) {
        tr.time("parallel.hash_pair", || {
            pairs.clear();
            pairs.extend(
                chunk
                    .chunks(fps.width)
                    .map(|row| hasher.hash_pair(&[row[0]], &[row[1]])),
            );
        });
        tr.time("estimator.update_hashed_batch", || {
            est.update_hashed_batch(&pairs)
        });
        since_publish += pairs.len() as u64;
        if since_publish >= SERVE_PUBLISH_EVERY {
            since_publish = 0;
            tr.time("view.publish", || est.publish());
        }
    }
}

/// A catalog over `width` columns with `specs` registered, split
/// round-robin over `lanes` catalogs (one when sequential).
pub fn catalogs(
    width: usize,
    specs: &[QuerySpec],
    lanes: usize,
) -> Result<Vec<QueryCatalog>, String> {
    seeded_catalogs(width, specs, lanes, default_config())
}

fn seeded_catalogs(
    width: usize,
    specs: &[QuerySpec],
    lanes: usize,
    config: EstimatorConfig,
) -> Result<Vec<QueryCatalog>, String> {
    let schema = Schema::new((0..width).map(|i| (format!("c{i}"), 0)));
    let mut out: Vec<QueryCatalog> = (0..lanes)
        .map(|_| QueryCatalog::new(&schema, config))
        .collect();
    for (i, s) in specs.iter().enumerate() {
        out[i % lanes]
            .try_register(s.name.clone(), s.query.clone())
            .map_err(|e| format!("query {}: {e}", s.name))?;
    }
    Ok(out)
}

fn tuples_of(chunk: &[u64], width: usize, into: &mut Vec<Tuple>) {
    into.extend(chunk.chunks(width).map(|row| Tuple::new(row.to_vec())));
}

/// The catalog path: attribute-wise hashing once per batch, then
/// `process_hashed`, as the CLI's `--query-file` mode does.
pub fn catalog_pass(fps: &Fingerprints, catalog: &mut QueryCatalog, tr: &mut Tracer) {
    let hasher = catalog.hasher().clone();
    let mut hashed = HashedBatch::new();
    let mut tuples = Vec::with_capacity(CLI_BATCH);
    for chunk in fps.chunks(CLI_BATCH) {
        tuples_of(chunk, fps.width, &mut tuples);
        tr.time("hashplan.hash_batch", || {
            hasher.hash_batch(std::mem::take(&mut tuples), &mut hashed)
        });
        tr.time("catalog.process_hashed", || catalog.process_hashed(&hashed));
        tuples = hashed.recycle();
    }
}

/// Named answers of a catalog in spec order, as the CLI prints them.
pub fn catalog_answers(catalog: &QueryCatalog, specs: &[QuerySpec]) -> Vec<(String, f64)> {
    specs
        .iter()
        .map(|s| {
            let id = catalog.find(&s.name).expect("registered");
            (s.name.clone(), catalog.answer(id).expect("live query"))
        })
        .collect()
}

/// The CLI's `--query-file --threads N` path end to end, through the
/// real [`ShardedCatalog`]: the front end feeds attribute-hashed batches
/// to the lanes. Returns the reassembled catalog and the time `finish`
/// took.
pub fn sharded_pass(
    path: &Path,
    width: usize,
    specs: &[QuerySpec],
    threads: usize,
) -> Result<(QueryCatalog, Duration), String> {
    let base = catalogs(width, specs, 1)?.pop().expect("one catalog");
    let mut sharded = ShardedCatalog::new(base, threads);
    let hasher = sharded.hasher().clone();
    let cols: Vec<usize> = (0..width).collect();
    let mut fe = FrontEnd::open(path, &cols).map_err(|e| e.to_string())?;
    let mut quiet = Tracer::new(false);
    let mut words = Vec::new();
    let mut hashed = sharded.checkout();
    let mut tuples = hashed.recycle();
    loop {
        words.clear();
        if fe
            .fill(CLI_BATCH, &mut quiet, &mut words)
            .map_err(|e| e.to_string())?
            == 0
        {
            break;
        }
        tuples_of(&words, width, &mut tuples);
        hasher.hash_batch(std::mem::take(&mut tuples), &mut hashed);
        hashed = sharded.process_hashed(hashed);
        tuples = hashed.recycle();
    }
    let start = Instant::now();
    let catalog = sharded.finish();
    Ok((catalog, start.elapsed()))
}

/// What the catalog lanes did during [`lane_pass`].
pub struct LaneStats {
    /// Share of lane time spent blocked on an empty ring.
    pub idle_wait_ratio: f64,
    /// Most batches one lane ever had queued, counting the one taken.
    pub queue_depth_peak: usize,
}

/// The lane handoff of [`ShardedCatalog`], rebuilt from the same public
/// parts — [`ring`] SPSC rings of `RING_DEPTH` shared batches, queries
/// dealt round-robin — because the catalog keeps no lane counters. The
/// router does the CLI's full per-batch work, so lanes wait on it as
/// they do in the binary.
pub fn lane_pass(
    path: &Path,
    width: usize,
    specs: &[QuerySpec],
    threads: usize,
) -> Result<LaneStats, String> {
    let lanes = catalogs(width, specs, threads)?;
    let hasher = lanes[0].hasher().clone();
    let cols: Vec<usize> = (0..width).collect();
    let mut fe = FrontEnd::open(path, &cols).map_err(|e| e.to_string())?;
    let per_lane = std::thread::scope(
        |scope| -> Result<Vec<(Duration, Duration, usize)>, String> {
            let mut txs = Vec::new();
            let mut workers = Vec::new();
            for mut catalog in lanes {
                let (tx, rx) = ring::ring::<Arc<HashedBatch>>(RING_DEPTH);
                txs.push(tx);
                workers.push(scope.spawn(move || {
                    let (mut idle, mut busy, mut peak) = (Duration::ZERO, Duration::ZERO, 0);
                    loop {
                        let batch = match rx.try_pop() {
                            Some(b) => b,
                            None => {
                                let wait = Instant::now();
                                let next = rx.pop();
                                idle += wait.elapsed();
                                match next {
                                    Some(b) => b,
                                    None => break,
                                }
                            }
                        };
                        peak = peak.max(rx.occupancy() + 1);
                        let work = Instant::now();
                        catalog.process_hashed(&batch);
                        busy += work.elapsed();
                    }
                    (idle, busy, peak)
                }));
            }
            let mut quiet = Tracer::new(false);
            let mut words = Vec::new();
            let mut tuples = Vec::with_capacity(CLI_BATCH);
            loop {
                words.clear();
                if fe
                    .fill(CLI_BATCH, &mut quiet, &mut words)
                    .map_err(|e| e.to_string())?
                    == 0
                {
                    break;
                }
                tuples_of(&words, width, &mut tuples);
                let mut hashed = HashedBatch::new();
                hasher.hash_batch(std::mem::take(&mut tuples), &mut hashed);
                let shared = Arc::new(hashed);
                for tx in &txs {
                    if tx.push(Arc::clone(&shared)).is_err() {
                        return Err("catalog lane exited early".into());
                    }
                }
            }
            drop(txs);
            workers
                .into_iter()
                .map(|w| w.join().map_err(|_| "catalog lane panicked".to_string()))
                .collect()
        },
    )?;
    let idle: Duration = per_lane.iter().map(|l| l.0).sum();
    let busy: Duration = per_lane.iter().map(|l| l.1).sum();
    Ok(LaneStats {
        idle_wait_ratio: idle.as_secs_f64() / (idle + busy).as_secs_f64().max(1e-12),
        queue_depth_peak: per_lane.iter().map(|l| l.2).max().unwrap_or(0),
    })
}

/// Exact answers for `specs` over the fingerprints (filters applied),
/// from the reference counter.
pub fn exact_answers(fps: &Fingerprints, specs: &[QuerySpec]) -> Vec<f64> {
    specs
        .iter()
        .map(|s| {
            let mut exact = ExactCounter::new(s.query.conditions);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for row in fps.words.chunks(fps.width) {
                if !s.query.filter.is_empty() && !s.query.filter.matches(&Tuple::new(row.to_vec()))
                {
                    continue;
                }
                a.clear();
                b.clear();
                a.extend(s.lhs_cols.iter().map(|&c| row[c]));
                b.extend(s.rhs_cols.iter().map(|&c| row[c]));
                exact.update(&a, &b);
            }
            match s.query.kind {
                QueryKind::DistinctCount => exact.exact_f0_sup() as f64,
                QueryKind::Implication => exact.exact_implication_count() as f64,
                QueryKind::Complement => exact.exact_non_implication_count() as f64,
            }
        })
        .collect()
}

/// The single query both binaries answer by default, as a catalog spec
/// over two fingerprint columns: the implication count of column 0 to
/// column 1 under the binaries' default conditions.
pub fn default_query() -> Vec<QuerySpec> {
    let mut specs =
        implicate::spec::parse_query_file("default one-to-one 0 1\n").expect("valid spec");
    specs[0].query = specs[0]
        .query
        .clone()
        .with_conditions(*default_config().conditions_ref());
    specs
}

/// The answers the binaries would give under estimator hash seed
/// `seed` (their `--seed`): the single pair through the writer's batch
/// path, a catalog through the catalog path.
pub fn seeded_answers(
    fps: &Fingerprints,
    specs: &[QuerySpec],
    single: bool,
    seed: u64,
) -> Result<Vec<f64>, String> {
    let config = default_config().seed(seed);
    let mut quiet = Tracer::new(false);
    if single {
        let mut est = config.build();
        batch_pass(fps, &mut est, CLI_BATCH, &mut quiet);
        return Ok(vec![est.estimate_now().implication_count]);
    }
    let mut catalog = seeded_catalogs(fps.width, specs, 1, config)?
        .pop()
        .expect("one catalog");
    catalog_pass(fps, &mut catalog, &mut quiet);
    Ok(catalog_answers(&catalog, specs)
        .into_iter()
        .map(|(_, a)| a)
        .collect())
}

/// Mean of |answer − exact| / exact over paired answers.
pub fn mean_rel_error(answers: &[f64], exact: &[f64]) -> f64 {
    let errs: Vec<f64> = answers
        .iter()
        .zip(exact)
        .map(|(a, e)| (a - e).abs() / e.max(1.0))
        .collect();
    crate::stats::mean(&errs).unwrap_or(f64::NAN)
}
