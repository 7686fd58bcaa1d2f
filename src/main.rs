//! `implicate` — command-line implication statistics over delimited
//! streams.
//!
//! Reads rows from a file or stdin, projects two column sets, and
//! maintains a NIPS/CI implication-count estimate online:
//!
//! ```text
//! # how many sources (col 0) stick to a single destination (col 1)?
//! implicate --lhs 0 --rhs 1 < traffic.csv
//!
//! # destinations contacted by >100 sources, reported every 100k rows
//! implicate --lhs 1 --rhs 0 --max-mult 100 --complement --watch 100000
//!
//! # spread ingestion over 4 lanes (same results, bit for bit)
//! implicate --lhs 0 --rhs 1 --threads 4 traffic.csv
//!
//! # checkpoint / resume across restarts
//! implicate --lhs 0 --rhs 1 --save state.imps
//! implicate --lhs 0 --rhs 1 --resume state.imps --save state.imps
//!
//! # observability: end-of-run counter report + periodic line protocol
//! implicate --lhs 0 --rhs 1 --stats --stats-interval 100000 traffic.csv
//!
//! # structured tracing (JSONL event journal) + online accuracy audit
//! implicate --lhs 0 --rhs 1 --trace-out events.jsonl --audit 100000 traffic.csv
//!
//! # a whole catalog of queries in ONE pass over the stream
//! implicate --query-file queries.txt --stats traffic.csv
//!
//! # the same catalog, queries spread over 4 cores (bit-identical)
//! implicate --query-file queries.txt --threads 4 traffic.csv
//! ```
//!
//! A query file declares one query per line (`#` comments allowed):
//!
//! ```text
//! # name      kind        lhs   rhs   options
//! loyal       one-to-one  0     1     support=1
//! fanout      more-than   0     1     k=10
//! sources     distinct    0     -
//! mostly-one  noisy       0     1     c=1 psi=80 support=2
//! not-single  one-to-one  1     2     complement
//! morning     one-to-one  0     1     where=3=morning
//! ```
//!
//! All queries share a single attribute-wise hashing stage and one
//! global `--memory-budget`; each tuple is hashed once no matter how
//! many queries are registered (see DESIGN.md §8.8).
//!
//! Fields are treated as opaque strings (hashed to 64-bit fingerprints),
//! so the tool works on IPs, URLs or numeric ids alike.

use std::io::BufRead;
use std::process::exit;

use implicate::sketch::estimate::relative_error;
use implicate::spec::{self, parse_columns, EstimatorFlag, EstimatorFlags, QuerySpec};
use implicate::text::{Row, RowReader};
use implicate::{
    AccuracyAuditor, Estimate, EstimateReader, EstimatorConfig, ExactCounter, HashedBatch,
    ImplicationCounter, ImplicationEstimator, MetricsHandle, PairHasher, QueryCatalog, QueryId,
    QueryKind, Schema, ShardedCatalog, ShardedEstimator, TraceHandle, Tuple, TupleHasher,
};

/// Rows per batch handed from the read loop to the sink.
const LINE_BATCH: usize = 2048;

/// Wire format of the periodic `--stats-interval` emission.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StatsFormat {
    /// Influx line protocol: one line, `implicate k=vi ...` (the default).
    Influx,
    /// Prometheus text exposition: `# TYPE` + sample line per counter.
    Prom,
}

/// Renders one periodic stats emission in the selected format.
fn stats_emission(metrics: &MetricsHandle, format: StatsFormat) -> String {
    match format {
        StatsFormat::Influx => metrics.line_protocol("implicate"),
        StatsFormat::Prom => metrics.prometheus("implicate").trim_end().to_owned(),
    }
}

/// Accumulates option values while parsing the command line.
struct CliDraft {
    lhs: Option<Vec<usize>>,
    rhs: Option<Vec<usize>>,
    est: EstimatorFlags,
    complement: bool,
    threads: usize,
    watch: Option<u64>,
    stats: bool,
    stats_interval: Option<u64>,
    stats_format: StatsFormat,
    trace_out: Option<String>,
    trace_buffer: usize,
    audit: Option<u64>,
    audit_sample: u64,
    save: Option<String>,
    resume: Option<String>,
    query_file: Option<String>,
    input: Option<String>,
}

impl Default for CliDraft {
    fn default() -> Self {
        Self {
            lhs: None,
            rhs: None,
            est: EstimatorFlags::default(),
            complement: false,
            threads: 1,
            watch: None,
            stats: false,
            stats_interval: None,
            stats_format: StatsFormat::Influx,
            trace_out: None,
            trace_buffer: implicate::core::trace::DEFAULT_JOURNAL_EVENTS,
            audit: None,
            audit_sample: 1,
            save: None,
            resume: None,
            query_file: None,
            input: None,
        }
    }
}

/// One CLI option: flag name, value placeholder (empty for boolean
/// flags), help text (extra lines indent under the first), and the
/// action applying one occurrence to the draft. The table drives both
/// parsing and the generated usage text, beside [`spec::ESTIMATOR_FLAGS`].
struct Opt {
    name: &'static str,
    metavar: &'static str,
    doc: &'static str,
    set: fn(&mut CliDraft, &str),
}

const OPTIONS: &[Opt] = &[
    Opt {
        name: "--lhs",
        metavar: "COLS",
        doc: "comma-separated 0-based columns forming the counted\nitemset A (e.g. --lhs 0 or --lhs 0,2)",
        set: |d, v| d.lhs = Some(parse_columns(v).unwrap_or_else(|e| die(&e))),
    },
    Opt {
        name: "--rhs",
        metavar: "COLS",
        doc: "columns forming the implied itemset B",
        set: |d, v| d.rhs = Some(parse_columns(v).unwrap_or_else(|e| die(&e))),
    },
    Opt {
        name: "--complement",
        metavar: "",
        doc: "report the non-implication count S̄ instead of S",
        set: |d, _| d.complement = true,
    },
    Opt {
        name: "--threads",
        metavar: "N",
        doc: "ingestion lanes (default 1); N > 1 ingests on N lane\nthreads with results identical to N = 1; with\n--query-file, spreads the catalog's queries over N lanes",
        set: |d, v| d.threads = parse_num(v, "--threads"),
    },
    Opt {
        name: "--watch",
        metavar: "N",
        doc: "print a progress line every N rows",
        set: |d, v| d.watch = Some(parse_num(v, "--watch")),
    },
    Opt {
        name: "--stats",
        metavar: "",
        doc: "print the internal metrics report on stderr at exit\n(counter glossary: DESIGN.md §8.2)",
        set: |d, _| d.stats = true,
    },
    Opt {
        name: "--stats-interval",
        metavar: "N",
        doc: "emit a metrics snapshot on stderr every N rows\n(see --stats-format)",
        set: |d, v| d.stats_interval = Some(parse_num(v, "--stats-interval")),
    },
    Opt {
        name: "--stats-format",
        metavar: "F",
        doc: "influx (line protocol, default) | prom (Prometheus\ntext exposition) for --stats-interval emissions",
        set: |d, v| {
            d.stats_format = match v {
                "influx" => StatsFormat::Influx,
                "prom" => StatsFormat::Prom,
                other => die(&format!("unknown stats format {other:?}")),
            }
        },
    },
    Opt {
        name: "--trace-out",
        metavar: "FILE",
        doc: "drain the trace event journal to FILE as JSONL at exit\n(event schema: DESIGN.md §8.3)",
        set: |d, v| d.trace_out = Some(v.to_owned()),
    },
    Opt {
        name: "--trace-buffer",
        metavar: "N",
        doc: "trace journal capacity in events (default 65536); the\nring keeps the most recent N",
        set: |d, v| d.trace_buffer = parse_num(v, "--trace-buffer"),
    },
    Opt {
        name: "--audit",
        metavar: "N",
        doc: "every N rows, audit the estimate against exact ground\ntruth and report relative error on stderr (needs\n--threads 1; see --audit-sample)",
        set: |d, v| d.audit = Some(parse_num(v, "--audit")),
    },
    Opt {
        name: "--audit-sample",
        metavar: "K",
        doc: "shadow one in K itemsets exactly during --audit\n(default 1 = all; >1 trades memory for sampling noise)",
        set: |d, v| d.audit_sample = parse_num(v, "--audit-sample"),
    },
    Opt {
        name: "--save",
        metavar: "FILE",
        doc: "write a snapshot of the estimator state on exit",
        set: |d, v| d.save = Some(v.to_owned()),
    },
    Opt {
        name: "--resume",
        metavar: "FILE",
        doc: "restore estimator state from a snapshot before reading",
        set: |d, v| d.resume = Some(v.to_owned()),
    },
    Opt {
        name: "--query-file",
        metavar: "FILE",
        doc: "evaluate a catalog of queries (one per line) in a single\npass; replaces --lhs/--rhs, shares one hashing stage and\none --memory-budget across all queries (header comment\nin src/main.rs documents the line grammar)",
        set: |d, v| d.query_file = Some(v.to_owned()),
    },
];

/// The usage text, generated from [`OPTIONS`] and
/// [`spec::ESTIMATOR_FLAGS`].
fn usage() -> String {
    let entries = OPTIONS.iter().map(|o| (o.name, o.metavar, o.doc)).chain([(
        "FILE",
        "",
        "input path (default: stdin)",
    )]);
    format!(
        "implicate — streaming implication-count statistics (NIPS/CI, ICDE 2005)\n\n\
         usage: implicate --lhs COLS --rhs COLS [options] [FILE]\n\n{}\n\
         estimator options (shared with implicate-serve):\n{}",
        spec::usage_lines(entries),
        spec::estimator_usage().trim_end(),
    )
}

/// Parsed and validated command line. In catalog mode (`--query-file`),
/// `lhs`/`rhs` are empty and `queries` holds the parsed catalog.
struct Cli {
    lhs: Vec<usize>,
    rhs: Vec<usize>,
    queries: Vec<QuerySpec>,
    config: EstimatorConfig,
    complement: bool,
    delimiter: Option<char>,
    threads: usize,
    watch: Option<u64>,
    stats: bool,
    stats_interval: Option<u64>,
    stats_format: StatsFormat,
    trace_out: Option<String>,
    trace_buffer: usize,
    audit: Option<u64>,
    audit_sample: u64,
    save: Option<String>,
    resume: Option<String>,
    input: Option<String>,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    exit(2)
}

fn parse_num<T: std::str::FromStr>(raw: &str, key: &str) -> T {
    raw.parse().unwrap_or_else(|_| die(&format!("bad {key}")))
}

fn parse_cli() -> Cli {
    let mut draft = CliDraft::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                exit(0);
            }
            name if name.starts_with("--") => {
                let mut value = || {
                    args.next()
                        .unwrap_or_else(|| die(&format!("{name} needs a value")))
                };
                if let Some(flag) = EstimatorFlag::find(name) {
                    flag.set(&mut draft.est, &value())
                        .unwrap_or_else(|e| die(&e));
                    continue;
                }
                let opt = OPTIONS
                    .iter()
                    .find(|o| o.name == name)
                    .unwrap_or_else(|| die(&format!("unknown option {name}")));
                let value = if opt.metavar.is_empty() {
                    String::new()
                } else {
                    value()
                };
                (opt.set)(&mut draft, &value);
            }
            path => {
                if draft.input.replace(path.to_owned()).is_some() {
                    die("more than one input file");
                }
            }
        }
    }
    draft.finish()
}

impl CliDraft {
    /// Validates the draft and assembles the estimator configuration.
    fn finish(self) -> Cli {
        let (lhs, rhs, queries) = if let Some(path) = &self.query_file {
            if self.lhs.is_some() || self.rhs.is_some() {
                die("--query-file replaces --lhs/--rhs");
            }
            if self.save.is_some() || self.resume.is_some() {
                die("--save/--resume are not supported with --query-file");
            }
            if self.complement {
                die("--complement is per-query in a query file (use the `complement` option)");
            }
            (Vec::new(), Vec::new(), parse_query_file(path))
        } else {
            let lhs = self.lhs.unwrap_or_else(|| die("--lhs is required"));
            let rhs = self.rhs.unwrap_or_else(|| die("--rhs is required"));
            (lhs, rhs, Vec::new())
        };
        if self.threads == 0 {
            die("--threads must be at least 1");
        }
        if self.stats_interval == Some(0) {
            die("--stats-interval must be at least 1");
        }
        if self.trace_buffer == 0 {
            die("--trace-buffer must be at least 1");
        }
        if self.audit == Some(0) {
            die("--audit must be at least 1");
        }
        if self.audit_sample == 0 {
            die("--audit-sample must be at least 1");
        }
        if self.audit.is_some() && self.threads > 1 {
            // The audit compares an exact prefix count against the live
            // estimate at an exact row boundary; sharded ingestion would
            // need a pipeline barrier per audit to make that meaningful.
            die("--audit requires --threads 1");
        }
        Cli {
            lhs,
            rhs,
            queries,
            config: self.est.build().unwrap_or_else(|e| die(&e)),
            complement: self.complement,
            delimiter: self.est.delimiter,
            threads: self.threads,
            watch: self.watch,
            stats: self.stats,
            stats_interval: self.stats_interval,
            stats_format: self.stats_format,
            trace_out: self.trace_out,
            trace_buffer: self.trace_buffer,
            audit: self.audit,
            audit_sample: self.audit_sample,
            save: self.save,
            resume: self.resume,
            input: self.input,
        }
    }
}

impl Cli {
    /// The single-query answer: S, or S̄ under `--complement`.
    fn answer(&self, e: &Estimate) -> f64 {
        if self.complement {
            e.non_implication_count
        } else {
            e.implication_count
        }
    }
}

/// Reads and parses a `--query-file` (line grammar: `implicate::spec`).
fn parse_query_file(path: &str) -> Vec<QuerySpec> {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    implicate::spec::parse_query_file(&body).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

fn open_input(cli: &Cli) -> Box<dyn BufRead> {
    match &cli.input {
        Some(path) => {
            let file = std::fs::File::open(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            Box::new(std::io::BufReader::new(file))
        }
        None => Box::new(std::io::stdin().lock()),
    }
}

/// Whether row `rows` is a multiple of the cadence `n`, if one is set.
fn at(n: Option<u64>, rows: u64) -> bool {
    n.is_some_and(|n| rows.is_multiple_of(n))
}

/// Where the read loop's batches go: a single estimator or a query
/// catalog, each inline or spread over `--threads` lanes.
trait Sink {
    /// Ingests one batch of rows, each the field words of the column
    /// list the loop reads with.
    fn ingest(&mut self, words: &[u64]);
    /// Runs the `--audit`, `--stats-interval` and `--watch` hooks due
    /// at `rows`; the loop ends a batch at every multiple of each.
    fn hooks(&mut self, rows: u64);
    /// Prints the answers and the end-of-run reports.
    fn finish(self, rows: u64, skipped: u64);
}

/// The read loop of every mode: fills up to [`LINE_BATCH`] rows of the
/// `cols` field words, ends the batch early at every multiple of a hook
/// cadence, and hands it to `sink`.
fn drive(cli: &Cli, cols: &[usize], mut sink: impl Sink) {
    let mut input = open_input(cli);
    let mut reader = RowReader::new(cols, cli.delimiter);
    let cadences: Vec<u64> = [cli.audit, cli.stats_interval, cli.watch]
        .into_iter()
        .flatten()
        .collect();
    let mut words = Vec::with_capacity(LINE_BATCH * cols.len());
    let (mut rows, mut skipped) = (0u64, 0u64);
    let mut more = true;
    while more {
        let room = cadences
            .iter()
            .map(|n| n - rows % n)
            .fold(LINE_BATCH as u64, u64::min);
        let mut filled = 0;
        words.clear();
        while filled < room {
            match reader.read_row(&mut input, &mut words) {
                Ok(Row::Fields) => filled += 1,
                Ok(Row::Short) => skipped += 1,
                Ok(Row::End) => {
                    more = false;
                    break;
                }
                Err(e) => die(&format!("read error: {e}")),
            }
        }
        if filled > 0 {
            sink.ingest(&words);
            rows += filled;
            sink.hooks(rows);
        }
    }
    sink.finish(rows, skipped);
}

/// The single-query engine: inline (`--threads 1`) or sharded lanes.
enum Estimator {
    Inline(ImplicationEstimator),
    Lanes(Box<ShardedEstimator>, Option<EstimateReader>),
}

/// Single-query sink. Each row's words are the `--lhs` then the `--rhs`
/// columns; the row becomes the estimator's own `hash_pair`, and the
/// batch one `update_hashed_batch`.
struct PairSink<'a> {
    cli: &'a Cli,
    engine: Estimator,
    hasher: PairHasher,
    width: usize,
    split: usize,
    pairs: Vec<(u64, u64)>,
    auditor: Option<AccuracyAuditor>,
}

impl<'a> PairSink<'a> {
    fn new(cli: &'a Cli) -> Self {
        let mut est = match &cli.resume {
            Some(path) => spec::restore_snapshot(&cli.config, path).unwrap_or_else(|e| die(&e)),
            None => cli.config.build(),
        };
        if cli.trace_out.is_some() {
            est.set_trace(TraceHandle::with_capacity(cli.trace_buffer));
        }
        let auditor = cli.audit.map(|cadence| {
            let mut auditor =
                AccuracyAuditor::new(*cli.config.conditions_ref(), cadence, cli.audit_sample);
            auditor.set_trace(est.trace().clone());
            auditor
        });
        let hasher = est.pair_hasher();
        let engine = if cli.threads > 1 {
            let mut sharded = ShardedEstimator::new(est, cli.threads);
            let viewer =
                (cli.watch.is_some() || cli.stats_interval.is_some()).then(|| sharded.reader());
            Estimator::Lanes(Box::new(sharded), viewer)
        } else {
            Estimator::Inline(est)
        };
        Self {
            cli,
            engine,
            hasher,
            width: cli.lhs.len() + cli.rhs.len(),
            split: cli.lhs.len(),
            pairs: Vec::with_capacity(LINE_BATCH),
            auditor,
        }
    }
}

impl Sink for PairSink<'_> {
    fn ingest(&mut self, words: &[u64]) {
        self.pairs.clear();
        for row in words.chunks_exact(self.width) {
            let (a, b) = row.split_at(self.split);
            self.pairs.push(self.hasher.hash_pair(a, b));
            if let Some(aud) = &mut self.auditor {
                aud.observe(a, b);
            }
        }
        match &mut self.engine {
            Estimator::Inline(est) => est.update_hashed_batch(&self.pairs),
            Estimator::Lanes(sharded, _) => sharded.update_hashed_batch(&self.pairs),
        }
    }

    fn hooks(&mut self, rows: u64) {
        let cli = self.cli;
        match &mut self.engine {
            Estimator::Inline(est) => {
                if let Some(aud) = self.auditor.as_mut().filter(|a| a.due()) {
                    let s = aud.audit(est.estimate_now().implication_count);
                    eprintln!(
                        "audit {} rows: exact ≈ {:.0}, estimate {:.0}, rel error {:.4}",
                        s.position, s.exact, s.estimated, s.rel_error
                    );
                }
                if at(cli.stats_interval, rows) {
                    eprintln!("{}", stats_emission(est.metrics(), cli.stats_format));
                }
                if at(cli.watch, rows) {
                    let e = est.estimate_now();
                    eprintln!(
                        "{rows} rows: answer ≈ {:.0} (S {:.0}, S̄ {:.0}, F0^sup {:.0})",
                        cli.answer(&e),
                        e.implication_count,
                        e.non_implication_count,
                        e.f0_sup
                    );
                }
            }
            Estimator::Lanes(sharded, viewer) => {
                if at(cli.stats_interval, rows) {
                    // Publish a fresh view instead of barriering: the
                    // lanes keep ingesting, and the emission carries the
                    // view.* gauges (epoch, published tuples, age) that
                    // say how far the published prefix trails the stream.
                    sharded.publish();
                    eprintln!("{}", stats_emission(sharded.metrics(), cli.stats_format));
                }
                if at(cli.watch, rows) {
                    sharded.publish();
                    let viewer = viewer.as_ref().expect("reader created for --watch");
                    let e = viewer.estimate();
                    eprintln!(
                        "{rows} rows routed, {} applied: S ≈ {:.0}, S̄ ≈ {:.0}, F0^sup ≈ {:.0}",
                        viewer.tuples(),
                        e.implication_count,
                        e.non_implication_count,
                        e.f0_sup
                    );
                }
            }
        }
    }

    fn finish(self, rows: u64, skipped: u64) {
        let cli = self.cli;
        let est = match self.engine {
            Estimator::Inline(est) => est,
            Estimator::Lanes(sharded, _) => sharded.finish(),
        };
        if let Some(aud) = &self.auditor {
            match aud.final_error() {
                Some(err) => eprintln!(
                    "audit: {} samples over {} rows, {} shadowed itemsets, final rel error {err:.4}",
                    aud.samples().len(),
                    aud.rows_seen(),
                    aud.shadowed_keys(),
                ),
                None => eprintln!(
                    "audit: no samples ({} rows < cadence {})",
                    aud.rows_seen(),
                    aud.cadence()
                ),
            }
        }
        let e = est.estimate_now();
        println!("{:.0}", cli.answer(&e));
        eprintln!(
            "rows {rows} (skipped {skipped}) | conditions {} | S ≈ {:.0}, S̄ ≈ {:.0}, \
             F0^sup ≈ {:.0} | {} tracking entries",
            est.conditions(),
            e.implication_count,
            e.non_implication_count,
            e.f0_sup,
            est.entries()
        );
        if let Some(path) = &cli.save {
            let bytes = est.to_bytes();
            std::fs::write(path, &bytes).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            eprintln!("snapshot: wrote {} bytes to {path}", bytes.len());
        }
        // After --save, so the journal includes the snapshot-encode span
        // and the report the encode counters.
        if let Some(path) = &cli.trace_out {
            write_trace(path, est.trace());
        }
        if cli.stats {
            eprintln!("{}", est.metrics().report().trim_end());
        }
    }
}

/// Exact reference counters for one query during `--audit`.
struct CatalogAudit {
    exact: ExactCounter,
    buf_a: Vec<u64>,
    buf_b: Vec<u64>,
}

impl CatalogAudit {
    fn observe(&mut self, q: &QuerySpec, t: &Tuple) {
        if !q.query.filter.is_empty() && !q.query.filter.matches(t) {
            return;
        }
        self.buf_a.clear();
        self.buf_b.clear();
        self.buf_a.extend(q.lhs_cols.iter().map(|&c| t.get(c)));
        self.buf_b.extend(q.rhs_cols.iter().map(|&c| t.get(c)));
        self.exact.update(&self.buf_a, &self.buf_b);
    }

    fn answer(&self, kind: QueryKind) -> f64 {
        match kind {
            QueryKind::DistinctCount => self.exact.exact_f0_sup() as f64,
            QueryKind::Implication => self.exact.exact_implication_count() as f64,
            QueryKind::Complement => self.exact.exact_non_implication_count() as f64,
        }
    }
}

/// The catalog engine: inline (`--threads 1`) or its queries spread
/// over lanes, with one published-view reader per query.
enum Catalog {
    Inline(QueryCatalog),
    Lanes(ShardedCatalog, Vec<EstimateReader>),
}

/// Catalog sink (`--query-file`). Every row is hashed whole (column `i`
/// becomes tuple attribute `i`) into one [`HashedBatch`] per batch, and
/// every registered query answers from it; `--watch`, `--stats`,
/// `--stats-interval`, `--audit` and `--trace-out` operate per query.
struct CatalogSink<'a> {
    cli: &'a Cli,
    engine: Catalog,
    ids: Vec<QueryId>,
    hasher: TupleHasher,
    hashed: HashedBatch,
    arity: usize,
    audits: Vec<CatalogAudit>,
}

impl<'a> CatalogSink<'a> {
    fn new(cli: &'a Cli) -> Self {
        let arity = 1 + cli
            .queries
            .iter()
            .map(|q| q.max_column())
            .max()
            .expect("parse_query_file rejects empty catalogs");
        let schema = Schema::new((0..arity).map(|i| (format!("c{i}"), 0)));
        let mut catalog = QueryCatalog::new(&schema, cli.config);
        if cli.trace_out.is_some() {
            catalog.set_trace(TraceHandle::with_capacity(cli.trace_buffer));
        }
        for q in &cli.queries {
            if let Err(e) = catalog.try_register(q.name.clone(), q.query.clone()) {
                die(&format!("query {:?}: {e}", q.name));
            }
        }
        let ids: Vec<_> = cli
            .queries
            .iter()
            .map(|q| catalog.find(&q.name).expect("just registered"))
            .collect();
        let audits = match cli.audit {
            Some(_) => cli
                .queries
                .iter()
                .map(|q| CatalogAudit {
                    exact: ExactCounter::new(q.query.conditions),
                    buf_a: Vec::new(),
                    buf_b: Vec::new(),
                })
                .collect(),
            None => Vec::new(),
        };
        let hasher = catalog.hasher().clone();
        let (engine, hashed) = if cli.threads > 1 {
            let mut sharded = ShardedCatalog::new(catalog, cli.threads);
            let viewers = ids
                .iter()
                .map(|id| sharded.reader(*id).expect("live query"))
                .collect();
            let hashed = sharded.checkout();
            (Catalog::Lanes(sharded, viewers), hashed)
        } else {
            (Catalog::Inline(catalog), HashedBatch::new())
        };
        Self {
            cli,
            engine,
            ids,
            hasher,
            hashed,
            arity,
            audits,
        }
    }
}

impl Sink for CatalogSink<'_> {
    fn ingest(&mut self, words: &[u64]) {
        let mut tuples = self.hashed.recycle();
        tuples.extend(words.chunks_exact(self.arity).map(Tuple::new));
        for t in &tuples {
            for (q, audit) in self.cli.queries.iter().zip(&mut self.audits) {
                audit.observe(q, t);
            }
        }
        self.hasher.hash_batch(tuples, &mut self.hashed);
        match &mut self.engine {
            Catalog::Inline(catalog) => catalog.process_hashed(&self.hashed),
            Catalog::Lanes(sharded, _) => {
                self.hashed = sharded.process_hashed(std::mem::take(&mut self.hashed));
            }
        }
    }

    fn hooks(&mut self, rows: u64) {
        let cli = self.cli;
        match &mut self.engine {
            Catalog::Inline(catalog) => {
                let queries = cli.queries.iter().zip(&self.ids);
                if at(cli.audit, rows) {
                    for ((q, id), audit) in queries.clone().zip(&self.audits) {
                        let exact = audit.answer(q.query.kind);
                        let est = catalog.answer(*id).expect("live query");
                        let rel = relative_error(exact, est);
                        eprintln!(
                            "audit {rows} rows [{}]: exact ≈ {exact:.0}, estimate {est:.0}, \
                             rel error {rel:.4}",
                            q.name
                        );
                    }
                }
                if at(cli.stats_interval, rows) {
                    let mut text = String::new();
                    catalog.prometheus_into("implicate", &mut text);
                    eprintln!("{}", text.trim_end());
                }
                if at(cli.watch, rows) {
                    for (q, id) in queries {
                        eprintln!(
                            "{rows} rows [{}]: answer ≈ {:.0} ({} matched)",
                            q.name,
                            catalog.answer(*id).expect("live query"),
                            catalog.matched(*id).expect("live query"),
                        );
                    }
                }
            }
            Catalog::Lanes(sharded, viewers) => {
                if !at(cli.stats_interval, rows) && !at(cli.watch, rows) {
                    return;
                }
                // Publish, then barrier: the lanes publish at their
                // message boundary, and the barrier settles the views at
                // exactly this row — the sequential run's numbers.
                sharded.publish();
                sharded.barrier();
                let queries = cli.queries.iter().zip(viewers.iter());
                if at(cli.stats_interval, rows) {
                    for (q, viewer) in queries.clone() {
                        eprintln!(
                            "implicate_query_tuples{{query=\"{}\"}} {}",
                            q.name,
                            viewer.tuples()
                        );
                        eprintln!(
                            "implicate_query_answer{{query=\"{}\"}} {}",
                            q.name,
                            q.query.answer_from(&viewer.estimate())
                        );
                    }
                }
                if at(cli.watch, rows) {
                    for (q, viewer) in queries {
                        eprintln!(
                            "{rows} rows [{}]: answer ≈ {:.0} ({} matched)",
                            q.name,
                            q.query.answer_from(&viewer.estimate()),
                            viewer.tuples(),
                        );
                    }
                }
            }
        }
    }

    fn finish(self, rows: u64, skipped: u64) {
        let cli = self.cli;
        let (catalog, lanes) = match self.engine {
            Catalog::Inline(catalog) => (catalog, String::new()),
            Catalog::Lanes(sharded, _) => {
                (sharded.finish(), format!(" over {} lanes", cli.threads))
            }
        };
        for (q, id) in cli.queries.iter().zip(&self.ids) {
            println!(
                "{}\t{:.0}",
                q.name,
                catalog.answer(*id).expect("live query")
            );
        }
        eprintln!(
            "rows {rows} (skipped {skipped}) | {} queries{lanes}, one pass | \
             {} tracked bytes on one budget",
            catalog.len(),
            catalog.tracked_bytes()
        );
        if let Some(path) = &cli.trace_out {
            write_trace(path, catalog.trace());
        }
        if cli.stats {
            let mut text = String::new();
            catalog.prometheus_into("implicate", &mut text);
            eprintln!("{}", text.trim_end());
        }
    }
}

/// Writes the trace journal as JSONL. With the `trace` feature compiled
/// out the file still appears, holding only the `journal_summary` line
/// with `"enabled":false` — scripts can rely on the file existing.
fn write_trace(path: &str, trace: &TraceHandle) {
    let body = match trace.journal() {
        Some(journal) => journal.to_jsonl(),
        None => format!(
            "{{\"event\":\"journal_summary\",\"enabled\":{},\"recorded\":0,\
             \"retained\":0,\"dropped\":0,\"capacity\":0}}\n",
            TraceHandle::enabled()
        ),
    };
    std::fs::write(path, &body).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let events = body.lines().count().saturating_sub(1);
    eprintln!("trace: wrote {events} events to {path}");
}

fn main() {
    let cli = parse_cli();
    if cli.queries.is_empty() {
        let cols = [cli.lhs.as_slice(), cli.rhs.as_slice()].concat();
        drive(&cli, &cols, PairSink::new(&cli));
    } else {
        let sink = CatalogSink::new(&cli);
        let cols: Vec<usize> = (0..sink.arity).collect();
        drive(&cli, &cols, sink);
    }
}
