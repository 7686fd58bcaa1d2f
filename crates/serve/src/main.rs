//! `implicate-serve` — a long-running implication-statistics service.
//!
//! One process owns the estimator writer and keeps ingesting while any
//! number of query connections read **wait-free** from epoch-published
//! views (see `imp_core::view`): a query never blocks ingestion and
//! ingestion never blocks a query.
//!
//! ```text
//! implicate-serve --lhs 0 --rhs 1 --publish-every 4096 \
//!     --ingest 127.0.0.1:7071 --query 127.0.0.1:7072 \
//!     --checkpoint state.imps --checkpoint-every 1000000
//! ```
//!
//! * **Ingestion** is a TCP line protocol on `--ingest`: each line is a
//!   delimited row, projected and hashed exactly like the `implicate`
//!   CLI (same field hasher, same seed semantics), so a served stream
//!   and a batch run produce bit-identical estimates.
//! * **Queries** are HTTP/1.0 on `--query`:
//!   `GET /estimate` (JSON, includes raw f64 bit patterns for exact
//!   comparison), `GET /status` (role, uptime, and the fleet/edge
//!   observability block — see DESIGN.md §8.7), `GET /metrics`
//!   (Prometheus exposition with `# HELP`/`# TYPE` metadata, plus
//!   per-node fleet series on an aggregator and `edge_*` series on an
//!   edge), `GET /snapshot` (VERSION 2 codec bytes of the writer's
//!   current state, encoded on request: every row applied before it on a
//!   standalone or edge server, the merged state on an aggregator; `503`
//!   under `--threads N > 1`, `404` in the catalog role), `GET /healthz`,
//!   and `POST /shutdown` (graceful: drain, final publish, checkpoint,
//!   exit).
//! * **Checkpoints** go to `--checkpoint` at graceful shutdown and, with
//!   `--checkpoint-every N`, at any publish (by row count or when idle)
//!   once `tuples_seen` is N past the last checkpoint. Restart with the
//!   same file resumes from the snapshot — estimates continue
//!   bit-identically from where the previous process stopped — after
//!   `EstimatorConfig::restore` checks that the snapshot was built with
//!   the same conditions, `--bitmaps`, `--fringe` and `--seed`.
//!
//! The binary is pure `std`: no async runtime, one lightweight thread
//! per connection, and one writer thread. Every role's writer runs the
//! same `writer_loop` over its own `Writer` (text rows, catalog, or
//! aggregator), fed by the role's single ingest channel: the loop owns
//! the receive, the stop check, the shutdown drain and the done flag.
//! The estimator flags (`--max-mult` … `--seed`, `--delimiter`) come
//! from the table in `implicate::spec` that the `implicate` CLI uses
//! too.
//!
//! # Distributed operation
//!
//! The same binary also runs the two halves of an edge→aggregator
//! topology (see `WIRE.md` for the frame format and `README.md` for the
//! protocol):
//!
//! * `--upstream ADDR --node-id N` turns the service into an **edge**:
//!   it keeps serving local queries, and additionally ships its sketch
//!   state upstream as VERSION 3 wire frames — a full snapshot on each
//!   (re)connect, compact deltas afterwards (`--ship-every` rows apart).
//!   Lost connections reconnect with capped exponential backoff, and
//!   always restart from a full snapshot so a lost delta can never
//!   corrupt the aggregate.
//! * `--aggregate` turns the ingest listener into an **aggregator**: it
//!   speaks the wire protocol instead of the line protocol, holds one
//!   decoded replica per edge, and re-publishes the merged estimate
//!   after every applied frame. For bitmap-disjoint edge partitions the
//!   merged estimate is bit-for-bit identical to a single-node run over
//!   the union stream.
//!
//! # Fleet observability
//!
//! An aggregator tracks every edge in a per-node registry (last-frame
//! age, applied epoch, frame/byte/error counters) and derives a health
//! state per node — `live`, `lagging`, `stale` (thresholds from
//! `--stale-after`), or `poisoned` after a rejected frame. The registry
//! is served as JSON on `GET /status` and as labeled Prometheus series
//! on `GET /metrics`; edges symmetrically report upstream connectivity,
//! backoff, ship latency, and unshipped backlog. With `--flight-dir`,
//! any decode error or panic drains the in-memory trace ring to a
//! bounded JSONL flight recording for post-mortem analysis.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use implicate::core::fleet::{NodeRegistry, DEFAULT_STALE_AFTER_MS};
use implicate::core::wire::{
    peek_frame, WireDecoder, WireSnapshot, DEFAULT_MAX_FRAME_BYTES, REJECT_NODE_ID_SWITCH,
};
use implicate::spec::{self, EstimatorFlag, EstimatorFlags, QuerySpec};
use implicate::text::{Row, RowReader};
use implicate::{
    EstimateReader, EstimatorConfig, HashedBatch, ImplicationEstimator, ImplicationQuery,
    MetricsHandle, QueryCatalog, QueryId, Schema, ShardedEstimator, TraceEvent, TraceHandle, Tuple,
    TupleHasher,
};

mod flight;
mod status;

/// Rows buffered per ingest connection before a batch ships to the
/// writer.
const INGEST_BATCH: usize = 256;

/// Bound, in batches, of the ingest-to-writer channel (back-pressure).
const INGEST_DEPTH: usize = 64;

/// How long blocking loops sleep between checks of the stop flag.
const POLL: Duration = Duration::from_millis(50);

/// First reconnect delay of an edge's upstream sender; doubles per
/// failed attempt up to [`BACKOFF_CAP`].
const BACKOFF_START: Duration = Duration::from_millis(100);

/// Ceiling of the edge sender's exponential reconnect backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Longest request header `query_connection` reads, in bytes.
const MAX_HEADER: usize = 8192;

/// Largest request body `query_connection` accepts, in bytes.
const MAX_BODY: usize = 65_536;

fn die(msg: &str) -> ! {
    eprintln!("implicate-serve: {msg}");
    exit(2);
}

/// Parsed command line.
struct Opts {
    lhs: Vec<usize>,
    rhs: Vec<usize>,
    delimiter: Option<char>,
    config: EstimatorConfig,
    threads: usize,
    publish_every: u64,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    ingest_addr: String,
    query_addr: String,
    aggregate: bool,
    upstream: Option<String>,
    node_id: u64,
    ship_every: u64,
    keepalive_ms: u64,
    stale_after_ms: u64,
    flight_dir: Option<String>,
    flight_keep: usize,
    catalog: bool,
    arity: usize,
    query_file: Option<String>,
}

const USAGE: &str = "\
implicate-serve — long-running implication-statistics service

usage: implicate-serve [options]

  --lhs COLS            columns forming the counted itemset A (default 0)
  --rhs COLS            columns forming the implied itemset B (default 1)
  --threads N           ingestion shards (default 1)
  --publish-every N     rows between view publications (default 4096)
  --checkpoint FILE     snapshot file: restored at startup if present,
                        written on graceful shutdown
  --checkpoint-every N  also checkpoint at a publish (by row count or
                        when idle) once N rows arrived since the last
                        checkpoint (requires --threads 1)
  --ingest ADDR         ingestion TCP address (default 127.0.0.1:0)
  --query ADDR          query HTTP address (default 127.0.0.1:0)
";

const USAGE_ROLES: &str = "\
distributed roles (see WIRE.md):
  --aggregate           ingest wire frames from edges instead of text
                        rows, serve the merged estimate
                        (requires --threads 1)
  --upstream ADDR       edge role: ship wire snapshots to an aggregator
                        (requires --node-id and --threads 1)
  --node-id N           stable identity of this edge at the aggregator
  --ship-every N        rows between upstream shipments
                        (default: --publish-every)
  --keepalive-ms MS     edge: when idle, still ship an (empty) delta
                        every MS milliseconds so the aggregator keeps
                        seeing the node as live (default 1000; 0 = off)

observability (see DESIGN.md §8.7):
  --stale-after MS      aggregator: a node with no applied frame for MS
                        milliseconds is `stale` (`lagging` from MS/2;
                        default 10000)
  --flight-dir DIR      on decode error, poison, or panic, drain the
                        trace ring to a JSONL flight recording in DIR
  --flight-keep N       keep at most N flight recordings (default 8)

catalog role (see DESIGN.md §8.8):
  --catalog             own a QueryCatalog instead of a single estimator:
                        rows ingest once, every registered query answers
                        from the same pass; queries are managed at
                        runtime over HTTP (POST /query, DELETE
                        /query/{id}, GET /estimate?query=ID)
                        (requires --threads 1)
  --arity N             columns per ingested row in catalog mode
                        (default 8, max 64)
  --query-file FILE     preload the catalog from a query spec file
                        (same line grammar as the implicate CLI)
";

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| die(&format!("{flag}: bad value {v:?}")))
}

fn parse_opts() -> Opts {
    let mut lhs = vec![0usize];
    let mut rhs = vec![1usize];
    let mut est = EstimatorFlags::default();
    let mut threads = 1usize;
    let mut publish_every = 4096u64;
    let mut checkpoint = None;
    let mut checkpoint_every = None;
    let mut ingest_addr = "127.0.0.1:0".to_string();
    let mut query_addr = "127.0.0.1:0".to_string();
    let mut aggregate = false;
    let mut upstream: Option<String> = None;
    let mut node_id: Option<u64> = None;
    let mut ship_every: Option<u64> = None;
    let mut keepalive_ms: Option<u64> = None;
    let mut stale_after_ms: Option<u64> = None;
    let mut flight_dir: Option<String> = None;
    let mut flight_keep: Option<usize> = None;
    let mut catalog = false;
    let mut arity: Option<usize> = None;
    let mut query_file: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            print!(
                "{USAGE}\nestimator options (shared with implicate):\n{}\n{USAGE_ROLES}",
                spec::estimator_usage()
            );
            exit(0);
        }
        let mut val = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
                .as_str()
        };
        match flag.as_str() {
            "--lhs" => lhs = spec::parse_columns(val()).unwrap_or_else(|e| die(&e)),
            "--rhs" => rhs = spec::parse_columns(val()).unwrap_or_else(|e| die(&e)),
            "--threads" => threads = parse_num(val(), "--threads"),
            "--publish-every" => publish_every = parse_num(val(), "--publish-every"),
            "--checkpoint" => checkpoint = Some(val().to_string()),
            "--checkpoint-every" => checkpoint_every = Some(parse_num(val(), "--checkpoint-every")),
            "--ingest" => ingest_addr = val().to_string(),
            "--query" => query_addr = val().to_string(),
            "--aggregate" => aggregate = true,
            "--upstream" => upstream = Some(val().to_string()),
            "--node-id" => node_id = Some(parse_num(val(), "--node-id")),
            "--ship-every" => ship_every = Some(parse_num(val(), "--ship-every")),
            "--keepalive-ms" => keepalive_ms = Some(parse_num(val(), "--keepalive-ms")),
            "--stale-after" => stale_after_ms = Some(parse_num(val(), "--stale-after")),
            "--flight-dir" => flight_dir = Some(val().to_string()),
            "--flight-keep" => flight_keep = Some(parse_num(val(), "--flight-keep")),
            "--catalog" => catalog = true,
            "--arity" => arity = Some(parse_num(val(), "--arity")),
            "--query-file" => query_file = Some(val().to_string()),
            other => {
                let flag = EstimatorFlag::find(other)
                    .unwrap_or_else(|| die(&format!("unknown option {other:?} (try --help)")));
                flag.set(&mut est, val()).unwrap_or_else(|e| die(&e));
            }
        }
    }

    if threads == 0 {
        die("--threads must be at least 1");
    }
    if publish_every == 0 {
        die("--publish-every must be at least 1");
    }
    if checkpoint_every.is_some() && threads > 1 {
        // Mid-run snapshots need a quiesced pipeline; under sharding the
        // service checkpoints once, at graceful shutdown.
        die("--checkpoint-every requires --threads 1 (sharded runs checkpoint at shutdown)");
    }
    if checkpoint_every.is_some() && checkpoint.is_none() {
        die("--checkpoint-every needs --checkpoint FILE");
    }
    if aggregate && upstream.is_some() {
        die("--aggregate and --upstream are mutually exclusive roles");
    }
    if aggregate && threads > 1 {
        die("--aggregate requires --threads 1 (the aggregator merges, it does not shard)");
    }
    if upstream.is_some() && threads > 1 {
        die("--upstream requires --threads 1 (delta capture needs the sequential writer)");
    }
    if upstream.is_some() && node_id.is_none() {
        die("--upstream needs --node-id N");
    }
    if node_id.is_some() && upstream.is_none() {
        die("--node-id only makes sense with --upstream");
    }
    if ship_every == Some(0) {
        die("--ship-every must be at least 1");
    }
    if ship_every.is_some() && upstream.is_none() {
        die("--ship-every only makes sense with --upstream");
    }
    if stale_after_ms.is_some() && !aggregate {
        die("--stale-after only makes sense with --aggregate");
    }
    if stale_after_ms == Some(0) {
        die("--stale-after must be at least 1 millisecond");
    }
    if flight_keep.is_some() && flight_dir.is_none() {
        die("--flight-keep needs --flight-dir DIR");
    }
    if flight_keep == Some(0) {
        die("--flight-keep must be at least 1");
    }
    if keepalive_ms.is_some() && upstream.is_none() {
        die("--keepalive-ms only makes sense with --upstream");
    }
    if catalog {
        if aggregate || upstream.is_some() {
            die("--catalog is its own role (no --aggregate / --upstream)");
        }
        if threads > 1 {
            die("--catalog requires --threads 1 (the catalog is one single-pass engine)");
        }
        if checkpoint.is_some() || checkpoint_every.is_some() {
            die("--checkpoint is not supported in catalog mode");
        }
    }
    if !catalog && (arity.is_some() || query_file.is_some()) {
        die("--arity / --query-file only make sense with --catalog");
    }
    let arity = arity.unwrap_or(8);
    if catalog && !(1..=64).contains(&arity) {
        die("--arity must be in 1..=64");
    }

    Opts {
        lhs,
        rhs,
        delimiter: est.delimiter,
        config: est.build().unwrap_or_else(|e| die(&e)),
        threads,
        publish_every,
        checkpoint,
        checkpoint_every,
        ingest_addr,
        query_addr,
        aggregate,
        upstream,
        node_id: node_id.unwrap_or(0),
        ship_every: ship_every.unwrap_or(publish_every),
        keepalive_ms: keepalive_ms.unwrap_or(1000),
        stale_after_ms: stale_after_ms.unwrap_or(DEFAULT_STALE_AFTER_MS),
        flight_dir,
        flight_keep: flight_keep.unwrap_or(8),
        catalog,
        arity,
        query_file,
    }
}

/// Shared state the connection handlers read.
struct Shared {
    stop: AtomicBool,
    /// Set by the writer after its final drain (and, for an edge, after
    /// the final wire snapshot is in the ship slot) — the upstream
    /// sender must not exit on `stop` alone or it could miss the final
    /// state.
    writer_done: AtomicBool,
    /// Rows accepted off ingest sockets (routed; the published view may
    /// trail this by the in-flight backlog).
    accepted: AtomicU64,
    /// Rows dropped because a projection column was missing.
    skipped: AtomicU64,
    metrics: MetricsHandle,
    /// Trace ring shared with the estimator and the wire codec — sized
    /// when the flight recorder is armed, disabled otherwise.
    trace: TraceHandle,
    /// Aggregator role: the per-node health/staleness registry behind
    /// `GET /status` and the labeled `/metrics` series.
    fleet: Option<Arc<NodeRegistry>>,
    /// Edge role: upstream-connectivity status behind `GET /status`.
    edge: Option<Arc<status::EdgeStatus>>,
    /// Crash/decode-error flight recorder (`--flight-dir`).
    flight: Option<Arc<flight::FlightRecorder>>,
    /// Process start — the monotonic base for every staleness age.
    started: std::time::Instant,
    /// Role name reported by `/status`.
    role: &'static str,
}

impl Shared {
    /// Milliseconds since process start (the injected clock of the
    /// fleet registry and edge status).
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// The writer side: one thread owning either the sequential estimator or
/// the sharded pipeline.
// One Pipeline exists per process, so the size spread between variants
// is irrelevant — boxing would only add a pointer chase per batch.
#[allow(clippy::large_enum_variant)]
enum Pipeline {
    Sequential(ImplicationEstimator),
    Sharded(ShardedEstimator),
}

impl Pipeline {
    fn apply(&mut self, batch: &[(u64, u64)]) {
        match self {
            Pipeline::Sequential(est) => est.update_hashed_batch(batch),
            Pipeline::Sharded(sharded) => sharded.update_hashed_batch(batch),
        }
    }

    fn publish(&mut self) -> u64 {
        match self {
            Pipeline::Sequential(est) => est.publish(),
            Pipeline::Sharded(sharded) => sharded.publish(),
        }
    }

    /// Applied-row lag behind the accepted stream (always 0 when
    /// sequential — applying is synchronous there).
    fn backlog(&self) -> u64 {
        match self {
            Pipeline::Sequential(_) => 0,
            Pipeline::Sharded(sharded) => sharded.backlog(),
        }
    }

    /// Ships partially-filled router buffers to the lanes (no-op when
    /// sequential).
    fn flush(&mut self) {
        if let Pipeline::Sharded(sharded) = self {
            sharded.flush();
        }
    }

    /// The owned estimator when sequential (edge shipping captures wire
    /// snapshots off it; the sharded pipeline cannot without quiescing).
    fn sequential(&self) -> Option<&ImplicationEstimator> {
        match self {
            Pipeline::Sequential(est) => Some(est),
            Pipeline::Sharded(_) => None,
        }
    }

    /// Drains, reassembles (if sharded), publishes the final state, and
    /// returns the owning estimator.
    fn into_final(self) -> ImplicationEstimator {
        let mut est = match self {
            Pipeline::Sequential(est) => est,
            // finish() barriers, merges, and republishes the merged state
            // on the inherited channel.
            Pipeline::Sharded(sharded) => sharded.finish(),
        };
        est.publish();
        est
    }
}

/// Keep-latest handoff between the writer (which captures wire
/// snapshots at the ship cadence) and the upstream sender thread. A
/// newer capture replaces an unsent older one — the wire protocol only
/// ever needs the newest state, since deltas are computed against the
/// last snapshot actually *sent*, not the previous capture.
#[derive(Default)]
struct ShipSlot {
    latest: Mutex<Option<WireSnapshot>>,
}

impl ShipSlot {
    fn store(&self, snap: WireSnapshot) {
        *self.latest.lock().unwrap() = Some(snap);
    }

    fn take(&self) -> Option<WireSnapshot> {
        self.latest.lock().unwrap().take()
    }

    fn is_empty(&self) -> bool {
        self.latest.lock().unwrap().is_none()
    }
}

/// One serve role's writer: the single owner of that role's state, fed
/// in arrival order by the role's one ingest channel and driven by
/// [`writer_loop`].
trait Writer {
    type Msg: Send;
    fn apply(&mut self, msg: Self::Msg, shared: &Shared);
    /// Runs after each [`POLL`] that received nothing.
    fn idle(&mut self) {}
    /// Publishes and checkpoints the final state; returns (rows or
    /// frames this session, final tuple count).
    fn finish(self) -> (u64, u64);
}

/// The receive loop of every role: applies each message as it arrives
/// and idles after each quiet [`POLL`] until the stop flag is set or
/// every sender is gone, then applies what is still queued, stores the
/// final state and marks the writer done.
fn writer_loop<W: Writer>(mut writer: W, rx: &Receiver<W::Msg>, shared: &Shared) -> (u64, u64) {
    loop {
        match rx.recv_timeout(POLL) {
            Ok(msg) => writer.apply(msg, shared),
            Err(RecvTimeoutError::Timeout) if shared.stop.load(Ordering::Acquire) => break,
            Err(RecvTimeoutError::Timeout) => writer.idle(),
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    while let Ok(msg) = rx.try_recv() {
        writer.apply(msg, shared);
    }
    let totals = writer.finish();
    shared.writer_done.store(true, Ordering::Release);
    totals
}

/// A message to the writer of the standalone, edge or aggregator role:
/// an ingest item (a row batch or a wire frame), or a `GET /snapshot`
/// request, answered in line with the items before it.
enum Msg<T> {
    Ingest(T),
    /// Replies with `to_bytes()` of the writer's current state, or `None`
    /// under `--threads N > 1`, whose lanes hold no assembled mid-run
    /// state.
    Snapshot(SyncSender<Option<bytes::Bytes>>),
}

impl<T> From<Vec<T>> for Msg<Vec<T>> {
    fn from(rows: Vec<T>) -> Self {
        Msg::Ingest(rows)
    }
}

/// A role's `GET /snapshot` answer: its writer's current state (the
/// catalog role answers `404`).
type AskSnapshot = dyn Fn() -> Result<Option<bytes::Bytes>, Answer> + Send + Sync;

/// The `--checkpoint` file of the standalone, edge and aggregator roles.
/// A checkpoint is due at a publish once `--checkpoint-every` tuples
/// arrived since the last one.
struct Checkpoints {
    path: Option<String>,
    every: Option<u64>,
    /// Tuples seen at the last checkpoint (or at startup).
    last: u64,
}

impl Checkpoints {
    fn due(&self, tuples: u64) -> bool {
        self.every
            .is_some_and(|n| tuples.saturating_sub(self.last) >= n)
    }

    /// Replaces the checkpoint file with `est`'s state atomically (write
    /// temp + rename). Without `--checkpoint` nothing is encoded.
    fn write(&mut self, est: &ImplicationEstimator) {
        let Some(path) = &self.path else { return };
        let tuples = est.tuples_seen();
        self.last = tuples;
        let tmp = format!("{path}.tmp");
        match std::fs::write(&tmp, est.to_bytes()).and_then(|()| std::fs::rename(&tmp, path)) {
            Ok(()) => eprintln!("implicate-serve: checkpointed {tuples} tuples to {path}"),
            Err(e) => eprintln!("implicate-serve: checkpoint {path}: {e}"),
        }
    }
}

/// Edge role: hands wire snapshots of the estimator to the upstream
/// sender.
struct Shipper {
    slot: Arc<ShipSlot>,
    status: Arc<status::EdgeStatus>,
    every: u64,
    keepalive_ms: u64,
    unshipped: u64,
    epoch: u64,
    last_capture: Instant,
}

impl Shipper {
    /// Counts `rows` more unshipped rows and ships `est` when due: every
    /// `every` rows, and when `idle`, for any unshipped row — the stream's
    /// tail must not wait for a cadence interval that may never fill — or
    /// on the keep-alive cadence. A keep-alive ships an unchanged-state
    /// delta of ~20 bytes that keeps the node `live` on the aggregator's
    /// registry instead of decaying to `stale` for mere quietness.
    fn ship(&mut self, est: Option<&ImplicationEstimator>, rows: u64, idle: bool) {
        self.unshipped += rows;
        let keepalive_due = idle
            && self.keepalive_ms > 0
            && self.last_capture.elapsed() >= Duration::from_millis(self.keepalive_ms);
        if self.unshipped >= self.every || idle && self.unshipped > 0 || keepalive_due {
            if let Some(est) = est {
                self.epoch += 1;
                self.slot.store(WireSnapshot::capture(est, self.epoch));
            }
            self.unshipped = 0;
            self.last_capture = Instant::now();
        }
        self.status.set_unshipped(self.unshipped);
    }
}

/// Standalone and edge roles: applies hashed row batches to the
/// pipeline, publishes a view every `--publish-every` rows and when
/// idle, checkpoints at a publish when one is due, answers `/snapshot`
/// requests, and on an edge ships the state upstream.
struct TextWriter {
    pipeline: Pipeline,
    publish_every: u64,
    checkpoints: Checkpoints,
    ship: Option<Shipper>,
    rows: u64,
    since_publish: u64,
    /// Whether the last published view reflects *every* routed row. A
    /// mid-stream publish races the lanes by design (that is what makes
    /// it wait-free), so after going idle the writer republishes until a
    /// view assembled at backlog 0 is out — otherwise readers could be
    /// pinned forever on an estimate missing the stream's tail.
    published_settled: bool,
}

impl TextWriter {
    fn publish(&mut self) {
        self.since_publish = 0;
        self.pipeline.publish();
        // Mid-run checkpoints need the sequential estimator; sharded
        // runs checkpoint once, at shutdown.
        if let Some(est) = self.pipeline.sequential() {
            if self.checkpoints.due(est.tuples_seen()) {
                self.checkpoints.write(est);
            }
        }
    }
}

impl Writer for TextWriter {
    type Msg = Msg<Vec<(u64, u64)>>;

    fn apply(&mut self, msg: Self::Msg, _shared: &Shared) {
        let batch = match msg {
            Msg::Ingest(batch) => batch,
            Msg::Snapshot(reply) => {
                let state = self
                    .pipeline
                    .sequential()
                    .map(ImplicationEstimator::to_bytes);
                let _ = reply.send(state);
                return;
            }
        };
        let n = batch.len() as u64;
        self.pipeline.apply(&batch);
        self.rows += n;
        self.since_publish += n;
        if let Some(ship) = &mut self.ship {
            ship.ship(self.pipeline.sequential(), n, false);
        }
        if self.since_publish >= self.publish_every {
            self.publish();
            self.published_settled = self.pipeline.backlog() == 0;
        }
    }

    fn idle(&mut self) {
        // Ship any partial per-shard buffers to the lanes (full batches
        // ship eagerly; partials otherwise wait for more rows), then
        // publish until a settled view — one assembled with nothing left
        // in flight — is out.
        if self.pipeline.backlog() > 0 {
            self.pipeline.flush();
        }
        let settled = self.pipeline.backlog() == 0;
        if self.since_publish > 0 || !settled || !self.published_settled {
            self.publish();
            self.published_settled = settled;
        }
        if let Some(ship) = &mut self.ship {
            ship.ship(self.pipeline.sequential(), 0, true);
        }
    }

    fn finish(mut self) -> (u64, u64) {
        let est = self.pipeline.into_final();
        let tuples = est.tuples_seen();
        self.checkpoints.write(&est);
        // The final state always ships (an unchanged-state delta is a few
        // bytes), so a graceful edge shutdown never strands its tail.
        if let Some(ship) = &mut self.ship {
            ship.epoch += 1;
            ship.slot.store(WireSnapshot::capture(&est, ship.epoch));
        }
        (self.rows, tuples)
    }
}

/// A message to the catalog writer, the single owner of the
/// [`QueryCatalog`]: rows from an ingest connection or a control request
/// from an HTTP connection, applied in arrival order.
enum CatalogMsg {
    Rows(Vec<Tuple>),
    /// Parse and register one query-spec line (the body of
    /// `POST /query`); replies with the raw id or a client-readable
    /// error.
    Register {
        line: String,
        reply: SyncSender<Result<u64, String>>,
    },
    /// Retire by raw id (`DELETE /query/{id}`); replies with whether
    /// the id was live.
    Retire {
        id: u64,
        reply: SyncSender<bool>,
    },
}

impl From<Vec<Tuple>> for CatalogMsg {
    fn from(rows: Vec<Tuple>) -> Self {
        CatalogMsg::Rows(rows)
    }
}

/// What a query connection needs to answer `/estimate?query=…` without
/// consulting the writer: the registered name, the declarative query
/// (for `answer_from`), and a wait-free per-query reader.
struct CatalogQueryHandle {
    name: String,
    query: ImplicationQuery,
    reader: EstimateReader,
}

/// Read-side state of the catalog role. The writer owns the
/// [`QueryCatalog`]; query connections resolve per-query readers here
/// and serve the Prometheus exposition the writer re-renders at the
/// publish cadence.
struct CatalogShared {
    /// Live queries by raw id — mutated only by the writer (register /
    /// retire); query threads lock briefly to resolve `?query=` by id
    /// or name.
    queries: Mutex<HashMap<u64, CatalogQueryHandle>>,
    /// Latest `QueryCatalog::prometheus_into` rendering, per-query
    /// labeled series included.
    exposition: Mutex<String>,
    /// The catalog writer's channel, for control requests.
    writer: SyncSender<CatalogMsg>,
}

/// The catalog role's writer. Hashes each incoming row batch
/// attribute-wise exactly once into a reused [`HashedBatch`], applies it
/// to every registered query, registers and retires queries in line
/// with the rows, and republishes every query's view (plus the metrics
/// exposition) on the publish cadence and when idle.
struct CatalogWriter {
    catalog: QueryCatalog,
    hasher: TupleHasher,
    hashed: HashedBatch,
    cat: Arc<CatalogShared>,
    publish_every: u64,
    rows: u64,
    since_publish: u64,
}

impl CatalogWriter {
    /// Registers `s` and makes its reader visible to query connections;
    /// returns the raw id.
    fn register(&mut self, s: QuerySpec) -> Result<u64, String> {
        let arity = self.catalog.schema().arity();
        if s.max_column() >= arity {
            return Err(format!(
                "column {} out of range (--arity {arity})",
                s.max_column()
            ));
        }
        let id = self
            .catalog
            .try_register(s.name.clone(), s.query.clone())
            .map_err(|e| e.to_string())?;
        let reader = self.catalog.reader(id).expect("just registered");
        self.cat.queries.lock().unwrap().insert(
            id.raw(),
            CatalogQueryHandle {
                name: s.name,
                query: s.query,
                reader,
            },
        );
        Ok(id.raw())
    }

    /// Re-renders the `/metrics` exposition.
    fn refresh(&self) {
        let mut text = String::new();
        self.catalog.prometheus_into("implicate", &mut text);
        *self.cat.exposition.lock().unwrap() = text;
    }

    fn publish(&mut self) {
        self.since_publish = 0;
        self.catalog.publish();
        self.refresh();
    }
}

impl Writer for CatalogWriter {
    type Msg = CatalogMsg;

    fn apply(&mut self, msg: CatalogMsg, _shared: &Shared) {
        match msg {
            CatalogMsg::Rows(batch) => {
                let n = batch.len() as u64;
                self.hasher.hash_batch(batch, &mut self.hashed);
                self.catalog.process_hashed(&self.hashed);
                self.rows += n;
                self.since_publish += n;
                if self.since_publish >= self.publish_every {
                    self.publish();
                }
            }
            CatalogMsg::Register { line, reply } => {
                let result = spec::parse_query_line(&line).and_then(|s| self.register(s));
                self.refresh();
                let _ = reply.send(result);
            }
            CatalogMsg::Retire { id, reply } => {
                let live = self.catalog.retire(QueryId::from_raw(id));
                if live {
                    self.cat.queries.lock().unwrap().remove(&id);
                    self.refresh();
                }
                let _ = reply.send(live);
            }
        }
    }

    fn idle(&mut self) {
        if self.since_publish > 0 {
            self.publish();
        }
    }

    fn finish(mut self) -> (u64, u64) {
        self.publish();
        (self.rows, self.catalog.tuples_seen())
    }
}

/// Returns true when the peer has half-closed or reset the connection —
/// detected with a nonblocking 1-byte probe read (the aggregator never
/// sends application data, so any `Ok` read of 0 bytes is a FIN).
fn peer_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match (&*stream).read(&mut probe) {
        Ok(0) => true,
        Ok(_) => false, // unexpected chatter; the write path decides
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    gone || stream.set_nonblocking(false).is_err()
}

/// The edge's upstream sender: connects to the aggregator with capped
/// exponential backoff and ships every snapshot the writer hands over —
/// a **full** frame right after each (re)connect, **deltas** against
/// the last sent snapshot afterwards. Any send failure drops the
/// connection and clears the delta base, so the next frame after a
/// reconnect is always full: a delta the aggregator never applied can
/// never poison the resync.
///
/// Runs until the stop flag is set *and* the last captured snapshot has
/// shipped, so a graceful shutdown always delivers the final state.
fn edge_sender(upstream: &str, node_id: u64, slot: &ShipSlot, shared: &Shared) {
    let mut conn: Option<TcpStream> = None;
    let mut base: Option<WireSnapshot> = None;
    let mut backoff = BACKOFF_START;
    let mut pending: Option<WireSnapshot> = None;
    loop {
        if pending.is_none() {
            pending = slot.take();
        }
        let Some(snap) = pending.as_ref() else {
            if shared.writer_done.load(Ordering::Acquire) && slot.is_empty() {
                return;
            }
            std::thread::sleep(POLL);
            continue;
        };

        // (Re)connect if needed; detect a silently-dead peer first so a
        // restarted aggregator gets a full frame instead of a delta
        // written into a black hole.
        if conn.as_ref().is_some_and(peer_gone) {
            conn = None;
            if let Some(edge) = &shared.edge {
                edge.set_connected(false);
            }
        }
        if conn.is_none() {
            base = None;
            match TcpStream::connect(upstream) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    conn = Some(stream);
                    backoff = BACKOFF_START;
                    if let Some(edge) = &shared.edge {
                        edge.record_connect();
                    }
                }
                Err(_) => {
                    if let Some(edge) = &shared.edge {
                        edge.record_backoff(backoff.as_millis() as u64);
                    }
                    // Don't spin while unreachable — but stay
                    // responsive to shutdown.
                    let deadline = std::time::Instant::now() + backoff;
                    while std::time::Instant::now() < deadline {
                        if shared.writer_done.load(Ordering::Acquire) {
                            // Unreachable aggregator at shutdown: the
                            // state is lost to this session, as
                            // documented — exit rather than hang.
                            return;
                        }
                        std::thread::sleep(POLL.min(backoff));
                    }
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                    continue;
                }
            }
        }

        let is_full = base.is_none();
        let frame = match &base {
            Some(b) => snap.delta_frame(b, node_id),
            None => snap.full_frame(node_id),
        };
        let stream = conn.as_mut().expect("connected above");
        let write_started = std::time::Instant::now();
        match stream.write_all(&frame).and_then(|()| stream.flush()) {
            Ok(()) => {
                if let Some(edge) = &shared.edge {
                    edge.record_ship(
                        frame.len() as u64,
                        is_full,
                        write_started.elapsed().as_nanos() as u64,
                        shared.now_ms(),
                    );
                }
                base = pending.take();
                if shared.writer_done.load(Ordering::Acquire) && slot.is_empty() {
                    return;
                }
            }
            Err(_) => {
                // Keep `pending`: it resends as a full frame once the
                // connection is back.
                conn = None;
                if let Some(edge) = &shared.edge {
                    edge.record_send_error();
                }
            }
        }
    }
}

/// One aggregator ingest connection: reassembles wire frames off the
/// stream and hands complete frames to the writer. The writer flips
/// `kill` when a frame from this connection fails to apply — dropping
/// the connection is the signal that makes the edge reconnect and
/// resync with a full snapshot.
fn wire_ingest_connection(
    mut stream: TcpStream,
    shared: &Shared,
    tx: &SyncSender<Msg<(bytes::Bytes, Arc<AtomicBool>)>>,
) {
    stream.set_read_timeout(Some(POLL)).ok();
    let kill = Arc::new(AtomicBool::new(false));
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    // The connection pins itself to the first node_id it presents; a
    // frame declaring a different id mid-connection is rejected and
    // drops the connection. Nothing authenticates the *first* claim
    // (trusted-network protocol, as WIRE.md states), but a pinned
    // connection can no longer impersonate other nodes or smear one
    // edge's stream across several registry entries.
    let mut pinned: Option<u64> = None;
    loop {
        if kill.load(Ordering::Acquire) || shared.stop.load(Ordering::Acquire) {
            return; // dropping the stream sends the edge its FIN
        }
        // Drain every complete frame currently buffered.
        loop {
            match peek_frame(&buf) {
                Ok(Some(header)) => {
                    if header.body_len > DEFAULT_MAX_FRAME_BYTES as u64 {
                        return;
                    }
                    match pinned {
                        None => {
                            pinned = Some(header.node_id);
                            if let Some(fleet) = &shared.fleet {
                                fleet.record_connect(header.node_id, shared.now_ms());
                            }
                        }
                        Some(p) if p != header.node_id => {
                            shared.metrics.wire.node_id_conflicts.inc();
                            shared.trace.record(|| TraceEvent::FrameRejected {
                                node: p,
                                error: REJECT_NODE_ID_SWITCH,
                                epoch: header.epoch,
                            });
                            if let Some(fleet) = &shared.fleet {
                                fleet.record_id_conflict(p);
                            }
                            eprintln!(
                                "implicate-serve: connection pinned to node {p} sent a \
                                 frame claiming node {} — dropping connection",
                                header.node_id
                            );
                            return;
                        }
                        Some(_) => {}
                    }
                    let total = header.frame_len();
                    if buf.len() < total {
                        break;
                    }
                    let rest = buf.split_off(total);
                    let frame = bytes::Bytes::from(std::mem::replace(&mut buf, rest));
                    if tx.send(Msg::Ingest((frame, Arc::clone(&kill)))).is_err() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => return, // not wire traffic; hang up
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // edge closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// The aggregator's writer: the single owner of the serving estimator
/// and of one [`WireDecoder`] replica per edge node. After every applied
/// frame it republishes (readers keep their wait-free channel across
/// re-aggregations) and checkpoints when one is due; it answers
/// `/snapshot` with the merged state.
struct AggregateWriter {
    serving: ImplicationEstimator,
    template: EstimatorConfig,
    decoders: HashMap<u64, WireDecoder>,
    checkpoints: Checkpoints,
    frames: u64,
}

impl AggregateWriter {
    /// Applies one frame from an edge to the aggregator's state: peeks the
    /// header, decodes the frame into that node's [`WireDecoder`] replica
    /// (creating it for a node not seen before), counts the frame's tuples
    /// as accepted, records it on the fleet registry, then re-merges every
    /// held replica into a fresh same-configuration estimator that the serving
    /// estimator adopts. Returns whether the frame was applied.
    ///
    /// A frame that fails to apply resets that node's replica, journals a
    /// flight recording and sets `kill`, so the connection drops and the
    /// edge reconnects to resync with a full snapshot.
    fn apply_frame(&mut self, frame: bytes::Bytes, kill: &AtomicBool, shared: &Shared) -> bool {
        // node_id is authenticated by nothing but the header — this is a
        // trusted-network protocol, as WIRE.md states (the ingest connection
        // pins it so it cannot *switch*).
        let peeked = match peek_frame(&frame) {
            Ok(Some(h)) => h,
            _ => {
                kill.store(true, Ordering::Release);
                return false;
            }
        };
        let node = peeked.node_id;
        let frame_bytes = frame.len() as u64;
        let decoder = self.decoders.entry(node).or_insert_with(|| {
            WireDecoder::new()
                .require_matching(&self.serving)
                .with_metrics(self.serving.metrics().clone())
                .with_trace(self.serving.trace().clone())
        });
        match decoder.apply(frame) {
            Ok(header) => {
                shared.accepted.fetch_add(header.tuples, Ordering::Relaxed);
                if let Some(fleet) = &shared.fleet {
                    fleet.record_frame(
                        node,
                        header.kind,
                        frame_bytes,
                        header.epoch,
                        header.tuples,
                        shared.now_ms(),
                    );
                }
                let merge_started = std::time::Instant::now();
                let mut merged = self.template.build();
                for dec in self.decoders.values() {
                    if let Some(replica) = dec.estimator() {
                        merged.merge(replica);
                    }
                }
                self.serving.adopt_state(merged);
                if let Some(fleet) = &shared.fleet {
                    fleet.observe_merge_nanos(merge_started.elapsed().as_nanos() as u64);
                }
                true
            }
            Err(e) => {
                eprintln!("implicate-serve: frame from node {node}: {e}");
                if let Some(fleet) = &shared.fleet {
                    fleet.record_error(node, Some(peeked.epoch), shared.now_ms());
                }
                if let Some(recorder) = &shared.flight {
                    let context = format!(
                        "{{\"reason\":\"decode_error\",\"node_id\":{node},\
                         \"epoch\":{},\"error\":\"{}\",\"detail\":{}}}",
                        peeked.epoch,
                        e.name(),
                        flight::json_string(&e.to_string()),
                    );
                    recorder.record(
                        "decode_error",
                        &context,
                        shared.trace.journal().map(|j| j.to_jsonl()).as_deref(),
                    );
                }
                decoder.reset();
                kill.store(true, Ordering::Release);
                false
            }
        }
    }
}

impl Writer for AggregateWriter {
    type Msg = Msg<(bytes::Bytes, Arc<AtomicBool>)>;

    fn apply(&mut self, msg: Self::Msg, shared: &Shared) {
        let (frame, kill) = match msg {
            Msg::Ingest(item) => item,
            Msg::Snapshot(reply) => {
                let _ = reply.send(Some(self.serving.to_bytes()));
                return;
            }
        };
        if !self.apply_frame(frame, &kill, shared) {
            return;
        }
        self.frames += 1;
        let publish_started = Instant::now();
        self.serving.publish();
        if let Some(fleet) = &shared.fleet {
            fleet.observe_publish_nanos(publish_started.elapsed().as_nanos() as u64);
        }
        if self.checkpoints.due(self.serving.tuples_seen()) {
            self.checkpoints.write(&self.serving);
        }
    }

    fn finish(mut self) -> (u64, u64) {
        self.serving.publish();
        self.checkpoints.write(&self.serving);
        (self.frames, self.serving.tuples_seen())
    }
}

fn main() {
    let opts = parse_opts();

    // Restore or build the estimator.
    let mut est = match &opts.checkpoint {
        Some(path) if std::path::Path::new(path).exists() => {
            let est = spec::restore_snapshot(&opts.config, path).unwrap_or_else(|e| die(&e));
            eprintln!(
                "implicate-serve: restored {} tuples from {path}",
                est.tuples_seen()
            );
            est
        }
        _ => opts.config.build(),
    };

    // Arm the trace ring when a flight recorder wants it drained: the
    // ring feeds the wire codec's typed events (frame encoded/rejected,
    // resync forced) and is what a recording dumps. Without a recorder
    // it stays disabled — zero cost on the ingest path.
    let trace = if opts.flight_dir.is_some() {
        TraceHandle::with_capacity(16_384)
    } else {
        TraceHandle::disabled()
    };
    est.set_trace(trace.clone());

    let flight = opts.flight_dir.as_ref().map(|dir| {
        let recorder = flight::FlightRecorder::new(dir, opts.flight_keep)
            .unwrap_or_else(|e| die(&format!("--flight-dir {dir}: {e}")));
        Arc::new(recorder)
    });
    if let Some(recorder) = &flight {
        // A panic anywhere in the process drains the trace ring before
        // the default hook prints and the process dies.
        let recorder = Arc::clone(recorder);
        let trace = trace.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let context = format!(
                "{{\"reason\":\"panic\",\"detail\":{}}}",
                flight::json_string(&info.to_string()),
            );
            recorder.record(
                "panic",
                &context,
                trace.journal().map(|j| j.to_jsonl()).as_deref(),
            );
            prev(info);
        }));
    }

    let role = if opts.catalog {
        "catalog"
    } else if opts.aggregate {
        "aggregate"
    } else if opts.upstream.is_some() {
        "edge"
    } else {
        "standalone"
    };
    let reader_proto = est.reader();
    let pair_hasher = est.pair_hasher();
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        writer_done: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        skipped: AtomicU64::new(0),
        metrics: est.metrics().clone(),
        trace,
        fleet: opts
            .aggregate
            .then(|| Arc::new(NodeRegistry::new(opts.stale_after_ms))),
        edge: opts
            .upstream
            .as_ref()
            .map(|u| Arc::new(status::EdgeStatus::new(u.clone(), opts.node_id))),
        flight,
        started: std::time::Instant::now(),
        role,
    });

    let ingest_listener = TcpListener::bind(&opts.ingest_addr)
        .unwrap_or_else(|e| die(&format!("bind {}: {e}", opts.ingest_addr)));
    let query_listener = TcpListener::bind(&opts.query_addr)
        .unwrap_or_else(|e| die(&format!("bind {}: {e}", opts.query_addr)));
    let ingest_addr = ingest_listener.local_addr().expect("bound");
    let query_addr = query_listener.local_addr().expect("bound");
    // Announced on stdout (and flushed) so wrappers can discover the
    // actual ports when binding :0.
    println!("serve: ingest listening on {ingest_addr}");
    println!("serve: query listening on {query_addr}");
    std::io::stdout().flush().ok();

    // Edge role: the writer hands captured wire snapshots to the
    // upstream sender through this keep-latest slot.
    let ship_slot = opts
        .upstream
        .as_ref()
        .map(|_| Arc::new(ShipSlot::default()));

    // Each role has one ingest channel, from its ingest connections (and
    // in the catalog role, its control requests) to its writer thread:
    // the single owner of estimator mutation.
    ingest_listener.set_nonblocking(true).expect("nonblocking");
    let checkpoints = Checkpoints {
        path: opts.checkpoint.clone(),
        every: opts.checkpoint_every,
        last: est.tuples_seen(),
    };
    let mut cat_shared = None;
    let ask_snapshot: Arc<AskSnapshot>;
    let writer = if opts.catalog {
        ask_snapshot = Arc::new(|| {
            let body = b"no snapshots in catalog mode (state is per-query)\n".to_vec();
            Err(("404 Not Found", "text/plain", body))
        });
        let (tx, rx) = sync_channel(INGEST_DEPTH);
        let schema = Schema::new((0..opts.arity).map(|i| (format!("c{i}"), 0)));
        let mut catalog = QueryCatalog::new(&schema, opts.config);
        catalog.set_trace(shared.trace.clone());
        let cat = Arc::new(CatalogShared {
            queries: Mutex::new(HashMap::new()),
            exposition: Mutex::new(String::new()),
            writer: tx.clone(),
        });
        let mut writer = CatalogWriter {
            hasher: catalog.hasher().clone(),
            catalog,
            hashed: HashedBatch::new(),
            cat: Arc::clone(&cat),
            publish_every: opts.publish_every,
            rows: 0,
            since_publish: 0,
        };
        // Preload from --query-file (same grammar as POST /query); any
        // bad line is a startup error, not a silently-empty catalog.
        if let Some(path) = &opts.query_file {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            let specs =
                spec::parse_query_file(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            for s in specs {
                let name = s.name.clone();
                if let Err(e) = writer.register(s) {
                    die(&format!("{path}: query {name:?}: {e}"));
                }
            }
            eprintln!(
                "implicate-serve: preloaded {} queries from {path}",
                writer.catalog.len()
            );
        }
        writer.refresh();
        cat_shared = Some(cat);
        let rows = RowReader::new(&(0..opts.arity).collect::<Vec<_>>(), opts.delimiter);
        spawn_text_ingest(ingest_listener, Arc::clone(&shared), rows, tx, |w| {
            Tuple::new(w)
        });
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || writer_loop(writer, &rx, &shared))
    } else if opts.aggregate {
        let (tx, rx) = sync_channel(INGEST_DEPTH);
        let ask = tx.clone();
        ask_snapshot = Arc::new(move || ask_writer(&ask, Msg::Snapshot));
        let acceptor_shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            accept_loop(&ingest_listener, &acceptor_shared, move |stream, shared| {
                let tx = tx.clone();
                std::thread::spawn(move || wire_ingest_connection(stream, &shared, &tx));
            });
        });
        let writer = AggregateWriter {
            serving: est,
            template: opts.config,
            decoders: HashMap::new(),
            checkpoints,
            frames: 0,
        };
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || writer_loop(writer, &rx, &shared))
    } else {
        let (tx, rx) = sync_channel(INGEST_DEPTH);
        let ask = tx.clone();
        ask_snapshot = Arc::new(move || ask_writer(&ask, Msg::Snapshot));
        let rows = RowReader::new(&[&opts.lhs[..], &opts.rhs[..]].concat(), opts.delimiter);
        let split = opts.lhs.len();
        spawn_text_ingest(ingest_listener, Arc::clone(&shared), rows, tx, move |w| {
            let (a, b) = w.split_at(split);
            pair_hasher.hash_pair(a, b)
        });
        let pipeline = if opts.threads > 1 {
            Pipeline::Sharded(ShardedEstimator::new(est, opts.threads))
        } else {
            Pipeline::Sequential(est)
        };
        let ship = ship_slot
            .as_ref()
            .zip(shared.edge.as_ref())
            .map(|(slot, status)| Shipper {
                slot: Arc::clone(slot),
                status: Arc::clone(status),
                every: opts.ship_every,
                keepalive_ms: opts.keepalive_ms,
                unshipped: 0,
                epoch: 0,
                last_capture: Instant::now(),
            });
        let writer = TextWriter {
            pipeline,
            publish_every: opts.publish_every,
            checkpoints,
            ship,
            rows: 0,
            since_publish: 0,
            published_settled: true,
        };
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || writer_loop(writer, &rx, &shared))
    };

    // Upstream sender (edge role).
    let sender = match (&opts.upstream, &ship_slot) {
        (Some(addr), Some(slot)) => {
            let addr = addr.clone();
            let slot = Arc::clone(slot);
            let shared = Arc::clone(&shared);
            let node_id = opts.node_id;
            Some(std::thread::spawn(move || {
                edge_sender(&addr, node_id, &slot, &shared);
            }))
        }
        _ => None,
    };

    // Query acceptor.
    {
        let shared = Arc::clone(&shared);
        query_listener.set_nonblocking(true).expect("nonblocking");
        let cat: Option<Arc<CatalogShared>> = cat_shared.clone();
        std::thread::spawn(move || {
            accept_loop(&query_listener, &shared, move |stream, shared| {
                let reader = reader_proto.clone();
                let (cat, ask) = (cat.clone(), Arc::clone(&ask_snapshot));
                std::thread::spawn(move || {
                    query_connection(stream, &shared, &reader, cat.as_deref(), &*ask);
                });
            });
        });
    }

    let (rows, final_tuples) = writer.join().expect("writer thread panicked");
    if let Some(sender) = sender {
        // Wait for the final captured state to reach the aggregator
        // (or for the sender to give up on an unreachable one).
        sender.join().expect("sender thread panicked");
    }
    eprintln!(
        "implicate-serve: shut down after {rows} rows this session \
         ({} tuples total, {} skipped)",
        final_tuples,
        shared.skipped.load(Ordering::Relaxed),
    );
    // Connection threads are detached and stop-flag aware; exiting the
    // process reaps anything still parked in a read timeout.
    exit(0);
}

/// Serves the text line protocol on `listener`: one thread per
/// connection, each running [`ingest_connection`] with its own copy of
/// `rows` and sending `item`-built batches to the writer over `tx`.
fn spawn_text_ingest<T: 'static, M: From<Vec<T>> + Send + 'static>(
    listener: TcpListener,
    shared: Arc<Shared>,
    rows: RowReader,
    tx: SyncSender<M>,
    item: impl Fn(&[u64]) -> T + Clone + Send + 'static,
) {
    std::thread::spawn(move || {
        accept_loop(&listener, &shared, move |stream, shared| {
            let (rows, tx, item) = (rows.clone(), tx.clone(), item.clone());
            std::thread::spawn(move || ingest_connection(stream, &shared, rows, &tx, item));
        });
    });
}

/// Generic nonblocking accept loop, stop-flag aware.
fn accept_loop<F: Fn(TcpStream, Arc<Shared>)>(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handle: F,
) {
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => handle(stream, Arc::clone(shared)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// One text ingest connection: rows through the shared front end
/// ([`RowReader`]), each row's field words made a batch item by `item`
/// (a hashed pair, or a catalog tuple), batches shipped to the writer.
/// Rows too short for the reader's columns count as skipped.
fn ingest_connection<T, M: From<Vec<T>>>(
    stream: TcpStream,
    shared: &Shared,
    mut rows: RowReader,
    tx: &SyncSender<M>,
    item: impl Fn(&[u64]) -> T,
) {
    stream.set_read_timeout(Some(POLL)).ok();
    let mut input = BufReader::new(stream);
    let mut words = Vec::new();
    let mut batch = Vec::with_capacity(INGEST_BATCH);
    loop {
        words.clear();
        match rows.read_row(&mut input, &mut words) {
            Ok(Row::Fields) => {
                batch.push(item(&words));
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                if batch.len() >= INGEST_BATCH {
                    let full = std::mem::replace(&mut batch, Vec::with_capacity(INGEST_BATCH));
                    if tx.send(full.into()).is_err() {
                        return;
                    }
                }
            }
            Ok(Row::Short) => {
                shared.skipped.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Row::End) => break, // EOF: client done.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // The read timed out; the reader keeps any partial line
                // and the next read appends the remainder. Flush what we
                // have so slow trickles still become visible, then check
                // for stop.
                if !batch.is_empty() {
                    let partial = std::mem::take(&mut batch);
                    if tx.send(partial.into()).is_err() {
                        return;
                    }
                }
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(_) => break,
        }
    }
    if !batch.is_empty() {
        let _ = tx.send(batch.into());
    }
}

/// An HTTP answer: status, content type, body.
type Answer = (&'static str, &'static str, Vec<u8>);

/// Sends the request `msg` builds to a role's writer, in line with its
/// ingest, and waits up to 5 s for the reply; the error is the `503`
/// answer.
fn ask_writer<M, R>(
    writer: &SyncSender<M>,
    msg: impl FnOnce(SyncSender<R>) -> M,
) -> Result<R, Answer> {
    let unavailable = |why: &str| {
        let body = format!("writer {why}\n").into_bytes();
        ("503 Service Unavailable", "text/plain", body)
    };
    let (reply_tx, reply_rx) = sync_channel(1);
    writer
        .send(msg(reply_tx))
        .map_err(|_| unavailable("is gone"))?;
    reply_rx
        .recv_timeout(Duration::from_secs(5))
        .map_err(|_| unavailable("timed out"))
}

/// Routes specific to the catalog role; `None` falls through to the
/// common handler (`/healthz`, `/shutdown`, 404).
fn catalog_route(
    method: &str,
    route: &str,
    query_string: &str,
    body_in: &[u8],
    cat: &CatalogShared,
    shared: &Shared,
) -> Option<Answer> {
    match (method, route) {
        ("GET", "/estimate") => {
            let Some(wanted) = query_string
                .split('&')
                .find_map(|kv| kv.strip_prefix("query="))
            else {
                return Some((
                    "400 Bad Request",
                    "text/plain",
                    b"catalog mode: GET /estimate?query=ID-or-NAME\n".to_vec(),
                ));
            };
            let queries = cat.queries.lock().unwrap();
            let found = wanted
                .parse::<u64>()
                .ok()
                .and_then(|id| queries.get_key_value(&id))
                .or_else(|| queries.iter().find(|(_, h)| h.name == wanted));
            let Some((id, handle)) = found else {
                return Some((
                    "404 Not Found",
                    "text/plain",
                    format!("no query {wanted:?}\n").into_bytes(),
                ));
            };
            let view = handle.reader.view();
            let e = view.estimate();
            let answer = handle.query.answer_from(&e);
            let body = format!(
                "{{\"id\":{id},\"name\":{},\"epoch\":{},\"tuples\":{},\
                 \"answer\":{answer},\"answer_bits\":{},\
                 \"f0_sup\":{},\"non_implication_count\":{},\"implication_count\":{}}}\n",
                flight::json_string(&handle.name),
                view.epoch(),
                view.tuples(),
                answer.to_bits(),
                e.f0_sup,
                e.non_implication_count,
                e.implication_count,
            );
            Some(("200 OK", "application/json", body.into_bytes()))
        }
        ("GET", "/queries") => {
            let queries = cat.queries.lock().unwrap();
            let mut rows: Vec<(u64, String)> = queries
                .iter()
                .map(|(id, h)| {
                    (
                        *id,
                        format!(
                            "{{\"id\":{id},\"name\":{},\"tuples\":{}}}",
                            flight::json_string(&h.name),
                            h.reader.view().tuples(),
                        ),
                    )
                })
                .collect();
            rows.sort_by_key(|(id, _)| *id);
            let body = format!(
                "{{\"queries\":[{}]}}\n",
                rows.iter()
                    .map(|(_, json)| json.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            Some(("200 OK", "application/json", body.into_bytes()))
        }
        ("POST", "/query") => {
            let line = String::from_utf8_lossy(body_in);
            let line = line.trim();
            if line.is_empty() {
                return Some((
                    "400 Bad Request",
                    "text/plain",
                    b"empty body: expected one query spec line\n".to_vec(),
                ));
            }
            let reply = ask_writer(&cat.writer, |reply| CatalogMsg::Register {
                line: line.to_string(),
                reply,
            });
            Some(match reply {
                Ok(Ok(id)) => {
                    let name = cat
                        .queries
                        .lock()
                        .unwrap()
                        .get(&id)
                        .map(|h| h.name.clone())
                        .unwrap_or_default();
                    let body = format!("{{\"id\":{id},\"name\":{}}}\n", flight::json_string(&name));
                    ("200 OK", "application/json", body.into_bytes())
                }
                Ok(Err(e)) => (
                    "400 Bad Request",
                    "text/plain",
                    format!("{e}\n").into_bytes(),
                ),
                Err(unavailable) => unavailable,
            })
        }
        ("DELETE", _) if route.starts_with("/query/") => {
            let Ok(id) = route["/query/".len()..].parse::<u64>() else {
                return Some((
                    "400 Bad Request",
                    "text/plain",
                    b"DELETE /query/{numeric-id}\n".to_vec(),
                ));
            };
            Some(
                match ask_writer(&cat.writer, |reply| CatalogMsg::Retire { id, reply }) {
                    Ok(true) => (
                        "200 OK",
                        "text/plain",
                        format!("retired {id}\n").into_bytes(),
                    ),
                    Ok(false) => (
                        "404 Not Found",
                        "text/plain",
                        format!("no query {id}\n").into_bytes(),
                    ),
                    Err(unavailable) => unavailable,
                },
            )
        }
        ("GET", "/metrics") => Some((
            "200 OK",
            "text/plain; version=0.0.4",
            cat.exposition.lock().unwrap().clone().into_bytes(),
        )),
        ("GET", "/status") => {
            let queries = cat.queries.lock().unwrap().len();
            let body = format!(
                "{{\"role\":\"catalog\",\"queries\":{queries},\
                 \"accepted\":{},\"skipped\":{},\"uptime_ms\":{}}}\n",
                shared.accepted.load(Ordering::Relaxed),
                shared.skipped.load(Ordering::Relaxed),
                shared.now_ms(),
            );
            Some(("200 OK", "application/json", body.into_bytes()))
        }
        _ => None,
    }
}

/// One query connection: answer a single HTTP request and close.
fn query_connection(
    mut stream: TcpStream,
    shared: &Shared,
    reader: &EstimateReader,
    catalog: Option<&CatalogShared>,
    ask_snapshot: &AskSnapshot,
) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let mut buf = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    // Read until the header terminator; a header that does not end
    // within MAX_HEADER bytes is refused whole, never acted on cut off.
    let mut header_too_large = false;
    while !buf.ends_with(b"\r\n\r\n") && !buf.ends_with(b"\n\n") {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                buf.push(byte[0]);
                if buf.len() > MAX_HEADER {
                    header_too_large = true;
                    break;
                }
            }
            Err(_) => break,
        }
    }
    if header_too_large {
        return refuse(stream, "431 Request Header Fields Too Large");
    }
    let request = String::from_utf8_lossy(&buf);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (route, query_string) = path.split_once('?').unwrap_or((path, ""));
    // Read the body when one is declared (`POST /query` carries a spec
    // line); a body over MAX_BODY is refused, so a bogus length cannot
    // balloon the buffer and a long one is never acted on cut off.
    let content_length = request
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse::<usize>().ok())
                .flatten()
        })
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return refuse(stream, "413 Payload Too Large");
    }
    let mut body_in = vec![0u8; content_length];
    if !body_in.is_empty() && stream.read_exact(&mut body_in).is_err() {
        body_in.clear();
    }

    let catalog_answer =
        catalog.and_then(|cat| catalog_route(method, route, query_string, &body_in, cat, shared));
    let (status, content_type, body): (&str, &str, Vec<u8>) = if let Some(answer) = catalog_answer {
        answer
    } else {
        match (method, route) {
            ("GET", "/estimate") => {
                let view = reader.view();
                let e = view.estimate();
                let body = format!(
                    "{{\"epoch\":{},\"tuples\":{},\"accepted\":{},\"skipped\":{},\
                 \"f0_sup\":{},\"non_implication_count\":{},\"implication_count\":{},\
                 \"f0_sup_bits\":{},\"non_implication_count_bits\":{},\
                 \"implication_count_bits\":{}}}\n",
                    view.epoch(),
                    view.tuples(),
                    shared.accepted.load(Ordering::Relaxed),
                    shared.skipped.load(Ordering::Relaxed),
                    e.f0_sup,
                    e.non_implication_count,
                    e.implication_count,
                    e.f0_sup.to_bits(),
                    e.non_implication_count.to_bits(),
                    e.implication_count.to_bits(),
                );
                ("200 OK", "application/json", body.into_bytes())
            }
            ("GET", "/metrics") => {
                let mut body = shared.metrics.prometheus("implicate");
                let now = shared.now_ms();
                if let Some(fleet) = &shared.fleet {
                    fleet.prometheus_into("implicate", now, &mut body);
                }
                if let Some(edge) = &shared.edge {
                    edge.prometheus_into("implicate", now, &mut body);
                }
                ("200 OK", "text/plain; version=0.0.4", body.into_bytes())
            }
            ("GET", "/status") => {
                let view = reader.view();
                let now = shared.now_ms();
                let mut body = format!(
                    "{{\"role\":\"{}\",\"epoch\":{},\"tuples\":{},\
                 \"accepted\":{},\"skipped\":{},\"uptime_ms\":{now}",
                    shared.role,
                    view.epoch(),
                    view.tuples(),
                    shared.accepted.load(Ordering::Relaxed),
                    shared.skipped.load(Ordering::Relaxed),
                );
                if let Some(fleet) = &shared.fleet {
                    body.push_str(",\"fleet\":");
                    body.push_str(&fleet.status_json(now));
                }
                if let Some(edge) = &shared.edge {
                    body.push_str(",\"edge\":");
                    body.push_str(&edge.status_json(now));
                }
                body.push_str("}\n");
                ("200 OK", "application/json", body.into_bytes())
            }
            ("GET", "/snapshot") => match ask_snapshot() {
                Ok(Some(data)) => ("200 OK", "application/octet-stream", data.to_vec()),
                Ok(None) => (
                    "503 Service Unavailable",
                    "text/plain",
                    b"no mid-run snapshot under --threads N > 1: the lanes hold no \
                      assembled state (the service checkpoints at shutdown)\n"
                        .to_vec(),
                ),
                Err(answer) => answer,
            },
            ("GET", "/healthz") => ("200 OK", "text/plain", b"ok\n".to_vec()),
            ("POST", "/shutdown") | ("GET", "/shutdown") => {
                shared.stop.store(true, Ordering::Release);
                ("200 OK", "text/plain", b"shutting down\n".to_vec())
            }
            _ => (
                "404 Not Found",
                "text/plain",
                b"routes: /estimate /status /metrics /snapshot /healthz /shutdown\n".to_vec(),
            ),
        }
    };

    respond(&mut stream, status, content_type, &body);
}

/// Writes one complete HTTP/1.0 response.
fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &[u8]) {
    let header = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

/// Answers a request that is refused unread with `status`, then discards
/// what the client is still sending until it closes, so closing on unread
/// bytes cannot reset the connection before the client reads the answer.
fn refuse(mut stream: TcpStream, status: &str) {
    respond(
        &mut stream,
        status,
        "text/plain",
        format!("{status}\n").as_bytes(),
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
    stream.set_read_timeout(Some(Duration::from_secs(1))).ok();
    let mut sink = [0u8; 4096];
    let mut left = 1 << 20;
    while left > 0 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => left -= n.min(left),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use implicate::ImplicationConditions;

    fn template() -> EstimatorConfig {
        EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
            .bitmaps(16)
            .seed(5)
    }

    fn writer() -> AggregateWriter {
        AggregateWriter {
            serving: template().build(),
            template: template(),
            decoders: HashMap::new(),
            checkpoints: Checkpoints {
                path: None,
                every: None,
                last: 0,
            },
            frames: 0,
        }
    }

    fn aggregator() -> Shared {
        Shared {
            stop: AtomicBool::new(false),
            writer_done: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            metrics: MetricsHandle::new(),
            trace: TraceHandle::disabled(),
            fleet: Some(Arc::new(NodeRegistry::new(DEFAULT_STALE_AFTER_MS))),
            edge: None,
            flight: None,
            started: std::time::Instant::now(),
            role: "aggregator",
        }
    }

    /// A full frame carrying `rows` updates, as edge `node` ships it.
    fn full_frame(node: u64, rows: u64) -> bytes::Bytes {
        let mut edge = template().build();
        for a in 0..rows {
            edge.update(&[a], &[a % 3]);
        }
        WireSnapshot::capture(&edge, 1).full_frame(node)
    }

    #[test]
    fn a_full_frame_from_an_unseen_node_is_applied_and_counted() {
        let shared = aggregator();
        let mut writer = writer();
        let kill = AtomicBool::new(false);
        let applied = writer.apply_frame(full_frame(7, 500), &kill, &shared);
        assert!(applied);
        assert!(!kill.load(Ordering::Acquire));
        assert_eq!(shared.accepted.load(Ordering::Relaxed), 500);
        assert_eq!(writer.serving.tuples_seen(), 500);
        assert!(writer.decoders[&7].estimator().is_some());
    }

    #[test]
    fn a_corrupt_frame_kills_the_connection_and_resets_the_node() {
        let shared = aggregator();
        let mut writer = writer();
        let kill = AtomicBool::new(false);
        assert!(writer.apply_frame(full_frame(7, 500), &kill, &shared));
        // The header still parses, but the body is one byte short. A
        // failed full frame leaves the decoder's state as it was, so the
        // reset is apply_frame's doing.
        let good = full_frame(7, 800);
        let corrupt = good.slice(0..good.len() - 1);
        let applied = writer.apply_frame(corrupt, &kill, &shared);
        assert!(!applied);
        assert!(kill.load(Ordering::Acquire));
        assert!(writer.decoders[&7].estimator().is_none());
        assert_eq!(shared.accepted.load(Ordering::Relaxed), 500);
    }
}
