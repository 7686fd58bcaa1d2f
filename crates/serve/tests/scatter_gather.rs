//! Distributed scatter-gather: N edge `implicate-serve` processes
//! ingesting disjoint partitions ship wire snapshots to an aggregator
//! whose published estimate is **bit-for-bit identical** to a
//! single-node run over the union stream — at every settled epoch,
//! across edge reconnects (full-snapshot fallback) and across an
//! aggregator checkpoint → restore.
//!
//! The partitions are *bitmap-disjoint*: rows are routed to edges by
//! the bitmap index their `h_a` hash maps to (`split_rank(h_a) % N`),
//! so every bitmap's entire update history lives on exactly one edge in
//! original stream order. Merging the edge states then reconstructs the
//! single-node state exactly — the same argument that makes the sharded
//! pipeline bit-identical (see DESIGN.md §8.6).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use implicate::sketch::hash::MixHasher;
use implicate::sketch::rank::split_rank;
use implicate::{EstimatorConfig, Fringe, ImplicationConditions, MultiplicityPolicy};

/// Must match the service's field-hasher seed (shared with the CLI).
const FIELD_HASHER_SEED: u64 = 0x00f1_e1d5;

const DEADLINE: Duration = Duration::from_secs(60);

const EDGES: usize = 3;

/// Kills the child process if the test panics before shutdown.
struct Server {
    child: Child,
    ingest: String,
    query: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    fn spawn(extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_implicate-serve"))
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn implicate-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufRead::lines(std::io::BufReader::new(stdout));
        let mut next = || {
            lines
                .next()
                .expect("server announced an address")
                .expect("readable stdout")
        };
        let ingest = next()
            .strip_prefix("serve: ingest listening on ")
            .expect("ingest announcement")
            .to_string();
        let query = next()
            .strip_prefix("serve: query listening on ")
            .expect("query announcement")
            .to_string();
        Server {
            child,
            ingest,
            query,
        }
    }

    fn ingest_rows(&self, rows: &str) {
        let mut conn = TcpStream::connect(&self.ingest).expect("connect ingest");
        conn.write_all(rows.as_bytes()).expect("send rows");
        conn.flush().expect("flush rows");
    }

    fn http(&self, method: &str, path: &str) -> (String, Vec<u8>) {
        let mut conn = TcpStream::connect(&self.query).expect("connect query");
        conn.write_all(format!("{method} {path} HTTP/1.0\r\nHost: t\r\n\r\n").as_bytes())
            .expect("send request");
        let mut response = Vec::new();
        conn.read_to_end(&mut response).expect("read response");
        let split = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("header terminator");
        let head = String::from_utf8_lossy(&response[..split]);
        let status = head.lines().next().unwrap_or("").to_string();
        (status, response[split + 4..].to_vec())
    }

    /// Polls `/estimate` until the published tuple count reaches `want`
    /// — on the aggregator that means every edge's latest state (at
    /// that stream position) has arrived and been merged.
    fn wait_for_tuples(&self, want: u64) -> String {
        let start = Instant::now();
        loop {
            let (status, body) = self.http("GET", "/estimate");
            assert!(status.contains("200"), "estimate failed: {status}");
            let body = String::from_utf8(body).expect("json body");
            if json_u64(&body, "tuples") == want {
                return body;
            }
            assert!(
                start.elapsed() < DEADLINE,
                "timed out waiting for {want} tuples; last: {body}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn shutdown(mut self) {
        let (status, _) = self.http("POST", "/shutdown");
        assert!(status.contains("200"), "shutdown failed: {status}");
        let start = Instant::now();
        loop {
            if let Some(code) = self.child.try_wait().expect("try_wait") {
                assert!(code.success(), "server exited with {code}");
                return;
            }
            assert!(start.elapsed() < DEADLINE, "server never exited");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric {key} in {body}"))
}

/// The service's default conditions/config, mirrored for a library run.
fn serve_default_config() -> EstimatorConfig {
    let cond = ImplicationConditions::builder()
        .max_multiplicity(1)
        .min_support(1)
        .top_confidence(1, 1.0)
        .multiplicity_policy(MultiplicityPolicy::Strict)
        .build();
    EstimatorConfig::new(cond)
        .bitmaps(64)
        .fringe(Fringe::Bounded(4))
        .seed(42)
}

/// Rows with enough repetition to exercise both implication outcomes.
fn workload(n: u64) -> String {
    let mut rows = String::new();
    for i in 0..n {
        let a = if i % 3 == 0 { i % 40 } else { i };
        rows.push_str(&format!("u{a} v{}\n", i % 7));
    }
    rows
}

/// Feeds rows through the same text → fingerprint → pair-hash path the
/// service uses.
fn library_run(rows: &str) -> implicate::ImplicationEstimator {
    let mut est = serve_default_config().build();
    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let pair_hasher = est.pair_hasher();
    let pairs: Vec<(u64, u64)> = rows
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let a = [implicate::text::hash_field(&field_hasher, fields[0])];
            let b = [implicate::text::hash_field(&field_hasher, fields[1])];
            pair_hasher.hash_pair(&a, &b)
        })
        .collect();
    est.update_hashed_batch(&pairs);
    est
}

/// Asserts the served estimate carries exactly the library run's bits.
fn assert_bits_match(body: &str, est: &implicate::ImplicationEstimator) {
    let want = est.estimate_now();
    assert_eq!(json_u64(body, "f0_sup_bits"), want.f0_sup.to_bits());
    assert_eq!(
        json_u64(body, "non_implication_count_bits"),
        want.non_implication_count.to_bits()
    );
    assert_eq!(
        json_u64(body, "implication_count_bits"),
        want.implication_count.to_bits()
    );
}

/// Splits rows into `n` bitmap-disjoint partitions: every row lands on
/// the edge that owns the bitmap its `h_a` routes to, preserving
/// per-bitmap stream order.
fn partition(rows: &str, n: usize) -> Vec<String> {
    let est = serve_default_config().build();
    let pair_hasher = est.pair_hasher();
    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let log2_m = est.bitmap_count().trailing_zeros();
    let mut parts = vec![String::new(); n];
    for line in rows.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let a = [implicate::text::hash_field(&field_hasher, fields[0])];
        let b = [implicate::text::hash_field(&field_hasher, fields[1])];
        let (h_a, _) = pair_hasher.hash_pair(&a, &b);
        let (idx, _) = split_rank(h_a, log2_m);
        let part = &mut parts[idx % n];
        part.push_str(line);
        part.push('\n');
    }
    parts
}

/// Grabs a currently-free localhost port. The aggregator must listen on
/// a *known* port so edges can reconnect to it across its restart.
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port()
}

#[test]
fn aggregated_estimate_is_bit_identical_to_a_single_node_run() {
    let dir = std::env::temp_dir().join(format!("imp-scatter-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let checkpoint = dir.join("aggregate.imps");
    let checkpoint = checkpoint.to_str().expect("utf8 path");

    let agg_ingest = format!("127.0.0.1:{}", free_port());
    let aggregator = Server::spawn(&[
        "--aggregate",
        "--ingest",
        &agg_ingest,
        "--checkpoint",
        checkpoint,
    ]);

    let edges: Vec<Server> = (0..EDGES)
        .map(|i| {
            let id = i.to_string();
            Server::spawn(&[
                "--upstream",
                &agg_ingest,
                "--node-id",
                &id,
                "--publish-every",
                "64",
                "--ship-every",
                "64",
            ])
        })
        .collect();

    let rows = workload(5_000);
    let all_lines: Vec<&str> = rows.lines().collect();
    let prefix = |n: usize| {
        let mut s = all_lines[..n].join("\n");
        s.push('\n');
        s
    };

    // ── Wave 1: first 2 500 rows, bitmap-partitioned across the edges.
    let wave1 = prefix(2_500);
    for (edge, part) in edges.iter().zip(partition(&wave1, EDGES)) {
        assert!(!part.is_empty(), "every edge gets rows in wave 1");
        edge.ingest_rows(&part);
    }
    let body = aggregator.wait_for_tuples(2_500);
    assert_bits_match(&body, &library_run(&wave1));

    // ── Wave 2: the next 1 500 rows, streamed in several chunks so the
    // edges ship *delta* frames between settled epochs.
    let wave2 = prefix(4_000);
    let tail: Vec<String> = partition(&wave2, EDGES)
        .into_iter()
        .zip(partition(&wave1, EDGES))
        .map(|(full, done)| full[done.len()..].to_string())
        .collect();
    for chunk in 0..3 {
        for (edge, part) in edges.iter().zip(&tail) {
            let lines: Vec<&str> = part.lines().collect();
            let lo = lines.len() * chunk / 3;
            let hi = lines.len() * (chunk + 1) / 3;
            if lo < hi {
                let mut payload = lines[lo..hi].join("\n");
                payload.push('\n');
                edge.ingest_rows(&payload);
            }
        }
    }
    let body = aggregator.wait_for_tuples(4_000);
    assert_bits_match(&body, &library_run(&wave2));

    // ── Aggregator restart: graceful shutdown writes the checkpoint;
    // the replacement restores it and listens on the same port. The
    // edges keep running, notice the dead connection, reconnect with
    // backoff, and resync via full-snapshot fallback.
    aggregator.shutdown();
    assert!(
        std::path::Path::new(checkpoint).exists(),
        "aggregator shutdown wrote the checkpoint"
    );
    let aggregator = Server::spawn(&[
        "--aggregate",
        "--ingest",
        &agg_ingest,
        "--checkpoint",
        checkpoint,
    ]);

    // Before any edge resyncs, the restored checkpoint serves queries.
    let (status, snapshot) = aggregator.http("GET", "/snapshot");
    assert!(status.contains("200"), "snapshot after restore: {status}");
    assert!(!snapshot.is_empty());

    // ── Wave 3: the last 1 000 rows drive captures on every edge, so
    // every edge reconnects and the merged state converges on the full
    // 5 000-row stream.
    let wave3_tail: Vec<String> = partition(&rows, EDGES)
        .into_iter()
        .zip(partition(&wave2, EDGES))
        .map(|(full, done)| full[done.len()..].to_string())
        .collect();
    for (edge, part) in edges.iter().zip(&wave3_tail) {
        assert!(!part.is_empty(), "every edge gets rows in wave 3");
        edge.ingest_rows(part);
    }
    let body = aggregator.wait_for_tuples(5_000);
    assert_bits_match(&body, &library_run(&rows));

    // ── Graceful teardown: edges flush their final state upstream
    // before exiting; the aggregate must still match exactly.
    for edge in edges {
        edge.shutdown();
    }
    let body = aggregator.wait_for_tuples(5_000);
    assert_bits_match(&body, &library_run(&rows));
    aggregator.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}
