//! End-to-end exercise of `implicate-serve`: TCP line-protocol
//! ingestion, wait-free concurrent queries that stay bit-identical to a
//! library run over the same rows, the Prometheus endpoint, and the
//! graceful shutdown → checkpoint → restart round trip.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use implicate::sketch::hash::MixHasher;
use implicate::{EstimatorConfig, Fringe, ImplicationConditions, MultiplicityPolicy};

/// Must match the service's field-hasher seed (shared with the CLI).
const FIELD_HASHER_SEED: u64 = 0x00f1_e1d5;

const DEADLINE: Duration = Duration::from_secs(60);

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
    /// Spawns the binary with `extra` options and reads the announced
    /// listener addresses off stdout.
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

    /// Sends rows over the ingest socket and closes the connection.
    fn ingest_rows(&self, rows: &str) {
        let mut conn = TcpStream::connect(&self.ingest).expect("connect ingest");
        conn.write_all(rows.as_bytes()).expect("send rows");
        conn.flush().expect("flush rows");
        // Dropping the stream closes it; the server flushes on EOF.
    }

    /// One HTTP request; returns (status line, body).
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

    /// Polls `/estimate` until the published tuple count reaches `want`.
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

    /// Graceful stop; asserts the process exits cleanly.
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

/// Pulls an unsigned integer field out of the flat one-object JSON the
/// service emits (no nesting, no string values with digits).
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

/// Feeds the same rows through the same text → fingerprint → pair-hash
/// path the service uses and returns the resulting estimator.
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
fn assert_bits_match(body: &str, est: &mut implicate::ImplicationEstimator) {
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

#[test]
fn served_estimates_match_a_library_run_and_survive_restart() {
    let dir = std::env::temp_dir().join(format!("imp-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let checkpoint = dir.join("state.imps");
    let checkpoint = checkpoint.to_str().expect("utf8 path");

    let rows = workload(3_000);
    let mut est = library_run(&rows);

    let server = Server::spawn(&[
        "--publish-every",
        "256",
        "--checkpoint",
        checkpoint,
        "--checkpoint-every",
        "1000",
    ]);
    server.ingest_rows(&rows);
    let body = server.wait_for_tuples(3_000);
    // The service hashed, routed, and published the exact same f64s the
    // library computes over the same rows — bits, not approximations.
    assert_bits_match(&body, &mut est);

    // Malformed and comment lines are skipped, not fatal.
    server.ingest_rows("# comment\n\nonly_one_column\n");

    let (status, metrics) = server.http("GET", "/metrics");
    assert!(status.contains("200"));
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    assert!(metrics.starts_with('#'), "exposition format: {metrics}");
    #[cfg(feature = "metrics")]
    {
        assert!(
            metrics.contains("implicate_view_publishes"),
            "view metrics exported: {metrics}"
        );
        assert!(metrics.contains("# TYPE implicate_view_epoch gauge"));
    }

    let (status, snapshot) = server.http("GET", "/snapshot");
    assert!(status.contains("200"), "snapshot endpoint: {status}");
    assert!(!snapshot.is_empty());

    let (status, _) = server.http("GET", "/healthz");
    assert!(status.contains("200"));

    server.shutdown();
    assert!(
        std::path::Path::new(checkpoint).exists(),
        "graceful shutdown wrote the checkpoint"
    );

    // Restart from the checkpoint: the published state picks up exactly
    // where the previous process stopped, then keeps ingesting.
    let server = Server::spawn(&["--publish-every", "256", "--checkpoint", checkpoint]);
    let body = server.wait_for_tuples(3_000);
    assert_bits_match(&body, &mut est);

    let extra = workload(500);
    server.ingest_rows(&extra);
    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let pair_hasher = est.pair_hasher();
    let pairs: Vec<(u64, u64)> = extra
        .lines()
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let a = [implicate::text::hash_field(&field_hasher, fields[0])];
            let b = [implicate::text::hash_field(&field_hasher, fields[1])];
            pair_hasher.hash_pair(&a, &b)
        })
        .collect();
    est.update_hashed_batch(&pairs);
    let body = server.wait_for_tuples(3_500);
    assert_bits_match(&body, &mut est);
    server.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_queries_ride_a_sharded_ingest_without_blocking() {
    let server = Server::spawn(&["--threads", "2", "--publish-every", "128"]);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Hammer /estimate from several connections while rows stream in.
    // Each response must be a well-formed published view; per thread the
    // observed epochs and tuple counts must be monotone.
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = std::sync::Arc::clone(&stop);
            let query = server.query.clone();
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut last_tuples = 0u64;
                let mut observations = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(25));
                    // Transient connect/reset errors just mean the
                    // accept queue is briefly full on a loaded box —
                    // retry; correctness is judged on successful reads.
                    let Ok(response) = (|| -> std::io::Result<Vec<u8>> {
                        let mut conn = TcpStream::connect(&query)?;
                        conn.write_all(b"GET /estimate HTTP/1.0\r\n\r\n")?;
                        let mut response = Vec::new();
                        conn.read_to_end(&mut response)?;
                        Ok(response)
                    })() else {
                        continue;
                    };
                    let body = String::from_utf8(response).expect("utf8");
                    let body = body.split("\r\n\r\n").nth(1).expect("body");
                    let (epoch, tuples) = (json_u64(body, "epoch"), json_u64(body, "tuples"));
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    assert!(tuples >= last_tuples, "tuples went backwards");
                    // A view is a consistent pair: the estimate fields
                    // must always be present and parseable.
                    let _ = json_u64(body, "f0_sup_bits");
                    (last_epoch, last_tuples) = (epoch, tuples);
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    // Stream the workload in chunks over several connections, as a
    // fleet of emitters would.
    let rows = workload(24_000);
    let lines: Vec<&str> = rows.lines().collect();
    for chunk in lines.chunks(6_000) {
        let mut payload = chunk.join("\n");
        payload.push('\n');
        server.ingest_rows(&payload);
    }

    let body = server.wait_for_tuples(24_000);
    assert!(json_u64(&body, "epoch") > 0);
    stop.store(true, std::sync::atomic::Ordering::Release);
    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "queries were served during ingest");
    server.shutdown();
}
