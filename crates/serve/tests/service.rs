//! End-to-end exercise of `implicate-serve`: TCP line-protocol
//! ingestion, wait-free concurrent queries that stay bit-identical to a
//! library run over the same rows, the Prometheus endpoint, the
//! graceful shutdown → checkpoint → restart round trip, checkpoints at
//! idle publishes, `/snapshot` as the writer's current state, and the
//! error exits of out-of-range estimator flags and of checkpoints built
//! with other flags.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use implicate::ImplicationEstimator;

mod support;
use support::{
    assert_bits_match, assert_state_matches, field_u64, hashed_pairs, library_run, served_snapshot,
    workload, Server, DEADLINE,
};

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
    assert_bits_match(&body, &est);

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
    let restored = ImplicationEstimator::from_bytes(bytes::Bytes::from(snapshot));
    assert_state_matches(&restored.expect("snapshot decodes"), &est);

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
    assert_bits_match(&body, &est);

    let extra = workload(500);
    server.ingest_rows(&extra);
    est.update_hashed_batch(&hashed_pairs(&est.pair_hasher(), &extra));
    let body = server.wait_for_tuples(3_500);
    assert_bits_match(&body, &est);
    // Without --checkpoint-every, /snapshot is still the current state.
    assert_state_matches(&served_snapshot(&server), &est);
    server.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

/// `/snapshot` is encoded on request from the writer's current state:
/// with no checkpoint configured, nothing is encoded while rows arrive,
/// and the answer holds every row applied before the request.
#[test]
fn snapshot_reflects_every_applied_row_without_checkpoints() {
    let server = Server::spawn(&["--publish-every", "256"]);
    let rows = workload(5_000);
    server.ingest_rows(&rows);
    server.wait_for_tuples(5_000);

    let (_, metrics) = server.http("GET", "/metrics");
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    if implicate::MetricsRegistry::enabled() {
        assert!(
            metrics.contains("\nimplicate_snapshot_encodes 0\n"),
            "no encode before a /snapshot request: {metrics}"
        );
    }

    let est = library_run(&rows);
    let restored = served_snapshot(&server);
    assert_state_matches(&restored, &est);
    assert_eq!(restored.to_bytes(), est.to_bytes());
    server.shutdown();
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
                    let (epoch, tuples) = (field_u64(body, "epoch"), field_u64(body, "tuples"));
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    assert!(tuples >= last_tuples, "tuples went backwards");
                    // A view is a consistent pair: the estimate fields
                    // must always be present and parseable.
                    let _ = field_u64(body, "f0_sup_bits");
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
    assert!(field_u64(&body, "epoch") > 0);
    // The lanes hold no assembled mid-run state to encode.
    let (status, _) = server.http("GET", "/snapshot");
    assert!(status.contains("503"), "sharded /snapshot: {status}");
    stop.store(true, std::sync::atomic::Ordering::Release);
    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "queries were served during ingest");
    server.shutdown();
}

/// `--checkpoint-every` holds at idle publishes too: rows that never fill
/// a `--publish-every` interval still reach the checkpoint file while the
/// server runs, so a hard kill cannot lose them.
#[test]
fn checkpoint_every_holds_at_idle_publishes() {
    let dir = std::env::temp_dir().join(format!("imp-serve-idle-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let checkpoint = dir.join("state.imps");
    let server = Server::spawn(&[
        "--publish-every",
        "4096",
        "--checkpoint",
        checkpoint.to_str().expect("utf8 path"),
        "--checkpoint-every",
        "100",
    ]);
    let rows = workload(3_000);
    server.ingest_rows(&rows);
    server.wait_for_tuples(3_000);

    let start = Instant::now();
    let restored = loop {
        // The file is replaced by rename, so any read sees a whole one.
        if let Ok(raw) = std::fs::read(&checkpoint) {
            let est = ImplicationEstimator::from_bytes(bytes::Bytes::from(raw))
                .expect("checkpoint decodes");
            if est.tuples_seen() == 3_000 {
                break est;
            }
        }
        assert!(
            start.elapsed() < DEADLINE,
            "no 3000-tuple checkpoint while idle"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        restored.estimate_now().implication_count.to_bits(),
        library_run(&rows)
            .estimate_now()
            .implication_count
            .to_bits()
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each estimator flag value outside its domain exits 2 with a one-line
/// message naming the flag, before anything is bound.
#[test]
fn out_of_range_estimator_flags_exit_2_naming_the_flag() {
    for (flag, value) in [
        ("--bitmaps", "3"),
        ("--bitmaps", "0"),
        ("--confidence", "150"),
        ("--confidence", "-5"),
        ("--memory-budget", "10"),
        ("--fringe", "65"),
        ("--max-mult", "0"),
        ("--top-c", "0"),
        ("--support", "0"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_implicate-serve"))
            .args([flag, value])
            .output()
            .expect("run implicate-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

/// A checkpoint restores only under the estimator flags it was built
/// with: a differing `--seed`, `--bitmaps` or `--fringe` exits 2 with a
/// one-line message naming the flag.
#[test]
fn checkpoint_built_with_other_flags_exits_2_naming_the_flag() {
    let dir = std::env::temp_dir().join(format!("imp-serve-mismatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let checkpoint = dir.join("state.imps");
    std::fs::write(&checkpoint, library_run(&workload(100)).to_bytes()).expect("write");
    let checkpoint = checkpoint.to_str().expect("utf8 path");
    for (flag, value) in [("--seed", "7"), ("--bitmaps", "32"), ("--fringe", "8")] {
        for role in [&[][..], &["--aggregate"][..]] {
            let mut child = Command::new(env!("CARGO_BIN_EXE_implicate-serve"))
                .args(role)
                .args(["--checkpoint", checkpoint, flag, value])
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn implicate-serve");
            // A server that accepted the checkpoint would run on: stop it
            // and fail rather than wait for it.
            let start = Instant::now();
            while child.try_wait().expect("poll child").is_none() {
                if start.elapsed() > DEADLINE {
                    let _ = child.kill();
                    panic!("{flag} {value}: the server started on the checkpoint");
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            let out = child.wait_with_output().expect("collect output");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{flag} {value}: {stderr}");
            assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
            assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
