//! End-to-end coverage of the catalog role (DESIGN.md §8.8) and of the
//! edge idle keep-alive: a quiet-but-connected edge must stay `live`
//! on the aggregator's registry instead of decaying to `stale` for
//! mere quietness.

use std::time::{Duration, Instant};

use implicate::lint_prometheus;

mod support;
use support::{field_u64, node_health, node_json, Server, DEADLINE};

/// An idle edge with the keep-alive on stays `live` across several
/// staleness windows, while an identically-idle edge with the
/// keep-alive disabled decays to `stale` — isolating the keep-alive as
/// the thing that preserves liveness.
#[test]
fn idle_edge_with_keepalive_stays_live() {
    let agg = Server::spawn(&["--aggregate", "--stale-after", "1500"]);
    let alive = Server::spawn(&[
        "--upstream",
        &agg.ingest,
        "--node-id",
        "1",
        "--publish-every",
        "8",
        "--ship-every",
        "8",
        "--keepalive-ms",
        "200",
    ]);
    let quiet = Server::spawn(&[
        "--upstream",
        &agg.ingest,
        "--node-id",
        "2",
        "--publish-every",
        "8",
        "--ship-every",
        "8",
        "--keepalive-ms",
        "0",
    ]);

    for (edge, tag) in [(&alive, "a"), (&quiet, "q")] {
        let rows: String = (0..16).map(|i| format!("{tag}{i} v{}\n", i % 3)).collect();
        edge.ingest_rows(&rows);
    }
    let body = agg.wait_status("both edges applied", |b| {
        [1, 2]
            .iter()
            .all(|&i| node_json(b, i).is_some_and(|n| field_u64(&n, "tuples") == 16))
    });
    let frames_before = field_u64(&node_json(&body, 1).unwrap(), "frames");

    // Neither edge ingests anything from here on. The keep-alive edge
    // must hold `live` for the whole idle stretch (several staleness
    // windows); the silent one must decay.
    let body = agg.wait_status("silent edge stale", |b| node_health(b, 2) == "stale");
    assert_eq!(
        node_health(&body, 1),
        "live",
        "keep-alive edge decayed during idle: {body}"
    );
    let n1 = node_json(&body, 1).unwrap();
    assert!(
        field_u64(&n1, "frames") > frames_before,
        "no keep-alive frames flowed while idle: {n1}"
    );
    // Keep-alive frames are liveness only — they must not invent data.
    assert_eq!(field_u64(&n1, "tuples"), 16, "{n1}");

    // Hold live across one more full staleness window to rule out a
    // lucky single refresh.
    std::thread::sleep(Duration::from_millis(1600));
    let (status, body) = agg.get("/status");
    assert!(status.contains("200"), "{status}");
    assert_eq!(node_health(&body, 1), "live", "{body}");
}

/// Catalog-role HTTP lifecycle: register over POST, answer per-query
/// from one shared pass, list, expose labeled metrics, retire over
/// DELETE.
#[test]
fn catalog_role_registers_answers_and_retires_over_http() {
    let srv = Server::spawn(&["--catalog", "--arity", "3", "--publish-every", "64"]);

    let (status, body) = srv.http_text("POST", "/query", "loyal one-to-one 0 1\n");
    assert!(status.contains("200"), "{status}: {body}");
    assert!(body.contains("\"name\":\"loyal\""), "{body}");
    let loyal_id = field_u64(&body, "id");

    // 200 sources, each loyal to a single destination.
    let rows: String = (0..1000)
        .map(|i| format!("s{} d{} t{}\n", i % 200, i % 200, i % 2))
        .collect();
    srv.ingest_rows(&rows);
    srv.wait_status("rows accepted", |b| field_u64(b, "accepted") == 1000);

    let wait_estimate = |query: &str, tuples: u64| -> String {
        let start = Instant::now();
        loop {
            let (status, body) = srv.get(&format!("/estimate?query={query}"));
            assert!(status.contains("200"), "{status}: {body}");
            if field_u64(&body, "tuples") == tuples {
                return body;
            }
            assert!(
                start.elapsed() < DEADLINE,
                "estimate for {query} never reached {tuples} tuples; last: {body}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    let est = wait_estimate("loyal", 1000);
    let answer: f64 = {
        let at = est.find("\"answer\":").expect("answer field") + "\"answer\":".len();
        est[at..]
            .chars()
            .take_while(|c| !matches!(c, ','))
            .collect::<String>()
            .parse()
            .expect("numeric answer")
    };
    assert!(
        (answer - 200.0).abs() < 60.0,
        "~200 loyal sources, got {answer}"
    );
    // Lookup by id and by name resolve to the same query.
    let (_, by_id) = srv.get(&format!("/estimate?query={loyal_id}"));
    assert!(by_id.contains("\"name\":\"loyal\""), "{by_id}");

    // A query registered mid-stream answers from its own registration
    // point: it sees none of the 1000 rows already consumed.
    let (status, body) = srv.http_text("POST", "/query", "late distinct 0 -\n");
    assert!(status.contains("200"), "{status}: {body}");
    let late_id = field_u64(&body, "id");
    assert_ne!(late_id, loyal_id);
    let rows: String = (0..300).map(|i| format!("x{i} y z\n")).collect();
    srv.ingest_rows(&rows);
    let late = wait_estimate("late", 300);
    assert_eq!(field_u64(&late, "tuples"), 300, "{late}");

    // Malformed and duplicate registrations are client errors.
    let (status, _) = srv.http_text("POST", "/query", "bad unknown-kind 0 1\n");
    assert!(status.contains("400"), "{status}");
    let (status, body) = srv.http_text("POST", "/query", "loyal one-to-one 0 1\n");
    assert!(status.contains("400"), "{status}: {body}");
    let (status, body) = srv.http_text("POST", "/query", "wide one-to-one 0 7\n");
    assert!(
        status.contains("400"),
        "out-of-arity column: {status}: {body}"
    );

    let (status, body) = srv.get("/queries");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"name\":\"loyal\""), "{body}");
    assert!(body.contains("\"name\":\"late\""), "{body}");

    let (status, metrics) = srv.get("/metrics");
    assert!(status.contains("200"), "{status}");
    lint_prometheus(&metrics).expect("catalog exposition lints");
    // `loyal` is unfiltered, so it also consumed the 300 rows ingested
    // after `late` registered: 1000 + 300.
    assert!(
        metrics.contains("implicate_query_tuples{query=\"loyal\"} 1300"),
        "{metrics}"
    );
    assert!(metrics.contains("implicate_catalog_queries 2"), "{metrics}");

    let (status, body) = srv.get("/status");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"role\":\"catalog\""), "{body}");
    assert!(body.contains("\"queries\":2"), "{body}");

    // Retire: the id stops answering, the name frees up for reuse.
    let (status, _) = srv.http_text("DELETE", &format!("/query/{loyal_id}"), "");
    assert!(status.contains("200"), "{status}");
    let (status, _) = srv.get("/estimate?query=loyal");
    assert!(status.contains("404"), "retired query still answers");
    let (status, _) = srv.http_text("DELETE", &format!("/query/{loyal_id}"), "");
    assert!(status.contains("404"), "double retire should 404");
    let (status, body) = srv.http_text("POST", "/query", "loyal one-to-one 1 0\n");
    assert!(status.contains("200"), "name not freed: {status}: {body}");

    // No single-estimator snapshot exists in catalog mode.
    let (status, _) = srv.get("/snapshot");
    assert!(status.contains("404"), "{status}");

    let (status, _) = srv.http_text("POST", "/shutdown", "");
    assert!(status.contains("200"), "{status}");
}

/// A body over the 64 KiB cap is refused whole: it must not be cut to
/// the cap and then parsed as a spec line.
#[test]
fn oversized_query_body_is_refused_and_registers_nothing() {
    let srv = Server::spawn(&["--catalog", "--arity", "3"]);
    let spec = "big one-to-one 0 1";
    let body = format!("{spec}{}\n", " ".repeat(70_000 - spec.len() - 1));
    assert_eq!(body.len(), 70_000);
    let (status, reply) = srv.http_text("POST", "/query", &body);
    assert!(status.contains("413"), "{status}: {reply}");

    let (status, list) = srv.get("/queries");
    assert!(status.contains("200"), "{status}");
    assert!(!list.contains("\"name\":\"big\""), "{list}");
    let (status, _) = srv.http_text("POST", "/shutdown", "");
    assert!(status.contains("200"), "{status}");
}

/// A header over 8 KiB is refused whole: the request line before the
/// cut must not be served.
#[test]
fn oversized_request_header_is_refused() {
    let srv = Server::spawn(&["--catalog", "--arity", "3"]);
    let request = format!(
        "GET /healthz HTTP/1.0\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(9 * 1024)
    );
    let status = srv.raw_status(request.as_bytes());
    assert!(status.contains("431"), "{status}");

    let (status, _) = srv.get("/healthz");
    assert!(
        status.contains("200"),
        "a normal request still works: {status}"
    );
    let (status, _) = srv.http_text("POST", "/shutdown", "");
    assert!(status.contains("200"), "{status}");
}

/// A spec line whose lhs and rhs overlap is a client error that leaves
/// the catalog writer serving: the next registration still succeeds and
/// only it is listed.
#[test]
fn overlapping_query_columns_are_refused_and_the_service_stays_up() {
    let srv = Server::spawn(&["--catalog", "--arity", "3"]);
    let (status, body) = srv.http_text("POST", "/query", "x one-to-one 0 0\n");
    assert!(status.contains("400"), "{status}: {body}");
    assert!(body.contains("disjoint"), "{body}");

    let (status, body) = srv.http_text("POST", "/query", "loyal one-to-one 0 1\n");
    assert!(status.contains("200"), "{status}: {body}");
    let (status, list) = srv.get("/queries");
    assert!(status.contains("200"), "{status}");
    assert!(list.contains("\"name\":\"loyal\""), "{list}");
    assert!(!list.contains("\"name\":\"x\""), "{list}");
    srv.shutdown();
}
