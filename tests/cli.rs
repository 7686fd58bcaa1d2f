//! End-to-end tests of the `implicate` command-line binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_cli(args: &[&str], stdin: &str) -> (String, String, bool) {
    run_cli_bytes(args, stdin.as_bytes())
}

fn run_cli_bytes(args: &[&str], stdin: &[u8]) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_implicate"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn implicate");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin)
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// A stream with `loyal` single-destination sources and `fickle`
/// two-destination sources.
fn traffic(loyal: u64, fickle: u64) -> String {
    let mut s = String::new();
    for a in 0..loyal {
        s.push_str(&format!("src{a} dst{a}\n"));
    }
    for a in 0..fickle {
        s.push_str(&format!("fsrc{a} dstA\nfsrc{a} dstB\n"));
    }
    s
}

#[test]
fn counts_loyal_sources_from_stdin() {
    let (stdout, stderr, ok) = run_cli(&["--lhs", "0", "--rhs", "1"], &traffic(4000, 4000));
    assert!(ok, "stderr: {stderr}");
    let answer: f64 = stdout.trim().parse().expect("numeric answer");
    assert!(
        (2000.0..7000.0).contains(&answer),
        "answer {answer} implausible for 4000 loyal sources"
    );
    assert!(stderr.contains("rows 12000"), "stderr: {stderr}");
}

#[test]
fn complement_flag_reports_nonimplications() {
    let (stdout, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--complement"],
        &traffic(4000, 4000),
    );
    assert!(ok, "stderr: {stderr}");
    let answer: f64 = stdout.trim().parse().expect("numeric answer");
    assert!(
        (2000.0..7000.0).contains(&answer),
        "complement {answer} implausible for 4000 fickle sources"
    );
}

#[test]
fn csv_delimiter_and_comments() {
    let input = "# header comment\nS1,D2\nS2,D1\n\nS1,D2\n";
    let (_, stderr, ok) = run_cli(&["--lhs", "0", "--rhs", "1", "--delimiter", ","], input);
    assert!(ok);
    assert!(stderr.contains("rows 3"), "stderr: {stderr}");
}

#[test]
fn short_rows_are_skipped_not_fatal() {
    let input = "a b\nonly-one-field\nc d\n";
    let (_, stderr, ok) = run_cli(&["--lhs", "0", "--rhs", "1"], input);
    assert!(ok);
    assert!(stderr.contains("skipped 1"), "stderr: {stderr}");
}

#[test]
fn save_and_resume_roundtrip() {
    let dir = std::env::temp_dir().join(format!("implicate-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let snap = dir.join("state.imps");
    let snap_s = snap.to_str().expect("utf-8 path");

    let (_, stderr1, ok1) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--save", snap_s],
        &traffic(2000, 0),
    );
    assert!(ok1, "stderr: {stderr1}");
    assert!(stderr1.contains("snapshot: wrote"), "stderr: {stderr1}");

    // Resume and feed the second half; the estimate must reflect both.
    let more: String = (2000..4000u64)
        .map(|a| format!("src{a} dst{a}\n"))
        .collect();
    let (stdout2, stderr2, ok2) = run_cli(&["--lhs", "0", "--rhs", "1", "--resume", snap_s], &more);
    assert!(ok2, "stderr: {stderr2}");
    let answer: f64 = stdout2.trim().parse().expect("numeric answer");
    assert!(
        (2500.0..6000.0).contains(&answer),
        "resumed answer {answer} should reflect all 4000 sources"
    );

    // The snapshot restores only under the estimator flags it was built
    // with: a differing one exits 2, the error line naming it.
    for (flag, value) in [("--seed", "7"), ("--bitmaps", "32"), ("--fringe", "8")] {
        let out = Command::new(env!("CARGO_BIN_EXE_implicate"))
            .args(["--lhs", "0", "--rhs", "1", "--resume", snap_s, flag, value])
            .stdin(Stdio::null())
            .output()
            .expect("run implicate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.contains(flag), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_flag_prints_metrics_report() {
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--stats"],
        &traffic(1000, 500),
    );
    assert!(ok, "stderr: {stderr}");
    if cfg!(feature = "metrics") {
        assert!(stderr.contains("metrics:"), "stderr: {stderr}");
        // 1000 loyal + 500 fickle × 2 rows = 2000 tuples, exactly.
        let tuples = stderr
            .lines()
            .find_map(|l| {
                let mut it = l.split_whitespace();
                (it.next() == Some("estimator.tuples")).then(|| it.next())
            })
            .flatten()
            .and_then(|v| v.parse::<u64>().ok())
            .expect("estimator.tuples line");
        assert_eq!(tuples, 2000, "stderr: {stderr}");
        // The report covers all three metric families.
        for name in [
            "estimator.dirty_multiplicity",
            "ingest.shards",
            "snapshot.encodes",
        ] {
            assert!(stderr.contains(name), "missing {name}: {stderr}");
        }
    } else {
        assert!(stderr.contains("compiled out"), "stderr: {stderr}");
    }
}

#[test]
fn stats_interval_emits_line_protocol() {
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--stats-interval", "1000"],
        &traffic(2000, 0),
    );
    assert!(ok, "stderr: {stderr}");
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("implicate "))
        .collect();
    assert_eq!(lines.len(), 2, "stderr: {stderr}");
    if cfg!(feature = "metrics") {
        assert!(
            lines[0].contains("estimator.tuples=1000i"),
            "first sample: {}",
            lines[0]
        );
        assert!(
            lines[1].contains("estimator.tuples=2000i"),
            "second sample: {}",
            lines[1]
        );
    } else {
        assert!(lines[0].contains("metrics_enabled=false"), "{}", lines[0]);
    }
}

#[test]
fn stats_with_parallel_ingestion_reports_shards() {
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--threads", "2", "--stats"],
        &traffic(3000, 0),
    );
    assert!(ok, "stderr: {stderr}");
    if cfg!(feature = "metrics") {
        let shards = stderr
            .lines()
            .find_map(|l| {
                let mut it = l.split_whitespace();
                (it.next() == Some("ingest.shards")).then(|| it.next())
            })
            .flatten()
            .and_then(|v| v.parse::<u64>().ok())
            .expect("ingest.shards line");
        assert_eq!(shards, 2, "stderr: {stderr}");
        assert!(stderr.contains("ingest.shard0.batches"), "stderr: {stderr}");
    } else {
        assert!(stderr.contains("compiled out"), "stderr: {stderr}");
    }
}

#[test]
fn parallel_stats_interval_publishes_a_view_without_stalling_lanes() {
    // Interval emissions under --threads N read the epoch-published view
    // instead of barriering the shards: each emission publishes a fresh
    // view (view.publishes advances, view.epoch / view.published_tuples /
    // view.age_rows gauges appear) and the published tuple count is a
    // valid prefix — never more than the routed stream, with any lag
    // accounted for in view.age_rows.
    let (_, stderr, ok) = run_cli(
        &[
            "--lhs",
            "0",
            "--rhs",
            "1",
            "--threads",
            "2",
            "--stats-interval",
            "1000",
        ],
        &traffic(2000, 0),
    );
    assert!(ok, "stderr: {stderr}");
    let lines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("implicate "))
        .collect();
    assert!(!lines.is_empty(), "stderr: {stderr}");
    if cfg!(feature = "metrics") {
        // One emission at every multiple of the interval, each covering
        // exactly the rows routed when it was taken.
        assert_eq!(lines.len(), 2, "stderr: {stderr}");
        for (emission, routed) in lines.iter().zip([1000, 2000]) {
            let field = |name: &str| -> u64 {
                emission
                    .split([' ', ','])
                    .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
                    .and_then(|v| v.trim_end_matches('i').parse::<u64>().ok())
                    .unwrap_or_else(|| panic!("no {name} in emission: {emission}"))
            };
            assert!(field("view.publishes") >= 1, "no publish: {emission}");
            let published = field("view.published_tuples");
            let age = field("view.age_rows");
            assert!(published <= routed, "published beyond stream: {emission}");
            assert_eq!(
                published + age,
                routed,
                "published + lag must cover every routed row: {emission}"
            );
        }
        // The final answer still reflects every row.
        assert!(stderr.contains("rows 2000"), "stderr: {stderr}");
    } else {
        assert!(lines[0].contains("metrics_enabled=false"), "{}", lines[0]);
    }
}

/// The `--stats` report's `estimator.mem_bytes` value.
fn mem_bytes(stderr: &str) -> u64 {
    stderr
        .lines()
        .find_map(|l| l.trim().strip_prefix("estimator.mem_bytes "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no estimator.mem_bytes line: {stderr}"))
}

#[test]
fn stats_mem_bytes_is_the_same_at_one_and_two_threads() {
    // Lanes reassemble the sequential state bit for bit, so the final
    // footprint gauge must not depend on --threads either.
    let input = traffic(3000, 3000);
    let run = |threads: &str| {
        let (_, stderr, ok) = run_cli(
            &["--lhs", "0", "--rhs", "1", "--threads", threads, "--stats"],
            &input,
        );
        assert!(ok, "stderr: {stderr}");
        stderr
    };
    let (one, two) = (run("1"), run("2"));
    if cfg!(feature = "metrics") {
        assert_eq!(mem_bytes(&one), mem_bytes(&two), "--threads 2: {two}");
    } else {
        assert!(two.contains("compiled out"), "stderr: {two}");
    }
}

#[test]
fn invalid_utf8_input_is_a_read_error() {
    let (_, stderr, ok) = run_cli_bytes(&["--lhs", "0", "--rhs", "1"], b"a b\nc \xff\xfe d\n");
    assert!(!ok, "invalid UTF-8 must fail the run");
    assert!(stderr.contains("read error"), "stderr: {stderr}");
}

#[test]
fn stats_format_prom_emits_parseable_exposition() {
    let (_, stderr, ok) = run_cli(
        &[
            "--lhs",
            "0",
            "--rhs",
            "1",
            "--stats-interval",
            "1000",
            "--stats-format",
            "prom",
        ],
        &traffic(1000, 0),
    );
    assert!(ok, "stderr: {stderr}");
    if cfg!(feature = "metrics") {
        // Round-trip the exposition: every `# TYPE` line is followed by a
        // sample line for the same flattened metric name.
        let lines: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("# TYPE ") || l.starts_with("implicate_"))
            .collect();
        assert!(!lines.is_empty(), "stderr: {stderr}");
        let mut samples = 0;
        for pair in lines.chunks(2) {
            let [ty, sample] = pair else {
                panic!("dangling TYPE line: {pair:?}")
            };
            let name = ty
                .strip_prefix("# TYPE ")
                .unwrap()
                .split(' ')
                .next()
                .unwrap();
            assert!(
                sample.starts_with(&format!("{name} ")),
                "sample {sample:?} does not match {ty:?}"
            );
            samples += 1;
        }
        assert!(samples > 5, "stderr: {stderr}");
        assert!(
            stderr.contains("\nimplicate_estimator_tuples 1000\n"),
            "stderr: {stderr}"
        );
    } else {
        assert!(stderr.contains("metrics compiled out"), "stderr: {stderr}");
    }
}

#[test]
fn trace_out_writes_jsonl_journal() {
    let dir = std::env::temp_dir().join(format!("implicate-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("events.jsonl");
    let path_s = path.to_str().expect("utf-8 path");

    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--trace-out", path_s],
        &traffic(500, 500),
    );
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("trace: wrote"), "stderr: {stderr}");
    let jsonl = std::fs::read_to_string(&path).expect("trace file written");
    let summary = jsonl.lines().last().expect("summary line");
    assert!(
        summary.contains("\"event\":\"journal_summary\""),
        "{summary}"
    );
    if cfg!(feature = "trace") {
        assert!(summary.contains("\"enabled\":true"), "{summary}");
        // 500 fickle sources each turn dirty once: events must be present.
        assert!(jsonl.contains("\"event\":\"dirty\""), "no dirty events");
        assert!(
            jsonl.lines().count() > 100,
            "suspiciously few events:\n{summary}"
        );
    } else {
        assert!(summary.contains("\"enabled\":false"), "{summary}");
        assert_eq!(jsonl.lines().count(), 1, "summary only when compiled out");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn audit_reports_error_trajectory_and_summary() {
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--audit", "1000"],
        &traffic(2000, 0),
    );
    assert!(ok, "stderr: {stderr}");
    let samples: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("audit ") && l.contains("rel error"))
        .collect();
    assert_eq!(samples.len(), 2, "stderr: {stderr}");
    assert!(samples[0].starts_with("audit 1000 rows:"), "{}", samples[0]);
    // Final summary with the last relative error; loyal-only traffic must
    // land well inside the PCSA envelope (0.78/√64 ≈ 9.8%, allow 4σ).
    let summary = stderr
        .lines()
        .find(|l| l.starts_with("audit: "))
        .expect("final audit summary");
    assert!(summary.contains("2 samples over 2000 rows"), "{summary}");
    let err: f64 = summary
        .rsplit_once("final rel error ")
        .and_then(|(_, v)| v.trim().parse().ok())
        .expect("parse final rel error");
    assert!(err < 0.40, "final rel error {err} out of band: {summary}");
}

#[test]
fn audit_rejects_parallel_ingestion() {
    let (_, stderr, ok) = run_cli(
        &[
            "--lhs",
            "0",
            "--rhs",
            "1",
            "--audit",
            "100",
            "--threads",
            "2",
        ],
        "",
    );
    assert!(!ok);
    assert!(stderr.contains("--audit requires --threads 1"), "{stderr}");
}

#[test]
fn catalog_under_threads_matches_sequential_catalog() {
    let dir = std::env::temp_dir().join(format!("implicate-qcat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let qfile = dir.join("queries.txt");
    std::fs::write(
        &qfile,
        "loyal    one-to-one  0  1  support=1\n\
         sources  distinct    0  -\n\
         fanout   more-than   0  1  k=2\n",
    )
    .expect("write query file");
    let qfile_s = qfile.to_str().expect("utf-8 path");

    let input = traffic(3000, 1500);
    let (seq_out, seq_err, seq_ok) = run_cli(&["--query-file", qfile_s], &input);
    assert!(seq_ok, "stderr: {seq_err}");
    for threads in ["2", "3"] {
        let (par_out, par_err, par_ok) =
            run_cli(&["--query-file", qfile_s, "--threads", threads], &input);
        assert!(par_ok, "stderr: {par_err}");
        assert_eq!(
            par_out, seq_out,
            "catalog answers must be bit-identical under --threads {threads}"
        );
        assert!(par_err.contains("rows 6000"), "stderr: {par_err}");
        assert!(
            par_err.contains(&format!("over {threads} lanes")),
            "stderr: {par_err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_catalog_watch_reports_settled_per_query_views() {
    let dir = std::env::temp_dir().join(format!("implicate-qwatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let qfile = dir.join("queries.txt");
    std::fs::write(&qfile, "loyal one-to-one 0 1 support=1\n").expect("write query file");
    let qfile_s = qfile.to_str().expect("utf-8 path");

    let input = traffic(2000, 0);
    let (_, stderr, ok) = run_cli(
        &[
            "--query-file",
            qfile_s,
            "--threads",
            "2",
            "--watch",
            "1000",
            "--stats-interval",
            "1000",
        ],
        &input,
    );
    assert!(ok, "stderr: {stderr}");
    // Watch boundaries publish + barrier, so the matched count is exact.
    assert!(
        stderr.contains("1000 rows [loyal]:") && stderr.contains("(1000 matched)"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("implicate_query_tuples{query=\"loyal\"} 1000"),
        "stderr: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn catalog_audit_still_requires_one_thread() {
    let dir = std::env::temp_dir().join(format!("implicate-qaudit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let qfile = dir.join("queries.txt");
    std::fs::write(&qfile, "loyal one-to-one 0 1 support=1\n").expect("write query file");
    let qfile_s = qfile.to_str().expect("utf-8 path");
    let (_, stderr, ok) = run_cli(
        &["--query-file", qfile_s, "--threads", "2", "--audit", "100"],
        "",
    );
    assert!(!ok);
    assert!(stderr.contains("--audit requires --threads 1"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_option_fails_with_usage() {
    let (_, stderr, ok) = run_cli(&["--bogus"], "");
    assert!(!ok);
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn missing_required_columns_fails() {
    let (_, stderr, ok) = run_cli(&[], "");
    assert!(!ok);
    assert!(stderr.contains("--lhs is required"), "stderr: {stderr}");
}

#[test]
fn parallel_save_writes_the_same_snapshot_bytes_as_sequential() {
    let dir = std::env::temp_dir().join(format!("implicate-psave-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = traffic(3000, 1500);
    let mut reference: Option<(String, Vec<u8>)> = None;
    for threads in ["1", "2", "3"] {
        let snap = dir.join(format!("t{threads}.imps"));
        let snap_s = snap.to_str().expect("utf-8 path");
        let (stdout, stderr, ok) = run_cli(
            &[
                "--lhs",
                "0",
                "--rhs",
                "1",
                "--threads",
                threads,
                "--save",
                snap_s,
            ],
            &input,
        );
        assert!(ok, "stderr: {stderr}");
        let bytes = std::fs::read(&snap).expect("snapshot written");
        match &reference {
            None => reference = Some((stdout, bytes)),
            Some((seq_out, seq_bytes)) => {
                assert_eq!(&stdout, seq_out, "answer differs at --threads {threads}");
                assert!(
                    &bytes == seq_bytes,
                    "snapshot bytes differ at --threads {threads}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_resume_continues_a_checkpoint_exactly() {
    // Save a prefix, then resume it with and without lanes and save
    // again: both continuations write the same bytes.
    let dir = std::env::temp_dir().join(format!("implicate-presume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let prefix = dir.join("prefix.imps");
    let prefix_s = prefix.to_str().expect("utf-8 path");
    let (_, stderr, ok) = run_cli(
        &["--lhs", "0", "--rhs", "1", "--save", prefix_s],
        &traffic(2000, 500),
    );
    assert!(ok, "stderr: {stderr}");

    let more: String = (2000..5000u64)
        .map(|a| format!("src{a} dst{}\nsrc{} dstX\n", a % 7, a % 300))
        .collect();
    let mut outputs = Vec::new();
    for threads in ["1", "3"] {
        let out = dir.join(format!("resumed{threads}.imps"));
        let out_s = out.to_str().expect("utf-8 path");
        let (stdout, stderr, ok) = run_cli(
            &[
                "--lhs",
                "0",
                "--rhs",
                "1",
                "--threads",
                threads,
                "--resume",
                prefix_s,
                "--save",
                out_s,
            ],
            &more,
        );
        assert!(ok, "stderr: {stderr}");
        outputs.push((stdout, std::fs::read(&out).expect("snapshot written")));
    }
    assert_eq!(outputs[0].0, outputs[1].0, "resumed answers differ");
    assert!(
        outputs[0].1 == outputs[1].1,
        "resumed snapshot bytes differ"
    );
    std::fs::remove_dir_all(&dir).ok();
}

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
        let out = Command::new(env!("CARGO_BIN_EXE_implicate"))
            .args(["--lhs", "0", "--rhs", "1", flag, value])
            .stdin(Stdio::null())
            .output()
            .expect("run implicate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.contains(flag), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}
