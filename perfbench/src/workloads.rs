//! The three workloads: what each runs, measures and checks.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::{Duration, Instant};

use implicate::spec::QuerySpec;
use implicate::ImplicationEstimator;

use crate::gen;
use crate::proc;
use crate::replay::{self, Fingerprints};
use crate::serve::{self, Bits, Ops, Server, Steady};
use crate::spans::Tracer;
use crate::stats::{mean, median, quantile};

/// Rows in the `cli-ingest` input (about 80 MB of text).
const INGEST_ROWS: u64 = 3_000_000;
/// Rows in the `cli-catalog` input.
const CATALOG_ROWS: u64 = 800_000;
/// `--threads` of the `cli-catalog` command.
const CATALOG_THREADS: usize = 2;
/// `serve-mixed`: rows behind the restored checkpoint, and rows of each
/// burst.
const SERVE_PREFIX_ROWS: u64 = 500_000;
const SERVE_BURST_ROWS: u64 = 3_000_000;
/// `serve-mixed` restarts that each restore the checkpoint and burst; the
/// middle one then runs the steady phase.
const SERVE_SESSIONS: usize = 5;
/// Further `serve-mixed` restarts that only time set-up (restore to the
/// first `/healthz` 200) and shut down again.
const SERVE_SETUP_REPS: usize = 15;
/// Estimator hash seeds `rel_error` averages over: the binaries' default
/// (42, whose answers the binary itself prints) and the seeds after it,
/// replayed through the library. One estimate's relative error varies
/// by tens of percent from input to input, so a single draw per run
/// would make `rel_error` too noisy to gate; the single-query workloads
/// average 128 estimates, the catalog 32 × 16.
const ACCURACY_SEEDS_SINGLE: u64 = 128;
const ACCURACY_SEEDS_CATALOG: u64 = 32;
/// Shares of `--seconds` a CLI workload spends on measured runs and on
/// the serve probe's steady phase.
const CLI_RUN_SHARE: f64 = 0.6;
const PROBE_SHARE: f64 = 0.3;
/// Empty-input runs of a CLI command per run, for `setup_s`.
const SETUP_REPS: usize = 31;

pub struct Bins {
    pub implicate: PathBuf,
    pub serve: PathBuf,
}

pub struct Ctx {
    pub bins: Bins,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A finished run: its operations, its figures, and the lines to print
/// before the result.
#[derive(Default)]
pub struct Outcome {
    pub ops: Ops,
    pub metrics: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
}

/// How the traced replay maps a workload onto the library.
struct TraceSpec<'a> {
    workload: &'a str,
    /// The input file the binary reads (or the rows the server ingests).
    input: &'a Path,
    /// Columns the binary hashes.
    cols: Vec<usize>,
    /// The catalog the catalog passes run (one query for the
    /// single-query workloads).
    specs: Vec<QuerySpec>,
    /// Rows per `update_hashed_batch` call.
    batch: usize,
    /// Checkpoint the served estimator starts from.
    checkpoint: Option<&'a [u8]>,
    /// Stage spans whose sum the binary's ns/row is reconciled against.
    stages: &'a [&'static str],
    /// The binary's end-to-end ns/row.
    e2e_ns_per_row: f64,
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// The `implicate` argument list of a CLI workload over `input`.
pub fn cli_args(workload: &str, input: &Path, queries: &Path) -> Vec<String> {
    let mut args: Vec<String> = match workload {
        // `--stats` only adds the counter report at exit, which carries
        // the binary's own `estimator.mem_bytes`.
        "cli-ingest" => ["--stats", "--lhs", "0", "--rhs", "1"]
            .map(String::from)
            .to_vec(),
        _ => vec![
            "--query-file".into(),
            path_arg(queries),
            "--threads".into(),
            CATALOG_THREADS.to_string(),
        ],
    };
    args.push(path_arg(input));
    args
}

/// The `implicate-serve` argument list.
pub fn serve_args(checkpoint: Option<&Path>) -> Vec<String> {
    let mut args = vec!["--threads".to_owned(), "1".to_owned()];
    if let Some(f) = checkpoint {
        args.extend(["--checkpoint".to_owned(), path_arg(f)]);
    }
    args
}

struct CliRun {
    wall: Duration,
    exit: proc::Exit,
    stdout: String,
    stderr: String,
}

fn run_cli(ctx: &Ctx, args: &[String]) -> Result<CliRun, String> {
    let out = ctx.work.join("cli.stdout");
    let err = ctx.work.join("cli.stderr");
    let file = |p: &Path| {
        std::fs::File::create(p)
            .map(Stdio::from)
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let (exit, wall) = proc::run_measured(
        &ctx.bins.implicate,
        args,
        &ctx.work.join("cli.measure"),
        file(&out)?,
        file(&err)?,
    )
    .map_err(|e| format!("run implicate: {e}"))?;
    let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
    Ok(CliRun {
        wall,
        exit,
        stdout: read(&out),
        stderr: read(&err),
    })
}

/// `rows N` from the CLI's stderr summary.
fn stderr_rows(stderr: &str) -> Option<u64> {
    stderr.lines().find_map(|l| {
        l.strip_prefix("rows ")?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

/// The CLI's own tracked-state figure: `estimator.mem_bytes` from the
/// `--stats` report, or the catalog summary's "N tracked bytes".
fn stderr_tracked_bytes(stderr: &str) -> Option<f64> {
    stderr.lines().find_map(|l| {
        let l = l.trim();
        if let Some(v) = l.strip_prefix("estimator.mem_bytes ") {
            return v.trim().parse().ok();
        }
        let (head, _) = l.split_once(" tracked bytes")?;
        head.rsplit(' ').next()?.parse().ok()
    })
}

/// Median wall time of `args` over an empty input.
fn cli_setup(
    ctx: &Ctx,
    args: &[String],
    expect_stdout: &str,
    ops: &mut Ops,
) -> Result<f64, String> {
    let mut walls = Vec::new();
    for _ in 0..SETUP_REPS {
        let r = run_cli(ctx, args)?;
        ops.check(r.exit.success() && r.stdout == expect_stdout, || {
            format!(
                "empty-input run: exit {:?}, stdout {:?}",
                r.exit.code, r.stdout
            )
        });
        walls.push(r.wall.as_secs_f64());
    }
    median(&walls).ok_or_else(|| "no setup runs".into())
}

/// What every measured run of a CLI workload must print.
struct Expected<'a> {
    workload: &'a str,
    stdout: String,
    rows: u64,
    tracked: f64,
}

/// Per-run rates and peak RSS of a CLI workload's measured runs.
#[derive(Default)]
struct CliRuns {
    rates: Vec<f64>,
    rss: Vec<f64>,
}

impl CliRuns {
    /// Runs `args` until `budget` has passed, at least twice, checking
    /// every run against `want`.
    fn measure(
        &mut self,
        ctx: &Ctx,
        args: &[String],
        want: &Expected,
        budget: Duration,
        ops: &mut Ops,
    ) -> Result<(), String> {
        let start = Instant::now();
        let mut runs = 0;
        while runs < 2 || start.elapsed() < budget {
            runs += 1;
            let r = run_cli(ctx, args)?;
            let ok = r.exit.success()
                && r.stdout == want.stdout
                && stderr_rows(&r.stderr) == Some(want.rows)
                && stderr_tracked_bytes(&r.stderr) == Some(want.tracked);
            ops.check(ok, || {
                format!(
                    "{}: exit {:?}, stdout {:?} (replay {:?}), stderr {:?}",
                    want.workload,
                    r.exit.code,
                    r.stdout.chars().take(200).collect::<String>(),
                    want.stdout,
                    r.stderr.lines().find(|l| l.starts_with("rows "))
                )
            });
            if !r.exit.success() {
                return Err(format!(
                    "{} exited with {:?}: {}",
                    want.workload,
                    r.exit.code,
                    r.stderr.trim()
                ));
            }
            self.rates.push(want.rows as f64 / r.wall.as_secs_f64());
            self.rss
                .push(r.exit.max_rss_bytes as f64 / (1 << 20) as f64);
        }
        Ok(())
    }
}

/// The expected stdout of the CLI workload for the given answers.
fn expected_stdout(workload: &str, answers: &[(String, f64)]) -> String {
    if workload == "cli-ingest" {
        format!("{:.0}\n", answers[0].1)
    } else {
        answers
            .iter()
            .map(|(name, a)| format!("{name}\t{a:.0}\n"))
            .collect()
    }
}

pub fn cli(ctx: &Ctx, workload: &str) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let ingest = workload == "cli-ingest";
    let io = |e: std::io::Error| e.to_string();
    // Inputs.
    let text = if ingest {
        let mut text = Vec::with_capacity(INGEST_ROWS as usize * 28);
        gen::network_text(
            &mut gen::network_stream(ctx.seed, INGEST_ROWS),
            INGEST_ROWS,
            &mut text,
        );
        text
    } else {
        gen::olap_text(ctx.seed, CATALOG_ROWS)
    };
    let rows = if ingest { INGEST_ROWS } else { CATALOG_ROWS };
    let input = gen::write_file(&ctx.work, "input.txt", &text).map_err(io)?;
    let empty = gen::write_file(&ctx.work, "empty.txt", b"").map_err(io)?;
    let queries =
        gen::write_file(&ctx.work, "queries.txt", gen::CATALOG_QUERIES.as_bytes()).map_err(io)?;
    let specs = if ingest {
        replay::default_query()
    } else {
        implicate::spec::parse_query_file(gen::CATALOG_QUERIES)?
    };
    let cols: Vec<usize> = if ingest { vec![0, 1] } else { (0..8).collect() };

    // The library replay: the answers the binary must print.
    let mut quiet = Tracer::new(false);
    let (answers, fps, tracked) = if ingest {
        let mut est = replay::default_config().build();
        let fps = replay::row_pass(&input, &cols, Some(&mut est), &mut quiet).map_err(io)?;
        let mem = est.metrics().registry().estimator.mem_bytes.get() as f64;
        let answer = est.estimate_now().implication_count;
        (vec![("default".to_owned(), answer)], fps, mem)
    } else {
        let fps = replay::row_pass(&input, &cols, None, &mut quiet).map_err(io)?;
        let mut cat = replay::catalogs(8, &specs, 1)?.pop().expect("one catalog");
        replay::catalog_pass(&fps, &mut cat, &mut quiet);
        let tracked = cat.tracked_bytes() as f64;
        (replay::catalog_answers(&cat, &specs), fps, tracked)
    };
    let expect = expected_stdout(workload, &answers);
    let empty_answers: Vec<(String, f64)> = answers.iter().map(|(n, _)| (n.clone(), 0.0)).collect();
    o.ops.check(fps.rows() as u64 == rows, || {
        format!("replay read {} rows, generated {rows}", fps.rows())
    });

    let seeds = if ingest {
        ACCURACY_SEEDS_SINGLE
    } else {
        ACCURACY_SEEDS_CATALOG
    };
    let t = Instant::now();
    let first: Vec<f64> = answers.iter().map(|(_, a)| *a).collect();
    let rel_error = accuracy(&fps, &specs, ingest, &first, seeds, &mut o)?;
    o.lines.push(format!(
        "{workload}: accuracy replays took {:.1} s",
        t.elapsed().as_secs_f64()
    ));

    // The server-side metrics: serve this input's rows in an open-loop
    // probe, since every workload reports every end-to-end metric.
    let probe_rows = (serve::STEADY_ROWS_PER_S * ctx.seconds * PROBE_SHARE) as usize;
    let end = serve::line_offsets(&text)
        .get(probe_rows)
        .copied()
        .unwrap_or(text.len());
    let probe_text = &text[..end];
    let probe_fps = fps.slice(0..probe_rows.min(fps.rows()));
    let mut est = replay::default_config().build();
    replay::batch_pass(&probe_fps, &mut est, replay::SERVE_BATCH, &mut quiet);
    let probe_want = Bits::of(&est.estimate_now());

    // Set-up time, then the measured runs in two halves around the probe,
    // so they sample more of the host's fast and slow phases.
    let setup_s = cli_setup(
        ctx,
        &cli_args(workload, &empty, &queries),
        &expected_stdout(workload, &empty_answers),
        &mut o.ops,
    )?;
    let args = cli_args(workload, &input, &queries);
    let want = Expected {
        workload,
        stdout: expect,
        rows,
        tracked,
    };
    let half = Duration::from_secs_f64(ctx.seconds * CLI_RUN_SHARE / 2.0);
    let mut runs = CliRuns::default();
    runs.measure(ctx, &args, &want, half, &mut o.ops)?;
    let (server, _) = Server::start(
        &ctx.bins.serve,
        &serve_args(None),
        &ctx.work.join("serve.stderr"),
    )?;
    let mut sock = connect(&server)?;
    let session = steady_session(server, &mut sock, probe_text, 0, 0, probe_want, &mut o.ops)?;
    runs.measure(ctx, &args, &want, half, &mut o.ops)?;
    let rows_per_s = aggregate_rate(rows, &runs.rates);
    o.lines.push(format!(
        "{workload}: {} runs of {rows} rows; rows/s per run {:?}",
        runs.rates.len(),
        runs.rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    ));

    o.metrics.insert("setup_s", setup_s);
    o.metrics.insert("rows_per_s", rows_per_s);
    o.metrics
        .insert("peak_rss_mb", median(&runs.rss).expect("runs"));
    o.metrics.insert("tracked_bytes", tracked);
    o.metrics.insert("rel_error", rel_error);
    session.e2e(&mut o.metrics);

    if ctx.trace {
        let stages: &[&'static str] = if ingest {
            &[
                "cli.read",
                "cli.split",
                "text.hash_field",
                "estimator.update",
            ]
        } else {
            &[
                "cli.read",
                "cli.split",
                "text.hash_field",
                "hashplan.hash_batch",
                "catalog.process_hashed",
            ]
        };
        let spec = TraceSpec {
            workload,
            input: &input,
            cols,
            specs,
            batch: replay::CLI_BATCH,
            checkpoint: None,
            stages,
            e2e_ns_per_row: 1e9 / rows_per_s,
        };
        let mut layers = traced(ctx, &spec, &mut o)?;
        session.layers(&mut layers);
        o.metrics = layers;
    }
    Ok(o)
}

/// All rows over all the time the runs took, for runs of `rows` rows
/// at the given rates. Per-run rates on a shared host come in fast and
/// slow phases; the total is a smooth function of how long each phase
/// lasted, where a median jumps between the phases.
fn aggregate_rate(rows: u64, rates: &[f64]) -> f64 {
    let seconds: f64 = rates.iter().map(|r| rows as f64 / r).sum();
    rows as f64 * rates.len() as f64 / seconds
}

fn connect(server: &Server) -> Result<TcpStream, String> {
    let s = TcpStream::connect(server.ingest).map_err(|e| format!("connect ingest: {e}"))?;
    s.set_nodelay(true).ok();
    Ok(s)
}

/// The end of a server session: steady phase, final checks, shutdown.
struct Session {
    steady: Steady,
    metrics_text: String,
    /// Peak resident set of the server, read just before shutdown.
    peak_rss: u64,
    age_rows: f64,
}

impl Session {
    fn e2e(&self, m: &mut BTreeMap<&'static str, f64>) {
        let s = &self.steady;
        m.insert(
            "visible_p50_ms",
            quantile(&s.visible_ms, 0.5).unwrap_or(f64::NAN),
        );
        m.insert(
            "visible_p90_ms",
            quantile(&s.visible_ms, 0.9).unwrap_or(f64::NAN),
        );
        m.insert(
            "query_rtt_p50_ms",
            quantile(&s.rtt_ms, 0.5).unwrap_or(f64::NAN),
        );
        m.insert(
            "query_rtt_p90_ms",
            quantile(&s.rtt_ms, 0.9).unwrap_or(f64::NAN),
        );
    }

    fn layers(&self, m: &mut BTreeMap<&'static str, f64>) {
        let s = &self.steady;
        m.insert("http.connect_ms", median(&s.connect_ms).unwrap_or(f64::NAN));
        m.insert(
            "http.first_byte_ms",
            median(&s.first_byte_ms).unwrap_or(f64::NAN),
        );
        m.insert(
            "serve.view_publishes",
            serve::prom_value(&self.metrics_text, "implicate_view_publishes").unwrap_or(f64::NAN),
        );
        m.insert("serve.view_age_rows", self.age_rows);
        m.insert(
            "serve.accepted",
            s.last.as_ref().map_or(f64::NAN, |l| l.accepted as f64),
        );
        m.insert(
            "gen.late_ms_p90",
            quantile(&s.late_ms, 0.9).unwrap_or(f64::NAN),
        );
        m.insert("gen.rows_sent", s.rows_sent as f64);
        m.insert("gen.queries_sent", s.queries_sent as f64);
    }
}

/// Runs the open-loop steady phase over `text` on a started server,
/// checks the final served estimate against `want`, scrapes `/metrics`,
/// and shuts the server down.
fn steady_session(
    server: Server,
    sock: &mut TcpStream,
    text: &[u8],
    base: u64,
    restored: u64,
    want: Bits,
    ops: &mut Ops,
) -> Result<Session, String> {
    let offsets = serve::line_offsets(text);
    let steady = serve::steady(&server, sock, text, &offsets, base, restored, ops)?;
    let late_p90 = quantile(&steady.late_ms, 0.9).unwrap_or(f64::INFINITY);
    if late_p90 > serve::LATE_LIMIT_MS {
        return Err(format!(
            "run invalid: the load generator fell behind its own schedule \
             (lateness p90 {late_p90:.2} ms > {} ms)",
            serve::LATE_LIMIT_MS
        ));
    }
    let last = steady.last.as_ref().ok_or("no steady reply")?;
    ops.check(last.bits == want, || {
        format!(
            "served estimate {:?} differs from replay {want:?}",
            last.bits
        )
    });
    let metrics_text = match serve::http(server.query, "GET", "/metrics") {
        Ok(r) if r.status == 200 => {
            ops.ok();
            r.body
        }
        Ok(r) => {
            ops.fail(format!("/metrics answered {}", r.status));
            String::new()
        }
        Err(e) => {
            ops.fail(format!("/metrics: {e}"));
            String::new()
        }
    };
    let age_rows = mean(&steady.age_rows).unwrap_or(f64::NAN);
    let peak_rss = server
        .peak_rss_bytes()
        .map_err(|e| format!("server peak RSS: {e}"))?;
    server.shutdown(ops)?;
    Ok(Session {
        steady,
        metrics_text,
        peak_rss,
        age_rows,
    })
}

/// The checkpoint a server wrote at shutdown must restore to `want`.
fn check_checkpoint(path: &Path, want: Bits, ops: &mut Ops) {
    let restored = std::fs::read(path)
        .map_err(|e| e.to_string())
        .and_then(|raw| {
            ImplicationEstimator::from_bytes(bytes::Bytes::from(raw)).map_err(|e| e.to_string())
        });
    match restored {
        Ok(est) => {
            let got = Bits::of(&est.estimate_now());
            ops.check(got == want, || {
                format!("checkpoint restores to {got:?}, replay {want:?}")
            });
        }
        Err(e) => ops.fail(format!("checkpoint {}: {e}", path.display())),
    }
}

pub fn serve_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let io = |e: std::io::Error| e.to_string();
    let steady_rows = (serve::STEADY_ROWS_PER_S * ctx.seconds * 0.55) as u64;
    let total = SERVE_PREFIX_ROWS + SERVE_BURST_ROWS + steady_rows;
    let mut stream = gen::network_stream(ctx.seed, total);
    let mut prefix = Vec::new();
    gen::network_text(&mut stream, SERVE_PREFIX_ROWS, &mut prefix);
    let mut burst = Vec::new();
    gen::network_text(&mut stream, SERVE_BURST_ROWS, &mut burst);
    let mut steady = Vec::new();
    gen::network_text(&mut stream, steady_rows, &mut steady);
    let prefix_path = gen::write_file(&ctx.work, "prefix.txt", &prefix).map_err(io)?;
    let served_path = gen::write_file(
        &ctx.work,
        "served.txt",
        &[burst.as_slice(), &steady].concat(),
    )
    .map_err(io)?;
    drop(prefix);

    // The checkpoint the server restores, written with the library.
    let mut quiet = Tracer::new(false);
    let cols = [0, 1];
    let prefix_fps = replay::row_pass(&prefix_path, &cols, None, &mut quiet).map_err(io)?;
    let mut est = replay::default_config().build();
    replay::batch_pass(&prefix_fps, &mut est, replay::SERVE_BATCH, &mut quiet);
    let checkpoint_bytes = est.to_bytes().to_vec();
    let checkpoint = ctx.work.join("state.imps");

    // Replay: the estimates the server must publish after the burst and
    // at the end.
    let served_fps = replay::row_pass(&served_path, &cols, None, &mut quiet).map_err(io)?;
    let mut est = ImplicationEstimator::from_bytes(bytes::Bytes::from(checkpoint_bytes.clone()))
        .map_err(|e| e.to_string())?;
    let burst_n = SERVE_BURST_ROWS as usize;
    let batch = replay::SERVE_BATCH;
    replay::batch_pass(&served_fps.slice(0..burst_n), &mut est, batch, &mut quiet);
    let after_burst = Bits::of(&est.estimate_now());
    let steady_fps = served_fps.slice(burst_n..served_fps.rows());
    replay::batch_pass(&steady_fps, &mut est, batch, &mut quiet);
    let final_estimate = est.estimate_now();
    let want_final = Bits::of(&final_estimate);

    let base = SERVE_PREFIX_ROWS;
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let mut session = None;
    // Set-up-only starts, bursts and the steady phase are interleaved so
    // each figure samples the whole run rather than one stretch of it.
    for s in 0..SERVE_SESSIONS {
        for _ in 0..SERVE_SETUP_REPS / SERVE_SESSIONS {
            std::fs::write(&checkpoint, &checkpoint_bytes).map_err(io)?;
            let (server, setup) = Server::start(
                &ctx.bins.serve,
                &serve_args(Some(&checkpoint)),
                &ctx.work.join("serve.stderr"),
            )?;
            setups.push(setup.as_secs_f64());
            server.shutdown(&mut o.ops)?;
        }
        std::fs::write(&checkpoint, &checkpoint_bytes).map_err(io)?;
        let (server, setup) = Server::start(
            &ctx.bins.serve,
            &serve_args(Some(&checkpoint)),
            &ctx.work.join("serve.stderr"),
        )?;
        setups.push(setup.as_secs_f64());
        let mut sock = connect(&server)?;
        let (took, seen) = serve::burst(
            &server,
            &mut sock,
            &burst,
            base + SERVE_BURST_ROWS,
            &mut o.ops,
        )?;
        o.ops.check(seen.bits == after_burst, || {
            format!(
                "burst estimate {:?} differs from replay {after_burst:?}",
                seen.bits
            )
        });
        rates.push(SERVE_BURST_ROWS as f64 / took.as_secs_f64());
        if s == SERVE_SESSIONS / 2 {
            session = Some(steady_session(
                server,
                &mut sock,
                &steady,
                base + SERVE_BURST_ROWS,
                base,
                want_final,
                &mut o.ops,
            )?);
            check_checkpoint(&checkpoint, want_final, &mut o.ops);
        } else {
            drop(sock);
            server.shutdown(&mut o.ops)?;
            check_checkpoint(&checkpoint, after_burst, &mut o.ops);
        }
    }
    let session = session.expect("the middle session ran the steady phase");
    let all_fps = Fingerprints {
        words: [prefix_fps.words.as_slice(), &served_fps.words].concat(),
        width: 2,
    };
    let rel_error = accuracy(
        &all_fps,
        &replay::default_query(),
        true,
        &[final_estimate.implication_count],
        ACCURACY_SEEDS_SINGLE,
        &mut o,
    )?;
    let tracked = serve::prom_value(&session.metrics_text, "implicate_estimator_mem_bytes")
        .unwrap_or(f64::NAN);
    o.ops.check(
        tracked == est.metrics().registry().estimator.mem_bytes.get() as f64,
        || format!("served mem_bytes {tracked} differs from replay"),
    );
    let rows_per_s = aggregate_rate(SERVE_BURST_ROWS, &rates);
    o.lines.push(format!(
        "serve-mixed: {} restores, {SERVE_SESSIONS} followed by bursts of \
         {SERVE_BURST_ROWS} rows; set-up ms {:?}; burst rows/s {:?}; steady {} rows, {} queries",
        setups.len(),
        setups
            .iter()
            .map(|s| (s * 1e4).round() / 10.0)
            .collect::<Vec<_>>(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        session.steady.rows_sent,
        session.steady.queries_sent,
    ));
    o.metrics
        .insert("setup_s", median(&setups).expect("sessions"));
    o.metrics.insert("rows_per_s", rows_per_s);
    o.metrics
        .insert("peak_rss_mb", session.peak_rss as f64 / (1 << 20) as f64);
    o.metrics.insert("tracked_bytes", tracked);
    o.metrics.insert("rel_error", rel_error);
    session.e2e(&mut o.metrics);

    if ctx.trace {
        let spec = TraceSpec {
            workload: "serve-mixed",
            input: &served_path,
            cols: cols.to_vec(),
            specs: replay::default_query(),
            batch: replay::SERVE_BATCH,
            checkpoint: Some(&checkpoint_bytes),
            stages: &[
                "cli.read",
                "cli.split",
                "text.hash_field",
                "parallel.hash_pair",
                "estimator.update_hashed_batch",
                "view.publish",
            ],
            e2e_ns_per_row: 1e9 / rows_per_s,
        };
        let mut layers = traced(ctx, &spec, &mut o)?;
        session.layers(&mut layers);
        o.metrics = layers;
    }
    Ok(o)
}

/// `rel_error`: mean |answer − exact| / exact over the queries and the
/// hash seeds `42 .. 42 + seeds`. `first` holds the answers under seed
/// 42, already checked equal to what the binary printed.
fn accuracy(
    fps: &Fingerprints,
    specs: &[QuerySpec],
    single: bool,
    first: &[f64],
    seeds: u64,
    o: &mut Outcome,
) -> Result<f64, String> {
    let exact = replay::exact_answers(fps, specs);
    // Seed 42's answers are given; the others split over two threads.
    let others: Vec<u64> = (43..42 + seeds).collect();
    let mut by_seed = vec![first.to_vec()];
    let halves = std::thread::scope(|scope| {
        let workers: Vec<_> = others
            .chunks(others.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&seed| replay::seeded_answers(fps, specs, single, seed))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .map_err(|_| "accuracy replay panicked".to_string())?
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    by_seed.extend(halves.into_iter().flatten());
    let (mut answers, mut truth, mut per_seed) = (Vec::new(), Vec::new(), Vec::new());
    for got in by_seed {
        let got: Vec<f64> = got.iter().map(|a| a.round()).collect();
        per_seed.push(replay::mean_rel_error(&got, &exact));
        answers.extend(got);
        truth.extend(&exact);
    }
    o.lines.push(format!(
        "accuracy: exact {}; answer (seed 42) {}; rel_error over {seeds} hash seeds: \
         min {:.4} median {:.4} max {:.4}",
        join(specs, &exact),
        join(specs, first),
        quantile(&per_seed, 0.0).unwrap_or(f64::NAN),
        median(&per_seed).unwrap_or(f64::NAN),
        quantile(&per_seed, 1.0).unwrap_or(f64::NAN),
    ));
    Ok(replay::mean_rel_error(&answers, &truth))
}

fn join(specs: &[QuerySpec], values: &[f64]) -> String {
    specs
        .iter()
        .zip(values)
        .map(|(s, v)| format!("{} {v:.0}", s.name))
        .collect::<Vec<_>>()
        .join(", ")
}

/// The traced replay: every pass of the workload's input through the
/// library with a span per batch and call, then the per-layer figures,
/// the reconciliation line and the tracing overhead.
fn traced(
    ctx: &Ctx,
    spec: &TraceSpec,
    o: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let io = |e: std::io::Error| e.to_string();
    let fresh = || -> Result<ImplicationEstimator, String> {
        match spec.checkpoint {
            Some(raw) => ImplicationEstimator::from_bytes(bytes::Bytes::from(raw.to_vec()))
                .map_err(|e| e.to_string()),
            None => Ok(replay::default_config().build()),
        }
    };

    // The row path, alternately without and with spans; the last traced
    // pass supplies the spans.
    let (mut plain, mut with_spans) = (Duration::ZERO, Duration::ZERO);
    let mut tr = Tracer::new(true);
    let mut row_est = fresh()?;
    let mut fps = None;
    for _ in 0..2 {
        let mut est = fresh()?;
        let start = Instant::now();
        replay::row_pass(
            spec.input,
            &spec.cols,
            Some(&mut est),
            &mut Tracer::new(false),
        )
        .map_err(io)?;
        plain += start.elapsed();
        tr = Tracer::new(true);
        row_est = fresh()?;
        let start = Instant::now();
        fps = Some(
            replay::row_pass(spec.input, &spec.cols, Some(&mut row_est), &mut tr).map_err(io)?,
        );
        with_spans += start.elapsed();
    }
    let fps = fps.expect("two passes ran");
    let row_spans = tr.len();

    // The writer path, views and snapshots.
    let mut est = fresh()?;
    replay::batch_pass(&fps, &mut est, spec.batch, &mut tr);
    let reader = est.reader();
    for _ in 0..200 {
        tr.time("view.reader_estimate", || {
            for _ in 0..1000 {
                std::hint::black_box(reader.estimate());
            }
        });
    }
    let mut snapshot_bytes = 0;
    for _ in 0..5 {
        let raw = tr.time("snapshot.to_bytes", || est.to_bytes());
        snapshot_bytes = raw.len();
        let back = tr.time("snapshot.from_bytes", || {
            ImplicationEstimator::from_bytes(raw)
        });
        back.map_err(|e| e.to_string())?;
    }

    // The catalog path, sequential, then through the lanes.
    let mut catalog = replay::catalogs(fps.width, &spec.specs, 1)?
        .pop()
        .expect("one catalog");
    replay::catalog_pass(&fps, &mut catalog, &mut tr);
    let (sharded, finish) =
        replay::sharded_pass(spec.input, fps.width, &spec.specs, CATALOG_THREADS)?;
    o.ops.check(
        replay::catalog_answers(&sharded, &spec.specs)
            == replay::catalog_answers(&catalog, &spec.specs),
        || "sharded catalog answers differ from the sequential catalog".into(),
    );
    let lanes = replay::lane_pass(spec.input, fps.width, &spec.specs, CATALOG_THREADS)?;
    tr.write_jsonl(&ctx.work.join(format!("spans-{}.jsonl", spec.workload)))
        .map_err(io)?;

    let rows = fps.rows() as f64;
    let self_ns = tr.self_ns();
    let per_row = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / rows;
    let ms = |name: &str| median(&tr.durations(name)).unwrap_or(f64::NAN) / 1e6;
    let counters = if spec.checkpoint.is_some() {
        &est
    } else {
        &row_est
    };
    let e = &counters.metrics().registry().estimator;
    let mut m = BTreeMap::new();
    m.insert("cli.read_ns_per_row", per_row("cli.read"));
    m.insert("cli.split_ns_per_row", per_row("cli.split"));
    m.insert("text.hash_field_ns_per_row", per_row("text.hash_field"));
    m.insert("estimator.update_ns_per_row", per_row("estimator.update"));
    m.insert(
        "estimator.update_hashed_batch_ns_per_row",
        per_row("estimator.update_hashed_batch"),
    );
    m.insert("estimator.mem_bytes", e.mem_bytes.get() as f64);
    m.insert("estimator.occupancy_peak", e.occupancy.peak() as f64);
    m.insert("estimator.cells_committed", e.cells_committed.get() as f64);
    m.insert(
        "estimator.fringe_evictions",
        e.fringe_evictions.get() as f64,
    );
    m.insert("estimator.dirty_total", e.dirty_total() as f64);
    m.insert(
        "hashplan.hash_batch_ns_per_row",
        per_row("hashplan.hash_batch"),
    );
    m.insert(
        "catalog.process_hashed_ns_per_row",
        per_row("catalog.process_hashed"),
    );
    m.insert("catalog.finish_ms", finish.as_secs_f64() * 1e3);
    m.insert("catalog.tracked_bytes", catalog.tracked_bytes() as f64);
    m.insert("lanes.idle_wait_ratio", lanes.idle_wait_ratio);
    m.insert("lanes.queue_depth_peak", lanes.queue_depth_peak as f64);
    m.insert("view.publish_us", ms("view.publish") * 1e3);
    m.insert(
        "view.reader_estimate_ns",
        ms("view.reader_estimate") * 1e6 / 1000.0,
    );
    m.insert("snapshot.from_bytes_ms", ms("snapshot.from_bytes"));
    m.insert("snapshot.to_bytes_ms", ms("snapshot.to_bytes"));
    m.insert("snapshot.bytes", snapshot_bytes as f64);

    let stages: f64 = spec.stages.iter().map(|s| per_row(s)).sum();
    let residual = spec.e2e_ns_per_row - stages;
    m.insert("cli.residual_ns_per_row", residual);
    let overhead = with_spans.as_secs_f64() / plain.as_secs_f64() - 1.0;
    o.lines.push(format!(
        "reconcile {}: stages {} = {stages:.1} ns/row; e2e {:.1} ns/row; \
         cli.residual_ns_per_row {residual:.1} ({:.1}% of e2e); tracing overhead {:.2}% \
         (row path twice: {:.1} ms with {} spans per pass vs {:.1} ms without)",
        spec.workload,
        spec.stages.join(" + "),
        spec.e2e_ns_per_row,
        100.0 * residual / spec.e2e_ns_per_row,
        100.0 * overhead,
        with_spans.as_secs_f64() * 1e3,
        row_spans,
        plain.as_secs_f64() * 1e3,
    ));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every file named on a binary's command line is one the benchmark
    /// generated into its work directory; nothing else reaches them.
    #[test]
    fn binaries_receive_only_generated_files() {
        let work = Path::new("work");
        let generated =
            ["input.txt", "empty.txt", "queries.txt", "state.imps"].map(|f| work.join(f));
        let (input, empty, queries) = (&generated[0], &generated[1], &generated[2]);
        let mut argvs = vec![serve_args(None), serve_args(Some(&generated[3]))];
        for w in ["cli-ingest", "cli-catalog"] {
            argvs.push(cli_args(w, input, queries));
            argvs.push(cli_args(w, empty, queries));
        }
        for argv in argvs {
            for arg in argv {
                let is_flag_or_number = arg.starts_with("--") || arg.parse::<u64>().is_ok();
                assert!(
                    is_flag_or_number || generated.iter().any(|g| g.as_path() == Path::new(&arg)),
                    "{arg:?} is neither a flag, a number nor a generated file"
                );
            }
        }
    }

    #[test]
    fn reads_the_cli_summaries() {
        let single = "rows 3000 (skipped 0) | conditions x | S ≈ 1\nmetrics:\n  estimator.mem_bytes      4096\n";
        assert_eq!(stderr_rows(single), Some(3000));
        assert_eq!(stderr_tracked_bytes(single), Some(4096.0));
        let catalog = "rows 800 (skipped 0) | 16 queries over 2 lanes, one pass | 2048 tracked bytes on one budget\n";
        assert_eq!(stderr_rows(catalog), Some(800));
        assert_eq!(stderr_tracked_bytes(catalog), Some(2048.0));
        assert_eq!(stderr_tracked_bytes("rows 1\n"), None);
    }

    #[test]
    fn aggregate_rate_weights_runs_by_their_time() {
        // 100 rows at 100/s (1 s) and at 50/s (2 s): 200 rows in 3 s.
        assert!((aggregate_rate(100, &[100.0, 50.0]) - 200.0 / 3.0).abs() < 1e-9);
    }
}
