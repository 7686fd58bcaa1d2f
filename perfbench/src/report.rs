//! The metric catalogue, the result line, and its parser.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! declares; a test keeps the two in step.

use std::collections::BTreeMap;

use crate::json::{self, Value};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics a user of the binaries sees, printed by an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("rows_per_s", "rows/s", "higher"),
    m("peak_rss_mb", "MiB", "lower"),
    m("tracked_bytes", "bytes", "lower"),
    m("rel_error", "ratio", "lower"),
    m("visible_p50_ms", "ms", "lower"),
    m("visible_p90_ms", "ms", "lower"),
    m("query_rtt_p50_ms", "ms", "lower"),
    m("query_rtt_p90_ms", "ms", "lower"),
];

/// Metrics of single layers, printed by a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("cli.read_ns_per_row", "ns/row", "lower"),
    m("cli.split_ns_per_row", "ns/row", "lower"),
    m("text.hash_field_ns_per_row", "ns/row", "lower"),
    m("estimator.update_ns_per_row", "ns/row", "lower"),
    m(
        "estimator.update_hashed_batch_ns_per_row",
        "ns/row",
        "lower",
    ),
    m("estimator.mem_bytes", "bytes", "lower"),
    m("estimator.occupancy_peak", "count", "lower"),
    m("estimator.cells_committed", "count", "lower"),
    m("estimator.fringe_evictions", "count", "lower"),
    m("estimator.dirty_total", "count", "lower"),
    m("hashplan.hash_batch_ns_per_row", "ns/row", "lower"),
    m("catalog.process_hashed_ns_per_row", "ns/row", "lower"),
    m("catalog.finish_ms", "ms", "lower"),
    m("catalog.tracked_bytes", "bytes", "lower"),
    m("lanes.idle_wait_ratio", "ratio", "lower"),
    m("lanes.queue_depth_peak", "batches", "lower"),
    m("view.publish_us", "us", "lower"),
    m("view.reader_estimate_ns", "ns", "lower"),
    m("snapshot.from_bytes_ms", "ms", "lower"),
    m("snapshot.to_bytes_ms", "ms", "lower"),
    m("snapshot.bytes", "bytes", "lower"),
    m("http.connect_ms", "ms", "lower"),
    m("http.first_byte_ms", "ms", "lower"),
    m("serve.view_publishes", "count", "higher"),
    m("serve.view_age_rows", "rows", "lower"),
    m("serve.accepted", "rows", "higher"),
    m("gen.late_ms_p90", "ms", "lower"),
    m("gen.rows_sent", "rows", "higher"),
    m("gen.queries_sent", "count", "higher"),
    m("cli.residual_ns_per_row", "ns/row", "lower"),
];

/// A run's verdict and figures, in the shape of the result line.
#[derive(Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Renders the one-line JSON result. Values keep every digit `f64`
/// formatting gives them.
pub fn render(result: &RunResult, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .filter_map(|d| {
            let v = result.metrics.get(d.name)?;
            Some(format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json::quote(d.name),
                json::quote(d.unit)
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// Parses a result line and checks it against `defs`: every metric
/// present under its exact name and unit with a finite value, and no
/// other metric.
pub fn parse(line: &str, defs: &[MetricDef]) -> Result<RunResult, String> {
    let v = json::parse(line)?;
    let top = v.as_object().ok_or("result is not an object")?;
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result keys {keys:?}"));
    }
    let correct = match v.get("correct") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("correct is not a boolean".into()),
    };
    let count = |k: &str| {
        v.get(k)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{k} is not a whole number"))
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    if attempted == 0 || failed > attempted {
        return Err(format!("attempted {attempted}, failed {failed}"));
    }
    let given = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("metrics is not an object")?;
    let mut metrics = BTreeMap::new();
    for d in defs {
        let entry = given
            .get(d.name)
            .ok_or_else(|| format!("missing metric {}", d.name))?;
        let value = entry
            .get("value")
            .and_then(Value::as_f64)
            .filter(|x| x.is_finite())
            .ok_or_else(|| format!("metric {} has no finite value", d.name))?;
        let unit = entry.get("unit").and_then(Value::as_str);
        if unit != Some(d.unit) {
            return Err(format!(
                "metric {} has unit {unit:?}, not {}",
                d.name, d.unit
            ));
        }
        metrics.insert(d.name.to_owned(), value);
    }
    if let Some(extra) = given.keys().find(|k| !defs.iter().any(|d| d.name == *k)) {
        return Err(format!("unknown metric {extra}"));
    }
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(defs: &[MetricDef]) -> RunResult {
        RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: defs
                .iter()
                .enumerate()
                .map(|(i, d)| (d.name.to_owned(), 0.5 + i as f64))
                .collect(),
        }
    }

    #[test]
    fn rendered_results_parse_back() {
        for defs in [END_TO_END, PER_LAYER] {
            let r = full(defs);
            assert_eq!(parse(&render(&r, defs), defs), Ok(r));
        }
    }

    #[test]
    fn rejects_a_missing_metric() {
        let mut r = full(END_TO_END);
        r.metrics.remove("rows_per_s");
        let err = parse(&render(&r, END_TO_END), END_TO_END).unwrap_err();
        assert!(err.contains("missing metric rows_per_s"), "{err}");
    }

    #[test]
    fn rejects_a_misnamed_metric() {
        let line =
            render(&full(END_TO_END), END_TO_END).replace("\"rows_per_s\"", "\"rows_per_sec\"");
        let err = parse(&line, END_TO_END).unwrap_err();
        assert!(err.contains("missing metric rows_per_s"), "{err}");
        let mut r = full(END_TO_END);
        r.metrics.insert("bogus".into(), 1.0);
        let mut line = render(&r, END_TO_END);
        line = line.replacen(
            "\"metrics\": {",
            "\"metrics\": {\"bogus\": {\"value\": 1.0, \"unit\": \"s\"}, ",
            1,
        );
        let err = parse(&line, END_TO_END).unwrap_err();
        assert!(err.contains("unknown metric bogus"), "{err}");
    }

    #[test]
    fn rejects_a_wrong_unit() {
        let line = render(&full(END_TO_END), END_TO_END)
            .replace("\"unit\": \"rows/s\"", "\"unit\": \"1/s\"");
        assert!(parse(&line, END_TO_END).is_err());
    }

    /// `BENCHMARK.json` declares exactly these metrics, units and
    /// directions.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v = json::parse(&text).expect("valid JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = v.get(key).and_then(Value::as_array).expect("metric list");
            let names: Vec<(&str, &str, &str)> = listed
                .iter()
                .map(|e| {
                    let s = |k| e.get(k).and_then(Value::as_str).expect("string field");
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let want: Vec<(&str, &str, &str)> =
                defs.iter().map(|d| (d.name, d.unit, d.better)).collect();
            assert_eq!(names, want, "{key}");
        }
    }
}
