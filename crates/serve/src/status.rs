//! Edge-side observability: the upstream-connectivity status block
//! behind an edge's `GET /status` and its `implicate_edge_*` Prometheus
//! series (the symmetric counterpart of the aggregator's per-node
//! fleet registry, DESIGN.md §8.7).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use implicate::core::Log2Histogram;

/// Escapes `s` as the contents of a JSON string literal (quotes not
/// included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Live upstream-connectivity state of an edge, updated by the sender
/// thread and the writer, read by `/status` and `/metrics` scrapes.
pub struct EdgeStatus {
    upstream: String,
    node_id: u64,
    connected: AtomicBool,
    connects: AtomicU64,
    backoff_ms: AtomicU64,
    ships: AtomicU64,
    ship_bytes: AtomicU64,
    fulls: AtomicU64,
    deltas: AtomicU64,
    send_errors: AtomicU64,
    last_ship_ms: AtomicU64,
    unshipped_rows: AtomicU64,
    ship_nanos: Log2Histogram,
}

impl EdgeStatus {
    /// A fresh (disconnected) status block for an edge shipping to
    /// `upstream` as `node_id`.
    pub fn new(upstream: String, node_id: u64) -> Self {
        Self {
            upstream,
            node_id,
            connected: AtomicBool::new(false),
            connects: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(0),
            ships: AtomicU64::new(0),
            ship_bytes: AtomicU64::new(0),
            fulls: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
            send_errors: AtomicU64::new(0),
            last_ship_ms: AtomicU64::new(0),
            unshipped_rows: AtomicU64::new(0),
            ship_nanos: Log2Histogram::new(),
        }
    }

    /// Marks the upstream connection up or down (a `peer_gone` probe or
    /// a dropped connection calls this with `false`).
    pub fn set_connected(&self, up: bool) {
        self.connected.store(up, Ordering::Relaxed);
    }

    /// Records a successful upstream connect: connected, one more
    /// connect, backoff cleared.
    pub fn record_connect(&self) {
        self.connected.store(true, Ordering::Relaxed);
        self.connects.fetch_add(1, Ordering::Relaxed);
        self.backoff_ms.store(0, Ordering::Relaxed);
    }

    /// Records a failed connect attempt and the backoff now in force.
    pub fn record_backoff(&self, ms: u64) {
        self.connected.store(false, Ordering::Relaxed);
        self.backoff_ms.store(ms, Ordering::Relaxed);
    }

    /// Records one shipped frame (`full` distinguishes full snapshots
    /// from deltas; `nanos` is the blocking write+flush latency).
    pub fn record_ship(&self, bytes: u64, full: bool, nanos: u64, now_ms: u64) {
        self.ships.fetch_add(1, Ordering::Relaxed);
        self.ship_bytes.fetch_add(bytes, Ordering::Relaxed);
        if full {
            self.fulls.fetch_add(1, Ordering::Relaxed);
        } else {
            self.deltas.fetch_add(1, Ordering::Relaxed);
        }
        self.last_ship_ms.store(now_ms, Ordering::Relaxed);
        self.ship_nanos.observe(nanos);
    }

    /// Records a failed frame write (the connection drops and the next
    /// frame after reconnect is a full snapshot).
    pub fn record_send_error(&self) {
        self.send_errors.fetch_add(1, Ordering::Relaxed);
        self.connected.store(false, Ordering::Relaxed);
    }

    /// Publishes the writer's current unshipped-row backlog (rows
    /// ingested since the last wire capture).
    pub fn set_unshipped(&self, rows: u64) {
        self.unshipped_rows.store(rows, Ordering::Relaxed);
    }

    /// The edge block of `/status` as one JSON object.
    pub fn status_json(&self, now_ms: u64) -> String {
        let ships = self.ships.load(Ordering::Relaxed);
        let last = self.last_ship_ms.load(Ordering::Relaxed);
        let h = &self.ship_nanos;
        let (p50, p99) = (h.quantile_bound(0.50), h.quantile_bound(0.99));
        format!(
            "{{\"upstream\":\"{}\",\"node_id\":{},\"connected\":{},\
             \"connects\":{},\"reconnects\":{},\"backoff_ms\":{},\
             \"ships\":{},\"ship_bytes\":{},\"fulls\":{},\"deltas\":{},\
             \"send_errors\":{},\"last_ship_age_ms\":{},\
             \"unshipped_rows\":{},\"ship_p50_nanos\":{p50},\
             \"ship_p99_nanos\":{p99}}}",
            json_escape(&self.upstream),
            self.node_id,
            self.connected.load(Ordering::Relaxed),
            self.connects.load(Ordering::Relaxed),
            self.connects.load(Ordering::Relaxed).saturating_sub(1),
            self.backoff_ms.load(Ordering::Relaxed),
            ships,
            self.ship_bytes.load(Ordering::Relaxed),
            self.fulls.load(Ordering::Relaxed),
            self.deltas.load(Ordering::Relaxed),
            self.send_errors.load(Ordering::Relaxed),
            if ships > 0 {
                now_ms.saturating_sub(last)
            } else {
                0
            },
            self.unshipped_rows.load(Ordering::Relaxed),
        )
    }

    /// Appends the edge's Prometheus series (with `# HELP`/`# TYPE`
    /// metadata) to `out`.
    pub fn prometheus_into(&self, namespace: &str, now_ms: u64, out: &mut String) {
        let ships = self.ships.load(Ordering::Relaxed);
        let last = self.last_ship_ms.load(Ordering::Relaxed);
        let h = &self.ship_nanos;
        let (p50, p99) = (h.quantile_bound(0.50), h.quantile_bound(0.99));
        let series: [(&str, &str, &str, u64); 13] = [
            (
                "edge_connected",
                "gauge",
                "Whether the upstream connection is up (1) or down (0)",
                u64::from(self.connected.load(Ordering::Relaxed)),
            ),
            (
                "edge_connects_total",
                "counter",
                "Successful upstream connects",
                self.connects.load(Ordering::Relaxed),
            ),
            (
                "edge_reconnects_total",
                "counter",
                "Upstream connects beyond the first",
                self.connects.load(Ordering::Relaxed).saturating_sub(1),
            ),
            (
                "edge_backoff_ms",
                "gauge",
                "Reconnect backoff currently in force (0 while connected)",
                self.backoff_ms.load(Ordering::Relaxed),
            ),
            (
                "edge_ships_total",
                "counter",
                "Wire frames shipped upstream",
                ships,
            ),
            (
                "edge_ship_bytes_total",
                "counter",
                "Wire bytes shipped upstream",
                self.ship_bytes.load(Ordering::Relaxed),
            ),
            (
                "edge_ship_fulls_total",
                "counter",
                "Full snapshots shipped upstream",
                self.fulls.load(Ordering::Relaxed),
            ),
            (
                "edge_ship_deltas_total",
                "counter",
                "Delta frames shipped upstream",
                self.deltas.load(Ordering::Relaxed),
            ),
            (
                "edge_send_errors_total",
                "counter",
                "Frame writes that failed and dropped the connection",
                self.send_errors.load(Ordering::Relaxed),
            ),
            (
                "edge_unshipped_rows",
                "gauge",
                "Rows ingested since the last wire capture",
                self.unshipped_rows.load(Ordering::Relaxed),
            ),
            (
                "edge_last_ship_age_ms",
                "gauge",
                "Milliseconds since the last shipped frame",
                if ships > 0 {
                    now_ms.saturating_sub(last)
                } else {
                    0
                },
            ),
            (
                "edge_ship_p50_nanos",
                "gauge",
                "Median upstream write+flush latency bucket bound",
                p50,
            ),
            (
                "edge_ship_p99_nanos",
                "gauge",
                "p99 upstream write+flush latency bucket bound",
                p99,
            ),
        ];
        for (suffix, kind, help, value) in series {
            out.push_str(&format!(
                "# HELP {namespace}_{suffix} {help}\n\
                 # TYPE {namespace}_{suffix} {kind}\n\
                 {namespace}_{suffix} {value}\n"
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use implicate::core::metrics::lint_prometheus;

    #[test]
    fn edge_status_json_and_prometheus_render_and_lint() {
        let edge = EdgeStatus::new("127.0.0.1:7071".into(), 3);
        edge.record_backoff(100);
        edge.record_connect();
        edge.record_ship(2_048, true, 5_000, 10);
        edge.record_ship(128, false, 3_000, 20);
        edge.set_unshipped(7);
        let json = edge.status_json(30);
        assert!(json.contains("\"upstream\":\"127.0.0.1:7071\""), "{json}");
        assert!(json.contains("\"connected\":true"), "{json}");
        assert!(json.contains("\"ships\":2"), "{json}");
        assert!(json.contains("\"fulls\":1"), "{json}");
        assert!(json.contains("\"deltas\":1"), "{json}");
        assert!(json.contains("\"last_ship_age_ms\":10"), "{json}");
        assert!(json.contains("\"unshipped_rows\":7"), "{json}");
        assert!(json.contains("\"backoff_ms\":0"), "{json}");

        let mut text = String::new();
        edge.prometheus_into("implicate", 30, &mut text);
        assert!(text.contains("implicate_edge_connected 1"), "{text}");
        assert!(text.contains("implicate_edge_ships_total 2"), "{text}");
        assert_eq!(lint_prometheus(&text), Ok(13));

        edge.record_send_error();
        assert!(edge.status_json(40).contains("\"connected\":false"));
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
