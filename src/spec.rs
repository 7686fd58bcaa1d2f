//! Parsing shared by both binaries: column lists, the estimator flags
//! and declarative query-catalog specs.
//!
//! [`ESTIMATOR_FLAGS`] is the one definition of the flags `implicate`
//! and `implicate-serve` share. [`EstimatorFlags::build`] checks every
//! range before any asserting builder runs, with the checks query-spec
//! options get too: K, c and σ at least 1, ψ in [0, 100] percent (§3).
//!
//! A query-spec line — an `implicate --query-file` line or the body of
//! `implicate-serve`'s `POST /query` — is
//!
//! ```text
//! name kind lhs rhs [options…]
//! ```
//!
//! where `kind` is `distinct` | `one-to-one` | `at-most` | `more-than` |
//! `noisy`; `lhs`/`rhs` are disjoint comma-separated 0-based column lists
//! (`-` for none); and options are `k=K`, `c=C`, `psi=PERCENT`,
//! `support=N`, the bare flag `complement`, and repeatable
//! `where=COL=VALUE` conditions (`VALUE` is matched as a raw text field,
//! hashed with the same field hasher the data rows go through).

use std::str::FromStr;

use imp_core::nips::CELLS;
use imp_core::query::{Filter, ImplicationQuery};
use imp_core::{
    EstimatorConfig, Fringe, ImplicationConditions, ImplicationEstimator, MultiplicityPolicy,
    SnapshotError,
};
use imp_sketch::hash::MixHasher;
use imp_stream::{AttrId, AttrSet};

/// Seed of the hasher folding raw text fields into 64-bit fingerprints.
/// Rows and `where=` literals must agree on it, so it is fixed across
/// every front end (CLI, serve).
pub const FIELD_HASHER_SEED: u64 = 0x00f1_e1d5;

/// One parsed spec line: a registration name, the query, and the raw
/// column lists (kept for exact-audit projections and schema sizing).
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The name the query registers under.
    pub name: String,
    /// The declarative query (filter included).
    pub query: ImplicationQuery,
    /// `lhs` columns in spec order.
    pub lhs_cols: Vec<usize>,
    /// `rhs` columns in spec order.
    pub rhs_cols: Vec<usize>,
}

impl QuerySpec {
    /// The highest column this spec touches (lhs, rhs, or a `where=`
    /// clause) — schemas must span at least `max_column() + 1`.
    pub fn max_column(&self) -> usize {
        self.lhs_cols
            .iter()
            .chain(&self.rhs_cols)
            .copied()
            .chain(self.query.filter.attrs().iter().map(|a| a.index()))
            .max()
            .unwrap_or(0)
    }
}

/// Parses a comma-separated list of 0-based column numbers (each
/// trimmed), the `--lhs`/`--rhs` syntax of both binaries.
pub fn parse_columns(raw: &str) -> Result<Vec<usize>, String> {
    raw.split(',')
        .map(|c| c.trim().parse().map_err(|_| format!("bad column {c:?}")))
        .collect()
}

/// `value` when it is at least 1, the domain of K, c and σ (§3).
fn at_least_one<T: PartialOrd + From<u8>>(what: &str, value: T) -> Result<T, String> {
    (value >= T::from(1))
        .then_some(value)
        .ok_or_else(|| format!("{what} must be at least 1"))
}

/// `psi` when it is a percentage in [0, 100], the domain of ψ (§3).
fn percent(what: &str, psi: f64) -> Result<f64, String> {
    (0.0..=100.0)
        .contains(&psi)
        .then_some(psi)
        .ok_or_else(|| format!("{what} must be in [0, 100]"))
}

fn num<T: FromStr>(raw: &str) -> Result<T, String> {
    raw.parse().map_err(|_| format!("bad value {raw:?}"))
}

/// The values of [`ESTIMATOR_FLAGS`] given on a command line, unchecked
/// until [`Self::build`], which also supplies the defaults.
#[derive(Debug, Clone, Default)]
pub struct EstimatorFlags {
    /// `--delimiter`: the field delimiter; `None` splits on any
    /// whitespace.
    pub delimiter: Option<char>,
    max_mult: Option<u32>,
    support: Option<u64>,
    top_c: Option<u32>,
    confidence: Option<f64>,
    policy: MultiplicityPolicy,
    bitmaps: Option<usize>,
    fringe: Option<u32>,
    memory_budget: Option<usize>,
    seed: Option<u64>,
}

impl EstimatorFlags {
    /// The estimator configuration, or an error naming the first flag
    /// out of its range.
    pub fn build(&self) -> Result<EstimatorConfig, String> {
        let k = at_least_one("--max-mult", self.max_mult.unwrap_or(1))?;
        let support = at_least_one("--support", self.support.unwrap_or(1))?;
        let top_c = at_least_one("--top-c", self.top_c.unwrap_or(k))?;
        let psi = percent("--confidence", self.confidence.unwrap_or(100.0))? / 100.0;
        let bitmaps = self.bitmaps.unwrap_or(64);
        if !bitmaps.is_power_of_two() {
            return Err("--bitmaps must be a power of two".into());
        }
        let fringe = match self.fringe.unwrap_or(4) {
            0 => Fringe::Unbounded,
            f if f <= CELLS => Fringe::Bounded(f),
            _ => return Err(format!("--fringe must be at most {CELLS} (0 = unbounded)")),
        };
        let cond = ImplicationConditions::builder()
            .max_multiplicity(k)
            .min_support(support)
            .top_confidence(top_c, psi)
            .multiplicity_policy(self.policy)
            .build();
        let config = EstimatorConfig::new(cond)
            .bitmaps(bitmaps)
            .fringe(fringe)
            .seed(self.seed.unwrap_or(42));
        let Some(bytes) = self.memory_budget else {
            return Ok(config);
        };
        let floor = config.construction_floor();
        if bytes < floor {
            return Err(format!(
                "--memory-budget {bytes} is below the smallest enforceable budget \
                 for this configuration: {floor} bytes ({m} initial arena tables; \
                 lower --bitmaps or raise the budget)",
                m = bitmaps * 2,
            ));
        }
        Ok(config.memory_budget(bytes))
    }
}

/// Reads the snapshot file at `path` and restores it under `config`
/// with [`EstimatorConfig::restore`] (`implicate --resume`,
/// `implicate-serve --checkpoint`). The error is one line; for a snapshot
/// built with other estimator settings it names the flag that differs.
pub fn restore_snapshot(
    config: &EstimatorConfig,
    path: &str,
) -> Result<ImplicationEstimator, String> {
    let raw = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    config.restore(raw.into()).map_err(|e| match &e {
        SnapshotError::Mismatch {
            quantity: "conditions",
            ..
        } => format!("{path}: {e} (--max-mult, --support, --top-c, --confidence, --policy)"),
        SnapshotError::Mismatch { quantity, .. } => format!("{path}: {e} (--{quantity})"),
        _ => format!("{path}: {e}"),
    })
}

/// One flag of [`ESTIMATOR_FLAGS`]: its name, value placeholder, help
/// text (further lines indent under the first) and setter.
pub struct EstimatorFlag {
    name: &'static str,
    metavar: &'static str,
    doc: &'static str,
    apply: fn(&mut EstimatorFlags, &str) -> Result<(), String>,
}

impl EstimatorFlag {
    /// The shared flag called `name`, if there is one.
    pub fn find(name: &str) -> Option<&'static EstimatorFlag> {
        ESTIMATOR_FLAGS.iter().find(|f| f.name == name)
    }

    /// Applies one occurrence of the flag with `value`; an error names
    /// the flag.
    pub fn set(&self, flags: &mut EstimatorFlags, value: &str) -> Result<(), String> {
        (self.apply)(flags, value).map_err(|e| format!("{}: {e}", self.name))
    }
}

/// The flags both binaries share, in usage order.
pub const ESTIMATOR_FLAGS: &[EstimatorFlag] = &[
    EstimatorFlag {
        name: "--delimiter",
        metavar: "C",
        doc: "field delimiter (default: any whitespace; e.g. ',')",
        apply: |f, v| {
            let mut chars = v.chars();
            f.delimiter = chars.next();
            if f.delimiter.is_none() || chars.next().is_some() {
                return Err("must be a single character".into());
            }
            Ok(())
        },
    },
    EstimatorFlag {
        name: "--max-mult",
        metavar: "K",
        doc: "maximum multiplicity (default 1)",
        apply: |f, v| num(v).map(|n| f.max_mult = Some(n)),
    },
    EstimatorFlag {
        name: "--support",
        metavar: "N",
        doc: "minimum absolute support σ (default 1)",
        apply: |f, v| num(v).map(|n| f.support = Some(n)),
    },
    EstimatorFlag {
        name: "--top-c",
        metavar: "C",
        doc: "the c of the top-confidence level (default = K)",
        apply: |f, v| num(v).map(|n| f.top_c = Some(n)),
    },
    EstimatorFlag {
        name: "--confidence",
        metavar: "P",
        doc: "minimum top-c confidence in percent (default 100)",
        apply: |f, v| num(v).map(|n| f.confidence = Some(n)),
    },
    EstimatorFlag {
        name: "--policy",
        metavar: "P",
        doc: "strict | tracktop (default strict)",
        apply: |f, v| {
            f.policy = match v {
                "strict" => MultiplicityPolicy::Strict,
                "tracktop" => MultiplicityPolicy::TrackTop,
                other => return Err(format!("unknown policy {other:?}")),
            };
            Ok(())
        },
    },
    EstimatorFlag {
        name: "--bitmaps",
        metavar: "M",
        doc: "stochastic-averaging bitmaps, power of two (default 64)",
        apply: |f, v| num(v).map(|n| f.bitmaps = Some(n)),
    },
    EstimatorFlag {
        name: "--fringe",
        metavar: "F",
        doc: "fringe size, at most 64 (default 4); 0 = unbounded",
        apply: |f, v| num(v).map(|n| f.fringe = Some(n)),
    },
    EstimatorFlag {
        name: "--memory-budget",
        metavar: "BYTES",
        doc: "hard cap on tracked-state memory (default: unlimited);\nat the cap, admissions shed the weakest tracked\nitemsets instead of growing (watch the metrics\nestimator.mem_bytes and estimator.shed_events)",
        apply: |f, v| num(v).map(|n| f.memory_budget = Some(n)),
    },
    EstimatorFlag {
        name: "--seed",
        metavar: "N",
        doc: "hash seed (default 42)",
        apply: |f, v| num(v).map(|n| f.seed = Some(n)),
    },
];

/// Formats usage entries `(name, metavar, doc)`: one `  NAME METAVAR  doc`
/// line each, the left column as wide as the widest, further lines of
/// `doc` indented under the first.
pub fn usage_lines<'a>(entries: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>) -> String {
    let entries: Vec<_> = entries
        .into_iter()
        .map(|(name, metavar, doc)| (format!("{name} {metavar}").trim_end().to_owned(), doc))
        .collect();
    let width = entries
        .iter()
        .map(|(left, _)| left.len())
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (left, doc) in &entries {
        for (i, line) in doc.lines().enumerate() {
            let left = if i == 0 { left.as_str() } else { "" };
            out.push_str(&format!("  {left:<width$}  {line}\n"));
        }
    }
    out
}

/// The usage lines of [`ESTIMATOR_FLAGS`].
pub fn estimator_usage() -> String {
    usage_lines(ESTIMATOR_FLAGS.iter().map(|f| (f.name, f.metavar, f.doc)))
}

/// A spec's column list: [`parse_columns`], or `-` for none, and every
/// column below 64.
fn parse_cols(raw: &str, side: &str) -> Result<Vec<usize>, String> {
    if raw == "-" {
        return Ok(Vec::new());
    }
    let cols = parse_columns(raw).map_err(|e| format!("{side}: {e}"))?;
    if let Some(col) = cols.iter().find(|&&c| c >= 64) {
        return Err(format!("{side} column {col} out of range (max 63)"));
    }
    Ok(cols)
}

/// Parses one spec line (which must not be empty or a comment).
pub fn parse_query_line(line: &str) -> Result<QuerySpec, String> {
    let mut tokens = line.split_whitespace();
    let name = tokens.next().ok_or("missing query name")?;
    let kind = tokens.next().ok_or("missing query kind")?;
    let lhs_cols = parse_cols(tokens.next().ok_or("missing lhs columns")?, "lhs")?;
    let rhs_cols = parse_cols(tokens.next().ok_or("missing rhs columns")?, "rhs")?;
    let set = |cols: &[usize]| AttrSet::from_bits(cols.iter().fold(0, |m, &c| m | 1 << c));
    let (lhs, rhs) = (set(&lhs_cols), set(&rhs_cols));

    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let mut k: u32 = 1;
    let mut c: u32 = 1;
    let mut psi: f64 = 100.0;
    let mut support: u64 = 1;
    let mut complement = false;
    let mut filter = Filter::new();
    for opt in tokens {
        if opt == "complement" {
            complement = true;
        } else if let Some(v) = opt.strip_prefix("k=") {
            k = at_least_one("k=", v.parse().map_err(|_| "bad k=")?)?;
        } else if let Some(v) = opt.strip_prefix("c=") {
            c = at_least_one("c=", v.parse().map_err(|_| "bad c=")?)?;
        } else if let Some(v) = opt.strip_prefix("psi=") {
            psi = percent("psi=", v.parse().map_err(|_| "bad psi=")?)?;
        } else if let Some(v) = opt.strip_prefix("support=") {
            support = at_least_one("support=", v.parse().map_err(|_| "bad support=")?)?;
        } else if let Some(v) = opt.strip_prefix("where=") {
            let (col, value) = v.split_once('=').ok_or("where= needs COL=VALUE")?;
            let col: usize = col.parse().map_err(|_| "bad where= column")?;
            if col >= 64 {
                return Err(format!("where= column {col} out of range (max 63)"));
            }
            filter = filter.and_eq(
                AttrId(col as u8),
                crate::text::hash_field(&field_hasher, value),
            );
        } else {
            return Err(format!("unknown option {opt:?}"));
        }
    }

    if rhs_cols.is_empty() && kind != "distinct" {
        return Err(format!("kind {kind:?} needs rhs columns"));
    }
    if !lhs.is_disjoint(rhs) {
        return Err("lhs and rhs columns must be disjoint".into());
    }
    let mut query = match kind {
        "distinct" => {
            if !rhs_cols.is_empty() {
                return Err("distinct takes no rhs (use `-`)".into());
            }
            ImplicationQuery::distinct_count(lhs)
        }
        "one-to-one" => ImplicationQuery::one_to_one(lhs, rhs, support),
        "at-most" => ImplicationQuery::at_most(lhs, rhs, k, support),
        "more-than" => ImplicationQuery::more_than(lhs, rhs, k, support),
        "noisy" => ImplicationQuery::noisy(lhs, rhs, c, psi / 100.0, support),
        other => return Err(format!("unknown query kind {other:?}")),
    };
    if complement {
        query = query.complement();
    }
    query = query.filtered(filter);
    Ok(QuerySpec {
        name: name.to_owned(),
        query,
        lhs_cols,
        rhs_cols,
    })
}

/// Parses a whole query file (empty lines and `#` comments skipped);
/// errors carry 1-based line numbers.
pub fn parse_query_file(body: &str) -> Result<Vec<QuerySpec>, String> {
    let mut out = Vec::new();
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_query_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    if out.is_empty() {
        return Err("no queries".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_core::query::QueryKind;
    use imp_stream::Tuple;

    #[test]
    fn parses_every_kind() {
        let file = "\
            # comment\n\
            sources   distinct    0    -\n\
            loyal     one-to-one  0    1     support=2\n\
            capped    at-most     0    1,2   k=3\n\
            fanout    more-than   0    1     k=10 support=5\n\
            mostly    noisy       0,2  1     c=2 psi=85 support=3\n\
            flipped   one-to-one  1    2     complement\n";
        let specs = parse_query_file(file).expect("parses");
        assert_eq!(specs.len(), 6);
        assert_eq!(specs[0].name, "sources");
        assert_eq!(specs[0].query.kind, QueryKind::DistinctCount);
        assert_eq!(specs[1].query.conditions.min_support, 2);
        assert_eq!(specs[2].query.conditions.max_multiplicity, 3);
        assert_eq!(specs[2].rhs_cols, vec![1, 2]);
        assert_eq!(specs[3].query.kind, QueryKind::Complement);
        assert_eq!(specs[4].lhs_cols, vec![0, 2]);
        assert_eq!(specs[5].query.kind, QueryKind::Complement);
        assert_eq!(specs[4].max_column(), 2);
    }

    #[test]
    fn where_clause_hashes_the_literal_like_a_row_field() {
        let spec = parse_query_line("morning one-to-one 0 1 where=2=am").expect("parses");
        let hasher = MixHasher::new(FIELD_HASHER_SEED);
        let am = crate::text::hash_field(&hasher, "am");
        let pm = crate::text::hash_field(&hasher, "pm");
        assert!(spec.query.filter.matches(&Tuple::from([1, 2, am])));
        assert!(!spec.query.filter.matches(&Tuple::from([1, 2, pm])));
        assert_eq!(spec.max_column(), 2);
    }

    #[test]
    fn column_lists_parse_like_both_binaries_expect() {
        assert_eq!(parse_columns("0"), Ok(vec![0]));
        assert_eq!(parse_columns(" 3, 1 ,3"), Ok(vec![3, 1, 3]));
        for bad in ["", "x", "1,,2", "-1", "0;1"] {
            assert!(parse_columns(bad).is_err(), "{bad:?} should be rejected");
        }
        // The spec grammar adds `-` for none and the 64-column cap.
        assert_eq!(parse_cols("-", "rhs"), Ok(vec![]));
        assert!(parse_cols("63,64", "lhs").is_err());
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "only-a-name",
            "q unknown-kind 0 1",
            "q distinct 0 1",
            "q one-to-one 0 -",
            "q one-to-one 0 64",
            "q one-to-one 0 1 k=x",
            "q one-to-one 0 1 psi=140",
            "q one-to-one 0 1 where=2",
            "q one-to-one 0 1 bogus",
            "x one-to-one 0 0",
            "q at-most 0,1 1,2",
            "q at-most 0 1 k=0",
            "q more-than 0 1 k=0",
            "q noisy 0 1 c=0",
            "q one-to-one 0 1 support=0",
        ] {
            assert!(parse_query_line(bad).is_err(), "{bad:?} should be rejected");
        }
        assert!(parse_query_file("# only comments\n").is_err());
    }
}
