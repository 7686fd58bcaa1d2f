//! Seeded input generation. The same `--seed` gives byte-identical
//! inputs; the programs under test receive only these files.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use implicate::datagen::network::{Episode, NetworkSpec, NetworkStream};
use implicate::datagen::olap::{OlapSpec, OlapStream};
use implicate::Tuple;

/// The catalog workload's 16 queries over the 8 OLAP columns
/// (A B C D E F G H = 0..7), cycling through four Table 2 kinds:
/// distinct count, one-to-one, one-to-many (`more-than`) and
/// one-to-one with noise. Supports keep every exact count well above
/// the sketch's small-count region, so `rel_error` measures the sketch
/// rather than the rounding of tiny answers.
pub const CATALOG_QUERIES: &str = "\
# name  kind        lhs    rhs  options
d-a     distinct    0      -
o-aeg   one-to-one  0,4,6  1    support=5
m-aeg   more-than   0,4,6  1    k=1 support=5
n-aeg   noisy       0,4,6  1    c=2 psi=60 support=5
d-ae    distinct    0,4    -
o-ag    one-to-one  0,6    1    support=2
m-ag    more-than   0,6    1    k=1 support=2
n-ag    noisy       0,6    1    c=2 psi=80 support=2
d-aeg   distinct    0,4,6  -    support=5
o-e     one-to-one  4      1    support=5
m-e     more-than   4      1    k=2 support=5
n-e     noisy       4      1    c=2 psi=80 support=5
d-gh    distinct    6,7    -
o-ae    one-to-one  0,4    1    support=3
m-ae    more-than   0,4    1    k=1 support=3
n-ae    noisy       0,4    1    c=2 psi=60 support=3
";

/// Network traffic for `seed`: Zipf-skewed background with a loyal
/// share, plus one flash crowd and one spoofed-source flood placed by
/// the seed inside the first `rows` tuples.
pub fn network_stream(seed: u64, rows: u64) -> NetworkStream {
    let at = |frac: u64| (rows / 100) * (10 + (seed.wrapping_mul(0x9e37_79b9) >> 7) % frac);
    NetworkStream::new(NetworkSpec {
        seed,
        sources: 400_000,
        destinations: 20_000,
        services: 16,
        time_buckets: 24,
        bucket_width: 50_000,
        loyal_permille: 400,
        episodes: vec![
            Episode::FlashCrowd {
                start: at(20),
                tuples: rows / 50,
                destination: 7,
            },
            Episode::Ddos {
                start: at(20) + rows / 2,
                tuples: rows / 25,
                destination: 11,
            },
        ],
    })
}

/// Appends `n` network rows as whitespace-separated text: IPv4-style
/// source and destination, a service port and a time bucket.
pub fn network_text(stream: &mut NetworkStream, n: u64, out: &mut Vec<u8>) {
    const PORTS: [u16; 16] = [
        80, 443, 22, 53, 25, 123, 8080, 3306, 5432, 6379, 993, 995, 1194, 3389, 5060, 8443,
    ];
    for _ in 0..n {
        let t = stream.next_row();
        let (src, dst) = (t.get(0), t.get(1));
        let _ = writeln!(
            out,
            "10.{}.{}.{} 172.{}.{}.{} {} {}",
            (src >> 16) & 0xff,
            (src >> 8) & 0xff,
            src & 0xff,
            16 + ((dst >> 16) & 0x0f),
            (dst >> 8) & 0xff,
            dst & 0xff,
            PORTS[(t.get(2) % 16) as usize],
            t.get(3),
        );
    }
}

/// `n` OLAP rows (8 integer columns, Table 3 cardinalities) for `seed`.
pub fn olap_text(seed: u64, n: u64) -> Vec<u8> {
    let mut stream = OlapStream::new(OlapSpec {
        seed,
        ..OlapSpec::default()
    });
    let mut out = Vec::with_capacity(n as usize * 40);
    for _ in 0..n {
        let t: Tuple = stream.next_row();
        let vals = t.values();
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {}",
            vals[0], vals[1], vals[2], vals[3], vals[4], vals[5], vals[6], vals[7]
        );
    }
    out
}

/// Writes `bytes` to `dir/name` and returns the path.
pub fn write_file(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<PathBuf> {
    let path = dir.join(name);
    std::fs::write(&path, bytes)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Iterates the non-empty, non-comment lines of a text input, the rows
    /// both binaries ingest.
    fn rows(text: &[u8]) -> impl Iterator<Item = &str> {
        text.split(|&b| b == b'\n')
            .filter_map(|line| std::str::from_utf8(line).ok())
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
    }

    fn ingest_text(seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        network_text(&mut network_stream(seed, 20_000), 20_000, &mut out);
        out
    }

    #[test]
    fn network_input_is_deterministic_per_seed() {
        assert_eq!(ingest_text(5), ingest_text(5));
        assert_ne!(ingest_text(5), ingest_text(6));
    }

    #[test]
    fn olap_input_is_deterministic_per_seed() {
        assert_eq!(olap_text(9, 5_000), olap_text(9, 5_000));
        assert_ne!(olap_text(9, 5_000), olap_text(10, 5_000));
    }

    #[test]
    fn rows_have_the_advertised_shape() {
        let text = ingest_text(1);
        assert_eq!(rows(&text).count(), 20_000);
        assert!(rows(&text).all(|r| r.split_whitespace().count() == 4));
        let olap = olap_text(1, 100);
        assert!(rows(&olap).all(|r| r.split_whitespace().count() == 8));
    }

    #[test]
    fn catalog_queries_parse_to_sixteen_over_eight_columns() {
        let specs = implicate::spec::parse_query_file(CATALOG_QUERIES).expect("valid spec");
        assert_eq!(specs.len(), 16);
        assert!(specs.iter().all(|s| s.max_column() < 8));
    }
}
