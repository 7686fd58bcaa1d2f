//! In-tree fuzz smoke for the text front end: a deterministic xorshift
//! mutation loop over lines shaped like the network and OLAP benchmark
//! rows, asserting that `implicate::text::RowReader` never panics and
//! agrees with the `str` reference on every row, skip and error, through
//! any buffer size and with a failed read at any cut.
//!
//! Runs for about a second by default so it rides along with `cargo
//! test`; set `TEXT_FUZZ_SECS` for a longer campaign (nightly CI runs
//! the dedicated `cargo fuzz` target `row_reader` in `fuzz/` for ≥60 s,
//! and this smoke at 60 s as a fallback where nightly toolchains are
//! unavailable).

use std::time::{Duration, Instant};

#[path = "support/text_lines.rs"]
mod text_lines;

/// xorshift64* — tiny, deterministic, good enough to drive mutations.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Texts to mutate from: network rows (source, destination, port,
/// time bucket) and OLAP rows (8 integers), whitespace- and
/// comma-separated, with comments, blank lines and `\r\n` ends.
fn seed_corpus() -> Vec<Vec<u8>> {
    vec![
        b"10.1.2.3 172.16.0.9 443 7\n10.200.17.4 172.31.255.1 8080 23\n".to_vec(),
        b"# src dst port t\n10.0.0.1 172.16.0.1 22 0\r\n\n10.9.9.9 172.20.1.2 53 5".to_vec(),
        b"12 5 3 1 77 2 9 4\n524287 0 41 3 250 99 7 1\n".to_vec(),
        b"12,5,3,1,77,2,9,4\r\n 524287 , 0 ,41,3,250,99,7,1\n,,\n".to_vec(),
        "10.1.2.3\t172.16.0.9\u{a0}443 7\n12¦5¦3\n"
            .as_bytes()
            .to_vec(),
    ]
}

/// Bytes a mutation inserts: ASCII whitespace (VT and FF too), the
/// non-whitespace `\x1c`, U+0085 and U+2028 (whitespace outside ASCII),
/// line ends, comments, delimiters (`,` and `¦`), invalid UTF-8 and a
/// long field.
const INSERTS: &[&[u8]] = &[
    b" ",
    b"\t",
    b"\x0b",
    b"\x0c",
    b"\x1c",
    b"\r",
    b"\n",
    b"\r\n",
    b"#",
    b",",
    b"\xc2\x85",
    b"\xe2\x80\xa8",
    b"\xc2\xa6",
    b"\xff",
    b"\xc3",
    b"0123456789abcdefghij",
];

#[test]
fn mutated_lines_never_panic_and_match_the_reference() {
    let secs: u64 = std::env::var("TEXT_FUZZ_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let deadline = Instant::now() + Duration::from_secs(secs);
    let corpus = seed_corpus();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut rounds = 0u64;
    while Instant::now() < deadline {
        let mut text = corpus[rng.below(corpus.len())].clone();
        for _ in 0..=rng.below(4) {
            match rng.below(4) {
                // Bit flips.
                0 if !text.is_empty() => {
                    let at = rng.below(text.len());
                    text[at] ^= 1 << rng.below(8);
                }
                // Truncate.
                1 => text.truncate(rng.below(text.len() + 1)),
                // Insert a separator, line end or invalid byte.
                2 => {
                    let at = rng.below(text.len() + 1);
                    let insert = INSERTS[rng.below(INSERTS.len())];
                    text.splice(at..at, insert.iter().copied());
                }
                // Splice in a window of another corpus entry.
                _ => {
                    let donor = &corpus[rng.below(corpus.len())];
                    let from = rng.below(donor.len());
                    let n = rng.below(donor.len() - from + 1);
                    let at = rng.below(text.len() + 1);
                    text.splice(at..at, donor[from..from + n].iter().copied());
                }
            }
        }
        // The fuzz target's input layout: mode, capacity, four cuts, text.
        let mut data: Vec<u8> = (0..6).map(|_| rng.next() as u8).collect();
        data.extend_from_slice(&text);
        text_lines::check(&data);
        rounds += 1;
    }
    assert!(rounds > 0, "fuzz loop never ran");
}
