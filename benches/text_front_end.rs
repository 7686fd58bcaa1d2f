//! The text front end alone: `RowReader` over in-memory text shaped like
//! the two benchmark inputs, read through an 8 KiB `BufReader` as the
//! CLI reads a file.
//!
//! - `network_2_of_4`: IPv4-style source and destination, a port and a
//!   time bucket per row; the single-query CLI selects columns 0 and 1.
//! - `olap_8_of_8`: eight integer columns, all selected (the catalog).
//!
//! One iteration reads [`ROWS_PER_ITER`] rows, so ns/iter ÷ 1000 is the
//! ns/row. `cargo bench --bench text_front_end`.

#![allow(missing_docs)] // criterion_group expands undocumented items

use std::hint::black_box;
use std::io::{self, BufReader, Read, Write as _};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use implicate::datagen::network::{NetworkSpec, NetworkStream};
use implicate::datagen::olap::{OlapSpec, OlapStream};
use implicate::text::{Row, RowReader};

/// Rows read per benchmark iteration.
const ROWS_PER_ITER: u64 = 1000;

/// Rows of generated text; the reader cycles through them.
const ROWS: u64 = 100_000;

/// Serves `text` over and over, in reads no larger than the caller's
/// buffer, so lines straddle refills as they do in a file.
struct Cycle<'a> {
    text: &'a [u8],
    at: usize,
}

impl Read for Cycle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.text.len() - self.at);
        buf[..n].copy_from_slice(&self.text[self.at..self.at + n]);
        self.at = (self.at + n) % self.text.len();
        Ok(n)
    }
}

fn network_text() -> Vec<u8> {
    const PORTS: [u16; 16] = [
        80, 443, 22, 53, 25, 123, 8080, 3306, 5432, 6379, 993, 995, 1194, 3389, 5060, 8443,
    ];
    let mut stream = NetworkStream::new(NetworkSpec {
        seed: 1,
        sources: 400_000,
        destinations: 20_000,
        time_buckets: 24,
        bucket_width: 50_000,
        ..NetworkSpec::default()
    });
    let mut out = Vec::new();
    for _ in 0..ROWS {
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
    out
}

fn olap_text() -> Vec<u8> {
    let mut stream = OlapStream::new(OlapSpec {
        seed: 1,
        ..OlapSpec::default()
    });
    let mut out = Vec::new();
    for _ in 0..ROWS {
        let t = stream.next_row();
        let v = t.values();
        let _ = writeln!(
            out,
            "{} {} {} {} {} {} {} {}",
            v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
        );
    }
    out
}

fn bench_row_reader(c: &mut Criterion) {
    let mut g = c.benchmark_group("row_reader");
    g.throughput(Throughput::Elements(ROWS_PER_ITER));
    g.sample_size(200);
    let shapes: [(&str, Vec<u8>, &[usize]); 2] = [
        ("network_2_of_4", network_text(), &[0, 1]),
        ("olap_8_of_8", olap_text(), &[0, 1, 2, 3, 4, 5, 6, 7]),
    ];
    for (name, text, cols) in &shapes {
        let mut input = BufReader::new(Cycle { text, at: 0 });
        let mut reader = RowReader::new(cols, None);
        let mut words = Vec::with_capacity(ROWS_PER_ITER as usize * cols.len());
        g.bench_function(name, |b| {
            b.iter(|| {
                words.clear();
                for _ in 0..ROWS_PER_ITER {
                    let row = reader.read_row(&mut input, &mut words);
                    assert_eq!(row.expect("generated text"), Row::Fields);
                }
                black_box(words.last().copied())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_row_reader);
criterion_main!(benches);
