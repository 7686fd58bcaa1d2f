//! Proves the text front end's hot path is allocation-free: hashing a
//! text field (`implicate::text::hash_field`) must never touch the heap,
//! and reading lines into field words (`implicate::text::RowReader`, the
//! parser of both binaries) must not allocate once its buffers are warm:
//! neither on the in-place path, for lines that lie whole in the input's
//! buffer, nor on the carried-line path, for lines that straddle a
//! refill.
//!
//! Isolated in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, BufReader};

use implicate::sketch::hash::MixHasher;
use implicate::text::{hash_field, Row, RowReader};

struct CountingAlloc;

thread_local! {
    /// Per-thread allocation count, so concurrent test threads and the
    /// harness itself cannot pollute a measurement.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Reads every row of `input`, returning (rows, skipped) and a
/// fingerprint of the words read.
fn read_all(
    reader: &mut RowReader,
    mut input: impl BufRead,
    words: &mut Vec<u64>,
) -> (u64, u64, u64) {
    let (mut rows, mut skipped, mut acc) = (0, 0, 0);
    loop {
        words.clear();
        match reader.read_row(&mut input, words).expect("UTF-8 input") {
            Row::Fields => {
                rows += 1;
                acc ^= words.iter().fold(0, |x, w| x ^ w);
            }
            Row::Short => skipped += 1,
            Row::End => return (rows, skipped, acc),
        }
    }
}

#[test]
fn reading_rows_performs_zero_allocations() {
    let mut text = String::new();
    for i in 0..2_000 {
        text.push_str(&format!(
            "10.20.{}.{} https://example.com/a/rather/long/path?session={i} 443\r\n",
            i % 256,
            i / 256
        ));
        text.push_str("# comment\n\nshort-row\n");
    }
    let csv = text.replace(' ', " , ");
    for (input, delimiter) in [(&text, None), (&csv, Some(','))] {
        let mut reader = RowReader::new(&[0, 1, 2, 1], delimiter);
        let mut words = Vec::new();
        // Warm the line buffer and the word buffer, then demand a
        // perfectly quiet heap over the same lines again.
        let warm = read_all(&mut reader, input.as_bytes(), &mut words);
        let before = allocs_on_this_thread();
        let hot = read_all(&mut reader, input.as_bytes(), &mut words);
        let after = allocs_on_this_thread();
        assert_eq!(hot, warm);
        assert_eq!((hot.0, hot.1), (2_000, 2_000));
        assert_eq!(
            after - before,
            0,
            "reading rows allocated on the hot path (delimiter {delimiter:?})"
        );
    }
}

#[test]
fn lines_straddling_refills_perform_zero_allocations() {
    // A 16-byte buffer: nearly every line straddles a refill and is
    // carried; the short ones and the comments fit and parse in place,
    // and the `é` line takes the `str` path.
    let mut text = String::new();
    for i in 0..2_000 {
        text.push_str(&format!(
            "10.20.{}.{} https://example.com/a/rather/long/path?session={i} 443\n",
            i % 256,
            i / 256
        ));
        text.push_str("# c\na b c\ncaf\u{e9} x y\n");
    }
    let csv = text.replace(' ', ",");
    for (input, delimiter) in [(&text, None), (&csv, Some(','))] {
        let mut reader = RowReader::new(&[0, 2, 1], delimiter);
        let mut words = Vec::new();
        let warm = read_all(
            &mut reader,
            BufReader::with_capacity(16, input.as_bytes()),
            &mut words,
        );
        let small = BufReader::with_capacity(16, input.as_bytes());
        let before = allocs_on_this_thread();
        let hot = read_all(&mut reader, small, &mut words);
        let after = allocs_on_this_thread();
        assert_eq!(hot, warm);
        assert_eq!((hot.0, hot.1), (6_000, 0));
        assert_eq!(
            after - before,
            0,
            "reading carried lines allocated (delimiter {delimiter:?})"
        );
    }
}

#[test]
fn hash_field_alone_is_allocation_free_for_any_length() {
    let hasher = MixHasher::new(7);
    let long = "f".repeat(4096);
    let before = allocs_on_this_thread();
    let mut acc = 0u64;
    for field in ["", "short", "exactly-8", &long] {
        for _ in 0..1_000 {
            acc = acc.wrapping_add(hash_field(&hasher, field));
        }
    }
    let after = allocs_on_this_thread();
    assert_eq!(after - before, 0, "hash_field allocated (acc {acc})");
}
