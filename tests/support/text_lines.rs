//! The `str` reference for `implicate::text::RowReader` and the harness
//! that checks the reader against it on arbitrary bytes. Shared by
//! `tests/text_front_end.rs`, `tests/text_fuzz_smoke.rs` and the
//! `row_reader` cargo-fuzz target (`fuzz/fuzz_targets/row_reader.rs`).

#![allow(dead_code)] // each includer uses a different part

use std::io::{self, BufRead, BufReader, Read};

use implicate::sketch::hash::MixHasher;
use implicate::spec::FIELD_HASHER_SEED;
use implicate::text::{hash_field, Row, RowReader};

/// What a read loop saw, one line at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A row's selected field words, in column-list order.
    Row(Vec<u64>),
    /// A row with too few fields for the column list.
    Short,
    /// A line that is not UTF-8.
    Invalid,
}

/// Column lists: single, several, repeated, out of order, and one past
/// most rows' width.
pub const COLUMN_LISTS: &[&[usize]] = &[&[0], &[0, 1], &[1, 0, 1], &[0, 2], &[3]];

/// Delimiters: whitespace, ASCII, ASCII whitespace, non-ASCII, and the
/// `\r` that `\r\n` line ends share.
pub const DELIMITERS: &[Option<char>] = &[None, Some(','), Some('\t'), Some('¦'), Some('\r')];

/// The `lines()` + split + project loop `RowReader` replaced: a line
/// that is not UTF-8 is an `InvalidData` error, and reading goes on
/// after it.
pub fn reference(input: &[u8], cols: &[usize], delimiter: Option<char>) -> Vec<Event> {
    let hasher = MixHasher::new(FIELD_HASHER_SEED);
    let mut events = Vec::new();
    for line in input.lines() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                events.push(Event::Invalid);
                continue;
            }
        };
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = match delimiter {
            Some(d) => line.split(d).map(str::trim).collect(),
            None => line.split_whitespace().collect(),
        };
        let words: Option<Vec<u64>> = cols
            .iter()
            .map(|&c| fields.get(c).map(|f| hash_field(&hasher, f)))
            .collect();
        events.push(words.map_or(Event::Short, Event::Row));
    }
    events
}

/// `RowReader` over `input`, retrying after every read timeout. An
/// `Interrupted` error must never reach the caller.
pub fn front_end(mut input: impl BufRead, cols: &[usize], delimiter: Option<char>) -> Vec<Event> {
    let mut reader = RowReader::new(cols, delimiter);
    let mut events = Vec::new();
    let mut words = Vec::new();
    loop {
        words.clear();
        match reader.read_row(&mut input, &mut words) {
            Ok(Row::Fields) => events.push(Event::Row(words.clone())),
            Ok(Row::Short) => {
                assert!(words.is_empty(), "a short row appended words");
                events.push(Event::Short);
            }
            Ok(Row::End) => return events,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                assert!(words.is_empty(), "an invalid line appended words");
                events.push(Event::Invalid);
            }
            Err(e) => panic!("read error: {e}"),
        }
    }
}

/// Serves its input in pieces cut at fixed offsets, each in as many
/// reads as the caller's buffer needs, and fails one read with `error`
/// between consecutive pieces.
pub struct Pieces {
    pieces: Vec<Vec<u8>>,
    next: usize,
    at: usize,
    error: io::ErrorKind,
    failed: bool,
}

impl Pieces {
    /// `input` cut at `cuts` (increasing, inside the input).
    pub fn new(input: &[u8], cuts: &[usize], error: io::ErrorKind) -> Self {
        let mut pieces = Vec::new();
        let mut from = 0;
        for &cut in cuts.iter().chain([&input.len()]) {
            pieces.push(input[from..cut].to_vec());
            from = cut;
        }
        Self {
            pieces,
            next: 0,
            at: 0,
            error,
            failed: false,
        }
    }
}

impl Read for Pieces {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(piece) = self.pieces.get(self.next) else {
            return Ok(0);
        };
        if self.next > 0 && self.at == 0 && !self.failed {
            self.failed = true;
            return Err(self.error.into());
        }
        let n = buf.len().min(piece.len() - self.at);
        buf[..n].copy_from_slice(&piece[self.at..self.at + n]);
        self.at += n;
        if self.at == piece.len() {
            (self.next, self.at, self.failed) = (self.next + 1, 0, false);
        }
        Ok(n)
    }
}

/// Checks `RowReader` against the reference on `text` read through a
/// `BufReader` of `capacity` over [`Pieces`].
pub fn assert_agrees(
    text: &[u8],
    cols: &[usize],
    delimiter: Option<char>,
    capacity: usize,
    cuts: &[usize],
    error: io::ErrorKind,
) {
    let input = BufReader::with_capacity(capacity, Pieces::new(text, cuts, error));
    assert_eq!(
        front_end(input, cols, delimiter),
        reference(text, cols, delimiter),
        "text {:?}, cols {cols:?}, delimiter {delimiter:?}, capacity {capacity}, cuts {cuts:?}, {error:?}",
        String::from_utf8_lossy(text),
    );
}

/// One fuzz case: `data[0]` picks the column list, the delimiter and
/// the error between pieces, `data[1]` the buffer capacity, `data[2..6]`
/// up to four cut points, and the rest is the text. Panics if the
/// reader and the reference disagree.
pub fn check(data: &[u8]) {
    let [mode, capacity, rest @ ..] = data else {
        return;
    };
    let (cut_bytes, text) = rest.split_at(rest.len().min(4));
    let cols = COLUMN_LISTS[usize::from(*mode) % COLUMN_LISTS.len()];
    let delimiter = DELIMITERS[usize::from(mode / 8) % DELIMITERS.len()];
    let error = if mode & 0x80 == 0 {
        io::ErrorKind::WouldBlock
    } else {
        io::ErrorKind::Interrupted
    };
    let capacity = match capacity {
        0 => 8192,
        c => usize::from(c % 32),
    }
    .max(1);
    // Cuts strictly inside the text: an empty piece would read as its end.
    let mut cuts: Vec<usize> = cut_bytes
        .iter()
        .map(|&b| usize::from(b) * text.len() / 256)
        .filter(|&cut| cut > 0)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    assert_agrees(text, cols, delimiter, capacity, &cuts, error);
}
