//! The shared delimited-text front end (`implicate::text::RowReader`)
//! against the per-line parser it replaced in both binaries:
//! `BufRead::lines()`, then split and project each line. Both must
//! produce the same rows and the same skip count on every input.

use std::io::{self, BufRead, BufReader, Read};

use implicate::sketch::hash::MixHasher;
use implicate::spec::FIELD_HASHER_SEED;
use implicate::text::{hash_field, Row, RowReader};

/// Rows (selected field words) and the count of rows skipped as short.
type Parsed = (Vec<Vec<u64>>, u64);

/// The replaced splitter.
fn split_line(line: &str, delimiter: Option<char>) -> Vec<&str> {
    match delimiter {
        Some(d) => line.split(d).map(str::trim).collect(),
        None => line.split_whitespace().collect(),
    }
}

/// The replaced projection.
fn project(fields: &[&str], cols: &[usize], hasher: &MixHasher, out: &mut Vec<u64>) -> bool {
    out.clear();
    for &c in cols {
        match fields.get(c) {
            Some(f) => out.push(hash_field(hasher, f)),
            None => return false,
        }
    }
    true
}

/// The replaced read loop, over the whole input at once.
fn reference(input: &[u8], cols: &[usize], delimiter: Option<char>) -> Parsed {
    let hasher = MixHasher::new(FIELD_HASHER_SEED);
    let (mut rows, mut skipped) = (Vec::new(), 0);
    let mut buf = Vec::new();
    for line in input.lines() {
        let line = line.expect("reference inputs are UTF-8");
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if project(&split_line(&line, delimiter), cols, &hasher, &mut buf) {
            rows.push(buf.clone());
        } else {
            skipped += 1;
        }
    }
    (rows, skipped)
}

/// The front end, retrying after every read timeout.
fn front_end(mut input: impl BufRead, cols: &[usize], delimiter: Option<char>) -> Parsed {
    let mut reader = RowReader::new(cols, delimiter);
    let (mut rows, mut skipped) = (Vec::new(), 0);
    let mut words = Vec::new();
    loop {
        words.clear();
        match reader.read_row(&mut input, &mut words) {
            Ok(Row::Fields) => rows.push(words.clone()),
            Ok(Row::Short) => {
                assert!(words.is_empty(), "a short row appended words");
                skipped += 1;
            }
            Ok(Row::End) => return (rows, skipped),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("read error: {e}"),
        }
    }
}

/// Serves one chunk per read, with a `WouldBlock` error — what a socket
/// read timeout returns — between consecutive chunks.
struct Trickle {
    chunks: Vec<Vec<u8>>,
    next: usize,
    timed_out: bool,
}

impl Trickle {
    fn new(input: &[u8], cuts: &[usize]) -> Self {
        let mut chunks = Vec::new();
        let mut from = 0;
        for &cut in cuts.iter().chain([&input.len()]) {
            chunks.push(input[from..cut].to_vec());
            from = cut;
        }
        Self {
            chunks,
            next: 0,
            timed_out: false,
        }
    }
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(chunk) = self.chunks.get(self.next) else {
            return Ok(0);
        };
        if self.next > 0 && !self.timed_out {
            self.timed_out = true;
            return Err(io::ErrorKind::WouldBlock.into());
        }
        assert!(chunk.len() <= buf.len(), "test chunks fit one read");
        buf[..chunk.len()].copy_from_slice(chunk);
        self.next += 1;
        self.timed_out = false;
        Ok(chunk.len())
    }
}

/// Column lists exercised on every input: single, several, repeated,
/// out of order, and one past most rows' width.
const COLUMN_LISTS: &[&[usize]] = &[&[0], &[0, 1], &[1, 0, 1], &[0, 2], &[3]];

fn assert_same(input: &[u8], delimiter: Option<char>) {
    for cols in COLUMN_LISTS {
        let want = reference(input, cols, delimiter);
        assert_eq!(
            front_end(input, cols, delimiter),
            want,
            "input {:?}, cols {cols:?}, delimiter {delimiter:?}",
            String::from_utf8_lossy(input)
        );
        // The same bytes split across reads with a timeout at every cut.
        for cut in 1..input.len() {
            let trickle = BufReader::new(Trickle::new(input, &[cut]));
            assert_eq!(
                front_end(trickle, cols, delimiter),
                want,
                "input {:?} cut at {cut}, cols {cols:?}",
                String::from_utf8_lossy(input)
            );
        }
    }
}

#[test]
fn crlf_comments_and_blank_lines() {
    for delimiter in [None, Some(',')] {
        assert_same(b"a b\r\nc,d\r\n\r\n# x y\n#\n\n  \ne f g\n", delimiter);
    }
}

#[test]
fn delimiter_fields_are_trimmed() {
    assert_same(b" a , b ,c\n\t x\t,y z, \n,,\n a b , c d \n", Some(','));
    assert_same(b"a;b;c\n;;\nx\n", Some(';'));
}

#[test]
fn unicode_whitespace_splits_fields() {
    let input = "a\u{a0}b c\nx\u{3000}y\u{3000}z\n\u{3000}\nd\u{2003}e\n";
    assert_same(input.as_bytes(), None);
    // Under a delimiter, str::trim strips the same characters.
    assert_same("\u{a0}a\u{a0},\u{3000}b\n".as_bytes(), Some(','));
}

#[test]
fn long_fields_and_short_rows() {
    let input = b"averyveryverylongfield another-field-well-over-8-bytes 12345678\n\
                  only-one\n123456789 x\n\nq w e r\n";
    for delimiter in [None, Some(' ')] {
        assert_same(input, delimiter);
    }
}

#[test]
fn last_line_without_newline() {
    assert_same(b"a b\nc d", None);
    assert_same(b"a b\nc d\r", None);
    // A final lone `\r` is not a line end: the row is there, and short.
    assert_same(b"a b\n\r", None);
    assert_same(b"a,b\nc,d\r", Some(','));
    assert_same(b"# only a comment", None);
    assert_same(b"", None);
}

#[test]
fn line_split_across_reads_with_timeouts_between() {
    // Several cuts in one input, including inside a multi-byte
    // character and between `\r` and `\n`.
    let input = "s1 d1\r\nsrc2 dst\u{3000}2 x\r\n# c\nlast row here".as_bytes();
    let cuts = [3, 6, 12, 16, 17, 25, 30];
    for cols in COLUMN_LISTS {
        let trickle = BufReader::new(Trickle::new(input, &cuts));
        assert_eq!(
            front_end(trickle, cols, None),
            reference(input, cols, None),
            "cols {cols:?}"
        );
    }
}

#[test]
fn random_inputs_match_the_reference() {
    // Lines over an alphabet dense in separators, comments and line
    // ends, cut at a pseudo-random point.
    const ALPHABET: &[&str] = &[
        "a",
        "b",
        "long-field-",
        " ",
        " ",
        ",",
        "\t",
        "\r",
        "\n",
        "\n",
        "#",
        "é",
        "\u{a0}",
        "\u{3000}",
    ];
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    for _ in 0..300 {
        let len = next(40);
        let input: String = (0..len).map(|_| ALPHABET[next(ALPHABET.len())]).collect();
        let bytes = input.as_bytes();
        // An empty chunk would read as end of input, so cut inside.
        let cuts = match bytes.len() {
            0 | 1 => vec![],
            n => vec![1 + next(n - 1)],
        };
        for delimiter in [None, Some(',')] {
            for cols in COLUMN_LISTS {
                let want = reference(bytes, cols, delimiter);
                assert_eq!(front_end(bytes, cols, delimiter), want, "{input:?}");
                let trickle = BufReader::new(Trickle::new(bytes, &cuts));
                assert_eq!(
                    front_end(trickle, cols, delimiter),
                    want,
                    "{input:?} @ {cuts:?}"
                );
            }
        }
    }
}

#[test]
fn invalid_utf8_is_an_invalid_data_error() {
    let mut reader = RowReader::new(&[0, 1], None);
    let mut input: &[u8] = b"a b\nc \xff d\n";
    let mut words = Vec::new();
    assert_eq!(
        reader.read_row(&mut input, &mut words).unwrap(),
        Row::Fields
    );
    let err = reader.read_row(&mut input, &mut words).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}
