//! The delimited-text front end shared by `implicate` and
//! `implicate-serve`: lines in, field fingerprint words out.
//!
//! Fields are opaque byte strings. Each field is packed into 8-byte
//! little-endian words (the trailing chunk zero-padded and length-tagged
//! so `"a"` and `"a\0"` differ) and folded through the estimator's
//! [`Hasher64`] slice-chaining scheme — without materializing the word
//! slice, so hashing a field performs no heap allocation regardless of
//! field length. [`hash_field`] is the reference definition of a field's
//! word. [`RowReader`] computes the same words for the selected columns
//! of every row read from a [`BufRead`], parsing each line in place in
//! the reader's buffer.

use std::io::{self, BufRead};

use imp_sketch::hash::{Hasher64, MixHasher};

/// The empty-slice sentinel of [`Hasher64::hash_slice`].
const EMPTY_SENTINEL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Packs one ≤ 8-byte chunk into a length-tagged little-endian word.
#[inline]
fn pack_chunk(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..chunk.len()].copy_from_slice(chunk);
    u64::from_le_bytes(w) ^ chunk.len() as u64
}

/// Hashes a text field to a single fingerprint word, allocation-free.
///
/// Produces exactly `hasher.hash_slice(&words)` where `words` is the
/// field's packed chunk sequence — so fingerprints are interchangeable
/// with those of callers that materialize the words.
pub fn hash_field<H: Hasher64 + ?Sized>(hasher: &H, field: &str) -> u64 {
    let bytes = field.as_bytes();
    let mut chunks = bytes.chunks(8).map(pack_chunk);
    match bytes.len().div_ceil(8) {
        0 => hasher.hash_u64(EMPTY_SENTINEL),
        1 => hasher.hash_u64(chunks.next().expect("one chunk")),
        n => {
            // Mirrors Hasher64::hash_slice's length-dependent chaining.
            let mut acc = hasher.hash_u64(n as u64);
            for word in chunks {
                acc = hasher.hash_u64(acc ^ word);
            }
            acc
        }
    }
}

/// What [`RowReader::read_row`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Row {
    /// A data row: the selected columns' words were appended.
    Fields,
    /// A data row with too few fields for the highest selected column;
    /// nothing was appended.
    Short,
    /// End of input.
    End,
}

/// Reads delimited rows and hashes a fixed column list of each into
/// fingerprint words — the one per-line parser of both binaries.
///
/// The `\n` or `\r\n` terminator is dropped, the line must be UTF-8,
/// and blank and `#` lines are skipped. Fields split on Unicode
/// whitespace, or on the delimiter with each field trimmed; only the
/// selected fields are hashed, to the words of [`hash_field`].
///
/// A line that lies whole in the input's buffer is parsed there, in
/// place. One word-at-a-time scan finds its end, whether it is all
/// ASCII, and which of its first 64 bytes separate fields. An ASCII line
/// splits on those bytes — the ASCII whitespace `\t`..=`\r` and space,
/// exactly the ASCII characters [`char::is_whitespace`] accepts, or an
/// ASCII delimiter with fields trimmed of the same bytes — and its
/// selected fields are hashed straight from the buffer. A line with a
/// byte ≥ 0x80, and every line under a delimiter outside ASCII, takes
/// the `str` path instead: a UTF-8 check, then
/// [`str::split_whitespace`] or `split(delimiter)` and [`str::trim`].
/// Only a line that straddles a buffer refill is copied, into a reused
/// buffer; once that buffer is warm, reading a row allocates nothing.
///
/// An I/O error leaves a partial line buffered and the next call
/// continues it, so a socket read timeout in mid-line loses nothing;
/// [`io::ErrorKind::Interrupted`] is retried.
#[derive(Debug, Clone)]
pub struct RowReader {
    cols: Vec<usize>,
    fields: Fields,
    /// The bytes of a line that straddles a buffer refill.
    line: Vec<u8>,
}

/// How a line splits into fields, and where their words go.
#[derive(Debug, Clone)]
struct Fields {
    /// Fields a row needs: the highest selected column plus one.
    need: usize,
    /// Whether field `i < need` is selected at all.
    wanted: Vec<bool>,
    /// The current row's field hashes, indexed by column.
    hashes: Vec<u64>,
    split: Split,
    hasher: MixHasher,
    /// [`hash_field`]'s first chain word by chunk count: the empty
    /// field's word at 0, `hash_u64(n)` for `2 <= n < CHAIN`.
    chain: [u64; CHAIN],
}

/// Chunk counts below this have their first chain word precomputed.
const CHAIN: usize = 8;

/// What separates fields.
#[derive(Debug, Clone, Copy)]
enum Split {
    /// Unicode whitespace; ASCII lines split on [`is_space`] bytes.
    Whitespace,
    /// An ASCII delimiter; ASCII lines split on it.
    Byte(u8),
    /// A delimiter outside ASCII; every line takes the `str` path.
    Char(char),
}

/// What [`Fields::scan`] found of a line.
#[derive(Debug, Clone, Copy)]
struct Scan {
    /// Bytes before the `\n`, or all of them if there is none.
    len: usize,
    /// Whether the line ends in `\n`.
    newline: bool,
    /// Whether those `len` bytes are all ASCII.
    ascii: bool,
    /// Bit `i` set iff byte `i < 64` separates fields (meaningful on an
    /// ASCII line only).
    seps: u64,
}

impl RowReader {
    /// A reader selecting `cols` (in that order, repeats allowed) from
    /// rows split on `delimiter`, or on whitespace when `None`. Fields
    /// hash under [`FIELD_HASHER_SEED`](crate::spec::FIELD_HASHER_SEED).
    pub fn new(cols: &[usize], delimiter: Option<char>) -> Self {
        let need = cols.iter().max().map_or(0, |&c| c + 1);
        let mut wanted = vec![false; need];
        for &c in cols {
            wanted[c] = true;
        }
        let hasher = MixHasher::new(crate::spec::FIELD_HASHER_SEED);
        let mut chain = [0; CHAIN];
        chain[0] = hasher.hash_u64(EMPTY_SENTINEL);
        for (n, word) in chain.iter_mut().enumerate().skip(2) {
            *word = hasher.hash_u64(n as u64);
        }
        let split = match delimiter {
            None => Split::Whitespace,
            Some(d) if d.is_ascii() => Split::Byte(d as u8),
            Some(d) => Split::Char(d),
        };
        Self {
            cols: cols.to_vec(),
            fields: Fields {
                need,
                wanted,
                hashes: vec![0; need],
                split,
                hasher,
                chain,
            },
            line: Vec::new(),
        }
    }

    /// Reads through the next data row. On [`Row::Fields`] the selected
    /// columns' words are appended to `out` in column-list order.
    ///
    /// # Errors
    /// The input's I/O errors (the partial line stays buffered), and
    /// [`io::ErrorKind::InvalidData`] for a line that is not UTF-8.
    pub fn read_row<R: BufRead + ?Sized>(
        &mut self,
        input: &mut R,
        out: &mut Vec<u64>,
    ) -> io::Result<Row> {
        loop {
            let buf = match input.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let (row, used) = if buf.is_empty() {
                // End of input: a carried last line without `\n` is
                // still a row.
                if self.line.is_empty() {
                    return Ok(Row::End);
                }
                (self.parse_carried(), 0)
            } else {
                let scan = self.fields.scan(buf);
                let used = scan.len + usize::from(scan.newline);
                if !scan.newline {
                    // The line straddles a refill: carry it.
                    self.line.extend_from_slice(buf);
                    (Ok(None), used)
                } else if self.line.is_empty() {
                    (self.fields.parse(buf, scan), used)
                } else {
                    self.line.extend_from_slice(&buf[..used]);
                    (self.parse_carried(), used)
                }
            };
            input.consume(used);
            if let Some(row) = row? {
                if row == Row::Fields {
                    out.extend(self.cols.iter().map(|&c| self.fields.hashes[c]));
                }
                return Ok(row);
            }
        }
    }

    /// Parses the carried line, and empties it.
    fn parse_carried(&mut self) -> io::Result<Option<Row>> {
        let row = self.fields.parse(&self.line, self.fields.scan(&self.line));
        self.line.clear();
        row
    }
}

impl Fields {
    /// Scans `bytes` a word at a time, up to the first `\n`.
    #[inline]
    fn scan(&self, bytes: &[u8]) -> Scan {
        let (mut at, mut high, mut seps) = (0, 0, 0);
        while at < bytes.len() {
            let w = load(bytes, at);
            if at < 64 {
                seps |= gather(self.separators(w)) << at;
            }
            let x = w ^ (LO * u64::from(b'\n'));
            // Exact for the lowest `\n` byte, the only one used.
            let newlines = x.wrapping_sub(LO) & !x & HI;
            if newlines != 0 {
                let i = newlines.trailing_zeros() as usize / 8;
                let before = w & !(u64::MAX << (8 * i));
                return Scan {
                    len: at + i,
                    newline: true,
                    ascii: (high | before) & HI == 0,
                    seps,
                };
            }
            high |= w;
            at += 8;
        }
        Scan {
            len: bytes.len(),
            newline: false,
            ascii: high & HI == 0,
            seps,
        }
    }

    /// The high bit of each byte of the ASCII word `w` that separates
    /// fields.
    #[inline]
    fn separators(&self, w: u64) -> u64 {
        match self.split {
            Split::Whitespace => space_bytes(w),
            Split::Byte(d) => eq_bytes(w, d),
            Split::Char(_) => 0,
        }
    }

    /// Parses the line `bytes[..scan.len]` into `hashes`; `None` for a
    /// blank or comment line. Bytes past the line are only loaded, to
    /// hash a field's last chunk as a whole word.
    fn parse(&mut self, bytes: &[u8], scan: Scan) -> io::Result<Option<Row>> {
        let mut line = &bytes[..scan.len];
        if scan.newline {
            line = line.strip_suffix(b"\r").unwrap_or(line);
        }
        if !scan.ascii || matches!(self.split, Split::Char(_)) {
            return self.parse_str(line);
        }
        if matches!(line.first(), None | Some(b'#')) {
            return Ok(None);
        }
        let mut seps = Seps {
            base: 0,
            bits: scan.seps | past(line.len()),
            stop: line.len(),
        };
        let found = match self.split {
            Split::Byte(_) => self.split_delimited(bytes, &mut seps),
            _ => self.split_spaces(bytes, &mut seps),
        };
        Ok(Some(if found < self.need {
            Row::Short
        } else {
            Row::Fields
        }))
    }

    /// Hashes the wanted fields among the first `need` of a
    /// whitespace-split ASCII line; returns how many exist.
    fn split_spaces(&mut self, bytes: &[u8], seps: &mut Seps) -> usize {
        let (mut at, mut found) = (0, 0);
        while found < self.need {
            let start = self.next(bytes, seps, at, false);
            if start == seps.stop {
                break;
            }
            at = self.next(bytes, seps, start, true);
            if self.wanted[found] {
                self.hashes[found] = self.hash(bytes, start, at);
            }
            found += 1;
        }
        found
    }

    /// Hashes the wanted fields, trimmed, among the first `need` of a
    /// delimiter-split ASCII line; returns how many exist.
    fn split_delimited(&mut self, bytes: &[u8], seps: &mut Seps) -> usize {
        let (mut at, mut found) = (0, 0);
        while found < self.need {
            let end = self.next(bytes, seps, at, true);
            if self.wanted[found] {
                let (mut start, mut stop) = (at, end);
                while start < stop && is_space(bytes[start]) {
                    start += 1;
                }
                while stop > start && is_space(bytes[stop - 1]) {
                    stop -= 1;
                }
                self.hashes[found] = self.hash(bytes, start, stop);
            }
            found += 1;
            if end == seps.stop {
                break;
            }
            at = end + 1;
        }
        found
    }

    /// The first offset from `at` that is (`sep`) or is not a
    /// separator, or the line's end; moves the 64-byte block as needed.
    #[inline]
    fn next(&self, bytes: &[u8], seps: &mut Seps, mut at: usize, sep: bool) -> usize {
        loop {
            // Past the line every bit is set, so a separator is always
            // found there and a field never is.
            let bits = if sep { seps.bits } else { !seps.bits };
            let off = at - seps.base;
            let hits = if off < 64 { bits >> off } else { 0 };
            if hits != 0 {
                return at + hits.trailing_zeros() as usize;
            }
            if seps.base + 64 >= seps.stop {
                return seps.stop;
            }
            at = at.max(seps.base + 64);
            self.rebase(bytes, seps, at);
        }
    }

    /// Moves `seps` to the block starting at `at`.
    #[cold]
    fn rebase(&self, bytes: &[u8], seps: &mut Seps, at: usize) {
        seps.base = at;
        seps.bits = past(seps.stop - at);
        for i in (0..64).step_by(8).take_while(|i| at + i < seps.stop) {
            seps.bits |= gather(self.separators(load(bytes, at + i))) << i;
        }
    }

    /// The `str` path: lines with a byte ≥ 0x80, and delimiters the
    /// byte path does not split on.
    fn parse_str(&mut self, line: &[u8]) -> io::Result<Option<Row>> {
        let line = std::str::from_utf8(line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let (wanted, hasher, hashes) = (&self.wanted, &self.hasher, &mut self.hashes);
        let found = match self.split {
            Split::Whitespace => hash_fields(line.split_whitespace(), wanted, hasher, hashes),
            Split::Byte(d) => {
                hash_fields(line.split(d as char).map(str::trim), wanted, hasher, hashes)
            }
            Split::Char(d) => hash_fields(line.split(d).map(str::trim), wanted, hasher, hashes),
        };
        Ok(Some(if found < self.need {
            Row::Short
        } else {
            Row::Fields
        }))
    }

    /// [`hash_field`] of the field `bytes[start..end]`, loading whole
    /// words from `bytes` and the first chain word from the table.
    #[inline]
    fn hash(&self, bytes: &[u8], start: usize, end: usize) -> u64 {
        let mut acc = match (end - start).div_ceil(8) {
            0 => return self.chain[0],
            1 => return self.hasher.hash_u64(chunk(bytes, start, end)),
            n if n < CHAIN => self.chain[n],
            n => self.hasher.hash_u64(n as u64),
        };
        let mut at = start;
        while at < end {
            acc = self.hasher.hash_u64(acc ^ chunk(bytes, at, end));
            at += 8;
        }
        acc
    }
}

/// A 64-byte block of an ASCII line's separator bits.
struct Seps {
    /// The block's first offset.
    base: usize,
    /// Bit `i` set iff offset `base + i` separates fields or is past
    /// the line.
    bits: u64,
    /// The line's length.
    stop: usize,
}

/// Each byte's low bit (`LO`) and high bit (`HI`).
const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// The bits of a block from offset `n` of it on.
#[inline]
fn past(n: usize) -> u64 {
    if n < 64 {
        u64::MAX << n
    } else {
        0
    }
}

/// Gathers the high bit of each byte of `m` (nothing else set) into the
/// low 8 bits, byte `i` to bit `i`.
#[inline]
fn gather(m: u64) -> u64 {
    (m >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// The high bit of each byte of the ASCII word `w` that is an ASCII
/// whitespace byte ([`is_space`]).
#[inline]
fn space_bytes(w: u64) -> u64 {
    // An ASCII byte b is ≥ n iff b + (0x80 - n) sets its high bit, and
    // carries into no other byte.
    let tab_up = w.wrapping_add(LO * (0x80 - 0x09));
    let past_cr = w.wrapping_add(LO * (0x80 - 0x0e));
    ((tab_up & !past_cr) | eq_bytes(w, b' ')) & HI
}

/// The high bit of each byte of the ASCII word `w` equal to `b < 0x80`.
#[inline]
fn eq_bytes(w: u64, b: u8) -> u64 {
    !(w ^ (LO * u64::from(b))).wrapping_add(LO * 0x7f) & HI
}

/// Whether `b` is an ASCII character [`char::is_whitespace`] accepts:
/// `\t`, `\n`, VT, FF, `\r` or space.
#[inline]
fn is_space(b: u8) -> bool {
    b == b' ' || b.wrapping_sub(b'\t') <= b'\r' - b'\t'
}

/// The packed word of the chunk of `bytes[..end]` starting at `at`:
/// [`pack_chunk`], from a whole word with the bytes past `end` masked
/// off.
#[inline]
fn chunk(bytes: &[u8], at: usize, end: usize) -> u64 {
    let len = (end - at).min(8);
    (load(bytes, at) & (u64::MAX >> (64 - 8 * len))) ^ len as u64
}

/// The little-endian word of the 8 bytes at `at`, zero past the end of
/// `bytes`.
#[inline]
fn load(bytes: &[u8], at: usize) -> u64 {
    match bytes.get(at..at + 8) {
        Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
        None => {
            let mut word = [0; 8];
            let tail = &bytes[at..];
            word[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(word)
        }
    }
}

/// Hashes the wanted fields among the first `wanted.len()` of `fields`
/// into `hashes`, and returns how many of those fields exist.
fn hash_fields<'a>(
    fields: impl Iterator<Item = &'a str>,
    wanted: &[bool],
    hasher: &MixHasher,
    hashes: &mut [u64],
) -> usize {
    let mut found = 0;
    for ((&want, slot), field) in wanted.iter().zip(hashes.iter_mut()).zip(fields) {
        if want {
            *slot = hash_field(hasher, field);
        }
        found += 1;
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_sketch::hash::MixHasher;

    /// The materializing reference implementation.
    fn hash_field_alloc(hasher: &MixHasher, field: &str) -> u64 {
        hasher.hash_slice(
            &field
                .as_bytes()
                .chunks(8)
                .map(pack_chunk)
                .collect::<Vec<u64>>(),
        )
    }

    #[test]
    fn matches_materializing_reference() {
        let hasher = MixHasher::new(0x00f1_e1d5);
        let cases = [
            "",
            "a",
            "12345678",
            "123456789",
            "10.0.0.1",
            "https://example.com/some/long/path?q=1",
            "field with spaces and unicode: héllo wörld ✓",
        ];
        for field in cases {
            assert_eq!(
                hash_field(&hasher, field),
                hash_field_alloc(&hasher, field),
                "field {field:?}"
            );
        }
    }

    #[test]
    fn in_buffer_field_hash_is_hash_field() {
        let fields = RowReader::new(&[0], None).fields;
        let text: String = (0..120u8).map(|i| char::from(b'!' + i % 90)).collect();
        for start in 0..20 {
            for end in start..text.len() {
                assert_eq!(
                    fields.hash(text.as_bytes(), start, end),
                    hash_field(&fields.hasher, &text[start..end]),
                    "{start}..{end}"
                );
            }
        }
    }

    #[test]
    fn distinct_fields_do_not_collide() {
        let hasher = MixHasher::new(1);
        assert_ne!(hash_field(&hasher, "a"), hash_field(&hasher, "a\0"));
        assert_ne!(hash_field(&hasher, ""), hash_field(&hasher, "\0"));
        assert_ne!(
            hash_field(&hasher, "12345678"),
            hash_field(&hasher, "123456780")
        );
    }
}
