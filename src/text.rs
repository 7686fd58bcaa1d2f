//! The delimited-text front end shared by `implicate` and
//! `implicate-serve`: lines in, field fingerprint words out.
//!
//! Fields are opaque byte strings. Each field is packed into 8-byte
//! little-endian words (the trailing chunk zero-padded and length-tagged
//! so `"a"` and `"a\0"` differ) and folded through the estimator's
//! [`Hasher64`] slice-chaining scheme — without materializing the word
//! slice, so hashing a field performs no heap allocation regardless of
//! field length. [`RowReader`] applies [`hash_field`] to the selected
//! columns of every row read from a [`BufRead`].

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
/// Each line goes into a reused byte buffer. The `\n` or `\r\n`
/// terminator is dropped, the line must be UTF-8, and blank and `#`
/// lines are skipped. Fields split on Unicode whitespace, or on the
/// delimiter with each field trimmed; only the selected fields are
/// hashed. Once the buffers are warm, reading a row allocates nothing.
///
/// An I/O error leaves a partial line buffered and the next call
/// continues it, so a socket read timeout in mid-line loses nothing.
#[derive(Debug, Clone)]
pub struct RowReader {
    cols: Vec<usize>,
    /// Fields a row needs: the highest selected column plus one.
    need: usize,
    /// Whether field `i < need` is selected at all.
    wanted: Vec<bool>,
    /// The current row's field hashes, indexed by column.
    hashes: Vec<u64>,
    delimiter: Option<char>,
    hasher: MixHasher,
    line: Vec<u8>,
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
        Self {
            cols: cols.to_vec(),
            need,
            wanted,
            hashes: vec![0; need],
            delimiter,
            hasher: MixHasher::new(crate::spec::FIELD_HASHER_SEED),
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
            if input.read_until(b'\n', &mut self.line)? == 0 && self.line.is_empty() {
                return Ok(Row::End);
            }
            let row = self.parse_line(out);
            self.line.clear();
            if let Some(row) = row? {
                return Ok(row);
            }
        }
    }

    /// Parses the buffered line; `None` for a blank or comment line.
    fn parse_line(&mut self, out: &mut Vec<u64>) -> io::Result<Option<Row>> {
        let mut bytes = self.line.as_slice();
        if let Some(rest) = bytes.strip_suffix(b"\n") {
            bytes = rest.strip_suffix(b"\r").unwrap_or(rest);
        }
        let line = std::str::from_utf8(bytes).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let (wanted, hasher, hashes) = (&self.wanted, &self.hasher, &mut self.hashes);
        let found = match self.delimiter {
            None => hash_fields(line.split_whitespace(), wanted, hasher, hashes),
            Some(d) => hash_fields(line.split(d).map(str::trim), wanted, hasher, hashes),
        };
        if found < self.need {
            return Ok(Some(Row::Short));
        }
        out.extend(self.cols.iter().map(|&c| self.hashes[c]));
        Ok(Some(Row::Fields))
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
