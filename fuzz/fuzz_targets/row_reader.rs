//! Fuzz the text front end: arbitrary bytes, cut into reads at
//! fuzzer-chosen points and read through a fuzzer-sized buffer, must
//! give the same rows, skips and errors from `implicate::text::RowReader`
//! as from the `str` reference — and never a panic.
//!
//! Run with `cargo +nightly fuzz run row_reader` from the repository
//! root; nightly CI smokes it for at least 60 seconds. The case layout
//! and the reference live in `tests/support/text_lines.rs`, shared with
//! the in-tree smoke `tests/text_fuzz_smoke.rs`.

#![no_main]

use libfuzzer_sys::fuzz_target;

#[path = "../../tests/support/text_lines.rs"]
mod text_lines;

fuzz_target!(|data: &[u8]| text_lines::check(data));
