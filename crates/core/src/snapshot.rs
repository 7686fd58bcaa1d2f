//! Estimator checkpointing: a compact binary snapshot of a running
//! [`ImplicationEstimator`](crate::ImplicationEstimator).
//!
//! Constrained environments restart: routers reboot, collector processes
//! roll. A NIPS/CI sketch is a few kilobytes, so the natural operational
//! answer is to persist it —
//! [`ImplicationEstimator::to_bytes`](crate::ImplicationEstimator::to_bytes) /
//! [`ImplicationEstimator::from_bytes`](crate::ImplicationEstimator::from_bytes)
//! round-trip the complete state
//! (conditions, hash seeds, every bitmap's Zone-1 mask, fringe cells and
//! support side-fringe), and the restored estimator continues the stream
//! exactly where the snapshot left off. Combined with
//! [`ImplicationEstimator::merge`](crate::ImplicationEstimator::merge)
//! this covers the §3 distributed deployment end to end: nodes snapshot
//! and ship sketches; a collector restores and merges them.
//!
//! Format: little-endian, length-prefixed, with a magic/version header —
//! see the `encode`/`decode` methods on each type. No self-describing
//! metadata: snapshots are only readable by the matching library version
//! (`VERSION` is bumped on layout changes).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::conditions::{Confidence, ImplicationConditions, MultiplicityPolicy};

/// Magic bytes for estimator snapshots (`IMPS`).
pub const MAGIC: u32 = 0x494d_5053;
/// Snapshot layout version. Version 2 (the arena refactor) kept the body
/// encoding byte-identical to version 1 — cells are serialized in the
/// same canonical sorted order the `HashMap` layout used — but the bump
/// marks that restored state now lives in slab arenas, so older readers
/// must not guess.
pub const VERSION: u16 = 2;

/// Errors restoring a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported layout version.
    BadVersion(u16),
    /// Buffer ended before the declared content.
    Truncated,
    /// A decoded value is structurally invalid (e.g. cell index ≥ 64).
    Corrupt(&'static str),
    /// The snapshot was built with another configuration (refused by
    /// [`EstimatorConfig::restore`](crate::EstimatorConfig::restore)).
    Mismatch {
        /// The [`EstimatorConfig`](crate::EstimatorConfig) setter whose
        /// value differs: `conditions`, `bitmaps`, `fringe` or `seed`.
        quantity: &'static str,
        /// Its value in the snapshot.
        snapshot: String,
        /// Its value in the configuration.
        configured: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an IMPS snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::Mismatch {
                quantity,
                snapshot,
                configured,
            } => write!(
                f,
                "snapshot was built with {quantity} {snapshot}, not {configured}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Checked read helper: ensures `n` bytes remain.
pub(crate) fn need(buf: &Bytes, n: usize) -> Result<(), SnapshotError> {
    if buf.remaining() < n {
        Err(SnapshotError::Truncated)
    } else {
        Ok(())
    }
}

impl ImplicationConditions {
    pub(crate) fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(self.max_multiplicity);
        buf.put_u64_le(self.min_support);
        buf.put_u32_le(self.top_c);
        let (num, den) = self.min_confidence.as_ratio();
        buf.put_u32_le(num);
        buf.put_u32_le(den);
        buf.put_u8(match self.multiplicity_policy {
            MultiplicityPolicy::Strict => 0,
            MultiplicityPolicy::TrackTop => 1,
        });
    }

    pub(crate) fn decode(buf: &mut Bytes) -> Result<Self, SnapshotError> {
        need(buf, 4 + 8 + 4 + 4 + 4 + 1)?;
        let max_multiplicity = buf.get_u32_le();
        let min_support = buf.get_u64_le();
        let top_c = buf.get_u32_le();
        let num = buf.get_u32_le();
        let den = buf.get_u32_le();
        if den == 0 || num > den {
            return Err(SnapshotError::Corrupt("confidence ratio"));
        }
        if max_multiplicity == 0 || top_c == 0 || min_support == 0 {
            return Err(SnapshotError::Corrupt("zero condition parameter"));
        }
        let multiplicity_policy = match buf.get_u8() {
            0 => MultiplicityPolicy::Strict,
            1 => MultiplicityPolicy::TrackTop,
            _ => return Err(SnapshotError::Corrupt("multiplicity policy")),
        };
        Ok(ImplicationConditions {
            max_multiplicity,
            min_support,
            top_c,
            min_confidence: Confidence::ratio(num, den),
            multiplicity_policy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ImplicationEstimator;

    fn populated(seed: u64) -> ImplicationEstimator {
        let cond = ImplicationConditions::one_to_c(2, 0.8, 3);
        let mut est = crate::EstimatorConfig::new(cond)
            .bitmaps(16)
            .seed(seed)
            .build();
        for a in 0..5_000u64 {
            est.update(&[a % 1_500], &[a % 11]);
        }
        est
    }

    #[test]
    fn roundtrip_preserves_estimates_and_state() {
        let est = populated(1);
        let bytes = est.to_bytes();
        let back = ImplicationEstimator::from_bytes(bytes).expect("roundtrip");
        assert_eq!(back.estimate_now(), est.estimate_now());
        assert_eq!(back.tuples_seen(), est.tuples_seen());
        assert_eq!(back.entries(), est.entries());
        assert_eq!(back.conditions(), est.conditions());
    }

    #[test]
    fn restored_estimator_continues_identically() {
        // Continuing a restored snapshot must behave exactly like the
        // original estimator fed the same suffix.
        let mut original = populated(2);
        let mut restored = ImplicationEstimator::from_bytes(original.to_bytes()).expect("restore");
        for a in 5_000..9_000u64 {
            original.update(&[a % 1_500], &[a % 13]);
            restored.update(&[a % 1_500], &[a % 13]);
        }
        assert_eq!(original.estimate_now(), restored.estimate_now());
        assert_eq!(original.entries(), restored.entries());
    }

    #[test]
    fn snapshot_then_merge_across_processes() {
        // The full distributed flow: two nodes snapshot, a collector
        // restores and merges; compare against a single node.
        let cond = ImplicationConditions::strict_one_to_one(1);
        let cfg = crate::EstimatorConfig::new(cond)
            .bitmaps(32)
            .fringe(crate::Fringe::Unbounded)
            .seed(7);
        let mut whole = cfg.build();
        let mut n1 = cfg.build();
        let mut n2 = cfg.build();
        for a in 0..4_000u64 {
            let node = if a % 2 == 0 { &mut n1 } else { &mut n2 };
            node.update(&[a], &[a % 5]);
            whole.update(&[a], &[a % 5]);
        }
        let mut collector = ImplicationEstimator::from_bytes(n1.to_bytes()).expect("restore n1");
        let shipped = ImplicationEstimator::from_bytes(n2.to_bytes()).expect("restore n2");
        collector.merge(&shipped);
        assert_eq!(collector.estimate_now(), whole.estimate_now());
    }

    #[test]
    fn bad_magic_and_truncation_rejected() {
        assert_eq!(
            ImplicationEstimator::from_bytes(Bytes::from_static(b"junk")).unwrap_err(),
            SnapshotError::Truncated
        );
        assert_eq!(
            ImplicationEstimator::from_bytes(Bytes::from_static(
                b"XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"
            ))
            .unwrap_err(),
            SnapshotError::BadMagic
        );
        let est = populated(3);
        let bytes = est.to_bytes();
        let cut = bytes.slice(0..bytes.len() - 7);
        assert_eq!(
            ImplicationEstimator::from_bytes(cut).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn old_version_snapshots_are_rejected_not_panicked() {
        // A pre-arena (version 1) snapshot must come back as a clear
        // `BadVersion(1)`, never a decode panic. The version field is the
        // u16 right after the 4-byte magic.
        let est = populated(6);
        let mut raw = est.to_bytes().to_vec();
        raw[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(
            ImplicationEstimator::from_bytes(Bytes::from(raw)).unwrap_err(),
            SnapshotError::BadVersion(1)
        );
    }

    #[test]
    fn corrupting_policy_byte_is_detected() {
        let est = populated(4);
        let mut raw = est.to_bytes().to_vec();
        // The policy byte sits right after magic+version+cond numerics:
        // 4 + 2 + (4 + 8 + 4 + 4 + 4) = 30.
        raw[30] = 9;
        assert_eq!(
            ImplicationEstimator::from_bytes(Bytes::from(raw)).unwrap_err(),
            SnapshotError::Corrupt("multiplicity policy")
        );
    }

    #[test]
    fn snapshot_size_is_kilobytes_not_stream_sized() {
        // The whole point: state is bounded. 16 bitmaps with bounded
        // fringes must fit in a few KiB regardless of the stream.
        let est = populated(5);
        let small = est.to_bytes().len();
        let mut bigger = populated(5);
        for a in 0..200_000u64 {
            bigger.update(&[a % 1_500], &[a % 11]);
        }
        let big = bigger.to_bytes().len();
        assert!(small < 64 * 1024, "snapshot {small} bytes");
        assert!(big < 64 * 1024, "snapshot {big} bytes after 200k tuples");
    }
}
