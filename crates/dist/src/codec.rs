//! Sparse/delta tensor codec for gradient pushes and parameter pulls.
//!
//! A tensor set (gradients of every parameter, or every parameter's
//! values) is encoded per tensor in one of three modes:
//!
//! - [`MODE_DENSE_RAW`] — all `len` values as raw f32 little-endian bits.
//! - [`MODE_SPARSE_RAW`] — only entries whose value **bits** are nonzero,
//!   as `(index: u32, bits: u32)` pairs.
//! - [`MODE_SPARSE_XOR`] — only entries whose bits differ from a shared
//!   baseline, as `(index: u32, bits ^ base_bits)` pairs; decoding XORs
//!   the delta back onto the baseline.
//!
//! Everything is defined over *bit patterns*, never float arithmetic:
//! `-0.0` and NaN payloads survive the round trip exactly (an additive
//! delta would turn `-0.0` into `+0.0` and lose bit-identity, which is
//! the whole contract of the dist layer). The encoder picks, per tensor,
//! the cheaper of raw-sparse and xor-sparse and falls back to dense when
//! the surviving entry count exceeds `threshold × len` — a sparse entry
//! costs 8 bytes against dense's 4, so the default threshold (0.25)
//! keeps sparse strictly cheaper.
//!
//! Wire layout (all little-endian):
//!
//! ```text
//! count: u32                      number of tensors
//! per tensor:
//!   len:  u32                     element count
//!   mode: u8                      0 dense | 1 sparse-raw | 2 sparse-xor
//!   dense:  len × f32 bits
//!   sparse: nnz u32, nnz × (index u32, bits u32)
//! ```

use std::fmt;

use edsr_wire::{DecodeError, Reader, Writer};

/// Every element shipped as raw f32 bits.
pub const MODE_DENSE_RAW: u8 = 0;
/// Only bit-nonzero elements shipped, against an implicit all-zero base.
pub const MODE_SPARSE_RAW: u8 = 1;
/// Only changed elements shipped, as XOR deltas against a shared baseline.
pub const MODE_SPARSE_XOR: u8 = 2;

/// Decode/encode failures of the tensor codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorCodecError {
    /// Payload ended before the declared data.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes remaining.
        got: usize,
    },
    /// Unknown per-tensor mode byte.
    BadMode(u8),
    /// A sparse entry's index is out of range for its tensor.
    BadIndex {
        /// The offending index.
        index: u32,
        /// The tensor's element count.
        len: u32,
    },
    /// An XOR-mode tensor was (de)coded without a matching baseline —
    /// wrong tensor count, wrong length, or no baseline at all.
    BaselineMismatch(String),
    /// Bytes remained after the declared tensors.
    Trailing(usize),
    /// The tensor count or a tensor length disagrees with the shapes the
    /// receiver expects (both ends hold the parameter shapes).
    ShapeMismatch(String),
}

impl fmt::Display for TensorCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorCodecError::Truncated { expected, got } => {
                write!(f, "codec truncated: needed {expected} bytes, had {got}")
            }
            TensorCodecError::BadMode(m) => write!(f, "codec: unknown tensor mode {m}"),
            TensorCodecError::BadIndex { index, len } => {
                write!(f, "codec: sparse index {index} out of range for len {len}")
            }
            TensorCodecError::BaselineMismatch(m) => write!(f, "codec baseline mismatch: {m}"),
            TensorCodecError::Trailing(n) => write!(f, "codec: {n} trailing bytes"),
            TensorCodecError::ShapeMismatch(m) => write!(f, "codec shape mismatch: {m}"),
        }
    }
}

impl std::error::Error for TensorCodecError {}

impl From<DecodeError> for TensorCodecError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated { expected, got } => {
                TensorCodecError::Truncated { expected, got }
            }
            DecodeError::Trailing(n) => TensorCodecError::Trailing(n),
        }
    }
}

/// Checks an encoder/decoder baseline against the tensor set shape.
fn check_baseline(
    baseline: &[Vec<u32>],
    count: usize,
    which: usize,
    len: usize,
) -> Result<(), TensorCodecError> {
    if baseline.len() != count {
        return Err(TensorCodecError::BaselineMismatch(format!(
            "baseline has {} tensors, payload has {count}",
            baseline.len()
        )));
    }
    if baseline[which].len() != len {
        return Err(TensorCodecError::BaselineMismatch(format!(
            "tensor {which}: baseline len {} vs payload len {len}",
            baseline[which].len()
        )));
    }
    Ok(())
}

/// Encodes a tensor set. `baseline` (bit patterns, same shapes) enables
/// XOR-delta mode; `threshold` is the max surviving-entry density for a
/// sparse mode (above it the tensor ships dense).
pub fn encode_tensors(
    tensors: &[&[f32]],
    baseline: Option<&[Vec<u32>]>,
    threshold: f32,
) -> Result<Vec<u8>, TensorCodecError> {
    let mut out = Vec::new();
    let mut w = Writer::new(&mut out);
    w.u32(tensors.len() as u32);
    for (which, t) in tensors.iter().enumerate() {
        let base = match baseline {
            Some(b) => {
                check_baseline(b, tensors.len(), which, t.len())?;
                Some(&b[which])
            }
            None => None,
        };
        w.u32(t.len() as u32);
        let raw_nnz = t.iter().filter(|v| v.to_bits() != 0).count();
        let (mode, nnz) = match base {
            Some(b) => {
                let xor_nnz = t
                    .iter()
                    .zip(b.iter())
                    .filter(|(v, &bb)| v.to_bits() ^ bb != 0)
                    .count();
                if xor_nnz < raw_nnz {
                    (MODE_SPARSE_XOR, xor_nnz)
                } else {
                    (MODE_SPARSE_RAW, raw_nnz)
                }
            }
            None => (MODE_SPARSE_RAW, raw_nnz),
        };
        if nnz as f64 > f64::from(threshold) * t.len() as f64 {
            w.u8(MODE_DENSE_RAW);
            w.f32s(t);
            continue;
        }
        w.u8(mode);
        w.u32(nnz as u32);
        match mode {
            MODE_SPARSE_RAW => {
                for (i, v) in t.iter().enumerate() {
                    if v.to_bits() != 0 {
                        w.u32(i as u32);
                        w.u32(v.to_bits());
                    }
                }
            }
            MODE_SPARSE_XOR => {
                let b = base.expect("xor mode implies a baseline");
                for (i, (v, &bb)) in t.iter().zip(b.iter()).enumerate() {
                    let delta = v.to_bits() ^ bb;
                    if delta != 0 {
                        w.u32(i as u32);
                        w.u32(delta);
                    }
                }
            }
            _ => unreachable!(),
        }
    }
    Ok(out)
}

/// Decodes a tensor set produced by [`encode_tensors`]. `lens` are the
/// element counts the receiver expects, one per tensor: a payload with
/// another tensor count or length is rejected before anything is
/// allocated for it. `baseline` must be the same bit patterns the
/// encoder used whenever any tensor is in XOR mode.
pub fn decode_tensors(
    bytes: &[u8],
    baseline: Option<&[Vec<u32>]>,
    lens: &[usize],
) -> Result<Vec<Vec<f32>>, TensorCodecError> {
    let mut r = Reader::new(bytes);
    // A tensor is at least its length and mode byte.
    let count = r.count_u32(5)?;
    if count != lens.len() {
        return Err(TensorCodecError::ShapeMismatch(format!(
            "payload has {count} tensors, receiver expects {}",
            lens.len()
        )));
    }
    let mut out = Vec::with_capacity(count);
    for (which, &expected) in lens.iter().enumerate() {
        let len = r.u32()? as usize;
        if len != expected {
            return Err(TensorCodecError::ShapeMismatch(format!(
                "tensor {which} has {len} elements, receiver expects {expected}"
            )));
        }
        let mode = r.u8()?;
        let mut bits: Vec<u32> = match mode {
            MODE_DENSE_RAW => r.u32s(len as u64)?,
            MODE_SPARSE_RAW => vec![0u32; len],
            MODE_SPARSE_XOR => {
                let b = baseline.ok_or_else(|| {
                    TensorCodecError::BaselineMismatch(format!(
                        "tensor {which} is xor-coded but no baseline was supplied"
                    ))
                })?;
                check_baseline(b, count, which, len)?;
                b[which].clone()
            }
            m => return Err(TensorCodecError::BadMode(m)),
        };
        if mode != MODE_DENSE_RAW {
            let nnz = r.count_u32(8)?;
            for _ in 0..nnz {
                let index = r.u32()?;
                let value = r.u32()?;
                let slot = bits
                    .get_mut(index as usize)
                    .ok_or(TensorCodecError::BadIndex {
                        index,
                        len: len as u32,
                    })?;
                match mode {
                    MODE_SPARSE_RAW => *slot = value,
                    _ => *slot ^= value,
                }
            }
        }
        out.push(bits.into_iter().map(f32::from_bits).collect());
    }
    r.finish()?;
    Ok(out)
}

/// The bit patterns of a tensor set — the baseline form both sides keep.
pub fn tensor_bits(tensors: &[&[f32]]) -> Vec<Vec<u32>> {
    tensors
        .iter()
        .map(|t| t.iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(tensors: &[Vec<f32>], baseline: Option<&[Vec<u32>]>, threshold: f32) {
        let refs: Vec<&[f32]> = tensors.iter().map(|t| t.as_slice()).collect();
        let bytes = encode_tensors(&refs, baseline, threshold).expect("encode");
        let lens: Vec<usize> = tensors.iter().map(Vec::len).collect();
        let back = decode_tensors(&bytes, baseline, &lens).expect("decode");
        assert_eq!(back.len(), tensors.len());
        for (a, b) in tensors.iter().zip(&back) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "bit-identity violated");
            }
        }
    }

    #[test]
    fn empty_set_and_empty_tensors() {
        roundtrip(&[], None, 0.25);
        roundtrip(&[vec![], vec![]], None, 0.25);
        roundtrip(&[vec![]], Some(&[vec![]]), 0.25);
    }

    #[test]
    fn all_zero_tensor_is_tiny() {
        let t = vec![vec![0.0f32; 4096]];
        let refs: Vec<&[f32]> = t.iter().map(|x| x.as_slice()).collect();
        let bytes = encode_tensors(&refs, None, 0.25).unwrap();
        // count + len + mode + nnz — no entries.
        assert_eq!(bytes.len(), 4 + 4 + 1 + 4);
        roundtrip(&t, None, 0.25);
    }

    #[test]
    fn fully_dense_tensor_falls_back_to_raw() {
        let t = vec![(0..1024).map(|i| i as f32 + 0.5).collect::<Vec<f32>>()];
        let refs: Vec<&[f32]> = t.iter().map(|x| x.as_slice()).collect();
        let bytes = encode_tensors(&refs, None, 0.25).unwrap();
        assert_eq!(bytes[8], MODE_DENSE_RAW);
        assert_eq!(bytes.len(), 4 + 4 + 1 + 1024 * 4);
        roundtrip(&t, None, 0.25);
    }

    #[test]
    fn negative_zero_and_nan_survive_bit_exactly() {
        let t = vec![vec![
            -0.0f32,
            0.0,
            f32::NAN,
            f32::from_bits(0x7fc0_1234), // NaN with a payload
            f32::NEG_INFINITY,
            1.0e-45, // subnormal
        ]];
        roundtrip(&t, None, 1.0);
        // And through the xor path, against a baseline of ordinary values.
        let base = tensor_bits(&[&[1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]]);
        roundtrip(&t, Some(&base), 1.0);
    }

    #[test]
    fn tile_edge_lengths() {
        // Lengths that straddle typical SIMD tile edges: 1, 7, 8, 9, 63,
        // 64, 65 — off-by-one bugs in chunked encode/decode live here.
        for len in [1usize, 7, 8, 9, 63, 64, 65] {
            let dense: Vec<f32> = (0..len).map(|i| (i as f32) - 3.0).collect();
            let mut sparse = vec![0.0f32; len];
            sparse[len / 2] = 42.0;
            roundtrip(&[dense.clone(), sparse.clone()], None, 0.25);
            let base = tensor_bits(&[dense.as_slice(), sparse.as_slice()]);
            roundtrip(&[dense, sparse], Some(&base), 0.25);
        }
    }

    #[test]
    fn xor_mode_chosen_when_baseline_close() {
        // 1000 elements, only 3 differ from the baseline: xor-sparse wins.
        let base_vals: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let mut t = base_vals.clone();
        t[10] = -1.0;
        t[500] = 2.5;
        t[999] = f32::MIN_POSITIVE;
        let base = tensor_bits(&[base_vals.as_slice()]);
        let bytes = encode_tensors(&[&t], Some(&base), 0.25).unwrap();
        assert_eq!(bytes[8], MODE_SPARSE_XOR);
        assert_eq!(bytes.len(), 4 + 4 + 1 + 4 + 3 * 8);
        let back = decode_tensors(&bytes, Some(&base), &[1000]).unwrap();
        for (x, y) in t.iter().zip(&back[0]) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn xor_payload_without_baseline_is_rejected() {
        let base_vals = vec![1.0f32; 64];
        let t: Vec<f32> = base_vals.iter().map(|v| v + 0.0).collect();
        let mut changed = t.clone();
        changed[0] = 9.0;
        let base = tensor_bits(&[base_vals.as_slice()]);
        let bytes = encode_tensors(&[&changed], Some(&base), 0.25).unwrap();
        assert_eq!(bytes[8], MODE_SPARSE_XOR);
        assert!(matches!(
            decode_tensors(&bytes, None, &[64]),
            Err(TensorCodecError::BaselineMismatch(_))
        ));
        // Wrong-shape baseline is rejected too.
        let short = tensor_bits(&[&base_vals[..32]]);
        assert!(matches!(
            decode_tensors(&bytes, Some(&short), &[64]),
            Err(TensorCodecError::BaselineMismatch(_))
        ));
    }

    #[test]
    fn corrupt_payloads_are_structured_errors() {
        let t = [vec![1.0f32, 0.0, 3.0]];
        let refs: Vec<&[f32]> = t.iter().map(|x| x.as_slice()).collect();
        let bytes = encode_tensors(&refs, None, 1.0).unwrap();
        // Every truncation point errors, never panics.
        for cut in 0..bytes.len() {
            assert!(decode_tensors(&bytes[..cut], None, &[3]).is_err());
        }
        // Trailing garbage detected.
        let mut extra = bytes.clone();
        extra.push(0xFF);
        assert!(matches!(
            decode_tensors(&extra, None, &[3]),
            Err(TensorCodecError::Trailing(1))
        ));
        // Unknown mode detected.
        let mut bad = bytes;
        bad[8] = 9;
        assert!(matches!(
            decode_tensors(&bad, None, &[3]),
            Err(TensorCodecError::BadMode(9))
        ));
    }

    #[test]
    fn out_of_range_sparse_index_is_rejected() {
        // count=1, len=2, mode=sparse-raw, nnz=1, entry (index 5, bits 1).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.push(MODE_SPARSE_RAW);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_tensors(&bytes, None, &[2]),
            Err(TensorCodecError::BadIndex { index: 5, len: 2 })
        ));
    }

    #[test]
    fn declared_sizes_cannot_force_huge_allocations() {
        // A count of u32::MAX tensors with no bytes behind it.
        assert!(matches!(
            decode_tensors(&[0xFF; 4], None, &[2]),
            Err(TensorCodecError::Truncated { .. })
        ));
        // One empty sparse tensor declaring u32::MAX elements: 13 bytes
        // that would expand to 17 GB if the length were trusted.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.push(MODE_SPARSE_RAW);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_tensors(&bytes, None, &[2]),
            Err(TensorCodecError::ShapeMismatch(_))
        ));
        // The wrong tensor count is rejected the same way.
        let ok = encode_tensors(&[&[1.0], &[2.0]], None, 0.25).unwrap();
        assert!(matches!(
            decode_tensors(&ok, None, &[1]),
            Err(TensorCodecError::ShapeMismatch(_))
        ));
    }

    /// Arbitrary f32 from raw bits: covers NaN payloads, infinities,
    /// subnormals, and both zeros — the codec must be bit-transparent to
    /// all of them.
    fn any_f32_bits() -> impl Strategy<Value = f32> {
        any::<u32>().prop_map(f32::from_bits)
    }

    fn tensor_strategy() -> impl Strategy<Value = Vec<f32>> {
        // Mix dense-random and mostly-zero tensors so both sparse and
        // dense paths are exercised.
        prop_oneof![
            collection::vec(any_f32_bits(), 0..80),
            collection::vec(
                // ~80% exact zeros, the rest arbitrary bit patterns.
                any::<u32>().prop_map(|b| if b % 5 != 0 {
                    0.0f32
                } else {
                    f32::from_bits(b)
                }),
                0..80
            ),
        ]
    }

    proptest! {
        #[test]
        fn roundtrip_bit_identity_no_baseline(
            tensors in collection::vec(tensor_strategy(), 0..5),
            threshold in 0.0f32..1.001,
        ) {
            roundtrip(&tensors, None, threshold);
        }

        #[test]
        fn roundtrip_bit_identity_with_baseline(
            pairs in collection::vec(
                (0usize..60).prop_flat_map(|len| (
                    collection::vec(any_f32_bits(), len..=len),
                    collection::vec(any_f32_bits(), len..=len),
                )),
                0..5,
            ),
            threshold in 0.0f32..1.001,
        ) {
            let tensors: Vec<Vec<f32>> = pairs.iter().map(|(t, _)| t.clone()).collect();
            let base_vals: Vec<&[f32]> = pairs.iter().map(|(_, b)| b.as_slice()).collect();
            let baseline = tensor_bits(&base_vals);
            roundtrip(&tensors, Some(&baseline), threshold);
        }
    }
}
