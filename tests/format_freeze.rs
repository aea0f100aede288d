//! Format freeze: every binary encoder in the workspace — parameter
//! payloads, optimizer and run states, v1/v2 serve snapshots, replay
//! memory, SI state, data shards, the dist tensor codec and both wire
//! protocols — must keep producing exactly the bytes it did when these
//! values were recorded. Any change to a persisted or transmitted
//! format shows up here as a CRC mismatch naming the format family.

mod common;

use edsr::nn::io::crc32;

/// `(family, bytes, crc32)` over each family's encodings, each one
/// prefixed by its `u32` little-endian length. Recorded before the
/// encoders moved onto the shared `edsr-wire` codec.
const FROZEN: &[(&str, usize, u32)] = &[
    ("params", 762, 0x5FEF2A01),
    ("optim_state", 56, 0x2A1DDA6C),
    ("run_state", 985, 0xAF5B72AA),
    ("serve_snapshot_v1", 902, 0x0B0D2201),
    ("quant_snapshot_v2", 254, 0x09A78400),
    ("memory_buffer", 100, 0xF4C609C6),
    ("si_state", 1688, 0xC31A3F53),
    ("shard_task", 152, 0xA3104467),
    ("tensor_codec", 297, 0x36BB6E75),
    ("dist_requests", 220, 0x911A1EF4),
    ("dist_responses", 536, 0x664F9AA8),
    ("serve_requests", 61, 0xDD639C1F),
    ("serve_responses", 191, 0xFD1F9D8F),
];

#[test]
fn every_encoder_still_writes_the_frozen_bytes() {
    let got: Vec<(&str, usize, u32)> = common::encodings()
        .into_iter()
        .map(|(family, messages)| {
            let mut all = Vec::new();
            for m in &messages {
                all.extend_from_slice(&(m.len() as u32).to_le_bytes());
                all.extend_from_slice(m);
            }
            (family, all.len(), crc32(&all))
        })
        .collect();
    assert_eq!(got, FROZEN);
}
