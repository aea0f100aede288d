//! Recorded accuracy-matrix digests of the training halves.
//!
//! Each workload draws its seeds from one of these pools; every trained
//! seed's accuracy matrix must hash (`train::matrix_digest`) to the value
//! recorded here. The matrices are bit-identical at any thread count and
//! ISA level, so a mismatch means the arithmetic changed. Re-record with
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --record-digests <workload>` after a deliberate re-baseline.

/// `train-short`: cifar100-sim, EDSR, 1 epoch per increment.
pub const TRAIN_SHORT: &[(u64, u64)] = &[
    (1, 0x50bf471ebffe2fbd),  // acc 23.67 fgt 4.21
    (2, 0x487c3ede5e88e9ea),  // acc 26.00 fgt 5.61
    (3, 0x01c08f5f1b4426c2),  // acc 21.17 fgt 7.19
    (4, 0x4b6568978b65ff15),  // acc 22.00 fgt 6.49
    (5, 0x09edcf1b77beb8cb),  // acc 21.50 fgt 5.26
    (6, 0xf42969619c768fd6),  // acc 21.67 fgt 5.44
    (7, 0xdce4e62ef7b38495),  // acc 21.17 fgt 7.72
    (8, 0xa0e7fa2933b27898),  // acc 21.50 fgt 4.56
    (9, 0x9ff1d10295dbb683),  // acc 24.67 fgt 4.39
    (10, 0xc91ce035ead992c9), // acc 23.33 fgt 5.79
    (11, 0x7064a34dd766652d), // acc 23.50 fgt 5.26
    (12, 0xb6d34663109c95f4), // acc 23.17 fgt 6.84
    (13, 0xda0b0a44fb6b9583), // acc 27.50 fgt 3.68
    (14, 0x252ba8516efb1ebf), // acc 23.17 fgt 4.21
    (15, 0xa079b161b5442d34), // acc 23.00 fgt 6.14
    (16, 0x83b82e6ba4e77fe7), // acc 23.33 fgt 5.79
    (17, 0xcb6243cda41e97a9), // acc 22.00 fgt 6.14
    (18, 0x483c0b3dda8def47), // acc 27.50 fgt 4.56
    (19, 0x2c02dca5e43fabf8), // acc 23.83 fgt 3.86
    (20, 0x4e539ad68f1e2e41), // acc 24.17 fgt 4.21
    (21, 0x4a14ff47208ebb8d), // acc 23.50 fgt 5.96
    (22, 0x8ff9eeb107d4694c), // acc 26.00 fgt 5.96
    (23, 0x2f346b8ff746229d), // acc 26.83 fgt 5.44
    (24, 0xb0639a8ebb214f9e), // acc 22.83 fgt 5.96
];

/// `sweep-long`: cifar100-sim, EDSR, 16 epochs per increment.
pub const SWEEP_LONG: &[(u64, u64)] = &[
    (1, 0x81218abcc1f9a2d8),  // acc 43.17 fgt 3.86
    (2, 0x812ad85cfc5a8969),  // acc 30.17 fgt 6.14
    (3, 0x66fc9e1e6c83e6bf),  // acc 51.83 fgt 2.98
    (4, 0x55f63fb8f094c668),  // acc 40.33 fgt 6.84
    (5, 0x35a6a96b65ef5101),  // acc 47.67 fgt 7.72
    (6, 0x2f44e9e866816a4c),  // acc 38.17 fgt 5.09
    (7, 0x3229e6eeb79bd302),  // acc 35.67 fgt 4.56
    (8, 0xc450154ef2e43d66),  // acc 38.33 fgt 5.96
    (9, 0xb2aebee50b68120d),  // acc 45.67 fgt 5.61
    (10, 0x0cb91e67568b35ab), // acc 37.33 fgt 6.14
    (11, 0x4ec19dd96b0bed39), // acc 56.50 fgt 3.86
    (12, 0xd8f7808f7667b387), // acc 43.67 fgt 7.02
];
