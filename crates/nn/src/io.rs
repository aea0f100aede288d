//! Parameter and run-state persistence: versioned, integrity-checked
//! binary envelopes.
//!
//! Two weight formats exist:
//!
//! **v1** (`EDSRW001`, legacy, still readable):
//! ```text
//! magic  "EDSRW001"          8 bytes
//! count  u32                 number of parameters
//! per parameter:
//!   name_len u32, name bytes (UTF-8)
//!   rows u32, cols u32
//!   rows*cols f32 values
//! ```
//!
//! **v2** (`EDSRW002`, written by [`save_params`]) wraps the same payload
//! in the generic integrity envelope ([`edsr_wire::write_envelope`]):
//! ```text
//! magic    8 bytes            format/kind tag
//! payload  N bytes
//! trailer  u64 payload_len, u32 crc32(payload)
//! ```
//!
//! The trailer makes truncated or bit-flipped files detectable *before*
//! any payload parsing: a checkpoint interrupted mid-write fails the
//! length check ([`CheckpointError::Truncated`]) and corruption fails the
//! CRC ([`CheckpointError::Corrupt`]). Writers go through a temp file +
//! rename so a crash never leaves a half-written file under the final
//! name. The envelope is reused by `edsr-cl`'s run-state checkpoints
//! (its own magic), so every persisted artifact in the workspace shares
//! one validation path.
//!
//! Loading validates names and shapes against the receiving set, so a
//! checkpoint can only be restored into a structurally identical model.

use std::io;
use std::path::Path;

use edsr_tensor::Matrix;
use edsr_wire::{read_envelope_bytes, write_envelope, DecodeError, EnvelopeError, Reader, Writer};

use crate::optim::OptimState;
use crate::params::ParamSet;

const MAGIC_V1: &[u8; 8] = b"EDSRW001";
const MAGIC_V2: &[u8; 8] = b"EDSRW002";

/// Errors produced by checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file error.
    Io(io::Error),
    /// The file is not an EDSR checkpoint (bad magic).
    BadMagic,
    /// The file ends before its declared payload (interrupted write).
    Truncated {
        /// Bytes the trailer (or parser) expected.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload's CRC32 does not match its trailer (bit corruption).
    Corrupt {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// Parameter count, name, or shape disagrees with the receiving set.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::BadMagic => write!(f, "not an EDSR checkpoint (bad magic)"),
            CheckpointError::Truncated { expected, got } => {
                write!(
                    f,
                    "checkpoint truncated: expected {expected} payload bytes, found {got}"
                )
            }
            CheckpointError::Corrupt { stored, computed } => {
                write!(
                    f,
                    "checkpoint corrupt: crc32 {computed:08x} != stored {stored:08x}"
                )
            }
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// CRC32 (IEEE) of `bytes` — the integrity check in the v2 trailer.
/// Re-exported from `edsr-wire`, the shared implementation.
pub use edsr_wire::crc32;

impl From<EnvelopeError> for CheckpointError {
    fn from(e: EnvelopeError) -> Self {
        match e {
            EnvelopeError::Io(e) => CheckpointError::Io(e),
            EnvelopeError::BadMagic => CheckpointError::BadMagic,
            EnvelopeError::Truncated { expected, got } => {
                CheckpointError::Truncated { expected, got }
            }
            EnvelopeError::Corrupt { stored, computed } => {
                CheckpointError::Corrupt { stored, computed }
            }
        }
    }
}

impl From<edsr_wire::DecodeError> for CheckpointError {
    fn from(e: edsr_wire::DecodeError) -> Self {
        match e {
            edsr_wire::DecodeError::Truncated { expected, got } => CheckpointError::Truncated {
                expected: expected as u64,
                got: got as u64,
            },
            edsr_wire::DecodeError::Trailing(n) => {
                CheckpointError::Mismatch(format!("payload has {n} trailing bytes"))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Matrix codec, shared with edsr-cl's run states and edsr-quant.
// ---------------------------------------------------------------------------

/// Appends a shape-prefixed matrix: `u32 rows, u32 cols, rows*cols f32`.
pub fn write_matrix(w: &mut Writer, m: &Matrix) {
    w.u32(m.rows() as u32);
    w.u32(m.cols() as u32);
    w.f32s(m.data());
}

/// Reads a matrix written by [`write_matrix`]; the element count is
/// guarded against the remaining bytes before the data is allocated.
pub fn read_matrix(r: &mut Reader) -> Result<Matrix, DecodeError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let data = r.f32s(rows as u64 * cols as u64)?;
    Ok(Matrix::from_vec(rows, cols, data))
}

// ---------------------------------------------------------------------------
// ParamSet payload codec (shared by v1 and v2 weight files).
// ---------------------------------------------------------------------------

/// Serializes every parameter of `params` into the weight payload layout.
pub fn params_to_bytes(params: &ParamSet) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + params.num_scalars() * 4);
    let mut w = Writer::new(&mut buf);
    w.u32(params.len() as u32);
    for id in params.ids() {
        w.bytes_u32(params.name(id).as_bytes());
        write_matrix(&mut w, params.value(id));
    }
    buf
}

/// Restores a weight payload into `params`, validating names and shapes.
pub fn params_from_bytes(params: &mut ParamSet, payload: &[u8]) -> Result<(), CheckpointError> {
    let mut r = Reader::new(payload);
    let count = r.u32()? as usize;
    if count != params.len() {
        return Err(CheckpointError::Mismatch(format!(
            "file has {count} parameters, model has {}",
            params.len()
        )));
    }
    for id in params.ids().collect::<Vec<_>>() {
        let name = String::from_utf8_lossy(r.bytes_u32()?).into_owned();
        if name != params.name(id) {
            return Err(CheckpointError::Mismatch(format!(
                "parameter name {name:?} does not match model's {:?}",
                params.name(id)
            )));
        }
        let value = read_matrix(&mut r)?;
        let expected = params.value(id).shape();
        if value.shape() != expected {
            return Err(CheckpointError::Mismatch(format!(
                "parameter {name:?} has shape {}x{}, model expects {}x{}",
                value.rows(),
                value.cols(),
                expected.0,
                expected.1
            )));
        }
        *params.value_mut(id) = value;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Optimizer-state codec (run-state checkpoints persist optimizer moments).
// ---------------------------------------------------------------------------

/// Serializes an exported optimizer state.
pub fn optim_state_to_bytes(state: &OptimState) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = Writer::new(&mut buf);
    match state {
        OptimState::Sgd { lr, velocity } => {
            w.u32(1);
            w.f32(*lr);
            w.u32(velocity.len() as u32);
            for m in velocity {
                write_matrix(&mut w, m);
            }
        }
        OptimState::Adam { lr, t, m, v } => {
            w.u32(2);
            w.f32(*lr);
            w.u64(*t);
            w.u32(m.len() as u32);
            for mm in m.iter().chain(v) {
                write_matrix(&mut w, mm);
            }
        }
    }
    buf
}

/// Reads `n` matrices, `n` guarded first (each is at least 8 bytes).
fn read_matrices(r: &mut Reader, n: u64) -> Result<Vec<Matrix>, DecodeError> {
    let n = r.count(n, 8)?;
    (0..n).map(|_| read_matrix(r)).collect()
}

/// Deserializes an optimizer state written by [`optim_state_to_bytes`].
pub fn optim_state_from_bytes(payload: &[u8]) -> Result<OptimState, CheckpointError> {
    let mut r = Reader::new(payload);
    match r.u32()? {
        1 => {
            let lr = r.f32()?;
            let n = r.u32()?;
            let velocity = read_matrices(&mut r, n.into())?;
            Ok(OptimState::Sgd { lr, velocity })
        }
        2 => {
            let lr = r.f32()?;
            let t = r.u64()?;
            let n = r.u32()?;
            let m = read_matrices(&mut r, n.into())?;
            let v = read_matrices(&mut r, n.into())?;
            Ok(OptimState::Adam { lr, t, m, v })
        }
        k => Err(CheckpointError::Mismatch(format!(
            "unknown optimizer-state kind {k}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Public weight-file API.
// ---------------------------------------------------------------------------

/// Writes all parameter values of `params` to `path` (v2 format:
/// `EDSRW002` envelope with a length/CRC32 trailer, fsync and atomic
/// rename — see [`edsr_wire::write_envelope`]).
pub fn save_params(params: &ParamSet, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    Ok(write_envelope(path, MAGIC_V2, &params_to_bytes(params))?)
}

/// Loads a checkpoint written by [`save_params`] into `params`.
///
/// Accepts both the current `EDSRW002` envelope (length/CRC validated
/// before parsing) and the legacy `EDSRW001` format (the same payload
/// after the magic, no trailer). Every parameter's name and shape must
/// match the receiving set (same architecture, same registration order).
pub fn load_params(params: &mut ParamSet, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let bytes = std::fs::read(path)?;
    match bytes.strip_prefix(MAGIC_V1) {
        Some(payload) => params_from_bytes(params, payload),
        None => params_from_bytes(params, &read_envelope_bytes(&bytes, MAGIC_V2)?),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, Init, Mlp};
    use edsr_tensor::rng::seeded;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("edsr-ckpt-{name}-{}", std::process::id()));
        p
    }

    fn fresh_model(seed: u64) -> (Mlp, ParamSet) {
        let mut rng = seeded(seed);
        let mut ps = ParamSet::new();
        let mlp = Mlp::new(
            &mut ps,
            "m",
            &[4, 8, 3],
            Activation::Relu,
            Init::He,
            &mut rng,
        );
        (mlp, ps)
    }

    #[test]
    fn roundtrip_preserves_weights_exactly() {
        let (_mlp, ps) = fresh_model(500);
        let path = tmp("roundtrip");
        save_params(&ps, &path).expect("save");
        let (_mlp2, mut ps2) = fresh_model(501); // different init
        let before = ps2.value(ps2.ids().next().unwrap()).clone();
        load_params(&mut ps2, &path).expect("load");
        for (a, b) in ps.ids().zip(ps2.ids()) {
            assert_eq!(ps.value(a), ps2.value(b), "weights differ after roundtrip");
        }
        assert_ne!(&before, ps2.value(ps2.ids().next().unwrap()));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn legacy_v1_files_still_load() {
        let (_mlp, ps) = fresh_model(520);
        let path = tmp("v1-compat");
        // The legacy layout: the v1 magic, then the same payload, no trailer.
        std::fs::write(&path, [&MAGIC_V1[..], &params_to_bytes(&ps)].concat()).expect("save v1");
        let (_mlp2, mut ps2) = fresh_model(521);
        load_params(&mut ps2, &path).expect("load v1");
        for (a, b) in ps.ids().zip(ps2.ids()) {
            assert_eq!(
                ps.value(a),
                ps2.value(b),
                "v1 weights differ after roundtrip"
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncated_v2_file_is_rejected() {
        let (_mlp, ps) = fresh_model(522);
        let path = tmp("truncated");
        save_params(&ps, &path).expect("save");
        let full = std::fs::read(&path).expect("read back");
        // Cut the file at several points; every cut must be detected.
        for keep in [9, full.len() / 2, full.len() - 5, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).expect("write truncated");
            let (_m, mut ps2) = fresh_model(523);
            let err = load_params(&mut ps2, &path).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. } | CheckpointError::Corrupt { .. }
                ),
                "cut at {keep}: unexpected {err}"
            );
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bitflip_fails_crc() {
        let (_mlp, ps) = fresh_model(524);
        let path = tmp("bitflip");
        save_params(&ps, &path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read back");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write corrupted");
        let (_m, mut ps2) = fresh_model(525);
        let err = load_params(&mut ps2, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_wrong_architecture() {
        let (_mlp, ps) = fresh_model(502);
        let path = tmp("arch");
        save_params(&ps, &path).expect("save");
        let mut rng = seeded(503);
        let mut other = ParamSet::new();
        let _ = Mlp::new(
            &mut other,
            "m",
            &[4, 16, 3],
            Activation::Relu,
            Init::He,
            &mut rng,
        );
        let err = load_params(&mut other, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_wrong_parameter_count() {
        let (_mlp, ps) = fresh_model(504);
        let path = tmp("count");
        save_params(&ps, &path).expect("save");
        let mut rng = seeded(505);
        let mut other = ParamSet::new();
        let _ = Mlp::new(
            &mut other,
            "m",
            &[4, 8, 8, 3],
            Activation::Relu,
            Init::He,
            &mut rng,
        );
        assert!(load_params(&mut other, &path).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_garbage_file() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        let (_mlp, mut ps) = fresh_model(506);
        let err = load_params(&mut ps, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let (_mlp, mut ps) = fresh_model(507);
        let err = load_params(&mut ps, "/nonexistent/edsr.ckpt").unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn huge_matrix_shape_is_rejected_before_allocation() {
        // rows = cols = u32::MAX with no data: the element count must be
        // guarded against the (empty) remainder, not allocated.
        let (_mlp, mut ps) = fresh_model(526);
        let name = ps.name(ps.ids().next().unwrap()).as_bytes().to_vec();
        let mut payload = Vec::new();
        payload.extend_from_slice(&(ps.len() as u32).to_le_bytes());
        payload.extend_from_slice(&(name.len() as u32).to_le_bytes());
        payload.extend_from_slice(&name);
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = params_from_bytes(&mut ps, &payload).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated { .. }), "{err}");
    }

    #[test]
    fn envelope_roundtrip_and_validation() {
        let path = tmp("envelope");
        let payload = vec![7u8; 129];
        write_envelope(&path, b"EDSRTEST", &payload).expect("write");
        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(
            read_envelope_bytes(&bytes, b"EDSRTEST").expect("open"),
            payload
        );
        // Wrong magic maps onto the checkpoint error callers match on.
        assert!(matches!(
            CheckpointError::from(read_envelope_bytes(&bytes, b"EDSRXXXX").unwrap_err()),
            CheckpointError::BadMagic
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn byte_reader_reports_truncation() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).u32(5);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().expect("fits"), 5);
        assert!(matches!(
            CheckpointError::from(r.u64().unwrap_err()),
            CheckpointError::Truncated { .. }
        ));
    }

    #[test]
    fn optimizer_state_roundtrip() {
        let mut rng = seeded(530);
        let m1 = Matrix::randn(2, 3, 1.0, &mut rng);
        let m2 = Matrix::randn(3, 1, 1.0, &mut rng);
        let state = OptimState::Adam {
            lr: 0.25,
            t: 17,
            m: vec![m1.clone(), m2.clone()],
            v: vec![m2.clone(), m1.clone()],
        };
        let bytes = optim_state_to_bytes(&state);
        match optim_state_from_bytes(&bytes).expect("decode") {
            OptimState::Adam { lr, t, m, v } => {
                assert_eq!(lr, 0.25);
                assert_eq!(t, 17);
                assert_eq!(m, vec![m1.clone(), m2.clone()]);
                assert_eq!(v, vec![m2, m1]);
            }
            other => panic!("wrong kind decoded: {other:?}"),
        }
        let sgd = OptimState::Sgd {
            lr: 0.5,
            velocity: vec![Matrix::zeros(1, 4)],
        };
        let decoded = optim_state_from_bytes(&optim_state_to_bytes(&sgd)).expect("decode sgd");
        assert!(matches!(decoded, OptimState::Sgd { lr, ref velocity }
            if lr == 0.5 && velocity.len() == 1));
    }
}
