//! `EDSRSS02` — the v2 (quantized) serve-snapshot format.
//!
//! Same on-disk discipline as v1: an 8-byte magic, the payload, and a
//! CRC32 trailer, written `.tmp` → fsync → atomic rename → parent-dir
//! sync through `edsr-wire`. The payload bundles the quantized encoder,
//! the quantized memory grid with task labels, CRC32s of the f32
//! originals it was derived from, and the export-time accuracy
//! [`GateReport`].
//!
//! Payload layout (little-endian):
//!
//! ```text
//! u64 completed_tasks
//! bytes benchmark (u64 len + utf-8)
//! u64 n_input_dims, then n x u64
//! u64 repr_dim
//! u64 n_adapters, then n x quant_linear
//! u64 n_chain, then n x quant_linear
//! quant_tensor memory grid
//! u64 n_memory_tasks, then n x u64
//! u32 f32 params CRC32   (over the v1 snapshot's params payload)
//! u32 f32 memory CRC32   (over the v1 grid's encoded bytes)
//! f32 gate f32 accuracy, f32 gate int8 accuracy
//!
//! quant_linear := quant_tensor wt, u64 n_bias + n x f32, u32 relu (0|1)
//! quant_tensor := u32 rows, u32 cols, u64 n_scales + n x f32,
//!                 i8s data (u64 len + raw bytes)
//! ```

use std::path::Path;

use edsr_nn::CheckpointError;
use edsr_wire::{read_envelope, write_envelope, Reader, Writer};

use crate::encoder::{QuantEncoder, QuantLinear};
use crate::knn::{GateReport, QuantMemory};
use crate::tensor::QuantTensor;

/// Magic tag of v2 quantized serve snapshots (v1 is `EDSRSS01`).
pub const QUANT_SNAPSHOT_MAGIC: &[u8; 8] = b"EDSRSS02";

/// A quantized serve snapshot: everything the serve engine needs to run
/// int8 inference, plus provenance (f32 CRCs) and the accuracy gate.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantSnapshot {
    /// Tasks completed when the snapshot was exported.
    pub completed_tasks: usize,
    /// Benchmark name (matches the v1 snapshot it was derived from).
    pub benchmark: String,
    /// The quantized eval-mode encoder.
    pub encoder: QuantEncoder,
    /// The quantized memory grid.
    pub memory: QuantMemory,
    /// Source task ID per memory row.
    pub memory_tasks: Vec<u64>,
    /// CRC32 of the f32 model parameter payload this was quantized from.
    pub f32_params_crc: u32,
    /// CRC32 of the encoded f32 memory grid this was quantized from.
    pub f32_memory_crc: u32,
    /// Export-time leave-one-out accuracy comparison.
    pub gate: GateReport,
}

fn write_quant_tensor(w: &mut Writer, t: &QuantTensor) {
    w.u32(t.rows() as u32);
    w.u32(t.cols() as u32);
    w.u64(t.scales().len() as u64);
    w.f32s(t.scales());
    w.u64(t.data().len() as u64);
    for &v in t.data() {
        w.u8(v as u8);
    }
}

fn read_quant_tensor(r: &mut Reader) -> Result<QuantTensor, CheckpointError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let n_scales = r.u64()?;
    let scales = r.f32s(n_scales)?;
    let data = r.bytes_u64()?.iter().map(|&b| b as i8).collect();
    QuantTensor::from_parts(rows, cols, data, scales).map_err(CheckpointError::Mismatch)
}

fn write_quant_linear(w: &mut Writer, l: &QuantLinear) {
    write_quant_tensor(w, &l.wt);
    w.u64(l.bias.len() as u64);
    w.f32s(&l.bias);
    w.u32(l.relu as u32);
}

fn read_quant_linear(r: &mut Reader) -> Result<QuantLinear, CheckpointError> {
    let wt = read_quant_tensor(r)?;
    let n_bias = r.u64()?;
    if n_bias != wt.rows() as u64 {
        return Err(CheckpointError::Mismatch(format!(
            "quant layer bias count {n_bias} != {} output channels",
            wt.rows()
        )));
    }
    let bias = r.f32s(n_bias)?;
    let relu = match r.u32()? {
        0 => false,
        1 => true,
        v => {
            return Err(CheckpointError::Mismatch(format!(
                "quant layer relu tag {v} (want 0|1)"
            )))
        }
    };
    Ok(QuantLinear { wt, bias, relu })
}

/// Reads a `u64`-counted list of quantized layers (each at least 36 bytes).
fn read_quant_linears(r: &mut Reader) -> Result<Vec<QuantLinear>, CheckpointError> {
    let n = r.count_u64(36)?;
    (0..n).map(|_| read_quant_linear(r)).collect()
}

impl QuantSnapshot {
    /// Serializes to the EDSRSS02 payload (without the envelope).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = Writer::new(&mut buf);
        w.u64(self.completed_tasks as u64);
        w.bytes_u64(self.benchmark.as_bytes());
        w.u64(self.encoder.input_dims().len() as u64);
        for &d in self.encoder.input_dims() {
            w.u64(d as u64);
        }
        w.u64(self.encoder.repr_dim() as u64);
        for layers in [self.encoder.adapters(), self.encoder.chain()] {
            w.u64(layers.len() as u64);
            for l in layers {
                write_quant_linear(&mut w, l);
            }
        }
        write_quant_tensor(&mut w, self.memory.grid());
        w.u64(self.memory_tasks.len() as u64);
        for &t in &self.memory_tasks {
            w.u64(t);
        }
        w.u32(self.f32_params_crc);
        w.u32(self.f32_memory_crc);
        w.f32(self.gate.f32_accuracy);
        w.f32(self.gate.int8_accuracy);
        buf
    }

    /// Decodes an EDSRSS02 payload, validating every structural invariant.
    pub fn decode(payload: &[u8]) -> Result<QuantSnapshot, CheckpointError> {
        let mut r = Reader::new(payload);
        let completed_tasks = r.u64()? as usize;
        let benchmark = String::from_utf8(r.bytes_u64()?.to_vec())
            .map_err(|_| CheckpointError::Mismatch("benchmark is not utf-8".into()))?;
        let n_dims = r.u64()?;
        let input_dims = r.u64s(n_dims)?.into_iter().map(|d| d as usize).collect();
        let repr_dim = r.u64()? as usize;
        let adapters = read_quant_linears(&mut r)?;
        let chain = read_quant_linears(&mut r)?;
        let grid = read_quant_tensor(&mut r)?;
        let n_tasks = r.u64()?;
        let memory_tasks = r.u64s(n_tasks)?;
        let f32_params_crc = r.u32()?;
        let f32_memory_crc = r.u32()?;
        let gate = GateReport {
            f32_accuracy: r.f32()?,
            int8_accuracy: r.f32()?,
        };
        r.finish()?;
        let encoder = QuantEncoder::new(input_dims, repr_dim, adapters, chain)
            .map_err(CheckpointError::Mismatch)?;
        if grid.cols() != repr_dim && grid.rows() != 0 {
            return Err(CheckpointError::Mismatch(format!(
                "quant memory width {} != repr_dim {repr_dim}",
                grid.cols()
            )));
        }
        if memory_tasks.len() != grid.rows() {
            return Err(CheckpointError::Mismatch(format!(
                "quant memory rows {} != task labels {}",
                grid.rows(),
                memory_tasks.len()
            )));
        }
        Ok(QuantSnapshot {
            completed_tasks,
            benchmark,
            encoder,
            memory: QuantMemory::from_grid(grid),
            memory_tasks,
            f32_params_crc,
            f32_memory_crc,
            gate,
        })
    }

    /// Writes the snapshot as a CRC-trailed envelope (fsync before the
    /// atomic rename, parent directory synced — crash-safe like v1).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        Ok(write_envelope(path, QUANT_SNAPSHOT_MAGIC, &self.encode())?)
    }

    /// Reads and validates an EDSRSS02 envelope.
    pub fn load(path: impl AsRef<Path>) -> Result<QuantSnapshot, CheckpointError> {
        QuantSnapshot::decode(&read_envelope(path, QUANT_SNAPSHOT_MAGIC)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edsr_tensor::Matrix;

    fn sample() -> QuantSnapshot {
        let w = Matrix::from_vec(2, 2, vec![1.0, -0.5, 0.25, 2.0]);
        let adapter = QuantLinear::from_f32(&w, &[0.1, -0.1], true, false);
        let head = QuantLinear::from_f32(&w, &[0.0, 0.0], false, true);
        let encoder = QuantEncoder::new(vec![2], 2, vec![adapter], vec![head]).unwrap();
        let memory = Matrix::from_rows(&[&[1.0, 0.0], &[-1.0, 0.5]]);
        QuantSnapshot {
            completed_tasks: 3,
            benchmark: "test".into(),
            encoder,
            memory: QuantMemory::from_matrix(&memory),
            memory_tasks: vec![0, 1],
            f32_params_crc: 0xdead_beef,
            f32_memory_crc: 0x1234_5678,
            gate: GateReport {
                f32_accuracy: 100.0,
                int8_accuracy: 99.5,
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        let got = QuantSnapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(got, snap);
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut payload = sample().encode();
        payload.push(0);
        assert!(matches!(
            QuantSnapshot::decode(&payload),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn save_load_round_trips_and_checks_magic() {
        let dir = std::env::temp_dir().join(format!("edsr-quant-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.snapshot");
        let snap = sample();
        snap.save(&path).unwrap();
        assert_eq!(QuantSnapshot::load(&path).unwrap(), snap);
        // A v1-magic file must be rejected as BadMagic, which is what
        // lets the any-format loader fall through to v1 decoding.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"EDSRSS01");
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            QuantSnapshot::load(&path),
            Err(CheckpointError::BadMagic)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
