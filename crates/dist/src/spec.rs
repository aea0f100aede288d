//! The run specification shipped to workers inside a Welcome.
//!
//! A [`DistSpec`] is everything a worker needs to reconstruct the exact
//! replica the server holds: preset name, method name, seed, optional
//! memory-budget override, and the full training configuration. Workers
//! build their data sequence / model / method from the spec and *nothing
//! else* — any out-of-band configuration would be a determinism hazard.

use edsr_cl::{Cassle, Der, Finetune, Lump, Method, OptimizerKind, Si, TrainConfig};
use edsr_core::{CompEmb, Edsr, R2r};
use edsr_data::{cifar100_sim, cifar10_sim, domainnet_sim, test_sim, tiny_imagenet_sim, Preset};

use edsr_wire::{Reader, Writer};

use crate::protocol::{read_string, ProtoError};

/// A self-contained description of one distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistSpec {
    /// Benchmark preset name (`cifar10`, `test`, …).
    pub preset: String,
    /// Method name (`edsr`, `finetune`, …).
    pub method: String,
    /// Master seed; data, model, and run RNGs derive from it exactly as
    /// the single-process `edsr run` command does.
    pub seed: u64,
    /// Override of the preset's total memory budget (`--memory`).
    pub memory_total: Option<usize>,
    /// Full training configuration.
    pub train: TrainConfig,
}

impl DistSpec {
    /// Builds a spec from CLI-level inputs.
    pub fn new(
        preset: &str,
        method: &str,
        seed: u64,
        train: &TrainConfig,
        memory_total: Option<usize>,
    ) -> Self {
        Self {
            preset: preset.to_string(),
            method: method.to_string(),
            seed,
            memory_total,
            train: train.clone(),
        }
    }

    /// The training configuration (a clone — `TrainConfig` is small).
    pub fn train_config(&self) -> TrainConfig {
        self.train.clone()
    }

    /// Serializes onto a protocol writer.
    pub fn write(&self, w: &mut Writer) {
        w.bytes_u32(self.preset.as_bytes());
        w.bytes_u32(self.method.as_bytes());
        w.u64(self.seed);
        match self.memory_total {
            Some(m) => {
                w.u8(1);
                w.u64(m as u64);
            }
            None => w.u8(0),
        }
        let t = &self.train;
        w.u64(t.epochs_per_task as u64);
        w.u64(t.batch_size as u64);
        w.u64(t.replay_batch as u64);
        w.f32(t.lr);
        w.f32(t.momentum);
        w.f32(t.weight_decay);
        w.u8(match t.optimizer {
            OptimizerKind::Sgd => 0,
            OptimizerKind::Adam => 1,
        });
        w.u64(t.eval_k as u64);
        w.u64(t.multitask_epoch_multiplier as u64);
        w.f32(t.cosine_floor);
    }

    /// Deserializes from a protocol reader.
    pub fn read(c: &mut Reader) -> Result<Self, ProtoError> {
        let preset = read_string(c)?;
        let method = read_string(c)?;
        let seed = c.u64()?;
        let memory_total = match c.u8()? {
            0 => None,
            1 => Some(c.u64()? as usize),
            k => return Err(ProtoError::BadKind(k)),
        };
        let mut train = TrainConfig::image();
        train.epochs_per_task = c.u64()? as usize;
        train.batch_size = c.u64()? as usize;
        train.replay_batch = c.u64()? as usize;
        train.lr = c.f32()?;
        train.momentum = c.f32()?;
        train.weight_decay = c.f32()?;
        train.optimizer = match c.u8()? {
            0 => OptimizerKind::Sgd,
            1 => OptimizerKind::Adam,
            k => return Err(ProtoError::BadKind(k)),
        };
        train.eval_k = c.u64()? as usize;
        train.multitask_epoch_multiplier = c.u64()? as usize;
        train.cosine_floor = c.f32()?;
        Ok(Self {
            preset,
            method,
            seed,
            memory_total,
            train,
        })
    }
}

/// Resolves a preset name exactly as the `edsr run` CLI does, applying
/// the spec-level memory override.
pub fn preset_for(spec: &DistSpec) -> Option<Preset> {
    let preset = match spec.preset.as_str() {
        "cifar10" => cifar10_sim(),
        "cifar100" => cifar100_sim(),
        "tiny-imagenet" | "tiny" => tiny_imagenet_sim(),
        "domainnet" => domainnet_sim(),
        "test" => test_sim(),
        _ => return None,
    };
    Some(match spec.memory_total {
        Some(m) => preset.with_memory_total(m),
        None => preset,
    })
}

/// Instantiates the method exactly as the `edsr run` CLI does (same
/// hyper-parameters derived from the preset and training config).
pub fn build_method(spec: &DistSpec, preset: &Preset) -> Option<Box<dyn Method>> {
    let budget = preset.per_task_budget();
    let replay_batch = spec.train.replay_batch;
    let noise_k = preset.noise_neighbors;
    Some(match spec.method.as_str() {
        "finetune" => Box::new(Finetune::new()),
        "si" => Box::new(Si::new(0.1)),
        "der" => Box::new(Der::new(budget, replay_batch, 0.5)),
        "lump" => Box::new(Lump::new(budget)),
        "cassle" => Box::new(Cassle::new()),
        "edsr" => Box::new(Edsr::paper_default(budget, replay_batch, noise_k)),
        "compemb" => Box::new(CompEmb::new(budget, replay_batch)),
        "r2r" => Box::new(R2r::new(budget, replay_batch, 4)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip() {
        let mut train = TrainConfig::image();
        train.epochs_per_task = 3;
        train.optimizer = OptimizerKind::Sgd;
        train.cosine_floor = 0.5;
        for memory in [None, Some(0), Some(24)] {
            let spec = DistSpec::new("test", "edsr", 42, &train, memory);
            let mut bytes = Vec::new();
            spec.write(&mut Writer::new(&mut bytes));
            let mut c = Reader::new(&bytes);
            let back = DistSpec::read(&mut c).unwrap();
            c.finish().unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn preset_resolution_matches_cli() {
        let spec = DistSpec::new("test", "edsr", 11, &TrainConfig::image(), None);
        let p = preset_for(&spec).unwrap();
        assert_eq!(p.memory_total, test_sim().memory_total);

        let spec = DistSpec::new("tiny", "edsr", 11, &TrainConfig::image(), Some(99));
        let p = preset_for(&spec).unwrap();
        assert_eq!(p.memory_total, 99);
        assert_eq!(p.name, tiny_imagenet_sim().name);

        let spec = DistSpec::new("nope", "edsr", 11, &TrainConfig::image(), None);
        assert!(preset_for(&spec).is_none());
    }

    #[test]
    fn every_method_name_builds() {
        let train = TrainConfig::image();
        for name in [
            "finetune", "si", "der", "lump", "cassle", "edsr", "compemb", "r2r",
        ] {
            let spec = DistSpec::new("test", name, 11, &train, None);
            let preset = preset_for(&spec).unwrap();
            assert!(build_method(&spec, &preset).is_some(), "{name}");
        }
        let spec = DistSpec::new("test", "multitask", 11, &train, None);
        let preset = preset_for(&spec).unwrap();
        assert!(build_method(&spec, &preset).is_none());
    }
}
