//! Small, fully deterministic fixtures pushed through every binary
//! encoder in the workspace. Shared by the format-freeze test (which
//! pins the CRC32 of every encoding) and the decoder fuzz (which mutates
//! and truncates them).

#![allow(dead_code)] // each test binary uses a different subset

use edsr::cl::checkpoint::encode_run_state;
use edsr::cl::{
    ContinualModel, MemoryBuffer, MemoryItem, Method, ModelConfig, RunState, ServeSnapshot, Si,
    TrainConfig,
};
use edsr::data::shard::encode_task;
use edsr::data::{Dataset, Task};
use edsr::dist::codec::tensor_bits;
use edsr::dist::protocol::{ParamsBlob, PushBody};
use edsr::dist::{encode_tensors, DistSpec, DistStats, WorkItem};
use edsr::nn::io::{optim_state_to_bytes, params_to_bytes};
use edsr::nn::OptimState;
use edsr::quant::{GateReport, QuantEncoder, QuantLinear, QuantMemory, QuantSnapshot};
use edsr::serve::{Request, Response, StatsReply, WireMetric, WireNeighbor};
use edsr::ssl::SslVariant;
use edsr::tensor::rng::seeded;
use edsr::tensor::Matrix;

/// A model small enough that every truncation of its payloads is cheap.
pub fn tiny_model() -> ContinualModel {
    let cfg = ModelConfig {
        input_dims: vec![3],
        hidden_dim: 4,
        repr_dim: 2,
        backbone_layers: 1,
        variant: SslVariant::SimSiam,
        conv_stem: None,
    };
    ContinualModel::new(&cfg, &mut seeded(31))
}

/// Per-tensor element counts of the tensor-codec fixtures.
pub const TENSOR_LENS: [usize; 3] = [8, 8, 3];

/// The tensor-codec fixtures' inputs and XOR baseline bit patterns.
pub fn tensor_fixture() -> (Vec<Vec<f32>>, Vec<Vec<u32>>) {
    let dense: Vec<f32> = (0..8).map(|i| i as f32 - 2.5).collect();
    let mut sparse = vec![0.0f32; 8];
    sparse[5] = -0.0;
    sparse[6] = 7.25;
    let near = vec![1.0f32, f32::NAN, 3.0];
    let base = [dense.clone(), vec![0.0; 8], vec![1.0, 2.0, 3.0]];
    let refs: Vec<&[f32]> = base.iter().map(Vec::as_slice).collect();
    (vec![dense, sparse, near], tensor_bits(&refs))
}

/// Every encoder's output on the fixtures, grouped by format family.
pub fn encodings() -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let mut model = tiny_model();
    let params = params_to_bytes(&model.params);
    let optim = optim_state_to_bytes(&OptimState::Adam {
        lr: 0.25,
        t: 17,
        m: vec![Matrix::from_vec(1, 2, vec![0.5, -1.0])],
        v: vec![Matrix::from_vec(1, 2, vec![2.0, 0.125])],
    });
    let run_state = encode_run_state(&RunState {
        completed_tasks: 2,
        method: "EDSR".into(),
        benchmark: "test".into(),
        matrix_rows: vec![vec![50.0], vec![40.0, 60.0]],
        task_seconds: vec![1.5, 2.25],
        task_losses: vec![0.75, 0.5],
        params_payload: params.clone(),
        optim_payload: optim.clone(),
        rng_state: [1, 2, 3, u64::MAX],
        method_state: vec![9, 8, 7],
        lr_scale: 0.5,
    });
    let reprs = Matrix::from_vec(3, 2, vec![1.0, 0.0, -1.0, 0.5, 0.25, 0.25]);
    let serve_v1 = ServeSnapshot::capture(&model, reprs.clone(), vec![0, 0, 1], "test", 2)
        .expect("capture")
        .encode();

    let w = Matrix::from_vec(2, 2, vec![1.0, -0.5, 0.25, 2.0]);
    let encoder = QuantEncoder::new(
        vec![2],
        2,
        vec![QuantLinear::from_f32(&w, &[0.1, -0.1], true, false)],
        vec![QuantLinear::from_f32(&w, &[0.0, 0.0], false, true)],
    )
    .expect("encoder");
    let quant_v2 = QuantSnapshot {
        completed_tasks: 2,
        benchmark: "test".into(),
        encoder,
        memory: QuantMemory::from_matrix(&reprs),
        memory_tasks: vec![0, 0, 1],
        f32_params_crc: 0xDEAD_BEEF,
        f32_memory_crc: 0x1234_5678,
        gate: GateReport {
            f32_accuracy: 100.0,
            int8_accuracy: 66.5,
        },
    }
    .encode();

    let mut memory = MemoryBuffer::new();
    memory.extend([
        MemoryItem {
            input: vec![0.5, -0.5, 1.0],
            task: 0,
            noise_scale: 0.25,
            stored_features: Some(vec![1.0, 2.0]),
        },
        MemoryItem {
            input: vec![2.0, 0.0, -3.0],
            task: 1,
            noise_scale: 0.0,
            stored_features: None,
        },
    ]);

    let train = Dataset::new(
        "tr",
        Matrix::from_vec(3, 3, (0..9).map(|i| i as f32 * 0.5).collect()),
        vec![0, 1, 1],
    );
    let mut si = Si::new(0.1);
    si.begin_task(&mut model, 0, &train, &mut seeded(32));
    let si_state = si.save_state().expect("SI has state");
    let test = Dataset::new("te", Matrix::from_vec(1, 3, vec![-1.0, 0.0, 1.0]), vec![1]);
    let shard = encode_task(&Task {
        train,
        test,
        classes: vec![0, 1],
    });

    let (tensors, baseline) = tensor_fixture();
    let refs: Vec<&[f32]> = tensors.iter().map(Vec::as_slice).collect();
    let tensor_codec = vec![
        encode_tensors(&refs, None, 0.0).expect("dense"),
        encode_tensors(&refs, None, 1.0).expect("sparse"),
        encode_tensors(&refs, Some(&baseline), 1.0).expect("xor"),
    ];

    let dist_requests = [
        edsr::dist::Request::Hello { proto: 1, token: 7 },
        edsr::dist::Request::Pull {
            worker: 2,
            have_version: 17,
        },
        edsr::dist::Request::Push {
            worker: 1,
            body: PushBody::Grads {
                version: 9,
                shard: 0,
                shards: 1,
                loss: 3.25,
                rng: [1, 2, 3, 4],
                grads: vec![0xAA; 5],
            },
        },
        edsr::dist::Request::Push {
            worker: 0,
            body: PushBody::EvalCell {
                task: 2,
                col: 1,
                acc: 0.875,
            },
        },
        edsr::dist::Request::Barrier {
            worker: 3,
            gen: 5,
            rng: [u64::MAX, 0, 7, 8],
            state_crc: 0xDEAD_BEEF,
            params_crc: 0x1234_5678,
        },
        edsr::dist::Request::Stats,
        edsr::dist::Request::Shutdown,
    ];
    let blob = ParamsBlob {
        version: 4,
        base_version: Some(3),
        payload: vec![1, 2, 3],
    };
    let dist_responses = [
        edsr::dist::Response::Welcome {
            worker: 1,
            workers: 3,
            push_timeout_ms: 2000,
            sparse_threshold: 0.25,
            poll_ms: 5,
            spec: DistSpec::new("test", "edsr", 11, &TrainConfig::image(), Some(24)),
        },
        edsr::dist::Response::Work(WorkItem::Wait { poll_ms: 7 }),
        edsr::dist::Response::Work(WorkItem::Boundary {
            task: 1,
            end: true,
            gen: 9,
            params: blob.clone(),
            rng: [9, 8, 7, 6],
        }),
        edsr::dist::Response::Work(WorkItem::Step {
            task: 0,
            epoch: 2,
            step: 5,
            shard: 0,
            shards: 1,
            lr: 3e-3,
            batch: vec![5, 1, 9, 0],
            params: ParamsBlob {
                base_version: None,
                ..blob.clone()
            },
            rng: [1, 1, 2, 3],
        }),
        edsr::dist::Response::Work(WorkItem::Eval {
            task: 2,
            col: 0,
            params: blob,
        }),
        edsr::dist::Response::Work(WorkItem::Done),
        edsr::dist::Response::Ack { applied: true },
        edsr::dist::Response::Barrier {
            released: false,
            poll_ms: 5,
        },
        edsr::dist::Response::Stats(DistStats {
            workers: 2,
            steps: 40,
            ..DistStats::default()
        }),
        edsr::dist::Response::Err {
            code: 3,
            message: "rng state mismatch".into(),
        },
    ];

    let serve_requests = [
        Request::Embed {
            task: 1,
            input: vec![0.5, -0.0, f32::INFINITY],
        },
        Request::Knn {
            k: 3,
            metric: WireMetric::Cosine,
            query: vec![1.0, 2.0],
        },
        Request::Stats,
        Request::Shutdown,
    ];
    let stats = StatsReply {
        requests: 10,
        batches: 4,
        max_batch: 3,
        quantized: 1,
        ..StatsReply::default()
    };
    let serve_responses = [
        Response::Embedding(vec![0.25, -4.0]).encode(1),
        Response::Neighbors(vec![
            WireNeighbor {
                index: 2,
                score: 0.5,
            },
            WireNeighbor {
                index: 0,
                score: -1.0,
            },
        ])
        .encode(2),
        Response::Stats(stats).encode(3),
        Response::ShutdownAck.encode(4),
        Response::Error {
            code: 5,
            retry_after_ms: 20,
            message: "overloaded".into(),
        }
        .encode(1),
    ];

    vec![
        ("params", vec![params]),
        ("optim_state", vec![optim]),
        ("run_state", vec![run_state]),
        ("serve_snapshot_v1", vec![serve_v1]),
        ("quant_snapshot_v2", vec![quant_v2]),
        ("memory_buffer", vec![memory.to_bytes()]),
        ("si_state", vec![si_state]),
        ("shard_task", vec![shard]),
        ("tensor_codec", tensor_codec),
        (
            "dist_requests",
            dist_requests.iter().map(|m| m.encode()).collect(),
        ),
        (
            "dist_responses",
            dist_responses.iter().map(|m| m.encode()).collect(),
        ),
        (
            "serve_requests",
            serve_requests.iter().map(|m| m.encode()).collect(),
        ),
        ("serve_responses", serve_responses.to_vec()),
    ]
}
