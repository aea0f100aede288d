//! Decoder fuzz: no input from the wire or from disk may reach a panic or
//! an allocation out of proportion to its size. Every binary decoder in
//! the workspace is fed arbitrary bytes, fixture encodings with a window
//! overwritten by arbitrary bytes (which lands on length and count
//! fields), and every truncation of every fixture encoding. Each must
//! return `Ok` or a structured error, and no single allocation it makes
//! may exceed [`alloc_budget`] of the input.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::error::Error;
use std::path::Path;

use edsr::cl::checkpoint::{decode_run_state, encode_run_state};
use edsr::cl::{MemoryBuffer, Method, ServeSnapshot, Si};
use edsr::data::shard::{decode_task, encode_task};
use edsr::dist::{decode_tensors, encode_tensors};
use edsr::nn::io::{
    optim_state_from_bytes, optim_state_to_bytes, params_from_bytes, params_to_bytes,
};
use edsr::quant::QuantSnapshot;
use proptest::prelude::*;

/// Records the largest single allocation made on the current thread
/// while armed. Thread-local, so concurrently running tests in this
/// binary cannot disturb a measurement.
struct PeakAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping only touches const-initialised
// thread-locals, which never allocate.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The largest single allocation a decoder may make for an input of
/// `len` bytes. Decoded structures are wider in memory than on the wire
/// (a replay-memory item is 24 bytes encoded and 64 in a `Vec`), and a
/// sparse tensor expands to the length the receiver expects, so the
/// budget is a small multiple of the input plus room for error messages
/// and the fixtures' tensor shapes — far below anything a corrupt count
/// could request.
fn alloc_budget(len: usize) -> usize {
    8 * len + 4096
}

/// What the decoders need from the receiving side: a model to restore
/// parameters into and the tensor codec's expected shapes and baseline.
struct Receiver {
    params: edsr::nn::ParamSet,
    baseline: Vec<Vec<u32>>,
    families: Vec<&'static str>,
}

impl Receiver {
    fn new() -> Self {
        Self {
            params: common::tiny_model().params,
            baseline: common::tensor_fixture().1,
            families: common::encodings().iter().map(|(f, _)| *f).collect(),
        }
    }

    /// Decodes `bytes` as a `family` encoding and encodes the result
    /// again; tensor sets are re-encoded all-dense.
    fn round_trip(&mut self, family: &str, bytes: &[u8]) -> Result<Vec<u8>, Box<dyn Error>> {
        Ok(match family {
            "params" => {
                params_from_bytes(&mut self.params, bytes)?;
                params_to_bytes(&self.params)
            }
            "optim_state" => optim_state_to_bytes(&optim_state_from_bytes(bytes)?),
            "run_state" => encode_run_state(&decode_run_state(bytes)?),
            "serve_snapshot_v1" => ServeSnapshot::decode(bytes)?.encode(),
            "quant_snapshot_v2" => QuantSnapshot::decode(bytes)?.encode(),
            "memory_buffer" => MemoryBuffer::from_bytes(bytes)?.to_bytes(),
            "si_state" => {
                let mut si = Si::new(0.1);
                si.load_state(bytes)?;
                si.save_state().unwrap_or_default()
            }
            "shard_task" => encode_task(&decode_task(bytes, Path::new("fixture"))?),
            "tensor_codec" => {
                let tensors = decode_tensors(bytes, Some(&self.baseline), &common::TENSOR_LENS)?;
                let refs: Vec<&[f32]> = tensors.iter().map(Vec::as_slice).collect();
                encode_tensors(&refs, None, 0.0)?
            }
            "dist_requests" => edsr::dist::Request::decode(bytes)?.encode(),
            "dist_responses" => edsr::dist::Response::decode(bytes)?.encode(),
            "serve_requests" => edsr::serve::Request::decode(bytes)?.encode(),
            "serve_responses" => {
                let (opcode, resp) = edsr::serve::Response::decode(bytes)?;
                resp.encode(opcode)
            }
            other => panic!("no decoder for fixture family {other}"),
        })
    }

    /// Runs every decoder on `bytes` under the allocation probe.
    fn decode_everything(&mut self, bytes: &[u8]) {
        ARMED.with(|a| a.set(true));
        PEAK.with(|p| p.set(0));
        for i in 0..self.families.len() {
            let _ = self.round_trip(self.families[i], bytes);
        }
        let _ = decode_tensors(bytes, None, &common::TENSOR_LENS);
        ARMED.with(|a| a.set(false));
        let peak = PEAK.with(Cell::get);
        assert!(
            peak <= alloc_budget(bytes.len()),
            "decoding {} bytes allocated {peak} bytes at once",
            bytes.len()
        );
    }
}

#[test]
fn every_encoding_round_trips_and_every_truncation_fails_cleanly() {
    let mut receiver = Receiver::new();
    for (family, messages) in common::encodings() {
        for message in &messages {
            // Tensor sets come back in the all-dense form of the first fixture.
            let want = if family == "tensor_codec" {
                &messages[0]
            } else {
                message
            };
            let back = receiver.round_trip(family, message);
            assert_eq!(back.ok().as_ref(), Some(want), "{family}");
            for cut in 0..=message.len() {
                receiver.decode_everything(&message[..cut]);
                if cut < message.len() {
                    let got = receiver.round_trip(family, &message[..cut]);
                    assert!(got.is_err(), "{family} accepted a {cut}-byte truncation");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        fixture in any::<usize>(),
        at in any::<usize>(),
    ) {
        // Decoding garbage must return Ok or a structured error — any
        // panic (or abort) fails the test harness.
        let mut receiver = Receiver::new();
        receiver.decode_everything(&bytes);
        // A valid encoding with up to 8 bytes overwritten.
        let all: Vec<Vec<u8>> = common::encodings()
            .into_iter()
            .flat_map(|(_, messages)| messages)
            .collect();
        let mut spliced = all[fixture % all.len()].clone();
        let start = at % spliced.len().max(1);
        for (dst, src) in spliced.iter_mut().skip(start).zip(bytes.iter().take(8)) {
            *dst = *src;
        }
        receiver.decode_everything(&spliced);
    }
}
