//! The versioned parameter-server wire protocol.
//!
//! Frames ride `edsr-wire`'s length-prefixed transport (the same framing
//! `edsr-serve` speaks). Every request starts with a 1-byte op; every
//! response starts with a 1-byte kind. Malformed traffic decodes to a
//! structured [`ProtoError`], and servers answer bad requests with
//! [`Response::Err`] carrying an `ERR_*` code — mirroring `edsr-serve`'s
//! error idiom so clients can distinguish "retry", "rebuild", and "give
//! up" without string matching.
//!
//! Ops: HELLO registers (or re-attaches) a worker and returns the run
//! spec; PULL asks for work (parameters travel inside the work item,
//! delta-coded when the server knows what the worker already holds);
//! PUSH delivers gradients or an evaluated accuracy cell; BARRIER
//! reports boundary-op completion and polls for release; STATS snapshots
//! the server's counters; SHUTDOWN requests an orderly stop.

use std::fmt;

use edsr_wire::{DecodeError, Reader, Writer};

use crate::spec::DistSpec;

/// Protocol version — bumped on any incompatible wire change. A HELLO
/// carrying a different version is rejected with [`ERR_BAD_REQUEST`].
pub const DIST_PROTOCOL_VERSION: u16 = 1;

/// Register a worker (or re-attach after a reconnect).
pub const OP_HELLO: u8 = 1;
/// Ask for the next work item.
pub const OP_PULL: u8 = 2;
/// Deliver gradients or an evaluation cell.
pub const OP_PUSH: u8 = 3;
/// Report boundary completion / poll for barrier release.
pub const OP_BARRIER: u8 = 4;
/// Snapshot server counters.
pub const OP_STATS: u8 = 5;
/// Request an orderly server stop.
pub const OP_SHUTDOWN: u8 = 6;

/// Malformed or version-mismatched request.
pub const ERR_BAD_REQUEST: u16 = 1;
/// The worker id is not registered (stale or foreign session).
pub const ERR_UNKNOWN_WORKER: u16 = 2;
/// Workers disagreed on state that must be bit-identical.
pub const ERR_DESYNC: u16 = 3;
/// The server is shutting down; no more work will be issued.
pub const ERR_SHUTTING_DOWN: u16 = 4;
/// Internal server failure (details in the message).
pub const ERR_INTERNAL: u16 = 5;
/// A training step produced a non-finite loss.
pub const ERR_DIVERGED: u16 = 6;
/// The request failed its CRC (or didn't parse at all). Requests only
/// come from our own worker code, so this means wire corruption, and
/// the client should simply retry — the request was never acted on.
pub const ERR_CORRUPT: u16 = 7;

const KIND_WELCOME: u8 = 1;
const KIND_WORK: u8 = 2;
const KIND_ACK: u8 = 3;
const KIND_BARRIER: u8 = 4;
const KIND_STATS: u8 = 5;
const KIND_ERR: u8 = 6;

const ITEM_WAIT: u8 = 0;
const ITEM_BOUNDARY: u8 = 1;
const ITEM_STEP: u8 = 2;
const ITEM_EVAL: u8 = 3;
const ITEM_DONE: u8 = 4;

const PUSH_GRADS: u8 = 1;
const PUSH_EVAL: u8 = 2;

/// Decode failures of the dist protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Payload ended before the declared data.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes remaining.
        got: usize,
    },
    /// Unknown request op byte.
    BadOp(u8),
    /// Unknown response/item/body kind byte.
    BadKind(u8),
    /// A string field is not UTF-8.
    BadString,
    /// Bytes remained after the declared message.
    Trailing(usize),
    /// The message's CRC trailer does not match its body.
    BadCrc {
        /// CRC the trailer carried.
        expected: u32,
        /// CRC computed over the body.
        got: u32,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { expected, got } => {
                write!(f, "message truncated: needed {expected} bytes, had {got}")
            }
            ProtoError::BadOp(op) => write!(f, "unknown request op {op}"),
            ProtoError::BadKind(k) => write!(f, "unknown message kind {k}"),
            ProtoError::BadString => write!(f, "string field is not utf-8"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::BadCrc { expected, got } => {
                write!(
                    f,
                    "message crc mismatch: trailer {expected:08x}, body {got:08x}"
                )
            }
        }
    }
}

/// Appends the CRC trailer to a message body. Frames on the dist wire
/// carry gradients whose silent corruption would break bit-identity, so
/// — unlike `edsr-serve`'s query protocol — every message is sealed with
/// a CRC32 of its body (the same checksum the checkpoint envelope uses).
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = edsr_wire::crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Verifies and strips the CRC trailer, returning the body.
fn open(bytes: &[u8]) -> Result<&[u8], ProtoError> {
    if bytes.len() < 4 {
        return Err(ProtoError::Truncated {
            expected: 4,
            got: bytes.len(),
        });
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let expected = u32::from_le_bytes(trailer.try_into().unwrap());
    let got = edsr_wire::crc32(body);
    if expected != got {
        return Err(ProtoError::BadCrc { expected, got });
    }
    Ok(body)
}

impl std::error::Error for ProtoError {}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated { expected, got } => ProtoError::Truncated { expected, got },
            DecodeError::Trailing(n) => ProtoError::Trailing(n),
        }
    }
}

/// Reads four u64s — an `StdRng` state.
fn read_rng(r: &mut Reader) -> Result<[u64; 4], DecodeError> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

/// Appends an `StdRng` state.
fn write_rng(w: &mut Writer, s: [u64; 4]) {
    for v in s {
        w.u64(v);
    }
}

/// Reads a u32-length-prefixed UTF-8 string.
pub(crate) fn read_string(r: &mut Reader) -> Result<String, ProtoError> {
    String::from_utf8(r.bytes_u32()?.to_vec()).map_err(|_| ProtoError::BadString)
}

// ---------------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------------

/// A versioned parameter payload inside a work item. `base_version`
/// names the snapshot the XOR-delta codec used (`None` = self-contained
/// dense/sparse-raw payload).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamsBlob {
    /// Version of the parameters carried.
    pub version: u64,
    /// The delta baseline's version, when XOR-coded.
    pub base_version: Option<u64>,
    /// `codec::encode_tensors` payload.
    pub payload: Vec<u8>,
}

impl ParamsBlob {
    fn write(&self, w: &mut Writer) {
        w.u64(self.version);
        match self.base_version {
            Some(v) => {
                w.u8(1);
                w.u64(v);
            }
            None => w.u8(0),
        }
        w.bytes_u32(&self.payload);
    }

    fn read(c: &mut Reader) -> Result<Self, ProtoError> {
        let version = c.u64()?;
        let base_version = match c.u8()? {
            0 => None,
            1 => Some(c.u64()?),
            k => return Err(ProtoError::BadKind(k)),
        };
        Ok(Self {
            version,
            base_version,
            payload: c.bytes_u32()?.to_vec(),
        })
    }
}

/// What a worker pushes back to the server.
#[derive(Debug, Clone, PartialEq)]
pub enum PushBody {
    /// The gradients of one training-step shard.
    Grads {
        /// Parameter version the gradients were computed against.
        version: u64,
        /// Which shard of the step this is.
        shard: u32,
        /// Total shards in the step (1 in synchronous mode).
        shards: u32,
        /// The step's loss (non-finite reports divergence).
        loss: f32,
        /// RNG state after the step — adopted by the server as the
        /// canonical stream position.
        rng: [u64; 4],
        /// `codec::encode_tensors` payload of every parameter's gradient.
        grads: Vec<u8>,
    },
    /// One evaluated accuracy-matrix cell.
    EvalCell {
        /// The row (just-finished increment).
        task: u32,
        /// The column.
        col: u32,
        /// `A_{task,col}` under the current parameters.
        acc: f32,
    },
}

/// Client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register or re-attach a worker. `token` is a client-generated
    /// session token (nonzero): the first HELLO carrying it claims a
    /// worker slot, and every later HELLO with the same token re-attaches
    /// to that slot — so a lost Welcome can be retried without leaking a
    /// slot (registration is idempotent in the token).
    Hello {
        /// Must equal [`DIST_PROTOCOL_VERSION`].
        proto: u16,
        /// Client-generated session token; must be nonzero.
        token: u64,
    },
    /// Ask for work. `have_version` names the parameter snapshot the
    /// worker still holds (0 = none), enabling delta-coded replies.
    Pull {
        /// The worker's id from its Welcome.
        worker: u32,
        /// Last parameter version fully decoded by this worker.
        have_version: u64,
    },
    /// Deliver a result.
    Push {
        /// The worker's id.
        worker: u32,
        /// The result payload.
        body: PushBody,
    },
    /// Report boundary completion for barrier `gen` and poll for release.
    Barrier {
        /// The worker's id.
        worker: u32,
        /// The barrier generation from the boundary work item.
        gen: u64,
        /// RNG state after running the boundary op.
        rng: [u64; 4],
        /// CRC32 of the method's serialized state after the boundary op.
        state_crc: u32,
        /// CRC32 of the parameter bits after the boundary op — catches
        /// methods that mutate parameters outside training steps, which
        /// the dist layer cannot support.
        params_crc: u32,
    },
    /// Snapshot server counters.
    Stats,
    /// Request an orderly server stop.
    Shutdown,
}

/// One unit of work handed to a worker.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkItem {
    /// Nothing ready; poll again after `poll_ms`.
    Wait {
        /// Suggested client-side delay before the next PULL.
        poll_ms: u64,
    },
    /// Run a task-boundary op (`begin_task` / `end_task`) on the given
    /// parameters and RNG position, then BARRIER with `gen`.
    Boundary {
        /// Increment index.
        task: u32,
        /// `false` = begin_task, `true` = end_task.
        end: bool,
        /// Barrier generation to report completion against.
        gen: u64,
        /// Parameters to install first.
        params: ParamsBlob,
        /// Canonical RNG position to start from.
        rng: [u64; 4],
    },
    /// Compute one training step's gradients and PUSH them back.
    Step {
        /// Increment index.
        task: u32,
        /// Epoch within the increment.
        epoch: u32,
        /// Step within the epoch.
        step: u32,
        /// This worker's shard of the step.
        shard: u32,
        /// Total shards (1 in synchronous mode).
        shards: u32,
        /// Effective learning rate (methods may read it off the
        /// optimizer inside their loss).
        lr: f32,
        /// Row indices of the batch in the increment's train split.
        batch: Vec<u32>,
        /// Parameters to install first.
        params: ParamsBlob,
        /// Canonical RNG position to start from.
        rng: [u64; 4],
    },
    /// Evaluate one accuracy cell and PUSH it back.
    Eval {
        /// The row (just-finished increment).
        task: u32,
        /// The column to evaluate.
        col: u32,
        /// Parameters to install first.
        params: ParamsBlob,
    },
    /// The run is complete; disconnect.
    Done,
}

/// Server counters, readable over STATS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DistStats {
    /// Configured worker count.
    pub workers: u32,
    /// Workers currently registered.
    pub registered: u32,
    /// Current increment (or last, once draining).
    pub task: u32,
    /// Current epoch within the increment.
    pub epoch: u32,
    /// Current parameter version (= optimizer steps applied).
    pub version: u64,
    /// PULL requests served.
    pub pulls: u64,
    /// PUSH requests received.
    pub pushes: u64,
    /// Bytes of parameter payloads sent.
    pub pull_bytes: u64,
    /// Bytes of gradient payloads received.
    pub push_bytes: u64,
    /// Steps applied.
    pub steps: u64,
    /// Work items reissued after a push timeout.
    pub reissues: u64,
    /// Barriers completed.
    pub barriers: u64,
    /// Evaluation cells received.
    pub eval_cells: u64,
}

/// Server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// HELLO accepted.
    Welcome {
        /// The worker's assigned id (stable across reconnects).
        worker: u32,
        /// Total workers the run expects.
        workers: u32,
        /// Server's reissue timeout — a worker should expect its pushes
        /// to be superseded after roughly this long.
        push_timeout_ms: u64,
        /// Density cutoff the worker should use when encoding gradients.
        sparse_threshold: f32,
        /// Suggested polling delay for Wait/Barrier loops.
        poll_ms: u64,
        /// The full run specification (worker builds data/model/method
        /// from this, nothing else).
        spec: DistSpec,
    },
    /// A work item (PULL reply).
    Work(WorkItem),
    /// A push was received; `applied` is false for stale duplicates.
    Ack {
        /// Whether the push changed server state.
        applied: bool,
    },
    /// Barrier poll result.
    Barrier {
        /// True once every worker has arrived and state was verified.
        released: bool,
        /// Suggested delay before re-polling when not released.
        poll_ms: u64,
    },
    /// Counter snapshot (STATS reply).
    Stats(DistStats),
    /// Structured failure.
    Err {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

impl Request {
    /// Serializes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        let mut w = Writer::new(&mut body);
        match self {
            Request::Hello { proto, token } => {
                w.u8(OP_HELLO);
                w.u16(*proto);
                w.u64(*token);
            }
            Request::Pull {
                worker,
                have_version,
            } => {
                w.u8(OP_PULL);
                w.u32(*worker);
                w.u64(*have_version);
            }
            Request::Push { worker, body } => {
                w.u8(OP_PUSH);
                w.u32(*worker);
                match body {
                    PushBody::Grads {
                        version,
                        shard,
                        shards,
                        loss,
                        rng,
                        grads,
                    } => {
                        w.u8(PUSH_GRADS);
                        w.u64(*version);
                        w.u32(*shard);
                        w.u32(*shards);
                        w.f32(*loss);
                        write_rng(&mut w, *rng);
                        w.bytes_u32(grads);
                    }
                    PushBody::EvalCell { task, col, acc } => {
                        w.u8(PUSH_EVAL);
                        w.u32(*task);
                        w.u32(*col);
                        w.f32(*acc);
                    }
                }
            }
            Request::Barrier {
                worker,
                gen,
                rng,
                state_crc,
                params_crc,
            } => {
                w.u8(OP_BARRIER);
                w.u32(*worker);
                w.u64(*gen);
                write_rng(&mut w, *rng);
                w.u32(*state_crc);
                w.u32(*params_crc);
            }
            Request::Stats => w.u8(OP_STATS),
            Request::Shutdown => w.u8(OP_SHUTDOWN),
        }
        seal(body)
    }

    /// Parses a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let body = open(bytes)?;
        let mut c = Reader::new(body);
        let req = match c.u8()? {
            OP_HELLO => Request::Hello {
                proto: c.u16()?,
                token: c.u64()?,
            },
            OP_PULL => Request::Pull {
                worker: c.u32()?,
                have_version: c.u64()?,
            },
            OP_PUSH => {
                let worker = c.u32()?;
                let body = match c.u8()? {
                    PUSH_GRADS => PushBody::Grads {
                        version: c.u64()?,
                        shard: c.u32()?,
                        shards: c.u32()?,
                        loss: c.f32()?,
                        rng: read_rng(&mut c)?,
                        grads: c.bytes_u32()?.to_vec(),
                    },
                    PUSH_EVAL => PushBody::EvalCell {
                        task: c.u32()?,
                        col: c.u32()?,
                        acc: c.f32()?,
                    },
                    k => return Err(ProtoError::BadKind(k)),
                };
                Request::Push { worker, body }
            }
            OP_BARRIER => Request::Barrier {
                worker: c.u32()?,
                gen: c.u64()?,
                rng: read_rng(&mut c)?,
                state_crc: c.u32()?,
                params_crc: c.u32()?,
            },
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            op => return Err(ProtoError::BadOp(op)),
        };
        c.finish()?;
        Ok(req)
    }
}

fn write_item(w: &mut Writer, item: &WorkItem) {
    match item {
        WorkItem::Wait { poll_ms } => {
            w.u8(ITEM_WAIT);
            w.u64(*poll_ms);
        }
        WorkItem::Boundary {
            task,
            end,
            gen,
            params,
            rng,
        } => {
            w.u8(ITEM_BOUNDARY);
            w.u32(*task);
            w.u8(u8::from(*end));
            w.u64(*gen);
            params.write(w);
            write_rng(w, *rng);
        }
        WorkItem::Step {
            task,
            epoch,
            step,
            shard,
            shards,
            lr,
            batch,
            params,
            rng,
        } => {
            w.u8(ITEM_STEP);
            w.u32(*task);
            w.u32(*epoch);
            w.u32(*step);
            w.u32(*shard);
            w.u32(*shards);
            w.f32(*lr);
            w.u32(batch.len() as u32);
            for &i in batch {
                w.u32(i);
            }
            params.write(w);
            write_rng(w, *rng);
        }
        WorkItem::Eval { task, col, params } => {
            w.u8(ITEM_EVAL);
            w.u32(*task);
            w.u32(*col);
            params.write(w);
        }
        WorkItem::Done => w.u8(ITEM_DONE),
    }
}

fn read_item(c: &mut Reader) -> Result<WorkItem, ProtoError> {
    Ok(match c.u8()? {
        ITEM_WAIT => WorkItem::Wait { poll_ms: c.u64()? },
        ITEM_BOUNDARY => WorkItem::Boundary {
            task: c.u32()?,
            end: c.u8()? != 0,
            gen: c.u64()?,
            params: ParamsBlob::read(c)?,
            rng: read_rng(c)?,
        },
        ITEM_STEP => WorkItem::Step {
            task: c.u32()?,
            epoch: c.u32()?,
            step: c.u32()?,
            shard: c.u32()?,
            shards: c.u32()?,
            lr: c.f32()?,
            batch: {
                let n = c.u32()?;
                c.u32s(n.into())?
            },
            params: ParamsBlob::read(c)?,
            rng: read_rng(c)?,
        },
        ITEM_EVAL => WorkItem::Eval {
            task: c.u32()?,
            col: c.u32()?,
            params: ParamsBlob::read(c)?,
        },
        ITEM_DONE => WorkItem::Done,
        k => return Err(ProtoError::BadKind(k)),
    })
}

impl Response {
    /// Serializes to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        let mut w = Writer::new(&mut body);
        match self {
            Response::Welcome {
                worker,
                workers,
                push_timeout_ms,
                sparse_threshold,
                poll_ms,
                spec,
            } => {
                w.u8(KIND_WELCOME);
                w.u32(*worker);
                w.u32(*workers);
                w.u64(*push_timeout_ms);
                w.f32(*sparse_threshold);
                w.u64(*poll_ms);
                spec.write(&mut w);
            }
            Response::Work(item) => {
                w.u8(KIND_WORK);
                write_item(&mut w, item);
            }
            Response::Ack { applied } => {
                w.u8(KIND_ACK);
                w.u8(u8::from(*applied));
            }
            Response::Barrier { released, poll_ms } => {
                w.u8(KIND_BARRIER);
                w.u8(u8::from(*released));
                w.u64(*poll_ms);
            }
            Response::Stats(s) => {
                w.u8(KIND_STATS);
                w.u32(s.workers);
                w.u32(s.registered);
                w.u32(s.task);
                w.u32(s.epoch);
                w.u64(s.version);
                w.u64(s.pulls);
                w.u64(s.pushes);
                w.u64(s.pull_bytes);
                w.u64(s.push_bytes);
                w.u64(s.steps);
                w.u64(s.reissues);
                w.u64(s.barriers);
                w.u64(s.eval_cells);
            }
            Response::Err { code, message } => {
                w.u8(KIND_ERR);
                w.u16(*code);
                w.bytes_u32(message.as_bytes());
            }
        }
        seal(body)
    }

    /// Parses a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        let body = open(bytes)?;
        let mut c = Reader::new(body);
        let resp = match c.u8()? {
            KIND_WELCOME => Response::Welcome {
                worker: c.u32()?,
                workers: c.u32()?,
                push_timeout_ms: c.u64()?,
                sparse_threshold: c.f32()?,
                poll_ms: c.u64()?,
                spec: DistSpec::read(&mut c)?,
            },
            KIND_WORK => Response::Work(read_item(&mut c)?),
            KIND_ACK => Response::Ack {
                applied: c.u8()? != 0,
            },
            KIND_BARRIER => Response::Barrier {
                released: c.u8()? != 0,
                poll_ms: c.u64()?,
            },
            KIND_STATS => Response::Stats(DistStats {
                workers: c.u32()?,
                registered: c.u32()?,
                task: c.u32()?,
                epoch: c.u32()?,
                version: c.u64()?,
                pulls: c.u64()?,
                pushes: c.u64()?,
                pull_bytes: c.u64()?,
                push_bytes: c.u64()?,
                steps: c.u64()?,
                reissues: c.u64()?,
                barriers: c.u64()?,
                eval_cells: c.u64()?,
            }),
            KIND_ERR => Response::Err {
                code: c.u16()?,
                message: read_string(&mut c)?,
            },
            k => return Err(ProtoError::BadKind(k)),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec() -> DistSpec {
        DistSpec::new("test", "edsr", 11, &edsr_cl::TrainConfig::image(), Some(24))
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello {
                proto: DIST_PROTOCOL_VERSION,
                token: 7,
            },
            Request::Pull {
                worker: 2,
                have_version: 17,
            },
            Request::Push {
                worker: 1,
                body: PushBody::Grads {
                    version: 9,
                    shard: 0,
                    shards: 1,
                    loss: 3.25,
                    rng: [1, 2, 3, 4],
                    grads: vec![0xAA; 37],
                },
            },
            Request::Push {
                worker: 0,
                body: PushBody::EvalCell {
                    task: 2,
                    col: 1,
                    acc: 0.875,
                },
            },
            Request::Barrier {
                worker: 3,
                gen: 5,
                rng: [u64::MAX, 0, 7, 8],
                state_crc: 0xDEAD_BEEF,
                params_crc: 0x1234_5678,
            },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        let params = ParamsBlob {
            version: 4,
            base_version: Some(3),
            payload: vec![1, 2, 3],
        };
        vec![
            Response::Welcome {
                worker: 1,
                workers: 3,
                push_timeout_ms: 2000,
                sparse_threshold: 0.25,
                poll_ms: 5,
                spec: spec(),
            },
            Response::Work(WorkItem::Wait { poll_ms: 7 }),
            Response::Work(WorkItem::Boundary {
                task: 1,
                end: true,
                gen: 9,
                params: params.clone(),
                rng: [9, 8, 7, 6],
            }),
            Response::Work(WorkItem::Step {
                task: 0,
                epoch: 2,
                step: 5,
                shard: 0,
                shards: 1,
                lr: 3e-3,
                batch: vec![5, 1, 9, 0],
                params: ParamsBlob {
                    version: 11,
                    base_version: None,
                    payload: vec![],
                },
                rng: [1, 1, 2, 3],
            }),
            Response::Work(WorkItem::Eval {
                task: 2,
                col: 0,
                params,
            }),
            Response::Work(WorkItem::Done),
            Response::Ack { applied: false },
            Response::Barrier {
                released: true,
                poll_ms: 5,
            },
            Response::Stats(DistStats {
                workers: 2,
                steps: 40,
                ..DistStats::default()
            }),
            Response::Err {
                code: ERR_DESYNC,
                message: "rng state mismatch at barrier 3".into(),
            },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in sample_requests() {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in sample_responses() {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn truncations_are_structured_errors() {
        for req in sample_requests() {
            let bytes = req.encode();
            for cut in 0..bytes.len() {
                assert!(Request::decode(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
        for resp in sample_responses() {
            let bytes = resp.encode();
            for cut in 0..bytes.len() {
                assert!(Response::decode(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        // Re-seal a valid body with one extra byte so only the Trailing
        // check can object.
        let sealed = Request::Stats.encode();
        let mut body = sealed[..sealed.len() - 4].to_vec();
        body.push(0);
        assert_eq!(Request::decode(&seal(body)), Err(ProtoError::Trailing(1)));
    }

    #[test]
    fn unknown_ops_rejected() {
        assert_eq!(Request::decode(&seal(vec![99])), Err(ProtoError::BadOp(99)));
        assert_eq!(
            Response::decode(&seal(vec![99])),
            Err(ProtoError::BadKind(99))
        );
    }

    #[test]
    fn corrupted_bytes_fail_the_crc() {
        let good = Request::Pull {
            worker: 1,
            have_version: 3,
        }
        .encode();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            let err = Request::decode(&bad).unwrap_err();
            assert!(
                matches!(err, ProtoError::BadCrc { .. }),
                "flipping byte {i} gave {err:?}, expected a crc failure"
            );
        }
    }

    proptest! {
        #[test]
        fn decoder_never_panics_on_noise(bytes in collection::vec(any::<u8>(), 0..256)) {
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }
    }
}
