//! Chaos suite for the serve layer (DESIGN.md §13): the server must
//! survive torn and corrupt frames at *any* byte boundary, shed load
//! with bounded structured errors instead of hanging, answer every
//! request from exactly one coherent snapshot while rotating under live
//! traffic, resume from the newest *valid* snapshot after a kill, and
//! the client must ride through injected wire faults with its bounded
//! retry loop.
//!
//! Every fault here is deterministic: torn frames are enumerated at
//! every offset, corruption uses `edsr::cl::fault` helpers at fixed
//! offsets, and wire faults come from seeded [`WireFaultPlan`]s — a
//! failure replays exactly.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use edsr::cl::checkpoint::latest_valid_serve_snapshot;
use edsr::cl::fault::{flip_byte, truncate_file};
use edsr::cl::{quantize_serve_snapshot, ContinualModel, ModelConfig, ServeSnapshot};
use edsr::serve::protocol::{ERR_DEADLINE, ERR_OVERLOADED};
use edsr::serve::{
    serve, Client, Engine, Request, RetryPolicy, RotateConfig, ServeError, ServerConfig,
};
use edsr::tensor::rng::seeded;
use edsr::tensor::Matrix;

/// Serializes servers (and their obs emissions) across tests.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

const DIM: usize = 16;
const MEMORY_ROWS: usize = 6;

/// Deterministic model for a given seed (each seed = its own "snapshot
/// generation" with distinct weights, so answers identify their source).
fn model_for(seed: u64) -> ContinualModel {
    let mut rng = seeded(seed);
    ContinualModel::new(&ModelConfig::image(DIM), &mut rng)
}

fn snapshot_for(seed: u64) -> ServeSnapshot {
    let mut rng = seeded(seed);
    let model = ContinualModel::new(&ModelConfig::image(DIM), &mut rng);
    let mem = Matrix::randn(MEMORY_ROWS, DIM, 1.0, &mut rng);
    let reprs = model.represent_eval(&mem, 0);
    let tasks = (0..MEMORY_ROWS as u64).map(|i| i % 2).collect();
    ServeSnapshot::capture(&model, reprs, tasks, "chaos-test", 2).unwrap()
}

fn engine_for(seed: u64) -> Engine {
    Engine::from_snapshot(snapshot_for(seed), 64).unwrap()
}

/// The eval-mode embedding `model` would produce for `input` (the
/// serve path is bit-identical to this by the determinism contract).
fn expected_embedding(model: &ContinualModel, input: &[f32]) -> Vec<f32> {
    let probe = Matrix::from_vec(1, DIM, input.to_vec());
    model.represent_eval(&probe, 0).data().to_vec()
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("edsr-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A complete wire frame (length prefix + payload) for one request.
fn frame_for(req: &Request) -> Vec<u8> {
    let payload = req.encode();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    frame
}

#[test]
fn torn_frames_at_every_byte_offset_never_crash_or_stall_the_server() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ServerConfig {
        // A short stall cap so the keep-open probes below are dropped
        // inside the test budget.
        stall_cap: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let handle = serve(engine_for(11), ("127.0.0.1", 0), cfg).expect("bind");
    let addr = handle.addr();

    let frame = frame_for(&Request::Embed {
        task: 0,
        input: vec![0.5; DIM],
    });

    // Cut the frame at every byte boundary and hang up. The server must
    // treat each as a clean client death: no panic, no wedged worker.
    for cut in 0..frame.len() {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&frame[..cut]).unwrap();
        drop(raw);
    }

    // Keep-open torn frames: write a prefix and then go silent. The
    // stall cap must evict us — either a bare close or one structured
    // error frame followed by a close, never a thread pinned forever
    // by a slow-loris peer.
    for cut in [1usize, 4, frame.len() - 1] {
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.write_all(&frame[..cut]).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let start = Instant::now();
        let mut trailing = Vec::new();
        match raw.read_to_end(&mut trailing) {
            Ok(_) => {}
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ),
                "unexpected read failure: {e}"
            ),
        }
        if !trailing.is_empty() {
            // Whatever came back must be exactly one well-formed error
            // frame — never a partial response or garbage.
            assert!(trailing.len() >= 4, "short trailing bytes: {trailing:?}");
            let len = u32::from_le_bytes(trailing[..4].try_into().unwrap()) as usize;
            assert_eq!(trailing.len(), 4 + len, "exactly one frame then close");
            match edsr::serve::Response::decode(&trailing[4..]) {
                Ok((_, edsr::serve::Response::Error { .. })) => {}
                other => panic!("expected a structured error frame, got {other:?}"),
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stall cap did not evict a silent mid-frame peer in time"
        );
    }

    // After all that, a well-formed request still answers correctly.
    let mut client = Client::connect(addr).expect("connect");
    let emb = client.embed(0, &[0.5; DIM]).expect("server survived");
    assert_eq!(emb, expected_embedding(&model_for(11), &[0.5; DIM]));
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn rotation_under_live_traffic_answers_from_exactly_one_snapshot() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dir("rotate");
    let first = dir.join("chaos.task0001.snapshot");
    snapshot_for(21).save(&first).unwrap();

    let cfg = ServerConfig {
        rotate: Some(RotateConfig {
            dir: dir.clone(),
            poll: Duration::from_millis(5),
            cache_capacity: 64,
            current: Some(first),
            quantize: false,
        }),
        ..ServerConfig::default()
    };
    let handle = serve(engine_for(21), ("127.0.0.1", 0), cfg).expect("bind");
    let addr = handle.addr();

    let input = [0.25f32; DIM];
    let old = expected_embedding(&model_for(21), &input);
    let new = expected_embedding(&model_for(22), &input);
    assert_ne!(old, new, "generations must be distinguishable");

    // Hammer the server while the second generation lands. Every answer
    // must be bit-identical to exactly one generation — never a blend.
    let mut client = Client::connect(addr).expect("connect");
    let mut saw_old = 0u64;
    let mut saw_new = 0u64;
    let mut exported = false;
    let deadline = Instant::now() + Duration::from_secs(10);
    while saw_new < 5 && Instant::now() < deadline {
        let emb = client.embed(0, &input).expect("embed under rotation");
        if emb == old {
            saw_old += 1;
        } else if emb == new {
            saw_new += 1;
        } else {
            panic!("answer matches neither snapshot generation");
        }
        if !exported && saw_old >= 3 {
            // Export generation 2 mid-traffic, exactly as `edsr run
            // --serve-snapshot` would: write + fsync + atomic rename.
            snapshot_for(22)
                .save(dir.join("chaos.task0002.snapshot"))
                .unwrap();
            exported = true;
        }
    }
    assert!(saw_old >= 3, "expected some pre-rotation answers");
    assert!(saw_new >= 5, "rotation to the new snapshot never happened");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.rotations, 1);
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_with_bounded_structured_errors_not_hangs() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let clients = 4usize;
    let cfg = ServerConfig {
        queue_cap: 1,
        max_batch: 8,
        deadline: Some(Duration::from_millis(1500)),
        max_connections: clients + 1,
        ..ServerConfig::default()
    };
    let handle = serve(engine_for(31), ("127.0.0.1", 0), cfg).expect("bind");
    let addr = handle.addr();

    // The test thread joins the barrier once it holds the engine.
    let barrier = Arc::new(Barrier::new(clients + 1));
    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let (barrier, ok, shed) = (barrier.clone(), ok.clone(), shed.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                let start = Instant::now();
                match client.embed(0, &[0.125; DIM]) {
                    Ok(emb) => {
                        assert_eq!(emb, expected_embedding(&model_for(31), &[0.125; DIM]));
                        ok.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(ServeError::Rejected {
                        code,
                        retry_after_ms,
                        ..
                    }) => {
                        assert!(
                            code == ERR_OVERLOADED || code == ERR_DEADLINE,
                            "unexpected rejection code {code}"
                        );
                        if code == ERR_OVERLOADED {
                            assert!(retry_after_ms >= 1, "overload must carry a retry hint");
                        }
                        shed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(other) => panic!("unexpected failure mode: {other}"),
                }
                // Bounded: shed answers come back well before
                // deadline + grace, never as a hang.
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "request neither answered nor shed in bounded time"
                );
            })
        })
        .collect();
    // One queue slot behind a flush stalled on the held engine: at most
    // two requests are accepted (one in that flush, one queued), so
    // everyone else must be shed immediately.
    handle.with_engine(|_| {
        barrier.wait();
        let give_up = Instant::now() + Duration::from_secs(10);
        while shed.load(Ordering::SeqCst) < clients as u64 - 2 {
            assert!(Instant::now() < give_up, "burst was never shed");
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    for w in workers {
        w.join().expect("worker");
    }
    let (ok, shed) = (ok.load(Ordering::SeqCst), shed.load(Ordering::SeqCst));
    assert_eq!(ok + shed, clients as u64);
    assert!(ok >= 1, "the queued request must still be answered");
    assert!(
        shed >= 1,
        "a 1-slot queue under a {clients}-way burst must shed"
    );

    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.rejected_deadline + stats.rejected_overload, shed);
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    assert_eq!(report.rejected_overload + report.rejected_deadline, shed);
}

#[test]
fn restart_resumes_from_newest_valid_snapshot_with_zero_accepted_loss() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dir("restart");
    let input = [0.75f32; DIM];

    // Generation 1 serves, answers, and is shut down ("killed" after a
    // clean drain — the drain guarantee is what zero-loss means here:
    // every request the server accepted was answered before exit).
    snapshot_for(41)
        .save(dir.join("chaos.task0001.snapshot"))
        .unwrap();
    let (path, snap) = latest_valid_serve_snapshot(&dir)
        .expect("no unreadable candidates")
        .expect("gen 1 visible");
    assert!(path.ends_with("chaos.task0001.snapshot"));
    let handle = serve(
        Engine::from_any(snap, 64).unwrap(),
        ("127.0.0.1", 0),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut answered = 0u64;
    for _ in 0..3 {
        let emb = client.embed(0, &input).expect("gen 1 embed");
        assert_eq!(emb, expected_embedding(&model_for(41), &input));
        answered += 1;
    }
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    assert_eq!(
        report.requests,
        answered + 1, // + the shutdown request itself
        "every accepted request must be answered before exit"
    );

    // While "down", a newer generation lands — and then gets mangled
    // two different ways: a bit flip and a truncation. Two decoys also
    // sort *newer* than the good file.
    snapshot_for(42)
        .save(dir.join("chaos.task0002.snapshot"))
        .unwrap();
    let corrupt = dir.join("chaos.task0003.snapshot");
    snapshot_for(43).save(&corrupt).unwrap();
    let len = std::fs::metadata(&corrupt).unwrap().len() as usize;
    flip_byte(&corrupt, len / 2, 0xFF).unwrap();
    let truncated = dir.join("chaos.task0004.snapshot");
    snapshot_for(44).save(&truncated).unwrap();
    truncate_file(&truncated, len / 3).unwrap();

    // Restart: the scan must skip both decoys and resume from gen 2.
    let (path, snap) = latest_valid_serve_snapshot(&dir)
        .expect("no unreadable candidates")
        .expect("a valid snapshot survives");
    assert!(
        path.ends_with("chaos.task0002.snapshot"),
        "restart must pick the newest VALID snapshot, got {}",
        path.display()
    );
    let handle = serve(
        Engine::from_any(snap, 64).unwrap(),
        ("127.0.0.1", 0),
        ServerConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let emb = client.embed(0, &input).expect("gen 2 embed");
    assert_eq!(emb, expected_embedding(&model_for(42), &input));
    client.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    assert_eq!(report.requests, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unreadable_decoy_aborts_the_scan_naming_the_offending_file() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dir("unreadable");
    snapshot_for(61)
        .save(dir.join("chaos.task0001.snapshot"))
        .unwrap();

    // A candidate that cannot even be *read*, as opposed to the corrupt
    // decoys in the restart test (which read fine, fail validation, and
    // are skipped). chmod 000 is no barrier under root, so the decoy is
    // a directory wearing a snapshot name: opening it for read fails
    // with EISDIR, a genuine I/O error. It sorts newer than the valid
    // file, exactly the case that must NOT silently fall back to stale
    // data.
    let decoy = dir.join("zzz.task9999.snapshot");
    std::fs::create_dir_all(&decoy).unwrap();
    let err = latest_valid_serve_snapshot(&dir)
        .expect_err("an unreadable candidate must abort the scan, not be skipped");
    assert_eq!(err.path, decoy, "error must name the offending candidate");
    assert!(
        err.to_string().contains("zzz.task9999.snapshot"),
        "operator-facing message must carry the path, got: {err}"
    );

    // Fixing the decoy restores the normal newest-valid scan.
    std::fs::remove_dir(&decoy).unwrap();
    let (path, snap) = latest_valid_serve_snapshot(&dir)
        .expect("scan readable again")
        .expect("valid snapshot visible");
    assert!(path.ends_with("chaos.task0001.snapshot"));
    drop(Engine::from_any(snap, 64).expect("snapshot serves"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_hot_swaps_v1_to_v2_quantized_under_live_traffic() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = fresh_dir("rotate-quant");
    let first = dir.join("chaos.task0001.snapshot");
    snapshot_for(71).save(&first).unwrap();

    let cfg = ServerConfig {
        rotate: Some(RotateConfig {
            dir: dir.clone(),
            poll: Duration::from_millis(5),
            cache_capacity: 64,
            current: Some(first),
            quantize: false,
        }),
        ..ServerConfig::default()
    };
    let handle = serve(engine_for(71), ("127.0.0.1", 0), cfg).expect("bind");
    let addr = handle.addr();
    let input = [0.25f32; DIM];
    let old = expected_embedding(&model_for(71), &input);

    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(
        client.stats().expect("stats").quantized,
        0,
        "generation 1 serves on the f32 backend"
    );
    assert_eq!(client.embed(0, &input).expect("gen 1 embed"), old);

    // Generation 2 lands as a v2 quantized export — the same file `edsr
    // run --serve-snapshot --quantize` writes — into the same rotation
    // namespace the v1 file lives in. Its expected answer comes from an
    // in-process quantized engine: the int8 path is bit-deterministic,
    // so the served embedding must match it exactly.
    let quant = quantize_serve_snapshot(&snapshot_for(72)).expect("quantize gen 2");
    let mut reference = Engine::from_quant_snapshot(quant.clone(), 64).expect("reference engine");
    let mut new = Vec::new();
    reference
        .embed_into(0, &input, &mut new)
        .expect("reference embed");
    assert_ne!(old, new, "generations must be distinguishable");
    quant.save(dir.join("chaos.task0002.snapshot")).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut swapped = false;
    while Instant::now() < deadline {
        let emb = client.embed(0, &input).expect("embed under rotation");
        if emb == new {
            swapped = true;
            break;
        }
        assert_eq!(emb, old, "answer matches neither snapshot generation");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(swapped, "rotation to the v2 snapshot never happened");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.rotations, 1);
    assert_eq!(
        stats.quantized, 1,
        "post-rotation engine must answer on the int8 backend"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_rides_through_injected_wire_faults_with_bounded_retries() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Faults on BOTH ends: the server wraps every accepted stream in a
    // seeded plan, and the client wraps every connection in its own.
    let cfg = ServerConfig {
        fault_seed: Some(7),
        ..ServerConfig::default()
    };
    let handle = serve(engine_for(51), ("127.0.0.1", 0), cfg).expect("bind");
    let addr = handle.addr();

    let policy = RetryPolicy {
        max_retries: 10,
        backoff: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(40),
        jitter_seed: 0xC0FFEE,
        // A corrupted request frame comes back as a server-side
        // rejection; embeds are idempotent, so just resend.
        retry_rejections: true,
    };
    let mut client = Client::connect_chaos(addr, policy, 900).expect("connect");
    for round in 0..12u32 {
        let input = vec![round as f32 * 0.1; DIM];
        let emb = client.embed(0, &input).expect("embed through chaos");
        // Response frames can be corrupted in flight (no payload
        // checksum on the wire), so assert shape, not bits.
        assert_eq!(emb.len(), engine_for(51).repr_dim());
    }
    assert!(
        client.retries() > 0,
        "the seeded fault plans should have forced at least one retry"
    );

    // Even a fault-free client talks through the server's fault-wrapped
    // stream here, so the shutdown ack itself can be lost. Shutdown is
    // deliberately non-retryable in the client (a lost ack may still
    // have flipped the drain flag); model the operator instead: retry
    // on fresh connections until one ack lands or connects are refused.
    drop(client);
    let mut acked = false;
    for _ in 0..50 {
        match Client::connect_with(addr, RetryPolicy::retries(5)) {
            Err(_) => break, // listener gone: drain already started
            Ok(mut c) => {
                if c.shutdown().is_ok() {
                    acked = true;
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = handle.join().expect("join");
    assert!(
        acked || report.requests > 0,
        "server neither acknowledged shutdown nor drained"
    );
}
