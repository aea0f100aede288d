//! End-to-end tests for the `edsr-serve` inference server (DESIGN.md
//! §12): multi-client responses are bit-identical to direct in-process
//! eval-mode forwards and `KnnQuery` scans, the micro-batcher observably
//! coalesces concurrent requests (obs counters), malformed wire traffic
//! gets structured errors without killing the server, and a graceful
//! shutdown answers every accepted request.
//!
//! The observability sink is process-global, so every test here
//! serializes on one mutex (the servers themselves emit spans/counters).

use std::sync::Mutex;
use std::time::Duration;

use edsr::cl::{ContinualModel, ModelConfig, ServeSnapshot};
use edsr::linalg::{KnnQuery, Metric};
use edsr::obs::EventKind;
use edsr::serve::{serve, Client, Engine, Request, Response, ServeError, ServerConfig, WireMetric};
use edsr::tensor::rng::seeded;
use edsr::tensor::Matrix;

/// Serializes servers and obs-sink installs across tests.
static SERVE_LOCK: Mutex<()> = Mutex::new(());

const DIM: usize = 16;
const MEMORY_ROWS: usize = 10;

/// Deterministic snapshot: seeded model + 10 replay representations.
fn snapshot() -> ServeSnapshot {
    let mut rng = seeded(41);
    let model = ContinualModel::new(&ModelConfig::image(DIM), &mut rng);
    let mem = Matrix::randn(MEMORY_ROWS, DIM, 1.0, &mut rng);
    let reprs = model.represent_eval(&mem, 0);
    let tasks = (0..MEMORY_ROWS as u64).map(|i| i % 3).collect();
    ServeSnapshot::capture(&model, reprs, tasks, "serve-test", 3).unwrap()
}

fn engine() -> Engine {
    Engine::from_snapshot(snapshot(), 64).unwrap()
}

#[test]
fn multi_client_responses_match_in_process_forward_and_knn() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ServerConfig {
        max_batch: 4,
        max_connections: 8,
        ..ServerConfig::default()
    };
    let handle = serve(engine(), ("127.0.0.1", 0), cfg).expect("bind");
    let addr = handle.addr();

    let clients = 4usize;
    let per_client = 12usize;
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let inputs = Matrix::randn(per_client, DIM, 1.0, &mut seeded(500 + c as u64));
                let mut results = Vec::new();
                for i in 0..per_client {
                    let emb = client.embed(0, inputs.row(i)).expect("embed");
                    let neighbors = client.knn(&emb, 3, WireMetric::Cosine).expect("knn");
                    results.push((inputs.row(i).to_vec(), emb, neighbors));
                }
                results
            })
        })
        .collect();
    let all: Vec<_> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();

    // Graceful shutdown: every accepted request must have been answered.
    let mut closer = Client::connect(addr).expect("connect closer");
    closer.shutdown().expect("shutdown ack");
    let report = handle.join().expect("join");
    let expected_requests = (clients * per_client * 2 + 1) as u64;
    assert_eq!(
        report.requests, expected_requests,
        "graceful drain lost accepted requests"
    );
    assert_eq!(report.batched_requests, (clients * per_client) as u64);

    // Bit-identity against the direct in-process eval forward and a
    // direct KnnQuery over the snapshot's stored representations.
    let reference = snapshot();
    let model = reference.restore_model().expect("restore");
    let memory = reference.memory_reprs;
    for (input, served_emb, served_neighbors) in &all {
        let x = Matrix::from_vec(1, DIM, input.clone());
        let direct = model.represent_eval(&x, 0);
        assert_eq!(
            direct
                .row(0)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            served_emb.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "served embedding diverged from in-process forward"
        );
        let direct_knn = KnnQuery::new(&memory, 3)
            .metric(Metric::Cosine)
            .search(served_emb);
        assert_eq!(served_neighbors.len(), direct_knn.len());
        for (got, want) in served_neighbors.iter().zip(&direct_knn) {
            assert_eq!(got.index, want.index as u64);
            assert_eq!(got.score.to_bits(), want.score.to_bits());
        }
    }
}

#[test]
fn concurrent_clients_coalesce_and_obs_counters_prove_it() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ring = edsr::obs::RingSink::with_capacity(edsr::obs::DEFAULT_RING_CAPACITY);
    edsr::obs::install(Box::new(ring.clone()));

    let n = 3usize;
    let cfg = ServerConfig {
        max_batch: n,
        max_connections: n + 2,
        ..ServerConfig::default()
    };
    let handle = serve(engine(), ("127.0.0.1", 0), cfg).expect("bind");
    let addr = handle.addr();
    let embed_over_tcp = move |c: usize| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let input: Vec<f32> = (0..DIM).map(|i| (i + c) as f32 * 0.05).collect();
            client.embed(0, &input).expect("embed")
        })
    };
    let wait_for = |kind: EventKind, name: &str, count: usize| {
        let give_up = std::time::Instant::now() + Duration::from_secs(10);
        let seen = || {
            ring.events()
                .iter()
                .filter(|e| e.kind == kind && e.name == name)
                .count()
        };
        while seen() < count {
            assert!(std::time::Instant::now() < give_up, "no {count} x {name}");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    // Holding the engine stalls the first flush; the n requests sent
    // meanwhile pile up in the queue and the next flush answers all of
    // them with one batched forward.
    let workers = handle.with_engine(|_| {
        let mut workers = vec![embed_over_tcp(0)];
        wait_for(EventKind::Counter, "serve/batches", 1);
        workers.extend((1..=n).map(embed_over_tcp));
        // A handler opens its request span just before it submits.
        wait_for(EventKind::SpanEnter, "serve/request", n + 1);
        std::thread::sleep(Duration::from_millis(50));
        workers
    });
    for w in workers {
        assert_eq!(w.join().expect("client").len(), engine().repr_dim());
    }
    let mut closer = Client::connect(addr).expect("connect");
    closer.shutdown().expect("shutdown");
    let report = handle.join().expect("join");
    edsr::obs::uninstall();

    assert_eq!(report.batches, 2, "queued requests split across flushes");
    assert_eq!(report.max_batch, n as u64, "batch did not coalesce");

    // The same story must be visible from the outside via obs counters.
    let events = ring.events();
    let batches: f64 = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name == "serve/batches")
        .map(|e| e.value)
        .sum();
    let batched: f64 = events
        .iter()
        .filter(|e| e.kind == EventKind::Counter && e.name == "serve/batched_requests")
        .map(|e| e.value)
        .sum();
    let sizes: Vec<f64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Histogram && e.name == "serve/batch_size")
        .map(|e| e.value)
        .collect();
    assert_eq!(batches, 2.0);
    assert_eq!(batched, (n + 1) as f64);
    assert_eq!(sizes, vec![1.0, n as f64]);
    // Per-request latency histograms cover every answered request.
    let latencies = events
        .iter()
        .filter(|e| e.kind == EventKind::Histogram && e.name == "serve/latency_us")
        .count();
    assert_eq!(latencies as u64, report.requests);
}

#[test]
fn malformed_traffic_gets_structured_errors_and_server_survives() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let handle = serve(engine(), ("127.0.0.1", 0), ServerConfig::default()).expect("bind");
    let addr = handle.addr();

    // A frame whose payload is garbage: the server answers with a
    // structured bad-request error on the same connection.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        let junk = [0xFFu8, 0xAB, 0xCD];
        raw.write_all(&(junk.len() as u32).to_le_bytes()).unwrap();
        raw.write_all(&junk).unwrap();
        let mut len = [0u8; 4];
        raw.read_exact(&mut len).expect("error response length");
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        raw.read_exact(&mut payload).expect("error response body");
        match Response::decode(&payload) {
            Ok((_, Response::Error { code, message, .. })) => {
                assert_eq!(code, edsr::serve::protocol::ERR_BAD_REQUEST);
                assert!(!message.is_empty());
            }
            other => panic!("expected structured error, got {other:?}"),
        }
    }

    // An oversized length prefix: structured error, connection closed,
    // server still alive.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut len = [0u8; 4];
        raw.read_exact(&mut len).expect("error response length");
        let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
        raw.read_exact(&mut payload).expect("error response body");
        assert!(matches!(
            Response::decode(&payload),
            Ok((_, Response::Error { .. }))
        ));
    }

    // The engine's own validation also arrives as a structured error.
    let mut client = Client::connect(addr).expect("connect");
    match client.embed(0, &[1.0; 3]) {
        Err(ServeError::Rejected { message, .. }) => {
            assert!(message.contains("expects 16"), "got: {message}")
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    match client.knn(&[0.0; 4], 3, WireMetric::Euclidean) {
        Err(ServeError::Rejected { message, .. }) => {
            assert!(message.contains("dims"), "got: {message}")
        }
        other => panic!("expected rejection, got {other:?}"),
    }

    // After all that abuse a well-formed request still answers.
    let emb = client.embed(0, &[0.25; DIM]).expect("server survived");
    assert_eq!(emb.len(), 48);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.memory_rows, MEMORY_ROWS as u64);
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn requests_after_shutdown_are_rejected_with_shutting_down() {
    let _guard = SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let handle = serve(engine(), ("127.0.0.1", 0), ServerConfig::default()).expect("bind");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    let emb = client.embed(0, &[0.5; DIM]).expect("pre-shutdown embed");
    client.shutdown().expect("ack");
    // The same (already accepted) connection keeps draining: a request
    // that arrives after the flag flips gets a structured shutdown
    // rejection or a closed connection, never a hang or a panic.
    match client.embed(0, &[0.7; DIM]) {
        Ok(e) => assert_eq!(e.len(), emb.len()),
        Err(ServeError::Rejected { .. } | ServeError::ServerClosed | ServeError::Io(_)) => {}
        Err(other) => panic!("unexpected failure mode: {other}"),
    }
    drop(client);
    let report = handle.join().expect("join");
    assert!(report.requests >= 2);
}

#[test]
fn wire_protocol_is_usable_without_the_client_helper() {
    // Sanity-check the raw request/response types exported for external
    // callers (no server needed).
    let req = Request::Embed {
        task: 2,
        input: vec![1.5, -0.25],
    };
    let bytes = req.encode();
    assert_eq!(Request::decode(&bytes).unwrap(), req);
    let resp = Response::Neighbors(vec![]);
    let mut buf = Vec::new();
    resp.encode_into(2, &mut buf);
    assert!(matches!(
        Response::decode(&buf),
        Ok((2, Response::Neighbors(v))) if v.is_empty()
    ));
}
