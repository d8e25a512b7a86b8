//! Clean-network transport tests: the wire path must be a *bitwise*
//! window onto the in-process serving API, and every refusal (overload,
//! drain, malformed input, desync) must be typed and connection-safe.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adapt_pnc::models::PrintedModel;
use adapt_pnc::persist;
use ptnc_serve::{BatchConfig, ModelRegistry, ReloadPolicy, Server};
use ptnc_tensor::init;
use ptnc_wire::{
    frame, Endpoint, ErrorCode, Request, Response, WireClient, WireClientConfig, WireError,
    WireServer, WireServerConfig,
};

const DIM: usize = 2;

fn model_json(seed: u64) -> String {
    let m = PrintedModel::adapt_pnc(DIM, 4, 3, &mut init::rng(seed));
    persist::to_json(&m)
}

fn scratch_file(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ptnc-wire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{test}.json"))
}

fn write_snapshot(path: &Path, json: &str) {
    persist::write_atomic(path, json.as_bytes()).unwrap();
}

fn steps(t: usize, phase: f64) -> Vec<f64> {
    (0..t * DIM)
        .map(|i| (i as f64 * 0.31 + phase).sin())
        .collect()
}

fn start_server(test: &str, cfg: BatchConfig) -> Arc<Server> {
    let path = scratch_file(test);
    write_snapshot(&path, &model_json(11));
    Arc::new(Server::start(Arc::new(ModelRegistry::open(&path).unwrap()), cfg).unwrap())
}

fn quick_client(endpoint: &Endpoint) -> WireClient {
    WireClient::new(
        endpoint.clone(),
        WireClientConfig {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(5),
            max_retries: 0,
            ..WireClientConfig::default()
        },
    )
}

/// Raw-socket helper: one framed request/response exchange outside the
/// client's error handling, for protocol-violation tests.
fn raw_exchange(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<(u8, u64, Vec<u8>)> {
    stream.write_all(bytes)?;
    let mut header = [0u8; frame::HEADER_LEN];
    stream.read_exact(&mut header)?;
    let h = frame::decode_header(&header, 1 << 22).expect("server sent a valid header");
    let mut payload = vec![0u8; h.payload_len as usize];
    stream.read_exact(&mut payload)?;
    frame::check_payload(&h, &payload).expect("server sent a valid CRC");
    Ok((h.frame_type as u8, h.request_id, payload))
}

fn encode_request(req: &Request, id: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    req.encode(&mut payload).unwrap();
    let mut out = Vec::new();
    frame::encode_frame(&mut out, req.frame_type(), id, &payload);
    out
}

#[test]
fn tcp_submit_is_bitwise_equal_to_in_process() {
    let server = start_server("tcp-parity", BatchConfig::default());
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig::default(),
    )
    .unwrap();
    let mut client = quick_client(wire.endpoint());
    for i in 0..8 {
        let window = steps(5 + i, i as f64 * 0.7);
        let over_wire = client.submit("tenant-a", &window).unwrap();
        let in_process = server.infer("tenant-a", &window).unwrap();
        assert_eq!(
            over_wire
                .logits
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            in_process.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "wire answer diverged from in-process answer on window {i}"
        );
    }
    let stats = wire.stats();
    assert_eq!(stats.requests_ok, 8);
    assert_eq!(stats.crc_rejected, 0);
    assert_eq!(stats.protocol_errors, 0);
    wire.shutdown();
}

#[test]
fn unix_socket_submit_is_bitwise_equal_to_in_process() {
    let server = start_server("unix-parity", BatchConfig::default());
    let sock = std::env::temp_dir().join(format!("ptnc-wire-{}.sock", std::process::id()));
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Unix(sock.clone()),
        WireServerConfig::default(),
    )
    .unwrap();
    let mut client = quick_client(wire.endpoint());
    let window = steps(9, 0.4);
    let over_wire = client.submit("tenant-u", &window).unwrap();
    let in_process = server.infer("tenant-u", &window).unwrap();
    assert_eq!(
        over_wire
            .logits
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        in_process.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    wire.shutdown();
    let _ = std::fs::remove_file(&sock);
}

#[test]
fn wire_sessions_match_in_process_sessions_chunk_for_chunk() {
    let server = start_server("session-parity", BatchConfig::default());
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig::default(),
    )
    .unwrap();
    let mut client = quick_client(wire.endpoint());

    let handle = client.open_session("stream", ReloadPolicy::PinOld).unwrap();
    let oracle = server.open_session("stream", ReloadPolicy::PinOld).unwrap();
    for i in 0..6 {
        let chunk = steps(3 + i % 2, i as f64);
        let over_wire = client.submit_chunk(handle, &chunk).unwrap();
        let in_process = server.submit_chunk(oracle, &chunk).unwrap().wait().unwrap();
        assert_eq!(
            over_wire
                .logits
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            in_process.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "session chunk {i} diverged"
        );
    }
    assert!(client.close_session(handle).unwrap());
    assert!(server.close_session(oracle));
    wire.shutdown();
}

#[test]
fn admission_gate_sheds_with_typed_overloaded_frame() {
    let server = start_server("overload", BatchConfig::default());
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig {
            max_connections: 0,
            ..WireServerConfig::default()
        },
    )
    .unwrap();
    let mut client = quick_client(wire.endpoint());
    match client.submit("t", &steps(4, 0.0)) {
        Err(WireError::Overloaded { active, capacity }) => {
            assert_eq!(capacity, 0);
            assert_eq!(active, 0);
        }
        other => panic!("expected a typed Overloaded shed, got {other:?}"),
    }
    // The gate must shed *before* a handler exists: no connection ever
    // became live, and the shed is counted.
    assert_eq!(wire.live_connections(), 0);
    assert!(wire.stats().connections_shed >= 1);
    assert_eq!(wire.stats().connections_accepted, 0);
    wire.shutdown();
}

#[test]
fn drain_finishes_inflight_work_and_says_going_away() {
    let server = start_server(
        "drain",
        BatchConfig {
            // The worker stays cold (no batch timed yet), so it holds the
            // lone in-flight request for the whole window: long enough for
            // the drain to land mid-request.
            batch_window: Duration::from_millis(40),
            max_batch: 4,
            ..BatchConfig::default()
        },
    );
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig::default(),
    )
    .unwrap();
    let endpoint = wire.endpoint().clone();
    let window = steps(6, 0.2);
    // The oracle runs outside the server: a served batch would warm the
    // worker, which then holds a lone request only for a fraction of one
    // forward's time.
    let oracle = server.registry().current().run_batch(&window, 1).unwrap();

    let inflight = {
        let window = window.clone();
        std::thread::spawn(move || {
            let mut client = quick_client(&endpoint);
            client.submit("t", &window)
        })
    };
    // Start draining once the server has read the request frame, so the
    // drain lands while the request is in flight (still inside the batch
    // window unless the host stalls for 40 ms). A fixed sleep raced the
    // accept loop's 10 ms poll: a drain before the accept reset the
    // connection instead.
    let read_by = Instant::now() + Duration::from_secs(5);
    while wire.stats().frames_read == 0 {
        assert!(
            Instant::now() < read_by,
            "request frame never reached the server"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    wire.begin_shutdown();
    let completed = inflight
        .join()
        .unwrap()
        .expect("in-flight request must complete across a drain");
    assert_eq!(
        completed
            .logits
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        oracle.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    wire.shutdown();
    // The handler owed the (still-connected) peer a farewell.
    // (The client thread may have exited first; the send is best-effort
    // but on loopback with an open socket it lands.)
    assert!(server.queue_depth() == 0);
}

#[test]
fn malformed_payload_is_answered_in_band_and_the_connection_survives() {
    let server = start_server("malformed", BatchConfig::default());
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig::default(),
    )
    .unwrap();
    let Endpoint::Tcp(addr) = wire.endpoint().clone() else {
        unreachable!()
    };
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // A perfectly framed Submit whose payload is garbage: CRC passes,
    // decoding fails → typed Error frame, same request id, stream lives.
    let mut bytes = Vec::new();
    frame::encode_frame(
        &mut bytes,
        ptnc_wire::FrameType::Submit,
        7,
        &[0xFF, 0xFF, 0xFF],
    );
    let (ftype, id, payload) = raw_exchange(&mut raw, &bytes).unwrap();
    assert_eq!(ftype, ptnc_wire::FrameType::Error as u8);
    assert_eq!(id, 7);
    match Response::decode(ptnc_wire::FrameType::Error, &payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected an Error response, got {other:?}"),
    }

    // The same connection still serves valid requests afterwards.
    let ping = encode_request(&Request::Ping, 8);
    let (ftype, id, _) = raw_exchange(&mut raw, &ping).unwrap();
    assert_eq!(ftype, ptnc_wire::FrameType::Pong as u8);
    assert_eq!(id, 8);
    assert!(wire.stats().protocol_errors >= 1);
    wire.shutdown();
}

#[test]
fn torn_frames_never_decode_the_connection_closes() {
    let server = start_server("crc-close", BatchConfig::default());
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig::default(),
    )
    .unwrap();
    let Endpoint::Tcp(addr) = wire.endpoint().clone() else {
        unreachable!()
    };

    // Corrupt one payload byte after framing: the CRC must reject it and
    // the server must close (stream position is meaningless after).
    let mut bytes = encode_request(
        &Request::Submit {
            tenant: "t".into(),
            steps: steps(4, 0.0),
        },
        3,
    );
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&bytes).unwrap();
    let mut buf = [0u8; 1];
    let n = raw.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server must close after a CRC mismatch, not answer");

    // Bad magic likewise closes, on the protocol-error counter.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&[0u8; frame::HEADER_LEN]).unwrap();
    let n = raw.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "server must close on a bad magic");

    let stats = wire.stats();
    assert!(stats.crc_rejected >= 1, "CRC rejection must be counted");
    assert!(
        stats.protocol_errors >= 1,
        "framing violation must be counted"
    );
    wire.shutdown();
}

#[test]
fn sessions_are_connection_scoped_no_cross_connection_access() {
    let server = start_server("hijack", BatchConfig::default());
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig::default(),
    )
    .unwrap();
    let Endpoint::Tcp(addr) = wire.endpoint().clone() else {
        unreachable!()
    };

    // Connection A opens a session.
    let mut a = TcpStream::connect(addr).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let open = encode_request(
        &Request::OpenSession {
            tenant: "a".into(),
            policy: ReloadPolicy::PinOld,
        },
        1,
    );
    let (_, _, payload) = raw_exchange(&mut a, &open).unwrap();
    let Response::SessionOpened { session } =
        Response::decode(ptnc_wire::FrameType::SessionOpened, &payload).unwrap()
    else {
        panic!("expected SessionOpened");
    };

    // Connection B tries to drive A's session by its id.
    let mut b = TcpStream::connect(addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let stolen = encode_request(
        &Request::SubmitChunk {
            session,
            steps: steps(3, 0.0),
        },
        2,
    );
    let (ftype, _, payload) = raw_exchange(&mut b, &stolen).unwrap();
    assert_eq!(ftype, ptnc_wire::FrameType::Error as u8);
    match Response::decode(ptnc_wire::FrameType::Error, &payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }

    // A's own chunk still works: the session was not disturbed.
    let own = encode_request(
        &Request::SubmitChunk {
            session,
            steps: steps(3, 0.0),
        },
        3,
    );
    let (ftype, _, _) = raw_exchange(&mut a, &own).unwrap();
    assert_eq!(ftype, ptnc_wire::FrameType::Logits as u8);

    // Closing A's connection reaps its session server-side.
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.open_sessions() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "a dead connection's sessions must be closed with it"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    wire.shutdown();
}

#[test]
fn scheduler_errors_arrive_as_typed_wire_errors() {
    let server = start_server(
        "typed-errors",
        BatchConfig {
            max_steps: 8,
            ..BatchConfig::default()
        },
    );
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig::default(),
    )
    .unwrap();
    let mut client = quick_client(wire.endpoint());

    // Wrong step width → BadRequest.
    match client.submit("t", &[0.5; 3]) {
        Err(WireError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    // Too long → TooManySteps.
    match client.submit("t", &steps(9, 0.0)) {
        Err(WireError::Server { code, .. }) => assert_eq!(code, ErrorCode::TooManySteps),
        other => panic!("expected TooManySteps, got {other:?}"),
    }
    // Both were accounted to the connection's stats row beside tenants.
    let rejected: u64 = server
        .stats()
        .snapshots()
        .iter()
        .filter(|s| s.tenant.starts_with("conn-"))
        .map(|s| s.rejected)
        .sum();
    assert_eq!(rejected, 2);
    wire.shutdown();
}

#[test]
fn per_connection_counters_record_latency_and_guard_health() {
    let server = start_server("conn-stats", BatchConfig::default());
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig::default(),
    )
    .unwrap();
    let mut client = quick_client(wire.endpoint());
    for i in 0..4 {
        client.submit("t", &steps(4, i as f64)).unwrap();
    }
    let snaps = server.stats().snapshots();
    let conn = snaps
        .iter()
        .find(|s| s.tenant.starts_with("conn-"))
        .expect("the connection must have its own stats row");
    assert_eq!(conn.requests, 4);
    assert_eq!(conn.timesteps, 16);
    assert!(conn.p99_micros > 0, "latency histogram must be fed");
    // The tenant row counts the same four requests (scheduler side).
    let tenant = snaps.iter().find(|s| s.tenant == "t").unwrap();
    assert_eq!(tenant.requests, 4);
    wire.shutdown();
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `Duration::MAX` is a valid "no deadline" setting, not an `Instant`
/// overflow: the client's request deadline is computed with
/// `checked_add`, `None` meaning untimed.
#[test]
fn an_unbounded_request_timeout_completes_a_round_trip() {
    let server = start_server("unbounded-request", BatchConfig::default());
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig::default(),
    )
    .unwrap();
    let mut client = WireClient::new(
        wire.endpoint().clone(),
        WireClientConfig {
            request_timeout: Duration::MAX,
            max_retries: 0,
            ..WireClientConfig::default()
        },
    );
    let window = steps(7, 0.3);
    let over_wire = client.submit("t", &window).unwrap();
    let in_process = server.infer("t", &window).unwrap();
    assert_eq!(bits(&over_wire.logits), bits(&in_process));
    wire.shutdown();
}

/// An unbounded breaker cooldown keeps a tripped breaker open instead of
/// overflowing when it trips.
#[test]
fn an_unbounded_breaker_cooldown_stays_open() {
    // A port that was just free: connecting to it is refused.
    let endpoint = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        Endpoint::Tcp(probe.local_addr().unwrap())
    };
    let mut client = WireClient::new(
        endpoint,
        WireClientConfig {
            max_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown: Duration::MAX,
            ..WireClientConfig::default()
        },
    );
    let window = steps(3, 0.0);
    assert!(client.submit("t", &window).is_err());
    match client.submit("t", &window) {
        Err(WireError::CircuitOpen { retry_in }) => assert_eq!(retry_in, Duration::MAX),
        other => panic!("expected an open breaker, got {other:?}"),
    }
}

/// A server whose read, write, request and drain deadlines are all
/// `Duration::MAX` answers requests and still drains: the idle poll, not
/// a deadline, is what notices the shutdown.
#[test]
fn unbounded_server_deadlines_answer_and_drain() {
    let server = start_server("unbounded-server", BatchConfig::default());
    let wire = WireServer::bind(
        Arc::clone(&server),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        WireServerConfig {
            read_deadline: Duration::MAX,
            write_deadline: Duration::MAX,
            request_deadline: Duration::MAX,
            drain_deadline: Duration::MAX,
            ..WireServerConfig::default()
        },
    )
    .unwrap();
    let mut client = quick_client(wire.endpoint());
    let window = steps(5, 0.9);
    let over_wire = client.submit("t", &window).unwrap();
    assert_eq!(
        bits(&over_wire.logits),
        bits(&server.infer("t", &window).unwrap())
    );
    // The connection is still open: the drain writes its farewell on the
    // unbounded write deadline and joins the handler without a deadline.
    wire.begin_shutdown();
    let farewell_by = Instant::now() + Duration::from_secs(5);
    while wire.stats().going_away_sent == 0 {
        assert!(Instant::now() < farewell_by, "the drain never said goodbye");
        std::thread::sleep(Duration::from_millis(1));
    }
    wire.shutdown();
    assert!(client.submit("t", &window).is_err());
}
