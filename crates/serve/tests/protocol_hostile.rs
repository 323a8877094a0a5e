//! Adversarial wire-protocol suite, mirroring the corruption half of
//! `tests/compiled_model_roundtrip.rs`: random truncation, oversized
//! length prefixes, garbage frames and over-limit requests must all
//! come back as **typed errors** — never a panic, never an allocation
//! sized by attacker-controlled bytes — and a server that has seen all
//! of it must still answer a well-formed request.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use deepcam_serve::protocol::{
    decode_payload, encode_payload, read_frame, write_frame, ErrorKind, Frame, Request, Response,
    MAX_FRAME_BYTES, MAX_IMAGE_ELEMS, MAX_MODEL_ID_BYTES,
};
use deepcam_serve::{
    Client, ModelRegistry, Runtime, ServeError, Server, ServerConfig, SessionConfig,
};
use proptest::prelude::*;

fn sample_infer() -> Request {
    Request::Infer {
        model: "lenet5".into(),
        dims: vec![1, 28, 28],
        data: (0..784).map(|i| i as f32 * 0.25 - 7.0).collect(),
    }
}

#[test]
fn every_truncation_of_every_frame_is_a_typed_error() {
    for request in [
        sample_infer(),
        Request::ListModels,
        Request::Stats { model: "m".into() },
    ] {
        let bytes = encode_payload(&request);
        // Full payload decodes; every proper prefix fails loudly.
        assert!(decode_payload::<Request>(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(
                decode_payload::<Request>(&bytes[..cut]).is_err(),
                "cut {cut} of {} decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn oversized_length_prefix_never_allocates_the_claim() {
    // A prefix claiming u32::MAX (and anything over MAX_FRAME_BYTES) is
    // rejected before any payload allocation.
    for claim in [
        u32::MAX,
        (MAX_FRAME_BYTES as u32) + 1,
        u32::MAX - 1,
        0, // zero-length frames are meaningless too
    ] {
        let mut cursor = std::io::Cursor::new(claim.to_le_bytes().to_vec());
        assert!(
            matches!(read_frame(&mut cursor), Err(ServeError::Protocol(_))),
            "claim {claim}"
        );
    }
    // An in-limit claim with almost no bytes behind it: the reader may
    // allocate only in arrival-sized steps, then reports I/O.
    let mut wire = (MAX_FRAME_BYTES as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&[0u8; 100]);
    let mut cursor = std::io::Cursor::new(wire);
    assert!(matches!(read_frame(&mut cursor), Err(ServeError::Io(_))));
}

#[test]
fn over_limit_requests_are_rejected_structurally() {
    // Model id over the cap.
    let huge_id = "x".repeat(MAX_MODEL_ID_BYTES + 1);
    let bytes = encode_payload(&Request::Stats { model: huge_id });
    assert!(matches!(
        decode_payload::<Request>(&bytes),
        Err(ServeError::Protocol(_))
    ));
    // Image element count over the cap (dims are honest, just huge).
    let bytes = encode_payload(&Request::Infer {
        model: "m".into(),
        dims: vec![MAX_IMAGE_ELEMS + 1],
        data: Vec::new(),
    });
    assert!(matches!(
        decode_payload::<Request>(&bytes),
        Err(ServeError::Protocol(_))
    ));
    // Too many dims.
    let bytes = encode_payload(&Request::Infer {
        model: "m".into(),
        dims: vec![1; 9],
        data: vec![0.0],
    });
    assert!(decode_payload::<Request>(&bytes).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn garbage_payloads_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Whatever comes back must be a value or a typed error — the
        // test passes by not panicking (and proves no over-allocation
        // indirectly: the decoder caps Vec preallocation at remaining
        // bytes).
        let _ = decode_payload::<Request>(&bytes);
        let _ = decode_payload::<Response>(&bytes);
    }

    #[test]
    fn random_flips_in_valid_frames_never_panic(
        flip_at in 0usize..4096,
        flip_to in any::<u8>(),
    ) {
        let mut bytes = encode_payload(&sample_infer());
        let idx = flip_at % bytes.len();
        bytes[idx] = flip_to;
        let _ = decode_payload::<Request>(&bytes);
    }
}

/// End-to-end: a server that has absorbed garbage bytes, an oversized
/// prefix, and a truncated frame still serves the next well-formed
/// connection.
#[test]
fn server_survives_hostile_connections() {
    let registry = Arc::new(ModelRegistry::new());
    let runtime = Arc::new(Runtime::new(registry, SessionConfig::default()));
    let mut server = Server::bind("127.0.0.1:0", runtime, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // 1. Raw garbage that parses as a huge length prefix.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[0xFF; 64]).unwrap();
        // The server answers with a Protocol error frame before closing.
        match read_frame(&mut s) {
            Ok(Frame::Payload(p)) => match decode_payload::<Response>(&p) {
                Ok(Response::Error { .. }) => {}
                other => panic!("expected error frame, got {other:?}"),
            },
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    // 2. A well-formed frame whose payload is garbage: typed error,
    //    connection stays usable.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, &[0xAB; 32]).unwrap();
        match read_frame(&mut s).unwrap() {
            Frame::Payload(p) => match decode_payload::<Response>(&p).unwrap() {
                Response::Error { .. } => {}
                other => panic!("expected error, got {other:?}"),
            },
            Frame::Closed => panic!("connection should survive a garbage payload"),
        }
        // Same connection, now a valid request.
        write_frame(&mut s, &encode_payload(&Request::ListModels)).unwrap();
        match read_frame(&mut s).unwrap() {
            Frame::Payload(p) => match decode_payload::<Response>(&p).unwrap() {
                Response::Models(models) => assert!(models.is_empty()),
                other => panic!("expected models, got {other:?}"),
            },
            Frame::Closed => panic!("connection closed after valid request"),
        }
    }

    // 3. A truncated frame (length prefix promises more than is sent,
    //    then the client hangs up): the server just drops the
    //    connection and keeps serving others.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[1, 2, 3]).unwrap();
    }

    // 4. Fresh well-formed connection still works.
    let mut client = Client::connect(addr).unwrap();
    assert!(client.list_models().unwrap().is_empty());
    // Unknown model id comes back as the typed NotFound kind.
    match client.infer("nope", &[1, 2, 2], &[0.0; 4]) {
        Err(ServeError::Remote { kind, .. }) => {
            assert_eq!(kind, deepcam_serve::protocol::ErrorKind::NotFound);
        }
        other => panic!("expected remote NotFound, got {other:?}"),
    }
    server.shutdown();
}

/// One clean `ListModels` round trip proving the server still serves.
fn assert_still_serves(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).expect("fresh connection");
    assert!(client.list_models().expect("clean round trip").is_empty());
}

/// The slow-loris shape at the protocol level: a length prefix plus a
/// few payload bytes, then silence. The connection must be reaped
/// within `read_timeout` with a typed `Timeout` frame — not pinned
/// forever against `max_connections` — and the server must keep
/// serving afterwards.
#[test]
fn half_frame_then_stall_is_reaped_with_a_typed_timeout() {
    let registry = Arc::new(ModelRegistry::new());
    let runtime = Arc::new(Runtime::new(registry, SessionConfig::default()));
    let cfg = ServerConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", runtime, cfg).unwrap();
    let addr = server.local_addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&10u32.to_le_bytes()).unwrap();
    s.write_all(&[1, 2, 3]).unwrap(); // 3 of 10 promised bytes, then stall
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    match read_frame(&mut s) {
        Ok(Frame::Payload(p)) => match decode_payload::<Response>(&p).unwrap() {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Timeout),
            other => panic!("expected Timeout error frame, got {other:?}"),
        },
        other => panic!("expected typed timeout frame, got {other:?}"),
    }
    // After the typed answer the server hangs up.
    assert!(matches!(read_frame(&mut s), Ok(Frame::Closed) | Err(_)));
    assert!(server.stats().timed_out >= 1);

    assert_still_serves(addr);
    server.shutdown();
}

/// The version handshake under hostile inputs: a zero offer is
/// answered once with a typed error and a hang-up (the connection's
/// version would be ambiguous), a truncated `Hello` payload is a typed
/// error the connection survives, and a mid-stream `Hello` is refused
/// while the connection keeps serving — none of it takes the server
/// down.
#[test]
fn hostile_hellos_never_take_the_server_down() {
    use deepcam_serve::protocol::{MAX_PROTOCOL_VERSION, PROTOCOL_V1};

    let registry = Arc::new(ModelRegistry::new());
    let runtime = Arc::new(Runtime::new(registry, SessionConfig::default()));
    let mut server = Server::bind("127.0.0.1:0", runtime, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // 1. Hello { max_version: 0 }: typed error, then hang-up.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, &encode_payload(&Request::Hello { max_version: 0 })).unwrap();
        match read_frame(&mut s).unwrap() {
            Frame::Payload(p) => match decode_payload::<Response>(&p).unwrap() {
                Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Protocol),
                other => panic!("expected typed error, got {other:?}"),
            },
            Frame::Closed => panic!("version 0 must be answered before the hang-up"),
        }
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert!(matches!(read_frame(&mut s), Ok(Frame::Closed) | Err(_)));
    }

    // 2. A truncated Hello payload (the tag byte alone): typed error,
    //    frame boundaries intact, connection survives into real work.
    {
        let full = encode_payload(&Request::Hello {
            max_version: MAX_PROTOCOL_VERSION,
        });
        for cut in 1..full.len() {
            assert!(
                decode_payload::<Request>(&full[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, &full[..1]).unwrap();
        match read_frame(&mut s).unwrap() {
            Frame::Payload(p) => match decode_payload::<Response>(&p).unwrap() {
                Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Protocol),
                other => panic!("expected typed error, got {other:?}"),
            },
            Frame::Closed => panic!("truncated Hello payload must not kill the connection"),
        }
        // An undecodable first frame locks v1; the connection serves on.
        write_frame(&mut s, &encode_payload(&Request::ListModels)).unwrap();
        match read_frame(&mut s).unwrap() {
            Frame::Payload(p) => match decode_payload::<Response>(&p).unwrap() {
                Response::Models(models) => assert!(models.is_empty()),
                other => panic!("expected Models, got {other:?}"),
            },
            Frame::Closed => panic!("connection closed after the typed error"),
        }
    }

    // 3. Hello after the first frame: a protocol violation answered
    //    with a typed error, but frame boundaries are intact — the
    //    connection keeps serving v1.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        write_frame(&mut s, &encode_payload(&Request::ListModels)).unwrap();
        assert!(matches!(read_frame(&mut s).unwrap(), Frame::Payload(_)));
        write_frame(
            &mut s,
            &encode_payload(&Request::Hello {
                max_version: PROTOCOL_V1,
            }),
        )
        .unwrap();
        match read_frame(&mut s).unwrap() {
            Frame::Payload(p) => match decode_payload::<Response>(&p).unwrap() {
                Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Protocol),
                other => panic!("expected typed error, got {other:?}"),
            },
            Frame::Closed => panic!("mid-stream Hello must not kill the connection"),
        }
        write_frame(&mut s, &encode_payload(&Request::ListModels)).unwrap();
        assert!(matches!(read_frame(&mut s).unwrap(), Frame::Payload(_)));
    }

    assert!(server.stats().protocol_errors >= 3);
    assert_still_serves(addr);
    server.shutdown();
}

/// A client that sends the length prefix and then disconnects before
/// any payload byte: a mid-frame EOF the server closes quietly, and
/// which must never take the server down.
#[test]
fn disconnect_between_prefix_and_payload_is_survived() {
    let registry = Arc::new(ModelRegistry::new());
    let runtime = Arc::new(Runtime::new(registry, SessionConfig::default()));
    let mut server = Server::bind("127.0.0.1:0", runtime, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    for _ in 0..8 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&64u32.to_le_bytes()).unwrap();
        drop(s); // hang up with the frame half-promised
        assert_still_serves(addr);
    }
    // Mid-frame EOFs are I/O hangups, not protocol violations or
    // timeouts — the robustness counters must agree.
    let stats = server.stats();
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.protocol_errors, 0);
    server.shutdown();
}

/// A NaN or infinite pixel is refused at submit: the wire answer is a
/// typed `InvalidRequest` (not laundered logits), the connection keeps
/// serving, and a finite image still round-trips bit-exact.
#[test]
fn non_finite_pixels_get_a_typed_invalid_request_reply() {
    use deepcam_core::{DeepCamEngine, EngineConfig, HashPlan};

    let mut rng = deepcam_tensor::rng::seeded_rng(5);
    let model = deepcam_models::scaled::scaled_lenet5(&mut rng, 10);
    let engine = DeepCamEngine::compile(
        &model,
        EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let registry = Arc::new(ModelRegistry::new());
    let engine = registry.register("lenet5", engine);
    let runtime = Arc::new(Runtime::new(registry, SessionConfig::default()));
    let mut server = Server::bind("127.0.0.1:0", runtime, ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let Request::Infer { model, dims, data } = sample_infer() else {
        unreachable!()
    };
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut poisoned = data.clone();
        poisoned[100] = bad;
        let request = Request::Infer {
            model: model.clone(),
            dims: dims.clone(),
            data: poisoned,
        };
        write_frame(&mut s, &encode_payload(&request)).unwrap();
        match read_frame(&mut s).unwrap() {
            Frame::Payload(p) => match decode_payload::<Response>(&p).unwrap() {
                Response::Error { kind, .. } => {
                    assert_eq!(kind, ErrorKind::InvalidRequest, "{bad}")
                }
                other => panic!("{bad} pixel: expected InvalidRequest, got {other:?}"),
            },
            Frame::Closed => panic!("connection must survive a {bad} pixel"),
        }
    }

    // Same connection, finite image: served, bit-exact.
    write_frame(&mut s, &encode_payload(&sample_infer())).unwrap();
    let tensor =
        deepcam_tensor::Tensor::from_vec(data, deepcam_tensor::Shape::new(&[1, 1, 28, 28]))
            .unwrap();
    match read_frame(&mut s).unwrap() {
        Frame::Payload(p) => match decode_payload::<Response>(&p).unwrap() {
            Response::Logits(logits) => {
                assert_eq!(logits, engine.infer(&tensor).unwrap().data());
            }
            other => panic!("expected logits, got {other:?}"),
        },
        Frame::Closed => panic!("connection closed after a finite image"),
    }
    // Rejections are request errors, not protocol violations.
    assert_eq!(server.stats().protocol_errors, 0);
    server.shutdown();
}
