//! The load generator: one protocol-v2 connection driven by one sender
//! thread and one reader thread, speaking the wire format through
//! `deepcam_serve::protocol`'s frame functions.
//!
//! The open loop sends on a schedule fixed before the first send and
//! times each request from when it was *due*, so a stall in the server
//! or in the generator is charged to every request it delays. The
//! closed loop keeps a fixed number of requests in flight, never more
//! than the session queue holds, so backpressure refusals cannot occur.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use deepcam_serve::protocol::{
    decode_payload, decode_payload_v2, encode_payload, encode_payload_v2, read_frame, write_frame,
    Frame, Request, Response, PROTOCOL_V2,
};

use crate::inputs::Schedule;
use crate::setup::bit_exact;
use crate::trace::{request_span_id, Span, Tracer};

/// Registry id the served model is registered under.
pub const MODEL_ID: &str = "lenet5";

/// How long the reader waits for a reply once the sender has finished
/// before it counts the rest as unanswered.
const READ_TIMEOUT: Duration = Duration::from_secs(3);

/// One negotiated protocol-v2 connection.
pub struct Conn {
    writer: TcpStream,
    reader: TcpStream,
    next_id: u64,
}

impl Conn {
    /// Connects and performs the v2 `Hello` handshake.
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let hello = encode_payload(&Request::Hello {
            max_version: PROTOCOL_V2,
        });
        write_frame(&mut stream, &hello).map_err(|e| format!("hello: {e}"))?;
        match read_frame(&mut stream).map_err(|e| format!("hello reply: {e}"))? {
            Frame::Payload(p) => match decode_payload::<Response>(&p) {
                Ok(Response::Hello { version }) if version == PROTOCOL_V2 => {}
                other => return Err(format!("handshake answered with {other:?}")),
            },
            Frame::Closed => return Err("server closed during the handshake".to_string()),
        }
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Conn {
            writer: stream,
            reader,
            next_id: 0,
        })
    }
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct PhaseOutcome {
    /// Requests written to the socket.
    pub sent: u64,
    /// Replies carrying logits bit-identical to the reference.
    pub ok: u64,
    /// Error replies (refusals included) and replies to unknown ids.
    pub errors: u64,
    /// Sent requests that got no reply.
    pub unanswered: u64,
    /// Logits replies that differ from the reference (never a metric:
    /// any mismatch fails the run).
    pub mismatches: u64,
    /// Open loop: (schedule index, due time → reply read), per `ok` reply.
    pub latency_ms: Vec<(usize, f64)>,
    /// Open loop: how late each send started against its due time.
    pub lag_ms: Vec<f64>,
    /// When each reply was read.
    pub reply_at: Vec<Instant>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub request_frame_bytes: u64,
    pub reply_frame_bytes: u64,
    pub started: Option<Instant>,
    pub spans: Vec<Span>,
}

impl PhaseOutcome {
    /// Errors plus unanswered requests.
    pub fn failed(&self) -> u64 {
        self.errors + self.unanswered
    }
}

struct Flow {
    sent: u64,
    in_flight: usize,
    done: bool,
}

/// How the sender paces requests.
pub enum Pacing<'a> {
    /// Send request `i` at `schedule.due_s[i]` after the phase starts.
    Open(&'a Schedule),
    /// Keep `in_flight` requests outstanding for `duration`, cycling
    /// through the pool starting at `first_image`.
    Closed {
        in_flight: usize,
        duration: Duration,
        first_image: usize,
    },
}

/// Runs one phase on `conn`. Replies are checked against `reference`;
/// with a `tracer`, every request records its spans.
pub fn run_phase(
    conn: &mut Conn,
    pacing: &Pacing<'_>,
    image_dims: &[usize],
    images: &[Vec<f32>],
    reference: &[Vec<f32>],
    tracer: Option<&Tracer>,
) -> PhaseOutcome {
    let base = conn.next_id;
    let pool = images.len();
    let image_of = |id: u64| -> Option<usize> {
        let i = usize::try_from(id.checked_sub(base)?).ok()?;
        match pacing {
            Pacing::Open(s) => s.image.get(i).copied(),
            Pacing::Closed { first_image, .. } => Some((first_image + i) % pool),
        }
    };
    let flow = Mutex::new(Flow {
        sent: 0,
        in_flight: 0,
        done: false,
    });
    let changed = Condvar::new();
    let t0 = Instant::now();
    let due_at = |i: usize| match pacing {
        Pacing::Open(s) => Some(t0 + Duration::from_secs_f64(s.due_s[i])),
        Pacing::Closed { .. } => None,
    };
    let (writer, reader) = (&mut conn.writer, &mut conn.reader);

    let (send, recv) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut out = PhaseOutcome::default();
            let mut i = 0usize;
            loop {
                let due = match pacing {
                    Pacing::Open(s) => {
                        if i == s.due_s.len() {
                            break;
                        }
                        let due = due_at(i).expect("open pacing has due times");
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        Some(due)
                    }
                    Pacing::Closed {
                        in_flight,
                        duration,
                        ..
                    } => {
                        let mut f = flow.lock().expect("reader panicked");
                        while f.in_flight >= *in_flight && t0.elapsed() < *duration {
                            f = changed
                                .wait_timeout(f, Duration::from_millis(50))
                                .expect("reader panicked")
                                .0;
                        }
                        if t0.elapsed() >= *duration {
                            break;
                        }
                        None
                    }
                };
                let id = base + i as u64;
                let image = image_of(id).expect("every sent id maps to an image");
                let request = Request::Infer {
                    model: MODEL_ID.to_string(),
                    dims: image_dims.to_vec(),
                    data: images[image].clone(),
                };
                let start = Instant::now();
                let payload = encode_payload_v2(id, &request);
                let encoded = Instant::now();
                let written = write_frame(writer, &payload);
                let end = Instant::now();
                if let Some(due) = due {
                    out.lag_ms.push((start - due).as_secs_f64() * 1e3);
                }
                out.encode_us.push((encoded - start).as_secs_f64() * 1e6);
                out.request_frame_bytes += payload.len() as u64 + 4;
                if let Some(t) = tracer {
                    let parent = Some(request_span_id(id));
                    let (e, w) = (t.reserve_id(), t.reserve_id());
                    out.spans
                        .push(t.make(e, "protocol.encode", start, encoded, parent, Some(id)));
                    out.spans
                        .push(t.make(w, "protocol.write", encoded, end, parent, Some(id)));
                }
                if written.is_err() {
                    break;
                }
                {
                    let mut f = flow.lock().expect("reader panicked");
                    f.sent += 1;
                    f.in_flight += 1;
                }
                i += 1;
            }
            flow.lock().expect("reader panicked").done = true;
            changed.notify_all();
            out
        });

        let receiver = scope.spawn(|| {
            let mut out = PhaseOutcome::default();
            let mut received = 0u64;
            loop {
                {
                    let f = flow.lock().expect("sender panicked");
                    if f.done && received >= f.sent {
                        break;
                    }
                }
                let payload = match read_frame(reader) {
                    Ok(Frame::Payload(p)) => p,
                    Ok(Frame::Closed) => break,
                    Err(_) => {
                        // A read timeout: stop once the sender is done,
                        // counting what never came back as unanswered.
                        if flow.lock().expect("sender panicked").done {
                            break;
                        }
                        continue;
                    }
                };
                let at = Instant::now();
                let decoded = decode_payload_v2::<Response>(&payload);
                let decode_end = Instant::now();
                out.decode_us.push((decode_end - at).as_secs_f64() * 1e6);
                out.reply_frame_bytes += payload.len() as u64 + 4;
                received += 1;
                {
                    let mut f = flow.lock().expect("sender panicked");
                    f.in_flight = f.in_flight.saturating_sub(1);
                }
                changed.notify_all();
                let Ok((id, response)) = decoded else {
                    out.errors += 1;
                    continue;
                };
                let Some(image) = image_of(id) else {
                    out.errors += 1;
                    continue;
                };
                match response {
                    Response::Logits(logits) if bit_exact(&logits, &reference[image]) => {
                        out.ok += 1;
                        out.reply_at.push(at);
                        let i = (id - base) as usize;
                        if let Some(due) = due_at(i) {
                            out.latency_ms.push((i, (at - due).as_secs_f64() * 1e3));
                            if let Some(t) = tracer {
                                let rid = request_span_id(id);
                                let d = t.reserve_id();
                                out.spans.push(t.make(
                                    rid,
                                    "loadgen.request",
                                    due,
                                    at,
                                    None,
                                    Some(id),
                                ));
                                out.spans.push(t.make(
                                    d,
                                    "protocol.decode",
                                    at,
                                    decode_end,
                                    Some(rid),
                                    Some(id),
                                ));
                            }
                        }
                    }
                    Response::Logits(_) => out.mismatches += 1,
                    _ => out.errors += 1,
                }
            }
            out
        });
        (
            sender.join().expect("sender thread panicked"),
            receiver.join().expect("reader thread panicked"),
        )
    });

    conn.next_id = base + send.encode_us.len() as u64;
    let mut out = recv;
    out.sent = flow.lock().expect("phase threads joined").sent;
    out.unanswered = out
        .sent
        .saturating_sub(out.ok + out.errors + out.mismatches);
    out.lag_ms = send.lag_ms;
    out.encode_us = send.encode_us;
    out.request_frame_bytes = send.request_frame_bytes;
    out.spans.extend(send.spans);
    out.started = Some(t0);
    out
}
