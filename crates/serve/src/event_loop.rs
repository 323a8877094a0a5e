//! The server's connection core: one epoll readiness loop thread
//! serving every connection.
//!
//! Each connection is a non-blocking read/write state machine over the
//! [`crate::protocol`] framing. Readiness comes from a level-triggered
//! [`crate::poll::Epoll`]; completions come back from the session
//! dispatcher threads through a queue + `eventfd` waker
//! ([`LoopCtl`]), keyed by (connection token, request id) so protocol
//! v2 clients multiplex many in-flight requests over one socket.
//!
//! # Lifecycle contracts
//!
//! `tests/server_lifecycle.rs` and `tests/chaos_soak.rs` pin these:
//!
//! - **Idle vs stalled**: a connection quietly parked at a frame
//!   boundary lives under `idle_timeout` (quiet close); the moment a
//!   frame's first byte arrives an *absolute* `read_timeout` deadline
//!   is armed — a trickling peer cannot extend it — and expiry is
//!   answered once with a typed [`ErrorKind::Timeout`], then hang-up.
//! - **Refusals**: over-limit and mid-drain connects get a typed error
//!   frame written asynchronously (the accept path never blocks), a
//!   write-half close, and a bounded linger discarding peer bytes so
//!   the refusal is not lost to an RST.
//! - **Drain accounting**: `busy` rises when a complete frame is
//!   parsed and falls only when its reply's last byte is flushed (or
//!   its connection dies), so [`crate::server::Server::shutdown`]'s
//!   drain wait holds until in-flight replies are on the wire. A v2
//!   connection closing mid-drain still delivers every queued reply
//!   first.
//!
//! # Ordering
//!
//! v1 frames are served strictly one at a time per connection (parsing
//! holds while a request is in flight), so v1 replies leave in request
//! order. v2 frames all enter the micro-batcher immediately and replies
//! are written in *completion* order under their request ids.

#![cfg(target_os = "linux")]

use std::collections::{HashMap, VecDeque};
use std::io::Read;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use crate::error::{Result as ServeResult, ServeError};
use crate::poll::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::protocol::{
    check_frame_len, classify, decode_payload, decode_payload_v2, encode_payload,
    encode_payload_v2, negotiate_version, ErrorKind, Request, Response, WireModelInfo,
    WireServerStats, WireStats, CONNECTION_SCOPED_ID, MAX_FRAME_BYTES, PROTOCOL_V1, PROTOCOL_V2,
};
use crate::server::ServerShared;

/// Epoll token of the accept listener.
const LISTENER_TOKEN: u64 = 0;
/// Epoll token of the [`LoopCtl`] waker eventfd.
const WAKER_TOKEN: u64 = 1;
/// First token handed to a connection.
const FIRST_CONN_TOKEN: u64 = 2;
/// Scratch buffer per `read` syscall.
const READ_CHUNK: usize = 16 * 1024;
/// Most `read` calls serviced per readiness report per connection —
/// level-triggered epoll re-reports leftover data, so capping keeps
/// one firehose connection from starving the rest.
const READS_PER_WAKE: usize = 8;
/// How long a connection whose write half is closed may keep
/// discarding peer bytes before the hard close.
const LINGER_TIMEOUT: Duration = Duration::from_millis(250);
/// Readiness records per `epoll_wait`.
const MAX_EVENTS: usize = 256;

/// One finished inference routed back from a session dispatcher
/// thread to the loop.
pub(crate) struct Completion {
    conn: u64,
    request: u64,
    result: ServeResult<Vec<f32>>,
}

/// The loop's cross-thread control surface: session completion sinks,
/// the clock waker and [`crate::server::Server::shutdown`] all wake
/// the loop through the eventfd; completions ride the queue.
pub(crate) struct LoopCtl {
    pub(crate) waker: EventFd,
    completions: Mutex<VecDeque<Completion>>,
}

/// The completion queue, recovering from a poisoned lock: a panicking
/// dispatcher thread must not take the event loop down with it, and
/// the queue is valid under any interleaving of push/drain.
fn lock_completions(ctl: &LoopCtl) -> MutexGuard<'_, VecDeque<Completion>> {
    ctl.completions.lock().unwrap_or_else(|p| p.into_inner())
}

impl LoopCtl {
    fn push(&self, completion: Completion) {
        lock_completions(self).push_back(completion);
        self.waker.signal();
    }

    fn drain(&self) -> VecDeque<Completion> {
        std::mem::take(&mut *lock_completions(self))
    }
}

/// Creates the epoll instance, registers the listener and waker, wires
/// the clock waker, and spawns the `deepcam-serve-epoll` loop thread.
///
/// # Errors
///
/// [`ServeError::Io`] when any of the kernel objects or the thread
/// cannot be created — surfaced from `Server::bind`, so a host that
/// cannot run the epoll core fails loudly instead of serving nothing.
pub(crate) fn spawn_event_loop(
    listener: TcpListener,
    shared: &Arc<ServerShared>,
) -> ServeResult<(std::thread::JoinHandle<()>, Arc<LoopCtl>)> {
    let epoll = Epoll::new().map_err(|e| ServeError::Io(format!("epoll_create: {e}")))?;
    let ctl = Arc::new(LoopCtl {
        waker: EventFd::new().map_err(|e| ServeError::Io(format!("eventfd: {e}")))?,
        completions: Mutex::new(VecDeque::new()),
    });
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::Io(format!("listener nonblocking: {e}")))?;
    epoll
        .add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)
        .map_err(|e| ServeError::Io(format!("register listener: {e}")))?;
    epoll
        .add(ctl.waker.raw_fd(), EPOLLIN, WAKER_TOKEN)
        .map_err(|e| ServeError::Io(format!("register waker: {e}")))?;
    // A clock jump (ManualClock::advance) must re-run the deadline
    // sweep. Hold the ctl weakly so a long-lived clock never keeps a
    // dead loop's eventfd open, and report death so the clock prunes
    // the registration.
    let waker_target: Weak<LoopCtl> = Arc::downgrade(&ctl);
    shared
        .clock
        .register_waker(Arc::new(move || match waker_target.upgrade() {
            Some(ctl) => {
                ctl.waker.signal();
                true
            }
            None => false,
        }));
    let loop_shared = Arc::clone(shared);
    let loop_ctl = Arc::clone(&ctl);
    let handle = std::thread::Builder::new()
        .name("deepcam-serve-epoll".into())
        .spawn(move || run_loop(&epoll, &listener, &loop_shared, &loop_ctl))
        .map_err(|e| ServeError::Io(format!("spawn event loop: {e}")))?;
    Ok((handle, ctl))
}

/// Where a connection is in its life.
enum Phase {
    /// Serving: reading frames, writing replies.
    Open,
    /// No more frames will be served (refusal, timeout or drain
    /// answered). Once in-flight replies are queued and flushed:
    /// half-close and linger (`linger`), or close outright.
    Finishing { linger: bool },
    /// Write half closed; discarding peer bytes until EOF or the
    /// deadline, so the final frame is not lost to an RST.
    Lingering { deadline: Instant },
}

/// A reply frame's completion record in the write buffer: when
/// `sent_total` passes `end`, the reply is on the wire.
struct Marker {
    end: u64,
    /// Whether flushing releases a `busy` count (and counts toward
    /// `drained` during a drain). False for refusal/timeout frames
    /// that answer no accepted request.
    counts_busy: bool,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    /// Received-but-unparsed bytes.
    rbuf: Vec<u8>,
    /// Negotiated protocol version; `None` until the first frame.
    version: Option<u32>,
    /// Reply bytes; `[wstart..]` still pending.
    wbuf: Vec<u8>,
    wstart: usize,
    /// Lifetime bytes queued/flushed — marker arithmetic that
    /// survives buffer compaction.
    queued_total: u64,
    sent_total: u64,
    markers: VecDeque<Marker>,
    /// Requests inside the session whose completions are pending.
    inflight: usize,
    /// Absolute mid-frame deadline, armed at a partial frame's first
    /// byte (trickling cannot extend it).
    frame_deadline: Option<Instant>,
    /// When this connection last sat at a clean frame boundary (the
    /// idle clock).
    boundary_since: Instant,
    /// Absolute reply-write deadline, re-armed on write progress.
    write_deadline: Option<Instant>,
    /// The peer closed its sending half (it may still be reading).
    peer_eof: bool,
    phase: Phase,
    /// Currently registered epoll interest.
    interest: u32,
    /// Counts toward accepted/active (false for refusals).
    served: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            version: None,
            wbuf: Vec::new(),
            wstart: 0,
            queued_total: 0,
            sent_total: 0,
            markers: VecDeque::new(),
            inflight: 0,
            frame_deadline: None,
            boundary_since: now,
            write_deadline: None,
            peer_eof: false,
            phase: Phase::Open,
            interest: 0,
            served: false,
        }
    }

    fn flushed(&self) -> bool {
        self.wstart >= self.wbuf.len()
    }

    /// Clean frame boundary with nothing pending in either direction —
    /// the only state `idle_timeout` applies to.
    fn at_boundary(&self) -> bool {
        self.rbuf.is_empty() && self.inflight == 0 && self.flushed() && self.markers.is_empty()
    }

    /// The idle deadline, when one applies.
    fn idle_deadline(&self, idle_timeout: Option<Duration>) -> Option<Instant> {
        match self.phase {
            Phase::Open if self.at_boundary() && !self.peer_eof => {
                idle_timeout.and_then(|t| self.boundary_since.checked_add(t))
            }
            _ => None,
        }
    }
}

/// The loop body: wait for readiness, serve it, apply completions,
/// sweep deadlines, close the dead. Exits when the shutdown flag is
/// observed (the waker guarantees a prompt wake).
fn run_loop(epoll: &Epoll, listener: &TcpListener, shared: &Arc<ServerShared>, ctl: &Arc<LoopCtl>) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = vec![EpollEvent::zeroed(); MAX_EVENTS];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            for (_, conn) in conns.drain() {
                close_conn(epoll, conn, shared);
            }
            return;
        }
        let timeout = wait_timeout_ms(&conns, shared);
        let n = match epoll.wait(&mut events, timeout) {
            Ok(n) => n,
            // Only a broken epoll fd lands here; back off rather than
            // spin so shutdown can still be observed.
            Err(_) => {
                std::thread::sleep(Duration::from_millis(1));
                0
            }
        };
        let mut dead: Vec<u64> = Vec::new();
        let mut accept_ready = false;
        for ev in events.iter().take(n) {
            match ev.token() {
                LISTENER_TOKEN => accept_ready = true,
                WAKER_TOKEN => ctl.waker.drain(),
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if !handle_io(conn, token, ev.events(), shared, ctl) {
                            dead.push(token);
                        }
                    }
                }
            }
        }
        if accept_ready {
            accept_ready_conns(listener, epoll, &mut conns, &mut next_token, shared);
        }
        // Completions arrive from dispatcher threads at any time;
        // drain unconditionally (cheap when empty). One for a
        // connection that already closed is dropped — its busy count
        // was released at close.
        for completion in ctl.drain() {
            let token = completion.conn;
            if let Some(conn) = conns.get_mut(&token) {
                if !apply_completion(conn, token, completion, shared, ctl) {
                    dead.push(token);
                }
            }
        }
        let now = shared.clock.now();
        for (token, conn) in conns.iter_mut() {
            if !check_deadlines(conn, now, shared) {
                dead.push(*token);
            }
        }
        dead.sort_unstable();
        dead.dedup();
        for token in dead {
            if let Some(conn) = conns.remove(&token) {
                close_conn(epoll, conn, shared);
            }
        }
        for (token, conn) in conns.iter_mut() {
            sync_interest(epoll, *token, conn);
        }
    }
}

/// The `epoll_wait` budget: until the nearest deadline (rounded up a
/// millisecond so expiry lands inside the wake, never a spin before
/// it), or forever when nothing is armed — the waker eventfd covers
/// completions, clock jumps and shutdown.
fn wait_timeout_ms(conns: &HashMap<u64, Conn>, shared: &ServerShared) -> Option<u32> {
    let mut next: Option<Instant> = None;
    let mut consider = |d: Option<Instant>| {
        if let Some(d) = d {
            next = Some(next.map_or(d, |n| n.min(d)));
        }
    };
    for conn in conns.values() {
        consider(conn.frame_deadline);
        consider(conn.write_deadline);
        consider(conn.idle_deadline(shared.cfg.idle_timeout));
        if let Phase::Lingering { deadline } = conn.phase {
            consider(Some(deadline));
        }
    }
    let next = next?;
    let remaining = next.saturating_duration_since(shared.clock.now());
    let ms = remaining.as_millis().saturating_add(1);
    Some(u32::try_from(ms).unwrap_or(u32::MAX))
}

/// Serves one readiness report for one connection. Returns false when
/// the connection must close now.
fn handle_io(
    conn: &mut Conn,
    token: u64,
    revents: u32,
    shared: &Arc<ServerShared>,
    ctl: &Arc<LoopCtl>,
) -> bool {
    // Writes first: flushing may release markers (busy counts) and
    // buffer space before new work queues more.
    if revents & EPOLLOUT != 0 && !flush(conn, shared) {
        return false;
    }
    if revents & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
        let alive = match conn.phase {
            Phase::Open => read_and_serve(conn, token, shared, ctl),
            Phase::Finishing { .. } | Phase::Lingering { .. } => discard_reads(conn),
        };
        if !alive {
            return false;
        }
    }
    advance_phase(conn, shared)
}

/// Reads whatever arrived (bounded per wake) and parses/serves it.
fn read_and_serve(
    conn: &mut Conn,
    token: u64,
    shared: &Arc<ServerShared>,
    ctl: &Arc<LoopCtl>,
) -> bool {
    let mut scratch = [0u8; READ_CHUNK];
    for _ in 0..READS_PER_WAKE {
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                if let Some(chunk) = scratch.get(..n) {
                    conn.rbuf.extend_from_slice(chunk);
                }
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    parse_frames(conn, token, shared, ctl)
}

/// Discards peer bytes on a finishing/lingering connection (bounded
/// per wake). EOF during a linger means the final frame was
/// deliverable: close.
fn discard_reads(conn: &mut Conn) -> bool {
    let mut scratch = [0u8; 1024];
    for _ in 0..READS_PER_WAKE {
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                conn.peer_eof = true;
                return !matches!(conn.phase, Phase::Lingering { .. });
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Parses every currently parseable frame out of `rbuf` and serves it,
/// then re-arms the boundary/mid-frame deadline state.
fn parse_frames(
    conn: &mut Conn,
    token: u64,
    shared: &Arc<ServerShared>,
    ctl: &Arc<LoopCtl>,
) -> bool {
    let mut pos = 0usize;
    let mut incomplete = false;
    loop {
        if !matches!(conn.phase, Phase::Open) {
            break;
        }
        // v1 has no request ids: replies must leave in request order,
        // so serving holds while one request is in flight (buffered
        // frames resume when its completion lands). v2 multiplexes.
        if conn.inflight > 0 && conn.version.is_some_and(|v| v < PROTOCOL_V2) {
            break;
        }
        let Some(prefix) = conn.rbuf.get(pos..pos + 4) else {
            incomplete = conn.rbuf.len() > pos;
            break;
        };
        let Ok(len_bytes) = <[u8; 4]>::try_from(prefix) else {
            return false;
        };
        let len = u32::from_le_bytes(len_bytes) as usize;
        if let Err(e) = check_frame_len(len) {
            // A bad length prefix desyncs the stream: answer once
            // (the typed-error contract), stop reading, hang up after
            // the flush.
            shared.counters.inc_protocol_errors();
            let (kind, message) = classify(&e);
            let version = conn.version.unwrap_or(PROTOCOL_V1);
            if !queue_reply(
                conn,
                version,
                CONNECTION_SCOPED_ID,
                &Response::Error { kind, message },
                false,
                shared,
            ) {
                return false;
            }
            conn.phase = Phase::Finishing { linger: true };
            break;
        }
        let Some(payload) = conn.rbuf.get(pos + 4..pos + 4 + len) else {
            incomplete = true;
            break;
        };
        let payload = payload.to_vec();
        pos += 4 + len;
        if !on_frame(conn, token, &payload, shared, ctl) {
            return false;
        }
    }
    conn.rbuf.drain(..pos.min(conn.rbuf.len()));
    if incomplete && conn.peer_eof {
        // Mid-frame EOF: the frame can never complete. Close quietly
        // (no counters).
        conn.rbuf.clear();
        incomplete = false;
    }
    let now = shared.clock.now();
    if incomplete {
        // First byte of a partial frame arms the absolute deadline.
        if conn.frame_deadline.is_none() {
            conn.frame_deadline = shared.cfg.read_timeout.and_then(|t| now.checked_add(t));
        }
    } else {
        conn.frame_deadline = None;
        conn.boundary_since = now;
    }
    true
}

/// Serves one complete frame payload: drain gate, version sniffing,
/// then dispatch — `Infer` into the micro-batcher with a completion
/// sink, control requests inline.
fn on_frame(
    conn: &mut Conn,
    token: u64,
    payload: &[u8],
    shared: &Arc<ServerShared>,
    ctl: &Arc<LoopCtl>,
) -> bool {
    // Count this request in-flight *before* checking the drain flag,
    // so the drain wait can never observe `busy == 0` while a received
    // frame is slipping into the runtime.
    shared.busy.fetch_add(1, Ordering::SeqCst);
    let wire_version = conn.version.unwrap_or(PROTOCOL_V1);
    if shared.draining.load(Ordering::SeqCst) {
        shared.busy.fetch_sub(1, Ordering::SeqCst);
        // Echo the request id when the frame is well-formed v2, so a
        // multiplexing client can attribute the refusal.
        let req_id = if wire_version >= PROTOCOL_V2 {
            decode_payload_v2::<Request>(payload)
                .map(|(id, _)| id)
                .unwrap_or(CONNECTION_SCOPED_ID)
        } else {
            CONNECTION_SCOPED_ID
        };
        let resp = Response::Error {
            kind: ErrorKind::Draining,
            message: "server is draining for shutdown".into(),
        };
        if !queue_reply(conn, wire_version, req_id, &resp, false, shared) {
            return false;
        }
        conn.phase = Phase::Finishing { linger: true };
        return true;
    }
    let (req_id, decoded) = if wire_version >= PROTOCOL_V2 {
        match decode_payload_v2::<Request>(payload) {
            Ok((id, req)) => (id, Ok(req)),
            Err(e) => (CONNECTION_SCOPED_ID, Err(e)),
        }
    } else {
        (CONNECTION_SCOPED_ID, decode_payload::<Request>(payload))
    };
    match decoded {
        Ok(Request::Hello { max_version }) if conn.version.is_none() => {
            match negotiate_version(max_version) {
                Ok(v) => {
                    conn.version = Some(v);
                    // The handshake reply itself is always v1-framed;
                    // the negotiated version governs later frames.
                    queue_reply(
                        conn,
                        PROTOCOL_V1,
                        CONNECTION_SCOPED_ID,
                        &Response::Hello { version: v },
                        true,
                        shared,
                    )
                }
                // Version 0 leaves the connection's version ambiguous:
                // answer once, hang up.
                Err(e) => {
                    shared.counters.inc_protocol_errors();
                    let (kind, message) = classify(&e);
                    let alive = queue_reply(
                        conn,
                        PROTOCOL_V1,
                        CONNECTION_SCOPED_ID,
                        &Response::Error { kind, message },
                        true,
                        shared,
                    );
                    conn.phase = Phase::Finishing { linger: true };
                    alive
                }
            }
        }
        Ok(Request::Hello { .. }) => {
            // Hello after the first frame: a violation, but frame
            // boundaries are intact — answer and keep serving.
            shared.counters.inc_protocol_errors();
            let (kind, message) = classify(&ServeError::Protocol(
                "Hello is only valid as a connection's first frame".to_string(),
            ));
            queue_reply(
                conn,
                wire_version,
                req_id,
                &Response::Error { kind, message },
                true,
                shared,
            )
        }
        Ok(Request::Infer { model, dims, data }) => {
            conn.version.get_or_insert(PROTOCOL_V1);
            let sink_ctl = Arc::clone(ctl);
            let outcome = shared
                .runtime
                .submit_sink(&model, &dims, &data, move |result| {
                    sink_ctl.push(Completion {
                        conn: token,
                        request: req_id,
                        result,
                    });
                });
            match outcome {
                Ok(()) => {
                    conn.inflight += 1;
                    true
                }
                Err(e) => {
                    let (kind, message) = classify(&e);
                    queue_reply(
                        conn,
                        wire_version,
                        req_id,
                        &Response::Error { kind, message },
                        true,
                        shared,
                    )
                }
            }
        }
        Ok(Request::ListModels) => reply_control(conn, req_id, Control::ListModels, shared),
        Ok(Request::Stats { model }) => {
            reply_control(conn, req_id, Control::Stats { model }, shared)
        }
        Ok(Request::ServerStats) => reply_control(conn, req_id, Control::ServerStats, shared),
        Err(e) => {
            // Frame boundaries are intact, so a garbage payload is
            // answered and the connection keeps serving (and a
            // first-frame garbage payload locks v1).
            conn.version.get_or_insert(PROTOCOL_V1);
            shared.counters.inc_protocol_errors();
            let (kind, message) = classify(&e);
            queue_reply(
                conn,
                wire_version,
                req_id,
                &Response::Error { kind, message },
                true,
                shared,
            )
        }
    }
}

/// A request answered inline from server state. `Infer` goes through
/// the micro-batcher and `Hello` through the handshake in [`on_frame`],
/// so neither reaches [`handle_control`].
enum Control {
    ListModels,
    Stats { model: String },
    ServerStats,
}

/// Answers one control request and queues the reply (a first frame
/// that is a control request locks the connection to v1).
fn reply_control(conn: &mut Conn, req_id: u64, request: Control, shared: &ServerShared) -> bool {
    let version = *conn.version.get_or_insert(PROTOCOL_V1);
    let resp = handle_control(shared, request);
    queue_reply(conn, version, req_id, &resp, true, shared)
}

/// Executes one control request against the runtime and the server
/// counters; errors become typed error replies.
fn handle_control(shared: &ServerShared, request: Control) -> Response {
    let outcome = match request {
        Control::ListModels => Ok(Response::Models(
            shared
                .runtime
                .list()
                .into_iter()
                .map(|m| WireModelInfo {
                    id: m.id,
                    loaded: m.loaded,
                })
                .collect(),
        )),
        Control::Stats { model } => shared.runtime.stats(&model).map(|s| {
            Response::Stats(WireStats {
                submitted: s.submitted,
                completed: s.completed,
                failed: s.failed,
                rejected: s.rejected,
                batches: s.batches,
                mean_occupancy: s.mean_occupancy,
                max_occupancy: s.max_occupancy as u64,
                p50_latency_ms: s.p50_latency_ms,
                p99_latency_ms: s.p99_latency_ms,
            })
        }),
        Control::ServerStats => {
            let s = shared.counters.snapshot();
            Ok(Response::ServerStats(WireServerStats {
                accepted: s.accepted,
                refused: s.refused,
                timed_out: s.timed_out,
                protocol_errors: s.protocol_errors,
                drained: s.drained,
            }))
        }
    };
    outcome.unwrap_or_else(|e| {
        let (kind, message) = classify(&e);
        Response::Error { kind, message }
    })
}

/// One arrived completion: frame the reply under the connection's
/// version and resume parsing (a v1 connection may have the next
/// frame waiting on exactly this reply).
fn apply_completion(
    conn: &mut Conn,
    token: u64,
    completion: Completion,
    shared: &Arc<ServerShared>,
    ctl: &Arc<LoopCtl>,
) -> bool {
    conn.inflight = conn.inflight.saturating_sub(1);
    let resp = match completion.result {
        Ok(logits) => Response::Logits(logits),
        Err(e) => {
            let (kind, message) = classify(&e);
            Response::Error { kind, message }
        }
    };
    let version = conn.version.unwrap_or(PROTOCOL_V1);
    if !queue_reply(conn, version, completion.request, &resp, true, shared) {
        return false;
    }
    if !parse_frames(conn, token, shared, ctl) {
        return false;
    }
    advance_phase(conn, shared)
}

/// Frames `resp` for a connection speaking `version`: v2 payloads
/// carry `req_id` (or [`CONNECTION_SCOPED_ID`] for errors that answer
/// no particular request), v1 payloads the bare encoding.
fn frame_response(version: u32, req_id: u64, resp: &Response) -> Vec<u8> {
    if version >= PROTOCOL_V2 {
        encode_payload_v2(req_id, resp)
    } else {
        encode_payload(resp)
    }
}

/// Appends one framed reply to the write buffer with its completion
/// marker and flushes what the socket will take now.
fn queue_reply(
    conn: &mut Conn,
    version: u32,
    req_id: u64,
    resp: &Response,
    counts_busy: bool,
    shared: &ServerShared,
) -> bool {
    let payload = frame_response(version, req_id, resp);
    if payload.len() > MAX_FRAME_BYTES {
        // Unreachable for the replies this server builds; refuse to
        // desync the stream if it ever becomes reachable.
        return false;
    }
    conn.wbuf
        .extend_from_slice(&(payload.len() as u32).to_le_bytes());
    conn.wbuf.extend_from_slice(&payload);
    conn.queued_total += 4 + payload.len() as u64;
    conn.markers.push_back(Marker {
        end: conn.queued_total,
        counts_busy,
    });
    flush(conn, shared)
}

/// Writes as much pending reply data as the socket accepts, releases
/// completed markers (busy counts, drain accounting), and maintains
/// the write deadline.
fn flush(conn: &mut Conn, shared: &ServerShared) -> bool {
    let mut progressed = false;
    loop {
        let pending = match conn.wbuf.get(conn.wstart..) {
            Some(p) if !p.is_empty() => p,
            _ => break,
        };
        match conn.stream.write(pending) {
            Ok(0) => return false,
            Ok(n) => {
                conn.wstart += n;
                conn.sent_total += n as u64;
                progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if conn.flushed() {
        conn.wbuf.clear();
        conn.wstart = 0;
        conn.write_deadline = None;
    } else if progressed || conn.write_deadline.is_none() {
        // A peer that keeps taking bytes keeps its budget; one that
        // stops reading is reaped when the armed deadline lapses.
        conn.write_deadline = shared
            .cfg
            .write_timeout
            .and_then(|t| shared.clock.now().checked_add(t));
    }
    let draining = shared.draining.load(Ordering::SeqCst);
    while let Some(marker) = conn.markers.front() {
        if marker.end > conn.sent_total {
            break;
        }
        if marker.counts_busy {
            // Decrement only now, with the reply's last byte on the
            // wire: the drain wait holds until in-flight replies are
            // delivered, not merely computed.
            shared.busy.fetch_sub(1, Ordering::SeqCst);
            if draining {
                shared.counters.inc_drained();
            }
        }
        conn.markers.pop_front();
    }
    true
}

/// Moves a connection's phase forward once its obligations are met.
/// Returns false when it should close now.
fn advance_phase(conn: &mut Conn, shared: &ServerShared) -> bool {
    match conn.phase {
        Phase::Open => {
            // A half-closed peer is served to the last buffered frame
            // and reply (it may still be reading); only a fully idle
            // one closes.
            if conn.peer_eof && conn.rbuf.is_empty() && conn.inflight == 0 && conn.at_boundary() {
                return false;
            }
            true
        }
        Phase::Finishing { linger } => {
            if conn.inflight > 0 || !conn.flushed() {
                return true;
            }
            if !linger || conn.peer_eof {
                return false;
            }
            // Half-close, then discard whatever the peer was mid-way
            // through sending: a hard close here would race its write
            // and the RST could discard the final frame unread.
            let _ = conn.stream.shutdown(Shutdown::Write);
            match shared.clock.now().checked_add(LINGER_TIMEOUT) {
                Some(deadline) => {
                    conn.phase = Phase::Lingering { deadline };
                    true
                }
                None => false,
            }
        }
        Phase::Lingering { .. } => true,
    }
}

/// Expires whatever deadline lapsed. Returns false when the
/// connection should close now.
fn check_deadlines(conn: &mut Conn, now: Instant, shared: &ServerShared) -> bool {
    if let Phase::Lingering { deadline } = conn.phase {
        if now >= deadline {
            return false;
        }
    }
    if matches!(conn.phase, Phase::Open) {
        if let Some(deadline) = conn.frame_deadline {
            if now >= deadline {
                // Slow-loris: answer once with the typed timeout, stop
                // reading, hang up after the flush.
                shared.counters.inc_timed_out();
                let version = conn.version.unwrap_or(PROTOCOL_V1);
                let resp = Response::Error {
                    kind: ErrorKind::Timeout,
                    message: "connection stalled mid-frame past read_timeout".into(),
                };
                conn.frame_deadline = None;
                conn.rbuf.clear();
                if !queue_reply(conn, version, CONNECTION_SCOPED_ID, &resp, false, shared) {
                    return false;
                }
                conn.phase = Phase::Finishing { linger: true };
                return advance_phase(conn, shared);
            }
        } else if let Some(deadline) = conn.idle_deadline(shared.cfg.idle_timeout) {
            if now >= deadline {
                // Idle past its welcome: done, quietly (EOF, no error
                // frame, no counter — it did nothing wrong mid-frame).
                return false;
            }
        }
    }
    if let Some(deadline) = conn.write_deadline {
        if now >= deadline {
            // Zero-window peer stalling reply writes: reap it.
            return false;
        }
    }
    true
}

/// Accepts every pending connection: the admission gate (drain, then
/// connection limit) refuses with a typed frame that flushes through
/// the same non-blocking machinery as any reply, so refusals can never
/// stall the accept path.
fn accept_ready_conns(
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    shared: &Arc<ServerShared>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Transient per-connection failures (ECONNABORTED) or fd
            // exhaustion: yield to the next wake rather than spin.
            Err(_) => break,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let token = *next_token;
        *next_token += 1;
        let mut conn = Conn::new(stream, shared.clock.now());
        let refusal = if shared.draining.load(Ordering::SeqCst) {
            shared.counters.inc_refused();
            Some(Response::Error {
                kind: ErrorKind::Draining,
                message: "server is draining for shutdown".into(),
            })
        } else {
            let active = shared.active.load(Ordering::SeqCst);
            if active >= shared.cfg.max_connections {
                shared.counters.inc_refused();
                Some(Response::Error {
                    kind: ErrorKind::Overloaded,
                    message: format!("server at its connection limit ({active} active)"),
                })
            } else {
                None
            }
        };
        match refusal {
            Some(resp) => {
                if !queue_reply(
                    &mut conn,
                    PROTOCOL_V1,
                    CONNECTION_SCOPED_ID,
                    &resp,
                    false,
                    shared,
                ) {
                    continue;
                }
                conn.phase = Phase::Finishing { linger: true };
                if !advance_phase(&mut conn, shared) {
                    continue;
                }
            }
            None => {
                conn.served = true;
                let _ = conn.stream.set_nodelay(true);
                shared.counters.inc_accepted();
                shared.active.fetch_add(1, Ordering::SeqCst);
            }
        }
        let interest = desired_interest(&conn);
        if epoll.add(conn.stream.as_raw_fd(), interest, token).is_err() {
            if conn.served {
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
            continue;
        }
        conn.interest = interest;
        conns.insert(token, conn);
    }
}

fn desired_interest(conn: &Conn) -> u32 {
    let mut interest = 0;
    if !conn.flushed() {
        interest |= EPOLLOUT;
    }
    if !conn.peer_eof {
        interest |= EPOLLIN | EPOLLRDHUP;
    }
    interest
}

fn sync_interest(epoll: &Epoll, token: u64, conn: &mut Conn) {
    let want = desired_interest(conn);
    if want != conn.interest && epoll.modify(conn.stream.as_raw_fd(), want, token).is_ok() {
        conn.interest = want;
    }
}

/// Releases everything a closing connection still holds: its epoll
/// registration, the busy counts of unflushed replies and of
/// submissions whose completions have not landed (those completions
/// are dropped on arrival), and its `active` slot.
fn close_conn(epoll: &Epoll, conn: Conn, shared: &ServerShared) {
    let _ = epoll.delete(conn.stream.as_raw_fd());
    let unreleased = conn
        .markers
        .iter()
        .filter(|m| m.end > conn.sent_total && m.counts_busy)
        .count()
        + conn.inflight;
    for _ in 0..unreleased {
        shared.busy.fetch_sub(1, Ordering::SeqCst);
    }
    if conn.served {
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
    // Dropping the stream closes its fd.
}
