//! The networked front door: `QPPWIRE-v2` over TCP with connection-level
//! resilience and an exactly-reconciled graceful drain.
//!
//! Everything below is dependency-free blocking I/O on `std::net`:
//!
//! - **Acceptor + on-demand workers.** One acceptor thread polls a
//!   non-blocking listener and hands sockets to a `sync_channel` of 32;
//!   connection workers, each owning one connection at a time, start as
//!   sockets need them: a socket that finds no idle worker starts one, up
//!   to `max_connections`, after which sockets wait in the backlog. A
//!   connection that arrives with the backlog full is *refused* with a
//!   typed [`QppError::Overloaded`] error frame and closed — admission
//!   control at the socket layer, mirroring the in-process front door.
//! - **The connection thread serves.** A request goes through
//!   [`TenantServer::predict`]'s path: on an idle tenant server the
//!   connection worker runs the prediction itself, with no hand-off to a
//!   tenant worker; under load it queues and waits its weighted-fair turn.
//! - **Connection-level resilience.** Per-connection read deadlines with
//!   slow-client (slowloris) eviction — a peer that starts a frame and
//!   stalls past [`NetConfig::read_timeout`] is dropped, as is one that
//!   idles far past it between frames — write timeouts on every reply,
//!   a hard frame-size cap, and malformed-frame rejection that answers
//!   with a typed error and *keeps the worker alive*: a session panic is
//!   caught per connection, counted, and the worker moves on.
//! - **Graceful drain.** [`NetServer::shutdown`] stops accepting, lets
//!   every in-flight request run to completion (bounded by
//!   [`NetConfig::drain`]), joins all threads, and returns a ledger that
//!   reconciles exactly: `accepted == served + shed + missed + aborted`.
//!   Every request takes exactly one of the four exits; malformed frames
//!   are counted separately because they never became requests.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qpp::{Prediction, QppError};

use crate::codec::{
    decode_header, ErrorFrame, Frame, Request, Response, DEFAULT_MAX_FRAME, HEADER_LEN,
};
use crate::tenant::TenantServer;

/// Granularity of the read loop's deadline checks: the socket read
/// timeout is this tick, and elapsed-time bookkeeping runs between ticks.
const READ_TICK: Duration = Duration::from_millis(10);

/// Acceptor poll interval while the listener has nothing for us.
const ACCEPT_TICK: Duration = Duration::from_millis(2);

/// A connection idling *between* frames is closed after this many read
/// timeouts' worth of silence (mid-frame stalls get exactly one).
const IDLE_TIMEOUTS: u32 = 20;

/// Accepted connections that may wait for a free worker before new
/// arrivals are refused with a typed `Overloaded` frame.
const ACCEPT_BACKLOG: usize = 32;

/// Sizing and resilience knobs for [`NetServer::bind`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Most connection workers, each owning one live connection at a time
    /// — the hard cap on concurrent sessions. Workers start as
    /// connections arrive, not at bind.
    pub max_connections: usize,
    /// Longest a peer may take to finish a frame it started (and the
    /// slowloris eviction budget).
    pub read_timeout: Duration,
    /// Socket write timeout for replies; a peer that won't drain its
    /// receive buffer loses the connection.
    pub write_timeout: Duration,
    /// Budget for [`NetServer::shutdown`] to drain in-flight requests
    /// before abandoning their replies (counted `aborted`).
    pub drain: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 8,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            drain: Duration::from_secs(5),
        }
    }
}

/// How a request left the front door. Exactly one per accepted request —
/// the invariant the shutdown reconciliation pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    /// A prediction was produced *and delivered*.
    Served,
    /// Refused at admission with `Overloaded`/`TenantOverloaded`.
    Shed,
    /// The request's deadline expired before any tier could answer.
    Missed,
    /// Everything else: failed requests (unknown tenant, model errors),
    /// replies the peer never read, drain-deadline abandonments.
    Aborted,
}

impl Disposition {
    /// The ledger counter this exit increments.
    fn counter(self, ledger: &mut NetStatsSnapshot) -> &mut u64 {
        match self {
            Disposition::Served => &mut ledger.served,
            Disposition::Shed => &mut ledger.shed,
            Disposition::Missed => &mut ledger.missed,
            Disposition::Aborted => &mut ledger.aborted,
        }
    }
}

fn classify(error: &QppError) -> Disposition {
    match error {
        QppError::Overloaded { .. } | QppError::TenantOverloaded { .. } => Disposition::Shed,
        QppError::DeadlineExceeded { .. } => Disposition::Missed,
        _ => Disposition::Aborted,
    }
}

/// The front door's ledger: the state one lock guards, and its
/// point-in-time copy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    /// Connections the listener accepted.
    pub conns_accepted: u64,
    /// Connections refused because the backlog was full (each got a
    /// best-effort `Overloaded` error frame) or arrived during shutdown.
    pub conns_refused: u64,
    /// Connections dropped for stalling mid-frame past the read timeout
    /// (slowloris) or idling far past it between frames.
    pub conns_evicted: u64,
    /// Session panics caught by the worker supervisor; the worker thread
    /// survived every one of these.
    pub session_panics: u64,
    /// Connection workers started: one per socket that found no idle
    /// worker, never more than `max_connections`.
    pub workers_started: u64,
    /// Frames that failed header validation or payload decoding; never
    /// counted as accepted requests.
    pub malformed_frames: u64,
    /// Well-formed requests handed to the tenant server.
    pub accepted: u64,
    /// Requests answered with a prediction that reached the peer.
    pub served: u64,
    /// Requests refused at admission (global or tenant bulkhead).
    pub shed: u64,
    /// Requests whose deadline expired before any tier answered.
    pub missed: u64,
    /// Requests that failed for any other reason or whose reply could
    /// not be delivered (including drain-deadline abandonment).
    pub aborted: u64,
}

impl NetStatsSnapshot {
    /// The exact drain invariant: every accepted request took exactly one
    /// of the four exits.
    pub fn reconciles(&self) -> bool {
        self.accepted == self.served + self.shed + self.missed + self.aborted
    }
}

struct NetInner {
    server: Arc<TenantServer>,
    config: NetConfig,
    ledger: Mutex<NetStatsSnapshot>,
    shutdown: AtomicBool,
    drain_deadline: Mutex<Option<Instant>>,
    /// Workers back from a session and not yet handed a socket. Only the
    /// acceptor takes from it, so a socket never counts on a worker that
    /// another socket already claimed.
    idle_workers: AtomicUsize,
}

/// A TCP front door over a [`TenantServer`], speaking `QPPWIRE-v2`.
///
/// Bind with [`NetServer::bind`], connect with [`Client`], stop with
/// [`NetServer::shutdown`] (or drop, which drains with the same
/// guarantees and discards the report).
pub struct NetServer {
    inner: Arc<NetInner>,
    local_addr: SocketAddr,
    /// The acceptor returns the connection workers it started.
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 to let the OS pick) and starts the
    /// acceptor over `server`; connection workers start as sockets arrive.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        server: Arc<TenantServer>,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(NetInner {
            server,
            config,
            ledger: Mutex::default(),
            shutdown: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            idle_workers: AtomicUsize::new(0),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("qpp-net-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &inner))
                .expect("spawning the acceptor thread")
        };
        Ok(NetServer {
            inner,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The live ledger; for the exactly-reconciled one, use the snapshot
    /// [`NetServer::shutdown`] returns.
    pub fn stats(&self) -> NetStatsSnapshot {
        *self.inner.ledger.lock().unwrap()
    }

    /// Graceful drain, idempotent: stop accepting, let every in-flight
    /// request finish (bounded by [`NetConfig::drain`] once the flag is
    /// up), join the acceptor and all workers, and return the final
    /// ledger — which reconciles exactly:
    /// `accepted == served + shed + missed + aborted`.
    ///
    /// The [`TenantServer`] underneath is *not* shut down: it belongs to
    /// the caller (a healer or another front door may still be using it).
    pub fn shutdown(&mut self) -> NetStatsSnapshot {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let mut deadline = self.inner.drain_deadline.lock().unwrap();
            if deadline.is_none() {
                *deadline = Some(Instant::now() + self.inner.config.drain);
            }
        }
        // The acceptor's exit closes the backlog; workers drain what is
        // queued (those sessions see the shutdown flag and close unread).
        let workers = match self.acceptor.take().map(JoinHandle::join) {
            Some(Ok(workers)) => workers,
            Some(Err(p)) => std::panic::resume_unwind(p),
            None => Vec::new(),
        };
        for worker in workers {
            if let Err(p) = worker.join() {
                std::panic::resume_unwind(p);
            }
        }
        self.stats()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts until shutdown, starting a connection worker for each queued
/// socket that finds none idle, and returns the workers it started. It
/// owns the backlog's only sender: its exit closes the channel, and
/// workers drain what is queued before they stop.
fn acceptor_loop(listener: &TcpListener, inner: &Arc<NetInner>) -> Vec<JoinHandle<()>> {
    let (backlog, pending) = mpsc::sync_channel(ACCEPT_BACKLOG);
    let pending = Arc::new(Mutex::new(pending));
    let mut workers = Vec::new();
    while !inner.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                inner.ledger.lock().unwrap().conns_accepted += 1;
                match backlog.try_send(stream) {
                    Ok(()) => {
                        let claimed = inner.idle_workers.fetch_update(
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                            |idle| idle.checked_sub(1),
                        );
                        if claimed.is_err() && workers.len() < inner.config.max_connections.max(1) {
                            workers.push(start_worker(workers.len(), &pending, inner));
                        }
                    }
                    Err(TrySendError::Full(stream) | TrySendError::Disconnected(stream)) => {
                        inner.ledger.lock().unwrap().conns_refused += 1;
                        refuse_connection(stream, inner);
                    }
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
    workers
}

fn start_worker(
    i: usize,
    pending: &Arc<Mutex<Receiver<TcpStream>>>,
    inner: &Arc<NetInner>,
) -> JoinHandle<()> {
    inner.ledger.lock().unwrap().workers_started += 1;
    let (pending, inner) = (Arc::clone(pending), Arc::clone(inner));
    std::thread::Builder::new()
        .name(format!("qpp-net-worker-{i}"))
        .spawn(move || worker_loop(&pending, &inner))
        .expect("spawning a connection worker")
}

/// Best-effort typed refusal for a connection the backlog cannot hold:
/// the peer learns it was overload, not a protocol error.
fn refuse_connection(mut stream: TcpStream, inner: &NetInner) {
    let _ = stream.set_write_timeout(Some(inner.config.write_timeout));
    let frame = Frame::Error(ErrorFrame {
        id: 0,
        error: QppError::Overloaded {
            queue_depth: ACCEPT_BACKLOG,
        },
    });
    let _ = stream.write_all(&frame.encode());
}

/// A worker is started for a socket already queued, so it receives once
/// before it first counts itself idle.
fn worker_loop(pending: &Mutex<Receiver<TcpStream>>, inner: &NetInner) {
    loop {
        // A statement of its own, so the lock is released before the
        // session runs.
        let Ok(stream) = pending.lock().unwrap().recv() else {
            return;
        };
        // One catch_unwind per session: a panic kills the connection,
        // never the worker — "no worker thread dies" is load-bearing for
        // a pool that never starts more than `max_connections`.
        if catch_unwind(AssertUnwindSafe(|| handle_session(stream, inner))).is_err() {
            inner.ledger.lock().unwrap().session_panics += 1;
        }
        inner.idle_workers.fetch_add(1, Ordering::SeqCst);
    }
}

/// What one attempt to read a frame from the peer produced.
enum ReadEvent {
    /// A complete frame (header + payload), ready to decode.
    Frame(Vec<u8>),
    /// Shutdown observed while idle between frames: close cleanly.
    ShutdownIdle,
    /// The peer closed cleanly between frames.
    Eof,
    /// Mid-frame stall or excessive idling: evict the peer.
    Evicted,
    /// The header failed validation; the stream can no longer be framed.
    Corrupt,
    /// Read error or mid-frame disconnect.
    Broken,
}

fn read_frame(stream: &mut TcpStream, inner: &NetInner) -> ReadEvent {
    let mut buf: Vec<u8> = Vec::with_capacity(HEADER_LEN);
    let mut payload_len: Option<usize> = None;
    let mut frame_started: Option<Instant> = None;
    let idle_started = Instant::now();
    let idle_budget = inner.config.read_timeout * IDLE_TIMEOUTS;
    let mut scratch = [0u8; 4096];
    loop {
        let target = HEADER_LEN + payload_len.unwrap_or(0);
        if buf.len() >= target {
            if payload_len.is_none() {
                match decode_header(&buf, DEFAULT_MAX_FRAME) {
                    Ok((_kind, len)) => {
                        payload_len = Some(len);
                        continue;
                    }
                    Err(_) => return ReadEvent::Corrupt,
                }
            }
            return ReadEvent::Frame(buf);
        }
        if buf.is_empty() {
            if inner.shutdown.load(Ordering::SeqCst) {
                return ReadEvent::ShutdownIdle;
            }
            if idle_started.elapsed() > idle_budget {
                return ReadEvent::Evicted;
            }
        } else if let Some(t0) = frame_started {
            if t0.elapsed() > inner.config.read_timeout {
                return ReadEvent::Evicted;
            }
        }
        let want = (target - buf.len()).min(scratch.len());
        match stream.read(&mut scratch[..want]) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadEvent::Eof
                } else {
                    ReadEvent::Broken
                };
            }
            Ok(n) => {
                if frame_started.is_none() {
                    frame_started = Some(Instant::now());
                }
                buf.extend_from_slice(&scratch[..n]);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                // Read-timeout tick: loop back to re-check the frame
                // deadline, the idle budget, and the shutdown flag.
            }
            Err(_) => return ReadEvent::Broken,
        }
    }
}

fn handle_session(mut stream: TcpStream, inner: &NetInner) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let _ = stream.set_write_timeout(Some(inner.config.write_timeout));
    loop {
        match read_frame(&mut stream, inner) {
            ReadEvent::Frame(bytes) => {
                let (reply, disposition) = match Frame::decode(&bytes, DEFAULT_MAX_FRAME) {
                    Ok(Frame::Request(request)) => {
                        inner.ledger.lock().unwrap().accepted += 1;
                        serve_request(request, inner)
                    }
                    // The envelope was valid (the header passed), so the
                    // stream is still in sync: answer with a typed error
                    // and keep the connection. Never an accepted request.
                    Ok(_) | Err(_) => {
                        inner.ledger.lock().unwrap().malformed_frames += 1;
                        (malformed_reply(), None)
                    }
                };
                let delivered = stream.write_all(&reply.encode()).is_ok();
                if let Some(disposition) = disposition {
                    // A produced prediction the peer never received is an
                    // abort, not a serve — delivery is part of "served".
                    let actual = match (disposition, delivered) {
                        (Disposition::Served, false) => Disposition::Aborted,
                        (d, _) => d,
                    };
                    *actual.counter(&mut inner.ledger.lock().unwrap()) += 1;
                }
                if !delivered {
                    return;
                }
            }
            ReadEvent::ShutdownIdle | ReadEvent::Eof => return,
            ReadEvent::Evicted => {
                inner.ledger.lock().unwrap().conns_evicted += 1;
                return;
            }
            ReadEvent::Corrupt => {
                inner.ledger.lock().unwrap().malformed_frames += 1;
                // Best-effort diagnosis, then close: after a bad header
                // the byte stream cannot be re-framed.
                let _ = stream.write_all(&malformed_reply().encode());
                return;
            }
            ReadEvent::Broken => return,
        }
    }
}

fn malformed_reply() -> Frame {
    Frame::Error(ErrorFrame {
        id: 0,
        error: QppError::Internal("malformed request frame"),
    })
}

/// Runs one request through the tenant server — on this thread when the
/// server is idle, else queued — and produces the reply frame plus its
/// (pre-delivery) disposition.
fn serve_request(request: Request, inner: &NetInner) -> (Frame, Option<Disposition>) {
    let id = request.id;
    let deadline = request.deadline_micros.map(Duration::from_micros);
    let submitted = inner.server.serve_or_submit(
        &request.tenant,
        Arc::new(request.query),
        request.method,
        deadline,
    );
    let result = match submitted {
        Ok(pending) => {
            if inner.shutdown.load(Ordering::SeqCst) {
                // Draining: bound the wait by what is left of the budget.
                let remaining = inner
                    .drain_deadline
                    .lock()
                    .unwrap()
                    .map(|d| d.saturating_duration_since(Instant::now()))
                    .unwrap_or(inner.config.drain)
                    .max(Duration::from_millis(1));
                pending.wait_timeout(remaining)
            } else {
                pending.wait()
            }
        }
        Err(e) => Err(e),
    };
    match result {
        Ok(prediction) => (
            Frame::Response(Response { id, prediction }),
            Some(Disposition::Served),
        ),
        Err(error) => {
            let disposition = classify(&error);
            (Frame::Error(ErrorFrame { id, error }), Some(disposition))
        }
    }
}

/// A minimal blocking `QPPWIRE-v2` client for tests, benches, and the
/// README example: one request in flight at a time.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a [`NetServer`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// Sends one frame and blocks for the peer's single reply frame.
    pub fn call(&mut self, frame: &Frame) -> io::Result<Frame> {
        self.stream.write_all(&frame.encode())?;
        let bytes = read_reply(&mut self.stream)?;
        Frame::decode(&bytes, DEFAULT_MAX_FRAME)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends a prediction request; the outer `Result` is transport, the
    /// inner one is the server's typed answer.
    pub fn request(&mut self, request: Request) -> io::Result<Result<Prediction, QppError>> {
        match self.call(&Frame::Request(request))? {
            Frame::Response(r) => Ok(Ok(r.prediction)),
            Frame::Error(e) => Ok(Err(e.error)),
            Frame::Request(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "peer sent a request frame as a reply",
            )),
        }
    }
}

/// Blocking exact read of one frame (header, then payload) on a stream
/// with no read timeout set.
fn read_reply(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let mut buf = vec![0u8; HEADER_LEN];
    stream.read_exact(&mut buf)?;
    let (_kind, len) = decode_header(&buf, DEFAULT_MAX_FRAME)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    buf.extend_from_slice(&payload);
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispositions_classify_and_reconcile() {
        assert_eq!(
            classify(&QppError::Overloaded { queue_depth: 9 }),
            Disposition::Shed
        );
        assert_eq!(
            classify(&QppError::TenantOverloaded { tenant: "t".into() }),
            Disposition::Shed
        );
        assert_eq!(
            classify(&QppError::DeadlineExceeded { budget_secs: 0.1 }),
            Disposition::Missed
        );
        assert_eq!(
            classify(&QppError::Internal("unknown tenant")),
            Disposition::Aborted
        );
        let mut ledger = NetStatsSnapshot {
            accepted: 2,
            ..NetStatsSnapshot::default()
        };
        *Disposition::Served.counter(&mut ledger) += 1;
        *Disposition::Missed.counter(&mut ledger) += 1;
        assert!(ledger.reconciles());
        ledger.accepted += 1;
        assert!(!ledger.reconciles(), "an open request shows");
    }
}
