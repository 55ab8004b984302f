//! Plain-TCP front-end: JSON lines over a socket, with bounded reads
//! and typed failure replies.
//!
//! This is the only place the service speaks JSON: one request object
//! per line in, one reply object per line out, so `nc` works as a
//! client:
//!
//! ```text
//! $ echo '{"type":"fleet","nodes":12,"samples_per_node":60}' | nc 127.0.0.1 7171
//! {"type":"reply","ok":true,"samples":[...],...}
//! ```
//!
//! Each connection gets a reader thread; requests from one connection
//! are served in order, connections are independent, and admission
//! control (not the socket layer) decides what queues or sheds.
//!
//! The socket layer *does* enforce its own hygiene
//! ([`TransportConfig`]): reads poll on a timeout so a stalled peer is
//! cut off with a typed [`kind::PEER_STALLED`] reply after a bounded
//! idle budget, a line that outgrows [`TransportConfig::max_line_bytes`]
//! gets [`kind::LINE_TOO_LONG`] and a disconnect instead of unbounded
//! buffering, connections beyond [`TransportConfig::max_connections`]
//! are turned away with [`kind::OVER_CAPACITY`], and
//! [`Server::shutdown`] drains live connections (finish the current
//! line, then close) instead of abandoning their threads.
//!
//! A turned-away peer gets its reply line in one write and a
//! half-close, and its socket then *lingers*: one background thread
//! reads and discards what the peer had sent, at most 64 KiB over at
//! most 320 ms, before closing it. Closing a socket with unread input
//! sends a reset, which can destroy the reply before the peer reads
//! it; draining first closes cleanly.
//!
//! On the client side, [`Client::request`] bounds its reply read and
//! distinguishes a silent server ([`ClientError::Timeout`]) from a
//! vanished one ([`ClientError::Eof`]); [`call_with_retry`] layers a
//! deterministic, attempt-indexed backoff schedule ([`RetryPolicy`],
//! seeded — no wall-clock reads in the decision path) on top, which is
//! what turns a chaos-dropped reply or a shard panic into a
//! bitwise-identical retry.

use crate::proto::{is_shard_panic, kind, FleetReply};
use crate::service::FleetService;
use crate::timing::millis;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Reads a rejected peer's socket gets before it closes. With
/// [`LINGER_CHUNK_BYTES`] and [`LINGER_POLL_MS`] this bounds the drain
/// at 64 KiB and 320 ms per peer; it ends sooner when the peer closes.
const LINGER_READS: u32 = 16;
/// Largest read while a rejected peer's socket lingers.
const LINGER_CHUNK_BYTES: usize = 4096;
/// Longest wait of one read while a rejected peer's socket lingers.
const LINGER_POLL_MS: u64 = 20;
/// Rejected peers waiting for the lingering thread; one rejected while
/// the queue is full is closed at once.
const LINGER_QUEUE: usize = 16;

/// Socket-layer bounds. Defaults are server-oriented; clients waiting
/// on big fleet computations use [`TransportConfig::client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Socket read timeout per poll tick, in milliseconds.
    pub poll_ms: u64,
    /// Dataless poll ticks tolerated before the peer counts as
    /// stalled; the idle budget is `poll_ms × stall_polls`.
    pub stall_polls: u32,
    /// Longest accepted line, in bytes (replies carrying full Fig. 1
    /// sample sets run to tens of MB, hence the generous default).
    pub max_line_bytes: usize,
    /// Simultaneous connections served before new ones are rejected.
    pub max_connections: usize,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            poll_ms: 50,
            stall_polls: 200, // 10 s idle budget
            max_line_bytes: 64 << 20,
            max_connections: 64,
        }
    }
}

impl TransportConfig {
    /// Client-side defaults: same bounds, but a far longer stall
    /// budget, because "the server is still simulating my fleet" is
    /// not a stall.
    pub fn client() -> TransportConfig {
        TransportConfig {
            stall_polls: 2400, // 120 s reply budget
            ..TransportConfig::default()
        }
    }
}

/// Why a client call failed, separated so callers (and the CLI's
/// `--connect`) can report a silent server differently from a
/// vanished one.
#[derive(Debug)]
pub enum ClientError {
    /// Connect or write failed outright.
    Io(std::io::Error),
    /// The reply did not arrive inside the stall budget.
    Timeout { waited_ms: u64 },
    /// The server closed the connection before a full reply line.
    Eof,
    /// The reply outgrew the line bound.
    TooLong { limit_bytes: usize },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Timeout { waited_ms } => {
                write!(f, "timed out after ~{waited_ms} ms waiting for the reply")
            }
            ClientError::Eof => {
                f.write_str("connection closed before a reply arrived (unexpected eof)")
            }
            ClientError::TooLong { limit_bytes } => {
                write!(f, "reply exceeded the {limit_bytes}-byte line bound")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// What one bounded line read produced.
enum LineRead {
    Line(String),
    Eof,
    Stalled,
    TooLong,
    Stopped,
    Failed(std::io::Error),
}

/// A newline-framed reader with a length bound and a poll-counted
/// stall budget — no wall-clock reads, only counted timeouts.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    scanned: usize,
    cfg: TransportConfig,
}

impl LineReader {
    fn new(stream: TcpStream, cfg: TransportConfig) -> std::io::Result<LineReader> {
        stream.set_read_timeout(Some(millis(cfg.poll_ms.max(1))))?;
        Ok(LineReader {
            stream,
            buf: Vec::new(),
            scanned: 0,
            cfg,
        })
    }

    /// Reads one `\n`-terminated line. `stop` (the server's shutdown
    /// flag) is checked between polls so draining never waits out the
    /// whole stall budget.
    fn read_line(&mut self, stop: Option<&AtomicBool>) -> LineRead {
        let mut idle_polls = 0u32;
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(nl) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + nl;
                if end > self.cfg.max_line_bytes {
                    return LineRead::TooLong;
                }
                let mut line: Vec<u8> = self.buf.drain(..=end).collect();
                self.scanned = 0;
                while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                    line.pop();
                }
                return LineRead::Line(String::from_utf8_lossy(&line).into_owned());
            }
            self.scanned = self.buf.len();
            if self.buf.len() > self.cfg.max_line_bytes {
                return LineRead::TooLong;
            }
            if stop.is_some_and(|s| s.load(Ordering::SeqCst)) {
                return LineRead::Stopped;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return LineRead::Eof,
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    idle_polls = 0;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    idle_polls += 1;
                    if idle_polls >= self.cfg.stall_polls.max(1) {
                        return LineRead::Stalled;
                    }
                }
                Err(e) => return LineRead::Failed(e),
            }
        }
    }
}

/// A running TCP server.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_loop: Option<JoinHandle<()>>,
    lingerer: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// Binds `addr` with default transport bounds. See [`serve_with`].
pub fn serve(service: Arc<FleetService>, addr: &str) -> std::io::Result<Server> {
    serve_with(service, addr, TransportConfig::default())
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves
/// `service` until [`Server::shutdown`] or drop, under the given
/// transport bounds.
pub fn serve_with(
    service: Arc<FleetService>,
    addr: &str,
    cfg: TransportConfig,
) -> std::io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let active = Arc::new(AtomicUsize::new(0));
    let (rejected, lingering) = sync_channel(LINGER_QUEUE);
    let linger_stop = Arc::clone(&stop);
    let lingerer = std::thread::spawn(move || linger_loop(&lingering, &linger_stop));
    let accept_stop = Arc::clone(&stop);
    let accept_conns = Arc::clone(&conns);
    let accept_loop = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = conn else { continue };
            // Reap finished connection threads so the handle list and
            // the thread count stay bounded by max_connections.
            {
                // fs2-lint: allow(no-panic-service) -- lock poisoning, not peer input: the list only holds join handles
                let mut held = accept_conns.lock().expect("connection list poisoned");
                let mut live = Vec::with_capacity(held.len());
                for h in held.drain(..) {
                    if h.is_finished() {
                        let _ = h.join();
                    } else {
                        live.push(h);
                    }
                }
                *held = live;
            }
            if active.load(Ordering::SeqCst) >= cfg.max_connections {
                // Typed over-capacity rejection in one write, then a
                // half-close; the lingering thread closes the socket
                // once the peer's input is drained (or drops it at
                // once when its queue is full).
                let mut line = FleetReply::failure_kind(
                    kind::OVER_CAPACITY,
                    format!(
                        "rejected: server already serving {} connections",
                        cfg.max_connections
                    ),
                )
                .to_line();
                line.push('\n');
                if stream.write_all(line.as_bytes()).is_ok()
                    && stream.shutdown(Shutdown::Write).is_ok()
                {
                    let _ = rejected.try_send(stream);
                }
                continue;
            }
            active.fetch_add(1, Ordering::SeqCst);
            let service = Arc::clone(&service);
            let conn_stop = Arc::clone(&accept_stop);
            let conn_active = Arc::clone(&active);
            let handle = std::thread::spawn(move || {
                serve_connection(&service, stream, cfg, &conn_stop);
                conn_active.fetch_sub(1, Ordering::SeqCst);
            });
            // fs2-lint: allow(no-panic-service) -- lock poisoning, not peer input
            let mut held = accept_conns.lock().expect("connection list poisoned");
            held.push(handle);
        }
    });
    Ok(Server {
        addr,
        stop,
        accept_loop: Some(accept_loop),
        lingerer: Some(lingerer),
        conns,
    })
}

/// The lingering thread: drains each rejected peer in turn until the
/// accept loop drops its end of the queue. Once the server stops,
/// queued peers are closed without draining.
fn linger_loop(rejected: &Receiver<TcpStream>, stop: &AtomicBool) {
    for mut stream in rejected {
        if stop.load(Ordering::SeqCst)
            || stream
                .set_read_timeout(Some(millis(LINGER_POLL_MS)))
                .is_err()
        {
            continue;
        }
        let mut chunk = [0u8; LINGER_CHUNK_BYTES];
        for _ in 0..LINGER_READS {
            match stream.read(&mut chunk) {
                // The peer closed: nothing is left unread.
                Ok(0) => break,
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
            if stop.load(Ordering::SeqCst) {
                break;
            }
        }
    }
}

fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn serve_connection(
    service: &FleetService,
    stream: TcpStream,
    cfg: TransportConfig,
    stop: &AtomicBool,
) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(writer);
    let Ok(mut reader) = LineReader::new(stream, cfg) else {
        return;
    };
    loop {
        match reader.read_line(Some(stop)) {
            LineRead::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let reply = service.handle_line(&line);
                // Chaos: a scheduled mid-stream disconnect drops the
                // reply on the floor and closes the connection — the
                // client's retry path has to absorb it.
                if service.chaos().is_some_and(|c| c.take_drop_reply()) {
                    return;
                }
                if write_line(&mut writer, &reply).is_err() {
                    return;
                }
            }
            // A truncated final frame (bytes, no newline, then close)
            // is an Eof: never served, never hangs.
            LineRead::Eof | LineRead::Stopped | LineRead::Failed(_) => return,
            LineRead::Stalled => {
                let budget = cfg.poll_ms.saturating_mul(u64::from(cfg.stall_polls));
                let _ = write_line(
                    &mut writer,
                    &FleetReply::failure_kind(
                        kind::PEER_STALLED,
                        format!("disconnected: no complete request line in {budget} ms"),
                    )
                    .to_line(),
                );
                return;
            }
            LineRead::TooLong => {
                let _ = write_line(
                    &mut writer,
                    &FleetReply::failure_kind(
                        kind::LINE_TOO_LONG,
                        format!(
                            "disconnected: request line exceeded {} bytes",
                            cfg.max_line_bytes
                        ),
                    )
                    .to_line(),
                );
                return;
            }
        }
    }
}

impl Server {
    /// The bound address (resolves `:0` to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, joins the accept loop, and drains live
    /// connections: each finishes the line it is serving, then closes.
    pub fn shutdown(mut self) {
        self.stop_and_drain();
    }

    fn stop_and_drain(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag on a connection;
        // poke it so it wakes up and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_loop.take() {
            let _ = h.join();
        }
        // The accept loop has dropped its end of the queue, so the
        // lingering thread ends within one read.
        if let Some(h) = self.lingerer.take() {
            let _ = h.join();
        }
        // fs2-lint: allow(no-panic-service) -- lock poisoning, not peer input
        let mut conns = self.conns.lock().expect("connection list poisoned");
        for h in conns.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_loop.is_some() {
            self.stop_and_drain();
        }
    }
}

/// A persistent client connection with bounded reply reads.
pub struct Client {
    reader: LineReader,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Client::connect_with(addr, TransportConfig::client())
    }

    pub fn connect_with(addr: &str, cfg: TransportConfig) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: LineReader::new(stream, cfg)?,
            writer,
        })
    }

    /// Sends one request line and blocks — boundedly — for the reply
    /// line. A stalled server is [`ClientError::Timeout`]; a closed
    /// connection is [`ClientError::Eof`]; the two are deliberately
    /// distinct so retry loops and the CLI can say which happened.
    pub fn request(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        match self.reader.read_line(None) {
            LineRead::Line(reply) => Ok(reply),
            LineRead::Eof | LineRead::Stopped => Err(ClientError::Eof),
            LineRead::Stalled => Err(ClientError::Timeout {
                waited_ms: self
                    .reader
                    .cfg
                    .poll_ms
                    .saturating_mul(u64::from(self.reader.cfg.stall_polls)),
            }),
            LineRead::TooLong => Err(ClientError::TooLong {
                limit_bytes: self.reader.cfg.max_line_bytes,
            }),
            LineRead::Failed(e) => Err(ClientError::Io(e)),
        }
    }
}

/// Reconnect-and-retry schedule for [`call_with_retry`]. The backoff
/// for attempt `i` is a pure function of `(seed, i)` — exponential
/// growth with seeded jitter, no wall-clock in the decision path — so
/// a retry sequence is exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (min 1).
    pub attempts: u32,
    /// Backoff before the first retry, in ms; doubles per attempt.
    pub base_ms: u64,
    /// Ceiling on any single backoff, in ms.
    pub cap_ms: u64,
    /// Seeds the jitter draw.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base_ms: 25,
            cap_ms: 400,
            seed: 0xF1EE7,
        }
    }
}

impl RetryPolicy {
    /// Milliseconds to wait after failed attempt `attempt` (0-based).
    /// Deterministic: same `(seed, attempt)` → same delay, drawn from
    /// `[ceiling/2, ceiling]` where the ceiling doubles per attempt up
    /// to `cap_ms`.
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        let ceiling = self
            .base_ms
            .max(1)
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cap_ms.max(1));
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        rng.gen_range(ceiling / 2..=ceiling)
    }
}

/// One-shot convenience: connect, send, receive, disconnect.
pub fn call(addr: &str, line: &str) -> Result<String, ClientError> {
    Client::connect(addr)?.request(line)
}

/// [`call`], retried on a fresh connection per [`RetryPolicy`]: the
/// resilient client path. Timeouts, eofs (dropped replies, mid-stream
/// disconnects) and connect errors retry, and so does a
/// [`kind::SHARD_PANIC`] reply, whose panic is gone by the next
/// attempt. When the attempts run out, the last reply line is returned
/// if any attempt got one, and otherwise the last error.
pub fn call_with_retry(addr: &str, line: &str, policy: RetryPolicy) -> Result<String, ClientError> {
    let mut last_reply = None;
    let mut last_err = ClientError::Eof;
    for attempt in 0..policy.attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(millis(policy.backoff_ms(attempt - 1)));
        }
        match Client::connect(addr).and_then(|mut c| c.request(line)) {
            Ok(reply) if is_shard_panic(&reply) => last_reply = Some(reply),
            Ok(reply) => return Ok(reply),
            Err(e) => last_err = e,
        }
    }
    last_reply.ok_or(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{FleetReply, FleetRequest};
    use crate::service::ServiceConfig;

    fn small_req(seed: u64) -> FleetRequest {
        FleetRequest {
            nodes: 6,
            samples_per_node: 25,
            seed: Some(seed),
            ..FleetRequest::fig1()
        }
    }

    #[test]
    fn tcp_round_trip_serves_requests() {
        let service = Arc::new(FleetService::new(ServiceConfig::small()));
        let server = serve(service, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let req = small_req(3);
        let reply = FleetReply::from_line(&call(&addr, &req.to_line()).unwrap()).unwrap();
        assert!(reply.ok, "{:?}", reply.error);
        assert_eq!(reply.samples.len(), 6 * 25);
        // A persistent client can pipeline several requests.
        let mut client = Client::connect(&addr).unwrap();
        for _ in 0..3 {
            let line = client.request(&req.to_line()).unwrap();
            assert!(FleetReply::from_line(&line).unwrap().ok);
        }
        server.shutdown();
    }

    #[test]
    fn garbage_lines_do_not_kill_the_connection() {
        let service = Arc::new(FleetService::new(ServiceConfig::small()));
        let server = serve(service, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        let reply = FleetReply::from_line(&client.request("{broken").unwrap()).unwrap();
        assert!(!reply.ok);
        // Same connection still serves a valid request afterwards.
        let reply =
            FleetReply::from_line(&client.request(&small_req(1).to_line()).unwrap()).unwrap();
        assert!(reply.ok);
        server.shutdown();
    }

    #[test]
    fn oversized_lines_get_a_typed_reply_then_disconnect() {
        let service = Arc::new(FleetService::new(ServiceConfig::small()));
        let server = serve_with(
            service,
            "127.0.0.1:0",
            TransportConfig {
                max_line_bytes: 1024,
                ..TransportConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        let huge = "x".repeat(4096);
        let reply = FleetReply::from_line(&client.request(&huge).unwrap()).unwrap();
        assert!(!reply.ok);
        assert_eq!(reply.error_kind.as_deref(), Some(kind::LINE_TOO_LONG));
        // The server hung up afterwards: the next request fails typed
        // (eof on read, or a broken pipe if the write loses the race).
        assert!(matches!(
            client.request(&small_req(1).to_line()),
            Err(ClientError::Eof | ClientError::Io(_))
        ));
        server.shutdown();
    }

    #[test]
    fn stalled_peers_are_disconnected_with_a_typed_reply() {
        let service = Arc::new(FleetService::new(ServiceConfig::small()));
        let server = serve_with(
            service,
            "127.0.0.1:0",
            TransportConfig {
                poll_ms: 5,
                stall_polls: 4, // ~20 ms idle budget
                ..TransportConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        // Send half a frame and then go quiet: the server must cut us
        // off instead of pinning the connection thread forever.
        let mut client = Client::connect(&addr).unwrap();
        client.writer.write_all(b"{\"type\":\"fl").unwrap();
        client.writer.flush().unwrap();
        let reply = match client.reader.read_line(None) {
            LineRead::Line(l) => FleetReply::from_line(&l).unwrap(),
            other => panic!(
                "expected a stall reply, got {:?}",
                std::mem::discriminant(&other)
            ),
        };
        assert!(!reply.ok);
        assert_eq!(reply.error_kind.as_deref(), Some(kind::PEER_STALLED));
        server.shutdown();
    }

    #[test]
    fn connections_beyond_the_cap_are_rejected_typed() {
        let service = Arc::new(FleetService::new(ServiceConfig::small()));
        let server = serve_with(
            service,
            "127.0.0.1:0",
            TransportConfig {
                max_connections: 1,
                ..TransportConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut first = Client::connect(&addr).unwrap();
        // One full round trip guarantees the server accepted us (TCP
        // connect alone can succeed from the backlog).
        assert!(
            FleetReply::from_line(&first.request(&small_req(2).to_line()).unwrap())
                .unwrap()
                .ok
        );
        let mut second = Client::connect(&addr).unwrap();
        let reply =
            FleetReply::from_line(&second.request(&small_req(2).to_line()).unwrap()).unwrap();
        assert!(!reply.ok);
        assert_eq!(reply.error_kind.as_deref(), Some(kind::OVER_CAPACITY));
        // The first connection is unaffected.
        assert!(
            FleetReply::from_line(&first.request(&small_req(2).to_line()).unwrap())
                .unwrap()
                .ok
        );
        server.shutdown();
    }

    #[test]
    fn a_rejected_peer_that_pipelines_two_lines_reads_its_typed_reply() {
        let service = Arc::new(FleetService::new(ServiceConfig::small()));
        let server = serve_with(
            service,
            "127.0.0.1:0",
            TransportConfig {
                max_connections: 1,
                ..TransportConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let mut first = Client::connect(&addr).unwrap();
        assert!(
            FleetReply::from_line(&first.request(&small_req(2).to_line()).unwrap())
                .unwrap()
                .ok
        );
        // A raw peer pipelines two request lines, reads the rejection,
        // and then writes once more, when the server has certainly
        // turned it away. Every write must land, and the stream must
        // end cleanly after the one reply instead of resetting.
        let line = format!("{}\n", small_req(2).to_line());
        let mut raw = TcpStream::connect(&addr).unwrap();
        raw.set_read_timeout(Some(millis(5_000))).unwrap();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        raw.write_all(line.as_bytes()).unwrap();
        raw.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        std::io::BufRead::read_line(&mut reader, &mut reply).unwrap();
        raw.write_all(line.as_bytes()).unwrap();
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "");
        let reply = FleetReply::from_line(reply.trim_end()).unwrap();
        assert!(!reply.ok);
        assert_eq!(reply.error_kind.as_deref(), Some(kind::OVER_CAPACITY));
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_live_connections_and_clients_see_eof() {
        let service = Arc::new(FleetService::new(ServiceConfig::small()));
        let server = serve(service, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        assert!(
            FleetReply::from_line(&client.request(&small_req(4).to_line()).unwrap())
                .unwrap()
                .ok
        );
        // Shutdown with the connection still open must return (the
        // connection thread observes the stop flag within one poll)…
        server.shutdown();
        // …and the next request fails typed — eof, or a broken pipe if
        // the write loses the race — never a hang.
        assert!(matches!(
            client.request(&small_req(4).to_line()),
            Err(ClientError::Eof | ClientError::Io(_))
        ));
    }

    #[test]
    fn backoff_schedule_is_deterministic_bounded_and_growing() {
        let policy = RetryPolicy::default();
        let again = RetryPolicy::default();
        let mut ceiling = policy.base_ms;
        for attempt in 0..8 {
            let d = policy.backoff_ms(attempt);
            assert_eq!(d, again.backoff_ms(attempt), "attempt {attempt} not pure");
            let cap = ceiling.min(policy.cap_ms);
            assert!(
                d >= cap / 2 && d <= cap,
                "attempt {attempt}: {d} outside [{}, {cap}]",
                cap / 2
            );
            ceiling = ceiling.saturating_mul(2);
        }
        // Different seeds → (almost surely) different jitter.
        let other = RetryPolicy {
            seed: 9,
            ..RetryPolicy::default()
        };
        assert!((0..8).any(|a| other.backoff_ms(a) != policy.backoff_ms(a)));
    }

    #[test]
    fn client_errors_name_their_cause() {
        let timeout = ClientError::Timeout { waited_ms: 500 };
        assert!(timeout.to_string().contains("timed out"));
        assert!(ClientError::Eof.to_string().contains("eof"));
        let long = ClientError::TooLong { limit_bytes: 64 };
        assert!(long.to_string().contains("64"));
    }
}
