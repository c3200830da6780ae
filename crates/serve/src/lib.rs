//! # mlp-serve — live TCP front door for the wall-clock kernel
//!
//! Puts the simulator's event-application loop behind a socket. A
//! [`Server`] binds a `std::net` listener (the workspace is vendored-only:
//! no tokio, no hyper), runs a small accept/worker thread pool, and feeds
//! a bounded submission queue into the engine's live kernel
//! ([`mlp_engine::live::run_live`]) running on its own thread. Each
//! connection worker parks on a rendezvous channel until the kernel pushes
//! the request's terminal [`LiveOutcome`] back through the notify sink,
//! then writes the per-request latency down the wire in either the line
//! protocol or minimal HTTP/1.1 (see [`protocol`]).
//!
//! Threads and ownership:
//!
//! ```text
//!  acceptor ──TcpStream──▶ workers (N) ──Submission──▶ kernel thread
//!     │                      ▲   │ park on token          │
//!     │ polls listener +     │   └──────registers────▶ pending map
//!     │ shutdown flag        └──────LiveOutcome◀───── notify sink
//! ```
//!
//! Shutdown is cooperative: [`Server::stop`] (or SIGINT via
//! `mlp_engine::shutdown`) raises the flag; the acceptor stops accepting,
//! workers answer `DRAINING` to new work and exit when their connection
//! closes or times out, dropping the submission senders; the kernel then
//! drains in-flight requests (bounded by `drain_timeout`), reports
//! stragglers as `Dropped`, and returns the run's [`SimOutput`] — auditor
//! verdict included — to the `stop` caller.

pub mod loadgen;
pub mod protocol;

use mlp_engine::live::{LiveOptions, LiveOutcome, OutcomeKind, Submission};
use mlp_engine::profiling::warm_profiles;
use mlp_engine::sim::SimOutput;
use mlp_engine::ExperimentConfig;
use mlp_model::{RequestCatalog, RequestTypeId};
use mlp_sim::SimRng;
use protocol::{Mode, Request, Response};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the front door is sized and how patient it is.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7411` (port 0 picks a free port).
    pub addr: String,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Bounded submission-queue depth between the front door and the
    /// kernel; `BUSY` past this point (the paper's admission gate then
    /// sheds *inside* the kernel — this cap only bounds the handoff).
    pub queue_cap: usize,
    /// How long a worker waits for the kernel's outcome before answering
    /// `TIMEOUT` (the request itself keeps running).
    pub request_timeout: Duration,
    /// How long shutdown waits for in-flight requests to finish.
    pub drain_timeout: Duration,
    /// The cluster the kernel serves on (machines, scheme, auditor, …).
    /// `max_rate`/`horizon_s` are ignored — live traffic sets the rate and
    /// the clock sets the horizon.
    pub experiment: ExperimentConfig,
}

impl ServeConfig {
    /// A loopback smoke-test shape: tiny cluster, auditor on.
    pub fn smoke(experiment: ExperimentConfig) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 256,
            request_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(10),
            experiment,
        }
    }
}

/// Monotone counters the server exposes via `STATS` / `GET /stats`.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    busy: AtomicU64,
    timeouts: AtomicU64,
    draining: AtomicU64,
    errors: AtomicU64,
    latency_us_sum: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub connections: u64,
    pub requests: u64,
    pub completed: u64,
    pub shed: u64,
    pub busy: u64,
    pub timeouts: u64,
    pub draining: u64,
    pub errors: u64,
    /// Sum of completed-request latencies, for mean-latency readouts.
    pub latency_us_sum: u64,
}

impl Counters {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            draining: self.draining.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            latency_us_sum: self.latency_us_sum.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"connections\":{},\"requests\":{},\"completed\":{},\"shed\":{},\"busy\":{},\"timeouts\":{},\"draining\":{},\"errors\":{},\"mean_latency_us\":{:.1}}}",
            self.connections,
            self.requests,
            self.completed,
            self.shed,
            self.busy,
            self.timeouts,
            self.draining,
            self.errors,
            if self.completed > 0 { self.latency_us_sum as f64 / self.completed as f64 } else { 0.0 },
        )
    }
}

/// Everything a connection worker needs, shared across the pool.
struct Shared {
    catalog: RequestCatalog,
    /// token → the parked worker's rendezvous sender.
    pending: Mutex<HashMap<u64, SyncSender<LiveOutcome>>>,
    next_token: AtomicU64,
    submissions: SyncSender<Submission>,
    shutdown: Arc<AtomicBool>,
    counters: Counters,
    request_timeout: Duration,
}

/// A running live server. Dropping it without [`Server::stop`] detaches
/// the threads; call `stop` to drain and collect the kernel's output.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    kernel: JoinHandle<SimOutput>,
}

/// How often blocked accept/recv loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(20);
/// Per-stream read timeout so idle keep-alive connections still observe
/// shutdown.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

impl Server {
    /// Binds the listener, spins up the pool and the kernel thread, and
    /// returns once the server is accepting.
    ///
    /// A scheme the registry cannot build is refused with
    /// [`io::ErrorKind::InvalidInput`] before anything is bound or spawned.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        mlp_engine::default_registry()
            .validate_spec(&cfg.experiment.scheme)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let (sub_tx, sub_rx) = mpsc::sync_channel::<Submission>(cfg.queue_cap.max(1));
        let catalog = RequestCatalog::paper();

        let shared = Arc::new(Shared {
            catalog: RequestCatalog::paper(),
            pending: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(0),
            submissions: sub_tx,
            shutdown: Arc::clone(&shutdown),
            counters: Counters::default(),
            request_timeout: cfg.request_timeout,
        });

        // Kernel thread: owns the live run end to end. The notify sink
        // unparks whichever worker registered the outcome's token.
        let kernel = {
            let exp = cfg.experiment.clone();
            let kernel_shutdown = Arc::clone(&shutdown);
            let notify_shared = Arc::clone(&shared);
            let opts = LiveOptions { drain_timeout: cfg.drain_timeout, ..LiveOptions::default() };
            std::thread::Builder::new().name("mlp-kernel".into()).spawn(move || {
                let root = SimRng::new(exp.seed);
                let mut warm_rng = root.fork(2);
                let profiles = warm_profiles(&catalog, exp.warmup_cases, &mut warm_rng);
                let mut rng = root.fork(1);
                let mut sched = mlp_engine::default_registry()
                    .build(&exp.scheme, exp.seed)
                    .expect("`start` validated the scheme");
                mlp_engine::live::run_live(
                    &exp,
                    &catalog,
                    profiles,
                    sched.as_mut(),
                    &mut rng,
                    sub_rx,
                    kernel_shutdown,
                    &opts,
                    Box::new(move |o| notify_shared.deliver(o)),
                )
            })?
        };

        // Worker pool: a shared MPMC-by-mutex receiver of accepted streams.
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let rx = Arc::clone(&conn_rx);
            let sh = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mlp-serve-{i}"))
                    .spawn(move || worker_loop(rx, sh))?,
            );
        }

        // Acceptor: polls the nonblocking listener against the flag.
        let acceptor = {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new().name("mlp-accept".into()).spawn(move || {
                loop {
                    if sh.shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, _)) => {
                            sh.counters.connections.fetch_add(1, Ordering::Relaxed);
                            let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                            let _ = stream.set_nodelay(true);
                            if conn_tx.send(stream).is_err() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL);
                        }
                        Err(_) => std::thread::sleep(POLL),
                    }
                }
                // Dropping conn_tx here lets idle workers run down.
            })?
        };

        Ok(Server { addr, shutdown, shared, acceptor, workers, kernel })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag `stop` raises; share it with a signal handler to make
    /// ctrl-c initiate the same drain.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.shared.counters.snapshot()
    }

    /// Raises the shutdown flag, drains, joins every thread, and returns
    /// the kernel's output (with the auditor's verdict if enabled).
    pub fn stop(self) -> SimOutput {
        self.shutdown.store(true, Ordering::Relaxed);
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        // All submission senders are gone once the workers exit; the
        // kernel drains and returns.
        self.kernel.join().expect("kernel thread panicked")
    }
}

impl Shared {
    /// Notify sink body: unpark the worker waiting on this token. A miss
    /// is fine — the worker already gave up (TIMEOUT) or the request was
    /// dropped at drain with nobody waiting.
    fn deliver(&self, outcome: LiveOutcome) {
        let waiter = self.pending.lock().unwrap().remove(&outcome.token);
        if let Some(tx) = waiter {
            let _ = tx.send(outcome);
        }
    }

    /// Resolves a request-type operand: paper name first, then numeric id.
    fn resolve(&self, operand: &str) -> Option<RequestTypeId> {
        if let Some(r) = self.catalog.request_by_name(operand) {
            return Some(r.id);
        }
        let id: u32 = operand.parse().ok()?;
        let count = self.catalog.balanced_mix().len() as u32;
        (id < count).then_some(RequestTypeId(id))
    }

    /// Runs one request through the kernel, parking until its outcome.
    fn run_one(&self, rtype: RequestTypeId) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        if self.shutdown.load(Ordering::Relaxed) {
            self.counters.draining.fetch_add(1, Ordering::Relaxed);
            return Response::Draining;
        }
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::sync_channel::<LiveOutcome>(1);
        self.pending.lock().unwrap().insert(token, tx);
        match self.submissions.try_send(Submission { token, rtype }) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.pending.lock().unwrap().remove(&token);
                self.counters.busy.fetch_add(1, Ordering::Relaxed);
                return Response::Busy;
            }
            Err(TrySendError::Disconnected(_)) => {
                self.pending.lock().unwrap().remove(&token);
                self.counters.draining.fetch_add(1, Ordering::Relaxed);
                return Response::Draining;
            }
        }
        match rx.recv_timeout(self.request_timeout) {
            Ok(outcome) => match outcome.kind {
                OutcomeKind::Completed { latency_us } => {
                    self.counters.completed.fetch_add(1, Ordering::Relaxed);
                    self.counters.latency_us_sum.fetch_add(latency_us, Ordering::Relaxed);
                    Response::Ok { latency_us, request: outcome.request }
                }
                OutcomeKind::Shed { reason } => {
                    self.counters.shed.fetch_add(1, Ordering::Relaxed);
                    Response::Shed { reason: reason.into() }
                }
                OutcomeKind::Abandoned => {
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Abandoned
                }
                OutcomeKind::Dropped => {
                    self.counters.draining.fetch_add(1, Ordering::Relaxed);
                    Response::Dropped
                }
            },
            Err(_) => {
                // Reclaim the slot; the kernel may still answer later and
                // find nobody waiting, which `deliver` tolerates.
                self.pending.lock().unwrap().remove(&token);
                self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                Response::Timeout
            }
        }
    }

    fn respond_to(&self, req: Request) -> Response {
        match req {
            Request::Run(operand) => match self.resolve(&operand) {
                Some(rtype) => self.run_one(rtype),
                None => {
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    Response::Err(format!("unknown request type '{operand}'"))
                }
            },
            Request::Ping => Response::Pong,
            Request::Stats => Response::Json(self.counters.snapshot().to_json()),
            Request::Quit => Response::Bye,
            Request::Malformed(m) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                Response::Err(m)
            }
        }
    }
}

fn worker_loop(conns: Arc<Mutex<Receiver<TcpStream>>>, shared: Arc<Shared>) {
    loop {
        // Hold the lock only for the dequeue so the pool drains in
        // parallel; the timeout keeps shutdown observation fresh.
        let next = conns.lock().unwrap().recv_timeout(POLL);
        match next {
            Ok(stream) => {
                let _ = handle_connection(stream, &shared);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Serves one connection to completion: reads requests in either framing,
/// parks per request, writes responses. Returns on peer close, `QUIT`,
/// protocol errors, or shutdown-while-idle.
fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    let mut mode: Option<Mode> = None;
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // peer closed
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle keep-alive connection: close it once draining so
                // the worker can exit; otherwise keep listening.
                if shared.shutdown.load(Ordering::Relaxed) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        let m = *mode.get_or_insert_with(|| protocol::detect_mode(&line));
        let (request, client_close) = match m {
            Mode::Line => (protocol::parse_line(&line), false),
            Mode::Http => protocol::parse_http(&line, &mut reader)?,
        };
        if request == Request::Quit && m == Mode::Http {
            return Ok(());
        }
        let response = shared.respond_to(request);
        let keep_open = protocol::write_response(&mut writer, m, &response, client_close)?;
        if !keep_open {
            return Ok(());
        }
    }
}

/// Convenience: write an error to stderr only — used by bins, kept here so
/// both `vmlp serve` and `loadgen` format failures identically.
pub fn print_io_error(context: &str, e: &io::Error) {
    eprintln!("error: {context}: {e}");
}

/// Blocks until `addr` accepts a TCP connection or the deadline passes.
/// Lets scripts start `vmlp serve` and `loadgen` back to back.
pub fn wait_ready(addr: &str, timeout: Duration) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if TcpStream::connect(addr).is_ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

// A tiny blocking client for tests and the load generator.
pub mod client {
    use super::protocol::Response;
    use std::io::{self, BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    /// One line-protocol connection.
    pub struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        pub fn connect(addr: &str, timeout: Duration) -> io::Result<Client> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(timeout))?;
            stream.set_nodelay(true)?;
            Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream })
        }

        /// Sends `RUN <operand>` and parses the reply.
        pub fn run(&mut self, operand: &str) -> io::Result<Response> {
            writeln!(self.writer, "RUN {operand}")?;
            self.writer.flush()?;
            self.read_response()
        }

        pub fn ping(&mut self) -> io::Result<Response> {
            writeln!(self.writer, "PING")?;
            self.writer.flush()?;
            self.read_response()
        }

        pub fn stats(&mut self) -> io::Result<Response> {
            writeln!(self.writer, "STATS")?;
            self.writer.flush()?;
            self.read_response()
        }

        fn read_response(&mut self) -> io::Result<Response> {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            Ok(parse_response(line.trim_end()))
        }
    }

    /// Parses one server reply line back into a [`Response`].
    pub fn parse_response(line: &str) -> Response {
        let mut parts = line.splitn(2, ' ');
        match (parts.next().unwrap_or(""), parts.next()) {
            ("OK", Some(rest)) => {
                let mut nums = rest.split_whitespace();
                let latency_us = nums.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                let request = nums.next().and_then(|s| s.parse().ok()).unwrap_or(0);
                Response::Ok { latency_us, request }
            }
            ("SHED", Some(reason)) => Response::Shed { reason: reason.into() },
            ("ABANDONED", _) => Response::Abandoned,
            ("DROPPED", _) => Response::Dropped,
            ("BUSY", _) => Response::Busy,
            ("DRAINING", _) => Response::Draining,
            ("TIMEOUT", _) => Response::Timeout,
            ("PONG", _) => Response::Pong,
            ("BYE", _) => Response::Bye,
            ("ERR", Some(m)) => Response::Err(m.into()),
            _ if line.starts_with('{') => Response::Json(line.into()),
            _ => Response::Err(format!("unparseable reply '{line}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};

    fn smoke_server() -> Server {
        let exp = ExperimentConfig::smoke("vmlp").with_seed(17);
        Server::start(ServeConfig::smoke(exp)).expect("bind loopback")
    }

    #[test]
    fn line_protocol_round_trip_and_drain() {
        let server = smoke_server();
        let addr = server.local_addr().to_string();
        let mut c = client::Client::connect(&addr, Duration::from_secs(30)).unwrap();

        assert_eq!(c.ping().unwrap(), Response::Pong);
        for i in 0..10 {
            let operand =
                if i % 2 == 0 { "compose-post".to_string() } else { format!("{}", i % 3) };
            match c.run(&operand).unwrap() {
                Response::Ok { latency_us, .. } => assert!(latency_us > 0),
                other => panic!("expected OK, got {other:?}"),
            }
        }
        assert!(matches!(c.run("no-such-type").unwrap(), Response::Err(_)));
        match c.stats().unwrap() {
            Response::Json(j) => assert!(j.contains("\"completed\":10"), "{j}"),
            other => panic!("expected stats JSON, got {other:?}"),
        }

        let stats = server.stats();
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.errors, 1);
        let out = server.stop();
        assert_eq!(out.arrived, 10);
        assert!(out.invariant_report.is_none(), "{:?}", out.invariant_report);
    }

    #[test]
    fn http_round_trip() {
        let server = smoke_server();
        let addr = server.local_addr();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write!(
            stream,
            "GET /run/getCheapest HTTP/1.1\r\nHost: x\r\n\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let first = read_http_response(&mut reader);
        assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
        assert!(first.contains("\"latency_us\":"), "{first}");
        let second = read_http_response(&mut reader);
        assert!(second.contains("\"ok\":true"), "{second}");
        drop(reader);
        drop(stream);

        let out = server.stop();
        assert_eq!(out.arrived, 1);
    }

    #[test]
    fn draining_rejects_new_work() {
        let server = smoke_server();
        let addr = server.local_addr().to_string();
        let mut c = client::Client::connect(&addr, Duration::from_secs(30)).unwrap();
        assert!(matches!(c.run("compose-post").unwrap(), Response::Ok { .. }));
        server.shutdown_flag().store(true, Ordering::Relaxed);
        // The established connection either gets a DRAINING reply or the
        // worker closes it at the drain boundary — never a fresh admission.
        match c.run("compose-post") {
            Ok(Response::Draining) => {}
            Err(_) => {}
            Ok(other) => panic!("expected DRAINING or close, got {other:?}"),
        }
        let out = server.stop();
        assert_eq!(out.arrived, 1);
    }

    #[test]
    fn invalid_scheme_is_refused_before_binding() {
        // A free loopback port, released again for the server to try.
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let exp = ExperimentConfig::smoke("vmlp:bogus=1").with_seed(17);
        let cfg = ServeConfig { addr: addr.to_string(), ..ServeConfig::smoke(exp) };
        let err = Server::start(cfg).err().expect("an unknown param must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("bogus"), "{err}");
        // Threads are spawned only after the bind, and the acceptor would
        // own the listener: the port being free means none was started.
        TcpListener::bind(addr).expect("nothing kept the port");
    }

    /// Reads one HTTP response (headers + Content-Length body).
    fn read_http_response(reader: &mut BufReader<TcpStream>) -> String {
        let mut head = String::new();
        let mut len = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                len = v.trim().parse().unwrap();
            }
            let done = line.trim_end().is_empty();
            head.push_str(&line);
            if done {
                break;
            }
        }
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).unwrap();
        head.push_str(std::str::from_utf8(&body).unwrap());
        head
    }
}
