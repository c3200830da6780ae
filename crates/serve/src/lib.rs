//! # mlp-serve — live TCP front door for the wall-clock kernel
//!
//! Puts the simulator's event-application loop behind a socket. A
//! [`Server`] runs two threads: the engine's live kernel
//! ([`Experiment::run_live`], the same validated assembly a simulated run
//! uses) and `mlp-serve`, one `poll(2)` loop
//! over a `std::net` listener, a wake socket and every connection (the
//! workspace is vendored-only: no tokio, no hyper; Unix only). The loop
//! frames requests out of per-connection buffers, `try_send`s each `RUN`
//! into the bounded submission queue, and writes the kernel's
//! [`LiveOutcome`] back in the line protocol or minimal HTTP/1.1 (see
//! [`protocol`]). A connection has one request in flight at a time, so its
//! replies keep request order. Nothing wakes on a timer to look for work.
//!
//! ```text
//!  clients ⇄ mlp-serve poll loop ──Submission (bounded)──▶ mlp-kernel
//!            owns sockets, tokens,  ◀── outcome queue + wake byte ── notify sink
//!            token → connection map, timeout FIFO
//! ```
//!
//! Shutdown is cooperative: [`Server::stop`] (or SIGINT via
//! `mlp_engine::shutdown`) raises the flag and wakes the loop, which stops
//! accepting, answers `DRAINING` to new work and closes connections that
//! owe no reply. The kernel drains in-flight requests (bounded by
//! `drain_timeout`) and reports stragglers as `Dropped`; once it returns,
//! the loop answers what never reached it and exits, and `stop` returns
//! the run's [`SimOutput`] — auditor verdict included.

pub mod loadgen;
pub mod protocol;

use mlp_engine::live::{LiveOptions, LiveOutcome, OutcomeKind, Submission};
use mlp_engine::sim::SimOutput;
use mlp_engine::{Experiment, ExperimentConfig};
use mlp_model::{RequestCatalog, RequestTypeId};
use protocol::{Mode, Request, Response};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the front door is sized and how patient it is.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7411` (port 0 picks a free port).
    pub addr: String,
    /// Bounded submission-queue depth between the front door and the
    /// kernel; `BUSY` past this point (the paper's admission gate then
    /// sheds *inside* the kernel — this cap only bounds the handoff).
    pub queue_cap: usize,
    /// How long a request waits for the kernel's outcome before it is
    /// answered `TIMEOUT` (the request itself keeps running).
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
            queue_cap: 256,
            request_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(10),
            experiment,
        }
    }
}

/// How long the listener stays out of the poll set after `accept` ran out
/// of descriptors (or memory), unless a connection closes first. The
/// pending connection waits in the listen backlog meanwhile; polling the
/// listener again at once would only report it again and spin the loop.
const ACCEPT_PAUSE: Duration = Duration::from_millis(50);

/// Longest request a connection may buffer (a line, or an HTTP request
/// line plus headers); past it the answer is `ERR request too long` (HTTP
/// `400`) and a close.
const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// The server counters, exposed via `STATS` / `GET /stats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
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

/// Every update under these locks (a counter bump, a push, a flag) leaves
/// the data valid, so a lock poisoned by a panicking holder stays usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the loop shares with the kernel thread and the [`Server`] handle.
struct Shared {
    shutdown: Arc<AtomicBool>,
    stats: Mutex<StatsSnapshot>,
    /// Outcomes the notify sink pushed that the loop has not taken yet,
    /// and whether the kernel has returned (no outcome follows).
    inbox: Mutex<(Vec<LiveOutcome>, bool)>,
    /// Write end of the loop's wake socket.
    waker: UnixStream,
}

impl Shared {
    /// A full wake socket already holds a wake-up, so a failed write
    /// loses nothing.
    fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }
}

/// The notify sink. It wakes the loop only when the queue was empty;
/// otherwise a wake-up is on its way already. It is dropped when the
/// kernel returns (or panics), which tells the loop that no outcome follows.
struct KernelSink(Arc<Shared>);

impl KernelSink {
    fn deliver(&self, outcome: LiveOutcome) {
        let mut inbox = lock(&self.0.inbox);
        inbox.0.push(outcome);
        let first = inbox.0.len() == 1;
        drop(inbox);
        if first {
            self.0.wake();
        }
    }
}

impl Drop for KernelSink {
    fn drop(&mut self) {
        lock(&self.0.inbox).1 = true;
        self.0.wake();
    }
}

/// A running live server. Dropping it without [`Server::stop`] detaches
/// the threads; call `stop` to drain and collect the kernel's output.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    front_door: JoinHandle<()>,
    kernel: JoinHandle<SimOutput>,
}

impl Server {
    /// Binds the listener, spins up the front-door loop and the kernel
    /// thread, and returns once the server is accepting.
    ///
    /// A config [`Experiment::validate`] rejects (an unknown scheme, no
    /// machines, more shards than machines, …) is refused with
    /// [`io::ErrorKind::InvalidInput`] before anything is bound or spawned.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let experiment = Experiment::from_config(cfg.experiment.clone());
        experiment
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake, waker) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        waker.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: Mutex::default(),
            inbox: Mutex::default(),
            waker,
        });
        let (sub_tx, sub_rx) = mpsc::sync_channel::<Submission>(cfg.queue_cap.max(1));

        // Kernel thread: owns the live run end to end.
        let kernel = {
            let kernel_shutdown = Arc::clone(&shared.shutdown);
            let sink = KernelSink(Arc::clone(&shared));
            let opts = LiveOptions { drain_timeout: cfg.drain_timeout, ..LiveOptions::default() };
            std::thread::Builder::new().name("mlp-kernel".into()).spawn(move || {
                experiment
                    .run_live(sub_rx, kernel_shutdown, &opts, Box::new(move |o| sink.deliver(o)))
                    .expect("`start` validated the config")
            })?
        };

        let door = FrontDoor {
            shared: Arc::clone(&shared),
            listener: Some(listener),
            wake,
            conns: HashMap::new(),
            next_conn: 0,
            catalog: RequestCatalog::paper(),
            submissions: sub_tx,
            next_token: 0,
            pending: HashMap::new(),
            deadlines: VecDeque::new(),
            request_timeout: cfg.request_timeout,
            accept_paused: None,
        };
        let front_door =
            std::thread::Builder::new().name("mlp-serve".into()).spawn(move || door.run())?;
        Ok(Server { addr, shared, front_door, kernel })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The flag `stop` raises; share it with a signal handler to make
    /// ctrl-c initiate the same drain.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.shutdown)
    }

    pub fn stats(&self) -> StatsSnapshot {
        *lock(&self.shared.stats)
    }

    /// Raises the shutdown flag, drains, joins both threads, and returns
    /// the kernel's output (with the auditor's verdict if enabled).
    pub fn stop(self) -> SimOutput {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.wake();
        let _ = self.front_door.join();
        self.kernel.join().expect("kernel thread panicked")
    }
}

/// One client connection.
struct Conn {
    stream: TcpStream,
    /// Bytes read, not yet framed into a request.
    rbuf: Vec<u8>,
    /// Reply bytes the socket has not taken yet.
    wbuf: Vec<u8>,
    /// Decided by the first complete line.
    mode: Option<Mode>,
    /// `Some(client_close)` while a request is with the kernel: nothing
    /// more is framed until its answer is written.
    waiting: Option<bool>,
    /// Nothing more is read (the peer finished, the server is draining, or
    /// a reply closed the connection); what is buffered is still answered.
    read_done: bool,
}

impl Conn {
    /// One read of what the socket holds (poll reports the rest again).
    /// `false` when the connection broke.
    fn fill(&mut self) -> bool {
        let mut chunk = [0u8; 4096];
        match (&self.stream).read(&mut chunk) {
            Ok(0) => self.read_done = true,
            Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) => return transient(&e),
        }
        true
    }

    /// Writes what the socket takes now. `false` when the connection broke.
    fn flush(&mut self) -> bool {
        if !self.wbuf.is_empty() {
            match (&self.stream).write(&self.wbuf) {
                Ok(n) => drop(self.wbuf.drain(..n)),
                Err(e) => return transient(&e),
            }
        }
        true
    }

    fn answer(&mut self, resp: &Response, client_close: bool) {
        let mode = self.mode.unwrap_or(Mode::Line);
        // Rendering into a `Vec` cannot fail.
        if !protocol::write_response(&mut self.wbuf, mode, resp, client_close).unwrap_or(false) {
            self.read_done = true;
            self.rbuf.clear();
        }
    }
}

/// An I/O error that leaves the socket usable.
fn transient(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted)
}

/// The `mlp-serve` thread's state; nothing else touches it.
struct FrontDoor {
    shared: Arc<Shared>,
    /// `None` once draining: new connections are refused.
    listener: Option<TcpListener>,
    /// Read end of the wake socket.
    wake: UnixStream,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    catalog: RequestCatalog,
    submissions: SyncSender<Submission>,
    next_token: u64,
    /// token → the connection owed that request's outcome.
    pending: HashMap<u64, u64>,
    /// `(deadline, token)` in submission order; the timeout is fixed, so
    /// the deadlines are ordered too.
    deadlines: VecDeque<(Instant, u64)>,
    request_timeout: Duration,
    /// Set when `accept` failed for want of a descriptor: until when the
    /// listener is left out of the poll set, and the open connections then
    /// (one fewer means a descriptor came free).
    accept_paused: Option<(Instant, usize)>,
}

impl FrontDoor {
    fn run(mut self) {
        let (mut fds, mut ids) = (Vec::new(), Vec::new());
        loop {
            let (outcomes, kernel_done) = {
                let mut inbox = lock(&self.shared.inbox);
                (std::mem::take(&mut inbox.0), inbox.1)
            };
            // Read after the inbox: a kernel that returned saw the flag.
            let draining = self.shared.shutdown.load(Ordering::Relaxed);
            outcomes.into_iter().for_each(|o| self.outcome(o));
            if kernel_done {
                // What is still pending sat in the submission queue when
                // the kernel returned and will never run.
                let stranded: Vec<u64> = self.pending.keys().copied().collect();
                for token in stranded {
                    self.outcome(LiveOutcome { token, request: 0, kind: OutcomeKind::Dropped });
                }
            }
            let now = Instant::now();
            let mut timeout = self.expire(now);
            if draining {
                self.listener = None;
                self.conns.values_mut().for_each(|c| c.read_done = true);
            }
            self.conns.retain(|_, c| !c.read_done || c.waiting.is_some() || !c.wbuf.is_empty());
            if draining && kernel_done {
                // Every request the kernel saw is answered. Replies a
                // socket did not take at once go with their connection
                // rather than holding `stop` hostage.
                return;
            }

            if let Some((until, open)) = self.accept_paused {
                if until <= now || self.conns.len() < open {
                    self.accept_paused = None;
                } else {
                    timeout = Some(timeout.map_or(until - now, |t| t.min(until - now)));
                }
            }

            fds.clear();
            ids.clear();
            fds.push(sys::PollFd { fd: self.wake.as_raw_fd(), events: sys::POLLIN, revents: 0 });
            if let (Some(l), None) = (&self.listener, self.accept_paused) {
                fds.push(sys::PollFd { fd: l.as_raw_fd(), events: sys::POLLIN, revents: 0 });
            }
            let first_conn = fds.len();
            for (&id, c) in &self.conns {
                let mut events = if c.wbuf.is_empty() { 0 } else { sys::POLLOUT };
                // Read only when idle and every reply is taken, so a
                // client that does not read its replies gets no more read.
                if !c.read_done && c.waiting.is_none() && c.wbuf.is_empty() {
                    events |= sys::POLLIN;
                }
                fds.push(sys::PollFd { fd: c.stream.as_raw_fd(), events, revents: 0 });
                ids.push(id);
            }
            if sys::poll(&mut fds, timeout).is_err() {
                return; // Only bad arguments fail; close everything rather than spin.
            }

            if fds[0].revents != 0 {
                // Drained before the next turn takes the inbox, so a push
                // landing in between still leaves a byte to wake on.
                let _ = (&self.wake).read(&mut [0u8; 64]);
            }
            if first_conn == 2 && fds[1].revents != 0 {
                self.accept();
            }
            for (fd, &id) in fds[first_conn..].iter().zip(&ids) {
                if fd.revents == 0 {
                    continue;
                }
                let Some(mut c) = self.conns.remove(&id) else { continue };
                if fd.revents & sys::BROKEN == 0 && (fd.revents & sys::POLLIN == 0 || c.fill()) {
                    self.advance(id, &mut c);
                    if c.flush() {
                        self.conns.insert(id, c);
                    }
                }
            }
        }
    }

    fn accept(&mut self) {
        let Some(listener) = &self.listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    lock(&self.shared.stats).connections += 1;
                    let (rbuf, wbuf) = (Vec::new(), Vec::new());
                    let c =
                        Conn { stream, rbuf, wbuf, mode: None, waiting: None, read_done: false };
                    self.conns.insert(self.next_conn, c);
                    self.next_conn += 1;
                }
                Err(e) => match e.kind() {
                    io::ErrorKind::WouldBlock => return, // The backlog is empty.
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted => {}
                    // Out of descriptors or memory: the connection stays
                    // in the backlog until one frees.
                    _ => {
                        let open = self.conns.len();
                        self.accept_paused = Some((Instant::now() + ACCEPT_PAUSE, open));
                        return;
                    }
                },
            }
        }
    }

    /// Frames and answers `c`'s buffered requests until one goes to the
    /// kernel, no complete request is left, or a reply closes `c`.
    fn advance(&mut self, id: u64, c: &mut Conn) {
        while c.waiting.is_none() {
            let framed = protocol::request_len(&c.rbuf, Mode::Line).and_then(|line_len| {
                let first = String::from_utf8_lossy(&c.rbuf[..line_len]);
                let mode = *c.mode.get_or_insert_with(|| protocol::detect_mode(&first));
                let len = protocol::request_len(&c.rbuf, mode)?;
                let parsed = match mode {
                    Mode::Line => (protocol::parse_line(&first), false),
                    Mode::Http => protocol::parse_http(&first, &mut &c.rbuf[line_len..len])
                        .unwrap_or_else(|_| (Request::Malformed("headers not UTF-8".into()), true)),
                };
                Some((len, parsed))
            });
            let Some((len, (request, client_close))) = framed else {
                if c.rbuf.len() > MAX_REQUEST_BYTES {
                    lock(&self.shared.stats).errors += 1;
                    c.answer(&Response::Err("request too long".into()), true);
                    c.read_done = true;
                    c.rbuf.clear();
                }
                return;
            };
            c.rbuf.drain(..len);
            match self.respond(id, request) {
                Some(resp) => c.answer(&resp, client_close),
                None => c.waiting = Some(client_close),
            }
        }
    }

    /// The answer to `req` from connection `conn`, or `None` when it went
    /// to the kernel and the answer is its outcome.
    fn respond(&mut self, conn: u64, req: Request) -> Option<Response> {
        let mut stats = lock(&self.shared.stats);
        let operand = match req {
            Request::Run(operand) => operand,
            Request::Ping => return Some(Response::Pong),
            Request::Stats => return Some(Response::Json(stats.to_json())),
            Request::Quit => return Some(Response::Bye),
            Request::Malformed(m) => {
                stats.errors += 1;
                return Some(Response::Err(m));
            }
        };
        // Paper name first, then numeric id.
        let count = self.catalog.balanced_mix().len() as u32;
        let rtype = self
            .catalog
            .request_by_name(&operand)
            .map(|r| r.id)
            .or_else(|| operand.parse().ok().filter(|&id| id < count).map(RequestTypeId));
        let Some(rtype) = rtype else {
            stats.errors += 1;
            return Some(Response::Err(format!("unknown request type '{operand}'")));
        };
        stats.requests += 1;
        if self.shared.shutdown.load(Ordering::Relaxed) {
            stats.draining += 1;
            return Some(Response::Draining);
        }
        let token = self.next_token;
        self.next_token += 1;
        match self.submissions.try_send(Submission { token, rtype }) {
            Ok(()) => {
                self.pending.insert(token, conn);
                if let Some(at) = Instant::now().checked_add(self.request_timeout) {
                    self.deadlines.push_back((at, token));
                }
                None
            }
            Err(TrySendError::Full(_)) => {
                stats.busy += 1;
                Some(Response::Busy)
            }
            Err(TrySendError::Disconnected(_)) => {
                stats.draining += 1;
                Some(Response::Draining)
            }
        }
    }

    /// Counts a kernel outcome and answers the connection owed it — if
    /// any: a `TIMEOUT` may have answered it already.
    fn outcome(&mut self, o: LiveOutcome) {
        let Some(conn) = self.pending.remove(&o.token) else { return };
        let mut stats = lock(&self.shared.stats);
        let resp = match o.kind {
            OutcomeKind::Completed { latency_us } => {
                stats.completed += 1;
                stats.latency_us_sum += latency_us;
                Response::Ok { latency_us, request: o.request }
            }
            OutcomeKind::Shed { reason } => {
                stats.shed += 1;
                Response::Shed { reason: reason.into() }
            }
            OutcomeKind::Abandoned => {
                stats.errors += 1;
                Response::Abandoned
            }
            OutcomeKind::Dropped => {
                stats.draining += 1;
                Response::Dropped
            }
        };
        drop(stats);
        self.reply(conn, resp);
    }

    /// Writes `resp` to connection `id` (one already gone is fine), then
    /// frames whatever it pipelined behind the answered request.
    fn reply(&mut self, id: u64, resp: Response) {
        let Some(mut c) = self.conns.remove(&id) else { return };
        let client_close = c.waiting.take().unwrap_or(false);
        c.answer(&resp, client_close);
        self.advance(id, &mut c);
        if c.flush() {
            self.conns.insert(id, c);
        }
    }

    /// Answers `TIMEOUT` for every request past its deadline and returns
    /// how long until the next one is due.
    fn expire(&mut self, now: Instant) -> Option<Duration> {
        while let Some(&(at, token)) = self.deadlines.front() {
            if self.pending.contains_key(&token) && at > now {
                return Some(at - now);
            }
            self.deadlines.pop_front();
            if let Some(conn) = self.pending.remove(&token) {
                lock(&self.shared.stats).timeouts += 1;
                self.reply(conn, Response::Timeout);
            }
        }
        None
    }
}

/// `poll(2)` through the libc that std already links.
#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_short};
    use std::time::Duration;

    pub const POLLIN: c_short = 0x1;
    pub const POLLOUT: c_short = 0x4;
    /// `POLLERR | POLLHUP | POLLNVAL`.
    pub const BROKEN: c_short = 0x8 | 0x10 | 0x20;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        #[link_name = "poll"]
        fn c_poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until a descriptor is ready or `timeout` (rounded up to whole
    /// ms; `None` waits forever) passes, retrying on `EINTR`.
    pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<()> {
        let ms =
            timeout.map_or(-1, |t| t.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int);
        loop {
            // SAFETY: `fds` is an exclusively borrowed array of `repr(C)`
            // `struct pollfd`, and its length is what is passed.
            if unsafe { c_poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) } >= 0 {
                return Ok(());
            }
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
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
    use std::io::{BufRead, BufReader};

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
        // loop closes it at the drain boundary — never a fresh admission.
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
        refused_before_binding(ExperimentConfig::smoke("vmlp:bogus=1"), "bogus");
    }

    /// A cluster the engine cannot plan on would panic the kernel thread
    /// on the first `RUN`, so it is refused up front.
    #[test]
    fn invalid_cluster_is_refused_before_binding() {
        let smoke = ExperimentConfig::smoke("vmlp");
        refused_before_binding(ExperimentConfig { machines: 0, ..smoke.clone() }, "machines");
        refused_before_binding(ExperimentConfig { machines: 4, shards: 8, ..smoke }, "shards");
    }

    fn refused_before_binding(exp: ExperimentConfig, needle: &str) {
        // A free loopback port, released again for the server to try.
        let addr = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let cfg = ServeConfig { addr: addr.to_string(), ..ServeConfig::smoke(exp) };
        let err = Server::start(cfg).err().expect("an invalid config must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains(needle), "{err}");
        // Threads are spawned only after the bind, and the front-door loop
        // would own the listener: the port being free means none was started.
        TcpListener::bind(addr).expect("nothing kept the port");
    }

    fn server_with(tune: impl FnOnce(&mut ServeConfig)) -> Server {
        let mut cfg = ServeConfig::smoke(ExperimentConfig::smoke("vmlp").with_seed(17));
        tune(&mut cfg);
        Server::start(cfg).expect("bind loopback")
    }

    /// A raw connection and a line reader over it.
    fn raw(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    /// `stop` on another thread; fails the test if it takes over `limit`.
    fn stop_within(server: Server, limit: Duration) -> SimOutput {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || drop(tx.send(server.stop())));
        rx.recv_timeout(limit).expect("stop returned in time")
    }

    #[test]
    fn idle_connections_do_not_starve_a_new_one() {
        let server = smoke_server();
        let idle: Vec<TcpStream> =
            (0..8).map(|_| TcpStream::connect(server.local_addr()).unwrap()).collect();
        let addr = server.local_addr().to_string();
        let mut c = client::Client::connect(&addr, Duration::from_secs(1)).unwrap();
        assert_eq!(c.ping().unwrap(), Response::Pong);
        assert_eq!(server.stats().connections, 9);
        drop(idle);
        server.stop();
    }

    #[test]
    fn stop_returns_while_an_idle_client_stays_connected() {
        let server = smoke_server();
        let addr = server.local_addr().to_string();
        let mut c = client::Client::connect(&addr, Duration::from_secs(30)).unwrap();
        assert_eq!(c.ping().unwrap(), Response::Pong);
        stop_within(server, Duration::from_secs(5));
        // The drain closed the connection under the client.
        assert!(c.ping().is_err());
    }

    #[test]
    fn a_request_split_by_a_pause_is_reassembled() {
        let server = smoke_server();
        let (mut stream, mut reader) = raw(&server);
        stream.write_all(b"RUN compose").unwrap();
        std::thread::sleep(Duration::from_millis(700));
        stream.write_all(b"-post\n").unwrap();
        let reply = read_line(&mut reader);
        assert!(reply.starts_with("OK "), "{reply}");
        drop((stream, reader));
        assert_eq!(server.stop().arrived, 1);
    }

    #[test]
    fn an_oversized_request_is_refused_and_closed() {
        let server = smoke_server();
        let (stream, mut reader) = raw(&server);
        let mut writer = stream.try_clone().unwrap();
        // The server stops reading at the bound: the rest of the flood
        // may meet a reset, which is the point.
        let flood = std::thread::spawn(move || {
            let _ = writer.write_all(&vec![b'a'; 1 << 20]);
        });
        assert_eq!(read_line(&mut reader), "ERR request too long\n");
        let mut rest = Vec::new();
        assert!(matches!(reader.read_to_end(&mut rest), Ok(0) | Err(_)), "closed after the reply");
        flood.join().unwrap();

        let addr = server.local_addr().to_string();
        let mut c = client::Client::connect(&addr, Duration::from_secs(30)).unwrap();
        assert_eq!(c.ping().unwrap(), Response::Pong);
        assert_eq!(server.stats().errors, 1);
        server.stop();
    }

    #[test]
    fn pipelined_requests_are_answered_in_order() {
        let server = smoke_server();
        let (mut stream, mut reader) = raw(&server);
        stream.write_all(b"RUN compose-post\nRUN 1\nPING\n").unwrap();
        for want in ["OK ", "OK ", "PONG\n"] {
            let reply = read_line(&mut reader);
            assert!(reply.starts_with(want), "wanted {want:?}, got {reply:?}");
        }
        drop((stream, reader));
        assert_eq!(server.stop().arrived, 2);
    }

    /// More replies than the socket buffers hold: the loop keeps the rest
    /// for `POLLOUT`, reads no more from that client meanwhile, and keeps
    /// serving everyone else.
    #[test]
    fn a_client_that_does_not_read_gets_every_reply_in_order() {
        const PINGS: usize = 2_000_000;
        let server = smoke_server();
        let (stream, mut reader) = raw(&server);
        let mut writer = stream.try_clone().unwrap();
        let flood = std::thread::spawn(move || writer.write_all(&b"PING\n".repeat(PINGS)));
        std::thread::sleep(Duration::from_millis(200));
        let addr = server.local_addr().to_string();
        let mut other = client::Client::connect(&addr, Duration::from_secs(1)).unwrap();
        assert_eq!(other.ping().unwrap(), Response::Pong);

        let mut replies = vec![0u8; PINGS * b"PONG\n".len()];
        reader.read_exact(&mut replies).unwrap();
        assert!(replies.chunks(5).all(|r| r == b"PONG\n"));
        flood.join().unwrap().unwrap();
        drop((stream, reader));
        server.stop();
    }

    #[test]
    fn http_request_written_a_byte_at_a_time_is_answered() {
        let server = smoke_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        for b in b"GET /run/getCheapest HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n" {
            stream.write_all(&[*b]).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("\"latency_us\":"), "{reply}");
        assert_eq!(server.stop().arrived, 1);
    }

    #[test]
    fn a_timed_out_request_never_answers_a_later_one() {
        let server = server_with(|cfg| cfg.request_timeout = Duration::from_millis(1));
        let addr = server.local_addr().to_string();
        let mut c = client::Client::connect(&addr, Duration::from_secs(30)).unwrap();
        assert_eq!(c.run("compose-post").unwrap(), Response::Timeout);
        assert_eq!(c.ping().unwrap(), Response::Pong);
        // Well past the request's modelled latency: its outcome came and
        // was dropped, not written.
        std::thread::sleep(Duration::from_millis(500));
        assert_eq!(c.ping().unwrap(), Response::Pong);
        let stats = server.stats();
        assert_eq!((stats.timeouts, stats.completed), (1, 0));
        assert_eq!(server.stop().arrived, 1);
    }

    #[test]
    fn a_request_in_flight_at_stop_is_answered() {
        // No drain grace: whatever is in flight is dropped at once.
        let server = server_with(|cfg| cfg.drain_timeout = Duration::ZERO);
        let (mut stream, mut reader) = raw(&server);
        stream.write_all(b"PING\nRUN compose-post\n").unwrap();
        assert_eq!(read_line(&mut reader), "PONG\n");
        // The loop counts a `RUN` and submits it under one stats lock.
        while server.stats().requests == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let out = stop_within(server, Duration::from_secs(5));
        let reply = read_line(&mut reader);
        assert!(reply == "DROPPED\n" || reply.starts_with("OK "), "{reply:?}");
        assert!(out.invariant_report.is_none(), "{:?}", out.invariant_report);
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

    /// `getrlimit`/`setrlimit` and the process CPU clock, for the
    /// descriptor-exhaustion test (64-bit Linux numbering and layouts).
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    mod os {
        use std::ffi::{c_int, c_long};
        use std::time::Duration;

        #[repr(C)]
        struct Rlimit {
            cur: u64,
            max: u64,
        }

        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: c_long,
        }

        const RLIMIT_NOFILE: c_int = 7;
        const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

        extern "C" {
            fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
            fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
            fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
        }

        /// Lowers this process's soft descriptor limit to at most `n`.
        pub fn limit_descriptors(n: u64) {
            let mut lim = Rlimit { cur: 0, max: 0 };
            // SAFETY: `lim` is a valid, exclusively borrowed `struct rlimit`.
            assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
            lim.cur = lim.cur.min(n);
            // SAFETY: as above; lowering the soft limit needs no privilege.
            assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0);
        }

        /// CPU time every thread of this process has used so far.
        pub fn process_cpu() -> Duration {
            let mut ts = Timespec { sec: 0, nsec: 0 };
            // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`.
            assert_eq!(unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) }, 0);
            Duration::new(ts.sec as u64, ts.nsec as u32)
        }
    }

    /// When `accept` fails for want of a descriptor, the loop must not
    /// busy-poll the listener, and the connection waiting in the backlog is
    /// served once a descriptor frees. The descriptor limit is per process,
    /// so the test re-executes this binary to run alone in a child process
    /// that lowers its own limit.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn accept_out_of_descriptors_does_not_spin() {
        const CHILD: &str = "MLP_SERVE_DESCRIPTOR_EXHAUSTION_CHILD";
        const NAME: &str = "tests::accept_out_of_descriptors_does_not_spin";
        if std::env::var_os(CHILD).is_none() {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--exact", NAME, "--nocapture", "--test-threads=1"])
                .env(CHILD, "1")
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            let report = format!("{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
            assert!(out.status.success(), "child run failed:\n{report}");
            assert!(stdout.contains("1 passed"), "the child ran no test:\n{report}");
            return;
        }

        os::limit_descriptors(64);
        let server = smoke_server();
        let (first, mut first_reader) = raw(&server);
        (&first).write_all(b"PING\n").unwrap();
        assert_eq!(read_line(&mut first_reader), "PONG\n");

        // Take every free descriptor, then hand one to a new connection:
        // it completes into the backlog, but the server cannot accept it.
        let mut hold = Vec::new();
        loop {
            match std::fs::File::open("/dev/null") {
                Ok(f) => hold.push(f),
                Err(e) => {
                    assert_eq!(e.raw_os_error(), Some(24), "EMFILE expected, got {e}");
                    break;
                }
            }
        }
        hold.pop();
        let queued = TcpStream::connect(server.local_addr()).unwrap();
        queued.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        (&queued).write_all(b"PING\n").unwrap();

        std::thread::sleep(Duration::from_millis(50));
        let (cpu, wall) = (os::process_cpu(), Instant::now());
        std::thread::sleep(Duration::from_millis(500));
        let (cpu, wall) = (os::process_cpu() - cpu, wall.elapsed());
        assert!(cpu * 5 < wall, "{cpu:?} of CPU over {wall:?} out of descriptors");
        assert_eq!(server.stats().connections, 1, "nothing could be accepted");

        // Closing the first connection frees the server's descriptor too.
        drop((first, first_reader));
        let mut reply = String::new();
        BufReader::new(&queued).read_line(&mut reply).unwrap();
        assert_eq!(reply, "PONG\n");
        drop(hold);
        stop_within(server, Duration::from_secs(5));
    }
}
