//! The detection daemon: accept loop, connection plumbing, backpressure.
//!
//! Threading model (std-only — no async runtime in the workspace):
//!
//! ```text
//! accept loop ──spawns──▶ per-connection reader ──jobs──▶ shard workers
//!                         (64 KiB BufReader)                   │
//!                              │      ▲                        │
//!                              │      └── registry (expected   │
//!                              │          tick, degraded)      │
//!                         tick acks, one burst per read chunk  │
//!                              ▼                               ▼
//!                         outbound channel ◀── verdicts / control replies
//!                              │
//!                              ▼  drain with try_recv, one flush per batch
//!                         per-connection writer
//! ```
//!
//! The reader makes every accept/reject decision *synchronously* at
//! enqueue time — slot reservation against the per-unit in-flight cap,
//! expected-tick check against the shared `Registry` — so the client
//! sees `Accepted`/`Rejected` in request order and ingress memory is
//! bounded by `max_units x queue_cap` frames no matter how fast
//! producers push. Shard workers only ever see ticks that were accepted.
//!
//! Tick replies are collected while complete lines remain in the read
//! buffer and handed to the writer as one burst before any read that
//! could block, and before any control request is dispatched or an
//! `Error` is sent. So acks stay in request order and precede every
//! reply to a later control request (`FlushAck`, `Stats`, `Error`…).
//! Verdicts are asynchronous and may interleave anywhere.

use crate::hierarchy::{self, HierarchyOptions};
use crate::metrics::ServerMetrics;
use crate::protocol::{self, Request, Response, WireMessage, MAX_LINE_BYTES};
use crate::shard::{CrashSwitch, DetectorTemplate, Job, Registry, ShardChaos, ShardContext};
use crate::supervisor::ShardSupervisor;
use crate::sync::LockRecover;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long blocked socket reads wait before re-checking the shutdown
/// flag. Short enough that teardown-heavy tests (proptest sweeps spawn a
/// fresh daemon per case) are not dominated by reader-exit latency.
const READ_POLL: Duration = Duration::from_millis(25);

/// Per-connection read buffer. A pipelined producer's tick lines (about
/// 1 KiB each at the paper's 5 x 14 frame shape) arrive dozens per read
/// syscall, and their acks leave as one burst per read.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Highest unit id accepted is `max_units - 1`.
    pub max_units: usize,
    /// Shard worker threads; `0` picks `min(parallelism, max_units)`.
    pub shards: usize,
    /// Per-unit bounded ingress queue depth (ticks in flight).
    pub queue_cap: usize,
    /// Directory for periodic detector snapshots (warm restart), if any.
    pub snapshot_dir: Option<PathBuf>,
    /// Snapshot every N ingested ticks per unit.
    pub snapshot_every: u64,
    /// Directory to restore unit snapshots from at `Hello` time.
    pub resume_dir: Option<PathBuf>,
    /// Detector configuration applied to every unit.
    pub template: DetectorTemplate,
    /// Ceiling of the backpressure retry hint; the actual hint scales
    /// with how saturated the rejecting shard's queue is.
    pub retry_after_ms: u64,
    /// Write-ahead-log root (per-shard subdirectories); `None` disables
    /// durability and restarts fall back to periodic snapshots alone.
    pub wal_dir: Option<PathBuf>,
    /// WAL fsync batching: flush to disk every N appended records.
    pub fsync_every: u64,
    /// Supervisor restarts a shard worker tolerates before the shard is
    /// marked failed and its units hard-degraded.
    pub shard_restart_limit: u32,
    /// How long a shard may sit on queued jobs without progress before
    /// the supervisor declares it wedged and replaces it.
    pub wedge_timeout: Duration,
    /// Fleet-scope hierarchy engine: when set, a feed thread rolls the
    /// verdict broadcast up the configured topology (see
    /// [`crate::hierarchy`]); `None` disables the hierarchy layer.
    pub hierarchy: Option<HierarchyOptions>,
    /// Artificial per-tick shard delay (backpressure/load testing only).
    pub slow_tick: Option<Duration>,
    /// Deterministic kill point for chaos tests: the daemon dies mid-tick
    /// when the switch trips. Never set outside tests/simulation.
    pub crash: Option<Arc<CrashSwitch>>,
    /// Deterministic shard panic/wedge injector (supervisor tests only).
    pub chaos: Option<Arc<ShardChaos>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_units: 64,
            shards: 0,
            queue_cap: 256,
            snapshot_dir: None,
            snapshot_every: 64,
            resume_dir: None,
            template: DetectorTemplate::default(),
            retry_after_ms: 20,
            wal_dir: None,
            fsync_every: 8,
            shard_restart_limit: 3,
            wedge_timeout: Duration::from_secs(2),
            hierarchy: None,
            slow_tick: None,
            crash: None,
            chaos: None,
        }
    }
}

impl ServeConfig {
    fn effective_shards(&self) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(2);
        let requested = if self.shards == 0 { auto } else { self.shards };
        requested.clamp(1, self.max_units.max(1))
    }
}

/// A clonable remote control for a running server: lets another thread
/// (or a signal handler) stop the accept loop.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The bound listen address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a clean shutdown: queued ticks drain, final snapshots are
    /// written, `run` returns.
    pub fn stop(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Whether a shutdown has been requested (the supervisor stops
    /// restarting workers once it has).
    pub fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// The online detection daemon. `bind` then `run`; `run` blocks until a
/// `Stop` request arrives or [`ServerHandle::stop`] is called.
pub struct DetectionServer {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
}

impl DetectionServer {
    /// Binds the listener. Use port `0` for an ephemeral port and read it
    /// back via [`Self::local_addr`].
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            addr,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control valid for the lifetime of the process.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Runs the daemon to completion (clean shutdown).
    ///
    /// # Errors
    /// Propagates accept-loop socket errors other than transient ones.
    pub fn run(self) -> std::io::Result<()> {
        let config = self.config;
        let shards = config.effective_shards();
        let metrics = Arc::new(ServerMetrics::new(config.max_units, shards));
        let registry = Arc::new(Registry::new(config.max_units));
        let subscribers: Arc<Mutex<Vec<Sender<Response>>>> = Arc::new(Mutex::new(Vec::new()));
        let handle = ServerHandle {
            addr: self.addr,
            shutdown: Arc::clone(&self.shutdown),
        };
        // The hierarchy feed registers itself as the first subscriber, so
        // every verdict a shard fans out also reaches the fleet engine.
        let hierarchy_feed = config.hierarchy.clone().map(|options| {
            hierarchy::spawn(hierarchy::FeedContext {
                options,
                max_units: config.max_units,
                wal_dir: config.wal_dir.clone(),
                metrics: Arc::clone(&metrics),
                subscribers: Arc::clone(&subscribers),
                crash: config.crash.clone(),
            })
        });
        let pool = {
            let metrics = Arc::clone(&metrics);
            let registry = Arc::clone(&registry);
            let subscribers = Arc::clone(&subscribers);
            let factory_handle = handle.clone();
            let template = config.template.clone();
            let snapshot_dir = config.snapshot_dir.clone();
            let snapshot_every = config.snapshot_every;
            let resume_dir = config.resume_dir.clone();
            let wal_root = config.wal_dir.clone();
            let fsync_every = config.fsync_every;
            let slow_tick = config.slow_tick;
            let crash = config.crash.clone();
            let chaos = config.chaos.clone();
            ShardSupervisor::spawn(
                shards,
                config.max_units,
                config.queue_cap,
                config.shard_restart_limit,
                config.wedge_timeout,
                Arc::clone(&registry),
                Arc::clone(&metrics),
                handle.clone(),
                move |shard, beat, fence| ShardContext {
                    shard,
                    template: template.clone(),
                    snapshot_dir: snapshot_dir.clone(),
                    snapshot_every,
                    resume_dir: resume_dir.clone(),
                    wal_dir: wal_root
                        .as_ref()
                        .map(|root| root.join(format!("shard_{shard}"))),
                    fsync_every,
                    metrics: Arc::clone(&metrics),
                    registry: Arc::clone(&registry),
                    subscribers: Arc::clone(&subscribers),
                    slow_tick,
                    crash: crash.clone(),
                    chaos: chaos.clone(),
                    handle: factory_handle.clone(),
                    beat,
                    fence,
                },
            )
        };
        let mut readers = Vec::new();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    // Tear down cleanly before surfacing the error.
                    pool.stop();
                    return Err(e);
                }
            };
            let ctx = ConnContext {
                pool: Arc::clone(&pool),
                metrics: Arc::clone(&metrics),
                registry: Arc::clone(&registry),
                subscribers: Arc::clone(&subscribers),
                handle: handle.clone(),
                queue_cap: config.queue_cap,
                retry_after_ms: config.retry_after_ms,
                hierarchy_tap: hierarchy_feed.is_some(),
            };
            match std::thread::Builder::new()
                .name("dbcatcher-conn".into())
                .spawn(move || handle_connection(stream, ctx))
            {
                Ok(reader) => readers.push(reader),
                // The closure (and with it the stream) is dropped, which
                // closes this one connection; the daemon keeps serving.
                Err(e) => record_spawn_failure(&metrics, "reader", &e),
            }
        }
        for reader in readers {
            let _ = reader.join();
        }
        // Drain accepted ticks, write final snapshots, join workers.
        pool.stop();
        // Drop subscriber senders so their writer threads exit. This also
        // closes the hierarchy feed's channel; joining it afterwards means
        // the scope output file is complete when `run` returns.
        subscribers.lock_clean().clear();
        if let Some(feed) = hierarchy_feed {
            feed.join();
        }
        Ok(())
    }
}

/// Everything a connection reader needs.
struct ConnContext {
    pool: Arc<ShardSupervisor>,
    metrics: Arc<ServerMetrics>,
    registry: Arc<Registry>,
    subscribers: Arc<Mutex<Vec<Sender<Response>>>>,
    handle: ServerHandle,
    queue_cap: usize,
    retry_after_ms: u64,
    /// The hierarchy feed occupies one subscriber slot; `Stats` must not
    /// count it as an external consumer.
    hierarchy_tap: bool,
}

fn handle_connection(stream: TcpStream, ctx: ConnContext) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<Response>();
    if let Err(e) = std::thread::Builder::new()
        .name("dbcatcher-conn-writer".into())
        .spawn(move || write_responses(write_half, &rx))
    {
        // Dropping `stream` on return closes the connection.
        record_spawn_failure(&ctx.metrics, "writer", &e);
        return;
    }

    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, stream);
    let mut buf: Vec<u8> = Vec::new();
    // The reader's own tick replies, in request order, not yet handed to
    // the writer.
    let mut acks: Vec<Response> = Vec::new();
    let mut discarding = false;
    loop {
        if ctx.handle.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // The next read may block (no complete line is buffered; a
        // partial one does not count), so the client must have every ack
        // it could be waiting for.
        if !reader.buffer().contains(&b'\n') {
            send_acks(&tx, &mut acks);
        }
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue; // partial data stays in `buf`; re-check shutdown
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        let complete = buf.last() == Some(&b'\n');
        if discarding {
            // Skipping the remainder of an oversized line.
            buf.clear();
            discarding = !complete;
            continue;
        }
        if buf.len() > MAX_LINE_BYTES {
            send_acks(&tx, &mut acks);
            let _ = tx.send(Response::Error {
                message: protocol::ProtocolError::Oversized {
                    max: MAX_LINE_BYTES,
                }
                .to_string(),
            });
            buf.clear();
            discarding = !complete;
            continue;
        }
        if !complete {
            continue; // timeout mid-line; keep accumulating
        }
        let stop = handle_line(&String::from_utf8_lossy(&buf), &mut acks, &tx, &ctx);
        buf.clear();
        if stop {
            break;
        }
    }
    send_acks(&tx, &mut acks);
}

/// Acts on one complete request line; returns whether it was `Stop`.
///
/// A `Tick`'s reply joins `acks`. Anything else first hands `acks` to
/// the writer, so every tick reply precedes the replies to later control
/// requests (including the shard-sent `FlushAck`/`HelloAck`).
fn handle_line(
    line: &str,
    acks: &mut Vec<Response>,
    tx: &Sender<Response>,
    ctx: &ConnContext,
) -> bool {
    if line.trim().is_empty() {
        return false;
    }
    match protocol::decode_request(line) {
        Ok(Request::Tick { unit, tick, frame }) => {
            acks.push(admit_tick(unit, tick, frame, tx, ctx));
            false
        }
        Ok(request) => {
            send_acks(tx, acks);
            let stop = matches!(request, Request::Stop);
            dispatch(request, tx, ctx);
            stop
        }
        Err(e) => {
            // Malformed input never reaches a shard; the connection
            // survives.
            send_acks(tx, acks);
            let _ = tx.send(Response::Error {
                message: e.to_string(),
            });
            false
        }
    }
}

/// Hands the collected tick replies to the writer as one burst.
fn send_acks(tx: &Sender<Response>, acks: &mut Vec<Response>) {
    for ack in acks.drain(..) {
        let _ = tx.send(ack);
    }
}

/// Writer thread body: serialises every outbound message (reader acks
/// and shard verdicts alike) onto the socket through one reused line
/// buffer, flushing once per drained batch rather than once per message.
/// Exits when all senders drop or the peer goes away.
fn write_responses(socket: TcpStream, rx: &Receiver<Response>) {
    let mut writer = BufWriter::new(socket);
    let mut line = String::new();
    while let Ok(first) = rx.recv() {
        let mut next = Some(first);
        while let Some(response) = next {
            line.clear();
            response.encode_into(&mut line);
            line.push('\n');
            if writer.write_all(line.as_bytes()).is_err() {
                return;
            }
            next = rx.try_recv().ok();
        }
        if writer.flush().is_err() {
            return;
        }
    }
}

/// Thread exhaustion costs one connection, not the daemon: the failure
/// is noted where `stats` shows it. It is process-wide rather than
/// per-shard, so the note goes on shard 0.
fn record_spawn_failure(metrics: &ServerMetrics, role: &str, error: &std::io::Error) {
    metrics.record_shard_note(
        0,
        format!("connection dropped: cannot spawn its {role} thread: {error}"),
    );
}

fn dispatch(request: Request, tx: &Sender<Response>, ctx: &ConnContext) {
    match request {
        Request::Hello {
            unit,
            dbs,
            kpis,
            participation,
        } => {
            if ctx.registry.with_entry(unit, |_| ()).is_none() {
                let _ = tx.send(Response::Error {
                    message: format!("unit {unit} out of range (daemon ran with fewer --units)"),
                });
                return;
            }
            let sent = ctx.pool.send(
                unit,
                Job::Hello {
                    unit,
                    dbs,
                    kpis,
                    participation,
                    reply: tx.clone(),
                },
            );
            if sent.is_err() {
                let _ = tx.send(Response::Error {
                    message: format!("shard for unit {unit} is unavailable; retry"),
                });
            }
        }
        Request::Tick { unit, tick, frame } => {
            let _ = tx.send(admit_tick(unit, tick, frame, tx, ctx));
        }
        Request::Flush { unit } => {
            let registered = ctx
                .registry
                .with_entry(unit, |entry| entry.registered)
                .unwrap_or(false);
            if registered {
                let sent = ctx.pool.send(
                    unit,
                    Job::Flush {
                        unit,
                        reply: tx.clone(),
                    },
                );
                if sent.is_err() {
                    let _ = tx.send(Response::Error {
                        message: format!("shard for unit {unit} is unavailable; retry"),
                    });
                }
            } else {
                let _ = tx.send(Response::Error {
                    message: format!("flush for unregistered unit {unit}"),
                });
            }
        }
        Request::ResetUnit { unit } => {
            let registered = ctx
                .registry
                .with_entry(unit, |entry| entry.registered)
                .unwrap_or(false);
            if registered {
                let sent = ctx.pool.send(
                    unit,
                    Job::Reset {
                        unit,
                        reply: tx.clone(),
                    },
                );
                if sent.is_err() {
                    let _ = tx.send(Response::Error {
                        message: format!("shard for unit {unit} is unavailable; retry"),
                    });
                }
            } else {
                let _ = tx.send(Response::Error {
                    message: format!("reset for unregistered unit {unit}"),
                });
            }
        }
        Request::Subscribe => {
            ctx.subscribers.lock_clean().push(tx.clone());
            let _ = tx.send(Response::Subscribed);
        }
        Request::Stats => {
            let subscriber_count = ctx
                .subscribers
                .lock_clean()
                .len()
                .saturating_sub(usize::from(ctx.hierarchy_tap));
            let _ = tx.send(Response::Stats(ctx.metrics.snapshot(subscriber_count)));
        }
        Request::Stop => {
            let _ = tx.send(Response::Stopping);
            ctx.handle.stop();
        }
    }
}

/// Makes the accept/reject decision for one tick and returns the reply.
fn admit_tick(
    unit: usize,
    tick: u64,
    frame: Vec<Vec<f64>>,
    tx: &Sender<Response>,
    ctx: &ConnContext,
) -> Response {
    use crate::protocol::RejectReason;
    // The whole accept decision happens under the unit's registry entry,
    // so concurrent producers for one unit cannot double-accept a tick.
    let mut job = Some(Job::Tick {
        unit,
        tick,
        frame,
        reply: tx.clone(),
    });
    let decision = ctx.registry.with_entry(unit, |entry| {
        if !entry.registered {
            return Response::Rejected {
                unit,
                tick,
                expected: 0,
                retry_after_ms: 0,
                reason: RejectReason::UnknownUnit,
            };
        }
        if entry.health.is_degraded() {
            return Response::Rejected {
                unit,
                tick,
                expected: entry.expected,
                retry_after_ms: 0,
                reason: RejectReason::Degraded,
            };
        }
        // Checked inside the registry critical section: the registry
        // mutex orders this against supervisor restart-time expected
        // resets, so a reader can never pair a reset expected tick with
        // the dying generation's queue.
        if !ctx.pool.accepting(unit) {
            ctx.metrics.record_reject(unit, true);
            return Response::Rejected {
                unit,
                tick,
                expected: entry.expected,
                retry_after_ms: ctx.retry_after_ms.max(1),
                reason: RejectReason::Backpressure,
            };
        }
        if tick != entry.expected {
            ctx.metrics.record_reject(unit, false);
            return Response::Rejected {
                unit,
                tick,
                expected: entry.expected,
                retry_after_ms: 0,
                reason: RejectReason::OutOfOrder,
            };
        }
        if !ctx.metrics.try_reserve_slot(unit, ctx.queue_cap) {
            ctx.metrics.record_reject(unit, true);
            return Response::Rejected {
                unit,
                tick,
                expected: entry.expected,
                retry_after_ms: ctx.pool.retry_hint(unit, ctx.retry_after_ms),
                reason: RejectReason::Backpressure,
            };
        }
        match ctx
            .pool
            // dbclint: allow(panic-free) — Option dance for the FnMut closure; with_entry invokes it exactly once
            .try_send_tick(unit, job.take().expect("job taken once"))
        {
            Ok(()) => {
                entry.expected += 1;
                Response::Accepted { unit, tick }
            }
            Err(()) => {
                // Shard channel full: release the reservation and report
                // backpressure just like a full unit queue.
                ctx.metrics.release_slot(unit);
                ctx.metrics.record_reject(unit, true);
                Response::Rejected {
                    unit,
                    tick,
                    expected: entry.expected,
                    retry_after_ms: ctx.pool.retry_hint(unit, ctx.retry_after_ms),
                    reason: RejectReason::Backpressure,
                }
            }
        }
    });
    decision.unwrap_or(Response::Rejected {
        unit,
        tick,
        expected: 0,
        retry_after_ms: 0,
        reason: RejectReason::UnknownUnit,
    })
}
