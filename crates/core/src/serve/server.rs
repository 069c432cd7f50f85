//! The `valign serve` daemon: a TCP listener feeding a priority job
//! queue into the [`SupervisedRunner`].
//!
//! # Architecture
//!
//! One accept thread, one detached handler thread per connection, and a
//! fixed pool of worker threads sharing a priority queue:
//!
//! ```text
//! client ──frames──▶ handler ──admission──▶ queue ──▶ worker ──▶ SupervisedRunner
//!    ▲                             │                     │
//!    └── scorecard / batch-done ◀──┴── journal ◀─────────┘
//! ```
//!
//! * **Admission control** happens under the queue lock, before
//!   anything is enqueued: a job whose projected cycle-budget (the
//!   supervisor watchdog's `budget_for` over a conservative instruction
//!   estimate) exceeds [`ServeConfig::max_budget`] is rejected outright —
//!   retrying cannot help, so the rejection carries no `retry_after_ms`.
//!   Jobs that pass admission but blow the watchdog *at runtime* are
//!   quarantined by the supervisor without affecting siblings — the same
//!   isolation contract the batch CLI has.
//! * **Backpressure** is reject-with-retry-after, never unbounded
//!   queueing: a full queue or an exhausted per-client quota answers
//!   `rejected` with a `retry_after_ms` hint, and nothing is enqueued (a
//!   submit is admitted atomically or not at all). The hint is
//!   [`jittered_retry_after`]: deterministically spread per client and
//!   attempt so a herd of rejected clients does not retry in lockstep.
//! * **Priorities** order the queue (high > normal > low); within one
//!   priority jobs run FIFO by a monotone sequence number.
//! * **Determinism**: every job runs alone through its own
//!   single-threaded [`SupervisedRunner`] with the default
//!   [`SupervisorConfig`], so its scorecard is a pure function of the
//!   job spec and seed — independent of queue order, worker count,
//!   sibling load, and (with a warm `--store-dir`) daemon restarts.
//! * **Crash safety**: with a `--store-dir`, every accepted job is
//!   appended to the durable [`Journal`] *before* the `accepted` frame
//!   is sent, and every finished job's scorecard body is appended before
//!   delivery. A daemon killed mid-batch replays the journal on the next
//!   start: unfinished jobs re-enqueue (and re-run bit-identically — the
//!   determinism contract makes a late re-run indistinguishable from the
//!   original), finished ones are served straight from their stored
//!   bodies when a client resubmits the same spec. Dedup is keyed by the
//!   job-spec content hash ([`job_hash`]), in memory as well: identical
//!   specs in flight share one execution, each subscriber getting its
//!   own `job_id`-stamped copy of the one scorecard body. When the queue
//!   fully drains the journal compacts and the dedup cache clears.
//!   Journal write failures are WARN counters in `/stats`, never fatal.
//! * **Chaos**: the server-side `--inject` set (and a submit's own
//!   `inject` field) can carry connection-fault classes — `disconnect`
//!   severs the connection in place of a matching job's scorecard,
//!   `torn-frame` writes a half frame first — plus socket read/write
//!   deadlines ([`ServeConfig::io_timeout_ms`]) so a stalled client
//!   cannot pin a reader thread mid-frame. Both exist to prove, in the
//!   chaos tests, that the daemon and its journal survive rude peers.
//! * **Shutdown** is graceful: stop accepting, drain the queue, then
//!   join the workers. In-flight scorecards are delivered before exit.
//!
//! [`Journal`]: super::journal::Journal

use super::journal::{job_hash, DoneRecord, Journal, PendingRecord, JOURNAL_FILE};
use super::protocol::{
    self, compose_scorecard, read_frame, render_accepted, render_batch_done, render_error,
    render_rejected, render_scorecard, scorecard_body, write_frame, FrameError, Priority, Request,
    SubmitRequest,
};
use crate::faults::{FaultClass, FaultSet};
use crate::sim::{SimJob, TraceSource, TraceStore};
use crate::supervise::{JobFailure, JobOutcome, OutcomeTally, SupervisedRunner, SupervisorConfig};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use valign_pipeline::{Bucket, StallBreakdown, WordHash};

/// Tuning knobs of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the queue.
    pub threads: usize,
    /// Maximum distinct jobs queued or running at once, across all
    /// clients; a submit whose *new* jobs would exceed it is rejected
    /// with `retry_after_ms` (subscribing to an already-queued duplicate
    /// costs no capacity).
    pub queue_cap: usize,
    /// Maximum jobs one client may have queued or running; exceeding it
    /// is rejected with `retry_after_ms`.
    pub client_quota: usize,
    /// Admission ceiling on a job's projected watchdog budget (simulated
    /// cycles). Jobs projected over it are rejected outright. The
    /// default admits everything; operators size it to bound worst-case
    /// per-job work.
    pub max_budget: u64,
    /// Base of the `retry_after_ms` hint sent with load-shedding
    /// rejections; the wire value is [`jittered_retry_after`] over it.
    pub retry_after_ms: u64,
    /// Read/write deadline on every connection socket, in milliseconds
    /// (0 disables). An idle client may wait indefinitely between
    /// requests, but a peer that stalls *mid-frame* past the deadline is
    /// answered with an error frame and dropped — a slow-loris client
    /// cannot pin a reader thread.
    pub io_timeout_ms: u64,
    /// Server-side fault injection applied to every delivery
    /// (`disconnect` / `torn-frame` selectors from `valign serve
    /// --inject`) — the chaos harness's knob for rude-peer scenarios.
    pub chaos: FaultSet,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 2,
            queue_cap: 64,
            client_quota: 16,
            max_budget: u64::MAX,
            retry_after_ms: 50,
            io_timeout_ms: 10_000,
            chaos: FaultSet::default(),
        }
    }
}

/// Conservative per-execution instruction proxy for admission control:
/// no kernel of the suite traces anywhere near this many instructions
/// per execution, so `execs × ADMISSION_INSTRS_PER_EXEC` over-estimates
/// the trace length and the projected budget errs on the rejecting side.
pub const ADMISSION_INSTRS_PER_EXEC: usize = 4096;

/// Domain-separation seed of [`jittered_retry_after`].
const RETRY_JITTER_SEED: u64 = 0x7661_6c69_676e_0008;

/// The `retry_after_ms` actually sent with a load-shedding rejection:
/// deterministically jittered over `[base/2, 3·base/2)` by a seeded hash
/// of the client name and its rejection-attempt counter. Every client
/// rejected in the same instant gets a *different* backoff (no
/// thundering-herd retry spike), yet the value is a pure function of
/// `(base, client, attempt)` — reproducible in tests, no wall clock.
pub fn jittered_retry_after(base: u64, client: &str, attempt: u64) -> u64 {
    if base == 0 {
        return 0;
    }
    let mut h = WordHash::new(RETRY_JITTER_SEED);
    h.write_bytes(client.as_bytes());
    h.write_u64(attempt);
    base / 2 + h.finish() % base
}

/// Live counters behind the `/stats` response.
#[derive(Debug, Default)]
struct ServeTally {
    submitted: u64,
    rejected_queue_full: u64,
    rejected_quota: u64,
    rejected_budget: u64,
    /// Submitted jobs that attached to an identical job already queued
    /// or running instead of enqueueing a duplicate execution.
    deduped: u64,
    /// Submitted jobs served from a scorecard body recovered from the
    /// journal of a *previous* incarnation, with no execution at all.
    journal_served: u64,
    /// Submitted jobs served from a scorecard completed earlier in
    /// *this* daemon's lifetime (the in-memory dedup cache), with no
    /// execution at all.
    cache_served: u64,
    /// Journal appends/compactions that failed (durability degraded,
    /// service continued).
    journal_write_errors: u64,
    outcomes: OutcomeTally,
    /// Stall-bucket aggregate over every measurement the daemon served.
    breakdown: StallBreakdown,
    attributed_cycles: u64,
}

/// One queued (distinct) job, ordered by (priority, arrival). Who asked
/// for it lives in the queue's `inflight` subscriber lists — a recovered
/// journal job has none until its submitter reconnects.
struct QueuedJob {
    priority: Priority,
    seq: u64,
    /// The job-spec content hash ([`job_hash`]) — the dedup key.
    hash: u64,
    job: SimJob,
    inject: Arc<FaultSet>,
}

impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for QueuedJob {}
impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then earlier arrival.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// What a connection's writer thread is asked to do next. The chaos
/// variants exist so injected connection faults happen on the *writing*
/// side, exactly where a real crash mid-delivery would strike.
enum WriterMsg {
    /// Write one whole frame.
    Frame(String),
    /// Write the frame's length header and half its payload, then sever
    /// the connection — an injected `torn-frame` fault.
    Torn(String),
    /// Sever the connection without writing — an injected `disconnect`.
    Hangup,
}

/// Per-submit bookkeeping: where scorecards go, how many jobs remain,
/// and the running tally for the closing `batch-done` frame.
struct SubmitTracker {
    reply: mpsc::Sender<WriterMsg>,
    remaining: Mutex<usize>,
    tally: Mutex<OutcomeTally>,
    jobs: usize,
}

/// One submitted job's claim on a (possibly shared) execution.
struct Subscriber {
    job_id: u64,
    client: String,
    tracker: Arc<SubmitTracker>,
}

/// A finished job's durable result, cached for dedup until the next
/// drain.
struct DoneCard {
    kind: String,
    body: String,
}

struct Queue {
    heap: BinaryHeap<QueuedJob>,
    /// Monotone arrival counter — the FIFO axis within a priority.
    seq: u64,
    /// Jobs queued or running, per client (quota accounting; duplicate
    /// subscriptions count — a client's quota is what it asked for, not
    /// what happened to be deduplicable).
    in_system: HashMap<String, usize>,
    /// Distinct jobs queued or running (capacity accounting).
    total: usize,
    /// Subscribers of every queued-or-running job, keyed by job-spec
    /// hash. Presence of a key *is* the in-flight marker.
    inflight: HashMap<u64, Vec<Subscriber>>,
    /// Finished jobs since the last drain, keyed by job-spec hash —
    /// resubmitting one of these is answered from the stored body with
    /// no execution. Seeded from the journal on recovery; cleared (with
    /// a journal compaction) whenever the queue fully drains.
    completed: HashMap<u64, DoneCard>,
    /// The subset of `completed` keys that were recovered from a
    /// previous incarnation's journal rather than finished in this
    /// lifetime — the `journal_served` vs `cache_served` stats axis.
    /// Cleared together with `completed` on drain.
    recovered: HashSet<u64>,
    /// Consecutive load-shedding rejections per client — the attempt
    /// axis of [`jittered_retry_after`]; reset on a successful admit.
    rejections: HashMap<String, u64>,
}

struct Shared {
    store: Arc<TraceStore>,
    cfg: ServeConfig,
    queue: Mutex<Queue>,
    ready: Condvar,
    shutdown: AtomicBool,
    tally: Mutex<ServeTally>,
    /// The durable journal, present when the store has a disk tier.
    /// Lock order: `queue` before `journal` (admit appends while holding
    /// the queue lock; nothing takes the queue while holding this).
    journal: Option<Mutex<Journal>>,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_tally(&self) -> std::sync::MutexGuard<'_, ServeTally> {
        self.tally.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `op` on the journal (if enabled), folding any journal error
    /// into the `journal_write_errors` WARN counter — durability
    /// degrades, the daemon never dies over its log.
    fn with_journal(
        &self,
        op: impl FnOnce(&mut Journal) -> Result<(), super::journal::JournalError>,
    ) {
        let Some(journal) = &self.journal else { return };
        let mut j = journal.lock().unwrap_or_else(PoisonError::into_inner);
        if op(&mut j).is_err() {
            self.lock_tally().journal_write_errors += 1;
        }
    }
}

/// A running daemon. Dropping the handle does not stop it; send a
/// `shutdown` request (or call [`Server::shutdown`]) and then
/// [`Server::wait`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop and worker pool. When the store has a disk
    /// tier, the journal at `<store-dir>/serve.journal` is opened and
    /// replayed first: jobs accepted by a previous incarnation but never
    /// finished are re-enqueued (with no subscribers — their scorecards
    /// become servable-from-journal once they finish), and finished
    /// scorecards are seeded into the dedup cache. A corrupt or torn
    /// journal is repaired in place, never fatal.
    pub fn bind(
        addr: impl ToSocketAddrs,
        store: Arc<TraceStore>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut queue = Queue {
            heap: BinaryHeap::new(),
            seq: 0,
            in_system: HashMap::new(),
            total: 0,
            inflight: HashMap::new(),
            completed: HashMap::new(),
            recovered: HashSet::new(),
            rejections: HashMap::new(),
        };
        let mut journal = None;
        if let Some(dir) = store.disk() {
            match Journal::open(dir.root().join(JOURNAL_FILE)) {
                Ok((j, replay)) => {
                    for done in replay.done {
                        queue.recovered.insert(done.hash);
                        queue.completed.insert(
                            done.hash,
                            DoneCard {
                                kind: done.kind,
                                body: done.card,
                            },
                        );
                    }
                    for pending in replay.pending {
                        // A record that no longer resolves (spec drift
                        // across versions) is dropped: better to forget a
                        // promise than to wedge the queue on it.
                        let Ok(job) = pending.spec.resolve() else {
                            continue;
                        };
                        let Ok(set) = FaultSet::parse(&pending.inject) else {
                            continue;
                        };
                        let seq = queue.seq;
                        queue.seq += 1;
                        queue.total += 1;
                        queue.inflight.insert(pending.hash, Vec::new());
                        queue.heap.push(QueuedJob {
                            priority: pending.priority,
                            seq,
                            hash: pending.hash,
                            job,
                            inject: Arc::new(set),
                        });
                    }
                    journal = Some(Mutex::new(j));
                }
                Err(e) => {
                    eprintln!("valign serve: WARN: journal disabled: {e}");
                }
            }
        }
        let shared = Arc::new(Shared {
            store,
            cfg: cfg.clone(),
            queue: Mutex::new(queue),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tally: Mutex::new(ServeTally::default()),
            journal,
        });
        let workers = (0..cfg.threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates shutdown: stop accepting, let the workers drain the
    /// queue. Idempotent.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared, self.addr);
    }

    /// Blocks until the daemon has fully stopped: the accept loop has
    /// exited and every worker has drained. Call after a shutdown was
    /// initiated (by request or by [`Server::shutdown`]).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Flips the shutdown flag, wakes the workers, and unblocks the accept
/// loop with a throwaway connection.
fn initiate_shutdown(shared: &Shared, addr: SocketAddr) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.ready.notify_all();
    // The accept loop blocks in `accept()`; poke it so it observes the
    // flag. Failure is fine — it also wakes on any real connection.
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let shared = Arc::clone(shared);
                let addr = listener.local_addr().ok();
                // Handler threads are detached: they exit when their
                // client disconnects, and a client that lingers past
                // shutdown must not block the daemon's exit path.
                std::thread::spawn(move || handle_connection(stream, &shared, addr));
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// One connection: a reader loop on this thread, a writer thread
/// draining an mpsc channel, so slow job streams never block request
/// parsing. Both halves run under the configured socket deadline.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, addr: Option<SocketAddr>) {
    if shared.cfg.io_timeout_ms > 0 {
        let deadline = Duration::from_millis(shared.cfg.io_timeout_ms);
        let _ = stream.set_read_timeout(Some(deadline));
        let _ = stream.set_write_timeout(Some(deadline));
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<WriterMsg>();
    let writer = std::thread::spawn(move || writer_loop(write_half, &rx));
    let mut reader = io::BufReader::new(stream);
    // Deferred until the writer thread has drained: initiating shutdown
    // inside the loop races the process exit against the flush of our
    // own `shutdown-ok` frame.
    let mut want_shutdown = false;
    loop {
        match read_frame(&mut reader) {
            Ok(None) => break,
            // An idle peer holding the connection open between requests
            // is legal — keep waiting (but notice a daemon shutdown).
            Err(FrameError::TimedOut { started: false }) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) => {
                // Framing is broken (or the peer stalled mid-frame past
                // the deadline) — report once and close; there is no way
                // to resynchronize mid-stream. Crucially this is an
                // *error frame*, not a panic: hostile bytes cost their
                // own connection, nothing else.
                let _ = tx.send(WriterMsg::Frame(render_error(&e.to_string())));
                break;
            }
            Ok(Some(text)) => match Request::parse(&text) {
                Err(e) => {
                    // A well-framed but malformed request keeps the
                    // connection: answer the diagnostic and read on.
                    let _ = tx.send(WriterMsg::Frame(render_error(&e.message)));
                }
                Ok(Request::Stats) => {
                    let _ = tx.send(WriterMsg::Frame(render_stats(shared)));
                }
                Ok(Request::Shutdown) => {
                    let _ = tx.send(WriterMsg::Frame("{\"type\": \"shutdown-ok\"}".to_string()));
                    want_shutdown = true;
                    break;
                }
                Ok(Request::Submit(req)) => {
                    admit(shared, req, &tx);
                }
            },
        }
    }
    drop(tx);
    let _ = writer.join();
    if want_shutdown {
        if let Some(addr) = addr {
            initiate_shutdown(shared, addr);
        }
    }
}

/// The writing half of one connection. The chaos variants sever the
/// socket from here — the same side a real daemon crash would tear.
fn writer_loop(stream: TcpStream, rx: &mpsc::Receiver<WriterMsg>) {
    let mut w = io::BufWriter::new(stream);
    while let Ok(msg) = rx.recv() {
        match msg {
            WriterMsg::Frame(frame) => {
                if write_frame(&mut w, &frame).is_err() {
                    break;
                }
            }
            WriterMsg::Torn(frame) => {
                // The header promises the whole frame; deliver half and
                // sever — the peer must surface this as truncation, not
                // hang on the missing bytes.
                let bytes = frame.as_bytes();
                let _ = w.write_all(&(bytes.len() as u32).to_be_bytes());
                let _ = w.write_all(&bytes[..bytes.len() / 2]);
                let _ = w.flush();
                let _ = w.get_ref().shutdown(Shutdown::Both);
                break;
            }
            WriterMsg::Hangup => {
                let _ = w.flush();
                let _ = w.get_ref().shutdown(Shutdown::Both);
                break;
            }
        }
    }
}

/// How one submitted job will be satisfied, decided under the queue
/// lock during admission.
enum Lane {
    /// An identical job finished since the last drain: serve the stored
    /// scorecard body immediately, run nothing.
    Served,
    /// An identical job is already queued or running: subscribe to its
    /// one execution.
    Attach,
    /// Genuinely new: journal it, enqueue it.
    Fresh,
}

/// Admission: resolve every job, project its watchdog budget, then —
/// atomically under the queue lock — check capacity and quota and either
/// commit the whole submit or reject it untouched. All response frames
/// (error, rejected, accepted, immediately-served scorecards) go out
/// through `reply`; the commit journals every fresh record *before*
/// sending the `accepted` frame (the durable promise precedes the
/// acknowledgment), and sends it from under the queue lock, before any
/// worker can deliver a scorecard for these jobs — the ordering the
/// client protocol requires.
fn admit(shared: &Arc<Shared>, req: SubmitRequest, reply: &mpsc::Sender<WriterMsg>) {
    let send = |frame: String| {
        let _ = reply.send(WriterMsg::Frame(frame));
    };
    let cfg = &shared.cfg;
    let mut jobs = Vec::with_capacity(req.jobs.len());
    for spec in &req.jobs {
        match spec.resolve() {
            Ok(job) => jobs.push(job),
            Err(e) => return send(render_error(&e.message)),
        }
    }
    let inject = match FaultSet::parse(&req.inject) {
        Ok(set) => Arc::new(set),
        Err(e) => return send(render_error(&e.to_string())),
    };
    // Admission control against the cycle-budget watchdog: project each
    // job's budget from a deliberately generous instruction estimate —
    // the real trace length when the store already holds it, otherwise
    // execs × ADMISSION_INSTRS_PER_EXEC — and refuse outright anything
    // projected over the operator's ceiling. No retry_after: resubmitting
    // the same job cannot shrink its budget.
    for job in &jobs {
        let estimate = match &job.source {
            TraceSource::Key(key) => shared
                .store
                .resident_len(*key)
                .unwrap_or_else(|| key.execs.saturating_mul(ADMISSION_INSTRS_PER_EXEC)),
            TraceSource::Shared(trace) => trace.len(),
        };
        let projected = SupervisorConfig::default().budget_for(estimate);
        if projected > cfg.max_budget {
            shared.lock_tally().rejected_budget += 1;
            return send(render_rejected("over-budget", None));
        }
    }
    let hashes: Vec<u64> = req.jobs.iter().map(|s| job_hash(s, &req.inject)).collect();
    let tracker = Arc::new(SubmitTracker {
        reply: reply.clone(),
        remaining: Mutex::new(jobs.len()),
        tally: Mutex::new(OutcomeTally::default()),
        jobs: jobs.len(),
    });
    // Immediately-servable cards, delivered after the lock is released
    // (the shared reply channel keeps them ordered after `accepted`).
    let mut served: Vec<(Subscriber, Arc<FaultSet>, String, u64, String, String)> = Vec::new();
    {
        let mut q = shared.lock_queue();
        // Classify first, commit second: the submit must land atomically
        // or not at all. Duplicates *within* this submit attach to the
        // batch's own fresh entry, so they are classified against a local
        // set too.
        let mut in_batch = HashSet::new();
        let mut lanes = Vec::with_capacity(jobs.len());
        let mut fresh = 0usize;
        let mut occupying = 0usize;
        for &hash in &hashes {
            let lane = if q.completed.contains_key(&hash) {
                Lane::Served
            } else if q.inflight.contains_key(&hash) || in_batch.contains(&hash) {
                occupying += 1;
                Lane::Attach
            } else {
                in_batch.insert(hash);
                fresh += 1;
                occupying += 1;
                Lane::Fresh
            };
            lanes.push(lane);
        }
        if q.total + fresh > cfg.queue_cap {
            let attempt = bump_rejections(&mut q, &req.client);
            shared.lock_tally().rejected_queue_full += 1;
            return send(render_rejected(
                "queue-full",
                Some(jittered_retry_after(
                    cfg.retry_after_ms,
                    &req.client,
                    attempt,
                )),
            ));
        }
        let in_system = q.in_system.get(&req.client).copied().unwrap_or(0);
        if in_system + occupying > cfg.client_quota {
            let attempt = bump_rejections(&mut q, &req.client);
            shared.lock_tally().rejected_quota += 1;
            return send(render_rejected(
                "quota-exceeded",
                Some(jittered_retry_after(
                    cfg.retry_after_ms,
                    &req.client,
                    attempt,
                )),
            ));
        }
        q.rejections.remove(&req.client);
        // Commit. The durable promise precedes the acknowledgment:
        // every Fresh record is journaled (each append fsyncs) before
        // the `accepted` frame reaches the writer thread, so a crash
        // after the client hears "accepted" cannot lose a job. Both
        // happen under the queue lock — no worker can reach these
        // jobs' subscribers until the lock drops, so no scorecard can
        // overtake the accept.
        shared.with_journal(|j| {
            for (job_id, (hash, lane)) in hashes.iter().zip(&lanes).enumerate() {
                if let Lane::Fresh = lane {
                    j.append_accepted(&PendingRecord {
                        hash: *hash,
                        priority: req.priority,
                        inject: req.inject.clone(),
                        spec: req.jobs[job_id].clone(),
                    })?;
                }
            }
            Ok(())
        });
        send(render_accepted(jobs.len()));
        {
            let mut tally = shared.lock_tally();
            tally.submitted += jobs.len() as u64;
            for (hash, lane) in hashes.iter().zip(&lanes) {
                match lane {
                    Lane::Served if q.recovered.contains(hash) => tally.journal_served += 1,
                    Lane::Served => tally.cache_served += 1,
                    Lane::Attach => tally.deduped += 1,
                    Lane::Fresh => {}
                }
            }
        }
        for (job_id, ((job, hash), lane)) in jobs.into_iter().zip(hashes).zip(lanes).enumerate() {
            let subscriber = Subscriber {
                job_id: job_id as u64,
                client: req.client.clone(),
                tracker: Arc::clone(&tracker),
            };
            match lane {
                Lane::Served => {
                    let Some(card) = q.completed.get(&hash) else {
                        continue;
                    };
                    served.push((
                        subscriber,
                        Arc::clone(&inject),
                        job.label(),
                        job.seed(),
                        card.kind.clone(),
                        card.body.clone(),
                    ));
                }
                Lane::Attach => {
                    *q.in_system.entry(req.client.clone()).or_insert(0) += 1;
                    if let Some(subs) = q.inflight.get_mut(&hash) {
                        subs.push(subscriber);
                    }
                }
                Lane::Fresh => {
                    // Already journaled above, before the `accepted`
                    // frame was sent: the record is on disk by the time
                    // the client hears its job was taken.
                    let seq = q.seq;
                    q.seq += 1;
                    q.total += 1;
                    *q.in_system.entry(req.client.clone()).or_insert(0) += 1;
                    q.inflight.insert(hash, vec![subscriber]);
                    q.heap.push(QueuedJob {
                        priority: req.priority,
                        seq,
                        hash,
                        job,
                        inject: Arc::clone(&inject),
                    });
                }
            }
        }
        shared.ready.notify_all();
    }
    for (subscriber, inject, label, seed, kind, body) in served {
        deliver(shared, &subscriber, &inject, &label, seed, &kind, &body);
    }
}

/// Bumps and returns the client's consecutive-rejection counter.
fn bump_rejections(q: &mut Queue, client: &str) -> u64 {
    let counter = q.rejections.entry(client.to_string()).or_insert(0);
    *counter += 1;
    *counter
}

/// An [`OutcomeTally`] increment for one stored outcome kind.
fn tally_of_kind(kind: &str) -> OutcomeTally {
    let mut tally = OutcomeTally::default();
    match kind {
        "completed" => tally.completed += 1,
        "degraded" => tally.degraded += 1,
        _ => tally.quarantined += 1,
    }
    tally
}

/// Delivers one scorecard body to one subscriber: splice in its
/// `job_id`, consult the chaos sets (the submit's own inject specs, then
/// the server-side set) for a connection fault, update the submit's
/// remaining/tally accounting, and close the batch when it was the last
/// job. A severed or vanished connection drops frames silently — the
/// job's accounting (and its journal record) still completed.
fn deliver(
    shared: &Shared,
    subscriber: &Subscriber,
    inject: &FaultSet,
    label: &str,
    seed: u64,
    kind: &str,
    body: &str,
) {
    let frame = compose_scorecard(subscriber.job_id, body);
    let msg = chaos_delivery(frame, inject, &shared.cfg.chaos, label, seed);
    // The tracker locks are held across the sends so channel order
    // matches accounting order: the delivery that observes
    // `remaining == 0` is necessarily the last scorecard enqueued, and
    // its `batch-done` follows every sibling's frame. (Sends on the
    // unbounded channel never block, so the critical section is short.)
    let mut remaining = subscriber
        .tracker
        .remaining
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let mut tally = subscriber
        .tracker
        .tally
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    *tally = tally.merged(tally_of_kind(kind));
    *remaining = remaining.saturating_sub(1);
    let _ = subscriber.tracker.reply.send(msg);
    if *remaining == 0 {
        let _ = subscriber
            .tracker
            .reply
            .send(WriterMsg::Frame(render_batch_done(
                subscriber.tracker.jobs,
                &tally,
            )));
    }
}

/// Resolves what a delivery becomes under the chaos sets: the submit's
/// own inject specs are consulted first (a client asking for its own
/// chaos), then the server-side `--inject` set.
fn chaos_delivery(
    frame: String,
    inject: &FaultSet,
    server_chaos: &FaultSet,
    label: &str,
    seed: u64,
) -> WriterMsg {
    for set in [inject, server_chaos] {
        if let Some(plan) = set.plan_for(label, seed) {
            match plan.class {
                FaultClass::Disconnect => return WriterMsg::Hangup,
                FaultClass::TornFrame => return WriterMsg::Torn(frame),
                _ => {}
            }
        }
    }
    WriterMsg::Frame(frame)
}

/// One worker: pop the highest-priority job, run it alone through a
/// single-threaded supervisor, journal the result, deliver it to every
/// subscriber, and compact the journal when the queue fully drains.
/// Exits when the queue is drained after shutdown.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let queued = {
            let mut q = shared.lock_queue();
            loop {
                if let Some(job) = q.heap.pop() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Each job gets its own single-threaded supervisor so the
        // outcome is independent of sibling jobs, worker count and queue
        // order — the determinism contract. Construction is a few
        // allocations; the replay dominates.
        let supervisor = SupervisedRunner::new(1).with_faults((*queued.inject).clone());
        let outcome = supervisor
            .run(&shared.store, std::slice::from_ref(&queued.job))
            .into_iter()
            .next()
            .unwrap_or_else(|| JobOutcome::Quarantined {
                failure: JobFailure::Panicked {
                    message: "supervisor returned no outcome".to_string(),
                },
            });
        let body = scorecard_body(&queued.job, &outcome);
        let kind = outcome.kind().to_string();
        // The durable result precedes every delivery: a crash from here
        // on re-serves this body from the journal instead of re-running.
        shared.with_journal(|j| {
            j.append_done(&DoneRecord {
                hash: queued.hash,
                kind: kind.clone(),
                card: body.clone(),
            })
        });
        {
            let mut tally = shared.lock_tally();
            tally.outcomes = tally
                .outcomes
                .merged(OutcomeTally::of(std::slice::from_ref(&outcome)));
            if let Some(result) = outcome.result() {
                tally.breakdown.accumulate(&result.breakdown);
                tally.attributed_cycles += result.cycles;
            }
        }
        let subscribers = {
            let mut q = shared.lock_queue();
            let subscribers = q.inflight.remove(&queued.hash).unwrap_or_default();
            q.completed.insert(
                queued.hash,
                DoneCard {
                    kind: kind.clone(),
                    body: body.clone(),
                },
            );
            q.total = q.total.saturating_sub(1);
            for subscriber in &subscribers {
                if let Some(n) = q.in_system.get_mut(&subscriber.client) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        q.in_system.remove(&subscriber.client);
                    }
                }
            }
            // A full drain settles every promise: clear the dedup cache
            // and compact the journal together, under the same lock that
            // serializes new accepts (which append while holding it), so
            // a fresh accepted record can never be compacted away.
            if q.total == 0 {
                q.completed.clear();
                q.recovered.clear();
                shared.with_journal(Journal::compact);
            }
            subscribers
        };
        let label = queued.job.label();
        let seed = queued.job.seed();
        for subscriber in &subscribers {
            deliver(
                shared,
                subscriber,
                &queued.inject,
                &label,
                seed,
                &kind,
                &body,
            );
        }
    }
}

/// Renders the `/stats` frame: TraceStore tier hit rates, queue state,
/// journal counters, admission/outcome counters, and the stall-bucket
/// aggregate across every measurement served.
fn render_stats(shared: &Shared) -> String {
    let s = shared.store.stats();
    let rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    let (depth, capacity, pending) = {
        let q = shared.lock_queue();
        (q.heap.len(), shared.cfg.queue_cap, q.inflight.len())
    };
    let journal = shared.journal.as_ref().map(|journal| {
        journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    });
    let t = shared.lock_tally();
    let buckets: Vec<String> = Bucket::ALL
        .iter()
        .map(|&b| format!("\"{}\": {}", b.label(), t.breakdown.get(b)))
        .collect();
    let j = journal.unwrap_or_default();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"type\": \"stats\", \
         \"store\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \
         \"memory_hit_rate\": {:.4}, \"disk_enabled\": {}, \
         \"disk_hits\": {}, \"disk_misses\": {}, \"disk_invalid\": {}, \
         \"disk_quarantined\": {}, \"disk_write_failures\": {}, \
         \"disk_hit_rate\": {:.4}}}, \
         \"queue\": {{\"depth\": {depth}, \"capacity\": {capacity}}}, \
         \"journal\": {{\"enabled\": {}, \"pending\": {pending}, \
         \"recovered_pending\": {}, \"recovered_done\": {}, \
         \"torn_bytes\": {}, \"appended_accepted\": {}, \
         \"appended_done\": {}, \"compactions\": {}, \
         \"write_errors\": {}}}, \
         \"jobs\": {{\"submitted\": {}, \"completed\": {}, \"degraded\": {}, \
         \"quarantined\": {}, \
         \"rejected_queue_full\": {}, \"rejected_quota\": {}, \
         \"rejected_budget\": {}, \"deduped\": {}, \"journal_served\": {}, \
         \"cache_served\": {}}}, \
         \"stall_buckets\": {{{}}}, \"attributed_cycles\": {}}}",
        s.hits,
        s.misses,
        s.entries,
        rate(s.hits, s.misses),
        s.disk_enabled,
        s.disk_hits,
        s.disk_misses,
        s.disk_invalid,
        s.disk_quarantined,
        s.disk_write_failures,
        rate(s.disk_hits, s.disk_misses + s.disk_invalid),
        shared.journal.is_some(),
        j.recovered_pending,
        j.recovered_done,
        j.torn_bytes,
        j.appended_accepted,
        j.appended_done,
        j.compactions,
        t.journal_write_errors,
        t.submitted,
        t.outcomes.completed,
        t.outcomes.degraded,
        t.outcomes.quarantined,
        t.rejected_queue_full,
        t.rejected_quota,
        t.rejected_budget,
        t.deduped,
        t.journal_served,
        t.cache_served,
        buckets.join(", "),
        t.attributed_cycles,
    );
    out
}

/// Runs `specs` through the identical execution + rendering path the
/// daemon uses — one single-threaded supervisor per job, the shared
/// [`render_scorecard`] — without any socket. This is the batch-CLI leg
/// of the determinism contract (`valign submit --local`) and the oracle
/// the service tests diff daemon output against.
pub fn run_local(
    store: &TraceStore,
    specs: &[protocol::JobSpec],
    inject: &[String],
    supervisor_cfg: SupervisorConfig,
) -> Result<Vec<String>, protocol::RequestError> {
    let faults = FaultSet::parse(inject).map_err(|e| protocol::RequestError {
        message: e.to_string(),
    })?;
    let mut frames = Vec::with_capacity(specs.len());
    for (job_id, spec) in specs.iter().enumerate() {
        let job = spec.resolve()?;
        let supervisor = SupervisedRunner::new(1)
            .with_config(supervisor_cfg)
            .with_faults(faults.clone());
        let outcome = supervisor
            .run(store, std::slice::from_ref(&job))
            .into_iter()
            .next()
            .unwrap_or_else(|| JobOutcome::Quarantined {
                failure: JobFailure::Panicked {
                    message: "supervisor returned no outcome".to_string(),
                },
            });
        frames.push(render_scorecard(job_id as u64, &job, &outcome));
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_jitter_is_deterministic_and_spread() {
        let base = 50;
        let a = jittered_retry_after(base, "client-a", 1);
        assert_eq!(a, jittered_retry_after(base, "client-a", 1), "pure");
        assert!((base / 2..base + base / 2).contains(&a), "{a} in range");
        // Distinct clients and attempts land on distinct backoffs (for
        // this seed — the point is they are not synchronized).
        let spread: HashSet<u64> = (0..8)
            .flat_map(|i| {
                (0..4)
                    .map(move |attempt| jittered_retry_after(base, &format!("client-{i}"), attempt))
            })
            .collect();
        assert!(spread.len() > 20, "jitter collapsed: {spread:?}");
        assert_eq!(jittered_retry_after(0, "x", 1), 0, "disabled base stays 0");
    }
}
