//! Real multi-process cluster transport: worker processes on localhost
//! TCP, supervised by the coordinator.
//!
//! The modeled transport ([`crate::exec`]) runs every machine inside the
//! coordinator's process and *models* the wire; this module is the same
//! cluster with the wire made real. Each machine is an OS process (see
//! `ppr-serve::worker`) that cold-starts from the persisted `.pprx`
//! snapshot, connects back to the coordinator, and answers
//! [`Message::Request`] fan-outs with [`Message::Reply`] frames.
//!
//! Supervision contract:
//!
//! * every socket operation carries a deadline ([`FramedStream`]); a
//!   wedged or killed worker costs one timeout, never a hang;
//! * a worker that errors mid-round (timeout, EOF after `kill -9`,
//!   corrupt frame) is killed, respawned from the **current** snapshot,
//!   re-`Welcome`d at the current epoch, and the request is re-sent —
//!   bounded by [`ResilienceConfig::max_attempts`];
//! * a machine that exhausts its attempts yields `None` for the round,
//!   which [`Cluster`](crate::Cluster)'s round either computes locally
//!   (the exact entry points) or reports exactly like a modeled dropped
//!   reply (partial sums discarded, degrade path) — never a wrong answer;
//! * epoch barriers ([`SocketCluster::publish_epoch`]) persist the new
//!   snapshot **before** broadcasting the delta, so a worker that dies at
//!   any point rejoins consistently: either it acked the delta (replica
//!   advanced) or it restarts from the post-delta snapshot.
//!
//! Bit-identity holds because workers compute the same
//! `machine_vectors_into` shares from the same snapshot, replies carry
//! raw `f64` bits, and the coordinator sums in machine order — the same
//! arithmetic as the modeled path, pinned in `tests/socket_cluster.rs`.

use crate::fault::ResilienceConfig;
use ppr_core::hgpa::HgpaIndex;
use ppr_core::parallel::Stopwatch;
use ppr_core::persist;
use ppr_core::SparseVector;
use ppr_graph::{CsrGraph, GraphDelta, NodeId};
use ppr_wire::{
    encode_frame, FramedStream, Message, WireMetrics, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::Duration;

/// Configuration of one multi-process cluster.
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// Number of worker processes (= machines the index was built for).
    pub machines: usize,
    /// Command line (`argv[0]` + args) that starts one worker process.
    /// Per-worker identity travels in `PPR_WORKER_*` environment
    /// variables, so every worker runs the same command.
    pub worker_command: Vec<String>,
    /// Path of the persisted `.pprx` snapshot workers cold-start from.
    /// Rewritten (atomically) at every epoch barrier.
    pub index_path: PathBuf,
    /// Per-operation socket deadline for request/reply traffic.
    pub io_deadline: Duration,
    /// Deadline for a spawned worker to connect back and say `Hello`.
    pub handshake_deadline: Duration,
    /// Deadline for a worker to apply an epoch delta and ack it
    /// (index maintenance can far outlast a request round-trip).
    pub update_deadline: Duration,
    /// Heartbeat sweep interval: at most once per interval, rounds
    /// ping every worker and eagerly respawn dead ones.
    pub heartbeat: Duration,
    /// Per-frame byte budget (anti-OOM bound on the length field).
    pub max_frame_bytes: u64,
    /// Per-worker `PPR_WORKER_CHAOS` values for fault-injection tests
    /// (empty string = no chaos). Missing entries default to none.
    pub chaos: Vec<String>,
}

impl SocketConfig {
    /// A config with production-shaped deadlines; `worker_command` runs
    /// one worker and `index_path` is where snapshots live.
    pub fn new(machines: usize, worker_command: Vec<String>, index_path: PathBuf) -> Self {
        Self {
            machines,
            worker_command,
            index_path,
            io_deadline: Duration::from_secs(10),
            handshake_deadline: Duration::from_secs(20),
            update_deadline: Duration::from_secs(60),
            heartbeat: Duration::from_millis(500),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            chaos: Vec::new(),
        }
    }
}

/// One machine's answer to one fan-out round over the real wire.
#[derive(Clone, Debug)]
pub struct MachineReply {
    /// Reply vectors, one per requested source (exactly one for a
    /// preference round) — the same shares the modeled transport
    /// computes in-process.
    pub vectors: Vec<SparseVector>,
    /// Seconds the worker measured for its compute (shipped in the
    /// reply frame).
    pub compute_seconds: f64,
    /// Measured on-wire size of the reply frame. Equal by construction
    /// to [`ppr_wire::reply_frame_bytes`] of `vectors` — the shared
    /// formula both byte columns use.
    pub frame_bytes: u64,
    /// Request attempts this round (1 = first try answered).
    pub attempts: u32,
}

/// Counters describing the supervisor's life so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct SupervisorStats {
    /// Worker processes respawned after a crash or timeout (initial
    /// launches not counted).
    pub restarts: u64,
    /// Spawn or handshake attempts that failed outright.
    pub spawn_failures: u64,
    /// Heartbeat sweeps run.
    pub sweeps: u64,
    /// Fan-out rounds driven over the wire.
    pub rounds: u64,
}

struct Worker {
    child: Child,
    stream: FramedStream,
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Backstop against orphans: the graceful path (Shutdown frame)
        // has already run if it was going to.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct SocketState {
    config: SocketConfig,
    listener: TcpListener,
    addr: SocketAddr,
    /// Current graph, shipped in `Welcome` to (re)joining workers.
    graph: CsrGraph,
    /// Decode bound for incoming ids; tracks the current graph.
    node_bound: u64,
    epoch: u64,
    /// Round sequence number used to match replies to requests.
    seq: u64,
    ping_seq: u64,
    workers: Vec<Option<Worker>>,
    /// Metrics absorbed from dead workers' streams; live streams are
    /// added on read.
    metrics: WireMetrics,
    stats: SupervisorStats,
    last_sweep: Stopwatch,
}

/// Supervisor for a cluster of real worker processes. Cheap to share:
/// all state sits behind one mutex, and every method takes `&self`.
pub struct SocketCluster {
    inner: Mutex<SocketState>,
}

impl SocketCluster {
    /// Persist `index` to `config.index_path`, spawn one worker process
    /// per machine, and complete the `Hello`/`Welcome` handshake with
    /// each at `epoch`.
    ///
    /// # Errors
    /// Snapshot write, bind, spawn, or handshake failures; any spawned
    /// children are killed before returning.
    pub fn launch(
        config: SocketConfig,
        index: &HgpaIndex,
        graph: &CsrGraph,
        epoch: u64,
    ) -> io::Result<Self> {
        if config.machines == 0 || config.machines != index.machines() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "socket cluster wants {} machines but the index was built for {}",
                    config.machines,
                    index.machines()
                ),
            ));
        }
        save_snapshot(&config.index_path, index)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let machines = config.machines;
        let mut state = SocketState {
            config,
            listener,
            addr,
            graph: graph.clone(),
            node_bound: graph.node_count() as u64,
            epoch,
            seq: 0,
            ping_seq: 0,
            workers: (0..machines).map(|_| None).collect(),
            metrics: WireMetrics::default(),
            stats: SupervisorStats::default(),
            last_sweep: Stopwatch::start(),
        };
        for m in 0..machines {
            state.spawn_worker(m, true)?;
        }
        Ok(Self {
            inner: Mutex::new(state),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, SocketState> {
        match self.inner.lock() {
            Ok(g) => g,
            // A panicking round leaves no half-written protocol state the
            // next round can't recover from (errors kill + respawn the
            // worker), so poisoning is survivable.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Number of worker processes.
    pub fn machines(&self) -> usize {
        self.state().config.machines
    }

    /// Epoch the cluster last published.
    pub fn epoch(&self) -> u64 {
        self.state().epoch
    }

    /// The coordinator's listening address (workers connect back to it).
    pub fn addr(&self) -> SocketAddr {
        self.state().addr
    }

    /// Supervisor counters.
    pub fn supervisor_stats(&self) -> SupervisorStats {
        self.state().stats
    }

    /// Cumulative measured wire traffic, live streams included.
    pub fn metrics(&self) -> WireMetrics {
        let st = self.state();
        let mut total = st.metrics;
        for w in st.workers.iter().flatten() {
            total.absorb(w.stream.metrics());
        }
        total
    }

    /// OS pids of the live workers (`None` for machines currently down)
    /// — the handle crash tests use to deliver a real `kill -9`.
    pub fn worker_pids(&self) -> Vec<Option<u32>> {
        self.state()
            .workers
            .iter()
            .map(|w| w.as_ref().map(|w| w.child.id()))
            .collect()
    }

    /// One batched fan-out round over the wire: every machine computes
    /// one reply vector per source. `None` entries are machines that
    /// exhausted `resilience.max_attempts` (crash + failed restarts) —
    /// the caller discards the round's partial sums for them exactly as
    /// it does for modeled dropped replies.
    pub fn round(
        &self,
        sources: &[NodeId],
        resilience: &ResilienceConfig,
    ) -> Vec<Option<MachineReply>> {
        self.round_of(RoundKind::Sources(sources), resilience)
    }

    /// [`SocketCluster::round`] for either [`RoundKind`] — the entry
    /// point [`Cluster`](crate::Cluster)'s one round drives. A preference
    /// round folds the weighted set into a single reply vector.
    pub(crate) fn round_of(
        &self,
        kind: RoundKind<'_>,
        resilience: &ResilienceConfig,
    ) -> Vec<Option<MachineReply>> {
        self.state()
            .drive_round(kind, resilience.max_attempts.max(1))
    }

    /// Publish one epoch barrier: persist the post-delta snapshot
    /// (atomically, **before** any worker hears about the delta), send
    /// the delta to every live worker, then collect the acks in machine
    /// order. The workers apply it concurrently, so the publish waits for
    /// the slowest maintenance pass, not for their sum. A worker that
    /// fails either step is killed and will cold-start from the new
    /// snapshot at the next round — consistent either way. Returns the
    /// number of acks.
    ///
    /// # Errors
    /// Only encoding the delta's frame and writing the snapshot can fail,
    /// both before anything is sent: on `Err` the workers still serve the
    /// previous epoch, so the caller must stop routing queries here
    /// (detach) or retry the publish.
    pub fn publish_epoch(
        &self,
        index: &HgpaIndex,
        graph: &CsrGraph,
        delta: &GraphDelta,
        epoch: u64,
    ) -> io::Result<usize> {
        let frame = encode_frame(&Message::Update {
            epoch,
            delta: delta.clone(),
        })?;
        let mut st = self.state();
        save_snapshot(&st.config.index_path, index)?;
        st.graph = graph.clone();
        st.node_bound = graph.node_count() as u64;
        st.epoch = epoch;
        let machines = st.config.machines;
        let mut sent = Vec::with_capacity(machines);
        for m in 0..machines {
            if st.workers[m].is_none() {
                continue; // will cold-start from the new snapshot
            }
            let result = st.with_worker(m, |w, deadlines| {
                w.stream.set_deadline(deadlines.update_deadline);
                w.stream.send_frame(&frame)
            });
            match result {
                Ok(_) => sent.push(m),
                Err(_) => st.kill(m),
            }
        }
        let node_bound = st.node_bound;
        let mut acks = 0usize;
        for m in sent {
            let acked = st
                .with_worker(m, |w, deadlines| {
                    let (msg, _) = w.stream.recv(node_bound)?;
                    w.stream.set_deadline(deadlines.io_deadline);
                    match msg {
                        Message::UpdateAck {
                            epoch: e,
                            machine,
                        } if e == epoch && machine as usize == m => Ok(()),
                        other => Err(protocol_err(m, "UpdateAck", &other)),
                    }
                })
                .is_ok();
            if acked {
                acks += 1;
            } else {
                st.kill(m);
            }
        }
        Ok(acks)
    }

    /// Run one heartbeat sweep now (rounds also sweep when the interval
    /// elapses): reap exited children, ping the rest, respawn the dead.
    /// Returns how many workers were respawned.
    pub fn sweep(&self) -> usize {
        self.state().sweep_now()
    }

    /// Gracefully stop every worker (Shutdown frame, then kill as the
    /// backstop via `Worker`'s `Drop`).
    pub fn shutdown(&self) {
        let mut st = self.state();
        for m in 0..st.config.machines {
            if st.workers[m].is_some() {
                let _ = st.with_worker(m, |w, _| w.stream.send(&Message::Shutdown).map(|_| ()));
                st.kill(m);
            }
        }
    }
}

impl Drop for SocketCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What one fan-out round asks every machine to compute — shared by
/// the in-process and the socket transport.
#[derive(Clone, Copy)]
pub(crate) enum RoundKind<'a> {
    /// One reply vector per (distinct) source.
    Sources(&'a [NodeId]),
    /// One reply vector folding the whole weighted preference set.
    Preference(&'a [(NodeId, f64)]),
}

impl RoundKind<'_> {
    fn message(&self, round: u64) -> Message {
        match self {
            RoundKind::Sources(sources) => Message::Request {
                round,
                sources: sources.to_vec(),
            },
            RoundKind::Preference(pairs) => Message::RequestPref {
                round,
                pairs: pairs.to_vec(),
            },
        }
    }

    /// Reply vectors every machine owes for this round.
    pub(crate) fn expected_vectors(&self) -> usize {
        match self {
            RoundKind::Sources(sources) => sources.len(),
            RoundKind::Preference(_) => 1,
        }
    }
}

/// Deadline pair handed to per-worker closures (borrowed out of the
/// config so the closure can hold `&mut Worker` at the same time).
#[derive(Clone, Copy)]
struct Deadlines {
    io_deadline: Duration,
    update_deadline: Duration,
}

impl SocketState {
    /// Run `f` against worker `m`'s connection. The worker must exist.
    fn with_worker<T>(
        &mut self,
        m: usize,
        f: impl FnOnce(&mut Worker, Deadlines) -> io::Result<T>,
    ) -> io::Result<T> {
        let deadlines = Deadlines {
            io_deadline: self.config.io_deadline,
            update_deadline: self.config.update_deadline,
        };
        match self.workers[m].as_mut() {
            Some(w) => f(w, deadlines),
            None => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                format!("machine {m} is down"),
            )),
        }
    }

    /// Kill worker `m` (if any), folding its stream counters into the
    /// cluster totals. `Worker`'s `Drop` reaps the process.
    fn kill(&mut self, m: usize) {
        if let Some(w) = self.workers[m].take() {
            self.metrics.absorb(w.stream.metrics());
        }
    }

    /// Spawn worker `m` and complete the handshake: accept its
    /// connection, read `Hello`, answer `Welcome` with the current graph
    /// and epoch. `initial` distinguishes launch from supervision
    /// restarts in the counters.
    fn spawn_worker(&mut self, m: usize, initial: bool) -> io::Result<()> {
        self.kill(m);
        let result = self.try_spawn(m);
        match result {
            Ok(worker) => {
                self.workers[m] = Some(worker);
                if !initial {
                    self.stats.restarts += 1;
                }
                Ok(())
            }
            Err(e) => {
                self.stats.spawn_failures += 1;
                Err(e)
            }
        }
    }

    fn try_spawn(&mut self, m: usize) -> io::Result<Worker> {
        let cmd = &self.config.worker_command;
        let program = cmd.first().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "empty worker command")
        })?;
        let chaos = self.config.chaos.get(m).cloned().unwrap_or_default();
        let mut child = Command::new(program)
            .args(&cmd[1..])
            .env("PPR_WORKER_MACHINE", m.to_string())
            .env("PPR_WORKER_ADDR", self.addr.to_string())
            .env("PPR_WORKER_INDEX", &self.config.index_path)
            .env("PPR_WORKER_CHAOS", chaos)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        match self.handshake(m, &mut child) {
            Ok(stream) => Ok(Worker { child, stream }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Accept the connection for machine `m` and run the
    /// `Hello`/`Welcome` exchange. The listener is non-blocking; the
    /// loop polls with a sleep under `handshake_deadline`, so a worker
    /// that dies before connecting costs one deadline, not a hang.
    fn handshake(&mut self, m: usize, child: &mut Child) -> io::Result<FramedStream> {
        let t = Stopwatch::start();
        let stream = loop {
            match self.listener.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false)?;
                    break s;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if child.try_wait()?.is_some() {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!("worker {m} exited before connecting"),
                        ));
                    }
                    if t.elapsed_seconds() > self.config.handshake_deadline.as_secs_f64() {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("worker {m} never connected"),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        };
        let mut fs = FramedStream::new(stream, self.config.io_deadline);
        fs.set_max_frame_bytes(self.config.max_frame_bytes);
        let (hello, _) = fs.recv(self.node_bound)?;
        match hello {
            Message::Hello { machine, proto }
                if machine as usize == m && proto == PROTOCOL_VERSION => {}
            other => return Err(protocol_err(m, "Hello", &other)),
        }
        fs.send(&Message::Welcome {
            epoch: self.epoch,
            graph: self.graph.clone(),
        })?;
        Ok(fs)
    }

    /// Make sure worker `m` is live, respawning it if necessary.
    fn ensure_worker(&mut self, m: usize) -> io::Result<()> {
        if self.workers[m].is_some() {
            return Ok(());
        }
        self.spawn_worker(m, false)
    }

    /// Receive worker `m`'s reply for round `round`, validating shape.
    /// Stray frames from earlier supervision traffic are skipped (a
    /// bounded number of times); anything else is a protocol error.
    fn recv_reply(&mut self, m: usize, round: u64, expected: usize) -> io::Result<MachineReply> {
        let node_bound = self.node_bound;
        self.with_worker(m, |w, _| {
            for _ in 0..4 {
                let (msg, frame_bytes) = w.stream.recv(node_bound)?;
                match msg {
                    Message::Reply {
                        round: r,
                        machine,
                        compute_seconds,
                        vectors,
                    } if r == round && machine as usize == m => {
                        if vectors.len() != expected {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "machine {m} sent {} vectors, expected {expected}",
                                    vectors.len()
                                ),
                            ));
                        }
                        return Ok(MachineReply {
                            vectors,
                            compute_seconds,
                            frame_bytes,
                            attempts: 0, // caller fills in
                        });
                    }
                    // Stale pong or an out-of-round reply from a
                    // connection we were about to recycle: skip.
                    Message::Pong { .. } | Message::Reply { .. } => continue,
                    other => return Err(protocol_err(m, "Reply", &other)),
                }
            }
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("machine {m} flooded the round with stray frames"),
            ))
        })
    }

    /// Drive one fan-out round: send to all live workers first (so their
    /// compute overlaps for real), then collect replies, then retry the
    /// missing machines — restart included — up to `max_attempts` each.
    fn drive_round(&mut self, kind: RoundKind<'_>, max_attempts: u32) -> Vec<Option<MachineReply>> {
        self.maybe_sweep();
        let round = self.seq;
        self.seq += 1;
        self.stats.rounds += 1;
        let machines = self.config.machines;
        let expected = kind.expected_vectors();
        let mut out: Vec<Option<MachineReply>> = (0..machines).map(|_| None).collect();
        let mut attempts = vec![0u32; machines];

        // Phase 1: fan the request out to every live machine.
        let mut in_flight = vec![false; machines];
        for m in 0..machines {
            if self.ensure_worker(m).is_err() {
                continue;
            }
            attempts[m] = 1;
            let msg = kind.message(round);
            match self.with_worker(m, |w, _| w.stream.send(&msg).map(|_| ())) {
                Ok(()) => in_flight[m] = true,
                Err(_) => self.kill(m),
            }
        }

        // Phase 2: collect the overlapped replies.
        for m in 0..machines {
            if !in_flight[m] {
                continue;
            }
            match self.recv_reply(m, round, expected) {
                Ok(mut r) => {
                    r.attempts = attempts[m];
                    out[m] = Some(r);
                }
                Err(_) => self.kill(m),
            }
        }

        // Phase 3: sequential retries for whoever is missing. Each
        // attempt is a full restart-from-snapshot + resend; a machine
        // that keeps dying stays `None` and the caller degrades.
        for m in 0..machines {
            while out[m].is_none() && attempts[m] < max_attempts {
                attempts[m] += 1;
                if self.ensure_worker(m).is_err() {
                    continue;
                }
                let msg = kind.message(round);
                if self
                    .with_worker(m, |w, _| w.stream.send(&msg).map(|_| ()))
                    .is_err()
                {
                    self.kill(m);
                    continue;
                }
                match self.recv_reply(m, round, expected) {
                    Ok(mut r) => {
                        r.attempts = attempts[m];
                        out[m] = Some(r);
                    }
                    Err(_) => self.kill(m),
                }
            }
        }
        out
    }

    /// Interval-gated heartbeat sweep (see [`SocketCluster::sweep`]).
    fn maybe_sweep(&mut self) {
        if self.last_sweep.elapsed_seconds() < self.config.heartbeat.as_secs_f64() {
            return;
        }
        self.sweep_now();
    }

    fn sweep_now(&mut self) -> usize {
        self.last_sweep = Stopwatch::start();
        self.stats.sweeps += 1;
        let machines = self.config.machines;
        let mut respawned = 0usize;
        for m in 0..machines {
            // Reap silently-exited children first: `kill -9` between
            // rounds surfaces here, not as a round error.
            let exited = match self.workers[m].as_mut() {
                Some(w) => !matches!(w.child.try_wait(), Ok(None)),
                None => false,
            };
            if exited {
                self.kill(m);
            }
            if self.workers[m].is_some() {
                let seq = self.ping_seq;
                self.ping_seq += 1;
                let node_bound = self.node_bound;
                let alive = self
                    .with_worker(m, |w, _| {
                        w.stream.send(&Message::Ping { seq })?;
                        let (msg, _) = w.stream.recv(node_bound)?;
                        match msg {
                            Message::Pong {
                                seq: s, machine, ..
                            } if s == seq && machine as usize == m => Ok(()),
                            other => Err(protocol_err(m, "Pong", &other)),
                        }
                    })
                    .is_ok();
                if !alive {
                    self.kill(m);
                }
            }
            if self.workers[m].is_none() && self.spawn_worker(m, false).is_ok() {
                respawned += 1;
            }
        }
        respawned
    }
}

impl Drop for SocketState {
    fn drop(&mut self) {
        // `Worker`'s own `Drop` kills and reaps each child.
        self.workers.clear();
    }
}

fn protocol_err(machine: usize, expected: &str, got: &Message) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("machine {machine}: expected {expected}, got {got:?}"),
    )
}

/// Write the snapshot atomically: a worker cold-starting concurrently
/// sees either the old file or the new one, never a torn write.
fn save_snapshot(path: &std::path::Path, index: &HgpaIndex) -> io::Result<()> {
    let tmp = path.with_extension("pprx.tmp");
    persist::save_hgpa_file(index, &tmp)?;
    std::fs::rename(&tmp, path)
}
