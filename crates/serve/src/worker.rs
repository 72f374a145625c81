//! Worker process main loop for the socket-transport cluster.
//!
//! One worker is one *machine* of the paper's cluster, as a real OS
//! process: it cold-starts from the persisted `.pprx` snapshot named in
//! `PPR_WORKER_INDEX`, connects back to the coordinator at
//! `PPR_WORKER_ADDR`, introduces itself (`Hello` with its machine id
//! from `PPR_WORKER_MACHINE`), receives the current graph and epoch
//! (`Welcome`), and then serves fan-out frames until told to stop:
//!
//! * `Request` / `RequestPref` → the machine's Eq. 5/7 share, computed
//!   with the same `machine_vectors_into` the modeled transport calls
//!   in-process (bit-identity by construction), shipped as one `Reply`;
//! * `Update` → apply the epoch delta through the shared
//!   [`IndexReplica`] path and ack;
//! * `Ping` → `Pong` (the supervisor's heartbeat);
//! * `Shutdown`, or EOF because the coordinator died → exit. A worker
//!   never outlives its coordinator — no orphan processes.
//!
//! `PPR_WORKER_CHAOS` arms deterministic fault injection for the crash
//! and corruption test suites (`kill-after-requests:N` aborts the
//! process on the Nth request before replying — a `kill -9` mid-batch —
//! and `garbage-reply:N` answers the Nth request with a deliberately
//! malformed frame).

use crate::replica::IndexReplica;
use ppr_cluster::DistributedQueryable;
use ppr_core::parallel::Stopwatch;
use ppr_core::persist;
use ppr_core::Scratch;
use ppr_wire::{FramedStream, Message, PROTOCOL_VERSION};
use std::io;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// Deterministic fault injection, armed via `PPR_WORKER_CHAOS`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Chaos {
    /// Serve honestly forever.
    #[default]
    None,
    /// Abort the process (as if `kill -9`ed) upon *receiving* request
    /// number N (1-based) — after the coordinator committed to the
    /// round, before any reply: the crash-mid-batch case.
    KillAfterRequests(u64),
    /// Answer request number N (1-based) with a malformed frame instead
    /// of a `Reply`, then keep serving. The coordinator must treat the
    /// corruption as a dropped reply, never crash on it.
    GarbageReply(u64),
}

impl Chaos {
    /// Parse the `PPR_WORKER_CHAOS` syntax (empty = none).
    ///
    /// # Errors
    /// Unknown directives — a typo must fail loudly, not serve honestly.
    pub fn parse(spec: &str) -> io::Result<Self> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(Self::None);
        }
        let parse_n = |rest: &str| {
            rest.parse::<u64>()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))
        };
        if let Some(rest) = spec.strip_prefix("kill-after-requests:") {
            return Ok(Self::KillAfterRequests(parse_n(rest)?));
        }
        if let Some(rest) = spec.strip_prefix("garbage-reply:") {
            return Ok(Self::GarbageReply(parse_n(rest)?));
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown PPR_WORKER_CHAOS directive: {spec:?}"),
        ))
    }
}

/// Everything one worker process needs to serve.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// This worker's machine id (shard of the fan-out it answers).
    pub machine: u32,
    /// Coordinator address to connect back to (`host:port`).
    pub addr: String,
    /// The `.pprx` snapshot to cold-start from.
    pub index_path: PathBuf,
    /// Per-operation socket deadline.
    pub io_deadline: Duration,
    /// Armed fault injection.
    pub chaos: Chaos,
}

impl WorkerConfig {
    /// Read the `PPR_WORKER_*` environment contract the supervisor sets.
    ///
    /// # Errors
    /// Missing or malformed variables.
    pub fn from_env() -> io::Result<Self> {
        let var = |name: &str| {
            std::env::var(name)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, format!("{name} not set")))
        };
        let machine = var("PPR_WORKER_MACHINE")?
            .parse::<u32>()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let addr = var("PPR_WORKER_ADDR")?;
        let index_path = PathBuf::from(var("PPR_WORKER_INDEX")?);
        let io_ms = std::env::var("PPR_WORKER_IO_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(10_000);
        let chaos = Chaos::parse(&std::env::var("PPR_WORKER_CHAOS").unwrap_or_default())?;
        Ok(Self {
            machine,
            addr,
            index_path,
            io_deadline: Duration::from_millis(io_ms.max(1)),
            chaos,
        })
    }
}

/// Run one worker to completion under the environment contract — the
/// whole body of the `ppr-worker` binary and the hidden `repro worker`
/// subcommand.
///
/// # Errors
/// Startup failures (bad env, unreadable snapshot, handshake) and
/// protocol violations; a vanished coordinator is a clean `Ok` exit.
pub fn run_from_env() -> io::Result<()> {
    run(&WorkerConfig::from_env()?)
}

/// Run one worker to completion.
///
/// # Errors
/// See [`run_from_env`].
pub fn run(config: &WorkerConfig) -> io::Result<()> {
    let index = persist::load_index_file(&config.index_path)?;
    let machine = config.machine;
    let stream = connect_with_retries(&config.addr)?;
    let mut fs = FramedStream::new(stream, config.io_deadline);
    fs.send(&Message::Hello {
        machine,
        proto: PROTOCOL_VERSION,
    })?;
    // The Welcome graph describes the same node set as the snapshot, so
    // the snapshot's node count bounds every id in it.
    let (welcome, _) = fs.recv(index.node_count() as u64)?;
    let (epoch, graph) = match welcome {
        Message::Welcome { epoch, graph } => (epoch, graph),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("worker {machine}: expected Welcome, got {other:?}"),
            ))
        }
    };
    let mut replica = IndexReplica::new(graph, index, epoch);
    let mut scratch = Scratch::with_len(replica.index().node_count());
    let mut served = 0u64;

    loop {
        let bound = replica.graph().node_count() as u64;
        let msg = match fs.recv(bound) {
            Ok((msg, _)) => msg,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue; // idle coordinator; keep waiting
            }
            // EOF or reset: the coordinator is gone. Exit instead of
            // lingering — the supervisor owns restarts, and a worker
            // without a coordinator is an orphan.
            Err(_) => return Ok(()),
        };
        match msg {
            Message::Request { round, sources } => {
                served += 1;
                if chaos_strikes(config.chaos, served, &mut fs)? {
                    continue;
                }
                let t = Stopwatch::start();
                let vectors = replica
                    .index()
                    .machine_vectors_into(&sources, machine, &mut scratch);
                let compute_seconds = t.elapsed_seconds();
                fs.send(&Message::Reply {
                    round,
                    machine,
                    compute_seconds,
                    vectors,
                })?;
            }
            Message::RequestPref { round, pairs } => {
                served += 1;
                if chaos_strikes(config.chaos, served, &mut fs)? {
                    continue;
                }
                let t = Stopwatch::start();
                let v = replica
                    .index()
                    .machine_vector_preference_into(&pairs, machine, &mut scratch);
                let compute_seconds = t.elapsed_seconds();
                fs.send(&Message::Reply {
                    round,
                    machine,
                    compute_seconds,
                    vectors: vec![v],
                })?;
            }
            Message::Update { epoch, delta } => {
                // The coordinator only publishes deltas it applied
                // successfully, so a failure here is real divergence:
                // exit nonzero and let the supervisor cold-start a fresh
                // replica from the post-delta snapshot.
                replica.apply(&delta, epoch).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("worker {machine}: epoch {epoch} delta rejected: {e:?}"),
                    )
                })?;
                // Node churn can resize the id space; the scratch arena
                // must track it.
                scratch = Scratch::with_len(replica.index().node_count());
                fs.send(&Message::UpdateAck { epoch, machine })?;
            }
            Message::Ping { seq } => {
                fs.send(&Message::Pong {
                    seq,
                    machine,
                    epoch: replica.epoch(),
                })?;
            }
            Message::Shutdown => return Ok(()),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("worker {machine}: unexpected frame {other:?}"),
                ))
            }
        }
    }
}

/// Fire any armed chaos for request number `served`. Returns `true` when
/// the request was consumed by the chaos (no honest reply must follow).
fn chaos_strikes(chaos: Chaos, served: u64, fs: &mut FramedStream) -> io::Result<bool> {
    match chaos {
        Chaos::None => Ok(false),
        Chaos::KillAfterRequests(n) if served == n => {
            // As close to `kill -9` as a process can do to itself: no
            // unwinding, no cleanup, no reply — the coordinator sees a
            // dead connection mid-round.
            std::process::abort();
        }
        Chaos::KillAfterRequests(_) => Ok(false),
        Chaos::GarbageReply(n) if served == n => {
            // A frame-sized lie: valid length so the coordinator's read
            // completes, then garbage where the payload should be.
            fs.send_raw(b"PPRW\x05\x08\x00\x00\x00\xde\xad\xbe\xefXXXXXXXX")?;
            Ok(true)
        }
        Chaos::GarbageReply(_) => Ok(false),
    }
}

/// Connect to the coordinator, retrying briefly: the supervisor binds
/// its listener before spawning workers, but a loaded host can still
/// reorder the first connect ahead of the accept loop.
fn connect_with_retries(addr: &str) -> io::Result<TcpStream> {
    let mut last = io::Error::new(io::ErrorKind::TimedOut, "no connect attempt made");
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    Err(last)
}
