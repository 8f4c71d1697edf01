//! The four workloads, each driven closed-loop through the public
//! `cio::world::World` and `cio::kv::KvWorld` APIs: every session keeps
//! exactly one request outstanding, and every reply goes through the
//! oracle before its op counts as done.
//!
//! The loops follow the ones behind the repository's own claims: the
//! E8/E23 echo (`rpc-small`), the E16 download (`bulk-16k`), the E24 KV
//! mix (`kv-mixed`) and the E21 churn (`session-churn`).

use crate::oracle::{self, EchoCheck, Mismatch, RpcCheck};
use cio::kv::{KvConfig, KvWorld};
use cio::world::{
    BatchPolicy, BoundaryKind, NotifyMode, NotifyPolicy, SessionId, SessionScratch, SessionStats,
    World, WorldOptions, ECHO_PORT, RPC_PORT,
};
use cio::CioError;
use cio_host::fabric::LinkParams;
use cio_sim::{CostModel, Cycles, MeterSnapshot, Profile, SimRng, Telemetry};
use std::fmt;
use std::time::{Duration, Instant};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["rpc-small", "bulk-16k", "kv-mixed", "session-churn"];

/// Sessions (network) or block-ring lanes (KV) per workload.
pub const SESSIONS: usize = 2;

/// Echo request sizes of `rpc-small`: they straddle the 512 B threshold
/// at which the AEAD switches to its wide ChaCha lanes.
pub const RPC_SIZES: [usize; 3] = [64, 256, 1024];
/// Response body bytes per `bulk-16k` request.
pub const BULK_BYTES: u32 = 16 * 1024;
/// Echo bytes per `session-churn` lifecycle.
pub const CHURN_BYTES: usize = 256;
/// KV value sizes: the value-size ladder of E24 (`exp_kv`), up to
/// 16 KiB. The seed draws one per put.
pub const KV_SIZES: [usize; 5] = [64, 256, 1024, 4096, 16 * 1024];
/// Largest KV value.
pub const KV_VALUE_MAX: usize = 16 * 1024;
/// KV keys. Puts rotate over them as in E24. Their live values (≈9 MB
/// at the mean ladder size of ≈4.4 KB) exceed the log (8 MiB over two
/// 1024-block lanes), so the log wraps and evicts the oldest keys before
/// their next put.
pub const KV_KEYS: usize = 2048;
/// Blocks per KV log segment (the flush unit).
pub const KV_SEG_BLOCKS: usize = 32;
/// Bytes of seeded random corpus KV values are cut from.
const KV_CORPUS: usize = 1 << 20;

/// Steps a stuck request may wait without progress before it counts as
/// timed out.
const IDLE_LIMIT: u32 = 200_000;
/// Step budget for one session handshake.
const ESTABLISH_STEPS: usize = 20_000;
/// Sizes kept for the layer replays.
const MAX_RECORDED: usize = 4096;
/// Lifecycles `session-churn` runs on one world before the benchmark
/// replaces it. The peer never releases the sockets of closed sessions,
/// so every lifecycle makes each later step scan one more socket and the
/// per-lifecycle cost grows with the lifecycles a world has run (on a
/// 2-vCPU virtual machine: ≈1.3 ms each for the first 250, ≈11 ms each
/// for lifecycles 2000–3000). A fixed window keeps the figure
/// independent of run length while the growth inside the window still
/// counts; the replacement is set-up work, kept out of every timed
/// window.
pub const CHURN_WINDOW: u64 = 512;
/// Rounds between clears of the world's host-observation recorder. The
/// recorder models what the host sees and keeps every event; cleared
/// this often, its memory stays bounded by a fixed amount of work
/// rather than growing with the run (the repository's experiments clear
/// it before measuring).
const RECORDER_ROUNDS: u64 = 1024;

/// Lowest acceptable share of a traced loop's wall time spent inside the
/// timed public calls (`world.coverage`), on every workload. The rest is
/// the benchmark's own bookkeeping and oracle.
pub const COVERAGE_FLOOR: f64 = 0.80;

/// How one workload is run.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Ops run before the first timed op (part of set-up).
    pub warmup_ops: u64,
    /// Ops in the deterministic prefix the model cycles and `Meter`
    /// counts are taken over.
    pub prefix_ops: u64,
    /// Whether the seed draws the op stream. `bulk-16k` always asks for
    /// 16 KiB; there the seed only keys the sessions.
    pub seeded_stream: bool,
    /// Records per commit in the ring replay (the dataplane's batch).
    pub ring_batch: usize,
    /// How an untraced window is cut into slices and summarised.
    pub slicing: Slicing,
    /// Per-layer metrics of the layers this workload bypasses: exact
    /// names, or whole families written as `family.`. They print as 0,
    /// and their replays do not run.
    pub bypassed: &'static [&'static str],
}

/// How an untraced window is cut into slices, and which slices its
/// throughput and p50 latency come from.
#[derive(Debug, Clone, Copy)]
pub struct Slicing {
    /// Length of a time slice; `None` cuts one slice per world.
    pub len: Option<Duration>,
    /// Throughput is this quantile of the slices' rates, and p50 latency
    /// the complementary quantile of the slices' medians: the fast side,
    /// the program's speed in the calmest stretches of a shared machine
    /// (see the `README.md` next to this package).
    pub rate_q: f64,
}

impl Slicing {
    /// `rpc-small` and `bulk-16k`: every op is alike, so a 25 ms slice
    /// (hundreds to thousands of ops) is a fair sample of the load. The
    /// 99th percentile is the 12th-fastest of 1200 slices in a 30-second
    /// run.
    const SHORT: Slicing = Slicing {
        len: Some(Duration::from_millis(25)),
        rate_q: 0.99,
    };
    /// `kv-mixed`: a slice must span enough segment flushes (24 per
    /// thousand ops, ≈130 in 100 ms) that their number does not decide
    /// which slices are fastest. The 98th percentile is the 6th-fastest
    /// of 300.
    const LONG: Slicing = Slicing {
        len: Some(Duration::from_millis(100)),
        rate_q: 0.98,
    };
    /// `session-churn` slows down through each world's [`CHURN_WINDOW`]
    /// lifecycles (≈800 lifecycles/s at the start, ≈400 at the end), so a
    /// time slice's rate would depend on which part of a world it caught.
    /// One slice per world instead, 35–45 in a 30-second run; the 90th
    /// percentile is about the 4th-fastest.
    const PER_WORLD: Slicing = Slicing {
        len: None,
        rate_q: 0.9,
    };
}

impl Spec {
    /// Whether this workload bypasses the layer behind `metric`.
    pub fn bypasses(&self, metric: &str) -> bool {
        self.bypassed.iter().any(|b| {
            if b.ends_with('.') {
                metric.starts_with(b)
            } else {
                metric == *b
            }
        })
    }
}

/// What the network workloads bypass: the KV engine and the block layer.
const NET_BYPASSES: &[&str] = &["kv.", "blk.", "calib.block"];
/// What `kv-mixed` bypasses: the network world (its `world.coverage`
/// covers the `KvWorld` calls), the session table, the handshake and the
/// network ring.
const KV_BYPASSES: &[&str] = &[
    "world.send_ns",
    "world.step_ns",
    "world.recv_ns",
    "world.steps_per_op",
    "world.establish_us",
    "world.close_us",
    "session.",
    "ctls.handshake_us",
    "vring.record_ns",
    "calib.vring",
];

/// The specification of workload `name`.
pub fn spec(name: &str) -> Option<Spec> {
    let (warmup_ops, prefix_ops, ring_batch, slicing, bypassed) = match name {
        "rpc-small" => (64, 2_000, 1, Slicing::SHORT, NET_BYPASSES),
        // The throughput dataplane commits runs of up to 8 records.
        "bulk-16k" => (16, 400, 8, Slicing::SHORT, NET_BYPASSES),
        "kv-mixed" => (4_000, 20_000, 1, Slicing::LONG, KV_BYPASSES),
        "session-churn" => (4, 100, 1, Slicing::PER_WORLD, NET_BYPASSES),
        _ => return None,
    };
    let name = NAMES.into_iter().find(|n| *n == name)?;
    Some(Spec {
        name,
        warmup_ops,
        prefix_ops,
        seeded_stream: name != "bulk-16k",
        ring_batch,
        slicing,
        bypassed,
    })
}

/// The public calls a traced run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `World::send`.
    Send,
    /// `World::step`.
    Step,
    /// `World::recv_into`.
    Recv,
    /// `World::connect`.
    Connect,
    /// `World::establish`.
    Establish,
    /// `World::close`.
    Close,
    /// `KvWorld::put_sealed`.
    Put,
    /// `KvWorld::get_sealed_into`.
    Get,
    /// `KvWorld::service`.
    Service,
}

/// Number of [`Call`] kinds.
pub const CALLS: usize = 9;

/// Wall-clock accounting of the timed calls, and whether the instance
/// arms the program's own tracing. Untimed, [`Probe::time`] is a plain
/// call.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    /// Whether calls are timed.
    pub timed: bool,
    /// Whether the instance arms telemetry and host observation
    /// (`WorldOptions::telemetry` and `observe`, `KvWorld::set_telemetry`).
    pub armed: bool,
    /// Wall nanoseconds spent inside each call kind.
    pub ns: [u64; CALLS],
    /// Calls made of each kind.
    pub calls: [u64; CALLS],
    /// Flip one bit of the next reply before the oracle sees it (lets
    /// the smoke test check that the oracle rejects a mutated reply).
    pub corrupt: bool,
}

impl Probe {
    /// A probe that times calls when `timed`, for an instance that arms
    /// the program's tracing when `armed`.
    pub fn new(timed: bool, armed: bool) -> Probe {
        Probe {
            timed,
            armed,
            ..Probe::default()
        }
    }

    /// Runs `f` as a call of kind `call`.
    #[inline]
    pub fn time<R>(&mut self, call: Call, f: impl FnOnce() -> R) -> R {
        if !self.timed {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns[call as usize] += t.elapsed().as_nanos() as u64;
        self.calls[call as usize] += 1;
        r
    }

    /// Mean wall nanoseconds per call of kind `call` (0 if none).
    pub fn mean_ns(&self, call: Call) -> f64 {
        let n = self.calls[call as usize];
        if n == 0 {
            0.0
        } else {
            self.ns[call as usize] as f64 / n as f64
        }
    }

    /// Wall nanoseconds spent inside all timed calls.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The reply as the oracle should see it: `reply` itself, or a copy
    /// with one bit flipped when a corruption is pending.
    fn tamper<'a>(&mut self, reply: &'a [u8], spare: &'a mut Vec<u8>) -> &'a [u8] {
        if !self.corrupt || reply.is_empty() {
            return reply;
        }
        self.corrupt = false;
        spare.clear();
        spare.extend_from_slice(reply);
        let last = spare.len() - 1;
        spare[last] ^= 0x01;
        spare
    }
}

/// Why a run stopped early.
#[derive(Debug)]
pub enum RunError {
    /// The oracle rejected a reply byte.
    Wrong(Mismatch),
    /// A call failed or a request timed out.
    Failed(String),
}

impl From<Mismatch> for RunError {
    fn from(m: Mismatch) -> Self {
        RunError::Wrong(m)
    }
}

impl From<CioError> for RunError {
    fn from(e: CioError) -> Self {
        RunError::Failed(e.to_string())
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Wrong(m) => write!(f, "{m}"),
            RunError::Failed(e) => write!(f, "op failed: {e}"),
        }
    }
}

/// Which latency series an op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A network op.
    Op,
    /// A KV put.
    Put,
    /// A KV get.
    Get,
}

/// One completed, verified op.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Latency series.
    pub class: Class,
    /// Verified application payload bytes.
    pub bytes: u64,
    /// When the op's request was issued.
    pub started: Instant,
}

/// KV engine counts seen from outside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvCounts {
    /// Segments flushed (`KvWorld::flushes`).
    pub flushes: u64,
    /// Log wraps (`KvWorld::wraps`).
    pub wraps: u64,
    /// Gets issued.
    pub gets: u64,
    /// Gets that found their key.
    pub hits: u64,
    /// Hits that had to read blocks (served from the log rather than
    /// the open segment). Counted only when calls are timed.
    pub from_log: u64,
}

/// What a workload exposes at one instant.
#[derive(Debug, Clone)]
pub struct Snap {
    /// Virtual clock (cycles).
    pub cycles: u64,
    /// `Meter` counters.
    pub meter: MeterSnapshot,
    /// Virtual-clock attribution profile (armed instances only).
    pub profile: Option<Profile>,
    /// Session table bookkeeping (network workloads).
    pub sessions: Option<SessionStats>,
    /// KV engine counts (KV workload).
    pub kv: KvCounts,
    /// Digest of the op stream issued so far.
    pub digest: u64,
}

/// Sizes recorded from the op stream for the layer replays.
#[derive(Debug, Clone, Default)]
pub struct Sizes {
    /// cTLS record plaintext sizes on the network path.
    pub records: Vec<usize>,
    /// KV put value sizes.
    pub values: Vec<usize>,
    /// KV hit value sizes.
    pub hits: Vec<usize>,
}

fn record(v: &mut Vec<usize>, n: usize) {
    if v.len() < MAX_RECORDED {
        v.push(n);
    }
}

fn mix(digest: &mut u64, v: u64) {
    *digest = (*digest ^ v).wrapping_mul(0x0000_0100_0000_01b3);
}

/// A running workload.
pub trait Workload {
    /// Runs one round of the closed loop (network: send where idle, one
    /// step, receive; KV and churn: one whole op), pushing completed
    /// ops to `done`. Requests issued in this round are stamped `now`.
    fn pump(&mut self, p: &mut Probe, now: Instant, done: &mut Vec<Done>) -> Result<(), RunError>;
    /// Current counters and clock.
    fn snap(&self) -> Snap;
    /// Sizes recorded for the replays.
    fn sizes(&self) -> &Sizes;
    /// Closes long-lived sessions (timed as [`Call::Close`]).
    fn finish(&mut self, p: &mut Probe) -> Result<(), RunError>;
    /// Whether the world has run its window (see [`CHURN_WINDOW`]) and
    /// is due for [`Workload::renew`].
    fn window_full(&self) -> bool {
        false
    }
    /// Replaces the world with a fresh one. Set-up work: the caller
    /// keeps it out of the timed windows.
    fn renew(&mut self, _armed: bool) -> Result<(), RunError> {
        Ok(())
    }
}

/// Builds workload `spec` from `seed` and runs its warm-up. Everything
/// here counts as set-up.
pub fn build(spec: &Spec, seed: u64, p: &mut Probe) -> Result<Box<dyn Workload>, RunError> {
    let mut wl: Box<dyn Workload> = match spec.name {
        "rpc-small" => Box::new(NetLoad::new(Kind::Echo, seed, p)?),
        "bulk-16k" => Box::new(NetLoad::new(Kind::Bulk, seed, p)?),
        "session-churn" => Box::new(NetLoad::new(Kind::Churn, seed, p)?),
        _ => Box::new(KvLoad::new(seed, p.armed)?),
    };
    let mut done = Vec::new();
    let mut ops = 0u64;
    while ops < spec.warmup_ops {
        wl.pump(p, Instant::now(), &mut done)?;
        ops += done.len() as u64;
        done.clear();
    }
    Ok(wl)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Echo,
    Bulk,
    Churn,
}

/// World options: the dual boundary with two queues over a same-rack,
/// lossless link (`bench_opts` of the experiment harness). `bulk-16k`
/// runs the throughput dataplane; the others the default one.
fn world_opts(kind: Kind, seed: u64, armed: bool) -> WorldOptions {
    let mut o = WorldOptions {
        link: LinkParams {
            latency: Cycles(3_000),
            loss: 0.0,
        },
        queues: SESSIONS,
        seed,
        telemetry: armed,
        observe: armed,
        ..WorldOptions::default()
    };
    if kind == Kind::Bulk {
        o.batch = BatchPolicy::Adaptive {
            max: 8,
            latency_cap: Cycles(50_000),
        };
        o.notify = NotifyMode::Doorbell;
        o.notify_policy = NotifyPolicy::Adaptive;
    }
    o
}

struct Sess {
    id: SessionId,
    busy: bool,
    started: Instant,
    req: usize,
    echo: EchoCheck,
    rpc: RpcCheck,
}

/// `rpc-small`, `bulk-16k` and `session-churn`.
struct NetLoad {
    kind: Kind,
    w: World,
    sessions: Vec<Sess>,
    rng: SimRng,
    payloads: Vec<Vec<u8>>,
    rx: SessionScratch,
    spare: Vec<u8>,
    idle: u32,
    rounds: u64,
    /// Lifecycles run on the current world, and worlds built so far.
    lifecycles: u64,
    generation: u64,
    seed: u64,
    digest: u64,
    sizes: Sizes,
}

impl NetLoad {
    fn new(kind: Kind, seed: u64, p: &mut Probe) -> Result<NetLoad, RunError> {
        let w = World::new(BoundaryKind::DualBoundary, world_opts(kind, seed, p.armed))?;
        let mut rng = SimRng::seed_from(seed ^ 0x6e65_745f_6c6f_6164);
        let sizes: &[usize] = match kind {
            Kind::Echo => &RPC_SIZES,
            Kind::Bulk => &[],
            Kind::Churn => &[CHURN_BYTES],
        };
        // A pool of seeded random payloads, 16 per size.
        let mut payloads = Vec::new();
        for &n in sizes {
            for _ in 0..16 {
                let mut v = vec![0u8; n];
                rng.fill_bytes(&mut v);
                payloads.push(v);
            }
        }
        let mut load = NetLoad {
            kind,
            w,
            sessions: Vec::new(),
            rng,
            payloads,
            rx: SessionScratch::new(),
            spare: Vec::new(),
            idle: 0,
            rounds: 0,
            lifecycles: 0,
            generation: 0,
            seed,
            digest: 0,
            sizes: Sizes::default(),
        };
        if kind != Kind::Churn {
            // One session per queue: RSS places a flow by its ephemeral
            // port, so flows that land on an occupied queue are closed
            // and replaced. Without this the seed would decide whether
            // the two sessions share a queue.
            let mut taken = [false; SESSIONS];
            let mut attempts = 0;
            while load.sessions.len() < SESSIONS {
                attempts += 1;
                if attempts > 64 {
                    return Err(RunError::Failed("no flow steered to a free queue".into()));
                }
                let id = p.time(Call::Connect, || load.w.connect(port(kind)))?;
                let lane = load.w.conn_lane(id).unwrap_or(0);
                if std::mem::replace(&mut taken[lane], true) {
                    load.w.close(id)?;
                    continue;
                }
                p.time(Call::Establish, || load.w.establish(id, ESTABLISH_STEPS))?;
                load.sessions.push(Sess {
                    id,
                    busy: false,
                    started: Instant::now(),
                    req: 0,
                    echo: EchoCheck::default(),
                    rpc: RpcCheck::default(),
                });
            }
        }
        Ok(load)
    }

    /// Draws the next request from the payload pool.
    fn draw(&mut self) -> usize {
        let i = self.rng.next_below(self.payloads.len() as u64) as usize;
        mix(&mut self.digest, i as u64);
        record(&mut self.sizes.records, self.payloads[i].len());
        i
    }

    fn round(&mut self, p: &mut Probe, now: Instant, done: &mut Vec<Done>) -> Result<(), RunError> {
        let bulk_req = BULK_BYTES.to_le_bytes();
        for i in 0..self.sessions.len() {
            if self.sessions[i].busy {
                continue;
            }
            let req = if self.kind == Kind::Echo {
                self.draw()
            } else {
                0
            };
            let s = &mut self.sessions[i];
            let body: &[u8] = match self.kind {
                Kind::Bulk => &bulk_req,
                _ => &self.payloads[req],
            };
            let id = s.id;
            match p.time(Call::Send, || self.w.send(id, body)) {
                Ok(_) => {
                    s.busy = true;
                    s.started = now;
                    s.req = req;
                    s.echo.reset();
                    s.rpc.reset(BULK_BYTES);
                    if self.kind == Kind::Bulk {
                        mix(&mut self.digest, u64::from(BULK_BYTES));
                        record(&mut self.sizes.records, 4);
                        record(&mut self.sizes.records, 4 + BULK_BYTES as usize);
                    }
                }
                Err(e) if e.is_transient() => {}
                Err(e) => return Err(e.into()),
            }
        }
        p.time(Call::Step, || self.w.step())?;
        let mut progressed = false;
        for s in &mut self.sessions {
            if !s.busy {
                continue;
            }
            let id = s.id;
            let n = p.time(Call::Recv, || self.w.recv_into(id, &mut self.rx))?;
            if n == 0 {
                continue;
            }
            progressed = true;
            let reply = p.tamper(self.rx.as_slice(), &mut self.spare);
            let (complete, bytes) = match self.kind {
                Kind::Bulk => (s.rpc.feed(reply)?, u64::from(BULK_BYTES)),
                _ => {
                    let sent = &self.payloads[s.req];
                    (s.echo.feed(sent, reply)?, sent.len() as u64)
                }
            };
            if complete {
                s.busy = false;
                done.push(Done {
                    class: Class::Op,
                    bytes,
                    started: s.started,
                });
            }
        }
        self.idle = if progressed { 0 } else { self.idle + 1 };
        if self.idle > IDLE_LIMIT {
            return Err(RunError::Failed("request timed out".into()));
        }
        Ok(())
    }

    /// One whole session lifecycle: connect, establish, one echo, close.
    fn lifecycle(
        &mut self,
        p: &mut Probe,
        now: Instant,
        done: &mut Vec<Done>,
    ) -> Result<(), RunError> {
        let id = p.time(Call::Connect, || self.w.connect(ECHO_PORT))?;
        p.time(Call::Establish, || self.w.establish(id, ESTABLISH_STEPS))?;
        let req = self.draw();
        loop {
            let body = &self.payloads[req];
            match p.time(Call::Send, || self.w.send(id, body)) {
                Ok(_) => break,
                Err(e) if e.is_transient() => p.time(Call::Step, || self.w.step())?,
                Err(e) => return Err(e.into()),
            }
        }
        let mut check = EchoCheck::default();
        let mut idle = 0u32;
        loop {
            p.time(Call::Step, || self.w.step())?;
            let n = p.time(Call::Recv, || self.w.recv_into(id, &mut self.rx))?;
            if n == 0 {
                idle += 1;
                if idle > IDLE_LIMIT {
                    return Err(RunError::Failed("echo timed out".into()));
                }
                continue;
            }
            idle = 0;
            let reply = p.tamper(self.rx.as_slice(), &mut self.spare);
            if check.feed(&self.payloads[req], reply)? {
                break;
            }
        }
        p.time(Call::Close, || self.w.close(id))?;
        self.lifecycles += 1;
        done.push(Done {
            class: Class::Op,
            bytes: CHURN_BYTES as u64,
            started: now,
        });
        Ok(())
    }
}

fn port(kind: Kind) -> u16 {
    if kind == Kind::Bulk {
        RPC_PORT
    } else {
        ECHO_PORT
    }
}

impl Workload for NetLoad {
    fn pump(&mut self, p: &mut Probe, now: Instant, done: &mut Vec<Done>) -> Result<(), RunError> {
        self.rounds += 1;
        if self.rounds.is_multiple_of(RECORDER_ROUNDS) {
            self.w.recorder().clear();
        }
        if self.kind == Kind::Churn {
            self.lifecycle(p, now, done)
        } else {
            self.round(p, now, done)
        }
    }

    fn snap(&self) -> Snap {
        let telemetry = self.w.telemetry();
        Snap {
            cycles: self.w.clock().now().get(),
            meter: self.w.meter().snapshot(),
            profile: telemetry.enabled().then(|| telemetry.profile()),
            sessions: Some(self.w.session_stats()),
            kv: KvCounts::default(),
            digest: self.digest,
        }
    }

    fn sizes(&self) -> &Sizes {
        &self.sizes
    }

    fn window_full(&self) -> bool {
        self.kind == Kind::Churn && self.lifecycles >= CHURN_WINDOW
    }

    fn renew(&mut self, armed: bool) -> Result<(), RunError> {
        self.generation += 1;
        let seed = self.seed.wrapping_add(self.generation);
        self.w = World::new(
            BoundaryKind::DualBoundary,
            world_opts(self.kind, seed, armed),
        )?;
        self.lifecycles = 0;
        Ok(())
    }

    fn finish(&mut self, p: &mut Probe) -> Result<(), RunError> {
        for s in std::mem::take(&mut self.sessions) {
            p.time(Call::Close, || self.w.close(s.id))?;
        }
        Ok(())
    }
}

/// `kv-mixed`: the E24 mix at 3 puts to 1 get. Puts rotate over the
/// keys; a get reads the key of the put made `d` puts earlier. E24 reads
/// at a fixed 24 puts back, which its values of up to 64 KiB place in
/// flushed blocks; at values of up to 16 KiB that distance falls inside
/// the open segment, so the seed draws `d` uniformly over the rotation
/// instead. Short distances read the open segment, most read the log,
/// and those beyond the log's reach miss because wraps evicted them.
struct KvLoad {
    kv: KvWorld,
    telemetry: Option<Telemetry>,
    rng: SimRng,
    corpus: Vec<u8>,
    /// Puts issued.
    puts: u64,
    /// `(offset, len)` into the corpus of each key's last acknowledged put.
    last: Vec<Option<(usize, usize)>>,
    out: Vec<u8>,
    spare: Vec<u8>,
    counts: KvCounts,
    digest: u64,
    sizes: Sizes,
}

impl KvLoad {
    fn new(seed: u64, armed: bool) -> Result<KvLoad, RunError> {
        let cfg = KvConfig::batched(8)
            .with_queues(SESSIONS)
            .with_notify(NotifyPolicy::Adaptive)
            .with_seg_blocks(KV_SEG_BLOCKS);
        let mut kv = KvWorld::new(cfg, CostModel::default())?;
        let telemetry = armed.then(|| Telemetry::new(kv.tee().clock().clone(), SESSIONS));
        if let Some(t) = &telemetry {
            kv.set_telemetry(t.clone());
        }
        let mut rng = SimRng::seed_from(seed ^ 0x6b76_5f6d_6978_6564);
        let mut corpus = vec![0u8; KV_CORPUS];
        rng.fill_bytes(&mut corpus);
        Ok(KvLoad {
            kv,
            telemetry,
            rng,
            corpus,
            puts: 0,
            last: vec![None; KV_KEYS],
            out: Vec::with_capacity(KV_VALUE_MAX),
            spare: Vec::new(),
            counts: KvCounts::default(),
            digest: 0,
            sizes: Sizes::default(),
        })
    }
}

impl Workload for KvLoad {
    fn pump(&mut self, p: &mut Probe, now: Instant, done: &mut Vec<Done>) -> Result<(), RunError> {
        let put = self.rng.next_below(4) != 0;
        let keys = KV_KEYS as u64;
        let k = if put {
            self.puts % keys
        } else {
            let d = 1 + self.rng.next_below(keys);
            // Before the first rotation completes this may name a key
            // never put, which must miss.
            (self.puts + keys - d) % keys
        } as usize;
        let key = (k as u64).to_le_bytes();
        let mut bytes = 0u64;
        let class = if put {
            let len = KV_SIZES[self.rng.next_below(KV_SIZES.len() as u64) as usize];
            let off = self.rng.next_below((KV_CORPUS - len) as u64) as usize;
            let value = &self.corpus[off..off + len];
            p.time(Call::Put, || self.kv.put_sealed(&key, value))?;
            self.last[k] = Some((off, len));
            self.puts += 1;
            mix(&mut self.digest, (k as u64) << 32 | len as u64);
            record(&mut self.sizes.values, len);
            bytes += len as u64;
            Class::Put
        } else {
            let blk_before = p.timed.then(|| self.kv.meter().snapshot().blk_records);
            let hit = p.time(Call::Get, || self.kv.get_sealed_into(&key, &mut self.out))?;
            mix(&mut self.digest, k as u64 | 1 << 63);
            self.counts.gets += 1;
            if hit {
                self.counts.hits += 1;
                if blk_before.is_some_and(|b| self.kv.meter().snapshot().blk_records > b) {
                    self.counts.from_log += 1;
                }
                let want = self.last[k].map(|(off, len)| &self.corpus[off..off + len]);
                let got = p.tamper(&self.out, &mut self.spare);
                oracle::kv_hit(want, got)?;
                record(&mut self.sizes.hits, self.out.len());
                bytes += self.out.len() as u64;
            }
            Class::Get
        };
        p.time(Call::Service, || self.kv.service())?;
        done.push(Done {
            class,
            bytes,
            started: now,
        });
        Ok(())
    }

    fn snap(&self) -> Snap {
        Snap {
            cycles: self.kv.tee().clock().now().get(),
            meter: self.kv.meter().snapshot(),
            profile: self.telemetry.as_ref().map(Telemetry::profile),
            sessions: None,
            kv: KvCounts {
                flushes: self.kv.flushes(),
                wraps: self.kv.wraps(),
                ..self.counts
            },
            digest: self.digest,
        }
    }

    fn sizes(&self) -> &Sizes {
        &self.sizes
    }

    fn finish(&mut self, _p: &mut Probe) -> Result<(), RunError> {
        Ok(())
    }
}
