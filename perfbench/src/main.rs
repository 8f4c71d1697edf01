//! `perfbench` — the wall-clock benchmark of the confidential I/O stack.
//!
//! ```text
//! perfbench --workload <rpc-small|bulk-16k|kv-mixed|session-churn|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--max-ops <n>] [--corrupt-reply]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the lines before
//! it print every metric with its unit and sample count. `--max-ops`
//! caps a run at a tiny op count (the smoke test); `--corrupt-reply`
//! flips one bit of one reply so the oracle must fail the run. See
//! `README.md` next to this package for the workloads and metrics.

mod oracle;
mod replay;
mod stats;
mod workloads;

use cio_sim::{CostModel, MeterSnapshot, Stage};
use stats::{quantile, ratio, Samples};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{build, Call, Class, Done, Probe, RunError, Snap, Spec, Workload};

/// An untraced window repeats the set-up after every this much measured
/// time, at the next slice boundary, with its clocks paused (see
/// [`Between`]).
const SETUP_EVERY: Duration = Duration::from_millis(1250);
/// Consecutive slices are pooled until they span this much measured time,
/// and each pool gives one 99th-percentile latency: the tail of a single
/// short slice rests on a handful of ops.
const P99_POOL: Duration = Duration::from_millis(400);
/// `p99_us` is this quantile of the pools' 99th percentiles. Unlike
/// throughput and p50, the tail is steadier on the slow side (see the
/// `README.md` next to this package).
const P99_Q: f64 = 0.9;
/// Traced and untraced phases alternate this many times in a traced run.
const TRACE_PHASES: u32 = 4;
/// Share of a traced run spent in the alternating phases; the layer
/// replays get the rest.
const TRACE_LOOP_SHARE: f64 = 0.75;
/// Retained latency samples per series.
const SAMPLE_CAP: usize = 1 << 20;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    max_ops: Option<u64>,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        max_ops: None,
        corrupt: false,
    };
    let (mut have_seed, mut have_seconds) = (false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-reply" {
            args.corrupt = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad.clone())?;
                have_seed = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad.clone())?;
                have_seconds = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--max-ops" => args.max_ops = Some(value.parse().map_err(|_| bad.clone())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && workloads::spec(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {} or all",
            workloads::NAMES.join(", ")
        ));
    }
    if !(have_seed && have_seconds && (0.0..=3600.0).contains(&args.seconds)) {
        return Err("--seed and --seconds (0..=3600) are required".into());
    }
    Ok(args)
}

/// One printed metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    n: u64,
}

fn metric(name: &str, value: f64, unit: &'static str, n: u64) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        n,
    }
}

/// What one workload run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Accumulated measurement of one workload instance.
struct Meas {
    ops: u64,
    bytes: u64,
    loop_ns: u64,
    slices: Vec<Slice>,
    /// 99th-percentile latency (us) of each complete pool of slices.
    p99s: Vec<f64>,
    /// Latencies (ns) of the pool of slices in progress; the slice in
    /// progress holds those from `slice_from` on.
    pool_lat: Vec<u32>,
    slice_from: usize,
    /// Measured time of the pool in progress.
    pool_time: Duration,
    lat: Latencies,
    start: Snap,
    /// Snapshot and op count when the deterministic prefix completed.
    prefix: Option<(Snap, u64)>,
}

/// Latency samples of all ops, and of KV puts and gets.
struct Latencies {
    all: Samples,
    put: Samples,
    get: Samples,
}

impl Latencies {
    /// Buffers of `cap` samples; the put and get series get them only when
    /// the workload has two op types.
    fn new(cap: usize, by_class: bool) -> Latencies {
        let split = if by_class { cap } else { 2 };
        Latencies {
            all: Samples::with_capacity(cap),
            put: Samples::with_capacity(split),
            get: Samples::with_capacity(split),
        }
    }
}

/// One full slice of a measured window.
struct Slice {
    ops_per_s: f64,
    bytes_per_s: f64,
    p50_us: f64,
}

/// What an untraced window samples at its slice boundaries, with its
/// clocks paused: resident memory, and a repeat of the set-up every
/// [`SETUP_EVERY`] of measured time. A set-up takes milliseconds, and on
/// a shared virtual machine the speed of the code changes from one
/// stretch of seconds to the next; repeats spread through the window meet
/// the same mix of stretches as the throughput figures do, where repeats
/// run back to back would all land in one.
struct Between {
    spec: Spec,
    seed: u64,
    /// Wall seconds of each set-up repeat (build only, not the drop).
    setup: Vec<f64>,
    /// Largest anonymous resident memory seen, in MB.
    rss_peak: f64,
    /// Measured time since the last set-up repeat.
    since_setup: Duration,
}

impl Between {
    /// Samples memory, then repeats the set-up if one is due after a
    /// slice of `measured` time.
    fn sample(&mut self, measured: Duration) -> Result<(), RunError> {
        self.rss_peak = self.rss_peak.max(stats::anon_rss_mb());
        self.since_setup += measured;
        if self.since_setup >= SETUP_EVERY {
            self.since_setup = Duration::ZERO;
            self.set_up()?;
        }
        Ok(())
    }

    fn set_up(&mut self) -> Result<(), RunError> {
        let t = Instant::now();
        let wl = build(&self.spec, self.seed, &mut Probe::new(false, false))?;
        self.setup.push(t.elapsed().as_secs_f64());
        drop(wl);
        release_free_memory();
        Ok(())
    }
}

/// Drives one workload instance through timed phases.
struct Runner {
    wl: Box<dyn Workload>,
    probe: Probe,
    m: Meas,
    prefix_ops: u64,
    max_ops: u64,
    done: Vec<Done>,
    between: Option<Between>,
    spec: Spec,
}

impl Runner {
    fn new(
        wl: Box<dyn Workload>,
        probe: Probe,
        spec: &Spec,
        args: &Args,
        lat: Latencies,
    ) -> Runner {
        let max_ops = args.max_ops.unwrap_or(u64::MAX);
        Runner {
            m: Meas {
                ops: 0,
                bytes: 0,
                loop_ns: 0,
                slices: Vec::new(),
                p99s: Vec::new(),
                pool_lat: Vec::new(),
                slice_from: 0,
                pool_time: Duration::ZERO,
                lat,
                start: wl.snap(),
                prefix: None,
            },
            wl,
            probe,
            prefix_ops: spec.prefix_ops.min(max_ops).max(1),
            max_ops,
            done: Vec::new(),
            between: None,
            spec: *spec,
        }
    }

    /// Runs the closed loop for `dur`, and on past it until the
    /// deterministic prefix is complete. Stops early at `--max-ops`.
    fn phase(&mut self, dur: Duration) -> Result<(), RunError> {
        let mut t0 = Instant::now();
        let mut end = t0 + dur;
        let (mut now, mut slice_start) = (t0, t0);
        let (mut slice_ops, mut slice_bytes) = (0u64, 0u64);
        let result = loop {
            if let Err(e) = self.wl.pump(&mut self.probe, now, &mut self.done) {
                break Err(e);
            }
            let t = Instant::now();
            for d in self.done.drain(..) {
                let ns = (t - d.started).as_nanos() as u64;
                self.m.lat.all.push(ns);
                self.m.pool_lat.push(u32::try_from(ns).unwrap_or(u32::MAX));
                match d.class {
                    Class::Put => self.m.lat.put.push(ns),
                    Class::Get => self.m.lat.get.push(ns),
                    Class::Op => {}
                }
                self.m.ops += 1;
                self.m.bytes += d.bytes;
                slice_ops += 1;
                slice_bytes += d.bytes;
            }
            if self.m.prefix.is_none() && self.m.ops >= self.prefix_ops {
                self.m.prefix = Some((self.wl.snap(), self.m.ops));
            }
            now = t;
            let renew = self.wl.window_full();
            let cut = match self.spec.slicing.len {
                None => renew,
                Some(len) => t - slice_start >= len && !dur.is_zero(),
            };
            if cut {
                let measured = t - slice_start;
                let secs = measured.as_secs_f64();
                let m = &mut self.m;
                let p50_us = stats::select_us(&mut m.pool_lat[m.slice_from..], 0.50);
                m.slices.push(Slice {
                    ops_per_s: slice_ops as f64 / secs,
                    bytes_per_s: slice_bytes as f64 / secs,
                    p50_us,
                });
                m.slice_from = m.pool_lat.len();
                m.pool_time += measured;
                if m.pool_time >= P99_POOL {
                    m.p99s.push(stats::select_us(&mut m.pool_lat, 0.99));
                    m.pool_lat.clear();
                    (m.slice_from, m.pool_time) = (0, Duration::ZERO);
                }
                (slice_ops, slice_bytes, slice_start) = (0, 0, t);
                if let Some(b) = &mut self.between {
                    if let Err(e) = b.sample(measured) {
                        break Err(e);
                    }
                }
            }
            if renew {
                if let Err(e) = self.wl.renew(self.probe.armed) {
                    break Err(e);
                }
            }
            if cut || renew {
                // A new world, the slice's bookkeeping and the samples
                // between slices are no part of the measurement: shift
                // every window past them.
                let paused = t.elapsed();
                (t0, end, slice_start) = (t0 + paused, end + paused, slice_start + paused);
                now = Instant::now();
            }
            if (t >= end && self.m.prefix.is_some()) || self.m.ops >= self.max_ops {
                break Ok(());
            }
        };
        self.m.loop_ns += (now - t0).as_nanos() as u64;
        result
    }

    fn loop_secs(&self) -> f64 {
        self.m.loop_ns as f64 / 1e9
    }

    /// The prefix snapshot's deltas against the start of measurement.
    fn prefix(&self) -> Option<Prefix> {
        let (snap, ops) = self.m.prefix.as_ref()?;
        Some(Prefix {
            ops: *ops,
            cycles: snap.cycles - self.m.start.cycles,
            meter: snap.meter.delta(&self.m.start.meter),
            snap: snap.clone(),
            start: self.m.start.clone(),
        })
    }
}

/// Counts over the deterministic prefix of a run.
struct Prefix {
    ops: u64,
    cycles: u64,
    meter: MeterSnapshot,
    snap: Snap,
    start: Snap,
}

impl Prefix {
    fn per_op(&self, v: u64) -> f64 {
        v as f64 / self.ops as f64
    }

    /// What must repeat exactly for a given seed.
    fn fingerprint(&self) -> (u64, u64, MeterSnapshot, workloads::KvCounts) {
        let mut kv = self.snap.kv;
        kv.flushes -= self.start.kv.flushes;
        kv.wraps -= self.start.kv.wraps;
        kv.gets -= self.start.kv.gets;
        kv.hits -= self.start.kv.hits;
        kv.from_log -= self.start.kv.from_log;
        (self.ops, self.cycles, self.meter, kv)
    }
}

fn fail_outcome(err: &RunError, attempted: u64) -> Outcome {
    eprintln!("perfbench: {err}");
    Outcome {
        correct: !matches!(err, RunError::Wrong(_)),
        attempted: attempted + 1,
        failed: 1,
        metrics: Vec::new(),
    }
}

/// Splits a phase result into the failure count, or the outcome to
/// report at once when the oracle rejected a reply.
fn settle(r: Result<(), RunError>, ops: u64) -> Result<u64, Outcome> {
    match r {
        Ok(()) => Ok(0),
        Err(e @ RunError::Wrong(_)) => Err(fail_outcome(&e, ops)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            Ok(1)
        }
    }
}

/// `--trace 0`: the end-to-end metrics.
fn run_untraced(spec: &Spec, args: &Args) -> Outcome {
    // The sample buffers come first, so the set-ups cannot change where
    // the allocator places them, and the memory baseline includes them.
    let lat = Latencies::new(SAMPLE_CAP, spec.name == "kv-mixed");
    let harness_rss = stats::anon_rss_mb();
    let t = Instant::now();
    let wl = match build(spec, args.seed, &mut Probe::new(false, false)) {
        Ok(w) => w,
        Err(e) => return fail_outcome(&e, 0),
    };
    let first_setup = t.elapsed().as_secs_f64();
    let mut probe = Probe::new(false, false);
    probe.corrupt = args.corrupt;
    let mut r = Runner::new(wl, probe, spec, args, lat);
    r.between = Some(Between {
        spec: *spec,
        seed: args.seed,
        setup: Vec::new(),
        rss_peak: stats::anon_rss_mb(),
        since_setup: Duration::ZERO,
    });
    let res = r.phase(Duration::from_secs_f64(args.seconds));
    let failed = match settle(res, r.m.ops) {
        Ok(f) => f,
        Err(out) => return out,
    };
    let mut between = r.between.take().expect("set before the window");
    between.rss_peak = between.rss_peak.max(stats::anon_rss_mb());
    // A window too short for a whole slice (the smoke test) still
    // repeats the set-up once.
    if between.setup.is_empty() {
        if let Err(e) = between.set_up() {
            return fail_outcome(&e, r.m.ops);
        }
    }
    // The program's share of anonymous resident memory: the harness's
    // sample buffers are resident before the first build. File pages
    // (code) are left out; their count moves with the page cache.
    let peak_rss = between.rss_peak - harness_rss;
    println!(
        "# anonymous resident memory: program peak {peak_rss:.3} MB over the harness's \
         {harness_rss:.3} MB (whole-process high-water mark {:.3} MB, set-up repeats and \
         code included)",
        stats::peak_rss_mb()
    );
    let secs = r.loop_secs();
    let (sl, sc) = (&r.m.slices, &spec.slicing);
    let (rate, goodput, p50, p99) = if sl.len() >= 4 && !r.m.p99s.is_empty() {
        let col = |f: fn(&Slice) -> f64| sl.iter().map(f).collect::<Vec<f64>>();
        (
            quantile(&col(|s| s.ops_per_s), sc.rate_q),
            quantile(&col(|s| s.bytes_per_s), sc.rate_q),
            quantile(&col(|s| s.p50_us), 1.0 - sc.rate_q),
            quantile(&r.m.p99s, P99_Q),
        )
    } else {
        (
            ratio(r.m.ops as f64, secs),
            ratio(r.m.bytes as f64, secs),
            r.m.lat.all.quantile_us(0.50),
            r.m.lat.all.quantile_us(0.99),
        )
    };
    let slices = r.m.slices.len().max(1) as u64;
    let lat_n = r.m.lat.all.count();
    println!(
        "# {} ops in {secs:.3} s over {} slices; latency samples retained {}",
        r.m.ops,
        r.m.slices.len(),
        lat_n.min(SAMPLE_CAP as u64)
    );
    let mut metrics = vec![
        metric("ops_per_s", rate, "ops/s", slices),
        metric("goodput_mb_s", goodput / 1e6, "MB/s", slices),
        metric("p50_us", p50, "us", lat_n),
        metric("p99_us", p99, "us", lat_n),
    ];
    // Printed next to the contract metrics, not gated: the model cycles
    // repeat exactly for a seed, and only kv-mixed has two op types.
    let mut printed = Vec::new();
    if let Some(p) = r.prefix() {
        printed.push(metric(
            "model_cycles_per_op",
            p.per_op(p.cycles),
            "cycles",
            p.ops,
        ));
    }
    if spec.name == "kv-mixed" {
        let l = &mut r.m.lat;
        let (np, ng) = (l.put.count(), l.get.count());
        printed.push(metric("put_p50_us", l.put.quantile_us(0.50), "us", np));
        printed.push(metric("put_p99_us", l.put.quantile_us(0.99), "us", np));
        printed.push(metric("get_p50_us", l.get.quantile_us(0.50), "us", ng));
        printed.push(metric("get_p99_us", l.get.quantile_us(0.99), "us", ng));
    }
    let attempted = r.m.ops + failed;
    printed.push(metric(
        "fail_ratio",
        ratio(failed as f64, attempted as f64),
        "ratio",
        attempted,
    ));
    drop(r);
    let setup = &between.setup;
    let setup_s = quantile(setup, 0.5);
    println!(
        "# set-up: measured instance {first_setup:.6} s; {} repeats in the window: \
         p10 {:.6} median {setup_s:.6} p90 {:.6} s",
        setup.len(),
        quantile(setup, 0.1),
        quantile(setup, 0.9)
    );
    metrics.push(metric("setup_s", setup_s, "s", setup.len() as u64));
    metrics.push(metric("peak_rss_mb", peak_rss, "MB", slices));
    metrics.append(&mut printed);
    Outcome {
        correct: true,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

/// Layer replays of one traced run.
#[derive(Default)]
struct Replays {
    aead: Option<replay::Replay>,
    ctls: Option<replay::Replay>,
    handshake: Option<replay::Replay>,
    vring: Option<replay::Replay>,
    block: Option<replay::Replay>,
}

/// Runs the replays of the layers `spec` does not bypass, splitting
/// `budget` evenly between them.
fn run_replays(spec: &Spec, sizes: &workloads::Sizes, budget: Duration) -> Replays {
    // Network workloads record cTLS records; KV records values.
    let records: Vec<usize> = if sizes.records.is_empty() {
        sizes.values.iter().chain(&sizes.hits).copied().collect()
    } else {
        sizes.records.clone()
    };
    let reads = if sizes.hits.is_empty() {
        &sizes.values
    } else {
        &sizes.hits
    };
    let run = [
        "crypto.aead_ns_per_kib",
        "ctls.record_ns",
        "ctls.handshake_us",
        "vring.record_ns",
        "blk.run_ns_per_block",
    ]
    .map(|m| !spec.bypasses(m) && !records.is_empty());
    let n = run.iter().filter(|&&r| r).count().max(1);
    let each = budget / n as u32;
    Replays {
        aead: run[0].then(|| replay::aead(&records, each)),
        ctls: run[1].then(|| replay::ctls(&records, each)),
        handshake: run[2].then(|| replay::handshake(each)),
        vring: run[3].then(|| replay::vring(&replay::frames(&records), spec.ring_batch, each)),
        block: run[4]
            .then(|| replay::block(reads, workloads::KV_SEG_BLOCKS, workloads::SESSIONS, each)),
    }
}

/// `--trace 1`: the per-layer metrics, the determinism self-check and
/// the coverage check.
fn run_traced(spec: &Spec, args: &Args) -> Outcome {
    let total = Duration::from_secs_f64(args.seconds);
    let phase = total.mul_f64(TRACE_LOOP_SHARE) / (2 * TRACE_PHASES);
    // Both instances time their calls and run the same harness code;
    // only the traced one arms the program's tracing, so `trace.overhead`
    // is the program's armed-versus-disarmed cost.
    let mut setup_probe = Probe::new(true, true);
    let built = build(spec, args.seed, &mut setup_probe)
        .and_then(|t| Ok((t, build(spec, args.seed, &mut Probe::new(true, false))?)));
    let (traced_wl, plain_wl) = match built {
        Ok(pair) => pair,
        Err(e) => return fail_outcome(&e, 0),
    };
    let mut probe = Probe::new(true, true);
    probe.corrupt = args.corrupt;
    let mut traced = Runner::new(traced_wl, probe, spec, args, Latencies::new(2, false));
    let plain_probe = Probe::new(true, false);
    let mut plain = Runner::new(plain_wl, plain_probe, spec, args, Latencies::new(2, false));
    let mut failed = 0;
    for _ in 0..TRACE_PHASES {
        for r in [&mut traced, &mut plain] {
            match settle(r.phase(phase), r.m.ops) {
                Ok(0) => {}
                Ok(f) => failed += f,
                Err(out) => return out,
            }
        }
        if failed > 0 {
            break;
        }
    }
    let overhead = ratio(
        ratio(plain.m.ops as f64, plain.loop_secs()),
        ratio(traced.m.ops as f64, traced.loop_secs()),
    );
    let attempted = traced.m.ops + failed;
    if failed > 0 {
        return Outcome {
            correct: true,
            attempted,
            failed,
            metrics: Vec::new(),
        };
    }

    // Determinism self-check: a second traced instance with the same seed
    // must repeat the prefix's model cycles and Meter counts exactly, the
    // disarmed instance must repeat its model cycles, and another seed
    // must change the op stream while still passing the oracle.
    let check = |seed: u64, traced: bool| -> Result<Prefix, RunError> {
        let wl = build(spec, seed, &mut Probe::new(traced, traced))?;
        let probe = Probe::new(traced, traced);
        let mut r = Runner::new(wl, probe, spec, args, Latencies::new(2, false));
        r.max_ops = r.prefix_ops;
        r.phase(Duration::ZERO)?;
        Ok(r.prefix().expect("prefix reached"))
    };
    let (twin, other) = match check(args.seed, true)
        .and_then(|t| Ok((t, check(args.seed.wrapping_add(1), false)?)))
    {
        Ok(pair) => pair,
        Err(e) => return fail_outcome(&e, attempted),
    };
    let (main, plain_prefix) = (
        traced.prefix().expect("prefix reached"),
        plain.prefix().expect("prefix reached"),
    );
    drop(plain);
    let mut correct = true;
    let mut require = |ok: bool, what: &str| {
        println!("# check {what}: {}", if ok { "ok" } else { "FAILED" });
        correct &= ok;
    };
    require(
        twin.fingerprint() == main.fingerprint(),
        "same seed repeats model cycles and Meter counts",
    );
    require(
        plain_prefix.ops == main.ops && plain_prefix.cycles == main.cycles,
        "tracing leaves model cycles unchanged",
    );
    if spec.seeded_stream {
        require(
            other.snap.digest != main.snap.digest,
            "another seed changes the op stream and passes the oracle",
        );
    } else {
        println!("# check another seed passes the oracle: ok (its op stream is fixed)");
    }

    let replay_budget = total.mul_f64(1.0 - TRACE_LOOP_SHARE);
    let replays = run_replays(spec, traced.wl.sizes(), replay_budget);
    let mut close_probe = Probe::new(true, true);
    if let Err(e) = traced.wl.finish(&mut close_probe) {
        return fail_outcome(&e, attempted);
    }
    let metrics = layer_metrics(
        spec,
        &traced,
        &setup_probe,
        &close_probe,
        &main,
        &replays,
        overhead,
    );
    let coverage = metrics
        .iter()
        .find(|m| m.name == "world.coverage")
        .map_or(0.0, |m| m.value);
    require(
        coverage >= workloads::COVERAGE_FLOOR,
        &format!(
            "timed calls cover {coverage:.3} of loop wall time (floor {})",
            workloads::COVERAGE_FLOOR
        ),
    );
    Outcome {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

fn layer_metrics(
    spec: &Spec,
    r: &Runner,
    setup: &Probe,
    close: &Probe,
    prefix: &Prefix,
    replays: &Replays,
    overhead: f64,
) -> Vec<Metric> {
    let churn = spec.name == "session-churn";
    let p = &r.probe;
    let m = &prefix.meter;
    let k = prefix.ops;
    let ops = r.m.ops.max(1) as f64;
    let ghz = CostModel::default().ghz;
    let kvd = prefix.fingerprint().3;
    let (establish, close) = if churn { (p, p) } else { (setup, close) };
    let sessions = prefix.snap.sessions.zip(prefix.start.sessions);
    let session_delta = |f: fn(&cio::world::SessionStats) -> u64| {
        sessions.map_or(0, |(now, then)| f(&now) - f(&then))
    };
    let rec = m.ring_records.max(1) as f64;
    let blk = m.blk_records.max(1) as f64;
    let calls = |c: Call| p.calls[c as usize];
    let mean = |c: Call| (p.mean_ns(c), calls(c));
    let replay = |x: &Option<replay::Replay>, per: f64| {
        x.map_or((0.0, 0), |x| (x.ns_per_unit() / per, x.units as u64))
    };
    let calib = |x: &Option<replay::Replay>| x.map_or((0.0, 0), |x| (x.calib(ghz), x.units as u64));
    let mut rows: Vec<(&str, (f64, u64), &'static str)> = vec![
        ("world.send_ns", mean(Call::Send), "ns"),
        ("world.step_ns", mean(Call::Step), "ns"),
        ("world.recv_ns", mean(Call::Recv), "ns"),
        (
            "world.steps_per_op",
            (calls(Call::Step) as f64 / ops, r.m.ops),
            "count/op",
        ),
        (
            "world.establish_us",
            (
                establish.mean_ns(Call::Establish) / 1e3,
                establish.calls[Call::Establish as usize],
            ),
            "us",
        ),
        (
            "world.close_us",
            (
                close.mean_ns(Call::Close) / 1e3,
                close.calls[Call::Close as usize],
            ),
            "us",
        ),
        (
            "world.coverage",
            (ratio(p.total_ns() as f64, r.m.loop_ns as f64), r.m.ops),
            "ratio",
        ),
        ("kv.put_ns", mean(Call::Put), "ns"),
        ("kv.get_ns", mean(Call::Get), "ns"),
        ("kv.service_ns", mean(Call::Service), "ns"),
        (
            "kv.flushes_per_kop",
            (prefix.per_op(kvd.flushes) * 1e3, k),
            "count/kop",
        ),
        (
            "kv.wraps_per_kop",
            (prefix.per_op(kvd.wraps) * 1e3, k),
            "count/kop",
        ),
        (
            "kv.get_hit_ratio",
            (ratio(kvd.hits as f64, kvd.gets as f64), kvd.gets),
            "ratio",
        ),
        (
            "kv.get_from_log_ratio",
            (ratio(kvd.from_log as f64, kvd.hits as f64), kvd.hits),
            "ratio",
        ),
        (
            "crypto.aead_ops_per_op",
            (prefix.per_op(m.aead_ops), k),
            "count/op",
        ),
        (
            "crypto.aead_bytes_per_op",
            (prefix.per_op(m.aead_bytes), k),
            "B/op",
        ),
        (
            "crypto.x25519_per_op",
            (prefix.per_op(m.x25519_ops), k),
            "count/op",
        ),
        (
            "crypto.aead_ns_per_kib",
            replay(&replays.aead, 1.0),
            "ns/KiB",
        ),
        ("ctls.record_ns", replay(&replays.ctls, 1.0), "ns"),
        ("ctls.handshake_us", replay(&replays.handshake, 1e3), "us"),
        (
            "ring.records_per_op",
            (prefix.per_op(m.ring_records), k),
            "count/op",
        ),
        (
            "ring.records_per_commit",
            (ratio(rec, m.ring_commits as f64), k),
            "count/commit",
        ),
        (
            "ring.locks_per_record",
            (m.lock_acquisitions as f64 / rec, k),
            "count/record",
        ),
        (
            "ring.copies_per_record",
            (m.copies as f64 / rec, k),
            "count/record",
        ),
        (
            "ring.bytes_copied_per_op",
            (prefix.per_op(m.bytes_copied), k),
            "B/op",
        ),
        ("vring.record_ns", replay(&replays.vring, 1.0), "ns"),
        (
            "notify.doorbells_per_record",
            (
                (m.notifications_sent + m.interrupts_received) as f64 / rec,
                k,
            ),
            "count/record",
        ),
        (
            "notify.suppressed_per_record",
            (m.suppressed_kicks as f64 / rec, k),
            "count/record",
        ),
        (
            "notify.spurious_per_record",
            (m.spurious_wakeups as f64 / rec, k),
            "count/record",
        ),
        (
            "notify.idle_polls_per_op",
            (prefix.per_op(m.idle_polls), k),
            "count/op",
        ),
        (
            "tee.exits_per_op",
            (prefix.per_op(m.host_transitions), k),
            "count/op",
        ),
        (
            "tee.compartment_switches_per_op",
            (prefix.per_op(m.compartment_switches), k),
            "count/op",
        ),
        (
            "blk.blocks_per_op",
            (prefix.per_op(m.blk_records), k),
            "count/op",
        ),
        (
            "blk.blocks_per_commit",
            (ratio(blk, m.blk_commits as f64), k),
            "count/commit",
        ),
        (
            "blk.doorbells_per_block",
            (m.blk_doorbells as f64 / blk, k),
            "count/block",
        ),
        (
            "blk.copies_per_block",
            (m.blk_copies as f64 / blk, k),
            "count/block",
        ),
        ("blk.run_ns_per_block", replay(&replays.block, 1.0), "ns"),
        (
            "session.lookups_per_op",
            (prefix.per_op(session_delta(|s| s.lookups)), k),
            "count/op",
        ),
        (
            "session.probes_per_lookup",
            (
                ratio(
                    session_delta(|s| s.probes) as f64,
                    session_delta(|s| s.lookups) as f64,
                ),
                k,
            ),
            "count/lookup",
        ),
        (
            "session.capacity",
            (prefix.snap.sessions.map_or(0.0, |s| s.capacity as f64), k),
            "count",
        ),
        (
            "model.cycles_per_op",
            (prefix.per_op(prefix.cycles), k),
            "cycles/op",
        ),
    ];
    let (now, then) = (prefix.snap.profile.as_ref(), prefix.start.profile.as_ref());
    let stages: Vec<(String, f64)> = Stage::ALL
        .iter()
        .map(|&stage| {
            let c = now.zip(then).map_or(0, |(a, b)| {
                a.stage_cycles(stage).saturating_sub(b.stage_cycles(stage))
            });
            (format!("model.{}", stage.name()), prefix.per_op(c))
        })
        .collect();
    for (name, v) in &stages {
        rows.push((name, (*v, k), "cycles/op"));
    }
    rows.extend([
        ("calib.crypto", calib(&replays.aead), "ratio"),
        ("calib.ctls", calib(&replays.ctls), "ratio"),
        ("calib.vring", calib(&replays.vring), "ratio"),
        ("calib.block", calib(&replays.block), "ratio"),
        ("trace.overhead", (overhead, r.m.ops), "ratio"),
    ]);
    let mut skipped = Vec::new();
    let out = rows
        .into_iter()
        .map(|(name, (v, n), unit)| {
            if spec.bypasses(name) {
                skipped.push(name);
                metric(name, 0.0, unit, 0)
            } else {
                metric(name, v, unit, n)
            }
        })
        .collect();
    println!(
        "# bypassed by {} (reported as 0): {}",
        spec.name,
        skipped.join(", ")
    );
    out
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn print_outcome(name: &str, out: &Outcome) {
    for m in &out.metrics {
        println!(
            "{name:<14} {:<34} {:>16.4} {:<13} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
    println!(
        "{name:<14} attempted={} failed={} correct={}",
        out.attempted, out.failed, out.correct
    );
}

fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Drops the metrics that do not belong on the contract line: the
/// end-to-end line carries the gated metrics only.
fn contract_metrics(out: &mut Outcome, trace: bool) {
    if !trace {
        const GATED: [&str; 6] = [
            "ops_per_s",
            "goodput_mb_s",
            "p50_us",
            "p99_us",
            "setup_s",
            "peak_rss_mb",
        ];
        out.metrics.retain(|m| GATED.contains(&m.name.as_str()));
    }
}

/// Pins glibc's mmap threshold at its default of 128 KiB.
///
/// Left dynamic, glibc raises the threshold to the size of the first
/// mmapped block a process frees. The guest memory of a world is
/// calloc'ed in 256 KiB stripes: before any world has been dropped they
/// are fresh zero pages, faulted in only where touched; after, they come
/// from the heap and calloc clears every byte. Set-up time and resident
/// memory then depend on what the process ran before and on how the heap
/// happens to be laid out, and runs of the same code read up to 2x apart.
/// Pinned, every allocation of 128 KiB or more maps fresh pages, every
/// build meets the allocator in the state the first one does, and freed
/// worlds return their memory.
fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only updates allocator parameters, and runs
        // before this process starts any other thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Returns the heap's free pages to the kernel, so that a dropped
/// set-up repeat leaves no resident memory behind to count in
/// `peak_rss_mb`.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only releases free heap memory, and this
        // process runs a single thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn main() -> ExitCode {
    pin_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
                 [--max-ops <n>] [--corrupt-reply]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for name in names {
        let spec = workloads::spec(name).expect("validated workload name");
        println!(
            "# perfbench workload={name} seed={} seconds={} trace={} nproc={} \
             (in-process simulated fabric and RAM disk; no real link or device)",
            args.seed,
            args.seconds,
            u8::from(args.trace),
            nproc()
        );
        let out = if args.trace {
            run_traced(&spec, &args)
        } else {
            run_untraced(&spec, &args)
        };
        print_outcome(name, &out);
        results.push((name, out));
    }
    let correct = results.iter().all(|(_, o)| o.correct);
    let line = if let [(_, single)] = results.as_mut_slice() {
        contract_metrics(single, args.trace);
        json_line(single)
    } else {
        let mut all = Outcome {
            correct,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        for (name, mut o) in results {
            contract_metrics(&mut o, args.trace);
            all.attempted += o.attempted;
            all.failed += o.failed;
            for mut m in o.metrics {
                m.name = format!("{name}.{}", m.name);
                all.metrics.push(m);
            }
        }
        json_line(&all)
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
