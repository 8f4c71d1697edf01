//! Layer replays: the sizes a workload recorded, pushed through one
//! lower layer's public API in isolation.
//!
//! Each replay is timed in wall clock and, where the layer charges the
//! cost model, also runs on a private virtual clock, so the two can be
//! compared (`calib.*`: measured cycles at `CostModel::ghz` divided by
//! the model cycles charged for the same calls).

use cio_block::transport::{
    ring_notify_mode, BlkProfile, CioBlkBackend, CioBlkFrontend, RingBlockStore, BLK_HDR,
};
use cio_block::{BlockStore, CryptStore, MultiQueueStore, RamDisk, BLOCK_SIZE};
use cio_crypto::ChaCha20Poly1305;
use cio_ctls::handshake::{ClientHandshake, ServerHandshake, ServerIdentity};
use cio_ctls::{Channel, RecordScratch, SimHooks};
use cio_mem::{GuestAddr, GuestMemory, PAGE_SIZE};
use cio_sim::{Clock, CostModel, Meter, Telemetry};
use cio_tee::{Measurement, Tee, TeeKind};
use cio_vring::cioring::{
    CioRing, Consumer, DataMode, NotifyPolicy, Producer, RingConfig, MAX_BATCH,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations every replay runs, however small its time budget.
const MIN_ITERS: u64 = 16;

/// Largest frame the ring replay carries; records are cut into frames
/// of at most this size, as the netstack segments them.
pub const RING_MTU: usize = 2048;

/// One replay's totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Wall nanoseconds.
    pub wall_ns: f64,
    /// Units of work done (records, KiB, handshakes or blocks).
    pub units: f64,
    /// Model cycles charged for the same calls (0 where the layer
    /// charges none).
    pub model_cycles: f64,
}

impl Replay {
    /// Wall nanoseconds per unit.
    pub fn ns_per_unit(&self) -> f64 {
        crate::stats::ratio(self.wall_ns, self.units)
    }

    /// Measured cycles over model cycles.
    pub fn calib(&self, ghz: f64) -> f64 {
        crate::stats::ratio(self.wall_ns * ghz, self.model_cycles)
    }
}

/// Runs `iter(i)` for at least [`MIN_ITERS`] iterations and until
/// `budget` has passed; `iter` returns the units of work it did.
fn timed(budget: Duration, mut iter: impl FnMut(usize) -> f64) -> (f64, f64) {
    let t0 = Instant::now();
    let mut units = 0.0;
    let mut i = 0u64;
    while i < MIN_ITERS || t0.elapsed() < budget {
        units += iter(i as usize);
        i += 1;
    }
    (t0.elapsed().as_nanos() as f64, units)
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 + 7) as u8).collect()
}

/// Fused ChaCha20-Poly1305 seal + open over `sizes`; units are KiB of
/// payload. The model charge is `CostModel::aead` per seal and per open.
pub fn aead(sizes: &[usize], budget: Duration) -> Replay {
    let cost = CostModel::default();
    let aead = ChaCha20Poly1305::new([0x11; 32]);
    let nonce = [7u8; 12];
    let aad = [0u8; 8];
    let mut buf = pattern(sizes.iter().copied().max().unwrap_or(0));
    let mut model = 0.0;
    let (wall_ns, units) = timed(budget, |i| {
        let n = sizes[i % sizes.len()];
        let b = &mut buf[..n];
        let tag = aead.seal_fused_in_place(&nonce, &aad, b);
        aead.open_fused_in_place(&nonce, &aad, b, &tag)
            .expect("replayed AEAD round trip must verify");
        black_box(&buf);
        model += 2.0 * cost.aead(n).get() as f64;
        n as f64 / 1024.0
    });
    Replay {
        wall_ns,
        units,
        model_cycles: model,
    }
}

fn hooks(clock: &Clock) -> SimHooks {
    SimHooks {
        clock: clock.clone(),
        cost: CostModel::default(),
        meter: Meter::new(),
        telemetry: Telemetry::disabled(),
    }
}

/// cTLS `Channel::seal_into` + `open_into` over `sizes`; units are
/// records.
pub fn ctls(sizes: &[usize], budget: Duration) -> Replay {
    let clock = Clock::new();
    let mut tx = Channel::from_secrets([1; 32], [2; 32], true, Some(hooks(&clock)));
    let mut rx = Channel::from_secrets([1; 32], [2; 32], false, Some(hooks(&clock)));
    let payload = pattern(sizes.iter().copied().max().unwrap_or(0));
    let mut rec = RecordScratch::new();
    let mut plain = RecordScratch::new();
    let t0 = clock.now();
    let (wall_ns, units) = timed(budget, |i| {
        let n = sizes[i % sizes.len()];
        tx.seal_into(&payload[..n], &mut rec).expect("seal");
        rx.open_into(rec.as_slice(), &mut plain).expect("open");
        assert_eq!(plain.as_slice(), &payload[..n], "replayed record differs");
        1.0
    });
    Replay {
        wall_ns,
        units,
        model_cycles: clock.since(t0).get() as f64,
    }
}

/// The full cTLS handshake (client hello, attested server hello,
/// finished); units are handshakes.
pub fn handshake(budget: Duration) -> Replay {
    const PLATFORM: [u8; 32] = [0x42; 32];
    let image = b"perfbench-peer";
    let identity = ServerIdentity {
        platform_key: PLATFORM,
        measurement: Measurement::of(image),
    };
    let (wall_ns, units) = timed(budget, |i| {
        let mut entropy = [0u8; 64];
        entropy[..8].copy_from_slice(&(i as u64).to_le_bytes());
        let (hello, client) = ClientHandshake::start(entropy, None);
        entropy[8] = 1;
        let (sh, server) =
            ServerHandshake::respond(&hello, &identity, entropy, None).expect("server hello");
        let (fin, chan) = client
            .finish(&sh, &PLATFORM, &Measurement::of(image))
            .expect("client finish");
        black_box(chan);
        black_box(server.verify_finished(&fin).expect("server finish"));
        1.0
    });
    Replay {
        wall_ns,
        units,
        model_cycles: 0.0,
    }
}

/// Frames of at most [`RING_MTU`] bytes that carry records of `sizes`.
pub fn frames(sizes: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    for &n in sizes {
        let mut left = n + cio_ctls::RECORD_OVERHEAD;
        while left > 0 {
            let f = left.min(RING_MTU);
            out.push(f);
            left -= f;
        }
    }
    out
}

/// cio-ring reserve / write in slot / commit / kick / consume in place
/// over `frames`, `batch` records per commit (1 = the serial forms);
/// units are records.
pub fn vring(frames: &[usize], batch: usize, budget: Duration) -> Replay {
    let clock = Clock::new();
    let cfg = RingConfig {
        slots: 32,
        mtu: RING_MTU as u32,
        mode: DataMode::SharedArea,
        area_size: 32 * RING_MTU as u32,
        ..RingConfig::default()
    };
    let area_pages = cfg.area_size as usize / PAGE_SIZE;
    let mem = GuestMemory::new(
        32 + area_pages,
        clock.clone(),
        CostModel::default(),
        Meter::new(),
    );
    let area = GuestAddr(16 * PAGE_SIZE as u64);
    let ring = CioRing::new(cfg, GuestAddr(0), area).expect("ring config");
    mem.share_range(GuestAddr(0), ring.ring_bytes())
        .expect("share ring");
    mem.share_range(area, ring.area_bytes())
        .expect("share area");
    let mut producer = Producer::new(ring.clone(), mem.guest()).expect("producer");
    let mut consumer = Consumer::new(ring, mem.host()).expect("consumer");
    let payload = pattern(RING_MTU);
    let batch = batch.clamp(1, MAX_BATCH);
    let mut next = 0usize;
    let t0 = clock.now();
    let (wall_ns, units) = timed(budget, |_| {
        if batch == 1 {
            let n = frames[next % frames.len()];
            next += 1;
            let grant = producer.reserve(n).expect("slot reservation");
            producer
                .with_slot_mut(&grant, |slot| slot[..n].copy_from_slice(&payload[..n]))
                .expect("slot access");
            producer.commit(grant, n).expect("commit");
            producer.kick();
            let got = consumer
                .consume_in_place(|rec| rec.len())
                .expect("consume")
                .expect("record available");
            assert_eq!(got, n, "replayed frame length differs");
            return 1.0;
        }
        let mut lens = [0usize; MAX_BATCH];
        for l in lens.iter_mut().take(batch) {
            *l = frames[next % frames.len()];
            next += 1;
        }
        let cap = lens.iter().copied().max().unwrap_or(0);
        let grant = producer
            .reserve_batch(cap, batch)
            .expect("batch reservation");
        let n = grant.len();
        producer
            .with_batch_mut(&grant, |slots| {
                for (slot, &len) in slots.iter_mut().zip(&lens) {
                    slot[..len].copy_from_slice(&payload[..len]);
                }
            })
            .expect("batch access");
        producer
            .commit_batch(grant, &lens[..n])
            .expect("batch commit");
        producer.kick();
        let mut seen = 0usize;
        let consumed = consumer
            .consume_batch_in_place(n, |slots| seen += slots.len())
            .expect("batch consume");
        assert_eq!((consumed, seen), (n, n), "replayed batch lost records");
        n as f64
    });
    Replay {
        wall_ns,
        units,
        model_cycles: clock.since(t0).get() as f64,
    }
}

/// `CryptStore::write_run` of whole log segments, each followed by a
/// `read_run` of a recorded get size, over the KV workload's
/// `MultiQueueStore<RingBlockStore>` stack; units are blocks.
pub fn block(reads: &[usize], seg_blocks: usize, lanes: usize, budget: Duration) -> Replay {
    const LANE_PAGES: u64 = 128;
    const DISK_BLOCKS: u64 = 1024;
    const EXTENT: u64 = 16;
    let cost = CostModel::default();
    let tee = Tee::new(
        TeeKind::ConfidentialVm,
        LANE_PAGES as usize * lanes + 64,
        cost.clone(),
    );
    let mem = tee.memory().clone();
    // The KV workload's dialect: `KvConfig::batched(8)` with adaptive
    // notification.
    let profile = BlkProfile {
        notify: ring_notify_mode(NotifyPolicy::Adaptive),
        ..BlkProfile::batched(8)
    };
    let ring_cfg = RingConfig {
        slots: 16,
        slot_size: 16,
        mode: DataMode::SharedArea,
        mtu: (BLOCK_SIZE + BLK_HDR) as u32,
        area_size: 1 << 17,
        notify: profile.notify,
        ..RingConfig::default()
    };
    let page = PAGE_SIZE as u64;
    let stores = (0..lanes as u64)
        .map(|lane| {
            let base = lane * LANE_PAGES * page;
            let (req_at, resp_at) = (GuestAddr(base), GuestAddr(base + 8 * page));
            let (req_area, resp_area) = (GuestAddr(base + 16 * page), GuestAddr(base + 64 * page));
            let req = CioRing::new(ring_cfg.clone(), req_at, req_area).expect("request ring");
            let resp = CioRing::new(ring_cfg.clone(), resp_at, resp_area).expect("response ring");
            for (at, len) in [
                (req_at, req.ring_bytes()),
                (resp_at, resp.ring_bytes()),
                (req_area, req.area_bytes()),
                (resp_area, resp.area_bytes()),
            ] {
                mem.share_range(at, len).expect("share block ring");
            }
            let front = CioBlkFrontend::with_profile(
                Producer::new(req.clone(), mem.guest()).expect("request producer"),
                Consumer::new(resp.clone(), mem.guest()).expect("response consumer"),
                profile,
            );
            let back = CioBlkBackend::with_profile(
                Consumer::new(req, mem.host()).expect("request consumer"),
                Producer::new(resp, mem.host()).expect("response producer"),
                RamDisk::new(DISK_BLOCKS),
                profile,
            );
            RingBlockStore::new(front, back)
        })
        .collect();
    let mq = MultiQueueStore::new(stores, EXTENT).expect("block lanes");
    let mut store = CryptStore::new(mq, [0x5C; 32]).expect("crypt store");
    store.set_hooks(tee.clock().clone(), cost, tee.meter().clone());
    let seg = pattern(seg_blocks * BLOCK_SIZE);
    let mut rd = vec![0u8; seg.len()];
    let slots = store.blocks() / seg_blocks as u64;
    let clock = tee.clock().clone();
    let t0 = clock.now();
    let (wall_ns, units) = timed(budget, |i| {
        let lba = (i as u64 % slots) * seg_blocks as u64;
        store.write_run(lba, &seg).expect("write run");
        let want = reads[i % reads.len()]
            .div_ceil(BLOCK_SIZE)
            .clamp(1, seg_blocks)
            * BLOCK_SIZE;
        store.read_run(lba, &mut rd[..want]).expect("read run");
        assert_eq!(&rd[..want], &seg[..want], "replayed blocks differ");
        (seg_blocks + want / BLOCK_SIZE) as f64
    });
    Replay {
        wall_ns,
        units,
        model_cycles: clock.since(t0).get() as f64,
    }
}
