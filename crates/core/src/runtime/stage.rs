//! The four pipeline stages and the shared control block.
//!
//! Each stage is a plain function over attached shared-memory objects, so
//! the same code runs as a thread inside `run_replay` or as the body of an
//! `edgebench-cli runtime --stage <name>` child process. Stages advance
//! deterministic *virtual* clocks (`t_out = max(stage_clock, t_in) +
//! svc_ns`) while exercising the real IPC mechanics — mmap rings, futex
//! waits, checksums, backpressure — which is what makes the replay report
//! byte-identical across runs and across thread/process layouts.
//!
//! ## Restartability
//!
//! Every piece of state a stage needs to resume after a crash lives in the
//! shared control block, not in stage locals: the per-stage virtual clock,
//! capture's next trace index, the sentry state machine, inference's
//! energy/digest accumulators, and the gateway's per-frame latency ledger.
//! A stage body therefore *loads* its state from [`Ctl`] on entry and
//! persists it as each frame completes; the supervisor can kill and
//! relaunch the body at any frame boundary and the pipeline continues
//! exactly where it left off. The per-stage `inflight` word marks the one
//! frame that may be lost in the gap — popped from the input ring (whose
//! tail is the committed consumer position) but not yet forwarded — which
//! is what gives the pipeline its at-most-once delivery guarantee.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use edgebench_devices::faults::chaos::ChaosKind;
use edgebench_devices::faults::ipc::{LinkFaults, LINK_CAPTURE, LINK_PREPROCESS};
use edgebench_devices::faults::rng::FaultRng;
use edgebench_models::Model;
use edgebench_tensor::integrity::checksum_f32;
use edgebench_tensor::{Executor, Precision, PreparedExecutor, Tensor};

use super::ring::{
    DropPolicy, FrameBuf, FrameMeta, Pop, Reserve, RingBuffer, FLAG_ESCALATED, FLAG_HIT,
    FLAG_STANDBY, RETRY_SLICE,
};
use super::sentry::Sentry;
use super::shm::SharedMap;
use super::{ExecMode, RungCost, RuntimeConfig, RuntimeError, StageCosts};
use crate::serve::TraceFile;

/// Stream tag for deterministic frame payload synthesis.
const TAG_PAYLOAD: u64 = 0x7061_796c; // "payl"

/// Stream tag for chaos payload-corruption flips.
const TAG_CHAOS_FLIP: u64 = 0x6366_6c70; // "cflp"

/// Payload elements on the inference → gateway ring (detection summary).
pub(crate) const DETECTION_ELEMS: usize = 8;

/// Stage indices into the control block's per-stage counters.
pub(crate) const STAGE_NAMES: [&str; 4] = ["capture", "preprocess", "inference", "gateway"];

/// Exit code a child process uses for a chaos-injected kill, so the
/// supervisor can tell scripted deaths from real ones in logs (both are
/// classified and restarted identically).
pub(crate) const CHAOS_KILL_EXIT: i32 = 86;

/// Process-local stop flag, set by the SIGTERM handler installed in
/// `stage_main`. Always false in thread mode.
static LOCAL_STOP: AtomicBool = AtomicBool::new(false);

/// Raise the process-local stop flag (SIGTERM handler body).
pub(crate) fn raise_local_stop() {
    LOCAL_STOP.store(true, Ordering::Release);
}

/// Reset the local stop flag (tests that reuse the process).
pub(crate) fn clear_local_stop() {
    LOCAL_STOP.store(false, Ordering::Release);
}

/// How a stage body finished. The supervisor (thread-mode wrapper or the
/// process-mode parent) maps this onto restart / degrade decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StageExit {
    /// Input fully drained (or whole trace pushed); `done` flag set.
    Done,
    /// Interrupted by the shared stop flag or SIGTERM; partial but clean.
    Stopped,
    /// A typed stage failure (e.g. the prepared executor rejected a
    /// frame). The supervisor treats it as a crash.
    Failed(String),
    /// A chaos kill fired with a frame in flight.
    Killed,
    /// A chaos hang was released by a supervisor restart request
    /// (thread mode only; in process mode a hung stage is SIGKILLed).
    Hung,
}

// ---------------------------------------------------------------------------
// Control block
// ---------------------------------------------------------------------------

const CTL_MAGIC: u32 = 0x4542_4354; // "EBCT"
const CTL_VERSION: u32 = 3;
const CTL_HEADER_BYTES: usize = 512;
const EVENT_BYTES: usize = 24;
const RECOV_BYTES: usize = 16;

/// Event codes stored in the shared event region.
pub(crate) const EV_ESCALATE: u32 = 0;
pub(crate) const EV_STANDDOWN: u32 = 1;
pub(crate) const EV_MISSED: u32 = 2;
pub(crate) const EV_CORRUPT_PRE: u32 = 3;
pub(crate) const EV_CORRUPT_INF: u32 = 4;
pub(crate) const EV_CORRUPT_GW: u32 = 5;
/// `EV_LOST_BASE + stage`: a frame was lost in-flight at that stage.
pub(crate) const EV_LOST_BASE: u32 = 6;
/// `EV_RESTART_BASE + stage`: the supervisor restarted that stage.
pub(crate) const EV_RESTART_BASE: u32 = 10;

/// The shared control block: stop flag, per-stage counters and persisted
/// stage state (clocks, heartbeats, in-flight frames, restart bookkeeping),
/// the gateway's per-frame latency ledger, a recovery-latency log, and a
/// bounded event region. One per run directory, mapped by every stage.
pub(crate) struct Ctl {
    map: SharedMap,
}

impl std::fmt::Debug for Ctl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctl")
            .field("path", &self.map.path())
            .finish()
    }
}

impl Ctl {
    pub(crate) fn required_bytes(ledger_cap: usize, recov_cap: usize, events_cap: usize) -> usize {
        CTL_HEADER_BYTES + ledger_cap * 8 + recov_cap * RECOV_BYTES + events_cap * EVENT_BYTES
    }

    pub(crate) fn create(
        path: &Path,
        ledger_cap: usize,
        recov_cap: usize,
        events_cap: usize,
    ) -> Result<Ctl, RuntimeError> {
        let map = SharedMap::create(
            path,
            Self::required_bytes(ledger_cap, recov_cap, events_cap),
        )?;
        let ctl = Ctl { map };
        unsafe {
            let base = ctl.map.base().cast::<u32>();
            base.add(1).write(CTL_VERSION);
            let u64s = ctl.map.base();
            u64s.add(416).cast::<u64>().write(ledger_cap as u64);
            u64s.add(448).cast::<u64>().write(recov_cap as u64);
            u64s.add(192).cast::<u64>().write(events_cap as u64);
            std::sync::atomic::fence(Ordering::Release);
            base.write(CTL_MAGIC);
        }
        Ok(ctl)
    }

    pub(crate) fn attach(path: &Path) -> Result<Ctl, RuntimeError> {
        let map = SharedMap::open(path)?;
        if map.len() < CTL_HEADER_BYTES {
            return Err(RuntimeError::shm(path, "control block too small"));
        }
        let (magic, version) = unsafe {
            std::sync::atomic::fence(Ordering::Acquire);
            let base = map.base().cast::<u32>();
            (base.read(), base.add(1).read())
        };
        if magic != CTL_MAGIC {
            return Err(RuntimeError::shm(path, "bad control-block magic"));
        }
        if version != CTL_VERSION {
            return Err(RuntimeError::shm(path, "control-block version mismatch"));
        }
        let ctl = Ctl { map };
        if ctl.map.len() < Self::required_bytes(ctl.ledger_cap(), ctl.recov_cap(), ctl.events_cap())
        {
            return Err(RuntimeError::shm(path, "control block truncated"));
        }
        Ok(ctl)
    }

    fn u64_at(&self, off: usize) -> &AtomicU64 {
        debug_assert!(off.is_multiple_of(8) && off + 8 <= self.map.len());
        unsafe { &*self.map.base().add(off).cast::<AtomicU64>() }
    }

    fn u32_at(&self, off: usize) -> &AtomicU32 {
        unsafe { &*self.map.base().add(off).cast::<AtomicU32>() }
    }

    pub(crate) fn map(&self) -> &SharedMap {
        &self.map
    }

    pub(crate) fn request_stop(&self) {
        self.u32_at(8).store(1, Ordering::Release);
    }

    pub(crate) fn stop_requested(&self) -> bool {
        self.u32_at(8).load(Ordering::Acquire) == 1 || LOCAL_STOP.load(Ordering::Acquire)
    }

    pub(crate) fn set_offered(&self, n: u64) {
        self.u64_at(16).store(n, Ordering::Release);
    }

    pub(crate) fn offered(&self) -> u64 {
        self.u64_at(16).load(Ordering::Acquire)
    }

    /// Corrupted-frame counters: 0 = preprocess, 1 = inference, 2 = gateway.
    pub(crate) fn add_corrupted(&self, detector: usize) {
        self.u64_at(24 + detector * 8)
            .fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn corrupted(&self, detector: usize) -> u64 {
        self.u64_at(24 + detector * 8).load(Ordering::Acquire)
    }

    pub(crate) fn add_sentry(&self, escal: u64, standdown: u64, missed: u64) {
        if escal > 0 {
            self.u64_at(48).fetch_add(escal, Ordering::AcqRel);
        }
        if standdown > 0 {
            self.u64_at(56).fetch_add(standdown, Ordering::AcqRel);
        }
        if missed > 0 {
            self.u64_at(64).fetch_add(missed, Ordering::AcqRel);
        }
    }

    pub(crate) fn sentry_counts(&self) -> (u64, u64, u64) {
        (
            self.u64_at(48).load(Ordering::Acquire),
            self.u64_at(56).load(Ordering::Acquire),
            self.u64_at(64).load(Ordering::Acquire),
        )
    }

    pub(crate) fn add_served(&self, standby: u64, full: u64) {
        if standby > 0 {
            self.u64_at(72).fetch_add(standby, Ordering::AcqRel);
        }
        if full > 0 {
            self.u64_at(80).fetch_add(full, Ordering::AcqRel);
        }
    }

    pub(crate) fn served_counts(&self) -> (u64, u64) {
        (
            self.u64_at(72).load(Ordering::Acquire),
            self.u64_at(80).load(Ordering::Acquire),
        )
    }

    /// Accumulate inference energy. Single-writer (the inference stage),
    /// but CAS-add so the value survives a restart mid-run.
    pub(crate) fn add_energy_mj(&self, mj: f64) {
        if mj == 0.0 {
            return;
        }
        let word = self.u64_at(88);
        let mut cur = word.load(Ordering::Acquire);
        loop {
            let next = (f64::from_bits(cur) + mj).to_bits();
            match word.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn energy_mj(&self) -> f64 {
        f64::from_bits(self.u64_at(88).load(Ordering::Acquire))
    }

    /// Fold one output checksum into the digest (XOR is restart-safe:
    /// order-independent and incremental).
    pub(crate) fn xor_digest(&self, d: u64) {
        self.u64_at(96).fetch_xor(d, Ordering::AcqRel);
    }

    pub(crate) fn digest(&self) -> u64 {
        self.u64_at(96).load(Ordering::Acquire)
    }

    pub(crate) fn add_busy_ns(&self, stage: usize, ns: u64) {
        self.u64_at(104 + stage * 8).fetch_add(ns, Ordering::AcqRel);
    }

    pub(crate) fn busy_ns(&self, stage: usize) -> u64 {
        self.u64_at(104 + stage * 8).load(Ordering::Acquire)
    }

    pub(crate) fn add_processed(&self, stage: usize, n: u64) {
        self.u64_at(136 + stage * 8).fetch_add(n, Ordering::AcqRel);
    }

    pub(crate) fn processed(&self, stage: usize) -> u64 {
        self.u64_at(136 + stage * 8).load(Ordering::Acquire)
    }

    /// Mark a stage as having finished naturally (input fully drained, or
    /// for capture: whole trace pushed). A stage interrupted by stop or
    /// SIGTERM never sets this — the supervisor uses that to detect a
    /// degraded pipeline.
    pub(crate) fn set_done(&self, stage: usize) {
        self.u32_at(168 + stage * 4).store(1, Ordering::Release);
    }

    pub(crate) fn done(&self, stage: usize) -> bool {
        self.u32_at(168 + stage * 4).load(Ordering::Acquire) == 1
    }

    pub(crate) fn events_cap(&self) -> usize {
        self.u64_at(192).load(Ordering::Acquire) as usize
    }

    // ---- supervision state (v2) ------------------------------------------

    /// Bump the stage's liveness counter. Called at least once per loop
    /// iteration (including bounded-wait retries), so a flat counter over a
    /// stall window means the stage is hung, not blocked.
    pub(crate) fn beat(&self, stage: usize) {
        self.u64_at(200 + stage * 8).fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn heartbeat(&self, stage: usize) -> u64 {
        self.u64_at(200 + stage * 8).load(Ordering::Acquire)
    }

    /// Persisted per-stage virtual clock: a restarted stage resumes from
    /// here, after the supervisor adds its virtual recovery penalty.
    pub(crate) fn clock_ns(&self, stage: usize) -> u64 {
        self.u64_at(232 + stage * 8).load(Ordering::Acquire)
    }

    pub(crate) fn set_clock_ns(&self, stage: usize, ns: u64) {
        self.u64_at(232 + stage * 8).store(ns, Ordering::Release);
    }

    /// In-flight marker: `frame_id + 1` while the stage holds a popped (or
    /// about-to-be-captured) frame it has not yet fully accounted; 0
    /// otherwise. A crash with the marker set loses exactly that frame.
    pub(crate) fn set_inflight(&self, stage: usize, fid_plus_1: u64) {
        self.u64_at(264 + stage * 8)
            .store(fid_plus_1, Ordering::Release);
    }

    pub(crate) fn inflight(&self, stage: usize) -> Option<u64> {
        self.u64_at(264 + stage * 8)
            .load(Ordering::Acquire)
            .checked_sub(1)
    }

    pub(crate) fn add_restart(&self, stage: usize) {
        self.u64_at(296 + stage * 8).fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn restarts(&self, stage: usize) -> u64 {
        self.u64_at(296 + stage * 8).load(Ordering::Acquire)
    }

    pub(crate) fn add_lost(&self, stage: usize, n: u64) {
        self.u64_at(328 + stage * 8).fetch_add(n, Ordering::AcqRel);
    }

    pub(crate) fn lost(&self, stage: usize) -> u64 {
        self.u64_at(328 + stage * 8).load(Ordering::Acquire)
    }

    /// Restart-request generation counter (thread mode): the monitor bumps
    /// it to release a hung stage body; `chaos_hang` parks until the value
    /// moves past what it saw on entry.
    pub(crate) fn restart_req(&self, stage: usize) -> u32 {
        self.u32_at(360 + stage * 4).load(Ordering::Acquire)
    }

    pub(crate) fn bump_restart_req(&self, stage: usize) {
        self.u32_at(360 + stage * 4).fetch_add(1, Ordering::AcqRel);
    }

    /// Persisted sentry state machine: `(mode, quiet frames)`.
    pub(crate) fn sentry_state(&self) -> (u32, u32) {
        (
            self.u32_at(376).load(Ordering::Acquire),
            self.u32_at(380).load(Ordering::Acquire),
        )
    }

    pub(crate) fn set_sentry_state(&self, mode: u32, quiet: u32) {
        self.u32_at(376).store(mode, Ordering::Release);
        self.u32_at(380).store(quiet, Ordering::Release);
    }

    /// Last frame id the gateway observed (`None` before the first frame).
    pub(crate) fn gw_last_id(&self) -> Option<u64> {
        self.u64_at(384).load(Ordering::Acquire).checked_sub(1)
    }

    pub(crate) fn set_gw_last_id(&self, fid: u64) {
        self.u64_at(384).store(fid + 1, Ordering::Release);
    }

    pub(crate) fn add_duplicate(&self) {
        self.u64_at(392).fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn duplicates(&self) -> u64 {
        self.u64_at(392).load(Ordering::Acquire)
    }

    pub(crate) fn span_max(&self, ns: u64) {
        self.u64_at(400).fetch_max(ns, Ordering::AcqRel);
    }

    pub(crate) fn span_ns(&self) -> u64 {
        self.u64_at(400).load(Ordering::Acquire)
    }

    /// Next trace index the capture stage will attempt — persisted before
    /// the attempt, so a restarted capture never re-emits a frame.
    pub(crate) fn cap_next_idx(&self) -> u64 {
        self.u64_at(408).load(Ordering::Acquire)
    }

    pub(crate) fn set_cap_next_idx(&self, idx: u64) {
        self.u64_at(408).store(idx, Ordering::Release);
    }

    pub(crate) fn ledger_cap(&self) -> usize {
        self.u64_at(416).load(Ordering::Acquire) as usize
    }

    pub(crate) fn add_completed(&self) {
        self.u64_at(424).fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn completed(&self) -> u64 {
        self.u64_at(424).load(Ordering::Acquire)
    }

    pub(crate) fn add_order_violation(&self) {
        self.u64_at(432).fetch_add(1, Ordering::AcqRel);
    }

    pub(crate) fn order_violations(&self) -> u64 {
        self.u64_at(432).load(Ordering::Acquire)
    }

    pub(crate) fn recov_cap(&self) -> usize {
        self.u64_at(448).load(Ordering::Acquire) as usize
    }

    /// Record one recovery: which stage, which attempt, and the virtual
    /// penalty charged (detection + backoff).
    pub(crate) fn recov_push(&self, stage: usize, attempt: u32, penalty_ns: u64) {
        let idx = self.u64_at(440).fetch_add(1, Ordering::AcqRel) as usize;
        if idx >= self.recov_cap() {
            return; // bounded region; overflow dropped, not UB
        }
        let off = CTL_HEADER_BYTES + self.ledger_cap() * 8 + idx * RECOV_BYTES;
        unsafe {
            let p = self.map.base().add(off);
            p.cast::<u32>().write_volatile(stage as u32);
            p.add(4).cast::<u32>().write_volatile(attempt);
            p.add(8).cast::<u64>().write_volatile(penalty_ns);
        }
    }

    /// Decode the recovery log: `(stage, attempt, penalty_ns)` triples.
    pub(crate) fn recoveries(&self) -> Vec<(u32, u32, u64)> {
        let n = (self.u64_at(440).load(Ordering::Acquire) as usize).min(self.recov_cap());
        let base_off = CTL_HEADER_BYTES + self.ledger_cap() * 8;
        let mut out = Vec::with_capacity(n);
        for idx in 0..n {
            let off = base_off + idx * RECOV_BYTES;
            unsafe {
                let p = self.map.base().add(off);
                out.push((
                    p.cast::<u32>().read_volatile(),
                    p.add(4).cast::<u32>().read_volatile(),
                    p.add(8).cast::<u64>().read_volatile(),
                ));
            }
        }
        out.sort_unstable();
        out
    }

    // ---- stage costs (v3) ------------------------------------------------

    /// Publish the run's rung costs: the parent derives them once and
    /// every stage (and every restart of one) reads them from here. Called
    /// before any stage is spawned, so the spawn orders these stores
    /// before every stage's loads.
    pub(crate) fn set_stage_costs(&self, costs: &StageCosts) {
        let standby = costs.standby.as_ref();
        self.u64_at(456).store(costs.full.svc_ns, Ordering::Release);
        self.u64_at(464)
            .store(costs.full.energy_mj.to_bits(), Ordering::Release);
        self.u64_at(472)
            .store(standby.map_or(0, |r| r.svc_ns), Ordering::Release);
        self.u64_at(480).store(
            standby.map_or(0, |r| r.energy_mj.to_bits()),
            Ordering::Release,
        );
        self.u32_at(488)
            .store(precision_code(costs.full.precision), Ordering::Release);
        // 0 = no standby rung, else its precision code + 1.
        self.u32_at(492).store(
            standby.map_or(0, |r| precision_code(r.precision) + 1),
            Ordering::Release,
        );
    }

    /// The published rung costs, with the payload size and shape of
    /// `model`'s input.
    pub(crate) fn stage_costs(&self, model: Model) -> Result<StageCosts, RuntimeError> {
        let bad = || RuntimeError::shm(self.map.path(), "bad stage-cost precision code");
        let full = RungCost {
            precision: precision_from_code(self.u32_at(488).load(Ordering::Acquire))
                .ok_or_else(bad)?,
            svc_ns: self.u64_at(456).load(Ordering::Acquire),
            energy_mj: f64::from_bits(self.u64_at(464).load(Ordering::Acquire)),
        };
        let standby = match self.u32_at(492).load(Ordering::Acquire) {
            0 => None,
            code => Some(RungCost {
                precision: precision_from_code(code - 1).ok_or_else(bad)?,
                svc_ns: self.u64_at(472).load(Ordering::Acquire),
                energy_mj: f64::from_bits(self.u64_at(480).load(Ordering::Acquire)),
            }),
        };
        Ok(StageCosts::with_rungs(model, full, standby))
    }

    fn ledger_word(&self, fid: u64) -> &AtomicU64 {
        self.u64_at(CTL_HEADER_BYTES + fid as usize * 8)
    }

    /// Record frame `fid` as served with the given end-to-end latency.
    /// Returns false when the slot was already taken — a duplicate
    /// delivery, which at-most-once accounting must keep at zero.
    pub(crate) fn ledger_set(&self, fid: u64, latency_ns: u64) -> bool {
        if fid as usize >= self.ledger_cap() {
            return false;
        }
        self.ledger_word(fid)
            .compare_exchange(0, latency_ns + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Served-frame latencies in ms, ordered by frame id.
    pub(crate) fn ledger_latencies_ms(&self) -> Vec<f64> {
        (0..self.ledger_cap() as u64)
            .filter_map(|fid| {
                self.ledger_word(fid)
                    .load(Ordering::Acquire)
                    .checked_sub(1)
                    .map(|ns| ns as f64 / 1e6)
            })
            .collect()
    }

    fn events_off(&self) -> usize {
        CTL_HEADER_BYTES + self.ledger_cap() * 8 + self.recov_cap() * RECOV_BYTES
    }

    pub(crate) fn push_event(&self, t_ns: u64, seq: u64, code: u32) {
        let idx = self.u64_at(184).fetch_add(1, Ordering::AcqRel) as usize;
        if idx >= self.events_cap() {
            return; // bounded region; overflow is dropped, not UB
        }
        let off = self.events_off() + idx * EVENT_BYTES;
        unsafe {
            let p = self.map.base().add(off);
            p.cast::<u64>().write_volatile(t_ns);
            p.add(8).cast::<u64>().write_volatile(seq);
            p.add(16).cast::<u32>().write_volatile(code);
        }
    }

    /// Decode the event region: `(t_ns, seq, code)` triples, sorted for a
    /// deterministic order regardless of cross-stage write interleaving.
    pub(crate) fn events(&self) -> Vec<(u64, u64, u32)> {
        let n = (self.u64_at(184).load(Ordering::Acquire) as usize).min(self.events_cap());
        let mut out = Vec::with_capacity(n);
        for idx in 0..n {
            let off = self.events_off() + idx * EVENT_BYTES;
            unsafe {
                let p = self.map.base().add(off);
                out.push((
                    p.cast::<u64>().read_volatile(),
                    p.add(8).cast::<u64>().read_volatile(),
                    p.add(16).cast::<u32>().read_volatile(),
                ));
            }
        }
        out.sort_unstable();
        out
    }
}

/// Closes a ring when dropped — even on panic, so a dead stage never leaves
/// its downstream partner waiting forever. On panic it also raises the
/// shared stop flag to unwind the rest of the pipeline. Supervised runs
/// hold this guard *outside* the restart loop instead, so a restarted body
/// reattaches to a still-open ring.
pub(crate) struct CloseOnDrop<'a> {
    pub ring: &'a RingBuffer,
    pub ctl: &'a Ctl,
}

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.ctl.request_stop();
        }
        self.ring.close();
    }
}

// ---------------------------------------------------------------------------
// Chaos hooks
// ---------------------------------------------------------------------------

/// Fire any kill / hang / panic event scheduled for `(stage, fid)`. Runs at
/// a fixed point in the stage loop — after the frame is marked in-flight,
/// before any of its effects are accounted — so the loss accounting is
/// identical in thread and process mode.
fn chaos_trigger(
    cfg: &RuntimeConfig,
    ctl: &Ctl,
    stage: usize,
    fid: u64,
    proc_mode: bool,
) -> Option<StageExit> {
    let kind = cfg.chaos.as_ref()?.kind_at(stage as u8, fid)?;
    match kind {
        ChaosKind::Kill => {
            if cfg.supervise.is_none() {
                // Fail-stop without a supervisor: unblock the rest of the
                // pipeline before dying, like the process path does.
                ctl.request_stop();
            }
            Some(StageExit::Killed)
        }
        ChaosKind::Panic => {
            if cfg.supervise.is_none() {
                ctl.request_stop();
            }
            if proc_mode {
                // No unwinding: destructors must not close the rings the
                // restarted stage will reattach to.
                std::process::abort();
            }
            panic!("chaos: injected panic at {}:{fid}", STAGE_NAMES[stage]);
        }
        ChaosKind::Hang => Some(chaos_hang(ctl, stage, proc_mode)),
        ChaosKind::Corrupt => None, // applied at the pop site
    }
}

/// Park without heartbeating until the supervisor notices. In process mode
/// the stall ends with a SIGKILL; in thread mode the monitor bumps the
/// stage's restart-request generation and the body returns.
fn chaos_hang(ctl: &Ctl, stage: usize, proc_mode: bool) -> StageExit {
    let gen = ctl.restart_req(stage);
    loop {
        std::thread::sleep(Duration::from_millis(2));
        if !proc_mode && ctl.restart_req(stage) != gen {
            return StageExit::Hung;
        }
    }
}

/// Deterministically flip payload bits for a scheduled corrupt event, ahead
/// of the stage's integrity check (which must catch it).
fn chaos_corrupt_if_scheduled(cfg: &RuntimeConfig, stage: usize, buf: &mut FrameBuf) {
    let Some(plan) = cfg.chaos.as_ref() else {
        return;
    };
    let fid = buf.meta.frame_id;
    if plan.kind_at(stage as u8, fid) != Some(ChaosKind::Corrupt) {
        return;
    }
    let payload = buf.payload_mut();
    if payload.is_empty() {
        return;
    }
    let mut rng = FaultRng::for_stream(cfg.seed, &[TAG_CHAOS_FLIP, stage as u64, fid]);
    for _ in 0..3 {
        let idx = (rng.next_u64() as usize) % payload.len();
        let bit = (rng.next_u64() % 32) as u32;
        payload[idx] = f32::from_bits(payload[idx].to_bits() ^ (1 << bit));
    }
}

// ---------------------------------------------------------------------------
// Stage bodies
// ---------------------------------------------------------------------------

fn deadline() -> Instant {
    Instant::now() + RETRY_SLICE
}

/// Capture: turn trace points into frames — deterministic synthetic pixels,
/// checksum, ground-truth hit flag — and push them onto the capture ring.
/// Resumes from the persisted next trace index after a restart.
pub(crate) fn run_capture(
    cfg: &RuntimeConfig,
    costs: &StageCosts,
    ctl: &Ctl,
    trace: &TraceFile,
    out: &RingBuffer,
    proc_mode: bool,
) -> StageExit {
    const STAGE: usize = 0;
    let faults = LinkFaults::new(cfg.seed, cfg.ipc_flip_rate);
    let svc = costs.elems as u64 * cfg.capture_ns_per_elem;
    let mut clock = ctl.clock_ns(STAGE);
    let start_idx = ctl.cap_next_idx() as usize;
    let wall_t0 = Instant::now();
    let pace_base = trace.points.get(start_idx).map_or(0, |p| p.t_ns);

    for (idx, pt) in trace.points.iter().enumerate().skip(start_idx) {
        ctl.beat(STAGE);
        if ctl.stop_requested() {
            return StageExit::Stopped;
        }
        if cfg.pace {
            let target = wall_t0 + Duration::from_nanos(pt.t_ns - pace_base);
            loop {
                let now = Instant::now();
                if now >= target {
                    break;
                }
                ctl.beat(STAGE);
                if ctl.stop_requested() {
                    return StageExit::Stopped;
                }
                std::thread::sleep((target - now).min(Duration::from_millis(5)));
            }
        }
        let fid = idx as u64;
        // Progress is persisted *before* the frame is attempted: a crash
        // from here to commit loses exactly this frame, never repeats it.
        ctl.set_cap_next_idx(fid + 1);
        ctl.set_offered(fid + 1);
        ctl.set_inflight(STAGE, fid + 1);
        if let Some(exit) = chaos_trigger(cfg, ctl, STAGE, fid, proc_mode) {
            return exit;
        }
        let mut slot = loop {
            match out.reserve(cfg.policy, deadline()) {
                Reserve::Slot(slot) => break slot,
                Reserve::TimedOut => {
                    ctl.beat(STAGE);
                    if ctl.stop_requested() {
                        return StageExit::Stopped;
                    }
                }
            }
        };
        // Virtual timing: the frame is ready at its trace arrival; a blocked
        // producer additionally cannot write before the slot it reuses was
        // vacated (virtual backpressure).
        let mut start = clock.max(pt.t_ns);
        if cfg.policy == DropPolicy::Block {
            if let Some(freed) = slot.freed_stamp_ns() {
                start = start.max(freed);
            }
        }
        let done = start + svc;
        clock = done;

        let payload = slot.payload_mut();
        let mut rng = FaultRng::for_stream(cfg.seed, &[TAG_PAYLOAD, fid]);
        for v in payload[..costs.elems].iter_mut() {
            *v = rng.next_f64() as f32;
        }
        let sum = checksum_f32(&payload[..costs.elems]);
        // Inject IPC faults *after* the checksum: corruption-in-transit the
        // consumer's integrity check must catch.
        faults.corrupt_frame(LINK_CAPTURE, fid, &mut payload[..costs.elems]);
        slot.commit(&FrameMeta {
            frame_id: fid,
            t_arrival_ns: pt.t_ns,
            t_stage_ns: done,
            dims: costs.dims,
            dtype: 0,
            flags: u32::from(pt.hit) * FLAG_HIT,
            payload_len: costs.elems as u32,
            checksum: sum,
        });
        ctl.add_busy_ns(STAGE, svc);
        ctl.add_processed(STAGE, 1);
        ctl.set_inflight(STAGE, 0);
        ctl.set_clock_ns(STAGE, clock);
    }
    ctl.set_done(STAGE);
    StageExit::Done
}

/// Preprocess: verify integrity, normalize pixels to `[-1, 1]`, re-checksum
/// and forward. Corrupted frames are counted and dropped, never served.
pub(crate) fn run_preprocess(
    cfg: &RuntimeConfig,
    costs: &StageCosts,
    ctl: &Ctl,
    input: &RingBuffer,
    out: &RingBuffer,
    proc_mode: bool,
) -> StageExit {
    const STAGE: usize = 1;
    let faults = LinkFaults::new(cfg.seed, cfg.ipc_flip_rate);
    let svc = costs.elems as u64 * cfg.preprocess_ns_per_elem;
    let mut clock = ctl.clock_ns(STAGE);
    let mut buf = FrameBuf::for_ring(input);

    loop {
        ctl.beat(STAGE);
        let clock_now = clock;
        match input.pop_into(&mut buf, deadline(), |b| clock_now.max(b.meta.t_stage_ns)) {
            Pop::Drained => break,
            Pop::TimedOut => {
                if ctl.stop_requested() {
                    return StageExit::Stopped;
                }
                continue;
            }
            Pop::Popped => {}
        }
        let fid = buf.meta.frame_id;
        ctl.set_inflight(STAGE, fid + 1);
        if let Some(exit) = chaos_trigger(cfg, ctl, STAGE, fid, proc_mode) {
            return exit;
        }
        chaos_corrupt_if_scheduled(cfg, STAGE, &mut buf);
        let start = clock.max(buf.meta.t_stage_ns);
        if !buf.checksum_ok() {
            ctl.add_corrupted(0);
            ctl.push_event(start, fid, EV_CORRUPT_PRE);
            ctl.set_inflight(STAGE, 0);
            continue;
        }
        let done = start + svc;
        clock = done;

        let reserved = loop {
            match out.reserve(cfg.policy, deadline()) {
                Reserve::Slot(slot) => break Some(slot),
                Reserve::TimedOut => {
                    ctl.beat(STAGE);
                    if ctl.stop_requested() {
                        break None;
                    }
                }
            }
        };
        let Some(mut slot) = reserved else {
            return StageExit::Stopped;
        };
        let mut t_out = done;
        if cfg.policy == DropPolicy::Block {
            if let Some(freed) = slot.freed_stamp_ns() {
                t_out = t_out.max(freed);
            }
        }
        let n = buf.meta.payload_len as usize;
        let payload = slot.payload_mut();
        for (dst, src) in payload[..n].iter_mut().zip(buf.payload()) {
            *dst = src * 2.0 - 1.0;
        }
        let sum = checksum_f32(&payload[..n]);
        faults.corrupt_frame(LINK_PREPROCESS, fid, &mut payload[..n]);
        slot.commit(&FrameMeta {
            t_stage_ns: t_out,
            payload_len: n as u32,
            checksum: sum,
            ..buf.meta
        });
        ctl.add_busy_ns(STAGE, svc);
        ctl.add_processed(STAGE, 1);
        ctl.set_inflight(STAGE, 0);
        ctl.set_clock_ns(STAGE, clock);
    }
    ctl.set_done(STAGE);
    StageExit::Done
}

/// The executor precision of a ladder rung's dtype name.
pub(crate) fn precision_of(dtype: &str) -> Precision {
    match dtype {
        "f16" => Precision::F16,
        "i8" | "int8" => Precision::Int8,
        _ => Precision::F32,
    }
}

const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Int8];

fn precision_code(p: Precision) -> u32 {
    PRECISIONS
        .iter()
        .position(|&q| q == p)
        .expect("every precision is listed") as u32
}

fn precision_from_code(code: u32) -> Option<Precision> {
    PRECISIONS.get(code as usize).copied()
}

struct RungExec<'g> {
    prepared: PreparedExecutor<'g>,
}

impl<'g> RungExec<'g> {
    fn build(
        graph: &'g edgebench_graph::Graph,
        precision: Precision,
        seed: u64,
    ) -> Result<RungExec<'g>, RuntimeError> {
        let prepared = Executor::new(graph)
            .with_seed(seed)
            .with_precision(precision)
            .prepare()
            .map_err(|e| RuntimeError::Stage {
                stage: "inference".to_string(),
                reason: format!("executor build ({precision:?}): {e}"),
            })?;
        Ok(RungExec { prepared })
    }

    /// Run the prepared executor on one frame. A rejected frame is a typed
    /// stage error — it feeds the degraded-stage report, never a panic.
    fn run(&self, dims: [u32; 4], payload: &[f32]) -> Result<u64, RuntimeError> {
        let shape: Vec<usize> = dims.iter().map(|&d| (d as usize).max(1)).collect();
        let input = Tensor::from_vec(shape, payload.to_vec());
        let out = self.prepared.run(&input).map_err(|e| RuntimeError::Stage {
            stage: "inference".to_string(),
            reason: format!("executor rejected frame: {e}"),
        })?;
        Ok(checksum_f32(out.data()))
    }
}

/// Inference: sentry-scheduled rung execution with per-rung service time and
/// energy from the fleet's ladder tables; optionally runs the real
/// `PreparedExecutor` hot path on every served frame. Sentry state, energy,
/// and the output digest are persisted per frame so a restart resumes the
/// state machine exactly.
pub(crate) fn run_inference(
    cfg: &RuntimeConfig,
    costs: &StageCosts,
    ctl: &Ctl,
    input: &RingBuffer,
    out: &RingBuffer,
    proc_mode: bool,
) -> StageExit {
    const STAGE: usize = 2;
    let graph;
    let mut full_exec = None;
    let mut standby_exec = None;
    if cfg.exec == ExecMode::Real {
        graph = cfg.model.build();
        match RungExec::build(&graph, costs.full.precision, cfg.seed) {
            Ok(e) => full_exec = Some(e),
            Err(e) => {
                if cfg.supervise.is_none() {
                    ctl.request_stop();
                }
                return StageExit::Failed(e.to_string());
            }
        }
        if let (Some(sb), true) = (&costs.standby, cfg.sentry.is_some()) {
            match RungExec::build(&graph, sb.precision, cfg.seed) {
                Ok(e) => standby_exec = Some(e),
                Err(e) => {
                    if cfg.supervise.is_none() {
                        ctl.request_stop();
                    }
                    return StageExit::Failed(e.to_string());
                }
            }
        }
    }

    let mut sentry = cfg
        .sentry
        .map(|sc| Sentry::resume(sc, cfg.seed, ctl.sentry_state()));
    let mut clock = ctl.clock_ns(STAGE);
    let mut buf = FrameBuf::for_ring(input);

    loop {
        ctl.beat(STAGE);
        let clock_now = clock;
        match input.pop_into(&mut buf, deadline(), |b| clock_now.max(b.meta.t_stage_ns)) {
            Pop::Drained => break,
            Pop::TimedOut => {
                if ctl.stop_requested() {
                    return StageExit::Stopped;
                }
                continue;
            }
            Pop::Popped => {}
        }
        let fid = buf.meta.frame_id;
        ctl.set_inflight(STAGE, fid + 1);
        if let Some(exit) = chaos_trigger(cfg, ctl, STAGE, fid, proc_mode) {
            return exit;
        }
        chaos_corrupt_if_scheduled(cfg, STAGE, &mut buf);
        let start = clock.max(buf.meta.t_stage_ns);
        if !buf.checksum_ok() {
            ctl.add_corrupted(1);
            ctl.push_event(start, fid, EV_CORRUPT_INF);
            ctl.set_inflight(STAGE, 0);
            continue;
        }
        let hit = buf.meta.flags & FLAG_HIT != 0;
        let (run_standby, run_full, escalated, stood_down, missed) = match sentry.as_mut() {
            Some(s) => {
                let p = s.plan(fid, hit);
                (
                    p.run_standby,
                    p.run_full,
                    p.escalated,
                    p.stood_down,
                    p.missed,
                )
            }
            None => (false, true, false, false, false),
        };

        let mut svc = 0u64;
        if run_standby {
            let sb = costs
                .standby
                .as_ref()
                .expect("sentry requires a standby rung");
            svc += sb.svc_ns;
            ctl.add_energy_mj(sb.energy_mj);
            if let Some(e) = &standby_exec {
                match e.run(buf.meta.dims, buf.payload()) {
                    Ok(d) => ctl.xor_digest(d),
                    Err(err) => {
                        if cfg.supervise.is_none() {
                            ctl.request_stop();
                        }
                        return StageExit::Failed(err.to_string());
                    }
                }
            }
        }
        if run_full {
            svc += costs.full.svc_ns;
            ctl.add_energy_mj(costs.full.energy_mj);
            if let Some(e) = &full_exec {
                match e.run(buf.meta.dims, buf.payload()) {
                    Ok(d) => ctl.xor_digest(d),
                    Err(err) => {
                        if cfg.supervise.is_none() {
                            ctl.request_stop();
                        }
                        return StageExit::Failed(err.to_string());
                    }
                }
            }
        }
        let done = start + svc;
        clock = done;

        ctl.add_sentry(
            u64::from(escalated),
            u64::from(stood_down),
            u64::from(missed),
        );
        ctl.add_served(u64::from(run_standby && !run_full), u64::from(run_full));
        if escalated {
            ctl.push_event(done, fid, EV_ESCALATE);
        }
        if stood_down {
            ctl.push_event(done, fid, EV_STANDDOWN);
        }
        if missed {
            ctl.push_event(done, fid, EV_MISSED);
        }

        let reserved = loop {
            match out.reserve(cfg.policy, deadline()) {
                Reserve::Slot(slot) => break Some(slot),
                Reserve::TimedOut => {
                    ctl.beat(STAGE);
                    if ctl.stop_requested() {
                        break None;
                    }
                }
            }
        };
        let Some(mut slot) = reserved else {
            return StageExit::Stopped;
        };
        let mut t_out = done;
        if cfg.policy == DropPolicy::Block {
            if let Some(freed) = slot.freed_stamp_ns() {
                t_out = t_out.max(freed);
            }
        }
        let payload = slot.payload_mut();
        payload[..DETECTION_ELEMS].fill(0.0);
        payload[0] = f32::from(u8::from(hit && run_full));
        payload[1] = f32::from(u8::from(run_standby && !run_full));
        payload[2] = f32::from(u8::from(escalated));
        let sum = checksum_f32(&payload[..DETECTION_ELEMS]);
        let mut flags = buf.meta.flags;
        if escalated {
            flags |= FLAG_ESCALATED;
        }
        if run_standby && !run_full {
            flags |= FLAG_STANDBY;
        }
        slot.commit(&FrameMeta {
            t_stage_ns: t_out,
            dims: [DETECTION_ELEMS as u32, 1, 1, 1],
            flags,
            payload_len: DETECTION_ELEMS as u32,
            checksum: sum,
            ..buf.meta
        });
        ctl.add_busy_ns(STAGE, svc);
        ctl.add_processed(STAGE, 1);
        ctl.set_inflight(STAGE, 0);
        if let Some(s) = sentry.as_ref() {
            let (mode, quiet) = s.state();
            ctl.set_sentry_state(mode, quiet);
        }
        ctl.set_clock_ns(STAGE, clock);
    }
    ctl.set_done(STAGE);
    StageExit::Done
}

/// Gateway: drain the detection ring, verify integrity one last time, and
/// account end-to-end virtual latency per frame in the shared ledger. The
/// ledger's compare-and-swap insert is what proves at-most-once delivery:
/// a frame id arriving twice trips the duplicates counter.
pub(crate) fn run_gateway(
    cfg: &RuntimeConfig,
    ctl: &Ctl,
    input: &RingBuffer,
    proc_mode: bool,
) -> StageExit {
    const STAGE: usize = 3;
    let mut buf = FrameBuf::for_ring(input);
    let mut clock = ctl.clock_ns(STAGE);

    loop {
        ctl.beat(STAGE);
        let clock_now = clock;
        match input.pop_into(&mut buf, deadline(), |b| clock_now.max(b.meta.t_stage_ns)) {
            Pop::Drained => break,
            Pop::TimedOut => {
                if ctl.stop_requested() && input.is_closed() {
                    // Closed and nothing new within a slice: give up.
                    return StageExit::Stopped;
                }
                continue;
            }
            Pop::Popped => {}
        }
        let fid = buf.meta.frame_id;
        ctl.set_inflight(STAGE, fid + 1);
        if let Some(exit) = chaos_trigger(cfg, ctl, STAGE, fid, proc_mode) {
            return exit;
        }
        chaos_corrupt_if_scheduled(cfg, STAGE, &mut buf);
        clock = clock.max(buf.meta.t_stage_ns);
        if let Some(prev) = ctl.gw_last_id() {
            if fid <= prev {
                ctl.add_order_violation();
            }
        }
        ctl.set_gw_last_id(fid);
        if !buf.checksum_ok() {
            ctl.add_corrupted(2);
            ctl.push_event(buf.meta.t_stage_ns, fid, EV_CORRUPT_GW);
            ctl.set_inflight(STAGE, 0);
            ctl.set_clock_ns(STAGE, clock);
            continue;
        }
        if ctl.ledger_set(fid, buf.meta.t_stage_ns - buf.meta.t_arrival_ns) {
            ctl.add_completed();
            ctl.span_max(buf.meta.t_stage_ns);
            ctl.add_processed(STAGE, 1);
        } else {
            ctl.add_duplicate();
        }
        ctl.set_inflight(STAGE, 0);
        ctl.set_clock_ns(STAGE, clock);
    }
    ctl.set_done(STAGE);
    StageExit::Done
}

// ---------------------------------------------------------------------------
// Sink bodies (restart budget exhausted)
// ---------------------------------------------------------------------------

/// Capture sink: the capture stage is permanently down. Account every
/// remaining trace point as offered-and-lost so conservation still holds,
/// then let the wrapper close the ring and the survivors drain.
pub(crate) fn run_capture_sink(ctl: &Ctl, trace: &TraceFile) -> StageExit {
    const STAGE: usize = 0;
    let start_idx = ctl.cap_next_idx() as usize;
    for (idx, pt) in trace.points.iter().enumerate().skip(start_idx) {
        ctl.beat(STAGE);
        let fid = idx as u64;
        ctl.set_cap_next_idx(fid + 1);
        ctl.set_offered(fid + 1);
        ctl.add_lost(STAGE, 1);
        ctl.push_event(pt.t_ns, fid, EV_LOST_BASE + STAGE as u32);
    }
    StageExit::Stopped
}

/// Consumer sink: the stage is permanently down but keeps draining its
/// input ring deterministically, accounting every frame as lost at this
/// stage — the drain-and-degrade path with exact bookkeeping.
pub(crate) fn run_consumer_sink(stage: usize, ctl: &Ctl, input: &RingBuffer) -> StageExit {
    let mut buf = FrameBuf::for_ring(input);
    loop {
        ctl.beat(stage);
        match input.pop_into(&mut buf, deadline(), |b| b.meta.t_stage_ns) {
            Pop::Drained => break,
            Pop::TimedOut => {
                if ctl.stop_requested() && input.is_closed() {
                    break;
                }
                continue;
            }
            Pop::Popped => {
                ctl.add_lost(stage, 1);
                ctl.push_event(
                    buf.meta.t_stage_ns,
                    buf.meta.frame_id,
                    EV_LOST_BASE + stage as u32,
                );
            }
        }
    }
    StageExit::Stopped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctl_roundtrips_counters_and_events() {
        let path = std::env::temp_dir().join(format!("ebctl-test-{}", std::process::id()));
        let ctl = Ctl::create(&path, 16, 8, 8).unwrap();
        ctl.set_offered(10);
        ctl.add_corrupted(1);
        ctl.add_sentry(2, 1, 0);
        ctl.add_served(3, 4);
        ctl.add_energy_mj(12.5);
        ctl.add_busy_ns(2, 777);
        ctl.add_processed(2, 9);
        ctl.push_event(5, 1, EV_ESCALATE);
        ctl.push_event(3, 0, EV_CORRUPT_PRE);
        ctl.set_done(2);

        let other = Ctl::attach(&path).unwrap();
        assert_eq!(other.offered(), 10);
        assert_eq!(other.corrupted(1), 1);
        assert_eq!(other.sentry_counts(), (2, 1, 0));
        assert_eq!(other.served_counts(), (3, 4));
        assert_eq!(other.energy_mj(), 12.5);
        assert_eq!(other.busy_ns(2), 777);
        assert_eq!(other.processed(2), 9);
        assert!(other.done(2) && !other.done(0));
        assert_eq!(
            other.events(),
            vec![(3, 0, EV_CORRUPT_PRE), (5, 1, EV_ESCALATE)]
        );
        assert!(!other.stop_requested());
        ctl.request_stop();
        assert!(other.stop_requested());

        ctl.map().unlink();
        assert!(!path.exists());
    }

    #[test]
    fn ctl_event_region_is_bounded() {
        let path = std::env::temp_dir().join(format!("ebctl-bound-{}", std::process::id()));
        let ctl = Ctl::create(&path, 4, 2, 2).unwrap();
        ctl.map().unlink();
        for i in 0..5 {
            ctl.push_event(i, i, EV_MISSED);
        }
        assert_eq!(ctl.events().len(), 2);
        for i in 0..5 {
            ctl.recov_push(1, i, 100);
        }
        assert_eq!(ctl.recoveries().len(), 2);
    }

    #[test]
    fn ctl_supervision_state_roundtrips() {
        let path = std::env::temp_dir().join(format!("ebctl-sup-{}", std::process::id()));
        let ctl = Ctl::create(&path, 8, 4, 4).unwrap();
        ctl.map().unlink();

        ctl.beat(1);
        ctl.beat(1);
        assert_eq!(ctl.heartbeat(1), 2);
        assert_eq!(ctl.heartbeat(0), 0);

        ctl.set_clock_ns(2, 9_000);
        assert_eq!(ctl.clock_ns(2), 9_000);

        assert_eq!(ctl.inflight(1), None);
        ctl.set_inflight(1, 42 + 1);
        assert_eq!(ctl.inflight(1), Some(42));
        ctl.set_inflight(1, 0);
        assert_eq!(ctl.inflight(1), None);

        ctl.add_restart(3);
        ctl.add_lost(3, 2);
        assert_eq!(ctl.restarts(3), 1);
        assert_eq!(ctl.lost(3), 2);

        assert_eq!(ctl.restart_req(2), 0);
        ctl.bump_restart_req(2);
        assert_eq!(ctl.restart_req(2), 1);

        ctl.set_sentry_state(1, 5);
        assert_eq!(ctl.sentry_state(), (1, 5));

        assert_eq!(ctl.gw_last_id(), None);
        ctl.set_gw_last_id(0);
        assert_eq!(ctl.gw_last_id(), Some(0));

        ctl.set_cap_next_idx(7);
        assert_eq!(ctl.cap_next_idx(), 7);

        ctl.span_max(50);
        ctl.span_max(20);
        assert_eq!(ctl.span_ns(), 50);

        ctl.recov_push(1, 1, 25_000);
        ctl.recov_push(0, 1, 5_000);
        assert_eq!(ctl.recoveries(), vec![(0, 1, 5_000), (1, 1, 25_000)]);
    }

    #[test]
    fn ctl_ledger_detects_duplicates_and_orders_latencies() {
        let path = std::env::temp_dir().join(format!("ebctl-ledger-{}", std::process::id()));
        let ctl = Ctl::create(&path, 4, 2, 2).unwrap();
        ctl.map().unlink();

        assert!(ctl.ledger_set(2, 3_000_000));
        assert!(ctl.ledger_set(0, 1_000_000));
        assert!(!ctl.ledger_set(2, 9_000_000), "second insert is a dup");
        assert!(!ctl.ledger_set(99, 1), "out-of-range fids are rejected");
        assert_eq!(ctl.ledger_latencies_ms(), vec![1.0, 3.0]);
        ctl.add_completed();
        ctl.add_completed();
        assert_eq!(ctl.completed(), 2);
        ctl.add_duplicate();
        assert_eq!(ctl.duplicates(), 1);
    }

    #[test]
    fn ctl_roundtrips_stage_costs() {
        let model = Model::MobileNetV2;
        let full = RungCost {
            precision: Precision::F32,
            svc_ns: 41_234_567,
            // Not exactly representable in decimal: the round trip must
            // keep every bit.
            energy_mj: 0.1 + 0.2,
        };
        let standby = RungCost {
            precision: Precision::Int8,
            svc_ns: 9_876,
            energy_mj: f64::MIN_POSITIVE / 3.0,
        };
        for (tag, standby) in [("sb", Some(standby)), ("nosb", None)] {
            let path =
                std::env::temp_dir().join(format!("ebctl-costs-{tag}-{}", std::process::id()));
            let ctl = Ctl::create(&path, 4, 2, 2).unwrap();
            let costs = StageCosts::with_rungs(model, full.clone(), standby);
            ctl.set_stage_costs(&costs);

            let got = Ctl::attach(&path).unwrap().stage_costs(model).unwrap();
            ctl.map().unlink();
            assert_eq!(got, costs);
            assert_eq!(got.full.energy_mj.to_bits(), (0.1f64 + 0.2).to_bits());
            if let (Some(a), Some(b)) = (&got.standby, &costs.standby) {
                assert_eq!(a.energy_mj.to_bits(), b.energy_mj.to_bits());
                assert_eq!(a.precision, Precision::Int8);
            }
        }
    }

    #[test]
    fn ctl_attach_rejects_a_version_2_block() {
        let path = std::env::temp_dir().join(format!("ebctl-v2-{}", std::process::id()));
        let ctl = Ctl::create(&path, 4, 2, 2).unwrap();
        // SAFETY: word 1 of the header is the version, inside the map.
        unsafe { ctl.map().base().cast::<u32>().add(1).write(2) };
        let err = Ctl::attach(&path).unwrap_err();
        ctl.map().unlink();
        assert_eq!(
            err,
            RuntimeError::shm(&path, "control-block version mismatch")
        );
    }

    #[test]
    fn precision_mapping_covers_ladder_dtypes() {
        assert_eq!(precision_of("f32"), Precision::F32);
        assert_eq!(precision_of("f16"), Precision::F16);
        assert_eq!(precision_of("i8"), Precision::Int8);
        assert_eq!(precision_of("int8"), Precision::Int8);
        assert_eq!(precision_of("anything"), Precision::F32);
        for p in PRECISIONS {
            assert_eq!(precision_from_code(precision_code(p)), Some(p));
        }
        assert_eq!(precision_from_code(PRECISIONS.len() as u32), None);
    }
}
