//! Zero-copy multi-process serving runtime.
//!
//! A pipeline of four stages — **capture → preprocess → inference →
//! gateway** — connected by memory-mapped SPSC ring buffers
//! ([`ring::RingBuffer`]) carrying fixed-layout frame headers and raw `f32`
//! payloads: zero serialization on the frame path. Each stage can run as a
//! thread (replay/loopback mode) or as its own OS process (the CLI spawns
//! `edgebench-cli runtime --stage <name>` children over the same shared
//! files).
//!
//! ## Virtual-time replay
//!
//! The runtime exercises *real* IPC mechanics (mmap rings, futex wakeups,
//! checksums, backpressure) while accounting time *virtually*: every stage
//! advances a deterministic clock `t_out = max(stage_clock, t_in) + svc_ns`,
//! with service times taken from the same per-rung tables `serve::sim` uses.
//! Ring-full backpressure is folded in through the per-slot free-time stamps
//! (see [`ring`]): a blocking producer cannot stamp a frame earlier than the
//! virtual instant the consumer vacated the slot it reuses. The result is a
//! replay report that is byte-identical across runs at a fixed seed — and
//! directly comparable against the discrete-event simulator's prediction on
//! the same trace (`ext-runtime-vs-sim`).

pub mod report;
pub mod ring;
pub mod sentry;
pub mod shm;
mod stage;
pub mod supervise;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use edgebench_devices::faults::ChaosPlan;
use edgebench_devices::Device;
use edgebench_measure::stats::Samples;
use edgebench_models::Model;
use edgebench_tensor::Precision;

use crate::serve::{Fleet, ReplicaSpec, TraceFile};
use ring::RingBuffer;
use shm::SharedMap;
use stage::{precision_of, Ctl, StageExit, DETECTION_ELEMS, STAGE_NAMES};

pub use report::{RuntimeEvent, RuntimeEventKind, RuntimeReport, StageReport};
pub use ring::DropPolicy;
pub use sentry::SentryConfig;
pub use supervise::SuperviseConfig;

/// Errors surfaced by the runtime subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Invalid runtime configuration.
    Config {
        /// What was wrong.
        reason: String,
    },
    /// A shared-memory mapping failed.
    Shm {
        /// Backing file path.
        path: String,
        /// What went wrong.
        reason: String,
    },
    /// No deployable configuration for the model/device pair.
    NoDeployment {
        /// Model name.
        model: String,
        /// Device name.
        device: String,
    },
    /// A pipeline stage failed or exited abnormally.
    Stage {
        /// Stage name.
        stage: String,
        /// What went wrong.
        reason: String,
    },
    /// Trace generation failed.
    Trace {
        /// What went wrong.
        reason: String,
    },
    /// Filesystem error while managing the run directory.
    Io {
        /// What went wrong.
        reason: String,
    },
}

impl RuntimeError {
    pub(crate) fn config(reason: &str) -> RuntimeError {
        RuntimeError::Config {
            reason: reason.to_string(),
        }
    }

    pub(crate) fn shm(path: &Path, reason: &str) -> RuntimeError {
        RuntimeError::Shm {
            path: path.display().to_string(),
            reason: reason.to_string(),
        }
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Config { reason } => write!(f, "runtime config: {reason}"),
            RuntimeError::Shm { path, reason } => write!(f, "shared memory {path}: {reason}"),
            RuntimeError::NoDeployment { model, device } => {
                write!(f, "no deployable configuration for {model} on {device}")
            }
            RuntimeError::Stage { stage, reason } => write!(f, "stage {stage}: {reason}"),
            RuntimeError::Trace { reason } => write!(f, "trace: {reason}"),
            RuntimeError::Io { reason } => write!(f, "io: {reason}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// How real the inference stage's compute is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Charge per-rung service/energy tables only (fast, default).
    Model,
    /// Additionally run the real `PreparedExecutor` hot path per frame and
    /// fold output checksums into the report digest.
    Real,
}

/// Configuration for a runtime pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// Model served by the inference stage.
    pub model: Model,
    /// Device whose measured ladder provides service/energy tables.
    pub device: Device,
    /// Slots per ring (power of two).
    pub ring_capacity: usize,
    /// Backpressure policy on full rings.
    pub policy: DropPolicy,
    /// Sentry mode; `None` serves every frame with the full model.
    pub sentry: Option<SentryConfig>,
    /// Master seed for payloads, faults, and sentry recall draws.
    pub seed: u64,
    /// Virtual capture cost per payload element, ns.
    pub capture_ns_per_elem: u64,
    /// Virtual preprocess cost per payload element, ns.
    pub preprocess_ns_per_elem: u64,
    /// Per-bit flip probability on the IPC links (0 disables).
    pub ipc_flip_rate: f64,
    /// Whether inference really executes the model.
    pub exec: ExecMode,
    /// Pace capture in wall-clock time (live mode) instead of free-running.
    pub pace: bool,
    /// Base directory for shared files (default `/dev/shm` or tmp).
    pub shm_dir: Option<PathBuf>,
    /// Self-healing supervision; `None` keeps the fail-stop behavior
    /// (a dead stage degrades the run without recovery).
    pub supervise: Option<SuperviseConfig>,
    /// Deterministic chaos schedule injected into the stages.
    pub chaos: Option<ChaosPlan>,
}

impl RuntimeConfig {
    /// Defaults: capacity 8, block policy, no sentry, seed 42, modelled
    /// execution, small per-element stage costs.
    pub fn new(model: Model, device: Device) -> RuntimeConfig {
        RuntimeConfig {
            model,
            device,
            ring_capacity: 8,
            policy: DropPolicy::Block,
            sentry: None,
            seed: 42,
            capture_ns_per_elem: 2,
            preprocess_ns_per_elem: 4,
            ipc_flip_rate: 0.0,
            exec: ExecMode::Model,
            pace: false,
            shm_dir: None,
            supervise: None,
            chaos: None,
        }
    }

    /// Sets the ring capacity (power of two).
    pub fn with_ring_capacity(mut self, capacity: usize) -> RuntimeConfig {
        self.ring_capacity = capacity;
        self
    }

    /// Sets the backpressure policy.
    pub fn with_policy(mut self, policy: DropPolicy) -> RuntimeConfig {
        self.policy = policy;
        self
    }

    /// Enables sentry mode.
    pub fn with_sentry(mut self, sentry: SentryConfig) -> RuntimeConfig {
        self.sentry = Some(sentry);
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> RuntimeConfig {
        self.seed = seed;
        self
    }

    /// Sets the virtual per-element capture and preprocess costs (ns).
    pub fn with_stage_costs(mut self, capture: u64, preprocess: u64) -> RuntimeConfig {
        self.capture_ns_per_elem = capture;
        self.preprocess_ns_per_elem = preprocess;
        self
    }

    /// Sets the IPC link flip rate.
    pub fn with_ipc_flip_rate(mut self, rate: f64) -> RuntimeConfig {
        self.ipc_flip_rate = rate;
        self
    }

    /// Sets the execution mode.
    pub fn with_exec(mut self, exec: ExecMode) -> RuntimeConfig {
        self.exec = exec;
        self
    }

    /// Enables wall-clock pacing of the capture stage.
    pub fn with_pace(mut self, pace: bool) -> RuntimeConfig {
        self.pace = pace;
        self
    }

    /// Overrides the shared-file base directory.
    pub fn with_shm_dir(mut self, dir: PathBuf) -> RuntimeConfig {
        self.shm_dir = Some(dir);
        self
    }

    /// Enables self-healing supervision (crash/hang detection plus
    /// deterministic stage restarts).
    pub fn with_supervise(mut self, sup: SuperviseConfig) -> RuntimeConfig {
        self.supervise = Some(sup);
        self
    }

    /// Injects a deterministic chaos schedule into the stages.
    pub fn with_chaos(mut self, plan: ChaosPlan) -> RuntimeConfig {
        self.chaos = Some(plan);
        self
    }

    /// Validates static invariants.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Config`] on a zero or non-power-of-two ring
    /// capacity, or an out-of-range probability.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        if self.ring_capacity == 0 || !self.ring_capacity.is_power_of_two() {
            return Err(RuntimeError::config(
                "ring capacity must be a non-zero power of two",
            ));
        }
        if !(0.0..=1.0).contains(&self.ipc_flip_rate) {
            return Err(RuntimeError::config("flip rate must be in [0, 1]"));
        }
        if let Some(s) = &self.sentry {
            if s.cooldown == 0 {
                return Err(RuntimeError::config("sentry cooldown must be positive"));
            }
            if !(0.0..=1.0).contains(&s.standby_recall) {
                return Err(RuntimeError::config("standby recall must be in [0, 1]"));
            }
        }
        if let Some(sup) = &self.supervise {
            if sup.heartbeat_ms < 10 {
                return Err(RuntimeError::config("heartbeat window must be >= 10 ms"));
            }
            if sup.restart_budget > 64 {
                return Err(RuntimeError::config("restart budget must be <= 64"));
            }
            if sup.backoff_factor < 1.0 {
                return Err(RuntimeError::config("backoff factor must be >= 1"));
            }
            if !(0.0..1.0).contains(&sup.jitter_frac) {
                return Err(RuntimeError::config("jitter fraction must be in [0, 1)"));
            }
        }
        if let Some(plan) = &self.chaos {
            if plan.has_hangs() && self.supervise.is_none() {
                return Err(RuntimeError::config(
                    "chaos hang events need supervision (stall detection) to recover",
                ));
            }
        }
        Ok(())
    }
}

/// Service/energy cost of one ladder rung at batch 1, and the precision
/// the inference stage runs it at.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RungCost {
    pub precision: Precision,
    pub svc_ns: u64,
    pub energy_mj: f64,
}

/// Per-stage cost tables derived from the serving fleet's ladder model —
/// the same numbers `serve::sim` predicts with, which is what makes the
/// sim-vs-real comparison apples-to-apples.
///
/// A run derives them once ([`StageCosts::build`]): the process-mode
/// parent publishes the rungs in the control block and every stage child
/// reads them back ([`Ctl::stage_costs`]) instead of rebuilding the fleet.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StageCosts {
    pub elems: usize,
    pub dims: [u32; 4],
    pub full: RungCost,
    pub standby: Option<RungCost>,
}

impl StageCosts {
    pub(crate) fn build(cfg: &RuntimeConfig) -> Result<StageCosts, RuntimeError> {
        let spec = ReplicaSpec::best_for(cfg.model, cfg.device).ok_or_else(|| {
            RuntimeError::NoDeployment {
                model: cfg.model.name().to_string(),
                device: cfg.device.name().to_string(),
            }
        })?;
        let fleet = Fleet::new([spec]).map_err(|e| RuntimeError::Config {
            reason: format!("fleet model: {e}"),
        })?;
        let replica = &fleet.replicas[0];
        let rung_cost = |r: &crate::serve::RungModel| RungCost {
            precision: precision_of(r.dtype),
            svc_ns: r.svc_ns[0],
            energy_mj: r.energy_mj[0],
        };
        let full = rung_cost(&replica.rungs[0]);
        let standby = (replica.rungs.len() > 1)
            .then(|| rung_cost(replica.rungs.last().expect("len checked")));
        if cfg.sentry.is_some() && standby.is_none() {
            return Err(RuntimeError::config(
                "sentry mode needs a precision ladder with at least two rungs",
            ));
        }
        Ok(StageCosts::with_rungs(cfg.model, full, standby))
    }

    /// The costs of `model`'s frames under the given rungs: the payload
    /// size and shape come from the model's input.
    pub(crate) fn with_rungs(
        model: Model,
        full: RungCost,
        standby: Option<RungCost>,
    ) -> StageCosts {
        let shape = model.input_shape();
        let mut dims = [1u32; 4];
        for (d, s) in dims.iter_mut().zip(shape.dims()) {
            *d = *s as u32;
        }
        StageCosts {
            elems: shape.dims().iter().product(),
            dims,
            full,
            standby,
        }
    }
}

/// Removes the run directory (shared ring/ctl/trace files) on drop, so no
/// shm segment survives the run — even on panic.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Shared-file names inside a run directory.
const RING_FILES: [&str; 3] = ["ring-capture", "ring-preprocess", "ring-inference"];
const CTL_FILE: &str = "ctl";
const TRACE_FILE: &str = "trace.bin";

fn make_run_dir(cfg: &RuntimeConfig) -> Result<(PathBuf, DirGuard), RuntimeError> {
    let base = cfg.shm_dir.clone().unwrap_or_else(shm::shm_base_dir);
    let dir = base.join(format!(
        "ebrt-{}-{}-{}",
        std::process::id(),
        cfg.seed,
        RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).map_err(|e| RuntimeError::Io {
        reason: format!("create {}: {e}", dir.display()),
    })?;
    let guard = DirGuard(dir.clone());
    Ok((dir, guard))
}

struct RunObjects {
    rings: [RingBuffer; 3],
    ctl: Ctl,
}

fn create_objects(
    dir: &Path,
    cfg: &RuntimeConfig,
    costs: &StageCosts,
    n_frames: usize,
) -> Result<RunObjects, RuntimeError> {
    let elems = [costs.elems, costs.elems, DETECTION_ELEMS];
    let mut rings = Vec::with_capacity(3);
    for (name, elems) in RING_FILES.iter().zip(elems) {
        let path = dir.join(name);
        let map = SharedMap::create(&path, RingBuffer::required_bytes(cfg.ring_capacity, elems))?;
        rings.push(RingBuffer::create(map, cfg.ring_capacity, elems)?);
    }
    // Latency ledger: one slot per frame id. Event region: worst case a few
    // events per frame plus restart/lost traffic bounded by the budget.
    let budget = cfg.supervise.map_or(0, |s| s.restart_budget as usize);
    let ctl = Ctl::create(
        &dir.join(CTL_FILE),
        n_frames,
        RECOVERY_LOG_CAP,
        n_frames * 6 + 64 + 4 * budget,
    )?;
    ctl.set_stage_costs(costs);
    let rings: [RingBuffer; 3] = rings.try_into().expect("three rings");
    Ok(RunObjects { rings, ctl })
}

/// Capacity of the shared recovery log — comfortably above the maximum
/// 4 stages × 64-restart budget.
const RECOVERY_LOG_CAP: usize = 260;

fn attach_objects(dir: &Path) -> Result<RunObjects, RuntimeError> {
    let mut rings = Vec::with_capacity(3);
    for name in RING_FILES {
        rings.push(RingBuffer::attach(SharedMap::open(&dir.join(name))?)?);
    }
    let ctl = Ctl::attach(&dir.join(CTL_FILE))?;
    let rings: [RingBuffer; 3] = rings.try_into().expect("three rings");
    Ok(RunObjects { rings, ctl })
}

fn assemble_report(
    mode: &'static str,
    cfg: &RuntimeConfig,
    ctl: &Ctl,
    rings: &[RingBuffer; 3],
    degraded: &[String],
) -> RuntimeReport {
    // Fold any leftover in-flight frames (a stage that died after the rest
    // of the pipeline finished, or an unsupervised fail-stop) as lost, so
    // the conservation invariant holds at assembly time.
    for s in 0..4 {
        if let Some(fid) = ctl.inflight(s) {
            ctl.add_lost(s, 1);
            ctl.push_event(ctl.clock_ns(s), fid, stage::EV_LOST_BASE + s as u32);
            ctl.set_inflight(s, 0);
        }
    }
    let (escalations, standdowns, missed) = ctl.sentry_counts();
    let (standby_frames, full_frames) = ctl.served_counts();
    let events = ctl
        .events()
        .into_iter()
        .map(|(t_ns, seq, code)| RuntimeEvent {
            t_ns,
            seq,
            kind: match code {
                stage::EV_ESCALATE => RuntimeEventKind::Escalate,
                stage::EV_STANDDOWN => RuntimeEventKind::Standdown,
                stage::EV_MISSED => RuntimeEventKind::MissedEscalation,
                stage::EV_CORRUPT_PRE => RuntimeEventKind::Corrupted {
                    stage: "preprocess",
                },
                stage::EV_CORRUPT_INF => RuntimeEventKind::Corrupted { stage: "inference" },
                stage::EV_CORRUPT_GW => RuntimeEventKind::Corrupted { stage: "gateway" },
                c if c >= stage::EV_RESTART_BASE => RuntimeEventKind::Restart {
                    stage: STAGE_NAMES[(c - stage::EV_RESTART_BASE) as usize],
                },
                c => RuntimeEventKind::Lost {
                    stage: STAGE_NAMES[(c - stage::EV_LOST_BASE) as usize],
                },
            },
        })
        .collect();
    let stages = STAGE_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| StageReport {
            stage: name,
            processed: ctl.processed(i),
            busy_s: ctl.busy_ns(i) as f64 / 1e9,
            restarts: ctl.restarts(i),
            lost: ctl.lost(i),
        })
        .collect();
    let recovery_ms = Samples::from_unsorted(
        ctl.recoveries()
            .iter()
            .map(|&(_, _, penalty_ns)| penalty_ns as f64 / 1e6)
            .collect(),
    );
    RuntimeReport {
        mode,
        policy: cfg.policy.name(),
        sentry: cfg.sentry.is_some(),
        offered: ctl.offered(),
        completed: ctl.completed(),
        dropped: rings.iter().map(|r| r.dropped()).sum(),
        corrupted: ctl.corrupted(0) + ctl.corrupted(1) + ctl.corrupted(2),
        escalations,
        standdowns,
        missed_escalations: missed,
        standby_frames,
        full_frames,
        energy_mj: ctl.energy_mj(),
        span_s: ctl.span_ns() as f64 / 1e9,
        latencies_ms: Samples::from_unsorted(ctl.ledger_latencies_ms()),
        order_violations: ctl.order_violations(),
        supervised: cfg.supervise.is_some(),
        restarts: (0..4).map(|s| ctl.restarts(s)).sum(),
        lost: (0..4).map(|s| ctl.lost(s)).sum(),
        duplicates: ctl.duplicates(),
        recovery_ms,
        degraded: degraded.to_vec(),
        stages,
        events,
        output_digest: ctl.digest(),
    }
}

/// Run the full pipeline as four threads in this process over real shared
/// rings — the loopback/replay mode. Deterministic: the report is a pure
/// function of `(cfg, trace)`.
///
/// With supervision enabled each stage runs under a restart wrapper plus a
/// heartbeat monitor; without it a stage panic or chaos kill degrades the
/// stage (stop flag raised, survivors drain) instead of aborting the run.
///
/// # Errors
///
/// [`RuntimeError`] on invalid configuration, no deployable ladder, or
/// shared memory failure.
pub fn run_replay(cfg: &RuntimeConfig, trace: &TraceFile) -> Result<RuntimeReport, RuntimeError> {
    cfg.validate()?;
    let costs = StageCosts::build(cfg)?;
    let (dir, _guard) = make_run_dir(cfg)?;
    let objs = create_objects(&dir, cfg, &costs, trace.points.len())?;
    stage::clear_local_stop();

    let (rings, ctl) = (&objs.rings, &objs.ctl);
    let mut degraded_flags = [false; 4];
    if let Some(sup) = cfg.supervise {
        let monitor_stop = AtomicBool::new(false);
        degraded_flags = std::thread::scope(|s| {
            let h_cap = s.spawn(|| {
                let _close = stage::CloseOnDrop {
                    ring: &rings[0],
                    ctl,
                };
                supervise::supervise_thread_stage(
                    &sup,
                    cfg.seed,
                    ctl,
                    0,
                    || stage::run_capture(cfg, &costs, ctl, trace, &rings[0], false),
                    || stage::run_capture_sink(ctl, trace),
                )
            });
            let h_pre = s.spawn(|| {
                let _close = stage::CloseOnDrop {
                    ring: &rings[1],
                    ctl,
                };
                supervise::supervise_thread_stage(
                    &sup,
                    cfg.seed,
                    ctl,
                    1,
                    || stage::run_preprocess(cfg, &costs, ctl, &rings[0], &rings[1], false),
                    || stage::run_consumer_sink(1, ctl, &rings[0]),
                )
            });
            let h_inf = s.spawn(|| {
                let _close = stage::CloseOnDrop {
                    ring: &rings[2],
                    ctl,
                };
                supervise::supervise_thread_stage(
                    &sup,
                    cfg.seed,
                    ctl,
                    2,
                    || stage::run_inference(cfg, &costs, ctl, &rings[1], &rings[2], false),
                    || stage::run_consumer_sink(2, ctl, &rings[1]),
                )
            });
            let h_gw = s.spawn(|| {
                supervise::supervise_thread_stage(
                    &sup,
                    cfg.seed,
                    ctl,
                    3,
                    || stage::run_gateway(cfg, ctl, &rings[2], false),
                    || stage::run_consumer_sink(3, ctl, &rings[2]),
                )
            });
            let h_mon = s.spawn(|| supervise::run_hang_monitor(ctl, &sup, &monitor_stop));
            let flags = [
                h_cap.join().unwrap_or(true),
                h_pre.join().unwrap_or(true),
                h_inf.join().unwrap_or(true),
                h_gw.join().unwrap_or(true),
            ];
            monitor_stop.store(true, Ordering::Release);
            let _ = h_mon.join();
            flags
        });
    } else {
        std::thread::scope(|s| {
            let h_cap = s.spawn(|| {
                let _close = stage::CloseOnDrop {
                    ring: &rings[0],
                    ctl,
                };
                stage::run_capture(cfg, &costs, ctl, trace, &rings[0], false)
            });
            let h_pre = s.spawn(|| {
                let _close = stage::CloseOnDrop {
                    ring: &rings[1],
                    ctl,
                };
                stage::run_preprocess(cfg, &costs, ctl, &rings[0], &rings[1], false)
            });
            let h_inf = s.spawn(|| {
                let _close = stage::CloseOnDrop {
                    ring: &rings[2],
                    ctl,
                };
                stage::run_inference(cfg, &costs, ctl, &rings[1], &rings[2], false)
            });
            let h_gw = s.spawn(|| stage::run_gateway(cfg, ctl, &rings[2], false));
            // A panicking stage raises the stop flag and closes its ring
            // via the guard; here we just classify each exit — a panic or
            // abnormal exit degrades that stage instead of aborting.
            for (i, h) in [h_cap, h_pre, h_inf, h_gw].into_iter().enumerate() {
                match h.join() {
                    Ok(StageExit::Done) | Ok(StageExit::Stopped) => {}
                    Ok(_) | Err(_) => {
                        degraded_flags[i] = true;
                        ctl.request_stop();
                    }
                }
            }
        });
    }

    let degraded: Vec<String> = STAGE_NAMES
        .iter()
        .zip(degraded_flags)
        .filter(|&(_, d)| d)
        .map(|(name, _)| name.to_string())
        .collect();
    let report = assemble_report("threads", cfg, ctl, rings, &degraded);
    for ring in rings {
        ring.map().unlink();
    }
    ctl.map().unlink();
    Ok(report)
}

/// Outcome of a multi-process run.
#[derive(Debug, Clone)]
pub struct ProcsOutcome {
    /// The gateway's report CSV (same shape as [`RuntimeReport::to_csv`]).
    pub report_csv: String,
    /// The gateway's event-log CSV.
    pub events_csv: String,
    /// Stages that exited without finishing naturally (SIGTERM/crash).
    pub degraded: Vec<String>,
}

/// Spawn each stage as its own OS process (children of `bin`, the
/// `edgebench-cli` binary) over shared ring files, supervise them, and
/// collect the gateway's report. If a middle stage dies — e.g. SIGTERM —
/// the supervisor raises the shared stop flag: upstream stages stop
/// blocking and drain out, the gateway reports the partial run, and every
/// shared file is removed.
///
/// # Errors
///
/// [`RuntimeError`] on setup failure, or [`RuntimeError::Stage`] when the
/// gateway dies before writing a report.
pub fn run_processes(
    cfg: &RuntimeConfig,
    trace: &TraceFile,
    bin: &Path,
) -> Result<ProcsOutcome, RuntimeError> {
    run_processes_with_kill(cfg, trace, bin, None)
}

/// Fault-injection hook for [`run_processes_with_kill`]: SIGTERM one stage
/// once it has processed a given number of frames.
#[derive(Debug, Clone, Copy)]
pub struct StageKill {
    /// Stage name (`capture`, `preprocess`, `inference`, `gateway`).
    pub stage: &'static str,
    /// Send the signal once the stage's processed counter reaches this.
    pub after_processed: u64,
}

/// Spawn one `runtime --stage <name>` child over the shared files in
/// `dir`; `sink` spawns the drain-and-account body used after a stage's
/// restart budget is exhausted. The gateway child additionally gets the
/// report/event output paths.
pub(crate) fn spawn_stage_child(
    bin: &Path,
    dir: &Path,
    cfg: &RuntimeConfig,
    stage: usize,
    sink: bool,
    report_path: &Path,
    events_path: &Path,
) -> Result<std::process::Child, RuntimeError> {
    let name = STAGE_NAMES[stage];
    let mut cmd = std::process::Command::new(bin);
    cmd.arg("runtime")
        .arg("--stage")
        .arg(name)
        .arg("--dir")
        .arg(dir)
        .args(child_flags(cfg));
    if sink {
        cmd.arg("--sink");
    }
    if stage == 3 {
        cmd.arg("--out")
            .arg(report_path)
            .arg("--events-out")
            .arg(events_path);
    }
    cmd.stdout(std::process::Stdio::null())
        .spawn()
        .map_err(|e| RuntimeError::Stage {
            stage: name.to_string(),
            reason: format!("spawn: {e}"),
        })
}

/// [`run_processes`] with an optional mid-run SIGTERM of one stage — the
/// graceful-degradation scenario: the victim drains out via its signal
/// handler, the supervisor detects the unfinished stage, raises the shared
/// stop flag, and the survivors drain and report the partial run.
///
/// # Errors
///
/// Same as [`run_processes`].
pub fn run_processes_with_kill(
    cfg: &RuntimeConfig,
    trace: &TraceFile,
    bin: &Path,
    kill_plan: Option<StageKill>,
) -> Result<ProcsOutcome, RuntimeError> {
    cfg.validate()?;
    let costs = StageCosts::build(cfg)?;
    let (dir, _guard) = make_run_dir(cfg)?;
    let objs = create_objects(&dir, cfg, &costs, trace.points.len())?;
    trace
        .write_to(&dir.join(TRACE_FILE))
        .map_err(|e| RuntimeError::Trace {
            reason: e.to_string(),
        })?;
    let report_path = dir.join("report.csv");
    let events_path = dir.join("events.csv");

    if let (Some(sup), None) = (cfg.supervise, kill_plan) {
        let degraded = supervise::run_supervised_processes(
            &sup,
            cfg,
            bin,
            &dir,
            &objs.ctl,
            &report_path,
            &events_path,
        )?;
        let report_csv =
            std::fs::read_to_string(&report_path).map_err(|_| RuntimeError::Stage {
                stage: "gateway".to_string(),
                reason: "no report written (gateway died before assembling it)".to_string(),
            })?;
        let events_csv = std::fs::read_to_string(&events_path).unwrap_or_default();
        return Ok(ProcsOutcome {
            report_csv,
            events_csv,
            degraded,
        });
    }

    let mut children = Vec::new();
    for i in 0..STAGE_NAMES.len() {
        let child = spawn_stage_child(bin, &dir, cfg, i, false, &report_path, &events_path)?;
        children.push((i, child, None::<std::process::ExitStatus>));
    }

    let mut degraded = Vec::new();
    let mut kill_pending = kill_plan;
    let hard_deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if let Some(k) = kill_pending {
            if let Some(idx) = STAGE_NAMES.iter().position(|n| *n == k.stage) {
                if objs.ctl.processed(idx) >= k.after_processed {
                    shm::send_signal(children[idx].1.id(), shm::SIGTERM);
                    kill_pending = None;
                }
            } else {
                kill_pending = None;
            }
        }
        let mut all_done = true;
        for (i, child, status) in children.iter_mut() {
            if status.is_some() {
                continue;
            }
            match child.try_wait() {
                Ok(Some(st)) => {
                    *status = Some(st);
                    if !st.success() || !objs.ctl.done(*i) {
                        degraded.push(STAGE_NAMES[*i].to_string());
                        objs.ctl.request_stop();
                        // A stage that died abruptly (chaos kill, abort)
                        // never closed its output ring — close it here so
                        // its consumer drains out instead of waiting.
                        if *i < 3 {
                            objs.rings[*i].close();
                        }
                    }
                }
                Ok(None) => all_done = false,
                Err(_) => {
                    *status = Some(std::process::ExitStatus::default());
                }
            }
        }
        if all_done {
            break;
        }
        if Instant::now() > hard_deadline {
            objs.ctl.request_stop();
            for (_, child, status) in children.iter_mut() {
                if status.is_none() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let report_csv = std::fs::read_to_string(&report_path).map_err(|_| RuntimeError::Stage {
        stage: "gateway".to_string(),
        reason: "no report written (gateway died before assembling it)".to_string(),
    })?;
    let events_csv = std::fs::read_to_string(&events_path).unwrap_or_default();
    Ok(ProcsOutcome {
        report_csv,
        events_csv,
        degraded,
    })
}

fn child_flags(cfg: &RuntimeConfig) -> Vec<String> {
    let mut flags = vec![
        "--model".to_string(),
        cfg.model.name().to_string(),
        "--device".to_string(),
        cfg.device.name().to_string(),
        "--ring-capacity".to_string(),
        cfg.ring_capacity.to_string(),
        "--seed".to_string(),
        cfg.seed.to_string(),
        "--capture-ns".to_string(),
        cfg.capture_ns_per_elem.to_string(),
        "--preprocess-ns".to_string(),
        cfg.preprocess_ns_per_elem.to_string(),
        "--flip-rate".to_string(),
        cfg.ipc_flip_rate.to_string(),
    ];
    if cfg.policy == DropPolicy::DropOldest {
        flags.push("--drop-oldest".to_string());
    }
    if let Some(s) = &cfg.sentry {
        flags.push("--sentry".to_string());
        flags.push("--sentry-cooldown".to_string());
        flags.push(s.cooldown.to_string());
        flags.push("--sentry-recall".to_string());
        flags.push(s.standby_recall.to_string());
    }
    if cfg.exec == ExecMode::Real {
        flags.push("--exec".to_string());
        flags.push("real".to_string());
    }
    if cfg.pace {
        flags.push("--pace".to_string());
    }
    if let Some(sup) = &cfg.supervise {
        flags.push("--supervise".to_string());
        flags.push("--restart-budget".to_string());
        flags.push(sup.restart_budget.to_string());
        flags.push("--heartbeat-ms".to_string());
        flags.push(sup.heartbeat_ms.to_string());
    }
    if let Some(plan) = &cfg.chaos {
        if !plan.is_empty() {
            flags.push("--chaos".to_string());
            flags.push(plan.to_spec());
        }
    }
    flags
}

extern "C" {
    fn signal(signum: std::ffi::c_int, handler: extern "C" fn(std::ffi::c_int)) -> usize;
}

extern "C" fn on_sigterm(_sig: std::ffi::c_int) {
    stage::raise_local_stop();
}

/// Entry point for an `edgebench-cli runtime --stage <name>` child process:
/// attach the shared objects under `dir`, read the stage costs the parent
/// published in the control block (a child never re-derives them from the
/// fleet model), install a SIGTERM handler that drains gracefully, and run
/// the named stage (or, with `sink`, its drain-and-account body for a
/// budget-exhausted stage). The gateway stage assembles the report and
/// writes it (and the event log) to the given paths. A chaos-killed stage
/// exits abruptly without closing its rings so the supervisor's
/// replacement can reattach.
///
/// # Errors
///
/// [`RuntimeError`] on unknown stage name, attach failure (including a
/// control block of another version), or a typed stage failure (e.g.
/// executor build/run rejection).
pub fn run_stage(
    name: &str,
    dir: &Path,
    cfg: &RuntimeConfig,
    sink: bool,
    out: Option<&Path>,
    events_out: Option<&Path>,
) -> Result<(), RuntimeError> {
    unsafe {
        signal(shm::SIGTERM, on_sigterm);
    }
    let objs = attach_objects(dir)?;
    let (rings, ctl) = (&objs.rings, &objs.ctl);
    let costs = ctl.stage_costs(cfg.model)?;
    match name {
        "capture" => {
            let trace =
                TraceFile::read_from(&dir.join(TRACE_FILE)).map_err(|e| RuntimeError::Trace {
                    reason: e.to_string(),
                })?;
            let _close = stage::CloseOnDrop {
                ring: &rings[0],
                ctl,
            };
            let exit = if sink {
                stage::run_capture_sink(ctl, &trace)
            } else {
                stage::run_capture(cfg, &costs, ctl, &trace, &rings[0], true)
            };
            supervise::finish_child(name, exit)
        }
        "preprocess" => {
            let _close = stage::CloseOnDrop {
                ring: &rings[1],
                ctl,
            };
            let exit = if sink {
                stage::run_consumer_sink(1, ctl, &rings[0])
            } else {
                stage::run_preprocess(cfg, &costs, ctl, &rings[0], &rings[1], true)
            };
            supervise::finish_child(name, exit)
        }
        "inference" => {
            let _close = stage::CloseOnDrop {
                ring: &rings[2],
                ctl,
            };
            let exit = if sink {
                stage::run_consumer_sink(2, ctl, &rings[1])
            } else {
                stage::run_inference(cfg, &costs, ctl, &rings[1], &rings[2], true)
            };
            supervise::finish_child(name, exit)
        }
        "gateway" => {
            let exit = if sink {
                stage::run_consumer_sink(3, ctl, &rings[2])
            } else {
                stage::run_gateway(cfg, ctl, &rings[2], true)
            };
            supervise::finish_child(name, exit)?;
            let report = assemble_report("procs", cfg, ctl, rings, &[]);
            if let Some(path) = out {
                std::fs::write(path, report.to_csv()).map_err(|e| RuntimeError::Io {
                    reason: format!("write {}: {e}", path.display()),
                })?;
            }
            if let Some(path) = events_out {
                std::fs::write(path, report.event_log().to_csv()).map_err(|e| {
                    RuntimeError::Io {
                        reason: format!("write {}: {e}", path.display()),
                    }
                })?;
            }
            Ok(())
        }
        other => Err(RuntimeError::Stage {
            stage: other.to_string(),
            reason: "unknown stage (expected capture|preprocess|inference|gateway)".to_string(),
        }),
    }
}
