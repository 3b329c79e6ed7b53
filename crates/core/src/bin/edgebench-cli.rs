//! Command-line runner for the experiment registry.
//!
//! ```text
//! edgebench-cli list                  # list experiment ids
//! edgebench-cli run fig7              # run one experiment
//! edgebench-cli run all               # run every experiment (default)
//! edgebench-cli run all --jobs 4      # ... on 4 worker threads
//! edgebench-cli run all --jobs 0      # ... on all available cores
//! edgebench-cli summary resnet-50     # keras-style layer table for a model
//! edgebench-cli dot mobilenet-v2      # graphviz DOT of a model
//! edgebench-cli csv fig7              # one experiment as CSV
//! edgebench-cli infer --model cifarnet --batch 8 --threads 4
//!                                     # real tensor inference on the CPU backend
//! edgebench-cli resilience --dropout 0.002 --frames 300
//!                                     # fault-injected pipeline run
//! edgebench-cli resilience --seed 7 --link-loss 0.02 --events
//!                                     # ... printing the replayable event log
//! edgebench-cli serve --devices rpi3,jetson-nano,jetson-tx2 --rate 60
//!                                     # fleet serving simulation
//! edgebench-cli serve --policy rr --batch-max 1 --trace burst --csv
//!                                     # ... as byte-stable CSV
//! edgebench-cli serve --straggler 0.05,6 --hedge-ms 2 --retry-budget 10 \
//!     --breaker --ladder --events     # full resilience layer + event log
//! edgebench-cli geo --requests 10000 --jobs 4
//!                                     # multi-region diurnal serving with
//!                                     # autoscaling, WAN spillover, carbon
//! edgebench-cli geo --no-autoscale --csv
//!                                     # ... always-on fleet, as CSV
//! edgebench-cli runtime --frames 300 --rate 60 --sentry
//!                                     # zero-copy pipeline loopback, sentry mode
//! edgebench-cli runtime --procs --ring-capacity 4 --drop-oldest
//!                                     # capture/preprocess/inference/gateway as
//!                                     # four OS processes over mmap rings
//! ```
//!
//! Reports are printed in registry order for every `--jobs` value; the flag
//! only changes wall-clock time, never output. The `resilience` and `serve`
//! commands are seed-deterministic: identical flags replay identical runs.
//!
//! Each command's flags are one declarative table of [`Flag`] rows, walked
//! by the single parser [`walk`]; the usage lines are generated from the
//! same tables. Argument errors are typed ([`CliError`]): every malformed
//! invocation prints what was wrong plus the command's usage line and exits
//! non-zero.

use edgebench::experiments;
use edgebench::runtime::{
    self, DropPolicy, ExecMode, RuntimeConfig, SentryConfig, SuperviseConfig,
};
use edgebench::serve::{
    geo, BreakerConfig, Fleet, ReplicaSpec, RetryBudgetConfig, RoutePolicy, ServeConfig, TraceFile,
    Traffic,
};
use edgebench_devices::faults::{
    ChaosPlan, FaultProfile, MemoryFaultModel, ResilientPipeline, RetryPolicy,
};
use edgebench_devices::offload::Link;
use edgebench_devices::Device;
use edgebench_graph::viz;
use edgebench_measure::EventLog;
use edgebench_models::Model;
use edgebench_tensor::{
    ExecError, Executor, GuardConfig, GuardedExecutor, KernelKind, Precision, PreparedExecutor,
    Tensor,
};
use std::env;
use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// A typed CLI argument error. Rendering one tells the user what was
/// wrong with which flag; the command wrapper appends its usage line and
/// the process exits non-zero.
#[derive(Debug, Clone, PartialEq)]
enum CliError {
    /// A flag that needs a value was last on the line.
    MissingValue {
        /// The flag, e.g. `--rate`.
        flag: String,
    },
    /// A flag value failed to parse or was out of range.
    Invalid {
        /// The flag, e.g. `--dropout`.
        flag: String,
        /// The offending value as typed.
        value: String,
        /// What the flag expects, e.g. `a probability in [0, 1]`.
        expect: &'static str,
    },
    /// A flag the command does not know.
    UnknownFlag {
        /// The subcommand, e.g. `serve`.
        command: &'static str,
        /// The unknown flag as typed.
        flag: String,
    },
    /// Two flags (or a flag and a default) that contradict each other.
    Conflict {
        /// Human-readable description of the contradiction.
        message: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue { flag } => write!(f, "{flag} expects a value"),
            CliError::Invalid {
                flag,
                value,
                expect,
            } => write!(f, "{flag} got '{value}', expected {expect}"),
            CliError::UnknownFlag { command, flag } => {
                write!(f, "unknown {command} flag '{flag}'")
            }
            CliError::Conflict { message } => write!(f, "{message}"),
        }
    }
}

impl CliError {
    fn invalid(flag: &str, value: &str, expect: &'static str) -> CliError {
        CliError::Invalid {
            flag: flag.to_string(),
            value: value.to_string(),
            expect,
        }
    }
}

/// One flag occurrence handed to a table setter: the flag (or operand
/// placeholder) as named in the table, and the value as typed.
#[derive(Clone, Copy)]
struct Val<'a> {
    flag: &'a str,
    value: &'a str,
}

/// The value parsers every table shares. Each rejects what its flag
/// cannot mean with [`CliError::Invalid`]; the float parsers also reject
/// `nan`, `inf` and `-inf`.
impl<'a> Val<'a> {
    fn invalid(self, expect: &'static str) -> CliError {
        CliError::invalid(self.flag, self.value, expect)
    }

    fn count<T: FromStr>(self) -> Result<T, CliError> {
        self.value
            .parse()
            .map_err(|_| self.invalid("a non-negative integer"))
    }

    /// A count of at least one (`T::default()` is zero for every count type).
    fn positive<T: FromStr + Default + PartialEq>(self) -> Result<T, CliError> {
        match self.value.parse() {
            Ok(n) if n != T::default() => Ok(n),
            _ => Err(self.invalid("a positive integer")),
        }
    }

    fn seed(self) -> Result<u64, CliError> {
        self.value
            .parse()
            .map_err(|_| self.invalid("an integer seed"))
    }

    /// A finite float that `ok` accepts.
    fn float(self, expect: &'static str, ok: fn(f64) -> bool) -> Result<f64, CliError> {
        match self.value.parse() {
            Ok(x) if f64::is_finite(x) && ok(x) => Ok(x),
            _ => Err(self.invalid(expect)),
        }
    }

    fn pos_f64(self) -> Result<f64, CliError> {
        self.float("a finite number > 0", |x| x > 0.0)
    }

    fn nonneg_f64(self) -> Result<f64, CliError> {
        self.float("a finite number >= 0", |x| x >= 0.0)
    }

    fn prob(self) -> Result<f64, CliError> {
        self.float("a probability in [0, 1]", |p| (0.0..=1.0).contains(&p))
    }

    /// A name that `lookup` resolves.
    fn named<T>(
        self,
        lookup: impl FnOnce(&'a str) -> Option<T>,
        expect: &'static str,
    ) -> Result<T, CliError> {
        lookup(self.value).ok_or_else(|| self.invalid(expect))
    }

    fn model(self) -> Result<Model, CliError> {
        let expect = "a known model (see `edgebench-cli summary`)";
        self.named(Model::from_name, expect)
    }

    fn device(self) -> Result<Device, CliError> {
        self.named(Device::from_name, "a known device")
    }

    /// A traffic trace kind, kept by name: the trace itself is built once
    /// the rate and seed are known.
    fn trace(self) -> Result<String, CliError> {
        let known = |s: &str| Traffic::from_flag(s, 1.0, 0).map(|_| s.to_string());
        self.named(known, "one of steady, poisson, diurnal, burst")
    }

    fn path(self) -> Result<PathBuf, CliError> {
        let non_empty = |s: &str| (!s.is_empty()).then(|| PathBuf::from(s));
        self.named(non_empty, "a non-empty path")
    }
}

/// A setter that parses one value into a command's run struct.
type Set<R> = fn(&mut R, Val<'_>) -> Result<(), CliError>;

/// How a table row consumes argv: a bare switch, or a flag followed by a
/// value (the `&str` is its metavar in the usage line).
enum Setter<R> {
    Switch(fn(&mut R)),
    Value(&'static str, Set<R>),
}

/// One row of a command's flag table.
struct Flag<R> {
    name: &'static str,
    set: Setter<R>,
}

const fn switch<R>(name: &'static str, set: fn(&mut R)) -> Flag<R> {
    Flag {
        name,
        set: Setter::Switch(set),
    }
}

const fn value<R>(name: &'static str, metavar: &'static str, set: Set<R>) -> Flag<R> {
    Flag {
        name,
        set: Setter::Value(metavar, set),
    }
}

/// A command: its flag table, the setter for its operand (a token that is
/// not a flag; `None` when it takes none), and the cross-flag rules checked
/// once every flag is in.
struct Command<R: 'static> {
    name: &'static str,
    operand: Option<(&'static str, Set<R>)>,
    flags: &'static [Flag<R>],
    validate: fn(&mut R) -> Result<(), CliError>,
}

/// The one argv walker. Applies each `--flag`, `--flag value` or
/// `--flag=value` in `args` to `run` through `cmd`'s table, and each
/// operand through `cmd.operand`. A command without an operand stops at
/// the first one; the tokens from there on are returned.
fn walk<'a, R>(
    cmd: &Command<R>,
    run: &mut R,
    mut args: &'a [String],
) -> Result<&'a [String], CliError> {
    while let Some((token, mut rest)) = args.split_first() {
        let unknown = || CliError::UnknownFlag {
            command: cmd.name,
            flag: token.clone(),
        };
        if !token.starts_with('-') {
            let Some((flag, set)) = cmd.operand else {
                break;
            };
            set(run, Val { flag, value: token })?;
        } else {
            let (flag, inline) = match token.split_once('=') {
                Some((flag, value)) => (flag, Some(value)),
                None => (token.as_str(), None),
            };
            let row = cmd
                .flags
                .iter()
                .find(|f| f.name == flag)
                .ok_or_else(unknown)?;
            match (&row.set, inline) {
                (Setter::Switch(set), None) => set(run),
                (Setter::Switch(_), Some(_)) => return Err(unknown()),
                (Setter::Value(_, set), Some(value)) => set(run, Val { flag, value })?,
                (Setter::Value(_, set), None) => {
                    let missing = || CliError::MissingValue {
                        flag: flag.to_string(),
                    };
                    let (value, tail) = rest.split_first().ok_or_else(missing)?;
                    rest = tail;
                    set(run, Val { flag, value })?;
                }
            }
        }
        args = rest;
    }
    Ok(args)
}

/// Parses a command's whole argument list into a fresh run struct, then
/// applies the command's cross-flag rules.
fn parse<R: Default>(cmd: &Command<R>, args: &[String]) -> Result<R, CliError> {
    let mut run = R::default();
    if let Some(extra) = walk(cmd, &mut run, args)?.first() {
        return Err(CliError::UnknownFlag {
            command: cmd.name,
            flag: extra.clone(),
        });
    }
    (cmd.validate)(&mut run)?;
    Ok(run)
}

/// `cmd`'s usage line, generated from its table (in table order).
fn usage<R>(cmd: &Command<R>) -> String {
    let mut line = format!("edgebench-cli {}", cmd.name);
    if let Some((metavar, _)) = cmd.operand {
        line += &format!(" [{metavar}]");
    }
    for flag in cmd.flags {
        line += &match flag.set {
            Setter::Switch(_) => format!(" [{}]", flag.name),
            Setter::Value(metavar, _) => format!(" [{} {metavar}]", flag.name),
        };
    }
    line
}

/// The first broken cross-flag rule, as a [`CliError::Conflict`].
fn conflicts(rules: &[(bool, &str)]) -> Result<(), CliError> {
    match rules.iter().find(|(broken, _)| *broken) {
        Some((_, message)) => Err(CliError::Conflict {
            message: message.to_string(),
        }),
        None => Ok(()),
    }
}

fn no_rules<R>(_: &mut R) -> Result<(), CliError> {
    Ok(())
}

fn with_model(name: Option<&str>, f: impl Fn(&edgebench_graph::Graph) -> String) -> ExitCode {
    match name.and_then(Model::from_name) {
        Some(m) => {
            print!("{}", f(&m.build()));
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown model; one of:");
            for m in Model::all() {
                eprintln!("  {m}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Everything the `resilience` subcommand needs to run, parsed and
/// validated.
#[derive(Debug, PartialEq)]
struct ResilienceRun {
    model: Model,
    device: Device,
    stages: usize,
    frames: usize,
    seed: u64,
    dropout: f64,
    link_loss: f64,
    thermal: bool,
    policy: RetryPolicy,
    show_events: bool,
}

impl Default for ResilienceRun {
    fn default() -> ResilienceRun {
        ResilienceRun {
            model: Model::MobileNetV2,
            device: Device::RaspberryPi3,
            stages: 4,
            frames: 300,
            seed: 42,
            dropout: 0.0,
            link_loss: 0.0,
            thermal: false,
            policy: RetryPolicy::default(),
            show_events: false,
        }
    }
}

#[rustfmt::skip]
const RESILIENCE: Command<ResilienceRun> = Command {
    name: "resilience",
    operand: None,
    flags: &[
        value("--model", "M", |r, v| v.model().map(|m| r.model = m)),
        value("--device", "D", |r, v| v.device().map(|d| r.device = d)),
        value("--stages", "N", |r, v| v.positive().map(|n| r.stages = n)),
        value("--frames", "N", |r, v| v.count().map(|n| r.frames = n)),
        value("--seed", "S", |r, v| v.seed().map(|s| r.seed = s)),
        value("--dropout", "P", |r, v| v.prob().map(|p| r.dropout = p)),
        value("--link-loss", "P", |r, v| v.prob().map(|p| r.link_loss = p)),
        switch("--thermal", |r| r.thermal = true),
        switch("--no-repartition", |r| r.policy = r.policy.without_repartition()),
        switch("--events", |r| r.show_events = true),
    ],
    validate: no_rules,
};

/// Runs one fault-injected pipeline simulation from parsed flags.
fn run_resilience(run: ResilienceRun) -> ExitCode {
    let lan = Link {
        uplink_mbps: 90.0,
        downlink_mbps: 90.0,
        rtt_s: 0.002,
    };
    let profile = FaultProfile::none(run.seed)
        .with_device_dropout(run.dropout)
        .with_link_loss(run.link_loss)
        .with_thermal(run.thermal);
    let g = run.model.build();
    let rep = match ResilientPipeline::new(&g, run.device, lan, run.stages, profile)
        .with_policy(run.policy)
        .run(run.frames)
    {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!(
                "cannot plan {} over {}x {}: {e}",
                run.model,
                run.stages,
                run.device.name()
            );
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} over {}x {} | seed {} | dropout {} | link-loss {}{}{}",
        run.model,
        run.stages,
        run.device.name(),
        run.seed,
        run.dropout,
        run.link_loss,
        if run.thermal { " | thermal" } else { "" },
        if run.policy.repartition {
            ""
        } else {
            " | fail-stop"
        },
    );
    println!(
        "frames: {}/{} completed, {} dropped | throughput {:.2} fps | mean latency {:.1} ms",
        rep.frames_completed,
        rep.frames_attempted,
        rep.frames_dropped,
        rep.throughput_fps(),
        rep.mean_latency_s * 1e3,
    );
    println!(
        "devices lost: {} | repartitions: {} | retries: {} | mean recovery {:.1} ms | final stages: {}",
        rep.devices_lost,
        rep.repartitions,
        rep.retries,
        rep.mean_recovery_s() * 1e3,
        rep.final_stages,
    );
    if run.show_events {
        print!("{}", EventLog::from_fault_events(&rep.events).to_csv());
    }
    ExitCode::SUCCESS
}

/// Everything the `infer` subcommand needs to run, parsed and validated.
#[derive(Debug, PartialEq)]
struct InferRun {
    model: Model,
    batch: usize,
    threads: usize,
    precision: Precision,
    iters: usize,
    seed: u64,
    sparsity: f32,
    kernel: KernelKind,
    /// Seeded bit-flip rate, flips per byte per inference (0 = off).
    flip_rate: f64,
    /// Seed of the bit-flip campaign's fault streams.
    flip_seed: u64,
    /// Arm the integrity guards (checksum scrubbing, activation
    /// envelopes, retry-once recovery).
    guards: bool,
}

impl Default for InferRun {
    fn default() -> InferRun {
        InferRun {
            model: Model::CifarNet,
            batch: 1,
            threads: 1,
            precision: Precision::F32,
            iters: 10,
            seed: 42,
            sparsity: 0.0,
            kernel: KernelKind::Auto,
            flip_rate: 0.0,
            flip_seed: 0x5dc,
            guards: false,
        }
    }
}

#[rustfmt::skip]
const INFER: Command<InferRun> = Command {
    name: "infer",
    operand: None,
    flags: &[
        value("--model", "M", |r, v| v.model().map(|m| r.model = m)),
        value("--batch", "N", |r, v| v.positive().map(|n| r.batch = n)),
        value("--threads", "N", |r, v| v.count().map(|n| r.threads = n)),
        value("--precision", "f32|f16|int8", |r, v| {
            let precision = |s| match s {
                "f32" => Some(Precision::F32),
                "f16" => Some(Precision::F16),
                "int8" => Some(Precision::Int8),
                _ => None,
            };
            v.named(precision, "one of f32, f16, int8").map(|p| r.precision = p)
        }),
        value("--iters", "N", |r, v| v.positive().map(|n| r.iters = n)),
        value("--seed", "S", |r, v| v.seed().map(|s| r.seed = s)),
        value("--sparsity", "P", |r, v| v.prob().map(|p| r.sparsity = p as f32)),
        value("--kernel", "auto|scalar|simd", |r, v| {
            v.named(KernelKind::from_name, "one of auto, scalar, simd").map(|k| r.kernel = k)
        }),
        value("--flip-rate", "P", |r, v| v.prob().map(|p| r.flip_rate = p)),
        value("--flip-seed", "S", |r, v| v.seed().map(|s| r.flip_seed = s)),
        switch("--guards", |r| r.guards = true),
    ],
    validate: no_rules,
};

/// Runs real tensor inference on the CPU backend and reports throughput.
///
/// One warmup pass populates the prepared executor's arena; the timed
/// passes then run allocation-free. The output digest is printed so users
/// can confirm that `--threads` and `--kernel` never change a single
/// output byte, and so a corrupted run (`--flip-rate` > 0, no guards) has
/// a clean baseline to diff against.
fn run_infer(run: InferRun) -> ExitCode {
    let g = match run.model.build().with_batch(run.batch) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot rebatch {} to {}: {e}", run.model, run.batch);
            return ExitCode::FAILURE;
        }
    };
    let input_id = g.input_ids()[0];
    let x = Tensor::random(g.node(input_id).output_shape().clone(), run.seed ^ 1);
    let exec = Executor::new(&g)
        .with_seed(run.seed)
        .with_precision(run.precision)
        .with_weight_sparsity(run.sparsity)
        .with_intra_op_threads(run.threads)
        .with_kernel(run.kernel)
        .prepare();
    let exec = match exec {
        Ok(e) => e,
        Err(e) => {
            eprintln!("prepare failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if run.flip_rate > 0.0 || run.guards {
        return run_infer_sdc(&run, exec, &x);
    }
    let (out, stats) = match exec.run_with_stats(&x) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("inference failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t0 = std::time::Instant::now();
    for _ in 0..run.iters {
        if let Err(e) = exec.run(&x) {
            eprintln!("inference failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let elapsed = t0.elapsed();
    let per_iter = elapsed.as_secs_f64() / run.iters as f64;
    let checksum = edgebench_tensor::integrity::checksum_f32(out.data());
    println!(
        "{} | batch {} | {:?} | {} intra-op thread(s) | sparsity {} | kernel {}",
        run.model,
        run.batch,
        run.precision,
        edgebench_tensor::pool::effective_threads(run.threads),
        run.sparsity,
        edgebench_tensor::simd::resolve(run.kernel).name(),
    );
    println!(
        "latency {:.3} ms/batch | throughput {:.1} img/s | peak live {:.1} KiB | {} ops",
        per_iter * 1e3,
        run.batch as f64 / per_iter,
        stats.peak_live_bytes as f64 / 1024.0,
        stats.ops_executed,
    );
    println!("output checksum {checksum:016x}");
    ExitCode::SUCCESS
}

/// Flips seeded activation bits in `t` for `(iteration, attempt, node)`.
/// Activation regions live at `(1 << 32) + node` so their draws are
/// disjoint from the weight regions (bare node index).
fn flip_activation_bits(
    model: &MemoryFaultModel,
    iteration: u64,
    attempt: u32,
    node: usize,
    t: &mut Tensor,
    count: &mut u64,
) {
    let exposure = iteration * 2 + attempt as u64;
    for flip in model.flips((1 << 32) + node as u64, exposure, t.data().len()) {
        let word = t.data()[flip.element].to_bits() ^ (1u32 << flip.bit);
        t.data_mut()[flip.element] = f32::from_bits(word);
        *count += 1;
    }
}

/// Runs the seeded bit-flip campaign behind `infer --flip-rate`: weight
/// flips persist across iterations (repaired only when `--guards` arms
/// the scrubbing), activation flips are transient. Every printed count is
/// a pure function of the flags, so identical invocations replay
/// identical campaigns.
fn run_infer_sdc(run: &InferRun, exec: PreparedExecutor<'_>, x: &Tensor) -> ExitCode {
    let wf = MemoryFaultModel::new(run.flip_seed, run.flip_rate);
    let af = MemoryFaultModel::new(run.flip_seed ^ 0xa5a5, run.flip_rate);
    let mut weight_flips = 0u64;
    let mut act_flips = 0u64;
    println!(
        "{} | batch {} | {:?} | flip rate {:e}/byte/inference | seed {} | guards {}",
        run.model,
        run.batch,
        run.precision,
        run.flip_rate,
        run.flip_seed,
        if run.guards { "on" } else { "off" },
    );
    if run.guards {
        let mut guard = GuardedExecutor::new(exec, GuardConfig::default());
        let cal: Vec<Tensor> = (0..2)
            .map(|i| Tensor::random(x.shape().clone(), run.seed ^ (0x100 + i)))
            .collect();
        let cal_refs: Vec<&Tensor> = cal.iter().collect();
        if let Err(e) = guard.calibrate(&cal_refs) {
            eprintln!("calibration failed: {e}");
            return ExitCode::FAILURE;
        }
        let t0 = std::time::Instant::now();
        let (mut served, mut refused) = (0u64, 0u64);
        for i in 0..run.iters {
            for node in 0..guard.inner().node_count() {
                for flip in wf.flips(node as u64, i as u64, guard.inner().param_elems(node)) {
                    if guard
                        .inner_mut()
                        .corrupt_param_bit(node, flip.element, flip.bit)
                    {
                        weight_flips += 1;
                    }
                }
            }
            let counter = &mut act_flips;
            let res = guard.run_injected(x, &mut |attempt, node, t| {
                flip_activation_bits(&af, i as u64, attempt, node, t, counter)
            });
            match res {
                Ok(_) => served += 1,
                Err(ExecError::Corrupted { .. }) => refused += 1,
                Err(e) => {
                    eprintln!("inference failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let per_iter = t0.elapsed().as_secs_f64() / run.iters as f64;
        let s = guard.stats();
        println!(
            "latency {:.3} ms/batch | flips injected: {weight_flips} weight, {act_flips} activation",
            per_iter * 1e3,
        );
        println!(
            "served {served} | refused {refused} | scrubs {} | checksum mismatches {} | \
             repairs {} ({} bytes rewritten) | guard trips {} | retries {} | recovered {}",
            s.scrubs,
            s.checksum_mismatches,
            s.repairs,
            s.repaired_bytes,
            s.guard_trips,
            s.retries,
            s.recovered,
        );
    } else {
        let mut exec = exec;
        let t0 = std::time::Instant::now();
        let mut checksum = 0u64;
        for i in 0..run.iters {
            for node in 0..exec.node_count() {
                for flip in wf.flips(node as u64, i as u64, exec.param_elems(node)) {
                    if exec.corrupt_param_bit(node, flip.element, flip.bit) {
                        weight_flips += 1;
                    }
                }
            }
            let counter = &mut act_flips;
            let res = exec.run_observed(x, &mut |node, t| {
                flip_activation_bits(&af, i as u64, 0, node, t, counter);
                Ok(())
            });
            match res {
                Ok((out, _)) => checksum = edgebench_tensor::integrity::checksum_f32(out.data()),
                Err(e) => {
                    eprintln!("inference failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let per_iter = t0.elapsed().as_secs_f64() / run.iters as f64;
        println!(
            "latency {:.3} ms/batch | flips injected: {weight_flips} weight, {act_flips} activation",
            per_iter * 1e3,
        );
        println!(
            "final output checksum {checksum:016x} (corruption accumulates unrepaired; \
             compare against --flip-rate 0)"
        );
    }
    ExitCode::SUCCESS
}

/// Everything the `serve` subcommand needs to run, parsed and validated.
#[derive(Debug, PartialEq)]
struct ServeRun {
    model: Model,
    devices: Vec<Device>,
    replicas: usize,
    rate_hz: f64,
    trace: String,
    frames: usize,
    csv: bool,
    show_events: bool,
    cfg: ServeConfig,
    /// `--batch-delay-ms` was given; it conflicts with `--batch-max 1`.
    batch_delay_set: bool,
}

impl Default for ServeRun {
    fn default() -> ServeRun {
        ServeRun {
            model: Model::MobileNetV2,
            devices: vec![Device::RaspberryPi3, Device::JetsonNano, Device::JetsonTx2],
            replicas: 1,
            rate_hz: 30.0,
            trace: "poisson".to_string(),
            frames: 2000,
            csv: false,
            show_events: false,
            cfg: ServeConfig::new(100.0),
            batch_delay_set: false,
        }
    }
}

#[rustfmt::skip]
const SERVE: Command<ServeRun> = Command {
    name: "serve",
    operand: None,
    flags: &[
        value("--model", "M", |r, v| v.model().map(|m| r.model = m)),
        value("--devices", "D1,D2,..", |r, v| {
            let devices = |s: &str| s.split(',').map(Device::from_name).collect();
            v.named(devices, "a comma-separated list of known devices").map(|d| r.devices = d)
        }),
        value("--replicas", "N", |r, v| v.positive().map(|n| r.replicas = n)),
        value("--rate", "HZ", |r, v| v.pos_f64().map(|x| r.rate_hz = x)),
        value("--trace", "steady|poisson|diurnal|burst", |r, v| v.trace().map(|t| r.trace = t)),
        value("--slo-ms", "MS", |r, v| v.pos_f64().map(|x| r.cfg.slo_ms = x)),
        value("--batch-max", "N", |r, v| v.positive().map(|n| r.cfg.batch_max = n)),
        value("--batch-delay-ms", "MS", |r, v| {
            r.batch_delay_set = true;
            v.nonneg_f64().map(|x| r.cfg.batch_delay_ms = x)
        }),
        value("--policy", "rr|jsq|lel", |r, v| {
            v.named(RoutePolicy::from_name, "one of rr, jsq, lel").map(|p| r.cfg.policy = p)
        }),
        value("--seed", "S", |r, v| v.seed().map(|s| r.cfg.seed = s)),
        value("--frames", "N", |r, v| v.positive().map(|n| r.frames = n)),
        value("--dropout", "P", |r, v| v.prob().map(|p| r.cfg.replica_dropout = p)),
        switch("--thermal", |r| r.cfg.thermal = true),
        value("--power-scale", "X", |r, v| v.nonneg_f64().map(|x| r.cfg.power_scale = x)),
        switch("--no-admission", |r| r.cfg.admission = false),
        value("--straggler", "P,FACTOR", |r, v| {
            let expect = "P,FACTOR (probability, inflation >= 1)";
            let (p, factor) = v.value.split_once(',').ok_or_else(|| v.invalid(expect))?;
            let p = Val { value: p, ..v }.prob()?;
            let factor = Val { value: factor, ..v }.float(expect, |f| f >= 1.0)?;
            r.cfg = r.cfg.with_straggler(p, factor);
            Ok(())
        }),
        value("--loss", "P", |r, v| v.prob().map(|p| r.cfg = r.cfg.with_loss(p))),
        value("--hedge-ms", "MS", |r, v| v.nonneg_f64().map(|x| r.cfg = r.cfg.with_hedge_ms(x))),
        value("--retry-budget", "TOKENS", |r, v| {
            let initial_tokens = v.pos_f64()?;
            let budget = RetryBudgetConfig { initial_tokens, ..RetryBudgetConfig::default() };
            r.cfg = r.cfg.with_retry_budget(budget);
            Ok(())
        }),
        switch("--breaker", |r| r.cfg = r.cfg.with_breaker(BreakerConfig::default())),
        switch("--ladder", |r| r.cfg = r.cfg.with_ladder(true)),
        value("--sdc", "P", |r, v| v.prob().map(|p| r.cfg = r.cfg.with_sdc(p))),
        switch("--no-sdc-guards", |r| r.cfg = r.cfg.with_sdc_guards(false)),
        switch("--events", |r| r.show_events = true),
        switch("--csv", |r| r.csv = true),
    ],
    validate: |r| conflicts(&[(
        r.batch_delay_set && r.cfg.batch_max <= 1,
        "--batch-delay-ms has no effect with --batch-max 1 (batching is off)",
    )]),
};

/// Runs one fleet serving simulation from parsed flags.
fn run_serve(run: ServeRun) -> ExitCode {
    let traffic = Traffic::from_flag(&run.trace, run.rate_hz, run.cfg.seed)
        .expect("trace validated at parse time");
    let mut specs = Vec::new();
    for &device in &run.devices {
        let Some(spec) = ReplicaSpec::best_for(run.model, device) else {
            eprintln!(
                "{} has no feasible framework on {}",
                run.model,
                device.name()
            );
            return ExitCode::FAILURE;
        };
        specs.extend(std::iter::repeat_n(spec, run.replicas));
    }
    let fleet = match Fleet::new(specs) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot build fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match fleet.serve(&traffic, run.frames, &run.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if run.csv {
        print!("{}", report.to_csv());
    } else {
        let title = format!(
            "serve: {} x{} | {} trace @ {} req/s | SLO {} ms",
            run.model,
            fleet.len(),
            traffic.kind(),
            run.rate_hz,
            run.cfg.slo_ms,
        );
        println!("{}", report.to_report(title).to_table_string());
        println!("{}", report.replica_report("replicas").to_table_string());
    }
    if run.show_events {
        print!("{}", report.events_csv());
    }
    ExitCode::SUCCESS
}

/// Everything the `geo` subcommand needs to run, parsed and validated.
#[derive(Debug, PartialEq)]
struct GeoRun {
    cfg: geo::GeoConfig,
    requests: usize,
    jobs: usize,
    csv: bool,
}

impl Default for GeoRun {
    fn default() -> GeoRun {
        GeoRun {
            cfg: geo::GeoConfig::new(100.0),
            requests: 8000,
            jobs: 1,
            csv: false,
        }
    }
}

#[rustfmt::skip]
const GEO: Command<GeoRun> = Command {
    name: "geo",
    operand: None,
    flags: &[
        value("--model", "M", |r, v| v.model().map(|m| r.cfg.model = m)),
        value("--slo-ms", "MS", |r, v| v.pos_f64().map(|x| r.cfg.slo_ms = x)),
        value("--requests", "N", |r, v| v.positive().map(|n| r.requests = n)),
        value("--base-hz", "HZ", |r, v| v.pos_f64().map(|x| r.cfg.base_hz = x)),
        value("--peak-hz", "HZ", |r, v| v.pos_f64().map(|x| r.cfg.peak_hz = x)),
        value("--period-s", "S", |r, v| v.pos_f64().map(|x| r.cfg.period_s = x)),
        value("--wan-rtt-ms", "MS", |r, v| v.nonneg_f64().map(|x| r.cfg.wan_rtt_ms = x)),
        value("--import", "N", |r, v| v.count().map(|n| r.cfg.import_replicas = n)),
        value("--batch-max", "N", |r, v| v.positive().map(|n| r.cfg.batch_max = n)),
        switch("--no-autoscale", |r| r.cfg.autoscale = None),
        value("--seed", "S", |r, v| v.seed().map(|s| r.cfg.seed = s)),
        value("--jobs", "N", |r, v| v.count().map(|n| r.jobs = n)),
        switch("--csv", |r| r.csv = true),
    ],
    validate: |r| conflicts(&[(
        r.cfg.peak_hz < r.cfg.base_hz,
        "--peak-hz must be at least --base-hz",
    )]),
};

/// Runs the multi-region serving simulation from parsed flags.
fn run_geo(run: GeoRun) -> ExitCode {
    let regions = geo::default_regions(run.cfg.period_s);
    let report = match geo::run_geo(&run.cfg, &regions, run.requests, run.jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("geo failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let title = format!(
        "geo: {} | {} regions x {} reqs | {}..{} req/s over {} s | SLO {} ms | {} engine",
        run.cfg.model,
        regions.len(),
        run.requests,
        run.cfg.base_hz,
        run.cfg.peak_hz,
        run.cfg.period_s,
        run.cfg.slo_ms,
        run.cfg.engine.name(),
    );
    let rendered = report.to_report(title);
    if run.csv {
        print!("{}", rendered.to_csv());
    } else {
        println!("{}", rendered.to_table_string());
        println!(
            "fleet: {:.3} mJ/req | {:.4} mg CO2/req",
            report.energy_per_request_mj(),
            report.carbon_per_request_mg(),
        );
    }
    ExitCode::SUCCESS
}

/// Everything the `runtime` subcommand needs to run, parsed and validated.
#[derive(Debug, PartialEq)]
struct RuntimeRun {
    cfg: RuntimeConfig,
    frames: usize,
    rate_hz: f64,
    trace: String,
    hit_rate: f64,
    procs: bool,
    stage: Option<String>,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    events_out: Option<PathBuf>,
    trace_in: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    show_events: bool,
    sink: bool,
    chaos_events: Option<usize>,
    chaos_seed: Option<u64>,
    /// `--block` was given; it conflicts with `--drop-oldest`.
    block: bool,
    /// Sentry and supervision knobs, applied to `cfg` once `--sentry` /
    /// `--supervise` are known to be on.
    sentry_cooldown: Option<u32>,
    sentry_recall: Option<f64>,
    restart_budget: Option<u32>,
    heartbeat_ms: Option<u64>,
}

impl Default for RuntimeRun {
    fn default() -> RuntimeRun {
        RuntimeRun {
            cfg: RuntimeConfig::new(Model::MobileNetV2, Device::JetsonNano),
            frames: 300,
            rate_hz: 60.0,
            trace: "poisson".to_string(),
            hit_rate: 0.1,
            procs: false,
            stage: None,
            dir: None,
            out: None,
            events_out: None,
            trace_in: None,
            trace_out: None,
            show_events: false,
            sink: false,
            chaos_events: None,
            chaos_seed: None,
            block: false,
            sentry_cooldown: None,
            sentry_recall: None,
            restart_budget: None,
            heartbeat_ms: None,
        }
    }
}

#[rustfmt::skip]
const RUNTIME: Command<RuntimeRun> = Command {
    name: "runtime",
    operand: None,
    flags: &[
        value("--model", "M", |r, v| v.model().map(|m| r.cfg.model = m)),
        value("--device", "D", |r, v| v.device().map(|d| r.cfg.device = d)),
        value("--frames", "N", |r, v| v.positive().map(|n| r.frames = n)),
        value("--rate", "HZ", |r, v| v.pos_f64().map(|x| r.rate_hz = x)),
        value("--trace", "steady|poisson|diurnal|burst", |r, v| v.trace().map(|t| r.trace = t)),
        value("--hit-rate", "P", |r, v| v.prob().map(|p| r.hit_rate = p)),
        value("--seed", "S", |r, v| v.seed().map(|s| r.cfg.seed = s)),
        value("--ring-capacity", "N", |r, v| {
            let pow2 = |s: &str| s.parse().ok().filter(|n: &usize| n.is_power_of_two());
            v.named(pow2, "a power-of-two slot count >= 1").map(|n| r.cfg.ring_capacity = n)
        }),
        switch("--block", |r| r.block = true),
        switch("--drop-oldest", |r| r.cfg.policy = DropPolicy::DropOldest),
        switch("--sentry", |r| r.cfg.sentry = Some(SentryConfig::default())),
        value("--sentry-cooldown", "N", |r, v| v.positive().map(|n| r.sentry_cooldown = Some(n))),
        value("--sentry-recall", "P", |r, v| v.prob().map(|p| r.sentry_recall = Some(p))),
        value("--flip-rate", "P", |r, v| v.prob().map(|p| r.cfg.ipc_flip_rate = p)),
        value("--capture-ns", "N", |r, v| v.count().map(|n| r.cfg.capture_ns_per_elem = n)),
        value("--preprocess-ns", "N", |r, v| v.count().map(|n| r.cfg.preprocess_ns_per_elem = n)),
        value("--exec", "model|real", |r, v| {
            let mode = |s| match s {
                "model" => Some(ExecMode::Model),
                "real" => Some(ExecMode::Real),
                _ => None,
            };
            v.named(mode, "one of model, real").map(|m| r.cfg.exec = m)
        }),
        switch("--pace", |r| r.cfg.pace = true),
        switch("--supervise", |r| r.cfg.supervise = Some(SuperviseConfig::default())),
        value("--restart-budget", "N", |r, v| v.count().map(|n| r.restart_budget = Some(n))),
        value("--heartbeat-ms", "MS", |r, v| v.count().map(|n| r.heartbeat_ms = Some(n))),
        value("--chaos", "SPEC", |r, v| {
            let plan = ChaosPlan::parse(v.value).map_err(|e| CliError::Conflict {
                message: format!("--chaos got '{}': {e}", v.value),
            })?;
            r.cfg.chaos = Some(plan);
            Ok(())
        }),
        value("--chaos-events", "N", |r, v| v.positive().map(|n| r.chaos_events = Some(n))),
        value("--chaos-seed", "S", |r, v| v.seed().map(|s| r.chaos_seed = Some(s))),
        switch("--procs", |r| r.procs = true),
        value("--stage", "S", |r, v| {
            r.stage = Some(v.value.to_string());
            Ok(())
        }),
        value("--dir", "D", |r, v| v.path().map(|p| r.dir = Some(p))),
        switch("--sink", |r| r.sink = true),
        value("--out", "PATH", |r, v| v.path().map(|p| r.out = Some(p))),
        value("--events-out", "PATH", |r, v| v.path().map(|p| r.events_out = Some(p))),
        value("--trace-in", "PATH", |r, v| v.path().map(|p| r.trace_in = Some(p))),
        value("--trace-out", "PATH", |r, v| v.path().map(|p| r.trace_out = Some(p))),
        switch("--events", |r| r.show_events = true),
    ],
    validate: validate_runtime,
};

fn validate_runtime(r: &mut RuntimeRun) -> Result<(), CliError> {
    conflicts(&[
        (
            r.block && r.cfg.policy == DropPolicy::DropOldest,
            "--block and --drop-oldest are mutually exclusive backpressure policies",
        ),
        (
            (r.sentry_cooldown.is_some() || r.sentry_recall.is_some()) && r.cfg.sentry.is_none(),
            "--sentry-cooldown / --sentry-recall only make sense with --sentry",
        ),
        (
            (r.restart_budget.is_some() || r.heartbeat_ms.is_some()) && r.cfg.supervise.is_none(),
            "--restart-budget / --heartbeat-ms only make sense with --supervise",
        ),
        (
            r.cfg.chaos.is_some() && r.chaos_events.is_some(),
            "--chaos gives an explicit schedule; --chaos-events generates one — pick one",
        ),
        (
            r.chaos_seed.is_some() && r.chaos_events.is_none(),
            "--chaos-seed only seeds a generated campaign (--chaos-events)",
        ),
        (
            r.sink && r.stage.is_none(),
            "--sink drains one child stage; it needs --stage",
        ),
        (
            r.trace_in.is_some() && r.trace_out.is_some(),
            "--trace-in replays a recorded trace; --trace-out records a fresh one — pick one",
        ),
        (
            r.stage.is_some() && r.dir.is_none(),
            "--stage needs --dir (the run directory the supervisor created)",
        ),
        (
            r.stage.is_some() && r.procs,
            "--stage runs one child stage; --procs is the supervisor — pick one",
        ),
    ])?;
    if let Some(sentry) = &mut r.cfg.sentry {
        sentry.cooldown = r.sentry_cooldown.unwrap_or(sentry.cooldown);
        sentry.standby_recall = r.sentry_recall.unwrap_or(sentry.standby_recall);
    }
    if let Some(sup) = &mut r.cfg.supervise {
        sup.restart_budget = r.restart_budget.unwrap_or(sup.restart_budget);
        sup.heartbeat_ms = r.heartbeat_ms.unwrap_or(sup.heartbeat_ms);
    }
    Ok(())
}

/// Loads or generates the runtime trace for parsed flags.
fn runtime_trace(run: &RuntimeRun) -> Result<TraceFile, String> {
    if let Some(path) = &run.trace_in {
        return TraceFile::read_from(path).map_err(|e| format!("{}: {e}", path.display()));
    }
    let traffic = Traffic::from_flag(&run.trace, run.rate_hz, run.cfg.seed)
        .expect("trace validated at parse time");
    TraceFile::generate(&traffic, run.frames, run.hit_rate, run.cfg.seed).map_err(|e| e.to_string())
}

/// Runs the zero-copy pipeline runtime from parsed flags: a child stage
/// (`--stage`), the multi-process supervisor (`--procs`), or the in-process
/// thread loopback (default).
fn run_runtime(mut run: RuntimeRun) -> ExitCode {
    if let (Some(stage), Some(dir)) = (&run.stage, &run.dir) {
        return match runtime::run_stage(
            stage,
            dir,
            &run.cfg,
            run.sink,
            run.out.as_deref(),
            run.events_out.as_deref(),
        ) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("stage {stage} failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let trace = match runtime_trace(&run) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot load trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = run.chaos_events {
        let seed = run.chaos_seed.unwrap_or(run.cfg.seed);
        run.cfg.chaos = Some(ChaosPlan::generate(seed, n, trace.points.len() as u64));
    }
    let run = run;
    if let Some(path) = &run.trace_out {
        return match trace.write_to(path) {
            Ok(()) => {
                println!(
                    "wrote {} frames ({} hits) to {}",
                    trace.points.len(),
                    trace.points.iter().filter(|p| p.hit).count(),
                    path.display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write trace: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if run.procs {
        let bin = match env::current_exe() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot locate own binary for child stages: {e}");
                return ExitCode::FAILURE;
            }
        };
        return match runtime::run_processes(&run.cfg, &trace, &bin) {
            Ok(outcome) => {
                print!("{}", outcome.report_csv);
                if run.show_events {
                    print!("{}", outcome.events_csv);
                }
                if !outcome.degraded.is_empty() {
                    eprintln!("degraded stages: {}", outcome.degraded.join(", "));
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("runtime failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match runtime::run_replay(&run.cfg, &trace) {
        Ok(report) => {
            if let Some(path) = &run.out {
                if let Err(e) = std::fs::write(path, report.to_csv()) {
                    eprintln!("cannot write report: {e}");
                    return ExitCode::FAILURE;
                }
            } else {
                print!("{}", report.to_csv());
            }
            if run.show_events {
                print!("{}", report.event_log().to_csv());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("runtime failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `run [ID|all]`, also the bare invocation: one experiment, or every
/// experiment on `jobs` worker threads.
#[derive(Debug, PartialEq)]
struct ExperimentsRun {
    jobs: usize,
    id: Option<String>,
}

impl Default for ExperimentsRun {
    fn default() -> ExperimentsRun {
        ExperimentsRun { jobs: 1, id: None }
    }
}

const RUN: Command<ExperimentsRun> = Command {
    name: "run",
    operand: Some(("ID|all", |r, v| match r.id.replace(v.value.to_string()) {
        None => Ok(()),
        Some(_) => Err(v.invalid("a single experiment id")),
    })),
    flags: &[value("--jobs", "N", |r, v| v.count().map(|n| r.jobs = n))],
    validate: no_rules,
};

/// Runs one experiment, or every experiment (printed in registry order at
/// any `--jobs`).
fn run_experiments(run: ExperimentsRun) -> ExitCode {
    match run.id.as_deref() {
        None | Some("all") => {
            for (_, report) in experiments::run_all(run.jobs) {
                println!("{}", report.to_table_string());
            }
            ExitCode::SUCCESS
        }
        Some(id) => match experiments::by_id(id) {
            Some(e) => {
                println!("{}", e.run().to_table_string());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment '{id}'; try `edgebench-cli list`");
                ExitCode::FAILURE
            }
        },
    }
}

/// Splits argv at the command word. Flags before it belong to the bare
/// invocation (`run`'s table) and are handed on to the command, so
/// `--jobs=0 run` is `run --jobs=0`.
fn split_command(argv: &[String]) -> Result<(Option<&str>, Vec<String>), CliError> {
    let bare = Command {
        operand: None,
        ..RUN
    };
    let rest = walk(&bare, &mut ExperimentsRun::default(), argv)?;
    let lead = &argv[..argv.len() - rest.len()];
    Ok(match rest.split_first() {
        Some((command, tail)) => (Some(command.as_str()), [lead, tail].concat()),
        None => (None, lead.to_vec()),
    })
}

/// Parses `args` for `cmd` and runs it, or prints the error and the
/// command's usage line.
fn dispatch<R: Default>(cmd: &Command<R>, args: &[String], run: fn(R) -> ExitCode) -> ExitCode {
    match parse(cmd, args) {
        Ok(parsed) => run(parsed),
        Err(e) => {
            eprintln!("{e}");
            eprintln!("usage: {}", usage(cmd));
            ExitCode::FAILURE
        }
    }
}

/// Every command's usage line; no command runs every experiment.
fn top_usage() -> String {
    let lines = [
        usage(&RUN),
        "edgebench-cli list | csv ID | summary MODEL | dot MODEL".to_string(),
        usage(&INFER),
        usage(&RESILIENCE),
        usage(&SERVE),
        usage(&GEO),
        usage(&RUNTIME),
    ];
    format!("usage (no command = run all):\n  {}", lines.join("\n  "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = env::args().skip(1).collect();
    let (command, args) = match split_command(&argv) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", top_usage());
            return ExitCode::FAILURE;
        }
    };
    let operand = args.first().map(String::as_str);
    match command {
        None | Some("run") => dispatch(&RUN, &args, run_experiments),
        Some("list") => {
            for e in experiments::all() {
                println!("{:8}  {}", e.id(), e.title());
            }
            ExitCode::SUCCESS
        }
        Some("csv") => match operand.and_then(experiments::by_id) {
            Some(e) => {
                print!("{}", e.run().to_csv());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment; try `edgebench-cli list`");
                ExitCode::FAILURE
            }
        },
        Some("summary") => with_model(operand, viz::summary),
        Some("dot") => with_model(operand, viz::to_dot),
        Some("infer") => dispatch(&INFER, &args, run_infer),
        Some("resilience") => dispatch(&RESILIENCE, &args, run_resilience),
        Some("serve") => dispatch(&SERVE, &args, run_serve),
        Some("geo") => dispatch(&GEO, &args, run_geo),
        Some("runtime") => dispatch(&RUNTIME, &args, run_runtime),
        Some(other) => {
            eprintln!("unknown command '{other}'");
            eprintln!("{}", top_usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Asserts that each `bad` input is a [`CliError::Invalid`] naming its
    /// first token as the flag.
    fn assert_invalid<R: Default + fmt::Debug>(cmd: &Command<R>, bad: &[&str]) {
        for input in bad {
            let err = parse(cmd, &argv(input)).unwrap_err();
            let named = input.split([' ', '=']).next().unwrap();
            assert!(
                matches!(&err, CliError::Invalid { flag, .. } if flag == named),
                "{} {input}: {err:?}",
                cmd.name
            );
        }
    }

    #[test]
    fn missing_value_is_typed() {
        let err = parse(&SERVE, &argv("--rate")).unwrap_err();
        assert_eq!(
            err,
            CliError::MissingValue {
                flag: "--rate".to_string()
            }
        );
        assert_eq!(err.to_string(), "--rate expects a value");
    }

    #[test]
    fn out_of_range_probability_is_invalid() {
        let err = parse(&SERVE, &argv("--loss 1.5")).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid { flag, .. } if flag == "--loss"),
            "{err:?}"
        );
        assert!(err.to_string().contains("probability in [0, 1]"));
        assert!(parse(&SERVE, &argv("--dropout -0.1")).is_err());
    }

    #[test]
    fn unknown_flag_names_the_command() {
        let err = parse(&SERVE, &argv("--warp-speed 9")).unwrap_err();
        assert_eq!(
            err,
            CliError::UnknownFlag {
                command: "serve",
                flag: "--warp-speed".to_string()
            }
        );
        let err = parse(&RESILIENCE, &argv("--warp-speed")).unwrap_err();
        assert_eq!(
            err,
            CliError::UnknownFlag {
                command: "resilience",
                flag: "--warp-speed".to_string()
            }
        );
        let err = parse(&GEO, &argv("--warp-speed")).unwrap_err();
        assert_eq!(
            err,
            CliError::UnknownFlag {
                command: "geo",
                flag: "--warp-speed".to_string()
            }
        );
        // `--jobs` belongs to `run`, `geo` and the bare invocation only.
        let jobs = argv("--jobs 4");
        for (command, err) in [
            ("serve", parse(&SERVE, &jobs).err()),
            ("infer", parse(&INFER, &jobs).err()),
            ("resilience", parse(&RESILIENCE, &jobs).err()),
            ("runtime", parse(&RUNTIME, &jobs).err()),
        ] {
            let flag = "--jobs".to_string();
            assert_eq!(err, Some(CliError::UnknownFlag { command, flag }));
        }
    }

    #[test]
    fn geo_flags_parse_into_the_config() {
        let run = parse(
            &GEO,
            &argv(
                "--model resnet-18 --slo-ms 150 --requests 500 --base-hz 10 --peak-hz 90 \
             --period-s 45 --wan-rtt-ms 120 --import 2 --batch-max 4 --no-autoscale \
             --seed 9 --jobs 3 --csv",
            ),
        )
        .unwrap();
        assert_eq!(run.cfg.model, Model::ResNet18);
        assert_eq!(run.cfg.slo_ms, 150.0);
        assert_eq!(run.requests, 500);
        assert_eq!(run.cfg.base_hz, 10.0);
        assert_eq!(run.cfg.peak_hz, 90.0);
        assert_eq!(run.cfg.period_s, 45.0);
        assert_eq!(run.cfg.wan_rtt_ms, 120.0);
        assert_eq!(run.cfg.import_replicas, 2);
        assert_eq!(run.cfg.batch_max, 4);
        assert_eq!(run.cfg.autoscale, None);
        assert_eq!(run.jobs, 3);
        assert_eq!(run.cfg.seed, 9);
        assert!(run.csv);
    }

    #[test]
    fn geo_rejects_an_inverted_diurnal_swing() {
        let err = parse(&GEO, &argv("--base-hz 100 --peak-hz 50")).unwrap_err();
        assert!(
            matches!(&err, CliError::Conflict { .. }),
            "inverted swing must be a typed conflict: {err:?}"
        );
        assert_invalid(
            &GEO,
            &[
                "--slo-ms -5",
                "--slo-ms nan",
                "--batch-max 0",
                "--wan-rtt-ms nan",
                "--wan-rtt-ms -1",
                "--base-hz inf",
                "--period-s 1e400",
                "--requests 0",
                "--jobs -1",
            ],
        );
    }

    #[test]
    fn batch_delay_without_batching_conflicts() {
        let err = parse(&SERVE, &argv("--batch-max 1 --batch-delay-ms 5")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        // With batching on, the same delay parses fine.
        assert!(parse(&SERVE, &argv("--batch-max 4 --batch-delay-ms 5")).is_ok());
    }

    #[test]
    fn serve_rejects_bad_values() {
        let err = parse(&SERVE, &argv("--replicas 0")).unwrap_err();
        assert!(matches!(&err, CliError::Invalid { flag, .. } if flag == "--replicas"));
        // `--slo-ms` and `--batch-max` validate exactly as in `geo`; every
        // float rejects non-finite values.
        assert_invalid(
            &SERVE,
            &[
                "--slo-ms -5",
                "--slo-ms nan",
                "--slo-ms=inf",
                "--batch-max 0",
                "--rate inf",
                "--rate nan",
                "--batch-delay-ms -1",
                "--power-scale -1",
                "--hedge-ms inf",
                "--retry-budget nan",
                "--straggler 0.05,inf",
                "--frames 0",
            ],
        );
    }

    #[test]
    fn unknown_trace_is_invalid() {
        let err = parse(&SERVE, &argv("--trace sawtooth")).unwrap_err();
        assert!(matches!(&err, CliError::Invalid { flag, .. } if flag == "--trace"));
    }

    #[test]
    fn resilience_flags_parse_into_the_config() {
        let run = parse(&SERVE, &argv(
            "--straggler 0.05,6 --loss 0.02 --hedge-ms 2 --retry-budget 10 --breaker --ladder --events",
        ))
        .unwrap();
        assert_eq!(run.cfg.resilience.hedge_ms, Some(2.0));
        assert_eq!(
            run.cfg.resilience.retry.map(|r| r.initial_tokens),
            Some(10.0)
        );
        assert!(run.cfg.resilience.breaker.is_some());
        assert!(run.cfg.resilience.ladder);
        assert_eq!(run.cfg.resilience.faults.straggler, 0.05);
        assert_eq!(run.cfg.resilience.faults.straggler_factor, 6.0);
        assert_eq!(run.cfg.resilience.faults.loss, 0.02);
        assert!(run.show_events);
    }

    #[test]
    fn malformed_straggler_pairs_are_rejected() {
        assert!(parse(&SERVE, &argv("--straggler 0.05")).is_err());
        assert!(parse(&SERVE, &argv("--straggler 0.05,0.5")).is_err());
        assert!(parse(&SERVE, &argv("--straggler 1.5,4")).is_err());
    }

    #[test]
    fn defaults_parse_clean() {
        let run = parse(&SERVE, &[]).unwrap();
        assert!(!run.cfg.resilience.is_active());
        assert_eq!(run.replicas, 1);
        let run = parse(&RESILIENCE, &[]).unwrap();
        assert_eq!(run.frames, 300);
    }

    #[test]
    fn infer_flags_parse_into_the_run() {
        let run = parse(&INFER, &argv(
            "--model mobilenet-v2 --batch 8 --threads 4 --precision int8 --iters 3 --seed 7 --sparsity 0.5 --kernel scalar",
        ))
        .unwrap();
        assert_eq!(run.model, Model::MobileNetV2);
        assert_eq!(run.batch, 8);
        assert_eq!(run.threads, 4);
        assert_eq!(run.precision, Precision::Int8);
        assert_eq!(run.iters, 3);
        assert_eq!(run.seed, 7);
        assert_eq!(run.sparsity, 0.5);
        assert_eq!(run.kernel, KernelKind::Scalar);
        let run = parse(&INFER, &argv("--kernel simd")).unwrap();
        assert_eq!(run.kernel, KernelKind::Simd);
    }

    #[test]
    fn infer_defaults_parse_clean() {
        let run = parse(&INFER, &[]).unwrap();
        assert_eq!(run.model, Model::CifarNet);
        assert_eq!(run.batch, 1);
        assert_eq!(run.threads, 1);
        assert_eq!(run.precision, Precision::F32);
        assert_eq!(run.kernel, KernelKind::Auto);
    }

    #[test]
    fn infer_rejects_bad_values() {
        assert!(matches!(
            parse(&INFER, &argv("--batch 0")).unwrap_err(),
            CliError::Invalid { .. }
        ));
        assert!(matches!(
            parse(&INFER, &argv("--precision f64")).unwrap_err(),
            CliError::Invalid { .. }
        ));
        assert!(matches!(
            parse(&INFER, &argv("--kernel gpu")).unwrap_err(),
            CliError::Invalid { .. }
        ));
        assert!(matches!(
            parse(&INFER, &argv("--iters 0")).unwrap_err(),
            CliError::Invalid { .. }
        ));
        assert_invalid(
            &INFER,
            &[
                "--sparsity nan",
                "--threads -1",
                "--batch 1e400",
                "--seed ,",
            ],
        );
        assert_eq!(
            parse(&INFER, &argv("--turbo")).unwrap_err(),
            CliError::UnknownFlag {
                command: "infer",
                flag: "--turbo".to_string()
            }
        );
    }

    #[test]
    fn sdc_infer_flags_parse_into_the_run() {
        let run = parse(&INFER, &argv("--flip-rate 1e-6 --flip-seed 9 --guards")).unwrap();
        assert_eq!(run.flip_rate, 1e-6);
        assert_eq!(run.flip_seed, 9);
        assert!(run.guards);
        // Defaults: fault injection and guards are both off.
        let run = parse(&INFER, &[]).unwrap();
        assert_eq!(run.flip_rate, 0.0);
        assert_eq!(run.flip_seed, 0x5dc);
        assert!(!run.guards);
        // The flip rate is a probability; 2 flips/byte is nonsense.
        assert!(matches!(
            parse(&INFER, &argv("--flip-rate 2")).unwrap_err(),
            CliError::Invalid { .. }
        ));
    }

    #[test]
    fn sdc_serve_flags_parse_into_the_config() {
        let run = parse(&SERVE, &argv("--sdc 0.1")).unwrap();
        assert_eq!(run.cfg.resilience.sdc.corruption, 0.1);
        assert!(run.cfg.resilience.sdc.guards, "guards default on");
        let run = parse(&SERVE, &argv("--sdc 0.1 --no-sdc-guards")).unwrap();
        assert!(!run.cfg.resilience.sdc.guards);
        assert!(parse(&SERVE, &argv("--sdc 1.5")).is_err());
    }

    #[test]
    fn runtime_flags_parse_into_the_config() {
        let run = parse(
            &RUNTIME,
            &argv(
                "--model mobilenet-v2 --device jetson-nano --frames 120 --rate 45 --hit-rate 0.2 \
             --seed 9 --ring-capacity 16 --drop-oldest --sentry --sentry-cooldown 4 \
             --sentry-recall 0.9 --flip-rate 1e-6 --exec real --pace",
            ),
        )
        .unwrap();
        assert_eq!(run.cfg.model, Model::MobileNetV2);
        assert_eq!(run.cfg.device, Device::JetsonNano);
        assert_eq!(run.frames, 120);
        assert_eq!(run.rate_hz, 45.0);
        assert_eq!(run.hit_rate, 0.2);
        assert_eq!(run.cfg.seed, 9);
        assert_eq!(run.cfg.ring_capacity, 16);
        assert_eq!(run.cfg.policy, DropPolicy::DropOldest);
        assert_eq!(
            run.cfg.sentry,
            Some(SentryConfig {
                cooldown: 4,
                standby_recall: 0.9
            })
        );
        assert_eq!(run.cfg.ipc_flip_rate, 1e-6);
        assert_eq!(run.cfg.exec, ExecMode::Real);
        assert!(run.cfg.pace);
    }

    #[test]
    fn runtime_defaults_parse_clean() {
        let run = parse(&RUNTIME, &[]).unwrap();
        assert_eq!(run.cfg.ring_capacity, 8);
        assert_eq!(run.cfg.policy, DropPolicy::Block);
        assert_eq!(run.cfg.sentry, None);
        assert_eq!(run.cfg.exec, ExecMode::Model);
        assert!(!run.procs && run.stage.is_none());
    }

    #[test]
    fn runtime_rejects_bad_ring_capacity() {
        for bad in ["0", "3", "-1", "lots"] {
            let err = parse(&RUNTIME, &argv(&format!("--ring-capacity {bad}"))).unwrap_err();
            assert!(
                matches!(&err, CliError::Invalid { flag, .. } if flag == "--ring-capacity"),
                "{bad}: {err:?}"
            );
        }
        assert!(parse(&RUNTIME, &argv("--ring-capacity 4")).is_ok());
    }

    #[test]
    fn runtime_rejects_unknown_model_and_device() {
        let err = parse(&RUNTIME, &argv("--model squeezenet-9000")).unwrap_err();
        assert!(matches!(&err, CliError::Invalid { flag, .. } if flag == "--model"));
        let err = parse(&RUNTIME, &argv("--device abacus")).unwrap_err();
        assert!(matches!(&err, CliError::Invalid { flag, .. } if flag == "--device"));
    }

    #[test]
    fn runtime_conflicting_policies_are_rejected() {
        let err = parse(&RUNTIME, &argv("--block --drop-oldest")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse(&RUNTIME, &argv("--drop-oldest --block")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        // Repeating the same policy is fine.
        assert!(parse(&RUNTIME, &argv("--block --block")).is_ok());
    }

    #[test]
    fn runtime_sentry_knobs_require_sentry() {
        let err = parse(&RUNTIME, &argv("--sentry-cooldown 4")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse(&RUNTIME, &argv("--sentry-recall 0.5")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        assert!(parse(&RUNTIME, &argv("--sentry --sentry-cooldown 4")).is_ok());
        assert!(parse(&RUNTIME, &argv("--sentry --sentry-cooldown 0")).is_err());
        assert!(parse(&RUNTIME, &argv("--sentry --sentry-recall 1.2")).is_err());
    }

    #[test]
    fn runtime_trace_io_and_stage_conflicts() {
        let err = parse(&RUNTIME, &argv("--trace-in a.bin --trace-out b.bin")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse(&RUNTIME, &argv("--stage capture")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse(&RUNTIME, &argv("--stage capture --dir /tmp/x --procs")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        assert!(parse(&RUNTIME, &argv("--stage capture --dir /tmp/x")).is_ok());
    }

    #[test]
    fn runtime_rejects_bad_probabilities_and_frames() {
        assert!(parse(&RUNTIME, &argv("--hit-rate 1.5")).is_err());
        assert!(parse(&RUNTIME, &argv("--flip-rate -0.1")).is_err());
        assert!(parse(&RUNTIME, &argv("--frames 0")).is_err());
        assert!(parse(&RUNTIME, &argv("--rate 0")).is_err());
        assert_invalid(
            &RUNTIME,
            &[
                "--rate nan",
                "--rate -inf",
                "--frames=0",
                "--capture-ns -1",
                "--sentry-recall nan",
            ],
        );
        assert_eq!(
            parse(&RUNTIME, &argv("--warp-speed")).unwrap_err(),
            CliError::UnknownFlag {
                command: "runtime",
                flag: "--warp-speed".to_string()
            }
        );
    }

    #[test]
    fn runtime_supervise_flags_parse_into_the_config() {
        let run = parse(
            &RUNTIME,
            &argv("--supervise --restart-budget 5 --heartbeat-ms 120"),
        )
        .unwrap();
        let sup = run.cfg.supervise.expect("--supervise sets the config");
        assert_eq!(sup.restart_budget, 5);
        assert_eq!(sup.heartbeat_ms, 120);
        // Bare --supervise takes the defaults.
        let run = parse(&RUNTIME, &argv("--supervise")).unwrap();
        assert_eq!(run.cfg.supervise, Some(SuperviseConfig::default()));
        // The knobs alone are a conflict, mirroring the sentry idiom.
        let err = parse(&RUNTIME, &argv("--restart-budget 3")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse(&RUNTIME, &argv("--heartbeat-ms 50")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
    }

    #[test]
    fn runtime_chaos_flags_parse_and_conflict() {
        let run = parse(&RUNTIME, &argv("--supervise --chaos kill@1:37,hang@2:90")).unwrap();
        let plan = run.cfg.chaos.expect("--chaos sets the plan");
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.to_spec(), "kill@1:37,hang@2:90");
        // A generated campaign is deferred until the trace length is known.
        let run = parse(
            &RUNTIME,
            &argv("--supervise --chaos-events 6 --chaos-seed 9"),
        )
        .unwrap();
        assert_eq!(run.chaos_events, Some(6));
        assert_eq!(run.chaos_seed, Some(9));
        assert!(run.cfg.chaos.is_none());
        // Explicit and generated schedules are mutually exclusive.
        let err = parse(&RUNTIME, &argv("--chaos kill@1:3 --chaos-events 2")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse(&RUNTIME, &argv("--chaos-seed 4")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse(&RUNTIME, &argv("--chaos wedge@9:1")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        assert!(parse(&RUNTIME, &argv("--chaos-events 0")).is_err());
    }

    #[test]
    fn runtime_sink_requires_a_stage() {
        let err = parse(&RUNTIME, &argv("--sink")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let run = parse(&RUNTIME, &argv("--stage inference --dir /tmp/x --sink")).unwrap();
        assert!(run.sink);
    }

    #[test]
    fn jobs_flag_is_extracted_anywhere() {
        let args = argv("run all --jobs 4");
        let (command, rest) = split_command(&args).unwrap();
        assert_eq!(command, Some("run"));
        let expected = ExperimentsRun {
            jobs: 4,
            id: Some("all".to_string()),
        };
        assert_eq!(parse(&RUN, &rest), Ok(expected));
        // Flags before the command word are handed on to the command.
        let args = argv("--jobs=0 run");
        let (command, rest) = split_command(&args).unwrap();
        assert_eq!(command, Some("run"));
        assert_eq!(parse(&RUN, &rest).map(|r| r.jobs), Ok(0));
        let args = argv("run --jobs");
        let (_, rest) = split_command(&args).unwrap();
        assert!(parse(&RUN, &rest).is_err());
        for input in ["geo --requests 10 --jobs 4", "--jobs 4 geo --requests 10"] {
            let args = argv(input);
            let (command, rest) = split_command(&args).unwrap();
            assert_eq!(command, Some("geo"));
            assert_eq!(parse(&GEO, &rest).map(|r| r.jobs), Ok(4), "{input}");
        }
        let args = argv("--jobs 4 serve");
        let (_, rest) = split_command(&args).unwrap();
        assert!(matches!(
            parse(&SERVE, &rest),
            Err(CliError::UnknownFlag {
                command: "serve",
                ..
            })
        ));
    }

    /// Asserts that no two rows of `cmd`'s table share a flag name (a later
    /// duplicate would be dead).
    fn assert_unique_flags<R>(cmd: &Command<R>) {
        let mut names: Vec<&str> = cmd.flags.iter().map(|f| f.name).collect();
        names.sort_unstable();
        let count = names.len();
        names.dedup();
        assert_eq!(names.len(), count, "{} lists a flag twice", cmd.name);
    }

    #[test]
    fn no_table_lists_a_flag_twice() {
        assert_unique_flags(&RUN);
        assert_unique_flags(&INFER);
        assert_unique_flags(&RESILIENCE);
        assert_unique_flags(&SERVE);
        assert_unique_flags(&GEO);
        assert_unique_flags(&RUNTIME);
    }

    const JUNK: [&str; 12] = [
        "", "nan", "-1", "1e400", ",", "inf", "-inf", "0", "2", "0.5", "cifarnet", "--",
    ];

    /// Builds argv from `picks` — `(index, kind)` pairs naming a flag of
    /// `cmd`'s table, a junk value, or `--flag=junk` — and asserts that
    /// parsing it (alone and behind the command word) returns `Ok` or a
    /// typed [`CliError`] instead of panicking.
    fn assert_parse_is_total<R: Default>(cmd: &Command<R>, picks: &[(usize, usize)]) {
        let args: Vec<String> = picks
            .iter()
            .map(|&(i, kind)| {
                let flag = cmd.flags[i % cmd.flags.len()].name;
                let junk = JUNK[i % JUNK.len()];
                match kind {
                    0 => flag.to_string(),
                    1 => junk.to_string(),
                    _ => format!("{flag}={junk}"),
                }
            })
            .collect();
        let parsed = std::panic::catch_unwind(|| parse(cmd, &args).map(drop));
        assert!(parsed.is_ok(), "{} panicked on {args:?}", cmd.name);
        let full: Vec<String> = [vec![cmd.name.to_string()], args].concat();
        let split = std::panic::catch_unwind(|| split_command(&full).map(drop));
        assert!(split.is_ok(), "split panicked on {full:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn argv_parsing_never_panics(picks in prop::collection::vec((0usize..1000, 0usize..3), 0..8)) {
            assert_parse_is_total(&RUN, &picks);
            assert_parse_is_total(&INFER, &picks);
            assert_parse_is_total(&RESILIENCE, &picks);
            assert_parse_is_total(&SERVE, &picks);
            assert_parse_is_total(&GEO, &picks);
            assert_parse_is_total(&RUNTIME, &picks);
        }
    }
}
