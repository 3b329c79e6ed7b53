//! Host-time benchmark of edgebench's product paths.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Runs one workload for the given number of seconds, checks every output,
//! prints each metric by name with its unit, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones, timed by spans around the calls into each layer,
//! and the spans are written under `perfbench/out/`. `--tiny` shrinks every
//! workload for the smoke test. See `README.md` for the workloads.
//!
//! The binary doubles as the pipeline's stage process: `run_processes`
//! re-executes it as `perfbench runtime --stage <name> ...`.

mod alloc;
mod fleet;
mod infer;
mod pipeline;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use trace::{json_str, Context, Tracer};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics, measured with tracing off, on every workload. The
/// times are CPU time, which leaves out what the host steals from the
/// virtual CPUs; wall-clock figures are printed beside them.
const END_TO_END: [(&str, &str); 5] = [
    ("cpu_ms_p50", "ms"),
    ("throughput_per_cpu_s", "items/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics of the traced run. A layer the workload does not
/// load reports 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("tensor.conv_gemm.self_ms", "ms"),
    ("tensor.conv_gemm.gmacs_per_s", "GMAC/s"),
    ("tensor.conv_direct.self_ms", "ms"),
    ("tensor.depthwise.self_ms", "ms"),
    ("tensor.depthwise.gbytes_per_s", "GB/s"),
    ("tensor.elementwise.self_ms", "ms"),
    ("tensor.pool.self_ms", "ms"),
    ("tensor.dense.self_ms", "ms"),
    ("tensor.allocs_per_batch", "count"),
    ("tensor.peak_live_kib", "KiB"),
    ("models.build_ms", "ms"),
    ("tensor.prepare_ms", "ms"),
    ("tensor.trace_overhead_pct", "%"),
    ("serve.traffic.gen_ms", "ms"),
    ("serve.sim.ns_per_req", "ns"),
    ("serve.report.render_ms", "ms"),
    ("serve.sim.allocs", "count"),
    ("serve.sim.peak_heap_mib", "MiB"),
    ("geo.ns_per_req", "ns"),
    ("geo.report.render_ms", "ms"),
    ("geo.peak_heap_mib", "MiB"),
    ("serve.batches", "count"),
    ("serve.hedges", "count"),
    ("serve.retries", "count"),
    ("serve.events", "count"),
    ("serve.hedge_win_ratio", "ratio"),
    ("geo.cloud_share", "ratio"),
    ("geo.scale_ups", "count"),
    ("runtime.trace_gen_ms", "ms"),
    ("runtime.procs_run_ms", "ms"),
    ("runtime.threads_run_ms", "ms"),
    ("ring.roundtrip_ns", "ns"),
    ("ring.gbytes_per_s", "GB/s"),
    ("shm.futex_rtt_ns", "ns"),
    ("shm.map_create_us", "us"),
    ("runtime.dropped", "count"),
    ("runtime.capture.processed", "count"),
    ("runtime.preprocess.processed", "count"),
    ("runtime.inference.processed", "count"),
    ("runtime.gateway.processed", "count"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InferResnet18,
    InferMobilenetInt8,
    Fleet,
    Pipeline,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::InferResnet18,
        Workload::InferMobilenetInt8,
        Workload::Fleet,
        Workload::Pipeline,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::InferResnet18 => "infer-resnet18",
            Workload::InferMobilenetInt8 => "infer-mobilenet-int8",
            Workload::Fleet => "fleet",
            Workload::Pipeline => "pipeline",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

/// What a workload reports back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (the meaning is per workload).
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Text printed beside a metric, e.g. its sample count.
    pub notes: BTreeMap<&'static str, String>,
    /// Further named figures printed for reading, not in the JSON line.
    pub info: Vec<String>,
    /// Effective intra-op threads, for workloads that run the executor.
    pub threads: Option<usize>,
}

impl Outcome {
    /// Records `setup_s`, the median CPU time of the set-ups; their median
    /// wall time is printed beside it.
    pub fn set_up(&mut self, times: &[SetUpTime]) {
        let cpu: Vec<f64> = times.iter().map(|t| t.cpu_s).collect();
        let wall: Vec<f64> = times
            .iter()
            .map(|t| (t.end - t.start).as_secs_f64())
            .collect();
        self.metrics.insert("setup_s", stats::median(&cpu));
        self.info("setup_wall_s", stats::median(&wall), "s");
    }

    /// Adds a figure printed for reading only.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.info.push(format!("{name} = {value} {unit}"));
    }

    /// Records, from per-operation `(wall ms, CPU ms)` samples, the median
    /// CPU time and the work per CPU second at that median, `items` per
    /// operation. The wall-time median, the rate at it and the tail — the
    /// highest percentile with at least ten samples beyond it — are
    /// printed beside them.
    pub fn latencies(&mut self, ops: &[(f64, f64)], items: f64, what: &str) {
        let wall_ms: Vec<f64> = ops.iter().map(|o| o.0).collect();
        let cpu_ms: Vec<f64> = ops.iter().map(|o| o.1).collect();
        let cpu = stats::median(&cpu_ms);
        let (tail, pct, n) = stats::tail(&wall_ms);
        self.metrics.insert("cpu_ms_p50", cpu);
        self.metrics
            .insert("throughput_per_cpu_s", items * 1e3 / cpu);
        self.notes.insert("cpu_ms_p50", format!("(n={n} {what})"));
        let p50 = stats::median(&wall_ms);
        self.info("latency_p50_ms", p50, "ms");
        self.info("throughput_per_s", items * 1e3 / p50, "items/s");
        self.info.push(format!(
            "latency_tail_ms = {tail} ms (p{pct:.1} of n={n} {what})"
        ));
    }
}

/// Wall and CPU time of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetUpTime {
    pub start: Instant,
    pub end: Instant,
    pub cpu_s: f64,
}

/// Runs a set-up `reps` times (at least once) and keeps the last result;
/// returns it with the time of every repetition.
pub fn repeat_set_up<T>(
    reps: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<SetUpTime>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    while times.len() < reps.max(1) {
        let clock = Stopwatch::start(false);
        last = Some(set_up()?);
        times.push(clock.set_up_time());
    }
    Ok((last.expect("ran at least once"), times))
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--tiny" {
            tiny = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
        i += 2;
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

const USAGE: &str =
    "usage: perfbench --workload <infer-resnet18|infer-mobilenet-int8|fleet|pipeline> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("runtime") {
        return pipeline::stage_main(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = opts.trace.then(|| Tracer::new(opts.workload.name()));
    let result = match opts.workload {
        Workload::InferResnet18 | Workload::InferMobilenetInt8 => {
            infer::run(&opts, tracer.as_mut())
        }
        Workload::Fleet => fleet::run(&opts, tracer.as_mut()),
        Workload::Pipeline => pipeline::run(&opts, tracer.as_mut()),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let context = Context {
        workload: opts.workload.name(),
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        intra_op_threads: outcome.threads,
    };
    println!("context {}", context.to_json());
    if let Some(t) = &tracer {
        let path = trace::out_dir().join(format!(
            "spans-{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        match t.write(&path, &context) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write spans to {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let attempted = outcome.attempted.max(1);
    if !opts.trace {
        let ok = attempted.saturating_sub(outcome.failed) as f64 / attempted as f64;
        outcome.metrics.insert("success_ratio", ok);
    }
    println!(
        "error_rate = {} ratio ({} of {attempted} failed)",
        outcome.failed as f64 / attempted as f64,
        outcome.failed
    );
    for line in &outcome.info {
        println!("{line}");
    }
    let table: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = outcome.failed == 0;
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        let note = outcome
            .notes
            .get(name)
            .map_or(String::new(), |n| format!(" {n}"));
        println!("{name} = {value} {unit}{note}");
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// Wall and CPU time of one operation. CPU time is that of every thread
/// of this process and, with `children`, of every child process waited
/// for; the kernel leaves out time the virtual CPU was stolen by the host.
pub struct Stopwatch {
    wall: Instant,
    cpu_s: f64,
    children: bool,
}

impl Stopwatch {
    pub fn start(children: bool) -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu_s: cpu_s(children),
            children,
        }
    }

    /// `(wall ms, CPU ms)` since the start.
    pub fn stop(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64() * 1e3;
        (wall, (cpu_s(self.children) - self.cpu_s) * 1e3)
    }

    /// The interval since the start, as a set-up time.
    pub fn set_up_time(&self) -> SetUpTime {
        SetUpTime {
            start: self.wall,
            end: Instant::now(),
            cpu_s: cpu_s(self.children) - self.cpu_s,
        }
    }
}

/// CPU seconds used so far by every thread of this process and, with
/// `children`, by the child processes waited for.
fn cpu_s(children: bool) -> f64 {
    extern "C" {
        fn clock_gettime(clock: i32, time: *mut i64) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a live, writable `struct timespec` (seconds and
    // nanoseconds, two 64-bit fields), all `clock_gettime` writes.
    let own = if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, ts.as_mut_ptr()) } == 0 {
        ts[0] as f64 + ts[1] as f64 * 1e-9
    } else {
        0.0
    };
    let kids = if children {
        let u = rusage(true);
        (u[0] + u[2]) as f64 + (u[1] + u[3]) as f64 * 1e-6
    } else {
        0.0
    };
    own + kids
}

/// Peak resident memory in MiB: of this process (`children == false`), or
/// of the largest child process waited for so far.
pub fn peak_rss_mib(children: bool) -> f64 {
    rusage(children)[4] as f64 / 1024.0
}

/// `struct rusage` of this process or of its waited-for children, as
/// 64-bit Linux lays it out: user and system `timeval`s (seconds,
/// microseconds), then fourteen `long`s of which `ru_maxrss` (KiB) is the
/// first. All zero if the call fails.
fn rusage(children: bool) -> [i64; 18] {
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = [0i64; 18];
    let who = if children {
        RUSAGE_CHILDREN
    } else {
        RUSAGE_SELF
    };
    // SAFETY: the buffer is live, writable and exactly the size of
    // `struct rusage`, which is all `getrusage` writes.
    if unsafe { getrusage(who, usage.as_mut_ptr()) } != 0 {
        return [0; 18];
    }
    usage
}
