//! `pipeline`: the four-process runtime (`capture → preprocess →
//! inference → gateway`) over mmap ring files, with modelled inference and
//! no pacing, so ring copies, checksums, futex waits and process
//! boundaries do the work.
//!
//! Runtime latencies are virtual, so the workload reports frames per CPU
//! second (and per wall second) at MobileNet-V2's 588 KiB f32 frame. Each call is checked: every
//! offered frame is completed, dropped, corrupted or lost, with no
//! duplicates and no order violations, and the report is byte-identical on
//! every call.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use edgebench::runtime::ring::{FrameBuf, FrameMeta, Pop, Reserve, RingBuffer};
use edgebench::runtime::shm::{futex_wait, futex_wake, SharedMap};
use edgebench::runtime::{self, DropPolicy, RuntimeConfig};
use edgebench::serve::{TraceFile, Traffic};
use edgebench_devices::Device;
use edgebench_models::Model;

use crate::trace::{out_dir, Tracer};
use crate::{stats, Opts, Outcome, SetUpTime, Stopwatch};

/// Mean frame rate of the generated trace (it is replayed unpaced).
const RATE_HZ: f64 = 60.0;
/// Share of frames with the ground-truth hit bit.
const HIT_RATE: f64 = 0.1;
/// Stage names in pipeline order, as the report lists them.
const STAGES: [&str; 4] = ["capture", "preprocess", "inference", "gateway"];

fn frames(opts: &Opts) -> usize {
    if opts.tiny {
        40
    } else {
        600
    }
}

fn config(seed: u64) -> RuntimeConfig {
    RuntimeConfig::new(Model::MobileNetV2, Device::JetsonNano)
        .with_seed(seed)
        .with_shm_dir(shm_dir())
}

/// Ring files live inside the benchmark's own output directory.
fn shm_dir() -> PathBuf {
    out_dir().join("shm")
}

fn generate(opts: &Opts) -> Result<TraceFile, String> {
    let traffic = Traffic::poisson(RATE_HZ, opts.seed);
    TraceFile::generate(&traffic, frames(opts), HIT_RATE, opts.seed).map_err(|e| e.to_string())
}

/// The counters of a rendered runtime report.
#[derive(Debug, Default, PartialEq)]
struct Counts {
    offered: u64,
    completed: u64,
    dropped: u64,
    corrupted: u64,
    lost: u64,
    duplicates: u64,
    order_violations: u64,
    processed: [u64; 4],
}

fn parse_counts(csv: &str) -> Option<Counts> {
    let mut c = Counts::default();
    for line in csv.lines() {
        let mut cols = line.split(',');
        let (Some(key), Some(value)) = (cols.next(), cols.next()) else {
            continue;
        };
        let slot = match key {
            "offered" => &mut c.offered,
            "completed" => &mut c.completed,
            "dropped" => &mut c.dropped,
            "corrupted" => &mut c.corrupted,
            "lost" => &mut c.lost,
            "duplicates" => &mut c.duplicates,
            "order_violations" => &mut c.order_violations,
            stage => match STAGES.iter().position(|s| *s == stage) {
                Some(i) => &mut c.processed[i],
                None => continue,
            },
        };
        *slot = value.parse().ok()?;
    }
    Some(c)
}

/// Frames of one call not delivered exactly once and in order.
fn failed_frames(c: &Counts, offered: u64) -> u64 {
    let conserved = c.offered == offered
        && c.completed + c.dropped + c.corrupted + c.lost == c.offered
        && c.duplicates == 0
        && c.order_violations == 0;
    if conserved {
        c.offered - c.completed
    } else {
        offered
    }
}

/// The report without its `mode` row, which is the one row allowed to
/// differ between the process and thread runs.
fn without_mode(csv: &str) -> String {
    csv.lines()
        .filter(|l| !l.starts_with("mode,"))
        .collect::<Vec<_>>()
        .join("\n")
}

pub fn run(opts: &Opts, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    std::fs::create_dir_all(shm_dir()).map_err(|e| format!("create ring dir: {e}"))?;
    let reps = if opts.tiny { 3 } else { 101 };
    let (trace, marks) = crate::repeat_set_up(reps, || generate(opts))?;
    let bin = std::env::current_exe().map_err(|e| format!("own binary: {e}"))?;
    let cfg = config(opts.seed);
    let mut out = match tracer {
        None => measure(opts, &cfg, &trace, &bin),
        Some(t) => {
            for m in &marks {
                t.record("runtime.trace_gen", None, m.start, m.end);
            }
            let mut out = measure_traced(opts, &cfg, &trace, &bin, t)?;
            out.metrics
                .insert("runtime.trace_gen_ms", wall_ms_median(&marks));
            out
        }
    };
    if !opts.trace {
        out.set_up(&marks);
        out.metrics
            .insert("peak_rss_mib", crate::peak_rss_mib(true));
    }
    Ok(out)
}

fn wall_ms_median(times: &[SetUpTime]) -> f64 {
    let ms: Vec<f64> = times
        .iter()
        .map(|t| (t.end - t.start).as_secs_f64() * 1e3)
        .collect();
    stats::median(&ms)
}

fn measure(opts: &Opts, cfg: &RuntimeConfig, trace: &TraceFile, bin: &Path) -> Outcome {
    let offered = trace.points.len() as u64;
    let mut out = Outcome::default();
    let mut first = None;
    let mut call_ms = Vec::new();
    let mut delivered = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds {
        let clock = Stopwatch::start(true);
        let res = runtime::run_processes(cfg, trace, bin);
        call_ms.push(clock.stop());
        out.attempted += offered;
        let counts = res.ok().and_then(|o| {
            let same = *first.get_or_insert_with(|| o.report_csv.clone()) == o.report_csv;
            parse_counts(&o.report_csv).filter(|_| same && o.degraded.is_empty())
        });
        match counts {
            Some(c) => {
                let failed = failed_frames(&c, offered);
                out.failed += failed;
                delivered += offered - failed;
            }
            None => out.failed += offered,
        }
    }
    let wall_s = call_ms.iter().map(|c| c.0).sum::<f64>() / 1e3;
    let per_call = delivered as f64 / call_ms.len() as f64;
    out.latencies(&call_ms, per_call, &format!("calls of {offered} frames"));
    out.info("frames_per_s", delivered as f64 / wall_s, "frames/s");
    out
}

/// Alternates process-mode and thread-mode runs of the same trace (their
/// reports must agree apart from the mode row), then times the ring, the
/// futex and the shared-map calls the stages are built on.
fn measure_traced(
    opts: &Opts,
    cfg: &RuntimeConfig,
    trace: &TraceFile,
    bin: &Path,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let offered = trace.points.len() as u64;
    let elems = Model::MobileNetV2.input_shape().num_elements();
    let mut out = Outcome::default();
    let micro_s = opts.seconds / 4.0;

    let (ring_ns, ring_gbs) = ring_bench(elems, cfg.ring_capacity, micro_s / 2.0, tracer)?;
    out.metrics.insert("ring.roundtrip_ns", ring_ns);
    out.metrics.insert("ring.gbytes_per_s", ring_gbs);
    out.metrics
        .insert("shm.futex_rtt_ns", futex_bench(micro_s / 4.0, tracer));
    let bytes = RingBuffer::required_bytes(cfg.ring_capacity, elems);
    out.metrics.insert(
        "shm.map_create_us",
        map_bench(bytes, micro_s / 4.0, tracer)?,
    );

    let mut procs_ms = Vec::new();
    let mut threads_ms = Vec::new();
    let mut counts = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds - micro_s || procs_ms.is_empty() {
        let t0 = Instant::now();
        let procs = runtime::run_processes(cfg, trace, bin);
        let t1 = Instant::now();
        let threads = runtime::run_replay(cfg, trace);
        let t2 = Instant::now();
        tracer.record("runtime.run_processes", None, t0, t1);
        tracer.record("runtime.run_replay", None, t1, t2);
        procs_ms.push((t1 - t0).as_secs_f64() * 1e3);
        threads_ms.push((t2 - t1).as_secs_f64() * 1e3);
        out.attempted += offered;
        let checked = match (procs, threads) {
            (Ok(p), Ok(t)) if p.degraded.is_empty() => {
                let t_csv = t.to_csv();
                parse_counts(&p.report_csv)
                    .filter(|_| without_mode(&p.report_csv) == without_mode(&t_csv))
                    .map(|c| (c, t_csv))
            }
            _ => None,
        };
        match checked {
            Some((c, t_csv)) => {
                out.failed += failed_frames(&c, offered);
                if counts.is_none() {
                    tracer.virtual_output("runtime.report", t_csv);
                    counts = Some(c);
                }
            }
            None => out.failed += offered,
        }
    }
    let m = &mut out.metrics;
    m.insert("runtime.procs_run_ms", stats::median(&procs_ms));
    m.insert("runtime.threads_run_ms", stats::median(&threads_ms));
    if let Some(c) = counts {
        m.insert("runtime.dropped", c.dropped as f64);
        for (name, n) in [
            "runtime.capture.processed",
            "runtime.preprocess.processed",
            "runtime.inference.processed",
            "runtime.gateway.processed",
        ]
        .into_iter()
        .zip(c.processed)
        {
            m.insert(name, n as f64);
        }
    }
    Ok(out)
}

/// Median over repeated measurements lasting about `secs` in total.
fn repeat(secs: f64, mut once: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < secs {
        samples.push(once()?);
    }
    Ok(stats::median(&samples))
}

/// Streams full frames from one thread to another through a
/// `RingBuffer` (`reserve`, fill, `commit`, then `pop_into`); returns ns
/// per frame and payload GB/s, medians over repetitions.
fn ring_bench(
    elems: usize,
    capacity: usize,
    secs: f64,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    const FRAMES: u64 = 256;
    let path = shm_dir().join("bench-ring");
    let map = SharedMap::create(&path, RingBuffer::required_bytes(capacity, elems))
        .map_err(|e| e.to_string())?;
    map.unlink();
    let ring = RingBuffer::create(map, capacity, elems).map_err(|e| e.to_string())?;
    let src: Vec<f32> = (0..elems).map(|i| i as f32).collect();
    let mut bad = 0u64;
    let ns = repeat(secs, || {
        let far = Instant::now() + Duration::from_secs(30);
        let t0 = Instant::now();
        bad += std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..FRAMES {
                    if let Reserve::Slot(mut slot) = ring.reserve(DropPolicy::Block, far) {
                        let p = slot.payload_mut();
                        p.copy_from_slice(&src);
                        p[0] = i as f32;
                        slot.commit(&FrameMeta {
                            frame_id: i,
                            payload_len: elems as u32,
                            ..FrameMeta::default()
                        });
                    }
                }
            });
            let mut buf = FrameBuf::for_ring(&ring);
            let mut bad = 0;
            for i in 0..FRAMES {
                let ok = ring.pop_into(&mut buf, far, |_| 0) == Pop::Popped
                    && buf.meta.frame_id == i
                    && buf.payload().len() == elems
                    && buf.payload()[0] == i as f32
                    && buf.payload()[elems - 1] == (elems - 1) as f32;
                bad += u64::from(!ok);
            }
            bad
        });
        let t1 = Instant::now();
        tracer.record("ring.stream", None, t0, t1);
        Ok((t1 - t0).as_secs_f64() * 1e9 / FRAMES as f64)
    })?;
    if bad > 0 {
        return Err(format!("{bad} frames came out of the ring wrong"));
    }
    Ok((ns, (elems * 4) as f64 / ns))
}

/// Ping-pong between two threads over `futex_wait` / `futex_wake`; returns
/// ns per round trip, median over repetitions.
fn futex_bench(secs: f64, tracer: &mut Tracer) -> f64 {
    const TRIPS: u32 = 2_000;
    let ping = AtomicU32::new(0);
    let pong = AtomicU32::new(0);
    let wait_for = |word: &AtomicU32, target: u32| loop {
        let seen = word.load(Ordering::Acquire);
        if seen == target {
            break;
        }
        futex_wait(word, seen, Duration::from_millis(10));
    };
    let mut base = 0u32;
    repeat(secs, || {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 1..=TRIPS {
                    wait_for(&ping, base + i);
                    pong.store(base + i, Ordering::Release);
                    futex_wake(&pong);
                }
            });
            for i in 1..=TRIPS {
                ping.store(base + i, Ordering::Release);
                futex_wake(&ping);
                wait_for(&pong, base + i);
            }
        });
        base += TRIPS;
        let t1 = Instant::now();
        tracer.record("shm.futex_pingpong", None, t0, t1);
        Ok((t1 - t0).as_secs_f64() * 1e9 / f64::from(TRIPS))
    })
    .expect("the futex round trip cannot fail")
}

/// `SharedMap::create` at ring size, then `unlink` and unmap; returns µs,
/// median over repetitions.
fn map_bench(bytes: usize, secs: f64, tracer: &mut Tracer) -> Result<f64, String> {
    let path = shm_dir().join("bench-map");
    repeat(secs, || {
        let t0 = Instant::now();
        let map = SharedMap::create(&path, bytes).map_err(|e| e.to_string())?;
        map.unlink();
        drop(map);
        let t1 = Instant::now();
        tracer.record("shm.map_create", None, t0, t1);
        Ok((t1 - t0).as_secs_f64() * 1e6)
    })
}

/// Entry point of a stage process, spawned by `runtime::run_processes` as
/// `perfbench runtime --stage <name> --dir <dir> <config flags>`. Accepts
/// the flag/value pairs the benchmark's configuration produces.
pub fn stage_main(args: &[String]) -> ExitCode {
    match stage(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stage failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn stage(args: &[String]) -> Result<(), String> {
    let mut stage = None;
    let mut dir = None;
    let mut out = None;
    let mut events_out = None;
    let mut model = Model::MobileNetV2;
    let mut device = Device::JetsonNano;
    let mut capacity = 8;
    let mut seed = 0;
    let mut costs = (0, 0);
    let mut flip_rate = 0.0;
    for pair in args.chunks(2) {
        let [flag, v] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad value '{v}' for {flag}");
        match flag.as_str() {
            "--stage" => stage = Some(v.clone()),
            "--dir" => dir = Some(PathBuf::from(v)),
            "--out" => out = Some(PathBuf::from(v)),
            "--events-out" => events_out = Some(PathBuf::from(v)),
            "--model" => model = Model::from_name(v).ok_or_else(bad)?,
            "--device" => device = Device::from_name(v).ok_or_else(bad)?,
            "--ring-capacity" => capacity = v.parse().map_err(|_| bad())?,
            "--seed" => seed = v.parse().map_err(|_| bad())?,
            "--capture-ns" => costs.0 = v.parse().map_err(|_| bad())?,
            "--preprocess-ns" => costs.1 = v.parse().map_err(|_| bad())?,
            "--flip-rate" => flip_rate = v.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown stage flag '{flag}'")),
        }
    }
    let (Some(stage), Some(dir)) = (stage, dir) else {
        return Err("a stage needs --stage and --dir".to_string());
    };
    let cfg = RuntimeConfig::new(model, device)
        .with_ring_capacity(capacity)
        .with_seed(seed)
        .with_stage_costs(costs.0, costs.1)
        .with_ipc_flip_rate(flip_rate);
    runtime::run_stage(
        &stage,
        &dir,
        &cfg,
        false,
        out.as_deref(),
        events_out.as_deref(),
    )
    .map_err(|e| e.to_string())
}
