//! `infer-resnet18` and `infer-mobilenet-int8`: a closed loop with one
//! caller running `PreparedExecutor::run` on one image at a time.
//!
//! Every timed batch's output checksum must equal a reference taken once,
//! before set-up, from a scalar-kernel, single-thread prepared run with the
//! same seed: the repository's bitwise-identity contract across kernels and
//! thread counts.

use std::time::Instant;

use edgebench_graph::{Graph, Node, Op};
use edgebench_models::Model;
use edgebench_tensor::gemm::{select_conv_algo, ConvAlgo};
use edgebench_tensor::integrity::checksum_f32;
use edgebench_tensor::{pool, Executor, KernelKind, Precision, PreparedExecutor, Tensor};

use crate::trace::Tracer;
use crate::{alloc, stats, Opts, Outcome, SetUpTime, Stopwatch, Workload};

/// Warm-up batches run as part of each set-up.
const WARMUP: usize = 3;
/// Traced batches whose per-node spans go into the span file (every
/// traced batch feeds the per-layer metrics).
const NODE_SPAN_BATCHES: usize = 3;

struct Spec {
    model: Model,
    precision: Precision,
    threads: usize,
}

fn spec(w: Workload) -> Spec {
    match w {
        Workload::InferMobilenetInt8 => Spec {
            model: Model::MobileNetV2,
            precision: Precision::Int8,
            threads: 1,
        },
        _ => Spec {
            model: Model::ResNet18,
            precision: Precision::F32,
            threads: 2,
        },
    }
}

/// Node classes the per-layer metrics are reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    ConvGemm,
    ConvDirect,
    Depthwise,
    Pool,
    Dense,
    Elementwise,
}

impl Class {
    const ALL: [Class; 6] = [
        Class::ConvGemm,
        Class::ConvDirect,
        Class::Depthwise,
        Class::Pool,
        Class::Dense,
        Class::Elementwise,
    ];

    fn metric(self) -> &'static str {
        match self {
            Class::ConvGemm => "tensor.conv_gemm.self_ms",
            Class::ConvDirect => "tensor.conv_direct.self_ms",
            Class::Depthwise => "tensor.depthwise.self_ms",
            Class::Pool => "tensor.pool.self_ms",
            Class::Dense => "tensor.dense.self_ms",
            Class::Elementwise => "tensor.elementwise.self_ms",
        }
    }
}

/// Classes a node the way the executor dispatches it: a 2-D convolution
/// goes to im2col + GEMM or to the direct kernel by the public
/// `gemm::select_conv_algo`. Batch-norm, activations, add, concat,
/// softmax and the rest are element-wise.
fn classify(g: &Graph, node: &Node) -> Class {
    let conv = match node.op() {
        c @ Op::Conv2d { .. } => Some(c),
        Op::FusedConvBnAct { conv, .. } => Some(conv.as_ref()),
        _ => None,
    };
    match conv.unwrap_or(node.op()) {
        Op::Conv2d { kernel, groups, .. } => {
            let in_c = g.node(node.inputs()[0]).output_shape().channels();
            let fan_in = in_c / groups * kernel.0 * kernel.1;
            match select_conv_algo(node.output_shape().num_elements(), fan_in, *groups) {
                ConvAlgo::Im2colGemm => Class::ConvGemm,
                ConvAlgo::Direct => Class::ConvDirect,
            }
        }
        Op::DepthwiseConv2d { .. } => Class::Depthwise,
        Op::Conv3d { .. } => Class::ConvDirect,
        Op::Pool { .. } | Op::Pool3d { .. } => Class::Pool,
        Op::Dense { .. } | Op::FusedDenseAct { .. } => Class::Dense,
        _ => Class::Elementwise,
    }
}

/// Wall-clock marks of one set-up (start, model built, executor
/// prepared, warm-up done) and its whole time.
struct SetupMarks([Instant; 4], SetUpTime);

impl SetupMarks {
    fn secs(&self, a: usize, b: usize) -> f64 {
        (self.0[b] - self.0[a]).as_secs_f64()
    }
}

fn build(model: Model) -> Result<Graph, String> {
    model
        .build()
        .with_batch(1)
        .map_err(|e| format!("cannot rebatch {model}: {e}"))
}

fn executor<'g>(
    g: &'g Graph,
    seed: u64,
    s: &Spec,
    threads: usize,
    kernel: KernelKind,
) -> Executor<'g> {
    Executor::new(g)
        .with_seed(seed)
        .with_precision(s.precision)
        .with_intra_op_threads(threads)
        .with_kernel(kernel)
}

/// One full set-up (build, prepare, warm-up), handing the prepared
/// executor to `then`.
fn set_up<R>(
    s: &Spec,
    seed: u64,
    x: &Tensor,
    then: impl FnOnce(&Graph, &PreparedExecutor<'_>, SetupMarks) -> R,
) -> Result<R, String> {
    let clock = Stopwatch::start(false);
    let t0 = Instant::now();
    let g = build(s.model)?;
    let t1 = Instant::now();
    let exec = executor(&g, seed, s, s.threads, KernelKind::Auto)
        .prepare()
        .map_err(|e| format!("prepare: {e}"))?;
    let t2 = Instant::now();
    for _ in 0..WARMUP {
        exec.run(x).map_err(|e| format!("warm-up: {e}"))?;
    }
    let t3 = Instant::now();
    let time = clock.set_up_time();
    Ok(then(&g, &exec, SetupMarks([t0, t1, t2, t3], time)))
}

pub fn run(opts: &Opts, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let s = spec(opts.workload);
    let g = build(s.model)?;
    let input_shape = g.node(g.input_ids()[0]).output_shape().clone();
    let x = Tensor::random(input_shape, opts.seed ^ 0x5eed);
    let reference = {
        let exec = executor(&g, opts.seed, &s, 1, KernelKind::Scalar)
            .prepare()
            .map_err(|e| format!("reference prepare: {e}"))?;
        let out = exec.run(&x).map_err(|e| format!("reference run: {e}"))?;
        checksum_f32(out.data())
    };
    drop(g);

    let reps = if opts.tiny { 1 } else { 5 };
    let mut marks = Vec::with_capacity(reps);
    for _ in 1..reps {
        marks.push(set_up(&s, opts.seed, &x, |_, _, m| m)?);
    }
    let mut out = set_up(&s, opts.seed, &x, |g, exec, m| {
        marks.push(m);
        match tracer {
            None => measure(opts, exec, &x, reference),
            Some(t) => measure_traced(opts, g, exec, &x, reference, t, &marks),
        }
    })?;
    out.threads = Some(pool::effective_threads(s.threads));
    if !opts.trace {
        let times: Vec<SetUpTime> = marks.iter().map(|m| m.1).collect();
        out.set_up(&times);
        out.metrics
            .insert("peak_rss_mib", crate::peak_rss_mib(false));
    }
    Ok(out)
}

/// Runs one batch and checks it; returns its wall and CPU time in ms and
/// whether it failed.
fn timed_batch(exec: &PreparedExecutor<'_>, x: &Tensor, reference: u64) -> ((f64, f64), bool) {
    let clock = Stopwatch::start(false);
    let res = exec.run(x);
    let ms = clock.stop();
    let failed = !matches!(res, Ok(ref y) if checksum_f32(y.data()) == reference);
    (ms, failed)
}

fn measure(opts: &Opts, exec: &PreparedExecutor<'_>, x: &Tensor, reference: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut batch_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds {
        let (ms, failed) = timed_batch(exec, x, reference);
        batch_ms.push(ms);
        out.failed += u64::from(failed);
    }
    let wall = start.elapsed().as_secs_f64();
    out.attempted = batch_ms.len() as u64;
    out.latencies(&batch_ms, 1.0, "batches");
    out.info("images_per_s", batch_ms.len() as f64 / wall, "img/s");
    out
}

/// Alternates untraced batches with traced ones, so the tracing overhead
/// is a paired comparison. A traced batch runs through `run_observed`,
/// whose observer stamps the clock as each node's output is ready; a
/// node's self time is the gap since the previous stamp.
fn measure_traced(
    opts: &Opts,
    g: &Graph,
    exec: &PreparedExecutor<'_>,
    x: &Tensor,
    reference: u64,
    tracer: &mut Tracer,
    setups: &[SetupMarks],
) -> Outcome {
    let mut out = Outcome::default();
    let root = tracer.record("setup", None, setups[0].0[0], setups[setups.len() - 1].0[3]);
    for m in setups {
        tracer.record("models.build", Some(root), m.0[0], m.0[1]);
        tracer.record("tensor.prepare", Some(root), m.0[1], m.0[2]);
        tracer.record("tensor.warmup", Some(root), m.0[2], m.0[3]);
    }
    let build_ms: Vec<f64> = setups.iter().map(|m| m.secs(0, 1) * 1e3).collect();
    let prepare_ms: Vec<f64> = setups.iter().map(|m| m.secs(1, 2) * 1e3).collect();
    out.metrics
        .insert("models.build_ms", stats::median(&build_ms));
    out.metrics
        .insert("tensor.prepare_ms", stats::median(&prepare_ms));

    let classes: Vec<Class> = g.nodes().iter().map(|n| classify(g, n)).collect();
    let costs = g.node_costs();
    let work = |c: Class, f: &dyn Fn(&edgebench_graph::NodeCost) -> u64| -> f64 {
        (0..classes.len())
            .filter(|&i| classes[i] == c)
            .map(|i| f(&costs[i]) as f64)
            .sum()
    };
    let gemm_macs = work(Class::ConvGemm, &|c| c.flops);
    let depthwise_bytes = work(Class::Depthwise, &|c| c.total_bytes());

    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut class_ms: Vec<Vec<f64>> = vec![Vec::new(); Class::ALL.len()];
    let mut allocs = 0u64;
    let mut peak_live = 0usize;
    let mut stamps: Vec<(usize, Instant)> = Vec::with_capacity(g.len());
    let start = Instant::now();
    let loop_root = tracer.record("measure", None, start, start);
    while start.elapsed().as_secs_f64() < opts.seconds {
        let ((ms, _), failed) = timed_batch(exec, x, reference);
        plain_ms.push(ms);
        out.failed += u64::from(failed);

        stamps.clear();
        let t0 = Instant::now();
        let (res, heap) = alloc::measure(|| {
            exec.run_observed(x, &mut |i, _| {
                stamps.push((i, Instant::now()));
                Ok(())
            })
        });
        let t1 = Instant::now();
        traced_ms.push((t1 - t0).as_secs_f64() * 1e3);
        allocs += heap.allocs;
        match res {
            Ok((y, run_stats)) if checksum_f32(y.data()) == reference => {
                peak_live = peak_live.max(run_stats.peak_live_bytes);
            }
            _ => out.failed += 1,
        }
        let spans = traced_ms.len() <= NODE_SPAN_BATCHES;
        let batch = spans.then(|| tracer.record("tensor.run_observed", Some(loop_root), t0, t1));
        let mut per_class = [0.0f64; 6];
        let mut prev = t0;
        for &(i, t) in &stamps {
            let c = classes[i];
            per_class[c as usize] += (t - prev).as_secs_f64() * 1e3;
            if let Some(b) = batch {
                tracer.record(
                    format!("{}:{}", c.metric(), g.nodes()[i].name()),
                    Some(b),
                    prev,
                    t,
                );
            }
            prev = t;
        }
        for (acc, v) in class_ms.iter_mut().zip(per_class) {
            acc.push(v);
        }
    }
    tracer.close(loop_root, Instant::now());
    let n = traced_ms.len() as f64;
    out.attempted = (plain_ms.len() + traced_ms.len()) as u64;
    for c in Class::ALL {
        out.metrics
            .insert(c.metric(), stats::median(&class_ms[c as usize]));
    }
    let secs = |c: Class| stats::median(&class_ms[c as usize]) / 1e3;
    if gemm_macs > 0.0 {
        let gmacs = gemm_macs / secs(Class::ConvGemm) / 1e9;
        out.metrics.insert("tensor.conv_gemm.gmacs_per_s", gmacs);
    }
    if depthwise_bytes > 0.0 {
        let gbs = depthwise_bytes / secs(Class::Depthwise) / 1e9;
        out.metrics.insert("tensor.depthwise.gbytes_per_s", gbs);
    }
    out.metrics
        .insert("tensor.allocs_per_batch", allocs as f64 / n);
    out.metrics
        .insert("tensor.peak_live_kib", peak_live as f64 / 1024.0);
    let overhead = 100.0 * (stats::median(&traced_ms) / stats::median(&plain_ms) - 1.0);
    out.metrics.insert("tensor.trace_overhead_pct", overhead);
    let node_ms: f64 = Class::ALL.iter().map(|&c| secs(c) * 1e3).sum();
    out.info("latency_p50_ms.untraced", stats::median(&plain_ms), "ms");
    out.info("latency_p50_ms.traced", stats::median(&traced_ms), "ms");
    for c in Class::ALL {
        let share = 100.0 * secs(c) * 1e3 / node_ms;
        out.info(&format!("{}.share", c.metric()), share, "% of node time");
    }
    out
}
