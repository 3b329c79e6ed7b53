//! Micro-benchmarks of the numeric tensor kernels (the compute substrate
//! behind the functional executor).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use edgebench_graph::{ActivationKind, PoolKind};
use edgebench_tensor::kernels;
use edgebench_tensor::{f16, quant, Tensor};
use std::hint::black_box;

fn bench_conv2d(c: &mut Criterion) {
    let mut g = c.benchmark_group("conv2d");
    for &(cin, cout, hw, k) in &[
        (3usize, 16usize, 32usize, 3usize),
        (16, 32, 16, 3),
        (64, 64, 8, 3),
        (64, 128, 8, 1),
    ] {
        let x = Tensor::random([1, cin, hw, hw], 1);
        let w = Tensor::random([cout, cin, k, k], 2);
        let macs = (cout * cin * k * k * hw * hw) as u64;
        g.throughput(Throughput::Elements(macs));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{cin}x{hw}x{hw}->{cout}k{k}")),
            &(x, w, k),
            |b, (x, w, k)| {
                b.iter(|| black_box(kernels::conv2d(x, w, None, (1, 1), (*k / 2, *k / 2), 1)))
            },
        );
    }
    g.finish();
}

fn bench_depthwise(c: &mut Criterion) {
    let x = Tensor::random([1, 64, 16, 16], 1);
    let w = Tensor::random([64, 1, 3, 3], 2);
    c.bench_function("depthwise_64x16x16", |b| {
        b.iter(|| black_box(kernels::depthwise_conv2d(&x, &w, None, (1, 1), (1, 1), 1)))
    });
    // MobileNet-V2's two largest depthwise layers at 224x224 input: the
    // stride-2 96-channel map and the stride-1 144-channel map.
    for &(ch, hw, s) in &[(96usize, 112usize, 2usize), (144, 56, 1)] {
        let x = Tensor::random([1, ch, hw, hw], 1);
        let w = Tensor::random([ch, 1, 3, 3], 2);
        let bias = vec![0.05f32; ch];
        let mut out = kernels::depthwise_conv2d(&x, &w, None, (s, s), (1, 1), 1);
        c.bench_function(format!("depthwise_{ch}x{hw}x{hw}_s{s}"), |b| {
            b.iter(|| {
                kernels::depthwise_conv2d_into(&x, &w, Some(&bias), (s, s), (1, 1), 1, &mut out);
                black_box(out.data()[0])
            })
        });
    }
}

fn bench_conv3d(c: &mut Criterion) {
    let x = Tensor::random([1, 3, 8, 16, 16], 1);
    let w = Tensor::random([16, 3, 3, 3, 3], 2);
    c.bench_function("conv3d_3x8x16x16->16", |b| {
        b.iter(|| black_box(kernels::conv3d(&x, &w, None, (1, 1, 1), (1, 1, 1))))
    });
}

fn bench_dense(c: &mut Criterion) {
    let mut g = c.benchmark_group("dense");
    for &(fin, fout) in &[(256usize, 256usize), (1024, 1024), (4096, 1000)] {
        let x = Tensor::random([1, fin], 1);
        let w = Tensor::random([fout, fin], 2);
        g.throughput(Throughput::Elements((fin * fout) as u64));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{fin}->{fout}")),
            &(x, w),
            |b, (x, w)| b.iter(|| black_box(kernels::dense(x, w, None))),
        );
    }
    g.finish();
}

fn bench_elementwise(c: &mut Criterion) {
    let x = Tensor::random([1, 64, 32, 32], 1);
    c.bench_function("relu_64x32x32", |b| {
        b.iter(|| black_box(kernels::activation(&x, ActivationKind::Relu)))
    });
    c.bench_function("batch_norm_64x32x32", |b| {
        let gamma = vec![1.0f32; 64];
        let beta = vec![0.1f32; 64];
        b.iter(|| black_box(kernels::batch_norm(&x, &gamma, &beta)))
    });
    c.bench_function("maxpool2x2_64x32x32", |b| {
        b.iter(|| black_box(kernels::pool2d(&x, PoolKind::Max, (2, 2), (2, 2), (0, 0))))
    });
    let logits = Tensor::random([1, 1000], 3);
    c.bench_function("softmax_1000", |b| {
        b.iter(|| black_box(kernels::softmax(&logits)))
    });
}

fn bench_precision(c: &mut Criterion) {
    let mut x = Tensor::random([1, 64, 32, 32], 4);
    c.bench_function("f16_round_trip_64k", |b| {
        b.iter(|| {
            let mut y = x.clone();
            f16::round_slice_f16(y.data_mut());
            black_box(y)
        })
    });
    c.bench_function("int8_fake_quant_64k", |b| {
        b.iter(|| {
            let mut y = x.clone();
            black_box(quant::fake_quantize_tensor(&mut y))
        })
    });
    c.bench_function("quant_observe_64k", |b| {
        b.iter(|| black_box(quant::QuantParams::observe(&x)))
    });
    // MobileNet-V2's largest activation (96x112x112, 1.2 M elements), the
    // size of the int8 lowering's biggest pass. Re-quantizing in place
    // costs the same as the first pass and keeps a copy out of the timing.
    let mut big = Tensor::random([1, 96, 112, 112], 5);
    c.bench_function("int8_fake_quant_1.2m", |b| {
        b.iter(|| black_box(quant::fake_quantize_tensor(&mut big)))
    });
    // Keep `x` mutable usage meaningful.
    x.data_mut()[0] = 0.0;
}

fn bench_gemm(c: &mut Criterion) {
    use edgebench_tensor::gemm::{self, GemmScratch};
    use edgebench_tensor::KernelKind;
    // The SIMD micro-kernel (runtime-dispatched) vs the forced-scalar
    // kernel vs the naive triple loop, at the shapes the executor's
    // im2col lowering actually produces. `packed` is the production path;
    // `packed-scalar` isolates the vectorization win (same packing, same
    // blocking, scalar FMAs); `naive` is the unpacked baseline.
    let mut g = c.benchmark_group("gemm");
    for &(m, k, n) in &[(32usize, 128usize, 128usize), (64, 576, 256)] {
        let a = Tensor::random([m, k], 1);
        let b_ = Tensor::random([k, n], 2);
        g.throughput(Throughput::Elements((m * k * n) as u64));
        for (label, kind) in [
            ("packed", KernelKind::Auto),
            ("packed-scalar", KernelKind::Scalar),
        ] {
            let mut scratch = GemmScratch::default();
            scratch.set_kernel(kind);
            let mut out = Tensor::zeros([m, n]);
            g.bench_with_input(
                BenchmarkId::new(label, format!("{m}x{k}x{n}")),
                &(&a, &b_),
                |bch, (a, b_)| {
                    bch.iter(|| {
                        gemm::matmul_into(
                            a.data(),
                            b_.data(),
                            (m, k, n),
                            out.data_mut(),
                            1,
                            &mut scratch,
                        );
                        black_box(out.data()[0])
                    })
                },
            );
        }
        g.bench_with_input(
            BenchmarkId::new("naive", format!("{m}x{k}x{n}")),
            &(&a, &b_),
            |bch, (a, b_)| bch.iter(|| black_box(gemm::matmul_reference(a, b_))),
        );
    }
    g.finish();
    // Direct vs im2col+GEMM convolution at a representative layer.
    let x = Tensor::random([1, 32, 28, 28], 3);
    let w = Tensor::random([64, 32, 3, 3], 4);
    c.bench_function("conv_direct_32x28->64", |b| {
        b.iter(|| black_box(kernels::conv2d(&x, &w, None, (1, 1), (1, 1), 1)))
    });
    c.bench_function("conv_gemm_32x28->64", |b| {
        b.iter(|| black_box(gemm::conv2d_gemm(&x, &w, None, (1, 1), (1, 1))))
    });
}

fn bench_fused_conv(c: &mut Criterion) {
    use edgebench_tensor::gemm::{self, Epilogue, GemmScratch};
    // conv+bias+BN+ReLU as one fused kernel pass vs the four-kernel chain
    // the unfused graph executes. Same arithmetic, same order, one memory
    // sweep instead of four.
    let x = Tensor::random([1, 32, 28, 28], 3);
    let w = Tensor::random([64, 32, 3, 3], 4);
    let bias = vec![0.05f32; 64];
    let gamma = vec![1.1f32; 64];
    let beta = vec![-0.02f32; 64];
    let mut g = c.benchmark_group("fused_conv");
    g.bench_function("unfused_32x28->64", |b| {
        b.iter(|| {
            let y = kernels::conv2d(&x, &w, Some(&bias), (1, 1), (1, 1), 1);
            let y = kernels::batch_norm(&y, &gamma, &beta);
            black_box(kernels::activation(&y, ActivationKind::Relu))
        })
    });
    g.bench_function("fused_32x28->64", |b| {
        let epi = Epilogue {
            bias: Some(&bias),
            bn: Some((&gamma, &beta)),
            act: ActivationKind::Relu,
        };
        let mut out = Tensor::zeros([1, 64, 28, 28]);
        let mut scratch = GemmScratch::default();
        b.iter(|| {
            gemm::conv2d_gemm_into(
                &x,
                &w,
                (1, 1),
                (1, 1),
                &epi,
                false,
                1,
                &mut out,
                &mut scratch,
            );
            black_box(out.data()[0])
        })
    });
    g.finish();
}

fn bench_guards(c: &mut Criterion) {
    use edgebench_models::Model;
    use edgebench_tensor::{Executor, GuardConfig, GuardedExecutor};
    // The integrity-guard overhead budget: batch-8 CifarNet through the
    // plain prepared executor vs the same executor wrapped in
    // GuardedExecutor at cadence 1 (weight scrub every inference plus
    // per-node activation envelopes). The defended run must stay within
    // 3% of the bare run.
    let graph = Model::CifarNet.build().with_batch(8).unwrap();
    let dims = graph
        .node(graph.input_ids()[0])
        .output_shape()
        .dims()
        .to_vec();
    let x = Tensor::random(dims.clone(), 7);
    let mut g = c.benchmark_group("guards");
    g.sample_size(20);
    g.bench_function("cifarnet_b8_bare", |b| {
        let exec = Executor::new(&graph)
            .with_seed(1)
            .prepare()
            .expect("prepare");
        b.iter(|| black_box(exec.run(&x).unwrap()))
    });
    g.bench_function("cifarnet_b8_guarded", |b| {
        let exec = Executor::new(&graph)
            .with_seed(1)
            .prepare()
            .expect("prepare");
        let mut guarded = GuardedExecutor::new(exec, GuardConfig::default());
        let calib: Vec<Tensor> = (0..2)
            .map(|i| Tensor::random(dims.clone(), 100 + i))
            .collect();
        let refs: Vec<&Tensor> = calib.iter().collect();
        guarded.calibrate(&refs).expect("calibrate");
        b.iter(|| black_box(guarded.run(&x).unwrap()))
    });
    g.finish();
}

fn bench_integrity(c: &mut Criterion) {
    use edgebench_tensor::integrity::checksum_f32;
    // One MobileNet-V2 input frame (3x224x224, 588 KiB), hashed at every
    // pipeline hop and cache-resident between passes; then ResNet-18's
    // 11.7 M weights (46.8 MB), which no cache holds.
    let mut g = c.benchmark_group("integrity");
    for (name, n) in [
        ("checksum_150528f32", 150_528usize),
        ("checksum_11.7mf32", 11_700_000),
    ] {
        let words: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        g.throughput(Throughput::Bytes(n as u64 * 4));
        g.bench_function(name, |b| {
            b.iter(|| black_box(checksum_f32(black_box(&words))))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_integrity,
    bench_gemm,
    bench_fused_conv,
    bench_guards,
    bench_conv2d,
    bench_depthwise,
    bench_conv3d,
    bench_dense,
    bench_elementwise,
    bench_precision
);
criterion_main!(benches);
