//! `fleet`: the serving simulator alone, in rounds of two phases.
//!
//! Phase A serves Poisson traffic at 200 req/s through a MobileNet-V2
//! fleet on rpi3, jetson-nano and jetson-tx2 with stragglers, loss,
//! hedging, a retry budget, breakers and the precision ladder all armed.
//! Phase B runs the multi-region geo tier on two jobs. Every operation is
//! checked: each offered request is accounted for exactly once, and each
//! phase's rendered report is byte-identical in every round.

use std::time::Instant;

use edgebench::serve::geo::{default_regions, run_geo};
use edgebench::serve::{
    BreakerConfig, Fleet, GeoConfig, GeoReport, RegionSpec, ReplicaSpec, RetryBudgetConfig,
    ServeConfig, ServeReport, Traffic,
};
use edgebench_devices::Device;
use edgebench_models::Model;

use crate::trace::Tracer;
use crate::{alloc, stats, Opts, Outcome, Stopwatch};

/// Phase A offered load, requests per second.
const RATE_HZ: f64 = 200.0;
/// Phase A latency objective, ms.
const SLO_MS: f64 = 100.0;
/// Worker threads of phase B.
const GEO_JOBS: usize = 2;

/// Requests per phase-A call and per region per phase-B call.
fn sizes(opts: &Opts) -> (usize, usize) {
    if opts.tiny {
        (2_000, 500)
    } else {
        (100_000, 20_000)
    }
}

/// Everything a round needs, built once per set-up.
struct Setup {
    fleet: Fleet,
    traffic: Traffic,
    serve_cfg: ServeConfig,
    geo_cfg: GeoConfig,
    regions: Vec<RegionSpec>,
}

fn set_up(seed: u64) -> Result<Setup, String> {
    let specs = [Device::RaspberryPi3, Device::JetsonNano, Device::JetsonTx2]
        .into_iter()
        .map(|d| {
            ReplicaSpec::best_for(Model::MobileNetV2, d)
                .ok_or_else(|| format!("mobilenet-v2 does not deploy on {}", d.name()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let fleet = Fleet::new(specs).map_err(|e| format!("fleet: {e}"))?;
    let serve_cfg = ServeConfig::new(SLO_MS)
        .with_seed(seed)
        .with_straggler(0.05, 6.0)
        .with_loss(0.02)
        .with_hedge_ms(2.0)
        .with_retry_budget(RetryBudgetConfig {
            initial_tokens: 10.0,
            ..RetryBudgetConfig::default()
        })
        .with_breaker(BreakerConfig::default())
        .with_ladder(true);
    let geo_cfg = GeoConfig::new(SLO_MS).with_seed(seed);
    let regions = default_regions(geo_cfg.period_s);
    Ok(Setup {
        fleet,
        traffic: Traffic::poisson(RATE_HZ, seed),
        serve_cfg,
        geo_cfg,
        regions,
    })
}

/// Every offered request ends exactly one way.
fn conserved(r: &ServeReport, offered: usize) -> bool {
    r.offered == offered
        && r.offered == r.completed + r.shed + r.failed + r.retry_shed + r.corrupted_failed
}

fn geo_conserved(g: &GeoReport, per_region: usize) -> bool {
    g.regions.iter().all(|r| conserved(&r.report, per_region))
}

/// FNV-1a digest of a rendered report.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Checks one phase's outcome against the first round's digest.
struct Check {
    first: Option<u64>,
}

impl Check {
    fn ok(&mut self, conserved: bool, rendered: &str) -> bool {
        let d = digest(rendered);
        conserved && *self.first.get_or_insert(d) == d
    }
}

pub fn run(opts: &Opts, tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let reps = if opts.tiny { 1 } else { 25 };
    let (setup, marks) = crate::repeat_set_up(reps, || set_up(opts.seed))?;
    let mut out = match tracer {
        None => measure(opts, &setup),
        Some(t) => {
            for m in &marks {
                t.record("fleet.setup", None, m.start, m.end);
            }
            measure_traced(opts, &setup, t)
        }
    };
    if !opts.trace {
        out.set_up(&marks);
        out.metrics
            .insert("peak_rss_mib", crate::peak_rss_mib(false));
    }
    Ok(out)
}

fn measure(opts: &Opts, s: &Setup) -> Outcome {
    let (n_serve, n_geo) = sizes(opts);
    let mut out = Outcome::default();
    let (mut serve_check, mut geo_check) = (Check { first: None }, Check { first: None });
    let (mut serve_s, mut geo_s) = (0.0, 0.0);
    let mut round_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds {
        let clock = Stopwatch::start(false);
        let t0 = Instant::now();
        let ok_a = match s.fleet.serve(&s.traffic, n_serve, &s.serve_cfg) {
            Ok(r) => serve_check.ok(conserved(&r, n_serve), &r.to_csv()),
            Err(_) => false,
        };
        let t1 = Instant::now();
        let ok_b = match run_geo(&s.geo_cfg, &s.regions, n_geo, GEO_JOBS) {
            Ok(g) => geo_check.ok(geo_conserved(&g, n_geo), &g.to_report("geo").to_csv()),
            Err(_) => false,
        };
        let t2 = Instant::now();
        out.attempted += 2;
        out.failed += u64::from(!ok_a) + u64::from(!ok_b);
        serve_s += (t1 - t0).as_secs_f64();
        geo_s += (t2 - t1).as_secs_f64();
        round_ms.push(clock.stop());
    }
    let rounds = round_ms.len() as f64;
    let geo_total = n_geo * s.regions.len();
    out.latencies(&round_ms, (n_serve + geo_total) as f64, "rounds");
    out.info(
        "serve_req_per_s",
        rounds * n_serve as f64 / serve_s,
        "req/host-s",
    );
    out.info(
        "geo_req_per_s",
        rounds * geo_total as f64 / geo_s,
        "req/host-s",
    );
    out
}

/// The same rounds with each phase split at its layer boundaries:
/// traffic generation, the simulation itself, and report rendering.
fn measure_traced(opts: &Opts, s: &Setup, tracer: &mut Tracer) -> Outcome {
    let (n_serve, n_geo) = sizes(opts);
    let geo_total = n_geo * s.regions.len();
    let mut out = Outcome::default();
    // `Fleet::serve` is traffic generation plus `serve_arrivals`; the split
    // calls must render the same report.
    let mut serve_check = Check {
        first: s
            .fleet
            .serve(&s.traffic, n_serve, &s.serve_cfg)
            .ok()
            .map(|r| digest(&r.to_csv())),
    };
    let mut geo_check = Check { first: None };
    let mut gen_ms = Vec::new();
    let mut sim_ms = Vec::new();
    let mut render_ms = Vec::new();
    let mut geo_ms = Vec::new();
    let mut geo_render_ms = Vec::new();
    let (mut sim_heap, mut geo_heap) = (None, None);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds {
        out.attempted += 2;
        let t0 = Instant::now();
        let round = tracer.record("fleet.round", None, t0, t0);
        let Ok(arrivals) = s.traffic.timestamps(n_serve) else {
            out.failed += 2;
            continue;
        };
        let t1 = Instant::now();
        let (report, heap_a) = alloc::measure(|| s.fleet.serve_arrivals(&arrivals, &s.serve_cfg));
        let t2 = Instant::now();
        let csv = report.as_ref().map(ServeReport::to_csv);
        let t3 = Instant::now();
        let ok_a = match (&report, &csv) {
            (Ok(r), Ok(csv)) => serve_check.ok(conserved(r, n_serve), csv),
            _ => false,
        };
        let (geo, heap_b) = alloc::measure(|| run_geo(&s.geo_cfg, &s.regions, n_geo, GEO_JOBS));
        let t4 = Instant::now();
        let geo_csv = geo.as_ref().map(|g| g.to_report("geo").to_csv());
        let t5 = Instant::now();
        let ok_b = match (&geo, &geo_csv) {
            (Ok(g), Ok(csv)) => geo_check.ok(geo_conserved(g, n_geo), csv),
            _ => false,
        };
        out.failed += u64::from(!ok_a) + u64::from(!ok_b);
        tracer.close(round, t5);
        tracer.record("serve.traffic.timestamps", Some(round), t0, t1);
        tracer.record("serve.sim.serve_arrivals", Some(round), t1, t2);
        tracer.record("serve.report.to_csv", Some(round), t2, t3);
        tracer.record("geo.run_geo", Some(round), t3, t4);
        tracer.record("geo.report.to_report", Some(round), t4, t5);
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        gen_ms.push(ms(t0, t1));
        sim_ms.push(ms(t1, t2));
        render_ms.push(ms(t2, t3));
        geo_ms.push(ms(t3, t4));
        geo_render_ms.push(ms(t4, t5));
        if let (Ok(r), Ok(g)) = (report, geo) {
            if sim_heap.is_none() {
                record_guards(&mut out, tracer, &r, &g);
            }
            sim_heap.get_or_insert(heap_a);
            geo_heap.get_or_insert(heap_b);
        }
    }
    let mib = |b: i64| b as f64 / (1024.0 * 1024.0);
    let m = &mut out.metrics;
    m.insert("serve.traffic.gen_ms", stats::median(&gen_ms));
    m.insert(
        "serve.sim.ns_per_req",
        stats::median(&sim_ms) * 1e6 / n_serve as f64,
    );
    m.insert("serve.report.render_ms", stats::median(&render_ms));
    m.insert(
        "geo.ns_per_req",
        stats::median(&geo_ms) * 1e6 / geo_total as f64,
    );
    m.insert("geo.report.render_ms", stats::median(&geo_render_ms));
    if let (Some(a), Some(b)) = (sim_heap, geo_heap) {
        m.insert("serve.sim.allocs", a.allocs as f64);
        m.insert("serve.sim.peak_heap_mib", mib(a.peak_bytes));
        m.insert("geo.peak_heap_mib", mib(b.peak_bytes));
    }
    out
}

/// Exact counts that prove the simulated work is unchanged, plus the
/// simulated outputs, which go to the span file only.
fn record_guards(out: &mut Outcome, tracer: &mut Tracer, r: &ServeReport, g: &GeoReport) {
    let m = &mut out.metrics;
    let batches: u64 = r.replicas.iter().map(|x| x.batches).sum();
    m.insert("serve.batches", batches as f64);
    m.insert("serve.hedges", r.hedges as f64);
    m.insert("serve.retries", r.retries as f64);
    m.insert("serve.events", r.events.len() as f64);
    let wins = if r.hedges > 0 {
        r.hedge_wins as f64 / r.hedges as f64
    } else {
        0.0
    };
    m.insert("serve.hedge_win_ratio", wins);
    let cloud: usize = g.regions.iter().map(|x| x.cloud_requests).sum();
    m.insert("geo.cloud_share", cloud as f64 / g.offered() as f64);
    let scale_ups: u64 = g.regions.iter().map(|x| x.report.scale_ups).sum();
    m.insert("geo.scale_ups", scale_ups as f64);
    out.info(
        "serve.hedged_share",
        r.hedges as f64 / r.offered as f64,
        "ratio",
    );
    out.info(
        "serve.retried_share",
        r.retries as f64 / r.offered as f64,
        "ratio",
    );

    tracer.virtual_output("serve.p99_ms", r.p99_ms());
    tracer.virtual_output("serve.slo_attainment", r.slo_attainment());
    tracer.virtual_output("serve.goodput_qps", r.goodput_qps());
    tracer.virtual_output("serve.energy_per_request_mj", r.energy_per_request_mj());
    tracer.virtual_output(
        "serve.report_digest",
        format!("{:016x}", digest(&r.to_csv())),
    );
    for reg in &g.regions {
        tracer.virtual_output(format!("geo.{}.p99_ms", reg.name), reg.p99_ms);
        tracer.virtual_output(
            format!("geo.{}.slo_attainment", reg.name),
            reg.slo_attainment,
        );
    }
    tracer.virtual_output("geo.carbon_per_request_mg", g.carbon_per_request_mg());
    tracer.virtual_output("geo.energy_per_request_mj", g.energy_per_request_mj());
    let geo_csv = g.to_report("geo").to_csv();
    tracer.virtual_output("geo.report_digest", format!("{:016x}", digest(&geo_csv)));
}
