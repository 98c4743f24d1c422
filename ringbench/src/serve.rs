//! The `serve-ogbn` workload: batch-of-one requests, one
//! `SamplerWorker` (from `RingSampler::worker`) per lane.
//!
//! An **open loop** dispatches requests at a fixed total rate and times
//! each from its due time, so queueing behind a slow request shows up in
//! the latency. A **closed loop** then keeps one request outstanding per
//! lane and measures capacity.
//!
//! The loops cycle through a fixed list of requests. Each distinct
//! request is first sampled untimed and validated against the oracle;
//! since sampling is deterministic per request, every timed request is
//! then verified by comparing its sample's digest with the validated
//! one's, after its completion is stamped.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringsampler::{epoch_targets, BatchSample, RingSampler, SampleMetrics, SamplerWorker};
use ringsampler_graph::NodeId;
use ringstat::thread_cpu_nanos;

use crate::check::{batch_digest, validate_batch, RefGraph};
use crate::epoch::{report_io_counters, stages_of, timeline, warm_up, Stages, EPOCH_TARGETS};
use crate::spans::Tracer;
use crate::stats::{median, quantile, ratio};
use crate::{meta, regime_check, replay, sys, Args, Built, Inputs, Outcome};

/// Distinct requests; the loops cycle through them.
const REQUESTS: usize = 8192;
/// Requests in the serving workload's unit of work (its "epoch").
const ROUND: usize = 2048;
/// Open-loop arrival rate over all lanes (about 40% of closed-loop
/// capacity on the two-core reference machine).
const OPEN_RATE: f64 = 1200.0;
/// Head start for the open-loop lanes to build their workers before the
/// first request is due.
const LANE_SETUP: Duration = Duration::from_millis(50);
/// Open-loop window over which one set of latency quantiles is taken.
const WINDOW_S: f64 = 1.0;
/// Closed-loop requests per lane, at least.
const MIN_REQUESTS: u64 = 256;

struct OpenLane {
    /// `(due time in s from the loop's start, latency in ms)` per request.
    latency_ms: Vec<(f64, f64)>,
    late_ms: Vec<f64>,
    checks: Outcome,
}

struct ClosedLane {
    /// Seconds inside `sample_batch`.
    busy_s: f64,
    /// Thread CPU inside `sample_batch`.
    cpu_ns: u64,
    edges: u64,
    requests: u64,
    service_ms: Vec<f64>,
    metrics: SampleMetrics,
    stages: Stages,
    checks: Outcome,
}

struct Ctx<'a> {
    seeds: &'a [NodeId],
    /// Digest of each request's validated sample.
    digests: &'a [u64],
    tracer: &'a Tracer,
}

impl Ctx<'_> {
    /// A served sample must be identical to the request's validated one.
    fn check(&self, i: usize, s: &BatchSample) -> Result<(), String> {
        let d = batch_digest(i as u64, s);
        if d == self.digests[i] {
            Ok(())
        } else {
            Err(format!(
                "request {i}: sample digest {d:#x} differs from the validated sample's"
            ))
        }
    }
}

/// Runs `lane(index, worker)` on one thread per sampler thread, each
/// with its own `SamplerWorker`, and collects the lanes' results.
fn on_lanes<T: Send>(
    sampler: &RingSampler,
    lane: impl Fn(usize, SamplerWorker) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    let lanes = sampler.config().num_threads.max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|k| {
                let lane = &lane;
                scope.spawn(move || lane(k, sampler.worker().map_err(|e| e.to_string())?))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "lane panicked".to_string())?)
            .collect()
    })
}

/// Samples every distinct request once, untimed, validates each sample
/// against the oracle, and returns their digests. Sampling is
/// deterministic per request, so the timed loops verify each served
/// sample by its digest alone.
fn reference_pass(
    sampler: &RingSampler,
    seeds: &[NodeId],
    reference: &RefGraph,
    out: &mut Outcome,
) -> Result<Vec<u64>, String> {
    let lanes = sampler.config().num_threads.max(1);
    let fanouts = &sampler.config().fanouts;
    let parts = on_lanes(sampler, |lane, mut w| {
        let mut checks = Outcome::default();
        let mut digests = Vec::new();
        for i in (lane..seeds.len()).step_by(lanes) {
            let s = w
                .sample_batch(&seeds[i..=i], i as u64)
                .map_err(|e| e.to_string())?;
            checks.op(validate_batch(reference, &seeds[i..=i], fanouts, &s)
                .map_err(|e| format!("request {i}: {e}")));
            digests.push((i, batch_digest(i as u64, &s)));
        }
        Ok((digests, checks))
    })?;
    let mut digests = vec![0u64; seeds.len()];
    for (ds, checks) in parts {
        out.absorb(checks);
        for (i, d) in ds {
            digests[i] = d;
        }
    }
    Ok(digests)
}

fn open_loop(sampler: &RingSampler, ctx: &Ctx<'_>, seconds: f64) -> Result<Vec<OpenLane>, String> {
    let lanes = sampler.config().num_threads.max(1);
    // The schedule starts once every lane has built its worker.
    let start = Instant::now() + LANE_SETUP;
    let end = start + Duration::from_secs_f64(seconds);
    on_lanes(sampler, |lane, mut w| {
        w.set_span_origin(start);
        let mut r = OpenLane {
            latency_ms: Vec::new(),
            late_ms: Vec::new(),
            checks: Outcome::default(),
        };
        let mut n = lane;
        loop {
            let due = start + Duration::from_secs_f64(n as f64 / OPEN_RATE);
            if due >= end {
                break;
            }
            // Spin, not sleep, until the due time: a sleeping vCPU can take
            // milliseconds to be rescheduled on a shared host, which would
            // swamp the latency measured.
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let dispatch = Instant::now();
            let i = n % REQUESTS;
            let s = w
                .sample_batch(&ctx.seeds[i..=i], i as u64)
                .map_err(|e| e.to_string())?;
            let done = Instant::now();
            r.latency_ms.push((
                (due - start).as_secs_f64(),
                (done - due).as_secs_f64() * 1e3,
            ));
            r.late_ms
                .push(dispatch.saturating_duration_since(due).as_secs_f64() * 1e3);
            ctx.tracer.record(
                meta(0, 0, "SamplerWorker::sample_batch", "worker", n as u64, 1),
                dispatch,
                done,
            );
            r.checks.op(ctx.check(i, &s));
            n += lanes;
        }
        Ok(r)
    })
}

fn closed_loop(
    sampler: &RingSampler,
    ctx: &Ctx<'_>,
    seconds: f64,
) -> Result<Vec<ClosedLane>, String> {
    let lanes = sampler.config().num_threads.max(1);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    on_lanes(sampler, |lane, mut w| {
        w.set_span_origin(start);
        let mut r = ClosedLane {
            busy_s: 0.0,
            cpu_ns: 0,
            edges: 0,
            requests: 0,
            service_ms: Vec::new(),
            metrics: SampleMetrics::default(),
            stages: Stages::default(),
            checks: Outcome::default(),
        };
        let mut i = lane;
        while Instant::now() < end || r.requests < MIN_REQUESTS {
            let c0 = thread_cpu_nanos();
            let t0 = Instant::now();
            let s = w
                .sample_batch(&ctx.seeds[i..=i], i as u64)
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            r.cpu_ns += thread_cpu_nanos().saturating_sub(c0);
            r.busy_s += (t1 - t0).as_secs_f64();
            r.service_ms.push((t1 - t0).as_secs_f64() * 1e3);
            r.edges += s.num_sampled_edges() as u64;
            r.requests += 1;
            ctx.tracer.record(
                meta(0, 0, "SamplerWorker::sample_batch", "worker", i as u64, 1),
                t0,
                t1,
            );
            r.checks.op(ctx.check(i, &s));
            i = (i + lanes) % REQUESTS;
        }
        let stats = w.take_stats();
        r.metrics = stats.metrics;
        r.stages = stages_of(&[stats.events], stats.trace_dropped);
        Ok(r)
    })
}

/// Closed-loop capacity: each lane's rate over its busy time, summed
/// over the lanes (validation between requests is not busy time).
struct Capacity {
    requests_per_s: f64,
    edges_per_s: f64,
    cpu_s_per_request: f64,
}

fn capacity(lanes: &[ClosedLane]) -> Capacity {
    let requests: u64 = lanes.iter().map(|l| l.requests).sum();
    let cpu_ns: u64 = lanes.iter().map(|l| l.cpu_ns).sum();
    Capacity {
        requests_per_s: lanes
            .iter()
            .map(|l| ratio(l.requests as f64, l.busy_s))
            .sum(),
        edges_per_s: lanes.iter().map(|l| ratio(l.edges as f64, l.busy_s)).sum(),
        cpu_s_per_request: ratio(cpu_ns as f64 * 1e-9, requests as f64),
    }
}

/// Every closed-loop request's time inside `sample_batch`, in ms.
fn service_ms(lanes: &[ClosedLane]) -> Vec<f64> {
    lanes
        .iter()
        .flat_map(|l| l.service_ms.iter().copied())
        .collect()
}

/// The open loop's latency quantile `q` within each [`WINDOW_S`] window
/// of due times, median over the windows: a host hiccup moves one
/// window's figure rather than the run's.
fn windowed_quantile(samples: &[(f64, f64)], q: f64) -> f64 {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for &(due, ms) in samples {
        let w = (due / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(ms);
    }
    let per: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| quantile(w, q))
        .collect();
    median(&per)
}

/// Runs the serving workload and appends its metrics to `out`.
pub fn run(
    args: &Args,
    inputs: &Inputs,
    built: &Built,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let sampler = &built.sampler;
    let cfg = sampler.config();
    let file_bytes = std::fs::metadata(&built.edge_path)
        .map(|m| m.len())
        .unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5E4E_0001);
    let seeds: Vec<NodeId> = (0..REQUESTS)
        .map(|_| rng.gen_range(0..inputs.nodes as NodeId))
        .collect();

    // Untimed warm-up epoch. Every distinct request is validated below,
    // so only the epoch's first batch is; the others run unvalidated so
    // the epoch's batch timeline reflects the engine alone.
    let mut targets = epoch_targets(inputs.nodes, 0, args.seed);
    targets.truncate(EPOCH_TARGETS);
    let warm = warm_up(sampler, &targets, &inputs.reference, false, tracer, out)?;
    out.fact("lanes", cfg.num_threads);
    out.fact("open_rate_rps", OPEN_RATE);
    let digests = reference_pass(sampler, &seeds, &inputs.reference, out)?;
    let ctx = Ctx {
        seeds: &seeds,
        digests: &digests,
        tracer,
    };

    if !args.trace {
        // The end-to-end run is the closed loop alone. Open-loop latency
        // from due time is dominated by the host descheduling the vCPUs
        // (see README), so the traced run reports it instead.
        let rb0 = sys::read_bytes();
        let closed = closed_loop(sampler, &ctx, args.seconds)?;
        let read = sys::read_bytes().saturating_sub(rb0);
        out.op(regime_check(args.workload, read, file_bytes));
        let cap = capacity(&closed);
        let service = service_ms(&closed);
        out.fact("latency_samples", service.len());
        out.metric("epoch_s", ratio(ROUND as f64, cap.requests_per_s), "s");
        out.metric("edges_per_s", cap.edges_per_s, "1/s");
        out.metric("cpu_s_per_epoch", cap.cpu_s_per_request * ROUND as f64, "s");
        out.metric("p50_ms", median(&service), "ms");
        out.metric("p99_ms", quantile(&service, 0.99), "ms");
        out.metric("targets_per_s", cap.requests_per_s, "1/s");
        for l in closed {
            out.absorb(l.checks);
        }
        return Ok(());
    }

    // Traced run, a quarter of `--seconds` each: the open loop, the closed
    // loop traced, the closed loop on the shipped configuration untraced,
    // and the closed loop with observability off.
    let quarter = args.seconds / 4.0;
    let rb0 = sys::read_bytes();
    let open = open_loop(sampler, &ctx, quarter)?;
    let (u0, s0) = sys::cpu_times();
    let closed = closed_loop(sampler, &ctx, quarter)?;
    let (u1, s1) = sys::cpu_times();
    let rb1 = sys::read_bytes();
    out.op(regime_check(
        args.workload,
        rb1.saturating_sub(rb0),
        file_bytes,
    ));
    let latency: Vec<(f64, f64)> = open
        .iter()
        .flat_map(|l| l.latency_ms.iter().copied())
        .collect();
    let late: Vec<f64> = open
        .iter()
        .flat_map(|l| l.late_ms.iter().copied())
        .collect();
    for l in open {
        out.absorb(l.checks);
    }
    let quiet = Tracer::new(false);
    let quiet_ctx = Ctx {
        seeds: &seeds,
        digests: &digests,
        tracer: &quiet,
    };
    let (shipped, dark) = crate::comparison_samplers(sampler, args)?;
    let plain = closed_loop(&shipped, &quiet_ctx, quarter)?;
    let off = closed_loop(&dark, &quiet_ctx, quarter)?;

    let tl = timeline(&warm);
    out.metric("engine.batch_ms.p50", median(&tl.gaps_ms), "ms");
    out.metric("engine.batch_ms.p99", quantile(&tl.gaps_ms, 0.99), "ms");
    out.metric("engine.imbalance_share", tl.imbalance, "share");
    out.metric(
        "engine.first_batch_ms",
        warm.stages.setup_ns as f64 * 1e-6,
        "ms",
    );
    let service = service_ms(&closed);
    out.metric("worker.request_ms.p50", median(&service), "ms");
    out.metric("worker.request_ms.p99", quantile(&service, 0.99), "ms");
    let mut m = SampleMetrics::default();
    let mut stages = Stages::default();
    for l in &closed {
        m.merge(&l.metrics);
        stages.add(&l.stages);
    }
    report_io_counters(&m, out);
    out.metric(
        "io.physical_bytes_per_logical",
        ratio(
            rb1.saturating_sub(rb0) as f64,
            (m.sampled_edges * ringsampler_graph::ENTRY_BYTES) as f64,
        ),
        "ratio",
    );
    let requests: u64 = closed.iter().map(|l| l.requests).sum();
    out.metric(
        "cpu.user_s_per_epoch",
        ratio(u1 - u0, requests as f64 / ROUND as f64),
        "s",
    );
    out.metric(
        "cpu.sys_share",
        ratio(s1 - s0, (u1 - u0) + (s1 - s0)),
        "share",
    );
    out.metric(
        "cache.hit_ratio",
        ratio(m.cache_hits as f64, (m.cache_hits + m.cache_misses) as f64),
        "share",
    );
    stages.report(out);
    let wall = |lanes: &[ClosedLane]| ratio(1.0, capacity(lanes).requests_per_s);
    let (t_a, t_b, t_c) = (wall(&closed), wall(&plain), wall(&off));
    out.metric("ringstat.overhead_share", ratio(t_b, t_c) - 1.0, "share");
    out.metric("trace.overhead_share", ratio(t_a, t_b) - 1.0, "share");
    out.metric("serve.late_ms.p99", quantile(&late, 0.99), "ms");
    out.metric("serve.open_p50_ms", windowed_quantile(&latency, 0.5), "ms");
    out.metric("serve.open_p99_ms", windowed_quantile(&latency, 0.99), "ms");
    for l in closed.into_iter().chain(plain).chain(off) {
        out.absorb(l.checks);
    }
    let frontiers = replay::frontiers(&warm.captured);
    replay::run(sampler, &frontiers, false, args.seed, tracer, out)
}
