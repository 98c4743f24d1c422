//! The epoch workloads (`epoch-warm`, `epoch-outofcore`): whole epochs
//! through `RingSampler::sample_epoch_with`, timed from call to return.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ringsampler::{epoch_targets, BatchSample, RingSampler, SampleMetrics};
use ringsampler_bench::ringtrace::{batches, StageSums, WorkerTrace};
use ringsampler_graph::NodeId;
use ringsampler_io::RingSetupInfo;

use crate::check::{batch_digest, validate_batch, RefGraph};
use crate::spans::Tracer;
use crate::stats::{median, quantile, ratio};
use crate::{meta, regime_check, replay, sys, Args, Built, Inputs, Outcome, Workload};

/// Targets per epoch: 16 mini-batches of the default 1024, so the
/// default two workers get 8 batches each and finish together.
pub const EPOCH_TARGETS: usize = 16 * 1024;
/// Why a lock or `into_inner` can fail: only if an `on_batch` call panicked.
const POISONED: &str = "an on_batch callback panicked";
/// Timed epochs per measurement, at least.
const MIN_TIMED: usize = 3;

/// Per-stage attributed time of one epoch (ringtrace's taxonomy).
#[derive(Default, Clone, Copy)]
pub struct Stages {
    /// Attributed ns per stage, in `StageSums::STAGES` order.
    pub ns: [u64; 6],
    /// End-to-end duration of the complete batches, ns.
    pub batch_ns: u64,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Latest first-batch start over the workers, ns from the epoch's
    /// start: the per-epoch worker and ring set-up.
    pub setup_ns: u64,
}

impl Stages {
    /// Accumulates another epoch's attribution.
    pub fn add(&mut self, o: &Stages) {
        for (a, b) in self.ns.iter_mut().zip(o.ns) {
            *a += b;
        }
        self.batch_ns += o.batch_ns;
        self.dropped += o.dropped;
    }

    /// Reports the stage shares, coverage and drops as per-layer metrics.
    pub fn report(&self, out: &mut Outcome) {
        for ((name, _), ns) in StageSums::STAGES.iter().zip(self.ns) {
            out.metric(
                &format!("stage.{name}_share"),
                ratio(ns as f64, self.batch_ns as f64),
                "share",
            );
        }
        let total: u64 = self.ns.iter().sum();
        out.metric(
            "stage.coverage",
            ratio(total as f64, self.batch_ns as f64),
            "share",
        );
        out.metric("stage.dropped", self.dropped as f64, "count");
    }
}

/// Attributes per-worker flight-recorder streams to stages.
pub fn stages_of(thread_events: &[Vec<ringstat::TraceEvent>], dropped: u64) -> Stages {
    let mut st = Stages {
        dropped,
        ..Stages::default()
    };
    for (t, events) in thread_events.iter().enumerate() {
        let wt = WorkerTrace {
            thread: t as u64,
            events: events.clone(),
        };
        let bs = batches(&wt);
        if let Some(b) = bs.first() {
            st.setup_ns = st.setup_ns.max(b.start_ns);
        }
        for b in bs.iter().filter(|b| b.complete) {
            for (slot, (_, get)) in st.ns.iter_mut().zip(StageSums::STAGES) {
                *slot += get(&b.stages);
            }
            st.batch_ns += b.dur_ns;
        }
    }
    st
}

/// What one epoch produced, reduced to what the metrics need.
pub struct EpochResult {
    /// Wall seconds from call to return.
    pub wall: f64,
    /// Process user / sys CPU seconds over the epoch.
    pub user: f64,
    /// See `user`.
    pub sys: f64,
    /// Bytes fetched from the device during the epoch.
    pub read_bytes: u64,
    /// Sampler counters.
    pub metrics: SampleMetrics,
    /// Granted ring setup.
    pub ring_setup: RingSetupInfo,
    /// Worker threads the epoch ran on.
    pub threads: usize,
    /// Stage attribution (only when the sampler records events).
    pub stages: Stages,
    /// Order-independent digest of every sample.
    pub digest: u64,
    /// `(batch index, seconds from call)` at each `on_batch` entry.
    pub callbacks: Vec<(usize, f64)>,
    /// Validation failures (empty unless validating).
    pub errors: Vec<String>,
    /// Whole samples of the first `capture` batches.
    pub captured: Vec<(usize, BatchSample)>,
}

/// Runs one epoch over `targets`. The `on_batch` callback digests every
/// sample; with `validate` it also checks every sample against the oracle
/// (use only outside timed epochs), and it keeps the first `capture`
/// samples whole.
pub fn run_epoch(
    sampler: &RingSampler,
    targets: &[NodeId],
    validate: Option<&RefGraph>,
    capture: usize,
    tracer: &Tracer,
) -> Result<EpochResult, String> {
    let cfg = sampler.config();
    let bs = cfg.batch_size;
    let digest = AtomicU64::new(0);
    let callbacks = Mutex::new(Vec::with_capacity(targets.len().div_ceil(bs)));
    let errors = Mutex::new(Vec::new());
    let captured = Mutex::new(Vec::new());
    let epoch_id = tracer.id();
    let (u0, s0) = sys::cpu_times();
    let rb0 = sys::read_bytes();
    let start = Instant::now();
    let report = sampler
        .sample_epoch_with(targets, |idx, sample| {
            let t_in = Instant::now();
            digest.fetch_add(batch_digest(idx as u64, &sample), Ordering::Relaxed);
            if let Some(g) = validate {
                let seeds = &targets[idx * bs..((idx + 1) * bs).min(targets.len())];
                if let Err(e) = validate_batch(g, seeds, &cfg.fanouts, &sample) {
                    errors
                        .lock()
                        .expect(POISONED)
                        .push(format!("batch {idx}: {e}"));
                }
            }
            if idx < capture {
                captured.lock().expect(POISONED).push((idx, sample));
            }
            callbacks
                .lock()
                .expect(POISONED)
                .push((idx, (t_in - start).as_secs_f64()));
            tracer.record(
                meta(0, epoch_id, "on_batch", "bench", idx as u64, 1),
                t_in,
                Instant::now(),
            );
        })
        .map_err(|e| format!("sample_epoch_with: {e}"))?;
    let end = Instant::now();
    let rb1 = sys::read_bytes();
    let (u1, s1) = sys::cpu_times();
    tracer.record(
        meta(
            epoch_id,
            0,
            "RingSampler::sample_epoch_with",
            "engine",
            0,
            1,
        ),
        start,
        end,
    );

    let mut callbacks = callbacks.into_inner().expect(POISONED);
    let mut errors = errors.into_inner().expect(POISONED);
    let mut seen: Vec<usize> = callbacks.iter().map(|&(i, _)| i).collect();
    seen.sort_unstable();
    if seen != (0..targets.len().div_ceil(bs)).collect::<Vec<_>>() {
        errors.push("on_batch did not see every batch exactly once".into());
    }
    callbacks.sort_by(|a, b| a.1.total_cmp(&b.1));
    Ok(EpochResult {
        wall: (end - start).as_secs_f64(),
        user: u1 - u0,
        sys: s1 - s0,
        read_bytes: rb1.saturating_sub(rb0),
        metrics: report.metrics,
        ring_setup: report.ring_setup,
        threads: report.threads,
        stages: stages_of(&report.thread_events, report.trace_dropped),
        digest: digest.into_inner(),
        callbacks,
        errors,
        captured: captured.into_inner().expect(POISONED),
    })
}

/// The engine's per-epoch batch timeline, from `on_batch` entry times.
pub struct Timeline {
    /// Per-thread batch latencies: the gap between consecutive `on_batch`
    /// entries on a thread (batch `i` runs on thread `i % threads`), the
    /// first measured from the call.
    pub gaps_ms: Vec<f64>,
    /// (last thread finish − first thread finish) / epoch wall.
    pub imbalance: f64,
}

/// Builds the [`Timeline`] of one epoch.
pub fn timeline(r: &EpochResult) -> Timeline {
    let n = r.threads.max(1);
    let mut last = vec![0.0f64; n];
    let mut gaps_ms = Vec::with_capacity(r.callbacks.len());
    for &(idx, t) in &r.callbacks {
        gaps_ms.push((t - last[idx % n]) * 1e3);
        last[idx % n] = t;
    }
    let lo = last.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = last.iter().copied().fold(0.0, f64::max);
    Timeline {
        gaps_ms,
        imbalance: ratio(hi - lo, r.wall),
    }
}

/// Runs the untimed warm-up epoch over `targets` and records its checks:
/// every batch validated against the oracle when `validate_all`, else the
/// first batch only; plus the validator canary on a real sample. Also
/// records the engine and the granted ring setup.
pub fn warm_up(
    sampler: &RingSampler,
    targets: &[NodeId],
    reference: &RefGraph,
    validate_all: bool,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<EpochResult, String> {
    let cfg = sampler.config();
    let warm = run_epoch(
        sampler,
        targets,
        validate_all.then_some(reference),
        1,
        tracer,
    )?;
    let (idx, sample) = warm
        .captured
        .first()
        .cloned()
        .ok_or("warm-up captured no batch")?;
    let seeds = &targets[idx * cfg.batch_size..((idx + 1) * cfg.batch_size).min(targets.len())];
    let first = validate_batch(reference, seeds, &cfg.fanouts, &sample)
        .map_err(|e| format!("batch {idx}: {e}"));
    out.op(first.and(warm.errors.first().map_or(Ok(()), |e| Err(e.clone()))));
    out.op(crate::validator_canary(
        reference,
        seeds,
        &cfg.fanouts,
        sample,
    ));
    out.fact(
        "engine",
        sampler.worker().map_err(|e| e.to_string())?.engine_name(),
    );
    out.fact(
        "ring_requested",
        RingSetupInfo::flag_names(warm.ring_setup.requested_flags),
    );
    out.fact(
        "ring_granted",
        RingSetupInfo::flag_names(warm.ring_setup.granted_flags),
    );
    out.fact("ring_fd_registered", warm.ring_setup.ring_fd_registered);
    Ok(warm)
}

/// Each batch's latency (its gap in [`Timeline::gaps_ms`]) as the median
/// over `epochs`, indexed by batch.
fn per_batch_medians(epochs: &[EpochResult]) -> Vec<f64> {
    let mut by_batch: Vec<Vec<f64>> = Vec::new();
    for r in epochs {
        for (&(idx, _), gap) in r.callbacks.iter().zip(timeline(r).gaps_ms) {
            if by_batch.len() <= idx {
                by_batch.resize(idx + 1, Vec::new());
            }
            by_batch[idx].push(gap);
        }
    }
    by_batch.iter().map(|v| median(v)).collect()
}

/// What every timed epoch of a run shares.
struct EpochSet<'a> {
    workload: Workload,
    edge_path: &'a Path,
    targets: &'a [NodeId],
    /// Digest of the validated warm-up epoch.
    expect: u64,
}

/// Runs timed epochs until `seconds` of epoch wall time have passed (and
/// at least [`MIN_TIMED`]), checking each one's storage regime and that
/// its digest equals the validated epoch's.
fn timed_epochs(
    set: &EpochSet<'_>,
    sampler: &RingSampler,
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<Vec<EpochResult>, String> {
    let file_bytes = std::fs::metadata(set.edge_path)
        .map(|m| m.len())
        .unwrap_or(0);
    let mut results = Vec::new();
    let mut total = 0.0;
    while total < seconds || results.len() < MIN_TIMED {
        if set.workload.evicts() {
            sys::evict(set.edge_path)?;
        }
        let r = run_epoch(sampler, set.targets, None, 0, tracer)?;
        total += r.wall;
        let digest_ok = if r.digest == set.expect {
            Ok(())
        } else {
            Err(format!(
                "epoch digest {:#x} differs from the validated epoch's {:#x}",
                r.digest, set.expect
            ))
        };
        out.op(regime_check(set.workload, r.read_bytes, file_bytes)
            .and(digest_ok)
            .and(r.errors.first().map_or(Ok(()), |e| Err(e.clone()))));
        results.push(r);
    }
    Ok(results)
}

fn epoch_seconds(rs: &[EpochResult]) -> f64 {
    median(&rs.iter().map(|r| r.wall).collect::<Vec<_>>())
}

/// Runs an epoch workload and appends its metrics to `out`.
pub fn run(
    args: &Args,
    inputs: &Inputs,
    built: &Built,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let sampler = &built.sampler;
    let mut targets = epoch_targets(inputs.nodes, 0, args.seed);
    targets.truncate(EPOCH_TARGETS);

    // Untimed warm-up epoch, validated in full against the oracle.
    if args.workload.evicts() {
        sys::evict(&built.edge_path)?;
    }
    let warm = warm_up(sampler, &targets, &inputs.reference, true, tracer, out)?;
    out.fact("targets_per_epoch", targets.len());
    let set = EpochSet {
        workload: args.workload,
        edge_path: &built.edge_path,
        targets: &targets,
        expect: warm.digest,
    };
    out.fact("digest", format!("{:#018x}", warm.digest));

    if !args.trace {
        let timed = timed_epochs(&set, sampler, args.seconds, tracer, out)?;
        out.fact("timed_epochs", timed.len());
        let per_epoch =
            |f: &dyn Fn(&EpochResult) -> f64| median(&timed.iter().map(f).collect::<Vec<_>>());
        // Every epoch samples the same batches, so each batch's latency is
        // taken as its median over the timed epochs; p50/p99 are then over
        // the batches.
        let batch_ms = per_batch_medians(&timed);
        out.fact("latency_samples", batch_ms.len());
        out.metric("epoch_s", per_epoch(&|r| r.wall), "s");
        out.metric(
            "edges_per_s",
            per_epoch(&|r| r.metrics.sampled_edges as f64 / r.wall),
            "1/s",
        );
        out.metric("cpu_s_per_epoch", per_epoch(&|r| r.user + r.sys), "s");
        out.metric("p50_ms", median(&batch_ms), "ms");
        out.metric("p99_ms", quantile(&batch_ms, 0.99), "ms");
        out.metric(
            "targets_per_s",
            per_epoch(&|r| targets.len() as f64 / r.wall),
            "1/s",
        );
        return Ok(());
    }

    // Traced run: the traced sampler (raised event ring, spans on), then
    // the shipped configuration untraced, then observability off.
    let third = args.seconds / 3.0;
    let traced = timed_epochs(&set, sampler, third, tracer, out)?;
    let (shipped, dark) = crate::comparison_samplers(sampler, args)?;
    let quiet = Tracer::new(false);
    let plain = timed_epochs(&set, &shipped, third, &quiet, out)?;
    let off = timed_epochs(&set, &dark, third, &quiet, out)?;

    let mut gaps = Vec::new();
    let mut imbalance = Vec::new();
    let mut first_ms = Vec::new();
    let mut m = SampleMetrics::default();
    let mut stages = Stages::default();
    for r in &traced {
        let tl = timeline(r);
        first_ms.push(r.stages.setup_ns as f64 * 1e-6);
        imbalance.push(tl.imbalance);
        gaps.extend(tl.gaps_ms);
        m.merge(&r.metrics);
        stages.add(&r.stages);
    }
    out.metric("engine.batch_ms.p50", median(&gaps), "ms");
    out.metric("engine.batch_ms.p99", quantile(&gaps, 0.99), "ms");
    out.metric("engine.imbalance_share", median(&imbalance), "share");
    out.metric("engine.first_batch_ms", median(&first_ms), "ms");
    out.metric("worker.request_ms.p50", 0.0, "ms");
    out.metric("worker.request_ms.p99", 0.0, "ms");
    report_io_counters(&m, out);
    let read: u64 = traced.iter().map(|r| r.read_bytes).sum();
    out.metric(
        "io.physical_bytes_per_logical",
        ratio(
            read as f64,
            (m.sampled_edges * ringsampler_graph::ENTRY_BYTES) as f64,
        ),
        "ratio",
    );
    let user: f64 = traced.iter().map(|r| r.user).sum();
    let sys_s: f64 = traced.iter().map(|r| r.sys).sum();
    out.metric(
        "cpu.user_s_per_epoch",
        median(&traced.iter().map(|r| r.user).collect::<Vec<_>>()),
        "s",
    );
    out.metric("cpu.sys_share", ratio(sys_s, user + sys_s), "share");
    out.metric(
        "cache.hit_ratio",
        ratio(m.cache_hits as f64, (m.cache_hits + m.cache_misses) as f64),
        "share",
    );
    stages.report(out);
    let (t_a, t_b, t_c) = (
        epoch_seconds(&traced),
        epoch_seconds(&plain),
        epoch_seconds(&off),
    );
    out.metric("ringstat.overhead_share", ratio(t_b, t_c) - 1.0, "share");
    out.metric("trace.overhead_share", ratio(t_a, t_b) - 1.0, "share");
    out.metric("serve.late_ms.p99", 0.0, "ms");
    out.metric("serve.open_p50_ms", 0.0, "ms");
    out.metric("serve.open_p99_ms", 0.0, "ms");
    let frontiers = replay::frontiers(&warm.captured);
    replay::run(
        sampler,
        &frontiers,
        args.workload.evicts(),
        args.seed,
        tracer,
        out,
    )
}

/// The exact I/O counters every report carries, as per-layer metrics.
pub fn report_io_counters(m: &SampleMetrics, out: &mut Outcome) {
    out.metric(
        "io.requests_per_edge",
        ratio(m.io_requests as f64, m.sampled_edges as f64),
        "ratio",
    );
    out.metric(
        "io.syscalls_per_group",
        ratio(m.syscalls as f64, m.io_groups as f64),
        "ratio",
    );
    out.metric(
        "io.reads_per_enter",
        ratio(m.io_requests as f64, m.syscalls as f64),
        "ratio",
    );
}
