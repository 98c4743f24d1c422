//! Ring-mode ladder A/B: `off` → `registered` → `defer_taskrun` on a
//! skewed power-law graph with replacement sampling.
//!
//! Every rung samples the same epoch with the same seed; the binary
//! cross-checks that all rungs produce identical samples (a commutative
//! checksum over every mini-batch) and exits nonzero on divergence —
//! the zero-syscall ladder must be byte-invisible in sampling output.
//! Each row reports the enter-syscalls-per-I/O-group the rung actually
//! paid, plus the granted-vs-requested setup flags so a refusing kernel
//! is visible in the table rather than silently averaged in. Per-group
//! (not per-batch) is the honest metric: on page-cache-hot data every
//! mode is bounded by SQ capacity at roughly one enter per queue-depth
//! SQEs per batch, while deferred submission genuinely amortizes one
//! enter across a whole in-flight window of groups.
//!
//! With `RS_RING_ASSERT=1` (the CI gate) the binary additionally fails
//! unless the `defer_taskrun` rung cut enter syscalls per I/O group by
//! at least 50% vs `off` — skipped with a notice when the kernel refused
//! the setup flags, since there is nothing to measure then.
//!
//! Knobs: `RS_RING_NODES` / `RS_RING_EDGES` (graph shape, default
//! 10k/100k), `RS_TARGETS`, `RS_THREADS`, plus the standard
//! `--stats-json` / `--prometheus` artifact flags. `--bench-json PATH`
//! writes a compact perf-trajectory entry (committed as
//! `BENCH_ring_modes.json`) so future changes diff against a baseline.

use ringsampler::{epoch_targets, RingMode, RingSampler, SamplerConfig};
use ringsampler_bench::{emit_table, HarnessConfig, StatsSink};
use ringsampler_graph::gen::GeneratorSpec;
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_io::EngineKind;
use ringstat::Json;

const FANOUTS: [usize; 2] = [10, 5];

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Order-independent checksum of a batch sample (same construction as
/// `plan_compare`): per-batch digests combine with a commutative
/// wrapping add, keyed by batch index.
fn batch_digest(idx: usize, s: &ringsampler::BatchSample) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (idx as u64).wrapping_mul(0x100_0000_01b3);
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for layer in &s.layers {
        for &t in &layer.targets {
            fold(t as u64);
        }
        for &d in &layer.dst {
            fold(d as u64);
        }
        for &p in &layer.src_pos {
            fold(p as u64);
        }
    }
    h
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let h = HarnessConfig::from_env();
    let mut sink = StatsSink::from_args();
    let nodes = env_u64("RS_RING_NODES", 10_000);
    let edges = env_u64("RS_RING_EDGES", 100_000);
    let targets_n = (h.targets_per_epoch as u64).min(nodes) as usize;

    let caps = ringsampler_io::uring_caps();
    println!(
        "Ring-mode ladder: power-law graph ({nodes} nodes, {edges} edges), \
         fanout {FANOUTS:?} with replacement, {targets_n} targets, {} threads",
        h.threads
    );
    println!(
        "kernel caps: registered_ring_fds={} defer_taskrun={}\n",
        caps.registered_ring_fds, caps.defer_taskrun
    );

    let spec = GeneratorSpec::PowerLaw {
        nodes,
        edges,
        exponent: 0.7,
    };
    std::fs::create_dir_all(&h.data_dir)?;
    let base = h.data_dir.join(format!("ring-modes-{nodes}-{edges}"));
    let graph = build_dataset(nodes, spec.stream(42), &base, &PreprocessOptions::default())?;

    let mut targets = epoch_targets(graph.num_nodes(), 0, 0xBEEF);
    targets.truncate(targets_n);

    struct Row {
        label: String,
        seconds: f64,
        syscalls: u64,
        batches: u64,
        io_groups: u64,
        per_group: f64,
        fallbacks: u64,
        granted: u32,
        requested: u32,
        ring_fd: bool,
        lazy: bool,
        digest: u64,
    }
    let mut rows: Vec<Row> = Vec::new();

    for mode in RingMode::ALL {
        let cfg = SamplerConfig::new()
            .fanouts(&FANOUTS)
            .batch_size(256)
            .threads(h.threads)
            .with_replacement(true)
            .engine(EngineKind::Uring)
            .ring_mode(mode)
            .telemetry_opt(h.telemetry())
            .seed(7);
        let sampler = RingSampler::new(graph.clone(), cfg)?;
        let digest = std::sync::atomic::AtomicU64::new(0);
        let report = sampler.sample_epoch_with(&targets, |idx, s| {
            digest.fetch_add(batch_digest(idx, &s), std::sync::atomic::Ordering::Relaxed);
        })?;
        sink.note(&format!("ring_modes/{mode}"), &report);
        let io_groups = report.metrics.io_groups;
        rows.push(Row {
            label: mode.to_string(),
            seconds: report.wall.as_secs_f64(),
            syscalls: report.metrics.syscalls,
            batches: report.metrics.batches,
            io_groups,
            per_group: report.metrics.syscalls as f64 / io_groups.max(1) as f64,
            fallbacks: report.metrics.ring_mode_fallbacks,
            granted: report.ring_setup.granted_flags,
            requested: report.ring_setup.requested_flags,
            ring_fd: report.ring_setup.ring_fd_registered,
            lazy: report.ring_setup.lazy_submission,
            digest: digest.into_inner(),
        });
    }

    let base_per_group = rows.first().map(|r| r.per_group).unwrap_or(0.0).max(f64::MIN_POSITIVE);
    let header = format!(
        "{:<14} {:>8} {:>9} {:>9} {:>10} {:>8} {:>5} {:>9} {:>20}",
        "mode", "seconds", "syscalls", "io_groups", "sys/group", "vs off",
        "lazy", "fallbacks", "granted_flags"
    );
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            let delta = 100.0 * (1.0 - r.per_group / base_per_group);
            format!(
                "{:<14} {:>8.3} {:>9} {:>9} {:>10.2} {:>7.1}% {:>5} {:>9} {:>20}",
                r.label,
                r.seconds,
                r.syscalls,
                r.io_groups,
                r.per_group,
                delta,
                r.lazy,
                r.fallbacks,
                ringsampler_io::RingSetupInfo::flag_names(r.granted),
            )
        })
        .collect();
    emit_table("ring_modes", &header, &lines)?;
    sink.finish()?;

    let bench_json = std::env::args()
        .skip(1)
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--bench-json")
        .map(|w| w[1].clone());
    if let Some(path) = bench_json {
        let mut entries = Vec::with_capacity(rows.len());
        for r in &rows {
            entries.push(
                Json::object()
                    .with("mode", Json::str(&r.label))
                    .with("seconds", Json::F64(r.seconds))
                    .with("syscalls", Json::U64(r.syscalls))
                    .with("batches", Json::U64(r.batches))
                    .with("io_groups", Json::U64(r.io_groups))
                    .with("syscalls_per_group", Json::F64(r.per_group))
                    .with("ring_mode_fallbacks", Json::U64(r.fallbacks))
                    .with("requested_flags", Json::U64(r.requested as u64))
                    .with("granted_flags", Json::U64(r.granted as u64))
                    .with("ring_fd_registered", Json::Bool(r.ring_fd))
                    .with("lazy_submission", Json::Bool(r.lazy)),
            );
        }
        let doc = Json::object()
            .with("schema_version", Json::U64(1))
            .with("bench", Json::str("ring_modes"))
            .with(
                "workload",
                Json::object()
                    .with("nodes", Json::U64(nodes))
                    .with("edges", Json::U64(edges))
                    .with("targets", Json::U64(targets_n as u64))
                    .with("threads", Json::U64(h.threads as u64))
                    .with("batch_size", Json::U64(256)),
            )
            .with(
                "caps",
                Json::object()
                    .with("registered_ring_fds", Json::Bool(caps.registered_ring_fds))
                    .with("defer_taskrun", Json::Bool(caps.defer_taskrun)),
            )
            .with("variants", Json::Array(entries))
            .to_string_pretty();
        std::fs::write(&path, doc)?;
        eprintln!("wrote {path}");
    }

    // Correctness gate: every rung must produce the exact same epoch.
    let reference = rows.first().map(|r| r.digest).unwrap_or(0);
    for r in &rows {
        if r.digest != reference {
            eprintln!(
                "FAIL: mode {} diverged from off (digest {:#x} != {:#x})",
                r.label, r.digest, reference
            );
            std::process::exit(1);
        }
    }
    println!("\nall ring modes produced identical samples (digest {reference:#x})");

    // CI gate: the defer_taskrun rung must at least halve enter syscalls
    // per I/O group vs off — when the kernel actually granted the setup.
    if std::env::var("RS_RING_ASSERT").is_ok() {
        let defer = rows
            .iter()
            .find(|r| r.label == "defer_taskrun")
            .expect("defer_taskrun rung present");
        let granted_defer = defer.granted & (1 << 13) != 0; // DEFER_TASKRUN
        if !granted_defer || !defer.lazy {
            println!(
                "RS_RING_ASSERT skipped: kernel refused DEFER_TASKRUN setup \
                 (granted flags: {}); nothing to measure",
                ringsampler_io::RingSetupInfo::flag_names(defer.granted)
            );
        } else {
            let reduction = 100.0 * (1.0 - defer.per_group / base_per_group);
            if reduction < 50.0 {
                eprintln!(
                    "FAIL: defer_taskrun cut enter syscalls/group by only \
                     {reduction:.1}% (< 50%): {:.3} vs {:.3}",
                    defer.per_group, base_per_group
                );
                std::process::exit(1);
            }
            println!(
                "RS_RING_ASSERT ok: defer_taskrun cut enter syscalls/group by \
                 {reduction:.1}% ({:.3} vs {:.3})",
                defer.per_group, base_per_group
            );
        }
    }
    h.serve_linger();
    Ok(())
}
