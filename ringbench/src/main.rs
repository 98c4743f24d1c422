//! `ringbench` — RingSampler's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ringbench/Cargo.toml -- \
//!     --workload epoch-warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process generates a workload's graph from `--seed`, builds it with
//! `build_dataset` + `RingSampler::new` (the set-up being measured),
//! samples for `--seconds`, validates the samples against an independent
//! in-memory CSR, and prints one JSON object as its last line of output.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes a
//! traced run that reports per-layer metrics and writes a span file.
//! See `ringbench/README.md` for the workloads and every metric.

mod check;
mod epoch;
mod replay;
mod serve;
mod spans;
mod stats;
mod sys;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ringsampler::{CachePolicy, RingSampler, SamplerConfig};
use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
use ringsampler_graph::{DatasetId, DatasetSpec, NodeId};

use check::RefGraph;
use spans::{SpanMeta, Tracer};

/// Down-scale of the paper's Table-1 graphs (EXPERIMENTS.md scale).
const SCALE: u64 = 400;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Per-worker page-cache budget of `epoch-outofcore`: far below the
/// 36 MB edge file, so the cache holds only the hottest pages.
pub const OOC_CACHE_BYTES: u64 = 4 << 20;
/// Event-ring capacity of the traced run, raised from the shipped 8192
/// so a whole epoch's lifecycle events fit (drops are still reported).
pub const TRACE_CAPACITY: usize = 1 << 18;
/// Failure descriptions kept for stderr.
const MAX_ERRORS: usize = 16;
/// Scratch directory, relative to the working directory.
const OUT_DIR: &str = ".ringbench";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ogbn-papers shape, default config, edge file page-cache resident.
    EpochWarm,
    /// Friendster shape, small page cache, edge file evicted per epoch.
    EpochOutOfCore,
    /// Batch-of-one requests on the `epoch-warm` graph.
    ServeOgbn,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::EpochWarm,
        Workload::EpochOutOfCore,
        Workload::ServeOgbn,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::EpochWarm => "epoch-warm",
            Workload::EpochOutOfCore => "epoch-outofcore",
            Workload::ServeOgbn => "serve-ogbn",
        }
    }

    fn dataset(self) -> DatasetId {
        match self {
            Workload::EpochOutOfCore => DatasetId::Friendster,
            Workload::EpochWarm | Workload::ServeOgbn => DatasetId::OgbnPapers,
        }
    }

    /// Whether the edge file is evicted before every timed epoch.
    pub fn evicts(self) -> bool {
        self == Workload::EpochOutOfCore
    }

    /// The workload's configuration: the shipped defaults plus only what
    /// defines the workload.
    fn config(self, seed: u64) -> SamplerConfig {
        let cfg = SamplerConfig::new().seed(seed);
        match self {
            Workload::EpochOutOfCore => cfg.cache(CachePolicy::Page {
                budget_bytes: OOC_CACHE_BYTES,
            }),
            Workload::EpochWarm | Workload::ServeOgbn => cfg,
        }
    }
}

/// Parsed command line.
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `RS_*` variables change `SamplerConfig::default()` (`RS_RING_MODE`)
/// or the repository's harness knobs; the benchmark measures the shipped
/// defaults, so it removes them all before any config is built and
/// reports which it removed.
fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("RS_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// A named measurement.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Sampling operations attempted (epochs, requests, validator canaries).
    pub attempted: u64,
    /// Operations that erred, failed validation, or failed a regime check.
    pub failed: u64,
    /// First few failure descriptions (printed to stderr).
    pub errors: Vec<String>,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Effective configuration and run facts, printed before the result.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records one operation and whether it succeeded.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }

    /// Folds another outcome's operations and failures into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_ERRORS.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.into_iter().take(room));
    }

    /// Records a fact about the run.
    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.to_string(), value.to_string()));
    }
}

/// The generated workload inputs (benchmark-owned, built before the
/// measured program phase).
pub struct Inputs {
    /// Node count.
    pub nodes: u64,
    /// The generated edge list.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Oracle CSR over the same edges.
    pub reference: RefGraph,
}

fn make_inputs(w: Workload, seed: u64) -> Inputs {
    let spec = DatasetSpec::scaled(w.dataset(), SCALE);
    let nodes = spec.num_nodes();
    let edges: Vec<(NodeId, NodeId)> = spec.generator.stream(spec.seed ^ seed).collect();
    let reference = RefGraph::from_edges(nodes as usize, &edges);
    Inputs {
        nodes,
        edges,
        reference,
    }
}

/// The measured set-up's product.
pub struct Built {
    /// The sampler from the last set-up.
    pub sampler: RingSampler,
    /// Wall seconds of each set-up (`build_dataset` + `RingSampler::new`).
    pub setup_s: Vec<f64>,
    /// Wall seconds of each `build_dataset`.
    pub build_s: Vec<f64>,
    /// The edge file.
    pub edge_path: PathBuf,
    /// Edge file + offset index bytes.
    pub stored_bytes: u64,
}

fn setup(
    inputs: &Inputs,
    cfg: &SamplerConfig,
    dir: &Path,
    tracer: &Tracer,
) -> Result<Built, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let base = dir.join("graph");
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let graph = build_dataset(
            inputs.nodes,
            inputs.edges.iter().copied(),
            &base,
            &PreprocessOptions::default(),
        )
        .map_err(|e| format!("build_dataset: {e}"))?;
        let t1 = Instant::now();
        let sampler =
            RingSampler::new(graph, cfg.clone()).map_err(|e| format!("RingSampler::new: {e}"))?;
        let t2 = Instant::now();
        tracer.root("build_dataset", "graph", t0, t1);
        tracer.root("RingSampler::new", "engine", t1, t2);
        build_s.push((t1 - t0).as_secs_f64());
        setup_s.push((t2 - t0).as_secs_f64());
        // Write this set-up's files back before the next set-up or the
        // first epoch starts, so neither competes with its write-back.
        sys::flush(sampler.graph().edge_path())?;
        sys::flush(&base.with_extension("rsix"))?;
        last = Some(sampler);
    }
    let sampler = last.ok_or("no set-up ran")?;
    let edge_path = sampler.graph().edge_path().to_path_buf();
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    let stored_bytes = size(&edge_path) + size(&base.with_extension("rsix"));
    Ok(Built {
        sampler,
        setup_s,
        build_s,
        edge_path,
        stored_bytes,
    })
}

/// The traced run's two reference samplers over the same graph: the
/// workload's shipped configuration (no raised event ring), and the same
/// with all observability off.
pub fn comparison_samplers(
    sampler: &RingSampler,
    args: &Args,
) -> Result<(RingSampler, RingSampler), String> {
    let cfg = args.workload.config(args.seed);
    let dark = cfg
        .clone()
        .profile_resources(false)
        .trace_capacity(0)
        .span_capacity(0);
    let build = |cfg| RingSampler::new(sampler.graph().clone(), cfg).map_err(|e| e.to_string());
    Ok((build(cfg)?, build(dark)?))
}

/// Checks the storage regime of one timed epoch or serving phase from the
/// bytes it read from the device.
pub fn regime_check(w: Workload, read_bytes: u64, file_bytes: u64) -> Result<(), String> {
    if w.evicts() && read_bytes < file_bytes {
        Err(format!(
            "{}: epoch read {read_bytes} B from the device, below the {file_bytes} B edge file — eviction did not take",
            w.name()
        ))
    } else if !w.evicts() && read_bytes != 0 {
        Err(format!(
            "{}: {read_bytes} B read from the device in the page-cache-resident regime",
            w.name()
        ))
    } else {
        Ok(())
    }
}

/// Corrupts a copy of a real sample and requires the validator to reject
/// it — proves on every run that the correctness check is live.
pub fn validator_canary(
    reference: &RefGraph,
    seeds: &[NodeId],
    fanouts: &[usize],
    mut sample: ringsampler::BatchSample,
) -> Result<(), String> {
    let layer = sample.layers.last_mut().ok_or("empty sample")?;
    match (layer.dst.pop(), layer.src_pos.pop()) {
        (Some(_), Some(_)) => {}
        _ => return Err("canary: sample has no edges to corrupt".into()),
    }
    match check::validate_batch(reference, seeds, fanouts, &sample) {
        Err(_) => Ok(()),
        Ok(()) => Err("canary: validator accepted a corrupted sample".into()),
    }
}

fn json_string(s: &str) -> String {
    ringstat::Json::str(s).to_string_compact()
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let scrubbed = scrub_env();
    let w = args.workload;
    let out_dir = PathBuf::from(OUT_DIR).join(w.name());
    let tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();

    // Benchmark-owned inputs first; the peak-RSS window opens after them.
    let inputs = make_inputs(w, args.seed);
    let rss_base = sys::rss_bytes();
    sys::reset_peak_rss()?;

    let mut cfg = w.config(args.seed);
    if args.trace {
        cfg = cfg.trace_capacity(TRACE_CAPACITY);
    }
    let built = setup(&inputs, &cfg, &out_dir.join("data"), &tracer)?;

    out.fact("workload", w.name());
    out.fact("seed", args.seed);
    out.fact("scale", SCALE);
    out.fact("nodes", inputs.nodes);
    out.fact("edges", inputs.edges.len());
    out.fact(
        "edge_file_bytes",
        std::fs::metadata(&built.edge_path)
            .map(|m| m.len())
            .unwrap_or(0),
    );
    out.fact("threads", cfg.num_threads);
    out.fact(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    out.fact("fanouts", format!("{:?}", cfg.fanouts));
    out.fact("batch_size", cfg.batch_size);
    out.fact("read_plan", format!("{:?}", cfg.read_plan));
    out.fact("ring_mode", cfg.ring_mode);
    out.fact("cache", format!("{:?}", cfg.cache));
    out.fact("pipeline", format!("{:?}", cfg.pipeline));
    out.fact("scrubbed_env", scrubbed.join(","));

    match w {
        Workload::EpochWarm | Workload::EpochOutOfCore => {
            epoch::run(&args, &inputs, &built, &tracer, &mut out)?
        }
        Workload::ServeOgbn => serve::run(&args, &inputs, &built, &tracer, &mut out)?,
    }

    if args.trace {
        out.metric("graph.build_s", stats::median(&built.build_s), "s");
        out.metric(
            "graph.bytes_per_edge",
            stats::ratio(built.stored_bytes as f64, inputs.edges.len() as f64),
            "B",
        );
        let spans = tracer.spans();
        let layers = spans::layer_self_seconds(&spans);
        for layer in [
            "graph", "engine", "bench", "worker", "sampling", "plan", "io", "cache",
        ] {
            out.metric(
                &format!("self_s.{layer}"),
                layers.get(layer).copied().unwrap_or(0.0),
                "s",
            );
        }
        let path = out_dir.join(format!("spans-seed{}.json", args.seed));
        spans::write_file(&path, &spans).map_err(|e| format!("span file: {e}"))?;
        out.fact("span_file", path.display());
        out.fact("spans", spans.len());
    } else {
        out.metric("setup_s", stats::median(&built.setup_s), "s");
        let peak = sys::peak_rss_bytes().saturating_sub(rss_base);
        out.metric("peak_rss_mb", peak as f64 / (1 << 20) as f64, "MB");
    }
    out.fact(
        "fail_share",
        stats::ratio(out.failed as f64, out.attempted as f64),
    );

    let mut facts = ringstat::Json::object();
    for (k, v) in &out.facts {
        facts.push(k, ringstat::Json::str(v));
    }
    println!("config {}", facts.to_string_compact());
    for e in &out.errors {
        eprintln!("ringbench: FAILED: {e}");
    }
    let correct = out.failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_string(&m.name),
            m.value,
            json_string(m.unit)
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("ringbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Span metadata shorthand for call sites.
pub fn meta(
    id: u64,
    parent: u64,
    name: &'static str,
    layer: &'static str,
    key: u64,
    calls: u64,
) -> SpanMeta {
    SpanMeta {
        id,
        parent,
        name,
        layer,
        key,
        calls,
    }
}
