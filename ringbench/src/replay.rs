//! Per-layer replays for the traced run.
//!
//! The frontiers (per-layer target lists) of a real mini-batch are fed
//! back through each layer's public entry point on its own, so each
//! layer's cost is measured without the others around it:
//!
//! * `OffsetSampler::sample_range` over every target of every frontier;
//! * `ReadPlanner::plan` over the drawn entry lists, in the shipped
//!   `read_plan` mode and in `coalesce`;
//! * `PageCache::get`/`insert` over the entries' page stream, the way the
//!   cached fetch path uses them;
//! * `submit_group`/`complete_group` of the default engine's reader over
//!   the request slices the shipped fetch path would issue (after
//!   eviction in the out-of-core regime).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use ringsampler::cache::{page_of, PageCache, PAGE_SIZE};
use ringsampler::sampling::OffsetSampler;
use ringsampler::{BatchSample, CachePolicy, MemoryBudget, ReadPlanMode, ReadPlanner, RingSampler};
use ringsampler_graph::{NodeId, OnDiskGraph, ENTRY_BYTES};
use ringsampler_io::engine::ReadSlice;

use crate::spans::Tracer;
use crate::stats::{quantile, ratio};
use crate::{meta, sys, Outcome, OOC_CACHE_BYTES};

/// One layer's input: its fanout and its (unique) target nodes.
pub struct Frontier {
    /// The layer's fanout.
    pub fanout: usize,
    /// The layer's targets.
    pub targets: Vec<NodeId>,
}

/// The per-layer frontiers of real samples.
pub fn frontiers(samples: &[(usize, BatchSample)]) -> Vec<Frontier> {
    samples
        .iter()
        .flat_map(|(_, s)| s.layers.iter())
        .map(|l| Frontier {
            fanout: l.fanout,
            targets: l.targets.clone(),
        })
        .collect()
}

/// Replays `frontiers` through each layer and reports the per-layer
/// metrics `sampling.*`, `plan.*`, `cache.ns_per_lookup` and `io.*`
/// (replayed part).
pub fn run(
    sampler: &RingSampler,
    frontiers: &[Frontier],
    evict: bool,
    seed: u64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let graph = sampler.graph();
    let cfg = sampler.config();

    // Sampling: draw every frontier's offsets.
    let mut offsets = OffsetSampler::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries: Vec<Vec<u64>> = Vec::with_capacity(frontiers.len());
    let (mut ns, mut drawn) = (0u64, 0u64);
    for (k, f) in frontiers.iter().enumerate() {
        let mut e = Vec::new();
        let t0 = Instant::now();
        for &t in &f.targets {
            let r = graph.neighbor_range(t);
            offsets.sample_range(r.start, r.end, f.fanout, &mut rng, &mut e);
        }
        let t1 = Instant::now();
        tracer.record(
            meta(
                0,
                0,
                "OffsetSampler::sample_range",
                "sampling",
                k as u64,
                f.targets.len() as u64,
            ),
            t0,
            t1,
        );
        ns += (t1 - t0).as_nanos() as u64;
        drawn += e.len() as u64;
        entries.push(e);
    }
    out.metric(
        "sampling.ns_per_offset",
        ratio(ns as f64, drawn as f64),
        "ns",
    );

    // Planning, shipped mode and coalesce.
    let base = OnDiskGraph::entry_byte_offset(0);
    let mut planner = ReadPlanner::new();
    let mut shipped_slices: Vec<Vec<ReadSlice>> = Vec::new();
    for (label, mode) in [
        ("shipped", cfg.read_plan),
        ("coalesce", ReadPlanMode::coalesce()),
    ] {
        let (mut ns, mut slices) = (0u64, 0u64);
        for (k, e) in entries.iter().enumerate() {
            let t0 = Instant::now();
            let stats = planner.plan(e, base, ENTRY_BYTES as u32, mode);
            let t1 = Instant::now();
            tracer.record(meta(0, 0, "ReadPlanner::plan", "plan", k as u64, 1), t0, t1);
            ns += (t1 - t0).as_nanos() as u64;
            slices += stats.planned_reads;
            if label == "shipped" {
                shipped_slices.push(planner.slices().to_vec());
            }
        }
        out.metric(
            &format!("plan.{label}.ns_per_entry"),
            ratio(ns as f64, drawn as f64),
            "ns",
        );
        out.metric(
            &format!("plan.{label}.slices_per_entry"),
            ratio(slices as f64, drawn as f64),
            "ratio",
        );
    }

    // Page cache: look every entry up, then fill the unique miss pages,
    // as the cached fetch path does per layer.
    let budget = match cfg.cache {
        CachePolicy::Page { budget_bytes } => budget_bytes,
        CachePolicy::None => OOC_CACHE_BYTES,
    };
    let mut cache =
        PageCache::new(budget, &MemoryBudget::unlimited()).map_err(|e| e.to_string())?;
    let page = vec![0u8; PAGE_SIZE];
    let mut miss_pages: Vec<Vec<u64>> = Vec::with_capacity(entries.len());
    let mut ns = 0u64;
    for (k, e) in entries.iter().enumerate() {
        let mut misses = Vec::new();
        let t0 = Instant::now();
        for &entry in e {
            let (p, _) = page_of(OnDiskGraph::entry_byte_offset(entry));
            if cache.get(p).is_none() {
                misses.push(p);
            }
        }
        misses.sort_unstable();
        misses.dedup();
        for &p in &misses {
            cache.insert(p, &page);
        }
        let t1 = Instant::now();
        tracer.record(
            meta(
                0,
                0,
                "PageCache::{get,insert}",
                "cache",
                k as u64,
                (e.len() + misses.len()) as u64,
            ),
            t0,
            t1,
        );
        ns += (t1 - t0).as_nanos() as u64;
        miss_pages.push(misses);
    }
    out.metric("cache.ns_per_lookup", ratio(ns as f64, drawn as f64), "ns");

    // I/O: the request stream the shipped fetch path issues — 4 KiB miss
    // pages with a page cache, the planned entry slices without.
    let file_len = std::fs::metadata(graph.edge_path())
        .map(|m| m.len())
        .unwrap_or(0);
    let requests: Vec<Vec<ReadSlice>> = match cfg.cache {
        CachePolicy::Page { .. } => miss_pages
            .iter()
            .map(|pages| {
                pages
                    .iter()
                    .map(|&p| p * PAGE_SIZE as u64)
                    .filter(|&off| off < file_len)
                    .map(|off| ReadSlice::new(off, (file_len - off).min(PAGE_SIZE as u64) as u32))
                    .collect()
            })
            .collect(),
        CachePolicy::None => shipped_slices,
    };
    if evict {
        sys::evict(graph.edge_path())?;
    }
    let mut reader = ringsampler_io::open_reader(graph.edge_path(), cfg.ring_entries, cfg.engine)
        .map_err(|e| format!("open reader: {e}"))?;
    let qd = reader.queue_depth().max(1);
    let (mut submit_ns, mut total_ns, mut sqes) = (0u64, 0u64, 0u64);
    let mut group_ms = Vec::new();
    let mut buf = Vec::new();
    let mut group = 0u64;
    for slices in &requests {
        for chunk in slices.chunks(qd) {
            let t0 = Instant::now();
            let token = reader
                .submit_group(chunk, std::mem::take(&mut buf))
                .map_err(|e| format!("submit_group: {e}"))?;
            let t1 = Instant::now();
            buf = reader
                .complete_group(token)
                .map_err(|e| format!("complete_group: {e}"))?;
            let t2 = Instant::now();
            tracer.record(
                meta(
                    0,
                    0,
                    "GroupReader::submit_group",
                    "io",
                    group,
                    chunk.len() as u64,
                ),
                t0,
                t1,
            );
            tracer.record(
                meta(0, 0, "GroupReader::complete_group", "io", group, 1),
                t1,
                t2,
            );
            submit_ns += (t1 - t0).as_nanos() as u64;
            total_ns += (t2 - t0).as_nanos() as u64;
            sqes += chunk.len() as u64;
            group_ms.push((t2 - t0).as_secs_f64() * 1e3);
            group += 1;
        }
    }
    out.fact("replay_engine", reader.engine_name());
    out.metric("io.ns_per_sqe", ratio(total_ns as f64, sqes as f64), "ns");
    out.metric(
        "io.submit_share",
        ratio(submit_ns as f64, total_ns as f64),
        "share",
    );
    out.metric("io.group_ms.p50", quantile(&group_ms, 0.5), "ms");
    out.metric("io.group_ms.p99", quantile(&group_ms, 0.99), "ms");
    Ok(())
}
