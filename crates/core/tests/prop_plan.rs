//! Property tests for the read planner: on arbitrary random graphs —
//! skewed and uniform — every [`ReadPlanMode`], cache policy, I/O engine,
//! and replacement setting produces **byte-identical** samples, and the
//! planner's request lists obey the structural invariants (sorted,
//! non-overlapping after dedup, never more requests than the naive plan).

use proptest::prelude::*;

use ringsampler::{CachePolicy, ReadPlanMode, ReadPlanner, RingMode, RingSampler, SamplerConfig};
use ringsampler_graph::edgefile::write_csr;
use ringsampler_graph::{CsrGraph, NodeId, OnDiskGraph, ENTRY_BYTES};
use ringsampler_io::EngineKind;

static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Degree skew of a generated test graph.
#[derive(Debug, Clone, Copy)]
enum Skew {
    /// Every node has roughly the same degree.
    Uniform,
    /// A few hub nodes absorb most edges (power-law-ish), so sampled
    /// entries collide heavily — the planner's best case.
    Skewed,
}

fn build_graph(nodes: u32, edges_per_node: u32, skew: Skew, seed: u64) -> OnDiskGraph {
    let id = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let base =
        std::env::temp_dir().join(format!("rs-prop-plan-{}-{id}", std::process::id()));
    // Simple deterministic LCG so edge structure depends only on (seed).
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut edge_list = Vec::new();
    for v in 0..nodes {
        for _ in 0..edges_per_node {
            let dst = match skew {
                Skew::Uniform => (next() % nodes as u64) as u32,
                // Square a uniform draw: mass concentrates near node 0.
                Skew::Skewed => {
                    let r = (next() % (nodes as u64 * nodes as u64)) as f64;
                    (r.sqrt() as u32).min(nodes - 1)
                }
            };
            edge_list.push((v, dst));
        }
    }
    let csr = CsrGraph::from_edges(nodes as usize, edge_list).unwrap();
    write_csr(&csr, &base).unwrap()
}

fn arb_mode() -> impl Strategy<Value = ReadPlanMode> {
    (0u8..5).prop_map(|i| match i {
        0 => ReadPlanMode::Off,
        1 => ReadPlanMode::Dedup,
        2 => ReadPlanMode::Coalesce { gap: 0 },
        3 => ReadPlanMode::Coalesce { gap: 64 },
        _ => ReadPlanMode::coalesce(),
    })
}

fn arb_skew() -> impl Strategy<Value = Skew> {
    (0u8..2).prop_map(|i| if i == 0 { Skew::Uniform } else { Skew::Skewed })
}

fn arb_bool() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|i| i == 1)
}

fn arb_ring_mode() -> impl Strategy<Value = RingMode> {
    (0..RingMode::ALL.len()).prop_map(|i| RingMode::ALL[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential: every plan mode × ring mode × cache × engine ×
    /// replacement yields the exact sample the naive (Off, raw, no-cache,
    /// ring-mode-off) path does — the zero-syscall ladder must be
    /// byte-invisible in sampling output on every rung.
    #[test]
    fn all_modes_agree_with_naive(
        mode in arb_mode(),
        ring_mode in arb_ring_mode(),
        skew in arb_skew(),
        cached in arb_bool(),
        engine_uring in arb_bool(),
        replace in arb_bool(),
        seed in 0u64..1_000,
    ) {
        let nodes = 96u32;
        let graph = build_graph(nodes, 6, skew, seed);
        let graph_b = build_graph(nodes, 6, skew, seed);
        let engine = if engine_uring { EngineKind::Uring } else { EngineKind::Pread };
        let mk = |g, mode, ring_mode, cached: bool, engine| {
            let mut cfg = SamplerConfig::new()
                .fanouts(&[5, 3])
                .ring_entries(8)
                .threads(1)
                .batch_size(nodes as usize)
                .seed(seed ^ 0xABCD)
                .with_replacement(replace)
                .engine(engine)
                .ring_mode(ring_mode)
                .read_plan(mode);
            if cached {
                cfg = cfg.cache(CachePolicy::Page { budget_bytes: 96 * 4160 });
            }
            RingSampler::new(g, cfg).unwrap()
        };
        let seeds: Vec<NodeId> = (0..nodes).collect();
        let naive = mk(graph, ReadPlanMode::Off, RingMode::Off, false, EngineKind::Pread);
        let tuned = mk(graph_b, mode, ring_mode, cached, engine);
        let want = std::sync::Mutex::new(None);
        naive.sample_epoch_with(&seeds, |_, s| {
            *want.lock().unwrap() = Some(s);
        }).unwrap();
        let got = std::sync::Mutex::new(None);
        tuned.sample_epoch_with(&seeds, |_, s| {
            *got.lock().unwrap() = Some(s);
        }).unwrap();
        prop_assert_eq!(
            got.into_inner().unwrap(),
            want.into_inner().unwrap()
        );
    }

    /// Structural invariants of the planner itself on arbitrary entry
    /// streams: requests sorted by offset, non-overlapping after dedup,
    /// and never more numerous than the naive one-per-entry plan.
    #[test]
    fn plans_are_sorted_nonoverlapping_and_no_larger(
        entries in proptest::collection::vec(0u64..10_000, 0..512),
        mode in arb_mode(),
        base in 0u64..1_000,
    ) {
        let mut planner = ReadPlanner::new();
        let stats = planner.plan(&entries, base, ENTRY_BYTES as u32, mode);
        let slices = planner.slices();
        prop_assert!(slices.len() <= entries.len());
        prop_assert_eq!(stats.naive_reads, entries.len() as u64);
        prop_assert_eq!(
            stats.planned_reads as usize, slices.len()
        );
        let mut prev_end = None;
        for s in slices {
            if let Some(pe) = prev_end {
                if mode.is_off() {
                    // Off preserves input order: no ordering guarantee.
                } else {
                    // Sorted and disjoint after dedup/coalescing.
                    prop_assert!(s.offset >= pe, "slices must not overlap");
                }
            }
            prev_end = Some(s.offset + s.len as u64);
        }
        // The scatter map covers every input entry and points inside the
        // planned payload.
        let payload: u64 = slices.iter().map(|s| s.len as u64).sum();
        prop_assert_eq!(planner.scatter().len(), entries.len());
        for &p in planner.scatter() {
            prop_assert!(p + ENTRY_BYTES <= payload);
        }
    }

    /// Dedup on a duplicate-heavy stream must strictly shrink the plan.
    #[test]
    fn dedup_shrinks_duplicate_streams(
        uniques in proptest::collection::vec(0u64..100, 1..32),
        dup_factor in 2usize..6,
    ) {
        let mut entries = Vec::new();
        for _ in 0..dup_factor {
            entries.extend_from_slice(&uniques);
        }
        let mut planner = ReadPlanner::new();
        let stats = planner.plan(&entries, 0, ENTRY_BYTES as u32, ReadPlanMode::Dedup);
        prop_assert!(stats.planned_reads < entries.len() as u64);
        prop_assert!(stats.reads_saved() >= (entries.len() - uniques.len()) as u64);
    }
}
