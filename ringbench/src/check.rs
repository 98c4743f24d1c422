//! Correctness oracle: an independent CSR built from the generated edge
//! list, a full structural check of one sampled mini-batch against it,
//! and an order-independent sample digest.
//!
//! The oracle never touches the sampler's on-disk files, so a sampler
//! that reads the wrong entries, over- or under-samples, samples with
//! replacement, or builds the wrong next-layer frontier is caught.

use ringsampler::BatchSample;
use ringsampler_graph::NodeId;

/// In-memory CSR with every neighbor list sorted ascending.
pub struct RefGraph {
    offsets: Vec<u64>,
    nbrs: Vec<NodeId>,
}

impl RefGraph {
    /// Builds the CSR from `edges` (duplicates and self-loops kept, as
    /// the stored graph keeps them).
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut offsets = vec![0u64; num_nodes + 1];
        for &(s, _) in edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            offsets[i + 1] += offsets[i];
        }
        let mut fill: Vec<u64> = offsets[..num_nodes].to_vec();
        let mut nbrs = vec![0 as NodeId; edges.len()];
        for &(s, d) in edges {
            let slot = &mut fill[s as usize];
            nbrs[*slot as usize] = d;
            *slot += 1;
        }
        for v in 0..num_nodes {
            nbrs[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Self { offsets, nbrs }
    }

    fn neighbors(&self, v: NodeId) -> Option<&[NodeId]> {
        let lo = *self.offsets.get(v as usize)? as usize;
        let hi = *self.offsets.get(v as usize + 1)? as usize;
        Some(&self.nbrs[lo..hi])
    }
}

/// Checks one mini-batch sampled **without replacement** for `seeds`:
///
/// * one layer per fanout, the first layer's targets are `seeds`;
/// * every target gets exactly `min(degree, fanout)` samples, and its
///   samples are a sub-multiset of its neighbor list (so every sampled
///   edge exists and no neighbor entry is drawn twice);
/// * each later layer's targets are the previous layer's sorted unique
///   neighbors.
///
/// # Errors
/// A description of the first violation found.
pub fn validate_batch(
    g: &RefGraph,
    seeds: &[NodeId],
    fanouts: &[usize],
    sample: &BatchSample,
) -> Result<(), String> {
    if sample.layers.len() != fanouts.len() {
        return Err(format!(
            "{} layers for {} fanouts",
            sample.layers.len(),
            fanouts.len()
        ));
    }
    let mut expected_targets: Vec<NodeId> = seeds.to_vec();
    let mut per_target: Vec<Vec<NodeId>> = Vec::new();
    for (l, (layer, &fanout)) in sample.layers.iter().zip(fanouts).enumerate() {
        if layer.targets != expected_targets {
            return Err(format!(
                "layer {l}: targets differ from the expected frontier"
            ));
        }
        if layer.fanout != fanout || layer.src_pos.len() != layer.dst.len() {
            return Err(format!("layer {l}: malformed block"));
        }
        per_target.clear();
        per_target.resize(layer.targets.len(), Vec::new());
        for (&p, &d) in layer.src_pos.iter().zip(&layer.dst) {
            match per_target.get_mut(p as usize) {
                Some(v) => v.push(d),
                None => return Err(format!("layer {l}: src_pos {p} out of range")),
            }
        }
        for (&t, got) in layer.targets.iter().zip(per_target.iter_mut()) {
            let nbrs = g
                .neighbors(t)
                .ok_or_else(|| format!("layer {l}: target {t} is not a node"))?;
            let want = nbrs.len().min(fanout);
            if got.len() != want {
                return Err(format!(
                    "layer {l}: node {t} has {} samples, expected {want}",
                    got.len()
                ));
            }
            got.sort_unstable();
            let mut i = 0;
            while i < got.len() {
                let v = got[i];
                let run = got[i..].iter().take_while(|&&x| x == v).count();
                let avail = nbrs.partition_point(|&x| x <= v) - nbrs.partition_point(|&x| x < v);
                if run > avail {
                    return Err(format!(
                        "layer {l}: node {t} sampled neighbor {v} {run}x but has {avail} such edge(s)"
                    ));
                }
                i += run;
            }
        }
        expected_targets = layer.dst.clone();
        expected_targets.sort_unstable();
        expected_targets.dedup();
    }
    Ok(())
}

#[inline]
fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash of one batch's full sample content, keyed by its batch id.
/// Summing these (wrapping) gives a digest independent of the order in
/// which batches complete.
pub fn batch_digest(id: u64, sample: &BatchSample) -> u64 {
    let mut h = mix(id ^ 0x005E_EDD1_6E57);
    for layer in &sample.layers {
        h = mix(h ^ layer.targets.len() as u64);
        for &t in &layer.targets {
            h = mix(h ^ u64::from(t));
        }
        for (&p, &d) in layer.src_pos.iter().zip(&layer.dst) {
            h = mix(h ^ (u64::from(p) << 32 | u64::from(d)));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsampler::{RingSampler, SamplerConfig};
    use ringsampler_graph::gen::GeneratorSpec;
    use ringsampler_graph::preprocess::{build_dataset, PreprocessOptions};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sampled() -> (RefGraph, Vec<NodeId>, Vec<usize>, BatchSample) {
        let spec = GeneratorSpec::PowerLaw {
            nodes: 400,
            edges: 6_000,
            exponent: 0.7,
        };
        let edges: Vec<_> = spec.stream(3).collect();
        // Tests run in parallel: each call gets its own directory.
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let n = CALLS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ringbench-check-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = build_dataset(
            400,
            edges.iter().copied(),
            &dir.join("g"),
            &PreprocessOptions::default(),
        )
        .unwrap();
        let fanouts = vec![5, 3];
        let sampler =
            RingSampler::new(g, SamplerConfig::new().fanouts(&fanouts).threads(1)).unwrap();
        let seeds: Vec<NodeId> = (0..32).collect();
        let sample = sampler.worker().unwrap().sample_batch(&seeds, 7).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (RefGraph::from_edges(400, &edges), seeds, fanouts, sample)
    }

    #[test]
    fn real_sample_passes() {
        let (g, seeds, fanouts, sample) = sampled();
        validate_batch(&g, &seeds, &fanouts, &sample).unwrap();
    }

    #[test]
    fn corrupted_samples_are_caught() {
        let (g, seeds, fanouts, sample) = sampled();
        let base = batch_digest(0, &sample);

        // A neighbor that is not an edge of its source.
        let mut bad = sample.clone();
        let l1 = &mut bad.layers[1];
        let src = l1.targets[l1.src_pos[0] as usize];
        let nbrs = g.neighbors(src).unwrap();
        l1.dst[0] = (0..400).find(|v| !nbrs.contains(v)).unwrap();
        assert!(validate_batch(&g, &seeds, &fanouts, &bad).is_err());
        assert_ne!(batch_digest(0, &bad), base);

        // A dropped sample (under-sampling).
        let mut bad = sample.clone();
        bad.layers[0].dst.pop();
        bad.layers[0].src_pos.pop();
        assert!(validate_batch(&g, &seeds, &fanouts, &bad).is_err());

        // A neighbor entry drawn twice (sampling with replacement).
        let mut bad = sample.clone();
        let l0 = &mut bad.layers[0];
        let (i, j) = (0..l0.dst.len() - 1)
            .map(|i| (i, i + 1))
            .find(|&(i, j)| {
                let src = seeds[l0.src_pos[i] as usize];
                l0.src_pos[i] == l0.src_pos[j]
                    && g.neighbors(src)
                        .unwrap()
                        .iter()
                        .filter(|&&x| x == l0.dst[i])
                        .count()
                        == 1
            })
            .expect("some source with two samples and a unique neighbor");
        l0.dst[j] = l0.dst[i];
        assert!(validate_batch(&g, &seeds, &fanouts, &bad).is_err());

        // A wrong next-layer frontier.
        let mut bad = sample;
        bad.layers[1].targets.pop();
        assert!(validate_batch(&g, &seeds, &fanouts, &bad).is_err());
    }

    #[test]
    fn digest_ignores_completion_order() {
        let (_, _, _, sample) = sampled();
        let a = batch_digest(1, &sample).wrapping_add(batch_digest(2, &sample));
        let b = batch_digest(2, &sample).wrapping_add(batch_digest(1, &sample));
        assert_eq!(a, b);
        assert_ne!(batch_digest(1, &sample), batch_digest(2, &sample));
    }
}
