//! The traced run's span recorder.
//!
//! Spans are kept in memory while the run executes and written once, at
//! exit. Each span names the public function it wraps and the layer that
//! function belongs to; a span's *self time* is its duration minus the
//! union of its children's intervals (children may overlap, e.g. the
//! `on_batch` callbacks of concurrent workers inside one epoch).
//!
//! High-frequency functions (`OffsetSampler::sample_range`,
//! `PageCache::get`/`insert`) are wrapped per replayed frontier rather
//! than per call, so recording never dominates what it measures; such a
//! span carries the number of calls it covers.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ringstat::Json;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// The wrapped function, e.g. `RingSampler::sample_epoch_with`.
    pub name: &'static str,
    /// Layer the function belongs to (`graph`, `engine`, `io`, ...).
    pub layer: &'static str,
    /// Batch index or request id the call served (0 when none applies).
    pub key: u64,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// Calls of the wrapped function this span covers.
    pub calls: u64,
}

/// Thread-safe span sink; a disabled tracer records nothing and hands
/// out id 0.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Where and how a span is recorded (all but the interval itself).
pub struct SpanMeta {
    /// Pre-allocated id (from [`Tracer::id`]) so children can name it.
    pub id: u64,
    /// Enclosing span id, 0 for a root.
    pub parent: u64,
    /// Wrapped function name.
    pub name: &'static str,
    /// Owning layer.
    pub layer: &'static str,
    /// Batch or request id.
    pub key: u64,
    /// Calls covered.
    pub calls: u64,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Allocates a span id (0 when disabled).
    pub fn id(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records the interval `[start, end)` under `meta`.
    pub fn record(&self, meta: SpanMeta, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: if meta.id == 0 { self.id() } else { meta.id },
            parent: meta.parent,
            name: meta.name,
            layer: meta.layer,
            key: meta.key,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            calls: meta.calls,
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Convenience for a root span with no key covering one call.
    pub fn root(&self, name: &'static str, layer: &'static str, start: Instant, end: Instant) {
        let meta = SpanMeta {
            id: 0,
            parent: 0,
            name,
            layer,
            key: 0,
            calls: 1,
        };
        self.record(meta, start, end);
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cur_end) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(cur_end);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cur_end = b;
                }
            }
            dur.saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, in seconds.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// Writes the span file: every span plus its self time, and the
/// per-function and per-layer self-time totals.
///
/// # Errors
/// Propagates file-system errors.
pub fn write_file(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let mut list = Vec::with_capacity(spans.len());
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += s.calls;
        e.1 += s.end_ns.saturating_sub(s.start_ns);
        e.2 += self_ns;
        list.push(
            Json::object()
                .with("id", Json::U64(s.id))
                .with("parent", Json::U64(s.parent))
                .with("name", Json::str(s.name))
                .with("layer", Json::str(s.layer))
                .with("key", Json::U64(s.key))
                .with("start_ns", Json::U64(s.start_ns))
                .with("end_ns", Json::U64(s.end_ns))
                .with("calls", Json::U64(s.calls))
                .with("self_ns", Json::U64(self_ns)),
        );
    }
    let mut functions = Json::object();
    for (name, (calls, total, self_ns)) in by_name {
        functions.push(
            name,
            Json::object()
                .with("calls", Json::U64(calls))
                .with("total_ns", Json::U64(total))
                .with("self_ns", Json::U64(self_ns)),
        );
    }
    let mut layers = Json::object();
    for (layer, secs) in layer_self_seconds(spans) {
        layers.push(layer, Json::U64((secs * 1e9) as u64));
    }
    let doc = Json::object()
        .with("functions", functions)
        .with("layer_self_ns", layers)
        .with("spans", Json::Array(list));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_string_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name: "f",
            layer,
            key: 0,
            start_ns: a,
            end_ns: b,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "engine", 0, 100),
            span(2, 1, "bench", 10, 30),
            span(3, 1, "bench", 20, 40),  // overlaps span 2
            span(4, 1, "bench", 90, 120), // clipped to the parent
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20, 20, 30]);
        let layers = layer_self_seconds(&spans);
        assert!((layers["engine"] - 60e-9).abs() < 1e-15);
    }
}
