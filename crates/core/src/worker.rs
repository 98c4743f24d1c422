//! Per-thread sampling worker: offset-based layer sampling driving the
//! asynchronous I/O-group pipeline (paper §3.1, Figs. 2 and 3).
//!
//! Each worker owns everything it touches — a dedicated I/O reader (with
//! its own io_uring SQ/CQ pair), an RNG, an [`OffsetSampler`], reusable
//! scratch vectors, and an optional page cache — so threads never
//! synchronize during an epoch ("Eliminating thread synchronization").

use std::collections::VecDeque;
use std::fs::File;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ringsampler_graph::{NodeId, OnDiskGraph, ENTRY_BYTES};
use ringsampler_io::engine::{GroupReader, GroupToken, PreadReader, ReadSlice, UringReader};
use ringsampler_io::{EngineKind, IoEngineError, RingBuilder};
use ringstat::{
    thread_cpu_nanos, EventKind, EventRing, LatencyHistogram, Phase, PhaseTimes,
    ResourceSample, SnapshotCell, SpanLog, TimeLedger, TraceEvent, WorkerSnapshot,
};

use crate::block::{BatchSample, LayerSample};
use crate::cache::{page_of, PageCache, PAGE_SIZE};
use crate::config::{CachePolicy, PipelineMode, RingMode, SamplerConfig};
use crate::error::{Result, SamplerError};
use crate::memory::MemoryCharge;
use crate::metrics::{SampleMetrics, WorkerResources, WorkerStats};
use crate::plan::{ReadPlanMode, ReadPlanner};
use crate::sampling::OffsetSampler;

/// In-flight group window of the async pipeline when the ring defers
/// submission (`RingMode::DeferTaskrun`+): the single GETEVENTS enter
/// that reaps the oldest group also flushes every published SQE behind
/// it, so a window of three amortizes one syscall across three groups
/// (~0.33 enters/group vs 1.0 for eager submission).
const LAZY_PIPELINE_DEPTH: usize = 3;

/// Nanoseconds between two instants, saturating at zero and `u64::MAX`.
#[inline]
fn nanos_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// A single-threaded sampling worker bound to one graph.
///
/// Obtain via [`crate::engine::RingSampler::worker`]. Workers are `Send`
/// (movable into a thread) but deliberately not `Sync`.
pub struct SamplerWorker {
    graph: Arc<OnDiskGraph>,
    cfg: SamplerConfig,
    reader: Box<dyn GroupReader>,
    file_len: u64,
    sampler: OffsetSampler,
    cache: Option<PageCache>,
    metrics: SampleMetrics,
    // Reusable scratch (the paper's thread-local workspaces: offsets,
    // neighbors, targets).
    offsets: Vec<u64>,
    src_pos: Vec<u32>,
    reqs: Vec<ReadSlice>,
    buf_pool: Vec<Vec<u8>>,
    /// Read-plan builder (sort/dedup/coalesce scratch + scatter map).
    planner: ReadPlanner,
    /// Concatenated planned-slice payload for the scatter pass.
    payload: Vec<u8>,
    /// Per-miss-page byte scratch for the cached path (filled during the
    /// read, drained back into `page_pool` after resolution).
    page_data: Vec<Vec<u8>>,
    /// Recycled page buffers: the cached path reuses these instead of
    /// allocating a fresh `Vec<u8>` per miss page every layer.
    page_pool: Vec<Vec<u8>>,
    workspace_charge: MemoryCharge,
    charged_bytes: u64,
    last_reader_stats: ringsampler_io::ReaderStats,
    // Thread-private observability (ringstat): recorded with plain &mut
    // writes on the hot path, merged only at epoch join.
    batch_hist: LatencyHistogram,
    cq_hist: LatencyHistogram,
    phases: PhaseTimes,
    spans: SpanLog,
    /// `ringscope` live-telemetry slot: when attached, the worker
    /// publishes a snapshot through the seqlock after every batch (two
    /// word stores + a fence — the one sanctioned hot-path exception to
    /// "no atomics"; see `ringstat::snapshot`). `None` costs one branch.
    telemetry: Option<TelemetrySlot>,
    /// `ringtrace` flight recorder: a fixed-capacity event ring shared
    /// with this worker's I/O reader (same thread, so the ring's
    /// single-writer contract holds). `None` when `trace_capacity == 0`;
    /// recording costs one branch plus a clock read per event, and the
    /// ring drops on overflow instead of blocking.
    events: Option<Arc<EventRing>>,
    /// Timestamp origin for trace events; rebased to the epoch start by
    /// [`SamplerWorker::set_span_origin`], like the span log.
    trace_origin: Instant,
    /// `ringprof` epoch anchor: the full resource sample and wall
    /// instant taken by [`SamplerWorker::begin_epoch_profile`] **on this
    /// worker's own thread** (the thread-CPU clock and `RUSAGE_THREAD`
    /// are meaningless cross-thread). `None` when profiling is off.
    res_start: Option<(ResourceSample, Instant)>,
    /// Thread CPU nanoseconds consumed since the epoch anchor — updated
    /// once per batch with a single `CLOCK_THREAD_CPUTIME_ID` read (the
    /// one resource syscall sanctioned on the hot path) and published in
    /// every snapshot.
    cpu_nanos: u64,
}

/// Per-worker publish state for live telemetry (cold fields read every
/// batch, but only when telemetry is enabled).
struct TelemetrySlot {
    cell: Arc<SnapshotCell<WorkerSnapshot>>,
    epoch: u64,
    total_batches: u64,
    seeds_done: u64,
}

impl std::fmt::Debug for SamplerWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerWorker")
            .field("engine", &self.reader.engine_name())
            .field("metrics", &self.metrics)
            .finish()
    }
}

/// Decodes the little-endian entry at byte `within` of a page buffer.
///
/// An entry extending past the page's valid bytes means the edge file
/// ended mid-entry (truncated or corrupt graph); that is reported as a
/// short read at `entry_byte` rather than a hot-path panic.
/// [`ENTRY_BYTES`] as `usize`, for slice arithmetic.
const ENTRY_SZ: usize = ENTRY_BYTES as usize;

fn entry_in_page(data: &[u8], within: usize, entry_byte: u64) -> Result<NodeId> {
    match data
        .get(within..within + ENTRY_SZ)
        .and_then(|b| <[u8; ENTRY_SZ]>::try_from(b).ok())
    {
        Some(le) => Ok(NodeId::from_le_bytes(le)),
        None => Err(SamplerError::Io(IoEngineError::ShortRead {
            offset: entry_byte,
            expected: ENTRY_BYTES as u32,
            got: data.len().saturating_sub(within) as i32,
        })),
    }
}

impl SamplerWorker {
    /// Creates a worker for `graph` under `cfg`.
    ///
    /// # Errors
    /// Fails on reader/ring setup, page-cache allocation, or if the initial
    /// workspace charge exceeds the memory budget.
    pub(crate) fn new(graph: Arc<OnDiskGraph>, cfg: SamplerConfig) -> Result<Self> {
        let file = File::open(graph.edge_path())
            .map_err(|e| crate::error::SamplerError::Io(IoEngineError::File(e)))?;
        let file_len = file
            .metadata()
            .map_err(|e| crate::error::SamplerError::Io(IoEngineError::File(e)))?
            .len();
        let engine = cfg.engine.unwrap_or_else(ringsampler_io::default_engine);
        let mut regfile_fallback = false;
        let mut ring_mode_fallbacks = 0u64;
        let reader: Box<dyn GroupReader> = match engine {
            EngineKind::Uring => {
                let mut b = RingBuilder::new().entries(cfg.ring_entries);
                // Climb the ring-mode ladder rung by rung, but only onto
                // rungs the kernel actually grants (probed once per
                // process): a refused rung is a recorded fallback, never
                // an error, and never changes sampling output.
                let caps = ringsampler_io::uring_caps();
                if cfg.ring_mode >= RingMode::Registered {
                    if caps.registered_ring_fds {
                        b = b.register_ring_fd(true);
                    } else {
                        ring_mode_fallbacks += 1;
                    }
                }
                if cfg.ring_mode >= RingMode::DeferTaskrun {
                    if caps.defer_taskrun {
                        b = b.defer_taskrun(true).lazy_submission(true);
                    } else {
                        ring_mode_fallbacks += 1;
                    }
                }
                let mut r = UringReader::with_file(file, b)?;
                if cfg.register_file {
                    // Best effort: fall back to plain fd addressing if the
                    // kernel refuses registration, but record the
                    // degradation so operators can see it in span logs.
                    if r.register_file().is_err() {
                        regfile_fallback = true;
                    }
                }
                Box::new(r)
            }
            EngineKind::Pread => Box::new(PreadReader::with_file(file, cfg.ring_entries)),
        };
        let cache = match cfg.cache {
            CachePolicy::None => None,
            CachePolicy::Page { budget_bytes } => Some(PageCache::new(budget_bytes, &cfg.budget)?),
        };
        // Initial workspace charge: ring buffers + a small floor; grows
        // with actual vector capacity as batches expand.
        let base = 2 * cfg.ring_entries as u64 * ENTRY_BYTES + 64 * 1024;
        let workspace_charge = cfg.budget.charge(base, "thread workspace")?;
        let mut spans = SpanLog::with_capacity(cfg.span_capacity);
        let mut metrics = SampleMetrics::default();
        if ring_mode_fallbacks > 0 {
            metrics.ring_mode_fallbacks = ring_mode_fallbacks;
            let now = Instant::now();
            spans.record("ring_mode_fallback", now, now);
        }
        if regfile_fallback {
            let now = Instant::now();
            spans.record("regfile_fallback", now, now);
        }
        let events = if cfg.trace_capacity > 0 {
            Some(Arc::new(EventRing::new(cfg.trace_capacity)))
        } else {
            None
        };
        let w = Self {
            graph,
            cfg,
            reader,
            file_len,
            sampler: OffsetSampler::new(),
            cache,
            metrics,
            offsets: Vec::new(),
            src_pos: Vec::new(),
            reqs: Vec::new(),
            buf_pool: Vec::new(),
            planner: ReadPlanner::new(),
            payload: Vec::new(),
            page_data: Vec::new(),
            page_pool: Vec::new(),
            workspace_charge,
            charged_bytes: base,
            last_reader_stats: ringsampler_io::ReaderStats::default(),
            batch_hist: LatencyHistogram::new(),
            cq_hist: LatencyHistogram::new(),
            phases: PhaseTimes::new(),
            spans,
            telemetry: None,
            events,
            trace_origin: Instant::now(),
            res_start: None,
            cpu_nanos: 0,
        };
        // Degradations discovered during construction go to the flight
        // recorder too, so `ringtrace` sees them alongside the I/O events.
        if regfile_fallback {
            w.trace(EventKind::RegFileFallback, 0, 0, 0, 0);
        }
        Ok(w)
    }

    /// Records a flight-recorder event, if tracing is enabled. Disabled
    /// tracing costs one branch; enabled costs a clock read plus a
    /// seqlock-cell publish (no locks, no RMW atomics, no allocation).
    #[inline]
    fn trace(&self, kind: EventKind, a: u64, b: u64, c: u64, d: u64) {
        if let Some(ring) = &self.events {
            ring.record(TraceEvent {
                ts_ns: nanos_between(self.trace_origin, Instant::now()),
                kind,
                a,
                b,
                c,
                d,
            });
        }
    }

    /// The flight-recorder ring, for live-telemetry registration (`None`
    /// when `trace_capacity == 0` disabled tracing).
    pub(crate) fn events_ring(&self) -> Option<&Arc<EventRing>> {
        self.events.as_ref()
    }

    /// Attaches a live-telemetry slot: from now on the worker publishes
    /// a [`WorkerSnapshot`] after every batch (and a final inactive one
    /// at [`SamplerWorker::take_stats`]). `epoch` and `total_batches`
    /// are carried verbatim into every snapshot (`total_batches = 0`
    /// when the batch count is unknown, e.g. a streaming loader).
    pub(crate) fn attach_telemetry(
        &mut self,
        cell: Arc<SnapshotCell<WorkerSnapshot>>,
        epoch: u64,
        total_batches: u64,
    ) {
        self.telemetry = Some(TelemetrySlot {
            cell,
            epoch,
            total_batches,
            seeds_done: 0,
        });
    }

    /// Anchors `ringprof` for this epoch: takes the full epoch-start
    /// [`ResourceSample`] (3 syscalls + one procfs read — epoch
    /// boundary, never per batch). Must run **on the worker's own
    /// thread**, after it has been moved into its epoch thread; the
    /// thread-CPU clock and `RUSAGE_THREAD` scope to the caller.
    /// No-op when `profile_resources` is off.
    pub fn begin_epoch_profile(&mut self) {
        if self.cfg.profile_resources {
            // ringlint: allow(resource-discipline) — epoch boundary: runs once before the batch loop, on the worker's own thread
            self.res_start = Some((ResourceSample::now(), Instant::now()));
            self.cpu_nanos = 0;
        }
    }

    /// Closes the epoch's resource interval: takes the end sample,
    /// differences it against the anchor, and folds the stage
    /// attribution + CPU time into the conservation-checked time
    /// ledger. Consumes the anchor, so it fires once per
    /// `begin_epoch_profile`. Runs on the worker's own thread (the
    /// epoch-join path calls it from `take_stats`).
    fn finish_epoch_resources(&mut self) -> Option<WorkerResources> {
        let (start, wall0) = self.res_start.take()?;
        // ringlint: allow(resource-discipline) — epoch join: closes the interval opened by begin_epoch_profile, once per epoch
        let sample = ResourceSample::now().delta(&start);
        let wall = nanos_between(wall0, Instant::now());
        // Pin the published CPU counter to the precise final delta so
        // the last snapshot and the report agree.
        self.cpu_nanos = sample.cpu_nanos;
        Some(WorkerResources {
            wall_nanos: wall,
            ledger: TimeLedger::build(wall, &self.phases, sample.cpu_nanos),
            logical_bytes: self.metrics.sampled_edges * ENTRY_BYTES,
            sample,
        })
    }

    /// Builds the current snapshot and publishes it through the seqlock
    /// slot, if one is attached. The publish itself is wait-free: two
    /// version-counter stores and a volatile payload store.
    fn publish_snapshot(&mut self, active: bool) {
        if self.telemetry.is_none() {
            return;
        }
        let m = self.metrics();
        let inflight = self.reader.inflight();
        let batch_latency = self.batch_hist;
        let ring_setup = self.reader.ring_setup();
        if let Some(slot) = &mut self.telemetry {
            slot.cell.publish(WorkerSnapshot {
                epoch: slot.epoch,
                batches: m.batches,
                total_batches: slot.total_batches,
                targets: slot.seeds_done,
                sampled_nodes: m.targets,
                sampled_edges: m.sampled_edges,
                bytes_read: m.io_bytes,
                reads_submitted: m.io_requests,
                reads_completed: m.io_requests.saturating_sub(inflight),
                inflight,
                io_groups: m.io_groups,
                active,
                ring_requested_flags: ring_setup.requested_flags,
                ring_granted_flags: ring_setup.granted_flags,
                prepare_nanos: m.prepare_nanos,
                complete_nanos: m.complete_nanos,
                cpu_nanos: self.cpu_nanos,
                batch_latency,
            });
        }
    }

    /// The graph this worker samples from.
    pub(crate) fn graph_handle(&self) -> &OnDiskGraph {
        &self.graph
    }

    /// Counters accumulated by this worker so far.
    pub fn metrics(&self) -> SampleMetrics {
        let mut m = self.metrics;
        if let Some(c) = &self.cache {
            m.cache_hits = c.hits();
            m.cache_misses = c.misses();
        }
        m
    }

    /// Which engine backs this worker.
    pub fn engine_name(&self) -> &'static str {
        self.reader.engine_name()
    }

    /// Re-anchors this worker's span **and trace** timestamps to `origin`
    /// (the epoch start), so spans and flight-recorder events from all
    /// workers share one timeline, and attaches the event ring to the I/O
    /// reader so engine-side events land on it too. Call before the first
    /// batch.
    pub fn set_span_origin(&mut self, origin: Instant) {
        self.spans.rebase(origin);
        self.trace_origin = origin;
        if let Some(ring) = &self.events {
            self.reader.attach_events(Arc::clone(ring), origin);
        }
    }

    /// Snapshot of everything this worker has accumulated: counters plus
    /// the ringstat distributions (histograms, phase times, spans).
    ///
    /// Flight-recorder events are left on the ring (draining is
    /// destructive); only the overflow-drop count is reported here. Use
    /// [`SamplerWorker::take_stats`] to collect the events themselves.
    pub fn stats(&self) -> WorkerStats {
        WorkerStats {
            metrics: self.metrics(),
            group_latency: self.reader.group_latency(),
            batch_latency: self.batch_hist,
            cq_wait: self.cq_hist,
            phases: self.phases,
            spans: self.spans.clone(),
            events: Vec::new(),
            trace_dropped: self.events.as_ref().map_or(0, |r| r.dropped()),
            ring_mode: self.cfg.ring_mode,
            ring_setup: self.reader.ring_setup(),
            // Only the epoch-join path (`take_stats`) closes the resource
            // interval; a mid-epoch peek reports none.
            resources: None,
        }
    }

    /// Like [`SamplerWorker::stats`] but moves the span log out instead of
    /// cloning it and **drains** the flight-recorder ring (the epoch-join
    /// path). Spans recorded after this call are dropped (the replacement
    /// log has zero capacity); trace events recorded after it start a
    /// fresh window on the now-empty ring.
    pub fn take_stats(&mut self) -> WorkerStats {
        // Close the ringprof interval first so the final snapshot below
        // publishes the same CPU total the report carries.
        let resources = self.finish_epoch_resources();
        // Final telemetry publish: the worker is done, so the watchdog
        // must stop expecting its version to advance.
        self.publish_snapshot(false);
        let spans = std::mem::take(&mut self.spans);
        let (events, trace_dropped) = match &self.events {
            Some(ring) => (ring.drain(), ring.dropped()),
            None => (Vec::new(), 0),
        };
        WorkerStats {
            metrics: self.metrics(),
            group_latency: self.reader.group_latency(),
            batch_latency: self.batch_hist,
            cq_wait: self.cq_hist,
            phases: self.phases,
            spans,
            events,
            trace_dropped,
            ring_mode: self.cfg.ring_mode,
            ring_setup: self.reader.ring_setup(),
            resources,
        }
    }

    /// Samples a full multi-layer mini-batch for `seeds`.
    ///
    /// Sampling is deterministic in `(config seed, batch_seed)` and
    /// independent of which thread runs the batch.
    ///
    /// # Errors
    /// Propagates I/O errors and memory-budget exhaustion.
    pub fn sample_batch(&mut self, seeds: &[NodeId], batch_seed: u64) -> Result<BatchSample> {
        let batch_start = Instant::now();
        let batch_index = self.metrics.batches;
        self.trace(EventKind::BatchStart, batch_index, seeds.len() as u64, 0, 0);
        let mut rng =
            StdRng::seed_from_u64(self.cfg.seed ^ batch_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut targets: Vec<NodeId> = seeds.to_vec();
        let fanouts = self.cfg.fanouts.clone();
        let mut layers = Vec::with_capacity(fanouts.len());
        for fanout in fanouts {
            let layer = self.sample_layer(&targets, fanout, &mut rng)?;
            // The inter-layer reduce (dedup'ing neighbors into the next
            // frontier) is sample-stage CPU work; traced with fanout 0 so
            // ringtrace attributes it instead of leaving a coverage gap.
            let u0 = self.events.as_ref().map(|_| Instant::now());
            targets = layer.unique_neighbors();
            if let Some(u0) = u0 {
                self.trace(
                    EventKind::SampleDone,
                    0,
                    targets.len() as u64,
                    u0.elapsed().as_nanos() as u64,
                    0,
                );
            }
            self.metrics.layers += 1;
            self.metrics.sampled_edges += layer.num_edges() as u64;
            layers.push(layer);
        }
        self.metrics.batches += 1;
        let batch_end = Instant::now();
        if let Some((start, _)) = &self.res_start {
            // ringprof per-batch cost: exactly one CLOCK_THREAD_CPUTIME_ID
            // read — no getrusage, no procfs until the epoch boundary.
            self.cpu_nanos = thread_cpu_nanos().saturating_sub(start.cpu_nanos);
        }
        self.batch_hist.record(nanos_between(batch_start, batch_end));
        self.spans.record("batch", batch_start, batch_end);
        self.trace(
            EventKind::BatchEnd,
            batch_index,
            nanos_between(batch_start, batch_end),
            layers.len() as u64,
            0,
        );
        if let Some(slot) = &mut self.telemetry {
            slot.seeds_done += seeds.len() as u64;
        }
        self.publish_snapshot(true);
        self.ensure_workspace_charge()?;
        Ok(BatchSample { layers })
    }

    fn sample_layer(
        &mut self,
        targets: &[NodeId],
        fanout: usize,
        rng: &mut StdRng,
    ) -> Result<LayerSample> {
        self.offsets.clear();
        self.src_pos.clear();
        let prepare_start = Instant::now();
        let with_replacement = self.cfg.with_replacement;
        for (pos, &t) in targets.iter().enumerate() {
            let range = self.graph.neighbor_range(t);
            let before = self.offsets.len();
            if with_replacement {
                self.sampler.sample_range_with_replacement(
                    range.start,
                    range.end,
                    fanout,
                    rng,
                    &mut self.offsets,
                );
            } else {
                self.sampler
                    .sample_range(range.start, range.end, fanout, rng, &mut self.offsets);
            }
            for _ in before..self.offsets.len() {
                self.src_pos.push(pos as u32);
            }
        }
        let prepare_end = Instant::now();
        self.phases
            .add(Phase::Prepare, nanos_between(prepare_start, prepare_end));
        self.trace(
            EventKind::SampleDone,
            fanout as u64,
            self.offsets.len() as u64,
            nanos_between(prepare_start, prepare_end),
            0,
        );
        self.metrics.targets += targets.len() as u64;
        let entry_indices = std::mem::take(&mut self.offsets);
        let dst = self.fetch_entries(&entry_indices)?;
        self.offsets = entry_indices;
        Ok(LayerSample {
            fanout,
            targets: targets.to_vec(),
            src_pos: std::mem::take(&mut self.src_pos),
            dst,
        })
    }

    /// Fetches the neighbor values at `entry_indices` from the edge file,
    /// through the page cache when enabled.
    pub(crate) fn fetch_entries(&mut self, entry_indices: &[u64]) -> Result<Vec<NodeId>> {
        if self.cache.is_some() {
            self.fetch_entries_cached(entry_indices)
        } else {
            self.fetch_entries_raw(entry_indices)
        }
    }

    /// Offset-based direct reads: exactly 4 bytes per sampled neighbor —
    /// the paper's core I/O pattern (Fig. 2 steps 4–6).
    ///
    /// With a [`ReadPlanMode`] other than `Off`, duplicate entries are
    /// deduped and near-adjacent entries coalesced into larger slices
    /// before submission; the planner's scatter map fans the concatenated
    /// payload back to every original output position, so `dst` is
    /// byte-identical to the naive path.
    fn fetch_entries_raw(&mut self, entry_indices: &[u64]) -> Result<Vec<NodeId>> {
        if self.cfg.read_plan.is_off() {
            // Paper-faithful path: one SQE per sampled entry. Kept verbatim
            // so `read_plan = Off` submits a bit-identical request stream.
            // The identity plan is still traced (reqs_in == reqs_out) so
            // ringtrace's stage coverage holds in Off mode too.
            let t0 = self.events.as_ref().map(|_| Instant::now());
            self.reqs.clear();
            self.reqs.extend(entry_indices.iter().map(|&e| {
                ReadSlice::new(OnDiskGraph::entry_byte_offset(e), ENTRY_BYTES as u32)
            }));
            if let Some(t0) = t0 {
                self.trace(
                    EventKind::PlanBuilt,
                    entry_indices.len() as u64,
                    self.reqs.len() as u64,
                    0,
                    t0.elapsed().as_nanos() as u64,
                );
            }
            // Off-mode decoding happens inside the consume closure, so the
            // scatter stage is the Aggregate-phase delta across the read.
            let agg0 = self.phases.get(Phase::Aggregate);
            let reqs = std::mem::take(&mut self.reqs);
            let mut out = Vec::with_capacity(entry_indices.len());
            self.pipelined_read(&reqs, |buf| {
                out.extend(buf.chunks_exact(ENTRY_SZ).map(|c| {
                    // ringlint: allow(panic-free-hot-path) — chunks_exact yields exactly ENTRY_SZ bytes per chunk
                    NodeId::from_le_bytes(c.try_into().expect("exact chunk"))
                }));
            })?;
            self.reqs = reqs;
            self.trace(
                EventKind::ScatterDone,
                entry_indices.len() as u64,
                self.phases.get(Phase::Aggregate).saturating_sub(agg0),
                0,
                0,
            );
            debug_assert_eq!(out.len(), entry_indices.len());
            return Ok(out);
        }
        // Planned path: plan (CPU, counted as Prepare) → read slices into
        // the payload scratch → scatter-decode into the output.
        let t0 = Instant::now();
        let mut planner = std::mem::take(&mut self.planner);
        let stats = planner.plan(
            entry_indices,
            OnDiskGraph::entry_byte_offset(0),
            ENTRY_BYTES as u32,
            self.cfg.read_plan,
        );
        let plan_end = Instant::now();
        self.phases
            .add(Phase::Prepare, nanos_between(t0, plan_end));
        self.trace(
            EventKind::PlanBuilt,
            entry_indices.len() as u64,
            stats.planned_reads,
            stats.bytes_saved(),
            nanos_between(t0, plan_end),
        );
        self.metrics.reads_planned += stats.planned_reads;
        self.metrics.reads_saved += stats.reads_saved();
        self.metrics.bytes_saved += stats.bytes_saved();
        let mut payload = std::mem::take(&mut self.payload);
        payload.clear();
        // The payload copy in `consume` runs inside `pipelined_read` as
        // Aggregate-phase time; fold its delta into the scatter stage so
        // ringtrace's attribution covers it.
        let agg0 = self.phases.get(Phase::Aggregate);
        let read_res =
            self.pipelined_read(planner.slices(), |buf| payload.extend_from_slice(buf));
        let mut out = Vec::with_capacity(entry_indices.len());
        let mut decode_err = None;
        let s0 = self.events.as_ref().map(|_| Instant::now());
        if read_res.is_ok() {
            for (&e, &po) in entry_indices.iter().zip(planner.scatter()) {
                match entry_in_page(&payload, po as usize, OnDiskGraph::entry_byte_offset(e)) {
                    Ok(v) => out.push(v),
                    Err(err) => {
                        decode_err = Some(err);
                        break;
                    }
                }
            }
            if let (Some(s0), None) = (s0, &decode_err) {
                self.trace(
                    EventKind::ScatterDone,
                    entry_indices.len() as u64,
                    self.phases.get(Phase::Aggregate).saturating_sub(agg0)
                        + s0.elapsed().as_nanos() as u64,
                    0,
                    0,
                );
            }
        }
        // Return the scratch before propagating errors so capacity (and
        // its workspace charge) survives a failed batch.
        self.planner = planner;
        self.payload = payload;
        read_res?;
        if let Some(err) = decode_err {
            return Err(err);
        }
        debug_assert_eq!(out.len(), entry_indices.len());
        Ok(out)
    }

    /// Page-granular reads with LRU caching (CachePolicy::Page).
    fn fetch_entries_cached(&mut self, entry_indices: &[u64]) -> Result<Vec<NodeId>> {
        let mut out = vec![0 as NodeId; entry_indices.len()];
        // Resolve hits; collect misses as (out position, page, offset).
        let mut pending: Vec<(usize, u64, usize)> = Vec::new();
        {
            let Some(cache) = self.cache.as_mut() else {
                return Err(SamplerError::Internal(
                    "fetch_entries_cached called without a page cache",
                ));
            };
            for (i, &e) in entry_indices.iter().enumerate() {
                let byte = OnDiskGraph::entry_byte_offset(e);
                let (page, within) = page_of(byte);
                if let Some(data) = cache.get(page) {
                    // ringlint: allow(panic-free-hot-path) — i < out.len(): positions come from enumerate() over entry_indices
                    out[i] = entry_in_page(data, within, byte)?;
                } else {
                    pending.push((i, page, within));
                }
            }
        }
        let hits = entry_indices.len().saturating_sub(pending.len()) as u64;
        if hits > 0 {
            self.trace(EventKind::CacheHit, hits, 0, 0, 0);
        }
        if !pending.is_empty() {
            self.trace(EventKind::CacheMiss, pending.len() as u64, 0, 0, 0);
        }
        if pending.is_empty() {
            return Ok(out);
        }
        // Unique miss pages, sorted for locality.
        let mut pages: Vec<u64> = pending.iter().map(|p| p.1).collect();
        pages.sort_unstable();
        pages.dedup();
        // A sampled entry pointing past EOF means the offset index and the
        // edge file disagree (truncated or mismatched dataset). Catch it
        // here so `file_len - start` below can never underflow.
        if let Some(&last) = pages.last() {
            let start = last * PAGE_SIZE as u64;
            if start >= self.file_len {
                return Err(SamplerError::Io(IoEngineError::ShortRead {
                    offset: start,
                    expected: PAGE_SIZE as u32,
                    got: 0,
                }));
            }
        }
        self.reqs.clear();
        if matches!(self.cfg.read_plan, ReadPlanMode::Coalesce { .. }) {
            // Pages are already unique and sorted, so Dedup is a no-op
            // here; Coalesce merges *strictly adjacent* pages (gap 0) into
            // one larger slice. Gap 0 keeps every payload byte a real page
            // byte, so the PAGE_SIZE splitting in `consume` below still
            // recovers the individual pages.
            let t0 = Instant::now();
            let mut planner = std::mem::take(&mut self.planner);
            let stats = planner.plan(&pages, 0, PAGE_SIZE as u32, ReadPlanMode::Coalesce { gap: 0 });
            self.reqs.extend_from_slice(planner.slices());
            self.planner = planner;
            let plan_end = Instant::now();
            self.phases
                .add(Phase::Prepare, nanos_between(t0, plan_end));
            self.trace(
                EventKind::PlanBuilt,
                pages.len() as u64,
                stats.planned_reads,
                stats.bytes_saved(),
                nanos_between(t0, plan_end),
            );
            self.metrics.reads_planned += stats.planned_reads;
            self.metrics.reads_saved += stats.reads_saved();
            self.metrics.bytes_saved += stats.bytes_saved();
            // The planner reads whole pages; clamp the tail slice to EOF
            // (the final page of the edge file is usually short).
            for r in &mut self.reqs {
                let end = r.offset.saturating_add(r.len as u64);
                if end > self.file_len {
                    r.len = self.file_len.saturating_sub(r.offset) as u32;
                }
            }
        } else {
            // No planning: one request per miss page. Traced as an
            // identity plan so the stage table covers this path too.
            let t0 = self.events.as_ref().map(|_| Instant::now());
            for &p in &pages {
                let start = p * PAGE_SIZE as u64;
                let len = PAGE_SIZE.min(self.file_len.saturating_sub(start) as usize) as u32;
                self.reqs.push(ReadSlice::new(start, len));
            }
            if let Some(t0) = t0 {
                self.trace(
                    EventKind::PlanBuilt,
                    pages.len() as u64,
                    self.reqs.len() as u64,
                    0,
                    t0.elapsed().as_nanos() as u64,
                );
            }
        }
        let reqs = std::mem::take(&mut self.reqs);
        // Read all miss pages; keep their bytes for resolution (a page may
        // be evicted again before we resolve, so resolve from `page_data`).
        // Page buffers come from `page_pool` — recycled across batches so
        // the miss path performs no per-page allocation at steady state.
        let mut page_data = std::mem::take(&mut self.page_data);
        let mut pool = std::mem::take(&mut self.page_pool);
        page_data.clear();
        // As in the planned path, the page-split copy in `consume` is
        // Aggregate-phase time inside `pipelined_read`; its delta belongs
        // to the scatter stage.
        let agg0 = self.phases.get(Phase::Aggregate);
        let read_res = self.pipelined_read(&reqs, |buf| {
            // One group buffer may hold several pages back to back.
            let mut cursor = 0usize;
            while cursor < buf.len() {
                let take = PAGE_SIZE.min(buf.len() - cursor);
                let mut page = pool.pop().unwrap_or_default();
                page.clear();
                page.extend_from_slice(&buf[cursor..cursor + take]);
                page_data.push(page);
                cursor += take;
            }
        });
        self.reqs = reqs;
        let r0 = self.events.as_ref().map(|_| Instant::now());
        let resolve_res = read_res.and_then(|()| {
            debug_assert_eq!(page_data.len(), pages.len());
            let cache = self.cache.as_mut().ok_or(SamplerError::Internal(
                "page cache vanished during cached fetch",
            ))?;
            for (p, d) in pages.iter().zip(&page_data) {
                cache.insert(*p, d);
            }
            for &(i, page, within) in &pending {
                let data = pages
                    .binary_search(&page)
                    .ok()
                    .and_then(|slot| page_data.get(slot))
                    .ok_or(SamplerError::Internal("miss page absent from read batch"))?;
                // ringlint: allow(panic-free-hot-path) — i < out.len(): pending positions come from enumerate() over entry_indices
                out[i] = entry_in_page(data, within, page * PAGE_SIZE as u64 + within as u64)?;
            }
            Ok(())
        });
        if let (Some(r0), Ok(())) = (r0, &resolve_res) {
            // Scatter stage of the cached path: page-split copies during
            // the read, cache insertion, and resolving every pending miss
            // from the read-back pages.
            self.trace(
                EventKind::ScatterDone,
                pending.len() as u64,
                self.phases.get(Phase::Aggregate).saturating_sub(agg0)
                    + r0.elapsed().as_nanos() as u64,
                0,
                0,
            );
        }
        // Drain page buffers back into the pool (capacity retained) before
        // propagating any error.
        pool.append(&mut page_data);
        self.page_data = page_data;
        self.page_pool = pool;
        resolve_res?;
        Ok(out)
    }

    /// Runs the I/O-group pipeline over `reqs`, invoking `consume` on each
    /// completed group buffer **in submission order**.
    ///
    /// One FIFO window loop serves every mode: up to `depth` groups are in
    /// flight, and once the window is full (or every group is submitted)
    /// the oldest is completed. Async mode keeps two groups in flight, so
    /// while the kernel works on group *k* the CPU prepares and submits
    /// group *k+1* (paper Fig. 3b); Sync mode is the window of one, which
    /// submits and waits one group at a time.
    fn pipelined_read<F>(&mut self, reqs: &[ReadSlice], mut consume: F) -> Result<()>
    where
        F: FnMut(&[u8]),
    {
        let mut qd = self.reader.queue_depth();
        // Deferred submission only merges submit and wait enters when the
        // SQ can hold a whole in-flight window of groups at once: a
        // full-ring group forces a blocking flush before the next submit,
        // degenerating the async pipeline to one enter per group. Under
        // the lazy rung, widen the window to three groups (the flush that
        // the oldest group's completion needs carries every published
        // SQE, so one enter drives the whole window) and shrink chunks so
        // the window fits the SQ.
        let depth = match self.cfg.pipeline {
            PipelineMode::Sync => 1,
            PipelineMode::Async if self.reader.ring_setup().lazy_submission => {
                qd = (qd / LAZY_PIPELINE_DEPTH).max(1);
                LAZY_PIPELINE_DEPTH
            }
            PipelineMode::Async => 2,
        };
        let mut prepare_nanos = 0u64;
        let mut complete_nanos = 0u64;
        let mut aggregate_nanos = 0u64;
        // Each in-flight token carries its submit instant so the io_group
        // span covers the full submit→complete window. Groups complete
        // strictly in submission order, so `consume` sees the same byte
        // stream at every depth.
        let mut inflight: VecDeque<(GroupToken, Instant)> = VecDeque::new();
        let mut chunks = reqs.chunks(qd);
        loop {
            // When a submit fills the window, the completion wait starts
            // at the instant the submit returned.
            let mut submitted_at = None;
            if let Some(chunk) = chunks.next() {
                let buf = self.buf_pool.pop().unwrap_or_default();
                let t0 = Instant::now();
                let token = self.reader.submit_group(chunk, buf)?;
                let t1 = Instant::now();
                prepare_nanos += nanos_between(t0, t1);
                inflight.push_back((token, t0));
                if inflight.len() < depth {
                    continue;
                }
                submitted_at = Some(t1);
            }
            let Some((token, t0)) = inflight.pop_front() else {
                break;
            };
            let t1 = submitted_at.unwrap_or_else(Instant::now);
            let filled = self.reader.complete_group(token)?;
            let t2 = Instant::now();
            complete_nanos += nanos_between(t1, t2);
            self.cq_hist.record(nanos_between(t1, t2));
            self.spans.record("io_group", t0, t2);
            consume(&filled);
            aggregate_nanos += nanos_between(t2, Instant::now());
            self.buf_pool.push(filled);
        }
        self.metrics.prepare_nanos += prepare_nanos;
        self.metrics.complete_nanos += complete_nanos;
        self.phases.add(Phase::Submit, prepare_nanos);
        self.phases.add(Phase::Complete, complete_nanos);
        self.phases.add(Phase::Aggregate, aggregate_nanos);
        // Fold reader deltas into worker metrics (saturating: a reader
        // whose counters reset mid-epoch must not wrap the fold).
        let s = self.reader.stats();
        self.metrics.add_reader_delta(&self.last_reader_stats, &s);
        self.last_reader_stats = s;
        Ok(())
    }

    /// Grows the workspace memory charge to match actual scratch capacity;
    /// the failure mode is the paper's OOM under cgroup limits.
    fn ensure_workspace_charge(&mut self) -> Result<()> {
        let actual = (self.offsets.capacity() * 8
            + self.src_pos.capacity() * 4
            + self.reqs.capacity() * std::mem::size_of::<ReadSlice>()
            + self
                .buf_pool
                .iter()
                .map(|b| b.capacity())
                .sum::<usize>()
            + self.planner.scratch_bytes()
            + self.payload.capacity()
            + self
                .page_pool
                .iter()
                .chain(self.page_data.iter())
                .map(|b| b.capacity())
                .sum::<usize>()) as u64
            + 2 * self.cfg.ring_entries as u64 * ENTRY_BYTES
            + 64 * 1024;
        if actual > self.charged_bytes {
            self.workspace_charge
                .grow(actual - self.charged_bytes, "thread workspace")?;
            self.charged_bytes = actual;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryBudget;
    use ringsampler_graph::edgefile::write_csr;
    use ringsampler_graph::CsrGraph;

    fn test_graph(tag: &str) -> Arc<OnDiskGraph> {
        let base =
            std::env::temp_dir().join(format!("rs-core-worker-{}-{tag}", std::process::id()));
        // 64 nodes, each node v has neighbors (v+1..v+1+deg) % 64 where
        // deg = v % 9, so degrees range 0..8.
        let mut edges = Vec::new();
        for v in 0..64u32 {
            for j in 0..(v % 9) {
                edges.push((v, (v + 1 + j) % 64));
            }
        }
        let csr = CsrGraph::from_edges(64, edges).unwrap();
        Arc::new(write_csr(&csr, &base).unwrap())
    }

    fn worker(graph: &Arc<OnDiskGraph>, cfg: SamplerConfig) -> SamplerWorker {
        SamplerWorker::new(Arc::clone(graph), cfg).unwrap()
    }

    fn validate_sample(graph: &OnDiskGraph, csr: &CsrGraph, s: &BatchSample, fanouts: &[usize]) {
        assert_eq!(s.layers.len(), fanouts.len());
        for (l, &f) in s.layers.iter().zip(fanouts) {
            assert_eq!(l.fanout, f);
            for (src, dst) in l.iter_edges() {
                assert!(
                    csr.neighbors(src).contains(&dst),
                    "{dst} is not a neighbor of {src}"
                );
            }
            // Per-target counts: min(fanout, degree).
            for (pos, &t) in l.targets.iter().enumerate() {
                let got = l.src_pos.iter().filter(|&&p| p as usize == pos).count();
                let expect = (graph.degree(t) as usize).min(f);
                assert_eq!(got, expect, "target {t} fanout {f}");
            }
        }
    }

    #[test]
    fn batch_sample_is_valid_against_graph() {
        let graph = test_graph("valid");
        let csr = graph.load_csr().unwrap();
        let cfg = SamplerConfig::new().fanouts(&[3, 2]).ring_entries(16).seed(1);
        let mut w = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (0..64).collect();
        let s = w.sample_batch(&seeds, 0).unwrap();
        validate_sample(&graph, &csr, &s, &[3, 2]);
        let m = w.metrics();
        assert_eq!(m.batches, 1);
        assert_eq!(m.layers, 2);
        assert!(m.io_requests > 0);
        assert_eq!(m.io_bytes, m.io_requests * 4);
    }

    #[test]
    fn deterministic_across_workers() {
        let graph = test_graph("det");
        let cfg = SamplerConfig::new().fanouts(&[3, 2]).ring_entries(8).seed(7);
        let mut w1 = worker(&graph, cfg.clone());
        let mut w2 = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (10..30).collect();
        let a = w1.sample_batch(&seeds, 5).unwrap();
        let b = w2.sample_batch(&seeds, 5).unwrap();
        assert_eq!(a, b);
        let c = w2.sample_batch(&seeds, 6).unwrap();
        assert_ne!(a, c, "different batch seeds should differ");
    }

    #[test]
    fn sync_and_async_pipelines_agree() {
        let graph = test_graph("pipe");
        let mk = |mode| {
            SamplerConfig::new()
                .fanouts(&[4, 3])
                .ring_entries(4) // force many groups per layer
                .pipeline(mode)
                .seed(3)
        };
        let mut wa = worker(&graph, mk(PipelineMode::Async));
        let mut ws = worker(&graph, mk(PipelineMode::Sync));
        let seeds: Vec<NodeId> = (0..64).collect();
        let a = wa.sample_batch(&seeds, 1).unwrap();
        let s = ws.sample_batch(&seeds, 1).unwrap();
        assert_eq!(a, s);
    }

    #[test]
    fn uring_and_pread_engines_agree() {
        let graph = test_graph("engines");
        let mk = |engine| {
            SamplerConfig::new()
                .fanouts(&[3, 2])
                .ring_entries(8)
                .engine(engine)
                .seed(11)
        };
        let mut wu = worker(&graph, mk(EngineKind::Uring));
        let mut wp = worker(&graph, mk(EngineKind::Pread));
        assert_eq!(wu.engine_name(), "io_uring");
        assert_eq!(wp.engine_name(), "pread");
        let seeds: Vec<NodeId> = (0..40).collect();
        let a = wu.sample_batch(&seeds, 2).unwrap();
        let b = wp.sample_batch(&seeds, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cached_mode_matches_raw_mode() {
        let graph = test_graph("cache");
        let raw_cfg = SamplerConfig::new().fanouts(&[4, 4]).ring_entries(16).seed(9);
        let cached_cfg = raw_cfg.clone().cache(CachePolicy::Page {
            budget_bytes: 64 * (PAGE_SIZE as u64 + 64),
        });
        let mut wr = worker(&graph, raw_cfg);
        let mut wc = worker(&graph, cached_cfg);
        let seeds: Vec<NodeId> = (0..64).collect();
        for batch in 0..4 {
            let a = wr.sample_batch(&seeds, batch).unwrap();
            let b = wc.sample_batch(&seeds, batch).unwrap();
            assert_eq!(a, b);
        }
        let m = wc.metrics();
        assert!(m.cache_hits > 0, "repeat batches must hit the cache");
        // Cached mode reads pages, raw reads 4-byte entries: fewer requests.
        assert!(m.io_requests < wr.metrics().io_requests);
    }

    #[test]
    fn tiny_cache_still_correct() {
        // Cache with capacity 1 page: constant eviction, still correct.
        let graph = test_graph("tinycache");
        let cfg = SamplerConfig::new()
            .fanouts(&[4])
            .ring_entries(8)
            .seed(13)
            .cache(CachePolicy::Page {
                budget_bytes: PAGE_SIZE as u64 + 64,
            });
        let raw = SamplerConfig::new().fanouts(&[4]).ring_entries(8).seed(13);
        let mut wc = worker(&graph, cfg);
        let mut wr = worker(&graph, raw);
        let seeds: Vec<NodeId> = (0..64).collect();
        assert_eq!(
            wc.sample_batch(&seeds, 0).unwrap(),
            wr.sample_batch(&seeds, 0).unwrap()
        );
    }

    #[test]
    fn zero_degree_seeds_produce_empty_layers() {
        let graph = test_graph("zero");
        let cfg = SamplerConfig::new().fanouts(&[5, 5]).ring_entries(8);
        let mut w = worker(&graph, cfg);
        // Node 0 has degree 0 (0 % 9 == 0).
        let s = w.sample_batch(&[0], 0).unwrap();
        assert_eq!(s.layers[0].num_edges(), 0);
        assert_eq!(s.layers[1].num_edges(), 0);
        assert!(s.layers[1].targets.is_empty());
    }

    #[test]
    fn oom_on_tiny_budget() {
        let graph = test_graph("oom");
        let cfg = SamplerConfig::new()
            .fanouts(&[3])
            .ring_entries(8)
            .budget(MemoryBudget::limited(100));
        match SamplerWorker::new(graph, cfg) {
            Err(crate::error::SamplerError::OutOfMemory { .. }) => {}
            other => panic!("expected OOM, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn with_replacement_always_fills_fanout() {
        let graph = test_graph("replace");
        let cfg = SamplerConfig::new()
            .fanouts(&[10])
            .ring_entries(16)
            .with_replacement(true)
            .seed(3);
        let mut w = worker(&graph, cfg);
        // Node 10 has degree 1 (10 % 9); with replacement it must still
        // contribute exactly 10 draws, all of the same neighbor.
        let s = w.sample_batch(&[10], 0).unwrap();
        assert_eq!(s.layers[0].num_edges(), 10);
        let first = s.layers[0].dst[0];
        assert!(s.layers[0].dst.iter().all(|&d| d == first));
        // Zero-degree node 0 contributes nothing even with replacement.
        let s0 = w.sample_batch(&[0], 1).unwrap();
        assert_eq!(s0.layers[0].num_edges(), 0);
    }

    #[test]
    fn registered_file_fast_path_matches_plain(){
        let graph = test_graph("regfile");
        let on = SamplerConfig::new().fanouts(&[3, 2]).ring_entries(8).seed(4).register_file(true);
        let off = SamplerConfig::new().fanouts(&[3, 2]).ring_entries(8).seed(4).register_file(false);
        let mut w_on = worker(&graph, on);
        let mut w_off = worker(&graph, off);
        let seeds: Vec<NodeId> = (0..64).collect();
        assert_eq!(
            w_on.sample_batch(&seeds, 0).unwrap(),
            w_off.sample_batch(&seeds, 0).unwrap()
        );
    }

    #[test]
    fn stage_timers_populated() {
        let graph = test_graph("timers");
        let cfg = SamplerConfig::new().fanouts(&[4, 4]).ring_entries(8);
        let mut w = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (0..64).collect();
        w.sample_batch(&seeds, 0).unwrap();
        let m = w.metrics();
        assert!(m.prepare_nanos > 0, "prepare time recorded");
        assert!(m.complete_nanos > 0, "completion time recorded");
        let f = m.wait_fraction();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn worker_stats_expose_distributions() {
        let graph = test_graph("stats");
        let cfg = SamplerConfig::new().fanouts(&[4, 4]).ring_entries(8);
        let mut w = worker(&graph, cfg);
        w.set_span_origin(Instant::now());
        let seeds: Vec<NodeId> = (0..64).collect();
        w.sample_batch(&seeds, 0).unwrap();
        w.sample_batch(&seeds, 1).unwrap();
        let s = w.stats();
        assert_eq!(s.batch_latency.count(), 2, "one sample per batch");
        assert_eq!(
            s.group_latency.count(),
            s.metrics.io_groups,
            "one group-latency sample per completed group"
        );
        assert_eq!(s.cq_wait.count(), s.metrics.io_groups);
        assert!(s.phases.get(Phase::Prepare) > 0);
        assert!(s.phases.get(Phase::Submit) > 0);
        assert!(s.phases.get(Phase::Complete) > 0);
        // Spans: 2 batch spans + one per I/O group.
        let batch_spans = s.spans.events().iter().filter(|e| e.name == "batch").count();
        let group_spans = s.spans.events().iter().filter(|e| e.name == "io_group").count();
        assert_eq!(batch_spans, 2);
        assert_eq!(group_spans as u64, s.metrics.io_groups);
        // The legacy stage timers agree with the phase recorder.
        assert_eq!(s.metrics.prepare_nanos, s.phases.get(Phase::Submit));
        assert_eq!(s.metrics.complete_nanos, s.phases.get(Phase::Complete));
        // take_stats moves the span log out.
        let taken = w.take_stats();
        assert_eq!(taken.spans.len(), s.spans.len());
        assert!(w.stats().spans.is_empty());
    }

    #[test]
    fn zero_span_capacity_disables_recording() {
        let graph = test_graph("nospans");
        let cfg = SamplerConfig::new().fanouts(&[3]).ring_entries(8).span_capacity(0);
        let mut w = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (0..32).collect();
        w.sample_batch(&seeds, 0).unwrap();
        let s = w.stats();
        assert!(s.spans.is_empty());
        assert!(s.spans.dropped() > 0);
        // Histograms still record regardless.
        assert_eq!(s.batch_latency.count(), 1);
    }

    #[test]
    fn metrics_accumulate_over_batches() {
        let graph = test_graph("metrics");
        let cfg = SamplerConfig::new().fanouts(&[2]).ring_entries(8);
        let mut w = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (0..32).collect();
        w.sample_batch(&seeds, 0).unwrap();
        let m1 = w.metrics();
        w.sample_batch(&seeds, 1).unwrap();
        let m2 = w.metrics();
        assert_eq!(m2.batches, 2);
        assert!(m2.io_requests >= m1.io_requests);
        assert!(m2.sampled_edges > m1.sampled_edges);
    }

    #[test]
    fn all_plan_modes_match_naive_output() {
        let graph = test_graph("planmodes");
        let modes = [
            ReadPlanMode::Off,
            ReadPlanMode::Dedup,
            ReadPlanMode::Coalesce { gap: 0 },
            ReadPlanMode::coalesce(),
        ];
        for engine in [EngineKind::Uring, EngineKind::Pread] {
            for cached in [false, true] {
                for replace in [false, true] {
                    let mk = |mode| {
                        let mut c = SamplerConfig::new()
                            .fanouts(&[6, 4])
                            .ring_entries(8)
                            .engine(engine)
                            .with_replacement(replace)
                            .seed(21)
                            .read_plan(mode);
                        if cached {
                            c = c.cache(CachePolicy::Page {
                                budget_bytes: 8 * (PAGE_SIZE as u64 + 64),
                            });
                        }
                        c
                    };
                    let seeds: Vec<NodeId> = (0..64).collect();
                    let mut naive = worker(&graph, mk(ReadPlanMode::Off));
                    let want = naive.sample_batch(&seeds, 0).unwrap();
                    for mode in modes {
                        let mut w = worker(&graph, mk(mode));
                        let got = w.sample_batch(&seeds, 0).unwrap();
                        assert_eq!(
                            got, want,
                            "mode {mode:?} engine {engine:?} cached {cached} replace {replace}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn off_mode_submits_identical_request_stream() {
        // `read_plan = Off` must be bit-identical to the pre-planner
        // behavior: one 4-byte request per sampled entry, no planner
        // counters touched.
        let graph = test_graph("planoff");
        let cfg = SamplerConfig::new().fanouts(&[4, 3]).ring_entries(8).seed(5);
        let mut w = worker(&graph, cfg);
        let seeds: Vec<NodeId> = (0..64).collect();
        let s = w.sample_batch(&seeds, 0).unwrap();
        let m = w.metrics();
        let edges: u64 = s.layers.iter().map(|l| l.num_edges() as u64).sum();
        assert_eq!(m.io_requests, edges);
        assert_eq!(m.io_bytes, edges * ENTRY_BYTES);
        assert_eq!(m.reads_planned, 0);
        assert_eq!(m.reads_saved, 0);
        assert_eq!(m.bytes_saved, 0);
    }

    #[test]
    fn planned_modes_save_reads_with_replacement() {
        // With replacement on a skewed access pattern, duplicates abound:
        // Dedup must submit strictly fewer requests than naive, Coalesce
        // no more than Dedup. All counters must flow to metrics.
        let graph = test_graph("plansave");
        let mk = |mode| {
            SamplerConfig::new()
                .fanouts(&[25, 10])
                .ring_entries(16)
                .with_replacement(true)
                .seed(17)
                .read_plan(mode)
        };
        let seeds: Vec<NodeId> = (0..64).collect();
        let run = |mode| {
            let mut w = worker(&graph, mk(mode));
            let s = w.sample_batch(&seeds, 0).unwrap();
            let m = w.metrics();
            (s, m)
        };
        let (want, naive) = run(ReadPlanMode::Off);
        let (got_d, dedup) = run(ReadPlanMode::Dedup);
        let (got_c, coal) = run(ReadPlanMode::coalesce());
        assert_eq!(got_d, want);
        assert_eq!(got_c, want);
        assert!(dedup.io_requests < naive.io_requests, "dedup must save SQEs");
        assert!(coal.io_requests <= dedup.io_requests);
        assert!(dedup.reads_planned > 0);
        assert!(dedup.reads_saved > 0);
        assert!(dedup.bytes_saved > 0);
        assert!(coal.coalesce_ratio() >= dedup.coalesce_ratio());
    }

    #[test]
    fn cached_coalesce_merges_adjacent_pages() {
        // Needs an edge file spanning several pages, unlike `test_graph`.
        let base = std::env::temp_dir()
            .join(format!("rs-core-worker-{}-plancache", std::process::id()));
        let mut edges = Vec::new();
        for v in 0..256u32 {
            for j in 0..(v % 33) {
                edges.push((v, (v + 1 + j) % 256));
            }
        }
        let csr = CsrGraph::from_edges(256, edges).unwrap();
        let graph = Arc::new(write_csr(&csr, &base).unwrap());
        let mk = |mode| {
            SamplerConfig::new()
                .fanouts(&[8])
                .ring_entries(8)
                .seed(29)
                .read_plan(mode)
                .cache(CachePolicy::Page {
                    budget_bytes: 64 * (PAGE_SIZE as u64 + 64),
                })
        };
        let seeds: Vec<NodeId> = (0..256).collect();
        let mut w_off = worker(&graph, mk(ReadPlanMode::Off));
        let mut w_c = worker(&graph, mk(ReadPlanMode::coalesce()));
        let a = w_off.sample_batch(&seeds, 0).unwrap();
        let b = w_c.sample_batch(&seeds, 0).unwrap();
        assert_eq!(a, b);
        // The miss pages of this tiny graph are contiguous, so coalescing
        // must collapse them into fewer slices than pages.
        let m = w_c.metrics();
        assert!(m.reads_planned > 0);
        assert!(m.io_requests < w_off.metrics().io_requests);
    }

    #[test]
    fn entry_past_eof_is_structured_error_not_underflow() {
        let graph = test_graph("eof");
        let cfg = SamplerConfig::new()
            .fanouts(&[2])
            .ring_entries(8)
            .cache(CachePolicy::Page {
                budget_bytes: 8 * (PAGE_SIZE as u64 + 64),
            });
        let mut w = worker(&graph, cfg);
        // An entry index far past the edge file: the cached path must
        // return a short-read error, not underflow `file_len - start`.
        let err = w.fetch_entries(&[1 << 40]).unwrap_err();
        match err {
            SamplerError::Io(IoEngineError::ShortRead { got, .. }) => assert_eq!(got, 0),
            other => panic!("expected structured ShortRead, got {other:?}"),
        }
    }

    #[test]
    fn flight_recorder_captures_batch_lifecycle() {
        let graph = test_graph("trace");
        let cfg = SamplerConfig::new().fanouts(&[4, 3]).ring_entries(8).seed(2);
        let mut w = worker(&graph, cfg);
        w.set_span_origin(Instant::now());
        let seeds: Vec<NodeId> = (0..64).collect();
        w.sample_batch(&seeds, 0).unwrap();
        let s = w.take_stats();
        assert_eq!(s.trace_dropped, 0);
        let count = |k: EventKind| s.events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(EventKind::BatchStart), 1);
        assert_eq!(count(EventKind::BatchEnd), 1);
        assert_eq!(
            count(EventKind::SampleDone),
            4,
            "one per layer draw plus one per inter-layer reduce"
        );
        let reduces = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SampleDone && e.a == 0)
            .count();
        assert_eq!(reduces, 2, "reduce events carry fanout 0");
        assert_eq!(count(EventKind::PlanBuilt), 2, "one per layer fetch");
        assert_eq!(count(EventKind::ScatterDone), 2);
        assert_eq!(count(EventKind::GroupSubmit) as u64, s.metrics.io_groups);
        assert_eq!(count(EventKind::GroupComplete) as u64, s.metrics.io_groups);
        // The ring is FIFO and single-writer: timestamps are monotone.
        for pair in s.events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns, "out-of-order events");
        }
        let end = s
            .events
            .iter()
            .find(|e| e.kind == EventKind::BatchEnd)
            .expect("BatchEnd recorded");
        assert_eq!(end.a, 0, "first batch index");
        assert!(end.b > 0, "batch duration recorded");
        assert_eq!(end.c, 2, "layer count");
        // take_stats drained the ring: the next window starts empty.
        assert!(w.take_stats().events.is_empty());
    }

    #[test]
    fn zero_trace_capacity_disables_recording() {
        let graph = test_graph("notrace");
        let cfg = SamplerConfig::new()
            .fanouts(&[3])
            .ring_entries(8)
            .trace_capacity(0);
        let mut w = worker(&graph, cfg);
        w.set_span_origin(Instant::now());
        let seeds: Vec<NodeId> = (0..32).collect();
        w.sample_batch(&seeds, 0).unwrap();
        let s = w.take_stats();
        assert!(s.events.is_empty());
        assert_eq!(s.trace_dropped, 0);
    }

    #[test]
    fn flight_recorder_counts_cache_traffic() {
        let graph = test_graph("tracecache");
        let cfg = SamplerConfig::new()
            .fanouts(&[4, 4])
            .ring_entries(16)
            .seed(9)
            .cache(CachePolicy::Page {
                budget_bytes: 64 * (PAGE_SIZE as u64 + 64),
            });
        let mut w = worker(&graph, cfg);
        w.set_span_origin(Instant::now());
        let seeds: Vec<NodeId> = (0..64).collect();
        for batch in 0..3 {
            w.sample_batch(&seeds, batch).unwrap();
        }
        let s = w.take_stats();
        let hit_sum: u64 = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::CacheHit)
            .map(|e| e.a)
            .sum();
        let miss_sum: u64 = s
            .events
            .iter()
            .filter(|e| e.kind == EventKind::CacheMiss)
            .map(|e| e.a)
            .sum();
        assert_eq!(hit_sum, s.metrics.cache_hits, "hit events sum to counter");
        assert_eq!(miss_sum, s.metrics.cache_misses, "miss events sum to counter");
        assert!(hit_sum > 0, "repeat batches must record hits");
    }
}
