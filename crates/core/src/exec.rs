//! Region execution: the bound [`Region`], the Naive driver, the
//! Pipelined model's compile step, and the one executor that replays
//! every compiled plan.
//!
//! Both pipelined models run as a [`CompiledPlan`]: the Pipelined-buffer
//! compile step lives in [`crate::buffer`], the Pipelined one
//! ([`compile_pipelined`]) here. [`replay`] walks a plan's per-chunk
//! [`ChunkStep`]s into a [`CommandSink`]: the simulated device (this
//! module's executor) or the cost model's analytic recurrence
//! ([`crate::costmodel`]), so the model times exactly the command stream
//! the driver issues. Naive stays a separate driver: its synchronous
//! whole-array copies on the default stream do not fit a chunk step.
//!
//! All drivers share one kernel-builder interface: the application
//! provides a closure from a [`ChunkCtx`] (iteration sub-range + device
//! views) to a [`KernelLaunch`]. Because kernels address arrays only
//! through [`ArrayView`](crate::ArrayView), the *same* kernel body is
//! correct under direct and ring-buffer mappings — mirroring how the
//! paper passes device base pointers and offsets into unmodified OpenACC
//! kernel bodies.

use gpsim::{
    Copy2D, CounterTrack, DeviceProfile, EventId, Gpu, HostBufId, HostSpanKind, KernelLaunch,
    SimTime, StreamId, WaitCause,
};

use crate::buffer::{compile_impl, slot_runs};
use crate::error::{RtError, RtResult};
use crate::plan::{
    build_window_table, chunk_ranges, map_full_bytes, resolve_plan, ChunkStep, CompiledPlan,
    EvKind, Plan, PlanKey, Staging,
};
use crate::recovery::{
    drain_with_recovery, DrainResult, DriverOutcome, RecoveryCtx, RecoveryStats,
};
use crate::report::{ExecModel, RunReport};
use crate::spec::{RegionSpec, Schedule, SplitSpec};
use crate::view::{ArrayView, ChunkCtx};

/// Unwrap a [`DriverOutcome`] from a driver run without recovery:
/// `Exhausted` is unreachable because only an enabled retry policy can
/// produce it.
pub(crate) fn expect_done(outcome: DriverOutcome) -> RunReport {
    match outcome {
        DriverOutcome::Done(r) => r,
        DriverOutcome::Exhausted { .. } => {
            unreachable!("retry exhaustion without a retry policy")
        }
    }
}

/// A kernel factory: called once per chunk (or once for the whole loop in
/// the Naive model) to produce the kernel launch for that sub-range.
///
/// `Sync` so that sweep workers ([`crate::sweep`]) can share one builder
/// across threads; builders are pure functions of the chunk context in
/// practice.
pub type KernelBuilder<'a> = dyn Fn(&ChunkCtx) -> KernelLaunch + Sync + 'a;

/// A bound region: a spec, a loop range, and one host buffer per map.
#[derive(Debug, Clone)]
pub struct Region {
    /// The clause-level specification.
    pub spec: RegionSpec,
    /// Loop lower bound (inclusive).
    pub lo: i64,
    /// Loop upper bound (exclusive).
    pub hi: i64,
    /// Host buffers, one per map in `spec.maps` order.
    pub arrays: Vec<HostBufId>,
}

impl Region {
    /// Bind host arrays to a spec over a loop range.
    pub fn new(spec: RegionSpec, lo: i64, hi: i64, arrays: Vec<HostBufId>) -> Region {
        Region {
            spec,
            lo,
            hi,
            arrays,
        }
    }

    /// Validate the spec and that every bound host buffer is large enough
    /// for its map.
    pub fn validate(&self, gpu: &Gpu) -> RtResult<()> {
        self.spec.validate(self.lo, self.hi)?;
        self.validate_binding(gpu)
    }

    /// Binding-only validation (array counts and sizes), used when custom
    /// window functions replace the affine bounds check.
    pub fn validate_binding(&self, gpu: &Gpu) -> RtResult<()> {
        if self.arrays.len() != self.spec.maps.len() {
            return Err(RtError::Spec(format!(
                "{} maps but {} bound arrays",
                self.spec.maps.len(),
                self.arrays.len()
            )));
        }
        for (m, &h) in self.spec.maps.iter().zip(&self.arrays) {
            let need = m.split.total_elems();
            let have = gpu.host_len(h)?;
            if have < need {
                return Err(RtError::Spec(format!(
                    "map '{}' needs {} host elements, buffer has {}",
                    m.name, need, have
                )));
            }
        }
        Ok(())
    }
}

/// Allocate every map's device staging and return its views: rings of
/// `ring_slots[i]` slices (pitched for column blocks) when given, else
/// the *full* footprint with unchanged indices. Partial allocations are
/// rolled back on failure (e.g. the paper's out-of-memory GEMM sizes), so
/// a failed run leaves the context clean for the next version. The
/// caller frees via [`free_views`].
fn alloc_views(
    gpu: &mut Gpu,
    region: &Region,
    ring_slots: Option<&[usize]>,
) -> RtResult<Vec<ArrayView>> {
    let mut views: Vec<ArrayView> = Vec::with_capacity(region.spec.maps.len());
    for (i, m) in region.spec.maps.iter().enumerate() {
        let alloc = match (&m.split, ring_slots.map(|r| r[i])) {
            (SplitSpec::OneD { slice_elems, .. }, None) => gpu
                .alloc(m.split.total_elems())
                .map(|ptr| ArrayView::direct_1d(ptr, *slice_elems)),
            (
                SplitSpec::ColBlocks {
                    rows,
                    block_cols,
                    row_stride,
                    ..
                },
                None,
            ) => gpu
                .alloc(rows * row_stride)
                .map(|ptr| ArrayView::direct_2d(ptr, *row_stride, *block_cols, *rows)),
            (SplitSpec::OneD { slice_elems, .. }, Some(slots)) => gpu
                .alloc(slots * slice_elems)
                .map(|ptr| ArrayView::ring_1d(ptr, *slice_elems, slots)),
            (
                SplitSpec::ColBlocks {
                    rows, block_cols, ..
                },
                Some(slots),
            ) => gpu
                .alloc_pitched(*rows, slots * block_cols)
                .map(|(ptr, pitch)| ArrayView::ring_2d(ptr, pitch, *block_cols, *rows, slots)),
        };
        match alloc {
            Ok(v) => views.push(v),
            Err(e) => {
                let _ = free_views(gpu, &views);
                return Err(e.into());
            }
        }
    }
    Ok(views)
}

/// Free the allocations behind a set of views.
fn free_views(gpu: &mut Gpu, views: &[ArrayView]) -> RtResult<()> {
    for v in views {
        gpu.free(v.base())?;
    }
    Ok(())
}

/// Sum of full-footprint device bytes of a region.
fn full_bytes(region: &Region) -> u64 {
    region.spec.maps.iter().map(|m| map_full_bytes(&m.split)).sum()
}

/// Attach declared access ranges for the race checker: the kernel reads
/// all input slices of its chunk and writes all output slices, through
/// the given views. Only populated when the context's race checker is
/// enabled (the declarations are O(slices·rows) and test-only).
fn declare_accesses(
    gpu: &Gpu,
    mut kernel: KernelLaunch,
    region: &Region,
    views: &[ArrayView],
    ranges: &[(i64, i64)],
) -> KernelLaunch {
    if !gpu.race_check_enabled() {
        return kernel;
    }
    for (i, m) in region.spec.maps.iter().enumerate() {
        let (a, b) = ranges[i];
        let v = &views[i];
        for s in a..b {
            match m.split {
                SplitSpec::OneD { slice_elems, .. } => {
                    let ptr = v.slice_ptr(s);
                    if m.dir.is_input() {
                        kernel = kernel.reading(ptr, slice_elems);
                    }
                    if m.dir.is_output() {
                        kernel = kernel.writing(ptr, slice_elems);
                    }
                }
                SplitSpec::ColBlocks {
                    rows, block_cols, ..
                } => {
                    // One strided range per block: the checker understands
                    // pitched layouts exactly, so sibling blocks interleaved
                    // row-by-row do not falsely overlap and the log stays
                    // O(slices) instead of O(slices·rows).
                    let (ptr, stride) = v.block_ptr(s);
                    if m.dir.is_input() {
                        kernel = kernel.reading_strided(ptr, block_cols, stride, rows);
                    }
                    if m.dir.is_output() {
                        kernel = kernel.writing_strided(ptr, block_cols, stride, rows);
                    }
                }
            }
        }
    }
    kernel
}

/// The **Naive** offload model: synchronously copy all inputs, launch
/// one kernel covering the whole loop, synchronously copy all outputs
/// back (paper §II: "the naive offload model"). The Naive model has no
/// chunk-granular recovery — a failure fails the whole region, and
/// [`crate::run::run_model`] retries or degrades at run granularity
/// instead.
///
/// Resets the context's activity counters.
pub(crate) fn naive_impl(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
) -> RtResult<RunReport> {
    region.validate(gpu)?;
    gpu.reset_counters();
    let t0 = gpu.now();

    let views = alloc_views(gpu, region, None)?;
    let gpu_mem = gpu.current_mem();

    if let Err(e) = naive_body(gpu, region, builder, &views) {
        // Leave the device clean so a whole-run retry (see `run_model`)
        // can start over: drain whatever is still in flight and release
        // the full-size arrays.
        while gpu.synchronize().is_err() {}
        let _ = gpu.take_failures();
        let _ = free_views(gpu, &views);
        return Err(e);
    }

    let total = gpu.now() - t0;
    let report = RunReport::from_gpu(
        ExecModel::Naive,
        total,
        gpu,
        gpu_mem,
        full_bytes(region),
        1,
        1,
    );
    free_views(gpu, &views)?;
    Ok(report)
}

/// The enqueue sequence of the naive model: full copy-in → one kernel →
/// full copy-out, all on the default stream.
fn naive_body(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    views: &[ArrayView],
) -> RtResult<()> {
    // Copy every input array in full.
    for (i, m) in region.spec.maps.iter().enumerate() {
        if m.dir.is_input() {
            gpu.memcpy_h2d(region.arrays[i], 0, views[i].base(), m.split.total_elems())?;
        }
    }

    // One kernel for the entire iteration space.
    let ctx = ChunkCtx {
        k0: region.lo,
        k1: region.hi,
        views: views.to_vec(),
    };
    let full_ranges: Vec<(i64, i64)> = region
        .spec
        .maps
        .iter()
        .map(|m| m.split.needed_slices(region.lo, region.hi))
        .collect();
    let kernel = declare_accesses(gpu, builder(&ctx), region, views, &full_ranges);
    let s0 = gpu.default_stream();
    gpu.launch(s0, kernel)?;
    gpu.stream_synchronize(s0)?;

    // Copy every output array back in full.
    for (i, m) in region.spec.maps.iter().enumerate() {
        if m.dir.is_output() {
            gpu.memcpy_d2h(views[i].base(), m.split.total_elems(), region.arrays[i], 0)?;
        }
    }
    Ok(())
}

/// Host bookkeeping the Pipelined model charges after every enqueue, as
/// a multiple of the device's API overhead *per live stream beyond the
/// second*. Models the per-queue polling of an OpenACC async runtime; the
/// paper observes the hand-pipelined version degrading dramatically as
/// streams grow (Figure 7) while the prototype, which talks to CUDA
/// streams directly, stays flat. Calibrated so that, at the paper's
/// problem sizes, the host-side queue polling overtakes the device
/// pipeline somewhere between 4 and 6 streams — the crossover of
/// Figure 7.
const POLL_FACTOR: f64 = 2.4;

/// Compile a region for the **Pipelined** model: the loop is divided
/// into chunks launched with their transfers on round-robin streams, but
/// device arrays keep their *full* footprint and indices are unchanged —
/// the paper's hand-coded comparator ("manually divides the iterations
/// but does not alter array indices", §IV).
///
/// Inputs are copied in disjoint extensions of a per-map high-water
/// mark, so a slice shared by two chunks is copied once — and slices
/// between two chunks' windows are copied too. A kernel waits for the
/// H2D group of every other-stream chunk that copied one of its slices.
/// Device-free: the profile only resolves adaptive schedules and the
/// poll charge.
pub(crate) fn compile_pipelined(
    profile: &DeviceProfile,
    region: &Region,
) -> RtResult<CompiledPlan> {
    let spec = &region.spec;
    // Output windows that overlap between chunks would be drained to the
    // host by different streams in nondeterministic order.
    for m in &spec.maps {
        if m.dir.is_output() {
            let scale = m.split.offset().scale.max(0) as usize;
            if m.split.window() > scale {
                return Err(RtError::Spec(format!(
                    "map '{}': output window {} exceeds stride {}; chunks would \
                     write overlapping host ranges in nondeterministic order",
                    m.name,
                    m.split.window(),
                    scale
                )));
            }
        }
    }
    let (chunk_size, num_streams) = match spec.schedule {
        Schedule::Static {
            chunk_size,
            num_streams,
        } => {
            let iters = (region.hi - region.lo) as usize;
            (chunk_size.min(iters).max(1), num_streams.max(1))
        }
        Schedule::Adaptive => {
            let plan = resolve_plan(spec, profile, region.lo, region.hi)?;
            (plan.chunk_size, plan.num_streams)
        }
    };
    let chunks = chunk_ranges(region.lo, region.hi, chunk_size);
    let table = build_window_table(spec, &chunks, &[])?;

    // `owner[m][slice - first[m]]` is the chunk that copies each slice.
    let n_maps = spec.maps.len();
    let mut hwm: Vec<i64> = Vec::with_capacity(n_maps); // per-map high-water mark
    let mut first: Vec<i64> = Vec::with_capacity(n_maps);
    let mut owner: Vec<Vec<usize>> = Vec::with_capacity(n_maps);
    for m in &spec.maps {
        let (a, b) = m.split.needed_slices(region.lo, region.hi);
        first.push(a);
        hwm.push(a);
        owner.push(vec![usize::MAX; (b - a).max(0) as usize]);
    }
    let mut steps: Vec<ChunkStep> = Vec::with_capacity(chunks.len());
    // Halo-consumer graph: chunks whose kernels read slices chunk `c`
    // copied. An H2D failure of `c` silently fed those kernels stale
    // data, so recovery retries them alongside `c`.
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); chunks.len()];
    // Per-chunk scratch, hoisted so chunks reuse capacity; each step keeps
    // an exactly sized copy, which keeps the plan a run holds small.
    let (mut copy_runs, mut kernel_waits, mut out_runs) = (Vec::new(), Vec::new(), Vec::new());
    for c in 0..chunks.len() {
        let stream = c % num_streams;
        copy_runs.clear();
        for (i, m) in spec.maps.iter().enumerate() {
            let b = table.ranges[i][c].1;
            if !m.dir.is_input() || hwm[i] >= b {
                continue;
            }
            copy_runs.push((i, hwm[i], (b - hwm[i]) as usize));
            for sl in hwm[i]..b {
                owner[i][(sl - first[i]) as usize] = c;
            }
            hwm[i] = b;
        }
        kernel_waits.clear();
        for (i, m) in spec.maps.iter().enumerate() {
            if !m.dir.is_input() {
                continue;
            }
            let (a, b) = table.ranges[i][c];
            for sl in a..b {
                let o = owner[i][(sl - first[i]) as usize];
                debug_assert_ne!(o, usize::MAX, "slice {sl} of map {i} never copied");
                if o != c
                    && o % num_streams != stream
                    && !kernel_waits.iter().any(|&(w, _, _)| w == o)
                {
                    kernel_waits.push((o, EvKind::H2d, WaitCause::Dependency));
                }
                if o != c && !dependents[o].contains(&c) {
                    dependents[o].push(c);
                }
            }
        }
        out_runs.clear();
        for (i, m) in spec.maps.iter().enumerate() {
            if m.dir.is_output() {
                let (a, b) = table.ranges[i][c];
                out_runs.push((i, a, (b - a) as usize));
            }
        }
        steps.push(ChunkStep {
            stream,
            copy_waits: Vec::new(),
            copy_runs: copy_runs.to_vec(),
            kernel_waits: kernel_waits.to_vec(),
            out_runs: out_runs.to_vec(),
            mapped_slots: 0,
        });
    }

    let extra = num_streams.saturating_sub(2) as f64;
    let poll = SimTime::from_secs_f64(profile.api_overhead.as_secs_f64() * POLL_FACTOR * extra);
    Ok(CompiledPlan {
        plan: Plan {
            chunk_size,
            num_streams,
            chunks,
            // Slot = slice: each array's "ring" is the whole array.
            ring_slots: spec.maps.iter().map(|m| m.split.extent()).collect(),
            buffer_bytes: full_bytes(region),
        },
        table,
        steps,
        dependents,
        plan_label: format!("plan(chunk={chunk_size}, streams={num_streams})"),
        poll,
        key: PlanKey {
            spec: spec.clone(),
            lo: region.lo,
            hi: region.hi,
            profile: profile.clone(),
            staging: Staging::Direct,
            custom_windows: false,
        },
    })
}

/// Where a plan replay sends its commands: the simulated device, which
/// executes them, or the cost model's recurrence, which times them.
/// `stream` is an index into the plan's streams.
pub(crate) trait CommandSink {
    /// A recorded completion event.
    type Event: Copy;
    /// Copy slices `[first, first + len)` of map `map`, host → device
    /// when `h2d`, else device → host.
    fn copy(
        &mut self,
        stream: usize,
        map: usize,
        first: i64,
        len: usize,
        h2d: bool,
    ) -> RtResult<()>;
    /// Launch chunk `chunk`'s kernel.
    fn launch(&mut self, stream: usize, chunk: usize) -> RtResult<()>;
    /// Create an event and record it on `stream`.
    fn record(&mut self, stream: usize) -> RtResult<Self::Event>;
    /// Hold `stream` until `event` completes.
    fn wait(&mut self, stream: usize, event: Self::Event, cause: WaitCause) -> RtResult<()>;
    /// Charge host time outside any API call.
    fn host_busy(&mut self, t: SimTime);
    /// Called once each chunk's commands are issued.
    fn chunk_done(&mut self, _step: &ChunkStep) {}
}

/// Issue a compiled plan's chunk steps, in order, into `sink`: per chunk
/// the eviction waits, the H2D runs and their event, the kernel's
/// dependency waits, the kernel, and the D2H runs. Every enqueue is
/// followed by the plan's poll charge.
pub(crate) fn replay<S: CommandSink>(cp: &CompiledPlan, sink: &mut S) -> RtResult<()> {
    let all_stages = cp.records_all_stages();
    let poll = cp.poll;
    // `events[chunk][stage]`, indexed by `EvKind`.
    let mut events: Vec<[Option<S::Event>; 3]> = vec![[None; 3]; cp.steps.len()];
    let event = |events: &[[Option<S::Event>; 3]], ch: usize, kind: EvKind| {
        events[ch][kind as usize].expect("compiled wait references a stage that records an event")
    };
    for (c, step) in cp.steps.iter().enumerate() {
        let s = step.stream;
        // Eviction hazards are, by definition, ring-slot reuse stalls.
        for &(ch, kind) in &step.copy_waits {
            sink.wait(s, event(&events, ch, kind), WaitCause::RingReuse)?;
            sink.host_busy(poll);
        }
        for &(i, first, len) in &step.copy_runs {
            sink.copy(s, i, first, len, true)?;
            sink.host_busy(poll);
        }
        if !step.copy_runs.is_empty() {
            events[c][EvKind::H2d as usize] = Some(sink.record(s)?);
            sink.host_busy(poll);
        }
        for &(ch, kind, cause) in &step.kernel_waits {
            sink.wait(s, event(&events, ch, kind), cause)?;
            sink.host_busy(poll);
        }
        sink.launch(s, c)?;
        sink.host_busy(poll);
        if all_stages {
            events[c][EvKind::Kernel as usize] = Some(sink.record(s)?);
            sink.host_busy(poll);
        }
        for &(i, first, len) in &step.out_runs {
            sink.copy(s, i, first, len, false)?;
            sink.host_busy(poll);
        }
        if all_stages && !step.out_runs.is_empty() {
            events[c][EvKind::D2h as usize] = Some(sink.record(s)?);
            sink.host_busy(poll);
        }
        sink.chunk_done(step);
    }
    Ok(())
}

/// A compiled plan bound to one run on a device: the sink that executes
/// a replay.
struct Device<'g, 'r> {
    gpu: &'g mut Gpu,
    region: &'r Region,
    builder: &'r KernelBuilder<'r>,
    cp: &'r CompiledPlan,
    views: &'r [ArrayView],
    streams: &'r [StreamId],
    /// Enqueue sequence number at the start of the current chunk.
    seq: u64,
    /// Enqueue-sequence range of each replayed chunk (failure → chunk
    /// lookup).
    chunk_seqs: Vec<(u64, u64)>,
    /// Ring-slot occupancy samples (mapped slots across all rings, over
    /// host time) for the trace export.
    occupancy: Vec<(u64, f64)>,
    /// Per-chunk dependency ranges, hoisted so chunks reuse capacity.
    ranges: Vec<(i64, i64)>,
}

impl<'g, 'r> Device<'g, 'r> {
    fn new(
        gpu: &'g mut Gpu,
        region: &'r Region,
        builder: &'r KernelBuilder<'r>,
        cp: &'r CompiledPlan,
        views: &'r [ArrayView],
        streams: &'r [StreamId],
    ) -> Self {
        let seq = gpu.next_seq();
        Device {
            gpu,
            region,
            builder,
            cp,
            views,
            streams,
            seq,
            chunk_seqs: Vec::new(),
            occupancy: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// Re-enqueue chunk `c`'s whole H2D → kernel → D2H triplet on its
    /// stream (chunk-granular recovery) and return how many engine
    /// commands that took. The whole input window is recopied, not just
    /// the slices the chunk first copied, so the reissue is
    /// self-sufficient. It lands in the *same* slots (the slice → slot
    /// map is static); the device is drained before each reissue, so
    /// overwriting slots that later chunks used is safe — their results
    /// are already on the host.
    fn reissue(&mut self, c: usize) -> RtResult<u64> {
        let s = self.cp.steps[c].stream;
        let mut n = self.copy_window(s, c, true)?;
        self.launch(s, c)?;
        self.host_busy(self.cp.poll);
        n += 1;
        Ok(n + self.copy_window(s, c, false)?)
    }

    /// Copy chunk `c`'s whole window of every input (`h2d`) or output
    /// map, one command per contiguous device run.
    fn copy_window(&mut self, s: usize, c: usize, h2d: bool) -> RtResult<u64> {
        let (region, cp) = (self.region, self.cp);
        let mut n = 0u64;
        for (i, m) in region.spec.maps.iter().enumerate() {
            let staged = if h2d {
                m.dir.is_input()
            } else {
                m.dir.is_output()
            };
            if !staged {
                continue;
            }
            let (a, b) = cp.table.ranges[i][c];
            for (first, len) in slot_runs(a, b, cp.plan.ring_slots[i]) {
                self.copy(s, i, first, len, h2d)?;
                self.host_busy(cp.poll);
                n += 1;
            }
        }
        Ok(n)
    }
}

impl CommandSink for Device<'_, '_> {
    type Event = EventId;

    /// One contiguous copy for 1-D maps, one strided 2-D copy for
    /// column-block maps.
    fn copy(
        &mut self,
        stream: usize,
        map: usize,
        first: i64,
        len: usize,
        h2d: bool,
    ) -> RtResult<()> {
        let s = self.streams[stream];
        let host = self.region.arrays[map];
        let view = &self.views[map];
        match &self.region.spec.maps[map].split {
            SplitSpec::OneD { slice_elems, .. } => {
                let (off, elems) = (first as usize * slice_elems, len * slice_elems);
                let dev = view.slice_ptr(first);
                if h2d {
                    self.gpu.memcpy_h2d_async(s, host, off, dev, elems)?;
                } else {
                    self.gpu.memcpy_d2h_async(s, dev, elems, host, off)?;
                }
            }
            SplitSpec::ColBlocks {
                rows,
                block_cols,
                row_stride,
                ..
            } => {
                let (dev, dev_stride) = view.block_ptr(first);
                let copy = Copy2D {
                    rows: *rows,
                    row_elems: len * block_cols,
                    host,
                    host_off: first as usize * block_cols,
                    host_stride: *row_stride,
                    dev,
                    dev_stride,
                };
                if h2d {
                    self.gpu.memcpy2d_h2d_async(s, copy)?;
                } else {
                    self.gpu.memcpy2d_d2h_async(s, copy)?;
                }
            }
        }
        Ok(())
    }

    fn launch(&mut self, stream: usize, chunk: usize) -> RtResult<()> {
        let (k0, k1) = self.cp.plan.chunks[chunk];
        let mut kernel = (self.builder)(&ChunkCtx {
            k0,
            k1,
            views: self.views.to_vec(),
        });
        if let Some(infl) = self.cp.kernel_inflation() {
            kernel.cost.flops = (kernel.cost.flops as f64 * infl) as u64;
            kernel.cost.bytes = (kernel.cost.bytes as f64 * infl) as u64;
        }
        self.ranges.clear();
        self.ranges
            .extend(self.cp.table.ranges.iter().map(|r| r[chunk]));
        let kernel = declare_accesses(self.gpu, kernel, self.region, self.views, &self.ranges);
        self.gpu.launch(self.streams[stream], kernel)?;
        Ok(())
    }

    fn record(&mut self, stream: usize) -> RtResult<EventId> {
        let e = self.gpu.create_event();
        self.gpu.record_event(self.streams[stream], e)?;
        Ok(e)
    }

    fn wait(&mut self, stream: usize, event: EventId, cause: WaitCause) -> RtResult<()> {
        self.gpu
            .wait_event_with_cause(self.streams[stream], event, cause)?;
        Ok(())
    }

    fn host_busy(&mut self, t: SimTime) {
        self.gpu.host_busy(t);
    }

    fn chunk_done(&mut self, step: &ChunkStep) {
        let end = self.gpu.next_seq();
        self.chunk_seqs.push((self.seq, end));
        self.seq = end;
        if self.cp.records_all_stages() && self.gpu.timeline_enabled() {
            self.occupancy
                .push((self.gpu.now().as_ns(), step.mapped_slots as f64));
        }
    }
}

/// The one executor: stage the arrays, create the streams, replay a
/// [`CompiledPlan`] onto the device and drain it — through
/// chunk-granular recovery when `recovery` is present and enabled. The
/// only host work per chunk is the kernel builder call and the raw
/// enqueues; every residency, hazard and run-grouping decision was made
/// at compile time.
///
/// Resets the context's activity counters.
pub(crate) fn execute_compiled(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    cp: &CompiledPlan,
    recovery: Option<&RecoveryCtx<'_>>,
    plan_reused: bool,
) -> RtResult<DriverOutcome> {
    let plan = &cp.plan;
    let model = cp.model();
    let rings = cp.records_all_stages();
    gpu.reset_counters();
    let t0 = gpu.now();
    if gpu.timeline_enabled() {
        gpu.push_host_span(cp.plan_label.clone(), HostSpanKind::Plan, t0, t0);
    }

    let views = alloc_views(gpu, region, rings.then_some(plan.ring_slots.as_slice()))?;
    let streams: Vec<StreamId> = match (0..plan.num_streams)
        .map(|_| gpu.create_stream())
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(s) => s,
        Err(e) => {
            let _ = free_views(gpu, &views);
            return Err(e.into());
        }
    };
    let gpu_mem = gpu.current_mem();

    let mut occupancy: Vec<(u64, f64)> = Vec::new();
    let mut drained = None;
    let body = (|| -> RtResult<()> {
        let mut dev = Device::new(gpu, region, builder, cp, &views, &streams);
        if rings && dev.gpu.timeline_enabled() {
            dev.occupancy.push((dev.gpu.now().as_ns(), 0.0));
        }
        replay(cp, &mut dev)?;
        let chunk_seqs = std::mem::take(&mut dev.chunk_seqs);
        occupancy = std::mem::take(&mut dev.occupancy);
        match recovery.filter(|r| r.policy.enabled()) {
            None => gpu.synchronize()?,
            Some(rctx) => {
                drained = Some(drain_with_recovery(
                    gpu,
                    model,
                    region,
                    rctx,
                    &plan.chunks,
                    &chunk_seqs,
                    &cp.dependents,
                    |gpu, c| Device::new(gpu, region, builder, cp, &views, &streams).reissue(c),
                )?);
            }
        }
        Ok(())
    })();
    if let Err(e) = body {
        // A failed run must not bleed into whatever runs next on this
        // device: drain the in-flight work, drop its failure records, and
        // release device state so a whole-run retry (or the caller's next
        // run) starts from a clean device.
        while gpu.synchronize().is_err() {}
        let _ = gpu.take_failures();
        for &s in &streams {
            let _ = gpu.destroy_stream(s);
        }
        let _ = free_views(gpu, &views);
        return Err(e);
    }

    let (recovery_stats, retry_samples, exhausted) = match drained {
        None => (RecoveryStats::default(), Vec::new(), None),
        Some(DrainResult::Clean {
            stats,
            retry_samples,
        }) => (stats, retry_samples, None),
        Some(DrainResult::Exhausted {
            chunk,
            stage,
            attempts,
            source,
            open,
            stats,
        }) => (
            stats,
            Vec::new(),
            Some((chunk, stage, attempts, source, open)),
        ),
    };
    let total = gpu.now() - t0;
    let mut report = RunReport::from_gpu(
        model,
        total,
        gpu,
        gpu_mem,
        plan.buffer_bytes,
        plan.chunks.len(),
        plan.num_streams,
    );
    // Report the logical workload: reissues are recovery overhead, not
    // extra work, so a recovered run matches a fault-free one.
    report.commands = report
        .commands
        .saturating_sub(recovery_stats.reissued_commands);
    report.recovery = recovery_stats;
    report.plan_reused = plan_reused;
    if gpu.timeline_enabled() {
        if rings {
            report.counter_tracks.push(CounterTrack {
                name: "ring_slot_occupancy".into(),
                samples: occupancy,
            });
        }
        if !retry_samples.is_empty() {
            report.counter_tracks.push(CounterTrack {
                name: "retries_in_flight".into(),
                samples: retry_samples,
            });
        }
    }
    for s in streams {
        gpu.destroy_stream(s)?;
    }
    free_views(gpu, &views)?;
    match exhausted {
        None => Ok(DriverOutcome::Done(report)),
        Some((chunk, stage, attempts, source, open)) => Ok(DriverOutcome::Exhausted {
            unfinished: open.into_iter().map(|c| plan.chunks[c]).collect(),
            report,
            chunk,
            stage,
            attempts,
            source,
        }),
    }
}

/// Run a region under a pipelined model: replay `compiled` when its key
/// matches this run and `staging`, otherwise compile afresh — a stale
/// plan can cost time, never correctness.
pub(crate) fn run_compiled(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    staging: Staging,
    recovery: Option<&RecoveryCtx<'_>>,
    compiled: Option<&CompiledPlan>,
) -> RtResult<DriverOutcome> {
    region.validate(gpu)?;
    if let Some(cp) = compiled {
        if cp.key.matches(gpu.profile(), region, staging) {
            return execute_compiled(gpu, region, builder, cp, recovery, true);
        }
    }
    let cp = match staging {
        Staging::Direct => compile_pipelined(gpu.profile(), region)?,
        Staging::Ring(opts) => compile_impl(gpu, region, builder, &opts)?,
    };
    execute_compiled(gpu, region, builder, &cp, recovery, false)
}
