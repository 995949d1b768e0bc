//! Chunking and buffer-sizing arithmetic.
//!
//! Given a region spec and a loop range, the planner decides:
//!
//! * the chunk boundaries (the paper's sub-tasks),
//! * the stream count,
//! * per-array ring capacities (slots) for the Pipelined-buffer model,
//! * and — when `pipeline_mem_limit` is present — a reduced schedule that
//!   fits the ceiling ("we tune before we allocate the buffer to fit
//!   total memory usage within available size", paper §III).
//!
//! The *adaptive* schedule (paper §VII future work) picks the chunk size
//! so each slice transfer is large enough to reach near-peak DMA
//! bandwidth on the target device, and defaults to three streams (input
//! copy / compute / output copy can then fully overlap).

use gpsim::{DeviceProfile, SimTime, WaitCause, ELEM_BYTES, PITCH_ALIGN_ELEMS};

use crate::buffer::BufferOptions;
use crate::error::{RtError, RtResult};
use crate::report::ExecModel;
use crate::spec::{RegionSpec, Schedule, SplitSpec};

/// A resolved execution plan for one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Iterations per chunk.
    pub chunk_size: usize,
    /// Streams to pipeline across.
    pub num_streams: usize,
    /// Chunk iteration ranges `[k0, k1)`, in order.
    pub chunks: Vec<(i64, i64)>,
    /// Ring capacity (slices) per mapped array, in map order. A
    /// Pipelined plan's "ring" is the whole array (slot = slice).
    pub ring_slots: Vec<usize>,
    /// Total device bytes of all staged arrays under this plan.
    pub buffer_bytes: u64,
}

/// Split `[lo, hi)` into chunks of `chunk_size` iterations (the last chunk
/// may be shorter).
pub fn chunk_ranges(lo: i64, hi: i64, chunk_size: usize) -> Vec<(i64, i64)> {
    assert!(chunk_size >= 1, "chunk_size must be ≥ 1");
    let mut out = Vec::new();
    let mut k = lo;
    while k < hi {
        let k1 = (k + chunk_size as i64).min(hi);
        out.push((k, k1));
        k = k1;
    }
    out
}

/// Slices spanned by one chunk of `chunk` iterations:
/// `scale·(chunk−1) + window`. This is the minimum ring capacity.
pub fn ring_slots_min(split: &SplitSpec, chunk: usize) -> usize {
    let scale = split.offset().scale.max(0) as usize;
    scale * (chunk - 1) + split.window()
}

/// Default ring capacity: the slices spanned by `num_streams` consecutive
/// in-flight chunks, `scale·(chunk·streams − 1) + window`, capped at the
/// array extent (a ring larger than the array degenerates to a direct
/// mapping).
pub fn ring_slots_default(split: &SplitSpec, chunk: usize, num_streams: usize) -> usize {
    let scale = split.offset().scale.max(0) as usize;
    let slots = scale * (chunk * num_streams).saturating_sub(1) + split.window();
    slots.min(split.extent())
}

/// Device bytes of a ring buffer with `slots` slices of this split
/// (pitched 2-D rings round the row up to the pitch granularity, exactly
/// like `cudaMallocPitch`).
pub fn map_buffer_bytes(split: &SplitSpec, slots: usize) -> u64 {
    match split {
        SplitSpec::OneD { slice_elems, .. } => (slots * slice_elems) as u64 * ELEM_BYTES,
        SplitSpec::ColBlocks {
            rows, block_cols, ..
        } => {
            let row = slots * block_cols;
            let pitch = row.div_ceil(PITCH_ALIGN_ELEMS) * PITCH_ALIGN_ELEMS;
            (pitch * rows) as u64 * ELEM_BYTES
        }
    }
}

/// Device bytes of the full (non-ring) allocation of a map, as used by the
/// Naive and Pipelined models.
pub fn map_full_bytes(split: &SplitSpec) -> u64 {
    split.total_elems() as u64 * ELEM_BYTES
}

/// Total ring-buffer footprint of a region for a given schedule.
pub fn footprint(spec: &RegionSpec, chunk: usize, num_streams: usize) -> u64 {
    spec.maps
        .iter()
        .map(|m| {
            let slots = ring_slots_default(&m.split, chunk, num_streams);
            map_buffer_bytes(&m.split, slots)
        })
        .sum()
}

/// Minimum possible footprint (chunk 1, one stream).
pub fn min_footprint(spec: &RegionSpec) -> u64 {
    spec.maps
        .iter()
        .map(|m| map_buffer_bytes(&m.split, ring_slots_min(&m.split, 1)))
        .sum()
}

/// Resolve a region spec into a concrete [`Plan`] for the Pipelined-buffer
/// model: pick chunk/streams (static, or adaptively from the device
/// profile), then shrink until the memory limit holds.
pub fn resolve_plan(
    spec: &RegionSpec,
    profile: &DeviceProfile,
    lo: i64,
    hi: i64,
) -> RtResult<Plan> {
    spec.validate(lo, hi)?;
    let iters = (hi - lo) as usize;
    let (mut chunk, mut streams) = match spec.schedule {
        Schedule::Static {
            chunk_size,
            num_streams,
        } => (chunk_size.min(iters), num_streams),
        Schedule::Adaptive => adaptive_schedule(spec, profile, iters),
    };
    streams = streams.max(1);
    chunk = chunk.max(1);

    if let Some(limit) = spec.mem_limit {
        // Shrink streams first (cheap: less in-flight margin), then chunk.
        while footprint(spec, chunk, streams) > limit && streams > 1 {
            streams -= 1;
        }
        while footprint(spec, chunk, streams) > limit && chunk > 1 {
            chunk = (chunk / 2).max(1);
        }
        if footprint(spec, chunk, streams) > limit {
            return Err(RtError::MemLimitInfeasible {
                limit,
                needed: min_footprint(spec),
            });
        }
    }

    let chunks = chunk_ranges(lo, hi, chunk);
    let ring_slots: Vec<usize> = spec
        .maps
        .iter()
        .map(|m| ring_slots_default(&m.split, chunk, streams))
        .collect();
    let buffer_bytes = spec
        .maps
        .iter()
        .zip(&ring_slots)
        .map(|(m, &s)| map_buffer_bytes(&m.split, s))
        .sum();
    Ok(Plan {
        chunk_size: chunk,
        num_streams: streams,
        chunks,
        ring_slots,
        buffer_bytes,
    })
}

/// Per-chunk dependency table: for each map and each chunk, the slice
/// range `[a, b)` that must be device-resident before the chunk's kernel
/// runs. Built either from the affine window specs or from user-supplied
/// window functions (the paper's §VII "function-based extension that
/// allows the developer to pass in a function pointer").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowTable {
    /// `ranges[map][chunk] = (first, end)` slice range.
    pub ranges: Vec<Vec<(i64, i64)>>,
}

/// A custom per-map dependency function: `(k0, k1) → (first, end)`.
pub type WindowFn<'a> = dyn Fn(i64, i64) -> (i64, i64) + 'a;

/// Build the dependency table for the given chunks, taking each map's
/// range from `windows[map]` when present and from the affine spec
/// otherwise. Validates bounds and (for output maps) non-overlap between
/// chunks.
pub fn build_window_table(
    spec: &RegionSpec,
    chunks: &[(i64, i64)],
    windows: &[Option<&WindowFn<'_>>],
) -> RtResult<WindowTable> {
    if !windows.is_empty() && windows.len() != spec.maps.len() {
        return Err(RtError::Spec(format!(
            "{} window functions for {} maps",
            windows.len(),
            spec.maps.len()
        )));
    }
    let mut ranges = Vec::with_capacity(spec.maps.len());
    for (i, m) in spec.maps.iter().enumerate() {
        let custom = windows.get(i).copied().flatten();
        let mut per_chunk = Vec::with_capacity(chunks.len());
        let mut prev_out_end = i64::MIN;
        for &(k0, k1) in chunks {
            let (a, b) = match custom {
                Some(f) => f(k0, k1),
                None => m.split.needed_slices(k0, k1),
            };
            if a >= b {
                return Err(RtError::Spec(format!(
                    "map '{}': empty dependency range [{a}, {b}) for chunk [{k0}, {k1})",
                    m.name
                )));
            }
            if a < 0 || b > m.split.extent() as i64 {
                return Err(RtError::Spec(format!(
                    "map '{}': dependency range [{a}, {b}) outside [0, {}) for chunk [{k0}, {k1})",
                    m.name,
                    m.split.extent()
                )));
            }
            if m.dir.is_output() {
                if a < prev_out_end {
                    return Err(RtError::Spec(format!(
                        "map '{}': output ranges overlap across chunks at slice {a}",
                        m.name
                    )));
                }
                prev_out_end = b;
            }
            per_chunk.push((a, b));
        }
        ranges.push(per_chunk);
    }
    Ok(WindowTable { ranges })
}

impl WindowTable {
    /// Ring capacity for map `i`: the largest span of slices needed by
    /// any `num_streams` consecutive chunks, capped at the extent.
    pub fn ring_slots(&self, map: usize, num_streams: usize, extent: usize) -> usize {
        let r = &self.ranges[map];
        let mut worst = 0i64;
        for c in 0..r.len() {
            let hi = (c + num_streams).min(r.len());
            let a_min = r[c..hi].iter().map(|&(a, _)| a).min().unwrap();
            let b_max = r[c..hi].iter().map(|&(_, b)| b).max().unwrap();
            worst = worst.max(b_max - a_min);
        }
        (worst.max(1) as usize).min(extent)
    }

    /// Minimum ring capacity (single-chunk span) for map `i`.
    pub fn ring_slots_min(&self, map: usize, extent: usize) -> usize {
        let worst = self.ranges[map]
            .iter()
            .map(|&(a, b)| b - a)
            .max()
            .unwrap_or(1);
        (worst.max(1) as usize).min(extent)
    }
}

/// Resolve a plan using explicit window functions: like [`resolve_plan`]
/// but with ring capacities derived from the actual per-chunk dependency
/// table. Returns the plan together with the table.
pub fn resolve_plan_fn(
    spec: &RegionSpec,
    profile: &DeviceProfile,
    lo: i64,
    hi: i64,
    windows: &[Option<&WindowFn<'_>>],
) -> RtResult<(Plan, WindowTable)> {
    // Custom windows replace the affine bounds check, so validate the
    // schedule/shape parts only.
    let iters = (hi - lo) as usize;
    if hi <= lo {
        return Err(RtError::Spec(format!("empty loop range [{lo}, {hi})")));
    }
    let (mut chunk, mut streams) = match spec.schedule {
        Schedule::Static {
            chunk_size,
            num_streams,
        } => (chunk_size.min(iters), num_streams),
        Schedule::Adaptive => adaptive_schedule(spec, profile, iters),
    };
    if chunk == 0 || streams == 0 {
        return Err(RtError::Spec("chunk_size and num_streams must be ≥ 1".into()));
    }

    type Built = (Vec<(i64, i64)>, WindowTable, Vec<usize>, u64);
    let build = |chunk: usize, streams: usize| -> RtResult<Built> {
        let chunks = chunk_ranges(lo, hi, chunk);
        let table = build_window_table(spec, &chunks, windows)?;
        let slots: Vec<usize> = spec
            .maps
            .iter()
            .enumerate()
            .map(|(i, m)| table.ring_slots(i, streams, m.split.extent()))
            .collect();
        let bytes = spec
            .maps
            .iter()
            .zip(&slots)
            .map(|(m, &s)| map_buffer_bytes(&m.split, s))
            .sum();
        Ok((chunks, table, slots, bytes))
    };

    let (mut chunks, mut table, mut slots, mut bytes) = build(chunk, streams)?;
    if let Some(limit) = spec.mem_limit {
        while bytes > limit && streams > 1 {
            streams -= 1;
            (chunks, table, slots, bytes) = build(chunk, streams)?;
        }
        while bytes > limit && chunk > 1 {
            chunk = (chunk / 2).max(1);
            (chunks, table, slots, bytes) = build(chunk, streams)?;
        }
        if bytes > limit {
            return Err(RtError::MemLimitInfeasible {
                limit,
                needed: bytes,
            });
        }
    }

    Ok((
        Plan {
            chunk_size: chunk,
            num_streams: streams,
            chunks,
            ring_slots: slots,
            buffer_bytes: bytes,
        },
        table,
    ))
}

/// Which of a chunk's completion events a compiled wait refers to.
///
/// A replay records at most one event per chunk per stage (H2D group,
/// kernel, D2H group); a compiled wait names the producing chunk and the
/// stage instead of a live [`gpsim::EventId`], so the same compiled plan
/// can be replayed on fresh events every run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvKind {
    /// The chunk's H2D-group completion event.
    H2d,
    /// The chunk's kernel completion event.
    Kernel,
    /// The chunk's D2H-group completion event.
    D2h,
}

/// The fully classified enqueue recipe for one chunk of a compiled
/// pipelined run: every hazard wait, copy run and drain run the driver
/// will issue, in issue order. Produced once by [`compile_plan`] (or on
/// the first run) and replayed on every execution.
///
/// [`compile_plan`]: crate::compile_plan
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkStep {
    /// Stream index (into the run's stream list) this chunk executes on.
    pub stream: usize,
    /// Events to wait on before the chunk's H2D copies (ring-reuse
    /// evictions), as `(producing chunk, stage)`.
    pub copy_waits: Vec<(usize, EvKind)>,
    /// H2D copy runs `(map, first slice, slice count)`, each one
    /// contiguous on the device.
    pub copy_runs: Vec<(usize, i64, usize)>,
    /// Events to wait on before the kernel launch, with the recorded
    /// stall cause (cross-stream halo dependency or ring-slot reuse).
    pub kernel_waits: Vec<(usize, EvKind, WaitCause)>,
    /// D2H drain runs `(map, first slice, slice count)`.
    pub out_runs: Vec<(usize, i64, usize)>,
    /// Ring slots mapped across all arrays once this chunk is classified
    /// (the occupancy counter sample for the trace export; 0 in a
    /// Pipelined plan, which has no rings).
    pub mapped_slots: usize,
}

/// Everything the run spent deciding, with the device untouched: the
/// compiled form of one Pipelined or Pipelined-buffer execution.
///
/// Compiling resolves the plan (including memory-limit shrinking), builds
/// the window table, assigns chunks to streams, classifies every
/// residency/hazard decision into [`ChunkStep`]s and interns the plan
/// label — so replaying the plan only issues device commands. The same
/// replay drives the simulated device and the cost model. Reusable
/// across iterations, sweep trials and autotune probes as long as the
/// region shape, device profile and staging are unchanged (the driver
/// checks, and silently recompiles on mismatch).
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// The resolved schedule (chunks, streams, ring capacities).
    pub plan: Plan,
    /// Per-map per-chunk dependency ranges.
    pub table: WindowTable,
    /// Per-chunk enqueue recipes, in chunk order.
    pub steps: Vec<ChunkStep>,
    /// Halo-consumer graph: `dependents[c]` are chunks whose kernels read
    /// slices chunk `c` copied (used by chunk-granular recovery).
    pub dependents: Vec<Vec<usize>>,
    /// Interned `plan(...)` trace label.
    pub plan_label: String,
    /// Host time charged after every enqueue (zero for ring plans).
    pub(crate) poll: SimTime,
    pub(crate) key: PlanKey,
}

impl CompiledPlan {
    /// The execution model this plan runs under.
    pub(crate) fn model(&self) -> ExecModel {
        match self.key.staging {
            Staging::Direct => ExecModel::Pipelined,
            Staging::Ring(_) => ExecModel::PipelinedBuffer,
        }
    }

    /// Whether replay records kernel and D2H completion events (ring
    /// plans wait on them before reusing a slot; a Pipelined plan only
    /// records H2D groups).
    pub(crate) fn records_all_stages(&self) -> bool {
        matches!(self.key.staging, Staging::Ring(_))
    }

    /// Kernel-cost multiplier of a ring plan: the runtime's mod-index
    /// translation adds instructions *and* address-generation pressure,
    /// so both roofline terms inflate by the region's `index_overhead`
    /// (paper §V-D). `None` for a Pipelined plan, whose indices are
    /// unchanged.
    pub(crate) fn kernel_inflation(&self) -> Option<f64> {
        match self.key.staging {
            Staging::Direct => None,
            Staging::Ring(_) => Some(1.0 + self.key.spec.index_overhead),
        }
    }
}

/// How a compiled plan stages the mapped arrays on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Staging {
    /// Full-footprint arrays with unchanged indices (the Pipelined
    /// model): unpitched, slot = slice, no `index_overhead` inflation.
    Direct,
    /// Pre-allocated ring buffers of `ring_slots` slices, compiled under
    /// these options (the Pipelined-buffer model).
    Ring(BufferOptions),
}

/// What a [`CompiledPlan`] was compiled against; replay is valid only for
/// an identical key.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanKey {
    pub spec: RegionSpec,
    pub lo: i64,
    pub hi: i64,
    pub profile: DeviceProfile,
    /// A ring plan never replays as a Pipelined run, and vice versa.
    pub staging: Staging,
    /// Plans built against caller-supplied window functions carry window
    /// ranges the key cannot describe, so they never match for reuse.
    pub custom_windows: bool,
}

impl PlanKey {
    /// Is a plan with this key valid for running `region` on a device
    /// with `profile` under `staging`?
    pub fn matches(
        &self,
        profile: &DeviceProfile,
        region: &crate::exec::Region,
        staging: Staging,
    ) -> bool {
        !self.custom_windows
            && self.lo == region.lo
            && self.hi == region.hi
            && self.staging == staging
            && self.spec == region.spec
            && self.profile == *profile
    }
}

/// Heuristic schedule: three streams, and a chunk size such that the
/// *largest* per-chunk slice transfer reaches ≥ 80 % of peak DMA bandwidth
/// under the profile's ramp (`bytes ≥ 4 × bw_half_size`).
fn adaptive_schedule(spec: &RegionSpec, profile: &DeviceProfile, iters: usize) -> (usize, usize) {
    let streams = 3usize;
    let target_bytes = (4.0 * profile.bw_half_size).max(1.0) as u64;
    let max_slice_bytes = spec
        .maps
        .iter()
        .map(|m| m.split.slice_elems() as u64 * ELEM_BYTES)
        .max()
        .unwrap_or(1)
        .max(1);
    let mut chunk = (target_bytes / max_slice_bytes).max(1) as usize;
    // Keep at least `streams` chunks so the pipeline can overlap at all.
    let max_chunk = (iters / streams).max(1);
    chunk = chunk.min(max_chunk);
    (chunk, streams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Affine, MapDir, MapSpec, RegionSpec, Schedule};

    fn one_d(window: usize, extent: usize, slice_elems: usize) -> SplitSpec {
        SplitSpec::OneD {
            offset: if window == 3 {
                Affine::shifted(-1)
            } else {
                Affine::IDENTITY
            },
            window,
            extent,
            slice_elems,
        }
    }

    fn region(window: usize, extent: usize, slice_elems: usize) -> RegionSpec {
        RegionSpec::new(Schedule::static_(1, 3)).with_map(MapSpec {
            name: "A".into(),
            dir: MapDir::To,
            split: one_d(window, extent, slice_elems),
        })
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        let c = chunk_ranges(1, 10, 4);
        assert_eq!(c, vec![(1, 5), (5, 9), (9, 10)]);
        let c = chunk_ranges(0, 8, 4);
        assert_eq!(c, vec![(0, 4), (4, 8)]);
        let c = chunk_ranges(0, 3, 10);
        assert_eq!(c, vec![(0, 3)]);
    }

    #[test]
    fn ring_slots_formulas() {
        let s = one_d(3, 100, 64);
        // One iteration per chunk spans the 3-slice window.
        assert_eq!(ring_slots_min(&s, 1), 3);
        // Two iterations: slices k-1..k+2 → 4.
        assert_eq!(ring_slots_min(&s, 2), 4);
        // Three in-flight single-iteration chunks need slices k-1..k+3 → 5.
        assert_eq!(ring_slots_default(&s, 1, 3), 5);
        // Ring never exceeds the array extent.
        let tiny = one_d(3, 4, 64);
        assert_eq!(ring_slots_default(&tiny, 4, 4), 4);
    }

    #[test]
    fn buffer_bytes_pitched_rounding() {
        let s = SplitSpec::ColBlocks {
            offset: Affine::IDENTITY,
            window: 1,
            extent: 16,
            rows: 10,
            block_cols: 30,
            row_stride: 480,
        };
        // 3 slots → 90 columns → pitch 128 elems → 1280 elems → 5120 B.
        assert_eq!(map_buffer_bytes(&s, 3), 5120);
        assert_eq!(map_full_bytes(&s), 10 * 480 * 4);
    }

    #[test]
    fn plan_static_basics() {
        let spec = region(3, 100, 1000);
        let plan = resolve_plan(&spec, &DeviceProfile::uniform_test(), 1, 99).unwrap();
        assert_eq!(plan.chunk_size, 1);
        assert_eq!(plan.num_streams, 3);
        assert_eq!(plan.chunks.len(), 98);
        assert_eq!(plan.ring_slots, vec![5]);
        assert_eq!(plan.buffer_bytes, 5 * 1000 * 4);
    }

    #[test]
    fn mem_limit_shrinks_streams_then_chunk() {
        let mut spec = region(1, 1000, 1000); // 4 KB per slice
        spec.schedule = Schedule::static_(8, 4);
        // Unlimited: slots = 8*4 = 32 → 128 KB.
        let plan = resolve_plan(&spec, &DeviceProfile::uniform_test(), 0, 1000).unwrap();
        assert_eq!(plan.buffer_bytes, 32 * 4000);
        // Limit to 40 KB → 10 slots; streams drop to 1 (8 slots, 32 KB).
        spec.mem_limit = Some(40_000);
        let plan = resolve_plan(&spec, &DeviceProfile::uniform_test(), 0, 1000).unwrap();
        assert!(plan.buffer_bytes <= 40_000, "{}", plan.buffer_bytes);
        assert_eq!(plan.num_streams, 1);
        // Limit to 10 KB → chunk must shrink to 2 (2 slots, 8 KB).
        spec.mem_limit = Some(10_000);
        let plan = resolve_plan(&spec, &DeviceProfile::uniform_test(), 0, 1000).unwrap();
        assert!(plan.buffer_bytes <= 10_000);
        assert_eq!(plan.num_streams, 1);
        assert!(plan.chunk_size <= 2);
    }

    #[test]
    fn infeasible_mem_limit_is_reported() {
        let mut spec = region(3, 100, 1000); // min footprint = 3 slices = 12 KB
        spec.mem_limit = Some(8_000);
        let err = resolve_plan(&spec, &DeviceProfile::uniform_test(), 1, 99).unwrap_err();
        match err {
            RtError::MemLimitInfeasible { limit, needed } => {
                assert_eq!(limit, 8_000);
                assert_eq!(needed, 12_000);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn adaptive_schedule_targets_bandwidth_ramp() {
        let mut spec = region(1, 10_000, 256); // 1 KB slices
        spec.schedule = Schedule::Adaptive;
        // K40m: 4×96 KB target → chunk ≈ 384 slices.
        let plan = resolve_plan(&spec, &DeviceProfile::k40m(), 0, 10_000).unwrap();
        assert!(plan.chunk_size >= 256, "chunk {}", plan.chunk_size);
        assert_eq!(plan.num_streams, 3);
        // AMD: 4×4 MB target → clamped by iters/streams.
        let plan = resolve_plan(&spec, &DeviceProfile::hd7970(), 0, 10_000).unwrap();
        assert_eq!(plan.chunk_size, 10_000 / 3);
    }

    #[test]
    fn chunk_larger_than_loop_is_clamped() {
        let mut spec = region(1, 100, 64);
        spec.schedule = Schedule::static_(1000, 2);
        let plan = resolve_plan(&spec, &DeviceProfile::uniform_test(), 0, 50).unwrap();
        assert_eq!(plan.chunks.len(), 1);
        assert_eq!(plan.chunk_size, 50);
    }
}
