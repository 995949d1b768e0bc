//! The **Pipelined-buffer** driver — the paper's contribution.
//!
//! Each mapped array gets a small pre-allocated device ring buffer of
//! `slots` slices; slice `s` of the host array lives at ring slot
//! `s % slots` ("we copy chunk *i* to position (*i* % 4)", paper §IV).
//! The loop is divided into chunks dispatched round-robin over streams;
//! per chunk the runtime:
//!
//! 1. copies the chunk's not-yet-resident input slices into their ring
//!    slots (waiting, via events, for any still-running kernels that read
//!    the slices being evicted — the write-after-read hazard of ring
//!    reuse),
//! 2. launches the kernel (waiting for H2D groups of *other* streams that
//!    copied slices this chunk reuses, e.g. stencil halos — the
//!    read-after-write hazard),
//! 3. copies the chunk's output slices back to the host and records their
//!    completion (so a later chunk reusing the slot can wait — the
//!    write-after-write/D2H hazard).
//!
//! Residency tracking means shared halo slices are copied exactly once,
//! like the paper's dependency calculation that "removes the data that
//! only previous chunks require".
//!
//! This module is the model's **compile** step: [`compile_plan`]
//! resolves the schedule, classifies every residency/hazard decision into
//! per-chunk [`ChunkStep`]s and interns the trace label — all without
//! touching the device. The one executor in [`crate::exec`] replays the
//! resulting [`CompiledPlan`], issuing only device commands, and the cost
//! model replays the same plan into its analytic recurrence. Iterative
//! callers (sweeps, autotune probes, multi-iteration apps) compile once
//! and pass the plan back in via
//! [`RunOptions::with_compiled`](crate::RunOptions::with_compiled),
//! taking per-run planning out of the host hot path.

use gpsim::{DeviceProfile, Gpu, SimTime, WaitCause};

use crate::error::RtResult;
use crate::exec::{execute_compiled, KernelBuilder, Region};
use crate::plan::{
    build_window_table, resolve_plan, resolve_plan_fn, ChunkStep, CompiledPlan, EvKind, Plan,
    PlanKey, Staging, WindowFn, WindowTable,
};
use crate::recovery::{DriverOutcome, RecoveryCtx};
use crate::spec::{RegionSpec, SplitSpec};
use crate::view::{ArrayView, ChunkCtx};

/// Ring bookkeeping for one mapped array.
///
/// All metadata is keyed by ring slot, not by slice: an entry is only
/// meaningful while its slice is mapped (`mapped[slot] == Some(sl)`),
/// and eviction clears the slot's entries — so per-slot arrays give the
/// same semantics as slice-keyed maps without hashing on the classify
/// hot path (the reader vectors keep their capacity across reuse).
struct RingBook {
    slots: usize,
    /// slot → currently mapped slice.
    mapped: Vec<Option<i64>>,
    /// slot → chunk that copied the mapped slice in (inputs).
    copied_by: Vec<Option<usize>>,
    /// slot → chunks whose kernels read the mapped slice (inputs).
    readers: Vec<Vec<usize>>,
    /// slot → chunk that produced and drained the mapped slice (outputs).
    written_by: Vec<Option<usize>>,
}

impl RingBook {
    fn new(slots: usize) -> Self {
        RingBook {
            slots,
            mapped: vec![None; slots],
            copied_by: vec![None; slots],
            readers: vec![Vec::new(); slots],
            written_by: vec![None; slots],
        }
    }

    /// Ring slot of a slice.
    fn slot(&self, sl: i64) -> usize {
        sl.rem_euclid(self.slots as i64) as usize
    }

    /// The chunk that copied slice `sl` in, if `sl` is still resident.
    fn resident_copier(&self, sl: i64) -> Option<usize> {
        let slot = self.slot(sl);
        if self.mapped[slot] == Some(sl) {
            self.copied_by[slot]
        } else {
            None
        }
    }
}

/// Split the slice range `[lo, hi)` into ring-contiguous runs: a run ends
/// when the ring wraps (slot returns to 0), so each run is one contiguous
/// device range.
fn slot_runs_into(lo: i64, hi: i64, slots: usize, out: &mut Vec<(i64, usize)>) {
    let mut s = lo;
    while s < hi {
        let to_wrap = slots as i64 - s.rem_euclid(slots as i64);
        let end = (s + to_wrap).min(hi);
        out.push((s, (end - s) as usize));
        s = end;
    }
}

/// [`slot_runs_into`] returning a fresh vector (recovery reissues and
/// tests).
pub(crate) fn slot_runs(lo: i64, hi: i64, slots: usize) -> Vec<(i64, usize)> {
    let mut out = Vec::new();
    slot_runs_into(lo, hi, slots, &mut out);
    out
}

/// Push a compiled wait, deduplicating on the `(chunk, stage)` pair —
/// exactly one event exists per chunk per stage, so this matches the
/// historical event-id dedupe.
fn push_wait(waits: &mut Vec<(usize, EvKind)>, ch: usize, kind: EvKind) {
    if !waits.contains(&(ch, kind)) {
        waits.push((ch, kind));
    }
}

/// [`push_wait`] for cause-tagged waits: dedupe on the `(chunk, stage)`
/// pair (the first cause recorded wins).
fn push_wait_cause(
    waits: &mut Vec<(usize, EvKind, WaitCause)>,
    ch: usize,
    kind: EvKind,
    cause: WaitCause,
) {
    if !waits.iter().any(|&(w, k, _)| w == ch && k == kind) {
        waits.push((ch, kind, cause));
    }
}

/// How chunks are assigned to streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamAssignment {
    /// Chunk `c` goes to stream `c % num_streams` (the paper's
    /// prototype).
    #[default]
    RoundRobin,
    /// Each chunk goes to the stream with the least estimated enqueued
    /// work (transfer + roofline kernel time). Helps when chunk costs
    /// vary — uneven tails, custom dependency windows.
    LeastLoaded,
}

/// Ablation switches for the Pipelined-buffer driver (used by the
/// `ablations` bench to quantify each design choice; defaults reproduce
/// the paper's prototype).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferOptions {
    /// Track slice residency and skip re-copies of halo slices already on
    /// the device. Off = every chunk copies its full window.
    pub track_residency: bool,
    /// Size each ring to the single-chunk minimum instead of covering all
    /// in-flight chunks: lower memory, but write-after-read stalls
    /// serialize the pipeline.
    pub minimal_slots: bool,
    /// Chunk-to-stream policy.
    pub assignment: StreamAssignment,
}

impl BufferOptions {
    /// Defaults, identical to [`Default`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable residency tracking (consuming builder).
    pub fn with_track_residency(mut self, on: bool) -> Self {
        self.track_residency = on;
        self
    }

    /// Enable or disable minimal ring slots (consuming builder).
    pub fn with_minimal_slots(mut self, on: bool) -> Self {
        self.minimal_slots = on;
        self
    }

    /// Set the chunk-to-stream policy (consuming builder).
    pub fn with_assignment(mut self, assignment: StreamAssignment) -> Self {
        self.assignment = assignment;
        self
    }
}

impl Default for BufferOptions {
    fn default() -> Self {
        BufferOptions {
            track_residency: true,
            minimal_slots: false,
            assignment: StreamAssignment::RoundRobin,
        }
    }
}

/// Estimate one chunk's device occupancy for the least-loaded policy:
/// input-window and output transfer times plus the roofline kernel time.
#[allow(clippy::too_many_arguments)]
fn estimate_chunk_cost(
    gpu: &Gpu,
    region: &Region,
    table: &WindowTable,
    views: &[ArrayView],
    builder: &KernelBuilder<'_>,
    c: usize,
    k0: i64,
    k1: i64,
) -> f64 {
    let p = gpu.profile();
    let mut t = 0.0;
    for (i, m) in region.spec.maps.iter().enumerate() {
        let (a, b) = table.ranges[i][c];
        let bytes = (b - a) as u64 * m.split.slice_elems() as u64 * gpsim::ELEM_BYTES;
        if m.dir.is_input() {
            t += p.h2d_time(bytes, true).as_secs_f64();
        }
        if m.dir.is_output() {
            t += p.d2h_time(bytes, true).as_secs_f64();
        }
    }
    let probe = builder(&ChunkCtx {
        k0,
        k1,
        views: views.to_vec(),
    });
    t + p.kernel_time(probe.cost.flops, probe.cost.bytes).as_secs_f64()
}

/// The least-loaded chunk → stream map: each chunk goes to the stream
/// with the least estimated enqueued work so far. The assignment widens
/// the set of simultaneously in-flight chunks, so the plan's rings are
/// widened to cover it, or write-after-read stalls would serialize the
/// pipeline.
fn least_loaded_streams(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    plan: &mut Plan,
    table: &WindowTable,
) -> RtResult<Vec<usize>> {
    // Probe views over a placeholder allocation: builders may consult
    // views to compute costs, but probe kernels are never executed.
    let probe = gpu.alloc(1)?;
    let views: Vec<ArrayView> = region
        .spec
        .maps
        .iter()
        .map(|m| match &m.split {
            SplitSpec::OneD { slice_elems, .. } => ArrayView::ring_1d(probe, *slice_elems, 1),
            SplitSpec::ColBlocks {
                rows, block_cols, ..
            } => ArrayView::ring_2d(probe, *block_cols, *block_cols, *rows, 1),
        })
        .collect();
    let mut loads = vec![0.0f64; plan.num_streams];
    let mut out = Vec::with_capacity(plan.chunks.len());
    for (c, &(k0, k1)) in plan.chunks.iter().enumerate() {
        let cost = estimate_chunk_cost(gpu, region, table, &views, builder, c, k0, k1);
        let (best, _) = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("ns >= 1");
        loads[best] += cost;
        out.push(best);
    }
    gpu.free(probe)?;
    widen_rings_for_assignment(region, plan, table, &out);
    Ok(out)
}

/// With a non-round-robin assignment, the chunks simultaneously in
/// flight are the i-th entries of each stream's queue (streams advance
/// roughly in lockstep rounds, skewed by load) — widen each ring to
/// cover the dependency span of every round and its successor.
fn widen_rings_for_assignment(
    region: &Region,
    plan: &mut Plan,
    table: &WindowTable,
    chunk_stream: &[usize],
) {
    let ns = plan.num_streams;
    let mut per_stream: Vec<Vec<usize>> = vec![Vec::new(); ns];
    for (c, &s) in chunk_stream.iter().enumerate() {
        per_stream[s].push(c);
    }
    let rounds = per_stream.iter().map(Vec::len).max().unwrap_or(0);
    for (i, m) in region.spec.maps.iter().enumerate() {
        let mut worst = plan.ring_slots[i] as i64;
        for r in 0..rounds {
            // Chunks live during rounds r and r+1 across all streams.
            let mut a_min = i64::MAX;
            let mut b_max = i64::MIN;
            for q in per_stream.iter() {
                for rr in [r, r + 1] {
                    if let Some(&c) = q.get(rr) {
                        let (a, b) = table.ranges[i][c];
                        a_min = a_min.min(a);
                        b_max = b_max.max(b);
                    }
                }
            }
            if a_min < b_max {
                worst = worst.max(b_max - a_min);
            }
        }
        plan.ring_slots[i] = (worst as usize).min(m.split.extent());
    }
    plan.buffer_bytes = region
        .spec
        .maps
        .iter()
        .zip(&plan.ring_slots)
        .map(|(m, &s)| crate::plan::map_buffer_bytes(&m.split, s))
        .sum();
}

/// Classify every chunk of a resolved plan into its enqueue recipe: the
/// residency/hazard logic of the Pipelined-buffer driver, run once, with
/// the device untouched. Returns the per-chunk [`ChunkStep`]s and the
/// halo-consumer graph (`dependents[c]` = chunks whose kernels read
/// slices chunk `c` copied).
///
/// A compiled wait names `(producing chunk, stage)`; it is only recorded
/// when that stage will actually record an event (a chunk records an H2D
/// event iff it has copy runs, a D2H event iff it has drain runs, and
/// always records a kernel event), so replay can resolve every wait.
fn classify_chunks(
    spec: &RegionSpec,
    plan: &Plan,
    table: &WindowTable,
    chunk_stream: &[usize],
    track_residency: bool,
) -> (Vec<ChunkStep>, Vec<Vec<usize>>) {
    let n_chunks = plan.chunks.len();
    let mut books: Vec<RingBook> = plan.ring_slots.iter().map(|&s| RingBook::new(s)).collect();
    let mut steps: Vec<ChunkStep> = Vec::with_capacity(n_chunks);
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_chunks];
    let mut missing: Vec<i64> = Vec::new();
    let mut runs_scratch: Vec<(i64, usize)> = Vec::new();
    for c in 0..n_chunks {
        let same_stream = |other: usize| chunk_stream[other] == chunk_stream[c];
        let mut copy_waits: Vec<(usize, EvKind)> = Vec::new();
        let mut copy_runs: Vec<(usize, i64, usize)> = Vec::new();
        let mut kernel_waits: Vec<(usize, EvKind, WaitCause)> = Vec::new();
        let mut out_runs: Vec<(usize, i64, usize)> = Vec::new();

        for (i, m) in spec.maps.iter().enumerate() {
            if !m.dir.is_input() {
                continue;
            }
            let (a, b) = table.ranges[i][c];
            let book = &mut books[i];
            missing.clear();
            for sl in a..b {
                match book.resident_copier(sl).filter(|_| track_residency) {
                    Some(owner) => {
                        // RAW across streams: wait for the copier's group.
                        if owner != c
                            && !same_stream(owner)
                            && !steps[owner].copy_runs.is_empty()
                        {
                            push_wait_cause(
                                &mut kernel_waits,
                                owner,
                                EvKind::H2d,
                                WaitCause::Dependency,
                            );
                        }
                        if owner != c && !dependents[owner].contains(&c) {
                            dependents[owner].push(c);
                        }
                    }
                    None => missing.push(sl),
                }
            }
            // Evictions: overwriting a slot whose old slice may still be
            // in use by another stream's kernel (WAR) or pending D2H.
            for &sl in &missing {
                let slot = book.slot(sl);
                if book.mapped[slot].is_some() {
                    let rs = &mut book.readers[slot];
                    for &r in rs.iter() {
                        if !same_stream(r) {
                            push_wait(&mut copy_waits, r, EvKind::Kernel);
                        }
                    }
                    rs.clear();
                    if let Some(w) = book.written_by[slot].take() {
                        if !same_stream(w) && !steps[w].out_runs.is_empty() {
                            push_wait(&mut copy_waits, w, EvKind::D2h);
                        }
                    }
                }
                book.mapped[slot] = Some(sl);
                book.copied_by[slot] = Some(c);
            }
            // Group missing slices into consecutive runs (affine windows
            // produce one run; custom window functions may leave gaps),
            // then split each run at ring-wrap boundaries.
            let mut run_start: Option<i64> = None;
            let mut prev = 0i64;
            for &sl in &missing {
                match run_start {
                    Some(_) if sl == prev + 1 => {}
                    Some(st) => {
                        runs_scratch.clear();
                        slot_runs_into(st, prev + 1, book.slots, &mut runs_scratch);
                        copy_runs.extend(runs_scratch.iter().map(|&(start, len)| (i, start, len)));
                        run_start = Some(sl);
                    }
                    None => run_start = Some(sl),
                }
                prev = sl;
            }
            if let Some(st) = run_start {
                runs_scratch.clear();
                slot_runs_into(st, prev + 1, book.slots, &mut runs_scratch);
                copy_runs.extend(runs_scratch.iter().map(|&(start, len)| (i, start, len)));
            }
            // This chunk reads all its needed slices.
            for sl in a..b {
                let slot = book.slot(sl);
                debug_assert_eq!(book.mapped[slot], Some(sl));
                book.readers[slot].push(c);
            }
        }

        // Output slots: kernel writes them, so the previous occupant's
        // D2H (and, for ToFrom, any readers) must be complete first.
        for (i, m) in spec.maps.iter().enumerate() {
            if !m.dir.is_output() {
                continue;
            }
            let (a, b) = table.ranges[i][c];
            let book = &mut books[i];
            for sl in a..b {
                let slot = book.slot(sl);
                match book.mapped[slot] {
                    Some(old) if old != sl => {
                        if let Some(w) = book.written_by[slot].take() {
                            if !same_stream(w) && !steps[w].out_runs.is_empty() {
                                push_wait_cause(
                                    &mut kernel_waits,
                                    w,
                                    EvKind::D2h,
                                    WaitCause::RingReuse,
                                );
                            }
                        }
                        let rs = &mut book.readers[slot];
                        for &r in rs.iter() {
                            if !same_stream(r) {
                                push_wait_cause(
                                    &mut kernel_waits,
                                    r,
                                    EvKind::Kernel,
                                    WaitCause::RingReuse,
                                );
                            }
                        }
                        rs.clear();
                        book.copied_by[slot] = None;
                        book.mapped[slot] = Some(sl);
                    }
                    None => book.mapped[slot] = Some(sl),
                    _ => {}
                }
            }
            // The chunk's drain runs, and ownership of the drained slots.
            runs_scratch.clear();
            slot_runs_into(a, b, book.slots, &mut runs_scratch);
            out_runs.extend(runs_scratch.iter().map(|&(start, len)| (i, start, len)));
            for sl in a..b {
                let slot = book.slot(sl);
                debug_assert_eq!(book.mapped[slot], Some(sl));
                book.written_by[slot] = Some(c);
            }
        }

        let mapped_slots = books
            .iter()
            .map(|b| b.mapped.iter().filter(|m| m.is_some()).count())
            .sum();
        steps.push(ChunkStep {
            stream: chunk_stream[c],
            copy_waits,
            copy_runs,
            kernel_waits,
            out_runs,
            mapped_slots,
        });
    }
    (steps, dependents)
}

/// Compile a region into a reusable [`CompiledPlan`] for the
/// Pipelined-buffer model: resolve the schedule (honouring
/// `pipeline_mem_limit`), build the window table, assign chunks to
/// streams, and classify every residency/hazard decision into per-chunk
/// enqueue recipes.
///
/// The result can be executed any number of times via
/// [`RunOptions::with_compiled`](crate::RunOptions::with_compiled) —
/// replaying it issues only device commands, no planning. The driver
/// validates the plan against the region/device/options it is asked to
/// run and silently recompiles on mismatch, so a stale plan can cost
/// time but never correctness.
///
/// `gpu` is only mutated for the [`StreamAssignment::LeastLoaded`]
/// cost probe; with the default round-robin policy the device is
/// untouched.
pub fn compile_plan(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    opts: &BufferOptions,
) -> RtResult<CompiledPlan> {
    region.validate(gpu)?;
    compile_impl(gpu, region, builder, opts)
}

/// [`compile_plan`] body (validation already done by the caller).
pub(crate) fn compile_impl(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    opts: &BufferOptions,
) -> RtResult<CompiledPlan> {
    let (mut plan, table) = resolve_rings(gpu.profile(), region, opts)?;
    let chunk_stream = match opts.assignment {
        StreamAssignment::RoundRobin => round_robin(&plan),
        StreamAssignment::LeastLoaded => {
            least_loaded_streams(gpu, region, builder, &mut plan, &table)?
        }
    };
    let profile = gpu.profile();
    let cp = classify_plan(profile, region, opts, plan, table, &chunk_stream, false);
    Ok(cp)
}

/// Device-free compile of the default (round-robin) ring plan: the
/// buffered run the cost model replays.
pub(crate) fn compile_round_robin(
    profile: &DeviceProfile,
    region: &Region,
) -> RtResult<CompiledPlan> {
    let opts = BufferOptions::default();
    let (plan, table) = resolve_rings(profile, region, &opts)?;
    let chunk_stream = round_robin(&plan);
    let cp = classify_plan(profile, region, &opts, plan, table, &chunk_stream, false);
    Ok(cp)
}

/// Resolve the affine plan and window table, sizing the rings as `opts`
/// asks.
fn resolve_rings(
    profile: &DeviceProfile,
    region: &Region,
    opts: &BufferOptions,
) -> RtResult<(Plan, WindowTable)> {
    let mut plan = resolve_plan(&region.spec, profile, region.lo, region.hi)?;
    if opts.minimal_slots {
        plan.ring_slots = region
            .spec
            .maps
            .iter()
            .map(|m| crate::plan::ring_slots_min(&m.split, plan.chunk_size))
            .collect();
        plan.buffer_bytes = region
            .spec
            .maps
            .iter()
            .zip(&plan.ring_slots)
            .map(|(m, &s)| crate::plan::map_buffer_bytes(&m.split, s))
            .sum();
    }
    let table = build_window_table(&region.spec, &plan.chunks, &[])?;
    Ok((plan, table))
}

/// Chunk `c` on stream `c % num_streams`.
fn round_robin(plan: &Plan) -> Vec<usize> {
    (0..plan.chunks.len())
        .map(|c| c % plan.num_streams)
        .collect()
}

/// The device-free tail of every ring compile: classify the chunks,
/// intern the label and record the key.
fn classify_plan(
    profile: &DeviceProfile,
    region: &Region,
    opts: &BufferOptions,
    plan: Plan,
    table: WindowTable,
    chunk_stream: &[usize],
    custom_windows: bool,
) -> CompiledPlan {
    let (steps, dependents) = classify_chunks(
        &region.spec,
        &plan,
        &table,
        chunk_stream,
        opts.track_residency,
    );
    let plan_label = format!(
        "plan(chunks={}, streams={}, slots={:?})",
        plan.chunks.len(),
        plan.num_streams,
        plan.ring_slots
    );
    let key = PlanKey {
        spec: region.spec.clone(),
        lo: region.lo,
        hi: region.hi,
        profile: profile.clone(),
        staging: Staging::Ring(*opts),
        custom_windows,
    };
    CompiledPlan {
        plan,
        table,
        steps,
        dependents,
        plan_label,
        poll: SimTime::ZERO,
        key,
    }
}

/// Driver for regions with **explicit dependency functions** — the
/// paper's §VII "function-based extension that allows the developer to
/// pass in a function pointer" for dependencies the affine clause syntax
/// cannot express. `windows[i]`, when present, overrides map `i`'s
/// affine window: given a chunk `[k0, k1)` it returns the slice range
/// `[a, b)` that must be resident. Ring capacities are derived from the
/// actual per-chunk table. Optionally runs with recovery; the public
/// entry point is [`crate::run::run_window_fn`].
pub(crate) fn buffer_fn_impl(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
    windows: &[Option<&WindowFn<'_>>],
    recovery: Option<&RecoveryCtx<'_>>,
) -> RtResult<DriverOutcome> {
    region.validate_binding(gpu)?;
    let (plan, table) = resolve_plan_fn(
        &region.spec,
        gpu.profile(),
        region.lo,
        region.hi,
        windows,
    )?;
    let (profile, opts) = (gpu.profile(), BufferOptions::default());
    let chunk_stream = round_robin(&plan);
    let cp = classify_plan(profile, region, &opts, plan, table, &chunk_stream, true);
    execute_compiled(gpu, region, builder, &cp, recovery, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_runs_split_at_wrap() {
        // Slices 3..9 in a 4-slot ring: slots 3 | 0 1 2 3 | 0.
        assert_eq!(slot_runs(3, 9, 4), vec![(3, 1), (4, 4), (8, 1)]);
        // Fully inside one revolution.
        assert_eq!(slot_runs(4, 7, 8), vec![(4, 3)]);
        // Empty range.
        assert!(slot_runs(5, 5, 4).is_empty());
        // Exact revolutions.
        assert_eq!(slot_runs(0, 8, 4), vec![(0, 4), (4, 4)]);
    }

    #[test]
    fn push_wait_dedupes_on_chunk_and_stage() {
        let mut v = Vec::new();
        push_wait(&mut v, 3, EvKind::Kernel);
        push_wait(&mut v, 3, EvKind::Kernel);
        push_wait(&mut v, 3, EvKind::D2h);
        assert_eq!(v, vec![(3, EvKind::Kernel), (3, EvKind::D2h)]);
        let mut w = Vec::new();
        push_wait_cause(&mut w, 1, EvKind::H2d, WaitCause::Dependency);
        push_wait_cause(&mut w, 1, EvKind::H2d, WaitCause::RingReuse);
        assert_eq!(w, vec![(1, EvKind::H2d, WaitCause::Dependency)]);
    }
}
