//! Fault-tolerant execution: chunk-granular retry with simulated-time
//! backoff, plus the bookkeeping the degradation ladder in [`crate::run`]
//! builds on.
//!
//! The pipelined drivers enqueue chunks as H2D → kernel → D2H triplets on
//! round-robin streams. When the device surfaces an injected failure (see
//! [`gpsim::FaultPlan`]), the recovery layer maps the failing sequence
//! number back to its chunk, waits out an exponential backoff *in
//! simulated time*, and re-enqueues only that chunk's triplet — reusing
//! the same ring slots — while every other in-flight chunk keeps
//! streaming to completion. Failures the policy classifies as fatal (or
//! retry budgets running dry) surface as structured [`RtError`] variants
//! so callers can degrade to a simpler execution model instead of dying.

use std::collections::{BTreeMap, VecDeque};

use gpsim::{EngineKind, FaultStage, Gpu, HostSpanKind, SimError, SimTime};

use crate::error::{RtError, RtResult};
use crate::exec::Region;
use crate::report::ExecModel;
use crate::spec::MapDir;

/// When (and how hard) the runtime retries failed chunk work.
///
/// The default policy is **disabled** (`max_attempts == 0`): the drivers
/// then skip all recovery bookkeeping and behave exactly like the
/// pre-recovery runtime. Enable with [`RetryPolicy::retries`]:
///
/// ```
/// use pipeline_rt::RetryPolicy;
/// use gpsim::SimTime;
/// let p = RetryPolicy::retries(3).with_backoff(SimTime::from_us(50), 2.0);
/// assert!(p.enabled());
/// assert_eq!(p.backoff_for(2), SimTime::from_us(100));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Retry budget per chunk; `0` disables recovery entirely.
    pub max_attempts: u32,
    /// Backoff before the first retry (simulated host time).
    pub backoff_base: SimTime,
    /// Multiplier applied per subsequent attempt (exponential backoff).
    pub backoff_factor: f64,
    /// Which stages are retryable, indexed by [`FaultStage::index`].
    /// Defaults to all four; a stage marked non-retryable turns its
    /// failures into [`RtError::Device`] immediately.
    pub stages: [bool; 4],
}

impl RetryPolicy {
    /// The disabled policy: no recovery bookkeeping at all.
    pub fn disabled() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 0,
            backoff_base: SimTime::from_us(50),
            backoff_factor: 2.0,
            stages: [true; 4],
        }
    }

    /// A policy that retries each failed chunk up to `max_attempts`
    /// times, with the default 50 µs × 2ⁿ backoff.
    pub fn retries(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::disabled()
        }
    }

    /// Set the backoff schedule: `base · factor^(attempt−1)` (consuming
    /// builder).
    #[must_use]
    pub fn with_backoff(mut self, base: SimTime, factor: f64) -> RetryPolicy {
        self.backoff_base = base;
        self.backoff_factor = factor.max(1.0);
        self
    }

    /// Mark one stage retryable or fatal (consuming builder).
    #[must_use]
    pub fn with_stage(mut self, stage: FaultStage, retryable: bool) -> RetryPolicy {
        self.stages[stage.index()] = retryable;
        self
    }

    /// True when recovery is active.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 0
    }

    /// Classify one failure: only *injected* faults on a stage the policy
    /// covers are transient. Genuine simulator errors (OOM, races,
    /// deadlocks) are never retryable — repeating the work cannot fix
    /// them.
    pub fn retryable(&self, stage: FaultStage, error: &SimError) -> bool {
        self.enabled()
            && self.stages[stage.index()]
            && matches!(error, SimError::Injected { .. })
    }

    /// Backoff before the `attempt`-th retry (1-based).
    pub fn backoff_for(&self, attempt: u32) -> SimTime {
        let exp = attempt.saturating_sub(1);
        SimTime::from_secs_f64(
            self.backoff_base.as_secs_f64() * self.backoff_factor.powi(exp as i32),
        )
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::disabled()
    }
}

/// One rung taken on the degradation ladder: a model was abandoned for a
/// simpler one over (part of) the iteration space.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Model that gave up.
    pub from: ExecModel,
    /// Model that took over.
    pub to: ExecModel,
    /// Iteration range the fallback re-executed.
    pub iterations: (i64, i64),
    /// Human-readable cause (`"retries exhausted on chunk 3 (h2d)"`).
    pub reason: String,
}

/// What recovery cost a run: retries per stage, commands re-enqueued,
/// simulated time spent backing off, and any degradations taken.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Failures retried, indexed by [`FaultStage::index`].
    pub retries: [u64; 4],
    /// Engine commands re-enqueued by retries (already subtracted from
    /// [`RunReport::commands`](crate::RunReport::commands), so a faulty
    /// run reports the same command count as a fault-free one).
    pub reissued_commands: u64,
    /// Simulated host time spent in retry backoff.
    pub backoff_time: SimTime,
    /// Degradation-ladder rungs taken, in order.
    pub degradations: Vec<Degradation>,
}

impl RecoveryStats {
    /// Total retries across stages.
    pub fn total_retries(&self) -> u64 {
        self.retries.iter().sum()
    }

    /// True when the run needed no recovery at all.
    pub fn is_clean(&self) -> bool {
        self.total_retries() == 0 && self.degradations.is_empty()
    }

    /// Fold another stats block into this one (used when fallback runs
    /// are merged into the primary report).
    pub fn merge(&mut self, other: &RecoveryStats) {
        for (a, b) in self.retries.iter_mut().zip(&other.retries) {
            *a += b;
        }
        self.reissued_commands += other.reissued_commands;
        self.backoff_time += other.backoff_time;
        self.degradations.extend(other.degradations.iter().cloned());
    }
}

/// Pre-run snapshot of every `ToFrom` host array.
///
/// A failed chunk still retires the rest of its stream's queue, so its
/// D2H can drain stale device data over the host windows of `ToFrom`
/// maps — which are also the *inputs* of any retry. The snapshot restores
/// the failed window to its pre-run contents before re-enqueueing (To
/// maps are never written; From windows are simply overwritten by the
/// retried D2H).
pub(crate) struct ToFromSnapshot {
    /// One entry per map; `Some` only for `ToFrom` maps in functional
    /// mode (timing mode has no backing data to corrupt).
    maps: Vec<Option<Vec<f32>>>,
}

impl ToFromSnapshot {
    /// An empty snapshot (recovery disabled).
    pub(crate) fn empty(region: &Region) -> ToFromSnapshot {
        ToFromSnapshot {
            maps: vec![None; region.spec.maps.len()],
        }
    }

    /// Capture the `ToFrom` host arrays of a region.
    pub(crate) fn take(gpu: &Gpu, region: &Region) -> RtResult<ToFromSnapshot> {
        if gpu.mode() != gpsim::ExecMode::Functional {
            return Ok(ToFromSnapshot::empty(region));
        }
        let mut maps = Vec::with_capacity(region.spec.maps.len());
        for (m, &h) in region.spec.maps.iter().zip(&region.arrays) {
            if m.dir == MapDir::ToFrom {
                let mut buf = vec![0.0f32; m.split.total_elems()];
                gpu.host_read(h, 0, &mut buf)?;
                maps.push(Some(buf));
            } else {
                maps.push(None);
            }
        }
        Ok(ToFromSnapshot { maps })
    }

    /// Restore the host windows that iterations `[k0, k1)` read, before
    /// their chunk is re-enqueued.
    pub(crate) fn restore_window(
        &self,
        gpu: &Gpu,
        region: &Region,
        k0: i64,
        k1: i64,
    ) -> RtResult<()> {
        for (i, m) in region.spec.maps.iter().enumerate() {
            let Some(data) = &self.maps[i] else { continue };
            let (a, b) = m.split.needed_slices(k0, k1);
            let a = a.max(0);
            let b = b.min(m.split.extent() as i64);
            if a >= b {
                continue;
            }
            let elems = m.split.slice_elems();
            let (off, len) = ((a as usize) * elems, ((b - a) as usize) * elems);
            gpu.host_write(region.arrays[i], off, &data[off..off + len])?;
        }
        Ok(())
    }

    /// Restore every snapshotted array in full (whole-run retry).
    pub(crate) fn restore_all(&self, gpu: &Gpu, region: &Region) -> RtResult<()> {
        for (i, data) in self.maps.iter().enumerate() {
            if let Some(data) = data {
                gpu.host_write(region.arrays[i], 0, data)?;
            }
        }
        Ok(())
    }
}

/// Everything a driver needs to run with recovery enabled.
pub(crate) struct RecoveryCtx<'p> {
    pub(crate) policy: &'p RetryPolicy,
    pub(crate) snapshot: &'p ToFromSnapshot,
}

/// How a recovery-aware driver finished.
pub(crate) enum DriverOutcome {
    /// The run completed (possibly after retries).
    Done(crate::report::RunReport),
    /// A chunk ran out of retry budget; the device is drained and the
    /// driver's resources are released. `unfinished` lists the iteration
    /// ranges whose results are not trustworthy, for the degradation
    /// ladder to re-execute.
    Exhausted {
        /// Accounting of the partial run (recovery stats folded in), so
        /// the ladder can merge it with the fallback's report.
        report: crate::report::RunReport,
        /// Chunk index that exhausted its budget.
        chunk: usize,
        /// Stage of its last failure.
        stage: FaultStage,
        /// Attempts consumed (== the policy's budget).
        attempts: u32,
        /// The last underlying error.
        source: SimError,
        /// Iteration ranges left unfinished, ascending and disjoint.
        unfinished: Vec<(i64, i64)>,
    },
}

impl DriverOutcome {
    /// The run's report, finished or partial.
    pub(crate) fn report_mut(&mut self) -> &mut crate::report::RunReport {
        match self {
            DriverOutcome::Done(report) | DriverOutcome::Exhausted { report, .. } => report,
        }
    }
}

/// Result of [`drain_with_recovery`], before the driver wraps it into a
/// [`DriverOutcome`].
pub(crate) enum DrainResult {
    /// All chunks finished.
    Clean {
        stats: RecoveryStats,
        /// `(host ns, pending retries)` samples for the
        /// `retries_in_flight` counter track (empty without retries).
        retry_samples: Vec<(u64, f64)>,
    },
    /// A chunk exceeded the retry budget.
    Exhausted {
        chunk: usize,
        stage: FaultStage,
        attempts: u32,
        source: SimError,
        /// All chunk indices still unfinished (including `chunk`).
        open: Vec<usize>,
        stats: RecoveryStats,
    },
}

fn stage_of(engine: EngineKind) -> FaultStage {
    match engine {
        EngineKind::H2D => FaultStage::H2d,
        EngineKind::D2H => FaultStage::D2h,
        EngineKind::Compute => FaultStage::Kernel,
    }
}

/// Drain the device with chunk-granular retry.
///
/// `chunk_seqs[c]` is the `[first, end)` enqueue-sequence range of chunk
/// `c`'s original commands; `dependents[c]` lists the chunks whose
/// kernels consumed input slices that chunk `c` copied (halo sharing), so
/// an H2D failure retries the consumers too — their kernels read stale
/// device data and retired without an error of their own. `reissue`
/// re-enqueues one chunk's full H2D → kernel → D2H triplet (the complete
/// input window, so a reissued chunk is self-sufficient regardless of
/// ring state) and returns how many engine commands it enqueued.
///
/// Retries are serialized: each reissue is followed by a full drain, so
/// at most one retried chunk is in flight at a time and ring-slot
/// hazards against completed work cannot arise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drain_with_recovery(
    gpu: &mut Gpu,
    model: ExecModel,
    region: &Region,
    ctx: &RecoveryCtx<'_>,
    chunks: &[(i64, i64)],
    chunk_seqs: &[(u64, u64)],
    dependents: &[Vec<usize>],
    mut reissue: impl FnMut(&mut Gpu, usize) -> RtResult<u64>,
) -> RtResult<DrainResult> {
    let mut stats = RecoveryStats::default();
    let mut retry_samples: Vec<(u64, f64)> = Vec::new();
    let mut attempts = vec![0u32; chunks.len()];
    // Chunk of each *reissued* seq range; searched before the original
    // ranges so a re-failed retry maps back to its chunk.
    let mut reissue_map: Vec<(u64, u64, usize)> = Vec::new();
    // Pending chunks: FIFO queue + charged flag ("charged" = scheduled by
    // its own failure and so debited an attempt; dependents ride along
    // free — they did not fail, their inputs did).
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut open: BTreeMap<usize, bool> = BTreeMap::new();
    // Last failure seen per chunk, for backoff attribution and the
    // exhaustion report.
    let mut last_failure: BTreeMap<usize, (FaultStage, usize, SimError)> = BTreeMap::new();

    let chunk_of = |reissues: &[(u64, u64, usize)], seq: u64| -> Option<usize> {
        reissues
            .iter()
            .rev()
            .find(|&&(s0, s1, _)| (s0..s1).contains(&seq))
            .map(|&(_, _, c)| c)
            .or_else(|| {
                chunk_seqs
                    .iter()
                    .position(|&(s0, s1)| (s0..s1).contains(&seq))
            })
    };

    loop {
        // --- Drain all in-flight work, classifying failures -------------
        loop {
            match gpu.synchronize() {
                Ok(()) => break,
                Err(e) => {
                    let failures = gpu.take_failures();
                    if failures.is_empty() {
                        // Not an engine-command failure (enqueue-time or
                        // bookkeeping error): nothing to retry.
                        return Err(e.into());
                    }
                    for f in failures {
                        let stage = stage_of(f.engine);
                        let Some(c) = chunk_of(&reissue_map, f.seq) else {
                            // Failed command outside any chunk (setup or
                            // teardown work) — not recoverable here.
                            return Err(f.error.into());
                        };
                        if !ctx.policy.retryable(stage, &f.error) {
                            return Err(RtError::Device {
                                model,
                                chunk: c,
                                stage,
                                source: f.error,
                            });
                        }
                        stats.retries[stage.index()] += 1;
                        last_failure.insert(c, (stage, f.stream, f.error));
                        match open.entry(c) {
                            std::collections::btree_map::Entry::Vacant(v) => {
                                v.insert(true);
                                queue.push_back(c);
                            }
                            std::collections::btree_map::Entry::Occupied(mut o) => {
                                *o.get_mut() = true;
                            }
                        }
                        if stage == FaultStage::H2d {
                            // The failed copy also fed these chunks'
                            // kernels stale slices; re-run them too.
                            for &d in &dependents[c] {
                                if let std::collections::btree_map::Entry::Vacant(v) =
                                    open.entry(d)
                                {
                                    v.insert(false);
                                    queue.push_back(d);
                                }
                            }
                        }
                    }
                    if gpu.timeline_enabled() {
                        retry_samples.push((gpu.now().as_ns(), open.len() as f64));
                    }
                }
            }
        }

        // --- Re-enqueue one pending chunk (serialized retries) ----------
        let Some(c) = queue.pop_front() else {
            if !retry_samples.is_empty() && gpu.timeline_enabled() {
                retry_samples.push((gpu.now().as_ns(), 0.0));
            }
            return Ok(DrainResult::Clean {
                stats,
                retry_samples,
            });
        };
        let charged = open.get(&c).copied().unwrap_or(true);
        if charged {
            attempts[c] += 1;
            if attempts[c] > ctx.policy.max_attempts {
                let (stage, _, source) = last_failure
                    .get(&c)
                    .cloned()
                    .unwrap_or((FaultStage::Kernel, 0, SimError::Injected {
                        stage: FaultStage::Kernel,
                        occurrence: 0,
                    }));
                return Ok(DrainResult::Exhausted {
                    chunk: c,
                    stage,
                    attempts: attempts[c] - 1,
                    source,
                    open: open.keys().copied().collect(),
                    stats,
                });
            }
            // Exponential backoff in simulated host time, visible in the
            // trace as a `wait-retry` span and a Retry stall on the
            // chunk's stream.
            let backoff = ctx.policy.backoff_for(attempts[c]);
            let stream = last_failure.get(&c).map_or(0, |&(_, s, _)| s);
            let t0 = gpu.now();
            gpu.host_busy(backoff);
            let t1 = gpu.now();
            gpu.record_retry_wait(stream, t0, t1);
            gpu.push_host_span(
                format!("wait-retry(chunk={c}, attempt={})", attempts[c]),
                HostSpanKind::Wait,
                t0,
                t1,
            );
            stats.backoff_time += t1 - t0;
        }
        let (k0, k1) = chunks[c];
        ctx.snapshot.restore_window(gpu, region, k0, k1)?;
        let s0 = gpu.next_seq();
        let n = reissue(gpu, c)?;
        reissue_map.push((s0, gpu.next_seq(), c));
        stats.reissued_commands += n;
        open.remove(&c);
        if gpu.timeline_enabled() {
            retry_samples.push((gpu.now().as_ns(), open.len() as f64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_classification() {
        let p = RetryPolicy::retries(2).with_stage(FaultStage::Kernel, false);
        let inj = SimError::Injected {
            stage: FaultStage::H2d,
            occurrence: 0,
        };
        assert!(p.retryable(FaultStage::H2d, &inj));
        assert!(!p.retryable(FaultStage::Kernel, &inj), "stage disabled");
        assert!(
            !p.retryable(FaultStage::H2d, &SimError::Deadlock("x".into())),
            "genuine errors are fatal"
        );
        assert!(!RetryPolicy::disabled().retryable(FaultStage::H2d, &inj));
    }

    #[test]
    fn backoff_is_exponential() {
        let p = RetryPolicy::retries(5).with_backoff(SimTime::from_us(10), 2.0);
        assert_eq!(p.backoff_for(1), SimTime::from_us(10));
        assert_eq!(p.backoff_for(2), SimTime::from_us(20));
        assert_eq!(p.backoff_for(3), SimTime::from_us(40));
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = RecoveryStats::default();
        a.retries[0] = 2;
        a.reissued_commands = 6;
        let mut b = RecoveryStats::default();
        b.retries[0] = 1;
        b.retries[2] = 3;
        b.backoff_time = SimTime::from_us(5);
        b.degradations.push(Degradation {
            from: ExecModel::PipelinedBuffer,
            to: ExecModel::Pipelined,
            iterations: (0, 8),
            reason: "test".into(),
        });
        a.merge(&b);
        assert_eq!(a.retries, [3, 0, 3, 0]);
        assert_eq!(a.reissued_commands, 6);
        assert_eq!(a.backoff_time, SimTime::from_us(5));
        assert_eq!(a.total_retries(), 6);
        assert_eq!(a.degradations.len(), 1);
        assert!(!a.is_clean());
        assert!(RecoveryStats::default().is_clean());
    }
}
