//! `serve` and `serve-chaos`: seeded open-loop job streams through the
//! multi-tenant server on a 4-device K40m/P100 fleet.
//!
//! * `serve` — three equal-weight tenants, `ServeOptions::new()`, an
//!   offered rate below the fleet's simulated capacity. Cost-model
//!   placement, stride scheduling, `ResumableRun` slicing and
//!   re-execution verification dominate.
//! * `serve-chaos` — the hardened options of `figures chaos` (EDF,
//!   feasibility shedding, degrade and shed horizons, the breaker), one
//!   best-effort tenant, arrivals at about twice capacity, one device
//!   lost mid-stream and one that hangs and spikes. It runs admission,
//!   failover, the breaker and the degradation ladder, which `serve`
//!   never enters.
//!
//! Each pass builds, calibrates and (for chaos) arms a fresh fleet —
//! the set-up sample — and serves the whole stream.

use std::time::Instant;

use dbpp_core::serve::{
    jain_index, serve, Fleet, JobSpec, Rejection, ServeOptions, ServeReport, TenantSpec,
    WorkloadConfig,
};
use gpsim::{FaultPlan, LossCause, SimTime};

use crate::report::{self, repeat_for, Metric, Outcome};
use crate::stats::{self, Digest};
use crate::trace::{Span, Tracer};

/// Fleet size (alternating K40m / P100).
const DEVICES: usize = 4;
/// Jobs per stream on `serve`: each stream is one timed pass, and a
/// run needs tens of passes for a steady rate.
const SERVE_JOBS: usize = 1500;
/// Jobs per stream on `serve-chaos`.
const CHAOS_JOBS: usize = 1500;
/// Mean inter-arrival gap of the normal phases on `serve`. The
/// generator's bursts (every other 48-job phase, 8× denser) bring the
/// mean gap to 0.5625 of it, ~141 µs: ~7,000 jobs per simulated second
/// against the ~10,000 the fleet completes with every job queued at
/// time zero, so about 70 % of capacity. The drain check in `check`
/// fails if the queue outgrows that.
const SERVE_GAP: SimTime = SimTime::from_us(250);
/// Mean normal-phase gap on `serve-chaos`: ~51 µs with the bursts,
/// ~19,000 jobs per simulated second, about twice the clean fleet's
/// capacity.
const CHAOS_GAP: SimTime = SimTime::from_us(90);
/// Largest share of the arrival span that `serve` may take to drain its
/// queue after the last arrival. A backlog that grows with the stream
/// needs a share about as large as the overload; a stable queue drains
/// in one job's service time.
const MAX_DRAIN_SHARE: f64 = 0.02;
/// Hang watchdog armed with every fault plan.
const WATCHDOG: SimTime = SimTime::from_ms(1);

/// Which of the two serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Clean serving below capacity.
    Serve,
    /// Hardened serving under overload and device faults.
    Chaos,
}

fn tenants(mode: Mode) -> Vec<TenantSpec> {
    match mode {
        Mode::Serve => (0..3)
            .map(|i| TenantSpec::new(format!("tenant{i}"), 1.0))
            .collect(),
        Mode::Chaos => vec![
            TenantSpec::new("latency0", 1.0),
            TenantSpec::new("latency1", 1.0),
            TenantSpec::new("batch", 1.0).best_effort(),
        ],
    }
}

fn options(mode: Mode) -> ServeOptions {
    match mode {
        Mode::Serve => ServeOptions::new(),
        Mode::Chaos => ServeOptions::new()
            .with_feasibility(true)
            .with_degrade_horizon(SimTime::from_us(300))
            .with_shed_horizon(SimTime::from_ms(6)),
    }
}

/// The job stream for `seed`: a pure function of the seed.
pub fn stream(mode: Mode, seed: u64) -> Vec<JobSpec> {
    match mode {
        Mode::Serve => {
            let mut cfg = WorkloadConfig::new(seed, SERVE_JOBS, 3);
            cfg.mean_gap = SERVE_GAP;
            cfg.generate()
        }
        Mode::Chaos => {
            let mut cfg = WorkloadConfig::new(seed, CHAOS_JOBS, 3);
            cfg.mean_gap = CHAOS_GAP;
            cfg.deadline_frac = 0.5;
            let mut jobs = cfg.generate();
            // Budgets of 0.5–9.5 ms against multi-ms backlogs, as in
            // `figures chaos`: queue order decides who misses.
            for j in &mut jobs {
                if j.deadline.is_some() {
                    j.deadline = Some(SimTime::from_us(500 + (j.id % 10) * 900));
                }
            }
            jobs
        }
    }
}

/// A fleet ready to serve: built, calibrated and, for chaos, armed.
fn fleet(mode: Mode, tr: &mut Tracer) -> Result<Fleet, String> {
    let mut fleet = tr
        .span("fleet.build", |_| Fleet::build(DEVICES))
        .map_err(|e| e.to_string())?;
    tr.span("fleet.calibrate", |_| fleet.calibrate())
        .map_err(|e| e.to_string())?;
    if mode == Mode::Chaos {
        // The stream's arrivals span ~75 ms of simulated time; the loss
        // lands mid-stream.
        fleet.arm_fault_plan(
            1,
            FaultPlan::seeded(7).device_lost_after(SimTime::from_ms(35)),
            WATCHDOG,
        );
        fleet.arm_fault_plan(
            2,
            FaultPlan::seeded(21).hang_rate(0.002).spikes(0.05, 4.0),
            WATCHDOG,
        );
    }
    Ok(fleet)
}

/// One serving pass.
struct Pass {
    setup_s: f64,
    serve_s: f64,
    seq_cmds: u64,
    /// Loss cause of each device, `None` while it is alive.
    losses: Vec<Option<LossCause>>,
    live_bytes: u64,
    /// Arrival time of the stream's last job.
    last_arrival: SimTime,
    report: Result<ServeReport, String>,
    spans: Vec<Span>,
}

fn pass(mode: Mode, seed: u64, opts: &ServeOptions, traced: bool, epoch: Instant) -> Pass {
    let mut tr = Tracer::new(traced, epoch);
    let mut p = tr.span("bench.pass", |tr| {
        let t = Instant::now();
        let jobs = tr.span("workload.generate", |_| stream(mode, seed));
        let fleet = fleet(mode, tr);
        let setup_s = t.elapsed().as_secs_f64();
        let mut fleet = match fleet {
            Ok(f) => f,
            Err(e) => {
                return Pass {
                    setup_s,
                    serve_s: 0.0,
                    seq_cmds: 0,
                    losses: Vec::new(),
                    live_bytes: 0,
                    last_arrival: SimTime::ZERO,
                    report: Err(e),
                    spans: Vec::new(),
                }
            }
        };
        let seq0: u64 = fleet.gpus.iter().map(|g| g.next_seq()).sum();
        let t = Instant::now();
        let report = tr
            .span("serve", |_| serve(&mut fleet, &tenants(mode), &jobs, opts))
            .map_err(|e| e.to_string());
        let serve_s = t.elapsed().as_secs_f64();
        Pass {
            setup_s,
            serve_s,
            seq_cmds: fleet.gpus.iter().map(|g| g.next_seq()).sum::<u64>() - seq0,
            losses: fleet
                .gpus
                .iter()
                .map(|g| g.device_lost().map(|(_, c)| c))
                .collect(),
            live_bytes: fleet.pool.live_bytes(),
            last_arrival: jobs
                .iter()
                .map(|j| j.arrival)
                .max()
                .unwrap_or(SimTime::ZERO),
            report,
            spans: Vec::new(),
        }
    });
    p.spans = tr.into_spans();
    p
}

fn digest(r: &ServeReport) -> Digest {
    let mut d = Digest::default();
    d.extend([
        r.submitted,
        r.done,
        r.preempted,
        r.recovered,
        r.total_slices,
        r.failed_slices,
    ]);
    d.extend([
        r.degraded_slices,
        r.devices_lost as u64,
        r.breaker_trips,
        r.verified,
        r.verified_ok,
    ]);
    d.extend(r.rejected.by_reason);
    d.extend([
        r.makespan.as_ns(),
        r.peak_live_bytes,
        r.peak_live_bufs as u64,
    ]);
    for t in &r.tenants {
        d.extend([
            t.done,
            t.service.as_ns(),
            t.deadline_misses,
            t.deadline_rejected,
            t.slices,
        ]);
        d.extend([
            t.queue_wait.count(),
            t.queue_wait.max_ns(),
            t.makespan.max_ns(),
        ]);
    }
    d
}

/// The pass's correctness checks.
fn check(mode: Mode, i: usize, p: &Pass, out: &mut Outcome) {
    let r = match &p.report {
        Ok(r) => r,
        Err(e) => return out.fail(format!("pass {i}: serve failed: {e}")),
    };
    out.check(r.done + r.rejected.total() == r.submitted, || {
        format!(
            "pass {i}: accepted job lost — done {} + rejected {} != submitted {}",
            r.done,
            r.rejected.total(),
            r.submitted
        )
    });
    out.check(r.verified_ok == r.verified, || {
        format!(
            "pass {i}: {} of {} verified jobs diverged",
            r.verified - r.verified_ok,
            r.verified
        )
    });
    out.check(p.live_bytes == 0, || {
        format!("pass {i}: host pool ends with {} live bytes", p.live_bytes)
    });
    match mode {
        Mode::Serve => {
            out.check(r.preempted > 0 && r.verified > 0, || {
                format!("pass {i}: no job was preempted and verified")
            });
            let span = p.last_arrival.as_secs_f64();
            let drain = r.makespan.as_secs_f64() - span;
            out.check(drain <= MAX_DRAIN_SHARE * span, || {
                format!(
                    "pass {i}: the queue took {:.3} ms to drain after the last arrival at \
                     {:.3} ms: the offered rate is above capacity",
                    drain * 1e3,
                    span * 1e3
                )
            });
        }
        Mode::Chaos => {
            out.check(r.devices_lost >= 2, || {
                format!(
                    "pass {i}: expected the lost and the hung device out, saw {}",
                    r.devices_lost
                )
            });
            out.check(r.recovered > 0, || format!("pass {i}: nothing recovered"));
            // The injected faults fired: device 1 by its loss trigger,
            // device 2 by a hang the watchdog escalated.
            let fired = p.losses.get(1) == Some(&Some(LossCause::Injected))
                && p.losses.get(2) == Some(&Some(LossCause::HangEscalated));
            out.check(fired, || {
                format!("pass {i}: injected faults did not fire: {:?}", p.losses)
            });
            out.check(r.degraded_slices > 0 && r.rejected.total() > 0, || {
                format!("pass {i}: overload never degraded or shed the best-effort tenant")
            });
        }
    }
}

/// Jain index over the tenants the workload guarantees.
fn jain(mode: Mode, r: &ServeReport) -> f64 {
    match mode {
        Mode::Serve => r.fairness,
        Mode::Chaos => {
            let guaranteed = tenants(mode);
            let xs: Vec<f64> = r
                .tenants
                .iter()
                .zip(&guaranteed)
                .filter(|(t, spec)| !spec.best_effort && t.submitted > 0)
                .map(|(t, _)| t.normalized_service())
                .collect();
            jain_index(&xs)
        }
    }
}

/// Run the workload.
pub fn run(mode: Mode, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let opts = options(mode);
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut serve_s = Vec::new();
    let mut seq_cmds = 0;
    let mut last_arrival = SimTime::ZERO;
    let mut traced_walls = Vec::new();
    let mut plain_walls = Vec::new();
    let mut spans = Vec::new();
    let mut reference: Option<(Digest, ServeReport)> = None;
    let passes = repeat_for(seconds, if traced { 4 } else { 3 }, |i| {
        let with_trace = traced && i % 2 == 1;
        let t = Instant::now();
        let p = pass(mode, seed, &opts, with_trace, epoch);
        let wall = t.elapsed().as_secs_f64();
        check(mode, i, &p, &mut out);
        setup_s.push(p.setup_s);
        let Ok(r) = &p.report else {
            out.attempted += 1;
            return;
        };
        out.attempted += r.submitted;
        out.refused += r.rejected.total();
        let d = digest(r);
        match &reference {
            None => reference = Some((d, r.clone())),
            Some((rd, _)) => out.check(*rd == d, || format!("pass {i}: simulated digest changed")),
        }
        if with_trace {
            traced_walls.push(wall);
            crate::trace::append(&mut spans, p.spans, None);
        } else {
            plain_walls.push(wall);
            serve_s.push(p.serve_s);
            // Simulated, hence the same on every pass (the digest).
            seq_cmds = p.seq_cmds;
            last_arrival = p.last_arrival;
        }
    });
    out.passes = passes;
    let Some((digest, r)) = reference else {
        return out;
    };
    out.digest = digest;

    if !traced {
        let (done, cmds) = (r.done as f64, seq_cmds as f64);
        report::push_rates(&mut out, &setup_s, done, cmds, &[serve_s]);
        if let Some(m) = r.miss_rate() {
            out.push(Metric::sim("deadline_miss_rate", m, "ratio", "lower"));
        }
        let sim_s = r.makespan.as_secs_f64();
        out.push(Metric::sim(
            "sim_jobs_per_s",
            r.done as f64 / sim_s,
            "1/s",
            "higher",
        ));
        out.push(Metric::sim(
            "offered_jobs_per_s",
            r.submitted as f64 / last_arrival.as_secs_f64(),
            "1/s",
            "",
        ));
        out.push(Metric::sim("jain", jain(mode, &r), "index", "higher"));
        return out;
    }

    let n = traced_walls.len().max(1) as f64;
    crate::push_bench_rows(&spans, n, &traced_walls, &plain_walls, &mut out);
    layer_metrics(mode, seed, &r, &serve_s, seq_cmds, &mut out);
    out.spans = spans;
    out
}

fn layer_metrics(
    mode: Mode,
    seed: u64,
    r: &ServeReport,
    serve_s: &[f64],
    seq_cmds: u64,
    out: &mut Outcome,
) {
    let serve_s = stats::median(serve_s).unwrap_or(0.0);
    out.push(Metric::sim("gpsim.cmds", seq_cmds as f64, "count", ""));
    out.push(Metric::sim(
        "serve.verified",
        r.verified as f64,
        "count",
        "",
    ));
    out.push(Metric::sim(
        "serve.verified_ok",
        r.verified_ok as f64,
        "count",
        "",
    ));
    out.push(Metric::sim(
        "verify.checked",
        r.verified as f64,
        "count",
        "",
    ));
    out.push(Metric::sim(
        "verify.mismatches",
        (r.verified - r.verified_ok) as f64,
        "count",
        "lower",
    ));
    out.push(Metric::sim(
        "serve.slices",
        r.total_slices as f64,
        "count",
        "",
    ));
    out.push(Metric::sim(
        "serve.slices_per_job",
        r.total_slices as f64 / r.done.max(1) as f64,
        "ratio",
        "",
    ));
    out.push(Metric::sim(
        "serve.preempted",
        r.preempted as f64,
        "count",
        "",
    ));
    out.push(Metric::host(
        "serve.host_us_per_slice",
        serve_s * 1e6 / r.total_slices.max(1) as f64,
        "us",
        "lower",
    ));
    out.push(Metric::sim(
        "serve.peak_live_mb",
        r.peak_live_bytes as f64 / 1e6,
        "MB",
        "lower",
    ));
    let worst = |f: &dyn Fn(&dbpp_core::serve::TenantStats) -> u64| {
        r.tenants.iter().map(f).max().unwrap_or(0) as f64 / 1e6
    };
    out.push(Metric::sim(
        "sched.wait_p99_ms",
        worst(&|t| t.queue_wait.quantile_ns(0.99)),
        "ms",
        "lower",
    ));
    out.push(Metric::sim(
        "sched.wait_max_ms",
        worst(&|t| t.queue_wait.max_ns()),
        "ms",
        "lower",
    ));
    for (name, why) in [
        ("admission.rejected.over_quota", Rejection::OverQuota),
        ("admission.rejected.overload", Rejection::Overload),
        ("admission.rejected.infeasible", Rejection::Infeasible),
    ] {
        out.push(Metric::sim(name, r.rejected.get(why) as f64, "count", ""));
    }
    let accepted = r.submitted - r.rejected.total();
    out.push(Metric::sim(
        "admission.accept_ratio",
        accepted as f64 / r.submitted.max(1) as f64,
        "ratio",
        "",
    ));
    out.push(Metric::sim(
        "recovery.recovered",
        r.recovered as f64,
        "count",
        "",
    ));
    out.push(Metric::sim(
        "recovery.failed_slices",
        r.failed_slices as f64,
        "count",
        "",
    ));
    out.push(Metric::sim(
        "recovery.devices_lost",
        r.devices_lost as f64,
        "count",
        "",
    ));
    out.push(Metric::sim(
        "recovery.breaker_trips",
        r.breaker_trips as f64,
        "count",
        "",
    ));
    out.push(Metric::sim(
        "recovery.degraded_slices",
        r.degraded_slices as f64,
        "count",
        "",
    ));

    // A/B on the same stream: the share of serving time verification
    // costs. It runs inside `serve`, so it is not a row of its own.
    let unverified = options(mode).with_verify_preempted(false);
    let p = pass(mode, seed, &unverified, false, Instant::now());
    out.attempted += 1;
    match p.report {
        Ok(_) if serve_s > 0.0 => out.push(Metric::host(
            "serve.verify_share",
            1.0 - p.serve_s / serve_s,
            "ratio",
            "lower",
        )),
        Ok(_) => out.fail("no untraced pass timed serve() for the verification A/B".into()),
        Err(e) => out.fail(format!("unverified A/B pass: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        for mode in [Mode::Serve, Mode::Chaos] {
            let key = |jobs: &[JobSpec]| -> Vec<(u64, usize, u64, Option<u64>, &'static str)> {
                jobs.iter()
                    .map(|j| {
                        (
                            j.id,
                            j.tenant,
                            j.arrival.as_ns(),
                            j.deadline.map(|d| d.as_ns()),
                            j.shape.name(),
                        )
                    })
                    .collect()
            };
            let a = stream(mode, 5);
            assert_eq!(key(&a), key(&stream(mode, 5)));
            assert_ne!(key(&a), key(&stream(mode, 6)));
        }
    }
}
