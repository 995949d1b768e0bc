//! Metrics, the host context every result carries, and the two output
//! forms: the full report (a file plus a printed table) and the one-line
//! result that ends standard output.

use std::time::Instant;

use gpsim::json::Json;

use crate::stats::{self, Digest};
use crate::trace::Span;

/// Which clock a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time of the host running the simulator.
    Host,
    /// Simulated device time (deterministic for a seed).
    Sim,
}

impl Clock {
    fn name(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "simulated",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, all digits kept.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Clock the value was read from.
    pub clock: Clock,
    /// `"higher"` or `"lower"` is better; `""` for counts with no
    /// direction.
    pub better: &'static str,
}

impl Metric {
    /// A metric on the host clock.
    pub fn host(name: &str, value: f64, unit: &'static str, better: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            clock: Clock::Host,
            better,
        }
    }

    /// A metric on the simulated clock (or a simulated count).
    pub fn sim(name: &str, value: f64, unit: &'static str, better: &'static str) -> Metric {
        Metric {
            clock: Clock::Sim,
            ..Metric::host(name, value, unit, better)
        }
    }
}

/// The end-to-end metrics the result line carries on every workload:
/// the ones that exist and are never zero on all four. The rest are
/// workload-specific (or zero when healthy, like `failed_frac`) and
/// appear in the full report.
pub const GATED: [&str; 4] = ["setup_s", "ops_per_s", "sim_cmds_per_s", "peak_rss_mb"];

/// Every per-layer metric of a traced run: name, unit, and the
/// direction that is better. Workloads that never enter a layer report
/// zero for it.
pub const PER_LAYER: [(&str, &str, &str); 67] = [
    ("directive.calls", "count", "lower"),
    ("directive.busy_s", "s", "lower"),
    ("plan.compiles", "count", "lower"),
    ("plan.busy_s", "s", "lower"),
    ("plan.reuse_ratio", "ratio", "higher"),
    ("costmodel.predictions", "count", "lower"),
    ("costmodel.busy_s", "s", "lower"),
    ("costmodel.picks", "count", "lower"),
    ("exec.naive.runs", "count", "lower"),
    ("exec.naive.busy_s", "s", "lower"),
    ("exec.naive.cmds", "count", "lower"),
    ("exec.naive.ns_per_cmd", "ns", "lower"),
    ("exec.pipelined.runs", "count", "lower"),
    ("exec.pipelined.busy_s", "s", "lower"),
    ("exec.pipelined.cmds", "count", "lower"),
    ("exec.pipelined.ns_per_cmd", "ns", "lower"),
    ("exec.buffer.runs", "count", "lower"),
    ("exec.buffer.busy_s", "s", "lower"),
    ("exec.buffer.cmds", "count", "lower"),
    ("exec.buffer.ns_per_cmd", "ns", "lower"),
    ("gpsim.cmds", "count", "lower"),
    ("gpsim.busy_frac.h2d", "ratio", "higher"),
    ("gpsim.busy_frac.d2h", "ratio", "higher"),
    ("gpsim.busy_frac.compute", "ratio", "higher"),
    ("gpsim.stall_ms.wait_h2d", "ms", "lower"),
    ("gpsim.stall_ms.wait_d2h", "ms", "lower"),
    ("gpsim.stall_ms.wait_compute", "ms", "lower"),
    ("gpsim.stall_ms.ring_slot", "ms", "lower"),
    ("gpsim.stall_ms.host_api", "ms", "lower"),
    ("gpsim.device_mem_mb", "MB", "lower"),
    ("apps.busy_s", "s", "lower"),
    ("apps.functional_s", "s", "lower"),
    ("apps.conv3d.elems_per_s", "1/s", "higher"),
    ("apps.stencil.elems_per_s", "1/s", "higher"),
    ("apps.gemm.elems_per_s", "1/s", "higher"),
    ("apps.qcd.elems_per_s", "1/s", "higher"),
    ("apps.bytes_copied", "bytes", "lower"),
    ("verify.checked", "count", "higher"),
    ("verify.mismatches", "count", "lower"),
    ("verify.busy_s", "s", "lower"),
    ("serve.verified_ok", "count", "higher"),
    ("serve.verified", "count", "higher"),
    ("serve.verify_share", "ratio", "lower"),
    ("serve.busy_s", "s", "lower"),
    ("serve.slices", "count", "lower"),
    ("serve.slices_per_job", "ratio", "lower"),
    ("serve.preempted", "count", "lower"),
    ("serve.host_us_per_slice", "us", "lower"),
    ("serve.peak_live_mb", "MB", "lower"),
    ("fleet.build_s", "s", "lower"),
    ("fleet.calibrate_s", "s", "lower"),
    ("workload.generate_s", "s", "lower"),
    ("sched.wait_p99_ms", "ms", "lower"),
    ("sched.wait_max_ms", "ms", "lower"),
    ("admission.rejected.over_quota", "count", "lower"),
    ("admission.rejected.overload", "count", "lower"),
    ("admission.rejected.infeasible", "count", "lower"),
    ("admission.accept_ratio", "ratio", "higher"),
    ("recovery.recovered", "count", "higher"),
    ("recovery.failed_slices", "count", "lower"),
    ("recovery.devices_lost", "count", "lower"),
    ("recovery.breaker_trips", "count", "lower"),
    ("recovery.degraded_slices", "count", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.traced_passes", "count", "lower"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sweep cells and tuner picks, offload runs,
    /// submitted jobs), over every pass.
    pub attempted: u64,
    /// Operations that failed, plus failed correctness checks.
    pub failed: u64,
    /// Operations refused by design (admission shedding). They count in
    /// `failed_frac`, not in `failed`.
    pub refused: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Digest of every simulated statistic of one pass.
    pub digest: Digest,
    /// Worker threads used by the measured passes.
    pub threads: usize,
    /// Measured passes.
    pub passes: usize,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Record a failed check or operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Check `ok`, recording `what` as a failure when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Add a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Look a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Quantile of a run's host-time samples that the gated metrics report.
const FAST_QUANTILE: f64 = 0.05;

/// The [`FAST_QUANTILE`] of `v`, never below its smallest sample; `None`
/// when `v` is empty.
fn fast(v: &[f64]) -> Option<f64> {
    let min = v.iter().copied().reduce(f64::min)?;
    Some(stats::quantile(v, FAST_QUANTILE).unwrap_or(min).max(min))
}

/// The host-clock end-to-end metrics of an untraced run.
///
/// A pass is `ops` operations that enqueue `cmds` stream commands, the
/// same every pass; `times[k]` holds operation `k`'s host seconds, one
/// sample per measured pass. `ops_per_s` and `sim_cmds_per_s` divide the
/// pass by the sum over operations of each one's [`fast`] time, and
/// `setup_s` is the [`fast`] time of the set-up samples. On a shared
/// 2-vCPU cloud VM, other tenants slowed the simulator by up to ~1.8× in
/// bursts from a fraction of a second to minutes; the fastest twentieth
/// of a run's samples is the part they disturbed least, so it repeats
/// from run to run where the median does not. The median and quartiles
/// of set-up time and of the per-pass rates are reported beside them.
pub fn push_rates(out: &mut Outcome, setup_s: &[f64], ops: f64, cmds: f64, times: &[Vec<f64>]) {
    match fast(setup_s) {
        Some(s) => out.push(Metric::host("setup_s", s, "s", "lower")),
        None => out.fail("no set-up time was measured".into()),
    }
    if let Some(q) = stats::quartiles(setup_s) {
        for (suffix, t) in [("q1", q[0]), ("median", q[1]), ("q3", q[2])] {
            out.push(Metric::host(&format!("setup_s.{suffix}"), t, "s", "lower"));
        }
    }
    let pass_fast: Option<f64> = times.iter().map(|t| fast(t)).sum();
    let Some(pass_fast) = pass_fast.filter(|&f| f > 0.0) else {
        return out.fail("no pass was timed".into());
    };
    let passes = times.iter().map(Vec::len).min().unwrap_or(0);
    let pass_s: Vec<f64> = (0..passes)
        .map(|i| times.iter().map(|t| t[i]).sum())
        .collect();
    for (name, work) in [("ops_per_s", ops), ("sim_cmds_per_s", cmds)] {
        out.push(Metric::host(name, work / pass_fast, "1/s", "higher"));
        if let Some(q) = stats::quartiles(&pass_s) {
            // The slowest quarter of passes bounds the first rate quartile.
            for (suffix, t) in [("q1", q[2]), ("median", q[1]), ("q3", q[0])] {
                out.push(Metric::host(
                    &format!("{name}.{suffix}"),
                    work / t,
                    "1/s",
                    "higher",
                ));
            }
        }
    }
}

/// Run `pass(i)` until `seconds` have elapsed and at least `min` passes
/// ran; returns the number of passes.
pub fn repeat_for(seconds: f64, min: usize, mut pass: impl FnMut(usize)) -> usize {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min || t0.elapsed().as_secs_f64() < seconds {
        pass(n);
        n += 1;
    }
    n
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Host facts a result is read against: a rate from a 2-core box and
/// one from a 64-core box compare only per core.
#[derive(Debug, Clone)]
pub struct HostContext {
    /// `available_parallelism`.
    pub nproc: usize,
    /// Commit of the measured tree, or `"unknown"` outside a git
    /// checkout.
    pub commit: String,
    /// `"release"` or `"debug"`.
    pub profile: &'static str,
}

impl HostContext {
    /// Probe the running host.
    pub fn probe() -> HostContext {
        HostContext {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: commit().unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// `HEAD`'s commit, read from `.git` in the working directory (the
/// benchmark runs from the repository root).
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Inputs of a run, echoed in every result.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

fn num(v: f64) -> Json {
    Json::Num(v)
}

fn metric_json(m: &Metric) -> Json {
    Json::Obj(vec![
        ("value".into(), num(m.value)),
        ("unit".into(), Json::Str(m.unit.into())),
        ("clock".into(), Json::Str(m.clock.name().into())),
        ("better".into(), Json::Str(m.better.into())),
    ])
}

/// The full report: every metric with unit, clock and direction, the
/// failure ledger, the simulated digest and the host context.
pub fn full_report(spec: &RunSpec, host: &HostContext, out: &Outcome) -> Json {
    let frac = stats::failed_frac(out.failed + out.refused, out.attempted);
    let sim_rate = out.get("sim_cmds_per_s");
    Json::Obj(vec![
        ("workload".into(), Json::Str(spec.workload.into())),
        ("seed".into(), num(spec.seed as f64)),
        ("seconds".into(), num(spec.seconds)),
        ("trace".into(), Json::Bool(spec.trace)),
        (
            "host".into(),
            Json::Obj(vec![
                ("nproc".into(), num(host.nproc as f64)),
                ("threads".into(), num(out.threads as f64)),
                ("commit".into(), Json::Str(host.commit.clone())),
                ("profile".into(), Json::Str(host.profile.into())),
                (
                    "sim_cmds_per_s_per_thread".into(),
                    sim_rate.map_or(Json::Null, |r| num(r / out.threads.max(1) as f64)),
                ),
            ]),
        ),
        ("passes".into(), num(out.passes as f64)),
        ("digest".into(), Json::Str(out.digest.hex())),
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), num(out.attempted as f64)),
        ("failed".into(), num(out.failed as f64)),
        ("refused".into(), num(out.refused as f64)),
        (
            "failed_frac".into(),
            Json::Obj(vec![
                ("value".into(), frac.map_or(Json::Null, num)),
                ("base".into(), num(out.attempted as f64)),
                ("unit".into(), Json::Str("ratio".into())),
            ]),
        ),
        (
            "failures".into(),
            Json::Arr(out.failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        (
            "metrics".into(),
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|m| (m.name.clone(), metric_json(m)))
                    .collect(),
            ),
        ),
    ])
}

/// The one-line result: `correct`, `attempted`, `failed`, and the
/// metrics named in `names` as `{value, unit}`. Serialized through
/// `gpsim::json` and joined onto one line.
pub fn result_line(out: &Outcome, names: &[&str]) -> String {
    let metrics = names
        .iter()
        .filter_map(|&n| out.metrics.iter().find(|m| m.name == n))
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), num(out.attempted as f64)),
        ("failed".into(), num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    // `dump` indents with newlines between tokens only (strings escape
    // theirs), so trimming each line yields the same document.
    doc.dump().lines().map(str::trim_start).collect()
}

/// Print the metric table: name, value, unit, clock, direction.
pub fn print_table(spec: &RunSpec, host: &HostContext, out: &Outcome) {
    println!(
        "workload {}  seed {}  passes {}  threads {} of nproc {}  commit {}  profile {}  digest {}",
        spec.workload,
        spec.seed,
        out.passes,
        out.threads,
        host.nproc,
        host.commit,
        host.profile,
        out.digest.hex()
    );
    if let Some(rate) = out.get("sim_cmds_per_s") {
        println!(
            "  sim_cmds_per_s per worker thread: {:.0}",
            rate / out.threads.max(1) as f64
        );
    }
    for m in &out.metrics {
        println!(
            "  {:<34} {:>18.6} {:<7} {:<10} {}",
            m.name,
            m.value,
            m.unit,
            m.clock.name(),
            m.better
        );
    }
    let frac = stats::failed_frac(out.failed + out.refused, out.attempted);
    println!(
        "  {:<34} {:>18.6} ratio   -          lower  (failed {} + refused {} of {} attempted)",
        "failed_frac",
        frac.unwrap_or(f64::NAN),
        out.failed,
        out.refused,
        out.attempted
    );
    for f in out.failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
    if out.failures.len() > 20 {
        println!(
            "  ... {} more failures in the report file",
            out.failures.len() - 20
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut out = Outcome {
            attempted: 40,
            threads: 2,
            passes: 4,
            ..Outcome::default()
        };
        out.push(Metric::host("setup_s", 0.012_345_678_9, "s", "lower"));
        out.push(Metric::host("ops_per_s", 1234.5, "1/s", "higher"));
        out.push(Metric::sim("sim_speedup", 1.5, "x", "higher"));
        out
    }

    #[test]
    fn result_line_round_trips_and_keeps_digits() {
        let out = outcome();
        let line = result_line(&out, &["setup_s", "ops_per_s"]);
        assert!(!line.contains('\n'));
        let doc = gpsim::json::parse(&line).expect("result line parses");
        let keys: Vec<&str> = match &doc {
            Json::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            setup.get("value").and_then(Json::as_f64),
            Some(0.012_345_678_9)
        );
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(doc.get("metrics").unwrap().get("sim_speedup").is_none());
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    }

    #[test]
    fn full_report_round_trips_with_failure_base() {
        let mut out = outcome();
        out.refused = 2;
        out.fail("cell 3: diverged".into());
        let spec = RunSpec {
            workload: "sweep",
            seed: 7,
            seconds: 1.0,
            trace: false,
        };
        let host = HostContext {
            nproc: 2,
            commit: "abc".into(),
            profile: "release",
        };
        let doc = full_report(&spec, &host, &out);
        let back = gpsim::json::parse(&doc.dump()).expect("report parses");
        assert_eq!(back, doc);
        let frac = back.get("failed_frac").unwrap();
        assert_eq!(frac.get("value").and_then(Json::as_f64), Some(3.0 / 40.0));
        assert_eq!(frac.get("base").and_then(Json::as_f64), Some(40.0));
        assert_eq!(back.get("correct"), Some(&Json::Bool(false)));
        let m = back.get("metrics").unwrap().get("sim_speedup").unwrap();
        assert_eq!(m.get("clock").and_then(Json::as_str), Some("simulated"));
    }

    #[test]
    fn rates_divide_a_pass_by_each_operations_fast_quantile() {
        // statistics.quantiles(range(1, 21), n=20)[0] == 1.05
        let a: Vec<f64> = (1..=20).map(f64::from).collect();
        let b: Vec<f64> = a.iter().rev().map(|t| t * 2.0).collect();
        let mut out = Outcome::default();
        push_rates(&mut out, &[0.3, 0.1, 0.2], 6.0, 60.0, &[a, b]);
        // Three samples put the 5th percentile below the smallest.
        assert_eq!(out.get("setup_s"), Some(0.1));
        assert_eq!(out.get("setup_s.median"), Some(0.2));
        let fast = 1.05 + 2.1;
        assert!((out.get("ops_per_s").unwrap() - 6.0 / fast).abs() < 1e-12);
        assert!((out.get("sim_cmds_per_s").unwrap() - 60.0 / fast).abs() < 1e-12);
        // Pass i takes (i + 1) + 2·(20 − i): 41 down to 22, median 31.5.
        assert!((out.get("ops_per_s.median").unwrap() - 6.0 / 31.5).abs() < 1e-12);
        assert!(out.get("ops_per_s.q1").unwrap() < out.get("ops_per_s.q3").unwrap());
        assert!(out.failures.is_empty());

        let mut out = Outcome::default();
        push_rates(&mut out, &[], 6.0, 60.0, &[Vec::new()]);
        assert_eq!(out.failed, 2, "no set-up and no pass timed");
        assert_eq!(out.get("ops_per_s"), None);
    }

    #[test]
    fn per_layer_and_gated_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = gpsim::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let per_layer: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        let gated: Vec<String> = listed("end_to_end")
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(gated, GATED);
    }
}
