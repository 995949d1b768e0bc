//! The repository benchmark: one command, four workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced ones.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <sweep|offload|serve|serve-chaos|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints a table of every metric with unit, clock and direction,
//! writes the full report (and, traced, the spans as Chrome trace
//! events) under `.bench_out/`, and ends standard output with one JSON
//! line: `correct`, `attempted`, `failed` and the metrics listed in
//! `BENCHMARK.json`. It exits non-zero when any correctness check fails.

mod offload;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::process::ExitCode;

use report::{HostContext, Metric, Outcome, RunSpec, GATED, PER_LAYER};
use sweep::RunOut;
use trace::Span;

const WORKLOADS: [&str; 4] = ["sweep", "offload", "serve", "serve-chaos"];
/// Runs the four workloads in turn, in one process. Peak RSS is the
/// process's high-water mark, so only the first workload reports it.
const ALL: &str = "all";
const USAGE: &str = "usage: dbpp-benchmark --workload <sweep|offload|serve|serve-chaos|all> \
                     --seed <n> --seconds <s> --trace <0|1>";
const OUT_DIR: &str = ".bench_out";

fn parse_args(args: &[String]) -> Result<RunSpec, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .chain(&[ALL])
                        .find(|&&w| w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} out of range (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(RunSpec {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Layer rows, traced wall time and tracing overhead of a traced run.
/// `traced` and `plain` are the wall times of the traced passes and of
/// the untraced passes interleaved with them.
pub fn push_bench_rows(
    spans: &[Span],
    passes: f64,
    traced: &[f64],
    plain: &[f64],
    out: &mut Outcome,
) {
    let rows = trace::layer_rows(spans);
    let total: u64 = rows.values().sum();
    let wall = trace::root_ns(spans);
    out.check(total == wall, || {
        format!("layer rows sum to {total} ns but the traced wall time is {wall} ns")
    });
    for (name, ns) in rows {
        out.push(Metric::host(name, ns as f64 / 1e9 / passes, "s", "lower"));
    }
    out.push(Metric::host(
        "bench.traced_wall_s",
        wall as f64 / 1e9 / passes,
        "s",
        "lower",
    ));
    out.push(Metric::host("bench.traced_passes", passes, "count", ""));
    match (stats::median(traced), stats::median(plain)) {
        (Some(t), Some(p)) => out.push(Metric::host(
            "bench.trace_overhead_pct",
            100.0 * (t / p - 1.0),
            "%",
            "lower",
        )),
        _ => out.fail("tracing overhead needs traced and untraced passes".into()),
    }
}

/// Simulated device statistics over one pass's runs.
pub fn push_gpsim<'a>(runs: impl Iterator<Item = &'a RunOut>, out: &mut Outcome) {
    let (mut des, mut cmds, mut mem) = (0u64, 0u64, 0u64);
    let mut busy = [0u64; 3];
    let mut stalls = [0u64; 6];
    for r in runs {
        des += r.des_ns;
        cmds += r.seq_cmds;
        mem = mem.max(r.mem_bytes);
        for (b, v) in busy.iter_mut().zip(r.busy_ns) {
            *b += v;
        }
        for (s, v) in stalls.iter_mut().zip(r.stalls) {
            *s += v;
        }
    }
    out.push(Metric::sim("gpsim.cmds", cmds as f64, "count", ""));
    for (name, b) in ["h2d", "d2h", "compute"].iter().zip(busy) {
        let frac = b as f64 / des.max(1) as f64;
        out.push(Metric::sim(
            &format!("gpsim.busy_frac.{name}"),
            frac,
            "ratio",
            "",
        ));
    }
    // Stall buckets in `gpsim::StallCause` order; retry backoff (index
    // 4) stays zero on clean runs and is not reported.
    for (name, i) in [
        ("wait_h2d", 0),
        ("wait_d2h", 1),
        ("wait_compute", 2),
        ("ring_slot", 3),
        ("host_api", 5),
    ] {
        out.push(Metric::sim(
            &format!("gpsim.stall_ms.{name}"),
            stalls[i] as f64 / 1e6,
            "ms",
            "lower",
        ));
    }
    out.push(Metric::sim(
        "gpsim.device_mem_mb",
        mem as f64 / 1e6,
        "MB",
        "lower",
    ));
}

/// Per-layer metrics a workload never produces, by name prefix: the
/// layers (or the parts of one) it does not enter. A traced run reports
/// zero for them; any other per-layer metric it misses is a failure.
fn not_entered(workload: &str) -> &'static [&'static str] {
    match workload {
        "sweep" => &[
            "apps.",
            "verify.",
            "serve.",
            "sched.",
            "admission.",
            "recovery.",
        ],
        "offload" => &[
            "directive.calls",
            "plan.compiles",
            "plan.reuse_ratio",
            "costmodel.predictions",
            "costmodel.picks",
            "serve.",
            "sched.",
            "admission.",
            "recovery.",
        ],
        _ => &[
            "directive.calls",
            "plan.compiles",
            "plan.reuse_ratio",
            "costmodel.predictions",
            "costmodel.picks",
            "exec.naive.",
            "exec.pipelined.",
            "exec.buffer.",
            "gpsim.busy_frac.",
            "gpsim.stall_ms.",
            "gpsim.device_mem_mb",
            "apps.",
        ],
    }
}

/// Run one workload. `rss` adds `peak_rss_mb`, which is only the
/// workload's own in the process's first workload.
fn run(spec: &RunSpec, rss: bool) -> Outcome {
    let (seed, secs, traced) = (spec.seed, spec.seconds, spec.trace);
    let mut out = match spec.workload {
        "sweep" => sweep::run(seed, secs, traced),
        "offload" => offload::run(seed, secs, traced),
        "serve" => serve::run(serve::Mode::Serve, seed, secs, traced),
        _ => serve::run(serve::Mode::Chaos, seed, secs, traced),
    };
    if traced {
        // Every per-layer metric appears on every workload, in the
        // listed order; a layer the workload never enters did zero work.
        let skipped = not_entered(spec.workload);
        out.metrics = PER_LAYER
            .iter()
            .filter_map(
                |&(name, unit, better)| match out.metrics.iter().find(|m| m.name == name) {
                    Some(m) => Some(Metric {
                        unit,
                        better,
                        ..m.clone()
                    }),
                    None if skipped.iter().any(|p| name.starts_with(p)) => {
                        Some(Metric::host(name, 0.0, unit, better))
                    }
                    None => None,
                },
            )
            .collect();
    } else if rss {
        match report::peak_rss_mb() {
            Some(mb) => out.push(Metric::host("peak_rss_mb", mb, "MB", "lower")),
            None => out.fail("peak RSS unavailable: /proc/self/status has no VmHWM".into()),
        }
    }
    out
}

fn write_outputs(spec: &RunSpec, host: &HostContext, out: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-{}",
        spec.workload,
        spec.seed,
        if spec.trace { "trace" } else { "e2e" }
    );
    std::fs::write(
        format!("{stem}.json"),
        report::full_report(spec, host, out).dump(),
    )?;
    if spec.trace {
        let first_pass = trace::first_root(&out.spans);
        std::fs::write(
            format!("{stem}-spans.json"),
            trace::to_chrome(first_pass).dump(),
        )?;
    }
    println!("report: {stem}.json");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = HostContext::probe();
    let names: Vec<&str> = if spec.trace {
        PER_LAYER.iter().map(|&(n, _, _)| n).collect()
    } else {
        GATED.to_vec()
    };
    let workloads = if spec.workload == ALL {
        WORKLOADS.to_vec()
    } else {
        vec![spec.workload]
    };
    // With `all`, the result line prefixes each metric with its workload.
    let mut total = Outcome::default();
    for (i, workload) in workloads.iter().enumerate() {
        let spec = RunSpec {
            workload,
            ..spec.clone()
        };
        let rss = i == 0;
        let mut out = run(&spec, rss);
        for name in names.iter().filter(|&&n| rss || n != "peak_rss_mb") {
            match out.get(name) {
                None => out.fail(format!("metric {name} was not measured")),
                // End-to-end metrics are never zero on a healthy run.
                Some(v) if !spec.trace && (!v.is_finite() || v <= 0.0) => {
                    out.fail(format!("metric {name} reads {v}"))
                }
                Some(_) => {}
            }
        }
        if let Err(e) = write_outputs(&spec, &host, &out) {
            out.fail(format!("writing {OUT_DIR}: {e}"));
        }
        report::print_table(&spec, &host, &out);
        total.attempted += out.attempted;
        total.failed += out.failed;
        for m in out
            .metrics
            .into_iter()
            .filter(|m| names.contains(&m.name.as_str()))
        {
            let name = match workloads.len() {
                1 => m.name.clone(),
                _ => format!("{workload}.{}", m.name),
            };
            total.push(Metric { name, ..m });
        }
    }
    let line_names: Vec<&str> = total.metrics.iter().map(|m| m.name.as_str()).collect();
    println!("{}", report::result_line(&total, &line_names));
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let spec = parse_args(&args(
            "--workload serve-chaos --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(spec.workload, "serve-chaos");
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.seconds, 10.0);
        assert!(spec.trace);
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload sweep --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload sweep --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload sweep --seconds 1")).is_err());
    }

    #[test]
    fn sweep_grid_is_a_pure_function_of_the_seed() {
        let key = |seed| -> Vec<String> {
            sweep::grid(seed)
                .iter()
                .map(|c| format!("{:?}", c.shape))
                .collect()
        };
        assert_eq!(key(1), key(1));
        assert_ne!(key(1), key(2));
        // Every seed keeps the split extents, so host work per cell is
        // the same whatever the seed.
        let iters = |seed| -> Vec<i64> {
            sweep::grid(seed)
                .iter()
                .map(|c| c.shape.iterations())
                .collect()
        };
        assert_eq!(iters(1), iters(2));
    }
}
