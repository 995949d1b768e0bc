//! `offload`: out-of-core runs in functional mode, single-threaded.
//!
//! The four apps run at working sets above the host's last-level cache
//! under all three execution models, plus Pipelined-buffer with a
//! `pipeline_mem_limit` that forces the plan to shrink. Kernel bodies
//! and the real byte copies in `gpsim::mem` dominate, with few device
//! commands: this is the control for `sweep`. A DES change predicts no
//! change here, and a kernel-body change predicts none on `sweep`.
//!
//! The seed chooses every input value; shapes are fixed, so the host
//! work per pass is the same for every seed. Every output is compared
//! with the app's CPU reference, which uses the same arithmetic order,
//! so the comparison is exact (the apps' own tests assert the same).

use std::time::Instant;

use dbpp_core::serve::{GemmConfig, JobInstance, JobShape};
use dbpp_core::{footprint, min_footprint, run_model, ExecModel, Region, RunOptions};
use gpsim::{DeviceProfile, ExecMode, Gpu, SimTime};
use pipeline_apps::util::read_host;
use pipeline_apps::{conv3d, matmul, qcd, stencil, Conv3dConfig, QcdConfig, StencilConfig};

use crate::report::{self, repeat_for, Metric, Outcome};
use crate::stats::{self, Digest, Rng};
use crate::sweep::RunOut;
use crate::trace::{Span, Tracer};

/// The runs of one app per pass: model, span, and whether the region
/// carries the shrinking memory limit.
const VARIANTS: [(ExecModel, &str, bool); 4] = [
    (ExecModel::Naive, "exec.naive", false),
    (ExecModel::Pipelined, "exec.pipelined", false),
    (ExecModel::PipelinedBuffer, "exec.buffer", false),
    (ExecModel::PipelinedBuffer, "exec.buffer", true),
];

/// Fixed shapes. Each streaming app maps ~130 MB (input plus output),
/// above a 105 MiB last-level cache. GEMM is compute-bound: at a size
/// whose O(n³) body fits the run, its working set stays small.
pub fn shapes() -> [(&'static str, JobShape); 4] {
    [
        (
            "conv3d",
            JobShape::Conv3d(Conv3dConfig {
                ni: 512,
                nj: 512,
                nk: 64,
                chunk: 4,
                streams: 3,
            }),
        ),
        (
            "stencil",
            JobShape::Stencil(StencilConfig {
                nx: 512,
                ny: 512,
                nz: 64,
                chunk: 4,
                streams: 3,
                ..StencilConfig::parboil_default()
            }),
        ),
        (
            "gemm",
            JobShape::Gemm(GemmConfig {
                n: 320,
                bs: 32,
                chunk: 2,
                streams: 3,
            }),
        ),
        (
            "qcd",
            JobShape::Qcd(QcdConfig {
                n: 16,
                nt: 40,
                chunk: 4,
                streams: 3,
            }),
        ),
    ]
}

/// One app, bound and filled, with its expected output.
struct Prepared {
    name: &'static str,
    shape: JobShape,
    gpu: Gpu,
    inst: JobInstance,
    limited: Region,
    reference: Vec<f32>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The seeded input values of app `salt`: a pure function of the seed.
pub fn input_values(seed: u64, salt: u64, len: usize) -> Vec<f32> {
    let mut rng = Rng::new(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..len).map(|_| rng.unit()).collect()
}

fn reference(shape: &JobShape, inputs: &[Vec<f32>]) -> Vec<f32> {
    match shape {
        JobShape::Conv3d(c) => c.cpu_reference(&inputs[0]),
        JobShape::Stencil(c) => c.cpu_reference(&inputs[0]),
        JobShape::Qcd(c) => c.cpu_reference(&inputs[0], &inputs[1], &inputs[2]),
        JobShape::Gemm(g) => {
            let mut c = vec![0.0; g.n * g.n];
            matmul::gemm_scalar(&mut c, &inputs[0], &inputs[1], g.n);
            c
        }
    }
}

fn prepare(salt: u64, name: &'static str, shape: JobShape, seed: u64) -> Result<Prepared, String> {
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).map_err(err)?;
    let inst = shape.setup(&mut gpu, salt).map_err(err)?;
    let mut inputs = Vec::new();
    for (i, &b) in inst.buffers.iter().enumerate() {
        if b != inst.output {
            let vals = input_values(seed, salt * 8 + i as u64, gpu.host_len(b).map_err(err)?);
            gpu.host_write(b, 0, &vals).map_err(err)?;
            inputs.push(vals);
        }
    }
    let reference = reference(&shape, &inputs);
    let mut limited = inst.region.clone();
    let (chunk, streams) = shape.schedule();
    // Halfway between the smallest ring footprint and the schedule's
    // own: the plan must shrink to fit, far below the array sizes.
    limited.spec.mem_limit =
        Some((min_footprint(&limited.spec) + footprint(&limited.spec, chunk, streams)) / 2);
    Ok(Prepared {
        name,
        shape,
        gpu,
        inst,
        limited,
        reference,
    })
}

fn setup(seed: u64) -> Result<Vec<Prepared>, String> {
    shapes()
        .into_iter()
        .enumerate()
        .map(|(i, (name, shape))| prepare(i as u64, name, shape, seed))
        .collect()
}

/// One run's outcome.
struct Op {
    host_s: f64,
    out: RunOut,
    exact: bool,
}

fn run_one(p: &mut Prepared, v: usize, tr: &mut Tracer) -> Result<Op, String> {
    let (model, span, limited) = VARIANTS[v];
    p.gpu.host_fill(p.inst.output, |_| 0.0).map_err(err)?;
    let region = if limited { &p.limited } else { &p.inst.region };
    let seq0 = p.gpu.next_seq();
    let t = Instant::now();
    let rep = tr
        .span(span, |_| {
            run_model(
                &mut p.gpu,
                region,
                &*p.inst.builder,
                model,
                &RunOptions::default(),
            )
        })
        .map_err(err)?;
    let host_s = t.elapsed().as_secs_f64();
    let out = RunOut::new(&rep, SimTime::ZERO, p.gpu.next_seq() - seq0);
    let exact = tr.span("verify", |_| {
        read_host(&p.gpu, p.inst.output).map(|got| {
            got.len() == p.reference.len()
                && got
                    .iter()
                    .zip(&p.reference)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
    });
    Ok(Op {
        host_s,
        out,
        exact: exact.map_err(err)?,
    })
}

/// One pass: every app under every variant, in a fixed order.
struct Pass {
    ops: Vec<Result<Op, String>>,
    spans: Vec<Span>,
}

fn pass(apps: &mut [Prepared], traced: bool, epoch: Instant) -> Pass {
    let mut tr = Tracer::new(traced, epoch);
    let ops = tr.span("bench.pass", |tr| {
        let mut ops = Vec::new();
        for (a, p) in apps.iter_mut().enumerate() {
            for v in 0..VARIANTS.len() {
                tr.set_op((a * VARIANTS.len() + v) as u64);
                ops.push(tr.span("bench.run", |tr| run_one(p, v, tr)));
            }
        }
        ops
    });
    Pass {
        ops,
        spans: tr.into_spans(),
    }
}

fn digest(p: &Pass) -> Digest {
    let mut d = Digest::default();
    for op in &p.ops {
        match op {
            Ok(o) => {
                o.out.digest_into(&mut d);
                d.add(u64::from(o.exact));
            }
            Err(_) => d.add(u64::MAX),
        }
    }
    d
}

/// Passes between two set-up samples. A set-up takes about as long as
/// a pass, so re-running it every pass would halve the passes; spread
/// over the run, the samples see the run's load as the passes do.
const SETUP_EVERY: usize = 4;

/// Replace `apps` with a fresh set-up; returns its host seconds.
fn reset(apps: &mut Vec<Prepared>, seed: u64) -> Result<f64, String> {
    // Drop the previous inputs first so the peak holds one set.
    apps.clear();
    let t = Instant::now();
    *apps = setup(seed)?;
    Ok(t.elapsed().as_secs_f64())
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let mut apps = Vec::new();
    let mut setup_s = match reset(&mut apps, seed) {
        Ok(s) => vec![s],
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("setup: {e}"));
            return out;
        }
    };

    let epoch = Instant::now();
    let mut reference: Option<Digest> = None;
    // Host seconds of each (app, variant) run, one sample per untraced
    // pass.
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); apps.len() * VARIANTS.len()];
    let mut traced_walls = Vec::new();
    let mut plain_walls = Vec::new();
    let mut spans = Vec::new();
    let mut first: Option<Pass> = None;
    let passes = repeat_for(seconds, if traced { 4 } else { 3 }, |i| {
        let with_trace = traced && i % 2 == 1;
        if i > 0 && i % SETUP_EVERY == 0 {
            match reset(&mut apps, seed) {
                Ok(s) => setup_s.push(s),
                Err(e) => out.fail(format!("pass {i}: setup: {e}")),
            }
        }
        let t = Instant::now();
        let mut p = pass(&mut apps, with_trace, epoch);
        let wall = t.elapsed().as_secs_f64();
        out.attempted += p.ops.len() as u64;
        for (k, op) in p.ops.iter().enumerate() {
            let (name, v) = (apps[k / VARIANTS.len()].name, k % VARIANTS.len());
            match op {
                Ok(o) => out.check(o.exact, || {
                    format!("pass {i}: {name} variant {v} differs from its CPU reference")
                }),
                Err(e) => out.fail(format!("pass {i}: {name} variant {v}: {e}")),
            }
        }
        let d = digest(&p);
        match reference {
            None => reference = Some(d),
            Some(r) => out.check(r == d, || format!("pass {i}: simulated digest changed")),
        }
        if with_trace {
            traced_walls.push(wall);
            crate::trace::append(&mut spans, std::mem::take(&mut p.spans), None);
        } else {
            plain_walls.push(wall);
            for (t, op) in times.iter_mut().zip(&p.ops) {
                if let Ok(o) = op {
                    t.push(o.host_s);
                }
            }
        }
        if first.is_none() {
            first = Some(p);
        }
    });
    out.passes = passes;
    out.digest = reference.unwrap_or_default();
    let first = first.expect("at least one pass");
    let runs: Vec<RunOut> = first.ops.iter().flatten().map(|o| o.out).collect();
    let ops_per_pass = (apps.len() * VARIANTS.len()) as f64;

    if !traced {
        let cmds = runs.iter().map(|r| r.seq_cmds).sum::<u64>() as f64;
        report::push_rates(&mut out, &setup_s, ops_per_pass, cmds, &times);
        mem_saving(&apps, &runs, &mut out);
        return out;
    }

    let n = traced_walls.len().max(1) as f64;
    crate::push_bench_rows(&spans, n, &traced_walls, &plain_walls, &mut out);
    crate::push_gpsim(runs.iter(), &mut out);
    for (label, v) in [("naive", 0), ("pipelined", 1), ("buffer", 2)] {
        let sel: Vec<&RunOut> = runs
            .iter()
            .enumerate()
            .filter(|(k, _)| VARIANTS[k % VARIANTS.len()].1.ends_with(label))
            .map(|(_, r)| r)
            .collect();
        let cmds: u64 = sel.iter().map(|r| r.seq_cmds).sum();
        let busy = crate::trace::self_ns_of(&spans, VARIANTS[v].1) as f64 / n;
        out.push(Metric::host(
            &format!("exec.{label}.runs"),
            sel.len() as f64,
            "count",
            "",
        ));
        out.push(Metric::host(
            &format!("exec.{label}.cmds"),
            cmds as f64,
            "count",
            "",
        ));
        out.push(Metric::host(
            &format!("exec.{label}.ns_per_cmd"),
            busy / cmds.max(1) as f64,
            "ns",
            "lower",
        ));
    }
    let bytes: u64 = runs.iter().map(|r| r.bytes).sum();
    out.push(Metric::sim("apps.bytes_copied", bytes as f64, "bytes", ""));
    out.push(Metric::host("verify.checked", ops_per_pass, "count", ""));
    let mismatches = first.ops.iter().flatten().filter(|o| !o.exact).count();
    out.push(Metric::host(
        "verify.mismatches",
        mismatches as f64,
        "count",
        "lower",
    ));
    let functional: f64 = times.iter().filter_map(|t| stats::median(t)).sum();
    match timing_twin_s(&apps) {
        Ok(twin) => out.push(Metric::host(
            "apps.functional_s",
            functional - twin,
            "s",
            "lower",
        )),
        Err(e) => out.fail(format!("timing-mode twin: {e}")),
    }
    out.attempted += ops_per_pass as u64;
    body_rates(&apps, &mut out);
    out.spans = spans;
    out
}

/// Device memory of Pipelined-buffer against Naive per app (Fig. 6/10),
/// and their mean.
fn mem_saving(apps: &[Prepared], runs: &[RunOut], out: &mut Outcome) {
    let mut savings = Vec::new();
    for (a, p) in apps.iter().enumerate() {
        let naive = runs[a * VARIANTS.len()].mem_bytes as f64;
        let buffer = runs[a * VARIANTS.len() + 2].mem_bytes as f64;
        let pct = 100.0 * (1.0 - buffer / naive);
        out.push(Metric::sim(
            &format!("sim_mem_saving_pct.{}", p.name),
            pct,
            "%",
            "higher",
        ));
        savings.push(pct);
    }
    let mean = savings.iter().sum::<f64>() / savings.len().max(1) as f64;
    out.push(Metric::sim("sim_mem_saving_pct", mean, "%", "higher"));
}

/// Host time of one pass's runs replayed in timing mode (no kernel
/// bodies, no byte copies): subtracted from the functional pass, it
/// leaves the time the functional plane costs.
fn timing_twin_s(apps: &[Prepared]) -> Result<f64, String> {
    let mut total = 0.0;
    for (salt, p) in apps.iter().enumerate() {
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).map_err(err)?;
        let inst = p.shape.setup(&mut gpu, salt as u64).map_err(err)?;
        let mut limited = inst.region.clone();
        limited.spec.mem_limit = p.limited.spec.mem_limit;
        for (model, _, lim) in VARIANTS {
            let region = if lim { &limited } else { &inst.region };
            let t = Instant::now();
            run_model(
                &mut gpu,
                region,
                &*inst.builder,
                model,
                &RunOptions::default(),
            )
            .map_err(err)?;
            total += t.elapsed().as_secs_f64();
        }
    }
    Ok(total)
}

/// Output elements per second of each app's kernel body called directly
/// on host slices of the prepared inputs.
fn body_rates(apps: &[Prepared], out: &mut Outcome) {
    for p in apps {
        let inputs: Vec<Vec<f32>> = p
            .inst
            .buffers
            .iter()
            .filter(|&&b| b != p.inst.output)
            .map(|&b| read_host(&p.gpu, b).unwrap_or_default())
            .collect();
        let t = Instant::now();
        let elems = body(&p.shape, &inputs);
        let rate = elems as f64 / t.elapsed().as_secs_f64();
        out.push(Metric::host(
            &format!("apps.{}.elems_per_s", p.name),
            rate,
            "1/s",
            "higher",
        ));
    }
}

/// Run the shape's body over its whole input once; returns output
/// elements produced.
fn body(shape: &JobShape, inputs: &[Vec<f32>]) -> usize {
    match shape {
        JobShape::Stencil(c) => {
            let plane = c.plane();
            let mut o = vec![0.0; plane];
            for k in 1..c.nz - 1 {
                let a = &inputs[0];
                stencil::stencil_plane(
                    &mut o,
                    &a[(k - 1) * plane..k * plane],
                    &a[k * plane..(k + 1) * plane],
                    &a[(k + 1) * plane..(k + 2) * plane],
                    c.nx,
                    c.ny,
                    c.c0,
                    c.c1,
                );
                std::hint::black_box(&o);
            }
            plane * (c.nz - 2)
        }
        JobShape::Conv3d(c) => {
            let plane = c.plane();
            let mut o = vec![0.0; plane];
            for k in 1..c.nk - 1 {
                let a = &inputs[0];
                conv3d::conv3d_plane(
                    &mut o,
                    &a[(k - 1) * plane..k * plane],
                    &a[k * plane..(k + 1) * plane],
                    &a[(k + 1) * plane..(k + 2) * plane],
                    c.ni,
                    c.nj,
                );
                std::hint::black_box(&o);
            }
            plane * (c.nk - 2)
        }
        JobShape::Qcd(c) => {
            let (ps, us) = (c.psi_slice(), c.u_slice());
            let mut o = vec![0.0; ps];
            let (psi, u, f) = (&inputs[0], &inputs[1], &inputs[2]);
            for t in 1..c.nt - 1 {
                let s = qcd::HopSlices {
                    psi_m: &psi[(t - 1) * ps..t * ps],
                    psi_0: &psi[t * ps..(t + 1) * ps],
                    psi_p: &psi[(t + 1) * ps..(t + 2) * ps],
                    u_m: &u[(t - 1) * us..t * us],
                    u_0: &u[t * us..(t + 1) * us],
                    f_m: &f[(t - 1) * us..t * us],
                    f_0: &f[t * us..(t + 1) * us],
                };
                qcd::hopping_sweep(c.n, &s, &mut o);
                std::hint::black_box(&o);
            }
            ps * (c.nt - 2)
        }
        JobShape::Gemm(g) => {
            // The blocked body `pipeline_apps::matmul` runs per chunk,
            // here as one rank-n update over a zeroed C.
            let mut c = vec![0.0; g.n * g.n];
            matmul::gemm_rank_update(&mut c, g.n, &inputs[0], g.n, &inputs[1], g.n);
            std::hint::black_box(&c);
            g.n * g.n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(input_values(3, 1, 64), input_values(3, 1, 64));
        assert_ne!(input_values(3, 1, 64), input_values(4, 1, 64));
        assert_ne!(input_values(3, 1, 64), input_values(3, 2, 64));
    }

    #[test]
    fn small_offload_matches_references() {
        // Tiny shapes through the same path the workload takes.
        let small = [
            JobShape::Stencil(StencilConfig::test_small()),
            JobShape::Conv3d(Conv3dConfig::test_small()),
            JobShape::Qcd(QcdConfig::test_small()),
            JobShape::Gemm(GemmConfig {
                n: 16,
                bs: 4,
                chunk: 2,
                streams: 2,
            }),
        ];
        let mut apps: Vec<Prepared> = small
            .into_iter()
            .enumerate()
            .map(|(i, s)| prepare(i as u64, "small", s, 11).expect("prepare"))
            .collect();
        let p = pass(&mut apps, true, Instant::now());
        for op in &p.ops {
            assert!(op.as_ref().expect("run").exact);
        }
        assert_eq!(digest(&p), digest(&pass(&mut apps, false, Instant::now())));
    }
}
