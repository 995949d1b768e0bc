//! Sweep-engine throughput: how fast the harness regenerates a
//! paper-scale figure grid, serial vs parallel.
//!
//! This is the one module that measures *host* wall-clock rather than
//! simulated time: the workload is a fixed Figure-4/5-family sweep (a
//! chunk-size × stream-count grid of Lattice QCD pipelined-buffer runs,
//! every cell a full DES simulation on its own context), executed once
//! on a single worker and once on the full
//! [`sweep_threads`](pipeline_rt::sweep_threads) pool. The `figures
//! perf` subcommand writes the result as `BENCH_sim.json`.
//!
//! Because sweep results are scattered by trial index, both passes must
//! produce identical simulations — the harness asserts the per-cell
//! command counts match before reporting.

use std::sync::Arc;
use std::time::Instant;

use pipeline_apps::{conv3d, matmul, qcd, stencil, QcdConfig};
use pipeline_rt::{
    compile_plan, run_model, sweep_map_threads, sweep_threads, BufferOptions, CompiledPlan,
    ExecModel, RunOptions, Stage, StageMetrics,
};

use crate::gpu_k40m;

/// The fixed grid: Figure 4's chunk sizes × stream counts.
pub fn paper_grid() -> Vec<(usize, usize)> {
    [1usize, 2, 4, 8]
        .into_iter()
        .flat_map(|c| [1usize, 2, 3, 4, 5].into_iter().map(move |s| (c, s)))
        .collect()
}

/// Serial-vs-parallel measurement of one fixed sweep.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Lattice extent of the QCD workload.
    pub n: usize,
    /// Number of grid cells (independent simulations).
    pub trials: usize,
    /// Worker threads used by the parallel pass.
    pub threads: usize,
    /// Total device commands simulated in one pass over the grid.
    pub commands: u64,
    /// Physical cores of the measuring host (`available_parallelism`).
    /// In a 1-core CI container the parallel pass degenerates to serial
    /// and `speedup` reads ≈1; compare `commands_per_sec` per core
    /// across hosts instead.
    pub host_cores: usize,
    /// Wall-clock of the serial pass, milliseconds.
    pub serial_ms: f64,
    /// Wall-clock of the parallel pass with compiled-plan caching (the
    /// headline number), milliseconds.
    pub parallel_ms: f64,
    /// Wall-clock of the same parallel pass planning every
    /// pipelined-buffer run from scratch, milliseconds.
    pub uncached_parallel_ms: f64,
    /// Per-chunk latency histograms of the pipelined model, merged
    /// across every grid cell of the sweep.
    pub pipelined_latency: StageMetrics,
    /// Per-chunk latency histograms of the pipelined-buffer model,
    /// merged across every grid cell.
    pub buffer_latency: StageMetrics,
}

impl PerfReport {
    /// Parallel speedup over the serial pass.
    pub fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms.max(1e-9)
    }

    /// Simulated device commands retired per wall-clock second in the
    /// parallel pass.
    pub fn commands_per_sec(&self) -> f64 {
        self.commands as f64 / (self.parallel_ms.max(1e-9) / 1e3)
    }

    /// Throughput gain of replaying cached compiled plans over
    /// re-planning every pipelined-buffer run (same thread count).
    pub fn plan_cache_speedup(&self) -> f64 {
        self.uncached_parallel_ms / self.parallel_ms.max(1e-9)
    }

    /// The `BENCH_sim.json` payload.
    pub fn to_json(&self) -> String {
        let mut latency_rows = String::new();
        for (model, m) in [
            ("pipelined", &self.pipelined_latency),
            ("pipelined_buffer", &self.buffer_latency),
        ] {
            for stage in Stage::ALL {
                let h = m.stage(stage);
                if !latency_rows.is_empty() {
                    latency_rows.push(',');
                }
                latency_rows.push_str(&format!(
                    "\n    {{ \"model\": \"{model}\", \"stage\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"max_ns\": {} }}",
                    stage.name(),
                    h.count(),
                    h.p50_ns(),
                    h.p95_ns(),
                    h.max_ns(),
                ));
            }
        }
        format!(
            "{{\n  \"workload\": \"qcd n={} naive+pipelined+buffer per cell, {} chunk x stream cells (fig5-style sweep)\",\n  \"trials\": {},\n  \"threads\": {},\n  \"host_cores\": {},\n  \"host_note\": \"wall-clock from a {}-core host; on a 1-core CI container the parallel pass degenerates to serial and speedup reads ~1 — compare commands_per_sec per core across hosts\",\n  \"timeline_in_timed_passes\": false,\n  \"commands\": {},\n  \"serial_ms\": {:.3},\n  \"parallel_ms\": {:.3},\n  \"uncached_parallel_ms\": {:.3},\n  \"plan_cache_speedup\": {:.3},\n  \"speedup\": {:.3},\n  \"commands_per_sec\": {:.1},\n  \"chunk_latency\": [{latency_rows}\n  ]\n}}\n",
            self.n,
            self.trials,
            self.trials,
            self.threads,
            self.host_cores,
            self.host_cores,
            self.commands,
            self.serial_ms,
            self.parallel_ms,
            self.uncached_parallel_ms,
            self.plan_cache_speedup(),
            self.speedup(),
            self.commands_per_sec(),
        )
    }
}

/// Run one grid cell on a fresh context — all three execution models, as
/// a Figure-5 column does — and return the total device-command count
/// plus the pipelined/buffered per-chunk stage metrics (deterministic,
/// so the serial≡parallel assert covers them too).
///
/// Timed passes run with the timeline disabled (`timeline = false`): the
/// DES produces bit-identical counters and reports either way, and the
/// measurement should reflect simulation speed, not trace building. The
/// per-chunk stage histograms come from one separate untimed
/// instrumented pass with the timeline on.
fn run_cell(
    n: usize,
    chunk: usize,
    streams: usize,
    timeline: bool,
    compiled: Option<&Arc<CompiledPlan>>,
) -> (u64, StageMetrics, StageMetrics) {
    let mut gpu = gpu_k40m();
    gpu.set_timeline_enabled(timeline);
    let mut cfg = QcdConfig::paper_size(n);
    cfg.chunk = chunk;
    cfg.streams = streams;
    let inst = cfg.setup(&mut gpu).expect("qcd setup");
    let builder = cfg.builder();
    let naive = run_model(&mut gpu, &inst.region, &builder, ExecModel::Naive, &RunOptions::default())
        .expect("naive run");
    let pipe = run_model(&mut gpu, &inst.region, &builder, ExecModel::Pipelined, &RunOptions::default())
        .expect("pipelined run");
    let buf_opts = match compiled {
        Some(cp) => RunOptions::default().with_compiled(cp.clone()),
        None => RunOptions::default(),
    };
    let buf = run_model(&mut gpu, &inst.region, &builder, ExecModel::PipelinedBuffer, &buf_opts)
        .expect("buffer run");
    if compiled.is_some() {
        assert!(buf.plan_reused, "cached plan was recompiled");
    }
    (
        naive.commands + pipe.commands + buf.commands,
        pipe.stage_metrics,
        buf.stage_metrics,
    )
}

/// Compile the pipelined-buffer plan of one grid cell once, on a
/// throwaway context. The plan is keyed on the region spec and device
/// profile — not on the context — so every repetition of the cell can
/// replay it.
fn compile_cell_plan(n: usize, chunk: usize, streams: usize) -> Arc<CompiledPlan> {
    let mut gpu = gpu_k40m();
    let mut cfg = QcdConfig::paper_size(n);
    cfg.chunk = chunk;
    cfg.streams = streams;
    let inst = cfg.setup(&mut gpu).expect("qcd setup");
    let builder = cfg.builder();
    Arc::new(
        compile_plan(&mut gpu, &inst.region, &builder, &BufferOptions::default())
            .expect("compile cell plan"),
    )
}

/// Grid repetitions in one measured pass: the optimized DES retires a
/// single 20-cell grid in a couple of milliseconds, so one pass repeats
/// it to keep thread-spawn overhead far below the measured work.
pub const REPS: usize = 25;

/// Measure the fixed sweep at lattice extent `n` with an explicit
/// parallel worker count.
pub fn run_with_threads(n: usize, threads: usize) -> PerfReport {
    let grid = paper_grid();
    let trials = grid.len() * REPS;
    let cell = |i: usize| {
        let (chunk, streams) = grid[i % grid.len()];
        run_cell(n, chunk, streams, false, None)
    };

    let t0 = Instant::now();
    let serial = sweep_map_threads(1, trials, cell);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let uncached = sweep_map_threads(threads, trials, cell);
    let uncached_parallel_ms = t1.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        serial, uncached,
        "parallel sweep diverged from the serial reference"
    );

    // Cached pass: each grid cell's pipelined-buffer plan is compiled
    // once up front (untimed, as a sweep over the region would do) and
    // every repetition replays it — planning drops out of the loop.
    let plans: Vec<Arc<CompiledPlan>> = grid
        .iter()
        .map(|&(chunk, streams)| compile_cell_plan(n, chunk, streams))
        .collect();
    let cached_cell = |i: usize| {
        let (chunk, streams) = grid[i % grid.len()];
        run_cell(n, chunk, streams, false, Some(&plans[i % grid.len()]))
    };
    let t2 = Instant::now();
    let parallel = sweep_map_threads(threads, trials, cached_cell);
    let parallel_ms = t2.elapsed().as_secs_f64() * 1e3;

    assert_eq!(
        uncached, parallel,
        "plan-cached sweep diverged from the planning-from-scratch reference"
    );

    // Untimed instrumented pass: one grid repetition with the timeline on
    // supplies the per-chunk latency histograms. Command counts must match
    // the timed cells — the timeline toggle is observability-only.
    let mut pipelined_latency = StageMetrics::default();
    let mut buffer_latency = StageMetrics::default();
    for (i, &(chunk, streams)) in grid.iter().enumerate() {
        let (commands, p, b) = run_cell(n, chunk, streams, true, None);
        assert_eq!(
            commands, parallel[i].0,
            "instrumented cell diverged from the timed run"
        );
        pipelined_latency.merge(&p);
        buffer_latency.merge(&b);
    }

    PerfReport {
        n,
        trials,
        threads,
        commands: parallel.iter().map(|(c, _, _)| c).sum(),
        host_cores: std::thread::available_parallelism().map_or(1, |c| c.get()),
        serial_ms,
        parallel_ms,
        uncached_parallel_ms,
        pipelined_latency,
        buffer_latency,
    }
}

/// Measure the fixed sweep with the default worker pool.
pub fn run(n: usize) -> PerfReport {
    run_with_threads(n, sweep_threads())
}

/// Print the measurement as a table row.
pub fn print(rep: &PerfReport) {
    println!(
        "{:<10} {:>7} {:>8} {:>10} {:>12} {:>12} {:>12} {:>8} {:>10} {:>14}",
        "workload", "trials", "threads", "commands", "serial ms", "uncached ms", "parallel ms",
        "speedup", "plan-cache", "commands/sec"
    );
    println!(
        "{:<10} {:>7} {:>8} {:>10} {:>12.1} {:>12.1} {:>12.1} {:>7.2}x {:>9.2}x {:>14.0}",
        format!("qcd-{}", rep.n),
        rep.trials,
        rep.threads,
        rep.commands,
        rep.serial_ms,
        rep.uncached_parallel_ms,
        rep.parallel_ms,
        rep.speedup(),
        rep.plan_cache_speedup(),
        rep.commands_per_sec(),
    );
}

/// Scalar-vs-optimized throughput of one app's functional kernel body.
///
/// The functional plane is measured at the body level (host buffers, no
/// DES around it): `scalar_ms` times the pre-blocking reference body,
/// `blocked_ms` the borrow-once/cache-blocked body that kernels now run.
/// Both passes produce output that is asserted bit-identical before the
/// row is reported.
#[derive(Debug, Clone)]
pub struct FuncPerf {
    /// Application name.
    pub app: &'static str,
    /// Problem shape, human-readable.
    pub shape: String,
    /// Output elements produced per pass.
    pub out_elems: u64,
    /// Passes per measurement.
    pub reps: usize,
    /// Wall-clock of the scalar reference passes, milliseconds.
    pub scalar_ms: f64,
    /// Wall-clock of the optimized-body passes, milliseconds.
    pub blocked_ms: f64,
}

impl FuncPerf {
    /// Optimized-body speedup over the scalar reference.
    pub fn speedup(&self) -> f64 {
        self.scalar_ms / self.blocked_ms.max(1e-9)
    }

    /// Output elements per wall-clock second through the optimized body.
    pub fn elems_per_sec(&self) -> f64 {
        (self.out_elems * self.reps as u64) as f64 / (self.blocked_ms.max(1e-9) / 1e3)
    }

    /// Output elements per wall-clock second through the scalar body.
    pub fn scalar_elems_per_sec(&self) -> f64 {
        (self.out_elems * self.reps as u64) as f64 / (self.scalar_ms.max(1e-9) / 1e3)
    }
}

/// Shapes for the functional measurement: one fixed mid-size problem per
/// app (large enough to leave caches cold between rows, small enough for
/// a CI smoke run).
#[derive(Debug, Clone, Copy)]
pub struct FuncShapes {
    /// GEMM dimension.
    pub gemm_n: usize,
    /// Stencil/conv3d plane edge (nx = ny = ni = nj).
    pub grid: usize,
    /// Stencil/conv3d plane count (nz = nk).
    pub planes: usize,
    /// QCD spatial extent.
    pub qcd_n: usize,
    /// Passes per measurement.
    pub reps: usize,
}

impl FuncShapes {
    /// The fixed mid-size shapes reported by `figures perf --functional`.
    pub fn mid() -> FuncShapes {
        FuncShapes {
            gemm_n: 384,
            grid: 512,
            planes: 32,
            qcd_n: 16,
            reps: 3,
        }
    }

    /// Tiny shapes for unit-testing the measurement plumbing.
    pub fn tiny() -> FuncShapes {
        FuncShapes {
            gemm_n: 32,
            grid: 24,
            planes: 6,
            qcd_n: 4,
            reps: 2,
        }
    }
}

/// Deterministic pseudo-random fill (no RNG dependency; same values on
/// every run so the measurement is reproducible).
fn lcg_fill(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Time `reps` passes of `f`, after one untimed warm-up pass. The
/// warm-up faults in freshly allocated output pages and ramps the CPU —
/// without it, whichever body runs second on a cold 30 MB output buffer
/// eats ~100 ms of page-fault stalls and the comparison is noise.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e3
}

fn gemm_func(s: FuncShapes) -> FuncPerf {
    let n = s.gemm_n;
    let a = lcg_fill(0xA, n * n);
    let b = lcg_fill(0xB, n * n);
    let mut c_s = vec![0.0f32; n * n];
    let mut c_b = vec![0.0f32; n * n];
    let scalar_ms = time_ms(s.reps, || {
        c_s.fill(0.0);
        matmul::gemm_scalar(&mut c_s, &a, &b, n);
    });
    let blocked_ms = time_ms(s.reps, || {
        c_b.fill(0.0);
        matmul::gemm_rank_update(&mut c_b, n, &a, n, &b, n);
    });
    assert_eq!(c_s, c_b, "blocked GEMM diverged from the scalar reference");
    FuncPerf {
        app: "gemm",
        shape: format!("{n}x{n}"),
        out_elems: (n * n) as u64,
        reps: s.reps,
        scalar_ms,
        blocked_ms,
    }
}

/// A 7-point stencil plane body: `(out, below, mid, above, nx, ny, c0, c1)`.
type StencilBody = fn(&mut [f32], &[f32], &[f32], &[f32], usize, usize, f32, f32);
/// An 11-tap conv3d plane body: `(out, km, kmid, kp, ni, nj)`.
type Conv3dBody = fn(&mut [f32], &[f32], &[f32], &[f32], usize, usize);

fn stencil_func(s: FuncShapes) -> FuncPerf {
    // A sweep is ~25 ms at the mid shape vs GEMM's ~200 ms; scale reps
    // so the measurement window stays comparable.
    let reps = s.reps * 4;
    let (nx, ny, nz) = (s.grid, s.grid, s.planes);
    let plane = nx * ny;
    let a0 = lcg_fill(0x57, plane * nz);
    let (c0, c1) = (1.0 / 6.0, 1.0 / 36.0);
    let mut o_s = vec![0.0f32; plane * nz];
    let mut o_b = vec![0.0f32; plane * nz];
    let sweep = |out: &mut [f32], body: StencilBody| {
        for k in 1..nz - 1 {
            let (below, rest) = a0[(k - 1) * plane..].split_at(plane);
            let (mid, rest) = rest.split_at(plane);
            let above = &rest[..plane];
            body(&mut out[k * plane..(k + 1) * plane], below, mid, above, nx, ny, c0, c1);
        }
    };
    let scalar_ms = time_ms(reps, || sweep(&mut o_s, stencil::stencil_plane_scalar));
    let blocked_ms = time_ms(reps, || sweep(&mut o_b, stencil::stencil_plane));
    assert_eq!(o_s, o_b, "sliced stencil diverged from the scalar reference");
    FuncPerf {
        app: "stencil",
        shape: format!("{nx}x{ny}x{nz}"),
        out_elems: (plane * (nz - 2)) as u64,
        reps,
        scalar_ms,
        blocked_ms,
    }
}

fn conv3d_func(s: FuncShapes) -> FuncPerf {
    let reps = s.reps * 4;
    let (ni, nj, nk) = (s.grid, s.grid, s.planes);
    let plane = ni * nj;
    let a = lcg_fill(0xC0, plane * nk);
    let mut o_s = vec![0.0f32; plane * nk];
    let mut o_b = vec![0.0f32; plane * nk];
    let sweep = |out: &mut [f32], body: Conv3dBody| {
        for k in 1..nk - 1 {
            let (km, rest) = a[(k - 1) * plane..].split_at(plane);
            let (kmid, rest) = rest.split_at(plane);
            let kp = &rest[..plane];
            body(&mut out[k * plane..(k + 1) * plane], km, kmid, kp, ni, nj);
        }
    };
    let scalar_ms = time_ms(reps, || sweep(&mut o_s, conv3d::conv3d_plane_scalar));
    let blocked_ms = time_ms(reps, || sweep(&mut o_b, conv3d::conv3d_plane));
    assert_eq!(o_s, o_b, "sliced conv3d diverged from the scalar reference");
    FuncPerf {
        app: "conv3d",
        shape: format!("{ni}x{nj}x{nk}"),
        out_elems: (plane * (nk - 2)) as u64,
        reps,
        scalar_ms,
        blocked_ms,
    }
}

fn qcd_func(s: FuncShapes) -> FuncPerf {
    let reps = s.reps * 8;
    let n = s.qcd_n;
    let vol3 = n * n * n;
    let (ps, us) = (vol3 * qcd::PSI_SITE, vol3 * qcd::U_SITE);
    let psi = lcg_fill(0x9C1, 3 * ps);
    let u = lcg_fill(0x9C2, 2 * us);
    let f = lcg_fill(0x9C3, 2 * us);
    let slices = qcd::HopSlices {
        psi_m: &psi[..ps],
        psi_0: &psi[ps..2 * ps],
        psi_p: &psi[2 * ps..],
        u_m: &u[..us],
        u_0: &u[us..],
        f_m: &f[..us],
        f_0: &f[us..],
    };
    let mut o_s = vec![0.0f32; ps];
    let mut o_b = vec![0.0f32; ps];
    let scalar_ms = time_ms(reps, || qcd::hopping_sweep_scalar(n, &slices, &mut o_s));
    let blocked_ms = time_ms(reps, || qcd::hopping_sweep(n, &slices, &mut o_b));
    assert_eq!(o_s, o_b, "RHS-lane QCD sweep diverged from the scalar reference");
    FuncPerf {
        app: "qcd",
        shape: format!("{n}^3 slice, {} rhs", qcd::N_RHS),
        out_elems: ps as u64,
        reps,
        scalar_ms,
        blocked_ms,
    }
}

/// Measure every app's functional body, scalar vs optimized, at the
/// given shapes.
pub fn run_functional_with(shapes: FuncShapes) -> Vec<FuncPerf> {
    vec![
        gemm_func(shapes),
        stencil_func(shapes),
        conv3d_func(shapes),
        qcd_func(shapes),
    ]
}

/// Measure the functional plane at the fixed mid-size shapes.
pub fn run_functional() -> Vec<FuncPerf> {
    run_functional_with(FuncShapes::mid())
}

/// Print the functional measurement as a table.
pub fn print_functional(rows: &[FuncPerf]) {
    println!(
        "{:<10} {:>14} {:>12} {:>12} {:>9} {:>16} {:>16}",
        "app", "shape", "scalar ms", "blocked ms", "speedup", "scalar elems/s", "blocked elems/s"
    );
    for r in rows {
        println!(
            "{:<10} {:>14} {:>12.2} {:>12.2} {:>8.2}x {:>16.3e} {:>16.3e}",
            r.app,
            r.shape,
            r.scalar_ms,
            r.blocked_ms,
            r.speedup(),
            r.scalar_elems_per_sec(),
            r.elems_per_sec(),
        );
    }
}

/// The `BENCH_sim.json` payload covering both planes: the timing-mode
/// sweep throughput and (when measured) the functional-mode kernel-body
/// throughput per app.
pub fn combined_json(sweep: &PerfReport, functional: &[FuncPerf]) -> String {
    let mut s = String::from("{\n  \"sweep\": ");
    let sweep_json = sweep.to_json();
    s.push_str(&sweep_json.trim_end().replace('\n', "\n  "));
    s.push_str(",\n  \"functional\": [");
    for (i, f) in functional.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    {{ \"app\": \"{}\", \"shape\": \"{}\", \"out_elems\": {}, \"reps\": {}, \"scalar_ms\": {:.3}, \"blocked_ms\": {:.3}, \"speedup\": {:.3}, \"scalar_elems_per_sec\": {:.1}, \"blocked_elems_per_sec\": {:.1} }}",
            f.app,
            f.shape,
            f.out_elems,
            f.reps,
            f.scalar_ms,
            f.blocked_ms,
            f.speedup(),
            f.scalar_elems_per_sec(),
            f.elems_per_sec(),
        ));
    }
    if !functional.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_perf_is_consistent() {
        // Tiny shapes: smoke-tests the measurement plumbing and the
        // bit-equality asserts inside each app measurement.
        let rows = run_functional_with(FuncShapes::tiny());
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.out_elems > 0);
            assert!(r.scalar_ms >= 0.0 && r.blocked_ms >= 0.0);
            assert!(r.elems_per_sec() > 0.0);
        }
        let rep = PerfReport {
            n: 8,
            trials: 1,
            threads: 1,
            commands: 1,
            host_cores: 1,
            serial_ms: 1.0,
            parallel_ms: 1.0,
            uncached_parallel_ms: 1.0,
            pipelined_latency: StageMetrics::default(),
            buffer_latency: StageMetrics::default(),
        };
        let json = combined_json(&rep, &rows);
        assert!(json.contains("\"sweep\""));
        assert!(json.contains("\"functional\""));
        assert!(json.contains("\"app\": \"gemm\""));
        assert!(json.contains("\"blocked_elems_per_sec\""));
    }

    #[test]
    fn perf_report_is_consistent() {
        // Small lattice: this is a smoke test of the measurement
        // plumbing, not a benchmark.
        let rep = run_with_threads(8, 2);
        assert_eq!(rep.trials, 20 * REPS);
        assert!(rep.commands > 0);
        assert!(rep.serial_ms > 0.0 && rep.parallel_ms > 0.0);
        assert!(rep.speedup() > 0.0);
        // Every cell ran chunks through both pipelined models, so the
        // merged per-chunk histograms must have samples.
        assert!(rep.pipelined_latency.kernel.count() > 0);
        assert!(rep.buffer_latency.h2d.count() > 0);
        assert!(rep.host_cores >= 1);
        assert!(rep.uncached_parallel_ms > 0.0);
        assert!(rep.plan_cache_speedup() > 0.0);
        let json = rep.to_json();
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"host_cores\""));
        assert!(json.contains("\"plan_cache_speedup\""));
        assert!(json.contains("\"commands_per_sec\""));
        assert!(json.contains("\"chunk_latency\""));
        assert!(json.contains("\"stage\": \"slot_wait\""));
        // The whole payload must stay parseable.
        gpsim::json::parse(&json).expect("BENCH_sim sweep JSON parses");
    }
}
