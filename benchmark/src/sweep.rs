//! `sweep`: a design-space grid in timing mode with the timeline off.
//!
//! Every cell starts from its directive text and walks the whole front
//! half of the stack: `parse_directive` → `to_region_spec` → app setup →
//! `compile_plan` → `CostModel::predict`, then `run_model` under each of
//! the three execution models. No kernel body runs (timing mode), so the
//! DES, the drivers, plan compilation and the cost model do nearly all
//! the host work. A simulator hot-loop gain shows here and should not
//! show on `offload`.
//!
//! The seed draws the non-split extents of one extra shape per (app,
//! device). Split extents stay at the paper's, so the number of chunks —
//! and with it the host work per cell — is the same for every seed.

use std::sync::Arc;
use std::time::Instant;

use dbpp_core::serve::{GemmConfig, JobShape};
use dbpp_core::{
    compile_plan, run_model, sweep_map_threads, BufferOptions, CostModel, ExecModel, KernelBuilder,
    ModelTuner, RunOptions, RunReport, Schedule, TuneSpace,
};
use gpsim::{DeviceProfile, ExecMode, Gpu, SimTime};
use pipeline_apps::{Conv3dConfig, QcdConfig, StencilConfig};
use pipeline_directive::{parse_directive, ParsedDirective};

use crate::report::{self, repeat_for, Metric, Outcome};
use crate::stats::{self, Digest, Rng};
use crate::trace::{self, Span, Tracer};

/// Chunk sizes of the grid.
pub const CHUNKS: [usize; 3] = [1, 4, 16];
/// Stream counts of the grid.
pub const STREAMS: [usize; 3] = [2, 3, 4];
/// The execution models every cell runs, with their span names.
pub const MODELS: [(ExecModel, &str); 3] = [
    (ExecModel::Naive, "exec.naive"),
    (ExecModel::Pipelined, "exec.pipelined"),
    (ExecModel::PipelinedBuffer, "exec.buffer"),
];

/// The paper's Fig. 5 Pipelined-buffer speedups over Naive on the K40m
/// at its default schedule `static[1,3]` (EXPERIMENTS.md): 3dconv,
/// stencil and QCD large.
pub const PAPER_FIG5: [(App, f64); 3] =
    [(App::Conv3d, 1.46), (App::Stencil, 1.57), (App::Qcd, 1.54)];

/// The four evaluation applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Polybench 3-D convolution.
    Conv3d,
    /// Parboil 7-point stencil.
    Stencil,
    /// Blocked GEMM (the serving layer's row-block formulation).
    Gemm,
    /// Lattice QCD hopping proxy.
    Qcd,
}

impl App {
    /// All apps, in grid order.
    pub const ALL: [App; 4] = [App::Conv3d, App::Stencil, App::Gemm, App::Qcd];
}

/// The two simulated devices of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// NVIDIA Tesla K40m profile.
    K40m,
    /// AMD Radeon HD 7970 profile.
    Hd7970,
}

impl Device {
    /// Both devices, in grid order.
    pub const ALL: [Device; 2] = [Device::K40m, Device::Hd7970];

    fn profile(self) -> DeviceProfile {
        match self {
            Device::K40m => DeviceProfile::k40m(),
            Device::Hd7970 => DeviceProfile::hd7970(),
        }
    }
}

/// One grid cell.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// Application.
    pub app: App,
    /// Device profile.
    pub device: Device,
    /// Whether the shape is the paper's (otherwise seed-drawn).
    pub paper: bool,
    /// Shape, carrying the cell's schedule.
    pub shape: JobShape,
}

/// The paper's shape for `app` on `device`, at the default schedule
/// `static[1,3]`. The HD 7970 runs the device-sized Fig. 8 volumes,
/// since the K40m's 3.6 GB convolution does not fit its 3 GB.
fn paper_shape(app: App, device: Device) -> JobShape {
    let amd = device == Device::Hd7970;
    match app {
        App::Conv3d => JobShape::Conv3d(if amd {
            Conv3dConfig {
                nk: 256,
                ..Conv3dConfig::polybench_default()
            }
        } else {
            Conv3dConfig::polybench_default()
        }),
        App::Stencil => JobShape::Stencil(StencilConfig {
            nz: if amd { 512 } else { 64 },
            ..StencilConfig::parboil_default()
        }),
        App::Gemm => JobShape::Gemm(GemmConfig {
            n: 8192,
            bs: 256,
            chunk: 1,
            streams: 3,
        }),
        App::Qcd => JobShape::Qcd(QcdConfig::paper_size(36)),
    }
}

/// A seed-drawn variant of `base`: the non-split extents shrink to
/// 75–100 % (so the shape still fits the device), the split extent —
/// the chunk count — stays.
fn seeded_shape(base: JobShape, rng: &mut Rng) -> JobShape {
    let mut scale = |v: usize| v * rng.range(12, 17) / 16 / 16 * 16;
    match base {
        JobShape::Conv3d(c) => JobShape::Conv3d(Conv3dConfig {
            ni: scale(c.ni),
            nj: scale(c.nj),
            ..c
        }),
        JobShape::Stencil(c) => JobShape::Stencil(StencilConfig {
            nx: scale(c.nx),
            ny: scale(c.ny),
            ..c
        }),
        JobShape::Gemm(g) => {
            let bs = scale(g.bs);
            JobShape::Gemm(GemmConfig {
                n: g.blocks() * bs,
                bs,
                ..g
            })
        }
        JobShape::Qcd(c) => JobShape::Qcd(QcdConfig {
            n: rng.range(27, c.n + 1),
            ..c
        }),
    }
}

fn with_schedule(shape: JobShape, chunk: usize, streams: usize) -> JobShape {
    match shape {
        JobShape::Conv3d(c) => JobShape::Conv3d(Conv3dConfig {
            chunk,
            streams,
            ..c
        }),
        JobShape::Stencil(c) => JobShape::Stencil(StencilConfig {
            chunk,
            streams,
            ..c
        }),
        JobShape::Gemm(g) => JobShape::Gemm(GemmConfig {
            chunk,
            streams,
            ..g
        }),
        JobShape::Qcd(c) => JobShape::Qcd(QcdConfig {
            chunk,
            streams,
            ..c
        }),
    }
}

/// The grid for `seed`: 4 apps × 2 devices × {paper, seeded} shapes ×
/// chunk sizes × stream counts. A pure function of the seed.
pub fn grid(seed: u64) -> Vec<Cell> {
    let mut rng = Rng::new(seed);
    let mut cells = Vec::new();
    for app in App::ALL {
        for device in Device::ALL {
            let paper = paper_shape(app, device);
            let seeded = seeded_shape(paper, &mut rng);
            for (is_paper, base) in [(true, paper), (false, seeded)] {
                for chunk in CHUNKS {
                    for streams in STREAMS {
                        cells.push(Cell {
                            app,
                            device,
                            paper: is_paper,
                            shape: with_schedule(base, chunk, streams),
                        });
                    }
                }
            }
        }
    }
    cells
}

/// The shape's region in the paper's directive syntax: the app's own
/// text where it has one, written out from the shape otherwise.
pub fn directive_text(shape: &JobShape) -> String {
    match shape {
        JobShape::Conv3d(c) => c.directive(),
        JobShape::Stencil(c) => c.directive(),
        JobShape::Qcd(c) => {
            let (ps, us) = (c.psi_slice(), c.u_slice());
            format!(
                "pipeline(static[{},{}]) pipeline_map(to:psi[t-1:3][0:{ps}]) \
                 pipeline_map(to:U[t-1:3][0:{us}]) pipeline_map(to:F[t-1:3][0:{us}]) \
                 pipeline_map(from:out[t:1][0:{ps}])",
                c.chunk, c.streams
            )
        }
        // The resident `B` operand is an ordinary map clause, not a
        // pipeline map: only the streamed row blocks are written here.
        JobShape::Gemm(g) => format!(
            "pipeline(static[{},{}]) pipeline_map(to:A[k:1][0:{}]) \
             pipeline_map(from:C[k:1][0:{}])",
            g.chunk,
            g.streams,
            g.bs * g.n,
            g.bs * g.n
        ),
    }
}

/// Split-dimension extent of the pipeline-mapped arrays (every one of a
/// shape's pipeline maps splits the same loop).
fn extent_of(shape: &JobShape) -> Option<usize> {
    Some(match shape {
        JobShape::Conv3d(c) => c.nk,
        JobShape::Stencil(c) => c.nz,
        JobShape::Qcd(c) => c.nt,
        JobShape::Gemm(g) => g.blocks(),
    })
}

/// Simulated results of one `run_model` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOut {
    /// DES makespan, ns.
    pub des_ns: u64,
    /// Cost-model prediction for the same run, ns.
    pub pred_ns: u64,
    /// Engine commands retired (`RunReport::commands`).
    pub commands: u64,
    /// Stream commands enqueued, event records and waits included.
    pub seq_cmds: u64,
    /// Device memory in use while the region ran.
    pub mem_bytes: u64,
    /// Engine busy times, ns: H2D, D2H, compute.
    pub busy_ns: [u64; 3],
    /// Bytes copied H2D plus D2H.
    pub bytes: u64,
    /// Engine idle time per stall cause, summed over the engines, ns.
    /// Zero unless the timeline is on.
    pub stalls: [u64; 6],
}

impl RunOut {
    /// Collect a report's simulated statistics.
    pub fn new(rep: &RunReport, pred: SimTime, seq_cmds: u64) -> RunOut {
        let mut stalls = [0; 6];
        for e in &rep.stalls.engines {
            for (s, v) in stalls.iter_mut().zip(e.stalls) {
                *s += v;
            }
        }
        RunOut {
            des_ns: rep.total.as_ns(),
            pred_ns: pred.as_ns(),
            commands: rep.commands,
            seq_cmds,
            mem_bytes: rep.gpu_mem_bytes,
            busy_ns: [rep.h2d.as_ns(), rep.d2h.as_ns(), rep.kernel.as_ns()],
            bytes: rep.h2d_bytes + rep.d2h_bytes,
            stalls,
        }
    }

    /// Fold everything but the stall split (which needs the timeline).
    pub fn digest_into(&self, d: &mut Digest) {
        d.extend([
            self.des_ns,
            self.pred_ns,
            self.commands,
            self.seq_cmds,
            self.mem_bytes,
        ]);
        d.extend(self.busy_ns);
        d.add(self.bytes);
    }

    fn rel_err(&self) -> f64 {
        (self.pred_ns as f64 - self.des_ns as f64).abs() / self.des_ns.max(1) as f64
    }
}

/// One cell's results.
#[derive(Debug, Clone)]
struct CellOut {
    runs: [RunOut; 3],
    roundtrip_ok: bool,
    spec_ok: bool,
    plan_reused: bool,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn run_cell(cell: &Cell, salt: u64, timeline: bool, tr: &mut Tracer) -> Result<CellOut, String> {
    let mut gpu = Gpu::new(cell.device.profile(), ExecMode::Timing).map_err(err)?;
    gpu.set_timeline_enabled(timeline);
    let text = directive_text(&cell.shape);
    let (spec, roundtrip_ok) = tr.span("directive", |_| {
        let bind = |d: &ParsedDirective| d.to_region_spec(|_| extent_of(&cell.shape)).map_err(err);
        let parsed = parse_directive(&text).map_err(err)?;
        let printed = parsed.to_string();
        let reparsed = parse_directive(&printed).map_err(err)?;
        let spec = bind(&parsed)?;
        // Source positions differ between the two texts; the canonical
        // print and the bound spec must not.
        let round_trips = reparsed.to_string() == printed && bind(&reparsed)? == spec;
        Ok::<_, String>((spec, round_trips))
    })?;
    let inst = tr
        .span("apps", |_| cell.shape.setup(&mut gpu, salt))
        .map_err(err)?;
    let bound = &inst.region.spec;
    let split_maps = bound.maps.iter().filter(|m| m.split.offset().scale != 0);
    let spec_ok = spec.schedule == bound.schedule
        && spec.maps.iter().eq(split_maps)
        && spec.mem_limit == bound.mem_limit;
    let builder: &KernelBuilder<'_> = &*inst.builder;
    let plan = tr
        .span("plan", |_| {
            compile_plan(&mut gpu, &inst.region, builder, &BufferOptions::default())
        })
        .map_err(err)?;
    let (chunk, streams) = cell.shape.schedule();
    let preds = tr
        .span("costmodel", |_| {
            let cm = CostModel::new(&gpu, &inst.region, builder)?;
            MODELS
                .iter()
                .map(|&(m, _)| cm.predict(m, chunk, streams).map(|p| p.total))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(err)?;
    let plan = Arc::new(plan);
    let mut runs = [RunOut::default(); 3];
    let mut plan_reused = false;
    for (i, &(model, span)) in MODELS.iter().enumerate() {
        let opts = if model == ExecModel::PipelinedBuffer {
            RunOptions::default().with_compiled(plan.clone())
        } else {
            RunOptions::default()
        };
        let seq0 = gpu.next_seq();
        let rep = tr
            .span(span, |_| {
                run_model(&mut gpu, &inst.region, builder, model, &opts)
            })
            .map_err(err)?;
        plan_reused |= rep.plan_reused;
        runs[i] = RunOut::new(&rep, preds[i], gpu.next_seq() - seq0);
    }
    Ok(CellOut {
        runs,
        roundtrip_ok,
        spec_ok,
        plan_reused,
    })
}

/// `ModelTuner::pick` over the grid's schedules for the paper shape of
/// (`app`, `device`).
fn pick(app: App, device: Device, tr: &mut Tracer) -> Result<(usize, usize), String> {
    let mut gpu = Gpu::new(device.profile(), ExecMode::Timing).map_err(err)?;
    let inst = tr
        .span("apps", |_| paper_shape(app, device).setup(&mut gpu, 0))
        .map_err(err)?;
    let space = TuneSpace::new()
        .with_chunks(CHUNKS.to_vec())
        .with_streams(STREAMS.to_vec());
    let best = tr
        .span("costmodel", |_| {
            ModelTuner::new(&gpu, &inst.region, &*inst.builder)?.pick(&space)
        })
        .map_err(err)?
        .best;
    match best {
        Schedule::Static {
            chunk_size,
            num_streams,
        } => Ok((chunk_size, num_streams)),
        other => Err(format!("tuner returned non-static schedule {other:?}")),
    }
}

enum Item {
    Cell(Result<Box<CellOut>, String>),
    Pick(Result<(usize, usize), String>),
}

/// The (app, device) pairs the tuner picks for, in pass order.
fn pick_pairs() -> Vec<(App, Device)> {
    App::ALL
        .iter()
        .flat_map(|&a| Device::ALL.iter().map(move |&d| (a, d)))
        .collect()
}

/// One full pass over the grid plus one tuner pick per (app, device).
struct Pass {
    wall_s: f64,
    items: Vec<Item>,
    spans: Vec<Span>,
}

fn pass(cells: &[Cell], timeline: bool, traced: bool, epoch: Instant) -> Pass {
    let pairs = pick_pairs();
    let n = cells.len() + pairs.len();
    let mut root = Tracer::new(traced, epoch);
    let t0 = Instant::now();
    let items = root.span("bench.pass", |root| {
        let results = sweep_map_threads(THREADS, n, |i| {
            let mut tr = Tracer::new(traced, epoch);
            tr.set_op(i as u64);
            let item = tr.span("bench.cell", |tr| match cells.get(i) {
                Some(cell) => Item::Cell(run_cell(cell, i as u64, timeline, tr).map(Box::new)),
                None => {
                    let (app, device) = pairs[i - cells.len()];
                    Item::Pick(pick(app, device, tr))
                }
            });
            (item, tr.into_spans())
        });
        results
            .into_iter()
            .map(|(item, spans)| {
                root.absorb(spans);
                item
            })
            .collect::<Vec<_>>()
    });
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        items,
        spans: root.into_spans(),
    }
}

/// Simulated summary of one pass.
#[derive(Debug, Default)]
struct Summary {
    digest: Digest,
    seq_cmds: u64,
    runs: Vec<(usize, RunOut)>,
    failures: Vec<String>,
    picks: Vec<((App, Device), (usize, usize))>,
    reused: u64,
}

fn summarize(cells: &[Cell], p: &Pass) -> Summary {
    let mut s = Summary::default();
    let pairs = pick_pairs();
    for (i, item) in p.items.iter().enumerate() {
        match item {
            Item::Cell(Ok(c)) => {
                for (m, r) in c.runs.iter().enumerate() {
                    r.digest_into(&mut s.digest);
                    s.seq_cmds += r.seq_cmds;
                    s.runs.push((m, *r));
                }
                let cell = &cells[i];
                if !c.roundtrip_ok {
                    s.failures.push(format!(
                        "cell {i}: directive print → parse did not round-trip"
                    ));
                }
                if !c.spec_ok {
                    s.failures.push(format!(
                        "cell {i} ({:?}): parsed directive differs from the app's region",
                        cell.app
                    ));
                }
                if !c.plan_reused {
                    s.failures
                        .push(format!("cell {i}: compiled plan was not replayed"));
                }
                s.reused += u64::from(c.plan_reused);
            }
            Item::Cell(Err(e)) => {
                s.digest.add(u64::MAX);
                s.failures.push(format!("cell {i}: {e}"));
            }
            Item::Pick(Ok(sched)) => {
                s.digest.extend([sched.0 as u64, sched.1 as u64]);
                s.picks.push((pairs[i - cells.len()], *sched));
            }
            Item::Pick(Err(e)) => {
                s.digest.add(u64::MAX - 1);
                s.failures.push(format!("tuner pick {i}: {e}"));
            }
        }
    }
    s
}

/// Buffer-model DES makespan of the cell matching (app, device, paper,
/// chunk, streams).
fn buffer_des(
    cells: &[Cell],
    p: &Pass,
    key: (App, Device, bool),
    sched: Option<(usize, usize)>,
) -> Vec<u64> {
    cells
        .iter()
        .zip(&p.items)
        .filter(|(c, _)| (c.app, c.device, c.paper) == key)
        .filter(|(c, _)| sched.is_none_or(|s| c.shape.schedule() == s))
        .filter_map(|(_, item)| match item {
            Item::Cell(Ok(o)) => Some(o.runs[2].des_ns),
            _ => None,
        })
        .collect()
}

fn naive_des(cells: &[Cell], p: &Pass, key: (App, Device, bool)) -> Option<u64> {
    cells
        .iter()
        .zip(&p.items)
        .filter(|(c, _)| (c.app, c.device, c.paper) == key)
        .find_map(|(_, item)| match item {
            Item::Cell(Ok(o)) => Some(o.runs[0].des_ns),
            _ => None,
        })
}

/// Fidelity metrics of one pass (simulated, identical on every pass).
fn fidelity(cells: &[Cell], p: &Pass, s: &Summary, out: &mut Outcome) {
    let errs: Vec<f64> = s.runs.iter().map(|(_, r)| 100.0 * r.rel_err()).collect();
    match stats::percentile(&errs, 0.95) {
        Some(pct) => {
            out.push(Metric::sim("model_err_p95_pct", pct.value, "%", "lower"));
            out.push(Metric::sim(
                "model_err_samples",
                pct.samples as f64,
                "count",
                "",
            ));
        }
        None => out.fail(format!(
            "model_err_p95_pct: {} samples cannot support a p95",
            errs.len()
        )),
    }

    let mut speedups = Vec::new();
    for app in App::ALL {
        for device in Device::ALL {
            for paper in [true, false] {
                let key = (app, device, paper);
                let best = buffer_des(cells, p, key, None).into_iter().min();
                if let (Some(naive), Some(best)) = (naive_des(cells, p, key), best) {
                    speedups.push(naive as f64 / best as f64);
                }
            }
        }
    }
    if let Some(g) = stats::geomean(&speedups) {
        out.push(Metric::sim("sim_speedup", g, "x", "higher"));
    }

    let mut ours = Vec::new();
    let mut theirs = Vec::new();
    for (app, paper) in PAPER_FIG5 {
        let key = (app, Device::K40m, true);
        let buf = buffer_des(cells, p, key, Some((1, 3))).first().copied();
        if let (Some(naive), Some(buf)) = (naive_des(cells, p, key), buf) {
            ours.push(naive as f64 / buf as f64);
            theirs.push(paper);
        }
    }
    if let (Some(o), Some(t)) = (stats::geomean(&ours), stats::geomean(&theirs)) {
        out.push(Metric::sim(
            "paper_err_pct",
            100.0 * (o / t - 1.0).abs(),
            "%",
            "lower",
        ));
    }

    let mut regret: Option<f64> = None;
    for &((app, device), sched) in &s.picks {
        let key = (app, device, true);
        let picked = buffer_des(cells, p, key, Some(sched)).first().copied();
        let best = buffer_des(cells, p, key, None).into_iter().min();
        if let (Some(picked), Some(best)) = (picked, best) {
            let r = 100.0 * (picked as f64 / best as f64 - 1.0);
            regret = Some(regret.map_or(r, |x: f64| x.max(r)));
        }
    }
    if let Some(r) = regret {
        out.push(Metric::sim("tune_regret_pct", r, "%", "lower"));
    }
}

/// Set-up, timed apart from the passes: generate the grid and run one
/// warm-up cell per (app, device), so lazy allocations and code paging
/// are paid before the first measured pass.
fn setup(seed: u64) -> Vec<Cell> {
    let cells = grid(seed);
    let mut tr = Tracer::new(false, Instant::now());
    for (i, c) in cells.iter().enumerate() {
        if c.paper && c.shape.schedule() == (1, 3) {
            // A failing cell is reported by the measured passes.
            let _ = run_cell(c, i as u64, false, &mut tr);
        }
    }
    cells
}

/// Sweep workers. One: on a shared two-vCPU host a second worker made
/// the run-to-run spread of the rates about twice as wide, and a serial
/// pass is also what the traced run needs for its rows to sum to wall
/// time.
const THREADS: usize = 1;

/// Run the workload.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // A set-up sample before every pass, so the samples spread over the
    // run as the passes do.
    let mut setup_s = Vec::new();
    let mut timed_setup = || {
        let t = Instant::now();
        let cells = setup(seed);
        setup_s.push(t.elapsed().as_secs_f64());
        cells
    };
    let mut cells = timed_setup();
    out.threads = THREADS;
    let epoch = Instant::now();
    let per_pass = (cells.len() + pick_pairs().len()) as u64;

    let mut reference: Option<Summary> = None;
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut spans = Vec::new();
    let passes = repeat_for(seconds, if traced { 4 } else { 3 }, |i| {
        // Traced runs alternate untraced and traced passes, so the
        // tracing overhead is measured on the same load. Pass 0 is
        // always untraced and is the digest reference.
        let with_trace = traced && i % 2 == 1;
        if i > 0 {
            cells = timed_setup();
        }
        let mut p = pass(&cells, false, with_trace, epoch);
        let s = summarize(&cells, &p);
        out.attempted += per_pass;
        for f in &s.failures {
            out.fail(format!("pass {i}: {f}"));
        }
        if with_trace {
            traced_walls.push(p.wall_s);
            trace::append(&mut spans, std::mem::take(&mut p.spans), None);
        } else {
            plain_walls.push(p.wall_s);
        }
        match &reference {
            None => {
                fidelity(&cells, &p, &s, &mut out);
                reference = Some(s);
            }
            Some(r) => out.check(r.digest == s.digest, || {
                format!(
                    "pass {i} (traced: {with_trace}): simulated digest {} != {}",
                    s.digest.hex(),
                    r.digest.hex()
                )
            }),
        }
    });
    out.passes = passes;
    let reference = reference.expect("at least one pass");
    out.digest = reference.digest;

    if !traced {
        let cmds = reference.seq_cmds as f64;
        report::push_rates(&mut out, &setup_s, per_pass as f64, cmds, &[plain_walls]);
        return out;
    }

    // Once more with the timeline on, for the stall split: the
    // simulated statistics must not change.
    let instrumented = pass(&cells, true, false, epoch);
    let inst = summarize(&cells, &instrumented);
    out.check(inst.digest == reference.digest, || {
        "timeline-on pass changed the simulated digest".into()
    });
    out.attempted += per_pass;

    let n = traced_walls.len().max(1) as f64;
    layer_metrics(&spans, n, &reference, &inst, &mut out);
    crate::push_bench_rows(&spans, n, &traced_walls, &plain_walls, &mut out);
    out.spans = spans;
    out
}

fn layer_metrics(spans: &[Span], passes: f64, s: &Summary, inst: &Summary, out: &mut Outcome) {
    let per = |v: u64| v as f64 / passes;
    let secs = |name: &str| trace::self_ns_of(spans, name) as f64 / 1e9 / passes;
    out.push(Metric::host(
        "directive.calls",
        per(trace::count_of(spans, "directive")),
        "count",
        "",
    ));
    out.push(Metric::host(
        "plan.compiles",
        per(trace::count_of(spans, "plan")),
        "count",
        "",
    ));
    let buffer_runs = s.runs.iter().filter(|(m, _)| *m == 2).count() as f64;
    out.push(Metric::host(
        "plan.reuse_ratio",
        s.reused as f64 / buffer_runs.max(1.0),
        "ratio",
        "",
    ));
    let cells = buffer_runs;
    let picks = s.picks.len() as f64;
    let space = (CHUNKS.len() * STREAMS.len()) as f64;
    out.push(Metric::host(
        "costmodel.predictions",
        3.0 * cells + space * picks,
        "count",
        "",
    ));
    out.push(Metric::host("costmodel.picks", picks, "count", ""));
    for (m, (_, span)) in MODELS.iter().enumerate() {
        let label = &span["exec.".len()..];
        let runs = s.runs.iter().filter(|(k, _)| *k == m);
        let cmds: u64 = runs.clone().map(|(_, r)| r.seq_cmds).sum();
        let busy = secs(span);
        out.push(Metric::host(
            &format!("exec.{label}.runs"),
            runs.count() as f64,
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
            busy * 1e9 / cmds.max(1) as f64,
            "ns",
            "lower",
        ));
    }
    crate::push_gpsim(inst.runs.iter().map(|(_, r)| r), out);
}
