//! Job descriptions: what a tenant submits to the server.
//!
//! A [`JobSpec`] names an application shape, an execution model, a
//! tenant, a priority and an arrival time. The server materializes it
//! into a [`JobInstance`] — a bound region plus a kernel builder — on
//! first dispatch, entirely deterministically: re-running
//! [`JobShape::setup`] with the same salt reproduces the exact input
//! bits, which is what lets the server prove preempted jobs finished
//! bit-identical to an uninterrupted run.

use gpsim::{Gpu, HostBufId, KernelCost, KernelLaunch, SimTime};
use pipeline_apps::matmul::gemm_rank_update;
use pipeline_apps::util::fill_random;
use pipeline_apps::{Conv3dConfig, QcdConfig, StencilConfig};
use pipeline_rt::{
    Affine, ChunkCtx, ExecModel, MapDir, MapSpec, Region, RegionSpec, RtError, RtResult, Schedule,
    SplitSpec,
};

/// A blocked GEMM shaped for serving: `C = A·B` with `A` and `C`
/// streamed in row blocks and `B` held device-resident for the whole
/// job via a constant (scale-0) input map. Unlike
/// [`pipeline_apps::MatmulConfig`] — whose accumulator lives only in
/// device memory between chunks — every output row block lands back in
/// host memory as soon as it is produced, so the job can be preempted
/// at block granularity and resumed on any device.
#[derive(Debug, Clone, Copy)]
pub struct GemmConfig {
    /// Matrix dimension (`n × n`).
    pub n: usize,
    /// Rows per streamed block; must divide `n`.
    pub bs: usize,
    /// Row blocks per pipeline chunk.
    pub chunk: usize,
    /// Stream count.
    pub streams: usize,
}

impl GemmConfig {
    /// Row blocks in the job (the pipeline's iteration count).
    pub fn blocks(&self) -> usize {
        self.n / self.bs
    }

    fn validate(&self) -> RtResult<()> {
        if self.n == 0 || self.bs == 0 || !self.n.is_multiple_of(self.bs) {
            return Err(RtError::Spec(format!(
                "gemm block size {} must divide n {}",
                self.bs, self.n
            )));
        }
        Ok(())
    }
}

/// The application an individual job runs (all shapes are
/// preemption-safe: outputs stream back to host slices, so a checkpoint
/// at an iteration boundary captures the full job state).
#[derive(Debug, Clone, Copy)]
pub enum JobShape {
    /// 3-plane 3D convolution ([`Conv3dConfig`]).
    Conv3d(Conv3dConfig),
    /// 7-point Jacobi stencil sweep ([`StencilConfig`]).
    Stencil(StencilConfig),
    /// Blocked GEMM with a resident `B` operand ([`GemmConfig`]).
    Gemm(GemmConfig),
    /// Staggered-fermion Dslash ([`QcdConfig`]).
    Qcd(QcdConfig),
}

impl JobShape {
    /// Stable application name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            JobShape::Conv3d(_) => "conv3d",
            JobShape::Stencil(_) => "stencil",
            JobShape::Gemm(_) => "gemm",
            JobShape::Qcd(_) => "qcd",
        }
    }

    /// Pipeline iterations the job runs (its preemption granularity).
    pub fn iterations(&self) -> i64 {
        match self {
            JobShape::Conv3d(c) => c.nk as i64 - 2,
            JobShape::Stencil(c) => c.nz as i64 - 2,
            JobShape::Gemm(c) => c.blocks() as i64,
            JobShape::Qcd(c) => c.nt as i64 - 2,
        }
    }

    /// The shape's requested static schedule (chunk, streams) — what
    /// cost-model predictions are asked for.
    pub fn schedule(&self) -> (usize, usize) {
        match self {
            JobShape::Conv3d(c) => (c.chunk, c.streams),
            JobShape::Stencil(c) => (c.chunk, c.streams),
            JobShape::Gemm(c) => (c.chunk, c.streams),
            JobShape::Qcd(c) => (c.chunk, c.streams),
        }
    }

    /// The shape's cost signature: two jobs with equal signatures have
    /// identical per-iteration cost-model predictions (same kernel
    /// shape, same transfer footprint, same schedule), regardless of
    /// their data salts. Keys the server's admission-time cost cache.
    pub fn sig(&self) -> ShapeSig {
        let (kind, dims) = match self {
            JobShape::Conv3d(c) => (0u8, [c.ni as u64, c.nj as u64, c.nk as u64, 0]),
            JobShape::Stencil(c) => (1, [c.nx as u64, c.ny as u64, c.nz as u64, 0]),
            JobShape::Gemm(c) => (2, [c.n as u64, c.bs as u64, 0, 0]),
            JobShape::Qcd(c) => (3, [c.n as u64, c.nt as u64, 0, 0]),
        };
        let (chunk, streams) = self.schedule();
        ShapeSig {
            kind,
            dims,
            chunk: chunk as u64,
            streams: streams as u64,
        }
    }

    /// The identity of the job's output for a given exec model: every
    /// field that decides its input bits and kernel values. Two shapes
    /// with equal keys produce bit-identical uninterrupted output under
    /// the same model at any `chunk`/`streams`, which are left out on
    /// purpose (the schedule never changes a loop's results). GEMM
    /// returns `None`: its fill is salted by the job id, so no two jobs
    /// of a stream share inputs. Unlike [`JobShape::sig`], the stencil
    /// coefficients are part of the key. Keys the server's
    /// verification-reference cache.
    pub fn input_key(&self) -> Option<InputKey> {
        let (kind, dims) = match self {
            JobShape::Conv3d(c) => (0u8, [c.ni as u64, c.nj as u64, c.nk as u64, 0, 0]),
            JobShape::Stencil(c) => (
                1,
                [
                    c.nx as u64,
                    c.ny as u64,
                    c.nz as u64,
                    c.c0.to_bits() as u64,
                    c.c1.to_bits() as u64,
                ],
            ),
            JobShape::Gemm(_) => return None,
            JobShape::Qcd(c) => (3, [c.n as u64, c.nt as u64, 0, 0, 0]),
        };
        Some(InputKey { kind, dims })
    }

    /// Allocate and fill this shape's host arrays on `gpu` and bind the
    /// region. `salt` perturbs the GEMM fill seeds so distinct jobs get
    /// distinct data; the conv3d/stencil/qcd apps use their fixed
    /// canonical seeds. Same shape + same salt ⇒ bit-identical inputs.
    pub fn setup(&self, gpu: &mut Gpu, salt: u64) -> RtResult<JobInstance> {
        match self {
            JobShape::Conv3d(c) => {
                let inst = c.setup(gpu)?;
                Ok(JobInstance {
                    region: inst.region,
                    builder: Box::new(c.builder()),
                    buffers: vec![inst.a, inst.b],
                    output: inst.b,
                })
            }
            JobShape::Stencil(c) => {
                let inst = c.setup(gpu)?;
                Ok(JobInstance {
                    region: inst.region,
                    builder: Box::new(c.builder()),
                    buffers: vec![inst.a0, inst.anext],
                    output: inst.anext,
                })
            }
            JobShape::Qcd(c) => {
                let inst = c.setup(gpu)?;
                Ok(JobInstance {
                    region: inst.region,
                    builder: Box::new(c.builder()),
                    buffers: vec![inst.psi, inst.u, inst.f, inst.out],
                    output: inst.out,
                })
            }
            JobShape::Gemm(c) => gemm_setup(c, gpu, salt),
        }
    }
}

/// A shape's cost-model identity — see [`JobShape::sig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeSig {
    kind: u8,
    dims: [u64; 4],
    chunk: u64,
    streams: u64,
}

/// A shape's output identity — see [`JobShape::input_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputKey {
    kind: u8,
    dims: [u64; 5],
}

/// A materialized job: bound region, kernel builder, and the host
/// buffers the server must free when the job retires.
pub struct JobInstance {
    /// The bound pipeline region.
    pub region: Region,
    /// Kernel builder for the region.
    pub builder: Box<dyn Fn(&ChunkCtx) -> KernelLaunch + Sync>,
    /// Every host buffer the job owns (inputs and outputs).
    pub buffers: Vec<HostBufId>,
    /// The buffer holding the job's result.
    pub output: HostBufId,
}

fn gemm_setup(cfg: &GemmConfig, gpu: &mut Gpu, salt: u64) -> RtResult<JobInstance> {
    cfg.validate()?;
    let (n, bs) = (cfg.n, cfg.bs);
    let nb = cfg.blocks();
    let a = gpu.alloc_host(n * n, true)?;
    let b = gpu.alloc_host(n * n, true)?;
    let c = gpu.alloc_host(n * n, true)?;
    fill_random(gpu, a, 0x6E44 ^ salt)?;
    fill_random(gpu, b, 0xB0B ^ salt.rotate_left(17))?;
    let spec = RegionSpec::new(Schedule::static_(cfg.chunk, cfg.streams))
        .with_map(MapSpec {
            name: "A".into(),
            dir: MapDir::To,
            split: SplitSpec::OneD {
                offset: Affine::IDENTITY,
                window: 1,
                extent: nb,
                slice_elems: bs * n,
            },
        })
        .with_map(MapSpec {
            name: "B".into(),
            dir: MapDir::To,
            // Constant map: every chunk needs slice 0 and nothing else,
            // so residency tracking copies B exactly once per run.
            split: SplitSpec::OneD {
                offset: Affine { scale: 0, bias: 0 },
                window: 1,
                extent: 1,
                slice_elems: n * n,
            },
        })
        .with_map(MapSpec {
            name: "C".into(),
            dir: MapDir::From,
            split: SplitSpec::OneD {
                offset: Affine::IDENTITY,
                window: 1,
                extent: nb,
                slice_elems: bs * n,
            },
        });
    let region = Region::new(spec, 0, nb as i64, vec![a, b, c]);
    let shape = *cfg;
    let builder = move |ctx: &ChunkCtx| {
        let (k0, k1) = (ctx.k0, ctx.k1);
        let (va, vb, vc) = (ctx.view(0), ctx.view(1), ctx.view(2));
        let (n, bs) = (shape.n, shape.bs);
        KernelLaunch::new(
            "gemm_block",
            KernelCost {
                flops: (k1 - k0) as u64 * 2 * (bs * n * n) as u64,
                bytes: 0,
            },
            move |kc| {
                for k in k0..k1 {
                    let ab = kc.read(va.slice_ptr(k), bs * n)?;
                    let bb = kc.read(vb.slice_ptr(0), n * n)?;
                    let mut cb = kc.write(vc.slice_ptr(k), bs * n)?;
                    // A rank-n update over a zeroed row block adds each
                    // element's products in ascending j from 0.0, the
                    // same sequence as `matmul::gemm_scalar`.
                    cb.fill(0.0);
                    gemm_rank_update(&mut cb, n, &ab, n, &bb, n);
                }
                Ok(())
            },
        )
    };
    Ok(JobInstance {
        region,
        builder: Box::new(builder),
        buffers: vec![a, b, c],
        output: c,
    })
}

/// One submitted job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Unique id (also the determinism salt for data fills).
    pub id: u64,
    /// Index into the server's tenant table.
    pub tenant: usize,
    /// What to run.
    pub shape: JobShape,
    /// Which execution model to run it under.
    pub model: ExecModel,
    /// Higher runs earlier *within* a tenant; never across tenants.
    pub priority: u8,
    /// Simulated arrival time (open loop: fixed before the run).
    pub arrival: SimTime,
    /// Optional latency budget, *relative to release*: the job's
    /// absolute deadline is `release + deadline`, where release is
    /// `arrival` for open-loop jobs and the predecessor's completion
    /// plus think time for closed-loop chains. A job misses iff it
    /// finishes after that instant on the serving clock.
    pub deadline: Option<SimTime>,
    /// Closed-loop chaining: `(predecessor id, think time)`. The job is
    /// released `think` after the predecessor completes (or is
    /// rejected), rather than at `arrival`. `arrival` then only breaks
    /// ties in generation order.
    pub after: Option<(u64, SimTime)>,
}

/// A tenant sharing the fleet.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name.
    pub name: String,
    /// Fair-share weight (relative service rate; must be positive).
    pub weight: f64,
    /// Best-effort tenants absorb overload first: their jobs are
    /// degraded down the exec-model ladder and, past the shed horizon,
    /// rejected outright. Guaranteed tenants (the default) are never
    /// degraded or overload-shed.
    pub best_effort: bool,
}

impl TenantSpec {
    /// A guaranteed tenant with the given name and weight.
    pub fn new(name: impl Into<String>, weight: f64) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            weight,
            best_effort: false,
        }
    }

    /// Mark the tenant best-effort (see [`TenantSpec::best_effort`]).
    pub fn best_effort(mut self) -> TenantSpec {
        self.best_effort = true;
        self
    }
}
