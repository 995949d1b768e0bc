//! Cross-driver integration tests: all three execution models must
//! produce bit-identical results to a CPU reference, and their timing and
//! memory relations must match the paper's qualitative claims.

use std::sync::Arc;

use gpsim::{DeviceProfile, ExecMode, Gpu, HostBufId, KernelCost, KernelLaunch};
use pipeline_rt::{
    compile_plan, run_model, Affine, BufferOptions, ChunkCtx, ExecModel, KernelBuilder, MapDir,
    MapSpec, Region, RegionSpec, RtError, RtResult, RunOptions, RunReport, Schedule, SplitSpec,
};

/// One concrete execution model through the unified front door, as a
/// function pointer (lets the cross-driver tests iterate a table).
type Driver = fn(&mut Gpu, &Region, &KernelBuilder<'_>) -> RtResult<RunReport>;

fn run_naive(gpu: &mut Gpu, region: &Region, builder: &KernelBuilder<'_>) -> RtResult<RunReport> {
    run_model(gpu, region, builder, ExecModel::Naive, &RunOptions::default())
}

fn run_pipelined(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
) -> RtResult<RunReport> {
    run_model(gpu, region, builder, ExecModel::Pipelined, &RunOptions::default())
}

fn run_pipelined_buffer(
    gpu: &mut Gpu,
    region: &Region,
    builder: &KernelBuilder<'_>,
) -> RtResult<RunReport> {
    run_model(gpu, region, builder, ExecModel::PipelinedBuffer, &RunOptions::default())
}

const NZ: usize = 32;
const SLICE: usize = 128;

/// Build the canonical test region: a 3-point stencil along the split
/// dimension, `out[k] = in[k-1] + in[k] + in[k+1]`.
fn stencil_region(schedule: Schedule, gpu: &mut Gpu) -> (Region, HostBufId, HostBufId) {
    let input = gpu.alloc_host(NZ * SLICE, true).unwrap();
    let output = gpu.alloc_host(NZ * SLICE, true).unwrap();
    gpu.host_fill(input, |i| (i % 1009) as f32 * 0.5).unwrap();
    let spec = RegionSpec::new(schedule)
        .with_map(MapSpec {
            name: "in".into(),
            dir: MapDir::To,
            split: SplitSpec::OneD {
                offset: Affine::shifted(-1),
                window: 3,
                extent: NZ,
                slice_elems: SLICE,
            },
        })
        .with_map(MapSpec {
            name: "out".into(),
            dir: MapDir::From,
            split: SplitSpec::OneD {
                offset: Affine::IDENTITY,
                window: 1,
                extent: NZ,
                slice_elems: SLICE,
            },
        });
    let region = Region::new(spec, 1, (NZ - 1) as i64, vec![input, output]);
    (region, input, output)
}

/// Kernel builder for the 3-point stencil, parameterized by slice size.
fn stencil_builder_for(slice: usize) -> impl Fn(&ChunkCtx) -> KernelLaunch {
    move |ctx: &ChunkCtx| {
        let (k0, k1) = (ctx.k0, ctx.k1);
        let (vin, vout) = (ctx.view(0), ctx.view(1));
        KernelLaunch::new(
            "stencil3",
            KernelCost {
                flops: (k1 - k0) as u64 * slice as u64 * 2,
                bytes: (k1 - k0) as u64 * slice as u64 * 16,
            },
            move |kc| {
                for k in k0..k1 {
                    let up = kc.read(vin.slice_ptr(k - 1), slice)?;
                    let mid = kc.read(vin.slice_ptr(k), slice)?;
                    let dn = kc.read(vin.slice_ptr(k + 1), slice)?;
                    let mut out = kc.write(vout.slice_ptr(k), slice)?;
                    for i in 0..slice {
                        out[i] = up[i] + mid[i] + dn[i];
                    }
                }
                Ok(())
            },
        )
    }
}

fn stencil_builder(ctx: &ChunkCtx) -> KernelLaunch {
    stencil_builder_for(SLICE)(ctx)
}

fn cpu_reference(input: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; NZ * SLICE];
    for k in 1..NZ - 1 {
        for i in 0..SLICE {
            out[k * SLICE + i] =
                input[(k - 1) * SLICE + i] + input[k * SLICE + i] + input[(k + 1) * SLICE + i];
        }
    }
    out
}

fn read_all(gpu: &Gpu, h: HostBufId, len: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    gpu.host_read(h, 0, &mut v).unwrap();
    v
}

fn functional_gpu() -> Gpu {
    Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap()
}

#[test]
fn all_three_drivers_match_cpu_reference() {
    for schedule in [
        Schedule::static_(1, 3),
        Schedule::static_(4, 2),
        Schedule::static_(7, 5),
        Schedule::Adaptive,
    ] {
        let mut gpu = functional_gpu();
        gpu.set_race_check(true);
        let (region, input, output) = stencil_region(schedule, &mut gpu);
        let input_data = read_all(&gpu, input, NZ * SLICE);
        let expect = cpu_reference(&input_data);

        for (name, f) in [
            ("naive", run_naive as Driver),
            ("pipelined", run_pipelined as Driver),
            ("buffer", run_pipelined_buffer as Driver),
        ] {
            // Clear the output between runs.
            gpu.host_fill(output, |_| -1.0).unwrap();
            f(&mut gpu, &region, &stencil_builder).unwrap();
            let got = read_all(&gpu, output, NZ * SLICE);
            // Interior slices must match exactly; boundary slices are
            // untouched by every driver (the region never writes them).
            assert_eq!(
                &got[SLICE..(NZ - 1) * SLICE],
                &expect[SLICE..(NZ - 1) * SLICE],
                "driver {name} with {schedule:?} diverged from CPU reference"
            );
        }
    }
}

/// Region at paper scale (timing mode: phantom data, cost model only).
/// 32 slices of 4 MB each — big enough that transfer time dominates API
/// overhead, the regime where pipelining pays off.
const BIG_SLICE: usize = 1 << 20;

fn big_stencil_region(schedule: Schedule, gpu: &mut Gpu) -> Region {
    let input = gpu.alloc_host(NZ * BIG_SLICE, true).unwrap();
    let output = gpu.alloc_host(NZ * BIG_SLICE, true).unwrap();
    let spec = RegionSpec::new(schedule)
        .with_map(MapSpec {
            name: "in".into(),
            dir: MapDir::To,
            split: SplitSpec::OneD {
                offset: Affine::shifted(-1),
                window: 3,
                extent: NZ,
                slice_elems: BIG_SLICE,
            },
        })
        .with_map(MapSpec {
            name: "out".into(),
            dir: MapDir::From,
            split: SplitSpec::OneD {
                offset: Affine::IDENTITY,
                window: 1,
                extent: NZ,
                slice_elems: BIG_SLICE,
            },
        });
    Region::new(spec, 1, (NZ - 1) as i64, vec![input, output])
}

#[test]
fn pipelined_models_are_faster_than_naive_on_k40m() {
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
    let region = big_stencil_region(Schedule::static_(2, 3), &mut gpu);
    let builder = stencil_builder_for(BIG_SLICE);
    let naive = run_naive(&mut gpu, &region, &builder).unwrap();
    let pipe = run_pipelined(&mut gpu, &region, &builder).unwrap();
    let buf = run_pipelined_buffer(&mut gpu, &region, &builder).unwrap();
    assert!(
        pipe.total < naive.total,
        "pipelined {} !< naive {}",
        pipe.total,
        naive.total
    );
    assert!(
        buf.total < naive.total,
        "buffer {} !< naive {}",
        buf.total,
        naive.total
    );
}

#[test]
fn buffer_model_uses_less_device_memory() {
    let mut gpu = functional_gpu();
    let (region, _, _) = stencil_region(Schedule::static_(1, 3), &mut gpu);
    let naive = run_naive(&mut gpu, &region, &stencil_builder).unwrap();
    let buf = run_pipelined_buffer(&mut gpu, &region, &stencil_builder).unwrap();
    assert!(buf.array_bytes < naive.array_bytes);
    // Ring: input 5 slices + output 3 slices (window 1, chunk 1, 3
    // streams) vs full 2 × 32 slices.
    assert_eq!(naive.array_bytes, (2 * NZ * SLICE * 4) as u64);
    assert!(buf.array_bytes <= (10 * SLICE * 4) as u64);
}

#[test]
fn copies_are_counted_once_despite_halo_sharing() {
    let mut gpu = functional_gpu();
    let (region, _, _) = stencil_region(Schedule::static_(1, 3), &mut gpu);
    let buf = run_pipelined_buffer(&mut gpu, &region, &stencil_builder).unwrap();
    // Residency tracking: every input slice crosses the bus exactly once
    // (NZ slices), every interior output slice once (NZ-2).
    let expect_h2d = (NZ * SLICE * 4) as u64;
    let expect_d2h = ((NZ - 2) * SLICE * 4) as u64;
    assert_eq!(buf.h2d_bytes, expect_h2d);
    assert_eq!(buf.d2h_bytes, expect_d2h);
}

#[test]
fn transfers_overlap_compute_in_buffer_model() {
    let mut gpu = functional_gpu();
    let (region, _, _) = stencil_region(Schedule::static_(2, 3), &mut gpu);
    let buf = run_pipelined_buffer(&mut gpu, &region, &stencil_builder).unwrap();
    // Busy time across engines must exceed the makespan — impossible
    // without concurrency.
    let busy = buf.h2d + buf.d2h + buf.kernel;
    assert!(
        busy > buf.total,
        "no overlap: busy {busy} <= total {}",
        buf.total
    );
}

#[test]
fn tofrom_in_place_update_is_correct() {
    // out-of-place not required: a ToFrom array updated in place,
    // no halo (window 1), doubled by the kernel.
    let mut gpu = functional_gpu();
    gpu.set_race_check(true);
    let data = gpu.alloc_host(NZ * SLICE, true).unwrap();
    gpu.host_fill(data, |i| i as f32).unwrap();
    let spec = RegionSpec::new(Schedule::static_(3, 2)).with_map(MapSpec {
        name: "data".into(),
        dir: MapDir::ToFrom,
        split: SplitSpec::OneD {
            offset: Affine::IDENTITY,
            window: 1,
            extent: NZ,
            slice_elems: SLICE,
        },
    });
    let region = Region::new(spec, 0, NZ as i64, vec![data]);
    let builder = |ctx: &ChunkCtx| {
        let (k0, k1) = (ctx.k0, ctx.k1);
        let v = ctx.view(0);
        KernelLaunch::new(
            "double",
            KernelCost {
                flops: (k1 - k0) as u64 * SLICE as u64,
                bytes: 0,
            },
            move |kc| {
                for k in k0..k1 {
                    let mut d = kc.write(v.slice_ptr(k), SLICE)?;
                    for x in d.iter_mut() {
                        *x *= 2.0;
                    }
                }
                Ok(())
            },
        )
    };
    run_pipelined_buffer(&mut gpu, &region, &builder).unwrap();
    let got = read_all(&gpu, data, NZ * SLICE);
    for (i, v) in got.iter().enumerate() {
        assert_eq!(*v, 2.0 * i as f32, "element {i}");
    }
}

#[test]
fn col_blocks_round_trip_through_ring() {
    // A matrix processed by column blocks: each block is scaled by 2.
    const ROWS: usize = 24;
    const COLS: usize = 48;
    const BC: usize = 8; // block columns
    let mut gpu = functional_gpu();
    gpu.set_race_check(true);
    let data = gpu.alloc_host(ROWS * COLS, true).unwrap();
    gpu.host_fill(data, |i| (i as f32).sin()).unwrap();
    let mut expect = read_all(&gpu, data, ROWS * COLS);
    for v in expect.iter_mut() {
        *v *= 2.0;
    }

    let split = SplitSpec::ColBlocks {
        offset: Affine::IDENTITY,
        window: 1,
        extent: COLS / BC,
        rows: ROWS,
        block_cols: BC,
        row_stride: COLS,
    };
    let spec = RegionSpec::new(Schedule::static_(1, 2)).with_map(MapSpec {
        name: "m".into(),
        dir: MapDir::ToFrom,
        split,
    });
    let region = Region::new(spec, 0, (COLS / BC) as i64, vec![data]);
    let builder = |ctx: &ChunkCtx| {
        let (k0, k1) = (ctx.k0, ctx.k1);
        let v = ctx.view(0);
        KernelLaunch::new(
            "scale_block",
            KernelCost {
                flops: ((k1 - k0) as usize * ROWS * BC) as u64,
                bytes: 0,
            },
            move |kc| {
                for b in k0..k1 {
                    let (ptr, stride) = v.block_ptr(b);
                    for r in 0..ROWS {
                        let mut row = kc.write(ptr.add(r * stride), BC)?;
                        for x in row.iter_mut() {
                            *x *= 2.0;
                        }
                    }
                }
                Ok(())
            },
        )
    };

    for f in [
        run_naive as Driver,
        run_pipelined as Driver,
        run_pipelined_buffer as Driver,
    ] {
        // Reset the matrix before each run.
        gpu.host_fill(data, |i| (i as f32).sin()).unwrap();
        f(&mut gpu, &region, &builder).unwrap();
        let got = read_all(&gpu, data, ROWS * COLS);
        assert_eq!(got, expect);
    }
}

#[test]
fn mem_limit_shrinks_footprint_and_stays_correct() {
    let mut gpu = functional_gpu();
    let (mut region, input, output) = stencil_region(Schedule::static_(4, 4), &mut gpu);
    let unlimited = run_pipelined_buffer(&mut gpu, &region, &stencil_builder).unwrap();

    // Constrain to roughly half of the unlimited ring.
    region.spec.mem_limit = Some(unlimited.array_bytes / 2);
    gpu.host_fill(output, |_| -1.0).unwrap();
    let limited = run_pipelined_buffer(&mut gpu, &region, &stencil_builder).unwrap();
    assert!(limited.array_bytes <= unlimited.array_bytes / 2);

    let input_data = read_all(&gpu, input, NZ * SLICE);
    let expect = cpu_reference(&input_data);
    let got = read_all(&gpu, output, NZ * SLICE);
    assert_eq!(&got[SLICE..(NZ - 1) * SLICE], &expect[SLICE..(NZ - 1) * SLICE]);
}

#[test]
fn infeasible_mem_limit_errors_cleanly() {
    let mut gpu = functional_gpu();
    let (mut region, _, _) = stencil_region(Schedule::static_(1, 3), &mut gpu);
    region.spec.mem_limit = Some(100); // 100 bytes: hopeless
    let err = run_pipelined_buffer(&mut gpu, &region, &stencil_builder).unwrap_err();
    assert!(matches!(err, RtError::MemLimitInfeasible { .. }), "{err:?}");
}

#[test]
fn region_validation_catches_binding_errors() {
    let mut gpu = functional_gpu();
    let (mut region, _, _) = stencil_region(Schedule::static_(1, 3), &mut gpu);
    // Drop one bound array.
    region.arrays.pop();
    let err = run_naive(&mut gpu, &region, &stencil_builder).unwrap_err();
    assert!(matches!(err, RtError::Spec(_)));

    // Bind a too-small buffer.
    let (mut region, _, _) = stencil_region(Schedule::static_(1, 3), &mut gpu);
    let small = gpu.alloc_host(16, true).unwrap();
    region.arrays[0] = small;
    let err = run_naive(&mut gpu, &region, &stencil_builder).unwrap_err();
    assert!(err.to_string().contains("host elements"));
}

#[test]
fn drivers_leave_no_device_memory_behind() {
    let mut gpu = functional_gpu();
    let (region, _, _) = stencil_region(Schedule::static_(2, 4), &mut gpu);
    let before = gpu.current_mem();
    run_naive(&mut gpu, &region, &stencil_builder).unwrap();
    run_pipelined(&mut gpu, &region, &stencil_builder).unwrap();
    run_pipelined_buffer(&mut gpu, &region, &stencil_builder).unwrap();
    assert_eq!(gpu.current_mem(), before, "leaked device memory");
}

#[test]
fn naive_oom_surfaces_as_sim_error() {
    // A device with tiny memory cannot hold the full arrays (32 KB), but
    // the ring-buffer model (~4 KB) still fits — the paper's headline
    // capability of running datasets larger than device memory.
    let mut profile = DeviceProfile::k40m();
    profile.mem_capacity = 24 * 1024;
    profile.base_runtime_mem = 0;
    profile.mem_per_stream = 0;
    let mut gpu = Gpu::new(profile, ExecMode::Functional).unwrap();
    let (region, input, output) = stencil_region(Schedule::static_(1, 3), &mut gpu);

    let err = run_naive(&mut gpu, &region, &stencil_builder).unwrap_err();
    assert!(matches!(err, RtError::Sim(gpsim::SimError::OutOfMemory { .. })));

    // Pipelined-buffer succeeds in the same context.
    run_pipelined_buffer(&mut gpu, &region, &stencil_builder).unwrap();
    let input_data = read_all(&gpu, input, NZ * SLICE);
    let expect = cpu_reference(&input_data);
    let got = read_all(&gpu, output, NZ * SLICE);
    assert_eq!(&got[SLICE..(NZ - 1) * SLICE], &expect[SLICE..(NZ - 1) * SLICE]);
}

#[test]
fn pipelined_rejects_overlapping_output_windows() {
    // Chunks draining overlapping host ranges from different streams
    // would race; the driver must refuse (mirroring the buffer path).
    let mut gpu = functional_gpu();
    let (mut region, _, _) = stencil_region(Schedule::static_(1, 3), &mut gpu);
    if let SplitSpec::OneD { window, .. } = &mut region.spec.maps[1].split {
        *window = 2;
    }
    region.hi -= 1; // keep the widened window in bounds
    let err = run_pipelined(&mut gpu, &region, &stencil_builder).unwrap_err();
    assert_eq!(
        err.to_string(),
        "invalid region spec: map 'out': output window 2 exceeds stride 1; chunks would \
         write overlapping host ranges in nondeterministic order"
    );
}

#[test]
fn a_buffer_plan_is_never_replayed_by_the_pipelined_model() {
    let mut gpu = functional_gpu();
    let (region, _, _) = stencil_region(Schedule::static_(2, 3), &mut gpu);
    let plan = compile_plan(&mut gpu, &region, &stencil_builder, &BufferOptions::default())
        .unwrap();
    let opts = RunOptions::default().with_compiled(Arc::new(plan));

    let reused = run_model(&mut gpu, &region, &stencil_builder, ExecModel::Pipelined, &opts)
        .unwrap();
    let fresh = run_pipelined(&mut gpu, &region, &stencil_builder).unwrap();
    assert!(!reused.plan_reused);
    assert_eq!(reused.model, ExecModel::Pipelined);
    assert_eq!(reused.gpu_mem_bytes, fresh.gpu_mem_bytes);
    assert_eq!(reused.total, fresh.total);

    // The buffered model does replay it.
    let buffered =
        run_model(&mut gpu, &region, &stencil_builder, ExecModel::PipelinedBuffer, &opts).unwrap();
    assert!(buffered.plan_reused);
}
