//! Pinned command-stream identity: for a grid of region shapes, the
//! Pipelined and Pipelined-buffer runs and their cost-model predictions
//! must reproduce recorded constants exactly — simulated times to the
//! nanosecond, command counts, bytes moved and device footprint.
//!
//! The grid covers the shapes where the two pipelined models differ in
//! their enqueue order: halo sharing, strided 2-D blocks, input windows
//! that leave gaps between chunks (Pipelined's high-water mark copies the
//! gap slices, the buffer classifier skips them), a broadcast input every
//! chunk reads, a read-write map, a one-chunk one-stream sub-range, a
//! faulty run recovered by chunk-granular retry, and two device-bound
//! runs: slices wide enough that the copy engines set the pace, and
//! kernels heavy enough that ring-slot reuse waits bind.
//!
//! A change to the drivers or the cost model that is meant to keep
//! behaviour identical must leave every constant here untouched.

use gpsim::{DeviceProfile, ExecMode, FaultPlan, Gpu, KernelCost, KernelLaunch};
use pipeline_rt::{
    run_model, Affine, ChunkCtx, CostModel, ExecModel, MapDir, MapSpec, Region, RegionSpec,
    RetryPolicy, RunOptions, Schedule, SplitSpec,
};

const SLICE: usize = 1 << 13;

fn one_d(name: &str, dir: MapDir, offset: Affine, window: usize, extent: usize) -> MapSpec {
    one_d_wide(name, dir, offset, window, extent, SLICE)
}

fn one_d_wide(
    name: &str,
    dir: MapDir,
    offset: Affine,
    window: usize,
    extent: usize,
    slice_elems: usize,
) -> MapSpec {
    MapSpec {
        name: name.into(),
        dir,
        split: SplitSpec::OneD {
            offset,
            window,
            extent,
            slice_elems,
        },
    }
}

fn col_blocks(name: &str, dir: MapDir, extent: usize) -> MapSpec {
    MapSpec {
        name: name.into(),
        dir,
        split: SplitSpec::ColBlocks {
            offset: Affine::IDENTITY,
            window: 1,
            extent,
            rows: 96,
            block_cols: 40,
            row_stride: extent * 40 + 24,
        },
    }
}

/// One grid cell: a region shape, a loop range, a schedule, the kernel's
/// flops per slice element and iteration, and whether the run is made
/// faulty.
struct Cell {
    name: &'static str,
    maps: Vec<MapSpec>,
    lo: i64,
    hi: i64,
    chunk: usize,
    streams: usize,
    flops: u64,
    faulty: bool,
}

fn cells() -> Vec<Cell> {
    let stencil = || {
        vec![
            one_d("in", MapDir::To, Affine::shifted(-1), 3, 32),
            one_d("out", MapDir::From, Affine::IDENTITY, 1, 32),
        ]
    };
    vec![
        Cell {
            name: "stencil",
            maps: stencil(),
            lo: 1,
            hi: 31,
            chunk: 4,
            streams: 3,
            flops: 40,
            faulty: false,
        },
        Cell {
            name: "col_blocks",
            maps: vec![
                col_blocks("a", MapDir::To, 24),
                col_blocks("c", MapDir::From, 24),
            ],
            lo: 0,
            hi: 24,
            chunk: 3,
            streams: 2,
            flops: 40,
            faulty: false,
        },
        Cell {
            // Chunk k reads input slice 3k: the slices between chunks are
            // never needed.
            name: "gapped_input",
            maps: vec![
                one_d("in", MapDir::To, Affine { scale: 3, bias: 0 }, 1, 48),
                one_d("out", MapDir::From, Affine::IDENTITY, 1, 16),
            ],
            lo: 0,
            hi: 16,
            chunk: 2,
            streams: 3,
            flops: 40,
            faulty: false,
        },
        Cell {
            // Every chunk reads the same two coefficient slices.
            name: "broadcast",
            maps: vec![
                one_d("coef", MapDir::To, Affine { scale: 0, bias: 0 }, 2, 2),
                one_d("in", MapDir::To, Affine::IDENTITY, 1, 20),
                one_d("out", MapDir::From, Affine::IDENTITY, 1, 20),
            ],
            lo: 0,
            hi: 20,
            chunk: 3,
            streams: 4,
            flops: 40,
            faulty: false,
        },
        Cell {
            name: "to_from",
            maps: vec![
                one_d("halo", MapDir::To, Affine::shifted(-1), 3, 24),
                one_d("acc", MapDir::ToFrom, Affine::IDENTITY, 1, 24),
            ],
            lo: 1,
            hi: 23,
            chunk: 5,
            streams: 2,
            flops: 40,
            faulty: false,
        },
        Cell {
            name: "single_chunk_sub_range",
            maps: stencil(),
            lo: 9,
            hi: 17,
            chunk: 8,
            streams: 1,
            flops: 40,
            faulty: false,
        },
        Cell {
            name: "faulty_stencil",
            maps: stencil(),
            lo: 1,
            hi: 31,
            chunk: 2,
            streams: 3,
            flops: 40,
            faulty: true,
        },
        Cell {
            name: "copy_bound_stencil",
            maps: vec![
                one_d_wide("in", MapDir::To, Affine::shifted(-1), 3, 24, SLICE << 5),
                one_d_wide("out", MapDir::From, Affine::IDENTITY, 1, 24, SLICE << 5),
            ],
            lo: 1,
            hi: 23,
            chunk: 2,
            streams: 3,
            flops: 40,
            faulty: false,
        },
        Cell {
            name: "compute_bound_stencil",
            maps: stencil(),
            lo: 1,
            hi: 31,
            chunk: 1,
            streams: 3,
            flops: 40 << 11,
            faulty: false,
        },
    ]
}

fn builder(flops: u64) -> impl Fn(&ChunkCtx) -> KernelLaunch + Sync {
    move |ctx: &ChunkCtx| {
        let n = (ctx.k1 - ctx.k0) as u64;
        KernelLaunch::cost_only(
            "probe",
            KernelCost {
                flops: n * SLICE as u64 * flops,
                bytes: n * SLICE as u64 * 12,
            },
        )
    }
}

/// The pinned figures of one (cell, model) run: report total, h2d, d2h,
/// kernel and host-API ns; commands; h2d and d2h bytes; device bytes;
/// predicted total and host-API ns; retries taken.
type Row = [u64; 12];

fn measure(cell: &Cell, model: ExecModel) -> Row {
    let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
    let arrays = cell
        .maps
        .iter()
        .map(|m| gpu.alloc_host(m.split.total_elems(), true).unwrap())
        .collect();
    let mut spec = RegionSpec::new(Schedule::static_(cell.chunk, cell.streams));
    for m in &cell.maps {
        spec = spec.with_map(m.clone());
    }
    let region = Region::new(spec, cell.lo, cell.hi, arrays);
    let builder = builder(cell.flops);

    let pred = CostModel::new(&gpu, &region, &builder)
        .unwrap()
        .predict(model, cell.chunk, cell.streams)
        .unwrap();

    let mut opts = RunOptions::default();
    if cell.faulty {
        gpu.set_fault_plan(Some(
            FaultPlan::seeded(11)
                .h2d_rate(0.1)
                .kernel_rate(0.1)
                .d2h_rate(0.1)
                .max_faults(4),
        ));
        opts = opts.with_retry(RetryPolicy::retries(3));
    }
    let r = run_model(&mut gpu, &region, &builder, model, &opts).unwrap();
    [
        r.total.as_ns(),
        r.h2d.as_ns(),
        r.d2h.as_ns(),
        r.kernel.as_ns(),
        r.host_api.as_ns(),
        r.commands,
        r.h2d_bytes,
        r.d2h_bytes,
        r.gpu_mem_bytes,
        pred.total.as_ns(),
        pred.host_api.as_ns(),
        r.recovery.total_retries(),
    ]
}

/// Recorded rows, in `cells()` order, Pipelined then PipelinedBuffer.
#[rustfmt::skip]
const EXPECTED: &[(&str, [Row; 2])] = &[
    ("stencil", [
        [746384, 354737, 288950, 114238, 733000, 24, 1048576, 983040, 50097152, 746384, 733000, 0],
        [508100, 359267, 401797, 114545, 460000, 27, 1048576, 983040, 48851968, 508100, 460000, 0],
    ]),
    ("col_blocks", [
        [336354, 211504, 255807, 96192, 225000, 24, 368640, 368640, 47755712, 355339, 225000, 0],
        [411260, 255807, 211504, 96440, 385000, 24, 368640, 368640, 47196608, 411260, 385000, 0],
    ]),
    ("gapped_input", [
        [639132, 415393, 243072, 109464, 614000, 24, 1507328, 524288, 50097152, 639132, 614000, 0],
        [454751, 334938, 291218, 109624, 410000, 25, 1048576, 524288, 48720896, 454751, 410000, 0],
    ]),
    ("broadcast", [
        [1064384, 324622, 246350, 111827, 1061000, 22, 720896, 655360, 50376256, 1064384, 1061000, 0],
        [422349, 316820, 293162, 112033, 385000, 22, 720896, 655360, 49851968, 422349, 385000, 0],
    ]),
    ("to_from", [
        [469929, 404862, 219840, 62511, 195000, 20, 1507328, 720896, 48572864, 469929, 195000, 0],
        [525300, 446676, 273560, 62735, 325000, 24, 1507328, 720896, 47720896, 525301, 325000, 0],
    ]),
    ("single_chunk_sub_range", [
        [130374, 52598, 46045, 11731, 45000, 3, 327680, 262144, 48097152, 130374, 45000, 0],
        [170117, 72429, 65875, 11813, 75000, 5, 327680, 262144, 46589824, 170117, 75000, 0],
    ]),
    ("faulty_stencil", [
        [1927020, 706358, 577296, 259977, 1807000, 45, 1572864, 1245184, 50097152, 1376384, 1363000, 4],
        [1496939, 699480, 781674, 260357, 1165000, 50, 1572864, 1245184, 48458752, 905179, 855000, 4],
    ]),
    ("copy_bound_stencil", [
        [3697750, 3356341, 3210806, 150513, 1003000, 33, 25165824, 23068672, 98331648, 3697746, 1003000, 0],
        [3784344, 3356341, 3297380, 150733, 625000, 36, 25165824, 23068672, 62680064, 3784343, 625000, 0],
    ]),
    ("compute_bound_stencil", [
        [5179037, 819764, 813210, 5082930, 3189000, 90, 1048576, 983040, 50097152, 5179037, 3189000, 0],
        [5314488, 819764, 813210, 5223720, 1920000, 90, 1048576, 983040, 48262144, 5314488, 1920000, 0],
    ]),
];

#[test]
fn command_streams_match_the_recorded_constants() {
    let got: Vec<(&str, [Row; 2])> = cells()
        .iter()
        .map(|c| {
            (
                c.name,
                [
                    measure(c, ExecModel::Pipelined),
                    measure(c, ExecModel::PipelinedBuffer),
                ],
            )
        })
        .collect();
    assert_eq!(got, EXPECTED.to_vec());
}

#[test]
fn the_faulty_cell_really_retries() {
    let row = EXPECTED
        .iter()
        .find(|(name, _)| *name == "faulty_stencil")
        .expect("faulty cell present")
        .1;
    assert!(row.iter().all(|r| r[11] > 0), "{row:?}");
}
