//! Every serving job shape checked against an independent CPU oracle:
//! a job's output under each exec model must be bit-identical to the
//! scalar reference computed from the job's own host inputs
//! (`matmul::gemm_scalar` for GEMM, each app's `cpu_reference`
//! otherwise). `model_ladder.rs` only compares models with each other;
//! this pins what they all agree on.

use gpsim::{DeviceProfile, ExecMode, Gpu};
use pipeline_apps::matmul::gemm_scalar;
use pipeline_apps::util::read_host;
use pipeline_apps::{Conv3dConfig, QcdConfig, StencilConfig};
use pipeline_rt::{run_model, ExecModel, RunOptions};
use pipeline_serve::{GemmConfig, JobShape};

const MODELS: [ExecModel; 3] = [
    ExecModel::Naive,
    ExecModel::Pipelined,
    ExecModel::PipelinedBuffer,
];

/// Materialize `shape` with `salt` on a fresh functional device, compute
/// the oracle from the job's host inputs, run it under `model`, and
/// compare the output bit for bit.
fn assert_matches_oracle(shape: JobShape, salt: u64, model: ExecModel) {
    let mut g = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
    let inst = shape.setup(&mut g, salt).unwrap();
    let input = |i: usize| read_host(&g, inst.buffers[i]).unwrap();
    let expect = match shape {
        JobShape::Gemm(c) => {
            let mut out = vec![0.0f32; c.n * c.n];
            gemm_scalar(&mut out, &input(0), &input(1), c.n);
            out
        }
        JobShape::Conv3d(c) => c.cpu_reference(&input(0)),
        JobShape::Stencil(c) => c.cpu_reference(&input(0)),
        JobShape::Qcd(c) => c.cpu_reference(&input(0), &input(1), &input(2)),
    };
    run_model(
        &mut g,
        &inst.region,
        &*inst.builder,
        model,
        &RunOptions::default(),
    )
    .unwrap();
    let got = read_host(&g, inst.output).unwrap();
    assert_eq!(got.len(), expect.len(), "{shape:?} under {model:?}: length");
    for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{shape:?} under {model:?}: element {i} is {a:e}, oracle {b:e}"
        );
    }
}

#[test]
fn every_job_shape_matches_its_cpu_oracle_under_every_model() {
    let shapes = [
        // Several row blocks per chunk, a chunk that does not divide
        // the block count, and more chunks than streams, so ring slots
        // are written again.
        JobShape::Gemm(GemmConfig {
            n: 24,
            bs: 2,
            chunk: 5,
            streams: 2,
        }),
        // One block spanning the whole matrix.
        JobShape::Gemm(GemmConfig {
            n: 12,
            bs: 12,
            chunk: 1,
            streams: 2,
        }),
        JobShape::Conv3d(Conv3dConfig::test_small()),
        JobShape::Stencil(StencilConfig::test_small()),
        JobShape::Qcd(QcdConfig::test_small()),
    ];
    for (salt, shape) in shapes.into_iter().enumerate() {
        for model in MODELS {
            assert_matches_oracle(shape, 0x5EED + salt as u64, model);
        }
    }
}
