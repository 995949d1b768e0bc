//! The degradation ladder's standing guarantee: every exec model
//! produces bit-identical output for the same region and salt, so a
//! job admitted at a lower rung still verifies against its requested
//! model — and the one case that would break it (resuming a partially
//! run job under the naive model, which stages and writes back whole
//! arrays) is rejected by the core, not silently corrupted.

use gpsim::{DeviceProfile, ExecMode, Gpu};
use pipeline_apps::util::read_host;
use pipeline_apps::{Conv3dConfig, QcdConfig, StencilConfig};
use pipeline_rt::{run_model, ExecModel, ResumableRun, RunOptions};
use pipeline_serve::{GemmConfig, JobShape, JobSpec, WorkloadConfig};

/// One job of each shape kind from a seeded stream.
fn one_of_each_shape() -> Vec<JobSpec> {
    let jobs = WorkloadConfig::new(0xC4A0_0004, 40, 3).generate();
    let mut seen = std::collections::HashSet::new();
    jobs.into_iter()
        .filter(|j| seen.insert(std::mem::discriminant(&j.shape)))
        .collect()
}

fn clean_bits(job: &JobSpec, model: ExecModel) -> Vec<u32> {
    let mut g = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
    let inst = job.shape.setup(&mut g, job.id).unwrap();
    run_model(
        &mut g,
        &inst.region,
        &*inst.builder,
        model,
        &RunOptions::default(),
    )
    .unwrap();
    read_host(&g, inst.output)
        .unwrap()
        .iter()
        .map(|f| f.to_bits())
        .collect()
}

fn job(id: u64, shape: JobShape) -> JobSpec {
    JobSpec {
        id,
        tenant: 0,
        shape,
        model: ExecModel::PipelinedBuffer,
        priority: 0,
        arrival: gpsim::SimTime::ZERO,
        deadline: None,
        after: None,
    }
}

/// Every non-GEMM shape the workload generator draws, grouped by
/// input: each group shares one input and lists every `chunk`/`streams`
/// the generator pairs with it.
fn generated_inputs() -> Vec<Vec<JobShape>> {
    let mut groups = Vec::new();
    for nk in [10, 14, 18] {
        let mut group = Vec::new();
        for chunk in 2..4 {
            for streams in 2..4 {
                let mut c = Conv3dConfig::test_small();
                (c.nk, c.chunk, c.streams) = (nk, chunk, streams);
                group.push(JobShape::Conv3d(c));
            }
        }
        groups.push(group);
    }
    for nz in [12, 16, 20] {
        let mut group = Vec::new();
        for chunk in 2..4 {
            for streams in 2..4 {
                let mut c = StencilConfig::test_small();
                (c.nz, c.chunk, c.streams) = (nz, chunk, streams);
                group.push(JobShape::Stencil(c));
            }
        }
        groups.push(group);
    }
    for nt in [6, 8, 10] {
        let mut group = Vec::new();
        for streams in 2..4 {
            let mut c = QcdConfig::test_small();
            (c.nt, c.streams) = (nt, streams);
            group.push(JobShape::Qcd(c));
        }
        groups.push(group);
    }
    groups
}

/// The server's verification cache keys references by input and model
/// only: every schedule of one input yields the same uninterrupted
/// output under each model, so one reference serves them all.
#[test]
fn uninterrupted_output_ignores_the_schedule() {
    for (g, group) in generated_inputs().iter().enumerate() {
        let key = group[0].input_key();
        assert!(key.is_some(), "{} has no input key", group[0].name());
        let reference = clean_bits(&job(g as u64, group[0]), ExecModel::PipelinedBuffer);
        for (i, &shape) in group.iter().enumerate() {
            assert_eq!(
                shape.input_key(),
                key,
                "{shape:?}: key depends on the schedule"
            );
            // A distinct id per job: only GEMM fills are salted by it.
            let spec = job(1000 + i as u64, shape);
            for model in [
                ExecModel::Naive,
                ExecModel::Pipelined,
                ExecModel::PipelinedBuffer,
            ] {
                assert_eq!(
                    clean_bits(&spec, model),
                    reference,
                    "{shape:?} under {model:?} diverged from its input's reference"
                );
            }
        }
    }
}

#[test]
fn input_key_covers_every_value_that_reaches_the_output() {
    let gemm = JobShape::Gemm(GemmConfig {
        n: 16,
        bs: 4,
        chunk: 1,
        streams: 2,
    });
    assert_eq!(gemm.input_key(), None, "GEMM fills are salted per job");

    let base = StencilConfig::test_small();
    let mut other_c1 = base;
    other_c1.c1 = 0.2;
    assert_ne!(
        JobShape::Stencil(base).input_key(),
        JobShape::Stencil(other_c1).input_key()
    );
    let mut other_schedule = base;
    other_schedule.chunk += 1;
    other_schedule.streams += 1;
    assert_eq!(
        JobShape::Stencil(base).input_key(),
        JobShape::Stencil(other_schedule).input_key()
    );

    // Distinct inputs never share a key.
    let groups = generated_inputs();
    for (i, a) in groups.iter().enumerate() {
        for b in &groups[i + 1..] {
            assert_ne!(a[0].input_key(), b[0].input_key());
        }
    }
}

#[test]
fn every_ladder_rung_is_bit_identical() {
    for job in &one_of_each_shape() {
        let reference = clean_bits(job, ExecModel::PipelinedBuffer);
        for rung in [ExecModel::Pipelined, ExecModel::Naive] {
            assert_eq!(
                clean_bits(job, rung),
                reference,
                "job {} under {rung:?} diverged from PipelinedBuffer",
                job.id
            );
        }
    }
}

/// A mid-job switch between the two pipelined rungs is bit-clean:
/// chunk-granular slices are model-independent.
#[test]
fn pipelined_rung_switch_mid_job_is_bit_identical() {
    for job in &one_of_each_shape() {
        let reference = clean_bits(job, ExecModel::PipelinedBuffer);
        let mut g = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        let inst = job.shape.setup(&mut g, job.id).unwrap();
        let mut run = ResumableRun::new(&g, &inst.region).unwrap();
        let half = (run.remaining() / 2).max(1);
        run.run_slice(
            &mut g,
            &*inst.builder,
            ExecModel::PipelinedBuffer,
            &RunOptions::default(),
            half,
        )
        .unwrap();
        while !run.is_done() {
            run.run_slice(
                &mut g,
                &*inst.builder,
                ExecModel::Pipelined,
                &RunOptions::default(),
                2,
            )
            .unwrap();
        }
        let got: Vec<u32> = read_host(&g, inst.output)
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(
            got, reference,
            "job {} diverged after a rung switch",
            job.id
        );
    }
}

/// Resuming a partially-run job under the naive model would write
/// back whole arrays and clobber earlier slices' output; the core must
/// refuse rather than corrupt.
#[test]
fn naive_cannot_resume_a_partially_run_job() {
    let job = &one_of_each_shape()[0];
    let mut g = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
    let inst = job.shape.setup(&mut g, job.id).unwrap();
    let mut run = ResumableRun::new(&g, &inst.region).unwrap();
    let half = (run.remaining() / 2).max(1);
    run.run_slice(
        &mut g,
        &*inst.builder,
        ExecModel::PipelinedBuffer,
        &RunOptions::default(),
        half,
    )
    .unwrap();
    let remaining = run.remaining();
    assert!(remaining > 0, "need a partial job for this test");
    let err = run
        .run_slice(
            &mut g,
            &*inst.builder,
            ExecModel::Naive,
            &RunOptions::default(),
            remaining,
        )
        .unwrap_err();
    assert!(err.to_string().contains("naive"), "unexpected error: {err}");
    // The refusal is non-destructive: the job still completes cleanly
    // under a resumable rung and matches the uninterrupted reference.
    while !run.is_done() {
        run.run_slice(
            &mut g,
            &*inst.builder,
            ExecModel::PipelinedBuffer,
            &RunOptions::default(),
            2,
        )
        .unwrap();
    }
    let got: Vec<u32> = read_host(&g, inst.output)
        .unwrap()
        .iter()
        .map(|f| f.to_bits())
        .collect();
    assert_eq!(got, clean_bits(job, ExecModel::PipelinedBuffer));
}
