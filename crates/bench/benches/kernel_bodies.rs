//! Functional kernel-body throughput: the scalar (pre-blocking)
//! reference body of each app vs the cache-blocked / slice-streamed
//! body the kernels now execute.
//!
//! Run with `cargo bench --bench kernel_bodies`; CI smoke-runs it via
//! `-- --test` (one iteration per benchmark). Shapes are deliberately
//! smaller than `figures perf --functional` so the smoke run stays
//! fast in debug builds — the figures subcommand is the recorded
//! measurement.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pipeline_apps::{conv3d, matmul, qcd, stencil};

fn fill(seed: u64, len: usize) -> Vec<f32> {
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

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_bodies");
    g.sample_size(10);

    let n = 128;
    let a = fill(0xA, n * n);
    let b = fill(0xB, n * n);
    g.bench_function("gemm_scalar_128", |bch| {
        b_iter_gemm(bch, &a, &b, n, matmul::gemm_scalar)
    });
    g.bench_function("gemm_blocked_128", |bch| {
        bch.iter(|| {
            let mut cm = vec![0.0f32; n * n];
            matmul::gemm_rank_update(&mut cm, n, &a, n, &b, n);
            black_box(cm)
        })
    });

    let (nx, ny) = (256, 256);
    let plane = nx * ny;
    let grid = fill(0x57, 3 * plane);
    let (below, rest) = grid.split_at(plane);
    let (mid, above) = rest.split_at(plane);
    g.bench_function("stencil_plane_scalar_256", |bch| {
        bch.iter(|| {
            let mut out = vec![0.0f32; plane];
            stencil::stencil_plane_scalar(&mut out, below, mid, above, nx, ny, 0.5, 0.1);
            black_box(out)
        })
    });
    g.bench_function("stencil_plane_sliced_256", |bch| {
        bch.iter(|| {
            let mut out = vec![0.0f32; plane];
            stencil::stencil_plane(&mut out, below, mid, above, nx, ny, 0.5, 0.1);
            black_box(out)
        })
    });

    let vol = fill(0xC0, 3 * plane);
    let (km, rest) = vol.split_at(plane);
    let (kmid, kp) = rest.split_at(plane);
    g.bench_function("conv3d_plane_scalar_256", |bch| {
        bch.iter(|| {
            let mut out = vec![0.0f32; plane];
            conv3d::conv3d_plane_scalar(&mut out, km, kmid, kp, nx, ny);
            black_box(out)
        })
    });
    g.bench_function("conv3d_plane_sliced_256", |bch| {
        bch.iter(|| {
            let mut out = vec![0.0f32; plane];
            conv3d::conv3d_plane(&mut out, km, kmid, kp, nx, ny);
            black_box(out)
        })
    });

    let qn = 8;
    let vol3 = qn * qn * qn;
    let (ps, us) = (vol3 * qcd::PSI_SITE, vol3 * qcd::U_SITE);
    let psi = fill(0x9C1, 3 * ps);
    let u = fill(0x9C2, 2 * us);
    let f = fill(0x9C3, 2 * us);
    let slices = qcd::HopSlices {
        psi_m: &psi[..ps],
        psi_0: &psi[ps..2 * ps],
        psi_p: &psi[2 * ps..],
        u_m: &u[..us],
        u_0: &u[us..],
        f_m: &f[..us],
        f_0: &f[us..],
    };
    g.bench_function("qcd_sweep_scalar_n8", |bch| {
        bch.iter(|| {
            let mut out = vec![0.0f32; ps];
            qcd::hopping_sweep_scalar(qn, &slices, &mut out);
            black_box(out)
        })
    });
    g.bench_function("qcd_sweep_lanes_n8", |bch| {
        bch.iter(|| {
            let mut out = vec![0.0f32; ps];
            qcd::hopping_sweep(qn, &slices, &mut out);
            black_box(out)
        })
    });

    g.finish();
}

fn b_iter_gemm(
    bch: &mut criterion::Bencher,
    a: &[f32],
    b: &[f32],
    n: usize,
    body: fn(&mut [f32], &[f32], &[f32], usize),
) {
    bch.iter(|| {
        let mut cm = vec![0.0f32; n * n];
        body(&mut cm, a, b, n);
        black_box(cm)
    })
}

criterion_group!(benches, bench);
criterion_main!(benches);
