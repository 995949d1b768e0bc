//! Lattice QCD proxy (paper §V-D): a staggered-fermion hopping operator
//! on an `n⁴` lattice.
//!
//! The paper's application is a SciDAC production code characterized by
//! `O(C·n⁴)` data with a "relatively large" constant `C`,
//! high-dimensional indexing, and several parallel regions per
//! transferred slice. This proxy preserves those properties with the
//! standard structure of a HISQ-style staggered solver:
//!
//! * Each site carries **four right-hand-side vectors** (`ψ`, 4 × 3
//!   complex = 24 floats), **thin links** (`U`, 4 × 3×3 complex = 72
//!   floats) and **fat links** (`F`, 72 floats) — `C` = 192 floats/site.
//! * The hopping term, applied with both link fields to every RHS:
//!   `out(x) = Σ_μ [ (U+F)_μ(x)·ψ(x+μ̂) − (U+F)†_μ(x−μ̂)·ψ(x−μ̂) ]`
//!   with periodic boundaries in the three spatial directions and open
//!   boundaries in `t`, the split dimension (window `[t-1:3]`).
//! * The production code makes many passes over each resident slice
//!   (solver iterations); the proxy computes one representative sweep
//!   functionally and charges [`SWEEPS_PER_SLICE`] passes to the cost
//!   model, reproducing the paper's ≈50 % transfer share (Figure 3).

use gpsim::{Gpu, HostBufId, KernelCost, KernelLaunch};
use pipeline_rt::{
    Affine, ChunkCtx, MapDir, MapSpec, Region, RegionSpec, RtResult, Schedule, SplitSpec,
};

use crate::util::fill_random;

/// Right-hand-side vectors per site.
pub const N_RHS: usize = 4;
/// Floats per ψ site (4 RHS × 3 complex components).
pub const PSI_SITE: usize = N_RHS * 6;
/// Floats per link-field site (4 directions × 3×3 complex).
pub const U_SITE: usize = 72;
/// Solver passes charged to the cost model per resident slice.
pub const SWEEPS_PER_SLICE: u64 = 16;

/// Lattice QCD proxy configuration (lattice `n³ × nt`, split along `t`).
#[derive(Debug, Clone, Copy)]
pub struct QcdConfig {
    /// Spatial extent (per dimension).
    pub n: usize,
    /// Temporal extent (the split dimension).
    pub nt: usize,
    /// Time slices per chunk.
    pub chunk: usize,
    /// GPU streams.
    pub streams: usize,
}

impl QcdConfig {
    /// The paper's test sizes: `n = 12` (small), `24` (medium), `36`
    /// (large), with `nt = n`.
    pub fn paper_size(n: usize) -> Self {
        QcdConfig {
            n,
            nt: n,
            chunk: 1,
            streams: 3,
        }
    }

    /// Small shape for functional validation.
    pub fn test_small() -> Self {
        QcdConfig {
            n: 4,
            nt: 8,
            chunk: 2,
            streams: 3,
        }
    }

    /// Spatial sites per time slice.
    pub fn vol3(&self) -> usize {
        self.n * self.n * self.n
    }

    /// ψ floats per time slice.
    pub fn psi_slice(&self) -> usize {
        self.vol3() * PSI_SITE
    }

    /// Link-field floats per time slice (same for `U` and `F`).
    pub fn u_slice(&self) -> usize {
        self.vol3() * U_SITE
    }

    /// Total device bytes of the naive model (ψ, U, F, out fully
    /// resident).
    pub fn naive_bytes(&self) -> u64 {
        ((2 * self.psi_slice() + 2 * self.u_slice()) * self.nt) as u64 * 4
    }

    /// Build the region spec: ψ, U and F as `[t-1:3]` inputs, out as
    /// `[t:1]` output; loop `t in 1..nt-1`.
    pub fn spec(&self) -> RegionSpec {
        let input = |name: &str, slice_elems: usize| MapSpec {
            name: name.into(),
            dir: MapDir::To,
            split: SplitSpec::OneD {
                offset: Affine::shifted(-1),
                window: 3,
                extent: self.nt,
                slice_elems,
            },
        };
        RegionSpec::new(Schedule::static_(self.chunk, self.streams))
            .with_map(input("psi", self.psi_slice()))
            .with_map(input("U", self.u_slice()))
            .with_map(input("F", self.u_slice()))
            .with_map(MapSpec {
                name: "out".into(),
                dir: MapDir::From,
                split: SplitSpec::OneD {
                    offset: Affine::IDENTITY,
                    window: 1,
                    extent: self.nt,
                    slice_elems: self.psi_slice(),
                },
            })
            // The paper observes the QCD kernel's "huge indexing
            // operation" makes the buffered version measurably slower
            // than the hand-coded pipeline (§V-D).
            .with_index_overhead(0.12)
    }

    /// Allocate and initialize host fields, and bind the region.
    pub fn setup(&self, gpu: &mut Gpu) -> RtResult<QcdInstance> {
        let psi = gpu.alloc_host(self.psi_slice() * self.nt, true)?;
        let u = gpu.alloc_host(self.u_slice() * self.nt, true)?;
        let f = gpu.alloc_host(self.u_slice() * self.nt, true)?;
        let out = gpu.alloc_host(self.psi_slice() * self.nt, true)?;
        fill_random(gpu, psi, 0x9C1)?;
        fill_random(gpu, u, 0x9C2)?;
        fill_random(gpu, f, 0x9C3)?;
        let region = Region::new(self.spec(), 1, (self.nt - 1) as i64, vec![psi, u, f, out]);
        Ok(QcdInstance {
            config: *self,
            region,
            psi,
            u,
            f,
            out,
        })
    }

    /// Cost of one chunk: [`SWEEPS_PER_SLICE`] hopping sweeps per slice.
    /// Per site and sweep: 2 link fields × 8 hops × 4 RHS ≈ 4200 flops,
    /// ≈1600 streamed bytes (memory-bound, like the real operator).
    fn chunk_cost(&self, slices: u64) -> KernelCost {
        let sites = self.vol3() as u64 * slices;
        KernelCost {
            flops: 4200 * sites * SWEEPS_PER_SLICE,
            bytes: 1600 * sites * SWEEPS_PER_SLICE,
        }
    }

    /// Chunk-kernel builder shared by all execution models.
    pub fn builder(&self) -> impl Fn(&ChunkCtx) -> KernelLaunch + 'static {
        let cfg = *self;
        move |ctx: &ChunkCtx| {
            let (t0, t1) = (ctx.k0, ctx.k1);
            let (vpsi, vu, vf, vout) = (ctx.view(0), ctx.view(1), ctx.view(2), ctx.view(3));
            KernelLaunch::new("qcd_hopping", cfg.chunk_cost((t1 - t0) as u64), move |kc| {
                let psi_slice = cfg.psi_slice();
                let u_slice = cfg.u_slice();
                // One borrow per mapped array for the whole chunk;
                // the seven per-slice windows resolve through them.
                let pv = kc.read_view(vpsi.base())?;
                let uv = kc.read_view(vu.base())?;
                let fv = kc.read_view(vf.base())?;
                let mut ov = kc.write_view(vout.base())?;
                for t in t0..t1 {
                    let slices = HopSlices {
                        psi_m: pv.slice(vpsi.slice_ptr(t - 1), psi_slice)?,
                        psi_0: pv.slice(vpsi.slice_ptr(t), psi_slice)?,
                        psi_p: pv.slice(vpsi.slice_ptr(t + 1), psi_slice)?,
                        u_m: uv.slice(vu.slice_ptr(t - 1), u_slice)?,
                        u_0: uv.slice(vu.slice_ptr(t), u_slice)?,
                        f_m: fv.slice(vf.slice_ptr(t - 1), u_slice)?,
                        f_0: fv.slice(vf.slice_ptr(t), u_slice)?,
                    };
                    let out = ov.slice_mut(vout.slice_ptr(t), psi_slice)?;
                    hopping_sweep(cfg.n, &slices, out);
                }
                Ok(())
            })
        }
    }

    /// Sequential CPU reference over the full lattice (identical
    /// arithmetic order → exact equality).
    pub fn cpu_reference(&self, psi: &[f32], u: &[f32], f: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.psi_slice() * self.nt];
        let ps = self.psi_slice();
        let us = self.u_slice();
        for t in 1..self.nt - 1 {
            let slices = HopSlices {
                psi_m: &psi[(t - 1) * ps..t * ps],
                psi_0: &psi[t * ps..(t + 1) * ps],
                psi_p: &psi[(t + 1) * ps..(t + 2) * ps],
                u_m: &u[(t - 1) * us..t * us],
                u_0: &u[t * us..(t + 1) * us],
                f_m: &f[(t - 1) * us..t * us],
                f_0: &f[t * us..(t + 1) * us],
            };
            hopping_sweep_scalar(self.n, &slices, &mut out[t * ps..(t + 1) * ps]);
        }
        out
    }
}

/// The seven input slices of one sweep.
pub struct HopSlices<'a> {
    /// ψ at slice `t-1`.
    pub psi_m: &'a [f32],
    /// ψ at slice `t`.
    pub psi_0: &'a [f32],
    /// ψ at slice `t+1`.
    pub psi_p: &'a [f32],
    /// Thin links at slice `t-1`.
    pub u_m: &'a [f32],
    /// Thin links at slice `t`.
    pub u_0: &'a [f32],
    /// Fat links at slice `t-1`.
    pub f_m: &'a [f32],
    /// Fat links at slice `t`.
    pub f_0: &'a [f32],
}

/// Complex 3-vector accumulator.
#[derive(Clone, Copy, Default)]
struct Vec3 {
    re: [f32; 3],
    im: [f32; 3],
}

#[inline]
fn load_vec(psi: &[f32], site: usize, rhs: usize) -> Vec3 {
    let o = site * PSI_SITE + rhs * 6;
    Vec3 {
        re: [psi[o], psi[o + 2], psi[o + 4]],
        im: [psi[o + 1], psi[o + 3], psi[o + 5]],
    }
}

/// `acc += U(site,mu) · v` (3×3 complex mat-vec).
#[inline]
fn mat_vec_acc(u: &[f32], site: usize, mu: usize, v: &Vec3, acc: &mut Vec3) {
    let base = (site * 4 + mu) * 18;
    for r in 0..3 {
        for c in 0..3 {
            let o = base + (r * 3 + c) * 2;
            let (ur, ui) = (u[o], u[o + 1]);
            acc.re[r] += ur * v.re[c] - ui * v.im[c];
            acc.im[r] += ur * v.im[c] + ui * v.re[c];
        }
    }
}

/// `acc -= U†(site,mu) · v` (conjugate-transpose mat-vec).
#[inline]
fn mat_dag_vec_sub(u: &[f32], site: usize, mu: usize, v: &Vec3, acc: &mut Vec3) {
    let base = (site * 4 + mu) * 18;
    for r in 0..3 {
        for c in 0..3 {
            // (U†)[r][c] = conj(U[c][r])
            let o = base + (c * 3 + r) * 2;
            let (ur, ui) = (u[o], -u[o + 1]);
            acc.re[r] -= ur * v.re[c] - ui * v.im[c];
            acc.im[r] -= ur * v.im[c] + ui * v.re[c];
        }
    }
}

/// One hopping sweep for one time slice, scalar-indexed: the pre-PR
/// kernel body, kept as the bit-exact reference ([`QcdConfig::cpu_reference`]
/// uses it) and the baseline the `kernel_bodies` bench compares against.
/// Spatial directions (μ = 0,1,2) are periodic; the temporal direction
/// (μ = 3) couples the neighbouring slices.
pub fn hopping_sweep_scalar(n: usize, s: &HopSlices<'_>, out: &mut [f32]) {
    let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let site = idx(x, y, z);
                let fwd = [
                    idx((x + 1) % n, y, z),
                    idx(x, (y + 1) % n, z),
                    idx(x, y, (z + 1) % n),
                ];
                let bwd = [
                    idx((x + n - 1) % n, y, z),
                    idx(x, (y + n - 1) % n, z),
                    idx(x, y, (z + n - 1) % n),
                ];
                for rhs in 0..N_RHS {
                    let mut acc = Vec3::default();
                    for links in [s.u_0, s.f_0] {
                        for mu in 0..3 {
                            let vf = load_vec(s.psi_0, fwd[mu], rhs);
                            mat_vec_acc(links, site, mu, &vf, &mut acc);
                            let vb = load_vec(s.psi_0, bwd[mu], rhs);
                            mat_dag_vec_sub(links, bwd[mu], mu, &vb, &mut acc);
                        }
                    }
                    // Temporal hops to the neighbouring slices.
                    let vf = load_vec(s.psi_p, site, rhs);
                    mat_vec_acc(s.u_0, site, 3, &vf, &mut acc);
                    let vb = load_vec(s.psi_m, site, rhs);
                    mat_dag_vec_sub(s.u_m, site, 3, &vb, &mut acc);
                    let vf = load_vec(s.psi_p, site, rhs);
                    mat_vec_acc(s.f_0, site, 3, &vf, &mut acc);
                    let vb = load_vec(s.psi_m, site, rhs);
                    mat_dag_vec_sub(s.f_m, site, 3, &vb, &mut acc);

                    let o = site * PSI_SITE + rhs * 6;
                    out[o] = acc.re[0];
                    out[o + 1] = acc.im[0];
                    out[o + 2] = acc.re[1];
                    out[o + 3] = acc.im[1];
                    out[o + 4] = acc.re[2];
                    out[o + 5] = acc.im[2];
                }
            }
        }
    }
}

/// Flattened SU(3) matrix: 9 complex entries split into re/im planes,
/// loaded from the interleaved link field once and applied to every RHS
/// lane.
#[derive(Clone, Copy)]
struct Su3 {
    re: [f32; 9],
    im: [f32; 9],
}

#[inline]
fn load_su3(u: &[f32], site: usize, mu: usize) -> Su3 {
    let base = (site * 4 + mu) * 18;
    let m = &u[base..base + 18];
    let mut re = [0.0f32; 9];
    let mut im = [0.0f32; 9];
    for e in 0..9 {
        re[e] = m[2 * e];
        im[e] = m[2 * e + 1];
    }
    Su3 { re, im }
}

/// One value per right-hand side: lane `l` carries RHS `l`.
type Lanes = [f32; N_RHS];

/// Complex 3-vector over all [`N_RHS`] right-hand sides at once, one
/// lane per RHS, so every colour-component operation is a 4-wide SIMD op.
#[derive(Clone, Copy, Default)]
struct LaneVec3 {
    re: [Lanes; 3],
    im: [Lanes; 3],
}

/// Load one site's 24 ψ floats (RHS-major, interleaved re/im) into the
/// lane layout.
#[inline]
fn load_lanes(psi: &[f32], site: usize) -> LaneVec3 {
    let p = &psi[site * PSI_SITE..(site + 1) * PSI_SITE];
    let mut v = LaneVec3::default();
    for (rhs, comps) in p.chunks_exact(6).enumerate() {
        for c in 0..3 {
            v.re[c][rhs] = comps[2 * c];
            v.im[c][rhs] = comps[2 * c + 1];
        }
    }
    v
}

/// Store the lane accumulator back into one site's RHS-major slots.
#[inline]
fn store_lanes(out: &mut [f32], site: usize, acc: &LaneVec3) {
    let o = &mut out[site * PSI_SITE..(site + 1) * PSI_SITE];
    for (rhs, comps) in o.chunks_exact_mut(6).enumerate() {
        for r in 0..3 {
            comps[2 * r] = acc.re[r][rhs];
            comps[2 * r + 1] = acc.im[r][rhs];
        }
    }
}

/// `acc += M · v` in every lane: each lane runs [`mat_vec_acc`]'s
/// multiply/add sequence for its RHS. Forced inline (it is not inlined
/// otherwise) so the accumulator stays in registers across a site's 16
/// applications instead of round-tripping through memory per call.
#[inline(always)]
fn lanes_mv_acc(m: &Su3, v: &LaneVec3, acc: &mut LaneVec3) {
    for r in 0..3 {
        for c in 0..3 {
            let e = r * 3 + c;
            let (ur, ui) = (m.re[e], m.im[e]);
            for l in 0..N_RHS {
                acc.re[r][l] += ur * v.re[c][l] - ui * v.im[c][l];
                acc.im[r][l] += ur * v.im[c][l] + ui * v.re[c][l];
            }
        }
    }
}

/// `acc -= M† · v` in every lane (mirror of [`mat_dag_vec_sub`]);
/// forced inline like [`lanes_mv_acc`].
#[inline(always)]
fn lanes_mv_dag_sub(m: &Su3, v: &LaneVec3, acc: &mut LaneVec3) {
    for r in 0..3 {
        for c in 0..3 {
            let e = c * 3 + r;
            let (ur, ui) = (m.re[e], -m.im[e]);
            for l in 0..N_RHS {
                acc.re[r][l] -= ur * v.re[c][l] - ui * v.im[c][l];
                acc.im[r][l] -= ur * v.im[c][l] + ui * v.re[c][l];
            }
        }
    }
}

/// One hopping sweep for one time slice, vectorised across right-hand
/// sides: the accumulator holds one lane per RHS (`LaneVec3`), each
/// neighbour's ψ is loaded once into that layout, and each link matrix
/// is loaded once as a flattened `Su3` and applied to all lanes. Every
/// lane runs [`hopping_sweep_scalar`]'s exact multiply/add sequence for
/// its RHS, so results are bit-exact.
pub fn hopping_sweep(n: usize, s: &HopSlices<'_>, out: &mut [f32]) {
    let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let site = idx(x, y, z);
                let fwd = [
                    idx((x + 1) % n, y, z),
                    idx(x, (y + 1) % n, z),
                    idx(x, y, (z + 1) % n),
                ];
                let bwd = [
                    idx((x + n - 1) % n, y, z),
                    idx(x, (y + n - 1) % n, z),
                    idx(x, y, (z + n - 1) % n),
                ];
                let pf = fwd.map(|nb| load_lanes(s.psi_0, nb));
                let pb = bwd.map(|nb| load_lanes(s.psi_0, nb));
                let mut acc = LaneVec3::default();
                for links in [s.u_0, s.f_0] {
                    for mu in 0..3 {
                        lanes_mv_acc(&load_su3(links, site, mu), &pf[mu], &mut acc);
                        lanes_mv_dag_sub(&load_su3(links, bwd[mu], mu), &pb[mu], &mut acc);
                    }
                }
                // Temporal hops to the neighbouring slices.
                let vt_p = load_lanes(s.psi_p, site);
                let vt_m = load_lanes(s.psi_m, site);
                lanes_mv_acc(&load_su3(s.u_0, site, 3), &vt_p, &mut acc);
                lanes_mv_dag_sub(&load_su3(s.u_m, site, 3), &vt_m, &mut acc);
                lanes_mv_acc(&load_su3(s.f_0, site, 3), &vt_p, &mut acc);
                lanes_mv_dag_sub(&load_su3(s.f_m, site, 3), &vt_m, &mut acc);
                store_lanes(out, site, &acc);
            }
        }
    }
}

/// A bound QCD problem.
pub struct QcdInstance {
    /// The configuration that produced this instance.
    pub config: QcdConfig,
    /// The bound region (loop `t in 1..nt-1`).
    pub region: Region,
    /// ψ field host buffer (4 RHS).
    pub psi: HostBufId,
    /// Thin gauge links host buffer.
    pub u: HostBufId,
    /// Fat gauge links host buffer.
    pub f: HostBufId,
    /// Output field host buffer.
    pub out: HostBufId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assert_exact, read_host};
    use gpsim::{DeviceProfile, ExecMode};
    use pipeline_rt::{run_model, ExecModel, RunOptions};

    #[test]
    fn all_models_match_cpu_reference() {
        let cfg = QcdConfig::test_small();
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Functional).unwrap();
        gpu.set_race_check(true);
        let inst = cfg.setup(&mut gpu).unwrap();
        let psi = read_host(&gpu, inst.psi).unwrap();
        let u = read_host(&gpu, inst.u).unwrap();
        let f = read_host(&gpu, inst.f).unwrap();
        let expect = cfg.cpu_reference(&psi, &u, &f);
        let builder = cfg.builder();

        run_model(
            &mut gpu,
            &inst.region,
            &builder,
            ExecModel::Naive,
            &RunOptions::default(),
        )
        .unwrap();
        assert_exact(&read_host(&gpu, inst.out).unwrap(), &expect, "naive");

        gpu.host_fill(inst.out, |_| 0.0).unwrap();
        run_model(
            &mut gpu,
            &inst.region,
            &builder,
            ExecModel::Pipelined,
            &RunOptions::default(),
        )
        .unwrap();
        assert_exact(&read_host(&gpu, inst.out).unwrap(), &expect, "pipelined");

        gpu.host_fill(inst.out, |_| 0.0).unwrap();
        run_model(
            &mut gpu,
            &inst.region,
            &builder,
            ExecModel::PipelinedBuffer,
            &RunOptions::default(),
        )
        .unwrap();
        assert_exact(&read_host(&gpu, inst.out).unwrap(), &expect, "buffer");
    }

    /// A field generator: `(seed, len) -> values`.
    type Fill = fn(u64, usize) -> Vec<f32>;

    /// Run both sweeps over ψ drawn by `psi_fill` and links drawn by
    /// `link_fill`, and compare their outputs bit for bit.
    fn assert_sweeps_bit_identical(n: usize, psi_fill: Fill, link_fill: Fill) {
        let vol3 = n * n * n;
        let (ps, us) = (vol3 * PSI_SITE, vol3 * U_SITE);
        let psi = psi_fill(1, 3 * ps);
        let u = link_fill(2, 2 * us);
        let f = link_fill(3, 2 * us);
        let slices = HopSlices {
            psi_m: &psi[..ps],
            psi_0: &psi[ps..2 * ps],
            psi_p: &psi[2 * ps..],
            u_m: &u[..us],
            u_0: &u[us..],
            f_m: &f[..us],
            f_0: &f[us..],
        };
        let mut scalar = vec![0.0f32; ps];
        let mut lanes = vec![0.0f32; ps];
        hopping_sweep_scalar(n, &slices, &mut scalar);
        hopping_sweep(n, &slices, &mut lanes);
        for (i, (a, b)) in scalar.iter().zip(&lanes).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "n = {n}, element {i}: scalar {a:e} vs lanes {b:e}"
            );
        }
    }

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 40
        }
    }

    fn uniform(seed: u64, len: usize) -> Vec<f32> {
        let mut next = lcg(seed);
        (0..len)
            .map(|_| (next() as f32 / (1u64 << 24) as f32) * 2.0 - 1.0)
            .collect()
    }

    /// Signed zeros, subnormals and values of magnitude up to `huge`
    /// mixed with ordinary values in `[-1, 1)`.
    fn special(seed: u64, len: usize, huge: f32) -> Vec<f32> {
        let mut next = lcg(seed);
        (0..len)
            .map(|_| {
                let r = next();
                let unit = (r & 0xFFFF) as f32 / 65536.0 * 2.0 - 1.0;
                match (r >> 16) % 6 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::from_bits(1 + (r as u32 & 0x7F_FFFF)) * unit.signum(),
                    3 => huge * unit,
                    _ => unit,
                }
            })
            .collect()
    }

    #[test]
    fn optimized_sweep_is_bit_identical_to_scalar() {
        // At n ≤ 2 each spatial forward and backward neighbour coincide.
        for n in [1, 2, 3, 5] {
            assert_sweeps_bit_identical(n, uniform, uniform);
        }
    }

    #[test]
    fn optimized_sweep_is_bit_identical_on_special_values() {
        let huge: Fill = |seed, len| special(seed, len, 1e30);
        let bounded: Fill = |seed, len| special(seed, len, 1.0);
        for n in [1, 2, 3, 5] {
            // Links near 1e30 against bounded ψ: large finite sums.
            assert_sweeps_bit_identical(n, bounded, huge);
            // Both near 1e30: products overflow to ±inf, then NaN.
            assert_sweeps_bit_identical(n, huge, huge);
        }
    }

    #[test]
    fn naive_transfer_share_is_about_half() {
        // Figure 3 (left): "data transfers consume nearly 50% of
        // execution time" in the naive QCD model on the K40m.
        let cfg = QcdConfig::paper_size(24);
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
        let inst = cfg.setup(&mut gpu).unwrap();
        let rep = run_model(
            &mut gpu,
            &inst.region,
            &cfg.builder(),
            ExecModel::Naive,
            &RunOptions::default(),
        )
        .unwrap();
        let share = rep.transfer_fraction();
        assert!(
            (0.35..0.65).contains(&share),
            "transfer share {share} not ≈50%"
        );
    }

    #[test]
    fn space_complexity_drops_by_one_dimension() {
        // §V-F: splitting reduces O(n⁴) resident data to O(C·n³).
        let cfg = QcdConfig::paper_size(12);
        let mut gpu = Gpu::new(DeviceProfile::k40m(), ExecMode::Timing).unwrap();
        let inst = cfg.setup(&mut gpu).unwrap();
        let builder = cfg.builder();
        let naive = run_model(
            &mut gpu,
            &inst.region,
            &builder,
            ExecModel::Naive,
            &RunOptions::default(),
        )
        .unwrap();
        let buf = run_model(
            &mut gpu,
            &inst.region,
            &builder,
            ExecModel::PipelinedBuffer,
            &RunOptions::default(),
        )
        .unwrap();
        // Ring ≈ C slices vs nt slices.
        let per_slice = (2 * cfg.psi_slice() + 2 * cfg.u_slice()) as u64 * 4;
        assert_eq!(naive.array_bytes, per_slice * cfg.nt as u64);
        assert!(buf.array_bytes < per_slice * 8, "{}", buf.array_bytes);
    }
}
