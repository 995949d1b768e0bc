//! Shared helpers for the evaluation applications: seeded workload
//! generation and result comparison.

use gpsim::{ExecMode, Gpu, HostBufId, SimResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fill a host buffer with reproducible pseudo-random values in
/// `[-1, 1)`. No-op in timing mode (phantom buffers hold no data).
pub fn fill_random(gpu: &Gpu, buf: HostBufId, seed: u64) -> SimResult<()> {
    if gpu.mode() == ExecMode::Timing {
        return Ok(());
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    gpu.host_fill(buf, |_| rng.gen_range(-1.0f32..1.0))
}

/// Read an entire host buffer into a vector (functional mode only).
pub fn read_host(gpu: &Gpu, buf: HostBufId) -> SimResult<Vec<f32>> {
    let len = gpu.host_len(buf)?;
    let mut v = vec![0.0f32; len];
    gpu.host_read(buf, 0, &mut v)?;
    Ok(v)
}

/// Maximum relative error between two result vectors, with an absolute
/// floor to avoid blowing up near zero.
pub fn max_rel_error(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut worst = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        let denom = x.abs().max(y.abs()).max(1.0);
        worst = worst.max((x - y).abs() / denom);
    }
    worst
}

/// Assert two vectors are exactly equal, reporting the first mismatch.
pub fn assert_exact(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert!(
            x == y || (x.is_nan() && y.is_nan()),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpsim::DeviceProfile;

    #[test]
    fn fill_is_deterministic() {
        let mut gpu = Gpu::new(DeviceProfile::uniform_test(), ExecMode::Functional).unwrap();
        let a = gpu.alloc_host(64, true).unwrap();
        let b = gpu.alloc_host(64, true).unwrap();
        fill_random(&gpu, a, 42).unwrap();
        fill_random(&gpu, b, 42).unwrap();
        assert_exact(
            &read_host(&gpu, a).unwrap(),
            &read_host(&gpu, b).unwrap(),
            "fill",
        );
        // Different seed → different data.
        fill_random(&gpu, b, 43).unwrap();
        assert!(max_rel_error(&read_host(&gpu, a).unwrap(), &read_host(&gpu, b).unwrap()) > 0.0);
    }

    #[test]
    fn fill_noop_in_timing_mode() {
        let mut gpu = Gpu::new(DeviceProfile::uniform_test(), ExecMode::Timing).unwrap();
        let a = gpu.alloc_host(64, true).unwrap();
        fill_random(&gpu, a, 1).unwrap();
    }

    #[test]
    fn rel_error_basics() {
        assert_eq!(max_rel_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        let e = max_rel_error(&[100.0], &[101.0]);
        assert!((e - 0.01f32 / 1.01).abs() < 1e-4);
    }
}
