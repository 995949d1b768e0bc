//! Synthetic traffic: a seeded stream of mixed jobs, open or closed
//! loop.
//!
//! The default generator is *open loop* — arrival times are fixed up
//! front and do not react to server backlog — which is the regime where
//! fair-share scheduling actually matters: bursts pile up a queue and
//! the scheduler decides whose jobs drain first. The
//! [`closed_loop`](WorkloadConfig::closed_loop) variant instead models
//! a fixed population of clients, each submitting its next job a think
//! time after its previous one completes, producing *sustained* load
//! that tracks fleet capacity — the regime that exercises admission
//! control and overload shedding.

use gpsim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::job::{GemmConfig, JobShape, JobSpec};
use pipeline_apps::{Conv3dConfig, QcdConfig, StencilConfig};
use pipeline_rt::ExecModel;

/// Parameters of the synthetic stream.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// RNG seed; same seed ⇒ identical stream.
    pub seed: u64,
    /// Total jobs to emit.
    pub jobs: usize,
    /// Tenants to spread jobs over (round-robin by hash of id).
    pub tenants: usize,
    /// Mean inter-arrival gap in the normal phase (open loop); chain
    /// start stagger (closed loop).
    pub mean_gap: SimTime,
    /// Arrival-rate multiplier during bursts (gap divides by this).
    pub burst_factor: u64,
    /// Jobs per phase before toggling normal ↔ burst.
    pub phase_len: usize,
    /// Fraction of jobs carrying a deadline, in `[0, 1]`. Deadlines are
    /// latency *budgets* relative to release ([`JobSpec::deadline`]).
    pub deadline_frac: f64,
    /// Closed-loop mode: `(clients, mean think time)`. See
    /// [`WorkloadConfig::closed_loop`].
    pub closed_loop: Option<(usize, SimTime)>,
}

impl WorkloadConfig {
    /// A stream of `jobs` jobs over `tenants` tenants with defaults
    /// tuned for the smoke fleet (bursty, ~25% deadlines).
    pub fn new(seed: u64, jobs: usize, tenants: usize) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            jobs,
            tenants,
            mean_gap: SimTime::from_us(40),
            burst_factor: 8,
            phase_len: 48,
            deadline_frac: 0.25,
            closed_loop: None,
        }
    }

    /// Switch to closed-loop generation: `clients` persistent clients,
    /// pinned round-robin to tenants, each chaining its jobs with a
    /// per-job think time sampled uniformly in `[think/2, 3·think/2]`.
    /// Each client's first job arrives at a small stagger; every later
    /// job is released by the server `think` after the previous one
    /// completes (or is rejected), so offered load tracks capacity
    /// instead of running ahead of it.
    pub fn closed_loop(mut self, clients: usize, think: SimTime) -> WorkloadConfig {
        assert!(clients > 0, "closed loop needs at least one client");
        self.closed_loop = Some((clients, think));
        self
    }

    /// Generate the stream, sorted by generation id (open-loop arrivals
    /// are non-decreasing; closed-loop chains interleave).
    pub fn generate(&self) -> Vec<JobSpec> {
        assert!(self.tenants > 0, "workload needs at least one tenant");
        match self.closed_loop {
            Some((clients, think)) => self.generate_closed(clients, think),
            None => self.generate_open(),
        }
    }

    fn generate_open(&self) -> Vec<JobSpec> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(self.jobs);
        let mut clock = 0u64;
        let mean = self.mean_gap.as_ns().max(1);
        for id in 0..self.jobs as u64 {
            let burst = (id as usize / self.phase_len.max(1)) % 2 == 1;
            // Uniform gap with the requested mean; bursts compress it.
            let mut gap = rng.gen_range(0..2 * mean);
            if burst {
                gap /= self.burst_factor.max(1);
            }
            clock += gap;
            let arrival = SimTime::from_ns(clock);
            let (shape, model, priority, deadline) = self.sample_job(&mut rng);
            out.push(JobSpec {
                id,
                tenant: rng.gen_range(0..self.tenants),
                shape,
                model,
                priority,
                arrival,
                deadline,
                after: None,
            });
        }
        out.sort_by_key(|j| (j.arrival, j.id));
        out
    }

    fn generate_closed(&self, clients: usize, think: SimTime) -> Vec<JobSpec> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(self.jobs);
        let mut prev: Vec<Option<u64>> = vec![None; clients];
        let think_ns = think.as_ns().max(2);
        for id in 0..self.jobs as u64 {
            let client = id as usize % clients;
            let tenant = client % self.tenants;
            let (shape, model, priority, deadline) = self.sample_job(&mut rng);
            let pause = SimTime::from_ns(rng.gen_range(think_ns / 2..think_ns + think_ns / 2 + 1));
            let after = prev[client].map(|p| (p, pause));
            // Chain starts stagger by client; for chained jobs the
            // arrival only breaks ties (release is chain-driven).
            let arrival = SimTime::from_ns(client as u64 * self.mean_gap.as_ns() + id);
            out.push(JobSpec {
                id,
                tenant,
                shape,
                model,
                priority,
                arrival,
                deadline,
                after,
            });
            prev[client] = Some(id);
        }
        out
    }

    /// Shape/model/priority/deadline sampling shared by both loops.
    fn sample_job(&self, rng: &mut SmallRng) -> (JobShape, ExecModel, u8, Option<SimTime>) {
        let shape = sample_shape(rng);
        let model = match rng.gen_range(0u32..10) {
            0..=6 => ExecModel::PipelinedBuffer,
            7..=8 => ExecModel::Pipelined,
            _ => ExecModel::Naive,
        };
        let deadline = if rng.gen_range(0.0f64..1.0) < self.deadline_frac {
            // Generous budget: misses indicate sustained overload,
            // not scheduling noise.
            Some(SimTime::from_ms(rng.gen_range(30u64..120)))
        } else {
            None
        };
        (shape, model, rng.gen_range(0u8..3), deadline)
    }
}

fn sample_shape(rng: &mut SmallRng) -> JobShape {
    match rng.gen_range(0u32..100) {
        0..=29 => {
            let mut c = Conv3dConfig::test_small();
            c.nk = [10, 14, 18][rng.gen_range(0usize..3)];
            c.chunk = rng.gen_range(2usize..4);
            c.streams = rng.gen_range(2usize..4);
            JobShape::Conv3d(c)
        }
        30..=59 => {
            let mut c = StencilConfig::test_small();
            c.nz = [12, 16, 20][rng.gen_range(0usize..3)];
            c.chunk = rng.gen_range(2usize..4);
            c.streams = rng.gen_range(2usize..4);
            JobShape::Stencil(c)
        }
        60..=84 => {
            let n = [16, 24, 32][rng.gen_range(0usize..3)];
            JobShape::Gemm(GemmConfig {
                n,
                bs: [4, 8][rng.gen_range(0usize..2)],
                chunk: rng.gen_range(1usize..3),
                streams: rng.gen_range(2usize..4),
            })
        }
        _ => {
            let mut c = QcdConfig::test_small();
            c.nt = [6, 8, 10][rng.gen_range(0usize..3)];
            c.streams = rng.gen_range(2usize..4);
            JobShape::Qcd(c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_chains_per_client() {
        let jobs = WorkloadConfig::new(7, 20, 2)
            .closed_loop(4, SimTime::from_us(50))
            .generate();
        assert_eq!(jobs.len(), 20);
        // Exactly one chain head per client; every other job links to
        // the same client's previous job.
        let heads = jobs.iter().filter(|j| j.after.is_none()).count();
        assert_eq!(heads, 4);
        for j in &jobs {
            if let Some((pred, think)) = j.after {
                assert_eq!(pred, j.id - 4, "client chains are round-robin");
                let t = think.as_ns();
                assert!((25_000..=75_000).contains(&t), "think {t} out of range");
            }
            // Clients pin to tenants.
            assert_eq!(j.tenant, (j.id as usize % 4) % 2);
        }
    }

    #[test]
    fn deadlines_are_relative_budgets() {
        let jobs = WorkloadConfig::new(3, 200, 2).generate();
        let with_deadline = jobs.iter().filter_map(|j| j.deadline).collect::<Vec<_>>();
        assert!(!with_deadline.is_empty());
        for d in with_deadline {
            // A budget, not an absolute instant: bounded by the
            // sampling range regardless of how late the job arrives.
            assert!(d >= SimTime::from_ms(30) && d < SimTime::from_ms(120));
        }
    }
}
