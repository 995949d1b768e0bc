//! # dbpp-core — the finalized public API
//!
//! One import surface over the whole runtime stack. Applications and
//! examples should depend on this crate and reach everything through
//! [`prelude`]:
//!
//! ```
//! use dbpp_core::prelude::*;
//! ```
//!
//! The full `pipeline_rt` surface is re-exported at the crate root for
//! anything the prelude deliberately leaves out (trace tooling, plan
//! internals, sweep helpers), and the serving layer is available as
//! [`serve`].

pub use pipeline_rt::*;

/// The multi-tenant serving layer ([`pipeline_serve`]).
pub use pipeline_serve as serve;

/// The curated stable surface: everything a typical pipeline
/// application needs, importable in one line.
pub mod prelude {
    // Entry points.
    pub use pipeline_rt::{run_model, run_model_multi, run_window_fn};
    // The pipeline description and its pieces.
    pub use pipeline_rt::{
        Affine, ChunkCtx, KernelBuilder, MapDir, MapSpec, Pipeline, Region, RegionSpec, Schedule,
        SplitSpec,
    };
    // Options and policies.
    pub use pipeline_rt::{
        BufferOptions, ExecModel, MultiOptions, RetryPolicy, RunOptions, StreamAssignment,
        TuneSpace,
    };
    // Results and errors.
    pub use pipeline_rt::{MultiReport, RtError, RtResult, RunReport};
    // Preemptible execution.
    pub use pipeline_rt::{JobReport, ResumableRun};
    // Serving: the server, its policies (admission, queue order,
    // breaker) and the report types.
    pub use pipeline_serve::{
        serve, BreakerConfig, Fleet, JobShape, JobSpec, QueueOrder, RateLimit, Rejection,
        ServeOptions, ServeReport, TenantSpec, WorkloadConfig,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_importable_and_usable() {
        use crate::prelude::*;
        // A couple of representative items, touched so the re-exports
        // are proven live, not just name-resolvable.
        let opts = RunOptions::default().with_retry(RetryPolicy::retries(1));
        let _ = opts;
        let model: ExecModel = ExecModel::PipelinedBuffer;
        assert_eq!(format!("{model:?}"), "PipelinedBuffer");
        let w = WorkloadConfig::new(7, 3, 2);
        assert_eq!(w.generate().len(), 3);
    }
}
