//! # lcosc-campaign — deterministic parallel campaign engine
//!
//! Every statistical claim in the paper is a *campaign*: a batch of
//! independent simulation jobs whose results are reduced into one report —
//! Monte-Carlo DAC yield draws (§3/Fig 8), FMEA fault scenarios (§5/§7),
//! Q/L/C sweep points. This crate runs such campaigns on a pool of worker
//! threads while keeping the outcome **bit-identical to the serial run**:
//!
//! - per-job RNG seeds derive from `(campaign_seed, job_index)` only
//!   ([`seed::job_seed`]), never from scheduling;
//! - results are re-assembled and reduced in job-index order
//!   ([`Campaign::run_reduce`]), so even non-commutative reductions (float
//!   accumulation, first-error-wins) are thread-count invariant;
//! - the only machine-dependent output is the wall-clock in
//!   [`CampaignStats`], reported separately from the results.
//!
//! The crate is dependency-free (`std` only, `forbid(unsafe_code)` via the
//! workspace lints; parallelism is `std::thread::scope` + channels) and
//! also hosts the byte-stable [`json`] writer the golden-file regression
//! tests are built on.
//!
//! ```
//! use lcosc_campaign::Campaign;
//!
//! // A toy Monte-Carlo campaign: mean of 1000 seeded draws.
//! let (sum, stats) = Campaign::new("mc", (0u32..1000).collect())
//!     .seed(7)
//!     .threads(4)
//!     .run_reduce(
//!         |ctx, _die| (ctx.seed >> 11) as f64 / (1u64 << 53) as f64,
//!         0.0f64,
//!         |acc, x| acc + x,
//!     );
//! assert_eq!(stats.jobs, 1000);
//! // Identical for any thread count, including 1.
//! let (serial, _) = Campaign::new("mc", (0u32..1000).collect())
//!     .seed(7)
//!     .run_reduce(
//!         |ctx, _die| (ctx.seed >> 11) as f64 / (1u64 << 53) as f64,
//!         0.0f64,
//!         |acc, x| acc + x,
//!     );
//! assert_eq!(sum, serial);
//! ```

#![warn(missing_docs)]

mod engine;
pub mod json;
pub mod seed;

pub use engine::{Campaign, CampaignOutcome, CampaignStats, JobCtx};
pub use json::{Json, JsonParseError};
pub use seed::{digest_bytes, job_seed};
