//! # mpsoc-offload
//!
//! The primary contribution of *"Optimizing Offload Performance in
//! Heterogeneous MPSoCs"* (Colagrande & Benini, DATE 2024), reproduced in
//! Rust on a from-scratch cycle-accurate MPSoC simulator:
//!
//! 1. **Co-designed offload runtime** ([`Offloader`]): job descriptors,
//!    dispatch strategies (sequential unicast vs the **multicast**
//!    hardware extension) and completion-synchronization strategies
//!    (software polling barrier vs the **credit-counter unit** with its
//!    interrupt). The [`OffloadStrategy::baseline`] /
//!    [`OffloadStrategy::extended`] presets are the two configurations
//!    Fig. 1 compares.
//! 2. **Analytic runtime model** ([`RuntimeModel`], the paper's Eq. 1):
//!    `t̂(M, N) = c₀ + c_mem·N + c_comp·N/M`, with the paper's constants
//!    (367, 1/4, 2.6/8) available as [`RuntimeModel::paper`] and a
//!    least-squares [`RuntimeModel::fit`] over measured samples.
//!    [`model::mape`] implements the Eq. 2 validation metric.
//! 3. **Offload decision solver** ([`decision`], the paper's Eq. 3):
//!    the minimum number of clusters meeting a deadline, the maximum
//!    problem size under a deadline, and an energy-aware variant.
//!
//! # Quickstart
//!
//! ```
//! use mpsoc_offload::{Offloader, OffloadStrategy, RuntimeModel};
//! use mpsoc_kernels::Daxpy;
//! use mpsoc_soc::SocConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut offloader = Offloader::new(SocConfig::with_clusters(8))?;
//!
//! // A 1024-element DAXPY offloaded to 8 clusters, both configurations.
//! let n = 1024;
//! let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
//! let y: Vec<f64> = vec![1.0; n];
//!
//! let base = offloader.offload(&Daxpy::new(2.0), &x, &y, 8, OffloadStrategy::baseline())?;
//! let ext = offloader.offload(&Daxpy::new(2.0), &x, &y, 8, OffloadStrategy::extended())?;
//! assert!(ext.outcome.total < base.outcome.total, "the co-design must win");
//! assert!(ext.verify(&Daxpy::new(2.0), &x, &y).passed());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision;
mod error;
mod layout;
pub mod model;
mod recovery;
mod runtime;
mod strategy;
mod verify;

pub use error::OffloadError;
pub use model::{mape, ExtendedModel, FitReport, Predictor, RuntimeModel, Sample};
pub use mpsoc_noc::ClusterMask;
pub use mpsoc_soc::{ContentionReport, JobId};
pub use recovery::{
    AttemptOutcome, AttemptRecord, QuarantineEvent, RecoveredResult, RecoveryPolicy,
    ResilientReport, StrikeBoard, AUTO_QUARANTINE_STRIKES, MAX_RETRIES,
};
pub use runtime::{OffloadResult, OffloadRun, Offloader, RuntimeCosts, SessionStep, TenantRun};
pub use strategy::{DispatchStrategy, OffloadStrategy, SyncStrategy};
pub use verify::VerifyReport;
