//! # mpsoc-sim
//!
//! Deterministic discrete-event simulation kernel underpinning the
//! `mpsoc-offload` reproduction of *"Optimizing Offload Performance in
//! Heterogeneous MPSoCs"* (DATE 2024).
//!
//! The crate is deliberately small and generic: it knows nothing about
//! MPSoCs. It provides
//!
//! - [`Cycle`]: a strongly-typed simulation timestamp (1 cycle == 1 ns at
//!   the paper's 1 GHz testbench clock),
//! - [`EventQueue`] and [`Scheduler`]: a total-order, FIFO-stable event
//!   queue and the handle event handlers schedule through (models such
//!   as the SoC pump their own queue),
//! - timed hardware resource primitives ([`UnitResource`],
//!   [`ThroughputResource`], [`BankedResource`]) shared by the memory and
//!   interconnect models,
//! - [`stats`]: named counters and summaries for instrumentation,
//! - [`profile`]: a wall-clock scoped self-profiler (RAII guards into a
//!   per-site call tree) for measuring the simulator itself,
//! - [`rng::SplitMix64`]: a tiny deterministic RNG for reproducible
//!   stochastic workloads.
//!
//! # Example
//!
//! ```
//! use mpsoc_sim::{Cycle, EventQueue, Scheduler};
//!
//! // A model owns its queue and pumps it: pop the earliest event,
//! // attach a scheduler at its time, let the handler push follow-ups.
//! let mut queue = EventQueue::new();
//! queue.push(Cycle::ZERO, "tick");
//! let mut ticks = 0;
//! while let Some(event) = queue.pop() {
//!     let (now, _) = event.into_parts();
//!     ticks += 1;
//!     let mut sched = Scheduler::attach(&mut queue, now);
//!     if ticks < 3 {
//!         sched.schedule_at(now + Cycle::new(10), "tick");
//!     }
//! }
//! assert_eq!(ticks, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod resource;
mod time;

pub mod profile;
pub mod rng;
pub mod stats;

pub use queue::{EventQueue, ScheduledEvent, Scheduler};
pub use resource::{BankedResource, ThroughputResource, UnitResource};
pub use time::Cycle;
