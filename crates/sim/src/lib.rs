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
//! - [`EventQueue`] and [`Engine`]: a total-order, FIFO-stable event loop,
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
//! use mpsoc_sim::{Cycle, Engine, Scheduler, Simulate};
//!
//! /// A counter that re-schedules itself three times.
//! struct Ticker {
//!     ticks: u32,
//! }
//!
//! impl Simulate for Ticker {
//!     type Event = ();
//!
//!     fn handle(&mut self, sched: &mut Scheduler<()>, _now: Cycle, _ev: ()) {
//!         self.ticks += 1;
//!         if self.ticks < 3 {
//!             sched.schedule_in(Cycle::new(10), ());
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Ticker { ticks: 0 });
//! engine.schedule_at(Cycle::ZERO, ());
//! engine.run_to_completion();
//! assert_eq!(engine.state().ticks, 3);
//! assert_eq!(engine.now(), Cycle::new(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod queue;
mod resource;
mod time;

pub mod profile;
pub mod rng;
pub mod stats;

pub use engine::{Engine, RunResult, Scheduler, Simulate, StepBudget};
pub use queue::{EventQueue, ScheduledEvent};
pub use resource::{BankedResource, ThroughputResource, UnitResource};
pub use time::Cycle;
