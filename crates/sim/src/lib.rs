//! # cloudscope-sim
//!
//! A minimal discrete-event simulation engine (time-ordered event queue
//! with deterministic FIFO tie-breaking) and deterministic named RNG
//! streams derived from a single master seed via SplitMix64.
//!
//! The trace generator and the cluster allocator are both driven by this
//! engine, which stands in for the real platform's control plane clock.
//!
//! ## Example
//! ```
//! use cloudscope_sim::engine::Simulation;
//! use cloudscope_sim::rng::RngFactory;
//! use cloudscope_model::time::{SimTime, SimDuration};
//! use rand::Rng;
//!
//! let factory = RngFactory::new(1);
//! let mut rng = factory.stream("demo");
//! let mut sim = Simulation::new();
//! sim.schedule(SimTime::ZERO, ());
//! let mut count = 0u32;
//! sim.run(SimTime::from_days(1), |s, t, ()| {
//!     count += 1;
//!     if rng.random::<f64>() < 0.5 && count < 100 {
//!         s.schedule(t + SimDuration::HOUR, ());
//!     }
//! });
//! assert!(count >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod engine;
pub mod rng;

pub use calendar::CalendarQueue;
pub use engine::{Scheduler, Simulation};
pub use rng::RngFactory;
