//! # btpan-sim
//!
//! Deterministic simulation substrate for the `btpan`
//! workspace (reproduction of Cinque/Cotroneo/Russo, *Collecting and
//! Analyzing Failure Data of Bluetooth Personal Area Networks*, DSN 2006).
//!
//! The crate provides:
//!
//! * [`time`] — microsecond-resolution simulated time ([`SimTime`](time::SimTime),
//!   [`SimDuration`](time::SimDuration)) with Bluetooth slot constants;
//! * [`rng`] — a seeded, forkable random-number source ([`SimRng`](rng::SimRng)) so
//!   each subsystem consumes an independent substream;
//! * [`dist`] — hand-rolled samplers for every distribution the paper's
//!   workloads use (uniform, Pareto, exponential, Weibull, log-normal,
//!   geometric, categorical, binomial-choice);
//! * [`stats`] — numerically stable running statistics, histograms and
//!   percentile estimation used by the analysis pipeline.
//!
//! Everything is deterministic: the same seed produces byte-identical
//! campaigns, logs and tables.
//!
//! ```
//! use btpan_sim::prelude::*;
//!
//! let mut rng = SimRng::seed_from(42);
//! let pareto = Pareto::new(1.5, 10.0).unwrap();
//! let sample = pareto.sample(&mut rng);
//! assert!(sample >= 10.0);
//! ```

pub mod config;
pub mod dist;
pub mod rng;
pub mod stats;
pub mod time;

pub mod prelude {
    //! Convenient re-exports of the most used simulation types.
    pub use crate::config::ConfigError;
    pub use crate::dist::{
        Bernoulli, Categorical, Distribution, Exponential, Geometric, LogNormal, Pareto,
        TruncatedPareto, UniformF64, UniformU64, Weibull,
    };
    pub use crate::rng::SimRng;
    pub use crate::stats::{Histogram, RunningStats, Summary};
    pub use crate::time::{SimDuration, SimTime, SLOT};
}
