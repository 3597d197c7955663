//! Discrete-event simulator reproducing the paper's simulation study (§5.3).
//!
//! "We compare the basic behavior of the policies … using a discrete
//! event-driven simulator … The simulator implements the framework in
//! Figure 1. It assumes a query engine with a fixed number of processes and
//! gives the admitted queries to the idle processes on a first-come,
//! first-serve basis."
//!
//! The simulated host is a LIquid broker with `P` query-engine processes
//! (the paper uses 100). Inter-arrival times are exponential (Poisson
//! traffic); per-type processing times are lognormal per the query mix.
//! The very same [`AdmissionPolicy`] objects that run on real hosts are
//! driven here under virtual time, through the same [`Gate`] hooks: the
//! simulator owns only the event heap, the queue discipline and tracing.
//!
//! [`AdmissionPolicy`]: bouncer_core::policy::AdmissionPolicy
//! [`Gate`]: bouncer_core::framework::Gate

#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod result;
pub mod scenario;

pub use engine::{run, SimConfig};
pub use queue::SimDiscipline;
pub use result::SimResult;
pub use scenario::ScenarioSim;
