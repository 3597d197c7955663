//! The admission-control framework of Figure 1.
//!
//! "Bouncer is built atop a software framework that resembles a stage in the
//! staged event-driven architecture (SEDA) … When a new query arrives, the
//! policy examines it and, based on metrics gathered from recent executions,
//! decides to admit or reject it. If admitted, the query is inserted into
//! the FIFO queue to wait for its turn to be processed; otherwise, the
//! policy drops it and instructs the server host to reply with an error
//! response. A fixed number of query engine processes dequeue the admitted
//! queries and process each independently."
//!
//! The framework records time intervals at the paper's three points:
//! Point 1 after the admission decision, Point 2 after dequeue (queue wait
//! time), and Point 3 after processing (processing time, response time).

mod gate;
mod queue;
pub mod report;
mod stats;
mod ticker;

pub use gate::{Admitted, Gate, GateConfig, TakeOutcome};
pub use queue::{AdmissionQueue, Entry, PopOutcome};
pub use report::render_snapshot;
pub use stats::{ServerStats, StatsSnapshot, TypeStats};
pub use ticker::Ticker;
