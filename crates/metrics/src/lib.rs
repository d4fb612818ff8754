#![warn(missing_docs)]

//! Measurement and reporting kit for the experiment harness.
//!
//! Section 6 of the paper analyzes four quantities; each has a module here:
//!
//! * mean end-to-end delay `D` — [`DelayStats`] (Figure 4);
//! * the time `T` for group-composition + stability decisions — also
//!   [`DelayStats`], in subrun units (Figure 5);
//! * the amount and size of control messages — [`TrafficMeter`] (Table 1);
//! * the history length over time — [`TimeSeries`] (Figures 6 a/b).
//!
//! [`Table`] renders the ASCII tables and series every `fig*`/`table*`
//! binary prints, and [`alloc::CountingAlloc`] counts heap traffic for the
//! exact allocation figures.

//! ```
//! use urcgc_metrics::{DelayStats, Table, TrafficMeter};
//!
//! let mut d = DelayStats::new();
//! d.record(0.5);
//! d.record(1.5);
//! assert_eq!(d.mean(), Some(1.0));
//!
//! let mut traffic = TrafficMeter::new();
//! traffic.record("request", 294);
//! traffic.record("decision", 196);
//! assert_eq!(traffic.total().count, 2);
//!
//! let mut t = Table::new(["metric", "value"]);
//! t.row(["mean D (rtd)", "1.0"]);
//! assert!(t.render().contains("mean D"));
//! ```

pub mod alloc;
pub mod delay;
pub mod json;
pub mod schema;
pub mod series;
pub mod stats;
pub mod table;
pub mod traffic;

pub use delay::DelayStats;
pub use json::Json;
pub use schema::Schema;
pub use series::TimeSeries;
pub use stats::Summary;
pub use table::Table;
pub use traffic::TrafficMeter;
