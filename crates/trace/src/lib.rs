//! Exporters and aggregators over the runtime's deterministic trace.
//!
//! `mph-runtime` records what happened — typed
//! [`TraceEvent`](mph_runtime::TraceEvent)s stamped on the fabric's
//! virtual clock, one lane per node (see `mph_runtime::trace`). This
//! crate turns those lanes into artifacts:
//!
//! * [`chrome_trace_json`] — a Chrome trace-event document: one process
//!   per node, one track per link, transmissions split into port-wait
//!   and wire-time spans. Load it in `chrome://tracing` or Perfetto.
//! * [`UtilizationMatrix`] — per-(link, epoch) busy virtual time, with a
//!   markdown heatmap table of occupancy (busy ÷ makespan).
//! * [`quantiles`] — the one nearest-rank percentile implementation the
//!   workspace shares.
//!
//! Everything here is deterministic: the same event stream produces the
//! same bytes, which is what lets the bench suite gate on exports and
//! the proptests replay captures bit-for-bit from a seed.

pub mod chrome;
pub mod quantiles;
pub mod utilization;

pub use chrome::{chrome_trace_json, validate_chrome_trace};
pub use quantiles::{summarize, Summary};
pub use utilization::{LinkLoad, UtilizationMatrix};
