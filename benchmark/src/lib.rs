//! The repository's benchmark: six workloads measured end to end on the host
//! clock and layer by layer on the fabric's virtual clock. See `README.md`.

pub mod alloc;
pub mod api;
pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod report;
pub mod spans;
pub mod speedometer;
pub mod stats;
pub mod workloads;
