//! End-to-end benchmark of the dagfl simulator.
//!
//! Three workloads run checked-in scenario presets through the
//! simulator's public API ([`workload`]). Untraced runs give the
//! end-to-end metrics; a traced run wraps every model in a timing
//! wrapper ([`trace`]) and reports per-layer numbers ([`measure`]).
//! See `README.md` next to this crate for the workloads and metrics.

pub mod measure;
pub mod trace;
pub mod workload;
