//! Library backing the `dagfl` command-line tool: argument parsing,
//! dataset/model construction and experiment dispatch.
//!
//! Kept as a library so the parsing and dispatch logic is unit-testable;
//! `src/main.rs` is a thin wrapper.
//!
//! # Usage
//!
//! ```text
//! dagfl run     --preset quickstart [--full]
//! dagfl sweep   scenarios/sweep-fig06-alpha.toml --jobs 4
//! dagfl dag     --dataset fmnist --rounds 30 --clients-per-round 6 --alpha 10
//! dagfl fedavg  --dataset poets  --rounds 20
//! dagfl fedprox --dataset fedprox-synthetic --mu 0.1 --stragglers 0.5
//! dagfl local   --dataset fmnist --rounds 10
//! dagfl async   --dataset fmnist --activations 200 --delay 2.0
//! dagfl tracker --listen 127.0.0.1:7878 --expect 3
//! dagfl peer    --client 0 --peers 3 --tracker 127.0.0.1:7878
//! dagfl help
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod dispatch;
pub mod net;
pub mod perf;

pub use args::{usage_for, Command, ParseError, ParsedArgs, USAGE};
pub use dispatch::{run_command, DatasetKind};
