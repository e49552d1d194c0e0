//! Library backing the `dagfl` command-line tool: argument parsing and
//! experiment dispatch. Every experiment command builds its run from a
//! scenario (`--scenario <file>` or `--preset <name>`, plus `--set`).
//!
//! Kept as a library so the parsing and dispatch logic is unit-testable;
//! `src/main.rs` is a thin wrapper.
//!
//! # Usage
//!
//! ```text
//! dagfl run     --preset quickstart [--full]
//! dagfl run     --preset table1-fmnist --set alpha=1 --set execution.rounds=10
//! dagfl run     --preset async-delay2 --set execution.delay=0
//! dagfl sweep   scenarios/sweep-fig06-alpha.toml --jobs 4
//! dagfl fedavg  --preset table1-poets --set execution.rounds=20
//! dagfl fedprox --preset fedprox-synthetic --mu 0.1 --stragglers 0.5
//! dagfl local   --preset table1-fmnist
//! dagfl tracker --listen 127.0.0.1:7878 --expect 3
//! dagfl peer    --preset smoke --client 0 --peers 3 --tracker 127.0.0.1:7878
//! dagfl help
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod args;
pub mod dispatch;
pub mod net;
pub mod perf;

pub use args::{usage_for, Command, ParseError, ParsedArgs, USAGE};
pub use dispatch::run_command;
