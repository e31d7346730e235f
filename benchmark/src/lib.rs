//! The benchmark's parts, as a library so the command-line front end and
//! the tests share them: what is measured ([`spec`]), the load generator
//! ([`loadgen`]), the workloads ([`serve`], [`owner`]), the per-layer probes
//! ([`probes`]), the benchmark's own spans ([`spans`]) and the result files
//! ([`report`], [`compare`]). See `benchmark/README.md`.

pub mod compare;
pub mod host;
pub mod json;
pub mod loadgen;
pub mod models;
pub mod owner;
pub mod probes;
pub mod report;
pub mod serve;
pub mod spans;
pub mod spec;
pub mod stats;
