//! End-to-end and per-layer benchmark of the PINS engine over pins-suite.
//!
//! `perfbench --workload <converge|explore|parallel> --seed N --seconds S
//! --trace <0|1>` runs one workload for about `S` seconds and prints, last,
//! one JSON line `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from one
//! extra, traced, repetition whose events land in `.bench_trace/`) with
//! `--trace 1`. Every engine run happens in a process of its own, started
//! by the same binary with `--engine`, and set-up is timed in processes of
//! its own, started with `--setup`. Times are scaled to a reference host
//! speed ([`calibrate`]); the raw medians are printed alongside.

pub mod calibrate;
pub mod engine;
pub mod host;
pub mod layers;
pub mod measure;
pub mod report;
pub mod stats;
pub mod workload;
