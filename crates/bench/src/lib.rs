//! # cloudscope-bench
//!
//! Criterion benches, one per engine (`analysis`, `kb`, `tracegen`,
//! `store`, `ingest`). Each writes the few rows that
//! `scripts/bench_gates.json` bounds into its `BENCH_<name>.json` at
//! the repo root; the end-to-end cost of a whole run is the
//! `benchmark/` crate's job. This library is empty.
//!
//! Run with `cargo bench -p cloudscope-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
