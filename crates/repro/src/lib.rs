//! # cloudscope-repro
//!
//! The figure-regeneration harness: one binary, `repro`, over one table
//! of the paper's evaluation artifacts, [`figures::FIGURES`] (`fig1` …
//! `fig7`, `pilot`, `oversub`, `compare`, `ablation`). Each row prints
//! its plotted series as CSV plus a `SHAPE-CHECK` section comparing the
//! measured shape against the paper's reported values. Every claim those
//! sections judge, and the paper's four insights, are rows of one table,
//! the [`ledger`].
//!
//! Run e.g. `cargo run --release -p cloudscope-repro --bin repro -- fig3`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
pub mod checks;
pub mod figures;
pub mod ledger;

use crate::checks::CheckProfile;
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::stats::Ecdf;
use cloudscope::store::StoreError;
use std::fmt::{self, Write};
use std::path::PathBuf;

/// The trace scale `repro` runs at, selected through the
/// `CLOUDSCOPE_TRACE_SCALE` environment variable (`full` is the
/// default; `medium` and `small` reuse the generator's scaled-down
/// configurations for faster smoke runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceScale {
    /// The paper-scale default trace.
    Full,
    /// `GeneratorConfig::medium`: ~quarter telemetry volume.
    Medium,
    /// `GeneratorConfig::small`: unit-test scale. A smoke scale only —
    /// population-level shape checks may miss on so few VMs.
    Small,
}

impl TraceScale {
    /// Reads `CLOUDSCOPE_TRACE_SCALE`, defaulting to [`TraceScale::Full`].
    ///
    /// # Errors
    /// Returns the offending value when it is not one of
    /// `full` / `medium` / `small`.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("CLOUDSCOPE_TRACE_SCALE") {
            Err(_) => Ok(Self::Full),
            Ok(v) => match v.as_str() {
                "" | "full" => Ok(Self::Full),
                "medium" => Ok(Self::Medium),
                "small" => Ok(Self::Small),
                _ => Err(v),
            },
        }
    }

    /// The generator configuration for this scale. Medium pins seed 99 —
    /// the configuration the tier-1 robustness gate validates all 26
    /// shape checks against — so `repro` at medium scale runs the
    /// exact trace the medium check profile is calibrated to.
    #[must_use]
    pub fn generator_config(self) -> GeneratorConfig {
        match self {
            Self::Full => GeneratorConfig::default(),
            Self::Medium => GeneratorConfig::medium(99),
            Self::Small => GeneratorConfig::small(GeneratorConfig::default().seed),
        }
    }

    /// The check thresholds matched to this scale. The `small` trace has
    /// no dedicated profile; it borrows the relaxed `medium` margins.
    #[must_use]
    pub fn check_profile(self) -> CheckProfile {
        match self {
            Self::Full => CheckProfile::full(),
            Self::Medium | Self::Small => CheckProfile::medium(),
        }
    }
}

/// The scale selected by `CLOUDSCOPE_TRACE_SCALE`, exiting with a usage
/// message on an unknown value (`repro` must not silently run the
/// wrong profile).
#[must_use]
pub fn active_scale() -> TraceScale {
    TraceScale::from_env().unwrap_or_else(|bad| {
        eprintln!("error: CLOUDSCOPE_TRACE_SCALE={bad:?} (expected full, medium, or small)");
        std::process::exit(2);
    })
}

/// The [`CheckProfile`] matching [`active_scale`].
#[must_use]
pub fn active_profile() -> CheckProfile {
    active_scale().check_profile()
}

/// Generates the trace at [`active_scale`], timing it.
#[must_use]
pub fn default_trace() -> GeneratedTrace {
    let scale = active_scale();
    let t0 = std::time::Instant::now();
    let generated = generate(&scale.generator_config());
    let stats = generated.trace.stats();
    eprintln!(
        "# generated {:?} trace in {:?}: {} private vms, {} public vms, {} subscriptions",
        scale,
        t0.elapsed(),
        stats.private_vms,
        stats.public_vms,
        stats.private_subscriptions + stats.public_subscriptions
    );
    generated
}

/// The CLI options of `repro`: parse once at startup, obtain the trace
/// through [`MetricsOpt::load_trace`], and call [`MetricsOpt::write`]
/// right before the binary exits so the metrics snapshot covers the
/// whole run.
///
/// - `--metrics <path>`: write a metrics-registry JSON snapshot.
/// - `--trace-dir <dir>`: analyze a disk-resident trace store instead
///   of generating, streaming telemetry out-of-core.
/// - `--trace-out <dir>`: persist the trace as a store; without
///   `--trace-dir` the generator streams straight to disk and the
///   analysis then runs out-of-core from it.
#[derive(Debug, Default)]
pub struct MetricsOpt {
    path: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

impl MetricsOpt {
    /// Parses the three flags below (`--flag <path>` or
    /// `--flag=<path>`) from the process arguments and returns the rest,
    /// in order. Exits with a usage message when a flag is present
    /// without a path.
    #[must_use]
    pub fn from_args() -> (Self, Vec<String>) {
        let mut slots: [(&str, Option<PathBuf>); 3] = [
            ("--metrics", None),
            ("--trace-dir", None),
            ("--trace-out", None),
        ];
        let mut positionals = Vec::new();
        let mut args = std::env::args().skip(1);
        'outer: while let Some(arg) = args.next() {
            for (flag, slot) in &mut slots {
                if arg == *flag {
                    match args.next() {
                        Some(p) => *slot = Some(PathBuf::from(p)),
                        None => {
                            eprintln!("error: {flag} requires a path");
                            std::process::exit(2);
                        }
                    }
                    continue 'outer;
                }
                if let Some(p) = arg.strip_prefix(&format!("{flag}=")) {
                    *slot = Some(PathBuf::from(p));
                    continue 'outer;
                }
            }
            positionals.push(arg);
        }
        let [(_, path), (_, trace_dir), (_, trace_out)] = slots;
        (
            Self {
                path,
                trace_dir,
                trace_out,
            },
            positionals,
        )
    }

    /// Produces the run's trace according to the trace flags:
    ///
    /// - `--trace-dir`: open that store and stream it out-of-core.
    /// - `--trace-out` alone: generate **straight to disk** at
    ///   [`active_scale`], then analyze out-of-core from the new store.
    /// - both: read from `--trace-dir`, persist a copy to `--trace-out`.
    /// - neither: the in-memory [`default_trace`].
    ///
    /// Exits non-zero with the store error on any I/O or validation
    /// failure — a damaged store must never silently degrade to a
    /// freshly generated trace.
    #[must_use]
    pub fn load_trace(&self) -> GeneratedTrace {
        let par = Parallelism::auto();
        // The reader holds one decoded chunk per (region, day) lane
        // whatever `cache_chunks` says (the field is vestigial).
        let mode = cloudscope::store::TelemetryMode::OutOfCore { cache_chunks: 0 };
        if let Some(dir) = &self.trace_dir {
            let t0 = std::time::Instant::now();
            let generated = cloudscope::tracegen::read_generated(dir, mode, &par)
                .unwrap_or_else(|e| fail(&format!("reading trace store {}", dir.display()), e));
            eprintln!(
                "# streamed trace store {} in {:?} (telemetry out-of-core, one chunk per lane)",
                dir.display(),
                t0.elapsed(),
            );
            if let Some(out) = &self.trace_out {
                cloudscope::tracegen::write_generated(
                    &generated,
                    out,
                    cloudscope::store::WriteOptions::default(),
                    &par,
                )
                .unwrap_or_else(|e| fail(&format!("writing trace store {}", out.display()), e));
                eprintln!("# wrote trace store to {}", out.display());
            }
            return generated;
        }
        if let Some(out) = &self.trace_out {
            let scale = active_scale();
            let t0 = std::time::Instant::now();
            cloudscope::tracegen::generate_to_store(
                &scale.generator_config(),
                out,
                cloudscope::store::WriteOptions::default(),
                par,
            )
            .unwrap_or_else(|e| fail(&format!("writing trace store {}", out.display()), e));
            eprintln!(
                "# generated {:?} trace straight to store {} in {:?}",
                scale,
                out.display(),
                t0.elapsed()
            );
            return cloudscope::tracegen::read_generated(out, mode, &par)
                .unwrap_or_else(|e| fail(&format!("reading trace store {}", out.display()), e));
        }
        default_trace()
    }

    /// Writes the current registry snapshot as JSON to the requested
    /// path, if any; exits non-zero on I/O failure so scripted runs
    /// notice the missing artifact.
    pub fn write(&self) {
        let Some(path) = &self.path else { return };
        let json = cloudscope::obs::to_json(&cloudscope::obs_snapshot());
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: writing metrics snapshot to {}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("# wrote metrics snapshot to {}", path.display());
    }
}

/// Reports a store failure and exits non-zero: a damaged store must
/// never silently degrade to a freshly generated trace.
fn fail(what: &str, e: StoreError) -> ! {
    eprintln!("error: {what}: {e}");
    std::process::exit(2);
}

/// Writes a CSV header followed by rows into `out`.
///
/// # Errors
/// Only as [`fmt::Write`] on `out` does; a `String` never fails.
pub fn print_csv<const N: usize>(
    out: &mut String,
    title: &str,
    header: [&str; N],
    rows: &[[f64; N]],
) -> fmt::Result {
    writeln!(out, "## {title}")?;
    writeln!(out, "{}", header.join(","))?;
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.4}")).collect();
        writeln!(out, "{}", cells.join(","))?;
    }
    writeln!(out)
}

/// Writes an ECDF as `(x, F)` rows on a quantile grid into `out`.
///
/// # Errors
/// As [`print_csv`].
pub fn print_ecdf(out: &mut String, title: &str, cdf: &Ecdf) -> fmt::Result {
    writeln!(out, "## {title}")?;
    writeln!(out, "x,cdf")?;
    for i in 0..=20 {
        let p = f64::from(i) / 20.0;
        let x = cdf.quantile(p);
        writeln!(out, "{x:.4},{p:.2}")?;
    }
    writeln!(out)
}

/// Accumulates shape checks and renders a verdict table.
#[derive(Debug, Default)]
pub struct ShapeChecks {
    results: Vec<(bool, String)>,
}

impl ShapeChecks {
    /// Creates an empty check set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one check: `label` describes the paper's expectation,
    /// `detail` the measured values.
    pub fn check(&mut self, label: &str, holds: bool, detail: String) {
        cloudscope_obs::counter("repro.checks.recorded").inc();
        if !holds {
            cloudscope_obs::counter("repro.checks.failed").inc();
        }
        self.results.push((holds, format!("{label}: {detail}")));
    }

    /// Number of checks recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// `true` if no check has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// `true` if every recorded check holds.
    #[must_use]
    pub fn all_hold(&self) -> bool {
        self.results.iter().all(|(h, _)| *h)
    }

    /// Every rendered check line with its verdict, in insertion order.
    pub fn lines(&self) -> impl Iterator<Item = (bool, &str)> {
        self.results.iter().map(|(h, line)| (*h, line.as_str()))
    }

    /// Writes the verdict table of `figure` into `out`.
    ///
    /// # Errors
    /// As [`print_csv`].
    pub fn finish(&self, figure: &str, out: &mut String) -> fmt::Result {
        writeln!(out, "## SHAPE-CHECK {figure}")?;
        for (holds, line) in self.lines() {
            writeln!(out, "[{}] {line}", if holds { "ok" } else { "MISS" })?;
        }
        let held = self.lines().filter(|(holds, _)| *holds).count();
        writeln!(out, "{figure}: {held}/{} shape checks hold", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_checks_tally() {
        let mut checks = ShapeChecks::new();
        checks.check("a", true, "1 > 0".into());
        checks.check("b", false, "boom".into());
        assert!(!checks.all_hold());
        let mut out = String::new();
        checks.finish("test", &mut out).unwrap();
        assert_eq!(
            out,
            "## SHAPE-CHECK test\n[ok] a: 1 > 0\n[MISS] b: boom\ntest: 1/2 shape checks hold\n"
        );
        let mut ok = ShapeChecks::new();
        ok.check("a", true, "fine".into());
        assert!(ok.all_hold());
    }
}
