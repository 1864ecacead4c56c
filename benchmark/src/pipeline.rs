//! The characterization call sequence shared by `batch_resident`,
//! `ooc_fits`, `ooc_spill` and the resident reference: fig1–fig7 cores,
//! the 26 shape checks, the pilot and over-subscription experiments,
//! knowledge-base extraction, and the management policies — each a call
//! to a public function of the workspace crates, one span apiece.

use crate::trace::Ctx;
use cloudscope::analysis::correlation::{
    node_vm_correlation_cdf, region_pair_correlation_cdf, service_region_alignment,
};
use cloudscope::analysis::deployment::DeploymentSizeAnalysis;
use cloudscope::analysis::patterns::pattern_shares;
use cloudscope::analysis::spatial::SpatialAnalysis;
use cloudscope::analysis::temporal::TemporalAnalysis;
use cloudscope::analysis::utilization::UtilizationDistribution;
use cloudscope::analysis::vmsize::VmSizeAnalysis;
use cloudscope::kb::pipeline::run_extraction_pipeline;
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope_repro::checks::{self, CheckProfile};
use cloudscope_repro::ShapeChecks;
use std::fmt::{Debug, Write};

/// Per-subscription classification cap for KB extraction — the value
/// `drive_ingest` publishes with, so batch and streaming KBs compare.
pub const MAX_CLASSIFIED_VMS_PER_SUB: usize = 4;

/// The paper's shape checks: 20 on the figures, 3 pilot, 3 oversub.
pub const SHAPE_CHECKS: usize = 26;

/// FNV-1a over everything written into it. `{:?}` of an `f64` prints
/// the shortest text that round-trips, so hashing a result's `Debug`
/// form distinguishes any two results that differ in a single bit of a
/// single field (the result types hold `Vec`s, never hash maps).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

impl Digest {
    /// Folds in a value's `Debug` form.
    pub fn add(&mut self, value: &impl Debug) {
        write!(self, "{value:?};").expect("hashing cannot fail");
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// What one iteration of a workload produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Outcome {
    /// Digest over every result: fig1–fig7, pattern shares, pilot and
    /// oversub outcomes, sorted KB entries, policy recommendations.
    pub digest: u64,
    /// Telemetry samples the pipeline consumed; the workload fills it in.
    pub samples: u64,
    /// Shape checks that held, of [`SHAPE_CHECKS`] (0 on
    /// `stream_ingest`, which runs none).
    pub shape_checks_held: usize,
    /// Entries in the knowledge base after extraction.
    pub kb_entries: usize,
    /// Recommendations over all policies.
    pub recommendations: usize,
}

/// Runs the whole sequence over `generated` (resident or out-of-core —
/// the calls are the same). Every call and every check is an operation;
/// a missed shape check fails only when `shape_checks_gate` is set (the
/// default seeds, on which all 26 are known to hold).
pub fn characterize(
    cx: &mut Ctx,
    generated: &GeneratedTrace,
    profile: &CheckProfile,
    shape_checks_gate: bool,
) -> Outcome {
    let trace = &generated.trace;
    let config = ReportConfig::default();
    let classifier = PatternClassifier::default();
    let mut digest = Digest::default();
    let mut shape = ShapeChecks::new();

    // The eight entry points `CharacterizationReport::analyze` calls,
    // one by one, each followed by its figure's checks.
    if let Some(fig1) = cx.call("analysis.fig1", || {
        DeploymentSizeAnalysis::run(trace, config.snapshot)
    }) {
        checks::fig1_checks(&fig1, profile, &mut shape);
        digest.add(&fig1);
    }
    if let Some(fig2) = cx.call("analysis.fig2", || VmSizeAnalysis::run(trace)) {
        checks::fig2_checks(&fig2, profile, &mut shape);
        digest.add(&fig2);
    }
    if let Some(fig3) = cx.call("analysis.fig3", || {
        TemporalAnalysis::run(trace, config.sample_region)
    }) {
        checks::fig3_checks(&fig3, profile, &mut shape);
        digest.add(&fig3);
    }
    if let Some(fig4) = cx.call("analysis.fig4", || SpatialAnalysis::run(trace)) {
        checks::fig4_checks(&fig4, profile, &mut shape);
        digest.add(&fig4);
    }
    let fig5 = [CloudKind::Private, CloudKind::Public].map(|cloud| {
        cx.call("analysis.fig5", || {
            pattern_shares(trace, cloud, &classifier, config.max_classified_vms)
        })
    });
    if let [Some(private), Some(public)] = &fig5 {
        checks::fig5_checks(private, public, profile, &mut shape);
        digest.add(&fig5);
    }
    let fig6 = [CloudKind::Private, CloudKind::Public].map(|cloud| {
        cx.call("analysis.fig6", || {
            UtilizationDistribution::run(trace, cloud, config.max_band_vms)
        })
    });
    if let [Some(private), Some(public)] = &fig6 {
        checks::fig6_checks(private, public, profile, &mut shape);
        digest.add(&fig6);
    }
    let fig7a = [CloudKind::Private, CloudKind::Public].map(|cloud| {
        cx.call("analysis.fig7a", || {
            node_vm_correlation_cdf(trace, cloud, config.max_nodes)
        })
    });
    let fig7b = [CloudKind::Private, CloudKind::Public].map(|cloud| {
        cx.call("analysis.fig7b", || {
            region_pair_correlation_cdf(trace, cloud, &config.geo)
        })
    });
    // Fig 7(c): a trace without a flagship service scores 0, exactly as
    // `all_figure_checks` treats it — a missed check, not an error.
    let alignment = generated.flagship_service().map_or(0.0, |svc| {
        cx.call("analysis.fig7c", || {
            service_region_alignment(trace, svc.service)
        })
        .unwrap_or(0.0)
    });
    if let ([Some(node_private), Some(node_public)], [Some(region_private), Some(region_public)]) =
        (fig7a, fig7b)
    {
        let node = (node_private, node_public);
        let region = (region_private, region_public);
        checks::fig7_checks(&node, &region, alignment, profile, &mut shape);
        digest.add(&(node, region, alignment));
    }

    // Management experiments of Section VI.
    match cx.call("mgmt.pilot", || {
        checks::run_pilot(generated, config.snapshot)
    }) {
        Some(Some(pilot)) => {
            checks::pilot_checks(&pilot.outcome, profile, &mut shape);
            digest.add(&pilot);
        }
        Some(None) | None => shape.check(
            "pilot: a shiftable underutilized service exists",
            false,
            "pilot could not run on this trace".into(),
        ),
    }
    let sweep = cx.call("mgmt.oversub", || {
        let pool = checks::oversub_pool(trace, profile.oversub_pool);
        checks::run_oversub_sweep(&pool)
    });
    if let Some(sweep) = sweep {
        checks::oversub_checks(&sweep, profile, &mut shape);
        digest.add(&sweep);
    }

    // A figure that errored recorded no checks: count them as missed.
    let held = shape.lines().filter(|(holds, _)| *holds).count();
    for (holds, line) in shape.lines() {
        cx.check(holds || !shape_checks_gate, || {
            format!("shape check: {line}")
        });
    }
    for _ in shape.len()..SHAPE_CHECKS {
        cx.check(!shape_checks_gate, || {
            "shape check not evaluated (its figure failed)".into()
        });
    }

    // Section V: the knowledge base, then the policies it serves.
    let kb = KnowledgeBase::new();
    let stats = cx.call_ok("kb.extract", || {
        run_extraction_pipeline(
            trace,
            &kb,
            &classifier,
            MAX_CLASSIFIED_VMS_PER_SUB,
            Parallelism::auto().workers(),
        )
    });
    cx.check(stats.failed == 0 && stats.stored == kb.len(), || {
        format!("kb.extract: {stats:?} but {} entries stored", kb.len())
    });
    let recommendations = cx.call_ok("mgmt.policy_engine", || PolicyEngine::standard().run(&kb));
    let (spot, shiftable, entries) = cx.call_ok("kb.query", || {
        (
            KbQuery::spot_candidates().count(&kb),
            KbQuery::shiftable().count(&kb),
            KbQuery::all().collect(&kb),
        )
    });
    digest.add(&(spot, shiftable, entries, &recommendations));

    Outcome {
        digest: digest.value(),
        samples: 0,
        shape_checks_held: held,
        kb_entries: kb.len(),
        recommendations: recommendations.iter().map(|(_, r)| r.len()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_values_that_differ_in_one_bit() {
        let digest_of = |v: f64| {
            let mut d = Digest::default();
            d.add(&vec![(1u32, v)]);
            d.value()
        };
        let x = 0.1f64 + 0.2;
        assert_eq!(digest_of(x), digest_of(x));
        assert_ne!(digest_of(x), digest_of(f64::from_bits(x.to_bits() + 1)));
        assert_ne!(digest_of(0.0), digest_of(-0.0));
    }
}
