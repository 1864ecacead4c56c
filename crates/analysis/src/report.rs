//! The full characterization report: runs every figure's analysis over a
//! trace.

use crate::correlation::{node_vm_correlation_cdf, region_pair_correlation_cdf, STUDY_GEO};
use crate::deployment::DeploymentSizeAnalysis;
use crate::error::AnalysisError;
use crate::patterns::{pattern_shares, PatternClassifier, PatternShares};
use crate::spatial::SpatialAnalysis;
use crate::temporal::TemporalAnalysis;
use crate::utilization::UtilizationDistribution;
use crate::vmsize::VmSizeAnalysis;
use cloudscope_model::prelude::*;
use cloudscope_stats::Ecdf;

/// Work limits for a report run: the full pipeline touches every VM, so
/// the heavyweight per-VM analyses are stride-sampled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportConfig {
    /// Snapshot time for the deployment-size analyses (Fig 1).
    pub snapshot: SimTime,
    /// Region used for the Fig 3(b)/(c) sample curves.
    pub sample_region: RegionId,
    /// Geography tag for the cross-region study (Fig 7(b)).
    pub geo: String,
    /// Cap on VMs classified per cloud (Fig 5).
    pub max_classified_vms: usize,
    /// Cap on VMs aggregated into utilization bands (Fig 6).
    pub max_band_vms: usize,
    /// Cap on nodes examined for node-level correlation (Fig 7(a)).
    pub max_nodes: usize,
}

// Manual impl: `geo` is a String, so the struct cannot be Copy; keep the
// derive list honest.
impl Default for ReportConfig {
    fn default() -> Self {
        Self {
            // Wednesday 14:00 UTC: an ordinary weekday afternoon.
            snapshot: SimTime::from_minutes(2 * 24 * 60 + 14 * 60),
            sample_region: RegionId::new(0),
            geo: STUDY_GEO.to_owned(),
            max_classified_vms: 4000,
            max_band_vms: 3000,
            max_nodes: 1500,
        }
    }
}

/// Everything the paper's evaluation section reports, for one trace.
#[derive(Debug, Clone)]
pub struct CharacterizationReport {
    /// Figure 1.
    pub deployment: DeploymentSizeAnalysis,
    /// Figure 2.
    pub vm_size: VmSizeAnalysis,
    /// Figure 3.
    pub temporal: TemporalAnalysis,
    /// Figure 4.
    pub spatial: SpatialAnalysis,
    /// Figure 5(d), private cloud.
    pub private_patterns: PatternShares,
    /// Figure 5(d), public cloud.
    pub public_patterns: PatternShares,
    /// Figure 6(a)/(c), private cloud.
    pub private_utilization: UtilizationDistribution,
    /// Figure 6(b)/(d), public cloud.
    pub public_utilization: UtilizationDistribution,
    /// Figure 7(a): node-level correlation CDFs (private, public).
    pub node_correlation: (Ecdf, Ecdf),
    /// Figure 7(b): cross-region correlation CDFs (private, public).
    pub region_correlation: (Ecdf, Ecdf),
}

impl CharacterizationReport {
    /// Runs the full pipeline.
    ///
    /// # Errors
    /// Returns the first analysis error (typically [`AnalysisError::NoData`]
    /// when the trace lacks a population the paper's figures need).
    pub fn analyze(trace: &Trace, config: &ReportConfig) -> Result<Self, AnalysisError> {
        let classifier = PatternClassifier;
        // One child span per figure family, so a metrics snapshot shows
        // where analysis wall time went.
        let report_span = cloudscope_obs::span("analysis.report");
        let deployment = {
            let _s = report_span.child("deployment");
            DeploymentSizeAnalysis::run(trace, config.snapshot)?
        };
        let vm_size = {
            let _s = report_span.child("vm_size");
            VmSizeAnalysis::run(trace)?
        };
        let temporal = {
            let _s = report_span.child("temporal");
            TemporalAnalysis::run(trace, config.sample_region)?
        };
        let spatial = {
            let _s = report_span.child("spatial");
            SpatialAnalysis::run(trace)?
        };
        let (private_patterns, public_patterns) = {
            let _s = report_span.child("patterns");
            (
                pattern_shares(
                    trace,
                    CloudKind::Private,
                    &classifier,
                    config.max_classified_vms,
                )?,
                pattern_shares(
                    trace,
                    CloudKind::Public,
                    &classifier,
                    config.max_classified_vms,
                )?,
            )
        };
        let (private_utilization, public_utilization) = {
            let _s = report_span.child("utilization");
            (
                UtilizationDistribution::run(trace, CloudKind::Private, config.max_band_vms)?,
                UtilizationDistribution::run(trace, CloudKind::Public, config.max_band_vms)?,
            )
        };
        let (node_correlation, region_correlation) = {
            let _s = report_span.child("correlation");
            (
                (
                    node_vm_correlation_cdf(trace, CloudKind::Private, config.max_nodes)?,
                    node_vm_correlation_cdf(trace, CloudKind::Public, config.max_nodes)?,
                ),
                (
                    region_pair_correlation_cdf(trace, CloudKind::Private, &config.geo)?,
                    region_pair_correlation_cdf(trace, CloudKind::Public, &config.geo)?,
                ),
            )
        };
        Ok(Self {
            deployment,
            vm_size,
            temporal,
            spatial,
            private_patterns,
            public_patterns,
            private_utilization,
            public_utilization,
            node_correlation,
            region_correlation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_trace;

    #[test]
    fn full_report_on_tiny_trace() {
        let trace = tiny_trace();
        let config = ReportConfig {
            snapshot: SimTime::from_hours(24),
            ..ReportConfig::default()
        };
        let report = CharacterizationReport::analyze(&trace, &config).unwrap();
        // Private VMs correlate more with their node and across regions
        // even on the miniature trace.
        assert!(report.node_correlation.0.median() > report.node_correlation.1.median());
        assert!(report.region_correlation.0.median() > report.region_correlation.1.median());
    }

    #[test]
    fn default_config_is_sane() {
        let c = ReportConfig::default();
        assert!(c.snapshot.in_trace_week());
        assert!(!c.snapshot.is_weekend());
        assert!(c.max_classified_vms > 0);
    }
}
