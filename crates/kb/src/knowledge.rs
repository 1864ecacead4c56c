//! The unit of workload knowledge: everything the optimization policies
//! need to know about one subscription's workload, extracted from
//! telemetry.

use cloudscope_analysis::UtilizationPattern;
use cloudscope_model::prelude::*;
use serde::{Deserialize, Serialize};

/// Coarse lifetime behaviour of a subscription's churn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LifetimeClass {
    /// Most churn VMs live under an hour (spot candidates).
    MostlyShort,
    /// Mixed lifetimes.
    Mixed,
    /// Predominantly long-running VMs.
    MostlyLong,
}

/// Workload knowledge for one subscription, as stored in the knowledge
/// base (the paper's Section V proposes exactly this: a store that
/// "continuously extracts workload knowledge from telemetry signals
/// (e.g., CPU utilization, VM lifetime)").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadKnowledge {
    /// The subscription this knowledge describes.
    pub subscription: SubscriptionId,
    /// Which cloud it runs in.
    pub cloud: CloudKind,
    /// Dominant utilization pattern across its VMs, if classifiable.
    pub pattern: Option<UtilizationPattern>,
    /// Churn lifetime class.
    pub lifetime: LifetimeClass,
    /// Mean CPU utilization (percent) across telemetry VMs.
    pub mean_util: f64,
    /// 95th-percentile CPU utilization (percent) over every present
    /// sample of every VM: the type-7 (linearly interpolated) percentile
    /// over the stored half-percent levels — exact, and independent of
    /// the order VMs or samples were read in.
    pub p95_util: f64,
    /// Coefficient of variation of the subscription's aggregate
    /// utilization over time (burstiness).
    pub util_cv: f64,
    /// Number of distinct deployed regions.
    pub regions: usize,
    /// `true` if cross-region utilization correlation marks it
    /// region-agnostic; `None` when single-region / not measurable.
    pub region_agnostic: Option<bool>,
    /// VMs observed.
    pub vm_count: usize,
    /// Allocated cores across observed VMs.
    pub cores: u64,
    /// When the knowledge was last refreshed.
    pub updated_at: SimTime,
}

impl WorkloadKnowledge {
    /// `true` if this workload is a good *spot VM* candidate: public
    /// cloud, short-lived churn (the paper's Insight 2 implication).
    #[must_use]
    pub fn spot_candidate(&self) -> bool {
        self.cloud == CloudKind::Public && self.lifetime == LifetimeClass::MostlyShort
    }

    /// `true` if this workload tolerates over-subscription: stable
    /// pattern with modest peaks (Insight 3 implication).
    #[must_use]
    pub fn oversubscription_candidate(&self) -> bool {
        self.pattern == Some(UtilizationPattern::Stable) && self.p95_util < 60.0
    }

    /// `true` if this workload can be shifted across regions for
    /// capacity balancing (Insight 4 implication).
    #[must_use]
    pub fn shiftable(&self) -> bool {
        self.region_agnostic == Some(true)
    }

    /// `true` if this workload needs predictive pre-provisioning /
    /// overclocking headroom for hour-mark peaks (Insight 3 implication).
    #[must_use]
    pub fn needs_peak_headroom(&self) -> bool {
        self.pattern == Some(UtilizationPattern::HourlyPeak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knowledge() -> WorkloadKnowledge {
        WorkloadKnowledge {
            subscription: SubscriptionId::new(0),
            cloud: CloudKind::Public,
            pattern: Some(UtilizationPattern::Stable),
            lifetime: LifetimeClass::MostlyShort,
            mean_util: 12.0,
            p95_util: 22.0,
            util_cv: 0.2,
            regions: 1,
            region_agnostic: None,
            vm_count: 10,
            cores: 40,
            updated_at: SimTime::ZERO,
        }
    }

    #[test]
    fn spot_candidates_are_public_short_lived() {
        let k = knowledge();
        assert!(k.spot_candidate());
        let mut private = k.clone();
        private.cloud = CloudKind::Private;
        assert!(!private.spot_candidate());
        let mut long = k;
        long.lifetime = LifetimeClass::MostlyLong;
        assert!(!long.spot_candidate());
    }

    #[test]
    fn oversubscription_needs_stable_low_peak() {
        let k = knowledge();
        assert!(k.oversubscription_candidate());
        let mut hot = k.clone();
        hot.p95_util = 80.0;
        assert!(!hot.oversubscription_candidate());
        let mut diurnal = k;
        diurnal.pattern = Some(UtilizationPattern::Diurnal);
        assert!(!diurnal.oversubscription_candidate());
    }

    #[test]
    fn shiftable_requires_measured_agnosticism() {
        let mut k = knowledge();
        assert!(!k.shiftable());
        k.region_agnostic = Some(true);
        assert!(k.shiftable());
        k.region_agnostic = Some(false);
        assert!(!k.shiftable());
    }

    #[test]
    fn hourly_peak_flags_headroom() {
        let mut k = knowledge();
        assert!(!k.needs_peak_headroom());
        k.pattern = Some(UtilizationPattern::HourlyPeak);
        assert!(k.needs_peak_headroom());
    }
}
