//! Subscription / service plan synthesis: who exists, where they deploy,
//! how large they are, and what utilization profile their VMs share.

use crate::config::CloudProfile;
use crate::utilization::{PatternKind, ServiceUtilProfile};
use cloudscope_model::ids::RegionId;
use cloudscope_model::subscription::{CloudKind, PartyKind};
use cloudscope_stats::dist::{LogNormal, Sample, Zipf};
use rand::seq::SliceRandom;
use rand::Rng;

/// Fraction of public-cloud subscriptions that are first-party (the
/// provider also runs its own services in the public cloud).
const PUBLIC_FIRST_PARTY_FRACTION: f64 = 0.15;

/// Standing VMs per internal service group: a large subscription (a big
/// first-party organization) runs many distinct services, each with its
/// own utilization profile. This bounds the variance of the Figure 5(d)
/// per-VM pattern shares and mirrors how production subscriptions are
/// structured.
const VMS_PER_SERVICE_GROUP: usize = 60;
/// Cap on service groups per subscription.
const MAX_SERVICE_GROUPS: usize = 12;

/// The plan for one subscription; the generator turns plans into VMs.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionPlan {
    /// Which cloud the subscription lives in.
    pub cloud: CloudKind,
    /// First- or third-party ownership.
    pub party: PartyKind,
    /// Regions the subscription deploys into (distinct, non-empty).
    pub regions: Vec<RegionId>,
    /// Standing (long-running) VMs per region, aligned with `regions`.
    pub standing_per_region: Vec<usize>,
    /// Utilization profiles of the subscription's internal service
    /// groups (at least one). All groups share the subscription's
    /// region-agnosticism, but draw their own pattern and phase.
    pub groups: Vec<ServiceUtilProfile>,
    /// Relative weight of this subscription when regional churn events
    /// are attributed to subscriptions.
    pub churn_weight: f64,
}

impl SubscriptionPlan {
    /// Total standing VMs across regions.
    #[must_use]
    pub fn standing_total(&self) -> usize {
        self.standing_per_region.iter().sum()
    }
}

/// Synthesizes all subscription plans for one cloud.
///
/// - Region count: 1 with probability `single_region_fraction`, else
///   `1 + Zipf` capped at `max_regions` (Fig 4(a)).
/// - Standing size: log-normal, boosted per extra region by
///   `multi_region_size_boost` (Fig 4(b): multi-region private
///   subscriptions hold most cores).
/// - Pattern: drawn from the cloud's mixture (Fig 5(d)); multi-region
///   subscriptions are geo-load-balanced (region-agnostic) with
///   probability `geo_lb_fraction` (Fig 7).
pub fn synthesize_plans<R: Rng + ?Sized>(
    cloud: CloudKind,
    profile: &CloudProfile,
    regions: &[RegionId],
    rng: &mut R,
) -> Vec<SubscriptionPlan> {
    assert!(!regions.is_empty(), "need at least one region");
    let size_dist = LogNormal::from_median(profile.deployment_median, profile.deployment_sigma)
        .expect("valid deployment size distribution");
    let extra_regions = Zipf::new(profile.max_regions.max(2) - 1, 1.1).expect("valid zipf");
    let mut plans = Vec::with_capacity(profile.subscriptions);
    for _ in 0..profile.subscriptions {
        // Where.
        let region_count = if rng.random::<f64>() < profile.single_region_fraction {
            1
        } else {
            (1 + extra_regions.sample_rank(rng)).min(regions.len().min(profile.max_regions))
        };
        let mut pool: Vec<RegionId> = regions.to_vec();
        pool.shuffle(rng);
        pool.truncate(region_count);

        // How big.
        let boost = profile
            .multi_region_size_boost
            .powi(region_count as i32 - 1);
        let total = (size_dist.sample(rng) * boost).round().max(1.0) as usize;
        let base = total / region_count;
        let remainder = total % region_count;
        let standing_per_region: Vec<usize> = (0..region_count)
            .map(|i| base + usize::from(i < remainder))
            .collect();

        // Who and what.
        let party = match cloud {
            CloudKind::Private => PartyKind::FirstParty,
            CloudKind::Public => {
                if rng.random::<f64>() < PUBLIC_FIRST_PARTY_FRACTION {
                    PartyKind::FirstParty
                } else {
                    PartyKind::ThirdParty
                }
            }
        };
        let region_agnostic = region_count > 1 && rng.random::<f64>() < profile.geo_lb_fraction;
        let group_count = total
            .div_ceil(VMS_PER_SERVICE_GROUP)
            .clamp(1, MAX_SERVICE_GROUPS);
        let groups = (0..group_count)
            .map(|_| {
                let kind = PatternKind::sample_from_mix(&profile.pattern_mix, rng);
                ServiceUtilProfile::sample_in_range(
                    kind,
                    region_agnostic,
                    profile.peak_hour_range,
                    rng,
                )
            })
            .collect();

        plans.push(SubscriptionPlan {
            cloud,
            party,
            regions: pool,
            standing_per_region,
            groups,
            churn_weight: (total as f64).sqrt(),
        });
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CloudProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn regions(n: u32) -> Vec<RegionId> {
        (0..n).map(RegionId::new).collect()
    }

    fn plans_for(cloud: CloudKind, profile: &CloudProfile, seed: u64) -> Vec<SubscriptionPlan> {
        let mut rng = StdRng::seed_from_u64(seed);
        synthesize_plans(cloud, profile, &regions(10), &mut rng)
    }

    #[test]
    fn plan_counts_match_config() {
        let p = CloudProfile::private_default();
        let plans = plans_for(CloudKind::Private, &p, 1);
        assert_eq!(plans.len(), p.subscriptions);
        for plan in &plans {
            assert!(!plan.regions.is_empty());
            assert_eq!(plan.regions.len(), plan.standing_per_region.len());
            assert!(plan.standing_total() >= 1);
            assert!(!plan.groups.is_empty());
            assert!(plan.groups.len() <= MAX_SERVICE_GROUPS);
            assert!(plan.churn_weight > 0.0);
            // Regions are distinct.
            let mut rs = plan.regions.clone();
            rs.sort();
            rs.dedup();
            assert_eq!(rs.len(), plan.regions.len());
        }
    }

    #[test]
    fn private_deployments_larger_than_public() {
        let private = plans_for(CloudKind::Private, &CloudProfile::private_default(), 2);
        let public = plans_for(CloudKind::Public, &CloudProfile::public_default(), 2);
        let med = |plans: &[SubscriptionPlan]| {
            let mut sizes: Vec<usize> =
                plans.iter().map(SubscriptionPlan::standing_total).collect();
            sizes.sort_unstable();
            sizes[sizes.len() / 2]
        };
        assert!(med(&private) >= 10 * med(&public).max(1));
    }

    #[test]
    fn single_region_fractions_match() {
        for (cloud, profile) in [
            (CloudKind::Private, CloudProfile::private_default()),
            (CloudKind::Public, CloudProfile::public_default()),
        ] {
            let plans = plans_for(cloud, &profile, 3);
            let single =
                plans.iter().filter(|p| p.regions.len() == 1).count() as f64 / plans.len() as f64;
            assert!(
                (single - profile.single_region_fraction).abs() < 0.12,
                "{cloud}: single fraction {single}"
            );
        }
    }

    #[test]
    fn private_cloud_is_first_party() {
        let plans = plans_for(CloudKind::Private, &CloudProfile::private_default(), 4);
        assert!(plans.iter().all(|p| p.party == PartyKind::FirstParty));
        let public = plans_for(CloudKind::Public, &CloudProfile::public_default(), 4);
        let third = public
            .iter()
            .filter(|p| p.party == PartyKind::ThirdParty)
            .count() as f64
            / public.len() as f64;
        assert!((third - 0.85).abs() < 0.05, "third-party fraction {third}");
    }

    #[test]
    fn geo_lb_mostly_private_multi_region() {
        let private = plans_for(CloudKind::Private, &CloudProfile::private_default(), 5);
        let public = plans_for(CloudKind::Public, &CloudProfile::public_default(), 5);
        let agnostic_fraction = |plans: &[SubscriptionPlan]| {
            let multi: Vec<_> = plans.iter().filter(|p| p.regions.len() > 1).collect();
            multi.iter().filter(|p| p.groups[0].region_agnostic).count() as f64
                / multi.len().max(1) as f64
        };
        assert!(agnostic_fraction(&private) > 0.55);
        assert!(agnostic_fraction(&public) < 0.3);
        // Single-region subscriptions are never flagged region-agnostic.
        assert!(private
            .iter()
            .filter(|p| p.regions.len() == 1)
            .all(|p| p.groups.iter().all(|g| !g.region_agnostic)));
    }

    #[test]
    fn multi_region_private_subscriptions_hold_more_vms() {
        let plans = plans_for(CloudKind::Private, &CloudProfile::private_default(), 6);
        let mean = |f: &dyn Fn(&&SubscriptionPlan) -> bool| {
            let selected: Vec<_> = plans.iter().filter(f).collect();
            selected.iter().map(|p| p.standing_total()).sum::<usize>() as f64
                / selected.len().max(1) as f64
        };
        let multi = mean(&|p| p.regions.len() > 1);
        let single = mean(&|p| p.regions.len() == 1);
        assert!(multi > 1.05 * single, "multi {multi} vs single {single}");
    }
}
