//! Configuration validation: typed errors for out-of-range knobs, so a
//! bad config fails fast with a message instead of a deep panic.

use crate::config::{CloudProfile, GeneratorConfig};
use std::error::Error;
use std::fmt;

/// A configuration-validation error: which field and what rule it broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted path of the offending field (e.g. `private.geo_lb_fraction`).
    pub field: String,
    /// The violated rule.
    pub rule: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config: {} {}", self.field, self.rule)
    }
}

impl Error for ConfigError {}

fn err(field: impl Into<String>, rule: &'static str) -> ConfigError {
    ConfigError {
        field: field.into(),
        rule,
    }
}

fn check_fraction(value: f64, field: &str) -> Result<(), ConfigError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(err(field, "must be in [0, 1]"))
    }
}

fn validate_cloud(profile: &CloudProfile, prefix: &str) -> Result<(), ConfigError> {
    if profile.subscriptions == 0 {
        return Err(err(format!("{prefix}.subscriptions"), "must be positive"));
    }
    if profile.deployment_median.is_nan() || profile.deployment_median <= 0.0 {
        return Err(err(
            format!("{prefix}.deployment_median"),
            "must be positive",
        ));
    }
    if profile.deployment_sigma.is_nan() || profile.deployment_sigma < 0.0 {
        return Err(err(
            format!("{prefix}.deployment_sigma"),
            "must be non-negative",
        ));
    }
    check_fraction(
        profile.single_region_fraction,
        &format!("{prefix}.single_region_fraction"),
    )?;
    if profile.max_regions < 1 {
        return Err(err(format!("{prefix}.max_regions"), "must be at least 1"));
    }
    check_fraction(
        profile.standing_fraction,
        &format!("{prefix}.standing_fraction"),
    )?;
    check_fraction(
        profile.geo_lb_fraction,
        &format!("{prefix}.geo_lb_fraction"),
    )?;
    check_fraction(
        profile.autoscale_fraction,
        &format!("{prefix}.autoscale_fraction"),
    )?;
    check_fraction(profile.spot_fraction, &format!("{prefix}.spot_fraction"))?;
    check_fraction(
        profile.size.corner_mass,
        &format!("{prefix}.size.corner_mass"),
    )?;
    if profile.arrival.base_rate_per_hour.is_nan() || profile.arrival.base_rate_per_hour < 0.0 {
        return Err(err(
            format!("{prefix}.arrival.base_rate_per_hour"),
            "must be non-negative",
        ));
    }
    check_fraction(
        profile.arrival.diurnal_amplitude,
        &format!("{prefix}.arrival.diurnal_amplitude"),
    )?;
    if profile.arrival.weekend_factor.is_nan() || profile.arrival.weekend_factor < 0.0 {
        return Err(err(
            format!("{prefix}.arrival.weekend_factor"),
            "must be non-negative",
        ));
    }
    let lt = &profile.lifetime;
    if !(0.0..=1.0).contains(&lt.short_fraction)
        || !(0.0..=1.0).contains(&lt.long_fraction)
        || lt.short_fraction + lt.long_fraction > 1.0
    {
        return Err(err(
            format!("{prefix}.lifetime"),
            "short+long fractions must form a sub-probability",
        ));
    }
    if [
        lt.short_mean_minutes,
        lt.medium_median_minutes,
        lt.long_median_minutes,
    ]
    .iter()
    .any(|&scale| scale.is_nan() || scale <= 0.0)
    {
        return Err(err(format!("{prefix}.lifetime"), "scales must be positive"));
    }
    let mix = profile.pattern_mix.weights();
    if mix.iter().any(|&w| w < 0.0 || !w.is_finite()) || mix.iter().sum::<f64>() <= 0.0 {
        return Err(err(
            format!("{prefix}.pattern_mix"),
            "weights must be non-negative with positive sum",
        ));
    }
    let (lo, hi) = profile.peak_hour_range;
    if !(0.0..=24.0).contains(&lo) || !(0.0..=24.0).contains(&hi) || lo > hi {
        return Err(err(
            format!("{prefix}.peak_hour_range"),
            "must be an ordered range within [0, 24]",
        ));
    }
    Ok(())
}

impl GeneratorConfig {
    /// Validates every knob; [`generate()`](crate::generate()) calls this first.
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.topology.regions.is_empty() {
            return Err(err("topology.regions", "must not be empty"));
        }
        // The store encodes region strings with a u16 length prefix.
        for (i, region) in self.topology.regions.iter().enumerate() {
            for (field, value) in [("name", &region.name), ("geo", &region.geo)] {
                if value.len() > usize::from(u16::MAX) {
                    return Err(err(
                        format!("topology.regions[{i}].{field}"),
                        "must be at most 65 535 bytes",
                    ));
                }
            }
        }
        if self.topology.private_clusters_per_region == 0
            && self.topology.public_clusters_per_region == 0
        {
            return Err(err("topology", "needs clusters in at least one cloud"));
        }
        if self.topology.racks_per_cluster == 0 || self.topology.nodes_per_rack == 0 {
            return Err(err("topology", "clusters need racks and nodes"));
        }
        validate_cloud(&self.private, "private")?;
        validate_cloud(&self.public, "public")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        GeneratorConfig::default().validate().unwrap();
        GeneratorConfig::small(1).validate().unwrap();
        GeneratorConfig::medium(1).validate().unwrap();
    }

    #[test]
    fn bad_fields_are_named() {
        let mut cfg = GeneratorConfig::small(1);
        cfg.private.geo_lb_fraction = 1.5;
        let e = cfg.validate().unwrap_err();
        assert_eq!(e.field, "private.geo_lb_fraction");
        assert!(e.to_string().contains("[0, 1]"));
    }

    #[test]
    fn topology_rules() {
        let mut cfg = GeneratorConfig::small(1);
        cfg.topology.regions.clear();
        assert_eq!(cfg.validate().unwrap_err().field, "topology.regions");

        let mut cfg = GeneratorConfig::small(1);
        cfg.topology.nodes_per_rack = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn region_strings_fit_the_store_encoding() {
        let longest = "x".repeat(usize::from(u16::MAX));
        let mut cfg = GeneratorConfig::small(1);
        cfg.topology.regions[1].name.clone_from(&longest);
        cfg.topology.regions[1].geo.clone_from(&longest);
        cfg.validate().unwrap();

        cfg.topology.regions[1].geo.push('x');
        let e = cfg.validate().unwrap_err();
        assert_eq!(e.field, "topology.regions[1].geo");
        cfg.topology.regions[0].name = longest + "x";
        let e = cfg.validate().unwrap_err();
        assert_eq!(e.field, "topology.regions[0].name");
        assert!(e.to_string().contains("65 535 bytes"), "{e}");
    }

    #[test]
    fn lifetime_sub_probability() {
        let mut cfg = GeneratorConfig::small(1);
        cfg.public.lifetime.short_fraction = 0.9;
        cfg.public.lifetime.long_fraction = 0.2;
        let e = cfg.validate().unwrap_err();
        assert_eq!(e.field, "public.lifetime");
    }

    #[test]
    fn pattern_mix_rules() {
        let mut cfg = GeneratorConfig::small(1);
        cfg.private.pattern_mix.diurnal = -1.0;
        assert_eq!(cfg.validate().unwrap_err().field, "private.pattern_mix");
        let mut cfg = GeneratorConfig::small(1);
        cfg.private.pattern_mix = crate::config::PatternMix {
            diurnal: 0.0,
            stable: 0.0,
            irregular: 0.0,
            hourly_peak: 0.0,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn peak_hour_range_ordered() {
        let mut cfg = GeneratorConfig::small(1);
        cfg.public.peak_hour_range = (20.0, 8.0);
        assert_eq!(cfg.validate().unwrap_err().field, "public.peak_hour_range");
    }
}
