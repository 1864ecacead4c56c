//! The SKU catalog and VM-size sampling (Figure 2).
//!
//! Sizes live on a discrete grid: cores in powers of two, memory at a few
//! GiB-per-core ratios. Private-cloud sampling concentrates on the middle
//! of the grid; public-cloud sampling adds mass at the extreme corners
//! (tiny and huge VMs), reproducing the paper's heatmap observation.

use crate::config::SizeProfile;
use cloudscope_model::vm::VmSize;
use cloudscope_stats::dist::Categorical;
use rand::Rng;

/// Core counts offered by the platform.
pub const CORE_OPTIONS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Memory-per-core ratios offered (GiB per core).
pub const MEMORY_PER_CORE_OPTIONS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// Samples VM sizes from the catalog according to a [`SizeProfile`].
#[derive(Debug, Clone)]
pub struct SizeSampler {
    catalog: Vec<VmSize>,
    picker: Categorical,
}

impl SizeSampler {
    /// Builds the weighted catalog for one cloud profile.
    ///
    /// Central sizes get Gaussian weight around the 8-core / 4-GiB-per-
    /// core middle with width `1/concentration`; `corner_mass` spreads
    /// extra weight onto the two extreme corners of the grid.
    #[must_use]
    pub fn new(profile: SizeProfile) -> Self {
        let mut catalog = Vec::new();
        let mut weights = Vec::new();
        let core_mid = 3.0; // index of 8 cores
        let mem_mid = 2.0; // index of 4 GiB/core
        for (ci, &cores) in CORE_OPTIONS.iter().enumerate() {
            for (mi, &ratio) in MEMORY_PER_CORE_OPTIONS.iter().enumerate() {
                catalog.push(VmSize::new(cores, f64::from(cores) * ratio));
                let dc = (ci as f64 - core_mid) * profile.concentration / 2.0;
                let dm = (mi as f64 - mem_mid) * profile.concentration / 1.5;
                weights.push((-0.5 * (dc * dc + dm * dm)).exp());
            }
        }
        // Normalize the gaussian part, then mix in the corner mass.
        let total: f64 = weights.iter().sum();
        for w in &mut weights {
            *w = *w / total * (1.0 - profile.corner_mass);
        }
        let n_mem = MEMORY_PER_CORE_OPTIONS.len();
        let low_corner = 0; // 1 core, 1 GiB/core
        let high_corner = catalog.len() - 1; // 64 cores, 8 GiB/core
        weights[low_corner] += profile.corner_mass * 0.6;
        weights[high_corner] += profile.corner_mass * 0.4;
        debug_assert_eq!(catalog.len(), CORE_OPTIONS.len() * n_mem);
        Self {
            picker: Categorical::new(&weights).expect("weights are valid"),
            catalog,
        }
    }

    /// Draws one VM size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> VmSize {
        self.catalog[self.picker.sample_index(rng)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fraction_at_corners(profile: SizeProfile, n: usize) -> f64 {
        let sampler = SizeSampler::new(profile);
        let mut rng = StdRng::seed_from_u64(11);
        let mut corners = 0usize;
        for _ in 0..n {
            let s = sampler.sample(&mut rng);
            let tiny = s.cores() == 1 && s.memory_gb() <= 1.0;
            let huge = s.cores() == 64 && s.memory_gb() >= 512.0;
            if tiny || huge {
                corners += 1;
            }
        }
        corners as f64 / n as f64
    }

    #[test]
    fn catalog_covers_grid() {
        let sampler = SizeSampler::new(SizeProfile {
            corner_mass: 0.0,
            concentration: 1.0,
        });
        assert_eq!(sampler.catalog.len(), 28);
        assert!(sampler
            .catalog
            .iter()
            .any(|s| s.cores() == 64 && s.memory_gb() == 512.0));
    }

    #[test]
    fn public_profile_has_more_corner_mass() {
        let private = fraction_at_corners(
            SizeProfile {
                corner_mass: 0.01,
                concentration: 2.2,
            },
            20_000,
        );
        let public = fraction_at_corners(
            SizeProfile {
                corner_mass: 0.10,
                concentration: 1.0,
            },
            20_000,
        );
        assert!(
            public > 4.0 * private,
            "public {public} vs private {private}"
        );
        assert!(public > 0.08);
    }

    #[test]
    fn concentration_narrows_distribution() {
        let spread = |conc: f64| {
            let sampler = SizeSampler::new(SizeProfile {
                corner_mass: 0.0,
                concentration: conc,
            });
            let mut rng = StdRng::seed_from_u64(5);
            let cores: Vec<f64> = (0..20_000)
                .map(|_| f64::from(sampler.sample(&mut rng).cores()).log2())
                .collect();
            cloudscope_stats::summary::Summary::from_iter(cores).population_std_dev()
        };
        assert!(spread(2.5) < spread(0.8));
    }

    #[test]
    fn middle_of_grid_dominates() {
        let sampler = SizeSampler::new(SizeProfile {
            corner_mass: 0.0,
            concentration: 2.0,
        });
        let mut rng = StdRng::seed_from_u64(5);
        let mut mid = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            let s = sampler.sample(&mut rng);
            if (4..=16).contains(&s.cores()) {
                mid += 1;
            }
        }
        assert!(mid as f64 / N as f64 > 0.7);
    }
}
