//! VM-size analyses (Figure 2): the cores × memory heatmap and the
//! corner-mass statistic that distinguishes the public cloud's demand for
//! very small and very large VMs.

use crate::deployment::record_in_cloud;
use crate::error::AnalysisError;
use cloudscope_model::prelude::*;
use cloudscope_stats::{Axis, Heatmap};

/// Builds the Figure 2 heatmap for one cloud: logarithmic axes over
/// cores (`[1, 128)`) and memory GiB (`[1, 1024)`), one observation per
/// VM record. The whole figure is metadata-only, so a pushed-down store
/// read that skips every telemetry chunk reproduces it exactly.
///
/// # Errors
/// Returns [`AnalysisError::NoData`] if the cloud has no VMs.
pub fn vm_size_heatmap_from(
    records: &[VmRecord],
    subscriptions: &[Subscription],
    cloud: CloudKind,
) -> Result<Heatmap, AnalysisError> {
    let x = Axis::logarithmic(1.0, 128.0, 7).expect("static axis");
    let y = Axis::logarithmic(1.0, 1024.0, 10).expect("static axis");
    let mut heatmap = Heatmap::new(x, y);
    let mut any = false;
    for vm in records {
        if !record_in_cloud(vm, subscriptions, cloud) {
            continue;
        }
        heatmap.push(f64::from(vm.size.cores()), vm.size.memory_gb());
        any = true;
    }
    if !any {
        return Err(AnalysisError::NoData("vm sizes"));
    }
    Ok(heatmap)
}

/// The Figure 2 bundle: both heatmaps plus corner-mass fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct VmSizeAnalysis {
    /// Private-cloud size heatmap.
    pub private: Heatmap,
    /// Public-cloud size heatmap.
    pub public: Heatmap,
    /// Fraction of private VMs in the grid's extreme corners.
    pub private_corner_mass: f64,
    /// Fraction of public VMs in the grid's extreme corners.
    pub public_corner_mass: f64,
}

impl VmSizeAnalysis {
    /// Runs the Figure 2 analysis.
    ///
    /// # Errors
    /// Returns [`AnalysisError::NoData`] if either cloud has no VMs.
    pub fn run(trace: &Trace) -> Result<Self, AnalysisError> {
        Self::run_from_records(trace.vms(), trace.subscriptions())
    }

    /// Runs the Figure 2 analysis over a bare record slice, as produced
    /// by a metadata-only store scan (`read_vm_records`) that never
    /// touches a telemetry chunk.
    ///
    /// # Errors
    /// Returns [`AnalysisError::NoData`] if either cloud has no VMs.
    pub fn run_from_records(
        records: &[VmRecord],
        subscriptions: &[Subscription],
    ) -> Result<Self, AnalysisError> {
        let private = vm_size_heatmap_from(records, subscriptions, CloudKind::Private)?;
        let public = vm_size_heatmap_from(records, subscriptions, CloudKind::Public)?;
        // Two bins from each edge ≈ the "corner" regions of the figure.
        let private_corner_mass = private.corner_mass(2);
        let public_corner_mass = public.corner_mass(2);
        Ok(Self {
            private,
            public,
            private_corner_mass,
            public_corner_mass,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::tiny_trace;

    #[test]
    fn heatmap_counts_every_vm() {
        let trace = tiny_trace();
        let private =
            vm_size_heatmap_from(trace.vms(), trace.subscriptions(), CloudKind::Private).unwrap();
        assert_eq!(private.total(), 7, "6 standing + 1 short-lived");
        let public =
            vm_size_heatmap_from(trace.vms(), trace.subscriptions(), CloudKind::Public).unwrap();
        assert_eq!(public.total(), 5);
        assert_eq!(private.overflow(), 0);
    }

    #[test]
    fn sizes_land_in_expected_bins() {
        let trace = tiny_trace();
        let hm =
            vm_size_heatmap_from(trace.vms(), trace.subscriptions(), CloudKind::Private).unwrap();
        // 4-core VMs -> log2(4) = 2 -> bin 2 on the core axis;
        // 16 GiB -> log2(16)=4 -> bin 4 on the memory axis.
        assert_eq!(hm.cell(2, 4), 6);
        // The 2-core/8-GiB short-lived VM.
        assert_eq!(hm.cell(1, 3), 1);
    }

    #[test]
    fn full_analysis_runs() {
        let trace = tiny_trace();
        let analysis = VmSizeAnalysis::run(&trace).unwrap();
        assert!(analysis.private_corner_mass >= 0.0);
        assert!(analysis.public_corner_mass >= 0.0);
        assert_eq!(
            analysis.private.total() + analysis.public.total(),
            trace.vms().len() as u64
        );
    }
}
