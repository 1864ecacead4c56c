//! Virtual machines: sizes (SKUs), priorities, service models, and the
//! per-VM deployment record the analyses consume.

use crate::ids::{ClusterId, NodeId, RegionId, ServiceId, SubscriptionId, VmId};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The resource shape of a VM: CPU cores and memory.
///
/// # Examples
/// ```
/// # use cloudscope_model::vm::VmSize;
/// let size = VmSize::new(4, 16.0);
/// assert_eq!(size.cores(), 4);
/// assert_eq!(size.memory_gb(), 16.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmSize {
    cores: u32,
    memory_gb: f64,
}

impl VmSize {
    /// Creates a VM size.
    ///
    /// # Panics
    /// Panics if `cores` is zero or `memory_gb` is not strictly positive.
    #[must_use]
    pub fn new(cores: u32, memory_gb: f64) -> Self {
        assert!(cores > 0, "a VM must have at least one core");
        assert!(
            memory_gb > 0.0 && memory_gb.is_finite(),
            "memory must be positive and finite: {memory_gb}"
        );
        Self { cores, memory_gb }
    }

    /// Number of virtual CPU cores.
    #[must_use]
    pub const fn cores(self) -> u32 {
        self.cores
    }

    /// Memory in GiB.
    #[must_use]
    pub const fn memory_gb(self) -> f64 {
        self.memory_gb
    }
}

impl fmt::Display for VmSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}c/{}g", self.cores, self.memory_gb)
    }
}

/// VM priority class: regular on-demand or evictable spot capacity.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum Priority {
    /// Regular VM with an availability SLA.
    #[default]
    OnDemand,
    /// Spot VM: deeply discounted, evictable when capacity is reclaimed.
    Spot,
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::OnDemand => "on-demand",
            Priority::Spot => "spot",
        })
    }
}

/// The service model a VM belongs to. Both clouds in the study host all
/// three.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum ServiceModel {
    /// Infrastructure as a Service.
    #[default]
    Iaas,
    /// Platform as a Service.
    Paas,
    /// Software as a Service.
    Saas,
}

impl ServiceModel {
    /// All service models.
    pub const ALL: [ServiceModel; 3] = [ServiceModel::Iaas, ServiceModel::Paas, ServiceModel::Saas];
}

impl fmt::Display for ServiceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ServiceModel::Iaas => "IaaS",
            ServiceModel::Paas => "PaaS",
            ServiceModel::Saas => "SaaS",
        })
    }
}

/// A single VM's deployment record: who owns it, where it ran, its shape,
/// and its creation/termination times. This is the row schema the
/// characterization pipeline consumes — the synthetic stand-in for one line
/// of the Azure deployment trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmRecord {
    /// Unique VM identifier.
    pub id: VmId,
    /// Owning subscription.
    pub subscription: SubscriptionId,
    /// Logical service the VM belongs to (services group many VMs).
    pub service: ServiceId,
    /// Resource shape.
    pub size: VmSize,
    /// Priority class.
    pub priority: Priority,
    /// Service model.
    pub service_model: ServiceModel,
    /// Region the subscription deployed the VM into.
    pub region: RegionId,
    /// Cluster the allocator placed the VM in.
    pub cluster: ClusterId,
    /// Node the allocator placed the VM on, if placement succeeded.
    pub node: Option<NodeId>,
    /// Creation time (may precede the trace window).
    pub created: SimTime,
    /// Termination time; `None` if still running at the end of the window.
    pub ended: Option<SimTime>,
}

impl VmRecord {
    /// The VM lifetime, if it terminated.
    ///
    /// # Examples
    /// ```
    /// # use cloudscope_model::{vm::*, ids::*, time::*};
    /// # let mut vm = VmRecord {
    /// #     id: VmId::new(0), subscription: SubscriptionId::new(0),
    /// #     service: ServiceId::new(0), size: VmSize::new(2, 8.0),
    /// #     priority: Priority::OnDemand, service_model: ServiceModel::Iaas,
    /// #     region: RegionId::new(0), cluster: ClusterId::new(0), node: None,
    /// #     created: SimTime::ZERO, ended: Some(SimTime::from_hours(3)),
    /// # };
    /// assert_eq!(vm.lifetime(), Some(SimDuration::from_hours(3)));
    /// vm.ended = None;
    /// assert_eq!(vm.lifetime(), None);
    /// ```
    #[must_use]
    pub fn lifetime(&self) -> Option<SimDuration> {
        self.ended.map(|e| e.saturating_since(self.created))
    }

    /// `true` if the VM both started and ended inside the trace week — the
    /// filter the paper applies before the Figure 3(a) lifetime CDF.
    #[must_use]
    pub fn bounded_by_trace_week(&self) -> bool {
        self.created.in_trace_week() && self.ended.is_some_and(|e| e.in_trace_week())
    }

    /// `true` if the VM is running (created, not yet ended) at time `t`.
    /// Creation is inclusive, termination exclusive.
    #[must_use]
    pub fn alive_at(&self, t: SimTime) -> bool {
        self.created <= t && self.ended.is_none_or(|e| t < e)
    }

    /// The half-open interval `[created, ended_or(end_of_window))` clipped
    /// to `[window_start, window_end)`; `None` if the VM never overlaps the
    /// window.
    #[must_use]
    pub fn overlap_with(
        &self,
        window_start: SimTime,
        window_end: SimTime,
    ) -> Option<(SimTime, SimTime)> {
        let start = self.created.max(window_start);
        let end = self.ended.unwrap_or(window_end).min(window_end);
        (start < end).then_some((start, end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::*;

    fn vm(created: i64, ended: Option<i64>) -> VmRecord {
        VmRecord {
            id: VmId::new(1),
            subscription: SubscriptionId::new(1),
            service: ServiceId::new(1),
            size: VmSize::new(4, 16.0),
            priority: Priority::OnDemand,
            service_model: ServiceModel::Paas,
            region: RegionId::new(0),
            cluster: ClusterId::new(0),
            node: Some(NodeId::new(3)),
            created: SimTime::from_minutes(created),
            ended: ended.map(SimTime::from_minutes),
        }
    }

    #[test]
    fn lifetime_requires_termination() {
        assert_eq!(
            vm(0, Some(90)).lifetime(),
            Some(SimDuration::from_minutes(90))
        );
        assert_eq!(vm(0, None).lifetime(), None);
    }

    #[test]
    fn trace_week_bounding_filter() {
        assert!(vm(10, Some(100)).bounded_by_trace_week());
        assert!(
            !vm(-10, Some(100)).bounded_by_trace_week(),
            "created before window"
        );
        assert!(!vm(10, None).bounded_by_trace_week(), "still running");
        let beyond = crate::time::MINUTES_PER_WEEK + 5;
        assert!(
            !vm(10, Some(beyond)).bounded_by_trace_week(),
            "ends after window"
        );
    }

    #[test]
    fn alive_at_is_half_open() {
        let v = vm(60, Some(120));
        assert!(!v.alive_at(SimTime::from_minutes(59)));
        assert!(v.alive_at(SimTime::from_minutes(60)));
        assert!(v.alive_at(SimTime::from_minutes(119)));
        assert!(!v.alive_at(SimTime::from_minutes(120)));
        assert!(vm(60, None).alive_at(SimTime::from_days(30)));
    }

    #[test]
    fn overlap_clips_to_window() {
        let v = vm(-100, Some(50));
        let (s, e) = v
            .overlap_with(SimTime::ZERO, SimTime::WEEK_END)
            .expect("overlaps");
        assert_eq!(s, SimTime::ZERO);
        assert_eq!(e, SimTime::from_minutes(50));
        assert!(vm(-100, Some(-10))
            .overlap_with(SimTime::ZERO, SimTime::WEEK_END)
            .is_none());
    }

    #[test]
    fn vm_size_accessors() {
        let s = VmSize::new(8, 32.0);
        assert_eq!(s.to_string(), "8c/32g");
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_size_rejected() {
        let _ = VmSize::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_memory_rejected() {
        let _ = VmSize::new(1, 0.0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Priority::Spot.to_string(), "spot");
        assert_eq!(ServiceModel::Saas.to_string(), "SaaS");
    }
}
