//! The trace container: everything one analysis run consumes.
//!
//! A [`Trace`] bundles the platform topology, the subscription population,
//! every VM deployment record, and per-VM utilization telemetry for the
//! studied week, with dense secondary indices (by subscription, node,
//! region, and service) so the characterization pipeline never scans.

use crate::error::ModelError;
use crate::fast_hash::FastMap;
use crate::ids::{NodeId, RegionId, ServiceId, SubscriptionId, VmId};
use crate::subscription::{CloudKind, Subscription};
use crate::telemetry::UtilSeries;
use crate::time::{SimTime, SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
use crate::topology::Topology;
use crate::vm::VmRecord;
use cloudscope_par::Parallelism;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Where a trace's telemetry lives: resident in memory, or behind a
/// lazy [`TelemetrySource`] (an out-of-core chunk store) that loads
/// series on demand. A presence vector makes `has_util` and telemetry
/// counting cheap in both representations, so the metadata-only
/// analyses never touch the source.
#[derive(Debug, Clone)]
enum TelemetryColumn {
    /// Every series held in memory, index-aligned with the VM records.
    Resident(Vec<Option<UtilSeries>>),
    /// Series loaded on demand; `present[vm]` says whether one exists.
    Lazy {
        present: Vec<bool>,
        source: Arc<dyn TelemetrySource>,
    },
}

impl Default for TelemetryColumn {
    fn default() -> Self {
        Self::Resident(Vec::new())
    }
}

impl TelemetryColumn {
    fn get(&self, idx: usize) -> Option<UtilSeries> {
        match self {
            Self::Resident(col) => col.get(idx)?.clone(),
            Self::Lazy { present, source } => {
                if !*present.get(idx)? {
                    return None;
                }
                source.load(VmId::new(idx as u64))
            }
        }
    }

    fn has(&self, idx: usize) -> bool {
        match self {
            Self::Resident(col) => col.get(idx).is_some_and(Option::is_some),
            Self::Lazy { present, .. } => present.get(idx).copied().unwrap_or(false),
        }
    }

    fn present_count(&self) -> usize {
        match self {
            Self::Resident(col) => col.iter().filter(|u| u.is_some()).count(),
            Self::Lazy { present, .. } => present.iter().filter(|&&p| p).count(),
        }
    }

    /// [`TelemetrySource::scan`] over this column: a lazy source sees
    /// only the ids the presence vector vouches for, in one call, so it
    /// can order its own reads.
    fn scan(&self, ids: &[VmId], visit: &mut dyn FnMut(VmId, UtilSeries)) {
        match self {
            Self::Resident(_) => {
                for &id in ids {
                    if let Some(series) = self.get(id.as_usize()) {
                        visit(id, series);
                    }
                }
            }
            Self::Lazy { source, .. } => {
                let present: Vec<VmId> = ids
                    .iter()
                    .copied()
                    .filter(|id| self.has(id.as_usize()))
                    .collect();
                source.scan(&present, visit);
            }
        }
    }

    /// Builder-side append. The builder starts from `Trace::default()`
    /// and a source can only be attached to a finished trace, so the
    /// column is always resident here.
    fn resident_mut(&mut self) -> &mut Vec<Option<UtilSeries>> {
        match self {
            Self::Resident(col) => col,
            Self::Lazy { .. } => unreachable!("the builder always holds resident telemetry"),
        }
    }
}

/// The one interface through which analyses consume per-VM telemetry,
/// whichever way it arrives: resident in a [`Trace`], out-of-core in
/// `cloudscope-store`'s compressed chunk files (read in stored order
/// through a per-lane cursor), or live from `cloudscope-ingest`'s
/// sliding-window session. A [`Trace`] can also be re-pointed at a lazy
/// source so the existing analyses run out-of-core unchanged.
///
/// Implementations must be deterministic — `load` returns the exact
/// series the resident trace would have held (or `None`), every time —
/// so every representation is observationally identical to a resident
/// one.
pub trait TelemetrySource: std::fmt::Debug + Send + Sync {
    /// The series for `id`, or `None` if the VM has no telemetry.
    fn load(&self, id: VmId) -> Option<UtilSeries>;

    /// `true` if the VM has telemetry. The default loads the series and
    /// discards it; implementations with a cheaper presence check (a
    /// bitmap, an id index) should override it so candidate scans never
    /// materialize samples.
    fn has(&self, id: VmId) -> bool {
        self.load(id).is_some()
    }

    /// Visits the series of every VM in `ids` that has telemetry, in
    /// the order given. `ids` must be strictly ascending: that is what
    /// lets a source backed by sorted storage serve the whole selection
    /// in one forward pass instead of one lookup per VM. Every pipeline
    /// stage reads telemetry through here; the default loops
    /// [`TelemetrySource::load`], which is all an in-memory source
    /// needs.
    fn scan(&self, ids: &[VmId], visit: &mut dyn FnMut(VmId, UtilSeries)) {
        for &id in ids {
            if let Some(series) = self.load(id) {
                visit(id, series);
            }
        }
    }
}

/// A resident (or lazily re-pointed) trace is itself a telemetry
/// source: `load` is [`Trace::util`], `has` the cheap presence check,
/// `scan` the lazy source's own scan. This is what lets one classifier
/// call run batch, out-of-core, and streaming without caring which
/// representation backs it.
impl TelemetrySource for Trace {
    fn load(&self, id: VmId) -> Option<UtilSeries> {
        self.util(id)
    }

    fn has(&self, id: VmId) -> bool {
        self.has_util(id)
    }

    fn scan(&self, ids: &[VmId], visit: &mut dyn FnMut(VmId, UtilSeries)) {
        debug_assert!(
            ids.windows(2).all(|pair| pair[0] < pair[1]),
            "scan ids must be strictly ascending"
        );
        self.util.scan(ids, visit);
    }
}

/// Estimated sample bytes one gathered batch may hold (see
/// [`Trace::gather_batches`]). A constant, not a knob: large enough
/// that a week of medium-scale telemetry is a handful of batches,
/// small enough that a batch is noise next to the VM metadata an
/// out-of-core trace keeps resident anyway.
const GATHER_BATCH_BYTES: usize = 2 << 20;

/// A bounded batch of series pulled through one
/// [`TelemetrySource::scan`] and held in memory, sorted by VM id — the
/// "gather" half of gather-then-compute. It is itself a source, so the
/// parallel kernels written against [`TelemetrySource`] run over it
/// unchanged, in whatever order they like.
#[derive(Debug, Default)]
pub struct GatheredSeries {
    series: Vec<(VmId, UtilSeries)>,
}

impl GatheredSeries {
    /// Gathers the series of `ids` (strictly ascending) from `source`.
    #[must_use]
    pub fn gather(source: &(impl TelemetrySource + ?Sized), ids: &[VmId]) -> Self {
        let mut series = Vec::with_capacity(ids.len());
        source.scan(ids, &mut |id, util| series.push((id, util)));
        Self { series }
    }

    /// The gathered series, ascending by VM id.
    pub fn iter(&self) -> impl Iterator<Item = (VmId, &UtilSeries)> {
        self.series.iter().map(|(id, util)| (*id, util))
    }
}

impl TelemetrySource for GatheredSeries {
    fn load(&self, id: VmId) -> Option<UtilSeries> {
        let at = self.series.binary_search_by_key(&id, |(vm, _)| *vm).ok()?;
        Some(self.series[at].1.clone())
    }
}

/// A complete one-week workload trace for one or both clouds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    topology: Topology,
    subscriptions: Vec<Subscription>,
    vms: Vec<VmRecord>,
    util: TelemetryColumn,
    by_subscription: FastMap<SubscriptionId, Vec<VmId>>,
    by_node: FastMap<NodeId, Vec<VmId>>,
    by_region: FastMap<RegionId, Vec<VmId>>,
    by_service: FastMap<ServiceId, Vec<VmId>>,
}

impl Trace {
    /// Starts building a trace over the given topology.
    #[must_use]
    pub fn builder(topology: Topology) -> TraceBuilder {
        TraceBuilder {
            trace: Trace {
                topology,
                ..Trace::default()
            },
        }
    }

    /// The platform topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// All subscriptions, indexed by [`SubscriptionId`].
    #[must_use]
    pub fn subscriptions(&self) -> &[Subscription] {
        &self.subscriptions
    }

    /// All VM records, indexed by [`VmId`].
    #[must_use]
    pub fn vms(&self) -> &[VmRecord] {
        &self.vms
    }

    /// Looks up one VM record.
    ///
    /// # Errors
    /// Returns [`ModelError::UnknownEntity`] for ids not in this trace.
    pub fn vm(&self, id: VmId) -> Result<&VmRecord, ModelError> {
        self.vms
            .get(id.as_usize())
            .ok_or(ModelError::UnknownEntity("vm", id.index()))
    }

    /// Looks up one subscription.
    ///
    /// # Errors
    /// Returns [`ModelError::UnknownEntity`] for ids not in this trace.
    pub fn subscription(&self, id: SubscriptionId) -> Result<&Subscription, ModelError> {
        self.subscriptions
            .get(id.as_usize())
            .ok_or(ModelError::UnknownEntity(
                "subscription",
                u64::from(id.index()),
            ))
    }

    /// Utilization telemetry for a VM, if the monitor captured any.
    ///
    /// Returns the series by value: on a resident trace this is a cheap
    /// refcount clone of the shared sample buffer; on a lazy trace (see
    /// [`Trace::attach_telemetry_source`]) the series is loaded from the
    /// out-of-core source on demand. Either way the samples are
    /// bit-identical, so analyses are representation-agnostic.
    #[must_use]
    pub fn util(&self, id: VmId) -> Option<UtilSeries> {
        self.util.get(id.as_usize())
    }

    /// `true` if the VM has telemetry — without loading the series, so
    /// presence scans stay cheap on an out-of-core trace.
    #[must_use]
    pub fn has_util(&self, id: VmId) -> bool {
        self.util.has(id.as_usize())
    }

    /// Visits every VM in id order with its telemetry (`None` where the
    /// monitor captured none), read through one ascending
    /// [`TelemetrySource::scan`] — so a lazy trace is walked in stored
    /// order, each chunk decoded once, where a loop of [`Trace::util`]
    /// would look every VM up on its own.
    pub fn for_each_vm(&self, mut visit: impl FnMut(&VmRecord, Option<UtilSeries>)) {
        let ids: Vec<VmId> = self.vms.iter().map(|vm| vm.id).collect();
        let mut next = 0;
        self.util.scan(&ids, &mut |id, series| {
            let at = id.as_usize();
            self.vms[next..at].iter().for_each(|vm| visit(vm, None));
            visit(&self.vms[at], Some(series));
            next = at + 1;
        });
        self.vms[next..].iter().for_each(|vm| visit(vm, None));
    }

    /// [`Trace::for_each_vm`] for a visitor that can fail: returns the
    /// first error, after which no VM is visited. (A scan cannot be cut
    /// short, so the walk itself still runs to the end.)
    ///
    /// # Errors
    /// The first error `visit` returns.
    pub fn try_for_each_vm<E>(
        &self,
        mut visit: impl FnMut(&VmRecord, Option<UtilSeries>) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut outcome = Ok(());
        self.for_each_vm(|vm, util| {
            if outcome.is_ok() {
                outcome = visit(vm, util);
            }
        });
        outcome
    }

    /// `true` if telemetry is served by a lazy [`TelemetrySource`]
    /// rather than held resident.
    #[must_use]
    pub fn telemetry_is_lazy(&self) -> bool {
        matches!(self.util, TelemetryColumn::Lazy { .. })
    }

    /// Replaces the telemetry column with a lazy source: `present[i]`
    /// says whether VM `i` has a series, and `source` loads it on
    /// demand. Any resident telemetry is dropped — this is how a trace
    /// read from the on-disk store keeps only metadata in memory.
    ///
    /// # Errors
    /// Returns [`ModelError::InconsistentTrace`] if `present` is not
    /// index-aligned with the VM records.
    pub fn attach_telemetry_source(
        &mut self,
        present: Vec<bool>,
        source: Arc<dyn TelemetrySource>,
    ) -> Result<(), ModelError> {
        if present.len() != self.vms.len() {
            return Err(ModelError::InconsistentTrace(format!(
                "telemetry presence for {} VMs attached to a trace of {}",
                present.len(),
                self.vms.len()
            )));
        }
        self.util = TelemetryColumn::Lazy { present, source };
        Ok(())
    }

    /// Iterates over VM records belonging to the given cloud.
    pub fn vms_of(&self, cloud: CloudKind) -> impl Iterator<Item = &VmRecord> {
        self.vms.iter().filter(move |vm| {
            self.subscriptions
                .get(vm.subscription.as_usize())
                .is_some_and(|s| s.cloud == cloud)
        })
    }

    /// Subscriptions belonging to the given cloud.
    pub fn subscriptions_of(&self, cloud: CloudKind) -> impl Iterator<Item = &Subscription> {
        self.subscriptions.iter().filter(move |s| s.cloud == cloud)
    }

    /// VMs of a subscription (empty slice if none).
    #[must_use]
    pub fn vms_of_subscription(&self, id: SubscriptionId) -> &[VmId] {
        self.by_subscription.get(&id).map_or(&[], Vec::as_slice)
    }

    /// VMs ever placed on a node (empty slice if none).
    #[must_use]
    pub fn vms_on_node(&self, id: NodeId) -> &[VmId] {
        self.by_node.get(&id).map_or(&[], Vec::as_slice)
    }

    /// VMs deployed into a region (empty slice if none).
    #[must_use]
    pub fn vms_in_region(&self, id: RegionId) -> &[VmId] {
        self.by_region.get(&id).map_or(&[], Vec::as_slice)
    }

    /// VMs of a logical service (empty slice if none).
    #[must_use]
    pub fn vms_of_service(&self, id: ServiceId) -> &[VmId] {
        self.by_service.get(&id).map_or(&[], Vec::as_slice)
    }

    /// All service ids present in the trace.
    pub fn services(&self) -> impl Iterator<Item = ServiceId> + '_ {
        self.by_service.keys().copied()
    }

    /// All node ids that hosted at least one VM.
    pub fn occupied_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.by_node.keys().copied()
    }

    /// Pulls the telemetry of `groups` through `source` in bounded
    /// batches: each item is a run of consecutive groups together with
    /// the series of all their VMs, gathered in one ascending scan.
    /// `vms_of` appends one group's VM ids (groups must not share VMs).
    ///
    /// A run closes once the telemetry its VMs are expected to carry —
    /// their lifetime inside the trace week, one byte per sample —
    /// reaches a fixed budget (2 MiB), so memory stays bounded however
    /// many groups there are, and a lone oversized group still forms a
    /// run of its own. Consecutive runs over ascending groups cost an
    /// out-of-core source one forward pass in total; runs whose groups
    /// each span the id range cost it one pass apiece.
    pub fn gather_batches<'a, G>(
        &'a self,
        source: &'a (impl TelemetrySource + ?Sized),
        mut groups: &'a [G],
        mut vms_of: impl FnMut(&G, &mut Vec<VmId>) + 'a,
    ) -> impl Iterator<Item = (&'a [G], GatheredSeries)> + 'a {
        std::iter::from_fn(move || {
            let mut ids = Vec::new();
            let mut bytes = 0usize;
            let mut taken = 0usize;
            while taken < groups.len() && bytes < GATHER_BATCH_BYTES {
                let before = ids.len();
                vms_of(&groups[taken], &mut ids);
                bytes += ids[before..]
                    .iter()
                    .map(|&id| self.expected_samples(id))
                    .sum::<usize>();
                taken += 1;
            }
            if taken == 0 {
                return None;
            }
            let (run, rest) = groups.split_at(taken);
            groups = rest;
            ids.sort_unstable();
            Some((run, GatheredSeries::gather(source, &ids)))
        })
    }

    /// Samples a VM's telemetry is expected to hold: its lifetime
    /// clipped to the trace week, at the monitor's interval.
    fn expected_samples(&self, id: VmId) -> usize {
        self.vms
            .get(id.as_usize())
            .and_then(|vm| vm.overlap_with(SimTime::ZERO, SimTime::WEEK_END))
            .map_or(0, |(from, to)| {
                ((to.minutes() - from.minutes()) / SAMPLE_INTERVAL_MINUTES) as usize
            })
    }

    /// Derives the node-level utilization series for one node over the
    /// trace week: the core-weighted sum of hosted VMs' utilization divided
    /// by the node's physical cores — how a host monitor would see it.
    /// `source` serves the samples (the trace itself, or a gathered
    /// batch holding the node's VMs).
    ///
    /// Samples where a VM is not alive contribute zero. VMs without
    /// telemetry are skipped.
    ///
    /// # Errors
    /// Returns [`ModelError::UnknownEntity`] if the node is not in the
    /// topology.
    pub fn node_utilization(
        &self,
        source: &(impl TelemetrySource + ?Sized),
        node: NodeId,
    ) -> Result<UtilSeries, ModelError> {
        let node_info = self.topology.node(node)?;
        let sku = self.topology.cluster(node_info.cluster)?.sku;
        let mut acc = vec![0.0f64; SAMPLES_PER_WEEK];
        source.scan(self.vms_on_node(node), &mut |vm_id, series| {
            let vm = &self.vms[vm_id.as_usize()];
            let vm_cores = f64::from(vm.size.cores());
            let base = series.start().minutes() / SAMPLE_INTERVAL_MINUTES;
            for (i, v) in series.iter().enumerate() {
                // Missing samples (NaN) contribute nothing rather than
                // poisoning the whole node series.
                if !v.is_finite() {
                    continue;
                }
                let global = base + i as i64;
                if (0..SAMPLES_PER_WEEK as i64).contains(&global) {
                    let t = SimTime::from_minutes(global * SAMPLE_INTERVAL_MINUTES);
                    if vm.alive_at(t) {
                        acc[global as usize] += f64::from(v) * vm_cores;
                    }
                }
            }
        });
        let node_cores = f64::from(sku.cores);
        Ok(UtilSeries::from_percentages(
            SimTime::ZERO,
            acc.into_iter().map(|sum| (sum / node_cores) as f32),
        ))
    }

    /// Summary counts, handy for logging and sanity checks.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut stats = TraceStats::default();
        for cloud in CloudKind::BOTH {
            let (vm_slot, sub_slot) = match cloud {
                CloudKind::Private => (&mut stats.private_vms, &mut stats.private_subscriptions),
                CloudKind::Public => (&mut stats.public_vms, &mut stats.public_subscriptions),
            };
            *vm_slot = self.vms_of(cloud).count();
            *sub_slot = self.subscriptions_of(cloud).count();
        }
        stats.vms_with_telemetry = self.util.present_count();
        stats.services = self.by_service.len();
        stats.occupied_nodes = self.by_node.len();
        stats
    }
}

/// Summary counts over a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceStats {
    /// VMs owned by private-cloud subscriptions.
    pub private_vms: usize,
    /// VMs owned by public-cloud subscriptions.
    pub public_vms: usize,
    /// Private-cloud subscriptions.
    pub private_subscriptions: usize,
    /// Public-cloud subscriptions.
    pub public_subscriptions: usize,
    /// VMs for which telemetry exists.
    pub vms_with_telemetry: usize,
    /// Distinct logical services.
    pub services: usize,
    /// Nodes that hosted at least one VM.
    pub occupied_nodes: usize,
}

/// Builder for [`Trace`] enforcing referential integrity as records arrive.
#[derive(Debug)]
pub struct TraceBuilder {
    trace: Trace,
}

impl TraceBuilder {
    /// Registers a subscription. Ids must arrive densely in order.
    ///
    /// # Errors
    /// Returns [`ModelError::InconsistentTrace`] if the id is out of order.
    pub fn add_subscription(&mut self, sub: Subscription) -> Result<(), ModelError> {
        if sub.id.as_usize() != self.trace.subscriptions.len() {
            return Err(ModelError::InconsistentTrace(format!(
                "subscription {} arrived out of order (expected index {})",
                sub.id,
                self.trace.subscriptions.len()
            )));
        }
        self.trace.subscriptions.push(sub);
        Ok(())
    }

    /// Registers a VM record and optional telemetry. Ids must arrive
    /// densely in order, the subscription must exist, and placement must
    /// reference topology entities.
    ///
    /// # Errors
    /// Returns [`ModelError::InconsistentTrace`] on any integrity
    /// violation.
    pub fn add_vm(&mut self, vm: VmRecord, util: Option<UtilSeries>) -> Result<(), ModelError> {
        validate_record(&self.trace, self.trace.vms.len(), &vm)?;
        if let Some(node) = vm.node {
            self.trace.by_node.entry(node).or_default().push(vm.id);
        }
        self.trace
            .by_subscription
            .entry(vm.subscription)
            .or_default()
            .push(vm.id);
        self.trace
            .by_region
            .entry(vm.region)
            .or_default()
            .push(vm.id);
        self.trace
            .by_service
            .entry(vm.service)
            .or_default()
            .push(vm.id);
        self.trace.vms.push(vm);
        self.trace.util.resident_mut().push(util);
        Ok(())
    }

    /// Bulk [`TraceBuilder::add_vm`]: registers a batch of records (and
    /// their telemetry, index-aligned) with validation sharded over range
    /// chunks and the four secondary indices built concurrently, one
    /// index per worker. Behaviour is identical to calling `add_vm` for
    /// each record in order — the same integrity checks run, the first
    /// violation (in record order) is reported, and index insertion order
    /// matches the serial loop exactly — so traces built either way are
    /// indistinguishable, at any worker count.
    ///
    /// # Errors
    /// Returns [`ModelError::InconsistentTrace`] on the first integrity
    /// violation in record order, or if `records` and `util` lengths
    /// disagree. On error nothing is added.
    pub fn add_vms_bulk(
        &mut self,
        records: Vec<VmRecord>,
        util: Vec<Option<UtilSeries>>,
        par: &Parallelism,
    ) -> Result<(), ModelError> {
        if records.len() != util.len() {
            return Err(ModelError::InconsistentTrace(format!(
                "bulk add: {} records but {} telemetry slots",
                records.len(),
                util.len()
            )));
        }
        let base = self.trace.vms.len();
        let trace = &self.trace;
        let records_ref = &records;
        // Validation is pure reads over the immutable topology and the
        // already-registered subscriptions, so chunks are independent.
        // Ranges come back in ascending order: the first error found is
        // the one the serial loop would have hit first.
        par.par_map_ranges(records.len(), |range| {
            for i in range {
                validate_record(trace, base + i, &records_ref[i])?;
            }
            Ok(())
        })
        .into_iter()
        .collect::<Result<Vec<()>, ModelError>>()?;

        // One task per secondary index. Each walks the batch in record
        // order, so per-key id lists and key first-appearance order are
        // exactly what the serial push loop produces.
        let kinds = [
            IndexKind::Subscription,
            IndexKind::Node,
            IndexKind::Region,
            IndexKind::Service,
        ];
        for partial in par.par_map(&kinds, |kind| kind.build(records_ref)) {
            partial.merge_into(&mut self.trace);
        }
        self.trace.vms.extend(records);
        self.trace.util.resident_mut().extend(util);
        Ok(())
    }

    /// Finishes building.
    #[must_use]
    pub fn build(self) -> Trace {
        self.trace
    }
}

/// The integrity checks [`TraceBuilder::add_vm`] enforces, against the
/// expected dense index `expected` — shared by the serial and bulk paths
/// so they cannot drift.
fn validate_record(trace: &Trace, expected: usize, vm: &VmRecord) -> Result<(), ModelError> {
    if vm.id.as_usize() != expected {
        return Err(ModelError::InconsistentTrace(format!(
            "vm {} arrived out of order (expected index {expected})",
            vm.id,
        )));
    }
    if vm.subscription.as_usize() >= trace.subscriptions.len() {
        return Err(ModelError::InconsistentTrace(format!(
            "vm {} references unknown subscription {}",
            vm.id, vm.subscription
        )));
    }
    let cluster = trace
        .topology
        .cluster(vm.cluster)
        .map_err(|e| ModelError::InconsistentTrace(e.to_string()))?;
    if cluster.region != vm.region {
        return Err(ModelError::InconsistentTrace(format!(
            "vm {} region {} disagrees with cluster {} region {}",
            vm.id, vm.region, vm.cluster, cluster.region
        )));
    }
    if let Some(node) = vm.node {
        let node_info = trace
            .topology
            .node(node)
            .map_err(|e| ModelError::InconsistentTrace(e.to_string()))?;
        if node_info.cluster != vm.cluster {
            return Err(ModelError::InconsistentTrace(format!(
                "vm {} node {} is not in cluster {}",
                vm.id, node, vm.cluster
            )));
        }
    }
    if let (Some(end), created) = (vm.ended, vm.created) {
        if end < created {
            return Err(ModelError::InconsistentTrace(format!(
                "vm {} ends before it starts",
                vm.id
            )));
        }
    }
    Ok(())
}

/// Which secondary index a bulk-assembly task builds.
#[derive(Debug, Clone, Copy)]
enum IndexKind {
    Subscription,
    Node,
    Region,
    Service,
}

/// One index's contribution from a record batch: `(key, ids)` pairs in
/// key first-appearance order, ids in record order — the order a serial
/// `entry().push()` loop would have produced.
enum IndexPartial {
    Subscription(Vec<(SubscriptionId, Vec<VmId>)>),
    Node(Vec<(NodeId, Vec<VmId>)>),
    Region(Vec<(RegionId, Vec<VmId>)>),
    Service(Vec<(ServiceId, Vec<VmId>)>),
}

impl IndexKind {
    fn build(self, records: &[VmRecord]) -> IndexPartial {
        match self {
            IndexKind::Subscription => IndexPartial::Subscription(group_in_order(
                records.iter().map(|vm| (vm.subscription, vm.id)),
            )),
            IndexKind::Node => IndexPartial::Node(group_in_order(
                records
                    .iter()
                    .filter_map(|vm| vm.node.map(|node| (node, vm.id))),
            )),
            IndexKind::Region => {
                IndexPartial::Region(group_in_order(records.iter().map(|vm| (vm.region, vm.id))))
            }
            IndexKind::Service => {
                IndexPartial::Service(group_in_order(records.iter().map(|vm| (vm.service, vm.id))))
            }
        }
    }
}

impl IndexPartial {
    /// Folds this partial into the trace's maps, preserving key
    /// first-appearance order for traces that already hold entries.
    fn merge_into(self, trace: &mut Trace) {
        fn fold<K: std::hash::Hash + Eq>(
            map: &mut FastMap<K, Vec<VmId>>,
            pairs: Vec<(K, Vec<VmId>)>,
        ) {
            for (key, ids) in pairs {
                map.entry(key).or_default().extend(ids);
            }
        }
        match self {
            IndexPartial::Subscription(pairs) => fold(&mut trace.by_subscription, pairs),
            IndexPartial::Node(pairs) => fold(&mut trace.by_node, pairs),
            IndexPartial::Region(pairs) => fold(&mut trace.by_region, pairs),
            IndexPartial::Service(pairs) => fold(&mut trace.by_service, pairs),
        }
    }
}

/// Groups `(key, id)` pairs into per-key id vectors, keys ordered by
/// first appearance, ids kept in input order.
fn group_in_order<K: std::hash::Hash + Eq + Copy>(
    pairs: impl Iterator<Item = (K, VmId)>,
) -> Vec<(K, Vec<VmId>)> {
    let mut slot_of: FastMap<K, usize> = FastMap::default();
    let mut grouped: Vec<(K, Vec<VmId>)> = Vec::new();
    for (key, id) in pairs {
        let slot = *slot_of.entry(key).or_insert_with(|| {
            grouped.push((key, Vec::new()));
            grouped.len() - 1
        });
        grouped[slot].1.push(id);
    }
    grouped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::*;
    use crate::subscription::PartyKind;
    use crate::topology::NodeSku;
    use crate::vm::{Priority, ServiceModel, VmRecord, VmSize};

    fn topo() -> Topology {
        let mut b = Topology::builder();
        let r = b.add_region("us-west", -8, "US");
        let d = b.add_datacenter(r);
        b.add_cluster(d, CloudKind::Private, NodeSku::new(10, 64.0), 1, 2);
        b.build()
    }

    fn record(id: u64, sub: u32, node: Option<u32>) -> VmRecord {
        VmRecord {
            id: VmId::new(id),
            subscription: SubscriptionId::new(sub),
            service: ServiceId::new(0),
            size: VmSize::new(5, 16.0),
            priority: Priority::OnDemand,
            service_model: ServiceModel::Iaas,
            region: RegionId::new(0),
            cluster: ClusterId::new(0),
            node: node.map(NodeId::new),
            created: SimTime::ZERO,
            ended: None,
        }
    }

    #[test]
    fn builder_wires_indices() {
        let mut b = Trace::builder(topo());
        b.add_subscription(Subscription::new(
            SubscriptionId::new(0),
            CloudKind::Private,
            PartyKind::FirstParty,
        ))
        .unwrap();
        b.add_vm(record(0, 0, Some(0)), None).unwrap();
        b.add_vm(record(1, 0, Some(0)), None).unwrap();
        let t = b.build();
        assert_eq!(t.vms_of_subscription(SubscriptionId::new(0)).len(), 2);
        assert_eq!(t.vms_on_node(NodeId::new(0)).len(), 2);
        assert_eq!(t.vms_in_region(RegionId::new(0)).len(), 2);
        assert_eq!(t.vms_of_service(ServiceId::new(0)).len(), 2);
        let stats = t.stats();
        assert_eq!(stats.private_vms, 2);
        assert_eq!(stats.public_vms, 0);
        assert_eq!(stats.occupied_nodes, 1);
    }

    /// Bulk assembly must be indistinguishable from the serial add_vm
    /// loop: same records, same index contents, same iteration order —
    /// at any worker count.
    #[test]
    fn bulk_add_matches_sequential() {
        let mut topo_b = Topology::builder();
        let r0 = topo_b.add_region("us-west", -8, "US");
        let r1 = topo_b.add_region("eu-north", 1, "EU");
        let d0 = topo_b.add_datacenter(r0);
        let d1 = topo_b.add_datacenter(r1);
        topo_b.add_cluster(d0, CloudKind::Private, NodeSku::new(10, 64.0), 1, 4);
        topo_b.add_cluster(d1, CloudKind::Public, NodeSku::new(10, 64.0), 1, 4);
        let topo = topo_b.build();

        let mut records = Vec::new();
        let mut util = Vec::new();
        for i in 0..200u64 {
            let mut vm = record(i, (i % 3) as u32, None);
            // Alternate regions/clusters/nodes so every index gets
            // interleaved keys, and leave some VMs unplaced.
            if i % 2 == 0 {
                vm.region = RegionId::new(1);
                vm.cluster = ClusterId::new(1);
                vm.node = (i % 4 == 0).then(|| NodeId::new(4 + (i % 4) as u32));
            } else {
                vm.node = (i % 3 == 0).then(|| NodeId::new((i % 4) as u32));
            }
            vm.service = ServiceId::new((i % 5) as u32);
            util.push(
                (i % 7 == 0)
                    .then(|| UtilSeries::from_percentages(SimTime::ZERO, [i as f32 % 100.0])),
            );
            records.push(vm);
        }

        let subscriptions = || {
            (0..3).map(|s| {
                Subscription::new(
                    SubscriptionId::new(s),
                    CloudKind::Private,
                    PartyKind::FirstParty,
                )
            })
        };
        let mut serial = Trace::builder(topo.clone());
        for s in subscriptions() {
            serial.add_subscription(s).unwrap();
        }
        for (vm, u) in records.iter().zip(&util) {
            serial.add_vm(vm.clone(), u.clone()).unwrap();
        }
        let serial = serial.build();

        for workers in [1, 3, 8] {
            let mut bulk = Trace::builder(topo.clone());
            for s in subscriptions() {
                bulk.add_subscription(s).unwrap();
            }
            bulk.add_vms_bulk(
                records.clone(),
                util.clone(),
                &Parallelism::with_workers(workers),
            )
            .unwrap();
            let bulk = bulk.build();
            assert_eq!(bulk.vms(), serial.vms());
            assert_eq!(
                bulk.services().collect::<Vec<_>>(),
                serial.services().collect::<Vec<_>>(),
                "service iteration order must match at {workers} workers"
            );
            assert_eq!(
                bulk.occupied_nodes().collect::<Vec<_>>(),
                serial.occupied_nodes().collect::<Vec<_>>(),
                "node index order must match at {workers} workers"
            );
            for s in 0..3 {
                assert_eq!(
                    bulk.vms_of_subscription(SubscriptionId::new(s)),
                    serial.vms_of_subscription(SubscriptionId::new(s))
                );
            }
            for r in 0..2 {
                assert_eq!(
                    bulk.vms_in_region(RegionId::new(r)),
                    serial.vms_in_region(RegionId::new(r))
                );
            }
            assert_eq!(
                format!("{:?}", bulk.stats()),
                format!("{:?}", serial.stats())
            );
        }
    }

    /// The bulk path reports the same first error the serial loop would,
    /// and leaves the builder untouched on failure.
    #[test]
    fn bulk_add_error_parity_and_atomicity() {
        let par = Parallelism::with_workers(4);
        let serial_err = |records: &[VmRecord]| {
            let mut b = Trace::builder(topo());
            b.add_subscription(Subscription::new(
                SubscriptionId::new(0),
                CloudKind::Private,
                PartyKind::FirstParty,
            ))
            .unwrap();
            records
                .iter()
                .map(|vm| b.add_vm(vm.clone(), None))
                .find_map(Result::err)
                .expect("serial loop should fail")
        };
        // Two violations — the earlier (unknown node at index 1) must win
        // over the later (unknown subscription at index 3).
        let mut records: Vec<VmRecord> = (0..4).map(|i| record(i, 0, None)).collect();
        records[1].node = Some(NodeId::new(99));
        records[3].subscription = SubscriptionId::new(9);

        let mut b = Trace::builder(topo());
        b.add_subscription(Subscription::new(
            SubscriptionId::new(0),
            CloudKind::Private,
            PartyKind::FirstParty,
        ))
        .unwrap();
        let utils = vec![None; records.len()];
        let err = b
            .add_vms_bulk(records.clone(), utils, &par)
            .expect_err("bulk must reject the batch");
        assert_eq!(err.to_string(), serial_err(&records).to_string());
        let t = b.build();
        assert!(t.vms().is_empty(), "failed bulk add must not leave records");

        // Length mismatch is rejected before any validation.
        let mut b = Trace::builder(topo());
        assert!(b
            .add_vms_bulk(vec![record(0, 0, None)], vec![], &par)
            .is_err());
    }

    #[test]
    fn out_of_order_ids_rejected() {
        let mut b = Trace::builder(topo());
        b.add_subscription(Subscription::new(
            SubscriptionId::new(0),
            CloudKind::Private,
            PartyKind::FirstParty,
        ))
        .unwrap();
        assert!(b.add_vm(record(5, 0, None), None).is_err());
        assert!(b
            .add_subscription(Subscription::new(
                SubscriptionId::new(7),
                CloudKind::Public,
                PartyKind::ThirdParty,
            ))
            .is_err());
    }

    #[test]
    fn dangling_references_rejected() {
        let mut b = Trace::builder(topo());
        b.add_subscription(Subscription::new(
            SubscriptionId::new(0),
            CloudKind::Private,
            PartyKind::FirstParty,
        ))
        .unwrap();
        // Unknown subscription.
        assert!(b.add_vm(record(0, 9, None), None).is_err());
        // Unknown node.
        assert!(b.add_vm(record(0, 0, Some(99)), None).is_err());
        // End before start.
        let mut bad = record(0, 0, None);
        bad.created = SimTime::from_hours(2);
        bad.ended = Some(SimTime::from_hours(1));
        assert!(b.add_vm(bad, None).is_err());
    }

    /// A trace of `n` week-long VMs in one subscription, VM `i` holding
    /// one sample worth `i % 100` percent.
    fn trace_of(n: u64) -> Trace {
        let mut b = Trace::builder(topo());
        b.add_subscription(Subscription::new(
            SubscriptionId::new(0),
            CloudKind::Private,
            PartyKind::FirstParty,
        ))
        .unwrap();
        for i in 0..n {
            let util = UtilSeries::from_percentages(SimTime::ZERO, [(i % 100) as f32]);
            b.add_vm(record(i, 0, None), Some(util)).unwrap();
        }
        b.build()
    }

    #[test]
    fn for_each_vm_visits_every_vm_in_order_with_or_without_telemetry() {
        let mut b = Trace::builder(topo());
        b.add_subscription(Subscription::new(
            SubscriptionId::new(0),
            CloudKind::Private,
            PartyKind::FirstParty,
        ))
        .unwrap();
        // Telemetry gaps at the front, in the middle and at the back.
        let has = |i: u64| !matches!(i, 0 | 1 | 5 | 6 | 10 | 11);
        for i in 0..12 {
            let util = UtilSeries::from_percentages(SimTime::ZERO, [i as f32]);
            b.add_vm(record(i, 0, None), has(i).then_some(util))
                .unwrap();
        }
        let t = b.build();
        let mut visited = Vec::new();
        t.for_each_vm(|vm, util| {
            assert_eq!(util, t.util(vm.id), "vm {}", vm.id);
            visited.push(vm.id);
        });
        let ids: Vec<VmId> = t.vms().iter().map(|vm| vm.id).collect();
        assert_eq!(visited, ids);
        Trace::default().for_each_vm(|_, _| panic!("an empty trace has no VM to visit"));
    }

    #[test]
    fn gather_batches_are_bounded_ordered_and_complete() {
        let t = trace_of(2500);
        let ids: Vec<VmId> = t.vms().iter().map(|vm| vm.id).collect();
        // A week-long VM is expected to carry a week of samples, so
        // the budget closes a batch at this many VMs.
        let per_batch = GATHER_BATCH_BYTES.div_ceil(SAMPLES_PER_WEEK);
        let mut seen = Vec::new();
        for (batch, gathered) in t.gather_batches(&t, &ids, |&vm, out| out.push(vm)) {
            assert!(!batch.is_empty() && batch.len() <= per_batch);
            let delivered: Vec<VmId> = gathered.iter().map(|(id, _)| id).collect();
            assert_eq!(delivered, batch, "a batch holds exactly its groups' VMs");
            for &id in batch {
                assert_eq!(gathered.load(id), t.util(id));
            }
            seen.extend_from_slice(batch);
        }
        assert_eq!(seen, ids, "every group, once, in order");
        assert!(ids.len() > per_batch, "the trace must need several batches");

        // One group larger than the budget still forms a single batch.
        let all = [ids.clone()];
        let mut batches = t.gather_batches(&t, &all, |group, out| out.extend_from_slice(group));
        let (batch, gathered) = batches.next().expect("one batch");
        assert_eq!((batch.len(), gathered.iter().count()), (1, ids.len()));
        assert!(batches.next().is_none());
    }

    #[test]
    fn node_utilization_core_weighted() {
        let mut b = Trace::builder(topo());
        b.add_subscription(Subscription::new(
            SubscriptionId::new(0),
            CloudKind::Private,
            PartyKind::FirstParty,
        ))
        .unwrap();
        // Two 5-core VMs on a 10-core node, both at 40% for the first two
        // samples -> node should read 40%.
        let util = UtilSeries::from_percentages(SimTime::ZERO, [40.0, 40.0]);
        b.add_vm(record(0, 0, Some(0)), Some(util.clone())).unwrap();
        b.add_vm(record(1, 0, Some(0)), Some(util)).unwrap();
        let t = b.build();
        let node_util = t.node_utilization(&t, NodeId::new(0)).unwrap();
        assert_eq!(node_util.get(0), Some(40.0));
        assert_eq!(node_util.get(1), Some(40.0));
        assert_eq!(node_util.get(2), Some(0.0));
        assert_eq!(node_util.len(), SAMPLES_PER_WEEK);
    }

    #[test]
    fn node_utilization_respects_lifetime() {
        let mut b = Trace::builder(topo());
        b.add_subscription(Subscription::new(
            SubscriptionId::new(0),
            CloudKind::Private,
            PartyKind::FirstParty,
        ))
        .unwrap();
        let mut vm = record(0, 0, Some(0));
        vm.ended = Some(SimTime::from_minutes(5));
        // Telemetry claims 80% for 3 samples, but the VM dies after one.
        let util = UtilSeries::from_percentages(SimTime::ZERO, [80.0, 80.0, 80.0]);
        b.add_vm(vm, Some(util)).unwrap();
        let t = b.build();
        let node_util = t.node_utilization(&t, NodeId::new(0)).unwrap();
        assert_eq!(node_util.get(0), Some(40.0), "5 of 10 cores at 80%");
        assert_eq!(node_util.get(1), Some(0.0), "vm already terminated");
    }

    #[test]
    fn lookups_error_on_unknown_ids() {
        let t = Trace::builder(topo()).build();
        assert!(t.vm(VmId::new(0)).is_err());
        assert!(t.subscription(SubscriptionId::new(0)).is_err());
        assert!(t.node_utilization(&t, NodeId::new(42)).is_err());
        assert!(t.util(VmId::new(3)).is_none());
        assert!(t.vms_of_subscription(SubscriptionId::new(9)).is_empty());
    }
}
