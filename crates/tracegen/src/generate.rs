//! End-to-end trace generation: builds the topology, synthesizes
//! subscription plans, drives standing deployments and week-long churn
//! through the allocation service on the discrete-event engine, and
//! attaches per-VM 5-minute telemetry.
//!
//! ## Cluster-group drive
//!
//! Placement routes every request to the clusters of the VM's region
//! *and cloud* and nothing else — the private and public fleets are
//! disjoint objects whose operations commute even inside one region.
//! A cheap serial **routing pre-pass** ([`partition_specs`]) assigns
//! every spec its drive task from deterministic, placement-independent
//! inputs (the spec's region plus its subscription plan's cloud), and
//! the drive fans out over one task per non-empty *(region, cloud)*
//! cluster group — literal cluster granularity on
//! single-cluster-per-cloud topologies. Every trace takes this drive, at
//! every size and worker count. Determinism is preserved end to end:
//!
//! - **Sizes** are pre-drawn serially from the dedicated `"sizes"` RNG
//!   stream in global spec order, before any placement runs.
//! - **Event order within a cluster group** is the global spec order
//!   restricted to that group: each task schedules its group's events
//!   in the same relative sequence, and same-timestamp FIFO tie-breaks
//!   only matter within one fleet (events on other regions or the other
//!   cloud touch disjoint state). Cross-cluster placement fallback stays
//!   inside a group — [`cloudscope_cluster::Fleet::place_in_region`]
//!   only ever falls back across one region's clusters of one cloud —
//!   which is exactly why *(region, cloud)* is the finest safe
//!   granularity.
//! - **VM identities** used during a task's drive are group-local and
//!   affect no output byte (they key hash maps); the merge assigns each
//!   record its position among materialized records in global spec
//!   order (standing placement failures consume no id) *before*
//!   telemetry derives per-VM RNG streams from those ids. The merge
//!   itself is parallel: a chunked prefix sum over materialized counts
//!   yields each chunk's id base, then workers emit final records
//!   concurrently ([`merge_outcomes`]).
//! - **Counters** ([`cloudscope_cluster::AllocatorStats`], drop counts)
//!   are commutative integer sums over per-group partials.
//!
//! The result is byte-identical at any worker count, and identical to a
//! whole-trace serial drive over two whole-cloud fleets — the test-only
//! `reference` module, which shares no code with [`drive_task`] — on
//! the small config and on randomized contended configurations;
//! `tests/trace_digest.rs` pins the bytes.
//!
//! ## One emission pass, two sinks
//!
//! [`place`] runs phases 1–4b; [`Placed::emit`] is the only code that
//! turns placed records into a trace. It synthesizes telemetry on the
//! worker pool a block of records at a time, drops unplaced churn,
//! renumbers the survivors densely and hands each `(record, series)`
//! pair to a sink in final id order. [`generate_with`] collects the
//! pairs for the bulk trace builder in one whole-list block;
//! [`crate::store_io::generate_to_store`] appends them to the store
//! writer in bounded blocks. Telemetry is keyed by the pre-renumber id,
//! so the two agree byte for byte whatever the block length.
//!
//! Each phase (prepare, placement, merge, telemetry, assemble) exports
//! its wall-clock as a last-run `tracegen.generate.phase_*_ns` gauge,
//! and all but prepare (whose topology, plans and specs stages have
//! their own) as a span histogram, on both paths, so flat scaling is
//! diagnosable straight from a metrics dump or the bench output.

use crate::arrivals::{sample_bursts_week, sample_nhpp_week};
use crate::config::GeneratorConfig;
use crate::lifetime::LifetimeSampler;
use crate::services::{synthesize_plans, SubscriptionPlan};
use crate::sizes::SizeSampler;
use crate::utilization::{generate_vm_series, PatternKind, ServiceUtilProfile};
use cloudscope_cluster::{AllocatorStats, Fleet, PlacementPolicy, PlacementRequest, SpreadingRule};
use cloudscope_model::prelude::*;
use cloudscope_model::time::{MINUTES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
use cloudscope_par::Parallelism;
use cloudscope_sim::engine::Simulation;
use cloudscope_sim::rng::RngFactory;
use cloudscope_stats::dist::{Categorical, LogNormal, Sample};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;
use std::time::{Duration, Instant};

/// Per-rack cap on same-service VMs (the fault-domain spreading rule the
/// paper's Insight 1 discusses).
const MAX_SAME_SERVICE_PER_RACK: u32 = 80;
/// How far before the window standing VMs may have been created.
const MAX_STANDING_LEAD_MINUTES: i64 = 3 * MINUTES_PER_WEEK;
/// The cluster a churn record carries from materialization until the
/// simulation places it; a record still carrying it unplaced never ran.
pub(crate) const UNPLACED_CLUSTER: ClusterId = ClusterId::new(u32::MAX);

/// Ground truth about one service (= one subscription's workload), kept
/// alongside the trace for classifier evaluation and policy case studies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceInfo {
    /// The service's id (equals its subscription's index).
    pub service: ServiceId,
    /// Owning subscription.
    pub subscription: SubscriptionId,
    /// Cloud the service runs in.
    pub cloud: CloudKind,
    /// The utilization profile its VMs share.
    pub profile: ServiceUtilProfile,
    /// Regions it deploys into.
    pub regions: Vec<RegionId>,
    /// Standing VM count at generation time.
    pub standing_vms: usize,
}

/// Counters describing one generation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GenerationReport {
    /// Allocation-service counters for the private fleet.
    pub private_alloc: AllocatorStats,
    /// Allocation-service counters for the public fleet.
    pub public_alloc: AllocatorStats,
    /// VMs dropped because placement failed.
    pub dropped_vms: u64,
    /// Standing VMs created.
    pub standing_vms: u64,
    /// Regular churn VMs created.
    pub churn_vms: u64,
    /// Burst-deployed VMs created.
    pub burst_vms: u64,
}

/// The output of [`generate`]: the trace plus ground truth and counters.
#[derive(Debug, Clone)]
pub struct GeneratedTrace {
    /// The synthetic one-week trace.
    pub trace: Trace,
    /// Ground-truth service directory, indexed by [`ServiceId`] index.
    pub services: Vec<ServiceInfo>,
    /// Generation counters.
    pub report: GenerationReport,
}

impl GeneratedTrace {
    /// The "ServiceX" of the paper's Figure 7(c): the largest
    /// region-agnostic multi-region private service, if any exists.
    #[must_use]
    pub fn flagship_service(&self) -> Option<&ServiceInfo> {
        self.services
            .iter()
            .filter(|s| {
                s.cloud == CloudKind::Private && s.profile.region_agnostic && s.regions.len() >= 3
            })
            .max_by_key(|s| s.standing_vms)
    }
}

/// One VM to be materialized, before placement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VmSpec {
    pub(crate) subscription: usize,
    pub(crate) group: usize,
    pub(crate) region: RegionId,
    pub(crate) created: SimTime,
    pub(crate) ended: Option<SimTime>,
    pub(crate) priority: Priority,
    pub(crate) kind: SpecKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpecKind {
    Standing,
    Churn,
    Burst,
}

/// Discrete events driving placement in time order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event {
    Create(usize),
    Release(VmId),
}

/// Everything the placement drive consumes: phases 1–3 (topology, plans,
/// specs) plus the serially pre-drawn VM sizes.
pub(crate) struct Prepared {
    pub(crate) topology: Topology,
    pub(crate) region_ids: Vec<RegionId>,
    pub(crate) tz_of: Vec<i32>,
    pub(crate) plans: Vec<SubscriptionPlan>,
    /// First global service id of each subscription.
    pub(crate) service_base: Vec<u32>,
    pub(crate) next_service: u32,
    pub(crate) standing_per_service: Vec<usize>,
    /// Sorted: standing first, then churn/burst by creation time. Empty
    /// once the routing pre-pass has moved the specs into drive tasks.
    pub(crate) specs: Vec<VmSpec>,
    /// `sizes[i]` is the size drawn for `specs[i]` from the `"sizes"`
    /// stream, in spec order; moved out with `specs`.
    pub(crate) sizes: Vec<VmSize>,
    pub(crate) report: GenerationReport,
}

/// The fault-domain spreading rule both fleets run under.
pub(crate) const fn spreading_rule() -> SpreadingRule {
    SpreadingRule {
        max_same_service_per_rack: Some(MAX_SAME_SERVICE_PER_RACK),
    }
}

/// Phases 1–3: physical plant, subscription plans, VM specs, sizes.
/// Entirely serial.
pub(crate) fn prepare(
    config: &GeneratorConfig,
    factory: &RngFactory,
    gen_span: &cloudscope_obs::Span,
) -> Prepared {
    let stage = gen_span.child("topology");

    // 1. Physical plant.
    let mut tb = Topology::builder();
    let mut region_ids = Vec::new();
    for spec in &config.topology.regions {
        let region = tb.add_region(spec.name.clone(), spec.tz_offset_hours, spec.geo.clone());
        region_ids.push(region);
        let dc = tb.add_datacenter(region);
        for _ in 0..config.topology.private_clusters_per_region {
            tb.add_cluster(
                dc,
                CloudKind::Private,
                config.topology.node_sku,
                config.topology.racks_per_cluster,
                config.topology.nodes_per_rack,
            );
        }
        for _ in 0..config.topology.public_clusters_per_region {
            tb.add_cluster(
                dc,
                CloudKind::Public,
                config.topology.node_sku,
                config.topology.racks_per_cluster,
                config.topology.nodes_per_rack,
            );
        }
    }
    let topology = tb.build();
    let tz_of: Vec<i32> = topology
        .regions()
        .iter()
        .map(|r| r.tz_offset_hours)
        .collect();

    stage.finish();
    let stage = gen_span.child("plans");

    // 2. Subscription plans (private first: dense subscription ids).
    let mut plan_rng = factory.stream("plans/private");
    let mut plans = synthesize_plans(
        CloudKind::Private,
        &config.private,
        &region_ids,
        &mut plan_rng,
    );
    let mut plan_rng = factory.stream("plans/public");
    plans.extend(synthesize_plans(
        CloudKind::Public,
        &config.public,
        &region_ids,
        &mut plan_rng,
    ));

    // Global service ids: one service per (subscription, group).
    let mut service_base: Vec<u32> = Vec::with_capacity(plans.len());
    let mut next_service = 0u32;
    for plan in &plans {
        service_base.push(next_service);
        next_service += plan.groups.len() as u32;
    }
    let mut standing_per_service = vec![0usize; next_service as usize];

    stage.finish();
    let stage = gen_span.child("specs");

    // 3. Materialize VM specs.
    let mut report = GenerationReport::default();
    let mut specs: Vec<VmSpec> = Vec::new();
    let mut standing_rng = factory.stream("standing");
    for (idx, plan) in plans.iter().enumerate() {
        let profile = cloud_profile(config, plan.cloud);
        for (region, &count) in plan.regions.iter().zip(&plan.standing_per_region) {
            for _ in 0..count {
                let lead = standing_rng.random_range(1..=MAX_STANDING_LEAD_MINUTES);
                let survives = standing_rng.random::<f64>() < profile.standing_fraction;
                let ended = if survives {
                    None
                } else {
                    Some(SimTime::from_minutes(
                        standing_rng.random_range(0..MINUTES_PER_WEEK),
                    ))
                };
                let group = standing_rng.random_range(0..plan.groups.len());
                standing_per_service[(service_base[idx] + group as u32) as usize] += 1;
                specs.push(VmSpec {
                    subscription: idx,
                    group,
                    region: *region,
                    created: SimTime::from_minutes(-lead),
                    ended,
                    priority: Priority::OnDemand,
                    kind: SpecKind::Standing,
                });
                report.standing_vms += 1;
            }
        }
    }

    churn_specs(
        config,
        &plans,
        &region_ids,
        &tz_of,
        factory,
        &mut specs,
        &mut report,
    );

    // Sort churn after standing, by creation time, keeping standing
    // first (they are placed before the week starts).
    specs.sort_by_key(|s| (s.kind != SpecKind::Standing, s.created));

    // 3b. Pre-draw every VM's size from the dedicated stream, in spec
    // order: the stream is placement-independent, so drawing up front
    // frees the drive to run per cluster group.
    let size_samplers = [
        SizeSampler::new(config.private.size),
        SizeSampler::new(config.public.size),
    ];
    let mut size_rng = factory.stream("sizes");
    let sizes: Vec<VmSize> = specs
        .iter()
        .map(|spec| {
            size_samplers[fleet_index(plans[spec.subscription].cloud)].sample(&mut size_rng)
        })
        .collect();

    stage.finish();

    Prepared {
        topology,
        region_ids,
        tz_of,
        plans,
        service_base,
        next_service,
        standing_per_service,
        specs,
        sizes,
        report,
    }
}

/// One drive task: a *(region, cloud)* cluster group's specs in global
/// spec order, with their pre-drawn sizes.
struct DriveTask {
    region: RegionId,
    cloud: CloudKind,
    specs: Vec<(VmSpec, VmSize)>,
}

/// What one task's drive produced: for every spec of the task (in task
/// order), either a materialized record or `None` (standing placement
/// failure), plus the group's allocator counters.
struct TaskOutcome {
    outcomes: Vec<Option<VmRecord>>,
    dropped_standing: u64,
    stats: AllocatorStats,
}

/// Drives one partition task on its own fleet: standing placements in
/// spec order, then the churn/release simulation over the calendar
/// queue. Record identities are task-local and provisional (they key
/// the fleet's hash maps and route Release events); the merge assigns
/// the final ones, so they carry no cross-task information.
fn drive_task(task: &DriveTask, prep: &Prepared) -> TaskOutcome {
    let mut fleet = Fleet::for_region(
        &prep.topology,
        task.cloud,
        task.region,
        PlacementPolicy::BestFit,
        spreading_rule(),
    );
    let mut records: Vec<VmRecord> = Vec::with_capacity(task.specs.len());
    // Each spec's index into `records`; `None` for standing failures.
    let mut placed: Vec<Option<u32>> = Vec::with_capacity(task.specs.len());
    let mut dropped_standing = 0u64;
    let mut sim: Simulation<Event> = Simulation::new();

    for (spec, size) in &task.specs {
        let plan = &prep.plans[spec.subscription];
        let request = PlacementRequest {
            vm: VmId::new(records.len() as u64),
            size: *size,
            service: ServiceId::new(prep.service_base[spec.subscription] + spec.group as u32),
            priority: spec.priority,
        };
        match spec.kind {
            SpecKind::Standing => match fleet.place_in_region(spec.region, request) {
                Ok((cluster, node)) => {
                    if let Some(end) = spec.ended {
                        sim.schedule(end, Event::Release(request.vm));
                    }
                    records.push(make_record(request, spec, plan, cluster, Some(node)));
                    placed.push(Some(records.len() as u32 - 1));
                }
                Err(_) => {
                    dropped_standing += 1;
                    placed.push(None);
                }
            },
            SpecKind::Churn | SpecKind::Burst => {
                // Materialize the record now; the DES will place it.
                records.push(make_record(request, spec, plan, UNPLACED_CLUSTER, None));
                sim.schedule(spec.created, Event::Create(records.len() - 1));
                placed.push(Some(records.len() as u32 - 1));
            }
        }
    }

    let week_end = SimTime::WEEK_END;
    sim.run(week_end, |scheduler, time, event| match event {
        Event::Create(record_idx) => {
            let record = &mut records[record_idx];
            let request = PlacementRequest {
                vm: record.id,
                size: record.size,
                service: record.service,
                priority: record.priority,
            };
            match fleet.place_in_region(record.region, request) {
                Ok((cluster, node)) => {
                    record.cluster = cluster;
                    record.node = Some(node);
                    if let Some(end) = record.ended {
                        if end < week_end {
                            scheduler.schedule(end.max(time), Event::Release(record.id));
                        }
                    }
                }
                Err(_) => {
                    // Placement failed: the VM never ran.
                    record.node = None;
                }
            }
        }
        Event::Release(vm) => {
            let _ = fleet.release(vm);
        }
    });

    let mut slots: Vec<Option<VmRecord>> = records.into_iter().map(Some).collect();
    TaskOutcome {
        outcomes: placed
            .iter()
            .map(|local| {
                local.map(|i| slots[i as usize].take().expect("each record consumed once"))
            })
            .collect(),
        dropped_standing,
        stats: fleet.stats(),
    }
}

/// The routing pre-pass: moves every spec (with its size) out of
/// `prep` into its drive task, chosen from deterministic,
/// placement-independent inputs — the spec's region and its plan's
/// cloud.
///
/// Returns the tasks (ascending region, private before public) and, for
/// every global spec index, its `(task, position-within-task)` locator —
/// what the merge uses to reassemble outcomes in global spec order.
fn partition_specs(prep: &mut Prepared) -> (Vec<DriveTask>, Vec<(u32, u32)>) {
    let buckets_len = prep.region_ids.len() * 2;
    let mut buckets: Vec<Vec<(VmSpec, VmSize)>> = vec![Vec::new(); buckets_len];
    let mut locator: Vec<(u32, u32)> = Vec::with_capacity(prep.specs.len());
    let sizes = std::mem::take(&mut prep.sizes);
    for (spec, size) in std::mem::take(&mut prep.specs).into_iter().zip(sizes) {
        let key = spec.region.as_usize() * 2 + fleet_index(prep.plans[spec.subscription].cloud);
        locator.push((key as u32, buckets[key].len() as u32));
        buckets[key].push((spec, size));
    }

    // Compact away empty groups, remapping locator keys to task indices.
    let mut task_of_bucket = vec![u32::MAX; buckets_len];
    let mut tasks = Vec::new();
    for (key, specs) in buckets.into_iter().enumerate() {
        if specs.is_empty() {
            continue;
        }
        task_of_bucket[key] = tasks.len() as u32;
        tasks.push(DriveTask {
            region: prep.region_ids[key / 2],
            cloud: CloudKind::BOTH[key % 2],
            specs,
        });
    }
    for loc in &mut locator {
        loc.0 = task_of_bucket[loc.0 as usize];
    }
    (tasks, locator)
}

/// The parallel merge: re-assembles per-task outcomes into the final
/// record list in global spec order, assigning each materialized record
/// its rank among materialized records as id (standing placement
/// failures consume no id).
///
/// Two chunked passes over the global spec index: workers count
/// materialized specs per chunk, a (tiny) serial scan turns the counts
/// into per-chunk id bases, then workers emit each chunk's records
/// concurrently with final ids and the ordered chunks concatenate into
/// an exactly-sized output.
fn merge_outcomes(
    locator: &[(u32, u32)],
    outcomes: &[TaskOutcome],
    par: Parallelism,
) -> Vec<VmRecord> {
    let record_of = |global: usize| -> Option<&VmRecord> {
        let (task, local) = locator[global];
        outcomes[task as usize].outcomes[local as usize].as_ref()
    };
    let chunk_size = locator
        .len()
        .div_ceil(par.workers().max(1) * MERGE_CHUNKS_PER_WORKER)
        .max(1);
    let ranges: Vec<std::ops::Range<usize>> = (0..locator.len().div_ceil(chunk_size))
        .map(|i| i * chunk_size..((i + 1) * chunk_size).min(locator.len()))
        .collect();

    let counts = par.par_map(&ranges, |range| {
        range.clone().filter(|&g| record_of(g).is_some()).count()
    });
    let mut total = 0usize;
    let chunks: Vec<(std::ops::Range<usize>, usize, usize)> = ranges
        .into_iter()
        .zip(counts)
        .map(|(range, count)| {
            let base = total;
            total += count;
            (range, base, count)
        })
        .collect();

    let parts = par.par_map(&chunks, |(range, base, count)| {
        let mut out = Vec::with_capacity(*count);
        let mut id = *base as u64;
        for global in range.clone() {
            if let Some(record) = record_of(global) {
                let mut record = record.clone();
                record.id = VmId::new(id);
                id += 1;
                out.push(record);
            }
        }
        out
    });
    let mut records = Vec::with_capacity(total);
    for part in parts {
        records.extend(part);
    }
    records
}

/// Merge chunking: a few chunks per worker so stragglers rebalance.
const MERGE_CHUNKS_PER_WORKER: usize = 4;

/// Generates a full synthetic trace from a configuration, using the
/// shared executor's auto-detected worker count (`CLOUDSCOPE_WORKERS`
/// overrides) for the cluster-group drive and the telemetry sweep.
///
/// Deterministic in `config.seed`: the same configuration always yields
/// the same trace, regardless of thread scheduling or worker count.
///
/// # Panics
/// Panics if the configuration is invalid; call
/// [`GeneratorConfig::validate`] first to get a typed
/// [`crate::ConfigError`] instead.
#[must_use]
pub fn generate(config: &GeneratorConfig) -> GeneratedTrace {
    generate_with(config, Parallelism::auto())
}

/// [`generate`] with an explicit parallelism configuration. Output is
/// byte-identical for every worker count.
///
/// # Panics
/// Panics if the configuration is invalid.
#[must_use]
pub fn generate_with(config: &GeneratorConfig, par: Parallelism) -> GeneratedTrace {
    let gen_span = cloudscope_obs::span("tracegen.generate");
    place(config, &gen_span, par).collect(&gen_span, par)
}

/// Phases 1–4b (prepare, placement, merge): everything the emission
/// pass ([`Placed::emit`]) consumes.
///
/// # Panics
/// Panics if the configuration is invalid.
pub(crate) fn place(
    config: &GeneratorConfig,
    gen_span: &cloudscope_obs::Span,
    par: Parallelism,
) -> Placed {
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
    let factory = RngFactory::new(config.seed);
    let phase_start = Instant::now();
    let mut prep = prepare(config, &factory, gen_span);
    record_phase("prepare", phase_start.elapsed());

    let stage = gen_span.child("placement");
    let phase_start = Instant::now();
    let mut region_seen = vec![false; prep.region_ids.len()];
    for spec in &prep.specs {
        region_seen[spec.region.as_usize()] = true;
    }
    cloudscope_obs::counter("tracegen.generate.regions_driven")
        .add(region_seen.iter().filter(|&&seen| seen).count() as u64);

    // 4. Placement: the routing pre-pass, then the per-task drive.
    let (tasks, locator) = partition_specs(&mut prep);
    cloudscope_obs::counter("tracegen.generate.tasks_driven").add(tasks.len() as u64);
    cloudscope_obs::gauge("tracegen.generate.region_workers").set(par.workers() as f64);
    let outcomes = par.par_map(&tasks, |task| drive_task(task, &prep));
    stage.finish();
    record_phase("placement", phase_start.elapsed());

    let stage = gen_span.child("merge");
    let phase_start = Instant::now();
    // 4b. Merge: reassemble per-task outcomes over the global spec order.
    let report = &mut prep.report;
    for (task, outcome) in tasks.iter().zip(&outcomes) {
        report.dropped_vms += outcome.dropped_standing;
        match task.cloud {
            CloudKind::Private => report.private_alloc.absorb(&outcome.stats),
            CloudKind::Public => report.public_alloc.absorb(&outcome.stats),
        }
    }
    let records = merge_outcomes(&locator, &outcomes, par);
    cloudscope_obs::counter("tracegen.generate.merged_records").add(records.len() as u64);
    stage.finish();
    record_phase("merge", phase_start.elapsed());

    Placed {
        factory,
        telemetry: config.telemetry,
        prep,
        records,
    }
}

/// Records one generation phase's wall-clock as the last-run gauge
/// `tracegen.generate.phase_<phase>_ns` — the per-phase breakdown
/// benches and profiling read without histogram-bucket math.
fn record_phase(phase: &str, elapsed: Duration) {
    cloudscope_obs::gauge(&format!("tracegen.generate.phase_{phase}_ns"))
        .set(elapsed.as_nanos() as f64);
}

/// A placed trace: every materialized record, and what the emission
/// pass needs to give each its telemetry.
pub(crate) struct Placed {
    pub(crate) factory: RngFactory,
    /// [`GeneratorConfig::telemetry`].
    pub(crate) telemetry: bool,
    /// Phases 1–3's output, its report counting placement.
    pub(crate) prep: Prepared,
    /// Placement outcomes in global spec order, with pre-renumber ids
    /// (dense over materialized records, unplaced churn included).
    pub(crate) records: Vec<VmRecord>,
}

/// What the emission pass hands back once every VM reached its sink.
pub(crate) struct Emitted {
    pub(crate) topology: Topology,
    pub(crate) subscriptions: Vec<Subscription>,
    pub(crate) services: Vec<ServiceInfo>,
    pub(crate) report: GenerationReport,
}

impl Placed {
    /// Phases 5–6, the one emission pass: telemetry for `block_len`
    /// records at a time on the worker pool, then a serial pass over
    /// the block that drops unplaced churn (the platform never ran it)
    /// and hands the survivors to `sink` in final id order, renumbered
    /// densely. Telemetry is keyed by the pre-renumber id, so the bytes
    /// do not depend on `block_len`; `usize::MAX` sweeps the whole list
    /// at once, with no per-block barrier.
    ///
    /// # Errors
    /// The first error `sink` returns; the pass stops there.
    ///
    /// # Panics
    /// Panics if `block_len` is zero.
    pub(crate) fn emit<E>(
        self,
        gen_span: &cloudscope_obs::Span,
        par: Parallelism,
        block_len: usize,
        mut sink: impl FnMut(VmRecord, Option<UtilSeries>) -> Result<(), E>,
    ) -> Result<Emitted, E> {
        assert!(block_len > 0, "emission blocks hold at least one record");
        let Placed {
            factory,
            telemetry,
            prep,
            records,
        } = self;
        let mut report = prep.report;
        let (mut telemetry_time, mut assemble_time) = (Duration::ZERO, Duration::ZERO);
        let (mut vms_generated, mut samples_generated) = (0u64, 0u64);
        let mut records = records.into_iter();
        while !records.as_slice().is_empty() {
            let stage = gen_span.child("telemetry");
            let phase_start = Instant::now();
            let block = &records.as_slice()[..block_len.min(records.len())];
            let series: Vec<Option<UtilSeries>> = if telemetry {
                par.par_map(block, |record| vm_telemetry(record, &prep, &factory))
            } else {
                vec![None; block.len()]
            };
            telemetry_time += phase_start.elapsed();
            stage.finish();

            let stage = gen_span.child("assemble");
            let phase_start = Instant::now();
            // `zip` polls `series` first, so it stops at the block's end
            // without taking the next block's first record.
            for (util, mut record) in series.into_iter().zip(&mut records) {
                if record.node.is_none() && record.cluster == UNPLACED_CLUSTER {
                    report.dropped_vms += 1;
                    continue;
                }
                record.id = VmId::new(vms_generated);
                vms_generated += 1;
                samples_generated += util.as_ref().map_or(0, |s| s.len() as u64);
                sink(record, util)?;
            }
            assemble_time += phase_start.elapsed();
            stage.finish();
        }
        record_phase("telemetry", telemetry_time);
        record_phase("assemble", assemble_time);
        cloudscope_obs::counter("tracegen.generate.vms_generated").add(vms_generated);
        cloudscope_obs::counter("tracegen.generate.samples_generated").add(samples_generated);

        let subscriptions = prep
            .plans
            .iter()
            .enumerate()
            .map(|(idx, plan)| {
                Subscription::new(SubscriptionId::new(idx as u32), plan.cloud, plan.party)
            })
            .collect();
        let services = build_services(&prep);
        Ok(Emitted {
            topology: prep.topology,
            subscriptions,
            services,
            report,
        })
    }

    /// The in-memory sink: the whole list in one block, collected and
    /// bulk-added to a [`TraceBuilder`], which validates the batch and
    /// builds its four secondary indices on the worker pool.
    pub(crate) fn collect(
        self,
        gen_span: &cloudscope_obs::Span,
        par: Parallelism,
    ) -> GeneratedTrace {
        let capacity = self.records.len();
        let (mut records, mut util) = (Vec::new(), Vec::new());
        let Ok(emitted) = self.emit(gen_span, par, usize::MAX, |record, series| {
            // Reserved at the first pair: after the sweep, whose
            // transients would otherwise stack on these.
            if records.capacity() == 0 {
                records.reserve_exact(capacity);
                util.reserve_exact(capacity);
            }
            records.push(record);
            util.push(series);
            Ok::<(), Infallible>(())
        });
        let mut builder = Trace::builder(emitted.topology);
        for subscription in emitted.subscriptions {
            builder
                .add_subscription(subscription)
                .expect("dense subscription ids");
        }
        builder
            .add_vms_bulk(records, util, &par)
            .expect("consistent records");
        GeneratedTrace {
            trace: builder.build(),
            services: emitted.services,
            report: emitted.report,
        }
    }
}

/// The telemetry series one placed record carries. The RNG stream is
/// keyed by the record's *pre-renumber* id — its position among
/// materialized records in global spec order — so the samples do not
/// depend on how the emission pass blocks the records.
fn vm_telemetry(record: &VmRecord, prep: &Prepared, factory: &RngFactory) -> Option<UtilSeries> {
    record.node?;
    let plan = &prep.plans[record.subscription.as_usize()];
    let group =
        (record.service.index() - prep.service_base[record.subscription.as_usize()]) as usize;
    let first_sample =
        (record.created.minutes().max(0) + SAMPLE_INTERVAL_MINUTES - 1) / SAMPLE_INTERVAL_MINUTES;
    let end_minute = record
        .ended
        .map_or(MINUTES_PER_WEEK, |e| e.minutes().min(MINUTES_PER_WEEK));
    let end_sample = end_minute / SAMPLE_INTERVAL_MINUTES;
    let samples = end_sample - first_sample;
    if samples < 2 {
        return None;
    }
    let mut rng = factory.indexed_stream("telemetry", record.id.index());
    Some(generate_vm_series(
        &plan.groups[group],
        prep.tz_of[record.region.as_usize()],
        SimTime::from_minutes(first_sample * SAMPLE_INTERVAL_MINUTES),
        samples as usize,
        &mut rng,
    ))
}

/// The ground-truth service directory, dense by [`ServiceId`] index.
fn build_services(prep: &Prepared) -> Vec<ServiceInfo> {
    let mut services = Vec::with_capacity(prep.next_service as usize);
    for (idx, plan) in prep.plans.iter().enumerate() {
        for (group, profile) in plan.groups.iter().enumerate() {
            let sid = prep.service_base[idx] + group as u32;
            services.push(ServiceInfo {
                service: ServiceId::new(sid),
                subscription: SubscriptionId::new(idx as u32),
                cloud: plan.cloud,
                profile: *profile,
                regions: plan.regions.clone(),
                standing_vms: prep.standing_per_service[sid as usize],
            });
        }
    }
    services
}

pub(crate) fn fleet_index(cloud: CloudKind) -> usize {
    match cloud {
        CloudKind::Private => 0,
        CloudKind::Public => 1,
    }
}

fn cloud_profile(config: &GeneratorConfig, cloud: CloudKind) -> &crate::config::CloudProfile {
    match cloud {
        CloudKind::Private => &config.private,
        CloudKind::Public => &config.public,
    }
}

pub(crate) fn make_record(
    request: PlacementRequest,
    spec: &VmSpec,
    plan: &SubscriptionPlan,
    cluster: ClusterId,
    node: Option<NodeId>,
) -> VmRecord {
    VmRecord {
        id: request.vm,
        subscription: SubscriptionId::new(spec.subscription as u32),
        service: request.service,
        size: request.size,
        priority: request.priority,
        service_model: service_model_for(&plan.groups[spec.group]),
        region: spec.region,
        cluster,
        node,
        created: spec.created,
        ended: spec.ended,
    }
}

/// Service model, derived deterministically from the group's profile:
/// SaaS for user-facing diurnal/hourly services, PaaS for stable
/// backends, IaaS otherwise.
fn service_model_for(profile: &ServiceUtilProfile) -> ServiceModel {
    match profile.kind {
        PatternKind::Diurnal | PatternKind::HourlyPeak => ServiceModel::Saas,
        PatternKind::Stable => ServiceModel::Paas,
        PatternKind::Irregular => ServiceModel::Iaas,
    }
}

/// Generates churn and burst VM specs for both clouds.
fn churn_specs(
    config: &GeneratorConfig,
    plans: &[SubscriptionPlan],
    region_ids: &[RegionId],
    tz_of: &[i32],
    factory: &RngFactory,
    specs: &mut Vec<VmSpec>,
    report: &mut GenerationReport,
) {
    for cloud in CloudKind::BOTH {
        let profile = cloud_profile(config, cloud);
        let lifetimes = LifetimeSampler::new(&profile.lifetime);
        let burst_lifetime = LogNormal::from_median(5.0 * 60.0, 0.6).expect("valid burst lifetime");
        let mut rng = factory.stream(&format!("churn/{cloud}"));

        // Subscriptions by region (indices into `plans`).
        let mut by_region: Vec<Vec<usize>> = vec![Vec::new(); region_ids.len()];
        for (idx, plan) in plans.iter().enumerate() {
            if plan.cloud == cloud {
                for r in &plan.regions {
                    by_region[r.as_usize()].push(idx);
                }
            }
        }

        for (region_idx, &region) in region_ids.iter().enumerate() {
            let members = &by_region[region_idx];
            if members.is_empty() {
                continue;
            }
            let tz = tz_of[region_idx];
            let churn_weights: Vec<f64> = members.iter().map(|&i| plans[i].churn_weight).collect();
            let churn_pick = Categorical::new(&churn_weights).expect("positive weights");

            // Regular (possibly diurnal) churn.
            for created in sample_nhpp_week(&mut rng, &profile.arrival, tz) {
                let sub = members[churn_pick.sample_index(&mut rng)];
                let group = rng.random_range(0..plans[sub].groups.len());
                let autoscale = rng.random::<f64>() < profile.autoscale_fraction;
                let ended = if autoscale {
                    Some(autoscale_end(created, tz, &mut rng))
                } else {
                    Some(created + lifetimes.sample(&mut rng))
                };
                let spot = rng.random::<f64>() < profile.spot_fraction;
                specs.push(VmSpec {
                    subscription: sub,
                    group,
                    region,
                    created,
                    ended,
                    priority: if spot {
                        Priority::Spot
                    } else {
                        Priority::OnDemand
                    },
                    kind: SpecKind::Churn,
                });
                report.churn_vms += 1;
            }

            // Deployment bursts (private-cloud spikes).
            let burst_weights: Vec<f64> = members
                .iter()
                .map(|&i| {
                    let s = plans[i].standing_total() as f64;
                    s * s
                })
                .collect();
            if burst_weights.iter().sum::<f64>() <= 0.0 {
                continue;
            }
            let burst_pick = Categorical::new(&burst_weights).expect("positive weights");
            for burst in sample_bursts_week(&mut rng, &profile.arrival, tz) {
                let sub = members[burst_pick.sample_index(&mut rng)];
                let group = rng.random_range(0..plans[sub].groups.len());
                for _ in 0..burst.size {
                    let life = burst_lifetime.sample(&mut rng).max(30.0) as i64;
                    specs.push(VmSpec {
                        subscription: sub,
                        group,
                        region,
                        created: burst.at,
                        ended: Some(burst.at + SimDuration::from_minutes(life)),
                        priority: Priority::OnDemand,
                        kind: SpecKind::Burst,
                    });
                    report.burst_vms += 1;
                }
            }
        }
    }
}

/// End time for an auto-scaled VM: around 19:00 local on its creation
/// day (or a short life if created in the evening).
fn autoscale_end<R: Rng + ?Sized>(created: SimTime, tz: i32, rng: &mut R) -> SimTime {
    let local = created.to_local(tz);
    let evening = i64::from(19 * 60) + rng.random_range(-45..45);
    let remaining = evening - i64::from(local.minute_of_day());
    if remaining > 30 {
        created + SimDuration::from_minutes(remaining)
    } else {
        created + SimDuration::from_minutes(rng.random_range(20..60))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GeneratorConfig;

    fn small_trace(seed: u64) -> GeneratedTrace {
        generate(&GeneratorConfig::small(seed))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_trace(7);
        let b = small_trace(7);
        assert_eq!(a.trace.stats(), b.trace.stats());
        assert_eq!(a.report, b.report);
        let vm = VmId::new(3);
        assert_eq!(a.trace.vm(vm).unwrap(), b.trace.vm(vm).unwrap());
        assert_eq!(a.trace.util(vm), b.trace.util(vm));
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_trace(1);
        let b = small_trace(2);
        assert_ne!(a.trace.stats(), b.trace.stats());
    }

    #[test]
    fn both_clouds_populated() {
        let g = small_trace(3);
        let stats = g.trace.stats();
        assert!(stats.private_vms > 100, "{stats:?}");
        assert!(stats.public_vms > 100, "{stats:?}");
        assert!(stats.private_subscriptions > 0);
        assert!(stats.public_subscriptions > stats.private_subscriptions);
        assert!(stats.vms_with_telemetry > 0);
    }

    #[test]
    fn records_reference_valid_entities() {
        let g = small_trace(4);
        for vm in g.trace.vms() {
            let cluster = g.trace.topology().cluster(vm.cluster).expect("cluster");
            assert_eq!(cluster.region, vm.region);
            let sub = g.trace.subscription(vm.subscription).expect("subscription");
            assert_eq!(sub.cloud, cluster.cloud);
            if let Some(node) = vm.node {
                assert_eq!(g.trace.topology().node(node).unwrap().cluster, vm.cluster);
            }
            if let Some(end) = vm.ended {
                assert!(end >= vm.created);
            }
        }
    }

    #[test]
    fn telemetry_spans_alive_window() {
        let g = small_trace(5);
        let mut checked = 0;
        for vm in g.trace.vms() {
            if let Some(series) = g.trace.util(vm.id) {
                assert!(series.start().minutes() >= 0);
                assert!(series.start() >= vm.created);
                let last = series.time_at(series.len() - 1);
                assert!(last < SimTime::WEEK_END);
                if let Some(end) = vm.ended {
                    assert!(last < end.max(SimTime::ZERO) || end > SimTime::WEEK_END);
                }
                checked += 1;
            }
        }
        assert!(checked > 100);
    }

    #[test]
    fn report_counts_are_consistent() {
        let g = small_trace(6);
        let total_specs = g.report.standing_vms + g.report.churn_vms + g.report.burst_vms;
        assert_eq!(
            g.trace.vms().len() as u64 + g.report.dropped_vms,
            total_specs
        );
        assert!(g.report.burst_vms > 0, "private bursts expected");
        assert!(
            g.report.private_alloc.successes + g.report.public_alloc.successes
                >= g.trace.vms().iter().filter(|v| v.node.is_some()).count() as u64
        );
    }

    #[test]
    fn flagship_service_exists_and_is_private_agnostic() {
        // Flagship needs >=3 regions; use a seed-stable small config.
        let g = small_trace(8);
        if let Some(svc) = g.flagship_service() {
            assert_eq!(svc.cloud, CloudKind::Private);
            assert!(svc.profile.region_agnostic);
            assert!(svc.regions.len() >= 3);
        }
    }

    #[test]
    fn telemetry_can_be_disabled() {
        let mut cfg = GeneratorConfig::small(9);
        cfg.telemetry = false;
        let g = generate(&cfg);
        assert_eq!(g.trace.stats().vms_with_telemetry, 0);
        assert!(!g.trace.vms().is_empty());
    }

    #[test]
    fn spot_vms_only_where_configured() {
        let g = small_trace(10);
        let spot_public = g
            .trace
            .vms_of(CloudKind::Public)
            .filter(|v| v.priority == Priority::Spot)
            .count();
        assert!(spot_public > 0, "public cloud should have spot VMs");
    }

    /// The emission pass yields the same `(record, series)` sequence and
    /// report at every block length: one record, a small odd length, the
    /// streamed length, and the whole list.
    #[test]
    fn emission_is_block_length_independent() {
        let mut cfg = GeneratorConfig::small(12);
        cfg.topology.nodes_per_rack = 4; // starved: churn goes unplaced
        let par = Parallelism::with_workers(2);
        let emit_with = |block_len: usize| {
            let gen_span = cloudscope_obs::span("tracegen.generate");
            let placed = place(&cfg, &gen_span, par);
            let dropped_in_placement = placed.prep.report.dropped_vms;
            let mut pairs = Vec::new();
            let Ok(emitted) = placed.emit(&gen_span, par, block_len, |record, series| {
                pairs.push((record, series));
                Ok::<(), Infallible>(())
            });
            (pairs, emitted.report, dropped_in_placement)
        };

        let (whole, report, dropped_in_placement) = emit_with(usize::MAX);
        assert!(
            report.dropped_vms > dropped_in_placement,
            "the config must leave churn unplaced: {report:?}"
        );
        assert!(
            whole.len() > 2048,
            "the streamed length must split the list"
        );
        for block_len in [1, 7, 2048] {
            let (pairs, got, _) = emit_with(block_len);
            assert_eq!(got, report, "block_len={block_len}");
            assert!(
                pairs == whole,
                "block_len={block_len}: emitted pairs differ"
            );
        }
    }

    /// Worker-count invariance at the unit level: the partitioned drive
    /// must agree exactly at every worker count (the integration digest
    /// test locks the same property against the golden bytes).
    #[test]
    fn generate_with_is_worker_count_invariant() {
        let cfg = GeneratorConfig::small(11);
        let base = generate_with(&cfg, Parallelism::with_workers(1));
        for workers in [2, 4, 8] {
            let got = generate_with(&cfg, Parallelism::with_workers(workers));
            assert_eq!(got.trace.stats(), base.trace.stats(), "workers={workers}");
            assert_eq!(got.report, base.report, "workers={workers}");
            assert_eq!(got.services, base.services, "workers={workers}");
            assert_eq!(got.trace.vms(), base.trace.vms(), "workers={workers}");
        }
    }
}
