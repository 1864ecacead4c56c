//! Bridging the generator and the on-disk columnar trace store
//! ([`cloudscope_store`]): persisting a [`GeneratedTrace`] with its
//! ground-truth sidecars, reading one back in either telemetry mode,
//! and — the reason this module exists — generating **straight to
//! disk** so the full telemetry never materializes in memory.
//!
//! The generator's ground truth ([`ServiceInfo`] directory and
//! [`GenerationReport`]) rides along as named manifest blobs with
//! hand-rolled little-endian codecs (floats travel as IEEE-754 bit
//! patterns, so round trips are exact). A store written by
//! [`generate_to_store`] is byte-identical to one written by
//! [`write_generated`] over the in-memory result of
//! [`crate::generate_with`] with the same seed and options — the
//! round-trip suites lock this.

use crate::config::GeneratorConfig;
use crate::generate::{
    build_services, drive_all, vm_telemetry, FinishInputs, GeneratedTrace, GenerationReport,
    ServiceInfo,
};
use crate::utilization::{PatternKind, ServiceUtilProfile};
use cloudscope_cluster::AllocatorStats;
use cloudscope_model::durable::{Dec, Enc};
use cloudscope_model::ids::{RegionId, ServiceId, SubscriptionId, VmId};
use cloudscope_model::subscription::Subscription;
use cloudscope_model::telemetry::UtilSeries;
use cloudscope_par::Parallelism;
use cloudscope_sim::rng::RngFactory;
use cloudscope_store::{
    encode_subscriptions, encode_topology, StoreError, TelemetryMode, TraceReader, TraceWriter,
    WriteOptions, BLOB_SUBSCRIPTIONS, BLOB_TOPOLOGY,
};
use std::path::{Path, PathBuf};

/// Manifest blob holding the ground-truth service directory.
pub const BLOB_SERVICES: &str = "tracegen_services";
/// Manifest blob holding the generation counters.
pub const BLOB_REPORT: &str = "tracegen_report";

/// Records per streamed telemetry block: big enough to keep every
/// worker busy on the per-VM series sweep, small enough that one
/// block's decoded series stay a rounding error next to the trace.
const STREAM_BLOCK_RECORDS: usize = 2048;

/// Serializes the service directory blob.
#[must_use]
pub fn encode_services(services: &[ServiceInfo]) -> Vec<u8> {
    let mut e = Enc::with_capacity(32 + services.len() * 96);
    e.put_u32(services.len() as u32);
    for s in services {
        e.put_u32(s.service.index());
        e.put_u32(s.subscription.index());
        e.put_u8(cloud_tag(s.cloud));
        e.put_u64(s.standing_vms as u64);
        e.put_u32(s.regions.len() as u32);
        for r in &s.regions {
            e.put_u32(r.index());
        }
        let p = &s.profile;
        e.put_u8(pattern_tag(p.kind));
        e.put_u8(u8::from(p.region_agnostic));
        for v in [
            p.base,
            p.amplitude,
            p.peak_hour,
            p.weekend_damp,
            p.noise_std,
            p.spikes_per_day,
            p.spike_minutes,
            p.spike_height,
        ] {
            e.put_f64(v);
        }
    }
    e.into_vec()
}

/// Decodes the service directory blob.
///
/// # Errors
/// [`StoreError::Malformed`] naming `path` on any structural damage.
pub fn decode_services(path: &Path, bytes: &[u8]) -> Result<Vec<ServiceInfo>, StoreError> {
    let fail = |e: String| StoreError::malformed(path, format!("services blob: {e}"));
    let mut d = Dec::new(bytes);
    let count = d.take_u32().map_err(&fail)? as usize;
    if count > bytes.len() / 79 {
        return Err(fail(format!("implausible service count {count}")));
    }
    let mut services = Vec::with_capacity(count);
    for i in 0..count {
        let service = ServiceId::new(d.take_u32().map_err(&fail)?);
        if service.index() != i as u32 {
            return Err(fail(format!("service {i} has id {service}")));
        }
        let subscription = SubscriptionId::new(d.take_u32().map_err(&fail)?);
        let cloud = cloud_from(d.take_u8().map_err(&fail)?).map_err(&fail)?;
        let standing_vms = usize::try_from(d.take_u64().map_err(&fail)?)
            .map_err(|_| fail("standing count overflows usize".into()))?;
        let nregions = d.take_u32().map_err(&fail)? as usize;
        if nregions > d.remaining() / 4 {
            return Err(fail(format!("implausible region count {nregions}")));
        }
        let mut regions = Vec::with_capacity(nregions);
        for _ in 0..nregions {
            regions.push(RegionId::new(d.take_u32().map_err(&fail)?));
        }
        let kind = pattern_from(d.take_u8().map_err(&fail)?).map_err(&fail)?;
        let region_agnostic = match d.take_u8().map_err(&fail)? {
            0 => false,
            1 => true,
            other => return Err(fail(format!("region-agnostic byte {other}"))),
        };
        let mut f = [0f64; 8];
        for slot in &mut f {
            *slot = d.take_f64().map_err(&fail)?;
        }
        services.push(ServiceInfo {
            service,
            subscription,
            cloud,
            profile: ServiceUtilProfile {
                kind,
                base: f[0],
                amplitude: f[1],
                peak_hour: f[2],
                weekend_damp: f[3],
                region_agnostic,
                noise_std: f[4],
                spikes_per_day: f[5],
                spike_minutes: f[6],
                spike_height: f[7],
            },
            regions,
            standing_vms,
        });
    }
    if d.remaining() != 0 {
        return Err(fail(format!("{} trailing bytes", d.remaining())));
    }
    Ok(services)
}

/// Serializes the generation-counter blob.
#[must_use]
pub fn encode_report(report: &GenerationReport) -> Vec<u8> {
    let mut e = Enc::with_capacity(16 * 8);
    for stats in [&report.private_alloc, &report.public_alloc] {
        for v in [
            stats.attempts,
            stats.successes,
            stats.capacity_failures,
            stats.spreading_failures,
            stats.evictions,
            stats.migrations,
        ] {
            e.put_u64(v);
        }
    }
    for v in [
        report.dropped_vms,
        report.standing_vms,
        report.churn_vms,
        report.burst_vms,
    ] {
        e.put_u64(v);
    }
    e.into_vec()
}

/// Decodes the generation-counter blob.
///
/// # Errors
/// [`StoreError::Malformed`] naming `path` on any structural damage.
pub fn decode_report(path: &Path, bytes: &[u8]) -> Result<GenerationReport, StoreError> {
    let fail = |e: String| StoreError::malformed(path, format!("report blob: {e}"));
    let mut d = Dec::new(bytes);
    let mut stats = [AllocatorStats::default(), AllocatorStats::default()];
    for s in &mut stats {
        s.attempts = d.take_u64().map_err(&fail)?;
        s.successes = d.take_u64().map_err(&fail)?;
        s.capacity_failures = d.take_u64().map_err(&fail)?;
        s.spreading_failures = d.take_u64().map_err(&fail)?;
        s.evictions = d.take_u64().map_err(&fail)?;
        s.migrations = d.take_u64().map_err(&fail)?;
    }
    let report = GenerationReport {
        private_alloc: stats[0],
        public_alloc: stats[1],
        dropped_vms: d.take_u64().map_err(&fail)?,
        standing_vms: d.take_u64().map_err(&fail)?,
        churn_vms: d.take_u64().map_err(&fail)?,
        burst_vms: d.take_u64().map_err(&fail)?,
    };
    if d.remaining() != 0 {
        return Err(fail(format!("{} trailing bytes", d.remaining())));
    }
    Ok(report)
}

/// Persists an in-memory [`GeneratedTrace`] — trace, service ground
/// truth, and report — as one committed store directory.
///
/// # Errors
/// Any [`StoreError`] from the writer; on error no manifest commits.
pub fn write_generated(
    generated: &GeneratedTrace,
    dir: impl Into<PathBuf>,
    opts: WriteOptions,
    par: &Parallelism,
) -> Result<(), StoreError> {
    let mut w = TraceWriter::create(dir, opts, par)?;
    add_sidecars(
        &mut w,
        generated.trace.topology(),
        generated.trace.subscriptions(),
        &generated.services,
    );
    generated
        .trace
        .try_for_each_vm(|vm, util| w.append_vm(vm, util.as_ref()))?;
    w.add_blob(BLOB_REPORT, encode_report(&generated.report));
    w.finish()
}

/// Reads a [`GeneratedTrace`] back from a store directory written by
/// [`write_generated`] or [`generate_to_store`].
///
/// With [`TelemetryMode::OutOfCore`] the returned trace keeps
/// telemetry on disk, read in stored order with one decoded chunk per
/// `(region, day)` lane; everything else is
/// resident and identical to the in-memory generation result.
///
/// # Errors
/// Any [`StoreError`] from opening, validation, or decoding.
pub fn read_generated(
    dir: impl AsRef<Path>,
    mode: TelemetryMode,
    par: &Parallelism,
) -> Result<GeneratedTrace, StoreError> {
    let dir = dir.as_ref();
    let reader = TraceReader::open(dir)?;
    let manifest_path = dir.join(cloudscope_store::MANIFEST_NAME);
    let services = decode_services(&manifest_path, reader.read_blob(BLOB_SERVICES)?)?;
    let report = decode_report(&manifest_path, reader.read_blob(BLOB_REPORT)?)?;
    let trace = reader.read_trace(mode, par)?;
    Ok(GeneratedTrace {
        trace,
        services,
        report,
    })
}

/// Generates a trace **straight to disk**: placement runs exactly as
/// [`crate::generate_with`], but telemetry is synthesized in bounded
/// blocks and appended to the columnar writer instead of being
/// materialized trace-wide. Peak memory is the placement records, one
/// telemetry block, and the writer's open buffers — one per
/// `(region, day)` lane, each up to `opts.target_chunk_bytes`, plus one
/// compression batch. Lanes × threshold is the bound, and on a trace
/// whose lanes never reach the threshold (the default trace at the
/// default 1 MiB: 54 MB over 70 lanes, one chunk each) it is also the
/// whole raw telemetry, held until `finish` compresses and syncs it.
///
/// The resulting store is byte-identical to
/// `write_generated(&generate_with(config, par), dir, opts, &par)`,
/// and [`read_generated`] restores the identical [`GeneratedTrace`].
/// Returns the generation report (also persisted as a blob).
///
/// # Errors
/// Any [`StoreError`] from the writer; on error no manifest commits.
///
/// # Panics
/// Panics if the configuration is invalid, like [`crate::generate`].
pub fn generate_to_store(
    config: &GeneratorConfig,
    dir: impl Into<PathBuf>,
    opts: WriteOptions,
    par: Parallelism,
) -> Result<GenerationReport, StoreError> {
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
    let factory = RngFactory::new(config.seed);
    let gen_span = cloudscope_obs::span("tracegen.generate");
    let FinishInputs {
        topology,
        tz_of,
        plans,
        service_base,
        next_service,
        standing_per_service,
        records,
        mut report,
    } = drive_all(config, &factory, &gen_span, par);

    let stage = gen_span.child("stream_out");
    let subscriptions: Vec<Subscription> = plans
        .iter()
        .enumerate()
        .map(|(idx, plan)| {
            Subscription::new(SubscriptionId::new(idx as u32), plan.cloud, plan.party)
        })
        .collect();
    let services = build_services(&plans, &service_base, &standing_per_service, next_service);

    let mut w = TraceWriter::create(dir, opts, &par)?;
    add_sidecars(&mut w, &topology, &subscriptions, &services);

    // Stream: per-block parallel telemetry (keyed by pre-renumber ids,
    // so the draws match the in-memory path), then a serial append
    // pass that drops unplaced churn and renumbers densely — the same
    // rule `finish` applies before building the in-memory trace.
    let mut next_id: u64 = 0;
    let mut samples_generated: u64 = 0;
    for block in records.chunks(STREAM_BLOCK_RECORDS) {
        let telemetry: Vec<Option<UtilSeries>> = if config.telemetry {
            par.par_map(block, |record| {
                vm_telemetry(record, &plans, &service_base, &tz_of, &factory)
            })
        } else {
            vec![None; block.len()]
        };
        for (record, util) in block.iter().zip(telemetry) {
            if record.node.is_none() && record.cluster.index() == u32::MAX {
                report.dropped_vms += 1;
                continue;
            }
            let mut record = record.clone();
            record.id = VmId::new(next_id);
            next_id += 1;
            samples_generated += util.as_ref().map_or(0, |s| s.len() as u64);
            w.append_vm(&record, util.as_ref())?;
        }
    }
    w.add_blob(BLOB_REPORT, encode_report(&report));
    w.finish()?;
    stage.finish();
    cloudscope_obs::counter("tracegen.generate.vms_generated").add(next_id);
    cloudscope_obs::counter("tracegen.generate.samples_generated").add(samples_generated);
    Ok(report)
}

/// Pushes the topology, subscription, and service-directory blobs in
/// the canonical order both write paths share (the report blob lands
/// after the records so streamed counters are final).
fn add_sidecars(
    w: &mut TraceWriter<'_>,
    topology: &cloudscope_model::topology::Topology,
    subscriptions: &[Subscription],
    services: &[ServiceInfo],
) {
    w.add_blob(BLOB_TOPOLOGY, encode_topology(topology));
    w.add_blob(BLOB_SUBSCRIPTIONS, encode_subscriptions(subscriptions));
    w.add_blob(BLOB_SERVICES, encode_services(services));
}

fn cloud_tag(cloud: cloudscope_model::subscription::CloudKind) -> u8 {
    match cloud {
        cloudscope_model::subscription::CloudKind::Private => 0,
        cloudscope_model::subscription::CloudKind::Public => 1,
    }
}

fn cloud_from(tag: u8) -> Result<cloudscope_model::subscription::CloudKind, String> {
    match tag {
        0 => Ok(cloudscope_model::subscription::CloudKind::Private),
        1 => Ok(cloudscope_model::subscription::CloudKind::Public),
        other => Err(format!("unknown cloud tag {other}")),
    }
}

fn pattern_tag(kind: PatternKind) -> u8 {
    match kind {
        PatternKind::Diurnal => 0,
        PatternKind::Stable => 1,
        PatternKind::Irregular => 2,
        PatternKind::HourlyPeak => 3,
    }
}

fn pattern_from(tag: u8) -> Result<PatternKind, String> {
    match tag {
        0 => Ok(PatternKind::Diurnal),
        1 => Ok(PatternKind::Stable),
        2 => Ok(PatternKind::Irregular),
        3 => Ok(PatternKind::HourlyPeak),
        other => Err(format!("unknown pattern tag {other}")),
    }
}
