//! Shared helpers for the store integration suites: unique temp
//! directories and deterministic seed-driven trace construction.

#![allow(dead_code)]

use cloudscope_model::ids::{ClusterId, NodeId, RegionId, ServiceId, SubscriptionId, VmId};
use cloudscope_model::subscription::{CloudKind, PartyKind, Subscription};
use cloudscope_model::telemetry::UtilSeries;
use cloudscope_model::time::SimTime;
use cloudscope_model::topology::{NodeSku, Topology};
use cloudscope_model::trace::Trace;
use cloudscope_model::vm::{Priority, ServiceModel, VmRecord, VmSize};
use cloudscope_par::Parallelism;
use cloudscope_store::{ScanFilter, StoreTelemetry, TraceReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique directory under the system temp dir, removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh, empty, uniquely named directory.
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "cloudscope-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// SplitMix64: a tiny deterministic stream for seed-driven records.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed test topology: two regions, three clusters (0 and 1 in
/// region 0, cluster 2 in region 1), four nodes per cluster.
pub fn topology() -> Topology {
    let mut b = Topology::builder();
    let r0 = b.add_region("us-west", -8, "US");
    let r1 = b.add_region("eu-north", 1, "EU");
    let d0 = b.add_datacenter(r0);
    let d1 = b.add_datacenter(r1);
    b.add_cluster(d0, CloudKind::Private, NodeSku::new(48, 384.0), 2, 2);
    b.add_cluster(d0, CloudKind::Public, NodeSku::new(64, 512.0), 2, 2);
    b.add_cluster(d1, CloudKind::Public, NodeSku::new(64, 512.0), 2, 2);
    b.build()
}

/// The three test subscriptions (dense ids, one private).
pub fn subscriptions() -> Vec<Subscription> {
    vec![
        Subscription::new(
            SubscriptionId::new(0),
            CloudKind::Private,
            PartyKind::FirstParty,
        ),
        Subscription::new(
            SubscriptionId::new(1),
            CloudKind::Public,
            PartyKind::ThirdParty,
        ),
        Subscription::new(
            SubscriptionId::new(2),
            CloudKind::Public,
            PartyKind::FirstParty,
        ),
    ]
}

/// Builds one VM record plus (maybe) a telemetry series from a seed.
/// Every field — placement, lifetime, series start/length/gaps — is a
/// pure function of `(id, seed)`, covering negative starts, series
/// spilling past the trace week, missing samples, and empty series.
pub fn vm_from_seed(id: u64, seed: u64) -> (VmRecord, Option<UtilSeries>) {
    let mut s = seed;
    let cluster = (splitmix(&mut s) % 3) as u32;
    let region = u32::from(cluster == 2);
    let sub = (splitmix(&mut s) % 3) as u32;
    let node = (!splitmix(&mut s).is_multiple_of(4))
        .then(|| NodeId::new(cluster * 4 + (splitmix(&mut s) % 4) as u32));
    let created = splitmix(&mut s) as i64 % 12_000 - 2_000;
    let ended = (splitmix(&mut s).is_multiple_of(3))
        .then(|| SimTime::from_minutes(created + (splitmix(&mut s) % 9_000) as i64));
    let record = VmRecord {
        id: VmId::new(id),
        subscription: SubscriptionId::new(sub),
        service: ServiceId::new((splitmix(&mut s) % 7) as u32),
        size: VmSize::new(
            1 + (splitmix(&mut s) % 64) as u32,
            0.5 + (splitmix(&mut s) % 512) as f64,
        ),
        priority: if splitmix(&mut s).is_multiple_of(4) {
            Priority::Spot
        } else {
            Priority::OnDemand
        },
        service_model: match splitmix(&mut s) % 3 {
            0 => ServiceModel::Iaas,
            1 => ServiceModel::Paas,
            _ => ServiceModel::Saas,
        },
        region: RegionId::new(region),
        cluster: ClusterId::new(cluster),
        node,
        created: SimTime::from_minutes(created),
        ended,
    };
    let util = (!splitmix(&mut s).is_multiple_of(5)).then(|| {
        let start = created.max(-600) / 5 * 5;
        let len = (splitmix(&mut s) % 600) as usize;
        let mut vs = s;
        UtilSeries::from_percentages(
            SimTime::from_minutes(start),
            (0..len).map(move |_| {
                let v = splitmix(&mut vs);
                if v.is_multiple_of(17) {
                    f32::NAN
                } else {
                    (v % 1000) as f32 / 10.0
                }
            }),
        )
    });
    (record, util)
}

/// Builds a full trace from per-VM seeds.
pub fn trace_from_seeds(seeds: &[u64]) -> Trace {
    let mut b = Trace::builder(topology());
    for sub in subscriptions() {
        b.add_subscription(sub).unwrap();
    }
    for (id, &seed) in seeds.iter().enumerate() {
        let (vm, util) = vm_from_seed(id as u64, seed);
        b.add_vm(vm, util).unwrap();
    }
    b.build()
}

/// Writes 120 seed-built VMs to `dir` in chunks of at most 8 rows, so
/// every `(region, day)` lane spans several chunks, and returns the
/// resident trace to compare against.
pub fn write_many_chunk_store(dir: &Path) -> Trace {
    let seeds: Vec<u64> = (0..120u64)
        .map(|i| i.wrapping_mul(0x9E6C_63D0_676A_9A99) ^ 0x51)
        .collect();
    let trace = trace_from_seeds(&seeds);
    let opts = cloudscope_store::WriteOptions {
        target_chunk_rows: 8,
        target_chunk_bytes: 4096,
        level: 1,
    };
    let par = cloudscope_par::Parallelism::with_workers(2);
    cloudscope_store::write_trace(&trace, dir, opts, &par).expect("store write");
    trace
}

/// Asserts two traces are observationally identical: same topology,
/// subscriptions, records, presence, and bit-identical telemetry.
pub fn assert_traces_equal(a: &Trace, b: &Trace) {
    assert_eq!(a.topology(), b.topology(), "topology");
    assert_eq!(a.subscriptions(), b.subscriptions(), "subscriptions");
    assert_eq!(a.vms(), b.vms(), "vm records");
    for vm in a.vms() {
        assert_eq!(
            a.has_util(vm.id),
            b.has_util(vm.id),
            "presence of {}",
            vm.id
        );
        let (ua, ub) = (a.util(vm.id), b.util(vm.id));
        assert_eq!(ua, ub, "telemetry of {}", vm.id);
    }
    assert_eq!(a.stats(), b.stats(), "stats");
}

/// Reads every file in a store directory into a sorted name → bytes
/// map, for byte-identity comparisons between stores.
pub fn dir_snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read store file"),
            )
        })
        .collect();
    files.sort_by(|x, y| x.0.cmp(&y.0));
    files
}

/// The telemetry source over the store in `dir`, built the one way
/// there is: a reader plus the store's own VM records.
pub fn open_telemetry(dir: &Path, par: Parallelism) -> StoreTelemetry {
    let reader = TraceReader::open(dir).unwrap();
    let records = reader.read_vm_records(ScanFilter::all(), &par).unwrap();
    StoreTelemetry::new(&reader, &records, par).unwrap()
}
