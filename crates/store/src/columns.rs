//! Column encode/decode between model types and chunk column bytes.
//!
//! VM metadata chunks hold one fixed-width column per record field
//! (options split into a presence byte column and a value column);
//! telemetry chunks hold the run locator columns plus one variable
//! width samples column whose extents derive from the length column.
//! Everything is little-endian and bit-exact — `f64` fields travel as
//! IEEE-754 bit patterns, samples as the quantized storage bytes.

use crate::chunk::{ChunkKind, DecodedChunk, RawColumn};
use crate::error::StoreError;
use bytes::Bytes;
use cloudscope_model::durable::{Dec, Enc};
use cloudscope_model::ids::{ClusterId, NodeId, RegionId, ServiceId, SubscriptionId, VmId};
use cloudscope_model::time::SimTime;
use cloudscope_model::vm::{Priority, ServiceModel, VmRecord, VmSize};

/// Physical column ids. VM metadata and telemetry chunks use disjoint
/// namespaces (a chunk's kind disambiguates).
pub(crate) mod col {
    pub(crate) const VM_ID: u16 = 0;
    pub(crate) const VM_SUBSCRIPTION: u16 = 1;
    pub(crate) const VM_SERVICE: u16 = 2;
    pub(crate) const VM_CORES: u16 = 3;
    pub(crate) const VM_MEMORY: u16 = 4;
    pub(crate) const VM_PRIORITY: u16 = 5;
    pub(crate) const VM_SERVICE_MODEL: u16 = 6;
    pub(crate) const VM_REGION: u16 = 7;
    pub(crate) const VM_CLUSTER: u16 = 8;
    pub(crate) const VM_NODE_PRESENT: u16 = 9;
    pub(crate) const VM_NODE: u16 = 10;
    pub(crate) const VM_CREATED: u16 = 11;
    pub(crate) const VM_ENDED_PRESENT: u16 = 12;
    pub(crate) const VM_ENDED: u16 = 13;

    pub(crate) const TEL_VM_ID: u16 = 0;
    pub(crate) const TEL_START: u16 = 1;
    pub(crate) const TEL_LEN: u16 = 2;
    pub(crate) const TEL_SAMPLES: u16 = 3;
}

/// The logical columns a scan can project. `Id` is always decoded —
/// batches are meaningless without row identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// VM id (both chunk kinds).
    Id,
    /// Owning subscription.
    Subscription,
    /// Logical service.
    Service,
    /// Resource shape (cores and memory together).
    Size,
    /// Priority class.
    Priority,
    /// Service model.
    ServiceModel,
    /// Deployment region.
    Region,
    /// Placement cluster.
    Cluster,
    /// Placement node.
    Node,
    /// Creation time.
    Created,
    /// Termination time.
    Ended,
    /// Telemetry run start timestamps.
    TelemetryStart,
    /// Telemetry run sample bytes.
    TelemetrySamples,
}

/// Which logical columns a scan decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Projection {
    mask: u32,
}

impl Projection {
    /// Every column.
    #[must_use]
    pub const fn all() -> Self {
        Self { mask: u32::MAX }
    }

    /// Only the named columns (ids are always included).
    #[must_use]
    pub fn columns(cols: &[Column]) -> Self {
        let mut mask = 1u32 << Column::Id as u32;
        for &c in cols {
            mask |= 1 << c as u32;
        }
        Self { mask }
    }

    /// `true` if the projection includes `c`.
    #[must_use]
    pub fn includes(self, c: Column) -> bool {
        self.mask & (1 << c as u32) != 0
    }

    /// The physical columns to decompress for a chunk of `kind`.
    pub(crate) fn physical(self, kind: ChunkKind) -> Vec<u16> {
        let mut wanted = Vec::new();
        match kind {
            ChunkKind::VmMeta => {
                let map = [
                    (Column::Id, &[col::VM_ID][..]),
                    (Column::Subscription, &[col::VM_SUBSCRIPTION]),
                    (Column::Service, &[col::VM_SERVICE]),
                    (Column::Size, &[col::VM_CORES, col::VM_MEMORY]),
                    (Column::Priority, &[col::VM_PRIORITY]),
                    (Column::ServiceModel, &[col::VM_SERVICE_MODEL]),
                    (Column::Region, &[col::VM_REGION]),
                    (Column::Cluster, &[col::VM_CLUSTER]),
                    (Column::Node, &[col::VM_NODE_PRESENT, col::VM_NODE]),
                    (Column::Created, &[col::VM_CREATED]),
                    (Column::Ended, &[col::VM_ENDED_PRESENT, col::VM_ENDED]),
                ];
                for (logical, physical) in map {
                    if self.includes(logical) {
                        wanted.extend_from_slice(physical);
                    }
                }
            }
            ChunkKind::Telemetry => {
                wanted.push(col::TEL_VM_ID);
                if self.includes(Column::TelemetryStart) {
                    wanted.push(col::TEL_START);
                }
                if self.includes(Column::TelemetrySamples) {
                    wanted.extend_from_slice(&[col::TEL_START, col::TEL_LEN, col::TEL_SAMPLES]);
                }
                wanted.dedup();
            }
        }
        wanted
    }
}

impl Default for Projection {
    fn default() -> Self {
        Self::all()
    }
}

/// Column buffers for one open VM-metadata chunk, appended row by row.
#[derive(Debug, Default)]
pub(crate) struct VmMetaColumns {
    ids: Enc,
    subscriptions: Enc,
    services: Enc,
    cores: Enc,
    memory: Enc,
    priorities: Enc,
    service_models: Enc,
    regions: Enc,
    clusters: Enc,
    node_present: Enc,
    nodes: Enc,
    created: Enc,
    ended_present: Enc,
    ended: Enc,
    pub(crate) rows: u32,
    pub(crate) min_vm: u64,
    pub(crate) max_vm: u64,
}

impl VmMetaColumns {
    pub(crate) fn push(&mut self, vm: &VmRecord) {
        let id = vm.id.index();
        if self.rows == 0 {
            self.min_vm = id;
        }
        self.max_vm = id;
        self.rows += 1;
        self.ids.put_u64(id);
        self.subscriptions.put_u32(vm.subscription.index());
        self.services.put_u32(vm.service.index());
        self.cores.put_u32(vm.size.cores());
        self.memory.put_f64(vm.size.memory_gb());
        self.priorities.put_u8(match vm.priority {
            Priority::OnDemand => 0,
            Priority::Spot => 1,
        });
        self.service_models.put_u8(match vm.service_model {
            ServiceModel::Iaas => 0,
            ServiceModel::Paas => 1,
            ServiceModel::Saas => 2,
        });
        self.regions.put_u32(vm.region.index());
        self.clusters.put_u32(vm.cluster.index());
        self.node_present.put_u8(u8::from(vm.node.is_some()));
        self.nodes.put_u32(vm.node.map_or(0, NodeId::index));
        self.created.put_i64(vm.created.minutes());
        self.ended_present.put_u8(u8::from(vm.ended.is_some()));
        self.ended.put_i64(vm.ended.map_or(0, SimTime::minutes));
    }

    pub(crate) fn into_columns(self) -> Vec<RawColumn> {
        let raw = |id: u16, e: Enc| RawColumn {
            id,
            bytes: e.into_vec(),
        };
        vec![
            raw(col::VM_ID, self.ids),
            raw(col::VM_SUBSCRIPTION, self.subscriptions),
            raw(col::VM_SERVICE, self.services),
            raw(col::VM_CORES, self.cores),
            raw(col::VM_MEMORY, self.memory),
            raw(col::VM_PRIORITY, self.priorities),
            raw(col::VM_SERVICE_MODEL, self.service_models),
            raw(col::VM_REGION, self.regions),
            raw(col::VM_CLUSTER, self.clusters),
            raw(col::VM_NODE_PRESENT, self.node_present),
            raw(col::VM_NODE, self.nodes),
            raw(col::VM_CREATED, self.created),
            raw(col::VM_ENDED_PRESENT, self.ended_present),
            raw(col::VM_ENDED, self.ended),
        ]
    }
}

/// Column buffers for one open telemetry chunk.
#[derive(Debug, Default)]
pub(crate) struct TelemetryColumns {
    ids: Enc,
    starts: Enc,
    lens: Enc,
    samples: Enc,
    pub(crate) rows: u32,
    pub(crate) min_vm: u64,
    pub(crate) max_vm: u64,
}

impl TelemetryColumns {
    pub(crate) fn push(&mut self, id: u64, start_minute: i64, samples: &[u8]) {
        if self.rows == 0 {
            self.min_vm = id;
        }
        self.max_vm = id;
        self.rows += 1;
        self.ids.put_u64(id);
        self.starts.put_i64(start_minute);
        self.lens.put_u32(samples.len() as u32);
        self.samples.put_slice(samples);
    }

    /// Bytes buffered so far — the writer's seal threshold watches
    /// this, since sample payloads dominate.
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.samples.len() + self.ids.len() + self.starts.len() + self.lens.len()
    }

    pub(crate) fn into_columns(self) -> Vec<RawColumn> {
        let raw = |id: u16, e: Enc| RawColumn {
            id,
            bytes: e.into_vec(),
        };
        vec![
            raw(col::TEL_VM_ID, self.ids),
            raw(col::TEL_START, self.starts),
            raw(col::TEL_LEN, self.lens),
            raw(col::TEL_SAMPLES, self.samples),
        ]
    }
}

/// A decoded VM-metadata chunk with whatever columns the projection
/// asked for; unprojected columns are `None`.
#[derive(Debug)]
pub struct VmMetaBatch {
    /// The chunk's manifest name.
    pub chunk: String,
    /// Row ids, ascending.
    pub ids: Vec<VmId>,
    /// Owning subscriptions.
    pub subscriptions: Option<Vec<SubscriptionId>>,
    /// Logical services.
    pub services: Option<Vec<ServiceId>>,
    /// Resource shapes.
    pub sizes: Option<Vec<VmSize>>,
    /// Priority classes.
    pub priorities: Option<Vec<Priority>>,
    /// Service models.
    pub service_models: Option<Vec<ServiceModel>>,
    /// Deployment regions.
    pub regions: Option<Vec<RegionId>>,
    /// Placement clusters.
    pub clusters: Option<Vec<ClusterId>>,
    /// Placement nodes.
    pub nodes: Option<Vec<Option<NodeId>>>,
    /// Creation times.
    pub created: Option<Vec<SimTime>>,
    /// Termination times.
    pub ended: Option<Vec<Option<SimTime>>>,
}

impl VmMetaBatch {
    /// Reassembles full [`VmRecord`]s; requires an unprojected batch.
    ///
    /// # Errors
    /// [`StoreError::Inconsistent`] if any column was projected away.
    pub fn records(&self) -> Result<Vec<VmRecord>, StoreError> {
        let missing = || {
            StoreError::Inconsistent(format!(
                "chunk {}: records() on a projected batch",
                self.chunk
            ))
        };
        let subscriptions = self.subscriptions.as_ref().ok_or_else(missing)?;
        let services = self.services.as_ref().ok_or_else(missing)?;
        let sizes = self.sizes.as_ref().ok_or_else(missing)?;
        let priorities = self.priorities.as_ref().ok_or_else(missing)?;
        let service_models = self.service_models.as_ref().ok_or_else(missing)?;
        let regions = self.regions.as_ref().ok_or_else(missing)?;
        let clusters = self.clusters.as_ref().ok_or_else(missing)?;
        let nodes = self.nodes.as_ref().ok_or_else(missing)?;
        let created = self.created.as_ref().ok_or_else(missing)?;
        let ended = self.ended.as_ref().ok_or_else(missing)?;
        Ok((0..self.ids.len())
            .map(|i| VmRecord {
                id: self.ids[i],
                subscription: subscriptions[i],
                service: services[i],
                size: sizes[i],
                priority: priorities[i],
                service_model: service_models[i],
                region: regions[i],
                cluster: clusters[i],
                node: nodes[i],
                created: created[i],
                ended: ended[i],
            })
            .collect())
    }
}

/// A decoded telemetry chunk: one row per (VM, day) run.
#[derive(Debug)]
pub struct TelemetryBatch {
    /// The chunk's manifest name.
    pub chunk: String,
    /// The chunk's trace-week day.
    pub day: u8,
    /// Row ids, ascending.
    pub ids: Vec<VmId>,
    /// Run start times.
    pub starts: Option<Vec<SimTime>>,
    /// Run sample bytes (quantized storage representation); rows
    /// share the chunk's decoded buffer.
    pub samples: Option<Vec<Bytes>>,
}

/// A telemetry chunk's id, start and sample columns.
pub(crate) type RunColumns = (Vec<VmId>, Vec<SimTime>, Vec<Bytes>);

impl TelemetryBatch {
    /// All three columns of a batch decoded under [`Projection::all`].
    ///
    /// # Errors
    /// [`StoreError::Inconsistent`] if the start or sample column is
    /// absent.
    pub(crate) fn into_columns(self) -> Result<RunColumns, StoreError> {
        let missing =
            |column| StoreError::Inconsistent(format!("chunk {}: no {column} column", self.chunk));
        let starts = self.starts.ok_or_else(|| missing("start"))?;
        let samples = self.samples.ok_or_else(|| missing("samples"))?;
        Ok((self.ids, starts, samples))
    }
}

/// One decoded batch from a scan.
#[derive(Debug)]
pub enum Batch {
    /// A VM-metadata chunk.
    VmMeta(VmMetaBatch),
    /// A telemetry chunk.
    Telemetry(TelemetryBatch),
}

impl Batch {
    /// Rows in the batch.
    #[must_use]
    pub fn rows(&self) -> usize {
        match self {
            Batch::VmMeta(b) => b.ids.len(),
            Batch::Telemetry(b) => b.ids.len(),
        }
    }
}

/// Context for column-decode errors.
fn ctx(path: &std::path::Path, name: &str, what: &str, e: String) -> StoreError {
    StoreError::corrupt(path, name, format!("{what}: {e}"))
}

/// Decodes a fixed-width column of `rows` entries via `f`, verifying
/// the byte count matches exactly.
#[allow(clippy::too_many_arguments)] // error-context threading, not state
fn fixed_column<T>(
    path: &std::path::Path,
    name: &str,
    chunk: &DecodedChunk,
    id: u16,
    rows: usize,
    width: usize,
    what: &str,
    f: impl Fn(&mut Dec<'_>) -> Result<T, String>,
) -> Result<Option<Vec<T>>, StoreError> {
    let Some(bytes) = chunk.column(id) else {
        return Ok(None);
    };
    if bytes.len() != rows * width {
        return Err(ctx(
            path,
            name,
            what,
            format!("{} bytes for {rows} rows of width {width}", bytes.len()),
        ));
    }
    let mut d = Dec::new(bytes);
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        out.push(f(&mut d).map_err(|e| ctx(path, name, what, e))?);
    }
    Ok(Some(out))
}

/// Decodes a VM-metadata chunk into a batch.
pub(crate) fn decode_vm_meta(
    path: &std::path::Path,
    chunk: &DecodedChunk,
) -> Result<VmMetaBatch, StoreError> {
    let name = chunk.meta.name();
    let rows = chunk.meta.rows as usize;
    let ids = fixed_column(path, &name, chunk, col::VM_ID, rows, 8, "id column", |d| {
        d.take_u64().map(VmId::new)
    })?
    .ok_or_else(|| StoreError::corrupt(path, &name, "id column missing"))?;
    for win in ids.windows(2) {
        if win[1] <= win[0] {
            return Err(StoreError::corrupt(
                path,
                &name,
                format!("ids not strictly ascending: {} then {}", win[0], win[1]),
            ));
        }
    }

    let subscriptions = fixed_column(
        path,
        &name,
        chunk,
        col::VM_SUBSCRIPTION,
        rows,
        4,
        "subscription column",
        |d| d.take_u32().map(SubscriptionId::new),
    )?;
    let services = fixed_column(
        path,
        &name,
        chunk,
        col::VM_SERVICE,
        rows,
        4,
        "service column",
        |d| d.take_u32().map(ServiceId::new),
    )?;
    let cores = fixed_column(
        path,
        &name,
        chunk,
        col::VM_CORES,
        rows,
        4,
        "cores column",
        |d| d.take_u32(),
    )?;
    let memory = fixed_column(
        path,
        &name,
        chunk,
        col::VM_MEMORY,
        rows,
        8,
        "memory column",
        |d| d.take_f64(),
    )?;
    let sizes = match (cores, memory) {
        (Some(c), Some(m)) => {
            let mut sizes = Vec::with_capacity(rows);
            for (i, (&cores, &mem)) in c.iter().zip(&m).enumerate() {
                if cores == 0 || !(mem > 0.0 && mem.is_finite()) {
                    return Err(StoreError::corrupt(
                        path,
                        &name,
                        format!("row {i}: implausible size {cores}c/{mem}g"),
                    ));
                }
                sizes.push(VmSize::new(cores, mem));
            }
            Some(sizes)
        }
        _ => None,
    };
    let priorities = fixed_column(
        path,
        &name,
        chunk,
        col::VM_PRIORITY,
        rows,
        1,
        "priority column",
        |d| match d.take_u8()? {
            0 => Ok(Priority::OnDemand),
            1 => Ok(Priority::Spot),
            other => Err(format!("unknown priority tag {other}")),
        },
    )?;
    let service_models = fixed_column(
        path,
        &name,
        chunk,
        col::VM_SERVICE_MODEL,
        rows,
        1,
        "service model column",
        |d| match d.take_u8()? {
            0 => Ok(ServiceModel::Iaas),
            1 => Ok(ServiceModel::Paas),
            2 => Ok(ServiceModel::Saas),
            other => Err(format!("unknown service model tag {other}")),
        },
    )?;
    let regions = fixed_column(
        path,
        &name,
        chunk,
        col::VM_REGION,
        rows,
        4,
        "region column",
        |d| d.take_u32().map(RegionId::new),
    )?;
    let clusters = fixed_column(
        path,
        &name,
        chunk,
        col::VM_CLUSTER,
        rows,
        4,
        "cluster column",
        |d| d.take_u32().map(ClusterId::new),
    )?;
    let nodes = option_column(
        path,
        &name,
        chunk,
        (col::VM_NODE_PRESENT, col::VM_NODE, 4),
        rows,
        "node column",
        |d| d.take_u32().map(NodeId::new),
    )?;
    let created = fixed_column(
        path,
        &name,
        chunk,
        col::VM_CREATED,
        rows,
        8,
        "created column",
        |d| d.take_i64().map(SimTime::from_minutes),
    )?;
    let ended = option_column(
        path,
        &name,
        chunk,
        (col::VM_ENDED_PRESENT, col::VM_ENDED, 8),
        rows,
        "ended column",
        |d| d.take_i64().map(SimTime::from_minutes),
    )?;

    Ok(VmMetaBatch {
        chunk: name,
        ids,
        subscriptions,
        services,
        sizes,
        priorities,
        service_models,
        regions,
        clusters,
        nodes,
        created,
        ended,
    })
}

/// Decodes a presence-byte + value column pair into `Vec<Option<T>>`.
fn option_column<T>(
    path: &std::path::Path,
    name: &str,
    chunk: &DecodedChunk,
    (present_id, value_id, width): (u16, u16, usize),
    rows: usize,
    what: &str,
    f: impl Fn(&mut Dec<'_>) -> Result<T, String>,
) -> Result<Option<Vec<Option<T>>>, StoreError> {
    let present = fixed_column(path, name, chunk, present_id, rows, 1, what, |d| {
        match d.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("presence byte {other}")),
        }
    })?;
    let values = fixed_column(path, name, chunk, value_id, rows, width, what, f)?;
    match (present, values) {
        (Some(p), Some(v)) => Ok(Some(
            p.into_iter()
                .zip(v)
                .map(|(is_present, value)| is_present.then_some(value))
                .collect(),
        )),
        _ => Ok(None),
    }
}

/// Decodes a telemetry chunk into a batch. Sample rows slice one
/// shared buffer — the chunk's decoded samples column, adopted, so a
/// decoded chunk costs one allocation.
pub(crate) fn decode_telemetry(
    path: &std::path::Path,
    mut chunk: DecodedChunk,
) -> Result<TelemetryBatch, StoreError> {
    let name = chunk.meta.name();
    let rows = chunk.meta.rows as usize;
    let ids = fixed_column(
        path,
        &name,
        &chunk,
        col::TEL_VM_ID,
        rows,
        8,
        "id column",
        |d| d.take_u64().map(VmId::new),
    )?
    .ok_or_else(|| StoreError::corrupt(path, &name, "id column missing"))?;
    for win in ids.windows(2) {
        if win[1] <= win[0] {
            return Err(StoreError::corrupt(
                path,
                &name,
                format!("ids not strictly ascending: {} then {}", win[0], win[1]),
            ));
        }
    }
    let starts = fixed_column(
        path,
        &name,
        &chunk,
        col::TEL_START,
        rows,
        8,
        "start column",
        |d| d.take_i64().map(SimTime::from_minutes),
    )?;
    let lens = fixed_column(
        path,
        &name,
        &chunk,
        col::TEL_LEN,
        rows,
        4,
        "length column",
        |d| d.take_u32(),
    )?;
    let samples = match (&lens, chunk.take_column(col::TEL_SAMPLES)) {
        (Some(lens), Some(bytes)) => {
            let total: u64 = lens.iter().map(|&l| u64::from(l)).sum();
            if total != bytes.len() as u64 {
                return Err(StoreError::corrupt(
                    path,
                    &name,
                    format!(
                        "length column sums to {total} but samples column holds {}",
                        bytes.len()
                    ),
                ));
            }
            let shared = Bytes::from(bytes);
            let mut out = Vec::with_capacity(rows);
            let mut offset = 0usize;
            for &len in lens {
                let len = len as usize;
                out.push(shared.slice(offset..offset + len));
                offset += len;
            }
            Some(out)
        }
        _ => None,
    };

    Ok(TelemetryBatch {
        chunk: name,
        day: chunk.meta.day,
        ids,
        starts,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{decode_chunk_file, encode_chunk_file, ChunkMeta};
    use std::path::Path;

    fn vm(id: u64, node: Option<u32>, ended: Option<i64>) -> VmRecord {
        VmRecord {
            id: VmId::new(id),
            subscription: SubscriptionId::new(3),
            service: ServiceId::new(9),
            size: VmSize::new(4, 16.5),
            priority: Priority::Spot,
            service_model: ServiceModel::Paas,
            region: RegionId::new(1),
            cluster: ClusterId::new(2),
            node: node.map(NodeId::new),
            created: SimTime::from_minutes(-30),
            ended: ended.map(SimTime::from_minutes),
        }
    }

    #[test]
    fn vm_meta_roundtrip_and_projection() {
        let records = vec![vm(5, Some(8), None), vm(9, None, Some(400))];
        let mut cols = VmMetaColumns::default();
        for r in &records {
            cols.push(r);
        }
        let meta = ChunkMeta {
            kind: ChunkKind::VmMeta,
            region: 1,
            day: 0,
            seq: 0,
            rows: cols.rows,
            min_vm: cols.min_vm,
            max_vm: cols.max_vm,
        };
        let (file, _) = encode_chunk_file(&meta, &cols.into_columns(), 2);
        let p = Path::new("t.chunk");

        let full = decode_chunk_file(p, "t", &file, None, None, true).unwrap();
        let batch = decode_vm_meta(p, &full).unwrap();
        assert_eq!(batch.records().unwrap(), records);

        let proj = Projection::columns(&[Column::Created]);
        let wanted = proj.physical(ChunkKind::VmMeta);
        let partial = decode_chunk_file(p, "t", &file, Some(&wanted), None, true).unwrap();
        let batch = decode_vm_meta(p, &partial).unwrap();
        assert_eq!(batch.ids, vec![VmId::new(5), VmId::new(9)]);
        assert_eq!(
            batch.created.as_deref(),
            Some(&[SimTime::from_minutes(-30), SimTime::from_minutes(-30)][..])
        );
        assert!(batch.nodes.is_none());
        assert!(batch.records().is_err(), "projected batch lacks columns");
    }

    #[test]
    fn telemetry_roundtrip_slices_shared_buffer() {
        let mut cols = TelemetryColumns::default();
        cols.push(2, 0, &[1, 2, 3]);
        cols.push(7, 1440, &[9, 9]);
        let meta = ChunkMeta {
            kind: ChunkKind::Telemetry,
            region: 0,
            day: 1,
            seq: 0,
            rows: cols.rows,
            min_vm: cols.min_vm,
            max_vm: cols.max_vm,
        };
        let (file, _) = encode_chunk_file(&meta, &cols.into_columns(), 1);
        let p = Path::new("t.chunk");
        let decoded = decode_chunk_file(p, "t", &file, None, None, true).unwrap();
        let batch = decode_telemetry(p, decoded).unwrap();
        assert_eq!(batch.ids, vec![VmId::new(2), VmId::new(7)]);
        let samples = batch.samples.unwrap();
        assert_eq!(&*samples[0], &[1, 2, 3]);
        assert_eq!(&*samples[1], &[9, 9]);
        assert_eq!(
            batch.starts.unwrap(),
            vec![SimTime::ZERO, SimTime::from_minutes(1440)]
        );
    }

    #[test]
    fn unsorted_ids_are_rejected() {
        let mut cols = TelemetryColumns::default();
        cols.push(7, 0, &[1]);
        cols.push(2, 0, &[1]);
        let meta = ChunkMeta {
            kind: ChunkKind::Telemetry,
            region: 0,
            day: 0,
            seq: 0,
            rows: 2,
            min_vm: 7,
            max_vm: 2,
        };
        let (file, _) = encode_chunk_file(&meta, &cols.into_columns(), 0);
        let p = Path::new("t.chunk");
        let decoded = decode_chunk_file(p, "t", &file, None, None, true).unwrap();
        assert!(decode_telemetry(p, decoded).is_err());
    }
}
