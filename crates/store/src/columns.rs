//! Column encode/decode between model types and chunk column bytes.
//!
//! VM metadata chunks hold one fixed-width column per record field
//! (options split into a presence byte column and a value column);
//! telemetry chunks hold the run locator columns plus one variable
//! width samples column whose extents derive from the length column.
//! Everything is little-endian and bit-exact — `f64` fields travel as
//! IEEE-754 bit patterns, samples as the quantized storage bytes.

use crate::chunk::{DecodedChunk, RawColumn};
use crate::error::StoreError;
use bytes::Bytes;
use cloudscope_model::durable::{Dec, Enc};
use cloudscope_model::ids::{ClusterId, NodeId, RegionId, ServiceId, SubscriptionId, VmId};
use cloudscope_model::time::SimTime;
use cloudscope_model::vm::{Priority, ServiceModel, VmRecord, VmSize};
use std::path::Path;

/// Physical column ids. Past the shared id column, VM metadata and
/// telemetry chunks use disjoint namespaces (a chunk's kind
/// disambiguates).
pub(crate) mod col {
    /// VM id, in both kinds: the one column an ids-only read
    /// decompresses.
    pub(crate) const ID: u16 = 0;
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

    pub(crate) const TEL_START: u16 = 1;
    pub(crate) const TEL_LEN: u16 = 2;
    pub(crate) const TEL_SAMPLES: u16 = 3;
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
            raw(col::ID, self.ids),
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
        self.samples.as_slice().len()
            + self.ids.as_slice().len()
            + self.starts.as_slice().len()
            + self.lens.as_slice().len()
    }

    pub(crate) fn into_columns(self) -> Vec<RawColumn> {
        let raw = |id: u16, e: Enc| RawColumn {
            id,
            bytes: e.into_vec(),
        };
        vec![
            raw(col::ID, self.ids),
            raw(col::TEL_START, self.starts),
            raw(col::TEL_LEN, self.lens),
            raw(col::TEL_SAMPLES, self.samples),
        ]
    }
}

/// A telemetry chunk's id, start and sample columns.
pub(crate) type RunColumns = (Vec<VmId>, Vec<SimTime>, Vec<Bytes>);

/// One decoded chunk's columns, with the context every column-decode
/// error names.
struct Columns<'a> {
    path: &'a Path,
    name: String,
    chunk: &'a DecodedChunk,
    rows: usize,
}

impl<'a> Columns<'a> {
    fn new(path: &'a Path, chunk: &'a DecodedChunk) -> Self {
        Self {
            path,
            name: chunk.meta.name(),
            chunk,
            rows: chunk.meta.rows as usize,
        }
    }

    fn corrupt(&self, reason: String) -> StoreError {
        StoreError::corrupt(self.path, &self.name, reason)
    }

    /// Decodes the fixed-width column `id` of `rows` entries via `f`,
    /// verifying the byte count matches exactly.
    fn fixed<T>(
        &self,
        id: u16,
        width: usize,
        what: &str,
        f: impl Fn(&mut Dec<'_>) -> Result<T, String>,
    ) -> Result<Vec<T>, StoreError> {
        let bytes = self
            .chunk
            .column(id)
            .ok_or_else(|| self.corrupt(format!("{what} missing")))?;
        if bytes.len() != self.rows * width {
            return Err(self.corrupt(format!(
                "{what}: {} bytes for {} rows of width {width}",
                bytes.len(),
                self.rows
            )));
        }
        let mut d = Dec::new(bytes);
        let mut out = Vec::with_capacity(self.rows);
        for _ in 0..self.rows {
            out.push(f(&mut d).map_err(|e| self.corrupt(format!("{what}: {e}")))?);
        }
        Ok(out)
    }

    /// Decodes a presence-byte + value column pair.
    fn optional<T>(
        &self,
        (present_id, value_id, width): (u16, u16, usize),
        what: &str,
        f: impl Fn(&mut Dec<'_>) -> Result<T, String>,
    ) -> Result<Vec<Option<T>>, StoreError> {
        let present = self.fixed(present_id, 1, what, |d| match d.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("presence byte {other}")),
        })?;
        let values = self.fixed(value_id, width, what, f)?;
        Ok(present
            .into_iter()
            .zip(values)
            .map(|(is_present, value)| is_present.then_some(value))
            .collect())
    }

    /// The id column: strictly ascending, from the header's `min_vm`
    /// to its `max_vm` — the range the manifest indexes the chunk by.
    fn ids(&self) -> Result<Vec<VmId>, StoreError> {
        let ids = self.fixed(col::ID, 8, "id column", |d| d.take_u64().map(VmId::new))?;
        if let Some(pair) = ids.windows(2).find(|pair| pair[1] <= pair[0]) {
            return Err(self.corrupt(format!(
                "ids not strictly ascending: {} then {}",
                pair[0], pair[1]
            )));
        }
        let meta = &self.chunk.meta;
        if let (Some(first), Some(last)) = (ids.first(), ids.last()) {
            if (first.index(), last.index()) != (meta.min_vm, meta.max_vm) {
                return Err(self.corrupt(format!(
                    "ids run {} to {} but the header says {} to {}",
                    first.index(),
                    last.index(),
                    meta.min_vm,
                    meta.max_vm
                )));
            }
        }
        Ok(ids)
    }
}

/// Decodes the id column of a chunk of either kind.
pub(crate) fn decode_ids(path: &Path, chunk: DecodedChunk) -> Result<Vec<VmId>, StoreError> {
    Columns::new(path, &chunk).ids()
}

/// Decodes a VM-metadata chunk into its records, in id order.
pub(crate) fn decode_vm_meta(
    path: &Path,
    chunk: DecodedChunk,
) -> Result<Vec<VmRecord>, StoreError> {
    let c = Columns::new(path, &chunk);
    let ids = c.ids()?;
    let subscriptions = c.fixed(col::VM_SUBSCRIPTION, 4, "subscription column", |d| {
        d.take_u32().map(SubscriptionId::new)
    })?;
    let services = c.fixed(col::VM_SERVICE, 4, "service column", |d| {
        d.take_u32().map(ServiceId::new)
    })?;
    let cores = c.fixed(col::VM_CORES, 4, "cores column", |d| d.take_u32())?;
    let memory = c.fixed(col::VM_MEMORY, 8, "memory column", |d| d.take_f64())?;
    let priorities = c.fixed(col::VM_PRIORITY, 1, "priority column", |d| {
        match d.take_u8()? {
            0 => Ok(Priority::OnDemand),
            1 => Ok(Priority::Spot),
            other => Err(format!("unknown priority tag {other}")),
        }
    })?;
    let service_models = c.fixed(
        col::VM_SERVICE_MODEL,
        1,
        "service model column",
        |d| match d.take_u8()? {
            0 => Ok(ServiceModel::Iaas),
            1 => Ok(ServiceModel::Paas),
            2 => Ok(ServiceModel::Saas),
            other => Err(format!("unknown service model tag {other}")),
        },
    )?;
    let regions = c.fixed(col::VM_REGION, 4, "region column", |d| {
        d.take_u32().map(RegionId::new)
    })?;
    let clusters = c.fixed(col::VM_CLUSTER, 4, "cluster column", |d| {
        d.take_u32().map(ClusterId::new)
    })?;
    let nodes = c.optional(
        (col::VM_NODE_PRESENT, col::VM_NODE, 4),
        "node column",
        |d| d.take_u32().map(NodeId::new),
    )?;
    let created = c.fixed(col::VM_CREATED, 8, "created column", |d| {
        d.take_i64().map(SimTime::from_minutes)
    })?;
    let ended = c.optional(
        (col::VM_ENDED_PRESENT, col::VM_ENDED, 8),
        "ended column",
        |d| d.take_i64().map(SimTime::from_minutes),
    )?;

    let mut records = Vec::with_capacity(ids.len());
    for (i, id) in ids.into_iter().enumerate() {
        let (cores, mem) = (cores[i], memory[i]);
        if cores == 0 || !(mem > 0.0 && mem.is_finite()) {
            return Err(c.corrupt(format!("row {i}: implausible size {cores}c/{mem}g")));
        }
        records.push(VmRecord {
            id,
            subscription: subscriptions[i],
            service: services[i],
            size: VmSize::new(cores, mem),
            priority: priorities[i],
            service_model: service_models[i],
            region: regions[i],
            cluster: clusters[i],
            node: nodes[i],
            created: created[i],
            ended: ended[i],
        });
    }
    Ok(records)
}

/// Decodes a telemetry chunk into its run columns. Sample rows slice
/// one shared buffer — the chunk's decoded samples column, adopted, so
/// a decoded chunk costs one allocation.
pub(crate) fn decode_telemetry(
    path: &Path,
    mut chunk: DecodedChunk,
) -> Result<RunColumns, StoreError> {
    let bytes = chunk.take_column(col::TEL_SAMPLES);
    let c = Columns::new(path, &chunk);
    let ids = c.ids()?;
    let starts = c.fixed(col::TEL_START, 8, "start column", |d| {
        d.take_i64().map(SimTime::from_minutes)
    })?;
    let lens = c.fixed(col::TEL_LEN, 4, "length column", |d| d.take_u32())?;
    let bytes = bytes.ok_or_else(|| c.corrupt("samples column missing".into()))?;
    let total: u64 = lens.iter().map(|&l| u64::from(l)).sum();
    if total != bytes.len() as u64 {
        return Err(c.corrupt(format!(
            "length column sums to {total} but samples column holds {}",
            bytes.len()
        )));
    }
    let shared = Bytes::from(bytes);
    let mut samples = Vec::with_capacity(lens.len());
    let mut offset = 0usize;
    for len in lens {
        let len = len as usize;
        samples.push(shared.slice(offset..offset + len));
        offset += len;
    }
    Ok((ids, starts, samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{decode_chunk_file, encode_chunk_file, ChunkKind, ChunkMeta};

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

    fn records() -> Vec<VmRecord> {
        vec![vm(5, Some(8), None), vm(9, None, Some(400))]
    }

    /// A CRC-valid metadata chunk file of `records`, its raw columns
    /// edited by `edit` before they are compressed.
    fn meta_file(records: &[VmRecord], edit: impl FnOnce(&mut [RawColumn])) -> Vec<u8> {
        let mut cols = VmMetaColumns::default();
        for r in records {
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
        let mut raw = cols.into_columns();
        edit(&mut raw);
        encode_chunk_file(&meta, &raw, 2).0
    }

    fn decode_meta(file: &[u8]) -> Result<Vec<VmRecord>, StoreError> {
        let p = Path::new("t.chunk");
        decode_vm_meta(
            p,
            decode_chunk_file(p, "t", file, None, None, true).unwrap(),
        )
    }

    /// The raw bytes of column `id`.
    fn column(raw: &mut [RawColumn], id: u16) -> &mut Vec<u8> {
        &mut raw.iter_mut().find(|c| c.id == id).expect("column").bytes
    }

    /// Decodes `records` with one column edited, expecting the typed
    /// corruption whose reason contains `reason`.
    fn assert_rejected(records: &[VmRecord], edit: impl FnOnce(&mut [RawColumn]), reason: &str) {
        match decode_meta(&meta_file(records, edit)) {
            Err(StoreError::Corrupt { reason: got, .. }) => {
                assert!(got.contains(reason), "expected {reason:?}, got {got:?}");
            }
            other => panic!("expected Corrupt ({reason}), got {other:?}"),
        }
    }

    #[test]
    fn vm_meta_roundtrip_and_projection() {
        let records = records();
        let file = meta_file(&records, |_| {});
        assert_eq!(decode_meta(&file).unwrap(), records);

        // An ids-only read decompresses the id column alone; records
        // cannot be built from it.
        let p = Path::new("t.chunk");
        let ids_only = || decode_chunk_file(p, "t", &file, Some(&[col::ID]), None, true).unwrap();
        assert_eq!(
            decode_ids(p, ids_only()).unwrap(),
            vec![VmId::new(5), VmId::new(9)]
        );
        let err = decode_vm_meta(p, ids_only()).unwrap_err();
        assert!(err.to_string().contains("column missing"), "{err}");
    }

    #[test]
    fn implausible_sizes_are_rejected() {
        assert_rejected(
            &records(),
            |raw| column(raw, col::VM_CORES)[4..8].copy_from_slice(&0u32.to_le_bytes()),
            "row 1: implausible size 0c",
        );
        for mem in [0.0, -2.0, f64::NAN, f64::INFINITY] {
            assert_rejected(
                &records(),
                |raw| column(raw, col::VM_MEMORY)[..8].copy_from_slice(&mem.to_le_bytes()),
                "row 0: implausible size",
            );
        }
    }

    #[test]
    fn unknown_priority_tags_are_rejected() {
        assert_rejected(
            &records(),
            |raw| column(raw, col::VM_PRIORITY)[1] = 2,
            "priority column: unknown priority tag 2",
        );
    }

    #[test]
    fn unknown_service_model_tags_are_rejected() {
        assert_rejected(
            &records(),
            |raw| column(raw, col::VM_SERVICE_MODEL)[0] = 3,
            "service model column: unknown service model tag 3",
        );
    }

    #[test]
    fn presence_bytes_other_than_zero_or_one_are_rejected() {
        for (present, what) in [
            (col::VM_NODE_PRESENT, "node column"),
            (col::VM_ENDED_PRESENT, "ended column"),
        ] {
            assert_rejected(
                &records(),
                |raw| column(raw, present)[0] = 2,
                &format!("{what}: presence byte 2"),
            );
        }
    }

    #[test]
    fn column_byte_counts_must_match_rows_times_width() {
        assert_rejected(
            &records(),
            |raw| {
                column(raw, col::VM_CLUSTER).pop();
            },
            "cluster column: 7 bytes for 2 rows of width 4",
        );
        assert_rejected(
            &records(),
            |raw| column(raw, col::VM_PRIORITY).push(0),
            "priority column: 3 bytes for 2 rows of width 1",
        );
    }

    #[test]
    fn metadata_ids_must_ascend_strictly() {
        let descending = [vm(9, None, None), vm(5, None, None)];
        assert_rejected(
            &descending,
            |_| {},
            "ids not strictly ascending: vm-9 then vm-5",
        );
        let repeated = [vm(5, None, None), vm(5, None, None)];
        assert_rejected(
            &repeated,
            |_| {},
            "ids not strictly ascending: vm-5 then vm-5",
        );
    }

    #[test]
    fn ids_must_span_the_header_range() {
        // Ascending ids the header's `max_vm` does not cover: a lane
        // lookup by the manifest range would never find vm 12.
        assert_rejected(
            &records(),
            |raw| column(raw, col::ID)[8..].copy_from_slice(&12u64.to_le_bytes()),
            "ids run 5 to 12 but the header says 5 to 9",
        );
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
        let (ids, starts, samples) = decode_telemetry(p, decoded).unwrap();
        assert_eq!(ids, vec![VmId::new(2), VmId::new(7)]);
        assert_eq!(&*samples[0], &[1, 2, 3]);
        assert_eq!(&*samples[1], &[9, 9]);
        assert_eq!(starts, vec![SimTime::ZERO, SimTime::from_minutes(1440)]);
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
