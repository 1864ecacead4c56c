//! Codecs for the manifest's non-columnar blobs: the platform
//! topology, the subscription population, and the telemetry presence
//! bitmap.
//!
//! The topology is stored as a builder replay — the region, datacenter
//! and cluster-shape sequence that produced it. [`TopologyBuilder`]
//! assigns ids densely in insertion order and clusters are uniform
//! `racks × nodes_per_rack` grids, so replaying the sequence rebuilds
//! the exact same structure (verified by `PartialEq` in tests).

use crate::error::StoreError;
use cloudscope_model::durable::{Dec, Enc};
use cloudscope_model::ids::{DatacenterId, SubscriptionId};
use cloudscope_model::subscription::{CloudKind, PartyKind, Subscription};
use cloudscope_model::topology::{NodeSku, Topology};
use std::path::Path;

/// Blob name for the topology replay.
pub const BLOB_TOPOLOGY: &str = "topology";
/// Blob name for the subscription table.
pub const BLOB_SUBSCRIPTIONS: &str = "subscriptions";
/// Blob name for the telemetry presence bitmap.
pub const BLOB_TELEMETRY_PRESENT: &str = "telemetry_present";

fn cloud_tag(c: CloudKind) -> u8 {
    match c {
        CloudKind::Private => 0,
        CloudKind::Public => 1,
    }
}

fn cloud_from_tag(t: u8) -> Result<CloudKind, String> {
    match t {
        0 => Ok(CloudKind::Private),
        1 => Ok(CloudKind::Public),
        other => Err(format!("unknown cloud tag {other}")),
    }
}

/// Serializes a topology as its builder replay.
///
/// # Errors
/// [`StoreError::Inconsistent`] naming the region whose name or geo is
/// longer than the format's 16-bit string length can hold.
pub fn encode_topology(t: &Topology) -> Result<Vec<u8>, StoreError> {
    let mut e = Enc::with_capacity(256);
    e.put_u32(t.regions().len() as u32);
    for r in t.regions() {
        for (field, value) in [("name", &r.name), ("geo", &r.geo)] {
            if u16::try_from(value.len()).is_err() {
                return Err(StoreError::Inconsistent(format!(
                    "region {} {field} is {} bytes, over the {} a stored string holds",
                    r.id,
                    value.len(),
                    u16::MAX
                )));
            }
        }
        e.put_str(&r.name);
        e.put_i64(i64::from(r.tz_offset_hours));
        e.put_str(&r.geo);
    }
    e.put_u32(t.datacenters().len() as u32);
    for d in t.datacenters() {
        e.put_u32(d.region.index());
    }
    e.put_u32(t.clusters().len() as u32);
    for c in t.clusters() {
        e.put_u32(c.datacenter.index());
        e.put_u8(cloud_tag(c.cloud));
        e.put_u32(c.sku.cores);
        e.put_f64(c.sku.memory_gb);
        e.put_u32(c.racks.len() as u32);
        // Clusters are uniform grids; the builder takes nodes-per-rack.
        e.put_u32((c.nodes.len() / c.racks.len()) as u32);
    }
    Ok(e.into_vec())
}

/// Rebuilds a topology from its builder replay.
pub fn decode_topology(path: &Path, bytes: &[u8]) -> Result<Topology, StoreError> {
    let fail = |e: String| StoreError::malformed(path, format!("topology blob: {e}"));
    let mut d = Dec::new(bytes);
    let mut b = Topology::builder();
    let region_count = d.take_u32().map_err(&fail)? as usize;
    if region_count > bytes.len() {
        return Err(fail(format!("region count {region_count} impossible")));
    }
    for _ in 0..region_count {
        let name = d.take_str().map_err(&fail)?;
        let tz = d.take_i64().map_err(&fail)?;
        let tz = i32::try_from(tz).map_err(|_| fail(format!("tz offset {tz} out of range")))?;
        let geo = d.take_str().map_err(&fail)?;
        b.add_region(name, tz, geo);
    }
    let dc_count = d.take_u32().map_err(&fail)? as usize;
    if dc_count > bytes.len() {
        return Err(fail(format!("datacenter count {dc_count} impossible")));
    }
    for i in 0..dc_count {
        let region = d.take_u32().map_err(&fail)?;
        if region as usize >= region_count {
            return Err(fail(format!("datacenter {i} references region {region}")));
        }
        b.add_datacenter(region.into());
    }
    let cluster_count = d.take_u32().map_err(&fail)? as usize;
    if cluster_count > bytes.len() {
        return Err(fail(format!("cluster count {cluster_count} impossible")));
    }
    for i in 0..cluster_count {
        let dc = d.take_u32().map_err(&fail)?;
        if dc as usize >= dc_count {
            return Err(fail(format!("cluster {i} references datacenter {dc}")));
        }
        let cloud = cloud_from_tag(d.take_u8().map_err(&fail)?).map_err(&fail)?;
        let cores = d.take_u32().map_err(&fail)?;
        let memory_gb = d.take_f64().map_err(&fail)?;
        if cores == 0 || !(memory_gb > 0.0 && memory_gb.is_finite()) {
            return Err(fail(format!(
                "cluster {i} has implausible SKU {cores}c/{memory_gb}g"
            )));
        }
        let racks = d.take_u32().map_err(&fail)? as usize;
        let nodes_per_rack = d.take_u32().map_err(&fail)? as usize;
        if racks == 0 || nodes_per_rack == 0 || racks.saturating_mul(nodes_per_rack) > (1 << 28) {
            return Err(fail(format!(
                "cluster {i} has implausible shape {racks}x{nodes_per_rack}"
            )));
        }
        b.add_cluster(
            DatacenterId::new(dc),
            cloud,
            NodeSku::new(cores, memory_gb),
            racks,
            nodes_per_rack,
        );
    }
    if d.remaining() != 0 {
        return Err(fail(format!("{} trailing bytes", d.remaining())));
    }
    Ok(b.build())
}

/// Serializes the subscription table.
#[must_use]
pub fn encode_subscriptions(subs: &[Subscription]) -> Vec<u8> {
    let mut e = Enc::with_capacity(4 + subs.len() * 2);
    e.put_u32(subs.len() as u32);
    for s in subs {
        e.put_u8(cloud_tag(s.cloud));
        e.put_u8(match s.party {
            PartyKind::FirstParty => 0,
            PartyKind::ThirdParty => 1,
        });
    }
    e.into_vec()
}

/// Rebuilds the subscription table (ids are dense, so only the
/// cloud/party tags travel).
pub fn decode_subscriptions(path: &Path, bytes: &[u8]) -> Result<Vec<Subscription>, StoreError> {
    let fail = |e: String| StoreError::malformed(path, format!("subscriptions blob: {e}"));
    let mut d = Dec::new(bytes);
    let count = d.take_u32().map_err(&fail)? as usize;
    if d.remaining() != count * 2 {
        return Err(fail(format!(
            "{} bytes for {count} subscriptions",
            d.remaining()
        )));
    }
    let mut subs = Vec::with_capacity(count);
    for i in 0..count {
        let cloud = cloud_from_tag(d.take_u8().map_err(&fail)?).map_err(&fail)?;
        let party = match d.take_u8().map_err(&fail)? {
            0 => PartyKind::FirstParty,
            1 => PartyKind::ThirdParty,
            other => return Err(fail(format!("subscription {i}: unknown party tag {other}"))),
        };
        if cloud == CloudKind::Private && party == PartyKind::ThirdParty {
            return Err(fail(format!(
                "subscription {i}: third-party in the private cloud"
            )));
        }
        subs.push(Subscription::new(
            SubscriptionId::new(i as u32),
            cloud,
            party,
        ));
    }
    Ok(subs)
}

/// Packs the per-VM telemetry presence flags into a bitmap.
#[must_use]
pub(crate) fn encode_presence(present: &[bool]) -> Vec<u8> {
    let mut e = Enc::with_capacity(8 + present.len() / 8 + 1);
    e.put_u64(present.len() as u64);
    let mut byte = 0u8;
    for (i, &p) in present.iter().enumerate() {
        if p {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            e.put_u8(byte);
            byte = 0;
        }
    }
    if !present.len().is_multiple_of(8) {
        e.put_u8(byte);
    }
    e.into_vec()
}

/// Unpacks the presence bitmap.
pub(crate) fn decode_presence(path: &Path, bytes: &[u8]) -> Result<Vec<bool>, StoreError> {
    let fail = |e: String| StoreError::malformed(path, format!("presence blob: {e}"));
    let mut d = Dec::new(bytes);
    let count = d.take_u64().map_err(&fail)? as usize;
    let expected = count.div_ceil(8);
    if d.remaining() != expected {
        return Err(fail(format!(
            "{} bitmap bytes for {count} VMs (expected {expected})",
            d.remaining()
        )));
    }
    let bits = d.take_slice(expected).map_err(&fail)?;
    Ok((0..count)
        .map(|i| bits[i / 8] & (1 << (i % 8)) != 0)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_topology() -> Topology {
        let mut b = Topology::builder();
        let r0 = b.add_region("us-west", -8, "US");
        let r1 = b.add_region("eu-north", 1, "EU");
        let d0 = b.add_datacenter(r0);
        let d1 = b.add_datacenter(r1);
        b.add_cluster(d0, CloudKind::Private, NodeSku::new(48, 384.0), 2, 4);
        b.add_cluster(d0, CloudKind::Public, NodeSku::new(64, 512.5), 3, 2);
        b.add_cluster(d1, CloudKind::Public, NodeSku::new(64, 512.5), 1, 2);
        b.build()
    }

    #[test]
    fn topology_replay_is_exact() {
        let t = sample_topology();
        let bytes = encode_topology(&t).unwrap();
        let back = decode_topology(Path::new("m"), &bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn topology_truncations_error() {
        let bytes = encode_topology(&sample_topology()).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode_topology(Path::new("m"), &bytes[..cut]).is_err(),
                "truncation to {cut} accepted"
            );
        }
    }

    #[test]
    fn subscriptions_roundtrip_and_reject_invalid() {
        let subs = vec![
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
        ];
        let bytes = encode_subscriptions(&subs);
        let back = decode_subscriptions(Path::new("m"), &bytes).unwrap();
        assert_eq!(back, subs);
        // private + third-party must be rejected, not panic.
        let mut evil = bytes.clone();
        evil[6] = 0; // cloud of sub 1 -> private (party stays third-party)
        assert!(decode_subscriptions(Path::new("m"), &evil).is_err());
    }

    #[test]
    fn presence_roundtrip_all_lengths() {
        for len in 0..20usize {
            let present: Vec<bool> = (0..len).map(|i| i % 3 == 0).collect();
            let bytes = encode_presence(&present);
            assert_eq!(decode_presence(Path::new("m"), &bytes).unwrap(), present);
        }
        assert!(decode_presence(Path::new("m"), &[1, 2]).is_err());
    }
}
