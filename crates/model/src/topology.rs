//! Physical topology: regions → datacenters → clusters → racks → nodes.
//!
//! Clusters contain thousands of nodes with identical SKU configurations;
//! racks serve as fault domains. The topology is immutable once built; the
//! allocation service tracks mutable capacity separately.

use crate::error::ModelError;
use crate::ids::{ClusterId, DatacenterId, NodeId, RackId, RegionId};
use crate::subscription::CloudKind;
use serde::{Deserialize, Serialize};

/// A geographic region: one or more datacenters sharing a geo-location and
/// a time zone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Unique identifier.
    pub id: RegionId,
    /// Human-readable name (e.g. `us-west-2`).
    pub name: String,
    /// Offset from UTC in whole hours; drives local-wall-clock analyses.
    pub tz_offset_hours: i32,
    /// Country/geography tag, used e.g. to restrict cross-region studies to
    /// US regions as the paper does.
    pub geo: String,
}

/// A datacenter within a region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Datacenter {
    /// Unique identifier.
    pub id: DatacenterId,
    /// Region the datacenter sits in.
    pub region: RegionId,
}

/// The hardware SKU every node of a cluster shares.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSku {
    /// Physical cores per node.
    pub cores: u32,
    /// Memory per node in GiB.
    pub memory_gb: f64,
}

impl NodeSku {
    /// Creates a node SKU.
    ///
    /// # Panics
    /// Panics if `cores` is zero or memory non-positive.
    #[must_use]
    pub fn new(cores: u32, memory_gb: f64) -> Self {
        assert!(cores > 0, "node SKU must have cores");
        assert!(memory_gb > 0.0, "node SKU must have memory");
        Self { cores, memory_gb }
    }
}

/// A cluster: a set of racks of identical nodes, dedicated to one cloud.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Unique identifier.
    pub id: ClusterId,
    /// Datacenter housing the cluster.
    pub datacenter: DatacenterId,
    /// Region (denormalized for cheap lookups).
    pub region: RegionId,
    /// Which cloud platform the cluster serves.
    pub cloud: CloudKind,
    /// Hardware SKU of every node in the cluster.
    pub sku: NodeSku,
    /// Racks in this cluster, in id order.
    pub racks: Vec<RackId>,
    /// Nodes in this cluster, in id order.
    pub nodes: Vec<NodeId>,
}

impl Cluster {
    /// Total physical cores across the cluster.
    #[must_use]
    pub fn total_cores(&self) -> u64 {
        self.nodes.len() as u64 * u64::from(self.sku.cores)
    }
}

/// A physical node (server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Unique identifier.
    pub id: NodeId,
    /// Cluster the node belongs to.
    pub cluster: ClusterId,
    /// Rack (fault domain) the node is stacked in.
    pub rack: RackId,
}

/// Immutable description of the whole simulated platform.
///
/// Build one with [`TopologyBuilder`]; entity vectors are indexed by the
/// dense ids handed out at build time.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Topology {
    regions: Vec<Region>,
    datacenters: Vec<Datacenter>,
    clusters: Vec<Cluster>,
    nodes: Vec<Node>,
    racks_per_cluster: Vec<usize>,
}

impl Topology {
    /// Starts building a topology.
    #[must_use]
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// All regions in id order.
    #[must_use]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// All clusters in id order.
    #[must_use]
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// All datacenters in id order.
    #[must_use]
    pub fn datacenters(&self) -> &[Datacenter] {
        &self.datacenters
    }

    /// Looks up a cluster.
    ///
    /// # Errors
    /// Returns [`ModelError::UnknownEntity`] if the id was not built here.
    pub fn cluster(&self, id: ClusterId) -> Result<&Cluster, ModelError> {
        self.clusters
            .get(id.as_usize())
            .ok_or(ModelError::UnknownEntity("cluster", id.index() as u64))
    }

    /// Looks up a node.
    ///
    /// # Errors
    /// Returns [`ModelError::UnknownEntity`] if the id was not built here.
    pub fn node(&self, id: NodeId) -> Result<&Node, ModelError> {
        self.nodes
            .get(id.as_usize())
            .ok_or(ModelError::UnknownEntity("node", u64::from(id.index())))
    }

    /// Clusters serving the given cloud.
    pub fn clusters_of(&self, cloud: CloudKind) -> impl Iterator<Item = &Cluster> {
        self.clusters.iter().filter(move |c| c.cloud == cloud)
    }

    /// Clusters located in the given region.
    pub fn clusters_in_region(&self, region: RegionId) -> impl Iterator<Item = &Cluster> {
        self.clusters.iter().filter(move |c| c.region == region)
    }

    /// Regions whose `geo` tag matches (e.g. `"US"`).
    pub fn regions_in_geo<'a>(&'a self, geo: &'a str) -> impl Iterator<Item = &'a Region> {
        self.regions.iter().filter(move |r| r.geo == geo)
    }
}

/// Incremental builder for [`Topology`] (C-BUILDER). Ids are dense and
/// assigned in insertion order.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    topology: Topology,
    next_rack: u32,
}

impl TopologyBuilder {
    /// Adds a region and returns its id.
    pub fn add_region(
        &mut self,
        name: impl Into<String>,
        tz_offset_hours: i32,
        geo: impl Into<String>,
    ) -> RegionId {
        let id = RegionId::new(self.topology.regions.len() as u32);
        self.topology.regions.push(Region {
            id,
            name: name.into(),
            tz_offset_hours,
            geo: geo.into(),
        });
        id
    }

    /// Adds a datacenter in `region` and returns its id.
    ///
    /// # Panics
    /// Panics if `region` does not exist yet.
    pub fn add_datacenter(&mut self, region: RegionId) -> DatacenterId {
        assert!(
            region.as_usize() < self.topology.regions.len(),
            "unknown region {region}"
        );
        let id = DatacenterId::new(self.topology.datacenters.len() as u32);
        self.topology.datacenters.push(Datacenter { id, region });
        id
    }

    /// Adds a cluster of `racks × nodes_per_rack` identical nodes and
    /// returns its id.
    ///
    /// # Panics
    /// Panics if the datacenter is unknown or the shape is degenerate.
    pub fn add_cluster(
        &mut self,
        datacenter: DatacenterId,
        cloud: CloudKind,
        sku: NodeSku,
        racks: usize,
        nodes_per_rack: usize,
    ) -> ClusterId {
        assert!(racks > 0 && nodes_per_rack > 0, "cluster must have nodes");
        let dc = self
            .topology
            .datacenters
            .get(datacenter.as_usize())
            .unwrap_or_else(|| panic!("unknown datacenter {datacenter}"));
        let region = dc.region;
        let id = ClusterId::new(self.topology.clusters.len() as u32);
        let mut rack_ids = Vec::with_capacity(racks);
        let mut node_ids = Vec::with_capacity(racks * nodes_per_rack);
        for _ in 0..racks {
            let rack = RackId::new(self.next_rack);
            self.next_rack += 1;
            rack_ids.push(rack);
            for _ in 0..nodes_per_rack {
                let node = NodeId::new(self.topology.nodes.len() as u32);
                self.topology.nodes.push(Node {
                    id: node,
                    cluster: id,
                    rack,
                });
                node_ids.push(node);
            }
        }
        self.topology.clusters.push(Cluster {
            id,
            datacenter,
            region,
            cloud,
            sku,
            racks: rack_ids,
            nodes: node_ids,
        });
        id
    }

    /// Finishes building.
    #[must_use]
    pub fn build(self) -> Topology {
        self.topology
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_topology() -> Topology {
        let mut b = Topology::builder();
        let r0 = b.add_region("us-west", -8, "US");
        let r1 = b.add_region("eu-north", 1, "EU");
        let d0 = b.add_datacenter(r0);
        let d1 = b.add_datacenter(r1);
        b.add_cluster(d0, CloudKind::Private, NodeSku::new(48, 384.0), 2, 4);
        b.add_cluster(d0, CloudKind::Public, NodeSku::new(48, 384.0), 2, 4);
        b.add_cluster(d1, CloudKind::Public, NodeSku::new(64, 512.0), 1, 2);
        b.build()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let t = small_topology();
        assert_eq!(t.regions().len(), 2);
        assert_eq!(t.clusters().len(), 3);
        assert_eq!(t.nodes.len(), 8 + 8 + 2);
        for (i, n) in t.nodes.iter().enumerate() {
            assert_eq!(n.id.as_usize(), i);
        }
    }

    #[test]
    fn cluster_membership_and_fault_domains() {
        let t = small_topology();
        let c = t.cluster(ClusterId::new(0)).unwrap();
        assert_eq!(c.racks.len(), 2);
        assert_eq!(c.nodes.len(), 8);
        assert_eq!(c.total_cores(), 8 * 48);
        // Nodes of a cluster point back at it and at one of its racks.
        for &nid in &c.nodes {
            let n = t.node(nid).unwrap();
            assert_eq!(n.cluster, c.id);
            assert!(c.racks.contains(&n.rack));
        }
        // Rack ids are globally unique across clusters.
        let c1 = t.cluster(ClusterId::new(1)).unwrap();
        assert!(c.racks.iter().all(|r| !c1.racks.contains(r)));
    }

    #[test]
    fn filtered_views() {
        let t = small_topology();
        assert_eq!(t.clusters_of(CloudKind::Private).count(), 1);
        assert_eq!(t.clusters_of(CloudKind::Public).count(), 2);
        assert_eq!(t.clusters_in_region(RegionId::new(0)).count(), 2);
        assert_eq!(t.regions_in_geo("US").count(), 1);
    }

    #[test]
    fn unknown_lookups_error() {
        let t = small_topology();
        assert!(t.cluster(ClusterId::new(99)).is_err());
        assert!(t.node(NodeId::new(999)).is_err());
    }

    #[test]
    #[should_panic(expected = "unknown region")]
    fn datacenter_requires_region() {
        let mut b = Topology::builder();
        b.add_datacenter(RegionId::new(5));
    }

    #[test]
    #[should_panic(expected = "must have nodes")]
    fn degenerate_cluster_rejected() {
        let mut b = Topology::builder();
        let r = b.add_region("x", 0, "US");
        let d = b.add_datacenter(r);
        b.add_cluster(d, CloudKind::Public, NodeSku::new(8, 64.0), 0, 4);
    }
}
