//! CSV export/import of traces, for interoperability with the pandas/
//! Spark pipelines that trace studies typically use.
//!
//! The deployment schema mirrors public cloud-trace releases: one row per
//! VM with ownership, shape, placement, and timestamps. Telemetry exports
//! as long-format `(vm, minute, cpu_pct)` rows.

use crate::error::ModelError;
use crate::ids::{ClusterId, NodeId, RegionId, ServiceId, SubscriptionId, VmId};
use crate::time::SimTime;
use crate::trace::Trace;
use crate::vm::{Priority, ServiceModel, VmRecord, VmSize};
use std::io::{BufRead, Write};

/// Header of the deployment CSV.
pub const DEPLOYMENT_HEADER: &str = "vm_id,subscription_id,service_id,cores,memory_gb,priority,service_model,region_id,cluster_id,node_id,created_min,ended_min";

/// Writes every VM record as CSV. A reminder per C-RW-VALUE: pass
/// `&mut writer` if you need the writer afterwards.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_deployments<W: Write>(trace: &Trace, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "{DEPLOYMENT_HEADER}")?;
    for vm in trace.vms() {
        writeln!(writer, "{}", deployment_row(vm))?;
    }
    Ok(())
}

fn deployment_row(vm: &VmRecord) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{}",
        vm.id.index(),
        vm.subscription.index(),
        vm.service.index(),
        vm.size.cores(),
        vm.size.memory_gb(),
        vm.priority,
        vm.service_model,
        vm.region.index(),
        vm.cluster.index(),
        vm.node.map_or(String::new(), |n| n.index().to_string()),
        vm.created.minutes(),
        vm.ended.map_or(String::new(), |e| e.minutes().to_string()),
    )
}

/// Writes telemetry in long format: `vm_id,minute,cpu_pct`, one row per
/// 5-minute sample of every VM with telemetry. Missing samples emit no
/// row — exactly what a production monitor that never received the
/// reading would produce.
///
/// # Errors
/// Propagates I/O errors from the writer.
pub fn write_telemetry<W: Write>(trace: &Trace, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "vm_id,minute,cpu_pct")?;
    trace.try_for_each_vm(|vm, util| {
        let Some(util) = util else {
            return Ok(());
        };
        for (i, v) in util.iter().enumerate() {
            if v.is_finite() {
                let minute = util.time_at(i).minutes();
                writeln!(writer, "{},{minute},{v:.1}", vm.id.index())?;
            }
        }
        Ok(())
    })
}

/// Parses one deployment CSV row back into a [`VmRecord`].
///
/// # Errors
/// Returns [`ModelError::InconsistentTrace`] on malformed rows.
pub fn parse_deployment_row(row: &str) -> Result<VmRecord, ModelError> {
    let bad = |what: &str| ModelError::InconsistentTrace(format!("bad csv row ({what}): {row}"));
    let fields: Vec<&str> = row.split(',').collect();
    if fields.len() != 12 {
        return Err(bad("field count"));
    }
    let parse_u32 = |s: &str, what: &str| s.parse::<u32>().map_err(|_| bad(what));
    let priority = match fields[5] {
        "on-demand" => Priority::OnDemand,
        "spot" => Priority::Spot,
        _ => return Err(bad("priority")),
    };
    let service_model = match fields[6] {
        "IaaS" => ServiceModel::Iaas,
        "PaaS" => ServiceModel::Paas,
        "SaaS" => ServiceModel::Saas,
        _ => return Err(bad("service model")),
    };
    Ok(VmRecord {
        id: VmId::new(fields[0].parse().map_err(|_| bad("vm id"))?),
        subscription: SubscriptionId::new(parse_u32(fields[1], "subscription")?),
        service: ServiceId::new(parse_u32(fields[2], "service")?),
        size: VmSize::new(
            parse_u32(fields[3], "cores")?,
            fields[4].parse().map_err(|_| bad("memory"))?,
        ),
        priority,
        service_model,
        region: RegionId::new(parse_u32(fields[7], "region")?),
        cluster: ClusterId::new(parse_u32(fields[8], "cluster")?),
        node: if fields[9].is_empty() {
            None
        } else {
            Some(NodeId::new(parse_u32(fields[9], "node")?))
        },
        created: SimTime::from_minutes(fields[10].parse().map_err(|_| bad("created"))?),
        ended: if fields[11].is_empty() {
            None
        } else {
            Some(SimTime::from_minutes(
                fields[11].parse().map_err(|_| bad("ended"))?,
            ))
        },
    })
}

/// Reads a deployment CSV (as produced by [`write_deployments`]) into
/// records. The header row is validated.
///
/// # Errors
/// Returns [`ModelError::InconsistentTrace`] on malformed input, and
/// propagates I/O errors as the same variant.
pub fn read_deployments<R: BufRead>(reader: R) -> Result<Vec<VmRecord>, ModelError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| ModelError::InconsistentTrace("empty csv".into()))?
        .map_err(|e| ModelError::InconsistentTrace(format!("io error: {e}")))?;
    if header != DEPLOYMENT_HEADER {
        return Err(ModelError::InconsistentTrace(format!(
            "unexpected header: {header}"
        )));
    }
    let mut records = Vec::new();
    for line in lines {
        let line = line.map_err(|e| ModelError::InconsistentTrace(format!("io error: {e}")))?;
        if line.is_empty() {
            continue;
        }
        records.push(parse_deployment_row(&line)?);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::{CloudKind, PartyKind, Subscription};
    use crate::telemetry::UtilSeries;
    use crate::topology::{NodeSku, Topology};

    fn sample_trace() -> Trace {
        let mut tb = Topology::builder();
        let r = tb.add_region("x", 0, "US");
        let d = tb.add_datacenter(r);
        tb.add_cluster(d, CloudKind::Public, NodeSku::new(8, 64.0), 1, 2);
        let mut b = Trace::builder(tb.build());
        b.add_subscription(Subscription::new(
            SubscriptionId::new(0),
            CloudKind::Public,
            PartyKind::ThirdParty,
        ))
        .unwrap();
        let vm = VmRecord {
            id: VmId::new(0),
            subscription: SubscriptionId::new(0),
            service: ServiceId::new(0),
            size: VmSize::new(4, 16.0),
            priority: Priority::Spot,
            service_model: ServiceModel::Paas,
            region: RegionId::new(0),
            cluster: ClusterId::new(0),
            node: Some(NodeId::new(1)),
            created: SimTime::from_minutes(100),
            ended: Some(SimTime::from_minutes(400)),
        };
        let util = UtilSeries::from_percentages(SimTime::from_minutes(100), [10.0, 20.0]);
        b.add_vm(vm.clone(), Some(util)).unwrap();
        // A second VM with the optional fields empty.
        let open_ended = VmRecord {
            id: VmId::new(1),
            node: None,
            ended: None,
            priority: Priority::OnDemand,
            ..vm
        };
        b.add_vm(open_ended, None).unwrap();
        b.build()
    }

    #[test]
    fn deployment_roundtrip() {
        let trace = sample_trace();
        let mut out = Vec::new();
        write_deployments(&trace, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with(DEPLOYMENT_HEADER));
        let records = read_deployments(text.as_bytes()).unwrap();
        assert_eq!(records.len(), trace.vms().len());
        assert_eq!(&records[0], &trace.vms()[0]);
    }

    #[test]
    fn telemetry_long_format() {
        let trace = sample_trace();
        let mut out = Vec::new();
        write_telemetry(&trace, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "vm_id,minute,cpu_pct");
        assert_eq!(lines[1], "0,100,10.0");
        assert_eq!(lines[2], "0,105,20.0");
    }

    #[test]
    fn optional_fields_roundtrip_empty() {
        let row = "7,0,0,2,8,on-demand,IaaS,0,0,,50,";
        let vm = parse_deployment_row(row).unwrap();
        assert_eq!(vm.node, None);
        assert_eq!(vm.ended, None);
        assert_eq!(vm.id, VmId::new(7));
    }

    #[test]
    fn malformed_rows_rejected() {
        assert!(parse_deployment_row("1,2,3").is_err());
        assert!(parse_deployment_row("x,0,0,2,8,on-demand,IaaS,0,0,,50,").is_err());
        assert!(parse_deployment_row("1,0,0,2,8,weird,IaaS,0,0,,50,").is_err());
        assert!(parse_deployment_row("1,0,0,2,8,on-demand,XaaS,0,0,,50,").is_err());
        let bad_header = "nope\n1,2";
        assert!(read_deployments(bad_header.as_bytes()).is_err());
        assert!(read_deployments("".as_bytes()).is_err());
    }
}
