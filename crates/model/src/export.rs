//! CSV export of traces, for interoperability with the pandas/Spark
//! pipelines that trace studies typically use.
//!
//! The deployment schema mirrors public cloud-trace releases: one row per
//! VM with ownership, shape, placement, and timestamps. Telemetry exports
//! as long-format `(vm, minute, cpu_pct)` rows.

use crate::trace::Trace;
use crate::vm::VmRecord;
use std::io::Write;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClusterId, NodeId, RegionId, ServiceId, SubscriptionId, VmId};
    use crate::subscription::{CloudKind, PartyKind, Subscription};
    use crate::telemetry::UtilSeries;
    use crate::time::SimTime;
    use crate::topology::{NodeSku, Topology};
    use crate::vm::{Priority, ServiceModel, VmSize};

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
    fn deployment_rows_are_pinned() {
        let trace = sample_trace();
        let mut out = Vec::new();
        write_deployments(&trace, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                DEPLOYMENT_HEADER,
                "0,0,0,4,16,spot,PaaS,0,0,1,100,400",
                // The optional node and end time export as empty fields.
                "1,0,0,4,16,on-demand,PaaS,0,0,,100,",
            ]
        );
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
}
