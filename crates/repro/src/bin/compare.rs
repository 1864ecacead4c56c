//! The private-vs-public differential summary: every headline
//! comparison of the study side by side, judged by the paper ledger at
//! ordering strictness.

use cloudscope::prelude::*;
use cloudscope_repro::ledger::differential;
use cloudscope_repro::MetricsOpt;

fn main() {
    let metrics = MetricsOpt::from_args();
    let generated = metrics.load_trace();
    let report = CharacterizationReport::analyze(&generated.trace, &ReportConfig::default())
        .expect("analysis");
    let ok = differential(&report).finish("compare");
    metrics.write();
    std::process::exit(i32::from(!ok));
}
