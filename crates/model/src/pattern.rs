//! The utilization-pattern classes of the study's Figure 5. The
//! classifier that assigns them lives in `cloudscope-analysis`; the
//! classes live here so that a [`TelemetrySource`] can hand back a
//! verdict it already holds ([`TelemetrySource::classified`]).
//!
//! [`TelemetrySource`]: crate::trace::TelemetrySource
//! [`TelemetrySource::classified`]: crate::trace::TelemetrySource::classified

use serde::{Deserialize, Serialize};
use std::fmt;

/// The four utilization-pattern classes of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UtilizationPattern {
    /// Daily periodicity tied to user activity.
    Diurnal,
    /// Low standard deviation — over-subscription candidate.
    Stable,
    /// Neither periodic nor flat.
    Irregular,
    /// Periodicity at the hour/half-hour scale (meeting joins).
    HourlyPeak,
}

impl UtilizationPattern {
    /// All classes, in Figure 5 order.
    pub const ALL: [UtilizationPattern; 4] = [
        UtilizationPattern::Diurnal,
        UtilizationPattern::Stable,
        UtilizationPattern::Irregular,
        UtilizationPattern::HourlyPeak,
    ];
}

impl fmt::Display for UtilizationPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UtilizationPattern::Diurnal => "diurnal",
            UtilizationPattern::Stable => "stable",
            UtilizationPattern::Irregular => "irregular",
            UtilizationPattern::HourlyPeak => "hourly-peak",
        })
    }
}
