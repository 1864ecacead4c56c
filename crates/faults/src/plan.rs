//! The seeded fault plan and the report of what it actually did.

use cloudscope_model::prelude::*;

/// A regional monitoring outage: every sample that a VM in `region`
/// would have transmitted during the window is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blackout {
    /// Region whose collectors go dark.
    pub region: RegionId,
    /// When the outage starts (trace time).
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
}

impl Blackout {
    /// Whether a sample transmitted at `minute` from `region` falls into
    /// this outage.
    #[must_use]
    pub fn covers(&self, region: RegionId, minute: i64) -> bool {
        self.region == region
            && minute >= self.start.minutes()
            && minute < self.start.minutes() + self.duration.minutes()
    }
}

/// A complete, seeded description of what goes wrong between the
/// in-guest monitors and the trace store. Same plan, same input trace ⇒
/// byte-identical corrupted trace.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed for every per-VM corruption stream.
    pub seed: u64,
    /// Probability that any one sample is silently lost in transit.
    pub drop_probability: f64,
    /// Probability that a delivered sample arrives twice.
    pub duplicate_probability: f64,
    /// Probability that a delivered sample swaps places with its
    /// predecessor on the wire (local reordering).
    pub reorder_probability: f64,
    /// Probability that a delivered sample carries a garbage reading
    /// (NaN or a negative value) that ingest must reject.
    pub invalid_probability: f64,
    /// Per-VM constant clock skew, drawn uniformly from
    /// `[-max, +max]` minutes and added to every recorded timestamp.
    pub max_clock_skew_minutes: i64,
    /// Regional monitoring outages.
    pub blackouts: Vec<Blackout>,
}

impl FaultPlan {
    /// A plan that corrupts nothing — the identity baseline every fault
    /// test compares against.
    #[must_use]
    pub fn clean(seed: u64) -> Self {
        Self {
            seed,
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            invalid_probability: 0.0,
            max_clock_skew_minutes: 0,
            blackouts: Vec::new(),
        }
    }

    /// The standard corruption profile the robustness gate runs under:
    /// 5% uniform sample loss plus one 6-hour monitoring blackout in
    /// region 0 starting Wednesday noon, with light duplication,
    /// reordering, garbage readings, and ±2 minutes of clock skew on
    /// top (all of which ingest must absorb without extra loss).
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        Self {
            seed,
            drop_probability: 0.05,
            duplicate_probability: 0.01,
            reorder_probability: 0.01,
            invalid_probability: 0.005,
            max_clock_skew_minutes: 2,
            blackouts: vec![Blackout {
                region: RegionId::new(0),
                start: SimTime::from_days(3) + SimDuration::from_hours(12),
                duration: SimDuration::from_hours(6),
            }],
        }
    }
}

/// What a [`corrupt_trace`](crate::corrupt_trace) run actually did —
/// the ground truth a robustness experiment reports alongside its
/// verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Telemetry-bearing VMs processed.
    pub vms: usize,
    /// Samples the pristine trace put on the wire.
    pub samples_in: usize,
    /// Present samples surviving ingest (gaps excluded).
    pub samples_out: usize,
    /// Samples lost to uniform drops.
    pub dropped: usize,
    /// Samples lost to regional blackouts.
    pub blackout_dropped: usize,
    /// Samples delivered twice.
    pub duplicated: usize,
    /// Adjacent wire swaps applied.
    pub reordered: usize,
    /// Samples turned into garbage readings.
    pub invalidated: usize,
    /// Samples whose skewed timestamp left the trace week entirely.
    pub out_of_week: usize,
}

impl FaultReport {
    /// Fraction of wire samples that did not make it into the corrupted
    /// trace as valid readings, in `[0, 1]`.
    #[must_use]
    pub fn loss_fraction(&self) -> f64 {
        if self.samples_in == 0 {
            return 0.0;
        }
        1.0 - self.samples_out as f64 / self.samples_in as f64
    }

    /// Adds `other`'s tallies to this report's — how the ledgers of
    /// streams pulled apart (say, on different workers) become one.
    pub fn add(&mut self, other: &Self) {
        let Self {
            vms,
            samples_in,
            samples_out,
            dropped,
            blackout_dropped,
            duplicated,
            reordered,
            invalidated,
            out_of_week,
        } = other;
        self.vms += vms;
        self.samples_in += samples_in;
        self.samples_out += samples_out;
        self.dropped += dropped;
        self.blackout_dropped += blackout_dropped;
        self.duplicated += duplicated;
        self.reordered += reordered;
        self.invalidated += invalidated;
        self.out_of_week += out_of_week;
    }

    /// Publishes this report's tallies as `faults.corrupt.*` counters on
    /// the current registry. Called once per corruption pass — the
    /// per-sample hot loops stay metric-free.
    pub fn flush_metrics(&self) {
        let counts: [(&str, usize); 9] = [
            ("faults.corrupt.vms_corrupted", self.vms),
            ("faults.corrupt.samples_in", self.samples_in),
            ("faults.corrupt.samples_out", self.samples_out),
            ("faults.corrupt.samples_dropped", self.dropped),
            ("faults.corrupt.blackout_dropped", self.blackout_dropped),
            ("faults.corrupt.duplicated", self.duplicated),
            ("faults.corrupt.reordered", self.reordered),
            ("faults.corrupt.invalidated", self.invalidated),
            ("faults.corrupt.out_of_week", self.out_of_week),
        ];
        for (name, value) in counts {
            cloudscope_obs::counter(name).add(value as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackout_window_is_half_open() {
        let b = Blackout {
            region: RegionId::new(1),
            start: SimTime::from_hours(10),
            duration: SimDuration::from_hours(2),
        };
        assert!(!b.covers(RegionId::new(1), 599));
        assert!(b.covers(RegionId::new(1), 600));
        assert!(b.covers(RegionId::new(1), 719));
        assert!(!b.covers(RegionId::new(1), 720));
        assert!(!b.covers(RegionId::new(0), 650));
    }

    #[test]
    fn standard_plan_shape() {
        let p = FaultPlan::standard(42);
        assert_eq!(p.seed, 42);
        assert!((p.drop_probability - 0.05).abs() < 1e-12);
        assert_eq!(p.blackouts.len(), 1);
        assert_eq!(p.blackouts[0].duration.minutes(), 360);
        let clean = FaultPlan::clean(42);
        assert_eq!(clean.drop_probability, 0.0);
        assert!(clean.blackouts.is_empty());
    }

    #[test]
    fn add_sums_every_tally() {
        let a = FaultReport {
            vms: 1,
            samples_in: 2,
            samples_out: 3,
            dropped: 4,
            blackout_dropped: 5,
            duplicated: 6,
            reordered: 7,
            invalidated: 8,
            out_of_week: 9,
        };
        let mut sum = a;
        sum.add(&a);
        assert_eq!(
            sum,
            FaultReport {
                vms: 2,
                samples_in: 4,
                samples_out: 6,
                dropped: 8,
                blackout_dropped: 10,
                duplicated: 12,
                reordered: 14,
                invalidated: 16,
                out_of_week: 18,
            }
        );
        sum.add(&FaultReport::default());
        assert_eq!(sum.samples_in, 4);
    }

    #[test]
    fn loss_fraction_guards_empty() {
        assert_eq!(FaultReport::default().loss_fraction(), 0.0);
        let r = FaultReport {
            samples_in: 200,
            samples_out: 190,
            ..FaultReport::default()
        };
        assert!((r.loss_fraction() - 0.05).abs() < 1e-12);
    }
}
