//! Simulation time.
//!
//! The study covers one ordinary week; all timestamps are minutes relative
//! to the trace start, which is defined to be **Monday 00:00 UTC**. Keeping
//! time as an integer minute count makes 5-minute telemetry alignment exact
//! and avoids floating-point drift in hour/day bucketing.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Minutes per hour.
pub const MINUTES_PER_HOUR: i64 = 60;
/// Minutes per day.
pub const MINUTES_PER_DAY: i64 = 24 * MINUTES_PER_HOUR;
/// Minutes per week — the span of the studied trace.
pub const MINUTES_PER_WEEK: i64 = 7 * MINUTES_PER_DAY;
/// Telemetry reporting interval: average utilization every 5 minutes.
pub const SAMPLE_INTERVAL_MINUTES: i64 = 5;
/// Number of 5-minute telemetry samples in one day.
pub const SAMPLES_PER_DAY: usize = (MINUTES_PER_DAY / SAMPLE_INTERVAL_MINUTES) as usize;
/// Number of 5-minute telemetry samples in one week.
pub const SAMPLES_PER_WEEK: usize = (MINUTES_PER_WEEK / SAMPLE_INTERVAL_MINUTES) as usize;

/// Days of the week; the trace starts on Monday.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Weekday {
    /// Monday — day 0 of the trace.
    Monday,
    /// Tuesday.
    Tuesday,
    /// Wednesday.
    Wednesday,
    /// Thursday.
    Thursday,
    /// Friday.
    Friday,
    /// Saturday (weekend).
    Saturday,
    /// Sunday (weekend).
    Sunday,
}

impl Weekday {
    /// All weekdays in trace order, Monday first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Returns the day index (Monday = 0 … Sunday = 6).
    ///
    /// # Examples
    /// ```
    /// # use cloudscope_model::time::Weekday;
    /// assert_eq!(Weekday::Sunday.index(), 6);
    /// ```
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Returns `true` on Saturday and Sunday.
    #[must_use]
    pub const fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }

    /// Maps a day index (0 = Monday) to a weekday, wrapping modulo 7.
    #[must_use]
    pub const fn from_index(index: usize) -> Self {
        Self::ALL[index % 7]
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Weekday::Monday => "Mon",
            Weekday::Tuesday => "Tue",
            Weekday::Wednesday => "Wed",
            Weekday::Thursday => "Thu",
            Weekday::Friday => "Fri",
            Weekday::Saturday => "Sat",
            Weekday::Sunday => "Sun",
        };
        f.write_str(name)
    }
}

/// A point in simulated time: whole minutes since Monday 00:00 UTC of the
/// trace week. Negative values are permitted (VMs created before the trace
/// window), mirroring how the paper only counts VMs started *and* ended
/// within the week for lifetime analysis.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(i64);

impl SimTime {
    /// The trace origin: Monday 00:00 UTC.
    pub const ZERO: SimTime = SimTime(0);
    /// End of the one-week trace window.
    pub const WEEK_END: SimTime = SimTime(MINUTES_PER_WEEK);

    /// Creates a time from minutes since the trace origin.
    #[must_use]
    pub const fn from_minutes(minutes: i64) -> Self {
        Self(minutes)
    }

    /// Creates a time from whole hours since the trace origin.
    ///
    /// # Examples
    /// ```
    /// # use cloudscope_model::time::SimTime;
    /// assert_eq!(SimTime::from_hours(2).minutes(), 120);
    /// ```
    #[must_use]
    pub const fn from_hours(hours: i64) -> Self {
        Self(hours * MINUTES_PER_HOUR)
    }

    /// Creates a time from whole days since the trace origin.
    #[must_use]
    pub const fn from_days(days: i64) -> Self {
        Self(days * MINUTES_PER_DAY)
    }

    /// Minutes since the trace origin.
    #[must_use]
    pub const fn minutes(self) -> i64 {
        self.0
    }

    /// Whole hours since the trace origin (floor division).
    #[must_use]
    pub const fn hours(self) -> i64 {
        self.0.div_euclid(MINUTES_PER_HOUR)
    }

    /// Whole days since the trace origin (floor division).
    #[must_use]
    pub const fn days(self) -> i64 {
        self.0.div_euclid(MINUTES_PER_DAY)
    }

    /// Hour of day in `0..24` (UTC).
    #[must_use]
    pub const fn hour_of_day(self) -> u32 {
        (self.0.rem_euclid(MINUTES_PER_DAY) / MINUTES_PER_HOUR) as u32
    }

    /// Minute within the hour in `0..60`.
    #[must_use]
    pub const fn minute_of_hour(self) -> u32 {
        self.0.rem_euclid(MINUTES_PER_HOUR) as u32
    }

    /// Minute within the day in `0..1440`.
    #[must_use]
    pub const fn minute_of_day(self) -> u32 {
        self.0.rem_euclid(MINUTES_PER_DAY) as u32
    }

    /// Fractional hour of day in `[0, 24)`, useful for smooth diurnal rate
    /// functions.
    #[must_use]
    pub fn fractional_hour_of_day(self) -> f64 {
        self.minute_of_day() as f64 / MINUTES_PER_HOUR as f64
    }

    /// The weekday this time falls on (trace starts Monday).
    #[must_use]
    pub const fn weekday(self) -> Weekday {
        Weekday::ALL[(self.0.div_euclid(MINUTES_PER_DAY)).rem_euclid(7) as usize]
    }

    /// Returns `true` on Saturday or Sunday.
    #[must_use]
    pub const fn is_weekend(self) -> bool {
        self.weekday().is_weekend()
    }

    /// Shifts this UTC time into a region's local wall clock given its
    /// time-zone offset in hours (may be negative).
    #[must_use]
    pub const fn to_local(self, tz_offset_hours: i32) -> SimTime {
        SimTime(self.0 + tz_offset_hours as i64 * MINUTES_PER_HOUR)
    }

    /// Returns `true` if the time lies within the studied week
    /// `[ZERO, WEEK_END)`.
    #[must_use]
    pub const fn in_trace_week(self) -> bool {
        self.0 >= 0 && self.0 < MINUTES_PER_WEEK
    }

    /// Index of the 5-minute telemetry sample containing this time,
    /// relative to the trace origin (may be negative before the window).
    #[must_use]
    pub const fn sample_index(self) -> i64 {
        self.0.div_euclid(SAMPLE_INTERVAL_MINUTES)
    }

    /// Saturating duration since `earlier`; zero if `earlier` is later.
    #[must_use]
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        let d = self.0 - earlier.0;
        SimDuration(if d < 0 { 0 } else { d })
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:02}:{:02}",
            self.weekday(),
            self.hour_of_day(),
            self.minute_of_hour()
        )
    }
}

/// A span of simulated time in whole minutes. Always non-negative.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(i64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// One telemetry interval (5 minutes).
    pub const SAMPLE: SimDuration = SimDuration(SAMPLE_INTERVAL_MINUTES);
    /// One hour.
    pub const HOUR: SimDuration = SimDuration(MINUTES_PER_HOUR);
    /// One day.
    pub const DAY: SimDuration = SimDuration(MINUTES_PER_DAY);
    /// One week.
    pub const WEEK: SimDuration = SimDuration(MINUTES_PER_WEEK);

    /// Creates a duration from minutes.
    ///
    /// # Panics
    /// Panics if `minutes` is negative; durations are spans, not offsets.
    #[must_use]
    pub fn from_minutes(minutes: i64) -> Self {
        assert!(minutes >= 0, "durations must be non-negative: {minutes}");
        Self(minutes)
    }

    /// Creates a duration from whole hours.
    ///
    /// # Panics
    /// Panics if `hours` is negative.
    #[must_use]
    pub fn from_hours(hours: i64) -> Self {
        Self::from_minutes(hours * MINUTES_PER_HOUR)
    }

    /// Length in minutes.
    #[must_use]
    pub const fn minutes(self) -> i64 {
        self.0
    }

    /// Number of whole 5-minute samples the duration covers.
    #[must_use]
    pub const fn samples(self) -> usize {
        (self.0 / SAMPLE_INTERVAL_MINUTES) as usize
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}m", self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Difference between two times.
    ///
    /// # Panics
    /// Panics (in debug) if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is unknown.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "negative duration: {self:?} - {rhs:?}");
        SimDuration((self.0 - rhs.0).max(0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_starts_monday_midnight() {
        assert_eq!(SimTime::ZERO.weekday(), Weekday::Monday);
        assert_eq!(SimTime::ZERO.hour_of_day(), 0);
        assert!(!SimTime::ZERO.is_weekend());
    }

    #[test]
    fn weekday_progression_and_weekend() {
        assert_eq!(SimTime::from_days(5).weekday(), Weekday::Saturday);
        assert!(SimTime::from_days(5).is_weekend());
        assert_eq!(SimTime::from_days(6).weekday(), Weekday::Sunday);
        assert_eq!(SimTime::from_days(7).weekday(), Weekday::Monday);
        assert_eq!(SimTime::from_minutes(-1).weekday(), Weekday::Sunday);
    }

    #[test]
    fn hour_and_minute_extraction() {
        let t = SimTime::from_minutes(MINUTES_PER_DAY + 13 * 60 + 37);
        assert_eq!(t.weekday(), Weekday::Tuesday);
        assert_eq!(t.hour_of_day(), 13);
        assert_eq!(t.minute_of_hour(), 37);
        assert_eq!(t.minute_of_day(), 13 * 60 + 37);
        assert_eq!(t.to_string(), "Tue 13:37");
    }

    #[test]
    fn negative_times_bucket_correctly() {
        let t = SimTime::from_minutes(-30);
        assert_eq!(t.hour_of_day(), 23);
        assert_eq!(t.minute_of_hour(), 30);
        assert_eq!(t.hours(), -1);
        assert!(!t.in_trace_week());
        assert_eq!(t.sample_index(), -6);
    }

    #[test]
    fn local_time_shift() {
        // 02:00 UTC Monday at UTC-8 is 18:00 Sunday.
        let t = SimTime::from_hours(2).to_local(-8);
        assert_eq!(t.hour_of_day(), 18);
        assert_eq!(t.weekday(), Weekday::Sunday);
    }

    #[test]
    fn arithmetic_and_durations() {
        let t = SimTime::ZERO + SimDuration::HOUR + SimDuration::SAMPLE;
        assert_eq!(t.minutes(), 65);
        assert_eq!((t - SimTime::ZERO).minutes(), 65);
        assert_eq!(SimDuration::DAY.samples(), 288);
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_hours(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_minutes(-5);
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(SAMPLES_PER_DAY, 288);
        assert_eq!(SAMPLES_PER_WEEK, 2016);
        assert_eq!(SimTime::WEEK_END.minutes(), 7 * 24 * 60);
    }

    #[test]
    fn weekday_from_index_wraps() {
        assert_eq!(Weekday::from_index(0), Weekday::Monday);
        assert_eq!(Weekday::from_index(8), Weekday::Tuesday);
    }
}
