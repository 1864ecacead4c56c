//! The lane table: every VM's window state, served as a
//! [`TelemetrySource`] over its sealed slots — live while the ingestor
//! runs, and unchanged as the end state of a run.

use crate::ingestor::IngestReport;
use cloudscope_analysis::UtilizationPattern;
use cloudscope_model::prelude::*;
use cloudscope_model::telemetry::MISSING_SAMPLE_BYTE;
use cloudscope_model::time::{SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
use cloudscope_model::trace::TelemetrySource;

/// Per-VM lane: one quantized byte per week slot, split by a cursor
/// into the immutable sealed history below it and the mutable buffer at
/// and above it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VmLane {
    /// `slots[s]` is the sample of week slot `s`, quantized on arrival
    /// ([`MISSING_SAMPLE_BYTE`] where nothing arrived). At or above
    /// `sealed_upto` the last write wins; below it nothing changes.
    pub(crate) slots: Box<[u8]>,
    /// Slots below this are sealed. Sealing is monotone, so the cursor
    /// only ever advances — and only sealed slots are visible to
    /// [`VmLane::sealed`].
    sealed_upto: usize,
    /// Samples among the sealed slots.
    sealed_samples: usize,
    /// Samples that arrived for an already-sealed slot.
    pub(crate) dropped_late: u64,
    /// Classification of the sealed history at the last window close.
    pub(crate) pattern: Option<UtilizationPattern>,
}

impl VmLane {
    pub(crate) fn new() -> Self {
        Self {
            slots: vec![MISSING_SAMPLE_BYTE; SAMPLES_PER_WEEK].into(),
            sealed_upto: 0,
            sealed_samples: 0,
            dropped_late: 0,
            pattern: None,
        }
    }

    /// Seals every slot below `floor`. Returns how many samples sealed.
    pub(crate) fn seal_upto(&mut self, floor: usize) -> usize {
        let floor = floor.min(self.slots.len());
        if floor <= self.sealed_upto {
            return 0;
        }
        let sealed_now = self.slots[self.sealed_upto..floor]
            .iter()
            .filter(|&&q| q != MISSING_SAMPLE_BYTE)
            .count();
        self.sealed_upto = floor;
        self.sealed_samples += sealed_now;
        sealed_now
    }

    /// The sealed history as a gap-preserving series — byte-identical
    /// to what the batch collector assembles from the same samples.
    /// `None` if no sample has sealed.
    pub(crate) fn sealed(&self) -> Option<UtilSeries> {
        let sealed = &self.slots[..self.sealed_upto];
        let first = sealed.iter().position(|&q| q != MISSING_SAMPLE_BYTE)?;
        let last = sealed.iter().rposition(|&q| q != MISSING_SAMPLE_BYTE)?;
        Some(UtilSeries::from_quantized(
            SimTime::from_minutes(first as i64 * SAMPLE_INTERVAL_MINUTES),
            sealed[first..=last].to_vec().into(),
        ))
    }
}

/// The ingestor's lane table and counters. [`Ingestor::finish`]
/// returns it as the end state of a run: per-VM telemetry plus the
/// streaming classifications.
///
/// As a [`TelemetrySource`] it serves sealed slots only, so between a
/// window close and the next offer it is exactly the state the close
/// just classified — which is what publication reads — and after
/// `finish` it is interchangeable with a resident
/// [`Trace`] or the out-of-core store:
/// the same classifier code runs over all three. On a clean stream the
/// served series are byte-identical to what batch ingestion of the same
/// samples produces; under faults, every divergent VM is named by
/// [`IngestSession::had_drops`].
///
/// Lanes sit in a dense table indexed by [`VmId::as_usize`] — VM ids
/// are the trace's dense indices — which reaches the largest id with a
/// lane ([`drive_ingest`] sizes it once, to the largest id with
/// telemetry, so that its delivery shards never grow it).
///
/// [`drive_ingest`]: crate::drive_ingest
///
/// [`Ingestor::finish`]: crate::Ingestor::finish
#[derive(Debug, Clone)]
pub struct IngestSession {
    /// `lanes[vm.as_usize()]`; `None` until the VM's first valid,
    /// in-week sample.
    pub(crate) lanes: Vec<Option<VmLane>>,
    pub(crate) report: IngestReport,
}

impl IngestSession {
    /// The run's aggregate counters.
    #[must_use]
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    fn lane(&self, vm: VmId) -> Option<&VmLane> {
        self.lanes.get(vm.as_usize())?.as_ref()
    }

    /// The streaming classification of `vm` at its last window close;
    /// `None` if the VM never classified (or never appeared).
    #[must_use]
    pub fn pattern(&self, vm: VmId) -> Option<UtilizationPattern> {
        self.lane(vm)?.pattern
    }

    /// `true` if at least one of `vm`'s samples arrived too late and
    /// was dropped — the only way a clean-ingest invariant can break,
    /// so any divergence from batch output must be inside this set.
    #[must_use]
    pub fn had_drops(&self, vm: VmId) -> bool {
        self.lane(vm).is_some_and(|lane| lane.dropped_late > 0)
    }

    /// VMs with at least one late-dropped sample, ascending.
    pub fn vms_with_drops(&self) -> impl Iterator<Item = VmId> + '_ {
        self.vms().filter(|&vm| self.had_drops(vm))
    }

    /// VMs that offered at least one valid, in-week sample (applied or
    /// dropped late), ascending: the VMs that own a lane.
    pub fn vms(&self) -> impl Iterator<Item = VmId> + '_ {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, lane)| lane.is_some())
            .map(|(index, _)| VmId::new(index as u64))
    }
}

impl TelemetrySource for IngestSession {
    fn load(&self, id: VmId) -> Option<UtilSeries> {
        self.lane(id)?.sealed()
    }

    fn has(&self, id: VmId) -> bool {
        self.lane(id).is_some_and(|lane| lane.sealed_samples > 0)
    }
}
