//! The four workloads. Each is a set-up, one timed iteration, optional
//! single-layer probes for the traced run, and a verification against a
//! reference that runs *after* the timed section — so `peak_rss_mb` of
//! the out-of-core workloads is the out-of-core pipeline's own
//! high-water mark, not the resident reference's.

use crate::pipeline::{characterize, Digest, Outcome};
use crate::trace::{Ctx, Phase};
use cloudscope::analysis::deployment::DeploymentSizeAnalysis;
use cloudscope::analysis::pattern_shares_from;
use cloudscope::analysis::spatial::SpatialAnalysis;
use cloudscope::analysis::temporal::TemporalAnalysis;
use cloudscope::analysis::vmsize::VmSizeAnalysis;
use cloudscope::faults::FaultPlan;
use cloudscope::ingest::{drive_ingest, IngestConfig};
use cloudscope::obs::Snapshot;
use cloudscope::par::Parallelism;
use cloudscope::prelude::*;
use cloudscope::store::{ChunkKind, ScanFilter, TelemetryMode, TraceReader, WriteOptions};
use cloudscope::tracegen::{generate_to_store, generate_with, read_generated};
use cloudscope_repro::checks::CheckProfile;
use std::path::{Path, PathBuf};

/// `GeneratorConfig::default().seed`: the full-scale generator seed, on
/// which all 26 shape checks are known to hold.
pub const DEFAULT_FULL_SEED: u64 = 3_238_878_217;
/// The medium-scale generator seed on which all 26 shape checks are
/// known to hold (the one the tier-1 robustness gate uses).
pub const DEFAULT_MEDIUM_SEED: u64 = 99;
/// Telemetry chunk size of `ooc_spill`: several chunks per (region,
/// day) lane, so the auto-sized cache cannot hold the working set.
pub const SPILL_CHUNK_BYTES: usize = 128 << 10;

/// Trace size of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `GeneratorConfig::default()`.
    Full,
    /// `GeneratorConfig::medium`.
    Medium,
    /// `GeneratorConfig::small` — `--smoke` only.
    Small,
}

impl Scale {
    /// The generator configuration for `seed`.
    ///
    /// The fleet is fixed: the generator runs on the scale's calibrated
    /// seed. The workload seed shifts *when the fleet's services peak* —
    /// the private and public `peak_hour_range` windows move by up to
    /// half an hour either way — so every diurnal and hourly-peak
    /// series differs from seed to seed while VM records, series
    /// lengths and store geometry stay the same. Reseeding the
    /// generator itself moves the trace's size by ±8 % (full) to ±12 %
    /// (medium) and `ooc_spill`'s time from 18 s to 44 s, which would
    /// drown the 10 % regression bounds in input noise.
    ///
    /// The calibrated seed shifts nothing: the default run analyses
    /// exactly `GeneratorConfig::default()` / `GeneratorConfig::medium(99)`.
    pub fn config(self, seed: u64) -> GeneratorConfig {
        let mut config = match self {
            Scale::Full => GeneratorConfig::default(),
            Scale::Medium => GeneratorConfig::medium(DEFAULT_MEDIUM_SEED),
            Scale::Small => GeneratorConfig::small(DEFAULT_MEDIUM_SEED),
        };
        let [private, public] = peak_shift_hours(seed ^ self.default_seed());
        for (profile, shift) in [(&mut config.private, private), (&mut config.public, public)] {
            let (lo, hi) = profile.peak_hour_range;
            profile.peak_hour_range = (lo + shift, hi + shift);
        }
        config
    }

    /// The seed used when none is given: the generator seed of this
    /// scale, on which all 26 shape checks are known to hold.
    pub fn default_seed(self) -> u64 {
        match self {
            Scale::Full => DEFAULT_FULL_SEED,
            Scale::Medium | Scale::Small => DEFAULT_MEDIUM_SEED,
        }
    }

    /// Shape-check thresholds matched to this scale.
    pub fn profile(self) -> CheckProfile {
        match self {
            Scale::Full => CheckProfile::full(),
            Scale::Medium | Scale::Small => CheckProfile::medium(),
        }
    }

    /// The name printed in the host stamp.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Medium => "medium",
            Scale::Small => "small",
        }
    }
}

/// Two shifts in `[-0.5, 0.5)` hours from the bits of `x`, `[0, 0]`
/// for `x == 0`: the SplitMix64 finalizer (which fixes 0), applied
/// once per shift, scaled from a signed 64-bit integer.
fn peak_shift_hours(x: u64) -> [f64; 2] {
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let first = mix(x);
    let second = mix(first);
    [first, second].map(|bits| (bits as i64) as f64 / (1u64 << 63) as f64 / 2.0)
}

/// A workload's static description.
#[derive(Clone, Copy)]
pub struct WorkloadDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
    /// Trace size outside `--smoke`.
    pub scale: Scale,
    /// Builds the workload's state for one run.
    pub build: fn(Input) -> Box<dyn Workload>,
}

/// The four workloads, in the order `all` runs them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "batch_resident",
        why: "Full trace generated and analysed in memory: tracegen, analysis and kb extraction do the work, the store and ingest are bypassed, so a store change must not show here.",
        scale: Scale::Full,
        build: |input| Box::new(BatchResident { input }),
    },
    WorkloadDef {
        name: "ooc_fits",
        why: "Full trace streamed to a 1 MiB-chunk store and analysed from it: write-heavy, and the auto-sized chunk cache holds the working set (decode amplification near 1).",
        scale: Scale::Full,
        build: |input| Box::new(OutOfCore::fits(input)),
    },
    WorkloadDef {
        name: "ooc_spill",
        why: "Medium trace read from a 128 KiB-chunk store: read-heavy, working set larger than the chunk cache, so access order and cache changes show here and pure kernel speed-ups barely.",
        scale: Scale::Medium,
        build: |input| Box::new(OutOfCore::spill(input)),
    },
    WorkloadDef {
        name: "stream_ingest",
        why: "Medium trace replayed through the online ingestor, clean then faulted, into a durable KB and recovered: the only workload where ingest, sim, faults and the WAL run.",
        scale: Scale::Medium,
        build: |input| Box::new(StreamIngest::new(input)),
    },
];

/// Size and geometry of the trace store a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreFacts {
    /// Bytes on disk: every chunk file plus the manifest.
    pub bytes_on_disk: u64,
    /// Files in the store directory.
    pub files: u64,
    /// Telemetry chunks in the manifest.
    pub telemetry_chunks: u64,
    /// `WriteOptions::target_chunk_bytes` the store was written with.
    pub target_chunk_bytes: u64,
    /// Telemetry samples stored.
    pub samples: u64,
}

/// A running workload: state between set-up, iterations and checks.
pub trait Workload {
    /// Everything needed before the first timed iteration.
    fn setup(&mut self, cx: &mut Ctx) -> Result<(), String>;
    /// One timed iteration, input to verified result.
    fn iterate(&mut self, cx: &mut Ctx) -> Result<Outcome, String>;
    /// Single-layer measurements, traced run only.
    fn probes(&mut self, _cx: &mut Ctx) -> Result<(), String> {
        Ok(())
    }
    /// Checks the iterations' outputs against the reference.
    fn verify(&mut self, cx: &mut Ctx, outputs: &[Outcome]) -> Result<(), String>;
    /// The store in use, if the workload has one.
    fn store_facts(&self) -> Option<StoreFacts> {
        None
    }
}

/// Inputs common to every workload.
#[derive(Debug, Clone)]
pub struct Input {
    /// Trace size.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Scratch directory, removed when the run ends.
    pub tmp: PathBuf,
    /// The library's auto-sized worker pool.
    pub par: Parallelism,
}

impl Input {
    fn config(&self) -> GeneratorConfig {
        self.scale.config(self.seed)
    }

    /// Missed shape checks fail the run only on the seeds where all 26
    /// are known to hold.
    fn shape_checks_gate(&self) -> bool {
        self.scale != Scale::Small && self.seed == self.scale.default_seed()
    }

    fn characterize(&self, cx: &mut Ctx, generated: &GeneratedTrace) -> Outcome {
        characterize(
            cx,
            generated,
            &self.scale.profile(),
            self.shape_checks_gate(),
        )
    }
}

fn samples_generated(cx: &Ctx) -> u64 {
    cx.registry
        .counter("tracegen.generate.samples_generated")
        .get()
}

/// One digest over all iterations, or a failed check.
fn check_digests_agree(cx: &mut Ctx, outputs: &[Outcome], reference: u64, against: &str) {
    for (i, out) in outputs.iter().enumerate() {
        cx.check(out.digest == reference, || {
            format!(
                "iteration {}: result digest {:016x} differs from {against} {reference:016x}",
                i + 1,
                out.digest
            )
        });
    }
}

/// The resident reference of the out-of-core workloads: the same seed
/// generated and characterized in memory.
fn resident_reference(cx: &mut Ctx, input: &Input) -> u64 {
    cx.enter(Phase::Reference, 1);
    let root = cx.begin("bench.iteration");
    let generated = cx.call_ok("tracegen.generate", || {
        generate_with(&input.config(), input.par)
    });
    let reference = input.characterize(cx, &generated);
    cx.end(root);
    reference.digest
}

// ---------------------------------------------------------------------
// batch_resident

struct BatchResident {
    input: Input,
}

impl Workload for BatchResident {
    /// One warm-up iteration: allocator arenas, FFT plans and the page
    /// cache reach their steady state before timing starts.
    fn setup(&mut self, cx: &mut Ctx) -> Result<(), String> {
        self.iterate(cx).map(drop)
    }

    fn iterate(&mut self, cx: &mut Ctx) -> Result<Outcome, String> {
        let root = cx.begin("bench.iteration");
        let before = samples_generated(cx);
        let generated = cx.call_ok("tracegen.generate", || {
            generate_with(&self.input.config(), self.input.par)
        });
        let samples = samples_generated(cx) - before;
        let result = self.input.characterize(cx, &generated);
        drop(generated);
        cx.end(root);
        Ok(Outcome { samples, ..result })
    }

    /// No second implementation to compare with: every iteration of the
    /// same seed must produce the same digest.
    fn verify(&mut self, cx: &mut Ctx, outputs: &[Outcome]) -> Result<(), String> {
        let first = outputs.first().ok_or("no timed iteration")?.digest;
        check_digests_agree(cx, outputs, first, "the first iteration's");
        Ok(())
    }
}

// ---------------------------------------------------------------------
// ooc_fits and ooc_spill

struct OutOfCore {
    input: Input,
    options: WriteOptions,
    /// `true`: the store is written inside every timed iteration
    /// (`ooc_fits`); `false`: once, in set-up (`ooc_spill`).
    write_each_iteration: bool,
    dir: PathBuf,
    facts: StoreFacts,
}

impl OutOfCore {
    fn fits(input: Input) -> Self {
        Self::new(input, WriteOptions::default(), true)
    }

    fn spill(input: Input) -> Self {
        let options = WriteOptions {
            target_chunk_bytes: SPILL_CHUNK_BYTES,
            ..WriteOptions::default()
        };
        Self::new(input, options, false)
    }

    fn new(input: Input, options: WriteOptions, write_each_iteration: bool) -> Self {
        Self {
            dir: input.tmp.join("trace-store"),
            input,
            options,
            write_each_iteration,
            facts: StoreFacts::default(),
        }
    }

    fn write_store(&mut self, cx: &mut Ctx) -> Result<(), String> {
        if self.dir.exists() {
            // A repeated set-up: start from an empty directory, so no
            // stale chunk file is counted as part of the store.
            self.remove_store()?;
        }
        let before = samples_generated(cx);
        cx.call("tracegen.generate_to_store", || {
            generate_to_store(
                &self.input.config(),
                &self.dir,
                self.options,
                self.input.par,
            )
        })
        .ok_or("the trace store could not be written")?;
        let samples = samples_generated(cx) - before;
        self.facts = measure_store(&self.dir, self.options, samples)?;
        Ok(())
    }

    fn remove_store(&self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("removing {}: {e}", self.dir.display()))
    }

    fn open(&self, cx: &mut Ctx) -> Result<GeneratedTrace, String> {
        cx.call("store.open", || {
            read_generated(
                &self.dir,
                TelemetryMode::OutOfCore { cache_chunks: 0 },
                &self.input.par,
            )
        })
        .ok_or_else(|| "the trace store could not be opened".into())
    }
}

fn measure_store(dir: &Path, options: WriteOptions, samples: u64) -> Result<StoreFacts, String> {
    let io = |e: std::io::Error| format!("measuring {}: {e}", dir.display());
    let mut facts = StoreFacts {
        target_chunk_bytes: options.target_chunk_bytes as u64,
        samples,
        ..StoreFacts::default()
    };
    for entry in std::fs::read_dir(dir).map_err(io)? {
        facts.bytes_on_disk += entry.map_err(io)?.metadata().map_err(io)?.len();
        facts.files += 1;
    }
    let reader = TraceReader::open(dir).map_err(|e| e.to_string())?;
    facts.telemetry_chunks = reader
        .chunks(ScanFilter::all().kind(ChunkKind::Telemetry))
        .count() as u64;
    Ok(facts)
}

impl Workload for OutOfCore {
    fn setup(&mut self, cx: &mut Ctx) -> Result<(), String> {
        if self.write_each_iteration {
            // Warm-up, as in `batch_resident`.
            self.iterate(cx).map(drop)
        } else {
            self.write_store(cx)
        }
    }

    fn iterate(&mut self, cx: &mut Ctx) -> Result<Outcome, String> {
        let root = cx.begin("bench.iteration");
        if self.write_each_iteration {
            self.write_store(cx)?;
        }
        let generated = self.open(cx)?;
        let result = self.input.characterize(cx, &generated);
        drop(generated);
        if self.write_each_iteration {
            self.remove_store()?;
        }
        cx.end(root);
        Ok(Outcome {
            samples: self.facts.samples,
            ..result
        })
    }

    /// What the store costs on its own, outside the analysis spans: an
    /// id-ordered sweep of every series (the access pattern the cache is
    /// sized for) and fig1–fig4 from VM metadata alone.
    fn probes(&mut self, cx: &mut Ctx) -> Result<(), String> {
        if self.write_each_iteration {
            self.write_store(cx)?;
        }
        let generated = self.open(cx)?;
        let trace = &generated.trace;
        let swept = cx.call_ok("store.sweep", || {
            trace
                .vms()
                .iter()
                .filter_map(|vm| trace.util(vm.id))
                .map(|series| series.len() as u64)
                .sum::<u64>()
        });
        cx.check(swept == self.facts.samples, || {
            format!(
                "store.sweep read {swept} samples but {} were stored",
                self.facts.samples
            )
        });
        drop(generated);

        let before = cx.registry.snapshot();
        let config = ReportConfig::default();
        let ok = cx.call("store.metadata_only", || -> Result<(), String> {
            let reader = TraceReader::open(&self.dir).map_err(|e| e.to_string())?;
            let records = reader
                .read_vm_records(ScanFilter::all(), &self.input.par)
                .map_err(|e| e.to_string())?;
            let subs = reader.read_subscriptions().map_err(|e| e.to_string())?;
            (|| {
                DeploymentSizeAnalysis::run_from_records(&records, &subs, config.snapshot)?;
                VmSizeAnalysis::run_from_records(&records, &subs)?;
                TemporalAnalysis::run_from_records(
                    &records,
                    &records,
                    &subs,
                    config.sample_region,
                )?;
                SpatialAnalysis::run_from_records(&records, &subs).map(drop)
            })()
            .map_err(|e: cloudscope::analysis::AnalysisError| e.to_string())
        });
        let decoded = telemetry_decodes(&cx.registry.snapshot().diff(&before));
        cx.check(ok.is_some() && decoded == 0, || {
            format!("store.metadata_only decoded {decoded} telemetry chunks, expected none")
        });
        if self.write_each_iteration {
            self.remove_store()?;
        }
        Ok(())
    }

    fn verify(&mut self, cx: &mut Ctx, outputs: &[Outcome]) -> Result<(), String> {
        let reference = resident_reference(cx, &self.input);
        check_digests_agree(cx, outputs, reference, "the resident reference's");
        Ok(())
    }

    fn store_facts(&self) -> Option<StoreFacts> {
        Some(self.facts)
    }
}

/// Full telemetry-chunk decodes in a registry delta, on demand and
/// prefetch threads: demand misses that found no prefetched chunk, plus
/// every prefetch.
pub fn telemetry_decodes(delta: &Snapshot) -> u64 {
    let counter = |name| delta.counter(name).unwrap_or(0);
    let prefetched = delta
        .histogram("store.prefetch.decode_ns")
        .map_or(0, |h| h.count);
    counter("store.cache.misses").saturating_sub(counter("store.prefetch.hits")) + prefetched
}

// ---------------------------------------------------------------------
// stream_ingest

struct StreamIngest {
    input: Input,
    generated: Option<GeneratedTrace>,
    iterations: u32,
    /// Samples the last clean drive offered.
    clean_offered: u64,
    /// Pattern shares classified from the last clean session.
    live_shares: Option<[cloudscope::analysis::PatternShares; 2]>,
}

impl StreamIngest {
    fn new(input: Input) -> Self {
        Self {
            input,
            generated: None,
            iterations: 0,
            clean_offered: 0,
            live_shares: None,
        }
    }
}

impl Workload for StreamIngest {
    fn setup(&mut self, cx: &mut Ctx) -> Result<(), String> {
        self.generated = Some(cx.call_ok("tracegen.generate", || {
            generate_with(&self.input.config(), self.input.par)
        }));
        Ok(())
    }

    fn iterate(&mut self, cx: &mut Ctx) -> Result<Outcome, String> {
        let root = cx.begin("bench.iteration");
        let trace = &self.generated.as_ref().ok_or("set-up did not run")?.trace;
        let classifier = PatternClassifier::default();
        let config = IngestConfig::default();
        let max = ReportConfig::default().max_classified_vms;
        self.iterations += 1;
        let dir = |kind: &str| {
            self.input
                .tmp
                .join(format!("kb-{kind}-{}", self.iterations))
        };
        let mut digest = Digest::default();

        // Clean stream into a fresh durable KB.
        let clean_kb = cx
            .call("kb.open", || DurableKb::open(dir("clean")))
            .ok_or("the clean KB could not be created")?;
        let clean = cx.call_ok("ingest.drive_clean", || {
            drive_ingest(
                trace,
                &FaultPlan::clean(self.input.seed),
                &config,
                &classifier,
                &clean_kb,
            )
        });
        let clean_report = *clean.session.report();
        cx.check(
            clean_report.samples_offered == clean_report.samples_applied
                && clean.pipeline_stats.failed == 0,
            || format!("clean stream lost samples or entries: {clean_report:?}"),
        );
        let live = [CloudKind::Private, CloudKind::Public].map(|cloud| {
            cx.call("analysis.fig5", || {
                pattern_shares_from(trace, &clean.session, cloud, &classifier, max)
            })
        });
        if let [Some(private), Some(public)] = live {
            self.live_shares = Some([private, public]);
        }
        digest.add(&(clean_report, live, clean.events_processed));
        let mut samples = clean_report.samples_offered;
        self.clean_offered = samples;
        drop(clean);
        drop(clean_kb);

        // Faulted stream into a second one, then snapshot, crash-free
        // restart, and the policies over the recovered KB.
        let faulted_dir = dir("faulted");
        let faulted_kb = cx
            .call("kb.open", || DurableKb::open(&faulted_dir))
            .ok_or("the faulted KB could not be created")?;
        let faulted = cx.call_ok("ingest.drive_faulted", || {
            drive_ingest(
                trace,
                &FaultPlan::standard(self.input.seed),
                &config,
                &classifier,
                &faulted_kb,
            )
        });
        let report = *faulted.session.report();
        samples += report.samples_offered;
        cx.check(
            report.samples_offered
                == report.samples_applied
                    + report.rejected_invalid
                    + report.out_of_week
                    + report.dropped_late,
            || format!("ingest ledger does not balance: {report:?}"),
        );
        cx.check(faulted.pipeline_stats.failed == 0, || {
            format!("KB publication failed: {:?}", faulted.pipeline_stats)
        });
        digest.add(&(report, faulted.fault_report, faulted.events_processed));
        drop(faulted);

        cx.call("kb.snapshot", || faulted_kb.snapshot());
        let acknowledged = KbQuery::all().collect(faulted_kb.kb());
        drop(faulted_kb);
        let recovered = cx
            .call("kb.recovery", || DurableKb::open(&faulted_dir))
            .ok_or("the faulted KB could not be reopened")?;
        let entries = KbQuery::all().collect(recovered.kb());
        cx.check(entries == acknowledged, || {
            format!(
                "recovery returned {} entries, {} were acknowledged",
                entries.len(),
                acknowledged.len()
            )
        });
        cx.call("kb.check_consistency", || {
            recovered.kb().check_consistency()
        });
        let recommendations = cx.call_ok("mgmt.policy_engine", || {
            PolicyEngine::standard().run(recovered.kb())
        });
        digest.add(&(&entries, &recommendations));
        let out = Outcome {
            digest: digest.value(),
            samples,
            shape_checks_held: 0,
            kb_entries: entries.len(),
            recommendations: recommendations.iter().map(|(_, r)| r.len()).sum(),
        };
        drop(recovered);
        for kind in ["clean", "faulted"] {
            let dir = dir(kind);
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("removing {}: {e}", dir.display()))?;
        }
        cx.end(root);
        Ok(out)
    }

    /// The service's own cost per sample without the simulator around
    /// it: every VM's series offered in hourly rounds, each followed by
    /// a watermark advance.
    fn probes(&mut self, cx: &mut Ctx) -> Result<(), String> {
        use cloudscope::faults::WireSample;
        use cloudscope::ingest::Ingestor;
        use cloudscope::model::time::{
            MINUTES_PER_HOUR, MINUTES_PER_WEEK, SAMPLE_INTERVAL_MINUTES,
        };

        let trace = &self.generated.as_ref().ok_or("set-up did not run")?.trace;
        let series: Vec<_> = trace
            .vms()
            .iter()
            .filter_map(|vm| Some((vm.id, trace.util(vm.id)?)))
            .collect();
        let slots_per_hour = MINUTES_PER_HOUR / SAMPLE_INTERVAL_MINUTES;
        let offered = cx.call_ok("ingest.offer_replay", || {
            let mut ingestor = Ingestor::new(IngestConfig::default(), PatternClassifier::default());
            let mut offered = 0u64;
            for hour in 0..MINUTES_PER_WEEK / MINUTES_PER_HOUR {
                let hour_start = hour * MINUTES_PER_HOUR;
                for (vm, util) in &series {
                    let base = util.start().minutes();
                    let first = (hour_start - base).div_euclid(SAMPLE_INTERVAL_MINUTES);
                    for slot in first.max(0)..(first + slots_per_hour).max(0) {
                        if let Some(value) = util.get(slot as usize) {
                            let minute = base + slot * SAMPLE_INTERVAL_MINUTES;
                            ingestor.offer(*vm, WireSample { minute, value });
                            offered += 1;
                        }
                    }
                }
                // The closes are the simulator path's to publish; here
                // only the sealing work is wanted.
                let now = SimTime::from_minutes(hour_start + MINUTES_PER_HOUR);
                drop(ingestor.advance_watermark(now));
            }
            offered
        });
        cx.check(offered == self.clean_offered, || {
            format!(
                "ingest.offer_replay offered {offered} samples, the clean drive {}",
                self.clean_offered
            )
        });
        Ok(())
    }

    /// The clean stream saw exactly the batch samples, so its Figure 5
    /// shares must equal the batch classifier's.
    fn verify(&mut self, cx: &mut Ctx, outputs: &[Outcome]) -> Result<(), String> {
        cx.enter(Phase::Reference, 1);
        let trace = &self.generated.as_ref().ok_or("set-up did not run")?.trace;
        let classifier = PatternClassifier::default();
        let max = ReportConfig::default().max_classified_vms;
        let batch = [CloudKind::Private, CloudKind::Public].map(|cloud| {
            cx.call("analysis.fig5", || {
                pattern_shares_from(trace, trace, cloud, &classifier, max)
            })
        });
        let live = self.live_shares;
        cx.check(
            matches!((batch, live), ([Some(bp), Some(bq)], Some([lp, lq])) if bp == lp && bq == lq),
            || format!("streamed pattern shares {live:?} differ from batch {batch:?}"),
        );
        let first = outputs.first().ok_or("no timed iteration")?.digest;
        check_digests_agree(cx, outputs, first, "the first iteration's");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_shifts_peak_hours_and_nothing_else() {
        assert_eq!(peak_shift_hours(0), [0.0, 0.0]);
        assert_eq!(
            Scale::Full.config(DEFAULT_FULL_SEED),
            GeneratorConfig::default()
        );
        assert_eq!(
            Scale::Medium.config(DEFAULT_MEDIUM_SEED),
            GeneratorConfig::medium(DEFAULT_MEDIUM_SEED)
        );
        let mut seen = Vec::new();
        for seed in (0..200).chain([u64::MAX, DEFAULT_FULL_SEED]) {
            let shifts = peak_shift_hours(seed);
            assert!(shifts.iter().all(|s| (-0.5..0.5).contains(s)), "{shifts:?}");
            assert!(!seen.contains(&shifts), "seed {seed} repeats a shift");
            seen.push(shifts);

            let config = Scale::Medium.config(seed);
            assert!(config.validate().is_ok(), "seed {seed}");
            let mut unshifted = config.clone();
            let calibrated = GeneratorConfig::medium(DEFAULT_MEDIUM_SEED);
            unshifted.private.peak_hour_range = calibrated.private.peak_hour_range;
            unshifted.public.peak_hour_range = calibrated.public.peak_hour_range;
            assert_eq!(unshifted, calibrated);
        }
    }
}
