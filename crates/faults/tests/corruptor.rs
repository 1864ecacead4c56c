//! The step-wise corruptor against the eager pipeline it replaced:
//! pulled in slices of any size, and interleaved across VMs the way the
//! streaming drive pulls it, every VM's stream must equal — sample for
//! sample and byte for byte — what exploding the whole series and then
//! corrupting the whole wire produced, with the same `FaultReport`.
//!
//! Pulled a run at a time, at random cut points and between single
//! pulls, a stream must yield what pulling it one output at a time
//! yields, leave the same ledger and leave its RNG where that left it.
//!
//! Cases are drawn from a seeded RNG rather than a shrinking framework:
//! a failure names its case seed, and re-running that one seed
//! reproduces it.

use cloudscope_faults::{
    corrupt_wire_samples, Blackout, FaultPlan, FaultReport, RunBuffer, WireCorruptor, WireRun,
    WireSample,
};
use cloudscope_model::prelude::*;
use cloudscope_model::telemetry::{MISSING_SAMPLE_BYTE, QUANT_STEPS_PER_PERCENT};
use cloudscope_model::time::{SAMPLES_PER_DAY, SAMPLES_PER_WEEK, SAMPLE_INTERVAL_MINUTES};
use cloudscope_sim::rng::RngFactory;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const CASES: u64 = 48;
const VMS_PER_CASE: u64 = 6;

/// The pre-streaming pipeline, kept verbatim as the oracle: explode the
/// series into a vector of present samples, then corrupt that vector
/// into a second one.
fn eager_wire(
    series: &UtilSeries,
    region: RegionId,
    plan: &FaultPlan,
    rng: &mut StdRng,
    report: &mut FaultReport,
) -> Vec<WireSample> {
    let base = series.start().minutes();
    let samples: Vec<WireSample> = series
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_finite())
        .map(|(i, value)| WireSample {
            minute: base + i as i64 * SAMPLE_INTERVAL_MINUTES,
            value,
        })
        .collect();
    let skew = if plan.max_clock_skew_minutes > 0 {
        rng.random_range(-plan.max_clock_skew_minutes..=plan.max_clock_skew_minutes)
    } else {
        0
    };
    let mut out = Vec::with_capacity(samples.len());
    for sample in samples {
        report.samples_in += 1;
        if plan
            .blackouts
            .iter()
            .any(|b| b.covers(region, sample.minute))
        {
            report.blackout_dropped += 1;
            continue;
        }
        if plan.drop_probability > 0.0 && rng.random_bool(plan.drop_probability) {
            report.dropped += 1;
            continue;
        }
        let mut value = sample.value;
        if plan.invalid_probability > 0.0 && rng.random_bool(plan.invalid_probability) {
            report.invalidated += 1;
            value = if rng.random_bool(0.5) {
                f32::NAN
            } else {
                -value.abs() - 1.0
            };
        }
        let delivered = WireSample {
            minute: sample.minute + skew,
            value,
        };
        out.push(delivered);
        if plan.duplicate_probability > 0.0 && rng.random_bool(plan.duplicate_probability) {
            report.duplicated += 1;
            out.push(delivered);
        }
        if out.len() >= 2
            && plan.reorder_probability > 0.0
            && rng.random_bool(plan.reorder_probability)
        {
            report.reordered += 1;
            let n = out.len();
            out.swap(n - 1, n - 2);
        }
    }
    out
}

/// Clean, standard, heavy duplication plus reordering (where the
/// reorder guard and the lookahead meet most often), and a blackout
/// across the first day boundary.
fn plans(seed: u64) -> [FaultPlan; 4] {
    let heavy = FaultPlan {
        duplicate_probability: 0.3,
        reorder_probability: 0.3,
        ..FaultPlan::standard(seed)
    };
    let mut blackout = FaultPlan::clean(seed);
    blackout.blackouts.push(Blackout {
        region: RegionId::new(0),
        start: SimTime::from_days(1) - SimDuration::from_hours(3),
        duration: SimDuration::from_hours(6),
    });
    [
        FaultPlan::clean(seed),
        FaultPlan::standard(seed),
        heavy,
        blackout,
    ]
}

/// A random series inside the week: random start and length (empty and
/// one-sample series included), with gaps at a random rate.
fn random_series(rng: &mut StdRng) -> UtilSeries {
    let len = match rng.random_range(0..4u8) {
        0 => rng.random_range(0..=3usize),
        _ => rng.random_range(0..=2 * SAMPLES_PER_DAY),
    };
    let start_slot = rng.random_range(0..=SAMPLES_PER_WEEK - len);
    let gap_rate = rng.random_range(0.0..0.6);
    let values: Vec<f32> = (0..len)
        .map(|_| {
            if rng.random_bool(gap_rate) {
                f32::NAN
            } else {
                rng.random_range(0.0f32..100.0)
            }
        })
        .collect();
    UtilSeries::from_percentages(
        SimTime::from_minutes(start_slot as i64 * SAMPLE_INTERVAL_MINUTES),
        values,
    )
}

/// How many outputs to pull next from a stream.
#[derive(Debug, Clone, Copy)]
enum Slices {
    Single,
    /// One hour of monitor cadence.
    Hourly,
    Random,
}

/// Pulls every VM's stream in slices, round-robin across the VMs (as a
/// drive's tick pulls VM by VM), until all are exhausted; returns each
/// VM's stream and the one report they all counted into.
fn pull_interleaved(
    vms: &[(UtilSeries, RegionId)],
    plan: &FaultPlan,
    slices: Slices,
    rng: &mut StdRng,
) -> (Vec<Vec<WireSample>>, FaultReport) {
    let factory = RngFactory::new(plan.seed).child("faults");
    let mut corruptors: Vec<WireCorruptor<'_>> = vms
        .iter()
        .enumerate()
        .map(|(i, (series, region))| {
            WireCorruptor::new(
                series.clone(),
                *region,
                plan,
                factory.indexed_stream("vm", i as u64),
            )
        })
        .collect();
    let mut report = FaultReport::default();
    let mut streams = vec![Vec::new(); vms.len()];
    let mut live = vec![true; vms.len()];
    while live.contains(&true) {
        for (i, corruptor) in corruptors.iter_mut().enumerate() {
            if !live[i] {
                continue;
            }
            let want = match slices {
                Slices::Single => 1,
                Slices::Hourly => 12,
                Slices::Random => rng.random_range(0..=40usize),
            };
            for _ in 0..want {
                match corruptor.next_sample(&mut report) {
                    Some(sample) => streams[i].push(sample),
                    None => {
                        live[i] = false;
                        break;
                    }
                }
            }
        }
    }
    for corruptor in &mut corruptors {
        assert!(
            corruptor.next_sample(&mut report).is_none(),
            "an exhausted stream stays exhausted"
        );
    }
    (streams, report)
}

/// Byte-level equality: NaN readings compare by their bits.
fn bits(stream: &[WireSample]) -> Vec<(i64, u32)> {
    stream
        .iter()
        .map(|s| (s.minute, s.value.to_bits()))
        .collect()
}

#[test]
fn pulled_streams_equal_the_eager_pipeline() {
    let mut swaps = 0;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0_44_u64 ^ case);
        let vms: Vec<(UtilSeries, RegionId)> = (0..VMS_PER_CASE)
            .map(|_| {
                let region = RegionId::new(rng.random_range(0..2u32));
                (random_series(&mut rng), region)
            })
            .collect();
        for plan in plans(rng.random()) {
            let factory = RngFactory::new(plan.seed).child("faults");
            let mut want_report = FaultReport::default();
            let mut collected_report = FaultReport::default();
            let mut want = Vec::new();
            for (i, (series, region)) in vms.iter().enumerate() {
                let mut eager_rng = factory.indexed_stream("vm", i as u64);
                let mut rng = factory.indexed_stream("vm", i as u64);
                want.push(eager_wire(
                    series,
                    *region,
                    &plan,
                    &mut eager_rng,
                    &mut want_report,
                ));
                let collected =
                    corrupt_wire_samples(series, *region, &plan, &mut rng, &mut collected_report);
                assert_eq!(bits(&collected), bits(&want[i]), "case {case} vm {i}");
                assert_eq!(rng, eager_rng, "case {case} vm {i}: RNG left elsewhere");
            }
            assert_eq!(collected_report, want_report, "case {case}");
            swaps += want_report.reordered;
            for slices in [Slices::Single, Slices::Hourly, Slices::Random] {
                let (got, report) = pull_interleaved(&vms, &plan, slices, &mut rng);
                for (i, (got, want)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(bits(got), bits(want), "case {case} vm {i} {slices:?}");
                }
                assert_eq!(report, want_report, "case {case} {slices:?}");
            }
        }
    }
    assert!(swaps > 1_000, "the heavy plan must reorder often: {swaps}");
}

/// The outputs a run stands for, in transmission order.
fn outputs_of(run: WireRun<'_>) -> Vec<WireSample> {
    match run {
        WireRun::Levels {
            first_minute,
            levels,
            samples,
        } => {
            let outputs: Vec<WireSample> = (0i64..)
                .zip(levels)
                .filter(|&(_, &q)| q != MISSING_SAMPLE_BYTE)
                .map(|(i, &q)| WireSample {
                    minute: first_minute + i * SAMPLE_INTERVAL_MINUTES,
                    value: f32::from(q) / QUANT_STEPS_PER_PERCENT,
                })
                .collect();
            assert_eq!(outputs.len(), samples, "a levels run counts its outputs");
            outputs
        }
        WireRun::Samples(samples) => samples.to_vec(),
    }
}

#[test]
fn run_pulls_equal_single_pulls() {
    let mut levels_runs = 0;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x52_55_4E_u64 ^ case);
        for plan in plans(rng.random()) {
            let factory = RngFactory::new(plan.seed).child("faults");
            for vm in 0..VMS_PER_CASE {
                let series = random_series(&mut rng);
                let region = RegionId::new(rng.random_range(0..2u32));
                let at = format!("case {case} vm {vm} {plan:?}");

                let mut want_rng = factory.indexed_stream("vm", vm);
                let mut want_report = FaultReport::default();
                let mut single = WireCorruptor::new(series.clone(), region, &plan, &mut want_rng);
                let want: Vec<WireSample> =
                    std::iter::from_fn(|| single.next_sample(&mut want_report)).collect();

                let mut got_rng = factory.indexed_stream("vm", vm);
                let mut got_report = FaultReport::default();
                let mut runs = WireCorruptor::new(series, region, &plan, &mut got_rng);
                let (mut got, mut buf) = (Vec::new(), RunBuffer::default());
                loop {
                    if rng.random_bool(0.2) {
                        // A single pull between runs: the outputs held
                        // back must come first in the next run.
                        match runs.next_sample(&mut got_report) {
                            Some(sample) => got.push(sample),
                            None => break,
                        }
                    } else {
                        let count = rng.random_range(0..=30usize);
                        let run = runs.next_run(count, &mut buf, &mut got_report);
                        levels_runs += usize::from(matches!(run, WireRun::Levels { .. }));
                        let outputs = outputs_of(run);
                        assert!(
                            outputs.len() <= count,
                            "{at}: a run holds at most its count"
                        );
                        got.extend_from_slice(&outputs);
                        if count > 0 && outputs.len() < count {
                            break;
                        }
                    }
                    assert_eq!(runs.yielded(), got.len(), "{at}: yielded count");
                }
                assert!(
                    runs.next_sample(&mut got_report).is_none(),
                    "{at}: exhausted"
                );
                drop(runs);
                assert_eq!(bits(&got), bits(&want), "{at}");
                assert_eq!(got_report, want_report, "{at}");
                assert_eq!(got_rng.next_u64(), want_rng.next_u64(), "{at}: next draw");
            }
        }
    }
    assert!(
        levels_runs > 1_000,
        "clean streams must pull levels runs: {levels_runs}"
    );
}
