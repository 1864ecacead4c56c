//! `LevelCounts` against the statistics substrate. The two live in
//! crates that do not depend on each other (`cloudscope-model`,
//! `cloudscope-stats`), so the oracle sits here, in the first crate that
//! sees both and reports what the counts compute.

use cloudscope_model::telemetry::{LevelCounts, UtilSeries};
use cloudscope_model::time::SimTime;
use cloudscope_stats::percentile::percentile;
use proptest::prelude::*;

/// A stored series: well-formed levels, runs of ties on a narrow band,
/// gaps, and bytes no quantizer emits but a decoded buffer could hold.
fn stored_series(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![0u8..=200, 40u8..=44, Just(u8::MAX), 0u8..=u8::MAX];
    prop::collection::vec(byte, 0..max_len)
}

/// The present samples of a stored series, as the float view reports them.
fn present(stored: &[u8]) -> Vec<f64> {
    UtilSeries::from_quantized(SimTime::ZERO, stored.to_vec().into())
        .iter()
        .map(f64::from)
        .filter(|v| v.is_finite())
        .collect()
}

fn counted(stored: &[u8]) -> LevelCounts {
    let mut levels = LevelCounts::new();
    levels.add(stored);
    levels
}

proptest! {
    /// Bit for bit the type-7 percentile and the mean of the present
    /// samples; nothing at all when there are none.
    #[test]
    fn percentile_and_mean_match_the_per_sample_statistics(stored in stored_series(400)) {
        let levels = counted(&stored);
        let samples = present(&stored);
        prop_assert_eq!(levels.count(), samples.len() as u64);
        if samples.is_empty() {
            prop_assert_eq!(levels.mean(), None);
            prop_assert_eq!(levels.percentile(95.0), None);
            return Ok(());
        }
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            let exact = percentile(&samples, p).expect("finite, non-empty, p in range");
            let got = levels.percentile(p).expect("non-empty");
            prop_assert_eq!(got.to_bits(), exact.to_bits(), "p{}: {} vs {}", p, got, exact);
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        prop_assert_eq!(levels.mean().map(f64::to_bits), Some(mean.to_bits()));
    }

    /// Merging two tables is counting the concatenation, either way
    /// round — the property the P² sketch this replaced never had.
    #[test]
    fn merge_equals_counting_the_concatenation(
        a in stored_series(300),
        b in stored_series(300),
    ) {
        let mut merged = counted(&a);
        merged.merge(&counted(&b));
        let mut reversed = counted(&b);
        reversed.merge(&counted(&a));
        let concatenated = counted(&[a.as_slice(), b.as_slice()].concat());
        prop_assert_eq!(&merged, &concatenated);
        prop_assert_eq!(&reversed, &concatenated);
        prop_assert_eq!(merged.percentile(95.0), concatenated.percentile(95.0));
    }
}
