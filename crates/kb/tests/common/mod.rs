//! Shared helpers for the durability integration tests: unique temp
//! directories (removed on drop), entry builders, and whole-store
//! equality assertions.

#![allow(dead_code)]

use cloudscope_analysis::UtilizationPattern;
use cloudscope_kb::knowledge::LifetimeClass;
use cloudscope_kb::{KbQuery, KnowledgeBase, WorkloadKnowledge};
use cloudscope_model::ids::SubscriptionId;
use cloudscope_model::prelude::{CloudKind, SimTime};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique directory under the system temp dir, removed on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh, empty, uniquely named directory.
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "cloudscope-kb-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // A clean slate even if a previous run leaked the name.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        Self { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A deterministic entry: every field varies with `id` so equality
/// failures are informative.
pub fn entry(id: u32) -> WorkloadKnowledge {
    entry_at(id, i64::from(id % 13))
}

/// [`entry`] with an explicit `updated_at` (for freshness-rule cases).
pub fn entry_at(id: u32, minutes: i64) -> WorkloadKnowledge {
    let patterns = [
        None,
        Some(UtilizationPattern::Diurnal),
        Some(UtilizationPattern::Stable),
        Some(UtilizationPattern::Irregular),
        Some(UtilizationPattern::HourlyPeak),
    ];
    let lifetimes = [
        LifetimeClass::MostlyShort,
        LifetimeClass::Mixed,
        LifetimeClass::MostlyLong,
    ];
    WorkloadKnowledge {
        subscription: SubscriptionId::new(id),
        cloud: if id.is_multiple_of(2) {
            CloudKind::Private
        } else {
            CloudKind::Public
        },
        pattern: patterns[id as usize % patterns.len()],
        lifetime: lifetimes[id as usize % lifetimes.len()],
        mean_util: f64::from(id) / 7.0,
        p95_util: f64::from(id) / 3.0,
        util_cv: f64::from(id % 11) / 10.0,
        regions: 1 + id as usize % 4,
        region_agnostic: match id % 3 {
            0 => None,
            1 => Some(false),
            _ => Some(true),
        },
        vm_count: 1 + id as usize % 50,
        cores: 4 * u64::from(1 + id % 16),
        updated_at: SimTime::from_minutes(minutes),
    }
}

/// Every selector the query API offers, for whole-surface comparisons.
pub fn all_queries() -> Vec<KbQuery<'static>> {
    vec![
        KbQuery::all(),
        KbQuery::spot_candidates(),
        KbQuery::shiftable(),
        KbQuery::oversubscription_candidates(CloudKind::Private),
        KbQuery::oversubscription_candidates(CloudKind::Public),
    ]
}

/// Asserts two stores hold identical committed state: same entries
/// (wholesale equality via the all-scan), same result for every typed
/// query, and internally consistent indexes on both sides.
pub fn assert_kb_equal(actual: &KnowledgeBase, expected: &KnowledgeBase, context: &str) {
    assert_eq!(actual.len(), expected.len(), "{context}: entry count");
    for query in all_queries() {
        assert_eq!(
            query.collect(actual),
            query.collect(expected),
            "{context}: query results diverge"
        );
    }
    actual
        .check_consistency()
        .unwrap_or_else(|e| panic!("{context}: recovered store inconsistent: {e}"));
    expected
        .check_consistency()
        .unwrap_or_else(|e| panic!("{context}: expected store inconsistent: {e}"));
}
