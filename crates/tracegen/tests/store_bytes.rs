//! The store's bytes are pinned: a store written by one commit is
//! file-for-file the store another commit writes from the same trace,
//! so each reads the other's stores. The digests were recorded when the
//! chunk format became v3 (one block per column, coded by its word
//! width). A change that moves one has changed the on-disk format.

use cloudscope_model::time::{SimTime, SAMPLES_PER_WEEK};
use cloudscope_par::Parallelism;
use cloudscope_store::codec::{decode, encode};
use cloudscope_store::{TelemetryMode, WriteOptions};
use cloudscope_tracegen::utilization::{generate_vm_series, PatternKind, ServiceUtilProfile};
use cloudscope_tracegen::{generate_with, read_generated, write_generated, GeneratorConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// FNV-1a, 64-bit, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 128 KiB of stored telemetry bytes: week-long series of the four
/// pattern kinds, back to back, as a samples column holds them.
fn telemetry_block() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(2023);
    let mut block = Vec::new();
    while block.len() < 128 << 10 {
        for kind in PatternKind::ALL {
            let profile = ServiceUtilProfile::sample(kind, false, &mut rng);
            let series =
                generate_vm_series(&profile, -5, SimTime::ZERO, SAMPLES_PER_WEEK, &mut rng);
            block.extend_from_slice(series.as_quantized());
        }
    }
    block.truncate(128 << 10);
    block
}

#[test]
fn compressed_telemetry_bytes_are_pinned() {
    // The samples column is stored (width 1); coded as 4- and 8-byte
    // words, the same bytes pin the varint coding of noisy words.
    let block = telemetry_block();
    assert_eq!(
        fnv1a(FNV_OFFSET, &block),
        0x3d0b_009b_908a_e947,
        "the corpus itself moved"
    );
    let digests = [1, 4, 8].map(|width| {
        let mut coded = Vec::new();
        encode(width, &block, &mut coded);
        assert_eq!(decode(width, &coded, block.len()), Ok(block.clone()));
        fnv1a(FNV_OFFSET, &coded)
    });
    assert_eq!(
        digests,
        [
            0x3d0b_009b_908a_e947,
            0xd454_f072_f6b4_7811,
            0xe811_9d9d_4de6_9adf
        ],
        "{digests:#018x?}"
    );
}

/// One digest over a store directory: every file's name and bytes, in
/// name order.
fn store_digest(dir: &std::path::Path) -> u64 {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    names.sort();
    names.iter().fold(FNV_OFFSET, |h, name| {
        let h = fnv1a(h, name.to_string_lossy().as_bytes());
        fnv1a(h, &std::fs::read(dir.join(name)).unwrap())
    })
}

#[test]
fn small_store_files_are_pinned_at_both_chunk_geometries() {
    // `small`, folded into one region so a (region, day) lane outgrows
    // 128 KiB: the first geometry splits every lane into several
    // chunks, the second leaves one chunk per lane.
    let mut config = GeneratorConfig::small(11);
    config.topology.regions.truncate(1);
    config.topology.nodes_per_rack = 40;
    config.private.subscriptions = 40;
    config.public.subscriptions = 600;
    config.private.arrival.base_rate_per_hour = 6.0;
    config.public.arrival.base_rate_per_hour = 30.0;
    let generated = generate_with(&config, Parallelism::with_workers(2));
    let geometries: [(usize, u64); 2] = [
        (128 << 10, 0x6a8b_557c_9f9a_6d01),
        (1 << 20, 0x8835_1507_643d_8225),
    ];
    for (target_chunk_bytes, want) in geometries {
        let opts = WriteOptions {
            target_chunk_bytes,
            ..WriteOptions::default()
        };
        for workers in [1, 4] {
            let par = Parallelism::with_workers(workers);
            let dir: PathBuf = std::env::temp_dir().join(format!(
                "cloudscope-store-bytes-{}-{target_chunk_bytes}-{workers}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            write_generated(&generated, &dir, opts, &par).unwrap();
            let digest = store_digest(&dir);
            let back = read_generated(&dir, TelemetryMode::Resident, &par);
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                digest, want,
                "{target_chunk_bytes}-byte chunks, {workers} workers: 0x{digest:016x}"
            );
            let back = back.unwrap();
            for vm in generated.trace.vms() {
                assert_eq!(back.trace.util(vm.id), generated.trace.util(vm.id));
            }
        }
    }
}
