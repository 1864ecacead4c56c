//! The store's bytes are pinned: a store written by today's encoder is
//! file-for-file the store the encoder wrote before its match search
//! and checksums were optimised, so each commit reads the other's
//! stores. The digests below were recorded on that earlier commit; a
//! change that moves one has changed the on-disk format.

use cloudscope_model::time::{SimTime, SAMPLES_PER_WEEK};
use cloudscope_par::Parallelism;
use cloudscope_store::codec::{compress, decompress, MAX_LEVEL};
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

/// One sub-block (128 KiB) of stored telemetry bytes: week-long series
/// of the four pattern kinds, back to back, as a samples column holds
/// them.
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
    let block = telemetry_block();
    assert_eq!(
        fnv1a(FNV_OFFSET, &block),
        0x3d0b_009b_908a_e947,
        "the corpus itself moved"
    );
    let expected: [u64; 3] = [
        0xecf2_c007_4e4f_1d9b,
        0xd2c2_871b_e257_b429,
        0xa2ac_b957_abdc_5ae1,
    ];
    for (level, want) in (1..=MAX_LEVEL).zip(expected) {
        let packed = compress(&block, level);
        assert_eq!(
            fnv1a(FNV_OFFSET, &packed),
            want,
            "level {level}: {} -> {} bytes (0x{:016x})",
            block.len(),
            packed.len(),
            fnv1a(FNV_OFFSET, &packed)
        );
        assert_eq!(decompress(&packed, block.len()).unwrap(), block);
    }
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
    // chunks, the second leaves one chunk per lane whose samples column
    // spans three sub-blocks.
    let mut config = GeneratorConfig::small(11);
    config.topology.regions.truncate(1);
    config.topology.nodes_per_rack = 40;
    config.private.subscriptions = 40;
    config.public.subscriptions = 600;
    config.private.arrival.base_rate_per_hour = 6.0;
    config.public.arrival.base_rate_per_hour = 30.0;
    let generated = generate_with(&config, Parallelism::with_workers(2));
    let geometries: [(usize, u64); 2] = [
        (128 << 10, 0x1d3c_f899_09ca_9c6b),
        (1 << 20, 0xaf79_b86f_1db0_c01e),
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
