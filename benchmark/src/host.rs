//! The host stamp written into every result file, and the `/proc`
//! readings behind `cpu_s` and `peak_rss_mb`. Every timing in a result
//! file is this sandbox's, not a device's: the stamp says which sandbox.

use crate::json::Json;
use cloudscope::par::Parallelism;
use std::path::Path;
use std::process::Command;

/// How the layers under test make files durable. Stated, not chosen:
/// the benchmark passes no sync option, so both sides of a comparison
/// flush identically.
pub const FLUSH_POLICY: &str = "store chunks, store manifest and KB snapshots: tmp -> fsync -> rename -> dir fsync; KB WAL appends: OS-buffered (SyncPolicy::OsBuffered)";

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// File system holding `path`: the `/proc/mounts` entry with the
/// longest mount point that prefixes it, as `"<type> on <device>"`.
fn filesystem_of(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (device, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), format!("{fstype} on {device}")))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// The stamp: hardware threads, resolved worker count, commit, rustc,
/// and the file system under the scratch directory.
pub fn stamp(tmp: &Path) -> Json {
    let unknown = || "unknown".to_owned();
    let threads = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    Json::Obj(vec![
        ("hardware_threads".into(), Json::Num(threads as f64)),
        (
            "workers".into(),
            Json::Num(Parallelism::auto().workers() as f64),
        ),
        (
            "commit".into(),
            Json::Str(
                command_line("git", &["-C", repo, "rev-parse", "HEAD"]).unwrap_or_else(unknown),
            ),
        ),
        (
            "rustc".into(),
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "os".into(),
            Json::Str(command_line("uname", &["-sr"]).unwrap_or_else(unknown)),
        ),
        ("tmp_dir".into(), Json::Str(tmp.display().to_string())),
        (
            "tmp_filesystem".into(),
            Json::Str(filesystem_of(tmp).unwrap_or_else(unknown)),
        ),
        ("flush_policy".into(), Json::Str(FLUSH_POLICY.into())),
        (
            "timings".into(),
            Json::Str(
                "wall-clock of this sandbox (shared cores, virtual disk), not of a device".into(),
            ),
        ),
    ])
}

/// User + system CPU seconds consumed by this process so far, all
/// threads, from `/proc/self/stat` (fields 14 and 15, in clock ticks —
/// 100 per second on every Linux this runs on).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis, starting with field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// `VmHWM` of this process — its peak resident set so far — in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_present_and_positive() {
        assert!(cpu_seconds().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
