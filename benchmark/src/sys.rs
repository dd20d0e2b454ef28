//! What the harness asks the operating system: peak memory of this
//! process, and what kind of filesystem the scratch directory sits on and
//! how much room it has.

use std::path::Path;
use std::process::Command;

/// The campaign engine's largest scratch footprint is a few hundred MB
/// (shard files + assembled output + manifest); refusing below this keeps
/// a full disk from surfacing as a torn shard halfway through a run.
pub const MIN_FREE_BYTES: u64 = 1 << 30;

/// `VmHWM` (peak resident set, kB) out of a `/proc/<pid>/status` document.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set of this process so far, in MB (kB ÷ 1024).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The filesystem type of the mount holding `dir`, from a `/proc/mounts`
/// document: the entry whose mount point is the longest prefix of `dir`.
pub fn fs_kind_in(mounts: &str, dir: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_device, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, kind)| kind.to_string())
}

/// The filesystem type under `dir` (`"unknown"` off Linux or on a path
/// that cannot be resolved) — printed so a wall-clock change can be
/// blamed on the disk when it is the disk's.
pub fn fs_kind(dir: &Path) -> String {
    let resolved = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| fs_kind_in(&mounts, &resolved))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Available kB out of `df -Pk <dir>` output (header line, then one
/// six-column POSIX row whose fourth column is the available space).
pub fn parse_df_available_kb(output: &str) -> Option<u64> {
    output
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()
}

/// Refuses to start on a scratch directory with less than
/// [`MIN_FREE_BYTES`] free. `df` is the only dependency-free way to ask;
/// where it cannot be run the check is skipped with a note, because a
/// missing tool says nothing about the disk.
pub fn require_free_space(dir: &Path) -> Result<(), String> {
    let output = match Command::new("df").arg("-Pk").arg(dir).output() {
        Ok(output) if output.status.success() => output,
        _ => {
            eprintln!("note: `df` unavailable, free-space check skipped");
            return Ok(());
        }
    };
    let kb = parse_df_available_kb(&String::from_utf8_lossy(&output.stdout))
        .ok_or_else(|| format!("unreadable `df -Pk {}` output", dir.display()))?;
    if kb.saturating_mul(1024) < MIN_FREE_BYTES {
        return Err(format!(
            "{} has {} MB free; the benchmark needs at least {} MB (use --dir)",
            dir.display(),
            kb / 1024,
            MIN_FREE_BYTES >> 20
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str =
        "Name:\tbench\nVmPeak:\t  200000 kB\nVmHWM:\t   61204 kB\nVmRSS:\t   40000 kB\n";

    #[test]
    fn vm_hwm_is_read_from_its_own_line() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(61204));
    }

    #[test]
    fn vm_hwm_rejects_missing_line_bad_number_and_other_units() {
        assert_eq!(parse_vm_hwm_kb("VmPeak:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t many kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    const MOUNTS: &str =
        "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\nproc /proc proc rw 0 0\n";

    #[test]
    fn fs_kind_picks_the_longest_mount_prefix() {
        assert_eq!(
            fs_kind_in(MOUNTS, Path::new("/dev/shm/bench")).as_deref(),
            Some("tmpfs")
        );
        assert_eq!(
            fs_kind_in(MOUNTS, Path::new("/root/repo")).as_deref(),
            Some("ext4")
        );
        // A path component, not a string prefix: /dev/shmoo is not on /dev/shm.
        assert_eq!(
            fs_kind_in(MOUNTS, Path::new("/dev/shmoo")).as_deref(),
            Some("ext4")
        );
        assert_eq!(fs_kind_in("", Path::new("/x")), None);
    }

    #[test]
    fn df_available_is_the_fourth_column_of_the_second_line() {
        let out = "Filesystem 1024-blocks Used Available Capacity Mounted on\n/dev/vda 263174212 14000000 18874368 44% /\n";
        assert_eq!(parse_df_available_kb(out), Some(18874368));
        assert_eq!(parse_df_available_kb("Filesystem 1024-blocks\n"), None);
    }
}
