//! Facts about the host recorded beside every result, and peak memory.

use std::path::Path;

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the unified cache at `level` (2 or 3) of CPU 0, as sysfs
/// prints it (`"2048K"`), or `"unknown"`.
pub fn cache_size(level: u32) -> String {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(lvl), Some(kind)) = (read("level"), read("type")) else {
            continue;
        };
        if lvl.trim() == level.to_string() && kind.trim() == "Unified" {
            if let Some(size) = read("size") {
                return size.trim().to_string();
            }
        }
    }
    "unknown".into()
}

/// The commit the benchmark was built from: `git rev-parse HEAD` when the
/// checkout is a git repository, else `"unknown"`.
pub fn git_commit(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// size; false where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` (peak resident set) of process `pid` in KiB, 0 if unreadable.
pub fn peak_rss_kib(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak RSS of `pid` plus that of all its live descendants, in KiB.
pub fn tree_peak_rss_kib(pid: u32) -> u64 {
    let mut total = peak_rss_kib(&pid.to_string());
    // Children are listed per spawning thread.
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
        .into_iter()
        .flatten();
    for task in tasks.flatten() {
        let children = std::fs::read_to_string(task.path().join("children")).unwrap_or_default();
        for child in children.split_whitespace() {
            if let Ok(child) = child.parse() {
                total += tree_peak_rss_kib(child);
            }
        }
    }
    total
}
