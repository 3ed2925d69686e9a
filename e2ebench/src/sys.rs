//! Process and machine facts: memory high-water marks, core count, the
//! build's identity, and the directory the benchmark may write to.

use std::path::PathBuf;

/// `VmHWM` of a process in kB, from `/proc/<pid>/status`.
pub fn vm_hwm_kb(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Resets this process's `VmHWM` to its current RSS, so the peak that
/// follows excludes input generation done before the call.
pub fn reset_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// FNV-1a 64 of the running executable: the build identity. Trained
/// model directories are cached under it, so a directory is never
/// booted by a build other than the one whose trainer wrote it.
pub fn exe_fnv64() -> u64 {
    let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    explainti_core::fnv1a64(&bytes)
}

/// The commit under test, when the checkout carries git metadata.
pub fn commit() -> String {
    if let Ok(c) = std::env::var("GIT_COMMIT") {
        return c;
    }
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (checkout has no .git)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.to_string()),
        None => head.to_string(),
    }
}

/// Scratch space inside the checkout: beside the build output when
/// `CARGO_TARGET_DIR` is set, else under this package's `target/`.
pub fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("e2ebench/target"));
    base.join("e2ebench-work")
}
