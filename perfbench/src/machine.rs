//! The machine record every result carries, and process-level probes
//! (peak RSS, CPU time) read from `/proc`.

use std::path::Path;
use std::process::Command;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let mut command = Command::new(program);
    command.args(args).current_dir(dir);
    // A checkout without git metadata must not report the revision of
    // some repository above it.
    if let Some(parent) = dir.parent() {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let out = command.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of the program's sources (`Cargo.toml`, `Cargo.lock`, and
/// every `.rs`/`.toml` file under `src/` and `crates/`), so a result
/// names the code it measured even where no git metadata exists.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("src"), &mut files);
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&file).unwrap_or_default();
        hash = fnv1a(
            &[
                &hash.to_le_bytes()[..],
                rel.as_bytes(),
                &fnv1a(&body).to_le_bytes(),
            ]
            .concat(),
        );
    }
    format!("{hash:016x}")
}

/// The machine record printed with every result, as a JSON object.
pub fn record_json(root: &Path, workload: &str, shares_cores: bool) -> String {
    let rustc = command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into());
    let git = command_line("git", &["rev-parse", "HEAD"], root)
        .unwrap_or_else(|| "none (not a git checkout)".into());
    format!(
        "{{\"machine\":{{\"workload\":\"{workload}\",\"nproc\":{},\"rustc\":\"{}\",\
         \"git_revision\":\"{}\",\"source_digest\":\"{}\",\
         \"client_and_server_share_cores\":{shares_cores}}}}}",
        nproc(),
        rustc.replace('"', "'"),
        git.replace('"', "'"),
        source_digest(root)
    )
}

/// Peak resident set size of process `pid` (`self` for this process),
/// in MiB, from `VmHWM`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds of process `pid`, from `/proc/<pid>/stat`.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / crate::sys::clock_ticks_per_second())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_probes_read_back() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        let spin: u64 = (0..5_000_000u64).fold(0, |a, x| a.wrapping_add(x * x));
        std::hint::black_box(spin);
        assert!(cpu_seconds(std::process::id()).is_some());
    }
}
