//! Locating (or building) the `thermal-neutrons` binary the tests start.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The `thermal-neutrons` binary: `$PERFBENCH_SERVER_BIN`, else the one
/// `run.py` builds beside the benchmark, else a release build of the
/// repository into this test target's `server-for-tests` directory.
pub fn server_bin() -> PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(bin) = std::env::var_os("PERFBENCH_SERVER_BIN") {
            return PathBuf::from(bin);
        }
        // <target>/<profile>/deps/<test binary>
        let exe = std::env::current_exe().expect("test binary path");
        let target = exe
            .ancestors()
            .nth(3)
            .expect("target directory")
            .to_path_buf();
        let beside = target.join("release").join("thermal-neutrons");
        if beside.exists() {
            return beside;
        }
        let own = target.join("server-for-tests");
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--bin",
                "thermal-neutrons",
            ])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&own)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building thermal-neutrons failed");
        own.join("release").join("thermal-neutrons")
    })
    .clone()
}
