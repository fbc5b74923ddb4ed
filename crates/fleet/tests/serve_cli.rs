//! `mto_serve` exit codes on bad requests: every rejection is a clean
//! exit 1 naming the offending line — never a panic (exit 101).

use std::path::PathBuf;
use std::process::{Command, Output};

/// A per-test scratch directory under the system temp dir.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("mto-serve-cli-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// Writes `request` to a file in the directory, returning its path.
    fn write(&self, name: &str, request: &str) -> String {
        let path = self.0.join(name);
        std::fs::write(&path, request).unwrap();
        path.display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mto_serve")).args(args).output().unwrap()
}

fn assert_rejected(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains(needle), "expected {needle:?} in: {stderr}");
}

#[test]
fn network_parameters_outside_the_generators_domain_exit_1() {
    let scratch = Scratch::new("network");
    for network in [
        "gnp n=50 p=1.5 seed=1",
        "gnp n=50 p=-0.1 seed=1",
        "cycle n=2",
        "ws n=10 k=20 beta=0.1 seed=1",
        "ws n=10 k=4 beta=1.5 seed=1",
        "sbm blocks=2 block-size=5 p-in=2 p-out=0.1 seed=1",
    ] {
        let request = format!("# probe\nnetwork {network}\njob id=a algo=srw start=0 steps=5");
        let path = scratch.write("probe.req", &request);
        assert_rejected(&serve(&["run", &path]), "line 2:");
    }
}

#[test]
fn snapshot_names_the_fleet_directive_and_its_line() {
    let scratch = Scratch::new("snapshot");
    let path = scratch
        .write("fleet.req", "network barbell\n\nshards 2\njob id=a algo=srw start=0 steps=20");
    let to = scratch.0.join("fleet.session").display().to_string();
    let out = serve(&["snapshot", &path, "--at", "5", "--to", &to]);
    assert_rejected(&out, "line 3:");
    assert_rejected(&out, "`shards`");
}
