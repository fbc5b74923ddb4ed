//! Running one `mto_serve` process and timing it.

use std::fs::File;
use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::time::Instant;

/// One finished process.
#[derive(Debug)]
pub struct Finished {
    /// Exit status.
    pub status: ExitStatus,
    /// Seconds from spawn to exit.
    pub wall_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

/// Runs `program run <request>`, with stdout and stderr going to the
/// given files, and waits for it to exit.
pub fn run_serve(
    program: &Path,
    request: &Path,
    stdout: &Path,
    stderr: &Path,
) -> Result<Finished, String> {
    let out = File::create(stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
    let err = File::create(stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
    let started = Instant::now();
    let child = Command::new(program)
        .arg("run")
        .arg(request)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", program.display()))?;
    let (status, peak_rss_kib) = wait_with_rusage(child.id())?;
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Finished { status, wall_s, peak_rss_mb: peak_rss_kib as f64 / 1024.0 })
}

/// `struct timeval` on LP64 Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on LP64 Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Reaps child `pid` and returns its exit status with its peak RSS in
/// KiB — the figure `std::process::Child::wait` cannot give.
fn wait_with_rusage(pid: u32) -> Result<(ExitStatus, c_long), String> {
    let pid = c_int::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is a child this process spawned and has not
        // reaped (the `Child` handle is never waited on); `status` and
        // `usage` are live, writable, and laid out as the kernel's
        // `int` and `struct rusage`.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((ExitStatus::from_raw(status), usage.maxrss));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait4_reports_status_and_a_positive_peak_rss() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("e2ebench-spawn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("fake_serve.sh");
        std::fs::write(&script, "#!/bin/sh\necho \"$1 $2\"\nexit 3\n").unwrap();
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
        let (out, err) = (dir.join("out"), dir.join("err"));
        let f = run_serve(&script, Path::new("req"), &out, &err).unwrap();
        assert_eq!(f.status.code(), Some(3));
        assert!(f.peak_rss_mb > 0.0 && f.wall_s > 0.0);
        assert_eq!(std::fs::read_to_string(&out).unwrap(), "run req\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
