//! Child processes with their peak resident memory, read from the OS.
//!
//! `std::process` reaps children without exposing `rusage`, so children
//! are reaped here with `wait4(2)`, which reports `ru_maxrss` for exactly
//! that process. Linux folds the high-water mark of the address space a
//! process had *before* `exec` into its `ru_maxrss`, and a child spawned
//! straight from this (large) process starts in this process's address
//! space. Measured programs are therefore spawned from a small launcher,
//! a fresh copy of this executable in [`LAUNCHER`] mode, so their
//! `ru_maxrss` is their own.

use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
/// fourteen `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set of the process, in bytes.
    pub max_rss_bytes: u64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// Blocks until `child` ends and reaps it. The `Child` must not be
/// waited on through `std` afterwards.
pub fn reap(child: &Child) -> io::Result<Exit> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // exact layout `wait4` fills on this target; `pid` names our own
        // unreaped child, so no other process's state is touched.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Exit {
        code,
        max_rss_bytes: u64::try_from(usage.maxrss).unwrap_or(0) * 1024,
    })
}

/// Runs `cmd` to completion; returns its exit and wall time from spawn
/// to reap.
pub fn run_timed(cmd: &mut Command) -> io::Result<(Exit, Duration)> {
    let start = Instant::now();
    let child = cmd.spawn()?;
    let exit = reap(&child)?;
    Ok((exit, start.elapsed()))
}

/// First argument that puts this executable in launcher mode:
/// `LAUNCHER REPORT PROGRAM [ARGS...]` runs PROGRAM with the launcher's
/// standard streams and writes `code max_rss_bytes wall_ns` to REPORT.
pub const LAUNCHER: &str = "--launch-measured";

/// The launcher's body; returns the process exit code.
pub fn launcher_main(args: &[String]) -> i32 {
    let [report, program, rest @ ..] = args else {
        eprintln!("{LAUNCHER} REPORT PROGRAM [ARGS...]");
        return 2;
    };
    match run_timed(Command::new(program).args(rest)) {
        Ok((exit, wall)) => {
            let line = format!(
                "{} {} {}\n",
                exit.code.unwrap_or(-1),
                exit.max_rss_bytes,
                wall.as_nanos()
            );
            match std::fs::write(report, line) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("{report}: {e}");
                    1
                }
            }
        }
        Err(e) => {
            eprintln!("{program}: {e}");
            1
        }
    }
}

/// Runs `program` through the launcher with the given standard streams;
/// returns its exit and wall time as the launcher measured them.
pub fn run_measured(
    program: &Path,
    args: &[String],
    report: &Path,
    stdout: Stdio,
    stderr: Stdio,
) -> io::Result<(Exit, Duration)> {
    let (launcher, _) = run_timed(
        Command::new(std::env::current_exe()?)
            .arg(LAUNCHER)
            .arg(report)
            .arg(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(stdout)
            .stderr(stderr),
    )?;
    if !launcher.success() {
        return Err(io::Error::other(format!(
            "launcher exited with {:?}",
            launcher.code
        )));
    }
    let text = std::fs::read_to_string(report)?;
    let mut f = text.split_whitespace().map(str::parse::<i64>);
    let mut next = || {
        f.next()
            .and_then(Result::ok)
            .ok_or_else(|| io::Error::other(format!("bad launcher report {text:?}")))
    };
    let (code, rss, wall) = (next()?, next()?, next()?);
    Ok((
        Exit {
            code: (code >= 0).then_some(code as i32),
            max_rss_bytes: rss as u64,
        },
        Duration::from_nanos(wall as u64),
    ))
}

/// Peak resident set (`VmHWM`) of a running process, in bytes.
pub fn peak_rss_of(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// Owns a running child: kills and reaps it on drop unless it was
/// reaped through [`Guard::finish`], so no benchmark exit path leaves a
/// process behind.
pub struct Guard {
    child: Option<Child>,
}

impl Guard {
    pub fn new(child: Child) -> Self {
        Self { child: Some(child) }
    }

    pub fn id(&self) -> u32 {
        self.child
            .as_ref()
            .expect("child present until finish")
            .id()
    }

    pub fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("child present until finish")
    }

    /// Waits for the child to end by itself and returns its exit code,
    /// killing it after `timeout`.
    pub fn finish(mut self, timeout: Duration) -> io::Result<Option<i32>> {
        let mut child = self.child.take().expect("child present until finish");
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = child.try_wait()? {
                return Ok(status.code());
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "process did not exit in time",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_code_and_rss() {
        let (exit, _) = run_timed(Command::new("sh").args(["-c", "exit 3"])).expect("runs");
        assert_eq!(exit.code, Some(3));
        assert!(exit.max_rss_bytes > 0);
    }
}
