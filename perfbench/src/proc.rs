//! Child processes: the release binaries under test, reaped with their
//! resource usage so each workload can report the peak resident memory
//! of the process that did the work.

use std::io;
use std::process::{Child, Command, ExitStatus};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// timevals, then fourteen longs of which `ru_maxrss` is the first.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How a reaped child ended, with its peak resident set.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    /// Whether the child exited normally with status 0.
    pub success: bool,
    /// The child's peak resident set size, in MiB.
    pub peak_rss_mb: f64,
}

/// Waits for `child` and returns its exit and peak RSS. `std`'s
/// `Child::wait` discards the rusage, so the child is reaped directly
/// with `wait4`. A child still running after `limit` is killed, and
/// the run fails rather than hangs.
pub fn reap(mut child: Child, limit: Duration) -> io::Result<Reaped> {
    const WNOHANG: i32 = 1;
    let pid = child.id() as i32;
    let deadline = Instant::now() + limit;
    let mut killed = false;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        let options = if killed { 0 } else { WNOHANG };
        // SAFETY: `status` and `usage` are valid, exclusively borrowed
        // out-pointers of the layouts wait4(2) writes.
        let r = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if r == pid {
            break;
        }
        if r == 0 {
            if Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            } else {
                child.kill()?;
                killed = true;
            }
            continue;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    if killed {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("child {pid} ran past {limit:?} and was killed"),
        ));
    }
    // WIFEXITED && WEXITSTATUS == 0 is exactly a zero wait status.
    Ok(Reaped {
        success: status == 0,
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// A child that is killed and reaped if it is still running when the
/// guard drops, so no error path leaves a process behind.
#[derive(Debug)]
pub struct Guard(Option<Child>);

impl Guard {
    /// Spawns `cmd` under a guard.
    pub fn spawn(cmd: &mut Command) -> io::Result<Guard> {
        Ok(Guard(Some(cmd.spawn()?)))
    }

    /// Whether the child has already exited (it is reaped if so).
    pub fn exited(&mut self) -> Option<ExitStatus> {
        self.0.as_mut().and_then(|c| c.try_wait().ok().flatten())
    }

    /// Gives up the guard and reaps the child once it exits (see
    /// [`reap`]).
    pub fn reap(mut self, limit: Duration) -> io::Result<Reaped> {
        reap(
            self.0.take().expect("guard holds its child until reaped"),
            limit,
        )
    }

    /// The child's stdout pipe, if one was requested.
    pub fn stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.0.as_mut().and_then(|c| c.stdout.take())
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
