//! Closed-batch process runner for the paper-regeneration benchmark.
//!
//! Reads one job per stdin line, `<log path>\t<program>\t<arg>...`, and
//! runs the jobs one after another: each starts when the previous one
//! has exited. For every job it prints one line to stdout,
//!
//! ```text
//! <exit code>\t<wall seconds>\t<peak RSS KiB>
//! ```
//!
//! where the exit code is `128 + signal` for a child killed by a signal.
//!
//! The peak RSS comes from `wait4` on that one child, never from a
//! `RUSAGE_CHILDREN` maximum, so it does not carry over from earlier
//! jobs. Linux charges a child's peak with its spawner's resident set
//! at `exec`; this runner stays a few MiB so that floor sits far below
//! the measured programs, where a Python spawner's would not.

use std::fs::File;
use std::io::{self, BufRead, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
/// which `ru_maxrss` (KiB) is the first.
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

/// Reaps `pid`, returning its exit code (`128 + signal` when killed)
/// and its own peak RSS in KiB.
fn reap(pid: u32) -> io::Result<(i32, i64)> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the C `int` and `struct rusage` wait4 expects on 64-bit Linux.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let signal = status & 0x7f;
    let code = if signal == 0 {
        (status >> 8) & 0xff
    } else {
        128 + signal
    };
    Ok((code, usage.maxrss))
}

fn run(line: &str) -> io::Result<(i32, f64, i64)> {
    let mut fields = line.split('\t');
    let log = fields.next().unwrap_or_default();
    let program = fields
        .next()
        .ok_or_else(|| io::Error::other(format!("job without a program: {line:?}")))?;
    let out = File::create(log)?;
    let err = out.try_clone()?;
    let started = Instant::now();
    let child = Command::new(program)
        .args(fields)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()?;
    // Reaped here with wait4, not `Child::wait`, to get its rusage.
    let (code, rss_kib) = reap(child.id())?;
    Ok((code, started.elapsed().as_secs_f64(), rss_kib))
}

fn main() -> ExitCode {
    let stdout = io::stdout();
    for line in io::stdin().lock().lines() {
        let result = line.and_then(|line| run(&line));
        match result {
            Ok((code, wall_s, rss_kib)) => {
                let mut out = stdout.lock();
                if writeln!(out, "{code}\t{wall_s:.9}\t{rss_kib}")
                    .and_then(|()| out.flush())
                    .is_err()
                {
                    return ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("perfbench-spawn: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
