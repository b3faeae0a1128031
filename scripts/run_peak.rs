//! Runs one command and prints `WALL_S PEAK_MB STATUS` on one line: its
//! wall time, the peak resident set the kernel reports for it
//! (`ru_maxrss` from `wait4`) and its raw wait status. The command's
//! own output goes to /dev/null.
//!
//!     rustc -O scripts/run_peak.rs -o run_peak
//!     ./run_peak target/release/cronets chaos --threads 1
//!
//! Linux counts in a child's peak the memory it shared with its parent
//! until its exec, so a launcher's own resident set is a floor under
//! every figure it reports. This one is a small std-only program (about
//! 2 MB resident), which lets `scripts/cmd_cost` tell commands apart
//! that peak well below a scripting runtime's own size. Linux on a
//! 64-bit target only: the `rusage` layout below is that ABI's.

use std::process::{Command, Stdio};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// Peak resident set, KiB.
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((program, rest)) = args.split_first() else {
        eprintln!("usage: run_peak PROGRAM [ARGS...]");
        std::process::exit(2);
    };
    let start = Instant::now();
    let child = Command::new(program)
        .args(rest)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("run_peak: cannot start {program}: {e}");
            std::process::exit(2);
        });
    let pid = child.id() as i32;
    // Reaped by the wait4 below, not by `Child`.
    std::mem::forget(child);
    let mut status = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is our own unreaped child, and `status` and `usage`
    // are live, writable and laid out as Linux's 64-bit ABI expects.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    assert_eq!(reaped, pid, "wait4 failed");
    let wall = start.elapsed().as_secs_f64();
    println!("{wall:.3} {:.1} {status}", usage.maxrss as f64 / 1024.0);
}
