//! The few system calls the standard library does not wrap.

use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::os::unix::process::CommandExt;
use std::process::Command;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

const POLLIN: std::ffi::c_short = 0x1;
const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
const PR_SET_PDEATHSIG: std::ffi::c_int = 1;
const SIGKILL: std::ffi::c_ulong = 9;

/// Makes `cmd`'s child die with this process, so a benchmark killed
/// mid-run does not leave its daemon behind.
pub fn die_with_parent(cmd: &mut Command) {
    // SAFETY: the closure runs in the forked child before exec and only
    // makes the async-signal-safe prctl system call.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        });
    }
}

/// Lets this thread's timed waits end within a microsecond of their
/// deadline instead of the default 50 µs slack, so send lateness
/// measures the host, not the timer policy. Best effort.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the
    // slack in ns) and only changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// Waits until `stream` is readable (or hung up) or `timeout` passes.
/// `ppoll` takes a nanosecond timeout, so a send due in 100 µs is not
/// rounded up to a millisecond the way `poll` or a socket timeout would.
pub fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: std::ffi::c_long::try_from(timeout.as_secs()).unwrap_or(std::ffi::c_long::MAX),
        tv_nsec: std::ffi::c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live locals for the whole call, `nfds` is
    // 1 to match the single `PollFd`, and a null sigmask leaves the
    // thread's signal mask alone.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(rc > 0)
}
