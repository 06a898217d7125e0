//! The few Linux calls the standard library does not expose: `ppoll`
//! (a readiness wait with a nanosecond timeout, so the open-loop
//! generator can wake exactly when the next request is due), the
//! thread timer slack, and process CPU time.

use std::io;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::time::Duration;

/// Readable.
pub const POLLIN: c_short = 0x001;
/// Writable.
pub const POLLOUT: c_short = 0x004;
/// Error condition.
pub const POLLERR: c_short = 0x008;
/// Hung up.
pub const POLLHUP: c_short = 0x010;

/// `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor.
    pub fd: c_int,
    /// Requested events.
    pub events: c_short,
    /// Returned events.
    pub revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

const PR_SET_TIMERSLACK: c_int = 29;
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const SC_CLK_TCK: c_int = 2;

/// Waits until one of `fds` is ready or `timeout` passes (`None` waits
/// forever). Returns the number of ready descriptors; an interrupted
/// wait returns 0.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let spec = timeout.map(|t| Timespec {
        tv_sec: t.as_secs().min(i32::MAX as u64) as c_long,
        tv_nsec: t.subsec_nanos() as c_long,
    });
    let spec_ptr = spec
        .as_ref()
        .map_or(std::ptr::null(), |s| s as *const Timespec);
    // SAFETY: `fds` is a valid, exclusively borrowed slice of `pollfd`
    // structs and its length is passed alongside; `spec_ptr` is null or
    // points to a live `Timespec` on this frame; a null sigmask leaves
    // the signal mask unchanged.
    let n = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            spec_ptr,
            std::ptr::null(),
        )
    };
    if n < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(n as usize)
}

/// Sets the calling thread's timer slack (how late the kernel may fire
/// its timers) to one microsecond, so scheduled sends leave on time.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer argument and only
    // affects the calling thread; the remaining arguments are ignored.
    // A failure leaves the default slack, which is harmless.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// CPU time consumed by this process so far (all threads).
pub fn process_cpu_time() -> Duration {
    let mut spec = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `spec` is a live, writable `Timespec`; the clock id is a
    // constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut spec) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(
        spec.tv_sec.max(0) as u64,
        spec.tv_nsec.clamp(0, 999_999_999) as u32,
    )
}

/// Kernel clock ticks per second (the unit of `/proc/<pid>/stat` CPU
/// times).
pub fn clock_ticks_per_second() -> f64 {
    // SAFETY: sysconf only reads a configuration value.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}
