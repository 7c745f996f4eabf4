//! Raw OS readiness primitives: `epoll` (Linux), `poll(2)` (any Unix), and the
//! few descriptor chores around them (`O_NONBLOCK`, raw-fd I/O for stdio).
//!
//! The workspace builds with no external crates, so the bindings are declared
//! here directly against the C library every Rust std program already links.
//! This is the one module in its crate where `unsafe` is allowed: every call
//! either passes buffers whose lengths are taken from live Rust slices or
//! manipulates descriptors this module owns, and everything above it speaks
//! safe Rust.

// The only unsafe code in this crate: FFI calls into the C library, each
// operating strictly on caller-provided slices or owned descriptors.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short, c_ulong, c_void};

// ---------------------------------------------------------------------------
// C library declarations
// ---------------------------------------------------------------------------

/// `struct pollfd` from `<poll.h>`. Identical layout on every Unix.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// Descriptor to watch (negative entries are ignored by the kernel).
    pub fd: c_int,
    /// Requested events ([`POLLIN`] / [`POLLOUT`]).
    pub events: c_short,
    /// Returned events.
    pub revents: c_short,
}

/// Readable (or peer hung up with data still buffered).
pub const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub const POLLOUT: c_short = 0x004;
/// Error condition (always reported, never requested).
pub const POLLERR: c_short = 0x008;
/// Peer hung up (always reported, never requested).
pub const POLLHUP: c_short = 0x010;

/// `struct epoll_event` from `<sys/epoll.h>`. The kernel ABI packs it on
/// x86_64 only; every other architecture uses natural alignment.
#[cfg(target_os = "linux")]
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    /// Ready/requested event mask ([`EPOLLIN`] / [`EPOLLOUT`] / ...).
    pub events: u32,
    /// Caller-chosen token handed back verbatim with each event.
    pub data: u64,
}

/// Readable.
#[cfg(target_os = "linux")]
pub const EPOLLIN: u32 = 0x001;
/// Writable.
#[cfg(target_os = "linux")]
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported).
#[cfg(target_os = "linux")]
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported).
#[cfg(target_os = "linux")]
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half — reading will drain then return EOF.
#[cfg(target_os = "linux")]
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery: report each readiness transition once instead of
/// re-reporting while the condition holds. A consumer must drain the
/// descriptor to `WouldBlock` on every event or risk never hearing again.
#[cfg(target_os = "linux")]
pub const EPOLLET: u32 = 1 << 31;

#[cfg(target_os = "linux")]
const EPOLL_CTL_ADD: c_int = 1;
#[cfg(target_os = "linux")]
const EPOLL_CTL_DEL: c_int = 2;
#[cfg(target_os = "linux")]
const EPOLL_CTL_MOD: c_int = 3;
#[cfg(target_os = "linux")]
const EPOLL_CLOEXEC: c_int = 0o2000000;

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x0004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;

    #[cfg(target_os = "linux")]
    fn epoll_create1(flags: c_int) -> c_int;
    #[cfg(target_os = "linux")]
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    #[cfg(target_os = "linux")]
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

fn cvt(res: c_int) -> io::Result<c_int> {
    if res < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(res)
    }
}

// ---------------------------------------------------------------------------
// Safe wrappers
// ---------------------------------------------------------------------------

/// A descriptor this module owns and closes on drop (the epoll instance).
#[derive(Debug)]
pub struct OwnedSysFd(RawFd);

impl OwnedSysFd {
    /// The raw descriptor number.
    pub fn raw(&self) -> RawFd {
        self.0
    }
}

impl Drop for OwnedSysFd {
    fn drop(&mut self) {
        // Nothing useful to do with a close error on an fd we own exclusively.
        unsafe { close(self.0) };
    }
}

/// A new epoll instance (close-on-exec).
#[cfg(target_os = "linux")]
pub fn epoll_create() -> io::Result<OwnedSysFd> {
    let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
    Ok(OwnedSysFd(fd))
}

#[cfg(target_os = "linux")]
fn epoll_ctl_op(ep: &OwnedSysFd, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut event = EpollEvent { events, data: token };
    cvt(unsafe { epoll_ctl(ep.raw(), op, fd, &mut event) })?;
    Ok(())
}

/// Add `fd` to the epoll set with the given event mask and token.
#[cfg(target_os = "linux")]
pub fn epoll_add(ep: &OwnedSysFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    epoll_ctl_op(ep, EPOLL_CTL_ADD, fd, events, token)
}

/// Change `fd`'s event mask / token.
#[cfg(target_os = "linux")]
pub fn epoll_modify(ep: &OwnedSysFd, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    epoll_ctl_op(ep, EPOLL_CTL_MOD, fd, events, token)
}

/// Remove `fd` from the epoll set.
#[cfg(target_os = "linux")]
pub fn epoll_remove(ep: &OwnedSysFd, fd: RawFd) -> io::Result<()> {
    epoll_ctl_op(ep, EPOLL_CTL_DEL, fd, 0, 0)
}

/// Wait for events; `timeout_ms < 0` blocks indefinitely. Returns how many
/// entries of `events` were filled. Retries on `EINTR`.
#[cfg(target_os = "linux")]
pub fn epoll_wait_events(
    ep: &OwnedSysFd,
    events: &mut [EpollEvent],
    timeout_ms: c_int,
) -> io::Result<usize> {
    loop {
        let n =
            unsafe { epoll_wait(ep.raw(), events.as_mut_ptr(), events.len() as c_int, timeout_ms) };
        match cvt(n) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// `poll(2)` over the given descriptors; `timeout_ms < 0` blocks indefinitely.
/// Returns how many entries have non-zero `revents`. Retries on `EINTR`.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
    loop {
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        match cvt(n) {
            Ok(n) => return Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Switch `fd` to non-blocking mode (`O_NONBLOCK`), preserving its other flags.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    let flags = cvt(unsafe { fcntl(fd, F_GETFL) })?;
    if flags & O_NONBLOCK == 0 {
        cvt(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) })?;
    }
    Ok(())
}

/// Unbuffered `Read`/`Write`/`AsRawFd` over a borrowed raw descriptor.
///
/// Exists for wiring a process's own stdio pipes into a [`StreamTransport`]:
/// `std::io::Stdout` interposes a `LineWriter` whose internal buffer would hide
/// bytes from the transport's `has_pending_out` accounting (a readiness driver
/// would disarm write interest while bytes still sat in libstd's buffer), so
/// the reactor path talks to the descriptors directly. The descriptor is
/// *borrowed*: dropping this does not close it.
///
/// [`StreamTransport`]: recon_protocol::StreamTransport
#[derive(Debug)]
pub struct RawFdIo(RawFd);

impl RawFdIo {
    /// Wrap an arbitrary open descriptor.
    pub fn new(fd: RawFd) -> Self {
        Self(fd)
    }

    /// The process's standard input (fd 0).
    pub fn stdin() -> Self {
        Self(0)
    }

    /// The process's standard output (fd 1).
    pub fn stdout() -> Self {
        Self(1)
    }
}

impl std::os::fd::AsRawFd for RawFdIo {
    fn as_raw_fd(&self) -> RawFd {
        self.0
    }
}

impl io::Read for RawFdIo {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = unsafe { read(self.0, buf.as_mut_ptr().cast::<c_void>(), buf.len()) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }
}

impl io::Write for RawFdIo {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = unsafe { write(self.0, buf.as_ptr().cast::<c_void>(), buf.len()) };
        if n < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(n as usize)
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::os::fd::AsRawFd;

    #[test]
    fn nonblocking_pipe_reads_would_block_when_empty() {
        let (reader, writer) = std::io::pipe().expect("os pipe");
        set_nonblocking(reader.as_raw_fd()).unwrap();
        let mut raw = RawFdIo::new(reader.as_raw_fd());
        let mut buf = [0u8; 4];
        let err = raw.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);

        let mut raw_writer = RawFdIo::new(writer.as_raw_fd());
        raw_writer.write_all(b"hiya").unwrap();
        assert_eq!(raw.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"hiya");
        // Idempotent: setting the flag again is a no-op.
        set_nonblocking(reader.as_raw_fd()).unwrap();
    }

    #[test]
    fn poll_reports_readability() {
        let (reader, mut writer) = std::io::pipe().expect("os pipe");
        let mut fds = [PollFd { fd: reader.as_raw_fd(), events: POLLIN, revents: 0 }];
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "empty pipe is not readable");
        writer.write_all(&[7]).unwrap();
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
        drop(writer);
        let mut drain = [0u8; 8];
        let mut reader = reader;
        assert_eq!(reader.read(&mut drain).unwrap(), 1);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_roundtrip_add_wait_remove() {
        let ep = epoll_create().unwrap();
        let (reader, mut writer) = std::io::pipe().expect("os pipe");
        epoll_add(&ep, reader.as_raw_fd(), EPOLLIN, 0xFEED).unwrap();

        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(epoll_wait_events(&ep, &mut events, 0).unwrap(), 0);

        writer.write_all(&[1]).unwrap();
        assert_eq!(epoll_wait_events(&ep, &mut events, 1000).unwrap(), 1);
        let (mask, token) = (events[0].events, events[0].data);
        assert_ne!(mask & EPOLLIN, 0);
        assert_eq!(token, 0xFEED);

        epoll_modify(&ep, reader.as_raw_fd(), EPOLLIN, 0xBEEF).unwrap();
        assert_eq!(epoll_wait_events(&ep, &mut events, 1000).unwrap(), 1);
        let token = events[0].data;
        assert_eq!(token, 0xBEEF);

        epoll_remove(&ep, reader.as_raw_fd()).unwrap();
        assert_eq!(epoll_wait_events(&ep, &mut events, 0).unwrap(), 0);
    }
}
