//! Raw OS readiness primitives: `poll(2)` and the few descriptor chores around
//! it (`O_NONBLOCK`, raw-fd I/O for stdio).
//!
//! The workspace builds with no external crates, so the bindings are declared
//! here directly against the C library every Rust std program already links.
//! This is the one module in its crate where `unsafe` is allowed: every call
//! passes buffers whose lengths are taken from live Rust slices or sets a flag
//! on a descriptor the caller holds open, and everything above it speaks safe
//! Rust.

// The only unsafe code in this crate: FFI calls into the C library, each
// operating strictly on caller-provided slices or descriptors.
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

const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
#[cfg(target_os = "linux")]
const O_NONBLOCK: c_int = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: c_int = 0x0004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
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
}
