//! The [`Poller`]: one blocking-wait readiness queue over many descriptors,
//! on `poll(2)` on every Unix.
//!
//! The interest set lives in user space and is re-submitted on every wait, so
//! a wait costs O(registered) — cheap at the handful of connections a
//! worker serves at once — and `register`, `modify` and `deregister` make no
//! system call.
//!
//! Delivery is **level-triggered**: an event repeats on every wait while its
//! condition holds (unread bytes, a writable socket with write interest, EOF,
//! a hang-up). A consumer therefore watches only what it still needs: the
//! [`Reactor`](crate::Reactor) drops read interest once a read half hits EOF
//! and arms write interest only while output is buffered.

use crate::sys;
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Which readiness conditions a registration watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor becomes readable.
    pub readable: bool,
    /// Wake when the descriptor becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the resting state of every transport.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Write-only interest — a separate write descriptor (pipe) with output
    /// pending.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// No interest, but hang-ups and errors are still delivered (`poll(2)`
    /// reports them whatever the interest).
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// The descriptor is readable — or hung up / errored, which a driver
    /// discovers the same way: by reading until EOF or an error surfaces.
    pub readable: bool,
    /// The descriptor is writable — or errored, surfaced on the next write.
    pub writable: bool,
}

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        // Round up so a 100µs deadline does not busy-spin as "0 ms".
        Some(t) => t
            .as_millis()
            .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as i32,
        None => -1,
    }
}

/// A readiness queue over raw descriptors; see the module docs.
#[derive(Debug, Default)]
pub struct Poller {
    entries: Vec<PollEntry>,
    scratch: Vec<sys::PollFd>,
}

#[derive(Debug, Clone, Copy)]
struct PollEntry {
    fd: RawFd,
    token: u64,
    interest: Interest,
}

impl Poller {
    /// A poller watching nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, fd: RawFd) -> Option<usize> {
        self.entries.iter().position(|e| e.fd == fd)
    }

    fn registered(&self, fd: RawFd) -> io::Result<usize> {
        self.position(fd).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("fd {fd} not registered"))
        })
    }

    /// Start watching `fd` under `token`. One registration per descriptor.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.position(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("fd {fd} already registered"),
            ));
        }
        self.entries.push(PollEntry { fd, token, interest });
        Ok(())
    }

    /// Re-arm `fd` with a new interest set (and token).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let i = self.registered(fd)?;
        self.entries[i] = PollEntry { fd, token, interest };
        Ok(())
    }

    /// Stop watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self.registered(fd)?;
        self.entries.swap_remove(i);
        Ok(())
    }

    /// Block until at least one registered descriptor is ready or `timeout`
    /// elapses (`None` blocks indefinitely), filling `events` with what fired.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        self.scratch.clear();
        for entry in &self.entries {
            let mut mask = 0;
            if entry.interest.readable {
                mask |= sys::POLLIN;
            }
            if entry.interest.writable {
                mask |= sys::POLLOUT;
            }
            self.scratch.push(sys::PollFd { fd: entry.fd, events: mask, revents: 0 });
        }
        // With no registrations, poll(2) with nfds = 0 degrades to a pure
        // timed wait — still the kernel's clock, never a spin. In practice a
        // reactor always has at least its waker registered.
        sys::poll_fds(&mut self.scratch, timeout_ms(timeout))?;
        for (entry, pollfd) in self.entries.iter().zip(&self.scratch) {
            let revents = pollfd.revents;
            if revents == 0 {
                continue;
            }
            events.push(Event {
                token: entry.token,
                readable: revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0,
                writable: revents & (sys::POLLOUT | sys::POLLHUP | sys::POLLERR) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::os::fd::AsRawFd;

    #[test]
    fn readability_is_reported_with_tokens() {
        let mut poller = Poller::new();
        let (reader, mut writer) = std::io::pipe().expect("os pipe");
        crate::sys::set_nonblocking(reader.as_raw_fd()).unwrap();
        poller.register(reader.as_raw_fd(), 42, Interest::READ).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.is_empty(), "empty pipe must not fire");

        writer.write_all(&[9]).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        // Hang-up surfaces as readable (EOF on the next read).
        drop(writer);
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.readable), "HUP must wake the reader");

        poller.deregister(reader.as_raw_fd()).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.is_empty(), "deregistered fd must not fire");
    }

    #[test]
    fn write_interest_follows_modify() {
        let mut poller = Poller::new();
        let (_reader, writer) = std::io::pipe().expect("os pipe");
        crate::sys::set_nonblocking(writer.as_raw_fd()).unwrap();
        // Registered without write interest: an empty pipe is writable, but
        // nothing may fire.
        poller.register(writer.as_raw_fd(), 7, Interest::NONE).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
        assert!(events.is_empty(), "unarmed write interest fired");

        poller.modify(writer.as_raw_fd(), 7, Interest::WRITE).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].writable);
    }

    #[test]
    fn poll_backend_rejects_duplicate_and_unknown_fds() {
        let mut poller = Poller::new();
        let (reader, _writer) = std::io::pipe().expect("os pipe");
        poller.register(reader.as_raw_fd(), 1, Interest::READ).unwrap();
        assert!(poller.register(reader.as_raw_fd(), 2, Interest::READ).is_err());
        assert!(poller.modify(9999, 1, Interest::READ).is_err());
        assert!(poller.deregister(9999).is_err());
    }

    #[test]
    fn timeout_rounds_up_not_down() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(10))), 10);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
    }
}
