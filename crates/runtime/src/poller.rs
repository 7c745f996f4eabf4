//! The [`Poller`]: one blocking-wait readiness queue over many descriptors.
//!
//! Two backends implement the same four-call surface (`register`, `modify`,
//! `deregister`, `wait`):
//!
//! * **epoll** (Linux): the kernel keeps the interest set, `epoll_wait` returns
//!   only ready descriptors — O(ready), the backend a server wants.
//! * **`poll(2)`** (portable): the interest set lives in user space and is
//!   re-submitted on every wait — O(registered), but available on any Unix and
//!   the reference semantics the epoll backend is tested against.
//!
//! The backend is chosen once per [`Poller`]: epoll on Linux, `poll(2)`
//! everywhere else. [`Poller::new`] takes `Some(backend)` to pin one
//! explicitly, which is how the differential tests run both on one host.
//!
//! Delivery differs by backend, behind the same API. **epoll is always
//! edge-triggered** (`EPOLLET`): each readiness *transition* is reported once,
//! so the kernel skips re-scanning descriptors whose condition merely
//! persists — and the consumer must drain to `WouldBlock` on every event or
//! the descriptor goes silent. **`poll(2)` is level-triggered**: an event
//! repeats on every wait until the condition is consumed (read to
//! `WouldBlock`, buffered output flushed). Every consumer in this crate drains
//! fully (that is the [`Endpoint::poll_ready`] contract, and the server's
//! accept loop runs to `WouldBlock`), so both serve the same traffic — which
//! is exactly what the differential tests exercise.
//!
//! [`Endpoint::poll_ready`]: recon_protocol::Endpoint::poll_ready

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
    /// Read and write interest — armed while output is buffered.
    pub const READ_WRITE: Interest = Interest { readable: true, writable: true };
    /// Write-only interest — a separate write descriptor (pipe) with output
    /// pending.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// No interest, but hang-ups and errors are still delivered (they cannot
    /// be masked on either backend).
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

/// The readiness backend a [`Poller`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll`.
    Epoll,
    /// Portable `poll(2)`.
    Poll,
}

fn default_backend() -> Backend {
    if cfg!(target_os = "linux") {
        Backend::Epoll
    } else {
        Backend::Poll
    }
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
#[derive(Debug)]
pub struct Poller {
    imp: Imp,
}

#[derive(Debug)]
enum Imp {
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    Poll(PollPoller),
}

impl Poller {
    /// A poller on `backend`, or on the default when `None`: epoll on Linux,
    /// `poll(2)` otherwise. Requesting [`Backend::Epoll`] off Linux is an
    /// error.
    pub fn new(backend: Option<Backend>) -> io::Result<Self> {
        match backend.unwrap_or_else(default_backend) {
            #[cfg(target_os = "linux")]
            Backend::Epoll => Ok(Self { imp: Imp::Epoll(EpollPoller::new()?) }),
            #[cfg(not(target_os = "linux"))]
            Backend::Epoll => {
                Err(io::Error::new(io::ErrorKind::Unsupported, "epoll backend requires Linux"))
            }
            Backend::Poll => Ok(Self { imp: Imp::Poll(PollPoller::new()) }),
        }
    }

    /// Which backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match &self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(_) => Backend::Epoll,
            Imp::Poll(_) => Backend::Poll,
        }
    }

    /// Start watching `fd` under `token`. One registration per descriptor.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.register(fd, token, interest),
            Imp::Poll(p) => p.register(fd, token, interest),
        }
    }

    /// Re-arm `fd` with a new interest set (and token).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.modify(fd, token, interest),
            Imp::Poll(p) => p.modify(fd, token, interest),
        }
    }

    /// Stop watching `fd`.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.deregister(fd),
            Imp::Poll(p) => p.deregister(fd),
        }
    }

    /// Block until at least one registered descriptor is ready or `timeout`
    /// elapses (`None` blocks indefinitely), filling `events` with what fired.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(ep) => ep.wait(events, timeout),
            Imp::Poll(p) => p.wait(events, timeout),
        }
    }
}

// ---------------------------------------------------------------------------
// epoll backend
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
#[derive(Debug)]
struct EpollPoller {
    ep: sys::OwnedSysFd,
    scratch: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    fn new() -> io::Result<Self> {
        Ok(Self {
            ep: sys::epoll_create()?,
            scratch: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    fn mask(interest: Interest) -> u32 {
        // EPOLL_CTL_MOD re-arms an edge registration and redelivers if the
        // condition holds, so interest changes stay race-free under ET.
        let mut mask = sys::EPOLLRDHUP | sys::EPOLLET;
        if interest.readable {
            mask |= sys::EPOLLIN;
        }
        if interest.writable {
            mask |= sys::EPOLLOUT;
        }
        mask
    }

    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_add(&self.ep, fd, Self::mask(interest), token)
    }

    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_modify(&self.ep, fd, Self::mask(interest), token)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        sys::epoll_remove(&self.ep, fd)
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let n = sys::epoll_wait_events(&self.ep, &mut self.scratch, timeout_ms(timeout))?;
        for raw in &self.scratch[..n] {
            // Copy out of the (packed on x86_64) kernel struct before use.
            let (mask, token) = (raw.events, raw.data);
            events.push(Event {
                token,
                readable: mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR)
                    != 0,
                writable: mask & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// poll(2) backend
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct PollPoller {
    entries: Vec<PollEntry>,
    scratch: Vec<sys::PollFd>,
}

#[derive(Debug, Clone, Copy)]
struct PollEntry {
    fd: RawFd,
    token: u64,
    interest: Interest,
}

impl PollPoller {
    fn new() -> Self {
        Self { entries: Vec::new(), scratch: Vec::new() }
    }

    fn position(&self, fd: RawFd) -> Option<usize> {
        self.entries.iter().position(|e| e.fd == fd)
    }

    fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.position(fd).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("fd {fd} already registered"),
            ));
        }
        self.entries.push(PollEntry { fd, token, interest });
        Ok(())
    }

    fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let i = self.position(fd).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("fd {fd} not registered"))
        })?;
        self.entries[i] = PollEntry { fd, token, interest };
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self.position(fd).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("fd {fd} not registered"))
        })?;
        self.entries.swap_remove(i);
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
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

    fn backends() -> Vec<Backend> {
        let mut backends = vec![Backend::Poll];
        if cfg!(target_os = "linux") {
            backends.push(Backend::Epoll);
        }
        backends
    }

    #[test]
    fn both_backends_report_readability_with_tokens() {
        for backend in backends() {
            let mut poller = Poller::new(Some(backend)).unwrap();
            assert_eq!(poller.backend(), backend);
            let (reader, mut writer) = std::io::pipe().expect("os pipe");
            crate::sys::set_nonblocking(reader.as_raw_fd()).unwrap();
            poller.register(reader.as_raw_fd(), 42, Interest::READ).unwrap();

            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
            assert!(events.is_empty(), "{backend:?}: empty pipe must not fire");

            writer.write_all(&[9]).unwrap();
            poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert_eq!(events[0].token, 42);
            assert!(events[0].readable);

            // Hang-up surfaces as readable (EOF on the next read).
            drop(writer);
            poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
            assert!(events.iter().any(|e| e.readable), "{backend:?}: HUP must wake the reader");

            poller.deregister(reader.as_raw_fd()).unwrap();
            poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
            assert!(events.is_empty(), "{backend:?}: deregistered fd must not fire");
        }
    }

    #[test]
    fn write_interest_follows_modify() {
        for backend in backends() {
            let mut poller = Poller::new(Some(backend)).unwrap();
            let (_reader, writer) = std::io::pipe().expect("os pipe");
            crate::sys::set_nonblocking(writer.as_raw_fd()).unwrap();
            // Registered without write interest: an empty pipe is writable,
            // but nothing may fire.
            poller.register(writer.as_raw_fd(), 7, Interest::NONE).unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(0))).unwrap();
            assert!(events.is_empty(), "{backend:?}: unarmed write interest fired");

            poller.modify(writer.as_raw_fd(), 7, Interest::WRITE).unwrap();
            poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
            assert_eq!(events.len(), 1, "{backend:?}");
            assert!(events[0].writable);
        }
    }

    #[test]
    fn poll_backend_rejects_duplicate_and_unknown_fds() {
        let mut poller = Poller::new(Some(Backend::Poll)).unwrap();
        let (reader, _writer) = std::io::pipe().expect("os pipe");
        poller.register(reader.as_raw_fd(), 1, Interest::READ).unwrap();
        assert!(poller.register(reader.as_raw_fd(), 2, Interest::READ).is_err());
        assert!(poller.modify(9999, 1, Interest::READ).is_err());
        assert!(poller.deregister(9999).is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_reports_each_transition_once() {
        use std::io::Read as _;

        let mut poller = Poller::new(Some(Backend::Epoll)).unwrap();
        let (mut reader, mut writer) = std::io::pipe().expect("os pipe");
        crate::sys::set_nonblocking(reader.as_raw_fd()).unwrap();
        poller.register(reader.as_raw_fd(), 1, Interest::READ).unwrap();

        writer.write_all(&[1, 2, 3]).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1, "first wait sees the data");

        // Without consuming the data, wait again: edge delivery stays silent
        // until the next transition.
        poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
        assert!(events.is_empty(), "an unconsumed condition must not repeat");

        // After draining to WouldBlock, new data is a fresh transition.
        let mut buf = [0u8; 16];
        assert_eq!(reader.read(&mut buf).unwrap(), 3);
        writer.write_all(&[4]).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1, "new data is a new edge");

        // EPOLL_CTL_MOD re-arms: data still unread + re-arm => redelivery
        // (this is what makes interest flips safe).
        poller.modify(reader.as_raw_fd(), 1, Interest::READ).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(events.len(), 1, "MOD redelivers pending readiness");
    }

    #[test]
    fn timeout_rounds_up_not_down() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(10))), 10);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
    }
}
