//! The framed byte-stream transport an [`Endpoint`](crate::Endpoint)
//! multiplexes sessions over.
//!
//! Where [`SessionBuilder::run`](crate::SessionBuilder::run) hands one
//! session's envelopes across in memory, a [`Transport`] actually *moves* [`Frame`]s — session-tagged,
//! length-delimited envelopes — between two endpoints, and never blocks the
//! event loop: `recv` returns `Ok(None)` when no complete frame has arrived
//! yet. There is one framing implementation, [`StreamTransport`], over any
//! non-blocking `Read`/`Write` pair: a `std::net::TcpStream` with
//! `set_nonblocking(true)`, a pipe pair, or the in-process [`MemoryPipe`]s of a
//! [`MemoryTransport::pair`]. Writes are buffered and flushed opportunistically
//! so a full socket buffer never wedges the endpoint. The only other
//! implementation is the fault decorator,
//! [`FaultyTransport`](crate::fault::FaultyTransport).

use crate::frame::{Frame, FrameDecoder};
use crate::pool::ConnBuffers;
use recon_base::wire::Encode;
use recon_base::ReconError;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::rc::Rc;

/// Worst-case length of a frame's uvarint length prefix (a full `u64`). Once a
/// decoder buffers more than `max_frame` plus this, `next_frame` cannot ask
/// for more bytes: it either yields a complete frame or rejects the prefix.
const MAX_PREFIX_BYTES: usize = 10;

/// A bidirectional, non-blocking carrier of [`Frame`]s.
pub trait Transport {
    /// Queue one frame for transmission to the peer.
    fn send(&mut self, frame: &Frame) -> Result<(), ReconError>;

    /// The next complete frame from the peer, or `Ok(None)` if none has fully
    /// arrived yet. Must never block.
    fn recv(&mut self) -> Result<Option<Frame>, ReconError>;

    /// Push buffered outgoing bytes toward the peer, as far as the stream
    /// accepts them. A sent frame reaches the peer only through this.
    fn flush(&mut self) -> Result<(), ReconError>;

    /// `true` once the peer can no longer deliver frames (stream closed).
    fn is_closed(&self) -> bool;

    /// `true` while previously sent frames sit in an internal buffer waiting
    /// for the underlying stream to accept them. A readiness-driven driver
    /// uses this to decide whether to watch the stream for writability.
    fn has_pending_out(&self) -> bool;

    /// Total framed bytes handed to this transport for sending (wire encoding
    /// included) — the denominator for amortization measurements.
    fn bytes_framed_out(&self) -> u64;

    /// Total framed bytes received from the peer so far.
    fn bytes_framed_in(&self) -> u64;

    /// Install (or clear) the key used to *verify* incoming checked frames
    /// (see [`FrameDecoder::set_integrity_key`]).
    fn set_integrity_key(&mut self, key: Option<u64>);

    /// Start (or stop) appending the keyed checksum trailer to *outgoing*
    /// frames. Enabled by the endpoint once integrity negotiation completes.
    fn set_checked_out(&mut self, key: Option<u64>);

    /// Tighten the cap on a single incoming frame's body (see
    /// [`FrameDecoder::set_max_frame`]).
    fn set_max_frame(&mut self, max: usize);

    /// Queue raw, already-framed wire bytes verbatim — the escape hatch fault
    /// injection uses to deliver deliberately corrupted frames (a corruption
    /// applied *after* any checksum trailer, as a real network would). Honest
    /// code paths never need this.
    fn send_wire(&mut self, bytes: &[u8]) -> Result<(), ReconError>;
}

/// Extension for transports backed by OS streams that a readiness poller
/// (`poll(2)`) can watch.
///
/// The interest contract is fixed by the framing layer: a transport always
/// wants to know when its stream becomes *readable* (a frame may complete at
/// any time), and wants *writability* only while [`Transport::has_pending_out`]
/// reports buffered outgoing bytes — re-arming write interest on an empty
/// buffer would make a level-triggered poller spin, since a healthy socket is
/// almost always writable.
///
/// [`Pollable::read_fd`] and [`Pollable::write_fd`] may name the same
/// descriptor (a socket) or two different ones (a pipe pair); the runtime
/// registers them accordingly.
#[cfg(unix)]
pub trait Pollable {
    /// The raw descriptor readiness-to-read is observed on.
    fn read_fd(&self) -> std::os::fd::RawFd;

    /// The raw descriptor readiness-to-write is observed on. Equal to
    /// [`Pollable::read_fd`] for full-duplex streams like sockets.
    fn write_fd(&self) -> std::os::fd::RawFd;
}

#[cfg(unix)]
impl<R, W> Pollable for StreamTransport<R, W>
where
    R: Read + std::os::fd::AsRawFd,
    W: Write + std::os::fd::AsRawFd,
{
    fn read_fd(&self) -> std::os::fd::RawFd {
        self.reader.as_raw_fd()
    }

    fn write_fd(&self) -> std::os::fd::RawFd {
        self.writer.as_raw_fd()
    }
}

/// One direction of an in-process byte stream: a shared queue that accepts
/// every write and reads as [`ErrorKind::WouldBlock`] while empty, like a
/// non-blocking socket whose peer never closes. A clone is the same pipe's
/// other end.
#[derive(Debug, Default, Clone)]
pub struct MemoryPipe(Rc<RefCell<VecDeque<u8>>>);

impl Read for MemoryPipe {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut queue = self.0.borrow_mut();
        if queue.is_empty() {
            return Err(ErrorKind::WouldBlock.into());
        }
        queue.read(buf)
    }
}

impl Write for MemoryPipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A [`StreamTransport`] over [`MemoryPipe`]s: the in-process transport, with
/// the daemon's framing path and no OS resources.
pub type MemoryTransport = StreamTransport<MemoryPipe, MemoryPipe>;

impl MemoryTransport {
    /// A connected pair: frames sent on one half reach the other at the
    /// sender's next [`Transport::flush`].
    pub fn pair() -> (MemoryTransport, MemoryTransport) {
        let (a_to_b, b_to_a) = (MemoryPipe::default(), MemoryPipe::default());
        let a = StreamTransport::new(b_to_a.clone(), a_to_b.clone());
        (a, StreamTransport::new(a_to_b, b_to_a))
    }
}

/// A transport over a non-blocking byte stream (e.g. `TcpStream` after
/// `set_nonblocking(true)`, or any `Read`/`Write` pair honoring
/// [`ErrorKind::WouldBlock`]). Outgoing frames are staged in an internal buffer
/// and written as far as the stream accepts on each [`Transport::flush`].
#[derive(Debug)]
pub struct StreamTransport<R, W> {
    reader: R,
    writer: W,
    decoder: FrameDecoder,
    out_buf: VecDeque<u8>,
    scratch: Vec<u8>,
    checked_key: Option<u64>,
    max_buffered_out: Option<usize>,
    closed: bool,
    bytes_out: u64,
    bytes_in: u64,
}

impl<R: Read, W: Write> StreamTransport<R, W> {
    /// A transport reading frames from `reader` and writing them to `writer`.
    /// For a `TcpStream`, pass `try_clone()` of the stream as one half.
    pub fn new(reader: R, writer: W) -> Self {
        Self::with_buffers(reader, writer, ConnBuffers::new())
    }

    /// Like [`StreamTransport::new`], but reusing `buffers` — typically a
    /// [`BufferPool`](crate::BufferPool) checkout — as the internal decoder,
    /// output, and scratch storage. Contents are cleared; capacity is reused.
    pub fn with_buffers(reader: R, writer: W, buffers: ConnBuffers) -> Self {
        let ConnBuffers { decoder, mut out, mut scratch } = buffers;
        out.clear();
        scratch.clear();
        Self {
            reader,
            writer,
            decoder: FrameDecoder::from_buffer(decoder),
            out_buf: out,
            scratch,
            checked_key: None,
            max_buffered_out: None,
            closed: false,
            bytes_out: 0,
            bytes_in: 0,
        }
    }

    /// Extract the internal buffers for return to a pool, leaving this
    /// transport empty. Call once the connection has retired.
    pub fn take_buffers(&mut self) -> ConnBuffers {
        ConnBuffers {
            decoder: self.decoder.take_buffer(),
            out: std::mem::take(&mut self.out_buf),
            scratch: std::mem::take(&mut self.scratch),
        }
    }

    /// Cap the staged-output buffer: a send that would push it past `cap`
    /// bytes fails with [`ReconError::ResourceExhausted`] instead of growing
    /// without bound. This is the server-side defense against a peer that
    /// requests data but never reads its socket.
    pub fn set_max_buffered_out(&mut self, cap: usize) {
        self.max_buffered_out = Some(cap);
    }

    fn reserve_out(&self, additional: usize) -> Result<(), ReconError> {
        match self.max_buffered_out {
            Some(cap) if self.out_buf.len() + additional > cap => {
                Err(ReconError::ResourceExhausted { what: "buffered output bytes", limit: cap })
            }
            _ => Ok(()),
        }
    }
}

fn io_error(context: &str, e: std::io::Error) -> ReconError {
    ReconError::Transport(format!("{context}: {e}"))
}

impl<R: Read, W: Write> Transport for StreamTransport<R, W> {
    fn send(&mut self, frame: &Frame) -> Result<(), ReconError> {
        // Encode into the reused scratch instead of `to_wire()`'s fresh Vec:
        // at steady state a pooled connection sends without allocating.
        self.scratch.clear();
        match self.checked_key {
            Some(key) => frame.encode_checked(&mut self.scratch, key),
            None => frame.encode(&mut self.scratch),
        }
        // LEB128 length prefix on the stack (low 7 bits first, 0x80
        // continuation — the `write_uvarint` encoding).
        let mut prefix = [0u8; 10];
        let mut value = self.scratch.len() as u64;
        let mut len = 0;
        loop {
            let low = (value & 0x7F) as u8;
            value >>= 7;
            if value == 0 {
                prefix[len] = low;
                len += 1;
                break;
            }
            prefix[len] = low | 0x80;
            len += 1;
        }
        self.reserve_out(len + self.scratch.len())?;
        self.bytes_out += (len + self.scratch.len()) as u64;
        self.out_buf.extend(&prefix[..len]);
        self.out_buf.extend(&self.scratch);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), ReconError> {
        while !self.out_buf.is_empty() {
            let (front, _) = self.out_buf.as_slices();
            match self.writer.write(front) {
                Ok(0) => return Err(ReconError::Transport("stream closed while writing".into())),
                Ok(n) => {
                    self.out_buf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_error("stream write", e)),
            }
        }
        match self.writer.flush() {
            Ok(()) => Ok(()),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(()),
            Err(e) => Err(io_error("stream flush", e)),
        }
    }

    fn recv(&mut self) -> Result<Option<Frame>, ReconError> {
        let mut scratch = [0u8; 8192];
        while !self.closed {
            match self.reader.read(&mut scratch) {
                Ok(0) => self.closed = true,
                Ok(n) => {
                    self.bytes_in += n as u64;
                    self.decoder.extend(&scratch[..n]);
                    // A peer streaming bytes faster than we hit WouldBlock
                    // would otherwise keep this loop (and the decoder buffer)
                    // growing without the frame cap ever being consulted.
                    // Past one max-size frame plus its length prefix the
                    // decoder must either yield a frame or reject the prefix,
                    // so hand over; the caller loops back for the rest.
                    if self.decoder.buffered() > self.decoder.max_frame() + MAX_PREFIX_BYTES {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_error("stream read", e)),
            }
        }
        self.decoder.next_frame()
    }

    fn is_closed(&self) -> bool {
        self.closed
    }

    fn has_pending_out(&self) -> bool {
        !self.out_buf.is_empty()
    }

    fn bytes_framed_out(&self) -> u64 {
        self.bytes_out
    }

    fn bytes_framed_in(&self) -> u64 {
        self.bytes_in
    }

    fn set_integrity_key(&mut self, key: Option<u64>) {
        self.decoder.set_integrity_key(key);
    }

    fn set_checked_out(&mut self, key: Option<u64>) {
        self.checked_key = key;
    }

    fn set_max_frame(&mut self, max: usize) {
        self.decoder.set_max_frame(max);
    }

    fn send_wire(&mut self, bytes: &[u8]) -> Result<(), ReconError> {
        self.reserve_out(bytes.len())?;
        self.bytes_out += bytes.len() as u64;
        self.out_buf.extend(bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;

    #[test]
    fn memory_pair_delivers_frames_both_ways() {
        let (mut a, mut b) = MemoryTransport::pair();
        let f1 = Frame::envelope(1, Envelope::round(1, "m", &7u64));
        let f2 = Frame::fin(2);
        a.send(&f1).unwrap();
        b.send(&f2).unwrap();
        assert_eq!(b.recv().unwrap(), None, "a sent frame waits for its flush");
        a.flush().unwrap();
        b.flush().unwrap();
        assert_eq!(b.recv().unwrap(), Some(f1));
        assert_eq!(a.recv().unwrap(), Some(f2));
        assert_eq!(a.recv().unwrap(), None);
        assert!(a.bytes_framed_out() > 0);
        assert_eq!(a.bytes_framed_out(), b.bytes_framed_in());
        assert_eq!(b.bytes_framed_out(), a.bytes_framed_in());
    }

    #[test]
    fn stream_transport_over_an_in_memory_duplex() {
        // A Read impl that yields WouldBlock once drained, like a nonblocking socket.
        struct ChoppyReader(VecDeque<u8>);
        impl Read for ChoppyReader {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::Error::new(ErrorKind::WouldBlock, "drained"));
                }
                let n = buf.len().min(3).min(self.0.len()); // tiny chunks on purpose
                for slot in buf.iter_mut().take(n) {
                    *slot = self.0.pop_front().unwrap();
                }
                Ok(n)
            }
        }

        let frame = Frame::envelope(9, Envelope::round(4, "digest", &vec![1u64, 2, 3]));
        let mut wire = ChoppyReader(frame.to_wire().into_iter().collect());
        // Split delivery across two recv calls to exercise buffering.
        let tail = wire.0.split_off(5);
        let mut transport = StreamTransport::new(wire, Vec::new());
        assert_eq!(transport.recv().unwrap(), None, "first half only: no frame yet");
        transport.reader.0.extend(tail);
        assert_eq!(transport.recv().unwrap(), Some(frame.clone()));

        transport.send(&frame).unwrap();
        transport.flush().unwrap();
        assert_eq!(transport.writer, frame.to_wire());
    }

    #[test]
    fn checked_sends_verify_across_a_memory_pair() {
        let key = 0xA5A5_5A5A_u64;
        let (mut a, mut b) = MemoryTransport::pair();
        a.set_checked_out(Some(key));
        b.set_integrity_key(Some(key));
        let frame = Frame::envelope(4, Envelope::round(1, "m", &31u64));
        a.send(&frame).unwrap();
        a.flush().unwrap();
        assert_eq!(b.recv().unwrap(), Some(frame.clone()));

        // Corrupt one byte on the wire via raw injection: detected, not decoded.
        let mut wire = frame.to_wire_checked(key);
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        a.send_wire(&wire).unwrap();
        a.flush().unwrap();
        assert!(matches!(b.recv(), Err(ReconError::ChecksumMismatch { .. })));
    }

    #[test]
    fn stream_transport_output_cap_is_enforced() {
        let reader = std::io::empty();
        let mut transport = StreamTransport::new(reader, std::io::sink());
        transport.set_max_buffered_out(64);
        let big = Frame::envelope(1, Envelope::round(1, "bulk", &vec![0u64; 64]));
        match transport.send(&big) {
            Err(ReconError::ResourceExhausted { what, limit: 64 }) => {
                assert_eq!(what, "buffered output bytes");
            }
            other => panic!("expected ResourceExhausted, got {other:?}"),
        }
        // Small frames still fit, and flushing frees the budget for more.
        transport.send(&Frame::fin(1)).unwrap();
        transport.flush().unwrap();
        transport.send(&Frame::fin(2)).unwrap();
    }
}
