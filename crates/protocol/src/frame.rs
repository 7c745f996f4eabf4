//! Length-delimited, session-tagged framing for multiplexed transports.
//!
//! A [`Frame`] is what actually travels on a shared byte stream: the id of the
//! session it belongs to plus either one protocol [`Envelope`] or a session
//! control marker ([`FrameBody::Fin`], "this session is finished on my side").
//! Frames let one [`Transport`](crate::Transport) carry many concurrent
//! [`Endpoint`](crate::Endpoint) sessions: the session id routes each envelope
//! to its own party state machine, and the outer length prefix makes the stream
//! self-synchronizing under partial reads.
//!
//! On the wire a frame is `uvarint(body_len) ++ body` where the body is
//! `uvarint(session_id) ++ u8 kind ++ [envelope bytes]`, all encoded through
//! [`recon_base::wire`]. The [`FrameDecoder`] reassembles frames incrementally
//! from arbitrarily chopped byte chunks, distinguishing "need more bytes"
//! (truncation mid-frame) from genuinely malformed input.
//!
//! ## Checked frames
//!
//! A frame may optionally carry a keyed checksum trailer: the kind byte gets
//! the [`FRAME_CHECKED_BIT`] set and the body is followed by 8 little-endian
//! bytes of [`recon_base::hash::hash_bytes`] over everything before the
//! trailer (session id, flagged kind byte, payload), keyed by a value both
//! endpoints agreed on out of band. A corrupted checked frame surfaces as a
//! structured [`ReconError::ChecksumMismatch`] instead of silent garbage or a
//! decode panic deeper in the stack. Checked frames are **off by default**
//! and negotiated per connection via [`FrameBody::Hello`] (see
//! [`Endpoint::offer_integrity`](crate::Endpoint::offer_integrity)), so the
//! wire format is unchanged for endpoints that never opt in.

use crate::envelope::Envelope;
use recon_base::hash::hash_bytes;
use recon_base::wire::{
    read_uvarint, uvarint_len, write_uvarint, Claimed, Decode, Encode, WireError,
};
use recon_base::ReconError;

/// Identifier of one multiplexed session on a shared transport. Both endpoints
/// of a link must agree on the id when registering the two halves of a session.
pub type SessionId = u64;

/// The content of a frame: a protocol envelope or a session-control marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameBody {
    /// One protocol message belonging to the frame's session.
    Envelope(Envelope),
    /// The sending endpoint has finished this session (its party produced its
    /// output or failed terminally). Uncharged, like [`Meter::Control`]
    /// envelopes: coordination the paper's accounting excludes.
    ///
    /// [`Meter::Control`]: crate::Meter::Control
    Fin,
    /// Connection-level handshake, sent (at most once, first) on session id 0.
    /// `checksums: true` offers checked frames; a peer that also offered
    /// enables the checksum trailer on its outgoing frames when it sees this.
    /// Endpoints that never offer send no Hello at all, keeping the wire
    /// byte-identical to pre-handshake versions.
    Hello {
        /// Whether the sender wants checked frames on this connection.
        checksums: bool,
    },
}

/// One unit of a multiplexed byte stream: a session id plus a body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Which session the body belongs to.
    pub session_id: SessionId,
    /// The envelope or control marker.
    pub body: FrameBody,
}

impl Frame {
    /// A data frame carrying `envelope` for `session_id`.
    pub fn envelope(session_id: SessionId, envelope: Envelope) -> Self {
        Self { session_id, body: FrameBody::Envelope(envelope) }
    }

    /// A session-finished marker for `session_id`.
    pub fn fin(session_id: SessionId) -> Self {
        Self { session_id, body: FrameBody::Fin }
    }

    /// A connection-level handshake frame (session id 0).
    pub fn hello(checksums: bool) -> Self {
        Self { session_id: 0, body: FrameBody::Hello { checksums } }
    }

    /// Serialize with the outer length prefix, ready for a byte stream.
    pub fn to_wire(&self) -> Vec<u8> {
        length_prefixed(&self.to_bytes())
    }

    /// Append the *checked* body encoding to `buf`: the normal encoding with
    /// [`FRAME_CHECKED_BIT`] set on the kind byte, followed by the 8-byte
    /// little-endian keyed checksum over everything appended before it.
    pub fn encode_checked(&self, buf: &mut Vec<u8>, key: u64) {
        let start = buf.len();
        self.encode(buf);
        let kind_at = start + uvarint_len(self.session_id);
        buf[kind_at] |= FRAME_CHECKED_BIT;
        let checksum = hash_bytes(&buf[start..], key);
        buf.extend_from_slice(&checksum.to_le_bytes());
    }

    /// Serialize the checked encoding with the outer length prefix (which
    /// covers the trailer), ready for a byte stream.
    pub fn to_wire_checked(&self, key: u64) -> Vec<u8> {
        let mut body = Vec::new();
        self.encode_checked(&mut body, key);
        length_prefixed(&body)
    }
}

/// `body` behind its uvarint length prefix.
fn length_prefixed(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(uvarint_len(body.len() as u64) + body.len());
    write_uvarint(&mut out, body.len() as u64);
    out.extend_from_slice(body);
    out
}

const FRAME_KIND_ENVELOPE: u8 = 0;
const FRAME_KIND_FIN: u8 = 1;
const FRAME_KIND_HELLO: u8 = 2;

/// Flag bit on the kind byte marking a frame body that ends with the 8-byte
/// keyed checksum trailer.
pub const FRAME_CHECKED_BIT: u8 = 0x80;

/// Size of the keyed checksum trailer on a checked frame body.
pub const CHECKSUM_TRAILER_BYTES: usize = 8;

impl Encode for Frame {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_uvarint(buf, self.session_id);
        match &self.body {
            FrameBody::Envelope(envelope) => {
                buf.push(FRAME_KIND_ENVELOPE);
                envelope.encode(buf);
            }
            FrameBody::Fin => buf.push(FRAME_KIND_FIN),
            FrameBody::Hello { checksums } => {
                buf.push(FRAME_KIND_HELLO);
                buf.push(u8::from(*checksums));
            }
        }
    }
}

fn decode_frame_kind(kind: u8, buf: &mut &[u8]) -> Result<FrameBody, WireError> {
    Ok(match kind {
        FRAME_KIND_ENVELOPE => FrameBody::Envelope(Envelope::decode(buf)?),
        FRAME_KIND_FIN => FrameBody::Fin,
        FRAME_KIND_HELLO => match u8::decode(buf)? {
            0 => FrameBody::Hello { checksums: false },
            1 => FrameBody::Hello { checksums: true },
            _ => return Err(WireError::Invalid("hello flag")),
        },
        _ => return Err(WireError::Invalid("frame kind")),
    })
}

impl Decode for Frame {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let session_id = read_uvarint(buf)?;
        let kind = u8::decode(buf)?;
        let body = decode_frame_kind(kind, buf)?;
        Ok(Frame { session_id, body })
    }
}

/// Upper bound on a single frame's body. Far above any envelope this workspace
/// produces, but small enough that a corrupted length prefix (which typically
/// decodes to an astronomical value) fails fast instead of making the decoder
/// buffer bytes forever while waiting for a frame that will never complete.
pub const MAX_FRAME_BYTES: usize = 1 << 28; // 256 MiB

/// Capacity (bytes) a drained [`FrameDecoder`] keeps by default. Generous for
/// the workspace's steady-state envelopes, small enough that one oversized
/// frame does not pin megabytes per connection forever.
pub const DECODER_RETAIN_CAP: usize = 64 * 1024;

/// Incremental decoder reassembling [`Frame`]s from a chopped byte stream.
///
/// Feed raw bytes in with [`FrameDecoder::extend`] as they arrive from the
/// transport; [`FrameDecoder::next_frame`] yields complete frames and returns
/// `Ok(None)` while a frame is still truncated. Malformed input (a bad varint,
/// an invalid frame body, trailing garbage inside a frame's length prefix) is
/// a hard [`ReconError::Transport`]: a byte stream that lost sync cannot
/// recover. A length prefix beyond the frame cap ([`MAX_FRAME_BYTES`] by
/// default, [`FrameDecoder::set_max_frame`] to tighten per connection) is a
/// structured [`ReconError::FrameTooLarge`], and a checked frame whose
/// trailer does not match is a [`ReconError::ChecksumMismatch`] (checked
/// frames require a key via [`FrameDecoder::set_integrity_key`]).
///
/// Decoding an oversized frame grows the internal buffer; once every buffered
/// byte has been consumed the buffer is shrunk back to [`DECODER_RETAIN_CAP`]
/// so a single outlier frame does not pin its peak capacity for the
/// connection's lifetime.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    max_frame: usize,
    integrity_key: Option<u64>,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self { buf: Vec::new(), pos: 0, max_frame: MAX_FRAME_BYTES, integrity_key: None }
    }
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A decoder reusing `buf` as its backing storage (cleared), e.g. one
    /// checked out of a [`BufferPool`](crate::BufferPool).
    pub fn from_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf, ..Self::default() }
    }

    /// Take the backing buffer out (for return to a pool), leaving the decoder
    /// empty. Any unconsumed bytes are discarded — only call once the
    /// connection is done.
    pub fn take_buffer(&mut self) -> Vec<u8> {
        self.pos = 0;
        std::mem::take(&mut self.buf)
    }

    /// Tighten the per-frame body cap below [`MAX_FRAME_BYTES`]. A length
    /// prefix beyond the cap fails the connection with
    /// [`ReconError::FrameTooLarge`] *before* any bytes of the claimed body
    /// are buffered — the lever that stops a hostile peer from making a
    /// server allocate the frame it promises but never sends.
    pub fn set_max_frame(&mut self, max: usize) {
        self.max_frame = max.min(MAX_FRAME_BYTES);
    }

    /// The per-frame body cap currently in force (see [`Self::set_max_frame`]).
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Install (or clear) the key used to verify checked frames. Without a
    /// key, receiving a checked frame is a hard transport error; with one,
    /// unchecked frames are still accepted (negotiation is in flight when the
    /// first checked frames arrive).
    pub fn set_integrity_key(&mut self, key: Option<u64>) {
        self.integrity_key = key;
    }

    /// Current capacity of the internal buffer (test/diagnostic hook).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Append raw bytes received from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the consumed prefix dominates the buffer.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Try to decode the next complete frame. `Ok(None)` means the buffer holds
    /// only a truncated frame and more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ReconError> {
        let mut cursor = &self.buf[self.pos..];
        let claimed = match Claimed::decode(&mut cursor) {
            Ok(len) => len,
            Err(WireError::UnexpectedEnd) => return Ok(None),
            Err(e) => {
                return Err(ReconError::Transport(format!("bad frame length prefix: {e}")));
            }
        };
        let max = self.max_frame;
        let body_len = claimed
            .at_most(max, "frame length")
            .map_err(|_| ReconError::FrameTooLarge { len: claimed.into(), max })?;
        if cursor.len() < body_len {
            return Ok(None);
        }
        let frame = decode_body(&cursor[..body_len], self.integrity_key)?;
        self.pos = self.buf.len() - (cursor.len() - body_len);
        if self.pos == self.buf.len() {
            // Fully drained: reset cheaply, and give back the capacity an
            // oversized frame grew (`shrink_to` is a no-op below the cap).
            self.buf.clear();
            self.pos = 0;
            self.buf.shrink_to(DECODER_RETAIN_CAP);
        }
        Ok(Some(frame))
    }
}

/// Decode one complete frame body, verifying the checksum trailer when the
/// kind byte carries [`FRAME_CHECKED_BIT`].
fn decode_body(full: &[u8], key: Option<u64>) -> Result<Frame, ReconError> {
    let malformed = |e: WireError| ReconError::Transport(format!("malformed frame body: {e}"));
    // Peek past the session id at the kind byte to see whether a trailer
    // follows; the cheap unchecked path stays exactly what it was.
    let mut peek = full;
    read_uvarint(&mut peek).map_err(malformed)?;
    let Some(&kind) = peek.first() else {
        return Err(malformed(WireError::UnexpectedEnd));
    };
    if kind & FRAME_CHECKED_BIT == 0 {
        return Frame::from_bytes(full).map_err(malformed);
    }

    let Some(key) = key else {
        return Err(ReconError::Transport(
            "checked frame received but frame integrity was not negotiated".into(),
        ));
    };
    if full.len() < CHECKSUM_TRAILER_BYTES + 2 {
        return Err(ReconError::Transport(
            "checked frame too short for its checksum trailer".into(),
        ));
    }
    let (payload, trailer) = full.split_at(full.len() - CHECKSUM_TRAILER_BYTES);
    let mut got = [0u8; CHECKSUM_TRAILER_BYTES];
    got.copy_from_slice(trailer);
    let got = u64::from_le_bytes(got);
    let expected = hash_bytes(payload, key);
    if expected != got {
        return Err(ReconError::ChecksumMismatch { expected, got });
    }
    // Verified: decode the payload with the checked bit masked off the kind.
    let mut cursor = payload;
    let session_id = read_uvarint(&mut cursor).map_err(malformed)?;
    let kind = u8::decode(&mut cursor).map_err(malformed)? & !FRAME_CHECKED_BIT;
    let body = decode_frame_kind(kind, &mut cursor).map_err(malformed)?;
    if !cursor.is_empty() {
        return Err(malformed(WireError::Invalid("trailing bytes in frame body")));
    }
    Ok(Frame { session_id, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::NESTED_TAG_BIT;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::envelope(0, Envelope::round(1, "digest", &vec![1u64, 2, 3])),
            Frame::envelope(7, Envelope::parallel(NESTED_TAG_BIT | 2, "nested", &9u8)),
            Frame::envelope(u64::from(u32::MAX) + 5, Envelope::charge(3, "agg", 4096, true)),
            Frame::fin(7),
        ]
    }

    #[test]
    fn frames_roundtrip_through_the_decoder() {
        let frames = sample_frames();
        let mut decoder = FrameDecoder::new();
        for frame in &frames {
            decoder.extend(&frame.to_wire());
        }
        for expected in &frames {
            assert_eq!(decoder.next_frame().unwrap().as_ref(), Some(expected));
        }
        assert_eq!(decoder.next_frame().unwrap(), None);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn truncated_frames_wait_for_more_bytes() {
        let frame = Frame::envelope(3, Envelope::round(1, "m", &0xDEADu64));
        let wire = frame.to_wire();
        let mut decoder = FrameDecoder::new();
        for &byte in &wire[..wire.len() - 1] {
            decoder.extend(&[byte]);
            assert_eq!(decoder.next_frame().unwrap(), None, "partial frame must not decode");
        }
        decoder.extend(&wire[wire.len() - 1..]);
        assert_eq!(decoder.next_frame().unwrap(), Some(frame));
    }

    #[test]
    fn absurd_length_prefixes_are_hard_errors() {
        // A corrupted prefix claiming a multi-gigabyte frame must error now,
        // not buffer forever while "waiting" for bytes that never come.
        let mut wire = Vec::new();
        write_uvarint(&mut wire, (MAX_FRAME_BYTES as u64) + 1);
        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        assert!(matches!(
            decoder.next_frame(),
            Err(ReconError::FrameTooLarge { max: MAX_FRAME_BYTES, .. })
        ));
    }

    #[test]
    fn malformed_bodies_are_hard_errors() {
        // A frame body with an invalid kind byte.
        let mut body = Vec::new();
        write_uvarint(&mut body, 1); // session id
        body.push(9); // invalid kind
        let mut wire = Vec::new();
        write_uvarint(&mut wire, body.len() as u64);
        wire.extend_from_slice(&body);

        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        assert!(matches!(decoder.next_frame(), Err(ReconError::Transport(_))));
    }

    #[test]
    fn trailing_garbage_inside_the_length_prefix_is_rejected() {
        let frame = Frame::fin(1);
        let mut body = frame.to_bytes();
        body.push(0xFF); // garbage the length prefix claims belongs to the frame
        let mut wire = Vec::new();
        write_uvarint(&mut wire, body.len() as u64);
        wire.extend_from_slice(&body);

        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        assert!(matches!(decoder.next_frame(), Err(ReconError::Transport(_))));
    }

    #[test]
    fn checked_frames_roundtrip_and_mix_with_unchecked() {
        let key = 0xFEED_F00D_u64;
        let frames = sample_frames();
        let mut decoder = FrameDecoder::new();
        decoder.set_integrity_key(Some(key));
        // Interleave checked and unchecked encodings of the same frames: a
        // keyed decoder accepts both (negotiation is racing the first data).
        for (i, frame) in frames.iter().enumerate() {
            if i % 2 == 0 {
                decoder.extend(&frame.to_wire_checked(key));
            } else {
                decoder.extend(&frame.to_wire());
            }
        }
        for expected in &frames {
            assert_eq!(decoder.next_frame().unwrap().as_ref(), Some(expected));
        }
        assert_eq!(decoder.next_frame().unwrap(), None);
    }

    #[test]
    fn hello_frames_roundtrip() {
        for checksums in [false, true] {
            let frame = Frame::hello(checksums);
            let mut decoder = FrameDecoder::new();
            decoder.extend(&frame.to_wire());
            assert_eq!(decoder.next_frame().unwrap(), Some(frame));
        }
    }

    #[test]
    fn corrupted_checked_frames_surface_as_checksum_mismatch() {
        let key = 7u64;
        let frame = Frame::envelope(3, Envelope::round(1, "m", &vec![9u64; 16]));
        let wire = frame.to_wire_checked(key);

        // Flip one bit in every body position (skip the length prefix, whose
        // corruption is a different failure) — each must be *detected*.
        let mut body = Vec::new();
        frame.encode_checked(&mut body, key);
        let prefix = wire.len() - body.len();
        for i in prefix..wire.len() {
            let mut corrupt = wire.clone();
            corrupt[i] ^= 1 << (i % 8);
            let mut decoder = FrameDecoder::new();
            decoder.set_integrity_key(Some(key));
            decoder.extend(&corrupt);
            match decoder.next_frame() {
                Err(ReconError::ChecksumMismatch { expected, got }) => assert_ne!(expected, got),
                // Flipping the checked bit itself off routes to the unchecked
                // decoder, which then rejects the trailer as garbage.
                Err(ReconError::Transport(_)) => {}
                other => panic!("corrupted byte {i} not detected: {other:?}"),
            }
        }

        // The wrong key is also a mismatch.
        let mut decoder = FrameDecoder::new();
        decoder.set_integrity_key(Some(key ^ 1));
        decoder.extend(&wire);
        assert!(matches!(decoder.next_frame(), Err(ReconError::ChecksumMismatch { .. })));
    }

    #[test]
    fn checked_frames_without_a_key_are_rejected() {
        let frame = Frame::fin(2);
        let mut decoder = FrameDecoder::new();
        decoder.extend(&frame.to_wire_checked(11));
        match decoder.next_frame() {
            Err(ReconError::Transport(why)) => assert!(why.contains("integrity")),
            other => panic!("expected a transport error, got {other:?}"),
        }
    }

    #[test]
    fn tightened_frame_cap_is_a_structured_error() {
        let frame = Frame::envelope(1, Envelope::round(1, "m", &vec![1u64; 64]));
        let wire = frame.to_wire();
        let mut decoder = FrameDecoder::new();
        decoder.set_max_frame(16);
        decoder.extend(&wire);
        match decoder.next_frame() {
            Err(ReconError::FrameTooLarge { len, max: 16 }) => assert!(len > 16),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn decoder_releases_peak_capacity_after_an_oversized_frame() {
        // Regression: the buffer used to keep whatever capacity an outlier
        // frame forced, forever. One ~1 MiB frame must not pin ~1 MiB.
        let big = Frame::envelope(1, Envelope::round(1, "bulk", &vec![0xAB_u64; 128 * 1024]));
        let wire = big.to_wire();
        assert!(wire.len() > 1024 * 1024);

        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        assert!(decoder.capacity() >= wire.len());
        assert_eq!(decoder.next_frame().unwrap(), Some(big));
        assert_eq!(decoder.buffered(), 0);
        assert!(
            decoder.capacity() <= DECODER_RETAIN_CAP,
            "drained decoder retains {} bytes, cap is {DECODER_RETAIN_CAP}",
            decoder.capacity()
        );

        // A shrunk decoder still decodes.
        let small = Frame::fin(4);
        decoder.extend(&small.to_wire());
        assert_eq!(decoder.next_frame().unwrap(), Some(small));
    }

    #[test]
    fn decoder_buffer_roundtrips_through_a_pool_checkout() {
        let frame = Frame::envelope(9, Envelope::round(1, "m", &vec![5u64; 32]));
        let mut first = FrameDecoder::new();
        first.extend(&frame.to_wire());
        assert_eq!(first.next_frame().unwrap(), Some(frame.clone()));
        let recycled = first.take_buffer();
        let cap = recycled.capacity();
        assert!(cap > 0);

        let mut second = FrameDecoder::from_buffer(recycled);
        assert_eq!(second.capacity(), cap, "from_buffer keeps the capacity");
        assert_eq!(second.buffered(), 0, "from_buffer clears stale contents");
        second.extend(&frame.to_wire());
        assert_eq!(second.next_frame().unwrap(), Some(frame));
    }

    #[test]
    fn decoder_compacts_without_losing_data() {
        let frame = Frame::envelope(2, Envelope::round(1, "m", &vec![7u64; 600]));
        let wire = frame.to_wire();
        let mut decoder = FrameDecoder::new();
        for _ in 0..8 {
            decoder.extend(&wire);
        }
        for _ in 0..8 {
            assert_eq!(decoder.next_frame().unwrap().as_ref(), Some(&frame));
        }
        // Everything consumed; extending afterwards triggers the compaction path.
        decoder.extend(&wire);
        assert_eq!(decoder.next_frame().unwrap(), Some(frame));
        assert_eq!(decoder.next_frame().unwrap(), None);
    }
}
