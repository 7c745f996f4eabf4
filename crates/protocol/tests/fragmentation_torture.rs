//! Fragmentation torture: the framing layer under a maximally hostile stream.
//!
//! A [`StreamTransport`] is wrapped around a reader that returns **one byte,
//! then `WouldBlock`, alternately** (and a writer that accepts one byte, then
//! `WouldBlock`, alternately) — the worst legal behavior of a non-blocking
//! stream short of erroring. Everything observable must be *identical* to the
//! same traffic over a [`MemoryTransport`] — the same `StreamTransport` over
//! pipes that take and give every byte at once: the decoded frame sequence,
//! every session outcome, and every per-session [`CommStats`]. The accounting
//! is a property of the protocol, not of how the bytes were chopped.

use proptest::prelude::*;
use recon_base::{CommStats, ReconError};
use recon_protocol::amplify::{AmplifiedReceiver, AmplifiedSender, Exhaust};
use recon_protocol::{
    drive_pair, Endpoint, Envelope, Frame, MemoryTransport, Party, Role, SessionId,
    StreamTransport, Transport,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::rc::Rc;

type SharedBytes = Rc<RefCell<VecDeque<u8>>>;

/// Reader returning 1 byte then `WouldBlock`, alternately.
struct ChoppyReader {
    queue: SharedBytes,
    starved: bool,
}

impl ChoppyReader {
    fn new(queue: SharedBytes) -> Self {
        // Starts un-starved: the first read delivers (if anything is queued).
        Self { queue, starved: true }
    }
}

impl Read for ChoppyReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.starved = !self.starved;
        if self.starved {
            return Err(std::io::Error::new(ErrorKind::WouldBlock, "starved on purpose"));
        }
        match self.queue.borrow_mut().pop_front() {
            Some(byte) if !buf.is_empty() => {
                buf[0] = byte;
                Ok(1)
            }
            _ => Err(std::io::Error::new(ErrorKind::WouldBlock, "drained")),
        }
    }
}

/// Writer accepting 1 byte then `WouldBlock`, alternately.
struct ChoppyWriter {
    queue: SharedBytes,
    starved: bool,
}

impl ChoppyWriter {
    fn new(queue: SharedBytes) -> Self {
        Self { queue, starved: true }
    }
}

impl Write for ChoppyWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.starved = !self.starved;
        if self.starved || buf.is_empty() {
            return Err(std::io::Error::new(ErrorKind::WouldBlock, "congested on purpose"));
        }
        self.queue.borrow_mut().push_back(buf[0]);
        Ok(1)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

type TortureTransport = StreamTransport<ChoppyReader, ChoppyWriter>;

/// A connected pair of torture transports (like `MemoryTransport::pair`).
fn torture_pair() -> (TortureTransport, TortureTransport) {
    let a_to_b: SharedBytes = Rc::default();
    let b_to_a: SharedBytes = Rc::default();
    let a = StreamTransport::new(
        ChoppyReader::new(Rc::clone(&b_to_a)),
        ChoppyWriter::new(Rc::clone(&a_to_b)),
    );
    let b = StreamTransport::new(ChoppyReader::new(a_to_b), ChoppyWriter::new(b_to_a));
    (a, b)
}

/// Decode frames from `transport` until `expected` frames arrived (or a
/// generous attempt budget runs out — each attempt moves at most one byte).
fn recv_all<T: Transport>(transport: &mut T, expected: usize, budget: usize) -> Vec<Frame> {
    let mut frames = Vec::new();
    for _ in 0..budget {
        if frames.len() == expected {
            break;
        }
        while let Some(frame) = transport.recv().expect("torture recv") {
            frames.push(frame);
        }
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The decoded frame sequence through the torture stream is byte-identical
    /// to the same wire bytes through a MemoryTransport.
    #[test]
    fn frames_survive_single_byte_trickle(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 1..8),
        fin_every in 2usize..5,
    ) {
        let (mut memory_tx, mut memory_rx) = MemoryTransport::pair();
        let (mut torture_tx, mut torture_rx) = torture_pair();

        let mut sent = Vec::new();
        for (i, payload) in payloads.iter().enumerate() {
            let frame = if i % fin_every == fin_every - 1 {
                Frame::fin(i as SessionId)
            } else {
                Frame::envelope(i as SessionId, Envelope::round(1, "torture", payload))
            };
            memory_tx.send(&frame).unwrap();
            torture_tx.send(&frame).unwrap();
            sent.push(frame);
        }
        memory_tx.flush().unwrap();
        // The torture writer accepts at most one byte per flush attempt.
        let wire_bytes: usize = sent.iter().map(|f| f.to_wire().len()).sum();
        for _ in 0..2 * wire_bytes + 4 {
            torture_tx.flush().unwrap();
        }

        let budget = 2 * wire_bytes + 8;
        let through_memory = recv_all(&mut memory_rx, sent.len(), budget);
        let through_torture = recv_all(&mut torture_rx, sent.len(), budget);
        prop_assert_eq!(&through_memory, &sent);
        prop_assert_eq!(&through_torture, &sent);
        prop_assert_eq!(
            torture_rx.bytes_framed_in(), memory_rx.bytes_framed_in(),
            "framed byte counters must agree"
        );
    }
}

/// A session pair exchanging multi-kilobyte digests with retry rounds — big
/// enough that every envelope is fragmented across hundreds of torture reads.
fn bulky_pair(
    session: u64,
    retries: u64,
) -> (impl Party<Output = ()>, impl Party<Output = Vec<u64>>) {
    let alice = AmplifiedSender::new(6, move |attempt| {
        let payload: Vec<u64> = (0..200).map(|x| x * session + attempt).collect();
        Ok(Envelope::round(1, "digest", &payload))
    })
    .expect("sender");
    let bob = AmplifiedReceiver::new(
        6,
        move |attempt, env: Envelope| {
            if attempt < retries {
                Err(ReconError::ChecksumFailure)
            } else {
                env.decode_payload::<Vec<u64>>()
            }
        },
        |_| true,
        |_| Envelope::control(2, "retry", &()),
        Exhaust::LastError,
    );
    (alice, bob)
}

/// Multiplexed sessions over the torture pair: outcomes and per-session
/// `CommStats` equal to the MemoryTransport run of the very same parties.
#[test]
fn session_stats_are_identical_to_memory_transport() {
    fn run<TA: Transport, TB: Transport>(
        mut alice_end: Endpoint<TA>,
        mut bob_end: Endpoint<TB>,
    ) -> Vec<(Vec<u64>, CommStats, CommStats)> {
        for id in 0..3u64 {
            let (alice, bob) = bulky_pair(id + 2, id % 3);
            alice_end.register(id, Role::Alice, alice).expect("register");
            bob_end.register(id, Role::Bob, bob).expect("register");
        }
        drive_pair(&mut alice_end, &mut bob_end).expect("drive");
        (0..3u64)
            .map(|id| {
                let outcome = bob_end.take_outcome::<Vec<u64>>(id).expect("finished").expect("ok");
                let alice_stats = alice_end.close(id).expect("registered");
                (outcome.recovered, outcome.stats, alice_stats)
            })
            .collect()
    }

    let (memory_a, memory_b) = MemoryTransport::pair();
    let baseline = run(Endpoint::new(memory_a), Endpoint::new(memory_b));
    let (torture_a, torture_b) = torture_pair();
    let tortured = run(Endpoint::new(torture_a), Endpoint::new(torture_b));

    for (id, ((memory_out, memory_bob, memory_alice), (torture_out, torture_bob, torture_alice))) in
        baseline.into_iter().zip(tortured).enumerate()
    {
        assert_eq!(torture_out, memory_out, "session {id}: recovered payload");
        assert_eq!(torture_bob, memory_bob, "session {id}: Bob-side CommStats");
        assert_eq!(torture_alice, memory_alice, "session {id}: Alice-side CommStats");
        assert!(memory_bob.bytes_alice_to_bob >= 1600, "payloads must actually be bulky");
    }
}

/// The byte-aware deadlock guard tolerates the torture transport's isolated
/// idle rounds but still catches a genuinely stuck pair.
#[test]
fn torture_transport_does_not_trip_the_deadlock_guard() {
    // A genuinely dead pair over torture transports: Bob waits for an Alice
    // that is not there.
    let (_, torture_b) = torture_pair();
    let (memory_a, _) = MemoryTransport::pair();
    let mut alice_end = Endpoint::new(memory_a);
    let mut bob_end = Endpoint::new(torture_b);
    let (_, bob) = bulky_pair(1, 0);
    bob_end.register(9, Role::Bob, bob).expect("register");
    match drive_pair(&mut alice_end, &mut bob_end) {
        Err(ReconError::SessionStuck { waiting_b, .. }) => assert_eq!(waiting_b, vec![9]),
        other => panic!("expected the deadlock guard, got {other:?}"),
    }
}
