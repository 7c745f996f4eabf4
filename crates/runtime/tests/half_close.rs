//! A peer that half-closes and then never reads: the reactor must neither spin
//! on the EOF it already saw nor keep the connection past its deadline.
//!
//! The server side buffers an 8 MiB envelope, far more than the loopback
//! socket buffers take while the peer reads nothing. The peer finishes the
//! session with a `Fin`, shuts down its write half and goes silent. Once the
//! read half is at EOF only write interest stays armed, so the worker sleeps
//! in `poll(2)`; at the session deadline the undrained output retires the
//! connection with [`ReconError::Timeout`].

#![cfg(unix)]

use recon_base::ReconError;
use recon_protocol::amplify::AmplifiedSender;
use recon_protocol::{Endpoint, Envelope, Frame, Role, StreamTransport};
use recon_runtime::{Reactor, ReactorConfig};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

#[test]
fn a_half_closed_peer_that_stops_reading_times_out_without_spinning() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (stream, _) = listener.accept().expect("accept");
    stream.set_nonblocking(true).expect("nonblocking");
    let reader = stream.try_clone().expect("clone");
    let mut endpoint = Endpoint::new(StreamTransport::new(reader, stream));
    let alice = AmplifiedSender::new(1, |_| Ok(Envelope::round(1, "bulk", &vec![0u8; 8 << 20])))
        .expect("sender");
    endpoint.register(0, Role::Alice, alice).expect("register");

    let config = ReactorConfig {
        session_deadline: Some(Duration::from_millis(200)),
        ..ReactorConfig::default()
    };
    let mut reactor = Reactor::new(config).expect("reactor");
    let conn = reactor.insert(endpoint).expect("insert");

    peer.write_all(&Frame::fin(0).to_wire()).expect("send fin");
    peer.shutdown(Shutdown::Write).expect("half-close");

    let started = Instant::now();
    let (mut turns, mut eventful) = (0u64, 0u64);
    let mut finished = Vec::new();
    while finished.is_empty() && started.elapsed() < Duration::from_millis(500) {
        let touched = reactor
            .turn(Some(Duration::from_millis(50)), |_, endpoint| {
                endpoint.close_finished();
            })
            .expect("turn");
        turns += 1;
        eventful += u64::from(touched > 0);
        finished = reactor.take_finished();
    }

    let retired = finished.pop().unwrap_or_else(|| {
        panic!("still live after {:?} ({turns} turns, {eventful} with events)", started.elapsed())
    });
    assert_eq!(retired.conn, conn);
    assert!(
        matches!(retired.result, Err(ReconError::Timeout { .. })),
        "expected a timeout, got {:?}",
        retired.result
    );
    assert!(retired.endpoint.is_write_blocked(), "the peer took all of the output");
    assert!(eventful <= 20, "{eventful} of {turns} turns saw an event: the worker spun");
    drop(peer);
}
