//! An explicit charge is a number the peer wrote, and the session's transcript
//! adds it up: a charge that would carry the session's byte total past `usize`
//! fails that session with a non-retryable error, before its party sees it.
//! No overflow panic, no wrapped byte count, and the endpoint and its other
//! sessions keep running.

use recon_base::rng::Xoshiro256;
use recon_base::ReconError;
use recon_graph::degree_order::DegreeOrderParams;
use recon_graph::session::{degree_order_bob, TAG_GRAPH_CHARGE};
use recon_graph::Graph;
use recon_protocol::{Endpoint, Envelope, Frame, MemoryTransport, Role, Transport};

#[test]
fn charges_past_the_session_byte_total_fail_the_session() {
    let graph = Graph::gnp(256, 0.35, &mut Xoshiro256::new(3));
    let params = DegreeOrderParams { h: 48, seed: 1 };
    let bob = || degree_order_bob(&graph, 4, &params).expect("G(256, 0.35) separates at h = 48");
    let (mut peer, transport) = MemoryTransport::pair();
    let mut endpoint = Endpoint::new(transport);
    endpoint.register(0, Role::Bob, bob()).unwrap();
    endpoint.register(1, Role::Bob, bob()).unwrap();

    for _ in 0..2 {
        let charge = Envelope::charge(TAG_GRAPH_CHARGE, "aggregate", usize::MAX, true);
        peer.send(&Frame::envelope(0, charge)).unwrap();
    }
    peer.flush().unwrap();
    endpoint.poll_ready(true, true).expect("one session's charge does not fail the endpoint");

    assert_eq!(endpoint.is_finished(1), Some(false), "the other session is untouched");
    assert_eq!(endpoint.is_finished(0), Some(true));
    let stats = endpoint.stats(0).expect("registered");
    assert_eq!((stats.messages, stats.bytes_alice_to_bob), (1, usize::MAX), "{stats:?}");
    match endpoint.take_outcome::<Graph>(0) {
        Some(Err(error @ ReconError::ResourceExhausted { .. })) => {
            assert!(!error.is_retryable(), "{error}");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
}
