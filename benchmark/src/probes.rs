//! Layer probes: single public calls timed from outside on fixed instances.
//!
//! Each probe repeats one call on one input and reports the fastest
//! repetition: the work is identical every time, so whatever made a repetition
//! slower was the host (see `stats.rs`). The instances do not depend on which
//! workload is being traced: a probe reads the same whichever `--workload` the
//! traced pass was asked for.

use crate::report::Metric;
use crate::stats::median;
use crate::workloads::daemon::{distinct_keys, preloaded_store};
use crate::workloads::sets::SetPair;
use crate::workloads::Scale;
use recon_base::hash::hash_u64_set;
use recon_base::rng::{split_seed, Xoshiro256};
use recon_base::Encode;
use recon_estimator::{L0Config, L0Estimator, Side, StrataConfig, StrataEstimator};
use recon_graph::{degree_order, Graph};
use recon_iblt::{Iblt, IbltConfig};
use recon_protocol::{Envelope, Frame, FrameDecoder};
use recon_set::{IbltSetProtocol, SetDigest};
use recon_store::{StoreClient, StoreDaemon};
use std::hint::black_box;
use std::time::Instant;

/// The fastest of `reps` repetitions, in the nanoseconds `f` reports.
fn floor_ns(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    (0..reps).map(|_| f()).min().expect("at least one repetition") as f64
}

/// Nanoseconds `f` takes, with its result kept alive past the clock read.
fn timed<T>(f: impl FnOnce() -> T) -> u64 {
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    black_box(out);
    elapsed
}

/// `base`, `iblt`, `estimator` and `protocol` kernels on the `set_known` pair.
pub fn kernels(pair: &SetPair, bound: usize, seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    let alice: Vec<u64> = pair.alice.iter().copied().collect();
    let bob: Vec<u64> = pair.bob.iter().copied().collect();
    let n = alice.len() as f64;

    let hash_ns = floor_ns(15, || timed(|| hash_u64_set(alice.iter().copied(), seed)));
    out.push(Metric::new("base.set_hash_ns_per_key", hash_ns / n, "ns/key"));

    // The session-sized table: what `IbltSetProtocol::tuned(..).digest` allocates.
    let cfg = IbltConfig::tuned_for_u64_keys(split_seed(seed, 1));
    let mut table = Iblt::with_expected_diff(bound, &cfg);
    let insert_ns = floor_ns(15, || {
        table.clear();
        timed(|| {
            for &x in &alice {
                table.insert_u64(x);
            }
            for &x in &bob {
                table.delete_u64(x);
            }
        })
    });
    out.push(Metric::new(
        "iblt.insert_ns_per_key",
        insert_ns / (alice.len() + bob.len()) as f64,
        "ns/key",
    ));

    // `table` now holds exactly the difference: peel it, asserting success.
    let peel_ns = floor_ns(31, || {
        let mut copy = table.clone();
        let (ns, complete, recovered) = {
            let start = Instant::now();
            let decoded = copy.decode_in_place();
            (start.elapsed().as_nanos() as u64, decoded.complete, decoded.recovered())
        };
        assert!(complete && recovered == pair.d, "peel probe must time a successful decode");
        ns
    });
    out.push(Metric::new("iblt.peel_ns_per_key", peel_ns / pair.d as f64, "ns/key"));

    let mut bank = Vec::new();
    let codec_ns = floor_ns(31, || {
        bank.clear();
        timed(|| {
            table.encode_bank(&mut bank);
            Iblt::decode_bank(&mut bank.as_slice()).expect("bank round-trips")
        })
    });
    out.push(Metric::new("iblt.codec_ns_per_cell", codec_ns / table.cells() as f64, "ns/cell"));

    out.extend(wide_key_kernels(seed));
    out.extend(rescue(pair, seed));
    out.extend(estimators(pair, &alice, &bob, seed));

    // One real digest, sent the way a session sends it.
    let digest = IbltSetProtocol::tuned(split_seed(seed, 2)).digest(&pair.alice, bound);
    out.push(Metric::new("set.digest_bytes", digest.encoded_len() as f64, "bytes"));
    out.push(Metric::new(
        "iblt.cells_per_diff",
        digest.iblt.cells() as f64 / pair.d as f64,
        "count",
    ));
    let payload_kb = digest.encoded_len() as f64 / 1024.0;
    let envelope_ns = floor_ns(31, || {
        timed(|| {
            let envelope = Envelope::round(1, "set digest (IBLT)", &digest);
            envelope.decode_payload::<SetDigest>().expect("digest round-trips")
        })
    });
    out.push(Metric::new("protocol.envelope_ns_per_kb", envelope_ns / payload_kb, "ns/KB"));

    // A control-sized frame and a digest-sized one, framed and reassembled.
    let small = Envelope::round(2, "control", &vec![0u8; 1000]);
    let large = Envelope::round(1, "set digest (IBLT)", &digest);
    let frame_kb = (small.payload.len() + large.payload.len()) as f64 / 1024.0;
    let frame_ns = floor_ns(31, || {
        let frames = [Frame::envelope(1, small.clone()), Frame::envelope(1, large.clone())];
        timed(|| {
            let mut decoder = FrameDecoder::new();
            for frame in &frames {
                decoder.extend(&frame.to_wire());
                decoder.next_frame().expect("frame parses").expect("frame is complete");
            }
        })
    });
    out.push(Metric::new("protocol.frame_ns_per_kb", frame_ns / frame_kb, "ns/KB"));
    out
}

/// The wide-key path the cascade's outer tables use: keys are whole child
/// tables. Width and cell count are those of cascade level 1 at `h = 32`,
/// `d = 64` (an 8-cell child table plus its hash; `2.2 · 2d` outer cells).
fn wide_key_kernels(seed: u64) -> Vec<Metric> {
    let child = IbltConfig::for_u64_keys(0).with_cells_per_diff(2.0).with_min_cells(8);
    let key_bytes = child.serialized_len(child.cells_for(2)) + 8;
    let cfg = IbltConfig::for_key_bytes(key_bytes, split_seed(seed, 3)).with_min_cells(12);
    let mut rng = Xoshiro256::new(split_seed(seed, 4));
    let keys: Vec<Vec<u8>> =
        (0..4096).map(|_| (0..key_bytes).map(|_| rng.next_u64() as u8).collect()).collect();
    let mut table = Iblt::with_expected_diff(128, &cfg);
    let insert_ns = floor_ns(15, || {
        table.clear();
        timed(|| {
            for key in &keys {
                table.insert(key);
            }
        })
    });
    let other = table.clone();
    let subtract_ns = floor_ns(31, || {
        let mut copy = table.clone();
        timed(|| copy.subtract_assign(&other).expect("same geometry"))
    });
    vec![
        Metric::new("iblt.insert_wide_ns_per_key", insert_ns / keys.len() as f64, "ns/key"),
        Metric::new("iblt.subtract_ns_per_cell", subtract_ns / table.cells() as f64, "ns/cell"),
    ]
}

/// Decode rescue: tables at 1.25 cells per difference whose peel stalls,
/// handed to the rescue-backed decode with the whole local set as candidates.
fn rescue(pair: &SetPair, seed: u64) -> Vec<Metric> {
    const DIFFS: usize = 64;
    const STALLS: usize = 32;
    let bob: Vec<u64> = pair.bob.iter().copied().collect();
    let mut rng = Xoshiro256::new(split_seed(seed, 5));
    let mut times = Vec::new();
    let mut rescued = 0usize;
    let mut trial = 0u64;
    while times.len() < STALLS && trial < 10_000 {
        trial += 1;
        let cfg = IbltConfig::tuned_for_u64_keys(split_seed(seed, 0x1000 + trial))
            .with_tuned_layout(false)
            .with_hash_count(3)
            .with_cells_per_diff(1.25);
        let mut table = Iblt::with_expected_diff(DIFFS, &cfg);
        let first = rng.next_index(bob.len());
        for i in 0..DIFFS {
            if i % 2 == 0 {
                table.insert_u64(rng.next_u64());
            } else {
                table.delete_u64(bob[(first + i) % bob.len()]);
            }
        }
        let mut peel_only = table.clone();
        peel_only.adopt_layout(&cfg.with_rescue(None)).expect("same layout");
        if peel_only.decode_in_place().complete {
            continue;
        }
        let start = Instant::now();
        let decoded = table.decode_in_place_with_candidates_u64(bob.iter().copied());
        times.push(start.elapsed().as_nanos() as f64);
        rescued += usize::from(decoded.complete);
    }
    assert!(!times.is_empty(), "no stalled peel found for the rescue probe");
    vec![
        Metric::new("iblt.rescue_ms", median(&times) / 1e6, "ms"),
        Metric::new("iblt.rescue_ok_share", rescued as f64 / times.len() as f64, "share"),
    ]
}

fn estimators(pair: &SetPair, alice: &[u64], bob: &[u64], seed: u64) -> Vec<Metric> {
    let l0_cfg = L0Config::default().with_seed(split_seed(seed, 6));
    let mut l0_alice = L0Estimator::new(&l0_cfg);
    let l0_ns = floor_ns(5, || {
        l0_alice = L0Estimator::new(&l0_cfg);
        timed(|| {
            for &x in alice {
                l0_alice.update(x, Side::A);
            }
        })
    });
    let mut l0_bob = L0Estimator::new(&l0_cfg);
    for &x in bob {
        l0_bob.update(x, Side::B);
    }
    let l0_estimate = l0_alice.merge(&l0_bob).expect("same shape").estimate();

    let strata_cfg = StrataConfig::default().with_seed(split_seed(seed, 7));
    let mut strata_alice = StrataEstimator::new(&strata_cfg);
    let strata_ns = floor_ns(5, || {
        strata_alice = StrataEstimator::new(&strata_cfg);
        timed(|| {
            for &x in alice {
                strata_alice.update(x, Side::A);
            }
        })
    });
    let mut strata_bob = StrataEstimator::new(&strata_cfg);
    for &x in bob {
        strata_bob.update(x, Side::B);
    }
    let strata_estimate = strata_alice.merge(&strata_bob).expect("same shape").estimate();

    let n = alice.len() as f64;
    let d = pair.d as f64;
    vec![
        Metric::new("estimator.l0_update_ns_per_key", l0_ns / n, "ns/key"),
        Metric::new("estimator.l0_bytes", l0_alice.serialized_len() as f64, "bytes"),
        Metric::new("estimator.l0_ratio", l0_estimate as f64 / d, "ratio"),
        Metric::new("estimator.strata_update_ns_per_key", strata_ns / n, "ns/key"),
        Metric::new("estimator.strata_bytes", strata_alice.serialized_len() as f64, "bytes"),
        Metric::new("estimator.strata_ratio", strata_estimate as f64 / d, "ratio"),
    ]
}

/// `degree_order::signatures` on one `graph_gnp`-shaped graph.
pub fn graph_signatures(seed: u64, scale: Scale) -> Metric {
    let mut rng = Xoshiro256::new(split_seed(seed, 8));
    let graph = Graph::gnp(scale.pick(256, 64), 0.35, &mut rng);
    let h = scale.pick(48, 40);
    let ns = floor_ns(15, || timed(|| degree_order::signatures(&graph, h)));
    Metric::new("graph.signature_ms", ns / 1e6, "ms")
}

/// `runtime` and `store` costs: the connection and control round trip over
/// loopback, and — because server-side work cannot be seen from a client —
/// the store's own calls on an in-process `SketchStore` with the same contents
/// a daemon workload serves.
pub fn daemon(seed: u64, scale: Scale) -> Result<Vec<Metric>, String> {
    const NAME: &str = "probe";
    const BATCH: usize = 48;
    let err = |e: recon_base::ReconError| e.to_string();
    let mut rng = Xoshiro256::new(split_seed(seed, 9));
    let keys = distinct_keys(scale.pick(10_000, 200) + BATCH, &mut rng);
    let (fresh, base) = keys.split_at(BATCH);
    let replicas = [(NAME.to_string(), base)];
    let mut store = preloaded_store(seed, &replicas)?;
    let mut out = Vec::new();

    let rung = store.params(NAME).map_err(err)?.ladder[0];
    let digest_ns = floor_ns(101, || timed(|| store.digest(NAME, rung).expect("rung exists")));
    out.push(Metric::new("store.digest_us", digest_ns / 1e3, "us"));
    let rebuild_ns =
        floor_ns(15, || timed(|| store.rebuild_digest(NAME, rung, 1).expect("replica exists")));
    out.push(Metric::new("store.rebuild_digest_ms", rebuild_ns / 1e6, "ms"));

    let mutate_ns = floor_ns(31, || {
        timed(|| {
            store.insert(NAME, fresh).expect("insert");
            store.delete(NAME, fresh).expect("delete");
        })
    });
    out.push(Metric::new(
        "store.mutate_us_per_key",
        mutate_ns / 1e3 / (2 * BATCH) as f64,
        "us/key",
    ));

    // A client whose copy differs by one batch, as in `daemon_mixed`.
    let mut client_strata = StrataEstimator::new(&store.params(NAME).map_err(err)?.strata_config());
    for &x in base.iter().skip(BATCH).chain(fresh) {
        client_strata.update(x, Side::B);
    }
    let estimate_ns =
        floor_ns(31, || timed(|| store.estimate_bound(NAME, &client_strata).expect("estimate")));
    out.push(Metric::new("store.estimate_bound_us", estimate_ns / 1e3, "us"));

    let daemon = StoreDaemon::bind("127.0.0.1:0", store, 1).map_err(err)?;
    let addr = daemon.local_addr();
    let over_tcp = (|| {
        let connect_ns = floor_ns(101, || {
            timed(|| StoreClient::connect(addr).and_then(StoreClient::close).expect("connect"))
        });
        let mut client = StoreClient::connect(addr)?;
        let rtt_ns = floor_ns(201, || timed(|| client.stat(NAME).expect("stat")));
        let client_mutate_ns = floor_ns(31, || {
            timed(|| {
                client.insert(NAME, fresh).expect("insert");
                client.delete(NAME, fresh).expect("delete");
            })
        });
        client.close()?;
        Ok([
            Metric::new("runtime.connect_close_us", connect_ns / 1e3, "us"),
            Metric::new("runtime.rtt_us", rtt_ns / 1e3, "us"),
            Metric::new(
                "store.client_mutate_us_per_key",
                client_mutate_ns / 1e3 / (2 * BATCH) as f64,
                "us/key",
            ),
        ])
    })();
    let (stats, _) = daemon.shutdown();
    out.extend(over_tcp.map_err(err)?);
    if stats.failed != 0 {
        return Err(format!("probe daemon retired {} connections with an error", stats.failed));
    }
    Ok(out)
}
