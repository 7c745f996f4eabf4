//! The daemon's control-channel vocabulary: opcodes and request/response
//! bodies carried in [`ControlFrame`](recon_protocol::ControlFrame) payloads.
//!
//! Every request is answered exactly once with the matching response body, or
//! with [`OP_ERROR`] + [`ErrorResp`] (same `request_id`) when the operation
//! fails; a failed operation never tears down the control session.
//!
//! Replica names travel as length-prefixed UTF-8 and are re-validated by the
//! store on arrival, so a hostile client cannot smuggle a path or a reserved
//! suffix through the wire.

use recon_base::wire::{read_length_prefixed, write_length_prefixed, Decode, Encode, WireError};
use recon_estimator::StrataEstimator;
use recon_protocol::SessionId;

use crate::replica::{decode_ladder, ReplicaParams};
use crate::store::StoreStat;

/// Open (creating if absent) a replica. Body: [`OpenReq`] → [`OpenResp`].
pub const OP_OPEN: u16 = 1;
/// Insert keys. Body: [`MutateReq`] → [`MutateResp`].
pub const OP_INSERT: u16 = 2;
/// Delete keys. Body: [`MutateReq`] → [`MutateResp`].
pub const OP_DELETE: u16 = 3;
/// Start a reconciliation session served from cached sketches.
/// Body: [`ReconcileReq`] → [`ReconcileResp`].
pub const OP_RECONCILE: u16 = 4;
/// Snapshot a replica and reset its WAL. Body: [`SnapshotReq`] → [`SnapshotResp`].
pub const OP_SNAPSHOT: u16 = 5;
/// Read replica statistics. Body: [`StatReq`] → [`StatResp`].
pub const OP_STAT: u16 = 6;
/// Close the control session gracefully. Body: `()` → `()`.
pub const OP_CLOSE: u16 = 7;
/// Response opcode for a failed request. Body: [`ErrorResp`].
pub const OP_ERROR: u16 = 0xFFFF;

fn encode_name(buf: &mut Vec<u8>, name: &str) {
    write_length_prefixed(buf, name.as_bytes());
}

fn decode_name(buf: &mut &[u8]) -> Result<String, WireError> {
    let bytes = read_length_prefixed(buf)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("replica name not UTF-8"))
}

/// Body of [`OP_OPEN`]: the replica to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenReq {
    /// Replica name.
    pub name: String,
    /// Create the replica if absent; with `false`, an unknown name is an
    /// error — how a client fetches parameters without side effects.
    pub create: bool,
}

impl Encode for OpenReq {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_name(buf, &self.name);
        self.create.encode(buf);
    }
}

impl Decode for OpenReq {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self { name: decode_name(buf)?, create: bool::decode(buf)? })
    }
}

/// Response to [`OP_OPEN`]: the replica's public-coin parameters, which the
/// client needs to run byte-compatible Bob parties and estimators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenResp {
    /// The opened replica's parameters.
    pub params: ReplicaParams,
}

impl Encode for OpenResp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.params.encode(buf);
    }
}

impl Decode for OpenResp {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self { params: ReplicaParams::decode(buf)? })
    }
}

/// Body of [`OP_INSERT`] / [`OP_DELETE`]: keys to apply to a replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutateReq {
    /// Replica name.
    pub name: String,
    /// Keys to insert or delete (duplicates / no-ops are skipped).
    pub keys: Vec<u64>,
}

impl Encode for MutateReq {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_name(buf, &self.name);
        self.keys.encode(buf);
    }
}

impl Decode for MutateReq {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self { name: decode_name(buf)?, keys: Vec::decode(buf)? })
    }
}

/// Response to a mutation: how many keys actually changed the set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutateResp {
    /// Mutations applied (no-ops excluded).
    pub applied: u64,
    /// Replica cardinality after the batch.
    pub total: u64,
}

impl Encode for MutateResp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.applied.encode(buf);
        self.total.encode(buf);
    }
}

impl Decode for MutateResp {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self { applied: u64::decode(buf)?, total: u64::decode(buf)? })
    }
}

/// Body of [`OP_RECONCILE`]: ask the daemon to serve an Alice party for
/// `name` on data session `session` (client registers its Bob first).
///
/// With `d_bound = Some(d)` the daemon serves the smallest ladder rung ≥ `d`.
/// With `d_bound = None` it sizes the session by merging `estimator` (the
/// client's B-side strata estimator, required in that case) with its own
/// maintained A-side.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconcileReq {
    /// Replica name.
    pub name: String,
    /// Data session the client has registered its Bob party on. Must not be
    /// the control session.
    pub session: SessionId,
    /// Explicit difference bound, or `None` to estimate.
    pub d_bound: Option<u64>,
    /// Client-side strata estimator (required when `d_bound` is `None`),
    /// built with the replica's [`ReplicaParams::strata_config`].
    pub estimator: Option<StrataEstimator>,
}

impl Encode for ReconcileReq {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_name(buf, &self.name);
        self.session.encode(buf);
        self.d_bound.encode(buf);
        self.estimator.encode(buf);
    }
}

impl Decode for ReconcileReq {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self {
            name: decode_name(buf)?,
            session: SessionId::decode(buf)?,
            d_bound: Option::decode(buf)?,
            estimator: Option::decode(buf)?,
        })
    }
}

/// Response to [`OP_RECONCILE`]: the daemon has registered its Alice party.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileResp {
    /// Echo of the data session id.
    pub session: SessionId,
    /// Effective difference bound (the ladder rung being served).
    pub d: u64,
    /// The merged strata estimate, when the daemon sized the session.
    pub estimated: Option<u64>,
}

impl Encode for ReconcileResp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.session.encode(buf);
        self.d.encode(buf);
        self.estimated.encode(buf);
    }
}

impl Decode for ReconcileResp {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self {
            session: SessionId::decode(buf)?,
            d: u64::decode(buf)?,
            estimated: Option::decode(buf)?,
        })
    }
}

/// Body of [`OP_SNAPSHOT`]: the replica to snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotReq {
    /// Replica name.
    pub name: String,
}

impl Encode for SnapshotReq {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_name(buf, &self.name);
    }
}

impl Decode for SnapshotReq {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self { name: decode_name(buf)? })
    }
}

/// Response to [`OP_SNAPSHOT`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotResp {
    /// Size of the snapshot written, in bytes.
    pub bytes: u64,
}

impl Encode for SnapshotResp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.bytes.encode(buf);
    }
}

impl Decode for SnapshotResp {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self { bytes: u64::decode(buf)? })
    }
}

/// Body of [`OP_STAT`]: the replica to inspect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatReq {
    /// Replica name.
    pub name: String,
}

impl Encode for StatReq {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_name(buf, &self.name);
    }
}

impl Decode for StatReq {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self { name: decode_name(buf)? })
    }
}

/// Response to [`OP_STAT`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatResp {
    /// The replica's current statistics.
    pub stat: StoreStat,
}

impl Encode for StatResp {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.stat.cardinality.encode(buf);
        self.stat.set_hash.encode(buf);
        self.stat.ladder.encode(buf);
        self.stat.wal_records.encode(buf);
    }
}

impl Decode for StatResp {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        Ok(Self {
            stat: StoreStat {
                cardinality: u64::decode(buf)?,
                set_hash: u64::decode(buf)?,
                ladder: decode_ladder(buf)?,
                wal_records: u64::decode(buf)?,
            },
        })
    }
}

/// Body of an [`OP_ERROR`] response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResp {
    /// Human-readable failure description.
    pub message: String,
}

impl Encode for ErrorResp {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_length_prefixed(buf, self.message.as_bytes());
    }
}

impl Decode for ErrorResp {
    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let bytes = read_length_prefixed(buf)?;
        let message = String::from_utf8_lossy(bytes).into_owned();
        Ok(Self { message })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recon_estimator::{Side, StrataConfig};

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        assert_eq!(T::from_bytes(&value.to_bytes()).unwrap(), value);
    }

    #[test]
    fn bodies_roundtrip() {
        roundtrip(OpenReq { name: "alpha".into(), create: true });
        roundtrip(OpenReq { name: "alpha".into(), create: false });
        roundtrip(OpenResp {
            params: ReplicaParams { seed: 9, ladder: vec![8, 64], max_attempts: 3 },
        });
        roundtrip(MutateReq { name: "a".into(), keys: vec![1, u64::MAX, 0] });
        roundtrip(MutateResp { applied: 2, total: 10 });
        let mut estimator = StrataEstimator::new(&StrataConfig::default().with_seed(5));
        estimator.update(77, Side::B);
        roundtrip(ReconcileReq {
            name: "a".into(),
            session: 3,
            d_bound: None,
            estimator: Some(estimator),
        });
        roundtrip(ReconcileReq {
            name: "a".into(),
            session: 3,
            d_bound: Some(32),
            estimator: None,
        });
        roundtrip(ReconcileResp { session: 3, d: 64, estimated: Some(21) });
        roundtrip(SnapshotReq { name: "a".into() });
        roundtrip(SnapshotResp { bytes: 4096 });
        roundtrip(StatReq { name: "a".into() });
        roundtrip(StatResp {
            stat: StoreStat { cardinality: 5, set_hash: 0xABCD, ladder: vec![16], wal_records: 2 },
        });
        roundtrip(ErrorResp { message: "unknown replica".into() });
    }

    #[test]
    fn names_reject_bad_utf8() {
        let mut buf = Vec::new();
        write_length_prefixed(&mut buf, &[0xFF, 0xFE]);
        assert!(OpenReq::from_bytes(&buf).is_err());
    }
}
