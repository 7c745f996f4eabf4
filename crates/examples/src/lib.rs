//! # recon-examples
//!
//! A thin crate that hosts the repository-level runnable examples (`examples/` at
//! the workspace root) and the cross-crate integration tests (`tests/` at the
//! workspace root). It re-exports the public crates so examples and tests can
//! `use recon_examples::prelude::*` if they prefer a single import: a protocol runs
//! as a party pair from one of the three `*_session` modules, driven by
//! `SessionBuilder::run`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Convenience re-exports of the whole workspace API surface.
pub mod prelude {
    pub use recon_apps::database::{BinaryTable, SosProtocolKind};
    pub use recon_apps::documents::{reconcile_collections, Collection};
    pub use recon_base::{CommStats, ReconError};
    pub use recon_estimator::{L0Config, L0Estimator, Side, StrataConfig, StrataEstimator};
    pub use recon_field::{Fp, Poly};
    pub use recon_graph::session as graph_session;
    pub use recon_graph::{degree_neighborhood, degree_order, forest, general, Forest, Graph};
    pub use recon_iblt::{Iblt, IbltConfig};
    pub use recon_protocol::{Amplification, Envelope, Outcome, Party, SessionBuilder, Step};
    pub use recon_runtime::{
        connect_endpoint, drive_endpoint, Poller, Reactor, ReactorConfig, Server, ServerConfig,
        TcpService,
    };
    pub use recon_set::session as set_session;
    pub use recon_set::{CharPolyProtocol, IbltSetProtocol, Multiset, SetDiff};
    pub use recon_sos::session as sos_session;
    pub use recon_sos::{
        cascading, iblt_of_iblts, multiround, naive, workload, SetOfSets, SosParams,
    };
}
