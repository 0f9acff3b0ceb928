//! # wsp-p2ps
//!
//! Peer-to-Peer Simplified (P2PS) — the P2P substrate of WSPeer's second
//! implementation (paper Section IV.B), rebuilt in Rust from the
//! behaviour the paper describes (see `DESIGN.md`):
//!
//! * logical [`PeerId`]s resolved by [`EndpointResolver`]s, never raw
//!   addresses;
//! * unidirectional pipes described by XML [`PipeAdvertisement`]s,
//!   grouped into [`ServiceAdvertisement`]s (with WSPeer's *definition
//!   pipe* for WSDL retrieval and attributes for attribute-based search);
//! * group broadcast publish, rendezvous peers that cache adverts and
//!   propagate queries with TTLs, reverse-path query hits;
//! * the [`p2ps://` URI scheme](uri) and the [advert ⇄ WS-Addressing
//!   mapping](addressing) that let standard SOAP messages traverse pipes;
//! * [`rpc`]: request/response over unidirectional pipes via `ReplyTo`
//!   return pipes (Figures 5 and 6).
//!
//! The protocol logic is one sans-IO [`PeerMachine`]; two drivers run it:
//! [`sim_driver`] (deterministic simnet, for the scaling/churn
//! experiments) and [`thread_driver`] (real threads: callers step their
//! own peer, one inbox thread per peer takes the wire traffic).

pub mod addressing;
pub mod advert;
pub mod cache;
pub mod id;
pub mod machine;
pub mod message;
pub mod pipe_tcp;
pub mod query;
pub mod resolver;
pub mod rpc;
pub mod rpc_machine;
pub mod sim_driver;
pub mod thread_driver;
pub mod uri;

pub use addressing::{
    advert_to_epr, epr_to_advert, reply_pipe_of, request_headers, target_pipe_of, with_reply_pipe,
};
pub use advert::{PipeAdvertisement, ServiceAdvertisement, DEFINITION_PIPE, P2PS_NS};
pub use cache::{AdvertCache, AdvertCacheStats};
pub use id::PeerId;
pub use machine::{PeerConfig, PeerMachine, PeerOutput};
pub use message::P2psMessage;
pub use pipe_tcp::{pipe_call, read_frame, write_frame, PipeTcpConfig, PipeTcpServer};
pub use query::P2psQuery;
pub use resolver::{ChainResolver, EndpointResolver, TableResolver};
pub use rpc::{decode_request, encode_response, RpcCorrelator};
pub use rpc_machine::{RpcEffect, RpcEvent, RpcMachine, RpcState};
pub use sim_driver::{
    add_peer, build_overlay, peer_id_for, Directory, P2psHandle, P2psSimNode, PeerCommand,
    PeerEvent, RQ_RESEND_TAG, RQ_TIMEOUT_TAG, WAKE_TAG,
};
pub use thread_driver::{
    DeliverySink, ThreadNetwork, ThreadNetworkStats, ThreadPeer, ThreadPeerEvent,
};
pub use uri::{P2psUri, P2psUriError};
