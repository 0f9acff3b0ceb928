//! The one metrics and trace registry, a leaf of the crate graph: every
//! WSPeer layer records its own series into [`global`], and `/metrics`
//! renders that registry alone. `wsp-core` re-exports it as
//! `wsp_core::telemetry`. The one clock every layer reads is [`clock`].
pub mod clock;
mod telemetry;
pub use telemetry::*;
