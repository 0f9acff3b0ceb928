//! # wsp-bench
//!
//! The experiment harness for the WSPeer reproduction. Each module
//! implements one experiment from the index in `DESIGN.md` (E1–E12);
//! the `harness` binary prints every table. `EXPERIMENTS.md` records
//! the observed numbers against the paper's qualitative predictions.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p wsp-bench --bin harness
//! ```

pub mod a1;
pub mod a2;
pub mod alloc_count;
pub mod common;
pub mod container;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e12_blocks;
pub mod e12_legacy;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
