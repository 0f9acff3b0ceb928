//! Consumer-side ReplyTo routing (Figures 5–6) as a pure machine.
//!
//! The consumer opens a return pipe, sends a request that names it in
//! `ReplyTo`, and waits for a response correlated by
//! `MessageID`/`RelatesTo`. This machine tracks exactly that: which
//! return pipes are open and which outstanding request tokens are
//! bound to which pipe. Pipes and tokens are abstract `u64` ids — the
//! shell ([`crate::rpc::RpcCorrelator`]) owns the mapping from wire
//! message ids and [`crate::advert::PipeAdvertisement`]s to them.
//!
//! ```text
//!  OpenPipe(p) ── SendRequest{t,p} ── ResponseArrived(t) → DeliverReply
//!                        │
//!                        ├── Forget(t)     (timeout sweep)
//!                        └── ClosePipe(p)  (abandons every t bound to p)
//! ```
//!
//! Invariants the model checker enforces (`wsp-check`):
//!
//! * **no reply routed to a closed pipe** — every pending token's
//!   reply pipe is open (`pending`'s values ⊆ `open_pipes`), so
//!   [`RpcEffect::DeliverReply`] always names an open pipe and
//!   [`RpcEffect::DropClosedPipe`] is unreachable;
//! * **no correlation leak** — closing a pipe abandons every request
//!   bound to it ([`RpcEffect::AbandonRequest`]), so a request/forget/
//!   close trace always ends with an empty pending map;
//! * **no double delivery** — a token is removed on delivery; a second
//!   response is [`RpcEffect::DropUncorrelated`].

use std::collections::{BTreeMap, BTreeSet};
use wsp_simnet::Machine;

/// Open return pipes and outstanding requests.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RpcState {
    pub open_pipes: BTreeSet<u64>,
    /// Outstanding request token → the open reply pipe its response
    /// must arrive on.
    pub pending: BTreeMap<u64, u64>,
}

/// Configuration-free: the routing rules are the whole machine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RpcMachine;

/// What happened in the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcEvent {
    /// A return pipe was opened for listening.
    OpenPipe(u64),
    /// The return pipe was torn down (request finished or timed out).
    ClosePipe(u64),
    /// A request was sent, expecting its reply on `reply_pipe`.
    SendRequest { token: u64, reply_pipe: u64 },
    /// A response correlated to `token` arrived.
    ResponseArrived(u64),
    /// The request timed out; stop expecting its response.
    Forget(u64),
}

/// Instructions back to the shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcEffect {
    /// Complete the waiting call with the arrived envelope.
    DeliverReply { token: u64, reply_pipe: u64 },
    /// The response matches no outstanding request: drop it.
    DropUncorrelated(u64),
    /// Defensive: a pending token's pipe was closed underneath it.
    /// Unreachable while [`RpcEvent::ClosePipe`] abandons its
    /// requests — the model checker proves exactly that.
    DropClosedPipe { token: u64, reply_pipe: u64 },
    /// A request named a pipe that is not open: refuse to track it
    /// (its response could never be received).
    RejectSendNoPipe(u64),
    /// A request bound to the closing pipe is abandoned: purge its
    /// wire-level correlation entry.
    AbandonRequest(u64),
}

impl Machine for RpcMachine {
    type State = RpcState;
    type Event = RpcEvent;
    type Effect = RpcEffect;

    fn initial(&self) -> RpcState {
        RpcState::default()
    }

    fn step_into(&self, next: &mut RpcState, event: &RpcEvent, out: &mut Vec<RpcEffect>) {
        use RpcEffect as E;
        match *event {
            RpcEvent::OpenPipe(p) => {
                next.open_pipes.insert(p);
            }
            RpcEvent::ClosePipe(p) => {
                next.open_pipes.remove(&p);
                next.pending.retain(|&t, &mut pipe| {
                    if pipe == p {
                        out.push(E::AbandonRequest(t));
                    }
                    pipe != p
                });
            }
            RpcEvent::SendRequest { token, reply_pipe } => {
                if !next.open_pipes.contains(&reply_pipe) {
                    out.push(E::RejectSendNoPipe(token));
                } else {
                    // Tokens are allocated process-unique; re-sending a
                    // live one is a shell bug, modeled as a no-op.
                    next.pending.entry(token).or_insert(reply_pipe);
                }
            }
            RpcEvent::ResponseArrived(token) => match next.pending.remove(&token) {
                Some(pipe) if next.open_pipes.contains(&pipe) => out.push(E::DeliverReply {
                    token,
                    reply_pipe: pipe,
                }),
                Some(pipe) => out.push(E::DropClosedPipe {
                    token,
                    reply_pipe: pipe,
                }),
                None => out.push(E::DropUncorrelated(token)),
            },
            RpcEvent::Forget(token) => {
                if next.pending.remove(&token).is_some() {
                    out.push(E::AbandonRequest(token));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_simnet::step_mut;

    #[test]
    fn round_trip_delivers_on_the_open_pipe() {
        let m = RpcMachine;
        let mut s = m.initial();
        step_mut(&m, &mut s, &RpcEvent::OpenPipe(7));
        step_mut(
            &m,
            &mut s,
            &RpcEvent::SendRequest {
                token: 1,
                reply_pipe: 7,
            },
        );
        assert_eq!(
            step_mut(&m, &mut s, &RpcEvent::ResponseArrived(1)),
            vec![RpcEffect::DeliverReply {
                token: 1,
                reply_pipe: 7
            }]
        );
        assert!(s.pending.is_empty());
        assert_eq!(
            step_mut(&m, &mut s, &RpcEvent::ResponseArrived(1)),
            vec![RpcEffect::DropUncorrelated(1)],
            "a second response finds nothing"
        );
    }

    #[test]
    fn closing_the_pipe_abandons_its_requests() {
        let m = RpcMachine;
        let mut s = m.initial();
        step_mut(&m, &mut s, &RpcEvent::OpenPipe(7));
        step_mut(&m, &mut s, &RpcEvent::OpenPipe(8));
        for (t, p) in [(1, 7), (2, 7), (3, 8)] {
            step_mut(
                &m,
                &mut s,
                &RpcEvent::SendRequest {
                    token: t,
                    reply_pipe: p,
                },
            );
        }
        let effects = step_mut(&m, &mut s, &RpcEvent::ClosePipe(7));
        assert_eq!(
            effects,
            vec![RpcEffect::AbandonRequest(1), RpcEffect::AbandonRequest(2)]
        );
        assert_eq!(s.pending.len(), 1, "the other pipe's request survives");
        assert_eq!(
            step_mut(&m, &mut s, &RpcEvent::ResponseArrived(1)),
            vec![RpcEffect::DropUncorrelated(1)],
            "a late response to an abandoned request is uncorrelated"
        );
        assert!(
            s.pending.values().all(|p| s.open_pipes.contains(p)),
            "pending pipes stay a subset of open pipes"
        );
    }

    #[test]
    fn sending_without_an_open_pipe_is_refused() {
        let m = RpcMachine;
        let mut s = m.initial();
        assert_eq!(
            step_mut(
                &m,
                &mut s,
                &RpcEvent::SendRequest {
                    token: 9,
                    reply_pipe: 4
                }
            ),
            vec![RpcEffect::RejectSendNoPipe(9)]
        );
        assert!(s.pending.is_empty());
    }

    #[test]
    fn forget_times_out_one_request() {
        let m = RpcMachine;
        let mut s = m.initial();
        step_mut(&m, &mut s, &RpcEvent::OpenPipe(7));
        step_mut(
            &m,
            &mut s,
            &RpcEvent::SendRequest {
                token: 5,
                reply_pipe: 7,
            },
        );
        assert_eq!(
            step_mut(&m, &mut s, &RpcEvent::Forget(5)),
            vec![RpcEffect::AbandonRequest(5)]
        );
        assert_eq!(step_mut(&m, &mut s, &RpcEvent::Forget(5)), vec![]);
        assert!(s.pending.is_empty());
    }
}
