//! One server connection's lifecycle as a pure machine.
//!
//! ```text
//!          Open          FirstByte         HeadDone
//!   New ────────► Idle ────────► ReadingHead ────────► ReadingBody
//!                  ▲                  │    RequestDone      │
//!                  │                  └────────┬────────────┘
//!                  │ WriteFlushed             ▼
//!                  │ (!close_after)        Handling
//!                  │                          │ HandlerDone{close}
//!                  └───────── Writing ◄───────┘
//!                                │ WriteFlushed (close_after)
//!                                ▼
//!                             Closed      (Eof/IoError/Stopped from
//!                                          anywhere also end here)
//!
//!   DrainBegan in Idle:  Idle ─► Closed       between requests
//!                        Idle ─► ReadingHead  while `fresh` (unread)
//! ```
//!
//! The reactor shell ([`crate::reactor`] driven by
//! [`crate::server::TcpServer`]) holds one [`ConnState`] per connection,
//! converts readiness happenings (bytes arrived, the head terminator
//! was scanned, a wheel deadline fired, a handler finished)
//! into [`ConnEvent`]s, and executes the returned [`ConnEffect`]s —
//! arm or cancel a wheel timer, dispatch the parsed request to a
//! handler, queue response bytes, close the socket. All byte-level
//! bookkeeping (buffers, scan offsets, partial writes) stays in the
//! shell; every *decision* lives here where `wsp-check` can explore
//! it.
//!
//! Invariants the model checker enforces (`wsp-check`):
//!
//! * **timers track phases** — the header timer is armed exactly while
//!   `ReadingHead`, the body timer exactly while `ReadingBody`, the
//!   idle timer only while `Idle`; arms and cancels are never
//!   mismatched or doubled;
//! * **single dispatch** — [`ConnEffect::Dispatch`] is emitted exactly
//!   on the edge into `Handling`, so a connection can never have two
//!   handler executions in flight;
//! * **closed is terminal** — no transition leaves `Closed` and no
//!   effect (in particular no write, no dispatch) is emitted from it,
//!   so a late handler completion for a dead connection is provably
//!   dropped;
//! * **drain latches** — once `draining` is observed it never clears,
//!   and a keep-alive connection idle between requests closes
//!   immediately on drain;
//! * **drain never closes an unread connection** — a connection that
//!   was admitted but has had no first read (`fresh`) may already have
//!   its request in the socket: drain puts it on the head-read clock
//!   to deliver that one request instead of closing it;
//! * **always terminates** — from every reachable state, `Closed`
//!   remains reachable.

use wsp_simnet::Machine;

/// The wheel timers a connection can hold (at most one of each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerKind {
    /// Header-read deadline: first request byte → complete head.
    Head,
    /// Body-read deadline: complete head → complete body.
    Body,
    /// Idle keep-alive timeout between requests (optional; the shell
    /// ignores the arm when no idle timeout is configured).
    Idle,
}

/// Where the connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Accepted but not yet registered (no timers, no bytes).
    New,
    /// Keep-alive idle: no request bytes buffered, not on the clock
    /// except for the optional idle timeout.
    Idle,
    /// First request byte seen, head terminator not yet scanned.
    ReadingHead,
    /// Head complete, body bytes still short of `Content-Length`.
    ReadingBody,
    /// Request handed to its handler; awaiting the response.
    Handling,
    /// Response bytes queued; flushing under write backpressure.
    Writing {
        /// Close the socket once the write buffer drains.
        close_after: bool,
    },
    /// Socket released. Terminal.
    Closed,
}

/// Machine state: the phase plus the latched/observed flags the shell
/// needs for its decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnState {
    pub phase: Phase,
    /// Graceful drain observed (latched): the next response closes the
    /// connection and an idle connection closes immediately.
    pub draining: bool,
    /// Accepted, no request started yet — which is not keep-alive idle:
    /// the server admitted this connection and owes it one request.
    /// Cleared when its first request starts (its first byte arrived,
    /// or drain put it on the head-read clock to wait for it).
    pub fresh: bool,
    /// Peer half-closed its write side (EOF read) while a request was
    /// in flight; the response is still written, then we close.
    pub half_closed: bool,
    /// Header-read deadline armed on the wheel.
    pub head_timer: bool,
    /// Body-read deadline armed on the wheel.
    pub body_timer: bool,
    /// Idle keep-alive timeout armed on the wheel.
    pub idle_timer: bool,
}

impl ConnState {
    fn timer(&self, kind: TimerKind) -> bool {
        match kind {
            TimerKind::Head => self.head_timer,
            TimerKind::Body => self.body_timer,
            TimerKind::Idle => self.idle_timer,
        }
    }

    fn set_timer(&mut self, kind: TimerKind, armed: bool) {
        match kind {
            TimerKind::Head => self.head_timer = armed,
            TimerKind::Body => self.body_timer = armed,
            TimerKind::Idle => self.idle_timer = armed,
        }
    }

    pub fn closed(&self) -> bool {
        self.phase == Phase::Closed
    }
}

/// What happened on (or to) the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnEvent {
    /// The reactor registered the accepted socket.
    Open,
    /// First byte of a new request arrived while idle.
    FirstByte,
    /// The head terminator (`\r\n\r\n`) was scanned.
    HeadDone,
    /// The full request frame (head + declared body) is buffered and
    /// parsed.
    RequestDone,
    /// The buffered bytes can never parse as a request.
    BadRequest,
    /// The handler finished; `close` carries the
    /// client's `Connection: close` / drain decision made at encode
    /// time.
    HandlerDone { close: bool },
    /// The write buffer fully drained to the socket.
    WriteFlushed,
    /// A wheel deadline fired.
    Deadline(TimerKind),
    /// Clean EOF from the peer.
    Eof,
    /// Socket error (reset, EPOLLERR/EPOLLHUP).
    IoError,
    /// The server began a graceful drain.
    DrainBegan,
    /// Hard stop: the reactor is tearing down.
    Stopped,
}

/// Instructions back to the reactor shell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnEffect {
    /// Schedule the deadline for `kind` on the wheel.
    ArmTimer(TimerKind),
    /// Cancel the armed deadline for `kind`.
    CancelTimer(TimerKind),
    /// Hand the parsed request to its handler.
    Dispatch,
    /// Queue a canned `408 Request Timeout` response.
    SendTimeout,
    /// Queue a canned `400 Bad Request` response.
    SendBadRequest,
    /// Response bytes are queued: flush and arm write interest.
    StartWrite,
    /// Release the socket (after the write buffer drains, if any).
    Close,
}

/// The connection machine. Stateless configuration: every tunable the
/// shell owns (deadline durations, buffer caps) parameterises *when*
/// events fire, never *what* they mean.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnMachine;

impl ConnMachine {
    /// Leave `Idle` for `ReadingHead`: off the idle clock, onto the
    /// head-read clock.
    fn start_request(next: &mut ConnState, effects: &mut Vec<ConnEffect>) {
        if next.idle_timer {
            effects.push(ConnEffect::CancelTimer(TimerKind::Idle));
            next.idle_timer = false;
        }
        next.fresh = false;
        next.phase = Phase::ReadingHead;
        next.head_timer = true;
        effects.push(ConnEffect::ArmTimer(TimerKind::Head));
    }

    /// Close from any live phase, cancelling whatever timer is armed.
    fn teardown(next: &mut ConnState, effects: &mut Vec<ConnEffect>) {
        for kind in [TimerKind::Head, TimerKind::Body, TimerKind::Idle] {
            if next.timer(kind) {
                effects.push(ConnEffect::CancelTimer(kind));
                next.set_timer(kind, false);
            }
        }
        next.phase = Phase::Closed;
        effects.push(ConnEffect::Close);
    }
}

impl Machine for ConnMachine {
    type State = ConnState;
    type Event = ConnEvent;
    type Effect = ConnEffect;

    fn initial(&self) -> ConnState {
        ConnState {
            phase: Phase::New,
            draining: false,
            fresh: true,
            half_closed: false,
            head_timer: false,
            body_timer: false,
            idle_timer: false,
        }
    }

    fn step_into(&self, next: &mut ConnState, event: &ConnEvent, effects: &mut Vec<ConnEffect>) {
        use ConnEffect as Fx;
        use ConnEvent as Ev;
        use Phase as P;

        // Terminal: a closed connection reacts to nothing — late handler
        // completions, stale flushes and repeated stops are all dropped.
        if next.phase == P::Closed {
            return;
        }

        match (next.phase, event) {
            (P::New, Ev::Open) => {
                next.phase = P::Idle;
                next.idle_timer = true;
                effects.push(Fx::ArmTimer(TimerKind::Idle));
            }

            (P::Idle, Ev::FirstByte) => ConnMachine::start_request(next, effects),

            (P::ReadingHead, Ev::HeadDone) => {
                effects.push(Fx::CancelTimer(TimerKind::Head));
                next.head_timer = false;
                next.phase = P::ReadingBody;
                next.body_timer = true;
                effects.push(Fx::ArmTimer(TimerKind::Body));
            }

            // The whole frame can land in one chunk: RequestDone is
            // legal straight from ReadingHead.
            (P::ReadingHead, Ev::RequestDone) => {
                effects.push(Fx::CancelTimer(TimerKind::Head));
                next.head_timer = false;
                next.phase = P::Handling;
                effects.push(Fx::Dispatch);
            }
            (P::ReadingBody, Ev::RequestDone) => {
                effects.push(Fx::CancelTimer(TimerKind::Body));
                next.body_timer = false;
                next.phase = P::Handling;
                effects.push(Fx::Dispatch);
            }

            (P::ReadingHead, Ev::BadRequest) => {
                effects.push(Fx::CancelTimer(TimerKind::Head));
                next.head_timer = false;
                next.phase = P::Writing { close_after: true };
                effects.push(Fx::SendBadRequest);
                effects.push(Fx::StartWrite);
            }
            (P::ReadingBody, Ev::BadRequest) => {
                effects.push(Fx::CancelTimer(TimerKind::Body));
                next.body_timer = false;
                next.phase = P::Writing { close_after: true };
                effects.push(Fx::SendBadRequest);
                effects.push(Fx::StartWrite);
            }

            (P::Handling, Ev::HandlerDone { close }) => {
                next.phase = P::Writing {
                    close_after: *close || next.draining || next.half_closed,
                };
                effects.push(Fx::StartWrite);
            }

            (P::Writing { close_after }, Ev::WriteFlushed) => {
                if close_after || next.half_closed || next.draining {
                    ConnMachine::teardown(next, effects);
                } else {
                    next.phase = P::Idle;
                    next.idle_timer = true;
                    effects.push(Fx::ArmTimer(TimerKind::Idle));
                }
            }

            // Deadlines: only the timer matching the phase can be armed
            // (the shell cancels exactly), so a firing is always "this
            // stage took too long".
            (P::ReadingHead, Ev::Deadline(TimerKind::Head)) => {
                next.head_timer = false;
                next.phase = P::Writing { close_after: true };
                effects.push(Fx::SendTimeout);
                effects.push(Fx::StartWrite);
            }
            (P::ReadingBody, Ev::Deadline(TimerKind::Body)) => {
                next.body_timer = false;
                next.phase = P::Writing { close_after: true };
                effects.push(Fx::SendTimeout);
                effects.push(Fx::StartWrite);
            }
            (P::Idle, Ev::Deadline(TimerKind::Idle)) => {
                next.idle_timer = false;
                ConnMachine::teardown(next, effects);
            }
            // A stale deadline for a stage we already left: exact wheel
            // cancellation makes this unreachable from the shell; in
            // the model it is a harmless no-op.
            (_, Ev::Deadline(_)) => {}

            // EOF with a request in flight (dispatched or responding):
            // the peer half-closed but can still read; finish the
            // response, then close.
            (P::Handling | P::Writing { .. }, Ev::Eof) => {
                next.half_closed = true;
            }
            // EOF anywhere else (idle, or mid-request before dispatch)
            // ends the connection, as an error or a stop does anywhere;
            // a partial request gets no response.
            (_, Ev::Eof | Ev::IoError | Ev::Stopped) => {
                ConnMachine::teardown(next, effects);
            }

            (_, Ev::DrainBegan) => {
                next.draining = true;
                // An idle keep-alive connection closes now; a request
                // in flight runs to completion and closes behind its
                // response (the `Writing` flush checks `draining`). A
                // connection not read yet was admitted before the drain
                // and its request may be sitting in the socket: it gets
                // the head deadline to deliver it, and `draining` closes
                // the connection behind that one response.
                if next.phase == P::Idle {
                    if next.fresh {
                        ConnMachine::start_request(next, effects);
                    } else {
                        ConnMachine::teardown(next, effects);
                    }
                }
            }

            // Anything else is a shell sequencing bug in real use; in
            // exploration these edges are simply absent from the
            // enabled alphabet.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsp_simnet::step_mut;

    fn opened() -> ConnState {
        let m = ConnMachine;
        let mut s = m.initial();
        step_mut(&m, &mut s, &ConnEvent::Open);
        s
    }

    #[test]
    fn happy_keep_alive_cycle() {
        let m = ConnMachine;
        let mut s = opened();
        assert_eq!(s.phase, Phase::Idle);
        assert!(s.idle_timer);

        let fx = step_mut(&m, &mut s, &ConnEvent::FirstByte);
        assert_eq!(s.phase, Phase::ReadingHead);
        assert!(fx.contains(&ConnEffect::ArmTimer(TimerKind::Head)));
        assert!(fx.contains(&ConnEffect::CancelTimer(TimerKind::Idle)));

        let fx = step_mut(&m, &mut s, &ConnEvent::HeadDone);
        assert_eq!(s.phase, Phase::ReadingBody);
        assert!(fx.contains(&ConnEffect::ArmTimer(TimerKind::Body)));

        let fx = step_mut(&m, &mut s, &ConnEvent::RequestDone);
        assert_eq!(s.phase, Phase::Handling);
        assert_eq!(
            fx,
            vec![
                ConnEffect::CancelTimer(TimerKind::Body),
                ConnEffect::Dispatch
            ]
        );

        let fx = step_mut(&m, &mut s, &ConnEvent::HandlerDone { close: false });
        assert_eq!(s.phase, Phase::Writing { close_after: false });
        assert_eq!(fx, vec![ConnEffect::StartWrite]);

        let fx = step_mut(&m, &mut s, &ConnEvent::WriteFlushed);
        assert_eq!(s.phase, Phase::Idle);
        assert!(s.idle_timer, "back on the idle clock");
        assert!(fx.contains(&ConnEffect::ArmTimer(TimerKind::Idle)));
    }

    #[test]
    fn header_deadline_times_out_with_408() {
        let m = ConnMachine;
        let mut s = opened();
        step_mut(&m, &mut s, &ConnEvent::FirstByte);
        let fx = step_mut(&m, &mut s, &ConnEvent::Deadline(TimerKind::Head));
        assert_eq!(s.phase, Phase::Writing { close_after: true });
        assert_eq!(fx, vec![ConnEffect::SendTimeout, ConnEffect::StartWrite]);
        let fx = step_mut(&m, &mut s, &ConnEvent::WriteFlushed);
        assert!(s.closed());
        assert!(fx.contains(&ConnEffect::Close));
    }

    #[test]
    fn drain_closes_idle_but_finishes_in_flight() {
        let m = ConnMachine;
        // Keep-alive idle (a request already served): drain closes
        // immediately, cancelling the idle timer.
        let mut idle = ConnState {
            fresh: false,
            ..opened()
        };
        let fx = step_mut(&m, &mut idle, &ConnEvent::DrainBegan);
        assert!(idle.closed());
        assert!(fx.contains(&ConnEffect::CancelTimer(TimerKind::Idle)));
        assert!(fx.contains(&ConnEffect::Close));

        // Mid-request: drain latches, the response closes behind it.
        let mut busy = opened();
        step_mut(&m, &mut busy, &ConnEvent::FirstByte);
        step_mut(&m, &mut busy, &ConnEvent::RequestDone);
        step_mut(&m, &mut busy, &ConnEvent::DrainBegan);
        assert_eq!(busy.phase, Phase::Handling);
        assert!(busy.draining);
        step_mut(&m, &mut busy, &ConnEvent::HandlerDone { close: false });
        assert_eq!(busy.phase, Phase::Writing { close_after: true });
        step_mut(&m, &mut busy, &ConnEvent::WriteFlushed);
        assert!(busy.closed());

        // Admitted, nothing read yet: the request may be in the socket,
        // so the connection goes on the head clock instead of closing,
        // and the drain closes it behind that one response.
        let mut unread = opened();
        let fx = step_mut(&m, &mut unread, &ConnEvent::DrainBegan);
        assert_eq!(unread.phase, Phase::ReadingHead);
        assert!(fx.contains(&ConnEffect::ArmTimer(TimerKind::Head)));
        step_mut(&m, &mut unread, &ConnEvent::RequestDone);
        step_mut(&m, &mut unread, &ConnEvent::HandlerDone { close: false });
        assert_eq!(unread.phase, Phase::Writing { close_after: true });
    }

    #[test]
    fn half_close_still_gets_its_response() {
        let m = ConnMachine;
        let mut s = opened();
        step_mut(&m, &mut s, &ConnEvent::FirstByte);
        step_mut(&m, &mut s, &ConnEvent::RequestDone);
        // Peer shuts its write side while the handler runs.
        let fx = step_mut(&m, &mut s, &ConnEvent::Eof);
        assert_eq!(s.phase, Phase::Handling);
        assert!(s.half_closed);
        assert!(fx.is_empty(), "no close while the response is owed");
        step_mut(&m, &mut s, &ConnEvent::HandlerDone { close: false });
        assert_eq!(s.phase, Phase::Writing { close_after: true });
        let fx = step_mut(&m, &mut s, &ConnEvent::WriteFlushed);
        assert!(s.closed());
        assert!(fx.contains(&ConnEffect::Close));
    }

    #[test]
    fn eof_mid_head_drops_the_partial_request() {
        let m = ConnMachine;
        let mut s = opened();
        step_mut(&m, &mut s, &ConnEvent::FirstByte);
        let fx = step_mut(&m, &mut s, &ConnEvent::Eof);
        assert!(s.closed());
        assert!(fx.contains(&ConnEffect::CancelTimer(TimerKind::Head)));
        assert!(fx.contains(&ConnEffect::Close));
    }

    #[test]
    fn closed_is_terminal_and_silent() {
        let m = ConnMachine;
        let mut s = opened();
        step_mut(&m, &mut s, &ConnEvent::Stopped);
        assert!(s.closed());
        for event in [
            ConnEvent::FirstByte,
            ConnEvent::HandlerDone { close: false },
            ConnEvent::WriteFlushed,
            ConnEvent::Deadline(TimerKind::Head),
            ConnEvent::Eof,
            ConnEvent::DrainBegan,
            ConnEvent::Stopped,
        ] {
            let before = s;
            let fx = step_mut(&m, &mut s, &event);
            assert_eq!(s, before, "{event:?} must not move a closed conn");
            assert!(fx.is_empty(), "{event:?} must not emit from Closed");
        }
    }

    #[test]
    fn bad_request_answers_400_and_closes() {
        let m = ConnMachine;
        let mut s = opened();
        step_mut(&m, &mut s, &ConnEvent::FirstByte);
        let fx = step_mut(&m, &mut s, &ConnEvent::BadRequest);
        assert_eq!(s.phase, Phase::Writing { close_after: true });
        assert!(fx.contains(&ConnEffect::SendBadRequest));
        assert!(!s.head_timer, "deadline cancelled with the request");
    }

    #[test]
    fn idle_timeout_reaps_the_connection() {
        let m = ConnMachine;
        let mut s = opened();
        let fx = step_mut(&m, &mut s, &ConnEvent::Deadline(TimerKind::Idle));
        assert!(s.closed());
        assert!(fx.contains(&ConnEffect::Close));
        assert!(!s.idle_timer);
    }
}
