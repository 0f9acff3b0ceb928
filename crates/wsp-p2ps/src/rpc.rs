//! Request/response over unidirectional pipes — the machinery of
//! Figures 5 and 6.
//!
//! A consumer (1) asks P2PS for an input pipe and its advertisement,
//! (2) adds itself as listener, (3) serialises the advert to a
//! WS-Addressing `ReplyTo`, (4) sends the SOAP request down the
//! service's pipe; the provider (5) converts the `ReplyTo` back to a
//! pipe advertisement, resolves it, and (6) returns the response down
//! it. Correlation uses `MessageID`/`RelatesTo`.
//!
//! Everything here deals in [`MessageHeaders`]: what a message says
//! about where it goes and what it answers. Whoever holds the body
//! writes the wire form around them — streamed, or as a
//! [`wsp_soap::Envelope`].

use crate::addressing::{reply_pipe_in, request_headers, with_reply_pipe};
use crate::advert::PipeAdvertisement;
use crate::rpc_machine::{RpcEffect, RpcEvent, RpcMachine, RpcState};
use crate::uri::address_with;
use std::collections::HashMap;
use wsp_simnet::Machine;
use wsp_soap::typed::read_envelope;
use wsp_soap::{HeaderBlock, MessageHeaders};

/// Consumer-side correlation of responses to outstanding requests.
///
/// A thin shell over the pure [`RpcMachine`]: the machine holds which
/// return pipes are open and which tokens await a reply on which pipe;
/// this struct owns only what the wire adds — the `MessageID` ⇄ token
/// aliasing and the [`PipeAdvertisement`] ⇄ abstract-pipe-id interning
/// — and executes the machine's effects.
#[derive(Debug, Default)]
pub struct RpcCorrelator {
    machine: RpcMachine,
    state: RpcState,
    /// The buffer every step writes its effects into.
    effects: Vec<RpcEffect>,
    token_of_msg: HashMap<String, u64>,
    msg_of_token: HashMap<u64, String>,
    /// Open return pipes → their abstract id in the machine. Entries
    /// leave on [`pipe_closed`](RpcCorrelator::pipe_closed), so the
    /// map is bounded by the open-pipe count (return-pipe names are
    /// unique per request and must not accumulate).
    pipe_ids: HashMap<PipeAdvertisement, u64>,
    next_pipe_id: u64,
}

impl RpcCorrelator {
    pub fn new() -> Self {
        RpcCorrelator::default()
    }

    /// The correlator's one step point: `event` through the machine,
    /// and the effects it emitted, valid until the next step.
    fn step(&mut self, event: RpcEvent) -> &[RpcEffect] {
        self.effects.clear();
        (self.machine).step_into(&mut self.state, &event, &mut self.effects);
        &self.effects
    }

    fn pipe_id(&mut self, pipe: &PipeAdvertisement) -> u64 {
        if let Some(&id) = self.pipe_ids.get(pipe) {
            return id;
        }
        let id = self.next_pipe_id;
        self.next_pipe_id += 1;
        self.pipe_ids.insert(pipe.clone(), id);
        self.step(RpcEvent::OpenPipe(id));
        id
    }

    /// Drop the wire-level aliasing for a settled token.
    fn purge(&mut self, token: u64) {
        if let Some(msg) = self.msg_of_token.remove(&token) {
            self.token_of_msg.remove(&msg);
        }
    }

    /// The return pipe was torn down: abandon every request still
    /// expecting its reply there (their responses can never arrive).
    /// Returns how many requests were abandoned.
    pub fn pipe_closed(&mut self, pipe: &PipeAdvertisement) -> usize {
        let Some(id) = self.pipe_ids.remove(pipe) else {
            return 0;
        };
        self.step(RpcEvent::ClosePipe(id));
        let effects = std::mem::take(&mut self.effects);
        let mut abandoned = 0;
        for &effect in &effects {
            if let RpcEffect::AbandonRequest(token) = effect {
                self.purge(token);
                abandoned += 1;
            }
        }
        self.effects = effects;
        abandoned
    }

    /// The headers of a request to `target` that is to be answered
    /// down `reply_pipe`, remembered under `token`.
    pub fn encode_request(
        &mut self,
        token: u64,
        target: &PipeAdvertisement,
        reply_pipe: &PipeAdvertisement,
    ) -> MessageHeaders {
        let headers = with_reply_pipe(request_headers(target), reply_pipe);
        let message_id = headers
            .message_id
            .clone()
            .expect("requests carry MessageID");
        let pipe = self.pipe_id(reply_pipe);
        let sent = self.step(RpcEvent::SendRequest {
            token,
            reply_pipe: pipe,
        });
        debug_assert!(
            !sent.contains(&RpcEffect::RejectSendNoPipe(token)),
            "pipe_id just opened the pipe"
        );
        self.token_of_msg.insert(message_id.clone(), token);
        self.msg_of_token.insert(token, message_id);
        headers
    }

    /// Interpret data that arrived on a return pipe: if it is the
    /// response to one of our requests, yield that request's token.
    /// The body is the caller's to read; here it is only known to be
    /// the body of a well-formed envelope. [`RpcCorrelator::awaiting`]
    /// then [`RpcCorrelator::settle`], for a caller that has read the
    /// headers itself.
    pub fn accept_response(&mut self, payload: &str) -> Option<u64> {
        let relates_to = decode_request(payload, &mut |_| {})?.relates_to?;
        let token = self.awaiting(&relates_to)?;
        self.settle(token).then_some(token)
    }

    /// The token of the request whose response names `relates_to`, if
    /// it is outstanding: a lookup, no step of the machine.
    pub fn awaiting(&self, relates_to: &str) -> Option<u64> {
        self.token_of_msg.get(relates_to).copied()
    }

    /// The response to `token` arrived: settle the request. False if it
    /// was no longer awaited — a late response for a token whose pipe
    /// already closed (or that was forgotten), or a second response.
    pub fn settle(&mut self, token: u64) -> bool {
        let delivered = matches!(
            self.step(RpcEvent::ResponseArrived(token)).first(),
            Some(RpcEffect::DeliverReply { .. })
        );
        self.purge(token);
        delivered
    }

    /// Outstanding request count (for timeout sweeps).
    pub fn pending(&self) -> usize {
        self.state.pending.len()
    }

    /// Forget a request by wire message id (timeout). Returns true if
    /// it was pending.
    pub fn forget(&mut self, message_id: &str) -> bool {
        match self.token_of_msg.get(message_id) {
            Some(&token) => self.forget_token(token),
            None => false,
        }
    }

    /// Forget a request by its app token (timeout). Returns true if it
    /// was pending.
    pub fn forget_token(&mut self, token: u64) -> bool {
        let abandoned =
            (self.step(RpcEvent::Forget(token))).contains(&RpcEffect::AbandonRequest(token));
        self.purge(token);
        abandoned
    }

    /// The pure machine state (for bisimulation tests and debugging).
    pub fn machine_state(&self) -> &RpcState {
        &self.state
    }
}

/// Read what a message arriving on a pipe says of itself, whatever it
/// carries: its WS-Addressing headers, with every other header block
/// shown to `foreign` once and the body passed over. A message that
/// breaks a shape rule still says where it came from and what it
/// answers, as far as its headers were read; `None` for one that is not
/// a SOAP envelope at all.
pub fn decode_request(
    payload: &str,
    foreign: &mut dyn FnMut(&HeaderBlock),
) -> Option<MessageHeaders> {
    let read = read_envelope(payload, foreign, |_| Ok(()));
    read.ok().map(|(headers, _)| headers)
}

/// Where the response to the request carrying `request` goes (Figure
/// 6, step 4) and the headers it goes under. `None` for a one-way
/// request (no `ReplyTo`).
pub fn encode_response(request: &MessageHeaders) -> Option<(PipeAdvertisement, MessageHeaders)> {
    let reply_pipe = reply_pipe_in(request)?;
    let service = reply_pipe.service.as_deref();
    let action = address_with(reply_pipe.peer, service, Some("response"));
    Some((reply_pipe, MessageHeaders::response_to(request, action)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::PeerId;
    use wsp_soap::Envelope;
    use wsp_xml::Element;

    fn service_pipe() -> PipeAdvertisement {
        PipeAdvertisement::new(PeerId(0xAA), Some("Echo".into()), "in")
    }

    fn return_pipe() -> PipeAdvertisement {
        PipeAdvertisement::new(PeerId(0xBB), None, "return-1")
    }

    fn addressed(mut envelope: Envelope, headers: MessageHeaders) -> String {
        envelope.set_addressing(headers);
        envelope.to_xml()
    }

    fn request(correlator: &mut RpcCorrelator, token: u64, text: &str) -> String {
        let payload = Element::build("urn:demo", "echoString")
            .text(text.to_owned())
            .finish();
        let headers = correlator.encode_request(token, &service_pipe(), &return_pipe());
        addressed(Envelope::request(payload), headers)
    }

    /// The provider's answer to `wire`: an empty body down the reply pipe.
    fn response_to(wire: &str) -> Option<(PipeAdvertisement, String)> {
        let (pipe, headers) = encode_response(&decode_request(wire, &mut |_| {})?)?;
        Some((pipe, addressed(Envelope::empty(), headers)))
    }

    #[test]
    fn full_figures_5_6_round_trip() {
        let mut correlator = RpcCorrelator::new();
        // Consumer side (Figure 5).
        let wire = request(&mut correlator, 42, "hi");
        assert_eq!(correlator.pending(), 1);

        // Provider side (Figure 6).
        let mut foreign = Vec::new();
        let received = decode_request(&wire, &mut |block| foreign.push(block.element.text()));
        let received = received.expect("parse request");
        assert_eq!(foreign, ["in"], "the copied PipeName reference property");
        assert_eq!(reply_pipe_in(&received), Some(return_pipe()));
        assert_eq!(received.to, Some(service_pipe().uri().address()));

        let (pipe, response_wire) = response_to(&wire).expect("has reply pipe");
        assert_eq!(pipe, return_pipe());

        // Back at the consumer.
        assert_eq!(correlator.accept_response(&response_wire), Some(42));
        assert_eq!(correlator.pending(), 0);
    }

    #[test]
    fn a_request_that_breaks_a_shape_rule_is_still_routed() {
        let mut correlator = RpcCorrelator::new();
        let wire = request(&mut correlator, 7, "x");
        // A second Header breaks the frame's shape; the headers before
        // it were read, and the request is answered where they say.
        let odd = wire.replacen("<env:Body>", "<env:Header/><env:Body>", 1);
        let (_, read) = read_envelope(&odd, &mut |_| {}, |_| Ok(())).unwrap();
        assert!(read.is_err());
        let typed = decode_request(&wire, &mut |_| {}).unwrap();
        assert_eq!(decode_request(&odd, &mut |_| {}), Some(typed));
        assert!(decode_request(&wire[..wire.len() - 3], &mut |_| {}).is_none());
    }

    #[test]
    fn uncorrelated_response_ignored() {
        let mut correlator = RpcCorrelator::new();
        let stray = addressed(
            Envelope::request(Element::new("urn:demo", "r")),
            MessageHeaders {
                relates_to: Some("urn:wsp:msg:unknown".into()),
                ..MessageHeaders::default()
            },
        );
        assert!(correlator.accept_response(&stray).is_none());
    }

    #[test]
    fn response_without_relates_to_ignored() {
        let mut correlator = RpcCorrelator::new();
        let _ = request(&mut correlator, 1, "x");
        let unrelated = Envelope::request(Element::new("urn:demo", "r")).to_xml();
        assert!(correlator.accept_response(&unrelated).is_none());
        assert_eq!(correlator.pending(), 1);
    }

    #[test]
    fn one_way_request_has_no_response() {
        let plain = addressed(
            Envelope::request(Element::new("urn:demo", "notify")),
            request_headers(&service_pipe()), // no ReplyTo
        );
        assert!(response_to(&plain).is_none());
    }

    #[test]
    fn forget_times_out_requests() {
        let mut correlator = RpcCorrelator::new();
        let wire = request(&mut correlator, 9, "x");
        let id = decode_request(&wire, &mut |_| {}).unwrap().message_id;
        assert!(correlator.forget(&id.unwrap()));
        assert_eq!(correlator.pending(), 0);
        // A late response no longer correlates.
        let (_, response_wire) = response_to(&wire).unwrap();
        assert!(correlator.accept_response(&response_wire).is_none());
    }

    #[test]
    fn two_outstanding_requests_correlate_independently() {
        let mut correlator = RpcCorrelator::new();
        let wire_a = request(&mut correlator, 1, "a");
        let wire_b = request(&mut correlator, 2, "b");
        // Answer b first.
        let (_, resp_b) = response_to(&wire_b).unwrap();
        let (_, resp_a) = response_to(&wire_a).unwrap();
        assert_eq!(correlator.accept_response(&resp_b), Some(2));
        assert_eq!(correlator.accept_response(&resp_a), Some(1));
    }
}
