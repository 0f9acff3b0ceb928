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
//! writes the wire form around them — streamed, or as an [`Envelope`].

use crate::addressing::{reply_pipe_in, request_headers, with_reply_pipe};
use crate::advert::PipeAdvertisement;
use crate::rpc_machine::{RpcEffect, RpcEvent, RpcMachine, RpcState};
use std::collections::HashMap;
use wsp_simnet::step_mut;
use wsp_soap::typed::{read_envelope, show_foreign};
use wsp_soap::{Envelope, MessageHeaders};
use wsp_xml::Element;

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

    fn pipe_id(&mut self, pipe: &PipeAdvertisement) -> u64 {
        if let Some(&id) = self.pipe_ids.get(pipe) {
            return id;
        }
        let id = self.next_pipe_id;
        self.next_pipe_id += 1;
        self.pipe_ids.insert(pipe.clone(), id);
        step_mut(&self.machine, &mut self.state, &RpcEvent::OpenPipe(id));
        id
    }

    /// Drop the wire-level aliasing for a settled token.
    fn purge(&mut self, token: u64) {
        if let Some(msg) = self.msg_of_token.remove(&token) {
            self.token_of_msg.remove(&msg);
        }
    }

    /// Note that `pipe` is open and listening for replies.
    /// (`encode_request` opens its reply pipe implicitly; explicit
    /// calls are only needed to model a pipe with no traffic yet.)
    pub fn pipe_opened(&mut self, pipe: &PipeAdvertisement) {
        self.pipe_id(pipe);
    }

    /// The return pipe was torn down: abandon every request still
    /// expecting its reply there (their responses can never arrive).
    /// Returns how many requests were abandoned.
    pub fn pipe_closed(&mut self, pipe: &PipeAdvertisement) -> usize {
        let Some(id) = self.pipe_ids.remove(pipe) else {
            return 0;
        };
        let effects = step_mut(&self.machine, &mut self.state, &RpcEvent::ClosePipe(id));
        let mut abandoned = 0;
        for effect in effects {
            if let RpcEffect::AbandonRequest(token) = effect {
                self.purge(token);
                abandoned += 1;
            }
        }
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
        let effects = step_mut(
            &self.machine,
            &mut self.state,
            &RpcEvent::SendRequest {
                token,
                reply_pipe: pipe,
            },
        );
        debug_assert!(
            !effects.contains(&RpcEffect::RejectSendNoPipe(token)),
            "pipe_id just opened the pipe"
        );
        self.token_of_msg.insert(message_id.clone(), token);
        self.msg_of_token.insert(token, message_id);
        headers
    }

    /// Interpret data that arrived on a return pipe: if it is the
    /// response to one of our requests, yield that request's token.
    /// The body is the caller's to read; here it is only known to be
    /// the body of a well-formed envelope.
    pub fn accept_response(&mut self, payload: &str) -> Option<u64> {
        let relates_to = decode_request(payload, &mut |_| {})?.relates_to?;
        let token = *self.token_of_msg.get(&relates_to)?;
        let effects = step_mut(
            &self.machine,
            &mut self.state,
            &RpcEvent::ResponseArrived(token),
        );
        self.purge(token);
        // Not delivered: a late response for a token whose pipe already
        // closed (or that was forgotten).
        matches!(effects.first(), Some(RpcEffect::DeliverReply { .. })).then_some(token)
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
        let effects = step_mut(&self.machine, &mut self.state, &RpcEvent::Forget(token));
        self.purge(token);
        effects.contains(&RpcEffect::AbandonRequest(token))
    }

    /// The pure machine state (for bisimulation tests and debugging).
    pub fn machine_state(&self) -> &RpcState {
        &self.state
    }
}

/// Read what a message arriving on a pipe says of itself, whatever it
/// carries: its WS-Addressing headers, with every other header block
/// shown to `foreign` (at least once) and the body passed over — off
/// the reader where that knows the envelope's shape, from the parsed
/// envelope where it does not.
pub fn decode_request(payload: &str, foreign: &mut dyn FnMut(&Element)) -> Option<MessageHeaders> {
    if let Some((headers, ())) = read_envelope(payload, foreign, |body| body.skip().ok()) {
        return Some(headers);
    }
    let envelope = Envelope::from_xml(payload).ok()?;
    show_foreign(&envelope, foreign);
    Some(envelope.addressing().unwrap_or_default())
}

/// Where the response to the request carrying `request` goes (Figure
/// 6, step 4) and the headers it goes under. `None` for a one-way
/// request (no `ReplyTo`).
pub fn encode_response(request: &MessageHeaders) -> Option<(PipeAdvertisement, MessageHeaders)> {
    let reply_pipe = reply_pipe_in(request)?;
    let action = format!("{}#response", reply_pipe.uri().address());
    Some((reply_pipe, MessageHeaders::response_to(request, action)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addressing::target_pipe_of;
    use crate::id::PeerId;
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
        let received = decode_request(&wire, &mut |block| foreign.push(block.text()));
        let received = received.expect("parse request");
        assert_eq!(foreign, ["in"], "the copied PipeName reference property");
        assert_eq!(reply_pipe_in(&received), Some(return_pipe()));
        let envelope = Envelope::from_xml(&wire).unwrap();
        assert_eq!(target_pipe_of(&envelope), Some(service_pipe()));

        let (pipe, response_wire) = response_to(&wire).expect("has reply pipe");
        assert_eq!(pipe, return_pipe());

        // Back at the consumer.
        assert_eq!(correlator.accept_response(&response_wire), Some(42));
        assert_eq!(correlator.pending(), 0);
    }

    #[test]
    fn a_request_the_reader_declines_is_routed_from_its_tree() {
        let mut correlator = RpcCorrelator::new();
        let wire = request(&mut correlator, 7, "x");
        // A second Header is not a shape the typed reader knows.
        let odd = wire.replacen("<env:Body>", "<env:Header/><env:Body>", 1);
        assert!(read_envelope(&odd, &mut |_| {}, |body| body.skip().ok()).is_none());
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
