//! Request/response over unidirectional pipes — the machinery of
//! Figures 5 and 6.
//!
//! A consumer (1) asks P2PS for an input pipe and its advertisement,
//! (2) adds itself as listener, (3) serialises the advert to a
//! WS-Addressing `ReplyTo`, (4) sends the SOAP request down the
//! service's pipe; the provider (5) converts the `ReplyTo` back to a
//! pipe advertisement, resolves it, and (6) returns the response down
//! it. Correlation uses `MessageID`/`RelatesTo`.

use crate::addressing::{reply_pipe_in, request_headers, target_pipe_in, with_reply_pipe};
use crate::advert::PipeAdvertisement;
use crate::rpc_machine::{RpcEffect, RpcEvent, RpcMachine, RpcState};
use std::collections::HashMap;
use wsp_simnet::step_mut;
use wsp_soap::{Envelope, MessageHeaders, WSA_NS};

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

    /// Build the wire form of a request to `target`, replying to
    /// `reply_pipe`, and remember it under `token`.
    pub fn encode_request(
        &mut self,
        token: u64,
        target: &PipeAdvertisement,
        reply_pipe: &PipeAdvertisement,
        mut envelope: Envelope,
    ) -> String {
        let headers = with_reply_pipe(request_headers(target), reply_pipe);
        let message_id = headers
            .message_id
            .clone()
            .expect("requests carry MessageID");
        envelope.set_addressing(headers);
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
        envelope.to_xml()
    }

    /// Interpret data that arrived on a return pipe: if it is a response
    /// to one of our requests, yield `(token, envelope)`.
    pub fn accept_response(&mut self, payload: &str) -> Option<(u64, Envelope)> {
        let envelope = Envelope::from_xml(payload).ok()?;
        // Only `RelatesTo` matters here; extracting the full header set
        // would copy every other header for nothing.
        let relates_to = envelope.find_header(WSA_NS, "RelatesTo")?.element.text();
        let token = *self.token_of_msg.get(relates_to.trim())?;
        let effects = step_mut(
            &self.machine,
            &mut self.state,
            &RpcEvent::ResponseArrived(token),
        );
        self.purge(token);
        match effects.first() {
            Some(RpcEffect::DeliverReply { .. }) => Some((token, envelope)),
            // Late response for a token whose pipe already closed (or
            // that was forgotten): drop it.
            _ => None,
        }
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

/// Provider-side view of one received request.
#[derive(Debug)]
pub struct ReceivedRequest {
    pub envelope: Envelope,
    /// The local pipe the request addressed.
    pub target: Option<PipeAdvertisement>,
    /// Where the response should go (Figure 6, step 4).
    pub reply_pipe: Option<PipeAdvertisement>,
    /// The request's WS-Addressing headers, extracted once: the two
    /// pipes above are read from them and the response relates to them.
    headers: MessageHeaders,
}

/// Parse a request arriving on a service input pipe.
pub fn decode_request(payload: &str) -> Option<ReceivedRequest> {
    let envelope = Envelope::from_xml(payload).ok()?;
    let extracted = envelope.addressing();
    let target = extracted
        .as_ref()
        .and_then(|headers| target_pipe_in(&envelope, headers));
    let reply_pipe = extracted.as_ref().and_then(reply_pipe_in);
    Some(ReceivedRequest {
        envelope,
        target,
        reply_pipe,
        headers: extracted.unwrap_or_default(),
    })
}

/// Build the wire form of the response to `request`, addressed back
/// down its reply pipe. Returns `None` for one-way requests (no
/// `ReplyTo`).
pub fn encode_response(
    request: &ReceivedRequest,
    mut response: Envelope,
) -> Option<(PipeAdvertisement, String)> {
    let reply_pipe = request.reply_pipe.clone()?;
    let action = format!("{}#response", reply_pipe.uri().address());
    response.set_addressing(MessageHeaders::response_to(&request.headers, action));
    Some((reply_pipe, response.to_xml()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::PeerId;
    use wsp_xml::Element;

    fn service_pipe() -> PipeAdvertisement {
        PipeAdvertisement::new(PeerId(0xAA), Some("Echo".into()), "in")
    }

    fn return_pipe() -> PipeAdvertisement {
        PipeAdvertisement::new(PeerId(0xBB), None, "return-1")
    }

    fn request_envelope(text: &str) -> Envelope {
        Envelope::request(
            Element::build("urn:demo", "echoString")
                .text(text.to_owned())
                .finish(),
        )
    }

    #[test]
    fn full_figures_5_6_round_trip() {
        let mut correlator = RpcCorrelator::new();
        // Consumer side (Figure 5).
        let wire =
            correlator.encode_request(42, &service_pipe(), &return_pipe(), request_envelope("hi"));
        assert_eq!(correlator.pending(), 1);

        // Provider side (Figure 6).
        let received = decode_request(&wire).expect("parse request");
        assert_eq!(received.target.as_ref(), Some(&service_pipe()));
        assert_eq!(received.reply_pipe.as_ref(), Some(&return_pipe()));
        assert_eq!(received.envelope.payload().unwrap().text(), "hi");

        let reply = Envelope::request(
            Element::build("urn:demo", "echoStringResponse")
                .text("hi")
                .finish(),
        );
        let (pipe, response_wire) = encode_response(&received, reply).expect("has reply pipe");
        assert_eq!(pipe, return_pipe());

        // Back at the consumer.
        let (token, envelope) = correlator
            .accept_response(&response_wire)
            .expect("correlates");
        assert_eq!(token, 42);
        assert_eq!(envelope.payload().unwrap().text(), "hi");
        assert_eq!(correlator.pending(), 0);
    }

    #[test]
    fn uncorrelated_response_ignored() {
        let mut correlator = RpcCorrelator::new();
        let mut stray = Envelope::request(Element::new("urn:demo", "r"));
        stray.set_addressing(MessageHeaders {
            relates_to: Some("urn:wsp:msg:unknown".into()),
            ..MessageHeaders::default()
        });
        assert!(correlator.accept_response(&stray.to_xml()).is_none());
    }

    #[test]
    fn response_without_relates_to_ignored() {
        let mut correlator = RpcCorrelator::new();
        let _ =
            correlator.encode_request(1, &service_pipe(), &return_pipe(), request_envelope("x"));
        let unrelated = Envelope::request(Element::new("urn:demo", "r")).to_xml();
        assert!(correlator.accept_response(&unrelated).is_none());
        assert_eq!(correlator.pending(), 1);
    }

    #[test]
    fn one_way_request_has_no_response() {
        let mut plain = Envelope::request(Element::new("urn:demo", "notify"));
        plain.set_addressing(request_headers(&service_pipe())); // no ReplyTo
        let received = decode_request(&plain.to_xml()).unwrap();
        assert!(encode_response(&received, Envelope::empty()).is_none());
    }

    #[test]
    fn forget_times_out_requests() {
        let mut correlator = RpcCorrelator::new();
        let wire =
            correlator.encode_request(9, &service_pipe(), &return_pipe(), request_envelope("x"));
        let request = Envelope::from_xml(&wire).unwrap();
        let id = request.addressing().unwrap().message_id.unwrap();
        assert!(correlator.forget(&id));
        assert_eq!(correlator.pending(), 0);
        // A late response no longer correlates.
        let received = decode_request(&wire).unwrap();
        let (_, response_wire) = encode_response(&received, Envelope::empty()).unwrap();
        assert!(correlator.accept_response(&response_wire).is_none());
    }

    #[test]
    fn two_outstanding_requests_correlate_independently() {
        let mut correlator = RpcCorrelator::new();
        let wire_a =
            correlator.encode_request(1, &service_pipe(), &return_pipe(), request_envelope("a"));
        let wire_b =
            correlator.encode_request(2, &service_pipe(), &return_pipe(), request_envelope("b"));
        let ra = decode_request(&wire_a).unwrap();
        let rb = decode_request(&wire_b).unwrap();
        // Answer b first.
        let (_, resp_b) = encode_response(&rb, Envelope::empty()).unwrap();
        let (_, resp_a) = encode_response(&ra, Envelope::empty()).unwrap();
        assert_eq!(correlator.accept_response(&resp_b).unwrap().0, 2);
        assert_eq!(correlator.accept_response(&resp_a).unwrap().0, 1);
    }
}
