//! The container-less host serves `/metrics` over real HTTP. A binary of
//! its own: the trace section shows only the most recent spans of the
//! process-wide ring, so spans that tests running beside it in one
//! process record can push out the ones this test looks for.

use std::sync::Arc;
use wsp_core::bindings::HttpUddiBinding;
use wsp_core::telemetry;
use wsp_core::{EventBus, Peer, ServiceQuery};
use wsp_http::{http_call, Request};
use wsp_wsdl::{ServiceDescriptor, Value};

/// Deploy a service on the standard binding, invoke it over real HTTP,
/// then scrape the host's `/metrics` route: the counters, histograms,
/// pool/dispatcher gauges and the trace section must all be there.
#[test]
fn metrics_route_served_by_container_less_host() {
    telemetry::global().set_enabled(true);
    let events = EventBus::new();
    let binding = HttpUddiBinding::with_local_registry(wsp_uddi::Registry::new(), events.clone());
    let peer = Peer::with_event_bus(events);
    peer.attach(&binding);
    peer.server()
        .deploy_and_publish(
            ServiceDescriptor::echo(),
            Arc::new(|_op: &str, args: &[Value]| Ok(args[0].clone())),
        )
        .unwrap();
    let service = peer
        .client()
        .locate_one(&ServiceQuery::by_name("Echo"))
        .unwrap();
    let handle =
        peer.client()
            .invoke_async(service, "echoString", vec![Value::string("observable")]);
    let token = handle.token();
    assert_eq!(handle.wait().unwrap(), Value::string("observable"));

    let port = binding.host_port().expect("deployment launched the host");
    let response = http_call("127.0.0.1", port, Request::get("/metrics")).unwrap();
    assert!(response.is_success());
    let body = response.body_str();
    for needle in [
        "client.invoke_us_count",
        "client.invoke_us_p99",
        "dispatch.run_us_count",
        "dispatch.queue_wait_us_count",
        "server.serve_us_count",
        "reactor.jobs_on_reader",
        "reactor.jobs_queued",
        "reactor.handlers_busy",
        "http_pool_hits",
        "http_pool_misses",
        "dispatch_submitted",
        "dispatch_workers",
        "# trace (most recent spans)",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    // The reactor's hand-off counters: the requests above ran on the
    // threads that read them, and this very scrape is inside a handler.
    let metric = |name: &str| -> u64 {
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("no value for {name:?}"))
    };
    assert!(metric("reactor.jobs_on_reader ") >= 1);
    assert!(metric("reactor.handlers_busy ") >= 1);
    // Caller-run jobs (the synchronous locate above) still leave a
    // queue-wait sample, so the two histograms count the same jobs.
    assert!(metric("dispatch.queue_wait_us_count ") >= 2);

    // The invoke above is reconstructable from the scrape alone: its
    // correlation id appears on client- and server-side spans.
    let corr = format!("corr={token}");
    let stages: Vec<&str> = body
        .lines()
        .filter(|l| l.contains(&corr))
        .flat_map(|l| l.split_whitespace().find(|w| w.starts_with("stage=")))
        .collect();
    for stage in [
        "stage=http.request",
        "stage=server.request",
        "stage=server.response",
        "stage=http.response",
        "stage=client.ok",
    ] {
        assert!(stages.contains(&stage), "missing {stage} in {stages:?}");
    }
}
