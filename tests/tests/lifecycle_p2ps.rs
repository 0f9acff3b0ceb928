//! Figure 4 over real threads: the P2PS lifecycle, including the
//! definition pipe, request/response over unidirectional pipes, faults,
//! one-way operations and provider departure.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use wsp_core::bindings::{P2psBinding, P2psConfig};
use wsp_core::overload::{self, current_deadline};
use wsp_core::{
    telemetry, BindingKind, CorrelationScope, DeadlineScope, DeployedService, Dispatcher,
    DispatcherConfig, EventBus, LocatedService, Peer, ServiceQuery, WspError,
};
use wsp_integration_tests::{
    calc_descriptor, calc_handler, locate_until_found, p2ps_star, p2ps_wspeer, wait_until,
};
use wsp_p2ps::{
    decode_request, encode_response, request_headers, with_reply_pipe, PeerConfig, PeerId,
    PipeAdvertisement, ServiceAdvertisement, ThreadNetwork, ThreadPeer, ThreadPeerEvent,
    DEFINITION_PIPE, MAX_INLINE_DEPTH,
};
use wsp_soap::{Envelope, FaultCode, MessageHeaders};
use wsp_wsdl::{Port, ServiceHandler, TransportKind, Value, WsdlDocument};
use wsp_xml::Element;

#[test]
fn full_lifecycle_over_pipes() {
    let (_network, _rv, mut peers) = p2ps_star(2);
    let consumer_thread = peers.pop().unwrap();
    let provider_thread = peers.pop().unwrap();
    let (provider, _pb) = p2ps_wspeer(provider_thread);
    let (consumer, _cb) = p2ps_wspeer(consumer_thread);

    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();

    let service = locate_until_found(&consumer, &ServiceQuery::by_name("Calc"));
    assert!(service.endpoint.starts_with("p2ps://"));
    // WSDL came through the definition pipe with the full contract.
    assert_eq!(service.wsdl.descriptor.operations.len(), 4);

    let sum = consumer
        .client()
        .invoke(&service, "add", &[Value::Double(20.0), Value::Double(22.0)])
        .unwrap();
    assert_eq!(sum, Value::Double(42.0));
}

#[test]
fn fault_travels_back_down_return_pipe() {
    let (_network, _rv, mut peers) = p2ps_star(2);
    let (provider, _pb) = p2ps_wspeer(peers.pop().unwrap());
    let (consumer, _cb) = p2ps_wspeer(peers.pop().unwrap());
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();

    let service = locate_until_found(&consumer, &ServiceQuery::by_name("Calc"));
    let err = consumer.client().invoke(&service, "fail", &[]).unwrap_err();
    assert!(
        matches!(&err, WspError::Fault(f) if f.reason == "deliberate failure"),
        "{err:?}"
    );
}

#[test]
fn one_way_is_fire_and_forget() {
    let (_network, _rv, mut peers) = p2ps_star(2);
    let (provider, _pb) = p2ps_wspeer(peers.pop().unwrap());
    let (consumer, _cb) = p2ps_wspeer(peers.pop().unwrap());
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();

    let service = locate_until_found(&consumer, &ServiceQuery::by_name("Calc"));
    let started = std::time::Instant::now();
    let out = consumer
        .client()
        .invoke(&service, "log", &[Value::string("note")])
        .unwrap();
    assert_eq!(out, Value::Null);
    // No return pipe wait: far below the request timeout.
    assert!(started.elapsed() < Duration::from_secs(1));
}

#[test]
fn attribute_discovery_over_pipes() {
    let (_network, _rv, mut peers) = p2ps_star(3);
    let (provider, _pb) = p2ps_wspeer(peers.pop().unwrap());
    let (consumer, _cb) = p2ps_wspeer(peers.pop().unwrap());
    let (probe, _probe_binding) = p2ps_wspeer(peers.pop().unwrap());
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    // The advert is at the rendezvous once another peer finds it; the
    // consumer's own cache stays empty, so its hit has to come from the
    // rendezvous matching the attribute.
    locate_until_found(&probe, &ServiceQuery::by_name("Calc"));

    let hit = consumer
        .client()
        .locate(&ServiceQuery::any().with_property("suite", "integration"))
        .unwrap();
    assert_eq!(hit.len(), 1);
    let miss = consumer
        .client()
        .locate(&ServiceQuery::any().with_property("suite", "nope"))
        .unwrap();
    assert!(miss.is_empty());
}

#[test]
fn departed_provider_times_out_not_hangs() {
    let (_network, _rv, mut peers) = p2ps_star(2);
    let (consumer, _cb) = p2ps_wspeer(peers.pop().unwrap());
    let provider_thread = peers.pop().unwrap();
    let (provider, _pb) = p2ps_wspeer(provider_thread);
    let owned_by_handler = Arc::new(());
    let probe = Arc::downgrade(&owned_by_handler);
    let calc = calc_handler();
    let handler: Arc<dyn ServiceHandler> = Arc::new(move |op: &str, args: &[Value]| {
        let _ = &owned_by_handler;
        calc.invoke(op, args)
    });
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), handler)
        .unwrap();

    let service = locate_until_found(&consumer, &ServiceQuery::by_name("Calc"));
    // The provider (and its peer thread) leaves the network. A worker
    // that served its definition pipe may hold its state for an
    // instant; once that is freed, the peer is out of the directory.
    drop(provider);
    drop(_pb);
    assert!(
        wait_until(Duration::from_secs(5), || probe.upgrade().is_none()),
        "the provider's state outlived every handle to it"
    );

    let started = std::time::Instant::now();
    let err = consumer
        .client()
        .invoke(&service, "add", &[Value::Double(1.0), Value::Double(1.0)])
        .unwrap_err();
    assert!(matches!(err, WspError::Timeout { .. }), "{err:?}");
    assert!(
        started.elapsed() >= Duration::from_secs(2),
        "waited out the timeout"
    );
}

#[test]
fn unpublished_service_ages_out_of_discovery() {
    let (_network, _rv, mut peers) = p2ps_star(2);
    let (provider, _pb) = p2ps_wspeer(peers.pop().unwrap());
    let (consumer, _cb) = p2ps_wspeer(peers.pop().unwrap());
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    locate_until_found(&consumer, &ServiceQuery::by_name("Calc"));
    assert_eq!(
        consumer
            .client()
            .locate(&ServiceQuery::by_name("Calc"))
            .unwrap()
            .len(),
        1
    );

    provider.server().undeploy("Calc");
    // The rendezvous cache still holds the advert (soft state), but the
    // provider no longer serves the definition pipe, so the locate
    // returns nothing usable.
    let found = wait_until(Duration::from_secs(3), || {
        consumer
            .client()
            .locate(&ServiceQuery::by_name("Calc"))
            .unwrap()
            .is_empty()
    });
    assert!(found, "undeployed service should stop being locatable");
}

#[test]
fn concurrent_invocations_multiplex_one_peer() {
    let (_network, _rv, mut peers) = p2ps_star(2);
    let (provider, _pb) = p2ps_wspeer(peers.pop().unwrap());
    let (consumer, _cb) = p2ps_wspeer(peers.pop().unwrap());
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let service = locate_until_found(&consumer, &ServiceQuery::by_name("Calc"));

    // Several async invocations in flight at once over one peer; each
    // gets its own return pipe and correlates independently through
    // the dispatcher's table.
    let handles: Vec<_> = (0..6)
        .map(|i| {
            consumer.client().invoke_async(
                service.clone(),
                "add",
                vec![Value::Double(i as f64), Value::Double(100.0)],
            )
        })
        .collect();
    let mut tokens: Vec<u64> = handles.iter().map(|h| h.token()).collect();
    tokens.sort_unstable();
    tokens.dedup();
    assert_eq!(
        tokens.len(),
        6,
        "each in-flight call has a distinct correlation token"
    );
    for (i, handle) in handles.into_iter().enumerate() {
        let sum = handle.wait().unwrap();
        assert_eq!(sum, Value::Double(100.0 + i as f64));
    }
}

/// What a locate would return for `deployed`, without the discovery
/// traffic: on a network without neighbours pipes still resolve
/// through the directory, and nothing but invocations reaches the wire.
fn located(deployed: &DeployedService) -> LocatedService {
    LocatedService::new(
        deployed.wsdl.clone(),
        deployed.endpoints[0].clone(),
        BindingKind::P2ps,
    )
}

/// The `n`-th return pipe a peer opens (the machine names them in
/// sequence; the gated first call below checks the convention holds).
fn return_pipe(peer: PeerId, n: usize) -> PipeAdvertisement {
    PipeAdvertisement::new(peer, None, format!("pipe-{n}"))
}

/// The threading change under load: callers on four threads step one
/// consumer peer concurrently, the provider's handler makes a nested
/// P2PS call through its own peer (a worker waiting on its own inbox
/// thread), and afterwards nothing is left behind on any layer.
#[test]
fn nested_invokes_from_four_threads_leave_nothing_behind() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 500;

    let network = ThreadNetwork::new();
    let spawn = |id| p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(id))));
    let (consumer, consumer_binding) = spawn(0xC0);
    let (relay, relay_binding) = spawn(0xC1);
    let (backend, _backend_binding) = spawn(0xC2);

    // backend: the calculator, with a gate the first call waits at.
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let gate = parking_lot::Mutex::new(Some((entered_tx, release_rx)));
    let calc = calc_handler();
    let gated: Arc<dyn ServiceHandler> = Arc::new(move |op: &str, args: &[Value]| {
        if let Some((entered, release)) = gate.lock().take() {
            entered.send(()).unwrap();
            release.recv().unwrap();
        }
        calc.invoke(op, args)
    });
    let inner = located(&backend.server().deploy(calc_descriptor(), gated).unwrap());

    // relay: the same contract, answered by invoking the backend
    // through the relay's own peer from inside the handler.
    let relay_client = relay.client().clone();
    let forward: Arc<dyn ServiceHandler> = Arc::new(move |op: &str, args: &[Value]| {
        relay_client
            .invoke(&inner, op, args)
            .map_err(|e| wsp_soap::Fault::receiver(e.to_string()))
    });
    let outer = located(&relay.server().deploy(calc_descriptor(), forward).unwrap());

    // First call, held at the gate: each hop has one request
    // outstanding and its first return pipe open.
    let add = |a: f64, b: f64| {
        consumer
            .client()
            .invoke(&outer, "add", &[Value::Double(a), Value::Double(b)])
    };
    std::thread::scope(|scope| {
        let first = scope.spawn(|| add(1.0, 2.0));
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("first call reached the backend");
        for binding in [&consumer_binding, &relay_binding] {
            assert_eq!(binding.outstanding_requests(), 1);
            assert!(binding.has_open_pipe(&return_pipe(binding.peer_id(), 1)));
        }
        release_tx.send(()).unwrap();
        assert_eq!(first.join().unwrap().unwrap(), Value::Double(3.0));
    });

    let before = network.stats();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let add = &add;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let (a, b) = (t as f64, i as f64);
                    assert_eq!(add(a, b).unwrap(), Value::Double(a + b));
                }
            });
        }
    });
    let after = network.stats();

    let invokes = THREADS * PER_THREAD;
    // Request and response, for the call and for the nested call.
    assert_eq!(after.routed - before.routed, 4 * invokes as u64);
    assert_eq!(after.dropped, 0);
    for (peer, binding) in [(&consumer, &consumer_binding), (&relay, &relay_binding)] {
        assert_eq!(binding.outstanding_requests(), 0);
        assert_eq!(peer.dispatcher().stats().pending_calls, 0);
        let id = binding.peer_id();
        assert!(
            (1..=invokes + 1).all(|n| !binding.has_open_pipe(&return_pipe(id, n))),
            "a return pipe outlived its request on {id}"
        );
    }
    // The relay's handler holds the relay's own client: break the cycle.
    relay.server().undeploy("Calc");
}

/// A request that finds the provider's dispatcher queue full is shed
/// with the busy fault on the thread that delivered it — here the
/// consumer's caller — which never helps by running a queued job (that
/// would hold the call until the job's gate opened).
#[test]
fn a_full_provider_queue_sheds_instead_of_running_a_job_on_the_caller() {
    let network = ThreadNetwork::new();
    let config = DispatcherConfig {
        workers: 1,
        queue_capacity: 1,
    };
    let dispatcher = Dispatcher::new(config);
    let provider = Peer::with_parts(EventBus::new(), dispatcher.clone());
    let peer = network.spawn(PeerConfig::ordinary(PeerId(0xD0)));
    let provider_binding = P2psBinding::new(peer, EventBus::new(), P2psConfig::default());
    provider.attach(&provider_binding);
    let (consumer, _cb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xD1))));
    let deployed = provider.server().deploy(calc_descriptor(), calc_handler());
    let calc = located(&deployed.unwrap());

    // One gated job holds the worker, another the queue's one slot.
    let hold = |gate: mpsc::Receiver<()>| move || gate.recv().unwrap();
    let (open_worker, worker_gate) = mpsc::channel();
    let (open_slot, slot_gate) = mpsc::channel();
    dispatcher.execute(hold(worker_gate)).unwrap();
    let busy = || dispatcher.stats().in_flight == 1;
    assert!(wait_until(Duration::from_secs(5), busy));
    dispatcher.execute(hold(slot_gate)).unwrap();

    let (answered, answer) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        let args = [Value::Double(1.0), Value::Double(2.0)];
        answered.send(consumer.client().invoke(&calc, "add", &args))
    });
    let sum = answer.recv_timeout(Duration::from_secs(10));
    open_worker.send(()).unwrap();
    open_slot.send(()).unwrap();
    caller.join().unwrap().unwrap();
    let err = sum.expect("returned while the queue was full").unwrap_err();
    let hint = err.retry_after_hint();
    assert!(matches!(err, WspError::Overloaded { .. }), "{err:?}");
    assert_eq!(hint, Some(Duration::from_millis(100)));
}

/// The binding's sink holds only a weak reference back: dropping the
/// peer and the binding frees everything the binding owned (so the
/// `ThreadPeer` handle dropped, which joins the inbox thread) and takes
/// the peer out of the directory.
#[test]
fn dropping_a_peer_frees_its_binding_and_leaves_the_network() {
    let network = ThreadNetwork::new();
    let (provider, provider_binding) =
        p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xD1))));
    let (consumer, _consumer_binding) =
        p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xD2))));

    let owned_by_handler = Arc::new(());
    let probe = Arc::downgrade(&owned_by_handler);
    let calc = calc_handler();
    let handler: Arc<dyn ServiceHandler> = Arc::new(move |op: &str, args: &[Value]| {
        let _ = &owned_by_handler;
        calc.invoke(op, args)
    });
    let service = located(
        &provider
            .server()
            .deploy(calc_descriptor(), handler)
            .unwrap(),
    );
    let sum = consumer
        .client()
        .invoke(&service, "add", &[Value::Double(1.0), Value::Double(2.0)])
        .unwrap();
    assert_eq!(sum, Value::Double(3.0));

    drop(provider);
    drop(provider_binding);
    // (The worker that served the call may still be letting go of its
    // reference for an instant.)
    assert!(
        wait_until(Duration::from_secs(5), || probe.upgrade().is_none()),
        "the binding's state outlived every handle to it"
    );
    // One-way: sent without waiting, to a peer that is no longer there.
    consumer
        .client()
        .invoke(&service, "log", &[Value::string("anyone?")])
        .unwrap();
    assert_eq!(network.stats().dropped, 1);
}

/// A request to an idle provider is delivered, and then served, on the
/// consumer's calling thread, inside the caller's correlation and
/// deadline scopes. The provider sees neither: its handler runs in a
/// worker's slot of its own dispatcher under the budget the request
/// carried, and its serve spans stay under correlation 0, as when its
/// inbox thread delivers.
#[test]
fn a_callers_scopes_stop_at_the_provider() {
    let network = ThreadNetwork::new();
    let (provider, _pb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xE1))));
    let (consumer, _cb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xE2))));
    telemetry::global().set_enabled(true);

    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let record = seen.clone();
    let calc = calc_handler();
    let handler: Arc<dyn ServiceHandler> = Arc::new(move |op: &str, args: &[Value]| {
        let thread = std::thread::current().name().unwrap_or("").to_owned();
        (record.lock()).push((telemetry::current_correlation(), current_deadline(), thread));
        calc.invoke(op, args)
    });
    let mut descriptor = calc_descriptor();
    descriptor.name = "ScopedCalc".into();
    let service = located(&provider.server().deploy(descriptor, handler).unwrap());

    let caller = consumer.dispatcher().next_token();
    let deadline = Instant::now() + Duration::from_secs(30);
    let sum = {
        let _correlation = CorrelationScope::enter(caller);
        let _deadline = DeadlineScope::enter(Some(deadline));
        consumer
            .client()
            .invoke(&service, "add", &[Value::Double(2.0), Value::Double(3.0)])
    };
    assert_eq!(sum.unwrap(), Value::Double(5.0));

    // Request and response, each delivered on the thread that sent it.
    let stats = network.stats();
    assert_eq!((stats.routed, stats.inline), (2, 2), "{stats:?}");
    let seen = seen.lock();
    let [(correlation, budget, thread)] = seen.as_slice() else {
        panic!("one call served: {:?}", seen.as_slice());
    };
    assert_eq!(*correlation, 0);
    assert_eq!(*thread, thread_name(), "handler ran on {thread:?}");
    // The propagated budget, re-based on the provider's clock: within
    // a second of the caller's deadline, not the caller's scope itself.
    let budget = budget.expect("the request carried a budget");
    let skew = budget.max(deadline) - budget.min(deadline);
    assert!(skew < Duration::from_secs(1), "{skew:?}");
    let spans = telemetry::global().recent_trace(4096);
    let served: Vec<_> = spans
        .iter()
        .filter(|span| span.detail.as_str().contains("service=ScopedCalc"))
        .filter(|span| span.stage.starts_with("server."))
        .map(|span| (span.token, span.stage))
        .collect();
    assert_eq!(served, [(0, "server.request"), (0, "server.response")]);
    assert!(telemetry::global()
        .trace_for(caller)
        .iter()
        .all(|span| !span.stage.starts_with("server.")));
}

// --- where a provider serves: the caller's thread, or a worker -------------

/// The name of the thread running now.
fn thread_name() -> String {
    std::thread::current().name().unwrap_or("").to_owned()
}

/// `calc_handler`, noting the name of every thread it runs on.
fn calc_noting_threads() -> (
    Arc<dyn ServiceHandler>,
    Arc<parking_lot::Mutex<Vec<String>>>,
) {
    let ran_on = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (record, calc) = (ran_on.clone(), calc_handler());
    let handler: Arc<dyn ServiceHandler> = Arc::new(move |op: &str, args: &[Value]| {
        record.lock().push(thread_name());
        calc.invoke(op, args)
    });
    (handler, ran_on)
}

/// The calling thread's voluntary context switches so far.
#[cfg(target_os = "linux")]
fn my_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
    line.expect("status field").trim().parse().unwrap()
}

/// An echo to an idle provider is delivered, served and answered on the
/// caller's own thread: the call completes before its caller would
/// wait, so the caller never parks. The handler gives its CPU up once,
/// so that a caller who handed the request to a worker is sure to reach
/// its wait — and park — before the answer is there; on the caller's
/// own thread that yield is no voluntary switch.
#[cfg(target_os = "linux")]
#[test]
fn sequential_invokes_on_an_idle_provider_never_park_the_caller() {
    const CALLS: u64 = 1_000;
    let network = ThreadNetwork::new();
    let (provider, _pb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xF1))));
    let (consumer, _cb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xF2))));
    telemetry::global().set_enabled(true);
    let calc = calc_handler();
    let yielding: Arc<dyn ServiceHandler> = Arc::new(move |op: &str, args: &[Value]| {
        std::thread::yield_now();
        calc.invoke(op, args)
    });
    let service = located(
        &provider
            .server()
            .deploy(calc_descriptor(), yielding)
            .unwrap(),
    );
    let args = [Value::Double(1.0), Value::Double(2.0)];
    let add = || consumer.client().invoke(&service, "add", &args).unwrap();
    assert_eq!(add(), Value::Double(3.0));

    let served_inline = telemetry::global().counter("p2ps.served_inline");
    let (served, before) = (served_inline.get(), my_switches());
    for _ in 0..CALLS {
        assert_eq!(add(), Value::Double(3.0));
    }
    let switched = my_switches() - before;
    // Handed to a worker and back, each call parks its caller once.
    assert!(switched <= 100, "{CALLS} invokes switched {switched} times");
    assert!(served_inline.get() - served >= CALLS, "served inline");
}

/// A request that finds its provider held by another sender's delivery
/// queues behind it, for the provider's inbox thread. That thread
/// brought neither request, so both are served on the provider's
/// workers — not on the holder's thread, the inbox thread or another
/// caller's.
#[test]
fn requests_queued_behind_another_senders_delivery_are_served_on_workers() {
    let network = ThreadNetwork::new();
    let (provider, pb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xF3))));
    let (consumer, _cb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xF4))));
    let (handler, ran_on) = calc_noting_threads();
    let calc = located(
        &provider
            .server()
            .deploy(calc_descriptor(), handler)
            .unwrap(),
    );

    // A hand-driven peer sends a request whose budget has run out, and
    // its sink holds the busy fault the provider sheds it with — and so
    // the provider, claimed by the thread that brought the request.
    let holder = network.spawn(PeerConfig::ordinary(PeerId(0xF5)));
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = parking_lot::Mutex::new(release_rx);
    assert!(holder.set_sink(Box::new(move |_| {
        entered_tx.send(()).unwrap();
        release_rx.lock().recv().unwrap();
    })));
    let add = PipeAdvertisement::new(pb.peer_id(), Some("Calc".into()), "add");
    let headers = with_reply_pipe(request_headers(&add), &holder.open_pipe(None));
    let mut expired = Envelope::request(Element::new(calc_descriptor().namespace, "add"));
    let budget = Element::build("", overload::DEADLINE_SOAP_HEADER).text("0");
    expired.add_header(wsp_soap::HeaderBlock::new(budget.finish()));
    let ask = under(&headers, expired);

    std::thread::scope(|scope| {
        scope.spawn(|| holder.send_pipe(add, ask));
        let held = entered_rx.recv_timeout(Duration::from_secs(5));
        held.expect("the provider answered the holder");
        let routed = network.stats().routed;
        let (consumer, calc) = (&consumer, &calc);
        let callers: Vec<_> = (0..2)
            .map(|i| {
                let args = [Value::Double(i as f64), Value::Double(1.0)];
                scope.spawn(move || consumer.client().invoke(calc, "add", &args))
            })
            .collect();
        let queued = || network.stats().routed == routed + 2;
        assert!(wait_until(Duration::from_secs(5), queued), "both queued");
        release_tx.send(()).unwrap();
        for (i, caller) in callers.into_iter().enumerate() {
            let sum = caller.join().unwrap().unwrap();
            assert_eq!(sum, Value::Double(i as f64 + 1.0));
        }
    });
    let ran_on = ran_on.lock().clone();
    assert_eq!(ran_on.len(), 2, "{ran_on:?}");
    assert!(
        ran_on
            .iter()
            .all(|thread| thread.starts_with("wsp-worker-")),
        "{ran_on:?}"
    );
}

/// A one-way request names no return pipe: its serve goes to the pool,
/// and its caller is back before the handler is done.
#[test]
fn a_one_way_invoke_returns_before_its_gated_handler_finishes() {
    let network = ThreadNetwork::new();
    let (provider, _pb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xF6))));
    let (consumer, _cb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xF7))));
    let (entered_tx, entered_rx) = mpsc::channel::<String>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let gate = parking_lot::Mutex::new(Some((entered_tx, release_rx)));
    let calc = calc_handler();
    let gated: Arc<dyn ServiceHandler> = Arc::new(move |op: &str, args: &[Value]| {
        if let Some((entered, release)) = gate.lock().take() {
            entered.send(thread_name()).unwrap();
            release.recv().unwrap();
        }
        calc.invoke(op, args)
    });
    let service = located(&provider.server().deploy(calc_descriptor(), gated).unwrap());

    let (answered, answer) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        let note = [Value::string("note")];
        answered.send(consumer.client().invoke(&service, "log", &note))
    });
    let returned = answer.recv_timeout(Duration::from_secs(5));
    let ran_on = entered_rx.recv_timeout(Duration::from_secs(5));
    release_tx.send(()).unwrap();
    caller.join().unwrap().unwrap();
    assert_eq!(
        returned.expect("returned while gated").unwrap(),
        Value::Null
    );
    let ran_on = ran_on.expect("the handler ran");
    assert!(ran_on.starts_with("wsp-worker-"), "{ran_on:?}");
}

/// Services that each invoke the next, `MAX_INLINE_DEPTH + 2` long: the
/// caller serves the first hop on its own stack, and the pool's workers
/// the rest — a thread running a handler is lent no worker's slot.
#[test]
fn a_chain_of_services_past_the_inline_depth_completes() {
    const HOPS: usize = MAX_INLINE_DEPTH + 2;
    let network = ThreadNetwork::new();
    let peers: Vec<_> = (0..=HOPS)
        .map(|i| p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xF00 + i as u64)))))
        .collect();
    let ran_on = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let mut next: Option<LocatedService> = None;
    for (hop, (peer, _)) in peers[1..].iter().enumerate().rev() {
        let (record, client, calc) = (ran_on.clone(), peer.client().clone(), calc_handler());
        let forward = next.take();
        let handler: Arc<dyn ServiceHandler> = Arc::new(move |op: &str, args: &[Value]| {
            record.lock().push((hop, thread_name()));
            match &forward {
                Some(next) => (client.invoke(next, op, args))
                    .map_err(|e| wsp_soap::Fault::receiver(e.to_string())),
                None => calc.invoke(op, args),
            }
        });
        let mut descriptor = calc_descriptor();
        descriptor.name = format!("Hop{hop}");
        next = Some(located(&peer.server().deploy(descriptor, handler).unwrap()));
    }
    let first = next.expect("a first hop");
    let add = || {
        let args = [Value::Double(2.0), Value::Double(3.0)];
        peers[0].0.client().invoke(&first, "add", &args)
    };
    // A worker lists itself idle again only after its answer is out,
    // so a first hop may find none idle: call until the caller served it.
    let caller = thread_name();
    let served_here = (0..50).any(|_| {
        ran_on.lock().clear();
        assert_eq!(add().unwrap(), Value::Double(5.0));
        let ran_on = ran_on.lock().clone();
        let hops: Vec<usize> = ran_on.iter().map(|(hop, _)| *hop).collect();
        assert_eq!(hops, (0..HOPS).collect::<Vec<_>>());
        let pooled = ran_on[1..].iter();
        assert!(pooled.clone().all(|(_, t)| t.starts_with("wsp-worker-")));
        ran_on[0].1 == caller
    });
    assert!(served_here, "the caller never served the first hop");
    // Each handler holds its own peer's client: break the cycles.
    for (hop, (peer, _)) in peers[1..].iter().enumerate() {
        peer.server().undeploy(&format!("Hop{hop}"));
    }
}

/// `p2ps_wspeer`, over a dispatcher with one worker.
fn one_worker_p2ps_wspeer(thread_peer: ThreadPeer) -> (Peer, P2psBinding) {
    let config = P2psConfig {
        discovery_window: Duration::from_millis(400),
        request_timeout: Duration::from_secs(3),
    };
    let binding = P2psBinding::new(thread_peer, EventBus::new(), config);
    let workers = DispatcherConfig {
        workers: 1,
        queue_capacity: 16,
    };
    let peer = Peer::with_parts(EventBus::new(), Dispatcher::new(workers));
    peer.attach(&binding);
    (peer, binding)
}

/// `calc_descriptor()` renamed `name`, served by `handler`, on `peer`.
fn deploy_as(peer: &Peer, name: &str, handler: Arc<dyn ServiceHandler>) -> LocatedService {
    let mut descriptor = calc_descriptor();
    descriptor.name = name.into();
    located(&peer.server().deploy(descriptor, handler).unwrap())
}

/// A handler that passes each call on to `next` through `client`,
/// noting the thread it runs on in `ran_on`.
fn forwarding(
    client: &Arc<wsp_core::Client>,
    next: LocatedService,
    ran_on: &Arc<parking_lot::Mutex<Vec<String>>>,
) -> Arc<dyn ServiceHandler> {
    let (client, record) = (client.clone(), ran_on.clone());
    Arc::new(move |op: &str, args: &[Value]| {
        record.lock().push(thread_name());
        (client.invoke(&next, op, args)).map_err(|e| wsp_soap::Fault::receiver(e.to_string()))
    })
}

/// P's one worker is lent to a caller serving P's `Outer`, which calls
/// Q's `Mid`, which calls back into P's `Calc`. The caller, waiting for
/// `Mid` inside `Outer`, helps P's pool and runs the callback: `Mid`
/// is served on Q's worker, not nested on the caller's stack, where
/// the callback would find P's slot taken and no helper to run it.
#[test]
fn a_callback_to_a_one_worker_provider_its_caller_serves_completes() {
    let network = ThreadNetwork::new();
    let (p, _pb) = one_worker_p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xFA))));
    let (q, _qb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xFB))));
    let (consumer, _cb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xFC))));
    let (outer_ran_on, mid_ran_on) = (Arc::default(), Arc::default());
    let calc = deploy_as(&p, "Calc", calc_handler());
    let mid = deploy_as(&q, "Mid", forwarding(q.client(), calc, &mid_ran_on));
    let outer = deploy_as(&p, "Outer", forwarding(p.client(), mid, &outer_ran_on));

    let caller = thread_name();
    let args = [Value::Double(2.0), Value::Double(3.0)];
    // P's one worker lists itself idle again only after its answer is
    // out: call until the caller served `Outer`.
    let served_here = (0..50).any(|_| {
        outer_ran_on.lock().clear();
        let started = Instant::now();
        let sum = consumer.client().invoke(&outer, "add", &args);
        assert_eq!(sum.unwrap(), Value::Double(5.0));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "the callback stalled"
        );
        *outer_ran_on.lock() == [caller.clone()]
    });
    assert!(served_here, "the caller never served Outer");
    let mid_ran_on = mid_ran_on.lock().clone();
    assert!(
        mid_ran_on.iter().all(|t| t.starts_with("wsp-worker-")),
        "{mid_ran_on:?}"
    );
    // Each forwarding handler holds its peer's client: break the cycles.
    p.server().undeploy("Outer");
    q.server().undeploy("Mid");
}

/// A request its caller serves itself is timed when the handler
/// returns: a handler slower than the caller's `request_timeout` ends
/// in a timeout — late, since the handler holds the caller's thread —
/// as the call would from a worker, and its answer is dropped.
#[test]
fn a_request_served_past_its_callers_timeout_still_times_out() {
    const SLOW: Duration = Duration::from_millis(400);
    let network = ThreadNetwork::new();
    let (provider, _pb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xFD))));
    let (consumer, _cb) = consumer_timing_out_after(
        network.spawn(PeerConfig::ordinary(PeerId(0xFE))),
        Duration::from_millis(100),
    );
    let slow = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let ran_on = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (record, armed, calc) = (ran_on.clone(), slow.clone(), calc_handler());
    let handler: Arc<dyn ServiceHandler> = Arc::new(move |op: &str, args: &[Value]| {
        record.lock().push(thread_name());
        if armed.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::sleep(SLOW);
        }
        calc.invoke(op, args)
    });
    let service = deploy_as(&provider, "Calc", handler);
    let args = [Value::Double(1.0), Value::Double(2.0)];
    let add = || consumer.client().invoke(&service, "add", &args);

    assert_eq!(add().unwrap(), Value::Double(3.0));
    slow.store(true, std::sync::atomic::Ordering::SeqCst);
    let caller = thread_name();
    // Two tries at most: a third timeout in a row would open the breaker.
    let served_here = (0..2).any(|_| {
        ran_on.lock().clear();
        let started = Instant::now();
        let err = add().unwrap_err();
        assert!(matches!(err, WspError::Timeout { .. }), "{err:?}");
        let here = *ran_on.lock() == [caller.clone()];
        assert!(
            !here || started.elapsed() >= SLOW,
            "timed before the handler returned"
        );
        here
    });
    assert!(served_here, "the caller never served the slow request");
    slow.store(false, std::sync::atomic::Ordering::SeqCst);
    assert_eq!(add().unwrap(), Value::Double(3.0));
}

/// A handler that panics while served on its caller's thread fails its
/// job, as on a worker: the panic stops at the provider's dispatcher,
/// the call is answered with a `soap:Receiver` fault, and the provider
/// keeps serving.
#[test]
fn a_handler_panicking_on_its_callers_thread_does_not_unwind_into_it() {
    let network = ThreadNetwork::new();
    let (provider, _pb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0xF8))));
    let (consumer, _cb) = consumer_timing_out_after(
        network.spawn(PeerConfig::ordinary(PeerId(0xF9))),
        Duration::from_millis(300),
    );
    let armed = std::sync::atomic::AtomicBool::new(true);
    let ran_on = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (record, calc) = (ran_on.clone(), calc_handler());
    let handler: Arc<dyn ServiceHandler> = Arc::new(move |op: &str, args: &[Value]| {
        record.lock().push(thread_name());
        if armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
            panic!("deliberate handler panic");
        }
        calc.invoke(op, args)
    });
    let service = located(
        &provider
            .server()
            .deploy(calc_descriptor(), handler)
            .unwrap(),
    );
    let args = [Value::Double(1.0), Value::Double(2.0)];

    let err = consumer
        .client()
        .invoke(&service, "add", &args)
        .unwrap_err();
    assert!(
        matches!(&err, WspError::Fault(f) if f.code == FaultCode::Receiver),
        "{err:?}"
    );
    assert_eq!(provider.dispatcher().stats().failed, 1);
    let sum = consumer.client().invoke(&service, "add", &args);
    assert_eq!(sum.unwrap(), Value::Double(3.0));
    let caller = thread_name();
    assert_eq!(*ran_on.lock(), [caller.clone(), caller]);
}

/// A panicking handler's caller hears of it at once — a `soap:Receiver`
/// fault down its return pipe — not when its request times out (5 s by
/// default): served on the caller's thread, or on a provider's worker
/// for a caller that runs a job itself.
#[test]
fn a_panicking_handler_answers_its_caller_with_a_receiver_fault() {
    let network = ThreadNetwork::new();
    let (provider, _pb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0x101))));
    let (consumer, _cb) = consumer_timing_out_after(
        network.spawn(PeerConfig::ordinary(PeerId(0x102))),
        P2psConfig::default().request_timeout,
    );
    let ran_on = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let record = ran_on.clone();
    let handler: Arc<dyn ServiceHandler> = Arc::new(move |_: &str, _: &[Value]| {
        record.lock().push(thread_name());
        panic!("deliberate handler panic")
    });
    let service = located(
        &provider
            .server()
            .deploy(calc_descriptor(), handler)
            .unwrap(),
    );
    let args = [Value::Double(1.0), Value::Double(2.0)];
    let started = Instant::now();
    let here = consumer.client().invoke(&service, "add", &args);
    let from_a_job = (consumer.client())
        .invoke_async(service.clone(), "add", args.to_vec())
        .wait();
    let took = started.elapsed();
    for answer in [here, from_a_job] {
        let err = answer.unwrap_err();
        assert!(
            matches!(&err, WspError::Fault(f) if f.code == FaultCode::Receiver),
            "{err:?}"
        );
    }
    assert!(took < Duration::from_secs(1), "answered after {took:?}");
    assert_eq!(provider.dispatcher().stats().failed, 2);
    let ran_on = ran_on.lock().clone();
    assert_eq!(ran_on[0], thread_name(), "the caller served the first");
    assert!(ran_on[1].starts_with("wsp-worker-"), "{ran_on:?}");
}

/// Confine the calling thread, and every thread it starts from now on,
/// to the highest-numbered CPU it may run on.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `size` writable bytes; pid 0 is this thread.
    assert_eq!(unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) }, 0);
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .expect("a CPU to run on");
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes; pid 0 is this thread.
    assert_eq!(unsafe { sched_setaffinity(0, size, one.as_ptr()) }, 0);
}

/// Two callers invoking through one consumer peer, on one CPU. A thread
/// that delivers a reply wakes its caller only once it has let the
/// consumer go, so the woken caller's next reply finds the consumer free.
/// Woken while the consumer was still held, the caller ran at once and
/// its reply queued for the consumer's inbox thread: 14–16 % of all
/// messages. Now only a caller preempted by the scheduler's tick while
/// it holds a peer queues another's message, 0.1–0.3 % in a release
/// build; the bound, 2 %, is seven times either. A debug build spends
/// so much longer per message that the tick alone queues 2–3 %.
#[cfg(target_os = "linux")]
#[cfg_attr(debug_assertions, ignore = "measures a release build's scheduling")]
#[test]
fn two_callers_on_one_cpu_rarely_queue_behind_their_consumer() {
    const PER_CALLER: usize = 20_000;
    pin_to_one_cpu();
    let network = ThreadNetwork::new();
    let (provider, _pb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0x103))));
    let (consumer, _cb) = p2ps_wspeer(network.spawn(PeerConfig::ordinary(PeerId(0x104))));
    let service = located(
        &provider
            .server()
            .deploy(calc_descriptor(), calc_handler())
            .unwrap(),
    );
    let args = [Value::Double(1.0), Value::Double(2.0)];
    let before = network.stats();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..PER_CALLER {
                    let sum = consumer.client().invoke(&service, "add", &args);
                    assert_eq!(sum.unwrap(), Value::Double(3.0));
                }
            });
        }
    });
    let after = network.stats();
    let routed = after.routed - before.routed;
    let queued = routed - (after.inline - before.inline);
    assert_eq!(routed, 4 * PER_CALLER as u64, "{after:?}");
    assert!(queued * 50 < routed, "{queued} of {routed} messages queued");
}

// --- the return pipe's contracts, against a provider driven by hand ----------

/// A consumer whose calls give up after `timeout`.
fn consumer_timing_out_after(peer: ThreadPeer, timeout: Duration) -> (Peer, P2psBinding) {
    let config = P2psConfig {
        discovery_window: Duration::from_millis(400),
        request_timeout: timeout,
    };
    let binding = P2psBinding::new(peer, EventBus::new(), config);
    (Peer::with_binding(&binding), binding)
}

/// `Calc`'s advert on a provider with no binding: its pipes open, and
/// whatever arrives on them left for the test to read and answer.
fn hand_driven_calc(provider: &ThreadPeer) -> ServiceAdvertisement {
    let mut advert = ServiceAdvertisement::new("Calc", provider.id());
    for op in &calc_descriptor().operations {
        advert = advert.with_pipe(op.name.clone());
    }
    let advert = advert.with_definition_pipe();
    provider.register(advert.clone());
    advert
}

/// The next request to reach `provider`, on which pipe: where its
/// response goes, and under which headers.
fn next_request(provider: &ThreadPeer) -> (String, PipeAdvertisement, MessageHeaders) {
    loop {
        let event = provider.recv_event(Duration::from_secs(5));
        if let Some(ThreadPeerEvent::PipeDelivery { pipe, payload, .. }) = event {
            let headers = decode_request(&payload, &mut |_| {}).expect("a request envelope");
            let (reply_pipe, response) = encode_response(&headers).expect("a ReplyTo");
            return (pipe.name, reply_pipe, response);
        }
        assert!(event.is_some(), "no request reached the provider");
    }
}

/// `body` sent under `headers`, as it travels.
fn under(headers: &MessageHeaders, mut body: Envelope) -> String {
    body.set_addressing(headers.clone());
    body.to_xml()
}

/// The body of an answer to `add`, its `return` elements holding
/// `values`.
fn add_response(values: &[&str]) -> Envelope {
    let ns = calc_descriptor().namespace;
    let results = values
        .iter()
        .map(|v| Element::build(ns.clone(), "return").text(*v).finish());
    Envelope::request(
        Element::build(ns.clone(), "addResponse")
            .children(results)
            .finish(),
    )
}

/// `add(20, 22)` from a consumer giving up after two seconds, the
/// provider answering its request with what `answers` writes under the
/// response's headers — in order, down the return pipe the request
/// named — and how long the call took.
fn add_answered_with(
    answers: impl FnOnce(&MessageHeaders) -> Vec<String> + Send,
) -> (Result<Value, WspError>, Duration) {
    let network = ThreadNetwork::new();
    let provider = network.spawn(PeerConfig::ordinary(PeerId(0xA1)));
    let advert = hand_driven_calc(&provider);
    let (consumer, _binding) = consumer_timing_out_after(
        network.spawn(PeerConfig::ordinary(PeerId(0xA2))),
        Duration::from_secs(2),
    );
    let wsdl = WsdlDocument::new(calc_descriptor(), Vec::new());
    let service = LocatedService::new(wsdl, advert.uri().address(), BindingKind::P2ps);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let (pipe, reply_pipe, headers) = next_request(&provider);
            assert_eq!(pipe, "add");
            for answer in answers(&headers) {
                provider.send_pipe(reply_pipe.clone(), answer);
            }
        });
        let started = Instant::now();
        let args = [Value::Double(20.0), Value::Double(22.0)];
        let sum = consumer.client().invoke(&service, "add", &args);
        (sum, started.elapsed())
    })
}

#[test]
fn a_response_to_no_outstanding_call_is_passed_over() {
    let (sum, _) = add_answered_with(|headers| {
        let stray = MessageHeaders {
            relates_to: Some("urn:wsp:msg:answers-nothing".into()),
            ..headers.clone()
        };
        vec![
            under(&stray, add_response(&["1"])),
            under(headers, add_response(&["42"])),
        ]
    });
    assert_eq!(sum.unwrap(), Value::Double(42.0));
}

#[test]
fn a_message_that_is_no_envelope_is_passed_over() {
    let (sum, _) = add_answered_with(|headers| {
        let whole = under(headers, add_response(&["42"]));
        vec![
            "not XML at all".to_owned(),
            "<env:Envelope/>".to_owned(),
            whole[..whole.len() - 4].to_owned(),
            whole,
        ]
    });
    assert_eq!(sum.unwrap(), Value::Double(42.0));
}

#[test]
fn a_response_that_breaks_a_shape_rule_is_a_bad_response_not_a_timeout() {
    let (sum, took) = add_answered_with(|headers| vec![under(headers, add_response(&["1", "2"]))]);
    let error = sum.unwrap_err();
    assert!(
        matches!(&error, WspError::Invoke(why) if why.starts_with("malformed response: Repeated")),
        "{error:?}"
    );
    assert!(took < Duration::from_secs(1), "waited {took:?}");
}

/// A body that reads cleanly does not settle its call before the rest
/// of the envelope has: a second body child makes it a bad response.
#[test]
fn a_response_with_more_after_its_result_is_a_bad_response() {
    let (sum, _) = add_answered_with(|headers| {
        let xml = under(headers, add_response(&["42"]));
        let more = "<more/></env:Body>";
        assert!(xml.contains("</env:Body>"), "{xml}");
        vec![xml.replacen("</env:Body>", more, 1)]
    });
    let error = sum.unwrap_err();
    assert!(
        matches!(&error, WspError::Invoke(why) if why.starts_with("malformed response: Repeated")),
        "{error:?}"
    );
}

/// A header after `RelatesTo` that breaks a rule ends the read before
/// the body; the call it names still learns why.
#[test]
fn a_response_whose_header_breaks_a_shape_rule_is_a_bad_response() {
    let (sum, took) = add_answered_with(|headers| {
        let xml = under(headers, add_response(&["42"]));
        let (start, end) = (xml.find("<wsa:RelatesTo"), xml.find("</wsa:RelatesTo>"));
        let (Some(start), Some(end)) = (start, end) else {
            panic!("no RelatesTo in {xml}");
        };
        let end = end + "</wsa:RelatesTo>".len();
        vec![format!("{}{}", &xml[..end], &xml[start..])]
    });
    let error = sum.unwrap_err();
    assert!(
        matches!(&error, WspError::Invoke(why) if why.starts_with("malformed response: Repeated")),
        "{error:?}"
    );
    assert!(took < Duration::from_secs(1), "waited {took:?}");
}

#[test]
fn a_busy_fault_down_the_return_pipe_is_overloaded_with_its_hint() {
    let (sum, _) = add_answered_with(|headers| {
        let reason = overload::busy_fault_reason(Duration::from_millis(250));
        vec![under(
            headers,
            Envelope::fault(wsp_soap::Fault::receiver(reason)),
        )]
    });
    let error = sum.unwrap_err();
    assert!(
        matches!(
            error,
            WspError::Overloaded {
                retry_after_ms: Some(250)
            }
        ),
        "{error:?}"
    );
}

#[test]
fn a_located_service_brings_the_wsdl_its_definition_pipe_answered_with() {
    let (_network, _rv, mut peers) = p2ps_star(2);
    let (consumer, _binding) =
        consumer_timing_out_after(peers.pop().unwrap(), Duration::from_secs(2));
    let provider = peers.pop().unwrap();
    let advert = hand_driven_calc(&provider);
    provider.publish(advert.clone());
    let location = advert.uri().address();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let (pipe, reply_pipe, headers) = next_request(&provider);
            assert_eq!(pipe, DEFINITION_PIPE);
            let port = Port {
                name: "CalcP2psPort".into(),
                transport: TransportKind::P2ps,
                location: location.clone(),
            };
            let wsdl = WsdlDocument::new(calc_descriptor(), vec![port]).to_element();
            provider.send_pipe(reply_pipe, under(&headers, Envelope::request(wsdl)));
        });
        let located = locate_until_found(&consumer, &ServiceQuery::by_name("Calc"));
        assert_eq!(located.endpoint, location);
        assert_eq!(located.wsdl.descriptor, calc_descriptor());
        assert_eq!(located.wsdl.ports[0].location, location);
    });
}

// --- discovery ends when the caller has its answer ---------------------------

/// A `Calc` provider published on `peer`, with its endpoint.
fn calc_provider(peer: ThreadPeer) -> (Peer, P2psBinding, String) {
    let (provider, binding) = p2ps_wspeer(peer);
    let deployed = (provider.server())
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let endpoint = deployed.endpoints[0].clone();
    (provider, binding, endpoint)
}

fn endpoints(services: &[LocatedService]) -> Vec<&str> {
    services.iter().map(|s| s.endpoint.as_str()).collect()
}

#[test]
fn locate_one_returns_at_its_first_located_service_not_at_the_window() {
    let (_network, _rv, mut peers) = p2ps_star(3);
    let patient = P2psConfig {
        discovery_window: Duration::from_secs(30),
        request_timeout: Duration::from_secs(3),
    };
    let binding = P2psBinding::new(peers.pop().unwrap(), EventBus::new(), patient);
    let consumer = Peer::with_binding(&binding);
    let (probe, _probe_binding) = p2ps_wspeer(peers.pop().unwrap());
    let (_provider, _pb, endpoint) = calc_provider(peers.pop().unwrap());
    // The advert is at the rendezvous: a short-window peer sees it.
    locate_until_found(&probe, &ServiceQuery::by_name("Calc"));

    let started = Instant::now();
    let service = (consumer.client())
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "{:?}",
        started.elapsed()
    );
    assert_eq!(service.endpoint, endpoint);
    // The early return took the pending query with it.
    assert_eq!(binding.outstanding_queries(), 0);
}

#[test]
fn locate_one_passes_over_an_advert_whose_definition_pipe_is_gone() {
    let (_network, _rv, mut peers) = p2ps_star(3);
    let (consumer, _cb) =
        consumer_timing_out_after(peers.pop().unwrap(), Duration::from_millis(500));
    let (first, _fb, first_endpoint) = calc_provider(peers.pop().unwrap());
    let (_second, _sb, second_endpoint) = calc_provider(peers.pop().unwrap());
    let query = ServiceQuery::by_name("Calc");
    assert!(wait_until(Duration::from_secs(5), || {
        consumer.client().locate(&query).unwrap().len() == 2
    }));
    // Adverts arrive in the order they were published, and locate_one
    // returns what locate returns first.
    let all = consumer.client().locate(&query).unwrap();
    assert_eq!(endpoints(&all), [&first_endpoint, &second_endpoint]);
    assert_eq!(
        consumer.client().locate_one(&query).unwrap().endpoint,
        first_endpoint
    );

    // The first provider leaves; its advert stays cached (soft state),
    // but its definition pipe answers no more.
    first.server().undeploy("Calc");
    let one = consumer.client().locate_one(&query).unwrap();
    assert_eq!(one.endpoint, second_endpoint);
    let all = consumer.client().locate(&query).unwrap();
    assert_eq!(endpoints(&all), [&second_endpoint]);
}

/// Keeps `rendezvous` busy for `pause` on the next message to a pipe
/// it opens: a query that reaches it meanwhile waits, and its hits come
/// back that much later. Call the returned function to hold it once;
/// it returns when the rendezvous has started its pause.
fn rendezvous_holder(rendezvous: &ThreadPeer, sender: ThreadPeer, pause: Duration) -> impl Fn() {
    let (started_tx, started_rx) = mpsc::channel();
    assert!(rendezvous.set_sink(Box::new(move |event| {
        if let ThreadPeerEvent::PipeDelivery { .. } = event {
            let _ = started_tx.send(());
            std::thread::sleep(pause);
        }
    })));
    let pipe = rendezvous.open_pipe(None);
    let sender = Arc::new(sender);
    move || {
        let (sender, pipe) = (sender.clone(), pipe.clone());
        std::thread::spawn(move || sender.send_pipe(pipe, "hold".into()));
        started_rx.recv().unwrap();
    }
}

#[test]
fn a_new_provider_is_found_past_a_departed_one_the_consumer_cached() {
    let (_network, rv, mut peers) = p2ps_star(5);
    // Giving up on the departed provider takes longer than the window.
    let (consumer, consumer_binding) =
        consumer_timing_out_after(peers.pop().unwrap(), Duration::from_secs(1));
    let (probe, _probe_binding) =
        consumer_timing_out_after(peers.pop().unwrap(), Duration::from_millis(200));
    let query = ServiceQuery::by_name("Calc");
    let (departed, _db, departed_endpoint) = calc_provider(peers.pop().unwrap());
    assert_eq!(
        locate_until_found(&consumer, &query).endpoint,
        departed_endpoint
    );

    // The consumer's own cache holds the departed provider's advert
    // only; the new provider's is at the rendezvous, where the probe,
    // which has cached nothing of it, finds it.
    departed.server().undeploy("Calc");
    let (_new, _nb, new_endpoint) = calc_provider(peers.pop().unwrap());
    assert_eq!(locate_until_found(&probe, &query).endpoint, new_endpoint);

    // The cached advert comes back at once and is tried first. The
    // rendezvous answers 150 ms later, inside the window, while that
    // try is still timing out past the window's end: its hits are
    // tried next.
    let hold = rendezvous_holder(&rv, peers.pop().unwrap(), Duration::from_millis(150));
    hold();
    let one = consumer.client().locate_one(&query).unwrap();
    assert_eq!(one.endpoint, new_endpoint);
    hold();
    let all = consumer.client().locate(&query).unwrap();
    assert_eq!(endpoints(&all), [&new_endpoint]);
    assert_eq!(consumer_binding.outstanding_queries(), 0);
}

#[test]
fn a_capped_locate_counts_located_services() {
    let (_network, _rv, mut peers) = p2ps_star(4);
    let (consumer, consumer_binding) =
        consumer_timing_out_after(peers.pop().unwrap(), Duration::from_millis(500));
    let providers: Vec<_> = peers.into_iter().map(calc_provider).collect();
    let query = ServiceQuery::by_name("Calc");
    assert!(wait_until(Duration::from_secs(5), || {
        consumer.client().locate(&query).unwrap().len() == 3
    }));
    let all = consumer.client().locate(&query).unwrap();

    let capped = (consumer.client())
        .locate(&query.clone().with_max_results(2))
        .unwrap();
    assert_eq!(endpoints(&capped), endpoints(&all[..2]));
    assert_eq!(consumer_binding.outstanding_queries(), 0);

    // With the first provider gone, the cap is still met: it counts
    // located services, not adverts.
    providers[0].0.server().undeploy("Calc");
    let capped = (consumer.client())
        .locate(&query.with_max_results(2))
        .unwrap();
    assert_eq!(endpoints(&capped), [&providers[1].2, &providers[2].2]);
}
