//! Figure 4 over real threads: the P2PS lifecycle, including the
//! definition pipe, request/response over unidirectional pipes, faults,
//! one-way operations and provider departure.

use std::sync::Arc;
use std::time::Duration;
use wsp_core::{BindingKind, DeployedService, LocatedService, ServiceQuery, WspError};
use wsp_integration_tests::{calc_descriptor, calc_handler, p2ps_star, p2ps_wspeer, wait_until};
use wsp_p2ps::{PeerConfig, PeerId, PipeAdvertisement, ThreadNetwork};
use wsp_wsdl::{ServiceHandler, Value};

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
    std::thread::sleep(Duration::from_millis(150));

    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
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
    std::thread::sleep(Duration::from_millis(150));

    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
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
    std::thread::sleep(Duration::from_millis(150));

    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
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
    let (_network, _rv, mut peers) = p2ps_star(2);
    let (provider, _pb) = p2ps_wspeer(peers.pop().unwrap());
    let (consumer, _cb) = p2ps_wspeer(peers.pop().unwrap());
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));

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
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));

    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    // The provider (and its peer thread) leaves the network. The
    // binding's demultiplexer shuts down asynchronously; give it a
    // moment to disappear from the directory.
    drop(provider);
    drop(_pb);
    std::thread::sleep(Duration::from_millis(300));

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
    std::thread::sleep(Duration::from_millis(150));
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
    std::thread::sleep(Duration::from_millis(150));
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();

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
    let (entered_tx, entered_rx) = crossbeam_channel::unbounded::<()>();
    let (release_tx, release_rx) = crossbeam_channel::unbounded::<()>();
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
