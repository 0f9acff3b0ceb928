//! Stress and isolation tests for the shared dispatch core: the
//! worker pool, correlation table and event bus under concurrent load,
//! backpressure and misbehaving listeners.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wsp_core::bindings::HttpUddiBinding;
use wsp_core::{
    Client, ClientMessageEvent, CollectingListener, Dispatcher, DispatcherConfig, EventBus,
    Invoker, LocatedService, Peer, PeerMessageListener, ServiceQuery, WspError,
};
use wsp_wsdl::{OperationDef, ServiceDescriptor, Value, WsdlDocument, XsdType};

struct EchoInvoker;
impl Invoker for EchoInvoker {
    fn invoke(
        &self,
        _service: &LocatedService,
        _operation: &str,
        args: &[Value],
    ) -> Result<Value, WspError> {
        Ok(args.first().cloned().unwrap_or(Value::Null))
    }
    fn handles(&self, endpoint: &str) -> bool {
        endpoint.starts_with("test://")
    }
    fn kind(&self) -> &'static str {
        "test"
    }
}

fn test_service() -> LocatedService {
    LocatedService::new(
        WsdlDocument::new(ServiceDescriptor::echo(), vec![]),
        "test://somewhere/Echo",
        wsp_core::BindingKind::HttpUddi,
    )
}

/// The acceptance stress: at least 1000 invocations through a pool of
/// at least 4 workers, issued from several application threads at
/// once. Every token must complete exactly once, with the right
/// result, and the dispatcher's books must balance.
#[test]
fn thousand_concurrent_invocations_complete_exactly_once() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 150; // 1200 total

    let events = EventBus::new();
    let per_token = Arc::new(Mutex::new(HashMap::<u64, usize>::new()));
    struct CountPerToken(Arc<Mutex<HashMap<u64, usize>>>);
    impl PeerMessageListener for CountPerToken {
        fn on_client_message(&self, event: &ClientMessageEvent) {
            *self.0.lock().entry(event.token).or_insert(0) += 1;
        }
    }
    events.add_listener(Arc::new(CountPerToken(per_token.clone())));

    let dispatcher = Dispatcher::new(DispatcherConfig {
        workers: 4,
        queue_capacity: 64,
    });
    let client = Client::with_dispatcher(events, dispatcher);
    client.add_invoker(Arc::new(EchoInvoker));

    let mut app_threads = Vec::new();
    for thread_index in 0..THREADS {
        let client = client.clone();
        app_threads.push(std::thread::spawn(move || {
            let mut outcomes = Vec::with_capacity(PER_THREAD);
            for call_index in 0..PER_THREAD {
                let payload = format!("t{thread_index}c{call_index}");
                let handle = client.invoke_async(
                    test_service(),
                    "echoString",
                    vec![Value::string(payload.clone())],
                );
                outcomes.push((handle, payload));
            }
            outcomes
                .into_iter()
                .map(|(handle, payload)| {
                    let token = handle.token();
                    let result = handle.wait().expect("echo succeeds");
                    assert_eq!(result, Value::string(payload));
                    token
                })
                .collect::<Vec<u64>>()
        }));
    }

    let mut all_tokens = Vec::new();
    for thread in app_threads {
        all_tokens.extend(thread.join().expect("application thread panicked"));
    }
    client.dispatcher().flush();

    assert_eq!(all_tokens.len(), THREADS * PER_THREAD);
    let mut deduped = all_tokens.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(
        deduped.len(),
        all_tokens.len(),
        "correlation tokens must be unique"
    );

    let per_token = per_token.lock();
    for token in &all_tokens {
        assert_eq!(
            per_token.get(token),
            Some(&1),
            "token {token} must complete exactly once"
        );
    }

    let stats = client.dispatcher().stats();
    assert_eq!(stats.workers, 4);
    assert!(stats.submitted >= (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.submitted, stats.completed, "books balance: {stats:?}");
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.in_flight, 0);
    assert!(
        client.dispatcher().pending_tokens().is_empty(),
        "table fully drained"
    );
}

/// A queue smaller than the burst: `try_submit` must reject with a
/// Dispatch error rather than block or drop silently, and blocking
/// submits must drain through by helping.
#[test]
fn bounded_queue_pushes_back() {
    let dispatcher = Dispatcher::new(DispatcherConfig {
        workers: 1,
        queue_capacity: 4,
    });
    let gate = Arc::new(AtomicUsize::new(0));
    // Pin the single worker down, and wait until it has actually
    // dequeued the blocker so the burst below sees the full queue.
    let blocker = {
        let gate = gate.clone();
        dispatcher
            .submit(move || {
                while gate.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            })
            .unwrap()
    };
    while dispatcher.stats().in_flight == 0 {
        std::thread::yield_now();
    }

    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut bad_reason = None;
    let mut handles = Vec::new();
    for n in 0..64u32 {
        match dispatcher.try_submit(move || n) {
            Ok(handle) => {
                accepted += 1;
                handles.push(handle);
            }
            Err(WspError::Dispatch(reason)) => {
                if !reason.contains("full") {
                    bad_reason = Some(reason);
                }
                rejected += 1;
            }
            Err(other) => panic!("unexpected error kind: {other}"),
        }
    }

    // Release the worker before asserting — a failed assert while it
    // is still pinned would wedge the dispatcher's drop/join.
    gate.store(1, Ordering::SeqCst);
    blocker.wait();
    for handle in handles {
        handle.wait();
    }

    assert_eq!(
        bad_reason, None,
        "backpressure must be reported as a full queue"
    );
    assert!(
        rejected > 0,
        "64 try_submits cannot all fit in a 4-slot queue"
    );
    assert!(accepted >= 4, "the queue capacity itself must be usable");
    // flush() waits for job bookkeeping, not just result delivery.
    dispatcher.flush();
    let stats = dispatcher.stats();
    assert_eq!(stats.submitted, stats.completed);
}

/// A panicking listener must neither kill delivery to other listeners
/// nor take down the worker pool; a re-entrant listener (firing events
/// and registering listeners from inside a callback) must not deadlock.
#[test]
fn hostile_listeners_do_not_break_the_pipeline() {
    struct Bomb;
    impl PeerMessageListener for Bomb {
        fn on_client_message(&self, _: &ClientMessageEvent) {
            panic!("listener bug");
        }
    }
    struct Reentrant {
        bus: EventBus,
        nested: Arc<AtomicUsize>,
    }
    impl PeerMessageListener for Reentrant {
        fn on_client_message(&self, event: &ClientMessageEvent) {
            // Re-enter the bus from inside delivery: add a listener and
            // fire a different event kind.
            self.bus.add_listener(CollectingListener::new());
            self.bus.fire_deployment(&wsp_core::DeploymentMessageEvent {
                service: event.service.clone(),
                endpoints: vec![],
            });
            self.nested.fetch_add(1, Ordering::SeqCst);
        }
    }

    let events = EventBus::new();
    let nested = Arc::new(AtomicUsize::new(0));
    let after = CollectingListener::new();
    events.add_listener(Arc::new(Bomb));
    events.add_listener(Arc::new(Reentrant {
        bus: events.clone(),
        nested: nested.clone(),
    }));
    events.add_listener(after.clone());

    let client = Client::new(events.clone());
    client.add_invoker(Arc::new(EchoInvoker));

    for i in 0..10 {
        let out = client
            .invoke(
                &test_service(),
                "echoString",
                &[Value::string(format!("v{i}"))],
            )
            .expect("pipeline survives hostile listeners");
        assert_eq!(out, Value::string(format!("v{i}")));
    }

    assert_eq!(
        events.listener_panics(),
        10,
        "each delivery isolated one panic"
    );
    assert_eq!(
        nested.load(Ordering::SeqCst),
        10,
        "re-entrant listener ran every time"
    );
    assert_eq!(
        after.client_messages.read().len(),
        10,
        "listeners after the bomb still ran"
    );
    client.dispatcher().flush();
    let stats = client.dispatcher().stats();
    assert_eq!(
        stats.failed, 0,
        "listener panics never count as job failures"
    );
    assert_eq!(stats.submitted, stats.completed);
}

/// `wait_timeout` hands the handle back on timeout; `cancel` settles
/// the call so a late completion is dropped, and the cancellation is
/// visible in the stats.
#[test]
fn timeout_and_cancel_round_trip() {
    let dispatcher = Dispatcher::new(DispatcherConfig {
        workers: 2,
        queue_capacity: 16,
    });
    let (handle, completer) = dispatcher.register::<u32>(dispatcher.next_token());
    let handle = handle
        .wait_timeout(Duration::from_millis(20))
        .expect_err("nothing completes the call yet");
    assert!(handle.cancel());
    assert!(!completer.complete(1), "completion after cancel is dropped");
    assert_eq!(dispatcher.stats().cancelled, 1);
}

/// Over the real HTTP binding with a single dispatcher worker: a
/// handler that itself makes a synchronous `invoke` completes — whether
/// the outer call is synchronous (both jobs run on their callers, the
/// worker never involved) or asynchronous (the worker is parked in the
/// outer HTTP exchange while the nested call runs on the server's
/// thread) — and every call, nested ones included, fires exactly one
/// client event under a token of its own.
#[test]
fn nested_synchronous_invoke_from_a_handler_completes_on_one_worker() {
    let events = EventBus::new();
    let listener = CollectingListener::new();
    events.add_listener(listener.clone());
    let binding = HttpUddiBinding::with_local_registry(wsp_uddi::Registry::new(), events.clone());
    let peer = Arc::new(Peer::with_parts(
        events,
        Dispatcher::new(DispatcherConfig {
            workers: 1,
            queue_capacity: 4,
        }),
    ));
    peer.attach(&binding);
    peer.server()
        .deploy_and_publish(
            ServiceDescriptor::echo(),
            Arc::new(|_op: &str, args: &[Value]| Ok(args[0].clone())),
        )
        .unwrap();
    let echo = peer
        .client()
        .locate_one(&ServiceQuery::by_name("Echo"))
        .unwrap();
    let relay_peer = Arc::downgrade(&peer);
    peer.server()
        .deploy_and_publish(
            ServiceDescriptor::new("Relay", "urn:wspeer:test:relay").operation(
                OperationDef::new("relay")
                    .input("text", XsdType::String)
                    .returns(XsdType::String),
            ),
            Arc::new(move |_op: &str, args: &[Value]| {
                let peer = relay_peer.upgrade().expect("peer outlives its handlers");
                peer.client()
                    .invoke(&echo, "echoString", &[args[0].clone()])
                    .map_err(|e| wsp_soap::Fault::receiver(e.to_string()))
            }),
        )
        .unwrap();
    let relay = peer
        .client()
        .locate_one(&ServiceQuery::by_name("Relay"))
        .unwrap();

    let before = peer.dispatcher().stats();
    let sync = peer
        .client()
        .invoke(&relay, "relay", &[Value::string("via sync")])
        .unwrap();
    assert_eq!(sync, Value::string("via sync"));
    let handle = peer
        .client()
        .invoke_async(relay, "relay", vec![Value::string("via async")]);
    let outer_async_token = handle.token();
    assert_eq!(handle.wait().unwrap(), Value::string("via async"));
    peer.dispatcher().flush();

    let after = peer.dispatcher().stats();
    assert_eq!(
        after.submitted - before.submitted,
        4,
        "two outer, two nested"
    );
    assert_eq!(after.completed - before.completed, 4);
    assert_eq!(after.failed, 0);
    assert_eq!(after.pending_calls, 0);
    let events = listener.client_messages.read();
    let mut tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
    tokens.sort_unstable();
    tokens.dedup();
    assert_eq!(events.len(), 4);
    assert_eq!(
        tokens.len(),
        4,
        "one event per call, each under its own token"
    );
    assert!(tokens.contains(&outer_async_token));
    assert_eq!(events.iter().filter(|e| e.service == "Echo").count(), 2);
}
