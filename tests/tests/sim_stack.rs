//! The simulated stack end to end: P2PS discovery at scale, churn
//! survival, and the HTTP registry under load — quick versions of the
//! benchmark experiments, asserting the *shapes* the paper predicts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wsp_p2ps::{build_overlay, P2psQuery, PeerCommand, PeerEvent, ServiceAdvertisement};
use wsp_simnet::{ChurnModel, Dur, LinkSpec, SimNet, Time, Topology, TraceDigest};

fn publish(handles: &[wsp_p2ps::P2psHandle], net: &mut SimNet<String>, slot: usize, name: &str) {
    let advert = ServiceAdvertisement::new(name, handles[slot].peer()).with_pipe("in");
    handles[slot].enqueue_at(net, Time::ZERO, PeerCommand::Publish(advert));
}

fn found(handle: &wsp_p2ps::P2psHandle) -> bool {
    handle
        .events()
        .iter()
        .any(|(_, e)| matches!(e, PeerEvent::QueryResult { adverts, .. } if !adverts.is_empty()))
}

#[test]
fn discovery_succeeds_across_200_peer_overlay() {
    let mut net: SimNet<String> = SimNet::new(42);
    net.set_default_link(LinkSpec::wan());
    let mut rng = StdRng::seed_from_u64(42);
    let (topology, rendezvous) = Topology::rendezvous_groups(20, 10, 4, &mut rng);
    assert_eq!(topology.node_count(), 200);
    let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, None);

    // Publisher: a leaf in group 0; seekers: leaves in far groups.
    publish(&handles, &mut net, 1, "Echo");
    for seeker_slot in [55, 105, 155, 195] {
        handles[seeker_slot].enqueue_at(
            &mut net,
            Time::secs(2),
            PeerCommand::Query {
                token: seeker_slot as u64,
                query: P2psQuery::by_name("Echo"),
                ttl: None,
            },
        );
    }
    net.run_until(Time::secs(20));

    for seeker_slot in [55, 105, 155, 195] {
        assert!(
            found(&handles[seeker_slot]),
            "seeker {seeker_slot} failed to discover"
        );
    }
    // Per-node load stays modest: total messages bounded well below
    // n^2 flooding.
    let sent = net.metrics().counter("simnet.sent");
    assert!(
        sent < 6_000,
        "P2P discovery should not flood: {sent} messages"
    );
}

/// `attempts` queries from a far leaf while the rendezvous peers churn;
/// returns the tokens that found the service and the run digest.
fn churned_discovery_run(attempts: u64) -> (std::collections::HashSet<u64>, TraceDigest) {
    let mut net: SimNet<String> = SimNet::new(7);
    net.set_default_link(LinkSpec::lan());
    let mut rng = StdRng::seed_from_u64(7);
    let (topology, rendezvous) = Topology::rendezvous_groups(6, 6, 3, &mut rng);
    // Refresh keeps rendezvous caches warm through churn.
    let (_dir, handles) = build_overlay(&mut net, &topology, &rendezvous, Some(Dur::secs(5)));

    publish(&handles, &mut net, 1, "Echo");
    // Hammer the rendezvous peers with churn (mean 20s up / 4s down).
    let churn = ChurnModel::new(Dur::secs(20), Dur::secs(4));
    churn.apply(&mut net, &rendezvous, Time::secs(120), 99);

    // Repeated queries from a far leaf; most should succeed despite the
    // churn, thanks to soft-state refresh.
    let seeker = &handles[31];
    for i in 0..attempts {
        seeker.enqueue_at(
            &mut net,
            Time::secs(10 + i * 10),
            PeerCommand::Query {
                token: i,
                query: P2psQuery::by_name("Echo"),
                ttl: None,
            },
        );
    }
    net.run_until(Time::secs(130));

    let successes = seeker
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            PeerEvent::QueryResult { token, adverts } if !adverts.is_empty() => Some(*token),
            _ => None,
        })
        .collect();
    (successes, net.digest())
}

#[test]
fn p2p_discovery_survives_rendezvous_churn() {
    let attempts = 10;
    let (successes, digest) = churned_discovery_run(attempts);
    assert!(
        successes.len() >= attempts as usize / 2,
        "only {}/{attempts} queries succeeded under churn",
        successes.len()
    );
    assert_eq!(
        churned_discovery_run(attempts).1,
        digest,
        "same seeds ⇒ the same run, event for event"
    );
}

#[test]
fn central_registry_saturates_single_worker() {
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;
    use wsp_http::{HttpSimServer, Request, Response, Router, SimHttpClient};
    use wsp_simnet::{Context, Node, NodeEvent, NodeId};

    // Registry modelled as 5ms service time, single worker.
    let router = Router::new();
    router.deploy(
        "uddi",
        Arc::new(|_r: &Request| Response::ok("text/xml", "<serviceList/>")),
    );
    let mut net: SimNet<String> = SimNet::new(3);
    net.set_default_link(LinkSpec {
        latency: Dur::millis(1),
        jitter: Dur::ZERO,
        loss: 0.0,
    });
    let server = net.add_node(Box::new(HttpSimServer::new(router, Dur::millis(5), 1)));

    struct Load {
        server: NodeId,
        client: SimHttpClient,
        latencies: Rc<RefCell<Vec<u64>>>,
        sent_at: std::collections::HashMap<u64, Time>,
        count: usize,
    }
    impl Node<String> for Load {
        fn handle(&mut self, ctx: &mut Context<'_, String>, event: NodeEvent<String>) {
            match event {
                NodeEvent::Start => {
                    for _ in 0..self.count {
                        let corr = self.client.send(ctx, self.server, Request::get("/uddi"));
                        self.sent_at.insert(corr, ctx.now());
                    }
                }
                NodeEvent::Message { msg, .. } => {
                    if let Some((corr, _resp)) = self.client.accept(&msg) {
                        if let Some(at) = self.sent_at.remove(&corr) {
                            self.latencies
                                .borrow_mut()
                                .push((ctx.now() - at).as_micros());
                        }
                    }
                }
                _ => {}
            }
        }
    }

    let run = |clients: usize, seed: u64| -> f64 {
        let router = Router::new();
        router.deploy(
            "uddi",
            Arc::new(|_r: &Request| Response::ok("text/xml", "<serviceList/>")),
        );
        let mut net: SimNet<String> = SimNet::new(seed);
        net.set_default_link(LinkSpec {
            latency: Dur::millis(1),
            jitter: Dur::ZERO,
            loss: 0.0,
        });
        let server = net.add_node(Box::new(HttpSimServer::new(router, Dur::millis(5), 1)));
        let latencies = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..clients {
            net.add_node(Box::new(Load {
                server,
                client: SimHttpClient::new(),
                latencies: latencies.clone(),
                sent_at: Default::default(),
                count: 4,
            }));
        }
        net.run_to_quiescence();
        let all = latencies.borrow();
        all.iter().sum::<u64>() as f64 / all.len() as f64
    };
    let _ = server;

    let light = run(2, 11);
    let heavy = run(40, 11);
    // Saturation: 40 concurrent clients on one 5ms worker queue up;
    // mean latency grows by an order of magnitude.
    assert!(
        heavy > light * 5.0,
        "registry should saturate: light {light:.0}us vs heavy {heavy:.0}us"
    );
}
