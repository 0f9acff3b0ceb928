//! The replicated discovery plane driven end-to-end: committed
//! registrations surviving a primary crash, versioned shard-map
//! redirects refreshing stale clients over both real bindings (SOAP
//! over HTTP and SOAP over a P2PS pipe), and lease expiry pinned to the
//! logical clock so seeded runs replay bit-identically.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;
use wsp_p2ps::{pipe_call, P2psMessage, PeerId, PipeAdvertisement, PipeTcpConfig, PipeTcpServer};
use wsp_registry::{ClusterConfig, LeaseTrace, RegistryCluster, RegistryError, ShardedUddiClient};
use wsp_simnet::{Dur, Time};
use wsp_uddi::client::{http_transport, UddiTransport};
use wsp_uddi::wire::{read_request, read_response, write_request, write_response};
use wsp_uddi::{BusinessService, ServiceQuery, UddiRequest, UddiResponse};

fn fault_seed() -> u64 {
    std::env::var("WSP_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2005)
}

fn test_cluster() -> RegistryCluster {
    RegistryCluster::new(ClusterConfig {
        nodes: 6,
        shard_count: 4,
        replication: 3,
        default_ttl: None,
    })
}

fn svc(name: &str) -> BusinessService {
    BusinessService::new("", "uddi:wspeer:itest", name)
}

/// A client whose breakers re-probe immediately: these tests crash and
/// revive nodes faster than any wall-clock cooldown.
fn eager_client(transports: Vec<UddiTransport>) -> ShardedUddiClient {
    ShardedUddiClient::connect(transports)
        .expect("bootstrap shard map")
        .with_breaker_config(wsp_core::health::BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::ZERO,
        })
}

#[test]
fn committed_registrations_survive_the_primary_crash() {
    let cluster = test_cluster();
    let client = eager_client((0..6).map(|n| cluster.node_transport(n)).collect());

    let mut acked = Vec::new();
    for i in 0..12 {
        let name = format!("svc-{i}");
        acked.push(client.publish(&svc(&name)).expect("publish acked"));
    }

    // Crash the primary of the shard that owns svc-0.
    let map = cluster.shard_map();
    let shard = map.shard_of("svc-0");
    let epoch_before = client.cached_epoch();
    cluster.crash(map.shard(shard).primary());

    // Writes fail over (driving the view change); afterwards every
    // acked registration is still locatable — zero lost commits.
    let republished = client.publish(&acked[0]).expect("failover publish");
    assert_eq!(republished.key, acked[0].key, "same record, same key");
    assert!(
        client.cached_epoch() > epoch_before,
        "the view change bumped the shard-map epoch"
    );
    for record in &acked {
        let found = client
            .locate(&ServiceQuery::by_name(&record.name))
            .expect("locate through the degraded plane");
        assert!(
            found.iter().any(|s| s.key == record.key),
            "{} lost after primary crash",
            record.name
        );
    }
}

#[test]
fn quorum_loss_is_an_error_not_a_lie() {
    let cluster = test_cluster();
    let client = eager_client((0..6).map(|n| cluster.node_transport(n)).collect());
    let record = client.publish(&svc("lonely")).expect("publish");

    // Kill every member of the owning shard: the plane must refuse the
    // write, not pretend it committed.
    let map = cluster.shard_map();
    let shard = map.shard_of("lonely");
    for &m in &map.shard(shard).members {
        cluster.crash(m);
    }
    match client.publish(&record) {
        Err(RegistryError::Unavailable(_)) => {}
        other => panic!("expected Unavailable, got {other:?}"),
    }
}

/// HTTP binding: each cluster node mounted behind a real TCP server,
/// the client talking SOAP-over-HTTP through the full codecs. A second
/// client with a stale cached map gets the versioned redirect, refreshes
/// and completes without surfacing an error.
#[test]
fn stale_epoch_client_refreshes_over_http() {
    let cluster = test_cluster();
    let mut servers = Vec::new();
    let mut transports: Vec<UddiTransport> = Vec::new();
    for n in 0..6 {
        let router = wsp_http::Router::new();
        router.deploy("uddi", cluster.node_http_handler(n));
        let server = wsp_http::TcpServer::launch(0, router).expect("launch node host");
        transports.push(http_transport(server.service_uri("uddi")));
        servers.push(server);
    }

    let writer = eager_client(transports.clone());
    let reader = eager_client(transports);
    let record = writer.publish(&svc("http-svc")).expect("publish over http");

    // Crash the owning shard's primary and force a view change through
    // the writer. The reader's cached map is now a stale epoch.
    let map = cluster.shard_map();
    let shard = map.shard_of("http-svc");
    cluster.crash(map.shard(shard).primary());
    writer.publish(&record).expect("failover over http");
    let stale_epoch = reader.cached_epoch();
    assert!(
        stale_epoch < cluster.shard_map().epoch(),
        "reader must actually be stale for this test to mean anything"
    );

    // The reader's stamped locate hits the bumped plane, eats the
    // versioned redirect, adopts the fresh map and still answers.
    let found = reader
        .locate(&ServiceQuery::by_name("http-svc"))
        .expect("stale reader completes after redirect");
    assert!(found.iter().any(|s| s.key == record.key));
    assert!(
        reader.cached_epoch() > stale_epoch,
        "the redirect refreshed the reader's map"
    );

    for server in servers {
        server.shutdown();
    }
}

/// P2PS binding: the same cluster nodes reachable only through framed
/// P2PS pipes (`PipeData` carrying SOAP envelopes), proving the
/// discovery plane is binding-agnostic exactly like the paper's hosting
/// claim. The stale-epoch redirect dance must work here too.
#[test]
fn stale_epoch_client_refreshes_over_p2ps() {
    let cluster = test_cluster();
    let peer = PeerId::random(&mut StdRng::seed_from_u64(fault_seed()));
    let mut servers = Vec::new();
    let mut transports: Vec<UddiTransport> = Vec::new();
    for n in 0..6 {
        let cluster_n = cluster.clone();
        let server = PipeTcpServer::launch(
            "127.0.0.1:0",
            move |message| match message {
                P2psMessage::PipeData { to, payload } => {
                    if !cluster_n.is_up(n) {
                        return None;
                    }
                    let response = match read_request(&payload)? {
                        Ok(request) => cluster_n.process(n, &request),
                        Err(fault) => UddiResponse::Fault(fault),
                    };
                    let mut answer = Vec::new();
                    write_response(&response, &mut answer);
                    Some(P2psMessage::PipeData {
                        to,
                        payload: String::from_utf8(answer).ok()?,
                    })
                }
                _ => None,
            },
            PipeTcpConfig::default(),
        )
        .expect("launch pipe host");
        let addr = server.addr();
        let pipe = PipeAdvertisement::new(peer, Some("uddi".into()), format!("registry-{n}"));
        transports.push(Arc::new(move |request: &UddiRequest<'_>| {
            let mut envelope = Vec::new();
            write_request(request, &mut envelope);
            let message = P2psMessage::PipeData {
                to: pipe.clone(),
                payload: String::from_utf8(envelope).map_err(|e| e.to_string())?,
            };
            // A down node never replies; the read timeout is the
            // client's only failure signal, so keep it short.
            let reply = pipe_call(addr, &message, Duration::from_millis(400))
                .map_err(|e| format!("pipe error: {e}"))?;
            match reply {
                P2psMessage::PipeData { payload, .. } => read_response(&payload),
                other => Err(format!("unexpected pipe reply: {other:?}")),
            }
        }));
        servers.push(server);
    }

    let writer = eager_client(transports.clone());
    let reader = eager_client(transports);
    let record = writer.publish(&svc("p2ps-svc")).expect("publish over p2ps");

    let map = cluster.shard_map();
    let shard = map.shard_of("p2ps-svc");
    cluster.crash(map.shard(shard).primary());
    writer.publish(&record).expect("failover over p2ps");
    let stale_epoch = reader.cached_epoch();
    assert!(stale_epoch < cluster.shard_map().epoch());

    let found = reader
        .locate(&ServiceQuery::by_name("p2ps-svc"))
        .expect("stale reader completes after redirect");
    assert!(found.iter().any(|s| s.key == record.key));
    assert!(reader.cached_epoch() > stale_epoch);

    for server in servers {
        server.shutdown();
    }
}

/// One seeded lease run: publish with short TTLs, refresh the evens
/// through a mid-run primary crash, let the odds lapse, and return every
/// shard's lease trace.
fn lease_run(seed: u64) -> Vec<Vec<LeaseTrace>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cluster = RegistryCluster::new(ClusterConfig {
        nodes: 6,
        shard_count: 4,
        replication: 3,
        default_ttl: Some(Dur::millis(50)),
    });
    let client = eager_client((0..6).map(|n| cluster.node_transport(n)).collect());
    let mut saved = Vec::new();
    for i in 0..10 {
        saved.push(
            client
                .publish(&svc(&format!("lease-{i}")))
                .expect("publish"),
        );
    }
    // Walk virtual time in seeded steps; refresh evens while they are
    // still alive, crash/revive a seeded node midway.
    let mut now = 0u64;
    for round in 0..6 {
        now += rng.random_range(5u64..20);
        cluster.advance_to(Time::millis(now));
        if round == 2 {
            cluster.crash(rng.random_range(0..6));
        }
        if round == 4 {
            for n in 0..6 {
                cluster.restart(n);
            }
        }
        for record in saved.iter().step_by(2) {
            let _ = client.publish(record);
        }
    }
    cluster.advance_to(Time::millis(now + 200));
    (0..4).map(|s| cluster.lease_trace(s)).collect()
}

#[test]
fn lease_expiry_replays_bit_identically_under_one_seed() {
    let seed = fault_seed();
    let first = lease_run(seed);
    let second = lease_run(seed);
    assert_eq!(first, second, "same seed, same lease trace");
    let expiries: usize = first
        .iter()
        .flatten()
        .filter(|t| matches!(t.action, wsp_registry::LeaseAction::Expired))
        .count();
    assert!(
        expiries > 0,
        "the run must actually shed unrefreshed leases for the pin to bite"
    );
}
