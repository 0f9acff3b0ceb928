//! The discovery plane's read and write paths held to logical facts —
//! exchanges counted, records compared, log slots counted — never to a
//! clock: an exact-name locate is one exchange with the shard that owns
//! the name's case fold, a pattern locate one per cover node, merged
//! results honour `max_rows`, no locate can fault on a record deleted
//! under it, and what a replica retains does not grow with the shard's
//! age.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use wsp_registry::{
    ClusterConfig, RegistryCluster, RegistryError, ShardMap, ShardedUddiClient, MAX_LEASE_TTL_MS,
};
use wsp_simnet::Time;
use wsp_uddi::{
    BindingTemplate, BusinessService, ServiceQuery, UddiError, UddiOp, UddiRequest, UddiTransport,
};

fn cluster(nodes: usize) -> RegistryCluster {
    RegistryCluster::new(ClusterConfig {
        nodes,
        shard_count: 4,
        replication: 3,
        default_ttl: None,
    })
}

fn svc(name: &str, access_point: &str) -> BusinessService {
    BusinessService::new("", "uddi:wspeer:itest", name)
        .with_binding(BindingTemplate::new("", access_point))
}

/// Node transports that count the exchanges they carry.
fn counted(cluster: &RegistryCluster) -> (Vec<UddiTransport>, Arc<Vec<AtomicUsize>>) {
    let nodes = cluster.endpoints().len();
    let calls: Arc<Vec<AtomicUsize>> = Arc::new((0..nodes).map(|_| AtomicUsize::new(0)).collect());
    let transports = (0..nodes)
        .map(|n| {
            let inner = cluster.node_transport(n);
            let calls = calls.clone();
            Arc::new(move |request: &UddiRequest<'_>| {
                calls[n].fetch_add(1, Ordering::SeqCst);
                inner(request)
            }) as UddiTransport
        })
        .collect();
    (transports, calls)
}

fn take_counts(calls: &[AtomicUsize]) -> Vec<usize> {
    calls.iter().map(|c| c.swap(0, Ordering::SeqCst)).collect()
}

/// The scatter's cover as the client builds it: per shard, its primary
/// unless a node already chosen hosts the shard.
fn cover(map: &ShardMap) -> Vec<usize> {
    let mut cover: Vec<usize> = Vec::new();
    for s in 0..map.shard_count() {
        let info = map.shard(s);
        if !info.members.iter().any(|m| cover.contains(m)) {
            cover.push(info.primary());
        }
    }
    cover
}

#[test]
fn exact_name_is_one_exchange_and_a_pattern_one_per_cover_node() {
    let plane = cluster(6);
    let (transports, calls) = counted(&plane);
    let client = ShardedUddiClient::connect(transports).expect("bootstrap");
    for i in 0..16 {
        client
            .publish(&svc(&format!("Counted{i}"), "http://h/x"))
            .expect("publish");
    }
    let map = plane.shard_map();
    take_counts(&calls);

    for i in 0..16 {
        let name = format!("Counted{i}");
        let found = client
            .locate(&ServiceQuery::by_name(&name))
            .expect("locate");
        assert_eq!(found.len(), 1, "{name}");
        let counts = take_counts(&calls);
        assert_eq!(counts.iter().sum::<usize>(), 1, "{name}: {counts:?}");
        let owner = map.shard(map.shard_of(&name)).primary();
        assert_eq!(
            counts[owner], 1,
            "{name} is answered by its shard's primary"
        );
    }

    let expected = cover(&map);
    assert!(expected.len() > 1, "a 6-node plane needs a real scatter");
    for query in [ServiceQuery::by_name("Counted%"), ServiceQuery::all()] {
        assert_eq!(client.locate(&query).expect("scatter").len(), 16);
        let counts = take_counts(&calls);
        for (node, &count) in counts.iter().enumerate() {
            assert_eq!(
                count,
                usize::from(expected.contains(&node)),
                "node {node}: {counts:?}"
            );
        }
    }
}

/// Matching folds case, so placement must: a query in another case is
/// routed by the same hash the publish was placed by.
#[test]
fn a_query_in_another_case_reaches_the_owning_shard() {
    let plane = cluster(6);
    let client = ShardedUddiClient::for_cluster(&plane).expect("bootstrap");
    let echo = client
        .publish(&svc("EchoService", "http://h/echo"))
        .expect("publish");
    let found = client
        .locate(&ServiceQuery::by_name("echoservice"))
        .expect("locate");
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].key, echo.key);

    // One mixed-case name could land on the right shard by luck.
    let mut shards = std::collections::BTreeSet::new();
    for i in 0..32 {
        let name = format!("Svc{i}MixedCase");
        let saved = client.publish(&svc(&name, "http://h/x")).expect("publish");
        shards.insert(client.shard_of(&name));
        for spelling in [name.to_lowercase(), name.to_uppercase()] {
            assert_eq!(client.shard_of(&spelling), client.shard_of(&name));
            let found = client
                .locate(&ServiceQuery::by_name(&spelling))
                .expect("locate");
            assert_eq!(found.len(), 1, "{spelling}");
            assert_eq!(found[0].key, saved.key, "{spelling}");
        }
    }
    assert_eq!(shards.len(), 4, "the names spread over every shard");
}

#[test]
fn merged_results_honour_max_rows_in_key_order() {
    let plane = cluster(6);
    let client = ShardedUddiClient::for_cluster(&plane).expect("bootstrap");
    for i in 0..16 {
        client
            .publish(&svc(&format!("Row{i}"), "http://h/x"))
            .expect("publish");
    }
    let all = client.locate(&ServiceQuery::by_name("Row%")).expect("all");
    assert_eq!(all.len(), 16);
    assert!(all.windows(2).all(|w| w[0].key < w[1].key), "key order");
    for rows in [1, 3, 15, 16, 40] {
        let capped = client
            .locate(&ServiceQuery::by_name("Row%").with_max_rows(rows))
            .expect("capped");
        let keys = |found: &[BusinessService]| -> Vec<String> {
            found.iter().map(|s| s.key.clone()).collect()
        };
        assert_eq!(keys(&capped), keys(&all[..rows.min(16)]), "max_rows={rows}");
    }
}

/// A transport that, once a node has answered an inquiry, deletes and
/// republishes every record the test handed it — the worst case for a
/// two-step locate, forced rather than hoped for: whatever the first
/// exchange found is gone before a second could ask for it.
#[test]
fn a_record_deleted_behind_an_answer_cannot_fault_the_locate() {
    let plane = cluster(3);
    let owner = ShardedUddiClient::for_cluster(&plane).expect("bootstrap");
    let records = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for i in 0..4 {
        let saved = owner
            .publish(&svc(&format!("Churn{i}"), "http://h/x"))
            .expect("publish");
        records.lock().push(saved);
    }
    let owner = Arc::new(owner);
    let transports = (0..3)
        .map(|n| {
            let inner = plane.node_transport(n);
            let (owner, records) = (owner.clone(), records.clone());
            Arc::new(move |request: &UddiRequest<'_>| {
                let response = inner(request);
                let inquiry = matches!(
                    request.op,
                    UddiOp::FindService(_) | UddiOp::FindServiceDetail(_)
                );
                if inquiry {
                    for record in records.lock().iter_mut() {
                        assert!(owner.delete(&record.key).expect("delete"));
                        let mut fresh = record.clone();
                        fresh.key.clear();
                        *record = owner.publish(&fresh).expect("republish");
                    }
                }
                response
            }) as UddiTransport
        })
        .collect();
    let reader = ShardedUddiClient::connect(transports).expect("bootstrap");
    for round in 0..50 {
        let found = reader
            .locate(&ServiceQuery::by_name("Churn%"))
            .unwrap_or_else(|e| panic!("round {round}: pattern locate faulted: {e}"));
        assert_eq!(found.len(), 4, "round {round}");
        let found = reader
            .locate(&ServiceQuery::by_name("churn2"))
            .unwrap_or_else(|e| panic!("round {round}: exact locate faulted: {e}"));
        assert_eq!(found.len(), 1, "round {round}");
    }
}

/// The same race left to two threads: one deletes and republishes the
/// `Race*` records while the other locates them, by pattern and by
/// name. Which locates see which generation is the scheduler's; that
/// none of them is an error is not.
#[test]
fn locates_racing_deletes_never_fault() {
    const NAMES: usize = 8;
    let plane = cluster(3);
    let writer = ShardedUddiClient::for_cluster(&plane).expect("bootstrap");
    let reader = ShardedUddiClient::for_cluster(&plane).expect("bootstrap");
    let mut records: Vec<BusinessService> = (0..NAMES)
        .map(|i| {
            writer
                .publish(&svc(&format!("Race{i}"), "http://h/x"))
                .expect("publish")
        })
        .collect();
    let start = Barrier::new(2);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            let mut turns = 0usize;
            while !done.load(Ordering::SeqCst) {
                let record = &mut records[turns % NAMES];
                assert!(writer.delete(&record.key).expect("delete"));
                let mut fresh = record.clone();
                fresh.key.clear();
                *record = writer.publish(&fresh).expect("republish");
                turns += 1;
            }
        });
        start.wait();
        // A verdict, not a panic: the writer runs until `done`, and a
        // reader that unwound past it would leave the scope waiting.
        let verdict = (0..2_000).try_for_each(|i| {
            let found = reader
                .locate(&ServiceQuery::by_name("Race%"))
                .map_err(|e| format!("pattern locate {i} faulted: {e}"))?;
            let name = format!("race{}", i % NAMES);
            let exact = reader
                .locate(&ServiceQuery::by_name(&name))
                .map_err(|e| format!("locate {name} ({i}) faulted: {e}"))?;
            match found.len() <= NAMES && exact.len() <= 1 {
                true => Ok(()),
                false => Err(format!("{i}: {} / {} records", found.len(), exact.len())),
            }
        });
        done.store(true, Ordering::SeqCst);
        verdict.expect("no locate may fault");
    });
}

/// What a replica holds must not depend on how much the shard has ever
/// seen: with every member up the log is a slot or two however many
/// ops went through it; a crashed member pins the group-stable point
/// (the survivors keep exactly what it missed, discarding nothing) until
/// it is back and has acknowledged; and a view change loses no
/// acknowledged write.
#[test]
fn log_retention_is_flat_with_age_and_pinned_only_by_a_down_member() {
    const NAMES: usize = 40;
    let plane = cluster(3);
    let client = ShardedUddiClient::for_cluster(&plane).expect("bootstrap");
    let mut records: Vec<BusinessService> = (0..NAMES)
        .map(|i| {
            client
                .publish(&svc(&format!("Aged{i}"), "http://h/0"))
                .expect("publish")
        })
        .collect();
    let mut republish = |i: usize, generation: usize| {
        let record = &mut records[i % NAMES];
        record.bindings[0].access_point = format!("http://h/{generation}");
        let saved = client.publish(record).expect("republish");
        assert_eq!(saved.key, record.key);
    };
    for generation in 0..10_000 {
        republish(generation, generation);
    }
    let mut total = 0;
    for shard in 0..4 {
        for member in plane.log_footprint(shard) {
            assert!(member.retained <= 4, "shard {shard}: {member:?}");
            assert!(member.ack_entries <= 3, "shard {shard}: {member:?}");
            total = total.max(member.log_start);
        }
    }
    assert!(total > 2_000, "the ops did go through the logs: {total}");

    // One member of Aged0's shard goes away; 500 more ops reach the shard.
    let shard = client.shard_of("Aged0");
    let info = plane.shard_map().shard(shard).clone();
    let away = *info.members.iter().find(|&&m| m != info.primary()).unwrap();
    let before = plane.log_footprint(shard);
    plane.crash(away);
    for generation in 0..500 {
        republish(0, 20_000 + generation);
    }
    for (was, now) in before.iter().zip(plane.log_footprint(shard)) {
        if now.node == away {
            assert_eq!(*was, now, "a down member's log does not move");
        } else {
            assert_eq!(now.log_start, was.log_start, "nothing discarded: {now:?}");
            assert_eq!(now.retained, was.retained + 500, "{now:?}");
        }
    }
    // It returns; the next op catches it up, it acknowledges, and the
    // whole group lets go of what only it had been missing.
    plane.restart(away);
    republish(0, 30_000);
    let back = plane.log_footprint(shard);
    for member in &back {
        assert!(member.retained <= 4, "after the return: {member:?}");
        assert_eq!(
            member.log_start + member.retained as u32,
            back[0].log_start + back[0].retained as u32,
            "every member holds the same log end: {back:?}"
        );
    }

    // The primary crashes; writes go through the view change. Every
    // record's last acknowledged access point is what each surviving
    // member's store holds and what a locate returns.
    plane.crash(info.primary());
    for i in 0..NAMES {
        republish(i, 40_000 + i);
    }
    let access_point = |s: &BusinessService| s.bindings[0].access_point.clone();
    for record in &records {
        let shard = plane
            .shard_map()
            .shard(client.shard_of(&record.name))
            .clone();
        for &member in shard.members.iter().filter(|&&m| plane.is_up(m)) {
            let held = plane.node_registry(member).get_service(&record.key);
            assert_eq!(
                held.as_ref().map(access_point),
                Some(access_point(record)),
                "node {member}: {}",
                record.name
            );
        }
        let found = client
            .locate(&ServiceQuery::by_name(&record.name))
            .expect("locate");
        assert_eq!(found.len(), 1, "{}", record.name);
        assert_eq!(found[0].key, record.key);
        assert_eq!(access_point(&found[0]), access_point(record));
    }
    for shard in 0..4 {
        for member in plane.log_footprint(shard) {
            assert!(member.ack_entries <= 3, "shard {shard}: {member:?}");
        }
    }
}

/// A publish is one registry exchange: the WSDL tModel rides in the
/// `save_service` body under a key the publisher derived from the
/// endpoint, and the registry ends where `save_tModel` + `save_service`
/// left it — tModel present with its overview URL, referenced by the
/// record, gone with the record on a single registry. The cluster keeps
/// tModels outside the sharded log and never collected them; there the
/// derived key is what stops a deploy/undeploy cycle from adding one.
#[test]
fn a_publish_is_one_exchange_and_carries_its_tmodel() {
    use wsp_core::bindings::{HttpUddiBinding, HttpUddiConfig};
    use wsp_core::{EventBus, Peer};
    use wsp_uddi::{direct_transport, Registry, UddiClient};
    use wsp_wsdl::{ServiceDescriptor, Value};

    fn count(inner: UddiTransport) -> (UddiClient, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = calls.clone();
        let transport: UddiTransport = Arc::new(move |request: &UddiRequest<'_>| {
            counter.fetch_add(1, Ordering::SeqCst);
            inner(request)
        });
        (UddiClient::new(transport), calls)
    }
    // Deploy + publish + undeploy `cycles` times: every publish and
    // every unpublish is exactly one exchange, and while published the
    // record's tModel is where `lookup` looks.
    fn cycle(
        uddi: UddiClient,
        calls: &AtomicUsize,
        cycles: usize,
        lookup: impl Fn(&str) -> Option<wsp_uddi::TModel>,
    ) {
        let provider = Peer::with_binding(&HttpUddiBinding::new(
            uddi.clone(),
            EventBus::new(),
            HttpUddiConfig::default(),
        ));
        for _ in 0..cycles {
            calls.store(0, Ordering::SeqCst);
            let deployed = provider
                .server()
                .deploy_and_publish(
                    ServiceDescriptor::echo(),
                    Arc::new(|_: &str, args: &[Value]| Ok(args[0].clone())),
                )
                .expect("deploy and publish");
            assert_eq!(calls.load(Ordering::SeqCst), 1, "one exchange per publish");
            let endpoint = deployed.primary_endpoint().expect("an endpoint");
            let record = uddi
                .locate(&ServiceQuery::by_name("Echo"))
                .expect("locate")
                .pop()
                .expect("the record");
            let key = record.bindings[0].tmodel_keys[0].clone();
            let tmodel = lookup(&key).expect("the record's tModel is in the registry");
            assert_eq!(tmodel.overview_url, Some(format!("{endpoint}?wsdl")));
            calls.store(0, Ordering::SeqCst);
            assert!(provider.server().undeploy("Echo"));
            assert_eq!(
                calls.load(Ordering::SeqCst),
                1,
                "one exchange per unpublish"
            );
        }
    }

    let registry = Registry::new();
    let before = registry.tmodel_count();
    let (uddi, calls) = count(direct_transport(registry.clone()));
    cycle(uddi, &calls, 3, |key| registry.get_tmodel(key));
    assert_eq!(registry.tmodel_count(), before, "gone with its record");
    assert_eq!(registry.service_count(), 0);

    let plane = cluster(6);
    let primary = plane.shard_map().route("Echo").primary;
    let (uddi, calls) = count(plane.node_transport(primary));
    cycle(uddi, &calls, 3, |key| {
        let held: Vec<_> = (0..6)
            .map(|n| plane.node_registry(n).get_tmodel(key))
            .collect();
        assert!(held.iter().all(Option::is_some), "on every live node");
        held.into_iter().next().flatten()
    });
    for node in 0..6 {
        assert_eq!(
            plane.node_registry(node).tmodel_count(),
            1,
            "node {node}: one tModel per endpoint, however many publishes"
        );
    }
}

/// The cluster keys a record once, where it admits it — the service
/// and every binding that came without a key — so the op its replicas
/// apply mints nothing: each holds the record the publisher was told
/// about, and a locate returns that record too.
#[test]
fn every_replica_holds_the_record_the_publisher_was_told_about() {
    let plane = cluster(6);
    let client = ShardedUddiClient::for_cluster(&plane).expect("bootstrap");
    let record = svc("Keyed", "http://h/keyed")
        .with_binding(BindingTemplate::new("", "http://h/keyed-too"))
        .with_binding(BindingTemplate::new("binding-kept", "http://h/keyed-three"));
    let saved = client.publish(&record).expect("publish");
    let keys: Vec<&str> = saved.bindings.iter().map(|b| b.key.as_str()).collect();
    assert!(keys.iter().all(|key| !key.is_empty()), "{keys:?}");
    assert_ne!(keys[0], keys[1]);
    assert_eq!(keys[2], "binding-kept", "a key the publisher chose stays");
    let shard = plane.shard_map().shard(client.shard_of("Keyed")).clone();
    for &member in &shard.members {
        let held = plane.node_registry(member).get_service(&saved.key);
        assert_eq!(held.as_ref(), Some(&saved), "node {member}");
    }
    let found = client
        .locate(&ServiceQuery::by_name("Keyed"))
        .expect("locate");
    assert_eq!(found, [saved]);
}

/// `leaseTtlMs` comes off the wire: a lease longer than the longest the
/// plane grants is refused where the record is admitted, before any
/// replica applies anything, and the longest one it grants is armed
/// without overflowing — in debug and release alike.
#[test]
fn a_lease_longer_than_the_longest_is_refused_at_publish() {
    let plane = cluster(3);
    let client = ShardedUddiClient::for_cluster(&plane).expect("bootstrap");
    for ttl in [18_446_744_073_709_552, u64::MAX, MAX_LEASE_TTL_MS + 1] {
        let record = svc("Forever", "http://h/forever").with_lease_ttl_ms(ttl);
        match client.publish(&record) {
            Err(RegistryError::Uddi(UddiError::Fault(fault))) => {
                assert!(fault.reason.contains("leaseTtlMs"), "{fault}");
            }
            other => panic!("leaseTtlMs={ttl}: {other:?}"),
        }
    }
    for node in 0..3 {
        assert_eq!(plane.node_registry(node).service_count(), 0, "node {node}");
    }
    let longest = svc("Forever", "http://h/forever").with_lease_ttl_ms(MAX_LEASE_TTL_MS);
    let saved = client
        .publish(&longest)
        .expect("the longest lease is granted");
    plane.advance_to(Time::millis(1));
    let found = client
        .locate(&ServiceQuery::by_name("Forever"))
        .expect("locate");
    assert_eq!(found, [saved]);
}
