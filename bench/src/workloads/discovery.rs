//! `discovery_mix`: reads beside writes on the replicated discovery
//! plane. The gateway workloads' 6/4/3 cluster over HTTP, pre-loaded
//! with 1 000 services; each client owns a `ShardedUddiClient`.

use super::gateway::HttpCluster;
use super::{elapsed_ns, span, Fixture, OpClient, Outcome};
use crate::gen::{discovery_name, DiscoveryGen, DiscoveryInput, DISCOVERY_SERVICES};
use crate::trace;
use std::sync::Arc;
use std::time::Instant;
use wsp_registry::{RegistryCluster, ShardedUddiClient};
use wsp_uddi::{BindingTemplate, BusinessService, ServiceQuery};

pub struct DiscoveryFixture {
    plane: HttpCluster,
    /// The pre-loaded records with their cluster-minted keys, by rank.
    records: Arc<Vec<BusinessService>>,
}

/// The resident record at Zipf rank `rank`, before the registry minted
/// its keys.
pub fn resident(rank: usize) -> BusinessService {
    let name = discovery_name(rank);
    BusinessService::new("", "uddi:wspeer:bench", name.clone()).with_binding(BindingTemplate::new(
        "",
        format!("http://10.8.0.1:8080/{name}"),
    ))
}

/// Publish the [`DISCOVERY_SERVICES`] resident records in process (the
/// measured traffic is what crosses HTTP; the population is just there)
/// and return them, by rank, with their cluster-minted keys.
pub fn preload(cluster: &RegistryCluster) -> Result<Vec<BusinessService>, String> {
    let loader =
        ShardedUddiClient::for_cluster(cluster).map_err(|e| format!("bootstrap shard map: {e}"))?;
    (0..DISCOVERY_SERVICES)
        .map(|rank| {
            loader
                .publish(&resident(rank))
                .map_err(|e| format!("pre-load {}: {e}", discovery_name(rank)))
        })
        .collect()
}

impl DiscoveryFixture {
    pub fn launch() -> Result<DiscoveryFixture, String> {
        let plane = HttpCluster::launch()?;
        let records = Arc::new(preload(&plane.cluster)?);
        Ok(DiscoveryFixture { plane, records })
    }
}

impl Fixture for DiscoveryFixture {
    fn client(&self, client: usize, seed: u64) -> Result<Box<dyn OpClient>, String> {
        Ok(Box::new(DiscoveryClient {
            gen: DiscoveryGen::new(seed, client),
            registry: self.plane.connect()?,
            records: self.records.clone(),
        }))
    }

    fn shutdown(self: Box<Self>) {
        self.plane.shutdown();
    }
}

struct DiscoveryClient {
    gen: DiscoveryGen,
    registry: ShardedUddiClient,
    records: Arc<Vec<BusinessService>>,
}

impl OpClient for DiscoveryClient {
    fn op(&mut self) -> Outcome {
        match self.gen.next_input() {
            DiscoveryInput::Locate { op, rank } => {
                let expected = &self.records[rank];
                let query = ServiceQuery::by_name(expected.name.clone());
                let started = Instant::now();
                let result = {
                    let root = trace::begin(trace::ROOT, op, 0);
                    let _s = trace::begin(span::DISCOVERY_LOCATE, op, root.id());
                    self.registry.locate(&query)
                };
                let latency_ns = elapsed_ns(started);
                match result {
                    Ok(found)
                        if found.len() == 1
                            && found[0].key == expected.key
                            && found[0].name == expected.name =>
                    {
                        Outcome::Ok {
                            latency_ns,
                            cache_hit: false,
                        }
                    }
                    Ok(found) => Outcome::Failed(format!(
                        "locate {} returned {:?}",
                        expected.name,
                        found.iter().map(|s| (&s.key, &s.name)).collect::<Vec<_>>()
                    )),
                    Err(e) => Outcome::Failed(format!("locate {}: {e}", expected.name)),
                }
            }
            DiscoveryInput::Publish {
                op,
                rank,
                access_point,
            } => {
                let mut record = self.records[rank].clone();
                record.bindings[0].access_point = access_point;
                let started = Instant::now();
                let result = {
                    let root = trace::begin(trace::ROOT, op, 0);
                    let _s = trace::begin(span::DISCOVERY_PUBLISH, op, root.id());
                    self.registry.publish(&record)
                };
                let latency_ns = elapsed_ns(started);
                match result {
                    Ok(saved) if saved.key == record.key && saved.name == record.name => {
                        Outcome::Ok {
                            latency_ns,
                            cache_hit: false,
                        }
                    }
                    Ok(saved) => Outcome::Failed(format!(
                        "publish {} returned {} / {}",
                        record.name, saved.key, saved.name
                    )),
                    Err(e) => Outcome::Failed(format!("publish {}: {e}", record.name)),
                }
            }
        }
    }
}
