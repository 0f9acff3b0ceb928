//! The consistent-hash shard map.
//!
//! Service names hash — by their case fold, so that placement agrees
//! with case-insensitive matching — onto a fixed set of shards; each
//! shard is placed on a replica set of nodes by walking a
//! consistent-hash ring of virtual node tokens, so adding or removing a
//! node only remaps the shards whose ring walk touches it. The whole
//! map is version-stamped
//! with an `epoch`: clients cache it, send the epoch they believe in
//! with every routed request, and a node that sees a stale epoch
//! answers with a versioned redirect fault instead of serving the
//! misrouted request. View changes inside one shard's replica group
//! also bump the epoch so cached primaries are invalidated the same
//! way (`ShardMapChanged`).

use wsp_simnet::{fnv1a, fnv1a_fold};
pub use wsp_uddi::REGISTRY_NS;
use wsp_xml::{Element, QName};

/// Virtual tokens per node on the placement ring. Plenty for the node
/// counts we shard across while keeping map construction trivial.
const VNODES: u64 = 32;

/// splitmix64 avalanche finalizer. Ring tokens share long common
/// prefixes (`wsp://registry/3#17`), and raw FNV-1a over strings that
/// differ only in their tail clusters badly — badly enough that every
/// shard's ring walk can land on the same three nodes, which turns
/// "crash two nodes" into "every shard loses quorum". One avalanche
/// pass decorrelates the tokens so placement actually spreads.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    h
}

/// One shard's placement: the replica set (node indices, preference
/// order) and the replication group's current view number. The view's
/// primary is `members[view % members.len()]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    pub members: Vec<usize>,
    pub view: u32,
}

impl ShardInfo {
    pub fn primary(&self) -> usize {
        self.members[self.view as usize % self.members.len()]
    }

    /// Members in failover order: the view's primary first, then the
    /// rest of the replica set.
    pub fn failover_order(&self) -> Vec<usize> {
        let mut order = vec![self.primary()];
        order.extend(
            self.members
                .iter()
                .copied()
                .filter(|&m| m != self.primary()),
        );
        order
    }
}

/// Where a routed request should go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    pub shard: u32,
    pub primary: usize,
    pub backups: Vec<usize>,
}

/// The version-stamped shard map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    epoch: u64,
    /// Endpoint label per node (index = node id).
    nodes: Vec<String>,
    shards: Vec<ShardInfo>,
}

impl ShardMap {
    /// Place `shard_count` shards across `nodes` with `replication`-way
    /// replica sets, chosen by a consistent-hash ring walk.
    pub fn build(nodes: Vec<String>, shard_count: u32, replication: usize, epoch: u64) -> ShardMap {
        assert!(!nodes.is_empty(), "a shard map needs at least one node");
        let replication = replication.min(nodes.len()).max(1);
        // The ring: VNODES tokens per node, sorted by hash.
        let mut ring: Vec<(u64, usize)> = Vec::with_capacity(nodes.len() * VNODES as usize);
        for (id, endpoint) in nodes.iter().enumerate() {
            for v in 0..VNODES {
                ring.push((mix(fnv1a(format!("{endpoint}#{v}").as_bytes())), id));
            }
        }
        ring.sort_unstable();
        let shards = (0..shard_count)
            .map(|s| {
                let start = mix(fnv1a(format!("shard/{s}").as_bytes()));
                // Walk clockwise from the shard's token collecting
                // distinct nodes until the replica set is full.
                let from = ring.partition_point(|&(h, _)| h < start);
                let mut members = Vec::with_capacity(replication);
                for i in 0..ring.len() {
                    let (_, node) = ring[(from + i) % ring.len()];
                    if !members.contains(&node) {
                        members.push(node);
                        if members.len() == replication {
                            break;
                        }
                    }
                }
                ShardInfo { members, view: 0 }
            })
            .collect();
        ShardMap {
            epoch,
            nodes,
            shards,
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    pub fn shard(&self, s: u32) -> &ShardInfo {
        &self.shards[s as usize]
    }

    /// Which shard a service name lives on. Placement hashes the
    /// name's case fold — the one [`wsp_uddi::fold`] that matching and
    /// the registry's name index use — so every spelling that an exact
    /// query matches lands on the shard that query is routed to.
    pub fn shard_of(&self, name: &str) -> u32 {
        let mut utf8 = [0u8; 4];
        let hash = wsp_uddi::fold(name).fold(fnv1a(&[]), |hash, c| {
            fnv1a_fold(hash, c.encode_utf8(&mut utf8).as_bytes())
        });
        (hash % self.shards.len() as u64) as u32
    }

    /// Full route for a service name.
    pub fn route(&self, name: &str) -> Route {
        let shard = self.shard_of(name);
        let info = self.shard(shard);
        let primary = info.primary();
        Route {
            shard,
            primary,
            backups: info
                .members
                .iter()
                .copied()
                .filter(|&m| m != primary)
                .collect(),
        }
    }

    /// A copy with shard `s` moved to `view`, stamped as a new epoch.
    /// This is the `ShardMapChanged` bump clients invalidate on.
    pub fn with_view(&self, s: u32, view: u32) -> ShardMap {
        let mut next = self.clone();
        next.shards[s as usize].view = view;
        next.epoch += 1;
        next
    }

    /// Serialize for the `get_shardMap` response.
    pub fn to_element(&self) -> Element {
        let mut e = Element::new(REGISTRY_NS, "shardMap");
        e.set_attribute(QName::local("epoch"), self.epoch.to_string());
        for (id, endpoint) in self.nodes.iter().enumerate() {
            e.push_element(
                Element::build(REGISTRY_NS, "node")
                    .attr_str("id", id.to_string())
                    .attr_str("endpoint", endpoint.clone())
                    .finish(),
            );
        }
        for (id, shard) in self.shards.iter().enumerate() {
            let members = shard
                .members
                .iter()
                .map(|m| m.to_string())
                .collect::<Vec<_>>()
                .join(",");
            e.push_element(
                Element::build(REGISTRY_NS, "shard")
                    .attr_str("id", id.to_string())
                    .attr_str("view", shard.view.to_string())
                    .attr_str("members", members)
                    .finish(),
            );
        }
        e
    }

    /// Read a map back: `None` unless every part of it parses, node and
    /// shard ids each run 0..n, and every member names a listed node — a
    /// client indexes its endpoints by member.
    pub fn from_element(e: &Element) -> Option<ShardMap> {
        let epoch = e.attribute_local("epoch")?.parse().ok()?;
        let mut nodes: Vec<(usize, String)> = e
            .find_all(REGISTRY_NS, "node")
            .map(|n| {
                Some((
                    n.attribute_local("id")?.parse().ok()?,
                    n.attribute_local("endpoint")?.to_owned(),
                ))
            })
            .collect::<Option<_>>()?;
        nodes.sort_by_key(|(id, _)| *id);
        let mut shards: Vec<(usize, ShardInfo)> = e
            .find_all(REGISTRY_NS, "shard")
            .map(|s| {
                let id = s.attribute_local("id")?.parse().ok()?;
                let view = s.attribute_local("view")?.parse().ok()?;
                let members = s
                    .attribute_local("members")?
                    .split(',')
                    .map(|m| m.parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .ok()?;
                Some((id, ShardInfo { members, view }))
            })
            .collect::<Option<_>>()?;
        shards.sort_by_key(|(id, _)| *id);
        if nodes.is_empty()
            || shards.is_empty()
            || !nodes.iter().map(|(id, _)| *id).eq(0..nodes.len())
            || !shards.iter().map(|(id, _)| *id).eq(0..shards.len())
            || shards
                .iter()
                .any(|(_, s)| s.members.iter().any(|&m| m >= nodes.len()))
        {
            return None;
        }
        Some(ShardMap {
            epoch,
            nodes: nodes.into_iter().map(|(_, ep)| ep).collect(),
            shards: shards.into_iter().map(|(_, s)| s).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoints(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("node-{i}")).collect()
    }

    #[test]
    fn replica_sets_are_distinct_and_full() {
        let map = ShardMap::build(endpoints(5), 8, 3, 0);
        for s in 0..8 {
            let info = map.shard(s);
            assert_eq!(info.members.len(), 3);
            let mut sorted = info.members.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "members must be distinct");
        }
    }

    #[test]
    fn placement_spreads_shards_across_the_cluster() {
        // Regression: raw FNV tokens once put all four shards on the
        // identical three nodes of a six-node cluster, so two crashes
        // took out every shard's quorum at once. Placement must spread:
        // distinct replica sets, more than `replication` distinct nodes
        // carrying load, and no single node belonging to every shard's
        // failure domain.
        let map = ShardMap::build(endpoints(6), 4, 3, 0);
        let sets: Vec<Vec<usize>> = (0..4).map(|s| map.shard(s).members.clone()).collect();
        assert!(
            sets.iter().any(|m| m != &sets[0]),
            "all shards on one replica set: {sets:?}"
        );
        let mut load = vec![0usize; 6];
        for set in &sets {
            for &m in set {
                load[m] += 1;
            }
        }
        let carriers = load.iter().filter(|&&c| c > 0).count();
        assert!(
            carriers > 3,
            "only {carriers} of 6 nodes carry shards: {load:?}"
        );
        assert!(
            load.iter().all(|&c| c < 4),
            "one node is in every shard's replica set: {load:?}"
        );
    }

    #[test]
    fn routing_is_stable_and_covers_all_shards() {
        let map = ShardMap::build(endpoints(4), 8, 3, 0);
        let mut seen = [false; 8];
        for i in 0..256 {
            let name = format!("Service{i}");
            let a = map.route(&name);
            let b = map.route(&name);
            assert_eq!(a, b);
            seen[a.shard as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "256 names should hit all 8 shards");
    }

    #[test]
    fn placement_ignores_case_like_matching_does() {
        let map = ShardMap::build(endpoints(4), 8, 3, 0);
        for name in ["EchoService", "ÉCHO service", "x%Y", "İstanbul"] {
            assert_eq!(map.shard_of(name), map.shard_of(&name.to_lowercase()));
        }
        assert_eq!(map.shard_of("ECHOSERVICE"), map.shard_of("echoService"));
        // An already-folded ASCII name hashes as its bytes: the fold
        // streams through the same FNV-1a the ring uses.
        assert_eq!(
            map.shard_of("echo"),
            (fnv1a(b"echo") % map.shard_count() as u64) as u32
        );
    }

    #[test]
    fn removing_a_node_only_remaps_its_own_shards() {
        let five = ShardMap::build(endpoints(5), 16, 3, 0);
        // Drop node 4 by rebuilding with the same labels minus one.
        let four = ShardMap::build(endpoints(4), 16, 3, 1);
        let mut moved = 0;
        for s in 0..16 {
            let before = &five.shard(s).members;
            let after = &four.shard(s).members;
            if before.contains(&4) {
                // Its replacement set must keep the surviving members.
                for m in before.iter().filter(|&&m| m != 4) {
                    assert!(after.contains(m), "shard {s} lost survivor {m}");
                }
                moved += 1;
            } else {
                assert_eq!(before, after, "shard {s} moved without cause");
            }
        }
        assert!(moved > 0, "node 4 should have owned something");
    }

    #[test]
    fn view_bump_changes_primary_and_epoch() {
        let map = ShardMap::build(endpoints(3), 4, 3, 7);
        let info = map.shard(1);
        let old_primary = info.primary();
        let bumped = map.with_view(1, info.view + 1);
        assert_eq!(bumped.epoch(), 8);
        assert_ne!(bumped.shard(1).primary(), old_primary);
        assert_eq!(bumped.shard(0), map.shard(0));
    }

    #[test]
    fn xml_round_trip() {
        let map = ShardMap::build(endpoints(3), 4, 2, 42).with_view(2, 1);
        let parsed = ShardMap::from_element(&map.to_element()).unwrap();
        assert_eq!(parsed, map);
    }

    /// A map a client cannot route by is refused: ids with gaps or
    /// twins, a member naming no listed node, a part that does not parse.
    #[test]
    fn a_map_with_gaps_or_strangers_is_refused() {
        let map = ShardMap::build(endpoints(3), 4, 2, 42).to_element();
        let edits: [(&str, &str, &str, &str); 5] = [
            ("node", "id", "2", "5"),
            ("node", "id", "2", "1"),
            ("shard", "id", "3", "7"),
            ("shard", "members", "", "0,9"),
            ("node", "id", "2", "two"),
        ];
        for (local, attribute, from, to) in edits {
            let mut odd = map.clone();
            let target = (odd.children_mut().iter_mut())
                .filter_map(|c| match c {
                    wsp_xml::Node::Element(e) if e.name().is(REGISTRY_NS, local) => Some(e),
                    _ => None,
                })
                .find(|e| from.is_empty() || e.attribute_local(attribute) == Some(from))
                .expect("the edited element is in the map");
            target.set_attribute(QName::local(attribute), to);
            assert_eq!(
                ShardMap::from_element(&odd),
                None,
                "{local} {attribute}={to}"
            );
        }
        assert!(ShardMap::from_element(&map).is_some());
    }

    #[test]
    fn failover_order_leads_with_primary() {
        let map = ShardMap::build(endpoints(3), 4, 3, 0);
        let info = map.shard(0);
        let order = info.failover_order();
        assert_eq!(order[0], info.primary());
        assert_eq!(order.len(), 3);
    }
}
