//! Seeded input generators. `--seed` drives every payload, key choice
//! and read/write coin; the programs under test see only the bytes
//! produced here. Each of the two clients owns one generator, so the
//! request stream of a client is a function of `(seed, client)` alone
//! and [`inputs_digest`] can replay it after the run.

use std::fmt::Write as _;

/// Closed-loop client threads in every workload.
pub const CLIENTS: usize = 2;

/// Ops per client folded into [`inputs_digest`] (10 000 in total).
pub const DIGEST_OPS_PER_CLIENT: usize = 5_000;

pub const SMALL_PAYLOAD: usize = 64;
pub const LARGE_PAYLOAD: usize = 16_384;
/// Pre-generated large payloads a client draws from.
pub const LARGE_POOL: usize = 64;
/// Distinct request bodies of `gateway_hit`; below the gateway's
/// default `response_capacity` of 256.
pub const HOT_SET: usize = 64;
/// Services pre-loaded into the discovery plane for `discovery_mix`.
pub const DISCOVERY_SERVICES: usize = 1_000;
/// Share of `discovery_mix` ops that publish.
pub const DISCOVERY_WRITE_RATIO: f64 = 0.10;

/// SplitMix64: tiny, seedable, and good enough to pick payload bytes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent streams for the same seed differ in `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for
    /// the small `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Incremental FNV-1a (64-bit), the same hash `wsp_gateway::fnv1a`
/// computes; kept here so the generators depend on no program crate.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.fold(bytes);
    h.finish()
}

/// Zipf(s = 1.0) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / rank as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

// ---------------------------------------------------------------------------
// Op ids and the tag that carries them inside a request
// ---------------------------------------------------------------------------

/// Length of [`op_tag`].
pub const TAG_LEN: usize = 16;

/// Op ids are unique per run: client in the top bits, a sequence
/// number starting at 1 below. 0 means "no op known".
pub fn op_id(client: usize, seq: u64) -> u64 {
    ((client as u64 + 1) << 48) | (seq & 0xffff_ffff_ffff)
}

/// `#<14 hex digits>#`: the op id as it travels inside a payload, so a
/// handler on a server thread can name the op it is serving. Contains
/// no character XML escapes.
pub fn op_tag(op: u64) -> [u8; TAG_LEN] {
    let mut tag = [b'#'; TAG_LEN];
    for (i, slot) in tag[1..15].iter_mut().enumerate() {
        let nibble = (op >> (4 * (13 - i))) & 0xf;
        *slot = b"0123456789abcdef"[nibble as usize];
    }
    tag
}

/// The op id of the first [`op_tag`] in `bytes`, or 0.
pub fn find_op_tag(bytes: &[u8]) -> u64 {
    let mut from = 0;
    while let Some(at) = bytes[from..].iter().position(|&b| b == b'#') {
        let start = from + at;
        if let Some(tag) = bytes.get(start..start + TAG_LEN) {
            if tag[15] == b'#' {
                if let Some(op) = std::str::from_utf8(&tag[1..15])
                    .ok()
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                {
                    return op;
                }
            }
        }
        from = start + 1;
    }
    0
}

// ---------------------------------------------------------------------------
// Payload text
// ---------------------------------------------------------------------------

const PLAIN: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
const SPECIAL: &[u8] = b"<>&\"'";

/// Append `len` characters; `special_per_mille` of them (on average)
/// come from `<>&"'`, which the XML layer must escape on the way out
/// and unescape on the way in.
fn push_text(out: &mut String, rng: &mut Rng, len: usize, special_per_mille: usize) {
    for _ in 0..len {
        let r = rng.next_u64();
        let byte = if ((r >> 40) % 1000) < special_per_mille as u64 {
            SPECIAL[(r % SPECIAL.len() as u64) as usize]
        } else {
            PLAIN[(r % PLAIN.len() as u64) as usize]
        };
        out.push(byte as char);
    }
}

fn tagged_text(rng: &mut Rng, op: u64, len: usize) -> String {
    let mut text = String::with_capacity(len);
    text.push_str(std::str::from_utf8(&op_tag(op)).expect("tag is ASCII"));
    push_text(&mut text, rng, len - TAG_LEN, 0);
    text
}

// ---------------------------------------------------------------------------
// Echo payloads (invoke_small, invoke_large, p2ps_invoke, lifecycle)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadSize {
    Small,
    Large,
}

/// One echo request: the op id and the string to send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EchoInput {
    pub op: u64,
    pub payload: String,
}

pub struct EchoGen {
    rng: Rng,
    client: usize,
    seq: u64,
    /// Empty for small payloads, which are generated fresh per op.
    pool: Vec<String>,
}

impl EchoGen {
    pub fn new(seed: u64, client: usize, size: PayloadSize) -> EchoGen {
        let mut rng = Rng::new(seed, 0x1000 + client as u64);
        let pool = match size {
            PayloadSize::Small => Vec::new(),
            PayloadSize::Large => (0..LARGE_POOL)
                .map(|_| {
                    let mut text = String::with_capacity(LARGE_PAYLOAD);
                    push_text(&mut text, &mut rng, LARGE_PAYLOAD, 30);
                    text
                })
                .collect(),
        };
        EchoGen {
            rng,
            client,
            seq: 0,
            pool,
        }
    }

    pub fn next_input(&mut self) -> EchoInput {
        self.seq += 1;
        let op = op_id(self.client, self.seq);
        let payload = if self.pool.is_empty() {
            tagged_text(&mut self.rng, op, SMALL_PAYLOAD)
        } else {
            // A pooled string with the op tag stamped over its first
            // bytes: the payload stays 16 KiB with ~3 % specials.
            let mut text = self.pool[self.rng.below(LARGE_POOL)].clone();
            text.replace_range(
                ..TAG_LEN,
                std::str::from_utf8(&op_tag(op)).expect("tag is ASCII"),
            );
            text
        };
        EchoInput { op, payload }
    }
}

// ---------------------------------------------------------------------------
// Gateway request bodies (gateway_miss, gateway_hit)
// ---------------------------------------------------------------------------

/// Namespace of the bench-owned backend service.
pub const BENCH_NS: &str = "urn:wspeer:bench";

const SOAP_OPEN: &str = "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\">\
<env:Body><b:ask xmlns:b=\"urn:wspeer:bench\">";
const SOAP_CLOSE: &str = "</b:ask></env:Body></env:Envelope>";
const REPLY_OPEN: &str = "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\">\
<env:Body><b:reply xmlns:b=\"urn:wspeer:bench\">ack-";
const REPLY_CLOSE: &str = "</b:reply></env:Body></env:Envelope>";

/// The SOAP 1.2 request a client sends through the gateway: one `ask`
/// element whose text is `text`.
pub fn gateway_body(text: &str) -> Vec<u8> {
    let mut body = Vec::with_capacity(SOAP_OPEN.len() + text.len() + SOAP_CLOSE.len());
    body.extend_from_slice(SOAP_OPEN.as_bytes());
    body.extend_from_slice(text.as_bytes());
    body.extend_from_slice(SOAP_CLOSE.as_bytes());
    body
}

/// The reply a backend deterministically gives to `request` — what the
/// bench-owned backend handler sends and what a client checks against,
/// byte for byte.
pub fn backend_reply(request: &[u8]) -> Vec<u8> {
    let mut reply = String::with_capacity(REPLY_OPEN.len() + 16 + REPLY_CLOSE.len());
    reply.push_str(REPLY_OPEN);
    let _ = write!(reply, "{:016x}", fnv1a(request));
    reply.push_str(REPLY_CLOSE);
    reply.into_bytes()
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayInput {
    pub op: u64,
    /// `t0` or `t1`, sent as `X-WSP-Tenant`.
    pub tenant: &'static str,
    pub body: Vec<u8>,
}

pub struct GatewayGen {
    rng: Rng,
    client: usize,
    seq: u64,
    /// The hot set of `gateway_hit`; empty for `gateway_miss`, whose
    /// bodies are unique (they carry the op tag).
    hot: Vec<Vec<u8>>,
}

impl GatewayGen {
    pub fn new(seed: u64, client: usize, hot_set: bool) -> GatewayGen {
        let hot = if hot_set {
            // One hot set for both clients: stream number without the
            // client in it.
            let mut shared = Rng::new(seed, 0x2fff);
            (0..HOT_SET)
                .map(|_| {
                    let mut text = String::with_capacity(SMALL_PAYLOAD);
                    push_text(&mut text, &mut shared, SMALL_PAYLOAD, 0);
                    gateway_body(&text)
                })
                .collect()
        } else {
            Vec::new()
        };
        GatewayGen {
            rng: Rng::new(seed, 0x2000 + client as u64),
            client,
            seq: 0,
            hot,
        }
    }

    pub fn next_input(&mut self) -> GatewayInput {
        self.seq += 1;
        let op = op_id(self.client, self.seq);
        let body = if self.hot.is_empty() {
            gateway_body(&tagged_text(&mut self.rng, op, SMALL_PAYLOAD))
        } else {
            self.hot[self.rng.below(HOT_SET)].clone()
        };
        GatewayInput {
            op,
            tenant: ["t0", "t1"][self.client % 2],
            body,
        }
    }
}

// ---------------------------------------------------------------------------
// Lifecycle cycles
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifecycleInput {
    pub op: u64,
    /// `Svc-{client}-{i}`: deployed, published, located, invoked once
    /// and undeployed within the op.
    pub service: String,
    pub payload: String,
}

pub struct LifecycleGen {
    rng: Rng,
    client: usize,
    seq: u64,
}

impl LifecycleGen {
    pub fn new(seed: u64, client: usize) -> LifecycleGen {
        LifecycleGen {
            rng: Rng::new(seed, 0x3000 + client as u64),
            client,
            seq: 0,
        }
    }

    pub fn next_input(&mut self) -> LifecycleInput {
        self.seq += 1;
        let op = op_id(self.client, self.seq);
        LifecycleInput {
            op,
            service: format!("Svc-{}-{}", self.client, self.seq),
            payload: tagged_text(&mut self.rng, op, SMALL_PAYLOAD),
        }
    }
}

// ---------------------------------------------------------------------------
// Discovery mix
// ---------------------------------------------------------------------------

/// Name of the pre-loaded service at Zipf rank `rank`.
pub fn discovery_name(rank: usize) -> String {
    format!("svc-{rank:04}")
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscoveryInput {
    /// `locate(by_name(discovery_name(rank)))`.
    Locate { op: u64, rank: usize },
    /// Re-publish the record at `rank` with this access point.
    Publish {
        op: u64,
        rank: usize,
        access_point: String,
    },
}

pub struct DiscoveryGen {
    rng: Rng,
    zipf: Zipf,
    client: usize,
    seq: u64,
}

impl DiscoveryGen {
    pub fn new(seed: u64, client: usize) -> DiscoveryGen {
        DiscoveryGen {
            rng: Rng::new(seed, 0x4000 + client as u64),
            zipf: Zipf::new(DISCOVERY_SERVICES),
            client,
            seq: 0,
        }
    }

    pub fn next_input(&mut self) -> DiscoveryInput {
        self.seq += 1;
        let op = op_id(self.client, self.seq);
        let rank = self.zipf.sample(&mut self.rng);
        if self.rng.unit() < DISCOVERY_WRITE_RATIO {
            DiscoveryInput::Publish {
                op,
                rank,
                access_point: format!(
                    "http://10.{}.{}.{}:8080/{}",
                    self.client,
                    self.rng.below(256),
                    self.rng.below(256),
                    discovery_name(rank)
                ),
            }
        } else {
            DiscoveryInput::Locate { op, rank }
        }
    }
}

// ---------------------------------------------------------------------------
// Digest of the generated request stream
// ---------------------------------------------------------------------------

/// FNV-1a over the first 10 000 generated requests of `workload`
/// (client 0's first 5 000, then client 1's). Same seed, same digest.
pub fn inputs_digest(workload: &str, seed: u64) -> Option<u64> {
    let mut h = Fnv::default();
    for client in 0..CLIENTS {
        match workload {
            "invoke_small" | "invoke_large" | "p2ps_invoke" => {
                let size = if workload == "invoke_large" {
                    PayloadSize::Large
                } else {
                    PayloadSize::Small
                };
                let mut gen = EchoGen::new(seed, client, size);
                for _ in 0..DIGEST_OPS_PER_CLIENT {
                    h.fold(gen.next_input().payload.as_bytes());
                }
            }
            "gateway_miss" | "gateway_hit" => {
                let mut gen = GatewayGen::new(seed, client, workload == "gateway_hit");
                for _ in 0..DIGEST_OPS_PER_CLIENT {
                    let input = gen.next_input();
                    h.fold(input.tenant.as_bytes());
                    h.fold(&input.body);
                }
            }
            "lifecycle" => {
                let mut gen = LifecycleGen::new(seed, client);
                for _ in 0..DIGEST_OPS_PER_CLIENT {
                    let input = gen.next_input();
                    h.fold(input.service.as_bytes());
                    h.fold(input.payload.as_bytes());
                }
            }
            "discovery_mix" => {
                let mut gen = DiscoveryGen::new(seed, client);
                for _ in 0..DIGEST_OPS_PER_CLIENT {
                    match gen.next_input() {
                        DiscoveryInput::Locate { rank, .. } => {
                            h.fold(b"L");
                            h.fold(discovery_name(rank).as_bytes());
                        }
                        DiscoveryInput::Publish {
                            rank, access_point, ..
                        } => {
                            h.fold(b"P");
                            h.fold(discovery_name(rank).as_bytes());
                            h.fold(access_point.as_bytes());
                        }
                    }
                }
            }
            _ => return None,
        }
    }
    Some(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        for w in WORKLOADS {
            let a = inputs_digest(w.name, 2005).unwrap();
            assert_eq!(a, inputs_digest(w.name, 2005).unwrap(), "{}", w.name);
            assert_ne!(a, inputs_digest(w.name, 7).unwrap(), "{}", w.name);
        }
        assert_eq!(inputs_digest("no_such_workload", 1), None);
    }

    #[test]
    fn op_tag_round_trips_and_is_found_inside_a_body() {
        let op = op_id(1, 0x1234_5678_9abc);
        let tag = op_tag(op);
        assert_eq!(tag.len(), TAG_LEN);
        assert_eq!(find_op_tag(&tag), op);
        let body = gateway_body(&format!("{}rest", std::str::from_utf8(&tag).unwrap()));
        assert_eq!(find_op_tag(&body), op);
        assert_eq!(find_op_tag(b"no tag # here # at all"), 0);
        assert_eq!(find_op_tag(b""), 0);
    }

    #[test]
    fn payloads_have_the_stated_sizes_and_special_share() {
        let mut small = EchoGen::new(1, 0, PayloadSize::Small);
        let a = small.next_input();
        let b = small.next_input();
        assert_eq!(a.payload.len(), SMALL_PAYLOAD);
        assert_ne!(a.payload, b.payload, "small payloads are unique");
        assert_eq!(find_op_tag(a.payload.as_bytes()), a.op);

        let mut large = EchoGen::new(1, 1, PayloadSize::Large);
        let input = large.next_input();
        assert_eq!(input.payload.len(), LARGE_PAYLOAD);
        assert_eq!(find_op_tag(input.payload.as_bytes()), input.op);
        let specials = input
            .payload
            .bytes()
            .filter(|b| SPECIAL.contains(b))
            .count();
        let share = specials as f64 / LARGE_PAYLOAD as f64;
        assert!((0.02..0.04).contains(&share), "special share {share}");
    }

    #[test]
    fn gateway_hot_set_is_shared_and_bounded() {
        let mut c0 = GatewayGen::new(9, 0, true);
        let mut c1 = GatewayGen::new(9, 1, true);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2_000 {
            seen.insert(c0.next_input().body);
            seen.insert(c1.next_input().body);
        }
        assert_eq!(seen.len(), HOT_SET);
        let mut miss = GatewayGen::new(9, 0, false);
        let (a, b) = (miss.next_input(), miss.next_input());
        assert_ne!(a.body, b.body);
        assert!((190..260).contains(&a.body.len()), "{}", a.body.len());
        assert_eq!(find_op_tag(&a.body), a.op);
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1000);
        let mut rng = Rng::new(3, 0);
        let mut first = 0;
        for _ in 0..20_000 {
            let r = zipf.sample(&mut rng);
            assert!(r < 1000);
            first += usize::from(r == 0);
        }
        // H(1000) ≈ 7.485, so rank 0 draws ≈ 13.4 % of the samples.
        let share = first as f64 / 20_000.0;
        assert!((0.12..0.15).contains(&share), "rank-0 share {share}");
    }

    #[test]
    fn discovery_mix_writes_about_one_in_ten() {
        let mut gen = DiscoveryGen::new(5, 0);
        let writes = (0..20_000)
            .filter(|_| matches!(gen.next_input(), DiscoveryInput::Publish { .. }))
            .count();
        let share = writes as f64 / 20_000.0;
        assert!((0.09..0.11).contains(&share), "write share {share}");
    }

    #[test]
    fn backend_reply_depends_on_every_request_byte() {
        let a = backend_reply(b"abc");
        assert_eq!(a, backend_reply(b"abc"));
        assert_ne!(a, backend_reply(b"abd"));
        assert!(a.starts_with(REPLY_OPEN.as_bytes()));
    }
}
