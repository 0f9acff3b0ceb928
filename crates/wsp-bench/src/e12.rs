//! E12 — the zero-copy wire path A/B: the pre-PR-5 stack (vendored in
//! full as [`crate::e12_legacy`]) versus the pooled single-pass fast
//! path.
//!
//! Three measurements. **Latency**: encode and decode ns-per-envelope,
//! ABBA-interleaved like E10 so both modes sample the same allocator
//! and scheduler conditions. **Allocations**: heap allocations per
//! encode+decode round trip, counted by [`crate::alloc_count`] when the
//! harness binary installs it. **End-to-end**: invoke p50/p99 over the
//! real HTTP loopback (E7's rig), to confirm the micro-level win does
//! not regress the full pipeline.
//!
//! The legacy mode actually *runs* the old code, not an approximation:
//! the owning tokenizer/reader (a `String` per name, text, and
//! attribute), the `Cow`-of-`String` qualified names, and the two-pass
//! writer with per-tag temporaries, all driven the way the old
//! `Envelope::{to_xml, from_xml}` drove them — a fresh codec per call,
//! no pooling. [`LegacyEnvelope`] replicates the old `wsp-soap`
//! envelope ⇄ element conversion line for line on the vendored types,
//! so both its allocation profile (payload deep-clone per encode and
//! per decode) and its output bytes match the previous commit.

use crate::alloc_count;
use crate::common::{mean, percentile_f64};
use crate::e12_legacy as legacy;
use crate::e6;
use crate::e7::{self, E7Row};
use std::hint::black_box;
use std::time::Instant;
use wsp_soap::{Envelope, SOAP_ENV_NS, WSA_NS};

/// The writer configuration the old `SoapCodec::new` built per codec.
fn legacy_config() -> legacy::writer::WriterConfig {
    legacy::writer::WriterConfig::wire()
        .prefer(SOAP_ENV_NS, "env")
        .prefer(WSA_NS, "wsa")
}

/// Deep-convert a current element tree into the vendored legacy tree
/// model. Used once per corpus entry, outside any timed region.
pub fn to_legacy_element(e: &wsp_xml::Element) -> legacy::tree::Element {
    let mut out = legacy::tree::Element::with_name(legacy::name::QName::new(
        e.name().namespace().to_owned(),
        e.name().local_name().to_owned(),
    ));
    for a in e.attributes() {
        out.set_attribute(
            legacy::name::QName::new(
                a.name.namespace().to_owned(),
                a.name.local_name().to_owned(),
            ),
            a.value.clone(),
        );
    }
    for child in e.children() {
        let node = match child {
            wsp_xml::Node::Element(el) => legacy::tree::Node::Element(to_legacy_element(el)),
            wsp_xml::Node::Text(t) => legacy::tree::Node::Text(t.clone()),
            wsp_xml::Node::CData(t) => legacy::tree::Node::CData(t.clone()),
            wsp_xml::Node::Comment(t) => legacy::tree::Node::Comment(t.clone()),
            wsp_xml::Node::ProcessingInstruction { target, data } => {
                legacy::tree::Node::ProcessingInstruction {
                    target: target.clone(),
                    data: data.clone(),
                }
            }
        };
        out.children_mut().push(node);
    }
    out
}

/// The old `wsp-soap` envelope, rebuilt on the vendored tree model.
/// `to_element` and the decode replica below follow the pre-PR-5
/// source line for line, so each call performs the same allocations
/// the old stack performed.
pub struct LegacyEnvelope {
    /// `(element, must_understand, role)` — the old `HeaderBlock`.
    pub headers: Vec<(legacy::tree::Element, bool, Option<String>)>,
    pub payload: Option<legacy::tree::Element>,
}

impl LegacyEnvelope {
    /// The header blocks are read off [`Envelope::to_element`], which
    /// renders the WS-Addressing headers as blocks too.
    pub fn from_current(envelope: &Envelope) -> Self {
        let tree = envelope.to_element();
        let header = tree.find(SOAP_ENV_NS, "Header");
        LegacyEnvelope {
            headers: (header.into_iter().flat_map(|h| h.child_elements()))
                .map(|e| {
                    let must_understand =
                        e.attribute(SOAP_ENV_NS, "mustUnderstand") == Some("true");
                    let role = e.attribute(SOAP_ENV_NS, "role").map(str::to_owned);
                    let mut element = to_legacy_element(e);
                    legacy_strip_env_attrs(&mut element);
                    (element, must_understand, role)
                })
                .collect(),
            payload: envelope.payload().map(to_legacy_element),
        }
    }

    /// Replica of the old `Envelope::to_element`: fresh shell, payload
    /// and headers deep-cloned into it.
    pub fn to_element(&self) -> legacy::tree::Element {
        let mut envelope = legacy::tree::Element::new(SOAP_ENV_NS, "Envelope");
        if !self.headers.is_empty() {
            let mut header = legacy::tree::Element::new(SOAP_ENV_NS, "Header");
            for (element, must_understand, role) in &self.headers {
                let mut e = element.clone();
                if *must_understand {
                    e.set_attribute(
                        legacy::name::QName::new(SOAP_ENV_NS, "mustUnderstand"),
                        "true",
                    );
                }
                if let Some(role) = role {
                    e.set_attribute(legacy::name::QName::new(SOAP_ENV_NS, "role"), role.clone());
                }
                header.push_element(e);
            }
            envelope.push_element(header);
        }
        let mut body = legacy::tree::Element::new(SOAP_ENV_NS, "Body");
        if let Some(p) = &self.payload {
            body.push_element(p.clone());
        }
        envelope.push_element(body);
        envelope
    }
}

/// Encode the way the pre-PR-5 `Envelope::to_xml` did: a fresh codec
/// (fresh config, fresh writer, fresh output `String`) per call, with
/// `to_element` deep-cloning the payload into the shell first.
pub fn legacy_encode(envelope: &LegacyEnvelope) -> String {
    let mut writer = legacy::writer::Writer::new(legacy_config());
    writer.write(&envelope.to_element())
}

/// Replica of the old `strip_env_attrs`: rebuild the element minus
/// `env:*` attributes (a second round of clones).
fn legacy_strip_env_attrs(element: &mut legacy::tree::Element) {
    let keep: Vec<_> = element
        .attributes()
        .iter()
        .filter(|a| a.name.namespace() != SOAP_ENV_NS)
        .cloned()
        .collect();
    let mut stripped = legacy::tree::Element::with_name(element.name().clone());
    for a in keep {
        stripped.set_attribute(a.name, a.value);
    }
    *stripped.children_mut() = element.children().to_vec();
    *element = stripped;
}

/// Decode the way the pre-PR-5 `Envelope::from_xml` did: the owning
/// reader builds a fully owned tree, then `from_element` deep-clones
/// the headers and the payload out of it.
pub fn legacy_decode(xml: &str) -> LegacyEnvelope {
    let root = legacy::reader::parse(xml).expect("legacy parse");
    assert!(
        root.name().is(SOAP_ENV_NS, "Envelope"),
        "legacy decode: not an envelope"
    );
    let mut headers = Vec::new();
    if let Some(header) = root.find(SOAP_ENV_NS, "Header") {
        for e in header.child_elements() {
            let must_understand = matches!(
                e.attribute(SOAP_ENV_NS, "mustUnderstand"),
                Some("true") | Some("1")
            );
            let role = e.attribute(SOAP_ENV_NS, "role").map(str::to_owned);
            let mut element = e.clone();
            legacy_strip_env_attrs(&mut element);
            headers.push((element, must_understand, role));
        }
    }
    let body = root.find(SOAP_ENV_NS, "Body").expect("legacy decode: body");
    // Fault bodies are not in the E12 corpus; the old code's fault
    // sniff was a name check before the payload clone.
    let payload = body
        .child_elements()
        .next()
        .filter(|first| !first.name().is(SOAP_ENV_NS, "Fault"))
        .cloned();
    LegacyEnvelope { headers, payload }
}

/// The corpus: WS-Addressed envelopes at three payload scales, the
/// same family E6 sizes.
pub fn corpus() -> Vec<(&'static str, Envelope)> {
    vec![
        ("small (0 items)", e6::addressed_envelope(0)),
        ("medium (10 items)", e6::addressed_envelope(10)),
        ("large (100 items)", e6::addressed_envelope(100)),
    ]
}

/// One mode's encode/decode latency profile for one corpus entry.
#[derive(Debug, Clone)]
pub struct E12Latency {
    pub corpus: &'static str,
    pub mode: &'static str,
    pub wire_bytes: usize,
    pub encode_mean_ns: f64,
    pub encode_p50_ns: f64,
    pub encode_p99_ns: f64,
    pub decode_mean_ns: f64,
    pub decode_p50_ns: f64,
    pub decode_p99_ns: f64,
}

/// Allocations per encode+decode round trip for one corpus entry.
#[derive(Debug, Clone)]
pub struct E12Allocs {
    pub corpus: &'static str,
    /// False when the counting allocator is not installed (library
    /// test binaries) — the counts are then meaningless zeros.
    pub counted: bool,
    pub legacy_allocs: f64,
    pub fast_allocs: f64,
    /// legacy / fast; the acceptance target is ≥ 2.
    pub ratio: f64,
}

fn fast_encode_into(envelope: &Envelope, buf: &mut Vec<u8>) {
    buf.clear();
    envelope.to_xml_into(buf);
}

/// One interleaved pass over both modes: `calls` encode and decode
/// timings each, in ABBA-ordered batches of 50 (see E10 for why).
fn ab_pass(
    envelope: &Envelope,
    lenv: &LegacyEnvelope,
    wire: &str,
    calls: usize,
) -> [(Vec<f64>, Vec<f64>); 2] {
    const BATCH: usize = 50;
    let mut enc = [Vec::with_capacity(calls), Vec::with_capacity(calls)];
    let mut dec = [Vec::with_capacity(calls), Vec::with_capacity(calls)];
    let pool = wsp_xml::BufPool::global();
    let mut remaining = calls;
    let mut pair = 0usize;
    while remaining > 0 {
        let batch = BATCH.min(remaining);
        let order = if pair.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        };
        for mode in order {
            for _ in 0..batch {
                if mode == 0 {
                    let start = Instant::now();
                    let out = legacy_encode(lenv);
                    enc[0].push(start.elapsed().as_secs_f64() * 1e9);
                    black_box(out);
                    let start = Instant::now();
                    let env = legacy_decode(wire);
                    dec[0].push(start.elapsed().as_secs_f64() * 1e9);
                    black_box(env);
                } else {
                    let mut buf = pool.take();
                    let start = Instant::now();
                    fast_encode_into(envelope, &mut buf);
                    enc[1].push(start.elapsed().as_secs_f64() * 1e9);
                    black_box(&buf);
                    pool.put(buf);
                    let start = Instant::now();
                    let env = Envelope::from_xml(wire).expect("fast decode");
                    dec[1].push(start.elapsed().as_secs_f64() * 1e9);
                    black_box(env);
                }
            }
        }
        pair += 1;
        remaining -= batch;
    }
    [
        (std::mem::take(&mut enc[0]), std::mem::take(&mut dec[0])),
        (std::mem::take(&mut enc[1]), std::mem::take(&mut dec[1])),
    ]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[values.len() / 2]
}

/// Encode/decode latency A/B over the corpus: five interleaved passes,
/// element-wise median per mode (E10's estimator). Asserts byte
/// identity between the two stacks on every corpus entry first —
/// a latency comparison of differing outputs would be meaningless.
pub fn latency(calls: usize) -> Vec<E12Latency> {
    const PASSES: usize = 5;
    let mut rows = Vec::new();
    for (name, envelope) in corpus() {
        let lenv = LegacyEnvelope::from_current(&envelope);
        let wire = legacy_encode(&lenv);
        assert_eq!(
            wire.as_bytes(),
            envelope.to_xml_bytes().as_slice(),
            "writers must agree on {name}"
        );
        // Warm-up fills the pool, the thread-local codec, and caches.
        for _ in 0..20 {
            black_box(legacy_encode(&lenv));
            black_box(envelope.to_xml_bytes().len());
            black_box(legacy_decode(&wire));
            black_box(Envelope::from_xml(&wire).expect("warmup"));
        }
        // stats[metric][mode]: metric 0 = encode, 1 = decode.
        let mut stats: [[Vec<(f64, f64, f64)>; 2]; 2] =
            [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
        for _ in 0..PASSES {
            let pass = ab_pass(&envelope, &lenv, &wire, calls);
            for (mode, (enc, dec)) in pass.iter().enumerate() {
                for (metric, samples) in [enc, dec].into_iter().enumerate() {
                    stats[metric][mode].push((
                        mean(samples),
                        percentile_f64(samples, 50.0),
                        percentile_f64(samples, 99.0),
                    ));
                }
            }
        }
        for (mode, label) in [(0usize, "legacy"), (1, "fast")] {
            let pick = |metric: usize, f: fn(&(f64, f64, f64)) -> f64| {
                median(stats[metric][mode].iter().map(f).collect())
            };
            rows.push(E12Latency {
                corpus: name,
                mode: label,
                wire_bytes: wire.len(),
                encode_mean_ns: pick(0, |p| p.0),
                encode_p50_ns: pick(0, |p| p.1),
                encode_p99_ns: pick(0, |p| p.2),
                decode_mean_ns: pick(1, |p| p.0),
                decode_p50_ns: pick(1, |p| p.1),
                decode_p99_ns: pick(1, |p| p.2),
            });
        }
    }
    rows
}

fn allocs_per_call(rounds: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..20 {
        f();
    }
    let before = alloc_count::allocations();
    for _ in 0..rounds {
        f();
    }
    (alloc_count::allocations() - before) as f64 / rounds as f64
}

/// Allocations per encode+decode round trip, legacy vs fast, per
/// corpus entry. Requires the counting allocator to be installed (the
/// harness binary and the alloc-guard test install it); `counted` is
/// false otherwise and the numbers are zeros.
pub fn allocations(rounds: u64) -> Vec<E12Allocs> {
    let counted = alloc_count::is_installed();
    corpus()
        .into_iter()
        .map(|(name, envelope)| {
            let lenv = LegacyEnvelope::from_current(&envelope);
            let legacy_allocs = allocs_per_call(rounds, || {
                black_box(legacy_decode(black_box(&legacy_encode(&lenv))));
            });
            let pool = wsp_xml::BufPool::global();
            let fast_allocs = allocs_per_call(rounds, || {
                let mut buf = pool.take();
                fast_encode_into(&envelope, &mut buf);
                let xml = std::str::from_utf8(&buf).expect("utf8 wire");
                black_box(Envelope::from_xml(xml).expect("fast decode"));
                pool.put(buf);
            });
            E12Allocs {
                corpus: name,
                counted,
                legacy_allocs,
                fast_allocs,
                ratio: if fast_allocs > 0.0 {
                    legacy_allocs / fast_allocs
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect()
}

/// The six codec steps of one P2PS echo, in the order the echo takes
/// them: the consumer writes the request envelope and frames it, the
/// provider unframes and reads it, writes the response, and the
/// consumer reads it. (The response's own `PipeData` frame repeats
/// steps 2 and 3.)
pub const P2PS_STEPS: [&str; 6] = [
    "request write",
    "PipeData encode",
    "PipeData decode",
    "request read",
    "response write",
    "response read",
];

/// One codec step of a P2PS echo: time and heap allocations per call.
#[derive(Debug, Clone)]
pub struct E12Step {
    pub step: &'static str,
    /// The least of the batch means: on a shared guest whose speed
    /// swings, the least is the step's own cost with the least noise.
    pub ns_per_call: f64,
    /// Heap allocations per call; meaningless unless `counted`.
    pub allocs_per_call: f64,
    pub counted: bool,
}

/// The echo `bench/`'s `p2ps_invoke` sends: a 64-byte argument to the
/// provider's `Echo` pipe, with a `ReplyTo` pipe.
struct P2psEcho {
    descriptor: wsp_wsdl::ServiceDescriptor,
    target: wsp_p2ps::PipeAdvertisement,
    headers: wsp_soap::MessageHeaders,
    args: [wsp_wsdl::Value; 1],
}

impl P2psEcho {
    fn new() -> P2psEcho {
        use wsp_p2ps::{PeerId, PipeAdvertisement};
        let target = PipeAdvertisement::new(PeerId(0xBE01), Some("Echo".into()), "echoString");
        let reply = PipeAdvertisement::new(PeerId(0xBE02), None, "return-1");
        P2psEcho {
            descriptor: wsp_wsdl::ServiceDescriptor::echo(),
            headers: wsp_p2ps::with_reply_pipe(wsp_p2ps::request_headers(&target), &reply),
            target,
            args: [wsp_wsdl::Value::string(
                "op-0000000000000001:abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGH",
            )],
        }
    }

    fn write_request(&self, out: &mut Vec<u8>) {
        let (descriptor, headers) = (&self.descriptor, &self.headers);
        wsp_wsdl::proxy::write_request(descriptor, &[], headers, "echoString", &self.args, out)
            .expect("the echo request is well typed");
    }

    /// The request envelope, as a `PipeData` frame carries it.
    fn request(&self) -> String {
        let mut out = Vec::new();
        self.write_request(&mut out);
        String::from_utf8(out).expect("UTF-8")
    }
}

/// [`P2PS_STEPS`] on the echo `bench/`'s `p2ps_invoke` sends (64-byte
/// argument, `ReplyTo` pipe, the provider's response readdressed to
/// it), each step in `passes` batches of 50 calls. The steps take
/// turns batch by batch, in an order that reverses every pass (ABBA,
/// as [`latency`] interleaves its two modes), so all six sample the
/// same allocator and scheduler conditions.
pub fn p2ps_codec_steps(passes: usize) -> Vec<E12Step> {
    use wsp_p2ps::P2psMessage;
    use wsp_wsdl::{proxy, MessageEngine, ServiceHandler, Value};
    const BATCH: usize = 50;
    let echo = P2psEcho::new();
    let P2psEcho {
        descriptor,
        target,
        args,
        ..
    } = &echo;
    let handler: std::sync::Arc<dyn ServiceHandler> =
        std::sync::Arc::new(|_: &str, args: &[Value]| Ok(args[0].clone()));
    let engine = MessageEngine::new(descriptor.clone(), handler);
    // Each step's input is the output of the one before it.
    let request = echo.request();
    let frame = P2psMessage::PipeData {
        to: target.clone(),
        payload: request.clone(),
    };
    let framed = frame.to_xml();
    let typed = engine
        .read_request(&request, &mut |_| {})
        .expect("a request");
    let outcome = engine.call(&typed).expect("echo answers");
    let (_, readdress) = wsp_p2ps::encode_response(&typed.headers).expect("a reply pipe");
    let mut response = Vec::new();
    engine.write_response(&typed, &outcome, Some(&readdress), &mut response);
    let response = String::from_utf8(response).expect("UTF-8");
    assert_eq!(
        proxy::read_response(descriptor, "echoString", &response).as_ref(),
        Ok(&args[0])
    );

    let pool = wsp_xml::BufPool::global();
    let step = |at: usize| match at {
        0 => {
            let mut out = pool.take();
            echo.write_request(&mut out);
            pool.put(black_box(out));
        }
        1 => {
            let mut out = pool.take();
            frame.to_xml_into(&mut out);
            pool.put(black_box(out));
        }
        2 => drop(black_box(P2psMessage::from_xml(black_box(&framed)))),
        3 => drop(black_box(
            engine.read_request(black_box(&request), &mut |_| {}),
        )),
        4 => {
            let mut out = pool.take();
            engine.write_response(&typed, &outcome, Some(&readdress), &mut out);
            pool.put(black_box(out));
        }
        _ => drop(black_box(proxy::read_response(
            descriptor,
            "echoString",
            black_box(&response),
        ))),
    };
    let counted = alloc_count::is_installed();
    let mut least = [f64::INFINITY; 6];
    let mut allocs = [0.0; 6];
    for (at, allocs) in allocs.iter_mut().enumerate() {
        *allocs = allocs_per_call(BATCH as u64, || step(at));
    }
    for pass in 0..passes {
        for turn in 0..P2PS_STEPS.len() {
            let at = match pass % 2 {
                0 => turn,
                _ => P2PS_STEPS.len() - 1 - turn,
            };
            let start = Instant::now();
            for _ in 0..BATCH {
                step(at);
            }
            let ns = start.elapsed().as_secs_f64() * 1e9 / BATCH as f64;
            least[at] = least[at].min(ns);
        }
    }
    (P2PS_STEPS.iter().enumerate())
        .map(|(at, &step)| E12Step {
            step,
            ns_per_call: least[at],
            allocs_per_call: allocs[at],
            counted,
        })
        .collect()
}

/// One input of E12's text-kernel table: ns per call of each kernel,
/// the pre-window one ([`crate::e12_blocks`]) and `wsp_xml::escape`'s.
#[derive(Debug, Clone)]
pub struct E12Kernel {
    pub input: &'static str,
    /// The raw text's length; the expanders read its escaped form.
    pub bytes: usize,
    pub escape_blocks_ns: f64,
    pub escape_windows_ns: f64,
    pub expand_blocks_ns: f64,
    pub expand_windows_ns: f64,
}

/// `len` bytes of text in the shape of `bench/`'s `invoke_large`
/// payload: letters and digits, and `per_mille` of the bytes drawn
/// from `<>&"'`, from a seeded generator.
pub fn payload_text(len: usize, per_mille: u64, seed: u64) -> String {
    const PLAIN: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
    const SPECIAL: &[u8] = b"<>&\"'";
    let mut state = seed;
    (0..len)
        .map(|_| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            let r = z ^ (z >> 31);
            let byte = match (r >> 40) % 1000 < per_mille {
                true => SPECIAL[(r % SPECIAL.len() as u64) as usize],
                false => PLAIN[(r % PLAIN.len() as u64) as usize],
            };
            char::from(byte)
        })
        .collect()
}

/// The texts E12's kernel table escapes: the 16 KiB payload with ~3 %
/// specials, the same length clean, clean but for one `&`, and the
/// P2PS echo's request envelope, as a `PipeData` frame escapes it.
pub fn text_kernel_inputs() -> Vec<(&'static str, String)> {
    let clean = payload_text(16 * 1024, 0, 41);
    let mut one = clean.clone();
    one.replace_range(100..101, "&");
    vec![
        ("16 KiB, 3 % specials", payload_text(16 * 1024, 30, 41)),
        ("16 KiB clean", clean),
        ("16 KiB, one &", one),
        ("P2PS echo request", P2psEcho::new().request()),
    ]
}

/// Escape and expand, each by both kernels, on [`text_kernel_inputs`]:
/// the four take turns batch by batch in an order that reverses every
/// pass (ABBA, as [`p2ps_codec_steps`]), and each reports the least of
/// its `passes` batch means. Asserts first that both kernels write the
/// same bytes and expand to the same text.
pub fn text_kernels(passes: usize) -> Vec<E12Kernel> {
    use crate::e12_blocks as blocks;
    use wsp_xml::escape;
    const BATCH: usize = 50;
    text_kernel_inputs()
        .into_iter()
        .map(|(input, text)| {
            let mut escaped = Vec::new();
            escape::escape_text_into(&text, &mut escaped);
            let mut old = Vec::new();
            blocks::escape_text_into(&text, &mut old);
            assert_eq!(escaped, old, "the escapers differ on {input}");
            let escaped = String::from_utf8(escaped).expect("UTF-8");
            let expanded = escape::unescape(&escaped, 0).expect("well-formed");
            assert_eq!(Some(&expanded), blocks::unescape(&escaped).as_ref());
            assert_eq!(expanded, text);
            let mut out = Vec::with_capacity(2 * escaped.len());
            let mut kernel = |at: usize| match at {
                0 => {
                    out.clear();
                    blocks::escape_text_into(black_box(&text), &mut out);
                }
                1 => {
                    out.clear();
                    escape::escape_text_into(black_box(&text), &mut out);
                }
                2 => drop(black_box(blocks::unescape(black_box(&escaped)))),
                _ => drop(black_box(escape::unescape(black_box(&escaped), 0))),
            };
            let mut least = [f64::INFINITY; 4];
            for pass in 0..passes {
                for turn in 0..4 {
                    let at = if pass % 2 == 0 { turn } else { 3 - turn };
                    let start = Instant::now();
                    for _ in 0..BATCH {
                        kernel(at);
                    }
                    let ns = start.elapsed().as_secs_f64() * 1e9 / BATCH as f64;
                    least[at] = least[at].min(ns);
                }
            }
            E12Kernel {
                input,
                bytes: text.len(),
                escape_blocks_ns: least[0],
                escape_windows_ns: least[1],
                expand_blocks_ns: least[2],
                expand_windows_ns: least[3],
            }
        })
        .collect()
}

/// End-to-end invoke latency through the current (fast-path) stack,
/// on E7's real-socket rig — the row EXPERIMENTS.md compares against
/// E7's pre-PR-5 numbers for the no-regression criterion.
pub fn invoke_rows(calls: usize) -> Vec<E7Row> {
    vec![e7::http_rtt(1024, calls), e7::http_pooled_rtt(1024, calls)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_and_fast_stacks_agree_bytewise() {
        for (name, envelope) in corpus() {
            let lenv = LegacyEnvelope::from_current(&envelope);
            let old = legacy_encode(&lenv);
            let new = envelope.to_xml_bytes();
            assert_eq!(old.as_bytes(), new.as_slice(), "{name}");
            // And the decode sides agree on the meaning: the legacy
            // stack's decoded envelope re-encodes to the same bytes
            // the fast stack's decoded envelope re-encodes to.
            let round_old = legacy_encode(&legacy_decode(&old));
            let round_new = Envelope::from_xml(&old).unwrap().to_xml();
            assert_eq!(round_old, round_new, "{name}");
        }
    }

    #[test]
    fn latency_rows_cover_both_modes() {
        let rows = latency(30);
        assert_eq!(rows.len(), corpus().len() * 2);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].mode, "legacy");
            assert_eq!(pair[1].mode, "fast");
            assert_eq!(pair[0].wire_bytes, pair[1].wire_bytes);
            assert!(pair.iter().all(|r| r.encode_p99_ns >= r.encode_p50_ns));
        }
    }

    #[test]
    fn p2ps_step_rows_cover_the_six_steps() {
        let rows = p2ps_codec_steps(2);
        let steps: Vec<_> = rows.iter().map(|r| r.step).collect();
        assert_eq!(steps, P2PS_STEPS);
        assert!(rows.iter().all(|r| r.ns_per_call > 0.0 && !r.counted));
    }

    #[test]
    fn text_kernel_rows_cover_every_input() {
        let rows = text_kernels(2);
        let inputs: Vec<_> = rows.iter().map(|r| r.input).collect();
        let expected: Vec<_> = text_kernel_inputs().iter().map(|(name, _)| *name).collect();
        assert_eq!(inputs, expected);
        assert!(rows
            .iter()
            .all(|r| r.escape_windows_ns > 0.0 && r.expand_windows_ns > 0.0));
        // The payload's shape: ~3 % of its bytes are specials.
        let payload = payload_text(16 * 1024, 30, 41);
        let specials = payload.bytes().filter(|b| b"<>&\"'".contains(b)).count();
        assert!((300..700).contains(&specials), "{specials} specials");
    }

    #[test]
    fn allocation_rows_report_uncounted_without_allocator() {
        // The lib test binary does not install the counting allocator,
        // so the rows must say so rather than claim a 0-alloc miracle.
        let rows = allocations(10);
        assert_eq!(rows.len(), corpus().len());
        assert!(rows.iter().all(|r| !r.counted));
    }
}
