//! Process-wide telemetry: hot-path metrics and correlated tracing.
//!
//! `wsp_simnet::metrics::Summary` sorts a copy of every sample and is
//! explicitly "intended for end-of-run reporting, not hot paths". This
//! module is the hot-path counterpart, shared by every layer from the
//! buffer pool and the reactor up to the bindings and the gateway:
//!
//! * **[`Counter`]** — one relaxed `fetch_add` per event.
//! * **[`Gauge`]** — a level that rises and falls, recorded always.
//! * **[`Histogram`]** — a fixed-size log-bucketed latency histogram
//!   (HdrHistogram-style): values below 16 get exact unit buckets,
//!   larger values get 16 sub-buckets per power of two, so recording is
//!   O(1), memory is constant (976 buckets spanning all of `u64`), the
//!   relative bucket error is ≤ 1/16, and p50/p90/p99 come from a
//!   cumulative scan of a [`HistogramSnapshot`] — no sorting, ever.
//!   Snapshots merge bucket-wise, so per-shard histograms aggregate.
//! * **Spans** — every dispatch job carries a correlation id (the
//!   dispatcher's call token) in a thread-local, restored on unwind.
//!   Stages along an invocation — submit, attempt, breaker transition,
//!   failover, HTTP request, P2PS round trip — append [`TraceEvent`]s
//!   to a bounded ring, so one multi-attempt invocation can be
//!   reconstructed end-to-end from its token alone.
//!
//! The registry is exposed two ways: [`Telemetry::snapshot`] for
//! in-process consumers (`wsp-bench`), and [`render_metrics`] — the
//! plain-text body served on the container-less host's `/metrics`
//! route, keeping with the paper's "the application is its own
//! container" stance (claim C3).
//!
//! Disabling the registry ([`Telemetry::set_enabled`]) reduces every
//! counter, histogram and span record to a single relaxed load, which
//! is what the E10 bench compares against to bound instrumentation
//! overhead.

use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

// --- histogram bucket scheme ------------------------------------------------

/// Sub-bucket resolution: 2^4 = 16 sub-buckets per power of two, giving
/// a worst-case relative bucket width of 1/16 (6.25%).
pub const HISTOGRAM_SUB_BITS: u32 = 4;
const SUB_COUNT: usize = 1 << HISTOGRAM_SUB_BITS;
/// Values below this are their own exact bucket.
const LINEAR_LIMIT: u64 = SUB_COUNT as u64;
/// Total bucket count covering every `u64` value.
pub const HISTOGRAM_BUCKETS: usize = SUB_COUNT + (64 - HISTOGRAM_SUB_BITS as usize) * SUB_COUNT;

/// The bucket a value lands in. O(1): a leading-zeros and some shifts.
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR_LIMIT {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros() as usize;
    let sub = ((value >> (msb - HISTOGRAM_SUB_BITS as usize)) & (SUB_COUNT as u64 - 1)) as usize;
    SUB_COUNT + (msb - HISTOGRAM_SUB_BITS as usize) * SUB_COUNT + sub
}

/// Inclusive `(low, high)` value range of bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUB_COUNT {
        return (index as u64, index as u64);
    }
    let msb = HISTOGRAM_SUB_BITS as usize + (index - SUB_COUNT) / SUB_COUNT;
    let sub = ((index - SUB_COUNT) % SUB_COUNT) as u64;
    let width = 1u64 << (msb - HISTOGRAM_SUB_BITS as usize);
    let low = (1u64 << msb) + sub * width;
    (low, low + (width - 1))
}

// --- counters and histograms ------------------------------------------------

/// A monotonic counter. Handles are cheap to clone and record with one
/// relaxed `fetch_add`; a disabled registry reduces that to one load.
pub struct Counter {
    enabled: Arc<AtomicBool>,
    value: AtomicU64,
}

impl Counter {
    fn new(enabled: Arc<AtomicBool>) -> Counter {
        Counter {
            enabled,
            value: AtomicU64::new(0),
        }
    }

    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A counter of its own: always enabled, in no registry.
impl Default for Counter {
    fn default() -> Counter {
        Counter::new(Arc::new(AtomicBool::new(true)))
    }
}

/// A level that rises and falls. It records whether or not the
/// registry is enabled: a rise counted while its fall is skipped would
/// leave the level wrong for good.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-size log-bucketed histogram; see the module docs for the
/// bucket scheme. All recording is lock-free and O(1).
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new(enabled: Arc<AtomicBool>) -> Histogram {
        let buckets: Vec<AtomicU64> = (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            enabled,
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub fn record(&self, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record the µs from `started` to [`crate::clock::now`].
    pub fn record_since(&self, started: std::time::Instant) {
        self.record((crate::clock::now() - started).as_micros() as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An owned, mergeable copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Bucket-wise merge; percentiles of the merge reflect the union of
    /// the recorded samples.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile over the buckets (the same rule as
    /// `wsp_simnet::metrics::Summary`), answered in one cumulative
    /// scan. The result is the upper bound of the target bucket, so it
    /// is within one bucket width of the exact sorted-sample answer.
    pub fn value_at_percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (((p / 100.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= target {
                return bucket_bounds(index).1.min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.value_at_percentile(50.0)
    }

    pub fn p90(&self) -> u64 {
        self.value_at_percentile(90.0)
    }

    pub fn p99(&self) -> u64 {
        self.value_at_percentile(99.0)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// --- correlation ids --------------------------------------------------------

thread_local! {
    /// The correlation id of the dispatch job running on this thread;
    /// 0 means "no correlated work in progress".
    static CURRENT_CORRELATION: Cell<u64> = const { Cell::new(0) };
}

/// The correlation id active on this thread (0 = none). Set by the
/// dispatcher around job execution and inherited by fire-and-forget
/// jobs, so bindings deep in a call see the originating call token.
pub fn current_correlation() -> u64 {
    CURRENT_CORRELATION.with(|c| c.get())
}

/// RAII guard installing a correlation id on the current thread and
/// restoring the previous one on drop (including unwind), so helping
/// waits that run nested jobs inline never leak ids across jobs.
pub struct CorrelationScope {
    previous: u64,
}

impl CorrelationScope {
    pub fn enter(token: u64) -> CorrelationScope {
        let previous = CURRENT_CORRELATION.with(|c| c.replace(token));
        CorrelationScope { previous }
    }
}

impl Drop for CorrelationScope {
    fn drop(&mut self) {
        CURRENT_CORRELATION.with(|c| c.set(self.previous));
    }
}

// --- trace ------------------------------------------------------------------

/// Maximum bytes of span detail retained per [`TraceEvent`].
pub const DETAIL_CAPACITY: usize = 120;

/// Fixed-capacity inline detail string: recording a span never touches
/// the heap. Details longer than [`DETAIL_CAPACITY`] bytes truncate
/// silently at a character boundary.
#[derive(Clone, Copy)]
pub struct Detail {
    len: u8,
    buf: [u8; DETAIL_CAPACITY],
}

impl Detail {
    fn new() -> Detail {
        Detail {
            len: 0,
            buf: [0; DETAIL_CAPACITY],
        }
    }

    pub fn as_str(&self) -> &str {
        // Writes only ever append whole `str` slices cut at character
        // boundaries, so the prefix is always valid UTF-8.
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }

    /// Append a literal/precomputed piece — a plain bounded memcpy,
    /// bypassing the `core::fmt` machinery entirely. The builder used by
    /// [`Telemetry::span_with`] on per-call hot paths, where formatting
    /// dispatch is measurable.
    pub fn push(&mut self, s: &str) -> &mut Detail {
        let _ = std::fmt::Write::write_str(self, s);
        self
    }

    /// Append a decimal integer without going through `core::fmt`.
    pub fn push_u64(&mut self, value: u64) -> &mut Detail {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut v = value;
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        // The digits are ASCII, so this never splits a char boundary.
        self.push(std::str::from_utf8(&digits[at..]).unwrap_or("0"))
    }
}

impl std::fmt::Write for Detail {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        let remaining = DETAIL_CAPACITY - self.len as usize;
        let mut take = s.len().min(remaining);
        while take > 0 && !s.is_char_boundary(take) {
            take -= 1;
        }
        let start = self.len as usize;
        self.buf[start..start + take].copy_from_slice(&s.as_bytes()[..take]);
        self.len += take as u8;
        Ok(())
    }
}

impl std::fmt::Display for Detail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for Detail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq<&str> for Detail {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// One stage of one correlated invocation.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Correlation id: the dispatcher call token (0 for uncorrelated).
    pub token: u64,
    /// Monotonic sequence number (global fire order across threads).
    pub seq: u64,
    /// [`crate::clock::micros`] when the stage was recorded.
    pub at_micros: u64,
    /// Which machinery recorded the stage, e.g. `client.attempt`.
    pub stage: &'static str,
    /// Free-form detail (endpoint, attempt number, error…).
    pub detail: Detail,
}

impl TraceEvent {
    /// One-line rendering used by `/metrics` and the E10 bench. A detail
    /// can carry a name a peer chose, so control characters become `?`.
    pub fn render(&self) -> String {
        let detail: String = (self.detail.as_str().chars())
            .map(|c| if c.is_ascii_control() { '?' } else { c })
            .collect();
        format!(
            "trace seq={} corr={} t_us={} stage={} {detail}",
            self.seq, self.token, self.at_micros, self.stage
        )
    }
}

// --- the registry -----------------------------------------------------------

// Sized to hold the recent history a reconstruction needs (a
// multi-attempt invocation is tens of spans) while the whole ring stays
// cache-resident — span recording is on the invoke hot path, and a
// larger ring measurably pushes the E10 overhead up via L2 misses.
const TRACE_CAPACITY: usize = 1024;

/// The metrics + trace registry. Usually accessed through [`global`];
/// separate instances exist only in tests.
pub struct Telemetry {
    enabled: Arc<AtomicBool>,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    trace: Mutex<VecDeque<TraceEvent>>,
    trace_seq: AtomicU64,
    dropped_spans: AtomicU64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Telemetry {
            enabled: Arc::new(AtomicBool::new(true)),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            trace: Mutex::new(VecDeque::with_capacity(TRACE_CAPACITY)),
            trace_seq: AtomicU64::new(0),
            dropped_spans: AtomicU64::new(0),
        }
    }

    /// Turn recording on or off. Existing [`Counter`]/[`Histogram`]
    /// handles observe the change immediately (they share the flag);
    /// disabled recording is a single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The counter named `name`, created on first touch. Cache the
    /// handle on hot paths — the lookup takes the registry lock.
    pub fn counter(&self, name: impl Into<String>) -> Arc<Counter> {
        let mut counters = self.counters.lock();
        counters
            .entry(name.into())
            .or_insert_with(|| Arc::new(Counter::new(self.enabled.clone())))
            .clone()
    }

    /// The gauge named `name`, created on first touch.
    pub fn gauge(&self, name: impl Into<String>) -> Arc<Gauge> {
        self.gauges.lock().entry(name.into()).or_default().clone()
    }

    /// The histogram named `name`, created on first touch. Cache the
    /// handle on hot paths.
    pub fn histogram(&self, name: impl Into<String>) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock();
        histograms
            .entry(name.into())
            .or_insert_with(|| Arc::new(Histogram::new(self.enabled.clone())))
            .clone()
    }

    /// Append one trace stage for `token`. The ring is bounded: the
    /// oldest span is dropped (and counted) when full. Takes
    /// [`std::fmt::Arguments`] (i.e. `format_args!`) so the detail is
    /// formatted straight into the event's inline buffer — recording a
    /// span performs no heap allocation.
    pub fn span(&self, token: u64, stage: &'static str, detail: std::fmt::Arguments) {
        if !self.is_enabled() {
            return;
        }
        let mut inline = Detail::new();
        // Infallible: `Detail::write_str` truncates instead of erring.
        let _ = std::fmt::Write::write_fmt(&mut inline, detail);
        self.push_span(token, stage, inline);
    }

    /// [`Telemetry::span`] with the detail built by `build` through
    /// [`Detail::push`]/[`Detail::push_u64`] — no formatting dispatch.
    /// Used on per-call hot paths; cold paths keep the `format_args!`
    /// form of [`Telemetry::span`] for flexibility.
    pub fn span_with(&self, token: u64, stage: &'static str, build: impl FnOnce(&mut Detail)) {
        if !self.is_enabled() {
            return;
        }
        let mut inline = Detail::new();
        build(&mut inline);
        self.push_span(token, stage, inline);
    }

    fn push_span(&self, token: u64, stage: &'static str, detail: Detail) {
        let event = TraceEvent {
            token,
            seq: self.trace_seq.fetch_add(1, Ordering::Relaxed),
            at_micros: crate::clock::micros(),
            stage,
            detail,
        };
        let mut trace = self.trace.lock();
        if trace.len() >= TRACE_CAPACITY {
            trace.pop_front();
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
        trace.push_back(event);
    }

    /// Every retained span for `token`, in fire order.
    pub fn trace_for(&self, token: u64) -> Vec<TraceEvent> {
        self.trace
            .lock()
            .iter()
            .filter(|e| e.token == token)
            .cloned()
            .collect()
    }

    /// The most recent `limit` spans, any token, in fire order.
    pub fn recent_trace(&self, limit: usize) -> Vec<TraceEvent> {
        let trace = self.trace.lock();
        trace
            .iter()
            .skip(trace.len().saturating_sub(limit))
            .cloned()
            .collect()
    }

    /// Spans evicted from the bounded ring over the registry lifetime.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter, gauge and histogram.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = (self.gauges.lock().iter())
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A mergeable snapshot of a whole registry.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// Sum counters and gauges and merge histograms name-wise (for
    /// aggregating per-shard or per-process snapshots).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            *self.gauges.entry(name.clone()).or_insert(0) += value;
        }
        for (name, histogram) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_default()
                .merge(histogram);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Plain-text rendering: one `name value` line per counter and gauge,
    /// and `name_{count,sum,max,mean,p50,p90,p99}` lines per histogram.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("{name}_count {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_max {}\n", h.max));
            out.push_str(&format!("{name}_mean {:.1}\n", h.mean()));
            out.push_str(&format!("{name}_p50 {}\n", h.p50()));
            out.push_str(&format!("{name}_p90 {}\n", h.p90()));
            out.push_str(&format!("{name}_p99 {}\n", h.p99()));
        }
        out
    }
}

/// The process-wide registry every built-in instrumentation point
/// records into. Created enabled on first touch.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

/// The body of the `/metrics` route: counters + histogram summaries,
/// then a `# trace` section with the most recent spans — enough to
/// reconstruct a recent invocation by grepping its correlation id.
pub fn render_metrics(registry: &Telemetry) -> String {
    render_metrics_with(registry, "")
}

/// [`render_metrics`] with extra `name value\n` lines spliced in before
/// the trace section — bindings and the gateway use this to report the
/// state of one object of theirs (a connection pool, a dispatcher's
/// queue, an admission controller). Process-wide series are not extra:
/// each layer records its own into the registry.
pub fn render_metrics_with(registry: &Telemetry, extra: &str) -> String {
    let mut out = registry.snapshot().render_text();
    out.push_str(extra);
    out.push_str(&format!(
        "telemetry_trace_dropped {}\n",
        registry.dropped_spans()
    ));
    out.push_str("# trace (most recent spans)\n");
    for event in registry.recent_trace(TRACE_CAPACITY) {
        out.push_str(&event.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_exhaustive_and_monotonic() {
        // Exact buckets below 16, and index(bounds(i).low) == i for all.
        for v in 0..LINEAR_LIMIT {
            assert_eq!(bucket_index(v), v as usize);
        }
        let mut previous_high = None;
        for index in 0..HISTOGRAM_BUCKETS {
            let (low, high) = bucket_bounds(index);
            assert!(low <= high, "bucket {index}");
            assert_eq!(bucket_index(low), index, "low of bucket {index}");
            assert_eq!(bucket_index(high), index, "high of bucket {index}");
            if let Some(prev) = previous_high {
                assert_eq!(low, prev + 1, "buckets tile contiguously at {index}");
            }
            previous_high = Some(high);
        }
        assert_eq!(previous_high, Some(u64::MAX), "covers all of u64");
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        // Above the linear range, a bucket spans < 1/16 of its low end.
        for value in [16u64, 100, 1_000, 123_456, 10_000_000, u64::MAX / 3] {
            let (low, high) = bucket_bounds(bucket_index(value));
            assert!(low <= value && value <= high);
            assert!(
                (high - low) as f64 <= low as f64 / 16.0,
                "bucket [{low}, {high}] too wide for {value}"
            );
        }
    }

    #[test]
    fn histogram_percentiles_without_sorting() {
        let t = Telemetry::new();
        let h = t.histogram("lat");
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        // Values ≤ 15 are exact; larger ones within one bucket.
        assert_eq!(snap.value_at_percentile(10.0), 10);
        let p50 = snap.p50();
        let (low, high) = bucket_bounds(bucket_index(50));
        assert!(
            (low..=high).contains(&p50),
            "p50 {p50} not in [{low},{high}]"
        );
        assert_eq!(snap.max, 100);
        assert!(snap.p99() >= 96 && snap.p99() <= 100);
    }

    #[test]
    fn snapshots_merge_bucketwise() {
        let t = Telemetry::new();
        let a = t.histogram("a");
        let b = t.histogram("b");
        for v in 0..50u64 {
            a.record(v);
        }
        for v in 50..100u64 {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 100);
        assert_eq!(merged.max, 99);
        let mut whole = Telemetry::new().histogram("w").snapshot();
        whole.merge(&merged);
        assert_eq!(whole.count, 100, "merge into empty is the identity");
        // Same data recorded into one histogram gives the same answers.
        let one = t.histogram("one");
        for v in 0..100u64 {
            one.record(v);
        }
        let one = one.snapshot();
        assert_eq!(one.p50(), merged.p50());
        assert_eq!(one.p99(), merged.p99());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::new();
        let c = t.counter("hits");
        let h = t.histogram("lat");
        t.set_enabled(false);
        c.incr();
        h.record(7);
        t.span(1, "stage", format_args!("detail"));
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert!(t.trace_for(1).is_empty());
        t.set_enabled(true);
        c.incr();
        assert_eq!(c.get(), 1, "same handle live again after re-enable");
    }

    #[test]
    fn correlation_scope_nests_and_restores() {
        assert_eq!(current_correlation(), 0);
        {
            let _outer = CorrelationScope::enter(7);
            assert_eq!(current_correlation(), 7);
            {
                let _inner = CorrelationScope::enter(9);
                assert_eq!(current_correlation(), 9);
            }
            assert_eq!(current_correlation(), 7, "inner scope restored");
        }
        assert_eq!(current_correlation(), 0);
    }

    #[test]
    fn trace_is_bounded_and_filterable() {
        let t = Telemetry::new();
        for i in 0..(TRACE_CAPACITY as u64 + 10) {
            t.span(i % 3, "fill", format_args!("i={i}"));
        }
        assert_eq!(t.dropped_spans(), 10);
        assert_eq!(t.recent_trace(usize::MAX).len(), TRACE_CAPACITY);
        let zeros = t.trace_for(0);
        assert!(!zeros.is_empty());
        assert!(zeros.windows(2).all(|w| w[0].seq < w[1].seq), "fire order");
    }

    #[test]
    fn snapshot_and_render() {
        let t = Telemetry::new();
        t.counter("requests").add(3);
        t.histogram("lat").record(12);
        let snap = t.snapshot();
        assert_eq!(snap.counter("requests"), 3);
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        let text = render_metrics(&t);
        assert!(text.contains("requests 3"));
        assert!(text.contains("lat_p50 12"));
        assert!(text.contains("# trace"));
    }

    #[test]
    fn gauge_rises_falls_and_is_rendered() {
        let t = Telemetry::new();
        let busy = t.gauge("busy");
        busy.add(2);
        busy.add(-1);
        assert_eq!(busy.get(), 1);
        assert_eq!(t.gauge("busy").get(), 1, "one gauge per name");
        assert_eq!(t.snapshot().gauges["busy"], 1);
        t.counter("requests").incr();
        let text = render_metrics(&t);
        assert!(
            text.contains("requests 1\nbusy 1\n"),
            "after the counters:\n{text}"
        );
        busy.add(-1);
        assert!(render_metrics(&t).contains("busy 0\n"));
    }

    #[test]
    fn gauges_merge_by_sum_and_record_while_disabled() {
        let (a, b) = (Telemetry::new(), Telemetry::new());
        a.set_enabled(false);
        let up = a.gauge("level");
        up.add(3);
        a.set_enabled(true);
        up.add(-1);
        assert_eq!(up.get(), 2, "the rise made while disabled stays counted");
        b.gauge("level").add(5);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.gauges["level"], 7);
    }

    #[test]
    fn a_private_registry_renders_no_process_wide_series() {
        global().counter("bufpool_hits").incr();
        global().gauge("reactor.handlers_busy").add(0);
        let text = render_metrics(&Telemetry::new());
        assert!(!text.contains("bufpool_"), "{text}");
        assert!(!text.contains("reactor."), "{text}");
        assert_eq!(text.lines().next(), Some("telemetry_trace_dropped 0"));
    }

    #[test]
    fn a_rendered_span_is_one_line() {
        let t = Telemetry::new();
        t.span(1, "stage", format_args!("service=a\nforged 7\r\u{7f}"));
        let line = t.trace_for(1)[0].render();
        assert!(line.ends_with("stage=stage service=a?forged 7??"), "{line}");
    }
}
