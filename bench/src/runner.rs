//! The closed-loop runner: set-up, warm-up, and timed phases driven by
//! exactly two client threads, each finishing one op before starting
//! the next (WSPeer's callers wait for their reply).

use crate::gen::CLIENTS;
use crate::speed::{self, Reading, Speedometer};
use crate::stats::{Histogram, Spread};
use crate::sys;
use crate::workloads::{self, Fixture, OpClient, Outcome};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Phase lengths. Constants of the benchmark, the same on every commit;
/// only the measured window follows `--seconds`.
#[derive(Debug, Clone)]
pub struct Plan {
    /// After the measured window the fixture is brought up and torn
    /// down again until this much set-up time has been spent, between
    /// `MIN_SETUPS` and `MAX_SETUPS` times in all; `setup_s` is the
    /// median. A 2 ms set-up is repeated often enough for its median to
    /// be steady, a 600 ms one is not repeated for a minute.
    pub setup_budget: Duration,
    pub warmup: Duration,
    /// The untraced measured window, cut into slices of [`SLICE`].
    pub window: Duration,
    /// Trace mode: the untraced reference window and the traced window.
    pub traced_window: Duration,
    /// Trace mode: the untraced window with allocation counting on.
    pub counted_window: Duration,
    pub quick: bool,
}

impl Plan {
    pub fn full(seconds: u64) -> Plan {
        Plan {
            setup_budget: Duration::from_secs(1),
            warmup: Duration::from_secs(2),
            window: Duration::from_secs(seconds),
            traced_window: Duration::from_secs(3),
            counted_window: Duration::from_secs(1),
            quick: false,
        }
    }

    /// A smoke test of the harness itself; its numbers mean nothing.
    pub fn quick() -> Plan {
        Plan {
            setup_budget: Duration::ZERO,
            warmup: Duration::from_millis(300),
            window: Duration::from_secs(1),
            traced_window: Duration::from_secs(1),
            counted_window: Duration::from_millis(300),
            quick: true,
        }
    }

    pub fn mode(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }
}

/// The measured window is cut into slices of this length; each metric
/// is the median of its per-slice values, every slice first brought to
/// the reference machine speed (see [`crate::speed`]). Short enough that
/// the machine's speed hardly changes inside one, long enough to hold
/// [`MIN_SAMPLES_PER_SLICE`] ops of the slowest workload and fifty
/// ticks of CPU time.
pub const SLICE: Duration = Duration::from_millis(500);

/// Seven, so that one slow set-up (the first pays for every lazy
/// initialisation of the process) lies outside the quartiles.
pub const MIN_SETUPS: usize = 7;
pub const MAX_SETUPS: usize = 40;

/// Each slice needs this many samples for its p90 to have ten beyond
/// it.
pub const MIN_SAMPLES_PER_SLICE: usize = 100;

#[derive(Default)]
struct ClientPhase {
    /// Latencies of the verified ops, by the slice they ended in. An
    /// op that ended after the deadline belongs to no slice (each
    /// client has at most one).
    latencies: Vec<Histogram>,
    readings: Vec<Reading>,
    attempted: u64,
    failed: u64,
    cache_hits: u64,
    errors: Vec<String>,
}

struct RunPhase {
    start: Instant,
    slice: Duration,
    slices: usize,
}

/// The two client threads. They live for the whole run, so per-thread
/// state inside the programs (codecs, buffers) stays warm from warm-up
/// into the measured window.
pub struct Clients {
    commands: Vec<mpsc::Sender<RunPhase>>,
    results: Vec<mpsc::Receiver<ClientPhase>>,
    threads: Vec<JoinHandle<()>>,
}

impl Clients {
    pub fn spawn(clients: Vec<Box<dyn OpClient>>) -> Clients {
        let mut out = Clients {
            commands: Vec::new(),
            results: Vec::new(),
            threads: Vec::new(),
        };
        for (i, mut client) in clients.into_iter().enumerate() {
            let (command_tx, command_rx) = mpsc::channel::<RunPhase>();
            let (result_tx, result_rx) = mpsc::channel::<ClientPhase>();
            let thread = std::thread::Builder::new()
                .name(format!("bench-client-{i}"))
                .spawn(move || {
                    let mut speedometer = Speedometer::new();
                    while let Ok(phase) = command_rx.recv() {
                        let done = run_client(client.as_mut(), &mut speedometer, &phase);
                        if result_tx.send(done).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn client thread");
            out.commands.push(command_tx);
            out.results.push(result_rx);
            out.threads.push(thread);
        }
        out
    }

    /// Run one phase of `length`, cut into slices of [`SLICE`] (one
    /// slice if it is shorter); the calling thread samples process CPU
    /// time at every slice boundary.
    pub fn run(&self, length: Duration) -> Phase {
        let slices = ((length.as_secs_f64() / SLICE.as_secs_f64()) as usize).max(1);
        let start = Instant::now() + Duration::from_millis(2);
        let slice = length / slices as u32;
        for command in &self.commands {
            let phase = RunPhase {
                start,
                slice,
                slices,
            };
            command.send(phase).expect("client thread alive");
        }
        let steal_before = sys::steal_ticks();
        let rss_before = sys::peak_rss_mib();
        let mut cpu_ticks = Vec::with_capacity(slices + 1);
        for boundary in 0..=slices {
            let at = start + slice * boundary as u32;
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            cpu_ticks.push(sys::cpu_ticks());
        }
        let stolen = sys::steal_ticks() - steal_before;
        let clients: Vec<ClientPhase> = self
            .results
            .iter()
            .map(|r| r.recv().expect("client thread alive"))
            .collect();
        let mut phase = Phase::assemble(clients, &cpu_ticks, length);
        phase.steal_share = stolen as f64
            / (length.as_secs_f64() * sys::TICKS_PER_SECOND as f64 * sys::nproc() as f64);
        phase.rss_grew_mib = sys::peak_rss_mib() - rss_before;
        phase
    }

    /// Stop the threads (dropping the clients they own).
    pub fn stop(self) {
        drop(self.commands);
        for thread in self.threads {
            thread.join().expect("client thread panicked");
        }
    }
}

fn run_client(
    client: &mut dyn OpClient,
    speedometer: &mut Speedometer,
    phase: &RunPhase,
) -> ClientPhase {
    let mut out = ClientPhase {
        latencies: vec![Histogram::default(); phase.slices],
        readings: Vec::with_capacity(1 << 14),
        ..ClientPhase::default()
    };
    let slice_of =
        |at: Instant| (at.duration_since(phase.start).as_nanos() / phase.slice.as_nanos()) as usize;
    std::thread::sleep(phase.start.saturating_duration_since(Instant::now()));
    loop {
        let now = Instant::now();
        if slice_of(now) >= phase.slices {
            break;
        }
        if let Some(chunk_ns) = speedometer.read_if_due(now) {
            out.readings.push(Reading {
                slice: slice_of(now),
                chunk_ns,
            });
        }
        out.attempted += 1;
        match client.op() {
            Outcome::Ok {
                latency_ns,
                cache_hit,
            } => {
                out.cache_hits += u64::from(cache_hit);
                if let Some(slice) = out.latencies.get_mut(slice_of(Instant::now())) {
                    slice.record(latency_ns.min(u64::from(u32::MAX)) as u32);
                }
            }
            Outcome::Failed(why) => {
                out.failed += 1;
                if out.errors.len() < 5 {
                    out.errors.push(why);
                }
            }
        }
    }
    out
}

/// What one timed phase measured.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    pub cache_hits: u64,
    /// Verified ops that ended inside the phase.
    pub ok: u64,
    pub errors: Vec<String>,
    pub seconds: f64,
    pub samples_per_slice: Vec<usize>,
    /// Speed of the machine in each slice, 1 being the reference (see
    /// [`crate::speed`]); 0 where a slice had no reading.
    pub speed_per_slice: Vec<f64>,
    /// Share of the machine's CPU time the hypervisor withheld during
    /// the phase.
    pub steal_share: f64,
    /// By how much the process's peak resident set (`VmHWM`) rose during
    /// the phase.
    pub rss_grew_mib: f64,
    /// Median and quartiles of `speed_per_slice`.
    pub machine_speed: Spread,
    /// Medians (with quartiles) of the per-slice values, each slice
    /// brought to the reference machine speed.
    pub throughput_ops_s: Spread,
    pub latency_p50_us: Spread,
    pub latency_p90_us: Spread,
    pub cpu_us_per_op: Spread,
    /// Over the whole phase and as measured, at whatever speed the
    /// machine ran: diagnostics, and what the traced run is compared
    /// to.
    pub measured_ops_s: f64,
    pub whole_p50_us: f64,
    pub latency_p99_us: f64,
    pub latency_p999_us: f64,
    pub latency_max_us: f64,
}

impl Phase {
    fn assemble(clients: Vec<ClientPhase>, cpu_ticks: &[u64], length: Duration) -> Phase {
        let slices = cpu_ticks.len() - 1;
        let slice_s = length.as_secs_f64() / slices as f64;
        let mut latencies = vec![Histogram::default(); slices];
        let mut chunks: Vec<Vec<u32>> = vec![Vec::new(); slices];
        let mut phase = Phase {
            seconds: length.as_secs_f64(),
            ..Phase::default()
        };
        for client in clients {
            phase.attempted += client.attempted;
            phase.failed += client.failed;
            phase.cache_hits += client.cache_hits;
            phase.errors.extend(client.errors);
            for (all, one) in latencies.iter_mut().zip(&client.latencies) {
                all.merge(one);
            }
            for reading in client.readings {
                chunks[reading.slice].push(reading.chunk_ns);
            }
        }
        let (mut speeds, mut rate, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
        let (mut p50, mut p90) = (Vec::new(), Vec::new());
        let mut whole = Histogram::default();
        for (i, slice) in latencies.iter().enumerate() {
            phase.samples_per_slice.push(slice.count() as usize);
            whole.merge(slice);
            // A slice without an op or without a speed reading (one op
            // took longer than the slice) says nothing.
            let speed = speed::speed(&chunks[i]);
            phase.speed_per_slice.push(speed.unwrap_or(0.0));
            let Some(speed) = speed.filter(|_| slice.count() > 0) else {
                continue;
            };
            let ops = slice.count() as f64;
            speeds.push(speed);
            rate.push(ops / slice_s / speed);
            p50.push(slice.percentile(50.0) / 1e3 * speed);
            p90.push(slice.percentile(90.0) / 1e3 * speed);
            let cpu_us = (cpu_ticks[i + 1] - cpu_ticks[i]) as f64 * sys::TICK_US;
            cpu.push(cpu_us / ops * speed);
        }
        phase.ok = whole.count();
        phase.machine_speed = Spread::quartiles_of(&speeds);
        phase.throughput_ops_s = Spread::quartiles_of(&rate);
        phase.latency_p50_us = Spread::quartiles_of(&p50);
        phase.latency_p90_us = Spread::quartiles_of(&p90);
        phase.cpu_us_per_op = Spread::quartiles_of(&cpu);
        phase.measured_ops_s = phase.ok as f64 / phase.seconds;
        phase.whole_p50_us = whole.percentile(50.0) / 1e3;
        phase.latency_p99_us = whole.percentile(99.0) / 1e3;
        phase.latency_p999_us = whole.percentile(99.9) / 1e3;
        phase.latency_max_us = f64::from(whole.max()) / 1e3;
        phase
    }
}

/// The fixture with both clients ready and one op verified.
pub struct Ready {
    pub fixture: Box<dyn Fixture>,
    pub clients: Vec<Box<dyn OpClient>>,
}

/// Bring the fixture up, create both clients and verify a first op on
/// each. This is what `setup_s` times.
pub fn set_up(workload: &str, seed: u64) -> Result<Ready, String> {
    let fixture = workloads::launch(workload)?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for client in 0..CLIENTS {
        let mut c = fixture.client(client, seed)?;
        if let Outcome::Failed(why) = c.op() {
            return Err(format!("first op of client {client} failed: {why}"));
        }
        clients.push(c);
    }
    Ok(Ready { fixture, clients })
}

/// Set up and tear down again, repeatedly (see [`Plan::setup_budget`]),
/// and return every set-up time in seconds, `first` — the set-up the
/// run itself used, timed from process start, as measured — included.
///
/// A repeated set-up is brought to the reference machine speed like a
/// slice of the window, with [`SETUP_READINGS`] readings of the
/// speedometer before it and as many after it — but only the part of it
/// the process spent on the CPU: `p2ps_invoke` waits 0.6 s for adverts
/// to spread, and a wait takes as long on a slow machine.
///
/// Called *after* the measured window: the machine this was defined on
/// runs a quarter faster for the first seconds after an idle period, so
/// set-ups timed at process start measured how long the previous gap
/// was. After the window the CPUs are in their sustained state.
pub fn repeat_set_up(
    workload: &str,
    seed: u64,
    plan: &Plan,
    first: f64,
) -> Result<Vec<f64>, String> {
    let mut times = vec![first];
    let mut spent = Duration::ZERO;
    let mut speedometer = Speedometer::new();
    let mut readings = Vec::with_capacity(2 * SETUP_READINGS);
    while times.len() < MAX_SETUPS && (times.len() < MIN_SETUPS || spent < plan.setup_budget) {
        readings.clear();
        readings.extend((0..SETUP_READINGS).map(|_| speedometer.read()));
        let (started, cpu_before) = (Instant::now(), sys::cpu_time());
        let ready = set_up(workload, seed)?;
        let (took, on_cpu) = (started.elapsed(), sys::cpu_time() - cpu_before);
        readings.extend((0..SETUP_READINGS).map(|_| speedometer.read()));
        drop(ready.clients);
        ready.fixture.shutdown();
        let speed = speed::speed(&readings).expect("readings were taken");
        times.push(at_reference_speed(took, on_cpu, speed));
        spent += took;
    }
    Ok(times)
}

/// Speedometer readings taken on either side of a repeated set-up.
const SETUP_READINGS: usize = 4;

/// `took`, in seconds, with the `on_cpu` part of it at the reference
/// speed and the rest — waiting — as it was.
fn at_reference_speed(took: Duration, on_cpu: Duration, speed: f64) -> f64 {
    let on_cpu = on_cpu.min(took);
    (took - on_cpu).as_secs_f64() + on_cpu.as_secs_f64() * speed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client's share of a phase: per slice, the latencies (µs) of
    /// its ops and the chunk times (ns) of its speed readings.
    fn client(slices: &[(&[u32], &[u32])]) -> ClientPhase {
        let mut out = ClientPhase::default();
        for (slice, (latencies_us, chunks_ns)) in slices.iter().enumerate() {
            let mut histogram = Histogram::default();
            for &us in *latencies_us {
                histogram.record(us * 1_000);
                out.attempted += 1;
            }
            out.latencies.push(histogram);
            out.readings.extend(
                chunks_ns
                    .iter()
                    .map(|&chunk_ns| Reading { slice, chunk_ns }),
            );
        }
        out
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 0.01 * b.abs()
    }

    #[test]
    fn a_phase_reports_the_median_of_its_slices_at_reference_speed() {
        let reference = speed::REFERENCE_CHUNK_NS as u32;
        // Three 1 s slices at reference speed. Slice 0: 4 ops of 100 us;
        // slice 1: 2 ops of 300 us; slice 2: 3 ops of 200 us.
        let a = ClientPhase {
            failed: 1,
            cache_hits: 2,
            errors: vec!["boom".to_owned()],
            ..client(&[
                (&[100, 100], &[reference]),
                (&[300], &[reference]),
                (&[200, 200], &[reference]),
            ])
        };
        let b = client(&[(&[100, 100], &[]), (&[300], &[]), (&[200], &[])]);
        // 40, 10 and 30 ticks of CPU (10 ms each) in the three slices.
        let phase = Phase::assemble(vec![a, b], &[0, 40, 50, 80], Duration::from_secs(3));
        assert_eq!(phase.samples_per_slice, vec![4, 2, 3]);
        assert_eq!((phase.attempted, phase.failed, phase.ok), (9, 1, 9));
        assert_eq!(phase.cache_hits, 2);
        assert_eq!(phase.errors, vec!["boom".to_owned()]);
        assert_eq!(phase.machine_speed, Spread::single(1.0));
        assert_eq!(phase.throughput_ops_s.median, 3.0);
        assert!(close(phase.latency_p50_us.median, 200.0));
        // CPU per op: 400 ms / 4, 100 ms / 2, 300 ms / 3.
        assert_eq!(phase.cpu_us_per_op.median, 100_000.0);
        assert_eq!(phase.measured_ops_s, 3.0);
        assert!(close(phase.whole_p50_us, 200.0));
        assert_eq!(phase.latency_max_us, 300.0);
    }

    #[test]
    fn only_the_cpu_part_of_a_set_up_is_brought_to_the_reference_speed() {
        let ms = Duration::from_millis;
        // All of it on the CPU of a machine half as fast as the
        // reference: there it would have taken half as long.
        assert_eq!(at_reference_speed(ms(10), ms(10), 0.5), 0.005);
        // 600 ms of waiting stay 600 ms.
        assert!(close(at_reference_speed(ms(610), ms(10), 0.5), 0.605));
        // Two threads' CPU time cannot exceed the wall time on one CPU;
        // a clock that says so is not believed.
        assert_eq!(at_reference_speed(ms(10), ms(11), 2.0), 0.02);
    }

    #[test]
    fn every_slice_is_brought_to_the_reference_speed() {
        let reference = speed::REFERENCE_CHUNK_NS as u32;
        // The same program on a machine that runs at the reference
        // speed in slice 0, at half of it in slice 1 (everything takes
        // twice as long, the chunk too) and at twice in slice 2.
        let one = client(&[
            (&[100; 8], &[reference; 3]),
            (&[200; 4], &[2 * reference; 3]),
            (&[50; 16], &[reference / 2; 3]),
        ]);
        let phase = Phase::assemble(vec![one], &[0, 100, 200, 300], Duration::from_secs(3));
        let speeds = phase.machine_speed;
        assert_eq!((speeds.low, speeds.median, speeds.high), (0.5, 1.0, 2.0));
        // As measured the slices disagree by a factor of four ...
        assert_eq!(phase.samples_per_slice, vec![8, 4, 16]);
        // ... at reference speed they are one program.
        for metric in [phase.throughput_ops_s, phase.cpu_us_per_op] {
            assert_eq!(metric.low, metric.high);
        }
        assert_eq!(phase.throughput_ops_s.median, 8.0);
        assert_eq!(phase.cpu_us_per_op.median, 125_000.0);
        let p50 = phase.latency_p50_us;
        assert!(close(p50.low, 100.0) && close(p50.high, 100.0));

        // A slice without a speed reading is left out.
        let blind = client(&[(&[100; 8], &[reference]), (&[900; 8], &[])]);
        let phase = Phase::assemble(vec![blind], &[0, 100, 200], Duration::from_secs(2));
        assert_eq!(phase.samples_per_slice, vec![8, 8]);
        assert!(close(phase.latency_p50_us.high, 100.0));
        assert_eq!(phase.latency_max_us, 900.0);
    }
}
