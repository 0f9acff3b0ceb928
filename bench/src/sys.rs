//! What the kernel reports about this process and the loopback: CPU
//! time, memory high-water mark, context switches, TCP opens, all read
//! from `/proc`; and the one thing the bench asks of the kernel, to
//! run on a single CPU.

use crate::json::Json;
use std::fs;
use std::time::Duration;

/// `USER_HZ`: the unit of the CPU fields of `/proc/<pid>/stat`. Linux
/// fixes it at 100 for every architecture this repository builds on.
pub const TICKS_PER_SECOND: u64 = 100;

/// Microseconds per CPU tick.
pub const TICK_US: f64 = 1_000_000.0 / TICKS_PER_SECOND as f64;

/// User + system CPU ticks this process (all threads) has consumed.
pub fn cpu_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after ')'.
    // After it: state(0) ppid(1) ... utime(11) stime(12).
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// CPU time the hypervisor withheld from this (virtual) machine, in
/// ticks, summed over its CPUs: the `steal` column of `/proc/stat`.
/// Always 0 on bare metal.
pub fn steal_ticks() -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|steal| steal.parse().ok())
        .unwrap_or(0)
}

fn status_field_kb(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field_kb(&status, "VmHWM:") as f64 / 1024.0
}

/// Voluntary + involuntary context switches summed over every thread
/// of this process (`/proc/self/status` alone covers only the main
/// thread).
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .map(|status| {
            status_field_kb(&status, "voluntary_ctxt_switches:")
                + status_field_kb(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// `ActiveOpens` of `/proc/net/snmp`: TCP connections this network
/// namespace has opened with `connect`.
pub fn tcp_active_opens() -> u64 {
    let snmp = fs::read_to_string("/proc/net/snmp").unwrap_or_default();
    let mut tcp = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(header), Some(values)) = (tcp.next(), tcp.next()) else {
        return 0;
    };
    header
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(name, _)| *name == "ActiveOpens")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}

/// Sockets in TIME_WAIT (`tw` of `/proc/net/sockstat`).
pub fn tcp_time_wait() -> u64 {
    let sockstat = fs::read_to_string("/proc/net/sockstat").unwrap_or_default();
    sockstat
        .lines()
        .find(|l| l.starts_with("TCP:"))
        .and_then(|l| {
            let mut words = l.split_whitespace();
            words.find(|w| *w == "tw")?;
            words.next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// CPUs of the machine, whatever this process is confined to.
pub fn nproc() -> usize {
    let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count()
        .max(1)
}

/// Words of a CPU mask: room for 1 024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, time: *mut [i64; 2]) -> i32;
}

/// User + system CPU time this process (all threads) has consumed, to
/// the nanosecond where [`cpu_ticks`] counts hundredths of a second.
pub fn cpu_time() -> Duration {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = [0_i64; 2];
    // SAFETY: `time` is the two 64-bit fields of a `struct timespec` on
    // every 64-bit Linux.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) } != 0 {
        return Duration::ZERO;
    }
    Duration::new(time[0] as u64, time[1] as u32)
}

/// Confine this thread, and every thread it starts from now on, to one
/// CPU: the highest-numbered one it may run on (device interrupts
/// mostly land on CPU 0). Call before the first thread is spawned.
/// Returns that CPU's number.
///
/// On the shared virtual machine this benchmark was defined on, waking
/// a thread on *another* virtual CPU costs 10–20 µs of hypervisor work
/// whose price follows the host's other tenants: with threads free to
/// spread over both CPUs `gateway_hit` ran at 15 000 ops/s with runs
/// spreading by 25 %, and on the rare run where the scheduler happened
/// to keep them together, at 50 000. On one CPU every hand-off is a
/// plain context switch, the CPU is busy for the whole window, and what
/// is measured is the programs' own work.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `size` writable bytes; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("sched_getaffinity returned an empty CPU mask")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn read_trimmed(path: &str) -> String {
    fs::read_to_string(path)
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// Does `error` say the kernel ran out of ephemeral ports? Connection-
/// per-call workloads must fail loudly on this, not report a number
/// skewed by refused connects.
pub fn is_port_exhaustion(error: &str) -> bool {
    let e = error.to_ascii_lowercase();
    e.contains("eaddrnotavail")
        || e.contains("cannot assign requested address")
        || e.contains("address not available")
        || e.contains("os error 99")
}

/// The environment block of a result: what a reader needs to judge
/// whether two results are comparable.
pub fn environment() -> Json {
    Json::obj()
        .with("nproc", nproc())
        .with("kernel", read_trimmed("/proc/sys/kernel/osrelease"))
        .with(
            "commit",
            std::env::var("WSPEER_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned()),
        )
        .with(
            "tcp_tw_reuse",
            read_trimmed("/proc/sys/net/ipv4/tcp_tw_reuse"),
        )
        .with(
            "ip_local_port_range",
            read_trimmed("/proc/sys/net/ipv4/ip_local_port_range"),
        )
        .with("network", "host loopback only (127.0.0.1)")
        .with(
            "load_model",
            "closed loop, 2 client threads, whole process on one CPU",
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_live_values() {
        assert!(peak_rss_mib() > 0.0);
        assert!(nproc() >= 1);
        // Burn a little CPU so the tick counter is observably monotone.
        let before = cpu_ticks();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed() < std::time::Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_ticks() >= before);
        assert!(ctx_switches() > 0);
    }

    #[test]
    fn port_exhaustion_is_recognised() {
        assert!(is_port_exhaustion(
            "connect failed: Cannot assign requested address (os error 99)"
        ));
        assert!(!is_port_exhaustion("connection refused (os error 111)"));
    }

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(status_field_kb(text, "VmHWM:"), 2048);
        assert_eq!(status_field_kb(text, "voluntary_ctxt_switches:"), 17);
        assert_eq!(status_field_kb(text, "missing:"), 0);
    }
}
