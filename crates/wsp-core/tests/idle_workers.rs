//! An idle dispatcher's workers sleep until there is work: no timed
//! poll wakes them. A target of its own, so that no other test's
//! `wsp-worker-*` threads share the process and the count.
#![cfg(target_os = "linux")]

use std::time::Duration;

/// This process's `wsp-worker-*` threads: how many, and their voluntary
/// context switches so far. A thread that exits meanwhile is skipped.
fn workers_and_switches() -> (u64, u64) {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    let status = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("status"));
    let field = |status: &str, name: &str| -> String {
        let line = status.lines().find_map(|line| line.strip_prefix(name));
        line.expect("status field").trim().to_owned()
    };
    let statuses = tasks.filter_map(|task| status(task.ok()?).ok());
    let (mut workers, mut switches) = (0, 0);
    for status in statuses.filter(|status| field(status, "Name:").starts_with("wsp-worker-")) {
        workers += 1;
        switches += field(&status, "voluntary_ctxt_switches:")
            .parse::<u64>()
            .unwrap();
    }
    (workers, switches)
}

#[test]
fn idle_workers_sleep_until_there_is_work() {
    let dispatcher = wsp_core::Dispatcher::with_defaults();
    std::thread::sleep(Duration::from_millis(100)); // every worker reaches its wait
    let (workers, before) = workers_and_switches();
    assert_eq!(workers, 4);
    std::thread::sleep(Duration::from_millis(500));
    let switched = workers_and_switches().1 - before;
    // One spurious wake-up per worker; a 50 ms poll makes about ten each.
    assert!(switched <= 4, "4 idle workers switched {switched} times");
    // And they still wake for work.
    assert_eq!(dispatcher.submit(|| 6 * 7).unwrap().wait(), 42);
}
