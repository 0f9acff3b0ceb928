//! Every wait in the dispatcher sleeps until its event: idle workers
//! until there is work, a waiter and a flusher until their call, job or
//! deadline — no timed poll wakes them. A target of its own, so that no
//! other test's `wsp-worker-*` threads share the process and the count;
//! its tests take `SERIAL` for the same reason.
#![cfg(target_os = "linux")]

use std::sync::Mutex;
use std::time::Duration;
use wsp_core::Dispatcher;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn field(status: &str, name: &str) -> String {
    let line = status.lines().find_map(|line| line.strip_prefix(name));
    line.expect("status field").trim().to_owned()
}

/// The calling thread's voluntary context switches so far.
fn my_switches() -> u64 {
    let status = std::fs::read_to_string("/proc/thread-self/status").expect("status");
    field(&status, "voluntary_ctxt_switches:").parse().unwrap()
}

/// This process's `wsp-worker-*` threads: how many, and their voluntary
/// context switches so far. A thread that exits meanwhile is skipped.
fn workers_and_switches() -> (u64, u64) {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    let status = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("status"));
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
    let _serial = serial();
    let dispatcher = Dispatcher::with_defaults();
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

#[test]
fn a_timed_wait_on_a_silent_call_sleeps_until_its_deadline() {
    let _serial = serial();
    let dispatcher = Dispatcher::with_defaults();
    let (handle, _completer) = dispatcher.register::<u32>(dispatcher.next_token());
    let before = my_switches();
    assert!(handle.wait_timeout(Duration::from_millis(500)).is_err());
    let switched = my_switches() - before;
    // A re-check of the mailbox every 5 ms would make about a hundred.
    assert!(switched <= 4, "a 500 ms wait switched {switched} times");
}

#[test]
fn a_timed_flush_behind_a_held_job_sleeps_until_its_deadline() {
    let _serial = serial();
    let dispatcher = Dispatcher::with_defaults();
    let (release, held) = std::sync::mpsc::channel::<()>();
    dispatcher
        .execute(move || held.recv().expect("released, not dropped"))
        .unwrap();
    let before = my_switches();
    assert!(!dispatcher.flush_within(Duration::from_millis(500)));
    let switched = my_switches() - before;
    // A re-check of the pending count every 5 ms would make about a hundred.
    assert!(switched <= 4, "a 500 ms flush switched {switched} times");
    release.send(()).unwrap();
    assert!(dispatcher.flush_within(Duration::from_secs(30)));
}
