//! Raw epoll/eventfd/timerfd bindings.
//!
//! We vendor every dependency, so there is no `libc` crate to lean on:
//! these are hand-written `extern "C"` declarations against the libc
//! that `std` already links. Only the handful of calls the reactor
//! needs are declared, each wrapped in a safe, fd-owning type.
//!
//! Portability note: `struct epoll_event` is declared
//! `__attribute__((packed))` on x86-64 (and only there) in the kernel
//! headers, hence the conditional `repr`.

use std::io;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
/// Wake only one of the epoll instances (and so one of the threads)
/// waiting on this fd. Set at `add`, never with [`EPOLLONESHOT`].
pub const EPOLLEXCLUSIVE: u32 = 1 << 28;
/// Report one event, then stay silent until the next `modify`.
pub const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const CLOCK_MONOTONIC: i32 = 1;
const TFD_CLOEXEC: i32 = 0o2000000;
const TFD_NONBLOCK: i32 = 0o4000;

const EINTR: i32 = 4;

const MSG_PEEK: i32 = 0x02;
const MSG_DONTWAIT: i32 = 0x40;

#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    /// Caller-chosen token, echoed back on readiness.
    pub data: u64,
}

impl EpollEvent {
    pub const fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

/// `struct timespec` / `struct itimerspec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Itimerspec {
    it_interval: Timespec,
    it_value: Timespec,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn timerfd_create(clockid: i32, flags: i32) -> i32;
    fn timerfd_settime(fd: i32, flags: i32, new: *const Itimerspec, old: *mut Itimerspec) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Is the blocking socket `fd` open with nothing to read? One
/// `recv(MSG_PEEK | MSG_DONTWAIT)`: only "would block" means quiet —
/// EOF, an error or unsolicited bytes all mean the socket cannot carry
/// another request/response exchange.
pub fn socket_is_quiet(fd: i32) -> bool {
    let mut probe = 0u8;
    // SAFETY: `probe` is one writable byte and the length passed is 1.
    let n = unsafe { recv(fd, &mut probe, 1, MSG_PEEK | MSG_DONTWAIT) };
    n < 0 && io::Error::last_os_error().kind() == io::ErrorKind::WouldBlock
}

/// `read(2)` from `fd` straight into the spare capacity of `buf` (no
/// zero-fill, no bounce buffer), retrying on `EINTR`. The caller
/// reserves the room; with none to spare this reads 0 bytes.
pub fn read_into_spare(fd: i32, buf: &mut Vec<u8>) -> io::Result<usize> {
    let spare = buf.spare_capacity_mut();
    let (ptr, room) = (spare.as_mut_ptr().cast::<u8>(), spare.len());
    loop {
        // SAFETY: `ptr` addresses `room` writable bytes owned by `buf`;
        // the kernel writes at most `room` of them.
        let n = unsafe { read(fd, ptr, room) };
        if n >= 0 {
            // SAFETY: the kernel initialised the first `n <= room`
            // bytes past `len`, all within the capacity.
            unsafe { buf.set_len(buf.len() + n as usize) };
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(err);
        }
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: i32,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) }).map(|_| ())
    }

    pub fn add(&self, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    pub fn modify(&self, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    pub fn delete(&self, fd: i32) -> io::Result<()> {
        // The event argument is ignored for DEL (non-null for pre-2.6.9
        // kernels, per the man page).
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness; `timeout_ms < 0` blocks indefinitely.
    /// Returns the number of events written into `events`. EINTR is
    /// retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.raw_os_error() != Some(EINTR) {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// An owned eventfd used to wake an `epoll_wait` from another thread
/// (lifecycle flag flips, work parked on the pending list).
pub struct EventFd {
    fd: i32,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    pub fn raw_fd(&self) -> i32 {
        self.fd
    }

    /// Post one wakeup. Never blocks: the counter saturating (EAGAIN)
    /// already means a wake is pending.
    pub fn notify(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, &one as *const u64 as *const u8, 8) };
    }

    /// Consume all pending wakeups.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// An owned one-shot monotonic timerfd: the wheel's next due time as a
/// readable fd, so a deadline wakes whichever thread `epoll_wait`
/// picks instead of being somebody's `epoll_wait` timeout.
pub struct TimerFd {
    fd: i32,
}

impl TimerFd {
    pub fn new() -> io::Result<TimerFd> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK) })?;
        Ok(TimerFd { fd })
    }

    pub fn raw_fd(&self) -> i32 {
        self.fd
    }

    /// Expire once `after` from now (`None` disarms). A zero duration
    /// would also disarm, so it is rounded up to one nanosecond.
    pub fn set(&self, after: Option<std::time::Duration>) {
        let after = after.map(|d| d.max(std::time::Duration::from_nanos(1)));
        let spec = Itimerspec {
            it_interval: Timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: Timespec {
                tv_sec: after.map_or(0, |d| d.as_secs() as i64),
                tv_nsec: after.map_or(0, |d| i64::from(d.subsec_nanos())),
            },
        };
        // SAFETY: `spec` is a valid itimerspec for the duration of the
        // call; the old value is not requested.
        unsafe { timerfd_settime(self.fd, 0, &spec, std::ptr::null_mut()) };
    }

    /// Consume a pending expiry so the fd stops polling readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is 8 writable bytes, the size a timerfd read
        // returns; the fd is non-blocking.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for TimerFd {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this value and closed exactly once.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let ef = EventFd::new().unwrap();
        ep.add(ef.raw_fd(), EPOLLIN, 7).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "nothing pending yet");

        ef.notify();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, 7);

        ef.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained");
    }

    #[test]
    fn timerfd_wakes_epoll_once_and_can_be_disarmed() {
        let ep = Epoll::new().unwrap();
        let tf = TimerFd::new().unwrap();
        ep.add(tf.raw_fd(), EPOLLIN, 9).unwrap();
        let mut events = [EpollEvent::zeroed(); 2];

        tf.set(Some(std::time::Duration::from_millis(20)));
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "not due yet");
        assert_eq!(ep.wait(&mut events, 2000).unwrap(), 1);
        let token = events[0].data;
        assert_eq!(token, 9);
        tf.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "one-shot");

        tf.set(Some(std::time::Duration::from_millis(20)));
        tf.set(None);
        assert_eq!(ep.wait(&mut events, 60).unwrap(), 0, "disarmed");
    }

    #[test]
    fn oneshot_registration_reports_once_until_rearmed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let ep = Epoll::new().unwrap();
        let interest = EPOLLIN | EPOLLONESHOT;
        ep.add(server_side.as_raw_fd(), interest, 5).unwrap();
        client.write_all(b"x").unwrap();
        let mut events = [EpollEvent::zeroed(); 2];
        assert_eq!(ep.wait(&mut events, 2000).unwrap(), 1);
        assert_eq!(ep.wait(&mut events, 30).unwrap(), 0, "disarmed by delivery");
        // Re-arming re-reports the still-unread byte.
        ep.modify(server_side.as_raw_fd(), interest, 5).unwrap();
        assert_eq!(ep.wait(&mut events, 2000).unwrap(), 1);
    }

    #[test]
    fn socket_readability_reported_with_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(listener.as_raw_fd(), EPOLLIN, 42).unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, 42, "listener became acceptable");

        let (server_side, _) = listener.accept().unwrap();
        ep.add(server_side.as_raw_fd(), EPOLLIN | EPOLLRDHUP, 43)
            .unwrap();
        client.write_all(b"x").unwrap();
        let n = ep.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let (token, ready) = (events[0].data, events[0].events);
        assert_eq!(token, 43);
        assert_ne!(ready & EPOLLIN, 0);

        ep.delete(server_side.as_raw_fd()).unwrap();
        drop(client);
        assert_eq!(
            ep.wait(&mut events, 50).unwrap(),
            0,
            "deregistered fd stays silent"
        );
    }
}
