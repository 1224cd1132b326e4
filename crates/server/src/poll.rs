//! A tiny std-only readiness poller behind the accept loop and the workers.
//!
//! The workspace vendors no async runtime and no `libc` crate, so the
//! server talks to the kernel's readiness APIs directly: `epoll(7)` on
//! Linux (O(ready) wakeups, the only backend that makes 10k+ connections
//! cheap), `poll(2)` on other unix systems, and a degraded timed-tick
//! backend everywhere else (every registered token reports ready each
//! tick; level-triggered callers stay correct, just busier). Both unix
//! backends are raw `extern "C"` declarations against the platform libc
//! that `std` already links — the same zero-dependency stance as
//! [`crate::signal`].
//!
//! The poller is level-triggered: a token keeps reporting ready while the
//! condition holds, so a caller that does not fully drain a socket is
//! woken again instead of hanging. Cross-thread wakeups go through a
//! [`Waker`] (a nonblocking [`std::os::unix::net::UnixStream`] pair on
//! unix; a flag on the fallback), which surfaces as a readable event on
//! the reserved [`WAKE_TOKEN`].

/// Token reserved for the cross-thread [`Waker`]; never used for a
/// connection or listener registration.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollEvent {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// Reading would make progress (data, EOF, or a pending error).
    pub readable: bool,
    /// Writing would make progress.
    pub writable: bool,
}

/// Interest set for a registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Watch for readability.
    pub read: bool,
    /// Watch for writability.
    pub write: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

#[cfg(unix)]
pub(crate) use imp::{fd_of, fd_of_listener, Poller, Waker};

#[cfg(not(unix))]
pub(crate) use fallback::{fd_of, fd_of_listener, Poller, Waker};

#[cfg(unix)]
mod imp {
    use super::{Interest, PollEvent, WAKE_TOKEN};
    use std::io::{self, Read, Write};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;
    use std::time::Duration;

    /// The raw fd of a connection socket, as the poller's registration key.
    pub(crate) fn fd_of(stream: &std::net::TcpStream) -> RawFd {
        stream.as_raw_fd()
    }

    /// The raw fd of the listening socket.
    pub(crate) fn fd_of_listener(listener: &std::net::TcpListener) -> RawFd {
        listener.as_raw_fd()
    }

    /// Cross-thread wakeup handle: writing one byte makes the poller's
    /// current (or next) wait return with a readable [`WAKE_TOKEN`] event.
    /// The socketpair is nonblocking; a full pipe means a wakeup is already
    /// pending, which is exactly as good as another one.
    #[derive(Clone)]
    pub(crate) struct Waker {
        tx: Arc<UnixStream>,
    }

    impl Waker {
        pub(crate) fn wake(&self) {
            let _ = (&*self.tx).write(&[1u8]);
        }
    }

    #[cfg(target_os = "linux")]
    mod backend {
        use super::super::{Interest, PollEvent, WAKE_TOKEN};
        use std::io;
        use std::os::unix::io::RawFd;
        use std::time::Duration;

        const EPOLL_CTL_ADD: i32 = 1;
        const EPOLL_CTL_DEL: i32 = 2;
        const EPOLL_CTL_MOD: i32 = 3;
        const EPOLLIN: u32 = 0x001;
        const EPOLLOUT: u32 = 0x004;
        const EPOLLERR: u32 = 0x008;
        const EPOLLHUP: u32 = 0x010;
        const EPOLLRDHUP: u32 = 0x2000;
        const EPOLL_CLOEXEC: i32 = 0o2000000;

        /// Matches the kernel's `struct epoll_event` ABI on every Linux
        /// target: x86-64 packs it to 12 bytes, which `repr(C, packed)`
        /// reproduces (and on other architectures the layout is identical
        /// because both fields are naturally ordered).
        #[repr(C, packed)]
        #[derive(Clone, Copy)]
        struct EpollEvent {
            events: u32,
            data: u64,
        }

        // SAFETY contract for the declarations: these are the documented
        // Linux syscall wrappers from the libc that std already links; the
        // signatures match epoll_create1(2)/epoll_ctl(2)/epoll_wait(2)/
        // close(2).
        #[allow(unsafe_code)]
        extern "C" {
            fn epoll_create1(flags: i32) -> i32;
            fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
            fn close(fd: i32) -> i32;
        }

        fn last_error() -> io::Error {
            io::Error::last_os_error()
        }

        /// The Linux backend: one epoll instance, tokens carried in
        /// `epoll_data`.
        pub(crate) struct Selector {
            epfd: i32,
            buf: Vec<EpollEvent>,
        }

        impl Selector {
            pub(crate) fn new() -> io::Result<Selector> {
                // SAFETY: epoll_create1 takes a flag word and returns a new
                // fd or -1; no pointers are involved.
                #[allow(unsafe_code)]
                let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
                if epfd < 0 {
                    return Err(last_error());
                }
                Ok(Selector {
                    epfd,
                    buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
                })
            }

            fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
                let mut ev = EpollEvent {
                    events: {
                        let mut e = EPOLLRDHUP;
                        if interest.read {
                            e |= EPOLLIN;
                        }
                        if interest.write {
                            e |= EPOLLOUT;
                        }
                        e
                    },
                    data: token,
                };
                // SAFETY: `ev` is a valid, initialized epoll_event for the
                // duration of the call; the kernel copies it and keeps no
                // reference past return.
                #[allow(unsafe_code)]
                let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
                if rc < 0 {
                    return Err(last_error());
                }
                Ok(())
            }

            pub(crate) fn register(
                &mut self,
                fd: RawFd,
                token: u64,
                interest: Interest,
            ) -> io::Result<()> {
                self.ctl(EPOLL_CTL_ADD, fd, token, interest)
            }

            pub(crate) fn reregister(
                &mut self,
                fd: RawFd,
                token: u64,
                interest: Interest,
            ) -> io::Result<()> {
                self.ctl(EPOLL_CTL_MOD, fd, token, interest)
            }

            pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
                let mut ev = EpollEvent { events: 0, data: 0 };
                // SAFETY: a non-null event pointer is required pre-2.6.9;
                // otherwise as `ctl` above.
                #[allow(unsafe_code)]
                let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
                if rc < 0 {
                    return Err(last_error());
                }
                Ok(())
            }

            pub(crate) fn wait(
                &mut self,
                timeout: Option<Duration>,
                out: &mut Vec<PollEvent>,
            ) -> io::Result<()> {
                let ms = timeout
                    .map(|t| t.as_millis().min(i32::MAX as u128) as i32)
                    .unwrap_or(-1);
                // SAFETY: `buf` is a live, writable array of `buf.len()`
                // initialized epoll_events; the kernel writes at most that
                // many entries and returns the count.
                #[allow(unsafe_code)]
                let n = unsafe {
                    epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, ms)
                };
                if n < 0 {
                    let e = last_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(e);
                }
                for ev in &self.buf[..n as usize] {
                    let events = ev.events;
                    let hup = events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0;
                    out.push(PollEvent {
                        token: ev.data,
                        // Errors and hangups surface as readability: the
                        // next read reports the error or EOF.
                        readable: events & EPOLLIN != 0 || hup,
                        writable: events & EPOLLOUT != 0 || events & (EPOLLERR | EPOLLHUP) != 0,
                    });
                }
                if n as usize == self.buf.len() && self.buf.len() < 16 * 1024 {
                    let grow = self.buf.len() * 2;
                    self.buf.resize(grow, EpollEvent { events: 0, data: 0 });
                }
                Ok(())
            }
        }

        impl Drop for Selector {
            fn drop(&mut self) {
                // SAFETY: closing an fd this struct exclusively owns.
                #[allow(unsafe_code)]
                unsafe {
                    close(self.epfd);
                }
            }
        }

        pub(crate) const WAKE: u64 = WAKE_TOKEN;
    }

    #[cfg(not(target_os = "linux"))]
    mod backend {
        use super::super::{Interest, PollEvent, WAKE_TOKEN};
        use std::io;
        use std::os::unix::io::RawFd;
        use std::time::Duration;

        const POLLIN: i16 = 0x001;
        const POLLOUT: i16 = 0x004;
        const POLLERR: i16 = 0x008;
        const POLLHUP: i16 = 0x010;

        /// Matches `struct pollfd` from poll(2) on every unix.
        #[repr(C)]
        #[derive(Clone, Copy)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }

        // SAFETY contract: the documented poll(2) wrapper from the libc
        // std already links.
        #[allow(unsafe_code)]
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        }

        /// The portable unix backend: a rebuilt pollfd array per wait.
        /// O(registered) per call, which is fine for the test-scale use
        /// this backend sees; Linux (the deployment target) uses epoll.
        pub(crate) struct Selector {
            regs: Vec<(RawFd, u64, Interest)>,
        }

        impl Selector {
            pub(crate) fn new() -> io::Result<Selector> {
                Ok(Selector { regs: Vec::new() })
            }

            pub(crate) fn register(
                &mut self,
                fd: RawFd,
                token: u64,
                interest: Interest,
            ) -> io::Result<()> {
                self.regs.push((fd, token, interest));
                Ok(())
            }

            pub(crate) fn reregister(
                &mut self,
                fd: RawFd,
                token: u64,
                interest: Interest,
            ) -> io::Result<()> {
                if let Some(slot) = self.regs.iter_mut().find(|(f, _, _)| *f == fd) {
                    *slot = (fd, token, interest);
                    Ok(())
                } else {
                    self.register(fd, token, interest)
                }
            }

            pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
                self.regs.retain(|(f, _, _)| *f != fd);
                Ok(())
            }

            pub(crate) fn wait(
                &mut self,
                timeout: Option<Duration>,
                out: &mut Vec<PollEvent>,
            ) -> io::Result<()> {
                let mut fds: Vec<PollFd> = self
                    .regs
                    .iter()
                    .map(|(fd, _, i)| PollFd {
                        fd: *fd,
                        events: {
                            let mut e = 0i16;
                            if i.read {
                                e |= POLLIN;
                            }
                            if i.write {
                                e |= POLLOUT;
                            }
                            e
                        },
                        revents: 0,
                    })
                    .collect();
                let ms = timeout
                    .map(|t| t.as_millis().min(i32::MAX as u128) as i32)
                    .unwrap_or(-1);
                // SAFETY: `fds` is a live, writable array of exactly
                // `fds.len()` initialized pollfds for the duration of the
                // call.
                #[allow(unsafe_code)]
                let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        return Ok(());
                    }
                    return Err(e);
                }
                for (slot, (_, token, _)) in fds.iter().zip(&self.regs) {
                    if slot.revents == 0 {
                        continue;
                    }
                    let hup = slot.revents & (POLLERR | POLLHUP) != 0;
                    out.push(PollEvent {
                        token: *token,
                        readable: slot.revents & POLLIN != 0 || hup,
                        writable: slot.revents & POLLOUT != 0 || hup,
                    });
                }
                Ok(())
            }
        }

        pub(crate) const WAKE: u64 = WAKE_TOKEN;
    }

    /// The unix poller: a platform selector plus the waker socketpair
    /// (registered under [`WAKE_TOKEN`]).
    pub(crate) struct Poller {
        selector: backend::Selector,
        wake_rx: UnixStream,
        wake_tx: Arc<UnixStream>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            let (wake_tx, wake_rx) = UnixStream::pair()?;
            wake_tx.set_nonblocking(true)?;
            wake_rx.set_nonblocking(true)?;
            let mut selector = backend::Selector::new()?;
            selector.register(wake_rx.as_raw_fd(), backend::WAKE, Interest::READ)?;
            Ok(Poller {
                selector,
                wake_rx,
                wake_tx: Arc::new(wake_tx),
            })
        }

        pub(crate) fn waker(&self) -> Waker {
            Waker {
                tx: Arc::clone(&self.wake_tx),
            }
        }

        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.selector.register(fd, token, interest)
        }

        pub(crate) fn reregister(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.selector.reregister(fd, token, interest)
        }

        pub(crate) fn deregister(&mut self, fd: RawFd, _token: u64) -> io::Result<()> {
            self.selector.deregister(fd)
        }

        /// Wait for readiness; wake events are drained internally and
        /// reported (deduplicated) as one [`WAKE_TOKEN`] entry.
        pub(crate) fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<PollEvent>,
        ) -> io::Result<()> {
            self.selector.wait(timeout, out)?;
            let mut woke = false;
            out.retain(|ev| {
                if ev.token == WAKE_TOKEN {
                    woke = true;
                    false
                } else {
                    true
                }
            });
            if woke {
                let mut sink = [0u8; 64];
                while let Ok(n) = (&self.wake_rx).read(&mut sink) {
                    if n < sink.len() {
                        break;
                    }
                }
                out.push(PollEvent {
                    token: WAKE_TOKEN,
                    readable: true,
                    writable: false,
                });
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
mod fallback {
    use super::{Interest, PollEvent, WAKE_TOKEN};
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Registration key placeholder on platforms without raw fds.
    pub(crate) type RawFd = i32;

    pub(crate) fn fd_of(_stream: &std::net::TcpStream) -> RawFd {
        0
    }

    pub(crate) fn fd_of_listener(_listener: &std::net::TcpListener) -> RawFd {
        0
    }

    #[derive(Clone)]
    pub(crate) struct Waker {
        flag: Arc<AtomicBool>,
    }

    impl Waker {
        pub(crate) fn wake(&self) {
            self.flag.store(true, Ordering::Release);
        }
    }

    /// Degraded timed-tick poller: every registered token reports ready
    /// each tick. Level-triggered callers stay correct (nonblocking I/O
    /// simply returns `WouldBlock`), at a fixed polling cost.
    pub(crate) struct Poller {
        regs: Vec<(u64, Interest)>,
        flag: Arc<AtomicBool>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Ok(Poller {
                regs: Vec::new(),
                flag: Arc::new(AtomicBool::new(false)),
            })
        }

        pub(crate) fn waker(&self) -> Waker {
            Waker {
                flag: Arc::clone(&self.flag),
            }
        }

        pub(crate) fn register(
            &mut self,
            _fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.regs.push((token, interest));
            Ok(())
        }

        pub(crate) fn reregister(
            &mut self,
            _fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            if let Some(slot) = self.regs.iter_mut().find(|(t, _)| *t == token) {
                slot.1 = interest;
            } else {
                self.regs.push((token, interest));
            }
            Ok(())
        }

        pub(crate) fn deregister(&mut self, _fd: RawFd, token: u64) -> io::Result<()> {
            self.regs.retain(|(t, _)| *t != token);
            Ok(())
        }

        pub(crate) fn wait(
            &mut self,
            timeout: Option<Duration>,
            out: &mut Vec<PollEvent>,
        ) -> io::Result<()> {
            let tick = timeout
                .unwrap_or(Duration::from_millis(5))
                .min(Duration::from_millis(5));
            std::thread::sleep(tick);
            if self.flag.swap(false, Ordering::Acquire) {
                out.push(PollEvent {
                    token: WAKE_TOKEN,
                    readable: true,
                    writable: false,
                });
            }
            for (token, interest) in &self.regs {
                out.push(PollEvent {
                    token: *token,
                    readable: interest.read,
                    writable: interest.write,
                });
            }
            Ok(())
        }
    }
}

/// Parse the soft open-files limit from `/proc/self/limits` (Linux), as a
/// conservative connection-count clamp; `None` when unavailable.
pub fn soft_fd_limit() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/limits").ok()?;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("Max open files") {
            let soft = rest.split_whitespace().next()?;
            if soft == "unlimited" {
                return Some(u64::MAX);
            }
            return soft.parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// The selector reports a listener readable once a peer connects, and
    /// a connection readable once bytes arrive — the server's two load-
    /// bearing readiness signals.
    #[test]
    fn poller_reports_accept_and_read_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(fd_of_listener(&listener), 1, Interest::READ)
            .unwrap();

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !events
            .iter()
            .any(|e: &PollEvent| e.token == 1 && e.readable)
        {
            assert!(std::time::Instant::now() < deadline, "accept never ready");
            events.clear();
            poller
                .wait(Some(Duration::from_millis(100)), &mut events)
                .unwrap();
        }
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        poller
            .register(fd_of(&accepted), 2, Interest::READ)
            .unwrap();

        client.write_all(b"ping").unwrap();
        events.clear();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !events
            .iter()
            .any(|e: &PollEvent| e.token == 2 && e.readable)
        {
            assert!(std::time::Instant::now() < deadline, "read never ready");
            events.clear();
            poller
                .wait(Some(Duration::from_millis(100)), &mut events)
                .unwrap();
        }
        poller.deregister(fd_of(&accepted), 2).unwrap();
    }

    /// A waker fired from another thread interrupts an otherwise idle wait.
    #[test]
    fn waker_interrupts_an_idle_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut events = Vec::new();
        let started = std::time::Instant::now();
        let deadline = started + Duration::from_secs(5);
        while !events.iter().any(|e: &PollEvent| e.token == WAKE_TOKEN) {
            assert!(std::time::Instant::now() < deadline, "wake never arrived");
            events.clear();
            poller
                .wait(Some(Duration::from_millis(200)), &mut events)
                .unwrap();
        }
        handle.join().unwrap();
    }
}
