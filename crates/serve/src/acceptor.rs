//! The accept loop shared by the HTTP listener and the distributed
//! worker-protocol listener.
//!
//! The acceptor blocks in `accept()` and wakes only for a connection: a
//! client's, or the one [`stop_and_wake`] opens to its own listener after
//! setting the stop flag. The flag is checked after every accept, so a
//! drain is seen at once and no request waits on a poll interval.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Pause after a failed `accept()` (e.g. `EMFILE`) so a persistent error
/// does not spin the thread.
const ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Bound on the wake-up connect; a loopback connect to a live listener
/// completes at once, and a closed one is refused at once.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Accepts connections on `listener` and hands each to `serve` until
/// `stop` is set or `serve` returns `false`. The connection whose accept
/// finds the flag set (normally the wake-up) is dropped unserved, and so
/// is the listener on return: later connects are refused.
pub(crate) fn accept_until(
    listener: TcpListener,
    stop: &AtomicBool,
    mut serve: impl FnMut(TcpStream) -> bool,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                if !serve(stream) {
                    return;
                }
            }
            Err(_) => std::thread::sleep(ERROR_BACKOFF),
        }
    }
}

/// Sets `stop`, then connects once to the listener bound at `addr` so its
/// blocked [`accept_until`] returns and sees the flag.
pub(crate) fn stop_and_wake(stop: &AtomicBool, addr: SocketAddr) {
    stop.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect_timeout(&wake_target(addr), WAKE_TIMEOUT);
}

/// The address a wake-up connects to: the listener's own, with an
/// unspecified bind address (`0.0.0.0` / `[::]`) mapped to loopback.
fn wake_target(addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => {
            SocketAddr::new(Ipv4Addr::LOCALHOST.into(), addr.port())
        }
        IpAddr::V6(ip) if ip.is_unspecified() => {
            SocketAddr::new(Ipv6Addr::LOCALHOST.into(), addr.port())
        }
        _ => addr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    #[test]
    fn unspecified_bind_addresses_wake_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:81".parse().unwrap();
        let v6: SocketAddr = "[::]:82".parse().unwrap();
        let bound: SocketAddr = "192.0.2.7:83".parse().unwrap();
        assert_eq!(wake_target(v4), "127.0.0.1:81".parse().unwrap());
        assert_eq!(wake_target(v6), "[::1]:82".parse().unwrap());
        assert_eq!(wake_target(bound), bound);
    }

    #[test]
    fn serves_connections_then_stops_on_the_wake_without_serving_it() {
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_until(listener, &stop, |s| tx.send(s).is_ok()))
        };
        let client = TcpStream::connect(wake_target(addr)).unwrap();
        let served = rx.recv_timeout(Duration::from_secs(2)).expect("connection served");
        assert_eq!(served.peer_addr().unwrap(), client.local_addr().unwrap());

        stop_and_wake(&stop, addr);
        acceptor.join().unwrap();
        assert!(rx.try_recv().is_err(), "the wake-up connection must not be served");
        assert!(TcpStream::connect(wake_target(addr)).is_err(), "listener closes on return");
    }
}
