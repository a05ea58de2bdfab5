//! The blocking connection runtime under the HTTP server and the MQTT
//! broker: one thread blocked in `accept`, one thread per connection
//! blocked in `read`, and no timer.  [`Server::shutdown`] wakes `accept`
//! with one loopback self-connect and ends every connection by shutting
//! its socket down, so an idle server wakes no thread.

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A clone of every open connection's socket, by accept number.
// lint: allow(std-sync-lock) -- dcdb-http is dependency-free by design
type Conns = Arc<std::sync::Mutex<HashMap<u64, TcpStream>>>;

/// Removes its connection from [`Conns`] when the connection thread ends,
/// by return or by panic.  That clone is the socket's last descriptor, so
/// the peer sees the close only once the entry is gone.
struct Registered(Conns, u64);

impl Drop for Registered {
    fn drop(&mut self) {
        self.0.lock().expect("connection registry").remove(&self.1);
    }
}

/// A running accept loop; dropping it shuts it down.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Conns,
    accept_thread: Option<JoinHandle<()>>,
}

/// Accept connections on `listener` and run `per_conn` on each, one thread
/// per connection.  Threads are named `{thread_name}-accept` and
/// `{thread_name}-conn`.
///
/// # Errors
/// When the listener's address cannot be read or the accept thread cannot
/// be spawned.
pub fn serve(
    listener: TcpListener,
    thread_name: &str,
    per_conn: impl Fn(TcpStream) + Send + Sync + 'static,
) -> io::Result<Server> {
    let (addr, stop, conns) =
        (listener.local_addr()?, Arc::<AtomicBool>::default(), Conns::default());
    let (stop_a, conns_a, per_conn) = (Arc::clone(&stop), Arc::clone(&conns), Arc::new(per_conn));
    let conn_name = format!("{thread_name}-conn");
    let accept =
        std::thread::Builder::new().name(format!("{thread_name}-accept")).spawn(move || {
            for (id, stream) in (0u64..).zip(listener.incoming()) {
                let Ok(stream) = stream else { return };
                if stop_a.load(Ordering::SeqCst) {
                    return;
                }
                // registered before its thread exists, so a shutdown that has
                // joined this loop finds every connection it accepted
                let Ok(clone) = stream.try_clone() else { continue };
                conns_a.lock().expect("connection registry").insert(id, clone);
                let registered = Registered(Arc::clone(&conns_a), id);
                let per_conn = Arc::clone(&per_conn);
                // a failed spawn drops the closure, and with it the registration
                let _ = std::thread::Builder::new().name(conn_name.clone()).spawn(move || {
                    let _registered = registered;
                    per_conn(stream);
                });
            }
        })?;
    Ok(Server { addr, stop, conns, accept_thread: Some(accept) })
}

impl Server {
    /// Bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections open now.
    #[cfg(test)]
    pub(crate) fn connections(&self) -> usize {
        self.conns.lock().expect("connection registry").len()
    }

    /// Stop accepting, close the listener, and end every open connection
    /// by shutting its socket down.  Idempotent.
    pub fn shutdown(&mut self) {
        let Some(accept) = self.accept_thread.take() else { return };
        self.stop.store(true, Ordering::SeqCst);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            let v6 = wake.is_ipv6();
            wake.set_ip(if v6 { Ipv6Addr::LOCALHOST.into() } else { Ipv4Addr::LOCALHOST.into() });
        }
        // unwoken, the loop ends at its next accept; joining it could hang
        if TcpStream::connect(wake).is_ok() {
            let _ = accept.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().expect("connection registry"));
        for conn in conns.values() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_wakes_a_listener_bound_to_the_unspecified_address() {
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut server = serve(listener, "test", drop).unwrap();
        server.shutdown();
        assert!(server.accept_thread.is_none());
        assert!(TcpStream::connect(("127.0.0.1", addr.port())).is_err(), "listener closed");
    }
}
