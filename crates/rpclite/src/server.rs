//! RPC server: accept loop + per-connection concurrent servicing.
//!
//! Each accepted connection gets a thread that receives and decodes
//! requests, drops duplicated frames, and then serves each call one of
//! two ways, as the [`Service`] decides per call:
//!
//! * **Inline** ([`Service::runs_inline`]): the connection thread runs
//!   the call and writes its response before reading the next frame. No
//!   thread is spawned, so a leaf call costs no thread creation, but
//!   inline calls on one connection serialize.
//! * **Spawned** (the default): the call gets its own handler thread,
//!   and the connection thread goes straight back to reading. A slow
//!   call then does not hold back the calls queued behind it.
//!
//! Responses are written back through a mutex-shared clone of the
//! connection (frame writes are atomic) **in completion order, not
//! arrival order**. This is what lets a pipelined client keep many
//! correlation-id-tagged requests in flight.
//!
//! Connection threads poll the server's stop flag between requests and
//! join their outstanding handlers on exit, so
//! [`ServerHandle::shutdown`] tears the whole server down deterministically
//! — after it returns, no call (inline or spawned) is running and no
//! response will be written. Failure-injection tests rely on this to
//! stop a peer node and know it is really gone.

use crate::envelope::{Request, Response, FRAME_REQUEST};
use crate::service::Service;
use ipc::{Listener, StopHandle};
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often an idle connection thread checks the server stop flag.
const CONN_POLL: Duration = Duration::from_millis(20);

/// Ceiling for the idle-poll backoff in `serve_conn`: the longest an
/// idle connection thread sleeps between stop-flag checks.
const IDLE_POLL_CAP: Duration = Duration::from_millis(500);

/// How many recent call ids a connection remembers for duplicate
/// suppression. Duplicated frames arrive adjacent to their original
/// (the network duplicates a frame, not a conversation), so a small
/// window is plenty.
const DEDUP_WINDOW: usize = 1024;

/// Sliding window of recently seen correlation ids, used to drop
/// duplicated request frames instead of executing a call twice. Calls
/// are not idempotent (a duplicated RELEASE would decrement a reference
/// count twice), so at-most-once execution per call id is part of the
/// server's contract.
struct SeenCalls {
    set: std::collections::HashSet<u64>,
    order: std::collections::VecDeque<u64>,
}

impl SeenCalls {
    fn new() -> SeenCalls {
        SeenCalls {
            set: std::collections::HashSet::new(),
            order: std::collections::VecDeque::new(),
        }
    }

    /// Record `call_id`; returns false if it was already seen (duplicate).
    fn first_sighting(&mut self, call_id: u64) -> bool {
        if !self.set.insert(call_id) {
            return false;
        }
        self.order.push_back(call_id);
        if self.order.len() > DEDUP_WINDOW {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }
}

/// Counters exposed by a running server.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests decoded and dispatched to the service.
    pub calls: AtomicU64,
    /// Calls that returned an error status, plus undecodable requests
    /// (each of which also drops its connection).
    pub errors: AtomicU64,
    /// Handler threads spawned for calls the service does not run
    /// inline (see [`Service::runs_inline`]).
    pub handler_threads: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Duplicated request frames dropped without execution (a faulty
    /// network can replay a frame; calls are at-most-once per call id).
    pub duplicates: AtomicU64,
}

/// Handle to a running server; stops accept and connection threads on drop.
pub struct ServerHandle {
    stop: StopHandle,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics: Arc<ServerMetrics>,
    addr: String,
}

impl ServerHandle {
    /// Address clients should connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Counters for this server (calls, errors, connections).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Connection-thread handles currently tracked. Finished handles are
    /// reaped as new connections arrive, so under churn this stays near
    /// the number of *live* connections rather than growing with every
    /// connection ever accepted.
    pub fn tracked_connections(&self) -> usize {
        self.conn_threads.lock().len()
    }

    /// Stop the server and wait until it is fully quiescent: the accept
    /// loop has exited and every connection thread has finished its
    /// in-flight request and returned. Clients see dead connections on
    /// their next exchange.
    pub fn shutdown(&mut self) {
        self.stop.stop();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let threads = std::mem::take(&mut *self.conn_threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawn a server on `listener`, dispatching to `service`.
pub fn serve(mut listener: Box<dyn Listener>, service: Arc<dyn Service>) -> ServerHandle {
    let stop = listener.stop_handle();
    let metrics = Arc::new(ServerMetrics::default());
    let addr = listener.addr();
    let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept_metrics = Arc::clone(&metrics);
    let accept_stop = stop.clone();
    let accept_threads = Arc::clone(&conn_threads);
    let accept_thread = std::thread::Builder::new()
        .name(format!("rpc-accept:{addr}"))
        .spawn(move || loop {
            match listener.accept() {
                Ok(conn) => {
                    accept_metrics.connections.fetch_add(1, Ordering::Relaxed);
                    let svc = Arc::clone(&service);
                    let m = Arc::clone(&accept_metrics);
                    let conn_stop = accept_stop.clone();
                    let handle = std::thread::Builder::new()
                        .name("rpc-conn".to_string())
                        .spawn(move || serve_conn(conn, svc, m, conn_stop))
                        .expect("spawn rpc connection thread");
                    // Reap handles of connections that have since closed,
                    // so churny long-lived servers don't accumulate one
                    // JoinHandle per connection ever accepted.
                    let mut threads = accept_threads.lock();
                    threads.retain(|t| !t.is_finished());
                    threads.push(handle);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => return,
                Err(_) => return,
            }
        })
        .expect("spawn rpc accept thread");
    ServerHandle {
        stop,
        accept_thread: Some(accept_thread),
        conn_threads,
        metrics,
        addr,
    }
}

/// Execute one decoded request against `service`, counting the call and
/// any error status.
fn execute(service: &dyn Service, metrics: &ServerMetrics, req: Request) -> Response {
    metrics.calls.fetch_add(1, Ordering::Relaxed);
    let result = service.call(req.method, req.body);
    if result.is_err() {
        metrics.errors.fetch_add(1, Ordering::Relaxed);
    }
    Response {
        call_id: req.call_id,
        result,
    }
}

fn serve_conn(
    mut conn: Box<dyn ipc::Conn>,
    service: Arc<dyn Service>,
    metrics: Arc<ServerMetrics>,
    stop: StopHandle,
) {
    // Poll the stop flag between requests so shutdown can join this
    // thread even while the client connection stays open. The timeout
    // only bounds stop-flag latency — an arriving frame wakes the parked
    // recv immediately — so idle connections back off exponentially to
    // keep a large simulated fabric from burning the host CPU on idle
    // wakeups, snapping back to the floor when traffic resumes.
    if conn.set_recv_timeout(Some(CONN_POLL)).is_err() {
        return;
    }
    let mut poll = CONN_POLL;
    // Inline calls and spawned handlers share the write half of the
    // connection behind a mutex; frames are written atomically, so
    // responses interleave cleanly in completion order.
    let writer: Arc<Mutex<Box<dyn ipc::Conn>>> = match conn.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // Per-connection duplicate suppression (see `SeenCalls`). Only this
    // thread consults it, before any execution starts.
    let mut seen = SeenCalls::new();
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if stop.is_stopped() {
            break;
        }
        let frame = match conn.recv() {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                // Idle: re-check stop and reap finished handlers so a
                // long-lived connection doesn't accumulate handles.
                handlers.retain(|h| !h.is_finished());
                let next = (poll * 2).min(IDLE_POLL_CAP);
                if next != poll && conn.set_recv_timeout(Some(next)).is_ok() {
                    poll = next;
                }
                continue;
            }
            Err(_) => break, // peer gone
        };
        if poll != CONN_POLL && conn.set_recv_timeout(Some(CONN_POLL)).is_ok() {
            poll = CONN_POLL;
        }
        if frame.msg_type != FRAME_REQUEST {
            // Protocol violation: drop the connection.
            break;
        }
        let Ok(req) = Request::from_frame(&frame) else {
            // Corrupt or truncated request: its call id cannot be
            // trusted, so no response could reach the caller. Dropping
            // the connection fails the caller's in-flight calls fast
            // with a retryable transport error instead.
            metrics.errors.fetch_add(1, Ordering::Relaxed);
            break;
        };
        if !seen.first_sighting(req.call_id) {
            // Duplicated frame: the original execution's response
            // answers the client; executing again would double a
            // non-idempotent call.
            metrics.duplicates.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if service.runs_inline(req.method, &req.body) {
            let response = execute(&*service, &metrics, req);
            let _ = writer.lock().send(&response.to_frame());
            continue;
        }
        metrics.handler_threads.fetch_add(1, Ordering::Relaxed);
        let svc = Arc::clone(&service);
        let m = Arc::clone(&metrics);
        let w = Arc::clone(&writer);
        let handle = std::thread::Builder::new()
            .name("rpc-handler".to_string())
            .spawn(move || {
                let response = execute(&*svc, &m, req);
                let _ = w.lock().send(&response.to_frame());
            })
            .expect("spawn rpc handler thread");
        handlers.retain(|h| !h.is_finished());
        handlers.push(handle);
    }
    // Drain in-flight handlers before tearing the connection down, so
    // shutdown keeps its "no handler survives" guarantee.
    for h in handlers {
        let _ = h.join();
    }
}
