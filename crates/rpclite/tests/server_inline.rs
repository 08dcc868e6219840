//! Server dispatch: inline versus spawned calls, duplicate suppression on
//! the inline path, shutdown while an inline call runs, and undecodable
//! requests.

use bytes::Bytes;
use ipc::{Conn, Direction, FaultAction, FaultConn, FaultPolicy, Frame, InprocHub};
use parking_lot::Mutex;
use rpclite::{MethodId, RpcClient, RpcError, Service, Status};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Echo service that counts executions and declares method 1 inline.
#[derive(Default)]
struct Counting {
    executed: AtomicU64,
}

impl Service for Counting {
    fn call(&self, _method: MethodId, request: Bytes) -> Result<Bytes, Status> {
        self.executed.fetch_add(1, Ordering::SeqCst);
        Ok(request)
    }

    fn runs_inline(&self, method: MethodId, _request: &Bytes) -> bool {
        method == 1
    }
}

/// Applies `action` to the first outbound frame, delivers the rest.
struct FirstOutbound(Mutex<Option<FaultAction>>);

impl FirstOutbound {
    fn new(action: FaultAction) -> Arc<Self> {
        Arc::new(FirstOutbound(Mutex::new(Some(action))))
    }
}

impl FaultPolicy for FirstOutbound {
    fn on_frame(&self, _link: &str, dir: Direction, _frame: &Frame) -> FaultAction {
        match dir {
            Direction::Outbound => self.0.lock().take().unwrap_or(FaultAction::Deliver),
            Direction::Inbound => FaultAction::Deliver,
        }
    }
}

fn faulty_client(hub: &InprocHub, name: &str, policy: Arc<dyn FaultPolicy>) -> RpcClient {
    let conn = Box::new(hub.connect(name).unwrap()) as Box<dyn Conn>;
    RpcClient::new(Box::new(FaultConn::wrap(conn, "client->server", policy)))
}

#[test]
fn inline_methods_spawn_no_handler_threads() {
    let hub = InprocHub::new();
    let svc = Arc::new(Counting::default());
    let srv = rpclite::serve(Box::new(hub.bind("mixed").unwrap()), svc.clone());
    let client = RpcClient::new(Box::new(hub.connect("mixed").unwrap()));
    for _ in 0..10 {
        client.call(1, Bytes::from_static(b"inline")).unwrap();
    }
    assert_eq!(srv.metrics().handler_threads.load(Ordering::Relaxed), 0);
    client.call(2, Bytes::from_static(b"spawned")).unwrap();
    assert_eq!(srv.metrics().handler_threads.load(Ordering::Relaxed), 1);
    assert_eq!(srv.metrics().calls.load(Ordering::Relaxed), 11);
    assert_eq!(svc.executed.load(Ordering::SeqCst), 11);
}

#[test]
fn duplicated_inline_request_executes_once() {
    let hub = InprocHub::new();
    let svc = Arc::new(Counting::default());
    let srv = rpclite::serve(Box::new(hub.bind("dup").unwrap()), svc.clone());
    let client = faulty_client(&hub, "dup", FirstOutbound::new(FaultAction::Duplicate));
    assert_eq!(&client.call(1, Bytes::from_static(b"a")).unwrap()[..], b"a");
    // The connection thread reads frames in order, so by the time this
    // call is answered the duplicate ahead of it has been dropped.
    assert_eq!(&client.call(1, Bytes::from_static(b"b")).unwrap()[..], b"b");
    assert_eq!(svc.executed.load(Ordering::SeqCst), 2);
    assert_eq!(srv.metrics().duplicates.load(Ordering::Relaxed), 1);
    assert_eq!(srv.metrics().calls.load(Ordering::Relaxed), 2);
}

/// Inline service whose call announces it started, then blocks until
/// released.
struct Gate {
    started: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl Service for Gate {
    fn call(&self, _method: MethodId, request: Bytes) -> Result<Bytes, Status> {
        self.started.lock().send(()).unwrap();
        self.release.lock().recv().unwrap();
        Ok(request)
    }

    fn runs_inline(&self, _method: MethodId, _request: &Bytes) -> bool {
        true
    }
}

#[test]
fn shutdown_waits_for_an_inline_call_to_answer() {
    let hub = InprocHub::new();
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let svc = Arc::new(Gate {
        started: Mutex::new(started_tx),
        release: Mutex::new(release_rx),
    });
    let mut srv = rpclite::serve(Box::new(hub.bind("gate").unwrap()), svc);
    let client = RpcClient::new(Box::new(hub.connect("gate").unwrap()));
    let pending = client
        .call_async(1, Bytes::from_static(b"in flight"))
        .unwrap();
    started_rx.recv().unwrap();

    let (done_tx, done_rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        srv.shutdown();
        done_tx.send(()).unwrap();
    });
    // The inline call is still blocked, so shutdown cannot have returned.
    assert!(
        done_rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "shutdown returned while an inline call was running"
    );
    release_tx.send(()).unwrap();
    done_rx.recv().unwrap();
    stopper.join().unwrap();
    // The response was written before the connection thread exited.
    assert_eq!(&pending.wait().unwrap()[..], b"in flight");
}

fn undecodable_request_fails_fast(action: FaultAction) {
    let hub = InprocHub::new();
    let svc = Arc::new(Counting::default());
    let srv = rpclite::serve(Box::new(hub.bind("bad").unwrap()), svc.clone());
    let client = faulty_client(&hub, "bad", FirstOutbound::new(action));
    // No deadline: before the server dropped the connection, the caller
    // of a corrupted request waited forever for a response addressed to
    // call id 0.
    let (tx, rx) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        tx.send(client.call(1, Bytes::from_static(b"payload")))
            .unwrap();
    });
    let result = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("call on a corrupted request hung");
    caller.join().unwrap();
    let err = result.unwrap_err();
    assert!(matches!(err, RpcError::Transport(_)), "got {err}");
    assert!(err.is_retryable());
    assert_eq!(svc.executed.load(Ordering::SeqCst), 0);
    assert_eq!(srv.metrics().errors.load(Ordering::Relaxed), 1);
}

#[test]
fn corrupted_request_fails_the_call_instead_of_hanging() {
    undecodable_request_fails_fast(FaultAction::Corrupt {
        offset: 6,
        mask: 0x5A,
    });
}

#[test]
fn truncated_request_fails_the_call_instead_of_hanging() {
    undecodable_request_fails_fast(FaultAction::Truncate { keep: 3 });
}
