//! The TCP server: accept loop, per-connection reader/writer threads, and
//! the wiring from sockets into the [scheduler](crate::scheduler).
//!
//! Connection lifecycle: on accept the server immediately sends
//! [`Frame::Hello`] (version, domain, native input size, and the hard
//! per-request point limit), then reads
//! frames until EOF. Each [`Frame::Infer`] is submitted to the scheduler;
//! replies flow back through a per-connection channel drained by a writer
//! thread, so slow dispatches never block the reader and responses from
//! several dispatchers interleave correctly across connections. A malformed
//! frame gets a typed [`ErrorCode::Malformed`] reply and closes the
//! connection — the byte stream can no longer be trusted after a framing
//! error.

use crate::protocol::{
    read_frame, write_frame, ErrorCode, Frame, ServerStats, MAX_POINTS, PROTOCOL_VERSION,
};
use crate::scheduler::{Job, Scheduler};
use mesorasi_networks::Session;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Server knobs. `addr` takes the usual `host:port` form; port 0 binds an
/// ephemeral port (read it back from [`Server::local_addr`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (default `127.0.0.1:0`).
    pub addr: String,
    /// Queued requests beyond which admission control sheds the oldest
    /// (default 64); see the [scheduler](crate::scheduler).
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { addr: "127.0.0.1:0".into(), queue_depth: 64 }
    }
}

/// Tracks live connections so shutdown can unblock readers parked in
/// `read_exact` — no read timeouts means no mid-frame resync hazard, so
/// instead we `Shutdown::Both` every live socket.
#[derive(Default)]
struct ConnTable {
    streams: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
}

/// A running server. Dropping it *without* calling [`Server::shutdown`]
/// leaks the listener thread for the process lifetime; long-lived binaries
/// should shut down explicitly.
pub struct Server {
    addr: std::net::SocketAddr,
    stopping: Arc<AtomicBool>,
    scheduler: Arc<Scheduler>,
    conns: Arc<ConnTable>,
    accept_thread: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `config.addr`, starts the scheduler and accept loop, and
    /// returns immediately; inference runs on `session`'s worker pool.
    pub fn spawn(session: Arc<Session>, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let scheduler = Arc::new(Scheduler::start(Arc::clone(&session), config.queue_depth));
        let stopping = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(ConnTable::default());

        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            domain: session.domain(),
            input_points: session.network().input_points() as u32,
            max_points: MAX_POINTS,
        };

        let accept_thread = {
            let scheduler = Arc::clone(&scheduler);
            let stopping = Arc::clone(&stopping);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new().name("mesorasi-accept".into()).spawn(move || {
                let mut handlers = Vec::new();
                for incoming in listener.incoming() {
                    if stopping.load(Ordering::Acquire) {
                        break;
                    }
                    let stream = match incoming {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let conn_id = conns.next_id.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        lock(&conns.streams).insert(conn_id, clone);
                    }
                    let scheduler = Arc::clone(&scheduler);
                    let hello = hello.clone();
                    let table = Arc::clone(&conns);
                    let spawned = std::thread::Builder::new()
                        .name(format!("mesorasi-conn-{conn_id}"))
                        .spawn(move || {
                            handle_connection(stream, hello, &scheduler);
                            lock(&table.streams).remove(&conn_id);
                        });
                    match spawned {
                        Ok(handler) => handlers.push(handler),
                        // Out of threads: drop this connection (the failed
                        // spawn already dropped `stream`) and keep accepting.
                        Err(_) => {
                            lock(&conns.streams).remove(&conn_id);
                        }
                    }
                }
                handlers
            })?
        };

        Ok(Server { addr, stopping, scheduler, conns, accept_thread: Some(accept_thread) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Current server counters (same numbers a client gets from
    /// [`Frame::Stats`]).
    pub fn stats(&self) -> ServerStats {
        self.scheduler.stats()
    }

    /// Stops accepting, fails queued work as `Unavailable`, closes live
    /// connections, and joins every thread. Idempotent.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else { return };
        self.stopping.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Unblock readers parked mid-`read_exact`.
        for (_, stream) in lock(&self.conns.streams).iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handlers = accept_thread.join().unwrap_or_default();
        for h in handlers {
            let _ = h.join();
        }
        // Scheduler last: connection readers may submit right up until
        // their handlers finish.
        self.scheduler.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs one connection to completion: greet, then read frames and route
/// them, with a dedicated writer thread draining the reply channel.
fn handle_connection(stream: TcpStream, hello: Frame, scheduler: &Scheduler) {
    let _ = stream.set_nodelay(true);
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Frame>();
    let spawned = std::thread::Builder::new()
        .name("mesorasi-conn-writer".into())
        .spawn(move || writer_loop(writer_stream, &rx));
    // Out of threads: returning drops `stream`, which closes the socket.
    let Ok(writer) = spawned else { return };

    if tx.send(hello).is_ok() {
        let mut reader = BufReader::new(stream);
        loop {
            match read_frame(&mut reader) {
                Ok(Frame::Infer { id, cloud }) => {
                    scheduler.submit(Job { id, cloud, reply: tx.clone() });
                }
                Ok(Frame::Stats) => {
                    if tx.send(Frame::StatsResult(scheduler.stats())).is_err() {
                        break;
                    }
                }
                Ok(_) => {
                    // A server-to-client frame arriving at the server is a
                    // confused or hostile peer; same treatment as any
                    // malformed byte stream.
                    scheduler.note_malformed();
                    let _ = tx.send(Frame::Error {
                        id: 0,
                        code: ErrorCode::Malformed,
                        message: "unexpected server-to-client frame kind".into(),
                    });
                    break;
                }
                Err(e) if e.is_malformed() => {
                    scheduler.note_malformed();
                    let _ = tx.send(Frame::Error {
                        id: 0,
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    });
                    break;
                }
                Err(_) => break, // EOF or socket failure: just close.
            }
        }
    }

    // Dropping our sender lets the writer finish once in-flight jobs have
    // replied (each queued Job holds a sender clone until dispatched).
    drop(tx);
    let _ = writer.join();
}

/// Drains the reply channel onto the socket, batching flushes: frames that
/// are already queued go out under one flush.
fn writer_loop(stream: TcpStream, rx: &mpsc::Receiver<Frame>) {
    let mut w = BufWriter::new(stream);
    'conn: while let Ok(mut frame) = rx.recv() {
        loop {
            if write_frame(&mut w, &frame).is_err() {
                break 'conn;
            }
            match rx.try_recv() {
                Ok(next) => frame = next,
                Err(_) => break,
            }
        }
        if w.flush().is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Response};
    use mesorasi_networks::{NetworkKind, SessionBuilder};
    use mesorasi_pointcloud::shapes::{sample_shape, ShapeClass};

    fn serve_small(kind: NetworkKind) -> Server {
        let session = Arc::new(SessionBuilder::from_kind(kind).classes(4).workers(2).build());
        Server::spawn(session, ServerConfig::default()).expect("bind ephemeral port")
    }

    #[test]
    fn serves_inference_over_a_socket() {
        let server = serve_small(NetworkKind::PointNetPPClassification);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let n = client.input_points() as usize;
        let cloud = sample_shape(ShapeClass::Chair, n, 7);
        let inference = client.infer(1, &cloud).expect("inference served");
        let logits = inference.as_classification().expect("classification domain");
        assert_eq!(logits.matrix().shape(), (1, 4));
        assert!(logits.scores().iter().all(|s| s.is_finite()));
        let stats = client.stats().expect("stats frame");
        assert_eq!(stats.served, 1);
        assert_eq!(stats.shed, 0);
        server.shutdown();
    }

    #[test]
    fn detection_results_cross_the_wire_with_both_matrices() {
        let server = serve_small(NetworkKind::FPointNet);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let n = client.input_points() as usize;
        let cloud = sample_shape(ShapeClass::Car, n, 3);
        let inference = client.infer(2, &cloud).expect("inference served");
        match inference {
            mesorasi_networks::Inference::Detection(boxes) => {
                assert_eq!(boxes.seg_logits().rows(), n);
                assert_eq!(boxes.params().shape(), (1, 7));
            }
            other => panic!("expected detection, got {:?}", other.domain()),
        }
        server.shutdown();
    }

    #[test]
    fn served_results_match_local_inference_bit_for_bit() {
        let session = Arc::new(
            SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
                .classes(4)
                .workers(2)
                .build(),
        );
        let server = Server::spawn(Arc::clone(&session), ServerConfig::default()).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let n = client.input_points() as usize;
        let cloud = sample_shape(ShapeClass::Lamp, n, 11);
        let remote = client.infer(3, &cloud).expect("served");
        let local = session.infer(&cloud);
        assert_eq!(remote, local, "the wire must not perturb results");
        server.shutdown();
    }

    #[test]
    fn pipelined_overload_sheds_and_answers_every_request_once() {
        let session = Arc::new(
            SessionBuilder::from_kind(NetworkKind::PointNetPPClassification)
                .classes(4)
                .workers(1)
                .build(),
        );
        let server =
            Server::spawn(session, ServerConfig { queue_depth: 2, ..ServerConfig::default() })
                .expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let n = client.input_points() as usize;
        // Full speed into a depth-2 queue: the first dispatch compiles the
        // plan, so a backlog forms and admission control must engage.
        for id in 0..32u64 {
            let cloud = sample_shape(ShapeClass::Stool, n, id);
            client.send_infer(id, &cloud).expect("send");
        }
        let mut answered = [0u32; 32];
        let (mut ok, mut shed) = (0u64, 0u64);
        for _ in 0..32 {
            let id = match client.recv().expect("every request gets a typed outcome") {
                Response::Result { id, .. } => {
                    ok += 1;
                    id
                }
                Response::Error { id, code, .. } => {
                    assert_eq!(code, ErrorCode::Shed, "request {id}");
                    shed += 1;
                    id
                }
            };
            answered[id as usize] += 1;
        }
        assert!(answered.iter().all(|&a| a == 1), "each id answered once: {answered:?}");
        assert_eq!(ok + shed, 32, "no silent drops");
        assert!(shed > 0, "overload must shed");
        assert_eq!(client.stats().expect("stats").shed, shed);
        server.shutdown();
    }

    #[test]
    fn malformed_frames_get_a_typed_error_and_close_the_connection() {
        use std::io::Read;
        let server = serve_small(NetworkKind::PointNetPPClassification);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        // Consume the hello.
        read_frame(&mut stream).expect("hello");
        // A valid length prefix framing an unknown kind byte.
        stream.write_all(&1u32.to_le_bytes()).expect("write");
        stream.write_all(&[0x6f]).expect("write");
        match read_frame(&mut stream) {
            Ok(Frame::Error { code: ErrorCode::Malformed, message, .. }) => {
                assert!(message.contains("0x6f"), "error names the bad kind: {message}");
            }
            other => panic!("expected a malformed error frame, got {other:?}"),
        }
        // The server hangs up after a framing error.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("clean EOF");
        assert!(rest.is_empty());
        assert_eq!(server.stats().malformed, 1);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_share_the_pool_without_cross_talk() {
        let server = serve_small(NetworkKind::PointNetPPClassification);
        let addr = server.local_addr();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let n = client.input_points() as usize;
                    for i in 0..5u64 {
                        let id = t * 100 + i;
                        let cloud = sample_shape(ShapeClass::Chair, n, t * 31 + i);
                        client.infer(id, &cloud).expect("served");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("client thread");
        }
        let stats = server.stats();
        assert_eq!(stats.served, 20);
        assert_eq!(stats.shed, 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_clean_with_live_idle_connections() {
        let server = serve_small(NetworkKind::PointNetPPClassification);
        let _idle = Client::connect(server.local_addr()).expect("connect");
        // Returns rather than hanging on the parked reader.
        server.shutdown();
    }
}
