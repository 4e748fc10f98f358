//! The daemon: a nonblocking acceptor feeding a connection queue drained
//! by a `t2opt_parallel::ThreadPool` of request workers, plus dedicated
//! refiner threads draining the refinement queue. Refiners work on
//! different chips side by side, each job on its chip's trial cache (see
//! [`crate::refine`]), so the refined answers do not depend on how many
//! refiners there are. Their jobs all simulate on the service's two trial
//! workers.
//!
//! Shutdown contract: flipping the shutdown flag (via `POST /shutdown`, a
//! signal observed through [`Server::observe_signal`], or the handle from
//! [`Server::shutdown_handle`]) stops the acceptor, lets every worker
//! finish its in-flight request (with a short drain deadline for stalled
//! clients), stops the refiners after their current job, and finally
//! flushes dirty store shards to disk via compaction.

use crate::http::{read_request, write_response, Partial, ReadOutcome, Response};
use crate::refine::RefineQueue;
use crate::service::AdviceService;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use t2opt_parallel::ThreadPool;
use t2opt_telemetry::logger::{log_line, Level};

/// Pool sizes for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Request worker threads (the `ThreadPool` size).
    pub workers: usize,
    /// Background refiner threads. Their jobs share the service's two
    /// trial workers (see `AdviceService::run_refinement`).
    pub refiners: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            refiners: 2,
        }
    }
}

/// A bound-but-not-yet-serving daemon. [`Server::serve`] blocks until
/// shutdown.
pub struct Server {
    listener: TcpListener,
    service: Arc<AdviceService>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    signal: Option<&'static AtomicBool>,
}

/// How long a worker keeps waiting for the rest of a half-received
/// request once shutdown has been requested.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);
/// Read timeout on request sockets — the cadence at which an idle worker
/// rechecks the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(250);

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) over `service`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: AdviceService,
        config: ServerConfig,
    ) -> io::Result<Self> {
        assert!(config.workers > 0, "server needs at least one worker");
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(service),
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            signal: None,
        })
    }

    /// The address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that triggers graceful shutdown when set to `true`.
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// The service behind this server (for metrics inspection in tests).
    pub fn service(&self) -> Arc<AdviceService> {
        Arc::clone(&self.service)
    }

    /// Additionally watch a process-global flag (a signal handler's
    /// `AtomicBool`) for shutdown — SIGTERM/ctrl-c support for `main`.
    pub fn observe_signal(mut self, flag: &'static AtomicBool) -> Self {
        self.signal = Some(flag);
        self
    }

    /// Runs the accept → worker-pool → respond loop until shutdown, then
    /// drains in-flight requests, stops refiners, and flushes the store.
    pub fn serve(self) -> io::Result<()> {
        let Server {
            listener,
            service,
            config,
            shutdown,
            signal,
        } = self;
        listener.set_nonblocking(true)?;
        let conns: ConnQueue = ConnQueue::default();
        let pool = ThreadPool::new(config.workers);
        let queue = service.refine_queue();

        std::thread::scope(|scope| {
            scope.spawn(|| accept_loop(&listener, &conns, &shutdown, signal));
            for _ in 0..config.refiners {
                let service = Arc::clone(&service);
                let queue = Arc::clone(&queue);
                let shutdown = Arc::clone(&shutdown);
                scope.spawn(move || refiner_loop(&service, &queue, &shutdown));
            }
            pool.run(|tid| worker_loop(&conns, &service, &shutdown, tid as u32));
            // Workers are done; wake anyone still parked on the queue.
            conns.signal.notify_all();
        });
        service.store().metrics().publish(&service.sink());
        service.store().compact()
    }
}

/// The pending-connection queue between the acceptor and the workers.
/// Each entry carries its accept time so the request trace's `accept`
/// span can cover the queue wait.
#[derive(Default)]
struct ConnQueue {
    streams: Mutex<VecDeque<(TcpStream, Instant)>>,
    signal: Condvar,
}

fn accept_loop(
    listener: &TcpListener,
    conns: &ConnQueue,
    shutdown: &AtomicBool,
    signal: Option<&'static AtomicBool>,
) {
    loop {
        if signal.is_some_and(|f| f.load(Ordering::Relaxed)) {
            shutdown.store(true, Ordering::Relaxed);
        }
        if shutdown.load(Ordering::Relaxed) {
            conns.signal.notify_all();
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                conns
                    .streams
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push_back((stream, Instant::now()));
                conns.signal.notify_one();
            }
            // Nonblocking listener: idle or transient error — nap and
            // recheck the shutdown flag.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn worker_loop(conns: &ConnQueue, service: &AdviceService, shutdown: &AtomicBool, tid: u32) {
    loop {
        let stream = {
            let mut streams = conns.streams.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(s) = streams.pop_front() {
                    break Some(s);
                }
                if shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                let (guard, _) = conns
                    .signal
                    .wait_timeout(streams, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                streams = guard;
            }
        };
        match stream {
            Some((s, accepted_at)) => handle_connection(s, accepted_at, service, shutdown, tid),
            None => return,
        }
    }
}

fn handle_connection(
    mut stream: TcpStream,
    accepted_at: Instant,
    service: &AdviceService,
    shutdown: &AtomicBool,
    tid: u32,
) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let traces = service.traces();
    // Accept-queue wait: accept() in the acceptor thread until this worker
    // dequeued the connection. Attributed to the connection's first
    // request (later keep-alive requests never waited in that queue).
    let dequeued_at = Instant::now();
    let mut first_request = true;
    let mut pending = Partial::default();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        match read_request(&mut stream, std::mem::take(&mut pending)) {
            Ok(ReadOutcome::Request(req, rest)) => {
                pending = rest;
                let parsed_at = Instant::now();
                let arrived = req.first_byte.unwrap_or(parsed_at);
                let ctx = traces.start_at(
                    format!("{} {}", req.method, req.path),
                    traces.us_of(if first_request { accepted_at } else { arrived }),
                );
                if first_request {
                    ctx.record(
                        "accept",
                        tid,
                        traces.us_of(accepted_at),
                        traces.us_of(dequeued_at) - traces.us_of(accepted_at),
                    );
                    first_request = false;
                }
                ctx.record(
                    "parse",
                    tid,
                    traces.us_of(arrived),
                    traces.us_of(parsed_at) - traces.us_of(arrived),
                );
                let _ambient = ctx.enter();
                let stop_requested = req.method == "POST" && req.path == "/shutdown";
                let response = if stop_requested {
                    Response::json(r#"{"status":"shutting down"}"#.to_string())
                } else {
                    service.handle_request(
                        &req.method,
                        &req.path,
                        &req.body,
                        &req.accept,
                        &ctx,
                        tid,
                        req.first_byte,
                    )
                };
                // End-to-end latency (first byte → response ready): recorded
                // before the write so a client holding the response always
                // finds its own sample already present in a scrape, and the
                // histogram quantiles line up with a client-side stopwatch
                // up to syscall and context-switch time.
                if req.first_byte.is_some()
                    && req.method == "POST"
                    && req.path.split('?').next() == Some("/advise")
                {
                    let us = arrived.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    service.record_advise_latency(&response, us);
                }
                let keep_alive =
                    req.keep_alive && !stop_requested && !shutdown.load(Ordering::Relaxed);
                let write = write_response(&mut stream, &response, keep_alive);
                ctx.finish_root("request", tid);
                if stop_requested {
                    log_line(Level::Info, "shutdown requested over HTTP", &[]);
                    shutdown.store(true, Ordering::Relaxed);
                }
                if write.is_err() || !keep_alive {
                    return;
                }
            }
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::TimedOut(partial)) => {
                if shutdown.load(Ordering::Relaxed) {
                    if partial.bytes.is_empty() {
                        // Idle keep-alive connection: nothing to drain.
                        return;
                    }
                    // Half-received request: drain it, but not forever.
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_DEADLINE);
                    if Instant::now() > deadline {
                        return;
                    }
                }
                pending = partial;
            }
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidData {
                    let _ =
                        write_response(&mut stream, &Response::error(400, &e.to_string()), false);
                }
                return;
            }
        }
    }
}

/// A refiner thread: leases jobs until shutdown and runs each on its
/// chip's trial cache, so later refinements on a chip reuse its
/// simulations and transfer-seed from its earlier kernels' winners.
fn refiner_loop(service: &AdviceService, queue: &RefineQueue, shutdown: &AtomicBool) {
    while let Some(lease) = queue.pop(shutdown) {
        lease.run(|job, trials| service.run_refinement(job, trials));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use t2opt_store::Store;

    #[test]
    fn a_stalled_body_cannot_hold_shutdown_past_the_drain_deadline() {
        let server = Server::bind(
            "127.0.0.1:0",
            AdviceService::new(Store::in_memory(1), 2),
            ServerConfig {
                workers: 1,
                refiners: 0,
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        let shutdown = server.shutdown_handle();
        let (done, served) = std::sync::mpsc::channel();
        let serving = std::thread::spawn(move || {
            let result = server.serve();
            let _ = done.send(());
            result
        });

        // A first request proves the one worker holds this connection.
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert!(stream.read(&mut [0u8; 256]).unwrap() > 0);
        // Then a head and 8 of the 64 body bytes it announces, and silence.
        // The worker is blocked reading this connection, so the bytes reach
        // it long before the flag flips.
        stream
            .write_all(b"POST /advise HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"chip\":")
            .unwrap();
        std::thread::sleep(READ_TICK);

        shutdown.store(true, Ordering::Relaxed);
        let bound = DRAIN_DEADLINE + 4 * READ_TICK;
        assert!(
            served.recv_timeout(bound).is_ok(),
            "serve still running {bound:?} after shutdown"
        );
        serving.join().unwrap().unwrap();
    }
}
