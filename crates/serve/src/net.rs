//! The Unix-domain-socket front end: accept loop and per-connection
//! protocol handlers.
//!
//! The listener runs non-blocking so the accept loop can notice a
//! shutdown request (set by any connection's `shutdown` op) within one
//! poll interval; each accepted connection gets its own handler thread,
//! **capped** at [`crate::ServerConfig::max_handlers`] — finished
//! handlers are reaped on every accept, and an over-cap connect is
//! answered with a typed `overloaded` event and closed instead of
//! spawning unboundedly.
//!
//! No peer can pin a handler forever: every connection carries the
//! server's I/O timeout on both directions, so a client that stops
//! reading (or trickles half a request and stalls) times out and is
//! reaped. A client that disconnects mid-job only drops its
//! subscription — the job itself keeps running and still commits to
//! the cache. Transient accept failures (`EMFILE` pressure and kin)
//! are counted and retried; they never take the daemon down.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlc_obs::span::Stage;

use crate::proto::{Event, Request, Source, PROTO};
use crate::server::{JobEvent, JobStatus, Server, SubmitError, SubmitOutcome};

fn send(out: &mut impl Write, event: &Event) -> std::io::Result<()> {
    let mut line = event.to_line();
    line.push('\n');
    out.write_all(line.as_bytes())
}

/// A stalled or idle peer, as the socket timeout reports it.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Decrements the live-handler count however the handler exits.
struct HandlerGuard(Arc<Server>);

impl Drop for HandlerGuard {
    fn drop(&mut self) {
        self.0.handler_finished();
    }
}

/// Binds `socket` (replacing any stale socket file) and serves until a
/// client requests shutdown. Joins the connection handlers before
/// returning and removes the socket file.
///
/// # Errors
///
/// Any I/O error from binding the socket. Accept-time errors are
/// retried, not returned — an overloaded daemon degrades, it does not
/// exit.
pub fn serve(server: Arc<Server>, socket: &Path, version: &str) -> std::io::Result<()> {
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    listener.set_nonblocking(true)?;
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !server.shutdown_requested() {
        // Blocking I/O with a timeout on both directions: the handler
        // thread can stall for at most one timeout per read or write,
        // never forever. A socket we cannot configure is dropped (an
        // accept error), not served untimed.
        let accepted = listener.accept().and_then(|(stream, _)| {
            stream.set_nonblocking(false)?;
            stream.set_read_timeout(server.io_timeout())?;
            stream.set_write_timeout(server.io_timeout())?;
            Ok(stream)
        });
        match accepted {
            Ok(stream) => {
                handles.retain(|h| !h.is_finished());
                if handles.len() >= server.max_handlers() {
                    server.note_shed();
                    server.metrics().add("serve.conns_rejected", 1);
                    reject_overloaded(&stream, server.max_handlers());
                    continue;
                }
                let server = Arc::clone(&server);
                let version = version.to_owned();
                handles.push(std::thread::spawn(move || {
                    server.handler_started();
                    let _guard = HandlerGuard(Arc::clone(&server));
                    // A vanished client is not a server error.
                    let _ = handle(server, stream, &version);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => {
                // Out of fds, interrupted, peer gone before accept, a
                // socket that would not take its timeouts: transient.
                // Count it, back off, keep serving.
                server.metrics().add("serve.accept_errors", 1);
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    let _ = std::fs::remove_file(socket);
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

/// Best-effort typed rejection for an over-cap connect: one
/// `overloaded` line (under a short write timeout, so a full socket
/// buffer cannot stall the accept loop), then close.
fn reject_overloaded(stream: &UnixStream, cap: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut out = stream;
    let _ = send(
        &mut out,
        &Event::Overloaded {
            reason: format!("handler pool full ({cap} connections)"),
        },
    );
}

fn handle(server: Arc<Server>, stream: UnixStream, version: &str) -> std::io::Result<()> {
    let accept_start = Instant::now();
    let mut out = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    send(
        &mut out,
        &Event::Hello {
            proto: PROTO.into(),
            version: version.into(),
        },
    )?;
    // The accept span covers handler setup through the greeting — the
    // connection-establishment cost a client pays before its first
    // request can even be read.
    server
        .telemetry()
        .record_span(Stage::Accept, "", accept_start);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // clean EOF
            Ok(_) => {}
            // Idle or stalled peer: reap the connection. (A partial
            // line is abandoned with it — the peer failed to deliver a
            // whole request within the timeout.)
            Err(e) if is_timeout(&e) => return Ok(()),
            Err(e) => return Err(e),
        }
        if line.trim().is_empty() {
            continue;
        }
        let parse_start = Instant::now();
        let request = Request::parse(&line);
        server
            .telemetry()
            .record_span(Stage::Parse, "", parse_start);
        let request = match request {
            Ok(request) => request,
            Err(message) => {
                send(
                    &mut out,
                    &Event::Error {
                        message,
                        retryable: false,
                    },
                )?;
                continue;
            }
        };
        match request {
            Request::Ping => {
                let reply_start = Instant::now();
                send(
                    &mut out,
                    &Event::Pong {
                        proto: PROTO.into(),
                        version: version.into(),
                        uptime_ms: server.uptime_ms(),
                    },
                )?;
                server
                    .telemetry()
                    .record_span(Stage::Reply, "", reply_start);
            }
            Request::Stats => {
                let doc = server.stats_doc(version);
                let reply_start = Instant::now();
                send(&mut out, &Event::Stats { doc })?;
                server
                    .telemetry()
                    .record_span(Stage::Reply, "", reply_start);
            }
            Request::Shutdown => {
                server.shutdown();
                send(&mut out, &Event::Bye)?;
                return Ok(());
            }
            Request::Status { key } => {
                let (state, rows_done, rows_total, events_dropped) = match server.status(&key) {
                    JobStatus::Unknown => ("unknown", 0, 0, 0),
                    JobStatus::Running {
                        rows_done,
                        rows_total,
                        events_dropped,
                    } => ("running", rows_done, rows_total, events_dropped),
                    JobStatus::CachedMemory => ("cached-memory", 0, 0, 0),
                    JobStatus::CachedDisk => ("cached-disk", 0, 0, 0),
                };
                send(
                    &mut out,
                    &Event::Status {
                        key,
                        state: state.into(),
                        rows_done,
                        rows_total,
                        events_dropped,
                    },
                )?;
            }
            Request::Fetch { key } => match server.fetch(&key) {
                Some((grid, tier)) => {
                    let reply_start = Instant::now();
                    send(
                        &mut out,
                        &Event::Done {
                            key,
                            source: tier.into(),
                            rows_resumed: 0,
                            grid: (*grid).clone(),
                            trace_id: String::new(),
                            dropped: 0,
                        },
                    )?;
                    server
                        .telemetry()
                        .record_span(Stage::Reply, "", reply_start);
                }
                None => send(
                    &mut out,
                    &Event::Error {
                        message: format!("no completed result for {key}"),
                        retryable: false,
                    },
                )?,
            },
            Request::Submit(submit) => {
                let wait = submit.wait;
                let deadline = (submit.deadline_ms > 0)
                    .then(|| Instant::now() + Duration::from_millis(submit.deadline_ms));
                match server.submit(&submit) {
                    Err(SubmitError::Overloaded(reason)) => {
                        send(&mut out, &Event::Overloaded { reason })?;
                    }
                    Err(e) => {
                        let retryable = e.retryable();
                        send(
                            &mut out,
                            &Event::Error {
                                message: e.to_string(),
                                retryable,
                            },
                        )?;
                    }
                    Ok(SubmitOutcome::Cached {
                        key,
                        grid,
                        tier,
                        trace_id,
                    }) => {
                        send(
                            &mut out,
                            &Event::Accepted {
                                key: key.clone(),
                                rows_total: grid.sizes.len() as u64,
                                coalesced: false,
                                trace_id: trace_id.clone(),
                            },
                        )?;
                        let reply_start = Instant::now();
                        send(
                            &mut out,
                            &Event::Done {
                                key,
                                source: tier.into(),
                                rows_resumed: 0,
                                grid: (*grid).clone(),
                                trace_id: trace_id.clone(),
                                dropped: 0,
                            },
                        )?;
                        server
                            .telemetry()
                            .record_span(Stage::Reply, &trace_id, reply_start);
                    }
                    Ok(SubmitOutcome::Running(sub)) => {
                        send(
                            &mut out,
                            &Event::Accepted {
                                key: sub.key.clone(),
                                rows_total: sub.rows_total,
                                coalesced: sub.coalesced,
                                trace_id: sub.trace_id.clone(),
                            },
                        )?;
                        if !wait {
                            continue;
                        }
                        stream_job(&server, &mut out, &sub, deadline)?;
                    }
                }
            }
        }
    }
}

/// Streams a running job's events to the client until its terminal
/// event — or until the submission's deadline, which answers `timeout`
/// and returns the handler to the read loop. The deadline bounds the
/// *response*, not the computation: the job keeps running and commits
/// to the cache, so an idempotent resubmit picks the result up.
fn stream_job(
    server: &Arc<Server>,
    out: &mut impl Write,
    sub: &crate::server::Submission,
    deadline: Option<Instant>,
) -> std::io::Result<()> {
    loop {
        let event = match deadline {
            None => match sub.events.recv() {
                Ok(event) => event,
                Err(_) => return send_stream_lost(out),
            },
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    server.note_timeout();
                    return send(
                        out,
                        &Event::Timeout {
                            key: sub.key.clone(),
                        },
                    );
                }
                match sub.events.recv_timeout(deadline - now) {
                    Ok(event) => event,
                    Err(RecvTimeoutError::Timeout) => {
                        server.note_timeout();
                        return send(
                            out,
                            &Event::Timeout {
                                key: sub.key.clone(),
                            },
                        );
                    }
                    Err(RecvTimeoutError::Disconnected) => return send_stream_lost(out),
                }
            }
        };
        match event {
            JobEvent::Progress {
                row,
                rows_done,
                rows_total,
            } => send(
                out,
                &Event::Progress {
                    key: sub.key.clone(),
                    row,
                    rows_done,
                    rows_total,
                    trace_id: sub.trace_id.clone(),
                },
            )?,
            JobEvent::Done(done) => {
                return match done.result {
                    Ok(grid) => {
                        let reply_start = Instant::now();
                        let sent = send(
                            out,
                            &Event::Done {
                                key: sub.key.clone(),
                                // A follower's answer came from someone
                                // else's work.
                                source: if sub.coalesced {
                                    Source::Coalesced
                                } else {
                                    done.source
                                },
                                rows_resumed: done.rows_resumed,
                                grid: (*grid).clone(),
                                trace_id: sub.trace_id.clone(),
                                dropped: done.dropped,
                            },
                        );
                        server
                            .telemetry()
                            .record_span(Stage::Reply, &sub.trace_id, reply_start);
                        sent
                    }
                    Err(e) => send(
                        out,
                        &Event::Error {
                            message: e.message,
                            retryable: e.retryable,
                        },
                    ),
                };
            }
        }
    }
}

/// The job dropped this subscriber (its bounded queue overflowed while
/// the connection stalled). The result still lands in the cache —
/// answer with a retryable error so the client refetches.
fn send_stream_lost(out: &mut impl Write) -> std::io::Result<()> {
    send(
        out,
        &Event::Error {
            message: "event stream dropped under load; resubmit to fetch the result".into(),
            retryable: true,
        },
    )
}
