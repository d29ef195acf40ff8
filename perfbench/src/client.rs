//! A minimal `mlc-serve/1` client speaking the daemon's public protocol
//! (`mlc_serve::proto`) over its Unix socket, plus the daemon process
//! itself.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mlc_obs::json::JsonValue;
use mlc_serve::{grid_to_json, Event, Request, Source, SubmitRequest, PROTO};

use crate::proc::{Guard, Reaped};
use crate::Fail;

/// Every read waits at most this long: a hung daemon fails the run
/// instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// One connection: requests go out one line at a time, and each is
/// read to its terminal event before the next is sent (closed loop).
pub struct Session {
    out: UnixStream,
    lines: std::io::Lines<BufReader<UnixStream>>,
}

/// A terminal answer to a submission.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Which tier (or computation) answered.
    pub source: Source,
    /// The grid, rendered in its bit-exact wire form.
    pub grid_json: String,
    /// The CSV `mlc-sweep --out` would write for this grid.
    pub csv: String,
}

impl Session {
    /// Connects and checks the greeting.
    pub fn connect(socket: &Path) -> Result<Session, Fail> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("connecting to {}: {e}", socket.display()))?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let out = stream.try_clone()?;
        let mut session = Session {
            out,
            lines: BufReader::new(stream).lines(),
        };
        match session.recv()? {
            Event::Hello { proto, .. } if proto == PROTO => Ok(session),
            other => Err(format!("expected an {PROTO} hello, got {other:?}").into()),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), Fail> {
        let mut line = request.to_line();
        line.push('\n');
        self.out.write_all(line.as_bytes())?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Event, Fail> {
        let line = self
            .lines
            .next()
            .ok_or("the daemon closed the connection")??;
        Ok(Event::parse(&line)?)
    }

    /// Submits `req` (with `wait`) and reads to the terminal event.
    pub fn submit(&mut self, req: &SubmitRequest) -> Result<Answer, Fail> {
        self.send(&Request::Submit(req.clone()))?;
        loop {
            match self.recv()? {
                Event::Accepted { .. } | Event::Progress { .. } => {}
                Event::Done { source, grid, .. } => {
                    return Ok(Answer {
                        source,
                        grid_json: grid_to_json(&grid).to_string_compact(),
                        csv: crate::grid_csv(&grid),
                    })
                }
                other => return Err(format!("submission failed: {other:?}").into()),
            }
        }
    }

    /// Fetches the `mlc-stats/1` document.
    pub fn stats(&mut self) -> Result<JsonValue, Fail> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Event::Stats { doc } => Ok(doc),
            other => Err(format!("expected stats, got {other:?}").into()),
        }
    }

    /// Asks the daemon to stop.
    pub fn shutdown(&mut self) -> Result<(), Fail> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Event::Bye => Ok(()),
            other => Err(format!("expected bye, got {other:?}").into()),
        }
    }
}

/// A running `mlc-serve` daemon with its store under the run's work
/// directory.
pub struct Daemon {
    proc: Guard,
    /// The daemon's socket (relative to the working directory, which
    /// keeps it under the platform's socket-path length limit).
    pub socket: PathBuf,
    /// The daemon's store root.
    pub store: PathBuf,
}

impl Daemon {
    /// Starts the daemon on a fresh store in `dir` and waits until it
    /// greets a connection. `extra` are further `mlc-serve` flags.
    pub fn start(bin: &Path, dir: &Path, extra: &[&str]) -> Result<Daemon, Fail> {
        let store = dir.join("store");
        let socket = dir.join("d.sock");
        let log = std::fs::File::create(dir.join("daemon.log"))?;
        let mut cmd = Command::new(bin.join("mlc-serve"));
        cmd.arg("--store")
            .arg(&store)
            .arg("--socket")
            .arg(&socket)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        let mut proc = Guard::spawn(&mut cmd)?;
        let started = Instant::now();
        loop {
            if Session::connect(&socket).is_ok() {
                return Ok(Daemon {
                    proc,
                    socket,
                    store,
                });
            }
            if let Some(status) = proc.exited() {
                return Err(format!("mlc-serve exited during start-up ({status})").into());
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("mlc-serve did not accept connections within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<Session, Fail> {
        Session::connect(&self.socket)
    }

    /// Shuts the daemon down over the protocol and reaps it.
    pub fn stop(self) -> Result<Reaped, Fail> {
        self.connect()?.shutdown()?;
        let reaped = self.proc.reap(Duration::from_secs(30))?;
        if !reaped.success {
            return Err("mlc-serve exited with a failure status".into());
        }
        Ok(reaped)
    }
}
