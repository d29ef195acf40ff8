//! `mlc-client` — talk to a running `mlc-serve` daemon.
//!
//! ```text
//! mlc-client --socket store/mlc-serve.sock submit --trace trace.din \
//!            --sizes 16K:4M --cycles 1:10 --out grid.csv
//! mlc-client --socket … status --key fnv1a64:…
//! mlc-client --socket … fetch  --key fnv1a64:… --out grid.csv
//! mlc-client --socket … stats --format table
//! mlc-client --socket … top
//! mlc-client --socket … ping
//! mlc-client --socket … shutdown
//! ```
//!
//! `submit` prints grep-able `key=` / `source=` / `rows_resumed=` /
//! `trace_id=` lines on stdout; `--out` writes the execution-time grid
//! as CSV in exactly the layout `mlc-sweep --out` uses, so downstream
//! tooling cannot tell whether a grid came from a live sweep or the
//! daemon's cache. Every submit carries a trace id (`--trace-id`, or
//! one minted locally) that the server stamps into its events, journal
//! headers, and lifecycle spans.
//!
//! `stats` fetches the server's `mlc-stats/1` telemetry document
//! (`--format json` for the raw doc, `table` for per-stage
//! p50/p90/p99 latencies and tier hit rates); `top` polls it into a
//! live dashboard. `ping` is thin liveness only.
//!
//! Transient failures — a daemon still starting, an `overloaded` shed,
//! a `timeout` response, a disk that was briefly full — are retried
//! with bounded exponential backoff plus jitter (`--retries`,
//! `--retry-max-ms`). Retrying a submit is **idempotent** by
//! construction: job keys are content-addressed, so the retry is the
//! same job and is answered from the cache if the first attempt's
//! computation finished meanwhile. `--deadline-ms` bounds how long the
//! server may hold the response to each attempt.
//!
//! The undocumented-in-`--help`-prose `stall` command exists for the
//! chaos harness: it connects, optionally writes half a request
//! (`--half-line`), and then holds the socket without reading for
//! `--hold-ms` — a deliberately abusive peer the daemon must reap.

#[cfg(unix)]
fn main() -> std::process::ExitCode {
    match unix::run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mlc-client: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(not(unix))]
fn main() -> std::process::ExitCode {
    eprintln!("mlc-client: the client requires Unix domain sockets (unix-only)");
    std::process::ExitCode::FAILURE
}

#[cfg(unix)]
mod unix {
    use std::io::{BufRead, BufReader, Lines, Write};
    use std::os::unix::net::UnixStream;
    use std::path::PathBuf;
    use std::time::Duration;

    use mlc_cli::args::{Args, Flag};
    use mlc_obs::json::JsonValue;
    use mlc_obs::Log2Histogram;
    use mlc_serve::{Event, Request, SubmitRequest, PROTO};

    fn flags() -> Vec<Flag> {
        let mut flags = vec![
            Flag {
                name: "socket",
                value: "PATH",
                help: "Unix socket of the mlc-serve daemon",
            },
            Flag {
                name: "key",
                value: "KEY",
                help: "job key for status/fetch (fnv1a64:…)",
            },
            Flag {
                name: "trace",
                value: "PATH",
                help: "submit: input trace, as a path the *server* can read",
            },
        ];
        // The submit job's grid, with mlc-sweep's flags and defaults.
        flags.extend(mlc_cli::grid_flags());
        flags.extend([
            Flag {
                name: "no-wait",
                value: "",
                help: "submit: return after acceptance instead of streaming to completion",
            },
            Flag {
                name: "trace-id",
                value: "ID",
                help: "submit: trace context to stamp through events, journal, \
                       and spans (default: minted locally)",
            },
            Flag {
                name: "format",
                value: "FMT",
                help: "stats: 'table' (default) or 'json' (the raw mlc-stats/1 doc)",
            },
            Flag {
                name: "interval-ms",
                value: "MS",
                help: "top: refresh period (default 1000)",
            },
            Flag {
                name: "iterations",
                value: "N",
                help: "top: refresh N times then exit; 0 = until interrupted \
                       (default 0)",
            },
            Flag {
                name: "deadline-ms",
                value: "MS",
                help: "submit: server-side response deadline per attempt; \
                       a 'timeout' answer is retried (default 0 = none)",
            },
            Flag {
                name: "retries",
                value: "N",
                help: "retry transient failures (connect, overloaded, \
                       timeout, retryable errors) up to N times (default 2)",
            },
            Flag {
                name: "retry-max-ms",
                value: "MS",
                help: "cap each exponential-backoff delay at MS (default 2000)",
            },
            Flag {
                name: "out",
                value: "PATH",
                help: "write the received grid as CSV (mlc-sweep --out layout)",
            },
            Flag {
                name: "events-out",
                value: "PATH",
                help: "append every received event line (raw JSONL) to PATH",
            },
            Flag {
                name: "hold-ms",
                value: "MS",
                help: "stall: hold the connection open without reading for MS \
                       (default 35000)",
            },
            Flag {
                name: "half-line",
                value: "",
                help: "stall: write half a request before stalling",
            },
        ]);
        flags
    }

    /// A client-side failure, split by whether a fresh attempt against
    /// the same daemon can succeed.
    #[derive(Debug)]
    struct CErr {
        message: String,
        retryable: bool,
    }

    impl CErr {
        fn fatal(message: impl Into<String>) -> CErr {
            CErr {
                message: message.into(),
                retryable: false,
            }
        }

        fn transient(message: impl Into<String>) -> CErr {
            CErr {
                message: message.into(),
                retryable: true,
            }
        }
    }

    /// A tiny xorshift PRNG for backoff jitter — decorrelates the retry
    /// storms of many clients shed at the same instant, with no
    /// dependency and no reproducibility requirement.
    struct Jitter(u64);

    impl Jitter {
        fn seeded() -> Jitter {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() as u64)
                .unwrap_or(0);
            Jitter(nanos ^ (u64::from(std::process::id()) << 17) | 1)
        }

        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        /// Backoff for `attempt` (1-based): 100ms doubling, capped at
        /// `max_ms`, jittered ±25%.
        fn backoff_ms(&mut self, attempt: u32, max_ms: u64) -> u64 {
            let base = 100u64.saturating_mul(1u64 << attempt.saturating_sub(1).min(20)); // 100, 200, 400, …
            let capped = base.min(max_ms.max(1));
            let quarter = (capped / 4).max(1);
            capped - quarter / 2 + self.next() % quarter
        }
    }

    /// A connected session: the line stream plus an optional raw-event
    /// tee for debugging and CI assertions.
    struct Session {
        out: UnixStream,
        lines: Lines<BufReader<UnixStream>>,
        tee: Option<std::fs::File>,
    }

    impl Session {
        fn connect(socket: &PathBuf, tee: Option<&str>) -> Result<Session, CErr> {
            let stream = UnixStream::connect(socket)
                .map_err(|e| CErr::transient(format!("connecting to {}: {e}", socket.display())))?;
            let out = stream
                .try_clone()
                .map_err(|e| CErr::transient(e.to_string()))?;
            let tee = tee
                .map(|p| {
                    std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(p)
                })
                .transpose()
                .map_err(|e| CErr::fatal(e.to_string()))?;
            let mut session = Session {
                out,
                lines: BufReader::new(stream).lines(),
                tee,
            };
            match session.recv()? {
                Event::Hello { proto, .. } if proto == PROTO => Ok(session),
                Event::Hello { proto, .. } => Err(CErr::fatal(format!(
                    "server speaks {proto}, this client speaks {PROTO}"
                ))),
                // The daemon's handler pool is full: typed rejection
                // instead of a greeting. Back off and try again.
                Event::Overloaded { reason } => {
                    Err(CErr::transient(format!("server overloaded: {reason}")))
                }
                other => Err(CErr::fatal(format!("expected hello, got {other:?}"))),
            }
        }

        /// Bounds every read on this session's socket (both clone fds
        /// share the socket, so this covers the line stream too).
        fn set_read_timeout(&self, timeout: Duration) -> Result<(), CErr> {
            self.out
                .set_read_timeout(Some(timeout))
                .map_err(|e| CErr::fatal(e.to_string()))
        }

        fn send(&mut self, request: &Request) -> Result<(), CErr> {
            let mut line = request.to_line();
            line.push('\n');
            self.out
                .write_all(line.as_bytes())
                .map_err(|e| CErr::transient(e.to_string()))
        }

        fn recv(&mut self) -> Result<Event, CErr> {
            let line = self
                .lines
                .next()
                .ok_or_else(|| CErr::transient("server closed the connection"))?
                .map_err(|e| CErr::transient(e.to_string()))?;
            if let Some(tee) = &mut self.tee {
                let _ = writeln!(tee, "{line}");
            }
            Event::parse(&line).map_err(CErr::fatal)
        }
    }

    /// Maps a terminal server answer that is not the one the command
    /// wanted into the right client error.
    fn unexpected(context: &str, event: Event) -> CErr {
        match event {
            Event::Error { message, retryable } => CErr { message, retryable },
            Event::Overloaded { reason } => CErr::transient(format!("server overloaded: {reason}")),
            Event::Timeout { key } => CErr::transient(format!(
                "deadline expired for {key}; the job continues server-side"
            )),
            other => CErr::fatal(format!("expected {context}, got {other:?}")),
        }
    }

    fn submit(args: &Args, session: &mut Session) -> Result<(), CErr> {
        let deadline_ms: u64 = args
            .get_or("deadline-ms", 0u64)
            .map_err(|e| CErr::fatal(e.to_string()))?;
        let (job, warmup_frac) =
            mlc_cli::parse_grid(args).map_err(|e| CErr::fatal(e.to_string()))?;
        let request = SubmitRequest {
            trace: args
                .require::<PathBuf>("trace")
                .map_err(|e| CErr::fatal(e.to_string()))?,
            l1_bytes: job.l1().get(),
            ways: u64::from(job.ways()),
            sizes: job.sizes().iter().map(|s| s.get()).collect(),
            cycles: job.cycles().to_vec(),
            engine: job.engine().to_string(),
            warmup_frac,
            wait: !args.has("no-wait"),
            deadline_ms,
            // A client-minted id makes the trace end-to-end: the same
            // id appears in this process's output and in the server's
            // journal header and span timeline.
            trace_id: args
                .get("trace-id")
                .map(str::to_owned)
                .unwrap_or_else(mlc_obs::mint_trace_id),
        };
        if deadline_ms > 0 {
            // Belt and braces: if the server never answers `timeout`
            // (wedged, chaos-delayed), give up locally a bit later.
            session.set_read_timeout(Duration::from_millis(deadline_ms.saturating_add(5_000)))?;
        }
        let wait = request.wait;
        session.send(&Request::Submit(request))?;
        match session.recv()? {
            Event::Accepted {
                key,
                rows_total,
                coalesced,
                trace_id,
            } => {
                println!("key={key}");
                println!("rows_total={rows_total}");
                println!("coalesced={coalesced}");
                // The server's view of the context: ours, or — for a
                // bare coalesced follower — the id of the job joined.
                println!("trace_id={trace_id}");
            }
            other => return Err(unexpected("accepted", other)),
        }
        if !wait {
            return Ok(());
        }
        loop {
            match session.recv()? {
                Event::Progress {
                    rows_done,
                    rows_total,
                    row,
                    ..
                } => eprintln!("row {row} done ({rows_done}/{rows_total})"),
                Event::Done {
                    source,
                    rows_resumed,
                    grid,
                    dropped,
                    ..
                } => {
                    println!("source={}", source.as_str());
                    println!("rows_resumed={rows_resumed}");
                    if dropped > 0 {
                        println!("events_dropped={dropped}");
                        eprintln!(
                            "note: {dropped} progress event(s) were dropped under \
                             load; the grid itself is complete"
                        );
                    }
                    if let Some(out) = args.get("out") {
                        mlc_cli::write_grid_csv(&grid, out)
                            .map_err(|e| CErr::fatal(e.to_string()))?;
                    }
                    return Ok(());
                }
                other => return Err(unexpected("progress or done", other)),
            }
        }
    }

    fn fetch(args: &Args, session: &mut Session) -> Result<(), CErr> {
        let key: String = args
            .require("key")
            .map_err(|e| CErr::fatal(e.to_string()))?;
        session.send(&Request::Fetch { key })?;
        match session.recv()? {
            Event::Done {
                key, source, grid, ..
            } => {
                println!("key={key}");
                println!("source={}", source.as_str());
                if let Some(out) = args.get("out") {
                    mlc_cli::write_grid_csv(&grid, out).map_err(|e| CErr::fatal(e.to_string()))?;
                }
                Ok(())
            }
            other => Err(unexpected("done", other)),
        }
    }

    fn status(args: &Args, session: &mut Session) -> Result<(), CErr> {
        let key: String = args
            .require("key")
            .map_err(|e| CErr::fatal(e.to_string()))?;
        session.send(&Request::Status { key })?;
        match session.recv()? {
            Event::Status {
                key,
                state,
                rows_done,
                rows_total,
                events_dropped,
            } => {
                println!("key={key}");
                println!("state={state}");
                if state == "running" {
                    println!("rows_done={rows_done}");
                    println!("rows_total={rows_total}");
                    println!("events_dropped={events_dropped}");
                }
                Ok(())
            }
            other => Err(unexpected("status", other)),
        }
    }

    /// Thin liveness probe. Counters moved to `stats` (mlc-stats/1).
    fn ping(session: &mut Session) -> Result<(), CErr> {
        session.send(&Request::Ping)?;
        match session.recv()? {
            Event::Pong {
                proto,
                version,
                uptime_ms,
            } => {
                println!("proto={proto}");
                println!("version={version}");
                println!("uptime_ms={uptime_ms}");
                Ok(())
            }
            other => Err(unexpected("pong", other)),
        }
    }

    /// Fetches one `mlc-stats/1` document over `session`.
    fn fetch_stats(session: &mut Session) -> Result<JsonValue, CErr> {
        session.send(&Request::Stats)?;
        match session.recv()? {
            Event::Stats { doc } => Ok(doc),
            other => Err(unexpected("stats", other)),
        }
    }

    /// A numeric field wherever it sits in the doc (integral floats
    /// arrive as JSON integers, so accept both).
    fn num_at(doc: &JsonValue, path: &[&str]) -> Option<f64> {
        let mut v = doc;
        for key in path {
            v = v.get(key)?;
        }
        match v {
            JsonValue::U64(n) => Some(*n as f64),
            JsonValue::I64(n) => Some(*n as f64),
            JsonValue::F64(f) => Some(*f),
            _ => None,
        }
    }

    fn fmt_us(v: Option<u64>) -> String {
        match v {
            None => "-".into(),
            Some(us) if us >= 10_000 => format!("{:.1}ms", us as f64 / 1000.0),
            Some(us) => format!("{us}us"),
        }
    }

    fn fmt_ratio(v: Option<f64>) -> String {
        v.map(|r| format!("{:.1}%", r * 100.0))
            .unwrap_or_else(|| "-".into())
    }

    /// Renders the `mlc-stats/1` document as the human table `stats
    /// --format table` and `top` print.
    fn render_stats_table(doc: &JsonValue) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let str_at = |path: &[&str]| -> String {
            let mut v = doc;
            for key in path {
                match v.get(key) {
                    Some(next) => v = next,
                    None => return "-".into(),
                }
            }
            v.as_str().map(str::to_owned).unwrap_or_else(|| "-".into())
        };
        let count = |path: &[&str]| num_at(doc, path).unwrap_or(0.0) as u64;
        let uptime_s = count(&["uptime_ms"]) as f64 / 1000.0;
        let _ = writeln!(
            out,
            "{} · server v{} · up {uptime_s:.1}s",
            str_at(&["schema"]),
            str_at(&["version"]),
        );
        let _ = writeln!(
            out,
            "jobs: {} computed, {} recovered, {} coalesced, {} in flight \
             | shed {} timeout {} | events dropped {}",
            count(&["counters", "jobs_computed"]),
            count(&["counters", "jobs_recovered"]),
            count(&["counters", "jobs_coalesced"]),
            count(&["counters", "jobs_inflight"]),
            count(&["counters", "jobs_shed"]),
            count(&["counters", "jobs_timeout"]),
            count(&["counters", "events_dropped"]),
        );
        let _ = writeln!(
            out,
            "tiers: mem {} hit(s) ({} cached) | disk {} hit(s) ({} cached, {} B) \
             | miss {} | hit rate mem {} disk {} overall {}",
            count(&["tiers", "memory", "hits"]),
            count(&["tiers", "memory", "entries"]),
            count(&["tiers", "disk", "hits"]),
            count(&["tiers", "disk", "entries"]),
            count(&["tiers", "disk", "bytes"]),
            count(&["tiers", "misses"]),
            fmt_ratio(num_at(doc, &["hit_ratio", "memory"])),
            fmt_ratio(num_at(doc, &["hit_ratio", "disk"])),
            fmt_ratio(num_at(doc, &["hit_ratio", "overall"])),
        );
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "stage", "count", "p50", "p90", "p99", "max"
        );
        if let Some(JsonValue::Object(stages)) = doc.get("stages") {
            for (name, hist) in stages {
                // Rebuild the exact histogram from the wire buckets;
                // quantiles come out bit-identical to the server's.
                let Some(hist) = Log2Histogram::from_json(hist) else {
                    continue;
                };
                if hist.is_empty() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{:<16} {:>8} {:>9} {:>9} {:>9} {:>9}",
                    name,
                    hist.count(),
                    fmt_us(hist.p50()),
                    fmt_us(hist.p90()),
                    fmt_us(hist.p99()),
                    fmt_us(Some(hist.max())),
                );
            }
        }
        out
    }

    fn stats(args: &Args, session: &mut Session) -> Result<(), CErr> {
        let doc = fetch_stats(session)?;
        match args.get("format").unwrap_or("table") {
            "json" => println!("{}", doc.to_string_compact()),
            "table" => print!("{}", render_stats_table(&doc)),
            other => {
                return Err(CErr::fatal(format!(
                    "unknown --format '{other}': json | table"
                )))
            }
        }
        Ok(())
    }

    /// The live dashboard: polls `stats` over one session and redraws.
    fn top(args: &Args, session: &mut Session) -> Result<(), CErr> {
        use std::io::IsTerminal as _;
        let interval: u64 = args
            .get_or("interval-ms", 1_000u64)
            .map_err(|e| CErr::fatal(e.to_string()))?;
        let iterations: u64 = args
            .get_or("iterations", 0u64)
            .map_err(|e| CErr::fatal(e.to_string()))?;
        let live = std::io::stdout().is_terminal();
        let mut i = 0u64;
        loop {
            let doc = fetch_stats(session)?;
            if live {
                // Clear and home — a poor man's curses, no deps.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render_stats_table(&doc));
            let _ = std::io::Write::flush(&mut std::io::stdout());
            i += 1;
            if iterations > 0 && i >= iterations {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(interval.max(50)));
        }
    }

    fn shutdown(session: &mut Session) -> Result<(), CErr> {
        session.send(&Request::Shutdown)?;
        match session.recv()? {
            Event::Bye => {
                println!("shutdown=requested");
                Ok(())
            }
            other => Err(unexpected("bye", other)),
        }
    }

    /// The chaos harness's abusive peer: connect, optionally write half
    /// a request line, then hold the socket open without ever reading.
    /// A hardened daemon reaps this connection at its I/O timeout;
    /// success here just means we held on as long as asked (the server
    /// closing on us early is fine too — that *is* the reap).
    fn stall(args: &Args, socket: &PathBuf) -> Result<(), String> {
        let hold_ms: u64 = args
            .get_or("hold-ms", 35_000u64)
            .map_err(|e| e.to_string())?;
        let mut stream = UnixStream::connect(socket)
            .map_err(|e| format!("connecting to {}: {e}", socket.display()))?;
        if args.has("half-line") {
            // Half a `ping`: a request the server can never finish
            // parsing, from a peer that never finishes sending.
            let _ = stream.write_all(b"{\"op\":\"pi");
            let _ = stream.flush();
        }
        std::thread::sleep(Duration::from_millis(hold_ms));
        println!("stalled_ms={hold_ms}");
        Ok(())
    }

    fn execute(command: &str, args: &Args, socket: &PathBuf) -> Result<(), CErr> {
        let mut session = Session::connect(socket, args.get("events-out"))?;
        match command {
            "submit" => submit(args, &mut session),
            "status" => status(args, &mut session),
            "fetch" => fetch(args, &mut session),
            "stats" => stats(args, &mut session),
            "top" => top(args, &mut session),
            "ping" => ping(&mut session),
            "shutdown" => shutdown(&mut session),
            other => Err(CErr::fatal(format!(
                "unknown command '{other}': submit | status | fetch | stats | top | ping | \
                 shutdown | stall"
            ))),
        }
    }

    pub fn run() -> Result<(), Box<dyn std::error::Error>> {
        let args = Args::parse(
            "mlc-client: submit sweeps to (and query) an mlc-serve daemon; \
             commands: submit | status | fetch | stats | top | ping | shutdown | stall",
            flags(),
            std::env::args(),
        )?;
        let socket: PathBuf = args.require("socket")?;
        let command = match args.positional.as_slice() {
            [one] => one.as_str(),
            [] => {
                return Err(
                    "missing command: submit | status | fetch | stats | top | ping \
                            | shutdown | stall"
                        .into(),
                )
            }
            more => return Err(format!("expected one command, got {more:?}").into()),
        };
        if command == "stall" {
            return stall(&args, &socket).map_err(Into::into);
        }
        let retries: u32 = args.get_or("retries", 2u32)?;
        let retry_max_ms: u64 = args.get_or("retry-max-ms", 2_000u64)?;
        let mut jitter = Jitter::seeded();
        let mut attempt = 0u32;
        loop {
            match execute(command, &args, &socket) {
                Ok(()) => return Ok(()),
                Err(e) if e.retryable && attempt < retries => {
                    attempt += 1;
                    let delay = jitter.backoff_ms(attempt, retry_max_ms);
                    eprintln!(
                        "mlc-client: transient failure ({}); retry {attempt}/{retries} in {delay}ms",
                        e.message
                    );
                    std::thread::sleep(Duration::from_millis(delay));
                }
                Err(e) => return Err(e.message.into()),
            }
        }
    }
}
