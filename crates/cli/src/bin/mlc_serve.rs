//! `mlc-serve` — the sweep daemon: accepts sweep jobs over a Unix
//! socket, answers repeats from a content-addressed two-tier result
//! cache, and resumes crash-interrupted sweeps on restart.
//!
//! ```text
//! mlc-serve --store /var/tmp/mlc-store
//! mlc-serve --store store --socket /tmp/mlc.sock --mem-entries 16
//! ```
//!
//! Stop it with `mlc-client --socket … shutdown` (or a signal; a
//! killed server recovers its in-flight sweeps on the next start).

#[cfg(unix)]
fn main() -> std::process::ExitCode {
    match unix::run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mlc-serve: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

#[cfg(not(unix))]
fn main() -> std::process::ExitCode {
    eprintln!("mlc-serve: the daemon requires Unix domain sockets (unix-only)");
    std::process::ExitCode::FAILURE
}

#[cfg(unix)]
mod unix {
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::Duration;

    use mlc_cli::args::{parse_size, Args, Flag};
    use mlc_cli::obs::{obs_flags, Observability};
    use mlc_obs::RunManifest;
    use mlc_serve::{net, FaultInjector, Server, ServerConfig};

    fn flags() -> Vec<Flag> {
        let mut flags = vec![
            Flag {
                name: "store",
                value: "DIR",
                help: "result store root (cache/ and jobs/ live under it)",
            },
            Flag {
                name: "socket",
                value: "PATH",
                help: "Unix socket to listen on (default <store>/mlc-serve.sock)",
            },
            Flag {
                name: "mem-entries",
                value: "N",
                help: "capacity of the in-memory cache tier, in grids (default 8)",
            },
            Flag {
                name: "disk-budget",
                value: "SIZE",
                help: "byte budget for the committed disk tier, e.g. 64M \
                       (LRU eviction; default unbounded)",
            },
            Flag {
                name: "io-timeout-ms",
                value: "MS",
                help: "per-connection socket read/write timeout; 0 disables \
                       (default 30000)",
            },
            Flag {
                name: "max-handlers",
                value: "N",
                help: "max live connection handlers; over-cap connects get a \
                       typed 'overloaded' rejection (default 64)",
            },
            Flag {
                name: "max-jobs",
                value: "N",
                help: "max concurrent sweep jobs; further submissions are \
                       shed (default 32)",
            },
            Flag {
                name: "drain-ms",
                value: "MS",
                help: "on shutdown, wait up to MS for in-flight jobs to \
                       finish; journals of the rest stay resumable \
                       (default 10000)",
            },
            Flag {
                name: "stats-out",
                value: "PATH",
                help: "flight recorder: append one mlc-stats/1 snapshot line \
                       to PATH every --stats-every-ms (JSONL)",
            },
            Flag {
                name: "stats-every-ms",
                value: "MS",
                help: "flight-recorder snapshot period (default 1000)",
            },
            Flag {
                name: "stats-max-bytes",
                value: "SIZE",
                help: "rotate the flight recorder to PATH.1 when it grows \
                       past SIZE, e.g. 4M (default 16M)",
            },
            Flag {
                name: "events-out",
                value: "PATH",
                help: "on shutdown, write the server's request-lifecycle \
                       spans as a Perfetto/Chrome trace to PATH",
            },
            mlc_cli::trace_faults_flag(),
        ];
        flags.extend(obs_flags());
        flags
    }

    /// The flight recorder: appends one compact `mlc-stats/1` snapshot
    /// line to `path` every `every`, rotating to `<path>.1` when the
    /// file grows past `max_bytes`. Runs until `server` reports
    /// shutdown; polls the flag at sub-second granularity so shutdown
    /// is never held up by a long snapshot period.
    fn flight_recorder(
        server: Arc<Server>,
        path: PathBuf,
        every: Duration,
        max_bytes: u64,
    ) -> std::thread::JoinHandle<()> {
        let mut rotated = path.clone().into_os_string();
        rotated.push(".1");
        std::thread::spawn(move || {
            use std::io::Write as _;
            while !server.shutdown_requested() {
                let wake = std::time::Instant::now() + every;
                while std::time::Instant::now() < wake {
                    if server.shutdown_requested() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(50.min(every.as_millis() as u64)));
                }
                // Rotate first, so one snapshot never splits across
                // files and the pair is bounded by ~2x the budget.
                if std::fs::metadata(&path).is_ok_and(|m| m.len() >= max_bytes) {
                    let _ = std::fs::rename(&path, &rotated);
                }
                let mut line = server
                    .stats_doc(env!("CARGO_PKG_VERSION"))
                    .to_string_compact();
                line.push('\n');
                let written = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .and_then(|mut f| f.write_all(line.as_bytes()));
                if let Err(e) = written {
                    eprintln!("mlc-serve: flight recorder write failed: {e}");
                }
            }
        })
    }

    pub fn run() -> Result<(), Box<dyn std::error::Error>> {
        let args = Args::parse(
            "mlc-serve: sweep-as-a-service daemon with a content-addressed result cache",
            flags(),
            std::env::args(),
        )?;
        let store: PathBuf = args.require("store")?;
        let socket = args
            .get("socket")
            .map(PathBuf::from)
            .unwrap_or_else(|| store.join("mlc-serve.sock"));
        let mut obs = Observability::from_args(&args)?;
        let mut config = ServerConfig::new(&store);
        config.mem_entries = args.get_or("mem-entries", 8usize)?;
        config.disk_budget = args.get("disk-budget").map(parse_size).transpose()?;
        let io_timeout_ms: u64 = args.get_or("io-timeout-ms", 30_000u64)?;
        config.io_timeout = (io_timeout_ms > 0).then(|| Duration::from_millis(io_timeout_ms));
        config.max_handlers = args.get_or("max-handlers", 64usize)?;
        config.max_jobs = args.get_or("max-jobs", 32usize)?;
        let drain_ms: u64 = args.get_or("drain-ms", 10_000u64)?;
        let stats_out = args.get("stats-out").map(PathBuf::from);
        let stats_every_ms: u64 = args.get_or("stats-every-ms", 1_000u64)?;
        let stats_max_bytes = args
            .get("stats-max-bytes")
            .map(parse_size)
            .transpose()?
            .unwrap_or(16 << 20);
        let events_out = args.get("events-out").map(PathBuf::from);
        if events_out.is_some() {
            // Retain a bounded span timeline for the Perfetto export;
            // histograms and counters record regardless.
            config.span_retention = 65_536;
        }
        // Test hook: widen the per-row window so CI can kill the
        // daemon mid-sweep deterministically.
        if let Ok(ms) = std::env::var("MLC_SERVE_ROW_DELAY_MS") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| format!("MLC_SERVE_ROW_DELAY_MS: '{ms}' is not an integer"))?;
            config.row_delay = Duration::from_millis(ms);
        }
        // Test hook: bounded fault budgets for the chaos smoke, e.g.
        // MLC_SERVE_CHAOS=journal-enospc=2,load-delay-ms=50. Budgets
        // drain as faults fire, so an outage heals without a restart.
        if let Ok(spec) = std::env::var("MLC_SERVE_CHAOS") {
            config.chaos =
                Arc::new(FaultInjector::parse(&spec).map_err(|e| format!("MLC_SERVE_CHAOS: {e}"))?);
            if config.chaos.is_armed() {
                eprintln!("mlc-serve: CHAOS ARMED ({spec})");
            }
        }
        config.trace_faults = mlc_cli::parse_trace_faults(&args)?;

        let server = Server::new(config)?;
        let report = server.recover();
        for key in &report.resumed {
            eprintln!("resumed in-flight sweep {key}");
        }
        for err in &report.errors {
            eprintln!("spool entry not resumed: {err}");
        }
        let stats = server.stats();
        if stats.spool_orphans > 0 {
            eprintln!(
                "janitor removed {} orphaned spool file(s)",
                stats.spool_orphans
            );
        }
        let budget_note = args
            .get("disk-budget")
            .map(|b| format!(", {}B of {b} disk budget used", stats.disk_bytes))
            .unwrap_or_default();
        eprintln!(
            "mlc-serve listening on {} (store {}, {} cached result(s), {} resumed{budget_note})",
            socket.display(),
            store.display(),
            stats.disk_entries,
            report.resumed.len(),
        );
        let recorder = stats_out.map(|path| {
            eprintln!(
                "mlc-serve: flight recorder on {} every {stats_every_ms}ms \
                 (rotate at {stats_max_bytes} bytes)",
                path.display()
            );
            flight_recorder(
                Arc::clone(&server),
                path,
                Duration::from_millis(stats_every_ms.max(1)),
                stats_max_bytes,
            )
        });
        net::serve(Arc::clone(&server), &socket, env!("CARGO_PKG_VERSION"))?;
        if let Some(recorder) = recorder {
            let _ = recorder.join();
        }
        if server.drain(Duration::from_millis(drain_ms)) {
            eprintln!("mlc-serve: shutdown complete");
        } else {
            eprintln!(
                "mlc-serve: drain timed out after {drain_ms}ms; \
                 unfinished journals stay in the spool, resumable"
            );
        }
        if let Some(path) = events_out {
            // Export after drain, so spans from jobs that finished
            // during the drain window make the timeline.
            let spans = server.telemetry().retained_spans();
            let file = std::fs::File::create(&path)?;
            mlc_obs::write_span_chrome_trace(file, &spans)?;
            eprintln!(
                "mlc-serve: wrote {} span(s) to {} (Perfetto/chrome://tracing)",
                spans.len(),
                path.display()
            );
        }
        // --metrics-out writes the server's own handle: the counters and
        // stage histograms the stats document renders.
        obs.metrics = server.metrics().clone();
        let mut manifest = RunManifest::new("mlc-serve", env!("CARGO_PKG_VERSION"));
        obs.finish(&mut manifest)?;
        Ok(())
    }
}
