//! A resident `omislice serve` process and the one closed-loop client
//! that drives it.

use crate::cases::Case;
use crate::stats;
use omislice_bench::client::ServeClient;
use omislice_obs::Json;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a fresh server gets to answer `/healthz`.
const READY_TIMEOUT: Duration = Duration::from_secs(20);
/// How long one request may take before the run fails; keeps a stuck
/// request from holding the run past its time limit.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server. Dropping it kills the process and waits for it, so
/// no early return or failed check leaves a server behind.
pub struct Server {
    child: Child,
    /// The client bound to the server's address.
    pub client: ServeClient,
}

impl Server {
    /// Starts `bin serve` on an ephemeral loopback port and waits until
    /// `/healthz` answers 200.
    ///
    /// # Errors
    ///
    /// Fails when the process cannot start, does not print its address,
    /// or never becomes healthy.
    pub fn start(bin: &Path, workers: usize, cache_mb: usize) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .arg("--cache-mb")
            .arg(cache_mb.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start `{}`: {e}", bin.display()))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        // From here on the guard owns the process.
        let mut server = Server {
            child,
            client: ServeClient::new(""),
        };
        if !matches!(read, Some(Ok(n)) if n > 0) {
            return Err("server printed no address".into());
        }
        // "omislice serve listening on 127.0.0.1:PORT (N workers)"
        let addr = line
            .split_whitespace()
            .find(|w| w.starts_with("127.0.0.1:"))
            .ok_or_else(|| format!("no address in `{}`", line.trim()))?
            .to_string();
        server.client = ServeClient::new(addr).with_timeout(REQUEST_TIMEOUT);
        let t = Instant::now();
        loop {
            match server.client.get("/healthz") {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if t.elapsed() > READY_TIMEOUT => {
                    return Err("server never became healthy".into())
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        stats::peak_rss_mb(&self.pid().to_string())
    }

    /// The server's CPU seconds so far.
    pub fn cpu_seconds(&self) -> Option<f64> {
        stats::cpu_seconds(self.pid())
    }

    /// One `GET /metrics?format=json` scrape as `name → value`.
    ///
    /// # Errors
    ///
    /// Fails on a transport error, a non-200 status or a malformed body.
    pub fn metrics(&self) -> Result<Vec<(String, f64)>, String> {
        let r = self.client.get("/metrics?format=json")?;
        if r.status != 200 {
            return Err(format!("/metrics answered {}", r.status));
        }
        let json = r.json()?;
        let pairs = json.as_object().ok_or("/metrics is not an object")?;
        Ok(pairs
            .iter()
            .filter_map(|(k, v)| number(v).map(|n| (k.clone(), n)))
            .collect())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// A metric from a scrape, 0 when absent.
pub fn metric(scrape: &[(String, f64)], name: &str) -> f64 {
    scrape
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0.0, |(_, v)| *v)
}

/// What one served `/locate` answered.
#[derive(Debug, Clone)]
pub struct Served {
    /// HTTP status.
    pub status: u16,
    /// `"hit"` or `"miss"`.
    pub cache: String,
    /// The server's `found` flag.
    pub found: bool,
    /// The human report.
    pub report: String,
    /// Whether the reply carries a non-empty journal.
    pub has_journal: bool,
    /// Client-side latency.
    pub latency: Duration,
}

/// Sends one `/locate` for `case` and waits for the reply.
///
/// # Errors
///
/// Fails on a transport error or a malformed 200 body; a non-200 reply
/// is returned with its status for the caller to count.
pub fn locate(server: &Server, case: &Case, journal: bool) -> Result<Served, String> {
    let mut pairs = vec![
        ("faulty", Json::str(case.faulty_src.as_str())),
        ("fixed", Json::str(case.fixed_src)),
        (
            "input",
            Json::Array(case.inputs.iter().map(|&v| Json::Int(v)).collect()),
        ),
    ];
    if journal {
        pairs.push(("journal", Json::Bool(true)));
    }
    let body = Json::object(pairs);
    let t = Instant::now();
    let r = server.client.post("/locate", &body)?;
    let latency = t.elapsed();
    if r.status != 200 {
        return Ok(Served {
            status: r.status,
            cache: String::new(),
            found: false,
            report: String::new(),
            has_journal: false,
            latency,
        });
    }
    // A journal can run to megabytes and the reply parser is slow on
    // large bodies; only the journal's presence is checked, so the rest
    // of the reply is parsed without it.
    let (head, has_journal) = match r.body.find(",\"journal\":[") {
        Some(i) => (
            format!("{}}}", &r.body[..i]),
            r.body[i..].starts_with(",\"journal\":[{"),
        ),
        None => (r.body.clone(), false),
    };
    let json = omislice_obs::json::parse(&head)?;
    let field = |k: &str| json.get(k).ok_or_else(|| format!("reply has no `{k}`"));
    Ok(Served {
        status: r.status,
        cache: field("cache")?.as_str().unwrap_or_default().to_string(),
        found: field("found")?.as_bool().ok_or("`found` is not a bool")?,
        report: field("report")?
            .as_str()
            .ok_or("`report` is not a string")?
            .to_string(),
        has_journal,
        latency,
    })
}
