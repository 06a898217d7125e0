//! The `thermal-neutrons serve` child process under test.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a one-shot request may take (the first fleet request builds
/// the full risk surface).
const ONE_SHOT_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server child; killed and reaped on drop.
#[derive(Debug)]
pub struct ServerChild {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerChild {
    /// Starts `bin serve` on an ephemeral loopback port with `args`
    /// appended, and waits for its listening line.
    pub fn spawn(bin: &Path, seed: u64, args: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--seed",
                &seed.to_string(),
            ])
            .args(args)
            .env_remove("TN_LOG")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let mut server = Self {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("server did not report its address (got {line:?})")),
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request on its own connection: `(status, body)`.
    pub fn request(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        one_shot(self.addr, method, path, body)
    }

    /// Scrapes `/metrics` into name → value (labels kept in the name).
    pub fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let (status, text) = self.request("GET", "/metrics", "")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (name, value) = l.rsplit_once(' ')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect())
    }

    /// Peak RSS of the child, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::machine::peak_rss_mb(&self.pid().to_string())
    }

    /// CPU seconds the child has used.
    pub fn cpu_seconds(&self) -> Option<f64> {
        crate::machine::cpu_seconds(self.pid())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends one request with `Connection: close` and reads the whole answer.
pub fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, ONE_SHOT_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(ONE_SHOT_TIMEOUT))
        .map_err(|e| format!("socket timeout: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without a head")?;
    let status = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or("malformed status line")?;
    Ok((status, body.to_string()))
}

/// Starts a server and times it to its first 200 on `POST path` with
/// `body` (for `/v1/fleet` at full resolution this includes the risk
/// surface build). Returns the server and the seconds it took.
pub fn start_until_ready(
    bin: &Path,
    seed: u64,
    args: &[&str],
    path: &str,
    body: &str,
) -> Result<(ServerChild, f64), String> {
    let started = Instant::now();
    let server = ServerChild::spawn(bin, seed, args)?;
    let (status, text) = server.request("POST", path, body)?;
    if status != 200 {
        return Err(format!("first request answered {status}: {text}"));
    }
    Ok((server, started.elapsed().as_secs_f64()))
}
