//! Lifecycle of the real `ftbar-cli serve` process: spawn on a private
//! Unix socket, bounded wait until it answers, `status`, peak memory,
//! shutdown on a fresh connection, and kill-and-reap on every other path
//! so no run leaves a daemon or a socket behind.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

/// Longest wait for a fresh daemon to answer `status`.
const READY_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest wait for a daemon to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);
/// Socket read/write timeout on benchmark connections.
const IO_TIMEOUT: Duration = Duration::from_secs(120);

/// One client connection: one request line out, one response line back.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends `frame` and waits for its response line.
    ///
    /// # Errors
    ///
    /// I/O failures, and a daemon that closes the connection.
    pub fn send(&mut self, frame: &str) -> std::io::Result<String> {
        let mut out = Vec::with_capacity(frame.len() + 1);
        out.extend_from_slice(frame.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}

/// A running daemon owned by the benchmark.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    /// Milliseconds from spawn until the daemon answered `status`.
    pub ready_ms: f64,
}

impl Daemon {
    /// Spawns `bin serve` on `socket` with the shipped defaults and waits
    /// until it answers `status`.
    ///
    /// # Errors
    ///
    /// Spawn failure, early exit, or no answer within the ready timeout;
    /// the process is killed and reaped in each case.
    pub fn spawn(bin: &Path, socket: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(&socket);
        let start = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            socket,
            ready_ms: 0.0,
        };
        loop {
            if daemon.status().is_ok() {
                daemon.ready_ms = start.elapsed().as_secs_f64() * 1e3;
                return Ok(daemon);
            }
            if let Ok(Some(code)) = daemon.child.try_wait() {
                return Err(format!("daemon exited before it was ready: {code}"));
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err(format!("daemon not ready after {READY_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Opens a client connection.
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn connect(&self) -> std::io::Result<Conn> {
        Conn::open(&self.socket)
    }

    /// The daemon's `status` reply, asked on a fresh connection.
    ///
    /// # Errors
    ///
    /// Connection failures and unparsable replies.
    pub fn status(&self) -> Result<Value, String> {
        let reply = self
            .connect()
            .and_then(|mut c| c.send("{\"op\": \"status\"}"))
            .map_err(|e| format!("status: {e}"))?;
        serde_json::from_str::<Value>(&reply).map_err(|e| format!("status reply: {e}"))
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` on a fresh connection (earlier connections may have
    /// idled past the daemon's I/O timeout) and waits for the process to
    /// exit; kills it when it does not exit in time.
    ///
    /// # Errors
    ///
    /// A failed shutdown request, a kill on timeout, or a non-zero exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let sent = self
            .connect()
            .and_then(|mut c| c.send("{\"op\": \"shutdown\"}"))
            .map_err(|e| format!("shutdown: {e}"));
        let start = Instant::now();
        while start.elapsed() < EXIT_TIMEOUT {
            match self.child.try_wait() {
                Ok(Some(code)) if code.success() => return sent.map(|_| ()),
                Ok(Some(code)) => return Err(format!("daemon exited with {code}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
        Err(format!(
            "daemon still running {EXIT_TIMEOUT:?} after shutdown; killed"
        ))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The number at `path` (object keys) in a `status` reply.
///
/// # Errors
///
/// When the reply has no number there.
pub fn num(v: &Value, path: &[&str]) -> Result<f64, String> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("status reply has no `{}`", path.join(".")))?;
    }
    match cur {
        Value::Number(n) => Ok(n.as_f64()),
        _ => Err(format!("status `{}` is not a number", path.join("."))),
    }
}
