//! The daemon under test: the shipped `dbcatcher serve` binary in a
//! child process, with its listen address read from its own log line and
//! its CPU time and peak memory read from `/proc`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Log prefix `dbcatcher serve` prints once its listener is bound.
const LISTENING: &str = "dbcatcher serve: listening on ";

/// How long a daemon may take to bind its listener.
const BIND_TIMEOUT: Duration = Duration::from_secs(60);

/// Kernel clock ticks per second of `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every Linux architecture this runs on).
const CLOCK_TICKS_PER_S: u64 = 100;

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// Listen address, `host:port`.
    pub addr: String,
    log: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `bin` with `args` and waits until it listens. Its log lines
    /// after the listening line are forwarded to this process's stderr.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let log = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                match line.strip_prefix(LISTENING) {
                    Some(rest) => {
                        let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        let _ = tx.send(addr);
                    }
                    None => eprintln!("daemon: {line}"),
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            log: Some(log),
        };
        match rx.recv_timeout(BIND_TIMEOUT) {
            Ok(addr) if !addr.is_empty() => {
                daemon.addr = addr;
                Ok(daemon)
            }
            _ => Err(format!("{} did not start listening", bin.display())),
        }
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))
    }

    /// User plus system CPU time of the whole process so far, in
    /// microseconds (10 ms resolution).
    pub fn cpu_us(&self) -> Result<u64, String> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = stat
            .rfind(')')
            .map(|i| &stat[i + 1..])
            .ok_or("malformed /proc stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| -> Result<u64, String> {
            fields
                .get(n - 3)
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("/proc stat field {n} missing"))
        };
        Ok((field(14)? + field(15)?) * 1_000_000 / CLOCK_TICKS_PER_S)
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        let status = self.proc_file("status")?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| "VmHWM missing from /proc status".to_string())
    }

    /// Sends SIGKILL and reaps the process — a crash.
    pub fn kill(mut self) {
        self.reap_now();
    }

    /// Waits up to `timeout` for a clean exit (after a `Stop` request);
    /// kills the process if it does not come.
    pub fn wait_exit(mut self, timeout: Duration) -> Result<ExitStatus, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.join_log();
                    return Ok(status);
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => {
                    self.reap_now();
                    return Err(format!("daemon did not exit within {timeout:?}"));
                }
                Err(e) => return Err(format!("wait for daemon: {e}")),
            }
        }
    }

    fn reap_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_log();
    }

    fn join_log(&mut self) {
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.log.is_some() {
            self.reap_now();
        }
    }
}
