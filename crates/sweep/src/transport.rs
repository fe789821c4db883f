//! The worker channel: a child process spoken to over its stdio pipes.
//!
//! The sweep protocol ([`crate::protocol`]) is plain line frames. The
//! supervisor writes `SPEC`/`PING` lines to a worker's stdin, a reader
//! thread takes its stdout, and a [`StderrTail`] keeps the last lines of
//! its stderr for crash diagnostics.
//!
//! Nothing here interprets protocol bytes; faults (EOF, floods,
//! garbage) are surfaced to the supervisor as ordinary read/write
//! errors and handled by its robustness layer.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One live worker process. Every method is callable after the worker
/// died: they report errors rather than panic.
pub struct WorkerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
}

impl WorkerProcess {
    /// Spawns `cmd` (program, args and env prepared by the caller) with
    /// piped stdio. Returns the process plus its reply stream (stdout)
    /// and its stderr, each handed over exactly once.
    ///
    /// # Errors
    ///
    /// The OS spawn error, stringified.
    pub fn spawn(mut cmd: Command) -> Result<(WorkerProcess, ChildStdout, ChildStderr), String> {
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| e.to_string())?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let stderr = child.stderr.take().expect("stderr was piped");
        let stdin = child.stdin.take();
        Ok((WorkerProcess { child, stdin }, stdout, stderr))
    }

    /// Writes one protocol line (newline appended) and flushes.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the supervisor treats it as a fault of
    /// this worker.
    pub fn write_line(&mut self, line: &str) -> io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "worker stdin closed"))?;
        writeln!(stdin, "{line}")?;
        stdin.flush()
    }

    /// Signals a clean shutdown by closing the worker's stdin; the
    /// worker exits when it sees EOF.
    pub fn close_input(&mut self) {
        self.stdin = None;
    }

    /// Force-kills the worker process and closes its stdin.
    pub fn kill(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
    }

    /// Reaps the worker process (blocking).
    pub fn wait(&mut self) {
        let _ = self.child.wait();
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        // Early error returns must not leak processes.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------
// Stderr tailing

/// How many trailing stderr lines are kept per worker.
pub const STDERR_TAIL_LINES: usize = 20;

/// Longest stderr line retained verbatim; the rest is truncated (a
/// crashing worker can spew arbitrarily wide lines).
const STDERR_LINE_CAP: usize = 400;

/// A bounded tail of a worker's stderr, filled by a background thread.
///
/// The supervisor attaches this to fault logs and degraded-slot
/// summaries so a dead worker is diagnosable from the sweep output
/// alone — without it, a worker that panics before its first reply is
/// just "exited early".
#[derive(Clone)]
pub struct StderrTail {
    lines: Arc<Mutex<VecDeque<String>>>,
    /// Set (and signalled) by the draining thread when the stream ends.
    closed: Arc<(Mutex<bool>, Condvar)>,
}

impl StderrTail {
    /// An empty tail.
    pub fn empty() -> StderrTail {
        StderrTail {
            lines: Arc::new(Mutex::new(VecDeque::new())),
            closed: Arc::new((Mutex::new(false), Condvar::new())),
        }
    }

    /// Starts a thread draining `stream` into the tail buffer. The
    /// thread exits when the stream does; it holds only the buffer Arc,
    /// so it never blocks supervisor shutdown.
    pub fn tail(stream: Box<dyn Read + Send>) -> StderrTail {
        let tail = StderrTail::empty();
        let lines = Arc::clone(&tail.lines);
        let closed = Arc::clone(&tail.closed);
        std::thread::spawn(move || {
            let reader = BufReader::new(stream);
            for line in reader.split(b'\n') {
                let Ok(raw) = line else { break };
                let mut text = String::from_utf8_lossy(&raw).into_owned();
                if text.len() > STDERR_LINE_CAP {
                    let mut cut = STDERR_LINE_CAP;
                    while !text.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    text.truncate(cut);
                    text.push('…');
                }
                let mut buf = lines.lock().unwrap_or_else(|e| e.into_inner());
                if buf.len() == STDERR_TAIL_LINES {
                    buf.pop_front();
                }
                buf.push_back(text);
            }
            let (flag, cv) = &*closed;
            *flag.lock().unwrap_or_else(|e| e.into_inner()) = true;
            cv.notify_all();
        });
        tail
    }

    /// The tail once the stream has ended, waiting at most `timeout`
    /// for the draining thread to reach EOF. Call it after the worker
    /// was reaped: its last lines (a panic message, an injected-fault
    /// announcement) can still sit in the pipe when the supervisor
    /// notices the death. The bound covers a grandchild that keeps the
    /// pipe open.
    pub fn final_snapshot(&self, timeout: Duration) -> Vec<String> {
        let (flag, cv) = &*self.closed;
        let closed = flag.lock().unwrap_or_else(|e| e.into_inner());
        drop(cv.wait_timeout_while(closed, timeout, |closed| !*closed));
        self.snapshot()
    }

    /// The current tail, oldest line first.
    pub fn snapshot(&self) -> Vec<String> {
        self.lines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn stderr_tail_keeps_only_the_last_lines() {
        let mut blob = String::new();
        for i in 0..50 {
            blob.push_str(&format!("line {i}\n"));
        }
        let tail = StderrTail::tail(Box::new(std::io::Cursor::new(blob.into_bytes())));
        // The tailing thread races us; poll briefly for the final state.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = tail.snapshot();
            if snap.len() == STDERR_TAIL_LINES && snap.last().map(String::as_str) == Some("line 49")
            {
                assert_eq!(snap[0], "line 30");
                break;
            }
            assert!(Instant::now() < deadline, "tail never settled: {snap:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn stderr_tail_truncates_hostile_lines() {
        let blob = format!("{}\n", "x".repeat(10_000));
        let tail = StderrTail::tail(Box::new(std::io::Cursor::new(blob.into_bytes())));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = tail.snapshot();
            if let Some(line) = snap.first() {
                assert!(line.chars().count() <= STDERR_LINE_CAP + 1);
                assert!(line.ends_with('…'));
                break;
            }
            assert!(Instant::now() < deadline, "tail never filled");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn final_snapshot_waits_for_lines_still_in_the_pipe() {
        // A stream whose last line shows up only after a delay, like a
        // dying worker's final stderr write racing the supervisor.
        struct Late(Option<&'static [u8]>);
        impl Read for Late {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let Some(bytes) = self.0.take() else {
                    return Ok(0);
                };
                std::thread::sleep(Duration::from_millis(200));
                buf[..bytes.len()].copy_from_slice(bytes);
                Ok(bytes.len())
            }
        }
        let tail = StderrTail::tail(Box::new(Late(Some(b"last words\n"))));
        assert_eq!(tail.final_snapshot(Duration::from_secs(10)), ["last words"]);
    }
}
