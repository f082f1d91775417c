//! The load generator: one loopback connection, one writer (the calling
//! thread) and one reader thread.
//!
//! The reader stamps every chunk it reads with the time it arrived and
//! hands each line to the writer side as an [`Event`]; acknowledgements
//! and verdicts are classified from their fixed JSON prefix, so the
//! reader stays cheap and its stamps stay close to arrival.

use crate::inputs::{rounds, Inputs, VerdictKey};
use dbcatcher_serve::protocol::{self, Request, Response};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest wait for any single control reply (`HelloAck`, `FlushAck`,
/// `Stopping`).
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Marks a tick that was never acknowledged or never due.
pub const NONE: u64 = u64::MAX;

/// Nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Starts the clock.
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds elapsed.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Sleeps until `at` (nanoseconds since the epoch).
    fn sleep_until(&self, at: u64) {
        let now = self.now();
        if at > now {
            std::thread::sleep(Duration::from_nanos(at - now));
        }
    }
}

/// One server line, as the reader classified it.
#[derive(Debug)]
enum Event {
    Ack {
        unit: usize,
        tick: u64,
        at: u64,
    },
    Verdict {
        key: VerdictKey,
        at: u64,
        line: String,
    },
    Control {
        response: Response,
        at: u64,
    },
    Closed,
}

/// Everything the server said during a run, across daemon boots.
#[derive(Debug)]
pub struct Ledger {
    /// Per unit and tick: when its `Accepted` arrived, or [`NONE`].
    pub acked: Vec<Vec<u64>>,
    /// Per unit and tick: when the open-loop schedule made it due, or
    /// [`NONE`] outside the open-loop phase.
    pub due: Vec<Vec<u64>>,
    /// Verdicts with their arrival time, in arrival order.
    pub verdicts: Vec<(VerdictKey, u64, String)>,
    /// Rejections and errors the server sent.
    pub problems: Vec<String>,
    /// Rejected `(unit, tick)` sends.
    pub rejected: Vec<(usize, u64)>,
    /// Tick lines written, per unit.
    pub sent: Vec<usize>,
}

impl Ledger {
    /// An empty ledger sized for the inputs.
    pub fn new(inputs: &Inputs) -> Self {
        let sizes: Vec<usize> = inputs.units.iter().map(|u| u.lines.len()).collect();
        Ledger {
            acked: sizes.iter().map(|&n| vec![NONE; n]).collect(),
            due: sizes.iter().map(|&n| vec![NONE; n]).collect(),
            verdicts: Vec::new(),
            problems: Vec::new(),
            rejected: Vec::new(),
            sent: vec![0; sizes.len()],
        }
    }

    /// Records an acknowledgement, verdict, rejection or error; hands
    /// back any other event (control replies and end of stream).
    fn record(&mut self, event: Event) -> Option<Event> {
        match event {
            Event::Ack { unit, tick, at } => {
                if let Some(slot) = self
                    .acked
                    .get_mut(unit)
                    .and_then(|a| a.get_mut(tick as usize))
                {
                    *slot = at;
                }
            }
            Event::Verdict { key, at, line } => self.verdicts.push((key, at, line)),
            Event::Control {
                response:
                    Response::Rejected {
                        unit, tick, reason, ..
                    },
                ..
            } => {
                self.rejected.push((unit, tick));
                self.problems
                    .push(format!("unit {unit} tick {tick} rejected: {reason:?}"));
            }
            Event::Control {
                response: Response::Error { message },
                ..
            } => self.problems.push(message),
            Event::Control {
                response: Response::ScopeVerdict(_),
                ..
            } => {}
            other => return Some(other),
        }
        None
    }

    fn note_sent(&mut self, unit: usize, ticks: &Range<usize>) {
        self.sent[unit] = self.sent[unit].max(ticks.end);
    }
}

/// One closed-loop round: when it ended, its ticks, and the probe then.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Arrival of the round's last `FlushAck` (ns since the epoch).
    pub at: u64,
    /// Ticks sent in the round.
    pub ticks: usize,
    /// Probe reading after the round.
    pub probe: u64,
}

/// One connection to the daemon.
pub struct Session {
    stream: TcpStream,
    events: Receiver<Event>,
    reader: Option<JoinHandle<()>>,
    clock: Clock,
}

impl Session {
    /// Connects and starts the reader thread.
    pub fn connect(addr: &str, clock: Clock) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let read_half = stream.try_clone().map_err(|e| e.to_string())?;
        let (tx, events) = mpsc::channel();
        let reader = std::thread::spawn(move || read_loop(read_half, clock, tx));
        Ok(Session {
            stream,
            events,
            reader: Some(reader),
            clock,
        })
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("write to daemon: {e}"))
    }

    /// Records data events until a control reply arrives; returns it with
    /// its arrival time.
    fn next_control(&mut self, ledger: &mut Ledger) -> Result<(Response, u64), String> {
        loop {
            let event = match self.events.recv_timeout(REPLY_TIMEOUT) {
                Ok(event) => event,
                Err(RecvTimeoutError::Timeout) => return Err("daemon stopped replying".into()),
                Err(RecvTimeoutError::Disconnected) => return Err("reader ended".into()),
            };
            match ledger.record(event) {
                Some(Event::Closed) => return Err("daemon closed the connection".into()),
                Some(Event::Control { response, at }) => return Ok((response, at)),
                _ => {}
            }
        }
    }

    /// Registers every unit; returns when the last `HelloAck` arrived
    /// and each unit's `next_tick`.
    pub fn hello(
        &mut self,
        inputs: &Inputs,
        ledger: &mut Ledger,
    ) -> Result<(u64, Vec<u64>), String> {
        let lines: String = inputs.units.iter().map(|u| u.hello.as_str()).collect();
        self.write(lines.as_bytes())?;
        let mut next = vec![NONE; inputs.units.len()];
        let mut last = 0;
        for _ in 0..inputs.units.len() {
            match self.next_control(ledger)? {
                (
                    Response::HelloAck {
                        unit, next_tick, ..
                    },
                    at,
                ) if unit < next.len() => {
                    next[unit] = next_tick;
                    last = at;
                }
                (other, _) => return Err(format!("expected HelloAck, got {other:?}")),
            }
        }
        Ok((last, next))
    }

    /// Sends `Flush` for `units` and waits for every `FlushAck`, checking
    /// the daemon's position against what was sent. Returns the arrival
    /// time of the last ack.
    fn flush(
        &mut self,
        inputs: &Inputs,
        ledger: &mut Ledger,
        units: &[usize],
    ) -> Result<u64, String> {
        let lines: String = units
            .iter()
            .map(|&u| inputs.units[u].flush.as_str())
            .collect();
        self.write(lines.as_bytes())?;
        let mut last = 0;
        for _ in units {
            match self.next_control(ledger)? {
                (
                    Response::FlushAck {
                        unit, next_tick, ..
                    },
                    at,
                ) => {
                    if ledger.sent.get(unit).map(|&s| s as u64) != Some(next_tick) {
                        ledger.problems.push(format!(
                            "unit {unit}: FlushAck at tick {next_tick}, {} sent",
                            ledger.sent.get(unit).copied().unwrap_or(0)
                        ));
                    }
                    last = at;
                }
                (other, _) => return Err(format!("expected FlushAck, got {other:?}")),
            }
        }
        Ok(last)
    }

    /// Closed loop: each round sends up to `batch` ticks per unit, then
    /// one `Flush` per unit, and waits for every `FlushAck` before the
    /// next round. `probe` reads a counter (the daemon's CPU time) at the
    /// start and after every round. Returns, for the start and for each
    /// round, the time (arrival of the round's last `FlushAck`), the
    /// round's tick count and the probe's reading.
    pub fn closed_loop(
        &mut self,
        inputs: &Inputs,
        ledger: &mut Ledger,
        ranges: &[Range<usize>],
        batch: usize,
        probe: &dyn Fn() -> Result<u64, String>,
    ) -> Result<Vec<Round>, String> {
        let mut done = vec![Round {
            at: self.clock.now(),
            ticks: 0,
            probe: probe()?,
        }];
        let mut buf = Vec::new();
        for round in rounds(ranges, batch) {
            buf.clear();
            let mut units = Vec::with_capacity(round.len());
            let mut ticks = 0;
            for (unit, range) in round {
                let lines = &inputs.units[unit].lines;
                buf.extend_from_slice(
                    &inputs.wire[lines[range.start].start..lines[range.end - 1].end],
                );
                ticks += range.len();
                ledger.note_sent(unit, &range);
                units.push(unit);
            }
            self.write(&buf)?;
            let at = self.flush(inputs, ledger, &units)?;
            done.push(Round {
                at,
                ticks,
                probe: probe()?,
            });
        }
        Ok(done)
    }

    /// Open loop: one tick per unit in turn, each due at a fixed
    /// schedule of `rate` ticks/s regardless of how the daemon keeps up.
    /// Every tick whose due time has passed is written in one batch.
    /// Returns each tick's lateness (write time minus due time) and the
    /// drain: from the last due time to the `FlushAck` that follows.
    pub fn open_loop(
        &mut self,
        inputs: &Inputs,
        ledger: &mut Ledger,
        ranges: &[Range<usize>],
        rate: f64,
    ) -> Result<(Vec<u64>, u64), String> {
        let schedule: Vec<(usize, usize)> = rounds(ranges, 1)
            .into_iter()
            .flat_map(|round| round.into_iter().map(|(unit, ticks)| (unit, ticks.start)))
            .collect();
        let period = 1e9 / rate;
        let t0 = self.clock.now() + 1_000_000;
        let due = |j: usize| t0 + (j as f64 * period) as u64;
        let mut late = Vec::with_capacity(schedule.len());
        let mut buf = Vec::new();
        let mut next = 0;
        while next < schedule.len() {
            self.clock.sleep_until(due(next));
            let now = self.clock.now();
            buf.clear();
            while next < schedule.len() && due(next) <= now {
                let (unit, tick) = schedule[next];
                buf.extend_from_slice(inputs.line(unit, tick));
                ledger.due[unit][tick] = due(next);
                ledger.note_sent(unit, &(tick..tick + 1));
                late.push(now - due(next));
                next += 1;
            }
            self.write(&buf)?;
        }
        let last_due = due(schedule.len().saturating_sub(1));
        let units: Vec<usize> = (0..inputs.units.len()).collect();
        let drained = self.flush(inputs, ledger, &units)?;
        Ok((late, drained.saturating_sub(last_due)))
    }

    /// Asks the daemon to stop and waits for `Stopping`.
    pub fn stop(&mut self, ledger: &mut Ledger) -> Result<(), String> {
        self.write((protocol::encode(&Request::Stop) + "\n").as_bytes())?;
        match self.next_control(ledger)? {
            (Response::Stopping, _) => Ok(()),
            (other, _) => Err(format!("expected Stopping, got {other:?}")),
        }
    }

    /// Closes the connection and records whatever the reader still has
    /// (a killed daemon's last lines).
    pub fn close(mut self, ledger: &mut Ledger) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        while let Ok(event) = self.events.try_recv() {
            ledger.record(event);
        }
    }
}

/// Digits following the first occurrence of `key` in `line`.
fn number_after(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn classify(line: &str, at: u64) -> Option<Event> {
    if line.starts_with("{\"Accepted\":") {
        if let (Some(unit), Some(tick)) = (
            number_after(line, "\"unit\":"),
            number_after(line, "\"tick\":"),
        ) {
            return Some(Event::Ack {
                unit: unit as usize,
                tick,
                at,
            });
        }
    }
    if line.starts_with("{\"Verdict\":") {
        let key = (
            number_after(line, "\"unit\":"),
            number_after(line, "\"at_tick\":"),
            number_after(line, "\"db\":"),
            number_after(line, "\"start_tick\":"),
        );
        if let (Some(unit), Some(at_tick), Some(db), Some(start)) = key {
            let key = (unit as usize, at_tick, db as usize, start);
            return Some(Event::Verdict {
                key,
                at,
                line: line.to_string(),
            });
        }
    }
    match protocol::decode_response(line) {
        Ok(response) => Some(Event::Control { response, at }),
        Err(e) => Some(Event::Control {
            response: Response::Error {
                message: format!("undecodable server line: {e}"),
            },
            at,
        }),
    }
}

fn read_loop(mut stream: TcpStream, clock: Clock, tx: mpsc::Sender<Event>) {
    let mut chunk = vec![0u8; 1 << 16];
    let mut pending: Vec<u8> = Vec::new();
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let at = clock.now();
        pending.extend_from_slice(&chunk[..n]);
        let mut consumed = 0;
        while let Some(len) = pending[consumed..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&pending[consumed..consumed + len]);
            if let Some(event) = classify(&line, at) {
                if tx.send(event).is_err() {
                    return;
                }
            }
            consumed += len + 1;
        }
        pending.drain(..consumed);
    }
    let _ = tx.send(Event::Closed);
}
