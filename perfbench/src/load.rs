//! The closed-loop load generator: each client thread holds one
//! persistent connection and sends its next request only after the
//! previous answer arrived and was checked against the oracle.
//!
//! A client's answers are cut into windows of [`WINDOW_SAMPLES`]
//! consecutive answers. A window is summarised (its p50, its p99, its
//! rate) as soon as it is full and its samples are dropped, so the
//! benchmark's own bookkeeping stays small however long the run is.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use crate::http::Conn;
use crate::oracle;
use crate::stats::percentile;
use crate::workload::Catalog;

/// Failure descriptions kept for the report (the count is exact).
const FAILURES_KEPT: usize = 10;
/// Answers per window: ten of them lie beyond its nearest-rank p99.
pub const WINDOW_SAMPLES: usize = 1000;

/// Latency and rate of one window of consecutive answers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    pub p50_us: f64,
    pub p99_us: f64,
    /// Correct answers per second of the window's wall time.
    pub ok_per_s: f64,
}

/// The window being filled.
struct Open {
    started: Instant,
    latencies_ns: Vec<u32>,
    ok: u64,
}

impl Open {
    fn new() -> Open {
        Open {
            started: Instant::now(),
            latencies_ns: Vec::with_capacity(WINDOW_SAMPLES),
            ok: 0,
        }
    }

    /// The window's summary; `None` while it holds no answer.
    fn close(&mut self, now: Instant) -> Option<Window> {
        let mut us: Vec<f64> = self
            .latencies_ns
            .iter()
            .map(|&ns| f64::from(ns) / 1e3)
            .collect();
        us.sort_by(f64::total_cmp);
        let window = Window {
            p50_us: percentile(&us, 50.0)?,
            p99_us: percentile(&us, 99.0)?,
            ok_per_s: self.ok as f64 / (now - self.started).as_secs_f64(),
        };
        *self = Open::new();
        Some(window)
    }
}

/// What the clients observed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// `/query` requests sent (the denominator of the miss ratio).
    pub queries: u64,
    /// Answers received, right or wrong.
    pub answers: u64,
    /// Every full window of every client. A client's last, partly
    /// filled window is left out unless it is the client's only one.
    pub windows: Vec<Window>,
}

impl Tally {
    /// Adds `other`'s counts, failures and samples to this tally.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.queries += other.queries;
        self.answers += other.answers;
        self.windows.extend_from_slice(&other.windows);
        for f in other.failures {
            if self.failures.len() < FAILURES_KEPT {
                self.failures.push(f);
            }
        }
    }
}

/// Runs `clients` closed-loop clients against `addr` until `duration`
/// has passed; a request in flight then is still answered and counted.
/// Client `c` draws sequence stream `first_stream + c` of `seed`.
pub fn drive(
    addr: SocketAddr,
    catalog: &Catalog,
    seed: u64,
    first_stream: u64,
    clients: usize,
    duration: Duration,
) -> Tally {
    let deadline = Instant::now() + duration;
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let stream = first_stream + c as u64;
                scope.spawn(move || client(addr, catalog, seed, stream, deadline))
            })
            .collect();
        for t in threads {
            total.absorb(t.join().expect("client thread panicked"));
        }
    });
    total
}

fn client(addr: SocketAddr, catalog: &Catalog, seed: u64, stream: u64, deadline: Instant) -> Tally {
    let mut tally = Tally::default();
    let mut seq = catalog.sequence(seed, stream);
    let mut conn: Option<Conn> = None;
    let mut open = Open::new();
    while Instant::now() < deadline {
        let req = &catalog.reqs[seq.next()];
        tally.attempted += 1;
        if req.path.starts_with("/query/") {
            tally.queries += 1;
        }
        let fail = |tally: &mut Tally, why: String| {
            tally.failed += 1;
            if tally.failures.len() < FAILURES_KEPT {
                tally
                    .failures
                    .push(format!("{} {}: {why}", req.path, req.label));
            }
        };
        let live = match conn.as_mut() {
            Some(live) => live,
            None => match Conn::connect(addr) {
                Ok(fresh) => conn.insert(fresh),
                Err(e) => {
                    fail(&mut tally, format!("connect: {e}"));
                    continue;
                }
            },
        };
        let start = Instant::now();
        let outcome = live.post(&req.path, &req.body);
        let end = Instant::now();
        match outcome {
            Ok((status, body)) => {
                tally.answers += 1;
                open.latencies_ns
                    .push(u32::try_from((end - start).as_nanos()).unwrap_or(u32::MAX));
                if status != 200 {
                    fail(&mut tally, format!("HTTP {status}: {body}"));
                } else if oracle::matches(&req.expected, &body) {
                    open.ok += 1;
                } else {
                    fail(&mut tally, "answers differ from the oracle".into());
                }
                if open.latencies_ns.len() == WINDOW_SAMPLES {
                    tally.windows.extend(open.close(Instant::now()));
                }
            }
            Err(e) => {
                conn = None;
                fail(&mut tally, format!("i/o: {e}"));
            }
        }
    }
    if tally.windows.is_empty() {
        tally.windows.extend(open.close(Instant::now()));
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_is_summarised_by_nearest_rank() {
        let mut open = Open::new();
        open.latencies_ns = (1..=1000u32).rev().map(|us| us * 1000).collect();
        open.ok = 1000;
        let started = open.started;
        let w = open
            .close(started + Duration::from_millis(500))
            .expect("holds answers");
        assert_eq!((w.p50_us, w.p99_us, w.ok_per_s), (500.0, 990.0, 2000.0));
        assert!(open.latencies_ns.is_empty(), "closing starts a new window");
        assert_eq!(open.close(Instant::now()), None);
    }

    #[test]
    fn absorb_pools_windows_and_keeps_few_failures() {
        let w = Window {
            p50_us: 1.0,
            p99_us: 2.0,
            ok_per_s: 3.0,
        };
        let mut total = Tally::default();
        for i in 0..12 {
            total.absorb(Tally {
                attempted: 2,
                failed: 1,
                failures: vec![format!("f{i}")],
                queries: 1,
                answers: 2,
                windows: vec![w; 2],
            });
        }
        assert_eq!((total.attempted, total.failed, total.answers), (24, 12, 24));
        assert_eq!(total.failures.len(), FAILURES_KEPT);
        assert_eq!(total.windows.len(), 24);
    }
}
