//! The load generator: an open-loop phase on a seeded Poisson schedule,
//! then a closed-loop phase with zero think time, both from two driver
//! threads holding one keep-alive connection each.
//!
//! Open loop first: it replays the identical request sequence against
//! the identical cache state on every commit, so every per-request
//! count metric comes from it. Every request there is timed from the
//! moment it was *due*, not from when it was sent, so a stall charges
//! the requests queued behind it too.

use crate::client::Client;
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{url_into, Stream, DRIVERS};
use std::io;
use std::time::{Duration, Instant};

/// A wait shorter than this is spun through, not slept. On a virtual
/// machine an idle core is a halted vCPU: the request that follows a
/// sleep runs on cold caches and took 70 us where the one that follows a
/// spin took 20 us. With waits half slept and half spun the median sat
/// in the gap between those two modes and moved 20 % run to run; spinning
/// through the short waits puts the median firmly on the warm path and
/// leaves the cold one to the tail percentiles.
const SPIN_THROUGH: Duration = Duration::from_millis(2);
/// After a longer wait's sleep, the last stretch is spun: `thread::sleep`
/// came back up to 250 us late here (p95), and a late generator would
/// show up as latency the program did not cause.
const SPIN: Duration = Duration::from_micros(500);
/// An open-loop thread this far past the end of its phase stops
/// sending; what is left of its schedule counts as failed. Generous on
/// purpose: a backlog that drains within this is reported as latency,
/// and the one run in 120 that lost requests to the 3 s this used to be
/// was the host stalling (set-up took twice its usual time in the same
/// run), not the program.
const OVERRUN: Duration = Duration::from_secs(15);
/// Lead between arming the phase and its time zero, so both drivers are
/// parked on the schedule before the first request is due.
const LEAD: Duration = Duration::from_millis(5);

/// One open-loop request, times in ns since the phase's time zero.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due: u64,
    /// When it was sent.
    pub sent: u64,
    /// When the last body byte had been read (== `sent` on an I/O error).
    pub done: u64,
    /// How much later than it could have been sent: `sent` minus the
    /// later of `due` and the previous reply. Lag of the generator
    /// itself, not of the system under test.
    pub late: u64,
}

/// What one driver thread did in one phase.
#[derive(Default)]
pub struct DriverLog {
    /// Open loop: every request sent. Closed loop: empty.
    pub samples: Vec<Sample>,
    /// Closed loop: when every verified reply was complete, ns.
    pub completions: Vec<u64>,
    /// Requests sent (both loops).
    pub attempted: u64,
    /// Of those, how many failed: I/O error, non-200, wrong length or
    /// version.
    pub failed: u64,
    /// Open loop: scheduled inside the phase but never sent.
    pub unsent: u64,
}

/// A driver's persistent state: its stream and its connection carry
/// over from the open loop into the closed loop.
pub struct Driver {
    /// The measured request stream of this driver's proxy.
    pub stream: Stream,
    /// The keep-alive connection.
    pub client: Client,
    /// Where this driver's spans go (traced windows only).
    pub tracer: Tracer,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Send one request; on an I/O error, count it and reconnect.
fn send(
    driver: &mut Driver,
    url: &str,
    meta: sc_cache::DocMeta,
    log: &mut DriverLog,
) -> io::Result<Option<crate::client::Reply>> {
    log.attempted += 1;
    match driver.client.get(url, meta) {
        Ok(reply) => {
            if !reply.ok {
                log.failed += 1;
            }
            Ok(Some(reply))
        }
        Err(_) => {
            log.failed += 1;
            driver.client.reconnect()?;
            Ok(None)
        }
    }
}

/// Run both drivers' `body` on their own threads against a shared time
/// zero, and collect their logs in driver order.
fn run_drivers<F>(drivers: &mut [Driver], body: F) -> io::Result<Vec<DriverLog>>
where
    F: Fn(&mut Driver, Instant) -> io::Result<DriverLog> + Sync,
{
    assert_eq!(drivers.len(), DRIVERS);
    let zero = Instant::now() + LEAD;
    let lanes = crate::affinity::lanes();
    std::thread::scope(|scope| {
        let handles: Vec<_> = drivers
            .iter_mut()
            .enumerate()
            .map(|(t, d)| {
                let body = &body;
                scope.spawn(move || {
                    // Driver `t` shares lane `t` with daemon `t`.
                    if let Some(lanes) = lanes {
                        crate::affinity::pin(&[lanes[t % 2]]);
                    }
                    body(d, zero)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| io::Error::other("driver thread panicked"))?)
            .collect()
    })
}

/// The open-loop phase: `windows` windows of `window` each. `traced(w)`
/// says whether window `w`'s requests record spans into their driver's
/// tracer. Returns the drivers' logs, in driver order.
pub fn open_loop(
    drivers: &mut [Driver],
    windows: usize,
    window: Duration,
    traced: impl Fn(usize) -> bool + Sync,
) -> io::Result<Vec<DriverLog>> {
    let end = ns(window) * windows as u64;
    let window_ns = ns(window);
    run_drivers(drivers, |driver, zero| {
        let mut log = DriverLog::default();
        let mut url = String::new();
        let mut due = 0u64;
        let mut free = 0u64; // when the previous reply completed
        loop {
            let req = driver.stream.next_req();
            due += req.gap_ns;
            if due >= end {
                break;
            }
            let due_at = zero + Duration::from_nanos(due);
            let now = Instant::now();
            if due_at > now + SPIN_THROUGH {
                std::thread::sleep(due_at - now - SPIN);
            }
            while Instant::now() < due_at {
                std::hint::spin_loop();
            }
            let sent_at = Instant::now();
            let sent = ns(sent_at.saturating_duration_since(zero));
            if sent > end + ns(OVERRUN) {
                // Hopelessly behind: stop, and own up to the remainder.
                log.unsent += 1;
                loop {
                    due += driver.stream.next_req().gap_ns;
                    if due >= end {
                        break;
                    }
                    log.unsent += 1;
                }
                break;
            }
            url_into(&mut url, req.namespace, req.doc);
            let reply = send(driver, &url, req.meta, &mut log)?;
            let done = reply.map_or(sent, |r| ns(r.done.saturating_duration_since(zero)));
            log.samples.push(Sample {
                due,
                sent,
                done,
                late: sent - due.max(free).min(sent),
            });
            free = done;
            if let Some(r) = reply {
                if traced((due / window_ns) as usize) {
                    let tracer = &mut driver.tracer;
                    let (due_t, sent_t) = (tracer.at(due_at), tracer.at(sent_at));
                    let (written_t, done_t) = (tracer.at(r.written), tracer.at(r.done));
                    let root = tracer.push("client.request", due_t, done_t, NO_PARENT);
                    tracer.push("client.wait", due_t, sent_t, root);
                    tracer.push("client.write", sent_t, written_t, root);
                    tracer.push("client.read", written_t, done_t, root);
                }
            }
        }
        Ok(log)
    })
}

/// The closed-loop phase: each driver sends its next request the moment
/// the previous reply is verified, for `windows` × `window`.
pub fn closed_loop(drivers: &mut [Driver], windows: usize, window: Duration) -> io::Result<Vec<DriverLog>> {
    let end = window * windows as u32;
    run_drivers(drivers, |driver, zero| {
        let mut log = DriverLog::default();
        let mut url = String::new();
        while Instant::now() < zero {
            std::hint::spin_loop();
        }
        loop {
            let sent_at = Instant::now();
            if sent_at >= zero + end {
                break;
            }
            let req = driver.stream.next_req();
            url_into(&mut url, req.namespace, req.doc);
            if let Some(r) = send(driver, &url, req.meta, &mut log)? {
                if r.ok {
                    log.completions.push(ns(r.done.duration_since(zero)));
                }
            }
        }
        Ok(log)
    })
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The second-best of a set of per-window statistics: the second
/// smallest when `lower_is_better`, else the second largest (the only
/// value when there is one; 0 when empty).
///
/// Every timing metric is aggregated over windows this way. On a shared
/// box interference only ever slows a window down, and here it comes in
/// bursts of seconds that cost 20-45 % (a fixed md5 loop measured
/// 490-780 ns/op within one minute), so the windows on the quiet side
/// estimate the program and the rest estimate the neighbours. The best
/// window alone could be a fluke; the median over windows moved 15-28 %
/// between identical runs.
pub fn second_best(values: &[f64], lower_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if !lower_is_better {
        v.reverse();
    }
    v.get(1).or(v.first()).copied().unwrap_or(0.0)
}

/// Median (mean of the middle two when even; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// One open-loop window's statistics, microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenWindow {
    /// Requests due in this window.
    pub requests: usize,
    /// Latency from due time: median.
    pub p50_us: f64,
    /// Latency from due time: 95th percentile.
    pub p95_us: f64,
    /// Latency from due time: 99th percentile.
    pub p99_us: f64,
    /// Latency from due time: maximum.
    pub max_us: f64,
    /// Service time (from send): median.
    pub service_p50_us: f64,
    /// Service time (from send): 99th percentile.
    pub service_p99_us: f64,
    /// Service time (from send): mean.
    pub service_mean_us: f64,
    /// Generator lag, 99th percentile.
    pub late_p99_us: f64,
    /// Requests slower than [`STALL`].
    pub stalls: usize,
    /// Requests were due here and the generator kept to its schedule
    /// (lag p99 within [`LATE_LIMIT`]).
    pub valid: bool,
}

/// A request slower than this is counted as a stall.
pub const STALL: Duration = Duration::from_millis(100);
/// A window whose generator lag exceeds this at p99 is invalid: its
/// latencies would be the generator's, not the program's.
pub const LATE_LIMIT: Duration = Duration::from_millis(1);

/// Split the drivers' open-loop samples into windows by due time.
pub fn open_windows(logs: &[DriverLog], windows: usize, window: Duration) -> Vec<OpenWindow> {
    let us = |v: u64| v as f64 / 1e3;
    (0..windows)
        .map(|w| {
            let (lo, hi) = (ns(window) * w as u64, ns(window) * (w as u64 + 1));
            let of_window = || {
                logs.iter()
                    .flat_map(|l| l.samples.iter())
                    .filter(move |s| s.due >= lo && s.due < hi)
            };
            let mut latency: Vec<u64> = of_window().map(|s| s.done - s.due).collect();
            let mut service: Vec<u64> = of_window().map(|s| s.done - s.sent).collect();
            let mut late: Vec<u64> = of_window().map(|s| s.late).collect();
            latency.sort_unstable();
            service.sort_unstable();
            late.sort_unstable();
            let late_p99 = percentile(&late, 0.99);
            OpenWindow {
                requests: latency.len(),
                p50_us: us(percentile(&latency, 0.50)),
                p95_us: us(percentile(&latency, 0.95)),
                p99_us: us(percentile(&latency, 0.99)),
                max_us: us(latency.last().copied().unwrap_or(0)),
                service_p50_us: us(percentile(&service, 0.50)),
                service_p99_us: us(percentile(&service, 0.99)),
                service_mean_us: us(service.iter().sum::<u64>()) / service.len().max(1) as f64,
                late_p99_us: us(late_p99),
                stalls: latency.iter().filter(|&&l| l > ns(STALL)).count(),
                valid: !latency.is_empty() && late_p99 <= ns(LATE_LIMIT),
            }
        })
        .collect()
}

/// Verified completions per second in each closed-loop window.
pub fn closed_windows(logs: &[DriverLog], windows: usize, window: Duration) -> Vec<f64> {
    let mut counts = vec![0u64; windows];
    for done in logs.iter().flat_map(|l| l.completions.iter()) {
        // A reply that lands after the last boundary belongs to no window.
        if let Some(c) = counts.get_mut((done / ns(window)) as usize) {
            *c += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / window.as_secs_f64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn second_best_is_second_from_the_quiet_side() {
        let v = [5.0, 1.0, 9.0, 3.0];
        assert_eq!(second_best(&v, true), 3.0);
        assert_eq!(second_best(&v, false), 5.0);
        assert_eq!(second_best(&[7.0], true), 7.0);
        assert_eq!(second_best(&[], false), 0.0);
    }

    #[test]
    fn windows_split_by_due_time_and_flag_generator_lag() {
        let s = |due: u64, sent: u64, done: u64, late: u64| Sample { due, sent, done, late };
        let ms = 1_000_000;
        let log = DriverLog {
            samples: vec![
                s(ms, ms, 2 * ms, 0),
                s(5 * ms, 5 * ms, 6 * ms, 0),
                s(15 * ms, 18 * ms, 19 * ms, 3 * ms),
            ],
            ..DriverLog::default()
        };
        let w = open_windows(&[log], 2, Duration::from_millis(10));
        assert_eq!((w[0].requests, w[1].requests), (2, 1));
        assert!(w[0].valid);
        assert!(!w[1].valid, "3 ms of generator lag");
        assert_eq!(w[1].p50_us, 4_000.0, "timed from due, not from sent");
        assert_eq!(w[1].service_p50_us, 1_000.0);
    }
}
