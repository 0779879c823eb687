//! The benchmark's own statistics: percentiles under the ten-beyond rule,
//! the open-loop schedule with due-time latency, the `max_qps` ladder
//! search, and metric-name validation. Everything here is pure so the
//! tests at the bottom pin the rules without timing anything real.

use std::time::Duration;

/// Percentiles a tail may be reported at, highest first.
const TAIL_LEVELS: [f64; 4] = [0.999, 0.99, 0.95, 0.90];

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of `q` among `n` samples. The epsilon keeps
/// products like `0.9 * 100`, which round to just above 90, at rank 90.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).min(n)
}

/// Samples strictly beyond the nearest-rank position of `q` among `n`.
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest standard tail percentile with at least ten samples beyond
/// it, or `None` when even p90 has fewer (fewer than 100 samples).
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS.into_iter().find(|&q| beyond(n, q) >= 10)
}

/// Median, a requested tail, and the sample count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile actually reported: the requested one when at
    /// least ten samples lie beyond it, otherwise the highest lower level
    /// that has them (the median when none has).
    pub tail_q: f64,
    /// The value at `tail_q`.
    pub tail: f64,
}

/// Summarises samples, reporting the tail at `want` (e.g. 0.99) only when
/// ten samples lie beyond it, and at the highest supported level otherwise.
/// `None` for an empty sample.
pub fn summarize(samples: &[f64], want: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_q = if beyond(n, want) >= 10 {
        want
    } else {
        tail_level(n).filter(|&q| q < want).unwrap_or(0.5)
    };
    Some(Summary {
        n,
        p50: percentile(&sorted, 0.5),
        tail_q,
        tail: percentile(&sorted, tail_q),
    })
}

/// Median of a non-empty sample (`NaN` for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples, 0.5).map_or(f64::NAN, |s| s.p50)
}

/// One request of an open-loop schedule, as the generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index in the schedule.
    pub index: usize,
    /// How late the generator sent it, relative to its due time.
    pub lag: Duration,
    /// Completion time minus due time: the latency a user arriving on
    /// schedule sees, including any wait an earlier stall imposed.
    pub latency: Duration,
    /// False when the request failed or was refused.
    pub ok: bool,
}

/// Due times of `count` requests at `rate` per second from offset zero.
pub fn schedule(rate: f64, count: usize) -> Vec<Duration> {
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// Runs one sender's share of an open-loop schedule. `now` reads the
/// clock as an offset from the schedule's start, `wait_until` sleeps to an
/// offset, and `send` issues request `i` and returns whether it succeeded.
/// Requests go out at their due time or, when the sender is behind, at
/// once — never skipped and never re-timed, so a stall shows up as lag on
/// every request queued behind it.
pub fn run_schedule(
    due: &[(usize, Duration)],
    mut now: impl FnMut() -> Duration,
    mut wait_until: impl FnMut(Duration),
    mut send: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut out = Vec::with_capacity(due.len());
    for &(index, at) in due {
        if now() < at {
            wait_until(at);
        }
        let lag = now().saturating_sub(at);
        let ok = send(index);
        let latency = now().saturating_sub(at);
        out.push(Sample {
            index,
            lag,
            latency,
            ok,
        });
    }
    out
}

/// What one rung of the rate ladder measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that failed or were refused.
    pub failed: usize,
    /// Tail latency from due time, ms.
    pub tail_ms: f64,
    /// Generator lag at the end of the rung, ms: a backlog that kept
    /// growing leaves the last requests far behind schedule.
    pub final_lag_ms: f64,
}

impl Rung {
    /// True when the rung meets the SLO: no failures, tail latency within
    /// `slo_ms`, and a final lag within `slo_ms` (no growing backlog).
    pub fn passes(&self, slo_ms: f64) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.tail_ms <= slo_ms
            && self.final_lag_ms <= slo_ms
    }
}

/// The rate the ladder search offers next, or `None` when it is done.
///
/// The search starts at `start` and doubles while rates pass. After the
/// first failure it bisects (geometrically) between the highest passing
/// rate below the lowest failing one and that failing rate, until their
/// ratio is at most `1 + resolution`. A failing `start` is halved until a
/// rate passes or the rate drops below `start / 8`; the search also stops
/// before doubling past `ceiling`.
pub fn next_rate(
    start: f64,
    tried: &[Rung],
    slo_ms: f64,
    resolution: f64,
    ceiling: f64,
) -> Option<f64> {
    if tried.is_empty() {
        return Some(start);
    }
    let fail = tried
        .iter()
        .filter(|r| !r.passes(slo_ms))
        .map(|r| r.rate)
        .reduce(f64::min);
    match (max_qps(tried, slo_ms), fail) {
        (Some(pass), None) => (pass * 2.0 <= ceiling).then_some(pass * 2.0),
        (None, Some(fail)) => (fail / 2.0 >= start / 8.0).then_some(fail / 2.0),
        (Some(pass), Some(fail)) => (fail / pass > 1.0 + resolution).then(|| (pass * fail).sqrt()),
        (None, None) => None,
    }
}

/// The highest passing rate below the lowest failing one, in whatever
/// order the rungs ran; `None` when no rate below every failure passed.
pub fn max_qps(ladder: &[Rung], slo_ms: f64) -> Option<f64> {
    let fail = ladder
        .iter()
        .filter(|r| !r.passes(slo_ms))
        .map(|r| r.rate)
        .fold(f64::INFINITY, f64::min);
    ladder
        .iter()
        .filter(|r| r.passes(slo_ms) && r.rate < fail)
        .map(|r| r.rate)
        .reduce(f64::max)
}

/// True for a valid metric name: starts with a letter or digit, at most 64
/// characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True for a valid unit: 1 to 16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_level(99), None);
        assert_eq!(tail_level(100), Some(0.90));
        assert_eq!(tail_level(199), Some(0.90));
        assert_eq!(tail_level(200), Some(0.95));
        assert_eq!(tail_level(999), Some(0.95));
        assert_eq!(tail_level(1000), Some(0.99));
        assert_eq!(tail_level(10_000), Some(0.999));
    }

    #[test]
    fn summary_falls_back_and_states_its_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples, 0.99).unwrap();
        assert_eq!((s.n, s.tail_q, s.tail, s.p50), (1000, 0.99, 990.0, 500.0));

        // 500 samples cannot support p99 (5 beyond): fall back to p95
        let s = summarize(&samples[..500], 0.99).unwrap();
        assert_eq!((s.n, s.tail_q, s.tail), (500, 0.95, 475.0));

        // too few for any tail: the median stands in, and says so
        let s = summarize(&samples[..20], 0.99).unwrap();
        assert_eq!((s.n, s.tail_q, s.tail), (20, 0.5, 10.0));

        assert!(summarize(&[], 0.99).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn due_time_latency_charges_a_stall_to_every_request_behind_it() {
        // 10 ms spacing; request 2 stalls the sender for 55 ms; every
        // other request takes 1 ms.
        let due: Vec<(usize, Duration)> = schedule(100.0, 8).into_iter().enumerate().collect();
        let clock = Cell::new(Duration::ZERO);
        let samples = run_schedule(
            &due,
            || clock.get(),
            |t| clock.set(t),
            |i| {
                clock.set(clock.get() + if i == 2 { ms(55) } else { ms(1) });
                true
            },
        );
        let lat: Vec<u64> = samples
            .iter()
            .map(|s| s.latency.as_millis() as u64)
            .collect();
        let lag: Vec<u64> = samples.iter().map(|s| s.lag.as_millis() as u64).collect();
        // request 2 sent on time at 20 ms, done at 75 ms; requests 3..=7
        // were due at 30..70 ms but could only go out at 75, 76, ...
        assert_eq!(lag, vec![0, 0, 0, 45, 36, 27, 18, 9]);
        assert_eq!(lat, vec![1, 1, 55, 46, 37, 28, 19, 10]);
        // timing from the send instead would have hidden the stall
        assert_eq!(samples[3].latency - samples[3].lag, ms(1));
    }

    #[test]
    fn an_on_time_sender_waits_for_each_due_time() {
        let due: Vec<(usize, Duration)> = schedule(50.0, 4).into_iter().enumerate().collect();
        let clock = Cell::new(Duration::ZERO);
        let sent = std::cell::RefCell::new(Vec::new());
        let samples = run_schedule(
            &due,
            || clock.get(),
            |t| clock.set(t),
            |i| {
                sent.borrow_mut().push(clock.get());
                clock.set(clock.get() + ms(2));
                i != 3
            },
        );
        assert_eq!(*sent.borrow(), vec![ms(0), ms(20), ms(40), ms(60)]);
        assert!(samples.iter().all(|s| s.lag.is_zero()));
        assert_eq!(
            samples.iter().map(|s| s.ok).collect::<Vec<_>>(),
            vec![true, true, true, false]
        );
    }

    fn rung(rate: f64, failed: usize, tail_ms: f64, final_lag_ms: f64) -> Rung {
        Rung {
            rate,
            attempted: 100,
            failed,
            tail_ms,
            final_lag_ms,
        }
    }

    #[test]
    fn max_qps_is_the_highest_pass_below_the_lowest_failure() {
        let slo = 100.0;
        let ladder = [
            rung(10.0, 0, 5.0, 0.0),
            rung(20.0, 0, 9.0, 0.1),
            rung(40.0, 0, 80.0, 2.0),
            rung(80.0, 0, 400.0, 900.0),
        ];
        assert_eq!(max_qps(&ladder, slo), Some(40.0));
        // a higher rung that happens to pass above a failing one does not
        // count: capacity is where the ladder first breaks
        let ladder = [
            rung(10.0, 0, 5.0, 0.0),
            rung(20.0, 0, 150.0, 0.0),
            rung(40.0, 0, 50.0, 0.0),
        ];
        assert_eq!(max_qps(&ladder, slo), Some(10.0));
        // bisection rungs run after the failure they narrow down
        let ladder = [
            rung(10.0, 0, 5.0, 0.0),
            rung(20.0, 0, 150.0, 0.0),
            rung(14.0, 0, 40.0, 0.0),
            rung(17.0, 0, 120.0, 0.0),
            rung(15.5, 0, 60.0, 0.0),
        ];
        assert_eq!(max_qps(&ladder, slo), Some(15.5));
    }

    #[test]
    fn one_failed_request_disqualifies_its_rate() {
        let slo = 100.0;
        let ladder = [rung(10.0, 0, 5.0, 0.0), rung(20.0, 1, 5.0, 0.0)];
        assert_eq!(max_qps(&ladder, slo), Some(10.0));
        assert_eq!(max_qps(&[rung(10.0, 1, 1.0, 0.0)], slo), None);
        // a growing backlog disqualifies too, even with a fine tail
        assert_eq!(max_qps(&[rung(10.0, 0, 1.0, 250.0)], slo), None);
        assert_eq!(max_qps(&[], slo), None);
    }

    /// Runs the ladder search against a server whose capacity is `cap`:
    /// a rate passes when it is at most `cap`.
    fn search(start: f64, cap: f64) -> (Vec<f64>, Option<f64>) {
        let mut tried = Vec::new();
        while let Some(rate) = next_rate(start, &tried, 100.0, 0.1, 1e6) {
            let tail = if rate <= cap { 10.0 } else { 500.0 };
            tried.push(rung(rate, 0, tail, 0.0));
        }
        let rates = tried.iter().map(|r| r.rate).collect();
        (rates, max_qps(&tried, 100.0))
    }

    #[test]
    fn the_ladder_doubles_then_bisects_to_its_resolution() {
        let (rates, best) = search(100.0, 500.0);
        // 100, 200, 400 pass, 800 fails; then 566 (fails), 476, 519 (fails)
        assert_eq!(&rates[..4], &[100.0, 200.0, 400.0, 800.0]);
        assert_eq!(rates.len(), 7);
        let best = best.unwrap();
        assert!(best <= 500.0 && best > 500.0 / 1.1, "{best}");

        // every capacity inside a doubling step is found to within 10%,
        // so a change smaller than a step still moves the result
        for cap in [130.0, 150.0, 170.0, 190.0, 3000.0, 4100.0] {
            let best = search(100.0, cap).1.unwrap();
            assert!(best <= cap && best > cap / 1.1, "cap {cap}: {best}");
        }
    }

    #[test]
    fn a_failing_start_is_halved_and_the_ceiling_stops_the_climb() {
        let (rates, best) = search(100.0, 30.0);
        assert_eq!(&rates[..3], &[100.0, 50.0, 25.0]);
        let best = best.unwrap();
        assert!(best <= 30.0 && best > 30.0 / 1.1, "{best}");
        // below start / 8 the search gives up
        assert_eq!(search(100.0, 5.0).1, None);
        // nothing fails below the ceiling: the search stops there
        let mut tried = Vec::new();
        while let Some(rate) = next_rate(100.0, &tried, 100.0, 0.1, 1000.0) {
            tried.push(rung(rate, 0, 1.0, 0.0));
        }
        assert_eq!(max_qps(&tried, 100.0), Some(800.0));
    }

    #[test]
    fn metric_names_and_units_are_validated() {
        for ok in [
            "setup_s",
            "lake.query_p99_ms",
            "serve.hit_ms.p50",
            "matchers.embdi.train_s",
            "0x-1",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_under",
            "index/lsh_ms",
            "has space",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds_per_request"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
