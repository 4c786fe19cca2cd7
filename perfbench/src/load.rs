//! The open-loop arrival clock of `bulk_contention`: requests are due on
//! a fixed schedule whatever the system does, and their latency runs
//! from when they were due, so a stall that delays the generator counts
//! against the system rather than vanishing from the numbers.

use std::time::{Duration, Instant};

/// A request whose due time has come.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Release {
    /// Position in the schedule.
    pub index: usize,
    /// When it was due.
    pub due: Instant,
    /// How late the generator released it, ms.
    pub lateness_ms: f64,
}

/// Releases scheduled requests as they fall due.
#[derive(Debug)]
pub struct OpenLoop {
    start: Instant,
    due: Vec<Duration>,
    next: usize,
}

impl OpenLoop {
    /// A schedule of offsets from `start`, in ascending order.
    pub fn new(start: Instant, due: Vec<Duration>) -> Self {
        OpenLoop {
            start,
            due,
            next: 0,
        }
    }

    /// Every request due at `now` and not yet released, in order.
    pub fn release(&mut self, now: Instant) -> Vec<Release> {
        let mut out = Vec::new();
        while let Some(&offset) = self.due.get(self.next) {
            let due = self.start + offset;
            if due > now {
                break;
            }
            out.push(Release {
                index: self.next,
                due,
                lateness_ms: latency_ms(due, now),
            });
            self.next += 1;
        }
        out
    }

    /// Time from `now` until the next request falls due; `None` once the
    /// whole schedule is released.
    pub fn until_next(&self, now: Instant) -> Option<Duration> {
        self.due
            .get(self.next)
            .map(|&offset| (self.start + offset).saturating_duration_since(now))
    }
}

/// Open-loop latency of a request that finished at `finished`: measured
/// from its due time, not from when it was submitted.
pub fn latency_ms(due: Instant, finished: Instant) -> f64 {
    finished.saturating_duration_since(due).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn latency_runs_from_the_due_time_when_the_generator_stalls() {
        let start = Instant::now();
        let mut clock = OpenLoop::new(start, vec![ms(0), ms(10), ms(20), ms(40)]);
        // The generator stalls until 25 ms: three requests are overdue.
        let released = clock.release(start + ms(25));
        assert_eq!(
            released.iter().map(|r| r.index).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        let lateness: Vec<f64> = released.iter().map(|r| r.lateness_ms).collect();
        assert_eq!(lateness, [25.0, 15.0, 5.0]);
        // Each finishes 5 ms after it went out, at 30 ms: latency counts
        // the stall, not just the 5 ms of service.
        let latency: Vec<f64> = released
            .iter()
            .map(|r| latency_ms(r.due, start + ms(30)))
            .collect();
        assert_eq!(latency, [30.0, 20.0, 10.0]);
        assert_eq!(clock.until_next(start + ms(30)), Some(ms(10)));
        assert!(clock.release(start + ms(39)).is_empty());
        assert_eq!(clock.release(start + ms(40))[0].lateness_ms, 0.0);
        assert_eq!(clock.until_next(start + ms(40)), None);
    }
}
