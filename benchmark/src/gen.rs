//! Load-generation loops, independent of what the operations do.
//!
//! The paced loop is **open**: operation `i` is due at `t0 + i * period`
//! whatever happened to the operations before it, and its latency is timed
//! from that due time.  An operation that overruns delays the next ones, and
//! the delay counts in *their* latency — a stall is paid by every request it
//! held up, as it would be with independent users (no coordinated omission).

use std::time::{Duration, Instant};

/// One operation of a loop, in nanoseconds since the loop's `t0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the schedule wanted it sent (closed loop: when it was sent).
    pub due_ns: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ok: bool,
}

impl Sample {
    /// What a user waiting on the schedule saw.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.due_ns
    }
}

/// How late the generator itself ran, per operation: the wait between the
/// moment it could have started (due, or the previous operation's end if
/// that came later) and the moment it did.  Backlog caused by the system is
/// not the generator's lateness.
pub fn lateness_ns(samples: &[Sample]) -> Vec<u64> {
    let mut prev_end = 0;
    samples
        .iter()
        .map(|s| {
            let could_start = s.due_ns.max(prev_end);
            prev_end = s.end_ns;
            s.start_ns.saturating_sub(could_start)
        })
        .collect()
}

/// Share of operations the generator started more than `late_ns` after it
/// could have.
pub fn late_share(samples: &[Sample], late_ns: u64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let late = lateness_ns(samples).iter().filter(|&&l| l > late_ns).count();
    late as f64 / samples.len() as f64
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// When the operations of an open loop are due.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// One every `period`: a pusher's sampling grid.
    Periodic,
    /// Independent users: exponential gaps with mean `period`, drawn from
    /// this seed.  Two periodic loops of the same rate would keep, for a
    /// whole run, whatever phase their threads happened to start with —
    /// every query landing just before a tick in one run, just after it in
    /// the next.  Random arrivals meet every phase within each run.
    Poisson(u64),
}

/// Open loop: run `op(i)` at its due time, for every due time before
/// `t0 + duration`.  `op` returns whether the operation succeeded.
pub fn open_loop(
    t0: Instant,
    period: Duration,
    arrivals: Arrivals,
    duration: Duration,
    mut op: impl FnMut(u64) -> bool,
) -> Vec<Sample> {
    let period_ns = period.as_nanos().max(1) as u64;
    let duration_ns = duration.as_nanos() as u64;
    let mut samples = Vec::with_capacity((duration_ns / period_ns) as usize + 1);
    let mut due_ns = 0u64;
    let mut i = 0u64;
    while due_ns < duration_ns {
        let due = t0 + Duration::from_nanos(due_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let start_ns = ns_since(t0);
        let ok = op(i);
        samples.push(Sample { due_ns, start_ns, end_ns: ns_since(t0), ok });
        i += 1;
        due_ns = match arrivals {
            Arrivals::Periodic => i * period_ns,
            Arrivals::Poisson(seed) => {
                // uniform in (0, 1] from the top 53 bits of a hash of (seed, i)
                let u = ((crate::workload::mix64(seed ^ crate::workload::mix64(i)) >> 11) + 1)
                    as f64
                    / (1u64 << 53) as f64;
                due_ns + (-u.ln() * period_ns as f64) as u64
            }
        };
    }
    samples
}

/// Closed loop: run `op(i)` back to back until `duration` has passed.
pub fn closed_loop(
    t0: Instant,
    duration: Duration,
    mut op: impl FnMut(u64) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut i = 0;
    while t0.elapsed() < duration {
        let start_ns = ns_since(t0);
        let ok = op(i);
        samples.push(Sample { due_ns: start_ns, start_ns, end_ns: ns_since(t0), ok });
        i += 1;
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_timed_from_due_time_so_a_stall_is_paid_by_the_ticks_behind_it() {
        // 10 ms period; operation 2 stalls for 50 ms, the others are instant
        let samples = open_loop(
            Instant::now(),
            Duration::from_millis(10),
            Arrivals::Periodic,
            Duration::from_millis(120),
            |i| {
                if i == 2 {
                    std::thread::sleep(Duration::from_millis(50));
                }
                true
            },
        );
        assert_eq!(samples.len(), 12);
        let ms = |s: &Sample| s.latency_ns() as f64 / 1e6;
        assert!(ms(&samples[1]) < 5.0, "before the stall: {}", ms(&samples[1]));
        assert!(ms(&samples[2]) >= 50.0);
        // ticks 3..=6 were due during the stall: they start late and their
        // latency says so, shrinking by one period each
        assert!(ms(&samples[3]) >= 38.0, "tick 3 hid the stall: {}", ms(&samples[3]));
        assert!(ms(&samples[4]) >= 28.0, "tick 4 hid the stall: {}", ms(&samples[4]));
        assert!(ms(&samples[5]) >= 18.0, "tick 5 hid the stall: {}", ms(&samples[5]));
        assert!(ms(&samples[9]) < 5.0, "never recovered: {}", ms(&samples[9]));
        // a closed loop would have reported one slow operation out of 12;
        // here at least four are slow
        assert!(samples.iter().filter(|s| ms(s) >= 18.0).count() >= 4);
        // the schedule did not slip: due times are exact multiples
        assert!(samples.iter().enumerate().all(|(i, s)| s.due_ns == i as u64 * 10_000_000));
        // and the backlog is the stalled operation's doing, not the generator's
        let late = lateness_ns(&samples);
        assert!(late[3] < 5_000_000 && late[4] < 5_000_000, "{late:?}");
    }

    #[test]
    fn lateness_excludes_backlog() {
        let s = |due_ns, start_ns, end_ns| Sample { due_ns, start_ns, end_ns, ok: true };
        // second op starts right after the first ends although it was due
        // earlier (system backlog); third starts 3 ms after it could have
        let samples = [s(0, 10, 500), s(100, 510, 600), s(1_000, 3_001_000, 3_002_000)];
        assert_eq!(lateness_ns(&samples), vec![10, 10, 3_000_000]);
        assert!((late_share(&samples, 1_000_000) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(late_share(&samples, 3_000_000), 0.0);
        assert_eq!(late_share(&[], 1), 0.0);
    }

    #[test]
    fn poisson_arrivals_keep_the_rate_and_repeat_with_the_seed() {
        let run = |seed| {
            open_loop(
                Instant::now(),
                Duration::from_micros(100),
                Arrivals::Poisson(seed),
                Duration::from_millis(200),
                |_| true,
            )
        };
        let (a, b, c) = (run(7), run(7), run(8));
        // 2000 expected, standard deviation 45
        assert!((1700..2300).contains(&a.len()), "{}", a.len());
        let due = |s: &[Sample]| s.iter().map(|x| x.due_ns).collect::<Vec<_>>();
        assert_eq!(due(&a), due(&b));
        assert_ne!(due(&a), due(&c));
        assert!(a.windows(2).all(|w| w[1].due_ns >= w[0].due_ns));
    }

    #[test]
    fn closed_loop_runs_back_to_back() {
        let samples = closed_loop(Instant::now(), Duration::from_millis(30), |_| {
            std::thread::sleep(Duration::from_millis(2));
            true
        });
        assert!((5..=15).contains(&samples.len()), "{}", samples.len());
        assert!(samples.windows(2).all(|w| w[1].start_ns >= w[0].end_ns));
    }
}
