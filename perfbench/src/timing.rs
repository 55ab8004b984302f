//! The benchmark's wall-clock reads, all in this one module.

use std::time::{Duration, Instant};

/// A point in wall-clock time.
#[derive(Debug, Clone, Copy)]
pub struct Mark(Instant);

impl Mark {
    pub fn now() -> Mark {
        Mark(Instant::now())
    }

    /// Time from the mark to now; zero while the mark is in the future.
    pub fn elapsed(self) -> Duration {
        self.0.elapsed()
    }

    pub fn ms(self) -> f64 {
        self.elapsed().as_secs_f64() * 1000.0
    }

    pub fn secs(self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    /// The mark `d` later.
    pub fn after(self, d: Duration) -> Mark {
        Mark(self.0 + d)
    }

    /// Time left until the mark; `None` once it has passed.
    pub fn left(self) -> Option<Duration> {
        self.0.checked_duration_since(Instant::now())
    }

    /// Sleeps until the mark, if it is still ahead.
    pub fn sleep_until(self) {
        if let Some(d) = self.left() {
            std::thread::sleep(d);
        }
    }
}
