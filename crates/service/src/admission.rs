//! Admission control: the layer between the request front-ends and
//! the scheduler.
//!
//! Every request carries a cost estimate (total node·samples). The
//! gate admits up to `max_active` requests at once, queues up to
//! `max_queue` more (blocking the submitting connection — natural
//! backpressure for line-oriented clients), and *sheds* everything
//! beyond that instead of letting thousands of simultaneous requests
//! allocate fleets concurrently and OOM the host. Oversize requests —
//! including ones whose sample count overflows the address space —
//! are rejected outright before any allocation happens, and when the
//! gate knows its throughput ([`AdmissionConfig::cost_per_ms`]) it
//! also rejects requests whose deadline the cost estimate cannot meet.
//!
//! Accounting closes over every path: each submission ends in exactly
//! one of `admitted`, `shed_busy`, `rejected_oversize`, or
//! `rejected_deadline`, and each admitted permit ends in exactly one
//! of `completed` or `failed` (see [`Permit::fail`]) — the identities
//! [`AdmissionStats::submitted`] and the chaos suite pin.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Gate policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Requests simulated concurrently.
    pub max_active: usize,
    /// Requests parked behind them before the gate starts shedding.
    pub max_queue: usize,
    /// Largest admissible node·sample cost per request.
    pub max_request_cost: u64,
    /// Estimated node·samples served per millisecond, used to screen
    /// request deadlines at admission (0 disables the screen: every
    /// deadline is then checked only between shards, mid-flight).
    pub cost_per_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_active: 4,
            max_queue: 64,
            // The Fig. 1 fleet is ~1.2 M node·samples; a thousand of
            // those still fits, an address-space bomb does not.
            max_request_cost: 1 << 30,
            cost_per_ms: 0,
        }
    }
}

/// Why the gate turned a request away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// Estimated cost above [`AdmissionConfig::max_request_cost`]
    /// (or not even representable).
    Oversize { cost: u128, limit: u64 },
    /// Active slots and the wait queue are both full.
    Busy { active: usize, queued: usize },
    /// The cost estimate cannot finish inside the request's deadline
    /// at the gate's configured throughput.
    DeadlineUnmeetable {
        cost: u128,
        deadline_ms: u64,
        estimated_ms: u64,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Oversize { cost, limit } => write!(
                f,
                "rejected: request cost {cost} node-samples exceeds the {limit} limit"
            ),
            AdmissionError::Busy { active, queued } => {
                write!(f, "shed: service busy ({active} active, {queued} queued)")
            }
            AdmissionError::DeadlineUnmeetable {
                cost,
                deadline_ms,
                estimated_ms,
            } => write!(
                f,
                "rejected: cost {cost} needs ~{estimated_ms} ms, past the {deadline_ms} ms deadline"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Lifetime counters of one gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests that got an active slot (immediately or after queuing).
    pub admitted: u64,
    /// Requests that had to queue before admission.
    pub queued: u64,
    /// Requests shed because the queue was full.
    pub shed_busy: u64,
    /// Requests rejected for size before touching the queue.
    pub rejected_oversize: u64,
    /// Requests rejected because their deadline was unmeetable.
    pub rejected_deadline: u64,
    /// Admitted requests whose permit was released cleanly.
    pub completed: u64,
    /// Admitted requests whose permit was marked failed (shard panic,
    /// mid-flight deadline, …) before release.
    pub failed: u64,
    /// Deepest the wait queue ever got.
    pub peak_queue_depth: usize,
    /// Currently running requests.
    pub active: usize,
    /// Currently parked requests.
    pub queue_depth: usize,
}

impl AdmissionStats {
    /// Every request the gate ever saw: each submission lands in
    /// exactly one of the four buckets.
    pub fn submitted(&self) -> u64 {
        self.admitted + self.shed_busy + self.rejected_oversize + self.rejected_deadline
    }
}

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    queued: usize,
}

/// The admission gate. An admitted request holds a [`Permit`]; the
/// slot frees when the permit drops.
#[derive(Debug)]
pub struct Gate {
    cfg: AdmissionConfig,
    state: Mutex<GateState>,
    freed: Condvar,
    admitted: AtomicU64,
    queued_total: AtomicU64,
    shed_busy: AtomicU64,
    rejected_oversize: AtomicU64,
    rejected_deadline: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    peak_queue_depth: AtomicUsize,
}

/// An occupied active slot; dropping it releases the slot and wakes
/// one queued request. Call [`Permit::fail`] before the drop to book
/// the request as failed rather than completed.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a Gate,
    failed: AtomicBool,
}

impl Permit<'_> {
    /// Books this request as failed (shard panic, mid-flight deadline,
    /// merge error) when the permit drops. Idempotent.
    pub fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        if self.failed.load(Ordering::SeqCst) {
            self.gate.failed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.gate.completed.fetch_add(1, Ordering::Relaxed);
        }
        // fs2-lint: allow(no-panic-service) -- lock poisoning means a holder already panicked; propagating is the least-bad option in a Drop
        let mut st = self.gate.state.lock().expect("gate state poisoned");
        st.active -= 1;
        drop(st);
        self.gate.freed.notify_one();
    }
}

impl Gate {
    pub fn new(cfg: AdmissionConfig) -> Gate {
        assert!(cfg.max_active > 0, "gate needs at least one active slot");
        Gate {
            cfg,
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            queued_total: AtomicU64::new(0),
            shed_busy: AtomicU64::new(0),
            rejected_oversize: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            peak_queue_depth: AtomicUsize::new(0),
        }
    }

    /// Admits, queues, or rejects a request of the given estimated
    /// cost. Blocks while queued; costs beyond `u64` (address-space
    /// overflow upstream) are always oversize. A `deadline_ms` the
    /// configured throughput cannot meet is rejected up front rather
    /// than admitted to fail mid-flight.
    pub fn admit(
        &self,
        cost: u128,
        deadline_ms: Option<u64>,
    ) -> Result<Permit<'_>, AdmissionError> {
        if cost > u128::from(self.cfg.max_request_cost) {
            self.rejected_oversize.fetch_add(1, Ordering::Relaxed);
            return Err(AdmissionError::Oversize {
                cost,
                limit: self.cfg.max_request_cost,
            });
        }
        if let Some(deadline) = deadline_ms {
            if self.cfg.cost_per_ms > 0 {
                let estimated_ms = cost.div_ceil(u128::from(self.cfg.cost_per_ms));
                if estimated_ms > u128::from(deadline) {
                    self.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                    return Err(AdmissionError::DeadlineUnmeetable {
                        cost,
                        deadline_ms: deadline,
                        estimated_ms: u64::try_from(estimated_ms).unwrap_or(u64::MAX),
                    });
                }
            }
        }
        // fs2-lint: allow(no-panic-service) -- lock poisoning, not peer input: the critical sections below only touch two counters
        let mut st = self.state.lock().expect("gate state poisoned");
        if st.active >= self.cfg.max_active {
            if st.queued >= self.cfg.max_queue {
                self.shed_busy.fetch_add(1, Ordering::Relaxed);
                return Err(AdmissionError::Busy {
                    active: st.active,
                    queued: st.queued,
                });
            }
            st.queued += 1;
            self.queued_total.fetch_add(1, Ordering::Relaxed);
            self.peak_queue_depth
                .fetch_max(st.queued, Ordering::Relaxed);
            while st.active >= self.cfg.max_active {
                // fs2-lint: allow(no-panic-service) -- Condvar::wait fails only on lock poisoning (see above)
                st = self.freed.wait(st).expect("gate state poisoned");
            }
            st.queued -= 1;
        }
        st.active += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(Permit {
            gate: self,
            failed: AtomicBool::new(false),
        })
    }

    pub fn stats(&self) -> AdmissionStats {
        // fs2-lint: allow(no-panic-service) -- lock poisoning, not peer input
        let st = self.state.lock().expect("gate state poisoned");
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            queued: self.queued_total.load(Ordering::Relaxed),
            shed_busy: self.shed_busy.load(Ordering::Relaxed),
            rejected_oversize: self.rejected_oversize.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            active: st.active,
            queue_depth: st.queued,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn oversize_requests_never_enter_the_queue() {
        let gate = Gate::new(AdmissionConfig {
            max_request_cost: 100,
            ..AdmissionConfig::default()
        });
        let err = gate.admit(101, None).unwrap_err();
        assert!(matches!(err, AdmissionError::Oversize { .. }));
        // Even u64-overflowing costs are a clean reject.
        let err = gate.admit(u128::MAX, None).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
        let stats = gate.stats();
        assert_eq!(stats.rejected_oversize, 2);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.submitted(), 2);
    }

    #[test]
    fn permits_free_slots_on_drop() {
        let gate = Gate::new(AdmissionConfig {
            max_active: 1,
            max_queue: 0,
            ..AdmissionConfig::default()
        });
        let permit = gate.admit(1, None).unwrap();
        assert!(matches!(
            gate.admit(1, None),
            Err(AdmissionError::Busy { .. })
        ));
        drop(permit);
        assert!(gate.admit(1, None).is_ok());
        assert_eq!(gate.stats().shed_busy, 1);
    }

    #[test]
    fn unmeetable_deadlines_are_rejected_up_front() {
        let gate = Gate::new(AdmissionConfig {
            cost_per_ms: 10,
            ..AdmissionConfig::default()
        });
        // 1000 cost units / 10 per ms = 100 ms of work.
        assert!(gate.admit(1000, Some(100)).is_ok());
        let err = gate.admit(1000, Some(99)).unwrap_err();
        assert!(
            matches!(
                err,
                AdmissionError::DeadlineUnmeetable {
                    estimated_ms: 100,
                    deadline_ms: 99,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("deadline"), "{err}");
        // No throughput estimate → no up-front screen.
        let lax = Gate::new(AdmissionConfig::default());
        assert!(lax.admit(1000, Some(1)).is_ok());
        let stats = gate.stats();
        assert_eq!(stats.rejected_deadline, 1);
        assert_eq!(stats.submitted(), 2);
    }

    #[test]
    fn permits_book_completed_or_failed_exactly_once() {
        let gate = Gate::new(AdmissionConfig::default());
        drop(gate.admit(1, None).unwrap());
        let failing = gate.admit(1, None).unwrap();
        failing.fail();
        failing.fail(); // idempotent
        drop(failing);
        let stats = gate.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.admitted, stats.completed + stats.failed);
    }

    #[test]
    fn overload_queues_up_to_the_bound_and_sheds_the_rest() {
        // 1 active slot, 2 queue slots, 16 threads storming the gate:
        // the queue depth must never exceed the bound, nobody panics,
        // and every request is accounted admitted or shed.
        let gate = Arc::new(Gate::new(AdmissionConfig {
            max_active: 1,
            max_queue: 2,
            max_request_cost: 1 << 20,
            cost_per_ms: 0,
        }));
        let threads: Vec<_> = (0..16)
            .map(|_| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        match gate.admit(10, None) {
                            Ok(_permit) => std::thread::yield_now(),
                            Err(AdmissionError::Busy { queued, .. }) => {
                                assert!(queued <= 2, "queue ran past its bound: {queued}");
                            }
                            Err(e) => panic!("unexpected verdict: {e}"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = gate.stats();
        assert_eq!(stats.active, 0);
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.peak_queue_depth <= 2);
        assert_eq!(stats.admitted + stats.shed_busy, 16 * 20);
        assert_eq!(stats.submitted(), 16 * 20);
        assert_eq!(stats.admitted, stats.completed + stats.failed);
        assert_eq!(stats.failed, 0, "nobody marked a permit failed");
        assert!(stats.admitted > 0, "somebody must get through");
    }
}
