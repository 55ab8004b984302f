//! The one scoped fan-out: a claim-by-index work queue over scoped OS
//! threads. [`Engine::sweep`](crate::Engine::sweep) and the cluster
//! fleet's shard pass both run on it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The thread count a fan-out runs with: `requested`, or one per host
/// core when `requested` is 0 (1 if the host parallelism is unknown).
pub fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Maps `worker` over `items` on up to `threads` threads (0 = one per
/// host core, see [`resolve_threads`]) and returns the results in input
/// order. Threads claim items from a shared queue in input order.
///
/// The calling thread works the queue too, so an N-way fan-out spawns
/// N − 1 threads; with one thread or one item the map runs serially on
/// the caller. If the OS refuses a thread, spawning stops there and the
/// threads already running, the caller among them, work the rest of
/// the queue. A worker panic is re-raised on the caller once every
/// thread has stopped. Item evaluations must be independent; under
/// that contract the result is bitwise-identical to a serial
/// `items.iter().enumerate().map(...)` pass at any thread count.
pub fn fan_out<T, R, F>(items: &[T], threads: usize, worker: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = resolve_threads(threads).min(items.len());
    if threads <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| worker(i, item))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let r = worker(i, item);
        *slots[i].lock().expect("fan-out slot poisoned") = Some(r);
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads)
            .map_while(|_| std::thread::Builder::new().spawn_scoped(scope, work).ok())
            .collect();
        work();
        for handle in spawned {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("fan-out slot poisoned")
                .expect("every index is claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn caller_thread_works_the_queue() {
        // Each worker parks until both have started, so each of the two
        // threads runs exactly one item. One of them must be the caller:
        // a two-way fan-out spawns a single thread.
        let barrier = Barrier::new(2);
        let caller = std::thread::current().id();
        let ran_on = fan_out(&[(), ()], 2, |_, _| {
            barrier.wait();
            std::thread::current().id()
        });
        assert_ne!(ran_on[0], ran_on[1]);
        assert!(ran_on.contains(&caller), "the caller sat the fan-out out");
    }
}
