//! Host-speed reference: a fixed piece of work timed between rounds.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! with what the other tenants do, by 1.5x and more for minutes at a time.
//! A round's time alone cannot tell that drift from a change in the
//! program. So before and after every round (and every set-up) the
//! benchmark times [`compute`], on the thread that runs the ops: a
//! miniature event-driven model (a timed event heap dispatching through a
//! table of 256 distinct handlers over a 1 MiB table of component states,
//! hashing, short-lived allocations: the kinds of work the simulator does)
//! whose code lives here and never changes with the program. Every time
//! the round took — wall, process CPU, each op's latency — is multiplied by
//! [`factor`]: how much faster or slower than its nominal [`NOMINAL_S`]
//! the reference ran around the round. That gives the time the round would
//! have taken with the host at its nominal speed.
//!
//! No reference slows down exactly as the program does, so scaling narrows
//! the drift rather than removing it; the unscaled figures are printed
//! beside the scaled ones.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Events one [`compute`] run dispatches.
const EVENTS: u32 = 60_000;
/// Component-state table: 2^17 words (1 MiB), larger than a core's
/// private caches, as a SoC model's memories are.
const STATE_WORDS: usize = 1 << 17;
/// Pending events at any time.
const PENDING: u32 = 512;

/// Typical wall time of one [`compute`] run on the development host (a
/// 2-vCPU VM; see README.md), in seconds.
pub const NOMINAL_S: f64 = 0.0049;

/// Run the compute reference once; returns a checksum, always the same.
pub fn compute() -> u64 {
    // The table is allocated once per thread and cleared per run: a fresh
    // 1 MiB allocation would time the kernel's page faults instead.
    thread_local! {
        static STATE: RefCell<Vec<u64>> = RefCell::new(vec![0; STATE_WORDS]);
    }
    STATE.with(|state| {
        let mut state = state.borrow_mut();
        state.fill(0);
        events(&mut state)
    })
}

/// One event handler of the compute reference. Each `(A, B)` pair is a
/// function of its own, so the reference's code, like a SoC model's, is
/// larger than a core's instruction cache and reached by indirect calls.
fn handler<const A: u32, const B: u64>(v: u64, h: u64) -> u64 {
    let mut x = v ^ h.rotate_left(A + 1);
    for i in 0..(B % 4 + 1) {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ (B << 8 | u64::from(A))) ^ (x >> (B % 13 + 7));
        if x & (1 << (A + i as u32)) != 0 {
            x = x.wrapping_add(B * 31 + i);
        }
    }
    x
}

type Handler = fn(u64, u64) -> u64;

macro_rules! handler_row {
    ($a:literal) => {
        [
            handler::<$a, 0>,
            handler::<$a, 1>,
            handler::<$a, 2>,
            handler::<$a, 3>,
            handler::<$a, 4>,
            handler::<$a, 5>,
            handler::<$a, 6>,
            handler::<$a, 7>,
            handler::<$a, 8>,
            handler::<$a, 9>,
            handler::<$a, 10>,
            handler::<$a, 11>,
            handler::<$a, 12>,
            handler::<$a, 13>,
            handler::<$a, 14>,
            handler::<$a, 15>,
        ]
    };
}

/// 256 distinct handlers.
static HANDLERS: [[Handler; 16]; 16] = [
    handler_row!(0),
    handler_row!(1),
    handler_row!(2),
    handler_row!(3),
    handler_row!(4),
    handler_row!(5),
    handler_row!(6),
    handler_row!(7),
    handler_row!(8),
    handler_row!(9),
    handler_row!(10),
    handler_row!(11),
    handler_row!(12),
    handler_row!(13),
    handler_row!(14),
    handler_row!(15),
];

/// The compute reference's event loop over a cleared state table.
fn events(state: &mut [u64]) -> u64 {
    let mut heap = BinaryHeap::with_capacity(PENDING as usize);
    for id in 0..PENDING {
        heap.push(Reverse((u64::from(id) * 7919 % 1000, id)));
    }
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(64);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for n in 0..EVENTS {
        let Some(Reverse((t, id))) = heap.pop() else {
            break;
        };
        let slot = (h ^ u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize % STATE_WORDS;
        let v = HANDLERS[(h >> 60) as usize][(h >> 56) as usize & 15](state[slot], t);
        h = (h ^ v ^ t).wrapping_mul(0x0100_0000_01b3);
        state[slot] = v.wrapping_add(h >> 7);
        if h & 3 == 0 {
            // A burst: a short payload allocated, filled and kept a while.
            let len = 8 + (h >> 58) as usize;
            let payload: Vec<u64> = (0..len as u64).map(|i| i ^ h).collect();
            if live.len() == live.capacity() {
                live.swap_remove(n as usize % live.len());
            }
            live.push(payload);
        }
        heap.push(Reverse((t + 1 + h % 97, id)));
    }
    live.iter().flatten().fold(h, |a, &b| a.rotate_left(5) ^ b)
}

/// Wall time of one [`compute`] run on the calling thread, in seconds.
pub fn measure() -> f64 {
    let t = Instant::now();
    std::hint::black_box(compute());
    t.elapsed().as_secs_f64()
}

/// The factor that scales times measured between reference runs taking
/// `before` and `after` seconds to the nominal host speed:
/// [`NOMINAL_S`] over the mean of the two.
pub fn factor(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_S / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_reference_is_deterministic() {
        assert_eq!(compute(), compute());
    }

    #[test]
    fn nominal_speed_leaves_times_unchanged() {
        assert_eq!(factor(NOMINAL_S, NOMINAL_S), 1.0);
        // A host at half speed: every time halves.
        assert_eq!(factor(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
        assert_eq!(factor(NOMINAL_S, 3.0 * NOMINAL_S), 0.5);
    }
}
