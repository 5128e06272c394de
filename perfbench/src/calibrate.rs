//! A fixed reference kernel that measures how fast the host is running
//! right now.
//!
//! On a shared machine the host's speed swings by tens of percent, within
//! seconds as well as over minutes, and a 30 s run cannot average that
//! out. Every execution therefore times one pass of this kernel right
//! before each `workload::run` call, and scales that call's host time to
//! the speed at which the kernel takes [`REFERENCE_S`] ([`scale`]). The
//! kernel is the benchmark's own code, so a change to the simulator moves
//! the scaled metrics and never the kernel.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Nominal kernel time the host-time metrics are scaled to (s).
pub const REFERENCE_S: f64 = 0.03;

/// `host_s` seconds measured while one kernel pass took `kernel_s`,
/// scaled to the reference speed.
pub fn scale(host_s: f64, kernel_s: f64) -> f64 {
    host_s * REFERENCE_S / kernel_s
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Host seconds one pass of the kernel takes. A pass has two halves of
/// about equal length, because on a shared host neither alone tracks the
/// simulator: as neighbours' load rose and fell over minutes, the
/// simulator slowed about twice as much as the cache-resident half, and
/// the event-loop half scattered more than the simulator did. Scaled by
/// both halves together, the simulator's host time scattered about 40%
/// less than scaled by the first alone.
pub fn kernel_seconds() -> f64 {
    let t = Instant::now();
    std::hint::black_box(heap_churn(300_000));
    std::hint::black_box(event_loop(100_000));
    t.elapsed().as_secs_f64()
}

/// Churn a 2,048-entry binary heap of plain keys, `ops` pushes: it stays
/// in the core's cache and tracks the core's speed.
fn heap_churn(ops: usize) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    let mut heap = BinaryHeap::with_capacity(4096);
    for _ in 0..ops {
        x = xorshift(x);
        heap.push(Reverse(x));
        if heap.len() > 2048 {
            acc ^= heap.pop().map_or(0, |Reverse(v)| v);
        }
    }
    acc
}

/// A miniature event loop, `events` steps: 4,096 pending events, each a
/// freshly boxed payload in a binary heap, popped in time order and
/// dispatched through a `dyn Fn` handler that updates a 1 MiB state
/// table. Like the simulator, it allocates, calls indirectly and misses
/// the core's cache.
fn event_loop(events: u64) -> u64 {
    type Handler = Box<dyn Fn(&mut [u64], u64) -> u64>;
    /// Time, sequence number, payload.
    type Event = Reverse<(u64, u64, Box<[u64; 6]>)>;
    let handlers: [Handler; 3] = [
        Box::new(|s: &mut [u64], x: u64| {
            let i = x as usize & (s.len() - 1);
            s[i] = s[i].wrapping_add(x);
            s[i]
        }),
        Box::new(|s: &mut [u64], x: u64| {
            let i = (x as usize >> 3) & (s.len() - 1);
            s[i] ^= x;
            x.rotate_left(7)
        }),
        Box::new(|s: &mut [u64], x: u64| {
            let i = (x as usize >> 5) & (s.len() - 1);
            let v = s[i];
            s[i] = v.wrapping_mul(3);
            v ^ x
        }),
    ];
    const PENDING: u64 = 4096;
    let mut state = vec![0u64; 1 << 17];
    let mut heap: BinaryHeap<Event> = BinaryHeap::with_capacity(2 * PENDING as usize);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for seq in 0..PENDING {
        x = xorshift(x);
        heap.push(Reverse((x % 10_000, seq, Box::new([x; 6]))));
    }
    let mut acc = 0u64;
    for seq in PENDING..PENDING + events {
        let Some(Reverse((at, _, payload))) = heap.pop() else {
            break;
        };
        x = xorshift(x ^ payload[0]);
        acc ^= handlers[(x % 3) as usize](&mut state, x);
        heap.push(Reverse((at + 1 + x % 10_000, seq, Box::new([acc; 6]))));
    }
    acc ^ state[acc as usize & (state.len() - 1)]
}
