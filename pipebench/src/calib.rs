//! The host's speed, measured by a fixed piece of the benchmark's own
//! code, so host timings can be scaled to a fixed reference speed.
//!
//! On a shared machine the host's speed drifts by tens of percent over
//! minutes, which no amount of repeating within one run can average out.
//! The reference kernel does the kind of work the simulation does (a
//! binary-heap event queue whose next event depends on a random read from
//! a table larger than the caches) and never changes, so the time it takes
//! just before a measurement says how fast the host's cores and memory are
//! at that moment: a timing `t` taken when the kernel needed `c` seconds
//! is reported as `t × NOMINAL_S / c`.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Events the reference kernel runs.
const EVENTS: u64 = 3_000;

/// The reference kernel's host time at the reference speed: about its
/// time between the slices of a pass on the shared 2-core x86-64 VM the
/// benchmark was built on, release build. A fixed scale, so scaled
/// timings read in seconds of a machine on which the kernel takes this.
pub const NOMINAL_S: f64 = 800e-6;

/// Slots of the kernel's table: 64 MiB, more than the caches hold, so
/// its random reads go to memory whatever the measured pipeline left in
/// the caches, and it competes for memory as the simulation does.
const SLOTS: usize = 1 << 23;

/// Events queued at once.
const QUEUED: u64 = 256;

/// The kernel's table, queue and random state, kept for the life of the
/// thread: fresh pages cost a fault each on first touch, which would time
/// the allocator instead of the host's speed. The random state carries
/// over, so every run reads other lines of the table.
struct Kernel {
    table: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    x: u64,
}

thread_local! {
    static KERNEL: RefCell<Kernel> = RefCell::new(Kernel {
        table: vec![1; SLOTS],
        queue: BinaryHeap::with_capacity(QUEUED as usize + 1),
        x: 0x9E37_79B9_7F4A_7C15,
    });
}

/// Runs the reference kernel once and returns its host seconds. The first
/// call in a thread also allocates and touches the table (64 MiB); call it
/// once before any measurement.
pub fn reference_s() -> f64 {
    KERNEL.with(|kernel| {
        let Kernel { table, queue, x } = &mut *kernel.borrow_mut();
        let started = Instant::now();
        queue.clear();
        for i in 0..QUEUED {
            queue.push(Reverse((i, i)));
        }
        for id in QUEUED..QUEUED + EVENTS {
            let Reverse((t, _)) = queue.pop().expect("the queue never empties");
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            let slot = (*x >> 41) as usize;
            table[slot] = table[slot].wrapping_add(t);
            queue.push(Reverse((t + table[slot] % 1_000, id)));
        }
        started.elapsed().as_secs_f64()
    })
}

/// `t` host seconds scaled to the reference speed, for a measurement
/// taken just after a reference run of `reference_s` seconds.
pub fn scaled(t: f64, reference_s: f64) -> f64 {
    t * NOMINAL_S / reference_s
}
