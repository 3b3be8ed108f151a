//! Host-speed calibration.
//!
//! A shared host can run the same code at very different speeds from one
//! second to the next: a neighbour on the other hyperthread of a core
//! slows everything on it by as much as half, for seconds at a time, and
//! each core independently. [`slowness`] runs a fixed piece of
//! benchmark-owned work whose time on one core says how fast that core is
//! right now. Nothing in the repository can change it, so dividing a
//! measured time by the kernel's slowness removes most of the host's
//! speed from the number and leaves the program's. `run.py` documents how
//! each metric uses it.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on an uncontended core of the host the benchmark
/// was written on (a 2-core Xeon VM). Normalised times are what the
/// program would take on such a core.
const NOMINAL_MS: f64 = 7.0;

const PROGRAM: usize = 1 << 12;
const STEPS: u32 = 600_000;

/// Runs the kernel once on the calling thread; returns its time over
/// `NOMINAL_MS`, above 1 on a core slower than nominal. The kernel
/// interprets a fixed pseudo-random program of eight-register
/// operations: the indirect jumps and data-dependent branches of an
/// interpreter loop, as in the program's simulators. Of the kernels
/// tried, its slowness tracked `reproduce_all`'s best.
pub fn slowness() -> f64 {
    let mut x = 0x9e37_79b9_u32;
    let program: Vec<u32> = (0..PROGRAM)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        })
        .collect();
    let program = black_box(program);
    let started = Instant::now();
    let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut pc = 0usize;
    for _ in 0..STEPS {
        let word = program[pc];
        let (a, b) = ((word >> 8) as usize & 7, (word >> 11) as usize & 7);
        match word & 7 {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] ^= r[b] << 3,
            2 => r[a] = r[a].rotate_left(7) ^ u64::from(word),
            3 => r[a] = r[a].wrapping_mul(r[b] | 1),
            4 => r[a] = r[b] >> 5,
            5 => r[a] = r[a].wrapping_sub(u64::from(word >> 16)),
            6 => {
                if r[a] & 1 == 0 {
                    pc = (pc + (r[b] as usize & 63)) & (PROGRAM - 1);
                }
            }
            _ => r[a] = !r[b],
        }
        pc = (pc + 1) & (PROGRAM - 1);
    }
    black_box(r);
    crate::ms(started.elapsed()) / NOMINAL_MS
}

/// The kernel run at once on `threads` threads, one per core when the
/// host is otherwise idle; returns their mean slowness, the host's
/// across its cores.
pub fn cores(threads: usize) -> f64 {
    let each: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(slowness)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    each.iter().sum::<f64>() / each.len() as f64
}
