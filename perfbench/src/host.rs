//! Host reference: two fixed pieces of work whose time depends only on
//! the host. They are printed beside the metrics, never folded into
//! them, so a reader can tell host drift from a program change.

use std::hint::black_box;
use std::time::Instant;

/// 16 Mi `u32` slots: a 64 MiB ring, larger than any last-level cache.
const RING_LEN: usize = 1 << 24;
/// Dependent loads in one memory walk.
const WALK_STEPS: usize = 1 << 21;
/// Dependent multiply-xorshift steps in one ALU loop.
const ALU_STEPS: u64 = 1 << 26;
/// Repetitions of each; the median is reported.
const REPS: usize = 3;

/// Median wall times of the two reference loops.
#[derive(Debug, Clone, Copy)]
pub struct HostRef {
    /// Random-access memory walk, s.
    pub mem_walk_s: f64,
    /// Dependent ALU loop, s.
    pub alu_s: f64,
}

/// Times both reference loops ([`REPS`] times each, median).
#[must_use]
pub fn measure() -> HostRef {
    // A full-period LCG over the ring's indices: every slot is visited
    // once per cycle, in an order no hardware prefetcher follows.
    let mask = (RING_LEN - 1) as u64;
    let ring: Vec<u32> = (0..RING_LEN as u64)
        .map(|i| (i.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x14057) & mask) as u32)
        .collect();
    let mut walk = [0.0; REPS];
    let mut alu = [0.0; REPS];
    for r in 0..REPS {
        let t = Instant::now();
        let mut i = 0u32;
        for _ in 0..WALK_STEPS {
            i = ring[i as usize];
        }
        black_box(i);
        walk[r] = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
        for _ in 0..ALU_STEPS {
            x = x.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ (x >> 29);
        }
        black_box(x);
        alu[r] = t.elapsed().as_secs_f64();
    }
    HostRef {
        mem_walk_s: crate::metrics::median(&walk),
        alu_s: crate::metrics::median(&alu),
    }
}
