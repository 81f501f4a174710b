//! Host speed reference.
//!
//! On a shared VM the speed of the host itself moves: the same seed of the
//! same program ran 15-25% faster or slower from one run to the next and
//! from one quarter hour to the next, and its CPU time per op moved with
//! it, so the cause is the CPU (clock, a core shared with other tenants),
//! not waiting. A fixed piece of reference work, written here and
//! independent of the program, is therefore timed in short slices between
//! ops, and every end-to-end time is reported at the *reference speed*:
//! scaled by `NOMINAL_NS / measured`, the trimmed mean slice cost over the
//! timed phase. The host switches between faster and slower states within
//! a run; a mean, unlike a median, follows the share of time spent in each.
//!
//! The reference work is core-bound: table lookups (as table-based AES
//! does) and 768-bit multiply chains (as ESIGN and RSA do), on a few KiB
//! that stay in the core's own cache, allocating nothing. What the program
//! left in the shared caches or the heap does not change its cost. Slices
//! are timed in the calling thread's CPU time, so a program thread that
//! keeps the CPU busy in the background cannot make the host look slower
//! and its own work look cheaper.

use crate::gen::Rng;
use std::hint::black_box;

/// Cost of one slice, ns of thread CPU time, at the reference speed (about
/// the median on a 2-vCPU VM on an Intel Xeon at 2.1 GHz). The constant
/// only sets the scale of the reported times; changing it would move every
/// time metric.
pub const NOMINAL_NS: f64 = 0.65e6;

/// Parts of one slice, ns of thread CPU time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Slice {
    /// Table lookups.
    pub table: u64,
    /// Multiply chains.
    pub mul: u64,
}

impl Slice {
    /// The whole slice, ns.
    pub fn total(&self) -> u64 {
        self.table + self.mul
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, ns.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid `struct timespec` (two 64-bit fields on
    // Linux x86_64/aarch64).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// The reference work, its fixed inputs and the slices run so far.
pub struct Reference {
    tables: Vec<[u32; 256]>,
    slices: Vec<Slice>,
    sink: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the inputs (fixed, not seeded by the run's seed).
    pub fn new() -> Reference {
        let mut rng = Rng::new(0xCA11_B8A7, 0);
        let tables = (0..4)
            .map(|_| {
                let mut t = [0u32; 256];
                t.iter_mut().for_each(|x| *x = rng.next_u64() as u32);
                t
            })
            .collect();
        Reference { tables, slices: Vec::new(), sink: 0 }
    }

    /// Runs and times one slice, keeping its cost.
    pub fn slice(&mut self) -> Slice {
        let t0 = thread_cpu_ns();

        // Table-based block rounds over a 16-byte state.
        let tb = &self.tables;
        let mut st = [0x0123_4567u32, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210];
        for _ in 0..60_000 {
            st = [
                tb[0][st[0] as u8 as usize]
                    ^ tb[1][(st[1] >> 8) as u8 as usize]
                    ^ tb[2][(st[2] >> 16) as u8 as usize]
                    ^ tb[3][(st[3] >> 24) as usize]
                    ^ st[1],
                tb[0][st[1] as u8 as usize]
                    ^ tb[1][(st[2] >> 8) as u8 as usize]
                    ^ tb[2][(st[3] >> 16) as u8 as usize]
                    ^ tb[3][(st[0] >> 24) as usize]
                    ^ st[2],
                tb[0][st[2] as u8 as usize]
                    ^ tb[1][(st[3] >> 8) as u8 as usize]
                    ^ tb[2][(st[0] >> 16) as u8 as usize]
                    ^ tb[3][(st[1] >> 24) as usize]
                    ^ st[3],
                tb[0][st[3] as u8 as usize]
                    ^ tb[1][(st[0] >> 8) as u8 as usize]
                    ^ tb[2][(st[1] >> 16) as u8 as usize]
                    ^ tb[3][(st[2] >> 24) as usize]
                    ^ st[0],
            ];
        }
        self.sink ^= black_box(st[0] as u64);
        let t1 = thread_cpu_ns();

        // Schoolbook products of 12-limb (768-bit) numbers.
        let mut a = [0u64; 12];
        let mut b = [0u64; 12];
        for i in 0..12 {
            a[i] = (self.sink | 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 + i as u64);
            b[i] = a[i].rotate_left(17) ^ 0xD6E8_FEB8_6659_FD93;
        }
        for _ in 0..2_000 {
            let mut r = [0u64; 24];
            for i in 0..12 {
                let mut carry = 0u128;
                for j in 0..12 {
                    let x = a[i] as u128 * b[j] as u128 + r[i + j] as u128 + carry;
                    r[i + j] = x as u64;
                    carry = x >> 64;
                }
                r[i + 12] = carry as u64;
            }
            a.copy_from_slice(&r[6..18]);
            a[0] |= 1;
        }
        self.sink ^= black_box(a[3]);
        let t2 = thread_cpu_ns();

        let s = Slice { table: t1 - t0, mul: t2 - t1 };
        self.slices.push(s);
        s
    }

    /// The slices run so far.
    pub fn slices(&self) -> &[Slice] {
        &self.slices
    }
}

/// Mean cost of `slices` over `NOMINAL_NS`, the cheapest and the dearest
/// tenth left out (an interrupt landing in a slice): above 1 when the host
/// ran slower than the reference speed; 1 for no slices.
pub fn slowdown_of(slices: &[Slice]) -> f64 {
    let mut v: Vec<u64> = slices.iter().map(Slice::total).collect();
    v.sort_unstable();
    let cut = v.len() / 10;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return 1.0;
    }
    kept.iter().sum::<u64>() as f64 / kept.len() as f64 / NOMINAL_NS
}
