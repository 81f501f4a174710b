//! Montgomery-form modular arithmetic for odd moduli.
//!
//! All RSA and ESIGN exponentiations route through [`MontgomeryCtx`], which
//! implements CIOS (coarsely integrated operand scanning) multiplication with
//! 64-bit limbs. Multiplication writes into caller-owned buffers, so an
//! exponentiation allocates its scratch once. Exponents of up to 64 bits
//! (the public exponents: RSA's 65537, ESIGN's 32 and 31) use plain
//! left-to-right square-and-multiply; longer ones use a 4-bit window, whose
//! 14-multiply table only pays for itself past about 50 bits.
//! Keys keep their contexts in a `CtxCell`, built on first use.

use crate::bignum::BigUint;
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Longest exponent, in bits, that skips the window table.
const SHORT_EXP_BITS: usize = 64;

/// Precomputed state for arithmetic modulo a fixed odd modulus.
pub struct MontgomeryCtx {
    modulus: BigUint,
    /// Modulus limbs (`k` of them).
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^(64 k)`, used to enter Montgomery form.
    rr: Vec<u64>,
    /// `R mod n`: the Montgomery representation of one.
    r1: Vec<u64>,
    /// Number of limbs.
    k: usize,
}

impl MontgomeryCtx {
    /// Creates a context for the given odd modulus.
    ///
    /// # Panics
    /// Panics if `modulus` is even or < 3.
    pub fn new(modulus: BigUint) -> Self {
        assert!(modulus.is_odd(), "Montgomery modulus must be odd");
        assert!(modulus.bit_len() >= 2, "Montgomery modulus must be >= 3");
        let k = modulus.limbs.len();
        let n = modulus.limbs.clone();

        let n0inv = neg_inv_u64(n[0]);

        // R mod n and R^2 mod n via BigUint division (setup only, not hot).
        let r = BigUint::one().shl(64 * k);
        let r1_big = r.rem(&modulus);
        let rr_big = r1_big.mul(&r1_big).rem(&modulus);
        let mut r1 = r1_big.limbs.clone();
        r1.resize(k, 0);
        let mut rr = rr_big.limbs.clone();
        rr.resize(k, 0);

        MontgomeryCtx { modulus, n, n0inv, rr, r1, k }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Montgomery multiplication: `out = a * b * R^-1 mod n`.
    ///
    /// Operands are `k`-limb little-endian slices, already reduced mod n;
    /// `t` is scratch of `k + 1` limbs. Each round adds `ai * b` and the
    /// multiple `m * n` that clears the low limb in one pass over `t`,
    /// shifting down a limb as it goes (CIOS with the multiply and reduce
    /// loops fused), so `t < 2n` throughout.
    fn mont_mul(&self, out: &mut [u64], a: &[u64], b: &[u64], t: &mut [u64]) {
        let k = self.k;
        let (a, b, n, t) = (&a[..k], &b[..k], &self.n[..k], &mut t[..k + 1]);
        t.fill(0);

        for &ai in a {
            let (ai, first) = (ai as u128, t[0] as u128 + ai as u128 * b[0] as u128);
            let m = (first as u64).wrapping_mul(self.n0inv) as u128;
            let mut mul_carry = first >> 64;
            let mut red_carry = ((first as u64) as u128 + m * n[0] as u128) >> 64;
            for j in 1..k {
                let prod = t[j] as u128 + ai * b[j] as u128 + mul_carry;
                mul_carry = prod >> 64;
                let red = (prod as u64) as u128 + m * n[j] as u128 + red_carry;
                red_carry = red >> 64;
                t[j - 1] = red as u64;
            }
            let top = t[k] as u128 + mul_carry + red_carry;
            t[k - 1] = top as u64;
            t[k] = (top >> 64) as u64;
        }

        // Final conditional subtraction: t is in [0, 2n).
        let out = &mut out[..k];
        out.copy_from_slice(&t[..k]);
        if t[k] != 0 || !less(out, n) {
            sub_assign(out, n);
        }
    }

    /// Writes `a mod n` into `out` as `k` limbs; the `rem` is skipped when
    /// `a` is already reduced.
    fn load(&self, a: &BigUint, out: &mut [u64]) {
        out.fill(0);
        if a.cmp_ref(&self.modulus) == Ordering::Less {
            out[..a.limbs.len()].copy_from_slice(&a.limbs);
        } else {
            let r = a.rem(&self.modulus);
            out[..r.limbs.len()].copy_from_slice(&r.limbs);
        }
    }

    /// `(a * b) mod n`: `mont(a, b) = abR^-1`, then `mont(abR^-1, R^2) = ab`.
    pub fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let k = self.k;
        let mut buf = vec![0u64; 4 * k + 1];
        let (am, rest) = buf.split_at_mut(k);
        let (bm, rest) = rest.split_at_mut(k);
        let (prod, t) = rest.split_at_mut(k);
        self.load(a, am);
        self.load(b, bm);
        self.mont_mul(prod, am, bm, t);
        self.mont_mul(am, prod, &self.rr, t);
        BigUint::from_limbs(am.to_vec())
    }

    /// `base^exp mod n`: square-and-multiply for exponents of up to 64
    /// bits, a fixed 4-bit window above.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let bits = exp.bit_len();
        if bits == 0 {
            return BigUint::one();
        }
        let k = self.k;
        let table_len = if bits <= SHORT_EXP_BITS { 2 } else { 16 };
        // One allocation serves the whole exponentiation:
        // t (k + 1) | acc (k) | tmp (k) | table: base^0 .. base^(len-1).
        let mut buf = vec![0u64; (3 + table_len) * k + 1];
        let (t, rest) = buf.split_at_mut(k + 1);
        let (mut acc, rest) = rest.split_at_mut(k);
        let (mut tmp, table) = rest.split_at_mut(k);

        // table[0] = 1 (the window table's zero digit) and table[1] = base,
        // in Montgomery form.
        table[..k].copy_from_slice(&self.r1);
        self.load(base, tmp);
        self.mont_mul(&mut table[k..2 * k], tmp, &self.rr, t);

        if bits <= SHORT_EXP_BITS {
            let bm = &table[k..2 * k];
            acc.copy_from_slice(bm);
            for i in (0..bits - 1).rev() {
                self.mont_mul(tmp, acc, acc, t);
                std::mem::swap(&mut acc, &mut tmp);
                if exp.bit(i) {
                    self.mont_mul(tmp, acc, bm, t);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
        } else {
            for i in 2..16 {
                let (done, next) = table.split_at_mut(i * k);
                self.mont_mul(&mut next[..k], &done[(i - 1) * k..], &done[k..2 * k], t);
            }
            let entry = |idx: usize| &table[idx * k..(idx + 1) * k];
            let top_window = (bits - 1) / 4; // index of the most significant window
            acc.copy_from_slice(entry(window_at(exp, top_window)));
            for w in (0..top_window).rev() {
                for _ in 0..4 {
                    self.mont_mul(tmp, acc, acc, t);
                    std::mem::swap(&mut acc, &mut tmp);
                }
                let idx = window_at(exp, w);
                if idx != 0 {
                    self.mont_mul(tmp, acc, entry(idx), t);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
        }

        // Leave Montgomery form: mont(acc, 1) = acc * R^-1.
        tmp.fill(0);
        tmp[0] = 1;
        let (out, _) = table.split_at_mut(k);
        self.mont_mul(out, acc, tmp, t);
        BigUint::from_limbs(out.to_vec())
    }

    /// `a^-1 mod n`, or `None` when `gcd(a, n) != 1`.
    ///
    /// Binary extended Euclid on four `k`-limb buffers: shifts, compares
    /// and subtractions only, no division and no allocation in the loop.
    /// Invariants: `x1·a ≡ u` and `x2·a ≡ v (mod n)`, `x1, x2 < n`, and `v`
    /// is odd at the top of the loop. The binary GCD of `u` and `v` ends
    /// with `u = 0` and `v = gcd(a, n)`; it stops early once either side
    /// reaches one, whose coefficient is then the inverse.
    pub fn inverse(&self, a: &BigUint) -> Option<BigUint> {
        let k = self.k;
        let n = &self.n[..k];
        let mut buf = vec![0u64; 4 * k];
        let (u, rest) = buf.split_at_mut(k);
        let (v, rest) = rest.split_at_mut(k);
        let (x1, x2) = rest.split_at_mut(k);
        self.load(a, u);
        v.copy_from_slice(n);
        x1[0] = 1;
        loop {
            if is_zero(u) {
                return is_one(v).then(|| BigUint::from_limbs(x2.to_vec()));
            }
            while u[0] & 1 == 0 {
                shr1(u, 0);
                halve_mod(x1, n);
            }
            if is_one(u) {
                return Some(BigUint::from_limbs(x1.to_vec()));
            }
            if less(u, v) {
                sub_assign(v, u);
                sub_mod(x2, x1, n);
                while v[0] & 1 == 0 {
                    shr1(v, 0);
                    halve_mod(x2, n);
                }
                if is_one(v) {
                    return Some(BigUint::from_limbs(x2.to_vec()));
                }
            } else {
                sub_assign(u, v);
                sub_mod(x1, x2, n);
            }
        }
    }
}

/// A key's [`MontgomeryCtx`] for one of its moduli, built on first use.
///
/// Parsing a key does not build it (a directory table parses a verify key
/// per row, and most never verify). Clones share the cell, so a context
/// built through a clone serves the original too. Equality ignores the
/// cell: it is a function of the modulus stored beside it.
#[derive(Clone, Default)]
pub(crate) struct CtxCell(Arc<OnceLock<MontgomeryCtx>>);

impl CtxCell {
    /// The context for `modulus`, which must be the modulus this cell
    /// serves every time.
    pub(crate) fn get(&self, modulus: &BigUint) -> &MontgomeryCtx {
        let ctx = self.0.get_or_init(|| MontgomeryCtx::new(modulus.clone()));
        debug_assert!(ctx.modulus() == modulus, "a CtxCell serves one modulus");
        ctx
    }
}

impl PartialEq for CtxCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for CtxCell {}

/// Extracts the `w`-th 4-bit window (little-endian window order).
fn window_at(exp: &BigUint, w: usize) -> usize {
    let bit = w * 4;
    let mut v = 0usize;
    for i in 0..4 {
        if exp.bit(bit + i) {
            v |= 1 << i;
        }
    }
    v
}

/// `-a^{-1} mod 2^64` for odd `a`, by Newton iteration.
fn neg_inv_u64(a: u64) -> u64 {
    debug_assert!(a & 1 == 1);
    let mut inv = a; // correct to 3 bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
    }
    debug_assert_eq!(a.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

fn less(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b).rev() {
        if x != y {
            return x < y;
        }
    }
    false
}

fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&l| l == 0)
}

fn is_one(a: &[u64]) -> bool {
    a[0] == 1 && is_zero(&a[1..])
}

/// `a += b` modulo `2^(64 len)`; returns the carry out.
fn add_assign(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        *x = s2;
        carry = c1 | c2;
    }
    carry
}

/// `a -= b` modulo `2^(64 len)`; returns the borrow out.
fn sub_assign(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *x = d2;
        borrow = b1 | b2;
    }
    borrow
}

/// `a = (a >> 1) | (top << (64 len - 1))`.
fn shr1(a: &mut [u64], top: u64) {
    let mut carry = top;
    for x in a.iter_mut().rev() {
        let low = *x & 1;
        *x = (*x >> 1) | (carry << 63);
        carry = low;
    }
}

/// `x = x / 2 mod n` for odd `n` and `x < n`.
fn halve_mod(x: &mut [u64], n: &[u64]) {
    let top = if x[0] & 1 == 1 { add_assign(x, n) as u64 } else { 0 };
    shr1(x, top);
}

/// `x = (x - y) mod n` for `x, y < n`.
fn sub_mod(x: &mut [u64], y: &[u64], n: &[u64]) {
    if sub_assign(x, y) {
        add_assign(x, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn neg_inv_correct() {
        for a in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1] {
            let ninv = neg_inv_u64(a);
            // a * (-a^-1) == -1 mod 2^64
            assert_eq!(a.wrapping_mul(ninv), u64::MAX, "a={a:#x}");
        }
    }

    #[test]
    fn pow_matches_naive_small() {
        let modulus = n(1_000_003); // odd
        let ctx = MontgomeryCtx::new(modulus.clone());
        for (b, e) in [(2u64, 10u64), (3, 0), (12345, 67), (999_999, 3), (7, 1_000_000)] {
            let expected = naive_pow(b, e, 1_000_003);
            assert_eq!(ctx.pow(&n(b), &n(e)), n(expected), "b={b} e={e}");
        }
    }

    fn naive_pow(mut b: u64, mut e: u64, m: u64) -> u64 {
        let mut r = 1u128;
        let mut bb = b as u128 % m as u128;
        while e > 0 {
            if e & 1 == 1 {
                r = r * bb % m as u128;
            }
            bb = bb * bb % m as u128;
            e >>= 1;
        }
        b = r as u64;
        b
    }

    #[test]
    fn pow_multi_limb_fermat() {
        // p = 2^127 - 1 is a Mersenne prime; check Fermat's little theorem.
        let p = BigUint::one().shl(127).sub(&BigUint::one());
        let ctx = MontgomeryCtx::new(p.clone());
        let a = BigUint::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        let res = ctx.pow(&a, &p.sub(&BigUint::one()));
        assert_eq!(res, BigUint::one());
    }

    #[test]
    fn mul_mod_matches_plain() {
        let m = BigUint::from_hex("ffffffffffffffffffffffffffffff61").unwrap(); // odd
        let ctx = MontgomeryCtx::new(m.clone());
        let a = BigUint::from_hex("deadbeefcafebabe1122334455667788").unwrap();
        let b = BigUint::from_hex("aabbccddeeff00112233445566778899").unwrap();
        assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &m));
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let m = n(97);
        let ctx = MontgomeryCtx::new(m);
        assert_eq!(ctx.pow(&n(12), &BigUint::zero()), BigUint::one());
    }

    #[test]
    fn inverse_matches_mod_inv_small() {
        for m in [3u64, 9, 15, 97, 1_000_003] {
            let ctx = MontgomeryCtx::new(n(m));
            for a in 0..200u64 {
                assert_eq!(ctx.inverse(&n(a)), n(a).mod_inv(&n(m)), "a={a} m={m}");
            }
        }
    }

    #[test]
    fn ctx_cell_is_lazy_and_shared_by_clones() {
        let m = n(1_000_003);
        let cell = CtxCell::default();
        let clone = cell.clone();
        assert!(cell.0.get().is_none(), "built only on first use");
        let built = clone.get(&m);
        assert!(std::ptr::eq(built, cell.get(&m)), "a clone's context serves the original");
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_modulus_rejected() {
        MontgomeryCtx::new(n(100));
    }
}
