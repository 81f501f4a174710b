//! Arbitrary-precision unsigned integers.
//!
//! This is the arithmetic substrate for the RSA and ESIGN implementations in
//! this crate. Limbs are 64-bit, stored little-endian, and values are kept
//! normalized (no trailing zero limbs), so the empty limb vector represents
//! zero.
//!
//! The implementation favours clarity and auditability over absolute speed:
//! schoolbook multiplication with a Karatsuba layer for large operands, Knuth
//! Algorithm D division, and binary extended GCD for modular inverses. Hot
//! modular exponentiation goes through [`crate::montgomery`] instead.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian 64-bit limbs with no trailing zeros.
    pub(crate) limbs: Vec<u64>,
}

/// Operand size (in limbs) above which multiplication switches to Karatsuba.
const KARATSUBA_THRESHOLD: usize = 24;

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single limb.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from a u128.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint { limbs: vec![lo, hi] };
        n.normalize();
        n
    }

    /// Builds a value from little-endian limbs (will be normalized).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Interprets big-endian bytes as an unsigned integer.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut chunk_iter = bytes.rchunks(8);
        for chunk in &mut chunk_iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serializes to big-endian bytes with no leading zeros (zero → empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// Returns `None` if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Option<Vec<u8>> {
        let raw = self.to_bytes_be();
        if raw.len() > len {
            return None;
        }
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        Some(out)
    }

    /// Removes trailing zero limbs to restore the normalized representation.
    pub(crate) fn normalize(&mut self) {
        while let Some(&0) = self.limbs.last() {
            self.limbs.pop();
        }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True if the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|&l| l & 1 == 0)
    }

    /// True if the value is odd.
    pub fn is_odd(&self) -> bool {
        !self.is_even()
    }

    /// Number of significant bits (zero → 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to one, growing the representation if needed.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % 64);
    }

    /// Returns `Some(v)` when the value fits in a u64.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Comparison, cheaper than constructing an `Ord` pair on hot paths.
    pub fn cmp_ref(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let (a, b) =
            if self.limbs.len() >= other.limbs.len() { (self, other) } else { (other, self) };
        let mut limbs = Vec::with_capacity(a.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..a.limbs.len() {
            let bi = b.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.limbs[i].overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            limbs.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            limbs.push(carry);
        }
        Self::from_limbs(limbs)
    }

    /// Adds a single limb.
    pub fn add_u64(&self, v: u64) -> Self {
        self.add(&BigUint::from_u64(v))
    }

    /// `self - other`; returns `None` when the result would be negative.
    pub fn checked_sub(&self, other: &Self) -> Option<Self> {
        if self.cmp_ref(other) == Ordering::Less {
            return None;
        }
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let bi = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            limbs.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        Some(Self::from_limbs(limbs))
    }

    /// `self - other`, panicking on underflow.
    pub fn sub(&self, other: &Self) -> Self {
        self.checked_sub(other).expect("BigUint::sub underflow: minuend smaller than subtrahend")
    }

    /// `self * other`.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        if self.limbs.len() >= KARATSUBA_THRESHOLD && other.limbs.len() >= KARATSUBA_THRESHOLD {
            return self.mul_karatsuba(other);
        }
        self.mul_schoolbook(other)
    }

    fn mul_schoolbook(&self, other: &Self) -> Self {
        let mut limbs = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = limbs[i + j] as u128 + a as u128 * b as u128 + carry;
                limbs[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = limbs[k] as u128 + carry;
                limbs[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        Self::from_limbs(limbs)
    }

    /// Karatsuba multiplication for large operands.
    fn mul_karatsuba(&self, other: &Self) -> Self {
        let half = self.limbs.len().min(other.limbs.len()) / 2;
        let (a0, a1) = self.split_at(half);
        let (b0, b1) = other.split_at(half);

        let z0 = a0.mul(&b0);
        let z2 = a1.mul(&b1);
        let z1 = a0.add(&a1).mul(&b0.add(&b1)).sub(&z0).sub(&z2);

        // result = z2 << (2*half*64) + z1 << (half*64) + z0
        z2.shl_limbs(2 * half).add(&z1.shl_limbs(half)).add(&z0)
    }

    fn split_at(&self, limbs: usize) -> (Self, Self) {
        if limbs >= self.limbs.len() {
            return (self.clone(), Self::zero());
        }
        let lo = Self::from_limbs(self.limbs[..limbs].to_vec());
        let hi = Self::from_limbs(self.limbs[limbs..].to_vec());
        (lo, hi)
    }

    fn shl_limbs(&self, limbs: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; limbs];
        out.extend_from_slice(&self.limbs);
        Self::from_limbs(out)
    }

    /// Squares the value (`self * self`).
    pub fn square(&self) -> Self {
        self.mul(self)
    }

    /// Multiplies by a single limb.
    pub fn mul_u64(&self, v: u64) -> Self {
        if v == 0 || self.is_zero() {
            return Self::zero();
        }
        let mut limbs = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &a in &self.limbs {
            let cur = a as u128 * v as u128 + carry;
            limbs.push(cur as u64);
            carry = cur >> 64;
        }
        if carry != 0 {
            limbs.push(carry as u64);
        }
        Self::from_limbs(limbs)
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut limbs = vec![0u64; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        Self::from_limbs(limbs)
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> Self {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut limbs = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            limbs.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).copied().unwrap_or(0) << (64 - bit_shift);
                limbs.push(lo | hi);
            }
        }
        Self::from_limbs(limbs)
    }

    /// Quotient and remainder: `(self / divisor, self % divisor)`.
    ///
    /// Implements Knuth TAOCP vol. 2 Algorithm D with a normalization shift
    /// and the classic two-limb `qhat` estimate.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero BigUint");
        match self.cmp_ref(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, Self::from_u64(r));
        }

        // Normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 digits during the algorithm
        let vn = &v.limbs;
        let v_top = vn[n - 1];
        let v_next = vn[n - 2];

        let mut q_limbs = vec![0u64; m + 1];

        for j in (0..=m).rev() {
            // Estimate qhat from the top two limbs of the current remainder.
            let numer = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
            let mut qhat = numer / v_top as u128;
            let mut rhat = numer % v_top as u128;
            while qhat >> 64 != 0 || qhat * v_next as u128 > ((rhat << 64) | un[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }

            // Multiply-subtract: un[j..j+n+1] -= qhat * vn
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * vn[i] as u128 + carry;
                carry = p >> 64;
                let t = un[i + j] as i128 - (p as u64) as i128 + borrow;
                un[i + j] = t as u64;
                borrow = t >> 64; // arithmetic shift: 0 or -1
            }
            let t = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = t as u64;
            borrow = t >> 64;

            if borrow != 0 {
                // qhat was one too large: add v back.
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[i + j] as u128 + vn[i] as u128 + carry;
                    un[i + j] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            q_limbs[j] = qhat as u64;
        }

        let quotient = Self::from_limbs(q_limbs);
        let remainder = Self::from_limbs(un[..n].to_vec()).shr(shift);
        (quotient, remainder)
    }

    /// Division by a single limb, returning `(quotient, remainder)`.
    pub fn div_rem_u64(&self, divisor: u64) -> (Self, u64) {
        assert!(divisor != 0, "division by zero limb");
        let mut limbs = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            limbs[i] = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        (Self::from_limbs(limbs), rem as u64)
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &Self) -> Self {
        self.div_rem(modulus).1
    }

    /// `(self * other) mod modulus` without Montgomery machinery.
    pub fn mul_mod(&self, other: &Self, modulus: &Self) -> Self {
        self.mul(other).rem(modulus)
    }

    /// `(self - other) mod modulus`; operands must already be reduced.
    pub fn sub_mod(&self, other: &Self, modulus: &Self) -> Self {
        if self.cmp_ref(other) == Ordering::Less {
            self.add(modulus).sub(other)
        } else {
            self.sub(other)
        }
    }

    /// Modular exponentiation `self^exp mod modulus`.
    ///
    /// Delegates to Montgomery multiplication for odd moduli and falls back
    /// to binary square-and-multiply with trial division otherwise.
    pub fn mod_pow(&self, exp: &Self, modulus: &Self) -> Self {
        assert!(!modulus.is_zero(), "mod_pow with zero modulus");
        if modulus.is_one() {
            return Self::zero();
        }
        if modulus.is_odd() {
            let ctx = crate::montgomery::MontgomeryCtx::new(modulus.clone());
            return ctx.pow(self, exp);
        }
        // Generic path (even modulus): plain square-and-multiply.
        let mut base = self.rem(modulus);
        let mut result = Self::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
            if i + 1 < exp.bit_len() {
                base = base.mul_mod(&base, modulus);
            }
        }
        result
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let a_tz = a.trailing_zeros();
        let b_tz = b.trailing_zeros();
        let common = a_tz.min(b_tz);
        a = a.shr(a_tz);
        b = b.shr(b_tz);
        loop {
            match a.cmp_ref(&b) {
                Ordering::Equal => break,
                Ordering::Greater => {
                    a = a.sub(&b);
                    a = a.shr(a.trailing_zeros());
                }
                Ordering::Less => {
                    b = b.sub(&a);
                    b = b.shr(b.trailing_zeros());
                }
            }
        }
        a.shl(common)
    }

    fn trailing_zeros(&self) -> usize {
        for (i, &l) in self.limbs.iter().enumerate() {
            if l != 0 {
                return i * 64 + l.trailing_zeros() as usize;
            }
        }
        0
    }

    /// Modular inverse: `self^-1 mod modulus`, or `None` when not coprime.
    ///
    /// Uses the extended Euclidean algorithm on `BigUint` pairs, tracking the
    /// Bézout coefficient of `self` with an explicit sign.
    pub fn mod_inv(&self, modulus: &Self) -> Option<Self> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        let a = self.rem(modulus);
        if a.is_zero() {
            return None;
        }

        // Invariants: r0 = t0*a (mod m), r1 = t1*a (mod m)
        let mut r0 = modulus.clone();
        let mut r1 = a;
        let mut t0 = (Self::zero(), false); // (magnitude, negative?)
        let mut t1 = (Self::one(), false);

        while !r1.is_zero() {
            let (q, r) = r0.div_rem(&r1);
            // t2 = t0 - q * t1 (signed arithmetic on magnitudes)
            let qt1 = q.mul(&t1.0);
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = std::mem::replace(&mut r1, r);
            t0 = std::mem::replace(&mut t1, t2);
        }

        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = t0;
        let mag = mag.rem(modulus);
        Some(if neg && !mag.is_zero() { modulus.sub(&mag) } else { mag })
    }

    /// Uniform random value in `[0, bound)` using the supplied generator.
    pub fn random_below<R: crate::drbg::RandomSource + ?Sized>(rng: &mut R, bound: &Self) -> Self {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bit_len();
        let bytes = bits.div_ceil(8);
        let top_mask = if bits.is_multiple_of(8) { 0xFF } else { (1u8 << (bits % 8)) - 1 };
        let mut buf = vec![0u8; bytes];
        loop {
            rng.fill_bytes(&mut buf);
            buf[0] &= top_mask;
            let candidate = Self::from_bytes_be(&buf);
            if candidate.cmp_ref(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Random value with exactly `bits` bits (top bit set).
    pub fn random_bits<R: crate::drbg::RandomSource + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits > 0);
        let bytes = bits.div_ceil(8);
        let mut buf = vec![0u8; bytes];
        rng.fill_bytes(&mut buf);
        let mut n = Self::from_bytes_be(&buf);
        // Clear any excess high bits, then force the top bit.
        n = n.shr(0); // no-op, keeps normalization obvious
        let excess = bytes * 8 - bits;
        if excess > 0 {
            n = n.rem(&Self::one().shl(bits));
        }
        n.set_bit(bits - 1);
        n
    }

    /// Parses a hexadecimal string (no prefix).
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let s = s.as_bytes();
        let mut i = 0;
        if s.len() % 2 == 1 {
            bytes.push(hex_val(s[0]));
            i = 1;
        }
        while i < s.len() {
            bytes.push(hex_val(s[i]) << 4 | hex_val(s[i + 1]));
            i += 2;
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// Hexadecimal rendering without prefix (zero → `"0"`).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let bytes = self.to_bytes_be();
        let mut s = String::with_capacity(bytes.len() * 2);
        for (i, b) in bytes.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:x}", b));
            } else {
                s.push_str(&format!("{:02x}", b));
            }
        }
        s
    }
}

fn hex_val(b: u8) -> u8 {
    match b {
        b'0'..=b'9' => b - b'0',
        b'a'..=b'f' => b - b'a' + 10,
        b'A'..=b'F' => b - b'A' + 10,
        _ => unreachable!("validated hex digit"),
    }
}

/// `(a_mag, a_neg) - (b_mag, b_neg)` in sign-magnitude form.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both non-negative
        (false, false) => match a.0.cmp_ref(&b.0) {
            Ordering::Less => (b.0.sub(&a.0), true),
            _ => (a.0.sub(&b.0), false),
        },
        // a - (-b) = a + b
        (false, true) => (a.0.add(&b.0), false),
        // (-a) - b = -(a + b)
        (true, false) => (a.0.add(&b.0), true),
        // (-a) - (-b) = b - a
        (true, true) => match b.0.cmp_ref(&a.0) {
            Ordering::Less => (a.0.sub(&b.0), true),
            _ => (b.0.sub(&a.0), false),
        },
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_ref(other)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(BigUint::zero().is_even());
        assert!(BigUint::one().is_odd());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn bytes_roundtrip() {
        let v = BigUint::from_hex("0123456789abcdef0011223344556677889900").unwrap();
        let bytes = v.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), v);
        // Leading zeros are ignored on parse.
        let mut padded = vec![0u8; 5];
        padded.extend_from_slice(&bytes);
        assert_eq!(BigUint::from_bytes_be(&padded), v);
    }

    #[test]
    fn padded_bytes() {
        let v = n(0xABCD);
        assert_eq!(v.to_bytes_be_padded(4).unwrap(), vec![0, 0, 0xAB, 0xCD]);
        assert!(v.to_bytes_be_padded(1).is_none());
        assert_eq!(BigUint::zero().to_bytes_be_padded(3).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn add_sub_with_carries() {
        let a = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let b = n(1);
        let s = a.add(&b);
        assert_eq!(s.limbs, vec![0, 0, 1]);
        assert_eq!(s.sub(&b), a);
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    fn mul_small() {
        assert_eq!(n(7).mul(&n(6)), n(42));
        assert_eq!(n(0).mul(&n(6)), BigUint::zero());
        let big = BigUint::from_limbs(vec![u64::MAX]);
        assert_eq!(big.mul(&big), BigUint::from_u128((u64::MAX as u128) * (u64::MAX as u128)));
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Deterministic pseudo-random limbs, large enough to hit Karatsuba.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state
        };
        let a = BigUint::from_limbs((0..40).map(|_| next()).collect());
        let b = BigUint::from_limbs((0..37).map(|_| next()).collect());
        assert_eq!(a.mul_karatsuba(&b), a.mul_schoolbook(&b));
    }

    #[test]
    fn shifts() {
        let v = BigUint::from_hex("deadbeefcafebabe1122334455667788").unwrap();
        assert_eq!(v.shl(0), v);
        assert_eq!(v.shl(67).shr(67), v);
        assert_eq!(v.shr(v.bit_len()), BigUint::zero());
        assert_eq!(n(1).shl(64).limbs, vec![0, 1]);
    }

    #[test]
    fn div_rem_basics() {
        let (q, r) = n(100).div_rem(&n(7));
        assert_eq!(q, n(14));
        assert_eq!(r, n(2));
        let (q, r) = n(5).div_rem(&n(7));
        assert_eq!(q, BigUint::zero());
        assert_eq!(r, n(5));
        let (q, r) = n(7).div_rem(&n(7));
        assert_eq!(q, BigUint::one());
        assert_eq!(r, BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn div_rem_multi_limb_identity() {
        let a = BigUint::from_hex(
            "f123456789abcdef0011223344556677f123456789abcdef0011223344556677aabbccdd",
        )
        .unwrap();
        let b = BigUint::from_hex("deadbeefcafebabe1122334455667788").unwrap();
        let (q, r) = a.div_rem(&b);
        assert!(r.cmp_ref(&b) == Ordering::Less);
        assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn div_rem_triggers_addback() {
        // Crafted so qhat over-estimates: divisor with high limb 0x8000...,
        // dividend just below a multiple.
        let b = BigUint::from_limbs(vec![0, 0x8000_0000_0000_0000]);
        let a = b.mul(&BigUint::from_limbs(vec![u64::MAX, u64::MAX])).sub(&n(1));
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp_ref(&b) == Ordering::Less);
    }

    #[test]
    fn mod_pow_small_cases() {
        assert_eq!(n(2).mod_pow(&n(10), &n(1000)), n(24));
        assert_eq!(n(3).mod_pow(&n(0), &n(7)), n(1));
        assert_eq!(n(0).mod_pow(&n(5), &n(7)), BigUint::zero());
        // Fermat: 2^(p-1) = 1 mod p for prime p
        let p = n(1_000_000_007);
        assert_eq!(n(2).mod_pow(&p.sub(&n(1)), &p), n(1));
        // Even modulus path
        assert_eq!(n(3).mod_pow(&n(4), &n(16)), n(1));
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(31)), n(1));
        assert_eq!(n(0).gcd(&n(5)), n(5));
        assert_eq!(n(5).gcd(&n(0)), n(5));
        assert_eq!(n(48).gcd(&n(36)), n(12));
    }

    #[test]
    fn mod_inv_cases() {
        let inv = n(3).mod_inv(&n(7)).unwrap();
        assert_eq!(n(3).mul(&inv).rem(&n(7)), n(1));
        assert!(n(4).mod_inv(&n(8)).is_none()); // not coprime
        assert!(n(0).mod_inv(&n(7)).is_none());
        let m = BigUint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap();
        let a = BigUint::from_hex("deadbeef12345678").unwrap();
        let inv = a.mod_inv(&m).unwrap();
        assert_eq!(a.mul(&inv).rem(&m), BigUint::one());
    }

    #[test]
    fn hex_roundtrip() {
        for s in ["1", "ff", "deadbeef", "123456789abcdef123456789abcdef"] {
            let v = BigUint::from_hex(s).unwrap();
            assert_eq!(v.to_hex(), s);
        }
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert_eq!(BigUint::zero().to_hex(), "0");
        assert!(BigUint::from_hex("").is_none());
        assert!(BigUint::from_hex("xyz").is_none());
        // Odd-length strings parse too.
        assert_eq!(BigUint::from_hex("abc").unwrap(), BigUint::from_u64(0xabc));
    }

    #[test]
    fn bit_access() {
        let mut v = BigUint::zero();
        v.set_bit(100);
        assert!(v.bit(100));
        assert!(!v.bit(99));
        assert_eq!(v.bit_len(), 101);
    }

    #[test]
    fn mul_u64_and_div_rem_u64() {
        let v = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let m = v.mul_u64(12345);
        let (q, r) = m.div_rem_u64(12345);
        assert_eq!(q, v);
        assert_eq!(r, 0);
    }
}
