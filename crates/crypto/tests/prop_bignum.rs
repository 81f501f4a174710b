//! Property-based tests for the arbitrary-precision integer core.
//!
//! The algebraic identities here (ring axioms, division identity, modular
//! inverse law) are what RSA/ESIGN correctness ultimately rests on, so we
//! hammer them with random multi-limb operands.

use sharoes_crypto::montgomery::MontgomeryCtx;
use sharoes_crypto::BigUint;
use sharoes_testkit::prelude::*;

fn biguints(max_limbs: usize) -> Gen<BigUint> {
    gen::vecs(gen::u64s(), 0..max_limbs + 1).map(BigUint::from_limbs)
}

fn nonzero_biguints(max_limbs: usize) -> Gen<BigUint> {
    biguints(max_limbs).filter("nonzero", |v| !v.is_zero())
}

/// Odd moduli >= 3 of exactly 1..=`max_limbs` limbs.
fn odd_moduli(max_limbs: usize) -> Gen<BigUint> {
    gen::vecs(gen::u64s(), 1..max_limbs + 1)
        .map(|mut limbs| {
            limbs[0] |= 1;
            let top = limbs.len() - 1;
            if limbs[top] == 0 {
                limbs[top] = 1;
            }
            BigUint::from_limbs(limbs)
        })
        .filter("modulus >= 3", |m| !m.is_one())
}

/// Exponent of `bits` bits (top bit set) cut from `limbs`; 0 bits is zero.
fn exponent(limbs: &[u64], bits: usize) -> BigUint {
    if bits == 0 {
        return BigUint::zero();
    }
    let mut e = BigUint::from_limbs(limbs.to_vec()).shr(64 * limbs.len() - bits);
    e.set_bit(bits - 1);
    e
}

/// Reference exponentiation: left-to-right square-and-multiply on plain
/// `mul` + `rem`, no Montgomery form.
fn naive_pow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let base = base.rem(m);
    let mut acc = BigUint::one().rem(m);
    for i in (0..exp.bit_len()).rev() {
        acc = acc.mul(&acc).rem(m);
        if exp.bit(i) {
            acc = acc.mul(&base).rem(m);
        }
    }
    acc
}

prop! {
    #![cases(256)]

    fn add_is_commutative(a in biguints(8), b in biguints(8)) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    fn add_is_associative(a in biguints(6), b in biguints(6), c in biguints(6)) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    fn add_then_sub_roundtrips(a in biguints(8), b in biguints(8)) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    fn mul_is_commutative(a in biguints(8), b in biguints(8)) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    fn mul_distributes_over_add(a in biguints(5), b in biguints(5), c in biguints(5)) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    fn karatsuba_agrees_with_schoolbook(
        a in gen::vecs(gen::u64s(), 24..40).map(BigUint::from_limbs),
        b in gen::vecs(gen::u64s(), 24..40).map(BigUint::from_limbs),
    ) {
        // Karatsuba path triggers at >= 24 limbs per operand; verify against
        // small-operand splits that take the schoolbook path.
        let expected = {
            // Multiply via shift-and-add decomposition of b into u64 chunks.
            let mut acc = BigUint::zero();
            for (i, limb) in b.to_bytes_be().rchunks(8).enumerate() {
                let mut l = 0u64;
                for &byte in limb {
                    l = (l << 8) | byte as u64;
                }
                acc = acc.add(&a.mul_u64(l).shl(64 * i));
            }
            acc
        };
        prop_assert_eq!(a.mul(&b), expected);
    }

    fn division_identity(a in biguints(10), b in nonzero_biguints(6)) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r.cmp_ref(&b) == std::cmp::Ordering::Less);
        prop_assert_eq!(q.mul(&b).add(&r), a);
    }

    fn shift_roundtrip(a in biguints(8), n in gen::in_range(0usize..200)) {
        prop_assert_eq!(a.shl(n).shr(n), a);
    }

    fn bytes_roundtrip(a in biguints(8)) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    fn hex_roundtrip(a in biguints(8)) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    fn mod_inv_law(a in nonzero_biguints(4), m in nonzero_biguints(4)) {
        if let Some(inv) = a.mod_inv(&m) {
            prop_assert_eq!(a.mul(&inv).rem(&m), BigUint::one().rem(&m));
            prop_assert!(inv.cmp_ref(&m) == std::cmp::Ordering::Less);
        } else {
            // Inverse fails only when gcd != 1 (or degenerate modulus).
            let g = a.gcd(&m);
            prop_assert!(m.is_one() || !g.is_one());
        }
    }

    fn mod_pow_matches_repeated_mul(
        a in biguints(3),
        e in gen::in_range(0u64..48),
        m in nonzero_biguints(3),
    ) {
        prop_assume!(!m.is_one(), "modulus 1 is degenerate");
        let fast = a.mod_pow(&BigUint::from_u64(e), &m);
        let mut slow = BigUint::one().rem(&m);
        for _ in 0..e {
            slow = slow.mul_mod(&a, &m);
        }
        prop_assert_eq!(fast, slow);
    }

    fn gcd_divides_both(a in nonzero_biguints(5), b in nonzero_biguints(5)) {
        let g = a.gcd(&b);
        prop_assert!(!g.is_zero());
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    fn cmp_is_consistent_with_sub(a in biguints(6), b in biguints(6)) {
        match a.cmp_ref(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }
}

prop! {
    #![cases(96)]

    /// `MontgomeryCtx::pow` against plain square-and-multiply over 1-33 limb
    /// moduli: short exponents (1-20 bits, the size of the public exponents),
    /// mid-size ones either side of any method switch, full-width ones and
    /// zero, with bases that are and are not already reduced.
    fn montgomery_pow_matches_naive(
        m in odd_moduli(33),
        base in biguints(34),
        exp_limbs in gen::vecs(gen::u64s(), 34..35),
        shape in gen::in_range(0u8..4),
        short_bits in gen::in_range_incl(1usize..=20),
        mid_bits in gen::in_range_incl(21usize..=128),
    ) {
        let bits = match shape {
            0 => short_bits,
            1 => mid_bits,
            2 => m.bit_len(),
            _ => 0,
        };
        let e = exponent(&exp_limbs, bits);
        let ctx = MontgomeryCtx::new(m.clone());
        prop_assert_eq!(ctx.pow(&base, &e), naive_pow(&base, &e, &m));
    }

    /// The binary inverse for odd moduli against the Euclidean `mod_inv`.
    /// The modulus is a product `f·g`, so inputs that share the factor `f`
    /// (and zero, and multiples of the modulus) exercise the `None` side.
    fn montgomery_inverse_matches_mod_inv(
        f in odd_moduli(5),
        g in odd_moduli(5),
        x in biguints(11),
        shape in gen::in_range(0u8..4),
    ) {
        let m = f.mul(&g);
        let a = match shape {
            0 => x.clone(),
            1 => f.mul(&x),
            2 => m.mul(&x),
            _ => x.rem(&m),
        };
        let ctx = MontgomeryCtx::new(m.clone());
        let inv = ctx.inverse(&a);
        prop_assert_eq!(&inv, &a.mod_inv(&m));
        if shape == 1 || shape == 2 {
            prop_assert!(inv.is_none(), "a shares a factor with m");
        }
    }
}
