//! Arithmetic in GF(2^255 − 19), the base field of Curve25519.
//!
//! Elements are held in a radix-2^51 representation: five 64-bit limbs, each
//! nominally below 2^52. This is the standard unsaturated representation; it
//! lets products be accumulated in `u128` without overflow and keeps carry
//! propagation cheap. All public operations accept and return *weakly
//! reduced* elements (limbs < 2^52); [`FieldElement::to_bytes`] performs the
//! full canonical reduction.
//!
//! Carries are propagated once per operation and never further than they
//! must be. A product's five `u128` columns are carried in one pass into
//! limbs below 2^51 + 2^13; a sum or difference takes every limb's
//! overflow at once and hands it to the next limb up, with no chain from
//! limb to limb (`weak_reduce`), leaving limbs below
//! 2^51 + 2^18. Multiplication tolerates input limbs up to 2^54, so
//! neither result needs more before it is multiplied again.
//! Inversion and the square root's `(p − 5)/8` power run fixed addition
//! chains (about 254 squarings and 11 multiplications, where
//! square-and-multiply spends 255 and about 250) built on one shared
//! prefix; the bit-by-bit [`FieldElement::pow`] remains as the reference
//! they are tested against.

/// Mask selecting the low 51 bits of a limb.
const LOW_51: u64 = (1u64 << 51) - 1;

/// An element of GF(2^255 − 19).
#[derive(Clone, Copy, Debug)]
pub struct FieldElement(pub(crate) [u64; 5]);

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0; 5]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0, 0]);

    /// Constructs the element representing the small integer `x`.
    pub fn from_u64(x: u64) -> FieldElement {
        FieldElement([x & LOW_51, x >> 51, 0, 0, 0])
    }

    /// Parses 32 little-endian bytes as a field element.
    ///
    /// The top bit (bit 255) is ignored, matching the Curve25519 convention
    /// where that bit carries the sign of the x-coordinate in compressed
    /// points. Values in [p, 2^255) are accepted and reduced.
    pub fn from_bytes(bytes: &[u8; 32]) -> FieldElement {
        let load8 = |b: &[u8]| -> u64 {
            let mut v = [0u8; 8];
            v.copy_from_slice(b);
            u64::from_le_bytes(v)
        };
        FieldElement([
            load8(&bytes[0..8]) & LOW_51,
            (load8(&bytes[6..14]) >> 3) & LOW_51,
            (load8(&bytes[12..20]) >> 6) & LOW_51,
            (load8(&bytes[19..27]) >> 1) & LOW_51,
            (load8(&bytes[24..32]) >> 12) & LOW_51,
        ])
    }

    /// Serializes to 32 little-endian bytes in fully reduced (canonical) form.
    pub fn to_bytes(self) -> [u8; 32] {
        // Limbs below 2^51 + 2^18 put the value below 2p, so the quotient
        // by p is 0 or 1: it is the carry out of bit 255 of value + 19.
        let mut l = self.weak_reduce().0;
        let mut q = (l[0] + 19) >> 51;
        for limb in &l[1..] {
            q = (limb + q) >> 51;
        }
        // value − q·p = value + 19q − q·2^255: add 19q, carry through, and
        // let the mask on the top limb drop bit 255.
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= LOW_51;
        }
        l[4] &= LOW_51;
        // Five 51-bit limbs are four 64-bit words.
        let words = [
            l[0] | l[1] << 51,
            l[1] >> 13 | l[2] << 38,
            l[2] >> 26 | l[3] << 25,
            l[3] >> 39 | l[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Adds two elements.
    pub fn add(&self, rhs: &FieldElement) -> FieldElement {
        self.add_lazy(rhs).weak_reduce()
    }

    /// Adds two weakly reduced elements without carrying: limbs of the
    /// sum stay below 2^53.
    ///
    /// For the point formulas, where a sum feeds straight into a
    /// multiplication, a squaring or a subtraction (all of which take
    /// limbs up to 2^54) or into one more `add_lazy` — never a chain of
    /// them.
    pub(crate) fn add_lazy(&self, rhs: &FieldElement) -> FieldElement {
        let (a, b) = (&self.0, &rhs.0);
        FieldElement([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// Subtracts `rhs` from `self`.
    pub fn sub(&self, rhs: &FieldElement) -> FieldElement {
        // Add 16p limb-wise before subtracting so no limb underflows even
        // for inputs with limbs up to 2^52.
        const BIAS0: u64 = (LOW_51 - 18) << 4;
        const BIAS: u64 = LOW_51 << 4;
        let (a, b) = (&self.0, &rhs.0);
        FieldElement([
            a[0] + BIAS0 - b[0],
            a[1] + BIAS - b[1],
            a[2] + BIAS - b[2],
            a[3] + BIAS - b[3],
            a[4] + BIAS - b[4],
        ])
        .weak_reduce()
    }

    /// Negates the element.
    pub fn neg(&self) -> FieldElement {
        FieldElement::ZERO.sub(self)
    }

    /// Multiplies two elements.
    pub fn mul(&self, rhs: &FieldElement) -> FieldElement {
        let a = &self.0;
        let b = &rhs.0;
        debug_assert!(a.iter().chain(b).all(|&limb| limb < 1 << 54));
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        // 19-fold the limbs of b that wrap past 2^255.
        let b1_19 = 19 * b[1];
        let b2_19 = 19 * b[2];
        let b3_19 = 19 * b[3];
        let b4_19 = 19 * b[4];
        let c0 = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        let c1 = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        let c2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        let c3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        let c4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        FieldElement::carry_wide([c0, c1, c2, c3, c4])
    }

    /// Squares the element.
    pub fn square(&self) -> FieldElement {
        self.pow2k(1)
    }

    /// Squares the element `k` times, computing `self^(2^k)`.
    ///
    /// Squaring has 15 distinct limb products where a general
    /// multiplication has 25; the addition chains below are made of runs
    /// of it.
    pub fn pow2k(&self, k: u32) -> FieldElement {
        debug_assert!(k > 0);
        debug_assert!(self.0.iter().all(|&limb| limb < 1 << 54));
        let m = |x: u64, y: u64| (x as u128) * (y as u128);
        let mut a = *self;
        for _ in 0..k {
            let [a0, a1, a2, a3, a4] = a.0;
            let a3_19 = 19 * a3;
            let a4_19 = 19 * a4;
            let c0 = m(a0, a0) + 2 * (m(a1, a4_19) + m(a2, a3_19));
            let c1 = m(a3, a3_19) + 2 * (m(a0, a1) + m(a2, a4_19));
            let c2 = m(a1, a1) + 2 * (m(a0, a2) + m(a4, a3_19));
            let c3 = m(a4, a4_19) + 2 * (m(a0, a3) + m(a1, a2));
            let c4 = m(a2, a2) + 2 * (m(a0, a4) + m(a1, a3));
            a = FieldElement::carry_wide([c0, c1, c2, c3, c4]);
        }
        a
    }

    /// Carries five product columns into limbs, in one pass.
    ///
    /// With input limbs below 2^54 each column is below 2^115, so every
    /// carry fits a `u64`; the last one wraps into limb 0 times 19 and
    /// limb 0's own overflow goes one step up and no further. Output
    /// limbs are below 2^51 + 2^13.
    fn carry_wide(mut c: [u128; 5]) -> FieldElement {
        let mut out = [0u64; 5];
        for i in 0..4 {
            c[i + 1] += (c[i] >> 51) as u64 as u128;
            out[i] = c[i] as u64 & LOW_51;
        }
        let carry = (c[4] >> 51) as u64;
        out[4] = c[4] as u64 & LOW_51;
        out[0] += carry * 19;
        out[1] += out[0] >> 51;
        out[0] &= LOW_51;
        FieldElement(out)
    }

    /// Brings every limb below 2^51 + 2^18: each limb's bits above 51 move
    /// to the next limb up (times 19 from the top limb to the bottom), all
    /// five at once — no carry depends on another.
    fn weak_reduce(self) -> FieldElement {
        let l = self.0;
        FieldElement([
            (l[0] & LOW_51) + 19 * (l[4] >> 51),
            (l[1] & LOW_51) + (l[0] >> 51),
            (l[2] & LOW_51) + (l[1] >> 51),
            (l[3] & LOW_51) + (l[2] >> 51),
            (l[4] & LOW_51) + (l[3] >> 51),
        ])
    }

    /// Raises the element to the power given by 32 little-endian exponent
    /// bytes, by square-and-multiply.
    ///
    /// The reference for the fixed addition chains; nothing on a hot path
    /// calls it.
    pub fn pow(&self, exp_le: &[u8; 32]) -> FieldElement {
        let mut acc = FieldElement::ONE;
        for byte in exp_le.iter().rev() {
            for bit in (0..8).rev() {
                acc = acc.square();
                if (byte >> bit) & 1 == 1 {
                    acc = acc.mul(self);
                }
            }
        }
        acc
    }

    /// The shared prefix of both addition chains: `(x^(2^250 − 1), x^11)`.
    ///
    /// Exponents of the form 2^n − 1 double their length with one run of
    /// squarings and one multiplication: 5 → 10 → 20 → 40 → 50 → 100 →
    /// 200 → 250 ones.
    fn pow_2_250_minus_1(&self) -> (FieldElement, FieldElement) {
        let x2 = self.square();
        let x9 = x2.pow2k(2).mul(self);
        let x11 = x9.mul(&x2);
        let ones5 = x11.square().mul(&x9); // 22 + 9 = 31 = 2^5 − 1
        let ones10 = ones5.pow2k(5).mul(&ones5);
        let ones20 = ones10.pow2k(10).mul(&ones10);
        let ones40 = ones20.pow2k(20).mul(&ones20);
        let ones50 = ones40.pow2k(10).mul(&ones10);
        let ones100 = ones50.pow2k(50).mul(&ones50);
        let ones200 = ones100.pow2k(100).mul(&ones100);
        let ones250 = ones200.pow2k(50).mul(&ones50);
        (ones250, x11)
    }

    /// Computes `self^((p − 5)/8)`, the power [`FieldElement::sqrt_ratio`]
    /// needs: (p − 5)/8 = 2^252 − 3 = (2^250 − 1)·4 + 1.
    fn pow_p58(&self) -> FieldElement {
        let (ones250, _) = self.pow_2_250_minus_1();
        ones250.pow2k(2).mul(self)
    }

    /// Computes the multiplicative inverse via Fermat's little theorem.
    ///
    /// Returns zero for a zero input (there is no inverse; callers that care
    /// must check [`FieldElement::is_zero`] first).
    pub fn invert(&self) -> FieldElement {
        // p − 2 = 2^255 − 21 = (2^250 − 1)·32 + 11.
        let (ones250, x11) = self.pow_2_250_minus_1();
        ones250.pow2k(5).mul(&x11)
    }

    /// Inverts every element of `xs` in place with one field inversion
    /// and `3(N − 1)` multiplications (Montgomery's trick).
    ///
    /// A zero stays zero, as with [`FieldElement::invert`]; it is left
    /// out of the running product, which it would otherwise wipe out.
    pub fn batch_invert<const N: usize>(xs: &mut [FieldElement; N]) {
        let nonzero = xs.map(|x| !x.is_zero());
        // prefix[i] = the product of the non-zero elements before xs[i].
        let mut prefix = [FieldElement::ONE; N];
        let mut acc = FieldElement::ONE;
        for i in 0..N {
            prefix[i] = acc;
            if nonzero[i] {
                acc = acc.mul(&xs[i]);
            }
        }
        // Walking back, acc = (that product up to and including xs[i])⁻¹.
        acc = acc.invert();
        for i in (0..N).rev() {
            if nonzero[i] {
                let inv = acc.mul(&prefix[i]);
                acc = acc.mul(&xs[i]);
                xs[i] = inv;
            }
        }
    }

    /// Returns true if the element is canonically zero.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Returns true if the canonical encoding has its lowest bit set.
    ///
    /// This is the "negative" convention used for point compression.
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Compares for equality after canonical reduction.
    pub fn ct_eq(&self, other: &FieldElement) -> bool {
        self.to_bytes() == other.to_bytes()
    }

    /// The square root of −1 modulo p (one of the two roots).
    pub fn sqrt_m1() -> FieldElement {
        static SQRT_M1: std::sync::OnceLock<FieldElement> = std::sync::OnceLock::new();
        *SQRT_M1.get_or_init(|| {
            // 2^((p−1)/4), and (p − 1)/4 = 2^253 − 5 = 2·(2^252 − 3) + 1.
            let two = FieldElement::from_u64(2);
            two.pow_p58().square().mul(&two)
        })
    }

    /// Computes `sqrt(u/v)` if it exists.
    ///
    /// Returns `Some(x)` with `v·x² = u` and `x` non-negative (lowest bit of
    /// the canonical encoding clear), or `None` when `u/v` is a
    /// non-residue. Used by Edwards point decompression.
    pub fn sqrt_ratio(u: &FieldElement, v: &FieldElement) -> Option<FieldElement> {
        // Candidate x = u * v^3 * (u * v^7)^((p-5)/8).
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let vx2 = v.mul(&x.square());
        if !vx2.ct_eq(u) {
            if vx2.ct_eq(&u.neg()) {
                x = x.mul(&FieldElement::sqrt_m1());
            } else {
                return None;
            }
        }
        if x.is_negative() {
            x = x.neg();
        }
        Some(x)
    }
}

impl PartialEq for FieldElement {
    fn eq(&self, other: &Self) -> bool {
        self.ct_eq(other)
    }
}

impl Eq for FieldElement {}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(x: u64) -> FieldElement {
        FieldElement::from_u64(x)
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(fe(2).add(&fe(3)), fe(5));
        assert_eq!(fe(7).sub(&fe(3)), fe(4));
        assert_eq!(fe(6).mul(&fe(7)), fe(42));
        assert_eq!(fe(5).square(), fe(25));
    }

    #[test]
    fn subtraction_wraps_mod_p() {
        // 0 - 1 = p - 1 = 2^255 - 20.
        let m1 = fe(0).sub(&fe(1));
        let bytes = m1.to_bytes();
        assert_eq!(bytes[0], 0xec);
        assert_eq!(bytes[31], 0x7f);
        for &b in &bytes[1..31] {
            assert_eq!(b, 0xff);
        }
        assert_eq!(m1.add(&fe(1)), fe(0));
    }

    #[test]
    fn noncanonical_bytes_reduce() {
        // 2^255 - 19 encodes the same element as 0 (after masking bit 255,
        // p itself is representable and must reduce to zero).
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let z = FieldElement::from_bytes(&p_bytes);
        assert!(z.is_zero());
    }

    #[test]
    fn bytes_roundtrip() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        bytes[31] &= 0x7f;
        let x = FieldElement::from_bytes(&bytes);
        // Roundtrip holds when the value is below p (true here with byte 31
        // far below 0x7f after the multiply pattern; enforce it anyway).
        let back = x.to_bytes();
        assert_eq!(FieldElement::from_bytes(&back), x);
    }

    #[test]
    fn invert_roundtrip() {
        for v in [1u64, 2, 3, 121665, 121666, 0xdeadbeef] {
            let x = fe(v);
            assert_eq!(x.mul(&x.invert()), FieldElement::ONE, "v = {v}");
        }
    }

    #[test]
    fn invert_zero_is_zero() {
        assert!(FieldElement::ZERO.invert().is_zero());
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = FieldElement::sqrt_m1();
        assert_eq!(i.square(), FieldElement::ZERO.sub(&FieldElement::ONE));
    }

    #[test]
    fn sqrt_ratio_of_squares() {
        for v in [2u64, 3, 5, 9, 1234567] {
            let x = fe(v);
            let x2 = x.square();
            let r = FieldElement::sqrt_ratio(&x2, &FieldElement::ONE).expect("square has a root");
            assert!(r == x || r == x.neg(), "v = {v}");
            assert!(!r.is_negative());
        }
    }

    #[test]
    fn sqrt_ratio_nonresidue_fails() {
        // 2 is a non-residue mod p (p ≡ 5 mod 8).
        assert!(FieldElement::sqrt_ratio(&fe(2), &FieldElement::ONE).is_none());
    }

    #[test]
    fn pow_small_exponent() {
        let mut exp = [0u8; 32];
        exp[0] = 10;
        assert_eq!(fe(2).pow(&exp), fe(1024));
    }

    /// Limb arrays on the edges of the representation: every limb at the
    /// top of the reduced range, one past it, at the top of the weakly
    /// reduced range, and the limbs of p and 2p (both zero).
    fn edge_limbs() -> Vec<FieldElement> {
        let p = [LOW_51 - 18, LOW_51, LOW_51, LOW_51, LOW_51];
        let mut v: Vec<FieldElement> = [LOW_51, 1 << 51, (1 << 52) - 1]
            .iter()
            .flat_map(|&m| {
                // All five limbs at `m`, then each limb alone.
                (0..6).map(move |only| {
                    let mut l = [m; 5];
                    for (i, limb) in l.iter_mut().enumerate() {
                        if only < 5 && i != only {
                            *limb = 0;
                        }
                    }
                    FieldElement(l)
                })
            })
            .collect();
        v.push(FieldElement(p));
        v.push(FieldElement(p.map(|limb| 2 * limb)));
        v
    }

    /// The value of a limb array by Horner's rule over small, fully
    /// reduced operands — independent of how unreduced limbs are carried.
    fn value_of(x: &FieldElement) -> FieldElement {
        let radix = FieldElement([0, 1, 0, 0, 0]);
        x.0.iter().rev().fold(FieldElement::ZERO, |acc, &limb| {
            acc.mul(&radix)
                .add(&FieldElement([limb & LOW_51, limb >> 51, 0, 0, 0]))
        })
    }

    #[test]
    fn edge_limbs_behave_as_their_values() {
        let edges = edge_limbs();
        let mut p58 = [0xffu8; 32];
        p58[0] = 0xfd;
        p58[31] = 0x0f;
        for a in &edges {
            let va = value_of(a);
            assert_eq!(a.to_bytes(), va.to_bytes(), "{a:?}");
            // The encoding is canonical: its limbs are already below p.
            let reparsed = FieldElement::from_bytes(&a.to_bytes());
            assert_eq!(reparsed.to_bytes(), a.to_bytes());
            assert!(reparsed.0 != [LOW_51 - 18, LOW_51, LOW_51, LOW_51, LOW_51]);
            assert!(reparsed.0.iter().all(|&limb| limb <= LOW_51));
            assert_eq!(a.square(), va.square());
            assert_eq!(a.pow2k(3), va.pow2k(3));
            assert_eq!(a.neg(), va.neg());
            assert_eq!(a.invert(), va.invert());
            assert_eq!(a.pow_p58(), va.pow(&p58));
            for b in &edges {
                let vb = value_of(b);
                assert_eq!(a.mul(b), va.mul(&vb), "{a:?} * {b:?}");
                assert_eq!(a.add(b), va.add(&vb), "{a:?} + {b:?}");
                assert_eq!(a.sub(b), va.sub(&vb), "{a:?} - {b:?}");
                // A lazy sum may be multiplied, squared and subtracted.
                let lazy = a.add_lazy(b);
                assert_eq!(lazy.mul(&lazy), va.add(&vb).square());
                assert_eq!(lazy.sub(&lazy.add_lazy(a)), va.neg());
                assert_eq!(
                    FieldElement::sqrt_ratio(a, b),
                    FieldElement::sqrt_ratio(&va, &vb)
                );
            }
        }
    }

    #[test]
    fn results_stay_weakly_reduced() {
        // The largest inputs the public operations promise to take.
        let top = FieldElement([(1 << 52) - 1; 5]);
        for r in [top.add(&top), top.sub(&top), top.mul(&top), top.square()] {
            assert!(r.0.iter().all(|&limb| limb < 1 << 52), "{r:?}");
        }
        // And the largest a lazy sum of two lazy sums can reach.
        let lazy = top.add_lazy(&top).add_lazy(&top.add_lazy(&top));
        for r in [lazy.mul(&lazy), lazy.square(), lazy.sub(&lazy)] {
            assert!(r.0.iter().all(|&limb| limb < 1 << 52), "{r:?}");
        }
        assert!(lazy.sub(&lazy).is_zero());
    }

    #[test]
    fn batch_invert_matches_invert() {
        let mut xs = [fe(2), fe(3), fe(121666), FieldElement::ZERO.sub(&fe(1))];
        let want = xs.map(|x| x.invert());
        FieldElement::batch_invert(&mut xs);
        assert_eq!(xs, want);
        let mut with_zeros = [FieldElement::ZERO, fe(7), FieldElement::ZERO, fe(9)];
        FieldElement::batch_invert(&mut with_zeros);
        assert_eq!(
            with_zeros,
            [
                FieldElement::ZERO,
                fe(7).invert(),
                FieldElement::ZERO,
                fe(9).invert()
            ]
        );
    }

    #[test]
    fn distributive_law_spot_check() {
        let a = fe(0x1234_5678_9abc);
        let b = fe(0xfeed_f00d);
        let c = fe(0x1111_2222_3333);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }
}
