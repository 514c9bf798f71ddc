//! Arithmetic modulo ℓ, the prime order of the Curve25519 group.
//!
//! ℓ = 2^252 + c with c = 27742317777372353535851937790883648493 (125
//! bits). Scalars are held as four 64-bit little-endian limbs in canonical
//! (fully reduced) form.
//!
//! Reduction of wide (up to 512-bit) values folds at bit 252: since
//! 2^252 ≡ −c (mod ℓ), `lo + 2^252·hi ≡ lo − c·hi`, and `c·hi` is 127
//! bits shorter than the value it came from. Four folds with alternating
//! sign take 512 bits to nothing — 18 limb products where the bit-serial
//! long division this replaced made 260 compare-and-subtract steps over
//! eight limbs (1.5 µs, twice per vote for the challenge hashes and once
//! per scalar product). The long division is kept, test-only, as the
//! reference.
//!
//! Verification multiplies by public scalars only, and recodes them into
//! width-w non-adjacent form first (`Scalar::non_adjacent_form`).

/// The group order ℓ as four little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// The low 125 bits of ℓ: ℓ = 2^252 + C.
const C: [u64; 2] = [L[0], L[1]];

/// The width-5 non-adjacent form of ℓ itself, for the subgroup check
/// `ℓ·P = 0` (ℓ is not a [`Scalar`]: it reduces to zero).
pub(crate) const ORDER_NAF: [i8; 256] = non_adjacent_form(&L, 5);

/// An integer modulo the group order ℓ, always canonically reduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Scalar(pub(crate) [u64; 4]);

impl Scalar {
    /// The scalar 0.
    pub const ZERO: Scalar = Scalar([0; 4]);
    /// The scalar 1.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Constructs a scalar from a small integer.
    pub fn from_u64(x: u64) -> Scalar {
        Scalar([x, 0, 0, 0])
    }

    /// Reduces 32 little-endian bytes modulo ℓ.
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_bytes_mod_order_wide(&wide)
    }

    /// Reduces 64 little-endian bytes modulo ℓ.
    ///
    /// A 512-bit input makes the result statistically uniform, which is how
    /// secret scalars and deterministic nonces are derived from hashes.
    pub fn from_bytes_mod_order_wide(bytes: &[u8; 64]) -> Scalar {
        let mut v = [0u64; 8];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            v[i] = u64::from_le_bytes(b);
        }
        Scalar(reduce_wide(v))
    }

    /// Parses 32 little-endian bytes, requiring canonical form.
    ///
    /// Returns `None` if the value is ≥ ℓ. Used when deserializing
    /// signatures and proofs, where accepting non-canonical scalars would
    /// make encodings malleable.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut v = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            v[i] = u64::from_le_bytes(b);
        }
        if ge4(&v, &L) {
            None
        } else {
            Some(Scalar(v))
        }
    }

    /// Serializes to 32 little-endian bytes (canonical).
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Adds two scalars modulo ℓ.
    pub fn add(&self, rhs: &Scalar) -> Scalar {
        // Inputs are < ℓ < 2^253, so the sum fits in 4 limbs.
        let mut r = self.0;
        add4_assign(&mut r, &rhs.0);
        if ge4(&r, &L) {
            sub4_assign(&mut r, &L);
        }
        Scalar(r)
    }

    /// Subtracts `rhs` from `self` modulo ℓ.
    pub fn sub(&self, rhs: &Scalar) -> Scalar {
        let mut r = self.0;
        if ge4(&r, &rhs.0) {
            sub4_assign(&mut r, &rhs.0);
        } else {
            // (ℓ − rhs) + self: rhs > self, so the result is below ℓ and
            // nothing leaves the 4 limbs.
            let mut t = L;
            sub4_assign(&mut t, &rhs.0);
            add4_assign(&mut t, &r);
            r = t;
        }
        Scalar(r)
    }

    /// Negates the scalar modulo ℓ.
    pub fn neg(&self) -> Scalar {
        Scalar::ZERO.sub(self)
    }

    /// Multiplies two scalars modulo ℓ.
    #[allow(clippy::needless_range_loop)] // Schoolbook product indexes i+j.
    pub fn mul(&self, rhs: &Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let acc = wide[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                wide[i + j] = acc as u64;
                carry = acc >> 64;
            }
            wide[i + 4] = carry as u64;
        }
        Scalar(reduce_wide(wide))
    }

    /// Returns true if the scalar is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Recodes the scalar as `Σ dᵢ·2^i` with every non-zero digit odd,
    /// `|dᵢ| < 2^(w−1)`, and at most one non-zero digit in any `w`
    /// consecutive positions — on average one in `w + 1`.
    pub(crate) fn non_adjacent_form(&self, w: u32) -> [i8; 256] {
        non_adjacent_form(&self.0, w)
    }

    /// Iterates over the 256 bits of the scalar, most significant first.
    pub fn bits_msb_first(&self) -> impl Iterator<Item = bool> + '_ {
        (0..256)
            .rev()
            .map(move |i| (self.0[i / 64] >> (i % 64)) & 1 == 1)
    }
}

/// Returns true if `a >= b` (4-limb little-endian compare).
fn ge4(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] > b[i] {
            return true;
        }
        if a[i] < b[i] {
            return false;
        }
    }
    true
}

/// Computes `a -= b`, assuming `a >= b`.
fn sub4_assign(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0);
}

/// The width-`w` non-adjacent form of a value below 2^255.
///
/// Scans upward for the next set bit, takes the `w`-bit window there as
/// a signed residue in (−2^(w−1), 2^(w−1)) — odd by construction — and
/// carries one into the bits above when the residue is negative. The
/// `w − 1` positions after a digit are zero.
const fn non_adjacent_form(limbs: &[u64; 4], w: u32) -> [i8; 256] {
    assert!(2 <= w && w <= 8);
    assert!(limbs[3] >> 63 == 0, "the final carry needs a spare bit");
    let width = 1u64 << w;
    let mut naf = [0i8; 256];
    let mut carry = 0u64;
    let mut pos = 0usize;
    while pos < 256 {
        let (limb, bit) = (pos / 64, pos % 64);
        let mut bits = limbs[limb] >> bit;
        if bit + w as usize > 64 && limb < 3 {
            bits |= limbs[limb + 1] << (64 - bit);
        }
        let window = carry + (bits & (width - 1));
        if window & 1 == 0 {
            // Even (a zero bit, or a one cancelled by the carry): no
            // digit here, and the carry rides on.
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            naf[pos] = window as i8;
        } else {
            carry = 1;
            naf[pos] = (window as i16 - width as i16) as i8;
        }
        pos += w as usize;
    }
    naf
}

/// Splits an 8-limb value at bit 252 into `(lo, hi)`.
fn split_252(v: &[u64; 8]) -> ([u64; 4], [u64; 5]) {
    let lo = [v[0], v[1], v[2], v[3] & (u64::MAX >> 4)];
    let mut hi = [0u64; 5];
    for (i, limb) in hi.iter_mut().enumerate() {
        let above = if i + 4 < 8 { v[i + 4] << 4 } else { 0 };
        *limb = (v[i + 3] >> 60) | above;
    }
    (lo, hi)
}

/// Computes `C·x` for a 5-limb `x` (at most 260 + 125 bits).
fn mul_c(x: &[u64; 5]) -> [u64; 8] {
    let mut out = [0u64; 8];
    for (i, &xi) in x.iter().enumerate() {
        let mut carry: u128 = 0;
        for (j, &cj) in C.iter().enumerate() {
            let acc = out[i + j] as u128 + (xi as u128) * (cj as u128) + carry;
            out[i + j] = acc as u64;
            carry = acc >> 64;
        }
        out[i + 2] = carry as u64;
    }
    out
}

/// Computes `a += b`, assuming the sum fits four limbs.
fn add4_assign(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut carry = 0u64;
    for i in 0..4 {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        a[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    debug_assert_eq!(carry, 0);
}

/// Reduces a 512-bit little-endian value modulo ℓ.
///
/// Writing `v = lo₀ + 2^252·hi₀` and `C·hiₖ = loₖ₊₁ + 2^252·hiₖ₊₁`,
/// `v ≡ lo₀ − lo₁ + lo₂ − lo₃ (mod ℓ)`: the widths run 512 → 385 → 258
/// → 131 bits, so `hi₃ = 0` and the fourth fold ends it. Each `lo` is
/// below 2^252, so adding 2ℓ keeps the alternating sum positive and
/// below 4ℓ.
fn reduce_wide(v: [u64; 8]) -> [u64; 4] {
    // 2ℓ < 2^254 fits four limbs.
    let mut plus = [L[0] << 1, (L[1] << 1) | (L[0] >> 63), 0, L[3] << 1];
    let mut minus = [0u64; 4];
    let mut rest = v;
    for fold in 0..4 {
        let (lo, hi) = split_252(&rest);
        add4_assign(if fold % 2 == 0 { &mut plus } else { &mut minus }, &lo);
        rest = mul_c(&hi);
    }
    debug_assert_eq!(rest, [0u64; 8]);
    sub4_assign(&mut plus, &minus);
    while ge4(&plus, &L) {
        sub4_assign(&mut plus, &L);
    }
    plus
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduces a 512-bit value modulo ℓ by binary long division: the
    /// method `reduce_wide` replaced, kept as its reference.
    fn reduce_wide_long_division(mut v: [u64; 8]) -> [u64; 4] {
        // ℓ has 253 bits; shifting it by up to 512 − 253 = 259 bits covers
        // every quotient bit of a 512-bit dividend.
        for shift in (0..=259).rev() {
            let shifted = shl_l(shift);
            if ge8(&v, &shifted) {
                sub8_assign(&mut v, &shifted);
            }
        }
        assert_eq!(&v[4..], &[0u64; 4]);
        [v[0], v[1], v[2], v[3]]
    }

    /// Computes ℓ << shift as an 8-limb value.
    #[allow(clippy::needless_range_loop)] // Limb shifts index two offsets of one array.
    fn shl_l(shift: u32) -> [u64; 8] {
        let mut out = [0u64; 8];
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        for i in 0..4 {
            let idx = i + limb_shift;
            if idx < 8 {
                out[idx] |= L[i] << bit_shift;
            }
            if bit_shift > 0 && idx + 1 < 8 {
                out[idx + 1] |= L[i] >> (64 - bit_shift);
            }
        }
        out
    }

    fn ge8(a: &[u64; 8], b: &[u64; 8]) -> bool {
        for i in (0..8).rev() {
            if a[i] > b[i] {
                return true;
            }
            if a[i] < b[i] {
                return false;
            }
        }
        true
    }

    fn sub8_assign(a: &mut [u64; 8], b: &[u64; 8]) {
        let mut borrow = 0u64;
        for i in 0..8 {
            let (d1, b1) = a[i].overflowing_sub(b[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            a[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        assert_eq!(borrow, 0);
    }

    fn s(x: u64) -> Scalar {
        Scalar::from_u64(x)
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(s(2).add(&s(3)), s(5));
        assert_eq!(s(7).sub(&s(3)), s(4));
        assert_eq!(s(6).mul(&s(7)), s(42));
    }

    #[test]
    fn order_reduces_to_zero() {
        let l_bytes = Scalar(L).to_bytes();
        assert!(Scalar::from_bytes_mod_order(&l_bytes).is_zero());
        assert!(Scalar::from_canonical_bytes(&l_bytes).is_none());
    }

    #[test]
    fn order_minus_one_is_canonical() {
        let lm1 = Scalar(L).0;
        let mut v = lm1;
        sub4_assign(&mut v, &[1, 0, 0, 0]);
        let sc = Scalar::from_canonical_bytes(&Scalar(v).to_bytes()).unwrap();
        assert_eq!(sc.add(&Scalar::ONE), Scalar::ZERO);
    }

    #[test]
    fn neg_roundtrip() {
        let x = s(0x1234_5678);
        assert_eq!(x.add(&x.neg()), Scalar::ZERO);
        assert_eq!(Scalar::ZERO.neg(), Scalar::ZERO);
    }

    #[test]
    fn wide_reduction_of_known_multiple() {
        // q·ℓ + r must reduce to r for a handful of small q.
        for q in 1u64..5 {
            for r in [0u64, 1, 12345] {
                let mut wide = [0u64; 8];
                // wide = q * L + r.
                let mut carry: u128 = r as u128;
                for i in 0..4 {
                    let acc = (L[i] as u128) * (q as u128) + carry;
                    wide[i] = acc as u64;
                    carry = acc >> 64;
                }
                wide[4] = carry as u64;
                assert_eq!(reduce_wide(wide), Scalar::from_u64(r).0, "q={q} r={r}");
            }
        }
    }

    #[test]
    fn wide_reduction_max_value() {
        // 2^512 - 1 mod ℓ must be < ℓ and consistent under re-reduction.
        let v = [u64::MAX; 8];
        let r = reduce_wide(v);
        assert!(ge4(&L, &r) && r != L);
        let again = Scalar(r).add(&Scalar::ZERO);
        assert_eq!(again.0, r);
    }

    /// 512-bit values around every boundary the folds care about.
    fn edge_wides() -> Vec<[u64; 8]> {
        let mut v = vec![[0u64; 8], [u64::MAX; 8]];
        // A single set bit at each fold point and limb seam, and the
        // value just below it.
        for bit in [
            63, 64, 124, 125, 251, 252, 253, 255, 256, 377, 384, 385, 504, 511,
        ] {
            let mut one = [0u64; 8];
            one[bit / 64] = 1 << (bit % 64);
            let mut below = [0u64; 8];
            for (i, limb) in below.iter_mut().enumerate() {
                *limb = match i.cmp(&(bit / 64)) {
                    std::cmp::Ordering::Less => u64::MAX,
                    std::cmp::Ordering::Equal => (1 << (bit % 64)) - 1,
                    std::cmp::Ordering::Greater => 0,
                };
            }
            v.push(one);
            v.push(below);
        }
        // ℓ − 1, ℓ, ℓ + 1 in the low half, and ℓ shifted into the high one.
        for delta in [-1i64, 0, 1] {
            let mut w = [0u64; 8];
            w[..4].copy_from_slice(&L);
            w[0] = w[0].wrapping_add_signed(delta);
            v.push(w);
        }
        v.push(shl_l(259));
        v.push(shl_l(256));
        v
    }

    #[test]
    fn folding_reduction_matches_long_division() {
        let mut rng = crate::rng::Rng::seed_from_u64(0x5ca1a7);
        let mut inputs = edge_wides();
        for _ in 0..2000 {
            inputs.push([(); 8].map(|_| rng.next_u64()));
        }
        // Products of canonical scalars: what `mul` reduces.
        let lm1 = Scalar::ZERO.sub(&Scalar::ONE);
        assert_eq!(lm1.mul(&lm1), Scalar::ONE);
        for v in inputs {
            assert_eq!(reduce_wide(v), reduce_wide_long_division(v), "{v:x?}");
        }
    }

    /// Checks the shape of a width-`w` NAF and returns the value it
    /// denotes, as limbs.
    fn check_naf(naf: &[i8; 256], w: u32) -> [u64; 4] {
        let mut last: Option<usize> = None;
        for (i, &d) in naf.iter().enumerate() {
            if d == 0 {
                continue;
            }
            assert!(d % 2 != 0, "digit {d} at {i} is even");
            assert!(d.unsigned_abs() < 1 << (w - 1), "digit {d} at {i} too wide");
            if let Some(prev) = last {
                assert!(i - prev >= w as usize, "digits at {prev} and {i} too close");
            }
            last = Some(i);
        }
        // Σ dᵢ·2^i, top down: double and add the digit, mod 2^256. The
        // partial sums of a NAF of a non-negative value can dip negative,
        // hence the wrapping arithmetic.
        let mut acc = [0u64; 4];
        for &d in naf.iter().rev() {
            let mut carry = 0u64;
            for limb in acc.iter_mut() {
                let next = *limb >> 63;
                *limb = (*limb << 1) | carry;
                carry = next;
            }
            let mut add = d as i64 as i128;
            for limb in acc.iter_mut() {
                let sum = *limb as i128 + add;
                *limb = sum as u64;
                add = sum >> 64;
            }
        }
        acc
    }

    #[test]
    fn non_adjacent_forms_denote_their_scalar_and_use_every_digit() {
        let mut rng = crate::rng::Rng::seed_from_u64(0xd161);
        let mut inputs = vec![
            [0u64; 4],
            [1, 0, 0, 0],
            L,
            [L[0] - 1, L[1], L[2], L[3]],
            [0, 0, 0, 1 << 60],
            [u64::MAX, u64::MAX, u64::MAX, (1 << 60) - 1],
            // Largest value the recoding accepts: a carry out of the top
            // window lands on bit 255.
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1],
        ];
        for _ in 0..300 {
            inputs.push(Scalar::from_bytes_mod_order(&rng.gen_bytes32()).0);
        }
        for w in [5u32, 8] {
            let mut seen = std::collections::BTreeSet::<i8>::new();
            let mut top = 0;
            for limbs in &inputs {
                let naf = non_adjacent_form(limbs, w);
                assert_eq!(check_naf(&naf, w), *limbs, "w = {w}, {limbs:x?}");
                seen.extend(naf.iter().filter(|&&d| d != 0));
                top = top.max(naf.iter().rposition(|&d| d != 0).unwrap_or(0));
            }
            assert_eq!(seen.len(), 1 << (w - 1), "every odd digit of width {w}");
            assert_eq!(top, 255, "the final carry");
        }
        assert_eq!(ORDER_NAF, non_adjacent_form(&L, 5));
        assert_eq!(ORDER_NAF[252], 1, "l = 2^252 + c");
        assert!(ORDER_NAF[127..252].iter().all(|&d| d == 0));
    }

    #[test]
    fn mul_matches_repeated_add() {
        let x = s(0xabcdef);
        let mut acc = Scalar::ZERO;
        for _ in 0..37 {
            acc = acc.add(&x);
        }
        assert_eq!(x.mul(&s(37)), acc);
    }

    #[test]
    fn bits_iterator_msb_first() {
        let x = s(0b1011);
        let bits: Vec<bool> = x.bits_msb_first().collect();
        assert_eq!(bits.len(), 256);
        assert_eq!(&bits[252..], &[true, false, true, true]);
        assert!(bits[..252].iter().all(|&b| !b));
    }

    #[test]
    fn sub_wraps() {
        let r = Scalar::ZERO.sub(&Scalar::ONE);
        assert_eq!(r.add(&Scalar::ONE), Scalar::ZERO);
        // ℓ - 1 is even? ℓ is odd (low limb ends in 0xed), so ℓ-1 ends 0xec.
        assert_eq!(r.to_bytes()[0], 0xec);
    }
}
