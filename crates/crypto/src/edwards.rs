//! The Curve25519 group in twisted Edwards form.
//!
//! The curve is −x² + y² = 1 + d·x²·y² over GF(2^255 − 19) with
//! d = −121665/121666, i.e. edwards25519. Points are held in extended
//! coordinates (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z, which
//! admit complete (exception-free) addition formulas for a = −1.
//!
//! The curve constants (d and the basepoint) are *derived in code* from
//! their defining equations — d from −121665/121666 and the basepoint from
//! y = 4/5 — rather than transcribed, so they cannot be mistyped; tests pin
//! the well-known compressed basepoint encoding.
//!
//! # Three shapes of one point
//!
//! An addition or doubling first produces four factors (a
//! `CompletedPoint`) and then multiplies them out: three products give
//! (X : Y : Z), a fourth gives T. Doubling never reads T, so inside a run
//! of doublings the fourth product is skipped (`ProjectivePoint`); an
//! addend that is used more than once is stored as
//! (Y+X, Y−X, Z, 2d·T) (`CachedPoint`), which is what the addition
//! formula reads. [`EdwardsPoint`] is the only shape callers see.
//!
//! # Two kinds of multiplication
//!
//! * [`EdwardsPoint::basepoint_mul`] and [`Comb::mul`] are the
//!   **secret-scalar** paths (key derivation and signing; VRF proving,
//!   which multiplies one point H twice, by the secret key and by the
//!   nonce, and so builds H's comb once), and serve public scalars too
//!   (below). Exactly what each does:
//!   `basepoint_mul` no doublings and one addition per non-zero nibble,
//!   so its addition count depends on the scalar; `Comb::mul` 63
//!   doublings and 64 additions whatever the scalar. Both read table
//!   entries the scalar's bits choose, so neither is hardened against an
//!   observer of cache lines. [`EdwardsPoint::scalar_mul`] (4-bit fixed
//!   windows) is the reference every faster routine is tested against,
//!   and it is not fixed-sequence either: it skips the leading zero
//!   windows and the addition of a zero nibble, so both its doubling and
//!   its addition counts depend on the scalar.
//! * [`EdwardsPoint::double_scalar_mul_basepoint`],
//!   [`EdwardsPoint::vartime_double_scalar_mul_sub`] and
//!   [`EdwardsPoint::is_torsion_free`] are **variable-time** and run only
//!   on public inputs — signatures, proofs and keys taken off the wire.
//!   All three are one routine: every scalar is recoded into a sparse
//!   signed-digit form (width-5 NAF: odd digits in ±1..±15, at most one
//!   in any five positions; width 8 for the basepoint), and a single run
//!   of at most 254 doublings serves every term, adding `±d·P` from a
//!   table of odd multiples wherever a digit is set. The eight odd
//!   multiples of a variable point are rebuilt per call (about 1 µs);
//!   the 64 odd multiples of B (10 KB) are built once per process.
//! * Verification under a public key takes `a·PK` off the key's
//!   [`Comb`] instead (63 doublings, not ~253) and adds `b·B` from
//!   `basepoint_mul`. The combs are kept one level up, in `sig`'s bounded
//!   table of proven keys: 2,560 bytes a key, built at its first
//!   verification, at most 8,192 of them (21 MB at worst;
//!   `sig::KEY_TABLE_MAX_BYTES` bounds the whole table).
//!   `double_scalar_mul_basepoint` is the reference that path is tested
//!   against.

use crate::field::FieldElement;
use crate::scalar::{Scalar, ORDER_NAF};
use std::sync::OnceLock;

/// A point on edwards25519 in extended twisted Edwards coordinates.
#[derive(Clone, Copy, Debug)]
pub struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// A point as (X : Y : Z), without the T coordinate.
struct ProjectivePoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

/// The factors of a sum or a double before they are multiplied out: the
/// point is (X·T : Y·Z : Z·T), and its T coordinate is X·Y.
struct CompletedPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// An addend in the form the addition formula reads: (Y+X, Y−X, Z, 2d·T).
#[derive(Clone, Copy)]
struct CachedPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    z: FieldElement,
    t2d: FieldElement,
}

/// The curve constant d = −121665/121666 mod p.
pub fn d() -> FieldElement {
    static D: OnceLock<FieldElement> = OnceLock::new();
    *D.get_or_init(|| {
        FieldElement::from_u64(121665)
            .neg()
            .mul(&FieldElement::from_u64(121666).invert())
    })
}

/// The curve constant 2d, used by the addition formulas.
fn d2() -> FieldElement {
    static D2: OnceLock<FieldElement> = OnceLock::new();
    *D2.get_or_init(|| d().add(&d()))
}

impl ProjectivePoint {
    /// Doubles the point (4 squarings; reads no T).
    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let yy_plus_xx = yy.add_lazy(&xx);
        let yy_minus_xx = yy.sub(&xx);
        CompletedPoint {
            x: self.x.add_lazy(&self.y).square().sub(&yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz.add_lazy(&zz).sub(&yy_minus_xx),
        }
    }
}

impl CompletedPoint {
    /// The identity, (0 : 1 : 1) once multiplied out.
    const IDENTITY: CompletedPoint = CompletedPoint {
        x: FieldElement::ZERO,
        y: FieldElement::ONE,
        z: FieldElement::ONE,
        t: FieldElement::ONE,
    };

    /// Multiplies out (X : Y : Z) only — enough for a doubling to follow.
    fn to_projective(&self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
        }
    }

    /// Multiplies out all four coordinates.
    fn to_extended(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
            t: self.x.mul(&self.y),
        }
    }
}

impl CachedPoint {
    fn neg(&self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }

    /// `start, start + step, start + 2·step, …` — with `step = start` the
    /// multiples 1·P..N·P, with `step = 2·start` the odd ones.
    fn multiples<const N: usize>(start: &EdwardsPoint, step: &EdwardsPoint) -> [CachedPoint; N] {
        let step = step.to_cached();
        let mut point = *start;
        let mut table = [start.to_cached(); N];
        for entry in table.iter_mut().skip(1) {
            point = point.add_cached(&step).to_extended();
            *entry = point.to_cached();
        }
        table
    }

    /// `digit·P` from a table of odd multiples P, 3P, 5P, … for an odd
    /// `digit` of either sign.
    fn odd_multiple(table: &[CachedPoint], digit: i8) -> CachedPoint {
        let entry = table[usize::from(digit.unsigned_abs() / 2)];
        if digit < 0 {
            entry.neg()
        } else {
            entry
        }
    }
}

/// Odd multiples B, 3B, …, 127B of the basepoint: every non-zero digit of
/// a width-8 NAF.
fn basepoint_odd_multiples() -> &'static [CachedPoint; 64] {
    static TABLE: OnceLock<[CachedPoint; 64]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let b = EdwardsPoint::basepoint();
        CachedPoint::multiples(&b, &b.double())
    })
}

/// A comb table of one point P: four teeth 64 bits apart, sixteen
/// entries (2,560 bytes), entry `j` = `Σ 2^(64·i)·P` over the set bits
/// `i` of `j`.
///
/// Tooth `i` sits on limb `i` of a scalar, so column `c` — bit `c` of
/// each of the four limbs — indexes an entry, a scalar `k` is
/// `Σ 2^c · column(c)`, and `k·P` is 63 doublings and one addition per
/// column. A fixed-window [`EdwardsPoint::scalar_mul`] is ~250 doublings
/// and ~78 additions; building the comb is 192 doublings and 11
/// additions, so it pays from the second product off one point on.
#[derive(Clone)]
pub struct Comb {
    entries: [CachedPoint; 16],
}

impl Comb {
    /// Builds the comb of `p`.
    pub fn new(p: &EdwardsPoint) -> Comb {
        let mut points = [EdwardsPoint::identity(); 16];
        let mut tooth = *p;
        for i in 0..4 {
            if i > 0 {
                tooth = tooth.mul_pow2(64);
            }
            let bit = 1 << i;
            let addend = tooth.to_cached();
            points[bit] = tooth;
            for j in 1..bit {
                points[bit | j] = points[j].add_cached(&addend).to_extended();
            }
        }
        Comb {
            entries: points.map(EdwardsPoint::to_cached),
        }
    }

    /// `k·P`: 63 doublings and 64 additions whatever `k` is (a zero
    /// column adds the identity, entry 0). Which entry an addition reads
    /// does depend on `k`.
    ///
    /// `k` is read as the integer in [0, ℓ), so the result is exact for
    /// any curve point P, in the prime-order subgroup or not.
    pub fn mul(&self, k: &Scalar) -> EdwardsPoint {
        let mut sum = CompletedPoint::IDENTITY;
        for col in (0..64).rev() {
            if col < 63 {
                sum = sum.to_projective().double();
            }
            let j = (0..4).fold(0, |j, i| j | ((k.0[i] >> col) & 1) << i);
            sum = sum.to_extended().add_cached(&self.entries[j as usize]);
        }
        sum.to_extended()
    }
}

/// Computes `Σ dᵢ·Pᵢ + e·B` from signed-digit expansions of the
/// multipliers (`Pᵢ` digits odd and within ±15, `B` digits within ±127),
/// in one interleaved pass: one doubling per digit position for all
/// terms together, one addition per non-zero digit.
///
/// Variable-time: which positions add depends on the digits.
fn vartime_multiscalar_mul<const N: usize>(
    terms: [(&[i8; 256], &EdwardsPoint); N],
    basepoint_digits: &[i8; 256],
) -> EdwardsPoint {
    let used = |i: &usize| basepoint_digits[*i] != 0 || terms.iter().any(|(d, _)| d[*i] != 0);
    let Some(top) = (0..256).rev().find(used) else {
        return EdwardsPoint::identity();
    };
    let tables = terms.map(|(_, p)| CachedPoint::multiples::<8>(p, &p.double()));
    let base_table = basepoint_odd_multiples();
    let mut sum = CompletedPoint::IDENTITY;
    for i in (0..=top).rev() {
        sum = sum.to_projective().double();
        for ((digits, _), table) in terms.iter().zip(&tables) {
            if digits[i] != 0 {
                let addend = CachedPoint::odd_multiple(table, digits[i]);
                sum = sum.to_extended().add_cached(&addend);
            }
        }
        if basepoint_digits[i] != 0 {
            let addend = CachedPoint::odd_multiple(base_table, basepoint_digits[i]);
            sum = sum.to_extended().add_cached(&addend);
        }
    }
    sum.to_extended()
}

impl EdwardsPoint {
    /// The identity element (0, 1).
    pub fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The standard basepoint, with y = 4/5 and x even.
    pub fn basepoint() -> EdwardsPoint {
        static B: OnceLock<EdwardsPoint> = OnceLock::new();
        *B.get_or_init(|| {
            let y = FieldElement::from_u64(4).mul(&FieldElement::from_u64(5).invert());
            let yy = y.square();
            let u = yy.sub(&FieldElement::ONE);
            let v = d().mul(&yy).add(&FieldElement::ONE);
            let x = FieldElement::sqrt_ratio(&u, &v).expect("basepoint x exists");
            // `sqrt_ratio` returns the even root, which is the standard
            // basepoint x-coordinate.
            EdwardsPoint::from_affine(x, y)
        })
    }

    /// Builds an extended point from affine coordinates without validation.
    fn from_affine(x: FieldElement, y: FieldElement) -> EdwardsPoint {
        EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(&y),
        }
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_cached(self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y.add_lazy(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&d2()),
        }
    }

    /// Adds a prepared addend (complete formula; valid for any pair of
    /// inputs).
    fn add_cached(&self, rhs: &CachedPoint) -> CompletedPoint {
        let pp = self.y.add_lazy(&self.x).mul(&rhs.y_plus_x);
        let mm = self.y.sub(&self.x).mul(&rhs.y_minus_x);
        let tt2d = self.t.mul(&rhs.t2d);
        let zz = self.z.mul(&rhs.z);
        let zz2 = zz.add_lazy(&zz);
        CompletedPoint {
            x: pp.sub(&mm),
            y: pp.add_lazy(&mm),
            z: zz2.add_lazy(&tt2d),
            t: zz2.sub(&tt2d),
        }
    }

    /// Adds two points (complete formula; valid for any pair of inputs).
    pub fn add(&self, rhs: &EdwardsPoint) -> EdwardsPoint {
        self.add_cached(&rhs.to_cached()).to_extended()
    }

    /// Doubles the point.
    pub fn double(&self) -> EdwardsPoint {
        self.mul_pow2(1)
    }

    /// Doubles the point `k ≥ 1` times; only the last doubling computes T.
    fn mul_pow2(&self, k: u32) -> EdwardsPoint {
        let mut doubled = self.to_projective().double();
        for _ in 1..k {
            doubled = doubled.to_projective().double();
        }
        doubled.to_extended()
    }

    /// Negates the point.
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Subtracts `rhs` from `self`.
    pub fn sub(&self, rhs: &EdwardsPoint) -> EdwardsPoint {
        self.add(&rhs.neg())
    }

    /// Multiplies the point by a scalar (4-bit fixed-window method).
    ///
    /// The reference every faster routine is tested against. Leading zero
    /// windows are skipped, and so is the addition of a zero nibble.
    pub fn scalar_mul(&self, k: &Scalar) -> EdwardsPoint {
        // table[j − 1] = j·P for j in 1..=15.
        let table = CachedPoint::multiples::<15>(self, self);
        let bytes = k.to_bytes();
        let mut acc = EdwardsPoint::identity();
        let mut started = false;
        for byte_idx in (0..32).rev() {
            for nibble_idx in [1u32, 0] {
                if started {
                    acc = acc.mul_pow2(4);
                }
                let nib = ((bytes[byte_idx] >> (4 * nibble_idx)) & 0x0f) as usize;
                if nib != 0 {
                    acc = acc.add_cached(&table[nib - 1]).to_extended();
                    started = true;
                }
            }
        }
        acc
    }

    /// Multiplies the basepoint by a scalar using a precomputed table.
    ///
    /// Signing, VRF proving and key derivation perform a basepoint
    /// multiplication; a radix-16 fixed-base table (64 windows × 15
    /// multiples, built once per process) replaces the 256 doublings of
    /// the generic ladder with 63 additions.
    pub fn basepoint_mul(k: &Scalar) -> EdwardsPoint {
        static TABLE: OnceLock<Vec<[CachedPoint; 15]>> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
            // window[i][j-1] = j · 16^i · B for j in 1..=15.
            let mut base = EdwardsPoint::basepoint();
            (0..64)
                .map(|_| {
                    let row = CachedPoint::multiples(&base, &base);
                    base = base.mul_pow2(4);
                    row
                })
                .collect()
        });
        let bytes = k.to_bytes();
        let mut acc = EdwardsPoint::identity();
        for (i, window) in table.iter().enumerate() {
            let byte = bytes[i / 2];
            let nib = if i % 2 == 0 { byte & 0x0f } else { byte >> 4 } as usize;
            if nib != 0 {
                acc = acc.add_cached(&window[nib - 1]).to_extended();
            }
        }
        acc
    }

    /// Computes `a·A + b·B` where B is the basepoint, in variable time.
    ///
    /// This is the verification workhorse: signature verification computes
    /// `s·B − c·PK` and VRF verification computes `s·B − c·Y`. `a` is
    /// taken as the integer in [0, ℓ), so the result is exact for any
    /// curve point `A`, in the prime-order subgroup or not.
    pub fn double_scalar_mul_basepoint(
        a: &Scalar,
        point_a: &EdwardsPoint,
        b: &Scalar,
    ) -> EdwardsPoint {
        vartime_multiscalar_mul(
            [(&a.non_adjacent_form(5), point_a)],
            &b.non_adjacent_form(8),
        )
    }

    /// Computes `a·A − b·C` for two arbitrary points, in variable time.
    ///
    /// VRF verification's `s·H − c·Γ`. Both scalars are taken as the
    /// integers in [0, ℓ) and `b`'s digits are negated, not `b` itself:
    /// Γ comes off the wire without a subgroup check, and for a point
    /// with a torsion component `(ℓ − b)·C` is not `−b·C`.
    pub fn vartime_double_scalar_mul_sub(
        a: &Scalar,
        point_a: &EdwardsPoint,
        b: &Scalar,
        point_c: &EdwardsPoint,
    ) -> EdwardsPoint {
        let minus_b = b.non_adjacent_form(5).map(|digit| -digit);
        vartime_multiscalar_mul(
            [(&a.non_adjacent_form(5), point_a), (&minus_b, point_c)],
            &[0; 256],
        )
    }

    /// Multiplies by the cofactor 8.
    pub fn mul_by_cofactor(&self) -> EdwardsPoint {
        self.mul_pow2(3)
    }

    /// Returns true if this is the identity element.
    pub fn is_identity(&self) -> bool {
        // Identity iff x = 0 and y = z (projectively).
        self.x.is_zero() && self.y.ct_eq(&self.z)
    }

    /// Returns true if the point lies in the prime-order subgroup.
    ///
    /// Variable-time; the point is public wherever this is asked (a key
    /// or a proof taken off the wire).
    pub fn is_torsion_free(&self) -> bool {
        // ℓ·P = identity iff P has order dividing ℓ. ℓ is not a `Scalar`
        // (it reduces to zero), so its digits are a constant.
        vartime_multiscalar_mul([(&ORDER_NAF, self)], &[0; 256]).is_identity()
    }

    /// Checks the curve equation −x² + y² = 1 + d·x²·y² in affine form.
    pub fn is_on_curve(&self) -> bool {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let x2 = x.square();
        let y2 = y.square();
        let lhs = y2.sub(&x2);
        let rhs = FieldElement::ONE.add(&d().mul(&x2).mul(&y2));
        lhs.ct_eq(&rhs)
    }

    /// Compresses to the 32-byte encoding: y with the sign of x in bit 255.
    pub fn compress(&self) -> [u8; 32] {
        self.compress_with(&self.z.invert())
    }

    /// Compresses several points for the price of one field inversion.
    pub fn compress_batch<const N: usize>(points: [&EdwardsPoint; N]) -> [[u8; 32]; N] {
        // Z is never zero: the addition law is complete.
        let mut zinv = points.map(|p| p.z);
        FieldElement::batch_invert(&mut zinv);
        let mut out = [[0u8; 32]; N];
        for ((bytes, point), zinv) in out.iter_mut().zip(points).zip(&zinv) {
            *bytes = point.compress_with(zinv);
        }
        out
    }

    fn compress_with(&self, zinv: &FieldElement) -> [u8; 32] {
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut bytes = y.to_bytes();
        bytes[31] |= (x.is_negative() as u8) << 7;
        bytes
    }

    /// Decompresses a 32-byte encoding, validating that it names a curve
    /// point.
    ///
    /// Returns `None` for encodings whose y is not on the curve or whose
    /// sign bit is inconsistent (x = 0 with the sign bit set).
    pub fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        let sign = bytes[31] >> 7 == 1;
        let y = FieldElement::from_bytes(bytes);
        let yy = y.square();
        let u = yy.sub(&FieldElement::ONE);
        let v = d().mul(&yy).add(&FieldElement::ONE);
        let mut x = FieldElement::sqrt_ratio(&u, &v)?;
        if x.is_zero() && sign {
            return None;
        }
        if sign {
            x = x.neg();
        }
        Some(EdwardsPoint::from_affine(x, y))
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        // Cross-multiplied projective equality.
        self.x.mul(&other.z).ct_eq(&other.x.mul(&self.z))
            && self.y.mul(&other.z).ct_eq(&other.y.mul(&self.z))
    }
}

impl Eq for EdwardsPoint {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basepoint_is_on_curve() {
        assert!(EdwardsPoint::basepoint().is_on_curve());
    }

    #[test]
    fn basepoint_compressed_encoding_is_standard() {
        // The well-known edwards25519 basepoint encoding: 0x58 followed by
        // thirty-one 0x66 bytes (y = 4/5, x even).
        let mut expected = [0x66u8; 32];
        expected[0] = 0x58;
        assert_eq!(EdwardsPoint::basepoint().compress(), expected);
    }

    #[test]
    fn basepoint_has_order_l() {
        // ℓ·B = identity, and B itself is not the identity.
        let b = EdwardsPoint::basepoint();
        assert!(!b.is_identity());
        assert!(b.is_torsion_free());
    }

    #[test]
    fn add_identity_is_noop() {
        let b = EdwardsPoint::basepoint();
        assert_eq!(b.add(&EdwardsPoint::identity()), b);
        assert_eq!(EdwardsPoint::identity().add(&b), b);
    }

    #[test]
    fn double_matches_add_self() {
        let b = EdwardsPoint::basepoint();
        assert_eq!(b.double(), b.add(&b));
        let b4 = b.double().double();
        assert_eq!(b4, b.add(&b).add(&b).add(&b));
        assert!(b4.is_on_curve());
    }

    #[test]
    fn neg_cancels() {
        let b = EdwardsPoint::basepoint();
        assert!(b.add(&b.neg()).is_identity());
        assert!(b.sub(&b).is_identity());
    }

    #[test]
    fn scalar_mul_small_values() {
        let b = EdwardsPoint::basepoint();
        assert!(b.scalar_mul(&Scalar::ZERO).is_identity());
        assert_eq!(b.scalar_mul(&Scalar::ONE), b);
        assert_eq!(b.scalar_mul(&Scalar::from_u64(2)), b.double());
        let mut acc = EdwardsPoint::identity();
        for _ in 0..100 {
            acc = acc.add(&b);
        }
        assert_eq!(b.scalar_mul(&Scalar::from_u64(100)), acc);
    }

    #[test]
    fn scalar_mul_is_homomorphic() {
        let b = EdwardsPoint::basepoint();
        let k1 = Scalar::from_u64(0x1234_5678_9abc_def0);
        let k2 = Scalar::from_u64(0xfeed_face_cafe_beef);
        let lhs = b.scalar_mul(&k1.add(&k2));
        let rhs = b.scalar_mul(&k1).add(&b.scalar_mul(&k2));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let b = EdwardsPoint::basepoint();
        for k in [1u64, 2, 3, 0xdeadbeef, 0xffff_ffff_ffff_ffff] {
            let p = b.scalar_mul(&Scalar::from_u64(k));
            let c = p.compress();
            let q = EdwardsPoint::decompress(&c).expect("valid encoding");
            assert_eq!(p, q, "k = {k}");
            assert_eq!(q.compress(), c);
        }
    }

    #[test]
    fn decompress_rejects_invalid() {
        // y = 2 does not correspond to a curve point for edwards25519.
        let mut bytes = [0u8; 32];
        bytes[0] = 2;
        assert!(EdwardsPoint::decompress(&bytes).is_none());
        // Identity with the sign bit set is a non-canonical/invalid encoding.
        let mut id = EdwardsPoint::identity().compress();
        id[31] |= 0x80;
        assert!(EdwardsPoint::decompress(&id).is_none());
    }

    #[test]
    fn double_scalar_mul_matches_separate() {
        let b = EdwardsPoint::basepoint();
        let p = b.scalar_mul(&Scalar::from_u64(7777));
        let a = Scalar::from_u64(31337);
        let c = Scalar::from_u64(271828);
        let combined = EdwardsPoint::double_scalar_mul_basepoint(&a, &p, &c);
        assert_eq!(combined, p.scalar_mul(&a).add(&b.scalar_mul(&c)));
    }

    #[test]
    fn basepoint_table_matches_generic_mul() {
        let b = EdwardsPoint::basepoint();
        for k in [0u64, 1, 2, 15, 16, 255, 0xdead_beef, u64::MAX] {
            let s = Scalar::from_u64(k);
            assert_eq!(EdwardsPoint::basepoint_mul(&s), b.scalar_mul(&s), "k = {k}");
        }
        // A full-width scalar exercises every window.
        let wide = Scalar::from_bytes_mod_order(&[0xa7u8; 32]);
        assert_eq!(EdwardsPoint::basepoint_mul(&wide), b.scalar_mul(&wide));
    }

    #[test]
    fn cofactor_mul_is_three_doublings() {
        let b = EdwardsPoint::basepoint();
        assert_eq!(b.mul_by_cofactor(), b.scalar_mul(&Scalar::from_u64(8)));
    }

    #[test]
    fn order_of_curve_points_after_cofactor_clearing() {
        // Any decompressed point times the cofactor lands in the prime-order
        // subgroup.
        let b = EdwardsPoint::basepoint();
        let p = b.scalar_mul(&Scalar::from_u64(12345)).mul_by_cofactor();
        assert!(p.is_torsion_free());
    }
}
