//! Cryptographic sortition (§5 of the paper).
//!
//! Sortition selects a random, weight-proportional subset of users in a
//! private, non-interactive way. Each user evaluates a VRF on the public
//! round seed concatenated with a role; the pseudorandom output is mapped
//! through binomial CDF intervals to a count `j` of selected "sub-users"
//! (Algorithm 1). Anyone can verify the selection from the proof and the
//! user's public weight (Algorithm 2).
//!
//! Splitting money across Sybil identities does not change the selected
//! count in distribution, because
//! `Binomial(w₁,p) + Binomial(w₂,p) = Binomial(w₁+w₂,p)` — this is the
//! identity that makes weight-proportional sortition Sybil-resistant.
//!
//! # Examples
//!
//! ```
//! use algorand_crypto::Keypair;
//! use algorand_sortition::{select, verify, Role, SortitionParams};
//!
//! let keypair = Keypair::from_seed([1u8; 32]);
//! let seed = [9u8; 32];
//! let params = SortitionParams { tau: 20.0, total_weight: 100 };
//! let role = Role::Committee { round: 5, step: 2 };
//!
//! // The user holds 40 of the 100 currency units, so with τ = 20 an
//! // expected 8 of their sub-users are selected.
//! if let Some(sel) = select(&keypair, &seed, role, &params, 40) {
//!     let j = verify(&keypair.pk, &sel.proof, &seed, role, &params, 40).unwrap();
//!     assert_eq!(j, sel.j);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod binomial;
pub mod committee;

use algorand_crypto::vrf::{self, VrfOutput, VrfProof};
use algorand_crypto::{CryptoError, Keypair, PublicKey};

/// The role a user may be selected for (§5.1).
///
/// Distinct roles produce distinct VRF inputs, so the same seed selects
/// independent sets for block proposal and for each BA⋆ committee step.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Role {
    /// Selected to propose a block in `round` (§6).
    BlockProposer {
        /// The Algorand round.
        round: u64,
    },
    /// Selected to the BA⋆ committee for (`round`, `step`) (§7).
    Committee {
        /// The Algorand round.
        round: u64,
        /// The BA⋆ step number (the final step uses a reserved code).
        step: u32,
    },
    /// Selected to propose a fork during recovery (§8.2).
    ForkProposer {
        /// The recovery epoch (derived from loosely synchronized clocks).
        epoch: u64,
        /// Retry counter: recovery re-runs sortition with a re-hashed seed
        /// until consensus is achieved.
        attempt: u32,
    },
}

impl Role {
    /// Canonical byte encoding, concatenated with the seed as the VRF input.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        match self {
            Role::BlockProposer { round } => {
                out[0] = 1;
                out[4..12].copy_from_slice(&round.to_le_bytes());
            }
            Role::Committee { round, step } => {
                out[0] = 2;
                out[4..12].copy_from_slice(&round.to_le_bytes());
                out[12..16].copy_from_slice(&step.to_le_bytes());
            }
            Role::ForkProposer { epoch, attempt } => {
                out[0] = 3;
                out[4..12].copy_from_slice(&epoch.to_le_bytes());
                out[12..16].copy_from_slice(&attempt.to_le_bytes());
            }
        }
        out
    }
}

/// Parameters shared by selection and verification.
#[derive(Clone, Copy, Debug)]
pub struct SortitionParams {
    /// Expected number of selected sub-users for this role (τ).
    pub tau: f64,
    /// Total currency units in the system (W).
    pub total_weight: u64,
}

impl SortitionParams {
    /// The per-sub-user selection probability p = τ/W.
    pub fn p(&self) -> f64 {
        if self.total_weight == 0 {
            0.0
        } else {
            (self.tau / self.total_weight as f64).clamp(0.0, 1.0)
        }
    }
}

/// The result of a successful sortition: proof of selection plus the count.
#[derive(Clone, Debug)]
pub struct Selection {
    /// The VRF output (`hash` in Algorithm 1); also the source of
    /// block-proposal priorities and the common coin.
    pub vrf_output: VrfOutput,
    /// The VRF proof (π), gossiped so others can verify the selection.
    pub proof: VrfProof,
    /// How many of the user's sub-users were selected (j > 0).
    pub j: u64,
}

/// Builds the VRF input `seed || role`.
fn vrf_alpha(seed: &[u8; 32], role: Role) -> [u8; 48] {
    let mut alpha = [0u8; 48];
    alpha[..32].copy_from_slice(seed);
    alpha[32..].copy_from_slice(&role.to_bytes());
    alpha
}

/// Fractions closer than this to 0 or 1 select as if they sat this far in.
/// A sum of ~w·p masses from `B(0; w, p)` can end ~10⁻¹² short of 1, so
/// this keeps `j` inside Binomial(w, p)'s [10⁻¹², 1 − 10⁻¹²] quantiles
/// with room to spare; it moves one draw in 5·10⁹.
const TAIL: f64 = 1e-10;

/// A walk away from the mode stops once a mass falls below this share of
/// the mode's (or of the running total's): what lies beyond is negligible
/// against [`TAIL`].
const NEGLIGIBLE: f64 = 1e-20;

/// Maps a VRF output to the number of selected sub-users (Algorithm 1's
/// interval search).
///
/// Divides [0,1) into consecutive intervals `I_j` of the binomial CDF for
/// `Binomial(w, p)` and returns the `j` whose interval contains
/// `hash / 2^hashlen`, clamped to [`TAIL`, 1 − [`TAIL`]].
///
/// The masses are summed upward from `B(0; w, p)` by the multiplicative
/// recurrence. Once w·p passes ~700 that first mass underflows, and so
/// would every mass after it. Then the walk starts where the mass below
/// is negligible — found by walking down from the mode — and sums masses
/// relative to that start, scaling the target by their total. Either way
/// the walk ends inside the distribution's bulk, never at `w` by default.
pub fn sub_users_selected(output: &VrfOutput, w: u64, p: f64) -> u64 {
    if w == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return w;
    }
    let fraction = output.as_unit_fraction().clamp(TAIL, 1.0 - TAIL);
    let odds = p / (1.0 - p);
    // B(k+1) from B(k), in the order `BinomialPmfIter` multiplies.
    let next = |mass: f64, k: u64| mass * (odds * ((w - k) as f64) / ((k + 1) as f64));
    let at_zero = ((w as f64) * (1.0 - p).ln()).exp();
    let (mut j, mut mass, target) = if at_zero >= f64::MIN_POSITIVE {
        (0, at_zero, fraction)
    } else {
        let mode = (((w + 1) as f64 * p) as u64).min(w);
        let mut lo = mode;
        let mut rel = 1.0;
        while lo > 0 && rel >= NEGLIGIBLE {
            rel *= lo as f64 / ((w - lo + 1) as f64 * odds);
            lo -= 1;
        }
        let (mut k, mut m, mut total) = (lo, 1.0, 0.0);
        loop {
            total += m;
            if k == w || (k > mode && m < total * NEGLIGIBLE) {
                break;
            }
            m = next(m, k);
            k += 1;
        }
        (lo, 1.0, fraction * total)
    };
    let mut cumulative = 0.0f64;
    loop {
        cumulative += mass;
        if target < cumulative || j == w {
            return j;
        }
        mass = next(mass, j);
        j += 1;
    }
}

/// Runs cryptographic sortition (Algorithm 1).
///
/// Returns `None` when zero sub-users are selected — the common case for
/// any individual user, since only an expected τ out of W sub-users win.
/// The proof is built only for a selected user: the output alone decides
/// `j`.
pub fn select(
    keypair: &Keypair,
    seed: &[u8; 32],
    role: Role,
    params: &SortitionParams,
    weight: u64,
) -> Option<Selection> {
    let alpha = vrf_alpha(seed, role);
    let evaluation = vrf::evaluate(keypair, &alpha);
    let vrf_output = evaluation.output();
    let j = sub_users_selected(&vrf_output, weight, params.p());
    (j > 0).then(|| Selection {
        vrf_output,
        proof: evaluation.prove(),
        j,
    })
}

/// Verifies a sortition proof (Algorithm 2).
///
/// Returns the number of selected sub-users, or zero if the proof is valid
/// but the user was simply not selected.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidProof`] when the VRF proof itself does
/// not verify — such messages must be discarded, not counted as zero votes,
/// so callers can distinguish "not selected" from "forged".
pub fn verify(
    pk: &PublicKey,
    proof: &VrfProof,
    seed: &[u8; 32],
    role: Role,
    params: &SortitionParams,
    weight: u64,
) -> Result<u64, CryptoError> {
    verify_output(pk, proof, seed, role, params, weight).map(|(_, j)| j)
}

/// [`verify`], also handing back the VRF output the proof certifies: a
/// message that states its own sortition hash (votes feed it to the
/// common coin, proposals to their priority) must state this one.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidProof`] when the proof does not verify.
pub fn verify_output(
    pk: &PublicKey,
    proof: &VrfProof,
    seed: &[u8; 32],
    role: Role,
    params: &SortitionParams,
    weight: u64,
) -> Result<(VrfOutput, u64), CryptoError> {
    let output = vrf::verify(pk, &vrf_alpha(seed, role), proof)?;
    let j = sub_users_selected(&output, weight, params.p());
    Ok((output, j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_crypto::vrf::VrfOutput;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    const SEED: [u8; 32] = [42u8; 32];

    #[test]
    fn role_encodings_are_distinct() {
        let roles = [
            Role::BlockProposer { round: 1 },
            Role::BlockProposer { round: 2 },
            Role::Committee { round: 1, step: 1 },
            Role::Committee { round: 1, step: 2 },
            Role::Committee { round: 2, step: 1 },
            Role::ForkProposer {
                epoch: 1,
                attempt: 0,
            },
            Role::ForkProposer {
                epoch: 1,
                attempt: 1,
            },
        ];
        for (i, a) in roles.iter().enumerate() {
            for (j, b) in roles.iter().enumerate() {
                if i != j {
                    assert_ne!(a.to_bytes(), b.to_bytes(), "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn select_verify_roundtrip() {
        let keypair = kp(1);
        let params = SortitionParams {
            tau: 500.0,
            total_weight: 1000,
        };
        let role = Role::Committee { round: 3, step: 1 };
        // Weight 500 of 1000 with τ = 500 selects ~250 sub-users; the
        // probability of selecting zero is astronomically small.
        let sel = select(&keypair, &SEED, role, &params, 500).expect("selected");
        let j = verify(&keypair.pk, &sel.proof, &SEED, role, &params, 500).unwrap();
        assert_eq!(j, sel.j);
        assert!(sel.j > 0);
    }

    #[test]
    fn select_matches_proving_then_counting() {
        // The whole proof first, then Algorithm 1's count: what `select`
        // did before it learned to stop at the output.
        let reference = |kp: &Keypair, seed: &[u8; 32], role, params: &SortitionParams, w| {
            let (output, proof) = vrf::prove(kp, &vrf_alpha(seed, role));
            let j = sub_users_selected(&output, w, params.p());
            (j > 0).then(|| (output, proof.to_bytes(), j))
        };
        let keypairs: Vec<Keypair> = (0..8).map(|i| kp(100 + i)).collect();
        let mut rng = algorand_crypto::rng::Rng::seed_from_u64(0x5e1ec7);
        let (mut selected, mut unselected) = (0, 0);
        for draw in 0..300u64 {
            let keypair = &keypairs[draw as usize % keypairs.len()];
            let seed = rng.gen_bytes32();
            let role = match draw % 3 {
                0 => Role::BlockProposer { round: draw },
                1 => Role::Committee {
                    round: draw,
                    step: rng.gen_range_u64(12) as u32,
                },
                _ => Role::ForkProposer {
                    epoch: draw,
                    attempt: rng.gen_range_u64(3) as u32,
                },
            };
            let params = SortitionParams {
                tau: [2.0, 20.0, 200.0][rng.gen_range_usize(3)],
                total_weight: 1000,
            };
            let weight = rng.gen_range_u64(101);
            let got = select(keypair, &seed, role, &params, weight)
                .map(|sel| (sel.vrf_output, sel.proof.to_bytes(), sel.j));
            let want = reference(keypair, &seed, role, &params, weight);
            assert_eq!(got, want, "draw {draw}");
            if got.is_some() {
                selected += 1;
            } else {
                unselected += 1;
            }
        }
        assert!(
            selected > 50 && unselected > 50,
            "{selected} / {unselected}"
        );
    }

    #[test]
    fn zero_weight_never_selected() {
        let keypair = kp(2);
        let params = SortitionParams {
            tau: 100.0,
            total_weight: 100,
        };
        for round in 0..20 {
            let role = Role::BlockProposer { round };
            assert!(select(&keypair, &SEED, role, &params, 0).is_none());
        }
    }

    #[test]
    fn verify_rejects_proof_for_wrong_role() {
        let keypair = kp(3);
        let params = SortitionParams {
            tau: 500.0,
            total_weight: 1000,
        };
        let role_a = Role::Committee { round: 1, step: 1 };
        let role_b = Role::Committee { round: 1, step: 2 };
        let sel = select(&keypair, &SEED, role_a, &params, 500).expect("selected");
        assert!(verify(&keypair.pk, &sel.proof, &SEED, role_b, &params, 500).is_err());
    }

    #[test]
    fn verify_rejects_proof_for_wrong_seed() {
        let keypair = kp(4);
        let params = SortitionParams {
            tau: 500.0,
            total_weight: 1000,
        };
        let role = Role::Committee { round: 1, step: 1 };
        let sel = select(&keypair, &SEED, role, &params, 500).expect("selected");
        let other_seed = [43u8; 32];
        assert!(verify(&keypair.pk, &sel.proof, &other_seed, role, &params, 500).is_err());
    }

    #[test]
    fn selection_count_tracks_weight_proportionally() {
        // Sum selected sub-users across many users and rounds; the empirical
        // mean must be near τ and proportional to weight.
        let params = SortitionParams {
            tau: 50.0,
            total_weight: 1000,
        };
        let users: Vec<(Keypair, u64)> = (0..10u8)
            .map(|i| (kp(i + 10), if i < 5 { 150 } else { 50 }))
            .collect();
        let mut heavy = 0u64;
        let mut light = 0u64;
        for round in 0..40u64 {
            let role = Role::Committee { round, step: 1 };
            for (i, (keypair, w)) in users.iter().enumerate() {
                if let Some(sel) = select(keypair, &SEED, role, &params, *w) {
                    if i < 5 {
                        heavy += sel.j;
                    } else {
                        light += sel.j;
                    }
                }
            }
        }
        // Expected per round: heavy 5·150/1000·50 = 37.5, light 12.5; over
        // 40 rounds: 1500 vs 500. Allow wide tolerance.
        assert!(heavy > light * 2, "heavy={heavy} light={light}");
        let total = heavy + light;
        let expected = 40.0 * params.tau;
        assert!(
            (total as f64) > 0.7 * expected && (total as f64) < 1.3 * expected,
            "total={total} expected={expected}"
        );
    }

    #[test]
    fn sub_user_mapping_interval_boundaries() {
        // fraction < pmf(0) ⇒ j = 0; fraction just above ⇒ j ≥ 1.
        let w = 10u64;
        let p = 0.3;
        let pmf0 = binomial::binomial_pmf(0, w, p);
        let below = VrfOutput({
            let mut b = [0u8; 32];
            let x = ((pmf0 * 0.999) * (1u64 << 53) as f64) as u64;
            b[..8].copy_from_slice(&(x << 11).to_be_bytes());
            b
        });
        assert_eq!(sub_users_selected(&below, w, p), 0);
        let above = VrfOutput({
            let mut b = [0u8; 32];
            let x = ((pmf0 * 1.001) * (1u64 << 53) as f64) as u64;
            b[..8].copy_from_slice(&(x << 11).to_be_bytes());
            b
        });
        assert_eq!(sub_users_selected(&above, w, p), 1);
    }

    #[test]
    fn sub_user_mapping_saturates_at_weight() {
        // A fraction of ~1.0 maps to w, never beyond.
        let top = VrfOutput([0xff; 32]);
        assert_eq!(sub_users_selected(&top, 5, 0.5), 5);
    }

    /// Binomial(w, p)'s [10⁻¹², 1 − 10⁻¹²] quantiles, from log-space
    /// masses around the mode normalized by their own sum.
    fn bulk(w: u64, p: f64) -> (u64, u64) {
        let mode = (((w + 1) as f64 * p) as u64).min(w);
        let sd = (w as f64 * p * (1.0 - p)).sqrt();
        let reach = (40.0 * sd) as u64 + 50;
        let (lo, hi) = (mode.saturating_sub(reach), (mode + reach).min(w));
        let ln_mass =
            |k| binomial::ln_choose(w, k) + k as f64 * p.ln() + (w - k) as f64 * (1.0 - p).ln();
        let peak = ln_mass(mode);
        let masses: Vec<f64> = (lo..=hi).map(|k| (ln_mass(k) - peak).exp()).collect();
        let total: f64 = masses.iter().sum();
        let mut cdf = 0.0;
        let (mut q_lo, mut q_hi) = (None, None);
        for (k, m) in (lo..).zip(&masses) {
            cdf += m / total;
            if cdf >= 1e-12 {
                q_lo.get_or_insert(k);
            }
            if cdf >= 1.0 - 1e-12 {
                q_hi.get_or_insert(k);
            }
        }
        (q_lo.expect("the bulk"), q_hi.unwrap_or(hi))
    }

    fn output_at(x: u64) -> VrfOutput {
        let mut b = [0u8; 32];
        b[..8].copy_from_slice(&x.to_be_bytes());
        VrfOutput(b)
    }

    /// The five outputs of the large-holder regression table: every byte
    /// 0x00, 0x40, 0x80, 0xC0 or 0xFF.
    const TABLE_BYTES: [u8; 5] = [0x00, 0x40, 0x80, 0xC0, 0xFF];

    #[test]
    fn a_large_holder_draws_from_the_bulk_of_its_binomial() {
        // W = 10⁷: τ = 2,000 at 36% and 40%, τ = 10,000 at 5% and 8%.
        // Before the fix the 40% and 8% holders got every sub-user for
        // every output, and the 5% holder got all 500,000 at 0xFF.
        let total = 10_000_000u64;
        for (tau, share, want_middle) in [
            (2_000.0, 0.36, Some([702, 720, 738])),
            (2_000.0, 0.40, None),
            (10_000.0, 0.05, Some([485, 500, 515])),
            (10_000.0, 0.08, None),
        ] {
            let w = (share * total as f64) as u64;
            let p = tau / total as f64;
            let (q_lo, q_hi) = bulk(w, p);
            let js: Vec<u64> = TABLE_BYTES
                .iter()
                .map(|&b| sub_users_selected(&VrfOutput([b; 32]), w, p))
                .collect();
            for &j in &js {
                assert!(
                    (q_lo..=q_hi).contains(&j),
                    "τ={tau} share={share}: {js:?} [{q_lo}, {q_hi}]"
                );
            }
            assert!(js.windows(2).all(|p| p[0] <= p[1]), "{js:?}");
            if let Some(middle) = want_middle {
                // Where the old walk neither underflowed nor ran off its
                // end, the answer is unchanged.
                assert_eq!(js[1..4], middle, "τ={tau} share={share}");
            }
        }
    }

    #[test]
    fn j_is_monotone_and_inside_the_bulk_for_any_share() {
        let total = 10_000_000u64;
        for tau in [20.0, 2_000.0, 10_000.0, 100_000.0] {
            for share in [1e-6, 0.01, 0.074, 0.2, 0.37, 0.5, 0.9, 1.0] {
                let w = (share * total as f64) as u64;
                let p = tau / total as f64;
                let (q_lo, q_hi) = bulk(w, p);
                let mut last = 0;
                for i in 0..=256u64 {
                    let j = sub_users_selected(&output_at(u64::MAX / 256 * i), w, p);
                    assert!(j >= last, "τ={tau} share={share}: not monotone at {i}");
                    assert!(
                        (q_lo..=q_hi).contains(&j),
                        "τ={tau} share={share}: j={j} outside [{q_lo}, {q_hi}]"
                    );
                    last = j;
                }
            }
        }
    }

    #[test]
    fn whale_can_be_selected_multiple_times() {
        // A user holding most of the money is chosen as several sub-users
        // (§5.1's j parameter).
        let keypair = kp(30);
        let params = SortitionParams {
            tau: 20.0,
            total_weight: 100,
        };
        let mut saw_multi = false;
        for round in 0..30 {
            let role = Role::Committee { round, step: 1 };
            if let Some(sel) = select(&keypair, &SEED, role, &params, 90) {
                if sel.j > 1 {
                    saw_multi = true;
                }
            }
        }
        assert!(
            saw_multi,
            "a 90% holder should often win multiple sub-users"
        );
    }

    #[test]
    fn sybil_splitting_gains_nothing_on_average() {
        // One 400-unit user vs the same 400 units split across 8 Sybils:
        // the mean number of selected sub-users must match (§5.1).
        let params = SortitionParams {
            tau: 40.0,
            total_weight: 1000,
        };
        let whole = kp(40);
        let sybils: Vec<Keypair> = (0..8u8).map(|i| kp(50 + i)).collect();
        let mut whole_total = 0u64;
        let mut sybil_total = 0u64;
        let rounds = 60u64;
        for round in 0..rounds {
            let role = Role::Committee { round, step: 2 };
            if let Some(sel) = select(&whole, &SEED, role, &params, 400) {
                whole_total += sel.j;
            }
            for s in &sybils {
                if let Some(sel) = select(s, &SEED, role, &params, 50) {
                    sybil_total += sel.j;
                }
            }
        }
        // Both have expectation 40·(400/1000) = 16/round → 960 over 60
        // rounds; σ ≈ √960 ≈ 31. Allow ±5σ-ish.
        let expected = 16.0 * rounds as f64;
        for (name, total) in [("whole", whole_total), ("sybil", sybil_total)] {
            assert!(
                (total as f64 - expected).abs() < 160.0,
                "{name} total={total} expected={expected}"
            );
        }
    }
}
