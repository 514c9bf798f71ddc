//! Cryptographic substrate for the Algorand reproduction.
//!
//! Everything here is implemented from scratch (no external cryptography
//! crates): SHA-256, the Curve25519 base field, the edwards25519 group,
//! scalar arithmetic modulo the group order, deterministic Schnorr
//! signatures, and an ECVRF-style verifiable random function — the
//! primitives §5 and §9 of the paper build on.
//!
//! # Quick start
//!
//! ```
//! use algorand_crypto::{Keypair, sig, vrf};
//!
//! let keypair = Keypair::from_seed([7u8; 32]);
//!
//! // Sign and verify a message (every gossip message in Algorand is signed).
//! let s = sig::sign(&keypair, b"vote");
//! assert!(sig::verify(&keypair.pk, b"vote", &s).is_ok());
//!
//! // Evaluate the VRF (the basis of cryptographic sortition).
//! let (output, proof) = vrf::prove(&keypair, b"seed||role");
//! assert_eq!(vrf::verify(&keypair.pk, b"seed||role", &proof).unwrap(), output);
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod edwards;
pub mod error;
pub mod field;
pub mod rng;
pub mod scalar;
pub mod sha256;
pub mod sig;
pub mod vrf;

pub use error::CryptoError;
pub use sha256::{sha256, sha256_concat, Digest};
pub use sig::{Keypair, PublicKey, SecretKey, Signature};
pub use vrf::{VrfOutput, VrfProof};
