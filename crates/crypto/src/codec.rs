//! Canonical byte encoding shared by every serialized protocol type.
//!
//! Block and transaction hashes — and the gossip wire format — are defined
//! over these encodings, so they must be deterministic: fixed-width
//! little-endian integers, length-prefixed byte strings, no optional
//! framing ambiguity. The module lives at the bottom of the crate stack so
//! consensus messages (`algorand-ba`), ledger types (`algorand-ledger`),
//! and the node wire protocol (`algorand-core`) can all share it.

use crate::sig::{PublicKey, Signature};
use crate::vrf::{VrfProof, VRF_PROOF_LEN};

/// Errors from decoding a canonical byte stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEnd,
    /// A tag or length field had an invalid value.
    Invalid,
    /// Trailing bytes remained after the top-level value.
    TrailingBytes,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DecodeError::UnexpectedEnd => "unexpected end of input",
            DecodeError::Invalid => "invalid tag or length",
            DecodeError::TrailingBytes => "trailing bytes after value",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over bytes being decoded.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Bytes consumed so far — the offset of the next read. Transport
    /// layers report this alongside a [`DecodeError`] so a malformed
    /// frame is attributable to a position in the received bytes.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Fails unless the input was fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a fixed 32-byte array.
    pub fn bytes32(&mut self) -> Result<[u8; 32], DecodeError> {
        let b = self.take(32)?;
        let mut a = [0u8; 32];
        a.copy_from_slice(b);
        Ok(a)
    }

    /// Reads a fixed-length byte slice.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Reads a 32-byte public key, rejecting encodings that are not a
    /// valid key.
    pub fn public_key(&mut self) -> Result<PublicKey, DecodeError> {
        PublicKey::from_bytes(&self.bytes32()?).map_err(|_| DecodeError::Invalid)
    }

    /// Reads a 96-byte VRF proof.
    pub fn vrf_proof(&mut self) -> Result<VrfProof, DecodeError> {
        let b = self.take(VRF_PROOF_LEN)?.try_into().expect("length taken");
        VrfProof::from_bytes(b).map_err(|_| DecodeError::Invalid)
    }

    /// Reads a 64-byte signature.
    pub fn signature(&mut self) -> Result<Signature, DecodeError> {
        let b = self.take(64)?.try_into().expect("length taken");
        Signature::from_bytes(b).map_err(|_| DecodeError::Invalid)
    }

    /// Reads a u32-length-prefixed byte string, bounded by `max_len`.
    pub fn var_bytes(&mut self, max_len: usize) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        if len > max_len {
            return Err(DecodeError::Invalid);
        }
        self.take(len)
    }
}

/// Encoding helpers on the output buffer.
pub trait WriteExt {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian u32.
    fn put_u32(&mut self, v: u32);
    /// Appends a little-endian u64.
    fn put_u64(&mut self, v: u64);
    /// Appends raw bytes with no length prefix.
    fn put_bytes(&mut self, v: &[u8]);
    /// Appends a u32-length-prefixed byte string.
    fn put_var_bytes(&mut self, v: &[u8]);
}

impl WriteExt for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_bytes(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }

    fn put_var_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.extend_from_slice(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u32(0xdead_beef);
        buf.put_u64(0x0123_4567_89ab_cdef);
        buf.put_bytes(&[1, 2, 3]);
        buf.put_var_bytes(b"hello");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.var_bytes(16).unwrap(), b"hello");
        r.finish().unwrap();
    }

    #[test]
    fn short_input_errors() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn oversized_var_bytes_rejected() {
        let mut buf = Vec::new();
        buf.put_var_bytes(&[0u8; 100]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.var_bytes(50).unwrap_err(), DecodeError::Invalid);
    }

    #[test]
    fn trailing_bytes_detected() {
        let buf = vec![1u8, 2, 3];
        let mut r = Reader::new(&buf);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn bytes32_roundtrip() {
        let mut buf = Vec::new();
        buf.put_bytes(&[9u8; 32]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes32().unwrap(), [9u8; 32]);
        r.finish().unwrap();
    }
}
