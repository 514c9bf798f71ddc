//! Length-delimited framing for the TCP transport.
//!
//! TCP is a byte stream; the wire codec wants whole messages. Every
//! frame on a peer connection is:
//!
//! ```text
//! [u32 len (LE)] [u8 kind] [payload: len-1 bytes]
//! ```
//!
//! Kinds:
//!
//! * [`HELLO`] — the first frame of a connection, sent once and only by
//!   the side that dialled; payload is the dialer's advertised listen
//!   address (UTF-8, at most [`MAX_HELLO_ADDR`] bytes), which names the
//!   connection in the accepting side's connection table. Nothing
//!   answers it.
//! * [`GOSSIP`] — payload is one [`algorand_core::WireMessage`] encoding,
//!   exactly the bytes the simulator would put on a virtual link.
//! * [`STATUS`] — payload is the sender's tip round, a bare
//!   `u64` LE (see [`encode_status`]). Feeds [`algorand_core::Blocksync`]'s
//!   choice of catch-up server; everything else a node knows about
//!   itself is in the `metrics.txt` it rewrites beside its WAL.
//!
//! Any other kind drops the connection.
//!
//! The length bound is the transport's OOM defense: a malicious or
//! corrupt peer can make us read at most [`MAX_FRAME`] bytes before the
//! codec (with its own [`algorand_core::CatchupBatch`] byte bound)
//! passes judgement.

use std::io::{self, Read, Write};

/// One-way handshake frame carrying the dialer's advertised listen
/// address.
pub const HELLO: u8 = 1;
/// One encoded [`algorand_core::WireMessage`].
pub const GOSSIP: u8 = 2;
/// Tip-round announcement for blocksync server selection.
pub const STATUS: u8 = 3;
/// Longest advertised address a [`HELLO`] may carry. The accepting side
/// holds it for as long as the connection lives, so it is bounded.
pub const MAX_HELLO_ADDR: usize = 255;

/// Largest frame a peer can make us buffer (includes the kind byte).
pub const MAX_FRAME: usize = 32 << 20;

/// Encodes a [`STATUS`] payload: the tip round, `u64` LE.
pub fn encode_status(tip: u64) -> [u8; 8] {
    tip.to_le_bytes()
}

/// Decodes a [`STATUS`] payload; anything but exactly 8 bytes is
/// malformed.
pub fn decode_status(payload: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(payload.try_into().ok()?))
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates I/O failures; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(kind, payload)?)
}

/// Encodes one frame to bytes (for handing to a send queue whole).
///
/// # Errors
///
/// Rejects payloads over [`MAX_FRAME`].
pub fn encode_frame(kind: u8, payload: &[u8]) -> io::Result<Vec<u8>> {
    let len = payload.len() + 1;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds {MAX_FRAME}"),
        ));
    }
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    Ok(out)
}

/// Reads one frame, blocking until it is complete.
///
/// # Errors
///
/// Propagates I/O failures (including clean EOF as
/// [`io::ErrorKind::UnexpectedEof`]); rejects zero-length and oversized
/// frames so a garbage length prefix cannot trigger a huge allocation.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut header = [0u8; 4];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    let mut payload = vec![0u8; len - 1];
    r.read_exact(&mut payload)?;
    Ok((kind[0], payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, GOSSIP, b"hello gossip").unwrap();
        write_frame(&mut buf, STATUS, &7u64.to_le_bytes()).unwrap();
        let mut cur = Cursor::new(buf);
        let (k1, p1) = read_frame(&mut cur).unwrap();
        let (k2, p2) = read_frame(&mut cur).unwrap();
        assert_eq!((k1, p1.as_slice()), (GOSSIP, b"hello gossip".as_slice()));
        assert_eq!((k2, p2.as_slice()), (STATUS, 7u64.to_le_bytes().as_slice()));
        assert_eq!(
            read_frame(&mut cur).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_and_zero_lengths_rejected() {
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut Cursor::new(huge.to_vec())).is_err());
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut Cursor::new(zero.to_vec())).is_err());
    }

    #[test]
    fn status_roundtrips() {
        assert_eq!(decode_status(&encode_status(17)), Some(17));
        // Truncation and trailing garbage are both rejected.
        assert_eq!(decode_status(&encode_status(17)[..7]), None);
        assert_eq!(decode_status(&[0; 9]), None);
    }

    #[test]
    fn formats_nobody_deployed_are_decode_errors() {
        // A version-1 trace header is rejected by name, its missing
        // causal fields never defaulted.
        let v1 = "{\"trace\":\"algorand\",\"version\":1,\"seed\":3,\"schedule\":\"s\",\"events\":1,\"dropped\":0}\n\
                  {\"kind\":\"verify\",\"node\":2,\"round\":5,\"step\":1,\"label\":\"vote\",\"start\":10,\"end\":10,\"value\":0,\"ok\":true}\n";
        let err = algorand_obs::parse_jsonl(v1).unwrap_err();
        assert!(err.contains("unsupported trace version 1"), "{err}");
        // The same event line under a current header is still an error.
        let v2 = v1.replace("\"version\":1", "\"version\":2");
        assert!(algorand_obs::parse_jsonl(&v2)
            .unwrap_err()
            .contains("\"id\""));
    }
}
