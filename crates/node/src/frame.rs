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
//! * [`HELLO`] — first frame on every connection; payload is the
//!   sender's advertised listen address (UTF-8), so an *inbound*
//!   connection can be associated with a dialable address for peer
//!   exchange.
//! * [`GOSSIP`] — payload is one [`algorand_core::WireMessage`] encoding,
//!   exactly the bytes the simulator would put on a virtual link.
//! * [`PEERS`] — payload is a list of listen addresses
//!   (`u32 count`, then length-prefixed UTF-8 strings): gossip-learned
//!   peer exchange, §4's relay discovery stand-in.
//! * [`STATUS`] — payload is the sender's tip round, a bare
//!   `u64` LE (see [`encode_status`]). Feeds [`algorand_core::Blocksync`]'s
//!   choice of catch-up server; everything else a node knows about
//!   itself is in its metrics exposition.
//! * [`TELEMETRY`] — an on-demand scrape channel. The payload's first
//!   byte is an op code ([`TEL_METRICS_REQ`] … [`TEL_THROTTLED`]); the
//!   rest is the body (a drain cursor or empty for requests, the metrics
//!   exposition text or a trace chunk for responses). Telemetry frames are
//!   deliberately *excluded* from the transport's frame/byte counters so
//!   that scraping a node never perturbs the numbers being scraped.
//!
//! The length bound is the transport's OOM defense: a malicious or
//! corrupt peer can make us read at most [`MAX_FRAME`] bytes before the
//! codec (with its own [`algorand_core::CatchupBatch`] byte bound)
//! passes judgement.

use std::io::{self, Read, Write};

/// Handshake frame carrying the sender's advertised listen address.
pub const HELLO: u8 = 1;
/// One encoded [`algorand_core::WireMessage`].
pub const GOSSIP: u8 = 2;
/// Peer-exchange frame listing known listen addresses.
pub const PEERS: u8 = 3;
/// Tip-round announcement for blocksync server selection.
pub const STATUS: u8 = 4;
/// On-demand telemetry scrape (op byte + body; see [`TEL_METRICS_REQ`]).
pub const TELEMETRY: u8 = 5;

/// [`TELEMETRY`] op: request the metrics exposition text.
pub const TEL_METRICS_REQ: u8 = 1;
/// [`TELEMETRY`] op: response body is the exposition text.
pub const TEL_METRICS_RESP: u8 = 2;
/// [`TELEMETRY`] op: drain the node's bounded trace buffer from a
/// cursor. Body is a `u64` LE buffer index (see [`encode_trace_req`]);
/// an empty body means cursor 0. The buffer keeps the *first* N events
/// in stable order, so the cursor is resumable: re-requesting an old
/// cursor returns the same events, and requesting `next_cursor` from the
/// previous response continues the drain without gaps.
pub const TEL_TRACE_REQ: u8 = 5;
/// [`TELEMETRY`] op: trace-drain response. Body is
/// `u64 next_cursor | u64 total | trace JSONL chunk` (see
/// [`encode_trace_resp`]); the chunk is a complete, independently
/// parseable trace document whose events are buffer indices
/// `[cursor, next_cursor)`. `next_cursor == total` means the drain has
/// caught up with everything recorded so far.
pub const TEL_TRACE_RESP: u8 = 6;
/// [`TELEMETRY`] op: error response when a connection exceeds its
/// telemetry token bucket. Body is empty. Clients should back off;
/// opening a new connection gets a fresh bucket.
pub const TEL_THROTTLED: u8 = 7;

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

/// Encodes a [`TEL_TRACE_REQ`] body: the drain cursor, LE.
pub fn encode_trace_req(cursor: u64) -> Vec<u8> {
    cursor.to_le_bytes().to_vec()
}

/// Decodes a [`TEL_TRACE_REQ`] body. Empty means cursor 0; anything
/// other than exactly 8 bytes is malformed.
pub fn decode_trace_req(body: &[u8]) -> Option<u64> {
    if body.is_empty() {
        return Some(0);
    }
    Some(u64::from_le_bytes(body.try_into().ok()?))
}

/// Encodes a [`TEL_TRACE_RESP`] body:
/// `u64 next_cursor | u64 total | trace JSONL chunk`.
pub fn encode_trace_resp(next_cursor: u64, total: u64, jsonl: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + jsonl.len());
    out.extend_from_slice(&next_cursor.to_le_bytes());
    out.extend_from_slice(&total.to_le_bytes());
    out.extend_from_slice(jsonl.as_bytes());
    out
}

/// Decodes a [`TEL_TRACE_RESP`] body into
/// `(next_cursor, total, jsonl chunk)`; `None` on malformation.
pub fn decode_trace_resp(body: &[u8]) -> Option<(u64, u64, &str)> {
    let next_cursor = u64::from_le_bytes(body.get(..8)?.try_into().ok()?);
    let total = u64::from_le_bytes(body.get(8..16)?.try_into().ok()?);
    let jsonl = std::str::from_utf8(body.get(16..)?).ok()?;
    Some((next_cursor, total, jsonl))
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

/// Encodes a [`PEERS`] payload.
pub fn encode_peers(addrs: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(addrs.len() as u32).to_le_bytes());
    for a in addrs {
        let b = a.as_bytes();
        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
        out.extend_from_slice(b);
    }
    out
}

/// Decodes a [`PEERS`] payload; `None` on any malformation.
pub fn decode_peers(payload: &[u8]) -> Option<Vec<String>> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
        let s = payload.get(*pos..*pos + n)?;
        *pos += n;
        Some(s)
    };
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
    if count > 1024 {
        return None; // Nobody honest advertises a thousand peers here.
    }
    let mut addrs = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        if len > 256 {
            return None;
        }
        let s = std::str::from_utf8(take(&mut pos, len)?).ok()?;
        addrs.push(s.to_string());
    }
    if pos != payload.len() {
        return None;
    }
    Some(addrs)
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

    #[test]
    fn trace_drain_bodies_roundtrip() {
        assert_eq!(decode_trace_req(&encode_trace_req(17)), Some(17));
        assert_eq!(decode_trace_req(&[]), Some(0));
        assert_eq!(decode_trace_req(&[1, 2, 3]), None);
        let body = encode_trace_resp(9, 40, "{\"trace\":\"algorand\"}\n");
        let (next, total, jsonl) = decode_trace_resp(&body).unwrap();
        assert_eq!((next, total), (9, 40));
        assert!(jsonl.starts_with("{\"trace\""));
        assert!(decode_trace_resp(&body[..15]).is_none());
        // Non-UTF-8 chunk bytes are malformed.
        let mut bad = encode_trace_resp(0, 0, "");
        bad.push(0xFF);
        assert!(decode_trace_resp(&bad).is_none());
    }

    #[test]
    fn peers_roundtrip_and_reject_garbage() {
        let addrs = vec!["127.0.0.1:9000".to_string(), "10.0.0.2:4160".to_string()];
        let enc = encode_peers(&addrs);
        assert_eq!(decode_peers(&enc).unwrap(), addrs);
        assert!(decode_peers(&enc[..enc.len() - 1]).is_none());
        assert!(decode_peers(&[0xFF; 4]).is_none());
    }
}
