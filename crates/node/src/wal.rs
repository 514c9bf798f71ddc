//! Write-ahead log of the node's final rounds, with crash recovery.
//!
//! The log keeps one fact: the finalized prefix of the chain,
//! [`algorand_core::Node::final_rounds`]. Round r is appended once, as
//! one `(block, certificate)` entry record, when it becomes final, and is
//! never rewritten: a final round is never replaced (§8.2), so the log
//! needs no rollback record, and a tentative round that a reorg may still
//! displace is never written. Each record is guarded by a CRC so a
//! `kill -9` mid-write — the torn tail every append-only log must
//! survive — is detected and truncated away rather than misread.
//!
//! On-disk framing, all integers little-endian via the repo codec:
//!
//! ```text
//! record   := [u32 payload_len][u32 crc32(payload)][payload]
//! payload  := 0x01  u64 round  block  certificate     (entry)
//!           | 0x02  bytes                             (skipped)
//! ```
//!
//! A payload longer than one transport frame ([`MAX_FRAME`]) is a corrupt
//! length: an entry must fit one catch-up frame. Replay judges only the
//! framing and the round numbers: it splices the `(block, certificate)`
//! bytes of rounds 1, 2, … in order into one buffer for
//! [`algorand_core::Node::restore`], which decodes and re-validates every
//! certificate and finalizes what applies — so WAL corruption can shorten
//! the recovered chain but never forge it.

use crate::frame::MAX_FRAME;
use algorand_ba::Certificate;
use algorand_core::catchup::encode_entry;
use algorand_crypto::codec::WriteExt;
use algorand_ledger::Block;
use algorand_obs::{Counter, HistHandle, Registry};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Record kind of a round's entry.
pub const KIND_ENTRY: u8 = 1;
const KIND_CHECKPOINT: u8 = 2;

/// Byte length of the entry-payload prefix (kind byte + `u64` round)
/// that precedes the spliceable `(block, certificate)` bytes.
const ENTRY_PREFIX: usize = 9;

/// What a [`Wal::open`] replay recovered.
#[derive(Debug)]
pub struct WalReplay {
    /// The `(block, certificate)` bytes of rounds `1..=tip`, in order:
    /// what [`algorand_core::Node::restore`] takes.
    pub chain: Vec<u8>,
    /// Highest consecutive round the log carries.
    pub tip: u64,
    /// Intact entry records seen, whatever their round.
    pub entries: usize,
    /// Bytes of torn/corrupt tail discarded by truncation.
    pub truncated_bytes: u64,
}

/// Registry-backed durability metrics: append/fsync timings and the
/// entry count. Attach with [`Wal::set_metrics`]; a bare [`Wal`] (tests,
/// tools) records nothing.
pub struct WalMetrics {
    entries: Counter,
    append_us: HistHandle,
    fsync_us: HistHandle,
}

impl WalMetrics {
    /// Registers the WAL's metric set into `registry`.
    pub fn new(registry: &Registry) -> WalMetrics {
        WalMetrics {
            entries: registry.counter("wal.entries"),
            append_us: registry.histogram("wal.append_us"),
            fsync_us: registry.histogram("wal.fsync_us"),
        }
    }
}

/// The intact records at the front of a log image, in order, as
/// `(kind, payload)`; the payload starts with its kind byte. Iteration
/// stops at the first torn, corrupt or unknown record; [`Records::end`]
/// is then where the intact prefix ends.
pub struct Records<'a> {
    bytes: &'a [u8],
    end: usize,
}

/// Reads the records of a log image (see [`Records`]).
pub fn records(bytes: &[u8]) -> Records<'_> {
    Records { bytes, end: 0 }
}

impl Records<'_> {
    /// Byte offset just past the last record yielded.
    pub fn end(&self) -> usize {
        self.end
    }
}

impl<'a> Iterator for Records<'a> {
    type Item = (u8, &'a [u8]);

    fn next(&mut self) -> Option<(u8, &'a [u8])> {
        let rest = &self.bytes[self.end..];
        if rest.len() < 8 {
            return None; // Torn or absent header.
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME || rest.len() - 8 < len {
            return None; // Corrupt length or torn payload.
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            return None; // Bit rot or torn write.
        }
        match payload[0] {
            KIND_ENTRY if len > ENTRY_PREFIX => {}
            KIND_CHECKPOINT => {}
            _ => return None, // Unknown kind: treat as corruption.
        }
        self.end += 8 + len;
        Some((payload[0], payload))
    }
}

/// An open write-ahead log positioned for appending.
pub struct Wal {
    file: File,
    path: PathBuf,
    metrics: Option<WalMetrics>,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays it, and
    /// truncates any torn tail so the file ends on a record boundary.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; corruption is not an error, it just
    /// bounds what the replay recovers.
    pub fn open(path: &Path) -> io::Result<(Wal, WalReplay)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut replay = WalReplay {
            chain: Vec::new(),
            tip: 0,
            entries: 0,
            truncated_bytes: 0,
        };
        let mut intact = records(&bytes);
        for (kind, payload) in intact.by_ref() {
            if kind != KIND_ENTRY {
                continue;
            }
            replay.entries += 1;
            let round = u64::from_le_bytes(payload[1..ENTRY_PREFIX].try_into().expect("8 bytes"));
            // A stale or gapped round is skipped: restore can use only
            // consecutive history.
            if round == replay.tip + 1 {
                replay.chain.extend_from_slice(&payload[ENTRY_PREFIX..]);
                replay.tip = round;
            }
        }
        let valid_end = intact.end();

        if valid_end < bytes.len() {
            replay.truncated_bytes = (bytes.len() - valid_end) as u64;
            file.set_len(valid_end as u64)?;
        }
        file.seek(SeekFrom::Start(valid_end as u64))?;

        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                metrics: None,
            },
            replay,
        ))
    }

    /// Attaches durability metrics; subsequent appends are timed.
    pub fn set_metrics(&mut self, metrics: WalMetrics) {
        self.metrics = Some(metrics);
    }

    /// Appends one final round and syncs it to disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; refuses an entry over [`MAX_FRAME`],
    /// which replay could not read back.
    pub fn append_entry(
        &mut self,
        round: u64,
        block: &Block,
        cert: &Certificate,
    ) -> io::Result<()> {
        let started = Instant::now();
        let mut payload = Vec::new();
        payload.put_u8(KIND_ENTRY);
        payload.put_u64(round);
        encode_entry(block, cert, &mut payload);
        self.append_record(&payload)?;
        if let Some(m) = &self.metrics {
            m.entries.inc();
            m.append_us.record(started.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// Appends a kind-2 record, which replay skips. The node never
    /// writes one: this exists only for `benchmark/`'s
    /// `wal_tail_sees_each_round_once_and_skips_checkpoints`, and the
    /// benchmark's model PR (ROADMAP item 5) deletes both.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn append_checkpoint(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut payload = Vec::with_capacity(1 + bytes.len());
        payload.put_u8(KIND_CHECKPOINT);
        payload.extend_from_slice(bytes);
        self.append_record(&payload)
    }

    fn append_record(&mut self, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "WAL record over MAX_FRAME",
            ));
        }
        let mut rec = Vec::with_capacity(8 + payload.len());
        rec.put_u32(payload.len() as u32);
        rec.put_u32(crc32(payload));
        rec.extend_from_slice(payload);
        self.file.write_all(&rec)?;
        let fsync_started = Instant::now();
        self.file.sync_data()?;
        if let Some(m) = &self.metrics {
            m.fsync_us
                .record(fsync_started.elapsed().as_micros() as u64);
        }
        Ok(())
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current log size in bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn len_bytes(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the ubiquitous
/// zlib/ethernet checksum, table-driven.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use algorand_ba::StepKind;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "algorand-wal-test-{}-{name}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn pair(round: u64) -> (Block, Certificate) {
        let block = Block::empty(round, [round as u8; 32], &[0x11; 32]);
        let cert = Certificate {
            round,
            step: StepKind::Final,
            value: block.hash(),
            votes: Vec::new(),
        };
        (block, cert)
    }

    /// The bytes replay should hand `Node::restore` for rounds `1..=tip`
    /// of the test chain.
    fn expected_chain(tip: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for r in 1..=tip {
            let (b, c) = pair(r);
            encode_entry(&b, &c, &mut out);
        }
        out
    }

    /// Writes rounds `1..=tip` and returns each record's start offset,
    /// plus the end of the log.
    fn write_rounds(path: &Path, tip: u64) -> Vec<u64> {
        let (mut wal, _) = Wal::open(path).unwrap();
        let mut starts = vec![0];
        for r in 1..=tip {
            let (b, c) = pair(r);
            wal.append_entry(r, &b, &c).unwrap();
            starts.push(wal.len_bytes().unwrap());
        }
        starts
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn entries_replay_into_the_chain_bytes() {
        let path = tmp("entries");
        assert_eq!(Wal::open(&path).unwrap().1.tip, 0);
        write_rounds(&path, 3);
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.tip, 3);
        assert_eq!(replay.entries, 3);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.chain, expected_chain(3));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kind_two_records_are_skipped() {
        let path = tmp("skip");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for r in 1..=2 {
                let (b, c) = pair(r);
                wal.append_entry(r, &b, &c).unwrap();
                wal.append_checkpoint(&[1, 2, 3]).unwrap();
            }
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.tip, 2);
        assert_eq!(replay.entries, 2);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.chain, expected_chain(2));
        std::fs::remove_file(&path).unwrap();
    }

    /// A record whose length is `len`, whose CRC is right, and whose
    /// payload is an entry for `round` padded with zeros.
    fn entry_record_of_len(round: u64, len: usize) -> Vec<u8> {
        let mut payload = vec![0u8; len];
        payload[0] = KIND_ENTRY;
        payload[1..ENTRY_PREFIX].copy_from_slice(&round.to_le_bytes());
        let mut rec = Vec::with_capacity(8 + len);
        rec.put_u32(len as u32);
        rec.put_u32(crc32(&payload));
        rec.extend_from_slice(&payload);
        rec
    }

    #[test]
    fn damage_truncates_the_log_where_it_starts() {
        type Damage = fn(&mut Vec<u8>, &[u64]);
        // (what, damage to a three-round log, rounds that survive)
        let rows: [(&str, Damage, u64); 4] = [
            (
                "a kill -9 mid-append: a partial record at the tail",
                |bytes, _| bytes.extend_from_slice(&[0x40, 0, 0, 0, 0xAA, 0xBB]),
                3,
            ),
            (
                "a flipped payload bit in round 2",
                |bytes, starts| bytes[starts[1] as usize + 8 + 3] ^= 0x01,
                1,
            ),
            (
                "an intact record of an unknown kind",
                |bytes, _| {
                    let mut rec = entry_record_of_len(4, 64);
                    rec[8] = 9;
                    let crc = crc32(&rec[8..]);
                    rec[4..8].copy_from_slice(&crc.to_le_bytes());
                    bytes.extend_from_slice(&rec);
                },
                3,
            ),
            (
                "a length of MAX_FRAME + 1, CRC and payload intact",
                |bytes, _| bytes.extend_from_slice(&entry_record_of_len(4, MAX_FRAME + 1)),
                3,
            ),
        ];
        for (what, damage, survive) in rows {
            let path = tmp("damage");
            let starts = write_rounds(&path, 3);
            let mut bytes = std::fs::read(&path).unwrap();
            damage(&mut bytes, &starts);
            std::fs::write(&path, &bytes).unwrap();

            let (wal, replay) = Wal::open(&path).unwrap();
            assert_eq!(replay.tip, survive, "{what}");
            assert_eq!(replay.chain, expected_chain(survive), "{what}");
            let kept = starts[survive as usize];
            assert_eq!(wal.len_bytes().unwrap(), kept, "{what}");
            assert_eq!(replay.truncated_bytes, bytes.len() as u64 - kept, "{what}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn appending_after_truncated_reopen_stays_consistent() {
        let path = tmp("reopen");
        write_rounds(&path, 1);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xFF; 11]).unwrap();
        drop(f);
        {
            let (mut wal, replay) = Wal::open(&path).unwrap();
            assert_eq!(replay.tip, 1);
            let (b, c) = pair(2);
            wal.append_entry(2, &b, &c).unwrap();
        }
        let (_, replay) = Wal::open(&path).unwrap();
        assert_eq!(replay.tip, 2);
        assert_eq!(replay.chain, expected_chain(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_entry_replay_could_not_read_is_refused() {
        let path = tmp("oversize");
        let (mut wal, _) = Wal::open(&path).unwrap();
        let (mut block, cert) = pair(1);
        block.payload = vec![0; MAX_FRAME];
        assert!(wal.append_entry(1, &block, &cert).is_err());
        assert_eq!(wal.len_bytes().unwrap(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
