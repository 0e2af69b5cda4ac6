//! The one binary container behind response checkpoints (`.qfrc`) and shard
//! spills (`.qfrs`): magic (4 bytes), version `u32`, fingerprint `u64`, the
//! file kind's geometry words (`u64` each), one `u64` length per block, then
//! the blocks, all little-endian.
//!
//! The reader states the header it expects, so [`Container::open`] reads
//! only the header and length table: magic, version, fingerprint and
//! geometry must match, and header plus Σ lengths must equal the file
//! length, else a typed [`CheckpointError`]. [`Container::read_block`] seeks
//! straight to one block and [`Container::read_at`] to a byte range of one;
//! what a block holds, and what an empty one means, is the file kind's
//! business. Writes are atomic: a pid+sequence temp file beside the target
//! is written, fsynced and renamed over it, and a drop guard removes it on
//! any failure exit, panics included. The directory is then fsynced best
//! effort: the rename has already committed the file, so a failed
//! directory sync is not a failed write.

use crate::checkpoint::CheckpointError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-process temp-file sequence number: together with the pid it makes
/// concurrent savers targeting the same path collision-free.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Every header field of one file, as the writer stores it and the reader
/// expects it.
pub(crate) struct Header {
    pub(crate) magic: &'static [u8; 4],
    pub(crate) version: u32,
    pub(crate) fingerprint: u64,
    /// The file kind's geometry words.
    pub(crate) words: Vec<u64>,
    pub(crate) n_blocks: usize,
}

impl Header {
    /// Bytes before the first block.
    fn len(&self) -> u64 {
        16 + 8 * (self.words.len() + self.n_blocks) as u64
    }
}

fn format_error<T>(why: impl Into<String>) -> Result<T, CheckpointError> {
    Err(CheckpointError::Format(why.into()))
}

/// Writes `header` and its blocks to `path` atomically, block `i` appended
/// to the body by `put(i, body)`. Returns the file length; an error from
/// `put` writes nothing.
pub(crate) fn write(
    path: &Path,
    header: &Header,
    mut put: impl FnMut(usize, &mut BytesMut) -> Result<(), CheckpointError>,
) -> Result<u64, CheckpointError> {
    let mut head = BytesMut::with_capacity(header.len() as usize);
    head.put_slice(header.magic);
    head.put_u32_le(header.version);
    head.put_u64_le(header.fingerprint);
    for &word in &header.words {
        head.put_u64_le(word);
    }
    let mut body = BytesMut::new();
    for i in 0..header.n_blocks {
        let start = body.len();
        put(i, &mut body)?;
        head.put_u64_le((body.len() - start) as u64);
    }
    atomic_write(path, &[&head, &body])?;
    Ok((head.len() + body.len()) as u64)
}

/// An open file whose header and length table matched.
pub(crate) struct Container {
    file: Mutex<File>,
    /// Byte offset of each block, then the file length.
    offsets: Vec<u64>,
}

impl Container {
    /// Opens `path` and checks it against `expected`.
    pub(crate) fn open(path: &Path, expected: &Header) -> Result<Self, CheckpointError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let head_len = expected.len();
        let mut raw = vec![0u8; head_len.min(file_len) as usize];
        file.read_exact(&mut raw)?;
        let mut head = Bytes::from(raw);
        if head.remaining() < 16 {
            return format_error(format!("{file_len}-byte file has no header"));
        }
        let mut magic = [0u8; 4];
        head.copy_to_slice(&mut magic);
        if &magic != expected.magic {
            return format_error("bad magic");
        }
        let version = head.get_u32_le();
        if version != expected.version {
            return format_error(format!("unsupported version {version}"));
        }
        let found = head.get_u64_le();
        if found != expected.fingerprint {
            let expected = expected.fingerprint;
            return Err(CheckpointError::FingerprintMismatch { found, expected });
        }
        if file_len < head_len {
            return format_error(format!("{file_len}-byte file is shorter than its header"));
        }
        if expected.words.iter().any(|&word| head.get_u64_le() != word) {
            return format_error("geometry does not match");
        }
        let mut offsets = vec![head_len];
        for _ in 0..expected.n_blocks {
            let Some(end) = offsets[offsets.len() - 1].checked_add(head.get_u64_le()) else {
                return format_error("block lengths overflow");
            };
            offsets.push(end);
        }
        if offsets[expected.n_blocks] != file_len {
            return format_error(format!(
                "{file_len}-byte file, but its length table sums to {}",
                offsets[expected.n_blocks]
            ));
        }
        Ok(Self { file: Mutex::new(file), offsets })
    }

    /// Length of block `i` in bytes.
    pub(crate) fn block_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Reads block `i`.
    pub(crate) fn read_block(&self, i: usize) -> Result<Bytes, CheckpointError> {
        let mut raw = vec![0u8; self.block_len(i)];
        self.read_at(i, 0, &mut raw)?;
        Ok(Bytes::from(raw))
    }

    /// Fills `buf` with block `i`'s bytes from offset `at` on. The file
    /// lock is held for this one seek and read, so readers of different
    /// ranges interleave chunk by chunk.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the block.
    pub(crate) fn read_at(
        &self,
        i: usize,
        at: usize,
        buf: &mut [u8],
    ) -> Result<(), CheckpointError> {
        assert!(at + buf.len() <= self.block_len(i), "read past the end of block {i}");
        let mut file = self.file.lock().expect("container file poisoned");
        file.seek(SeekFrom::Start(self.offsets[i] + at as u64))?;
        file.read_exact(buf)?;
        Ok(())
    }
}

/// Removes the temp file on drop unless the rename committed it.
struct TmpGuard {
    tmp: PathBuf,
    committed: bool,
}

impl Drop for TmpGuard {
    fn drop(&mut self) {
        if !self.committed {
            std::fs::remove_file(&self.tmp).ok();
        }
    }
}

/// Atomically replaces `path` with the concatenated `parts`.
fn atomic_write(path: &Path, parts: &[&[u8]]) -> Result<(), CheckpointError> {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("container");
    let tmp = path.with_file_name(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    let mut guard = TmpGuard { tmp, committed: false };
    {
        let mut f = File::create(&guard.tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.sync_all()?;
    }
    std::fs::rename(&guard.tmp, path)?;
    guard.committed = true;
    // The rename is durable only once the directory entry is; the file is
    // committed either way, so callers see success and count it.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir).and_then(|d| d.sync_all()).ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(fingerprint: u64, n_blocks: usize) -> Header {
        Header { magic: b"TEST", version: 7, fingerprint, words: vec![3, 5], n_blocks }
    }

    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("qfr_container_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::remove_file(&path).ok();
        path
    }

    /// Block `i` holds `i % 3` copies of the byte `i`: every third block is
    /// empty.
    fn write_sample(path: &Path, fingerprint: u64) -> u64 {
        write(path, &header(fingerprint, 7), |i, body| {
            body.put_slice(&vec![i as u8; i % 3]);
            Ok(())
        })
        .unwrap()
    }

    fn open_err(path: &Path, expected: &Header) -> CheckpointError {
        Container::open(path, expected).err().expect("open must fail")
    }

    #[test]
    fn round_trip_with_empty_blocks() {
        let path = temp_file("round_trip");
        let len = write_sample(&path, 11);
        assert_eq!(len, std::fs::metadata(&path).unwrap().len());
        assert_eq!(len, 16 + 8 * (2 + 7) + (0..7).map(|i| i % 3).sum::<usize>() as u64);
        let file = Container::open(&path, &header(11, 7)).unwrap();
        // Read out of order: every block is one seek away.
        for i in (0..7).rev() {
            assert_eq!(file.block_len(i), i % 3, "block {i}");
            assert_eq!(file.read_block(i).unwrap().as_slice(), &vec![i as u8; i % 3][..]);
        }
        // A byte range reads the same bytes as the whole block holds there.
        let mut tail = [0u8; 1];
        file.read_at(5, 1, &mut tail).unwrap();
        assert_eq!(tail, [5]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_headers_are_typed_errors() {
        let path = temp_file("foreign");
        write_sample(&path, 11);
        let err = open_err(&path, &header(12, 7));
        assert!(matches!(err, CheckpointError::FingerprintMismatch { found: 11, expected: 12 }));
        for expected in [
            Header { magic: b"TSET", ..header(11, 7) },
            Header { version: 6, ..header(11, 7) },
            Header { words: vec![3, 6], ..header(11, 7) },
            header(11, 6),
        ] {
            let err = open_err(&path, &expected);
            assert!(matches!(err, CheckpointError::Format(_)), "{err}");
        }
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(open_err(&path, &header(11, 7)), CheckpointError::Format(_)));
        std::fs::remove_file(&path).ok();
    }

    /// Header plus Σ lengths must be the file length exactly: one byte
    /// missing or one byte appended is rejected before any block is read.
    #[test]
    fn file_one_byte_off_its_length_table_is_rejected() {
        let path = temp_file("off_by_one");
        write_sample(&path, 11);
        let bytes = std::fs::read(&path).unwrap();
        let mut longer = bytes.clone();
        longer.push(0);
        for (name, bad) in [("shorter", &bytes[..bytes.len() - 1]), ("longer", &longer[..])] {
            std::fs::write(&path, bad).unwrap();
            let err = open_err(&path, &header(11, 7));
            assert!(matches!(err, CheckpointError::Format(_)), "{name}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_put_writes_nothing() {
        let path = temp_file("failed_put");
        let err = write(&path, &header(11, 3), |i, _| match i {
            2 => Err(CheckpointError::Format("refused".into())),
            _ => Ok(()),
        });
        assert!(matches!(err, Err(CheckpointError::Format(_))));
        assert!(!path.exists());
    }

    /// A fixed `.tmp` suffix let two concurrent runs clobber each other's
    /// half-written temp file; the pid+sequence name may never repeat
    /// within a process either.
    #[test]
    fn temp_sequence_never_repeats() {
        let a = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let b = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        assert_ne!(a, b);
    }
}
