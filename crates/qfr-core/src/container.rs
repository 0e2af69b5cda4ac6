//! The one binary container behind response checkpoints (`.qfrc`) and shard
//! spills (`.qfrs`), and the crate's only code that turns blocks into bytes:
//! magic (4 bytes), version `u32`, fingerprint `u64`, the file kind's
//! geometry words (`u64` each), then the blocks, all little-endian. A
//! *table* file has one `u64` length per block before the blocks; a
//! *journal*'s blocks are records up to the end of the file, each sized by
//! its first words, and it grows by appends.
//!
//! The reader states the header it expects: magic, version, fingerprint
//! and geometry must match, and a table file's length must be header plus
//! Σ lengths, else a typed [`CheckpointError`]. A journal's last record cut
//! short is left out, and an append cuts it off. A [`BlockReader`] decodes
//! one block front to back and a [`BlockWriter`] encodes them, a [`CHUNK`]
//! at a time, so no block or file is ever held whole; what a block holds is
//! the file kind's business. Whole-file writes are atomic: a pid+sequence
//! temp file beside the target is written, fsynced and renamed over it, and
//! a drop guard removes it on any failure exit, panics included. The
//! directory is then fsynced best effort: the rename has already committed
//! the file, so a failed directory sync is not a failed write.

use crate::checkpoint::CheckpointError;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bytes one block read or write moves at a time. A multiple of every word
/// width, so no word straddles two pieces.
pub(crate) const CHUNK: usize = 64 << 10;

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
    /// Blocks of a table file; 0 for a journal.
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

/// Writes `header` and `n` blocks to `path` atomically, block `i`
/// streamed by `put(i, out)`: a table file when the header counts its
/// blocks (then `n` is that count), else a journal of `n` records. Returns
/// the file length; an error from `put` leaves `path` as it was.
pub(crate) fn write(
    path: &Path,
    header: &Header,
    n: usize,
    mut put: impl FnMut(usize, &mut BlockWriter) -> Result<(), CheckpointError>,
) -> Result<u64, CheckpointError> {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("container");
    let tmp = path.with_file_name(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    let mut guard = TmpGuard { tmp, committed: false };
    let file = BufWriter::with_capacity(CHUNK, File::create(&guard.tmp)?);
    let mut out = BlockWriter { file, at: 0 };
    out.put(header.magic)?;
    out.u32(header.version)?;
    [header.fingerprint].iter().chain(&header.words).try_for_each(|&word| out.u64(word))?;
    // Block lengths are known only once written: reserve the table here
    // and fill it in last. A journal has none.
    let table_at = out.at;
    out.put(&vec![0; 8 * header.n_blocks])?;
    let mut table = Vec::with_capacity(8 * header.n_blocks);
    for i in 0..n {
        let start = out.at;
        put(i, &mut out)?;
        if header.n_blocks > 0 {
            table.extend((out.at - start).to_le_bytes());
        }
    }
    let mut file = out.file.into_inner().map_err(|e| e.into_error())?;
    file.seek(SeekFrom::Start(table_at))?;
    file.write_all(&table)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&guard.tmp, path)?;
    guard.committed = true;
    // The rename is durable only once the directory entry is; the file is
    // committed either way, so callers see success and count it.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir).and_then(|d| d.sync_all()).ok();
    Ok(out.at)
}

/// The little-endian encoder [`write`] hands each block's `put`, and
/// [`append`] a journal's records: words go through one [`CHUNK`]-byte
/// buffer straight to the file.
pub(crate) struct BlockWriter {
    file: BufWriter<File>,
    /// Bytes written so far.
    at: u64,
}

impl BlockWriter {
    fn put(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.file.write_all(bytes)?;
        self.at += bytes.len() as u64;
        Ok(())
    }

    pub(crate) fn u32(&mut self, v: u32) -> Result<(), CheckpointError> {
        self.put(&v.to_le_bytes())
    }

    pub(crate) fn u64(&mut self, v: u64) -> Result<(), CheckpointError> {
        self.put(&v.to_le_bytes())
    }

    pub(crate) fn f64(&mut self, v: f64) -> Result<(), CheckpointError> {
        self.put(&v.to_le_bytes())
    }

    /// Hands every word so far to the operating system, and with `durable`
    /// waits until they are on the disk.
    pub(crate) fn flush(&mut self, durable: bool) -> Result<(), CheckpointError> {
        self.file.flush()?;
        if durable {
            self.file.get_ref().sync_data()?;
        }
        Ok(())
    }
}

/// The encoder that appends records to the journal at `path` after the
/// `len` bytes of its whole records ([`Container::extent`]), a torn tail
/// past them cut off first.
pub(crate) fn append(path: &Path, len: u64) -> Result<BlockWriter, CheckpointError> {
    let mut file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.seek(SeekFrom::Start(len))?;
    Ok(BlockWriter { file: BufWriter::with_capacity(CHUNK, file), at: len })
}

/// An open file whose header matched, and its blocks: a table file's
/// blocks, or a journal's whole records.
pub(crate) struct Container {
    file: Mutex<File>,
    /// Byte offset of each block, then the end of the last one.
    offsets: Vec<u64>,
}

impl Container {
    /// Opens the table file at `path` and checks it against `expected`.
    pub(crate) fn open(path: &Path, expected: &Header) -> Result<Self, CheckpointError> {
        let (file, file_len, table) = open_header(path, expected)?;
        let mut offsets = vec![expected.len()];
        for len in table {
            let Some(end) = offsets[offsets.len() - 1].checked_add(len) else {
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

    /// Opens the journal at `path`, checks its header against `expected`
    /// and reads the first `head` words of every record: `rest_len` checks
    /// them and returns the record's bytes past them. A last record cut
    /// short is left out; an error from `rest_len` fails the open.
    pub(crate) fn open_journal(
        path: &Path,
        expected: &Header,
        head: usize,
        mut rest_len: impl FnMut(&[u64]) -> Result<u64, CheckpointError>,
    ) -> Result<Self, CheckpointError> {
        let (file, file_len, _) = open_header(path, expected)?;
        let mut offsets = vec![expected.len()];
        let mut reader = BufReader::with_capacity(CHUNK, file);
        let mut bytes = vec![0u8; 8 * head];
        loop {
            let at = offsets[offsets.len() - 1] + bytes.len() as u64;
            if at > file_len {
                break;
            }
            reader.read_exact(&mut bytes)?;
            let rest = rest_len(&words(&bytes).map(u64::from_le_bytes).collect::<Vec<_>>())?;
            if file_len - at < rest {
                break;
            }
            reader.seek_relative(rest as i64)?;
            offsets.push(at + rest);
        }
        Ok(Self { file: Mutex::new(reader.into_inner()), offsets })
    }

    /// Number of blocks, and the bytes up to the end of the last one.
    pub(crate) fn extent(&self) -> (usize, u64) {
        (self.offsets.len() - 1, self.offsets[self.offsets.len() - 1])
    }

    /// Length of block `i` in bytes.
    pub(crate) fn block_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Fills `buf` with block `i`'s bytes from offset `at` on. The file
    /// lock is held for this one seek and read, so readers of different
    /// ranges interleave chunk by chunk.
    ///
    /// # Panics
    /// Panics if the range runs past the end of the block.
    fn read_at(&self, i: usize, at: usize, buf: &mut [u8]) -> Result<(), CheckpointError> {
        assert!(at + buf.len() <= self.block_len(i), "read past the end of block {i}");
        let mut file = self.file.lock().expect("container file poisoned");
        file.seek(SeekFrom::Start(self.offsets[i] + at as u64))?;
        file.read_exact(buf)?;
        Ok(())
    }
}

/// Opens `path`, checks its header against `expected` and returns the file,
/// its length and the words of its length table.
fn open_header(path: &Path, expected: &Header) -> Result<(File, u64, Vec<u64>), CheckpointError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let head_len = expected.len();
    let mut head = vec![0u8; head_len.min(file_len) as usize];
    file.read_exact(&mut head)?;
    if head.len() < 16 {
        return format_error(format!("{file_len}-byte file has no header"));
    }
    if &head[..4] != expected.magic {
        return format_error("bad magic");
    }
    let found = words(&head[4..8]).map(u32::from_le_bytes).next().expect("one word");
    if found != expected.version {
        return Err(CheckpointError::Version { found, expected: expected.version });
    }
    let found = words(&head[8..16]).map(u64::from_le_bytes).next().expect("one word");
    if found != expected.fingerprint {
        let expected = expected.fingerprint;
        return Err(CheckpointError::FingerprintMismatch { found, expected });
    }
    if file_len < head_len {
        return format_error(format!("{file_len}-byte file is shorter than its header"));
    }
    let mut table = words(&head[16..]).map(u64::from_le_bytes);
    if expected.words.iter().any(|&word| table.next() != Some(word)) {
        return format_error("geometry does not match");
    }
    Ok((file, file_len, table.collect()))
}

/// Reads one block front to back in pieces of at most [`CHUNK`] bytes
/// through one reused buffer.
pub(crate) struct BlockReader<'a> {
    file: &'a Container,
    block: usize,
    /// Bytes of the block already read.
    at: usize,
    buf: Vec<u8>,
}

impl<'a> BlockReader<'a> {
    pub(crate) fn new(file: &'a Container, block: usize) -> Self {
        let buf = vec![0; CHUNK.min(file.block_len(block))];
        Self { file, block, at: 0, buf }
    }

    /// Reads the next `n` little-endian `W`-byte words, each decoded by
    /// `decode`.
    pub(crate) fn read_vec<const W: usize, T>(
        &mut self,
        n: usize,
        decode: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, CheckpointError> {
        let mut out = Vec::with_capacity(n);
        let end = self.at + W * n;
        while self.at < end {
            let piece = &mut self.buf[..(end - self.at).min(CHUNK)];
            self.file.read_at(self.block, self.at, piece)?;
            out.extend(words(piece).map(&decode));
            self.at += piece.len();
        }
        Ok(out)
    }
}

/// The `W`-byte words of `piece`, whose length is a whole number of words.
fn words<const W: usize>(piece: &[u8]) -> impl Iterator<Item = [u8; W]> + '_ {
    piece.chunks_exact(W).map(|w| w.try_into().expect("whole words"))
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
        write(path, &header(fingerprint, 7), 7, |i, out| out.put(&vec![i as u8; i % 3])).unwrap()
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
            let block = BlockReader::new(&file, i).read_vec(i % 3, u8::from_le_bytes).unwrap();
            assert_eq!(block, vec![i as u8; i % 3]);
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
        let err = open_err(&path, &Header { version: 6, ..header(11, 7) });
        assert!(matches!(err, CheckpointError::Version { found: 7, expected: 6 }), "{err}");
        for expected in [
            Header { magic: b"TSET", ..header(11, 7) },
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
        let err = write(&path, &header(11, 3), 3, |i, _| match i {
            2 => Err(CheckpointError::Format("refused".into())),
            _ => Ok(()),
        });
        assert!(matches!(err, Err(CheckpointError::Format(_))));
        assert!(!path.exists());
    }

    /// The exact bytes of a sample file, as the whole-file writer that
    /// preceded the streaming one wrote them: the layout, and so every
    /// checkpoint and spill already on disk, is unchanged.
    #[test]
    fn sample_file_bytes_are_pinned() {
        let path = temp_file("pinned");
        let len = write(&path, &header(11, 3), 3, |i, out| match i {
            0 => out.u32(7).and_then(|()| out.f64(-2.5)),
            1 => Ok(()),
            _ => out.u64(0x0102_0304_0506_0708),
        })
        .unwrap();
        #[rustfmt::skip]
        let want: &[u8] = &[
            b'T', b'E', b'S', b'T', 7, 0, 0, 0, // magic, version
            11, 0, 0, 0, 0, 0, 0, 0, // fingerprint
            3, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, // geometry words
            12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, // lengths
            7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 192, // block 0: 7u32, -2.5f64
            8, 7, 6, 5, 4, 3, 2, 1, // block 2: 0x0102030405060708u64
        ];
        assert_eq!(std::fs::read(&path).unwrap(), want);
        assert_eq!(len, want.len() as u64);
        std::fs::remove_file(&path).ok();
    }

    /// A `put` that fails once earlier blocks have reached the temp file
    /// leaves the old target byte for byte and no temp file behind.
    #[test]
    fn interrupted_write_keeps_the_old_file() {
        let dir = std::env::temp_dir().join("qfr_container_tests").join("interrupted");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("target");
        write_sample(&path, 11);
        let old = std::fs::read(&path).unwrap();
        let temp_lens = || -> Vec<u64> {
            let entries = std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok());
            let temps = entries.filter(|e| e.path().extension().is_some_and(|x| x == "tmp"));
            temps.map(|e| e.metadata().unwrap().len()).collect()
        };
        let err = write(&path, &header(11, 3), 3, |i, out| {
            if i < 2 {
                return out.put(&vec![i as u8; CHUNK + 1]);
            }
            let streamed = temp_lens();
            assert!(streamed.len() == 1 && streamed[0] > CHUNK as u64, "{streamed:?}");
            Err(CheckpointError::Format("refused".into()))
        });
        assert!(matches!(err, Err(CheckpointError::Format(_))));
        assert_eq!(std::fs::read(&path).unwrap(), old, "the target must keep its old bytes");
        assert_eq!(temp_lens(), Vec::<u64>::new(), "the temp file must be removed");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Journal records of a one-word head `[n]` followed by `n` bytes:
    /// opening finds every whole record, a last record cut short in its
    /// head or body is left out, and an append first cuts it off.
    #[test]
    fn journal_drops_a_torn_tail_and_appends_after_whole_records() {
        let path = temp_file("journal");
        let journal = Header { n_blocks: 0, ..header(11, 0) };
        let open = |path: &Path| Container::open_journal(path, &journal, 1, |head| Ok(head[0]));
        let put = |n: usize, out: &mut BlockWriter| out.u64(n as u64).and(out.put(&vec![7; n]));
        write(&path, &journal, 4, |i, out| put(i, out)).unwrap();
        let whole = std::fs::read(&path).unwrap();
        assert_eq!(whole.len(), 32 + 4 * 8 + 6);
        let file = open(&path).unwrap();
        assert_eq!(file.extent(), (4, whole.len() as u64));
        let mut record = BlockReader::new(&file, 3);
        assert_eq!(record.read_vec(1, u64::from_le_bytes).unwrap(), [3]);
        assert_eq!(record.read_vec(3, u8::from_le_bytes).unwrap(), [7; 3]);
        let err = Container::open_journal(&path, &journal, 1, |_| format_error("refused"));
        assert!(matches!(err, Err(CheckpointError::Format(_))));
        for cut in 1..=11 {
            std::fs::write(&path, &whole[..whole.len() - cut]).unwrap();
            let file = open(&path).unwrap();
            assert_eq!(file.extent().0, 3, "cut {cut}");
            let mut out = append(&path, file.extent().1).unwrap();
            put(3, &mut out).unwrap();
            out.flush(true).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), whole, "cut {cut}");
        }
        std::fs::remove_file(&path).ok();
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
