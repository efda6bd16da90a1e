//! Crash-safe on-disk artifact store — the cache's durable fourth tier.
//!
//! A [`DiskStore`] persists compiled artifacts ([`CompiledArtifact`])
//! keyed by [`ArtifactKey`] so a restarted process (a fresh CLI sweep
//! or a rebooted `dsp-serve`) warms from previous work instead of
//! recompiling. Because every artifact is a pure function of its
//! content-hashed key, entries never go stale — they are only ever
//! missing, valid, or corrupt.
//!
//! # Entry format
//!
//! One file per artifact, named `{source:016x}-{config:016x}-{strategy:02x}.art`
//! inside the store directory. Each file is:
//!
//! | bytes | field |
//! |-------|-------|
//! | 4     | magic `b"DSPB"` |
//! | 4     | format version (little-endian u32, currently 2) |
//! | 8+8+8 | key: source hash, config bits, strategy index (as u64) |
//! | 8     | payload length in bytes |
//! | 4     | CRC32 (IEEE) of the payload |
//! | …     | payload (instruction stream via [`dsp_machine::encode_stream`], data images, symbols, report scalars, stage times) |
//!
//! # Crash safety
//!
//! * **Atomic publish** — entries are written to `tmp/` inside the
//!   store directory, fsynced, then renamed into place. Readers only
//!   ever see absent or complete files; a process killed mid-write
//!   leaves at most a stray temp file, removed by the next startup
//!   sweep.
//! * **Corruption quarantine** — an entry that fails a check (bad
//!   magic, version, key echo, length or CRC) at startup or on load, or
//!   whose payload fails to decode on load, is moved into `quarantine/`
//!   and counted; it is never served and never fatal. A payload that
//!   passes the CRC but does not decode can only come from a buggy or
//!   hostile writer; the startup sweep does not decode payloads, so
//!   such an entry is recovered at startup and quarantined at its first
//!   load.
//! * **Startup sweep** — [`DiskStore::open`] scans the directory,
//!   checks every entry with [`check_entry`] (header, version, key
//!   echo, length and CRC; no payload decode), quarantines the ones
//!   that fail, removes stray temp files, and reports the result as a
//!   [`DiskSweep`]. `open` itself is infallible: an unusable directory
//!   yields an empty store whose sweep carries the error and whose
//!   operations degrade to counted no-ops.
//!
//! # Graceful degradation
//!
//! Every operation after `open` is fail-soft: IO errors bump
//! [`DiskStats::errors`] and the caller proceeds as if the disk tier
//! did not exist. The engine therefore never fails, blocks, or panics
//! because of the disk — it only loses warm starts. This is proven by
//! the fault-injection suite: [`FaultIo`] wraps the real IO layer and
//! fails, short-writes, or corrupts the Nth operation of a chosen kind
//! deterministically.
//!
//! # Bounding
//!
//! An optional byte budget evicts least-recently-*used* entries, where
//! "used" is the file mtime: loads touch the file, so warm entries
//! survive and cold ones are dropped first. Like the in-memory layers,
//! the store never evicts below one entry.

use std::collections::HashMap;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime};

use dsp_backend::{CompileTimings, Reuse, Strategy};
use dsp_machine::{
    decode_stream, encode_stream, Bank, DataImage, DataSymbol, InstAddr, Label, VliwFunction,
    VliwProgram, Word,
};

use crate::cache::{ArtifactKey, CompiledArtifact};

/// File magic of a store entry.
pub const MAGIC: [u8; 4] = *b"DSPB";
/// Entry format version; bump on any layout change (old entries are
/// quarantined, not misread).
pub const FORMAT_VERSION: u32 = 2;
/// Fixed header length in bytes (magic + version + key + length + CRC).
pub const HEADER_LEN: usize = 4 + 4 + 24 + 8 + 4;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven, no dependencies.
// ---------------------------------------------------------------------

/// Slice-by-8 tables (Kounavis & Berry, ISCC 2005): `t[0]` is the
/// classic byte-at-a-time table, and `t[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight table lookups fold in eight
/// input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of a byte string — the entry payload checksum. Folds
/// eight bytes per step, then the tail byte by byte.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFF_u32;
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Injectable IO layer
// ---------------------------------------------------------------------

/// Metadata for one file returned by [`StoreIo::list`].
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Full path.
    pub path: PathBuf,
    /// Length in bytes.
    pub len: u64,
    /// Last-modified time (the store's LRU recency signal).
    pub modified: SystemTime,
}

/// The filesystem operations a [`DiskStore`] performs, as a trait so
/// tests can inject deterministic faults (see [`FaultIo`]). The store
/// treats every method as fallible and absorbs failures.
pub trait StoreIo: Send + Sync {
    /// Create a directory and its parents.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Read a whole file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Create `path` and write `bytes` durably (create + write + fsync).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error from any step.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically rename `from` to `to` (same filesystem).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// List the plain files directly inside `dir` (subdirectories are
    /// skipped).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    fn list(&self, dir: &Path) -> io::Result<Vec<FileInfo>>;

    /// Set the file's modified time (LRU touch on a disk hit).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    fn touch(&self, path: &Path, to: SystemTime) -> io::Result<()>;
}

/// The real filesystem implementation of [`StoreIo`].
#[derive(Debug, Default, Clone, Copy)]
pub struct StdIo;

impl StoreIo for StdIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut f = std::fs::File::open(path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<FileInfo>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if !meta.is_file() {
                continue;
            }
            out.push(FileInfo {
                path: entry.path(),
                len: meta.len(),
                modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
        Ok(out)
    }

    fn touch(&self, path: &Path, to: SystemTime) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().append(true).open(path)?;
        f.set_times(std::fs::FileTimes::new().set_modified(to))
    }
}

// ---------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------

/// The injectable fault sites, one per kind of IO operation the store
/// performs. A [`StoreIo::write`] counts one [`FaultOp::Open`], one
/// [`FaultOp::Write`], and one [`FaultOp::Sync`] in that order,
/// mirroring create + `write_all` + `sync_all`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// File creation at the start of a durable write.
    Open,
    /// Whole-file read.
    Read,
    /// The body of a durable write.
    Write,
    /// The fsync at the end of a durable write.
    Sync,
    /// Atomic rename.
    Rename,
    /// File removal.
    Remove,
    /// Directory listing.
    List,
}

impl FaultOp {
    /// Every fault site, for suites that iterate them all.
    pub const ALL: [FaultOp; 7] = [
        FaultOp::Open,
        FaultOp::Read,
        FaultOp::Write,
        FaultOp::Sync,
        FaultOp::Rename,
        FaultOp::Remove,
        FaultOp::List,
    ];

    fn index(self) -> usize {
        match self {
            FaultOp::Open => 0,
            FaultOp::Read => 1,
            FaultOp::Write => 2,
            FaultOp::Sync => 3,
            FaultOp::Rename => 4,
            FaultOp::Remove => 5,
            FaultOp::List => 6,
        }
    }
}

/// What the injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an IO error having taken no effect.
    Fail,
    /// A write persists only the first half of its bytes, then fails —
    /// a torn write, as left by a crash or a full disk.
    ShortWrite,
    /// A write silently flips one payload byte and reports success —
    /// bit rot, caught later by the CRC.
    Corrupt,
}

/// A deterministic fault plan: the `at`-th occurrence (1-based) of
/// `op` misbehaves per `kind`; every other operation passes through.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Which operation misbehaves.
    pub op: FaultOp,
    /// How it misbehaves.
    pub kind: FaultKind,
    /// 1-based occurrence count at which the fault fires (fires once).
    pub at: u64,
}

/// A [`StoreIo`] wrapper around [`StdIo`] that injects one
/// deterministic fault per [`FaultPlan`]. Purely for tests — it lets
/// the suite prove that every IO failure degrades the store to a
/// counted no-op instead of a panic or a served corruption.
pub struct FaultIo {
    inner: StdIo,
    plan: FaultPlan,
    counts: [AtomicU64; 7],
    injected: AtomicU64,
}

impl FaultIo {
    /// Wrap the real filesystem with one planned fault.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultIo {
        FaultIo {
            inner: StdIo,
            plan,
            counts: Default::default(),
            injected: AtomicU64::new(0),
        }
    }

    /// How many times the planned fault actually fired (0 or 1) —
    /// suites assert this to prove the fault site was exercised.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Count one occurrence of `op`; true when the planned fault fires.
    fn fires(&self, op: FaultOp) -> bool {
        let n = self.counts[op.index()].fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.op == op && self.plan.at == n {
            self.injected.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn fault_err() -> io::Error {
        io::Error::other("injected fault")
    }
}

impl StoreIo for FaultIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.fires(FaultOp::Read) {
            return Err(FaultIo::fault_err());
        }
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.fires(FaultOp::Open) {
            return Err(FaultIo::fault_err());
        }
        let mut corrupted = None;
        if self.fires(FaultOp::Write) {
            match self.plan.kind {
                FaultKind::Fail => return Err(FaultIo::fault_err()),
                FaultKind::ShortWrite => {
                    // Persist a torn prefix, then fail — what a crash
                    // mid-write leaves behind.
                    let _ = self.inner.write(path, &bytes[..bytes.len() / 2]);
                    return Err(FaultIo::fault_err());
                }
                FaultKind::Corrupt => {
                    let mut b = bytes.to_vec();
                    if !b.is_empty() {
                        let mid = b.len() * 3 / 4;
                        b[mid] ^= 0x40;
                    }
                    corrupted = Some(b);
                }
            }
        }
        self.inner
            .write(path, corrupted.as_deref().unwrap_or(bytes))?;
        if self.fires(FaultOp::Sync) {
            return Err(FaultIo::fault_err());
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.fires(FaultOp::Rename) {
            return Err(FaultIo::fault_err());
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if self.fires(FaultOp::Remove) {
            return Err(FaultIo::fault_err());
        }
        self.inner.remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<FileInfo>> {
        if self.fires(FaultOp::List) {
            return Err(FaultIo::fault_err());
        }
        self.inner.list(dir)
    }

    fn touch(&self, path: &Path, to: SystemTime) -> io::Result<()> {
        // Recency touches are best-effort metadata, not a fault site.
        self.inner.touch(path, to)
    }
}

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn words(&mut self, words: &[u32]) {
        self.u32(words.len() as u32);
        for &w in words {
            self.u32(w);
        }
    }
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("length overflow")?;
        if end > self.bytes.len() {
            return Err(format!("truncated at byte {}", self.pos));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| "invalid utf-8 in string".to_string())
    }

    fn words(&mut self) -> Result<Vec<u32>, String> {
        let len = self.u32()? as usize;
        // Cap before allocating: a corrupt length must not OOM.
        if len > self.bytes.len() / 4 + 1 {
            return Err("word count exceeds payload".to_string());
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn done(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes", self.bytes.len() - self.pos))
        }
    }
}

fn encode_bank(bank: Bank) -> u8 {
    match bank {
        Bank::X => 0,
        Bank::Y => 1,
    }
}

fn decode_bank(v: u8) -> Result<Bank, String> {
    match v {
        0 => Ok(Bank::X),
        1 => Ok(Bank::Y),
        other => Err(format!("bad bank tag {other}")),
    }
}

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn encode_payload(artifact: &CompiledArtifact) -> Vec<u8> {
    let p = &artifact.program;
    let mut w = ByteWriter::new();
    w.words(&encode_stream(&p.insts));
    w.u32(p.entry.0);
    w.words(&p.x_image.init.iter().map(|x| x.0).collect::<Vec<u32>>());
    w.words(&p.y_image.init.iter().map(|x| x.0).collect::<Vec<u32>>());
    w.u32(p.x_static_words);
    w.u32(p.y_static_words);
    w.u32(p.x_stack_base);
    w.u32(p.y_stack_base);
    w.u32(p.stack_words);
    w.u32(p.symbols.len() as u32);
    for s in &p.symbols {
        w.str(&s.name);
        w.u32(s.addr);
        w.u32(s.size);
        w.u8(encode_bank(s.home));
        w.u8(u8::from(s.duplicated));
    }
    w.u32(p.functions.len() as u32);
    for f in &p.functions {
        w.str(&f.name);
        w.u32(f.start.0);
        w.u32(f.len);
    }
    w.u32(p.labels.len() as u32);
    for l in &p.labels {
        w.str(&l.name);
        w.u32(l.addr.0);
    }
    w.u64(artifact.partition_cost);
    w.u64(artifact.duplicated_vars as u64);
    w.u64(artifact.duplicated_words);
    w.u64(artifact.partition_passes);
    w.u64(artifact.partition_moves);
    // Back-half stage times as nanoseconds; the shared-stage fields
    // (opt, opt_passes, profile) are per-source, reported from the
    // prepared layer, and deliberately not persisted per artifact.
    w.u64(duration_nanos(artifact.timings.trial_compaction));
    w.u64(duration_nanos(artifact.timings.partition));
    w.u64(duration_nanos(artifact.timings.regalloc));
    w.u64(duration_nanos(artifact.timings.lower));
    w.u64(duration_nanos(artifact.timings.final_pack));
    w.u64(duration_nanos(artifact.timings.link));
    w.buf
}

fn decode_payload(key: &ArtifactKey, bytes: &[u8]) -> Result<CompiledArtifact, String> {
    let mut r = ByteReader::new(bytes);
    let insts = decode_stream(&r.words()?).map_err(|e| e.to_string())?;
    let entry = InstAddr(r.u32()?);
    let x_image = DataImage {
        init: r.words()?.into_iter().map(Word).collect(),
    };
    let y_image = DataImage {
        init: r.words()?.into_iter().map(Word).collect(),
    };
    let x_static_words = r.u32()?;
    let y_static_words = r.u32()?;
    let x_stack_base = r.u32()?;
    let y_stack_base = r.u32()?;
    let stack_words = r.u32()?;
    let n_symbols = r.u32()? as usize;
    let mut symbols = Vec::with_capacity(n_symbols.min(bytes.len()));
    for _ in 0..n_symbols {
        symbols.push(DataSymbol {
            name: r.str()?,
            addr: r.u32()?,
            size: r.u32()?,
            home: decode_bank(r.u8()?)?,
            duplicated: r.u8()? != 0,
        });
    }
    let n_functions = r.u32()? as usize;
    let mut functions = Vec::with_capacity(n_functions.min(bytes.len()));
    for _ in 0..n_functions {
        functions.push(VliwFunction {
            name: r.str()?,
            start: InstAddr(r.u32()?),
            len: r.u32()?,
        });
    }
    let n_labels = r.u32()? as usize;
    let mut labels = Vec::with_capacity(n_labels.min(bytes.len()));
    for _ in 0..n_labels {
        labels.push(Label {
            name: r.str()?,
            addr: InstAddr(r.u32()?),
        });
    }
    let partition_cost = r.u64()?;
    let duplicated_vars = r.u64()? as usize;
    let duplicated_words = r.u64()?;
    let partition_passes = r.u64()?;
    let partition_moves = r.u64()?;
    let timings = CompileTimings {
        trial_compaction: Duration::from_nanos(r.u64()?),
        partition: Duration::from_nanos(r.u64()?),
        regalloc: Duration::from_nanos(r.u64()?),
        lower: Duration::from_nanos(r.u64()?),
        final_pack: Duration::from_nanos(r.u64()?),
        link: Duration::from_nanos(r.u64()?),
        ..CompileTimings::default()
    };
    r.done()?;
    let strategy = *Strategy::ALL
        .get(key.strategy as usize)
        .ok_or_else(|| format!("bad strategy index {}", key.strategy))?;
    Ok(CompiledArtifact {
        program: Arc::new(VliwProgram {
            insts,
            entry,
            x_image,
            y_image,
            x_static_words,
            y_static_words,
            x_stack_base,
            y_stack_base,
            stack_words,
            symbols,
            functions,
            labels,
        }),
        strategy,
        partition_cost,
        duplicated_vars,
        duplicated_words,
        partition_passes,
        partition_moves,
        timings,
        reuse: Reuse::default(),
    })
}

/// Serialize a complete store entry (header + payload) for `key`.
#[must_use]
pub fn encode_entry(key: &ArtifactKey, artifact: &CompiledArtifact) -> Vec<u8> {
    let payload = encode_payload(artifact);
    let mut w = ByteWriter::new();
    w.buf.extend_from_slice(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(key.source);
    w.u64(key.config);
    w.u64(u64::from(key.strategy));
    w.u64(payload.len() as u64);
    w.u32(crc32(&payload));
    w.buf.extend_from_slice(&payload);
    w.buf
}

/// Check a store entry's integrity against `key` without decoding its
/// payload: magic, format version, key echo, payload length and CRC.
/// Returns the payload on success. This is all the startup sweep runs.
///
/// # Errors
///
/// Returns a description of the first failed check.
pub fn check_entry<'a>(key: &ArtifactKey, bytes: &'a [u8]) -> Result<&'a [u8], String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!("entry too short ({} bytes)", bytes.len()));
    }
    let mut r = ByteReader::new(&bytes[..HEADER_LEN]);
    let magic = r.take(4).expect("header sliced");
    if magic != MAGIC {
        return Err("bad magic".to_string());
    }
    let version = r.u32().expect("header sliced");
    if version != FORMAT_VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let source = r.u64().expect("header sliced");
    let config = r.u64().expect("header sliced");
    let strategy = r.u64().expect("header sliced");
    if source != key.source || config != key.config || strategy != u64::from(key.strategy) {
        return Err("key mismatch".to_string());
    }
    let payload_len = r.u64().expect("header sliced");
    let want_crc = r.u32().expect("header sliced");
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(format!(
            "payload length mismatch: header {payload_len}, file {}",
            payload.len()
        ));
    }
    if crc32(payload) != want_crc {
        return Err("checksum mismatch".to_string());
    }
    Ok(payload)
}

/// Validate and deserialize a store entry that should hold `key`'s
/// artifact: [`check_entry`], then the payload decode.
///
/// # Errors
///
/// Returns a description of the first validation failure: wrong magic,
/// version, key echo, length, checksum, or payload decode error.
pub fn decode_entry(key: &ArtifactKey, bytes: &[u8]) -> Result<CompiledArtifact, String> {
    decode_payload(key, check_entry(key, bytes)?)
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// Cumulative disk-tier counters plus resident gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Loads served from a valid on-disk entry.
    pub hits: u64,
    /// Loads that found no entry on disk.
    pub misses: u64,
    /// IO operations that failed (open/read/write/rename/fsync/list);
    /// each one degraded gracefully to in-memory operation.
    pub errors: u64,
    /// Entries quarantined as corrupt (at startup or on load).
    pub quarantined: u64,
    /// Entries dropped by the byte-budget LRU eviction.
    pub evictions: u64,
    /// Bytes dropped by eviction.
    pub evicted_bytes: u64,
    /// Bytes currently resident (sum of indexed entry files).
    pub bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// What [`DiskStore::open`]'s startup sweep found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiskSweep {
    /// Entries that passed [`check_entry`] (header, version, key echo,
    /// length and CRC) and were indexed. Payloads are not decoded at
    /// startup: one that fails to decode is quarantined at its first
    /// load.
    pub recovered: u64,
    /// Corrupt entries moved to `quarantine/`.
    pub quarantined: u64,
    /// Stray temp files removed (left by a crash mid-publish).
    pub tmp_cleaned: u64,
    /// Bytes across recovered entries.
    pub bytes: u64,
    /// Why the store is degraded to a no-op, when it is (directory
    /// could not be created or listed).
    pub error: Option<String>,
}

struct IndexEntry {
    bytes: u64,
    modified: SystemTime,
}

/// The content-addressed on-disk artifact store. See the module docs
/// for format and crash-safety guarantees. All methods are infallible
/// at the type level: IO failures are counted in [`DiskStats`] and
/// degrade to cache misses.
pub struct DiskStore {
    io: Arc<dyn StoreIo>,
    dir: PathBuf,
    tmp_dir: PathBuf,
    quarantine_dir: PathBuf,
    max_bytes: Option<u64>,
    index: Mutex<HashMap<ArtifactKey, IndexEntry>>,
    sweep: DiskSweep,
    /// Uniquifies temp-file names within the process.
    seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    quarantined: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
}

/// File name of `key`'s entry: `{source:016x}-{config:016x}-{strategy:02x}.art`.
#[must_use]
pub fn entry_file_name(key: &ArtifactKey) -> String {
    format!(
        "{:016x}-{:016x}-{:02x}.art",
        key.source, key.config, key.strategy
    )
}

/// Parse an entry file name back into its [`ArtifactKey`].
#[must_use]
pub fn parse_entry_file_name(name: &str) -> Option<ArtifactKey> {
    let stem = name.strip_suffix(".art")?;
    let mut parts = stem.split('-');
    let source = u64::from_str_radix(parts.next()?, 16).ok()?;
    let config = u64::from_str_radix(parts.next()?, 16).ok()?;
    let strategy = u8::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(ArtifactKey {
        source,
        config,
        strategy,
    })
}

impl DiskStore {
    /// Open (or create) a store at `dir` over the real filesystem.
    #[must_use]
    pub fn open_default(dir: &Path, max_bytes: Option<u64>) -> DiskStore {
        DiskStore::open(Arc::new(StdIo), dir, max_bytes)
    }

    /// Open (or create) a store at `dir` over an injectable IO layer.
    ///
    /// Never fails: if the directory cannot be created or listed, the
    /// result is an empty store whose [`DiskStore::sweep`] carries the
    /// error and whose operations degrade to counted no-ops. Otherwise
    /// the startup sweep removes stray temp files, checks every `.art`
    /// entry with [`check_entry`] (quarantining the ones that fail), and
    /// indexes the rest.
    #[must_use]
    pub fn open(io: Arc<dyn StoreIo>, dir: &Path, max_bytes: Option<u64>) -> DiskStore {
        let mut store = DiskStore {
            io,
            dir: dir.to_path_buf(),
            tmp_dir: dir.join("tmp"),
            quarantine_dir: dir.join("quarantine"),
            max_bytes,
            index: Mutex::new(HashMap::new()),
            sweep: DiskSweep::default(),
            seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        };
        store.sweep = store.run_sweep();
        store
            .quarantined
            .store(store.sweep.quarantined, Ordering::Relaxed);
        store.enforce_budget();
        store
    }

    fn run_sweep(&self) -> DiskSweep {
        let mut sweep = DiskSweep::default();
        for d in [&self.dir, &self.tmp_dir, &self.quarantine_dir] {
            if let Err(e) = self.io.create_dir_all(d) {
                self.errors.fetch_add(1, Ordering::Relaxed);
                sweep.error = Some(format!("create {}: {e}", d.display()));
                return sweep;
            }
        }
        // A crash mid-publish leaves its partial entry in tmp/; it was
        // never renamed into place, so dropping it loses nothing.
        match self.io.list(&self.tmp_dir) {
            Ok(files) => {
                for f in files {
                    match self.io.remove_file(&f.path) {
                        Ok(()) => sweep.tmp_cleaned += 1,
                        Err(_) => {
                            self.errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        let files = match self.io.list(&self.dir) {
            Ok(files) => files,
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                sweep.error = Some(format!("list {}: {e}", self.dir.display()));
                return sweep;
            }
        };
        let mut index = self.index.lock().expect("store index poisoned");
        for f in files {
            let Some(name) = f.path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(key) = parse_entry_file_name(name) else {
                // Not one of ours; leave foreign files alone.
                continue;
            };
            let valid = match self.io.read(&f.path) {
                Ok(bytes) => check_entry(&key, &bytes).is_ok(),
                Err(_) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            if valid {
                sweep.recovered += 1;
                sweep.bytes += f.len;
                index.insert(
                    key,
                    IndexEntry {
                        bytes: f.len,
                        modified: f.modified,
                    },
                );
            } else {
                drop(index);
                self.quarantine(&f.path, name);
                sweep.quarantined += 1;
                index = self.index.lock().expect("store index poisoned");
            }
        }
        sweep
    }

    /// The startup sweep's report.
    #[must_use]
    pub fn sweep(&self) -> &DiskSweep {
        &self.sweep
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &ArtifactKey) -> PathBuf {
        self.dir.join(entry_file_name(key))
    }

    /// Move a corrupt entry into `quarantine/` (fall back to deletion,
    /// then to leaving it — a later load will re-detect it; nothing is
    /// ever served from it either way).
    fn quarantine(&self, path: &Path, name: &str) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let dest = self.quarantine_dir.join(format!("{name}.{seq}"));
        if self.io.rename(path, &dest).is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
            if self.io.remove_file(path).is_err() {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Load `key`'s artifact from disk, if a valid entry exists.
    /// Returns `None` on miss, IO error (counted), or an entry that
    /// fails [`decode_entry`]'s checks or payload decode (quarantined
    /// and counted). Never fails, never panics.
    #[must_use]
    pub fn load(&self, key: &ArtifactKey) -> Option<Arc<CompiledArtifact>> {
        let path = self.entry_path(key);
        let bytes = match self.io.read(&path) {
            Ok(bytes) => bytes,
            Err(e) => {
                if e.kind() == io::ErrorKind::NotFound {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                }
                return None;
            }
        };
        match decode_entry(key, &bytes) {
            Ok(artifact) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // LRU recency: a hit refreshes the file mtime so warm
                // entries outlive cold ones under the byte budget.
                // Best-effort metadata only — not a counted fault site.
                let now = SystemTime::now();
                let _ = self.io.touch(&path, now);
                let mut index = self.index.lock().expect("store index poisoned");
                index
                    .entry(*key)
                    .and_modify(|e| e.modified = now)
                    .or_insert(IndexEntry {
                        bytes: bytes.len() as u64,
                        modified: now,
                    });
                Some(Arc::new(artifact))
            }
            Err(_) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                let name = entry_file_name(key);
                self.quarantine(&path, &name);
                self.index.lock().expect("store index poisoned").remove(key);
                None
            }
        }
    }

    /// Durably publish `key`'s artifact: write to `tmp/`, fsync, then
    /// rename into place. Failures at any step are counted and the
    /// temp file is removed (best-effort); the caller's artifact is
    /// unaffected — a failed publish only costs a future warm start.
    pub fn publish(&self, key: &ArtifactKey, artifact: &CompiledArtifact) {
        let body = encode_entry(key, artifact);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .tmp_dir
            .join(format!("{}.{seq}.tmp", entry_file_name(key)));
        if self.io.write(&tmp, &body).is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
            let _ = self.io.remove_file(&tmp);
            return;
        }
        let dest = self.entry_path(key);
        if self.io.rename(&tmp, &dest).is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
            let _ = self.io.remove_file(&tmp);
            return;
        }
        self.index.lock().expect("store index poisoned").insert(
            *key,
            IndexEntry {
                bytes: body.len() as u64,
                modified: SystemTime::now(),
            },
        );
        self.enforce_budget();
    }

    /// Evict least-recently-used entries (by mtime) until the byte
    /// budget holds, but never below one entry.
    fn enforce_budget(&self) {
        let Some(max) = self.max_bytes else { return };
        let mut index = self.index.lock().expect("store index poisoned");
        loop {
            let total: u64 = index.values().map(|e| e.bytes).sum();
            if total <= max || index.len() <= 1 {
                return;
            }
            // Oldest mtime loses; tie-break on the key fields so the
            // victim is deterministic under equal timestamps.
            let Some(victim) = index
                .iter()
                .min_by_key(|(k, e)| (e.modified, k.source, k.config, k.strategy))
                .map(|(k, _)| *k)
            else {
                return;
            };
            let Some(entry) = index.remove(&victim) else {
                return;
            };
            match self.io.remove_file(&self.entry_path(&victim)) {
                Ok(()) => {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.evicted_bytes.fetch_add(entry.bytes, Ordering::Relaxed);
                }
                Err(_) => {
                    // Can't delete it; drop it from the index (so the
                    // budget math stops seeing it) and stop evicting —
                    // a broken disk must not spin this loop.
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    /// Snapshot the counters and resident gauges.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        let (bytes, entries) = {
            let index = self.index.lock().expect("store index poisoned");
            (index.values().map(|e| e.bytes).sum(), index.len() as u64)
        };
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            bytes,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ArtifactCache;
    use dsp_backend::CompileConfig;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dsp-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_artifact() -> (ArtifactKey, Arc<CompiledArtifact>) {
        let cache = ArtifactCache::new();
        let src =
            "int out[4]; void main() { int i; for (i = 0; i < 4; i = i + 1) out[i] = i * 3; }";
        let (prep, _) = cache.prepared(src).unwrap();
        let cfg = CompileConfig::default();
        let (artifact, _, _) = cache
            .artifact(&prep, Strategy::CbPartition, cfg, None)
            .unwrap();
        (ArtifactKey::new(src, cfg, Strategy::CbPartition), artifact)
    }

    #[test]
    fn crc32_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time CRC32 the slice-by-8 [`crc32`] replaced: the
    /// specification it is checked against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFF_u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_bytewise_spec() {
        // xorshift64: a fixed, dependency-free byte stream.
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let big: Vec<u8> = (0..(1 << 20) + 13)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &big[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset}, len {len}");
            }
        }
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn entry_roundtrips() {
        let (key, artifact) = sample_artifact();
        let bytes = encode_entry(&key, &artifact);
        assert_eq!(&bytes[..4], &MAGIC);
        let back = decode_entry(&key, &bytes).expect("roundtrip");
        assert_eq!(back.program, artifact.program);
        assert_eq!(back.strategy, artifact.strategy);
        assert_eq!(back.partition_cost, artifact.partition_cost);
        assert_eq!(back.duplicated_vars, artifact.duplicated_vars);
        assert_eq!(back.duplicated_words, artifact.duplicated_words);
        assert_eq!(back.partition_passes, artifact.partition_passes);
        assert_eq!(back.partition_moves, artifact.partition_moves);
        assert_eq!(
            back.timings.trial_compaction,
            artifact.timings.trial_compaction
        );
        assert_eq!(back.timings.link, artifact.timings.link);
    }

    #[test]
    fn every_truncation_is_rejected_not_panicked() {
        let (key, artifact) = sample_artifact();
        let bytes = encode_entry(&key, &artifact);
        for len in 0..bytes.len() {
            assert!(
                decode_entry(&key, &bytes[..len]).is_err(),
                "truncation to {len} bytes must fail validation"
            );
        }
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let (key, artifact) = sample_artifact();
        let clean = encode_entry(&key, &artifact);
        // Flip one bit in every byte; validation must reject each
        // (header fields by the field checks, payload by the CRC).
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            assert!(
                decode_entry(&key, &bytes).is_err(),
                "bit flip at byte {i} must fail validation"
            );
        }
    }

    #[test]
    fn key_mismatch_is_rejected() {
        let (key, artifact) = sample_artifact();
        let bytes = encode_entry(&key, &artifact);
        let other = ArtifactKey {
            source: key.source ^ 1,
            ..key
        };
        assert!(decode_entry(&other, &bytes).is_err());
    }

    #[test]
    fn file_name_roundtrips() {
        let key = ArtifactKey {
            source: 0x0123_4567_89ab_cdef,
            config: 1,
            strategy: 6,
        };
        let name = entry_file_name(&key);
        assert_eq!(name, "0123456789abcdef-0000000000000001-06.art");
        assert_eq!(parse_entry_file_name(&name), Some(key));
        assert_eq!(parse_entry_file_name("nope.art"), None);
        assert_eq!(parse_entry_file_name("0-1-2"), None);
    }

    #[test]
    fn publish_load_and_warm_reopen() {
        let dir = temp_dir("roundtrip");
        let (key, artifact) = sample_artifact();
        let store = DiskStore::open_default(&dir, None);
        assert_eq!(store.sweep().recovered, 0);
        assert!(store.load(&key).is_none(), "empty store misses");
        store.publish(&key, &artifact);
        let loaded = store.load(&key).expect("published entry loads");
        assert_eq!(loaded.program, artifact.program);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.errors), (1, 1, 0));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > HEADER_LEN as u64);

        // A fresh process over the same directory warms from the sweep.
        let store2 = DiskStore::open_default(&dir, None);
        assert_eq!(store2.sweep().recovered, 1);
        assert_eq!(store2.sweep().quarantined, 0);
        assert!(store2.load(&key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_on_load() {
        let dir = temp_dir("quarantine");
        let (key, artifact) = sample_artifact();
        let store = DiskStore::open_default(&dir, None);
        store.publish(&key, &artifact);
        // Flip a payload byte on disk.
        let path = dir.join(entry_file_name(&key));
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        assert!(store.load(&key).is_none(), "corrupt entry never served");
        assert_eq!(store.stats().quarantined, 1);
        assert!(!path.exists(), "corrupt entry moved aside");
        let quarantined = std::fs::read_dir(dir.join("quarantine")).unwrap().count();
        assert_eq!(quarantined, 1);
        // And it stays gone: the next load is a clean miss.
        assert!(store.load(&key).is_none());
        assert_eq!(store.stats().quarantined, 1, "no double-count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_quarantines_corrupt_and_cleans_tmp() {
        let dir = temp_dir("sweep");
        let (key, artifact) = sample_artifact();
        {
            let store = DiskStore::open_default(&dir, None);
            store.publish(&key, &artifact);
        }
        // Simulate a crash: a stray temp file and a torn entry.
        std::fs::write(dir.join("tmp").join("junk.tmp"), b"partial").unwrap();
        let torn_key = ArtifactKey {
            source: key.source ^ 7,
            ..key
        };
        let full = encode_entry(&torn_key, &artifact);
        std::fs::write(
            dir.join(entry_file_name(&torn_key)),
            &full[..full.len() / 2],
        )
        .unwrap();

        let store = DiskStore::open_default(&dir, None);
        let sweep = store.sweep();
        assert_eq!(sweep.recovered, 1);
        assert_eq!(sweep.quarantined, 1);
        assert_eq!(sweep.tmp_cleaned, 1);
        assert!(sweep.error.is_none());
        assert!(store.load(&key).is_some(), "good entry survived");
        assert!(store.load(&torn_key).is_none(), "torn entry gone");
        assert_eq!(store.stats().quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_lru_but_never_last_entry() {
        let dir = temp_dir("evict");
        let (key, artifact) = sample_artifact();
        // Budget of 1 byte: every publish over one entry must evict,
        // but the newest entry always survives.
        let store = DiskStore::open_default(&dir, Some(1));
        store.publish(&key, &artifact);
        assert_eq!(store.stats().entries, 1, "sole entry survives budget");
        let key2 = ArtifactKey {
            config: key.config ^ 1,
            ..key
        };
        store.publish(&key2, &artifact_for(&key2, &artifact));
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        assert!(stats.evicted_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Re-key an artifact for tests that need distinct entries (the
    /// stored strategy must match the key's index for decode to work).
    fn artifact_for(key: &ArtifactKey, base: &CompiledArtifact) -> CompiledArtifact {
        CompiledArtifact {
            program: base.program.clone(),
            strategy: Strategy::ALL[key.strategy as usize],
            partition_cost: base.partition_cost,
            duplicated_vars: base.duplicated_vars,
            duplicated_words: base.duplicated_words,
            partition_passes: base.partition_passes,
            partition_moves: base.partition_moves,
            timings: base.timings.clone(),
            reuse: base.reuse,
        }
    }

    #[test]
    fn unusable_directory_degrades_to_noop() {
        // A file where the directory should be: create_dir_all fails.
        let path =
            std::env::temp_dir().join(format!("dsp-store-unit-blocked-{}", std::process::id()));
        std::fs::write(&path, b"in the way").unwrap();
        let (key, artifact) = sample_artifact();
        let store = DiskStore::open_default(&path, None);
        assert!(store.sweep().error.is_some(), "sweep reports the failure");
        store.publish(&key, &artifact);
        assert!(store.load(&key).is_none());
        let stats = store.stats();
        assert!(stats.errors > 0, "degradation is counted");
        assert_eq!(stats.hits, 0);
        let _ = std::fs::remove_file(&path);
    }
}
