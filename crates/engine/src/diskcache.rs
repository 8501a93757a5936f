//! Persistent content-addressed result cache under the in-memory
//! [`CorpusCache`](crate::cache::CorpusCache).
//!
//! A [`DiskCache`] is one append-only log file, `cache.log`, in a cache
//! directory, indexed in memory by the FNV-64 address of the caller's key
//! material. The cache stores opaque UTF-8 payloads: the corpus pipeline
//! stores an evaluated record in the bit-exact codec below
//! ([`encode_record`] / [`decode_record`], floats as `to_bits` hex so
//! replay is byte-identical to recompute), and `incore-cli serve` stores
//! response JSON verbatim.
//!
//! Each entry is one *frame*: a fixed-width header line
//! `@frame {addr:016x} {len:08x} {sum:016x} {check:08x}` (address, body
//! length, FNV-64 checksum of the body, and a check over the header's own
//! fields), then the body — a format line, the key echo, the payload
//! length and the payload. Opening a cache scans the log into an
//! `addr → (offset, len)` index; a lookup reads its frame back with one
//! positioned read.
//!
//! Robustness properties, each pinned by a test:
//!
//! * **Versioned**: every body starts with a format line. A frame written
//!   by a different format version is *ignored, not read* — the lookup
//!   reports it as stale and recomputes. Key material is expected to carry
//!   the semantic versions (report schema, machine fingerprint, predictor
//!   set), so a semantic change simply misses.
//! * **Crash-safe**: a put appends its whole frame in one `write` on an
//!   `O_APPEND` handle and indexes it only once written, so concurrent
//!   puts of one key never expose a partial entry. A crashed writer leaves
//!   at most a torn frame, which fails its checksum.
//! * **Corruption-tolerant**: a damaged frame costs only itself. The
//!   scanner resynchronises on the next valid header, and a truncated or
//!   scribbled body (checksum, length or key-echo mismatch from a hash
//!   collision) is a miss whose recompute appends a superseding frame.
//! * **Shared**: several handles — other processes — may use one
//!   directory. A lookup that misses the index first catches up from the
//!   log's tail, and reopens and rescans the log if it was replaced.
//! * **Bounded (optionally)**: with a capacity, the index holds at most
//!   that many entries and evicts the oldest-written. Once dead frames
//!   outnumber live ones, the live frames are rewritten to a temp file
//!   that is renamed over the log; a reader of the old log keeps reading
//!   whole frames from it. A frame another process appends between that
//!   rewrite and its rename is dropped, and its next lookup recomputes it.
//!
//! Hits, misses, writes, evictions, and the stale/corrupt breakdown are
//! counted in [`DiskStats`] and exported through the `obs` counters
//! `engine.diskcache.*` by the session (and the serve metrics snapshot).

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Seek, Write};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::error::Error;
use crate::report::{PredictorResult, RecordReport};

/// Format version of the entry body layout. Bumped when the body framing
/// below changes; older entries are then ignored as stale.
const FORMAT: &str = "incore-diskcache v1";

/// Version of the record codec ([`encode_record`]). Part of the key
/// material the session hashes, so a codec change misses cleanly instead
/// of misparsing.
pub const RECORD_CODEC_VERSION: &str = "rec1";

/// The log's file name inside a cache directory.
const LOG_FILE: &str = "cache.log";

/// Every frame header starts with this marker; after a damaged frame the
/// scanner resynchronises on its next occurrence.
const MAGIC: &[u8] = b"@frame ";

/// `@frame {addr:016x} {len:08x} {sum:016x} {check:08x}\n`.
const HEADER_LEN: usize = MAGIC.len() + 16 + 1 + 8 + 1 + 16 + 1 + 8 + 1;

/// Where the header's own check field starts.
const CHECK_AT: usize = HEADER_LEN - 9;

/// Largest body a frame may carry; a header claiming more is damaged.
const MAX_BODY: usize = 1 << 26;

/// Log bytes the scanner reads at a time (a larger frame is read whole).
const SCAN_WINDOW: usize = 1 << 20;

/// Compactions started by this process, to name their temp files apart.
static COMPACTIONS: AtomicU64 = AtomicU64::new(0);

/// Counter snapshot of one [`DiskCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups with no usable entry (includes stale and corrupt).
    pub misses: u64,
    /// Entries written (frames appended to the log).
    pub writes: u64,
    /// Entries removed by the capacity bound.
    pub evictions: u64,
    /// Misses caused by a format-version mismatch (entry left untouched).
    pub stale: u64,
    /// Misses caused by a truncated/damaged entry or key collision.
    pub corrupt: u64,
}

impl DiskStats {
    /// Hit rate over all lookups (0..1; 0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// FNV-1a 64 over one byte slice, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64 fingerprint of an arbitrary blob. Callers compress bulky
/// key material with this before hashing the key proper — the session
/// fingerprints each machine model's JSON so one key part pins the full
/// model without embedding it.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// A second, independent starting state for the verification hash (the
/// FNV offset basis with flipped halves), so an address collision is
/// caught by the key echo inside the entry.
const FNV_OFFSET_ALT: u64 = 0x8422_2325_cbf2_9ce4;

/// Hash the key parts with a separator byte no part can contain
/// un-escaped ambiguity over (parts are length-framed by the separator
/// plus a per-part length fold).
fn hash_key(seed: u64, parts: &[&str]) -> u64 {
    let mut h = seed;
    for p in parts {
        h = fnv1a(h, &(p.len() as u64).to_le_bytes());
        h = fnv1a(h, p.as_bytes());
    }
    h
}

/// Check over a header's leading fields, so a damaged length or address
/// is never believed.
fn header_check(head: &[u8]) -> u32 {
    let h = fnv1a(FNV_OFFSET_ALT, head);
    (h ^ (h >> 32)) as u32
}

/// One whole frame: header, then `body`.
fn encode_frame(addr: u64, body: &str) -> Vec<u8> {
    let head = format!(
        "@frame {addr:016x} {:08x} {:016x} ",
        body.len(),
        fingerprint(body.as_bytes())
    );
    let check = header_check(head.as_bytes());
    format!("{head}{check:08x}\n{body}").into_bytes()
}

struct Header {
    addr: u64,
    len: usize,
    sum: u64,
}

/// Parse the frame header at the start of `bytes`; `None` unless it is
/// whole and passes its own check.
fn parse_header(bytes: &[u8]) -> Option<Header> {
    let b = bytes.get(..HEADER_LEN)?;
    if !b.starts_with(MAGIC) || b[HEADER_LEN - 1] != b'\n' {
        return None;
    }
    let text = std::str::from_utf8(b).ok()?;
    let hex = |at: usize, width: usize| u64::from_str_radix(text.get(at..at + width)?, 16).ok();
    if hex(CHECK_AT, 8)? != header_check(&b[..CHECK_AT]) as u64 {
        return None;
    }
    let addr = hex(MAGIC.len(), 16)?;
    let len = hex(MAGIC.len() + 17, 8)? as usize;
    let sum = hex(MAGIC.len() + 26, 16)?;
    (len <= MAX_BODY).then_some(Header { addr, len, sum })
}

/// Where one entry's frame lives in the log.
#[derive(Clone, Copy)]
struct Slot {
    offset: u64,
    len: u32,
}

fn file_id(meta: &std::fs::Metadata) -> (u64, u64) {
    (meta.dev(), meta.ino())
}

/// One handle's view of the log: the open file, how far it has been
/// scanned, and the index over it.
struct Log {
    /// Read/append handle. Readers clone it, so a lookup in flight keeps
    /// reading the file its slot points into even if the log is replaced.
    file: Arc<File>,
    /// Device and inode of `file`, to notice that the log was replaced.
    id: (u64, u64),
    /// Log bytes already scanned into the index.
    scanned: u64,
    /// Frames in `file` this handle knows of, live or superseded.
    frames: u64,
    index: HashMap<u64, Slot>,
    /// Bounded caches only: `(addr, offset)` of every frame that became
    /// live, in write order, for oldest-first eviction.
    order: Option<VecDeque<(u64, u64)>>,
}

impl Log {
    fn open(path: &Path, bounded: bool) -> std::io::Result<Log> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let meta = file.metadata()?;
        let mut log = Log {
            file: Arc::new(file),
            id: file_id(&meta),
            scanned: 0,
            frames: 0,
            index: HashMap::new(),
            order: bounded.then(VecDeque::new),
        };
        log.scan(meta.len());
        Ok(log)
    }

    /// Index a frame found at `slot`: the later of two frames for one
    /// address (offsets grow in write order) is the live entry. A frame
    /// already indexed — this handle's own put that landed past
    /// `scanned` because another process appended first — is skipped.
    fn record(&mut self, addr: u64, slot: Slot) {
        let known = self.index.get(&addr).map(|s| s.offset);
        if known == Some(slot.offset) {
            return;
        }
        self.frames += 1;
        if known > Some(slot.offset) {
            return;
        }
        self.index.insert(addr, slot);
        if let Some(order) = &mut self.order {
            order.push_back((addr, slot.offset));
        }
    }

    /// Scan the log from `scanned` up to `end` into the index. A frame
    /// that fails its checksum is still indexed (its lookup then reports
    /// why it is unusable), and the scan resynchronises on the next
    /// header marker. A frame running past `end` — torn at the tail, or
    /// still being written by another process — ends the scan there.
    fn scan(&mut self, end: u64) {
        let mut win = Window::default();
        let mut p = self.scanned;
        while end.saturating_sub(p) >= HEADER_LEN as u64 {
            let Some(bytes) = win.read(&self.file, p, HEADER_LEN, end) else {
                break;
            };
            if let Some(h) = parse_header(bytes) {
                let size = HEADER_LEN + h.len;
                if end - p < size as u64 {
                    break;
                }
                let Some(frame) = win.read(&self.file, p, size, end) else {
                    break;
                };
                let whole = fingerprint(&frame[HEADER_LEN..size]) == h.sum;
                let slot = Slot {
                    offset: p,
                    len: h.len as u32,
                };
                self.record(h.addr, slot);
                if whole {
                    p += size as u64;
                    continue;
                }
            }
            match win.find_magic(&self.file, p + 1, end) {
                Some(next) => p = next,
                None => {
                    // Keep the last bytes, which may begin a header still
                    // being written.
                    p = end - (MAGIC.len() as u64 - 1);
                    break;
                }
            }
        }
        self.scanned = p;
    }

    /// Append one whole frame in a single `write`; its offset, or `None`
    /// if the write failed or came up short (a short frame is torn, and
    /// the scanner skips it).
    fn append(&mut self, frame: &[u8]) -> Option<u64> {
        let mut file: &File = &self.file;
        if file.write(frame).ok()? != frame.len() {
            return None;
        }
        let end = file.stream_position().ok()?;
        let offset = end - frame.len() as u64;
        if offset == self.scanned {
            self.scanned = end;
        }
        Some(offset)
    }
}

/// Log bytes read ahead by the scanner.
#[derive(Default)]
struct Window {
    bytes: Vec<u8>,
    at: u64,
}

impl Window {
    /// The log bytes from `offset` to the end of the window, at least
    /// `len` of them (`offset + len <= end`); reads a fresh window when
    /// the current one does not hold them.
    fn read(&mut self, file: &File, offset: u64, len: usize, end: u64) -> Option<&[u8]> {
        let held = offset >= self.at && offset + len as u64 <= self.at + self.bytes.len() as u64;
        if !held {
            let n = (end - offset).min(len.max(SCAN_WINDOW) as u64) as usize;
            self.bytes.resize(n, 0);
            self.at = offset;
            if file.read_exact_at(&mut self.bytes, offset).is_err() {
                self.bytes.clear();
                return None;
            }
        }
        Some(&self.bytes[(offset - self.at) as usize..])
    }

    /// Offset of the first header marker in `from..end`.
    fn find_magic(&mut self, file: &File, mut from: u64, end: u64) -> Option<u64> {
        while end.saturating_sub(from) >= MAGIC.len() as u64 {
            let bytes = self.read(file, from, MAGIC.len(), end)?;
            if let Some(i) = bytes.windows(MAGIC.len()).position(|w| w == MAGIC) {
                return Some(from + i as u64);
            }
            from += (bytes.len() - MAGIC.len() + 1) as u64;
        }
        None
    }
}

/// A cache directory's log plus its in-memory index. Cheap to share
/// behind a reference; all methods take `&self`.
pub struct DiskCache {
    dir: PathBuf,
    path: PathBuf,
    capacity: Option<usize>,
    log: Mutex<Log>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    stale: AtomicU64,
    corrupt: AtomicU64,
}

impl DiskCache {
    /// Open (creating if needed) an unbounded cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DiskCache, Error> {
        DiskCache::open_inner(dir.into(), None)
    }

    /// Open a cache that holds at most `capacity` entries; a put past the
    /// bound evicts the oldest-written entries.
    pub fn open_bounded(dir: impl Into<PathBuf>, capacity: usize) -> Result<DiskCache, Error> {
        DiskCache::open_inner(dir.into(), Some(capacity))
    }

    fn open_inner(dir: PathBuf, capacity: Option<usize>) -> Result<DiskCache, Error> {
        std::fs::create_dir_all(&dir).map_err(|e| Error::io(dir.display().to_string(), &e))?;
        let path = dir.join(LOG_FILE);
        let log = Log::open(&path, capacity.is_some())
            .map_err(|e| Error::io(path.display().to_string(), &e))?;
        let cache = DiskCache {
            dir,
            path,
            capacity,
            log: Mutex::new(log),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        };
        cache.bound(&mut cache.lock());
        Ok(cache)
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up the payload stored under `parts`. Any unusable entry —
    /// missing, stale format, truncated, damaged, or an address collision
    /// — is a miss.
    pub fn get(&self, parts: &[&str]) -> Option<String> {
        let _span = obs::enabled().then(|| obs::span("engine.diskcache.get"));
        let addr = hash_key(FNV_OFFSET, parts);
        let found = {
            let mut log = self.lock();
            if !log.index.contains_key(&addr) {
                self.catch_up(&mut log);
                self.bound(&mut log);
            }
            log.index
                .get(&addr)
                .map(|&slot| (Arc::clone(&log.file), slot))
        };
        let Some((file, slot)) = found else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match read_entry(&file, slot, addr, hash_key(FNV_OFFSET_ALT, parts)) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            Err(EntryDefect::Stale) => {
                self.stale.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(EntryDefect::Corrupt) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `payload` under `parts`. Failures are swallowed (a cache
    /// that cannot write degrades to a recompute, it does not fail the
    /// run); a successful put appends one whole frame to the log.
    pub fn put(&self, parts: &[&str], payload: &str) {
        let _span = obs::enabled().then(|| obs::span("engine.diskcache.put"));
        let addr = hash_key(FNV_OFFSET, parts);
        let verify = hash_key(FNV_OFFSET_ALT, parts);
        let body = format!(
            "{FORMAT}\nkey {verify:016x}\nlen {}\n{payload}",
            payload.len()
        );
        if body.len() > MAX_BODY {
            return;
        }
        let frame = encode_frame(addr, &body);
        let mut log = self.lock();
        let Some(offset) = log.append(&frame) else {
            return;
        };
        let slot = Slot {
            offset,
            len: body.len() as u32,
        };
        log.record(addr, slot);
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bound(&mut log);
    }

    /// Bring the index up to date with the log on disk: reopen the log
    /// if it was replaced (or shrank), else scan what other handles
    /// appended past `scanned`.
    fn catch_up(&self, log: &mut Log) {
        match std::fs::metadata(&self.path) {
            Ok(meta) if file_id(&meta) == log.id && meta.len() >= log.scanned => {
                if meta.len() > log.scanned {
                    log.scan(meta.len());
                }
            }
            _ => {
                if let Ok(fresh) = Log::open(&self.path, self.capacity.is_some()) {
                    *log = fresh;
                }
            }
        }
    }

    /// Bounded caches only: evict the oldest-written entries past the
    /// capacity, then compact the log once dead frames outnumber live
    /// ones.
    fn bound(&self, log: &mut Log) {
        let Some(cap) = self.capacity else { return };
        let Log { index, order, .. } = log;
        let Some(order) = order else { return };
        while index.len() > cap {
            let Some((addr, offset)) = order.pop_front() else {
                break;
            };
            if index.get(&addr).is_some_and(|s| s.offset == offset) {
                index.remove(&addr);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        if log.frames > 2 * log.index.len() as u64 {
            self.compact(log);
        }
    }

    /// Rewrite the live frames, oldest first, to a temp file and rename
    /// it over the log. Lookups in flight keep their handle on the old
    /// file; other handles reopen the new one on their next miss.
    fn compact(&self, log: &mut Log) {
        let Some(order) = &log.order else { return };
        let mut out = Vec::new();
        let mut index = HashMap::with_capacity(log.index.len());
        let mut kept = VecDeque::with_capacity(log.index.len());
        for &(addr, offset) in order {
            let Some(&slot) = log.index.get(&addr).filter(|s| s.offset == offset) else {
                continue;
            };
            let at = out.len();
            out.resize(at + HEADER_LEN + slot.len as usize, 0);
            if log.file.read_exact_at(&mut out[at..], offset).is_err() {
                out.truncate(at);
                continue;
            }
            let moved = Slot {
                offset: at as u64,
                len: slot.len,
            };
            index.insert(addr, moved);
            kept.push_back((addr, moved.offset));
        }
        let tmp = self.dir.join(format!(
            ".{LOG_FILE}.{}.{}.compact",
            std::process::id(),
            COMPACTIONS.fetch_add(1, Ordering::Relaxed)
        ));
        let publish = || -> std::io::Result<(File, std::fs::Metadata)> {
            let mut file = OpenOptions::new()
                .read(true)
                .append(true)
                .create_new(true)
                .open(&tmp)?;
            file.write_all(&out)?;
            std::fs::rename(&tmp, &self.path)?;
            let meta = file.metadata()?;
            Ok((file, meta))
        };
        match publish() {
            Ok((file, meta)) => {
                *log = Log {
                    file: Arc::new(file),
                    id: file_id(&meta),
                    scanned: out.len() as u64,
                    frames: index.len() as u64,
                    index,
                    order: Some(kept),
                };
            }
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

/// Read and check the frame at `slot`: its header must still name `addr`,
/// the body must pass [`parse_entry`] (a foreign format version is stale)
/// and then the frame checksum.
fn read_entry(file: &File, slot: Slot, addr: u64, verify: u64) -> Result<String, EntryDefect> {
    let mut frame = vec![0; HEADER_LEN + slot.len as usize];
    file.read_exact_at(&mut frame, slot.offset)
        .map_err(|_| EntryDefect::Corrupt)?;
    let header = parse_header(&frame)
        .filter(|h| h.addr == addr && h.len == slot.len as usize)
        .ok_or(EntryDefect::Corrupt)?;
    let body = &frame[HEADER_LEN..];
    let text = std::str::from_utf8(body).map_err(|_| EntryDefect::Corrupt)?;
    let payload = parse_entry(text, verify)?;
    if fingerprint(body) != header.sum {
        return Err(EntryDefect::Corrupt);
    }
    Ok(payload)
}

enum EntryDefect {
    /// Different format version: left unread on principle.
    Stale,
    /// Damaged framing, truncation, or key-echo mismatch.
    Corrupt,
}

fn parse_entry(text: &str, verify: u64) -> Result<String, EntryDefect> {
    let mut rest = text;
    let header = take_line(&mut rest).ok_or(EntryDefect::Corrupt)?;
    if header != FORMAT {
        return Err(EntryDefect::Stale);
    }
    let key_line = take_line(&mut rest).ok_or(EntryDefect::Corrupt)?;
    let echoed = key_line
        .strip_prefix("key ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or(EntryDefect::Corrupt)?;
    if echoed != verify {
        return Err(EntryDefect::Corrupt);
    }
    let len_line = take_line(&mut rest).ok_or(EntryDefect::Corrupt)?;
    let len: usize = len_line
        .strip_prefix("len ")
        .and_then(|n| n.parse().ok())
        .ok_or(EntryDefect::Corrupt)?;
    if rest.len() != len {
        return Err(EntryDefect::Corrupt);
    }
    Ok(rest.to_string())
}

fn take_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let nl = rest.find('\n')?;
    let line = &rest[..nl];
    *rest = &rest[nl + 1..];
    Some(line)
}

/// Bit-exact hex form of an `f64` (round-trips through [`bits_f64`]).
fn f64_bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn bits_f64(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Serialize the *computed* part of a record — measurement, predictions,
/// divergence codes — for a disk entry. The descriptive labels (kernel /
/// compiler / opt / chip) are deliberately not stored: they are re-stamped
/// from the work grid at replay, so two grid blocks that generate
/// identical assembly on the same machine share one entry.
pub fn encode_record(r: &RecordReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "measured {}",
        r.measured.map(f64_bits).unwrap_or_else(|| "-".into())
    );
    let _ = writeln!(
        out,
        "divergence {}",
        if r.divergence.is_empty() {
            "-".to_string()
        } else {
            r.divergence.join(",")
        }
    );
    let _ = writeln!(out, "predictions {}", r.predictions.len());
    for p in &r.predictions {
        let _ = write!(
            out,
            "pred {} {} {}",
            f64_bits(p.cycles_per_iter),
            p.rpe.map(f64_bits).unwrap_or_else(|| "-".into()),
            f64_bits(p.uops_per_iter),
        );
        for v in &p.port_pressure {
            let _ = write!(out, " {}", f64_bits(*v));
        }
        out.push('\n');
        let _ = writeln!(out, "name {}", p.predictor);
        let _ = writeln!(out, "bn {}", p.bottleneck);
    }
    out
}

/// Inverse of [`encode_record`]: rebuild a full record by combining the
/// stored computation with the caller's labels. `None` on any mismatch —
/// the caller treats that as a miss and recomputes.
pub fn decode_record(
    payload: &str,
    kernel: &str,
    compiler: &str,
    opt: &str,
    chip: &str,
) -> Option<RecordReport> {
    let mut lines = payload.lines();
    let measured = match lines.next()?.strip_prefix("measured ")? {
        "-" => None,
        bits => Some(bits_f64(bits)?),
    };
    let divergence = match lines.next()?.strip_prefix("divergence ")? {
        "-" => Vec::new(),
        codes => codes.split(',').map(str::to_string).collect(),
    };
    let count: usize = lines.next()?.strip_prefix("predictions ")?.parse().ok()?;
    let mut predictions = Vec::with_capacity(count);
    for _ in 0..count {
        let nums = lines.next()?.strip_prefix("pred ")?;
        let mut it = nums.split(' ');
        let cycles_per_iter = bits_f64(it.next()?)?;
        let rpe = match it.next()? {
            "-" => None,
            bits => Some(bits_f64(bits)?),
        };
        let uops_per_iter = bits_f64(it.next()?)?;
        let port_pressure = it.map(bits_f64).collect::<Option<Vec<f64>>>()?;
        let predictor = lines.next()?.strip_prefix("name ")?.to_string();
        let bottleneck = lines.next()?.strip_prefix("bn ")?.to_string();
        predictions.push(PredictorResult {
            predictor,
            cycles_per_iter,
            rpe,
            bottleneck,
            port_pressure,
            uops_per_iter,
        });
    }
    if lines.next().is_some() {
        return None;
    }
    Some(RecordReport {
        kernel: kernel.to_string(),
        compiler: compiler.to_string(),
        opt: opt.to_string(),
        chip: chip.to_string(),
        measured,
        predictions,
        divergence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "incore-diskcache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Byte offsets of the frame headers in a log.
    fn frame_starts(log: &[u8]) -> Vec<usize> {
        log.windows(MAGIC.len())
            .enumerate()
            .filter(|(_, w)| *w == MAGIC)
            .map(|(i, _)| i)
            .collect()
    }

    /// Overwrite log bytes in place, at the same length.
    fn patch(log: &Path, offset: usize, bytes: &[u8]) {
        let file = OpenOptions::new().write(true).open(log).unwrap();
        file.write_all_at(bytes, offset as u64).unwrap();
    }

    #[test]
    fn round_trips_payloads() {
        let dir = tmpdir("rt");
        let cache = DiskCache::open(&dir).unwrap();
        let key = ["v1", "machine", "text"];
        assert_eq!(cache.get(&key), None);
        cache.put(&key, "hello\nworld");
        assert_eq!(cache.get(&key).as_deref(), Some("hello\nworld"));
        // A different key misses independently.
        assert_eq!(cache.get(&["v1", "machine", "other"]), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.writes), (1, 2, 1));
        // Reopening sees the same entry (persistence).
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.get(&key).as_deref(), Some("hello\nworld"));
        // One log file, no per-entry files.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [LOG_FILE]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn log_larger_than_a_scan_window_reopens_whole() {
        let dir = tmpdir("window");
        let cache = DiskCache::open(&dir).unwrap();
        let value = |i: usize| format!("{i} {}", "w".repeat(4000 + i));
        let entries = 2 * SCAN_WINDOW / 4000;
        for i in 0..entries {
            cache.put(&[&i.to_string()], &value(i));
        }
        let reopened = DiskCache::open(&dir).unwrap();
        for i in 0..entries {
            assert_eq!(reopened.get(&[&i.to_string()]), Some(value(i)), "entry {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_version_is_ignored_not_read() {
        let dir = tmpdir("stale");
        let cache = DiskCache::open(&dir).unwrap();
        let key = ["k"];
        cache.put(&key, "payload");
        let log = dir.join(LOG_FILE);
        let text = std::fs::read_to_string(&log).unwrap();
        // Stamp the frame with another format version, in place.
        patch(&log, text.find(FORMAT).unwrap(), b"incore-diskcache v0");
        let stamped = std::fs::read_to_string(&log).unwrap();
        assert_eq!(stamped.len(), text.len());
        assert_eq!(cache.get(&key), None);
        assert_eq!(cache.stats().stale, 1);
        // A handle opened on the stamped log indexes the frame and sees
        // the same stale stamp.
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.get(&key), None);
        assert_eq!((reopened.stats().stale, reopened.stats().corrupt), (1, 0));
        // The stale frame was not deleted — ignored, recompute supersedes.
        assert_eq!(std::fs::read_to_string(&log).unwrap(), stamped);
        cache.put(&key, "fresh");
        assert_eq!(cache.get(&key).as_deref(), Some("fresh"));
        assert!(std::fs::read_to_string(&log).unwrap().starts_with(&stamped));
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.get(&key).as_deref(), Some("fresh"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let dir = tmpdir("trunc");
        let cache = DiskCache::open(&dir).unwrap();
        let key = ["k"];
        cache.put(&key, "a longer payload that will be cut short");
        let log = dir.join(LOG_FILE);
        let len = std::fs::metadata(&log).unwrap().len();
        let file = OpenOptions::new().write(true).open(&log).unwrap();
        file.set_len(len - 10).unwrap();
        assert_eq!(cache.get(&key), None);
        assert_eq!(cache.stats().corrupt, 1);
        // A fresh handle finds a torn tail frame: a plain miss. The
        // recompute appends after it and heals the key.
        let reopened = DiskCache::open(&dir).unwrap();
        assert_eq!(reopened.get(&key), None);
        reopened.put(&key, "healed");
        let healed = DiskCache::open(&dir).unwrap();
        assert_eq!(healed.get(&key).as_deref(), Some("healed"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_mid_log_costs_only_that_frame() {
        let dir = tmpdir("midlog");
        let cache = DiskCache::open(&dir).unwrap();
        let key = |i: usize| format!("key {i}");
        let value = |i: usize| format!("value {i}: {}", "v".repeat(40 + i));
        for i in 0..9 {
            cache.put(&[&key(i)], &value(i));
        }
        let log = dir.join(LOG_FILE);
        let mut bytes = std::fs::read(&log).unwrap();
        let starts = frame_starts(&bytes);
        assert_eq!(starts.len(), 9);
        // Scribble over the end of frame 4's payload...
        bytes[starts[5] - 3..starts[5]].copy_from_slice(b"###");
        // ...and cut frame 2 short, as a crashed writer would leave it,
        // with whole frames after it.
        bytes.drain(starts[3] - 5..starts[3]);
        std::fs::write(&log, &bytes).unwrap();
        let reopened = DiskCache::open(&dir).unwrap();
        for i in 0..9 {
            let want = (i != 2 && i != 4).then(|| value(i));
            assert_eq!(reopened.get(&[&key(i)]), want, "entry {i}");
        }
        let s = reopened.stats();
        assert_eq!((s.hits, s.misses, s.corrupt, s.stale), (7, 2, 2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_cache_evicts_oldest() {
        let dir = tmpdir("evict");
        let cache = DiskCache::open_bounded(&dir, 2).unwrap();
        cache.put(&["a"], "1");
        cache.put(&["b"], "2");
        cache.put(&["c"], "3");
        assert_eq!(cache.stats().evictions, 1);
        let live = [["a"], ["b"], ["c"]]
            .iter()
            .filter(|k| cache.get(k.as_slice()).is_some())
            .count();
        assert_eq!(live, 2, "exactly one of the three entries was evicted");
        assert_eq!(cache.get(&["a"]), None, "the oldest-written entry went");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_log_is_compacted() {
        let dir = tmpdir("compact");
        let cache = DiskCache::open_bounded(&dir, 4).unwrap();
        let log = dir.join(LOG_FILE);
        for i in 0..64 {
            cache.put(&[&i.to_string()], &format!("value {i}"));
            let frames = frame_starts(&std::fs::read(&log).unwrap()).len();
            assert!(frames <= 8, "dead frames outnumber live ones: {frames}");
        }
        assert_eq!(cache.stats().evictions, 60);
        // A fresh handle holds exactly the four newest entries.
        let reopened = DiskCache::open_bounded(&dir, 4).unwrap();
        for i in 0..64 {
            let want = (i >= 60).then(|| format!("value {i}"));
            assert_eq!(reopened.get(&[&i.to_string()]), want, "entry {i}");
        }
        assert_eq!(reopened.stats().evictions, 0);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [LOG_FILE], "no compaction temp file is left");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Threads of one process putting the same key must each write a
    /// whole entry: no put is lost and no reader sees a partial one.
    #[test]
    fn concurrent_puts_of_one_key_are_whole() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 50;
        let dir = tmpdir("race");
        let cache = DiskCache::open(&dir).unwrap();
        let key = ["one key"];
        let payload = |t: usize, i: usize| format!("{t} {i} {}", "x".repeat(4096 + 64 * t));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..ROUNDS {
                        cache.put(&key, &payload(t, i));
                        let got = cache.get(&key).expect("a put key hits");
                        let mut it = got.splitn(3, ' ');
                        let (Some(t), Some(i)) = (it.next(), it.next()) else {
                            panic!("partial payload: {got:?}");
                        };
                        let (t, i) = (t.parse().unwrap(), i.parse().unwrap());
                        assert_eq!(got, payload(t, i), "partial payload");
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.writes, (THREADS * ROUNDS) as u64, "every put is written");
        assert_eq!(s.hits, (THREADS * ROUNDS) as u64);
        assert_eq!(s.corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two handles on one directory stand in for two processes.
    #[test]
    fn second_handle_catches_up_and_survives_compaction() {
        let dir = tmpdir("handles");
        let key = |i: usize| format!("k{i}");
        let value = |i: usize| format!("value {i} {}", "y".repeat(i % 97));
        let reader = DiskCache::open(&dir).unwrap();
        let writer = DiskCache::open_bounded(&dir, 8).unwrap();
        writer.put(&[&key(0)], &value(0));
        // The reader opened before the put: its index misses, and the
        // tail catch-up finds the writer's frame.
        assert_eq!(reader.get(&[&key(0)]), Some(value(0)));
        // The writer compacts the log many times over while the reader
        // looks up: a hit is always the whole payload of its own key.
        const KEYS: usize = 400;
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 1..KEYS {
                    writer.put(&[&key(i)], &value(i));
                }
            });
            s.spawn(|| {
                for n in 0..4 * KEYS {
                    let i = (n * 7) % KEYS;
                    if let Some(got) = reader.get(&[&key(i)]) {
                        assert_eq!(got, value(i), "entry {i}");
                    }
                }
            });
        });
        assert!(writer.stats().evictions > 0);
        assert_eq!(reader.stats().corrupt, 0);
        // The reader reopens the replaced log and sees the newest entry.
        assert_eq!(reader.get(&[&key(KEYS - 1)]), Some(value(KEYS - 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_codec_is_bit_exact() {
        let rec = RecordReport {
            kernel: "K".into(),
            compiler: "gcc".into(),
            opt: "-O3".into(),
            chip: "SPR".into(),
            measured: Some(3.7500000000000004),
            predictions: vec![PredictorResult {
                predictor: "incore".into(),
                cycles_per_iter: 1.0 / 3.0,
                rpe: Some(-0.1),
                bottleneck: "port pressure".into(),
                port_pressure: vec![0.5, f64::MIN_POSITIVE, 2.25],
                uops_per_iter: 6.0,
            }],
            divergence: vec!["D001".into()],
        };
        let payload = encode_record(&rec);
        let back = decode_record(&payload, "K", "gcc", "-O3", "SPR").unwrap();
        assert_eq!(
            serde_json::to_string(&rec).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        // No-measurement, no-pressure records round-trip too.
        let bare = RecordReport {
            measured: None,
            divergence: Vec::new(),
            predictions: vec![PredictorResult {
                rpe: None,
                port_pressure: Vec::new(),
                ..rec.predictions[0].clone()
            }],
            ..rec.clone()
        };
        let back = decode_record(&encode_record(&bare), "K", "gcc", "-O3", "SPR").unwrap();
        assert_eq!(
            serde_json::to_string(&bare).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
    }

    #[test]
    fn damaged_payload_decodes_to_none() {
        assert!(decode_record("measured zzz\n", "k", "c", "o", "ch").is_none());
        assert!(decode_record("", "k", "c", "o", "ch").is_none());
        assert!(decode_record(
            "measured -\ndivergence -\npredictions 2\n",
            "k",
            "c",
            "o",
            "ch"
        )
        .is_none());
    }
}
