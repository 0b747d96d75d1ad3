//! # nanobench-store — persistent content-addressed result store
//!
//! Campaigns (Table I inference, instruction-table sweeps) are
//! embarrassingly re-computable: every job is a pure function of its
//! benchmark spec, the simulated microarchitecture, and a seed. This crate
//! makes finished job results durable across processes so a re-run only
//! executes new or changed jobs, and an interrupted campaign resumes from
//! whatever already completed.
//!
//! * [`StoreKey`] is the content address: `(spec hash, uarch fingerprint,
//!   seed, result-format version)`. Changing any ingredient — the benchmark
//!   code, the machine configuration, the seed, or the serialization
//!   format of the cached value — changes the key, so stale results are
//!   never returned; they are simply recomputed under the new key.
//! * [`ResultStore`] is the store itself: an append-only record log on
//!   disk plus an in-memory index loaded at [`ResultStore::open`]. Writes
//!   are atomic at record granularity (one `write_all` of a fully
//!   serialized record); loading is corruption-tolerant — a truncated or
//!   garbled tail record is discarded and its jobs recompute, never a
//!   panic.
//! * [`Fnv1a`] is a stable [`Hasher`]: unlike `DefaultHasher`, its output
//!   is specified (FNV-1a over little-endian byte encodings), so keys
//!   derived from it stay valid across processes and toolchain versions.
//!
//! * [`ByteWriter`] / [`ByteReader`] are the one byte codec: little-endian
//!   integers, IEEE-754 bit patterns and length-prefixed strings. The
//!   record framing and every cached value's encoding are written with
//!   them.
//!
//! The store holds raw byte payloads; callers own the value encoding and
//! version it through [`StoreKey::version`] (see `BenchmarkResult`'s store
//! codec in `nanobench-core`, `TableRow`'s in `nanobench-inst-tools` and
//! the policy-fit codec in `nanobench-cache-tools`).
//! [`ResultStore::get_or_compute`] is the one get-or-compute path the
//! stored drivers share.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::hash::{Hash, Hasher};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every store file (the trailing `1` is the framing
/// version; bumping it orphans old files entirely).
const MAGIC: &[u8; 8] = b"NBSTORE1";

/// Fixed-size part of a record: three `u64` key fields, the `u32` format
/// version, and the `u32` payload length.
const RECORD_HEADER_LEN: usize = 8 + 8 + 8 + 4 + 4;

/// Trailing FNV-1a checksum over header + payload.
const CHECKSUM_LEN: usize = 8;

/// Upper bound on a single payload; anything larger in the log is treated
/// as corruption (real payloads are a few hundred bytes).
const MAX_VALUE_LEN: usize = 1 << 28;

/// A stable FNV-1a [`Hasher`].
///
/// `std::collections::hash_map::DefaultHasher` is only deterministic
/// within one process lifetime *by accident* and explicitly unspecified
/// across Rust versions — useless for keys that live on disk. `Fnv1a`
/// hashes the little-endian encoding of every integer write, so a key
/// derived from `value.hash(&mut Fnv1a::new())` is reproducible anywhere.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// FNV-1a offset basis.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a prime.
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(Self::OFFSET)
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(Self::PRIME);
        }
    }

    // Fix the integer encodings to little-endian: the default
    // implementations use native-endian bytes, which would silently
    // derive different keys on a big-endian host.
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_u128(&mut self, i: u128) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_usize(i as usize);
    }
}

/// Hashes any [`Hash`] value with the stable [`Fnv1a`] hasher.
pub fn fingerprint<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv1a::new();
    value.hash(&mut h);
    h.finish()
}

/// Appends little-endian fields to a byte payload.
///
/// Strings are a `u32` byte length followed by their UTF-8 bytes; floats
/// are their IEEE-754 bits, so a round trip is bit-exact (negative zero
/// stays negative zero).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty payload.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) -> &mut ByteWriter {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) -> &mut ByteWriter {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) -> &mut ByteWriter {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a float's IEEE-754 bits, little-endian.
    pub fn put_f64(&mut self, v: f64) -> &mut ByteWriter {
        self.put_u64(v.to_bits())
    }

    /// Appends a `u32` length prefix and the bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is 4 GiB or longer: the prefix could not hold its
    /// length, and a truncated prefix would corrupt every later field.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> &mut ByteWriter {
        let len = u32::try_from(bytes.len()).expect("store fields are under 4 GiB");
        self.put_u32(len);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) -> &mut ByteWriter {
        self.put_bytes(s.as_bytes())
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads the fields a [`ByteWriter`] wrote, in the same order.
///
/// Every `take_*` returns `None` when the input is too short, so a
/// truncated or corrupt payload decodes to `None` without panicking; a
/// length prefix is checked against the remaining input before anything
/// is sliced, so a bogus length never allocates.
#[derive(Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { rest: bytes }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, tail) = self.rest.split_at_checked(n)?;
        self.rest = tail;
        Some(head)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads a float from its IEEE-754 bits.
    pub fn take_f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.take_u64()?))
    }

    /// Reads length-prefixed bytes.
    pub fn take_bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed string; `None` if it is not UTF-8.
    pub fn take_str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.take_bytes()?).ok()
    }

    /// Ends decoding: `Some(value)` only if the whole input was consumed,
    /// so trailing bytes make the payload malformed.
    pub fn finish<T>(self, value: T) -> Option<T> {
        self.rest.is_empty().then_some(value)
    }
}

/// The content address of one stored result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Hash of the job specification (benchmark code, events, measurement
    /// settings — everything the job computes *from*).
    pub spec: u64,
    /// Fingerprint of the simulated machine configuration (uarch, mode,
    /// core count, cache geometry and policies — everything the job
    /// computes *on*).
    pub uarch: u64,
    /// The job's machine seed.
    pub seed: u64,
    /// Version of the value encoding. Bumping it invalidates every record
    /// written under the old version — old records stay in the log but are
    /// never returned for new-version keys.
    pub version: u32,
}

/// Hit/miss/insert counters of one open store handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing (the caller recomputes).
    pub misses: u64,
    /// Records appended to the log by this handle.
    pub inserts: u64,
}

/// Errors opening or appending to a store.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed.
    Io(std::io::Error),
    /// The file exists but does not start with the store magic — refusing
    /// to treat (and eventually truncate) a foreign file as a store.
    NotAStore(PathBuf),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::NotAStore(p) => {
                write!(f, "{} is not a nanobench result store", p.display())
            }
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::NotAStore(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Mutable store state behind the handle's mutex: the index, the open
/// append handle, and the counters.
#[derive(Debug)]
struct Inner {
    index: HashMap<StoreKey, Vec<u8>>,
    file: File,
    stats: StoreStats,
}

/// A file-backed, content-addressed result store.
///
/// One handle is safely shared across campaign worker threads (`&self`
/// methods, internal mutex). Multiple *processes* appending to the same
/// file concurrently are not coordinated — the intended cross-process use
/// is sequential re-runs, where each run opens the log left by the last.
///
/// # Examples
///
/// ```
/// use nanobench_store::{ResultStore, StoreKey};
///
/// let path = std::env::temp_dir().join(format!("nbstore-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_file(&path);
/// let key = StoreKey { spec: 1, uarch: 2, seed: 3, version: 1 };
/// {
///     let store = ResultStore::open(&path).unwrap();
///     assert_eq!(store.get(&key), None);
///     store.insert(key, b"result bytes").unwrap();
/// }
/// // A later process finds the record again.
/// let store = ResultStore::open(&path).unwrap();
/// assert_eq!(store.get(&key).as_deref(), Some(&b"result bytes"[..]));
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub struct ResultStore {
    inner: Mutex<Inner>,
    path: PathBuf,
}

impl ResultStore {
    /// Opens (or creates) the store at `path`, loading every intact record
    /// into the in-memory index.
    ///
    /// Loading is corruption-tolerant: records are validated in log order
    /// and the scan stops at the first truncated or checksum-failing
    /// record; the bad tail is cut off so subsequent appends keep the log
    /// parseable. The jobs behind discarded records simply recompute.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::NotAStore`]
    /// if `path` holds data that does not begin with the store magic (a
    /// foreign file is never truncated).
    pub fn open(path: impl AsRef<Path>) -> Result<ResultStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        let data = match std::fs::read(&path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::Io(e)),
        };

        // A partially written header (crash during creation) counts as an
        // empty store; any other non-magic prefix is a foreign file.
        let header_ok = data.len() >= MAGIC.len() && data[..MAGIC.len()] == MAGIC[..];
        if !header_ok && !MAGIC.starts_with(&data[..data.len().min(MAGIC.len())]) {
            return Err(StoreError::NotAStore(path));
        }

        let mut index = HashMap::new();
        let mut good_end = if header_ok { MAGIC.len() } else { 0 };
        if header_ok {
            while let Some((key, payload)) = read_record(&data, good_end) {
                good_end += RECORD_HEADER_LEN + payload.len() + CHECKSUM_LEN;
                index.insert(key, payload);
            }
        }

        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        if good_end == 0 {
            file.set_len(0)?;
            file.write_all(MAGIC)?;
        } else if (good_end as u64) < data.len() as u64 {
            // Cut off the corrupt tail so the records appended below land
            // on a clean boundary.
            file.set_len(good_end as u64)?;
        }
        file.seek(SeekFrom::End(0))?;

        Ok(ResultStore {
            inner: Mutex::new(Inner {
                index,
                file,
                stats: StoreStats::default(),
            }),
            path,
        })
    }

    /// Looks up a result, counting a hit or a miss.
    pub fn get(&self, key: &StoreKey) -> Option<Vec<u8>> {
        let mut inner = self.lock();
        match inner.index.get(key).cloned() {
            Some(value) => {
                inner.stats.hits += 1;
                Some(value)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Publishes a result: appends one record to the log (a single write
    /// of the fully serialized record) and indexes it. Re-inserting a key
    /// with its already-stored value is a no-op, so warm re-runs that
    /// publish unconditionally do not grow the log.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the append fails; the index is only updated
    /// after the record is on its way to disk.
    pub fn insert(&self, key: StoreKey, value: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.lock();
        if inner.index.get(&key).is_some_and(|v| v == value) {
            return Ok(());
        }
        let record = encode_record(&key, value);
        inner.file.write_all(&record)?;
        inner.file.flush()?;
        inner.index.insert(key, value.to_vec());
        inner.stats.inserts += 1;
        Ok(())
    }

    /// The one get-or-compute path of the stored drivers: answers `key`
    /// from the store when it holds a payload `decode` accepts, otherwise
    /// runs `compute` and publishes the value's `encode`ing. An
    /// undecodable payload (corruption, a stale encoding) counts as a hit
    /// in [`ResultStore::stats`] but is recomputed and overwritten — never
    /// an error.
    ///
    /// # Errors
    ///
    /// The compute error `E`, or the publish step's [`StoreError`]
    /// converted into it; nothing is stored when `compute` fails.
    pub fn get_or_compute<T, E: From<StoreError>>(
        &self,
        key: StoreKey,
        decode: impl FnOnce(&[u8]) -> Option<T>,
        encode: impl FnOnce(&T) -> Vec<u8>,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        if let Some(hit) = self.get(&key).and_then(|bytes| decode(&bytes)) {
            return Ok(hit);
        }
        let value = compute()?;
        self.insert(key, &encode(&value))?;
        Ok(value)
    }

    /// This handle's hit/miss/insert counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Number of distinct keys in the index.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Locks the inner state; a poisoned lock (a panicking worker thread)
    /// still yields the data — the store itself never panics over it.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Serializes one record: key fields, length-prefixed payload, and a
/// trailing FNV-1a checksum over everything before it.
fn encode_record(key: &StoreKey, value: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter {
        buf: Vec::with_capacity(RECORD_HEADER_LEN + value.len() + CHECKSUM_LEN),
    };
    w.put_u64(key.spec)
        .put_u64(key.uarch)
        .put_u64(key.seed)
        .put_u32(key.version)
        .put_bytes(value);
    let mut h = Fnv1a::new();
    h.write(w.as_bytes());
    w.put_u64(h.finish());
    w.into_bytes()
}

/// Parses the record at `offset`, returning `None` for a clean end of log
/// *or* any inconsistency (truncation, oversized length, bad checksum) —
/// the caller treats both as "the log ends here".
fn read_record(data: &[u8], offset: usize) -> Option<(StoreKey, Vec<u8>)> {
    let rest = data.get(offset..)?;
    let mut r = ByteReader::new(rest);
    let key = StoreKey {
        spec: r.take_u64()?,
        uarch: r.take_u64()?,
        seed: r.take_u64()?,
        version: r.take_u32()?,
    };
    let payload = r.take_bytes()?;
    if payload.len() > MAX_VALUE_LEN {
        return None;
    }
    let mut h = Fnv1a::new();
    h.write(&rest[..RECORD_HEADER_LEN + payload.len()]);
    (r.take_u64()? == h.finish()).then(|| (key, payload.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nbstore-unit-{}-{tag}", std::process::id()))
    }

    fn key(n: u64) -> StoreKey {
        StoreKey {
            spec: n,
            uarch: n ^ 0xABCD,
            seed: n.wrapping_mul(7),
            version: 1,
        }
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned values: these must never change, or every store on disk
        // silently invalidates.
        assert_eq!(fingerprint(&42u64), {
            let mut h = Fnv1a::new();
            h.write(&42u64.to_le_bytes());
            h.finish()
        });
        let mut h = Fnv1a::new();
        h.write(b"nanobench");
        assert_eq!(h.finish(), 0xee71_689e_3016_35db);
    }

    /// Decodes the `(name, value, flag)` layout the writer test builds.
    fn decode_sample(bytes: &[u8]) -> Option<(String, f64, u8)> {
        let mut r = ByteReader::new(bytes);
        let name = r.take_str()?.to_string();
        let value = r.take_f64()?;
        let flag = r.take_u8()?;
        r.finish((name, value, flag))
    }

    #[test]
    fn byte_codec_round_trips_and_rejects_malformed_input() {
        let mut w = ByteWriter::new();
        w.put_str("L1").put_f64(-0.0).put_u8(7);
        let good = w.into_bytes();
        assert_eq!(hex(&good), "020000004c31000000000000008007");
        let (name, value, flag) = decode_sample(&good).unwrap();
        assert_eq!((name.as_str(), flag), ("L1", 7));
        assert_eq!(value.to_bits(), (-0.0f64).to_bits());

        let mut trailing = good.clone();
        trailing.push(0);
        let mut bad_utf8 = good.clone();
        bad_utf8[4] = 0xFF;
        let mut huge_len = good.clone();
        huge_len[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let cases: [(&str, &[u8]); 6] = [
            ("empty", &[]),
            ("truncated", &good[..good.len() - 1]),
            ("truncated inside the string", &good[..5]),
            ("trailing bytes", &trailing),
            ("invalid UTF-8", &bad_utf8),
            ("u32::MAX length prefix", &huge_len),
        ];
        for (what, bytes) in cases {
            assert_eq!(decode_sample(bytes), None, "{what}");
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn get_or_compute_decodes_hits_and_publishes_misses() {
        let path = temp_path("get-or-compute");
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::open(&path).unwrap();
        let decode = |b: &[u8]| (b.len() == 1).then(|| b[0]);
        let encode = |v: &u8| vec![*v];
        let cold: Result<u8, StoreError> = store.get_or_compute(key(1), decode, encode, || Ok(5));
        assert_eq!(cold.unwrap(), 5);
        let warm: Result<u8, StoreError> =
            store.get_or_compute(key(1), decode, encode, || unreachable!("answered warm"));
        assert_eq!(warm.unwrap(), 5);
        // An undecodable payload recomputes and overwrites.
        store.insert(key(2), b"garbage").unwrap();
        let healed: Result<u8, StoreError> = store.get_or_compute(key(2), decode, encode, || Ok(9));
        assert_eq!(healed.unwrap(), 9);
        assert_eq!(store.get(&key(2)).as_deref(), Some(&[9u8][..]));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (3, 1, 3));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn insert_get_and_reopen() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        {
            let store = ResultStore::open(&path).unwrap();
            assert!(store.is_empty());
            store.insert(key(1), b"one").unwrap();
            store.insert(key(2), b"two").unwrap();
            assert_eq!(store.get(&key(1)).as_deref(), Some(&b"one"[..]));
            assert_eq!(store.get(&key(3)), None);
            let stats = store.stats();
            assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 2));
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(&key(2)).as_deref(), Some(&b"two"[..]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_insert_is_idempotent_and_last_value_wins() {
        let path = temp_path("dup");
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::open(&path).unwrap();
        store.insert(key(1), b"a").unwrap();
        let len_after_first = std::fs::metadata(&path).unwrap().len();
        store.insert(key(1), b"a").unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len_after_first,
            "same-value re-insert must not grow the log"
        );
        store.insert(key(1), b"b").unwrap();
        assert_eq!(store.get(&key(1)).as_deref(), Some(&b"b"[..]));
        drop(store);
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 1, "one key despite two log records");
        assert_eq!(
            store.get(&key(1)).as_deref(),
            Some(&b"b"[..]),
            "replay keeps the last record"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_file_is_refused() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"definitely not a store file").unwrap();
        match ResultStore::open(&path) {
            Err(StoreError::NotAStore(p)) => assert_eq!(p, path),
            other => panic!("expected NotAStore, got {other:?}"),
        }
        // And the foreign file is untouched.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"definitely not a store file"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_partial_header_files_become_stores() {
        for (tag, content) in [("empty", &b""[..]), ("partial", &b"NBST"[..])] {
            let path = temp_path(tag);
            std::fs::write(&path, content).unwrap();
            let store = ResultStore::open(&path).unwrap();
            assert!(store.is_empty());
            store.insert(key(9), b"v").unwrap();
            drop(store);
            let store = ResultStore::open(&path).unwrap();
            assert_eq!(store.get(&key(9)).as_deref(), Some(&b"v"[..]));
            std::fs::remove_file(&path).unwrap();
        }
    }
}
