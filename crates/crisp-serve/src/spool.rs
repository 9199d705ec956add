//! Durable spool I/O: fsync'd atomic writes, checksummed manifests, and
//! quarantine of torn or corrupt entries.
//!
//! Everything the daemon persists — preemption checkpoints, emergency
//! checkpoints, the shutdown manifest — goes through the [`SpoolIo`]
//! trait, so disk faults are *injectable*: tests swap in [`FaultSpool`]
//! and prove the daemon degrades instead of dying.
//!
//! ## Durability contract
//!
//! [`DiskSpool::write_atomic`] writes a temp file in the target
//! directory, `fsync`s it, renames it over the destination, and `fsync`s
//! the directory — the strongest ordering POSIX rename offers. A reader
//! therefore sees either the old bytes or the new bytes, never a torn
//! mix, even across power loss.
//!
//! ## Corruption detection
//!
//! The manifest body is framed by [`seal`]/[`open`]: magic, version, a
//! CRC-32 of the payload, then the payload. Any torn write, bit flip, or
//! truncation fails the checksum; [`open`] returns a typed
//! [`SpoolError`] and the caller [`quarantine`]s the file (rename to
//! `<name>.quarantined-<n>`) instead of aborting — the daemon starts
//! empty-but-alive and the evidence is preserved for inspection.
//!
//! ## Disk-full degradation
//!
//! [`is_disk_full`] recognizes `ENOSPC` (and the injected equivalent):
//! the daemon reacts by dropping to in-memory-only operation — no more
//! checkpoint writes, park requests declined — rather than failing jobs
//! or crashing. See `server.rs` for the policy; this module only
//! classifies.

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Magic prefix of a sealed spool manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"CRSPSRVM";

/// Current manifest format version. v1 had no checksum; v2 encoded the
/// payload with the protocol's former flat little-endian layout; v3
/// encodes it with [`crisp_ckpt::Wire`]. Readers refuse every other
/// version cleanly (quarantine).
pub const MANIFEST_VERSION: u32 = 3;

/// Sealed-frame overhead: magic (8) + version (4) + crc (4) + len (8).
const HEADER_LEN: usize = 24;

/// Pluggable spool persistence. Implementations must be safe to call
/// from worker threads concurrently.
pub trait SpoolIo: Send + Sync {
    /// Durably replace `path` with `bytes`: crash-safe (old-or-new, never
    /// torn) and fsync'd through to the directory entry.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (including `ENOSPC`).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Read a file the spool wrote.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Remove a file the spool wrote. Missing files are not an error.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than `NotFound`.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem implementation.
#[derive(Debug, Default)]
pub struct DiskSpool;

impl SpoolIo for DiskSpool {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        };
        fs::create_dir_all(&parent)?;
        // Temp name is unique per (pid, path) — concurrent writers to
        // *different* paths never collide, and a leftover temp from a
        // crash is simply overwritten next time.
        let tmp = path.with_extension("tmp");
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Data must be on stable storage *before* the rename publishes
        // it, or a crash can expose a named-but-empty file.
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        // The rename itself lives in the directory; fsync that too so
        // the publish survives power loss. Best-effort on filesystems
        // that refuse directory handles.
        if let Ok(dir) = fs::File::open(&parent) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// A fault-injecting [`SpoolIo`] for tests: wraps a real [`DiskSpool`]
/// and fails writes on demand.
///
/// Two knobs, both safe to flip while the daemon runs:
///
/// * [`fail_next_writes`](FaultSpool::fail_next_writes) — the next `n`
///   writes fail with `ENOSPC` (disk full), then recover;
/// * [`fail_all_writes`](FaultSpool::fail_all_writes) — every write
///   fails until [`heal`](FaultSpool::heal).
#[derive(Debug, Default)]
pub struct FaultSpool {
    disk: DiskSpool,
    /// Remaining injected failures; `u32::MAX` means "until healed".
    failures: AtomicU32,
}

impl FaultSpool {
    /// A healthy fault spool (no failures armed).
    #[must_use]
    pub fn new() -> Arc<FaultSpool> {
        Arc::new(FaultSpool::default())
    }

    /// Arm the next `n` writes to fail with `ENOSPC`.
    pub fn fail_next_writes(&self, n: u32) {
        self.failures.store(n, Ordering::SeqCst);
    }

    /// Every write fails with `ENOSPC` until [`heal`](Self::heal).
    pub fn fail_all_writes(&self) {
        self.failures.store(u32::MAX, Ordering::SeqCst);
    }

    /// Disarm all injected failures.
    pub fn heal(&self) {
        self.failures.store(0, Ordering::SeqCst);
    }

    fn should_fail(&self) -> bool {
        let mut cur = self.failures.load(Ordering::SeqCst);
        loop {
            if cur == 0 {
                return false;
            }
            if cur == u32::MAX {
                return true; // sticky until healed
            }
            match self
                .failures
                .compare_exchange(cur, cur - 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }
}

impl SpoolIo for FaultSpool {
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.should_fail() {
            return Err(disk_full_error());
        }
        self.disk.write_atomic(path, bytes)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.disk.read(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.disk.remove(path)
    }
}

/// A shareable, cloneable handle to a [`SpoolIo`] implementation — the
/// form `ServeConfig` carries it in.
#[derive(Clone)]
pub struct SpoolHandle(Arc<dyn SpoolIo>);

impl SpoolHandle {
    /// Wrap an implementation.
    pub fn new(io: Arc<dyn SpoolIo>) -> SpoolHandle {
        SpoolHandle(io)
    }

    /// The real filesystem spool — the default.
    #[must_use]
    pub fn disk() -> SpoolHandle {
        SpoolHandle(Arc::new(DiskSpool))
    }
}

impl std::ops::Deref for SpoolHandle {
    type Target = dyn SpoolIo;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl fmt::Debug for SpoolHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SpoolHandle(..)")
    }
}

impl Default for SpoolHandle {
    fn default() -> Self {
        SpoolHandle::disk()
    }
}

/// The `ENOSPC` the fault injector raises (and the real kernel would).
#[must_use]
pub fn disk_full_error() -> io::Error {
    // 28 = ENOSPC on every Unix; io::Error maps it to StorageFull.
    io::Error::from_raw_os_error(28)
}

/// Whether an I/O error means "the disk is full" — the one fault class
/// the daemon degrades through instead of surfacing per-job.
#[must_use]
pub fn is_disk_full(e: &io::Error) -> bool {
    e.raw_os_error() == Some(28)
}

// ----------------------------------------------------------------- framing

/// How a sealed spool frame failed to open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpoolError {
    /// Shorter than the fixed header (includes zero-length files).
    TooShort {
        /// Observed file length.
        len: usize,
    },
    /// The magic prefix is wrong — not a manifest at all.
    BadMagic,
    /// A version this reader does not speak (e.g. a pre-checksum v1).
    BadVersion {
        /// The version found.
        version: u32,
    },
    /// The payload checksum does not match: torn write or bit rot.
    BadChecksum {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the payload as read.
        actual: u32,
    },
    /// The recorded payload length disagrees with the file size.
    BadLength {
        /// Length recorded in the header.
        expected: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
}

impl fmt::Display for SpoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpoolError::TooShort { len } => {
                write!(f, "manifest of {len} bytes is shorter than the header")
            }
            SpoolError::BadMagic => write!(f, "manifest magic mismatch"),
            SpoolError::BadVersion { version } => {
                write!(f, "manifest version {version} (this reader speaks {MANIFEST_VERSION})")
            }
            SpoolError::BadChecksum { expected, actual } => write!(
                f,
                "manifest checksum mismatch (header {expected:#010x}, payload {actual:#010x}) — torn write or bit rot"
            ),
            SpoolError::BadLength { expected, actual } => write!(
                f,
                "manifest payload truncated: header claims {expected} bytes, {actual} present"
            ),
        }
    }
}

impl std::error::Error for SpoolError {}

/// Frame a manifest payload: magic, version, CRC-32, length, payload.
#[must_use]
pub fn seal(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Open a sealed frame, verifying magic, version, length, and checksum.
///
/// # Errors
///
/// A typed [`SpoolError`] naming exactly what is wrong — the caller
/// quarantines on any of them.
pub fn open(raw: &[u8]) -> Result<&[u8], SpoolError> {
    if raw.len() < HEADER_LEN {
        return Err(SpoolError::TooShort { len: raw.len() });
    }
    if &raw[..8] != MANIFEST_MAGIC {
        return Err(SpoolError::BadMagic);
    }
    let version = u32::from_le_bytes(raw[8..12].try_into().expect("4 bytes"));
    if version != MANIFEST_VERSION {
        return Err(SpoolError::BadVersion { version });
    }
    let expected = u32::from_le_bytes(raw[12..16].try_into().expect("4 bytes"));
    let len = u64::from_le_bytes(raw[16..24].try_into().expect("8 bytes"));
    let payload = &raw[HEADER_LEN..];
    if payload.len() as u64 != len {
        return Err(SpoolError::BadLength {
            expected: len,
            actual: payload.len() as u64,
        });
    }
    let actual = crc32(payload);
    if actual != expected {
        return Err(SpoolError::BadChecksum { expected, actual });
    }
    Ok(payload)
}

/// CRC-32 (IEEE 802.3 polynomial, reflected). Bitwise — the manifest is
/// written once per shutdown and read once per start, so table-free
/// simplicity beats speed.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Move a corrupt spool file aside as `<name>.quarantined-<n>` (first
/// free `n`), preserving the evidence. Returns the quarantine path, or
/// `None` if the rename failed (the file is removed instead, so a
/// poisoned manifest can never wedge startup).
pub fn quarantine(io: &dyn SpoolIo, path: &Path) -> Option<PathBuf> {
    for n in 0..1000u32 {
        let mut name = path.file_name()?.to_os_string();
        name.push(format!(".quarantined-{n}"));
        let dest = path.with_file_name(name);
        if dest.exists() {
            continue;
        }
        if fs::rename(path, &dest).is_ok() {
            return Some(dest);
        }
        break;
    }
    let _ = io.remove(path);
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crisp-spool-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = scratch("atomic");
        let path = dir.join("manifest.bin");
        let io = DiskSpool;
        io.write_atomic(&path, b"first").expect("write");
        assert_eq!(io.read(&path).expect("read"), b"first");
        io.write_atomic(&path, b"second, longer payload")
            .expect("rewrite");
        assert_eq!(io.read(&path).expect("read"), b"second, longer payload");
        assert!(!path.with_extension("tmp").exists(), "temp file consumed");
        io.remove(&path).expect("remove");
        io.remove(&path).expect("double remove is fine");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_open_round_trip() {
        let sealed = seal(b"hello manifest");
        assert_eq!(open(&sealed).expect("open"), b"hello manifest");
        // Empty payloads are legal (a drained daemon with no live jobs).
        let empty = seal(b"");
        assert_eq!(open(&empty).expect("open empty"), b"");
    }

    #[test]
    fn every_corruption_is_a_typed_error_never_a_panic() {
        let sealed = seal(b"the quick brown fox jumps over the lazy dog");

        // Zero-length and short files.
        assert_eq!(open(&[]), Err(SpoolError::TooShort { len: 0 }));
        assert!(matches!(
            open(&sealed[..HEADER_LEN - 1]),
            Err(SpoolError::TooShort { .. })
        ));

        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xFF;
        assert_eq!(open(&bad), Err(SpoolError::BadMagic));

        // Wrong version: the checksum-free v1 and the v2 manifest, whose
        // payload used the protocol's former encoding.
        for version in [1u32, 2] {
            let mut bad = sealed.clone();
            bad[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(open(&bad), Err(SpoolError::BadVersion { version }));
        }

        // Truncated payload (torn write).
        assert!(matches!(
            open(&sealed[..sealed.len() - 5]),
            Err(SpoolError::BadLength { .. })
        ));

        // A single flipped payload bit.
        for i in [HEADER_LEN, HEADER_LEN + 7, sealed.len() - 1] {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert!(
                matches!(open(&bad), Err(SpoolError::BadChecksum { .. })),
                "bit flip at {i} must fail the checksum"
            );
        }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn quarantine_moves_the_file_aside_with_fresh_names() {
        let dir = scratch("quarantine");
        let path = dir.join("manifest.bin");
        let io = DiskSpool;
        io.write_atomic(&path, b"bad").expect("write");
        let q1 = quarantine(&io, &path).expect("first quarantine");
        assert!(q1.exists() && !path.exists());
        io.write_atomic(&path, b"bad again").expect("write");
        let q2 = quarantine(&io, &path).expect("second quarantine");
        assert_ne!(q1, q2, "each quarantine gets a fresh name");
        assert!(q1.exists() && q2.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_spool_injects_disk_full_then_recovers() {
        let dir = scratch("fault");
        let path = dir.join("x.bin");
        let spool = FaultSpool::new();
        spool.fail_next_writes(2);
        for _ in 0..2 {
            let e = spool.write_atomic(&path, b"x").expect_err("armed failure");
            assert!(is_disk_full(&e), "injected error is ENOSPC: {e}");
        }
        spool
            .write_atomic(&path, b"x")
            .expect("healed after the burst");
        spool.fail_all_writes();
        assert!(spool.write_atomic(&path, b"y").is_err());
        assert!(spool.write_atomic(&path, b"y").is_err(), "sticky");
        spool.heal();
        spool.write_atomic(&path, b"y").expect("healed");
        let _ = fs::remove_dir_all(&dir);
    }
}
