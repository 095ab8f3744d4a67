//! Crash-safe container writes and cold-start recovery.
//!
//! Every persisted artifact in the workspace (network, CH, HL, POI
//! containers, bench baselines, workload files) is written through
//! [`write_atomic`]: stream the bytes through a buffered sink into a temp
//! file *in the target directory* (nothing is serialised up front — the
//! artifact is never held in memory beside the structure it came from),
//! `fsync` the file, atomically rename it over the destination, then
//! `fsync` the directory so the rename itself is durable. A crash at any
//! point leaves either the old file, the new file, or an orphaned
//! `*.tmp` — never a half-written file under the final name — and a
//! write that *fails* (the serialiser returns an error, the disk fills
//! mid-stream) unlinks its temp file before reporting, leaving the
//! destination untouched. This is the torn-write discipline of LSM
//! stores.
//!
//! The other half is [`recover_dir`]: a typed recovery scan run at
//! server startup and reload that sweeps a directory for the debris a
//! crash *can* leave — orphaned `*.tmp` files and checksummed `SPQ*`
//! containers that fail validation (torn by a non-atomic writer, bit
//! rot, forged length) — and moves them into a sidecar
//! `spq.quarantine/` directory with an appended reason manifest instead
//! of aborting. Quarantined index files then surface as load failures
//! that feed the serving engine's existing degradation chain.
//!
//! For the torture harness, [`write_atomic`] honours a crash hook: set
//! `SPQ_CRASH_WRITE=<stage>:<nth>` and the `nth` atomic write in the
//! process aborts (SIGABRT, no unwinding, no destructors — as close to
//! `kill -9` as a process can do to itself) at `stage`, one of
//! `mid-write`, `before-sync`, `before-rename`, `after-rename`. Every
//! stage must leave a state the recovery scan handles. The stream's
//! length is not known while it is written, so `mid-write` means: *a
//! non-empty strict prefix of the stream has reached the temp file* —
//! the hook writes the first half of the first chunk headed for the
//! file and fires (a stream of at most one byte has no such prefix;
//! there the hook fires once the stream has ended).
//!
//! A second, softer hook models a *full disk*: set
//! `SPQ_FAULT_ENOSPC=<from_nth>` and every guarded disk write from the
//! `from_nth`-th onward fails with a genuine `ENOSPC` error instead of
//! touching the filesystem (the counter is separate from the crash
//! hook's, so `SPQ_CRASH_WRITE` ordinals stay stable; an atomic write is
//! one guarded write however many chunks it streams). Any `ENOSPC` —
//! injected or real — latches the process-wide sticky
//! [`disk_degraded`] flag, which the serving stats surface as a gauge:
//! once the disk has been full, answers keep flowing but persistence
//! is suspect until an operator intervenes, so the flag never clears
//! itself.

use std::cell::Cell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::binio::{ContainerReader, IndexLoadError};

/// Where in the atomic-write sequence a crash hook fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashStage {
    /// A non-empty strict prefix of the stream has reached the temp file.
    MidWrite,
    /// Body fully written, before the file `fsync`.
    BeforeSync,
    /// File synced, before the rename.
    BeforeRename,
    /// Renamed into place, before the directory `fsync`.
    AfterRename,
}

impl CrashStage {
    /// Parses the stage half of `SPQ_CRASH_WRITE`.
    pub fn parse(s: &str) -> Option<CrashStage> {
        match s {
            "mid-write" => Some(CrashStage::MidWrite),
            "before-sync" => Some(CrashStage::BeforeSync),
            "before-rename" => Some(CrashStage::BeforeRename),
            "after-rename" => Some(CrashStage::AfterRename),
            _ => None,
        }
    }

    /// The string form accepted by [`CrashStage::parse`].
    pub fn as_str(&self) -> &'static str {
        match self {
            CrashStage::MidWrite => "mid-write",
            CrashStage::BeforeSync => "before-sync",
            CrashStage::BeforeRename => "before-rename",
            CrashStage::AfterRename => "after-rename",
        }
    }

    /// All stages, in write order — the torture scheduler samples these.
    pub const ALL: [CrashStage; 4] = [
        CrashStage::MidWrite,
        CrashStage::BeforeSync,
        CrashStage::BeforeRename,
        CrashStage::AfterRename,
    ];
}

/// Process-wide count of atomic writes, so `SPQ_CRASH_WRITE=<stage>:<nth>`
/// can target "the nth container this process persists" deterministically.
static WRITE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Environment variable consulted by [`write_atomic`]; value is
/// `<stage>:<nth>` (1-based). Used by `spq torture` to make child
/// processes tear their own writes at a chosen point.
pub const CRASH_ENV: &str = "SPQ_CRASH_WRITE";

fn armed_crash(nth: u64) -> Option<CrashStage> {
    let spec = std::env::var(CRASH_ENV).ok()?;
    let (stage, n) = spec.split_once(':')?;
    let n: u64 = n.parse().ok()?;
    if n == nth {
        CrashStage::parse(stage)
    } else {
        None
    }
}

/// Environment variable consulted before every guarded disk write;
/// value is `<from_nth>` (1-based). From that ordinal onward the writes
/// fail with an injected `ENOSPC` — the disk is "full" and stays full,
/// which is how real disks fail. Counted separately from
/// [`CRASH_ENV`]'s ordinal so arming one hook never shifts the other's.
pub const ENOSPC_ENV: &str = "SPQ_FAULT_ENOSPC";

/// Ordinals for [`ENOSPC_ENV`] (guarded disk writes, not atomic writes).
static ENOSPC_WRITES: AtomicU64 = AtomicU64::new(0);

/// Sticky process-wide "the disk has been full" flag. Latched by any
/// `ENOSPC` seen on a guarded write (injected or real); never cleared —
/// serving continues, but an operator must judge what persisted.
static DISK_DEGRADED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Test hook: `Some(n)` lets the next `n` guarded writes on this
    /// thread succeed, then fails every later one. Thread-local so
    /// parallel unit tests cannot contaminate each other. Unlike the
    /// [`ENOSPC_ENV`] ordinal, this countdown also counts every chunk an
    /// atomic write hands to its temp file, so a test can fill the disk
    /// in the middle of a stream.
    static ENOSPC_COUNTDOWN: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Test hook: after `allowed` more guarded disk writes on this thread,
/// every further one fails with an injected `ENOSPC` until
/// [`clear_enospc_injection`] runs.
pub fn inject_enospc_after(allowed: u64) {
    ENOSPC_COUNTDOWN.with(|c| c.set(Some(allowed)));
}

/// Disarms [`inject_enospc_after`] on this thread.
pub fn clear_enospc_injection() {
    ENOSPC_COUNTDOWN.with(|c| c.set(None));
}

/// Whether any guarded disk write has hit `ENOSPC` since the process
/// started. Sticky by design: a disk that filled once may have eaten a
/// write even if space later frees up, so only an operator (restart)
/// resets the gauge.
pub fn disk_degraded() -> bool {
    DISK_DEGRADED.load(Ordering::Relaxed)
}

/// Latches [`disk_degraded`] when `e` is `ENOSPC`.
pub fn note_disk_error(e: &io::Error) {
    // ENOSPC is errno 28 on every unix the workspace targets.
    if e.raw_os_error() == Some(28) {
        DISK_DEGRADED.store(true, Ordering::Relaxed);
    }
}

fn enospc_error() -> io::Error {
    io::Error::from_raw_os_error(28)
}

/// Consumes one step of the thread-local test countdown; `true` once it
/// has run out.
fn countdown_tripped() -> bool {
    ENOSPC_COUNTDOWN.with(|c| match c.get() {
        Some(0) => true,
        Some(n) => {
            c.set(Some(n - 1));
            false
        }
        None => false,
    })
}

/// The injection gate every guarded disk write passes through: the
/// thread-local test countdown first, then the process-wide
/// [`ENOSPC_ENV`] ordinal hook.
fn injected_enospc() -> Option<io::Error> {
    if countdown_tripped() {
        return Some(enospc_error());
    }
    let spec = std::env::var(ENOSPC_ENV).ok()?;
    let from: u64 = spec.parse().ok()?;
    let nth = ENOSPC_WRITES.fetch_add(1, Ordering::Relaxed) + 1;
    if nth >= from {
        Some(enospc_error())
    } else {
        None
    }
}

#[derive(Clone, Copy)]
enum CrashMode {
    /// Real crash hook: abort the process at the stage.
    Abort(CrashStage),
    /// Test hook: stop at the stage, leaving the torn on-disk state,
    /// and return normally so the same process can run the recovery scan.
    Simulate(CrashStage),
}

impl CrashMode {
    fn stage(self) -> CrashStage {
        match self {
            CrashMode::Abort(s) | CrashMode::Simulate(s) => s,
        }
    }
}

/// What a write into a sink torn by a simulated crash returns.
fn torn_error() -> io::Error {
    io::Error::other("simulated crash: the write is torn")
}

/// Whether the armed crash (if any) fires at `here`. An aborting hook
/// does not return.
fn crash_point(mode: Option<CrashMode>, here: CrashStage) -> bool {
    match mode {
        Some(mode) if mode.stage() != here => false,
        Some(CrashMode::Abort(_)) => {
            // Flush the reason to stderr first: the torture harness greps
            // child logs to confirm the hook (not a genuine bug) fired.
            eprintln!("[atomic_io] crash hook firing at {}", here.as_str());
            std::process::abort();
        }
        Some(CrashMode::Simulate(_)) => true,
        None => false,
    }
}

/// The temp file under an [`AtomicSink`]'s buffer: every chunk the
/// buffer hands down passes the test countdown and, when a `mid-write`
/// crash is armed, the first chunk is cut in half.
struct TempFile {
    file: File,
    /// Bytes that have reached the file.
    reached: u64,
    crash: Option<CrashMode>,
    /// Set when a simulated `mid-write` crash fired: the write "died",
    /// so nothing more may reach the file.
    torn: bool,
}

impl Write for TempFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.torn {
            return Err(torn_error());
        }
        if buf.is_empty() {
            return Ok(0);
        }
        if countdown_tripped() {
            return Err(enospc_error());
        }
        // A chunk of two or more bytes, or any chunk after the first,
        // proves the bytes written so far (plus half of this chunk, if
        // they are none) are a non-empty strict prefix of the stream.
        let armed = self
            .crash
            .is_some_and(|c| c.stage() == CrashStage::MidWrite);
        if armed && (self.reached > 0 || buf.len() >= 2) {
            if self.reached == 0 {
                self.file.write_all(&buf[..buf.len() / 2])?;
                self.reached += (buf.len() / 2) as u64;
            }
            self.torn = crash_point(self.crash, CrashStage::MidWrite);
            return Err(torn_error());
        }
        let n = self.file.write(buf)?;
        self.reached += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Bytes an [`AtomicSink`] gathers before it writes to its temp file.
/// Array sections arrive in larger chunks and pass straight through;
/// the buffer is for line-at-a-time text writers and field-at-a-time
/// headers.
const SINK_BUFFER: usize = 32 << 10;

/// What [`write_atomic`] hands its closure: a buffered writer over the
/// temp file that will be renamed into place.
pub struct AtomicSink(BufWriter<TempFile>);

impl Write for AtomicSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

/// Writes `path` atomically: the closure streams the bytes into a
/// buffered sink over a unique temp file in the target directory, which
/// is then fsynced and renamed over `path`, and the directory fsynced.
/// If the closure or any step before the rename fails, the temp file is
/// removed and `path` is left as it was.
///
/// Honours the [`CRASH_ENV`] hook (aborting the process mid-sequence)
/// when armed for this write's ordinal.
pub fn write_atomic(
    path: impl AsRef<Path>,
    write_body: impl FnOnce(&mut AtomicSink) -> io::Result<()>,
) -> io::Result<()> {
    let nth = WRITE_COUNTER.fetch_add(1, Ordering::Relaxed) + 1;
    let written = match injected_enospc() {
        Some(e) => Err(e),
        None => {
            let crash = armed_crash(nth).map(CrashMode::Abort);
            write_atomic_inner(path.as_ref(), nth, write_body, crash)
        }
    };
    match written {
        Ok(_) => Ok(()),
        Err(e) => {
            note_disk_error(&e);
            Err(e)
        }
    }
}

/// Test-only variant of [`write_atomic`] that *simulates* a crash at
/// `stage`: the on-disk state is exactly what the abort hook leaves,
/// but the process survives to run [`recover_dir`] over it. Returns
/// `Ok(false)` when the simulated crash cut the sequence short (the
/// write did not complete).
pub fn write_atomic_torn(
    path: impl AsRef<Path>,
    stage: CrashStage,
    write_body: impl FnOnce(&mut AtomicSink) -> io::Result<()>,
) -> io::Result<bool> {
    let nth = WRITE_COUNTER.fetch_add(1, Ordering::Relaxed) + 1;
    let crash = Some(CrashMode::Simulate(stage));
    write_atomic_inner(path.as_ref(), nth, write_body, crash)
}

/// `Ok(true)`: the write completed; `Ok(false)`: a simulated crash cut
/// it short and its debris was left in place; `Err`: it failed and its
/// temp file is gone.
fn write_atomic_inner(
    path: &Path,
    nth: u64,
    write_body: impl FnOnce(&mut AtomicSink) -> io::Result<()>,
    crash: Option<CrashMode>,
) -> io::Result<bool> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!("{name}.{}.{nth}.tmp", std::process::id()));

    let temp = TempFile {
        file: File::create(&tmp)?,
        reached: 0,
        crash,
        torn: false,
    };
    let mut sink = AtomicSink(BufWriter::with_capacity(SINK_BUFFER, temp));
    let streamed = write_body(&mut sink).and_then(|()| sink.flush());
    // Whatever the buffer still holds is not wanted on any path below.
    let (temp, _) = sink.0.into_parts();
    if temp.torn {
        return Ok(false);
    }
    let renamed = streamed.and_then(|()| {
        // A stream too short to be cut (at most one byte) ends here.
        if crash_point(crash, CrashStage::MidWrite) || crash_point(crash, CrashStage::BeforeSync) {
            return Ok(false);
        }
        temp.file.sync_all()?;
        if crash_point(crash, CrashStage::BeforeRename) {
            return Ok(false);
        }
        fs::rename(&tmp, path)?;
        Ok(true)
    });
    match renamed {
        Ok(true) => {}
        Ok(false) => return Ok(false),
        Err(e) => {
            // A failed write is not a crash: leave no debris behind.
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
    }
    let survived = !crash_point(crash, CrashStage::AfterRename);
    // Sync the directory so the rename is durable across power loss.
    // Some filesystems refuse to open a directory for writing; opening
    // read-only still permits fsync on unix.
    if let Ok(d) = File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(survived)
}

// ---------------------------------------------------------------------------
// Recovery scan.

/// Name of the sidecar directory a recovery scan moves debris into.
pub const QUARANTINE_DIR: &str = "spq.quarantine";

/// Name of the append-only reason manifest inside [`QUARANTINE_DIR`].
pub const MANIFEST: &str = "MANIFEST";

/// One file the recovery scan moved aside.
#[derive(Debug)]
pub struct QuarantineEntry {
    /// Where the file was found.
    pub original: PathBuf,
    /// Where it now lives (inside the sidecar quarantine dir).
    pub quarantined_to: PathBuf,
    /// Human-readable reason, also appended to the manifest.
    pub reason: String,
}

/// Result of scanning one directory.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Regular files examined.
    pub scanned: usize,
    /// Checksummed `SPQ*` containers that validated end to end.
    pub verified: usize,
    /// Files moved into quarantine, with reasons.
    pub quarantined: Vec<QuarantineEntry>,
}

impl RecoveryReport {
    /// Folds another directory's report into this one.
    pub fn merge(&mut self, other: RecoveryReport) {
        self.scanned += other.scanned;
        self.verified += other.verified;
        self.quarantined.extend(other.quarantined);
    }

    /// Looks up the quarantine entry for an exact original path, letting
    /// a loader attach the precise reason to its degradation record.
    pub fn reason_for(&self, path: &Path) -> Option<&QuarantineEntry> {
        self.quarantined.iter().find(|q| q.original == path)
    }
}

/// Validates a checksummed `SPQ*` container without knowing which index
/// format it is: the same header parser and the same streamed checksum
/// as every loader, with nothing asked of the magic or the version.
fn validate_container(path: &Path) -> Result<(), IndexLoadError> {
    ContainerReader::open_any(File::open(path)?)?.finish()
}

/// Decides whether one regular file is debris, and why.
fn debris_reason(path: &Path) -> io::Result<Option<String>> {
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
    let name = name.unwrap_or_default();
    if name.ends_with(".tmp") {
        return Ok(Some(
            "orphaned temp file from an interrupted atomic write".to_string(),
        ));
    }
    // Only checksummed SPQ containers can be validated magic-agnostically.
    // SPQN (network) files use a plain header without a checksum, and
    // non-SPQ files are none of our business: both are left in place.
    let mut f = File::open(path)?;
    let mut magic = [0u8; 4];
    match f.read_exact(&mut magic) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    if !magic.starts_with(b"SPQ") || &magic == b"SPQN" {
        return Ok(None);
    }
    drop(f);
    match validate_container(path) {
        Ok(()) => Ok(None),
        // A version-1 file predates the checksummed container; it is
        // refused at load time with a typed error but is not *torn*, so
        // the scan leaves it for the operator.
        Err(IndexLoadError::LegacyVersion { .. }) => Ok(None),
        Err(e) => Ok(Some(format!(
            "container {} failed validation: {e}",
            String::from_utf8_lossy(&magic)
        ))),
    }
}

/// Moves `path` into `dir/spq.quarantine/`, appending a manifest line.
///
/// The manifest append is best-effort: on a full disk the *move* still
/// isolates the debris (a rename consumes no data blocks), and failing
/// the whole recovery scan over a missing log line would turn a
/// degraded disk into an outage. An append failure latches
/// [`disk_degraded`] and is logged instead.
fn quarantine(dir: &Path, path: &Path, reason: &str) -> io::Result<QuarantineEntry> {
    let qdir = dir.join(QUARANTINE_DIR);
    fs::create_dir_all(&qdir)?;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string());
    let mut dest = qdir.join(&name);
    let mut n = 1;
    while dest.exists() {
        dest = qdir.join(format!("{name}.{n}"));
        n += 1;
    }
    fs::rename(path, &dest)?;
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let appended = (|| -> io::Result<()> {
        if let Some(e) = injected_enospc() {
            return Err(e);
        }
        let mut manifest = OpenOptions::new()
            .create(true)
            .append(true)
            .open(qdir.join(MANIFEST))?;
        writeln!(
            manifest,
            "ts={ts} file={} quarantined_as={} reason={reason}",
            path.display(),
            dest.file_name().unwrap_or_default().to_string_lossy()
        )?;
        manifest.sync_all()
    })();
    if let Err(e) = appended {
        note_disk_error(&e);
        eprintln!(
            "[atomic_io] quarantine manifest append failed ({e}); \
             {} moved to {} without a manifest line",
            path.display(),
            dest.display()
        );
    }
    Ok(QuarantineEntry {
        original: path.to_path_buf(),
        quarantined_to: dest,
        reason: reason.to_string(),
    })
}

/// Scans one directory (non-recursive) for crash debris: orphaned
/// `*.tmp` files and checksummed `SPQ*` containers that fail
/// validation. Each is moved into the sidecar [`QUARANTINE_DIR`] with a
/// manifest line; nothing is deleted. Files the scan cannot judge
/// (non-SPQ, unchecksummed `SPQN`, legacy versions) are left alone.
///
/// A missing directory yields an empty report — a fresh deployment has
/// nothing to recover.
pub fn recover_dir(dir: impl AsRef<Path>) -> io::Result<RecoveryReport> {
    let dir = dir.as_ref();
    let mut report = RecoveryReport::default();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        if !entry.file_type()?.is_file() {
            continue;
        }
        report.scanned += 1;
        match debris_reason(&path) {
            Ok(Some(reason)) => {
                report.quarantined.push(quarantine(dir, &path, &reason)?);
            }
            Ok(None) => report.verified += 1,
            // A file that vanished mid-scan (concurrent writer) is not
            // debris; skip it rather than fail the whole scan.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(report)
}

/// Scans the parent directories of a set of files (deduplicated), for
/// callers that know which artifact paths they are about to load rather
/// than which directories hold them.
pub fn recover_dirs_of<'a>(
    paths: impl IntoIterator<Item = &'a Path>,
) -> io::Result<RecoveryReport> {
    let mut dirs: Vec<PathBuf> = Vec::new();
    for p in paths {
        let d = match p.parent() {
            Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
            _ => PathBuf::from("."),
        };
        if !dirs.contains(&d) {
            dirs.push(d);
        }
    }
    let mut report = RecoveryReport::default();
    for d in &dirs {
        report.merge(recover_dir(d)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binio::write_container;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "spq_atomic_io_{tag}_{}_{}",
            std::process::id(),
            WRITE_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn container_bytes(version: u32, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_container(&mut buf, b"SPQC", version, |w| w.write_all(body)).unwrap();
        buf
    }

    #[test]
    fn write_atomic_roundtrip_and_no_temp_left() {
        let d = tmpdir("roundtrip");
        let path = d.join("index.ch");
        write_atomic(&path, |w| w.write_all(&container_bytes(2, b"hello"))).unwrap();
        assert_eq!(fs::read(&path).unwrap(), container_bytes(2, b"hello"));
        let leftovers: Vec<_> = fs::read_dir(&d)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".tmp")
            })
            .collect();
        assert!(leftovers.is_empty(), "temp file must be renamed away");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn write_atomic_replaces_existing_file_atomically() {
        let d = tmpdir("replace");
        let path = d.join("index.ch");
        write_atomic(&path, |w| w.write_all(b"old")).unwrap();
        write_atomic(&path, |w| w.write_all(b"new content")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new content");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn torn_write_never_damages_the_destination() {
        // Crash at every pre-rename stage: the old file survives intact.
        for stage in [
            CrashStage::MidWrite,
            CrashStage::BeforeSync,
            CrashStage::BeforeRename,
        ] {
            let d = tmpdir("torn");
            let path = d.join("index.ch");
            let old = container_bytes(2, b"previous generation");
            write_atomic(&path, |w| w.write_all(&old)).unwrap();
            let completed =
                write_atomic_torn(&path, stage, |w| w.write_all(&container_bytes(2, b"next")))
                    .unwrap();
            assert!(!completed, "{stage:?} must cut the write short");
            assert_eq!(
                fs::read(&path).unwrap(),
                old,
                "{stage:?}: destination must still hold the old bytes"
            );
            fs::remove_dir_all(&d).unwrap();
        }
        // Crash after the rename: the new file is already in place.
        let d = tmpdir("torn_after");
        let path = d.join("index.ch");
        let new = container_bytes(2, b"next");
        write_atomic_torn(&path, CrashStage::AfterRename, |w| w.write_all(&new)).unwrap();
        assert_eq!(fs::read(&path).unwrap(), new);
        fs::remove_dir_all(&d).unwrap();
    }

    fn temp_files(d: &Path) -> Vec<String> {
        fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect()
    }

    /// `mid-write` on a stream of unknown length: the temp file holds a
    /// non-empty strict prefix of what the closure wrote — whether that
    /// fits the sink's buffer or streams through it — and nothing after
    /// the crash reaches it.
    #[test]
    fn a_mid_write_crash_leaves_a_nonempty_strict_prefix() {
        for len in [2usize, 29, SINK_BUFFER - 1, 5 * SINK_BUFFER + 3] {
            let d = tmpdir("prefix");
            let body: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let completed = write_atomic_torn(d.join("index.ch"), CrashStage::MidWrite, |w| {
                // Field-sized pieces first, then the rest in one piece.
                let (head, rest) = body.split_at(len.min(24));
                head.chunks(8).try_for_each(|c| w.write_all(c))?;
                w.write_all(rest)
            })
            .unwrap();
            assert!(!completed);
            assert!(!d.join("index.ch").exists());
            let temps = temp_files(&d);
            assert_eq!(temps.len(), 1, "{temps:?}");
            let torn = fs::read(d.join(&temps[0])).unwrap();
            assert!(
                !torn.is_empty() && torn.len() < len,
                "{} of {len}",
                torn.len()
            );
            assert_eq!(torn, body[..torn.len()]);
            fs::remove_dir_all(&d).unwrap();
        }
        // No strict prefix of a one-byte stream is non-empty: the crash
        // fires once the stream has ended, still before the rename.
        let d = tmpdir("prefix_one");
        let completed =
            write_atomic_torn(d.join("x"), CrashStage::MidWrite, |w| w.write_all(b"!")).unwrap();
        assert!(!completed);
        assert!(!d.join("x").exists());
        assert_eq!(temp_files(&d).len(), 1);
        fs::remove_dir_all(&d).unwrap();
    }

    /// A write that fails is not a crash: whether the serialiser gives
    /// up or the disk fills after part of the stream is already in the
    /// temp file, the temp file is unlinked and the destination keeps
    /// its bytes.
    #[test]
    fn a_failed_write_leaves_no_temp_file_and_the_old_destination() {
        let d = tmpdir("failed");
        let path = d.join("index.ch");
        write_atomic(&path, |w| w.write_all(b"previous generation")).unwrap();

        let err = write_atomic(&path, |w| {
            w.write_all(&vec![1u8; 3 * SINK_BUFFER])?;
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "cannot serialise",
            ))
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(temp_files(&d), Vec::<String>::new());
        assert_eq!(fs::read(&path).unwrap(), b"previous generation");

        // The gate and the first chunk pass, the second chunk meets a
        // full disk.
        inject_enospc_after(2);
        let mut chunks = 0;
        let err = write_atomic(&path, |w| {
            for _ in 0..4 {
                w.write_all(&vec![2u8; SINK_BUFFER])?;
                chunks += 1;
            }
            Ok(())
        })
        .unwrap_err();
        clear_enospc_injection();
        assert_eq!(err.raw_os_error(), Some(28), "must be a real ENOSPC");
        assert_eq!(chunks, 1, "the failure came after the first chunk landed");
        assert!(disk_degraded(), "ENOSPC must latch the sticky gauge");
        assert_eq!(temp_files(&d), Vec::<String>::new());
        assert_eq!(fs::read(&path).unwrap(), b"previous generation");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn recovery_scan_quarantines_orphan_tmp_and_keeps_good_files() {
        let d = tmpdir("scan_orphan");
        let good = d.join("good.ch");
        write_atomic(&good, |w| w.write_all(&container_bytes(2, b"good body"))).unwrap();
        // A torn mid-write leaves an orphan temp.
        write_atomic_torn(d.join("other.ch"), CrashStage::MidWrite, |w| {
            w.write_all(&container_bytes(2, b"never finished"))
        })
        .unwrap();
        let report = recover_dir(&d).unwrap();
        assert_eq!(report.quarantined.len(), 1, "exactly the orphan temp");
        assert!(report.quarantined[0].reason.contains("orphaned temp"));
        assert!(good.exists(), "validated container stays in place");
        assert!(report.quarantined[0].quarantined_to.exists());
        let manifest = fs::read_to_string(d.join(QUARANTINE_DIR).join(MANIFEST)).unwrap();
        assert!(manifest.contains("orphaned temp"), "manifest: {manifest}");
        // Scan is idempotent: a second pass finds nothing new.
        let again = recover_dir(&d).unwrap();
        assert!(again.quarantined.is_empty());
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn recovery_scan_quarantines_corrupt_containers() {
        let d = tmpdir("scan_corrupt");
        // Truncated container (torn by a non-atomic writer).
        let mut torn = container_bytes(2, b"a body of respectable length here");
        torn.truncate(torn.len() - 5);
        fs::write(d.join("torn.ch"), &torn).unwrap();
        // Bit-flipped container.
        let mut flipped = container_bytes(2, b"a body of respectable length here");
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        fs::write(d.join("flipped.hl"), &flipped).unwrap();
        // Non-SPQ file: left alone.
        fs::write(d.join("notes.txt"), b"operator notes").unwrap();
        let report = recover_dir(&d).unwrap();
        assert_eq!(report.quarantined.len(), 2);
        assert!(d.join("notes.txt").exists());
        assert!(!d.join("torn.ch").exists());
        assert!(!d.join("flipped.hl").exists());
        let reasons: Vec<&str> = report
            .quarantined
            .iter()
            .map(|q| q.reason.as_str())
            .collect();
        assert!(
            reasons.iter().any(|r| r.contains("truncated")),
            "{reasons:?}"
        );
        assert!(
            reasons.iter().any(|r| r.contains("checksum mismatch")),
            "{reasons:?}"
        );
        fs::remove_dir_all(&d).unwrap();
    }

    /// A pre-checksum CH file (version 1: plain header, no
    /// body_len/checksum fields) is not debris — the loader refuses it
    /// with migration advice, so the scan must leave it in place even
    /// though it is too short to parse as a checksummed container.
    #[test]
    fn recovery_scan_leaves_legacy_ch_files_for_the_loader() {
        let d = tmpdir("scan_legacy");
        let legacy = d.join("old.ch");
        let mut bytes = Vec::new();
        crate::binio::write_header(&mut bytes, b"SPQC", 1).unwrap();
        crate::binio::write_u64(&mut bytes, 0).unwrap();
        fs::write(&legacy, &bytes).unwrap();
        let report = recover_dir(&d).unwrap();
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        assert!(legacy.exists(), "legacy file must stay in place");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn recovery_scan_reports_reason_for_exact_path() {
        let d = tmpdir("scan_reason");
        let bad = d.join("bad.ch");
        let mut bytes = container_bytes(2, b"soon to be damaged");
        bytes[20] ^= 0xFF;
        fs::write(&bad, &bytes).unwrap();
        let report = recover_dirs_of([bad.as_path()]).unwrap();
        let entry = report.reason_for(&bad).expect("entry for the exact path");
        assert!(entry.reason.contains("checksum mismatch"));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn missing_directory_is_an_empty_report() {
        let report = recover_dir("/definitely/not/a/real/dir/spq").unwrap();
        assert_eq!(report.scanned, 0);
        assert!(report.quarantined.is_empty());
    }

    #[test]
    fn injected_enospc_fails_the_write_and_latches_degraded() {
        let d = tmpdir("enospc_write");
        let path = d.join("index.ch");
        write_atomic(&path, |w| w.write_all(b"fits")).unwrap();
        inject_enospc_after(0);
        let err = write_atomic(&path, |w| w.write_all(b"disk is full")).unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28), "must be a real ENOSPC");
        assert!(disk_degraded(), "ENOSPC must latch the sticky gauge");
        assert_eq!(
            fs::read(&path).unwrap(),
            b"fits",
            "the destination must keep its old bytes"
        );
        clear_enospc_injection();
        write_atomic(&path, |w| w.write_all(b"space again")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"space again");
        assert!(disk_degraded(), "the gauge stays latched after recovery");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn manifest_enospc_never_fails_the_recovery_scan() {
        let d = tmpdir("enospc_manifest");
        // A torn mid-write leaves an orphan temp for the scan to move.
        write_atomic_torn(d.join("victim.ch"), CrashStage::MidWrite, |w| {
            w.write_all(b"never finished at respectable length")
        })
        .unwrap();
        // The very next guarded write — the manifest append — hits the
        // full disk. The scan must still succeed and still isolate the
        // debris; only the log line is lost.
        inject_enospc_after(0);
        let report = recover_dir(&d).unwrap();
        clear_enospc_injection();
        assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
        assert!(report.quarantined[0].quarantined_to.exists());
        assert!(disk_degraded(), "manifest ENOSPC must latch the gauge");
        // No orphan remains outside quarantine.
        let leftovers: Vec<_> = fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn crash_env_parses_stages() {
        assert_eq!(CrashStage::parse("mid-write"), Some(CrashStage::MidWrite));
        assert_eq!(
            CrashStage::parse("after-rename"),
            Some(CrashStage::AfterRename)
        );
        assert_eq!(CrashStage::parse("nonsense"), None);
    }
}
