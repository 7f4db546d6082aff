//! Counting wrappers for the traced run.
//!
//! [`CountingVfs`] and [`CountingTransport`] implement the storage
//! crate's public [`Vfs`] and [`Transport`] traits by delegating every
//! call, unchanged, to the wrapped implementation, and tally what passed
//! through: bytes written, file and directory syncs, frames and wire
//! bytes. Only the traced run installs them; the untraced runs that
//! produce the end-to-end figures use `StdFs` and `ChannelTransport`
//! directly.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tchimera_storage::{Transport, Vfs, VfsFile};

/// Byte and sync counts seen by a [`CountingVfs`].
#[derive(Debug, Default)]
pub struct IoCounts {
    bytes_written: AtomicU64,
    file_syncs: AtomicU64,
    dir_syncs: AtomicU64,
}

impl IoCounts {
    /// Bytes handed to `write_all` on any file.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// File and directory syncs (each one an fsync on `StdFs`).
    pub fn syncs(&self) -> u64 {
        self.file_syncs.load(Ordering::Relaxed) + self.dir_syncs.load(Ordering::Relaxed)
    }
}

/// A [`Vfs`] that delegates to `inner` and counts writes and syncs.
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    counts: Arc<IoCounts>,
}

impl CountingVfs {
    /// Wrap `inner`, adding to `counts` (which stay readable while the
    /// VFS is owned by an engine; several VFSs may share them).
    pub fn wrap(inner: Arc<dyn Vfs>, counts: &Arc<IoCounts>) -> Arc<dyn Vfs> {
        Arc::new(CountingVfs {
            inner,
            counts: Arc::clone(counts),
        })
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counts: Arc<IoCounts>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.counts
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.write_all(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.counts.file_syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
}

impl Vfs for CountingVfs {
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.open_append(path)?;
        Ok(Box::new(CountingFile {
            inner,
            counts: Arc::clone(&self.counts),
        }))
    }
    fn open_trunc(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let inner = self.inner.open_trunc(path)?;
        Ok(Box::new(CountingFile {
            inner,
            counts: Arc::clone(&self.counts),
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.counts.dir_syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// Frame counts seen by a [`CountingTransport`] (sends only, so a pair
/// of wrapped endpoints counts every frame once).
#[derive(Debug, Default)]
pub struct WireCounts {
    frames: AtomicU64,
    bytes: AtomicU64,
}

impl WireCounts {
    /// Frames sent.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Wire bytes sent.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// A [`Transport`] that delegates to `inner` and counts sent frames.
pub struct CountingTransport<T: Transport> {
    inner: T,
    counts: Arc<WireCounts>,
}

impl<T: Transport> CountingTransport<T> {
    /// Wrap `inner`, sharing `counts` (both ends of a link may share one).
    pub fn wrap(inner: T, counts: &Arc<WireCounts>) -> CountingTransport<T> {
        CountingTransport {
            inner,
            counts: Arc::clone(counts),
        }
    }
}

impl<T: Transport> Transport for CountingTransport<T> {
    fn send(&mut self, frame: Vec<u8>) {
        self.counts.frames.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.inner.send(frame);
    }
    fn recv(&mut self) -> Option<Vec<u8>> {
        self.inner.recv()
    }
    fn tick(&mut self) {
        self.inner.tick();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tchimera_storage::{ChannelTransport, SimFs};

    #[test]
    fn vfs_wrapper_delegates_and_counts() {
        let sim = SimFs::new();
        let counts = Arc::new(IoCounts::default());
        let vfs = CountingVfs::wrap(Arc::new(sim.clone()), &counts);
        let p = PathBuf::from("f.log");
        let mut f = vfs.open_append(&p).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        vfs.sync_dir(Path::new(".")).unwrap();
        assert_eq!(vfs.read(&p).unwrap(), b"hello");
        assert_eq!(sim.contents(&p).unwrap(), b"hello");
        assert_eq!(counts.bytes_written(), 5);
        assert_eq!(counts.syncs(), 2);
    }

    #[test]
    fn transport_wrapper_delegates_and_counts() {
        let counts = Arc::new(WireCounts::default());
        let (a, b) = ChannelTransport::pair();
        let (mut a, mut b) = (
            CountingTransport::wrap(a, &counts),
            CountingTransport::wrap(b, &counts),
        );
        a.send(vec![1, 2, 3]);
        b.send(vec![4]);
        assert_eq!(b.recv(), Some(vec![1, 2, 3]));
        assert_eq!(a.recv(), Some(vec![4]));
        assert_eq!(a.recv(), None);
        assert_eq!((counts.frames(), counts.bytes()), (2, 4));
    }
}
