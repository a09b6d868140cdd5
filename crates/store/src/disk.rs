//! The store's one I/O seam.
//!
//! Every filesystem call [`crate::RunStore`] and [`crate::MultiStore`]
//! make goes through a [`Disk`]. [`StdDisk`] is the real one: plain
//! `std::fs` calls. A test can hand a store a disk that records each
//! call, and so enumerate every state a crash can leave behind.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// The filesystem calls the store makes, one method each.
pub trait Disk: Send + Sync + std::fmt::Debug {
    /// Creates a directory and its missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Names of the entries of a directory, in the order it lists them.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Creates (or truncates) `path`, writes `parts` back to back and
    /// syncs the file's data.
    fn write_synced(&self, path: &Path, parts: &[&[u8]]) -> io::Result<()>;
    /// Renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Syncs a directory, so the renames and removals in it survive a
    /// crash. Best-effort: not every filesystem opens a directory.
    fn sync_dir(&self, dir: &Path);
    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The real disk: `std::fs`.
#[derive(Debug)]
pub struct StdDisk;

impl Disk for StdDisk {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<String>> {
        fs::read_dir(dir)?
            .map(|entry| Ok(entry?.file_name().to_string_lossy().into_owned()))
            .collect()
    }

    fn write_synced(&self, path: &Path, parts: &[&[u8]]) -> io::Result<()> {
        let mut f = fs::File::create(path)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) {
        if let Ok(d) = fs::File::open(dir) {
            d.sync_all().ok();
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}
