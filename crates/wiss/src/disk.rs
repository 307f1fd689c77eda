//! Simulated per-node disk volumes.
//!
//! A [`Volume`] is the storage attached to one processor: a set of files,
//! each an append-only sequence of [`Page`]s. Pages are stored in memory
//! (this is a simulator), but every access is charged to a ledger through
//! the buffer pool, using the [`DiskConfig`] service-time model.
//!
//! A heap writer's pages reach its file a segment at a time: a volume
//! owns the staging runs its writers fill in place, and a writer appends
//! a run's pages when the run is full and at `finish`. Until then a page
//! the writer has sealed (and been charged for) is not in the file yet;
//! nothing reads a file while its writer is open. A closed writer's run
//! goes back to the volume, and the next writer opened takes the one
//! given back last, so a warmed volume allocates no staging per writer.

use std::collections::BTreeMap;

use crate::page::{Page, Staging};

/// Identifies a file within one volume.
pub type FileId = u64;

/// Disk service-time model (per 8 KB page).
///
/// Defaults approximate the paper's 333 MB 8-inch Fujitsu drives: ~18 ms
/// average seek, ~8 ms half-rotation, ~1.8 MB/s transfer (4.5 ms for 8 KB).
/// Sequential access with WiSS's one-page readahead avoids the seek and most
/// rotational delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskConfig {
    /// Page size in bytes (the paper used 8 KB in all experiments).
    pub page_bytes: usize,
    /// Service time for a sequential page read, µs.
    pub seq_read_us: u64,
    /// Service time for a random page read, µs.
    pub rand_read_us: u64,
    /// Service time for a sequential page write, µs.
    pub seq_write_us: u64,
    /// Service time for a random page write, µs.
    pub rand_write_us: u64,
}

impl DiskConfig {
    /// Parameters approximating the paper's Fujitsu 8-inch drives.
    pub fn fujitsu_8inch() -> Self {
        DiskConfig {
            page_bytes: 8192,
            seq_read_us: 6_500,
            rand_read_us: 28_000,
            seq_write_us: 7_000,
            rand_write_us: 30_000,
        }
    }
}

impl Default for DiskConfig {
    fn default() -> Self {
        Self::fujitsu_8inch()
    }
}

/// The most recent head position, used to classify the next access as
/// sequential (same file, next page) or random.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeadPos {
    last: Option<(FileId, usize)>,
}

impl HeadPos {
    /// Classify an access to (`file`, `page`) and advance the head.
    /// Returns true if the access is sequential.
    pub fn access(&mut self, file: FileId, page: usize) -> bool {
        let seq = match self.last {
            Some((f, p)) => f == file && (page == p + 1 || page == p),
            None => false,
        };
        self.last = Some((file, page));
        seq
    }
}

/// One node's disk: a collection of page files.
#[derive(Debug, Clone, Default)]
pub struct Volume {
    files: BTreeMap<FileId, Vec<Page>>,
    next_id: FileId,
    /// Staging runs of closed writers, the one given back last on top.
    runs: Vec<Staging>,
}

impl Volume {
    /// An empty volume.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty file and return its id.
    pub fn create_file(&mut self) -> FileId {
        let id = self.next_id;
        self.next_id += 1;
        self.files.insert(id, Vec::new());
        id
    }

    /// Delete a file, returning how many pages it held.
    ///
    /// # Panics
    /// Panics if the file does not exist (double frees are bugs).
    pub fn delete_file(&mut self, file: FileId) -> usize {
        self.files
            .remove(&file)
            .unwrap_or_else(|| panic!("delete of unknown file {file}"))
            .len()
    }

    /// True if the file exists.
    pub fn exists(&self, file: FileId) -> bool {
        self.files.contains_key(&file)
    }

    /// Number of pages in a file.
    pub fn file_pages(&self, file: FileId) -> usize {
        self.files
            .get(&file)
            .unwrap_or_else(|| panic!("unknown file {file}"))
            .len()
    }

    /// Total records across all pages of a file.
    pub fn file_records(&self, file: FileId) -> usize {
        self.files
            .get(&file)
            .unwrap_or_else(|| panic!("unknown file {file}"))
            .iter()
            .map(|p| p.len())
            .sum()
    }

    /// Borrow a page.
    pub fn page(&self, file: FileId, idx: usize) -> &Page {
        &self
            .files
            .get(&file)
            .unwrap_or_else(|| panic!("unknown file {file}"))[idx]
    }

    /// Append the pages a writer's run publishes ([`Staging::publish`]).
    pub(crate) fn append_pages(&mut self, file: FileId, pages: impl IntoIterator<Item = Page>) {
        self.files
            .get_mut(&file)
            .unwrap_or_else(|| panic!("unknown file {file}"))
            .extend(pages);
    }

    /// A staging run of `page_bytes` pages for a writer being opened: the
    /// one of that size given back last, or a new one.
    pub(crate) fn take_run(&mut self, page_bytes: usize) -> Staging {
        match self.runs.iter().rposition(|r| r.page_bytes() == page_bytes) {
            Some(i) => self.runs.remove(i),
            None => Staging::new(page_bytes),
        }
    }

    /// Give back a closed writer's run, empty, for the next writer.
    pub(crate) fn return_run(&mut self, run: Staging) {
        debug_assert!(run.sealed() == 0 && run.is_empty(), "run given back in use");
        self.runs.push(run);
    }

    /// Take every page out of a file, leaving it in place and empty: the
    /// caller can then read records from the pages while it writes other
    /// files of this volume. Give the pages back with
    /// [`Volume::attach_pages`] unless the file is about to be deleted.
    pub fn detach_pages(&mut self, file: FileId) -> Vec<Page> {
        std::mem::take(
            self.files
                .get_mut(&file)
                .unwrap_or_else(|| panic!("unknown file {file}")),
        )
    }

    /// Give back the pages taken by [`Volume::detach_pages`].
    ///
    /// # Panics
    /// Panics if the file was deleted or written to in the meantime.
    pub fn attach_pages(&mut self, file: FileId, pages: Vec<Page>) {
        let slot = self
            .files
            .get_mut(&file)
            .unwrap_or_else(|| panic!("unknown file {file}"));
        assert!(slot.is_empty(), "file {file} was written while detached");
        *slot = pages;
    }

    /// Total pages across all files (for capacity/debug reporting).
    pub fn total_pages(&self) -> usize {
        self.files.values().map(|f| f.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_append_read() {
        let mut v = Volume::new();
        let f = v.create_file();
        let mut p = Page::new(1024);
        p.insert(b"rec").unwrap();
        v.append_pages(f, [p]);
        assert_eq!(v.file_pages(f), 1);
        assert_eq!(v.file_records(f), 1);
        assert_eq!(v.page(f, 0).get(0), Some(&b"rec"[..]));
    }

    #[test]
    fn file_ids_are_unique_and_ascending() {
        let mut v = Volume::new();
        let a = v.create_file();
        let b = v.create_file();
        let c = v.create_file();
        assert!(a < b && b < c);
        v.delete_file(b);
        let d = v.create_file();
        assert!(d > c, "ids are never reused");
    }

    #[test]
    fn delete_returns_page_count() {
        let mut v = Volume::new();
        let f = v.create_file();
        v.append_pages(f, [Page::new(256), Page::new(256)]);
        assert_eq!(v.delete_file(f), 2);
        assert!(!v.exists(f));
    }

    #[test]
    #[should_panic(expected = "unknown file")]
    fn double_delete_panics() {
        let mut v = Volume::new();
        let f = v.create_file();
        v.delete_file(f);
        v.delete_file(f);
    }

    #[test]
    fn head_position_classifies_access() {
        let mut h = HeadPos::default();
        assert!(!h.access(1, 0), "first access is random (seek to file)");
        assert!(h.access(1, 1), "next page is sequential");
        assert!(h.access(1, 1), "re-read of same page is sequential");
        assert!(!h.access(1, 5), "skip is random");
        assert!(!h.access(2, 6), "different file is random");
        assert!(h.access(2, 7));
    }

    #[test]
    fn detach_and_attach_roundtrip() {
        let mut v = Volume::new();
        let f = v.create_file();
        let mut p = Page::new(256);
        p.insert(b"rec").unwrap();
        v.append_pages(f, [p]);
        let pages = v.detach_pages(f);
        assert_eq!(pages.len(), 1);
        assert!(v.exists(f), "the file stays");
        assert_eq!(v.file_pages(f), 0);
        let g = v.create_file();
        v.append_pages(g, [Page::new(256)]);
        v.attach_pages(f, pages);
        assert_eq!(v.page(f, 0).get(0), Some(&b"rec"[..]));
    }

    #[test]
    fn total_pages_spans_files() {
        let mut v = Volume::new();
        let a = v.create_file();
        let b = v.create_file();
        v.append_pages(a, [Page::new(256)]);
        v.append_pages(b, [Page::new(256), Page::new(256)]);
        assert_eq!(v.total_pages(), 3);
    }
}
