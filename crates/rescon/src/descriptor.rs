//! Per-process container descriptor tables (paper §4.6).
//!
//! "Containers are visible to the application as file descriptors (and so
//! are inherited by a new process after a fork())." This module implements
//! the descriptor side: open/close/dup, fork inheritance, and passing a
//! container between processes (the sender retains access, like UNIX
//! descriptor passing).
//!
//! The [`DescriptorTable`] manipulates reference counts on the shared
//! [`ContainerTable`]; closing the last descriptor of an otherwise
//! unreferenced container destroys it.

use crate::error::{RcError, Result};
use crate::table::{ContainerId, ContainerTable};

/// A process-local container descriptor (a small integer, like an fd).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerFd(pub u32);

/// Either way an application can name a container: through a
/// process-local descriptor (the common case, §4.6) or directly by
/// kernel id (trusted in-kernel callers and harness code).
///
/// Syscalls that bind resources to containers accept
/// `impl Into<ContainerRef>`, so call sites pass a [`ContainerFd`] or a
/// [`ContainerId`] without choosing between parallel
/// `_fd`/`_id` method variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerRef {
    /// A descriptor in the calling process's table.
    Fd(ContainerFd),
    /// A raw container id, bypassing the descriptor table.
    Id(ContainerId),
}

impl From<ContainerFd> for ContainerRef {
    fn from(fd: ContainerFd) -> Self {
        ContainerRef::Fd(fd)
    }
}

impl From<ContainerId> for ContainerRef {
    fn from(id: ContainerId) -> Self {
        ContainerRef::Id(id)
    }
}

/// A per-process table mapping descriptors to containers.
///
/// # Examples
///
/// ```
/// use rescon::{Attributes, ContainerTable, DescriptorTable};
///
/// let mut containers = ContainerTable::new();
/// let c = containers.create(None, Attributes::time_shared(1)).unwrap();
///
/// let mut fds = DescriptorTable::new();
/// let fd = fds.adopt(c); // `create` already counted the creator's ref.
/// assert_eq!(fds.resolve(fd).unwrap(), c);
///
/// // Passing to another process: both ends hold a reference afterwards.
/// let mut other = DescriptorTable::new();
/// let their_fd = fds.pass_to(fd, &mut other, &mut containers).unwrap();
/// assert_eq!(other.resolve(their_fd).unwrap(), c);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DescriptorTable {
    slots: Vec<Option<ContainerId>>,
}

impl DescriptorTable {
    /// Creates an empty descriptor table.
    pub fn new() -> Self {
        DescriptorTable::default()
    }

    /// Returns the number of open descriptors.
    pub fn open_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Installs a container into the lowest free descriptor slot *without*
    /// adjusting reference counts.
    ///
    /// Use this for the descriptor returned by `create` (which already
    /// counts one reference for the creator); use
    /// [`DescriptorTable::open`] when a new reference must be taken.
    pub fn adopt(&mut self, c: ContainerId) -> ContainerFd {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(c);
                return ContainerFd(i as u32);
            }
        }
        self.slots.push(Some(c));
        ContainerFd((self.slots.len() - 1) as u32)
    }

    /// Opens a new descriptor to an existing container, taking a reference
    /// (§4.6 "obtain handle for existing container").
    pub fn open(&mut self, c: ContainerId, containers: &mut ContainerTable) -> Result<ContainerFd> {
        containers.add_descriptor_ref(c)?;
        Ok(self.adopt(c))
    }

    /// Resolves a descriptor to its container.
    pub fn resolve(&self, fd: ContainerFd) -> Result<ContainerId> {
        self.slots
            .get(fd.0 as usize)
            .copied()
            .flatten()
            .ok_or(RcError::BadDescriptor)
    }

    /// Closes a descriptor, dropping its container reference (§4.6
    /// "Container release"). Returns `true` if this destroyed the
    /// container.
    pub fn close(&mut self, fd: ContainerFd, containers: &mut ContainerTable) -> Result<bool> {
        let c = self.resolve(fd)?;
        self.slots[fd.0 as usize] = None;
        containers.drop_descriptor_ref(c)
    }

    /// Clears a descriptor slot *without* dropping the container
    /// reference; the caller becomes responsible for the reference. Used
    /// by kernels whose borrow structure separates descriptor tables from
    /// the container table.
    pub fn forget(&mut self, fd: ContainerFd) -> Result<ContainerId> {
        let c = self.resolve(fd)?;
        self.slots[fd.0 as usize] = None;
        Ok(c)
    }

    /// Duplicates a descriptor within this process, taking a new reference.
    pub fn dup(&mut self, fd: ContainerFd, containers: &mut ContainerTable) -> Result<ContainerFd> {
        let c = self.resolve(fd)?;
        self.open(c, containers)
    }

    /// Sends a container to another process (§4.6 "Sharing containers
    /// between processes"); the sender retains access.
    pub fn pass_to(
        &self,
        fd: ContainerFd,
        receiver: &mut DescriptorTable,
        containers: &mut ContainerTable,
    ) -> Result<ContainerFd> {
        let c = self.resolve(fd)?;
        receiver.open(c, containers)
    }

    /// Clones this table for a forked child, taking one new reference per
    /// open descriptor (§4.6: descriptors "are inherited by a new process
    /// after a fork()").
    pub fn fork_inherit(&self, containers: &mut ContainerTable) -> Result<DescriptorTable> {
        let child = DescriptorTable {
            slots: self.slots.clone(),
        };
        for slot in child.slots.iter().flatten() {
            containers.add_descriptor_ref(*slot)?;
        }
        Ok(child)
    }

    /// Closes every descriptor (process exit). Returns how many containers
    /// were destroyed as a result.
    pub fn close_all(&mut self, containers: &mut ContainerTable) -> usize {
        let mut destroyed = 0;
        for slot in self.slots.iter_mut() {
            if let Some(c) = slot.take() {
                if containers.drop_descriptor_ref(c).unwrap_or(false) {
                    destroyed += 1;
                }
            }
        }
        destroyed
    }

    /// Iterates over open `(fd, container)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ContainerFd, ContainerId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|c| (ContainerFd(i as u32), c)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Attributes;

    fn setup() -> (ContainerTable, DescriptorTable, ContainerFd, ContainerId) {
        let mut ct = ContainerTable::new();
        let c = ct.create(None, Attributes::time_shared(1)).unwrap();
        let mut dt = DescriptorTable::new();
        let fd = dt.adopt(c);
        (ct, dt, fd, c)
    }

    #[test]
    fn adopt_uses_lowest_slot() {
        let (mut ct, mut dt, fd0, c) = setup();
        let fd1 = dt.open(c, &mut ct).unwrap();
        assert_eq!(fd0, ContainerFd(0));
        assert_eq!(fd1, ContainerFd(1));
        dt.close(fd0, &mut ct).unwrap();
        let fd2 = dt.open(c, &mut ct).unwrap();
        assert_eq!(fd2, ContainerFd(0));
    }

    #[test]
    fn close_last_descriptor_destroys() {
        let (mut ct, mut dt, fd, c) = setup();
        assert!(dt.close(fd, &mut ct).unwrap());
        assert!(!ct.contains(c));
        assert_eq!(dt.resolve(fd).unwrap_err(), RcError::BadDescriptor);
    }

    #[test]
    fn dup_keeps_alive_until_both_closed() {
        let (mut ct, mut dt, fd, c) = setup();
        let fd2 = dt.dup(fd, &mut ct).unwrap();
        assert!(!dt.close(fd, &mut ct).unwrap());
        assert!(ct.contains(c));
        assert!(dt.close(fd2, &mut ct).unwrap());
        assert!(!ct.contains(c));
    }

    #[test]
    fn pass_between_processes_sender_retains() {
        let (mut ct, dt, fd, c) = setup();
        let mut other = DescriptorTable::new();
        let ofd = dt.pass_to(fd, &mut other, &mut ct).unwrap();
        assert_eq!(other.resolve(ofd).unwrap(), c);
        assert_eq!(dt.resolve(fd).unwrap(), c);
        // Two references now: closing one keeps the container.
        assert!(!other.close(ofd, &mut ct).unwrap());
        assert!(ct.contains(c));
    }

    #[test]
    fn fork_inherits_all_open_descriptors() {
        let (mut ct, mut dt, fd, c) = setup();
        let c2 = ct.create(None, Attributes::time_shared(2)).unwrap();
        let fd2 = dt.adopt(c2);
        let mut child = dt.fork_inherit(&mut ct).unwrap();
        assert_eq!(child.resolve(fd).unwrap(), c);
        assert_eq!(child.resolve(fd2).unwrap(), c2);
        // Parent exit alone does not destroy.
        assert_eq!(dt.close_all(&mut ct), 0);
        assert!(ct.contains(c));
        // Child exit destroys both.
        assert_eq!(child.close_all(&mut ct), 2);
        assert!(!ct.contains(c));
        assert!(!ct.contains(c2));
    }

    #[test]
    fn resolve_bad_fd() {
        let (_ct, dt, _fd, _c) = setup();
        assert_eq!(
            dt.resolve(ContainerFd(99)).unwrap_err(),
            RcError::BadDescriptor
        );
    }

    #[test]
    fn open_count_tracks() {
        let (mut ct, mut dt, fd, c) = setup();
        assert_eq!(dt.open_count(), 1);
        let fd2 = dt.open(c, &mut ct).unwrap();
        assert_eq!(dt.open_count(), 2);
        dt.close(fd, &mut ct).unwrap();
        dt.close(fd2, &mut ct).unwrap();
        assert_eq!(dt.open_count(), 0);
    }
}
