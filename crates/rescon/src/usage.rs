//! Per-container resource usage accounting (paper §4.1: "The kernel
//! carefully accounts for the system resources, such as CPU time and memory,
//! consumed by a resource container").

use simcore::Nanos;

/// The kind of kernel memory a charge represents (the `simmem`
/// taxonomy). Every byte of kernel memory charged to a container is
/// tagged with one class, so pressure and reclaim can distinguish
/// memory that can be stolen back (cache pages) from memory that is
/// pinned until its owner releases it (socket buffers, protocol
/// control blocks, thread stacks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemClass {
    /// Socket receive/send buffers, charged per established connection.
    SockBuf,
    /// Per-connection protocol state (PCBs and friends).
    ConnState,
    /// Thread kernel stacks, charged on spawn and released on exit.
    ThreadStack,
    /// Buffer-cache pages; the only reclaimable class.
    CachePage,
    /// Anything else (application-reserved kernel memory, legacy
    /// untagged charges).
    Other,
}

impl MemClass {
    /// Number of memory classes (size of the per-class breakdown array).
    pub const COUNT: usize = 5;

    /// Every class, in breakdown-array order.
    pub const ALL: [MemClass; MemClass::COUNT] = [
        MemClass::SockBuf,
        MemClass::ConnState,
        MemClass::ThreadStack,
        MemClass::CachePage,
        MemClass::Other,
    ];

    /// Index of this class in a per-class breakdown array.
    pub fn index(self) -> usize {
        match self {
            MemClass::SockBuf => 0,
            MemClass::ConnState => 1,
            MemClass::ThreadStack => 2,
            MemClass::CachePage => 3,
            MemClass::Other => 4,
        }
    }

    /// Stable lower-case label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            MemClass::SockBuf => "sockbuf",
            MemClass::ConnState => "connstate",
            MemClass::ThreadStack => "stack",
            MemClass::CachePage => "cache",
            MemClass::Other => "other",
        }
    }

    /// Whether the kernel may steal this memory back under pressure
    /// without the owner's cooperation. Only cache pages are; everything
    /// else is pinned until explicitly released (or its principal is
    /// OOM-killed).
    pub fn reclaimable(self) -> bool {
        matches!(self, MemClass::CachePage)
    }
}

/// Accumulated resource consumption charged to one container.
///
/// `cpu` is the headline metric — every scheduling decision in the paper's
/// evaluation derives from it — but the network and memory counters are what
/// let an application (or a billing system, §4.8) understand *why* an
/// activity is expensive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    /// CPU time charged to this container (user and kernel mode).
    pub cpu: Nanos,
    /// CPU time charged while executing kernel-mode work (subset of `cpu`).
    pub kernel_cpu: Nanos,
    /// Packets received and processed on behalf of this container.
    pub pkts_rx: u64,
    /// Packets transmitted on behalf of this container.
    pub pkts_tx: u64,
    /// Payload bytes received.
    pub bytes_rx: u64,
    /// Payload bytes transmitted.
    pub bytes_tx: u64,
    /// Wire time the transmit link spent on this container's packets.
    /// Zero unless the kernel models a finite-bandwidth link.
    pub tx_time: Nanos,
    /// Bytes of memory currently charged (socket buffers, PCBs, buffer
    /// cache pages, ...).
    pub mem_bytes: u64,
    /// High-water mark of `mem_bytes`.
    pub mem_peak: u64,
    /// Per-[`MemClass`] breakdown of `mem_bytes`; indexed by
    /// [`MemClass::index`] and summing to `mem_bytes` as long as charges
    /// and releases use matching classes.
    pub mem_by_class: [u64; MemClass::COUNT],
    /// Disk service time (seek + rotation + transfer) charged to this
    /// container. The paper projects containers extending to "other
    /// resources, such as disk bandwidth" (§7); this is that counter.
    pub disk_time: Nanos,
    /// Disk read requests completed on behalf of this container.
    pub disk_reads: u64,
    /// Bytes transferred from disk on behalf of this container.
    pub disk_bytes: u64,
    /// Sockets currently bound to this container.
    pub sockets: u64,
}

impl ResourceUsage {
    /// Creates a zeroed usage record.
    pub fn new() -> Self {
        ResourceUsage::default()
    }

    /// Charges CPU time; `kernel` marks kernel-mode execution.
    pub fn charge_cpu(&mut self, dt: Nanos, kernel: bool) {
        self.cpu += dt;
        if kernel {
            self.kernel_cpu += dt;
        }
    }

    /// Charges a received packet of `bytes` payload bytes.
    pub fn charge_rx(&mut self, bytes: u64) {
        self.pkts_rx += 1;
        self.bytes_rx += bytes;
    }

    /// Charges a transmitted packet of `bytes` payload bytes.
    pub fn charge_tx(&mut self, bytes: u64) {
        self.pkts_tx += 1;
        self.bytes_tx += bytes;
    }

    /// Charges wire time on the transmit link.
    pub fn charge_tx_time(&mut self, dt: Nanos) {
        self.tx_time += dt;
    }

    /// Charges `bytes` of memory; updates the peak. Untagged charges
    /// count as [`MemClass::Other`].
    pub fn charge_mem(&mut self, bytes: u64) {
        self.charge_mem_class(bytes, MemClass::Other);
    }

    /// Charges `bytes` of `class` memory; updates the peak.
    pub fn charge_mem_class(&mut self, bytes: u64, class: MemClass) {
        self.mem_bytes += bytes;
        self.mem_by_class[class.index()] += bytes;
        self.mem_peak = self.mem_peak.max(self.mem_bytes);
    }

    /// Releases `bytes` of memory, saturating at zero. Untagged releases
    /// count against [`MemClass::Other`].
    pub fn release_mem(&mut self, bytes: u64) {
        self.release_mem_class(bytes, MemClass::Other);
    }

    /// Releases `bytes` of `class` memory, saturating at zero.
    pub fn release_mem_class(&mut self, bytes: u64, class: MemClass) {
        self.mem_bytes = self.mem_bytes.saturating_sub(bytes);
        let slot = &mut self.mem_by_class[class.index()];
        *slot = slot.saturating_sub(bytes);
    }

    /// Charges one completed disk request of `bytes` that occupied the
    /// disk for `dt`.
    pub fn charge_disk(&mut self, dt: Nanos, bytes: u64) {
        self.disk_time += dt;
        self.disk_reads += 1;
        self.disk_bytes += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_split_between_user_and_kernel() {
        let mut u = ResourceUsage::new();
        u.charge_cpu(Nanos::from_micros(100), false);
        u.charge_cpu(Nanos::from_micros(40), true);
        assert_eq!(u.cpu, Nanos::from_micros(140));
        assert_eq!(u.kernel_cpu, Nanos::from_micros(40));
    }

    #[test]
    fn packet_charges() {
        let mut u = ResourceUsage::new();
        u.charge_rx(512);
        u.charge_rx(512);
        u.charge_tx(1024);
        assert_eq!(u.pkts_rx, 2);
        assert_eq!(u.bytes_rx, 1024);
        assert_eq!(u.pkts_tx, 1);
        assert_eq!(u.bytes_tx, 1024);
    }

    #[test]
    fn memory_peak_tracking() {
        let mut u = ResourceUsage::new();
        u.charge_mem(100);
        u.charge_mem(50);
        u.release_mem(120);
        assert_eq!(u.mem_bytes, 30);
        assert_eq!(u.mem_peak, 150);
        u.release_mem(1000);
        assert_eq!(u.mem_bytes, 0);
    }

    #[test]
    fn per_class_breakdown_sums_to_total() {
        let mut u = ResourceUsage::new();
        u.charge_mem_class(100, MemClass::SockBuf);
        u.charge_mem_class(200, MemClass::CachePage);
        u.charge_mem(50); // Other
        assert_eq!(u.mem_bytes, 350);
        assert_eq!(u.mem_by_class[MemClass::SockBuf.index()], 100);
        assert_eq!(u.mem_by_class[MemClass::CachePage.index()], 200);
        assert_eq!(u.mem_by_class[MemClass::Other.index()], 50);
        assert_eq!(u.mem_by_class.iter().sum::<u64>(), u.mem_bytes);
        u.release_mem_class(150, MemClass::CachePage);
        assert_eq!(u.mem_by_class[MemClass::CachePage.index()], 50);
        assert_eq!(u.mem_by_class.iter().sum::<u64>(), u.mem_bytes);
    }

    #[test]
    fn mem_class_taxonomy_is_stable() {
        assert_eq!(MemClass::ALL.len(), MemClass::COUNT);
        for (i, c) in MemClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.label().is_empty());
        }
        assert!(MemClass::CachePage.reclaimable());
        for c in [
            MemClass::SockBuf,
            MemClass::ConnState,
            MemClass::ThreadStack,
            MemClass::Other,
        ] {
            assert!(!c.reclaimable(), "{c:?} must be pinned");
        }
    }
}
