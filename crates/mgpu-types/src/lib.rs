//! Foundation newtypes shared by every crate in the least-TLB workspace.
//!
//! The simulator models a discrete multi-GPU system (AMD GCN style) attached
//! to a CPU-side IOMMU, following the baseline of Li et al., *"Improving
//! Address Translation in Multi-GPUs via Sharing and Spilling aware TLB
//! Design"* (MICRO 2021). Virtual and physical pages, address-space
//! identifiers, GPU/CU/wavefront coordinates and simulation time all get
//! dedicated newtypes so the type system rules out mixing them up
//! (C-NEWTYPE).
//!
//! # Examples
//!
//! ```
//! use mgpu_types::{VirtAddr, VirtPage, PageSize};
//!
//! let va = VirtAddr(0x1234_5678);
//! assert_eq!(va.page(PageSize::Size4K), VirtPage(0x12345));
//! assert_eq!(va.page(PageSize::Size2M), VirtPage(0x91));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod det;
mod flat;

pub use det::{DetMap, DetSet};
pub use flat::{FlatEntry, FlatKey, FlatMap, OccupiedEntry, VacantEntry, WaitList};

use std::fmt;

use serde::{Deserialize, Serialize};

/// Simulation time in GPU core clock cycles (1 GHz in the paper's Table 2,
/// so one cycle is one nanosecond).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The beginning of time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns this instant advanced by `delta` cycles.
    ///
    /// # Examples
    ///
    /// ```
    /// # use mgpu_types::Cycle;
    /// assert_eq!(Cycle(10).after(5), Cycle(15));
    /// ```
    #[must_use]
    pub fn after(self, delta: u64) -> Cycle {
        Cycle(self.0 + delta)
    }

    /// Cycles elapsed since `earlier`, saturating at zero.
    #[must_use]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

impl std::ops::Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

/// A full virtual byte address.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The virtual page containing this address for the given page size.
    #[must_use]
    pub fn page(self, size: PageSize) -> VirtPage {
        VirtPage(self.0 >> size.shift())
    }
}

/// A virtual page number (address right-shifted by the page-size shift).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VirtPage(pub u64);

impl VirtPage {
    /// The base virtual address of this page.
    #[must_use]
    pub fn base_addr(self, size: PageSize) -> VirtAddr {
        VirtAddr(self.0 << size.shift())
    }

    /// Collapses a 4 KB page number onto the page number of the enclosing
    /// page of size `size` (identity for 4 KB pages). Workload generators
    /// emit 4 KB-granule pages; large-page experiments fold them with this.
    #[must_use]
    pub fn fold_to(self, size: PageSize) -> VirtPage {
        VirtPage(self.0 >> (size.shift() - PageSize::Size4K.shift()))
    }
}

impl fmt::Display for VirtPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v:{:#x}", self.0)
    }
}

/// A physical frame number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PhysPage(pub u64);

impl fmt::Display for PhysPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p:{:#x}", self.0)
    }
}

/// Address-space identifier. Each application (process) in a workload has a
/// distinct ASID; translations in shared TLB structures are tagged with it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Asid(pub u16);

impl fmt::Display for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "asid{}", self.0)
    }
}

/// A `(ASID, virtual page)` pair — the lookup key of every TLB level.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TranslationKey {
    /// Address space the page belongs to.
    pub asid: Asid,
    /// Virtual page number within that address space.
    pub vpn: VirtPage,
}

impl TranslationKey {
    /// Convenience constructor.
    #[must_use]
    pub fn new(asid: Asid, vpn: VirtPage) -> Self {
        TranslationKey { asid, vpn }
    }

    /// A stable 64-bit mix of ASID and VPN, used by hashed structures
    /// (cuckoo-filter fingerprints, set indices).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        // SplitMix-style mix keeps low-entropy page numbers well spread.
        let mut z = self.vpn.0 ^ (u64::from(self.asid.0) << 48);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl fmt::Display for TranslationKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.asid, self.vpn)
    }
}

/// Index of a GPU in the multi-GPU system (0-based).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GpuId(pub u8);

impl GpuId {
    /// Usize view for indexing.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for GpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GPU{}", self.0)
    }
}

/// Index of a compute unit within one GPU.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CuId(pub u16);

impl CuId {
    /// Usize view for indexing.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// Index of a wavefront context within one compute unit.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct WavefrontId(pub u16);

impl WavefrontId {
    /// Usize view for indexing.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

/// Page sizes supported by the page table and TLBs.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum PageSize {
    /// 4 KB base pages (the paper's default).
    #[default]
    Size4K,
    /// 2 MB superpages (paper §5.4).
    Size2M,
}

impl PageSize {
    /// log2 of the page size in bytes.
    #[must_use]
    pub fn shift(self) -> u32 {
        match self {
            PageSize::Size4K => 12,
            PageSize::Size2M => 21,
        }
    }

    /// Page size in bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        1 << self.shift()
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Size4K => write!(f, "4KB"),
            PageSize::Size2M => write!(f, "2MB"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        assert_eq!(Cycle::ZERO.after(7), Cycle(7));
        assert_eq!(Cycle(9) + 1, Cycle(10));
        assert_eq!(Cycle(10).since(Cycle(4)), 6);
        assert_eq!(Cycle(4).since(Cycle(10)), 0, "since saturates");
        assert_eq!(Cycle(3).to_string(), "3cyc");
    }

    #[test]
    fn addr_to_page() {
        let a = VirtAddr(0x0000_0000_0040_2fff);
        assert_eq!(a.page(PageSize::Size4K), VirtPage(0x402));
        assert_eq!(a.page(PageSize::Size2M), VirtPage(0x2));
    }

    #[test]
    fn page_base_roundtrip() {
        let p = VirtPage(0x55);
        assert_eq!(p.base_addr(PageSize::Size4K).page(PageSize::Size4K), p);
        let q = VirtPage(0x3);
        assert_eq!(q.base_addr(PageSize::Size2M).page(PageSize::Size2M), q);
    }

    #[test]
    fn fold_4k_to_2m() {
        // 512 4KB pages per 2MB page.
        assert_eq!(VirtPage(0).fold_to(PageSize::Size2M), VirtPage(0));
        assert_eq!(VirtPage(511).fold_to(PageSize::Size2M), VirtPage(0));
        assert_eq!(VirtPage(512).fold_to(PageSize::Size2M), VirtPage(1));
        assert_eq!(VirtPage(77).fold_to(PageSize::Size4K), VirtPage(77));
    }

    #[test]
    fn translation_key_mix_differs_by_asid() {
        let a = TranslationKey::new(Asid(1), VirtPage(42));
        let b = TranslationKey::new(Asid(2), VirtPage(42));
        assert_ne!(a.as_u64(), b.as_u64());
    }

    #[test]
    fn translation_key_mix_is_stable() {
        let k = TranslationKey::new(Asid(3), VirtPage(0x1234));
        assert_eq!(k.as_u64(), k.as_u64());
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(GpuId(2).to_string(), "GPU2");
        assert_eq!(Asid(5).to_string(), "asid5");
        assert!(!TranslationKey::default().to_string().is_empty());
        assert_eq!(PageSize::Size2M.to_string(), "2MB");
        assert!(VirtPage(1).to_string().contains("0x1"));
        assert!(PhysPage(2).to_string().contains("0x2"));
    }

    #[test]
    fn page_size_bytes() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.bytes(), 2 * 1024 * 1024);
    }
}
