//! System configuration: the memory-model and interconnect choices of
//! the design-space exploration the framework exists to support, and
//! the standard shared-memory address layout.

use dmi_core::{SimHeapConfig, StaticMemConfig, WrapperConfig};
use dmi_interconnect::{BusConfig, CrossbarConfig};

/// Which memory model backs a shared-memory module.
#[derive(Debug, Clone, Copy)]
pub enum MemModelKind {
    /// The paper's host-backed dynamic memory wrapper.
    Wrapper(WrapperConfig),
    /// The detailed in-simulation allocator baseline.
    SimHeap(SimHeapConfig),
    /// A directly-addressed static table (no dynamic protocol).
    Static(StaticMemConfig),
    /// The static table behind the protocol register block
    /// ([`dmi_core::StaticTableBackend`] inside a
    /// [`dmi_core::MemoryModule`]): the traditional baseline speaking
    /// the same command handshake as the dynamic models, so
    /// protocol-level masters (burst DMAs, the ISS driver) can target
    /// it handshake-for-handshake. Allocation commands answer
    /// `Unsupported` — that *is* the baseline's limitation the paper
    /// starts from.
    StaticProtocol(StaticMemConfig),
}

impl MemModelKind {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MemModelKind::Wrapper(_) => "wrapper",
            MemModelKind::SimHeap(_) => "simheap",
            MemModelKind::Static(_) => "static",
            MemModelKind::StaticProtocol(_) => "static-protocol",
        }
    }
}

/// Interconnect topology.
#[derive(Debug, Clone, Copy)]
pub enum InterconnectKind {
    /// Single shared bus (the paper's topology).
    SharedBus(BusConfig),
    /// Crossbar with per-slave arbitration (ablation).
    Crossbar(CrossbarConfig),
}

/// Base address of shared-memory module `i` in the CPUs' address space.
///
/// Each module owns a 64 KiB window starting at `0x8000_0000`.
pub const fn mem_base(i: usize) -> u32 {
    0x8000_0000 + (i as u32) * 0x0001_0000
}

/// Size of each module's decode window.
pub const MEM_WINDOW: u32 = 0x0001_0000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_bases_are_disjoint_windows() {
        assert_eq!(mem_base(0), 0x8000_0000);
        assert_eq!(mem_base(1), 0x8001_0000);
        assert_eq!(mem_base(2) - mem_base(1), MEM_WINDOW);
    }

    #[test]
    fn model_names() {
        assert_eq!(
            MemModelKind::Wrapper(WrapperConfig::default()).name(),
            "wrapper"
        );
        assert_eq!(
            MemModelKind::SimHeap(SimHeapConfig::default()).name(),
            "simheap"
        );
        assert_eq!(
            MemModelKind::Static(StaticMemConfig::default()).name(),
            "static"
        );
        assert_eq!(
            MemModelKind::StaticProtocol(StaticMemConfig::default()).name(),
            "static-protocol"
        );
    }
}
