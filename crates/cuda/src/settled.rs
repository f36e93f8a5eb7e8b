//! The settled-unit memo behind the sparse access path
//! ([`Kernel::sparse`](crate::Kernel::sparse)).
//!
//! Gathers, scatters and strided segments touch the same few system
//! pages (or managed 2 MiB blocks) over and over. The first span on a
//! unit takes the full access path; once the unit is *settled* — a
//! populated system page, or a managed block whose buffer-clipped range
//! is wholly GPU-resident under a migratable, unpinned allocation —
//! later spans need no page-table, VMA or UVM probe to be charged
//! exactly as the full path would charge them. This memo remembers which
//! units are settled, per buffer, and which pages are already dirty.
//!
//! Every entry is exact only while the [`Stamp`] it was learned under
//! still holds: any placement change (the system page table's placement
//! epoch) or policy tightening (a `cudaMemAdvise` call or a thrashing pin)
//! bumps the stamp and drops the whole memo in O(1) by moving to a new
//! generation.

use gh_mem::phys::Node;
use gh_os::VaRange;
use gh_units::Vpn;

use crate::uvm::block_of;

/// What a memo's entries were learned under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stamp {
    /// `system_pt.placement_epoch()`.
    pub epoch: u64,
    /// `Runtime::policy_gen`.
    pub policy: u64,
}

/// Per-page memo slot. A field is valid only when its generation equals
/// the memo's current one (0 never does).
#[derive(Debug, Clone, Copy)]
struct PageSlot {
    settled: u32,
    dirty: u32,
    node: Node,
}

const VACANT: PageSlot = PageSlot {
    settled: 0,
    dirty: 0,
    node: Node::Cpu,
};

/// Settled pages and blocks of one buffer.
#[derive(Debug)]
pub(crate) struct Settled {
    stamp: Stamp,
    gen: u32,
    first_vpn: u64,
    pages: Vec<PageSlot>,
    first_block: u64,
    /// Managed buffers: generation at which each 2 MiB block settled.
    blocks: Vec<u32>,
}

impl Settled {
    /// An empty memo for the buffer at `range` on `spt`-byte pages.
    pub fn new(range: VaRange, spt: u64, stamp: Stamp) -> Self {
        let first_vpn = range.addr / spt;
        let last_vpn = (range.end() - 1) / spt;
        let first_block = block_of(range.addr);
        let last_block = block_of(range.end() - 1);
        Self {
            stamp,
            gen: 1,
            first_vpn,
            pages: vec![VACANT; (last_vpn - first_vpn + 1) as usize],
            first_block,
            blocks: vec![0; (last_block - first_block + 1) as usize],
        }
    }

    /// Drops every entry if the machine moved on since they were learned.
    pub fn validate(&mut self, stamp: Stamp) {
        if stamp == self.stamp {
            return;
        }
        self.stamp = stamp;
        self.gen = match self.gen.checked_add(1) {
            Some(g) => g,
            None => {
                self.pages.fill(VACANT);
                self.blocks.fill(0);
                1
            }
        };
    }

    fn slot(&self, vpn: Vpn) -> &PageSlot {
        &self.pages[(vpn.get() - self.first_vpn) as usize]
    }

    fn slot_mut(&mut self, vpn: Vpn) -> &mut PageSlot {
        &mut self.pages[(vpn.get() - self.first_vpn) as usize]
    }

    /// The node of a settled system page.
    pub fn page(&self, vpn: Vpn) -> Option<Node> {
        let s = self.slot(vpn);
        (s.settled == self.gen).then_some(s.node)
    }

    /// Records a populated page, its node and its dirty bit.
    pub fn settle_page(&mut self, vpn: Vpn, node: Node, dirty: bool) {
        let gen = self.gen;
        let s = self.slot_mut(vpn);
        s.settled = gen;
        s.node = node;
        if dirty {
            s.dirty = gen;
        }
    }

    /// Marks `vpn` known-dirty; returns whether it was not already.
    pub fn dirty(&mut self, vpn: Vpn) -> bool {
        let gen = self.gen;
        let s = self.slot_mut(vpn);
        let fresh = s.dirty != gen;
        s.dirty = gen;
        fresh
    }

    /// Whether a managed block is settled.
    pub fn block(&self, block: u64) -> bool {
        self.blocks[(block - self.first_block) as usize] == self.gen
    }

    /// Records a settled managed block.
    pub fn settle_block(&mut self, block: u64) {
        self.blocks[(block - self.first_block) as usize] = self.gen;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPT: u64 = 64 * 1024;

    fn memo() -> Settled {
        let range = VaRange {
            addr: 4 * 1024 * 1024,
            len: 4 * 1024 * 1024,
        };
        Settled::new(
            range,
            SPT,
            Stamp {
                epoch: 1,
                policy: 0,
            },
        )
    }

    #[test]
    fn entries_hold_until_the_stamp_moves() {
        let mut m = memo();
        let v = Vpn::new(4 * 1024 * 1024 / SPT + 3);
        assert_eq!(m.page(v), None);
        m.settle_page(v, Node::Gpu, false);
        m.settle_block(2);
        assert_eq!(m.page(v), Some(Node::Gpu));
        assert!(m.block(2) && !m.block(3));
        assert!(m.dirty(v), "first write is fresh");
        assert!(!m.dirty(v), "second write is known");
        m.validate(Stamp {
            epoch: 1,
            policy: 0,
        });
        assert_eq!(m.page(v), Some(Node::Gpu));
        m.validate(Stamp {
            epoch: 2,
            policy: 0,
        });
        assert_eq!(m.page(v), None);
        assert!(!m.block(2));
        assert!(m.dirty(v), "dirty knowledge dropped too");
        m.validate(Stamp {
            epoch: 2,
            policy: 1,
        });
        assert!(m.dirty(v));
    }

    #[test]
    fn settle_carries_the_page_dirty_bit() {
        let mut m = memo();
        let v = Vpn::new(4 * 1024 * 1024 / SPT);
        m.settle_page(v, Node::Cpu, true);
        assert!(!m.dirty(v));
    }
}
