//! Memory topology: heterogeneous banks abstracted as pseudo-NUMA nodes.
//!
//! The paper's enabling abstraction (§1, §6.1): fast and slow memories
//! appear to the OS as separate NUMA nodes, letting mature facilities
//! (allocation policy, migration targets) apply unchanged. On KeyStone II
//! the CPUs and the 8 GB DDR3 share node 0 while the 6 MB on-chip SRAM is
//! node 1. This module also reproduces the bring-up quirk the authors had
//! to patch around: the SRAM bank's physical address is *lower* than any
//! DDR bank, so it must stay invisible to the boot allocator and only be
//! onlined after boot (§6.1).
//!
//! Beyond the paper's two nodes, every bank carries a dense *tier rank*
//! ([`TierRank`]): rank 0 is the fastest tier and higher ranks are
//! successively colder. [`Topology::ranked`] builds an N-tier waterfall
//! ladder (SRAM → DRAM → NVM → compressed) for experiments that need a
//! deeper hierarchy than KeyStone II's.

use serde::{Deserialize, Serialize};

use crate::phys::PhysAddr;

/// A pseudo-NUMA node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u16);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Position of a node in the ranked memory hierarchy. Rank 0 is the
/// fastest tier; larger ranks are colder (slower or compressed) tiers.
/// Ranks are dense per topology: every rank from 0 to the maximum has at
/// least one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TierRank(pub u16);

impl TierRank {
    /// The rank one step colder (down the waterfall).
    #[must_use]
    pub fn down(self) -> TierRank {
        TierRank(self.0 + 1)
    }

    /// The rank one step hotter (up the waterfall), saturating at 0.
    #[must_use]
    pub fn up(self) -> TierRank {
        TierRank(self.0.saturating_sub(1))
    }
}

impl std::fmt::Display for TierRank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tier{}", self.0)
    }
}

/// Memory technology class of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryKind {
    /// Capacity-limited, high-bandwidth memory (on-chip SRAM, eDRAM,
    /// die-stacked DRAM).
    Fast,
    /// Large-capacity commodity memory (DDR, NVRAM).
    Slow,
    /// Persistent, NVM-like memory: contents survive a simulated crash
    /// and writes cost more than reads (asymmetric bandwidth, modeled
    /// after "Emulating Hybrid Memory on NUMA Hardware").
    Nvm,
    /// Compressed in-memory cold storage (zram/zswap-like). Bytes moved
    /// into such a bank charge costed CPU compression work, and bytes
    /// moved out charge decompression, analogous to the costed CPU-copy
    /// degradation path.
    Compressed,
    /// DRAM-class capacity memory behind a CXL-like serial link: volatile
    /// like DRAM, but loads and stores see asymmetric link bandwidth
    /// (stores are slower), modeled with a separate write-side pipe
    /// exactly as NVM's asymmetry is.
    Cxl,
}

impl MemoryKind {
    /// Whether a bank of this kind retains its contents across a
    /// simulated crash. Only NVM-like banks are persistent; DRAM, SRAM,
    /// and compressed banks lose their contents.
    #[must_use]
    pub fn is_persistent(self) -> bool {
        matches!(self, MemoryKind::Nvm)
    }

    /// Whether reads/writes of a bank of this kind pass through the CPU
    /// compression codec.
    #[must_use]
    pub fn is_compressed(self) -> bool {
        matches!(self, MemoryKind::Compressed)
    }

    /// Lower-case label used in JSON and tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MemoryKind::Fast => "fast",
            MemoryKind::Slow => "slow",
            MemoryKind::Nvm => "nvm",
            MemoryKind::Compressed => "compressed",
            MemoryKind::Cxl => "cxl",
        }
    }
}

/// One memory bank exposed as a pseudo-NUMA node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryNode {
    /// Node id (CPUs live on the first `Slow` node, as on KeyStone II).
    pub id: NodeId,
    /// Human-readable name.
    pub name: String,
    /// Technology class.
    pub kind: MemoryKind,
    /// Rank in the waterfall hierarchy (0 = fastest).
    pub tier: TierRank,
    /// Physical base address of the bank.
    pub base: PhysAddr,
    /// Bank size in bytes.
    pub bytes: u64,
    /// Measured bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Whether the bank is visible to the boot memory allocator. The
    /// SRAM bank must not be, or the kernel "uses the capacity-limited
    /// SRAM for booting and then crashes due to out of memory" (§6.1).
    pub boot_visible: bool,
}

impl MemoryNode {
    /// One-past-the-end physical address.
    #[must_use]
    pub fn end(&self) -> PhysAddr {
        self.base.offset(self.bytes)
    }

    /// True if `addr` falls inside this bank.
    #[must_use]
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr >= self.base && addr < self.end()
    }
}

/// Why a custom topology was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The node list was empty.
    Empty,
    /// Node ids were not dense and ordered `0..n`.
    NonDenseIds {
        /// Position in the node list.
        index: usize,
        /// The id found there.
        found: NodeId,
    },
    /// Two banks' physical address ranges overlap.
    Overlap {
        /// Name of the earlier bank.
        first: String,
        /// Name of the later bank.
        second: String,
    },
    /// Tier ranks were not dense: some rank below the maximum has no bank.
    NonDenseTiers {
        /// The missing rank.
        missing: TierRank,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology needs at least one node"),
            TopologyError::NonDenseIds { index, found } => {
                write!(
                    f,
                    "node ids must be dense and ordered: position {index} holds {found}"
                )
            }
            TopologyError::Overlap { first, second } => {
                write!(f, "banks {first} and {second} overlap")
            }
            TopologyError::NonDenseTiers { missing } => {
                write!(f, "tier ranks must be dense: no bank has rank {missing}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The machine's memory topology and its boot state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<MemoryNode>,
    cpu_count: u32,
    booted: bool,
}

impl Topology {
    /// The TI KeyStone II SoC of the paper's evaluation (Table 2):
    /// 4 Cortex-A15 cores; node 0 = 8 GB DDR3 @ 6.2 GB/s at a high
    /// physical base; node 1 = 6 MB MSMC SRAM @ 24 GB/s at a low base,
    /// hidden from the boot allocator. The SRAM is tier 0 (fastest), the
    /// DDR tier 1.
    #[must_use]
    pub fn keystone_ii() -> Self {
        Topology {
            nodes: vec![
                MemoryNode {
                    id: NodeId(0),
                    name: "ddr3".to_owned(),
                    kind: MemoryKind::Slow,
                    tier: TierRank(1),
                    base: PhysAddr::new(0x8_0000_0000),
                    bytes: 8 << 30,
                    bandwidth_gbps: 6.2,
                    boot_visible: true,
                },
                MemoryNode {
                    id: NodeId(1),
                    name: "msmc-sram".to_owned(),
                    kind: MemoryKind::Fast,
                    tier: TierRank(0),
                    base: PhysAddr::new(0x0C00_0000),
                    bytes: 6 << 20,
                    bandwidth_gbps: 24.0,
                    boot_visible: false,
                },
            ],
            cpu_count: 4,
            booted: false,
        }
    }

    /// An N-tier waterfall ladder for hierarchy experiments, scaled so
    /// that modest pools exert real capacity pressure on every tier:
    ///
    /// | rank | bank | kind | size | GB/s |
    /// |------|------|------|------|------|
    /// | 0 | `sram` | `Fast` | 6 MiB | 24.0 |
    /// | 1 | `dram` | `Slow` | 24 MiB | 6.2 |
    /// | 2 | `nvm` | `Nvm` | 512 MiB | 6.2 |
    /// | 3 | `zram` | `Compressed` | 1 GiB | 6.2 |
    ///
    /// `tiers == 2` keeps the KeyStone shape (DRAM node 0 boot-visible,
    /// SRAM node 1 hidden) but with the scaled-down DRAM bank;
    /// `tiers == 1` is just the DRAM node at rank 0. The CPUs and the
    /// boot allocator always live on the DRAM node, which is node 0;
    /// deeper banks take ids 2, 3 in rank order.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= tiers && tiers <= 4`.
    #[must_use]
    pub fn ranked(tiers: usize) -> Self {
        assert!(
            (1..=4).contains(&tiers),
            "ranked topology supports 1..=4 tiers, got {tiers}"
        );
        let dram_rank = u16::from(tiers > 1);
        let mut nodes = vec![MemoryNode {
            id: NodeId(0),
            name: "dram".to_owned(),
            kind: MemoryKind::Slow,
            tier: TierRank(dram_rank),
            base: PhysAddr::new(0x8_0000_0000),
            bytes: 24 << 20,
            bandwidth_gbps: 6.2,
            boot_visible: true,
        }];
        if tiers > 1 {
            nodes.push(MemoryNode {
                id: NodeId(1),
                name: "sram".to_owned(),
                kind: MemoryKind::Fast,
                tier: TierRank(0),
                base: PhysAddr::new(0x0C00_0000),
                bytes: 6 << 20,
                bandwidth_gbps: 24.0,
                boot_visible: false,
            });
        }
        if tiers > 2 {
            nodes.push(MemoryNode {
                id: NodeId(2),
                name: "nvm".to_owned(),
                kind: MemoryKind::Nvm,
                tier: TierRank(2),
                base: PhysAddr::new(0x10_0000_0000),
                bytes: 512 << 20,
                bandwidth_gbps: 6.2,
                boot_visible: false,
            });
        }
        if tiers > 3 {
            nodes.push(MemoryNode {
                id: NodeId(3),
                name: "zram".to_owned(),
                kind: MemoryKind::Compressed,
                tier: TierRank(3),
                base: PhysAddr::new(0x20_0000_0000),
                bytes: 1 << 30,
                bandwidth_gbps: 6.2,
                boot_visible: false,
            });
        }
        Topology::must_custom(nodes, 4)
    }

    /// The [`Topology::ranked`] waterfall ladder with the persistent NVM
    /// rank replaced by a **CXL-like DRAM expander**: same rank, same
    /// capacity, but `MemoryKind::Cxl` — volatile, with a higher read
    /// bandwidth than the DDR bus and an asymmetric (slower) write-side
    /// pipe supplied by the cost model's `cxl_write_bw_gbps`. This is
    /// the latency-asymmetric DRAM-class tier profile: capacity behind a
    /// serial link rather than behind a persistence barrier.
    ///
    /// # Panics
    ///
    /// Panics unless `3 <= tiers && tiers <= 4` (shallower ladders have
    /// no capacity rank to put behind the link).
    #[must_use]
    pub fn ranked_cxl(tiers: usize) -> Self {
        assert!(
            (3..=4).contains(&tiers),
            "cxl ladder needs the capacity rank: 3..=4 tiers, got {tiers}"
        );
        let mut topo = Topology::ranked(tiers);
        let node = topo
            .nodes
            .iter_mut()
            .find(|n| n.kind == MemoryKind::Nvm)
            .expect("ranked(3..=4) has an nvm rank");
        node.kind = MemoryKind::Cxl;
        node.name = "cxl-dram".to_owned();
        node.bandwidth_gbps = 11.0; // link read side beats the 6.2 DDR bus
        topo
    }

    /// A custom topology.
    ///
    /// # Errors
    ///
    /// Returns a [`TopologyError`] if `nodes` is empty, ids are not
    /// dense/ordered `0..n`, banks overlap, or tier ranks are not dense.
    pub fn custom(nodes: Vec<MemoryNode>, cpu_count: u32) -> Result<Self, TopologyError> {
        if nodes.is_empty() {
            return Err(TopologyError::Empty);
        }
        for (i, n) in nodes.iter().enumerate() {
            if n.id.0 as usize != i {
                return Err(TopologyError::NonDenseIds {
                    index: i,
                    found: n.id,
                });
            }
            for m in &nodes[..i] {
                let disjoint = n.base >= m.end() || m.base >= n.end();
                if !disjoint {
                    return Err(TopologyError::Overlap {
                        first: m.name.clone(),
                        second: n.name.clone(),
                    });
                }
            }
        }
        let max_rank = nodes.iter().map(|n| n.tier.0).max().unwrap_or(0);
        for rank in 0..=max_rank {
            if !nodes.iter().any(|n| n.tier.0 == rank) {
                return Err(TopologyError::NonDenseTiers {
                    missing: TierRank(rank),
                });
            }
        }
        Ok(Topology {
            nodes,
            cpu_count,
            booted: false,
        })
    }

    /// [`Topology::custom`], panicking on invalid input — the ergonomic
    /// form for tests and fixed benchmark machines.
    ///
    /// # Panics
    ///
    /// Panics with the [`TopologyError`] message on invalid input.
    #[must_use]
    pub fn must_custom(nodes: Vec<MemoryNode>, cpu_count: u32) -> Self {
        match Topology::custom(nodes, cpu_count) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of CPU cores.
    #[must_use]
    pub fn cpu_count(&self) -> u32 {
        self.cpu_count
    }

    /// Completes boot: banks with `boot_visible == false` become
    /// available (the paper's patched boot memory allocator, §6.1).
    pub fn complete_boot(&mut self) {
        self.booted = true;
    }

    /// Whether boot has completed.
    #[must_use]
    pub fn is_booted(&self) -> bool {
        self.booted
    }

    /// All nodes, regardless of visibility.
    #[must_use]
    pub fn all_nodes(&self) -> &[MemoryNode] {
        &self.nodes
    }

    /// Nodes currently usable for allocation: all of them after boot,
    /// only the boot-visible ones before.
    pub fn online_nodes(&self) -> impl Iterator<Item = &MemoryNode> {
        let booted = self.booted;
        self.nodes.iter().filter(move |n| booted || n.boot_visible)
    }

    /// Looks up a node by id, if online.
    #[must_use]
    pub fn node(&self, id: NodeId) -> Option<&MemoryNode> {
        self.online_nodes().find(|n| n.id == id)
    }

    /// The first online node of `kind`.
    #[must_use]
    pub fn node_of_kind(&self, kind: MemoryKind) -> Option<&MemoryNode> {
        self.online_nodes().find(|n| n.kind == kind)
    }

    /// Which node backs `addr`, if any.
    #[must_use]
    pub fn node_of_addr(&self, addr: PhysAddr) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.contains(addr)).map(|n| n.id)
    }

    /// The coldest (largest) tier rank in the hierarchy.
    #[must_use]
    pub fn max_tier(&self) -> TierRank {
        TierRank(self.nodes.iter().map(|n| n.tier.0).max().unwrap_or(0))
    }

    /// Number of tiers (ranks are dense, so this is `max_tier + 1`).
    #[must_use]
    pub fn tier_count(&self) -> usize {
        self.max_tier().0 as usize + 1
    }

    /// All nodes of tier `rank`, in node-id order.
    pub fn nodes_of_tier(&self, rank: TierRank) -> impl Iterator<Item = &MemoryNode> {
        self.nodes.iter().filter(move |n| n.tier == rank)
    }

    /// The first node of tier `rank`, if any.
    #[must_use]
    pub fn node_of_tier(&self, rank: TierRank) -> Option<&MemoryNode> {
        self.nodes_of_tier(rank).next()
    }

    /// The tier rank of node `id`, if the node exists.
    #[must_use]
    pub fn tier_of(&self, id: NodeId) -> Option<TierRank> {
        self.nodes.iter().find(|n| n.id == id).map(|n| n.tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keystone_shape_matches_table_2() {
        let topo = Topology::keystone_ii();
        assert_eq!(topo.cpu_count(), 4);
        let slow = topo.node_of_kind(MemoryKind::Slow).unwrap();
        assert_eq!(slow.bytes, 8 << 30);
        assert!((slow.bandwidth_gbps - 6.2).abs() < 1e-9);
        // SRAM sits below DDR physically — the boot hazard of §6.1.
        let nodes = topo.all_nodes();
        assert!(nodes[1].base < nodes[0].base);
        // SRAM is the top of the waterfall, DDR one rank down.
        assert_eq!(nodes[1].tier, TierRank(0));
        assert_eq!(nodes[0].tier, TierRank(1));
        assert_eq!(topo.tier_count(), 2);
    }

    #[test]
    fn sram_hidden_until_boot_completes() {
        let mut topo = Topology::keystone_ii();
        assert!(
            topo.node_of_kind(MemoryKind::Fast).is_none(),
            "SRAM hidden at boot"
        );
        assert_eq!(topo.online_nodes().count(), 1);
        assert!(topo.node(NodeId(1)).is_none());
        topo.complete_boot();
        assert!(topo.is_booted());
        let fast = topo.node_of_kind(MemoryKind::Fast).unwrap();
        assert_eq!(fast.bytes, 6 << 20);
        assert!((fast.bandwidth_gbps - 24.0).abs() < 1e-9);
        assert_eq!(topo.online_nodes().count(), 2);
    }

    #[test]
    fn addr_to_node_mapping() {
        let topo = Topology::keystone_ii();
        assert_eq!(
            topo.node_of_addr(PhysAddr::new(0x8_0000_1000)),
            Some(NodeId(0))
        );
        assert_eq!(
            topo.node_of_addr(PhysAddr::new(0x0C00_0000)),
            Some(NodeId(1))
        );
        assert_eq!(
            topo.node_of_addr(PhysAddr::new(0x0C00_0000 + (6 << 20))),
            None
        );
        assert_eq!(topo.node_of_addr(PhysAddr::new(0)), None);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_banks_rejected() {
        let n0 = MemoryNode {
            id: NodeId(0),
            name: "a".into(),
            kind: MemoryKind::Slow,
            tier: TierRank(0),
            base: PhysAddr::new(0),
            bytes: 4096,
            bandwidth_gbps: 1.0,
            boot_visible: true,
        };
        let n1 = MemoryNode {
            id: NodeId(1),
            name: "b".into(),
            base: PhysAddr::new(2048),
            ..n0.clone()
        };
        let _ = Topology::must_custom(vec![n0, n1], 1);
    }

    #[test]
    fn custom_reports_structured_errors() {
        assert_eq!(Topology::custom(vec![], 1), Err(TopologyError::Empty));
        let mk = |id: u16, tier: u16, base: u64| MemoryNode {
            id: NodeId(id),
            name: format!("bank{id}"),
            kind: MemoryKind::Slow,
            tier: TierRank(tier),
            base: PhysAddr::new(base),
            bytes: 4096,
            bandwidth_gbps: 1.0,
            boot_visible: true,
        };
        assert_eq!(
            Topology::custom(vec![mk(1, 0, 0)], 1),
            Err(TopologyError::NonDenseIds {
                index: 0,
                found: NodeId(1)
            })
        );
        let err = Topology::custom(vec![mk(0, 0, 0), mk(1, 1, 1024)], 1).unwrap_err();
        assert!(matches!(err, TopologyError::Overlap { .. }));
        assert!(err.to_string().contains("overlap"));
        assert_eq!(
            Topology::custom(vec![mk(0, 0, 0), mk(1, 2, 8192)], 1),
            Err(TopologyError::NonDenseTiers {
                missing: TierRank(1)
            })
        );
        // Two banks sharing a tier is fine.
        assert!(Topology::custom(vec![mk(0, 0, 0), mk(1, 0, 8192)], 1).is_ok());
    }

    #[test]
    fn ranked_ladder_shape() {
        let t4 = Topology::ranked(4);
        assert_eq!(t4.tier_count(), 4);
        assert_eq!(t4.node_of_tier(TierRank(0)).unwrap().name, "sram");
        assert_eq!(t4.node_of_tier(TierRank(1)).unwrap().name, "dram");
        assert_eq!(t4.node_of_tier(TierRank(2)).unwrap().kind, MemoryKind::Nvm);
        let zram = t4.node_of_tier(TierRank(3)).unwrap();
        assert_eq!(zram.kind, MemoryKind::Compressed);
        assert!(zram.kind.is_compressed());
        assert!(!zram.kind.is_persistent());
        assert_eq!(zram.kind.label(), "compressed");
        // Only DRAM is boot-visible; CPUs live there (node 0).
        assert_eq!(t4.all_nodes().iter().filter(|n| n.boot_visible).count(), 1);
        assert_eq!(t4.tier_of(NodeId(0)), Some(TierRank(1)));
        assert_eq!(t4.tier_of(NodeId(3)), Some(TierRank(3)));
        assert_eq!(t4.tier_of(NodeId(9)), None);
        let t2 = Topology::ranked(2);
        assert_eq!(t2.tier_count(), 2);
        assert_eq!(t2.node_of_tier(TierRank(0)).unwrap().kind, MemoryKind::Fast);
        let t1 = Topology::ranked(1);
        assert_eq!(t1.tier_count(), 1);
        assert_eq!(t1.max_tier(), TierRank(0));
    }

    #[test]
    fn cxl_ladder_swaps_the_capacity_rank() {
        let t = Topology::ranked_cxl(4);
        assert_eq!(t.tier_count(), 4);
        let cxl = t.node_of_tier(TierRank(2)).unwrap();
        assert_eq!(cxl.kind, MemoryKind::Cxl);
        assert_eq!(cxl.name, "cxl-dram");
        assert_eq!(cxl.kind.label(), "cxl");
        assert!(!cxl.kind.is_persistent(), "CXL DRAM is volatile");
        assert!(!cxl.kind.is_compressed());
        assert!(cxl.bandwidth_gbps > 6.2, "link reads beat the DDR bus");
        // Same shape as the plain ladder otherwise.
        assert_eq!(cxl.bytes, 512 << 20);
        assert_eq!(t.node_of_tier(TierRank(0)).unwrap().name, "sram");
        assert_eq!(
            t.node_of_tier(TierRank(3)).unwrap().kind,
            MemoryKind::Compressed
        );
        let t3 = Topology::ranked_cxl(3);
        assert_eq!(t3.node_of_tier(TierRank(2)).unwrap().kind, MemoryKind::Cxl);
    }

    #[test]
    fn node_contains_bounds() {
        let topo = Topology::keystone_ii();
        let sram = &topo.all_nodes()[1];
        assert!(sram.contains(sram.base));
        assert!(!sram.contains(sram.end()));
    }
}
