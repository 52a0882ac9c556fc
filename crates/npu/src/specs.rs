//! Hardware specifications for the simulated Ascend-style NPU cluster.
//!
//! The paper describes DaVinci-architecture NPUs delivering 280–400 TFLOPS
//! FP16 with 32–64 GB of HBM, eight cards per server behind PCIe, 1.5 TB of
//! DRAM per machine, and two fabric tiers (HCCS scale-up, RoCE scale-out).
//! These structs capture exactly the parameters the cost models consume; the
//! preset constructors are the single calibration point for the whole
//! reproduction (see DESIGN.md "Calibration constants").

use serde::{Deserialize, Serialize};

/// NPU cluster generation (Figure 1(g): Gen1 and Gen2 are in production,
/// Gen3/SuperPod is planned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Generation {
    /// Regular scale-out servers, first production generation.
    Gen1,
    /// Second production generation: more compute, more HBM.
    Gen2,
    /// SuperPod: large scale-up domain with global shared memory.
    Gen3SuperPod,
}

/// One NPU chip.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChipSpec {
    /// Marketing/config name, e.g. "ascend-gen2".
    pub name: &'static str,
    /// Cluster generation this chip belongs to.
    pub generation: Generation,
    /// Peak dense FP16 throughput, in TFLOPS.
    pub tflops_fp16: f64,
    /// High-bandwidth memory capacity, bytes.
    pub hbm_bytes: u64,
    /// HBM bandwidth, bytes/second.
    pub hbm_bw: f64,
    /// Whether the chip has a dedicated AICPU that drives fabric transfers
    /// without stealing compute from the DaVinci cores (§6.2: "the NPU has
    /// dedicated AICPU for data transfer, contention is limited").
    pub has_transfer_aicpu: bool,
}

impl ChipSpec {
    /// First-generation chip: 280 TFLOPS FP16, 32 GB HBM @ 1.2 TB/s.
    pub fn gen1() -> Self {
        ChipSpec {
            name: "ascend-gen1",
            generation: Generation::Gen1,
            tflops_fp16: 280.0,
            hbm_bytes: 32 * (1 << 30),
            hbm_bw: 1.2e12,
            has_transfer_aicpu: true,
        }
    }

    /// Second-generation chip: 400 TFLOPS FP16, 64 GB HBM @ 1.8 TB/s.
    pub fn gen2() -> Self {
        ChipSpec {
            name: "ascend-gen2",
            generation: Generation::Gen2,
            tflops_fp16: 400.0,
            hbm_bytes: 64 * (1 << 30),
            hbm_bw: 1.8e12,
            has_transfer_aicpu: true,
        }
    }

    /// Peak FP16 throughput in FLOP/s (not TFLOPS).
    pub fn flops(&self) -> f64 {
        self.tflops_fp16 * 1e12
    }
}

/// One eight-card NPU server.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServerSpec {
    /// Chip model installed in this server.
    pub chip: ChipSpec,
    /// NPU cards per server (the paper's machines have eight).
    pub chips_per_server: usize,
    /// PCIe bandwidth of one switch uplink, bytes/s. NPUs sharing a switch
    /// share this (Figure 9: "local loading time increases with larger TP
    /// ranks due to PCIe link sharing among NPUs").
    pub pcie_switch_bw: f64,
    /// Number of NPUs behind each PCIe switch.
    pub npus_per_pcie_switch: usize,
    /// Aggregate host-DRAM-to-device bandwidth ceiling for the whole server
    /// (root-complex limit), bytes/s.
    pub pcie_root_bw: f64,
    /// Host DRAM capacity, bytes (1.5 TB in the paper; "sufficient for
    /// pre-loading 10 70B models or 100 7B models").
    pub dram_bytes: u64,
    /// Host DRAM bandwidth available to model loading, bytes/s.
    pub dram_bw: f64,
    /// Local SSD sustained read bandwidth, bytes/s.
    pub ssd_bw: f64,
    /// Local SSD capacity, bytes.
    pub ssd_bytes: u64,
}

impl ServerSpec {
    /// Standard production server built around the given chip.
    pub fn standard(chip: ChipSpec) -> Self {
        ServerSpec {
            chip,
            chips_per_server: 8,
            // PCIe 4.0 x16 per switch uplink.
            pcie_switch_bw: 32e9,
            npus_per_pcie_switch: 2,
            pcie_root_bw: 96e9,
            dram_bytes: 1_500 * (1u64 << 30),
            dram_bw: 200e9,
            ssd_bw: 3.5e9,
            ssd_bytes: 8 * (1u64 << 40),
        }
    }

    /// Effective per-NPU PCIe bandwidth when `concurrent` NPUs on this
    /// server load from host memory simultaneously (e.g. all TP ranks of an
    /// engine loading their weight partitions at once).
    ///
    /// Two ceilings apply: the per-switch uplink shared by
    /// `npus_per_pcie_switch` cards, and the server-wide root-complex
    /// bandwidth shared by all concurrent loaders.
    ///
    /// # Panics
    ///
    /// Panics if `concurrent` is zero or exceeds the card count.
    pub fn pcie_bw_per_npu(&self, concurrent: usize) -> f64 {
        assert!(
            concurrent >= 1 && concurrent <= self.chips_per_server,
            "pcie_bw_per_npu: concurrent={concurrent} out of range 1..={}",
            self.chips_per_server
        );
        let sharing_on_switch = concurrent.min(self.npus_per_pcie_switch) as f64;
        let switch_limit = self.pcie_switch_bw / sharing_on_switch;
        let root_limit = self.pcie_root_bw / concurrent as f64;
        switch_limit.min(root_limit)
    }

    /// Unshared per-NPU PCIe bandwidth (theoretical best case used for the
    /// "DRAM-theoretical" line in Figure 9).
    pub fn pcie_bw_unshared(&self) -> f64 {
        self.pcie_switch_bw
    }
}

/// Fabric tier parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Per-direction point-to-point bandwidth, bytes/s.
    pub bandwidth: f64,
    /// One-way setup/propagation latency.
    pub latency_us: u64,
}

/// Whole-cluster specification.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterSpec {
    /// Server model (homogeneous clusters, as in the paper's testbed).
    pub server: ServerSpec,
    /// Number of servers.
    pub num_servers: usize,
    /// Servers per HCCS (scale-up) domain. 1 means HCCS is intra-server
    /// only (regular Gen1/Gen2 cluster); larger values model a SuperPod.
    pub hccs_domain_servers: usize,
    /// HCCS (scale-up) link: high bandwidth, low latency, small domain.
    pub hccs: LinkSpec,
    /// RoCE (scale-out) link: lower bandwidth, reaches the whole cluster.
    pub roce: LinkSpec,
}

impl ClusterSpec {
    /// A regular Gen2 production cluster: HCCS within each server, RoCE
    /// across servers.
    pub fn gen2_cluster(num_servers: usize) -> Self {
        ClusterSpec {
            server: ServerSpec::standard(ChipSpec::gen2()),
            num_servers,
            hccs_domain_servers: 1,
            hccs: LinkSpec {
                bandwidth: 56e9,
                latency_us: 10,
            },
            roce: LinkSpec {
                bandwidth: 25e9, // 200 Gb/s
                latency_us: 50,
            },
        }
    }

    /// A SuperPod-style cluster: one large HCCS domain spanning
    /// `num_servers` machines.
    pub fn superpod(num_servers: usize) -> Self {
        let mut c = Self::gen2_cluster(num_servers);
        c.hccs_domain_servers = num_servers.max(1);
        c.server.chip.generation = Generation::Gen3SuperPod;
        c
    }
}

/// Global NPU coordinate: `(server, chip-on-server)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NpuId {
    /// Server index within the cluster.
    pub server: usize,
    /// Chip index within the server.
    pub chip: usize,
}

impl NpuId {
    /// Creates an id; validity against a spec is checked by
    /// [`ClusterSpec::contains`].
    pub fn new(server: usize, chip: usize) -> Self {
        NpuId { server, chip }
    }
}

impl ClusterSpec {
    /// Whether `id` names a real NPU in this cluster.
    pub fn contains(&self, id: NpuId) -> bool {
        id.server < self.num_servers && id.chip < self.server.chips_per_server
    }

    /// Whether two NPUs share an HCCS (scale-up) domain.
    pub fn same_hccs_domain(&self, a: NpuId, b: NpuId) -> bool {
        let domain = self.hccs_domain_servers.max(1);
        a.server / domain == b.server / domain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_ranges() {
        let g1 = ChipSpec::gen1();
        let g2 = ChipSpec::gen2();
        assert!(g1.tflops_fp16 >= 280.0 && g2.tflops_fp16 <= 400.0);
        assert_eq!(g1.hbm_bytes, 32 << 30);
        assert_eq!(g2.hbm_bytes, 64 << 30);
        assert!(g2.flops() > g1.flops());
    }

    #[test]
    fn server_holds_eight_cards_and_dram_fits_preload_targets() {
        let s = ServerSpec::standard(ChipSpec::gen2());
        assert_eq!(s.chips_per_server, 8);
        // Paper: 1.5 TB DRAM fits ~10 70B FP16 models (140 GB each).
        let seventy_b_fp16 = 140u64 * (1 << 30);
        assert!(s.dram_bytes / seventy_b_fp16 >= 10);
    }

    #[test]
    fn pcie_sharing_is_monotone_nonincreasing() {
        let s = ServerSpec::standard(ChipSpec::gen2());
        let mut last = f64::INFINITY;
        for n in 1..=8 {
            let bw = s.pcie_bw_per_npu(n);
            assert!(bw <= last, "bw should not increase with sharing");
            last = bw;
        }
        assert_eq!(s.pcie_bw_per_npu(1), 32e9);
        assert_eq!(s.pcie_bw_per_npu(2), 16e9);
        assert_eq!(s.pcie_bw_per_npu(8), 12e9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pcie_sharing_rejects_zero() {
        ServerSpec::standard(ChipSpec::gen2()).pcie_bw_per_npu(0);
    }

    #[test]
    fn hccs_domains_partition_the_cluster() {
        let regular = ClusterSpec::gen2_cluster(4);
        let a = NpuId::new(0, 0);
        let b = NpuId::new(0, 7);
        let c = NpuId::new(1, 0);
        assert!(regular.same_hccs_domain(a, b));
        assert!(!regular.same_hccs_domain(a, c));

        let pod = ClusterSpec::superpod(4);
        assert!(pod.same_hccs_domain(a, c));
    }

    #[test]
    fn contains_checks_bounds() {
        let c = ClusterSpec::gen2_cluster(2);
        assert!(c.contains(NpuId::new(1, 7)));
        assert!(!c.contains(NpuId::new(2, 0)));
        assert!(!c.contains(NpuId::new(0, 8)));
    }

    #[test]
    fn fabric_tiers_are_ordered() {
        let c = ClusterSpec::gen2_cluster(1);
        assert!(c.hccs.bandwidth > c.roce.bandwidth);
        assert!(c.hccs.latency_us < c.roce.latency_us);
    }
}
