//! Flow-level fabric model: who talks to whom, over which tier, and when
//! transfers complete under contention.
//!
//! Every NPU owns an HCCS port and every server owns a RoCE NIC. A transfer
//! claims a processor-shared flow on the source port and one on the
//! destination port, and completes when *both* flows finish — each port
//! drains at its own fair share. (Exact max-min coupling across ports would
//! change completion times by at most the share imbalance; draining ports
//! independently is conservative and keeps the event loop simple and
//! deterministic.)
//!
//! Analytic collective costs (all-reduce inside an engine, NPU-fork
//! broadcast) live in [`crate::hccl`]; this module handles the *dynamic*
//! point-to-point traffic: KV-cache movement between prefill and decode TEs,
//! RTC tier swaps, and weight pulls.

use crate::specs::{ClusterSpec, NpuId};
use simcore::{FlowId, SharedLink, SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};

// `flow_owner` stays a HashMap: it is only ever used for point lookups
// (insert/remove by key), and clippy.toml bans iterating it, so hash
// order cannot leak anywhere.

/// Which tier a transfer rides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Same NPU: an HBM-internal copy, effectively free at this scale.
    Local,
    /// Scale-up fabric (same HCCS domain).
    Hccs,
    /// Scale-out fabric (across HCCS domains).
    Roce,
}

/// A port in the fabric (ordering gives deterministic iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum PortKey {
    Hccs(NpuId),
    Roce(usize),
}

/// Handle for an in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(u64);

#[derive(Debug)]
struct TransferState {
    pending_flows: usize,
}

/// The cluster fabric: lazily materialized ports plus in-flight transfers.
pub struct Fabric {
    spec: ClusterSpec,
    ports: BTreeMap<PortKey, SharedLink>,
    /// In-flight transfers, iterated on the completion path — a `BTreeMap`
    /// so completion order is id order by construction.
    transfers: BTreeMap<TransferId, TransferState>,
    flow_owner: HashMap<(PortKey, FlowId), TransferId>,
    next_id: u64,
}

impl Fabric {
    /// Creates an idle fabric for the given cluster.
    pub fn new(spec: ClusterSpec) -> Self {
        Fabric {
            spec,
            ports: BTreeMap::new(),
            transfers: BTreeMap::new(),
            flow_owner: HashMap::new(),
            next_id: 0,
        }
    }

    /// The cluster this fabric belongs to.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Which tier connects `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the cluster.
    pub fn link_kind(&self, src: NpuId, dst: NpuId) -> LinkKind {
        assert!(self.spec.contains(src), "fabric: unknown src {src:?}");
        assert!(self.spec.contains(dst), "fabric: unknown dst {dst:?}");
        if src == dst {
            LinkKind::Local
        } else if self.spec.same_hccs_domain(src, dst) {
            LinkKind::Hccs
        } else {
            LinkKind::Roce
        }
    }

    fn port_link(&mut self, key: PortKey) -> &mut SharedLink {
        let spec = &self.spec;
        self.ports.entry(key).or_insert_with(|| match key {
            PortKey::Hccs(_) => SharedLink::new(
                spec.hccs.bandwidth,
                SimDuration::from_micros(spec.hccs.latency_us),
            ),
            PortKey::Roce(_) => SharedLink::new(
                spec.roce.bandwidth,
                SimDuration::from_micros(spec.roce.latency_us),
            ),
        })
    }

    fn endpoints(&self, src: NpuId, dst: NpuId) -> Vec<PortKey> {
        match self.link_kind(src, dst) {
            LinkKind::Local => vec![],
            LinkKind::Hccs => vec![PortKey::Hccs(src), PortKey::Hccs(dst)],
            LinkKind::Roce => {
                if src.server == dst.server {
                    // Same server but different HCCS domain cannot happen
                    // (domains are whole servers); defensive fallback.
                    vec![PortKey::Hccs(src), PortKey::Hccs(dst)]
                } else {
                    vec![PortKey::Roce(src.server), PortKey::Roce(dst.server)]
                }
            }
        }
    }

    /// Starts a transfer of `bytes` from `src` to `dst` at `now`. Local
    /// transfers complete on the next `advance_to` call.
    pub fn start_transfer(
        &mut self,
        now: SimTime,
        src: NpuId,
        dst: NpuId,
        bytes: u64,
    ) -> TransferId {
        let id = TransferId(self.next_id);
        self.next_id += 1;
        let ports = self.endpoints(src, dst);
        if ports.is_empty() {
            // Local copy: model as a zero-pending transfer that completes
            // immediately at the next advance.
            self.transfers
                .insert(id, TransferState { pending_flows: 0 });
            return id;
        }
        let n = ports.len();
        for key in ports {
            let flow = self.port_link(key).start_flow(now, bytes);
            self.flow_owner.insert((key, flow), id);
        }
        self.transfers
            .insert(id, TransferState { pending_flows: n });
        id
    }

    /// Earliest time anything completes, or `None` if the fabric is idle.
    /// Transfers with no pending flows (local copies) complete "now".
    pub fn next_event(&self, now: SimTime) -> Option<SimTime> {
        if self.transfers.values().any(|t| t.pending_flows == 0) {
            return Some(now);
        }
        self.ports
            .values()
            .filter_map(|l| l.next_completion(now))
            .min()
    }

    /// Advances all ports to `now`; returns transfers that completed, in id
    /// order.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<TransferId> {
        let mut done_transfers = Vec::new();
        // Immediate local copies (BTreeMap iteration is already id order).
        let locals: Vec<TransferId> = self
            .transfers
            .iter()
            .filter(|(_, t)| t.pending_flows == 0)
            .map(|(&id, _)| id)
            .collect();
        for id in locals {
            self.transfers.remove(&id);
            done_transfers.push(id);
        }
        // Drain ports in deterministic key order.
        let keys: Vec<PortKey> = self.ports.keys().copied().collect();
        for key in keys {
            let Some(link) = self.ports.get_mut(&key) else {
                continue; // keys collected from this map two lines above
            };
            for flow in link.advance_to(now) {
                let Some(id) = self.flow_owner.remove(&(key, flow)) else {
                    debug_assert!(false, "completed flow must belong to a transfer");
                    continue;
                };
                let Some(state) = self.transfers.get_mut(&id) else {
                    debug_assert!(false, "flow owner must be in-flight");
                    continue;
                };
                state.pending_flows -= 1;
                if state.pending_flows == 0 {
                    self.transfers.remove(&id);
                    done_transfers.push(id);
                }
            }
        }
        done_transfers.sort_unstable();
        done_transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::ClusterSpec;

    const GB: u64 = 1 << 30;

    fn fabric() -> Fabric {
        Fabric::new(ClusterSpec::gen2_cluster(4))
    }

    fn drain(f: &mut Fabric, mut now: SimTime) -> Vec<(SimTime, TransferId)> {
        let mut out = Vec::new();
        while let Some(t) = f.next_event(now) {
            now = t;
            for id in f.advance_to(t) {
                out.push((t, id));
            }
        }
        out
    }

    #[test]
    fn classifies_tiers() {
        let f = fabric();
        let a = NpuId::new(0, 0);
        assert_eq!(f.link_kind(a, a), LinkKind::Local);
        assert_eq!(f.link_kind(a, NpuId::new(0, 3)), LinkKind::Hccs);
        assert_eq!(f.link_kind(a, NpuId::new(2, 0)), LinkKind::Roce);
    }

    #[test]
    fn superpod_extends_hccs_across_servers() {
        let f = Fabric::new(ClusterSpec::superpod(4));
        assert_eq!(
            f.link_kind(NpuId::new(0, 0), NpuId::new(3, 5)),
            LinkKind::Hccs
        );
    }

    /// Finish time (seconds) of one `bytes` transfer alone on a fresh
    /// fabric.
    fn lone_secs(src: NpuId, dst: NpuId, bytes: u64) -> f64 {
        let mut f = fabric();
        f.start_transfer(SimTime::ZERO, src, dst, bytes);
        let done = drain(&mut f, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        done[0].0.as_secs_f64()
    }

    #[test]
    fn lone_hccs_transfer_is_latency_plus_bytes_over_bandwidth() {
        let hccs = fabric().spec.hccs;
        let want = hccs.latency_us as f64 * 1e-6 + GB as f64 / hccs.bandwidth;
        let got = lone_secs(NpuId::new(0, 0), NpuId::new(0, 1), GB);
        // Both ports drain at full rate, so the only slack is the
        // double-counted setup latency.
        assert!((got - want).abs() < 1e-3, "got {got}, want {want}");
    }

    #[test]
    fn roce_is_slower_than_hccs() {
        let mut f = fabric();
        let t0 = SimTime::ZERO;
        f.start_transfer(t0, NpuId::new(0, 0), NpuId::new(0, 1), GB);
        let hccs_done = drain(&mut f, t0).pop().unwrap().0;
        let mut f2 = fabric();
        f2.start_transfer(t0, NpuId::new(0, 0), NpuId::new(1, 0), GB);
        let roce_done = drain(&mut f2, t0).pop().unwrap().0;
        assert!(roce_done > hccs_done);
    }

    #[test]
    fn shared_destination_port_halves_throughput() {
        let mut f = fabric();
        let t0 = SimTime::ZERO;
        let dst = NpuId::new(2, 0);
        f.start_transfer(t0, NpuId::new(0, 0), dst, GB);
        f.start_transfer(t0, NpuId::new(1, 0), dst, GB);
        let done = drain(&mut f, t0);
        assert_eq!(done.len(), 2);
        let last = done.last().unwrap().0.as_secs_f64();
        let lone = lone_secs(NpuId::new(0, 0), dst, GB);
        assert!(
            last > 1.8 * lone,
            "two flows into one NIC should take ~2x: {last} vs lone {lone}"
        );
    }

    #[test]
    fn local_transfer_completes_immediately() {
        let mut f = fabric();
        let a = NpuId::new(0, 0);
        let id = f.start_transfer(SimTime::from_secs(1), a, a, 100 * GB);
        assert_eq!(
            f.next_event(SimTime::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
        assert_eq!(f.advance_to(SimTime::from_secs(1)), vec![id]);
    }

    #[test]
    fn disjoint_pairs_do_not_contend() {
        let mut f = fabric();
        let t0 = SimTime::ZERO;
        f.start_transfer(t0, NpuId::new(0, 0), NpuId::new(0, 1), GB);
        f.start_transfer(t0, NpuId::new(0, 2), NpuId::new(0, 3), GB);
        let done = drain(&mut f, t0);
        let lone = lone_secs(NpuId::new(0, 0), NpuId::new(0, 1), GB);
        for (t, _) in done {
            assert!((t.as_secs_f64() - lone).abs() < 1e-3);
        }
    }
}
