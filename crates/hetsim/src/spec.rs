//! Cluster topology: device kinds, node specs and cluster builders matching
//! the paper's testbed (Section 6): 14 nodes, each a 2.13 GHz Core 2 Duo
//! with one NVIDIA 8800GT, gigabit Ethernet. When the GPU is used, one CPU
//! core is dedicated to managing it and is not available for tasks.

use std::fmt;

/// The class of a processing device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceKind {
    /// A general-purpose CPU core.
    Cpu,
    /// A GPU accelerator (modeled; see `gpu` module).
    Gpu,
}

impl DeviceKind {
    /// All device kinds, in scheduling order (CPU first = baseline).
    pub const ALL: [DeviceKind; 2] = [DeviceKind::Cpu, DeviceKind::Gpu];
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::Cpu => write!(f, "CPU"),
            DeviceKind::Gpu => write!(f, "GPU"),
        }
    }
}

/// Identifier of a node within a cluster.
pub type NodeId = usize;

/// Identifier of a device within a node: its kind and index among devices
/// of that kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId {
    /// Hosting node.
    pub node: NodeId,
    /// Device class.
    pub kind: DeviceKind,
    /// Index among same-kind devices of the node.
    pub index: usize,
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}/{}{}", self.node, self.kind, self.index)
    }
}

/// Hardware composition of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// Number of CPU cores usable for application tasks.
    pub cpu_cores: usize,
    /// Number of GPUs.
    pub gpus: usize,
}

impl NodeSpec {
    /// The paper's GPU-equipped node: a dual-core CPU with one 8800GT.
    /// One core manages the GPU, leaving 1 worker core + 1 GPU.
    pub fn paper_gpu_node() -> NodeSpec {
        NodeSpec {
            cpu_cores: 1,
            gpus: 1,
        }
    }

    /// The paper's GPU-less node: both CPU cores available for tasks.
    pub fn paper_cpu_node() -> NodeSpec {
        NodeSpec {
            cpu_cores: 2,
            gpus: 0,
        }
    }

    /// Devices of this node, in enumeration order (CPUs then GPUs).
    pub fn devices(&self, node: NodeId) -> Vec<DeviceId> {
        let mut out = Vec::with_capacity(self.cpu_cores + self.gpus);
        for index in 0..self.cpu_cores {
            out.push(DeviceId {
                node,
                kind: DeviceKind::Cpu,
                index,
            });
        }
        for index in 0..self.gpus {
            out.push(DeviceId {
                node,
                kind: DeviceKind::Gpu,
                index,
            });
        }
        out
    }

    /// Total devices on the node.
    pub fn device_count(&self) -> usize {
        self.cpu_cores + self.gpus
    }
}

/// A whole cluster: an ordered list of node specs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Per-node hardware.
    pub nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// A cluster from explicit node specs.
    pub fn new(nodes: Vec<NodeSpec>) -> ClusterSpec {
        assert!(!nodes.is_empty(), "cluster needs at least one node");
        ClusterSpec { nodes }
    }

    /// The paper's homogeneous cluster: `n` CPU+GPU nodes (Section 6.4).
    pub fn homogeneous(n: usize) -> ClusterSpec {
        ClusterSpec::new(vec![NodeSpec::paper_gpu_node(); n])
    }

    /// The paper's heterogeneous cluster: GPU-equipped nodes first, then
    /// GPU-less dual-core nodes (Section 6.4: 50/50 split when scaling).
    pub fn heterogeneous(gpu_nodes: usize, cpu_nodes: usize) -> ClusterSpec {
        let mut nodes = vec![NodeSpec::paper_gpu_node(); gpu_nodes];
        nodes.extend(vec![NodeSpec::paper_cpu_node(); cpu_nodes]);
        ClusterSpec::new(nodes)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (clusters are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// All devices in the cluster, node by node.
    pub fn devices(&self) -> Vec<DeviceId> {
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(i, n)| n.devices(i))
            .collect()
    }

    /// Count of devices of a kind across the cluster.
    pub fn count_kind(&self, kind: DeviceKind) -> usize {
        self.nodes
            .iter()
            .map(|n| match kind {
                DeviceKind::Cpu => n.cpu_cores,
                DeviceKind::Gpu => n.gpus,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_nodes() {
        let g = NodeSpec::paper_gpu_node();
        assert_eq!((g.cpu_cores, g.gpus), (1, 1));
        let c = NodeSpec::paper_cpu_node();
        assert_eq!((c.cpu_cores, c.gpus), (2, 0));
    }

    #[test]
    fn device_enumeration() {
        let n = NodeSpec {
            cpu_cores: 2,
            gpus: 1,
        };
        let devs = n.devices(3);
        assert_eq!(devs.len(), 3);
        assert_eq!(devs[0].kind, DeviceKind::Cpu);
        assert_eq!(devs[2].kind, DeviceKind::Gpu);
        assert!(devs.iter().all(|d| d.node == 3));
        assert_eq!(format!("{}", devs[2]), "n3/GPU0");
    }

    #[test]
    fn homogeneous_cluster_counts() {
        let c = ClusterSpec::homogeneous(14);
        assert_eq!(c.len(), 14);
        assert_eq!(c.count_kind(DeviceKind::Gpu), 14);
        assert_eq!(c.count_kind(DeviceKind::Cpu), 14);
        assert_eq!(c.devices().len(), 28);
    }

    #[test]
    fn heterogeneous_cluster_counts() {
        let c = ClusterSpec::heterogeneous(7, 7);
        assert_eq!(c.len(), 14);
        assert_eq!(c.count_kind(DeviceKind::Gpu), 7);
        assert_eq!(c.count_kind(DeviceKind::Cpu), 7 + 14);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        let _ = ClusterSpec::new(vec![]);
    }
}
