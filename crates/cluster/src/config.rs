//! Cluster configuration: the shared file every node and client reads.
//!
//! A deliberately tiny line-based format (no external parser crates — the
//! workspace is hermetic): one directive per line, `#` comments, whitespace
//! separated. All parties that load the same file derive the same ring, so
//! placement needs no coordination service.
//!
//! ```text
//! # sharoes cluster
//! seed        42
//! vnodes      64
//! replication 2
//! write_quorum 1
//! node alpha 127.0.0.1:7070
//! node beta  127.0.0.1:7071
//! node gamma 127.0.0.1:7072
//! ```

use crate::ring::HashRing;
use crate::transport::ClusterOpts;

/// One named SSP node and where to reach it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSpec {
    /// Ring name (placement identity — renaming a node moves its keys).
    pub name: String,
    /// TCP address, e.g. `127.0.0.1:7070`.
    pub addr: String,
}

/// A parsed cluster configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Member nodes in file order.
    pub nodes: Vec<NodeSpec>,
    /// Replication factor R.
    pub replication: usize,
    /// Write quorum W; 0 means "majority of R".
    pub write_quorum: usize,
    /// Virtual nodes per physical node.
    pub vnodes: usize,
    /// Ring placement seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let opts = ClusterOpts::default();
        ClusterConfig {
            nodes: Vec::new(),
            replication: opts.replication,
            write_quorum: opts.write_quorum,
            vnodes: opts.vnodes,
            seed: opts.seed,
        }
    }
}

impl ClusterConfig {
    /// Parses the text format above. Unknown directives are errors (a typo'd
    /// directive silently falling back to a default would split the ring).
    pub fn parse(text: &str) -> Result<ClusterConfig, String> {
        let mut cfg = ClusterConfig::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let directive = parts.next().expect("non-empty line");
            let err = |what: &str| format!("line {}: {what}: {raw:?}", lineno + 1);
            match directive {
                "node" => {
                    let name = parts.next().ok_or_else(|| err("node needs NAME ADDR"))?;
                    let addr = parts.next().ok_or_else(|| err("node needs NAME ADDR"))?;
                    if cfg.nodes.iter().any(|n| n.name == name) {
                        return Err(err("duplicate node name"));
                    }
                    cfg.nodes.push(NodeSpec { name: name.into(), addr: addr.into() });
                }
                "replication" | "write_quorum" | "vnodes" | "seed" => {
                    let value: u64 = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("expected an unsigned integer"))?;
                    match directive {
                        "replication" => cfg.replication = value as usize,
                        "write_quorum" => cfg.write_quorum = value as usize,
                        "vnodes" => cfg.vnodes = value as usize,
                        _ => cfg.seed = value,
                    }
                }
                _ => return Err(err("unknown directive")),
            }
            if parts.next().is_some() {
                return Err(err("trailing tokens"));
            }
        }
        if cfg.replication == 0 {
            return Err("replication must be at least 1".into());
        }
        if cfg.write_quorum > cfg.replication {
            return Err(format!(
                "write_quorum {} exceeds replication {}",
                cfg.write_quorum, cfg.replication
            ));
        }
        Ok(cfg)
    }

    /// Renders the config back to its file format (parse∘format is identity
    /// modulo comments and spacing).
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("vnodes {}\n", self.vnodes));
        out.push_str(&format!("replication {}\n", self.replication));
        out.push_str(&format!("write_quorum {}\n", self.write_quorum));
        for n in &self.nodes {
            out.push_str(&format!("node {} {}\n", n.name, n.addr));
        }
        out
    }

    /// Looks up a node by name.
    pub fn node(&self, name: &str) -> Option<&NodeSpec> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// The placement/quorum options this config describes.
    pub fn opts(&self) -> ClusterOpts {
        ClusterOpts {
            replication: self.replication,
            write_quorum: self.write_quorum,
            vnodes: self.vnodes,
            seed: self.seed,
        }
    }

    /// The ring this config describes (all nodes present).
    pub fn ring(&self) -> HashRing {
        let mut ring = HashRing::new(self.seed, self.vnodes);
        for n in &self.nodes {
            ring.add_node(&n.name);
        }
        ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# three-node local cluster
seed 42
vnodes 32          # per node
replication 2
write_quorum 1
node alpha 127.0.0.1:7070
node beta 127.0.0.1:7071
node gamma 127.0.0.1:7072
";

    #[test]
    fn parse_and_format_roundtrip() {
        let cfg = ClusterConfig::parse(SAMPLE).unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.vnodes, 32);
        assert_eq!(cfg.replication, 2);
        assert_eq!(cfg.write_quorum, 1);
        assert_eq!(cfg.nodes.len(), 3);
        assert_eq!(cfg.node("beta").unwrap().addr, "127.0.0.1:7071");
        assert!(cfg.node("delta").is_none());
        assert_eq!(ClusterConfig::parse(&cfg.format()).unwrap(), cfg);
    }

    #[test]
    fn defaults_apply_when_omitted() {
        let cfg = ClusterConfig::parse("node solo 127.0.0.1:7070\n").unwrap();
        let d = ClusterConfig::default();
        assert_eq!(cfg.replication, d.replication);
        assert_eq!(cfg.seed, d.seed);
    }

    #[test]
    fn bad_inputs_are_rejected_with_line_numbers() {
        for (text, needle) in [
            ("node onlyname\n", "NAME ADDR"),
            ("replication x\n", "unsigned integer"),
            ("warp 9\n", "unknown directive"),
            ("node a 1.2.3.4:1 extra\n", "trailing tokens"),
            ("node a 1.2.3.4:1\nnode a 1.2.3.4:2\n", "duplicate node"),
            ("replication 0\n", "at least 1"),
            ("replication 2\nwrite_quorum 3\n", "exceeds replication"),
        ] {
            let err = ClusterConfig::parse(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} → {err:?} (wanted {needle:?})");
        }
    }

    #[test]
    fn ring_matches_nodes() {
        let cfg = ClusterConfig::parse(SAMPLE).unwrap();
        let ring = cfg.ring();
        assert_eq!(ring.len(), 3);
        assert!(ring.contains("gamma"));
        assert_eq!(ring.seed(), 42);
    }
}
