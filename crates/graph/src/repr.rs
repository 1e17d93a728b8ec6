//! CT graph data types.

use serde::{Deserialize, Serialize};
use snowcat_kernel::{BlockId, ThreadId};

/// Token vocabulary size for hashed assembly tokens. Token id 0 is the mask
/// token used by the masked-language pre-training objective; real tokens
/// hash into `1..VOCAB_SIZE`.
pub const VOCAB_SIZE: usize = 512;

/// The reserved mask token id.
pub const MASK_TOKEN: u32 = 0;

/// Hash an assembly token string into the fixed vocabulary (FNV-1a).
pub fn hash_token(tok: &str) -> u32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tok.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    1 + (h % (VOCAB_SIZE as u64 - 1)) as u32
}

/// Schedule-endpoint marking of a vertex (a CT-graph *node-type
/// enhancement* in the spirit of the paper's §6: encoding more
/// concurrency-relevant information as new node types). The block that
/// yields and the block that resumes get distinct marks, giving the GNN a
/// local anchor for "before/after the switch" reasoning that two lone edges
/// cannot provide at reproduction scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SchedMark {
    /// Not a schedule endpoint.
    #[default]
    None,
    /// The block containing a yield point (source of a schedule edge).
    YieldSource,
    /// The block where the other thread resumes (target of a schedule edge).
    ResumeTarget,
}

impl SchedMark {
    /// Dense index for embedding lookup.
    pub fn index(self) -> usize {
        match self {
            SchedMark::None => 0,
            SchedMark::YieldSource => 1,
            SchedMark::ResumeTarget => 2,
        }
    }
}

/// Number of schedule-mark classes.
pub const NUM_SCHED_MARKS: usize = 3;

/// Number of per-vertex static feature channels (one per [`StaticFeats`]
/// field). The GNN widens its input layer by this many scalar channels
/// when a model is trained with `static_channels > 0`.
pub const STATIC_CHANNELS: usize = 3;

/// Per-vertex static feature channels mined by `snowcat-analysis` — the
/// ConPredictor-style "static code metrics as predictive signal" idea:
/// instead of only *filtering* with the static layer, feed it to the
/// learned predictor. Each channel is a small saturating count; models
/// consume them through [`StaticFeats::unit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct StaticFeats {
    /// Distinct value-flow alias classes touched by the block's accesses.
    pub alias_density: u8,
    /// Size of the must-hold lockset at block entry.
    pub lockset: u8,
    /// Refined may-race degree: pairs with an access in this block
    /// (saturating).
    pub race_degree: u8,
}

impl StaticFeats {
    /// The channels as unit-interval floats, in declaration order. Counts
    /// clamp at 16 so one dense block cannot blow up the input scale.
    pub fn unit(self) -> [f32; STATIC_CHANNELS] {
        let u = |x: u8| f32::from(x.min(16)) / 16.0;
        [u(self.alias_density), u(self.lockset), u(self.race_degree)]
    }

    /// The raw channel bytes, in declaration order (the SCDS v5 layout).
    pub fn bytes(self) -> [u8; STATIC_CHANNELS] {
        [self.alias_density, self.lockset, self.race_degree]
    }

    /// Inverse of [`StaticFeats::bytes`].
    pub fn from_bytes(b: [u8; STATIC_CHANNELS]) -> Self {
        Self { alias_density: b[0], lockset: b[1], race_degree: b[2] }
    }
}

/// Vertex type: sequentially covered or uncovered-reachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VertKind {
    /// Covered during the sequential execution of its thread's STI.
    Scb,
    /// Statically reachable within k hops but not sequentially covered.
    Urb,
}

/// Edge types (the paper's five, plus the shortcut densification edges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Control flow observed during sequential execution.
    ScbFlow,
    /// Static control flow from an SCB into a URB.
    UrbFlow,
    /// Intra-thread data flow (sequential write→read, same address).
    IntraFlow,
    /// Inter-thread *potential* data flow (write in one thread, read in the
    /// other, overlapping address).
    InterFlow,
    /// A scheduling hint (proposed yield point).
    Schedule,
    /// Densification shortcut (k sequential-control-flow steps apart).
    Shortcut,
}

/// Number of edge kinds (length of [`EdgeKind::ALL`]).
pub const NUM_EDGE_KINDS: usize = 6;

impl EdgeKind {
    /// All edge kinds, in embedding-table order.
    pub const ALL: [EdgeKind; 6] = [
        EdgeKind::ScbFlow,
        EdgeKind::UrbFlow,
        EdgeKind::IntraFlow,
        EdgeKind::InterFlow,
        EdgeKind::Schedule,
        EdgeKind::Shortcut,
    ];

    /// Dense index for embedding lookup.
    pub fn index(self) -> usize {
        match self {
            EdgeKind::ScbFlow => 0,
            EdgeKind::UrbFlow => 1,
            EdgeKind::IntraFlow => 2,
            EdgeKind::InterFlow => 3,
            EdgeKind::Schedule => 4,
            EdgeKind::Shortcut => 5,
        }
    }
}

/// One vertex: a (thread, basic block) pair.
///
/// The same kernel block covered by both threads yields two vertices, so
/// schedule and inter-thread edges are unambiguous.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vertex {
    /// Kernel basic block.
    pub block: BlockId,
    /// Which thread's execution this vertex belongs to.
    pub thread: ThreadId,
    /// SCB or URB.
    pub kind: VertKind,
    /// Schedule-endpoint mark (set by the schedule overlay; `None` in base
    /// graphs).
    #[serde(default)]
    pub sched_mark: SchedMark,
    /// Static may-race bit: the block holds a memory access that the static
    /// analyzer (`snowcat-analysis`) places in some may-race pair. Another
    /// node-type enhancement in the spirit of the paper's §6; `false` when
    /// no analysis was supplied to the builder.
    #[serde(default)]
    pub may_race: bool,
    /// Static feature channels (alias density, lockset size, race degree);
    /// all-zero when the builder got no analysis.
    #[serde(default)]
    pub static_feats: StaticFeats,
    /// Hashed assembly tokens (numeric-elided), ids in `1..VOCAB_SIZE`.
    pub tokens: Vec<u32>,
}

/// A directed typed edge between vertex indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Source vertex index.
    pub from: u32,
    /// Target vertex index.
    pub to: u32,
    /// Edge type.
    pub kind: EdgeKind,
}

/// A complete CT graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CtGraph {
    /// Vertices; indices are stable and used by edges and labels.
    pub verts: Vec<Vertex>,
    /// Typed directed edges.
    pub edges: Vec<Edge>,
}

impl CtGraph {
    /// Number of vertices.
    pub fn num_verts(&self) -> usize {
        self.verts.len()
    }

    /// Indices of URB vertices.
    pub fn urb_indices(&self) -> Vec<usize> {
        self.verts
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind == VertKind::Urb)
            .map(|(i, _)| i)
            .collect()
    }

    /// Composition statistics (the paper's §5.1.1 reports these per split).
    pub fn stats(&self) -> GraphStats {
        let mut s = GraphStats::default();
        s.verts = self.verts.len();
        s.urbs = self.verts.iter().filter(|v| v.kind == VertKind::Urb).count();
        s.scbs = s.verts - s.urbs;
        s.may_race_verts = self.verts.iter().filter(|v| v.may_race).count();
        s.static_feat_verts =
            self.verts.iter().filter(|v| v.static_feats != StaticFeats::default()).count();
        s.edges = self.edges.len();
        for e in &self.edges {
            s.by_edge_kind[e.kind.index()] += 1;
        }
        s
    }

    /// Structural sanity: every edge endpoint must be a valid vertex index.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.verts.len() as u32;
        for (i, e) in self.edges.iter().enumerate() {
            if e.from >= n || e.to >= n {
                return Err(format!("edge {i} endpoint out of range ({}→{}, n={n})", e.from, e.to));
            }
        }
        Ok(())
    }
}

/// Graph composition statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Total vertices.
    pub verts: usize,
    /// URB vertices.
    pub urbs: usize,
    /// SCB vertices.
    pub scbs: usize,
    /// Vertices carrying the static may-race bit.
    #[serde(default)]
    pub may_race_verts: usize,
    /// Vertices carrying at least one non-zero static feature channel.
    #[serde(default)]
    pub static_feat_verts: usize,
    /// Total edges.
    pub edges: usize,
    /// Edge counts indexed by [`EdgeKind::index`].
    pub by_edge_kind: [usize; 6],
}

impl GraphStats {
    /// Accumulate another graph's stats (for dataset-level averages).
    pub fn add(&mut self, other: &GraphStats) {
        self.verts += other.verts;
        self.urbs += other.urbs;
        self.scbs += other.scbs;
        self.may_race_verts += other.may_race_verts;
        self.static_feat_verts += other.static_feat_verts;
        self.edges += other.edges;
        for i in 0..6 {
            self.by_edge_kind[i] += other.by_edge_kind[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_token_never_returns_mask() {
        for t in ["mov", "r1", "<num>", "ld", "[flag+<num>]", "", "x"] {
            let id = hash_token(t);
            assert!(id >= 1 && (id as usize) < VOCAB_SIZE, "bad id {id} for {t:?}");
        }
    }

    #[test]
    fn hash_token_is_deterministic() {
        assert_eq!(hash_token("add"), hash_token("add"));
        assert_ne!(hash_token("add"), hash_token("sub"));
    }

    #[test]
    fn edge_kind_indices_are_dense() {
        for (i, k) in EdgeKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn stats_counts_kinds() {
        let g = CtGraph {
            verts: vec![
                Vertex {
                    block: BlockId(0),
                    thread: ThreadId(0),
                    kind: VertKind::Scb,
                    sched_mark: SchedMark::None,
                    may_race: true,
                    static_feats: StaticFeats { alias_density: 2, lockset: 1, race_degree: 3 },
                    tokens: vec![1],
                },
                Vertex {
                    block: BlockId(1),
                    thread: ThreadId(0),
                    kind: VertKind::Urb,
                    sched_mark: SchedMark::None,
                    may_race: false,
                    static_feats: StaticFeats::default(),
                    tokens: vec![2],
                },
            ],
            edges: vec![
                Edge { from: 0, to: 1, kind: EdgeKind::UrbFlow },
                Edge { from: 0, to: 0, kind: EdgeKind::ScbFlow },
            ],
        };
        let s = g.stats();
        assert_eq!(s.verts, 2);
        assert_eq!(s.urbs, 1);
        assert_eq!(s.scbs, 1);
        assert_eq!(s.may_race_verts, 1);
        assert_eq!(s.static_feat_verts, 1);
        assert_eq!(s.by_edge_kind[EdgeKind::UrbFlow.index()], 1);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn static_feats_normalize_and_roundtrip() {
        let f = StaticFeats { alias_density: 4, lockset: 16, race_degree: 200 };
        let u = f.unit();
        assert_eq!(u[0], 0.25);
        assert_eq!(u[1], 1.0);
        assert_eq!(u[2], 1.0, "counts clamp at 16");
        assert_eq!(StaticFeats::from_bytes(f.bytes()), f);
        assert_eq!(StaticFeats::default().unit(), [0.0; STATIC_CHANNELS]);
        // Old serialized vertices (no static_feats field) default to zero.
        let v: Vertex =
            serde_json::from_str(r#"{"block":1,"thread":0,"kind":"Scb","tokens":[3]}"#).unwrap();
        assert_eq!(v.static_feats, StaticFeats::default());
    }

    #[test]
    fn validate_catches_bad_edges() {
        let g = CtGraph {
            verts: vec![],
            edges: vec![Edge { from: 0, to: 1, kind: EdgeKind::ScbFlow }],
        };
        assert!(g.validate().is_err());
    }
}
