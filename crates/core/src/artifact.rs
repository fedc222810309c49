//! Compiled-model artifact: the versioned, checksummed on-disk form of an
//! optimized SnaPEA model (`.snapea` files).
//!
//! Algorithm 1 (the speculation-parameter search) decides one thing per
//! kernel: its `(Th, N)`. An artifact stores that decision next to the
//! network and the input shape it was made for, so `snapea-tool run` never
//! re-runs the optimizer. Everything else the executor needs — each
//! kernel's reordered weights and index buffer, its PAU, and each layer's
//! window plan — is a fixed function of those three, so
//! [`CompiledModel::from_bytes`] derives it with the same code
//! [`CompiledModel::compile`] runs. A loaded model is a fresh compile
//! by construction: its forward pass is byte-for-byte the freshly compiled
//! model's, at any thread count.
//!
//! # On-disk format (version 3)
//!
//! All multi-byte values are **little-endian** regardless of host; floats
//! are stored as their IEEE-754 bit patterns (exact round-trip, including
//! infinities). The file is a 24-byte header followed by exactly three
//! sections in fixed order:
//!
//! ```text
//! header   magic "SNPA" · version u32 · endian tag u32 · section count u32
//!          · FNV-1a-64 of the preceding 16 bytes
//! section  tag u32 · payload length u64 · payload
//!          · FNV-1a-64 of (tag ‖ length ‖ payload)
//! ```
//!
//! | tag | section | payload |
//! |-----|---------|---------|
//! | 1   | META    | input `c,h,w` · q16 `frac_bits` |
//! | 2   | GRAPH   | full network: nodes with ops, weights, topology |
//! | 3   | PARAMS  | [`NetworkParams`] — per-layer `(Th, N)` assignments |
//!
//! Versions 1 and 2 also stored the derived state (LAYERS and PACKED
//! sections); this reader rejects them.
//!
//! Every byte of the file is covered by a checksum, so any corruption —
//! bit flip, truncation, region swap — yields a typed [`ArtifactError`],
//! never a panic or a silently wrong model. Beyond the checksums, loading
//! validates the structure of GRAPH and PARAMS: known op tags,
//! non-degenerate geometry, tensor sizes, topology, and parameters that
//! name a convolution of the graph with one mode per kernel and
//! `1 <= N <= window length`. Format changes require bumping [`VERSION`];
//! old readers reject newer files with [`ArtifactError::UnsupportedVersion`].

use crate::exec::{self, KernelExec, LayerConfig, WindowPlan};
use crate::params::{KernelMode, LayerParams, NetworkParams};
use snapea_nn::graph::{Graph, Node, NodeId, Op};
use snapea_nn::ops::{AvgPool, Conv2d, Linear, Lrn, MaxPool, PoolGeom};
use snapea_tensor::im2col::ConvGeom;
use snapea_tensor::q16::Q16Format;
use snapea_tensor::{Shape2, Shape4, Tensor2, Tensor4};
use std::collections::BTreeMap;
use std::sync::Arc;

/// File magic: the first four bytes of every `.snapea` artifact.
pub const MAGIC: [u8; 4] = *b"SNPA";
/// Current format version. Bump on any layout change.
pub const VERSION: u32 = 3;
/// Endianness canary: written little-endian; a reader on a platform (or a
/// codepath) that does not decode little-endian sees a scrambled value.
pub const ENDIAN_TAG: u32 = 0x1A2B_3C4D;

const SECTION_META: u32 = 1;
const SECTION_GRAPH: u32 = 2;
const SECTION_PARAMS: u32 = 3;
const SECTION_COUNT: u32 = 3;

/// FNV-1a 64-bit — the checksum and digest function of the artifact format
/// (dependency-free, deterministic, byte-order independent).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut f = Fnv::new();
    f.update(bytes);
    f.finish()
}

/// Streaming FNV-1a 64-bit state.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Typed rejection of an artifact that cannot be loaded. The corruption
/// battery asserts that *every* byte-level mutation of a valid artifact
/// maps to one of these — never a panic, never a silently-accepted load.
#[derive(Debug)]
pub enum ArtifactError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file does not begin with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The file's format version is newer than this reader supports.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this reader understands.
        supported: u32,
    },
    /// The endianness canary decoded wrong.
    BadEndianTag(u32),
    /// A stored checksum disagrees with the bytes it covers.
    Checksum {
        /// Which region failed ("header" or a section name).
        region: &'static str,
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the bytes.
        computed: u64,
    },
    /// The file ends before a declared field or payload.
    Truncated {
        /// Which region was being read.
        region: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes remaining.
        available: usize,
    },
    /// A count, index, or offset is outside its valid range.
    Bounds {
        /// Which region was being read.
        region: &'static str,
        /// What was out of range.
        detail: String,
    },
    /// Structurally well-formed bytes that violate a semantic invariant
    /// (unknown op or mode tag, a mode count that disagrees with the conv,
    /// invalid topology, wrong section order, …).
    Invalid {
        /// Which region was being read.
        region: &'static str,
        /// The violated invariant.
        detail: String,
    },
    /// Bytes remain after the last declared section.
    TrailingBytes {
        /// Number of undeclared trailing bytes.
        extra: usize,
    },
}

impl ArtifactError {
    /// Short machine-readable classification (battery reporting).
    pub fn kind(&self) -> &'static str {
        match self {
            ArtifactError::Io(_) => "io",
            ArtifactError::BadMagic(_) => "magic",
            ArtifactError::UnsupportedVersion { .. } => "version",
            ArtifactError::BadEndianTag(_) => "endian",
            ArtifactError::Checksum { .. } => "checksum",
            ArtifactError::Truncated { .. } => "truncated",
            ArtifactError::Bounds { .. } => "bounds",
            ArtifactError::Invalid { .. } => "invalid",
            ArtifactError::TrailingBytes { .. } => "trailing",
        }
    }
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact i/o: {e}"),
            ArtifactError::BadMagic(m) => write!(f, "not a .snapea artifact (magic {m:02x?})"),
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact version {found} is newer than supported version {supported}"
            ),
            ArtifactError::BadEndianTag(t) => write!(
                f,
                "endianness tag 0x{t:08x} != 0x{ENDIAN_TAG:08x} (corrupt or non-little-endian file)"
            ),
            ArtifactError::Checksum {
                region,
                stored,
                computed,
            } => write!(
                f,
                "{region} checksum mismatch: stored 0x{stored:016x}, computed 0x{computed:016x}"
            ),
            ArtifactError::Truncated {
                region,
                needed,
                available,
            } => write!(
                f,
                "{region} truncated: needs {needed} more byte(s), {available} available"
            ),
            ArtifactError::Bounds { region, detail } => {
                write!(f, "{region} out of bounds: {detail}")
            }
            ArtifactError::Invalid { region, detail } => write!(f, "{region} invalid: {detail}"),
            ArtifactError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last section")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Load-time switches. The defaults are full verification; the only knob
/// exists for the corruption battery's prove-it-can-fail smoke.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions {
    /// Skip verifying the PARAMS section checksum — a deliberately planted
    /// bug (`snapea-tool selfcheck --artifact --inject-bug`) that the
    /// corruption battery must detect by observing a corrupted artifact
    /// load successfully (a flipped threshold bit is still well-formed).
    /// Never set outside that smoke test.
    pub skip_params_checksum: bool,
}

/// Byte sizes of the artifact's regions, as last serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionSizes {
    /// Fixed header (magic, version, endian tag, count, checksum).
    pub header: usize,
    /// META section, including framing.
    pub meta: usize,
    /// GRAPH section, including framing.
    pub graph: usize,
    /// PARAMS section, including framing.
    pub params: usize,
}

impl SectionSizes {
    /// Total artifact size in bytes.
    pub fn total(&self) -> usize {
        self.header + self.meta + self.graph + self.params
    }
}

/// One compiled convolution layer: the executor configuration its `(Th, N)`
/// parameters dictate (reordered kernels with their PAUs) and the window
/// plan of its input geometry.
#[derive(Debug, Clone)]
pub struct CompiledLayer {
    node: NodeId,
    in_h: usize,
    in_w: usize,
    config: LayerConfig,
    plan: Arc<WindowPlan>,
}

impl CompiledLayer {
    /// The conv node this layer compiles.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Input activation height/width the plan was resolved for.
    pub fn input_hw(&self) -> (usize, usize) {
        (self.in_h, self.in_w)
    }

    /// Per-kernel execution states (reordered weights + PAU).
    pub fn kernels(&self) -> &[KernelExec] {
        self.config.kernels()
    }

    /// The resolved window plan for the layer's compile-time geometry.
    pub fn plan(&self) -> &Arc<WindowPlan> {
        &self.plan
    }
}

/// A fully compiled model: the network, its chosen speculation parameters,
/// and the per-layer state derived from them. Produced by
/// [`CompiledModel::compile`] at compile time or [`CompiledModel::from_bytes`]
/// at run time — both build the layers with the same derivation, so the two
/// are interchangeable by construction.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    graph: Graph,
    params: NetworkParams,
    input_c: usize,
    input_h: usize,
    input_w: usize,
    fmt: Q16Format,
    layers: Vec<CompiledLayer>,
}

impl CompiledModel {
    /// Compiles `graph` under `params` for inputs of shape
    /// `[n, input_c, input_h, input_w]` (any batch size `n`): reorders every
    /// kernel of every predictive layer, configures its PAU, and resolves
    /// the window plan of each layer's input geometry.
    ///
    /// # Panics
    ///
    /// Panics if the graph cannot execute an input of the given shape (the
    /// same shape errors `Graph::forward` raises).
    pub fn compile(
        graph: &Graph,
        params: &NetworkParams,
        input_dims: (usize, usize, usize),
        fmt: Q16Format,
    ) -> Self {
        let _span = snapea_obs::span!("artifact/compile");
        let model = Self::derive(graph.clone(), params.clone(), input_dims, fmt);
        snapea_obs::event!(
            "artifact/compiled",
            layers = model.layers.len() as u64,
            nodes = graph.len() as u64,
        );
        model
    }

    /// The derivation behind both [`Self::compile`] and
    /// [`Self::from_bytes`]: for every predictive conv, the configuration
    /// [`LayerConfig::from_params`] builds and the [`exec::layer_plan`] of
    /// the conv's input geometry.
    fn derive(
        graph: Graph,
        params: NetworkParams,
        (input_c, input_h, input_w): (usize, usize, usize),
        fmt: Q16Format,
    ) -> Self {
        // Shape inference: an empty-batch forward gives every node the
        // `(c, h, w)` a one-image forward would, without computing any
        // activation, so each plan is resolved for exactly the geometry run
        // time will present.
        let acts = graph.forward(&Tensor4::zeros(Shape4::new(0, input_c, input_h, input_w)));
        let layers = params
            .iter()
            .filter_map(|(id, p)| {
                let (LayerParams::Predictive(_), Op::Conv(conv)) = (p, &graph.node(id).op) else {
                    return None;
                };
                let in_shape = acts[*graph.node(id).inputs.first()?].shape();
                Some(CompiledLayer {
                    node: id,
                    in_h: in_shape.h,
                    in_w: in_shape.w,
                    config: LayerConfig::from_params(conv, p),
                    plan: exec::layer_plan(in_shape, conv.geom(), conv.c_in()),
                })
            })
            .collect();
        CompiledModel {
            graph,
            params,
            input_c,
            input_h,
            input_w,
            fmt,
            layers,
        }
    }

    /// The full network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The speculation parameters the model was compiled under.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// The `(c, h, w)` input shape the plans were resolved for.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        (self.input_c, self.input_h, self.input_w)
    }

    /// The fixed-point format recorded for the q16 datapath.
    pub fn fmt(&self) -> Q16Format {
        self.fmt
    }

    /// The compiled layers, in node order.
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// Primes the executor's plan cache with every compiled layer's resolved
    /// window plan, so the first execution skips plan construction.
    pub fn install_plans(&self) {
        for l in &self.layers {
            let Op::Conv(conv) = &self.graph.node(l.node).op else {
                continue;
            };
            exec::install_plan(
                l.in_h,
                l.in_w,
                conv.c_in(),
                conv.geom(),
                Arc::clone(&l.plan),
            );
        }
    }

    /// Per-layer executor configurations, keyed by conv node.
    pub fn configs(&self) -> BTreeMap<NodeId, LayerConfig> {
        self.layers
            .iter()
            .map(|l| (l.node, l.config.clone()))
            .collect()
    }

    /// Forward pass with speculation applied, mirroring `SpecNet::forward`
    /// on the compiled layer configurations. Returns all activations.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s `(c, h, w)` disagree with [`Self::input_dims`]
    /// (the plans would not match) or the graph cannot execute the shape.
    pub fn forward(&self, input: &Tensor4) -> Vec<Tensor4> {
        let s = input.shape();
        assert_eq!(
            (s.c, s.h, s.w),
            (self.input_c, self.input_h, self.input_w),
            "input shape differs from the artifact's compiled shape"
        );
        let _span = snapea_obs::span!("artifact/forward");
        self.install_plans();
        // `self.layers` is in node order; the configs are used in place.
        self.graph.forward_with(input, &mut |id, conv, x| {
            let i = self.layers.binary_search_by_key(&id, |l| l.node).ok()?;
            Some(exec::execute_conv(conv, x, &self.layers[i].config).output)
        })
    }

    /// Classification accuracy over labelled images, mirroring
    /// `SpecNet::accuracy` on the compiled kernels.
    pub fn accuracy(&self, images: &[snapea_nn::data::LabeledImage]) -> f64 {
        if images.is_empty() {
            return 0.0;
        }
        let refs: Vec<&snapea_nn::data::LabeledImage> = images.iter().collect();
        let batch = snapea_nn::data::SynthShapes::batch_refs(&refs);
        let labels: Vec<usize> = images.iter().map(|d| d.label).collect();
        let acts = self.forward(&batch);
        acts.last().map_or(0.0, |out| {
            snapea_nn::loss::accuracy(&out.to_matrix(), &labels)
        })
    }

    // ------------------------------------------------------------------
    // Serialization
    // ------------------------------------------------------------------

    /// Serializes the model to artifact bytes (canonical form: serializing
    /// the result of [`CompiledModel::from_bytes`] reproduces the input
    /// byte-for-byte).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_sized().0
    }

    /// [`Self::to_bytes`] plus the per-section size breakdown.
    pub fn to_bytes_sized(&self) -> (Vec<u8>, SectionSizes) {
        let meta = self.encode_meta();
        let graph = encode_graph(&self.graph);
        let params = encode_params(&self.params);

        let mut out = Vec::with_capacity(64 + meta.len() + graph.len() + params.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        out.extend_from_slice(&SECTION_COUNT.to_le_bytes());
        let header_fnv = fnv64(&out);
        out.extend_from_slice(&header_fnv.to_le_bytes());
        let header = out.len();

        let sizes = SectionSizes {
            header,
            meta: append_section(&mut out, SECTION_META, &meta),
            graph: append_section(&mut out, SECTION_GRAPH, &graph),
            params: append_section(&mut out, SECTION_PARAMS, &params),
        };
        (out, sizes)
    }

    /// Writes the artifact to `path`.
    pub fn write_file(&self, path: &std::path::Path) -> Result<SectionSizes, ArtifactError> {
        let (bytes, sizes) = self.to_bytes_sized();
        std::fs::write(path, bytes)?;
        Ok(sizes)
    }

    /// Reads and fully validates an artifact from `path`.
    pub fn read_file(path: &std::path::Path) -> Result<Self, ArtifactError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Deserializes and fully validates artifact bytes, then derives the
    /// layers exactly as [`Self::compile`] does.
    ///
    /// # Panics
    ///
    /// Panics if a checksum-valid GRAPH describes a network that cannot
    /// execute the META input shape (the shape errors `Graph::forward`
    /// raises). Only a crafted file can get there: corrupting a compiled
    /// artifact fails a checksum first.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        Self::from_bytes_with(bytes, LoadOptions::default())
    }

    /// [`Self::from_bytes`] with explicit [`LoadOptions`].
    pub fn from_bytes_with(bytes: &[u8], opts: LoadOptions) -> Result<Self, ArtifactError> {
        let _span = snapea_obs::span!("artifact/load");
        let mut r = Reader::new(bytes, "header");
        let magic = r.take_array::<4>()?;
        if magic != MAGIC {
            return Err(ArtifactError::BadMagic(magic));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let endian = r.u32()?;
        if endian != ENDIAN_TAG {
            return Err(ArtifactError::BadEndianTag(endian));
        }
        let sections = r.u32()?;
        let stored = r.u64()?;
        let computed = fnv64(bytes.get(..16).unwrap_or_default());
        if stored != computed {
            return Err(ArtifactError::Checksum {
                region: "header",
                stored,
                computed,
            });
        }
        if sections != SECTION_COUNT {
            return Err(ArtifactError::Invalid {
                region: "header",
                detail: format!("section count {sections} != {SECTION_COUNT}"),
            });
        }

        let meta = read_section(&mut r, SECTION_META, "META", true)?;
        let graph_bytes = read_section(&mut r, SECTION_GRAPH, "GRAPH", true)?;
        let params_bytes =
            read_section(&mut r, SECTION_PARAMS, "PARAMS", !opts.skip_params_checksum)?;
        if r.remaining() > 0 {
            return Err(ArtifactError::TrailingBytes {
                extra: r.remaining(),
            });
        }

        let (input_c, input_h, input_w, fmt) = decode_meta(&meta)?;
        let graph = decode_graph(&graph_bytes)?;
        let params = decode_params(&params_bytes, &graph)?;
        let model = Self::derive(graph, params, (input_c, input_h, input_w), fmt);
        snapea_obs::event!(
            "artifact/loaded",
            bytes = bytes.len() as u64,
            layers = model.layers.len() as u64,
            version = u64::from(version),
        );
        Ok(model)
    }

    fn encode_meta(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.usize32(self.input_c);
        w.usize32(self.input_h);
        w.usize32(self.input_w);
        w.u32(self.fmt.frac_bits());
        w.done()
    }
}

/// Appends one framed section (tag, length, payload, checksum); returns the
/// number of bytes appended.
fn append_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) -> usize {
    let before = out.len();
    let mut f = Fnv::new();
    let tag_b = tag.to_le_bytes();
    let len_b = (payload.len() as u64).to_le_bytes();
    f.update(&tag_b);
    f.update(&len_b);
    f.update(payload);
    out.extend_from_slice(&tag_b);
    out.extend_from_slice(&len_b);
    out.extend_from_slice(payload);
    out.extend_from_slice(&f.finish().to_le_bytes());
    out.len() - before
}

/// Reads one framed section, enforcing the expected tag and (optionally)
/// verifying its checksum. Returns the payload bytes.
fn read_section(
    r: &mut Reader<'_>,
    tag: u32,
    region: &'static str,
    verify: bool,
) -> Result<Vec<u8>, ArtifactError> {
    r.region = region;
    let found = r.u32()?;
    if found != tag {
        return Err(ArtifactError::Invalid {
            region,
            detail: format!("expected section tag {tag}, found {found}"),
        });
    }
    let len = r.u64()?;
    let len: usize = len.try_into().map_err(|_| ArtifactError::Bounds {
        region,
        detail: format!("payload length {len} exceeds the address space"),
    })?;
    let payload = r.chunk(len)?.to_vec();
    let stored = r.u64()?;
    if verify {
        let mut f = Fnv::new();
        f.update(&tag.to_le_bytes());
        f.update(&(payload.len() as u64).to_le_bytes());
        f.update(&payload);
        let computed = f.finish();
        if stored != computed {
            return Err(ArtifactError::Checksum {
                region,
                stored,
                computed,
            });
        }
    }
    Ok(payload)
}

// ----------------------------------------------------------------------
// META
// ----------------------------------------------------------------------

fn decode_meta(bytes: &[u8]) -> Result<(usize, usize, usize, Q16Format), ArtifactError> {
    let mut r = Reader::new(bytes, "META");
    let c = r.len32()?;
    let h = r.len32()?;
    let w = r.len32()?;
    let frac = r.u32()?;
    if frac >= 16 {
        return Err(ArtifactError::Bounds {
            region: "META",
            detail: format!("frac_bits {frac} >= 16"),
        });
    }
    if c == 0 || h == 0 || w == 0 {
        return Err(ArtifactError::Bounds {
            region: "META",
            detail: format!("degenerate input shape {c}x{h}x{w}"),
        });
    }
    r.finish()?;
    Ok((c, h, w, Q16Format::new(frac)))
}

// ----------------------------------------------------------------------
// GRAPH
// ----------------------------------------------------------------------

const OP_INPUT: u8 = 0;
const OP_CONV: u8 = 1;
const OP_RELU: u8 = 2;
const OP_MAXPOOL: u8 = 3;
const OP_AVGPOOL: u8 = 4;
const OP_CONCAT: u8 = 5;
const OP_FLATTEN: u8 = 6;
const OP_LINEAR: u8 = 7;
const OP_LRN: u8 = 8;

fn encode_graph(graph: &Graph) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize32(graph.len());
    for node in graph.nodes() {
        w.str(&node.name);
        match &node.op {
            Op::Input => w.u8(OP_INPUT),
            Op::Conv(c) => {
                w.u8(OP_CONV);
                let s = c.weight().shape();
                w.usize32(s.n);
                w.usize32(s.c);
                w.usize32(s.h);
                w.usize32(s.w);
                w.usize32(c.geom().stride);
                w.usize32(c.geom().pad);
                for &v in c.weight().as_slice() {
                    w.f32(v);
                }
                for &v in c.bias() {
                    w.f32(v);
                }
            }
            Op::Relu => w.u8(OP_RELU),
            Op::MaxPool(p) => {
                w.u8(OP_MAXPOOL);
                w.usize32(p.geom.k);
                w.usize32(p.geom.stride);
                w.usize32(p.geom.pad);
            }
            Op::AvgPool(p) => {
                w.u8(OP_AVGPOOL);
                w.usize32(p.geom.k);
                w.usize32(p.geom.stride);
                w.usize32(p.geom.pad);
            }
            Op::Concat => w.u8(OP_CONCAT),
            Op::Flatten => w.u8(OP_FLATTEN),
            Op::Linear(l) => {
                w.u8(OP_LINEAR);
                let s = l.weight().shape();
                w.usize32(s.rows);
                w.usize32(s.cols);
                for &v in l.weight().as_slice() {
                    w.f32(v);
                }
                for &v in l.bias() {
                    w.f32(v);
                }
            }
            Op::Lrn(l) => {
                w.u8(OP_LRN);
                w.usize32(l.size);
                w.f32(l.alpha);
                w.f32(l.beta);
                w.f32(l.k);
            }
        }
        w.usize32(node.inputs.len());
        for &i in &node.inputs {
            w.usize32(i);
        }
    }
    w.done()
}

fn decode_graph(bytes: &[u8]) -> Result<Graph, ArtifactError> {
    const R: &str = "GRAPH";
    let mut r = Reader::new(bytes, R);
    let count = r.len32()?;
    let mut nodes = Vec::new();
    for id in 0..count {
        let name = r.str()?;
        let op = match r.u8()? {
            OP_INPUT => Op::Input,
            OP_CONV => {
                let c_out = r.len32()?;
                let c_in = r.len32()?;
                let kh = r.len32()?;
                let kw = r.len32()?;
                let stride = r.len32()?;
                let pad = r.len32()?;
                let n = checked_product(R, &[c_out, c_in, kh, kw])?;
                let weight = r.f32s(n)?;
                let bias = r.f32s(c_out)?;
                if kh == 0 || kw == 0 || stride == 0 {
                    return Err(ArtifactError::Bounds {
                        region: R,
                        detail: format!("degenerate conv geometry {kh}x{kw} stride {stride}"),
                    });
                }
                let weight =
                    Tensor4::from_vec(Shape4::new(c_out, c_in, kh, kw), weight).map_err(|e| {
                        ArtifactError::Invalid {
                            region: R,
                            detail: format!("conv weight tensor: {e}"),
                        }
                    })?;
                let geom = ConvGeom {
                    kh,
                    kw,
                    stride,
                    pad,
                };
                Op::Conv(Conv2d::from_parts(weight, bias, geom))
            }
            OP_RELU => Op::Relu,
            OP_MAXPOOL => {
                let (k, stride, pad) = (r.len32()?, r.len32()?, r.len32()?);
                pool_geom(R, k, stride)?;
                Op::MaxPool(MaxPool::with_pad(k, stride, pad))
            }
            OP_AVGPOOL => {
                let (k, stride, pad) = (r.len32()?, r.len32()?, r.len32()?);
                pool_geom(R, k, stride)?;
                Op::AvgPool(AvgPool {
                    geom: PoolGeom::with_pad(k, stride, pad),
                })
            }
            OP_CONCAT => Op::Concat,
            OP_FLATTEN => Op::Flatten,
            OP_LINEAR => {
                let rows = r.len32()?;
                let cols = r.len32()?;
                let n = checked_product(R, &[rows, cols])?;
                let weight = r.f32s(n)?;
                let bias = r.f32s(rows)?;
                let weight = Tensor2::from_vec(Shape2::new(rows, cols), weight).map_err(|e| {
                    ArtifactError::Invalid {
                        region: R,
                        detail: format!("linear weight matrix: {e}"),
                    }
                })?;
                Op::Linear(Linear::from_parts(weight, bias))
            }
            OP_LRN => {
                let size = r.len32()?;
                let (alpha, beta, k) = (r.f32()?, r.f32()?, r.f32()?);
                if size == 0 {
                    return Err(ArtifactError::Bounds {
                        region: R,
                        detail: "LRN window size 0".to_string(),
                    });
                }
                Op::Lrn(Lrn::new(size, alpha, beta, k))
            }
            other => {
                return Err(ArtifactError::Invalid {
                    region: R,
                    detail: format!("unknown op tag {other} at node {id}"),
                })
            }
        };
        let n_inputs = r.len32()?;
        let mut inputs = Vec::with_capacity(n_inputs.min(r.remaining() / 4 + 1));
        for _ in 0..n_inputs {
            inputs.push(r.len32()?);
        }
        nodes.push(Node { name, op, inputs });
    }
    r.finish()?;
    Graph::from_nodes(nodes).map_err(|detail| ArtifactError::Invalid { region: R, detail })
}

fn pool_geom(region: &'static str, k: usize, stride: usize) -> Result<(), ArtifactError> {
    if k == 0 || stride == 0 {
        return Err(ArtifactError::Bounds {
            region,
            detail: format!("degenerate pool geometry k {k} stride {stride}"),
        });
    }
    Ok(())
}

// ----------------------------------------------------------------------
// PARAMS
// ----------------------------------------------------------------------

const LAYER_EXACT: u8 = 0;
const LAYER_PREDICTIVE: u8 = 1;
const KERNEL_EXACT: u8 = 0;
const KERNEL_SPECULATE: u8 = 1;

fn encode_params(params: &NetworkParams) -> Vec<u8> {
    let mut w = Writer::new();
    w.usize32(params.len());
    for (id, p) in params.iter() {
        w.usize32(id);
        match p {
            LayerParams::Exact => w.u8(LAYER_EXACT),
            LayerParams::Predictive(modes) => {
                w.u8(LAYER_PREDICTIVE);
                w.usize32(modes.len());
                for m in modes {
                    match m {
                        KernelMode::Exact => w.u8(KERNEL_EXACT),
                        KernelMode::Speculate(kp) => {
                            w.u8(KERNEL_SPECULATE);
                            w.f32(kp.threshold);
                            w.usize32(kp.groups);
                        }
                    }
                }
            }
        }
    }
    w.done()
}

fn decode_params(bytes: &[u8], graph: &Graph) -> Result<NetworkParams, ArtifactError> {
    const R: &str = "PARAMS";
    let mut r = Reader::new(bytes, R);
    let count = r.len32()?;
    let mut params = NetworkParams::new();
    let mut prev: Option<usize> = None;
    for _ in 0..count {
        let id = r.len32()?;
        if prev.is_some_and(|p| p >= id) {
            return Err(ArtifactError::Invalid {
                region: R,
                detail: format!("layer ids not strictly increasing at {id}"),
            });
        }
        prev = Some(id);
        let Some(Op::Conv(conv)) = graph.nodes().get(id).map(|n| &n.op) else {
            return Err(ArtifactError::Bounds {
                region: R,
                detail: format!("node {id} is not a convolution of the stored graph"),
            });
        };
        let p = match r.u8()? {
            LAYER_EXACT => LayerParams::Exact,
            LAYER_PREDICTIVE => {
                let n = r.len32()?;
                if n != conv.c_out() {
                    return Err(ArtifactError::Invalid {
                        region: R,
                        detail: format!(
                            "node {id}: {n} kernel mode(s), the conv has {} kernel(s)",
                            conv.c_out()
                        ),
                    });
                }
                let window_len = conv.window_len();
                let mut modes = Vec::with_capacity(n.min(r.remaining() + 1));
                for _ in 0..n {
                    modes.push(match r.u8()? {
                        KERNEL_EXACT => KernelMode::Exact,
                        KERNEL_SPECULATE => {
                            let threshold = r.f32()?;
                            let groups = r.len32()?;
                            if groups == 0 || groups > window_len {
                                return Err(ArtifactError::Bounds {
                                    region: R,
                                    detail: format!(
                                        "node {id}: speculative group count {groups} outside \
                                         1..={window_len} (the window length)"
                                    ),
                                });
                            }
                            KernelMode::spec(threshold, groups)
                        }
                        other => {
                            return Err(ArtifactError::Invalid {
                                region: R,
                                detail: format!("unknown kernel mode tag {other}"),
                            })
                        }
                    });
                }
                LayerParams::Predictive(modes)
            }
            other => {
                return Err(ArtifactError::Invalid {
                    region: R,
                    detail: format!("unknown layer mode tag {other}"),
                })
            }
        };
        params.set(id, p);
    }
    r.finish()?;
    Ok(params)
}

fn checked_product(region: &'static str, factors: &[usize]) -> Result<usize, ArtifactError> {
    let mut acc = 1usize;
    for &f in factors {
        acc = acc.checked_mul(f).ok_or_else(|| ArtifactError::Bounds {
            region,
            detail: format!("size product overflows ({factors:?})"),
        })?;
    }
    Ok(acc)
}

// ----------------------------------------------------------------------
// Little-endian writer/reader
// ----------------------------------------------------------------------

/// Little-endian byte sink for section payloads.
struct Writer(Vec<u8>);

impl Writer {
    fn new() -> Self {
        Writer(Vec::new())
    }
    fn done(self) -> Vec<u8> {
        self.0
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    /// Writes a usize as u32 (all artifact counts fit comfortably; the
    /// assert documents the format bound rather than guarding a real path).
    fn usize32(&mut self, v: usize) {
        assert!(v <= u32::MAX as usize, "artifact count exceeds u32");
        self.u32(v as u32);
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.usize32(s.len());
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian byte reader. Every primitive read returns a
/// typed [`ArtifactError::Truncated`] instead of panicking, and bulk reads
/// verify the byte count against the remaining input *before* allocating,
/// so corrupted counts cannot trigger allocation blow-ups.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    region: &'static str,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], region: &'static str) -> Self {
        Reader {
            bytes,
            pos: 0,
            region,
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn chunk(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        match self.bytes.get(self.pos..self.pos.saturating_add(n)) {
            Some(s) => {
                self.pos += n;
                Ok(s)
            }
            None => Err(ArtifactError::Truncated {
                region: self.region,
                needed: n,
                available: self.remaining(),
            }),
        }
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], ArtifactError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.chunk(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.take_array::<1>()?[0])
    }
    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.take_array::<4>()?))
    }
    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.take_array::<8>()?))
    }
    fn f32(&mut self) -> Result<f32, ArtifactError> {
        Ok(f32::from_bits(self.u32()?))
    }
    /// A u32-encoded count/index as usize.
    fn len32(&mut self) -> Result<usize, ArtifactError> {
        Ok(self.u32()? as usize)
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, ArtifactError> {
        let raw = self.chunk(n.checked_mul(4).ok_or(ArtifactError::Bounds {
            region: self.region,
            detail: "u32 count overflows".to_string(),
        })?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, ArtifactError> {
        Ok(self.u32s(n)?.into_iter().map(f32::from_bits).collect())
    }

    fn str(&mut self) -> Result<String, ArtifactError> {
        let n = self.len32()?;
        let raw = self.chunk(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ArtifactError::Invalid {
            region: self.region,
            detail: "string is not valid UTF-8".to_string(),
        })
    }

    /// Declares the payload fully consumed.
    fn finish(&self) -> Result<(), ArtifactError> {
        if self.remaining() > 0 {
            return Err(ArtifactError::Invalid {
                region: self.region,
                detail: format!("{} unread payload byte(s)", self.remaining()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::KernelParams;
    use snapea_nn::graph::GraphBuilder;
    use snapea_tensor::init;

    /// Deterministic two-conv model with mixed exact/predictive kernels.
    fn tiny_model() -> (Graph, NetworkParams) {
        let mut rng = init::rng(0xA57);
        let mut b = GraphBuilder::new();
        let x = b.input();
        let c1 = b.conv("conv1", x, 3, 4, ConvGeom::square(3, 1, 1), &mut rng);
        let r1 = b.relu("relu1", c1);
        let c2 = b.conv("conv2", r1, 4, 3, ConvGeom::square(3, 2, 0), &mut rng);
        let r2 = b.relu("relu2", c2);
        let f = b.flatten("flat", r2);
        let _ = b.linear("fc", f, 3 * 3 * 3, 5, &mut rng);
        let g = b.build();
        let mut p = NetworkParams::new();
        p.set(
            1,
            LayerParams::Predictive(vec![
                KernelMode::Exact,
                KernelMode::spec(0.25, 4),
                KernelMode::spec(-0.5, 2),
                KernelMode::spec(f32::INFINITY, 3),
            ]),
        );
        p.set(3, LayerParams::uniform(3, KernelParams::new(0.1, 5)));
        (g, p)
    }

    fn compile_tiny() -> CompiledModel {
        let (g, p) = tiny_model();
        CompiledModel::compile(&g, &p, (3, 8, 8), Q16Format::default())
    }

    #[test]
    fn round_trip_is_byte_exact_and_executes_identically() {
        let cm = compile_tiny();
        let bytes = cm.to_bytes();
        let loaded = CompiledModel::from_bytes(&bytes).expect("valid artifact");
        assert_eq!(loaded.to_bytes(), bytes, "canonical re-serialization");

        let input = init::uniform4(Shape4::new(2, 3, 8, 8), 1.0, &mut init::rng(9)).map(f32::abs);
        let fresh = cm.forward(&input);
        let from_artifact = loaded.forward(&input);
        assert_eq!(fresh.len(), from_artifact.len());
        for (a, b) in fresh.iter().zip(&from_artifact) {
            assert_eq!(a.as_slice(), b.as_slice(), "bit-identical activations");
        }
    }

    #[test]
    fn artifact_matches_spec_net_execution() {
        let (g, p) = tiny_model();
        let cm = CompiledModel::compile(&g, &p, (3, 8, 8), Q16Format::default());
        let loaded = CompiledModel::from_bytes(&cm.to_bytes()).expect("valid artifact");
        let input = init::uniform4(Shape4::new(1, 3, 8, 8), 1.0, &mut init::rng(3)).map(f32::abs);
        let spec = crate::spec_net::SpecNet::new(&g, &p).forward(&input);
        let art = loaded.forward(&input);
        for (a, b) in spec.iter().zip(&art) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn header_field_corruptions_yield_typed_errors() {
        let bytes = compile_tiny().to_bytes();

        let mut b = bytes.clone();
        b[0] = b'X';
        assert!(matches!(
            CompiledModel::from_bytes(&b),
            Err(ArtifactError::BadMagic(_))
        ));

        let mut b = bytes.clone();
        b[4] = 0xFF; // version
        assert!(matches!(
            CompiledModel::from_bytes(&b),
            Err(ArtifactError::UnsupportedVersion { .. })
        ));

        let mut b = bytes.clone();
        b[8] ^= 0x01; // endian tag
        assert!(matches!(
            CompiledModel::from_bytes(&b),
            Err(ArtifactError::BadEndianTag(_))
        ));

        let mut b = bytes.clone();
        b[12] ^= 0x01; // section count (covered by the header checksum)
        assert!(matches!(
            CompiledModel::from_bytes(&b),
            Err(ArtifactError::Checksum {
                region: "header",
                ..
            })
        ));
    }

    #[test]
    fn payload_corruption_truncation_and_trailing_are_rejected() {
        let bytes = compile_tiny().to_bytes();

        // Flip one bit in every section's payload territory.
        for pos in [40usize, bytes.len() / 2, bytes.len() - 9] {
            let mut b = bytes.clone();
            b[pos] ^= 0x10;
            assert!(
                CompiledModel::from_bytes(&b).is_err(),
                "bit flip at {pos} must be rejected"
            );
        }

        for cut in [bytes.len() - 1, bytes.len() / 2, 20, 3] {
            let b = &bytes[..cut];
            assert!(matches!(
                CompiledModel::from_bytes(b),
                Err(ArtifactError::Truncated { .. })
            ));
        }

        let mut b = bytes.clone();
        b.push(0);
        assert!(matches!(
            CompiledModel::from_bytes(&b),
            Err(ArtifactError::TrailingBytes { extra: 1 })
        ));
    }

    #[test]
    fn skip_params_checksum_accepts_threshold_corruption() {
        // The inject-bug smoke's premise: with the PARAMS checksum verify
        // skipped, a flipped threshold bit is well-formed and loads as a
        // different model — the corruption battery exists to catch exactly
        // this class of bug.
        let cm = compile_tiny();
        let (bytes, sizes) = cm.to_bytes_sized();
        // PARAMS payload, after the section's 12-byte tag and length: layer
        // count u32, node 1's id u32, layer tag u8, mode count u32, kernel
        // 0's exact tag u8, kernel 1's speculate tag u8, then its threshold.
        let threshold = sizes.header + sizes.meta + sizes.graph + 12 + 15;
        let mut b = bytes.clone();
        b[threshold] ^= 0x01;
        assert!(matches!(
            CompiledModel::from_bytes(&b),
            Err(ArtifactError::Checksum {
                region: "PARAMS",
                ..
            })
        ));
        let opts = LoadOptions {
            skip_params_checksum: true,
        };
        let loaded = CompiledModel::from_bytes_with(&b, opts).expect("well-formed PARAMS");
        assert_ne!(loaded.params(), cm.params());
        let pau = loaded.layers()[0].kernels()[1].pau;
        assert_eq!(pau.spec_len(), 4);
        assert_ne!(pau.threshold().to_bits(), 0.25f32.to_bits());
    }

    #[test]
    fn section_sizes_cover_the_file() {
        let cm = compile_tiny();
        let (bytes, sizes) = cm.to_bytes_sized();
        assert_eq!(sizes.total(), bytes.len());
        assert_eq!(sizes.header, 24);
    }

    #[test]
    fn install_plans_primes_the_cache() {
        let cm = compile_tiny();
        exec::clear_plan_cache();
        cm.install_plans();
        assert_eq!(exec::plan_cache_len(), 2);
    }
}
