//! The trained zoo nets and their Algorithm-1 parameters, committed under
//! `fixtures/` in a little-endian format this benchmark owns.
//!
//! The format depends on neither the serde checkpoints nor the `.snapea`
//! artifact, so a change to either cannot break the benchmark's inputs:
//!
//! ```text
//! magic "E2EF", version u32 = 1
//! name        u32 length, UTF-8 bytes
//! accuracy    f64 (held-out accuracy the repro recipe measured)
//! tensors     u32 count, then per conv/linear node in topological order:
//!             node u32, kind u8 (1 conv, 2 linear),
//!             u32 count + f32 weights, u32 count + f32 biases
//! params      u32 count, then per layer: node u32, tag u8 (0 exact,
//!             1 predictive); predictive: u32 kernels, then per kernel
//!             tag u8 (0 exact, 1 speculate) + f32 threshold + u32 groups
//! ```
//!
//! Every file's FNV-1a 64 digest is pinned in [`DIGESTS`]; a mismatch fails
//! the run before any timing starts.

use snapea::params::{KernelMode, KernelParams, LayerParams, NetworkParams};
use snapea_nn::graph::{Graph, Op};
use snapea_nn::zoo::Workload;
use std::path::Path;

/// Classes every zoo net is built for (the repro recipe's `CLASSES`).
pub const CLASSES: usize = 10;

/// Accuracy budget ε the committed parameters were optimized for.
pub const EPSILON: f64 = 0.03;

const MAGIC: [u8; 4] = *b"E2EF";
const VERSION: u32 = 1;

/// Pinned FNV-1a 64 digest of each committed fixture file.
pub const DIGESTS: [(Workload, u64); 4] = [
    (Workload::AlexNet, 0x009c_6079_3577_9f81),
    (Workload::GoogLeNet, 0xd41f_cf04_a85a_cf61),
    (Workload::SqueezeNet, 0x3f9d_c049_464d_b8b5),
    (Workload::VggNet, 0xe8c5_f5a3_a304_1bcd),
];

/// A trained net with its Algorithm-1 parameters.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Which zoo net this is.
    pub workload: Workload,
    /// The trained network.
    pub net: Graph,
    /// Algorithm 1's parameters at ε = [`EPSILON`] on the repro recipe's
    /// optimization set.
    pub params: NetworkParams,
}

/// FNV-1a 64 over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// File name of a workload's fixture.
pub fn file_name(w: Workload) -> String {
    format!("{}.bin", w.name().to_lowercase())
}

/// The pinned digest of `w`'s fixture.
pub fn pinned_digest(w: Workload) -> u64 {
    DIGESTS
        .iter()
        .find(|(d, _)| *d == w)
        .map(|(_, h)| *h)
        .expect("every workload has a pinned digest")
}

/// Reads `w`'s fixture bytes from `dir` and checks them against the pinned
/// digest.
pub fn read_checked(dir: &Path, w: Workload) -> Result<Vec<u8>, String> {
    let path = dir.join(file_name(w));
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let got = fnv64(&bytes);
    let want = pinned_digest(w);
    if got != want {
        return Err(format!(
            "{}: digest {got:016x} differs from the pinned {want:016x}",
            path.display()
        ));
    }
    Ok(bytes)
}

/// Encodes a trained net and its parameters.
pub fn encode(w: Workload, net: &Graph, params: &NetworkParams, accuracy: f64) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, len_u32(w.name().len()));
    out.extend_from_slice(w.name().as_bytes());
    out.extend_from_slice(&accuracy.to_le_bytes());
    let tensors: Vec<(usize, u8, &[f32], &[f32])> = net
        .nodes()
        .iter()
        .enumerate()
        .filter_map(|(id, n)| match &n.op {
            Op::Conv(c) => Some((id, 1, c.weight().as_slice(), c.bias())),
            Op::Linear(l) => Some((id, 2, l.weight().as_slice(), l.bias())),
            _ => None,
        })
        .collect();
    put_u32(&mut out, len_u32(tensors.len()));
    for (id, kind, weights, bias) in tensors {
        put_u32(&mut out, len_u32(id));
        out.push(kind);
        put_f32s(&mut out, weights);
        put_f32s(&mut out, bias);
    }
    put_u32(&mut out, len_u32(params.len()));
    for (id, p) in params.iter() {
        put_u32(&mut out, len_u32(id));
        match p {
            LayerParams::Exact => out.push(0),
            LayerParams::Predictive(modes) => {
                out.push(1);
                put_u32(&mut out, len_u32(modes.len()));
                for m in modes {
                    match m {
                        KernelMode::Exact => {
                            out.push(0);
                            out.extend_from_slice(&0f32.to_le_bytes());
                            put_u32(&mut out, 0);
                        }
                        KernelMode::Speculate(k) => {
                            out.push(1);
                            out.extend_from_slice(&k.threshold.to_le_bytes());
                            put_u32(&mut out, len_u32(k.groups));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Decodes a fixture into a `Workload::build(CLASSES)` graph whose weights
/// are overwritten through `weight_mut`/`bias_mut`, plus its parameters.
pub fn decode(w: Workload, bytes: &[u8]) -> Result<Fixture, String> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err("bad magic".into());
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(format!("version {version}, expected {VERSION}"));
    }
    let name_len = r.len()?;
    let name = std::str::from_utf8(r.take(name_len)?).map_err(|e| e.to_string())?;
    if name != w.name() {
        return Err(format!("fixture holds {name}, expected {}", w.name()));
    }
    let accuracy = f64::from_le_bytes(r.array()?);
    if !(0.0..=1.0).contains(&accuracy) {
        return Err(format!("recorded accuracy {accuracy} is not a fraction"));
    }
    let mut net = w.build(CLASSES);
    let expected: Vec<usize> = net
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.op, Op::Conv(_) | Op::Linear(_)))
        .map(|(id, _)| id)
        .collect();
    let tensors = r.len()?;
    if tensors != expected.len() {
        return Err(format!(
            "{tensors} tensors for {} parameterised layers",
            expected.len()
        ));
    }
    for &want_id in &expected {
        let id = r.len()?;
        if id != want_id {
            return Err(format!("tensor for node {id} where node {want_id} was due"));
        }
        let kind = r.u8()?;
        let weights = r.f32s()?;
        let bias = r.f32s()?;
        match (&mut net.node_mut(id).op, kind) {
            (Op::Conv(c), 1) => {
                fill(c.weight_mut().as_mut_slice(), &weights, id)?;
                fill(c.bias_mut(), &bias, id)?;
            }
            (Op::Linear(l), 2) => {
                fill(l.weight_mut().as_mut_slice(), &weights, id)?;
                fill(l.bias_mut(), &bias, id)?;
            }
            _ => return Err(format!("node {id} is not a kind-{kind} layer")),
        }
    }
    let mut params = NetworkParams::new();
    let layers = r.len()?;
    for _ in 0..layers {
        let id = r.len()?;
        let kernels = match &net.nodes().get(id).map(|n| &n.op) {
            Some(Op::Conv(c)) => c.c_out(),
            _ => return Err(format!("params name node {id}, which is not a conv")),
        };
        let p = match r.u8()? {
            0 => LayerParams::Exact,
            1 => {
                let n = r.len()?;
                if n != kernels {
                    return Err(format!("node {id}: {n} kernel modes for {kernels} kernels"));
                }
                let mut modes = Vec::with_capacity(n);
                for _ in 0..n {
                    let tag = r.u8()?;
                    let threshold = f32::from_le_bytes(r.array()?);
                    let groups = r.len()?;
                    modes.push(match tag {
                        0 => KernelMode::Exact,
                        1 => KernelMode::Speculate(KernelParams::new(threshold, groups)),
                        t => return Err(format!("kernel mode tag {t}")),
                    });
                }
                LayerParams::Predictive(modes)
            }
            t => return Err(format!("layer params tag {t}")),
        };
        params.set(id, p);
    }
    if r.pos != bytes.len() {
        return Err(format!("{} trailing bytes", bytes.len() - r.pos));
    }
    Ok(Fixture {
        workload: w,
        net,
        params,
    })
}

fn fill(dst: &mut [f32], src: &[f32], id: usize) -> Result<(), String> {
    if dst.len() != src.len() {
        return Err(format!(
            "node {id}: {} values for a {}-value tensor",
            src.len(),
            dst.len()
        ));
    }
    dst.copy_from_slice(src);
    Ok(())
}

/// Loads and digest-checks every fixture in `dir`, in [`Workload::ALL`]
/// order.
pub fn load_all(dir: &Path) -> Result<Vec<Fixture>, String> {
    Workload::ALL
        .iter()
        .map(|&w| decode(w, &read_checked(dir, w)?))
        .collect()
}

fn len_u32(n: usize) -> u32 {
    u32::try_from(n).expect("fixture lengths fit in u32")
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    put_u32(out, len_u32(vs.len()));
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn len(&mut self) -> Result<usize, String> {
        usize::try_from(self.u32()?).map_err(|e| e.to_string())
    }

    fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.len()?;
        let raw = self.take(n.checked_mul(4).ok_or("length overflow")?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}
